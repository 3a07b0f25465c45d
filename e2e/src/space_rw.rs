//! `space-rw-tcp`: the space and transport layers used the way coupled
//! codes use a shared space — bulk writes beside bulk reads, no
//! pipeline and no tasks.
//!
//! A writer thread computes each version of a field — its share of a
//! simulation step — and `put_field`s it as four 256 KiB blocks over
//! its own connection; a reader thread `get_assembled`s each completed
//! version over a second connection, checks every value against the
//! writer's position-weighted checksum, and evicts the version. At most
//! [`WINDOW`] completed versions wait for the reader, so the writer is
//! a closed loop.
//!
//! The writer's compute makes it the slower side by a clear margin.
//! With the two sides balanced the window flips between empty and full
//! from run to run, and time-to-insight with it by a factor of three.

use crate::pipeline::tcp_any;
use crate::stats::splitmix64;
use sitra_dataspaces::{RemoteSpace, SpaceServer};
use sitra_mesh::{BBox3, Decomposition, ScalarField};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The shared field: 64×64×32 doubles = 1 MiB, written as four
/// 32×32×32 blocks of 256 KiB.
pub const DIMS: [usize; 3] = [64, 64, 32];
pub const BLOCKS: [usize; 3] = [2, 2, 1];
pub const BLOCK_BYTES: usize = 32 * 32 * 32 * 8;
/// Completed versions that may wait for the reader.
pub const WINDOW: usize = 4;
const VAR: &str = "coupled/field";

/// Versions whose stamps are discarded.
pub const WARMUP: usize = 40;
/// Timed versions per second of `--seconds` on the reference box.
pub const VERSIONS_PER_SECOND: f64 = 230.0;

pub fn timed_versions(seconds: f64) -> usize {
    ((seconds * VERSIONS_PER_SECOND).round() as usize).max(20)
}

/// Stamps of one version, in nanoseconds since the pass's epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct VersionTimes {
    /// The writer starts computing the version.
    pub started: u64,
    pub last_put_return: u64,
    pub get_entry: u64,
    pub get_return: u64,
    pub verified: bool,
}

pub struct Pass {
    /// One entry per version, warm-up included.
    pub versions: Vec<VersionTimes>,
    pub setup: Duration,
    pub wall: Duration,
    pub errors: Vec<String>,
}

/// The field the writer's code computes: one plane wave whose
/// direction and phase come from the seed and which travels with the
/// version.
#[derive(Debug, Clone, Copy)]
pub struct Wave {
    k: [f64; 3],
    phase: f64,
}

impl Wave {
    pub fn new(seed: u64) -> Self {
        let unit = |n: u64| (splitmix64(seed ^ n) >> 11) as f64 / (1u64 << 53) as f64;
        Wave {
            k: [
                0.05 + 0.4 * unit(1),
                0.05 + 0.4 * unit(2),
                0.05 + 0.4 * unit(3),
            ],
            phase: std::f64::consts::TAU * unit(4),
        }
    }

    /// Version `version` of the field over `bbox`.
    pub fn block(&self, version: u64, bbox: BBox3) -> ScalarField {
        let shift = self.phase + 0.37 * version as f64;
        ScalarField::from_fn(bbox, |p| {
            (self.k[0] * p[0] as f64 + self.k[1] * p[1] as f64 + self.k[2] * p[2] as f64 + shift)
                .sin()
        })
    }
}

/// Sum of the values' bit patterns weighted by their position in the
/// whole domain: the blocks' checksums add up to the whole field's, and
/// a value that is wrong or in the wrong place changes it.
pub fn checksum(field: &ScalarField) -> u64 {
    let bbox = field.bbox();
    field
        .as_slice()
        .iter()
        .enumerate()
        .fold(0u64, |sum, (i, x)| {
            let p = bbox.coord_of(i);
            let at = (p[0] + DIMS[0] * (p[1] + DIMS[1] * p[2])) as u64;
            sum.wrapping_add(x.to_bits().wrapping_mul(2 * at + 1))
        })
}

pub fn blocks() -> Vec<BBox3> {
    let decomp = Decomposition::new(BBox3::from_dims(DIMS), BLOCKS);
    (0..decomp.rank_count()).map(|r| decomp.block(r)).collect()
}

/// Run `versions` versions through a fresh server on `tcp://`.
pub fn run_pass(seed: u64, versions: usize) -> Result<Pass, String> {
    let start = Instant::now();
    let server = SpaceServer::start(&tcp_any(), 1).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let writer_conn = RemoteSpace::connect(&addr).map_err(|e| e.to_string())?;
    let reader_conn = RemoteSpace::connect(&addr).map_err(|e| e.to_string())?;
    let wave = Wave::new(seed);
    let blocks = blocks();
    let global = BBox3::from_dims(DIMS);
    let epoch = Instant::now();
    let now_ns = move || (epoch.elapsed().as_nanos() as u64).max(1);

    // The channel holds the completed versions the reader has not
    // taken yet; its bound is the window.
    let (tx, rx) = mpsc::sync_channel::<(usize, u64, u64, u64)>(WINDOW);
    let (times, errors) = std::thread::scope(|scope| {
        let blocks = &blocks;
        let writer = scope.spawn(move || -> Result<(), String> {
            for v in 0..versions {
                let started = now_ns();
                let mut expected = 0u64;
                for bbox in blocks {
                    let block = wave.block(v as u64, *bbox);
                    expected = expected.wrapping_add(checksum(&block));
                    writer_conn
                        .put_field(VAR, v as u64, &block)
                        .map_err(|e| format!("put of version {v}: {e}"))?;
                }
                if tx.send((v, started, now_ns(), expected)).is_err() {
                    return Err("the reader went away".into());
                }
            }
            Ok(())
        });
        let reader = scope.spawn(move || {
            let mut times = Vec::with_capacity(versions);
            let mut errors = Vec::new();
            for (v, started, last_put_return, expected) in rx {
                let get_entry = now_ns();
                let got = reader_conn.get_assembled(VAR, v as u64, &global, f64::NAN);
                let get_return = now_ns();
                let verified = match got {
                    Ok(field) => checksum(&field) == expected,
                    Err(e) => {
                        errors.push(format!("get of version {v}: {e}"));
                        false
                    }
                };
                if let Err(e) = reader_conn.evict_version(v as u64) {
                    errors.push(format!("evict of version {v}: {e}"));
                }
                times.push(VersionTimes {
                    started,
                    last_put_return,
                    get_entry,
                    get_return,
                    verified,
                });
            }
            (times, errors)
        });
        let written = writer.join().expect("the writer does not panic");
        let (times, mut errors) = reader.join().expect("the reader does not panic");
        if let Err(e) = written {
            errors.push(e);
        }
        (times, errors)
    });
    server.shutdown();

    let first_timed = times
        .get(WARMUP)
        .map(|t| t.started)
        .ok_or("fewer versions than the warm-up")?;
    Ok(Pass {
        versions: times,
        setup: epoch.duration_since(start) + Duration::from_nanos(first_timed),
        wall: start.elapsed(),
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contents_depend_on_the_seed_and_the_version_only() {
        let bbox = blocks()[1];
        let a = Wave::new(7).block(3, bbox);
        assert_eq!(a.as_slice(), Wave::new(7).block(3, bbox).as_slice());
        assert_ne!(a.as_slice(), Wave::new(8).block(3, bbox).as_slice());
        assert_ne!(a.as_slice(), Wave::new(7).block(4, bbox).as_slice());
        assert_eq!(a.len() * 8, BLOCK_BYTES);
    }

    #[test]
    fn block_checksums_add_up_and_notice_a_misplaced_value() {
        let wave = Wave::new(11);
        let parts: Vec<ScalarField> = blocks().into_iter().map(|b| wave.block(5, b)).collect();
        let whole = sitra_mesh::field::assemble(BBox3::from_dims(DIMS), &parts, f64::NAN);
        let sum = parts.iter().fold(0u64, |s, p| s.wrapping_add(checksum(p)));
        assert_eq!(checksum(&whole), sum);
        let mut swapped = whole.clone();
        swapped.as_mut_slice().swap(10, 5_000);
        assert_ne!(checksum(&swapped), sum);
    }
}
