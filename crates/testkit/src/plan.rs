//! Seeded fault plans: a compact, pure description of everything the
//! chaos harness will do to a run.
//!
//! A [`FaultPlan`] is deliberately *stateless*: the fate of a frame is
//! a pure function of `(plan, connection index, per-connection frame
//! index)`, and partitions/crashes are expressed against a virtual
//! clock of observed frames. Identical plan + identical traffic trace
//! ⇒ identical fault schedule, which is what makes a failing seed
//! replayable (and shrinkable) after the fact.

use proptest::prelude::*;
use proptest::BoxedStrategy;
use sitra_net::FaultAction;
use std::fmt;
use std::time::Duration;

/// splitmix64: the tiny, high-quality mixer every decision runs
/// through. Public-domain algorithm (Steele et al.).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A half-open window `[from_tick, until_tick)` of the virtual clock
/// during which every new connection attempt is refused — a network
/// partition. The virtual clock advances by one per frame the injector
/// observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First tick at which dials are refused.
    pub from_tick: u64,
    /// First tick at which dials succeed again.
    pub until_tick: u64,
}

/// When (and whether) the staging server is killed, and whether a
/// replacement comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPlan {
    /// Kill the server from inside the driver's collection path after
    /// this many staged outputs were collected; optionally restart a
    /// fresh server on the same endpoint immediately.
    AfterOutputs {
        /// Collected outputs before the kill.
        outputs: usize,
        /// Start a replacement server on the same address.
        restart: bool,
    },
}

/// Whole-instance loss: the staging member at `member` (an index into
/// the endpoint list, wrapped modulo the member count) is killed
/// outright — no handoff, queued tasks dropped — once the virtual clock
/// reaches `at_tick`. The in-process backends have no member to lose and
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceLoss {
    /// Index of the doomed member.
    pub member: u32,
    /// Virtual-clock tick of the kill.
    pub at_tick: u64,
}

/// A scheduled elastic resize of the bucket-worker pool: once the
/// virtual clock reaches `at_tick`, `delta` additional workers are
/// spawned (positive) or `|delta|` live buckets are drained and
/// retired (negative). This is an *event*, not a fault — the oracles
/// must hold across it either way, which is exactly what makes it
/// worth scheduling next to the faults: a bucket retired mid-drain
/// while the network is cutting frames must still lose nothing.
/// In-situ and local backends have no externally scalable pool and
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// Workers to add (positive) or buckets to drain-then-retire
    /// (negative). Zero is rejected by `parse`.
    pub delta: i32,
    /// Virtual-clock tick at which the resize fires.
    pub at_tick: u64,
}

/// A seeded, self-describing fault plan. Rates are per-mille per
/// frame; the remaining mass delivers the frame untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed every per-frame decision is derived from.
    pub seed: u64,
    /// ‰ of frames discarded (severing the link — see `sitra_net::fault`).
    pub drop_per_mille: u16,
    /// ‰ of frames delivered twice.
    pub dup_per_mille: u16,
    /// ‰ of frames delayed before delivery.
    pub delay_per_mille: u16,
    /// Upper bound on an injected delay, in milliseconds.
    pub max_delay_ms: u64,
    /// ‰ of frames held back so concurrent traffic overtakes.
    pub reorder_per_mille: u16,
    /// ‰ of frames on which the link is cut (send fails).
    pub cut_per_mille: u16,
    /// Windows of the virtual clock during which dials are refused.
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled server crash, if any.
    pub crash: Option<CrashPlan>,
    /// Scheduled whole-instance loss (cluster scenarios), if any.
    pub instance_loss: Option<InstanceLoss>,
    /// Scheduled bucket-pool resize (staging scenarios), if any.
    pub scale: Option<ScaleEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a shrinking floor and for
    /// golden runs driven through the same machinery).
    pub fn fault_free(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            max_delay_ms: 0,
            reorder_per_mille: 0,
            cut_per_mille: 0,
            partitions: Vec::new(),
            crash: None,
            instance_loss: None,
            scale: None,
        }
    }

    /// Derive a moderately hostile plan from a seed alone — what the
    /// pinned corpus and the `--random` smoke runs use. Rates are kept
    /// low enough that most traffic flows (so remote runs make
    /// progress) but high enough that every fault class fires across a
    /// handful of seeds.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let h = |i: u64| splitmix64(seed ^ splitmix64(i));
        let mut plan = FaultPlan {
            seed,
            drop_per_mille: (h(1) % 12) as u16,
            dup_per_mille: (h(2) % 10) as u16,
            delay_per_mille: (h(3) % 25) as u16,
            max_delay_ms: 1 + h(4) % 15,
            reorder_per_mille: (h(5) % 20) as u16,
            cut_per_mille: (h(6) % 8) as u16,
            partitions: Vec::new(),
            crash: None,
            // Never set here: the pinned corpus predates instance loss
            // and must keep deriving the exact same plans. Cluster
            // plans opt in via `iloss=` specs or `arb_fault_plan`.
            instance_loss: None,
            // Same deal: pool resizes postdate the corpus and opt in
            // via `scale=` specs or `arb_fault_plan`.
            scale: None,
        };
        if h(7) % 4 == 0 {
            let from = h(8) % 200;
            plan.partitions.push(PartitionWindow {
                from_tick: from,
                until_tick: from + 10 + h(9) % 50,
            });
        }
        if h(10) % 3 == 0 {
            plan.crash = Some(CrashPlan::AfterOutputs {
                outputs: 1 + (h(11) % 3) as usize,
                restart: h(12) % 2 == 0,
            });
        }
        plan
    }

    /// The fate of frame number `op` on (dense) connection `conn` — a
    /// pure function: calling this twice with the same arguments always
    /// returns the same action.
    pub fn decide(&self, conn: u64, op: u64) -> FaultAction {
        let mut h = splitmix64(self.seed ^ splitmix64(conn.wrapping_add(0x00C0_FFEE)));
        h = splitmix64(h ^ op);
        let roll = (h % 1000) as u16;
        let mut bound = self.drop_per_mille;
        if roll < bound {
            return FaultAction::Drop;
        }
        bound = bound.saturating_add(self.dup_per_mille);
        if roll < bound {
            return FaultAction::Duplicate;
        }
        bound = bound.saturating_add(self.delay_per_mille);
        if roll < bound {
            return FaultAction::Delay(self.jitter(h));
        }
        bound = bound.saturating_add(self.reorder_per_mille);
        if roll < bound {
            return FaultAction::Reorder(self.jitter(h));
        }
        bound = bound.saturating_add(self.cut_per_mille);
        if roll < bound {
            return FaultAction::Cut;
        }
        FaultAction::Deliver
    }

    fn jitter(&self, h: u64) -> Duration {
        Duration::from_millis(1 + splitmix64(h) % self.max_delay_ms.max(1))
    }

    /// Whether dials are refused at virtual-clock `tick`.
    pub fn partitioned_at(&self, tick: u64) -> bool {
        self.partitions
            .iter()
            .any(|w| tick >= w.from_tick && tick < w.until_tick)
    }

    /// Whether the plan can do anything at all.
    pub fn is_fault_free(&self) -> bool {
        self.drop_per_mille == 0
            && self.dup_per_mille == 0
            && self.delay_per_mille == 0
            && self.reorder_per_mille == 0
            && self.cut_per_mille == 0
            && self.partitions.is_empty()
            && self.crash.is_none()
            && self.instance_loss.is_none()
            && self.scale.is_none()
    }

    /// Parse the spec format produced by `Display`:
    /// `seed=42,drop=8,dup=5,delay=10,delaymax=12,reorder=6,cut=3,part=10..40,crash=after:2:restart,iloss=1:120,scale=-1:80`
    ///
    /// Every field is optional except `seed`; `crash` is
    /// `after:N[:restart]`; `iloss` is `MEMBER:TICK`; `scale` is
    /// `DELTA:TICK` with a signed, non-zero `DELTA`. This is what the
    /// chaos binary's `--plan` accepts, so a shrink report pastes
    /// straight back in.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = None;
        let mut plan = FaultPlan::fault_free(0);
        for field in spec.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("field `{field}` is not key=value"))?;
            let uint = |v: &str| -> Result<u64, String> {
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                parsed.map_err(|_| format!("`{v}` is not a number (in `{field}`)"))
            };
            match key {
                "seed" => seed = Some(uint(value)?),
                "drop" => plan.drop_per_mille = uint(value)? as u16,
                "dup" => plan.dup_per_mille = uint(value)? as u16,
                "delay" => plan.delay_per_mille = uint(value)? as u16,
                "delaymax" => plan.max_delay_ms = uint(value)?,
                "reorder" => plan.reorder_per_mille = uint(value)? as u16,
                "cut" => plan.cut_per_mille = uint(value)? as u16,
                "part" => {
                    let (from, until) = value
                        .split_once("..")
                        .ok_or_else(|| format!("`{value}` is not FROM..UNTIL"))?;
                    plan.partitions.push(PartitionWindow {
                        from_tick: uint(from)?,
                        until_tick: uint(until)?,
                    });
                }
                "crash" => {
                    let mut parts = value.split(':');
                    match parts.next() {
                        Some("after") => {
                            let outputs = uint(
                                parts
                                    .next()
                                    .ok_or_else(|| "crash=after needs :N".to_string())?,
                            )? as usize;
                            let restart = match parts.next() {
                                None => false,
                                Some("restart") => true,
                                Some(other) => return Err(format!("unknown crash flag `{other}`")),
                            };
                            plan.crash = Some(CrashPlan::AfterOutputs { outputs, restart });
                        }
                        _ => return Err(format!("unknown crash spec `{value}`")),
                    }
                }
                "iloss" => {
                    let (member, tick) = value
                        .split_once(':')
                        .ok_or_else(|| format!("`{value}` is not MEMBER:TICK"))?;
                    plan.instance_loss = Some(InstanceLoss {
                        member: uint(member)? as u32,
                        at_tick: uint(tick)?,
                    });
                }
                "scale" => {
                    let (delta, tick) = value
                        .split_once(':')
                        .ok_or_else(|| format!("`{value}` is not DELTA:TICK"))?;
                    let delta: i32 = delta
                        .parse()
                        .map_err(|_| format!("`{delta}` is not a signed delta (in `{field}`)"))?;
                    if delta == 0 {
                        return Err("scale delta must be non-zero".to_string());
                    }
                    plan.scale = Some(ScaleEvent {
                        delta,
                        at_tick: uint(tick)?,
                    });
                }
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        plan.seed = seed.ok_or_else(|| "spec is missing seed=".to_string())?;
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#x}", self.seed)?;
        for (key, value) in [
            ("drop", self.drop_per_mille as u64),
            ("dup", self.dup_per_mille as u64),
            ("delay", self.delay_per_mille as u64),
            ("delaymax", self.max_delay_ms),
            ("reorder", self.reorder_per_mille as u64),
            ("cut", self.cut_per_mille as u64),
        ] {
            if value != 0 {
                write!(f, ",{key}={value}")?;
            }
        }
        for w in &self.partitions {
            write!(f, ",part={}..{}", w.from_tick, w.until_tick)?;
        }
        match self.crash {
            Some(CrashPlan::AfterOutputs { outputs, restart }) => {
                write!(f, ",crash=after:{outputs}")?;
                if restart {
                    write!(f, ":restart")?;
                }
            }
            None => {}
        }
        if let Some(loss) = self.instance_loss {
            write!(f, ",iloss={}:{}", loss.member, loss.at_tick)?;
        }
        if let Some(scale) = self.scale {
            write!(f, ",scale={}:{}", scale.delta, scale.at_tick)?;
        }
        Ok(())
    }
}

/// Proptest strategy over arbitrary (bounded-hostility) fault plans.
pub fn arb_fault_plan() -> BoxedStrategy<FaultPlan> {
    let window = (0u64..300, 1u64..80)
        .prop_map(|(from, len)| PartitionWindow {
            from_tick: from,
            until_tick: from + len,
        })
        .boxed();
    let crash = prop_oneof![
        Just(None),
        (1usize..4, any::<bool>())
            .prop_map(|(outputs, restart)| Some(CrashPlan::AfterOutputs { outputs, restart })),
    ]
    .boxed();
    let instance_loss = prop_oneof![
        Just(None),
        (0u32..4, 0u64..500).prop_map(|(member, at_tick)| Some(InstanceLoss { member, at_tick })),
    ]
    .boxed();
    let scale = prop_oneof![
        Just(None),
        (1i32..=2, any::<bool>(), 0u64..300).prop_map(|(mag, grow, at_tick)| {
            Some(ScaleEvent {
                delta: if grow { mag } else { -mag },
                at_tick,
            })
        }),
    ]
    .boxed();
    (
        any::<u64>(),
        (0u16..40, 0u16..40, 0u16..40),
        (0u16..40, 0u16..40, 1u64..30),
        prop::collection::vec(window, 0..3),
        crash,
        instance_loss,
        scale,
    )
        .prop_map(
            |(
                seed,
                (drop, dup, delay),
                (reorder, cut, delaymax),
                partitions,
                crash,
                instance_loss,
                scale,
            )| {
                FaultPlan {
                    seed,
                    drop_per_mille: drop,
                    dup_per_mille: dup,
                    delay_per_mille: delay,
                    max_delay_ms: delaymax,
                    reorder_per_mille: reorder,
                    cut_per_mille: cut,
                    partitions,
                    crash,
                    instance_loss,
                    scale,
                }
            },
        )
        .boxed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip_covers_every_field() {
        let plan = FaultPlan {
            seed: 0xDEAD_BEEF,
            drop_per_mille: 8,
            dup_per_mille: 5,
            delay_per_mille: 10,
            max_delay_ms: 12,
            reorder_per_mille: 6,
            cut_per_mille: 3,
            partitions: vec![
                PartitionWindow {
                    from_tick: 10,
                    until_tick: 40,
                },
                PartitionWindow {
                    from_tick: 90,
                    until_tick: 95,
                },
            ],
            crash: Some(CrashPlan::AfterOutputs {
                outputs: 2,
                restart: true,
            }),
            instance_loss: Some(InstanceLoss {
                member: 1,
                at_tick: 120,
            }),
            scale: Some(ScaleEvent {
                delta: -2,
                at_tick: 80,
            }),
        };
        let spec = plan.to_string();
        assert_eq!(FaultPlan::parse(&spec).unwrap(), plan);
        // The minimal form.
        let bare = FaultPlan::fault_free(7);
        assert_eq!(FaultPlan::parse(&bare.to_string()).unwrap(), bare);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=5").is_err()); // no seed
        assert!(FaultPlan::parse("seed=1,wat=2").is_err());
        assert!(FaultPlan::parse("seed=1,part=5").is_err());
        assert!(FaultPlan::parse("seed=1,crash=never").is_err());
        assert!(FaultPlan::parse("seed=1,crash=at:400").is_err());
        assert!(FaultPlan::parse("seed=1,iloss=2").is_err());
        assert!(FaultPlan::parse("seed=1,scale=2").is_err());
        assert!(FaultPlan::parse("seed=1,scale=0:50").is_err());
        assert!(FaultPlan::parse("seed=banana").is_err());
    }

    #[test]
    fn decide_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan::from_seed(42);
        let mut faults = 0usize;
        for conn in 0..4u64 {
            for op in 0..500u64 {
                let a = plan.decide(conn, op);
                assert_eq!(a, plan.decide(conn, op));
                if a != FaultAction::Deliver {
                    faults += 1;
                }
            }
        }
        // Total fault mass is < 75‰ by construction of from_seed; the
        // observed rate over 2000 frames must be in the same ballpark
        // (this is a sanity bound, not a statistical test).
        assert!(faults < 2000 * 150 / 1000, "fault rate implausibly high");
    }

    #[test]
    fn fault_free_plan_always_delivers() {
        let plan = FaultPlan::fault_free(999);
        assert!(plan.is_fault_free());
        for op in 0..200 {
            assert_eq!(plan.decide(0, op), FaultAction::Deliver);
        }
        assert!(!plan.partitioned_at(0));
    }

    #[test]
    fn partition_windows_are_half_open() {
        let plan = FaultPlan {
            partitions: vec![PartitionWindow {
                from_tick: 5,
                until_tick: 8,
            }],
            ..FaultPlan::fault_free(1)
        };
        assert!(!plan.partitioned_at(4));
        assert!(plan.partitioned_at(5));
        assert!(plan.partitioned_at(7));
        assert!(!plan.partitioned_at(8));
    }
}
