//! Synthetic turbulence: a superposition of solenoidal Fourier modes.

use crate::rng::SplitMix64;

/// One traveling Fourier mode with a polarization chosen perpendicular to
/// its wave vector, so the velocity field it induces is divergence-free.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Wave vector (radians per grid unit).
    pub k: [f64; 3],
    /// Polarization (unit, perpendicular to `k`).
    pub pol: [f64; 3],
    /// Amplitude.
    pub amp: f64,
    /// Temporal angular frequency.
    pub omega: f64,
    /// Phase offset.
    pub phase: f64,
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: [f64; 3]) -> f64 {
    (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt()
}

/// A bank of modes evaluated together.
#[derive(Debug, Clone)]
pub struct ModeBank {
    modes: Vec<Mode>,
    rms: f64,
}

impl ModeBank {
    /// Generate `n` modes with wavelengths between `min_wavelength` and
    /// `max_wavelength` grid units and a Kolmogorov-like amplitude decay
    /// (`amp ∝ |k|^(-5/6)`, the velocity scaling of a k^(-5/3) energy
    /// spectrum). Deterministic in `seed`.
    pub fn new(seed: u64, n: usize, min_wavelength: f64, max_wavelength: f64) -> Self {
        assert!(min_wavelength > 0.0 && max_wavelength > min_wavelength);
        let mut rng = SplitMix64::new(seed);
        let mut modes = Vec::with_capacity(n);
        while modes.len() < n {
            // Log-uniform wavelength, random direction.
            let lw = rng.next_f64();
            let wavelength = min_wavelength * (max_wavelength / min_wavelength).powf(lw);
            let kmag = std::f64::consts::TAU / wavelength;
            let dir = loop {
                let d = [
                    rng.range(-1.0, 1.0),
                    rng.range(-1.0, 1.0),
                    rng.range(-1.0, 1.0),
                ];
                let n = norm(d);
                if n > 1e-3 && n <= 1.0 {
                    break [d[0] / n, d[1] / n, d[2] / n];
                }
            };
            let k = [dir[0] * kmag, dir[1] * kmag, dir[2] * kmag];
            // Any vector not parallel to k, crossed with k, is a valid
            // solenoidal polarization.
            let helper = if dir[0].abs() < 0.9 {
                [1.0, 0.0, 0.0]
            } else {
                [0.0, 1.0, 0.0]
            };
            let mut pol = cross(k, helper);
            let pn = norm(pol);
            if pn < 1e-9 {
                continue;
            }
            pol = [pol[0] / pn, pol[1] / pn, pol[2] / pn];
            let amp = kmag.powf(-5.0 / 6.0);
            let omega = 0.2 * kmag; // sweep slowly with the large scales
            let phase = rng.next_f64() * std::f64::consts::TAU;
            modes.push(Mode {
                k,
                pol,
                amp,
                omega,
                phase,
            });
        }
        // RMS of the scalar sum (independent phases): sqrt(Σ amp²/2).
        let rms = (modes.iter().map(|m| m.amp * m.amp).sum::<f64>() / 2.0)
            .sqrt()
            .max(1e-12);
        Self { modes, rms }
    }

    /// RMS amplitude of the scalar mode sum `Σ amp·sin(k·x + ωt + φ)` (and
    /// of each velocity component, approximately), which callers use to
    /// normalize fluctuations independently of mode count and bandwidth.
    pub fn rms(&self) -> f64 {
        self.rms
    }

    /// Velocity fluctuation at a position and time.
    pub fn velocity(&self, pos: [f64; 3], t: f64) -> [f64; 3] {
        let mut v = [0.0; 3];
        for m in &self.modes {
            let arg = m.k[0] * pos[0] + m.k[1] * pos[1] + m.k[2] * pos[2] + m.omega * t + m.phase;
            let c = m.amp * arg.cos();
            v[0] += c * m.pol[0];
            v[1] += c * m.pol[1];
            v[2] += c * m.pol[2];
        }
        v
    }

    /// The modes themselves.
    pub fn modes(&self) -> &[Mode] {
        &self.modes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = ModeBank::new(7, 16, 4.0, 32.0);
        let b = ModeBank::new(7, 16, 4.0, 32.0);
        let c = ModeBank::new(8, 16, 4.0, 32.0);
        let p = [1.3, 2.7, 9.1];
        assert_eq!(a.velocity(p, 0.5), b.velocity(p, 0.5));
        assert_ne!(a.velocity(p, 0.5), c.velocity(p, 0.5));
    }

    #[test]
    fn polarizations_are_solenoidal() {
        let bank = ModeBank::new(3, 32, 2.0, 64.0);
        for m in bank.modes() {
            let dot = m.k[0] * m.pol[0] + m.k[1] * m.pol[1] + m.k[2] * m.pol[2];
            assert!(dot.abs() < 1e-9, "k·pol = {dot}");
            let pn = (m.pol[0].powi(2) + m.pol[1].powi(2) + m.pol[2].powi(2)).sqrt();
            assert!((pn - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn velocity_divergence_free_numerically() {
        // Central-difference divergence must vanish (to O(h²) of the
        // smallest wavelength) relative to the velocity magnitude.
        let bank = ModeBank::new(11, 24, 8.0, 64.0);
        let h = 1e-4;
        for &p in &[[3.0, 4.0, 5.0], [10.5, 0.2, 7.7], [0.0, 0.0, 0.0]] {
            let mut div = 0.0;
            for a in 0..3 {
                let mut pp = p;
                let mut pm = p;
                pp[a] += h;
                pm[a] -= h;
                div += (bank.velocity(pp, 1.0)[a] - bank.velocity(pm, 1.0)[a]) / (2.0 * h);
            }
            let mag = norm(bank.velocity(p, 1.0)).max(1e-9);
            assert!(div.abs() / mag < 1e-5, "div {div} mag {mag}");
        }
    }

    #[test]
    fn field_evolves_in_time() {
        let bank = ModeBank::new(5, 16, 4.0, 32.0);
        let p = [5.0, 5.0, 5.0];
        assert_ne!(bank.velocity(p, 0.0), bank.velocity(p, 3.0));
    }

    #[test]
    fn amplitude_decays_with_wavenumber() {
        let bank = ModeBank::new(9, 64, 2.0, 128.0);
        let mut pairs: Vec<(f64, f64)> = bank.modes().iter().map(|m| (norm(m.k), m.amp)).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // The smallest-wavenumber mode must have a larger amplitude than
        // the largest-wavenumber one.
        assert!(pairs.first().unwrap().1 > pairs.last().unwrap().1);
    }
}
