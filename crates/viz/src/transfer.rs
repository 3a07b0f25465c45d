//! Transfer functions: scalar value → premultiplied RGBA.

use serde::{Deserialize, Serialize};

/// A piecewise-linear transfer function over a scalar range.
///
/// Control points are `(normalized position in [0,1], [r, g, b, a])`;
/// colors are *straight* (non-premultiplied) in the control points and
/// the lookup returns straight RGBA. Opacity is per *unit of optical
/// depth* — the renderer scales alpha by its sampling step so images are
/// step-size independent to first order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferFunction {
    lo: f64,
    hi: f64,
    points: Vec<(f64, [f64; 4])>,
}

impl TransferFunction {
    /// Build from control points. Positions must be in `[0,1]`, strictly
    /// increasing, starting at 0 and ending at 1.
    pub fn new(lo: f64, hi: f64, points: Vec<(f64, [f64; 4])>) -> Self {
        assert!(hi > lo, "empty scalar range");
        assert!(points.len() >= 2, "need at least two control points");
        assert_eq!(points[0].0, 0.0, "first control point must sit at 0");
        assert_eq!(
            points.last().unwrap().0,
            1.0,
            "last control point must sit at 1"
        );
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "positions must strictly increase");
        }
        Self { lo, hi, points }
    }

    /// A "hot" map (black → red → yellow → white) with opacity ramping up
    /// toward high values — a reasonable default for temperature-like
    /// fields such as the combustion case.
    pub fn hot(lo: f64, hi: f64) -> Self {
        Self::new(
            lo,
            hi,
            vec![
                (0.0, [0.0, 0.0, 0.0, 0.0]),
                (0.35, [0.8, 0.1, 0.05, 0.08]),
                (0.7, [1.0, 0.65, 0.1, 0.35]),
                (1.0, [1.0, 1.0, 0.9, 0.9]),
            ],
        )
    }

    /// A blue→white→red diverging map with symmetric opacity, good for
    /// signed quantities (e.g. vorticity).
    pub fn diverging(lo: f64, hi: f64) -> Self {
        Self::new(
            lo,
            hi,
            vec![
                (0.0, [0.1, 0.2, 0.9, 0.7]),
                (0.5, [1.0, 1.0, 1.0, 0.0]),
                (1.0, [0.9, 0.1, 0.1, 0.7]),
            ],
        )
    }

    /// Scalar range lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Scalar range upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Straight RGBA for a scalar value (clamped to the range). NaN maps
    /// to the `lo` colour, where −∞ lands, so one NaN sample cannot turn
    /// a pixel — and every composite it enters — into NaN.
    #[inline]
    pub fn sample(&self, v: f64) -> [f64; 4] {
        let t = (v - self.lo) / (self.hi - self.lo);
        // `clamp(0.0, 1.0)` for every number; `>=` is false for NaN.
        let t = if t >= 0.0 { t.min(1.0) } else { 0.0 };
        // Find the bracketing control points.
        let mut i = 0;
        while i + 2 < self.points.len() && self.points[i + 1].0 <= t {
            i += 1;
        }
        let (t0, c0) = self.points[i];
        let (t1, c1) = self.points[i + 1];
        let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        let f = f.clamp(0.0, 1.0);
        [
            c0[0] + (c1[0] - c0[0]) * f,
            c0[1] + (c1[1] - c0[1]) * f,
            c0[2] + (c1[2] - c0[2]) * f,
            c0[3] + (c1[3] - c0[3]) * f,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_exact() {
        let tf = TransferFunction::new(
            0.0,
            10.0,
            vec![(0.0, [0.0; 4]), (1.0, [1.0, 0.5, 0.25, 1.0])],
        );
        assert_eq!(tf.sample(0.0), [0.0; 4]);
        assert_eq!(tf.sample(10.0), [1.0, 0.5, 0.25, 1.0]);
    }

    #[test]
    fn nan_samples_as_the_lo_colour() {
        let tf = TransferFunction::hot(0.0, 10.0);
        assert_eq!(tf.sample(f64::NAN), tf.sample(f64::NEG_INFINITY));
        assert_eq!(tf.sample(f64::NAN), tf.sample(0.0));
        assert!(tf.sample(f64::INFINITY * 0.0).iter().all(|c| !c.is_nan()));
    }

    #[test]
    fn linear_interpolation_midpoint() {
        let tf = TransferFunction::new(
            0.0,
            1.0,
            vec![(0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 1.0, 1.0, 1.0])],
        );
        let c = tf.sample(0.5);
        for ch in c {
            assert!((ch - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let tf = TransferFunction::hot(100.0, 200.0);
        assert_eq!(tf.sample(-5.0), tf.sample(100.0));
        assert_eq!(tf.sample(1e9), tf.sample(200.0));
    }

    #[test]
    fn multi_segment_lookup() {
        let tf = TransferFunction::new(
            0.0,
            1.0,
            vec![
                (0.0, [0.0; 4]),
                (0.5, [1.0, 0.0, 0.0, 0.5]),
                (1.0, [0.0, 1.0, 0.0, 1.0]),
            ],
        );
        let at_half = tf.sample(0.5);
        assert_eq!(at_half, [1.0, 0.0, 0.0, 0.5]);
        let at_3q = tf.sample(0.75);
        assert!((at_3q[0] - 0.5).abs() < 1e-12);
        assert!((at_3q[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn unsorted_points_panic() {
        let _ = TransferFunction::new(
            0.0,
            1.0,
            vec![
                (0.0, [0.0; 4]),
                (0.8, [0.0; 4]),
                (0.5, [0.0; 4]),
                (1.0, [0.0; 4]),
            ],
        );
    }

    #[test]
    fn presets_cover_range() {
        for tf in [
            TransferFunction::hot(0.0, 1.0),
            TransferFunction::diverging(-1.0, 1.0),
        ] {
            for i in 0..=20 {
                let v = tf.lo() + (tf.hi() - tf.lo()) * i as f64 / 20.0;
                let c = tf.sample(v);
                assert!(c.iter().all(|x| (0.0..=1.0).contains(x)));
            }
        }
    }
}
