//! The visualization latency model.
//!
//! Figures 2 and 4 of the paper measure how long Tableau and MathGL take to
//! produce a scatter plot as a function of the number of rendered tuples and
//! find an essentially **linear** relationship (plus a fixed setup cost),
//! crossing the 2-second "interactive limit" somewhere below one million
//! tuples. Figure 8(b) then converts sample sizes into visualization time
//! using that relationship.
//!
//! This reproduction cannot run Tableau, so [`LatencyModel`] provides the
//! substitute: `time(n) = fixed_overhead + n × per_tuple_cost`. The model can
//! either be constructed from published-order-of-magnitude constants
//! ([`LatencyModel::tableau_like`], [`LatencyModel::mathgl_like`]) or
//! **calibrated** against this crate's own rasterizer by timing real renders
//! ([`LatencyModel::calibrate`]), which is what the Figure 2/4 harness does.

use crate::scatter::ScatterRenderer;
use crate::viewport::Viewport;
use std::time::{Duration, Instant};
use vas_data::Point;

/// Renders timed per calibration size; the fit uses the fastest.
const CALIBRATION_RUNS: usize = 5;

/// A linear visualization-latency model: `time(n) = overhead + n · per_tuple`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed setup cost (query dispatch, axis layout, window creation…).
    pub overhead: Duration,
    /// Marginal cost of fetching + rendering one tuple.
    pub per_tuple: Duration,
    /// Human-readable label for reports ("tableau-like", "rasterizer", …).
    pub label: &'static str,
}

impl LatencyModel {
    /// A model with the rough constants of the paper's Tableau measurements
    /// (≈ 4 minutes for 50M in-memory tuples, ≈ 2 s of fixed overhead).
    pub fn tableau_like() -> Self {
        Self {
            overhead: Duration::from_millis(2_000),
            per_tuple: Duration::from_nanos(4_800),
            label: "tableau-like",
        }
    }

    /// A model with the rough constants of the paper's MathGL measurements
    /// (lighter-weight C++ library: smaller overhead, ≈ 1 µs per tuple
    /// including SSD I/O).
    pub fn mathgl_like() -> Self {
        Self {
            overhead: Duration::from_millis(300),
            per_tuple: Duration::from_nanos(1_100),
            label: "mathgl-like",
        }
    }

    /// Calibrates a model against this crate's rasterizer by rendering
    /// `calibration_sizes` synthetic point sets and fitting the linear model
    /// through the two extreme measurements. Each measurement is the minimum
    /// of five renders, so one preempted render cannot skew the fit.
    pub fn calibrate(
        renderer: &ScatterRenderer,
        viewport: &Viewport,
        calibration_sizes: &[usize],
    ) -> Self {
        assert!(
            calibration_sizes.len() >= 2,
            "calibration needs at least two sizes"
        );
        let mut sizes = calibration_sizes.to_vec();
        sizes.sort_unstable();
        let measure = |n: usize| -> Duration {
            let region = viewport.region();
            let points: Vec<Point> = (0..n)
                .map(|i| {
                    // Low-discrepancy-ish deterministic fill of the viewport.
                    let t = i as f64 + 0.5;
                    Point::new(
                        region.min_x + (t * 0.754_877_666).fract() * region.width(),
                        region.min_y + (t * 0.569_840_291).fract() * region.height(),
                    )
                })
                .collect();
            (0..CALIBRATION_RUNS)
                .map(|_| {
                    let start = Instant::now();
                    let canvas = renderer.render_points(&points, viewport);
                    let elapsed = start.elapsed();
                    std::hint::black_box(canvas.ink(crate::color::Color::WHITE));
                    elapsed
                })
                .min()
                .expect("at least one calibration run")
        };
        let n_lo = sizes[0];
        let n_hi = sizes[sizes.len() - 1];
        let t_lo = measure(n_lo);
        let t_hi = measure(n_hi);
        let span = (n_hi - n_lo).max(1) as f64;
        let per_tuple_secs = ((t_hi.as_secs_f64() - t_lo.as_secs_f64()) / span).max(1e-12);
        let overhead_secs = (t_lo.as_secs_f64() - per_tuple_secs * n_lo as f64).max(0.0);
        Self {
            overhead: Duration::from_secs_f64(overhead_secs),
            per_tuple: Duration::from_secs_f64(per_tuple_secs),
            label: "rasterizer",
        }
    }

    /// Predicted time to visualize `n` tuples.
    pub fn time_for(&self, n: usize) -> Duration {
        self.overhead + Duration::from_secs_f64(self.per_tuple.as_secs_f64() * n as f64)
    }

    /// Largest tuple count that can be visualized within `budget`
    /// (0 if even the fixed overhead exceeds the budget).
    ///
    /// This is the conversion the paper describes in Section I: "VAS chooses
    /// an appropriate sample size by converting the specified time bound into
    /// the number of tuples that can likely be processed within that bound."
    pub fn tuples_within(&self, budget: Duration) -> usize {
        if budget <= self.overhead {
            return 0;
        }
        let available = (budget - self.overhead).as_secs_f64();
        (available / self.per_tuple.as_secs_f64().max(1e-15)).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scatter::PlotStyle;
    use vas_data::BoundingBox;

    #[test]
    fn time_is_linear_in_tuple_count() {
        let m = LatencyModel::tableau_like();
        let t1 = m.time_for(1_000_000);
        let t2 = m.time_for(2_000_000);
        let overhead = m.overhead.as_secs_f64();
        let slope1 = t1.as_secs_f64() - overhead;
        let slope2 = t2.as_secs_f64() - overhead;
        assert!((slope2 / slope1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_sanity() {
        // Figure 2: Tableau needs > 4 minutes for 50M tuples but is well under
        // a minute for 1M; MathGL is faster at every size.
        let tableau = LatencyModel::tableau_like();
        let mathgl = LatencyModel::mathgl_like();
        assert!(tableau.time_for(50_000_000) > Duration::from_secs(240));
        assert!(tableau.time_for(1_000_000) < Duration::from_secs(60));
        assert!(tableau.time_for(1_000_000) > Duration::from_secs(2));
        for n in [1_000_000usize, 10_000_000, 50_000_000] {
            assert!(mathgl.time_for(n) < tableau.time_for(n));
        }
    }

    #[test]
    fn tuples_within_inverts_time_for() {
        let m = LatencyModel::mathgl_like();
        for budget_ms in [500u64, 2_000, 10_000] {
            let budget = Duration::from_millis(budget_ms);
            let n = m.tuples_within(budget);
            assert!(m.time_for(n) <= budget);
            assert!(m.time_for(n + 2) > budget);
        }
        // A budget below the fixed overhead admits no tuples.
        assert_eq!(m.tuples_within(Duration::from_millis(1)), 0);
    }

    #[test]
    fn calibration_produces_a_positive_linear_model() {
        let renderer = ScatterRenderer::new(PlotStyle::default());
        let viewport = Viewport::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 200, 200);
        let m = LatencyModel::calibrate(&renderer, &viewport, &[1_000, 50_000]);
        assert!(m.per_tuple > Duration::ZERO);
        assert_eq!(m.label, "rasterizer");
        // Predictions grow with n.
        assert!(m.time_for(100_000) > m.time_for(10_000));
    }

    #[test]
    #[should_panic(expected = "at least two sizes")]
    fn calibration_requires_two_sizes() {
        let renderer = ScatterRenderer::new(PlotStyle::default());
        let viewport = Viewport::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 50, 50);
        let _ = LatencyModel::calibrate(&renderer, &viewport, &[10]);
    }
}
