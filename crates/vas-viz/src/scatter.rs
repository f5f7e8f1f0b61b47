//! The scatter / map plot renderer.
//!
//! Renders a set of points onto a [`Canvas`] through a [`Viewport`]. Three
//! aspects of the paper's plots are covered:
//!
//! * plain scatter plots (fixed dot size, fixed color),
//! * map plots (dot color encodes the point's `value`, e.g. altitude — as in
//!   Figure 1), and
//! * the **density re-encoding** of Section V: when a sample carries density
//!   counters, dot size (and optionally jitter) is scaled with the counter so
//!   that density information survives the spreading effect of VAS.

use crate::canvas::Canvas;
use crate::color::{Color, Colormap};
use crate::viewport::Viewport;
use vas_data::Point;
use vas_sampling::Sample;

/// How dot size is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeEncoding {
    /// Every dot uses the base radius.
    Fixed,
    /// Dot radius grows with the square root of the density counter (so dot
    /// area tracks represented mass), normalized so the largest counter maps
    /// to `max_radius`. This is the paper's "larger legend size" density
    /// embedding.
    ByDensity {
        /// Radius used for the largest density counter.
        max_radius: u32,
    },
}

/// Density re-encoding through jitter noise: extra dots are scattered around
/// each sampled point in proportion to its density counter — the alternative
/// re-encoding the paper suggests alongside dot size ("some jitter noise can
/// be used to provide additional density in the plot").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitterEncoding {
    /// Maximum number of extra dots drawn for the highest density counter.
    pub max_extra_dots: u32,
    /// Maximum pixel offset of an extra dot from its sampled point.
    pub max_offset_px: u32,
}

/// Rendering style for a scatter/map plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlotStyle {
    /// Base dot radius in pixels (0 = single pixel).
    pub radius: u32,
    /// Dot color used when no colormap is configured.
    pub color: Color,
    /// When set, dot color encodes `Point::value` through this colormap.
    pub colormap: Option<Colormap>,
    /// Dot-size encoding.
    pub size: SizeEncoding,
    /// Optional jitter-based density re-encoding (applied only when density
    /// counters are available).
    pub jitter: Option<JitterEncoding>,
    /// Canvas background color.
    pub background: Color,
}

impl Default for PlotStyle {
    fn default() -> Self {
        Self {
            radius: 1,
            color: Color::new(31, 119, 180),
            colormap: None,
            size: SizeEncoding::Fixed,
            jitter: None,
            background: Color::WHITE,
        }
    }
}

impl PlotStyle {
    /// A map-plot style: value-encoded color (viridis), single-pixel dots.
    pub fn map_plot() -> Self {
        Self {
            radius: 0,
            colormap: Some(Colormap::Viridis),
            ..Self::default()
        }
    }

    /// A density-encoded style used for "VAS with density embedding" plots.
    pub fn density_plot(max_radius: u32) -> Self {
        Self {
            radius: 0,
            size: SizeEncoding::ByDensity { max_radius },
            ..Self::default()
        }
    }

    /// The jitter-noise variant of density embedding: dot size stays fixed
    /// and local density is restored by scattering extra dots around each
    /// sampled point.
    pub fn jitter_plot(max_extra_dots: u32, max_offset_px: u32) -> Self {
        Self {
            radius: 0,
            jitter: Some(JitterEncoding {
                max_extra_dots,
                max_offset_px,
            }),
            ..Self::default()
        }
    }
}

/// The renderer. Stateless apart from the style; reusable across frames.
#[derive(Debug, Clone)]
pub struct ScatterRenderer {
    style: PlotStyle,
}

impl ScatterRenderer {
    /// Creates a renderer with the given style.
    pub fn new(style: PlotStyle) -> Self {
        Self { style }
    }

    /// Creates a renderer with the default scatter style.
    pub fn default_style() -> Self {
        Self::new(PlotStyle::default())
    }

    /// The configured style.
    pub fn style(&self) -> &PlotStyle {
        &self.style
    }

    /// Renders raw points (no density information) into a new canvas.
    pub fn render_points(&self, points: &[Point], viewport: &Viewport) -> Canvas {
        self.render_with_densities(points, None, viewport)
    }

    /// Renders a [`Sample`], using its density counters when present and the
    /// style asks for density encoding.
    pub fn render_sample(&self, sample: &Sample, viewport: &Viewport) -> Canvas {
        self.render_with_densities(&sample.points, sample.densities.as_deref(), viewport)
    }

    /// Core rendering routine.
    pub fn render_with_densities(
        &self,
        points: &[Point],
        densities: Option<&[u64]>,
        viewport: &Viewport,
    ) -> Canvas {
        let mut canvas = Canvas::new(viewport.width(), viewport.height(), self.style.background);

        // Value range for the colormap (visible points only, so zoomed views
        // re-normalize color the way interactive tools do).
        let (lo, hi) = match self.style.colormap {
            Some(_) => value_range(points, viewport),
            None => (0.0, 0.0),
        };
        // Density normalization for size encoding.
        let max_density = densities
            .map(|d| d.iter().copied().max().unwrap_or(1).max(1))
            .unwrap_or(1);

        for (i, p) in points.iter().enumerate() {
            if !viewport.contains(p) {
                continue;
            }
            let (x, y) = viewport.to_pixel(p);
            let color = match self.style.colormap {
                Some(cm) => cm.map_range(p.value, lo, hi),
                None => self.style.color,
            };
            let radius = match self.style.size {
                SizeEncoding::Fixed => self.style.radius as isize,
                SizeEncoding::ByDensity { max_radius } => {
                    let d = densities.and_then(|d| d.get(i)).copied().unwrap_or(1);
                    density_radius(d, max_density, self.style.radius, max_radius)
                }
            };
            canvas.fill_circle(x, y, radius, color);

            // Jitter re-encoding: scatter extra dots proportional to density.
            if let (Some(jitter), Some(densities)) = (self.style.jitter, densities) {
                let d = densities.get(i).copied().unwrap_or(1);
                let extra = jitter_dot_count(d, max_density, jitter.max_extra_dots);
                let mut state = splitmix64(i as u64 + 1);
                for _ in 0..extra {
                    state = splitmix64(state);
                    let off = jitter.max_offset_px.max(1) as i64;
                    let dx = (state % (2 * off as u64 + 1)) as i64 - off;
                    state = splitmix64(state);
                    let dy = (state % (2 * off as u64 + 1)) as i64 - off;
                    canvas.fill_circle(x + dx as isize, y + dy as isize, radius, color);
                }
            }
        }
        canvas
    }
}

/// Number of extra jitter dots for a density counter: proportional to the
/// square root of the counter (same perceptual rationale as dot area),
/// normalized so the largest counter gets `max_extra` dots.
fn jitter_dot_count(density: u64, max_density: u64, max_extra: u32) -> u32 {
    let frac = (density as f64).sqrt() / (max_density as f64).sqrt().max(1e-12);
    (frac * max_extra as f64).round() as u32
}

/// SplitMix64: a tiny deterministic PRNG so jitter placement is reproducible
/// without a dependency on the `rand` crate in the rendering hot path.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Radius for a density counter.
///
/// The dot *area* should be proportional to the number of original tuples the
/// dot represents so that perceived mass tracks true density, hence the
/// radius grows with the square root of the counter, normalized so the
/// largest counter maps to `max_radius`.
fn density_radius(density: u64, max_density: u64, base: u32, max_radius: u32) -> isize {
    let d = (density as f64).sqrt();
    let dmax = (max_density as f64).sqrt().max(1e-12);
    let extra = (d / dmax) * max_radius.saturating_sub(base) as f64;
    (base as f64 + extra).round() as isize
}

/// Min/max `value` among the points visible in the viewport.
fn value_range(points: &[Point], viewport: &Viewport) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for p in points {
        if viewport.contains(p) {
            lo = lo.min(p.value);
            hi = hi.max(p.value);
        }
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::BoundingBox;

    fn viewport() -> Viewport {
        Viewport::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 100, 100)
    }

    #[test]
    fn renders_visible_points_only() {
        let r = ScatterRenderer::default_style();
        let points = vec![
            Point::new(5.0, 5.0),
            Point::new(50.0, 50.0), // outside the viewport
        ];
        let canvas = r.render_points(&points, &viewport());
        assert!(canvas.ink(Color::WHITE) > 0);
        // A single radius-1 dot paints at most ~5 pixels; the far point adds
        // nothing.
        assert!(canvas.ink(Color::WHITE) <= 9);
    }

    #[test]
    fn more_points_means_more_ink() {
        let r = ScatterRenderer::default_style();
        let few: Vec<Point> = (0..5).map(|i| Point::new(i as f64, i as f64)).collect();
        let many: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let v = viewport();
        assert!(
            r.render_points(&many, &v).ink(Color::WHITE)
                > r.render_points(&few, &v).ink(Color::WHITE)
        );
    }

    #[test]
    fn colormap_encodes_value() {
        let style = PlotStyle::map_plot();
        let r = ScatterRenderer::new(style);
        let points = vec![
            Point::with_value(2.0, 5.0, 0.0),
            Point::with_value(8.0, 5.0, 100.0),
        ];
        let v = viewport();
        let canvas = r.render_points(&points, &v);
        let (x_lo, y_lo) = v.to_pixel(&points[0]);
        let (x_hi, y_hi) = v.to_pixel(&points[1]);
        let c_lo = canvas.get(x_lo as usize, y_lo as usize);
        let c_hi = canvas.get(x_hi as usize, y_hi as usize);
        assert_ne!(c_lo, c_hi, "different values must get different colors");
        assert_eq!(c_lo, Colormap::Viridis.map(0.0));
        assert_eq!(c_hi, Colormap::Viridis.map(1.0));
    }

    #[test]
    fn density_encoding_scales_dot_size() {
        let style = PlotStyle {
            radius: 1,
            size: SizeEncoding::ByDensity { max_radius: 6 },
            ..PlotStyle::default()
        };
        let r = ScatterRenderer::new(style);
        let v = viewport();
        let points = vec![Point::new(3.0, 3.0), Point::new(7.0, 7.0)];
        let sample = Sample::new("vas", 2, points).with_densities(vec![1, 1_000]);
        let canvas = r.render_sample(&sample, &v);
        // Compare ink near each dot: the high-density dot must be larger.
        let (x1, y1) = v.to_pixel(&sample.points[0]);
        let (x2, y2) = v.to_pixel(&sample.points[1]);
        let ink_around = |canvas: &Canvas, x: isize, y: isize| {
            canvas.ink_fraction_in_rect(
                Color::WHITE,
                (x - 8).max(0) as usize,
                (y - 8).max(0) as usize,
                (x + 8) as usize,
                (y + 8) as usize,
            )
        };
        assert!(ink_around(&canvas, x2, y2) > 2.0 * ink_around(&canvas, x1, y1));
    }

    #[test]
    fn density_radius_is_monotone_and_bounded() {
        let max_density = 10_000;
        let mut prev = 0isize;
        for d in [1u64, 10, 100, 1_000, 10_000] {
            let r = density_radius(d, max_density, 1, 8);
            assert!(r >= prev);
            assert!(r <= 8);
            prev = r;
        }
        assert_eq!(density_radius(max_density, max_density, 1, 8), 8);
    }

    #[test]
    fn zoomed_view_of_sparse_sample_is_empty() {
        // The Figure 1 phenomenon: a sample with no points in a region renders
        // an empty plot when zoomed into that region.
        let r = ScatterRenderer::default_style();
        let points = vec![Point::new(1.0, 1.0)];
        let zoomed = Viewport::new(BoundingBox::new(8.0, 8.0, 9.0, 9.0), 50, 50);
        let canvas = r.render_points(&points, &zoomed);
        assert_eq!(canvas.ink(Color::WHITE), 0);
    }

    #[test]
    fn jitter_encoding_adds_ink_in_dense_areas() {
        let style = PlotStyle::jitter_plot(12, 5);
        let r = ScatterRenderer::new(style);
        let v = viewport();
        let points = vec![Point::new(3.0, 3.0), Point::new(7.0, 7.0)];
        let sample = Sample::new("vas", 2, points).with_densities(vec![1, 2_000]);
        let canvas = r.render_sample(&sample, &v);
        let ink_around = |x: isize, y: isize| {
            canvas.ink_fraction_in_rect(
                Color::WHITE,
                (x - 7).max(0) as usize,
                (y - 7).max(0) as usize,
                (x + 7) as usize,
                (y + 7) as usize,
            )
        };
        let (x1, y1) = v.to_pixel(&sample.points[0]);
        let (x2, y2) = v.to_pixel(&sample.points[1]);
        assert!(
            ink_around(x2, y2) > 2.0 * ink_around(x1, y1),
            "dense point should be surrounded by more jitter ink"
        );
        // Deterministic across renders.
        let again = ScatterRenderer::new(style).render_sample(&sample, &v);
        assert_eq!(canvas, again);
    }

    #[test]
    fn jitter_without_densities_is_a_plain_scatter() {
        let style = PlotStyle::jitter_plot(12, 5);
        let r = ScatterRenderer::new(style);
        let plain = PlotStyle {
            radius: 0,
            ..PlotStyle::default()
        };
        let v = viewport();
        let points = vec![Point::new(2.0, 2.0), Point::new(8.0, 3.0)];
        let with_jitter_style = r.render_points(&points, &v);
        let without = ScatterRenderer::new(plain).render_points(&points, &v);
        assert_eq!(
            with_jitter_style.ink(Color::WHITE),
            without.ink(Color::WHITE)
        );
    }

    #[test]
    fn jitter_dot_count_is_monotone_and_capped() {
        let mut prev = 0;
        for d in [1u64, 10, 100, 1_000, 10_000] {
            let n = jitter_dot_count(d, 10_000, 20);
            assert!(n >= prev);
            assert!(n <= 20);
            prev = n;
        }
        assert_eq!(jitter_dot_count(10_000, 10_000, 20), 20);
    }

    #[test]
    fn value_range_ignores_invisible_points() {
        let v = viewport();
        let pts = vec![
            Point::with_value(5.0, 5.0, 10.0),
            Point::with_value(500.0, 500.0, 9999.0),
        ];
        assert_eq!(value_range(&pts, &v), (10.0, 10.0));
        assert_eq!(value_range(&[], &v), (0.0, 0.0));
    }

    /// FNV-1a over the canvas's RGB bytes.
    fn canvas_hash(c: &Canvas) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for y in 0..c.height() {
            for x in 0..c.width() {
                let p = c.get(x, y);
                for b in [p.r, p.g, p.b] {
                    h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Canvas hashes of a Geolife slice under every plot style, one entry
    /// per (style, viewport) pair: the default, map, density, jitter and
    /// two dark-background styles, each at full extent and zoomed in.
    fn style_canvas_hashes() -> Vec<u64> {
        let d = vas_data::GeolifeGenerator::with_size(5_000, 11).generate();
        let densities: Vec<u64> = (0..d.points.len())
            .map(|i| 1 + (i as u64 * 7_919) % 500)
            .collect();
        let sample = Sample::new("vas", d.points.len(), d.points).with_densities(densities);
        let full = Viewport::fit(&sample.points, 640, 480);
        let zoom = Viewport::new(full.region().subregion(0.4, 0.4, 0.6, 0.6), 640, 480);
        let dark = Color::new(16, 18, 28);
        let styles = [
            PlotStyle::default(),
            PlotStyle::map_plot(),
            PlotStyle::density_plot(6),
            PlotStyle::jitter_plot(12, 5),
            PlotStyle {
                radius: 3,
                color: Color::new(240, 200, 60),
                background: dark,
                ..PlotStyle::default()
            },
            PlotStyle {
                background: dark,
                ..PlotStyle::map_plot()
            },
        ];
        let mut out = Vec::new();
        for style in styles {
            for viewport in [&full, &zoom] {
                let canvas = ScatterRenderer::new(style).render_sample(&sample, viewport);
                out.push(canvas_hash(&canvas));
            }
        }
        out
    }

    #[test]
    fn renders_match_the_per_pixel_rasterizer_bit_for_bit() {
        // Produced by the renderer as it was before the doubling canvas
        // clear and the span-filled discs (a `vec![bg; n]` clear and one
        // bounds-checked `set` per disc pixel). A mismatch means a canvas
        // changed by at least one pixel, or the generated Geolife slice did.
        let per_pixel_rasterizer: [u64; 12] = [
            0xd2cd_0e65_8ded_59ab,
            0xf4aa_7298_f30d_eefd,
            0x19b7_7c53_e0b3_d89d,
            0x9bdd_6523_e609_979f,
            0xed1c_00f9_6c81_7876,
            0xc42e_1b42_34a5_1417,
            0x3482_8a7d_0e11_092a,
            0x3e60_b497_9aa5_9ffb,
            0x6b27_274a_2f02_78d7,
            0x318a_74fe_4075_cf6f,
            0xdf21_75a3_d792_1f9f,
            0x473d_200e_ffe1_c69f,
        ];
        assert_eq!(style_canvas_hashes(), per_pixel_rasterizer);
    }
}
