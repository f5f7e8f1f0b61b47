//! An RGB bitmap canvas with PPM export and an ASCII preview.

use crate::color::Color;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A fixed-size RGB raster.
#[derive(Debug, Clone, PartialEq)]
pub struct Canvas {
    width: usize,
    height: usize,
    pixels: Vec<Color>,
}

impl Canvas {
    /// Creates a canvas filled with `background`.
    ///
    /// The fill doubles the filled prefix with `extend_from_within` (one
    /// `memcpy` per step). `vec![c; n]` writes a 3-byte [`Color`] one pixel
    /// at a time, and at 640×480 that clear costs more than drawing a
    /// budgeted sample of a few hundred dots.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, background: Color) -> Self {
        assert!(
            width > 0 && height > 0,
            "canvas dimensions must be positive"
        );
        let n = width * height;
        let mut pixels = Vec::with_capacity(n);
        pixels.push(background);
        while pixels.len() < n {
            pixels.extend_from_within(..pixels.len().min(n - pixels.len()));
        }
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Creates a white canvas.
    pub fn white(width: usize, height: usize) -> Self {
        Self::new(width, height, Color::WHITE)
    }

    /// Canvas width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Canvas height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The color at `(x, y)`; row 0 is the top of the image.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn get(&self, x: usize, y: usize) -> Color {
        assert!(x < self.width && y < self.height, "pixel out of range");
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`, silently ignoring out-of-range writes
    /// (points on the border of a viewport may rasterize one pixel outside).
    pub fn set(&mut self, x: isize, y: isize, color: Color) {
        if x < 0 || y < 0 {
            return;
        }
        let (x, y) = (x as usize, y as usize);
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = color;
        }
    }

    /// Draws a filled disc of the given pixel radius centred at `(cx, cy)`:
    /// every pixel with `dx² + dy² ≤ radius²`, clipped to the canvas.
    /// Radius 0 paints the single centre pixel.
    ///
    /// Each disc row is one clipped slice `fill`; its half-width is the
    /// largest `dx ≤ radius` with `dx² ≤ radius² − dy²`. Counting down from
    /// `radius` finds it faster than `isqrt` for the small radii plots use.
    pub fn fill_circle(&mut self, cx: isize, cy: isize, radius: isize, color: Color) {
        if radius <= 0 {
            self.set(cx, cy, color);
            return;
        }
        let y_lo = cy.saturating_sub(radius).max(0);
        let y_hi = cy.saturating_add(radius).min(self.height as isize - 1);
        for y in y_lo..=y_hi {
            let dy = y - cy;
            let mut half = radius;
            while half * half > radius * radius - dy * dy {
                half -= 1;
            }
            let x0 = cx.saturating_sub(half).max(0);
            let x1 = cx.saturating_add(half).min(self.width as isize - 1);
            if x0 <= x1 {
                let row = y as usize * self.width;
                self.pixels[row + x0 as usize..=row + x1 as usize].fill(color);
            }
        }
    }

    /// Number of pixels that differ from `background` — a crude "ink" measure
    /// used by tests and by the perception models.
    pub fn ink(&self, background: Color) -> usize {
        self.pixels.iter().filter(|&&c| c != background).count()
    }

    /// Fraction of non-background pixels inside the rectangle
    /// `[x0, x1) × [y0, y1)` (clamped to the canvas).
    pub fn ink_fraction_in_rect(
        &self,
        background: Color,
        x0: usize,
        y0: usize,
        x1: usize,
        y1: usize,
    ) -> f64 {
        let x1 = x1.min(self.width);
        let y1 = y1.min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return 0.0;
        }
        let mut inked = 0usize;
        for y in y0..y1 {
            for x in x0..x1 {
                if self.get(x, y) != background {
                    inked += 1;
                }
            }
        }
        inked as f64 / ((x1 - x0) * (y1 - y0)) as f64
    }

    /// Writes the canvas as a binary PPM (P6) file.
    pub fn write_ppm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        writeln!(w, "P6\n{} {}\n255", self.width, self.height)?;
        let mut bytes = Vec::with_capacity(self.pixels.len() * 3);
        for p in &self.pixels {
            bytes.extend_from_slice(&[p.r, p.g, p.b]);
        }
        w.write_all(&bytes)?;
        w.flush()
    }

    /// Renders a small ASCII preview (darker pixels become denser glyphs).
    /// `cols` sets the preview width; the aspect ratio is preserved assuming
    /// terminal glyphs are roughly twice as tall as wide.
    pub fn ascii_preview(&self, cols: usize) -> String {
        let cols = cols.max(1).min(self.width);
        let rows = ((self.height * cols) / (self.width * 2)).max(1);
        let glyphs = [' ', '.', ':', '+', '*', '#', '@'];
        let mut out = String::with_capacity((cols + 1) * rows);
        for row in 0..rows {
            for col in 0..cols {
                // Average darkness of the pixel block mapped to this glyph.
                let x0 = col * self.width / cols;
                let x1 = ((col + 1) * self.width / cols).max(x0 + 1);
                let y0 = row * self.height / rows;
                let y1 = ((row + 1) * self.height / rows).max(y0 + 1);
                let mut darkness = 0.0;
                let mut n = 0usize;
                for y in y0..y1.min(self.height) {
                    for x in x0..x1.min(self.width) {
                        let c = self.get(x, y);
                        darkness += 1.0 - (c.r as f64 + c.g as f64 + c.b as f64) / (3.0 * 255.0);
                        n += 1;
                    }
                }
                let level = if n == 0 { 0.0 } else { darkness / n as f64 };
                let idx =
                    ((level * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1);
                out.push(glyphs[idx]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_canvas_is_background() {
        let c = Canvas::white(10, 5);
        assert_eq!(c.width(), 10);
        assert_eq!(c.height(), 5);
        assert_eq!(c.get(3, 2), Color::WHITE);
        assert_eq!(c.ink(Color::WHITE), 0);
    }

    #[test]
    fn set_and_get() {
        let mut c = Canvas::white(4, 4);
        c.set(1, 2, Color::BLACK);
        assert_eq!(c.get(1, 2), Color::BLACK);
        assert_eq!(c.ink(Color::WHITE), 1);
        // Out-of-range writes are ignored.
        c.set(-1, 0, Color::BLACK);
        c.set(100, 100, Color::BLACK);
        assert_eq!(c.ink(Color::WHITE), 1);
    }

    #[test]
    fn fill_circle_paints_a_disc() {
        let mut c = Canvas::white(21, 21);
        c.fill_circle(10, 10, 3, Color::BLACK);
        // Roughly π r² ≈ 28 pixels, allow the integer-lattice wiggle.
        let ink = c.ink(Color::WHITE);
        assert!((25..=40).contains(&ink), "disc ink {ink}");
        assert_eq!(c.get(10, 10), Color::BLACK);
        assert_eq!(c.get(10, 13), Color::BLACK);
        assert_eq!(c.get(10, 14), Color::WHITE);
        // Radius 0 paints exactly one pixel.
        let mut c0 = Canvas::white(5, 5);
        c0.fill_circle(2, 2, 0, Color::BLACK);
        assert_eq!(c0.ink(Color::WHITE), 1);
    }

    /// The clear before the doubling fill.
    fn new_reference(width: usize, height: usize, background: Color) -> Canvas {
        Canvas {
            width,
            height,
            pixels: vec![background; width * height],
        }
    }

    /// The disc before the span fill: one bounds-checked `set` per lattice
    /// point of the `(2r + 1)²` square.
    fn fill_circle_reference(c: &mut Canvas, cx: isize, cy: isize, radius: isize, color: Color) {
        if radius <= 0 {
            c.set(cx, cy, color);
            return;
        }
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                if dx * dx + dy * dy <= radius * radius {
                    c.set(cx + dx, cy + dy, color);
                }
            }
        }
    }

    #[test]
    fn doubling_fill_matches_vec_fill() {
        let teal = Color::new(12, 130, 141);
        for (w, h) in [
            (1, 1),
            (1, 7),
            (9, 1),
            (1, 1024),
            (3, 5),
            (17, 13),
            (640, 480),
            (641, 479),
        ] {
            for bg in [teal, Color::WHITE, Color::BLACK] {
                let fast = Canvas::new(w, h, bg);
                assert_eq!(fast, new_reference(w, h, bg), "{w}x{h} {bg:?}");
                assert_eq!(fast.pixels.len(), w * h);
            }
        }
    }

    #[test]
    fn span_fill_matches_per_pixel_disc() {
        let (w, h) = (23isize, 17isize);
        let ink = Color::new(200, 30, 90);
        let bg = Color::new(12, 130, 141);
        let blank = || new_reference(w as usize, h as usize, bg);
        // Inside, on every edge and corner, just outside each edge, and far
        // enough out (9 > r) that the disc misses the canvas.
        let near = |n: isize| [-40, -9, -3, -1, 0, 1, n / 2, n - 2, n - 1, n, n + 2, n + 9];
        let centres: Vec<(isize, isize)> = near(w)
            .into_iter()
            .flat_map(|x| near(h).map(|y| (x, y)))
            .collect();
        for r in -1..=8isize {
            for &(cx, cy) in &centres {
                let mut fast = blank();
                let mut reference = blank();
                fast.fill_circle(cx, cy, r, ink);
                fill_circle_reference(&mut reference, cx, cy, r, ink);
                assert_eq!(fast, reference, "centre ({cx}, {cy}), radius {r}");
            }
            // The reference would overflow `cx + dx` here; nothing is painted.
            for (cx, cy) in [(isize::MIN, 3), (3, isize::MAX)] {
                let mut fast = blank();
                fast.fill_circle(cx, cy, r, ink);
                assert_eq!(fast, blank(), "centre ({cx}, {cy}), radius {r}");
            }
        }
        // Overlapping discs of different colors overdraw in call order.
        let mut fast = blank();
        let mut reference = blank();
        for (i, &(cx, cy)) in centres.iter().enumerate() {
            let color = Color::new(i as u8, (i * 7) as u8, (i * 13) as u8);
            fast.fill_circle(cx, cy, (i % 9) as isize, color);
            fill_circle_reference(&mut reference, cx, cy, (i % 9) as isize, color);
        }
        assert_eq!(fast, reference);
    }

    #[test]
    fn circles_clip_at_the_border() {
        let mut c = Canvas::white(10, 10);
        c.fill_circle(0, 0, 3, Color::BLACK);
        assert!(c.ink(Color::WHITE) > 0);
        assert_eq!(c.get(0, 0), Color::BLACK);
    }

    #[test]
    fn ink_fraction_in_rect() {
        let mut c = Canvas::white(10, 10);
        for x in 0..5 {
            c.set(x, 0, Color::BLACK);
        }
        assert!((c.ink_fraction_in_rect(Color::WHITE, 0, 0, 10, 1) - 0.5).abs() < 1e-12);
        assert_eq!(c.ink_fraction_in_rect(Color::WHITE, 0, 5, 10, 10), 0.0);
        assert_eq!(c.ink_fraction_in_rect(Color::WHITE, 5, 5, 5, 9), 0.0);
    }

    #[test]
    fn ppm_round_trip_header() {
        let mut c = Canvas::white(3, 2);
        c.set(0, 0, Color::new(10, 20, 30));
        let path = std::env::temp_dir().join(format!("vas-viz-{}.ppm", std::process::id()));
        c.write_ppm(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = String::from_utf8_lossy(&bytes[..11]);
        assert!(header.starts_with("P6\n3 2\n255"));
        // 3×2 pixels × 3 bytes after the header.
        assert_eq!(bytes.len(), 11 + 18);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ascii_preview_shape_and_content() {
        let mut c = Canvas::white(80, 40);
        for y in 0..40isize {
            for x in 0..40isize {
                c.set(x, y, Color::BLACK);
            }
        }
        let art = c.ascii_preview(40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 10); // 40 cols → height 40*40/(80*2)=10
        assert!(lines[0].starts_with('@'));
        assert!(lines[0].ends_with(' '));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_size_rejected() {
        let _ = Canvas::white(0, 10);
    }

    #[test]
    #[should_panic(expected = "pixel out of range")]
    fn get_out_of_range_panics() {
        let c = Canvas::white(2, 2);
        let _ = c.get(2, 0);
    }
}
