//! A minimal in-memory columnar table.
//!
//! The store only needs what the visualization workload of the paper needs:
//! numeric columns, full scans, range-predicate filters on the plotted
//! columns, and projection of a column pair (plus an optional value column)
//! into plot [`Point`]s. Everything is `f64`; visualization queries in the
//! paper are over continuous ranges, not categorical data.

use std::collections::BTreeMap;
use vas_data::{BoundingBox, Dataset, Point};

/// A named reference to a column of a [`Table`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnRef(pub String);

impl<T: Into<String>> From<T> for ColumnRef {
    fn from(name: T) -> Self {
        ColumnRef(name.into())
    }
}

/// An immutable, column-major table of `f64` values.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: BTreeMap<String, Vec<f64>>,
    n_rows: usize,
}

impl Table {
    /// Builds a table from named columns.
    ///
    /// # Panics
    /// Panics if no columns are supplied or the columns have differing
    /// lengths.
    pub fn new(name: impl Into<String>, columns: Vec<(String, Vec<f64>)>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        let n_rows = columns[0].1.len();
        for (col_name, values) in &columns {
            assert_eq!(
                values.len(),
                n_rows,
                "column {col_name} has {} rows, expected {n_rows}",
                values.len()
            );
        }
        Self {
            name: name.into(),
            columns: columns.into_iter().collect(),
            n_rows,
        }
    }

    /// Builds the conventional three-column (`x`, `y`, `value`) table from a
    /// point dataset — the shape of the Geolife table in the paper.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        Self::new(
            dataset.name.clone(),
            vec![
                (
                    "x".to_string(),
                    dataset.points.iter().map(|p| p.x).collect(),
                ),
                (
                    "y".to_string(),
                    dataset.points.iter().map(|p| p.y).collect(),
                ),
                (
                    "value".to_string(),
                    dataset.points.iter().map(|p| p.value).collect(),
                ),
            ],
        )
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Names of the columns, sorted.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.keys().map(String::as_str).collect()
    }

    /// The values of a column, or `None` if it does not exist.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns.get(name).map(Vec::as_slice)
    }

    /// The x, y and optional value column slices of a projection.
    ///
    /// # Panics
    /// Panics if a named column does not exist.
    fn projection_columns(
        &self,
        x_col: &str,
        y_col: &str,
        value_col: Option<&str>,
    ) -> (&[f64], &[f64], Option<&[f64]>) {
        let col = |c: &str| {
            self.column(c)
                .unwrap_or_else(|| panic!("no such column: {c}"))
        };
        (col(x_col), col(y_col), value_col.map(col))
    }

    /// Projects two columns (and an optional value column) into plot points.
    ///
    /// # Panics
    /// Panics if a named column does not exist.
    pub fn project(&self, x_col: &str, y_col: &str, value_col: Option<&str>) -> Vec<Point> {
        let (xs, ys, values) = self.projection_columns(x_col, y_col, value_col);
        (0..self.n_rows)
            .map(|i| Point::with_value(xs[i], ys[i], values.map_or(0.0, |v| v[i])))
            .collect()
    }

    /// Projects two columns restricted to rows whose (x, y) pair falls inside
    /// `region` — the "tool-generated query" of the paper's Figure 3, i.e.
    /// `SELECT x, y, value FROM t WHERE x BETWEEN … AND y BETWEEN …`.
    ///
    /// Rows come back in table order: map plots overdraw in that order, so
    /// the picture depends on it. The scan is one pass over the x/y column
    /// slices with [`BoundingBox::contains`]; a [`Point`] is built only for
    /// a matching row, so the full table is never copied.
    ///
    /// # Panics
    /// Panics if a named column does not exist.
    pub fn scan_region(
        &self,
        x_col: &str,
        y_col: &str,
        value_col: Option<&str>,
        region: &BoundingBox,
    ) -> Vec<Point> {
        let (xs, ys, values) = self.projection_columns(x_col, y_col, value_col);
        let mut out = Vec::new();
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            if region.contains(&Point::new(x, y)) {
                out.push(Point::with_value(x, y, values.map_or(0.0, |v| v[i])));
            }
        }
        out
    }

    /// Converts the projection of the whole table into a [`Dataset`] (used to
    /// hand the table to the offline samplers).
    pub fn to_dataset(&self, x_col: &str, y_col: &str, value_col: Option<&str>) -> Dataset {
        Dataset::from_points(
            format!("{}:{}x{}", self.name, x_col, y_col),
            self.project(x_col, y_col, value_col),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vas_data::GeolifeGenerator;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                ("x".into(), vec![0.0, 1.0, 2.0, 3.0]),
                ("y".into(), vec![0.0, 10.0, 20.0, 30.0]),
                ("alt".into(), vec![5.0, 6.0, 7.0, 8.0]),
            ],
        )
    }

    #[test]
    fn construction_and_metadata() {
        let t = table();
        assert_eq!(t.name(), "t");
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.column_names(), vec!["alt", "x", "y"]);
        assert_eq!(t.column("x").unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn projection_with_and_without_value() {
        let t = table();
        let pts = t.project("x", "y", Some("alt"));
        assert_eq!(pts[2], Point::with_value(2.0, 20.0, 7.0));
        let no_val = t.project("x", "y", None);
        assert_eq!(no_val[2], Point::new(2.0, 20.0));
    }

    #[test]
    fn scan_region_filters_rows() {
        let t = table();
        let region = BoundingBox::new(0.5, 5.0, 2.5, 25.0);
        let pts = t.scan_region("x", "y", Some("alt"), &region);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| region.contains(p)));
    }

    /// The scan before it was fused: project every row, then filter.
    fn scan_region_reference(
        t: &Table,
        value_col: Option<&str>,
        region: &BoundingBox,
    ) -> Vec<Point> {
        t.project("x", "y", value_col)
            .into_iter()
            .filter(|p| region.contains(p))
            .collect()
    }

    /// Points as raw bits, so NaN values and the sign of zero are compared
    /// exactly.
    fn bits(points: &[Point]) -> Vec<[u64; 3]> {
        points
            .iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.value.to_bits()])
            .collect()
    }

    /// A table whose coordinates mix NaN, ±∞, ±0.0, values exactly on the
    /// edges of the test regions and uniform noise.
    fn awkward_table(n: usize, seed: u64) -> Table {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let special = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            0.25,
            0.75,
            1.0,
        ];
        let mut value = move || {
            let r = next();
            if r % 3 == 0 {
                special[(r >> 8) as usize % special.len()]
            } else {
                (r >> 11) as f64 / (1u64 << 53) as f64 * 1.5 - 0.25
            }
        };
        let mut column = || (0..n).map(|_| value()).collect::<Vec<f64>>();
        let (x, y, v) = (column(), column(), column());
        Table::new(
            "awkward",
            vec![("x".into(), x), ("y".into(), y), ("value".into(), v)],
        )
    }

    #[test]
    fn scan_region_matches_project_then_filter_bit_for_bit() {
        let regions = [
            BoundingBox::new(0.25, 0.25, 0.75, 0.75),
            BoundingBox::new(-0.0, 0.0, 1.0, 0.75),
            BoundingBox::new(0.0, -0.25, 0.25, 1.0),
            // Inverted and empty: no row matches.
            BoundingBox::new(0.75, 0.75, 0.25, 0.25),
            BoundingBox::EMPTY,
            // Infinite: every row without a NaN coordinate matches.
            BoundingBox::new(
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::INFINITY,
            ),
        ];
        for seed in 0..8 {
            let t = awkward_table(2_000, seed);
            for region in &regions {
                for value_col in [Some("value"), None] {
                    let fused = t.scan_region("x", "y", value_col, region);
                    let reference = scan_region_reference(&t, value_col, region);
                    assert_eq!(
                        bits(&fused),
                        bits(&reference),
                        "seed {seed}, region {region:?}, value column {value_col:?}"
                    );
                }
            }
        }
        // The fixtures do reach the interesting cases.
        let t = awkward_table(2_000, 0);
        let all = BoundingBox::new(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        );
        let everything = t.scan_region("x", "y", Some("value"), &all);
        assert!(everything.len() < t.n_rows(), "NaN rows must be dropped");
        assert!(everything.iter().any(|p| p.x.is_infinite()));
        assert!(everything.iter().any(|p| p.value.is_nan()));
        let edge = BoundingBox::new(0.25, 0.25, 0.75, 0.75);
        assert!(t
            .scan_region("x", "y", None, &edge)
            .iter()
            .any(|p| p.x == 0.25 || p.y == 0.75));
        assert!(t
            .scan_region("x", "y", None, &BoundingBox::new(0.75, 0.75, 0.25, 0.25))
            .is_empty());
    }

    #[test]
    fn scan_region_keeps_row_order() {
        let t = Table::new(
            "t",
            vec![
                ("x".into(), vec![3.0, 0.0, 2.0, 9.0, 1.0]),
                ("y".into(), vec![0.0, 0.0, 0.0, 0.0, 0.0]),
                ("v".into(), vec![30.0, 0.0, 20.0, 90.0, 10.0]),
            ],
        );
        let region = BoundingBox::new(0.5, -1.0, 5.0, 1.0);
        let xs: Vec<f64> = t
            .scan_region("x", "y", Some("v"), &region)
            .iter()
            .map(|p| p.x)
            .collect();
        assert_eq!(xs, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn from_dataset_round_trips() {
        let d = GeolifeGenerator::with_size(500, 3).generate();
        let t = Table::from_dataset(&d);
        assert_eq!(t.n_rows(), 500);
        let back = t.to_dataset("x", "y", Some("value"));
        assert_eq!(back.points, d.points);
    }

    #[test]
    #[should_panic(expected = "expected 4")]
    fn mismatched_column_lengths_rejected() {
        let _ = Table::new(
            "bad",
            vec![("x".into(), vec![0.0; 4]), ("y".into(), vec![0.0; 3])],
        );
    }

    #[test]
    #[should_panic(expected = "no such column")]
    fn unknown_column_panics() {
        let _ = table().project("x", "nope", None);
    }
}
