//! The benchmark's own spans and the per-layer self times derived from them.
//!
//! The traced run opens one span per op (`op.*`) and one around every call
//! into a crate's public function, named `<crate>.<call>`. The program opens
//! spans of its own under the same tracer (names without a dot); those are
//! skipped here, so a layer's self time is its span's duration minus the
//! part of that interval covered by the benchmark spans nested below it.

use std::collections::HashMap;
use vas_obs::SpanRecord;

/// One offline build: spill, sample, save, load.
pub const OP_BUILD: &str = "op.build";
/// One budgeted view: query against the sample catalog, then render.
pub const OP_VIEW: &str = "op.view";
/// One exact view: full-table region scan, then render.
pub const OP_EXACT_VIEW: &str = "op.exact_view";
/// `ChunkedWriter` create + `write_points` + `finish`.
pub const SPILL_WRITE: &str = "vas-stream.spill_write";
/// `ChunkedReader::open` and every `next_chunk`/`reset` of the spill reader.
pub const READ: &str = "vas-stream.read";
/// `VasSampler::build_from_source` or `ShardedSampler::build_sharded_from_source`.
pub const SAMPLE: &str = "vas-core.build";
/// `save_catalog`.
pub const SAVE: &str = "vas-storage.save";
/// `load_catalog`.
pub const LOAD: &str = "vas-storage.load";
/// `VizEngine::query`.
pub const QUERY: &str = "vas-storage.query";
/// `ScatterRenderer::render_points`.
pub const RENDER: &str = "vas-viz.render";
/// `VizEngine::build_catalog` during set-up.
pub const BUILD_CATALOG: &str = "vas-storage.build_catalog";

/// A benchmark span with its derived self time.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedSpan {
    /// Span id (unique within the tracer).
    pub id: u64,
    /// Span name (one of the constants above).
    pub name: String,
    /// Id of the outermost benchmark span above this one (itself for a root).
    pub root: u64,
    /// Wall duration, µs.
    pub dur_us: u64,
    /// Duration minus the time covered by nested benchmark spans, µs.
    pub self_us: u64,
}

/// True for spans the benchmark opened (program spans carry no dot).
fn is_benchmark_span(name: &str) -> bool {
    name.contains('.')
}

/// Derives self times for every benchmark span in `spans`. Nesting is
/// resolved through program spans: a read span opened inside the program's
/// own `build_from_source` span still counts as a child of the benchmark's
/// `vas-core.build` span around that call.
pub fn self_times(spans: &[SpanRecord]) -> Vec<OwnedSpan> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let owned_parent = |span: &SpanRecord| -> Option<u64> {
        let mut parent = span.parent;
        while let Some(id) = parent {
            let record = by_id.get(&id)?;
            if is_benchmark_span(&record.name) {
                return Some(id);
            }
            parent = record.parent;
        }
        None
    };
    let owned: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| is_benchmark_span(&s.name))
        .collect();
    let parent_of: HashMap<u64, Option<u64>> =
        owned.iter().map(|s| (s.id, owned_parent(s))).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in &owned {
        if let Some(Some(parent)) = parent_of.get(&s.id) {
            children
                .entry(*parent)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    owned
        .iter()
        .map(|s| {
            let mut root = s.id;
            while let Some(Some(parent)) = parent_of.get(&root) {
                root = *parent;
            }
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_us(c, s.start_us, s.start_us + s.dur_us));
            OwnedSpan {
                id: s.id,
                name: s.name.clone(),
                root,
                dur_us: s.dur_us,
                self_us: s.dur_us.saturating_sub(covered),
            }
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_us(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            thread: 1,
            start_us,
            dur_us,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_benchmark_children_through_program_spans() {
        let spans = vec![
            span(1, None, OP_BUILD, 0, 100),
            span(2, Some(1), SPILL_WRITE, 0, 10),
            span(3, Some(1), SAMPLE, 10, 80),
            // A program span between the sample call and its reads.
            span(4, Some(3), "build_from_source", 11, 78),
            span(5, Some(4), READ, 12, 5),
            span(6, Some(4), READ, 40, 5),
            // A program span under a read: not a benchmark child.
            span(7, Some(6), "chunk_decode", 41, 3),
            span(8, Some(1), SAVE, 90, 8),
        ];
        let owned = self_times(&spans);
        let get = |id: u64| owned.iter().find(|s| s.id == id).unwrap();
        assert_eq!(owned.len(), 6);
        assert_eq!(get(1).self_us, 2, "op gap: 100 - 10 - 80 - 8");
        assert_eq!(get(3).self_us, 70, "sample minus two 5 µs reads");
        assert_eq!(get(5).root, 1);
        assert_eq!(get(6).self_us, 5);
        let total: u64 = owned
            .iter()
            .filter(|s| s.root == 1)
            .map(|s| s.self_us)
            .sum();
        assert_eq!(total, 100, "self times add up to the op's wall time");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        assert_eq!(covered_us(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_us(&[], 0, 25), 0);
    }
}
