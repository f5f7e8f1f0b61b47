//! A balanced k-d tree with a small dynamic overlay.
//!
//! Section V of the paper adds *density embedding* to VAS: after the sample
//! is chosen, a second scan over the full dataset increments a counter on the
//! sampled point nearest to each scanned tuple. The paper notes a k-d tree
//! makes this second pass `O(N log K)`. That static workload — built once
//! over the (small) sample, queried `N` times — is this module's sweet spot.
//!
//! The tree is constructed by recursive median splits, which guarantees a
//! balanced tree regardless of the input distribution.
//!
//! To serve as a [`LocalityIndex`] backend for the Interchange loop (which
//! needs insert/remove churn), the tree carries a classic dynamic overlay:
//! removals mark **tombstones** (the node keeps splitting the space but no
//! longer reports its entry), insertions go to a linear **overflow buffer**
//! scanned after every tree traversal, and once the overlay grows past a
//! fraction of the live size the tree is **compacted** — rebuilt from the
//! live entries. Queries stay correct at every moment; the rebuild schedule
//! only affects the constant factor.

use crate::locality::same_point;
use crate::{snapshot, LocalityIndex};
use vas_data::{BoundingBox, Point};

#[derive(Debug, Clone)]
struct KdNode {
    /// Index into the `entries` array of the point stored at this node.
    entry: usize,
    /// Split axis: 0 for x, 1 for y.
    axis: u8,
    left: Option<Box<KdNode>>,
    right: Option<Box<KdNode>>,
}

/// A balanced k-d tree over `(id, Point)` entries with tombstone deletion
/// and an overflow buffer for insertions (compacted automatically).
#[derive(Debug, Clone, Default)]
pub struct KdTree {
    entries: Vec<(usize, Point)>,
    root: Option<Box<KdNode>>,
    /// Tombstone flags, parallel to `entries`.
    removed: Vec<bool>,
    removed_count: usize,
    /// Entries inserted since the last compaction, scanned linearly.
    overflow: Vec<(usize, Point)>,
}

impl KdTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a tree from `(id, point)` pairs. Building is `O(n log² n)`.
    pub fn build(entries: impl IntoIterator<Item = (usize, Point)>) -> Self {
        let entries: Vec<(usize, Point)> = entries.into_iter().collect();
        let mut indices: Vec<usize> = (0..entries.len()).collect();
        let root = Self::build_rec(&entries, &mut indices, 0);
        let removed = vec![false; entries.len()];
        Self {
            entries,
            root,
            removed,
            removed_count: 0,
            overflow: Vec::new(),
        }
    }

    /// Builds a tree over a slice of points, using each point's position in
    /// the slice as its id.
    pub fn from_points(points: &[Point]) -> Self {
        Self::build(points.iter().copied().enumerate())
    }

    fn build_rec(
        entries: &[(usize, Point)],
        indices: &mut [usize],
        depth: usize,
    ) -> Option<Box<KdNode>> {
        if indices.is_empty() {
            return None;
        }
        let axis = (depth % 2) as u8;
        indices.sort_by(|&a, &b| {
            let (pa, pb) = (&entries[a].1, &entries[b].1);
            let (ka, kb) = if axis == 0 {
                (pa.x, pb.x)
            } else {
                (pa.y, pb.y)
            };
            ka.partial_cmp(&kb).expect("finite coordinates")
        });
        let mid = indices.len() / 2;
        let entry = indices[mid];
        let (left_idx, rest) = indices.split_at_mut(mid);
        let right_idx = &mut rest[1..];
        Some(Box::new(KdNode {
            entry,
            axis,
            left: Self::build_rec(entries, left_idx, depth + 1),
            right: Self::build_rec(entries, right_idx, depth + 1),
        }))
    }

    /// Number of stored (live) entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.removed_count + self.overflow.len()
    }

    /// `true` if the tree holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries awaiting integration into the tree structure (diagnostics).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Appends an entry to the overflow buffer, compacting the tree when the
    /// overlay (tombstones + overflow) outgrows its budget. O(1) amortized
    /// plus the scheduled rebuilds.
    pub fn insert(&mut self, id: usize, point: Point) {
        self.overflow.push((id, point));
        self.maybe_compact();
    }

    /// Removes one live entry matching `(id, point)` exactly: a tree entry is
    /// tombstoned, an overflow entry is dropped in place. Returns `true` if
    /// an entry was removed. The tree half is an `O(log K)` descent along the
    /// same splitting planes the build used (both sides are explored only on
    /// coordinate ties).
    pub fn remove(&mut self, id: usize, point: &Point) -> bool {
        let found = match self.root.as_ref() {
            Some(root) => self.find_entry(root, id, point),
            None => None,
        };
        if let Some(pos) = found {
            self.removed[pos] = true;
            self.removed_count += 1;
            self.maybe_compact();
            return true;
        }
        if let Some(pos) = self
            .overflow
            .iter()
            .position(|(eid, ep)| *eid == id && same_point(ep, point))
        {
            self.overflow.remove(pos);
            return true;
        }
        false
    }

    /// Locates a live tree entry matching `(id, point)` exactly, descending
    /// by the splitting planes: the median build puts strictly-smaller keys
    /// left and strictly-larger keys right, so only equal keys require
    /// visiting both subtrees.
    fn find_entry(&self, node: &KdNode, id: usize, point: &Point) -> Option<usize> {
        let (eid, ep) = self.entries[node.entry];
        if !self.removed[node.entry] && eid == id && same_point(&ep, point) {
            return Some(node.entry);
        }
        let (pc, nc) = if node.axis == 0 {
            (point.x, ep.x)
        } else {
            (point.y, ep.y)
        };
        if pc <= nc {
            if let Some(found) = node
                .left
                .as_ref()
                .and_then(|n| self.find_entry(n, id, point))
            {
                return Some(found);
            }
        }
        if pc >= nc {
            if let Some(found) = node
                .right
                .as_ref()
                .and_then(|n| self.find_entry(n, id, point))
            {
                return Some(found);
            }
        }
        None
    }

    /// Rebuilds the tree from the live entries once the overlay exceeds a
    /// quarter of the live size (with a floor so small trees don't thrash).
    fn maybe_compact(&mut self) {
        let live = self.len();
        if self.removed_count + self.overflow.len() > (live / 4).max(32) {
            self.compact();
        }
    }

    /// Immediately rebuilds the balanced tree from the live entries (tree
    /// order first, then overflow order).
    pub fn compact(&mut self) {
        let mut live: Vec<(usize, Point)> = Vec::with_capacity(self.len());
        for (i, e) in self.entries.iter().enumerate() {
            if !self.removed[i] {
                live.push(*e);
            }
        }
        live.append(&mut self.overflow);
        *self = Self::build(live);
    }

    /// The id and point of the live entry nearest to `query`, or `None` when
    /// empty.
    pub fn nearest(&self, query: &Point) -> Option<(usize, Point)> {
        let mut best: Option<(f64, usize, Point)> = None;
        if let Some(root) = self.root.as_ref() {
            self.nearest_rec(root, query, &mut best);
        }
        for &(id, p) in &self.overflow {
            let d2 = p.dist2(query);
            if best.map(|(bd2, _, _)| d2 < bd2).unwrap_or(true) {
                best = Some((d2, id, p));
            }
        }
        best.map(|(_, id, p)| (id, p))
    }

    fn nearest_rec(&self, node: &KdNode, query: &Point, best: &mut Option<(f64, usize, Point)>) {
        let (id, point) = self.entries[node.entry];
        if !self.removed[node.entry] {
            let d2 = point.dist2(query);
            if best.map(|(bd2, _, _)| d2 < bd2).unwrap_or(true) {
                *best = Some((d2, id, point));
            }
        }
        let diff = if node.axis == 0 {
            query.x - point.x
        } else {
            query.y - point.y
        };
        let (near, far) = if diff <= 0.0 {
            (&node.left, &node.right)
        } else {
            (&node.right, &node.left)
        };
        if let Some(n) = near {
            self.nearest_rec(n, query, best);
        }
        // Only descend the far side if the splitting plane is closer than the
        // best distance found so far.
        if best.map(|(bd2, _, _)| diff * diff < bd2).unwrap_or(true) {
            if let Some(f) = far {
                self.nearest_rec(f, query, best);
            }
        }
    }

    fn radius_rec(
        &self,
        node: &KdNode,
        query: &Point,
        radius: f64,
        r2: f64,
        visit: &mut impl FnMut(usize, &Point, f64),
    ) {
        let (id, point) = self.entries[node.entry];
        if !self.removed[node.entry] {
            let d2 = point.dist2(query);
            if d2 <= r2 {
                visit(id, &point, d2);
            }
        }
        let diff = if node.axis == 0 {
            query.x - point.x
        } else {
            query.y - point.y
        };
        let (near, far) = if diff <= 0.0 {
            (&node.left, &node.right)
        } else {
            (&node.right, &node.left)
        };
        if let Some(n) = near {
            self.radius_rec(n, query, radius, r2, visit);
        }
        if diff.abs() <= radius {
            if let Some(f) = far {
                self.radius_rec(f, query, radius, r2, visit);
            }
        }
    }

    /// Bounding box of all live points.
    pub fn bounds(&self) -> BoundingBox {
        let mut bb = BoundingBox::EMPTY;
        for (i, (_, p)) in self.entries.iter().enumerate() {
            if !self.removed[i] {
                bb.extend(p);
            }
        }
        for (_, p) in &self.overflow {
            bb.extend(p);
        }
        bb
    }

    /// Depth of the tree; a balanced tree over `n` entries has depth
    /// `⌈log2(n+1)⌉`. Exposed for tests and diagnostics.
    pub fn depth(&self) -> usize {
        fn depth(node: &Option<Box<KdNode>>) -> usize {
            match node {
                None => 0,
                Some(n) => 1 + depth(&n.left).max(depth(&n.right)),
            }
        }
        depth(&self.root)
    }
}

/// The radius-query family (`query_radius`, `query_radius_into`,
/// `for_each_in_radius`) comes from the [`LocalityIndex`] trait; the k-d tree
/// supplies only the core visitor traversal.
impl LocalityIndex for KdTree {
    fn len(&self) -> usize {
        KdTree::len(self)
    }

    /// Drops every entry; the k-d tree has no radius-dependent geometry, so
    /// the hint is ignored.
    fn reset(&mut self, _radius_hint: f64) {
        *self = KdTree::new();
    }

    fn insert(&mut self, id: usize, point: Point) {
        KdTree::insert(self, id, point);
    }

    fn remove(&mut self, id: usize, point: &Point) -> bool {
        KdTree::remove(self, id, point)
    }

    /// Visits live tree entries in deterministic depth-first traversal order,
    /// then the overflow buffer in insertion order.
    fn for_each_in_radius_with_dist2(
        &self,
        query: &Point,
        radius: f64,
        mut visit: impl FnMut(usize, &Point, f64),
    ) {
        let r2 = radius * radius;
        if let Some(root) = self.root.as_ref() {
            self.radius_rec(root, query, radius, r2, &mut visit);
        }
        for &(id, ref p) in &self.overflow {
            let d2 = p.dist2(query);
            if d2 <= r2 {
                visit(id, p, d2);
            }
        }
    }
}

/// Checkpoint snapshot codec — see [`crate::snapshot`].
impl KdTree {
    /// Serializes the tree: the entries array (tombstoned slots included),
    /// the tombstone bitmap, and the overflow buffer — all verbatim.
    ///
    /// The node structure is **not** stored: the median build is a pure
    /// deterministic function of the entries array (stable sort on
    /// coordinates), so [`restore_snapshot`](Self::restore_snapshot) rebuilds
    /// an identical tree. Preserving the raw entries/overflow split (rather
    /// than the live set) matters because the compaction schedule — and with
    /// it, the traversal order after future churn — depends on it.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        snapshot::put_usize(out, self.entries.len());
        for &(id, ref p) in &self.entries {
            snapshot::put_usize(out, id);
            snapshot::put_f64(out, p.x);
            snapshot::put_f64(out, p.y);
            snapshot::put_f64(out, p.value);
        }
        for &dead in &self.removed {
            snapshot::put_u8(out, dead as u8);
        }
        snapshot::put_usize(out, self.overflow.len());
        for &(id, ref p) in &self.overflow {
            snapshot::put_usize(out, id);
            snapshot::put_f64(out, p.x);
            snapshot::put_f64(out, p.y);
            snapshot::put_f64(out, p.value);
        }
    }

    /// Restores a tree from [`snapshot_into`](Self::snapshot_into) bytes,
    /// rebuilding the node structure from the entries array.
    pub fn restore_snapshot(
        r: &mut snapshot::SnapshotReader<'_>,
    ) -> Result<Self, snapshot::SnapshotError> {
        let take_entries = |r: &mut snapshot::SnapshotReader<'_>,
                            n: usize,
                            what: &str|
         -> Result<Vec<(usize, Point)>, snapshot::SnapshotError> {
            let mut entries = Vec::with_capacity(n.min(1 << 20));
            for i in 0..n {
                let id = r.take_usize(what)?;
                let x = r.take_f64(what)?;
                let y = r.take_f64(what)?;
                let value = r.take_f64(what)?;
                if !x.is_finite() || !y.is_finite() {
                    return Err(snapshot::SnapshotError::new(format!(
                        "{what} {i} has non-finite coordinates ({x}, {y})"
                    )));
                }
                entries.push((id, Point::with_value(x, y, value)));
            }
            Ok(entries)
        };
        let n = r.take_usize("kdtree entry count")?;
        let entries = take_entries(r, n, "kdtree entry")?;
        let mut removed = Vec::with_capacity(n.min(1 << 20));
        let mut removed_count = 0usize;
        for i in 0..n {
            match r.take_u8("kdtree tombstone flag")? {
                0 => removed.push(false),
                1 => {
                    removed.push(true);
                    removed_count += 1;
                }
                other => {
                    return Err(snapshot::SnapshotError::new(format!(
                        "kdtree tombstone flag {i} is {other}, expected 0 or 1"
                    )))
                }
            }
        }
        let n_overflow = r.take_usize("kdtree overflow count")?;
        let overflow = take_entries(r, n_overflow, "kdtree overflow entry")?;
        let mut indices: Vec<usize> = (0..entries.len()).collect();
        let root = Self::build_rec(&entries, &mut indices, 0);
        Ok(Self {
            entries,
            root,
            removed,
            removed_count,
            overflow,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::from_points(&[]);
        assert!(t.is_empty());
        assert!(t.nearest(&Point::new(0.0, 0.0)).is_none());
        assert!(t.query_radius(&Point::new(0.0, 0.0), 1.0).is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn single_point() {
        let t = KdTree::from_points(&[Point::new(3.0, 4.0)]);
        assert_eq!(t.len(), 1);
        let (id, p) = t.nearest(&Point::new(0.0, 0.0)).unwrap();
        assert_eq!(id, 0);
        assert_eq!(p, Point::new(3.0, 4.0));
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(1_000, 1);
        let t = KdTree::from_points(&pts);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let q = Point::new(rng.gen_range(-12.0..12.0), rng.gen_range(-12.0..12.0));
            let (got, _) = t.nearest(&q).unwrap();
            let best = pts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.dist2(&q).partial_cmp(&b.dist2(&q)).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            assert!(
                (pts[got].dist2(&q) - pts[best].dist2(&q)).abs() < 1e-12,
                "nearest mismatch"
            );
        }
    }

    #[test]
    fn radius_matches_brute_force() {
        let pts = random_points(500, 3);
        let t = KdTree::from_points(&pts);
        let q = Point::new(1.0, -1.0);
        for radius in [0.5, 2.0, 8.0] {
            let mut got: Vec<usize> = t
                .query_radius(&q, radius)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            got.sort_unstable();
            let mut expected: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.dist(&q) <= radius)
                .map(|(i, _)| i)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "radius {radius}");
        }
    }

    #[test]
    fn query_radius_into_and_visitor_match_the_allocating_query() {
        let pts = random_points(600, 9);
        let t = KdTree::from_points(&pts);
        let q = Point::new(2.0, 3.0);
        let mut buf = Vec::new();
        for radius in [0.3, 2.5, 15.0] {
            let allocated = t.query_radius(&q, radius);
            t.query_radius_into(&q, radius, &mut buf);
            assert_eq!(buf, allocated, "radius {radius}");
            let mut visited = Vec::new();
            t.for_each_in_radius(&q, radius, |id, p| visited.push((id, *p)));
            assert_eq!(visited, allocated, "radius {radius}");
        }
    }

    #[test]
    fn tree_is_balanced() {
        let pts = random_points(1_024, 4);
        let t = KdTree::from_points(&pts);
        // A perfectly balanced tree over 1024 nodes has depth 11; allow +1 slack.
        assert!(t.depth() <= 12, "depth {} too large", t.depth());
    }

    #[test]
    fn balanced_even_for_sorted_input() {
        let pts: Vec<Point> = (0..1_000).map(|i| Point::new(i as f64, 0.0)).collect();
        let t = KdTree::from_points(&pts);
        assert!(t.depth() <= 11, "depth {} on sorted input", t.depth());
    }

    #[test]
    fn custom_ids_are_preserved() {
        let t = KdTree::build(vec![
            (100, Point::new(0.0, 0.0)),
            (200, Point::new(5.0, 5.0)),
        ]);
        assert_eq!(t.nearest(&Point::new(4.0, 4.0)).unwrap().0, 200);
        assert_eq!(t.nearest(&Point::new(1.0, 0.0)).unwrap().0, 100);
    }

    #[test]
    fn duplicate_points_all_returned_by_radius_query() {
        let pts = vec![Point::new(1.0, 1.0); 10];
        let t = KdTree::from_points(&pts);
        assert_eq!(t.query_radius(&Point::new(1.0, 1.0), 0.01).len(), 10);
    }

    #[test]
    fn bounds_cover_all_points() {
        let pts = random_points(100, 5);
        let t = KdTree::from_points(&pts);
        let bb = t.bounds();
        for p in &pts {
            assert!(bb.contains(p));
        }
    }

    #[test]
    fn removal_tombstones_hide_entries_everywhere() {
        let pts = random_points(200, 6);
        let mut t = KdTree::from_points(&pts);
        assert!(t.remove(17, &pts[17]));
        assert_eq!(t.len(), 199);
        // Tombstoned entries vanish from every query family.
        assert!(!t
            .query_radius(&pts[17], 1e-9)
            .iter()
            .any(|(id, _)| *id == 17));
        let (nid, _) = t.nearest(&pts[17]).unwrap();
        assert_ne!(nid, 17);
        // Removing again fails.
        assert!(!t.remove(17, &pts[17]));
    }

    #[test]
    fn inserted_entries_are_visible_before_and_after_compaction() {
        let pts = random_points(100, 7);
        let mut t = KdTree::from_points(&pts);
        t.insert(500, Point::new(0.1, 0.2));
        assert!(t.overflow_len() > 0);
        assert!(t
            .query_radius(&Point::new(0.1, 0.2), 1e-6)
            .iter()
            .any(|(id, _)| *id == 500));
        assert_eq!(t.nearest(&Point::new(0.1, 0.2)).unwrap().0, 500);
        t.compact();
        assert_eq!(t.overflow_len(), 0);
        assert!(t
            .query_radius(&Point::new(0.1, 0.2), 1e-6)
            .iter()
            .any(|(id, _)| *id == 500));
    }

    #[test]
    fn interleaved_insert_remove_matches_brute_force() {
        // The Interchange access pattern: constant insert/remove churn
        // crossing many automatic compactions.
        let mut rng = StdRng::seed_from_u64(8);
        let mut t = KdTree::new();
        let mut reference: Vec<(usize, Point)> = Vec::new();
        let mut next_id = 0usize;
        for step in 0..2_000 {
            if reference.is_empty() || rng.gen_bool(0.6) {
                let p = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
                t.insert(next_id, p);
                reference.push((next_id, p));
                next_id += 1;
            } else {
                let idx = rng.gen_range(0..reference.len());
                let (id, p) = reference.swap_remove(idx);
                assert!(t.remove(id, &p), "step {step}: remove failed");
            }
            assert_eq!(t.len(), reference.len(), "length diverged at step {step}");
        }
        let center = Point::new(0.0, 0.0);
        let mut got: Vec<usize> = t
            .query_radius(&center, 25.0)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        got.sort_unstable();
        let mut expected: Vec<usize> = reference
            .iter()
            .filter(|(_, p)| p.dist(&center) <= 25.0)
            .map(|(id, _)| *id)
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
        // Churn kept the overlay bounded, so the tree is still balanced-ish.
        assert!(t.overflow_len() <= (t.len() / 4).max(32) + 1);
    }

    #[test]
    fn grow_from_empty_via_inserts_only() {
        let mut t = KdTree::new();
        for i in 0..300 {
            t.insert(i, Point::new((i % 17) as f64, (i % 23) as f64));
        }
        assert_eq!(t.len(), 300);
        // Compaction has integrated most entries into the balanced tree.
        assert!(t.overflow_len() < 300);
        let all = t.query_radius(&Point::new(8.0, 11.0), 1_000.0);
        assert_eq!(all.len(), 300);
    }
}
