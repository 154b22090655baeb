//! Immutable graph snapshots with dual CSR/CSC indexing.
//!
//! Both indexes are chunked copy-on-write [`Adjacency`] values (see
//! [`crate::csr`]). [`GraphSnapshot::apply`] rebuilds only the chunks that
//! hold an endpoint of a mutated edge; every other chunk is shared, by
//! pointer, between the old and the new snapshot. Refinement evaluates
//! old-graph contributions against the old snapshot while the new one is
//! live, so the sharing keeps both readable at the cost of the touched
//! chunks alone.

use std::sync::Arc;

use crate::csr::{Adjacency, EdgeUpdate};
use crate::mutation::{MutationBatch, MutationError};
use crate::types::{Edge, VertexId, Weight};

/// An immutable snapshot of a directed weighted graph.
///
/// The snapshot keeps both a source-indexed (CSR, out-edges) and a
/// destination-indexed (CSC, in-edges) view of the same edge set. Push
/// traversal reads the CSR; pull traversal and GraphBolt's re-evaluation of
/// non-decomposable aggregations read the CSC (§3.3, §4.2 of the paper).
///
/// Applying a [`MutationBatch`] produces a *new* snapshot, leaving the old
/// one readable so refinement can evaluate "old graph" contributions while
/// the mutated graph is live. The two share every adjacency chunk the
/// batch did not touch through `Arc`, so cloning a snapshot or keeping the
/// previous one alive copies no edge data; the engine additionally passes
/// snapshots around as `Arc<GraphSnapshot>`.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    out: Adjacency,
    inc: Adjacency,
    /// Monotonically increasing snapshot version, starting at 0.
    version: u64,
}

impl PartialEq for GraphSnapshot {
    /// Structural equality: two snapshots are equal when they describe
    /// the same edge set, regardless of how many mutation batches
    /// produced them (the version counter is provenance, not structure).
    fn eq(&self, other: &Self) -> bool {
        self.out == other.out && self.inc == other.inc
    }
}

impl GraphSnapshot {
    /// Builds a snapshot from an edge list over `n` vertices.
    ///
    /// Duplicate `(src, dst)` pairs are collapsed, keeping the last weight
    /// seen — the substrate models simple directed graphs, matching the
    /// paper's inputs.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        // Both directions keep the last of each parallel run in `edges`
        // order, so they collapse every duplicate to the same weight.
        let reversed: Vec<Edge> = edges.iter().map(|e| e.reversed()).collect();
        Self {
            out: Adjacency::from_edges(n, edges),
            inc: Adjacency::from_edges(n, &reversed),
            version: 0,
        }
    }

    /// Creates an empty graph over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            out: Adjacency::empty(n),
            inc: Adjacency::empty(n),
            version: 0,
        }
    }

    /// Number of vertices (fixed id space `0..n`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Snapshot version: 0 for the initial build, incremented by each
    /// applied mutation batch.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.inc.degree(v)
    }

    /// Sorted out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// Sorted in-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inc.neighbors(v)
    }

    /// `(out-neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.out.edges(v)
    }

    /// `(in-neighbor, weight)` pairs of `v` — the weight is that of the
    /// original `u → v` edge.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.inc.edges(v)
    }

    /// Returns `true` if the directed edge `u → v` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out.has_edge(u, v)
    }

    /// Weight of `u → v`, if present.
    #[inline]
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.out.edge_weight(u, v)
    }

    /// Sum of in-edge weights of `v` (CoEM-style destination
    /// normalization).
    #[inline]
    pub fn in_weight_sum(&self, v: VertexId) -> Weight {
        self.inc.weight_sum(v)
    }

    /// The out-edge (CSR) index.
    #[inline]
    pub fn csr(&self) -> &Adjacency {
        &self.out
    }

    /// The in-edge (CSC) index.
    #[inline]
    pub fn csc(&self) -> &Adjacency {
        &self.inc
    }

    /// All edges in source-major order.
    pub fn edges(&self) -> Vec<Edge> {
        self.out.to_edges()
    }

    /// Applies a mutation batch, producing the next snapshot.
    ///
    /// Additions of already-present edges and deletions of absent edges are
    /// rejected with [`MutationError`] so that dependency refinement never
    /// repropagates a contribution twice or retracts one that was never
    /// made (§4.2 "spurious updates"). Use
    /// [`MutationBatch::normalize_against`] to pre-filter a raw stream.
    ///
    /// # Errors
    ///
    /// Returns [`MutationError::DuplicateAddition`] /
    /// [`MutationError::MissingDeletion`] on conflicting mutations.
    /// A delete+add pair on the same endpoints is a *reweight* and is
    /// accepted.
    pub fn apply(&self, batch: &MutationBatch) -> Result<GraphSnapshot, MutationError> {
        batch.validate(self)?;
        let new_n = self
            .num_vertices()
            .max(batch.max_vertex_id().map_or(0, |m| m as usize + 1));

        let updates = batch
            .deletions()
            .iter()
            .map(|e| (e, None))
            .chain(batch.additions().iter().map(|e| (e, Some(e.weight))));
        let (mut out, mut inc): (Vec<_>, Vec<_>) = updates
            .map(|(e, weight)| {
                let fwd = EdgeUpdate {
                    vertex: e.src,
                    target: e.dst,
                    weight,
                };
                let bwd = EdgeUpdate {
                    vertex: e.dst,
                    target: e.src,
                    weight,
                };
                (fwd, bwd)
            })
            .unzip();
        let next = GraphSnapshot {
            out: self.out.apply_updates(new_n, &mut out),
            inc: self.inc.apply_updates(new_n, &mut inc),
            version: self.version + 1,
        };
        debug_assert_eq!(next.out.num_edges(), next.inc.num_edges());
        Ok(next)
    }

    /// Convenience wrapper returning an `Arc`'d mutated snapshot.
    pub fn apply_arc(&self, batch: &MutationBatch) -> Result<Arc<GraphSnapshot>, MutationError> {
        self.apply(batch).map(Arc::new)
    }

    /// Estimated heap footprint of both indexes, in bytes.
    ///
    /// Adjacency chunks shared with other snapshots (every chunk a
    /// mutation batch did not touch) count in full in each snapshot, so
    /// the sum over live snapshots overstates their joint footprint; a
    /// single snapshot's figure equals that of a fresh build of its edge
    /// set.
    pub fn memory_bytes(&self) -> usize {
        self.out.memory_bytes() + self.inc.memory_bytes()
    }

    /// Checks internal consistency: CSR and CSC describe the same edge
    /// set. Intended for tests and debug assertions.
    pub fn check_consistency(&self) -> bool {
        if self.out.num_edges() != self.inc.num_edges() {
            return false;
        }
        let mut fwd = self.out.to_edges();
        let mut bwd: Vec<Edge> = self
            .inc
            .to_edges()
            .into_iter()
            .map(|e| e.reversed())
            .collect();
        fwd.sort();
        bwd.sort();
        fwd == bwd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CHUNK_VERTICES;
    use std::collections::HashMap;

    fn diamond() -> GraphSnapshot {
        GraphSnapshot::from_edges(
            4,
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 2.0),
                Edge::new(1, 3, 3.0),
                Edge::new(2, 3, 4.0),
            ],
        )
    }

    #[test]
    fn csr_and_csc_agree() {
        let g = diamond();
        assert!(g.check_consistency());
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = GraphSnapshot::from_edges(2, &[Edge::new(0, 1, 1.0), Edge::new(0, 1, 7.0)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(7.0));
    }

    #[test]
    fn in_weight_sum_matches_incoming_edges() {
        let g = diamond();
        assert_eq!(g.in_weight_sum(3), 7.0);
        assert_eq!(g.in_weight_sum(1), 1.0);
    }

    #[test]
    fn apply_addition_and_deletion() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.add(Edge::new(3, 0, 9.0));
        batch.delete(Edge::unweighted(0, 1));
        let g2 = g.apply(&batch).unwrap();
        assert!(g2.check_consistency());
        assert_eq!(g2.num_edges(), 4);
        assert!(g2.has_edge(3, 0));
        assert!(!g2.has_edge(0, 1));
        assert_eq!(g2.version(), 1);
        // The old snapshot is untouched.
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(3, 0));
    }

    #[test]
    fn apply_grows_vertex_space() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.add(Edge::unweighted(3, 6));
        let g2 = g.apply(&batch).unwrap();
        assert_eq!(g2.num_vertices(), 7);
        assert!(g2.has_edge(3, 6));
        assert_eq!(g2.out_degree(5), 0);
        assert!(g2.check_consistency());
    }

    #[test]
    fn apply_rejects_duplicate_addition() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.add(Edge::unweighted(0, 1));
        assert!(matches!(
            g.apply(&batch),
            Err(MutationError::DuplicateAddition(_))
        ));
    }

    #[test]
    fn apply_rejects_missing_deletion() {
        let g = diamond();
        let mut batch = MutationBatch::new();
        batch.delete(Edge::unweighted(1, 0));
        assert!(matches!(
            g.apply(&batch),
            Err(MutationError::MissingDeletion(_))
        ));
    }

    #[test]
    fn sequential_batches_bump_version() {
        let g = diamond();
        let mut b1 = MutationBatch::new();
        b1.add(Edge::unweighted(1, 0));
        let g1 = g.apply(&b1).unwrap();
        let mut b2 = MutationBatch::new();
        b2.delete(Edge::unweighted(1, 0));
        let g2 = g1.apply(&b2).unwrap();
        assert_eq!(g2.version(), 2);
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    /// Asserts `g` holds exactly the edges of `reference`.
    fn assert_edge_set(g: &GraphSnapshot, reference: &HashMap<(VertexId, VertexId), Weight>) {
        assert!(g.check_consistency());
        assert_eq!(g.num_edges(), reference.len());
        for (&(s, d), &w) in reference {
            assert_eq!(g.edge_weight(s, d), Some(w), "edge {s} -> {d}");
        }
    }

    /// Applies `batch` to both `g` and the reference edge map, then checks
    /// the result against the reference, a fresh build and the
    /// chunk-sharing invariant.
    fn apply_and_check(
        g: &GraphSnapshot,
        reference: &mut HashMap<(VertexId, VertexId), Weight>,
        batch: &MutationBatch,
    ) -> GraphSnapshot {
        let before: Vec<Edge> = g.edges();
        let next = g.apply(batch).unwrap();
        for e in batch.deletions() {
            reference.remove(&e.endpoints());
        }
        for e in batch.additions() {
            reference.insert(e.endpoints(), e.weight);
        }
        let n = next.num_vertices();
        let edges: Vec<Edge> = reference
            .iter()
            .map(|(&(s, d), &w)| Edge::new(s, d, w))
            .collect();
        assert_eq!(next, GraphSnapshot::from_edges(n, &edges));
        assert_edge_set(&next, reference);
        // The old snapshot still reads its own edge set.
        assert_eq!(g.edges(), before);

        // O(touched): every chunk without a mutated endpoint is the same
        // allocation in both snapshots; every other chunk is rebuilt.
        let chunk = |v: VertexId| v as usize / CHUNK_VERTICES;
        let mutated = || batch.additions().iter().chain(batch.deletions());
        for c in 0..g.num_vertices().div_ceil(CHUNK_VERTICES) {
            let out_touched = mutated().any(|e| chunk(e.src) == c);
            let in_touched = mutated().any(|e| chunk(e.dst) == c);
            assert_eq!(
                next.out.shares_chunk(&g.out, c),
                !out_touched,
                "csr chunk {c}"
            );
            assert_eq!(
                next.inc.shares_chunk(&g.inc, c),
                !in_touched,
                "csc chunk {c}"
            );
        }
        next
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]
        /// `apply` over random batch sequences equals a from-scratch
        /// build of the same edge set and shares every untouched chunk.
        #[test]
        fn apply_matches_fresh_build(seed in 0u64..10_000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n0 = rng.gen_range(1..3 * CHUNK_VERTICES);
            let hub = rng.gen_range(0..n0) as VertexId;
            let mut reference = HashMap::new();
            // A hub with thousands of out- and in-edges, plus sparse noise.
            for t in 0..n0 as VertexId {
                if t != hub && rng.gen_bool(0.9) {
                    reference.insert((hub, t), rng.gen_range(0.1..2.0));
                    reference.insert((t, hub), rng.gen_range(0.1..2.0));
                }
            }
            for _ in 0..n0 {
                let (u, v) = (rng.gen_range(0..n0), rng.gen_range(0..n0));
                reference.insert((u as VertexId, v as VertexId), 1.0);
            }
            // Earlier parallel copies with other weights: the build keeps
            // the last one.
            let mut edges: Vec<Edge> = reference
                .iter()
                .filter(|_| rng.gen_bool(0.1))
                .map(|(&(s, d), &w)| Edge::new(s, d, w + 1.0))
                .collect();
            edges.extend(reference.iter().map(|(&(s, d), &w)| Edge::new(s, d, w)));
            let mut g = GraphSnapshot::from_edges(n0, &edges);
            assert_edge_set(&g, &reference);
            for _ in 0..6 {
                let n = g.num_vertices();
                let mut batch = MutationBatch::new();
                let present: Vec<Edge> = g.edges();
                match rng.gen_range(0..4) {
                    // Empty a vertex (the hub, sometimes).
                    0 => {
                        let v = if rng.gen_bool(0.3) { hub } else { rng.gen_range(0..n) as VertexId };
                        batch.delete_vertex_edges(&g, v);
                    }
                    // Grow the vertex space: within the tail chunk, across
                    // its boundary, or into a fresh chunk further out.
                    1 => {
                        let far = n + rng.gen_range(0..2 * CHUNK_VERTICES);
                        let u = rng.gen_range(0..n) as VertexId;
                        batch.add(Edge::new(u, far as VertexId, 0.5));
                    }
                    _ => {}
                }
                for _ in 0..rng.gen_range(0..6) {
                    let Some(&e) = present.get(rng.gen_range(0..present.len().max(1))) else { break };
                    if rng.gen_bool(0.5) {
                        batch.delete(e);
                    } else {
                        batch.delete(e).add(Edge::new(e.src, e.dst, e.weight + 1.0));
                    }
                }
                for _ in 0..rng.gen_range(0..6) {
                    let u = if rng.gen_bool(0.2) { hub } else { rng.gen_range(0..n) as VertexId };
                    let v = rng.gen_range(0..n) as VertexId;
                    batch.add(Edge::new(u, v, rng.gen_range(0.1..2.0)));
                }
                let batch = batch.normalize_against(&g);
                g = apply_and_check(&g, &mut reference, &batch);
            }
        }
    }
}
