//! Chunked, copy-on-write compressed sparse row adjacency index.
//!
//! A single [`Adjacency`] stores one direction of a graph (out-edges for
//! CSR, in-edges for CSC). The GraphBolt snapshot keeps one of each so the
//! execution engine can switch between push (source-indexed) and pull
//! (destination-indexed) traversal, which is the backbone of Ligra-style
//! direction optimization (§4.1 of the paper).
//!
//! # Layout
//!
//! The vertex id space is cut into fixed ranges of `CHUNK_VERTICES` (1024)
//! ids. Each range is one immutable chunk — its own CSR `offsets`,
//! `targets` and `weights` — held behind an `Arc`. The last chunk also
//! spans `CHUNK_VERTICES` ids; those at or past the vertex count have
//! empty slices.
//!
//! Applying a batch of edge updates clones the chunk pointer vector and
//! rebuilds only the chunks that hold a changed vertex (growing the vertex
//! space adds empty chunks past the old last one). Every other chunk is
//! the *same allocation* in the old and the new index. This is the
//! sharing invariant refinement relies on: it reads the old snapshot while
//! the new one is live, and an untouched chunk costs neither snapshot a
//! copy. A one-edge batch therefore costs one chunk rebuild per direction
//! plus `|V| / CHUNK_VERTICES` pointer clones, instead of the full
//! two-pass copy of both arrays.

use std::sync::Arc;

use crate::types::{Edge, VertexId, Weight};

/// Vertices per adjacency chunk.
///
/// Equal to the engine's dense `edge_map` chunk width, so a pull chunk
/// reads exactly one adjacency chunk.
pub(crate) const CHUNK_VERTICES: usize = 1024;

const CHUNK_SHIFT: u32 = CHUNK_VERTICES.trailing_zeros();
const CHUNK_MASK: usize = CHUNK_VERTICES - 1;

/// One change to a vertex's neighbor list, as consumed by
/// `Adjacency::apply_updates`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeUpdate {
    /// The vertex whose slice changes.
    pub vertex: VertexId,
    /// The neighbor inserted or removed.
    pub target: VertexId,
    /// `None` removes the edge to `target`; `Some(w)` inserts it.
    pub weight: Option<Weight>,
}

/// A fixed vertex range of an [`Adjacency`] in plain CSR form, with
/// offsets local to the chunk.
///
/// Every chunk spans `CHUNK_VERTICES` ids, also the last one: ids at or
/// past the graph's vertex count have empty slices, so growing the
/// vertex space inside a chunk leaves the chunk as it is. The offsets are
/// a fixed-size array so a lookup takes no bounds check beyond the
/// chunk's own index.
#[derive(Debug, PartialEq)]
struct Chunk {
    /// `offsets[i]..offsets[i + 1]` is the slice of the chunk's `i`-th
    /// vertex.
    offsets: [usize; CHUNK_VERTICES + 1],
    /// Flattened neighbor ids, sorted within each vertex slice.
    targets: Vec<VertexId>,
    /// Weight parallel to `targets`.
    weights: Vec<Weight>,
}

impl Chunk {
    fn empty() -> Self {
        Self::with_capacity(0)
    }

    fn with_capacity(edges: usize) -> Self {
        Self {
            offsets: [0; CHUNK_VERTICES + 1],
            targets: Vec::with_capacity(edges),
            weights: Vec::with_capacity(edges),
        }
    }

    /// Appends `old`'s local vertices `lo..hi` unchanged. The vertices
    /// before `lo` must already be written.
    fn copy_run(&mut self, old: &Chunk, lo: usize, hi: usize) {
        let (elo, ehi) = (old.offsets[lo], old.offsets[hi]);
        let base = self.targets.len();
        for (new, &o) in self.offsets[lo + 1..=hi]
            .iter_mut()
            .zip(&old.offsets[lo + 1..=hi])
        {
            *new = o - elo + base;
        }
        self.targets.extend_from_slice(&old.targets[elo..ehi]);
        self.weights.extend_from_slice(&old.weights[elo..ehi]);
    }

    /// This chunk with `updates` applied. `updates` must be sorted by
    /// `(vertex, target, is insertion)` and all fall inside the chunk,
    /// whose first vertex id is `base`.
    fn rebuilt(&self, base: usize, updates: &[EdgeUpdate]) -> Chunk {
        let inserted = updates.iter().filter(|u| u.weight.is_some()).count();
        let mut next = Chunk::with_capacity(self.targets.len() + inserted);
        let mut done = 0;
        let mut rest = updates;
        while let Some(first) = rest.first() {
            let v = first.vertex;
            let local = v as usize - base;
            let run = rest.partition_point(|u| u.vertex == v);
            next.copy_run(self, done, local);
            let (lo, hi) = (self.offsets[local], self.offsets[local + 1]);
            next.merge_vertex(&self.targets[lo..hi], &self.weights[lo..hi], &rest[..run]);
            next.offsets[local + 1] = next.targets.len();
            done = local + 1;
            rest = &rest[run..];
        }
        next.copy_run(self, done, CHUNK_VERTICES);
        next
    }

    /// Appends one vertex's slice: its old sorted slice
    /// `targets`/`weights` with `updates` (sorted by target, removal
    /// before insertion) merged in. Removing an absent target is a no-op.
    fn merge_vertex(&mut self, targets: &[VertexId], weights: &[Weight], updates: &[EdgeUpdate]) {
        let mut i = 0;
        for u in updates {
            let j = i + targets[i..].partition_point(|&t| t < u.target);
            self.targets.extend_from_slice(&targets[i..j]);
            self.weights.extend_from_slice(&weights[i..j]);
            i = j;
            match u.weight {
                None if targets.get(i) == Some(&u.target) => i += 1,
                None => {}
                Some(w) => {
                    self.targets.push(u.target);
                    self.weights.push(w);
                }
            }
        }
        self.targets.extend_from_slice(&targets[i..]);
        self.weights.extend_from_slice(&weights[i..]);
    }

    /// Sorts every vertex slice by neighbor id and collapses each run of
    /// parallel edges to one carrying the weight of the last in the run
    /// (the sort is stable, so "last" is input order). Later slices move
    /// down to close the gaps.
    fn sort_dedup_slices(&mut self) {
        let mut pairs: Vec<(VertexId, Weight)> = Vec::new();
        let mut lo = 0;
        for v in 0..CHUNK_VERTICES {
            // `offsets[v]` already holds the compacted start of `v`;
            // `lo..hi` is still its slice as scattered.
            let (start, hi) = (self.offsets[v], self.offsets[v + 1]);
            pairs.clear();
            pairs.extend(
                self.targets[lo..hi]
                    .iter()
                    .copied()
                    .zip(self.weights[lo..hi].iter().copied()),
            );
            pairs.sort_by_key(|&(t, _)| t);
            pairs.dedup_by(|later, kept| {
                let parallel = later.0 == kept.0;
                if parallel {
                    kept.1 = later.1;
                }
                parallel
            });
            for (i, &(t, w)) in pairs.iter().enumerate() {
                self.targets[start + i] = t;
                self.weights[start + i] = w;
            }
            self.offsets[v + 1] = start + pairs.len();
            lo = hi;
        }
        let len = self.offsets[CHUNK_VERTICES];
        self.targets.truncate(len);
        self.weights.truncate(len);
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets)
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.weights.len() * std::mem::size_of::<Weight>()
    }
}

/// One-directional compressed adjacency: per-vertex contiguous, sorted
/// neighbor slices, stored in copy-on-write chunks of
/// `CHUNK_VERTICES` vertices (see the module docs).
///
/// Neighbors of each vertex are kept sorted by id, enabling `O(log d)`
/// membership queries ([`Adjacency::has_edge`]) and linear-time sorted set
/// intersection, which Triangle Counting relies on.
///
/// Per-vertex accessors take an id below [`Adjacency::num_vertices`].
/// A larger id panics, except in release builds when it falls inside the
/// last chunk's unused tail, where it reads as an isolated vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    /// Chunk `c` covers vertex ids `c * CHUNK_VERTICES ..`.
    chunks: Vec<Arc<Chunk>>,
    num_vertices: usize,
    num_edges: usize,
}

impl Adjacency {
    /// Builds an adjacency index from `(vertex, neighbor, weight)` triples.
    ///
    /// `edges` does not need to be sorted. Parallel edges collapse to one
    /// that carries the weight of the last of them in `edges` order. `n`
    /// is the number of vertices and must exceed every id appearing in
    /// `edges`.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= n`; constructing an index
    /// that silently drops edges would corrupt downstream dependency
    /// tracking, so this is a programming error.
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        let mut fill = vec![0usize; n];
        for e in edges {
            assert!(
                (e.src as usize) < n,
                "edge source {} out of bounds (n = {})",
                e.src,
                n
            );
            assert!(
                (e.dst as usize) < n,
                "edge target {} out of bounds (n = {})",
                e.dst,
                n
            );
            fill[e.src as usize] += 1;
        }
        let mut chunks: Vec<Chunk> = fill
            .chunks(CHUNK_VERTICES)
            .map(|degrees| {
                let mut chunk = Chunk::empty();
                let mut acc = 0usize;
                for (i, d) in degrees.iter().enumerate() {
                    acc += d;
                    chunk.offsets[i + 1] = acc;
                }
                chunk.offsets[degrees.len() + 1..].fill(acc);
                chunk.targets = vec![0; acc];
                chunk.weights = vec![0.0; acc];
                chunk
            })
            .collect();
        fill.fill(0);
        for e in edges {
            let v = e.src as usize;
            let chunk = &mut chunks[v >> CHUNK_SHIFT];
            let slot = chunk.offsets[v & CHUNK_MASK] + fill[v];
            chunk.targets[slot] = e.dst;
            chunk.weights[slot] = e.weight;
            fill[v] += 1;
        }
        for chunk in &mut chunks {
            chunk.sort_dedup_slices();
        }
        Self {
            num_edges: chunks.iter().map(|c| c.targets.len()).sum(),
            chunks: chunks.into_iter().map(Arc::new).collect(),
            num_vertices: n,
        }
    }

    /// Creates an empty adjacency over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_edges(n, &[])
    }

    /// The chunk holding `v` and the bounds of `v`'s slice within it.
    #[inline]
    fn locate(&self, v: VertexId) -> (&Chunk, usize, usize) {
        let v = v as usize;
        // Release builds catch ids past the last chunk through the
        // index below; ids in the last chunk's unused tail read as
        // isolated vertices there.
        debug_assert!(
            v < self.num_vertices,
            "vertex {v} out of bounds (n = {})",
            self.num_vertices
        );
        let chunk = &*self.chunks[v >> CHUNK_SHIFT];
        let i = v & CHUNK_MASK;
        (chunk, chunk.offsets[i], chunk.offsets[i + 1])
    }

    /// Number of vertices indexed.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Total number of directed edges stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (_, lo, hi) = self.locate(v);
        hi - lo
    }

    /// Sorted neighbor ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let (chunk, lo, hi) = self.locate(v);
        &chunk.targets[lo..hi]
    }

    /// Weights parallel to [`Adjacency::neighbors`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[Weight] {
        let (chunk, lo, hi) = self.locate(v);
        &chunk.weights[lo..hi]
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (chunk, lo, hi) = self.locate(v);
        chunk.targets[lo..hi]
            .iter()
            .copied()
            .zip(chunk.weights[lo..hi].iter().copied())
    }

    /// Returns `true` if the directed edge `v → t` exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use graphbolt_graph::{Adjacency, Edge};
    /// let adj = Adjacency::from_edges(3, &[Edge::unweighted(0, 2)]);
    /// assert!(adj.has_edge(0, 2));
    /// assert!(!adj.has_edge(2, 0));
    /// ```
    #[inline]
    pub fn has_edge(&self, v: VertexId, t: VertexId) -> bool {
        self.neighbors(v).binary_search(&t).is_ok()
    }

    /// Returns the weight of edge `v → t`, if present.
    pub fn edge_weight(&self, v: VertexId, t: VertexId) -> Option<Weight> {
        self.neighbors(v)
            .binary_search(&t)
            .ok()
            .map(|i| self.weights(v)[i])
    }

    /// Sum of edge weights incident to `v` in this direction; used by
    /// destination-normalized aggregations such as CoEM.
    pub fn weight_sum(&self, v: VertexId) -> Weight {
        self.weights(v).iter().sum()
    }

    /// Applies edge insertions and removals, producing a new index over
    /// `new_n >= self.num_vertices()` vertices. `updates` is reordered in
    /// place; it may list a removal and an insertion of the same edge (a
    /// reweight), which apply in that order. Removing an absent edge is a
    /// no-op.
    ///
    /// Only the chunks holding an updated vertex are rebuilt; within
    /// them, untouched vertex runs are copied in bulk. Every other chunk
    /// is shared with `self`.
    pub(crate) fn apply_updates(&self, new_n: usize, updates: &mut [EdgeUpdate]) -> Self {
        assert!(
            new_n >= self.num_vertices,
            "vertex space cannot shrink ({} -> {new_n})",
            self.num_vertices
        );
        updates.sort_unstable_by_key(|u| (u.vertex, u.target, u.weight.is_some()));
        if let Some(last) = updates.last() {
            assert!(
                (last.vertex as usize) < new_n,
                "updated vertex {} out of bounds (n = {new_n})",
                last.vertex
            );
        }
        let empty = Chunk::empty();
        let mut num_edges = self.num_edges;
        let mut rest = &updates[..];
        let chunks = (0..new_n.div_ceil(CHUNK_VERTICES))
            .map(|c| {
                let base = c * CHUNK_VERTICES;
                let run = rest.partition_point(|u| (u.vertex as usize) < base + CHUNK_VERTICES);
                let (mine, later) = rest.split_at(run);
                rest = later;
                match self.chunks.get(c) {
                    Some(old) if mine.is_empty() => Arc::clone(old),
                    old => {
                        let old = old.map_or(&empty, |o| &**o);
                        let next = old.rebuilt(base, mine);
                        num_edges = num_edges - old.targets.len() + next.targets.len();
                        Arc::new(next)
                    }
                }
            })
            .collect();
        Self {
            chunks,
            num_vertices: new_n,
            num_edges,
        }
    }

    /// Returns all edges as `(v, target, weight)` triples in index order.
    pub fn to_edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.num_edges());
        for v in 0..self.num_vertices() as VertexId {
            for (t, w) in self.edges(v) {
                out.push(Edge::new(v, t, w));
            }
        }
        out
    }

    /// Estimated heap footprint in bytes: every chunk's offsets, targets
    /// and weights, plus the chunk pointer vector. A chunk shared with
    /// another index counts in full in each.
    pub fn memory_bytes(&self) -> usize {
        self.chunks.len() * std::mem::size_of::<Arc<Chunk>>()
            + self.chunks.iter().map(|c| c.memory_bytes()).sum::<usize>()
    }

    /// Whether chunk `c` is the same allocation in `self` and `other`.
    #[cfg(test)]
    pub(crate) fn shares_chunk(&self, other: &Adjacency, c: usize) -> bool {
        Arc::ptr_eq(&self.chunks[c], &other.chunks[c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Adjacency {
        Adjacency::from_edges(
            4,
            &[
                Edge::new(0, 2, 1.0),
                Edge::new(0, 1, 2.0),
                Edge::new(2, 3, 3.0),
                Edge::new(3, 0, 4.0),
            ],
        )
    }

    #[test]
    fn from_edges_builds_sorted_slices() {
        let adj = sample();
        assert_eq!(adj.num_vertices(), 4);
        assert_eq!(adj.num_edges(), 4);
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert_eq!(adj.weights(0), &[2.0, 1.0]);
        assert_eq!(adj.degree(1), 0);
        assert_eq!(adj.neighbors(3), &[0]);
    }

    #[test]
    fn has_edge_and_weight_lookup() {
        let adj = sample();
        assert!(adj.has_edge(0, 1));
        assert!(!adj.has_edge(1, 0));
        assert_eq!(adj.edge_weight(2, 3), Some(3.0));
        assert_eq!(adj.edge_weight(3, 2), None);
    }

    #[test]
    fn weight_sum_accumulates() {
        let adj = sample();
        assert_eq!(adj.weight_sum(0), 3.0);
        assert_eq!(adj.weight_sum(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_out_of_range() {
        Adjacency::from_edges(2, &[Edge::unweighted(0, 5)]);
    }

    #[test]
    fn slices_span_chunk_boundaries() {
        let n = 2 * CHUNK_VERTICES + 3;
        let last = (n - 1) as VertexId;
        let edges = [
            Edge::new(CHUNK_VERTICES as VertexId - 1, 0, 1.0),
            Edge::new(CHUNK_VERTICES as VertexId, last, 2.0),
            Edge::new(last, 5, 3.0),
            Edge::new(last, 1, 4.0),
        ];
        let adj = Adjacency::from_edges(n, &edges);
        assert_eq!(adj.num_vertices(), n);
        assert_eq!(adj.neighbors(CHUNK_VERTICES as VertexId - 1), &[0]);
        assert_eq!(adj.neighbors(CHUNK_VERTICES as VertexId), &[last]);
        assert_eq!(adj.neighbors(last), &[1, 5]);
        assert_eq!(adj.weights(last), &[4.0, 3.0]);
        assert_eq!(adj.to_edges().len(), 4);
    }

    #[test]
    fn to_edges_round_trips() {
        let adj = sample();
        let edges = adj.to_edges();
        let rebuilt = Adjacency::from_edges(4, &edges);
        assert_eq!(adj, rebuilt);
    }

    #[test]
    fn empty_adjacency_has_no_edges() {
        let adj = Adjacency::empty(3);
        assert_eq!(adj.num_vertices(), 3);
        assert_eq!(adj.num_edges(), 0);
        assert_eq!(adj.degree(2), 0);
    }
}
