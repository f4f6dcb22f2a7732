//! The data-dependence DAG over a recorded [`VecEvent`] stream.
//!
//! Nodes are the *op* events (loads, stores, arithmetic, reductions);
//! grants and phase markers carry no dataflow and are skipped. Edges are
//! the three classic hazards, tracked over two spaces at once:
//!
//! * **vector registers** — a per-register last-writer plus
//!   readers-since-last-write set, exactly the state a scoreboard keeps;
//! * **memory byte ranges** — a sorted-range (segment) index per named
//!   allocation from the [`Memory::alloc_named`] registry (plus one
//!   fallback bucket for unregistered addresses), so overlap queries cost
//!   `O(log segments)` and the whole build stays `O(n log n)` on
//!   full-network streams.
//!
//! The edge set is the ground truth a trace-once/retime-many engine must
//! respect: any reordering that preserves all RAW/WAR/WAW edges replays to
//! the same architectural state. The critical-path lower bounds in
//! [`crate::bounds`] are longest paths through this DAG.
//!
//! [`Memory::alloc_named`]: lva_sim::Memory::alloc_named

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use lva_isa::{EventKind, VReg, VecEvent, NUM_VREGS};
use lva_sim::AllocRecord;

/// Hazard class of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// Read-after-write: true dataflow.
    Raw,
    /// Write-after-read: anti-dependence.
    War,
    /// Write-after-write: output dependence.
    Waw,
}

impl DepKind {
    pub fn name(self) -> &'static str {
        match self {
            DepKind::Raw => "RAW",
            DepKind::War => "WAR",
            DepKind::Waw => "WAW",
        }
    }
}

/// What carries the dependence: a vector register or a memory byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Via {
    Reg(VReg),
    Mem,
}

/// One dependence edge between two DAG nodes (indices into
/// [`DepGraph::node_events`]'s order, i.e. op-event order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DepEdge {
    pub from: usize,
    pub to: usize,
    pub dep: DepKind,
    pub via: Via,
}

/// The dependence DAG of one recorded stream. Node `i` is the `i`-th op
/// event; `node_events[i]` maps it back to its index in the full stream
/// (which still contains grants and phase markers).
#[derive(Debug)]
pub struct DepGraph {
    pub node_events: Vec<usize>,
    /// Sorted by `(to, from, dep, via)`, deduplicated.
    pub edges: Vec<DepEdge>,
}

impl DepGraph {
    /// Build the full RAW/WAR/WAW DAG for `events`, bucketing memory
    /// ranges by the allocations in `allocs`.
    pub fn build(events: &[VecEvent], allocs: &[AllocRecord]) -> DepGraph {
        Builder::new(allocs).run(events)
    }

    pub fn nodes(&self) -> usize {
        self.node_events.len()
    }

    /// Edges of one hazard class (for oracle tests and reports).
    pub fn edges_of(&self, dep: DepKind) -> Vec<DepEdge> {
        self.edges.iter().copied().filter(|e| e.dep == dep).collect()
    }

    /// Longest path through the DAG under caller-supplied weights:
    /// `edge_weight(e)` is the cost charged along edge `e` (attributed to
    /// its source node), `node_tail(n)` the cost the path's *final* node
    /// adds. Returns the length and the node sequence of one maximal path.
    /// Nodes are in program order, which is a topological order (every
    /// edge points forward), so one linear sweep suffices.
    pub fn longest_path(
        &self,
        edge_weight: impl Fn(&DepEdge) -> u64,
        node_tail: impl Fn(usize) -> u64,
    ) -> (u64, Vec<usize>) {
        let n = self.nodes();
        let mut dist = vec![0u64; n];
        let mut pred = vec![usize::MAX; n];
        // Edges are sorted by `to`, so a single pass relaxes in topo order.
        for e in &self.edges {
            debug_assert!(e.from < e.to, "dependence edges must point forward");
            let cand = dist[e.from] + edge_weight(e);
            if cand > dist[e.to] {
                dist[e.to] = cand;
                pred[e.to] = e.from;
            }
        }
        let mut best = 0u64;
        let mut end = usize::MAX;
        for (i, &d) in dist.iter().enumerate() {
            let total = d + node_tail(i);
            if total > best {
                best = total;
                end = i;
            }
        }
        let mut path = Vec::new();
        let mut cur = end;
        while cur != usize::MAX {
            path.push(cur);
            cur = pred[cur];
        }
        path.reverse();
        (best, path)
    }
}

/// Whether an event is a DAG node (does architectural work).
fn is_op(ev: &VecEvent) -> bool {
    matches!(ev.kind, EventKind::Load | EventKind::Store | EventKind::Arith | EventKind::Reduce)
}

// ---------------------------------------------------------------------
// Sorted-range index over one address-space bucket
// ---------------------------------------------------------------------

/// Per-byte-range dataflow state: the node that last wrote a segment and
/// the nodes that read it since. Segments are maximal runs with identical
/// state, keyed by start address in a `BTreeMap` (the sorted-range index).
#[derive(Debug, Clone)]
struct Seg {
    end: u64,
    writer: Option<usize>,
    readers: Vec<usize>,
}

#[derive(Debug, Default)]
struct SegStore {
    segs: BTreeMap<u64, Seg>,
}

impl SegStore {
    /// Split any segment spanning `at` so that `at` becomes a boundary.
    fn split_at(&mut self, at: u64) {
        if let Some((_, seg)) = self.segs.range_mut(..at).next_back() {
            if seg.end > at {
                let right = Seg { end: seg.end, writer: seg.writer, readers: seg.readers.clone() };
                seg.end = at;
                self.segs.insert(at, right);
            }
        }
    }

    /// Visit every segment overlapping `[lo, hi)`, in address order.
    fn overlapping(&self, lo: u64, hi: u64) -> Vec<(u64, Seg)> {
        let first = match self.segs.range(..=lo).next_back() {
            Some((&s, seg)) if seg.end > lo => s,
            _ => lo,
        };
        self.segs
            .range(first..hi)
            .filter(|(_, seg)| seg.end > lo)
            .map(|(&s, seg)| (s, seg.clone()))
            .collect()
    }

    /// Record a read of `[lo, hi)` by `node`; returns the writers seen
    /// (RAW sources). Gaps (never-touched bytes) become reader-only
    /// segments so a later write still sees the WAR hazard.
    fn read(&mut self, lo: u64, hi: u64, node: usize) -> Vec<usize> {
        self.split_at(lo);
        self.split_at(hi);
        let mut raw_from = Vec::new();
        let mut cursor = lo;
        let mut inserts: Vec<(u64, Seg)> = Vec::new();
        for (start, _) in self.overlapping(lo, hi) {
            let seg = self.segs.get_mut(&start).expect("segment vanished");
            if start > cursor {
                inserts.push((cursor, Seg { end: start, writer: None, readers: vec![node] }));
            }
            if let Some(w) = seg.writer {
                raw_from.push(w);
            }
            if seg.readers.last() != Some(&node) {
                seg.readers.push(node);
            }
            cursor = seg.end;
        }
        if cursor < hi {
            inserts.push((cursor, Seg { end: hi, writer: None, readers: vec![node] }));
        }
        for (s, seg) in inserts {
            match self.segs.entry(s) {
                Entry::Vacant(v) => {
                    v.insert(seg);
                }
                Entry::Occupied(_) => unreachable!("gap segment collides with existing"),
            }
        }
        raw_from.sort_unstable();
        raw_from.dedup();
        raw_from
    }

    /// Record a write of `[lo, hi)` by `node`; returns `(waw_from,
    /// war_from)` — the overwritten writers and the outstanding readers.
    /// The range collapses to one segment owned by `node`.
    fn write(&mut self, lo: u64, hi: u64, node: usize) -> (Vec<usize>, Vec<usize>) {
        self.split_at(lo);
        self.split_at(hi);
        let mut waw = Vec::new();
        let mut war = Vec::new();
        let covered: Vec<u64> = self.overlapping(lo, hi).into_iter().map(|(s, _)| s).collect();
        for s in covered {
            let seg = self.segs.remove(&s).expect("segment vanished");
            if let Some(w) = seg.writer {
                waw.push(w);
            }
            war.extend(seg.readers);
        }
        self.segs.insert(lo, Seg { end: hi, writer: Some(node), readers: Vec::new() });
        waw.sort_unstable();
        waw.dedup();
        war.sort_unstable();
        war.dedup();
        (waw, war)
    }
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Address-space bucketing over the allocation registry: each named
/// allocation gets its own [`SegStore`]; addresses outside every
/// registered buffer share a fallback bucket. Bucket lookup is a binary
/// search over the sorted allocation bases.
struct Builder {
    /// `(base, end_of_padded_extent)` per allocation, sorted by base.
    bounds: Vec<(u64, u64)>,
    stores: Vec<SegStore>,
    fallback: SegStore,
    last_def: [Option<usize>; NUM_VREGS],
    readers: [Vec<usize>; NUM_VREGS],
    edges: BTreeSet<DepEdge>,
}

impl Builder {
    fn new(allocs: &[AllocRecord]) -> Builder {
        let mut bounds: Vec<(u64, u64)> =
            allocs.iter().map(|a| (a.buf.base, a.buf.base + a.buf.bytes() as u64)).collect();
        bounds.sort_unstable();
        let stores = bounds.iter().map(|_| SegStore::default()).collect();
        Builder {
            bounds,
            stores,
            fallback: SegStore::default(),
            last_def: [None; NUM_VREGS],
            readers: std::array::from_fn(|_| Vec::new()),
            edges: BTreeSet::new(),
        }
    }

    /// The segment bucket owning `lo` (ranges never span allocations —
    /// the sanitizer's OOB pass guarantees accesses stay inside one
    /// buffer; anything else lands in the fallback bucket).
    fn bucket(&mut self, lo: u64) -> &mut SegStore {
        match self.bounds.partition_point(|&(base, _)| base <= lo).checked_sub(1) {
            Some(i) if self.bounds[i].1 > lo => &mut self.stores[i],
            _ => &mut self.fallback,
        }
    }

    fn edge(&mut self, from: usize, to: usize, dep: DepKind, via: Via) {
        if from != to {
            self.edges.insert(DepEdge { from, to, dep, via });
        }
    }

    fn run(mut self, events: &[VecEvent]) -> DepGraph {
        let mut node_events = Vec::new();
        for (ei, ev) in events.iter().enumerate() {
            if !is_op(ev) {
                continue;
            }
            let node = node_events.len();
            node_events.push(ei);

            // Register reads first: RAW from the live definition.
            for &r in ev.srcs.iter().flatten() {
                if let Some(def) = self.last_def[r] {
                    self.edge(def, node, DepKind::Raw, Via::Reg(r));
                }
                if self.readers[r].last() != Some(&node) {
                    self.readers[r].push(node);
                }
            }

            // Memory access (before the register def: a load reads memory,
            // then defines its destination).
            if ev.touches_memory() {
                let (lo, hi) = (ev.lo, ev.hi);
                if ev.writes_memory() {
                    let (waw, war) = self.bucket(lo).write(lo, hi, node);
                    for w in waw {
                        self.edge(w, node, DepKind::Waw, Via::Mem);
                    }
                    for r in war {
                        self.edge(r, node, DepKind::War, Via::Mem);
                    }
                } else {
                    let raw = self.bucket(lo).read(lo, hi, node);
                    for w in raw {
                        self.edge(w, node, DepKind::Raw, Via::Mem);
                    }
                }
            }

            // Register definition: WAW against the previous def, WAR
            // against every reader since (excluding this op's own read of
            // its destination, e.g. `vfmacc vd, va, vb` reading old vd —
            // that is the RAW edge above, not a self-hazard).
            if let Some(d) = ev.dst {
                if let Some(prev) = self.last_def[d] {
                    self.edge(prev, node, DepKind::Waw, Via::Reg(d));
                }
                for r in std::mem::take(&mut self.readers[d]) {
                    self.edge(r, node, DepKind::War, Via::Reg(d));
                }
                self.last_def[d] = Some(node);
            }
        }
        DepGraph { node_events, edges: self.edges.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_isa::VecEvent;

    #[test]
    fn segment_store_splits_and_merges() {
        let mut s = SegStore::default();
        let (waw, war) = s.write(0, 64, 0);
        assert!(waw.is_empty() && war.is_empty());
        // Read the middle: RAW from node 0.
        assert_eq!(s.read(16, 32, 1), vec![0]);
        // Overwrite the left half: WAW from 0, WAR from 1.
        let (waw, war) = s.write(0, 24, 2);
        assert_eq!(waw, vec![0]);
        assert_eq!(war, vec![1]);
        // The right half still belongs to node 0.
        assert_eq!(s.read(32, 64, 3), vec![0]);
    }

    #[test]
    fn read_of_untouched_bytes_still_registers_war() {
        let mut s = SegStore::default();
        assert!(s.read(0, 32, 0).is_empty());
        let (waw, war) = s.write(0, 32, 1);
        assert!(waw.is_empty());
        assert_eq!(war, vec![0]);
    }

    #[test]
    fn grants_and_phase_markers_are_not_nodes() {
        let events = vec![
            VecEvent::grant("setvl", 100, 16),
            VecEvent::load("vle", 1, 0x100, 0x140, 16),
            VecEvent::grant("setvl", 84, 16),
            VecEvent::store("vse", 1, 0x200, 0x240, 16),
        ];
        let g = DepGraph::build(&events, &[]);
        assert_eq!(g.nodes(), 2);
        assert_eq!(g.node_events, vec![1, 3]);
        assert_eq!(g.edges, vec![DepEdge { from: 0, to: 1, dep: DepKind::Raw, via: Via::Reg(1) }]);
    }
}
