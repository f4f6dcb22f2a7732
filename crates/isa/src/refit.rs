//! Layer-grain memoization for tape refits: the "retime-many" fast path.
//!
//! A tape refit re-times a captured op stream one op at a time. Networks,
//! however, are full of *repeated timing patterns*: re-refitting the same
//! run (sweep grids revisit configs), and layers whose reduced op stream,
//! probe-tape slice and scoreboard entry state coincide. The timing
//! automaton is invariant under uniform time translation — every absolute
//! time (`now`, `unit_free`, the per-register scoreboard) enters only
//! through differences and `max` chains — so a layer's timing effect is a
//! pure function of
//!
//! 1. the **reduced signature** of its op region (only the fields the tape
//!    refit's timing actually reads — e.g. a `scalar_read`'s address is
//!    dropped because the tape supplies the serving level, while line
//!    *counts* of vector accesses are kept),
//! 2. the **probe-tape slice** it consumes,
//! 3. the **relative entry state** (scoreboard times relative to `now`, the
//!    fractional scalar accumulator, occupancy-split carry-overs, and — on
//!    hardware-prefetch configs — the recent-miss ring), and
//! 4. the machine configuration (the memo's owner scopes each
//!    [`LayerMemo`] to exactly one config + geometry).
//!
//! When two layer instances agree on all four, the second is *applied* as a
//! stored state delta instead of interpreted — bit-identical by
//! construction, and orders of magnitude faster. Mismatches simply miss the
//! memo and are interpreted (and stored); correctness never depends on the
//! hit rate.
//!
//! The one non-translation-invariant operation, the out-of-order window's
//! `saturating_sub` in `src_ready`, is guarded: effects are only stored and
//! applied when the entry `now` has passed the window, where the saturated
//! branch is provably never the issue-time maximum (see
//! `Machine::replay_with`).

use crate::machine::NUM_VREGS;
use crate::replay::{IndexedOp, ReplayOp, ReplayTrace};
use crate::stats::{KernelPhase, PhaseTimer, StallBreakdown, VpuStats};
use std::collections::HashMap;

/// 128-bit fold used for region signatures, tape slices and entry keys.
/// Non-cryptographic but well mixed; inputs are not adversarial (they come
/// from the simulator's own traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fold128 {
    a: u64,
    b: u64,
}

const MA: u64 = 0x9E37_79B9_7F4A_7C15;
const MB: u64 = 0xC2B2_AE3D_27D4_EB4F;

impl Fold128 {
    #[inline]
    pub fn new(seed: u64) -> Self {
        Fold128 { a: seed ^ MA, b: seed.wrapping_mul(MB) ^ MB }
    }

    #[inline]
    pub fn push(&mut self, v: u64) {
        let x = (self.a ^ v).wrapping_mul(MA);
        self.a = x ^ (x >> 32) ^ self.b.rotate_left(17);
        let y = (self.b ^ v).wrapping_mul(MB);
        self.b = y ^ (y >> 29);
    }

    /// Final avalanche.
    #[inline]
    pub fn finish(mut self) -> Self {
        self.push(0x5851_F42D_4C95_7F2D);
        self.push(0x1405_7B7E_F767_814F);
        self
    }
}

/// Hash a probe-tape slice (one byte per probe) in `u64` chunks.
#[inline]
pub fn fold_levels(levels: &[u8]) -> Fold128 {
    let mut f = Fold128::new(levels.len() as u64);
    let mut chunks = levels.chunks_exact(8);
    for c in &mut chunks {
        f.push(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
    }
    let mut tail = 0u64;
    for (i, &v) in chunks.remainder().iter().enumerate() {
        tail |= (v as u64) << (8 * i);
    }
    f.push(tail);
    f.finish()
}

/// The geometry facts a [`RefitPlan`] depends on: what the tape's memory
/// system looked like, as far as per-op probe counts and the recent-miss
/// ring are concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RefitGeometry {
    /// Cache line size in bytes (power of two).
    pub line_bytes: u64,
    /// Whether a hardware prefetcher is configured — if so, miss-adjacency
    /// tracking reads absolute line numbers, which must then stay in the
    /// reduced signatures (and the ring in the entry key).
    pub hw_prefetch: bool,
}

/// One `LayerBegin..LayerEnd` region of a trace, precomputed for a fixed
/// geometry: op index range, probe count, and reduced signature.
#[derive(Debug, Clone, Copy)]
pub struct LayerRegion {
    /// Op index of the `LayerBegin`.
    pub begin_op: usize,
    /// Op index of the matching `LayerEnd`.
    pub end_op: usize,
    /// Demand probes consumed by the ops strictly between the two.
    pub probes: u64,
    /// Reduced signature of those ops (see module docs).
    pub sig: Fold128,
    /// Whether `PhaseBegin`/`PhaseEnd` nest fully inside the region. A
    /// phase spanning a layer boundary would leave the replay executor's
    /// phase stack inconsistent if the region were skipped, so unbalanced
    /// regions are never memoized (they don't occur in practice — layers
    /// wrap whole kernel invocations).
    pub balanced: bool,
}

/// Per-(trace, geometry) precomputation for memoized refits: one
/// [`LayerRegion`] per recorded layer, in traversal order. Building it costs
/// one linear scan of the trace; it is reused by every refit of that trace
/// at that geometry.
#[derive(Debug, Clone)]
pub struct RefitPlan {
    pub geometry: RefitGeometry,
    pub regions: Vec<LayerRegion>,
}

/// Probe count of one op at the given geometry — must match exactly what the
/// machine's timing functions consume during a (non-reference-model) replay.
fn op_probes(op: &ReplayOp, trace: &ReplayTrace, lb: u64) -> u64 {
    match *op {
        ReplayOp::VLoad { vl, addr, .. } | ReplayOp::VStore { vl, addr, .. } => {
            let (addr, vl) = (addr as u64, vl as u64);
            (addr + 4 * vl - 1) / lb - addr / lb + 1
        }
        ReplayOp::VLoadStrided { vl, at, .. } | ReplayOp::VStoreStrided { vl, at, .. } => {
            let ((addr, stride), vl) = (trace.strided(at), vl as u64);
            if stride == 0 {
                1
            } else if stride < lb {
                // Sub-line stride touches every line between first and last.
                let last = addr + (vl - 1) * stride;
                last / lb - addr / lb + 1
            } else {
                vl
            }
        }
        ReplayOp::VIndexed { at, .. } => {
            // Consecutive-duplicate line dedup over active lanes (identical
            // for the element-wise and grouped cost paths).
            let (base, lanes) = trace.indexed(at);
            let mut last_line = u64::MAX;
            let mut probes = 0;
            for &ix in lanes {
                if ix == u32::MAX {
                    continue;
                }
                let line = (base + 4 * ix as u64) / lb;
                if line != last_line {
                    probes += 1;
                    last_line = line;
                }
            }
            probes
        }
        ReplayOp::ScalarRead { .. } | ReplayOp::ScalarWrite { .. } => 1,
        ReplayOp::ScalarStream { words, arg, .. } => {
            let (addr, words) = trace.stream(words, arg);
            (addr + 4 * words as u64 - 1) / lb - addr / lb + 1
        }
        // Under tape playback `tl_prefetch` skips the prefetch request, so
        // it consumes no probe.
        _ => 0,
    }
}

/// Fold one op's *timing-relevant* fields (for tape refits at the given
/// geometry) into `f`. Fields the refit provably never reads are dropped —
/// most importantly scalar access addresses (the tape supplies the level)
/// and vector access addresses on non-prefetching geometries (only the line
/// count matters). That address-blindness is what lets structurally
/// identical layers working on different buffers share one memo entry.
fn fold_op(f: &mut Fold128, op: &ReplayOp, trace: &ReplayTrace, g: RefitGeometry) {
    let lb = g.line_bytes;
    match *op {
        // Timing charge is one scalar-op unit; arguments only affect the
        // functional grant / predicate.
        ReplayOp::Setvl { .. } => f.push(1),
        ReplayOp::Whilelt { .. } => f.push(2),
        ReplayOp::VLoad { vd, vl, addr } => {
            f.push(3 | (vd as u64) << 8 | (vl as u64) << 16);
            f.push(op_probes(op, trace, lb));
            if g.hw_prefetch {
                // Miss adjacency reads absolute line numbers.
                f.push(addr as u64 / lb);
            }
        }
        ReplayOp::VStore { vs, vl, addr } => {
            f.push(4 | (vs as u64) << 8 | (vl as u64) << 16);
            f.push(op_probes(op, trace, lb));
            if g.hw_prefetch {
                f.push(addr as u64 / lb);
            }
        }
        // Strided and element-indexed costs never touch the miss ring; the
        // probe count and occupancy inputs are all that matters.
        ReplayOp::VLoadStrided { vd, vl, .. } => {
            f.push(5 | (vd as u64) << 8 | (vl as u64) << 16);
            f.push(op_probes(op, trace, lb));
        }
        ReplayOp::VStoreStrided { vs, vl, .. } => {
            f.push(6 | (vs as u64) << 8 | (vl as u64) << 16);
            f.push(op_probes(op, trace, lb));
        }
        ReplayOp::VIndexed { op: iop, reg, at } => {
            let grouped = matches!(iop, IndexedOp::Gather4 | IndexedOp::Scatter4);
            let (base, lanes) = trace.indexed(at);
            f.push(7 | (iop as u64) << 4 | (reg as u64) << 8 | (lanes.len() as u64) << 16);
            let mut active = 0u64;
            for &ix in lanes {
                if ix != u32::MAX {
                    active += 1;
                    if grouped && g.hw_prefetch {
                        // Grouped accesses feed the miss ring per line.
                        f.push((base + 4 * ix as u64) / lb);
                    }
                }
            }
            f.push(active);
            f.push(op_probes(op, trace, lb));
        }
        ReplayOp::VArith { op, vd, a, b, vl } => {
            f.push(
                8 | (op as u64) << 8
                    | (vd as u64) << 16
                    | (a as u64) << 24
                    | (b as u64) << 32
                    | (vl as u64) << 40,
            );
        }
        ReplayOp::Reduce { op, vs, vl } => {
            f.push(9 | (op as u64) << 8 | (vs as u64) << 16 | (vl as u64) << 24);
        }
        // Tape playback skips the prefetch request; the cost is a fixed
        // scalar charge decided by the config alone.
        ReplayOp::Prefetch { .. } => f.push(10),
        ReplayOp::ScalarOps { n } => f.push(11 | (n as u64) << 8),
        ReplayOp::ScalarFlops { n } => f.push(12 | (n as u64) << 8),
        // The tape supplies the serving level; the address is never read.
        ReplayOp::ScalarRead { .. } => f.push(13),
        ReplayOp::ScalarWrite { .. } => f.push(14),
        ReplayOp::ScalarStream { write, .. } => {
            f.push(15 | (write as u64) << 8);
            f.push(op_probes(op, trace, lb));
        }
        ReplayOp::PhaseBegin { phase } => f.push(16 | (phase as u64) << 8),
        ReplayOp::PhaseEnd { phase } => f.push(17 | (phase as u64) << 8),
        ReplayOp::Spill => f.push(18),
        // Layer and segment boundaries never appear inside a region.
        ReplayOp::LayerBegin { .. } | ReplayOp::LayerEnd | ReplayOp::ResetTiming => {
            unreachable!("boundary op inside a layer region")
        }
    }
}

impl RefitPlan {
    /// Scan `trace` once, computing every layer region's probe count and
    /// reduced signature for `geometry`.
    pub fn build(trace: &ReplayTrace, geometry: RefitGeometry) -> Self {
        struct Open {
            begin_op: usize,
            probes: u64,
            f: Fold128,
            phase_depth: i64,
            phase_dipped: bool,
        }
        let mut regions = Vec::new();
        let mut open: Option<Open> = None;
        for (i, op) in trace.ops.iter().enumerate() {
            match *op {
                ReplayOp::LayerBegin { index, desc } => {
                    assert!(open.is_none(), "nested layers in trace");
                    let mut f = Fold128::new(0x004C_4159_4552 ^ ((index as u64) << 8));
                    f.push(desc as u64);
                    open = Some(Open {
                        begin_op: i,
                        probes: 0,
                        f,
                        phase_depth: 0,
                        phase_dipped: false,
                    });
                }
                ReplayOp::LayerEnd => {
                    let o = open.take().expect("LayerEnd without LayerBegin in trace");
                    regions.push(LayerRegion {
                        begin_op: o.begin_op,
                        end_op: i,
                        probes: o.probes,
                        sig: o.f.finish(),
                        balanced: o.phase_depth == 0 && !o.phase_dipped,
                    });
                }
                ReplayOp::ResetTiming => {
                    assert!(open.is_none(), "segment boundary inside a layer");
                }
                _ => {
                    if let Some(o) = open.as_mut() {
                        match *op {
                            ReplayOp::PhaseBegin { .. } => o.phase_depth += 1,
                            ReplayOp::PhaseEnd { .. } => {
                                o.phase_depth -= 1;
                                if o.phase_depth < 0 {
                                    o.phase_dipped = true;
                                }
                            }
                            _ => {}
                        }
                        o.probes += op_probes(op, trace, geometry.line_bytes);
                        fold_op(&mut o.f, op, trace, geometry);
                    }
                }
            }
        }
        assert!(open.is_none(), "trace ends inside a layer");
        RefitPlan { geometry, regions }
    }
}

/// Stored timing effect of one layer region: everything interpretation
/// would have changed, as entry-relative deltas (scoreboard times) and
/// determined exit values (accumulator deltas, carry-overs). `i64` relative
/// encodings are exact: scoreboard distances are bounded by instruction
/// latencies, many orders of magnitude below the wrap point.
#[derive(Debug, Clone)]
pub struct LayerEffect {
    pub(crate) d_now: u64,
    pub(crate) uf_rel: i64,
    pub(crate) ready_rel: [i64; NUM_VREGS],
    pub(crate) frac_bits: u64,
    pub(crate) next_occ_mem: u64,
    pub(crate) next_occ_cont: u64,
    pub(crate) last_occ_mem: u64,
    pub(crate) last_occ_cont: u64,
    pub(crate) last_occ_total: u64,
    pub(crate) ring: Option<([u64; 8], usize)>,
    pub(crate) stalls_d: StallBreakdown,
    pub(crate) phases_d: PhaseTimer,
    pub(crate) stats_d: VpuStats,
}

/// Key of one memoized layer instance. The owning store is scoped to a
/// single (machine config, tape geometry), so neither appears here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Reduced op-region signature.
    pub sig: Fold128,
    /// Probe-tape slice fold.
    pub slice: Fold128,
    /// Relative entry-state fold.
    pub entry: Fold128,
}

/// The per-layer timing store: memoized [`LayerEffect`]s plus hit/miss
/// counters. One instance per (config, tape geometry) — the owner must
/// never share an instance across configs (the effects embed latency- and
/// CPI-dependent arithmetic).
#[derive(Debug, Default)]
pub struct LayerMemo {
    pub(crate) map: HashMap<MemoKey, LayerEffect>,
    /// Layers applied from the store.
    pub hits: u64,
    /// Layers interpreted (and stored).
    pub misses: u64,
}

impl LayerMemo {
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.map.len() * (std::mem::size_of::<MemoKey>() + std::mem::size_of::<LayerEffect>() + 16)
    }
}

/// Entry-state snapshot held while a missed layer region is being
/// interpreted; diffed into a [`LayerEffect`] at its `LayerEnd`.
#[derive(Debug)]
pub(crate) struct EntrySnapshot {
    pub(crate) key: MemoKey,
    pub(crate) now: u64,
    /// Probe-tape cursor at entry, to assert the plan's probe count against
    /// what the timing functions actually consumed.
    pub(crate) cursor: usize,
    pub(crate) probes: u64,
    pub(crate) stalls: StallBreakdown,
    pub(crate) phases: PhaseTimer,
    pub(crate) stats: VpuStats,
}

/// Diff `b - a` of two [`VpuStats`] snapshots (componentwise).
pub(crate) fn vpu_delta(a: &VpuStats, b: &VpuStats) -> VpuStats {
    VpuStats {
        vec_instrs: b.vec_instrs - a.vec_instrs,
        vec_mem_instrs: b.vec_mem_instrs - a.vec_mem_instrs,
        active_elems: b.active_elems - a.active_elems,
        vec_flops: b.vec_flops - a.vec_flops,
        scalar_flops: b.scalar_flops - a.scalar_flops,
        scalar_ops: b.scalar_ops - a.scalar_ops,
        sw_prefetches: b.sw_prefetches - a.sw_prefetches,
        spills: b.spills - a.spills,
    }
}

/// Add `d` into `s` (componentwise).
pub(crate) fn vpu_accum(s: &mut VpuStats, d: &VpuStats) {
    s.vec_instrs += d.vec_instrs;
    s.vec_mem_instrs += d.vec_mem_instrs;
    s.active_elems += d.active_elems;
    s.vec_flops += d.vec_flops;
    s.scalar_flops += d.scalar_flops;
    s.scalar_ops += d.scalar_ops;
    s.sw_prefetches += d.sw_prefetches;
    s.spills += d.spills;
}

/// Diff `b - a` of two phase timers.
pub(crate) fn phases_delta(a: &PhaseTimer, b: &PhaseTimer) -> PhaseTimer {
    let mut d = PhaseTimer::default();
    for p in KernelPhase::ALL {
        d.add(p, b.get(p) - a.get(p));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_order_sensitive_and_stable() {
        let mut a = Fold128::new(1);
        a.push(7);
        a.push(9);
        let mut b = Fold128::new(1);
        b.push(9);
        b.push(7);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fold128::new(1);
        c.push(7);
        c.push(9);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn level_fold_distinguishes_tail_bytes() {
        assert_ne!(fold_levels(&[0, 1, 2]), fold_levels(&[0, 1, 3]));
        assert_ne!(fold_levels(&[0; 8]), fold_levels(&[0; 9]));
        assert_eq!(fold_levels(&[2, 0, 1]), fold_levels(&[2, 0, 1]));
    }

    /// The signature of the single op `t.ops[0]` at geometry `g`.
    fn sig(t: &ReplayTrace, g: RefitGeometry) -> Fold128 {
        let mut f = Fold128::new(0);
        fold_op(&mut f, &t.ops[0], t, g);
        f.finish()
    }

    fn strided(addr: u32, stride: u32) -> ReplayTrace {
        let mut t = ReplayTrace::default();
        t.push_strided(false, 0, 8, addr, stride);
        t
    }

    #[test]
    fn vle_probe_count_matches_line_walk() {
        // 256-byte lines: a 16-element (64-byte) load crossing a boundary.
        let t = ReplayTrace::default();
        let op = ReplayOp::VLoad { vd: 0, vl: 16, addr: 240 };
        assert_eq!(op_probes(&op, &t, 256), 2);
        let aligned = ReplayOp::VLoad { vd: 0, vl: 16, addr: 256 };
        assert_eq!(op_probes(&aligned, &t, 256), 1);
    }

    #[test]
    fn strided_probe_count_cases() {
        let probes = |t: ReplayTrace| op_probes(&t.ops[0], &t, 64);
        // stride 0: one probe.
        assert_eq!(probes(strided(0, 0)), 1);
        // sub-line stride: every line between first and last.
        assert_eq!(probes(strided(0, 16)), 2);
        assert_eq!(probes(strided(48, 16)), 3);
        // line-or-larger stride: one probe per element.
        assert_eq!(probes(strided(0, 64)), 8);
    }

    #[test]
    fn long_stream_probe_count_reads_the_pool() {
        let mut t = ReplayTrace::default();
        t.push_stream(false, 32, 70_000);
        assert_eq!(t.ops[0], ReplayOp::ScalarStream { write: false, words: 0, arg: 0 });
        // 280,000 bytes from byte 32: lines 0 ..= 280,031 / 64.
        assert_eq!(op_probes(&t.ops[0], &t, 64), 280_031 / 64 + 1);
    }

    #[test]
    fn scalar_addresses_are_not_in_the_signature() {
        let g = RefitGeometry { line_bytes: 256, hw_prefetch: true };
        let mut a = ReplayTrace::default();
        a.ops.push(ReplayOp::ScalarRead { addr: 100 });
        let mut b = ReplayTrace::default();
        b.ops.push(ReplayOp::ScalarRead { addr: 2000 });
        assert_eq!(sig(&a, g), sig(&b, g));
        // Long (pool-backed) streams: same line count, different lines.
        let mut a = ReplayTrace::default();
        a.push_stream(true, 0, 1 << 17);
        let mut b = ReplayTrace::default();
        b.push_stream(true, 1 << 20, 1 << 17);
        assert_eq!(sig(&a, g), sig(&b, g));
        // Direction and line count do enter it.
        let mut c = ReplayTrace::default();
        c.push_stream(false, 0, 1 << 17);
        assert_ne!(sig(&a, g), sig(&c, g));
        let mut d = ReplayTrace::default();
        d.push_stream(true, 0, (1 << 17) + 64);
        assert_ne!(sig(&a, g), sig(&d, g));
    }

    #[test]
    fn strided_addresses_are_not_in_the_signature() {
        let g = RefitGeometry { line_bytes: 64, hw_prefetch: true };
        assert_eq!(sig(&strided(0, 16), g), sig(&strided(1 << 20, 16), g));
        // A stride that changes the probe count changes the signature.
        assert_ne!(sig(&strided(0, 16), g), sig(&strided(0, 64), g));
    }

    #[test]
    fn vector_lines_enter_signature_only_under_hw_prefetch() {
        let no_pf = RefitGeometry { line_bytes: 256, hw_prefetch: false };
        let pf = RefitGeometry { line_bytes: 256, hw_prefetch: true };
        let load = |addr| {
            let mut t = ReplayTrace::default();
            t.ops.push(ReplayOp::VLoad { vd: 1, vl: 16, addr });
            t
        };
        let (x, y) = (load(0), load(1 << 20));
        // Same line count, different lines: equal without a prefetcher,
        // distinct with one (the miss ring reads absolute lines).
        assert_eq!(sig(&x, no_pf), sig(&y, no_pf));
        assert_ne!(sig(&x, pf), sig(&y, pf));
        // Grouped gathers feed the miss ring per line from the pool's base.
        let gather4 = |base| {
            let mut t = ReplayTrace::default();
            t.push_indexed(IndexedOp::Gather4, 1, base, &[0, 1, 2, 3, u32::MAX, 64, 65, 66]);
            t
        };
        let (x, y) = (gather4(0), gather4(1 << 20));
        assert_eq!(sig(&x, no_pf), sig(&y, no_pf));
        assert_ne!(sig(&x, pf), sig(&y, pf));
        assert_eq!(op_probes(&x.ops[0], &x, 256), 2);
    }
}
