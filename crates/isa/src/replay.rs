//! Semantic replay log: the trace-once / retime-many substrate.
//!
//! Every public [`crate::Machine`] operation can append one compact
//! [`ReplayOp`] carrying exactly the semantic arguments its *timing* depends
//! on (addresses, vector lengths, strides, index vectors, scalar-op counts —
//! never data values, which the timing model is independent of by
//! construction). Re-executing the ops through the very same private timing
//! functions the live machine uses — against a fresh [`lva_sim::MemSystem`]
//! at any design point — reproduces cycles, stall attribution, VPU
//! statistics, and cache counters **bit-identically** to a full simulation
//! of the same stream, while skipping all functional work (register-file
//! traffic, arena reads/writes, bounds checks, kernel host loops).
//!
//! Two replay modes exist:
//!
//! * **Live replay** — the recorded ops drive a real memory hierarchy built
//!   for the target config. Valid for *any* design point whose functional
//!   stream is the recorded one (certified by `lva-depgraph`), including
//!   different line sizes, cache geometries and prefetchers, because line
//!   addresses are recomputed from the semantic arguments at replay time.
//! * **Tape refit** — a [`ProbeTape`] recorded during a capture or live
//!   replay stores the serving [`MemLevel`] of every cache probe (2 bits of
//!   information, stored as one byte). Replaying against the tape skips the
//!   cache arrays entirely: each probe's latency is
//!   [`lva_sim::MemSystem::served_latency`]`(level)` — a pure function of
//!   the per-level latency constants and the [`lva_sim::IdealSpec`] — and
//!   cache statistics come from per-segment snapshots stored in the tape.
//!   Valid only when the target's *state geometry*
//!   ([`lva_sim::MemSystemConfig::state_fingerprint`]) equals the tape's;
//!   latency constants, idealization knobs, lane counts and core CPIs may
//!   all differ.
//!
//! **Layout.** A recording is resident for as long as its stream is being
//! re-timed, so its footprint bounds how many streams a sweep can hold.
//! Each [`ReplayOp`] is 8 bytes: a one-byte tag plus up to seven bytes of
//! inline operands, enough for every frequent op (vector loads, stores and
//! arithmetic, scalar reads, scalar charges). The rare ops whose operands
//! do not fit — strided accesses, indexed accesses with their lane
//! indices, scalar streams longer than `u16::MAX` words — keep an offset
//! into the trace's `u32` side pool ([`ReplayTrace::pool`]) instead. The
//! pool layout stays inside this module: those ops are recorded through
//! the `ReplayTrace::push_*` methods and decoded through its accessors,
//! which return exactly the arguments of the original call. Fixed-size ops keep
//! every trace position a plain index, so cursors and segment boundaries
//! need no decoding.

use crate::stats::{KernelPhase, PhaseTimer, StallBreakdown, VpuStats};
use lva_sim::{MemSystemStats, PrefetchTarget};

/// Vector arithmetic micro-op, the consolidated form of the machine's
/// per-instruction arithmetic API. One enum value plus (vd, a, b, vl)
/// reconstructs the recorded event, the issue-stage source list, the
/// occupancy/latency cost and the FLOP count of the original call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VArithOp {
    /// `vbroadcast` — splat a scalar (functionally fills `vl.max(1)` lanes).
    Broadcast,
    /// `vmv` — register move.
    Mv,
    /// `vfmacc.vf` — `vd += a * vs`.
    MaccVf,
    /// `vfmacc.vv` — `vd += va * vb`.
    MaccVv,
    /// `vfnmsac.vv` — `vd -= va * vb`.
    NmsacVv,
    /// `vfmul.vf`.
    MulVf,
    /// `vfmul.vv`.
    MulVv,
    /// `vfadd.vf`.
    AddVf,
    /// `vfadd.vv`.
    AddVv,
    /// `vfsub.vv`.
    SubVv,
    /// `vfmax.vf`.
    MaxVf,
    /// `vfmax.vv`.
    MaxVv,
    /// `vfdiv.vv` — unpipelined-ish, 8× chime.
    DivVv,
    /// `vfsqrt` — unpipelined-ish, 8× chime.
    Sqrt,
}

/// Operand shape of a [`VArithOp`]: which registers appear as recorded-event
/// sources and as issue-stage dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithShape {
    /// No register sources (broadcast).
    Nullary,
    /// One source `a`.
    Unary,
    /// One source `a` plus the destination as accumulator (`.vf` FMA).
    UnaryAcc,
    /// Two sources `a`, `b`.
    Binary,
    /// Two sources plus the destination as accumulator (`.vv` FMA).
    BinaryAcc,
}

impl VArithOp {
    /// The instruction mnemonic used in recorded [`crate::record::VecEvent`]s.
    pub fn name(self) -> &'static str {
        match self {
            VArithOp::Broadcast => "vbroadcast",
            VArithOp::Mv => "vmv",
            VArithOp::MaccVf => "vfmacc.vf",
            VArithOp::MaccVv => "vfmacc.vv",
            VArithOp::NmsacVv => "vfnmsac.vv",
            VArithOp::MulVf => "vfmul.vf",
            VArithOp::MulVv => "vfmul.vv",
            VArithOp::AddVf => "vfadd.vf",
            VArithOp::AddVv => "vfadd.vv",
            VArithOp::SubVv => "vfsub.vv",
            VArithOp::MaxVf => "vfmax.vf",
            VArithOp::MaxVv => "vfmax.vv",
            VArithOp::DivVv => "vfdiv.vv",
            VArithOp::Sqrt => "vfsqrt",
        }
    }

    /// Operand shape (see [`ArithShape`]).
    pub fn shape(self) -> ArithShape {
        match self {
            VArithOp::Broadcast => ArithShape::Nullary,
            VArithOp::Mv | VArithOp::MulVf | VArithOp::AddVf | VArithOp::MaxVf | VArithOp::Sqrt => {
                ArithShape::Unary
            }
            VArithOp::MaccVf => ArithShape::UnaryAcc,
            VArithOp::MulVv
            | VArithOp::AddVv
            | VArithOp::SubVv
            | VArithOp::MaxVv
            | VArithOp::DivVv => ArithShape::Binary,
            VArithOp::MaccVv | VArithOp::NmsacVv => ArithShape::BinaryAcc,
        }
    }

    /// FLOPs charged per active lane.
    pub fn flops_per_elem(self) -> u64 {
        match self {
            VArithOp::Broadcast | VArithOp::Mv => 0,
            VArithOp::MaccVf | VArithOp::MaccVv | VArithOp::NmsacVv => 2,
            _ => 1,
        }
    }

    /// Whether the op takes the unpipelined 8× chime (div / sqrt).
    pub fn is_slow(self) -> bool {
        matches!(self, VArithOp::DivVv | VArithOp::Sqrt)
    }
}

/// Reduction micro-op (front end waits for the scalar result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `vfredsum`.
    Sum,
    /// `vfredmax`.
    Max,
}

impl ReduceOp {
    /// The instruction mnemonic used in recorded events.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "vfredsum",
            ReduceOp::Max => "vfredmax",
        }
    }
}

/// Indexed-access micro-op family (gather/scatter, element or group-of-4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexedOp {
    /// `vgather` — per-element indexed load.
    Gather,
    /// `vscatter` — per-element indexed store.
    Scatter,
    /// `vgather4` — structured group-of-4 load (SVE tuples + permutes).
    Gather4,
    /// `vscatter4` — structured group-of-4 store.
    Scatter4,
}

/// One recorded semantic operation: 8 bytes, a one-byte tag plus seven
/// bytes of operands (asserted at compile time below). Addresses are stored
/// as `u32` (the simulated arena is far below 4 GiB — recording asserts it).
///
/// Operands that do not fit beside the tag live in [`ReplayTrace::pool`]
/// and the op keeps their offset `at`; decode them with the trace's
/// accessors ([`ReplayTrace::strided`], [`ReplayTrace::indexed`],
/// [`ReplayTrace::stream`]) and record them with its `push_*` methods.
/// Ops stay fixed-size, so a trace position is a plain op index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayOp {
    /// `setvl(rvl)`.
    Setvl { rvl: u32 },
    /// `whilelt(i, n)`, stored as the remaining count `n - i` (0 when
    /// `i >= n`) — the only quantity its grant and timing read.
    Whilelt { rem: u32 },
    /// `vle(vd, addr, vl)`.
    VLoad { vd: u8, vl: u16, addr: u32 },
    /// `vse(vs, addr, vl)`.
    VStore { vs: u8, vl: u16, addr: u32 },
    /// `vlse(vd, addr, stride, vl)`; `[addr, stride]` at pool offset `at`.
    VLoadStrided { vd: u8, vl: u16, at: u32 },
    /// `vsse(vs, addr, stride, vl)`; `[addr, stride]` at pool offset `at`.
    VStoreStrided { vs: u8, vl: u16, at: u32 },
    /// `vgather`/`vscatter`/`vgather4`/`vscatter4`; `[base, vl, idx..]` at
    /// pool offset `at`, the lane indices verbatim (including `u32::MAX`
    /// inactive-lane sentinels, in lane order).
    VIndexed { op: IndexedOp, reg: u8, at: u32 },
    /// Any vector arithmetic op (see [`VArithOp`]).
    VArith { op: VArithOp, vd: u8, a: u8, b: u8, vl: u16 },
    /// `vfredsum`/`vfredmax`.
    Reduce { op: ReduceOp, vs: u8, vl: u16 },
    /// `prefetch(addr, target)`.
    Prefetch { addr: u32, target: PrefetchTarget },
    /// One `charge_scalar_ops(n)` call (one fractional-cycle addition).
    ScalarOps { n: u32 },
    /// One `charge_scalar_flops(n)` call.
    ScalarFlops { n: u32 },
    /// `scalar_read(addr)`.
    ScalarRead { addr: u32 },
    /// `scalar_write(addr, _)`.
    ScalarWrite { addr: u32 },
    /// `scalar_stream(addr, words, kind)`. A stream of at most `u16::MAX`
    /// words is inline (`arg` is the address); a longer one stores
    /// `words: 0` and `[addr, words]` at pool offset `arg`.
    ScalarStream { write: bool, words: u16, arg: u32 },
    /// `phase(p, ..)` opened.
    PhaseBegin { phase: KernelPhase },
    /// `phase(p, ..)` closed.
    PhaseEnd { phase: KernelPhase },
    /// A network layer opened (`desc` indexes [`ReplayTrace::descs`]).
    LayerBegin { index: u16, desc: u32 },
    /// The innermost open layer closed.
    LayerEnd,
    /// `note_spill()`.
    Spill,
    /// `reset_timing()` — segment boundary (setup/measure, frame/frame).
    ResetTiming,
}

const _: () = assert!(std::mem::size_of::<ReplayOp>() == 8);

/// A captured semantic trace: the op stream plus the side pools ops
/// reference. One trace plus the capture-time functional run's static
/// metadata is sufficient to re-time the run at any certified design point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayTrace {
    /// The semantic op stream, in program order.
    pub ops: Vec<ReplayOp>,
    /// Side pool of the operands that do not fit in an 8-byte op: strided
    /// `[addr, stride]`, indexed `[base, vl, idx..]` and long-stream
    /// `[addr, words]` records, each addressed by its op's offset.
    pub pool: Vec<u32>,
    /// Layer description strings referenced by [`ReplayOp::LayerBegin`].
    pub descs: Vec<String>,
}

impl ReplayTrace {
    /// Heap footprint in bytes (capacity-based), for memory accounting in
    /// trace stores. Exact for a finished capture, whose vectors are
    /// shrunk to their lengths.
    pub fn approx_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<ReplayOp>()
            + self.pool.capacity() * 4
            + self.descs.iter().map(|d| d.capacity() + 24).sum::<usize>()
    }

    /// Drop spare capacity (a finished recording never grows again).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.pool.shrink_to_fit();
        self.descs.shrink_to_fit();
    }

    /// Append `words` to the pool and return their offset. Panics if the
    /// pool would exceed `u32` addressing (16 GiB of operands — unreachable).
    fn push_pool(&mut self, words: &[u32]) -> u32 {
        let at = u32::try_from(self.pool.len()).expect("replay pool exceeds u32 range");
        self.pool.extend_from_slice(words);
        at
    }

    /// Record a strided load (`store == false`) or store of register `reg`.
    pub(crate) fn push_strided(&mut self, store: bool, reg: u8, vl: u16, addr: u32, stride: u32) {
        let at = self.push_pool(&[addr, stride]);
        self.ops.push(if store {
            ReplayOp::VStoreStrided { vs: reg, vl, at }
        } else {
            ReplayOp::VLoadStrided { vd: reg, vl, at }
        });
    }

    /// Record an indexed access, copying its lane indices into the pool.
    pub(crate) fn push_indexed(&mut self, op: IndexedOp, reg: u8, base: u32, idx: &[u32]) {
        let at = self.push_pool(&[base, r32(idx.len() as u64, "indexed vl")]);
        self.pool.extend_from_slice(idx);
        self.ops.push(ReplayOp::VIndexed { op, reg, at });
    }

    /// Record a `words`-long (nonzero) scalar stream at `addr`.
    pub(crate) fn push_stream(&mut self, write: bool, addr: u32, words: u32) {
        let op = match u16::try_from(words) {
            Ok(words) => ReplayOp::ScalarStream { write, words, arg: addr },
            Err(_) => {
                ReplayOp::ScalarStream { write, words: 0, arg: self.push_pool(&[addr, words]) }
            }
        };
        self.ops.push(op);
    }

    /// Record a layer opening, interning its description string. Panics if
    /// `index` exceeds `u16::MAX` rather than truncating it.
    pub(crate) fn push_layer_begin(&mut self, index: usize, desc: &str) {
        let index = u16::try_from(index)
            .unwrap_or_else(|_| panic!("replay log: layer index {index} exceeds u16"));
        self.descs.push(desc.to_string());
        self.ops.push(ReplayOp::LayerBegin { index, desc: (self.descs.len() - 1) as u32 });
    }

    /// `(addr, stride)` of a strided op whose pool offset is `at`.
    #[inline]
    pub fn strided(&self, at: u32) -> (u64, u64) {
        let at = at as usize;
        (self.pool[at] as u64, self.pool[at + 1] as u64)
    }

    /// `(base, lane indices)` of an indexed op whose pool offset is `at`.
    #[inline]
    pub fn indexed(&self, at: u32) -> (u64, &[u32]) {
        let at = at as usize;
        let len = self.pool[at + 1] as usize;
        (self.pool[at] as u64, &self.pool[at + 2..at + 2 + len])
    }

    /// `(addr, words)` of a [`ReplayOp::ScalarStream`] with operands
    /// `words` and `arg`.
    #[inline]
    pub fn stream(&self, words: u16, arg: u32) -> (u64, usize) {
        if words != 0 {
            return (arg as u64, words as usize);
        }
        let at = arg as usize;
        (self.pool[at] as u64, self.pool[at + 1] as usize)
    }
}

/// Stats snapshot and probe-cursor position at the end of one
/// `reset_timing()`-delimited segment of a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeSegment {
    /// Exclusive end of this segment in [`ProbeTape::levels`].
    pub probe_end: usize,
    /// `MemSystem::stats()` at the segment's end, exactly as the full
    /// simulator reported them (cache statistics are design-point-invariant
    /// for a fixed state geometry — idealization and latency knobs never
    /// touch them).
    pub stats: MemSystemStats,
}

/// The serving level of every cache probe of a run, in probe order, plus
/// per-segment statistics snapshots. Recorded during a capture or a live
/// replay; valid for refits at any config whose
/// [`lva_sim::MemSystemConfig::state_fingerprint`] equals [`Self::geometry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTape {
    /// State-geometry fingerprint of the memory system that produced the
    /// tape (the refit validity condition).
    pub geometry: String,
    /// One [`lva_sim::MemLevel`] (as `u8`) per demand probe.
    pub levels: Vec<u8>,
    /// One entry per segment, in order; the last covers the run's tail.
    pub segments: Vec<TapeSegment>,
}

impl ProbeTape {
    /// Heap footprint in bytes (capacity-based; exact for a finished tape).
    pub fn approx_bytes(&self) -> usize {
        self.levels.capacity() + self.segments.capacity() * std::mem::size_of::<TapeSegment>()
    }

    /// Drop spare capacity (a finished tape never grows again).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.levels.shrink_to_fit();
        self.segments.shrink_to_fit();
    }
}

/// Per-layer dynamic results of one replayed segment; combined with the
/// capture run's static layer metadata (desc, flops, mnk, algo, shape) this
/// reconstructs a full `LayerReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReplay {
    /// Layer index as recorded by `lva-nn`.
    pub index: usize,
    /// Layer description (from the trace's desc pool).
    pub desc: String,
    /// Cycles spent in the layer.
    pub cycles: u64,
    /// Stall attribution delta over the layer.
    pub stalls: StallBreakdown,
    /// Vector instructions issued in the layer.
    pub d_instrs: u64,
    /// Active vector elements processed in the layer.
    pub d_elems: u64,
}

/// Complete timing results of one `reset_timing()`-delimited segment of a
/// replay — everything the full simulator would have reported for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReplay {
    /// Final cycle count of the segment.
    pub cycles: u64,
    /// Stall-cycle attribution.
    pub stalls: StallBreakdown,
    /// Kernel-phase timer.
    pub phases: PhaseTimer,
    /// VPU statistics.
    pub vpu: VpuStats,
    /// Memory-system statistics (live counters, or the tape snapshot when
    /// refitting).
    pub mem: MemSystemStats,
    /// Per-layer dynamic deltas, in traversal order.
    pub layers: Vec<LayerReplay>,
}

/// Tape recorder state (installed on a capturing or live-replaying machine).
#[derive(Debug, Default)]
pub(crate) struct TapeRecorder {
    pub(crate) tape: ProbeTape,
}

impl TapeRecorder {
    pub(crate) fn end_segment(&mut self, stats: MemSystemStats) {
        self.tape.segments.push(TapeSegment { probe_end: self.tape.levels.len(), stats });
    }
}

/// Tape playback cursor (installed on a refitting machine).
#[derive(Debug)]
pub(crate) struct TapePlayer {
    pub(crate) tape: std::sync::Arc<ProbeTape>,
    pub(crate) cursor: usize,
    pub(crate) seg: usize,
}

impl TapePlayer {
    /// Next probe's serving level. Running off the tape's end means the
    /// replayed op stream diverged from the capture — a bug, not a
    /// recoverable condition.
    #[inline]
    pub(crate) fn next_level(&mut self) -> lva_sim::MemLevel {
        let lvl = self.tape.levels.get(self.cursor).copied().unwrap_or_else(|| {
            panic!("probe tape exhausted at probe {} — trace/tape mismatch", self.cursor)
        });
        self.cursor += 1;
        lva_sim::MemLevel::from_u8(lvl)
    }

    /// Advance to the next segment at a `ResetTiming` boundary, asserting
    /// probe-count alignment with the capture.
    pub(crate) fn next_segment(&mut self) {
        let seg = &self.tape.segments[self.seg];
        assert_eq!(
            self.cursor, seg.probe_end,
            "probe tape segment {} ended at probe {}, replay consumed {}",
            self.seg, seg.probe_end, self.cursor
        );
        self.seg += 1;
    }

    /// Stats snapshot for the segment currently being replayed.
    pub(crate) fn segment_stats(&self) -> MemSystemStats {
        self.tape.segments[self.seg].stats
    }
}

/// Convert a recorded `u64` quantity (address, stride, count) to the `u32`
/// the compact op encoding stores. The simulated arena and per-call scalar
/// batches are orders of magnitude below 4 Gi; a capture that violates this
/// fails loudly rather than truncating.
#[inline]
pub(crate) fn r32(v: u64, what: &'static str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("replay log: {what} {v} exceeds u32"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_backed_ops_decode_to_their_recorded_operands() {
        let mut t = ReplayTrace::default();
        t.push_strided(true, 3, 12, 4096, 68);
        t.push_indexed(IndexedOp::Scatter, 5, 1024, &[7, u32::MAX, 0]);
        t.push_stream(false, 640, u16::MAX as u32);
        t.push_stream(true, 8, u16::MAX as u32 + 1);
        assert_eq!(t.ops[0], ReplayOp::VStoreStrided { vs: 3, vl: 12, at: 0 });
        assert_eq!(t.strided(0), (4096, 68));
        let ReplayOp::VIndexed { op: IndexedOp::Scatter, reg: 5, at } = t.ops[1] else {
            panic!("not an indexed op: {:?}", t.ops[1]);
        };
        assert_eq!(t.indexed(at), (1024, &[7, u32::MAX, 0][..]));
        // At the inline limit the stream stays inline; one word more spills.
        assert_eq!(t.ops[2], ReplayOp::ScalarStream { write: false, words: u16::MAX, arg: 640 });
        assert_eq!(t.stream(u16::MAX, 640), (640, u16::MAX as usize));
        let ReplayOp::ScalarStream { write: true, words: 0, arg } = t.ops[3] else {
            panic!("long stream not pool-backed: {:?}", t.ops[3]);
        };
        assert_eq!(t.stream(0, arg), (8, u16::MAX as usize + 1));
        assert_eq!(t.pool.len(), 2 + (2 + 3) + 2);
    }

    #[test]
    #[should_panic(expected = "layer index 65536 exceeds u16")]
    fn layer_index_past_u16_panics_by_name() {
        ReplayTrace::default().push_layer_begin(1 << 16, "L");
    }
}
