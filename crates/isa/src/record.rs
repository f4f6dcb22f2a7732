//! Compact event IR for the kernel linters (`lva-check`, `lva-depgraph`).
//!
//! A [`VecEvent`] describes *what* one vector operation did
//! architecturally — registers read and written, the byte range touched in
//! memory, the vector length used — without any timing information. The
//! machine records no events itself: [`ReplayTrace::vec_events`] decodes
//! them from a capture ([`crate::Machine::start_capture`]), one event per
//! vector memory, arithmetic, reduction, grant or phase-marker op, and one
//! `vfmacc.vf` event per row of a GEMM row update. Scalar
//! work, prefetches, spills, layer markers and timing resets stay in the
//! trace only. Capturing is pure observation, so cycle counts are
//! bit-identical with it on or off (asserted by tests in `lva-check`).
//!
//! The sanitizer passes in `crates/check` fold over the event stream to
//! find uninitialized-register reads, out-of-bounds accesses, stale-copy
//! (write-after-read) hazards, and vector-length discipline violations.

use crate::replay::{
    indexed_range, ArithShape, IndexedOp, MaccRows, ReplayOp, ReplayTrace, VArithOp,
};
use crate::stats::KernelPhase;
use crate::VReg;

/// What class of architectural action an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A vector load (unit-stride, strided, or gather): defines `dst` from
    /// the byte range `[lo, hi)`.
    Load,
    /// A vector store (unit-stride, strided, or scatter): reads `srcs[0]`
    /// and writes the byte range `[lo, hi)`.
    Store,
    /// Register-to-register arithmetic (including broadcasts and moves):
    /// reads `srcs`, defines `dst`.
    Arith,
    /// A horizontal reduction: reads `srcs[0]`, result consumed by the
    /// scalar core (no vector destination).
    Reduce,
    /// A vector-length grant: `setvl` (RVV) or `whilelt` (SVE). `vl` is the
    /// granted length, `requested` the length asked for.
    Grant,
    /// Start of a [`KernelPhase`] region (the `op` field holds its name).
    PhaseBegin,
    /// End of the most recent [`KernelPhase`] region.
    PhaseEnd,
}

/// One recorded vector operation. Fields that do not apply to the event's
/// kind hold their neutral value (`None` registers, `lo == hi` for "no
/// memory touched", `requested == 0` for non-grants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecEvent {
    pub kind: EventKind,
    /// Mnemonic (`"vle"`, `"vfmacc.vf"`, `"setvl"`, …); for phase markers,
    /// the phase name.
    pub op: &'static str,
    /// Destination register, if the op defines one.
    pub dst: Option<VReg>,
    /// Source registers read by the op (a `vfmacc vd, va, vb` reads `va`,
    /// `vb` *and* the old `vd`, so `vd` appears here too). Loads, grants
    /// and phase markers read none.
    pub srcs: [Option<VReg>; 3],
    /// Elements processed (granted length for [`EventKind::Grant`]).
    pub vl: usize,
    /// Lanes that did architectural work. Equal to `vl` except for
    /// gathers/scatters, where sentinel-predicated (`u32::MAX`) lanes are
    /// excluded — the count the timing model's per-element slots charge.
    /// VL-chunking changes how `vl` splits across events, but the *sum* of
    /// `active` per op is an invariant the retime certifier checks.
    pub active: usize,
    /// Requested length of a grant (`setvl rvl` / `whilelt i, n` remainder).
    pub requested: usize,
    /// First byte address touched (inclusive). `lo == hi` means none.
    pub lo: u64,
    /// One past the last byte address touched (exclusive).
    pub hi: u64,
    /// The phase associated with a `PhaseBegin`/`PhaseEnd` marker.
    pub phase: Option<KernelPhase>,
}

impl VecEvent {
    fn blank(kind: EventKind, op: &'static str) -> Self {
        VecEvent {
            kind,
            op,
            dst: None,
            srcs: [None, None, None],
            vl: 0,
            active: 0,
            requested: 0,
            lo: 0,
            hi: 0,
            phase: None,
        }
    }

    /// A load defining `vd` from `[lo, hi)`.
    pub fn load(op: &'static str, vd: VReg, lo: u64, hi: u64, vl: usize) -> Self {
        VecEvent { dst: Some(vd), vl, active: vl, lo, hi, ..Self::blank(EventKind::Load, op) }
    }

    /// A store reading `vs` into `[lo, hi)`.
    pub fn store(op: &'static str, vs: VReg, lo: u64, hi: u64, vl: usize) -> Self {
        VecEvent {
            srcs: [Some(vs), None, None],
            vl,
            active: vl,
            lo,
            hi,
            ..Self::blank(EventKind::Store, op)
        }
    }

    /// Arithmetic defining `vd` from up to three sources.
    pub fn arith(op: &'static str, vd: VReg, srcs: [Option<VReg>; 3], vl: usize) -> Self {
        VecEvent { dst: Some(vd), srcs, vl, active: vl, ..Self::blank(EventKind::Arith, op) }
    }

    /// A reduction reading `vs`.
    pub fn reduce(op: &'static str, vs: VReg, vl: usize) -> Self {
        VecEvent {
            srcs: [Some(vs), None, None],
            vl,
            active: vl,
            ..Self::blank(EventKind::Reduce, op)
        }
    }

    /// A VL grant of `granted` lanes for a request of `requested`.
    pub fn grant(op: &'static str, requested: usize, granted: usize) -> Self {
        VecEvent { vl: granted, active: granted, requested, ..Self::blank(EventKind::Grant, op) }
    }

    /// Override the active-lane count (gathers/scatters with sentinel lanes).
    pub fn with_active(mut self, active: usize) -> Self {
        self.active = active;
        self
    }

    /// A phase begin/end marker.
    pub fn phase_marker(begin: bool, p: KernelPhase) -> Self {
        let kind = if begin { EventKind::PhaseBegin } else { EventKind::PhaseEnd };
        VecEvent { phase: Some(p), ..Self::blank(kind, p.name()) }
    }

    /// Whether this event touches memory.
    #[inline]
    pub fn touches_memory(&self) -> bool {
        self.hi > self.lo
    }

    /// Whether this event writes memory.
    #[inline]
    pub fn writes_memory(&self) -> bool {
        self.kind == EventKind::Store && self.touches_memory()
    }

    /// Feed this event's canonical encoding into a [`StreamHasher`]. Every
    /// architectural field participates (op, registers, lengths, byte
    /// range), no timing state does — two streams hash equal iff they are
    /// field-for-field identical.
    pub fn hash_into(&self, h: &mut StreamHasher) {
        h.write_u64(match self.kind {
            EventKind::Load => 1,
            EventKind::Store => 2,
            EventKind::Arith => 3,
            EventKind::Reduce => 4,
            EventKind::Grant => 5,
            EventKind::PhaseBegin => 6,
            EventKind::PhaseEnd => 7,
        });
        h.write_bytes(self.op.as_bytes());
        h.write_u64(self.dst.map_or(0, |r| r as u64 + 1));
        for s in self.srcs {
            h.write_u64(s.map_or(0, |r| r as u64 + 1));
        }
        h.write_u64(self.vl as u64);
        h.write_u64(self.active as u64);
        h.write_u64(self.requested as u64);
        h.write_u64(self.lo);
        h.write_u64(self.hi);
    }
}

impl ReplayTrace {
    /// The vector-event stream of this trace on a machine whose registers
    /// hold `vlen_elems` elements (the grants depend on it). A row update
    /// decodes to the `vfmacc.vf` event of each row, as its separate calls
    /// would. Ops with no architectural vector effect — scalar charges and
    /// memory ops, prefetches, spills, layer markers, timing resets — decode
    /// to nothing.
    pub fn vec_events(&self, vlen_elems: usize) -> Vec<VecEvent> {
        type Span = (u64, u64, usize);
        let grant = |op, n: u32| VecEvent::grant(op, n as usize, (n as usize).min(vlen_elems));
        let unit = |addr: u32, vl: u16| -> Span {
            (addr.into(), u64::from(addr) + 4 * u64::from(vl), vl.into())
        };
        let strided = |at: u32, vl: u16| -> Span {
            let (addr, stride) = self.strided(at);
            (addr, addr + (u64::from(vl) - 1) * stride + 4, vl.into())
        };
        let load = |op, r: u8, (lo, hi, vl): Span| VecEvent::load(op, r.into(), lo, hi, vl);
        let store = |op, r: u8, (lo, hi, vl): Span| VecEvent::store(op, r.into(), lo, hi, vl);
        let mut events = Vec::new();
        for &op in &self.ops {
            events.push(match op {
                ReplayOp::Setvl { rvl } => grant("setvl", rvl),
                ReplayOp::Whilelt { rem } => grant("whilelt", rem),
                ReplayOp::VLoad { vd, vl, addr } => load("vle", vd, unit(addr, vl)),
                ReplayOp::VStore { vs, vl, addr } => store("vse", vs, unit(addr, vl)),
                ReplayOp::VLoadStrided { vd, vl, at } => load("vlse", vd, strided(at, vl)),
                ReplayOp::VStoreStrided { vs, vl, at } => store("vsse", vs, strided(at, vl)),
                ReplayOp::VIndexed { op, reg, at } => {
                    let (base, idx) = self.indexed(at);
                    let (lo, hi) = indexed_range(base, idx).unwrap_or((0, 0));
                    let span = (lo, hi, idx.len());
                    let ev = match op {
                        IndexedOp::Gather => load("vgather", reg, span),
                        IndexedOp::Scatter => store("vscatter", reg, span),
                        IndexedOp::Gather4 => load("vgather4", reg, span),
                        IndexedOp::Scatter4 => store("vscatter4", reg, span),
                    };
                    ev.with_active(idx.iter().filter(|&&ix| ix != u32::MAX).count())
                }
                ReplayOp::VArith { op, vd, a, b, vl } => {
                    let (vd, a, b) = (vd.into(), Some(a.into()), Some(b.into()));
                    let srcs = match op.shape() {
                        ArithShape::Nullary => [None, None, None],
                        ArithShape::Unary => [a, None, None],
                        ArithShape::UnaryAcc => [a, Some(vd), None],
                        ArithShape::Binary => [a, b, None],
                        ArithShape::BinaryAcc => [a, b, Some(vd)],
                    };
                    // A broadcast functionally fills at least one lane.
                    let vl = if op == VArithOp::Broadcast { vl.max(1) } else { vl };
                    VecEvent::arith(op.name(), vd, srcs, vl.into())
                }
                ReplayOp::VMaccRows { vl, at } => {
                    let MaccRows { acc0, vs, rows, .. } = self.macc_rows(at);
                    events.extend((acc0..acc0 + rows).map(|vd| {
                        let srcs = [Some(vs.into()), Some(vd.into()), None];
                        VecEvent::arith(VArithOp::MaccVf.name(), vd.into(), srcs, vl.into())
                    }));
                    continue;
                }
                ReplayOp::Reduce { op, vs, vl } => {
                    VecEvent::reduce(op.name(), vs.into(), vl.into())
                }
                ReplayOp::PhaseBegin { phase } => VecEvent::phase_marker(true, phase),
                ReplayOp::PhaseEnd { phase } => VecEvent::phase_marker(false, phase),
                ReplayOp::Prefetch { .. }
                | ReplayOp::ScalarOps { .. }
                | ReplayOp::ScalarFlops { .. }
                | ReplayOp::ScalarRead { .. }
                | ReplayOp::ScalarWrite { .. }
                | ReplayOp::ScalarStream { .. }
                | ReplayOp::LayerBegin { .. }
                | ReplayOp::LayerEnd
                | ReplayOp::Spill
                | ReplayOp::ResetTiming => continue,
            });
        }
        events
    }
}

/// FNV-1a accumulator for event-stream fingerprints. Deterministic across
/// hosts and runs (no randomized state), cheap enough to hash full-network
/// streams, and sensitive to every canonical field of every event.
#[derive(Debug, Clone)]
pub struct StreamHasher(u64);

impl Default for StreamHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        StreamHasher(Self::OFFSET)
    }

    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        // Length prefix keeps concatenated fields unambiguous.
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a recorded stream: the fold of [`VecEvent::hash_into`]
/// over every event in order. This is the hash a `RetimeCertificate`
/// (crates/depgraph) pins per design point as its fingerprint of the
/// decoded stream; the certifier's invariance verdict compares whole
/// captured traces, not hashes.
pub fn stream_hash(events: &[VecEvent]) -> u64 {
    let mut h = StreamHasher::new();
    h.write_u64(events.len() as u64);
    for e in events {
        e.hash_into(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};
    use lva_sim::{AccessKind, PrefetchTarget};

    /// Issues every op kind the machine records, inside a layer scope and
    /// across a timing reset; returns the base address of its one buffer.
    fn every_op_kind(m: &mut Machine) -> u64 {
        let a = m.mem.alloc_named("a", 64);
        m.layer_begin(0, "conv 3x3");
        let g = m.setvl(100); // above the 16-element vector length
        let t = m.setvl(7);
        let p = m.whilelt(40, 32); // i >= n: nothing granted
        let w = m.whilelt(0, 5).active;
        m.vle(1, a.addr(0), g);
        m.vse(1, a.addr(16), t);
        m.vlse(2, a.addr(1), 12, 4);
        m.vsse(2, a.addr(40), 8, w);
        m.vgather(3, a.addr(0), &[3, u32::MAX, 0, 9], 4);
        m.vscatter(3, a.addr(32), &[1, 2, u32::MAX, 5], 4);
        m.vgather4(4, a.addr(0), &[4, 5, 6, 7, u32::MAX, 9, 10, 11], 8);
        m.vscatter4(4, a.addr(32), &[0, 1, 2, 3, u32::MAX, 5, 6, 7], 8);
        m.vgather(5, a.addr(0), &[u32::MAX; 4], 4);
        m.vbroadcast(6, 1.0, p.active);
        m.vbroadcast(6, 2.0, g);
        m.vmv(7, 6, g);
        m.vfmul_vf(8, 1, 2.0, g);
        m.vfadd_vf(8, 8, 1.0, g);
        m.vfmax_vf(8, 8, 0.0, t);
        m.vfsqrt(9, 6, g);
        m.vfmacc_vf(7, 0.5, 1, g);
        m.vfmul_vv(10, 1, 6, g);
        m.vfadd_vv(10, 10, 7, g);
        m.vfsub_vv(11, 10, 6, g);
        m.vfmax_vv(11, 11, 1, g);
        m.vfdiv_vv(12, 11, 6, g);
        m.vfmacc_vv(12, 1, 6, g);
        m.vfnmsac_vv(12, 7, 9, g);
        m.vfmacc_vf_rows(14, a.addr(2), 8, 3, 1.0, 1, g);
        m.vfmacc_vf_rows(20, a.addr(9), 0, 2, 0.5, 6, t);
        m.vfredsum(12, g);
        m.vfredmax(8, t);
        m.phase(KernelPhase::Gemm, |m| m.vfadd_vf(13, 12, 1.0, g));
        m.scalar_read(a.addr(5));
        m.scalar_write(a.addr(6), 1.0);
        m.scalar_stream(a.addr(0), 32, AccessKind::Read);
        m.charge_scalar_ops(3);
        m.charge_scalar_flops(2);
        m.prefetch(a.addr(48), PrefetchTarget::L2);
        m.note_spill();
        m.layer_end();
        m.reset_timing();
        m.vse(13, a.addr(48), g);
        a.base
    }

    /// The expected list is the stream the machine's own event recorder
    /// emitted for `every_op_kind` before events were decoded from the
    /// capture: decoding must reproduce it field for field. The two row
    /// updates, which that recorder saw as separate `vfmacc.vf` calls,
    /// decode to one such event per row.
    #[test]
    fn vec_events_decode_every_op_kind() {
        let mut m = Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20));
        m.start_capture();
        let b = every_op_kind(&mut m);
        let trace = m.finish_capture().expect("capture was started");
        let expected = vec![
            VecEvent::grant("setvl", 100, 16),
            VecEvent::grant("setvl", 7, 7),
            VecEvent::grant("whilelt", 0, 0),
            VecEvent::grant("whilelt", 5, 5),
            VecEvent::load("vle", 1, b, b + 0x40, 16),
            VecEvent::store("vse", 1, b + 0x40, b + 0x5c, 7),
            VecEvent::load("vlse", 2, b + 0x4, b + 0x2c, 4),
            VecEvent::store("vsse", 2, b + 0xa0, b + 0xc4, 5),
            VecEvent::load("vgather", 3, b, b + 0x28, 4).with_active(3),
            VecEvent::store("vscatter", 3, b + 0x84, b + 0x98, 4).with_active(3),
            VecEvent::load("vgather4", 4, b + 0x10, b + 0x30, 8).with_active(7),
            VecEvent::store("vscatter4", 4, b + 0x80, b + 0xa0, 8).with_active(7),
            VecEvent::load("vgather", 5, 0, 0, 4).with_active(0),
            VecEvent::arith("vbroadcast", 6, [None, None, None], 1),
            VecEvent::arith("vbroadcast", 6, [None, None, None], 16),
            VecEvent::arith("vmv", 7, [Some(6), None, None], 16),
            VecEvent::arith("vfmul.vf", 8, [Some(1), None, None], 16),
            VecEvent::arith("vfadd.vf", 8, [Some(8), None, None], 16),
            VecEvent::arith("vfmax.vf", 8, [Some(8), None, None], 7),
            VecEvent::arith("vfsqrt", 9, [Some(6), None, None], 16),
            VecEvent::arith("vfmacc.vf", 7, [Some(1), Some(7), None], 16),
            VecEvent::arith("vfmul.vv", 10, [Some(1), Some(6), None], 16),
            VecEvent::arith("vfadd.vv", 10, [Some(10), Some(7), None], 16),
            VecEvent::arith("vfsub.vv", 11, [Some(10), Some(6), None], 16),
            VecEvent::arith("vfmax.vv", 11, [Some(11), Some(1), None], 16),
            VecEvent::arith("vfdiv.vv", 12, [Some(11), Some(6), None], 16),
            VecEvent::arith("vfmacc.vv", 12, [Some(1), Some(6), Some(12)], 16),
            VecEvent::arith("vfnmsac.vv", 12, [Some(7), Some(9), Some(12)], 16),
            VecEvent::arith("vfmacc.vf", 14, [Some(1), Some(14), None], 16),
            VecEvent::arith("vfmacc.vf", 15, [Some(1), Some(15), None], 16),
            VecEvent::arith("vfmacc.vf", 16, [Some(1), Some(16), None], 16),
            VecEvent::arith("vfmacc.vf", 20, [Some(6), Some(20), None], 7),
            VecEvent::arith("vfmacc.vf", 21, [Some(6), Some(21), None], 7),
            VecEvent::reduce("vfredsum", 12, 16),
            VecEvent::reduce("vfredmax", 8, 7),
            VecEvent::phase_marker(true, KernelPhase::Gemm),
            VecEvent::arith("vfadd.vf", 13, [Some(12), None, None], 16),
            VecEvent::phase_marker(false, KernelPhase::Gemm),
            VecEvent::store("vse", 13, b + 0xc0, b + 0x100, 16),
        ];
        assert_eq!(trace.vec_events(m.vlen_elems()), expected);
    }

    #[test]
    fn constructors_fill_the_right_fields() {
        let l = VecEvent::load("vle", 3, 0x100, 0x140, 16);
        assert_eq!(l.kind, EventKind::Load);
        assert_eq!(l.dst, Some(3));
        assert!(l.touches_memory() && !l.writes_memory());

        let s = VecEvent::store("vse", 4, 0x100, 0x140, 16);
        assert_eq!(s.srcs, [Some(4), None, None]);
        assert!(s.writes_memory());

        let g = VecEvent::grant("setvl", 100, 16);
        assert_eq!((g.requested, g.vl), (100, 16));
        assert!(!g.touches_memory());

        let p = VecEvent::phase_marker(true, KernelPhase::Gemm);
        assert_eq!(p.kind, EventKind::PhaseBegin);
        assert_eq!(p.op, "gemm");
    }

    #[test]
    fn active_defaults_to_vl_and_with_active_overrides() {
        let g = VecEvent::load("vgather", 2, 0x100, 0x180, 16);
        assert_eq!(g.active, 16);
        assert_eq!(g.with_active(11).active, 11);
        assert_eq!(VecEvent::grant("setvl", 100, 16).active, 16);
    }

    #[test]
    fn stream_hash_is_deterministic_and_field_sensitive() {
        let a = vec![
            VecEvent::load("vle", 1, 0x100, 0x140, 16),
            VecEvent::arith("vfadd.vv", 2, [Some(1), Some(1), None], 16),
            VecEvent::store("vse", 2, 0x200, 0x240, 16),
        ];
        assert_eq!(stream_hash(&a), stream_hash(&a.clone()));
        // Any single-field change moves the hash.
        let mut b = a.clone();
        b[1].vl = 8;
        assert_ne!(stream_hash(&a), stream_hash(&b));
        let mut c = a.clone();
        c[0].lo = 0x104;
        assert_ne!(stream_hash(&a), stream_hash(&c));
        let mut d = a.clone();
        d[2] = d[2].clone().with_active(8);
        assert_ne!(stream_hash(&a), stream_hash(&d));
        // Order matters.
        let mut e = a.clone();
        e.swap(0, 1);
        assert_ne!(stream_hash(&a), stream_hash(&e));
        // And the empty stream is distinct from a one-event stream.
        assert_ne!(stream_hash(&[]), stream_hash(&a[..1]));
    }
}
