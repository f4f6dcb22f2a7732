//! Compact event IR for the kernel sanitizer (`lva-check`).
//!
//! When recording is enabled on a [`crate::Machine`], every vector
//! operation appends one [`VecEvent`] describing *what* the instruction did
//! architecturally — registers read and written, the byte range touched in
//! memory, the vector length used — without any timing information.
//! Recording is pure observation: the timing model never reads this state,
//! so cycle counts are bit-identical with the hook on or off (the same
//! discipline as `lva-trace`, asserted by tests in `lva-check`).
//!
//! The sanitizer passes in `crates/check` fold over the event stream to
//! find uninitialized-register reads, out-of-bounds accesses, stale-copy
//! (write-after-read) hazards, and vector-length discipline violations.

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
    /// `vb` *and* the old `vd`, so `vd` appears here too).
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
/// (crates/depgraph) pins per design point — equal hashes over the tiny
/// field domain here mean equal streams for all practical purposes, and the
/// certifier additionally compares the streams field-by-field before
/// trusting a hash.
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
