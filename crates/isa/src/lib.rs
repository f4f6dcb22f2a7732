//! # lva-isa — a vector-length-agnostic vector engine
//!
//! This crate is the reproduction's substitute for the RISC-V Vector / ARM-SVE
//! intrinsics plus the gem5 CPU models used by the paper. Kernels are written
//! against an *intrinsics-level* API ([`Machine`]): `setvl`, unit-strided and
//! strided vector loads/stores, gather/scatter, broadcast, fused multiply-add,
//! predication (`whilelt`), and software prefetch. Every operation
//!
//! 1. **executes functionally** on `f32` data in the simulated memory arena,
//!    so optimized kernels can be validated bit-for-bit (modulo reassociation)
//!    against scalar references, and
//! 2. **advances a cycle-approximate timing model**: an in-order front end, a
//!    vector unit with `lanes` elements/cycle, start-up overhead that grows
//!    with the lane count (§V of the paper), a per-register scoreboard (so
//!    loop unrolling across independent accumulators genuinely hides pipeline
//!    latency, as in Fig. 2/3), and line-granular traffic into the
//!    [`lva_sim::MemSystem`] cache hierarchy.
//!
//! The two ISA profiles mirror the paper's platforms:
//!
//! * [`IsaKind::Rvv`] — max vector length 16384 bits, decoupled VPU attached
//!   to L2 through a 2 KB vector cache, no effective prefetch instructions.
//! * [`IsaKind::Sve`] — max vector length 2048 bits, vector accesses through
//!   L1, per-lane predication; lanes proportional to the vector length on the
//!   gem5 profile, and an A64FX-like out-of-order profile with hardware +
//!   software prefetch.

#![forbid(unsafe_code)]
pub mod config;
pub mod machine;
pub mod pred;
pub mod record;
pub mod replay;
pub mod stats;

pub use config::{
    CoreConfig, IsaKind, MachineConfig, Platform, VpuConfig, A64FX_L2_BYTES, DEFAULT_L1_BYTES,
    DEFAULT_L2_BYTES,
};
pub use machine::{Machine, PipeEvent, ReplayCursor, VReg, NUM_VREGS};
pub use pred::Pred;
pub use record::{stream_hash, EventKind, EventSink, StreamHasher, VecEvent};
pub use replay::{
    LayerReplay, ProbeTape, ReplayOp, ReplayTrace, SegmentReplay, TapeSegment, VArithOp,
};
pub use stats::{KernelPhase, PhaseTimer, StallBreakdown, StallCause, VpuStats};

pub use lva_sim::{Buf, IdealKnob, IdealSpec, Memory, PrefetchTarget};

// ---- Shims for the host benchmark ---------------------------------------
//
// Stateless names kept only because the host benchmark (`benchmark/`),
// which changes separately from the simulator, still calls them. Delete
// them together with those calls.

/// Holds nothing. Its only caller is the host benchmark (`benchmark/`).
#[derive(Debug, Default)]
pub struct LayerMemo;

/// Holds nothing. Its only caller is the host benchmark (`benchmark/`).
#[derive(Debug)]
pub struct RefitPlan;

impl RefitPlan {
    /// Builds nothing. Its only caller is the host benchmark (`benchmark/`).
    pub fn build(_trace: &ReplayTrace, _geometry: ()) -> Self {
        RefitPlan
    }
}
