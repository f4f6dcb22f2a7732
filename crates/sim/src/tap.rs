//! Address-stream tap: an opt-in observer of per-level cache traffic.
//!
//! The co-design questions of the paper (§V–§VI) are all working-set-vs-
//! capacity questions — does the K×VL B-panel fit in L2, does a weight row
//! fit in the vector cache — and answering them from aggregate hit rates
//! alone requires re-running the sweep at every candidate size. A tap on the
//! per-level address streams lets one run feed a Mattson reuse-distance
//! profiler (`lva-prof`), which predicts the hit rate at *every* capacity
//! from a single address stream.
//!
//! Design constraints, mirroring the event recorder in `lva-isa`:
//!
//! * **Free when absent.** The tap is an `Option`; every call site pays one
//!   branch when no sink is installed.
//! * **Pure observation.** The sink sees each access *after* the cache has
//!   classified it; it can never change latencies or cache state. Cycle
//!   counts are bit-identical with the tap on or off (asserted in
//!   `lva-prof`'s tests).
//! * **Filtered streams.** Each level's stream is the traffic that level
//!   actually sees: the L2 stream consists of L1/vector-cache misses plus
//!   dirty writebacks, which makes it independent of the L2's own size —
//!   the property that makes single-run capacity prediction sound.

use crate::cache::AccessKind;

/// Which cache level an observed access targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapLevel {
    L1,
    VectorCache,
    L2,
}

impl TapLevel {
    pub fn name(self) -> &'static str {
        match self {
            TapLevel::L1 => "l1d",
            TapLevel::VectorCache => "vcache",
            TapLevel::L2 => "l2",
        }
    }
}

/// Scope markers forwarded through the tap so a profiler can attribute
/// accesses to layers and kernel phases without depending on `lva-nn` or
/// `lva-isa`. Begin/end pairs nest (a phase runs inside a layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapScope<'a> {
    /// A network layer starts (`index`, short description).
    LayerBegin {
        index: usize,
        desc: &'a str,
    },
    LayerEnd,
    /// A kernel phase (§II-B breakdown) starts.
    PhaseBegin {
        name: &'static str,
    },
    PhaseEnd,
}

/// Observer of the per-level demand-access streams.
///
/// `hit` reports the *simulated* outcome (set-associative, after prefetch
/// fills), so an implementation can validate capacity predictions against
/// the real cache on the same stream.
pub trait AccessSink {
    /// One demand access at `level`, line-granular, in program order.
    fn access(&mut self, level: TapLevel, line: u64, kind: AccessKind, hit: bool);

    /// A prefetcher installed `line` at `level` without a demand access.
    /// Default: ignored.
    fn prefetch_fill(&mut self, level: TapLevel, line: u64) {
        let _ = (level, line);
    }

    /// A layer/phase boundary. Default: ignored.
    fn scope(&mut self, scope: TapScope<'_>) {
        let _ = scope;
    }
}

impl std::fmt::Debug for dyn AccessSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn AccessSink")
    }
}
