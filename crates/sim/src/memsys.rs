//! The two-level memory system with both vector-unit integration styles
//! studied in the paper.
//!
//! *RISC-V Vector @ gem5*: the VPU is **decoupled** and attached to the L2; a
//! small 2 KB vector cache buffers its line traffic, and vector accesses never
//! touch the L1 (§III-A). This is why the BLIS-like 6-loop blocking, which
//! tries to stage the A matrix in L1, buys nothing on that platform (§VI-A).
//!
//! *ARM-SVE*: vector registers are filled **through the L1** like scalar
//! accesses (§III-A), so L1 blocking and prefetching pay off (§VI-C).

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, Lookup};
use crate::ideal::IdealSpec;
use crate::prefetch::{PrefetchTarget, StridePrefetcher, StridePrefetcherConfig};
use crate::shared::SharedPortHandle;
use crate::tap::{AccessSink, TapLevel, TapScope};

/// Which level ultimately served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    L1,
    VectorCache,
    L2,
    Dram,
}

impl MemLevel {
    /// Compact encoding for probe tapes (see `lva-isa`'s replay module).
    #[inline]
    pub fn to_u8(self) -> u8 {
        match self {
            MemLevel::L1 => 0,
            MemLevel::VectorCache => 1,
            MemLevel::L2 => 2,
            MemLevel::Dram => 3,
        }
    }

    /// Inverse of [`Self::to_u8`].
    #[inline]
    pub fn from_u8(v: u8) -> MemLevel {
        match v {
            0 => MemLevel::L1,
            1 => MemLevel::VectorCache,
            2 => MemLevel::L2,
            _ => MemLevel::Dram,
        }
    }
}

/// Hit latency of the small fully-associative vector cache on the decoupled
/// VPU path (the 2 KB buffer in the paper's gem5 fork).
pub const VCACHE_HIT_LATENCY: u32 = 2;

/// How vector memory operations reach the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpuPath {
    /// SVE style: vector lanes load/store through the L1 data cache.
    ThroughL1,
    /// RISC-V Vector style: the decoupled VPU reads/writes the L2 through a
    /// small dedicated vector cache (2 KB in the paper's gem5 fork).
    DecoupledL2 {
        /// Capacity of the vector cache in bytes (fully associative).
        vcache_bytes: usize,
    },
}

/// Full memory-system configuration.
#[derive(Debug, Clone)]
pub struct MemSystemConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    /// DRAM access latency in cycles (beyond the L2 lookup).
    pub mem_latency: u32,
    pub vpu_path: VpuPath,
    /// Hardware stride prefetcher (A64FX); `None` on the gem5 profiles.
    pub hw_prefetch: Option<StridePrefetcherConfig>,
    /// Whether software prefetch instructions install lines. RISC-V Vector
    /// has no prefetch instructions (the compiler drops the intrinsics) and
    /// gem5's SVE treats them as no-ops; only the A64FX profile enables this.
    pub sw_prefetch_effective: bool,
}

impl MemSystemConfig {
    /// Fingerprint of everything that determines cache **state transitions**
    /// (and therefore per-access serving levels): capacities, associativity,
    /// line size, prefetcher configuration, and the VPU path — but *not* the
    /// per-level hit/DRAM latencies, which only scale the latency returned
    /// for a given serving level (see [`MemSystem::served_latency`]). Two
    /// configs with equal fingerprints produce identical serving-level
    /// sequences for the same access stream; that is the validity condition
    /// for probe-tape reuse in `lva-isa` trace replay.
    pub fn state_fingerprint(&self) -> String {
        let geom = |c: &CacheConfig| format!("{}b/{}l/{}w", c.bytes, c.line_bytes, c.assoc);
        format!(
            "l1={};l2={};path={:?};hwpf={:?};swpf={}",
            geom(&self.l1),
            geom(&self.l2),
            self.vpu_path,
            self.hw_prefetch,
            self.sw_prefetch_effective,
        )
    }

    /// Consistency checks shared by all constructors.
    fn validate(&self) {
        assert_eq!(
            self.l1.line_bytes, self.l2.line_bytes,
            "mixed line sizes between levels are not modelled"
        );
        if let VpuPath::DecoupledL2 { vcache_bytes } = self.vpu_path {
            assert!(vcache_bytes >= self.l1.line_bytes, "vector cache smaller than a line");
        }
    }
}

/// Statistics snapshot across all levels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemSystemStats {
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub vcache: CacheStats,
    pub dram_reads: u64,
    pub dram_writes: u64,
    /// Lines the hardware stride prefetcher asked to install (0 when the
    /// platform has no prefetcher). Accuracy is derived per level from
    /// `prefetch_fills` / `prefetch_hits` via
    /// [`CacheStats::prefetch_accuracy`].
    pub hwpf_issued: u64,
}

/// The assembled hierarchy. See module docs.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemSystemConfig,
    pub l1: Cache,
    pub l2: Cache,
    pub vcache: Option<Cache>,
    hwpf: Option<StridePrefetcher>,
    pf_scratch: Vec<u64>,
    /// `log2(line_bytes)`, precomputed so the per-access address→line
    /// mapping is a shift rather than a division.
    line_shift: u32,
    pub dram_reads: u64,
    pub dram_writes: u64,
    /// Opt-in address-stream observer (see [`crate::tap`]). `None` (the
    /// default) costs one branch per access; when installed it sees every
    /// per-level access after the cache classified it. Pure observation —
    /// latencies and cache state are bit-identical with or without a tap.
    tap: Option<Box<dyn AccessSink>>,
    /// Counterfactual idealization knobs (see [`crate::ideal`]). Timing-only:
    /// every lookup, state transition, statistic, and tap report happens
    /// exactly as in the factual run; only the *returned latency* is clamped.
    /// With [`IdealSpec::NONE`] (the default) latencies are bit-identical.
    ideal: IdealSpec,
    /// Attachment to a multi-core shared L2/DRAM port (see [`crate::shared`]).
    /// `None` — the default and the whole single-core world — keeps the
    /// private L2 path below.
    shared: Option<SharedAttachment>,
}

/// Per-core state of a [`SharedPortHandle`] attachment.
#[derive(Debug)]
struct SharedAttachment {
    port: SharedPortHandle,
    /// This core's index at the port.
    core: usize,
    /// This core's current front-end cycle, published by the SoC event loop
    /// before each replayed instruction (see [`MemSystem::set_port_now`]).
    now: u64,
    /// Port arbitration wait cycles accumulated since the last drain.
    pending: u64,
}

impl MemSystem {
    pub fn new(cfg: MemSystemConfig) -> Self {
        cfg.validate();
        let vcache = match cfg.vpu_path {
            VpuPath::ThroughL1 => None,
            VpuPath::DecoupledL2 { vcache_bytes } => {
                let lines = vcache_bytes / cfg.l1.line_bytes;
                Some(Cache::new(CacheConfig {
                    name: "VC",
                    bytes: vcache_bytes,
                    line_bytes: cfg.l1.line_bytes,
                    assoc: lines, // fully associative
                    hit_latency: VCACHE_HIT_LATENCY,
                }))
            }
        };
        let hwpf = cfg.hw_prefetch.map(StridePrefetcher::new);
        assert!(cfg.l1.line_bytes.is_power_of_two(), "line size must be a power of two");
        let line_shift = cfg.l1.line_bytes.trailing_zeros();
        MemSystem {
            l1: Cache::new(cfg.l1.clone()),
            l2: Cache::new(cfg.l2.clone()),
            vcache,
            hwpf,
            pf_scratch: Vec::with_capacity(8),
            dram_reads: 0,
            dram_writes: 0,
            tap: None,
            ideal: IdealSpec::NONE,
            shared: None,
            line_shift,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Shared L2/DRAM port (the `lva-scale` hook)
    // ------------------------------------------------------------------

    /// Attach this (per-core) memory system to a multi-core shared port as
    /// `core`. From then on all L2 traffic — demand fills, dirty writebacks,
    /// prefetch installs — routes to the shared cache and arbitrates for
    /// port bandwidth; the private L2 array sits cold. DRAM transfer
    /// *counters* stay per-core (each core's fills remain attributable),
    /// while the shared-L2 statistics live on the port.
    pub fn attach_shared_port(&mut self, port: SharedPortHandle, core: usize) {
        self.shared = Some(SharedAttachment { port, core, now: 0, pending: 0 });
    }

    /// Publish the attached core's current front-end cycle: subsequent
    /// shared-port transactions arbitrate at this time. No-op without an
    /// attachment.
    #[inline]
    pub fn set_port_now(&mut self, now: u64) {
        if let Some(sh) = self.shared.as_mut() {
            sh.now = now;
        }
    }

    /// Drain the shared-port wait cycles accumulated since the last call.
    /// The `lva-isa` machine drains this after every memory instruction and
    /// charges the cycles to the `Contention` stall cause. Always zero
    /// without an attachment — one branch is all the single-core world pays.
    #[inline]
    pub fn take_contention(&mut self) -> u64 {
        match self.shared.as_mut() {
            None => 0,
            Some(sh) => std::mem::take(&mut sh.pending),
        }
    }

    // ------------------------------------------------------------------
    // Counterfactual idealization (the `lva-whatif` hook)
    // ------------------------------------------------------------------

    /// Select which memory levels to idealize (see [`crate::ideal`]). Only
    /// the `perfect_l1` / `perfect_l2` knobs matter here; the VPU-side knobs
    /// are consumed by `lva_isa::Machine`.
    pub fn set_ideal(&mut self, spec: IdealSpec) {
        self.ideal = spec;
    }

    /// The active idealization spec.
    pub fn ideal(&self) -> IdealSpec {
        self.ideal
    }

    // ------------------------------------------------------------------
    // Address-stream tap (the `lva-prof` hook)
    // ------------------------------------------------------------------

    /// Install an address-stream observer (replacing any previous one).
    pub fn set_tap(&mut self, sink: Box<dyn AccessSink>) {
        self.tap = Some(sink);
    }

    /// Remove and return the installed observer, if any.
    pub fn take_tap(&mut self) -> Option<Box<dyn AccessSink>> {
        self.tap.take()
    }

    /// Whether an observer is installed.
    pub fn has_tap(&self) -> bool {
        self.tap.is_some()
    }

    /// Forward a layer/phase boundary to the tap (no-op without one). Called
    /// by `lva-nn` (layers) and `lva-isa` (kernel phases) so a profiler can
    /// attribute accesses to scopes without those crates depending on it.
    #[inline]
    pub fn tap_scope(&mut self, scope: TapScope<'_>) {
        if let Some(t) = self.tap.as_mut() {
            t.scope(scope);
        }
    }

    /// Report a prefetch fill to the tap (no-op without one).
    #[inline]
    fn tap_prefetch(&mut self, level: TapLevel, line: u64) {
        if let Some(t) = self.tap.as_mut() {
            t.prefetch_fill(level, line);
        }
    }

    /// L1 demand access, reported to the tap.
    #[inline]
    fn l1_access(&mut self, line: u64, kind: AccessKind) -> Lookup {
        let r = self.l1.access_line(line, kind);
        if let Some(t) = self.tap.as_mut() {
            t.access(TapLevel::L1, line, kind, matches!(r, Lookup::Hit));
        }
        r
    }

    /// L2 demand access (demand misses from above *and* dirty writebacks),
    /// reported to the tap. Routed to the shared port when one is attached.
    #[inline]
    fn l2_access(&mut self, line: u64, kind: AccessKind) -> Lookup {
        let r = match self.shared.as_mut() {
            None => self.l2.access_line(line, kind),
            Some(sh) => {
                let (r, wait) = sh.port.borrow_mut().l2_access(sh.core, line, kind, sh.now);
                sh.pending += wait;
                r
            }
        };
        if let Some(t) = self.tap.as_mut() {
            t.access(TapLevel::L2, line, kind, matches!(r, Lookup::Hit));
        }
        r
    }

    /// Prefetcher install into the L2, routed to the shared port when one
    /// is attached (state change only; prefetches claim no port time).
    #[inline]
    fn l2_prefetch(&mut self, line: u64) -> bool {
        match self.shared.as_mut() {
            None => self.l2.prefetch_line(line),
            Some(sh) => sh.port.borrow_mut().prefetch_line(line),
        }
    }

    /// The (uniform) cache line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> usize {
        self.cfg.l1.line_bytes
    }

    /// Configuration used to build the system.
    pub fn config(&self) -> &MemSystemConfig {
        &self.cfg
    }

    /// Snapshot all counters.
    pub fn stats(&self) -> MemSystemStats {
        MemSystemStats {
            l1: self.l1.stats,
            l2: self.l2.stats,
            vcache: self.vcache.as_ref().map(|c| c.stats).unwrap_or_default(),
            dram_reads: self.dram_reads,
            dram_writes: self.dram_writes,
            hwpf_issued: self.hwpf.as_ref().map_or(0, |p| p.issued),
        }
    }

    /// Reset all statistics (cache contents are preserved), e.g. after the
    /// network-setup phase which the paper excludes from measurements.
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        if let Some(vc) = &mut self.vcache {
            vc.reset_stats();
        }
        self.dram_reads = 0;
        self.dram_writes = 0;
        if let Some(pf) = &mut self.hwpf {
            pf.issued = 0;
        }
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// L2 access with DRAM fallback; returns the level that served the line.
    /// Pure state transition — the latency for the level is computed
    /// separately by [`Self::served_latency`].
    fn l2_then_mem(&mut self, line: u64, kind: AccessKind) -> MemLevel {
        match self.l2_access(line, kind) {
            Lookup::Hit => MemLevel::L2,
            Lookup::Miss { victim_dirty } => {
                if victim_dirty {
                    self.dram_writes += 1;
                }
                self.dram_reads += 1;
                MemLevel::Dram
            }
        }
    }

    /// Latency of an access served by `level`, as a **pure function** of the
    /// configured per-level latencies and the idealization spec. `vector`
    /// selects the VPU's first level (the 2-cycle vector cache on the
    /// decoupled path); scalar accesses always start at the L1. Under
    /// `perfect_l1` every access costs only its first level's hit latency;
    /// under `perfect_l2` a DRAM-served access costs only an L2 hit.
    ///
    /// Both the live demand paths below and probe-tape replay in `lva-isa`
    /// compute latencies through this one function — which is what makes
    /// replayed timings bit-identical to live simulation by construction.
    #[inline]
    pub fn served_latency(&self, level: MemLevel, vector: bool) -> u32 {
        let first = if vector && matches!(self.cfg.vpu_path, VpuPath::DecoupledL2 { .. }) {
            VCACHE_HIT_LATENCY
        } else {
            self.cfg.l1.hit_latency
        };
        let beyond = match level {
            MemLevel::L1 | MemLevel::VectorCache => 0,
            MemLevel::L2 => self.cfg.l2.hit_latency,
            MemLevel::Dram => {
                self.cfg.l2.hit_latency
                    + if self.ideal.perfect_l2 { 0 } else { self.cfg.mem_latency }
            }
        };
        let beyond = if self.ideal.perfect_l1 { 0 } else { beyond };
        first + beyond
    }

    /// Feed the hardware prefetcher with a demand line; install predictions.
    fn train_hw_prefetch(&mut self, line: u64) {
        let Some(pf) = &mut self.hwpf else { return };
        // Take the scratch buffer to appease the borrow checker.
        let mut scratch = std::mem::take(&mut self.pf_scratch);
        pf.observe(line, &mut scratch);
        for &l in &scratch {
            // Prefetches fill L2 and L1 (next-level inclusive fill).
            if self.l2_prefetch(l) {
                self.tap_prefetch(TapLevel::L2, l);
            }
            if self.l1.prefetch_line(l) {
                self.tap_prefetch(TapLevel::L1, l);
            }
        }
        self.pf_scratch = scratch;
    }

    /// Demand access from the **scalar** core: always L1 → L2 → DRAM.
    /// Returns the serving level and full latency in cycles.
    pub fn demand_scalar(&mut self, addr: u64, kind: AccessKind) -> (MemLevel, u32) {
        let line = self.line_of(addr);
        self.train_hw_prefetch(line);
        let lvl = match self.l1_access(line, kind) {
            Lookup::Hit => MemLevel::L1,
            Lookup::Miss { victim_dirty } => {
                if victim_dirty {
                    // L1 writeback lands in L2 (write access, counts traffic).
                    self.l2_access(line, AccessKind::Write);
                }
                self.l2_then_mem(line, kind)
            }
        };
        (lvl, self.served_latency(lvl, false))
    }

    /// Demand access from the **vector** unit; the route depends on
    /// [`VpuPath`]. Line-granular: callers pass one representative address
    /// per distinct line touched by the vector operation.
    pub fn demand_vector(&mut self, addr: u64, kind: AccessKind) -> (MemLevel, u32) {
        self.demand_vector_opts(addr, kind, true)
    }

    /// [`Self::demand_vector`] with explicit prefetcher training control.
    /// Indexed (gather/scatter) accesses do not train stream prefetchers on
    /// real hardware; their irregular line sequences would only pollute the
    /// stride table.
    pub fn demand_vector_opts(
        &mut self,
        addr: u64,
        kind: AccessKind,
        train: bool,
    ) -> (MemLevel, u32) {
        let line = self.line_of(addr);
        let lvl = match self.cfg.vpu_path {
            VpuPath::ThroughL1 => {
                // Same path as scalar accesses (SVE).
                if train {
                    self.train_hw_prefetch(line);
                }
                match self.l1_access(line, kind) {
                    Lookup::Hit => MemLevel::L1,
                    Lookup::Miss { victim_dirty } => {
                        if victim_dirty {
                            self.l2_access(line, AccessKind::Write);
                        }
                        self.l2_then_mem(line, kind)
                    }
                }
            }
            VpuPath::DecoupledL2 { .. } => {
                let vc = self.vcache.as_mut().expect("decoupled path has a vector cache");
                let r = vc.access_line(line, kind);
                if let Some(t) = self.tap.as_mut() {
                    t.access(TapLevel::VectorCache, line, kind, matches!(r, Lookup::Hit));
                }
                match r {
                    Lookup::Hit => MemLevel::VectorCache,
                    Lookup::Miss { victim_dirty } => {
                        if victim_dirty {
                            self.l2_access(line, AccessKind::Write);
                        }
                        // The vector cache is the VPU's first level here.
                        self.l2_then_mem(line, kind)
                    }
                }
            }
        };
        (lvl, self.served_latency(lvl, true))
    }

    /// Software prefetch of the line containing `addr` into `target`. No-op
    /// unless the platform honours prefetch instructions (§IV-A).
    pub fn sw_prefetch(&mut self, addr: u64, target: PrefetchTarget) {
        if !self.cfg.sw_prefetch_effective {
            return;
        }
        let line = self.line_of(addr);
        match target {
            PrefetchTarget::L1 => {
                // Fill both levels, as PRFM PLDL1KEEP effectively does.
                if self.l2_prefetch(line) {
                    self.tap_prefetch(TapLevel::L2, line);
                }
                if self.l1.prefetch_line(line) {
                    self.tap_prefetch(TapLevel::L1, line);
                }
            }
            PrefetchTarget::L2 => {
                if self.l2_prefetch(line) {
                    self.tap_prefetch(TapLevel::L2, line);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(path: VpuPath, sw_pf: bool, hw_pf: bool) -> MemSystemConfig {
        MemSystemConfig {
            l1: CacheConfig { name: "L1D", bytes: 4096, line_bytes: 64, assoc: 4, hit_latency: 4 },
            l2: CacheConfig { name: "L2", bytes: 65536, line_bytes: 64, assoc: 8, hit_latency: 12 },
            mem_latency: 100,
            vpu_path: path,
            hw_prefetch: if hw_pf { Some(StridePrefetcherConfig::default()) } else { None },
            sw_prefetch_effective: sw_pf,
        }
    }

    #[test]
    fn scalar_miss_then_hit_latencies() {
        let mut ms = MemSystem::new(cfg(VpuPath::ThroughL1, false, false));
        let (lvl, lat) = ms.demand_scalar(0x1000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::Dram);
        assert_eq!(lat, 4 + 12 + 100);
        let (lvl, lat) = ms.demand_scalar(0x1004, AccessKind::Read);
        assert_eq!(lvl, MemLevel::L1);
        assert_eq!(lat, 4);
    }

    #[test]
    fn decoupled_vector_bypasses_l1() {
        let mut ms = MemSystem::new(cfg(VpuPath::DecoupledL2 { vcache_bytes: 2048 }, false, false));
        let (lvl, _) = ms.demand_vector(0x2000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::Dram);
        assert_eq!(ms.l1.stats.accesses, 0, "vector traffic must not touch L1");
        assert_eq!(ms.l2.stats.accesses, 1);
        // Re-access: served by the vector cache.
        let (lvl, lat) = ms.demand_vector(0x2000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::VectorCache);
        assert_eq!(lat, 2);
    }

    #[test]
    fn through_l1_vector_uses_l1() {
        let mut ms = MemSystem::new(cfg(VpuPath::ThroughL1, false, false));
        ms.demand_vector(0x2000, AccessKind::Read);
        let (lvl, _) = ms.demand_vector(0x2000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::L1);
        assert_eq!(ms.l1.stats.accesses, 2);
    }

    #[test]
    fn sw_prefetch_noop_when_not_supported() {
        let mut ms = MemSystem::new(cfg(VpuPath::ThroughL1, false, false));
        ms.sw_prefetch(0x3000, PrefetchTarget::L1);
        let (lvl, _) = ms.demand_scalar(0x3000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::Dram, "prefetch must be dropped on this profile");
    }

    #[test]
    fn sw_prefetch_effective_installs_line() {
        let mut ms = MemSystem::new(cfg(VpuPath::ThroughL1, true, false));
        ms.sw_prefetch(0x3000, PrefetchTarget::L1);
        let (lvl, lat) = ms.demand_scalar(0x3000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::L1);
        assert_eq!(lat, 4);
        ms.sw_prefetch(0x9000, PrefetchTarget::L2);
        let (lvl, _) = ms.demand_scalar(0x9000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::L2);
    }

    #[test]
    fn hw_prefetcher_turns_stream_into_hits() {
        let mut with_pf = MemSystem::new(cfg(VpuPath::ThroughL1, false, true));
        let mut without = MemSystem::new(cfg(VpuPath::ThroughL1, false, false));
        for k in 0..64u64 {
            with_pf.demand_scalar(0x10_0000 + k * 64, AccessKind::Read);
            without.demand_scalar(0x10_0000 + k * 64, AccessKind::Read);
        }
        assert!(
            with_pf.l1.stats.misses < without.l1.stats.misses,
            "prefetcher should remove stream misses: {} vs {}",
            with_pf.l1.stats.misses,
            without.l1.stats.misses
        );
    }

    #[test]
    fn dirty_l1_eviction_writes_back_to_l2() {
        let mut ms = MemSystem::new(cfg(VpuPath::ThroughL1, false, false));
        // L1: 4KB, 4-way, 64B lines -> 16 sets. Write line 0, then evict it
        // by touching 4 more lines in the same set (stride = sets*line = 1KB).
        ms.demand_scalar(0, AccessKind::Write);
        for k in 1..=4u64 {
            ms.demand_scalar(k * 1024, AccessKind::Read);
        }
        assert_eq!(ms.l1.stats.writebacks, 1);
    }

    #[test]
    fn stats_reset_preserves_contents() {
        let mut ms = MemSystem::new(cfg(VpuPath::ThroughL1, false, false));
        ms.demand_scalar(0x4000, AccessKind::Read);
        ms.reset_stats();
        assert_eq!(ms.l1.stats.accesses, 0);
        let (lvl, _) = ms.demand_scalar(0x4000, AccessKind::Read);
        assert_eq!(lvl, MemLevel::L1, "contents must survive a stats reset");
    }

    /// A sink that tallies per-level accesses and re-checks the `hit` flag
    /// against an independent fully-associative replay where possible.
    #[derive(Debug, Default)]
    struct CountingSink {
        l1: u64,
        vc: u64,
        l2: u64,
        l2_hits: u64,
        scopes: u64,
    }

    impl AccessSink for CountingSink {
        fn access(&mut self, level: TapLevel, _line: u64, _kind: AccessKind, hit: bool) {
            match level {
                TapLevel::L1 => self.l1 += 1,
                TapLevel::VectorCache => self.vc += 1,
                TapLevel::L2 => {
                    self.l2 += 1;
                    self.l2_hits += u64::from(hit);
                }
            }
        }
        fn scope(&mut self, _scope: TapScope<'_>) {
            self.scopes += 1;
        }
    }

    /// The tap must observe exactly the filtered stream each level sees
    /// (counters agree with the caches), and observing must not change any
    /// latency or statistic.
    #[test]
    fn tap_sees_filtered_streams_and_is_timing_neutral() {
        let run = |tap: bool| -> (MemSystemStats, Vec<u32>) {
            let mut ms =
                MemSystem::new(cfg(VpuPath::DecoupledL2 { vcache_bytes: 2048 }, false, false));
            if tap {
                ms.set_tap(Box::new(CountingSink::default()));
            }
            let mut lats = Vec::new();
            for i in 0..400u64 {
                // A mix of streaming reads, re-references, and dirty evictions.
                let (_, lat) = ms.demand_vector((i % 96) * 64, AccessKind::Read);
                lats.push(lat);
                let (_, lat) = ms.demand_scalar(0x10_0000 + (i % 33) * 64, AccessKind::Write);
                lats.push(lat);
            }
            ms.tap_scope(TapScope::LayerEnd);
            (ms.stats(), lats)
        };
        let (s_off, lat_off) = run(false);
        let (s_on, lat_on) = run(true);
        assert_eq!(lat_off, lat_on, "tap must be timing-neutral");
        assert_eq!(s_off.l2.accesses, s_on.l2.accesses);
        assert_eq!(s_on.l1.accesses, 400, "one scalar access per iteration");
        assert_eq!(s_on.vcache.accesses, 400, "one vector access per iteration");
        // L2 demand stream = L1 misses + vcache misses + dirty writebacks;
        // this filtering is what makes the stream independent of L2 size.
        assert_eq!(
            s_on.l2.accesses,
            s_on.l1.misses + s_on.vcache.misses + s_on.l1.writebacks + s_on.vcache.writebacks
        );
    }

    /// The same, but checking the sink's own counters (white-box): requires
    /// a handle into the sink, so use a shared cell.
    #[test]
    fn tap_counts_match_cache_counters() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Debug)]
        struct Shared(Rc<RefCell<CountingSink>>);
        impl AccessSink for Shared {
            fn access(&mut self, level: TapLevel, line: u64, kind: AccessKind, hit: bool) {
                self.0.borrow_mut().access(level, line, kind, hit);
            }
            fn scope(&mut self, scope: TapScope<'_>) {
                self.0.borrow_mut().scope(scope);
            }
        }

        let counts = Rc::new(RefCell::new(CountingSink::default()));
        let mut ms = MemSystem::new(cfg(VpuPath::DecoupledL2 { vcache_bytes: 2048 }, false, false));
        ms.set_tap(Box::new(Shared(counts.clone())));
        for i in 0..300u64 {
            ms.demand_vector((i % 80) * 64, AccessKind::Read);
            ms.demand_scalar(0x20_0000 + (i % 17) * 64, AccessKind::Write);
        }
        ms.tap_scope(TapScope::LayerBegin { index: 0, desc: "l" });
        ms.tap_scope(TapScope::LayerEnd);
        let st = ms.stats();
        let c = counts.borrow();
        assert_eq!(c.l1, st.l1.accesses);
        assert_eq!(c.vc, st.vcache.accesses);
        assert_eq!(c.l2, st.l2.accesses);
        assert_eq!(c.l2_hits, st.l2.hits);
        assert_eq!(c.scopes, 2);
        assert!(ms.has_tap());
        ms.take_tap();
        assert!(!ms.has_tap());
    }

    /// The idealization knobs clamp latency only: serving levels, cache
    /// state, and every counter evolve exactly as in the factual system.
    #[test]
    fn ideal_knobs_are_timing_only() {
        use crate::ideal::IdealSpec;
        let run = |spec: IdealSpec| {
            let mut ms =
                MemSystem::new(cfg(VpuPath::DecoupledL2 { vcache_bytes: 2048 }, false, false));
            ms.set_ideal(spec);
            let mut lats = Vec::new();
            let mut lvls = Vec::new();
            for i in 0..300u64 {
                let (lvl, lat) = ms.demand_vector((i % 96) * 64, AccessKind::Read);
                lvls.push(lvl);
                lats.push(lat);
                let (lvl, lat) = ms.demand_scalar(0x10_0000 + (i % 40) * 64, AccessKind::Write);
                lvls.push(lvl);
                lats.push(lat);
            }
            (ms.stats(), lvls, lats)
        };
        let (s_base, lvl_base, lat_base) = run(IdealSpec::NONE);
        for spec in [
            IdealSpec { perfect_l1: true, ..IdealSpec::NONE },
            IdealSpec { perfect_l2: true, ..IdealSpec::NONE },
            IdealSpec { perfect_l1: true, perfect_l2: true, ..IdealSpec::NONE },
        ] {
            let (s, lvl, lat) = run(spec);
            assert_eq!(s, s_base, "{spec:?}: counters must be untouched");
            assert_eq!(lvl, lvl_base, "{spec:?}: serving levels must be untouched");
            for (ideal, factual) in lat.iter().zip(&lat_base) {
                assert!(ideal <= factual, "{spec:?}: latency may only shrink");
            }
            if spec.perfect_l1 {
                // Every access costs exactly its first level's hit latency.
                assert!(lat.iter().all(|&l| l == 2 || l == 4), "{spec:?}: {lat:?}");
            }
        }
    }

    /// A single core behind the shared port must see exactly the serving
    /// levels and latencies a private L2 gives — the MemSystem half of the
    /// N=1 bit-identity contract (`lva-scale` pins the full-machine half).
    #[test]
    fn shared_port_single_core_matches_private_l2() {
        use crate::shared::{SharedPort, SharedPortConfig};
        let c = cfg(VpuPath::DecoupledL2 { vcache_bytes: 2048 }, false, false);
        let mut private = MemSystem::new(c.clone());
        let mut attached = MemSystem::new(c.clone());
        let port = SharedPort::new(SharedPortConfig::for_line_bytes(1, c.l2.clone())).into_handle();
        attached.attach_shared_port(port.clone(), 0);
        let mut t = 0u64;
        for i in 0..500u64 {
            attached.set_port_now(t);
            t += 3;
            let a = private.demand_vector((i % 96) * 64, AccessKind::Read);
            let b = attached.demand_vector((i % 96) * 64, AccessKind::Read);
            assert_eq!(a, b, "serving level and latency must match at access {i}");
            let a = private.demand_scalar(0x10_0000 + (i % 33) * 64, AccessKind::Write);
            let b = attached.demand_scalar(0x10_0000 + (i % 33) * 64, AccessKind::Write);
            assert_eq!(a, b);
        }
        assert_eq!(attached.take_contention(), 0, "one core must never be charged contention");
        let sp = private.stats();
        let sa = attached.stats();
        // Shared-L2 counters live on the port; everything else is per-core.
        assert_eq!(sp.l1, sa.l1);
        assert_eq!(sp.vcache, sa.vcache);
        assert_eq!(sp.dram_reads, sa.dram_reads);
        assert_eq!(sp.dram_writes, sa.dram_writes);
        assert_eq!(sa.l2, CacheStats::default(), "private L2 array must sit cold");
        assert_eq!(port.borrow().stats().l2, sp.l2, "port carries the L2 stats");
    }

    #[test]
    #[should_panic(expected = "mixed line sizes")]
    fn mixed_line_sizes_rejected() {
        let mut c = cfg(VpuPath::ThroughL1, false, false);
        c.l2.line_bytes = 128;
        c.l2.bytes = 65536;
        let _ = MemSystem::new(c);
    }
}
