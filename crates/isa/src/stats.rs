//! Execution statistics: instruction counts, consumed vector length,
//! floating-point work, and per-kernel-phase cycle attribution.

/// Counters maintained by the [`crate::Machine`] timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VpuStats {
    /// Vector instructions issued (arithmetic + memory + moves).
    pub vec_instrs: u64,
    /// Vector memory instructions (subset of `vec_instrs`).
    pub vec_mem_instrs: u64,
    /// Sum of active element counts over all vector instructions; the
    /// average consumed vector length of Table III is
    /// `32 * active_elems / vec_instrs` bits.
    pub active_elems: u64,
    /// Floating-point operations performed by vector instructions
    /// (FMA counts two per element).
    pub vec_flops: u64,
    /// Floating-point operations charged by scalar code.
    pub scalar_flops: u64,
    /// Scalar instructions / operation units charged in bulk.
    pub scalar_ops: u64,
    /// Software prefetch instructions issued (even if dropped).
    pub sw_prefetches: u64,
    /// Vector register spill fills/stores inserted by kernels.
    pub spills: u64,
}

impl VpuStats {
    /// Average consumed vector length in **bits** (Table III).
    pub fn avg_vlen_bits(&self) -> f64 {
        if self.vec_instrs == 0 {
            0.0
        } else {
            32.0 * self.active_elems as f64 / self.vec_instrs as f64
        }
    }

    /// Merge counters from another stats block.
    pub fn merge(&mut self, o: &VpuStats) {
        self.vec_instrs += o.vec_instrs;
        self.vec_mem_instrs += o.vec_mem_instrs;
        self.active_elems += o.active_elems;
        self.vec_flops += o.vec_flops;
        self.scalar_flops += o.scalar_flops;
        self.scalar_ops += o.scalar_ops;
        self.sw_prefetches += o.sw_prefetches;
        self.spills += o.spills;
    }

    /// Difference of two snapshots (`self` later, `earlier` first): the
    /// counts incurred in between.
    pub fn since(&self, earlier: &VpuStats) -> VpuStats {
        VpuStats {
            vec_instrs: self.vec_instrs - earlier.vec_instrs,
            vec_mem_instrs: self.vec_mem_instrs - earlier.vec_mem_instrs,
            active_elems: self.active_elems - earlier.active_elems,
            vec_flops: self.vec_flops - earlier.vec_flops,
            scalar_flops: self.scalar_flops - earlier.scalar_flops,
            scalar_ops: self.scalar_ops - earlier.scalar_ops,
            sw_prefetches: self.sw_prefetches - earlier.sw_prefetches,
            spills: self.spills - earlier.spills,
        }
    }
}

/// Why the scalar front-end could not issue the next vector instruction
/// immediately. Every stalled cycle the timing model inserts is attributed
/// to exactly one cause, so the per-cause counters of a [`StallBreakdown`]
/// always sum to its total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Read-after-write dependency on a vector register still in flight
    /// (beyond what the out-of-order window hides).
    RawHazard,
    /// The fixed startup ramp of the vector pipeline (depth + lane fill)
    /// exposed on a dependent instruction.
    VectorStartup,
    /// Cache-miss latency the memory unit could not overlap (the exposed
    /// portion of vector loads/stores occupying the unit).
    MemLatency,
    /// The vector unit was busy executing element groups: occupancy from
    /// chimes, i.e. work serialised by the lane count.
    LaneOccupancy,
    /// Dead cycles between back-to-back vector instructions
    /// (`inter_instr_gap`: decode/dispatch bandwidth of the front-end).
    IssueWidth,
    /// Cycles spent waiting for the shared L2/DRAM port behind another
    /// core's in-flight transfer (`lva-scale` multi-core SoC runs). Always
    /// zero on a single-core machine: the port model only charges
    /// *cross-core* interference, never a core's own serialization.
    Contention,
}

impl StallCause {
    pub const ALL: [StallCause; 6] = [
        StallCause::RawHazard,
        StallCause::VectorStartup,
        StallCause::MemLatency,
        StallCause::LaneOccupancy,
        StallCause::IssueWidth,
        StallCause::Contention,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StallCause::RawHazard => "raw_hazard",
            StallCause::VectorStartup => "vector_startup",
            StallCause::MemLatency => "mem_latency",
            StallCause::LaneOccupancy => "lane_occupancy",
            StallCause::IssueWidth => "issue_width",
            StallCause::Contention => "contention",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

const _: () = {
    let mut i = 0;
    while i < StallCause::ALL.len() {
        assert!(StallCause::ALL[i] as usize == i, "StallCause::ALL out of declaration order");
        i += 1;
    }
};

/// Per-cause attribution of every cycle the scalar clock waited on the
/// vector/memory subsystem. Carried alongside [`VpuStats`] by the machine.
///
/// The `total` is accumulated *independently* of the per-cause counters
/// (via [`StallBreakdown::note_total`]) so that the invariant "causes sum
/// to total" is a real cross-check of the attribution logic, not an
/// identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    by_cause: [u64; 6],
    total: u64,
}

impl StallBreakdown {
    /// Attribute `cycles` to `cause`.
    #[inline]
    pub fn add(&mut self, cause: StallCause, cycles: u64) {
        self.by_cause[cause.index()] += cycles;
    }

    /// Record `cycles` of total stall time (independent of attribution).
    #[inline]
    pub fn note_total(&mut self, cycles: u64) {
        self.total += cycles;
    }

    pub fn get(&self, cause: StallCause) -> u64 {
        self.by_cause[cause.index()]
    }

    /// Total stalled cycles as accumulated by [`Self::note_total`].
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of the per-cause counters; equals [`Self::total`] when the
    /// attribution logic is consistent.
    pub fn attributed(&self) -> u64 {
        self.by_cause.iter().sum()
    }

    pub fn merge(&mut self, o: &StallBreakdown) {
        for (a, b) in self.by_cause.iter_mut().zip(o.by_cause.iter()) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Difference of two snapshots (`self` later, `earlier` first): the
    /// stalls incurred in between. Used for per-layer deltas.
    pub fn since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        let mut d = StallBreakdown::default();
        for (i, slot) in d.by_cause.iter_mut().enumerate() {
            *slot = self.by_cause[i] - earlier.by_cause[i];
        }
        d.total = self.total - earlier.total;
        d
    }

    /// Causes with non-zero cycles, largest first.
    pub fn breakdown(&self) -> Vec<(StallCause, u64)> {
        let mut v: Vec<(StallCause, u64)> = StallCause::ALL
            .iter()
            .copied()
            .map(|c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }
}

/// Kernel phases used for the §II-B execution-time breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPhase {
    Gemm,
    Im2col,
    WinogradInputTransform,
    WinogradWeightTransform,
    WinogradTupleMul,
    WinogradOutputTransform,
    Pack,
    Bias,
    Normalize,
    Activate,
    Pool,
    Upsample,
    Softmax,
    FillCopy,
    Other,
}

impl KernelPhase {
    pub const ALL: [KernelPhase; 15] = [
        KernelPhase::Gemm,
        KernelPhase::Im2col,
        KernelPhase::WinogradInputTransform,
        KernelPhase::WinogradWeightTransform,
        KernelPhase::WinogradTupleMul,
        KernelPhase::WinogradOutputTransform,
        KernelPhase::Pack,
        KernelPhase::Bias,
        KernelPhase::Normalize,
        KernelPhase::Activate,
        KernelPhase::Pool,
        KernelPhase::Upsample,
        KernelPhase::Softmax,
        KernelPhase::FillCopy,
        KernelPhase::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            KernelPhase::Gemm => "gemm",
            KernelPhase::Im2col => "im2col",
            KernelPhase::WinogradInputTransform => "wino_input_t",
            KernelPhase::WinogradWeightTransform => "wino_weight_t",
            KernelPhase::WinogradTupleMul => "wino_tuple_mul",
            KernelPhase::WinogradOutputTransform => "wino_output_t",
            KernelPhase::Pack => "pack",
            KernelPhase::Bias => "add_bias",
            KernelPhase::Normalize => "normalize",
            KernelPhase::Activate => "activate",
            KernelPhase::Pool => "maxpool",
            KernelPhase::Upsample => "upsample",
            KernelPhase::Softmax => "softmax",
            KernelPhase::FillCopy => "fill/copy",
            KernelPhase::Other => "other",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

// `index()` relies on `ALL` listing the variants in declaration order so the
// discriminant doubles as the array index; verify at compile time.
const _: () = {
    let mut i = 0;
    while i < KernelPhase::ALL.len() {
        assert!(KernelPhase::ALL[i] as usize == i, "KernelPhase::ALL out of declaration order");
        i += 1;
    }
};

/// Accumulates cycles per [`KernelPhase`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimer {
    cycles: [u64; 15],
}

impl PhaseTimer {
    pub fn add(&mut self, phase: KernelPhase, cycles: u64) {
        self.cycles[phase.index()] += cycles;
    }

    pub fn get(&self, phase: KernelPhase) -> u64 {
        self.cycles[phase.index()]
    }

    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    pub fn merge(&mut self, o: &PhaseTimer) {
        for (a, b) in self.cycles.iter_mut().zip(o.cycles.iter()) {
            *a += b;
        }
    }

    /// Phases with non-zero time, largest first.
    pub fn breakdown(&self) -> Vec<(KernelPhase, u64)> {
        let mut v: Vec<(KernelPhase, u64)> = KernelPhase::ALL
            .iter()
            .copied()
            .map(|p| (p, self.get(p)))
            .filter(|&(_, c)| c > 0)
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_vlen_bits() {
        let s = VpuStats { vec_instrs: 4, active_elems: 4 * 16, ..Default::default() };
        assert_eq!(s.avg_vlen_bits(), 512.0);
        assert_eq!(VpuStats::default().avg_vlen_bits(), 0.0);
    }

    #[test]
    fn phase_timer_accumulates_and_sorts() {
        let mut t = PhaseTimer::default();
        t.add(KernelPhase::Gemm, 100);
        t.add(KernelPhase::Im2col, 7);
        t.add(KernelPhase::Gemm, 20);
        assert_eq!(t.get(KernelPhase::Gemm), 120);
        assert_eq!(t.total(), 127);
        let bd = t.breakdown();
        assert_eq!(bd[0], (KernelPhase::Gemm, 120));
        assert_eq!(bd.len(), 2);
    }

    #[test]
    fn stall_breakdown_accumulates_and_diffs() {
        let mut s = StallBreakdown::default();
        s.add(StallCause::RawHazard, 10);
        s.add(StallCause::MemLatency, 30);
        s.note_total(40);
        assert_eq!(s.get(StallCause::RawHazard), 10);
        assert_eq!(s.attributed(), 40);
        assert_eq!(s.total(), 40);
        assert_eq!(s.breakdown()[0], (StallCause::MemLatency, 30));

        let snapshot = s;
        s.add(StallCause::IssueWidth, 5);
        s.note_total(5);
        let d = s.since(&snapshot);
        assert_eq!(d.get(StallCause::IssueWidth), 5);
        assert_eq!(d.get(StallCause::MemLatency), 0);
        assert_eq!(d.total(), 5);

        let mut m = StallBreakdown::default();
        m.merge(&s);
        m.merge(&snapshot);
        assert_eq!(m.total(), s.total() + snapshot.total());
        assert_eq!(m.attributed(), s.attributed() + snapshot.attributed());
    }

    #[test]
    fn stall_cause_names_are_distinct() {
        for (i, a) in StallCause::ALL.iter().enumerate() {
            for b in &StallCause::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn stats_merge() {
        let mut a = VpuStats { vec_instrs: 1, vec_flops: 10, ..Default::default() };
        let b = VpuStats { vec_instrs: 2, scalar_flops: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.vec_instrs, 3);
        assert_eq!((a.vec_flops, a.scalar_flops), (10, 5));
    }
}
