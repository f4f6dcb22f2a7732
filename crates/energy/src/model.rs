//! The event-energy model — constants and the two charging paths.
//!
//! §I motivates vector CPUs by energy efficiency and §V notes that caches
//! "occupy significant die area", but the paper stops at performance. This
//! module closes the loop with a simple, documented event-energy model so
//! the harness can report energy-per-inference and energy-delay product
//! across the same design grid, exposing the point where ever-larger L2
//! caches stop paying for their leakage.
//!
//! The constants are order-of-magnitude values for a 7 nm-class process
//! (CACTI-flavoured SRAM access energies, DRAM interface energy, published
//! FMA energy estimates). Absolute joules are indicative; *relative*
//! comparisons across design points are the purpose.
//!
//! Two consumers share one charging function ([`EnergyModel::charge`]):
//!
//! * the **aggregate** path ([`EnergyModel::estimate`]) folds a finished
//!   run's counters ([`EnergyCounts::from_report`]) into one
//!   [`EnergyBreakdown`];
//! * the **streaming** path (`crate::probe`) accumulates the same integer
//!   counts per layer as events arrive and charges each layer separately.
//!
//! Because both paths multiply the *same integer counts* by the *same
//! constants*, the streamed per-layer total reconciles with the aggregate
//! estimate to float-rounding precision — the sum-to-total invariant the
//! tests pin at 1e-6 relative.

use lva_nn::NetReport;

/// Event energies and static power of a simulated design point.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// Energy per single-precision vector flop (pJ).
    pub pj_per_vector_flop: f64,
    /// Energy per scalar operation unit, fetch/decode included (pJ).
    pub pj_per_scalar_op: f64,
    /// Energy per vector instruction issued (control overhead) (pJ).
    pub pj_per_vec_instr: f64,
    /// Energy per L1 / vector-cache line access (pJ).
    pub pj_per_l1_access: f64,
    /// Energy per L2 access for a 1 MB array (pJ); scales with sqrt(size).
    pub pj_per_l2_access_1mb: f64,
    /// Energy per DRAM line transfer (pJ).
    pub pj_per_dram_access: f64,
    /// L2 leakage + refresh power per MiB (mW).
    pub leakage_mw_per_mb_l2: f64,
    /// Static core power excluding the L2 (mW).
    pub core_static_mw: f64,
    /// Clock frequency (GHz) used to convert cycles to seconds.
    pub freq_ghz: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            pj_per_vector_flop: 0.8,
            pj_per_scalar_op: 8.0,
            pj_per_vec_instr: 15.0,
            pj_per_l1_access: 12.0,
            pj_per_l2_access_1mb: 30.0,
            pj_per_dram_access: 2_500.0,
            leakage_mw_per_mb_l2: 8.0,
            core_static_mw: 150.0,
            freq_ghz: 2.0,
        }
    }
}

/// Integer event counts of one attribution scope (a layer, or a whole run).
/// The accumulation unit of the streaming probe: counts are exact, and the
/// model constants are applied only when a scope is charged, so streamed
/// and aggregate joules agree to float rounding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounts {
    /// Vector flops executed (scaled by granted vl and the op's
    /// flops-per-element, exactly like `VpuStats::vec_flops`).
    pub vec_flops: u64,
    /// Vector instructions issued.
    pub vec_instrs: u64,
    /// Scalar operation units charged (ops + scalar flops).
    pub scalar_ops: u64,
    /// First-level demand accesses (L1 data cache + vector cache).
    pub l1_accesses: u64,
    /// L2 demand accesses (misses + writebacks from the first level).
    pub l2_accesses: u64,
    /// DRAM line transfers (fetches + dirty-victim writebacks).
    pub dram_transfers: u64,
    /// Prefetcher fills into the first level.
    pub l1_prefetch_fills: u64,
    /// Prefetcher fills into the L2.
    pub l2_prefetch_fills: u64,
}

impl EnergyCounts {
    /// The counts of a completed run, from its aggregate counters — the
    /// reference the streamed per-layer counts must sum to.
    pub fn from_report(report: &NetReport) -> EnergyCounts {
        let v = &report.vpu;
        let m = &report.mem;
        EnergyCounts {
            vec_flops: v.vec_flops,
            vec_instrs: v.vec_instrs,
            scalar_ops: v.scalar_ops + v.scalar_flops,
            l1_accesses: m.l1.accesses + m.vcache.accesses,
            l2_accesses: m.l2.accesses,
            dram_transfers: m.dram_reads + m.dram_writes,
            l1_prefetch_fills: m.l1.prefetch_fills + m.vcache.prefetch_fills,
            l2_prefetch_fills: m.l2.prefetch_fills,
        }
    }

    pub fn add(&mut self, o: &EnergyCounts) {
        self.vec_flops += o.vec_flops;
        self.vec_instrs += o.vec_instrs;
        self.scalar_ops += o.scalar_ops;
        self.l1_accesses += o.l1_accesses;
        self.l2_accesses += o.l2_accesses;
        self.dram_transfers += o.dram_transfers;
        self.l1_prefetch_fills += o.l1_prefetch_fills;
        self.l2_prefetch_fills += o.l2_prefetch_fills;
    }
}

/// Joules of one attribution scope, one field per bucket. Every simulated
/// event is charged to exactly one bucket (the same contract as
/// `StallBreakdown`): a vector op's flops land in `vector_alu_j`, its issue
/// in `vector_issue_j`, each cache access at the level that served it, each
/// DRAM line transfer in `dram_j`, each prefetcher fill in `prefetch_j`,
/// and leakage over the scope's cycles in `static_j`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Vector datapath energy: flops × pJ/flop.
    pub vector_alu_j: f64,
    /// Vector control energy: instructions issued × pJ/instr.
    pub vector_issue_j: f64,
    /// Scalar core energy (address arithmetic, loop control, scalar flops).
    pub scalar_j: f64,
    /// First-level array energy (L1 data cache + vector cache accesses).
    pub l1_j: f64,
    /// L2 array energy (sqrt-capacity-scaled per access).
    pub l2_j: f64,
    /// DRAM interface energy (line transfers, both directions).
    pub dram_j: f64,
    /// Prefetcher fill energy, charged at the filled level's access energy.
    pub prefetch_j: f64,
    /// Leakage + static core power over the scope's cycles.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Dynamic compute energy (ALU + issue + scalar).
    pub fn compute_j(&self) -> f64 {
        self.vector_alu_j + self.vector_issue_j + self.scalar_j
    }

    /// Dynamic memory-hierarchy energy (L1 + L2 + DRAM + prefetch fills).
    pub fn memory_j(&self) -> f64 {
        self.l1_j + self.l2_j + self.dram_j + self.prefetch_j
    }

    /// All buckets summed: the scope's total joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j() + self.memory_j() + self.static_j
    }

    /// A bucket's share of the total; 0 for an empty scope (no NaN).
    pub fn frac(&self, bucket_j: f64) -> f64 {
        let t = self.total_j();
        if t > 0.0 {
            bucket_j / t
        } else {
            0.0
        }
    }

    pub fn add(&mut self, o: &EnergyBreakdown) {
        self.vector_alu_j += o.vector_alu_j;
        self.vector_issue_j += o.vector_issue_j;
        self.scalar_j += o.scalar_j;
        self.l1_j += o.l1_j;
        self.l2_j += o.l2_j;
        self.dram_j += o.dram_j;
        self.prefetch_j += o.prefetch_j;
        self.static_j += o.static_j;
    }

    /// Named buckets in report order (for serialization and tables).
    pub fn buckets(&self) -> [(&'static str, f64); 8] {
        [
            ("vector_alu", self.vector_alu_j),
            ("vector_issue", self.vector_issue_j),
            ("scalar", self.scalar_j),
            ("l1", self.l1_j),
            ("l2", self.l2_j),
            ("dram", self.dram_j),
            ("prefetch_fill", self.prefetch_j),
            ("static", self.static_j),
        ]
    }
}

/// Energy estimate for one run, the compute/memory/static view consumers
/// key their tables on. All derived metrics are guarded against zero-cycle
/// and zero-access runs (no NaN, mirroring the `CacheStats` guards).
#[derive(Debug, Clone, Copy)]
pub struct EnergyReport {
    /// Dynamic compute energy (vector flops + scalar ops + issue), joules.
    pub compute_j: f64,
    /// Dynamic memory-hierarchy energy, joules.
    pub memory_j: f64,
    /// Static/leakage energy over the run's wall time, joules.
    pub static_j: f64,
    /// Run wall time in seconds.
    pub seconds: f64,
}

impl EnergyReport {
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.memory_j + self.static_j
    }

    /// Energy-delay product (J*s): the co-design figure of merit that
    /// penalizes both slow and power-hungry points.
    pub fn edp(&self) -> f64 {
        self.total_j() * self.seconds
    }

    /// Energy-delay-squared product (J*s²): weights latency harder, for
    /// latency-critical deployments.
    pub fn ed2p(&self) -> f64 {
        self.total_j() * self.seconds * self.seconds
    }

    /// Average power draw over the run (W); 0 for a zero-cycle run.
    pub fn avg_power_w(&self) -> f64 {
        if self.seconds > 0.0 {
            self.total_j() / self.seconds
        } else {
            0.0
        }
    }

    /// Achieved energy per mathematical flop (pJ); 0 when no flops ran.
    pub fn pj_per_flop(&self, flops: u64) -> f64 {
        if flops > 0 {
            self.total_j() * 1e12 / flops as f64
        } else {
            0.0
        }
    }
}

impl EnergyModel {
    /// L2 access energy scaled to the configured capacity (bit-line and
    /// wire energy grow roughly with the square root of the array).
    pub fn pj_per_l2_access(&self, l2_bytes: usize) -> f64 {
        let ratio = l2_bytes as f64 / f64::from(1 << 20);
        self.pj_per_l2_access_1mb * ratio.max(1.0).sqrt()
    }

    /// Static power of the design point (core + L2 leakage), in mW.
    pub fn static_mw(&self, l2_bytes: usize) -> f64 {
        self.core_static_mw + self.leakage_mw_per_mb_l2 * (l2_bytes as f64 / f64::from(1 << 20))
    }

    /// Static energy over `cycles` at the model's clock, in joules.
    pub fn static_j(&self, cycles: u64, l2_bytes: usize) -> f64 {
        self.static_mw(l2_bytes) * 1e-3 * self.seconds(cycles)
    }

    /// Cycles → seconds at the model's clock frequency.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Charge one scope's integer counts plus its cycles (for static
    /// energy) into joules per bucket. The single multiplication point both
    /// the streaming and the aggregate paths go through.
    pub fn charge(&self, c: &EnergyCounts, cycles: u64, l2_bytes: usize) -> EnergyBreakdown {
        const PJ: f64 = 1e-12;
        let l2_pj = self.pj_per_l2_access(l2_bytes);
        EnergyBreakdown {
            vector_alu_j: PJ * c.vec_flops as f64 * self.pj_per_vector_flop,
            vector_issue_j: PJ * c.vec_instrs as f64 * self.pj_per_vec_instr,
            scalar_j: PJ * c.scalar_ops as f64 * self.pj_per_scalar_op,
            l1_j: PJ * c.l1_accesses as f64 * self.pj_per_l1_access,
            l2_j: PJ * c.l2_accesses as f64 * l2_pj,
            dram_j: PJ * c.dram_transfers as f64 * self.pj_per_dram_access,
            prefetch_j: PJ
                * (c.l1_prefetch_fills as f64 * self.pj_per_l1_access
                    + c.l2_prefetch_fills as f64 * l2_pj),
            static_j: self.static_j(cycles, l2_bytes),
        }
    }

    /// Estimate the energy of a completed run on a design point with
    /// `l2_bytes` of L2, from the run's aggregate counters.
    pub fn estimate(&self, report: &NetReport, l2_bytes: usize) -> EnergyReport {
        let b = self.charge(&EnergyCounts::from_report(report), report.cycles, l2_bytes);
        EnergyReport {
            compute_j: b.compute_j(),
            memory_j: b.memory_j(),
            static_j: b.static_j,
            seconds: self.seconds(report.cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_access_energy_scales_sublinearly() {
        let m = EnergyModel::default();
        let e1 = m.pj_per_l2_access(1 << 20);
        let e256 = m.pj_per_l2_access(256 << 20);
        assert!(e256 > e1);
        assert!(e256 < 256.0 * e1);
        assert!((e256 / e1 - 16.0).abs() < 1e-9, "sqrt scaling");
    }

    #[test]
    fn breakdown_buckets_sum_to_total() {
        let m = EnergyModel::default();
        let c = EnergyCounts {
            vec_flops: 1000,
            vec_instrs: 10,
            scalar_ops: 50,
            l1_accesses: 200,
            l2_accesses: 40,
            dram_transfers: 5,
            l1_prefetch_fills: 3,
            l2_prefetch_fills: 7,
        };
        let b = m.charge(&c, 10_000, 4 << 20);
        let by_bucket: f64 = b.buckets().iter().map(|(_, j)| j).sum();
        assert!((by_bucket - b.total_j()).abs() < 1e-18);
        assert!(b.buckets().iter().all(|(_, j)| *j > 0.0), "every bucket charged: {b:?}");
        assert!((b.compute_j() + b.memory_j() + b.static_j - b.total_j()).abs() < 1e-18);
    }

    /// The satellite regression: a zero-cycle / zero-access scope must
    /// produce finite zeros everywhere, never NaN (mirrors the `CacheStats`
    /// guards).
    #[test]
    fn degenerate_runs_are_nan_free() {
        let m = EnergyModel::default();
        let b = m.charge(&EnergyCounts::default(), 0, 1 << 20);
        assert_eq!(b.total_j(), 0.0);
        assert_eq!(b.frac(b.dram_j), 0.0, "empty scope fraction is 0, not NaN");
        let r = EnergyReport { compute_j: 0.0, memory_j: 0.0, static_j: 0.0, seconds: 0.0 };
        for v in [r.total_j(), r.edp(), r.ed2p(), r.avg_power_w(), r.pj_per_flop(0)] {
            assert!(v.is_finite());
            assert_eq!(v, 0.0);
        }
        // Non-degenerate fractions still work.
        let b = m.charge(&EnergyCounts { vec_flops: 1, ..Default::default() }, 1, 1 << 20);
        assert!(b.frac(b.vector_alu_j) > 0.0 && b.frac(b.vector_alu_j) <= 1.0);
    }

    #[test]
    fn charge_matches_hand_computation() {
        let m = EnergyModel::default();
        let c = EnergyCounts { dram_transfers: 4, ..Default::default() };
        let b = m.charge(&c, 2_000_000_000, 2 << 20);
        assert!((b.dram_j - 4.0 * 2_500.0e-12).abs() < 1e-18);
        // 2 GHz, 2e9 cycles = 1 s; 150 mW core + 16 mW leakage for 2 MB.
        assert!((b.static_j - 0.166).abs() < 1e-12, "{}", b.static_j);
    }
}
