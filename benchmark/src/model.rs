//! Model-side counts of a workload: what the simulated machine did, summed
//! over the workload's seed-independent requests. These explain a change
//! in simulated cycles layer by layer (ISA, memory hierarchy, kernels).

use crate::report::Metrics;
use lva_core::RunSummary;
use lva_isa::{KernelPhase, PhaseTimer, StallBreakdown, StallCause, VpuStats};
use lva_sim::CacheStats;

#[derive(Debug, Default, Clone)]
pub struct Model {
    vpu: VpuStats,
    stalls: StallBreakdown,
    l1: CacheStats,
    l2: CacheStats,
    vcache: CacheStats,
    dram_lines: u64,
    hwpf_issued: u64,
    phases: PhaseTimer,
}

impl Model {
    pub fn add_run(&mut self, s: &RunSummary) {
        let r = &s.report;
        self.vpu.merge(&r.vpu);
        self.stalls.merge(&r.stalls);
        self.l1.merge(&r.mem.l1);
        self.l2.merge(&r.mem.l2);
        self.vcache.merge(&r.mem.vcache);
        self.dram_lines += r.mem.dram_reads + r.mem.dram_writes;
        self.hwpf_issued += r.mem.hwpf_issued;
        self.phases.merge(&r.phases);
    }

    /// Add shared-port wait cycles of multi-core runs (the one stall cause
    /// a single-core summary never carries).
    pub fn add_contention(&mut self, cycles: u64) {
        self.stalls.add(StallCause::Contention, cycles);
        self.stalls.note_total(cycles);
    }

    pub fn push_metrics(&self, m: &mut Metrics) {
        let mega = |x: u64| x as f64 / 1e6;
        m.push("isa.vec_instrs_m", mega(self.vpu.vec_instrs), "M");
        m.push("isa.scalar_ops_m", mega(self.vpu.scalar_ops), "M");
        for c in StallCause::ALL {
            m.push(&format!("isa.stall.{}_mcycles", c.name()), mega(self.stalls.get(c)), "Mcycles");
        }
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2), ("vcache", &self.vcache)] {
            m.push(&format!("sim.{name}.accesses_m"), mega(c.accesses), "M");
        }
        m.push("sim.l1.hit_rate", self.l1.hit_rate(), "ratio");
        m.push("sim.l2.hit_rate", self.l2.hit_rate(), "ratio");
        m.push("sim.dram_lines_m", mega(self.dram_lines), "M");
        m.push("sim.hwpf_issued_m", mega(self.hwpf_issued), "M");
        let named = [
            ("gemm", KernelPhase::Gemm),
            ("im2col", KernelPhase::Im2col),
            ("maxpool", KernelPhase::Pool),
        ];
        let mut other = self.phases.total();
        for (name, p) in named {
            let c = self.phases.get(p);
            other -= c;
            m.push(&format!("kernels.phase.{name}_mcycles"), mega(c), "Mcycles");
        }
        m.push("kernels.phase.other_mcycles", mega(other), "Mcycles");
    }
}
