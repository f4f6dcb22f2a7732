//! Per-layer energy from the simulator's own counters.
//!
//! The machine's layer book ([`lva_isa::Machine::layers`]) records its
//! VPU and memory-system counters at every layer boundary. A layer's
//! integer counts are the difference of its record's two ends, and the
//! `outside` bucket is the run's aggregate counts minus the layers' sum, so
//! layers plus `outside` equal the aggregate by construction. Joules appear
//! only when [`EnergyAttribution::new`] charges each scope through the same
//! [`EnergyModel::charge`] the aggregate estimate uses, which is why the
//! per-layer joules reconcile with [`EnergyModel::estimate`] to float
//! rounding (pinned at 1e-6 relative).
//!
//! The book is kept on every run, so an attributed run is an ordinary run.

use crate::model::{EnergyBreakdown, EnergyCounts, EnergyModel, EnergyReport};
use lva_isa::{Counters, LayerRecord};
use lva_nn::NetReport;
use lva_trace::Json;

/// One layer's attributed energy.
#[derive(Debug, Clone)]
pub struct LayerEnergy {
    pub index: usize,
    pub desc: String,
    /// Cycles the layer took (from its record); basis of its static-energy
    /// share.
    pub cycles: u64,
    /// Integer event counts between the layer's two boundaries.
    pub counts: EnergyCounts,
    /// The counts charged through the model.
    pub breakdown: EnergyBreakdown,
}

/// The finished attribution: per-layer joules, the residual `outside`
/// bucket, the attributed total, and the aggregate reference it reconciles
/// against.
#[derive(Debug, Clone)]
pub struct EnergyAttribution {
    pub layers: Vec<LayerEnergy>,
    /// Events outside any layer plus static energy of cycles not covered
    /// by a layer (run prologue/epilogue). Zero on a network run.
    pub outside: EnergyBreakdown,
    /// Integer counts behind `outside` (all of a bare kernel run's counts
    /// land here — kernels open no layer scope).
    pub outside_counts: EnergyCounts,
    /// Sum of every layer's breakdown plus `outside` — the attributed total.
    pub total: EnergyBreakdown,
    /// The aggregate estimate from the run's counters (the reference of
    /// the sum-to-total invariant).
    pub report: EnergyReport,
    /// Mathematical flops of the run (for the energy roofline).
    pub flops: u64,
    /// Run wall time in seconds.
    pub seconds: f64,
    /// Floor set by the datapath alone: mathematical flops at pJ/flop.
    pub floor_j: f64,
}

impl EnergyAttribution {
    /// Charge each layer's counter delta into joules. `layers` is the
    /// machine's layer book ([`lva_isa::Machine::layers`]) for the run
    /// `report` describes; `report` supplies the aggregate reference.
    pub fn new(
        report: &NetReport,
        layers: &[LayerRecord],
        model: &EnergyModel,
        l2_bytes: usize,
    ) -> EnergyAttribution {
        let at = |c: &Counters| EnergyCounts::from_stats(&c.vpu, &c.mem);
        let mut attributed = Vec::with_capacity(layers.len());
        let mut in_layers = EnergyCounts::default();
        let mut covered_cycles = 0u64;
        let mut total = EnergyBreakdown::default();
        for l in layers {
            let counts = at(&l.end).since(&at(&l.begin));
            let cycles = l.cycles();
            covered_cycles += cycles;
            in_layers.add(&counts);
            let breakdown = model.charge(&counts, cycles, l2_bytes);
            total.add(&breakdown);
            attributed.push(LayerEnergy {
                index: l.index,
                desc: l.desc.clone(),
                cycles,
                counts,
                breakdown,
            });
        }
        // Counts outside every layer, and the static energy of cycles no
        // layer covers, so layers + outside == whole run.
        let outside_counts = EnergyCounts::from_report(report).since(&in_layers);
        let residual = report.cycles.saturating_sub(covered_cycles);
        let outside = model.charge(&outside_counts, residual, l2_bytes);
        total.add(&outside);

        let flops = report.flops();
        EnergyAttribution {
            layers: attributed,
            outside,
            outside_counts,
            total,
            report: model.estimate(report, l2_bytes),
            flops,
            seconds: model.seconds(report.cycles),
            floor_j: 1e-12 * flops as f64 * model.pj_per_vector_flop,
        }
    }

    /// Relative disagreement between the attributed total and the aggregate
    /// estimate — the sum-to-total invariant, pinned below 1e-6 by tests.
    pub fn reconciliation_rel_err(&self) -> f64 {
        let agg = self.report.total_j();
        if agg > 0.0 {
            (self.total.total_j() - agg).abs() / agg
        } else {
            self.total.total_j().abs()
        }
    }

    /// Energy roofline: how close the run's joules are to the datapath
    /// floor (mathematical flops × pJ/flop), as % of total. 100% would
    /// mean every joule went into mandatory arithmetic.
    pub fn roofline_pct(&self) -> f64 {
        let t = self.total.total_j();
        if t > 0.0 {
            100.0 * self.floor_j / t
        } else {
            0.0
        }
    }

    fn breakdown_json(b: &EnergyBreakdown) -> Json {
        let mut o = Json::obj().field("total_j", b.total_j());
        for (name, j) in b.buckets() {
            o = o.field(&format!("{name}_j"), j);
        }
        o
    }

    /// The `energy` section of a `RunReport`: run-level metrics, the
    /// bucket breakdown, and per-layer joules.
    pub fn to_json(&self) -> Json {
        let layers: Vec<Json> = self
            .layers
            .iter()
            .map(|l| {
                Json::obj()
                    .field("index", l.index)
                    .field("desc", l.desc.as_str())
                    .field("cycles", l.cycles)
                    .field("total_j", l.breakdown.total_j())
                    .field("breakdown", Self::breakdown_json(&l.breakdown))
            })
            .collect();
        Json::obj()
            .field("total_j", self.total.total_j())
            .field("compute_j", self.total.compute_j())
            .field("memory_j", self.total.memory_j())
            .field("static_j", self.total.static_j)
            .field("seconds", self.seconds)
            .field("edp_js", self.report.edp())
            .field("ed2p_js2", self.report.ed2p())
            .field("avg_power_w", self.report.avg_power_w())
            .field("pj_per_flop", self.report.pj_per_flop(self.flops))
            .field("roofline_pct", self.roofline_pct())
            .field("reconciliation_rel_err", self.reconciliation_rel_err())
            .field("breakdown", Self::breakdown_json(&self.total))
            .field("outside_j", self.outside.total_j())
            .field("layers", layers)
    }
}
