//! # lva-whatif — counterfactual profiling and the co-design advisor
//!
//! PR 1's `StallBreakdown` is *correlational*: it attributes each stalled
//! cycle to the proximate cause observed at stall time. This crate answers
//! the *causal* question a co-designer actually asks — "how many cycles
//! would I get back if this bottleneck vanished?" — by re-running the same
//! workload under opt-in [`IdealSpec`] idealizations (perfect first-level
//! cache, free DRAM, zero vector startup, infinite lanes, infinite issue)
//! and measuring `cycles_saved_if_fixed` directly.
//!
//! The two views are cross-checked: each knob maps to one [`StallCause`]
//! ([`IdealKnob::cause`]), and the analysis reports per-cause agreement
//! between causal savings and attributed stall cycles. Where they diverge
//! (overlapped latencies, second-order interactions) the causal number is
//! the one to trust; the attribution remains useful because it is free.
//!
//! Bound classification ([`Bound`]) follows dominant recovery: the knob that
//! saves the most cycles names the bound, unless no knob saves at least
//! [`COMPUTE_BOUND_THRESHOLD`] of the factual cycles — then the region is
//! compute-bound and the advisor recommends algorithmic work instead of
//! hardware. Methodology and the agreement contract live in DESIGN.md §13.

#![forbid(unsafe_code)]

pub mod roofline;
pub mod scale;
pub mod slo;

pub use scale::{
    advise, find_knee, scaling_efficiency, ScaleAdvice, ScaleCell, ScaleLever,
    CONTENTION_BOUND_SHARE, SCALING_KNEE_EFFICIENCY,
};
pub use slo::{design_cost, recommend, ServingPoint, SloRecommendation};

use lva_check::KernelCase;
use lva_core::{EnergyModel, Experiment, RunSummary};
use lva_isa::{IdealKnob, IdealSpec, Machine, MachineConfig, StallBreakdown, StallCause};
use lva_trace::Json;

/// A knob must recover at least this fraction of factual cycles to name the
/// bound; below it the region is classified compute-bound (no modeled
/// resource is worth idealizing).
pub const COMPUTE_BOUND_THRESHOLD: f64 = 0.05;

/// Documented ceiling on the causal-vs-attributed gap, as a fraction of
/// factual cycles, for every directly-mapped knob across the `lva-check`
/// kernel registry at the four Table II design points (see the
/// `causal_and_attributed_stalls_agree` test, which enforces it).
///
/// Measured worst case at pinning time was 0.241 (`gemm_naive` on
/// rvv/4096b, `perfect_l1`: the attribution charged 0 cycles to
/// `MemLatency` because the decoupled memory unit's exposed miss time hides
/// inside unit-busy occupancy, yet the counterfactual recovered 24% of the
/// run — the classic case where the causal view sees through overlap that
/// fools the proximate-cause view). The contract is deliberately loose —
/// the two views answer different questions — but it bounds drift: a
/// mapping bug or a broken knob shows up as a gap near 1.0.
pub const AGREEMENT_TOLERANCE: f64 = 0.40;

/// What a region of the run is bound by, per dominant counterfactual
/// recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// No idealization recovers ≥ [`COMPUTE_BOUND_THRESHOLD`]: the cycles
    /// are inherent to the executed element groups and dependency chains.
    Compute,
    /// Dominated by `perfect_l1` or `perfect_l2`: cache/DRAM service time.
    Memory,
    /// Dominated by `zero_vector_startup`: the pipeline ramp of short
    /// vectors (§V of the paper — the long-vector argument).
    Startup,
    /// Dominated by `infinite_lanes`: lane throughput on element groups.
    Lane,
    /// Dominated by `infinite_issue`: the scalar front end's issue gap.
    Issue,
}

impl Bound {
    pub fn name(self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Memory => "memory",
            Bound::Startup => "startup",
            Bound::Lane => "lane",
            Bound::Issue => "issue",
        }
    }

    /// The bound a dominant knob names.
    pub fn of_knob(knob: IdealKnob) -> Bound {
        match knob {
            IdealKnob::PerfectL1 | IdealKnob::PerfectL2 => Bound::Memory,
            IdealKnob::ZeroVectorStartup => Bound::Startup,
            IdealKnob::InfiniteLanes => Bound::Lane,
            IdealKnob::InfiniteIssue => Bound::Issue,
        }
    }
}

/// The co-design lever a dominant knob recommends pulling, phrased for the
/// advisor report.
pub fn recommendation(bound: Bound, dominant: Option<IdealKnob>) -> &'static str {
    match (bound, dominant) {
        (Bound::Memory, Some(IdealKnob::PerfectL2)) => {
            "grow the L2 or block for its capacity (the paper's Fig. 7/9 cache-size axis)"
        }
        (Bound::Memory, _) => {
            "improve first-level locality: cache blocking, unit-stride layouts, packing"
        }
        (Bound::Startup, _) => {
            "lengthen vectors to amortize the startup ramp (fuse loops, pick longer trip counts)"
        }
        (Bound::Lane, _) => "add lanes / widen the datapath — element throughput is the limit",
        (Bound::Issue, _) => "close the issue gap: fewer, longer vector instructions per loop",
        (Bound::Compute, _) => {
            "compute-bound at this design point: reduce work algorithmically (Winograd, pruning)"
        }
    }
}

/// Extension trait wiring [`IdealKnob`] into the stall-attribution world.
pub trait KnobCause {
    /// The [`StallCause`] this knob's idealization removes, if the mapping
    /// is direct. `perfect_l2` returns `None`: it shares `MemLatency` with
    /// `perfect_l1` (the attribution cannot split L2 from DRAM service
    /// time), so it is excluded from the agreement cross-check.
    fn cause(self) -> Option<StallCause>;
}

impl KnobCause for IdealKnob {
    fn cause(self) -> Option<StallCause> {
        match self {
            IdealKnob::PerfectL1 => Some(StallCause::MemLatency),
            IdealKnob::PerfectL2 => None,
            IdealKnob::ZeroVectorStartup => Some(StallCause::VectorStartup),
            IdealKnob::InfiniteLanes => Some(StallCause::LaneOccupancy),
            IdealKnob::InfiniteIssue => Some(StallCause::IssueWidth),
        }
    }
}

/// One counterfactual outcome: the run under a single idealization knob.
#[derive(Debug, Clone)]
pub struct KnobOutcome {
    pub knob: IdealKnob,
    /// Total cycles of the counterfactual run.
    pub cycles: u64,
    /// `factual - counterfactual` — the causal cost of the modeled
    /// bottleneck. Idealizations are cycle-monotone, so this is exact on
    /// totals.
    pub saved: u64,
    /// Per-layer savings, aligned with the factual report's layer order.
    /// Saturating: a layer may individually slow down when a knob shifts
    /// warm-up traffic across layer boundaries, even though totals cannot.
    pub per_layer_saved: Vec<u64>,
}

impl KnobOutcome {
    pub fn saved_frac(&self, factual_cycles: u64) -> f64 {
        if factual_cycles == 0 {
            0.0
        } else {
            self.saved as f64 / factual_cycles as f64
        }
    }
}

/// Causal-vs-attributed cross-check for one directly-mapped knob.
#[derive(Debug, Clone, Copy)]
pub struct CauseAgreement {
    pub knob: IdealKnob,
    pub cause: StallCause,
    /// Cycles the counterfactual actually recovered.
    pub causal_saved: u64,
    /// Stall cycles PR 1's attribution charged to the matching cause.
    pub attributed: u64,
    /// `causal / attributed`; 1.0 when both are zero (perfect vacuous
    /// agreement), `f64::INFINITY` when only the attribution is zero.
    pub ratio: f64,
    /// `|causal - attributed| / factual_cycles` — the gap normalized by run
    /// length, the quantity [`AGREEMENT_TOLERANCE`] bounds.
    pub norm_gap: f64,
}

fn agreement(
    knob: IdealKnob,
    cause: StallCause,
    causal_saved: u64,
    attributed: u64,
    factual_cycles: u64,
) -> CauseAgreement {
    let ratio = if attributed == 0 {
        if causal_saved == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        causal_saved as f64 / attributed as f64
    };
    let norm_gap = if factual_cycles == 0 {
        0.0
    } else {
        causal_saved.abs_diff(attributed) as f64 / factual_cycles as f64
    };
    CauseAgreement { knob, cause, causal_saved, attributed, ratio, norm_gap }
}

/// Dominant-recovery classification shared by whole runs, layers, and
/// kernels: `(bound, dominant knob)` from per-knob savings in
/// [`IdealKnob::ALL`] order (first-listed knob wins ties).
pub fn classify(factual_cycles: u64, saved: &[u64]) -> (Bound, Option<IdealKnob>) {
    assert_eq!(saved.len(), IdealKnob::ALL.len());
    let mut best = 0usize;
    for (i, &s) in saved.iter().enumerate() {
        if s > saved[best] {
            best = i;
        }
    }
    let frac = if factual_cycles == 0 { 0.0 } else { saved[best] as f64 / factual_cycles as f64 };
    if frac < COMPUTE_BOUND_THRESHOLD {
        (Bound::Compute, None)
    } else {
        let knob = IdealKnob::ALL[best];
        (Bound::of_knob(knob), Some(knob))
    }
}

/// Energy view of one knob's counterfactual run.
///
/// Idealization knobs are timing-only — functional state and every event
/// counter are bit-identical to the factual run — so a counterfactual's
/// *dynamic* energy equals the factual one and the entire saving is static
/// energy over the recovered cycles. The interesting quantity is therefore
/// EDP: a knob that halves cycles nearly halves EDP even though it barely
/// moves joules.
#[derive(Debug, Clone, Copy)]
pub struct KnobEnergy {
    pub knob: IdealKnob,
    /// Total energy of the counterfactual run (J).
    pub energy_j: f64,
    /// `factual - counterfactual` joules: the energy recovered if this
    /// bottleneck vanished (all static, see above).
    pub energy_saved_j: f64,
    /// EDP of the counterfactual run (J·s).
    pub edp_js: f64,
    /// Fraction of the factual EDP this knob recovers.
    pub edp_saved_frac: f64,
}

/// The energy counterfactuals of one run plus the EDP-based bound
/// re-classification (same dominant-recovery rule and
/// [`COMPUTE_BOUND_THRESHOLD`] as the cycles classification, applied to
/// EDP savings instead of cycle savings).
#[derive(Debug, Clone)]
pub struct EnergyWhatif {
    /// Total energy of the factual run (J).
    pub factual_j: f64,
    /// EDP of the factual run (J·s).
    pub factual_edp_js: f64,
    /// One entry per knob, [`IdealKnob::ALL`] order.
    pub knobs: Vec<KnobEnergy>,
    /// What the run is bound by when the figure of merit is EDP.
    pub bound: Bound,
    pub dominant: Option<IdealKnob>,
}

impl EnergyWhatif {
    fn from_runs(e: &Experiment, factual: &RunSummary, cf: &[(IdealKnob, RunSummary)]) -> Self {
        let model = EnergyModel::default();
        let l2 = e.hw.l2_bytes();
        let f = model.estimate(&factual.report, l2);
        let (factual_j, factual_edp) = (f.total_j(), f.edp());
        let knobs: Vec<KnobEnergy> = cf
            .iter()
            .map(|(knob, s)| {
                let r = model.estimate(&s.report, l2);
                KnobEnergy {
                    knob: *knob,
                    energy_j: r.total_j(),
                    energy_saved_j: (factual_j - r.total_j()).max(0.0),
                    edp_js: r.edp(),
                    edp_saved_frac: if factual_edp > 0.0 {
                        ((factual_edp - r.edp()) / factual_edp).max(0.0)
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let mut best = 0usize;
        for (i, k) in knobs.iter().enumerate() {
            if k.edp_saved_frac > knobs[best].edp_saved_frac {
                best = i;
            }
        }
        let (bound, dominant) =
            if knobs.is_empty() || knobs[best].edp_saved_frac < COMPUTE_BOUND_THRESHOLD {
                (Bound::Compute, None)
            } else {
                (Bound::of_knob(knobs[best].knob), Some(knobs[best].knob))
            };
        EnergyWhatif { factual_j, factual_edp_js: factual_edp, knobs, bound, dominant }
    }

    /// The `energy` subsection of the whatif report.
    pub fn to_json(&self) -> Json {
        let mut knobs = Json::obj();
        for k in &self.knobs {
            knobs = knobs.field(
                k.knob.name(),
                Json::obj()
                    .field("energy_j", k.energy_j)
                    .field("energy_saved_if_fixed_j", k.energy_saved_j)
                    .field("edp_js", k.edp_js)
                    .field("edp_saved_frac", k.edp_saved_frac),
            );
        }
        let mut j = Json::obj()
            .field("factual_j", self.factual_j)
            .field("factual_edp_js", self.factual_edp_js)
            .field("edp_bound", self.bound.name());
        if let Some(k) = self.dominant {
            j = j.field("edp_dominant_knob", k.name());
        }
        j.field("knobs", knobs)
    }
}

/// One layer's counterfactual verdict.
#[derive(Debug, Clone)]
pub struct LayerWhatif {
    pub index: usize,
    pub desc: String,
    pub factual_cycles: u64,
    /// Cycles saved per knob, [`IdealKnob::ALL`] order.
    pub saved: Vec<u64>,
    pub bound: Bound,
    pub dominant: Option<IdealKnob>,
}

/// The full counterfactual analysis of one experiment.
#[derive(Debug, Clone)]
pub struct WhatifAnalysis {
    pub factual_cycles: u64,
    /// One outcome per knob, [`IdealKnob::ALL`] order.
    pub outcomes: Vec<KnobOutcome>,
    pub layers: Vec<LayerWhatif>,
    pub bound: Bound,
    pub dominant: Option<IdealKnob>,
    /// Cross-checks for every directly-mapped knob.
    pub agreement: Vec<CauseAgreement>,
    /// Energy counterfactuals and the EDP-based re-classification.
    pub energy: EnergyWhatif,
}

impl WhatifAnalysis {
    fn from_runs(
        e: &Experiment,
        factual: &RunSummary,
        cf: &[(IdealKnob, RunSummary)],
    ) -> WhatifAnalysis {
        let factual_cycles = factual.cycles;
        let outcomes: Vec<KnobOutcome> = cf
            .iter()
            .map(|(knob, s)| KnobOutcome {
                knob: *knob,
                cycles: s.cycles,
                saved: factual_cycles.saturating_sub(s.cycles),
                per_layer_saved: factual
                    .report
                    .layers
                    .iter()
                    .zip(&s.report.layers)
                    .map(|(f, c)| f.cycles.saturating_sub(c.cycles))
                    .collect(),
            })
            .collect();
        let layers = factual
            .report
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let saved: Vec<u64> = outcomes
                    .iter()
                    .map(|o| o.per_layer_saved.get(i).copied().unwrap_or(0))
                    .collect();
                let (bound, dominant) = classify(l.cycles, &saved);
                LayerWhatif {
                    index: l.index,
                    desc: l.desc.clone(),
                    factual_cycles: l.cycles,
                    saved,
                    bound,
                    dominant,
                }
            })
            .collect();
        let saved: Vec<u64> = outcomes.iter().map(|o| o.saved).collect();
        let (bound, dominant) = classify(factual_cycles, &saved);
        let agreement = cross_check(&outcomes, &factual.report.stalls, factual_cycles);
        let energy = EnergyWhatif::from_runs(e, factual, cf);
        WhatifAnalysis { factual_cycles, outcomes, layers, bound, dominant, agreement, energy }
    }

    /// The advisor's one-line verdict for the whole run.
    pub fn recommendation(&self) -> &'static str {
        recommendation(self.bound, self.dominant)
    }

    /// Knobs ranked by cycles saved (descending, stable in ALL order).
    pub fn ranked(&self) -> Vec<&KnobOutcome> {
        let mut v: Vec<&KnobOutcome> = self.outcomes.iter().collect();
        v.sort_by_key(|o| std::cmp::Reverse(o.saved));
        v
    }

    /// The `whatif` report section (what [`lva_core::RunReport::with_whatif`]
    /// embeds).
    pub fn to_json(&self) -> Json {
        let mut knobs = Json::obj();
        for o in &self.outcomes {
            knobs = knobs.field(
                o.knob.name(),
                Json::obj()
                    .field("cycles", o.cycles)
                    .field("saved", o.saved)
                    .field("saved_frac", o.saved_frac(self.factual_cycles)),
            );
        }
        let agreement = Json::Arr(
            self.agreement
                .iter()
                .map(|a| {
                    Json::obj()
                        .field("knob", a.knob.name())
                        .field("cause", a.cause.name())
                        .field("causal_saved", a.causal_saved)
                        .field("attributed", a.attributed)
                        .field("ratio", a.ratio)
                        .field("norm_gap", a.norm_gap)
                })
                .collect(),
        );
        let layers = Json::Arr(
            self.layers
                .iter()
                .map(|l| {
                    let mut saved = Json::obj();
                    for (knob, s) in IdealKnob::ALL.iter().zip(&l.saved) {
                        saved = saved.field(knob.name(), *s);
                    }
                    let mut j = Json::obj()
                        .field("index", l.index as u64)
                        .field("desc", l.desc.as_str())
                        .field("cycles", l.factual_cycles)
                        .field("bound", l.bound.name());
                    if let Some(k) = l.dominant {
                        j = j.field("dominant_knob", k.name());
                    }
                    j.field("saved", saved)
                })
                .collect(),
        );
        let mut j = Json::obj()
            .field("factual_cycles", self.factual_cycles)
            .field("compute_bound_threshold", COMPUTE_BOUND_THRESHOLD)
            .field("bound", self.bound.name());
        if let Some(k) = self.dominant {
            j = j.field("dominant_knob", k.name());
        }
        j.field("recommendation", self.recommendation())
            .field("knobs", knobs)
            .field("agreement", agreement)
            .field("energy", self.energy.to_json())
            .field("layers", layers)
    }
}

fn cross_check(
    outcomes: &[KnobOutcome],
    stalls: &StallBreakdown,
    factual_cycles: u64,
) -> Vec<CauseAgreement> {
    outcomes
        .iter()
        .filter_map(|o| {
            o.knob.cause().map(|c| agreement(o.knob, c, o.saved, stalls.get(c), factual_cycles))
        })
        .collect()
}

/// Capture the factual run once under the semantic recorder, re-time the
/// recording under each knob by tape refit, and analyze. Every knob is
/// timing-only, so it keeps the capture's cache geometry and the refit is
/// bit-identical to a full simulation. Serial: sweeps spread design
/// points over threads instead, one capture in memory per thread.
pub fn analyze_experiment(e: &Experiment) -> (RunSummary, WhatifAnalysis) {
    let cap = e.run_traced();
    let cf: Vec<(IdealKnob, RunSummary)> = IdealKnob::ALL
        .into_iter()
        .map(|knob| {
            let s = e
                .clone()
                .with_ideal(knob.spec())
                .retime_tape(&cap)
                .expect("an idealization keeps the capture's cache geometry");
            (knob, s)
        })
        .collect();
    let analysis = WhatifAnalysis::from_runs(e, &cap.summary, &cf);
    (cap.summary, analysis)
}

/// Counterfactual verdict for one `lva-check` registry kernel at one design
/// point (no layer structure — the kernel is the unit).
#[derive(Debug, Clone)]
pub struct KernelWhatif {
    pub kernel: &'static str,
    pub factual_cycles: u64,
    /// Cycles saved per knob, [`IdealKnob::ALL`] order.
    pub saved: Vec<u64>,
    pub bound: Bound,
    pub dominant: Option<IdealKnob>,
    pub agreement: Vec<CauseAgreement>,
}

/// Drive one registry kernel factually and under every knob. Panics if the
/// kernel does not support the config's ISA (callers filter with
/// [`KernelCase::supports`]).
pub fn analyze_kernel(case: &KernelCase, cfg: &MachineConfig) -> KernelWhatif {
    assert!(case.supports(cfg.vpu.isa), "{} does not support this ISA", case.name);
    let measure = |spec: IdealSpec| {
        let mut cfg = cfg.clone();
        cfg.ideal = spec;
        let mut m = Machine::new(cfg);
        (case.run)(&mut m);
        (m.cycles(), m.stalls)
    };
    let (factual_cycles, stalls) = measure(IdealSpec::NONE);
    let mut saved = Vec::with_capacity(IdealKnob::ALL.len());
    for knob in IdealKnob::ALL {
        let (cycles, _) = measure(knob.spec());
        saved.push(factual_cycles.saturating_sub(cycles));
    }
    let (bound, dominant) = classify(factual_cycles, &saved);
    let agreement = IdealKnob::ALL
        .iter()
        .zip(&saved)
        .filter_map(|(knob, &s)| {
            knob.cause().map(|c| agreement(*knob, c, s, stalls.get(c), factual_cycles))
        })
        .collect();
    KernelWhatif { kernel: case.name, factual_cycles, saved, bound, dominant, agreement }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_picks_dominant_knob_with_threshold() {
        // 1000-cycle run; only perfect_l1 saves enough to matter.
        let (b, k) = classify(1000, &[400, 10, 0, 30, 0]);
        assert_eq!(b, Bound::Memory);
        assert_eq!(k, Some(IdealKnob::PerfectL1));
        // Nothing reaches 5%: compute-bound.
        let (b, k) = classify(1000, &[49, 10, 0, 30, 0]);
        assert_eq!(b, Bound::Compute);
        assert_eq!(k, None);
        // Ties resolve to the first knob in ALL order.
        let (_, k) = classify(1000, &[100, 100, 100, 100, 100]);
        assert_eq!(k, Some(IdealKnob::PerfectL1));
        // A zero-cycle region is trivially compute-bound.
        assert_eq!(classify(0, &[0, 0, 0, 0, 0]).0, Bound::Compute);
    }

    #[test]
    fn knob_cause_mapping_is_direct_except_perfect_l2() {
        assert_eq!(IdealKnob::PerfectL1.cause(), Some(StallCause::MemLatency));
        assert_eq!(IdealKnob::PerfectL2.cause(), None);
        assert_eq!(IdealKnob::ZeroVectorStartup.cause(), Some(StallCause::VectorStartup));
        assert_eq!(IdealKnob::InfiniteLanes.cause(), Some(StallCause::LaneOccupancy));
        assert_eq!(IdealKnob::InfiniteIssue.cause(), Some(StallCause::IssueWidth));
        // RawHazard has no knob: dependency chains are algorithmic, not a
        // hardware resource the co-design space can buy out.
        let mapped: Vec<StallCause> = IdealKnob::ALL.iter().filter_map(|k| k.cause()).collect();
        assert!(!mapped.contains(&StallCause::RawHazard));
    }

    #[test]
    fn agreement_ratio_edge_cases() {
        let a = agreement(IdealKnob::PerfectL1, StallCause::MemLatency, 0, 0, 100);
        assert_eq!(a.ratio, 1.0);
        assert_eq!(a.norm_gap, 0.0);
        let a = agreement(IdealKnob::PerfectL1, StallCause::MemLatency, 5, 0, 100);
        assert!(a.ratio.is_infinite());
        assert_eq!(a.norm_gap, 0.05);
        let a = agreement(IdealKnob::PerfectL1, StallCause::MemLatency, 50, 100, 1000);
        assert_eq!(a.ratio, 0.5);
        assert_eq!(a.norm_gap, 0.05);
    }

    #[test]
    fn energy_counterfactuals_are_static_only_and_edp_classified() {
        use lva_core::{ConvPolicy, GemmVariant, HwTarget, ModelId, Workload};
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(3) },
        );
        let (factual, a) = analyze_experiment(&e);
        let en = &a.energy;
        assert_eq!(en.knobs.len(), IdealKnob::ALL.len());
        assert!(en.factual_j > 0.0 && en.factual_edp_js > 0.0);
        let model = EnergyModel::default();
        let static_mw = model.static_mw(e.hw.l2_bytes());
        for (o, k) in a.outcomes.iter().zip(&en.knobs) {
            assert_eq!(o.knob, k.knob);
            // Knobs are timing-only: every event counter is identical, so
            // the whole saving is static power over the recovered cycles.
            let want = static_mw * 1e-3 * model.seconds(o.saved);
            assert!(
                (k.energy_saved_j - want).abs() <= 1e-9 * en.factual_j.max(1e-12),
                "{:?}: saved {} J != static-only {} J",
                o.knob,
                k.energy_saved_j,
                want
            );
            // EDP savings are at least as large a fraction as cycle savings
            // (both energy and delay shrink together).
            assert!(k.edp_saved_frac >= o.saved_frac(factual.cycles) - 1e-12);
            assert!(k.edp_saved_frac <= 1.0);
        }
        // The JSON subsection rides inside the whatif section.
        let j = a.to_json();
        let sec = j.get("energy").expect("energy subsection");
        assert_eq!(sec.get("edp_bound").and_then(Json::as_str), Some(en.bound.name()));
        assert!(sec
            .get("knobs")
            .and_then(|k| k.get("perfect_l1"))
            .and_then(|k| k.get("energy_saved_if_fixed_j"))
            .is_some());
    }

    #[test]
    fn kernel_analysis_is_deterministic_and_classified() {
        let cases = lva_check::registered_kernels();
        let case = cases.iter().find(|c| c.name == "gemm_opt3").expect("registered");
        let cfg = MachineConfig::rvv_gem5(4096, 8, 1 << 20);
        let a = analyze_kernel(case, &cfg);
        let b = analyze_kernel(case, &cfg);
        assert_eq!(a.factual_cycles, b.factual_cycles);
        assert_eq!(a.saved, b.saved);
        assert_eq!(a.bound, b.bound);
        assert!(a.factual_cycles > 0);
        assert_eq!(a.saved.len(), IdealKnob::ALL.len());
        assert_eq!(a.agreement.len(), 4, "four directly-mapped knobs");
    }
}
