//! Retime-safety certification of registered kernels.
//!
//! Whatever records a run once and re-times it under other timing models
//! (the co-design advisor's counterfactual tape refits in `lva-whatif`,
//! the SoC replay in `lva-scale`, the `lva-retime` engine the host
//! benchmark drives) relies on the stream being a function of the
//! *architectural* inputs — kernel, shape, ISA, granted vector length —
//! and not of the timing state being varied. This module proves it per
//! kernel × design point, at the registry's shapes only, and emits a
//! machine-readable [`RetimeCertificate`]:
//!
//! 1. **Timing-invariance** — the kernel is re-captured under four
//!    perturbations that change only what a retime run may change (L2
//!    capacity, lane count, the reference functional model, all ideal
//!    knobs at once) and each whole [`ReplayTrace`] must equal the
//!    baseline's: every op a replay executes, scalar work, prefetches and
//!    spills included, not only the [`VecEvent`]s decoded from it.
//! 2. **VL-renaming equivalence** — within one ISA, the streams at the two
//!    swept vector lengths are projected onto VL-neutral invariants (total
//!    active lanes per mnemonic, per-buffer element traffic). Strip-mine
//!    chunking renames how `vl` splits across events; the projections are
//!    exactly what renaming must preserve.
//! 3. **Lower-bound soundness** — the [`crate::bounds`] floor must not
//!    exceed the simulated cycle count.
//!
//! Any violation downgrades the certificate and surfaces as a finding in
//! `lint-dataflow` (passes `config-variance`, `vl-equivalence`,
//! `bound-violation`).

use std::collections::BTreeMap;

use lva_check::{record_kernel, Finding, KernelCase, RecordedKernel};
use lva_core::Json;
use lva_isa::{
    stream_hash, EventKind, IdealSpec, IsaKind, Machine, MachineConfig, ReplayTrace, VecEvent,
};
use lva_sim::AllocRecord;

use crate::bounds::{lower_bound, tightness_pct, LowerBound};
use crate::graph::{DepGraph, DepKind};

/// The perturbations a certified kernel's trace must be invariant under.
/// Each changes something a retime run is allowed to vary; none may move a
/// single recorded op.
pub const PERTURBATIONS: [&str; 4] = ["l2-4MiB", "lanes-halved", "reference-model", "ideal-all"];

/// Re-capture `case` under one named perturbation of `cfg`.
fn record_perturbed(case: &KernelCase, cfg: &MachineConfig, which: &str) -> ReplayTrace {
    let mut setup: fn(&mut Machine) = |_| {};
    let run_cfg = match which {
        "l2-4MiB" => {
            let l2 = 4 << 20;
            match cfg.vpu.isa {
                IsaKind::Rvv => MachineConfig::rvv_gem5(cfg.vpu.vlen_bits, cfg.vpu.lanes, l2),
                IsaKind::Sve => MachineConfig::sve_gem5(cfg.vpu.vlen_bits, l2),
            }
        }
        "lanes-halved" => {
            let mut c = cfg.clone();
            c.vpu.lanes = (c.vpu.lanes / 2).max(1);
            c
        }
        "reference-model" => {
            setup = |m| m.set_reference_model(true);
            cfg.clone()
        }
        "ideal-all" => {
            setup = |m| {
                m.set_ideal(IdealSpec {
                    perfect_l1: true,
                    perfect_l2: true,
                    zero_vector_startup: true,
                    infinite_lanes: true,
                    infinite_issue: true,
                });
            };
            cfg.clone()
        }
        other => panic!("unknown perturbation {other:?}"),
    };
    let mut m = Machine::new(run_cfg);
    setup(&mut m);
    m.start_capture();
    (case.run)(&mut m);
    m.finish_capture().expect("the capture was started above")
}

/// VL-neutral projection of one recorded run: the invariants granted-VL
/// renaming must preserve. Addresses are *not* compared across vector
/// lengths (scratch buffers may be sized by the hardware VL); per-buffer
/// totals and per-mnemonic work are.
#[derive(Debug, PartialEq, Eq)]
pub struct VlSummary {
    /// Total active lanes per mnemonic over all op events.
    pub op_work: BTreeMap<&'static str, u64>,
    /// Per-allocation-label `(loaded, stored)` element totals.
    pub traffic: BTreeMap<String, (u64, u64)>,
}

/// The allocation label owning byte address `addr`, or `"<unmapped>"`.
pub fn label_of(allocs: &[AllocRecord], addr: u64) -> String {
    allocs
        .iter()
        .find(|a| a.buf.base <= addr && addr < a.buf.base + a.buf.bytes() as u64)
        .map_or_else(|| "<unmapped>".to_string(), |a| a.label.clone())
}

impl VlSummary {
    pub fn build(events: &[VecEvent], allocs: &[AllocRecord]) -> VlSummary {
        let mut op_work: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut traffic: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                EventKind::Load | EventKind::Store | EventKind::Arith => {
                    // A broadcast's lane count *is* the granted VL — one
                    // splat fills however wide the register is — so its
                    // active-lane total scales with the hardware VL by
                    // definition and is quotiented out of the projection.
                    if ev.op != "vbroadcast" {
                        *op_work.entry(ev.op).or_default() += ev.active as u64;
                    }
                }
                EventKind::Reduce => {
                    // A reduction folds a full register (lane count = the
                    // granted VL) but yields exactly one scalar, so the
                    // VL-neutral invariant is the *count* of reductions.
                    *op_work.entry(ev.op).or_default() += 1;
                }
                _ => continue,
            }
            if ev.touches_memory() {
                let slot = traffic.entry(label_of(allocs, ev.lo)).or_default();
                if ev.kind == EventKind::Load {
                    slot.0 += ev.active as u64;
                } else if ev.kind == EventKind::Store {
                    slot.1 += ev.active as u64;
                }
            }
        }
        VlSummary { op_work, traffic }
    }

    /// First difference against `other`, as a human-readable description.
    pub fn diff(&self, other: &VlSummary) -> Option<String> {
        for key in self.op_work.keys().chain(other.op_work.keys()) {
            let (a, b) = (
                self.op_work.get(key).copied().unwrap_or(0),
                other.op_work.get(key).copied().unwrap_or(0),
            );
            if a != b {
                return Some(format!("op `{key}` total active lanes {a} vs {b}"));
            }
        }
        for key in self.traffic.keys().chain(other.traffic.keys()) {
            let (a, b) = (
                self.traffic.get(key).copied().unwrap_or((0, 0)),
                other.traffic.get(key).copied().unwrap_or((0, 0)),
            );
            if a != b {
                return Some(format!(
                    "buffer `{key}` element traffic (loaded, stored) {a:?} vs {b:?}"
                ));
            }
        }
        None
    }
}

/// Certification record of one kernel at one design point.
#[derive(Debug)]
pub struct PointRecord {
    pub profile: String,
    /// FNV-1a fingerprint of the baseline stream ([`lva_isa::stream_hash`]).
    pub stream_hash: u64,
    pub events: usize,
    pub nodes: usize,
    pub raw_edges: usize,
    pub war_edges: usize,
    pub waw_edges: usize,
    pub cycles: u64,
    pub lb: LowerBound,
    pub tightness_pct: f64,
    /// Perturbations whose re-recorded trace matched the baseline's.
    pub invariant_under: Vec<&'static str>,
    /// All perturbations held *and* the lower bound is sound.
    pub invariant: bool,
}

/// Within-ISA VL-renaming comparison of two design points.
#[derive(Debug)]
pub struct VlEquivalence {
    pub isa: &'static str,
    pub points: (String, String),
    pub equivalent: bool,
    /// Empty when equivalent; otherwise the first mismatching projection.
    pub detail: String,
}

/// The machine-readable retime-safety certificate of one kernel: which
/// design points its stream was proven timing-invariant on, whether the
/// swept vector lengths are renaming-equivalent, and the critical-path
/// tightness at each point.
#[derive(Debug)]
pub struct RetimeCertificate {
    pub kernel: String,
    pub shape: String,
    pub points: Vec<PointRecord>,
    pub vl_equivalence: Vec<VlEquivalence>,
    pub certified: bool,
}

impl RetimeCertificate {
    pub fn to_json(&self) -> Json {
        let points = self.points.iter().map(|p| {
            Json::obj()
                .field("profile", p.profile.as_str())
                .field("stream_hash", format!("{:016x}", p.stream_hash).as_str())
                .field("events", p.events as u64)
                .field("nodes", p.nodes as u64)
                .field("raw_edges", p.raw_edges as u64)
                .field("war_edges", p.war_edges as u64)
                .field("waw_edges", p.waw_edges as u64)
                .field("cycles", p.cycles)
                .field("lb_resource", p.lb.resource)
                .field("lb_dependence", p.lb.dependence)
                .field("lb_bound", p.lb.bound)
                .field("tightness_pct", p.tightness_pct)
                .field(
                    "invariant_under",
                    Json::Arr(
                        p.invariant_under.iter().map(|&s| Json::Str(s.to_string())).collect(),
                    ),
                )
                .field("invariant", p.invariant)
        });
        let vls = self.vl_equivalence.iter().map(|v| {
            Json::obj()
                .field("isa", v.isa)
                .field("low", v.points.0.as_str())
                .field("high", v.points.1.as_str())
                .field("equivalent", v.equivalent)
                .field("detail", v.detail.as_str())
        });
        Json::obj()
            .field("kernel", self.kernel.as_str())
            .field("shape", self.shape.as_str())
            .field("points", Json::Arr(points.collect()))
            .field("vl_equivalence", Json::Arr(vls.collect()))
            .field("certified", self.certified)
    }
}

/// Certify one kernel over every design point it supports. Returns the
/// certificate, any findings (passes `config-variance`, `vl-equivalence`,
/// `bound-violation`), and the baseline recording of each supported point
/// with its profile name, in sweep order, so callers that analyse those
/// runs further need not record them again.
pub fn certify_kernel(
    case: &KernelCase,
    sweep: &[(&'static str, MachineConfig)],
) -> (RetimeCertificate, Vec<Finding>, Vec<(&'static str, RecordedKernel)>) {
    let mut findings = Vec::new();
    let mut points = Vec::new();
    let mut recordings = Vec::new();
    // Per supported point: the recorded baseline and its VL summary,
    // grouped by ISA for the renaming comparison afterwards.
    let mut by_isa: BTreeMap<&'static str, Vec<(String, VlSummary)>> = BTreeMap::new();

    for (profile, cfg) in sweep {
        if !case.supports(cfg.vpu.isa) {
            continue;
        }
        let rec: RecordedKernel = record_kernel(case, cfg);
        let base_hash = stream_hash(&rec.events);

        let mut invariant_under = Vec::new();
        for which in PERTURBATIONS {
            let perturbed = record_perturbed(case, cfg, which);
            if perturbed == rec.trace {
                invariant_under.push(which);
            } else {
                findings.push(Finding {
                    pass: "config-variance",
                    kernel: case.name.to_string(),
                    profile: profile.to_string(),
                    detail: describe_variance(&rec, &perturbed, which),
                });
            }
        }

        let graph = DepGraph::build(&rec.events, &rec.allocs);
        let lb = lower_bound(cfg, &rec.events, &graph);
        let sound = lb.bound <= rec.cycles;
        if !sound {
            findings.push(Finding {
                pass: "bound-violation",
                kernel: case.name.to_string(),
                profile: profile.to_string(),
                detail: format!(
                    "critical-path lower bound {} exceeds simulated cycles {}",
                    lb.bound, rec.cycles
                ),
            });
        }

        let isa_label = match cfg.vpu.isa {
            IsaKind::Rvv => "rvv",
            IsaKind::Sve => "sve",
        };
        by_isa
            .entry(isa_label)
            .or_default()
            .push((profile.to_string(), VlSummary::build(&rec.events, &rec.allocs)));

        let invariant = invariant_under.len() == PERTURBATIONS.len() && sound;
        points.push(PointRecord {
            profile: profile.to_string(),
            stream_hash: base_hash,
            events: rec.events.len(),
            nodes: graph.nodes(),
            raw_edges: graph.edges_of(DepKind::Raw).len(),
            war_edges: graph.edges_of(DepKind::War).len(),
            waw_edges: graph.edges_of(DepKind::Waw).len(),
            cycles: rec.cycles,
            tightness_pct: tightness_pct(lb.bound, rec.cycles),
            lb,
            invariant_under,
            invariant,
        });
        recordings.push((*profile, rec));
    }

    let mut vl_equivalence = Vec::new();
    for (isa, runs) in &by_isa {
        for pair in runs.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            let detail = lo.1.diff(&hi.1);
            let equivalent = detail.is_none();
            if let Some(d) = &detail {
                findings.push(Finding {
                    pass: "vl-equivalence",
                    kernel: case.name.to_string(),
                    profile: format!("{} vs {}", lo.0, hi.0),
                    detail: format!("streams not equivalent modulo VL renaming: {d}"),
                });
            }
            vl_equivalence.push(VlEquivalence {
                isa,
                points: (lo.0.clone(), hi.0.clone()),
                equivalent,
                detail: detail.unwrap_or_default(),
            });
        }
    }

    let certified =
        points.iter().all(|p| p.invariant) && vl_equivalence.iter().all(|v| v.equivalent);
    (
        RetimeCertificate {
            kernel: case.name.to_string(),
            shape: case.shape.to_string(),
            points,
            vl_equivalence,
            certified,
        },
        findings,
        recordings,
    )
}

/// Pinpoint where a perturbed trace diverged from the baseline: at the
/// first differing vector event when the decoded streams differ, otherwise
/// at the first differing op (scalar work, prefetches, spills, layers).
fn describe_variance(base: &RecordedKernel, perturbed: &ReplayTrace, which: &str) -> String {
    let events = perturbed.vec_events(base.vlen_elems);
    if base.events.len() != events.len() {
        return format!(
            "stream length changed under {which}: {} events vs {}",
            base.events.len(),
            events.len()
        );
    }
    for (i, (a, b)) in base.events.iter().zip(&events).enumerate() {
        if a != b {
            return format!("stream diverged under {which} at event #{i}: {} vs {}", a.op, b.op);
        }
    }
    let (a, b) = (&base.trace.ops, &perturbed.ops);
    if let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) {
        return format!("stream diverged under {which} at op #{i}: {:?} vs {:?}", a[i], b[i]);
    }
    if a.len() != b.len() {
        return format!("stream length changed under {which}: {} ops vs {}", a.len(), b.len());
    }
    format!("stream diverged under {which} in pooled operands or layer names")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vl_summary_projects_work_and_traffic() {
        let allocs = vec![AllocRecord {
            label: "x".to_string(),
            buf: lva_sim::Buf { base: 0x100, words: 64 },
        }];
        // One 64-element load split as 32+32 vs 48+16: same projection.
        let a = vec![
            VecEvent::load("vle", 1, 0x100, 0x180, 32),
            VecEvent::load("vle", 1, 0x180, 0x200, 32),
        ];
        let b = vec![
            VecEvent::load("vle", 1, 0x100, 0x1c0, 48),
            VecEvent::load("vle", 1, 0x1c0, 0x200, 16),
        ];
        let (sa, sb) = (VlSummary::build(&a, &allocs), VlSummary::build(&b, &allocs));
        assert_eq!(sa, sb);
        assert_eq!(sa.diff(&sb), None);
        assert_eq!(sa.op_work["vle"], 64);
        assert_eq!(sa.traffic["x"], (64, 0));
        // A third stream loading less is caught.
        let c = vec![VecEvent::load("vle", 1, 0x100, 0x180, 32)];
        let sc = VlSummary::build(&c, &allocs);
        assert_eq!(sa.diff(&sc), Some("op `vle` total active lanes 64 vs 32".to_string()));
    }
}
