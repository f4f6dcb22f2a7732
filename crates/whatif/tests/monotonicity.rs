//! Idealizations are cycle-monotone: removing a modeled cost can never slow
//! a run down. Driven across the whole `lva-check` kernel registry at the
//! four Table II design points, plus an experiment-level check that the
//! analysis's bookkeeping is exact and its tape refits equal full
//! simulation.

use lva_core::{ConvPolicy, Experiment, HwTarget, ModelId, Workload};
use lva_isa::{IdealKnob, IdealSpec, Machine};
use lva_whatif::analyze_experiment;

#[test]
fn no_registry_kernel_slows_down_under_any_knob() {
    let all_on = IdealSpec {
        perfect_l1: true,
        perfect_l2: true,
        zero_vector_startup: true,
        infinite_lanes: true,
        infinite_issue: true,
    };
    for (profile, cfg) in lva_check::sweep_configs() {
        for case in lva_check::registered_kernels() {
            if !case.supports(cfg.vpu.isa) {
                continue;
            }
            let cycles = |spec: IdealSpec| {
                let mut cfg = cfg.clone();
                cfg.ideal = spec;
                let mut m = Machine::new(cfg);
                (case.run)(&mut m);
                m.cycles()
            };
            let factual = cycles(IdealSpec::NONE);
            assert!(factual > 0, "{}/{profile}: kernel ran", case.name);
            let mut floor = factual;
            for knob in IdealKnob::ALL {
                let cf = cycles(knob.spec());
                assert!(
                    cf <= factual,
                    "{}/{profile}: +{} increased cycles ({cf} > {factual})",
                    case.name,
                    knob.name()
                );
                floor = floor.min(cf);
            }
            let all = cycles(all_on);
            assert!(
                all <= floor,
                "{}/{profile}: all-on slower than best single knob ({all} > {floor})",
                case.name
            );
        }
    }
}

#[test]
fn experiment_analysis_is_monotone_and_matches_full_simulation() {
    let e = Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
        ConvPolicy::gemm_only(lva_core::GemmVariant::opt3()),
        Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
    );
    let (factual, analysis) = analyze_experiment(&e);
    // The capture is the factual run, and each tape refit is the full
    // simulation under its knob.
    let full = e.run();
    assert_eq!(factual.cycles, full.cycles);
    assert_eq!(factual.report, full.report);
    assert_eq!(analysis.factual_cycles, factual.cycles);
    for o in &analysis.outcomes {
        assert_eq!(o.cycles, e.clone().with_ideal(o.knob.spec()).run().cycles, "{}", o.knob.name());
        assert!(
            o.cycles <= factual.cycles,
            "+{} increased cycles ({} > {})",
            o.knob.name(),
            o.cycles,
            factual.cycles
        );
        assert_eq!(o.saved, factual.cycles - o.cycles, "exact on monotone totals");
        assert_eq!(o.per_layer_saved.len(), factual.report.layers.len());
    }
    // Every layer got a verdict, and verdicts are self-consistent.
    assert_eq!(analysis.layers.len(), factual.report.layers.len());
    for l in &analysis.layers {
        assert_eq!(l.saved.len(), IdealKnob::ALL.len());
        assert_eq!(l.dominant.is_none(), l.bound == lva_whatif::Bound::Compute);
    }
}
