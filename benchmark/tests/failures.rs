//! A failed check or a panicking request raises the failure count without
//! stopping the run.

use lva_bench::{scaled_input, ConvPolicy, Experiment, GemmVariant, HwTarget, ModelId, Workload};
use lva_benchmark::checks::{same_run, summary_stalls_sum, Ledger};
use lva_benchmark::run::Ctx;

fn small() -> Experiment {
    Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
        ConvPolicy::gemm_only(GemmVariant::opt3()),
        Workload {
            model: ModelId::Yolov3Tiny,
            input_hw: scaled_input(ModelId::Yolov3Tiny, 13),
            layer_limit: Some(2),
        },
    )
}

#[test]
fn injected_cycle_mismatch_is_a_failure() {
    let s = small().run();
    let mut ledger = Ledger::default();
    ledger.check(same_run(&s, &s.clone()), || "identical runs".into());
    assert_eq!(ledger.fail_rate(), 0.0);

    let mut off_by_one = s.clone();
    off_by_one.report.layers[1].cycles += 1;
    ledger.check(same_run(&s, &off_by_one), || "injected per-layer mismatch".into());
    let mut total = s.clone();
    total.cycles += 1;
    ledger.check(same_run(&s, &total), || "injected total mismatch".into());
    assert_eq!((ledger.attempted, ledger.failed), (3, 2));
    assert!(ledger.fail_rate() > 0.0);
}

#[test]
fn injected_stall_drift_is_a_failure() {
    let mut s = small().run();
    assert!(summary_stalls_sum(&s));
    s.report.layers[0].stalls.note_total(1);
    assert!(!summary_stalls_sum(&s));
}

#[test]
fn injected_panic_is_a_failure_and_the_run_continues() {
    let mut ctx = Ctx::new(true);
    let panicked: Option<(u64, f64)> = ctx.request("core.run", || panic!("injected"));
    assert!(panicked.is_none());
    let next = ctx.request("core.run", || small().run().cycles);
    assert!(next.is_some_and(|(c, _)| c > 0), "the request after a panic still runs");
    assert_eq!((ctx.ledger.attempted, ctx.ledger.failed), (2, 1));
    assert!(ctx.ledger.fail_rate() > 0.0);
    assert!(ctx.ledger.failures[0].contains("injected"));
    // The panicking request's span was closed too.
    let spans = ctx.tracer.spans();
    assert_eq!(spans.len(), 2);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.parent.is_none()));
    assert_eq!((spans[0].request, spans[1].request), (Some(0), Some(1)));
}
