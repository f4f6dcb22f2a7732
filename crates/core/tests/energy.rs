//! Experiment-level energy tests: the `lva-energy` model and its streaming
//! probe driven through [`Experiment`]. They live here, downstream of both
//! crates, because `lva-energy` cannot depend on the experiment API.

use lva_core::{
    ConvPolicy, EnergyCounts, EnergyModel, Experiment, GemmVariant, HwTarget, ModelId, Workload,
};

fn experiment(l2: usize, vlen: usize) -> Experiment {
    Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: vlen, lanes: 8, l2_bytes: l2 },
        ConvPolicy::gemm_only(GemmVariant::opt3()),
        Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
    )
}

#[test]
fn energy_is_positive_and_decomposes() {
    let s = experiment(1 << 20, 1024).run();
    let e = EnergyModel::default().estimate(&s.report, 1 << 20);
    assert!(e.compute_j > 0.0 && e.memory_j > 0.0 && e.static_j > 0.0);
    assert!((e.total_j() - (e.compute_j + e.memory_j + e.static_j)).abs() < 1e-15);
    assert!(e.edp() > 0.0);
}

#[test]
fn giant_cache_pays_leakage() {
    // Same workload: the 256 MB cache must carry a larger static bill
    // per second than the 1 MB cache.
    let model = EnergyModel::default();
    let small = experiment(1 << 20, 1024).run();
    let big = experiment(256 << 20, 1024).run();
    let e_small = model.estimate(&small.report, 1 << 20);
    let e_big = model.estimate(&big.report, 256 << 20);
    let rate_small = e_small.static_j / e_small.seconds;
    let rate_big = e_big.static_j / e_big.seconds;
    assert!(rate_big > 10.0 * rate_small, "leakage must scale with capacity");
}

#[test]
fn longer_vectors_save_issue_energy() {
    // Fewer instructions for the same flops -> less control energy.
    let m = EnergyModel::default();
    let short = experiment(1 << 20, 512).run();
    let long = experiment(1 << 20, 8192).run();
    let es = m.estimate(&short.report, 1 << 20);
    let el = m.estimate(&long.report, 1 << 20);
    assert!(el.compute_j < es.compute_j, "{} !< {}", el.compute_j, es.compute_j);
}

/// The streaming attribution (run through the probe) must reconcile
/// with the aggregate estimate — the sum-to-total invariant — and the
/// per-layer counts must sum to the run's aggregate counters exactly.
#[test]
fn streamed_attribution_reconciles_with_aggregate() {
    let model = EnergyModel::default();
    let (s, att) = experiment(4 << 20, 1024).run_energy(&model);
    assert!(
        att.reconciliation_rel_err() < 1e-6,
        "streamed {} vs aggregate {}",
        att.total.total_j(),
        att.report.total_j()
    );
    let mut streamed = EnergyCounts::default();
    for l in &att.layers {
        streamed.add(&l.counts);
    }
    assert_eq!(streamed, EnergyCounts::from_report(&s.report), "integer counts must match");
    assert!(att.layers.len() == 4, "one entry per layer");
    assert!(att.outside.total_j() < 1e-3 * att.total.total_j(), "outside bucket near-empty");
}

/// Attaching the probe must not change timing (the timing-neutrality
/// contract of the hooks it rides on).
#[test]
fn energy_accounting_is_timing_neutral() {
    let e = experiment(1 << 20, 2048);
    let plain = e.run();
    let (probed, _) = e.run_energy(&EnergyModel::default());
    assert_eq!(plain.cycles, probed.cycles, "cycles bit-identical probe on/off");
    assert_eq!(plain.report.vpu, probed.report.vpu);
}
