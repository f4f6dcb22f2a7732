//! End-to-end contracts of the retime engine: bit-identity against the
//! full simulator across design points and dispatch paths, determinism,
//! and the certificate-gated fallback.

use lva_check::KernelCase;
use lva_core::{ConvPolicy, Experiment, GemmVariant, HwTarget, ModelId, RetimeOpt, Workload};
use lva_kernels::aux::fill_vec;
use lva_retime::{CertGate, RetimeEngine, RetimeStore};
use lva_sim::IdealKnob;

fn workload() -> Workload {
    Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) }
}

fn exp(hw: HwTarget) -> Experiment {
    Experiment::new(hw, ConvPolicy::gemm_only(GemmVariant::opt3()), workload())
}

/// A Table II-flavoured design-point grid: two RVV points per timing axis
/// (lanes, L2), an idealized counterfactual, an SVE point, and A64FX.
fn design_points() -> Vec<Experiment> {
    vec![
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 4, l2_bytes: 1 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 4 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 4, l2_bytes: 4 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 })
            .with_ideal(IdealKnob::PerfectL2.spec()),
        exp(HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 }),
        exp(HwTarget::A64fx),
    ]
}

/// `--retime=verify` semantics: every design point re-timed AND fully
/// simulated, asserting bit-identical cycles, stall breakdowns, VPU
/// statistics, cache statistics and per-layer reports (the assertions
/// live inside the engine's verify path).
#[test]
fn verify_mode_is_bit_identical_across_design_points() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::Verify, CertGate::decided(Ok(())));
    let points = design_points();
    for e in &points {
        engine.run(e);
    }
    let c = engine.counters();
    assert_eq!(c.verified, points.len() as u64, "every run verified against the full simulator");
    // Three semantic streams → three captures; the shared-stream RVV
    // points split between tape refits (same cache geometry as a stored
    // tape) and one live replay (first visit to the 4 MB geometry).
    assert_eq!(c.captures, 3);
    assert_eq!(c.live_replays, 1);
    assert_eq!(c.tape_refits, 3);
    assert_eq!(c.refused_runs, 0);
}

/// The byte-exact run report a sweep would write for `s`.
fn report(e: &Experiment, s: &lva_core::RunSummary) -> String {
    lva_core::RunReport::new("t", e, s).to_json().to_string_pretty()
}

/// Determinism: running the same sweep twice produces byte-identical
/// reports. The first pass left a tape at every cache geometry it saw, so
/// the second pass finds one for all seven points and re-times each by
/// tape refit.
#[test]
fn second_pass_is_all_hits_and_byte_identical() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
    let points = design_points();
    let pass = |engine: &mut RetimeEngine| -> Vec<(String, &'static str)> {
        points
            .iter()
            .map(|e| {
                let (s, path) = engine.run_explained(e);
                (report(e, &s), path)
            })
            .collect()
    };
    let pass1 = pass(&mut engine);
    let c = engine.counters();
    assert_eq!((c.captures, c.tape_refits, c.live_replays), (3, 3, 1));
    let pass2 = pass(&mut engine);
    for ((report1, _), (report2, path)) in pass1.iter().zip(&pass2) {
        assert_eq!(report1, report2, "retimed sweep must be deterministic");
        assert_eq!(*path, "tape-refit", "every point has a stored tape on the second pass");
    }
    let c = engine.counters();
    assert_eq!(
        (c.captures, c.tape_refits, c.live_replays),
        (3, 3 + points.len() as u64, 1),
        "the second pass adds one tape refit per point and nothing else"
    );
}

/// A kernel whose semantic stream depends on the design point (here: the
/// L2 capacity steers the op count) must fail certification; the engine
/// refuses retiming, falls back to full simulation, and records the
/// reason.
fn run_config_varying(m: &mut lva_isa::Machine) {
    let n = if m.config().mem.l2.bytes >= (4 << 20) { 100 } else { 60 };
    let x = m.mem.alloc_named("x", 128);
    fill_vec(m, x, 0, n, 1.0);
}

#[test]
fn config_varying_kernel_is_refused_and_falls_back() {
    let bad = KernelCase {
        name: "config_varying",
        shape: "n60|n100",
        isa: None,
        run: run_config_varying,
    };
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::with_cases(vec![bad]));
    let e = exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 });
    let (s, path) = engine.run_explained(&e);
    assert_eq!(path, "refused");
    let full = e.run();
    assert_eq!(s.cycles, full.cycles, "fallback is the full simulator");
    assert_eq!(s.report, full.report);
    assert_eq!(engine.counters().refused_runs, 1);
    assert_eq!(engine.counters().captures, 0, "no capture may happen under refusal");
    let reason = engine.refusal().expect("refusal reason recorded");
    assert!(reason.contains("config_varying"), "reason names the kernel: {reason}");
}

/// The positive gate: a well-behaved registry kernel certifies, and the
/// engine retimes.
#[test]
fn certified_kernel_gate_allows_retiming() {
    let good: Vec<KernelCase> =
        lva_check::registered_kernels().into_iter().filter(|c| c.name == "gemm_naive").collect();
    assert_eq!(good.len(), 1);
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::with_cases(good));
    let e = exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 });
    let (_, path) = engine.run_explained(&e);
    assert_eq!(path, "capture", "certified gate admits the retime path");
    assert!(engine.refusal().is_none());
}

/// Streams through the engine, each bit-identical to `run_stream`: on RVV
/// a multi-frame capture, a stream refit at another timing-only point and
/// a live replay at a 4 MB L2; on SVE-512 a capture at 1 MB and a live
/// replay at 4 MB (the host benchmark's serving-ladder rungs, which drive
/// this path across cache geometries).
#[test]
fn retimed_streams_match_run_stream() {
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
    let points = [
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 4, l2_bytes: 1 << 20 }),
        exp(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 4 << 20 }),
        exp(HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 }),
        exp(HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 4 << 20 }),
    ];
    for e in &points {
        let got = engine.run_stream(e, 2);
        let want = e.run_stream(2);
        assert_eq!(got.per_frame_cycles, want.per_frame_cycles, "{}", e.hw.describe());
        assert_eq!(got.steady.report, want.steady.report, "{}", e.hw.describe());
    }
    let n = engine.counters();
    assert_eq!(n.stream_captures, 2, "one capture per (stream, frames)");
    assert_eq!(n.stream_refits, 1, "same-geometry point refits the stream tape");
    assert_eq!(n.stream_live_replays, 2, "a new cache geometry live-replays the stream");
}

/// The store's LRU byte budget: with room for one recording but not two,
/// each new stream evicts the least recently used one, so the second pass
/// over the grid captures every stream again. Every report is still
/// byte-identical to an unbounded engine's.
#[test]
fn a_one_recording_budget_evicts_and_recaptures_byte_identically() {
    let points = design_points();
    let mut unbounded = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
    let mut largest = 0;
    let mut want = Vec::new();
    for e in &points {
        let before = unbounded.store().approx_bytes();
        let (s, path) = unbounded.run_explained(e);
        if path == "capture" {
            largest = largest.max(unbounded.store().approx_bytes() - before);
        }
        want.push(report(e, &s));
    }
    // Any two recordings together outweigh the largest one alone.
    let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())))
        .with_store(RetimeStore::with_capacity(largest));
    for _ in 0..2 {
        for (e, want) in points.iter().zip(&want) {
            assert_eq!(&report(e, &engine.run(e)), want, "{}", e.hw.describe());
        }
    }
    assert!(engine.store().evictions > 0, "a one-recording budget must evict");
    assert!(engine.counters().captures > 3, "an evicted stream is captured again");
    assert_eq!(unbounded.store().evictions, 0);
}
