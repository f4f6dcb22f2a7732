//! The seeded unseen-point draw of `retime_unseen`.

use lva_bench::{
    headline_specs, scaled_input, ConvPolicy, Experiment, GemmVariant, HwTarget, ModelId, Workload,
};
use lva_benchmark::points::stream_plan;
use lva_benchmark::workloads::{HEADLINE_DIV, RETIME_PATHS, RETIME_STREAMS};
use lva_core::RetimeOpt;
use lva_retime::{CertGate, ConfigKey, RetimeEngine, StreamKey};

fn captures() -> Vec<Experiment> {
    let specs = headline_specs(HEADLINE_DIV, None);
    RETIME_STREAMS
        .iter()
        .map(|n| specs.iter().find(|(m, _)| m == n).expect("stream in the headline set").1.clone())
        .collect()
}

#[test]
fn draw_is_deterministic_and_never_repeats_the_capture() {
    for (i, cap) in captures().iter().enumerate() {
        for seed in 0..500 {
            let plan = stream_plan(cap, seed, i);
            let again = stream_plan(cap, seed, i);
            let keys: Vec<ConfigKey> = plan.points.iter().map(ConfigKey::of).collect();
            assert_eq!(keys, again.points.iter().map(ConfigKey::of).collect::<Vec<_>>());
            assert_eq!(plan.verify, again.verify);
            assert_eq!(keys.len(), 5);
            assert!(plan.verify < 5);
            for (j, k) in keys.iter().enumerate() {
                assert_ne!(*k, ConfigKey::of(cap), "seed {seed}: point {j} is the capture config");
                assert!(!keys[..j].contains(k), "seed {seed}: point {j} drawn twice");
                // Same semantic stream, so the engine re-times the capture.
                assert_eq!(StreamKey::of(&plan.points[j]), StreamKey::of(cap));
            }
        }
    }
}

#[test]
fn different_seeds_draw_different_points() {
    let cap = &captures()[0];
    let draws: std::collections::BTreeSet<String> = (0..50)
        .map(|seed| {
            let plan = stream_plan(cap, seed, 0);
            plan.points.iter().map(|e| ConfigKey::of(e).as_str().to_string()).collect::<String>()
        })
        .collect();
    assert!(draws.len() > 10, "only {} distinct draws in 50 seeds", draws.len());
}

/// A small stand-in for a capture point: the draw only looks at the
/// hardware target, and the engine paths only at the keys.
fn tiny(hw: HwTarget) -> Experiment {
    Experiment::new(
        hw,
        ConvPolicy::gemm_only(GemmVariant::opt3()),
        Workload {
            model: ModelId::Yolov3Tiny,
            input_hw: scaled_input(ModelId::Yolov3Tiny, 13),
            layer_limit: Some(2),
        },
    )
}

#[test]
fn every_stream_gets_tape_refits_and_a_live_replay() {
    let rvv = tiny(HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 });
    let sve = tiny(HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 });
    for seed in 0..4 {
        for (i, cap) in [&rvv, &sve].into_iter().enumerate() {
            let plan = stream_plan(cap, seed, i);
            let mut engine = RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(Ok(())));
            let paths: Vec<&str> = std::iter::once(cap)
                .chain(&plan.points)
                .map(|e| engine.run_explained(e).1)
                .collect();
            assert_eq!(paths, RETIME_PATHS, "seed {seed}, {}", cap.hw.describe());
        }
    }
}
