//! One set of books: the machine keeps the same layer records whichever
//! way it executes a network — a live run, a live replay of the run's
//! capture, or a tape refit of that capture.

use std::sync::Arc;

use lva_core::{ConvPolicy, Experiment, GemmVariant, HwTarget, ModelId, Workload};
use lva_isa::{LayerRecord, SegmentReplay};
use lva_nn::Network;

const LAYERS: usize = 4;

fn design_points() -> Vec<(&'static str, Experiment)> {
    let workload = Workload { model: ModelId::Yolov3Tiny, input_hw: 32, layer_limit: None };
    vec![
        (
            "rvv/2048b",
            Experiment::new(
                HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
                ConvPolicy::gemm_only(GemmVariant::opt3()),
                workload,
            ),
        ),
        (
            "a64fx",
            Experiment::new(HwTarget::A64fx, ConvPolicy::gemm_only(GemmVariant::opt6()), workload),
        ),
    ]
}

/// The measured frame's layer book of a live run of `e`'s first
/// [`LAYERS`] layers, of a live replay of its capture, and of a tape refit.
fn books(e: &Experiment) -> [Vec<LayerRecord>; 3] {
    let (specs, shape) = e.workload.model.build(e.workload.input_hw);
    let mut m = e.machine();
    m.start_capture();
    m.record_probe_tape();
    let mut net = Network::build(&mut m, &specs[..LAYERS], shape, e.policy, e.seed);
    m.reset_timing();
    net.run(&mut m, &lva_tensor::host_random(shape.len(), 7));
    let live = m.layers().to_vec();
    let trace = m.finish_capture().expect("capture started");
    let tape = m.take_probe_tape().expect("tape recording started");
    let measured = |segs: Vec<SegmentReplay>| segs.into_iter().last().expect("a segment").layers;
    let replayed = measured(e.machine().replay(&trace));
    let mut refit = e.machine();
    refit.play_probe_tape(Arc::new(tape)).expect("the capture's own geometry");
    [live, replayed, measured(refit.replay(&trace))]
}

#[test]
fn live_runs_replays_and_tape_refits_keep_the_same_layer_books() {
    for (name, e) in design_points() {
        let [live, replayed, refit] = books(&e);
        assert_eq!(live.len(), LAYERS, "{name}: one record per layer");
        assert!(live.iter().all(|l| l.cycles() > 0), "{name}: every layer takes time");
        // A live replay drives a real hierarchy: every counter agrees.
        assert_eq!(replayed, live, "{name}: live replay");
        assert_eq!(refit.len(), live.len(), "{name}: tape refit");
        for (got, want) in refit.iter().zip(&live) {
            let what = format!("{name}: tape refit, layer {}", want.index);
            assert_eq!((got.index, &got.desc), (want.index, &want.desc), "{what}");
            for (g, w) in [(&got.begin, &want.begin), (&got.end, &want.end)] {
                assert_eq!((g.cycles, g.stalls, g.vpu), (w.cycles, w.stalls, w.vpu), "{what}");
            }
            // A tape refit runs no hierarchy, so its memory counters stay put.
            assert_eq!(got.begin.mem, got.end.mem, "{what}");
        }
    }
}
