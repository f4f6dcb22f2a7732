//! Cross-crate integration tests: whole-pipeline behaviour that no single
//! crate can check on its own.

use longvec_cnn::nn::network::estimate_arena_words;
use longvec_cnn::nn::{vgg16, yolov3, yolov3_tiny};
use longvec_cnn::prelude::*;

/// Build + run a network on a machine config, returning (report, output).
fn run_net(
    mut cfg: MachineConfig,
    specs: &[LayerSpec],
    shape: Shape,
    policy: ConvPolicy,
    seed: u64,
) -> (NetReport, Vec<f32>) {
    cfg.arena_mib = (estimate_arena_words(specs, shape, &policy) * 4 / (1 << 20) + 32).max(64);
    let mut machine = Machine::new(cfg);
    let mut net = Network::build(&mut machine, specs, shape, policy, seed);
    machine.reset_timing();
    let image = host_random(shape.len(), seed ^ 0xabcd);
    let report = net.run(&mut machine, &image);
    let out = net.output().to_host(&machine);
    (report, out)
}

#[test]
fn simulation_is_deterministic() {
    let (specs, shape) = yolov3_tiny(64);
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let (a, out_a) = run_net(MachineConfig::rvv_gem5(1024, 8, 1 << 20), &specs, shape, policy, 5);
    let (b, out_b) = run_net(MachineConfig::rvv_gem5(1024, 8, 1 << 20), &specs, shape, policy, 5);
    assert_eq!(a.cycles, b.cycles, "cycle counts must be reproducible");
    assert_eq!(out_a, out_b, "outputs must be bit-identical");
    assert_eq!(a.mem.l2.misses, b.mem.l2.misses);
}

#[test]
fn rvv_and_sve_compute_identical_results() {
    // The same network on different ISAs must agree functionally: the
    // timing model differs, the numerics must not.
    let (specs, shape) = yolov3_tiny(64);
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let (ra, out_rvv) = run_net(MachineConfig::rvv_gem5(512, 8, 1 << 20), &specs, shape, policy, 5);
    let (rb, out_sve) = run_net(MachineConfig::sve_gem5(512, 1 << 20), &specs, shape, policy, 5);
    assert_eq!(out_rvv, out_sve, "ISA must not change the mathematics");
    assert_ne!(ra.cycles, rb.cycles, "the platforms should time differently");
}

#[test]
fn vector_length_is_functionally_transparent() {
    // VLA portability: the same binary semantics across hardware vector
    // lengths (only reassociation-free kernels are bit-identical; GEMM
    // accumulates per-element in the same order across VLs here because
    // the k-loop order is fixed, so outputs match exactly).
    let (specs, shape) = yolov3_tiny(64);
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let (_, out_512) = run_net(MachineConfig::rvv_gem5(512, 8, 1 << 20), &specs, shape, policy, 5);
    let (_, out_16384) =
        run_net(MachineConfig::rvv_gem5(16384, 8, 1 << 20), &specs, shape, policy, 5);
    assert_eq!(out_512, out_16384);
}

#[test]
fn winograd_policy_matches_gemm_policy_outputs() {
    let (specs, shape) = yolov3_tiny(64);
    let gemm = ConvPolicy::gemm_only(GemmVariant::opt6());
    let mut wino = ConvPolicy::winograd_default(GemmVariant::opt6());
    wino.winograd_stride2 = true;
    let (_, out_g) = run_net(MachineConfig::sve_gem5(1024, 1 << 20), &specs, shape, gemm, 5);
    let (_, out_w) = run_net(MachineConfig::sve_gem5(1024, 1 << 20), &specs, shape, wino, 5);
    assert!(
        approx_eq(&out_w, &out_g, 5e-2, 5e-2),
        "algorithm choice must not change the inference result"
    );
}

#[test]
fn experiment_api_runs_all_platforms() {
    let workload = Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    for hw in [
        HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 4, l2_bytes: 1 << 20 },
        HwTarget::SveGem5 { vlen_bits: 1024, l2_bytes: 1 << 20 },
        HwTarget::A64fx,
    ] {
        let s = Experiment::new(hw, policy, workload).run();
        assert!(s.cycles > 0, "{hw:?} produced no cycles");
        assert!(s.flops > 0);
    }
}

#[test]
fn bigger_l2_never_slows_the_gemm_workload() {
    let workload = Workload { model: ModelId::Yolov3, input_hw: 64, layer_limit: Some(8) };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let mut last = u64::MAX;
    for l2 in [1usize << 20, 8 << 20, 64 << 20] {
        let s = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 4096, lanes: 8, l2_bytes: l2 },
            policy,
            workload,
        )
        .run();
        assert!(s.cycles <= last, "L2 {l2}: {} > {last}", s.cycles);
        last = s.cycles;
    }
}

#[test]
fn vgg16_inference_produces_probabilities() {
    let (specs, shape) = vgg16(32);
    let policy = ConvPolicy::winograd_default(GemmVariant::opt3());
    let (report, out) = run_net(MachineConfig::sve_gem5(2048, 1 << 20), &specs, shape, policy, 3);
    assert_eq!(out.len(), 1000);
    assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-4, "softmax must normalize");
    assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
    assert_eq!(report.layers.len(), 25);
}

#[test]
fn yolov3_full_network_runs_at_small_scale() {
    let (specs, shape) = yolov3(32);
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let (report, out) =
        run_net(MachineConfig::rvv_gem5(2048, 8, 1 << 20), &specs, shape, policy, 3);
    assert_eq!(report.layers.len(), 107);
    assert!(out.iter().all(|v| v.is_finite()), "activations must stay finite");
    // All three yolo heads produce 255-channel maps.
    let heads: Vec<_> =
        report.layers.iter().filter(|l| l.desc == "yolo").map(|l| l.out_shape.c).collect();
    assert_eq!(heads, vec![255, 255, 255]);
}

#[test]
fn paper_sanity_longer_vectors_and_caches_help() {
    // The two §VI headline directions in one test, at smoke-test scale.
    let workload = Workload { model: ModelId::Yolov3, input_hw: 64, layer_limit: Some(8) };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let short = Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: 512, lanes: 8, l2_bytes: 1 << 20 },
        policy,
        workload,
    )
    .run();
    let long = Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: 8192, lanes: 8, l2_bytes: 1 << 20 },
        policy,
        workload,
    )
    .run();
    assert!(long.cycles < short.cycles, "longer vectors must win (Fig. 6)");
    assert!(
        long.avg_vlen_bits > short.avg_vlen_bits,
        "consumed vector length must track the hardware length (Table III)"
    );
}

#[test]
fn naive_baseline_is_much_slower_end_to_end() {
    let workload = Workload { model: ModelId::Yolov3Tiny, input_hw: 64, layer_limit: None };
    let naive = Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
        ConvPolicy::gemm_only(GemmVariant::Naive),
        workload,
    )
    .run();
    let opt = Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
        ConvPolicy::gemm_only(GemmVariant::opt3()),
        workload,
    )
    .run();
    let speedup = naive.cycles as f64 / opt.cycles as f64;
    // At this smoke-test scale (64 px) the factor is smaller than the
    // paper-scale 14x measured by exp-headline; just require a wide margin.
    assert!(speedup > 3.0, "§VI-A order of magnitude: got {speedup:.1}x");
}

/// `lva cfg` on a cfg that parses — `parse_cfg` checks syntax only — but
/// describes an impossible network (a zero stride or pool size, a route or
/// shortcut to no earlier layer) exits 1 with one line naming the
/// offending layer, like a syntax error.
#[test]
fn lva_cfg_rejects_malformed_networks_naming_the_layer() {
    let dir = std::env::temp_dir().join(format!("lva-cfg-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let conv = "[convolutional]\nfilters=4\nsize=3\n";
    for (i, (body, layer)) in [
        (format!("{conv}stride=0\n"), 0),
        ("[maxpool]\nsize=0\n".to_string(), 0),
        (format!("{conv}[route]\nlayers=-9\n"), 1),
        (format!("{conv}{conv}[route]\nlayers=5\n"), 2),
        (format!("{conv}[shortcut]\nfrom=-9\n"), 1),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.cfg"));
        std::fs::write(&path, format!("[net]\nheight=32\nwidth=32\n{body}")).expect("write cfg");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lva"))
            .arg("cfg")
            .arg(&path)
            .output()
            .expect("lva runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "case {i}: {err}");
        assert_eq!(err.lines().count(), 1, "case {i}: {err}");
        let want = format!("cfg shape error at layer {layer} (");
        assert!(err.starts_with(&want), "case {i}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
