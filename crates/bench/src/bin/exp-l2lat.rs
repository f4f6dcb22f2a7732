//! §VI-B caveat — "larger caches are beneficial, *given that their latency
//! remains low*". The paper's sweep pins the L2 latency at the 1 MB anchor
//! (12 cycles); this ablation re-runs the Fig. 7 cache sweep with a
//! CACTI-flavoured sqrt latency model (192 cycles at 256 MB) and shows how
//! much of the headline cache gain survives realistic latencies.

use lva_bench::*;
use lva_core::MachineConfig;
use lva_isa::Machine;
use lva_nn::Network;
use lva_sim::{l2_latency_cycles, LatencyModel};
use lva_tensor::host_random;

fn run_with_latency(
    vlen: usize,
    l2: usize,
    model: LatencyModel,
    workload: &Workload,
    policy: ConvPolicy,
) -> u64 {
    let (specs, shape) = workload.model.build(workload.input_hw);
    let specs = match workload.layer_limit {
        Some(n) => specs[..n.min(specs.len())].to_vec(),
        None => specs,
    };
    let mut cfg = MachineConfig::rvv_gem5(vlen, 8, l2);
    cfg.mem.l2.hit_latency = l2_latency_cycles(l2, model);
    let mut m = Machine::new(cfg);
    let mut net = Network::build(&mut m, &specs, shape, policy, 42);
    m.reset_timing();
    let image = host_random(shape.len(), 9);
    net.run(&mut m, &image).cycles
}

fn main() {
    let opts = Opts::parse(
        Dialect::Experiment,
        4,
        "L2 latency ablation: constant (paper) vs CACTI-scaled",
    );
    let workload = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, opts.div),
        layer_limit: Some(opts.layers.unwrap_or(20)),
    };
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let vlen = 8192;
    let mut table = Table::new(
        format!("L2 sweep under both latency models, RVV {vlen}b, {}", workload.describe()),
        &[
            "l2",
            "latency_const",
            "cycles_const",
            "latency_scaled",
            "cycles_scaled",
            "scaled_gain_vs_1MB",
        ],
    );
    let mut base_scaled = None;
    for l2 in L2_SIZES {
        eprintln!(".. L2 = {}", lva_core::experiment::fmt_bytes(l2));
        let c_const = run_with_latency(vlen, l2, LatencyModel::Constant, &workload, policy);
        let c_scaled = run_with_latency(vlen, l2, LatencyModel::Scaled, &workload, policy);
        let b = *base_scaled.get_or_insert(c_scaled);
        table.row(vec![
            lva_core::experiment::fmt_bytes(l2),
            l2_latency_cycles(l2, LatencyModel::Constant).to_string(),
            fmt_cycles(c_const),
            l2_latency_cycles(l2, LatencyModel::Scaled).to_string(),
            fmt_cycles(c_scaled),
            fmt_speedup(b as f64 / c_scaled as f64),
        ]);
    }
    println!("\npaper assumes constant latency; the scaled column shows the cost of realism\n");
    emit(&table, "l2_latency_ablation", &opts);
}
