//! Full YOLOv3-tiny inference on a simulated RISC-V Vector machine, with a
//! per-layer cycle report and the §II-B kernel-phase breakdown.
//!
//! ```sh
//! cargo run --release --example yolo_tiny_inference
//! ```

use longvec_cnn::nn::yolov3_tiny;
use longvec_cnn::prelude::*;

fn main() {
    let (specs, shape) = yolov3_tiny(160);
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());

    let mut machine = Machine::new(MachineConfig::rvv_gem5(4096, 8, 1 << 20));

    let mut net = Network::build(&mut machine, &specs, shape, policy, 42);
    machine.reset_timing(); // exclude setup, as the paper does

    let image = host_random(shape.len(), 9);
    let report = net.run(&mut machine, &image);

    println!("YOLOv3-tiny @ {}x{} on RVV 4096b / 8 lanes / 1MB L2\n", shape.h, shape.w);
    println!("{:<5} {:<16} {:>13} {:>7}  out shape", "layer", "type", "cycles", "%");
    for l in &report.layers {
        println!(
            "{:<5} {:<16} {:>13} {:>6.1}%  {}x{}x{}",
            l.index,
            l.desc,
            l.cycles,
            100.0 * l.cycles as f64 / report.cycles as f64,
            l.out_shape.c,
            l.out_shape.h,
            l.out_shape.w
        );
    }
    println!("\ntotal: {} cycles for {} Mflop", report.cycles, report.flops() / 1_000_000);
    println!(
        "avg consumed vector length: {:.0} bits; L2 miss rate {:.1}%",
        report.vpu.avg_vlen_bits(),
        100.0 * report.mem.l2.miss_rate()
    );
    println!("\nkernel breakdown (§II-B):");
    for (phase, cycles) in report.phases.breakdown() {
        println!("  {:<14} {:>6.2}%", phase.name(), 100.0 * cycles as f64 / report.cycles as f64);
    }
}
