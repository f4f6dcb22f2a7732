//! `lva` — command-line driver for the longvec-cnn co-design simulator.
//!
//! ```text
//! lva models                               list the built-in networks
//! lva run [options]                        simulate one inference
//! lva sweep --axis vlen|l2|lanes [options] sweep one hardware axis
//! lva cfg <file> [options]                 load a Darknet .cfg and simulate it
//! lva export-cfg --model <m> [-o file]     write a model as Darknet cfg text
//! ```
//!
//! Common options:
//! `--model yolov3|yolov3-tiny|vgg16`, `--platform rvv|sve|a64fx`,
//! `--vlen BITS`, `--lanes N`, `--l2 MB`, `--gemm naive|opt3|opt6`,
//! `--winograd`, `--div N`, `--layers N`.

use longvec_cnn::core::report::fmt_cycles;
use longvec_cnn::core::EnergyModel;
use longvec_cnn::prelude::*;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "lva — long-vector CNN co-design simulator

USAGE:
  lva models
  lva run        [--model M] [--platform P] [--vlen BITS] [--lanes N] [--l2 MB]
                 [--gemm V] [--winograd] [--div N] [--layers N] [--per-layer]
                 [--energy] [--frames N] [--stats]
  lva sweep      --axis vlen|l2|lanes [same options as run]
  lva cfg FILE   [--platform P] [--vlen BITS] ... (runs the parsed network)
  lva export-cfg --model M [-o FILE]

DEFAULTS: --model yolov3-tiny --platform rvv --vlen 2048 --lanes 8 --l2 1
          --gemm opt3 --div 4"
    );
    exit(2)
}

#[derive(Clone)]
struct Cli {
    model: ModelId,
    platform: String,
    vlen: usize,
    lanes: usize,
    l2_mb: usize,
    gemm: GemmVariant,
    winograd: bool,
    div: usize,
    layers: Option<usize>,
    per_layer: bool,
    energy: bool,
    stats: bool,
    frames: usize,
    axis: Option<String>,
    file: Option<String>,
    out: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            model: ModelId::Yolov3Tiny,
            platform: "rvv".into(),
            vlen: 2048,
            lanes: 8,
            l2_mb: 1,
            gemm: GemmVariant::opt3(),
            winograd: false,
            div: 4,
            layers: None,
            per_layer: false,
            energy: false,
            stats: false,
            frames: 1,
            axis: None,
            file: None,
            out: None,
        }
    }
}

fn parse_model(s: &str) -> ModelId {
    match s {
        "yolov3" => ModelId::Yolov3,
        "yolov3-tiny" | "tiny" => ModelId::Yolov3Tiny,
        "vgg16" | "vgg" => ModelId::Vgg16,
        "resnet50" | "resnet" => ModelId::Resnet50,
        "mobilenet" | "mobilenet-v1" => ModelId::MobilenetV1,
        other => {
            eprintln!("unknown model `{other}` (yolov3 | yolov3-tiny | vgg16 | resnet50)");
            exit(2)
        }
    }
}

fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli::default();
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2)
            })
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => cli.model = parse_model(&need(&mut it, "--model")),
            "--platform" => cli.platform = need(&mut it, "--platform"),
            "--vlen" => cli.vlen = need(&mut it, "--vlen").parse().unwrap_or_else(|_| usage()),
            "--lanes" => cli.lanes = need(&mut it, "--lanes").parse().unwrap_or_else(|_| usage()),
            "--l2" => cli.l2_mb = need(&mut it, "--l2").parse().unwrap_or_else(|_| usage()),
            "--gemm" => {
                cli.gemm = match need(&mut it, "--gemm").as_str() {
                    "naive" => GemmVariant::Naive,
                    "opt3" => GemmVariant::opt3(),
                    "opt6" => GemmVariant::opt6(),
                    _ => usage(),
                }
            }
            "--winograd" => cli.winograd = true,
            "--div" => cli.div = need(&mut it, "--div").parse().unwrap_or_else(|_| usage()),
            "--layers" => {
                cli.layers = Some(need(&mut it, "--layers").parse().unwrap_or_else(|_| usage()));
            }
            "--per-layer" => cli.per_layer = true,
            "--energy" => cli.energy = true,
            "--stats" => cli.stats = true,
            "--frames" => {
                cli.frames = need(&mut it, "--frames").parse().unwrap_or_else(|_| usage());
            }
            "--axis" => cli.axis = Some(need(&mut it, "--axis")),
            "-o" | "--out" => cli.out = Some(need(&mut it, "-o")),
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') && cli.file.is_none() => {
                cli.file = Some(other.to_string());
            }
            other => {
                eprintln!("unknown option `{other}`");
                usage()
            }
        }
    }
    cli
}

fn hw_target(cli: &Cli) -> HwTarget {
    let l2 = cli.l2_mb << 20;
    match cli.platform.as_str() {
        "rvv" | "riscv" => {
            HwTarget::RvvGem5 { vlen_bits: cli.vlen, lanes: cli.lanes, l2_bytes: l2 }
        }
        "sve" | "arm" => HwTarget::SveGem5 { vlen_bits: cli.vlen.min(2048), l2_bytes: l2 },
        "a64fx" => HwTarget::A64fx,
        other => {
            eprintln!("unknown platform `{other}` (rvv | sve | a64fx)");
            exit(2)
        }
    }
}

fn policy(cli: &Cli) -> ConvPolicy {
    if cli.winograd {
        ConvPolicy::winograd_default(cli.gemm)
    } else {
        ConvPolicy::gemm_only(cli.gemm)
    }
}

fn print_summary(cli: &Cli, hw: HwTarget, s: &RunSummary) {
    println!("platform : {}", hw.describe());
    println!("cycles   : {}", fmt_cycles(s.cycles));
    println!("work     : {} Mflop", s.flops / 1_000_000);
    println!("avg VL   : {:.0} bits", s.avg_vlen_bits);
    println!("L2 miss  : {:.1}%", 100.0 * s.l2_miss_rate);
    if cli.per_layer {
        println!("\n{:<5} {:<18} {:>13} {:>7}", "layer", "type", "cycles", "%");
        for l in &s.report.layers {
            println!(
                "{:<5} {:<18} {:>13} {:>6.1}%",
                l.index,
                l.desc,
                l.cycles,
                100.0 * l.cycles as f64 / s.cycles as f64
            );
        }
    }
    println!("\nkernel phases:");
    for (phase, c) in s.report.phases.breakdown() {
        println!("  {:<16} {:>5.1}%", phase.name(), 100.0 * c as f64 / s.cycles as f64);
    }
    if cli.stats {
        println!("\n{}", s.dump_stats());
    }
    if cli.energy {
        let e = EnergyModel::default().estimate(&s.report, hw.l2_bytes());
        println!(
            "\nenergy   : {:.2} mJ ({:.2} compute + {:.2} memory + {:.2} static), EDP {:.1} uJ*s",
            e.total_j() * 1e3,
            e.compute_j * 1e3,
            e.memory_j * 1e3,
            e.static_j * 1e3,
            e.edp() * 1e6
        );
    }
}

fn cmd_models() {
    println!("{:<12} {:<8} layers", "model", "input");
    for model in [
        ModelId::Yolov3,
        ModelId::Yolov3Tiny,
        ModelId::Vgg16,
        ModelId::Resnet50,
        ModelId::MobilenetV1,
    ] {
        let (specs, shape) = model.build(model.native_input());
        let convs = longvec_cnn::nn::network::conv_params_list(&specs, shape).len();
        println!(
            "{:<12} {:<8} {} ({} convolutional)",
            model.name(),
            format!("{}px", model.native_input()),
            specs.len(),
            convs
        );
    }
}

fn cmd_run(cli: &Cli) {
    let hw = hw_target(cli);
    let workload = Workload {
        model: cli.model,
        input_hw: scaled_input(cli.model, cli.div),
        layer_limit: cli.layers,
    };
    let e = Experiment::new(hw, policy(cli), workload);
    println!("workload : {}\n", workload.describe());
    if cli.frames > 1 {
        let s = e.run_stream(cli.frames);
        for (i, c) in s.per_frame_cycles.iter().enumerate() {
            println!("frame {i}: {} cycles", fmt_cycles(*c));
        }
        println!();
        print_summary(cli, hw, &s.steady);
    } else {
        let s = e.run();
        print_summary(cli, hw, &s);
    }
}

fn cmd_sweep(cli: &Cli) {
    let axis = cli.axis.clone().unwrap_or_else(|| usage());
    let workload = Workload {
        model: cli.model,
        input_hw: scaled_input(cli.model, cli.div),
        layer_limit: cli.layers,
    };
    let points: Vec<Cli> = match axis.as_str() {
        "vlen" => {
            let max = if cli.platform == "rvv" { 16384 } else { 2048 };
            let mut v = Vec::new();
            let mut vlen = 512;
            while vlen <= max {
                v.push(Cli { vlen, ..cli.clone() });
                vlen *= 2;
            }
            v
        }
        "l2" => [1usize, 4, 16, 64, 256]
            .into_iter()
            .map(|mb| Cli { l2_mb: mb, ..cli.clone() })
            .collect(),
        "lanes" => [2usize, 4, 8].into_iter().map(|lanes| Cli { lanes, ..cli.clone() }).collect(),
        _ => usage(),
    };
    println!("sweeping {axis} for {}\n", workload.describe());
    let mut base = None;
    for point in points {
        let hw = hw_target(&point);
        let s = Experiment::new(hw, policy(&point), workload).run();
        let b = *base.get_or_insert(s.cycles);
        println!(
            "{:<46} {:>14} cycles   {:>6.2}x",
            hw.describe(),
            fmt_cycles(s.cycles),
            b as f64 / s.cycles as f64
        );
    }
}

fn cmd_cfg(cli: &Cli) {
    let path = cli.file.clone().unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    let (specs, shape) = longvec_cnn::nn::parse_cfg(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    });
    if let Err(e) = longvec_cnn::nn::network::check_shapes(&specs, shape) {
        eprintln!("cfg shape error at {e}");
        exit(1)
    }
    println!("parsed {} layers, input {}x{}x{}\n", specs.len(), shape.c, shape.h, shape.w);
    // Run it on the requested machine.
    use longvec_cnn::nn::network::estimate_arena_words;
    let pol = policy(cli);
    let mut cfg = hw_target(cli).machine_config();
    cfg.arena_mib = (estimate_arena_words(&specs, shape, &pol) * 4 / (1 << 20) + 32).max(64);
    let mut machine = Machine::new(cfg);
    let mut net = Network::build(&mut machine, &specs, shape, pol, 42);
    machine.reset_timing();
    let image = host_random(shape.len(), 7);
    let report = net.run(&mut machine, &image);
    println!("{:<5} {:<18} {:>13}", "layer", "type", "cycles");
    for l in &report.layers {
        println!("{:<5} {:<18} {:>13}", l.index, l.desc, l.cycles);
    }
    println!("\ntotal: {} cycles", fmt_cycles(report.cycles));
}

fn cmd_export_cfg(cli: &Cli) {
    let (specs, shape) = cli.model.build(cli.model.native_input());
    let text = longvec_cnn::nn::to_cfg(&specs, shape);
    match &cli.out {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            println!("wrote {} ({} layers)", path, specs.len());
        }
        None => print!("{text}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage() };
    let cli = parse_args(rest);
    match cmd.as_str() {
        "models" => cmd_models(),
        "run" => cmd_run(&cli),
        "sweep" => cmd_sweep(&cli),
        "cfg" => cmd_cfg(&cli),
        "export-cfg" => cmd_export_cfg(&cli),
        _ => usage(),
    }
}
