//! Shared plumbing for the `exp-*` experiment binaries: command-line
//! parsing (`--div`, `--layers`, `--csv`, `--json`, `--trace`) and common
//! sweep axes.
//!
//! Every binary regenerates one table or figure of the paper, except
//! `exp-paper`, which prints the eleven figures of [`paper`] from one grid;
//! see EXPERIMENTS.md at the workspace root for the full index and the
//! paper-vs-measured record.

#![forbid(unsafe_code)]

pub mod diff;
pub mod energy_report;
pub mod microbench;
pub mod observatory;
pub mod paper;
pub mod scaling_report;
pub mod serving_report;
pub mod sweep;
pub mod whatif_report;

pub use energy_report::{energy_grid_json, pareto_markdown};
pub use scaling_report::{
    scaling_chrome_trace, scaling_grid_json, scaling_markdown, SCALING_CORES,
};
pub use serving_report::{knee_chrome_trace, serving_grid_json, serving_markdown};
pub use sweep::{median_ms, run_sweep, SweepRun};
pub use whatif_report::{codesign_markdown, whatif_json};

pub use lva_core::report::{fmt_cycles, fmt_speedup};
pub use lva_core::{
    scaled_input, BlockSizes, ChromeTrace, ConvPolicy, Experiment, GemmVariant, HwTarget, Json,
    MemProfile, ModelId, RunReport, RunSummary, Table, Workload,
};

/// The vector lengths swept on RISC-V Vector (Fig. 6/7, Table III).
pub const RVV_VLENS: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16384];
/// The vector lengths swept on ARM-SVE (Fig. 8/9/10).
pub const SVE_VLENS: [usize; 3] = [512, 1024, 2048];
/// The L2 capacities swept (1 MB .. 256 MB, Figs. 7-10).
pub const L2_SIZES: [usize; 6] = [1 << 20, 4 << 20, 16 << 20, 64 << 20, 128 << 20, 256 << 20];

/// Common options for experiment binaries — the single shared parser in
/// `lva_core::cli`, re-exported here so every `exp-*` bin keeps saying
/// `lva_bench::Opts`. `exp-whatif` parses with [`Opts::parse_retime`], the
/// only bin that takes `--retime`; the `lint-*` tools use
/// [`Opts::parse_tool`] for the flag subset they accept.
pub use lva_core::cli::{Opts, RetimeOpt};
pub use lva_retime::RetimeEngine;

/// The nine named headline design points of §VI (exp-headline's sweep), in
/// report order. Shared with `exp-whatif` and the co-design advisor so every
/// consumer analyzes exactly the networks the headline table measures.
pub fn headline_specs(div: usize, layers: Option<usize>) -> Vec<(String, Experiment)> {
    let tiny = Workload {
        model: ModelId::Yolov3Tiny,
        input_hw: scaled_input(ModelId::Yolov3Tiny, div),
        layer_limit: layers,
    };
    let yolo20 = Workload {
        model: ModelId::Yolov3,
        input_hw: scaled_input(ModelId::Yolov3, div),
        layer_limit: Some(layers.unwrap_or(20)),
    };
    let naive = ConvPolicy::gemm_only(GemmVariant::Naive);
    let opt3 = ConvPolicy::gemm_only(GemmVariant::opt3());
    let opt6 = ConvPolicy::gemm_only(GemmVariant::opt6());
    let rvv = HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 };
    let ax = HwTarget::A64fx;
    let sve = HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 };
    [
        ("rvv_tiny_naive", Experiment::new(rvv, naive, tiny)),
        ("rvv_tiny_opt3", Experiment::new(rvv, opt3, tiny)),
        ("a64fx_yolo20_naive", Experiment::new(ax, naive, yolo20)),
        ("a64fx_yolo20_opt3", Experiment::new(ax, opt3, yolo20)),
        ("a64fx_yolo20_opt6", Experiment::new(ax, opt6, yolo20)),
        ("sve512_yolo20_opt3", Experiment::new(sve, opt3, yolo20)),
        ("sve512_yolo20_opt6", Experiment::new(sve, opt6, yolo20)),
        ("rvv_yolo20_opt3", Experiment::new(rvv, opt3, yolo20)),
        ("rvv_yolo20_opt6", Experiment::new(rvv, opt6, yolo20)),
    ]
    .into_iter()
    .map(|(n, e)| (n.to_string(), e))
    .collect()
}

/// Write a JSON value under `results/<name>.json` (pretty-printed).
pub fn save_json(j: &Json, name: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut body = j.to_string_pretty();
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

/// Finish an experiment binary: print the table, save CSV and/or JSON as
/// requested, and flush any active trace sink.
pub fn emit(table: &Table, name: &str, opts: &Opts) {
    table.print();
    if opts.csv {
        match table.save_csv(name) {
            Ok(p) => println!("[saved {}]", p.display()),
            Err(e) => eprintln!("could not save CSV: {e}"),
        }
    }
    if opts.json {
        match save_json(&table.to_json(), name) {
            Ok(p) => println!("[saved {}]", p.display()),
            Err(e) => eprintln!("could not save JSON: {e}"),
        }
    }
    lva_trace::flush();
}

/// Build the retime engine the `--retime` flag asks for (`None` when the
/// flag is off).
pub fn retime_engine(opts: &Opts) -> Option<RetimeEngine> {
    opts.retime.enabled().then(|| RetimeEngine::new(opts.retime))
}

/// Log the retime engine's provenance to stderr after a sweep: path
/// counts and the refusal reason if certification failed.
/// Stderr only — the machine-readable records stay byte-identical to
/// their full-simulation counterparts so CI can compare them directly.
pub fn log_retime(engine: Option<&RetimeEngine>) {
    let Some(eng) = engine else { return };
    let c = eng.counters();
    eprintln!(
        "[retime: {} captures, {} tape refits, {} live replays, {} verified]",
        c.captures, c.tape_refits, c.live_replays, c.verified
    );
    if let Some(reason) = eng.refusal() {
        eprintln!("[retime refused: {reason}]");
    }
}
