//! `lint-dataflow` — dependence-graph certifier and dataflow linter over
//! the kernel registry.
//!
//! For every registered kernel × supported design point this tool builds
//! the RAW/WAR/WAW dependence DAG, proves retime safety (timing-invariance
//! under perturbations plus VL-renaming equivalence within each ISA),
//! checks the critical-path lower bound against the simulated cycle count,
//! and runs the redundant-load / dead-store lint passes. It prints the
//! JSON report, renders `results/DATAFLOW.md`, and gates CI.
//!
//! Exit codes follow the `lint-kernels` contract: 0 = clean (allowlisted
//! findings are reported but do not gate), 1 = new findings or an
//! uncertified kernel, 2 = internal error (panicking kernel, bad
//! arguments, I/O failure).

use std::panic::{catch_unwind, AssertUnwindSafe};

use lva_check::{panic_message, registered_kernels, save_results_json, sweep_configs, Finding};
use lva_core::cli::{Dialect, Opts};
use lva_core::Json;
use lva_depgraph::{allowlisted, certify_kernel, lint_dataflow};

fn main() {
    // `--jobs N` fans the per-kernel certification out over worker threads
    // (0 = all cores); submission-order collection keeps the report
    // byte-identical for every N.
    let opts =
        Opts::parse(Dialect::Tool, 1, "lint-dataflow: dependence-graph certifier + dataflow lints");

    let configs = sweep_configs();
    let kernels = registered_kernels();

    // One unit of work per kernel: certify across its supported design
    // points, then lint the baseline stream the certifier recorded at each.
    // A panic is an internal error.
    type KernelResult = Result<(Json, Vec<Finding>, usize), String>;
    let per_kernel: Vec<KernelResult> = lva_core::parallel_map(&kernels, opts.jobs, |_, case| {
        catch_unwind(AssertUnwindSafe(|| {
            let (cert, mut findings, recordings) = certify_kernel(case, &configs);
            for (profile, rec) in &recordings {
                findings.extend(lint_dataflow(case.name, profile, &rec.events, &rec.allocs));
            }
            (cert.to_json(), findings, recordings.len())
        }))
        .map_err(|e| format!("{}: {}", case.name, panic_message(&e)))
    });

    let mut certificates = Vec::new();
    let mut gating: Vec<Finding> = Vec::new();
    let mut allowed: Vec<(Finding, &'static str)> = Vec::new();
    let mut runs = 0usize;
    let mut errors: Vec<String> = Vec::new();
    for r in per_kernel {
        match r {
            Ok((cert, findings, n)) => {
                certificates.push(cert);
                runs += n;
                for f in findings {
                    match allowlisted(&f.kernel, f.pass) {
                        Some(reason) => allowed.push((f, reason)),
                        None => gating.push(f),
                    }
                }
            }
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("lint-dataflow: internal error in {e}");
        }
        std::process::exit(2);
    }

    let report = Json::obj()
        .field("tool", "lint-dataflow")
        .field("version", env!("CARGO_PKG_VERSION"))
        .field("design_points", configs.iter().map(|(p, _)| Json::from(*p)).collect::<Vec<_>>())
        .field("kernels", kernels.iter().map(|k| Json::from(k.name)).collect::<Vec<_>>())
        .field("kernel_runs", runs)
        .field("certificates", certificates)
        .field("findings", gating.iter().map(Finding::to_json).collect::<Vec<_>>())
        .field(
            "allowlisted",
            allowed
                .iter()
                .map(|(f, reason)| f.to_json().field("reason", *reason))
                .collect::<Vec<_>>(),
        )
        .field("finding_count", gating.len());
    println!("{}", report.to_string_pretty());
    save_markdown(&report);
    if opts.json {
        save_results_json(&report, "lint-dataflow");
    }

    if !gating.is_empty() {
        eprintln!("lint-dataflow: {} gating finding(s)", gating.len());
        std::process::exit(1);
    }
}

/// Render the human-readable companion report next to the JSON.
fn save_markdown(report: &Json) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create results/: {e}");
        std::process::exit(2);
    }
    let path = dir.join("DATAFLOW.md");
    if let Err(e) = std::fs::write(&path, lva_depgraph::dataflow_markdown(report)) {
        eprintln!("could not save {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("[saved {}]", path.display());
}
