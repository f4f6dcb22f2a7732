//! `lint-kernels` — run the kernel sanitizer and the co-design capacity
//! linter over every registered kernel on both ISA profiles, print the
//! results as JSON, and exit nonzero if anything was flagged.
//!
//! Exit codes distinguish *what* went wrong: 0 = clean, 1 = findings
//! (the gate tripped), 2 = internal error (a kernel panicked or the
//! arguments were malformed) — so CI can tell a red gate from a broken
//! tool. CI runs this as a correctness gate; see DESIGN.md "Static
//! analysis".

use std::panic::{catch_unwind, AssertUnwindSafe};

use lva_check::{
    capacity_checks, check_kernel, lint_capacity, panic_message, registered_kernels,
    save_results_json, sweep_configs, Finding,
};
use lva_core::cli::Opts;
use lva_core::Json;
use lva_isa::IsaKind;
use lva_kernels::{BlockSizes, DEFAULT_UNROLL};

/// Deepest Winograd channel count in the studied networks (YOLOv3 reaches
/// 512-in-channel 3x3 layers; Winograd capacity is checked at that depth).
const WINOGRAD_MAX_IN_C: usize = 512;

fn main() {
    // `--jobs N` fans the per-design-point checks out over worker threads
    // (0 = all cores). Findings are collected in design-point order, so the
    // report is identical for every N.
    let opts = Opts::parse_tool("lint-kernels: kernel sanitizer + capacity linter");

    let configs = sweep_configs();
    let kernels = registered_kernels();

    // One unit of work per design point: sanitize every supported kernel
    // and lint the capacity model. Each returns its own findings/capacity
    // block; submission-order collection keeps the report deterministic.
    // A panicking kernel is an internal error (exit 2), not a finding.
    type PointResult = Result<(Vec<Finding>, Json, usize), String>;
    let per_point: Vec<PointResult> =
        lva_core::parallel_map(&configs, opts.jobs, |_, (profile, cfg)| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut findings: Vec<Finding> = Vec::new();
                let mut runs = 0usize;
                for case in kernels.iter().filter(|c| c.supports(cfg.vpu.isa)) {
                    findings.extend(check_kernel(case, profile, cfg));
                    runs += 1;
                }
                let wino = (cfg.vpu.isa == IsaKind::Sve).then_some(WINOGRAD_MAX_IN_C);
                let checks = capacity_checks(cfg, BlockSizes::TABLE2_BEST, DEFAULT_UNROLL, wino);
                findings.extend(lint_capacity(profile, &checks));
                let capacity = Json::obj().field("profile", *profile).field(
                    "checks",
                    checks.iter().map(lva_check::CapacityCheck::to_json).collect::<Vec<_>>(),
                );
                (findings, capacity, runs)
            }))
            .map_err(|e| format!("{profile}: {}", panic_message(&e)))
        });

    let mut findings: Vec<Finding> = Vec::new();
    let mut capacity = Vec::new();
    let mut runs = 0usize;
    let mut errors: Vec<String> = Vec::new();
    for r in per_point {
        match r {
            Ok((f, c, r)) => {
                findings.extend(f);
                capacity.push(c);
                runs += r;
            }
            Err(e) => errors.push(e),
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("lint-kernels: internal error in {e}");
        }
        std::process::exit(2);
    }

    let report = Json::obj()
        .field("tool", "lint-kernels")
        .field("version", env!("CARGO_PKG_VERSION"))
        .field("design_points", configs.iter().map(|(p, _)| Json::from(*p)).collect::<Vec<_>>())
        .field("kernels", kernels.iter().map(|k| Json::from(k.name)).collect::<Vec<_>>())
        .field("kernel_runs", runs)
        .field("capacity", capacity)
        .field("findings", findings.iter().map(Finding::to_json).collect::<Vec<_>>())
        .field("finding_count", findings.len());
    println!("{}", report.to_string_pretty());
    if opts.json {
        save_results_json(&report, "lint-kernels");
    }
    lva_trace::flush();

    if !findings.is_empty() {
        eprintln!("lint-kernels: {} finding(s)", findings.len());
        std::process::exit(1);
    }
}
