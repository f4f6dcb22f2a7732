//! Re-render a committed markdown report from an existing JSON record —
//! no simulation, just the deterministic renderer. Lets you regenerate a
//! report byte-for-byte, or render a record produced elsewhere (CI
//! artifacts).
//!
//! The record's `bench` (or `tool`) tag selects the renderer and the
//! default output path from `lva_bench::observatory::KINDS`: energy →
//! `results/PARETO.md`, serving → `results/SERVING.md`, scaling →
//! `results/SCALING.md`, whatif → `results/CODESIGN_REPORT.md`,
//! lint-dataflow → `results/DATAFLOW.md`.
//!
//! Usage: `report [--in BENCH_whatif.json] [--out results/…]`
//!
//! Exit codes: 0 = rendered; 2 = usage error, unreadable or invalid input,
//! or a record whose kind has no renderer (nothing is written).

use lva_bench::observatory::render;

fn fail(msg: &str) -> ! {
    eprintln!("report: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut input = String::from("BENCH_whatif.json");
    let mut output: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--in" => input = args.next().unwrap_or_else(|| fail("--in needs a file path")),
            "--out" => output = args.next().or_else(|| fail("--out needs a file path")),
            "--help" | "-h" => {
                eprintln!(
                    "Render a committed markdown report from its JSON record.\n\nOptions:\n  --in FILE   input record (default BENCH_whatif.json); its tag selects\n              the renderer: energy, serving, scaling, whatif or\n              lint-dataflow\n  --out FILE  output markdown (default: the kind's committed report,\n              e.g. results/PARETO.md for energy records)"
                );
                std::process::exit(0);
            }
            other => fail(&format!("unknown option {other}; try --help")),
        }
    }
    match render(&input, output.as_deref()) {
        Ok(path) => println!("[rendered {path} from {input}]"),
        Err(e) => fail(&e),
    }
}
