//! Extension — the scale-out (multi-core SoC) observatory.
//!
//! The paper characterizes one long-vector core per design point; this
//! experiment shards inference across N such cores behind one shared
//! L2/DRAM port (`lva-scale`, DESIGN.md §18) and reports the
//! throughput-vs-cores curves: where each curve bends, whether the bend is
//! really shared-port contention (exact `Contention` stall attribution
//! cross-checked against the `infinite_shared_bw` counterfactual), and
//! which co-design lever recovers it (`lva-whatif`'s scale advisor).
//!
//! Outputs, all deterministic (simulated cycles are the only clock; no
//! timestamps, no host data; byte-identical for any `--jobs`):
//!
//! * `results/scaling_grid.csv` (and `.json` with `--json`) — the flat
//!   per-cell table;
//! * `BENCH_scaling.json` — the machine-readable record (per-cell
//!   throughput, stall shares, port counters, Mattson cross-check, and
//!   per-curve knee/lever advice), at the repo root next to
//!   `BENCH_headline.json` / `BENCH_serving.json`;
//! * `results/SCALING.md` — the human-readable scaling report;
//! * `--chrome FILE` — a Perfetto-loadable multi-process timeline (one
//!   process per core plus shared-port bandwidth/queue counter tracks) of
//!   the most contended cell.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(
        Dialect::Timeline,
        8,
        "Scale-out observatory: throughput-vs-cores curves over the shared-port SoC simulator",
    );
    let j = scaling_grid_json(opts.div, opts.layers, opts.jobs);

    let mut table = Table::new(
        "SoC scale-out: throughput, contention share, and Mattson cross-check".to_string(),
        &["network", "point", "sharding", "cores", "fr/kcycle", "cont_%", "ideal", "mattson_err"],
    );
    for net in j.arr_at("networks") {
        for p in net.arr_at("points") {
            for c in p.arr_at("curves") {
                for cell in c.arr_at("cells") {
                    let mat = cell.get("mattson").unwrap_or(&Json::Null);
                    table.row(vec![
                        net.str_at("name").to_string(),
                        p.str_at("name").to_string(),
                        c.str_at("sharding").to_string(),
                        cell.u64_at("cores").to_string(),
                        format!("{:.6}", cell.f64_at("throughput_fpkc")),
                        format!("{:.1}", 100.0 * cell.f64_at("contention_share")),
                        format!("{:.6}", cell.f64_at("ideal_throughput_fpkc")),
                        format!("{:.4}", mat.f64_at("abs_error")),
                    ]);
                }
                let adv = c.get("advice").unwrap_or(&Json::Null);
                if let Some(knee) = adv.get("knee_cores").and_then(Json::as_u64) {
                    println!(
                        "{} | {} | {}: knee at {knee} cores — {}",
                        net.str_at("name"),
                        p.str_at("name"),
                        c.str_at("sharding"),
                        adv.get("advice").and_then(Json::as_str).unwrap_or(""),
                    );
                }
            }
        }
    }

    observatory::publish(&j);

    // --chrome: re-run the most contended cell (max cores, batch sharding,
    // smallest shared L2) with the multi-process timeline recorded.
    if let Some(path) = &opts.chrome {
        eprintln!(".. contended-cell SoC timeline [scaling]");
        let trace = scaling_chrome_trace(opts.div, opts.layers);
        match trace.save(path) {
            Ok(()) => println!("[saved {path} ({} events)]", trace.len()),
            Err(e) => eprintln!("could not save {path}: {e}"),
        }
    }

    emit(&table, "scaling_grid", &opts);
}
