//! Extension — the request-level serving observatory.
//!
//! The paper evaluates single-inference latency; production deployments
//! face *request streams*: queueing, batching, tenant interference, and
//! tail-latency SLOs. This experiment drives the `lva-serve` deterministic
//! discrete-event batching tier (DESIGN.md §16) across the Table II-style
//! hardware ladder x offered-load grid and reports per-tenant latency
//! histograms, queue telemetry, and an SLO-aware design recommendation
//! from `lva-whatif`.
//!
//! Outputs, all deterministic (simulated cycles are the only clock; no
//! timestamps, no host data; byte-identical for any `--jobs`):
//!
//! * `results/serving_grid.csv` (and `.json` with `--json`) — the flat
//!   per-cell table;
//! * `BENCH_serving.json` — the machine-readable grid record (per-cell
//!   latency percentiles, queue stats, per-tenant SLO verdicts, and the
//!   cheapest-design-meeting-SLO recommendation), at the repo root next
//!   to `BENCH_headline.json` / `BENCH_energy.json`;
//! * `results/SERVING.md` — the human-readable load report;
//! * `--chrome FILE` — a Perfetto-loadable request timeline of the knee
//!   cell (per-request spans plus queue-depth / batch-size counter
//!   tracks) on the reference design point.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(
        Dialect::Timeline,
        8,
        "Serving observatory: latency/queue/SLO report over the batching inference tier",
    );
    let j = serving_grid_json(opts.div, opts.layers, opts.jobs);

    let mut table = Table::new(
        "Serving tier under load: latency percentiles and queue telemetry".to_string(),
        &["point", "load", "p50_ms", "p99_ms", "p99.9_ms", "miss_%", "shed", "util", "avg_batch"],
    );
    for p in j.arr_at("points") {
        let name = p.str_at("name");
        for l in p.arr_at("loads") {
            let (o, q) = (l.get("overall"), l.get("queue"));
            let (o, q) = (o.unwrap_or(&Json::Null), q.unwrap_or(&Json::Null));
            table.row(vec![
                name.to_string(),
                format!("{:.2}x", l.f64_at("intensity")),
                format!("{:.3}", o.f64_at("p50_ms")),
                format!("{:.3}", o.f64_at("p99_ms")),
                format!("{:.3}", o.f64_at("p999_ms")),
                format!("{:.2}", 100.0 * o.f64_at("miss_frac")),
                o.u64_at("shed").to_string(),
                format!("{:.2}", q.f64_at("utilization")),
                format!("{:.2}", q.f64_at("avg_batch")),
            ]);
        }
    }
    if let Some(rec) = j.get("slo_recommendation") {
        let pick = rec
            .get("recommended")
            .and_then(|r| r.get("point"))
            .and_then(Json::as_str)
            .unwrap_or("<none>");
        println!(
            "SLO p99 <= {:.3} ms at the knee: cheapest meeting design {pick}{}",
            rec.f64_at("target_p99_ms"),
            if rec.get("next_cheaper_misses").is_some() {
                " (next-cheaper rung misses)"
            } else {
                ""
            },
        );
    }

    observatory::publish(&j);

    // --chrome: replay the knee cell on the reference design point with
    // per-request lifecycle spans and queue-depth / batch-size counters.
    if let Some(path) = &opts.chrome {
        eprintln!(".. knee-cell request timeline [serving]");
        let trace = knee_chrome_trace(opts.div, opts.layers, opts.jobs);
        match trace.save(path) {
            Ok(()) => println!("[saved {path} ({} events)]", trace.len()),
            Err(e) => eprintln!("could not save {path}: {e}"),
        }
    }

    emit(&table, "serving_grid", &opts);
}
