//! Extension — the energy observatory over the co-design grid.
//!
//! The paper motivates long-vector CPUs by energy efficiency (§I) and notes
//! that large caches "occupy significant die area" (§V), but evaluates
//! performance only. This experiment re-runs the Fig. 6/7 grid under the
//! `lva-energy` per-layer event-energy model (DESIGN.md §14): longer
//! vectors save instruction-issue energy; ever-larger caches keep saving
//! DRAM energy but eventually lose on access energy (√capacity) and
//! leakage, so the EDP-optimal cache is *finite* even though performance
//! alone keeps (weakly) improving to 256 MB.
//!
//! Outputs, all deterministic (no timestamps, no host data; identical for
//! any `--jobs`):
//!
//! * `results/energy_grid.csv` (and `.json` with `--json`) — the flat
//!   per-point table;
//! * `BENCH_energy.json` — the machine-readable grid record (per-point
//!   energy breakdowns, Pareto flags, both optima), at the repo root next
//!   to `BENCH_headline.json`;
//! * `results/PARETO.md` — the human-readable cycles-vs-energy frontier.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(
        Dialect::Experiment,
        4,
        "Energy/EDP observatory across the RVV vector-length x L2 grid",
    );
    let j = energy_grid_json(opts.div, opts.layers, opts.jobs);

    let mut table = Table::new(
        "Energy per inference and EDP across the VL x L2 grid".to_string(),
        &[
            "network",
            "vlen_bits",
            "l2",
            "cycles",
            "energy_mJ",
            "compute_mJ",
            "mem_mJ",
            "static_mJ",
            "edp_uJ_s",
            "pareto",
        ],
    );
    for net in j.arr_at("networks") {
        let key = net.str_at("name");
        for p in net.arr_at("points") {
            table.row(vec![
                key.to_string(),
                p.u64_at("vlen_bits").to_string(),
                p.str_at("l2").to_string(),
                fmt_cycles(p.u64_at("cycles")),
                format!("{:.2}", p.f64_at("total_j") * 1e3),
                format!("{:.2}", p.f64_at("compute_j") * 1e3),
                format!("{:.2}", p.f64_at("memory_j") * 1e3),
                format!("{:.2}", p.f64_at("static_j") * 1e3),
                format!("{:.1}", p.f64_at("edp_js") * 1e6),
                if matches!(p.get("pareto"), Some(Json::Bool(true))) { "*" } else { "" }
                    .to_string(),
            ]);
        }
        println!(
            "{key}: cycles-optimal {} | EDP-optimal {}",
            net.str_at("cycles_optimal"),
            net.str_at("edp_optimal"),
        );
    }

    observatory::publish(&j);

    emit(&table, "energy_grid", &opts);
}
