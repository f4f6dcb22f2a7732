//! The serving observatory: traffic intensities × Table II-style design
//! points through the `lva-serve` discrete-event tier, assembled into
//! `BENCH_serving.json` plus the committed `results/SERVING.md`.
//!
//! The paper evaluates one inference at a time; a deployment serves
//! traffic, and the co-design question becomes "what is the cheapest
//! hardware that holds the latency SLO under this load?". The pipeline:
//!
//! 1. **Calibrate** — for every (design point, tenant) pair, a two-frame
//!    `Experiment::run_stream` on the real simulator yields the cold
//!    (first-frame) and steady (warm) per-inference cycles. This is the
//!    only place the cycle-approximate machine runs; the serving tier is a
//!    queueing model *on top of* those measured costs.
//! 2. **Offer traffic** — seeded Poisson streams per tenant at intensities
//!    [`SERVING_INTENSITIES`] of the *reference* (most expensive) point's
//!    capacity. Seeds depend only on (load, tenant), so every design point
//!    faces the byte-identical arrival streams and differences are purely
//!    architectural. Deadlines too are anchored to the reference point's
//!    steady costs — fixed service-level expectations that cheaper points
//!    must strain to meet.
//! 3. **Observe** — per-tenant log-bucketed latency histograms (per-cell
//!    overall = exact shard merge across tenants), queue telemetry, and
//!    deadline/SLO accounting per cell.
//! 4. **Recommend** — at the knee intensity (the last, heaviest load), the
//!    `lva-whatif` SLO advisor names the cheapest design point whose
//!    measured overall p99 meets a target placed at the geometric mean of
//!    the ladder's best and worst p99 — so the sweep's own histograms
//!    confirm the recommendation and exhibit the next-cheaper point
//!    missing it.
//!
//! Same committed-artifact discipline as the energy/whatif observatories:
//! [`serving_grid_json`] is deterministic (no timestamps, no host data,
//! identical for any `--jobs`), and [`serving_markdown`] is a pure
//! renderer over the parsed record, so CI regenerates and byte-compares
//! both.

use lva_core::{parallel_map, EnergyModel};
use lva_serve::{
    cycles_to_ms, default_mix, evaluate, merge_arrivals, poisson_arrivals, queue_stats_json,
    simulate, tenant_stats_json, LatencyHistogram, Request, ServeConfig, SimResult, SloPolicy,
    TenantProfile, TenantSpec,
};
use lva_whatif::{design_cost, recommend, ServingPoint};

use crate::{
    scaled_input, ChromeTrace, ConvPolicy, Experiment, GemmVariant, HwTarget, Json, RunReport,
    Workload,
};

/// Offered load as a fraction of the reference point's steady-state
/// capacity. The last entry is the knee the SLO recommendation is decided
/// at.
pub const SERVING_INTENSITIES: [f64; 4] = [0.25, 0.5, 0.75, 0.95];

/// Requests offered per unit of tenant weight at every load (tenant `i`
/// receives `weight_i ×` this many requests).
pub const REQUESTS_PER_UNIT_WEIGHT: usize = 240;

/// The hardware ladder the serving sweep prices, strictly cost-ordered by
/// [`design_cost`] (asserted in tests): two SVE-512 rungs, the A64FX, and
/// two long-vector RVV rungs.
pub fn serving_design_points() -> Vec<(String, HwTarget)> {
    vec![
        ("sve512/1MB".into(), HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 }),
        ("sve512/4MB".into(), HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 4 << 20 }),
        ("a64fx".into(), HwTarget::A64fx),
        (
            "rvv2048x8/1MB".into(),
            HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
        ),
        (
            "rvv2048x8/4MB".into(),
            HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 4 << 20 },
        ),
    ]
}

/// The serving workload of one tenant at scale `div`: the full YOLOv3 is
/// capped at its usual 20-layer prefix, the others run whole (an explicit
/// `layers` caps everything, the CI configuration).
fn tenant_workload(t: &TenantSpec, div: usize, layers: Option<usize>) -> Workload {
    let layer_limit = match t.model {
        crate::ModelId::Yolov3 => Some(layers.unwrap_or(20)),
        _ => layers,
    };
    Workload { model: t.model, input_hw: scaled_input(t.model, div), layer_limit }
}

/// Calibration and the anchor report material for one design point.
struct PointCalibration {
    profiles: Vec<TenantProfile>,
    /// The anchor tenant's experiment and steady-state summary: the
    /// carrier for this point's `RunReport` (serving section attached).
    anchor: (Experiment, lva_core::RunSummary),
}

/// Index of the tenant whose steady run anchors each point's `RunReport`
/// (the interactive tiny detector, the mix's majority tenant).
const ANCHOR_TENANT: usize = 0;

fn calibrate(
    points: &[(String, HwTarget)],
    mix: &[TenantSpec],
    div: usize,
    layers: Option<usize>,
    jobs: usize,
) -> Vec<PointCalibration> {
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let grid: Vec<(usize, usize)> =
        (0..points.len()).flat_map(|p| (0..mix.len()).map(move |t| (p, t))).collect();
    let cells: Vec<(Experiment, TenantProfile, lva_core::RunSummary)> =
        parallel_map(&grid, jobs, |_, &(p, t)| {
            let e = Experiment::new(points[p].1, policy, tenant_workload(&mix[t], div, layers));
            eprintln!(".. calibrate {} | {}", e.hw.describe(), e.workload.describe());
            let s = e.run_stream(2);
            let profile =
                TenantProfile { cold_cycles: s.cold_cycles(), steady_cycles: s.steady_cycles() };
            (e, profile, s.steady)
        });
    points
        .iter()
        .enumerate()
        .map(|(p, _)| {
            let row = &cells[p * mix.len()..(p + 1) * mix.len()];
            PointCalibration {
                profiles: row.iter().map(|(_, pr, _)| *pr).collect(),
                anchor: (row[ANCHOR_TENANT].0.clone(), row[ANCHOR_TENANT].2.clone()),
            }
        })
        .collect()
}

/// Offered-traffic definition for one load: identical across design points
/// (seeds and deadlines depend only on the load index and the reference
/// calibration).
fn offered_arrivals(
    mix: &[TenantSpec],
    reference: &[TenantProfile],
    intensity: f64,
    load_idx: usize,
) -> Vec<Request> {
    // Mean cycles one mixed request costs the reference machine, warm.
    let mean_cost: f64 =
        mix.iter().zip(reference).map(|(t, p)| t.weight * p.steady_cycles as f64).sum();
    let streams: Vec<Vec<Request>> = mix
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mean_gap = mean_cost / (intensity * t.weight);
            let deadline = (t.deadline_mult * reference[i].steady_cycles as f64).round() as u64;
            let n = (t.weight * REQUESTS_PER_UNIT_WEIGHT as f64).round() as usize;
            let seed = 0x5eed_0000 + 97 * load_idx as u64 + i as u64;
            poisson_arrivals(seed, i, mean_gap, n, deadline)
        })
        .collect();
    merge_arrivals(&streams)
}

/// Overall (cross-tenant) view of one simulated cell: the tenant
/// histograms folded with the exact shard merge.
fn overall_json(r: &SimResult, freq_ghz: f64) -> Json {
    let mut latency = LatencyHistogram::new();
    let (mut offered, mut completed, mut shed, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for t in &r.tenants {
        latency.merge(&t.latency);
        offered += t.offered;
        completed += t.completed;
        shed += t.shed;
        misses += t.deadline_misses();
    }
    let ms = |c: u64| cycles_to_ms(c, freq_ghz);
    let miss_frac = if offered == 0 { 0.0 } else { misses as f64 / offered as f64 };
    Json::obj()
        .field("offered", offered)
        .field("completed", completed)
        .field("shed", shed)
        .field("deadline_misses", misses)
        .field("miss_frac", miss_frac)
        .field("p50_ms", ms(latency.percentile(0.50)))
        .field("p95_ms", ms(latency.percentile(0.95)))
        .field("p99_ms", ms(latency.percentile(0.99)))
        .field("p999_ms", ms(latency.percentile(0.999)))
}

/// Simulate one (point, load) cell and serialize it.
fn cell_json(
    cal: &PointCalibration,
    mix: &[TenantSpec],
    arrivals: &[Request],
    intensity: f64,
    reference: &[TenantProfile],
    freq_ghz: f64,
) -> (Json, SimResult) {
    let r = simulate(&cal.profiles, arrivals, &ServeConfig::default());
    let mut tenants = Json::obj();
    for (i, t) in mix.iter().enumerate() {
        let stats = &r.tenants[i];
        let deadline_ms = cycles_to_ms(
            (t.deadline_mult * reference[i].steady_cycles as f64).round() as u64,
            freq_ghz,
        );
        let policy = SloPolicy { target_p99_ms: deadline_ms, miss_budget_frac: t.miss_budget_frac };
        let slo = evaluate(stats, &policy, freq_ghz);
        tenants =
            tenants.field(t.name(), tenant_stats_json(stats, freq_ghz).field("slo", slo.to_json()));
    }
    let j = Json::obj()
        .field("intensity", intensity)
        .field("overall", overall_json(&r, freq_ghz))
        .field("queue", queue_stats_json(&r.queue))
        .field("tenants", tenants);
    (j, r)
}

/// Assemble the full `BENCH_serving.json` value. Deterministic for fixed
/// `(div, layers)` — independent of `jobs` and the host; the simulated
/// cycle clock is the only time source anywhere in the pipeline.
pub fn serving_grid_json(div: usize, layers: Option<usize>, jobs: usize) -> Json {
    let freq_ghz = EnergyModel::default().freq_ghz;
    let mix = default_mix();
    let points = serving_design_points();
    let cal = calibrate(&points, &mix, div, layers, jobs);
    let reference = &cal.last().expect("non-empty ladder").profiles;

    let mut tenants_j = Json::Arr(Vec::new());
    if let Json::Arr(arr) = &mut tenants_j {
        for (i, t) in mix.iter().enumerate() {
            let deadline_cycles =
                (t.deadline_mult * reference[i].steady_cycles as f64).round() as u64;
            arr.push(
                Json::obj()
                    .field("name", t.name())
                    .field("weight", t.weight)
                    .field("deadline_mult", t.deadline_mult)
                    .field("deadline_ms", cycles_to_ms(deadline_cycles, freq_ghz))
                    .field("miss_budget_frac", t.miss_budget_frac)
                    .field("requests", (t.weight * REQUESTS_PER_UNIT_WEIGHT as f64).round() as u64),
            );
        }
    }

    // One arrival set per load, shared by every design point.
    let arrivals: Vec<Vec<Request>> = SERVING_INTENSITIES
        .iter()
        .enumerate()
        .map(|(li, &rho)| offered_arrivals(&mix, reference, rho, li))
        .collect();

    let mut knee_points: Vec<ServingPoint> = Vec::new();
    let mut points_json: Vec<Json> = Vec::new();
    for ((name, hw), c) in points.iter().zip(&cal) {
        let mut calibration = Json::obj();
        for (t, p) in mix.iter().zip(&c.profiles) {
            calibration = calibration.field(
                t.name(),
                Json::obj()
                    .field("cold_cycles", p.cold_cycles)
                    .field("steady_cycles", p.steady_cycles)
                    .field("cold_ms", cycles_to_ms(p.cold_cycles, freq_ghz))
                    .field("steady_ms", cycles_to_ms(p.steady_cycles, freq_ghz)),
            );
        }
        let mut loads: Vec<Json> = Vec::new();
        let mut knee_overall: Option<Json> = None;
        for (li, &rho) in SERVING_INTENSITIES.iter().enumerate() {
            let (j, r) = cell_json(c, &mix, &arrivals[li], rho, reference, freq_ghz);
            if li == SERVING_INTENSITIES.len() - 1 {
                knee_overall = Some(j.get("overall").expect("overall section").clone());
                let _ = &r;
            }
            loads.push(j);
        }
        let knee = knee_overall.expect("at least one load");
        knee_points.push(ServingPoint {
            name: name.clone(),
            cost: design_cost(hw),
            p99_ms: knee.get("p99_ms").and_then(Json::as_f64).unwrap_or(f64::INFINITY),
            miss_frac: knee.get("miss_frac").and_then(Json::as_f64).unwrap_or(1.0),
        });
        // The point's RunReport: the anchor tenant's steady frame, with the
        // knee-cell serving view attached through the uniform
        // optional-section path (PR 5's single-emission discipline).
        let (anchor_e, anchor_s) = &c.anchor;
        let report =
            RunReport::new(format!("serving_{}", name.replace('/', "_")), anchor_e, anchor_s)
                .with_serving(
                    Json::obj()
                        .field("anchor_tenant", mix[ANCHOR_TENANT].name())
                        .field("knee_intensity", *SERVING_INTENSITIES.last().expect("non-empty"))
                        .field("overall", knee.clone()),
                );
        points_json.push(
            Json::obj()
                .field("name", name.as_str())
                .field("hw", hw.describe())
                .field("cost", design_cost(hw))
                .field("calibration", calibration)
                .field("loads", Json::Arr(loads))
                .field("report", report.to_json()),
        );
    }

    // SLO target: geometric mean of the ladder's best and worst knee p99 —
    // guaranteed to split the ladder whenever it has any latency contrast,
    // so the recommendation always carries a real counterfactual rung.
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for p in &knee_points {
        lo = lo.min(p.p99_ms);
        hi = hi.max(p.p99_ms);
    }
    let target_p99_ms = (lo * hi).sqrt();
    let rec = recommend(&knee_points, target_p99_ms);

    Json::obj()
        .field("bench", "serving")
        .field("div", div as u64)
        .field("freq_ghz", freq_ghz)
        .field("max_batch", ServeConfig::default().max_batch as u64)
        .field("requests_per_unit_weight", REQUESTS_PER_UNIT_WEIGHT as u64)
        .field(
            "intensities",
            Json::Arr(SERVING_INTENSITIES.iter().map(|&x| Json::from(x)).collect()),
        )
        .field("knee_intensity", *SERVING_INTENSITIES.last().expect("non-empty"))
        .field("reference_point", points.last().expect("non-empty").0.as_str())
        .field("tenants", tenants_j)
        .field("points", Json::Arr(points_json))
        .field("slo_recommendation", rec.to_json())
}

/// Re-simulate the knee cell of the *reference* design point and render it
/// as a Chrome trace (machine/batch/queue-depth/request tracks). Only the
/// reference point is calibrated — the `--chrome` path of `exp-serve`.
pub fn knee_chrome_trace(div: usize, layers: Option<usize>, jobs: usize) -> ChromeTrace {
    let mix = default_mix();
    let points = serving_design_points();
    let reference_point = vec![points.last().expect("non-empty ladder").clone()];
    let cal = calibrate(&reference_point, &mix, div, layers, jobs);
    let reference = &cal[0].profiles;
    let knee_idx = SERVING_INTENSITIES.len() - 1;
    let arrivals = offered_arrivals(&mix, reference, SERVING_INTENSITIES[knee_idx], knee_idx);
    let r = simulate(reference, &arrivals, &ServeConfig::default());
    let names: Vec<&str> = mix.iter().map(TenantSpec::name).collect();
    let mut t = lva_serve::chrome_trace(&r, &names);
    t.note("point", &reference_point[0].0);
    t.note("intensity", &format!("{}", SERVING_INTENSITIES[knee_idx]));
    t
}

/// Render `results/SERVING.md` from a parsed `BENCH_serving.json`. Pure
/// function of its input — CI regenerates it and byte-compares against the
/// committed copy.
pub fn serving_markdown(j: &Json) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let div = j.u64_at("div");
    let _ = writeln!(md, "# Serving observatory\n");
    let _ = writeln!(
        md,
        "The `lva-serve` batching inference tier over the Table II-style hardware \
         ladder at `--div {div}` (DESIGN.md §16). Every design point faces \
         byte-identical Poisson arrival streams at {} of the reference point's \
         (`{}`) steady capacity; per-tenant costs are calibrated by two-frame \
         streams on the cycle-approximate simulator. Latencies are log-bucketed \
         histogram percentiles (≤{:.1}% relative error), milliseconds at \
         {} GHz. Regenerate with `cargo run --release --bin exp-serve`.\n",
        j.get("intensities")
            .and_then(Json::as_arr)
            .map(|a| a
                .iter()
                .map(|x| format!("{}×", x.as_f64().unwrap_or(0.0)))
                .collect::<Vec<_>>()
                .join("/"))
            .unwrap_or_default(),
        j.str_at("reference_point"),
        100.0 * lva_serve::MAX_REL_ERROR,
        j.f64_at("freq_ghz"),
    );

    let _ = writeln!(md, "## Tenant mix\n");
    let _ = writeln!(md, "| tenant | weight | requests/load | deadline (ms) | miss budget |");
    let _ = writeln!(md, "|---|---:|---:|---:|---:|");
    for t in j.arr_at("tenants") {
        let _ = writeln!(
            md,
            "| {} | {:.2} | {} | {:.3} | {:.0}% |",
            t.str_at("name"),
            t.f64_at("weight"),
            t.u64_at("requests"),
            t.f64_at("deadline_ms"),
            100.0 * t.f64_at("miss_budget_frac"),
        );
    }
    let _ = writeln!(md);

    let rec = j.get("slo_recommendation");
    let _ = writeln!(md, "## SLO recommendation\n");
    if let Some(rec) = rec {
        let target = rec.f64_at("target_p99_ms");
        match rec.get("recommended") {
            Some(p) => {
                let _ = writeln!(
                    md,
                    "Cheapest design point holding overall p99 ≤ **{target:.3} ms** at the \
                     {}× knee: **{}** (cost {:.0}, measured p99 {:.3} ms, \
                     deadline-miss {:.1}%).",
                    j.f64_at("knee_intensity"),
                    p.str_at("point"),
                    p.f64_at("cost"),
                    p.f64_at("p99_ms"),
                    100.0 * p.f64_at("miss_frac"),
                );
                match rec.get("next_cheaper_misses") {
                    Some(n) => {
                        let _ = writeln!(
                            md,
                            "One rung down, **{}** (cost {:.0}) misses at p99 {:.3} ms — the \
                             recommendation's own counterfactual.\n",
                            n.str_at("point"),
                            n.f64_at("cost"),
                            n.f64_at("p99_ms"),
                        );
                    }
                    None => {
                        let _ = writeln!(md, "It is already the cheapest rung of the ladder.\n");
                    }
                }
            }
            None => {
                let _ = writeln!(md, "No ladder point holds p99 ≤ {target:.3} ms at the knee.\n");
            }
        }
    }

    let _ = writeln!(md, "## Design points under load\n");
    for p in j.arr_at("points") {
        let _ = writeln!(
            md,
            "### {} — {} (cost {:.0})\n",
            p.str_at("name"),
            p.str_at("hw"),
            p.f64_at("cost")
        );
        let _ = writeln!(
            md,
            "| load | p50 (ms) | p95 (ms) | p99 (ms) | p99.9 (ms) | miss % | shed | util | avg batch | switches |"
        );
        let _ = writeln!(md, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        for l in p.arr_at("loads") {
            let o = l.get("overall").cloned().unwrap_or_else(Json::obj);
            let q = l.get("queue").cloned().unwrap_or_else(Json::obj);
            let _ = writeln!(
                md,
                "| {}× | {:.3} | {:.3} | {:.3} | {:.3} | {:.1} | {} | {:.2} | {:.2} | {} |",
                l.f64_at("intensity"),
                o.f64_at("p50_ms"),
                o.f64_at("p95_ms"),
                o.f64_at("p99_ms"),
                o.f64_at("p999_ms"),
                100.0 * o.f64_at("miss_frac"),
                o.u64_at("shed"),
                q.f64_at("utilization"),
                q.f64_at("avg_batch"),
                q.u64_at("switches"),
            );
        }
        let _ = writeln!(md);
    }

    let _ = writeln!(md, "## Latency-vs-load knee per tenant\n");
    let _ = writeln!(
        md,
        "Per-tenant p99 (ms) as offered load rises — the knee is where a column \
         departs from its low-load plateau.\n"
    );
    let points = j.arr_at("points");
    for t in j.arr_at("tenants") {
        let tname = t.str_at("name");
        let _ = writeln!(md, "### {tname}\n");
        let mut header = String::from("| load |");
        let mut rule = String::from("|---:|");
        for p in points {
            let _ = write!(header, " {} |", p.str_at("name"));
            rule.push_str("---:|");
        }
        let _ = writeln!(md, "{header}");
        let _ = writeln!(md, "{rule}");
        let n_loads = j.get("intensities").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        for li in 0..n_loads {
            let mut row = format!(
                "| {}× |",
                j.get("intensities")
                    .and_then(Json::as_arr)
                    .and_then(|a| a.get(li))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            );
            for p in points {
                let p99 = p
                    .get("loads")
                    .and_then(Json::as_arr)
                    .and_then(|ls| ls.get(li))
                    .and_then(|l| l.get("tenants"))
                    .and_then(|ts| ts.get(tname))
                    .map_or(0.0, |s| s.f64_at("p99_ms"));
                let _ = write!(row, " {p99:.3} |");
            }
            let _ = writeln!(md, "{row}");
        }
        let _ = writeln!(md);
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Json {
        // Reduced sweep: tiny scale, short prefixes — the unit-test
        // configuration (CI runs the committed default separately).
        serving_grid_json(16, Some(4), 2)
    }

    #[test]
    fn ladder_is_strictly_cost_ordered() {
        let pts = serving_design_points();
        let costs: Vec<f64> = pts.iter().map(|(_, hw)| design_cost(hw)).collect();
        for w in costs.windows(2) {
            assert!(w[0] < w[1], "ladder must climb in cost: {costs:?}");
        }
        assert_eq!(pts.len(), 5);
    }

    #[test]
    fn serving_grid_is_deterministic_across_jobs() {
        let a = tiny_grid();
        let b = serving_grid_json(16, Some(4), 1);
        assert_eq!(
            a.to_string_pretty(),
            b.to_string_pretty(),
            "serving record must not depend on --jobs"
        );
    }

    #[test]
    fn recommendation_is_confirmed_by_the_sweeps_own_histograms() {
        let j = tiny_grid();
        let rec = j.get("slo_recommendation").expect("recommendation section");
        let target = rec.get("target_p99_ms").and_then(Json::as_f64).expect("target");
        assert!(target > 0.0);
        assert_eq!(rec.get("met").and_then(Json::as_bool), Some(true), "geomean target is met");
        let p = rec.get("recommended").expect("recommended point");
        let rec_name = p.get("point").and_then(Json::as_str).expect("name");
        let rec_p99 = p.get("p99_ms").and_then(Json::as_f64).expect("p99");
        assert!(rec_p99 <= target, "recommended point meets the target");
        // Cross-check against the point's own knee cell.
        let points = j.get("points").and_then(Json::as_arr).expect("points");
        let knee_p99 = |name: &str| {
            let pt = points
                .iter()
                .find(|q| q.get("name").and_then(Json::as_str) == Some(name))
                .expect("recommended point is in the sweep");
            let loads = pt.get("loads").and_then(Json::as_arr).expect("loads");
            loads
                .last()
                .and_then(|l| l.get("overall"))
                .and_then(|o| o.get("p99_ms"))
                .and_then(Json::as_f64)
                .expect("knee p99")
        };
        assert_eq!(knee_p99(rec_name), rec_p99, "recommendation quotes the sweep's histogram");
        // Every cheaper rung misses; the witness is the dearest of them.
        if let Some(n) = rec.get("next_cheaper_misses") {
            let n_p99 = n.get("p99_ms").and_then(Json::as_f64).expect("witness p99");
            assert!(n_p99 > target, "the next-cheaper witness must miss");
            assert_eq!(
                knee_p99(n.get("point").and_then(Json::as_str).expect("witness name")),
                n_p99
            );
        }
    }

    #[test]
    fn cells_conserve_requests_and_the_ladder_orders_the_knee_tail() {
        let j = tiny_grid();
        let offered_per_load: u64 = j
            .get("tenants")
            .and_then(Json::as_arr)
            .expect("tenants")
            .iter()
            .map(|t| t.u64_at("requests"))
            .sum();
        let points = j.get("points").and_then(Json::as_arr).expect("points");
        // Faster hardware under byte-identical arrivals cannot lose the
        // knee tail: the dearest rung's p99 ≤ the cheapest rung's. (No
        // per-point monotonicity in *load* is asserted — dynamic batching
        // legitimately improves the median as load rises, because denser
        // queues amortize cold-switch costs over larger batches.)
        let knee_p99 = |p: &Json| {
            p.get("loads")
                .and_then(Json::as_arr)
                .and_then(|ls| ls.last())
                .and_then(|l| l.get("overall"))
                .map_or(0.0, |o| o.f64_at("p99_ms"))
        };
        let cheapest = points.first().expect("non-empty");
        let dearest = points.last().expect("non-empty");
        assert!(
            knee_p99(dearest) <= knee_p99(cheapest),
            "dearest rung {} must not have a worse knee p99 than cheapest {}",
            knee_p99(dearest),
            knee_p99(cheapest)
        );
        for p in points {
            let loads = p.get("loads").and_then(Json::as_arr).expect("loads");
            assert_eq!(loads.len(), SERVING_INTENSITIES.len());
            for l in loads {
                let o = l.get("overall").expect("overall");
                assert_eq!(
                    o.u64_at("completed") + o.u64_at("shed"),
                    o.u64_at("offered"),
                    "conservation in every cell"
                );
                assert_eq!(o.u64_at("offered"), offered_per_load);
                // Tail orderings the histogram must respect.
                assert!(o.f64_at("p50_ms") <= o.f64_at("p95_ms"));
                assert!(o.f64_at("p95_ms") <= o.f64_at("p99_ms"));
                assert!(o.f64_at("p99_ms") <= o.f64_at("p999_ms"));
            }
            // The embedded RunReport carries the serving section.
            let rep = p.get("report").expect("per-point RunReport");
            let serving = rep.get("serving").expect("serving section attached");
            assert_eq!(serving.get("anchor_tenant").and_then(Json::as_str), Some("yolov3_tiny"));
            assert!(serving.get("overall").and_then(|o| o.get("p99_ms")).is_some());
        }
    }

    #[test]
    fn serving_markdown_is_pure_and_complete() {
        let j = tiny_grid();
        let md = serving_markdown(&j);
        assert_eq!(md, serving_markdown(&j), "renderer is pure");
        for needle in [
            "# Serving observatory",
            "## SLO recommendation",
            "## Design points under load",
            "## Latency-vs-load knee per tenant",
            "rvv2048x8/4MB",
            "yolov3_tiny",
        ] {
            assert!(md.contains(needle), "missing {needle}");
        }
        // Round-trips through serialization (the committed-artifact path).
        let reparsed = Json::parse(&j.to_string_pretty()).expect("parses");
        assert_eq!(serving_markdown(&reparsed), md);
    }

    #[test]
    fn knee_chrome_trace_is_renderable() {
        let t = knee_chrome_trace(16, Some(4), 2);
        assert_eq!(t.validate(), Ok(()));
        assert!(!t.is_empty());
        let j = t.to_json();
        let evs = j.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert!(evs.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
    }
}
