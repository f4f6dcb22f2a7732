//! The scale-out observatory: throughput-vs-cores curves over the
//! `lva-scale` multi-core SoC simulator, assembled into
//! `BENCH_scaling.json` plus the committed `results/SCALING.md`.
//!
//! The paper characterizes one core per design point; this sweep asks what
//! happens when N of those cores share one L2/DRAM port. Per (network ×
//! design point), the op stream is captured **once**
//! ([`Experiment::run_traced`]) and replayed on 1/2/4/8-core SoCs under
//! both sharding strategies ([`Sharding::ALL`]), each paired with its
//! `infinite_shared_bw` counterfactual — the same schedule with
//! arbitration waits idealized away, an upper bound on what any port fix
//! can recover. The analysis layer is `lva-whatif`'s scale advisor: it
//! finds where each curve bends ([`lva_whatif::find_knee`]), checks the
//! bend is really contention (attributed `Contention` share **and** the
//! counterfactual agree), and names the cheapest recovering co-design
//! lever — more shared L2, the other sharding, or fewer cores.
//!
//! Invariants carried by the record (each pinned by a test and gated in CI
//! via `bench-diff --kind scaling`):
//!
//! * the 1-core batch row is **bit-identical** to the single-core
//!   simulator — its cycles-per-frame equals the embedded `RunReport`'s
//!   `totals.cycles`, which *is* the headline path's summary;
//! * per core, stall causes (now including `contention`) sum to the total;
//! * the merged-stream Mattson prediction of the shared-L2 hit rate agrees
//!   with simulation within 1% absolute in every cell;
//! * the whole record is deterministic: no timestamps, no host data,
//!   byte-identical for any `--jobs`.

use lva_isa::StallCause;
use lva_scale::{run_soc_captured, Sharding, SocConfig, SocResult};
use lva_whatif::{advise, find_knee, scaling_efficiency, ScaleCell, SCALING_KNEE_EFFICIENCY};

use crate::{
    scaled_input, ConvPolicy, Experiment, GemmVariant, HwTarget, Json, ModelId, RunReport, Workload,
};

/// The core-count ladder every curve is swept over. Pipeline cells where
/// the network has fewer layers than cores are skipped (a stage must own
/// at least one layer).
pub const SCALING_CORES: [usize; 4] = [1, 2, 4, 8];

/// The design points the SoC is scaled at: the paper's long-vector RVV
/// core with the shared L2 at two Table II capacities — the pair that
/// makes the "more L2" lever measurable inside the sweep itself.
pub fn scaling_design_points() -> Vec<(String, HwTarget)> {
    vec![
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

/// The two networks scaled out: the tiny detector whole, and the full
/// YOLOv3 at its usual 20-layer prefix (an explicit `layers` caps both —
/// the CI configuration).
pub fn scaling_networks(div: usize, layers: Option<usize>) -> Vec<(String, Workload)> {
    vec![
        (
            "yolov3_tiny".into(),
            Workload {
                model: ModelId::Yolov3Tiny,
                input_hw: scaled_input(ModelId::Yolov3Tiny, div),
                layer_limit: layers,
            },
        ),
        (
            "yolov3_20".into(),
            Workload {
                model: ModelId::Yolov3,
                input_hw: scaled_input(ModelId::Yolov3, div),
                layer_limit: Some(layers.unwrap_or(20)),
            },
        ),
    ]
}

/// One sweep cell: which capture, how many cores, which strategy, real or
/// counterfactual port.
#[derive(Debug, Clone, Copy)]
struct CellSpec {
    pair: usize,
    sharding: Sharding,
    cores: usize,
    ideal: bool,
}

/// One measured curve: fixed (network, point, sharding), varying cores.
struct Curve {
    net: usize,
    point: usize,
    sharding: Sharding,
    /// `(real, counterfactual)` per core count, [`SCALING_CORES`] order
    /// (pipeline curves may be shorter — see [`SCALING_CORES`]).
    cells: Vec<(SocResult, SocResult)>,
}

impl Curve {
    fn scale_cells(&self) -> Vec<ScaleCell> {
        self.cells
            .iter()
            .map(|(real, ideal)| ScaleCell {
                cores: real.n_cores as u64,
                throughput: real.frames_per_kcycle(),
                contention_share: real.mean_contention_share(),
                ideal_throughput: ideal.frames_per_kcycle(),
            })
            .collect()
    }

    fn throughput_at(&self, cores: u64) -> Option<f64> {
        self.cells
            .iter()
            .find(|(r, _)| r.n_cores as u64 == cores)
            .map(|(r, _)| r.frames_per_kcycle())
    }
}

fn simulate_curves(
    caps: &[(Experiment, lva_core::CapturedRun)],
    n_nets: usize,
    n_points: usize,
    jobs: usize,
) -> Vec<Curve> {
    let mut specs: Vec<CellSpec> = Vec::new();
    for (pair, (_, cap)) in caps.iter().enumerate() {
        let n_layers = cap.summary.report.layers.len();
        for sharding in Sharding::ALL {
            for &cores in &SCALING_CORES {
                if sharding == Sharding::Pipeline && cores > n_layers {
                    continue;
                }
                for ideal in [false, true] {
                    specs.push(CellSpec { pair, sharding, cores, ideal });
                }
            }
        }
    }
    let results: Vec<SocResult> = lva_core::parallel_map(&specs, jobs, |_, spec| {
        let (e, cap) = &caps[spec.pair];
        eprintln!(
            ".. soc {} | {} | {} x{}{}",
            e.hw.describe(),
            e.workload.describe(),
            spec.sharding.name(),
            spec.cores,
            if spec.ideal { " [infinite bw]" } else { "" }
        );
        let cfg = SocConfig::new(spec.cores, spec.sharding).with_infinite_bw(spec.ideal);
        run_soc_captured(e, cap, &cfg)
    });

    let mut curves: Vec<Curve> = Vec::new();
    for net in 0..n_nets {
        for point in 0..n_points {
            let pair = net * n_points + point;
            for sharding in Sharding::ALL {
                let mut cells: Vec<(Option<SocResult>, Option<SocResult>)> = Vec::new();
                for (spec, r) in specs.iter().zip(results.iter()) {
                    if spec.pair != pair || spec.sharding != sharding {
                        continue;
                    }
                    let idx = SCALING_CORES
                        .iter()
                        .position(|&c| c == spec.cores)
                        .expect("cores from the ladder");
                    while cells.len() <= idx {
                        cells.push((None, None));
                    }
                    let slot = &mut cells[idx];
                    let copied = clone_result(r);
                    if spec.ideal {
                        slot.1 = Some(copied);
                    } else {
                        slot.0 = Some(copied);
                    }
                }
                let cells: Vec<(SocResult, SocResult)> =
                    cells.into_iter().filter_map(|(r, i)| Some((r?, i?))).collect();
                curves.push(Curve { net, point, sharding, cells });
            }
        }
    }
    curves
}

/// Duplicate a [`SocResult`]'s report-relevant state (the struct is not
/// `Clone` because it may own a timeline; sweeps never record one).
fn clone_result(r: &SocResult) -> SocResult {
    assert!(r.timeline.is_none(), "sweep cells do not record timelines");
    SocResult {
        n_cores: r.n_cores,
        sharding: r.sharding,
        infinite_shared_bw: r.infinite_shared_bw,
        cores: r.cores.clone(),
        port: r.port.clone(),
        frames: r.frames,
        makespan: r.makespan,
        mattson: r.mattson,
        bw_samples: r.bw_samples.clone(),
        timeline: None,
    }
}

fn cell_json(real: &SocResult, ideal: &SocResult) -> Json {
    let total_core_cycles: u64 = real.cores.iter().map(|c| c.cycles).sum();
    let mut stall_shares = Json::obj();
    for cause in StallCause::ALL {
        let cyc: u64 = real.cores.iter().map(|c| c.stalls.get(cause)).sum();
        let share =
            if total_core_cycles == 0 { 0.0 } else { cyc as f64 / total_core_cycles as f64 };
        stall_shares = stall_shares.field(cause.name(), share);
    }
    let sc = ScaleCell {
        cores: real.n_cores as u64,
        throughput: real.frames_per_kcycle(),
        contention_share: real.mean_contention_share(),
        ideal_throughput: ideal.frames_per_kcycle(),
    };
    Json::obj()
        .field("cores", real.n_cores as u64)
        .field("frames", real.frames as u64)
        .field("makespan", real.makespan)
        .field("throughput_fpkc", real.frames_per_kcycle())
        .field("cycles_per_frame", real.cycles_per_frame())
        .field("contention_cycles", real.total_contention())
        .field("contention_share", real.mean_contention_share())
        .field("ideal_throughput_fpkc", ideal.frames_per_kcycle())
        .field("contention_cost_frac", sc.contention_cost_frac())
        .field("pipeline_idle", real.cores.iter().map(|c| c.pipeline_idle).sum::<u64>())
        .field("stall_shares", stall_shares)
        .field(
            "port",
            Json::obj()
                .field("waits", real.port.waits.iter().sum::<u64>())
                .field("service_cycles", real.port.service_cycles.iter().sum::<u64>())
                .field("l2_accesses", real.port.l2.accesses)
                .field("l2_hit_rate", real.port.l2.hit_rate()),
        )
        .field(
            "mattson",
            Json::obj()
                .field("predicted_hit_rate", real.mattson.predicted_hit_rate)
                .field("simulated_hit_rate", real.mattson.simulated_hit_rate)
                .field("abs_error", real.mattson.abs_error())
                .field("transactions", real.mattson.transactions),
        )
}

/// Assemble the full `BENCH_scaling.json` value. Deterministic for fixed
/// `(div, layers)` — independent of `jobs` and the host.
pub fn scaling_grid_json(div: usize, layers: Option<usize>, jobs: usize) -> Json {
    let nets = scaling_networks(div, layers);
    let points = scaling_design_points();
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());

    // Capture once per (network, point); every SoC cell replays a capture.
    let pairs: Vec<(usize, usize)> =
        (0..nets.len()).flat_map(|n| (0..points.len()).map(move |p| (n, p))).collect();
    let caps: Vec<(Experiment, lva_core::CapturedRun)> =
        lva_core::parallel_map(&pairs, jobs, |_, &(n, p)| {
            let e = Experiment::new(points[p].1, policy, nets[n].1);
            eprintln!(".. capture {} | {}", e.hw.describe(), e.workload.describe());
            let cap = e.run_traced();
            (e, cap)
        });

    let curves = simulate_curves(&caps, nets.len(), points.len(), jobs);

    // Analysis pass: per curve, knee + lever (needs every curve in hand —
    // the levers are cross-curve comparisons).
    let advice: Vec<lva_whatif::ScaleAdvice> = curves
        .iter()
        .map(|curve| {
            let cells = curve.scale_cells();
            let knee = find_knee(&cells).map(|i| cells[i].cores);
            let l2_recovers = knee.is_some_and(|kc| {
                curves
                    .iter()
                    .find(|o| {
                        o.net == curve.net
                            && o.point == curve.point + 1
                            && o.sharding == curve.sharding
                    })
                    .is_some_and(|bigger| {
                        let bc = bigger.scale_cells();
                        let eff = scaling_efficiency(&bc);
                        bc.iter()
                            .zip(&eff)
                            .any(|(c, &e)| c.cores == kc && e >= SCALING_KNEE_EFFICIENCY)
                    })
            });
            let other_gain = knee
                .and_then(|kc| {
                    let mine = curve.throughput_at(kc)?;
                    let other = curves.iter().find(|o| {
                        o.net == curve.net && o.point == curve.point && o.sharding != curve.sharding
                    })?;
                    Some(other.throughput_at(kc)? / mine)
                })
                .unwrap_or(1.0);
            advise(&cells, l2_recovers, other_gain)
        })
        .collect();

    let mut nets_json: Vec<Json> = Vec::new();
    for (n, (net_name, _)) in nets.iter().enumerate() {
        let mut points_json: Vec<Json> = Vec::new();
        for (p, (point_name, hw)) in points.iter().enumerate() {
            let pair = n * points.len() + p;
            let (exp, cap) = &caps[pair];
            let mut curves_json: Vec<Json> = Vec::new();
            let mut scaling_section = Json::obj()
                .field(
                    "cores",
                    Json::Arr(SCALING_CORES.iter().map(|&c| Json::from(c as u64)).collect()),
                )
                .field("single_core_cycles", cap.summary.cycles);
            for (curve, adv) in curves.iter().zip(&advice) {
                if curve.net != n || curve.point != p {
                    continue;
                }
                let cells_json: Vec<Json> =
                    curve.cells.iter().map(|(r, i)| cell_json(r, i)).collect();
                curves_json.push(
                    Json::obj()
                        .field("sharding", curve.sharding.name())
                        .field("cells", Json::Arr(cells_json))
                        .field("advice", adv.to_json()),
                );
                let peak =
                    curve.cells.iter().map(|(r, _)| r.frames_per_kcycle()).fold(0.0f64, f64::max);
                let mut summary = Json::obj().field("peak_throughput_fpkc", peak);
                if let Some(kc) = adv.knee_cores {
                    summary = summary.field("knee_cores", kc);
                }
                if let Some(l) = adv.lever {
                    summary = summary.field("lever", l.name());
                }
                scaling_section = scaling_section.field(curve.sharding.name(), summary);
            }
            // The point's RunReport: the capture's single-core summary —
            // the headline path — with the scaling view attached through
            // the uniform optional-section path.
            let report = RunReport::new(
                format!("scaling_{net_name}_{}", point_name.replace('/', "_")),
                exp,
                &cap.summary,
            )
            .with_scaling(scaling_section);
            points_json.push(
                Json::obj()
                    .field("name", point_name.as_str())
                    .field("hw", hw.describe())
                    .field("l2_bytes", hw.l2_bytes() as u64)
                    .field("single_core_cycles", cap.summary.cycles)
                    .field("curves", Json::Arr(curves_json))
                    .field("report", report.to_json()),
            );
        }
        nets_json.push(
            Json::obj().field("name", net_name.as_str()).field("points", Json::Arr(points_json)),
        );
    }

    Json::obj()
        .field("bench", "scaling")
        .field("div", div as u64)
        .field("cores", Json::Arr(SCALING_CORES.iter().map(|&c| Json::from(c as u64)).collect()))
        .field("knee_efficiency", SCALING_KNEE_EFFICIENCY)
        .field("networks", Json::Arr(nets_json))
}

/// Re-run one cell with the multi-process timeline recorded — the
/// `--chrome` path of `exp-scale` (the heaviest real cell: most cores,
/// batch sharding, first network on the small-L2 point).
pub fn scaling_chrome_trace(div: usize, layers: Option<usize>) -> crate::ChromeTrace {
    let nets = scaling_networks(div, layers);
    let points = scaling_design_points();
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let e = Experiment::new(points[0].1, policy, nets[0].1);
    eprintln!(".. capture {} | {}", e.hw.describe(), e.workload.describe());
    let cap = e.run_traced();
    let cores = *SCALING_CORES.last().expect("non-empty ladder");
    let cfg = SocConfig::new(cores, Sharding::Batch).with_timeline(true);
    let soc = run_soc_captured(&e, &cap, &cfg);
    let mut t = soc.timeline.expect("timeline requested");
    t.note("network", &nets[0].0);
    t.note("point", &points[0].0);
    t
}

/// Render `results/SCALING.md` from a parsed `BENCH_scaling.json`. Pure
/// function of its input — CI regenerates it and byte-compares against the
/// committed copy.
pub fn scaling_markdown(j: &Json) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let div = j.u64_at("div");
    let _ = writeln!(md, "# Scale-out observatory\n");
    let _ = writeln!(
        md,
        "Throughput-vs-cores curves from the `lva-scale` multi-core SoC simulator at \
         `--div {div}` (DESIGN.md §18): N copies of the single-core machine behind one \
         bandwidth-contended L2/DRAM port, under batch and layer-pipeline sharding, \
         each with its `infinite_shared_bw` counterfactual. Throughput is frames per \
         kilocycle of SoC makespan; *eff* is parallel efficiency against linear \
         scaling of the 1-core row; *cont* is the mean per-core share of stall cycles \
         attributed to `Contention` (the shared port); the Mattson column is the \
         merged-stream reuse-distance prediction error of the shared-L2 hit rate \
         (≤ 1% absolute in every cell, gated). The 1-core batch row is bit-identical \
         to the single-core headline simulator. Regenerate with \
         `cargo run --release --bin exp-scale`.\n"
    );

    // Knee summary first: where each curve bends and what recovers it.
    let _ = writeln!(md, "## Scaling knees and recovery levers\n");
    let _ = writeln!(md, "| network | point | sharding | knee | contention-bound | lever |");
    let _ = writeln!(md, "|---|---|---|---:|---|---|");
    let nets = j.arr_at("networks");
    for net in nets {
        for p in net.arr_at("points") {
            for c in p.arr_at("curves") {
                let adv = c.get("advice").cloned().unwrap_or_else(Json::obj);
                let knee = adv
                    .get("knee_cores")
                    .and_then(Json::as_u64)
                    .map_or("—".to_string(), |k| format!("{k} cores"));
                let bound = if adv.get("contention_bound").and_then(Json::as_bool) == Some(true) {
                    "yes"
                } else {
                    "no"
                };
                let lever = adv.get("lever").and_then(Json::as_str).unwrap_or("—");
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {} | {} |",
                    net.str_at("name"),
                    p.str_at("name"),
                    c.str_at("sharding"),
                    knee,
                    bound,
                    lever,
                );
            }
        }
    }
    let _ = writeln!(md);

    for net in nets {
        let _ = writeln!(md, "## {}\n", net.str_at("name"));
        for p in net.arr_at("points") {
            let _ = writeln!(
                md,
                "### {} — {} (single-core frame: {} cycles)\n",
                p.str_at("name"),
                p.str_at("hw"),
                p.u64_at("single_core_cycles"),
            );
            for c in p.arr_at("curves") {
                let adv = c.get("advice").cloned().unwrap_or_else(Json::obj);
                let eff = adv.arr_at("efficiency");
                let _ = writeln!(md, "**{} sharding**\n", c.str_at("sharding"));
                let _ = writeln!(
                    md,
                    "| cores | frames | fr/kcycle | eff | cont % | ideal fr/kcycle | \
                     port util | Mattson err |"
                );
                let _ = writeln!(md, "|---:|---:|---:|---:|---:|---:|---:|---:|");
                for (i, cell) in c.arr_at("cells").iter().enumerate() {
                    let port = cell.get("port").cloned().unwrap_or_else(Json::obj);
                    let mat = cell.get("mattson").cloned().unwrap_or_else(Json::obj);
                    let util = if cell.u64_at("makespan") == 0 {
                        0.0
                    } else {
                        port.u64_at("service_cycles") as f64 / cell.u64_at("makespan") as f64
                    };
                    let _ = writeln!(
                        md,
                        "| {} | {} | {:.6} | {:.2} | {:.1} | {:.6} | {:.2} | {:.4} |",
                        cell.u64_at("cores"),
                        cell.u64_at("frames"),
                        cell.f64_at("throughput_fpkc"),
                        eff.get(i).and_then(Json::as_f64).unwrap_or(0.0),
                        100.0 * cell.f64_at("contention_share"),
                        cell.f64_at("ideal_throughput_fpkc"),
                        util,
                        mat.f64_at("abs_error"),
                    );
                }
                let _ = writeln!(md);
                let _ =
                    writeln!(md, "{}\n", adv.get("advice").and_then(Json::as_str).unwrap_or(""));
            }
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Json {
        // Reduced sweep: tiny scale, short prefixes — the unit-test
        // configuration (CI runs the committed default separately).
        scaling_grid_json(16, Some(4), 2)
    }

    fn cells_of<'a>(j: &'a Json, net: usize, point: usize, sharding: &str) -> &'a [Json] {
        j.get("networks")
            .and_then(Json::as_arr)
            .and_then(|n| n.get(net))
            .and_then(|n| n.get("points"))
            .and_then(Json::as_arr)
            .and_then(|p| p.get(point))
            .and_then(|p| p.get("curves"))
            .and_then(Json::as_arr)
            .map(|cs| {
                cs.iter()
                    .find(|c| c.get("sharding").and_then(Json::as_str) == Some(sharding))
                    .expect("curve present")
            })
            .and_then(|c| c.get("cells"))
            .and_then(Json::as_arr)
            .expect("cells")
    }

    #[test]
    fn scaling_grid_is_deterministic_across_jobs() {
        let a = tiny_grid();
        let b = scaling_grid_json(16, Some(4), 1);
        assert_eq!(
            a.to_string_pretty(),
            b.to_string_pretty(),
            "scaling record must not depend on --jobs"
        );
    }

    #[test]
    fn one_core_batch_row_is_the_single_core_headline_run() {
        let j = tiny_grid();
        for net in j.get("networks").and_then(Json::as_arr).expect("networks") {
            for p in net.get("points").and_then(Json::as_arr).expect("points") {
                let single = p.u64_at("single_core_cycles");
                let report = p.get("report").expect("embedded RunReport");
                let totals =
                    report.get("totals").and_then(|t| t.get("cycles")).and_then(Json::as_u64);
                assert_eq!(totals, Some(single), "the report is the single-core summary");
                let batch = p
                    .get("curves")
                    .and_then(Json::as_arr)
                    .and_then(|cs| {
                        cs.iter()
                            .find(|c| c.get("sharding").and_then(Json::as_str) == Some("batch"))
                    })
                    .and_then(|c| c.get("cells"))
                    .and_then(Json::as_arr)
                    .expect("batch curve");
                let one = &batch[0];
                assert_eq!(one.u64_at("cores"), 1);
                assert_eq!(one.u64_at("frames"), 1);
                assert_eq!(one.u64_at("makespan"), single, "N=1 is bit-identical");
                assert_eq!(one.f64_at("contention_share"), 0.0);
                assert_eq!(one.u64_at("contention_cycles"), 0);
                // The report also carries the scaling section.
                let sec = report.get("scaling").expect("scaling section attached");
                assert_eq!(sec.get("single_core_cycles").and_then(Json::as_u64), Some(single));
            }
        }
    }

    #[test]
    fn contention_share_grows_with_cores_and_mattson_holds_everywhere() {
        let j = tiny_grid();
        let n_nets = j.get("networks").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        assert_eq!(n_nets, 2, "two networks in the record");
        for net in 0..n_nets {
            for point in 0..2 {
                // Monotone contention on the batch curves (the headline
                // claim of SCALING.md).
                let cells = cells_of(&j, net, point, "batch");
                assert_eq!(cells.len(), SCALING_CORES.len());
                let shares: Vec<f64> = cells.iter().map(|c| c.f64_at("contention_share")).collect();
                for w in shares.windows(2) {
                    assert!(
                        w[1] >= w[0],
                        "batch contention share must grow with cores: {shares:?}"
                    );
                }
                assert_eq!(shares[0], 0.0, "one core never contends");
                assert!(*shares.last().expect("cells") > 0.0);
            }
        }
        // Mattson within 1% absolute in every cell of every curve.
        for net in j.get("networks").and_then(Json::as_arr).expect("networks") {
            for p in net.get("points").and_then(Json::as_arr).expect("points") {
                for c in p.get("curves").and_then(Json::as_arr).expect("curves") {
                    for cell in c.get("cells").and_then(Json::as_arr).expect("cells") {
                        let err = cell
                            .get("mattson")
                            .map(|m| m.f64_at("abs_error"))
                            .expect("mattson section");
                        assert!(err < 0.01, "Mattson error {err} >= 1% absolute");
                        // The counterfactual can only help.
                        assert!(
                            cell.f64_at("ideal_throughput_fpkc") + 1e-12
                                >= cell.f64_at("throughput_fpkc")
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scaling_markdown_is_pure_and_complete() {
        let j = tiny_grid();
        let md = scaling_markdown(&j);
        assert_eq!(md, scaling_markdown(&j), "renderer is pure");
        for needle in [
            "# Scale-out observatory",
            "## Scaling knees and recovery levers",
            "yolov3_tiny",
            "yolov3_20",
            "rvv2048x8/1MB",
            "rvv2048x8/4MB",
            "**batch sharding**",
            "**pipeline sharding**",
            "Mattson err",
        ] {
            assert!(md.contains(needle), "missing {needle}");
        }
        // Round-trips through serialization (the committed-artifact path).
        let reparsed = Json::parse(&j.to_string_pretty()).expect("parses");
        assert_eq!(scaling_markdown(&reparsed), md);
    }

    #[test]
    fn pipeline_curves_skip_core_counts_beyond_the_layer_count() {
        // The tiny grid caps every network at 4 layers, so the 8-core
        // pipeline cell must be absent while batch keeps the full ladder.
        let j = tiny_grid();
        let pipe = cells_of(&j, 0, 0, "pipeline");
        assert!(pipe.len() < SCALING_CORES.len());
        assert!(pipe.iter().all(|c| c.u64_at("cores") <= 4));
        let batch = cells_of(&j, 0, 0, "batch");
        assert_eq!(batch.len(), SCALING_CORES.len());
        // Stall shares sum to at most 1 and include the contention key.
        for c in batch {
            let shares = c.get("stall_shares").expect("stall shares");
            let total: f64 =
                lva_isa::StallCause::ALL.iter().map(|&x| shares.f64_at(x.name())).sum();
            assert!(total <= 1.0 + 1e-9, "stall shares exceed core cycles: {total}");
            assert!(shares.get("contention").is_some());
        }
    }

    #[test]
    fn scaling_chrome_trace_is_renderable() {
        let t = scaling_chrome_trace(16, Some(4));
        assert_eq!(t.validate(), Ok(()));
        assert!(!t.is_empty());
        let text = t.to_json().to_string_pretty();
        for needle in ["core0", "bandwidth utilization", "queue depth"] {
            assert!(text.contains(needle), "timeline missing {needle}");
        }
    }
}
