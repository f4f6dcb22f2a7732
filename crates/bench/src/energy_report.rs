//! The energy observatory: sweeps the VL × L2 co-design grid through the
//! `lva-energy` streaming probe and assembles `BENCH_energy.json` plus the
//! committed `results/PARETO.md`.
//!
//! The paper's performance story (Figs. 6/7) keeps (weakly) improving all
//! the way to the 256 MB L2; the energy view disagrees: larger arrays cost
//! more per access (sqrt scaling) and leak more per cycle, so the
//! EDP-optimal L2 is *finite*. The artifacts make both optima and the full
//! cycles-vs-energy Pareto frontier explicit per network.
//!
//! Same discipline as the whatif advisor: `energy_grid_json` produces a
//! deterministic machine-readable record (no timestamps, no host data —
//! identical across hosts and `--jobs` settings), and [`pareto_markdown`]
//! is a pure renderer over it, so CI can regenerate and byte-compare both.

use lva_core::experiment::fmt_bytes;
use lva_core::{parallel_map, EnergyModel};

use crate::{fmt_cycles, ConvPolicy, Experiment, GemmVariant, HwTarget, Json, ModelId, Workload};

/// The vector lengths of the energy grid (short / paper-sweet-spot / long;
/// the full six-point RVV sweep triples runtime for no extra insight on the
/// energy axes).
pub const ENERGY_VLENS: [usize; 3] = [512, 2048, 8192];

/// One design point's measurements, kept for frontier/optima math before
/// everything lands in JSON.
struct Point {
    name: String,
    l2_bytes: usize,
    cycles: u64,
    total_j: f64,
    edp_js: f64,
    json: Json,
}

/// Non-dominated points in (cycles, total_j): `i` is on the frontier iff no
/// other point is at least as good on both axes and strictly better on one.
fn pareto_flags(points: &[Point]) -> Vec<bool> {
    points
        .iter()
        .map(|p| {
            !points.iter().any(|q| {
                q.cycles <= p.cycles
                    && q.total_j <= p.total_j
                    && (q.cycles < p.cycles || q.total_j < p.total_j)
            })
        })
        .collect()
}

/// Index of the cycles-optimal point. Ties go to the *largest* L2 (the
/// performance-first designer buys all the cache that does not hurt), which
/// keeps the headline contrast honest: cycles-optimal L2 sits at the grid
/// maximum precisely because performance alone never punishes capacity.
fn cycles_optimal(points: &[Point]) -> usize {
    let mut best = 0;
    for (i, p) in points.iter().enumerate() {
        let b = &points[best];
        if p.cycles < b.cycles || (p.cycles == b.cycles && p.l2_bytes > b.l2_bytes) {
            best = i;
        }
    }
    best
}

/// Index of the EDP-optimal point. Ties go to the *smallest* L2 — when the
/// figure of merit is indifferent, spend less area.
fn edp_optimal(points: &[Point]) -> usize {
    let mut best = 0;
    for (i, p) in points.iter().enumerate() {
        let b = &points[best];
        if p.edp_js < b.edp_js || (p.edp_js == b.edp_js && p.l2_bytes < b.l2_bytes) {
            best = i;
        }
    }
    best
}

/// Sweep one network over the VL × L2 grid (fanned over `jobs` threads)
/// and return its record. Every point runs through the streaming probe and
/// is gated on the sum-to-total invariant before it enters the report.
fn network_json(key: &str, workload: Workload, jobs: usize) -> Json {
    let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
    let model = EnergyModel::default();
    let grid: Vec<(usize, usize)> = ENERGY_VLENS
        .into_iter()
        .flat_map(|v| crate::L2_SIZES.into_iter().map(move |l2| (v, l2)))
        .collect();
    let points: Vec<Point> = parallel_map(&grid, jobs, |_, &(vlen, l2)| {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: vlen, lanes: 8, l2_bytes: l2 },
            policy,
            workload,
        );
        eprintln!(".. energy {} | {}", e.hw.describe(), e.workload.describe());
        let (s, att) = e.run_energy(&model);
        let err = att.reconciliation_rel_err();
        assert!(
            err < 1e-6,
            "sum-to-total violated at vlen={vlen} l2={l2}: streamed {} J vs aggregate {} J",
            att.total.total_j(),
            att.report.total_j()
        );
        let name = format!("{vlen}b/{}", fmt_bytes(l2));
        let b = &att.total;
        let json = Json::obj()
            .field("name", name.as_str())
            .field("vlen_bits", vlen)
            .field("l2_bytes", l2)
            .field("l2", fmt_bytes(l2))
            .field("cycles", s.cycles)
            .field("seconds", att.seconds)
            .field("total_j", b.total_j())
            .field("compute_j", b.compute_j())
            .field("memory_j", b.memory_j())
            .field("static_j", b.static_j)
            .field("dram_j", b.dram_j)
            .field("edp_js", att.report.edp())
            .field("ed2p_js2", att.report.ed2p())
            .field("roofline_pct", att.roofline_pct())
            .field("reconciliation_rel_err", err);
        Point {
            name,
            l2_bytes: l2,
            cycles: s.cycles,
            total_j: b.total_j(),
            edp_js: att.report.edp(),
            json,
        }
    });
    let flags = pareto_flags(&points);
    let ci = cycles_optimal(&points);
    let ei = edp_optimal(&points);
    let arr: Vec<Json> =
        points.iter().zip(&flags).map(|(p, &on)| p.json.clone().field("pareto", on)).collect();
    Json::obj()
        .field("name", key)
        .field("network", workload.describe())
        .field("cycles_optimal", points[ci].name.as_str())
        .field("cycles_optimal_l2_bytes", points[ci].l2_bytes)
        .field("edp_optimal", points[ei].name.as_str())
        .field("edp_optimal_l2_bytes", points[ei].l2_bytes)
        .field("points", arr)
}

/// Assemble the full `BENCH_energy.json` value: the VL × L2 grid for each
/// headline network, per-point energy from the streaming probe, frontier
/// flags, and both optima. Deterministic for fixed `(div, layers)` —
/// independent of `jobs` and the host.
pub fn energy_grid_json(div: usize, layers: Option<usize>, jobs: usize) -> Json {
    let networks = [
        (
            "yolov3",
            Workload {
                model: ModelId::Yolov3,
                input_hw: crate::scaled_input(ModelId::Yolov3, div),
                layer_limit: Some(layers.unwrap_or(20)),
            },
        ),
        (
            "yolov3_tiny",
            Workload {
                model: ModelId::Yolov3Tiny,
                input_hw: crate::scaled_input(ModelId::Yolov3Tiny, div),
                layer_limit: layers,
            },
        ),
    ];
    let m = EnergyModel::default();
    let constants = Json::obj()
        .field("pj_per_vector_flop", m.pj_per_vector_flop)
        .field("pj_per_scalar_op", m.pj_per_scalar_op)
        .field("pj_per_vec_instr", m.pj_per_vec_instr)
        .field("pj_per_l1_access", m.pj_per_l1_access)
        .field("pj_per_l2_access_1mb", m.pj_per_l2_access_1mb)
        .field("pj_per_dram_access", m.pj_per_dram_access)
        .field("leakage_mw_per_mb_l2", m.leakage_mw_per_mb_l2)
        .field("core_static_mw", m.core_static_mw)
        .field("freq_ghz", m.freq_ghz);
    Json::obj().field("bench", "energy").field("div", div as u64).field("model", constants).field(
        "networks",
        Json::Arr(networks.into_iter().map(|(k, w)| network_json(k, w, jobs)).collect()),
    )
}

/// Render `results/PARETO.md` from a parsed `BENCH_energy.json`. Pure
/// function of its input: no timestamps, no host data — CI regenerates it
/// and byte-compares against the committed copy.
pub fn pareto_markdown(j: &Json) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let div = j.u64_at("div");
    let _ = writeln!(md, "# Cycles-vs-energy Pareto frontier\n");
    let _ = writeln!(
        md,
        "The RVV VL × L2 co-design grid under the `lva-energy` event-energy model \
         at `--div {div}` (DESIGN.md §14). `◆` marks the cycles-vs-energy Pareto \
         frontier: points no other design beats on both axes at once. Performance \
         alone keeps (weakly) improving with cache capacity, so the cycles-optimal \
         L2 sits at the grid maximum — but access energy scales with √capacity and \
         leakage with capacity, so the EDP-optimal L2 is finite. Regenerate with \
         `cargo run --release --bin exp-energy`.\n"
    );
    for net in j.arr_at("networks") {
        let _ = writeln!(md, "## {}\n", net.str_at("network"));
        let _ = writeln!(
            md,
            "Cycles-optimal: **{}** · EDP-optimal: **{}**\n",
            net.str_at("cycles_optimal"),
            net.str_at("edp_optimal")
        );
        let _ = writeln!(
            md,
            "| design point | cycles | energy (mJ) | compute | memory | static | EDP (µJ·s) | frontier |"
        );
        let _ = writeln!(md, "|---|---:|---:|---:|---:|---:|---:|:---:|");
        for p in net.arr_at("points") {
            let name = p.str_at("name");
            let frontier = matches!(p.get("pareto"), Some(Json::Bool(true)));
            let mut label = String::new();
            if name == net.str_at("cycles_optimal") {
                label.push_str(" ← cycles-opt");
            }
            if name == net.str_at("edp_optimal") {
                label.push_str(" ← EDP-opt");
            }
            let _ = writeln!(
                md,
                "| {name}{label} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.2} | {} |",
                fmt_cycles(p.u64_at("cycles")),
                1e3 * p.f64_at("total_j"),
                1e3 * p.f64_at("compute_j"),
                1e3 * p.f64_at("memory_j"),
                1e3 * p.f64_at("static_j"),
                1e6 * p.f64_at("edp_js"),
                if frontier { "◆" } else { "" }
            );
        }
        let _ = writeln!(md);
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Json {
        // Reduced sweep: tiny div, few layers — the CI configuration.
        energy_grid_json(8, Some(6), 2)
    }

    #[test]
    fn energy_grid_is_deterministic_across_jobs() {
        let a = tiny_grid();
        let b = energy_grid_json(8, Some(6), 1);
        assert_eq!(
            a.to_string_pretty(),
            b.to_string_pretty(),
            "grid record must not depend on --jobs"
        );
    }

    #[test]
    fn optima_contrast_holds_on_the_reduced_grid() {
        let j = tiny_grid();
        let max_l2 = *crate::L2_SIZES.last().unwrap() as u64;
        for net in j.get("networks").and_then(Json::as_arr).expect("networks") {
            let co = net.get("cycles_optimal_l2_bytes").and_then(Json::as_u64).expect("cycles l2");
            let eo = net.get("edp_optimal_l2_bytes").and_then(Json::as_u64).expect("edp l2");
            assert_eq!(co, max_l2, "{}: performance never punishes capacity", net.str_at("name"));
            assert!(eo < co, "{}: EDP-optimal L2 must be finite", net.str_at("name"));
            // Both optima sit on the frontier, and the frontier is sane.
            let points = net.get("points").and_then(Json::as_arr).expect("points");
            assert_eq!(points.len(), ENERGY_VLENS.len() * crate::L2_SIZES.len());
            let frontier: Vec<&Json> = points
                .iter()
                .filter(|p| matches!(p.get("pareto"), Some(Json::Bool(true))))
                .collect();
            assert!(!frontier.is_empty());
            // The EDP optimum is provably non-dominated (dominating a point
            // strictly lowers its EDP). The cycles optimum need not be: its
            // tie-break deliberately takes the largest L2 among cycle-equal
            // points, which a smaller cache can dominate on energy — so we
            // only require that it achieves the global cycle minimum.
            let edp_opt = net.str_at("edp_optimal");
            assert!(
                frontier.iter().any(|p| p.str_at("name") == edp_opt),
                "EDP optimum {edp_opt} must be non-dominated"
            );
            let min_cycles =
                points.iter().filter_map(|p| p.get("cycles").and_then(Json::as_u64)).min();
            let cyc_opt = points
                .iter()
                .find(|p| p.str_at("name") == net.str_at("cycles_optimal"))
                .expect("cycles optimum is a grid point");
            assert_eq!(cyc_opt.get("cycles").and_then(Json::as_u64), min_cycles);
            for p in points {
                let err = p.f64_at("reconciliation_rel_err");
                assert!(err < 1e-6, "sum-to-total on every published point, got {err}");
            }
        }
    }

    #[test]
    fn pareto_markdown_is_pure_and_complete() {
        let j = tiny_grid();
        let md = pareto_markdown(&j);
        assert_eq!(md, pareto_markdown(&j), "renderer is pure");
        for needle in ["# Cycles-vs-energy Pareto frontier", "EDP-opt", "cycles-opt", "◆"] {
            assert!(md.contains(needle), "missing {needle}");
        }
        // Round-trips through serialization (the committed-artifact path).
        let reparsed = Json::parse(&j.to_string_pretty()).expect("parses");
        assert_eq!(pareto_markdown(&reparsed), md);
    }

    #[test]
    fn pareto_flags_mark_exactly_the_non_dominated() {
        let mk = |cycles: u64, j: f64| Point {
            name: String::new(),
            l2_bytes: 0,
            cycles,
            total_j: j,
            edp_js: 0.0,
            json: Json::obj(),
        };
        // (100, 1.0) and (50, 2.0) trade off; (120, 3.0) is dominated by both.
        let pts = vec![mk(100, 1.0), mk(50, 2.0), mk(120, 3.0)];
        assert_eq!(pareto_flags(&pts), vec![true, true, false]);
        // A duplicate of a frontier point stays on the frontier (not
        // strictly beaten), matching the weak-dominance definition.
        let pts = vec![mk(100, 1.0), mk(100, 1.0)];
        assert_eq!(pareto_flags(&pts), vec![true, true]);
    }
}
