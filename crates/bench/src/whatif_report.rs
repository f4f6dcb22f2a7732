//! The co-design advisor: merges factual headline runs, `lva-whatif`
//! counterfactual analyses, and `lva_whatif::roofline` ceilings into one
//! machine-readable record (`BENCH_whatif.json`) and renders the
//! human-readable `results/CODESIGN_REPORT.md` from it.
//!
//! Both the `exp-whatif` and `report` binaries go through these two
//! functions, so every consumer produces byte-identical output for the
//! same inputs (CI gates on exactly that).

use crate::{Experiment, Json, RunReport};
use lva_core::parallel_map;
use lva_isa::IdealKnob;
use lva_whatif::{analyze_experiment, AGREEMENT_TOLERANCE, COMPUTE_BOUND_THRESHOLD};

/// Per-run roofline position: the machine ceiling and, for every
/// GEMM-shaped layer, arithmetic intensity plus sustained %-of-peak.
fn roofline_json(e: &Experiment, s: &lva_core::RunSummary) -> Json {
    let cfg = e.hw.machine_config();
    let layers = Json::Arr(
        s.report
            .layers
            .iter()
            .filter_map(|l| {
                l.mnk.map(|(m, n, k)| {
                    Json::obj()
                        .field("index", l.index as u64)
                        .field("ai", lva_whatif::roofline::arithmetic_intensity(m, n, k))
                        .field(
                            "pct_peak",
                            100.0 * lva_whatif::roofline::fraction_of_peak(&cfg, l.flops, l.cycles),
                        )
                })
            })
            .collect(),
    );
    Json::obj()
        .field("peak_flops_per_cycle", cfg.peak_flops_per_cycle())
        .field("pct_peak", 100.0 * lva_whatif::roofline::fraction_of_peak(&cfg, s.flops, s.cycles))
        .field("layers", layers)
}

/// Cross-check freshly measured factual cycles against an existing
/// `BENCH_headline.json` (same name, hw and workload ⇒ same cycles: the
/// simulator is deterministic). Returns `None` when nothing is comparable.
fn headline_check(specs: &[(String, Experiment)], cycles: &[u64], headline: &Json) -> Option<Json> {
    let published = headline.get("runs")?.as_arr()?;
    let mut matched = 0u64;
    let mut consistent = true;
    for ((name, e), cycles) in specs.iter().zip(cycles) {
        for p in published {
            if p.get("name").and_then(Json::as_str) == Some(name)
                && p.get("hw").and_then(Json::as_str) == Some(e.hw.describe().as_str())
                && p.get("workload").and_then(Json::as_str) == Some(e.workload.describe().as_str())
            {
                matched += 1;
                let published_cycles =
                    p.get("totals").and_then(|t| t.get("cycles")).and_then(Json::as_u64);
                if published_cycles != Some(*cycles) {
                    consistent = false;
                }
            }
        }
    }
    Some(Json::obj().field("runs_matched", matched).field("consistent", consistent))
}

/// Analyze every spec (one capture and five tape refits each, design
/// points spread over `jobs` threads) and assemble the merged
/// `BENCH_whatif.json` value. `headline` is an already-written
/// `BENCH_headline.json` to cross-check against, if one exists.
pub fn whatif_json(
    specs: &[(String, Experiment)],
    div: usize,
    jobs: usize,
    headline: Option<&Json>,
) -> Json {
    let (reports, cycles): (Vec<Json>, Vec<u64>) = parallel_map(specs, jobs, |_, (name, e)| {
        let (factual, analysis) = analyze_experiment(e);
        // One call, so a point's two lines stay together under --jobs.
        eprintln!(
            ".. whatif {} | {} | {}\n   {} bound; top: {}",
            name,
            e.hw.describe(),
            e.workload.describe(),
            analysis.bound.name(),
            analysis.recommendation()
        );
        let report = RunReport::new(name.clone(), e, &factual)
            .with_whatif(analysis.to_json())
            .to_json()
            .field("roofline", roofline_json(e, &factual));
        (report, factual.cycles)
    })
    .into_iter()
    .unzip();
    let mut j = Json::obj()
        .field("bench", "whatif")
        .field("div", div as u64)
        .field("compute_bound_threshold", COMPUTE_BOUND_THRESHOLD)
        .field("agreement_tolerance", AGREEMENT_TOLERANCE);
    if let Some(check) = headline.and_then(|h| headline_check(specs, &cycles, h)) {
        j = j.field("headline_check", check);
    }
    j.field("runs", Json::Arr(reports))
}

fn fmt_u64(v: Option<&Json>) -> String {
    v.and_then(Json::as_u64).map_or_else(|| "?".into(), |n| n.to_string())
}

fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", 100.0 * frac)
}

/// Knob outcomes of one run's `whatif.knobs` object, ranked by cycles saved
/// (descending; ties keep [`IdealKnob::ALL`] order, matching the engine).
fn ranked_knobs(whatif: &Json) -> Vec<(String, u64, f64)> {
    let mut out = Vec::new();
    if let Some(Json::Obj(pairs)) = whatif.get("knobs") {
        for (knob, v) in pairs {
            let saved = v.u64_at("saved");
            let frac = v.f64_at("saved_frac");
            out.push((knob.clone(), saved, frac));
        }
    }
    out.sort_by_key(|o| std::cmp::Reverse(o.1));
    out
}

/// A knob's advisor phrasing, recovered from its serialized name (the
/// markdown renderer only sees JSON).
fn knob_recommendation(name: &str) -> &'static str {
    for knob in IdealKnob::ALL {
        if knob.name() == name {
            let bound = lva_whatif::Bound::of_knob(knob);
            return lva_whatif::recommendation(bound, Some(knob));
        }
    }
    "unknown knob"
}

/// Render `results/CODESIGN_REPORT.md` from a parsed `BENCH_whatif.json`.
/// Pure function of its input: no timestamps, no host data — CI regenerates
/// it twice and byte-compares.
pub fn codesign_markdown(j: &Json) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let div = j.u64_at("div");
    let _ = writeln!(md, "# Co-design advisor report\n");
    let _ = writeln!(
        md,
        "Counterfactual profiling (`lva-whatif`) of the §VI headline networks at \
         `--div {div}`: each design point is re-simulated under five opt-in \
         idealizations (perfect L1/vcache, free DRAM, zero vector startup, infinite \
         lanes, infinite issue) and the cycles each one recovers — the *causal* cost \
         of that bottleneck — drive the bound classification and the recommendations \
         below. Regenerate with `cargo run --release --bin exp-whatif` or re-render \
         from `BENCH_whatif.json` with `cargo run --release --bin report`.\n"
    );
    let threshold = j.f64_at("compute_bound_threshold");
    let _ = writeln!(
        md,
        "A region is *compute-bound* when no idealization recovers at least \
         {} of its cycles; otherwise the biggest saver names the bound \
         (DESIGN.md §13).\n",
        fmt_pct(threshold)
    );
    if let Some(check) = j.get("headline_check") {
        let ok = matches!(check.get("consistent"), Some(Json::Bool(true)));
        let n = fmt_u64(check.get("runs_matched"));
        let _ = writeln!(
            md,
            "Cross-check against `BENCH_headline.json`: {n} runs matched, factual \
             cycles {}.\n",
            if ok { "identical" } else { "**DIVERGED** (stale headline file?)" }
        );
    }

    let runs = j.arr_at("runs");
    let _ = writeln!(md, "## Summary\n");
    let _ = writeln!(md, "| run | hw | workload | cycles | bound | top recommendation |");
    let _ = writeln!(md, "|---|---|---|---:|---|---|");
    for r in runs {
        let whatif = r.get("whatif");
        let bound = whatif.and_then(|w| w.get("bound")).and_then(Json::as_str).unwrap_or("?");
        let rec =
            whatif.and_then(|w| w.get("recommendation")).and_then(Json::as_str).unwrap_or("?");
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} |",
            r.str_at("name"),
            r.str_at("hw"),
            r.str_at("workload"),
            fmt_u64(r.get("totals").and_then(|t| t.get("cycles"))),
            bound,
            rec
        );
    }
    let _ = writeln!(md);

    for r in runs {
        let name = r.str_at("name");
        let hw = r.str_at("hw");
        let _ = writeln!(md, "## {name} — {hw}\n");
        let Some(whatif) = r.get("whatif") else {
            let _ = writeln!(md, "(no whatif section)\n");
            continue;
        };
        if let Some(roof) = r.get("roofline") {
            let _ = writeln!(
                md,
                "Roofline: {:.1}% of the {:.0}-flops/cycle ceiling.\n",
                roof.f64_at("pct_peak"),
                roof.f64_at("peak_flops_per_cycle")
            );
        }
        let _ = writeln!(md, "### Top co-design levers\n");
        let _ = writeln!(md, "| # | idealization | cycles saved | of run | recommendation |");
        let _ = writeln!(md, "|---:|---|---:|---:|---|");
        for (i, (knob, saved, frac)) in ranked_knobs(whatif).iter().take(3).enumerate() {
            let _ = writeln!(
                md,
                "| {} | {knob} | {saved} | {} | {} |",
                i + 1,
                fmt_pct(*frac),
                knob_recommendation(knob)
            );
        }
        let _ = writeln!(md);
        let _ = writeln!(md, "### Per-layer bounds\n");
        let _ = writeln!(md, "| layer | kernel | cycles | bound | dominant knob | saved |");
        let _ = writeln!(md, "|---:|---|---:|---|---|---:|");
        let layers = whatif.arr_at("layers");
        for l in layers {
            let dominant = l.get("dominant_knob").and_then(Json::as_str).unwrap_or("—");
            let saved = l
                .get("saved")
                .and_then(|s| l.get("dominant_knob").and_then(Json::as_str).and_then(|k| s.get(k)))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {dominant} | {saved} |",
                fmt_u64(l.get("index")),
                l.str_at("desc"),
                fmt_u64(l.get("cycles")),
                l.str_at("bound")
            );
        }
        let _ = writeln!(md);
        let _ = writeln!(md, "### Causal vs attributed stalls\n");
        let _ =
            writeln!(md, "| idealization | stall cause | causal saved | attributed | gap/run |");
        let _ = writeln!(md, "|---|---|---:|---:|---:|");
        for a in whatif.arr_at("agreement") {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} |",
                a.str_at("knob"),
                a.str_at("cause"),
                fmt_u64(a.get("causal_saved")),
                fmt_u64(a.get("attributed")),
                fmt_pct(a.f64_at("norm_gap"))
            );
        }
        let _ = writeln!(md);
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headline_specs;

    fn tiny_whatif_json(jobs: usize) -> Json {
        // Two cheap specs: the tiny network, 2 layers, small input.
        let mut specs = headline_specs(8, Some(2));
        specs.truncate(2);
        whatif_json(&specs, 8, jobs, None)
    }

    #[test]
    fn whatif_json_and_markdown_are_deterministic_and_complete() {
        let a = tiny_whatif_json(1);
        let b = tiny_whatif_json(2);
        assert_eq!(
            a.to_string_pretty(),
            b.to_string_pretty(),
            "whatif record must not depend on --jobs"
        );
        let runs = a.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs.len(), 2);
        for r in runs {
            let wf = r.get("whatif").expect("whatif section");
            assert!(wf.get("bound").and_then(Json::as_str).is_some());
            let layers = wf.get("layers").and_then(Json::as_arr).expect("layers");
            assert_eq!(layers.len(), 2);
            for l in layers {
                assert!(
                    l.get("bound").and_then(Json::as_str).is_some(),
                    "every layer gets a bound"
                );
            }
            assert!(r.get("roofline").is_some());
        }
        let md = codesign_markdown(&a);
        assert_eq!(md, codesign_markdown(&a), "renderer is pure");
        for needle in
            ["# Co-design advisor report", "### Per-layer bounds", "### Top co-design levers"]
        {
            assert!(md.contains(needle), "missing {needle}");
        }
        // Round-trips through serialization (the report bin's path).
        let reparsed = Json::parse(&a.to_string_pretty()).expect("parses");
        assert_eq!(codesign_markdown(&reparsed), md);
    }
}
