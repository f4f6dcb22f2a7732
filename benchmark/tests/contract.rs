//! `BENCHMARK.json` agrees with the code, and a run reports every metric
//! it declares.

use lva_benchmark::compare::load_rules;
use lva_benchmark::report::{END_TO_END, PER_LAYER};
use lva_benchmark::workloads::{run_named, NAMES};
use lva_trace::Json;
use std::path::Path;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_of_the_code() {
    let j = benchmark_json();
    let workloads: Vec<&str> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, NAMES);
    for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let listed = j.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (m, d) in listed.iter().zip(defs) {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default();
            assert_eq!((field("name"), field("unit"), field("better")), (d.name, d.unit, d.better));
            assert_eq!(m.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
        }
    }
    let rules = load_rules(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("rules load");
    let setup = rules["setup_s"].bound.expect("setup_s is bounded");
    assert!(END_TO_END.iter().all(|d| d.bound.expect("bounded") <= setup));
}

/// One untraced and one traced run of the cheapest workload: every
/// declared metric is present, the checks pass, and the spans nest.
#[test]
fn runs_report_every_declared_metric() {
    let plain = run_named("soc_contention", 7, 1, false).expect("known workload");
    assert!(plain.correct(), "{plain:?}");
    for d in &END_TO_END {
        let v = plain.metrics.get(d.name).unwrap_or_else(|| panic!("{} missing", d.name));
        assert!(v > 0.0, "{} is {v}", d.name);
    }
    let line = Json::parse(&plain.result_line()).expect("result line is JSON");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));

    let traced = run_named("soc_contention", 7, 1, true).expect("known workload");
    assert!(traced.correct(), "{traced:?}");
    for d in &PER_LAYER {
        assert!(traced.metrics.get(d.name).is_some(), "{} missing", d.name);
    }
    let spans_path = lva_benchmark::report::out_dir().join("soc_contention.spans.jsonl");
    let text = std::fs::read_to_string(spans_path).expect("spans written");
    let spans: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("span line")).collect();
    let get = |s: &Json, k: &str| s.get(k).and_then(Json::as_u64);
    for s in &spans {
        if let Some(p) = get(s, "parent") {
            let p = &spans[usize::try_from(p).expect("index")];
            assert!(
                get(s, "start_ns") >= get(p, "start_ns") && get(s, "end_ns") <= get(p, "end_ns")
            );
        }
    }
    let cells = spans.iter().filter(|s| {
        s.get("name").and_then(Json::as_str).is_some_and(|n| n.starts_with("scale.cell.n"))
    });
    assert!(cells.clone().count() >= 4);
    assert!(cells.into_iter().all(|s| s.get("request").and_then(Json::as_u64).is_some()));
}
