//! Benchmark regression diffing: walk two records of one report kind under
//! that kind's drift rules (the rule tables live in [`crate::observatory`]).
//!
//! The simulator is deterministic, so at a pinned configuration a committed
//! baseline compares *exactly* — the tolerances exist to separate "this
//! change made layer 7 five percent slower" (a gated regression) from noise
//! introduced by intentional re-baselining at slightly different scales.
//!
//! A [`Rule`] names a metric by a dotted path. Each segment is one of:
//! * `key` — an object field;
//! * `key[field]` — the array under `key`, elements paired by `field`;
//! * `key[#]` — elements paired by position;
//! * `key[#field]` — paired by position, and `field` must be equal;
//! * `*` — every key of the object.
//!
//! A move beyond tolerance in the worse direction is a **regression**
//! (fatal), in the better direction an **improvement** (informational — a
//! nudge to re-baseline). An element or key missing from either side, an
//! empty top-level array in the baseline, and any change to a `fixed`
//! value are **structural** findings (fatal: a silently shrunken benchmark
//! or a moved headline claim must not pass the gate).

use lva_trace::Json;

/// How a rule judges the drift of its metric.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// A move of more than this many percent is a finding.
    Rel(f64),
    /// A move of more than this absolute amount is a finding.
    Abs(f64),
    /// Any change is a regression (deterministic counts).
    Exact,
    /// Any change is structural: the value is a headline claim the
    /// committed baseline pins, so it is re-baselined deliberately or not
    /// at all. An absent value compares as `null`.
    Fixed,
}

/// One drift rule: a metric path and how it may drift.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    path: &'static str,
    check: Check,
    /// A drop, not a rise, is the worse direction (throughput, hit rate).
    lower_is_worse: bool,
    /// Drift is not judged while both sides stay below this, so a share
    /// that is exactly zero in the baseline does not turn numeric dust
    /// into an infinite relative delta.
    floor: f64,
}

impl Rule {
    const fn new(path: &'static str, check: Check) -> Rule {
        Rule { path, check, lower_is_worse: false, floor: f64::NEG_INFINITY }
    }

    /// The metric may move ±`pct` percent.
    pub const fn rel(path: &'static str, pct: f64) -> Rule {
        Rule::new(path, Check::Rel(pct))
    }

    /// The metric may move ±`tol` in absolute terms.
    pub const fn abs(path: &'static str, tol: f64) -> Rule {
        Rule::new(path, Check::Abs(tol))
    }

    /// Any change to the metric is a regression.
    pub const fn exact(path: &'static str) -> Rule {
        Rule::new(path, Check::Exact)
    }

    /// Any change to the value is structural.
    pub const fn fixed(path: &'static str) -> Rule {
        Rule::new(path, Check::Fixed)
    }

    /// A drop, not a rise, is the worse direction.
    pub const fn lower_is_worse(self) -> Rule {
        Rule { lower_is_worse: true, ..self }
    }

    /// Judge drift only once either side reaches `floor`.
    pub const fn above(self, floor: f64) -> Rule {
        Rule { floor, ..self }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Beyond tolerance in the bad direction — fails the gate.
    Regression,
    /// Beyond tolerance in the good direction — informational.
    Improvement,
    /// The two reports do not have the same shape — fails the gate.
    Structural,
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub severity: Severity,
    pub message: String,
}

/// Outcome of a comparison; `is_pass` gates CI.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub findings: Vec<Finding>,
    /// Number of rule evaluations performed (a sanity floor: comparing
    /// two empty files passes every tolerance while checking nothing).
    pub compared: usize,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.count(Severity::Regression)
    }

    pub fn structural(&self) -> usize {
        self.count(Severity::Structural)
    }

    pub fn is_pass(&self) -> bool {
        self.regressions() == 0 && self.structural() == 0 && self.compared > 0
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    fn push(&mut self, severity: Severity, message: String) {
        self.findings.push(Finding { severity, message });
    }

    /// A structural finding for a value absent (or mistyped) on one side.
    fn missing(&mut self, label: &str, in_base: bool) {
        let side = if in_base { "current" } else { "baseline" };
        self.push(Severity::Structural, format!("{label}: missing from {side}"));
    }
}

/// Compare `cur` against `base` under `rules`.
pub fn walk(rules: &[Rule], base: &Json, cur: &Json) -> DiffReport {
    let mut out = DiffReport::default();
    let cursors: Vec<(&Rule, &str)> = rules.iter().map(|r| (r, r.path)).collect();
    node(&mut out, &cursors, "", Some(base), Some(cur), true);
    out
}

/// Judge the rules whose path ends at this node, then descend. Rules that
/// share a next segment descend together, so each element is matched —
/// and reported missing — once, and findings read element by element.
fn node(
    out: &mut DiffReport,
    cursors: &[(&Rule, &str)],
    label: &str,
    base: Option<&Json>,
    cur: Option<&Json>,
    top: bool,
) {
    let mut heads: Vec<&str> = Vec::new();
    for &(rule, rest) in cursors {
        match rest.split_once('.').map_or(rest, |(h, _)| h) {
            "" => judge(out, rule, label, base, cur),
            h if !heads.contains(&h) => heads.push(h),
            _ => {}
        }
    }
    for head in heads {
        let sub: Vec<(&Rule, &str)> = cursors
            .iter()
            .filter_map(|&(r, rest)| match rest.split_once('.') {
                Some((h, tail)) if h == head => Some((r, tail)),
                None if rest == head => Some((r, "")),
                _ => None,
            })
            .collect();
        step(out, head, &sub, label, base, cur, top);
    }
}

/// Descend one path segment on both sides.
fn step<'j>(
    out: &mut DiffReport,
    seg: &str,
    sub: &[(&Rule, &str)],
    label: &str,
    base: Option<&'j Json>,
    cur: Option<&'j Json>,
    top: bool,
) {
    let join = |k: &str| if label.is_empty() { k.to_string() } else { format!("{label}.{k}") };
    if seg == "*" {
        let (Some(Json::Obj(bo)), Some(Json::Obj(co))) = (base, cur) else {
            return out.missing(label, matches!(base, Some(Json::Obj(_))));
        };
        for (k, bv) in bo {
            match co.iter().find(|(ck, _)| ck == k) {
                Some((_, cv)) => node(out, sub, &join(k), Some(bv), Some(cv), top),
                None => out.missing(&join(k), true),
            }
        }
        for (k, _) in co.iter().filter(|(k, _)| !bo.iter().any(|(bk, _)| bk == k)) {
            out.missing(&join(k), false);
        }
        return;
    }
    let Some((key, pairing)) = seg.strip_suffix(']').and_then(|s| s.split_once('[')) else {
        let field = |j: Option<&'j Json>| j.and_then(|j| j.get(seg));
        return node(out, sub, &join(seg), field(base), field(cur), top);
    };
    let label = join(key);
    let arr = |j: Option<&'j Json>| j.and_then(|j| j.get(key)).and_then(Json::as_arr);
    let (Some(ba), Some(ca)) = (arr(base), arr(cur)) else {
        return out.missing(&label, arr(base).is_some());
    };
    if top && ba.is_empty() {
        return out.push(Severity::Structural, format!("{label}: empty in baseline"));
    }
    match pairing.strip_prefix('#') {
        None => {
            let name = |e: &Json| show(e.get(pairing));
            for b in ba {
                let at = format!("{label}[{}]", name(b));
                match ca.iter().find(|c| name(c) == name(b)) {
                    Some(c) => node(out, sub, &at, Some(b), Some(c), false),
                    None => out.missing(&at, true),
                }
            }
            for c in ca.iter().filter(|c| !ba.iter().any(|b| name(b) == name(c))) {
                out.missing(&format!("{label}[{}]", name(c)), false);
            }
        }
        Some(field) => {
            for i in 0..ba.len().max(ca.len()) {
                let at = format!("{label}[{i}]");
                let (Some(b), Some(c)) = (ba.get(i), ca.get(i)) else {
                    out.missing(&at, i < ba.len());
                    continue;
                };
                if field.is_empty() {
                    node(out, sub, &at, Some(b), Some(c), false);
                } else if b.get(field) == c.get(field) {
                    let at = format!("{label}[{field}={}]", show(b.get(field)));
                    node(out, sub, &at, Some(b), Some(c), false);
                } else {
                    let (bf, cf) = (show(b.get(field)), show(c.get(field)));
                    out.push(Severity::Structural, format!("{at}: {field} moved {bf} -> {cf}"));
                }
            }
        }
    }
}

/// Evaluate one rule on the value pair its path resolved to.
fn judge(out: &mut DiffReport, rule: &Rule, label: &str, base: Option<&Json>, cur: Option<&Json>) {
    if let Check::Fixed = rule.check {
        out.compared += 1;
        if base != cur {
            let msg = format!("{label} moved {} -> {}", show(base), show(cur));
            out.push(Severity::Structural, msg);
        }
        return;
    }
    let (Some(b), Some(c)) = (base.and_then(Json::as_f64), cur.and_then(Json::as_f64)) else {
        return out.missing(label, base.and_then(Json::as_f64).is_some());
    };
    out.compared += 1;
    if b.max(c) < rule.floor {
        return;
    }
    let (delta, within, tol) = match rule.check {
        Check::Rel(pct) => {
            let d = rel_delta_pct(b, c);
            (d, d.abs() <= pct, format!("{d:+.1}%, tol ±{pct}%"))
        }
        Check::Abs(tol) => (c - b, (c - b).abs() <= tol, format!("{:+.4}, tol ±{tol}", c - b)),
        Check::Exact | Check::Fixed => (c - b, b == c, "exact".to_string()),
    };
    if within {
        return;
    }
    let worse = matches!(rule.check, Check::Exact) || (delta < 0.0) == rule.lower_is_worse;
    let sev = if worse { Severity::Regression } else { Severity::Improvement };
    out.push(sev, format!("{label}: {} -> {} ({tol})", fmt_metric(b), fmt_metric(c)));
}

fn rel_delta_pct(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (cur - base) / base
    }
}

/// Render a metric value readably whether it is a cycle count or a
/// sub-unit float (joules, joule-seconds, shares).
fn fmt_metric(v: f64) -> String {
    if v.abs() >= 1000.0 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// An element key or a fixed value as it appears in a finding.
fn show(v: Option<&Json>) -> String {
    match v {
        Some(Json::Str(s)) => s.clone(),
        Some(j) => j.to_string_compact(),
        None => "null".to_string(),
    }
}

/// Move every relative metric of `report` `pct`% in its worse direction.
/// Used by `bench-diff --inject` so CI can prove each gate actually trips
/// on a synthetic regression.
pub fn inject(rules: &[Rule], report: &mut Json, pct: f64) {
    for rule in rules.iter().filter(|r| matches!(r.check, Check::Rel(_))) {
        let factor = if rule.lower_is_worse { 1.0 - pct / 100.0 } else { 1.0 + pct / 100.0 };
        scale(report, rule.path, factor);
    }
}

/// Multiply every value `path` reaches (all elements, all keys) by `factor`.
fn scale(j: &mut Json, path: &str, factor: f64) {
    if path.is_empty() {
        if let Some(v) = j.as_f64() {
            *j = Json::Num(v * factor);
        }
        return;
    }
    let (seg, rest) = path.split_once('.').unwrap_or((path, ""));
    let key = seg.split_once('[').map_or(seg, |(k, _)| k);
    let Json::Obj(pairs) = j else { return };
    for (_, v) in pairs.iter_mut().filter(|(k, _)| seg == "*" || k == key) {
        match v {
            Json::Arr(items) if seg.ends_with(']') => {
                items.iter_mut().for_each(|e| scale(e, rest, factor));
            }
            v if !seg.ends_with(']') => scale(v, rest, factor),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observatory::kind_of;

    /// Compare two records under the registered rules of the baseline's kind.
    fn gate(base: &Json, cur: &Json) -> DiffReport {
        walk(kind_of(base).expect("registered kind").rules, base, cur)
    }

    fn run(name: &str, total: u64, layers: &[u64], hit: f64) -> Json {
        let layer = |(i, &cycles): (usize, &u64)| {
            let desc = if i == 0 { "conv" } else { "pool" };
            Json::obj().field("index", i).field("desc", desc).field("cycles", cycles)
        };
        Json::obj()
            .field("name", name)
            .field("totals", Json::obj().field("cycles", total))
            .field("stalls", Json::obj().field("total", 100u64).field("attributed", 100u64))
            .field("caches", Json::obj().field("l2", Json::obj().field("hit_rate", hit)))
            .field("layers", Json::Arr(layers.iter().enumerate().map(layer).collect()))
    }

    fn report(total: u64, layer0: u64, layer1: u64, hit: f64) -> Json {
        let runs = vec![run("rvv_tiny_opt3", total, &[layer0, layer1], hit)];
        Json::obj().field("bench", "headline").field("runs", Json::Arr(runs))
    }

    #[test]
    fn identical_reports_pass() {
        let b = report(1000, 600, 400, 0.95);
        let d = gate(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.compared >= 4);
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let b = report(1000, 600, 400, 0.95);
        let c = report(1010, 610, 395, 0.945); // 1%, 1.7%, -1.3%, -0.005
        let d = gate(&b, &c);
        assert!(d.is_pass(), "{:?}", d.findings);
    }

    #[test]
    fn layer_cycle_regression_fails() {
        let b = report(1000, 600, 400, 0.95);
        let c = report(1000, 660, 400, 0.95); // layer 0 +10% > 5%
        let d = gate(&b, &c);
        assert!(!d.is_pass());
        assert_eq!(d.regressions(), 1);
        assert!(d.findings[0].message.contains("layers[0]"));
    }

    #[test]
    fn hit_rate_drop_fails_and_rise_is_improvement() {
        let b = report(1000, 600, 400, 0.95);
        let drop = report(1000, 600, 400, 0.90);
        assert_eq!(gate(&b, &drop).regressions(), 1);
        let rise = report(1000, 600, 400, 0.99);
        let d = gate(&b, &rise);
        assert!(d.is_pass(), "improvements are not fatal: {:?}", d.findings);
        assert_eq!(d.count(Severity::Improvement), 1);
    }

    #[test]
    fn missing_run_or_layer_is_structural() {
        let b = report(1000, 600, 400, 0.95);
        let empty = Json::obj().field("runs", Json::Arr(vec![]));
        let d = gate(&b, &empty);
        assert!(!d.is_pass());
        assert_eq!(d.structural(), 1);
        // Comparing nothing at all must not pass either.
        let d = gate(&empty, &empty);
        assert!(!d.is_pass());
    }

    #[test]
    fn element_only_in_current_is_structural() {
        let b = report(1000, 600, 400, 0.95);
        // A third layer in the run and a second run: both exist only in the
        // current record, and each is one structural finding.
        let runs = vec![
            run("rvv_tiny_opt3", 1000, &[600, 400, 400], 0.95),
            run("rvv_tiny_naive", 1000, &[600, 400], 0.95),
        ];
        let grown = Json::obj().field("bench", "headline").field("runs", Json::Arr(runs));
        let d = gate(&b, &grown);
        assert!(!d.is_pass());
        let msgs: Vec<&str> = d.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(
            msgs,
            [
                "runs[rvv_tiny_opt3].layers[2]: missing from baseline",
                "runs[rvv_tiny_naive]: missing from baseline"
            ]
        );
        assert_eq!(d.structural(), 2);
    }

    fn energy_report(cycles: u64, total_j: f64, edp_js: f64, edp_opt: &str) -> Json {
        let point = |name: &str, c: u64, j: f64, e: f64| {
            Json::obj()
                .field("name", name)
                .field("cycles", c)
                .field("total_j", j)
                .field("edp_js", e)
        };
        Json::obj().field("bench", "energy").field(
            "networks",
            Json::Arr(vec![Json::obj()
                .field("name", "yolov3")
                .field("cycles_optimal", "8192b/256MB")
                .field("edp_optimal", edp_opt)
                .field(
                    "points",
                    Json::Arr(vec![
                        point("2048b/4MB", cycles, total_j, edp_js),
                        point("8192b/256MB", cycles / 2, total_j * 2.0, edp_js),
                    ]),
                )]),
        )
    }

    #[test]
    fn report_kind_detects_energy_and_defaults_to_headline() {
        let tag = |j: &Json| kind_of(j).expect("registered kind").tag;
        assert_eq!(tag(&energy_report(1000, 0.01, 0.005, "2048b/4MB")), "energy");
        assert_eq!(tag(&report(1000, 600, 400, 0.95)), "headline");
        assert_eq!(tag(&Json::obj()), "headline");
    }

    #[test]
    fn identical_energy_reports_pass_and_drift_gates() {
        let b = energy_report(1000, 0.010, 0.005, "2048b/4MB");
        let d = gate(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.compared >= 8);
        // +1% energy passes the 2% gate; +5% fails it (and drags EDP along
        // past its 4% gate).
        let ok = energy_report(1000, 0.0101, 0.00505, "2048b/4MB");
        assert!(gate(&b, &ok).is_pass());
        let bad = energy_report(1000, 0.0105, 0.00525, "2048b/4MB");
        let d = gate(&b, &bad);
        assert!(!d.is_pass());
        assert!(d.regressions() >= 2, "{:?}", d.findings);
        // Energy *down* is an improvement, not a failure.
        let better = energy_report(1000, 0.009, 0.0045, "2048b/4MB");
        let d = gate(&b, &better);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.count(Severity::Improvement) >= 2);
    }

    #[test]
    fn moved_optimum_or_missing_point_is_structural() {
        let b = energy_report(1000, 0.010, 0.005, "2048b/4MB");
        let moved = energy_report(1000, 0.010, 0.005, "8192b/256MB");
        let d = gate(&b, &moved);
        assert!(!d.is_pass());
        assert_eq!(d.structural(), 1);
        assert!(d.findings[0].message.contains("edp_optimal moved"));
        let empty = Json::obj().field("bench", "energy").field("networks", Json::Arr(vec![]));
        assert!(!gate(&b, &empty).is_pass());
        assert!(!gate(&empty, &empty).is_pass());
    }

    fn serving_report_fixture(p99: f64, misses: u64, recommended: &str) -> Json {
        let cell = |rho: f64, p50: f64, p99: f64, misses: u64| {
            Json::obj().field("intensity", rho).field(
                "overall",
                Json::obj()
                    .field("p50_ms", p50)
                    .field("p99_ms", p99)
                    .field("deadline_misses", misses),
            )
        };
        let point = |name: &str, p99: f64, misses: u64| {
            Json::obj().field("name", name).field(
                "loads",
                Json::Arr(vec![cell(0.5, 1.0, p99 / 2.0, 0), cell(0.95, 1.2, p99, misses)]),
            )
        };
        Json::obj()
            .field("bench", "serving")
            .field(
                "slo_recommendation",
                Json::obj()
                    .field("target_p99_ms", 4.0)
                    .field("met", true)
                    .field("recommended", Json::obj().field("point", recommended)),
            )
            .field(
                "points",
                Json::Arr(vec![
                    point("sve512/1MB", p99 * 3.0, misses + 7),
                    point("a64fx", p99, misses),
                ]),
            )
    }

    #[test]
    fn report_kind_detects_serving() {
        let kind = kind_of(&serving_report_fixture(3.0, 2, "a64fx")).expect("registered kind");
        assert_eq!(kind.tag, "serving");
    }

    #[test]
    fn identical_serving_reports_pass_and_latency_drift_gates() {
        let b = serving_report_fixture(3.0, 2, "a64fx");
        let d = gate(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        // 1 recommendation + 2 points × 2 loads × 3 metrics.
        assert_eq!(d.compared, 13);
        // +4% p99 passes the 5% gate; +8% fails it.
        let ok = serving_report_fixture(3.12, 2, "a64fx");
        assert!(gate(&b, &ok).is_pass());
        let bad = serving_report_fixture(3.24, 2, "a64fx");
        let d = gate(&b, &bad);
        assert!(!d.is_pass());
        assert!(d.regressions() >= 1, "{:?}", d.findings);
        // Faster tails are improvements, not failures.
        let better = serving_report_fixture(2.7, 2, "a64fx");
        let d = gate(&b, &better);
        assert!(d.is_pass(), "{:?}", d.findings);
    }

    #[test]
    fn deadline_miss_count_gates_exactly() {
        let b = serving_report_fixture(3.0, 2, "a64fx");
        let one_more = serving_report_fixture(3.0, 3, "a64fx");
        let d = gate(&b, &one_more);
        assert!(!d.is_pass(), "one extra miss must fail: {:?}", d.findings);
        assert!(d.regressions() >= 1);
        assert!(d.findings.iter().any(|f| f.message.contains("deadline_misses")));
        // Exact means exact: one miss fewer is a behaviour change too.
        let one_fewer = serving_report_fixture(3.0, 1, "a64fx");
        assert!(!gate(&b, &one_fewer).is_pass());
    }

    #[test]
    fn moved_recommendation_or_missing_point_is_structural() {
        let b = serving_report_fixture(3.0, 2, "a64fx");
        let moved = serving_report_fixture(3.0, 2, "sve512/1MB");
        let d = gate(&b, &moved);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("recommended.point moved")));
        // Loads pair by position, so a changed intensity grid is structural.
        let regrid = b.to_string_compact().replace("\"intensity\":0.95", "\"intensity\":0.9");
        let d = gate(&b, &Json::parse(&regrid).expect("parses"));
        assert!(d.findings.iter().any(|f| f.message.contains("intensity moved 0.95 -> 0.9")));
        assert!(!d.is_pass());
        let empty = Json::obj().field("bench", "serving").field("points", Json::Arr(vec![]));
        assert!(!gate(&b, &empty).is_pass());
        assert!(!gate(&empty, &empty).is_pass());
    }

    fn scaling_report_fixture(thr8: f64, cont8: f64, knee: Option<u64>, lever: &str) -> Json {
        let cell = |cores: u64, thr: f64, cont: f64| {
            Json::obj()
                .field("cores", cores)
                .field("throughput_fpkc", thr)
                .field("stall_shares", Json::obj().field("mem", 0.2).field("contention", cont))
        };
        let mut advice = Json::obj();
        if let Some(k) = knee {
            advice = advice.field("knee_cores", k).field("lever", lever);
        }
        let curve = Json::obj()
            .field("sharding", "batch")
            .field(
                "cells",
                Json::Arr(vec![cell(1, 1.0, 0.0), cell(4, 3.2, cont8 / 2.0), cell(8, thr8, cont8)]),
            )
            .field("advice", advice);
        Json::obj().field("bench", "scaling").field(
            "networks",
            Json::Arr(vec![Json::obj().field("name", "yolov3_tiny").field(
                "points",
                Json::Arr(vec![Json::obj()
                    .field("name", "rvv2048x8/1MB")
                    .field("curves", Json::Arr(vec![curve]))]),
            )]),
        )
    }

    #[test]
    fn report_kind_detects_scaling() {
        let j = scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2");
        assert_eq!(kind_of(&j).expect("registered kind").tag, "scaling");
    }

    #[test]
    fn identical_scaling_reports_pass_and_throughput_drift_gates() {
        let b = scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2");
        let d = gate(&b, &b);
        assert!(d.is_pass(), "{:?}", d.findings);
        // 2 advice keys + 3 cells × (1 throughput + 2 shares).
        assert_eq!(d.compared, 11);
        // -1% throughput passes the 2% gate; -5% fails it as a regression.
        let ok = scaling_report_fixture(4.752, 0.3, Some(8), "grow_l2");
        assert!(gate(&b, &ok).is_pass());
        let bad = scaling_report_fixture(4.56, 0.3, Some(8), "grow_l2");
        let d = gate(&b, &bad);
        assert!(!d.is_pass());
        assert!(d.regressions() >= 1, "{:?}", d.findings);
        // Faster is an improvement, not a failure.
        let better = scaling_report_fixture(5.2, 0.3, Some(8), "grow_l2");
        let d = gate(&b, &better);
        assert!(d.is_pass(), "{:?}", d.findings);
        assert!(d.count(Severity::Improvement) >= 1);
    }

    #[test]
    fn grown_stall_share_gates_and_zero_shares_do_not_blow_up() {
        let b = scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2");
        // Contention share +20% relative fails the 10% gate; the 1-core
        // cell's exactly-zero share on both sides never trips.
        let worse = scaling_report_fixture(4.8, 0.36, Some(8), "grow_l2");
        let d = gate(&b, &worse);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("stall_shares.contention")));
        // Dust on a share that is zero in the baseline stays below the floor.
        let zero = scaling_report_fixture(4.8, 0.0, Some(8), "grow_l2");
        let dust = scaling_report_fixture(4.8, 0.0008, Some(8), "grow_l2");
        assert!(gate(&zero, &dust).is_pass());
    }

    #[test]
    fn moved_knee_or_lever_is_structural() {
        let b = scaling_report_fixture(4.8, 0.3, Some(8), "grow_l2");
        let moved = scaling_report_fixture(4.8, 0.3, Some(4), "grow_l2");
        let d = gate(&b, &moved);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("knee_cores moved")));
        let relever = scaling_report_fixture(4.8, 0.3, Some(8), "fewer_cores");
        let d = gate(&b, &relever);
        assert!(!d.is_pass());
        assert!(d.findings.iter().any(|f| f.message.contains("lever moved")));
        let empty = Json::obj().field("bench", "scaling").field("networks", Json::Arr(vec![]));
        assert!(!gate(&b, &empty).is_pass());
        assert!(!gate(&empty, &empty).is_pass());
    }

    #[test]
    fn injected_slowdown_trips_the_gate() {
        let b = report(100_000, 60_000, 40_000, 0.95);
        let mut c = b.clone();
        inject(kind_of(&b).expect("registered kind").rules, &mut c, 6.0);
        let d = gate(&b, &c);
        assert!(!d.is_pass(), "a 6% injected slowdown must fail the default gate");
        // Layers (5% tol) and total (2% tol) all regress; stalls (10% tol)
        // absorb the same 6%.
        assert_eq!(d.regressions(), 3);
    }
}
