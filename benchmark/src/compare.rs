//! `compare A B`: two sets of runs of the benchmark, judged metric by
//! metric against the bounds `BENCHMARK.json` declares.

use crate::report::RunRecord;
use crate::stats::{median, quartiles};
use lva_trace::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Direction and regression bound of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

/// Read every metric's rule from a `BENCHMARK.json`.
pub fn load_rules(path: &Path) -> Result<BTreeMap<String, Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let j = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let mut rules = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in j.get(key).and_then(Json::as_arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Json::as_f64);
            rules.insert(name.to_string(), Rule { lower_is_better: better == "lower", bound });
        }
    }
    Ok(rules)
}

/// The judgement on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side spread wider than the bound, so a change
    /// within the bound cannot be told from noise.
    Unresolved,
    /// Per-layer metric: no bound to judge against.
    NoBound,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "-",
        }
    }
}

/// Baseline `a` against candidate `b`. Returns the verdict and the share
/// of pairs (`a[i]`, `b[i]`) the candidate won; ties count for neither.
///
/// # Panics
/// Panics if either side is empty.
pub fn judge(a: &[f64], b: &[f64], rule: &Rule) -> (Verdict, f64) {
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let won = wins as f64 / pairs as f64;
    let (ma, mb) = (median(a), median(b));
    let ((qa1, qa3), (qb1, qb3)) = (quartiles(a), quartiles(b));
    let rel = |d: f64, base: f64| {
        if base == 0.0 {
            if d == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            d / base.abs()
        }
    };
    let worse_by = rel(if rule.lower_is_better { mb - ma } else { ma - mb }, ma);
    let spread = rel(qa3 - qa1, ma).max(rel(qb3 - qb1, mb));
    let every_run_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let Some(bound) = rule.bound else { return (Verdict::NoBound, won) };
    let verdict = if spread > bound && !every_run_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if won >= 0.9 && worse_by < 0.0 && (mb - ma).abs() > qa3 - qa1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, won)
}

/// Values of every (workload, metric) across `runs`, in run order.
fn collect(runs: &[RunRecord]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in runs {
        for (name, value, _) in r.metrics.iter() {
            out.entry((r.workload.clone(), name.to_string())).or_default().push(value);
        }
        out.entry((r.workload.clone(), "fail_rate".into())).or_default().push(r.fail_rate());
    }
    out
}

/// Print the comparison table; returns whether no metric regressed.
pub fn print_comparison(a: &[RunRecord], b: &[RunRecord], rules: &BTreeMap<String, Rule>) -> bool {
    let (va, vb) = (collect(a), collect(b));
    let fail_rule = Rule { lower_is_better: true, bound: Some(0.0) };
    println!(
        "{:<16} {:<32} {:>14} {:>24} {:>14} {:>24} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B won"
    );
    let mut ok = true;
    for (key, xs) in &va {
        let Some(ys) = vb.get(key) else { continue };
        let rule = if key.1 == "fail_rate" {
            &fail_rule
        } else {
            rules.get(&key.1).unwrap_or(&Rule { lower_is_better: true, bound: None })
        };
        let (verdict, won) = judge(xs, ys, rule);
        ok &= verdict != Verdict::Regressed;
        let (qa, qb) = (quartiles(xs), quartiles(ys));
        println!(
            "{:<16} {:<32} {:>14.6} {:>24} {:>14.6} {:>24} {:>5.0}%  {}",
            key.0,
            key.1,
            median(xs),
            format!("[{:.6}, {:.6}]", qa.0, qa.1),
            median(ys),
            format!("[{:.6}, {:.6}]", qb.0, qb.1),
            100.0 * won,
            verdict.name()
        );
    }
    ok
}
