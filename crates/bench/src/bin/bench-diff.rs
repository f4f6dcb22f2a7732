//! Compare two observatory records under their kind's drift rules and exit
//! nonzero on regression.
//!
//! ```text
//! bench-diff BASELINE.json CURRENT.json [--inject PCT]
//! ```
//!
//! The report kind comes from the records' `bench` tag and selects the
//! rule table in `lva_bench::observatory::KINDS` (DESIGN.md §11 lists it).
//! Both inputs must be the same kind, and the kind must have drift rules.
//!
//! `--inject PCT` moves every relative metric of the *current* record PCT%
//! in its worse direction before comparing. CI uses it to prove each gate
//! trips: after a passing real comparison, a 6% injected regression must
//! make this binary exit 1.
//!
//! Exit codes: 0 = within tolerance, 1 = regression or structural mismatch,
//! 2 = usage / unreadable / unparseable / unknown or mismatched-kind input.

use lva_bench::diff::{inject, walk, Severity};
use lva_bench::observatory::{kind_of, load};

fn usage() -> ! {
    eprintln!(
        "usage: bench-diff BASELINE.json CURRENT.json [--inject PCT]\n  --inject PCT  move CURRENT's relative metrics PCT% in their worse\n                direction first (gate self-test)"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("bench-diff: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut pct: Option<f64> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--inject" => {
                let v = args.next().and_then(|v| v.parse().ok());
                pct = Some(v.unwrap_or_else(|| fail("--inject needs a number")));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("bench-diff: unknown option {other}");
                usage();
            }
            path => paths.push(path.to_string()),
        }
    }
    let [base_path, cur_path] = paths.as_slice() else { usage() };

    let base = load(base_path).unwrap_or_else(|e| fail(&e));
    let mut cur = load(cur_path).unwrap_or_else(|e| fail(&e));
    let kind = kind_of(&base).unwrap_or_else(|e| fail(&format!("{base_path}: {e}")));
    let cur_kind = kind_of(&cur).unwrap_or_else(|e| fail(&format!("{cur_path}: {e}")));
    if kind.tag != cur_kind.tag {
        fail(&format!(
            "report kinds differ: {base_path} is \"{}\", {cur_path} is \"{}\"",
            kind.tag, cur_kind.tag
        ));
    }
    if kind.rules.is_empty() {
        fail(&format!(
            "\"{}\" records have no drift rules; CI gates them by determinism",
            kind.tag
        ));
    }
    if let Some(pct) = pct {
        eprintln!("[injecting a {pct}% regression into {cur_path} for gate self-test]");
        inject(kind.rules, &mut cur, pct);
    }

    let report = walk(kind.rules, &base, &cur);
    for f in &report.findings {
        let tag = match f.severity {
            Severity::Regression => "REGRESSION",
            Severity::Improvement => "improvement",
            Severity::Structural => "STRUCTURAL",
        };
        println!("{tag:<12} {}", f.message);
    }
    println!(
        "bench-diff: {} comparisons, {} regressions, {} structural, {} improvements",
        report.compared,
        report.regressions(),
        report.structural(),
        report.findings.len() - report.regressions() - report.structural(),
    );
    if report.is_pass() {
        println!("bench-diff: PASS ({base_path} vs {cur_path})");
    } else {
        println!("bench-diff: FAIL ({base_path} vs {cur_path})");
        std::process::exit(1);
    }
}
