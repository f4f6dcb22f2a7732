//! Deterministic markdown renderer for the `lint-dataflow` record
//! (`lint-dataflow.json` → `results/DATAFLOW.md`).
//!
//! Pure JSON-to-text: the same record always renders the same bytes, so CI
//! can byte-compare the committed `results/DATAFLOW.md` against a fresh
//! run, and `report --in lint-dataflow.json` re-renders offline. The record
//! schema is produced by `crates/depgraph/src/bin/lint-dataflow.rs`.

use lva_trace::Json;

/// Render the full `results/DATAFLOW.md` from a `lint-dataflow` record.
pub fn dataflow_markdown(r: &Json) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let points: Vec<&str> = r.arr_at("design_points").iter().filter_map(Json::as_str).collect();
    let _ = writeln!(md, "# Dataflow certifier — retime-safety and critical-path tightness\n");
    let _ = writeln!(
        md,
        "Generated by `lint-dataflow` v{} over {} kernel × design-point runs \
         (deterministic; re-render with `cargo run --release --bin report -- --in \
         lint-dataflow.json`).\n",
        r.str_at("version"),
        r.u64_at("kernel_runs"),
    );

    // ---- certificate summary ------------------------------------------
    let _ = writeln!(md, "## Retime certificates\n");
    let _ = writeln!(
        md,
        "A kernel is *certified* when its recorded `VecEvent` stream at every \
         supported design point is (a) bit-identical under timing-only \
         perturbations of that point (L2 capacity, lane count, reference \
         model, all ideal knobs) and (b) equivalent modulo granted-VL \
         renaming across vector lengths within each ISA (same per-op active \
         element totals, same per-buffer element traffic).\n"
    );
    let _ = writeln!(
        md,
        "| kernel | shape | design points | stream invariance | VL renaming | certified |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for c in r.arr_at("certificates") {
        let pts = c.arr_at("points");
        let covered = pts.iter().map(|p| p.str_at("profile")).collect::<Vec<_>>().join(", ");
        let inv_ok = pts
            .iter()
            .filter(|p| p.get("invariant").and_then(Json::as_bool).unwrap_or(false))
            .count();
        let vl_classes = c.arr_at("vl_equivalence");
        let vl_ok =
            vl_classes.iter().all(|e| e.get("equivalent").and_then(Json::as_bool).unwrap_or(false));
        let vl_cell = if vl_classes.is_empty() {
            "n/a".to_string()
        } else if vl_ok {
            vl_classes.iter().map(|e| e.str_at("isa")).collect::<Vec<_>>().join("+") + " ok"
        } else {
            "**broken**".to_string()
        };
        let certified = c.get("certified").and_then(Json::as_bool).unwrap_or(false);
        let _ = writeln!(
            md,
            "| {} | {} | {} | {}/{} invariant | {} | {} |",
            c.str_at("kernel"),
            c.str_at("shape"),
            covered,
            inv_ok,
            pts.len(),
            vl_cell,
            if certified { "yes" } else { "**NO**" },
        );
    }

    // ---- tightness table ----------------------------------------------
    let _ = writeln!(md, "\n## Critical-path lower-bound tightness\n");
    let _ = writeln!(
        md,
        "Per kernel × design point: the DAG/resource cycle lower bound as a \
         percentage of simulated cycles (100% = the kernel runs at its \
         dependence/throughput floor; the bound is asserted `<=` simulated \
         cycles by `crates/depgraph` tests).\n"
    );
    let _ = write!(md, "| kernel |");
    for p in &points {
        let _ = write!(md, " {p} |");
    }
    let _ = writeln!(md);
    let _ = write!(md, "|---|");
    for _ in &points {
        let _ = write!(md, "---|");
    }
    let _ = writeln!(md);
    let mut sum = 0.0f64;
    let mut n = 0u32;
    for c in r.arr_at("certificates") {
        let _ = write!(md, "| {} |", c.str_at("kernel"));
        for p in &points {
            let cell = c.arr_at("points").iter().find(|pt| pt.str_at("profile") == *p);
            match cell {
                Some(pt) => {
                    let t = pt.f64_at("tightness_pct");
                    sum += t;
                    n += 1;
                    let _ = write!(md, " {t:.1}% |");
                }
                None => {
                    let _ = write!(md, " — |");
                }
            }
        }
        let _ = writeln!(md);
    }
    if n > 0 {
        let _ = writeln!(md, "\nMean tightness: **{:.1}%** over {n} runs.", sum / n as f64);
    }

    // ---- findings ------------------------------------------------------
    let findings = r.arr_at("findings");
    let _ = writeln!(md, "\n## Dataflow lint findings\n");
    if findings.is_empty() {
        let _ = writeln!(md, "None — no redundant loads, dead stores, or certification failures.");
    } else {
        for fnd in findings {
            let _ = writeln!(
                md,
                "- **{}** `{}` on {}: {}",
                fnd.str_at("pass"),
                fnd.str_at("kernel"),
                fnd.str_at("profile"),
                fnd.str_at("detail"),
            );
        }
    }
    // Allowlisted findings are grouped by (kernel, pass): one reviewed
    // reason covers every instance, so the report shows the count, the
    // reason, and the first instance as a representative example.
    let allow = r.arr_at("allowlisted");
    if !allow.is_empty() {
        let _ = writeln!(md, "\nAllowlisted (documented, not gated):\n");
        let mut groups: Vec<(&str, &str)> = Vec::new();
        for fnd in allow {
            let key = (fnd.str_at("kernel"), fnd.str_at("pass"));
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        for (kernel, pass) in groups {
            let members: Vec<&Json> = allow
                .iter()
                .filter(|fnd| fnd.str_at("kernel") == kernel && fnd.str_at("pass") == pass)
                .collect();
            let first = members[0];
            let _ = writeln!(
                md,
                "- **{pass}** `{kernel}` — {} finding(s), e.g. on {}: {}\n  — *{}*",
                members.len(),
                first.str_at("profile"),
                first.str_at("detail"),
                first.str_at("reason"),
            );
        }
    }
    md
}
