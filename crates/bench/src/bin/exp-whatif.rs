//! The co-design advisor pipeline: counterfactually profile every §VI
//! headline design point (one captured factual run, re-timed under five
//! idealizations by tape refit), cross-check against `BENCH_headline.json`
//! if present, and write
//!
//! * `BENCH_whatif.json` — the machine-readable merged record (whatif
//!   analyses + roofline positions per run), at the repo root next to
//!   `BENCH_headline.json`;
//! * `results/CODESIGN_REPORT.md` — the human-readable advisor report.
//!
//! Both outputs are deterministic: no timestamps, no host data. CI runs the
//! pipeline twice on a reduced layer set and byte-compares.
//!
//! `--jobs N` spreads the design points over N threads, so at most N
//! captures are in memory at once; `--layers N` trims the layer prefix
//! (CI), `--div N` rescales inputs.

use lva_bench::*;

fn main() {
    let opts = Opts::parse(Dialect::Experiment, 8, "Counterfactual co-design advisor (lva-whatif)");
    let specs = headline_specs(opts.div, opts.layers);

    let headline = std::fs::read_to_string("BENCH_headline.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    if headline.is_none() {
        eprintln!("[no BENCH_headline.json to cross-check against; skipping]");
    }

    let j = whatif_json(&specs, opts.div, opts.jobs, headline.as_ref());
    observatory::publish(&j);
}
