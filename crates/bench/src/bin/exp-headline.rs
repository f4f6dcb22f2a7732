//! §VI headline speedups of the algorithmic optimizations:
//!
//! * YOLOv3-tiny on RISC-V Vector: optimized 3-loop vs naive Darknet — the
//!   paper reports 14x.
//! * YOLOv3 on A64FX: BLIS-like 6-loop vs naive — ~32x; 6-loop vs 3-loop —
//!   ~2x (prefetch + L1 blocking pay off on A64FX).
//! * YOLOv3 on ARM-SVE @ gem5 (512-bit): 6-loop vs 3-loop — ~1.15x (no
//!   prefetch, but L1 blocking still helps a bit).
//! * YOLOv3 on RISC-V Vector: 6-loop vs 3-loop — ~0.98x (no benefit: the
//!   decoupled VPU bypasses the L1).
//!
//! The nine design points are independent, so `--jobs N` fans them out over
//! worker threads — the table, `results/` files and `BENCH_headline.json`
//! are byte-identical for every N. `--wallclock` times the whole sweep
//! (serial vs `--jobs`, median of 3 each) and writes the simulator's
//! self-benchmark to `BENCH_sim_wallclock.json`.

use std::time::Instant;

use lva_bench::*;

fn ratio(a: u64, b: u64) -> String {
    fmt_speedup(a as f64 / b as f64)
}

/// The retime-vs-full section of the wallclock benchmark: capture every
/// spec once, then re-time the whole suite by tape refit three times
/// (median). Nothing carries over between passes, so each one costs what
/// re-timing nine unseen timing points costs. Every capture and every
/// re-timed summary is asserted equal to the full simulator's, so the
/// published speedup is over verified-identical work.
fn retime_bench(specs: &[(String, Experiment)], full: &[SweepRun], serial_ms: f64) -> Json {
    let check = |what: &str, i: usize, s: &RunSummary| {
        let (name, want) = (&specs[i].0, &full[i].summary);
        assert_eq!(s.cycles, want.cycles, "{name}: {what} cycles diverged from the full simulator");
        assert_eq!(s.report, want.report, "{name}: {what} report diverged from the full simulator");
    };
    let t0 = Instant::now();
    let caps: Vec<_> = specs.iter().map(|(_, e)| e.run_traced()).collect();
    let capture_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(".. wallclock retime capture: {capture_ms:.0} ms");
    for (i, cap) in caps.iter().enumerate() {
        check("captured", i, &cap.summary);
    }
    let mut retime_ms = Vec::new();
    for pass in 1..=3 {
        let t0 = Instant::now();
        let retimed: Vec<RunSummary> = specs
            .iter()
            .zip(&caps)
            .map(|((_, e), cap)| e.retime_tape(cap).expect("tape matches own geometry"))
            .collect();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        eprintln!(".. wallclock retime pass {pass}: {ms:.0} ms");
        retime_ms.push(ms);
        for (i, s) in retimed.iter().enumerate() {
            check("retimed", i, s);
        }
    }
    let retime = median_ms(&mut retime_ms);
    Json::obj()
        .field("runs", specs.len() as u64)
        .field("capture_ms", capture_ms)
        .field("retime_ms_median_of_3", retime)
        .field("speedup_retime_vs_full_serial", if retime > 0.0 { serial_ms / retime } else { 0.0 })
        .field(
            "speedup_including_capture",
            if capture_ms + retime > 0.0 { serial_ms / (capture_ms + retime) } else { 0.0 },
        )
}

/// `--wallclock`: time the full sweep end to end, serially and with
/// `--jobs`, median of 3 passes each, plus the retime-vs-full section,
/// and write `BENCH_sim_wallclock.json`. Per-run reports (with host
/// timing attached) come from the last serial pass.
fn wallclock_bench(specs: &[(String, Experiment)], opts: &Opts) {
    let host_cpus = lva_core::default_jobs();
    let jobs = if opts.jobs > 1 { opts.jobs } else { host_cpus.max(2) };
    // The parallel executor cannot beat serial without a second CPU; its
    // pass still runs (measuring executor overhead) but the speedup
    // figure is withheld so readers and bench-diff don't flag a phantom
    // regression.
    let jobs_effective = jobs.min(host_cpus);
    let mut serial_ms = Vec::new();
    let mut parallel_ms = Vec::new();
    let mut last_serial: Option<Vec<SweepRun>> = None;
    for pass in 0..3 {
        let t0 = Instant::now();
        let runs = run_sweep(specs, 1, false, true);
        serial_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        eprintln!(".. wallclock serial pass {}: {:.0} ms", pass + 1, serial_ms[pass]);
        last_serial = Some(runs);
        let t0 = Instant::now();
        run_sweep(specs, jobs, false, true);
        parallel_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        eprintln!(".. wallclock --jobs {jobs} pass {}: {:.0} ms", pass + 1, parallel_ms[pass]);
    }
    let serial = median_ms(&mut serial_ms);
    let parallel = median_ms(&mut parallel_ms);
    let runs = last_serial.expect("three serial passes ran");
    let retime = retime_bench(specs, &runs, serial);
    let total_cycles: u64 = runs.iter().map(|r| r.summary.cycles).sum();
    let reports: Vec<Json> = specs
        .iter()
        .zip(&runs)
        .map(|((name, e), r)| {
            RunReport::new(name.clone(), e, &r.summary).with_host(r.host_ms).to_json()
        })
        .collect();
    let mut j = Json::obj()
        .field("bench", "sim_wallclock")
        .field("div", opts.div as u64)
        .field("experiments", specs.len() as u64)
        .field("host_cpus", host_cpus as u64)
        .field("jobs", jobs as u64)
        .field("jobs_effective", jobs_effective as u64)
        .field("serial_ms_median_of_3", serial)
        .field("parallel_ms_median_of_3", parallel);
    if host_cpus > 1 {
        j = j.field("parallel_speedup", if parallel > 0.0 { serial / parallel } else { 0.0 });
    } else {
        j = j.field(
            "parallel_speedup_note",
            "single-CPU host: threads cannot overlap, speedup figure withheld",
        );
    }
    j = j
        .field("retime", retime)
        .field("sim_cycles_total", total_cycles)
        .field(
            "sim_cycles_per_host_us_serial",
            if serial > 0.0 { total_cycles as f64 / (serial * 1000.0) } else { 0.0 },
        )
        .field("runs", Json::Arr(reports));
    let mut body = j.to_string_pretty();
    body.push('\n');
    match std::fs::write("BENCH_sim_wallclock.json", body) {
        Ok(()) => println!(
            "[saved BENCH_sim_wallclock.json: serial {serial:.0} ms, --jobs {jobs} {parallel:.0} ms]"
        ),
        Err(e) => eprintln!("could not save BENCH_sim_wallclock.json: {e}"),
    }
}

fn main() {
    let opts = Opts::parse(4, "Headline optimization speedups (§VI-A/§VI-C)");
    let specs = headline_specs(opts.div, opts.layers);

    // The table pass. With --profile the memory profiler rides along
    // (timing unchanged) and its reuse-distance/3C report lands next to
    // the run. --jobs only changes who executes what when.
    let results = run_sweep(&specs, opts.jobs, opts.profile, false);
    let summary = |i: usize| -> &RunSummary { &results[i].summary };
    let runs: Vec<RunReport> = specs
        .iter()
        .zip(&results)
        .map(|((name, e), r)| {
            let mut report = RunReport::new(name.clone(), e, &r.summary);
            if opts.whatif {
                // --with-whatif: five idealized re-runs per design point
                // merge the counterfactual analysis into this report. Note
                // the file then legitimately differs from the knobs-off
                // baseline.
                eprintln!(".. whatif {} | {}", name, e.hw.describe());
                let analysis = lva_whatif::analyze_counterfactuals(e, &r.summary, opts.jobs);
                report = report.with_whatif(analysis.to_json());
            }
            if opts.energy {
                // --with-energy: one probed re-run streams the per-layer
                // attribution; cycles are bit-identical to the table pass.
                eprintln!(".. energy {} | {}", name, e.hw.describe());
                let model = lva_core::EnergyModel::default();
                let (s, att) = e.run_energy(&model);
                assert_eq!(s.cycles, r.summary.cycles, "{name}: energy probe changed timing");
                report = report.with_energy(att.to_json());
            }
            report
        })
        .collect();
    let profiles: Vec<(String, Json)> = specs
        .iter()
        .zip(&results)
        .filter_map(|((name, _), r)| r.profile.as_ref().map(|p| (name.clone(), p.to_json())))
        .collect();

    let tiny_desc = specs[0].1.workload.describe();
    let yolo_desc = specs[2].1.workload.describe();
    let mut table = Table::new(
        "Headline speedups of the §IV optimizations",
        &["platform", "workload", "comparison", "measured", "paper"],
    );
    table.row(vec![
        "RVV@gem5".into(),
        tiny_desc.clone(),
        "opt 3-loop vs naive".into(),
        ratio(summary(0).cycles, summary(1).cycles),
        "14x".into(),
    ]);
    table.row(vec![
        "A64FX".into(),
        yolo_desc.clone(),
        "opt 6-loop vs naive".into(),
        ratio(summary(2).cycles, summary(4).cycles),
        "~32x".into(),
    ]);
    table.row(vec![
        "A64FX".into(),
        yolo_desc.clone(),
        "opt 6-loop vs opt 3-loop".into(),
        ratio(summary(3).cycles, summary(4).cycles),
        "2x".into(),
    ]);
    table.row(vec![
        "SVE@gem5 512b".into(),
        yolo_desc.clone(),
        "opt 6-loop vs opt 3-loop".into(),
        ratio(summary(5).cycles, summary(6).cycles),
        "1.15x".into(),
    ]);
    table.row(vec![
        "RVV@gem5".into(),
        yolo_desc,
        "opt 6-loop vs opt 3-loop".into(),
        ratio(summary(7).cycles, summary(8).cycles),
        "0.98x".into(),
    ]);

    emit(&table, "headline_speedups", &opts);

    // --chrome: re-run the first design point recording pipeline events and
    // save a Perfetto-loadable timeline (layers / phases / stall tracks).
    if let Some(path) = &opts.chrome {
        let e = &specs[1].1; // rvv + opt3 + tiny
        eprintln!(".. {} | {} [timeline]", e.hw.describe(), e.workload.describe());
        let (_, trace) = e.run_timeline();
        match trace.save(path) {
            Ok(()) => println!("[saved {path} ({} events)]", trace.len()),
            Err(e) => eprintln!("could not save {path}: {e}"),
        }
    }

    // --json: full machine-readable record (per-layer cycles, stall-cause
    // breakdown, per-level cache hit rates, avg consumed VL) at repo root.
    // Host timing is deliberately NOT attached here: this file is the
    // byte-deterministic record `bench-diff` gates on.
    if opts.json {
        let mut j = Json::obj()
            .field("bench", "headline")
            .field("table", table.to_json())
            .field("runs", Json::Arr(runs.iter().map(lva_bench::RunReport::to_json).collect()));
        if !profiles.is_empty() {
            j = j.field("profiles", Json::Obj(profiles));
        }
        observatory::publish(&j);
    }

    if opts.wallclock {
        wallclock_bench(&specs, &opts);
    }

    // The --json path above writes after emit()'s flush; make sure a
    // `--trace` sink sees everything before the process exits.
    lva_trace::flush();
}
