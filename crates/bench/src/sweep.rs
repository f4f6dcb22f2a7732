//! Parallel execution of independent design-point runs for the `exp-*`
//! binaries.
//!
//! Each sweep entry is a pure function of its [`Experiment`] (simulated
//! machines share no state), so entries can run on worker threads via
//! [`lva_core::parallel_map`]. Results return in **submission order** no
//! matter how many threads ran, and per-run stderr logging is emitted in
//! that same order, so `--jobs N` output is reproducible.
//!
//! Every run also records its own host wall-clock (`host_ms`) — the raw
//! material for the `--wallclock` self-benchmark report.

use std::time::Instant;

use crate::{fmt_cycles, Experiment, MemProfile, RunSummary};

/// Outcome of one sweep entry: the simulated measurements plus what they
/// cost to produce on the host.
pub struct SweepRun {
    pub summary: RunSummary,
    /// The `lva-prof` memory profile, when requested (timing unchanged).
    pub profile: Option<MemProfile>,
    /// Host wall-clock milliseconds this single run took.
    pub host_ms: f64,
}

fn one_run(e: &Experiment, profile: bool) -> SweepRun {
    let t0 = Instant::now();
    let (summary, profile) = if profile {
        let (s, p) = e.run_profiled();
        (s, Some(p))
    } else {
        (e.run(), None)
    };
    SweepRun { summary, profile, host_ms: t0.elapsed().as_secs_f64() * 1e3 }
}

fn log_run(name: &str, r: &SweepRun) {
    eprintln!(
        "   {name}: {} cycles, avg VL {:.0}b, L2 miss {:.1}% ({:.0} ms host)",
        fmt_cycles(r.summary.cycles),
        r.summary.avg_vlen_bits,
        100.0 * r.summary.l2_miss_rate,
        r.host_ms,
    );
}

/// Run named experiments on up to `jobs` worker threads (1 = the plain
/// serial loop), returning results in submission order.
///
/// The simulated outputs are identical for every `jobs` value — the
/// executor only changes who executes what when. `quiet` suppresses the
/// per-run stderr log (used by the repeated `--wallclock` passes).
pub fn run_sweep(
    specs: &[(String, Experiment)],
    jobs: usize,
    profile: bool,
    quiet: bool,
) -> Vec<SweepRun> {
    if !quiet && jobs > 1 && specs.len() > 1 {
        eprintln!(".. {} runs on {} threads", specs.len(), jobs.min(specs.len()));
    }
    let serial = jobs <= 1 || specs.len() <= 1;
    let runs = lva_core::parallel_map(specs, jobs, |_, (name, e)| {
        // Serial mode runs inline on this thread: log around each run,
        // exactly like the historical per-run loop.
        if !quiet && serial {
            eprintln!(".. {} | {} [{name}]", e.hw.describe(), e.workload.describe());
        }
        let r = one_run(e, profile);
        if !quiet && serial {
            log_run(name, &r);
        }
        r
    });
    if !quiet && !serial {
        for ((name, e), r) in specs.iter().zip(&runs) {
            eprintln!(".. {} | {} [{name}]", e.hw.describe(), e.workload.describe());
            log_run(name, r);
        }
    }
    runs
}

/// Median of a sample set (interpolating midpoint for even counts).
pub fn median_ms(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}
