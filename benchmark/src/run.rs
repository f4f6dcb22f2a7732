//! The run driver shared by every workload: set-up, the timed phase,
//! checks, and (when traced) the ladder that splits one point's host cost
//! across the simulator's layers.

use crate::checks::{same_run, Ledger};
use crate::model::Model;
use crate::report::{Metrics, RunRecord};
use crate::spans::{SpanId, Tracer};
use crate::stats::{cpu_time, median, peak_rss_mb, HostProbe, PROBE_REF_S};
use lva_core::Experiment;
use lva_isa::{LayerMemo, RefitPlan};
use std::time::Instant;

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Per-run state every workload reports into.
#[derive(Debug)]
pub struct Ctx {
    pub tracer: Tracer,
    pub ledger: Ledger,
    probe: HostProbe,
    /// Probe times since the last [`Ctx::take_probes`].
    probes: Vec<f64>,
    /// Host seconds of each request since the last
    /// [`Ctx::take_request_times`], `None` for one that panicked.
    request_s: Vec<Option<f64>>,
    next_request: u64,
    last_request: SpanId,
}

impl Ctx {
    pub fn new(trace: bool) -> Self {
        Ctx {
            tracer: Tracer::new(trace),
            ledger: Ledger::default(),
            probe: HostProbe::default(),
            probes: Vec::new(),
            request_s: Vec::new(),
            next_request: 0,
            last_request: None,
        }
    }

    fn sample_probe(&mut self) {
        let t = self.probe.measure();
        self.probes.push(t);
    }

    fn take_probes(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.probes)
    }

    fn take_request_times(&mut self) -> Vec<Option<f64>> {
        std::mem::take(&mut self.request_s)
    }

    /// Time one call under a span named `name`. A panic counts as a failure
    /// and yields `None`.
    pub fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
        self.timed(name, None, f)
    }

    /// [`Ctx::call`] for one request of the timed phase: the span gets a
    /// fresh request id, the host probe runs just before it, and its time
    /// counts in `point_p50_s`.
    pub fn request<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
        self.sample_probe();
        let id = self.next_request;
        self.next_request += 1;
        let out = self.timed(name, Some(id), f);
        self.request_s.push(out.as_ref().map(|&(_, s)| s));
        out
    }

    /// Rename the span of the last request (its path is known only after
    /// the call returns).
    pub fn name_last_request(&mut self, name: &str) {
        self.tracer.rename(self.last_request, name);
    }

    fn timed<T>(
        &mut self,
        name: &str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> Option<(T, f64)> {
        let span = self.tracer.enter(name, request);
        let t = Instant::now();
        let out = self.ledger.attempt(name, f);
        let secs = t.elapsed().as_secs_f64();
        self.tracer.exit(span);
        if request.is_some() {
            self.last_request = span;
        }
        out.map(|v| (v, secs))
    }
}

/// What one pass over a workload's request list produced.
#[derive(Debug)]
pub struct Pass<D> {
    /// Simulated cycles of the pass's seed-independent requests.
    pub sim_cycles: u64,
    /// Model-side counts over the same requests.
    pub model: Model,
    pub detail: D,
}

/// One benchmark workload. See the README for why each was chosen.
pub trait Workload {
    type State;
    type Detail;

    /// Build the request list and warm up. Runs [`SETUPS`] times; the last
    /// state is kept.
    fn setup(&self, seed: u64, ctx: &mut Ctx) -> Self::State;

    /// One pass over the request list: the unit the timed phase repeats.
    fn pass(&self, st: &Self::State, ctx: &mut Ctx) -> Pass<Self::Detail>;

    /// After the timed phase: output checks, verification against full
    /// simulation, and the workload's own per-layer numbers.
    fn finish(
        &self,
        st: &Self::State,
        passes: &[Pass<Self::Detail>],
        ctx: &mut Ctx,
        m: &mut Metrics,
    );

    /// The design point the traced ladder times.
    fn ladder_point(&self, st: &Self::State) -> Experiment;
}

/// Run `w`: set-up, then passes until the next one would end after
/// `seconds` (at least one), then checks. Traced runs also time the ladder
/// and write their spans to `out/<name>.spans.jsonl`.
pub fn run<W: Workload>(w: &W, name: &str, seed: u64, seconds: u64, trace: bool) -> RunRecord {
    let mut ctx = Ctx::new(trace);
    // Host times are scaled by the reference probe time over the median
    // probe time sampled around them (see `HostProbe`).
    let mut all_probes = Vec::new();
    let mut scale = |probes: Vec<f64>| {
        let k = PROBE_REF_S / median(&probes);
        all_probes.extend(probes);
        k
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        ctx.sample_probe();
        let span = ctx.tracer.enter("setup", None);
        let t = Instant::now();
        state = Some(w.setup(seed, &mut ctx));
        let raw = t.elapsed().as_secs_f64();
        ctx.tracer.exit(span);
        setup_s.push(raw * scale(ctx.take_probes()));
    }
    let st = state.expect("SETUPS > 0");

    let start = Instant::now();
    let mut passes = Vec::new();
    let (mut wall_s, mut cpu_s, mut raw_wall_s) = (Vec::new(), Vec::new(), Vec::new());
    // Scaled seconds of the j-th request of every pass.
    let mut request_s: Vec<Vec<f64>> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        ctx.sample_probe();
        let span = ctx.tracer.enter("pass", None);
        let (t, c) = (Instant::now(), cpu_time());
        let pass = w.pass(&st, &mut ctx);
        let (elapsed, cpu) = (t.elapsed(), (cpu_time() - c).as_secs_f64());
        ctx.tracer.exit(span);
        if passes.is_empty() {
            // One pass's peak: later passes only add allocator fragmentation.
            peak_rss = peak_rss_mb();
        }
        let probes = ctx.take_probes();
        // The probes before each request ran inside the pass's window.
        let probe_s: f64 = probes[1..].iter().sum();
        let wall = elapsed.as_secs_f64() - probe_s;
        let k = scale(probes);
        raw_wall_s.push(wall);
        wall_s.push(wall * k);
        cpu_s.push((cpu - probe_s).max(0.0) * k);
        for (j, t) in ctx.take_request_times().into_iter().enumerate() {
            if j == request_s.len() {
                request_s.push(Vec::new());
            }
            request_s[j].extend(t.map(|t| t * k));
        }
        passes.push(pass);
        if start.elapsed().as_secs_f64() + wall > seconds as f64 {
            break;
        }
    }

    let mut m = Metrics::default();
    if trace {
        m.push("trace.wall_s", median(&wall_s), "s");
    } else {
        m.push("setup_s", median(&setup_s), "s");
        m.push("wall_s", median(&wall_s), "s");
        m.push("cpu_s", median(&cpu_s), "s");
        // Each request's median over the passes, then the median request:
        // robust to one slow pass even when requests differ by 10×.
        let per_request: Vec<f64> =
            request_s.iter().filter(|t| !t.is_empty()).map(|t| median(t)).collect();
        if !per_request.is_empty() {
            m.push("point_p50_s", median(&per_request), "s");
        }
        m.push("peak_rss_mb", peak_rss, "MB");
        m.push("sim_gcycles", passes[0].sim_cycles as f64 / 1e9, "Gcycles");
    }
    m.push("host.probe_ms", median(&all_probes) * 1e3, "ms");
    m.push("host.raw_wall_s", median(&raw_wall_s), "s");
    m.push("run.passes", passes.len() as f64, "count");
    m.push("run.requests", request_s.iter().map(Vec::len).sum::<usize>() as f64, "count");
    ctx.ledger.check(passes.iter().all(|p| p.sim_cycles == passes[0].sim_cycles), || {
        "simulated cycles differ between passes".into()
    });

    let span = ctx.tracer.enter("verify", None);
    w.finish(&st, &passes, &mut ctx, &mut m);
    ctx.tracer.exit(span);
    if trace {
        passes[0].model.push_metrics(&mut m);
        let span = ctx.tracer.enter("ladder", None);
        ladder(&w.ladder_point(&st), &mut ctx, &mut m);
        ctx.tracer.exit(span);
        let dir = crate::report::out_dir();
        let path = dir.join(format!("{name}.spans.jsonl"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| ctx.tracer.write_jsonl(&path)) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    for f in &ctx.ledger.failures {
        eprintln!("[{name}] FAILED: {f}");
    }
    RunRecord {
        workload: name.to_string(),
        seed,
        seconds,
        trace,
        attempted: ctx.ledger.attempted,
        failed: ctx.ledger.failed,
        metrics: m,
    }
}

/// Times each ladder call is repeated; the ladder reports the median.
const LADDER_REPEATS: usize = 3;

/// Run `f` [`LADDER_REPEATS`] times under spans named `name`; the first
/// result and the median time.
fn repeated<T>(ctx: &mut Ctx, name: &str, f: impl Fn() -> T) -> Option<(T, f64)> {
    let (first, t) = ctx.call(name, &f)?;
    let mut times = vec![t];
    for _ in 1..LADDER_REPEATS {
        times.push(ctx.call(name, &f)?.1);
    }
    Some((first, median(&times)))
}

/// Time the chain of public calls whose differences split one point's host
/// cost: full run, capture, live replay, tape replay, and memoized tape
/// replay with a fresh memo. Every result must equal the full run.
fn ladder(e: &Experiment, ctx: &mut Ctx, m: &mut Metrics) {
    let Some((full, run)) = repeated(ctx, "ladder.run", || e.run()) else { return };
    let Some((cap, capture)) = repeated(ctx, "ladder.run_traced", || e.run_traced()) else {
        return;
    };
    let plan = RefitPlan::build(&cap.trace, e.refit_geometry());
    let expect_tape = "tape matches its capture";
    let replays = [
        ("capture", Some((cap.summary.clone(), capture))),
        ("live replay", repeated(ctx, "ladder.retime_live", || e.retime_live(&cap))),
        (
            "tape replay",
            repeated(ctx, "ladder.retime_tape", || e.retime_tape(&cap).expect(expect_tape)),
        ),
        (
            "memoized tape replay",
            repeated(ctx, "ladder.retime_tape_memoized", || {
                let mut memo = LayerMemo::default();
                e.retime_tape_memoized(&cap, &plan, &mut memo).expect(expect_tape)
            }),
        ),
    ];
    for (what, r) in &replays {
        if let Some((s, _)) = r {
            ctx.ledger.check(same_run(s, &full), || format!("ladder: {what} differs from the run"));
        }
    }
    let [_, Some((_, live)), Some((_, tape)), Some((_, memoized))] = replays.map(|(_, r)| r) else {
        return;
    };
    let ms = |s: f64| s * 1e3;
    m.push("core.run_ms", ms(run), "ms");
    m.push("core.functional_ms", ms(run - live), "ms");
    m.push("sim.hierarchy_ms", ms(live - tape), "ms");
    m.push("isa.timing_ms", ms(tape), "ms");
    m.push("retime.recorder_ms", ms(capture - run), "ms");
    m.push("retime.layer_memo_saving_ms", ms(tape - memoized), "ms");
    m.push("retime.capture_x_full", capture / run, "ratio");
}
