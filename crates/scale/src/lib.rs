//! # lva-scale — multi-core sharded SoC simulation with a shared-memory
//! contention observatory
//!
//! The paper characterizes a *single* scalar+VPU core per design point; a
//! deployable SoC integrates several such cores behind one shared L2 and
//! one DRAM channel. This crate composes N copies of the existing
//! single-core simulator ([`lva_isa::Machine`], each with its private
//! L1/vector cache) around one bandwidth-contended
//! [`lva_sim::SharedPort`], and partitions an inference workload across
//! them two ways:
//!
//! * **batch sharding** ([`Sharding::Batch`]) — data parallelism: each core
//!   runs one whole frame; N cores process N frames concurrently.
//! * **pipeline sharding** ([`Sharding::Pipeline`]) — layer parallelism:
//!   the network's layers are partitioned into N contiguous stages
//!   (balanced by the capture run's per-layer cycles); frame `f`'s stage
//!   `s` starts once stage `s-1` finished frame `f`.
//!
//! ## How it runs: capture once, replay N-wise
//!
//! One single-core capture ([`lva_core::Experiment::run_traced`]) records
//! the semantic op stream; the SoC run replays it on N machines through a
//! **global cycle-interleaved event loop**: always step the runnable core
//! with the lowest local clock (lowest index on ties), publishing that
//! clock to the shared port before each op so arbitration sees a
//! cross-core time-ordered request stream. The loop is single-threaded and
//! integer-timed, hence fully deterministic — byte-identical results under
//! any host parallelism (`--jobs` only distributes whole SoC runs across
//! sweep cells via `parallel_map`).
//!
//! The loop schedules in batches. Each core's clock is cached and
//! refreshed once after each of its ops. The loop picks the lowest
//! `(clock, index)` runnable core, notes the runner-up, and keeps stepping
//! the chosen core while its `(clock, index)` stays below the runner-up's.
//! Stepping one core moves no other core's clock, and under batch sharding
//! it changes no other core's runnability, so this is exactly the schedule
//! an op-at-a-time "re-pick the minimum" loop produces. Under pipeline
//! sharding a batch also ends when the core completes a stage instance,
//! since that can make the next stage's core runnable.
//!
//! Setup (weight packing, arena layout) is replayed per core through the
//! shared port to warm the shared L2 realistically, then excluded from
//! measurement by a global barrier: every core's `reset_timing()` plus the
//! port's `reset_stats()`, after which measured frames start at cycle 0 —
//! exactly the single-core methodology (§VI: setup excluded).
//!
//! ## The observatory
//!
//! * **Exact contention attribution** — every cycle a core waits on the
//!   shared port is charged to [`lva_isa::StallCause::Contention`]; per
//!   core, the stall breakdown still sums to total stall cycles (the PR 1
//!   contract). With one core the arbiter never delays anyone and the run
//!   is **bit-identical** to the single-core simulator (pinned by test).
//! * **Merged-stream Mattson cross-check** — a [`lva_sim::PortObserver`]
//!   feeds every shared-port transaction into a per-set LRU recency
//!   window; its reuse-distance hit prediction at the shared-L2 geometry
//!   must agree with the simulated shared-L2 hit rate (reported as
//!   [`MattsonCheck`]).
//! * **Multi-core Chrome timeline** — one trace-viewer *process* per core
//!   (layers, phases, per-cause stall tracks) plus shared-port bandwidth
//!   utilization and queue-depth counter tracks on the root process.

#![forbid(unsafe_code)]

use std::rc::Rc;

use lva_core::{CapturedRun, Experiment};
use lva_isa::{
    LayerRecord, Machine, ReplayCursor, ReplayOp, ReplayTrace, StallBreakdown, StallCause,
    StreamHasher,
};
use lva_prof::timeline_coarse;
use lva_sim::{MemSystemStats, SharedPort, SharedPortConfig, SharedPortHandle, SharedPortStats};
use lva_trace::ChromeTrace;

mod observe;
pub use observe::{BwSample, MeasuredProfile, PortProfile, ProfileHandle};

/// How the inference workload is partitioned across cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharding {
    /// Data parallelism: one whole frame per core, N frames in flight.
    Batch,
    /// Layer parallelism: contiguous layer stages, one per core; `2*N`
    /// frames flow through so fill/drain and steady state are both
    /// visible.
    Pipeline,
}

impl Sharding {
    pub fn name(self) -> &'static str {
        match self {
            Sharding::Batch => "batch",
            Sharding::Pipeline => "pipeline",
        }
    }

    /// Both strategies, in report order.
    pub const ALL: [Sharding; 2] = [Sharding::Batch, Sharding::Pipeline];
}

/// Configuration of one SoC simulation.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// Number of cores (≥ 1).
    pub n_cores: usize,
    pub sharding: Sharding,
    /// Counterfactual: infinitely-banked shared port (arbitration waits
    /// forced to zero). Scenario-level knob — it changes core clocks and
    /// hence the merged-stream interleaving, unlike `IdealSpec`'s
    /// timing-only knobs.
    pub infinite_shared_bw: bool,
    /// Record per-core pipeline events and emit the merged multi-process
    /// Chrome timeline (heavier; off for sweep grids).
    pub record_timeline: bool,
}

impl SocConfig {
    pub fn new(n_cores: usize, sharding: Sharding) -> Self {
        SocConfig { n_cores, sharding, infinite_shared_bw: false, record_timeline: false }
    }

    #[must_use]
    pub fn with_infinite_bw(mut self, on: bool) -> Self {
        self.infinite_shared_bw = on;
        self
    }

    #[must_use]
    pub fn with_timeline(mut self, on: bool) -> Self {
        self.record_timeline = on;
        self
    }
}

/// Merged-stream Mattson cross-check of the shared L2 (see crate docs).
///
/// The prediction is *set-aware*: one recency stack per L2 set, a
/// reference predicted to hit iff its within-set stack distance is below
/// the associativity. For the simulated L2 — set-associative, true LRU —
/// this specialization of Mattson's result is exact, so the check catches
/// any divergence between the observed merged stream and the cache's
/// actual update order (the committed scaling report gates it at 1%
/// absolute; in practice the error is 0).
#[derive(Debug, Clone, Copy)]
pub struct MattsonCheck {
    /// Per-set reuse-distance-predicted hit rate of the merged stream.
    pub predicted_hit_rate: f64,
    /// Hit rate the simulated shared L2 actually delivered.
    pub simulated_hit_rate: f64,
    /// Shared-port transactions profiled (the merged demand stream).
    pub transactions: u64,
}

impl MattsonCheck {
    /// Absolute prediction error.
    pub fn abs_error(&self) -> f64 {
        (self.predicted_hit_rate - self.simulated_hit_rate).abs()
    }
}

/// One core's measured-phase results.
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// Final local clock (cycles since the post-setup barrier).
    pub cycles: u64,
    /// Stall attribution, including [`StallCause::Contention`].
    pub stalls: StallBreakdown,
    /// Private hierarchy counters (the L2 row is cold: shared-L2 traffic
    /// lives in [`SocResult::port`]).
    pub mem: MemSystemStats,
    /// Cycles the core's clock was advanced waiting for an upstream
    /// pipeline stage (zero under batch sharding). Deliberately *not* a
    /// stall cause: the core issued nothing — it was idle, not stalled.
    pub pipeline_idle: u64,
    /// Frames (batch) or stage-instances (pipeline) this core completed.
    pub frames: usize,
    /// Layer range `[first, last)` of this core's pipeline stage (`None`
    /// under batch sharding).
    pub stage_layers: Option<(usize, usize)>,
    /// The core's layer book over the measured phase: one record per layer
    /// instance it ran, in order (contention included in each record's
    /// stalls).
    pub layers: Vec<LayerRecord>,
}

impl CoreResult {
    /// Fraction of this core's total stall cycles attributed to shared-port
    /// contention (0.0 when the core never stalled).
    pub fn contention_share(&self) -> f64 {
        let total = self.stalls.total();
        if total == 0 {
            0.0
        } else {
            self.stalls.get(StallCause::Contention) as f64 / total as f64
        }
    }
}

/// Results of one SoC simulation.
#[derive(Debug)]
pub struct SocResult {
    pub n_cores: usize,
    pub sharding: Sharding,
    pub infinite_shared_bw: bool,
    /// Per-core results, index = core id.
    pub cores: Vec<CoreResult>,
    /// Shared L2 + port counters over the measured phase.
    pub port: SharedPortStats,
    /// Frames completed by the whole SoC in the measured phase.
    pub frames: usize,
    /// Cycles from the post-setup barrier until the last core finished.
    pub makespan: u64,
    pub mattson: MattsonCheck,
    /// Shared-port bandwidth/queue samples over the measured phase
    /// (bucketed; also rendered as counter tracks on the timeline).
    pub bw_samples: Vec<BwSample>,
    /// Merged multi-process timeline (when
    /// [`SocConfig::record_timeline`]).
    pub timeline: Option<ChromeTrace>,
}

impl SocResult {
    /// SoC throughput in frames per kilocycle.
    pub fn frames_per_kcycle(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.frames as f64 * 1000.0 / self.makespan as f64
        }
    }

    /// Average cycles per frame at the SoC level.
    pub fn cycles_per_frame(&self) -> f64 {
        self.makespan as f64 / self.frames.max(1) as f64
    }

    /// Total contention stall cycles across cores.
    pub fn total_contention(&self) -> u64 {
        self.cores.iter().map(|c| c.stalls.get(StallCause::Contention)).sum()
    }

    /// Mean per-core contention share of stall cycles.
    pub fn mean_contention_share(&self) -> f64 {
        if self.cores.is_empty() {
            0.0
        } else {
            self.cores.iter().map(CoreResult::contention_share).sum::<f64>()
                / self.cores.len() as f64
        }
    }

    /// Order-independent digest of every timing-relevant field — two
    /// deterministic runs must agree byte-for-byte, pinned by hashing.
    pub fn digest(&self) -> u64 {
        let mut h = StreamHasher::new();
        h.write_u64(self.n_cores as u64);
        h.write_u64(self.frames as u64);
        h.write_u64(self.makespan);
        for c in &self.cores {
            h.write_u64(c.cycles);
            h.write_u64(c.pipeline_idle);
            for cause in StallCause::ALL {
                h.write_u64(c.stalls.get(cause));
            }
            h.write_u64(c.mem.l1.accesses);
            h.write_u64(c.mem.l1.misses);
            h.write_u64(c.mem.vcache.accesses);
            h.write_u64(c.mem.vcache.misses);
            h.write_u64(c.mem.dram_reads);
            h.write_u64(c.mem.dram_writes);
        }
        h.write_u64(self.port.l2.accesses);
        h.write_u64(self.port.l2.hits);
        h.write_u64(self.port.l2.misses);
        h.write_u64(self.port.l2.writebacks);
        for &w in &self.port.waits {
            h.write_u64(w);
        }
        for &s in &self.port.service_cycles {
            h.write_u64(s);
        }
        h.finish()
    }
}

/// Capture the experiment's op stream once, then run the SoC simulation.
///
/// Convenience over [`run_soc_captured`] — reuse one [`CapturedRun`] across
/// core counts and sharding strategies to amortize the capture.
pub fn run_soc(exp: &Experiment, cfg: &SocConfig) -> SocResult {
    let cap = exp.run_traced();
    run_soc_captured(exp, &cap, cfg)
}

/// Per-core state driven by the global event loop.
struct CoreState {
    m: Machine,
    /// `m.cycles()`, kept current by [`CoreState::step`] and
    /// [`CoreState::sync_clock`] so the scheduler never recomputes it.
    clock: u64,
    cur: ReplayCursor,
    /// Pipeline: current frame index; batch: 0 while the single frame runs.
    frame: usize,
    /// Pipeline: whether the current frame's stage has begun (the upstream
    /// dependency was consumed).
    started: bool,
    idle: u64,
    frames_done: usize,
}

impl CoreState {
    /// Replay the next op, then refresh the cached clock.
    fn step(&mut self, trace: &ReplayTrace) {
        self.m.replay_step(trace, &mut self.cur);
        self.sync_clock();
    }

    /// Refresh the cached clock after the machine's clock moved outside
    /// [`CoreState::step`].
    fn sync_clock(&mut self) {
        self.clock = self.m.cycles();
    }
}

/// The runnable core with the lowest `(clock, index)`, plus the runner-up's
/// `(clock, index)` (`None` when only one core is runnable).
fn pick(
    cores: &[CoreState],
    runnable: impl Fn(usize, &CoreState) -> bool,
) -> Option<(usize, Option<(u64, usize)>)> {
    let mut best: Option<(u64, usize)> = None;
    let mut second: Option<(u64, usize)> = None;
    for (i, c) in cores.iter().enumerate() {
        if !runnable(i, c) {
            continue;
        }
        let key = (c.clock, i);
        if best.is_none_or(|b| key < b) {
            second = best;
            best = Some(key);
        } else if second.is_none_or(|s| key < s) {
            second = Some(key);
        }
    }
    best.map(|(_, i)| (i, second))
}

/// Whether core `i`, now at `clock`, still precedes the runner-up.
fn still_first(clock: u64, i: usize, runner_up: Option<(u64, usize)>) -> bool {
    runner_up.is_none_or(|r| (clock, i) < r)
}

/// Replay `range` to completion on every core (setup, and batch frames).
fn run_uniform(cores: &mut [CoreState], trace: &ReplayTrace, range: (usize, usize)) {
    for c in cores.iter_mut() {
        c.cur = ReplayCursor::new(range.0, range.1);
    }
    while let Some((i, runner_up)) = pick(cores, |_, c| !c.cur.done()) {
        let c = &mut cores[i];
        loop {
            c.m.sys.set_port_now(c.clock);
            c.step(trace);
            if c.cur.done() {
                c.frames_done += 1;
                break;
            }
            if !still_first(c.clock, i, runner_up) {
                break;
            }
        }
    }
}

/// Run the layer-pipeline schedule: core `c` executes op range `stages[c]`
/// for each of `frames` frames, starting frame `f` only once core `c-1`
/// finished frame `f`.
fn run_pipeline(
    cores: &mut [CoreState],
    trace: &ReplayTrace,
    stages: &[(usize, usize)],
    frames: usize,
) {
    let n = cores.len();
    let mut done_at: Vec<Vec<u64>> = vec![Vec::with_capacity(frames); n];
    for c in cores.iter_mut() {
        c.frame = 0;
        c.started = false;
    }
    loop {
        let runnable = |i: usize, c: &CoreState| {
            c.frame < frames && (i == 0 || done_at[i - 1].len() > c.frame)
        };
        let Some((i, runner_up)) = pick(cores, runnable) else {
            assert!(
                cores.iter().all(|c| c.frame >= frames),
                "pipeline deadlock: no runnable core with frames outstanding"
            );
            break;
        };
        let c = &mut cores[i];
        if !c.started {
            if i > 0 {
                let ready = done_at[i - 1][c.frame];
                c.m.advance_to(ready);
                c.idle += ready.saturating_sub(c.clock);
                c.sync_clock();
            }
            c.cur = ReplayCursor::new(stages[i].0, stages[i].1);
            c.started = true;
        }
        loop {
            c.m.sys.set_port_now(c.clock);
            c.step(trace);
            if c.cur.done() {
                // A completed stage instance can make core `i+1` runnable:
                // end the batch and re-pick.
                done_at[i].push(c.clock);
                c.frame += 1;
                c.frames_done += 1;
                c.started = false;
                break;
            }
            if !still_first(c.clock, i, runner_up) {
                break;
            }
        }
    }
}

/// Index of the (single) `ResetTiming` boundary separating setup ops from
/// the measured frame.
fn setup_boundary(trace: &ReplayTrace) -> usize {
    let mut it = trace.ops.iter().enumerate().filter(|(_, op)| **op == ReplayOp::ResetTiming);
    let (rt, _) = it.next().expect("captured trace has a setup/measure boundary");
    assert!(it.next().is_none(), "expected a single-frame capture (one ResetTiming)");
    rt
}

/// Positions of the `LayerBegin` ops inside `range` (layers do not nest).
fn layer_begins(trace: &ReplayTrace, range: (usize, usize)) -> Vec<usize> {
    (range.0..range.1).filter(|&i| matches!(trace.ops[i], ReplayOp::LayerBegin { .. })).collect()
}

/// Greedy contiguous partition of `layer_cycles` into `n` non-empty stages,
/// balanced by single-core cycles: cut after the prefix whose cumulative
/// cost first reaches the stage's pro-rata share of the total.
fn partition_layers(layer_cycles: &[u64], n: usize) -> Vec<(usize, usize)> {
    let l = layer_cycles.len();
    assert!(n >= 1 && l >= n, "need at least as many layers ({l}) as pipeline stages ({n})");
    let total: u64 = layer_cycles.iter().sum();
    let mut stages = Vec::with_capacity(n);
    let mut start = 0usize;
    let mut cum = 0u64;
    for s in 0..n {
        let target = total * (s as u64 + 1) / n as u64;
        let mut end = start;
        while end < l {
            // Leave at least one layer for each remaining stage.
            if l - (end + 1) < n - s - 1 {
                break;
            }
            cum += layer_cycles[end];
            end += 1;
            if cum >= target && end > start {
                break;
            }
        }
        if end == start {
            // Ran out of slack: take exactly one layer.
            cum += layer_cycles[end];
            end += 1;
        }
        stages.push((start, end));
        start = end;
    }
    stages.last_mut().expect("n >= 1").1 = l;
    stages
}

/// Run the SoC simulation against an existing capture of `exp`.
///
/// # Panics
/// Panics if `cfg.n_cores == 0`, or under [`Sharding::Pipeline`] if the
/// capture has fewer layers than cores.
pub fn run_soc_captured(exp: &Experiment, cap: &CapturedRun, cfg: &SocConfig) -> SocResult {
    run_soc_with(exp, cap, cfg, &BATCHED)
}

/// Signature of [`run_uniform`].
type UniformLoop = fn(&mut [CoreState], &ReplayTrace, (usize, usize));
/// Signature of [`run_pipeline`].
type PipelineLoop = fn(&mut [CoreState], &ReplayTrace, &[(usize, usize)], usize);

/// The event loops one SoC run drives: setup and batch frames, and the
/// layer pipeline. Tests substitute a reference scheduler here.
struct Loops {
    uniform: UniformLoop,
    pipeline: PipelineLoop,
}

const BATCHED: Loops = Loops { uniform: run_uniform, pipeline: run_pipeline };

fn run_soc_with(exp: &Experiment, cap: &CapturedRun, cfg: &SocConfig, loops: &Loops) -> SocResult {
    assert!(cfg.n_cores >= 1, "SoC needs at least one core");
    let trace = &cap.trace;
    let rt = setup_boundary(trace);
    let frame = (rt + 1, trace.ops.len());

    // One shared L2 + DRAM port, same geometry the private L2 would have.
    let mut port_cfg =
        SharedPortConfig::for_line_bytes(cfg.n_cores, exp.hw.machine_config().mem.l2);
    port_cfg.infinite_bw = cfg.infinite_shared_bw;
    let profile = ProfileHandle::new(port_cfg.l2.sets(), port_cfg.l2.assoc);
    let mut port = SharedPort::new(port_cfg);
    port.set_observer(Box::new(profile.clone()));
    let port: SharedPortHandle = port.into_handle();

    let mut cores: Vec<CoreState> = (0..cfg.n_cores)
        .map(|c| {
            let mut m = exp.machine();
            m.sys.attach_shared_port(Rc::clone(&port), c);
            CoreState {
                m,
                clock: 0,
                cur: ReplayCursor::new(0, 0),
                frame: 0,
                started: false,
                idle: 0,
                frames_done: 0,
            }
        })
        .collect();

    // Phase A: every core replays setup through the shared port (warms the
    // shared L2 exactly as N cores loading weights would).
    (loops.uniform)(&mut cores, trace, (0, rt));

    // Global barrier: drop setup timing everywhere, keep cache contents.
    for c in &mut cores {
        // Drain setup-tail arbitration waits so they don't leak into the
        // measured phase's first instruction.
        let _ = c.m.sys.take_contention();
        c.m.reset_timing();
        c.sync_clock();
        c.frames_done = 0;
        if cfg.record_timeline {
            c.m.record_pipe_events();
        }
    }
    port.borrow_mut().reset_stats();
    profile.start_measure();

    // Phase B: measured frames.
    let (frames, stages) = match cfg.sharding {
        Sharding::Batch => {
            (loops.uniform)(&mut cores, trace, frame);
            (cfg.n_cores, None)
        }
        Sharding::Pipeline => {
            let begins = layer_begins(trace, frame);
            let layer_cycles: Vec<u64> =
                cap.summary.report.layers.iter().map(|l| l.cycles.max(1)).collect();
            assert_eq!(
                begins.len(),
                layer_cycles.len(),
                "trace layer count disagrees with the capture report"
            );
            let stages = partition_layers(&layer_cycles, cfg.n_cores);
            // Stage op ranges: stage 0 owns the pre-layer preamble, the
            // last stage owns the post-layer tail.
            let op_ranges: Vec<(usize, usize)> = stages
                .iter()
                .enumerate()
                .map(|(s, &(a, b))| {
                    let lo = if s == 0 { frame.0 } else { begins[a] };
                    let hi = if b == layer_cycles.len() { frame.1 } else { begins[b] };
                    (lo, hi)
                })
                .collect();
            let frames = 2 * cfg.n_cores;
            (loops.pipeline)(&mut cores, trace, &op_ranges, frames);
            (frames, Some(stages))
        }
    };

    let port_stats = port.borrow().stats();
    let makespan = cores.iter().map(|c| c.m.cycles()).max().unwrap_or(0);
    let measured = profile.finish();
    let (bw_samples, transactions) = (measured.bw, measured.transactions);
    let mattson = MattsonCheck {
        predicted_hit_rate: if transactions == 0 {
            0.0
        } else {
            measured.predicted_hits as f64 / transactions as f64
        },
        simulated_hit_rate: port_stats.l2.hit_rate(),
        transactions,
    };

    let timeline = cfg.record_timeline.then(|| {
        let resolution = makespan / 100_000;
        let mut root = ChromeTrace::new();
        root.note("sharding", cfg.sharding.name());
        root.note("cores", &cfg.n_cores.to_string());
        root.note("hw", &exp.hw.describe());
        for s in &bw_samples {
            root.counter("shared port", "bandwidth utilization", s.t, s.utilization);
            root.counter("shared port queue", "queue depth", s.t, f64::from(s.queue_depth));
        }
        for (i, c) in cores.iter_mut().enumerate() {
            // Pipeline stages are sliced at layer boundaries, so every
            // record in a core's book is closed.
            let events = c.m.take_pipe_events();
            let sub = timeline_coarse(&events, c.m.layers(), resolution);
            root.merge_process(i as u64 + 2, &format!("core{i}"), sub);
        }
        root
    });

    let cores = cores
        .into_iter()
        .enumerate()
        .map(|(i, c)| CoreResult {
            cycles: c.m.cycles(),
            stalls: c.m.stalls,
            mem: c.m.sys.stats(),
            pipeline_idle: c.idle,
            frames: c.frames_done,
            stage_layers: stages.as_ref().map(|s| s[i]),
            layers: c.m.layers().to_vec(),
        })
        .collect();

    SocResult {
        n_cores: cfg.n_cores,
        sharding: cfg.sharding,
        infinite_shared_bw: cfg.infinite_shared_bw,
        cores,
        port: port_stats,
        frames,
        makespan,
        mattson,
        bw_samples,
        timeline,
    }
}

#[cfg(test)]
mod tests;
