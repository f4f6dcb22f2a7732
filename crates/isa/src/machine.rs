//! The simulated machine: scalar core + VLA vector unit + memory hierarchy.
//!
//! All kernel code in this workspace is written against this API, in the
//! shape of the paper's pseudocode (Figs. 1–4): `setvl`/`whilelt`, vector
//! loads/stores, broadcast, `vfmacc`, software prefetch, and bulk-charged
//! scalar work for the non-vectorized baseline.
//!
//! ## Timing model
//!
//! * A front-end clock `now` advances by one cycle per issued vector
//!   instruction (plus explicitly charged scalar work).
//! * The vector unit is busy until `unit_free`; an instruction occupies it
//!   for its *chime* (`ceil(active/lanes)` for arithmetic, line-transfer plus
//!   exposed miss time for memory ops).
//! * Each destination register has a scoreboard entry `ready[r]`; an
//!   instruction cannot start before its sources are ready (in-order cores)
//!   or before `ready - ooo_window` (the A64FX-like out-of-order profile).
//!   Unrolling over independent accumulators therefore hides the
//!   `startup = pipe_depth + lanes` latency exactly as §IV-A describes.
//! * Vector memory operations charge the cache hierarchy per distinct line
//!   touched; miss latencies beyond the first-level hit overlap with a
//!   memory-level-parallelism factor `mlp`.

use crate::config::{IsaKind, MachineConfig};
use crate::pred::Pred;
use crate::replay::{
    indexed_range, r32, ArithShape, IndexedOp, MaccRows, ProbeTape, ReduceOp, ReplayOp,
    ReplayTrace, SegmentReplay, TapePlayer, TapeRecorder, VArithOp,
};
use crate::stats::{KernelPhase, PhaseTimer, StallBreakdown, StallCause, VpuStats};
use lva_sim::{
    AccessKind, IdealSpec, MemSystem, MemSystemStats, Memory, PrefetchTarget, TapScope, VpuPath,
};
use std::sync::Arc;

/// Number of architectural vector registers (both RVV and SVE have 32).
pub const NUM_VREGS: usize = 32;

/// One recorded pipeline-timeline event, in simulated cycles. Captured by
/// the opt-in recorder behind [`Machine::record_pipe_events`] and turned
/// into Chrome trace-event tracks by `lva-prof`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeEvent {
    /// A kernel phase opened at cycle `at`.
    PhaseBegin { phase: KernelPhase, at: u64 },
    /// The innermost open kernel phase closed at cycle `at`.
    PhaseEnd { phase: KernelPhase, at: u64 },
    /// The front end waited over `[start, end)`, attributed to `cause`.
    /// Intervals on the same cause never overlap and appear in
    /// non-decreasing start order (asserted by the exporter's validator).
    Stall { cause: StallCause, start: u64, end: u64 },
}

/// The machine's counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// [`Machine::cycles`].
    pub cycles: u64,
    pub stalls: StallBreakdown,
    pub vpu: VpuStats,
    /// The memory system's counters. A tape refit reads every probe's
    /// outcome from the tape and runs no hierarchy, so under one these do
    /// not move: they keep their values from the segment's start.
    pub mem: MemSystemStats,
}

/// One network layer in the machine's book, opened by
/// [`Machine::layer_begin`] and closed by [`Machine::layer_end`] — on a
/// live run, a replay and a SoC core alike. The layer's own counts are
/// `end` minus `begin`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRecord {
    pub index: usize,
    pub desc: String,
    /// The counters when the layer opened.
    pub begin: Counters,
    /// The counters when it closed (`begin` while it is still open).
    pub end: Counters,
}

impl LayerRecord {
    /// Cycles the layer took.
    pub fn cycles(&self) -> u64 {
        self.end.cycles - self.begin.cycles
    }

    /// Stall cycles incurred in the layer, by cause.
    pub fn stalls(&self) -> StallBreakdown {
        self.end.stalls.since(&self.begin.stalls)
    }

    /// VPU counts of the layer.
    pub fn vpu(&self) -> VpuStats {
        self.end.vpu.since(&self.begin.vpu)
    }
}

/// A vector register name (0..32).
pub type VReg = usize;

/// The simulated machine. See module docs.
pub struct Machine {
    cfg: MachineConfig,
    pub mem: Memory,
    pub sys: MemSystem,
    /// Register file: `NUM_VREGS * vlen_elems` elements, row per register.
    regs: Vec<f32>,
    vlen_elems: usize,
    now: u64,
    unit_free: u64,
    ready: [u64; NUM_VREGS],
    /// Maximum of `ready`, kept exact on every write so [`Machine::cycles`]
    /// costs three compares instead of a scan of the scoreboard.
    ready_max: u64,
    /// Fractional scalar cycles not yet committed to `now`.
    scalar_frac: f64,
    /// Recent missed lines (ring), for sequential-miss overlap on
    /// prefetching platforms: a miss on the next line of any recent miss
    /// stream is a *late prefetch* whose fill is already in flight.
    recent_misses: [u64; 8],
    recent_miss_pos: usize,
    /// Exposed-miss share of the occupancy of the *next* instruction to
    /// issue; set by the memory-cost helpers, consumed by [`Self::issue`].
    next_occ_mem: u64,
    /// Shared-port contention share of the next instruction's occupancy
    /// (multi-core SoC runs only; identically zero on a single core). Unlike
    /// `next_occ_mem` the port wait is serialized — it never divides by the
    /// memory-level parallelism.
    next_occ_cont: u64,
    /// Occupancy split of the last issued instruction (exposed-miss part /
    /// contention part / total), used to attribute the unit-busy wait of its
    /// successor.
    last_occ_mem: u64,
    last_occ_cont: u64,
    last_occ_total: u64,
    pub stats: VpuStats,
    pub phases: PhaseTimer,
    /// Per-cause attribution of every front-end stall cycle. Bookkeeping
    /// only: the timing model is identical whether anyone reads this.
    pub stalls: StallBreakdown,
    /// The layer book: one record per layer opened since the last
    /// [`Self::reset_timing`]. Pure observation — the timing model never
    /// reads it.
    layers: Vec<LayerRecord>,
    /// Open kernel phases, innermost last, with the cycle each opened at.
    open_phases: Vec<(KernelPhase, u64)>,
    /// Opt-in pipeline-interval recorder for the timeline exporter
    /// (`lva-prof`): kernel-phase boundaries and per-cause stall intervals
    /// in simulated cycles. Pure observation, exactly like `layers`.
    pipe: Option<Vec<PipeEvent>>,
    /// Events discarded after [`Self::MAX_PIPE_EVENTS`] was reached
    /// (reported by [`Self::pipe_events_dropped`], never silent).
    pipe_dropped: u64,
    /// Route vector memory ops through the retained per-element reference
    /// implementations instead of the coalesced fast paths. The reference
    /// path is the pre-coalescing code, kept so equivalence tests can prove
    /// the fast paths bit-identical in cycles, stats, and register contents.
    ref_model: bool,
    /// Opt-in semantic replay log (the capture hook): every public op
    /// appends one [`ReplayOp`] with the arguments its timing depends on.
    /// Replays re-execute it; the kernel linters decode their
    /// [`crate::VecEvent`] streams from it. Pure observation, exactly like
    /// `layers`.
    rlog: Option<ReplayTrace>,
    /// Opt-in probe-tape recorder: stores the serving level of every cache
    /// probe so later refits can skip the cache arrays. Pure observation.
    tape_rec: Option<TapeRecorder>,
    /// Probe-tape playback: when set, cache probes read serving levels from
    /// the tape instead of touching `sys`'s cache arrays, and latencies are
    /// computed by [`MemSystem::served_latency`]. Only installed by the
    /// replay executor; never active on a live machine.
    tape_play: Option<TapePlayer>,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        let vlen_elems = cfg.vpu.vlen_elems();
        let mut sys = MemSystem::new(cfg.mem.clone());
        sys.set_ideal(cfg.ideal);
        Machine {
            mem: Memory::new(),
            sys,
            regs: vec![0.0; NUM_VREGS * vlen_elems],
            vlen_elems,
            now: 0,
            unit_free: 0,
            ready: [0; NUM_VREGS],
            ready_max: 0,
            scalar_frac: 0.0,
            recent_misses: [u64::MAX - 1; 8],
            recent_miss_pos: 0,
            next_occ_mem: 0,
            next_occ_cont: 0,
            last_occ_mem: 0,
            last_occ_cont: 0,
            last_occ_total: 0,
            stats: VpuStats::default(),
            phases: PhaseTimer::default(),
            stalls: StallBreakdown::default(),
            layers: Vec::new(),
            open_phases: Vec::new(),
            pipe: None,
            pipe_dropped: 0,
            ref_model: false,
            rlog: None,
            tape_rec: None,
            tape_play: None,
            cfg,
        }
    }

    /// Switch vector memory ops to the per-element reference implementations
    /// (slow, used by the coalescing-equivalence tests). Timing, statistics,
    /// and functional state are identical on both paths by construction —
    /// that identity is what the `stream_equivalence` test suite pins.
    pub fn set_reference_model(&mut self, on: bool) {
        self.ref_model = on;
    }

    /// Whether the per-element reference model is active.
    pub fn is_reference_model(&self) -> bool {
        self.ref_model
    }

    /// Select counterfactual idealization knobs (`lva-whatif`). Timing-only:
    /// functional state, cache state transitions, statistics, and captured
    /// replay traces are bit-identical to the factual machine under any
    /// spec; with [`IdealSpec::NONE`] cycle counts are bit-identical too —
    /// pinned the same way [`Self::set_reference_model`] is.
    pub fn set_ideal(&mut self, spec: IdealSpec) {
        self.cfg.ideal = spec;
        self.sys.set_ideal(spec);
    }

    /// The active idealization spec.
    pub fn ideal(&self) -> IdealSpec {
        self.cfg.ideal
    }

    // ------------------------------------------------------------------
    // Pipeline-interval recording (the `lva-prof` timeline hook)
    // ------------------------------------------------------------------

    /// Upper bound on buffered pipeline events. Full-network runs at the
    /// default experiment scales stay well under it; a run that exceeds it
    /// keeps the prefix and counts the overflow instead of growing without
    /// bound.
    pub const MAX_PIPE_EVENTS: usize = 4 << 20;

    /// Start recording pipeline-timeline events (clears any previous
    /// recording). Timing-neutral: the model never reads the buffer.
    pub fn record_pipe_events(&mut self) {
        self.pipe = Some(Vec::new());
        self.pipe_dropped = 0;
    }

    /// Whether pipeline-interval recording is active.
    pub fn is_recording_pipe(&self) -> bool {
        self.pipe.is_some()
    }

    /// Stop recording and return the captured pipeline events.
    pub fn take_pipe_events(&mut self) -> Vec<PipeEvent> {
        self.pipe.take().unwrap_or_default()
    }

    /// Events dropped by the [`Self::MAX_PIPE_EVENTS`] cap in the current /
    /// latest recording (0 in any realistic run).
    pub fn pipe_events_dropped(&self) -> u64 {
        self.pipe_dropped
    }

    /// Append a pipeline event if recording is on (closure only runs when
    /// enabled; one branch otherwise).
    #[inline]
    fn pipe(&mut self, f: impl FnOnce() -> PipeEvent) {
        if let Some(events) = self.pipe.as_mut() {
            if events.len() < Self::MAX_PIPE_EVENTS {
                events.push(f());
            } else {
                self.pipe_dropped += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Semantic replay log + probe tape (the `lva-retime` hooks)
    // ------------------------------------------------------------------

    /// Start capturing the semantic replay log (clears any previous
    /// capture). A capture that will be tape-refitted also records the
    /// probe tape ([`Self::record_probe_tape`]). Pure observation: timing,
    /// statistics, and functional state are bit-identical with capturing on
    /// or off.
    pub fn start_capture(&mut self) {
        self.rlog = Some(ReplayTrace::default());
    }

    /// Stop capturing and return the semantic trace. `None` if no capture
    /// was active. A probe tape recorded alongside stays on until
    /// [`Self::take_probe_tape`].
    pub fn finish_capture(&mut self) -> Option<ReplayTrace> {
        let mut trace = self.rlog.take()?;
        trace.shrink_to_fit();
        Some(trace)
    }

    /// Start recording the probe tape, the serving level of every cache
    /// probe (alongside a capture, or during a live replay, to make later
    /// same-geometry refits possible). Clears any previous tape.
    pub fn record_probe_tape(&mut self) {
        self.tape_rec = Some(TapeRecorder {
            tape: ProbeTape { geometry: self.cfg.mem.state_fingerprint(), ..ProbeTape::default() },
        });
    }

    /// Stop tape recording and return the tape with its final segment
    /// closed on the current `sys` statistics.
    pub fn take_probe_tape(&mut self) -> Option<ProbeTape> {
        let mut rec = self.tape_rec.take()?;
        rec.end_segment(self.sys.stats());
        rec.tape.shrink_to_fit();
        Some(rec.tape)
    }

    /// Install a probe tape for refit playback. Fails (leaving the machine
    /// untouched) unless the tape's state-geometry fingerprint matches this
    /// machine's memory system — the refit validity condition.
    pub fn play_probe_tape(&mut self, tape: Arc<ProbeTape>) -> Result<(), String> {
        let mine = self.cfg.mem.state_fingerprint();
        if tape.geometry != mine {
            return Err(format!(
                "probe tape geometry mismatch: tape recorded at [{}], machine is [{mine}]",
                tape.geometry
            ));
        }
        self.tape_play = Some(TapePlayer { tape, cursor: 0, seg: 0 });
        Ok(())
    }

    /// Append a semantic op if capturing (closure only runs when enabled).
    #[inline]
    fn rlog(&mut self, f: impl FnOnce() -> ReplayOp) {
        if let Some(log) = self.rlog.as_mut() {
            log.ops.push(f());
        }
    }

    /// Probe the memory system for a scalar access, honoring tape playback
    /// and tape recording. Returns the access latency in cycles.
    #[inline]
    fn probe_scalar(&mut self, addr: u64, kind: AccessKind) -> u32 {
        if let Some(tp) = self.tape_play.as_mut() {
            let lvl = tp.next_level();
            return self.sys.served_latency(lvl, false);
        }
        let (lvl, lat) = self.sys.demand_scalar(addr, kind);
        if let Some(tr) = self.tape_rec.as_mut() {
            tr.tape.levels.push(lvl.to_u8());
        }
        lat
    }

    /// Probe the memory system for a vector access (see
    /// [`Self::probe_scalar`]). `train` gates hardware-prefetcher training,
    /// exactly as [`MemSystem::demand_vector_opts`] does.
    #[inline]
    fn probe_vector(&mut self, addr: u64, kind: AccessKind, train: bool) -> u32 {
        if let Some(tp) = self.tape_play.as_mut() {
            let lvl = tp.next_level();
            return self.sys.served_latency(lvl, true);
        }
        let (lvl, lat) = self.sys.demand_vector_opts(addr, kind, train);
        if let Some(tr) = self.tape_rec.as_mut() {
            tr.tape.levels.push(lvl.to_u8());
        }
        lat
    }

    /// Hard bounds check for a vector memory access: the byte range
    /// `[lo, hi)` must lie inside the allocated arena. Panics with the
    /// offending op, address, `vl`, and the nearest buffer's name instead of
    /// an index panic deep inside [`Memory`].
    #[inline]
    fn check_vec(&self, op: &str, lo: u64, hi: u64, vl: usize) {
        if let Err(why) = self.mem.check_range(lo, hi) {
            panic!("{op} (vl={vl}) out of range: {why}");
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Hardware vector length in single-precision elements.
    #[inline]
    pub fn vlen_elems(&self) -> usize {
        self.vlen_elems
    }

    /// Current cycle count: the time at which all issued work has completed.
    pub fn cycles(&self) -> u64 {
        self.now.max(self.unit_free).max(self.ready_max)
    }

    /// The machine's counters now.
    fn counters(&self) -> Counters {
        Counters {
            cycles: self.cycles(),
            stalls: self.stalls,
            vpu: self.stats,
            mem: self.sys.stats(),
        }
    }

    /// The layer book: one record per layer opened since the last
    /// [`Self::reset_timing`], in opening order.
    pub fn layers(&self) -> &[LayerRecord] {
        &self.layers
    }

    /// Reset the clock, scoreboard and statistics, and start a fresh layer
    /// book (cache contents survive, like the paper's exclusion of the
    /// network-setup phase).
    pub fn reset_timing(&mut self) {
        self.rlog(|| ReplayOp::ResetTiming);
        if let Some(tr) = self.tape_rec.as_mut() {
            // Snapshot the segment's stats before they are zeroed below.
            tr.end_segment(self.sys.stats());
        }
        self.now = 0;
        self.unit_free = 0;
        self.ready = [0; NUM_VREGS];
        self.ready_max = 0;
        self.scalar_frac = 0.0;
        self.next_occ_mem = 0;
        self.next_occ_cont = 0;
        self.last_occ_mem = 0;
        self.last_occ_cont = 0;
        self.last_occ_total = 0;
        self.stats = VpuStats::default();
        self.phases = PhaseTimer::default();
        self.stalls = StallBreakdown::default();
        self.sys.reset_stats();
        self.layers.clear();
        self.open_phases.clear();
    }

    /// Run `f` attributing its cycles to kernel phase `p` (§II-B breakdown).
    /// When tracing is enabled, the phase is also emitted as a span with its
    /// simulated cycle delta attached.
    pub fn phase<R>(&mut self, p: KernelPhase, f: impl FnOnce(&mut Self) -> R) -> R {
        let mut sp = lva_trace::span(p.name());
        self.phase_begin(p);
        let r = f(self);
        sp.set("cycles", self.phase_end(p));
        r
    }

    /// Open kernel phase `p`: forwards the boundary to the replay log, the
    /// pipeline recorder and the address-stream tap, and pushes it on the
    /// open-phase stack. Live ops (through [`Self::phase`]) and both replay
    /// executors call this.
    fn phase_begin(&mut self, p: KernelPhase) {
        self.rlog(|| ReplayOp::PhaseBegin { phase: p });
        let t0 = self.cycles();
        self.pipe(|| PipeEvent::PhaseBegin { phase: p, at: t0 });
        self.sys.tap_scope(TapScope::PhaseBegin { name: p.name() });
        self.open_phases.push((p, t0));
    }

    /// Close the innermost open kernel phase, `p`, charge its cycles to the
    /// phase timer and return them.
    ///
    /// # Panics
    /// Panics if no phase is open.
    fn phase_end(&mut self, p: KernelPhase) -> u64 {
        self.rlog(|| ReplayOp::PhaseEnd { phase: p });
        let t1 = self.cycles();
        self.pipe(|| PipeEvent::PhaseEnd { phase: p, at: t1 });
        self.sys.tap_scope(TapScope::PhaseEnd);
        let (open, t0) = self.open_phases.pop().expect("phase_end without an open phase");
        debug_assert_eq!(open, p, "mismatched phase nesting");
        self.phases.add(p, t1 - t0);
        t1 - t0
    }

    /// Open network layer `index` (`lva-nn` calls this around each layer's
    /// kernels; layers do not nest): forwards the boundary to the replay
    /// log and the address-stream tap, and opens the layer's record in the
    /// book.
    pub fn layer_begin(&mut self, index: usize, desc: &str) {
        if let Some(log) = self.rlog.as_mut() {
            log.push_layer_begin(index, desc);
        }
        let now = self.counters();
        self.layers.push(LayerRecord { index, desc: desc.to_string(), begin: now, end: now });
        self.sys.tap_scope(TapScope::LayerBegin { index, desc });
    }

    /// Close the open network layer's record.
    ///
    /// # Panics
    /// Panics if no layer was opened since the last [`Self::reset_timing`].
    pub fn layer_end(&mut self) {
        self.rlog(|| ReplayOp::LayerEnd);
        let now = self.counters();
        self.layers.last_mut().expect("layer_end without an open layer").end = now;
        self.sys.tap_scope(TapScope::LayerEnd);
    }

    // ------------------------------------------------------------------
    // Register file access (functional state)
    // ------------------------------------------------------------------

    /// Read-only view of register `r` (full hardware length).
    #[inline]
    pub fn vreg(&self, r: VReg) -> &[f32] {
        debug_assert!(r < NUM_VREGS);
        &self.regs[r * self.vlen_elems..(r + 1) * self.vlen_elems]
    }

    /// Two distinct registers, the first mutable (for `vd op= vs` forms).
    #[inline]
    fn vreg_pair(&mut self, vd: VReg, vs: VReg) -> (&mut [f32], &[f32]) {
        debug_assert!(vd != vs, "vd must differ from vs");
        let n = self.vlen_elems;
        if vd < vs {
            let (lo, hi) = self.regs.split_at_mut(vs * n);
            (&mut lo[vd * n..(vd + 1) * n], &hi[..n])
        } else {
            let (lo, hi) = self.regs.split_at_mut(vd * n);
            (&mut hi[..n], &lo[vs * n..(vs + 1) * n])
        }
    }

    /// Destination row mutable plus two source rows (`vd op= va ∘ vb`
    /// forms). `vd` must differ from both sources; `va` may equal `vb`.
    /// Handing out plain slices lets the lane loops run without per-element
    /// bounds checks, which is what allows them to auto-vectorize.
    #[inline]
    fn vreg_tri(&mut self, vd: VReg, va: VReg, vb: VReg) -> (&mut [f32], &[f32], &[f32]) {
        debug_assert!(vd != va && vd != vb);
        let n = self.vlen_elems;
        let (lo, rest) = self.regs.split_at_mut(vd * n);
        let (d, hi) = rest.split_at_mut(n);
        let (lo, hi): (&[f32], &[f32]) = (lo, hi);
        let row = |r: VReg| {
            if r < vd {
                &lo[r * n..(r + 1) * n]
            } else {
                &hi[(r - vd - 1) * n..(r - vd) * n]
            }
        };
        (d, row(va), row(vb))
    }

    // ------------------------------------------------------------------
    // Timing primitives
    // ------------------------------------------------------------------

    /// Commit the whole cycles of `scalar_frac` into the front-end clock,
    /// keeping the fraction. The whole part truncates through `i64`, one
    /// instruction each way on x86-64 where `u64` takes several; the two
    /// give the same integer below 2⁶³ cycles, so the subtraction is the
    /// same.
    #[inline]
    fn commit_scalar(&mut self) {
        let frac = self.scalar_frac;
        if frac >= 1.0 {
            let whole = frac as i64;
            self.now += whole as u64;
            self.scalar_frac = frac - whole as f64;
        }
    }

    /// Source readiness as seen by the issue stage (OoO window applies).
    #[inline]
    fn src_ready(&self, r: VReg) -> u64 {
        self.ready[r].saturating_sub(self.cfg.core.ooo_window)
    }

    // Effective timing parameters under the active [`IdealSpec`]. Each is
    // the identity with its knob off, so the factual machine's arithmetic is
    // untouched; with the knob on the parameter takes its idealized value.
    // All five only ever shrink a cost — that componentwise inequality is
    // what makes every idealization cycle-monotone (DESIGN.md §13).

    /// `startup()` — 0 under `zero_vector_startup`.
    #[inline]
    fn eff_startup(&self) -> u64 {
        if self.cfg.ideal.zero_vector_startup {
            0
        } else {
            self.cfg.vpu.startup()
        }
    }

    /// Pipeline-depth share of memory result latency — 0 under
    /// `zero_vector_startup` (the fill depth is the startup the knob removes).
    #[inline]
    fn eff_pipe_depth(&self) -> u64 {
        if self.cfg.ideal.zero_vector_startup {
            0
        } else {
            self.cfg.vpu.pipe_depth as u64
        }
    }

    /// `chime(vl)` — 1 under `infinite_lanes`.
    #[inline]
    fn eff_chime(&self, vl: usize) -> u64 {
        if self.cfg.ideal.infinite_lanes {
            1
        } else {
            self.cfg.vpu.chime(vl)
        }
    }

    /// A lane-throughput occupancy term (bus transfers, per-element
    /// gather/scatter slots, permutes) — collapses to 1 cycle under
    /// `infinite_lanes`. Exposed miss time is never routed through here.
    #[inline]
    fn eff_throughput(&self, cycles: u64) -> u64 {
        if self.cfg.ideal.infinite_lanes {
            cycles.min(1)
        } else {
            cycles
        }
    }

    /// `inter_instr_gap` — 0 under `infinite_issue`.
    #[inline]
    fn eff_gap(&self) -> u64 {
        if self.cfg.ideal.infinite_issue {
            0
        } else {
            self.cfg.vpu.inter_instr_gap as u64
        }
    }

    /// Issue one vector instruction.
    ///
    /// `occupancy`: cycles the vector unit stays busy; `result_latency`:
    /// cycles from start until `dst` (if any) is ready.
    ///
    /// Every timing half runs this once per vector op, so it is inlined
    /// into each, stall attribution included: the constant source list
    /// folds away and nothing crosses the stack. What would make it large
    /// stays out of line and cold — the scoreboard rescan and the pipe
    /// recorder's stall intervals.
    #[inline(always)]
    fn issue(
        &mut self,
        srcs: [Option<VReg>; 2],
        dst: Option<VReg>,
        occupancy: u64,
        result_latency: u64,
    ) {
        self.commit_scalar();
        let t0 = self.now;
        let unit_start = t0.max(self.unit_free);
        let mut start = unit_start;
        for s in srcs.into_iter().flatten() {
            start = start.max(self.src_ready(s));
        }
        self.attribute_stall(t0, unit_start, start, occupancy);
        self.unit_free = start + occupancy + self.eff_gap();
        if let Some(d) = dst {
            self.set_ready(d, start + result_latency.max(occupancy));
        }
        self.now = start;
        self.scalar_frac += self.cfg.core.issue_cycles;
        self.stats.vec_instrs += 1;
    }

    /// Write one scoreboard entry, keeping `ready_max` exact. Overwriting
    /// the maximum with an earlier time (a WAW on the latest-ready
    /// register) rescans.
    #[inline]
    fn set_ready(&mut self, r: VReg, t: u64) {
        let old = std::mem::replace(&mut self.ready[r], t);
        if t >= self.ready_max {
            self.ready_max = t;
        } else if old == self.ready_max {
            self.rescan_ready_max();
        }
    }

    /// Recompute `ready_max` from the whole scoreboard. Cold: kernels
    /// overwrite their latest-ready register with an earlier time rarely,
    /// and the unrolled 32-entry scan would otherwise bloat every issue.
    #[cold]
    #[inline(never)]
    fn rescan_ready_max(&mut self) {
        self.ready_max = self.ready.iter().copied().max().unwrap_or(0);
    }

    /// Attribute the wait of one issue to stall causes. Pure bookkeeping:
    /// called with the already-computed issue times, it never changes them.
    ///
    /// The wait decomposes exactly into two windows:
    /// `[t0, unit_start)` — the vector unit was still busy. Its tail is the
    /// fixed `inter_instr_gap` (IssueWidth); the rest is the previous
    /// instruction's occupancy, split between its exposed cache-miss share
    /// (MemLatency) and chime/lane work (LaneOccupancy) in proportion.
    /// `[unit_start, start)` — sources were not ready: up to one pipeline
    /// `startup()` is the vector-startup ramp (VectorStartup), anything
    /// beyond is dependency latency the window could not hide (RawHazard).
    #[inline(always)]
    fn attribute_stall(&mut self, t0: u64, unit_start: u64, start: u64, occupancy: u64) {
        let unit_busy = unit_start - t0;
        let gap = unit_busy.min(self.eff_gap());
        let occ_wait = unit_busy - gap;
        // `last_occ_mem == 0` (pure-compute predecessor, the common case) or
        // an empty occupancy wait makes the proportional split trivially 0 —
        // skip the integer division on that path. Same guard for the
        // contention share, which doubles as the single-core bit-identity
        // argument: with no shared port it is always zero and this path
        // computes exactly what it always did.
        let mem = if self.last_occ_mem == 0 || occ_wait == 0 {
            0
        } else {
            (occ_wait * self.last_occ_mem).checked_div(self.last_occ_total).unwrap_or(0)
        };
        let cont = if self.last_occ_cont == 0 || occ_wait == 0 {
            0
        } else {
            (occ_wait * self.last_occ_cont).checked_div(self.last_occ_total).unwrap_or(0)
        };
        let raw_wait = start - unit_start;
        let ramp = raw_wait.min(self.eff_startup());
        self.stalls.add(StallCause::IssueWidth, gap);
        self.stalls.add(StallCause::MemLatency, mem);
        self.stalls.add(StallCause::Contention, cont);
        self.stalls.add(StallCause::LaneOccupancy, occ_wait - mem - cont);
        self.stalls.add(StallCause::VectorStartup, ramp);
        self.stalls.add(StallCause::RawHazard, raw_wait - ramp);
        self.stalls.note_total(start - t0);
        if self.pipe.is_some() && start > t0 {
            // Chronologically the occupancy wait fills [t0, unit_start - gap)
            // with the proportional mem/contention/lane split in that order,
            // then the gap, then the operand wait.
            self.pipe_stalls(
                t0,
                &[
                    (StallCause::MemLatency, mem),
                    (StallCause::Contention, cont),
                    (StallCause::LaneOccupancy, occ_wait - mem - cont),
                    (StallCause::IssueWidth, gap),
                    (StallCause::VectorStartup, ramp),
                    (StallCause::RawHazard, raw_wait - ramp),
                ],
            );
        }
        self.last_occ_mem = std::mem::take(&mut self.next_occ_mem).min(occupancy);
        // Clamp so `mem + cont ≤ total` and the proportional split above can
        // never over-attribute the occupancy wait.
        self.last_occ_cont =
            std::mem::take(&mut self.next_occ_cont).min(occupancy - self.last_occ_mem);
        self.last_occ_total = occupancy;
    }

    /// Record one front-end wait as back-to-back stall intervals starting
    /// at cycle `t0`: each nonzero `(cause, cycles)` part in order, the
    /// next starting where the last ended. The pipe recorder's only stall
    /// emitter. Cold: it runs only while a timeline is being recorded, so
    /// keeping it out of line keeps the issue stage small enough to inline.
    #[cold]
    #[inline(never)]
    fn pipe_stalls(&mut self, t0: u64, parts: &[(StallCause, u64)]) {
        let mut at = t0;
        for &(cause, cycles) in parts {
            if cycles > 0 {
                self.pipe(|| PipeEvent::Stall { cause, start: at, end: at + cycles });
                at += cycles;
            }
        }
    }

    /// Attribute the front-end wait for a scalar result consumed from the
    /// vector unit (reductions): the startup ramp plus dependency latency.
    #[inline]
    fn attribute_consume_wait(&mut self, lat: u64) {
        let ramp = lat.min(self.eff_startup());
        self.stalls.add(StallCause::VectorStartup, ramp);
        self.stalls.add(StallCause::RawHazard, lat - ramp);
        self.stalls.note_total(lat);
        if self.pipe.is_some() {
            // Called after `now` advanced past the wait: it covered [now-lat, now).
            self.pipe_stalls(
                self.now - lat,
                &[(StallCause::VectorStartup, ramp), (StallCause::RawHazard, lat - ramp)],
            );
        }
    }

    /// Miss-latency adjustment: on platforms with a hardware prefetcher, a
    /// miss whose line directly follows the previous missed line is a late
    /// prefetch — most of its fill latency is already in flight — so only a
    /// quarter of it is exposed.
    #[inline]
    fn miss_extra(&mut self, line: u64, raw_extra: u64) -> u64 {
        let seq = self.recent_misses.iter().any(|&m| line == m.wrapping_add(1));
        self.recent_misses[self.recent_miss_pos] = line;
        self.recent_miss_pos = (self.recent_miss_pos + 1) % self.recent_misses.len();
        if seq && self.cfg.mem.hw_prefetch.is_some() {
            raw_extra / 4
        } else {
            raw_extra
        }
    }

    /// Aggregate the cache cost of one vector memory instruction.
    ///
    /// Returns `(occupancy, result_latency)` for [`Self::issue`]. Visits
    /// each line in `lines` (byte addresses, one representative per line).
    #[inline]
    fn mem_instr_cost<I: Iterator<Item = u64>>(
        &mut self,
        lines: I,
        kind: AccessKind,
        bytes: u64,
    ) -> (u64, u64) {
        let vpu = self.cfg.vpu;
        let base_lat = match self.cfg.mem.vpu_path {
            VpuPath::ThroughL1 => self.cfg.mem.l1.hit_latency,
            VpuPath::DecoupledL2 { .. } => 2,
        } as u64;
        let mut extra: u64 = 0;
        let mut n_lines: u64 = 0;
        let lb = self.sys.line_bytes() as u64;
        for addr in lines {
            let lat = self.probe_vector(addr, kind, true);
            let raw = (lat as u64).saturating_sub(base_lat);
            extra += if raw > 0 { self.miss_extra(addr / lb, raw) } else { 0 };
            n_lines += 1;
        }
        // Long accesses expose more line fills to overlap: effective MLP
        // grows with the number of lines in flight (capped).
        let eff_mlp = (vpu.mlp as u64).max(n_lines / 2).min(8);
        let exposed = extra / eff_mlp;
        // Shared-port arbitration waits (multi-core SoC runs; always zero on
        // a single core) are serialized transfers: they extend the occupancy
        // un-divided by MLP.
        let cont = self.sys.take_contention();
        let tx = bytes.div_ceil(vpu.bus_bytes as u64);
        let occ = self.eff_throughput(tx) + exposed + cont;
        let lat = self.eff_pipe_depth() + base_lat + occ;
        self.next_occ_mem = exposed;
        self.next_occ_cont = cont;
        (occ.max(1), lat)
    }

    // ------------------------------------------------------------------
    // Vector length / predication
    // ------------------------------------------------------------------

    /// RVV `vsetvl`: granted vector length for a requested `rvl` elements.
    #[inline]
    pub fn setvl(&mut self, rvl: usize) -> usize {
        self.rlog(|| ReplayOp::Setvl { rvl: r32(rvl as u64, "setvl rvl") });
        self.tl_setvl(rvl)
    }

    /// Timing half of [`Self::setvl`] (shared with the replay executor):
    /// the scalar-op charge and the grant.
    #[inline]
    fn tl_setvl(&mut self, rvl: usize) -> usize {
        self.scalar_ops_tl(1);
        rvl.min(self.vlen_elems)
    }

    /// SVE `whilelt`: predicate for lanes `i..n`.
    #[inline]
    pub fn whilelt(&mut self, i: usize, n: usize) -> Pred {
        let rem = n.saturating_sub(i);
        self.rlog(|| ReplayOp::Whilelt { rem: r32(rem as u64, "whilelt n - i") });
        self.tl_whilelt(rem)
    }

    /// Timing half of [`Self::whilelt`] (shared with the replay executor),
    /// for `rem = n - i` lanes still to go.
    #[inline]
    fn tl_whilelt(&mut self, rem: usize) -> Pred {
        self.scalar_ops_tl(1);
        Pred::whilelt(0, rem, self.vlen_elems)
    }

    // ------------------------------------------------------------------
    // Vector memory operations
    // ------------------------------------------------------------------

    /// Unit-stride vector load of `vl` elements from byte address `addr`.
    pub fn vle(&mut self, vd: VReg, addr: u64, vl: usize) {
        debug_assert!(vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        self.check_vec("vle", addr, addr + 4 * vl as u64, vl);
        self.rlog(|| ReplayOp::VLoad { vd: vd as u8, vl: vl as u16, addr: r32(addr, "vle addr") });
        // Functional.
        let n = self.vlen_elems;
        if self.ref_model {
            // Reference path: one scalar arena read per element.
            for i in 0..vl {
                let v = self.mem.read_addr(addr + 4 * i as u64);
                self.regs[vd * n + i] = v;
            }
        } else {
            // Copy out of memory into the register row. Split borrows: the
            // register file and arena are distinct fields.
            let words = self.mem.words(addr, vl);
            let dst = &mut self.regs[vd * n..vd * n + vl];
            dst.copy_from_slice(words);
        }
        self.tl_vle(vd, addr, vl);
    }

    /// Timing half of [`Self::vle`] (shared with the replay executor).
    fn tl_vle(&mut self, vd: VReg, addr: u64, vl: usize) {
        let lb = self.sys.line_bytes() as u64;
        let first = addr / lb;
        let last = (addr + 4 * vl as u64 - 1) / lb;
        let (occ, lat) = self.mem_instr_cost(
            (first..=last).map(move |l| l * lb),
            AccessKind::Read,
            4 * vl as u64,
        );
        self.issue([None, None], Some(vd), occ, lat);
        self.stats.vec_mem_instrs += 1;
        self.stats.active_elems += vl as u64;
    }

    /// Unit-stride vector store of `vl` elements to byte address `addr`.
    pub fn vse(&mut self, vs: VReg, addr: u64, vl: usize) {
        debug_assert!(vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        self.check_vec("vse", addr, addr + 4 * vl as u64, vl);
        self.rlog(|| ReplayOp::VStore { vs: vs as u8, vl: vl as u16, addr: r32(addr, "vse addr") });
        let n = self.vlen_elems;
        if self.ref_model {
            for i in 0..vl {
                let v = self.regs[vs * n + i];
                self.mem.write_addr(addr + 4 * i as u64, v);
            }
        } else {
            let reg_row = vd_row(&self.regs, vs, n, vl);
            self.mem.words_mut(addr, vl).copy_from_slice(reg_row);
        }
        self.tl_vse(vs, addr, vl);
    }

    /// Timing half of [`Self::vse`] (shared with the replay executor).
    fn tl_vse(&mut self, vs: VReg, addr: u64, vl: usize) {
        let lb = self.sys.line_bytes() as u64;
        let first = addr / lb;
        let last = (addr + 4 * vl as u64 - 1) / lb;
        let (occ, _lat) = self.mem_instr_cost(
            (first..=last).map(move |l| l * lb),
            AccessKind::Write,
            4 * vl as u64,
        );
        // Stores retire through the store buffer: they occupy the unit but
        // the source register is already available; no new result.
        self.issue([Some(vs), None], None, occ, occ);
        self.stats.vec_mem_instrs += 1;
        self.stats.active_elems += vl as u64;
    }

    /// Strided vector load: element `i` comes from `addr + i * stride_bytes`.
    pub fn vlse(&mut self, vd: VReg, addr: u64, stride_bytes: u64, vl: usize) {
        debug_assert!(vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        let hi = addr + (vl as u64 - 1) * stride_bytes + 4;
        self.check_vec("vlse", addr, hi, vl);
        if let Some(log) = self.rlog.as_mut() {
            let (addr, stride) = (r32(addr, "vlse addr"), r32(stride_bytes, "vlse stride"));
            log.push_strided(false, vd as u8, vl as u16, addr, stride);
        }
        let n = self.vlen_elems;
        if self.ref_model || !stride_bytes.is_multiple_of(4) {
            for i in 0..vl {
                let v = self.mem.read_addr(addr + i as u64 * stride_bytes);
                self.regs[vd * n + i] = v;
            }
        } else if stride_bytes == 0 {
            let v = self.mem.read_addr(addr);
            self.regs[vd * n..vd * n + vl].fill(v);
        } else {
            // One arena borrow spanning the whole access, stepped per lane.
            let step = (stride_bytes / 4) as usize;
            let words = self.mem.words(addr, (vl - 1) * step + 1);
            let dst = &mut self.regs[vd * n..vd * n + vl];
            for (d, s) in dst.iter_mut().zip(words.iter().step_by(step)) {
                *d = *s;
            }
        }
        self.tl_vlse(vd, addr, stride_bytes, vl);
    }

    /// Timing half of [`Self::vlse`] (shared with the replay executor).
    fn tl_vlse(&mut self, vd: VReg, addr: u64, stride_bytes: u64, vl: usize) {
        let (occ, lat) = self.strided_cost(addr, stride_bytes, vl, AccessKind::Read);
        self.issue([None, None], Some(vd), occ, lat);
        self.stats.vec_mem_instrs += 1;
        self.stats.active_elems += vl as u64;
    }

    /// Strided vector store: element `i` goes to `addr + i * stride_bytes`.
    pub fn vsse(&mut self, vs: VReg, addr: u64, stride_bytes: u64, vl: usize) {
        debug_assert!(vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        let hi = addr + (vl as u64 - 1) * stride_bytes + 4;
        self.check_vec("vsse", addr, hi, vl);
        if let Some(log) = self.rlog.as_mut() {
            let (addr, stride) = (r32(addr, "vsse addr"), r32(stride_bytes, "vsse stride"));
            log.push_strided(true, vs as u8, vl as u16, addr, stride);
        }
        let n = self.vlen_elems;
        if self.ref_model || !stride_bytes.is_multiple_of(4) || stride_bytes == 0 {
            // Per-element reference path; also the stride-0 case, where
            // element order decides the surviving value.
            for i in 0..vl {
                let v = self.regs[vs * n + i];
                self.mem.write_addr(addr + i as u64 * stride_bytes, v);
            }
        } else {
            let step = (stride_bytes / 4) as usize;
            let row = vd_row(&self.regs, vs, n, vl);
            let words = self.mem.words_mut(addr, (vl - 1) * step + 1);
            for (k, &v) in row.iter().enumerate() {
                words[k * step] = v;
            }
        }
        self.tl_vsse(vs, addr, stride_bytes, vl);
    }

    /// Timing half of [`Self::vsse`] (shared with the replay executor).
    fn tl_vsse(&mut self, vs: VReg, addr: u64, stride_bytes: u64, vl: usize) {
        let (occ, _) = self.strided_cost(addr, stride_bytes, vl, AccessKind::Write);
        self.issue([Some(vs), None], None, occ, occ);
        self.stats.vec_mem_instrs += 1;
        self.stats.active_elems += vl as u64;
    }

    /// Cost of a strided/indexed access: per-element issue plus line traffic
    /// (consecutive duplicate lines deduplicated, as a coalescing LSU would).
    ///
    /// The probe loop steps line-by-line instead of element-by-element: a
    /// strided stream is monotone, so consecutive-duplicate dedup equals full
    /// dedup, and each line's *first-touching element address* is computed
    /// directly — the exact address the per-element loop would have probed.
    /// The modeled per-element occupancy charge (`vl * gather_elem_cycles`)
    /// is untouched; only the redundant functional line probes are skipped.
    /// [`Self::strided_cost_ref`] retains the per-element loop for the
    /// equivalence tests.
    fn strided_cost(
        &mut self,
        addr: u64,
        stride_bytes: u64,
        vl: usize,
        kind: AccessKind,
    ) -> (u64, u64) {
        if self.ref_model {
            return self.strided_cost_ref(addr, stride_bytes, vl, kind);
        }
        let lb = self.sys.line_bytes() as u64;
        let lb_shift = lb.trailing_zeros();
        let vpu = self.cfg.vpu;
        let base_lat = match self.cfg.mem.vpu_path {
            VpuPath::ThroughL1 => self.cfg.mem.l1.hit_latency,
            VpuPath::DecoupledL2 { .. } => 2,
        } as u64;
        let mut extra: u64 = 0;
        if stride_bytes == 0 {
            // Every element reads the same address: one probe.
            let lat = self.probe_vector(addr, kind, false);
            extra = (lat as u64).saturating_sub(base_lat);
        } else if stride_bytes < lb {
            // Sub-line stride: every line between the first and last element
            // is touched; skip straight to each line's first toucher.
            let last = addr + (vl as u64 - 1) * stride_bytes;
            let mut a = addr;
            loop {
                let lat = self.probe_vector(a, kind, false);
                extra += (lat as u64).saturating_sub(base_lat);
                let next_line_start = ((a >> lb_shift) + 1) << lb_shift;
                if last < next_line_start {
                    break;
                }
                a += (next_line_start - a).div_ceil(stride_bytes) * stride_bytes;
            }
        } else {
            // Stride of a line or more: consecutive elements always land on
            // distinct lines, so every element's line is probed.
            let mut a = addr;
            for _ in 0..vl {
                let lat = self.probe_vector(a, kind, false);
                extra += (lat as u64).saturating_sub(base_lat);
                a += stride_bytes;
            }
        }
        let exposed = extra / vpu.mlp as u64;
        let cont = self.sys.take_contention();
        let occ = self.eff_throughput(vl as u64 * vpu.gather_elem_cycles as u64) + exposed + cont;
        let lat = self.eff_pipe_depth() + base_lat + occ;
        self.next_occ_mem = exposed;
        self.next_occ_cont = cont;
        (occ, lat)
    }

    /// The pre-coalescing per-element probe loop, byte-for-byte the original
    /// implementation. Kept as the ground truth [`Self::strided_cost`] is
    /// tested against (`set_reference_model` routes here).
    fn strided_cost_ref(
        &mut self,
        addr: u64,
        stride_bytes: u64,
        vl: usize,
        kind: AccessKind,
    ) -> (u64, u64) {
        let lb = self.sys.line_bytes() as u64;
        let vpu = self.cfg.vpu;
        let base_lat = match self.cfg.mem.vpu_path {
            VpuPath::ThroughL1 => self.cfg.mem.l1.hit_latency,
            VpuPath::DecoupledL2 { .. } => 2,
        } as u64;
        let mut extra: u64 = 0;
        let mut last_line = u64::MAX;
        for i in 0..vl {
            let a = addr + i as u64 * stride_bytes;
            let line = a / lb;
            if line != last_line {
                let lat = self.probe_vector(a, kind, false);
                extra += (lat as u64).saturating_sub(base_lat);
                last_line = line;
            }
        }
        let exposed = extra / vpu.mlp as u64;
        let cont = self.sys.take_contention();
        let occ = self.eff_throughput(vl as u64 * vpu.gather_elem_cycles as u64) + exposed + cont;
        let lat = self.eff_pipe_depth() + base_lat + occ;
        self.next_occ_mem = exposed;
        self.next_occ_cont = cont;
        (occ, lat)
    }

    /// Indexed gather load: element `i` comes from `base + 4 * idx[i]`
    /// (indices in elements, as RVV `vluxei32` / SVE gather with a vector of
    /// offsets). A sentinel index of `u32::MAX` marks an inactive lane
    /// (predicated out): the lane loads 0.0 and is not charged.
    // The `0..vl` loops below index both `idx` and the register file;
    // iterator rewrites would obscure the lane/offset correspondence.
    #[allow(clippy::needless_range_loop)]
    pub fn vgather(&mut self, vd: VReg, base: u64, idx: &[u32], vl: usize) {
        debug_assert!(vl <= idx.len() && vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        let range = indexed_range(base, &idx[..vl]);
        if let Some((lo, hi)) = range {
            self.check_vec("vgather", lo, hi, vl);
        }
        self.rlog_indexed(IndexedOp::Gather, vd, base, &idx[..vl]);
        self.gather_elems(vd, base, &idx[..vl], range);
        self.tl_indexed(IndexedOp::Gather, vd, base, &idx[..vl]);
    }

    /// Indexed scatter store: element `i` goes to `base + 4 * idx[i]`.
    /// Lanes whose index is `u32::MAX` are predicated out (not stored, not
    /// charged).
    #[allow(clippy::needless_range_loop)]
    pub fn vscatter(&mut self, vs: VReg, base: u64, idx: &[u32], vl: usize) {
        debug_assert!(vl <= idx.len() && vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        let range = indexed_range(base, &idx[..vl]);
        if let Some((lo, hi)) = range {
            self.check_vec("vscatter", lo, hi, vl);
        }
        self.rlog_indexed(IndexedOp::Scatter, vs, base, &idx[..vl]);
        self.scatter_elems(vs, base, &idx[..vl], range);
        self.tl_indexed(IndexedOp::Scatter, vs, base, &idx[..vl]);
    }

    /// Structured gather where lanes come in contiguous groups of four
    /// elements (SVE "create tuples of four vectors and transpose" — LD1 of
    /// 16-byte chunks plus ZIP/TRN register permutes, §VII). Functionally
    /// identical to [`Self::vgather`], but charged per 4-element group plus
    /// a fixed permute overhead instead of per element. RISC-V Vector has
    /// no such instructions, which is why the paper excludes it from the
    /// Winograd analysis.
    #[allow(clippy::needless_range_loop)]
    pub fn vgather4(&mut self, vd: VReg, base: u64, idx: &[u32], vl: usize) {
        debug_assert!(vl <= idx.len() && vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        let range = indexed_range(base, &idx[..vl]);
        if let Some((lo, hi)) = range {
            self.check_vec("vgather4", lo, hi, vl);
        }
        self.rlog_indexed(IndexedOp::Gather4, vd, base, &idx[..vl]);
        self.gather_elems(vd, base, &idx[..vl], range);
        self.tl_indexed(IndexedOp::Gather4, vd, base, &idx[..vl]);
    }

    /// Structured scatter, the store-side counterpart of [`Self::vgather4`]
    /// (register transpose + ST1 of 16-byte chunks).
    #[allow(clippy::needless_range_loop)]
    pub fn vscatter4(&mut self, vs: VReg, base: u64, idx: &[u32], vl: usize) {
        debug_assert!(vl <= idx.len() && vl <= self.vlen_elems);
        if vl == 0 {
            return;
        }
        let range = indexed_range(base, &idx[..vl]);
        if let Some((lo, hi)) = range {
            self.check_vec("vscatter4", lo, hi, vl);
        }
        self.rlog_indexed(IndexedOp::Scatter4, vs, base, &idx[..vl]);
        self.scatter_elems(vs, base, &idx[..vl], range);
        self.tl_indexed(IndexedOp::Scatter4, vs, base, &idx[..vl]);
    }

    /// Functional half of an indexed gather: lane `i` reads
    /// `base + 4 * idx[i]`; sentinel (`u32::MAX`) lanes load 0.0. The fast
    /// path borrows the arena once across the access's byte range and
    /// indexes inside it; the reference path issues one `read_addr` per
    /// lane, as the original implementation did.
    // The reference loop indexes `idx` and the register file by lane on
    // purpose — it is the original implementation, kept verbatim.
    #[allow(clippy::needless_range_loop)]
    fn gather_elems(&mut self, vd: VReg, base: u64, idx: &[u32], range: Option<(u64, u64)>) {
        let n = self.vlen_elems;
        let vl = idx.len();
        if self.ref_model {
            for i in 0..vl {
                self.regs[vd * n + i] = if idx[i] == u32::MAX {
                    0.0
                } else {
                    self.mem.read_addr(base + 4 * u64::from(idx[i]))
                };
            }
            return;
        }
        let Some((lo, hi)) = range else {
            // All lanes predicated out: they load 0.0.
            self.regs[vd * n..vd * n + vl].fill(0.0);
            return;
        };
        let words = self.mem.words(lo, ((hi - lo) / 4) as usize);
        let dst = &mut self.regs[vd * n..vd * n + vl];
        for (d, &ix) in dst.iter_mut().zip(idx) {
            *d = if ix == u32::MAX {
                0.0
            } else {
                words[((base + 4 * u64::from(ix) - lo) / 4) as usize]
            };
        }
    }

    /// Functional half of an indexed scatter: lane `i` writes
    /// `base + 4 * idx[i]`; sentinel lanes are skipped. Writes land in lane
    /// order on both paths, so duplicate indices resolve identically.
    // The reference loop indexes `idx` and the register file by lane on
    // purpose — it is the original implementation, kept verbatim.
    #[allow(clippy::needless_range_loop)]
    fn scatter_elems(&mut self, vs: VReg, base: u64, idx: &[u32], range: Option<(u64, u64)>) {
        let n = self.vlen_elems;
        let vl = idx.len();
        if self.ref_model {
            for i in 0..vl {
                if idx[i] == u32::MAX {
                    continue;
                }
                let v = self.regs[vs * n + i];
                self.mem.write_addr(base + 4 * u64::from(idx[i]), v);
            }
            return;
        }
        let Some((lo, hi)) = range else { return };
        let row = vd_row(&self.regs, vs, n, vl);
        let words = self.mem.words_mut(lo, ((hi - lo) / 4) as usize);
        for (&v, &ix) in row.iter().zip(idx) {
            if ix != u32::MAX {
                words[((base + 4 * u64::from(ix) - lo) / 4) as usize] = v;
            }
        }
    }

    /// Cost of a structured group-of-4 indexed access: one issue slot per
    /// group plus a fixed permute cost, with line-granular cache charging.
    fn grouped_cost(&mut self, base: u64, idx: &[u32], kind: AccessKind) -> (u64, u64) {
        let lb = self.sys.line_bytes() as u64;
        let vpu = self.cfg.vpu;
        let base_lat = match self.cfg.mem.vpu_path {
            VpuPath::ThroughL1 => self.cfg.mem.l1.hit_latency,
            VpuPath::DecoupledL2 { .. } => 2,
        } as u64;
        let mut extra: u64 = 0;
        let mut last_line = u64::MAX;
        let mut active: u64 = 0;
        for &ix in idx {
            if ix == u32::MAX {
                continue;
            }
            active += 1;
            let a = base + 4 * ix as u64;
            let line = a / lb;
            if line != last_line {
                let lat = self.probe_vector(a, kind, false);
                let raw = (lat as u64).saturating_sub(base_lat);
                extra += if raw > 0 { self.miss_extra(line, raw) } else { 0 };
                last_line = line;
            }
        }
        let exposed = extra / vpu.mlp as u64;
        let cont = self.sys.take_contention();
        // One slot per 4-element group + 2 cycles of ZIP/TRN permutes.
        let occ = self.eff_throughput(active.div_ceil(4).max(1) + 2) + exposed + cont;
        let lat = self.eff_pipe_depth() + base_lat + occ;
        self.next_occ_mem = exposed;
        self.next_occ_cont = cont;
        (occ, lat)
    }

    fn indexed_cost(&mut self, base: u64, idx: &[u32], kind: AccessKind) -> (u64, u64) {
        let lb = self.sys.line_bytes() as u64;
        let vpu = self.cfg.vpu;
        let base_lat = match self.cfg.mem.vpu_path {
            VpuPath::ThroughL1 => self.cfg.mem.l1.hit_latency,
            VpuPath::DecoupledL2 { .. } => 2,
        } as u64;
        let mut extra: u64 = 0;
        let mut last_line = u64::MAX;
        let mut active: u64 = 0;
        for &ix in idx {
            if ix == u32::MAX {
                continue;
            }
            active += 1;
            let a = base + 4 * ix as u64;
            let line = a / lb;
            if line != last_line {
                let lat = self.probe_vector(a, kind, false);
                extra += (lat as u64).saturating_sub(base_lat);
                last_line = line;
            }
        }
        let exposed = extra / vpu.mlp as u64;
        let cont = self.sys.take_contention();
        let occ =
            self.eff_throughput((active * vpu.gather_elem_cycles as u64).max(1)) + exposed + cont;
        let lat = self.eff_pipe_depth() + base_lat + occ;
        self.next_occ_mem = exposed;
        self.next_occ_cont = cont;
        (occ, lat)
    }

    /// Append a [`ReplayOp::VIndexed`] with the lane indices copied into the
    /// trace's shared pool (no-op unless capturing).
    fn rlog_indexed(&mut self, op: IndexedOp, reg: VReg, base: u64, idx: &[u32]) {
        if let Some(log) = self.rlog.as_mut() {
            log.push_indexed(op, reg as u8, r32(base, "indexed base"), idx);
        }
    }

    /// Timing half of the four indexed ops (shared with the replay
    /// executor): cache/occupancy cost, issue, statistics.
    fn tl_indexed(&mut self, op: IndexedOp, reg: VReg, base: u64, idx: &[u32]) {
        match op {
            IndexedOp::Gather => {
                let (occ, lat) = self.indexed_cost(base, idx, AccessKind::Read);
                self.issue([None, None], Some(reg), occ, lat);
            }
            IndexedOp::Scatter => {
                let (occ, _) = self.indexed_cost(base, idx, AccessKind::Write);
                self.issue([Some(reg), None], None, occ, occ);
            }
            IndexedOp::Gather4 => {
                let (occ, lat) = self.grouped_cost(base, idx, AccessKind::Read);
                self.issue([None, None], Some(reg), occ, lat);
            }
            IndexedOp::Scatter4 => {
                let (occ, _) = self.grouped_cost(base, idx, AccessKind::Write);
                self.issue([Some(reg), None], None, occ, occ);
            }
        }
        self.stats.vec_mem_instrs += 1;
        self.stats.active_elems += idx.len() as u64;
    }

    /// Software prefetch of the line at `addr` (§IV-A: dropped by the RVV
    /// compiler, a no-op on SVE@gem5, effective on A64FX).
    pub fn prefetch(&mut self, addr: u64, target: PrefetchTarget) {
        self.rlog(|| ReplayOp::Prefetch { addr: r32(addr, "prefetch addr"), target });
        self.tl_prefetch(addr, target);
    }

    /// Timing half of [`Self::prefetch`] (shared with the replay executor).
    /// Under tape playback the prefetch request itself is skipped — its
    /// effect on serving levels is already baked into the tape.
    fn tl_prefetch(&mut self, addr: u64, target: PrefetchTarget) {
        self.stats.sw_prefetches += 1;
        if self.cfg.mem.sw_prefetch_effective {
            if self.tape_play.is_none() {
                self.sys.sw_prefetch(addr, target);
            }
            self.scalar_ops_tl(1);
        } else if self.cfg.vpu.isa == IsaKind::Sve {
            // gem5 executes the instruction as a no-op: one issue slot.
            self.scalar_ops_tl(1);
        }
        // RVV: the compiler drops the intrinsic entirely — zero cost.
    }

    // ------------------------------------------------------------------
    // Vector arithmetic
    // ------------------------------------------------------------------

    #[inline]
    fn arith_cost(&self, vl: usize) -> (u64, u64) {
        let chime = self.eff_chime(vl);
        (chime, self.eff_startup() + chime)
    }

    #[inline]
    fn count_arith(&mut self, vl: usize, flops_per_elem: u64) {
        self.stats.active_elems += vl as u64;
        self.stats.vec_flops += vl as u64 * flops_per_elem;
    }

    /// Append a [`ReplayOp::VArith`] (no-op unless capturing).
    #[inline]
    fn rlog_arith(&mut self, op: VArithOp, vd: VReg, a: VReg, b: VReg, vl: usize) {
        self.rlog(|| ReplayOp::VArith { op, vd: vd as u8, a: a as u8, b: b as u8, vl: vl as u16 });
    }

    /// Timing half of every vector arithmetic op (shared between the public
    /// per-instruction API and the replay executor): the issue-stage source
    /// list, the occupancy/latency cost and the FLOP count, all
    /// reconstructed from the op's [`ArithShape`]. Register operands that a
    /// shape does not use are ignored.
    fn tl_varith(&mut self, op: VArithOp, vd: VReg, a: VReg, b: VReg, vl: usize) {
        let srcs = match op.shape() {
            ArithShape::Nullary => [None, None],
            ArithShape::Unary => [Some(a), None],
            ArithShape::UnaryAcc => [Some(a), Some(vd)],
            ArithShape::Binary | ArithShape::BinaryAcc => [Some(a), Some(b)],
        };
        if op.is_slow() {
            // Division/sqrt are unpipelined-ish: several cycles per lane group.
            let chime = 8 * self.eff_chime(vl);
            self.issue(srcs, Some(vd), chime, self.eff_startup() + chime);
        } else {
            // Broadcast occupies a single slot regardless of `vl`.
            let cost_vl = if matches!(op, VArithOp::Broadcast) { 1 } else { vl };
            let (occ, lat) = self.arith_cost(cost_vl);
            self.issue(srcs, Some(vd), occ, lat);
        }
        self.count_arith(vl, op.flops_per_elem());
    }

    /// Broadcast a scalar into all lanes (RVV `vfmv.v.f` / SVE `svdup`).
    pub fn vbroadcast(&mut self, vd: VReg, x: f32, vl: usize) {
        self.rlog_arith(VArithOp::Broadcast, vd, 0, 0, vl);
        // Functionally fills vl.max(1) lanes; the decoded event says the
        // same so the uninitialized-read pass sees the true defined prefix.
        let n = self.vlen_elems;
        self.regs[vd * n..vd * n + vl.max(1)].fill(x);
        self.tl_varith(VArithOp::Broadcast, vd, 0, 0, vl);
    }

    /// Register move `vd = vs`.
    pub fn vmv(&mut self, vd: VReg, vs: VReg, vl: usize) {
        if vd == vs {
            return;
        }
        self.rlog_arith(VArithOp::Mv, vd, vs, 0, vl);
        let (d, s) = self.vreg_pair(vd, vs);
        d[..vl].copy_from_slice(&s[..vl]);
        self.tl_varith(VArithOp::Mv, vd, vs, 0, vl);
    }

    /// `vd[i] += a * vs[i]` — RVV `vfmacc.vf` / SVE `svmla_n` (Fig. 2 l.11).
    pub fn vfmacc_vf(&mut self, vd: VReg, a: f32, vs: VReg, vl: usize) {
        self.rlog_arith(VArithOp::MaccVf, vd, vs, 0, vl);
        {
            let (d, s) = self.vreg_pair(vd, vs);
            for (d, &s) in d[..vl].iter_mut().zip(&s[..vl]) {
                *d = fma32(a, s, *d);
            }
        }
        self.tl_varith(VArithOp::MaccVf, vd, vs, 0, vl);
    }

    /// The micro-kernel's row update (Fig. 2 ll. 9–11, Fig. 3 ll. 19–21),
    /// one machine op: for each row `r` in `0..rows`, read the scalar at
    /// `a_addr + r * a_stride`, scale it by `alpha` (charging one scalar
    /// flop) unless `alpha == 1`, and `vfmacc.vf` it times `vs` into
    /// accumulator `acc0 + r`. Values, timing, statistics and decoded
    /// events are exactly those of the [`Self::scalar_read`],
    /// [`Self::charge_scalar_flops`] and [`Self::vfmacc_vf`] calls it
    /// stands for, in that order per row; it is recorded as one
    /// [`ReplayOp::VMaccRows`].
    ///
    /// # Panics
    /// Panics if the accumulators run past the register file or include
    /// `vs`, or if a read falls outside the arena.
    #[allow(clippy::too_many_arguments)]
    pub fn vfmacc_vf_rows(
        &mut self,
        acc0: VReg,
        a_addr: u64,
        a_stride: u64,
        rows: usize,
        alpha: f32,
        vs: VReg,
        vl: usize,
    ) {
        if rows == 0 {
            return;
        }
        assert!(
            acc0 + rows <= NUM_VREGS && !(acc0..acc0 + rows).contains(&vs),
            "vfmacc_vf_rows: accumulators v{acc0}..v{} overrun the registers or hold v{vs}",
            acc0 + rows
        );
        let op = MaccRows {
            acc0: acc0 as u8,
            vs: vs as u8,
            rows: rows as u8,
            scaled: alpha != 1.0,
            a_addr,
            a_stride,
        };
        // The arena check is a range test and the reads are monotone, so
        // one check of their hull accepts exactly what per-read checks did.
        self.check_vec("vfmacc_vf_rows", a_addr, op.a_of(rows - 1) + 4, rows);
        if let Some(log) = self.rlog.as_mut() {
            log.push_macc_rows(&op, vl as u16);
        }
        for r in 0..rows {
            let mut a = self.mem.read_addr(op.a_of(r));
            if op.scaled {
                a *= alpha;
            }
            let (d, s) = self.vreg_pair(acc0 + r, vs);
            for (d, &s) in d[..vl].iter_mut().zip(&s[..vl]) {
                *d = fma32(a, s, *d);
            }
        }
        self.tl_macc_rows(&op, vl);
    }

    /// Timing half of [`Self::vfmacc_vf_rows`] (shared with the replay
    /// executor): per row, the timing halves of the separate calls. All
    /// rows share one `vfmacc.vf` cost.
    #[inline]
    fn tl_macc_rows(&mut self, op: &MaccRows, vl: usize) {
        let cost = self.arith_cost(vl);
        for r in 0..usize::from(op.rows) {
            self.tl_scalar_mem(op.a_of(r), AccessKind::Read);
            if op.scaled {
                self.scalar_flops_tl(1);
            }
            self.tl_macc_row(op, r, vl, cost);
        }
    }

    /// Sub-op `sub` (in `0..op.sub_ops()`) of [`Self::tl_macc_rows`] alone:
    /// a scalar read, a flop charge or one `vfmacc.vf`.
    fn tl_macc_sub(&mut self, op: &MaccRows, vl: usize, sub: usize) {
        let (r, part) = (sub / op.per_row(), sub % op.per_row());
        if part == 0 {
            self.tl_scalar_mem(op.a_of(r), AccessKind::Read);
        } else if part == 1 && op.scaled {
            self.scalar_flops_tl(1);
        } else {
            self.tl_macc_row(op, r, vl, self.arith_cost(vl));
        }
    }

    /// Row `r`'s `vfmacc.vf` of a row update at `cost = arith_cost(vl)`:
    /// issued as [`Self::tl_varith`] issues a [`VArithOp::MaccVf`]
    /// (sources `vs` and the accumulator) without its dispatch on the op's
    /// shape.
    #[inline(always)]
    fn tl_macc_row(&mut self, op: &MaccRows, r: usize, vl: usize, (occ, lat): (u64, u64)) {
        let acc = usize::from(op.acc0) + r;
        self.issue([Some(op.vs.into()), Some(acc)], Some(acc), occ, lat);
        self.count_arith(vl, VArithOp::MaccVf.flops_per_elem());
    }

    /// `vd[i] -= va[i] * vb[i]` — RVV `vfnmsac.vv` / SVE `FMLS`.
    pub fn vfnmsac_vv(&mut self, vd: VReg, va: VReg, vb: VReg, vl: usize) {
        debug_assert!(vd != va && vd != vb);
        self.rlog_arith(VArithOp::NmsacVv, vd, va, vb, vl);
        {
            let (d, a, b) = self.vreg_tri(vd, va, vb);
            for ((d, &x), &y) in d[..vl].iter_mut().zip(&a[..vl]).zip(&b[..vl]) {
                *d = fma32(-x, y, *d);
            }
        }
        self.tl_varith(VArithOp::NmsacVv, vd, va, vb, vl);
    }

    /// `vd[i] += va[i] * vb[i]` — RVV `vfmacc.vv`.
    pub fn vfmacc_vv(&mut self, vd: VReg, va: VReg, vb: VReg, vl: usize) {
        debug_assert!(vd != va && vd != vb);
        self.rlog_arith(VArithOp::MaccVv, vd, va, vb, vl);
        {
            let (d, a, b) = self.vreg_tri(vd, va, vb);
            for ((d, &x), &y) in d[..vl].iter_mut().zip(&a[..vl]).zip(&b[..vl]) {
                *d = fma32(x, y, *d);
            }
        }
        self.tl_varith(VArithOp::MaccVv, vd, va, vb, vl);
    }

    /// `vd[i] = va[i] * b + vc_scalar`-style helpers are composed from the
    /// primitives below.
    /// `vd[i] = vs[i] * a`.
    pub fn vfmul_vf(&mut self, vd: VReg, vs: VReg, a: f32, vl: usize) {
        self.rlog_arith(VArithOp::MulVf, vd, vs, 0, vl);
        if vd == vs {
            let n = self.vlen_elems;
            for x in &mut self.regs[vd * n..vd * n + vl] {
                *x *= a;
            }
        } else {
            let (d, s) = self.vreg_pair(vd, vs);
            for i in 0..vl {
                d[i] = s[i] * a;
            }
        }
        self.tl_varith(VArithOp::MulVf, vd, vs, 0, vl);
    }

    /// `vd[i] = va[i] * vb[i]`.
    pub fn vfmul_vv(&mut self, vd: VReg, va: VReg, vb: VReg, vl: usize) {
        self.rlog_arith(VArithOp::MulVv, vd, va, vb, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[va * n + i] * self.regs[vb * n + i];
        }
        self.tl_varith(VArithOp::MulVv, vd, va, vb, vl);
    }

    /// `vd[i] = va[i] + vb[i]`.
    pub fn vfadd_vv(&mut self, vd: VReg, va: VReg, vb: VReg, vl: usize) {
        self.rlog_arith(VArithOp::AddVv, vd, va, vb, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[va * n + i] + self.regs[vb * n + i];
        }
        self.tl_varith(VArithOp::AddVv, vd, va, vb, vl);
    }

    /// `vd[i] = vs[i] + a`.
    pub fn vfadd_vf(&mut self, vd: VReg, vs: VReg, a: f32, vl: usize) {
        self.rlog_arith(VArithOp::AddVf, vd, vs, 0, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[vs * n + i] + a;
        }
        self.tl_varith(VArithOp::AddVf, vd, vs, 0, vl);
    }

    /// `vd[i] = va[i] - vb[i]`.
    pub fn vfsub_vv(&mut self, vd: VReg, va: VReg, vb: VReg, vl: usize) {
        self.rlog_arith(VArithOp::SubVv, vd, va, vb, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[va * n + i] - self.regs[vb * n + i];
        }
        self.tl_varith(VArithOp::SubVv, vd, va, vb, vl);
    }

    /// `vd[i] = max(vs[i], a)` (leaky/ReLU building block).
    pub fn vfmax_vf(&mut self, vd: VReg, vs: VReg, a: f32, vl: usize) {
        self.rlog_arith(VArithOp::MaxVf, vd, vs, 0, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[vs * n + i].max(a);
        }
        self.tl_varith(VArithOp::MaxVf, vd, vs, 0, vl);
    }

    /// `vd[i] = max(va[i], vb[i])` (maxpool building block).
    pub fn vfmax_vv(&mut self, vd: VReg, va: VReg, vb: VReg, vl: usize) {
        self.rlog_arith(VArithOp::MaxVv, vd, va, vb, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[va * n + i].max(self.regs[vb * n + i]);
        }
        self.tl_varith(VArithOp::MaxVv, vd, va, vb, vl);
    }

    /// `vd[i] = va[i] / vb[i]`.
    pub fn vfdiv_vv(&mut self, vd: VReg, va: VReg, vb: VReg, vl: usize) {
        self.rlog_arith(VArithOp::DivVv, vd, va, vb, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[va * n + i] / self.regs[vb * n + i];
        }
        self.tl_varith(VArithOp::DivVv, vd, va, vb, vl);
    }

    /// `vd[i] = sqrt(vs[i])`.
    pub fn vfsqrt(&mut self, vd: VReg, vs: VReg, vl: usize) {
        self.rlog_arith(VArithOp::Sqrt, vd, vs, 0, vl);
        let n = self.vlen_elems;
        for i in 0..vl {
            self.regs[vd * n + i] = self.regs[vs * n + i].sqrt();
        }
        self.tl_varith(VArithOp::Sqrt, vd, vs, 0, vl);
    }

    /// Timing half of the reductions (shared with the replay executor): the
    /// front end waits for the scalar result.
    fn tl_reduce(&mut self, vs: VReg, vl: usize) {
        // The log2(lanes) reduction-tree term stays even under
        // `infinite_lanes`: more lanes deepen the tree, they don't flatten it.
        let chime = self.eff_chime(vl) + (self.cfg.vpu.lanes as f64).log2().ceil() as u64;
        let lat = self.eff_startup() + chime;
        self.issue([Some(vs), None], None, chime, lat);
        self.now += lat; // core consumes the scalar
        self.attribute_consume_wait(lat);
        self.count_arith(vl, 1);
    }

    /// Horizontal sum of the first `vl` lanes; the scalar result is consumed
    /// by the core, so the front end waits for it.
    pub fn vfredsum(&mut self, vs: VReg, vl: usize) -> f32 {
        self.rlog(|| ReplayOp::Reduce { op: ReduceOp::Sum, vs: vs as u8, vl: vl as u16 });
        let n = self.vlen_elems;
        let sum: f32 = self.regs[vs * n..vs * n + vl].iter().sum();
        self.tl_reduce(vs, vl);
        sum
    }

    /// Horizontal max of the first `vl` lanes.
    pub fn vfredmax(&mut self, vs: VReg, vl: usize) -> f32 {
        self.rlog(|| ReplayOp::Reduce { op: ReduceOp::Max, vs: vs as u8, vl: vl as u16 });
        let n = self.vlen_elems;
        let mx = self.regs[vs * n..vs * n + vl].iter().copied().fold(f32::NEG_INFINITY, f32::max);
        self.tl_reduce(vs, vl);
        mx
    }

    /// Record a register spill inserted by a kernel (unroll > registers).
    pub fn note_spill(&mut self) {
        self.rlog(|| ReplayOp::Spill);
        self.stats.spills += 1;
    }

    // ------------------------------------------------------------------
    // Scalar side
    // ------------------------------------------------------------------

    /// Charge `n` scalar operation units (address arithmetic, branches, …).
    #[inline]
    pub fn charge_scalar_ops(&mut self, n: u64) {
        self.rlog(|| ReplayOp::ScalarOps { n: r32(n, "scalar-op count") });
        self.scalar_ops_tl(n);
    }

    /// Timing half of [`Self::charge_scalar_ops`], also used by ops that
    /// charge scalar work internally (`setvl`, `whilelt`, `prefetch`) so the
    /// replay log never records the same charge twice. One fractional-cycle
    /// addition per call — replaying call-by-call keeps the `f64`
    /// accumulation bit-identical.
    #[inline]
    fn scalar_ops_tl(&mut self, n: u64) {
        self.stats.scalar_ops += n;
        self.scalar_frac += n as f64 * self.cfg.core.scalar_cpi;
        self.commit_scalar();
    }

    /// Charge `n` scalar floating-point operations.
    #[inline]
    pub fn charge_scalar_flops(&mut self, n: u64) {
        self.rlog(|| ReplayOp::ScalarFlops { n: r32(n, "scalar-flop count") });
        self.scalar_flops_tl(n);
    }

    /// Timing half of [`Self::charge_scalar_flops`].
    #[inline]
    fn scalar_flops_tl(&mut self, n: u64) {
        self.stats.scalar_flops += n;
        self.scalar_frac += n as f64 * self.cfg.core.scalar_cpi;
        self.commit_scalar();
    }

    /// Scalar load with cache timing (hit latency assumed pipelined away;
    /// a fraction of miss latency is exposed). Charged at the *kernel*
    /// scalar rate: these are the A-operand reads and address bookkeeping
    /// inside vector micro-kernels, which dual-issue with vector work.
    pub fn scalar_read(&mut self, addr: u64) -> f32 {
        self.check_vec("scalar_read", addr, addr + 4, 1);
        let v = self.mem.read_addr(addr);
        self.rlog(|| ReplayOp::ScalarRead { addr: r32(addr, "scalar_read addr") });
        self.tl_scalar_mem(addr, AccessKind::Read);
        v
    }

    /// Scalar store with cache timing (kernel scalar rate, see
    /// [`Self::scalar_read`]).
    pub fn scalar_write(&mut self, addr: u64, v: f32) {
        self.check_vec("scalar_write", addr, addr + 4, 1);
        self.mem.write_addr(addr, v);
        self.rlog(|| ReplayOp::ScalarWrite { addr: r32(addr, "scalar_write addr") });
        self.tl_scalar_mem(addr, AccessKind::Write);
    }

    /// Timing half of [`Self::scalar_read`] / [`Self::scalar_write`]
    /// (shared with the replay executor). Inlined, so the row update's
    /// per-row read runs straight-line with its `vfmacc.vf`.
    #[inline(always)]
    fn tl_scalar_mem(&mut self, addr: u64, kind: AccessKind) {
        let lat = self.probe_scalar(addr, kind);
        // Hits expose no latency: their charge is exactly the kernel CPI
        // (`0.0 + cpi == cpi` in f64), so the hit path skips the exposure
        // arithmetic without perturbing the accumulated fraction.
        self.scalar_frac += if lat > self.cfg.mem.l1.hit_latency {
            f64::from(lat - self.cfg.mem.l1.hit_latency) * self.cfg.core.scalar_miss_exposure
                + self.cfg.core.kernel_scalar_cpi
        } else {
            self.cfg.core.kernel_scalar_cpi
        };
        self.commit_scalar();
        self.charge_scalar_contention();
    }

    /// Bulk timing for a sequential scalar read of `words` elements starting
    /// at `addr`: one cache probe per line, no per-element charge (callers
    /// charge compute via [`Self::charge_scalar_ops`]). Functional access is
    /// done by the caller on [`Self::mem`] slices.
    pub fn scalar_stream(&mut self, addr: u64, words: usize, kind: AccessKind) {
        if words == 0 {
            return;
        }
        if let Some(log) = self.rlog.as_mut() {
            let write = matches!(kind, AccessKind::Write);
            log.push_stream(
                write,
                r32(addr, "scalar_stream addr"),
                r32(words as u64, "scalar_stream words"),
            );
        }
        self.tl_scalar_stream(addr, words, kind);
    }

    /// Timing half of [`Self::scalar_stream`] (shared with the replay
    /// executor).
    fn tl_scalar_stream(&mut self, addr: u64, words: usize, kind: AccessKind) {
        let lb = self.sys.line_bytes() as u64;
        let first = addr / lb;
        let last = (addr + 4 * words as u64 - 1) / lb;
        let mut exposed = 0.0;
        for line in first..=last {
            let lat = self.probe_scalar(line * lb, kind);
            exposed += (lat.saturating_sub(self.cfg.mem.l1.hit_latency)) as f64
                * self.cfg.core.scalar_miss_exposure;
        }
        self.scalar_frac += exposed;
        self.commit_scalar();
        self.charge_scalar_contention();
    }

    /// Charge shared-port waits accumulated by *scalar* cache probes
    /// directly to the clock (multi-core SoC runs only). The scalar side has
    /// no occupancy machinery to carry the wait into the next issue, so the
    /// stall is taken — and attributed to `Contention` — on the spot. A
    /// single core drains exactly zero here, leaving the arithmetic of this
    /// function unreached (the bit-identity contract).
    #[inline]
    fn charge_scalar_contention(&mut self) {
        let cont = self.sys.take_contention();
        if cont == 0 {
            return;
        }
        let t0 = self.now;
        self.now += cont;
        self.stalls.add(StallCause::Contention, cont);
        self.stalls.note_total(cont);
        if self.pipe.is_some() {
            self.pipe_stalls(t0, &[(StallCause::Contention, cont)]);
        }
    }

    // ------------------------------------------------------------------
    // The replay executor (the `lva-retime` engine's workhorse)
    // ------------------------------------------------------------------

    /// Re-execute a captured semantic trace through the timing model,
    /// skipping all functional work. Returns one [`SegmentReplay`] per
    /// `reset_timing()`-delimited segment (a segment boundary snapshot plus
    /// the final tail), each carrying exactly what the full simulator would
    /// have reported for that segment.
    ///
    /// The machine must be freshly built for the target design point with
    /// the same hardware vector length the trace was captured at (vector
    /// lengths recorded in the ops are grants of the capture machine; the
    /// caller enforces the stream-key match). For a **tape refit**, install
    /// the capture's probe tape with [`Self::play_probe_tape`] first; for a
    /// **live replay**, leave it out and the recorded addresses drive this
    /// machine's real memory hierarchy (optionally recording a fresh tape
    /// via [`Self::record_probe_tape`]).
    pub fn replay(&mut self, trace: &ReplayTrace) -> Vec<SegmentReplay> {
        let mut segments = Vec::new();
        for &op in &trace.ops {
            if self.replay_op(trace, op) {
                continue;
            }
            if op == ReplayOp::ResetTiming {
                segments.push(self.segment_snapshot());
                if let Some(tp) = self.tape_play.as_mut() {
                    tp.next_segment();
                }
                self.reset_timing();
            } else {
                self.replay_scope(trace, op);
            }
        }
        segments.push(self.segment_snapshot());
        segments
    }

    /// Execute the recorded op under `cur` and advance the cursor; `false`
    /// once the cursor's range is exhausted (no op executed).
    ///
    /// This is the steppable face of the replay executor: the multi-core SoC
    /// event loop (`lva-scale`) interleaves N machines by driving each one
    /// recorded op at a time, publishing the core's clock to the shared
    /// memory port before every step. Op-for-op it runs exactly the `tl_*`
    /// timing functions the batch executor runs, so a cursor walked start to
    /// end is bit-identical to [`Self::replay`] over the same range. A
    /// [`ReplayOp::VMaccRows`] takes one step per sub-op — each row's
    /// scalar read, flop charge and `vfmacc.vf` — and the cursor leaves it
    /// after the last, so the loop sees the op boundaries of the separate
    /// calls the row update stands for.
    /// Segment boundaries stay with the caller: a [`ReplayOp::ResetTiming`]
    /// inside the range is a contract violation (panics) — the SoC loop owns
    /// its barrier protocol and slices cursors between boundaries.
    pub fn replay_step(&mut self, trace: &ReplayTrace, cur: &mut ReplayCursor) -> bool {
        let Some(&op) = trace.ops.get(cur.i).filter(|_| cur.i < cur.end) else {
            return false;
        };
        if let ReplayOp::VMaccRows { vl, at } = op {
            let rows = trace.macc_rows(at);
            self.tl_macc_sub(&rows, vl as usize, cur.sub);
            cur.sub += 1;
            if cur.sub == rows.sub_ops() {
                cur.sub = 0;
                cur.i += 1;
            }
            return true;
        }
        cur.i += 1;
        if !self.replay_op(trace, op) {
            assert!(
                op != ReplayOp::ResetTiming,
                "replay_step: ResetTiming inside a cursor range — slice at boundaries"
            );
            self.replay_scope(trace, op);
        }
        true
    }

    /// Execute one recorded timing op, the single dispatcher behind both
    /// [`Self::replay_step`] and the batch executor: it decodes pool-backed
    /// operands through the trace's accessors and runs the same `tl_*`
    /// functions the live ops do. Returns `false`, having done nothing, for
    /// a boundary op (phases, layers, `ResetTiming`), whose bookkeeping
    /// belongs to the caller — checked after the hot timing ops, so those
    /// take one dispatch.
    #[inline]
    fn replay_op(&mut self, trace: &ReplayTrace, op: ReplayOp) -> bool {
        match op {
            ReplayOp::Setvl { rvl } => {
                self.tl_setvl(rvl as usize);
            }
            ReplayOp::Whilelt { rem } => {
                self.tl_whilelt(rem as usize);
            }
            ReplayOp::VLoad { vd, vl, addr } => self.tl_vle(vd as VReg, addr as u64, vl as usize),
            ReplayOp::VStore { vs, vl, addr } => self.tl_vse(vs as VReg, addr as u64, vl as usize),
            ReplayOp::VLoadStrided { vd, vl, at } => {
                let (addr, stride) = trace.strided(at);
                self.tl_vlse(vd as VReg, addr, stride, vl as usize);
            }
            ReplayOp::VStoreStrided { vs, vl, at } => {
                let (addr, stride) = trace.strided(at);
                self.tl_vsse(vs as VReg, addr, stride, vl as usize);
            }
            ReplayOp::VIndexed { op, reg, at } => {
                let (base, lanes) = trace.indexed(at);
                self.tl_indexed(op, reg as VReg, base, lanes);
            }
            ReplayOp::VArith { op, vd, a, b, vl } => {
                self.tl_varith(op, vd as VReg, a as VReg, b as VReg, vl as usize);
            }
            ReplayOp::VMaccRows { vl, at } => self.tl_macc_rows(&trace.macc_rows(at), vl as usize),
            ReplayOp::Reduce { vs, vl, .. } => self.tl_reduce(vs as VReg, vl as usize),
            ReplayOp::Prefetch { addr, target } => self.tl_prefetch(addr as u64, target),
            ReplayOp::ScalarOps { n } => self.scalar_ops_tl(n as u64),
            ReplayOp::ScalarFlops { n } => self.scalar_flops_tl(n as u64),
            ReplayOp::ScalarRead { addr } => self.tl_scalar_mem(addr as u64, AccessKind::Read),
            ReplayOp::ScalarWrite { addr } => self.tl_scalar_mem(addr as u64, AccessKind::Write),
            ReplayOp::ScalarStream { write, words, arg } => {
                let (addr, words) = trace.stream(words, arg);
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                self.tl_scalar_stream(addr, words, kind);
            }
            ReplayOp::Spill => self.stats.spills += 1,
            ReplayOp::PhaseBegin { .. }
            | ReplayOp::PhaseEnd { .. }
            | ReplayOp::LayerBegin { .. }
            | ReplayOp::LayerEnd
            | ReplayOp::ResetTiming => return false,
        }
        true
    }

    /// Replay a phase or layer boundary through the same methods the live
    /// ops call, so a replay keeps the same books a live run keeps.
    fn replay_scope(&mut self, trace: &ReplayTrace, op: ReplayOp) {
        match op {
            ReplayOp::PhaseBegin { phase } => self.phase_begin(phase),
            ReplayOp::PhaseEnd { phase } => {
                self.phase_end(phase);
            }
            ReplayOp::LayerBegin { index, desc } => {
                self.layer_begin(index as usize, &trace.descs[desc as usize]);
            }
            ReplayOp::LayerEnd => self.layer_end(),
            _ => unreachable!("replay: timing op {op:?} reached the boundary arms"),
        }
    }

    /// Advance the front-end clock to at least `t` without doing work: an
    /// *idle* wait, deliberately not a stall (nothing was issued and nothing
    /// blocked the front-end — the core simply has no frame to work on).
    /// Used by the SoC pipeline-sharding loop for inter-stage frame
    /// handoffs; `lva-scale` reports the skipped span separately as pipeline
    /// idle time.
    pub fn advance_to(&mut self, t: u64) {
        self.commit_scalar();
        self.now = self.now.max(t);
    }

    /// The current segment's complete timing results (cache statistics from
    /// the tape under refit playback, from the live counters otherwise),
    /// taking the segment's layer book.
    fn segment_snapshot(&mut self) -> SegmentReplay {
        let mem = match self.tape_play.as_ref() {
            Some(tp) => tp.segment_stats(),
            None => self.sys.stats(),
        };
        SegmentReplay {
            cycles: self.cycles(),
            stalls: self.stalls,
            phases: self.phases.clone(),
            vpu: self.stats,
            mem,
            layers: std::mem::take(&mut self.layers),
        }
    }
}

/// Position state of a steppable replay (see [`Machine::replay_step`]): the
/// next op index, the next sub-op inside it (nonzero only part-way through a
/// [`ReplayOp::VMaccRows`]) and the exclusive range end.
#[derive(Debug, Clone)]
pub struct ReplayCursor {
    i: usize,
    sub: usize,
    end: usize,
}

impl ReplayCursor {
    /// Cursor over `ops[start..end)` of a [`ReplayTrace`].
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "cursor range reversed: {start}..{end}");
        ReplayCursor { i: start, sub: 0, end }
    }

    /// Whether the range is exhausted.
    pub fn done(&self) -> bool {
        self.i >= self.end
    }
}

/// Helper to borrow a register row immutably from the raw backing store.
#[inline]
fn vd_row(regs: &[f32], r: VReg, n: usize, vl: usize) -> &[f32] {
    &regs[r * n..r * n + vl]
}

/// Fused multiply-add emulated in double precision: the `f32` product is
/// exact in `f64` (24×24 significand bits < 53), so the only deviation from
/// a true fused op is the final double rounding — identical except in rare
/// tie-straddling corner cases. Used instead of `f32::mul_add`, which lowers
/// to an indirect `fmaf` libm call on baseline x86-64 and dominated the
/// simulator's host profile. Timing is data-independent, so modeled cycles
/// are unaffected.
#[inline(always)]
fn fma32(a: f32, b: f32, c: f32) -> f32 {
    (f64::from(a) * f64::from(b) + f64::from(c)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    const ARENA_BASE_TEST: u64 = lva_sim::mem::ARENA_BASE;

    fn machine() -> Machine {
        Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20))
    }

    #[test]
    fn setvl_grants_at_most_hw_length() {
        let mut m = machine();
        assert_eq!(m.vlen_elems(), 16);
        assert_eq!(m.setvl(100), 16);
        assert_eq!(m.setvl(7), 7);
    }

    #[test]
    fn load_compute_store_roundtrip() {
        let mut m = machine();
        let a = m.mem.alloc(16);
        let c = m.mem.alloc(16);
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        m.mem.slice_mut(a).copy_from_slice(&src);
        let vl = m.setvl(16);
        m.vle(1, a.addr(0), vl);
        m.vbroadcast(2, 0.0, vl);
        m.vfmacc_vf(2, 3.0, 1, vl);
        m.vse(2, c.addr(0), vl);
        let out = m.mem.slice(c);
        for (i, &v) in out.iter().enumerate().take(16) {
            assert_eq!(v, 3.0 * i as f32);
        }
        assert!(m.cycles() > 0);
    }

    #[test]
    fn dependent_fmas_slower_than_independent() {
        // 8 FMAs into ONE accumulator (chain) vs 8 accumulators (unrolled).
        let mk = || Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
        let mut chain = mk();
        let vl = chain.setvl(64);
        chain.vbroadcast(0, 1.0, vl);
        chain.vbroadcast(1, 2.0, vl);
        let t0 = chain.cycles();
        for _ in 0..8 {
            chain.vfmacc_vf(1, 1.5, 0, vl);
        }
        let chained = chain.cycles() - t0;

        let mut unrolled = mk();
        let vl = unrolled.setvl(64);
        unrolled.vbroadcast(0, 1.0, vl);
        for r in 1..=8 {
            unrolled.vbroadcast(r, 2.0, vl);
        }
        let t0 = unrolled.cycles();
        for r in 1..=8 {
            unrolled.vfmacc_vf(r, 1.5, 0, vl);
        }
        let parallel = unrolled.cycles() - t0;
        assert!(
            parallel * 2 < chained,
            "unrolled {parallel} should be much faster than chained {chained}"
        );
    }

    /// `ready_max` is the scoreboard maximum after every instruction,
    /// including WAW overwrites that lower the latest-ready register.
    #[test]
    fn ready_max_tracks_the_scoreboard_maximum() {
        let scan = |m: &Machine| m.ready.iter().copied().max().unwrap_or(0);
        // Overwrites that lower the maximum take the rescan path. This
        // stream produces none on the RVV config, some on SVE and A64FX.
        let mut lowered = 0;
        for cfg in [
            MachineConfig::rvv_gem5(512, 8, 1 << 20),
            MachineConfig::sve_gem5(512, 1 << 20),
            MachineConfig::a64fx(),
        ] {
            let mut m = Machine::new(cfg);
            let buf = m.mem.alloc(1 << 16);
            let vl = m.setvl(16);
            let mut rng = lva_sim::Rng::new(11);
            for _ in 0..2000 {
                let vd = rng.gen_index(0, NUM_VREGS);
                let max_before = m.ready_max;
                let was_max = m.ready[vd] == max_before;
                match rng.gen_index(0, 3) {
                    0 => m.vle(vd, buf.addr(rng.gen_index(0, (1 << 16) - 16)), vl),
                    1 => m.vbroadcast(vd, 2.0, vl),
                    _ => {
                        let vs = (vd + rng.gen_index(1, NUM_VREGS)) % NUM_VREGS;
                        m.vfmacc_vf(vd, 1.5, vs, vl);
                    }
                }
                lowered += usize::from(was_max && m.ready[vd] < max_before);
                assert_eq!(m.ready_max, scan(&m));
                assert_eq!(m.cycles(), m.now.max(m.unit_free).max(scan(&m)));
            }
            m.reset_timing();
            assert_eq!(m.ready_max, 0);
        }
        assert!(lowered > 0, "no overwrite lowered the maximum: the rescan went untested");
    }

    #[test]
    fn vector_traffic_bypasses_l1_on_rvv() {
        let mut m = machine();
        let a = m.mem.alloc(64);
        m.vle(0, a.addr(0), 16);
        assert_eq!(m.sys.l1.stats.accesses, 0);
        assert!(m.sys.l2.stats.accesses > 0);
    }

    #[test]
    fn vector_traffic_through_l1_on_sve() {
        let mut m = Machine::new(MachineConfig::sve_gem5(512, 1 << 20));
        let a = m.mem.alloc(64);
        m.vle(0, a.addr(0), 16);
        assert!(m.sys.l1.stats.accesses > 0);
    }

    #[test]
    fn strided_load_gathers_correctly() {
        let mut m = machine();
        let a = m.mem.alloc(64);
        for i in 0..64 {
            m.mem.write(a, i, i as f32);
        }
        m.vlse(3, a.addr(0), 16, 8); // stride 16 bytes = 4 elements
        let r = m.vreg(3);
        for (i, &v) in r.iter().enumerate().take(8) {
            assert_eq!(v, (4 * i) as f32);
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut m = machine();
        let a = m.mem.alloc(32);
        let b = m.mem.alloc(32);
        for i in 0..32 {
            m.mem.write(a, i, i as f32);
        }
        let idx: Vec<u32> = (0..8).map(|i| 31 - 4 * i).collect();
        m.vgather(4, a.base, &idx, 8);
        let got: Vec<f32> = m.vreg(4)[..8].to_vec();
        let want: Vec<f32> = idx.iter().map(|&i| i as f32).collect();
        assert_eq!(got, want);
        m.vscatter(4, b.base, &idx, 8);
        for (k, &i) in idx.iter().enumerate() {
            assert_eq!(m.mem.read(b, i as usize), want[k]);
        }
    }

    #[test]
    fn longer_vectors_amortize_startup() {
        // Same element count, two vector lengths, hot caches: the long-VL
        // machine should need fewer cycles for pure compute.
        let run = |vlen: usize| {
            let mut m = Machine::new(MachineConfig::rvv_gem5(vlen, 8, 1 << 20));
            let total = 4096usize;
            let t0 = m.cycles();
            let mut i = 0;
            while i < total {
                let vl = m.setvl(total - i);
                m.vfmacc_vf(1, 1.0, 0, vl);
                i += vl;
            }
            m.cycles() - t0
        };
        let short = run(512);
        let long = run(8192);
        assert!(long < short, "8192b {long} should beat 512b {short}");
    }

    #[test]
    fn reduction_matches_host() {
        let mut m = machine();
        let vl = m.setvl(16);
        let a = m.mem.alloc(16);
        let data: Vec<f32> = (0..16).map(|i| (i as f32) * 0.5).collect();
        m.mem.slice_mut(a).copy_from_slice(&data);
        m.vle(0, a.addr(0), vl);
        let s = m.vfredsum(0, vl);
        assert!((s - data.iter().sum::<f32>()).abs() < 1e-5);
        let mx = m.vfredmax(0, vl);
        assert_eq!(mx, 7.5);
    }

    #[test]
    fn prefetch_is_free_on_rvv_and_counted() {
        let mut m = machine();
        let c0 = m.cycles();
        m.prefetch(0x1_0000, PrefetchTarget::L1);
        assert_eq!(m.stats.sw_prefetches, 1);
        assert_eq!(m.cycles(), c0, "dropped prefetch must cost nothing on RVV");
    }

    #[test]
    fn phase_attribution() {
        let mut m = machine();
        m.phase(KernelPhase::Gemm, |m| {
            m.vbroadcast(0, 1.0, 16);
            m.vfmacc_vf(1, 2.0, 0, 16);
        });
        assert!(m.phases.get(KernelPhase::Gemm) > 0);
        assert_eq!(m.phases.get(KernelPhase::Im2col), 0);
    }

    #[test]
    fn avg_vlen_tracks_tails() {
        let mut m = machine(); // VL = 16 elements
        let mut i = 0;
        let n = 24; // one full vector + one half vector
        while i < n {
            let vl = m.setvl(n - i);
            m.vfmacc_vf(1, 1.0, 0, vl);
            i += vl;
        }
        assert_eq!(m.stats.vec_instrs, 2);
        // (16 + 8) / 2 = 12 elements = 384 bits.
        assert!((m.stats.avg_vlen_bits() - 384.0).abs() < 1e-9);
    }

    #[test]
    fn scalar_stream_charges_per_line() {
        let mut m = machine();
        let a = m.mem.alloc(1024);
        m.scalar_stream(a.addr(0), 1024, AccessKind::Read);
        // 1024 words * 4 B / 64 B = 64 lines.
        assert_eq!(m.sys.l1.stats.accesses, 64);
    }

    #[test]
    fn vfnmsac_is_negated_fma() {
        let mut m = machine();
        let vl = m.setvl(8);
        let a = m.mem.alloc(8);
        let b = m.mem.alloc(8);
        for i in 0..8 {
            m.mem.write(a, i, (i + 1) as f32);
            m.mem.write(b, i, 2.0);
        }
        m.vle(1, a.addr(0), vl);
        m.vle(2, b.addr(0), vl);
        m.vbroadcast(3, 100.0, vl);
        m.vfnmsac_vv(3, 1, 2, vl); // 100 - (i+1)*2
        for i in 0..8 {
            assert_eq!(m.vreg(3)[i], 100.0 - 2.0 * (i + 1) as f32);
        }
        assert_eq!(m.stats.vec_flops, 16, "fnmsac counts 2 flops per lane");
    }

    #[test]
    fn whilelt_predicated_loop_processes_tail() {
        let mut m = Machine::new(MachineConfig::sve_gem5(512, 1 << 20));
        let n = 21; // 16 + 5 tail
        let a = m.mem.alloc(n);
        let mut i = 0;
        loop {
            let p = m.whilelt(i, n);
            if p.none() {
                break;
            }
            m.vbroadcast(0, i as f32, p.active);
            m.vse(0, a.addr(i), p.active);
            i += p.active;
        }
        assert_eq!(m.mem.read(a, 0), 0.0);
        assert_eq!(m.mem.read(a, 16), 16.0);
        assert_eq!(m.mem.read(a, 20), 16.0);
    }

    #[test]
    fn vse_zero_length_is_noop() {
        let mut m = machine();
        let a = m.mem.alloc(8);
        let c0 = m.cycles();
        m.vle(0, a.addr(0), 0);
        m.vse(0, a.addr(0), 0);
        m.vlse(0, a.addr(0), 4, 0);
        m.vgather(0, a.base, &[], 0);
        assert_eq!(m.cycles(), c0);
        assert_eq!(m.stats.vec_instrs, 0);
    }

    #[test]
    fn stall_causes_sum_to_total() {
        // A mixed workload exercising every attribution path: dependent FMA
        // chains (RawHazard/VectorStartup), cold loads (MemLatency), long
        // vectors (LaneOccupancy), back-to-back issue (IssueWidth), and
        // reductions (consume wait).
        let mut m = Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
        let a = m.mem.alloc(4096);
        let vl = m.setvl(64);
        for r in 0..8 {
            m.vle(r, a.addr(r * 64), vl);
        }
        for _ in 0..16 {
            m.vfmacc_vf(9, 1.5, 8, vl); // dependent chain
        }
        m.vfredsum(9, vl);
        m.vlse(10, a.addr(0), 20, vl);
        let idx: Vec<u32> = (0..vl as u32).map(|i| (i * 37) % 1024).collect();
        m.vgather(11, a.base, &idx, vl);
        assert!(m.stalls.total() > 0, "workload must actually stall");
        assert_eq!(
            m.stalls.attributed(),
            m.stalls.total(),
            "every stalled cycle must be attributed to exactly one cause"
        );
        // The same invariant holds on the SVE path and after a reset.
        m.reset_timing();
        assert_eq!(m.stalls.total(), 0);
        let mut s = Machine::new(MachineConfig::sve_gem5(512, 1 << 20));
        let b = s.mem.alloc(1024);
        for i in 0..16 {
            s.vle(1, b.addr(i * 16), 16);
            s.vfmacc_vf(2, 1.0, 1, 16);
        }
        s.vfredmax(2, 16);
        assert!(s.stalls.total() > 0);
        assert_eq!(s.stalls.attributed(), s.stalls.total());
    }

    #[test]
    fn dependent_chain_stalls_are_hazards_not_memory() {
        let mut m = Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
        let vl = m.setvl(64);
        m.vbroadcast(0, 1.0, vl);
        for _ in 0..32 {
            m.vfmacc_vf(1, 1.5, 0, vl);
        }
        let hazard = m.stalls.get(StallCause::RawHazard) + m.stalls.get(StallCause::VectorStartup);
        assert!(hazard > 0, "a dependent chain must expose dependency stalls");
        assert_eq!(m.stalls.get(StallCause::MemLatency), 0, "no memory traffic issued");
    }

    #[test]
    fn cold_streaming_loads_stall_on_memory() {
        let mut m = Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
        let a = m.mem.alloc(1 << 16);
        let vl = m.setvl(64);
        // Independent destination registers: no RAW pressure, only the unit
        // being busy with exposed miss time.
        for i in 0..64usize {
            m.vle(i % 16, a.addr(i * 256), vl);
        }
        assert!(
            m.stalls.get(StallCause::MemLatency) > 0,
            "cold misses must surface as memory stalls: {:?}",
            m.stalls
        );
    }

    #[test]
    fn recording_is_off_by_default_and_captures_ops_when_on() {
        use crate::record::EventKind;
        let mut m = machine();
        assert!(m.finish_capture().is_none(), "capturing is off by default");
        let a = m.mem.alloc(16);
        m.vle(0, a.addr(0), 16);
        assert!(m.finish_capture().is_none(), "nothing recorded while off");

        m.start_capture();
        let vl = m.setvl(16);
        m.vle(1, a.addr(0), vl);
        m.vfmacc_vf(2, 2.0, 1, vl);
        m.vse(2, a.addr(0), vl);
        let trace = m.finish_capture().expect("capture was started");
        let ev = trace.vec_events(m.vlen_elems());
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].kind, EventKind::Grant);
        assert_eq!((ev[0].requested, ev[0].vl), (16, 16));
        assert_eq!(ev[1].kind, EventKind::Load);
        assert_eq!((ev[1].lo, ev[1].hi), (a.base, a.base + 64));
        assert_eq!(ev[2].kind, EventKind::Arith);
        assert_eq!(ev[2].srcs, [Some(1), Some(2), None]);
        assert_eq!(ev[3].kind, EventKind::Store);
        assert!(m.finish_capture().is_none(), "finish_capture stops the recording");
    }

    #[test]
    fn phase_markers_are_recorded() {
        use crate::record::EventKind;
        let mut m = machine();
        m.start_capture();
        m.phase(KernelPhase::Gemm, |m| m.vbroadcast(0, 1.0, 16));
        let trace = m.finish_capture().expect("capture was started");
        let ev = trace.vec_events(m.vlen_elems());
        assert_eq!(ev[0].kind, EventKind::PhaseBegin);
        assert_eq!(ev[0].phase, Some(KernelPhase::Gemm));
        assert_eq!(ev[2].kind, EventKind::PhaseEnd);
    }

    #[test]
    #[should_panic(expected = "acts")]
    fn out_of_range_vle_names_the_buffer() {
        let mut m = machine();
        let a = m.mem.alloc_named("acts", 16);
        // One full vector starting past the end of the only allocation.
        m.vle(0, a.base + 4 * 16, 16);
    }

    #[test]
    #[should_panic(expected = "scalar_write")]
    fn out_of_range_scalar_write_fails_loudly() {
        let mut m = machine();
        let _a = m.mem.alloc_named("acts", 16);
        m.scalar_write(ARENA_BASE_TEST + 4096, 1.0);
    }

    #[test]
    fn ooo_hides_dependency_latency() {
        let dep_time = |ooo: u64| {
            let mut cfg = MachineConfig::a64fx();
            cfg.core.ooo_window = ooo;
            let mut m = Machine::new(cfg);
            let vl = m.setvl(16);
            let t0 = m.cycles();
            for _ in 0..32 {
                m.vfmacc_vf(1, 1.5, 0, vl); // dependent chain
            }
            m.cycles() - t0
        };
        assert!(dep_time(96) < dep_time(0));
    }

    /// `commit_scalar` as written when it truncated through `u64`, kept as
    /// the reference the seeded test below pins it against.
    fn commit_scalar_reference(now: &mut u64, frac: &mut f64) {
        if *frac >= 1.0 {
            let whole = *frac as u64;
            *now += whole;
            *frac -= whole as f64;
        }
    }

    /// Every scalar charge the machine makes on the three profiles: the bulk
    /// and kernel CPIs, the per-issue front-end cost, and the miss exposure
    /// of a scalar access served by L2 or DRAM at several L2 sizes (plus the
    /// kernel CPI, as `tl_scalar_mem` adds them).
    fn scalar_charges() -> (Vec<f64>, Vec<f64>) {
        let mut unit = Vec::new();
        let mut bulk_cpi = Vec::new();
        let mut cfgs = vec![MachineConfig::a64fx()];
        for l2 in [1 << 20, 4 << 20, 64 << 20, 256 << 20] {
            cfgs.push(MachineConfig::rvv_gem5(2048, 8, l2));
            cfgs.push(MachineConfig::sve_gem5(512, l2));
        }
        for cfg in &cfgs {
            let c = cfg.core;
            unit.extend([c.scalar_cpi, c.kernel_scalar_cpi, c.issue_cycles]);
            let l2 = cfg.mem.l2.hit_latency;
            for beyond in [l2, l2 + cfg.mem.mem_latency] {
                let exposed = f64::from(beyond) * c.scalar_miss_exposure;
                unit.extend([exposed, exposed + c.kernel_scalar_cpi]);
            }
            bulk_cpi.push(c.scalar_cpi);
        }
        (unit, bulk_cpi)
    }

    #[test]
    fn scalar_clock_commits_exactly_like_the_u64_formula() {
        let (unit, bulk_cpi) = scalar_charges();
        let mut rng = lva_sim::Rng::new(0x5ca1a);
        let (mut one, mut more) = (0u64, 0u64);
        for _ in 0..200 {
            let mut m = machine();
            let (mut now, mut frac) = (0u64, 0.0f64);
            for _ in 0..500 {
                let charge = if rng.gen_range(0, 16) == 0 {
                    // A bulk charge of up to 10⁶ scalar ops, log-uniform.
                    let n = 10f64.powf(6.0 * rng.next_f64()) as u64;
                    n as f64 * bulk_cpi[rng.gen_range(0, bulk_cpi.len() as u64) as usize]
                } else {
                    unit[rng.gen_range(0, unit.len() as u64) as usize]
                };
                m.scalar_frac += charge;
                if m.scalar_frac >= 2.0 {
                    more += 1;
                } else if m.scalar_frac >= 1.0 {
                    one += 1;
                }
                m.commit_scalar();
                frac += charge;
                commit_scalar_reference(&mut now, &mut frac);
                assert_eq!(m.now, now, "clock diverged after a charge of {charge}");
                assert_eq!(m.scalar_frac.to_bits(), frac.to_bits(), "fraction diverged");
            }
        }
        assert!(one > 10_000 && more > 10_000, "commits of one cycle {one}, of two or more {more}");
    }

    /// A small workload with phases, dependent chains (RAW + startup stalls),
    /// and memory traffic (mem/occupancy stalls).
    fn pipe_workload(m: &mut Machine) {
        let a = m.mem.alloc(4096);
        let vl = m.setvl(64);
        m.phase(KernelPhase::Pack, |m| {
            for i in 0..16 {
                m.vle(0, a.addr(i * 64), vl);
                m.vse(0, a.addr(i * 64), vl);
            }
        });
        m.phase(KernelPhase::Gemm, |m| {
            m.vbroadcast(0, 1.0, vl);
            for _ in 0..8 {
                m.vfmacc_vf(1, 1.5, 0, vl);
            }
            let _ = m.vfredsum(1, vl);
        });
    }

    #[test]
    fn pipe_recording_is_timing_neutral() {
        let mut off = machine();
        pipe_workload(&mut off);
        let mut on = machine();
        on.record_pipe_events();
        pipe_workload(&mut on);
        assert_eq!(on.cycles(), off.cycles(), "pipe recording must not perturb timing");
        assert_eq!(on.stalls, off.stalls, "pipe recording must not perturb stall attribution");
        assert_eq!(on.stats, off.stats, "pipe recording must not perturb the counters");
        assert_eq!(on.phases, off.phases, "pipe recording must not perturb the phase timers");
        assert!(!on.take_pipe_events().is_empty());
        assert_eq!(on.pipe_events_dropped(), 0);
        assert!(off.take_pipe_events().is_empty());
    }

    #[test]
    fn pipe_events_are_well_formed() {
        let mut m = machine();
        m.record_pipe_events();
        pipe_workload(&mut m);
        let total = m.cycles();
        let evs = m.take_pipe_events();
        assert!(evs.iter().any(|e| matches!(e, PipeEvent::Stall { .. })), "expected stalls");

        // Stall intervals are non-empty, within the run, and per cause the
        // recorded durations sum to the stall breakdown counters.
        let mut by_cause = std::collections::HashMap::new();
        for e in &evs {
            if let PipeEvent::Stall { cause, start, end } = e {
                assert!(start < end, "empty/inverted interval {e:?}");
                assert!(*end <= total, "interval {e:?} past end of run {total}");
                *by_cause.entry(*cause).or_insert(0u64) += end - start;
            }
        }
        for (cause, cycles) in &by_cause {
            assert_eq!(
                *cycles,
                m.stalls.get(*cause),
                "recorded intervals for {cause:?} disagree with the stall breakdown"
            );
        }

        // Phase begin/end pairs balance and nest in time order.
        let mut open: Vec<(KernelPhase, u64)> = Vec::new();
        let mut seen_phases = 0;
        for e in &evs {
            match e {
                PipeEvent::PhaseBegin { phase, at } => open.push((*phase, *at)),
                PipeEvent::PhaseEnd { phase, at } => {
                    let (p, t0) = open.pop().expect("PhaseEnd without PhaseBegin");
                    assert_eq!(p, *phase);
                    assert!(*at >= t0);
                    seen_phases += 1;
                }
                PipeEvent::Stall { .. } => {}
            }
        }
        assert!(open.is_empty(), "unclosed phases: {open:?}");
        assert_eq!(seen_phases, 2);
    }
}
