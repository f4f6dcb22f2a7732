//! Experiment definition and execution.

use lva_isa::{IdealSpec, Machine, MachineConfig, ProbeTape, ReplayTrace, SegmentReplay};
use lva_nn::network::{LayerReport, Network};
use lva_nn::{ConvPolicy, ModelId, NetReport};
use lva_tensor::host_random;
use std::sync::Arc;

/// A hardware design point of the co-design space (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwTarget {
    /// RISC-V Vector @ gem5: vector length (bits), lanes (2..8), L2 bytes.
    RvvGem5 { vlen_bits: usize, lanes: usize, l2_bytes: usize },
    /// ARM-SVE @ gem5: vector length (bits, 512..2048), L2 bytes; lanes are
    /// proportional to the vector length on this platform (§VI-D).
    SveGem5 { vlen_bits: usize, l2_bytes: usize },
    /// The Fujitsu A64FX profile (fixed 512-bit, 8 MB L2, prefetch).
    A64fx,
}

impl HwTarget {
    /// Build the machine configuration.
    pub fn machine_config(&self) -> MachineConfig {
        match *self {
            HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes } => {
                MachineConfig::rvv_gem5(vlen_bits, lanes, l2_bytes)
            }
            HwTarget::SveGem5 { vlen_bits, l2_bytes } => {
                MachineConfig::sve_gem5(vlen_bits, l2_bytes)
            }
            HwTarget::A64fx => MachineConfig::a64fx(),
        }
    }

    /// L2 capacity of the design point in bytes (8 MB on the fixed A64FX
    /// profile). The capacity the energy model's sqrt access scaling and
    /// leakage terms key on.
    pub fn l2_bytes(&self) -> usize {
        self.machine_config().mem.l2.bytes
    }

    pub fn describe(&self) -> String {
        match *self {
            HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes } => {
                format!("RVV@gem5 vlen={vlen_bits}b lanes={lanes} L2={}", fmt_bytes(l2_bytes))
            }
            HwTarget::SveGem5 { vlen_bits, l2_bytes } => {
                format!("SVE@gem5 vlen={vlen_bits}b L2={}", fmt_bytes(l2_bytes))
            }
            HwTarget::A64fx => "A64FX".into(),
        }
    }
}

/// Human-readable byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b >= (1 << 20) {
        format!("{}MB", b >> 20)
    } else if b >= (1 << 10) {
        format!("{}kB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// The network (prefix) an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub model: ModelId,
    /// Square input resolution. Use [`scaled_input`] for the paper's sizes
    /// scaled down for simulation speed.
    pub input_hw: usize,
    /// Run only the first `n` layers (e.g. Table II uses 4, Figs. 6-9 use
    /// 20); `None` runs the full network.
    pub layer_limit: Option<usize>,
}

impl Workload {
    pub fn describe(&self) -> String {
        match self.layer_limit {
            Some(n) => format!("{} ({n} layers) @ {}px", self.model.name(), self.input_hw),
            None => format!("{} @ {}px", self.model.name(), self.input_hw),
        }
    }
}

/// Input resolution for a model at a linear down-scale divisor, rounded up
/// to the model's structural alignment (YOLOv3 variants need multiples of
/// 32 for the upsample/route joins to meet).
///
/// `div = 1` is the paper's native size (608 / 416 / 224).
pub fn scaled_input(model: ModelId, div: usize) -> usize {
    assert!(div >= 1);
    let native = model.native_input();
    let raw = native.div_ceil(div);
    (raw.div_ceil(32) * 32).max(32)
}

/// One co-design experiment: hardware point x software setup x workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Experiment {
    pub hw: HwTarget,
    pub policy: ConvPolicy,
    pub workload: Workload,
    pub seed: u64,
    /// Counterfactual idealization knobs (the `lva-whatif` hook). Timing-only:
    /// with all knobs off (the default) every run is bit-identical to a
    /// machine that never heard of them.
    pub ideal: IdealSpec,
}

/// Measurements from one experiment run (one simulated inference, after
/// network setup is excluded, matching §VI's methodology).
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub cycles: u64,
    /// Mathematical flops of the executed layers.
    pub flops: u64,
    /// Average consumed vector length in bits (Table III).
    pub avg_vlen_bits: f64,
    pub l1_miss_rate: f64,
    pub l2_miss_rate: f64,
    pub report: NetReport,
}

impl RunSummary {
    /// gem5-`stats.txt`-flavoured dump of the run's counters: cycle count,
    /// instruction mix, consumed vector length, stall causes and per-level
    /// cache statistics, one `name value` pair per line (`lva run --stats`).
    pub fn dump_stats(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let v = &self.report.vpu;
        let st = &self.report.mem;
        let mut line = |k: &str, val: String| {
            let _ = writeln!(out, "{k:<48} {val}");
        };
        line("sim_cycles", self.cycles.to_string());
        line("sim_flops", self.flops.to_string());
        line("system.cpu.vpu.vec_instrs", v.vec_instrs.to_string());
        line("system.cpu.vpu.vec_mem_instrs", v.vec_mem_instrs.to_string());
        line("system.cpu.vpu.avg_vlen_bits", format!("{:.1}", self.avg_vlen_bits));
        line("system.cpu.scalar_ops", v.scalar_ops.to_string());
        for (name, c) in [("l1d", &st.l1), ("l2", &st.l2), ("vcache", &st.vcache)] {
            if c.accesses == 0 && c.prefetch_fills == 0 {
                continue;
            }
            line(&format!("system.{name}.overall_accesses"), c.accesses.to_string());
            line(&format!("system.{name}.overall_misses"), c.misses.to_string());
            line(&format!("system.{name}.overall_miss_rate"), format!("{:.6}", c.miss_rate()));
        }
        line("system.mem.reads", st.dram_reads.to_string());
        line("system.mem.writes", st.dram_writes.to_string());
        out
    }
}

/// One experiment executed once under the semantic recorder: the op stream
/// every timing decision depends on (setup plus every frame,
/// `ResetTiming`-delimited), the probe tape (per-probe serving levels at
/// the capture geometry), and what the capture run itself measured. A run
/// is a one-frame recording. Capture costs one full simulation; the stream
/// can then be re-timed at arbitrarily many design points without
/// re-executing kernels.
#[derive(Debug, Clone)]
pub struct CapturedRun {
    pub trace: Arc<ReplayTrace>,
    pub tape: Arc<ProbeTape>,
    /// Cycles per captured frame, in order (one entry for a run).
    pub per_frame_cycles: Vec<u64>,
    /// The last frame's summary at the capture configuration —
    /// bit-identical to what [`Experiment::run`] returns for a run, and the
    /// source of the static per-layer metadata (flops, GEMM dims,
    /// algorithm, shapes) that re-timed summaries inherit.
    pub summary: RunSummary,
}

impl CapturedRun {
    /// Number of captured frames.
    pub fn frames(&self) -> usize {
        self.per_frame_cycles.len()
    }
}

/// The mode of the `lva-retime` engine, which re-times recordings at
/// other design points. No `exp-*` bin drives the engine; the host
/// benchmark does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetimeOpt {
    /// Full simulation for every run.
    #[default]
    Off,
    /// Trace once per semantic stream, re-time everywhere else; fall back
    /// to full simulation when no certificate covers the stream.
    On,
    /// `On`, plus a full simulation per run with a bit-identity assertion
    /// (cycles and the complete report must match the retimed result).
    Verify,
}

impl RetimeOpt {
    pub fn enabled(self) -> bool {
        self != RetimeOpt::Off
    }
}

/// Result of a multi-image streaming run (§VI: "continuously running
/// inference over a stream of images" is the paper's deployment model —
/// setup is paid once, caches stay warm between frames).
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Cycles per frame, in order. The first frame runs on cold caches.
    pub per_frame_cycles: Vec<u64>,
    /// The final frame's summary (steady state).
    pub steady: RunSummary,
}

impl StreamSummary {
    /// Cold-start (first frame) cycles.
    pub fn cold_cycles(&self) -> u64 {
        *self.per_frame_cycles.first().expect("at least one frame")
    }

    /// Steady-state cycles: the last frame.
    pub fn steady_cycles(&self) -> u64 {
        *self.per_frame_cycles.last().expect("at least one frame")
    }
}

impl Experiment {
    pub fn new(hw: HwTarget, policy: ConvPolicy, workload: Workload) -> Self {
        Experiment { hw, policy, workload, seed: 42, ideal: IdealSpec::NONE }
    }

    /// Same experiment under a counterfactual [`IdealSpec`].
    #[must_use]
    pub fn with_ideal(mut self, spec: IdealSpec) -> Self {
        self.ideal = spec;
        self
    }

    fn build(&self, capture: bool) -> (Machine, Network, lva_tensor::Shape) {
        let (specs, shape) = self.workload.model.build(self.workload.input_hw);
        let specs = match self.workload.layer_limit {
            Some(n) => specs[..n.min(specs.len())].to_vec(),
            None => specs,
        };
        let mut m = self.machine();
        if capture {
            // Capture from the very first op so replay reproduces the cache
            // state the measured segment starts from (setup warms the
            // hierarchy exactly as it did on the capture run), with the
            // probe tape that tape refits read.
            m.start_capture();
            m.record_probe_tape();
        }
        let net = Network::build(&mut m, &specs, shape, self.policy, self.seed);
        (m, net, shape)
    }

    fn summarize(m: &Machine, report: lva_nn::NetReport) -> RunSummary {
        let mem = m.sys.stats();
        RunSummary {
            cycles: report.cycles,
            flops: report.flops(),
            avg_vlen_bits: m.stats.avg_vlen_bits(),
            l1_miss_rate: mem.l1.miss_rate(),
            l2_miss_rate: mem.l2.miss_rate(),
            report,
        }
    }

    /// Build the machine and network, run one inference, return summary.
    /// Setup is excluded, like the paper: a run is the one-frame
    /// [`Experiment::run_stream`].
    pub fn run(&self) -> RunSummary {
        self.run_stream(1).steady
    }

    /// Like [`Experiment::run`], with an `lva-prof` memory profiler tapped
    /// into the hierarchy for the duration of the inference.
    ///
    /// Returns the summary (whose cache stats now carry the 3C miss
    /// classification) plus the full [`lva_prof::MemProfile`] — per-level
    /// reuse-distance histograms, predicted hit-rate-vs-capacity curves,
    /// and per-layer/per-phase attribution. Profiling is pure observation:
    /// cycle counts are identical to an unprofiled run.
    pub fn run_profiled(&self) -> (RunSummary, lva_prof::MemProfile) {
        let (mut m, mut net, shape) = self.build(false);
        m.reset_timing();
        let handle = lva_prof::attach(&mut m.sys);
        let image = host_random(shape.len(), self.seed ^ 0x1533);
        let mut report = net.run(&mut m, &image);
        let profile = handle.detach(&mut m.sys);
        // Refresh the snapshot so the report carries the 3C classification.
        report.mem = m.sys.stats();
        (Self::summarize(&m, report), profile)
    }

    /// [`Experiment::run`], with each layer's vector ops, scalar charges,
    /// cache accesses, DRAM transfers and prefetch fills charged to it from
    /// the machine's layer book.
    ///
    /// Returns the summary plus the per-layer [`lva_energy::EnergyAttribution`],
    /// whose total reconciles with `model.estimate(...)` on the same run.
    pub fn run_energy(
        &self,
        model: &lva_energy::EnergyModel,
    ) -> (RunSummary, lva_energy::EnergyAttribution) {
        let (mut m, mut net, shape) = self.build(false);
        let s = self.run_frames(&mut m, &mut net, shape, 1).steady;
        let att =
            lva_energy::EnergyAttribution::new(&s.report, m.layers(), model, self.hw.l2_bytes());
        (s, att)
    }

    /// Like [`Experiment::run`], recording pipeline events and returning a
    /// Chrome trace-event timeline (layers, kernel phases, and attributed
    /// stall intervals as parallel tracks over simulated cycles).
    pub fn run_timeline(&self) -> (RunSummary, lva_trace::ChromeTrace) {
        let (mut m, mut net, shape) = self.build(false);
        m.record_pipe_events();
        let s = self.run_frames(&mut m, &mut net, shape, 1).steady;
        let dropped = m.pipe_events_dropped();
        if dropped > 0 {
            eprintln!("run_timeline: recorder cap hit, {dropped} pipeline events dropped (timeline truncated)");
        }
        let events = m.take_pipe_events();
        // Absorb stall gaps below ~1/100k of the run: invisible at any
        // usable zoom, and it keeps full-network exports Perfetto-sized.
        let resolution = m.cycles() / 100_000;
        let trace = lva_prof::timeline_coarse(&events, m.layers(), resolution);
        (s, trace)
    }

    /// Run `frames` inferences back-to-back on the same machine (caches
    /// stay warm across frames), resetting the clock per frame.
    ///
    /// # Panics
    /// Panics if `frames == 0`.
    pub fn run_stream(&self, frames: usize) -> StreamSummary {
        let (mut m, mut net, shape) = self.build(false);
        self.run_frames(&mut m, &mut net, shape, frames)
    }

    fn run_frames(
        &self,
        m: &mut Machine,
        net: &mut Network,
        shape: lva_tensor::Shape,
        frames: usize,
    ) -> StreamSummary {
        assert!(frames > 0, "need at least one frame");
        let mut per_frame = Vec::with_capacity(frames);
        let mut last = None;
        for f in 0..frames {
            m.reset_timing();
            let image = host_random(shape.len(), self.seed ^ (0x1533 + f as u64));
            let report = net.run(m, &image);
            per_frame.push(report.cycles);
            last = Some(Self::summarize(m, report));
        }
        StreamSummary { per_frame_cycles: per_frame, steady: last.expect("frames > 0") }
    }

    /// Like [`Experiment::run`], but capturing the semantic op stream and
    /// probe tape alongside the (identical) summary. One capture feeds any
    /// number of [`Experiment::retime_live`] / [`Experiment::retime_tape`]
    /// calls at other design points.
    pub fn run_traced(&self) -> CapturedRun {
        self.run_stream_traced(1)
    }

    /// [`Experiment::run_stream`] under the semantic recorder: one capture
    /// of setup plus `frames` inferences.
    ///
    /// # Panics
    /// Panics if `frames == 0`.
    pub fn run_stream_traced(&self, frames: usize) -> CapturedRun {
        let (mut m, mut net, shape) = self.build(true);
        let s = self.run_frames(&mut m, &mut net, shape, frames);
        let trace = m.finish_capture().expect("capture started in build");
        let tape = m.take_probe_tape().expect("tape recording started in build");
        CapturedRun {
            trace: Arc::new(trace),
            tape: Arc::new(tape),
            per_frame_cycles: s.per_frame_cycles,
            summary: s.steady,
        }
    }

    /// A fresh machine at this experiment's design point: the hardware
    /// configuration under its idealization. Runs build the network on it;
    /// replays re-time captures on it.
    pub fn machine(&self) -> Machine {
        let mut cfg = self.hw.machine_config();
        cfg.ideal = self.ideal;
        Machine::new(cfg)
    }

    /// Re-time a captured run at this experiment's design point by
    /// re-driving the full memory hierarchy with the recorded addresses
    /// (live replay). Exact on every configuration axis — including cache
    /// geometry changes the probe tape cannot absorb — at the cost of
    /// simulating the hierarchy again.
    pub fn retime_live(&self, cap: &CapturedRun) -> RunSummary {
        self.replay_live(cap, false).0.steady
    }

    /// [`Experiment::retime_live`] for every frame of a recording. With
    /// `record_tape`, also records a fresh probe tape at this
    /// configuration's geometry, so later timing-only variations can take
    /// the (much faster) [`Experiment::replay_tape`] path.
    pub fn replay_live(
        &self,
        cap: &CapturedRun,
        record_tape: bool,
    ) -> (StreamSummary, Option<ProbeTape>) {
        let mut m = self.machine();
        if record_tape {
            m.record_probe_tape();
        }
        let segs = m.replay(&cap.trace);
        let tape = m.take_probe_tape();
        (Self::reconstruct(cap, segs), tape)
    }

    /// Re-time a captured run by replaying its probe tape: each memory
    /// probe's serving level is read back instead of re-simulated, so the
    /// hierarchy state machine never runs. Exact for every timing-only axis
    /// (latency constants, lanes, core CPI, `IdealSpec`); refuses with an
    /// error if this configuration changes the hierarchy's *state* geometry
    /// (capacities, associativity, line size, prefetcher).
    pub fn retime_tape(&self, cap: &CapturedRun) -> Result<RunSummary, String> {
        self.replay_tape(cap, &cap.tape).map(|s| s.steady)
    }

    /// [`Experiment::retime_tape`] for every frame of a recording, with an
    /// explicit tape — e.g. one recorded by [`Experiment::replay_live`] at
    /// a different geometry than the original capture.
    pub fn replay_tape(
        &self,
        cap: &CapturedRun,
        tape: &Arc<ProbeTape>,
    ) -> Result<StreamSummary, String> {
        let mut m = self.machine();
        m.play_probe_tape(Arc::clone(tape))?;
        let segs = m.replay(&cap.trace);
        Ok(Self::reconstruct(cap, segs))
    }

    /// Rebuild what a replay measured: segment 0 is setup and segments 1..
    /// are the frames. The last frame's summary grafts the capture's static
    /// per-layer metadata (flops, GEMM dims, algorithm, output shapes) onto
    /// the re-timed dynamics.
    fn reconstruct(cap: &CapturedRun, mut segs: Vec<SegmentReplay>) -> StreamSummary {
        assert_eq!(segs.len(), cap.frames() + 1, "frame count drifted across replay");
        let seg = segs.pop().expect("at least one frame");
        let per_frame_cycles: Vec<u64> =
            segs[1..].iter().map(|s| s.cycles).chain(std::iter::once(seg.cycles)).collect();
        let stat_layers = &cap.summary.report.layers;
        assert_eq!(seg.layers.len(), stat_layers.len(), "layer count drifted across replay");
        let layers: Vec<LayerReport> = seg
            .layers
            .iter()
            .zip(stat_layers)
            .map(|(rec, stat)| {
                debug_assert_eq!(rec.index, stat.index);
                LayerReport::from_record(rec, stat.flops, stat.mnk, stat.algo, stat.out_shape)
            })
            .collect();
        let avg_vlen_bits = seg.vpu.avg_vlen_bits();
        let l1_miss_rate = seg.mem.l1.miss_rate();
        let l2_miss_rate = seg.mem.l2.miss_rate();
        let report = NetReport {
            layers,
            cycles: seg.cycles,
            phases: seg.phases,
            vpu: seg.vpu,
            mem: seg.mem,
            stalls: seg.stalls,
        };
        let steady = RunSummary {
            cycles: seg.cycles,
            flops: report.flops(),
            avg_vlen_bits,
            l1_miss_rate,
            l2_miss_rate,
            report,
        };
        StreamSummary { per_frame_cycles, steady }
    }
}

// ---- Shims for the host benchmark ---------------------------------------
//
// Kept only because the host benchmark (`benchmark/`), which changes
// separately from the simulator, still calls them. Delete them together
// with those calls.
impl Experiment {
    /// Does nothing. Its only caller is the host benchmark (`benchmark/`).
    pub fn refit_geometry(&self) {}

    /// [`Experiment::retime_tape`]; `plan` and `memo` are ignored. Its only
    /// caller is the host benchmark (`benchmark/`).
    pub fn retime_tape_memoized(
        &self,
        cap: &CapturedRun,
        _plan: &lva_isa::RefitPlan,
        _memo: &mut lva_isa::LayerMemo,
    ) -> Result<RunSummary, String> {
        self.retime_tape(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_kernels::GemmVariant;

    #[test]
    fn scaled_inputs_are_aligned() {
        assert_eq!(scaled_input(ModelId::Yolov3, 1), 608);
        assert_eq!(scaled_input(ModelId::Yolov3, 4), 160);
        assert_eq!(scaled_input(ModelId::Yolov3, 8), 96);
        assert_eq!(scaled_input(ModelId::Vgg16, 4), 64);
        assert!(scaled_input(ModelId::Yolov3Tiny, 2).is_multiple_of(32));
    }

    #[test]
    fn experiment_runs_and_measures() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
        );
        let s = e.run();
        assert!(s.cycles > 0);
        assert!(s.flops > 0);
        assert!(s.avg_vlen_bits > 0.0);
        assert_eq!(s.report.layers.len(), 4);
    }

    #[test]
    fn longer_vectors_fewer_cycles_same_flops() {
        let run = |vlen| {
            Experiment::new(
                HwTarget::RvvGem5 { vlen_bits: vlen, lanes: 8, l2_bytes: 1 << 20 },
                ConvPolicy::gemm_only(GemmVariant::opt3()),
                Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
            )
            .run()
        };
        let a = run(512);
        let b = run(4096);
        assert_eq!(a.flops, b.flops);
        assert!(b.cycles < a.cycles);
    }

    #[test]
    fn profiled_run_is_timing_neutral_and_classifies_misses() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
        );
        let plain = e.run();
        let (s, profile) = e.run_profiled();
        assert_eq!(s.cycles, plain.cycles, "profiling must not perturb timing");
        let l2 = profile.level(lva_sim::TapLevel::L2).expect("l2 profiled");
        assert!(l2.accesses > 0);
        // Every L2 miss got a 3C class, and the report carries it.
        let c = s.report.mem.l2.three_c;
        assert_eq!(c.classified(), s.report.mem.l2.misses);
        assert_eq!(c, l2.three_c);
        // Layer attribution covered all four layers.
        assert_eq!(profile.layers.len(), 4);
        assert!(profile.layers.iter().all(|l| l.accesses > 0));
    }

    #[test]
    fn timeline_run_is_timing_neutral_and_valid() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(2) },
        );
        let plain = e.run();
        let (s, trace) = e.run_timeline();
        assert_eq!(s.cycles, plain.cycles, "event recording must not perturb timing");
        assert!(!trace.is_empty());
        assert_eq!(trace.validate(), Ok(()));
    }

    #[test]
    fn streaming_runs_are_warm_after_frame_one() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 64 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(4) },
        );
        let s = e.run_stream(3);
        assert_eq!(s.per_frame_cycles.len(), 3);
        assert!(s.steady_cycles() <= s.cold_cycles(), "warm caches cannot be slower");
        // Frames 2 and 3 are identical (steady state, deterministic).
        assert_eq!(s.per_frame_cycles[1], s.per_frame_cycles[2]);
    }

    #[test]
    fn run_summary_stats_dump() {
        let e = Experiment::new(
            HwTarget::SveGem5 { vlen_bits: 512, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(2) },
        );
        let s = e.run();
        let dump = s.dump_stats();
        assert!(dump.contains("sim_cycles"));
        assert!(dump.contains("system.l1d.overall_miss_rate"));
        assert!(!dump.contains("vcache"), "SVE has no vector cache");
        for l in dump.lines() {
            let v = l.split_whitespace().nth(1).expect("value column");
            assert!(v.parse::<f64>().is_ok(), "{l}");
        }
    }

    #[test]
    fn describes() {
        let hw = HwTarget::SveGem5 { vlen_bits: 2048, l2_bytes: 256 << 20 };
        assert_eq!(hw.describe(), "SVE@gem5 vlen=2048b L2=256MB");
        let w = Workload { model: ModelId::Vgg16, input_hw: 64, layer_limit: None };
        assert_eq!(w.describe(), "VGG16 @ 64px");
    }
}
