//! The retime engine: one front door for experiment execution that
//! transparently picks the cheapest sound path.
//!
//! Dispatch per request, in order:
//!
//! 1. mode `Off` → full simulation (the engine is a no-op).
//! 2. certificate gate refused → full simulation, refusal recorded.
//! 3. no recording for the stream → capture (one full simulation under
//!    the recorder; its summary *is* the answer).
//! 4. recording + a tape at this geometry → tape refit.
//! 5. recording, no tape at this geometry → live replay. A run's live
//!    replay records a fresh tape so the next run at this geometry
//!    refits; a multi-frame stream's does not (see [`RetimeStore`]).
//!
//! Under mode `Verify` every request additionally runs the full
//! simulator and asserts the results are bit-identical — cycles, flops,
//! the complete per-layer report with stall breakdowns, VPU statistics
//! and cache statistics.
//!
//! Every path is bit-identical, so a sweep driven through the engine
//! produces byte-identical reports for any execution order or store
//! state.

use crate::cert::CertGate;
use crate::key::StreamKey;
use crate::store::RetimeStore;
use lva_core::{Experiment, RetimeOpt, RunSummary, StreamSummary};
use lva_trace::Json;
use std::sync::Arc;

/// Aggregate path counters, all monotone.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub full_runs: u64,
    pub refused_runs: u64,
    pub captures: u64,
    pub tape_refits: u64,
    pub live_replays: u64,
    pub verified: u64,
    pub stream_captures: u64,
    pub stream_refits: u64,
    pub stream_live_replays: u64,
    pub energy_retimes: u64,
}

/// See the module docs.
#[derive(Debug)]
pub struct RetimeEngine {
    mode: RetimeOpt,
    gate: CertGate,
    store: RetimeStore,
    counters: Counters,
    /// First refusal reason observed, if any (stable across runs: the
    /// gate verdict is computed once).
    refusal: Option<String>,
}

fn mem_fingerprint(e: &Experiment) -> String {
    e.hw.machine_config().mem.state_fingerprint()
}

impl RetimeEngine {
    pub fn new(mode: RetimeOpt) -> Self {
        Self::with_gate(mode, CertGate::standard())
    }

    /// An engine with an explicit certificate gate (tests inject synthetic
    /// kernel sets or pre-decided verdicts).
    pub fn with_gate(mode: RetimeOpt, gate: CertGate) -> Self {
        RetimeEngine {
            mode,
            gate,
            store: RetimeStore::new(),
            counters: Counters::default(),
            refusal: None,
        }
    }

    /// Cap the recording store's byte budget.
    #[must_use]
    pub fn with_store(mut self, store: RetimeStore) -> Self {
        self.store = store;
        self
    }

    pub fn mode(&self) -> RetimeOpt {
        self.mode
    }

    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    pub fn store(&self) -> &RetimeStore {
        &self.store
    }

    /// The refusal reason, if the certificate gate refused retiming.
    pub fn refusal(&self) -> Option<&str> {
        self.refusal.as_deref()
    }

    /// Refuse to retime a shared-port (multi-core) simulation and record
    /// why. Kernel certificates prove a stream is invariant under
    /// *single-core* timing perturbations; with N cores contending on one
    /// L2/DRAM port, each core's timing depends on every other core's
    /// interleaved traffic — a global property no per-kernel certificate
    /// covers. Callers (`exp-scale --retime`) invoke this once per sweep
    /// and fall back to the full SoC simulation, which is exactly the
    /// engine's contract for any refusal: bit-identical output, no
    /// speedup. Returns the recorded reason.
    pub fn refuse_contention(&mut self) -> &'static str {
        self.counters.refused_runs += 1;
        if self.refusal.is_none() {
            self.refusal = Some(crate::cert::CONTENTION_REFUSAL.to_string());
        }
        crate::cert::CONTENTION_REFUSAL
    }

    /// `Ok` if retiming is certified; records the refusal otherwise.
    fn gate_ok(&mut self) -> bool {
        match self.gate.check() {
            Ok(()) => true,
            Err(reason) => {
                self.refusal = Some(reason);
                false
            }
        }
    }

    /// Run one experiment through the engine (see module docs for the
    /// dispatch order). Bit-identical to [`Experiment::run`] on every
    /// path; asserted per run under mode `Verify`.
    pub fn run(&mut self, e: &Experiment) -> RunSummary {
        self.run_explained(e).0
    }

    /// [`Self::run`], also naming the path that produced the result.
    pub fn run_explained(&mut self, e: &Experiment) -> (RunSummary, &'static str) {
        if !self.mode.enabled() {
            self.counters.full_runs += 1;
            return (e.run(), "full");
        }
        if !self.gate_ok() {
            self.counters.refused_runs += 1;
            return (e.run(), "refused");
        }
        let sk = StreamKey::of(e);
        let fp = mem_fingerprint(e);
        let (summary, path) = match self.store.lookup(&sk, &fp) {
            None => {
                let cap = self.store.insert_trace(sk, e.run_traced(), fp);
                self.counters.captures += 1;
                (cap.summary.clone(), "capture")
            }
            Some((cap, Some(tape))) => {
                let s = e
                    .retime_tape_with(&cap, &tape)
                    .expect("tape indexed under this geometry fingerprint");
                self.counters.tape_refits += 1;
                (s, "tape-refit")
            }
            Some((cap, None)) => {
                let (s, tape) = e.retime_live_recording(&cap);
                self.store.add_tape(&sk, fp, Arc::new(tape));
                self.counters.live_replays += 1;
                (s, "live-replay")
            }
        };
        self.verify(e, &summary);
        (summary, path)
    }

    /// [`Experiment::run_stream`] through the engine: streaming captures
    /// are recorded per (stream, frame count) and re-timed like runs.
    pub fn run_stream(&mut self, e: &Experiment, frames: usize) -> StreamSummary {
        if !self.mode.enabled() {
            self.counters.full_runs += 1;
            return e.run_stream(frames);
        }
        if !self.gate_ok() {
            self.counters.refused_runs += 1;
            return e.run_stream(frames);
        }
        let sk = StreamKey::of(e);
        let fp = mem_fingerprint(e);
        let summary = match self.store.lookup_stream(&sk, frames, &fp) {
            None => {
                let cap = e.run_stream_traced(frames);
                let s = cap.summary.clone();
                self.store.insert_stream(sk, frames, cap, fp);
                self.counters.stream_captures += 1;
                s
            }
            Some((cap, true)) => {
                self.counters.stream_refits += 1;
                e.retime_stream_tape(&cap).expect("fingerprint-matched stream tape")
            }
            Some((cap, false)) => {
                self.counters.stream_live_replays += 1;
                e.retime_stream_live(&cap)
            }
        };
        self.verify_stream(e, frames, &summary);
        summary
    }

    /// [`Experiment::run_energy`] through the engine. The energy probe
    /// consumes the live event stream, so this path live-replays the
    /// recording with the probe attached at the setup boundary (skipping
    /// functional execution); attribution and summary are bit-identical
    /// to the full probed run.
    pub fn run_energy(
        &mut self,
        e: &Experiment,
        model: &lva_core::EnergyModel,
    ) -> (RunSummary, lva_core::EnergyAttribution) {
        if !self.mode.enabled() {
            self.counters.full_runs += 1;
            return e.run_energy(model);
        }
        if !self.gate_ok() {
            self.counters.refused_runs += 1;
            return e.run_energy(model);
        }
        let sk = StreamKey::of(e);
        let fp = mem_fingerprint(e);
        let cap = match self.store.lookup(&sk, &fp) {
            Some((cap, _)) => cap,
            None => {
                self.counters.captures += 1;
                self.store.insert_trace(sk, e.run_traced(), fp)
            }
        };
        let (summary, att) = e.retime_energy(&cap, model);
        self.counters.energy_retimes += 1;
        self.verify(e, &summary);
        (summary, att)
    }

    /// Mode `Verify`: run the full simulator and require bit-identity.
    fn verify(&mut self, e: &Experiment, got: &RunSummary) {
        if self.mode != RetimeOpt::Verify {
            return;
        }
        let full = e.run();
        assert_eq!(
            got.cycles,
            full.cycles,
            "retime verify: cycles diverged at {} ({})",
            e.hw.describe(),
            e.workload.describe()
        );
        assert_eq!(got.flops, full.flops, "retime verify: flops diverged at {}", e.hw.describe());
        assert_eq!(
            got.report,
            full.report,
            "retime verify: report diverged at {} ({})",
            e.hw.describe(),
            e.workload.describe()
        );
        assert_eq!(
            got.avg_vlen_bits.to_bits(),
            full.avg_vlen_bits.to_bits(),
            "retime verify: avg vlen diverged at {}",
            e.hw.describe()
        );
        assert_eq!(
            (got.l1_miss_rate.to_bits(), got.l2_miss_rate.to_bits()),
            (full.l1_miss_rate.to_bits(), full.l2_miss_rate.to_bits()),
            "retime verify: miss rates diverged at {}",
            e.hw.describe()
        );
        self.counters.verified += 1;
    }

    fn verify_stream(&mut self, e: &Experiment, frames: usize, got: &StreamSummary) {
        if self.mode != RetimeOpt::Verify {
            return;
        }
        let full = e.run_stream(frames);
        assert_eq!(
            got.per_frame_cycles,
            full.per_frame_cycles,
            "retime verify: per-frame cycles diverged at {}",
            e.hw.describe()
        );
        assert_eq!(
            got.steady.report,
            full.steady.report,
            "retime verify: steady report diverged at {}",
            e.hw.describe()
        );
        self.counters.verified += 1;
    }

    /// The engine's provenance report — the `retime` section of run
    /// reports and the wallclock benchmark.
    pub fn report(&self) -> Json {
        let c = &self.counters;
        let mode = match self.mode {
            RetimeOpt::Off => "off",
            RetimeOpt::On => "on",
            RetimeOpt::Verify => "verify",
        };
        let mut j = Json::obj()
            .field("mode", mode)
            .field(
                "paths",
                Json::obj()
                    .field("full", c.full_runs)
                    .field("refused", c.refused_runs)
                    .field("captures", c.captures)
                    .field("tape_refits", c.tape_refits)
                    .field("live_replays", c.live_replays)
                    .field("stream_captures", c.stream_captures)
                    .field("stream_refits", c.stream_refits)
                    .field("stream_live_replays", c.stream_live_replays)
                    .field("energy_retimes", c.energy_retimes)
                    .field("verified", c.verified),
            )
            .field(
                "store",
                Json::obj()
                    .field("recordings", self.store.trace_count() as u64)
                    .field("approx_bytes", self.store.approx_bytes() as u64)
                    .field("capacity_bytes", self.store.capacity_bytes() as u64)
                    .field("evictions", self.store.evictions),
            )
            .field("cert_ms", self.gate.cert_ms);
        if let Some(r) = &self.refusal {
            j = j.field("refusal", r.as_str());
        }
        j
    }
}
