//! The retime engine: one front door for experiment execution that
//! transparently picks the cheapest sound path.
//!
//! A run is a one-frame recording, so [`RetimeEngine::run_explained`] and
//! [`RetimeEngine::run_stream`] share one dispatcher. Per request, in
//! order:
//!
//! 1. mode `Off` → full simulation (the engine is a no-op).
//! 2. certificate gate refused → full simulation, refusal recorded.
//! 3. no recording for the (stream, frame count) → capture (one full
//!    simulation under the recorder; its summary *is* the answer).
//! 4. recording + a tape at this geometry → tape refit.
//! 5. recording, no tape at this geometry → live replay. A one-frame
//!    recording's live replay records a fresh tape so the next run at
//!    this geometry refits; a multi-frame one's does not (see the
//!    dispatcher).
//!
//! Under mode `Verify` every request additionally runs the full
//! simulator and asserts the results are bit-identical — per-frame
//! cycles, flops, the complete per-layer report with stall breakdowns,
//! VPU statistics and cache statistics.
//!
//! Every path is bit-identical, so a sweep driven through the engine
//! produces byte-identical reports for any execution order or store
//! state.

use crate::cert::CertGate;
use crate::key::StreamKey;
use crate::store::RetimeStore;
use lva_core::{Experiment, RetimeOpt, RunSummary, StreamSummary};
use std::sync::Arc;

/// Aggregate path counters, all monotone. One-frame requests (runs) count
/// under `captures`, `tape_refits` and `live_replays`; multi-frame ones
/// under the `stream_*` counters.
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
    /// An engine with an explicit certificate gate: [`CertGate::standard`],
    /// or a synthetic kernel set or pre-decided verdict.
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
    /// dispatch order) and name the path that produced the result.
    /// Bit-identical to [`Experiment::run`] on every path; asserted per run
    /// under mode `Verify`.
    pub fn run_explained(&mut self, e: &Experiment) -> (RunSummary, &'static str) {
        let (s, path) = self.dispatch(e, 1);
        (s.steady, path)
    }

    /// [`Experiment::run_stream`] through the engine: a `frames`-frame
    /// recording is captured once per stream and re-timed like a run.
    pub fn run_stream(&mut self, e: &Experiment, frames: usize) -> StreamSummary {
        self.dispatch(e, frames).0
    }

    fn dispatch(&mut self, e: &Experiment, frames: usize) -> (StreamSummary, &'static str) {
        if !self.mode.enabled() {
            self.counters.full_runs += 1;
            return (e.run_stream(frames), "full");
        }
        if !self.gate_ok() {
            self.counters.refused_runs += 1;
            return (e.run_stream(frames), "refused");
        }
        let sk = StreamKey::of(e);
        let fp = mem_fingerprint(e);
        let (summary, path) = match self.store.lookup(&sk, frames, &fp) {
            None => {
                let cap = self.store.insert(sk, e.run_stream_traced(frames), fp);
                let s = StreamSummary {
                    per_frame_cycles: cap.per_frame_cycles.clone(),
                    steady: cap.summary.clone(),
                };
                (s, "capture")
            }
            Some((cap, Some(tape))) => {
                let s = e
                    .replay_tape(&cap, &tape)
                    .expect("tape indexed under this geometry fingerprint");
                (s, "tape-refit")
            }
            Some((cap, None)) => {
                // Tape policy: only a one-frame recording's live replay
                // records a tape, which the next run at that geometry
                // refits (the host benchmark's `retime_unseen` does so on
                // the last two of each stream's six requests). No caller
                // re-times a multi-frame stream twice at one geometry, and
                // stream tapes are large: +30.5 MB on the benchmark's
                // `serve_ladder`, whose 493 MB peak has a 5% bound.
                let (s, tape) = e.replay_live(&cap, frames == 1);
                if let Some(tape) = tape {
                    self.store.add_tape(sk, frames, fp, Arc::new(tape));
                }
                (s, "live-replay")
            }
        };
        let c = &mut self.counters;
        let counter = match (path, frames == 1) {
            ("capture", true) => &mut c.captures,
            ("capture", false) => &mut c.stream_captures,
            ("tape-refit", true) => &mut c.tape_refits,
            ("tape-refit", false) => &mut c.stream_refits,
            (_, true) => &mut c.live_replays,
            (_, false) => &mut c.stream_live_replays,
        };
        *counter += 1;
        self.verify(e, frames, &summary);
        (summary, path)
    }

    /// Mode `Verify`: run the full simulator and require bit-identity.
    fn verify(&mut self, e: &Experiment, frames: usize, got: &StreamSummary) {
        if self.mode != RetimeOpt::Verify {
            return;
        }
        let full = e.run_stream(frames);
        let at = || format!("{} ({})", e.hw.describe(), e.workload.describe());
        assert_eq!(
            got.per_frame_cycles,
            full.per_frame_cycles,
            "retime verify: per-frame cycles diverged at {}",
            at()
        );
        let (got, full) = (&got.steady, &full.steady);
        assert_eq!(got.flops, full.flops, "retime verify: flops diverged at {}", at());
        assert_eq!(got.report, full.report, "retime verify: report diverged at {}", at());
        assert_eq!(
            got.avg_vlen_bits.to_bits(),
            full.avg_vlen_bits.to_bits(),
            "retime verify: avg vlen diverged at {}",
            at()
        );
        assert_eq!(
            (got.l1_miss_rate.to_bits(), got.l2_miss_rate.to_bits()),
            (full.l1_miss_rate.to_bits(), full.l2_miss_rate.to_bits()),
            "retime verify: miss rates diverged at {}",
            at()
        );
        self.counters.verified += 1;
    }
}
