//! The retime store: recordings and their per-geometry probe tapes.
//!
//! Per [`StreamKey`], the store holds the captured trace plus the probe
//! tapes recorded for it, keyed by the memory-geometry fingerprint they
//! were recorded at; per (`StreamKey`, frame count), a captured
//! multi-frame stream with its capture tape. Nothing else is kept: a sweep
//! asks for each design point once, so a stored result or layer timing
//! would never be read again.
//!
//! Recordings are large, so the store enforces a byte budget over them
//! with least-recently-used eviction. An evicted stream is simply
//! captured again, and every path is bit-identical, so a sweep's results
//! do not depend on the budget.

use crate::key::StreamKey;
use lva_core::experiment::{CapturedRun, CapturedStream};
use lva_isa::ProbeTape;
use std::collections::HashMap;
use std::sync::Arc;

/// Default recording budget: generous for full sweeps at the benchmark
/// scales while bounding a runaway grid on a small host.
pub const DEFAULT_CAPACITY_BYTES: usize = 6 << 30;

/// One captured semantic stream with its per-geometry derivatives.
#[derive(Debug)]
pub struct TraceEntry {
    pub cap: Arc<CapturedRun>,
    /// Probe tapes by `MemSystemConfig::state_fingerprint()` — the
    /// capture's own tape plus any recorded by live replays at other
    /// geometries.
    pub tapes: HashMap<String, Arc<ProbeTape>>,
    last_use: u64,
}

impl TraceEntry {
    fn approx_bytes(&self) -> usize {
        self.cap.approx_bytes() + self.tapes.values().map(|t| t.approx_bytes()).sum::<usize>()
    }
}

/// A captured multi-frame stream (`lva-serve`'s unit of work). Streams
/// keep only their capture-geometry tape: serving ladders re-time across
/// timing axes, and a geometry change falls back to live replay.
#[derive(Debug)]
pub struct StreamEntry {
    pub cap: Arc<CapturedStream>,
    /// Fingerprint of the geometry the capture tape is valid at.
    pub tape_fp: String,
    last_use: u64,
}

impl StreamEntry {
    fn approx_bytes(&self) -> usize {
        self.cap.approx_bytes()
    }
}

/// The engine's recordings. See the module docs.
#[derive(Debug)]
pub struct RetimeStore {
    traces: HashMap<StreamKey, TraceEntry>,
    /// Streaming captures, keyed by stream identity × frame count.
    streams: HashMap<(StreamKey, usize), StreamEntry>,
    capacity_bytes: usize,
    tick: u64,
    /// Recordings dropped to stay under the byte budget.
    pub evictions: u64,
}

impl RetimeStore {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY_BYTES)
    }

    /// A store with an explicit recording byte budget.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        RetimeStore {
            traces: HashMap::new(),
            streams: HashMap::new(),
            capacity_bytes,
            tick: 0,
            evictions: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Bytes held by recordings and their tapes.
    pub fn approx_bytes(&self) -> usize {
        self.traces.values().map(TraceEntry::approx_bytes).sum::<usize>()
            + self.streams.values().map(StreamEntry::approx_bytes).sum::<usize>()
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    pub fn trace_count(&self) -> usize {
        self.traces.len() + self.streams.len()
    }

    /// Insert a fresh capture, its own tape indexed under `tape_fp`, and
    /// hand it back.
    pub fn insert_trace(
        &mut self,
        sk: StreamKey,
        cap: CapturedRun,
        tape_fp: String,
    ) -> Arc<CapturedRun> {
        let tick = self.next_tick();
        let cap = Arc::new(cap);
        let tapes = HashMap::from([(tape_fp, Arc::clone(&cap.tape))]);
        self.traces.insert(sk, TraceEntry { cap: Arc::clone(&cap), tapes, last_use: tick });
        self.enforce_budget();
        cap
    }

    pub fn insert_stream(
        &mut self,
        sk: StreamKey,
        frames: usize,
        cap: CapturedStream,
        tape_fp: String,
    ) {
        let tick = self.next_tick();
        self.streams
            .insert((sk, frames), StreamEntry { cap: Arc::new(cap), tape_fp, last_use: tick });
        self.enforce_budget();
    }

    /// Look up a recording for a re-time at geometry fingerprint `fp`:
    /// returns the capture and the tape recorded at `fp`, if one is stored.
    /// Touches the LRU clock.
    pub fn lookup(
        &mut self,
        sk: &StreamKey,
        fp: &str,
    ) -> Option<(Arc<CapturedRun>, Option<Arc<ProbeTape>>)> {
        let tick = self.next_tick();
        let e = self.traces.get_mut(sk)?;
        e.last_use = tick;
        Some((Arc::clone(&e.cap), e.tapes.get(fp).cloned()))
    }

    /// Look up a multi-frame recording: returns the capture and whether its
    /// tape was recorded at geometry fingerprint `fp`. Touches the LRU clock.
    pub fn lookup_stream(
        &mut self,
        sk: &StreamKey,
        frames: usize,
        fp: &str,
    ) -> Option<(Arc<CapturedStream>, bool)> {
        let tick = self.next_tick();
        let e = self.streams.get_mut(&(sk.clone(), frames))?;
        e.last_use = tick;
        Some((Arc::clone(&e.cap), e.tape_fp == fp))
    }

    /// Index a tape recorded by a live replay at geometry `fp`.
    pub fn add_tape(&mut self, sk: &StreamKey, fp: String, tape: Arc<ProbeTape>) {
        if let Some(e) = self.traces.get_mut(sk) {
            e.tapes.insert(fp, tape);
        }
        self.enforce_budget();
    }

    /// Drop least-recently-used recordings until under budget, always
    /// keeping the most recent one (the caller is about to use it).
    fn enforce_budget(&mut self) {
        while self.trace_count() > 1 && self.approx_bytes() > self.capacity_bytes {
            let oldest_trace = self
                .traces
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, e)| (k.clone(), e.last_use));
            let oldest_stream = self
                .streams
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, e)| (k.clone(), e.last_use));
            match (oldest_trace, oldest_stream) {
                (Some((tk, tu)), Some((sk, su))) => {
                    if tu <= su {
                        self.traces.remove(&tk);
                    } else {
                        self.streams.remove(&sk);
                    }
                }
                (Some((tk, _)), None) => {
                    self.traces.remove(&tk);
                }
                (None, Some((sk, _))) => {
                    self.streams.remove(&sk);
                }
                (None, None) => return,
            }
            self.evictions += 1;
        }
    }
}

// ---- Shim for the host benchmark ----------------------------------------
//
// Kept only because the host benchmark (`benchmark/`), which changes
// separately from the simulator, still calls it. Delete it together with
// that call.

impl RetimeStore {
    /// All zeros: (configs, entries, hits, misses, bytes) of layer memos,
    /// of which the store has none. Its only caller is the host benchmark
    /// (`benchmark/`).
    pub fn layer_memo_totals(&self) -> (usize, usize, u64, u64, usize) {
        (0, 0, 0, 0, 0)
    }
}

impl Default for RetimeStore {
    fn default() -> Self {
        Self::new()
    }
}
