//! The retime store: recordings and their per-geometry probe tapes.
//!
//! Per (`StreamKey`, frame count) — a run is a one-frame recording — the
//! store holds the captured trace plus the probe tapes recorded for it,
//! keyed by the memory-geometry fingerprint they were recorded at.
//! Nothing else is kept: a sweep asks for each design point once, so a
//! stored result or layer timing would never be read again.
//!
//! Recordings are large, so the store enforces a byte budget over them
//! with least-recently-used eviction. An evicted recording is simply
//! captured again, and every path is bit-identical, so a sweep's results
//! do not depend on the budget.

use crate::key::StreamKey;
use lva_core::experiment::CapturedRun;
use lva_isa::ProbeTape;
use std::collections::HashMap;
use std::sync::Arc;

/// Default recording budget: generous for full sweeps at the benchmark
/// scales while bounding a runaway grid on a small host.
pub const DEFAULT_CAPACITY_BYTES: usize = 6 << 30;

/// One recording with its per-geometry derivatives.
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
    /// The trace plus each tape once; the capture's own tape is one of
    /// `tapes`.
    fn approx_bytes(&self) -> usize {
        self.cap.trace.approx_bytes() + self.tapes.values().map(|t| t.approx_bytes()).sum::<usize>()
    }
}

/// The engine's recordings. See the module docs.
#[derive(Debug)]
pub struct RetimeStore {
    /// Recordings by stream identity × frame count.
    entries: HashMap<(StreamKey, usize), TraceEntry>,
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
        RetimeStore { entries: HashMap::new(), capacity_bytes, tick: 0, evictions: 0 }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Bytes held by recordings and their tapes.
    pub fn approx_bytes(&self) -> usize {
        self.entries.values().map(TraceEntry::approx_bytes).sum()
    }

    /// Insert a fresh capture, its own tape indexed under `tape_fp`, and
    /// hand it back.
    pub fn insert(&mut self, sk: StreamKey, cap: CapturedRun, tape_fp: String) -> Arc<CapturedRun> {
        let tick = self.next_tick();
        let cap = Arc::new(cap);
        let tapes = HashMap::from([(tape_fp, Arc::clone(&cap.tape))]);
        let entry = TraceEntry { cap: Arc::clone(&cap), tapes, last_use: tick };
        self.entries.insert((sk, cap.frames()), entry);
        self.enforce_budget();
        cap
    }

    /// Look up a `frames`-frame recording for a re-time at geometry
    /// fingerprint `fp`: returns the capture and the tape recorded at `fp`,
    /// if one is stored. Touches the LRU clock.
    pub fn lookup(
        &mut self,
        sk: &StreamKey,
        frames: usize,
        fp: &str,
    ) -> Option<(Arc<CapturedRun>, Option<Arc<ProbeTape>>)> {
        let tick = self.next_tick();
        let e = self.entries.get_mut(&(sk.clone(), frames))?;
        e.last_use = tick;
        Some((Arc::clone(&e.cap), e.tapes.get(fp).cloned()))
    }

    /// Index a tape recorded by a live replay at geometry `fp`.
    pub fn add_tape(&mut self, sk: StreamKey, frames: usize, fp: String, tape: Arc<ProbeTape>) {
        if let Some(e) = self.entries.get_mut(&(sk, frames)) {
            e.tapes.insert(fp, tape);
        }
        self.enforce_budget();
    }

    /// Drop least-recently-used recordings until under budget, always
    /// keeping the most recent one (the caller is about to use it).
    fn enforce_budget(&mut self) {
        while self.entries.len() > 1 && self.approx_bytes() > self.capacity_bytes {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
                .expect("more than one entry");
            self.entries.remove(&oldest);
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
