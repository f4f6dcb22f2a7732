//! Shared-port observatory: the [`lva_sim::PortObserver`] installed on the
//! SoC's shared L2/DRAM port.
//!
//! Two instruments share one pass over the merged cross-core transaction
//! stream:
//!
//! * a set-aware Mattson hit predictor for the merged demand stream, used
//!   to cross-check the simulated shared-L2 hit rate. A reference is
//!   predicted to hit iff its within-set stack distance is below the
//!   associativity — the classical Mattson result specialized to a
//!   set-associative true-LRU cache, where it is **exact** (the simulated
//!   L2 is exactly that model, so any disagreement is a bug, and the
//!   cross-check is gated at 1% absolute). "Distance < assoc" means
//!   exactly "the line is among the set's `assoc` most recently used
//!   distinct lines", so each set keeps only that window, most recent
//!   first: O(assoc) per transaction and `sets × assoc` words of state;
//! * time-bucketed bandwidth-utilization and queue-depth samples
//!   ([`BwSample`]) for the Chrome timeline's shared-port counter tracks.
//!
//! The recency windows are fed from the very first setup transaction (so
//! the measured phase's predictions see the warm shared L2, mirroring how
//! the cache itself keeps its contents across the barrier), while the hit
//! count and the bandwidth buckets restart at the barrier
//! ([`ProfileHandle::start_measure`]) — the same contents-stay/stats-reset
//! split [`lva_sim::SharedPort::reset_stats`] applies.
//!
//! Observation is pure: the port calls [`PortObserver::transaction`] after
//! timing is decided, so profiled and unprofiled runs are bit-identical
//! (pinned by a test in `lva-sim`).

use std::cell::RefCell;
use std::rc::Rc;

use lva_sim::{PortEvent, PortObserver};

/// Number of time buckets the bandwidth/queue-depth series is kept at.
/// When the run outgrows the covered span, adjacent buckets merge and the
/// bucket width doubles — memory stays constant, resolution degrades
/// gracefully, and the result is deterministic (no wall-clock involved).
const BUCKETS: usize = 512;

/// One bucketed shared-port sample (start cycle `t`, bucket-wide mean
/// utilization, bucket-max queue depth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwSample {
    /// Bucket start, cycles since the measured phase began.
    pub t: u64,
    /// Port service cycles in the bucket / bucket width ∈ [0, 1]-ish
    /// (can exceed 1 transiently: service is booked at grant time).
    pub utilization: f64,
    /// Maximum observed queue depth (other cores with in-flight transfers)
    /// in the bucket.
    pub queue_depth: u32,
}

/// Fixed-size doubling time-bucket accumulator.
#[derive(Debug)]
struct TimeBuckets {
    width: u64,
    service: Vec<u64>,
    depth_max: Vec<u32>,
}

impl TimeBuckets {
    fn new() -> Self {
        TimeBuckets { width: 1 << 10, service: vec![0; BUCKETS], depth_max: vec![0; BUCKETS] }
    }

    fn record(&mut self, at: u64, service: u64, depth: u32) {
        let mut idx = (at / self.width) as usize;
        while idx >= BUCKETS {
            // Halve resolution: merge bucket pairs, double the width.
            for i in 0..BUCKETS / 2 {
                self.service[i] = self.service[2 * i] + self.service[2 * i + 1];
                self.depth_max[i] = self.depth_max[2 * i].max(self.depth_max[2 * i + 1]);
            }
            for i in BUCKETS / 2..BUCKETS {
                self.service[i] = 0;
                self.depth_max[i] = 0;
            }
            self.width *= 2;
            idx = (at / self.width) as usize;
        }
        self.service[idx] += service;
        self.depth_max[idx] = self.depth_max[idx].max(depth);
    }

    fn samples(&self) -> Vec<BwSample> {
        let last = self
            .service
            .iter()
            .zip(&self.depth_max)
            .rposition(|(&s, &d)| s > 0 || d > 0)
            .map_or(0, |i| i + 1);
        (0..last)
            .map(|i| BwSample {
                t: i as u64 * self.width,
                utilization: self.service[i] as f64 / self.width as f64,
                queue_depth: self.depth_max[i],
            })
            .collect()
    }
}

/// The measured-phase output of a [`ProfileHandle`].
#[derive(Debug)]
pub struct MeasuredProfile {
    /// Bucketed shared-port bandwidth/queue samples.
    pub bw: Vec<BwSample>,
    /// Transactions observed in the measured phase.
    pub transactions: u64,
    /// References whose within-set stack distance was below the L2's
    /// associativity — the exact per-set LRU hit prediction.
    pub predicted_hits: u64,
}

/// Marks a window slot no line has filled yet (a line index is an address
/// divided by the line size, so it never reaches `u64::MAX`).
const EMPTY: u64 = u64::MAX;

/// The observer state proper (behind a [`ProfileHandle`]).
#[derive(Debug)]
pub struct PortProfile {
    /// `sets - 1` (sets is a power of two), mirroring the L2's index
    /// function: `set = line & set_mask`.
    set_mask: usize,
    /// L2 ways per set; a within-set distance `< assoc` is a hit.
    assoc: usize,
    /// `sets × assoc` lines: set `s`'s `assoc` most recently used distinct
    /// lines, most recent first, at `windows[s * assoc..(s + 1) * assoc]`.
    windows: Vec<u64>,
    set_hits: u64,
    buckets: TimeBuckets,
    transactions: u64,
}

impl PortProfile {
    fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets.is_power_of_two(), "L2 set count must be a power of two, got {sets}");
        assert!(assoc >= 1, "L2 needs at least one way");
        PortProfile {
            set_mask: sets - 1,
            assoc,
            windows: vec![EMPTY; sets * assoc],
            set_hits: 0,
            buckets: TimeBuckets::new(),
            transactions: 0,
        }
    }

    fn record(&mut self, ev: &PortEvent) {
        let set = (ev.line as usize) & self.set_mask;
        let window = &mut self.windows[set * self.assoc..(set + 1) * self.assoc];
        // In the window ⟺ within-set stack distance < assoc: a hit. Either
        // way the line moves to the front; a miss evicts the window's LRU.
        let pos = match window.iter().position(|&l| l == ev.line) {
            Some(p) => {
                self.set_hits += 1;
                p
            }
            None => self.assoc - 1,
        };
        window[..=pos].rotate_right(1);
        window[0] = ev.line;
        self.buckets.record(ev.at + ev.wait, ev.service, ev.queue_depth);
        self.transactions += 1;
    }

    /// Drop accumulated statistics but keep the recency windows warm (the
    /// shared L2 keeps its contents across the barrier too).
    fn start_measure(&mut self) {
        self.set_hits = 0;
        self.buckets = TimeBuckets::new();
        self.transactions = 0;
    }
}

/// Cloneable handle to a [`PortProfile`]; the clone installed on the port
/// via [`lva_sim::SharedPort::set_observer`] and the one kept by the SoC
/// runner share state.
#[derive(Debug, Clone)]
pub struct ProfileHandle(Rc<RefCell<PortProfile>>);

impl ProfileHandle {
    /// Build a profile for a shared L2 of `sets` sets × `assoc` ways.
    pub fn new(sets: usize, assoc: usize) -> Self {
        ProfileHandle(Rc::new(RefCell::new(PortProfile::new(sets, assoc))))
    }

    /// See [`PortProfile::start_measure`].
    pub fn start_measure(&self) {
        self.0.borrow_mut().start_measure();
    }

    /// Extract the measured-phase profile.
    pub fn finish(&self) -> MeasuredProfile {
        let p = self.0.borrow();
        MeasuredProfile {
            bw: p.buckets.samples(),
            transactions: p.transactions,
            predicted_hits: p.set_hits,
        }
    }
}

impl PortObserver for ProfileHandle {
    fn transaction(&mut self, ev: &PortEvent) {
        self.0.borrow_mut().record(ev);
    }
}
