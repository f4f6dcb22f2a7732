//! Shared L2/DRAM port for multi-core SoC simulation (`lva-scale`).
//!
//! The paper sweeps a single scalar+VPU core; real deployments integrate
//! several vector cores behind one L2 and one DRAM channel. This module
//! models that integration point: one [`SharedPort`] owns the L2 cache and
//! the DRAM interface, every attached core's `MemSystem` routes its
//! would-be-private-L2 traffic here, and transactions arbitrate for port
//! bandwidth.
//!
//! ## Arbitration model (instruction-granular, cross-core only)
//!
//! Each transaction carries the requesting core's current front-end cycle
//! `now` (published by the SoC event loop before every replayed
//! instruction). The port keeps a per-core `busy_until` horizon:
//!
//! * **grant** = `max(now, max over *other* cores' busy_until)` — a request
//!   waits behind every other core's in-flight transfer, never behind its
//!   own (a core's own transfer serialization is already modelled by the
//!   per-instruction occupancy arithmetic in `lva-isa`).
//! * **wait** = `grant − now` is charged to the requesting core's
//!   `Contention` stall cause.
//! * `busy_until[core] = max(busy_until[core], grant) + service`, so a
//!   core's back-to-back line transfers occupy the port cumulatively from
//!   every *other* core's point of view.
//!
//! With one core there is no "other core": `wait` is identically zero and
//! every cache lookup happens in the same order as on a private L2, which
//! is what makes the N=1 SoC run bit-identical to the single-core
//! simulator (pinned by test in `lva-scale`).
//!
//! The event-loop scheduling (lowest local clock first, lowest core index
//! on ties — a round-robin order whenever cores are in lockstep) plus this
//! integer arbitration makes the whole SoC simulation deterministic:
//! byte-identical output under any `--jobs`.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, Lookup};

/// One arbitrated transaction on the shared port, as seen by an observer.
#[derive(Debug, Clone, Copy)]
pub struct PortEvent {
    /// Requesting core index.
    pub core: usize,
    /// Line index (address / line size) of the transaction.
    pub line: u64,
    pub kind: AccessKind,
    /// Whether the shared L2 served it (miss ⇒ DRAM fill).
    pub hit: bool,
    /// Requesting core's front-end cycle when the request was issued.
    pub at: u64,
    /// Cycles the request waited behind other cores' transfers.
    pub wait: u64,
    /// Port service (transfer) cycles claimed by this transaction.
    pub service: u64,
    /// Number of *other* cores with an in-flight transfer at issue time.
    pub queue_depth: u32,
}

/// Observer of the merged cross-core shared-L2 stream. Installed by
/// `lva-scale` to feed the Mattson reuse-distance profiler (merged-stream
/// hit-rate curve) and the bandwidth / queue-depth counter tracks of the
/// multi-pid Chrome timeline. Pure observation: timing and cache state are
/// bit-identical with or without an observer.
pub trait PortObserver {
    fn transaction(&mut self, ev: &PortEvent);
}

impl std::fmt::Debug for dyn PortObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn PortObserver")
    }
}

/// Static configuration of the shared port.
#[derive(Debug, Clone)]
pub struct SharedPortConfig {
    /// Number of attached cores.
    pub n_cores: usize,
    /// Geometry/latency of the shared L2 (same shape the private L2 would
    /// have; hit latency is still applied per-core by `served_latency`).
    pub l2: CacheConfig,
    /// Port service cycles per L2 transaction (one line over the core↔L2
    /// interconnect).
    pub l2_port_cycles: u64,
    /// Additional service cycles per line crossing the DRAM interface
    /// (L2 miss fill; doubled again for a dirty-victim writeback).
    pub dram_port_cycles: u64,
    /// Counterfactual knob (`lva-whatif`): arbitration waits forced to
    /// zero, i.e. an infinitely-banked port. Cache *state* still evolves —
    /// but note the knob is scenario-level, not timing-only: removing waits
    /// changes core clocks, hence the cross-core interleaving of the merged
    /// stream.
    pub infinite_bw: bool,
}

impl SharedPortConfig {
    /// Default port service costs for a given line size: one line per
    /// `l2_port_cycles` over a 32 B/cycle core↔L2 interconnect, and a
    /// 4× slower DRAM interface behind it.
    pub fn for_line_bytes(n_cores: usize, l2: CacheConfig) -> Self {
        let l2_port_cycles = (l2.line_bytes as u64).div_ceil(32).max(1);
        SharedPortConfig {
            n_cores,
            l2,
            l2_port_cycles,
            dram_port_cycles: l2_port_cycles * 4,
            infinite_bw: false,
        }
    }
}

/// Per-core and aggregate counters of the shared port.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedPortStats {
    /// Shared-L2 counters over the merged stream.
    pub l2: CacheStats,
    /// Arbitration wait cycles charged per core.
    pub waits: Vec<u64>,
    /// Transactions issued per core.
    pub transactions: Vec<u64>,
    /// Port service cycles claimed per core (bandwidth share).
    pub service_cycles: Vec<u64>,
}

/// The shared L2 + DRAM port. See module docs.
#[derive(Debug)]
pub struct SharedPort {
    cfg: SharedPortConfig,
    pub l2: Cache,
    busy_until: Vec<u64>,
    waits: Vec<u64>,
    transactions: Vec<u64>,
    service_cycles: Vec<u64>,
    observer: Option<Box<dyn PortObserver>>,
}

/// Shared handle type used by `MemSystem` attachments and the SoC loop.
/// `Rc<RefCell<…>>` (not `Arc<Mutex<…>>`) is deliberate: the SoC event loop
/// is single-threaded by design — determinism comes from the loop order,
/// not from locking.
pub type SharedPortHandle = Rc<RefCell<SharedPort>>;

impl SharedPort {
    pub fn new(cfg: SharedPortConfig) -> Self {
        assert!(cfg.n_cores >= 1, "shared port needs at least one core");
        let n = cfg.n_cores;
        SharedPort {
            l2: Cache::new(cfg.l2.clone()),
            busy_until: vec![0; n],
            waits: vec![0; n],
            transactions: vec![0; n],
            service_cycles: vec![0; n],
            observer: None,
            cfg,
        }
    }

    /// Wrap in the shared handle the SoC loop and `MemSystem` attachments use.
    pub fn into_handle(self) -> SharedPortHandle {
        Rc::new(RefCell::new(self))
    }

    pub fn config(&self) -> &SharedPortConfig {
        &self.cfg
    }

    /// Install a merged-stream observer (replacing any previous one).
    pub fn set_observer(&mut self, obs: Box<dyn PortObserver>) {
        self.observer = Some(obs);
    }

    /// Arbitrate one transaction issued by `core` at its local cycle `now`
    /// for `service` port cycles; returns (wait, queue depth at issue).
    fn arbitrate(&mut self, core: usize, now: u64, service: u64) -> (u64, u32) {
        self.transactions[core] += 1;
        self.service_cycles[core] += service;
        if self.cfg.infinite_bw {
            return (0, 0);
        }
        let mut others = 0u64;
        let mut depth = 0u32;
        for (c, &b) in self.busy_until.iter().enumerate() {
            if c != core {
                others = others.max(b);
                depth += u32::from(b > now);
            }
        }
        let grant = now.max(others);
        let wait = grant - now;
        self.waits[core] += wait;
        self.busy_until[core] = self.busy_until[core].max(grant) + service;
        (wait, depth)
    }

    /// One demand transaction on the shared L2 from `core` at local cycle
    /// `now`. Performs exactly the lookup a private L2 would (same
    /// [`Cache`] model, same stats), charges port service — one line over
    /// the L2 interconnect, plus the DRAM interface crossings on a miss —
    /// and returns the lookup outcome with the cross-core wait.
    pub fn l2_access(
        &mut self,
        core: usize,
        line: u64,
        kind: AccessKind,
        now: u64,
    ) -> (Lookup, u64) {
        let r = self.l2.access_line(line, kind);
        let mut service = self.cfg.l2_port_cycles;
        if let Lookup::Miss { victim_dirty } = r {
            service += self.cfg.dram_port_cycles;
            if victim_dirty {
                service += self.cfg.dram_port_cycles;
            }
        }
        let (wait, queue_depth) = self.arbitrate(core, now, service);
        if let Some(obs) = self.observer.as_mut() {
            obs.transaction(&PortEvent {
                core,
                line,
                kind,
                hit: matches!(r, Lookup::Hit),
                at: now,
                wait,
                service,
                queue_depth,
            });
        }
        (r, wait)
    }

    /// Prefetcher install into the shared L2. Prefetches ride spare
    /// bandwidth: they mutate cache state exactly like a private-L2 install
    /// but claim no port time and charge no wait.
    pub fn prefetch_line(&mut self, line: u64) -> bool {
        self.l2.prefetch_line(line)
    }

    /// Measurement barrier: zero the arbitration horizons and every
    /// statistic while preserving cache contents — the multi-core analogue
    /// of `MemSystem::reset_stats` after the setup phase the paper excludes
    /// from measurement.
    pub fn reset_stats(&mut self) {
        self.busy_until.fill(0);
        self.waits.fill(0);
        self.transactions.fill(0);
        self.service_cycles.fill(0);
        self.l2.reset_stats();
    }

    /// Snapshot all counters.
    pub fn stats(&self) -> SharedPortStats {
        SharedPortStats {
            l2: self.l2.stats,
            waits: self.waits.clone(),
            transactions: self.transactions.clone(),
            service_cycles: self.service_cycles.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(n: usize) -> SharedPort {
        SharedPort::new(SharedPortConfig {
            n_cores: n,
            l2: CacheConfig { name: "L2", bytes: 65536, line_bytes: 64, assoc: 8, hit_latency: 12 },
            l2_port_cycles: 2,
            dram_port_cycles: 8,
            infinite_bw: false,
        })
    }

    #[test]
    fn single_core_never_waits() {
        let mut p = port(1);
        for i in 0..200u64 {
            let (_, wait) = p.l2_access(0, i % 37, AccessKind::Read, i * 3);
            assert_eq!(wait, 0, "one core must never wait on the shared port");
        }
        assert_eq!(p.stats().waits, vec![0]);
        assert_eq!(p.stats().transactions, vec![200]);
    }

    #[test]
    fn cross_core_requests_wait_and_are_charged() {
        let mut p = port(2);
        // Core 0 claims the port at t=0 (miss: 2 + 8 service cycles).
        let (r, w) = p.l2_access(0, 1, AccessKind::Read, 0);
        assert!(matches!(r, Lookup::Miss { .. }));
        assert_eq!(w, 0);
        // Core 1 arrives at t=3 while core 0's transfer is in flight.
        let (_, w) = p.l2_access(1, 1, AccessKind::Read, 3);
        assert_eq!(w, 10 - 3, "must wait out the remainder of core 0's transfer");
        let st = p.stats();
        assert_eq!(st.waits, vec![0, 7]);
        // Sum of waits is exactly what the observer saw / cores were charged.
        assert_eq!(st.l2.accesses, 2);
        assert_eq!(st.l2.hits, 1, "core 1 hits the line core 0 just filled");
    }

    #[test]
    fn own_transfers_never_self_contend() {
        let mut p = port(2);
        // A burst of 10 transactions from core 0 at the same local cycle:
        // each claims service but none waits behind its own predecessors.
        for i in 0..10u64 {
            let (_, w) = p.l2_access(0, 1000 + i * 64, AccessKind::Read, 5);
            assert_eq!(w, 0);
        }
        // Core 1 now sees the accumulated horizon of all ten transfers.
        let (_, w) = p.l2_access(1, 1, AccessKind::Read, 5);
        assert_eq!(w, 10 * 10, "other core waits behind the full burst");
    }

    #[test]
    fn infinite_bw_kills_waits_but_not_state() {
        let mut inf = port(2);
        inf.cfg.infinite_bw = true;
        let mut fin = port(2);
        for i in 0..100u64 {
            let (r_i, w_i) = inf.l2_access((i % 2) as usize, i % 23, AccessKind::Read, 0);
            let (r_f, _) = fin.l2_access((i % 2) as usize, i % 23, AccessKind::Read, 0);
            assert_eq!(w_i, 0);
            assert_eq!(r_i, r_f, "same issue order must give identical lookups");
        }
        assert_eq!(inf.stats().l2, fin.stats().l2);
        assert!(fin.stats().waits.iter().sum::<u64>() > 0);
        assert_eq!(inf.stats().waits.iter().sum::<u64>(), 0);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut p = port(2);
        p.l2_access(0, 7, AccessKind::Write, 0);
        p.l2_access(1, 7, AccessKind::Read, 0);
        p.reset_stats();
        let st = p.stats();
        assert_eq!(st.l2.accesses, 0);
        assert_eq!(st.waits, vec![0, 0]);
        let (r, _) = p.l2_access(1, 7, AccessKind::Read, 0);
        assert_eq!(r, Lookup::Hit, "contents must survive the barrier reset");
    }

    #[derive(Debug, Default)]
    struct Tally {
        events: u64,
        waits: u64,
    }
    impl PortObserver for Tally {
        fn transaction(&mut self, ev: &PortEvent) {
            self.events += 1;
            self.waits += ev.wait;
        }
    }

    #[test]
    fn observer_sees_every_transaction_and_is_timing_neutral() {
        let run = |observe: bool| -> (SharedPortStats, Vec<u64>) {
            let mut p = port(3);
            if observe {
                p.set_observer(Box::new(Tally::default()));
            }
            let mut waits = Vec::new();
            for i in 0..300u64 {
                let core = (i % 3) as usize;
                let (_, w) = p.l2_access(core, (i * 7) % 41, AccessKind::Read, i);
                waits.push(w);
            }
            (p.stats(), waits)
        };
        let (s_off, w_off) = run(false);
        let (s_on, w_on) = run(true);
        assert_eq!(w_off, w_on, "observer must be timing-neutral");
        assert_eq!(s_off, s_on);
    }
}
