//! Failure accounting and the output checks.
//!
//! A failed check or a panicking request is counted, never fatal: the
//! workload carries on and the failure shows up in `failed` (and so in
//! the failure rate) of the run's result.

use lva_core::{RunSummary, StreamSummary};
use lva_isa::StallBreakdown;
use lva_serve::SimResult;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counts requests and checks attempted, and those that failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the run's stderr report.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Run one request; a panic counts as a failure and yields `None`.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(e) => {
                let msg = e
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                self.fail(format!("{what} panicked: {msg}"));
                None
            }
        }
    }

    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Failed share of everything attempted.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Stall causes sum to the independently accumulated total.
pub fn stalls_sum(s: &StallBreakdown) -> bool {
    s.attributed() == s.total()
}

/// [`stalls_sum`] on the run and on every layer of it.
pub fn summary_stalls_sum(s: &RunSummary) -> bool {
    stalls_sum(&s.report.stalls) && s.report.layers.iter().all(|l| stalls_sum(&l.stalls))
}

/// Bit-identity of two runs: cycles, flops, every per-layer record with its
/// stall breakdown, VPU counters, phase times and cache statistics.
pub fn same_run(a: &RunSummary, b: &RunSummary) -> bool {
    a.cycles == b.cycles && a.flops == b.flops && a.report == b.report
}

/// Bit-identity of two multi-frame streams.
pub fn same_stream(a: &StreamSummary, b: &StreamSummary) -> bool {
    a.per_frame_cycles == b.per_frame_cycles && same_run(&a.steady, &b.steady)
}

/// Every offered request either completed or was shed, per tenant.
pub fn requests_balance(r: &SimResult) -> bool {
    r.tenants.iter().all(|t| t.offered == t.completed + t.shed)
}
