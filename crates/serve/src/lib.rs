//! `lva-serve` — a deterministic discrete-event serving simulator with
//! request-level observability.
//!
//! The co-design study measures one inference at a time; a deployment
//! serves *traffic*. This crate layers a batching inference tier over the
//! calibrated per-model costs of the cycle-approximate simulator:
//!
//! * [`arrivals`] — seeded SplitMix64 Poisson (or explicit trace) request
//!   generation, merged across tenants under a total order;
//! * [`sim`] — the discrete-event engine: per-tenant FIFO queues, dynamic
//!   batching with deadline-aware admission, multi-model tenancy with
//!   measured tenant-switch (cold-cache) penalties;
//! * [`hist`] — HDR-style log-bucketed latency histograms (bounded
//!   relative quantile error, exact elementwise merge for shards);
//! * [`slo`] — p99 targets and deadline-miss error-budget burn.
//!
//! The only clock is the simulated-cycle clock. Nothing here reads host
//! time, so every histogram, queue counter, and Chrome timeline is a pure
//! function of (profiles, arrival seed, config) — byte-reproducible across
//! hosts and `--jobs` settings. The `exp-serve` binary in `lva-bench`
//! drives this over the Table II design points; DESIGN.md §16 documents
//! the model and its contracts.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod hist;
pub mod sim;
pub mod slo;
pub mod tenancy;

pub use arrivals::{merge_arrivals, poisson_arrivals, trace_arrivals, Request};
pub use hist::{LatencyHistogram, MAX_REL_ERROR};
pub use sim::{
    chrome_trace, queue_stats_json, simulate, tenant_stats_json, BatchRecord, QueueStats,
    RequestRecord, ServeConfig, SimResult, TenantProfile, TenantStats,
};
pub use slo::{evaluate, SloOutcome, SloPolicy};
pub use tenancy::{default_mix, TenantSpec};

/// Convert simulated cycles to milliseconds at `freq_ghz`.
pub fn cycles_to_ms(cycles: u64, freq_ghz: f64) -> f64 {
    cycles as f64 / (freq_ghz * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_convert_to_ms_at_the_clock_rate() {
        assert_eq!(cycles_to_ms(2_000_000, 2.0), 1.0);
    }
}
