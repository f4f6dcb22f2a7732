//! # lva-retime — trace once, retime many
//!
//! Sweeping the co-design space re-executes every kernel at every design
//! point, yet almost nothing a design point changes reaches the kernels:
//! lanes, latency constants, L2 capacity, prefetch policy and the
//! `IdealSpec` counterfactual knobs are *timing* inputs, not semantic ones.
//! This crate exploits that split end to end:
//!
//! 1. **Trace once.** Each distinct semantic stream — (platform class,
//!    vector length, policy, workload, seed) — is executed functionally a
//!    single time under the semantic recorder ([`lva_core::CapturedRun`];
//!    a run is a one-frame recording, a serving stream a multi-frame one).
//! 2. **Retime many.** Every further design point of the same stream is
//!    re-timed from the recording: a probe-tape refit when the cache
//!    geometry matches a stored tape, a live replay (recording a fresh
//!    tape for next time) when it does not — both bit-identical to the
//!    full simulator.
//!
//! Results are not memoized: a sweep asks for each design point once, so
//! the [`RetimeStore`] keeps recordings and their probe tapes only.
//!
//! Soundness is **certificate-gated**: retiming is only taken when every
//! kernel in the `lva-check` registry holds a valid
//! [`lva_depgraph::RetimeCertificate`] — the machine-checked proof that
//! its semantic stream does not move under the design-point perturbations
//! being swept. A kernel whose stream *does* vary with configuration
//! fails certification and the engine falls back to full simulation,
//! reporting the refusal reason. Certificates cover the registry's shapes
//! only, so [`StreamKey`] also keys Winograd streams by L2 capacity,
//! which sizes their tile blocks at network shapes.
//!
//! [`lva_core::RetimeOpt::Verify`] runs both paths for every request and
//! asserts the results are bit-identical (cycles, stall breakdowns, VPU
//! statistics, cache statistics, per-layer reports).
//!
//! The engine's clients are the host benchmark (`benchmark/`) and this
//! crate's tests; no workspace binary links it. The co-design advisor
//! (`lva_whatif::analyze_experiment`) re-times its counterfactuals with
//! [`lva_core::Experiment::retime_tape`] directly.

#![forbid(unsafe_code)]

pub mod cert;
pub mod engine;
pub mod key;
pub mod store;

pub use cert::CertGate;
pub use engine::RetimeEngine;
pub use key::{ConfigKey, StreamKey};
pub use store::RetimeStore;
