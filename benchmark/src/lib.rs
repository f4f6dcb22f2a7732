//! Host-side benchmark of the simulator.
//!
//! Four workloads (see [`workloads`]) drive the simulator's public API —
//! `Experiment`, `RetimeEngine`, `CertGate`, `run_soc_captured` and
//! `lva_serve::simulate` — and every number is taken from outside: wall
//! and CPU time around those calls, and the counts they return. Nothing
//! in the simulator is instrumented. A traced run additionally records
//! spans around each call ([`spans`]) and times a ladder of calls whose
//! differences split one point's host cost across the simulator's layers.
//! The README next to this package has the workload table and baseline.

#![forbid(unsafe_code)]

pub mod checks;
pub mod compare;
pub mod model;
pub mod points;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
