//! # lva-depgraph — dependence-graph certifier for the recorded VecEvent IR
//!
//! Everything downstream of the simulator that replays or re-times a
//! recorded run — the co-design advisor's counterfactual refits, the SoC
//! replay, the retime engine — leans on one unstated assumption: that the
//! [`lva_isa::VecEvent`] stream is a pure function of the architectural
//! inputs, independent of the timing state being varied. This crate makes
//! that assumption checkable, and extracts two analyses the explicit
//! dependence structure pays for:
//!
//! * [`graph`] — the full RAW/WAR/WAW data-dependence DAG of a stream,
//!   over vector registers *and* memory byte ranges (sorted-range index
//!   per named allocation; `O(n log n)`).
//! * [`certify`] — retime-safety certificates: per kernel × design point,
//!   the stream is re-recorded under timing perturbations and must not
//!   move; within an ISA, the two swept vector lengths must agree on
//!   VL-neutral projections (equivalence modulo granted-VL renaming).
//! * [`bounds`] — critical-path cycle lower bounds from the DAG plus
//!   per-op cost floors, provably `<=` the simulated cycle count; the
//!   tightness ratio says how much of the schedule the dependence
//!   structure explains.
//! * [`lints`] — redundant-load and dead-store detection, the two
//!   dataflow wastes the DAG exposes directly.
//!
//! The `lint-dataflow` binary runs all of it over the kernel registry of
//! `lva-check` and gates CI with the same exit-code contract as
//! `lint-kernels` (0 clean, 1 findings, 2 internal error).

#![forbid(unsafe_code)]

pub mod bounds;
pub mod certify;
pub mod dataflow_report;
pub mod graph;
pub mod lints;

pub use bounds::{lower_bound, op_floor, tightness_pct, LowerBound, OpFloor};
pub use certify::{certify_kernel, RetimeCertificate, VlSummary};
pub use dataflow_report::dataflow_markdown;
pub use graph::{DepEdge, DepGraph, DepKind, Via};
pub use lints::{allowlisted, lint_dataflow, ALLOWLIST};
