//! lva-energy: per-layer energy attribution for the co-design study.
//!
//! The paper motivates long-vector CPUs by energy efficiency (§I) and
//! warns that large caches occupy significant die area (§V), but evaluates
//! performance only. This crate gives energy the same observability the
//! stall attributor gives cycles:
//!
//! * [`EnergyModel`] — documented event energies (pJ per vector flop,
//!   scalar op, issue, cache access, DRAM transfer) plus static power, with
//!   sqrt-capacity scaling of the L2 access energy.
//! * [`EnergyAttribution`] — per-layer joules from the machine's layer
//!   book (`lva_isa::Machine::layers`), which records its counters at every
//!   layer boundary on every run: each layer's counter delta is charged
//!   into one [`EnergyBreakdown`], and the layers plus the `outside` bucket
//!   sum to the run's aggregate counts by construction, so the total
//!   reconciles with [`EnergyModel::estimate`] to float rounding (pinned at
//!   1e-6 relative).
//!
//! Consumers: `lva-core` re-exports the model for `RunReport`'s optional
//! `energy` section, `lva-whatif` derives energy counterfactuals and an
//! EDP-based bound classification, and `exp-energy` sweeps the VL × L2
//! grid into a cycles-vs-energy Pareto frontier.

#![forbid(unsafe_code)]

mod attribution;
mod model;

pub use attribution::{EnergyAttribution, LayerEnergy};
pub use model::{EnergyBreakdown, EnergyCounts, EnergyModel, EnergyReport};
