//! `lva-trace` — the machine-readable output formats of the simulator
//! stack, with no dependencies.
//!
//! * [`Json`] — a hand-rolled JSON value type: the run reports, the
//!   `BENCH_*.json` records and the observatories' baselines are built,
//!   parsed and diffed with it.
//! * [`ChromeTrace`] — a Chrome trace-event timeline over simulated cycles
//!   (kernel phases, layers, stall causes, SoC cores, serving batches),
//!   loadable in Perfetto.
//!
//! Neither keeps global state: a timeline or record is a value its caller
//! builds from the simulator's books and writes where it likes.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub use chrome::ChromeTrace;
pub use json::Json;
