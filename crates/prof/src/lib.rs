//! # lva-prof — memory-hierarchy observatory for the co-design study
//!
//! Profiling instruments that answer the paper's capacity questions from a
//! *single* simulated run instead of a sweep:
//!
//! * [`mattson`] — exact LRU stack-distance computation (`O(log n)` per
//!   access) and log2-bucketed reuse-distance histograms whose
//!   [`DistanceHistogram::predicted_hits`] yields the hit rate at **every**
//!   power-of-two capacity from one address stream.
//! * [`profiler`] — an [`lva_sim::AccessSink`] that taps the per-level
//!   demand streams, attributes them to layers/phases, classifies every
//!   miss as compulsory / capacity / conflict (the 3C taxonomy), and
//!   validates predictions against the simulated set-associative caches.
//! * [`timeline`] — converts recorded [`lva_isa::PipeEvent`]s (phases and
//!   stall intervals) plus the machine's layer book into a Chrome trace-event
//!   timeline ([`lva_trace::ChromeTrace`]) loadable in Perfetto.
//!
//! Everything here is pure observation: attaching a profiler or recording
//! pipeline events never changes a cycle count (asserted by tests).

#![forbid(unsafe_code)]
pub mod mattson;
pub mod profiler;
pub mod timeline;

pub use mattson::{DistanceHistogram, StackDistance};
pub use profiler::{attach, LevelProfile, MemProfile, MemProfiler, ProfilerHandle, ScopeProfile};
pub use timeline::{timeline, timeline_coarse};
