//! # lva-check — vector-kernel sanitizer and co-design capacity linter
//!
//! Static analysis for the study's simulated kernels, in two halves:
//!
//! * **Kernel sanitizer** ([`sanitize`]) — walks the [`lva_isa::VecEvent`]
//!   stream decoded from a kernel's capture ([`Machine::start_capture`],
//!   [`lva_isa::ReplayTrace::vec_events`]) and checks architectural
//!   discipline: no reads of undefined register lanes, no accesses past the
//!   end of the [`lva_sim::Buf`] they belong to, no use of register copies
//!   whose backing memory was overwritten (stale-copy / write-after-read
//!   hazards), and no vector lengths that were never granted by
//!   `setvl`/`whilelt`. Capturing is timing-neutral (cycle counts are
//!   bit-identical with it on or off — asserted by this crate's tests), so
//!   the sanitizer sees exactly the production kernels.
//!
//! * **Capacity linter** ([`capacity`]) — purely static: given the GEMM block
//!   sizes and Winograd tile parameters plus a [`MachineConfig`], it computes
//!   the per-level working-set footprints that §V of the paper sizes the
//!   cache hierarchy around, and flags any panel that exceeds its intended
//!   level (packed-A vs L1, packed-B vs L2, the streamed micro-panel vs the
//!   L1 or the RVV vector cache, the Winograd tile rows vs L1).
//!
//! The `lint-kernels` binary runs both halves over every registered kernel
//! ([`registry`]) on both ISA profiles across a representative config sweep,
//! emits the findings as JSON, and exits nonzero when anything is flagged —
//! CI runs it as a correctness gate.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod registry;
pub mod sanitize;

use lva_core::Json;
use lva_isa::{Machine, MachineConfig, ReplayTrace, DEFAULT_L2_BYTES};

pub use capacity::{capacity_checks, lint_capacity, CapacityCheck};
pub use registry::{registered_kernels, KernelCase};
pub use sanitize::{sanitize, EventTrace};

/// One sanitizer or capacity-linter finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which pass produced it: `"uninit-read"`, `"oob"`, `"war-overlap"`,
    /// `"vl-discipline"`, or `"capacity"`.
    pub pass: &'static str,
    /// The kernel under analysis (`"static"` for capacity findings).
    pub kernel: String,
    /// The machine profile the kernel ran on (e.g. `"rvv/16384b"`).
    pub profile: String,
    /// Human-readable description naming the registers/buffers involved.
    pub detail: String,
}

impl Finding {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("pass", self.pass)
            .field("kernel", self.kernel.as_str())
            .field("profile", self.profile.as_str())
            .field("detail", self.detail.as_str())
    }
}

/// A registered kernel's recorded run on one machine configuration:
/// everything the static analyses downstream (the sanitizer here, the
/// dependence-graph certifier in `lva-depgraph`) need — the captured
/// trace, the event stream decoded from it, the named-allocation registry,
/// the hardware vector length, and the simulated cycle count the run
/// produced while being recorded.
#[derive(Debug)]
pub struct RecordedKernel {
    /// Every op the run issued, as a replay re-executes them.
    pub trace: ReplayTrace,
    /// The vector events of `trace` ([`ReplayTrace::vec_events`]).
    pub events: Vec<lva_isa::VecEvent>,
    pub allocs: Vec<lva_sim::AllocRecord>,
    pub vlen_elems: usize,
    pub cycles: u64,
}

/// Run one registered kernel on `cfg` under a capture and return the
/// recorded run. Capturing is timing-neutral, so `cycles` is bit-identical
/// to an unrecorded run (asserted by tests here and in `lva-depgraph`).
pub fn record_kernel(case: &KernelCase, cfg: &MachineConfig) -> RecordedKernel {
    let mut m = Machine::new(cfg.clone());
    m.start_capture();
    (case.run)(&mut m);
    let trace = m.finish_capture().expect("the capture was started above");
    RecordedKernel {
        events: trace.vec_events(m.vlen_elems()),
        trace,
        allocs: m.mem.allocs().to_vec(),
        vlen_elems: m.vlen_elems(),
        cycles: m.cycles(),
    }
}

/// Run one registered kernel on `cfg` under a capture and sanitize its
/// decoded event stream.
pub fn check_kernel(case: &KernelCase, profile: &str, cfg: &MachineConfig) -> Vec<Finding> {
    let rec = record_kernel(case, cfg);
    let trace = EventTrace {
        kernel: case.name,
        profile,
        events: &rec.events,
        allocs: &rec.allocs,
        vlen_elems: rec.vlen_elems,
    };
    sanitize(&trace)
}

/// The representative hardware design points the linter sweeps: both ISA
/// profiles, each at a short and at its maximum vector length (the co-design
/// axis of §V).
pub fn sweep_configs() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("rvv/4096b", MachineConfig::rvv_gem5(4096, 8, DEFAULT_L2_BYTES)),
        ("rvv/16384b", MachineConfig::rvv_gem5(16384, 8, DEFAULT_L2_BYTES)),
        ("sve/512b", MachineConfig::sve_gem5(512, DEFAULT_L2_BYTES)),
        ("sve/2048b", MachineConfig::sve_gem5(2048, DEFAULT_L2_BYTES)),
    ]
}

/// Write `report` to `results/<name>.json` for the linter binaries,
/// exiting with status 2 (internal error) on an I/O failure.
pub fn save_results_json(report: &Json, name: &str) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create results/: {e}");
        std::process::exit(2);
    }
    let path = dir.join(format!("{name}.json"));
    let mut body = report.to_string_pretty();
    body.push('\n');
    match std::fs::write(&path, body) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => {
            eprintln!("could not save {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

/// The message of a caught kernel panic, for the linters' internal-error
/// reports.
pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel panicked".to_string()
    }
}
