//! The observability hooks (semantic capture, probe tape, pipeline-interval
//! recorder, memory-system tap) must be pure observers: timing-neutral while enabled,
//! and — the host-performance contract — back to the branch-predictable
//! no-op fast path once disabled, with no residue in the model.

use std::cell::Cell;
use std::rc::Rc;

use lva_isa::{Machine, MachineConfig};
use lva_sim::{AccessKind, AccessSink, TapLevel};

/// A counting sink: observation only, shared counter for the assertion.
struct CountSink(Rc<Cell<u64>>);

impl AccessSink for CountSink {
    fn access(&mut self, _level: TapLevel, _line: u64, _kind: AccessKind, _hit: bool) {
        self.0.set(self.0.get() + 1);
    }
}

/// A fixed little workload: streaming loads, FMAs, stores — enough traffic
/// to produce vector events, pipeline intervals, and tap callbacks.
fn workload(m: &mut Machine) {
    let buf = match m.mem.allocs().first() {
        Some(r) => r.buf,
        None => m.mem.alloc(4096),
    };
    let vl = m.vlen_elems().min(512);
    for rep in 0..8 {
        let mut off = 0;
        while off + vl <= buf.words {
            m.vle(1, buf.addr(off), vl);
            m.vfmacc_vf(2, 1.5 + rep as f32, 1, vl);
            m.vse(2, buf.addr(off), vl);
            off += vl;
        }
    }
}

#[test]
fn hooks_are_timing_neutral_and_disable_restores_the_fast_path() {
    let cfg = MachineConfig::rvv_gem5(2048, 8, 1 << 20);

    // Plain machine, run twice (second run over a warm cache) — the
    // baseline for both the enabled and the disabled comparison.
    let mut plain = Machine::new(cfg.clone());
    workload(&mut plain);
    let cold_cycles = plain.cycles();
    plain.reset_timing();
    workload(&mut plain);
    let warm_cycles = plain.cycles();

    // Instrumented machine: every hook on.
    let mut m = Machine::new(cfg);
    let taps = Rc::new(Cell::new(0u64));
    m.start_capture();
    m.record_probe_tape();
    m.record_pipe_events();
    m.sys.set_tap(Box::new(CountSink(Rc::clone(&taps))));
    assert!(m.is_recording_pipe() && m.sys.has_tap());

    workload(&mut m);
    assert_eq!(m.cycles(), cold_cycles, "hooks must be timing-neutral while enabled");
    let trace = m.finish_capture().expect("capture should still be on");
    assert!(!trace.vec_events(m.vlen_elems()).is_empty(), "capture saw no vector events");
    let tape = m.take_probe_tape().expect("tape recording should still be on");
    assert!(!tape.levels.is_empty(), "tape saw no cache probes");
    assert!(!m.take_pipe_events().is_empty(), "pipe recorder saw no intervals");
    assert!(m.sys.take_tap().is_some(), "tap should still be installed");
    assert!(taps.get() > 0, "tap saw no accesses");

    // Everything disabled again: the dispatch sites must behave exactly
    // like a machine that never had hooks — same warm-cache timing.
    assert!(m.finish_capture().is_none() && m.take_probe_tape().is_none());
    assert!(!m.is_recording_pipe() && !m.sys.has_tap());
    m.reset_timing();
    workload(&mut m);
    assert_eq!(m.cycles(), warm_cycles, "disabling the hooks must restore the fast path");
    assert!(m.finish_capture().is_none());
    assert!(m.take_pipe_events().is_empty());
    assert_eq!(m.pipe_events_dropped(), 0);
}
