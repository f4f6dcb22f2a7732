//! Exit-path telemetry: `emit()` must flush the active trace sink so
//! `--trace FILE` output is complete even though the `exp-*` binaries
//! never call `disable()` before exiting.

use lva_bench::{emit, Opts, Table};

fn opts() -> Opts {
    Opts {
        div: 1,
        layers: None,
        csv: false,
        json: false,
        profile: false,
        chrome: None,
        jobs: 1,
        wallclock: false,
        energy: false,
    }
}

// The trace sink is process-global; exercise both sinks in one #[test] to
// avoid cross-test interference under the parallel runner.
#[test]
fn emit_flushes_trace_sinks() {
    // Memory sink: spans recorded before emit() are all retrievable after.
    lva_trace::enable_to_memory();
    {
        let mut sp = lva_trace::span("unit_span");
        sp.set("cycles", 7u64);
    }
    let table = Table::new("flush test", &["col"]);
    emit(&table, "flush_test", &opts());
    let lines = lva_trace::take_memory();
    assert!(
        lines.iter().any(|l| l.contains(r#""name":"unit_span""#)),
        "span missing from memory sink: {lines:?}"
    );
    lva_trace::disable();

    // File sink: emit()'s flush makes the span visible on disk *before*
    // process exit (exp-* binaries rely on this; they never disable()).
    let path = std::env::temp_dir().join(format!("lva_trace_flush_{}.jsonl", std::process::id()));
    lva_trace::enable_to_file(&path).expect("create trace file");
    {
        let _sp = lva_trace::span("file_span");
    }
    emit(&table, "flush_test", &opts());
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    assert!(text.contains(r#""name":"file_span""#), "flush did not reach disk: {text:?}");
    lva_trace::disable();
    let _ = std::fs::remove_file(&path);
}
