//! `lva-trace` — a zero-dependency telemetry facade for the simulator stack.
//!
//! Design goals, in order:
//!
//! 1. **Free when off.** Tracing is globally disabled by default; every
//!    entry point first reads one relaxed [`AtomicBool`] and returns. The
//!    cycle-approximate timing model must be bit-identical with tracing on
//!    or off — this crate only *observes*, it never advances the clock.
//! 2. **Hierarchical spans.** `network → layer → kernel-phase` nesting is
//!    tracked per thread; each span gets a process-unique id and records its
//!    parent so the JSONL stream can be re-assembled into a tree.
//! 3. **Machine-readable.** Events are emitted as JSON Lines — one compact
//!    object per line — to whatever sink was installed (a file, or an
//!    in-memory buffer for tests).
//!
//! ## Event shapes
//!
//! ```text
//! {"ev":"span","id":7,"parent":3,"name":"layer","us":123,"fields":{...}}
//! {"ev":"counter","name":"l1_misses","value":4096,"span":7}
//! {"ev":"event","name":"...","fields":{...},"span":7}
//! ```
//!
//! `us` is the span's wall-clock duration in microseconds (host time, for
//! profiling the simulator itself); simulated time belongs in `fields`.

#![forbid(unsafe_code)]
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod chrome;
pub mod json;
pub use chrome::ChromeTrace;
pub use json::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

enum Sink {
    File(BufWriter<File>),
    Memory(Vec<String>),
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// When `Some`, this thread's emitted lines are diverted here instead of
    /// the global sink — see [`capture_thread`]. Worker threads of a parallel
    /// sweep capture locally and the coordinator replays buffers in
    /// submission order, so the merged stream is deterministic.
    static THREAD_BUF: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

/// Is tracing globally enabled? Inlined single atomic load — the fast path
/// every instrumentation site checks first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Route events to a JSONL file (created/truncated), then enable tracing.
pub fn enable_to_file(path: impl AsRef<Path>) -> io::Result<()> {
    let f = File::create(path)?;
    *SINK.lock().unwrap() = Some(Sink::File(BufWriter::new(f)));
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Route events to an in-memory buffer (drain with [`take_memory`]).
/// Used by tests; also handy for embedding.
pub fn enable_to_memory() {
    *SINK.lock().unwrap() = Some(Sink::Memory(Vec::new()));
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable tracing and drop the sink (flushing file sinks).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    if let Some(Sink::File(mut w)) = SINK.lock().unwrap().take() {
        let _ = w.flush();
    }
}

/// Flush a file sink without disabling.
pub fn flush() {
    if let Some(Sink::File(w)) = SINK.lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

/// Drain the in-memory sink's lines. Empty unless [`enable_to_memory`] is
/// the active sink.
pub fn take_memory() -> Vec<String> {
    match SINK.lock().unwrap().as_mut() {
        Some(Sink::Memory(lines)) => std::mem::take(lines),
        _ => Vec::new(),
    }
}

fn emit_line(line: String) {
    // Divert to the thread-local capture buffer if one is active. This
    // branch only runs when tracing is enabled, so the disabled fast path
    // (one relaxed atomic load) is untouched.
    let line = match THREAD_BUF.with(|b| match b.borrow_mut().as_mut() {
        Some(buf) => {
            buf.push(line);
            None
        }
        None => Some(line),
    }) {
        Some(l) => l,
        None => return,
    };
    let mut guard = SINK.lock().unwrap();
    match guard.as_mut() {
        Some(Sink::File(w)) => {
            let _ = writeln!(w, "{line}");
        }
        Some(Sink::Memory(lines)) => lines.push(line),
        None => {}
    }
}

/// Run `f` with this thread's trace output captured into a buffer instead of
/// the global sink, returning `f`'s result and the captured JSONL lines.
///
/// Captures nest (the previous buffer, if any, is restored on exit — also on
/// panic, via a drop guard; the partial capture is discarded in that case).
/// Span ids stay process-unique across threads, so replaying buffers with
/// [`emit_captured`] yields a stream whose parent links are still valid.
pub fn capture_thread<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    struct Restore {
        prev: Option<Vec<String>>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_BUF.with(|b| *b.borrow_mut() = self.prev.take());
        }
    }
    let prev = THREAD_BUF.with(|b| b.borrow_mut().replace(Vec::new()));
    let restore = Restore { prev };
    let r = f();
    let lines = THREAD_BUF.with(|b| b.borrow_mut().take()).unwrap_or_default();
    drop(restore);
    (r, lines)
}

/// Replay lines captured by [`capture_thread`] into the active sink (or the
/// caller's own capture buffer, when nested), preserving order.
pub fn emit_captured(lines: Vec<String>) {
    for line in lines {
        emit_line(line);
    }
}

fn current_parent() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// RAII guard for a span. Created by [`span`]; emits a single JSONL record
/// when dropped (so a span's fields can accumulate while it runs).
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    start_us: u64,
    fields: Vec<(String, Json)>,
    live: bool,
}

/// Open a span. When tracing is disabled this is two loads and returns an
/// inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: 0, name, start_us: 0, fields: Vec::new(), live: false };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        id,
        name,
        start_us: epoch().elapsed().as_micros() as u64,
        fields: Vec::new(),
        live: true,
    }
}

impl SpanGuard {
    /// Attach a field to be emitted when the span closes. No-op when inert.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        if self.live {
            self.fields.push((key.to_string(), value.into()));
        }
    }

    /// The span's process-unique id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let parent = SPAN_STACK.with(|s| {
            let mut st = s.borrow_mut();
            // Pop our own id; whatever remains on top is the parent.
            if let Some(pos) = st.iter().rposition(|&x| x == self.id) {
                st.remove(pos);
            }
            st.last().copied().unwrap_or(0)
        });
        let us = epoch().elapsed().as_micros() as u64 - self.start_us;
        let mut j = Json::obj()
            .field("ev", "span")
            .field("id", self.id)
            .field("parent", parent)
            .field("name", self.name)
            .field("us", us);
        if !self.fields.is_empty() {
            j = j.field("fields", Json::Obj(std::mem::take(&mut self.fields)));
        }
        emit_line(j.to_string_compact());
    }
}

/// Emit a named counter sample, attributed to the innermost open span.
#[inline]
pub fn counter(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let j = Json::obj()
        .field("ev", "counter")
        .field("name", name)
        .field("value", value)
        .field("span", current_parent());
    emit_line(j.to_string_compact());
}

/// Emit a one-shot structured event, attributed to the innermost open span.
pub fn event(name: &str, fields: Json) {
    if !enabled() {
        return;
    }
    let j = Json::obj()
        .field("ev", "event")
        .field("name", name)
        .field("fields", fields)
        .field("span", current_parent());
    emit_line(j.to_string_compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink and the ENABLED flag are process-global, so the tests that
    // exercise them share one #[test] to avoid cross-test interference
    // under the default parallel test runner.
    #[test]
    fn spans_counters_and_noop_path() {
        // Disabled: everything is inert and nothing is buffered.
        assert!(!enabled());
        {
            let mut s = span("dead");
            s.set("k", 1u64);
            counter("dead_counter", 5);
        }
        assert!(take_memory().is_empty());

        // Enabled to memory: nesting and attribution are recorded.
        enable_to_memory();
        {
            let mut outer = span("network");
            outer.set("layers", 3u64);
            {
                let mut inner = span("layer");
                inner.set("cycles", 123u64);
                counter("flops", 42);
            }
        }
        let lines = take_memory();
        disable();
        // Note sink order: inner span closes (and is emitted) first.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""ev":"counter""#) && lines[0].contains(r#""value":42"#));
        assert!(lines[1].contains(r#""name":"layer""#));
        assert!(lines[2].contains(r#""name":"network""#) && lines[2].contains(r#""parent":0"#));
        // The inner span's parent is the outer span's id.
        let outer_id = lines[2]
            .split(r#""id":"#)
            .nth(1)
            .and_then(|s| s.split(',').next())
            .unwrap()
            .to_string();
        assert!(lines[1].contains(&format!(r#""parent":{outer_id}"#)));
        // The counter is attributed to the inner span.
        let inner_id = lines[1]
            .split(r#""id":"#)
            .nth(1)
            .and_then(|s| s.split(',').next())
            .unwrap()
            .to_string();
        assert!(lines[0].contains(&format!(r#""span":{inner_id}"#)));

        // Every line is an object: starts with '{', ends with '}'.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }

        // Thread-local capture: lines are diverted, the sink sees nothing
        // until they are replayed, and nested captures restore the outer one.
        enable_to_memory();
        let ((), captured) = capture_thread(|| {
            let _s = span("captured_span");
            counter("captured_counter", 7);
            let ((), inner) = capture_thread(|| counter("nested", 1));
            assert_eq!(inner.len(), 1);
            emit_captured(inner); // lands in the *outer* capture buffer
        });
        assert!(take_memory().is_empty(), "capture must divert from the sink");
        assert_eq!(captured.len(), 3);
        assert!(captured[0].contains("captured_counter"));
        assert!(captured[1].contains("nested"));
        assert!(captured[2].contains("captured_span"));
        emit_captured(captured);
        let replayed = take_memory();
        assert_eq!(replayed.len(), 3, "replay goes to the sink once capture ends");
        disable();
        // After capture + disable, emission is a no-op again.
        counter("post", 1);
        assert!(take_memory().is_empty());
    }
}
