//! Benchmark-owned spans: recorded around calls into the simulator's
//! public API, kept in memory, written out once when the run ends.
//!
//! The simulator itself is not instrumented (its own `lva-trace` stays
//! disabled); every span here brackets a call made from this crate.

use lva_trace::Json;
use std::io::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// The request this span belongs to; children inherit it.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. A disabled tracer records nothing and every call
/// on it is a cheap no-op, so untraced runs carry no tracing cost.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str, request: Option<u64>) -> SpanId {
        if !self.on {
            return None;
        }
        let parent = self.open.last().copied();
        let request = request.or_else(|| parent.and_then(|p| self.spans[p].request));
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Close `id` and every span opened inside it that is still open, so a
    /// child never outlives its parent even when a call unwinds.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.filter(|id| self.open.contains(id)) else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Rename an open or closed span (a call's path is known only after it
    /// returns).
    pub fn rename(&mut self, id: SpanId, name: &str) {
        if let Some(id) = id {
            self.spans[id].name = name.to_string();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Write every span as one JSON object per line, with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let j = Json::obj()
                .field("id", i)
                .field("name", s.name.as_str())
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("self_ns", own)
                .field("parent", s.parent.map_or(Json::Null, Json::from))
                .field("request", s.request.map_or(Json::Null, Json::from));
            writeln!(out, "{}", j.to_string_compact())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. Children may overlap one another or
/// stick out of the parent; only their union inside the parent counts.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.max(lo), s.end_ns.min(hi));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns() - covered
        })
        .collect()
}
