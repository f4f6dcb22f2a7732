//! Pipeline timeline export: turn a [`PipeEvent`] stream (plus optional
//! layer boundaries) into a Chrome trace-event timeline.
//!
//! Track layout, one swim lane per pipeline resource:
//!
//! * `layer`  — `B`/`E` pairs, one per record of the machine's layer book
//!   ([`lva_isa::Machine::layers`]), named `L<index> <desc>`;
//! * `phase`  — `B`/`E` pairs from [`PipeEvent::PhaseBegin`]/`PhaseEnd`;
//! * `stall:<cause>` — one `X` (complete) event per attributed stall
//!   interval, a separate track per [`StallCause`] so the §IV stall
//!   breakdown reads directly off the timeline.
//!
//! Stall intervals arrive in issue order, which under the out-of-order
//! window is not globally time-sorted; events are sorted per track before
//! insertion so the result always satisfies
//! [`lva_trace::ChromeTrace::validate`].
//!
//! Two compactions keep the export Perfetto-sized without losing timeline
//! information:
//!
//! * touching or overlapping stall intervals of the same cause are merged
//!   into one `X` event — "is this resource stalled at cycle t" is
//!   unchanged, but per-instruction issue-width slivers (millions on a
//!   full-network run) collapse into contiguous blocks; callers with long
//!   streams can additionally absorb sub-resolution gaps via
//!   [`timeline_coarse`];
//! * a phase left open because the recorder hit its event cap
//!   ([`lva_isa::Machine::MAX_PIPE_EVENTS`]) is closed at the last
//!   recorded timestamp, so truncated streams still validate.

use lva_isa::{LayerRecord, PipeEvent};
use lva_trace::ChromeTrace;

/// Build a validated timeline from recorded pipeline events and the
/// machine's layer book.
///
/// `layers` may be empty (kernel-level runs have no layer structure).
pub fn timeline(events: &[PipeEvent], layers: &[LayerRecord]) -> ChromeTrace {
    timeline_coarse(events, layers, 0)
}

/// Like [`timeline`], but absorb gaps shorter than `resolution` cycles
/// between same-cause stall intervals.
///
/// Full-network runs emit one issue-width sliver per instruction — millions
/// of `X` events no viewer can render and no artifact store wants. Gaps
/// below the chosen resolution are invisible at any usable zoom, so
/// coalescing across them bounds the export to roughly
/// `total_cycles / resolution` events per track while leaving every stall
/// cycle inside some rendered interval. `resolution == 0` is exact.
pub fn timeline_coarse(
    events: &[PipeEvent],
    layers: &[LayerRecord],
    resolution: u64,
) -> ChromeTrace {
    let mut t = ChromeTrace::new();

    for l in layers {
        t.begin("layer", &format!("L{} {}", l.index, l.desc), l.begin.cycles);
        t.end("layer", l.end.cycles.max(l.begin.cycles));
    }

    // Phases nest and are recorded in order, so B/E pass through directly.
    // If the recorder's event cap truncated the stream mid-phase, close the
    // dangling begins at the last timestamp seen so the trace validates.
    let mut open_phases = 0usize;
    let mut last_ts = 0u64;
    for ev in events {
        match ev {
            PipeEvent::PhaseBegin { phase, at } => {
                t.begin("phase", phase.name(), *at);
                open_phases += 1;
                last_ts = last_ts.max(*at);
            }
            PipeEvent::PhaseEnd { at, .. } => {
                t.end("phase", *at);
                open_phases = open_phases.saturating_sub(1);
                last_ts = last_ts.max(*at);
            }
            PipeEvent::Stall { end, .. } => last_ts = last_ts.max(*end),
        }
    }
    for _ in 0..open_phases {
        t.end("phase", last_ts);
    }

    // Stalls: bucket per cause, then sort each bucket by start time.
    let mut by_cause: Vec<(&'static str, Vec<(u64, u64)>)> = Vec::new();
    for ev in events {
        if let PipeEvent::Stall { cause, start, end } = ev {
            let name = cause.name();
            let bucket = match by_cause.iter_mut().find(|(n, _)| *n == name) {
                Some((_, b)) => b,
                None => {
                    by_cause.push((name, Vec::new()));
                    &mut by_cause.last_mut().expect("just pushed").1
                }
            };
            bucket.push((*start, *end));
        }
    }
    for (name, mut intervals) in by_cause {
        intervals.sort_unstable();
        let track = format!("stall:{name}");
        // Merge touching/overlapping intervals (plus sub-resolution gaps):
        // same stalled-at-cycle-t answer at the rendered scale, a fraction
        // of the events.
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (start, end) in intervals {
            match merged.last_mut() {
                Some((_, e)) if start <= e.saturating_add(resolution) => *e = (*e).max(end),
                _ => merged.push((start, end)),
            }
        }
        for (start, end) in merged {
            t.complete(&track, name, start, end - start);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_isa::{KernelPhase, Machine, MachineConfig};

    #[test]
    fn recorded_run_yields_valid_trace() {
        let mut m = Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
        m.record_pipe_events();
        let a = m.mem.alloc(4096);
        m.layer_begin(0, "conv");
        let vl = m.setvl(64);
        m.phase(KernelPhase::Pack, |m| {
            for i in 0..16 {
                m.vle(0, a.addr(i * 64), vl);
                m.vse(0, a.addr(i * 64), vl);
            }
        });
        m.phase(KernelPhase::Gemm, |m| {
            m.vbroadcast(0, 1.0, vl);
            for _ in 0..8 {
                m.vfmacc_vf(1, 1.5, 0, vl);
            }
        });
        m.layer_end();
        let events = m.take_pipe_events();
        let t = timeline(&events, m.layers());
        assert_eq!(t.validate(), Ok(()), "timeline must be well-formed");
        assert!(!t.is_empty());
        // Phase track is present with both phases; at least one stall track.
        let j = t.to_json();
        let text = j.to_string_compact();
        assert!(text.contains(r#""name":"phase""#));
        assert!(text.contains(r#""name":"layer""#));
        assert!(text.contains("stall:"));
        assert_eq!(lva_trace::Json::parse(&text).expect("parses"), j);
    }

    #[test]
    fn coarse_timeline_absorbs_sub_resolution_gaps() {
        use lva_isa::StallCause;
        // Three mem-latency slivers separated by 2-cycle gaps, then a far one.
        let ev = |start, end| PipeEvent::Stall { cause: StallCause::MemLatency, start, end };
        let events = vec![ev(0, 4), ev(6, 10), ev(12, 16), ev(1000, 1010)];
        let exact = timeline(&events, &[]);
        let coarse = timeline_coarse(&events, &[], 4);
        assert_eq!(exact.validate(), Ok(()));
        assert_eq!(coarse.validate(), Ok(()));
        // Exact keeps all four; coarse merges the first three (gaps of 2 < 4)
        // but not across the 984-cycle gap.
        let stalls = |t: &ChromeTrace| {
            let text = t.to_json().to_string_compact();
            text.matches(r#""ph":"X""#).count()
        };
        assert_eq!(stalls(&exact), 4);
        assert_eq!(stalls(&coarse), 2);
    }

    #[test]
    fn truncated_phase_stream_still_validates() {
        use lva_isa::KernelPhase;
        // A Begin with no End, as the recorder cap produces mid-phase.
        let events = vec![
            PipeEvent::PhaseBegin { phase: KernelPhase::Gemm, at: 5 },
            PipeEvent::Stall { cause: lva_isa::StallCause::MemLatency, start: 5, end: 30 },
        ];
        let t = timeline(&events, &[]);
        assert_eq!(t.validate(), Ok(()), "dangling phase must be closed");
    }

    #[test]
    fn empty_events_yield_empty_valid_trace() {
        let t = timeline(&[], &[]);
        assert!(t.is_empty());
        assert_eq!(t.validate(), Ok(()));
    }
}
