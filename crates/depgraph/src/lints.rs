//! Dataflow lint passes over one recorded stream.
//!
//! Both passes are consequences of the dependence analysis the DAG makes
//! explicit, phrased as actionable findings:
//!
//! * **redundant-load** — a unit-stride `vle` whose exact byte range is
//!   already live in a vector register (loaded earlier, not overwritten in
//!   memory since, register not redefined since). The reload costs bus
//!   occupancy and result latency for data the register file already holds;
//!   the fix is a `vmv` or direct reuse. Provenance is tracked only for
//!   exact-range unit-stride loads and propagated through `vmv`, so a
//!   finding is a certainty, not a heuristic.
//! * **dead-store** — a unit-stride store whose every byte is overwritten
//!   by later unit-stride stores before any load reads it. Stores still
//!   live at the end of the stream are *not* flagged (outputs escape the
//!   recorded window), and only `vse` events participate: a strided or
//!   scattered store's `[lo, hi)` span over-approximates the bytes it
//!   actually writes, so treating it as a killer (or a candidate) would
//!   fabricate findings. Sparse stores instead *keep alive* every store
//!   they overlap.
//!
//! Known blind spot, by contract: the passes read the vector events
//! decoded from a capture, and decoding drops scalar work. The trace holds
//! every scalar read (`ScalarRead` ops, and the A reads inside each GEMM
//! row update, `ReplayOp::VMaccRows`) but the events do not, so data
//! consumed that way (the A-operand path of the packed GEMM micro-kernels)
//! is invisible — a store feeding scalar reads looks unread. Such findings
//! are allowlisted with that reason rather than suppressed, so the report
//! still shows them.
//!
//! Real findings on registry kernels either get fixed or are explicitly
//! allowlisted in [`ALLOWLIST`] with a reason; `lint-dataflow` gates CI on
//! anything new.

use std::collections::BTreeMap;

use lva_check::Finding;
use lva_isa::{EventKind, VecEvent, NUM_VREGS};
use lva_sim::AllocRecord;

use crate::certify::label_of;

/// Findings accepted as intentional, with the reviewed reason. Consulted by
/// `lint-dataflow` before gating: an allowlisted finding is reported but
/// does not fail the run.
pub const ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "aux_ops",
        "redundant-load",
        "copy_vec hands the freshly copied chunk to add_inplace_vec, which reloads it; \
         the registry case chains them deliberately to keep the stale-copy sanitizer \
         pass exercised on a live pattern",
    ),
    (
        "fc_softmax",
        "redundant-load",
        "fully_connected_vec reloads the x operand chunk for every output row; hoisting \
         it needs row-blocked accumulators (a real co-design opportunity the lint is \
         meant to surface), tracked rather than gated",
    ),
    (
        "gemm_opt6",
        "dead-store",
        "the packed-A panel is consumed through Machine::scalar_read (the scalar \
         A-operand broadcast path of Fig. 3), which the vector event IR does not \
         record; the stores are live, the reads are just invisible to the stream",
    ),
];

/// Whether `(kernel, pass)` has an allowlist entry; returns the reason.
pub fn allowlisted(kernel: &str, pass: &str) -> Option<&'static str> {
    ALLOWLIST.iter().find(|(k, p, _)| *k == kernel && *p == pass).map(|&(_, _, r)| r)
}

/// Run both lint passes over one recorded stream.
pub fn lint_dataflow(
    kernel: &str,
    profile: &str,
    events: &[VecEvent],
    allocs: &[AllocRecord],
) -> Vec<Finding> {
    let mut findings = redundant_loads(kernel, profile, events, allocs);
    findings.extend(dead_stores(kernel, profile, events, allocs));
    findings
}

// ---------------------------------------------------------------------
// Redundant-load pass
// ---------------------------------------------------------------------

/// Detect unit-stride loads whose exact byte range is already live in a
/// register. Per-register provenance: `Some((lo, hi))` means the register
/// holds exactly the bytes `[lo, hi)` as they currently are in memory.
fn redundant_loads(
    kernel: &str,
    profile: &str,
    events: &[VecEvent],
    allocs: &[AllocRecord],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut prov: [Option<(u64, u64)>; NUM_VREGS] = [None; NUM_VREGS];
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::Load => {
                let range = (ev.lo, ev.hi);
                if ev.op == "vle" {
                    if let Some(r) = prov.iter().position(|&p| p == Some(range)) {
                        findings.push(Finding {
                            pass: "redundant-load",
                            kernel: kernel.to_string(),
                            profile: profile.to_string(),
                            detail: format!(
                                "event #{i}: vle v{dst} reloads [{lo:#x}, {hi:#x}) of `{label}` \
                                 already live in v{r}",
                                dst = ev.dst.unwrap_or(0),
                                lo = ev.lo,
                                hi = ev.hi,
                                label = label_of(allocs, ev.lo),
                            ),
                        });
                    }
                }
                if let Some(d) = ev.dst {
                    // Only exact unit-stride ranges are trustworthy
                    // provenance; gathers and strided loads clear it.
                    prov[d] = (ev.op == "vle").then_some(range);
                }
            }
            EventKind::Store => {
                // Memory moved on from what any overlapping register holds.
                for p in &mut prov {
                    if let Some((lo, hi)) = *p {
                        if ev.lo < hi && lo < ev.hi {
                            *p = None;
                        }
                    }
                }
            }
            EventKind::Arith => {
                if let Some(d) = ev.dst {
                    // `vmv` copies provenance; everything else destroys it.
                    prov[d] = if ev.op == "vmv" { ev.srcs[0].and_then(|s| prov[s]) } else { None };
                }
            }
            EventKind::Reduce | EventKind::Grant | EventKind::PhaseBegin | EventKind::PhaseEnd => {}
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Dead-store pass
// ---------------------------------------------------------------------

/// Per-store accounting for the dead-store scan.
#[derive(Debug, Default, Clone)]
struct StoreState {
    total_bytes: u64,
    overwritten_bytes: u64,
    read: bool,
}

/// Detect stores fully overwritten before any read. Byte segments map to
/// the event index of their last writer; loads mark that writer as read,
/// later stores transfer the overlapped bytes to the overwritten tally.
fn dead_stores(
    kernel: &str,
    profile: &str,
    events: &[VecEvent],
    allocs: &[AllocRecord],
) -> Vec<Finding> {
    // start -> (end, writer event index). Maximal disjoint segments.
    let mut segs: BTreeMap<u64, (u64, usize)> = BTreeMap::new();
    let mut stores: BTreeMap<usize, StoreState> = BTreeMap::new();

    let split_at = |segs: &mut BTreeMap<u64, (u64, usize)>, at: u64| {
        if let Some((&start, &(end, w))) = segs.range(..at).next_back() {
            if end > at {
                segs.insert(start, (at, w));
                segs.insert(at, (end, w));
            }
        }
    };
    let overlapped =
        |segs: &BTreeMap<u64, (u64, usize)>, lo: u64, hi: u64| -> Vec<(u64, u64, usize)> {
            // Start from the last segment beginning at or before `lo` (it may
            // span into the range); everything later in `[lo, hi)` overlaps.
            let first = match segs.range(..=lo).next_back() {
                Some((&s, &(end, _))) if end > lo => s,
                _ => lo,
            };
            segs.range(first..hi)
                .filter(|&(_, &(end, _))| end > lo)
                .map(|(&s, &(e, w))| (s, e, w))
                .collect()
        };

    for (i, ev) in events.iter().enumerate() {
        if !ev.touches_memory() {
            continue;
        }
        match ev.kind {
            EventKind::Load => {
                for (_, _, w) in overlapped(&segs, ev.lo, ev.hi) {
                    if let Some(st) = stores.get_mut(&w) {
                        st.read = true;
                    }
                }
            }
            EventKind::Store if ev.op == "vse" => {
                split_at(&mut segs, ev.lo);
                split_at(&mut segs, ev.hi);
                for (s, e, w) in overlapped(&segs, ev.lo, ev.hi) {
                    segs.remove(&s);
                    if let Some(st) = stores.get_mut(&w) {
                        st.overwritten_bytes += e - s;
                    }
                }
                segs.insert(ev.lo, (ev.hi, i));
                stores
                    .insert(i, StoreState { total_bytes: ev.hi - ev.lo, ..StoreState::default() });
            }
            EventKind::Store => {
                // Strided/scattered store: its `[lo, hi)` span covers bytes
                // it does not write, so it can neither kill earlier stores
                // nor be proven dead itself. Conservatively keep every
                // overlapped store alive (its untouched bytes stay visible).
                for (_, _, w) in overlapped(&segs, ev.lo, ev.hi) {
                    if let Some(st) = stores.get_mut(&w) {
                        st.read = true;
                    }
                }
            }
            _ => {}
        }
    }

    stores
        .iter()
        .filter(|(_, st)| !st.read && st.overwritten_bytes == st.total_bytes)
        .map(|(&i, _)| {
            let ev = &events[i];
            Finding {
                pass: "dead-store",
                kernel: kernel.to_string(),
                profile: profile.to_string(),
                detail: format!(
                    "event #{i}: {op} to [{lo:#x}, {hi:#x}) of `{label}` is fully overwritten \
                     before any read",
                    op = ev.op,
                    lo = ev.lo,
                    hi = ev.hi,
                    label = label_of(allocs, ev.lo),
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_reload_is_flagged_and_store_invalidates() {
        let events = vec![
            VecEvent::load("vle", 1, 0x100, 0x140, 16),
            VecEvent::load("vle", 2, 0x100, 0x140, 16), // redundant: v1 holds it
            VecEvent::store("vse", 2, 0x100, 0x140, 16),
            VecEvent::load("vle", 3, 0x100, 0x140, 16), // not redundant: memory changed
        ];
        let f = redundant_loads("k", "p", &events, &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("event #1"), "{}", f[0].detail);
        assert!(f[0].detail.contains("already live in v1"), "{}", f[0].detail);
    }

    #[test]
    fn vmv_propagates_provenance_and_arith_clears_it() {
        let events = vec![
            VecEvent::load("vle", 1, 0x100, 0x140, 16),
            VecEvent::arith("vmv", 2, [Some(1), None, None], 16),
            VecEvent::arith("vfadd.vf", 1, [Some(1), None, None], 16), // v1 clobbered
            VecEvent::load("vle", 3, 0x100, 0x140, 16),                // still redundant via v2
        ];
        let f = redundant_loads("k", "p", &events, &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("already live in v2"), "{}", f[0].detail);
    }

    #[test]
    fn partial_overlap_is_not_redundant() {
        let events = vec![
            VecEvent::load("vle", 1, 0x100, 0x140, 16),
            VecEvent::load("vle", 2, 0x100, 0x120, 8), // subset, not exact
        ];
        assert!(redundant_loads("k", "p", &events, &[]).is_empty());
    }

    #[test]
    fn fully_overwritten_unread_store_is_dead() {
        let events = vec![
            VecEvent::store("vse", 1, 0x100, 0x140, 16),
            VecEvent::store("vse", 2, 0x100, 0x140, 16), // kills the first
        ];
        let f = dead_stores("k", "p", &events, &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("event #0"), "{}", f[0].detail);
    }

    #[test]
    fn read_or_partial_overwrite_keeps_a_store_live() {
        let events = vec![
            VecEvent::store("vse", 1, 0x100, 0x140, 16),
            VecEvent::load("vle", 2, 0x100, 0x110, 4), // read: live
            VecEvent::store("vse", 3, 0x100, 0x140, 16),
            VecEvent::store("vse", 4, 0x100, 0x120, 8), // partial: #2 stays live
        ];
        assert!(dead_stores("k", "p", &events, &[]).is_empty());
    }

    #[test]
    fn sparse_stores_neither_kill_nor_die() {
        let events = vec![
            VecEvent::store("vse", 1, 0x100, 0x140, 16),
            // Scatter spanning the same bytes: writes only some of them, so
            // it must not kill #0 — and must not be a dead-store candidate
            // itself even though the vse below covers its whole span.
            VecEvent::store("vscatter4", 2, 0x100, 0x140, 16),
            VecEvent::store("vse", 3, 0x100, 0x140, 16),
        ];
        assert!(dead_stores("k", "p", &events, &[]).is_empty());
    }

    #[test]
    fn end_of_stream_stores_escape() {
        let events = vec![VecEvent::store("vse", 1, 0x100, 0x140, 16)];
        assert!(dead_stores("k", "p", &events, &[]).is_empty());
    }
}
