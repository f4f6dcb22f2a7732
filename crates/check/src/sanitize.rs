//! The four sanitizer passes over a recorded vector-event stream.
//!
//! Each pass is a linear fold over the [`VecEvent`]s decoded from a
//! kernel's capture ([`lva_isa::ReplayTrace::vec_events`]), plus the
//! allocation registry of the arena the kernel ran in. Findings are
//! deduplicated on a per-pass key (the same bug inside a loop is reported
//! once, not once per iteration).
//!
//! Pass semantics:
//!
//! * **uninit-read** — def-use analysis over the 32 vector registers. A
//!   definition with vector length `vl` defines the first `vl` lanes; lanes
//!   beyond `vl` keep their previous contents, so the defined prefix of a
//!   register only ever grows (this is what makes the common broadcast-full /
//!   accumulate-partial / reduce-full idiom legal). A read of more lanes
//!   than are defined is flagged.
//! * **oob** — every memory-touching event must fall inside the single live
//!   allocation that contains its start address; running past the end of a
//!   [`lva_sim::Buf`] (even into the padding before the next one) is flagged.
//! * **war-overlap** — load provenance: a register loaded from memory
//!   "remembers" its source range; a later store that overlaps the range
//!   (from a *different* register — writing a register back to where it was
//!   loaded from is the GEMM accumulator idiom) marks the copy stale, and
//!   any subsequent read of the stale register is flagged. Redefinition
//!   clears both provenance and staleness.
//! * **vl-discipline** — a partial vector length (shorter than a full
//!   register) may only be the exact length of the active `setvl`/`whilelt`
//!   grant, so predicated tails happen exactly where a grant says they do;
//!   full-register operation (`vl == vlen`) is the whole-register idiom and
//!   is always legal.

use crate::Finding;
use lva_isa::{EventKind, VecEvent, NUM_VREGS};
use lva_sim::AllocRecord;
use std::collections::HashSet;

/// Everything the passes need to know about one recorded kernel run.
pub struct EventTrace<'a> {
    pub kernel: &'a str,
    pub profile: &'a str,
    pub events: &'a [VecEvent],
    pub allocs: &'a [AllocRecord],
    /// Full register length in `f32` elements on the machine that ran.
    pub vlen_elems: usize,
}

impl EventTrace<'_> {
    fn finding(&self, pass: &'static str, detail: String) -> Finding {
        Finding { pass, kernel: self.kernel.to_string(), profile: self.profile.to_string(), detail }
    }

    /// Label of the allocation containing `addr`, for messages.
    fn buf_name(&self, addr: u64) -> &str {
        self.allocs.iter().find(|r| r.contains(addr)).map_or("<unmapped>", |r| r.label.as_str())
    }
}

/// Run all four passes.
pub fn sanitize(t: &EventTrace) -> Vec<Finding> {
    let mut out = uninit_reads(t);
    out.extend(oob_accesses(t));
    out.extend(war_overlaps(t));
    out.extend(vl_discipline(t));
    out
}

/// Pass 1: reads of register lanes no definition has reached.
pub fn uninit_reads(t: &EventTrace) -> Vec<Finding> {
    let mut defined = [0usize; NUM_VREGS];
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (i, ev) in t.events.iter().enumerate() {
        for &src in ev.srcs.iter().flatten() {
            let have = defined[src];
            if have < ev.vl && seen.insert((ev.op, src)) {
                out.push(t.finding(
                    "uninit-read",
                    format!(
                        "event {i}: {} reads v{src} over {} lanes but only {have} are defined",
                        ev.op, ev.vl
                    ),
                ));
            }
        }
        if let Some(dst) = ev.dst {
            if matches!(ev.kind, EventKind::Load | EventKind::Arith) {
                // Monotone: lanes beyond vl keep their old (defined) values.
                defined[dst] = defined[dst].max(ev.vl);
            }
        }
    }
    out
}

/// Pass 2: accesses that run past the end of the buffer they start in.
pub fn oob_accesses(t: &EventTrace) -> Vec<Finding> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (i, ev) in t.events.iter().enumerate() {
        if !ev.touches_memory() {
            continue;
        }
        match t.allocs.iter().find(|r| r.contains(ev.lo)) {
            None => {
                if seen.insert((ev.op, u64::MAX)) {
                    out.push(t.finding(
                        "oob",
                        format!(
                            "event {i}: {} (vl={}) touches [{:#x}, {:#x}) outside any live \
                             allocation",
                            ev.op, ev.vl, ev.lo, ev.hi
                        ),
                    ));
                }
            }
            Some(r) => {
                let end = r.buf.base + r.buf.bytes() as u64;
                if ev.hi > end && seen.insert((ev.op, r.buf.base)) {
                    out.push(t.finding(
                        "oob",
                        format!(
                            "event {i}: {} (vl={}) runs {} bytes past the end of '{}' \
                             ({} words at {:#x})",
                            ev.op,
                            ev.vl,
                            ev.hi - end,
                            r.label,
                            r.buf.words,
                            r.buf.base
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Pass 3: stale register copies (write-after-read overlap hazards).
pub fn war_overlaps(t: &EventTrace) -> Vec<Finding> {
    // Per register: the memory range it was loaded from, if still live.
    let mut prov: [Option<(u64, u64)>; NUM_VREGS] = [None; NUM_VREGS];
    // Per register: the store op + event index that overwrote its source.
    let mut stale: [Option<(&'static str, usize)>; NUM_VREGS] = [None; NUM_VREGS];
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (i, ev) in t.events.iter().enumerate() {
        for &src in ev.srcs.iter().flatten() {
            if let Some((store_op, j)) = stale[src] {
                if seen.insert(src) {
                    let (lo, _) = prov[src].unwrap_or((0, 0));
                    out.push(t.finding(
                        "war-overlap",
                        format!(
                            "event {i}: {} reads v{src}, a stale copy of '{}' — {store_op} at \
                             event {j} overwrote its source range after the load",
                            ev.op,
                            t.buf_name(lo)
                        ),
                    ));
                }
            }
        }
        match ev.kind {
            EventKind::Load => {
                prov[ev.dst.expect("loads define a register")] = Some((ev.lo, ev.hi));
                stale[ev.dst.expect("loads define a register")] = None;
            }
            EventKind::Arith => {
                if let Some(dst) = ev.dst {
                    prov[dst] = None;
                    stale[dst] = None;
                }
            }
            EventKind::Store if ev.writes_memory() => {
                let src = ev.srcs[0];
                for r in 0..NUM_VREGS {
                    // Storing a register over its own source range is the
                    // accumulator write-back idiom, not a hazard.
                    if Some(r) == src {
                        continue;
                    }
                    if let Some((lo, hi)) = prov[r] {
                        if ev.lo < hi && lo < ev.hi && stale[r].is_none() {
                            stale[r] = Some((ev.op, i));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Pass 4: every partial vector length must be an active grant.
pub fn vl_discipline(t: &EventTrace) -> Vec<Finding> {
    let mut grant: Option<usize> = None;
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (i, ev) in t.events.iter().enumerate() {
        match ev.kind {
            EventKind::Grant => grant = Some(ev.vl),
            EventKind::Load | EventKind::Store | EventKind::Arith | EventKind::Reduce => {
                if ev.vl == t.vlen_elems {
                    continue; // whole-register idiom
                }
                match grant {
                    Some(g) if ev.vl == g => {}
                    Some(g) => {
                        if seen.insert((ev.op, ev.vl)) {
                            out.push(t.finding(
                                "vl-discipline",
                                format!(
                                    "event {i}: {} uses vl={} but the active grant is {g} \
                                     (vlen={})",
                                    ev.op, ev.vl, t.vlen_elems
                                ),
                            ));
                        }
                    }
                    None => {
                        if seen.insert((ev.op, ev.vl)) {
                            out.push(t.finding(
                                "vl-discipline",
                                format!(
                                    "event {i}: {} uses partial vl={} with no preceding \
                                     setvl/whilelt grant (vlen={})",
                                    ev.op, ev.vl, t.vlen_elems
                                ),
                            ));
                        }
                    }
                }
            }
            EventKind::PhaseBegin | EventKind::PhaseEnd => {}
        }
    }
    out
}
