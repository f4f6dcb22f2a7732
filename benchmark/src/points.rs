//! Seeded draw of the design points `retime_unseen` asks the engine for.
//!
//! After the capture, each stream gets five points the engine has not
//! seen, in this order:
//!
//! 1. two timing-only points at the capture's cache geometry (other lane
//!    counts on RVV, `IdealKnob`s on SVE) — tape refits;
//! 2. the capture configuration with a new L2 size — a live replay, which
//!    records a tape at the new geometry;
//! 3. two timing-only points at that new L2 — tape refits on the new tape.

use lva_core::{Experiment, HwTarget};
use lva_sim::{IdealKnob, Rng};

/// Lane counts a timing-only RVV point draws from.
pub const LANES: [usize; 4] = [2, 4, 16, 32];
/// L2 sizes (MB) the geometry-changing point draws from.
pub const L2_MB: [usize; 4] = [4, 16, 64, 256];

/// The five unseen points of one stream, plus which one the run verifies
/// against a full simulation.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    pub points: Vec<Experiment>,
    pub verify: usize,
}

/// Draw the plan for stream number `stream` from `seed`. Deterministic in
/// `(capture, seed, stream)`.
///
/// # Panics
/// Panics on an A64FX capture, whose geometry is fixed.
pub fn stream_plan(capture: &Experiment, seed: u64, stream: usize) -> StreamPlan {
    let mut rng = Rng::new(seed ^ (stream as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let l2 = L2_MB[rng.gen_index(0, L2_MB.len())] << 20;
    let mut points = Vec::with_capacity(5);
    match capture.hw {
        HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes } => {
            assert!(!LANES.contains(&lanes) && !L2_MB.contains(&(l2_bytes >> 20)));
            let at = |lanes, l2_bytes| {
                let mut e = capture.clone();
                e.hw = HwTarget::RvvGem5 { vlen_bits, lanes, l2_bytes };
                e
            };
            let mut pick = LANES;
            rng.shuffle(&mut pick);
            points.extend(pick[..2].iter().map(|&n| at(n, l2_bytes)));
            points.push(at(lanes, l2));
            rng.shuffle(&mut pick);
            points.extend(pick[..2].iter().map(|&n| at(n, l2)));
        }
        HwTarget::SveGem5 { vlen_bits, l2_bytes } => {
            assert!(!L2_MB.contains(&(l2_bytes >> 20)));
            let at = |knob: Option<IdealKnob>, l2_bytes| {
                let mut e = capture.clone();
                e.hw = HwTarget::SveGem5 { vlen_bits, l2_bytes };
                e.ideal = knob.map_or(e.ideal, IdealKnob::spec);
                e
            };
            let mut pick = IdealKnob::ALL;
            rng.shuffle(&mut pick);
            points.extend(pick[..2].iter().map(|&k| at(Some(k), l2_bytes)));
            points.push(at(None, l2));
            rng.shuffle(&mut pick);
            points.extend(pick[..2].iter().map(|&k| at(Some(k), l2)));
        }
        HwTarget::A64fx => panic!("the A64FX profile has no geometry axis to draw from"),
    }
    let verify = rng.gen_index(0, points.len());
    StreamPlan { points, verify }
}
