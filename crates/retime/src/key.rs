//! Identity keys: which experiments share a recording, and which share
//! a timing.
//!
//! The engine's soundness rests on two equivalences, each captured by a
//! key type:
//!
//! * [`StreamKey`] — two experiments share a *semantic stream* (and hence
//!   one recording) iff their kernels make identical decisions. Kernels
//!   see the ISA profile, the granted vector lengths, the conv policy and
//!   the workload data — but never lanes, latencies, cache capacities or
//!   `IdealSpec` knobs (that independence is exactly what the
//!   `lva-depgraph` certificates prove at the registry's shapes, and what
//!   the engine's Verify mode re-checks end to end). The one exception is
//!   Winograd, whose tile blocking reads the L2 capacity.
//! * [`ConfigKey`] — two runs have the same *timing* iff they agree on
//!   every timing input: the full hardware point plus the idealization
//!   spec.

use lva_core::{Experiment, HwTarget};

/// Identity of a semantic op stream: everything a kernel's control flow
/// can observe. Lanes are deliberately absent (timing-only; the
/// certificate gate refuses retiming if any registered kernel lets them
/// leak into its stream), and so is L2 capacity, except under a Winograd
/// policy: its tuple multiply sizes tile blocks from the L2 capacity, so
/// two capacities can reorder the same ops. The A64FX profile is its own
/// class — its prefetch-enabled kernel paths differ from gem5-SVE at the
/// same vector length.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamKey(String);

impl StreamKey {
    pub fn of(e: &Experiment) -> Self {
        let class = match e.hw {
            HwTarget::RvvGem5 { vlen_bits, .. } => format!("rvv/{vlen_bits}b"),
            HwTarget::SveGem5 { vlen_bits, .. } => format!("sve/{vlen_bits}b"),
            HwTarget::A64fx => "a64fx".into(),
        };
        let mut key = format!("{class}|{:?}|{:?}|seed={}", e.policy, e.workload, e.seed);
        if e.policy.winograd {
            key += &format!("|l2={}", e.hw.l2_bytes());
        }
        StreamKey(key)
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Identity of a timing configuration: the complete design point
/// (including the axes [`StreamKey`] ignores) plus the `IdealSpec`. The
/// engine stores nothing per `ConfigKey`; sweeps use it to tell design
/// points apart (two requests with equal keys would get equal results).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigKey(String);

impl ConfigKey {
    pub fn of(e: &Experiment) -> Self {
        ConfigKey(format!("{:?}|{:?}", e.hw, e.ideal))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::{scaled_input, Workload};
    use lva_kernels::GemmVariant;
    use lva_nn::{ConvPolicy, ModelId};
    use lva_sim::IdealKnob;

    fn base() -> Experiment {
        Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload {
                model: ModelId::Yolov3Tiny,
                input_hw: scaled_input(ModelId::Yolov3Tiny, 13),
                layer_limit: Some(2),
            },
        )
    }

    #[test]
    fn stream_key_ignores_timing_axes_only() {
        let e = base();
        let mut lanes = e.clone();
        lanes.hw = HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 4, l2_bytes: 1 << 20 };
        let mut l2 = e.clone();
        l2.hw = HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 4 << 20 };
        let ideal = e.clone().with_ideal(IdealKnob::PerfectL2.spec());
        // Timing-only changes share the stream...
        assert_eq!(StreamKey::of(&e), StreamKey::of(&lanes));
        assert_eq!(StreamKey::of(&e), StreamKey::of(&l2));
        assert_eq!(StreamKey::of(&e), StreamKey::of(&ideal));
        // ...but never the timing config.
        assert_ne!(ConfigKey::of(&e), ConfigKey::of(&lanes));
        assert_ne!(ConfigKey::of(&e), ConfigKey::of(&l2));
        assert_ne!(ConfigKey::of(&e), ConfigKey::of(&ideal));
    }

    #[test]
    fn stream_key_splits_semantic_axes() {
        let e = base();
        let mut vlen = e.clone();
        vlen.hw = HwTarget::RvvGem5 { vlen_bits: 4096, lanes: 8, l2_bytes: 1 << 20 };
        let mut isa = e.clone();
        isa.hw = HwTarget::SveGem5 { vlen_bits: 2048, l2_bytes: 1 << 20 };
        let mut seed = e.clone();
        seed.seed = 7;
        let mut shape = e.clone();
        shape.workload.layer_limit = Some(3);
        for other in [&vlen, &isa, &seed, &shape] {
            assert_ne!(StreamKey::of(&e), StreamKey::of(other));
        }
        // Winograd blocks its tuple multiply for the L2 capacity.
        let mut wino = e.clone();
        wino.policy = ConvPolicy::winograd_default(GemmVariant::opt3());
        let mut wino_l2 = wino.clone();
        wino_l2.hw = HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 4 << 20 };
        assert_ne!(StreamKey::of(&wino), StreamKey::of(&wino_l2));
    }
}
