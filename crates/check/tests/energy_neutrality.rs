//! The energy-accounting contract at kernel granularity: the machine's
//! layer-counter recorder must leave cycle counts and every counter
//! bit-identical, and the attribution of a run that opens no layer must
//! put the machine's aggregate counts in its `outside` bucket — per
//! kernel, per Table II design point.

use lva_check::registered_kernels;
use lva_energy::{EnergyAttribution, EnergyCounts, EnergyModel};
use lva_isa::{Machine, MachineConfig};

/// Three Table II design points: RVV at the short and long ends of the
/// vector-length axis, plus the SVE profile (no vector cache, hardware
/// prefetch) so both memory-path shapes are covered.
fn design_points() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("rvv/512b", MachineConfig::rvv_gem5(512, 8, 1 << 20)),
        ("rvv/4096b", MachineConfig::rvv_gem5(4096, 8, 1 << 20)),
        ("sve/512b", MachineConfig::sve_gem5(512, 1 << 20)),
    ]
}

#[test]
fn layer_counter_recorder_is_timing_neutral_for_every_kernel_and_design_point() {
    for (profile, cfg) in design_points() {
        for case in registered_kernels().iter().filter(|c| c.supports(cfg.vpu.isa)) {
            let mut plain = Machine::new(cfg.clone());
            (case.run)(&mut plain);
            let mut recorded = Machine::new(cfg.clone());
            recorded.record_layer_counters();
            (case.run)(&mut recorded);
            let layers = recorded.take_layer_counters();
            let what = format!("{} on {profile}", case.name);
            assert_eq!(plain.cycles(), recorded.cycles(), "recorder changed the cycles of {what}");
            assert_eq!(plain.stats, recorded.stats, "recorder changed VPU counters of {what}");
            assert_eq!(
                plain.sys.stats(),
                recorded.sys.stats(),
                "recorder changed memory-system counters of {what}"
            );
            assert!(layers.is_empty(), "{what}: kernels open no layer scope");

            let report = lva_nn::NetReport {
                layers: Vec::new(),
                cycles: recorded.cycles(),
                phases: recorded.phases.clone(),
                vpu: recorded.stats,
                mem: recorded.sys.stats(),
                stalls: recorded.stalls,
            };
            let att = EnergyAttribution::new(&report, &layers, &EnergyModel::default(), 1 << 20);
            assert!(att.layers.is_empty(), "{what}: no layer scopes in a bare kernel run");
            let aggregate = EnergyCounts::from_stats(&recorded.stats, &recorded.sys.stats());
            assert_eq!(att.outside_counts, aggregate, "{what}");
            assert!(
                att.reconciliation_rel_err() < 1e-6,
                "{what}: attributed {} J vs aggregate {} J",
                att.total.total_j(),
                att.report.total_j()
            );
        }
    }
}
