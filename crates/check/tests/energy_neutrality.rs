//! The energy-accounting contract at kernel granularity: the attribution
//! of a run that opens no layer must put the machine's aggregate counts in
//! its `outside` bucket and reconcile with the aggregate estimate — per
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
fn bare_kernel_energy_lands_outside_and_reconciles_for_every_kernel_and_design_point() {
    for (profile, cfg) in design_points() {
        for case in registered_kernels().iter().filter(|c| c.supports(cfg.vpu.isa)) {
            let mut m = Machine::new(cfg.clone());
            (case.run)(&mut m);
            let what = format!("{} on {profile}", case.name);
            assert!(m.layers().is_empty(), "{what}: kernels open no layer scope");

            let report = lva_nn::NetReport {
                layers: Vec::new(),
                cycles: m.cycles(),
                phases: m.phases.clone(),
                vpu: m.stats,
                mem: m.sys.stats(),
                stalls: m.stalls,
            };
            let att = EnergyAttribution::new(&report, m.layers(), &EnergyModel::default(), 1 << 20);
            assert!(att.layers.is_empty(), "{what}: no layer scopes in a bare kernel run");
            let aggregate = EnergyCounts::from_stats(&m.stats, &m.sys.stats());
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
