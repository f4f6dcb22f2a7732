//! The energy contract at experiment granularity, over the real headline
//! suite: on every §VI design point, (a) the attributed run's cycle count
//! is bit-identical to a plain run's, and (b) the per-layer
//! attribution reconciles with the aggregate `EnergyModel` estimate within
//! 1e-6 relative — the sum-to-total invariant, on every headline-suite run.

use lva_bench::headline_specs;
use lva_core::EnergyModel;

#[test]
fn headline_suite_reconciles_and_stays_timing_neutral() {
    let model = EnergyModel::default();
    // Reduced scale (div 16, 4-layer prefix) keeps the nine-point suite
    // fast in debug CI while still exercising all three hardware targets
    // and both gemm variants.
    for (name, e) in headline_specs(16, Some(4)) {
        let plain = e.run();
        let (s, att) = e.run_energy(&model);
        assert_eq!(plain.cycles, s.cycles, "{name}: energy accounting changed the cycle count");
        let err = att.reconciliation_rel_err();
        assert!(
            err < 1e-6,
            "{name}: attributed {} J vs aggregate {} J (rel err {err:e})",
            att.total.total_j(),
            att.report.total_j()
        );
        assert!(!att.layers.is_empty(), "{name}: expected per-layer attribution");
        assert!(att.total.total_j() > 0.0, "{name}: a real run burns energy");
        // Per-layer totals plus the outside bucket make up the whole run.
        let layer_sum: f64 = att.layers.iter().map(|l| l.breakdown.total_j()).sum();
        let whole = layer_sum + att.outside.total_j();
        assert!(
            (whole - att.total.total_j()).abs() <= 1e-9 * att.total.total_j(),
            "{name}: layers + outside must equal the run total"
        );
    }
}
