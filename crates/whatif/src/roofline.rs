//! Roofline analysis for the co-design study.
//!
//! Implements the arithmetic-intensity and sustained-performance accounting
//! behind the paper's Table IV: for each discrete GEMM-shaped convolutional
//! layer,
//!
//! ```text
//! AI = ArithmeticOperations / Bytes = 2*M*N*K / (4*(M*N + K*N + M*K))
//! ```
//!
//! and the sustained fraction of peak is `flops / (cycles * peak_per_cycle)`
//! where the machine peak is `2 * lanes` SP flops per cycle (62.5 GFLOP/s on
//! a 2 GHz A64FX core in the paper; 64 GFLOP/s in our model).

use lva_isa::MachineConfig;

/// Arithmetic intensity of an `M x N x K` GEMM in flops per byte, exactly
/// the paper's formula (single-precision operands, each matrix touched
/// once).
pub fn arithmetic_intensity(m: usize, n: usize, k: usize) -> f64 {
    let ops = 2.0 * m as f64 * n as f64 * k as f64;
    let bytes = 4.0 * (m as f64 * n as f64 + k as f64 * n as f64 + m as f64 * k as f64);
    ops / bytes
}

/// Sustained fraction of peak (0..1) achieved by `flops` of work in
/// `cycles` cycles.
pub fn fraction_of_peak(cfg: &MachineConfig, flops: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    flops as f64 / (cycles as f64 * cfg.peak_flops_per_cycle())
}

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct RooflineRow {
    /// Paper-style layer label (e.g. "L1").
    pub label: String,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub ai: f64,
    /// Sustained performance as a percentage of peak.
    pub pct_peak: f64,
}

impl RooflineRow {
    pub fn new(label: impl Into<String>, (m, n, k): (usize, usize, usize), pct_peak: f64) -> Self {
        RooflineRow { label: label.into(), m, n, k, ai: arithmetic_intensity(m, n, k), pct_peak }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table IV's AI column, recomputed from its M/N/K columns.
    #[test]
    fn table4_ai_values_reproduce() {
        let rows = [
            (32, 369664, 27, 7.32),
            (64, 92416, 288, 26.0),
            (32, 92416, 64, 11.0),
            (128, 23104, 576, 52.0),
            (64, 23104, 128, 21.0),
            (256, 5776, 1152, 101.0),
            (128, 5776, 256, 42.0),
            (256, 1444, 512, 76.0),
            (1024, 361, 4608, 126.0),
            (512, 361, 1024, 88.0),
            (255, 361, 1024, 65.0),
            (256, 1444, 768, 85.0),
            (512, 1444, 2304, 162.0),
            (255, 5776, 256, 63.0),
        ];
        for (m, n, k, want) in rows {
            let ai = arithmetic_intensity(m, n, k);
            let rel = (ai - want).abs() / want;
            assert!(rel < 0.05, "AI({m},{n},{k}) = {ai:.2}, paper says {want}");
        }
    }

    #[test]
    fn a64fx_peak_near_paper() {
        let cfg = MachineConfig::a64fx();
        // Paper: 62.5 GFLOP/s per core at 2 GHz; our lane model gives 64.
        let peak = cfg.peak_flops_per_cycle() * 2.0;
        assert!((peak - 62.5).abs() / 62.5 < 0.05, "peak {peak}");
    }

    #[test]
    fn fraction_of_peak_bounds() {
        let cfg = MachineConfig::a64fx();
        // Running exactly at peak: flops = cycles * peak_per_cycle.
        let f = fraction_of_peak(&cfg, 3200, 100);
        assert!((f - 1.0).abs() < 1e-12);
        assert_eq!(fraction_of_peak(&cfg, 100, 0), 0.0);
        assert!(fraction_of_peak(&cfg, 1600, 100) < 1.0);
    }

    #[test]
    fn roofline_row_builds() {
        let r = RooflineRow::new("L1", (32, 369664, 27), 0.46);
        assert!((r.ai - 7.32).abs() < 0.05);
        assert_eq!(r.m, 32);
    }
}
