//! §IV-B — why the paper keeps 8x8 tiles: "Vectorizing the transformations
//! with longer vector lengths would require a larger tile size, however, in
//! this case, the numerical accuracy would drop."
//!
//! This ablation quantifies that claim with the Cook–Toom generator:
//! F(2,3), F(4,3), F(6,3) and larger output tiles are generated from
//! progressively more interpolation points, and the worst-case relative
//! error of a 2D convolution against the direct f64-style reference is
//! measured. The transform coefficient magnitudes (the condition-number
//! proxy) grow rapidly with the tile, which is what destroys accuracy.

use lva_bench::*;
use lva_core::report::Table as RTable;
use lva_tensor::host_random;
use lva_winograd::{Rat, WinogradTransform};

/// Max |coefficient| across the three transform matrices.
fn max_coeff(t: &WinogradTransform) -> f32 {
    t.at.iter().chain(&t.g).chain(&t.bt).fold(0.0f32, |a, &b| a.max(b.abs()))
}

/// Worst relative error of the 2D tile convolution over `trials` random
/// tiles.
fn worst_rel_error(t: &WinogradTransform, trials: usize) -> f64 {
    let (n, m, r) = (t.n, t.m, t.r);
    let mut worst = 0.0f64;
    for trial in 0..trials {
        let d = host_random(n * n, 1000 + trial as u64);
        let g = host_random(r * r, 2000 + trial as u64);
        let u = t.transform_filter_2d(&g);
        let v = t.transform_data_2d(&d);
        let prod: Vec<f32> = u.iter().zip(&v).map(|(a, b)| a * b).collect();
        let y = t.transform_output_2d(&prod);
        for oy in 0..m {
            for ox in 0..m {
                let mut direct = 0.0f64;
                for ky in 0..r {
                    for kx in 0..r {
                        direct += d[(oy + ky) * n + ox + kx] as f64 * g[ky * r + kx] as f64;
                    }
                }
                let got = y[oy * m + ox] as f64;
                let rel = (got - direct).abs() / direct.abs().max(1.0);
                worst = worst.max(rel);
            }
        }
    }
    worst
}

fn main() {
    let opts =
        Opts::parse(Dialect::Experiment, 1, "Winograd tile-size vs numerical accuracy ablation");
    // Interpolation points in the order good generators add them.
    let pts = [
        Rat::int(0),
        Rat::int(1),
        Rat::int(-1),
        Rat::int(2),
        Rat::int(-2),
        Rat::new(1, 2),
        Rat::new(-1, 2),
        Rat::int(3),
        Rat::int(-3),
        Rat::new(1, 3),
        Rat::new(-1, 3),
        Rat::int(4),
    ];
    let mut table = RTable::new(
        "Winograd F(m,3): tile size vs flop reduction vs worst relative error",
        &["variant", "tile", "mult_reduction", "max_coeff", "worst_rel_err"],
    );
    for m_out in [2usize, 4, 6, 8, 10] {
        let n = m_out + 2;
        let t = WinogradTransform::generate(m_out, 3, &pts[..n - 1]);
        let err = worst_rel_error(&t, 40);
        table.row(vec![
            format!("F({m_out},3)"),
            format!("{n}x{n}"),
            format!("{:.2}x", t.mult_reduction()),
            format!("{:.1}", max_coeff(&t)),
            format!("{err:.2e}"),
        ]);
    }
    println!("paper §IV-B: 8x8 tiles (F(6,3)) are the accuracy sweet spot;\nlarger tiles would exploit longer vectors but the error explodes —\nhence the inter-tile-across-channels scheme instead.\n");
    emit(&table, "tilesize_accuracy", &opts);
}
