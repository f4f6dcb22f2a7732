//! Table IV — arithmetic intensity and sustained performance of the 14
//! discrete convolutional layer shapes of YOLOv3 on the A64FX profile.
//!
//! Each layer runs standalone (cold caches, optimized 6-loop im2col+GEMM)
//! at the paper's native 608x608 dimensions by default; AI is analytic
//! (`2MNK / 4(MN+KN+MK)`) and the sustained fraction of peak comes from
//! the simulated cycle count against the 32 flops/cycle machine peak.
//!
//! Paper: low-AI layers (small M and K) sustain 46-50% of peak; high-AI
//! layers reach 75-91%.

use lva_bench::*;
use lva_core::MachineConfig;
use lva_isa::Machine;
use lva_kernels::gemm::GemmWorkspace;
use lva_kernels::{conv_im2col_gemm, ConvParams};
use lva_tensor::{Matrix, Shape, Tensor};
use lva_whatif::roofline::{arithmetic_intensity, fraction_of_peak};

/// One Table IV row: (label, in_c, in_hw, out_c, k, stride, paper AI,
/// paper %peak) at the 608x608 network input.
type LayerRow = (&'static str, usize, usize, usize, usize, usize, f64, f64);

/// The 14 discrete layers of Table IV.
const LAYERS: [LayerRow; 14] = [
    ("L1", 3, 608, 32, 3, 1, 7.32, 46.0),
    ("L2", 32, 608, 64, 3, 2, 26.0, 72.0),
    ("L3", 64, 304, 32, 1, 1, 11.0, 50.0),
    ("L5", 64, 304, 128, 3, 2, 52.0, 77.0),
    ("L6", 128, 152, 64, 1, 1, 21.0, 70.0),
    ("L10", 128, 152, 256, 3, 2, 101.0, 81.0),
    ("L11", 256, 76, 128, 1, 1, 42.0, 75.0),
    ("L38", 512, 38, 256, 1, 1, 76.0, 82.0),
    ("L44", 512, 19, 1024, 3, 1, 126.0, 83.0),
    ("L45", 1024, 19, 512, 1, 1, 88.0, 78.0),
    ("L59", 1024, 19, 255, 1, 1, 65.0, 75.0),
    ("L61", 768, 38, 256, 1, 1, 85.0, 91.0),
    ("L62", 256, 38, 512, 3, 1, 162.0, 83.0),
    ("L75", 256, 76, 255, 1, 1, 63.0, 75.0),
];

fn main() {
    let opts =
        Opts::parse(Dialect::Experiment, 1, "Table IV: per-layer AI and sustained %peak on A64FX");
    let mut table = Table::new(
        "Table IV — arithmetic intensity and sustained performance (A64FX)",
        &["layer", "M", "N", "K", "AI", "paper_AI", "pct_peak", "paper_pct"],
    );
    for (label, ic, hw, oc, k, stride, paper_ai, paper_pct) in LAYERS {
        let hw = (hw / opts.div).max(k);
        let p = ConvParams { in_c: ic, in_h: hw, in_w: hw, out_c: oc, k, stride, pad: k / 2 };
        let (mm, nn, kk) = p.gemm_mnk();
        let mut m = Machine::new(MachineConfig::a64fx());
        let img = Tensor::random(&mut m, Shape::new(ic, hw, hw), 3);
        let w = Matrix::random(&mut m, mm, kk, 4);
        let col = m.mem.alloc(p.workspace_words().max(1));
        let out = m.mem.alloc(mm * nn);
        let ws = GemmWorkspace::alloc(&mut m, lva_kernels::BlockSizes::TABLE2_BEST);
        m.reset_timing();
        conv_im2col_gemm(&mut m, GemmVariant::opt6(), &p, &img, w.buf, col, out, Some(&ws));
        let cycles = m.cycles();
        let pct = 100.0 * fraction_of_peak(m.config(), p.flops(), cycles);
        eprintln!(
            ".. {label}: M={mm} N={nn} K={kk} -> {} cycles, {pct:.0}% peak",
            fmt_cycles(cycles)
        );
        table.row(vec![
            label.into(),
            mm.to_string(),
            nn.to_string(),
            kk.to_string(),
            format!("{:.2}", arithmetic_intensity(mm, nn, kk)),
            format!("{paper_ai}"),
            format!("{pct:.0}"),
            format!("{paper_pct:.0}"),
        ]);
    }
    emit(&table, "table4_roofline", &opts);
}
