//! §II-C — "no one-size-fits-all convolution implementation exists".
//!
//! The paper motivates algorithm selection by kernel size and stride:
//! Winograd for 3x3 stride-1, im2col+GEMM as the general workhorse, Direct
//! for 1x1. This experiment runs one representative layer of each shape
//! through all three algorithms on the A64FX profile and shows which wins
//! where (Winograd only applies to 3x3).

use lva_bench::*;
use lva_core::MachineConfig;
use lva_fft::{conv_fft_vla, FftConvPlan};
use lva_isa::Machine;
use lva_kernels::gemm::GemmWorkspace;
use lva_kernels::{conv_direct_vec, conv_im2col_gemm, ConvParams};
use lva_tensor::{Matrix, Shape, Tensor};
use lva_winograd::{winograd_conv_vla, WinogradPlan};

fn gemm_cycles(p: &ConvParams) -> u64 {
    let mut m = Machine::new(MachineConfig::a64fx());
    let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 1);
    let (mm, nn, kk) = p.gemm_mnk();
    let w = Matrix::random(&mut m, mm, kk, 2);
    let col = m.mem.alloc(p.workspace_words().max(1));
    let out = m.mem.alloc(mm * nn);
    let ws = GemmWorkspace::alloc(&mut m, BlockSizes::TABLE2_BEST);
    m.reset_timing();
    conv_im2col_gemm(&mut m, GemmVariant::opt6(), p, &img, w.buf, col, out, Some(&ws));
    m.cycles()
}

fn direct_cycles(p: &ConvParams) -> u64 {
    let mut m = Machine::new(MachineConfig::a64fx());
    let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 1);
    let (mm, nn, kk) = p.gemm_mnk();
    let w = Matrix::random(&mut m, mm, kk, 2);
    let out = m.mem.alloc(mm * nn);
    m.reset_timing();
    conv_direct_vec(&mut m, p, &img, w.buf, out);
    m.cycles()
}

fn winograd_cycles(p: &ConvParams) -> Option<u64> {
    if p.k != 3 {
        return None;
    }
    let mut m = Machine::new(MachineConfig::a64fx());
    let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 1);
    let (mm, nn, kk) = p.gemm_mnk();
    let w = Matrix::random(&mut m, mm, kk, 2);
    let out = m.mem.alloc(mm * nn);
    let mut plan = WinogradPlan::new(&mut m, *p, w.buf);
    m.reset_timing();
    winograd_conv_vla(&mut m, &mut plan, &img, out);
    Some(m.cycles())
}

/// FFT convolution runs on the SVE-style profile (gathers); report it on
/// the same A64FX machine.
fn fft_cycles(p: &ConvParams) -> u64 {
    let mut m = Machine::new(MachineConfig::a64fx());
    let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 1);
    let (mm, nn, kk) = p.gemm_mnk();
    let w = Matrix::random(&mut m, mm, kk, 2);
    let out = m.mem.alloc(mm * nn);
    let mut plan = FftConvPlan::new(&mut m, *p, w.buf);
    m.reset_timing();
    conv_fft_vla(&mut m, &mut plan, &img, out);
    m.cycles()
}

fn main() {
    let opts =
        Opts::parse(Dialect::Experiment, 4, "§II-C: per-algorithm comparison by layer shape");
    let base = (160 / opts.div).max(8);
    let layers = [
        (
            "1x1 s1",
            ConvParams {
                in_c: 256,
                in_h: base / 2,
                in_w: base / 2,
                out_c: 128,
                k: 1,
                stride: 1,
                pad: 0,
            },
        ),
        (
            "3x3 s1",
            ConvParams {
                in_c: 128,
                in_h: base / 2,
                in_w: base / 2,
                out_c: 128,
                k: 3,
                stride: 1,
                pad: 1,
            },
        ),
        (
            "3x3 s2",
            ConvParams { in_c: 64, in_h: base, in_w: base, out_c: 128, k: 3, stride: 2, pad: 1 },
        ),
        (
            "5x5 s1",
            ConvParams { in_c: 32, in_h: base, in_w: base, out_c: 64, k: 5, stride: 1, pad: 2 },
        ),
        (
            "11x11 s1",
            ConvParams { in_c: 16, in_h: base, in_w: base, out_c: 32, k: 11, stride: 1, pad: 5 },
        ),
    ];
    let mut table = Table::new(
        "Convolution algorithm comparison on A64FX (cycles; best in context)",
        &["layer", "im2col+GEMM", "direct", "winograd", "fft", "winner"],
    );
    for (name, p) in layers {
        eprintln!(".. {name}: {p:?}");
        let g = gemm_cycles(&p);
        let d = direct_cycles(&p);
        let w = winograd_cycles(&p);
        let f = fft_cycles(&p);
        let mut candidates = vec![("im2col+GEMM", g), ("direct", d), ("fft", f)];
        if let Some(w) = w {
            candidates.push(("winograd", w));
        }
        let winner = candidates.iter().min_by_key(|&&(_, c)| c).unwrap().0;
        table.row(vec![
            name.into(),
            fmt_cycles(g),
            fmt_cycles(d),
            w.map_or_else(|| "n/a".into(), fmt_cycles),
            fmt_cycles(f),
            winner.into(),
        ]);
    }
    println!(
        "\npaper §II-C: Winograd for 3x3, Direct for 1x1, GEMM as the general case.\n\
         note: on the CHW layout used here the direct kernel's channel-major\n\
         input walk defeats the stream prefetcher, so the packed GEMM keeps\n\
         winning even at 1x1 — the 1x1 GEMM already skips im2col entirely,\n\
         which is what Darknet's 'direct for 1x1' fast path amounts to.\n\
         FFT overhead falls steeply with kernel size (watch the fft column\n\
         across rows) but its crossover lies beyond CNN-typical kernels —\n\
         consistent with none of the paper's layers choosing it.\n"
    );
    emit(&table, "algo_selection", &opts);
}
