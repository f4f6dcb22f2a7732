//! §VII-A — Winograd vs optimized im2col+GEMM on A64FX.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::WINOGRAD_A64FX`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::WINOGRAD_A64FX]);
}
