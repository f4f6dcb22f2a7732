//! Table II — 6-loop vs 3-loop GEMM block sizes on RISC-V Vector.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::TABLE2`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::TABLE2]);
}
