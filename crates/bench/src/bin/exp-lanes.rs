//! §VI-B(c) — vector lanes vs performance per vector length on RISC-V Vector.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::LANES`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::LANES]);
}
