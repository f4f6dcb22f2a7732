//! Figure 7 — L2 size vs performance per vector length on RISC-V Vector.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::FIG7`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::FIG7]);
}
