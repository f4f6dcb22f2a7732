//! Figure 6 — vector length vs performance on RISC-V Vector.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::FIG6`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::FIG6]);
}
