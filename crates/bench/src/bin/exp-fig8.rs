//! Figure 8 — vector length x L2 size on ARM-SVE.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::FIG8`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::FIG8]);
}
