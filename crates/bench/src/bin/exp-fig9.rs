//! Figure 9 — Winograd vector length x L2 size on ARM-SVE, YOLOv3.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::FIG9`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::FIG9]);
}
