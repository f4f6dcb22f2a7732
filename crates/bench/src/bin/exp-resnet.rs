//! Extension — Winograd-policy gain per network architecture.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::RESNET`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::RESNET]);
}
