//! §II-B — execution-time breakdown of CNN inference kernels.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::BREAKDOWN`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::BREAKDOWN]);
}
