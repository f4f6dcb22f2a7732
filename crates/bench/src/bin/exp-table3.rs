//! Table III — consumed vector length and L2 miss rate on RISC-V Vector.
//!
//! A view of the paper grid over one figure; the claim and the design
//! points are on [`lva_bench::paper::TABLE3`].

fn main() {
    lva_bench::paper::main(&[lva_bench::paper::TABLE3]);
}
