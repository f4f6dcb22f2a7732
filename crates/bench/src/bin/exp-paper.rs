//! Every table and figure of the paper from one grid: the union of the
//! design points of [`lva_bench::paper::FIGURES`], each distinct point
//! simulated once, then each figure printed from its summaries. Stdout and
//! the files under `results/` equal those of the eleven figure binaries
//! run one after another in `FIGURES` order.

fn main() {
    lva_bench::paper::main(&lva_bench::paper::FIGURES);
}
