//! # lva-kernels — the convolutional-layer kernels of the co-design study
//!
//! This crate implements every kernel the paper's §IV optimizes, in two
//! forms:
//!
//! * **Scalar host references** ([`mod@reference`]) — plain Rust, no simulator;
//!   the ground truth for correctness tests.
//! * **Simulated kernels** — written against the [`lva_isa::Machine`]
//!   intrinsics API, producing identical numerics (modulo float
//!   reassociation) *and* cycle/cache statistics:
//!   - [`gemm::gemm_naive`] — Darknet's naive triple loop (Fig. 1), the
//!     `-fno-vectorize` baseline;
//!   - [`gemm::gemm_opt3`] — the optimized 3-loop implementation (Fig. 2):
//!     VLA j-loop, loop reorder, unrolled independent accumulators;
//!   - [`gemm::gemm_opt6`] — the BLIS-like 6-loop implementation (Fig. 3):
//!     blocking, packing of A and B, software prefetch, same micro-kernel;
//!   - [`im2col`] — scalar and vectorized image-to-column lowering;
//!   - [`aux`] — `fill_cpu`, `copy_cpu`, `add_bias`, `scale_bias`,
//!     `normalize_cpu`, `activate_array` (linear / ReLU / leaky);
//!   - [`direct`] — the im2col-free direct algorithm (§II-C: best for 1x1);
//!   - [`pool`] — maxpool and nearest-neighbour upsample;
//!   - [`fc`] — fully-connected layer and softmax.
//!
//! The convolution driver [`conv::conv_im2col_gemm`] strings these together
//! exactly like Darknet's `forward_convolutional_layer`.

#![forbid(unsafe_code)]
// Kernel entry points mirror BLAS/im2col calling conventions (machine,
// shape tuple, buffers, strides); bundling them into structs would only
// add indirection at every call site.
#![allow(clippy::too_many_arguments)]

pub mod aux;
pub mod conv;
pub mod depthwise;
pub mod direct;
pub mod fc;
pub mod gemm;
pub mod im2col;
pub mod pool;
pub mod reference;

pub use conv::{conv_im2col_gemm, ConvParams};
pub use depthwise::conv_depthwise_vec;
pub use direct::conv_direct_vec;
pub use gemm::{BlockSizes, GemmVariant, DEFAULT_UNROLL};
