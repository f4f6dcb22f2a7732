//! # longvec-cnn
//!
//! A from-scratch Rust reproduction of *"Accelerating CNN inference on long
//! vector architectures via co-design"* (Gupta, Papadopoulou, Pericàs —
//! IPDPS 2023): a cycle-approximate vector-machine simulator standing in
//! for gem5 and the A64FX, the paper's im2col+GEMM and Winograd kernels
//! written against a vector-length-agnostic intrinsics API, the YOLOv3 /
//! YOLOv3-tiny / VGG16 network models, and an experiment harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use longvec_cnn::prelude::*;
//!
//! // A RISC-V Vector machine: 2048-bit registers, 8 lanes, 1 MB L2.
//! let mut machine = Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
//!
//! // One convolutional layer, lowered to GEMM and run with the paper's
//! // optimized 3-loop kernel (Fig. 2).
//! let p = ConvParams { in_c: 8, in_h: 16, in_w: 16, out_c: 16, k: 3, stride: 1, pad: 1 };
//! let input = Tensor::random(&mut machine, Shape::new(8, 16, 16), 1);
//! let (m, n, k) = p.gemm_mnk();
//! let weights = Matrix::random(&mut machine, m, k, 2);
//! let col = machine.mem.alloc(p.workspace_words());
//! let out = machine.mem.alloc(m * n);
//! conv_im2col_gemm(
//!     &mut machine, GemmVariant::opt3(), &p, &input, weights.buf, col, out, None,
//! );
//! println!("layer took {} cycles", machine.cycles());
//! assert!(machine.cycles() > 0);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | memory arena, caches, prefetchers (gem5 substitute) |
//! | [`isa`] | VLA vector engine: RVV/SVE profiles, intrinsics, timing |
//! | [`tensor`] | CHW tensors and matrices over simulated memory |
//! | [`kernels`] | im2col, GEMM (naive / 3-loop / BLIS 6-loop), aux kernels |
//! | [`winograd`] | Cook–Toom generator + F(6,3) VLA implementation |
//! | [`fft`] | FFT convolution (the §II-C large-kernel algorithm) |
//! | [`nn`] | Darknet-substitute framework and the paper's models |
//! | [`core`] | co-design experiment API (hardware x software x workload) |
//!
//! See DESIGN.md for the system inventory and EXPERIMENTS.md for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]
pub use lva_core as core;
pub use lva_fft as fft;
pub use lva_isa as isa;
pub use lva_kernels as kernels;
pub use lva_nn as nn;
pub use lva_sim as sim;
pub use lva_tensor as tensor;
pub use lva_whatif::roofline;
pub use lva_winograd as winograd;

/// The most commonly used items in one import.
pub mod prelude {
    pub use lva_core::{scaled_input, Experiment, HwTarget, ModelId, RunSummary, Table, Workload};
    pub use lva_fft::{conv_fft_vla, FftConvPlan};
    pub use lva_isa::{IsaKind, KernelPhase, Machine, MachineConfig, Platform};
    pub use lva_kernels::{conv_im2col_gemm, BlockSizes, ConvParams, GemmVariant, DEFAULT_UNROLL};
    pub use lva_nn::{ConvAlgo, ConvPolicy, LayerSpec, NetReport, Network};
    pub use lva_sim::{Buf, Memory};
    pub use lva_tensor::{approx_eq, host_random, Matrix, Shape, Tensor};
    pub use lva_winograd::{f6x3, winograd_conv_vla, WinogradPlan, WinogradTransform};
}
