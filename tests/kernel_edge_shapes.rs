//! Kernel equivalence on edge shapes: every convolution path must agree
//! with the scalar reference where vectorized loops are easiest to get
//! wrong — output rows whose length is not a multiple of the vector
//! length, 1×1 spatial inputs, stride 2, a 1×1 kernel off the fast path,
//! inputs smaller than the kernel, odd channel counts, and fewer input
//! channels than vector lanes.

use longvec_cnn::kernels::direct::conv_direct_vec;
use longvec_cnn::kernels::gemm::GemmWorkspace;
use longvec_cnn::kernels::reference::conv_direct_ref;
use longvec_cnn::prelude::*;

/// Normwise relative error bound against the reference.
const REL_TOL: f32 = 1e-3;

/// `(in_c, in_h, in_w, out_c, k, stride, pad)` of each edge case.
const SHAPES: [(usize, usize, usize, usize, usize, usize, usize); 8] = [
    (3, 7, 7, 5, 3, 1, 1),   // output rows of 7: a tail at every VL
    (2, 1, 1, 3, 1, 1, 0),   // 1×1 spatial input, 1×1 kernel
    (4, 1, 1, 3, 3, 1, 1),   // 1×1 spatial input, 3×3 kernel
    (3, 9, 9, 4, 3, 2, 1),   // stride 2
    (1, 5, 11, 2, 3, 2, 1),  // stride 2, one input channel, non-square
    (5, 13, 13, 7, 1, 2, 0), // 1×1 kernel at stride 2: not the fast path
    (3, 2, 3, 9, 3, 1, 1),   // input smaller than the kernel
    (17, 3, 3, 33, 3, 1, 1), // odd channel counts
];

fn params() -> impl Iterator<Item = ConvParams> {
    SHAPES.iter().map(|&(in_c, in_h, in_w, out_c, k, stride, pad)| ConvParams {
        in_c,
        in_h,
        in_w,
        out_c,
        k,
        stride,
        pad,
    })
}

/// RVV at both ends of the 8-lane vector-length axis.
fn rvv_machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("rvv/512b", MachineConfig::rvv_gem5(512, 8, 1 << 20)),
        ("rvv/4096b", MachineConfig::rvv_gem5(4096, 8, 1 << 20)),
    ]
}

/// SVE at its shortest and longest vector length.
fn sve_machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("sve/512b", MachineConfig::sve_gem5(512, 1 << 20)),
        ("sve/2048b", MachineConfig::sve_gem5(2048, 1 << 20)),
    ]
}

/// Random input and weights for `p`, plus the reference output.
fn operands(m: &mut Machine, p: &ConvParams) -> (Tensor, Matrix, Vec<f32>) {
    let img = Tensor::random(m, Shape::new(p.in_c, p.in_h, p.in_w), 7);
    let w = Matrix::random(m, p.out_c, p.in_c * p.k * p.k, 8);
    let want = conv_direct_ref(p, &img.to_host(m), &w.to_host(m));
    (img, w, want)
}

/// Assert `got` is within [`REL_TOL`] of `want`, relative to `want`'s
/// largest magnitude.
fn assert_close(got: &[f32], want: &[f32], what: &str) {
    let scale = want.iter().fold(0.0f32, |a, x| a.max(x.abs())).max(f32::MIN_POSITIVE);
    let err = got[..want.len()].iter().zip(want).fold(0.0f32, |a, (g, w)| a.max((g - w).abs()));
    assert!(err / scale < REL_TOL, "{what}: max error {err} against max |reference| {scale}");
}

#[test]
fn im2col_gemm_matches_reference_on_edge_shapes() {
    let variants = [GemmVariant::Naive, GemmVariant::opt3(), GemmVariant::opt6()];
    for (name, cfg) in rvv_machines().into_iter().chain(sve_machines()) {
        for p in params() {
            for variant in variants {
                let mut m = Machine::new(cfg.clone());
                let (img, w, want) = operands(&mut m, &p);
                let col = m.mem.alloc(p.workspace_words().max(1));
                let out = m.mem.alloc(want.len());
                let ws = match variant {
                    GemmVariant::Opt6 { blocks, .. } => Some(GemmWorkspace::alloc(&mut m, blocks)),
                    _ => None,
                };
                conv_im2col_gemm(&mut m, variant, &p, &img, w.buf, col, out, ws.as_ref());
                assert_close(
                    m.mem.slice(out),
                    &want,
                    &format!("{} {p:?} on {name}", variant.name()),
                );
            }
        }
    }
}

#[test]
fn direct_conv_matches_reference_on_edge_shapes() {
    for (name, cfg) in rvv_machines().into_iter().chain(sve_machines()) {
        for p in params() {
            let mut m = Machine::new(cfg.clone());
            let (img, w, want) = operands(&mut m, &p);
            let out = m.mem.alloc(want.len());
            conv_direct_vec(&mut m, &p, &img, w.buf, out);
            assert_close(m.mem.slice(out), &want, &format!("direct {p:?} on {name}"));
        }
    }
}

#[test]
fn winograd_matches_reference_on_edge_shapes() {
    for (name, cfg) in sve_machines() {
        for p in params().filter(|p| p.k == 3 && p.stride == 1) {
            let mut m = Machine::new(cfg.clone());
            let (img, w, want) = operands(&mut m, &p);
            let out = m.mem.alloc(want.len());
            let mut plan = WinogradPlan::new(&mut m, p, w.buf);
            winograd_conv_vla(&mut m, &mut plan, &img, out);
            assert_close(m.mem.slice(out), &want, &format!("winograd {p:?} on {name}"));
        }
    }
}
