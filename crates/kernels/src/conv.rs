//! Convolution layer parameters and the im2col+GEMM forward driver.

use crate::gemm::{gemm, GemmVariant, GemmWorkspace};
use crate::im2col::{im2col_scalar, im2col_vec};
use lva_isa::Machine;
use lva_sim::Buf;
use lva_tensor::Tensor;

/// Geometry of one convolutional layer (square kernels, symmetric padding —
/// all layers of the studied networks fit this, with Darknet's `pad = k/2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    pub in_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub out_c: usize,
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvParams {
    /// Output spatial dimensions `(out_h, out_w)`.
    pub fn out_hw(&self) -> (usize, usize) {
        (
            (self.in_h + 2 * self.pad - self.k) / self.stride + 1,
            (self.in_w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// GEMM dimensions `(M, N, K)` of the lowered convolution:
    /// `M = out_c`, `N = out_h*out_w`, `K = in_c*k*k` (§IV-A).
    pub fn gemm_mnk(&self) -> (usize, usize, usize) {
        let (oh, ow) = self.out_hw();
        (self.out_c, oh * ow, self.in_c * self.k * self.k)
    }

    /// Multiply-add flops of the layer (2 per MAC).
    pub fn flops(&self) -> u64 {
        let (m, n, k) = self.gemm_mnk();
        2 * (m * n * k) as u64
    }

    /// Words of im2col workspace needed (`K * N`), zero when the lowering is
    /// skipped (1x1 stride-1 unpadded convolutions use the input directly,
    /// as Darknet does).
    pub fn workspace_words(&self) -> usize {
        if self.is_1x1_fast_path() {
            0
        } else {
            let (_, n, k) = self.gemm_mnk();
            n * k
        }
    }

    /// Whether im2col degenerates to the identity.
    pub fn is_1x1_fast_path(&self) -> bool {
        self.k == 1 && self.stride == 1 && self.pad == 0
    }
}

/// Forward convolution via im2col+GEMM, Darknet style.
///
/// * `weights`: `out_c x (in_c*k*k)` row-major (Darknet layout flattened);
/// * `col`: workspace of at least [`ConvParams::workspace_words`] words;
/// * `out`: `out_c * out_h * out_w` words, **accumulated into** (callers
///   zero-fill or bias-fill first, as `forward_convolutional_layer` does).
///
/// The naive variant uses scalar im2col; optimized variants use the
/// vectorized one (§IV-A vectorizes *all* kernels of the layer).
pub fn conv_im2col_gemm(
    m: &mut Machine,
    variant: GemmVariant,
    p: &ConvParams,
    input: &Tensor,
    weights: Buf,
    col: Buf,
    out: Buf,
    ws: Option<&GemmWorkspace>,
) {
    let (mm, nn, kk) = p.gemm_mnk();
    assert_eq!(weights.words, mm * kk, "weight buffer shape mismatch");
    assert!(out.words >= mm * nn, "output buffer too small");
    let b = if p.is_1x1_fast_path() {
        input.buf
    } else {
        match variant {
            GemmVariant::Naive => im2col_scalar(m, p, input, col),
            _ => im2col_vec(m, p, input, col),
        }
        col
    };
    gemm(m, variant, mm, nn, kk, 1.0, weights, b, out, ws);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::GemmWorkspace;
    use crate::reference::conv_direct_ref;
    use lva_isa::{KernelPhase, MachineConfig};
    use lva_tensor::{approx_eq, Matrix, Shape};

    fn machine() -> Machine {
        Machine::new(MachineConfig::rvv_gem5(1024, 8, 1 << 20))
    }

    fn check(p: ConvParams, variant: GemmVariant) {
        let mut m = machine();
        let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 5);
        let (mm, nn, kk) = p.gemm_mnk();
        let w = Matrix::random(&mut m, mm, kk, 6);
        let col = m.mem.alloc(p.workspace_words().max(1));
        let out = m.mem.alloc(mm * nn);
        let wsp = match variant {
            GemmVariant::Opt6 { blocks, .. } => Some(GemmWorkspace::alloc(&mut m, blocks)),
            _ => None,
        };
        conv_im2col_gemm(&mut m, variant, &p, &img, w.buf, col, out, wsp.as_ref());
        let want = conv_direct_ref(&p, &img.to_host(&m), &w.to_host(&m));
        assert!(
            approx_eq(m.mem.slice(out), &want, 1e-4, 1e-5),
            "conv mismatch {p:?} {}",
            variant.name()
        );
    }

    #[test]
    fn conv3x3_s1_all_variants() {
        let p = ConvParams { in_c: 3, in_h: 10, in_w: 10, out_c: 8, k: 3, stride: 1, pad: 1 };
        check(p, GemmVariant::Naive);
        check(p, GemmVariant::opt3());
        check(p, GemmVariant::opt6());
    }

    #[test]
    fn conv3x3_s2() {
        let p = ConvParams { in_c: 4, in_h: 12, in_w: 12, out_c: 6, k: 3, stride: 2, pad: 1 };
        check(p, GemmVariant::opt3());
    }

    #[test]
    fn conv1x1_fast_path_skips_im2col() {
        let p = ConvParams { in_c: 8, in_h: 6, in_w: 6, out_c: 4, k: 1, stride: 1, pad: 0 };
        assert!(p.is_1x1_fast_path());
        assert_eq!(p.workspace_words(), 0);
        let mut m = machine();
        let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 5);
        let (mm, nn, kk) = p.gemm_mnk();
        let w = Matrix::random(&mut m, mm, kk, 6);
        let col = m.mem.alloc(1);
        let out = m.mem.alloc(mm * nn);
        conv_im2col_gemm(&mut m, GemmVariant::opt3(), &p, &img, w.buf, col, out, None);
        let want = conv_direct_ref(&p, &img.to_host(&m), &w.to_host(&m));
        assert!(approx_eq(m.mem.slice(out), &want, 1e-4, 1e-5));
        assert_eq!(m.phases.get(KernelPhase::Im2col), 0, "1x1 must skip im2col");
    }

    #[test]
    fn conv_runs_on_the_a64fx_profile_too() {
        // Cross-profile smoke: same kernel code, prefetching machine.
        let p = ConvParams { in_c: 4, in_h: 12, in_w: 12, out_c: 6, k: 3, stride: 1, pad: 1 };
        let mut m = Machine::new(MachineConfig::a64fx());
        let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 5);
        let (mm, nn, kk) = p.gemm_mnk();
        let w = Matrix::random(&mut m, mm, kk, 6);
        let col = m.mem.alloc(p.workspace_words());
        let out = m.mem.alloc(mm * nn);
        let ws = GemmWorkspace::alloc(&mut m, lva_kernels_blocks());
        conv_im2col_gemm(&mut m, GemmVariant::opt6(), &p, &img, w.buf, col, out, Some(&ws));
        let want = conv_direct_ref(&p, &img.to_host(&m), &w.to_host(&m));
        assert!(approx_eq(m.mem.slice(out), &want, 1e-4, 1e-5));
        assert!(m.sys.l1.stats.prefetch_fills > 0, "A64FX HW prefetcher must fire");
    }

    fn lva_kernels_blocks() -> crate::BlockSizes {
        crate::BlockSizes::TABLE2_BEST
    }

    #[test]
    fn workspace_words_formula() {
        let p = ConvParams { in_c: 8, in_h: 10, in_w: 12, out_c: 2, k: 3, stride: 1, pad: 1 };
        let (_, n, k) = p.gemm_mnk();
        assert_eq!(p.workspace_words(), n * k);
        assert_eq!(p.flops(), 2 * (2 * 120 * 72) as u64);
    }

    #[test]
    fn gemm_dims_match_table4_layer1() {
        // Table IV L1 at 608x608: M=32, N=369664, K=27.
        let p = ConvParams { in_c: 3, in_h: 608, in_w: 608, out_c: 32, k: 3, stride: 1, pad: 1 };
        assert_eq!(p.gemm_mnk(), (32, 369664, 27));
    }

    #[test]
    fn gemm_dims_match_table4_layer2() {
        // Table IV L2: M=64, N=92416 (=304^2), K=288 after a stride-2 conv.
        let p = ConvParams { in_c: 32, in_h: 608, in_w: 608, out_c: 64, k: 3, stride: 2, pad: 1 };
        assert_eq!(p.gemm_mnk(), (64, 92416, 288));
    }
}
