//! Direct (im2col-free) convolution, vectorized across the output row.
//!
//! §II-C of the paper: "no one-size-fits-all convolution implementation
//! exists: Winograd works best with 3x3/5x5 kernels, FFT with large
//! kernels, while the Direct algorithm is better for 1x1 kernel sizes."
//! This module provides that third algorithm: each output row is computed
//! as a sum of `in_c * k * k` scaled input-row vectors, with no lowering
//! buffer and no packing — minimal memory footprint, but no data reuse
//! through a lowered matrix either.
//!
//! For 1x1 stride-1 convolutions this is exactly Darknet's fast path
//! (GEMM on the raw input); for larger kernels it trades the im2col
//! workspace and its traffic for `k*k` strided passes over the input.

use crate::conv::ConvParams;
use lva_isa::{KernelPhase, Machine, VReg};
use lva_sim::Buf;
use lva_tensor::Tensor;

const VT: VReg = 0;
/// Output-row accumulators (unrolled over output channels).
const VACC0: VReg = 2;
/// Output channels processed per pass (reuses each loaded input vector);
/// with v0/v1 reserved, 16 accumulators fit comfortably in the register
/// file, matching the GEMM micro-kernel's unroll depth.
const OC_UNROLL: usize = 16;

/// Vectorized direct convolution: `out[oc][oy][ox] = sum w * in`, writing
/// (not accumulating) `out`. Weights are `[oc][ic][k][k]` flattened, the
/// same layout the GEMM path uses.
///
/// # Panics
/// Panics on shape mismatches.
pub fn conv_direct_vec(m: &mut Machine, p: &ConvParams, input: &Tensor, weights: Buf, out: Buf) {
    let (oh, ow) = p.out_hw();
    let kk = p.in_c * p.k * p.k;
    assert_eq!(input.shape.len(), p.in_c * p.in_h * p.in_w, "input shape mismatch");
    assert_eq!(weights.words, p.out_c * kk, "weight shape mismatch");
    assert!(out.words >= p.out_c * oh * ow, "output too small");
    // 1x1 stride-1: the spatial map is one contiguous vector per channel —
    // flatten the row loop so short image rows don't truncate the vectors.
    let (oh, ow) = if p.is_1x1_fast_path() { (1, oh * ow) } else { (oh, ow) };
    let p_eff =
        if p.is_1x1_fast_path() { ConvParams { in_h: 1, in_w: p.in_h * p.in_w, ..*p } } else { *p };
    let p = &p_eff;
    // Interior x-range where every kx tap is in bounds (cf. im2col).
    let x_lo = if p.pad > 0 { p.pad.div_ceil(p.stride) } else { 0 };
    let x_hi = {
        let upper = p.in_w as isize - 1 + p.pad as isize - (p.k as isize - 1);
        if upper < 0 {
            0
        } else {
            (upper as usize / p.stride + 1).min(ow)
        }
    };
    let x_lo = x_lo.min(x_hi);
    m.phase(KernelPhase::Gemm, |m| {
        let mut oc0 = 0;
        while oc0 < p.out_c {
            let ob = OC_UNROLL.min(p.out_c - oc0);
            for oy in 0..oh {
                m.charge_scalar_ops(2);
                // Vector interior.
                let mut x = x_lo;
                while x < x_hi {
                    let gvl = m.setvl(x_hi - x);
                    for o in 0..ob {
                        m.vbroadcast(VACC0 + o, 0.0, gvl);
                    }
                    for ci in 0..p.in_c {
                        for ky in 0..p.k {
                            let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                            if iy < 0 || iy as usize >= p.in_h {
                                continue;
                            }
                            for kx in 0..p.k {
                                let ix0 = (x * p.stride + kx) as isize - p.pad as isize;
                                debug_assert!(ix0 >= 0);
                                let src = input
                                    .buf
                                    .addr((ci * p.in_h + iy as usize) * p.in_w + ix0 as usize);
                                if p.stride == 1 {
                                    m.vle(VT, src, gvl);
                                } else {
                                    m.vlse(VT, src, 4 * p.stride as u64, gvl);
                                }
                                // One row update over the output channels.
                                let w0 = weights.addr(oc0 * kk + (ci * p.k + ky) * p.k + kx);
                                m.vfmacc_vf_rows(VACC0, w0, 4 * kk as u64, ob, 1.0, VT, gvl);
                            }
                        }
                    }
                    for o in 0..ob {
                        m.vse(VACC0 + o, out.addr(((oc0 + o) * oh + oy) * ow + x), gvl);
                    }
                    x += gvl;
                }
                // Scalar borders.
                for ox in (0..x_lo).chain(x_hi..ow) {
                    for o in 0..ob {
                        let mut acc = 0.0f32;
                        for ci in 0..p.in_c {
                            for ky in 0..p.k {
                                for kx in 0..p.k {
                                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                                    let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                                    if iy >= 0
                                        && ix >= 0
                                        && (iy as usize) < p.in_h
                                        && (ix as usize) < p.in_w
                                    {
                                        let v = m.scalar_read(input.buf.addr(
                                            (ci * p.in_h + iy as usize) * p.in_w + ix as usize,
                                        ));
                                        let w = m.scalar_read(
                                            weights
                                                .addr((oc0 + o) * kk + (ci * p.k + ky) * p.k + kx),
                                        );
                                        acc += v * w;
                                        m.charge_scalar_flops(2);
                                    }
                                }
                            }
                        }
                        m.scalar_write(out.addr(((oc0 + o) * oh + oy) * ow + ox), acc);
                    }
                }
            }
            oc0 += ob;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv_direct_ref;
    use lva_isa::MachineConfig;
    use lva_tensor::{approx_eq, Matrix, Shape};

    fn check(p: ConvParams, vlen: usize) {
        let mut m = Machine::new(MachineConfig::rvv_gem5(vlen, 8, 1 << 20));
        let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 5);
        let (mm, nn, kk) = p.gemm_mnk();
        let w = Matrix::random(&mut m, mm, kk, 6);
        let out = m.mem.alloc(mm * nn);
        conv_direct_vec(&mut m, &p, &img, w.buf, out);
        let want = conv_direct_ref(&p, &img.to_host(&m), &w.to_host(&m));
        assert!(approx_eq(m.mem.slice(out), &want, 1e-4, 1e-5), "direct mismatch {p:?}");
    }

    #[test]
    fn direct_1x1() {
        check(ConvParams { in_c: 8, in_h: 7, in_w: 9, out_c: 4, k: 1, stride: 1, pad: 0 }, 512);
    }

    #[test]
    fn direct_3x3_s1_padded() {
        check(ConvParams { in_c: 3, in_h: 10, in_w: 10, out_c: 9, k: 3, stride: 1, pad: 1 }, 1024);
    }

    #[test]
    fn direct_3x3_s2() {
        check(ConvParams { in_c: 2, in_h: 12, in_w: 12, out_c: 5, k: 3, stride: 2, pad: 1 }, 512);
    }

    #[test]
    fn direct_5x5_nopad() {
        check(ConvParams { in_c: 2, in_h: 12, in_w: 12, out_c: 3, k: 5, stride: 1, pad: 0 }, 2048);
    }

    #[test]
    fn direct_more_channels_than_unroll() {
        check(ConvParams { in_c: 4, in_h: 6, in_w: 6, out_c: 19, k: 1, stride: 1, pad: 0 }, 512);
    }

    #[test]
    fn direct_skips_workspace_entirely() {
        // The whole point: no im2col buffer, no packing.
        let p = ConvParams { in_c: 4, in_h: 8, in_w: 8, out_c: 4, k: 3, stride: 1, pad: 1 };
        let mut m = Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20));
        let img = Tensor::random(&mut m, Shape::new(4, 8, 8), 5);
        let w = Matrix::random(&mut m, 4, 36, 6);
        let out = m.mem.alloc(4 * 64);
        let used_before = m.mem.used_words();
        conv_direct_vec(&mut m, &p, &img, w.buf, out);
        assert_eq!(m.mem.used_words(), used_before, "direct must not allocate");
        assert_eq!(m.phases.get(lva_isa::KernelPhase::Im2col), 0);
    }
}
