//! The simulated FFT convolution: split-complex planes, gather-based
//! radix-2 stages over precomputed index/twiddle tables, and per-frequency
//! channel accumulation.
//!
//! Layout choice: **split-complex** (separate real and imaginary planes).
//! Interleaved complex would force every butterfly through stride-2
//! accesses; split planes make all arithmetic unit-stride and need no
//! complex shuffles — the standard choice on vector machines.
//!
//! Each radix-2 stage processes all `P/2` butterflies of a row (or column)
//! in one pass: the `a`/`b` operands are fetched with structured gathers
//! over per-stage index tables (contiguous runs of `len/2`, so they are
//! charged as 4-element-group accesses for `len >= 8`), twiddles come from
//! unit-stride tables, and the four output planes are scattered back.

use crate::host::{bit_reverse_permute, fft2_inplace, Complex};
use lva_isa::{IsaKind, KernelPhase, Machine, VReg};
use lva_kernels::ConvParams;
use lva_sim::Buf;
use lva_tensor::Tensor;

// Register map for the butterfly kernel.
const AR: VReg = 0;
const AI: VReg = 1;
const BR: VReg = 2;
const BI: VReg = 3;
const WR: VReg = 4;
const WI: VReg = 5;
const T1: VReg = 6;
const T2: VReg = 7;
const OR2: VReg = 8;
const OI2: VReg = 9;
// Registers for the frequency-domain accumulation.
const ACR: VReg = 10;
const ACI: VReg = 11;
const XR: VReg = 12;
const XI: VReg = 13;
const FWR: VReg = 14;
const FWI: VReg = 15;
const VT: VReg = 16;

/// One radix-2 stage's precomputed tables.
#[derive(Debug)]
struct Stage {
    /// Butterfly `a` element offsets (within a row), length `P/2`.
    a_idx: Vec<u32>,
    /// Butterfly `b` element offsets.
    b_idx: Vec<u32>,
    /// Column-pass variants (scaled by the grid pitch).
    a_idx_col: Vec<u32>,
    b_idx_col: Vec<u32>,
    /// Forward twiddles for each butterfly (unit-stride tables in the
    /// arena).
    tw_re: Buf,
    tw_im: Buf,
    /// Inverse twiddles (conjugate).
    itw_re: Buf,
    itw_im: Buf,
    /// Butterfly group length of this stage.
    len: usize,
}

/// Pre-built state for one FFT-convolution layer.
#[derive(Debug)]
pub struct FftConvPlan {
    pub params: ConvParams,
    /// Padded grid edge (power of two).
    pub grid: usize,
    stages: Vec<Stage>,
    /// Bit-reversal permutation (row and column variants).
    brev: Vec<u32>,
    brev_col: Vec<u32>,
    /// Transformed input planes `[ic][P*P]` (re, im).
    xhat_re: Buf,
    xhat_im: Buf,
    /// Offline-transformed (flipped) weights `[oc][ic][P*P]` (re, im).
    what_re: Buf,
    what_im: Buf,
    /// Frequency accumulator planes.
    acc_re: Buf,
    acc_im: Buf,
}

impl FftConvPlan {
    /// Build a plan: allocate planes, precompute stage tables, and
    /// transform the weights offline (functional only, untimed — the same
    /// treatment as the Winograd weight transform, §VII-A).
    ///
    /// # Panics
    /// Panics unless `pad <= k - 1` (true for all studied layers) and the
    /// machine is an SVE profile (gathers; RVV is excluded like §VII).
    pub fn new(m: &mut Machine, p: ConvParams, weights: Buf) -> Self {
        assert!(p.pad < p.k.max(1), "FFT path requires pad <= k-1");
        assert_eq!(
            m.config().vpu.isa,
            IsaKind::Sve,
            "FFT convolution uses structured gathers (SVE profile only)"
        );
        assert_eq!(weights.words, p.out_c * p.in_c * p.k * p.k, "weight shape mismatch");
        let grid = crate::host::fft_grid(&p);
        let n2 = grid * grid;
        // Stage tables.
        let mut stages = Vec::new();
        let mut len = 2usize;
        while len <= grid {
            let half = len / 2;
            let mut a_idx = Vec::with_capacity(grid / 2);
            let mut b_idx = Vec::with_capacity(grid / 2);
            let mut tw_re_v = Vec::with_capacity(grid / 2);
            let mut tw_im_v = Vec::with_capacity(grid / 2);
            for start in (0..grid).step_by(len) {
                for j in 0..half {
                    a_idx.push((start + j) as u32);
                    b_idx.push((start + j + half) as u32);
                    let w = Complex::cis(-2.0 * std::f64::consts::PI * j as f64 / len as f64);
                    tw_re_v.push(w.re);
                    tw_im_v.push(w.im);
                }
            }
            let a_idx_col: Vec<u32> = a_idx.iter().map(|&i| i * grid as u32).collect();
            let b_idx_col: Vec<u32> = b_idx.iter().map(|&i| i * grid as u32).collect();
            let itw_im_v: Vec<f32> = tw_im_v.iter().map(|x| -x).collect();
            stages.push(Stage {
                a_idx,
                b_idx,
                a_idx_col,
                b_idx_col,
                tw_re: m.mem.alloc_from(&tw_re_v),
                tw_im: m.mem.alloc_from(&tw_im_v),
                itw_re: m.mem.alloc_from(&tw_re_v),
                itw_im: m.mem.alloc_from(&itw_im_v),
                len,
            });
            len *= 2;
        }
        let mut brev: Vec<u32> = (0..grid as u32).collect();
        bit_reverse_permute(&mut brev);
        let brev_col: Vec<u32> = brev.iter().map(|&i| i * grid as u32).collect();

        let xhat_re = m.mem.alloc(p.in_c * n2);
        let xhat_im = m.mem.alloc(p.in_c * n2);
        let what_re = m.mem.alloc(p.out_c * p.in_c * n2);
        let what_im = m.mem.alloc(p.out_c * p.in_c * n2);
        // Offline weight transform: flipped kernel, forward 2D FFT (host).
        {
            let w_host = m.mem.slice(weights).to_vec();
            let mut gridbuf = vec![Complex::ZERO; n2];
            for oc in 0..p.out_c {
                for ci in 0..p.in_c {
                    gridbuf.fill(Complex::ZERO);
                    for ky in 0..p.k {
                        for kx in 0..p.k {
                            gridbuf[(p.k - 1 - ky) * grid + (p.k - 1 - kx)].re =
                                w_host[((oc * p.in_c + ci) * p.k + ky) * p.k + kx];
                        }
                    }
                    fft2_inplace(&mut gridbuf, grid, -1.0);
                    let off = (oc * p.in_c + ci) * n2;
                    let wre = m.mem.slice_mut(what_re);
                    for (i, c) in gridbuf.iter().enumerate() {
                        wre[off + i] = c.re;
                    }
                    let wim = m.mem.slice_mut(what_im);
                    for (i, c) in gridbuf.iter().enumerate() {
                        wim[off + i] = c.im;
                    }
                }
            }
        }
        FftConvPlan {
            params: p,
            grid,
            stages,
            brev,
            brev_col,
            xhat_re,
            xhat_im,
            what_re,
            what_im,
            acc_re: m.mem.alloc(n2),
            acc_im: m.mem.alloc(n2),
        }
    }
}

/// One radix-2 stage applied to every row (or column) of a `P x P`
/// split-complex grid.
#[allow(clippy::too_many_arguments)]
fn stage_pass(
    m: &mut Machine,
    re: Buf,
    im: Buf,
    grid: usize,
    stage: &Stage,
    inverse: bool,
    columns: bool,
) {
    let half_n = grid / 2;
    let (a_idx, b_idx) =
        if columns { (&stage.a_idx_col, &stage.b_idx_col) } else { (&stage.a_idx, &stage.b_idx) };
    let (twr, twi) =
        if inverse { (stage.itw_re, stage.itw_im) } else { (stage.tw_re, stage.tw_im) };
    let structured = stage.len >= 8; // contiguous 4-groups in the index sets
    for lane in 0..grid {
        // Row pass: base walks rows; column pass: base walks columns.
        let base_off = if columns { lane } else { lane * grid };
        let mut j = 0;
        while j < half_n {
            let gvl = m.setvl(half_n - j);
            let ai = &a_idx[j..j + gvl];
            let bi = &b_idx[j..j + gvl];
            if structured {
                m.vgather4(AR, re.addr(base_off), ai, gvl);
                m.vgather4(AI, im.addr(base_off), ai, gvl);
                m.vgather4(BR, re.addr(base_off), bi, gvl);
                m.vgather4(BI, im.addr(base_off), bi, gvl);
            } else {
                m.vgather(AR, re.addr(base_off), ai, gvl);
                m.vgather(AI, im.addr(base_off), ai, gvl);
                m.vgather(BR, re.addr(base_off), bi, gvl);
                m.vgather(BI, im.addr(base_off), bi, gvl);
            }
            m.vle(WR, twr.addr(j), gvl);
            m.vle(WI, twi.addr(j), gvl);
            // t = b * w  (complex).
            m.vfmul_vv(T1, BR, WR, gvl);
            m.vfnmsac_vv(T1, BI, WI, gvl);
            m.vfmul_vv(T2, BR, WI, gvl);
            m.vfmacc_vv(T2, BI, WR, gvl);
            // a' = a + t ; b' = a - t.
            m.vfsub_vv(OR2, AR, T1, gvl);
            m.vfsub_vv(OI2, AI, T2, gvl);
            m.vfadd_vv(AR, AR, T1, gvl);
            m.vfadd_vv(AI, AI, T2, gvl);
            if structured {
                m.vscatter4(AR, re.addr(base_off), ai, gvl);
                m.vscatter4(AI, im.addr(base_off), ai, gvl);
                m.vscatter4(OR2, re.addr(base_off), bi, gvl);
                m.vscatter4(OI2, im.addr(base_off), bi, gvl);
            } else {
                m.vscatter(AR, re.addr(base_off), ai, gvl);
                m.vscatter(AI, im.addr(base_off), ai, gvl);
                m.vscatter(OR2, re.addr(base_off), bi, gvl);
                m.vscatter(OI2, im.addr(base_off), bi, gvl);
            }
            j += gvl;
        }
    }
}

/// Bit-reversal permutation of every row (or column) of the grid, through
/// a gather into registers and a unit-stride store back.
fn brev_pass(m: &mut Machine, plan: &FftConvPlan, re: Buf, im: Buf, columns: bool) {
    let grid = plan.grid;
    let perm = if columns { &plan.brev_col } else { &plan.brev };
    for lane in 0..grid {
        let base_off = if columns { lane } else { lane * grid };
        let mut j = 0;
        while j < grid {
            let gvl = m.setvl(grid - j);
            // Gather the permuted elements, store them contiguously into a
            // scratch register image, then write back in order. For rows
            // the write-back is unit-stride; for columns it is strided.
            m.vgather(AR, re.addr(base_off), &perm[j..j + gvl], gvl);
            m.vgather(AI, im.addr(base_off), &perm[j..j + gvl], gvl);
            if columns {
                m.vsse(AR, re.addr(base_off + j * grid), 4 * grid as u64, gvl);
                m.vsse(AI, im.addr(base_off + j * grid), 4 * grid as u64, gvl);
            } else {
                m.vse(AR, re.addr(base_off + j), gvl);
                m.vse(AI, im.addr(base_off + j), gvl);
            }
            j += gvl;
        }
    }
}

/// Full 2D FFT (rows then columns) of one split-complex grid.
fn fft2_vla(m: &mut Machine, plan: &FftConvPlan, re: Buf, im: Buf, inverse: bool) {
    // NOTE on ordering: bit-reversal first, then the stages, per dimension.
    brev_pass(m, plan, re, im, false);
    for stage in &plan.stages {
        stage_pass(m, re, im, plan.grid, stage, inverse, false);
    }
    brev_pass(m, plan, re, im, true);
    for stage in &plan.stages {
        stage_pass(m, re, im, plan.grid, stage, inverse, true);
    }
}

/// Forward convolution through the frequency domain. `out` receives
/// `oc x oh x ow` (overwritten).
pub fn conv_fft_vla(m: &mut Machine, plan: &mut FftConvPlan, input: &Tensor, out: Buf) {
    let p = plan.params;
    assert_eq!(input.shape.len(), p.in_c * p.in_h * p.in_w, "input shape mismatch");
    let (oh, ow) = p.out_hw();
    assert!(out.words >= p.out_c * oh * ow, "output too small");
    let grid = plan.grid;
    let n2 = grid * grid;

    // Forward-transform every input channel.
    m.phase(KernelPhase::WinogradInputTransform, |m| {
        for ci in 0..p.in_c {
            let re = plan.xhat_re.slice(ci * n2, n2);
            let im = plan.xhat_im.slice(ci * n2, n2);
            lva_kernels::aux::fill_vec(m, re, 0, n2, 0.0);
            lva_kernels::aux::fill_vec(m, im, 0, n2, 0.0);
            for y in 0..p.in_h {
                lva_kernels::aux::copy_vec(
                    m,
                    input.buf,
                    (ci * p.in_h + y) * p.in_w,
                    re,
                    y * grid,
                    p.in_w,
                );
            }
            fft2_vla(m, plan, re, im, false);
        }
    });

    // Per output channel: accumulate spectra, inverse-transform, extract.
    for oc in 0..p.out_c {
        m.phase(KernelPhase::WinogradTupleMul, |m| {
            let mut off = 0;
            while off < n2 {
                let gvl = m.setvl(n2 - off);
                m.vbroadcast(ACR, 0.0, gvl);
                m.vbroadcast(ACI, 0.0, gvl);
                for ci in 0..p.in_c {
                    let woff = (oc * p.in_c + ci) * n2 + off;
                    m.vle(XR, plan.xhat_re.addr(ci * n2 + off), gvl);
                    m.vle(XI, plan.xhat_im.addr(ci * n2 + off), gvl);
                    m.vle(FWR, plan.what_re.addr(woff), gvl);
                    m.vle(FWI, plan.what_im.addr(woff), gvl);
                    // acc += x * w (complex).
                    m.vfmacc_vv(ACR, XR, FWR, gvl);
                    m.vfnmsac_vv(ACR, XI, FWI, gvl);
                    m.vfmacc_vv(ACI, XR, FWI, gvl);
                    m.vfmacc_vv(ACI, XI, FWR, gvl);
                }
                m.vse(ACR, plan.acc_re.addr(off), gvl);
                m.vse(ACI, plan.acc_im.addr(off), gvl);
                off += gvl;
            }
        });
        m.phase(KernelPhase::WinogradOutputTransform, |m| {
            fft2_vla(m, plan, plan.acc_re, plan.acc_im, true);
            // Extract the valid correlation window, scaled by 1/P^2.
            let scale = 1.0 / n2 as f32;
            for oy in 0..oh {
                let y = oy * p.stride + p.k - 1 - p.pad;
                let mut ox = 0;
                while ox < ow {
                    let gvl = m.setvl(ow - ox);
                    let x0 = ox * p.stride + p.k - 1 - p.pad;
                    if p.stride == 1 {
                        m.vle(VT, plan.acc_re.addr(y * grid + x0), gvl);
                    } else {
                        m.vlse(VT, plan.acc_re.addr(y * grid + x0), 4 * p.stride as u64, gvl);
                    }
                    m.vfmul_vf(VT, VT, scale, gvl);
                    m.vse(VT, out.addr((oc * oh + oy) * ow + ox), gvl);
                    ox += gvl;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_isa::MachineConfig;
    use lva_kernels::reference::conv_direct_ref;
    use lva_tensor::{approx_eq, Matrix, Shape};

    fn run(p: ConvParams, vlen: usize) -> (Vec<f32>, Vec<f32>, u64) {
        let mut m = Machine::new(MachineConfig::sve_gem5(vlen, 1 << 20));
        let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 11);
        let (mm, nn, kk) = p.gemm_mnk();
        let w = Matrix::random(&mut m, mm, kk, 12);
        let out = m.mem.alloc(mm * nn);
        let mut plan = FftConvPlan::new(&mut m, p, w.buf);
        m.reset_timing();
        conv_fft_vla(&mut m, &mut plan, &img, out);
        let want = conv_direct_ref(&p, &img.to_host(&m), &w.to_host(&m));
        (m.mem.slice(out).to_vec(), want, m.cycles())
    }

    #[test]
    fn fft_conv_matches_direct_3x3() {
        let p = ConvParams { in_c: 2, in_h: 10, in_w: 10, out_c: 3, k: 3, stride: 1, pad: 1 };
        let (got, want, cycles) = run(p, 512);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3));
        assert!(cycles > 0);
    }

    #[test]
    fn fft_conv_matches_direct_7x7() {
        let p = ConvParams { in_c: 2, in_h: 12, in_w: 12, out_c: 2, k: 7, stride: 1, pad: 3 };
        let (got, want, _) = run(p, 1024);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3));
    }

    #[test]
    fn fft_conv_matches_direct_11x11() {
        let p = ConvParams { in_c: 1, in_h: 16, in_w: 16, out_c: 2, k: 11, stride: 1, pad: 5 };
        let (got, want, _) = run(p, 2048);
        assert!(approx_eq(&got, &want, 1e-2, 1e-2));
    }

    #[test]
    fn fft_conv_stride2() {
        let p = ConvParams { in_c: 2, in_h: 12, in_w: 12, out_c: 2, k: 5, stride: 2, pad: 2 };
        let (got, want, _) = run(p, 512);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3));
    }

    #[test]
    fn longer_vectors_speed_up_fft_conv() {
        let p = ConvParams { in_c: 4, in_h: 20, in_w: 20, out_c: 4, k: 7, stride: 1, pad: 3 };
        let (_, _, t512) = run(p, 512);
        let (_, _, t2048) = run(p, 2048);
        assert!(t2048 < t512, "2048b {t2048} should beat 512b {t512}");
    }

    #[test]
    #[should_panic(expected = "SVE profile only")]
    fn rvv_rejected() {
        let mut m = Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20));
        let p = ConvParams { in_c: 1, in_h: 8, in_w: 8, out_c: 1, k: 3, stride: 1, pad: 1 };
        let w = Matrix::random(&mut m, 1, 9, 1);
        let _ = FftConvPlan::new(&mut m, p, w.buf);
    }
}
