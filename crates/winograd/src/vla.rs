//! The paper's VLA-vectorized Winograd on the simulated SVE machine.
//!
//! ## Inter-tile parallelism across channels (Fig. 4 / Fig. 5)
//!
//! Vectorizing an 8x8 tile transform alone cannot exploit vectors longer
//! than 256 bits without growing the tile (which hurts accuracy, §IV-B).
//! Instead, the transforms pack the *same* 8x4 half-row from
//! `interchannels = VL/4` different channels into one vector (`buff1` holds
//! columns 0..4, `buff2` columns 4..8), so one `vfmacc` applies a transform
//! coefficient to `VL/4` tiles at once. With 512-bit vectors that is 4
//! channels; with 2048-bit vectors, 16 (exactly the paper's example).
//!
//! Both transform passes are row transforms: pass 1 computes `P = B^T d`
//! and scatters `P` transposed into a scratch tile, pass 2 re-gathers the
//! scratch rows (i.e. the columns of `P`) and applies `B^T` again, which
//! yields `V = B^T d B` in natural orientation. The output transform does
//! the same with `A^T` (6 output rows). Gathers/scatters use predicated
//! lanes (`u32::MAX` sentinel) for tile positions that fall outside the
//! output, so ragged borders need no scalar epilogue.
//!
//! ## Tuple multiplication (§IV-B)
//!
//! `M[oc] = sum_ic U[oc][ic] ⊙ V[ic]` is vectorized across the 64 tile
//! frequencies — "16 blocks with 4 elements in each block", i.e. 64 SP
//! elements filling the full 2048-bit SVE vector; shorter vector lengths
//! process the 64 frequencies in `64/VL` register chunks.
//!
//! ## Strides
//!
//! Stride-1 3x3 layers run natively. Stride-2 layers compute the dense
//! stride-1 output and decimate (see crate docs): the paper observed such
//! layers are ~1.4x slower with Winograd than with im2col+GEMM, and this
//! realization reproduces that behaviour.

use crate::cooktoom::{f6x3, WinogradTransform};
use lva_isa::{IsaKind, KernelPhase, Machine, VReg};
use lva_kernels::ConvParams;
use lva_sim::Buf;
use lva_tensor::Tensor;

/// Tile size (8) and frequency count (64) of F(6x6, 3x3).
const N: usize = 8;
const FREQ: usize = N * N;
/// Outputs per tile dimension (6).
const M_OUT: usize = 6;
/// Elements per packed half-row ("elements = 4" in Fig. 4).
const GROUP: usize = 4;
/// Padding (in f32 words) appended to each output channel's row of
/// transformed weights: one full 256 B line. Staggers the parallel U
/// streams of the blocked tuple multiplication across cache sets — without
/// it the streams sit exactly `in_c * 256 B` apart and conflict in the
/// same associativity ways.
const U_ROW_PAD: usize = 64;

// Register map of the packed transforms.
const IN0: VReg = 0; // v0..v7: half-row 0..4 of tile rows 0..8
const IN8: VReg = 8; // v8..v15: half-row 4..8
const OUT0: VReg = 16; // v16..: transformed rows (8 or 6 per half)

// Register map of the tuple multiplication: V chunks are loaded once per
// input channel and reused across a block of OCB output channels, so the
// U-row load is the only per-FMA memory operand (NNPACK-style register
// blocking — the paper's "16 blocks with 4 elements in each block").
const VU: VReg = 0;
const VV0: VReg = 1; // up to 4 chunks of the 64 frequencies
const VACC0: VReg = 8; // OCB x chunks accumulators
/// Output channels blocked per tuple-multiplication pass.
const OCB: usize = 4;

/// Pre-built state for running one convolutional layer with Winograd.
#[derive(Debug)]
pub struct WinogradPlan {
    /// The layer this plan was built for.
    pub params: ConvParams,
    /// Stride-1 equivalent geometry (identical when `params.stride == 1`).
    s1: ConvParams,
    /// The F(6,3) transform matrices.
    pub transform: WinogradTransform,
    tiles_y: usize,
    tiles_x: usize,
    ph: usize,
    pw: usize,
    padded: Buf,
    /// Transformed weights `[oc][ic][64]`, produced offline (§VII-A: the
    /// weight transform is performed offline for inference and excluded
    /// from the measurements).
    pub u: Buf,
    v_all: Buf,
    m_all: Buf,
    scratch: Buf,
    /// Dense stride-1 output staging for stride-2 layers.
    dense: Option<Buf>,
    idx: Vec<u32>,
    /// Source weights (`[oc][ic][9]`); kept for shared-scratch plans that
    /// must re-transform on every forward.
    weights: Buf,
    /// Whether `u` is private to this plan (transformed once at build) or a
    /// shared buffer that other layers overwrite between forwards.
    owns_u: bool,
}

/// Shared Winograd working buffers, sized for the largest layer of a
/// network. Per-layer transformed weights for a full YOLOv3 would need
/// gigabytes of simulated memory; since the weight transform is offline and
/// untimed anyway (§VII-A), network runs share one set of buffers and
/// re-transform per forward (functionally only).
#[derive(Debug, Clone, Copy)]
pub struct WinogradScratch {
    u: Buf,
    v_all: Buf,
    m_all: Buf,
    tile: Buf,
    padded: Buf,
    dense: Buf,
}

impl WinogradScratch {
    /// Allocate scratch able to serve every 3x3 layer in `layers`.
    ///
    /// # Panics
    /// Panics if `layers` is empty.
    pub fn for_layers<I: IntoIterator<Item = ConvParams>>(m: &mut Machine, layers: I) -> Self {
        let mut u_w = 0;
        let mut v_w = 0;
        let mut m_w = 0;
        let mut pad_w = 0;
        let mut dense_w = 1;
        let mut any = false;
        for p in layers {
            any = true;
            assert_eq!(p.k, 3, "Winograd scratch is for 3x3 layers");
            let s1 = ConvParams { stride: 1, ..p };
            let (oh1, ow1) = s1.out_hw();
            let ty = oh1.div_ceil(M_OUT);
            let tx = ow1.div_ceil(M_OUT);
            let tiles = ty * tx;
            u_w = u_w.max(p.out_c * (p.in_c * FREQ + U_ROW_PAD));
            v_w = v_w.max(tiles * p.in_c * FREQ);
            m_w = m_w.max(tiles * p.out_c * FREQ);
            pad_w = pad_w.max(p.in_c * (ty * M_OUT + 2) * (tx * M_OUT + 2));
            if p.stride == 2 {
                dense_w = dense_w.max(p.out_c * oh1 * ow1);
            }
        }
        assert!(any, "no layers supplied");
        let cb = WinogradPlan::channels_per_block(m);
        WinogradScratch {
            u: m.mem.alloc(u_w),
            v_all: m.mem.alloc(v_w),
            m_all: m.mem.alloc(m_w),
            tile: m.mem.alloc(cb * FREQ),
            padded: m.mem.alloc(pad_w),
            dense: m.mem.alloc(dense_w),
        }
    }
}

impl WinogradPlan {
    /// Channels packed per vector: `interchannels = VL / 4` (Fig. 4 l. 4).
    fn channels_per_block(m: &Machine) -> usize {
        (m.vlen_elems() / GROUP).max(1)
    }

    /// Words per output channel in the padded `u` layout.
    fn u_row_words(&self) -> usize {
        self.params.in_c * FREQ + U_ROW_PAD
    }

    /// Build a plan for a 3x3 stride-1/2 layer, transforming `weights`
    /// (`[oc][ic][3][3]` flattened, i.e. the GEMM `M x K` layout) offline.
    ///
    /// # Panics
    /// Panics if the layer is not 3x3 with stride 1 or 2, or if the machine
    /// is not an SVE profile (the paper's RVV lacks the required intrinsics
    /// and is excluded from the Winograd analysis, §VII).
    pub fn new(m: &mut Machine, p: ConvParams, weights: Buf) -> Self {
        assert_eq!(p.k, 3, "Winograd F(6,3) requires 3x3 kernels");
        assert!(p.stride == 1 || p.stride == 2, "stride 1 or 2 only");
        assert_eq!(
            m.config().vpu.isa,
            IsaKind::Sve,
            "Winograd runs on ARM-SVE only (no tuple/transpose support on RISC-V Vector, §VII)"
        );
        assert_eq!(weights.words, p.out_c * p.in_c * 9, "weight shape mismatch");
        let transform = f6x3();
        let s1 = ConvParams { stride: 1, ..p };
        let (oh1, ow1) = s1.out_hw();
        let tiles_y = oh1.div_ceil(M_OUT);
        let tiles_x = ow1.div_ceil(M_OUT);
        let (ph, pw) = (tiles_y * M_OUT + 2, tiles_x * M_OUT + 2);
        let padded = m.mem.alloc(p.in_c * ph * pw);
        let u_row = p.in_c * FREQ + U_ROW_PAD;
        let u = m.mem.alloc(p.out_c * u_row);
        // Offline weight transform (functional only, untimed).
        {
            let w_host = m.mem.slice(weights).to_vec();
            for oc in 0..p.out_c {
                for ic in 0..p.in_c {
                    let f = oc * p.in_c + ic;
                    let u2d = transform.transform_filter_2d(&w_host[f * 9..(f + 1) * 9]);
                    m.mem.slice_mut(u)[oc * u_row + ic * FREQ..oc * u_row + (ic + 1) * FREQ]
                        .copy_from_slice(&u2d);
                }
            }
        }
        let v_all = m.mem.alloc(tiles_y * tiles_x * p.in_c * FREQ);
        let m_all = m.mem.alloc(tiles_y * tiles_x * p.out_c * FREQ);
        let cb = Self::channels_per_block(m);
        let scratch = m.mem.alloc(cb * FREQ);
        let dense = if p.stride == 2 { Some(m.mem.alloc(p.out_c * oh1 * ow1)) } else { None };
        WinogradPlan {
            params: p,
            s1,
            transform,
            tiles_y,
            tiles_x,
            ph,
            pw,
            padded,
            u,
            v_all,
            m_all,
            scratch,
            dense,
            idx: vec![0; m.vlen_elems()],
            weights,
            owns_u: true,
        }
    }

    /// Build a plan over shared [`WinogradScratch`] buffers. The weight
    /// transform is deferred to each forward (other layers overwrite the
    /// shared `u` in between); it stays functional-only/untimed.
    pub fn new_shared(
        m: &mut Machine,
        p: ConvParams,
        weights: Buf,
        shared: &WinogradScratch,
    ) -> Self {
        assert_eq!(p.k, 3, "Winograd F(6,3) requires 3x3 kernels");
        assert!(p.stride == 1 || p.stride == 2, "stride 1 or 2 only");
        assert_eq!(
            m.config().vpu.isa,
            IsaKind::Sve,
            "Winograd runs on ARM-SVE only (no tuple/transpose support on RISC-V Vector, §VII)"
        );
        assert_eq!(weights.words, p.out_c * p.in_c * 9, "weight shape mismatch");
        let transform = f6x3();
        let s1 = ConvParams { stride: 1, ..p };
        let (oh1, ow1) = s1.out_hw();
        let tiles_y = oh1.div_ceil(M_OUT);
        let tiles_x = ow1.div_ceil(M_OUT);
        let (ph, pw) = (tiles_y * M_OUT + 2, tiles_x * M_OUT + 2);
        let cb = Self::channels_per_block(m);
        WinogradPlan {
            params: p,
            s1,
            transform,
            tiles_y,
            tiles_x,
            ph,
            pw,
            padded: shared.padded.slice(0, p.in_c * ph * pw),
            u: shared.u.slice(0, p.out_c * (p.in_c * FREQ + U_ROW_PAD)),
            v_all: shared.v_all.slice(0, tiles_y * tiles_x * p.in_c * FREQ),
            m_all: shared.m_all.slice(0, tiles_y * tiles_x * p.out_c * FREQ),
            scratch: shared.tile.slice(0, cb * FREQ),
            dense: if p.stride == 2 {
                Some(shared.dense.slice(0, p.out_c * oh1 * ow1))
            } else {
                None
            },
            idx: vec![0; m.vlen_elems()],
            weights,
            owns_u: false,
        }
    }
}

/// Apply a packed row transform: `out_row[i] = sum_r coeffs[i*8+r] * in_row[r]`
/// on both half-row register groups, exploiting coefficient sparsity.
///
/// The accumulation is interleaved across the (independent) output rows —
/// input-row index outermost — so consecutive instructions never extend the
/// same dependency chain; on the in-order gem5 profiles this hides the
/// FMA pipeline latency exactly like the GEMM micro-kernel's unrolling.
fn apply_packed_transform(m: &mut Machine, coeffs: &[f32], rows_out: usize, vl: usize) {
    debug_assert_eq!(coeffs.len(), rows_out * N);
    let mut started = [false; 2 * 8];
    for r in 0..N {
        for half in 0..2 {
            let in_base = if half == 0 { IN0 } else { IN8 };
            for i in 0..rows_out {
                let c = coeffs[i * N + r];
                if c == 0.0 {
                    continue;
                }
                let slot = half * rows_out + i;
                let out = OUT0 + slot;
                if started[slot] {
                    m.vfmacc_vf(out, c, in_base + r, vl);
                } else {
                    m.vfmul_vf(out, in_base + r, c, vl);
                    started[slot] = true;
                }
            }
        }
    }
    for (slot, st) in started.iter().enumerate().take(2 * rows_out) {
        if !st {
            m.vbroadcast(OUT0 + slot, 0.0, vl);
        }
    }
}

/// Forward convolution with the plan. `out` receives `oc x oh x ow`
/// (overwritten, not accumulated).
pub fn winograd_conv_vla(m: &mut Machine, plan: &mut WinogradPlan, input: &Tensor, out: Buf) {
    let p = plan.params;
    assert_eq!(input.shape.len(), p.in_c * p.in_h * p.in_w, "input shape mismatch");
    let (oh, ow) = p.out_hw();
    assert!(out.words >= p.out_c * oh * ow, "output buffer too small");
    let (oh1, ow1) = plan.s1.out_hw();
    let target = plan.dense.unwrap_or(out);

    if !plan.owns_u {
        // Shared scratch: re-run the offline (untimed) weight transform.
        let w_host = m.mem.slice(plan.weights).to_vec();
        let u_row = plan.u_row_words();
        for oc in 0..p.out_c {
            for ic in 0..p.in_c {
                let f = oc * p.in_c + ic;
                let u2d = plan.transform.transform_filter_2d(&w_host[f * 9..(f + 1) * 9]);
                m.mem.slice_mut(plan.u)[oc * u_row + ic * FREQ..oc * u_row + (ic + 1) * FREQ]
                    .copy_from_slice(&u2d);
            }
        }
        // The shared padded buffer may hold another layer's data: clear the
        // border cells that the input copy below does not overwrite. This is
        // functional-only bookkeeping of buffer reuse, so it is untimed.
        m.mem.slice_mut(plan.padded).fill(0.0);
    }

    // Stage the input into the zero-padded tile grid (counted with the
    // input transform, as in NNPACK).
    m.phase(KernelPhase::WinogradInputTransform, |m| {
        for ci in 0..p.in_c {
            for y in 0..p.in_h {
                lva_kernels::aux::copy_vec(
                    m,
                    input.buf,
                    (ci * p.in_h + y) * p.in_w,
                    plan.padded,
                    (ci * plan.ph + y + p.pad) * plan.pw + p.pad,
                    p.in_w,
                );
            }
        }
    });

    let cb_max = WinogradPlan::channels_per_block(m);
    // NNPACK structure: transform every tile, then one blocked tuple
    // multiplication over all tiles (GEMM-like operand reuse), then the
    // inverse transform of every tile.
    for ty in 0..plan.tiles_y {
        for tx in 0..plan.tiles_x {
            input_transform_tile(m, plan, ty, tx, cb_max);
        }
    }
    tuple_multiply(m, plan);
    for ty in 0..plan.tiles_y {
        for tx in 0..plan.tiles_x {
            output_transform_tile(m, plan, ty, tx, cb_max, target, oh1, ow1);
        }
    }

    // Stride-2: decimate the dense stride-1 output.
    if let Some(dense) = plan.dense {
        m.phase(KernelPhase::Other, |m| {
            let s = p.stride;
            for oc in 0..p.out_c {
                for oy in 0..oh {
                    let src_row = (oc * oh1 + oy * s) * ow1;
                    let dst_row = (oc * oh + oy) * ow;
                    let mut x = 0;
                    while x < ow {
                        let gvl = m.setvl(ow - x);
                        m.vlse(IN0, dense.addr(src_row + x * s), 4 * s as u64, gvl);
                        m.vse(IN0, out.addr(dst_row + x), gvl);
                        x += gvl;
                    }
                }
            }
        });
    }
}

/// Pass 1 + pass 2 of the input transform for one tile position, all input
/// channels, in blocks of `VL/4` channels (Fig. 4).
fn input_transform_tile(
    m: &mut Machine,
    plan: &mut WinogradPlan,
    ty: usize,
    tx: usize,
    cb_max: usize,
) {
    let p = plan.params;
    let bt: Vec<f32> = plan.transform.bt.clone();
    let (ph, pw) = (plan.ph, plan.pw);
    let (iy0, ix0) = (ty * M_OUT, tx * M_OUT);
    m.phase(KernelPhase::WinogradInputTransform, |m| {
        let mut c0 = 0;
        while c0 < p.in_c {
            let cb = cb_max.min(p.in_c - c0);
            // SVE discipline: the packed-lane count of a tail block comes
            // from a `whilelt` grant over channel-lanes (Fig. 4 line 5),
            // not from an ungoverned partial vector length.
            let vl = m.whilelt(c0 * GROUP, p.in_c * GROUP).active;
            debug_assert_eq!(vl, cb * GROUP);
            // Pass 1: gather tile rows from the padded image.
            for r in 0..N {
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, col) = (l / GROUP, l % GROUP + 4 * half);
                        plan.idx[l] = (((c0 + ch) * ph + iy0 + r) * pw + ix0 + col) as u32;
                    }
                    m.charge_scalar_ops((vl / GROUP) as u64 + 1); // pack bookkeeping
                    let reg = if half == 0 { IN0 + r } else { IN8 + r };
                    m.vgather4(reg, plan.padded.base, &plan.idx[..vl], vl);
                }
            }
            apply_packed_transform(m, &bt, N, vl);
            // Scatter P transposed into the scratch tile.
            for i in 0..N {
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, col) = (l / GROUP, l % GROUP + 4 * half);
                        plan.idx[l] = (ch * FREQ + col * N + i) as u32;
                    }
                    m.vscatter4(OUT0 + half * N + i, plan.scratch.base, &plan.idx[..vl], vl);
                }
            }
            // Pass 2: gather the columns of P (rows of the scratch).
            for r in 0..N {
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, col) = (l / GROUP, l % GROUP + 4 * half);
                        plan.idx[l] = (ch * FREQ + r * N + col) as u32;
                    }
                    let reg = if half == 0 { IN0 + r } else { IN8 + r };
                    m.vgather4(reg, plan.scratch.base, &plan.idx[..vl], vl);
                }
            }
            apply_packed_transform(m, &bt, N, vl);
            // Scatter V (natural orientation) into this tile's region.
            let tbase = (ty * plan.tiles_x + tx) * p.in_c * FREQ;
            for i in 0..N {
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, col) = (l / GROUP, l % GROUP + 4 * half);
                        plan.idx[l] = (tbase + (c0 + ch) * FREQ + col * N + i) as u32;
                    }
                    m.vscatter4(OUT0 + half * N + i, plan.v_all.base, &plan.idx[..vl], vl);
                }
            }
            c0 += cb;
        }
    });
}

/// Tuple multiplication over all tiles:
/// `M[t][oc][f] = sum_ic U[oc][ic][f] * V[t][ic][f]`,
/// vectorized over the 64 frequencies, register-blocked
/// over [`OCB`] output channels (each V chunk loaded once per input
/// channel), and with the tile/channel loop order chosen to keep the
/// smaller operand resident in cache: when the transformed weights are the
/// larger operand (deep layers), the output-channel block loop runs
/// outermost so each 4-row U panel is re-read tile after tile from cache;
/// when the transformed input is larger (early layers with many tiles),
/// the tile loop runs outermost.
fn tuple_multiply(m: &mut Machine, plan: &WinogradPlan) {
    let p = plan.params;
    let tiles = plan.tiles_y * plan.tiles_x;
    // Two-level cache blocking, like a GEMM with N = tiles: the tile loop
    // is blocked so that one block's transformed inputs (TB * ic * 256 B)
    // stay L2-resident across the whole output-channel sweep, and within a
    // block each OCB-row U panel is re-read tile after tile from cache.
    let l2 = m.config().mem.l2.bytes;
    let v_tile_bytes = p.in_c * FREQ * 4;
    let tb = (l2 / 2 / v_tile_bytes).clamp(1, tiles);
    m.phase(KernelPhase::WinogradTupleMul, |m| {
        let mut t0 = 0;
        while t0 < tiles {
            let tbn = tb.min(tiles - t0);
            let mut oc0 = 0;
            while oc0 < p.out_c {
                let ob = OCB.min(p.out_c - oc0);
                for t in t0..t0 + tbn {
                    tuple_block(m, plan, t, oc0, ob);
                }
                oc0 += ob;
            }
            t0 += tbn;
        }
    });
}

/// One (tile, output-channel block) accumulation of the tuple
/// multiplication.
fn tuple_block(m: &mut Machine, plan: &WinogradPlan, t: usize, oc0: usize, ob: usize) {
    let p = plan.params;
    let u_row = plan.u_row_words();
    let vlen = m.vlen_elems().min(FREQ);
    let chunks = FREQ.div_ceil(vlen);
    debug_assert!(chunks <= 4);
    let vbase = t * p.in_c * FREQ;
    let mbase = t * p.out_c * FREQ;
    for r in 0..ob * chunks {
        let vl = vlen.min(FREQ - (r % chunks) * vlen);
        m.vbroadcast(VACC0 + r, 0.0, vl);
    }
    for ic in 0..p.in_c {
        m.charge_scalar_ops(1);
        // Load the V chunks once for this input channel.
        for ch in 0..chunks {
            let vl = vlen.min(FREQ - ch * vlen);
            m.vle(VV0 + ch, plan.v_all.addr(vbase + ic * FREQ + ch * vlen), vl);
        }
        for o in 0..ob {
            for ch in 0..chunks {
                let vl = vlen.min(FREQ - ch * vlen);
                let off = ch * vlen;
                m.vle(VU, plan.u.addr((oc0 + o) * u_row + ic * FREQ + off), vl);
                m.vfmacc_vv(VACC0 + o * chunks + ch, VU, VV0 + ch, vl);
            }
        }
    }
    for o in 0..ob {
        for ch in 0..chunks {
            let vl = vlen.min(FREQ - ch * vlen);
            m.vse(
                VACC0 + o * chunks + ch,
                plan.m_all.addr(mbase + (oc0 + o) * FREQ + ch * vlen),
                vl,
            );
        }
    }
}

/// Output transform for one tile: `Y = A^T M A` across output channels in
/// blocks of `VL/4`, with predicated scatter for ragged borders.
#[allow(clippy::too_many_arguments)]
fn output_transform_tile(
    m: &mut Machine,
    plan: &mut WinogradPlan,
    ty: usize,
    tx: usize,
    cb_max: usize,
    target: Buf,
    oh1: usize,
    ow1: usize,
) {
    let p = plan.params;
    let at: Vec<f32> = plan.transform.at.clone();
    m.phase(KernelPhase::WinogradOutputTransform, |m| {
        let mut o0 = 0;
        while o0 < p.out_c {
            let cb = cb_max.min(p.out_c - o0);
            // Same `whilelt` tail discipline as the input transform.
            let vl = m.whilelt(o0 * GROUP, p.out_c * GROUP).active;
            debug_assert_eq!(vl, cb * GROUP);
            // Pass 1: gather M rows of this tile.
            let mbase = (ty * plan.tiles_x + tx) * p.out_c * FREQ;
            for r in 0..N {
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, col) = (l / GROUP, l % GROUP + 4 * half);
                        plan.idx[l] = (mbase + (o0 + ch) * FREQ + r * N + col) as u32;
                    }
                    let reg = if half == 0 { IN0 + r } else { IN8 + r };
                    m.vgather4(reg, plan.m_all.base, &plan.idx[..vl], vl);
                }
            }
            apply_packed_transform(m, &at, M_OUT, vl);
            // Scatter P2 = A^T M transposed (6 valid positions per row).
            for i in 0..M_OUT {
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, col) = (l / GROUP, l % GROUP + 4 * half);
                        plan.idx[l] = (ch * FREQ + col * N + i) as u32;
                    }
                    m.vscatter4(OUT0 + half * M_OUT + i, plan.scratch.base, &plan.idx[..vl], vl);
                }
            }
            // Pass 2: gather rows of P2^T (columns 6,7 are predicated out).
            for r in 0..N {
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, col) = (l / GROUP, l % GROUP + 4 * half);
                        plan.idx[l] =
                            if col < M_OUT { (ch * FREQ + r * N + col) as u32 } else { u32::MAX };
                    }
                    let reg = if half == 0 { IN0 + r } else { IN8 + r };
                    m.vgather4(reg, plan.scratch.base, &plan.idx[..vl], vl);
                }
            }
            apply_packed_transform(m, &at, M_OUT, vl);
            // Scatter Y (out_row i lane (ch, j) = Y[j][i]) with border clip.
            for i in 0..M_OUT {
                let ox = tx * M_OUT + i;
                for half in 0..2 {
                    for l in 0..vl {
                        let (ch, j) = (l / GROUP, l % GROUP + 4 * half);
                        let oy = ty * M_OUT + j;
                        plan.idx[l] = if j < M_OUT && oy < oh1 && ox < ow1 {
                            (((o0 + ch) * oh1 + oy) * ow1 + ox) as u32
                        } else {
                            u32::MAX
                        };
                    }
                    m.charge_scalar_ops((vl / GROUP) as u64 + 1);
                    m.vscatter4(OUT0 + half * M_OUT + i, target.base, &plan.idx[..vl], vl);
                }
            }
            o0 += cb;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::winograd_conv_ref;
    use lva_isa::MachineConfig;
    use lva_kernels::reference::conv_direct_ref;
    use lva_tensor::{approx_eq, Matrix, Shape};

    fn machine(vlen: usize) -> Machine {
        Machine::new(MachineConfig::sve_gem5(vlen, 1 << 20))
    }

    fn run_vla(vlen: usize, p: ConvParams) -> (Vec<f32>, Vec<f32>, u64) {
        let mut m = machine(vlen);
        let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 21);
        let w = Matrix::random(&mut m, p.out_c, p.in_c * 9, 22);
        let (oh, ow) = p.out_hw();
        let out = m.mem.alloc(p.out_c * oh * ow);
        let mut plan = WinogradPlan::new(&mut m, p, w.buf);
        winograd_conv_vla(&mut m, &mut plan, &img, out);
        let direct = conv_direct_ref(&p, &img.to_host(&m), &w.to_host(&m));
        (m.mem.slice(out).to_vec(), direct, m.cycles())
    }

    #[test]
    fn vla_matches_direct_s1_512b() {
        let p = ConvParams { in_c: 3, in_h: 13, in_w: 10, out_c: 5, k: 3, stride: 1, pad: 1 };
        let (got, want, _) = run_vla(512, p);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3), "mismatch");
    }

    #[test]
    fn vla_matches_direct_s1_2048b() {
        // 16 channels per block with 2048-bit vectors (the paper's example).
        let p = ConvParams { in_c: 20, in_h: 12, in_w: 12, out_c: 7, k: 3, stride: 1, pad: 1 };
        let (got, want, _) = run_vla(2048, p);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3));
    }

    #[test]
    fn vla_matches_scalar_winograd() {
        let p = ConvParams { in_c: 4, in_h: 9, in_w: 9, out_c: 3, k: 3, stride: 1, pad: 1 };
        let mut m = machine(1024);
        let img = Tensor::random(&mut m, Shape::new(p.in_c, p.in_h, p.in_w), 31);
        let w = Matrix::random(&mut m, p.out_c, p.in_c * 9, 32);
        let (oh, ow) = p.out_hw();
        let out = m.mem.alloc(p.out_c * oh * ow);
        let mut plan = WinogradPlan::new(&mut m, p, w.buf);
        winograd_conv_vla(&mut m, &mut plan, &img, out);
        let sref = winograd_conv_ref(&plan.transform, &p, &img.to_host(&m), &w.to_host(&m));
        assert!(approx_eq(m.mem.slice(out), &sref, 1e-3, 1e-4));
    }

    #[test]
    fn vla_matches_direct_s2() {
        let p = ConvParams { in_c: 3, in_h: 14, in_w: 14, out_c: 4, k: 3, stride: 2, pad: 1 };
        let (got, want, _) = run_vla(512, p);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3));
    }

    #[test]
    fn vla_unpadded_layer() {
        let p = ConvParams { in_c: 2, in_h: 10, in_w: 16, out_c: 2, k: 3, stride: 1, pad: 0 };
        let (got, want, _) = run_vla(512, p);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3));
    }

    #[test]
    fn single_channel_small_count_fallback() {
        // Fig. 4's `count < 4` path: fewer channels than one block.
        let p = ConvParams { in_c: 1, in_h: 8, in_w: 8, out_c: 1, k: 3, stride: 1, pad: 1 };
        let (got, want, _) = run_vla(2048, p);
        assert!(approx_eq(&got, &want, 5e-3, 5e-3));
    }

    #[test]
    fn longer_vectors_are_faster() {
        let p = ConvParams { in_c: 16, in_h: 18, in_w: 18, out_c: 16, k: 3, stride: 1, pad: 1 };
        let (_, _, t512) = run_vla(512, p);
        let (_, _, t2048) = run_vla(2048, p);
        assert!(t2048 < t512, "2048-bit ({t2048}) should beat 512-bit ({t512}) on Winograd");
    }

    #[test]
    fn shared_scratch_plans_match_direct_across_layers() {
        // Two layers alternately using the same scratch must both be right.
        let p1 = ConvParams { in_c: 3, in_h: 10, in_w: 10, out_c: 6, k: 3, stride: 1, pad: 1 };
        let p2 = ConvParams { in_c: 6, in_h: 12, in_w: 12, out_c: 4, k: 3, stride: 2, pad: 1 };
        let mut m = machine(512);
        let img1 = Tensor::random(&mut m, Shape::new(p1.in_c, p1.in_h, p1.in_w), 41);
        let img2 = Tensor::random(&mut m, Shape::new(p2.in_c, p2.in_h, p2.in_w), 42);
        let w1 = Matrix::random(&mut m, p1.out_c, p1.in_c * 9, 43);
        let w2 = Matrix::random(&mut m, p2.out_c, p2.in_c * 9, 44);
        let shared = WinogradScratch::for_layers(&mut m, [p1, p2]);
        let (oh1, ow1) = p1.out_hw();
        let (oh2, ow2) = p2.out_hw();
        let out1 = m.mem.alloc(p1.out_c * oh1 * ow1);
        let out2 = m.mem.alloc(p2.out_c * oh2 * ow2);
        let mut plan1 = WinogradPlan::new_shared(&mut m, p1, w1.buf, &shared);
        let mut plan2 = WinogradPlan::new_shared(&mut m, p2, w2.buf, &shared);
        winograd_conv_vla(&mut m, &mut plan1, &img1, out1);
        winograd_conv_vla(&mut m, &mut plan2, &img2, out2);
        // Re-run layer 1 after layer 2 clobbered the scratch.
        winograd_conv_vla(&mut m, &mut plan1, &img1, out1);
        let want1 = conv_direct_ref(&p1, &img1.to_host(&m), &w1.to_host(&m));
        let want2 = conv_direct_ref(&p2, &img2.to_host(&m), &w2.to_host(&m));
        assert!(approx_eq(m.mem.slice(out1), &want1, 5e-3, 5e-3));
        assert!(approx_eq(m.mem.slice(out2), &want2, 5e-3, 5e-3));
    }

    #[test]
    #[should_panic(expected = "ARM-SVE only")]
    fn rvv_machines_rejected() {
        let mut m = Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20));
        let p = ConvParams { in_c: 1, in_h: 8, in_w: 8, out_c: 1, k: 3, stride: 1, pad: 1 };
        let w = Matrix::random(&mut m, 1, 9, 1);
        let _ = WinogradPlan::new(&mut m, p, w.buf);
    }

    #[test]
    #[should_panic(expected = "3x3")]
    fn non_3x3_rejected() {
        let mut m = machine(512);
        let p = ConvParams { in_c: 1, in_h: 8, in_w: 8, out_c: 1, k: 5, stride: 1, pad: 2 };
        let w = Matrix::random(&mut m, 1, 25, 1);
        let _ = WinogradPlan::new(&mut m, p, w.buf);
    }
}
