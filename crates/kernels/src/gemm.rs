//! GEMM kernels: Darknet's naive triple loop (Fig. 1), the optimized 3-loop
//! implementation (Fig. 2), and the BLIS-like 6-loop implementation (Fig. 3).
//!
//! All variants compute `C += alpha * A * B` with row-major `A: MxK`,
//! `B: KxN`, `C: MxN`, exactly like Darknet's `gemm_nn` (inference uses
//! `alpha = 1`, and like the paper's kernels we skip the multiplication in
//! that case).
//!
//! ## Register allocation of the vectorized micro-kernel
//!
//! `v0` holds the streamed B row, `v1` is a spill temporary, and `v2..v31`
//! are C-row accumulators, so up to 30 rows can be unrolled before spilling.
//! The paper tunes the unroll factor to 16 on RISC-V Vector (32 would spill
//! and cost ~15%, §VI-A); requesting more than 30 here makes the surplus
//! rows operate directly on memory through `v1`, reproducing the spill
//! penalty.

use lva_isa::{KernelPhase, Machine, PrefetchTarget, VReg};
use lva_sim::{AccessKind, Buf};

/// Unroll factor the paper settled on for both optimized implementations.
pub const DEFAULT_UNROLL: usize = 16;

/// Vector register holding the streamed B row.
const VB: VReg = 0;
/// Spill temporary.
const VTMP: VReg = 1;
/// First accumulator register.
const VACC0: VReg = 2;
/// Accumulator registers available before spilling.
const AVAIL_ACC: usize = 30;

/// Blocking factors of the 6-loop implementation (`blockM x blockN x blockK`
/// in the paper's Table II notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl BlockSizes {
    /// The block size Table II found optimal on RISC-V Vector.
    pub const TABLE2_BEST: BlockSizes = BlockSizes { m: 16, n: 512, k: 128 };

    /// All block sizes swept in Table II, in the paper's row order.
    pub const TABLE2_SWEEP: [BlockSizes; 6] = [
        BlockSizes { m: 128, n: 1024, k: 256 },
        BlockSizes { m: 16, n: 1024, k: 128 },
        BlockSizes { m: 16, n: 512, k: 128 },
        BlockSizes { m: 16, n: 512, k: 256 },
        BlockSizes { m: 32, n: 512, k: 128 },
        BlockSizes { m: 64, n: 1024, k: 128 },
    ];

    /// Words needed for the packed-A and packed-B workspace.
    pub fn workspace_words(&self) -> usize {
        self.m * self.k + self.k * self.n
    }
}

/// Which GEMM implementation a convolution layer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// Fig. 1: scalar `-fno-vectorize` baseline.
    Naive,
    /// Fig. 2: vectorized, reordered, unrolled 3-loop implementation.
    Opt3 { unroll: usize },
    /// Fig. 3: BLIS-like blocked/packed/prefetched 6-loop implementation.
    Opt6 { unroll: usize, blocks: BlockSizes },
}

impl GemmVariant {
    /// The paper's default optimized 3-loop configuration.
    pub fn opt3() -> Self {
        GemmVariant::Opt3 { unroll: DEFAULT_UNROLL }
    }

    /// The paper's default optimized 6-loop configuration.
    pub fn opt6() -> Self {
        GemmVariant::Opt6 { unroll: DEFAULT_UNROLL, blocks: BlockSizes::TABLE2_BEST }
    }

    pub fn name(&self) -> &'static str {
        match self {
            GemmVariant::Naive => "naive",
            GemmVariant::Opt3 { .. } => "opt3",
            GemmVariant::Opt6 { .. } => "opt6",
        }
    }
}

/// Reusable packing workspace for [`gemm_opt6`] (Darknet-style: allocated
/// once per network, reused across layers).
#[derive(Debug, Clone, Copy)]
pub struct GemmWorkspace {
    pub a_pack: Buf,
    pub b_pack: Buf,
    blocks: BlockSizes,
}

impl GemmWorkspace {
    pub fn alloc(m: &mut Machine, blocks: BlockSizes) -> Self {
        GemmWorkspace {
            a_pack: m.mem.alloc(blocks.m * blocks.k),
            b_pack: m.mem.alloc(blocks.k * blocks.n),
            blocks,
        }
    }
}

/// Dispatch a GEMM by variant. For `Opt6`, `ws` must have been allocated
/// with the same block sizes.
pub fn gemm(
    m: &mut Machine,
    variant: GemmVariant,
    mm: usize,
    nn: usize,
    kk: usize,
    alpha: f32,
    a: Buf,
    b: Buf,
    c: Buf,
    ws: Option<&GemmWorkspace>,
) {
    match variant {
        GemmVariant::Naive => gemm_naive(m, mm, nn, kk, alpha, a, b, c),
        GemmVariant::Opt3 { unroll } => gemm_opt3(m, mm, nn, kk, alpha, a, b, c, unroll),
        GemmVariant::Opt6 { unroll, blocks } => {
            let ws = ws.expect("gemm_opt6 needs a workspace");
            assert_eq!(ws.blocks, blocks, "workspace allocated for different block sizes");
            gemm_opt6(m, mm, nn, kk, alpha, a, b, c, unroll, blocks, ws);
        }
    }
}

/// Fig. 1 — Darknet's naive GEMM compiled without vectorization. Functional
/// compute runs on host slices; timing is charged in bulk: one scalar
/// operation per multiply-add plus per-line cache traffic for the B and C
/// row streams.
pub fn gemm_naive(
    m: &mut Machine,
    mm: usize,
    nn: usize,
    kk: usize,
    alpha: f32,
    a: Buf,
    b: Buf,
    c: Buf,
) {
    m.phase(KernelPhase::Gemm, |m| {
        for i in 0..mm {
            for k in 0..kk {
                let a_part = alpha * m.scalar_read(a.addr(i * kk + k));
                let brow = b.slice(k * nn, nn);
                let crow = c.slice(i * nn, nn);
                // Functional.
                {
                    let (cs, bs) = m.mem.slice_mut2(crow, brow);
                    for j in 0..nn {
                        cs[j] += a_part * bs[j];
                    }
                }
                // Timing: stream B (read), C (read-modify-write), plus the
                // multiply-add and loop bookkeeping per element.
                m.scalar_stream(brow.base, nn, AccessKind::Read);
                m.scalar_stream(crow.base, nn, AccessKind::Write);
                m.charge_scalar_flops(2 * nn as u64);
                m.charge_scalar_ops(nn as u64); // index + branch overhead
            }
        }
    });
}

/// Fig. 2 — the optimized 3-loop implementation: the j loop advances by the
/// granted vector length, the i loop is unrolled over independent C-row
/// accumulators (reordered so each loaded B vector is reused `unroll`
/// times), and the inner body is a broadcast-free `vfmacc.vf`.
pub fn gemm_opt3(
    m: &mut Machine,
    mm: usize,
    nn: usize,
    kk: usize,
    alpha: f32,
    a: Buf,
    b: Buf,
    c: Buf,
    unroll: usize,
) {
    assert!(unroll >= 1, "unroll factor must be at least 1");
    m.phase(KernelPhase::Gemm, |m| {
        let mut j = 0;
        while j < nn {
            let gvl = m.setvl(nn - j);
            let mut i = 0;
            while i < mm {
                let u = unroll.min(mm - i);
                let in_regs = u.min(AVAIL_ACC);
                // Load C rows into the accumulators (Fig. 2 line 6).
                for r in 0..in_regs {
                    m.vle(VACC0 + r, c.addr((i + r) * nn + j), gvl);
                }
                for k in 0..kk {
                    m.charge_scalar_ops(1); // k-loop bookkeeping
                    m.vle(VB, b.addr(k * nn + j), gvl);
                    // The unrolled row update (Fig. 2 ll. 9-11) is one
                    // machine op; it skips the multiplication when
                    // ALPHA=1, as Fig. 2 does.
                    let a_col = a.addr(i * kk + k);
                    m.vfmacc_vf_rows(VACC0, a_col, 4 * kk as u64, in_regs, alpha, VB, gvl);
                    for r in in_regs..u {
                        // Register spill: the surplus row lives in memory.
                        let a_val = spill_scalar(m, a.addr((i + r) * kk + k), alpha);
                        m.note_spill();
                        m.vle(VTMP, c.addr((i + r) * nn + j), gvl);
                        m.vfmacc_vf(VTMP, a_val, VB, gvl);
                        m.vse(VTMP, c.addr((i + r) * nn + j), gvl);
                    }
                }
                // Store C rows (Fig. 2 line 13).
                for r in 0..in_regs {
                    m.vse(VACC0 + r, c.addr((i + r) * nn + j), gvl);
                }
                i += u;
            }
            j += gvl;
        }
    });
}

/// Fig. 3 — the BLIS-like 6-loop implementation: `blockN/blockK/blockM`
/// tiling, vectorized packing of the A and B blocks (contiguous inner-loop
/// streams), software prefetch of C into L1, of the packed blocks into L2,
/// and of the upcoming packed rows into L1, with the Fig. 2 micro-kernel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_opt6(
    m: &mut Machine,
    mm: usize,
    nn: usize,
    kk: usize,
    alpha: f32,
    a: Buf,
    b: Buf,
    c: Buf,
    unroll: usize,
    blocks: BlockSizes,
    ws: &GemmWorkspace,
) {
    assert!(unroll >= 1);
    let line = m.sys.line_bytes() as u64;
    // Prefetch distance in k iterations.
    const PF_DIST: usize = 4;
    let mut j1 = 0;
    while j1 < nn {
        let nb = blocks.n.min(nn - j1);
        let mut k1 = 0;
        while k1 < kk {
            let kb = blocks.k.min(kk - k1);
            // Pack B block: rows k1..k1+kb, cols j1..j1+nb (Fig. 3 line 5).
            m.phase(KernelPhase::Pack, |m| {
                for kr in 0..kb {
                    copy_row_vec(m, b, (k1 + kr) * nn + j1, ws.b_pack, kr * nb, nb);
                }
            });
            let mut i1 = 0;
            while i1 < mm {
                let mb = blocks.m.min(mm - i1);
                // Pack A block: rows i1..i1+mb, cols k1..k1+kb (line 7).
                m.phase(KernelPhase::Pack, |m| {
                    for ir in 0..mb {
                        copy_row_vec(m, a, (i1 + ir) * kk + k1, ws.a_pack, ir * kb, kb);
                    }
                });
                // Inner kernel on the packed block.
                m.phase(KernelPhase::Gemm, |m| {
                    let mut j = 0;
                    while j < nb {
                        let gvl = m.setvl(nb - j);
                        let mut i = 0;
                        while i < mb {
                            let u = unroll.min(mb - i);
                            let in_regs = u.min(AVAIL_ACC);
                            // Prefetch the C block into L1 (line 11) and the
                            // packed blocks into L2 (lines 12-13).
                            for r in 0..u {
                                let row = c.addr((i1 + i + r) * nn + j1 + j);
                                let mut p = row;
                                while p < row + 4 * gvl as u64 {
                                    m.prefetch(p, PrefetchTarget::L1);
                                    p += line;
                                }
                            }
                            m.prefetch(ws.a_pack.addr(i * kb), PrefetchTarget::L2);
                            m.prefetch(ws.b_pack.addr(j), PrefetchTarget::L2);
                            // Load C (line 14).
                            for r in 0..in_regs {
                                m.vle(VACC0 + r, c.addr((i1 + i + r) * nn + j1 + j), gvl);
                            }
                            for k in 0..kb {
                                m.charge_scalar_ops(1);
                                // Prefetch upcoming packed rows into L1
                                // (lines 16-17).
                                if k + PF_DIST < kb {
                                    m.prefetch(
                                        ws.b_pack.addr((k + PF_DIST) * nb + j),
                                        PrefetchTarget::L1,
                                    );
                                    m.prefetch(
                                        ws.a_pack.addr(i * kb + k + PF_DIST),
                                        PrefetchTarget::L1,
                                    );
                                }
                                m.vle(VB, ws.b_pack.addr(k * nb + j), gvl);
                                let a_col = ws.a_pack.addr(i * kb + k);
                                let a_stride = 4 * kb as u64;
                                m.vfmacc_vf_rows(VACC0, a_col, a_stride, in_regs, alpha, VB, gvl);
                                for r in in_regs..u {
                                    let a_pack = ws.a_pack.addr((i + r) * kb + k);
                                    let a_val = spill_scalar(m, a_pack, alpha);
                                    let c_row = c.addr((i1 + i + r) * nn + j1 + j);
                                    m.note_spill();
                                    m.vle(VTMP, c_row, gvl);
                                    m.vfmacc_vf(VTMP, a_val, VB, gvl);
                                    m.vse(VTMP, c_row, gvl);
                                }
                            }
                            // Store C (line 23).
                            for r in 0..in_regs {
                                m.vse(VACC0 + r, c.addr((i1 + i + r) * nn + j1 + j), gvl);
                            }
                            i += u;
                        }
                        j += gvl;
                    }
                });
                i1 += mb;
            }
            k1 += kb;
        }
        j1 += nb;
    }
}

/// The A scalar of a spilled row (`r >= AVAIL_ACC`, past the row update),
/// scaled by `alpha` unless it is 1, with the same charges the row update
/// makes per row.
fn spill_scalar(m: &mut Machine, addr: u64, alpha: f32) -> f32 {
    let a_val = m.scalar_read(addr);
    if alpha == 1.0 {
        return a_val;
    }
    m.charge_scalar_flops(1);
    a_val * alpha
}

/// Vectorized row copy used by the packing steps (`vle` + `vse` per chunk).
fn copy_row_vec(m: &mut Machine, src: Buf, src_off: usize, dst: Buf, dst_off: usize, n: usize) {
    let mut x = 0;
    while x < n {
        let gvl = m.setvl(n - x);
        m.vle(VTMP, src.addr(src_off + x), gvl);
        m.vse(VTMP, dst.addr(dst_off + x), gvl);
        x += gvl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gemm_ref;
    use lva_isa::MachineConfig;
    use lva_tensor::{approx_eq, host_random, Matrix};

    fn machine(vlen: usize) -> Machine {
        Machine::new(MachineConfig::rvv_gem5(vlen, 8, 1 << 20))
    }

    /// Run a variant and compare against the host reference.
    fn check_variant(
        variant: GemmVariant,
        mm: usize,
        nn: usize,
        kk: usize,
        alpha: f32,
        vlen: usize,
    ) {
        let mut m = machine(vlen);
        let a = Matrix::random(&mut m, mm, kk, 1);
        let b = Matrix::random(&mut m, kk, nn, 2);
        let c0 = host_random(mm * nn, 3);
        let c = Matrix::from_host(&mut m, mm, nn, &c0);
        let ws = match variant {
            GemmVariant::Opt6 { blocks, .. } => Some(GemmWorkspace::alloc(&mut m, blocks)),
            _ => None,
        };
        gemm(&mut m, variant, mm, nn, kk, alpha, a.buf, b.buf, c.buf, ws.as_ref());
        let mut want = c0;
        gemm_ref(mm, nn, kk, alpha, &a.to_host(&m), &b.to_host(&m), &mut want);
        assert!(
            approx_eq(&c.to_host(&m), &want, 1e-4, 1e-5),
            "{} mismatch at M={mm} N={nn} K={kk}",
            variant.name()
        );
    }

    #[test]
    fn naive_matches_reference() {
        check_variant(GemmVariant::Naive, 5, 33, 7, 1.0, 512);
        check_variant(GemmVariant::Naive, 1, 1, 1, 2.0, 512);
    }

    #[test]
    fn opt3_matches_reference_various_shapes() {
        for &(mm, nn, kk) in &[(4, 16, 8), (17, 100, 27), (1, 5, 3), (32, 64, 16)] {
            check_variant(GemmVariant::opt3(), mm, nn, kk, 1.0, 512);
        }
    }

    #[test]
    fn opt3_alpha_not_one() {
        check_variant(GemmVariant::Opt3 { unroll: 4 }, 9, 31, 11, 0.5, 512);
    }

    #[test]
    fn opt3_long_vectors() {
        check_variant(GemmVariant::opt3(), 8, 300, 12, 1.0, 4096);
    }

    #[test]
    fn opt3_spilling_unroll_is_correct_and_slower() {
        let run = |unroll: usize| {
            let mut m = machine(1024);
            let (mm, nn, kk) = (32, 128, 32);
            let a = Matrix::random(&mut m, mm, kk, 1);
            let b = Matrix::random(&mut m, kk, nn, 2);
            let c = Matrix::alloc(&mut m, mm, nn);
            gemm_opt3(&mut m, mm, nn, kk, 1.0, a.buf, b.buf, c.buf, unroll);
            let mut want = vec![0.0; mm * nn];
            gemm_ref(mm, nn, kk, 1.0, &a.to_host(&m), &b.to_host(&m), &mut want);
            assert!(approx_eq(&c.to_host(&m), &want, 1e-4, 1e-5));
            (m.cycles(), m.stats.spills)
        };
        let (t16, s16) = run(16);
        let (t32, s32) = run(32);
        assert_eq!(s16, 0);
        assert!(s32 > 0, "unroll 32 must spill");
        assert!(t32 > t16, "spilling should cost cycles: {t32} vs {t16}");
    }

    #[test]
    fn opt6_matches_reference_with_ragged_blocks() {
        let blocks = BlockSizes { m: 8, n: 48, k: 16 };
        check_variant(GemmVariant::Opt6 { unroll: 4, blocks }, 19, 101, 37, 1.0, 512);
    }

    #[test]
    fn opt6_table2_best_matches_reference() {
        check_variant(GemmVariant::opt6(), 33, 600, 130, 1.0, 2048);
    }

    #[test]
    fn opt3_beats_naive_by_a_wide_margin() {
        let (mm, nn, kk) = (16, 256, 64);
        let run = |variant: GemmVariant| {
            let mut m = machine(2048);
            let a = Matrix::random(&mut m, mm, kk, 1);
            let b = Matrix::random(&mut m, kk, nn, 2);
            let c = Matrix::alloc(&mut m, mm, nn);
            gemm(&mut m, variant, mm, nn, kk, 1.0, a.buf, b.buf, c.buf, None);
            m.cycles()
        };
        let naive = run(GemmVariant::Naive);
        let opt3 = run(GemmVariant::opt3());
        assert!(naive > 5 * opt3, "vectorization should win big: naive={naive} opt3={opt3}");
    }

    #[test]
    fn unrolling_helps_opt3() {
        let run = |unroll: usize| {
            let mut m = machine(2048);
            let (mm, nn, kk) = (32, 256, 64);
            let a = Matrix::random(&mut m, mm, kk, 1);
            let b = Matrix::random(&mut m, kk, nn, 2);
            let c = Matrix::alloc(&mut m, mm, nn);
            gemm_opt3(&mut m, mm, nn, kk, 1.0, a.buf, b.buf, c.buf, unroll);
            m.cycles()
        };
        let u1 = run(1);
        let u16 = run(16);
        assert!(u16 < u1, "unroll 16 ({u16}) should beat unroll 1 ({u1})");
    }

    #[test]
    fn flops_accounting() {
        let mut m = machine(512);
        let (mm, nn, kk) = (4, 32, 8);
        let a = Matrix::random(&mut m, mm, kk, 1);
        let b = Matrix::random(&mut m, kk, nn, 2);
        let c = Matrix::alloc(&mut m, mm, nn);
        gemm_opt3(&mut m, mm, nn, kk, 1.0, a.buf, b.buf, c.buf, 4);
        assert_eq!(m.stats.vec_flops, (2 * mm * nn * kk) as u64);
    }
}
