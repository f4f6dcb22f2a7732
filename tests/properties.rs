//! Randomized property tests over the whole stack: the optimized kernels
//! must agree with the scalar references for *arbitrary* shapes, vector
//! lengths and strides, not just the sizes the paper uses. Inputs are drawn
//! from the workspace's deterministic [`lva_sim::Rng`], so every run checks
//! the same cases and failures reproduce exactly.

use longvec_cnn::kernels::gemm::{gemm, GemmWorkspace};
use longvec_cnn::kernels::im2col::im2col_vec;
use longvec_cnn::kernels::reference::{conv_direct_ref, gemm_ref, im2col_ref};
use longvec_cnn::prelude::*;
use longvec_cnn::winograd::winograd_conv_vla;
use lva_sim::Rng;

/// Every GEMM variant equals the reference for arbitrary M, N, K and VL.
#[test]
fn gemm_variants_match_reference() {
    let mut rng = Rng::new(0x6e);
    for case in 0..24 {
        let mm = rng.gen_index(1, 24);
        let nn = rng.gen_index(1, 80);
        let kk = rng.gen_index(1, 40);
        let vlen = 32usize << rng.gen_range(4, 9); // 512..16384 bits
        let seed = rng.gen_range(0, 1000);
        let mut m = Machine::new(MachineConfig::rvv_gem5(vlen, 8, 1 << 20));
        let a = Matrix::random(&mut m, mm, kk, seed);
        let b = Matrix::random(&mut m, kk, nn, seed + 1);
        let c0 = host_random(mm * nn, seed + 2);
        let c = Matrix::from_host(&mut m, mm, nn, &c0);
        let variant = match case % 3 {
            0 => GemmVariant::Naive,
            1 => GemmVariant::Opt3 { unroll: 1 + (seed % 20) as usize },
            _ => GemmVariant::Opt6 {
                unroll: 1 + (seed % 18) as usize,
                blocks: BlockSizes { m: 8, n: 32, k: 8 },
            },
        };
        let ws = match variant {
            GemmVariant::Opt6 { blocks, .. } => Some(GemmWorkspace::alloc(&mut m, blocks)),
            _ => None,
        };
        gemm(&mut m, variant, mm, nn, kk, 1.0, a.buf, b.buf, c.buf, ws.as_ref());
        let mut want = c0;
        gemm_ref(mm, nn, kk, 1.0, &a.to_host(&m), &b.to_host(&m), &mut want);
        assert!(
            approx_eq(&c.to_host(&m), &want, 1e-3, 1e-4),
            "gemm {variant:?} mismatch for {mm}x{nn}x{kk} at vlen {vlen}"
        );
    }
}

/// Vectorized im2col equals the reference for arbitrary geometry.
#[test]
fn im2col_matches_reference() {
    let mut rng = Rng::new(0x12c);
    let mut cases = 0;
    while cases < 24 {
        let in_c = rng.gen_index(1, 5);
        let in_h = rng.gen_index(3, 16);
        let in_w = rng.gen_index(3, 16);
        let k = rng.gen_index(1, 4).min(in_h).min(in_w);
        let stride = rng.gen_index(1, 3);
        let pad = if rng.gen_bool(0.5) { 0 } else { k / 2 };
        let seed = rng.gen_range(0, 1000);
        let p = ConvParams { in_c, in_h, in_w, out_c: 1, k, stride, pad };
        let (oh, ow) = p.out_hw();
        if oh == 0 || ow == 0 {
            continue;
        }
        cases += 1;
        let mut m = Machine::new(MachineConfig::rvv_gem5(1024, 8, 1 << 20));
        let img = Tensor::random(&mut m, Shape::new(in_c, in_h, in_w), seed);
        let col = m.mem.alloc(in_c * k * k * oh * ow);
        im2col_vec(&mut m, &p, &img, col);
        let want = im2col_ref(&p, &img.to_host(&m));
        assert_eq!(&m.mem.slice(col)[..want.len()], &want[..]);
    }
}

/// VLA Winograd equals direct convolution for arbitrary 3x3 layers.
#[test]
fn winograd_matches_direct() {
    let mut rng = Rng::new(0x816);
    let mut cases = 0;
    while cases < 24 {
        let in_c = rng.gen_index(1, 8);
        let out_c = rng.gen_index(1, 8);
        let hw = rng.gen_index(3, 20);
        let stride = rng.gen_index(1, 3);
        let seed = rng.gen_range(0, 1000);
        let p = ConvParams { in_c, in_h: hw, in_w: hw, out_c, k: 3, stride, pad: 1 };
        let (oh, ow) = p.out_hw();
        if oh == 0 || ow == 0 {
            continue;
        }
        cases += 1;
        let vlen = [512, 1024, 2048][rng.gen_index(0, 3)];
        let mut m = Machine::new(MachineConfig::sve_gem5(vlen, 1 << 20));
        let img = Tensor::random(&mut m, Shape::new(in_c, hw, hw), seed);
        let w = Matrix::random(&mut m, out_c, in_c * 9, seed + 1);
        let out = m.mem.alloc(out_c * oh * ow);
        let mut plan = WinogradPlan::new(&mut m, p, w.buf);
        winograd_conv_vla(&mut m, &mut plan, &img, out);
        let want = conv_direct_ref(&p, &img.to_host(&m), &w.to_host(&m));
        assert!(
            approx_eq(m.mem.slice(out), &want, 1e-2, 1e-2),
            "winograd mismatch for {p:?} at vlen {vlen}"
        );
    }
}

/// Cook-Toom transforms generated for arbitrary small F(m, r) satisfy
/// the convolution identity.
#[test]
fn cooktoom_identity_holds() {
    use longvec_cnn::winograd::{Rat, WinogradTransform};
    let mut rng = Rng::new(0xc007);
    for _ in 0..24 {
        let m_out = rng.gen_index(2, 7);
        let seed = rng.gen_range(0, 1000);
        // r = 3 with points 0, ±1, ±2, ±1/2, ±3 as needed.
        let pts = [
            Rat::int(0),
            Rat::int(1),
            Rat::int(-1),
            Rat::int(2),
            Rat::int(-2),
            Rat::new(1, 2),
            Rat::new(-1, 2),
            Rat::int(3),
        ];
        let n = m_out + 2;
        let t = WinogradTransform::generate(m_out, 3, &pts[..n - 1]);
        let d = host_random(n, seed);
        let g = host_random(3, seed + 1);
        let y = t.correlate_1d(&d, &g);
        for (i, yv) in y.iter().enumerate() {
            let want: f32 = (0..3).map(|k| g[k] * d[i + k]).sum();
            assert!((yv - want).abs() < 2e-2, "F({m_out},3) row {i}: {yv} vs {want}");
        }
    }
}

/// Timing sanity for arbitrary GEMMs: cycle counts are positive,
/// deterministic, and flops are exactly 2*M*N*K.
#[test]
fn gemm_timing_invariants() {
    let mut rng = Rng::new(0x717);
    for _ in 0..24 {
        let mm = rng.gen_index(1, 16);
        let nn = rng.gen_index(1, 64);
        let kk = rng.gen_index(1, 32);
        let seed = rng.gen_range(0, 100);
        let run = || {
            let mut m = Machine::new(MachineConfig::rvv_gem5(2048, 8, 1 << 20));
            let a = Matrix::random(&mut m, mm, kk, seed);
            let b = Matrix::random(&mut m, kk, nn, seed + 1);
            let c = Matrix::alloc(&mut m, mm, nn);
            gemm(&mut m, GemmVariant::opt3(), mm, nn, kk, 1.0, a.buf, b.buf, c.buf, None);
            (m.cycles(), m.stats.vec_flops)
        };
        let (t1, f1) = run();
        let (t2, f2) = run();
        assert_eq!(t1, t2);
        assert_eq!(f1, f2);
        assert!(t1 > 0);
        assert_eq!(f1, 2 * (mm * nn * kk) as u64);
    }
}
