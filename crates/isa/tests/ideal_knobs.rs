//! Pinning the `IdealSpec` counterfactual knobs (`lva-whatif`).
//!
//! The knobs must be **timing-only**: under any spec, functional state
//! (registers, memory), cache state transitions and statistics, and recorded
//! event streams are bit-identical to the factual machine; only cycle counts
//! may change, and only downward (every idealization is cycle-monotone).
//! With all knobs off, cycle counts, `VpuStats`, `StallBreakdown` and cache
//! statistics are bit-identical to a machine built before the knobs existed
//! — the same contract `set_reference_model` pins for the fast paths.
//!
//! Driven by seeded SplitMix64 op streams across the four Table II design
//! points plus the A64FX profile (hardware prefetcher + miss-overlap ring).

use lva_isa::{Buf, IdealKnob, IdealSpec, Machine, MachineConfig, PrefetchTarget};
use lva_sim::Rng;

/// Table II design points (RVV decoupled / SVE through-L1 at two L2 sizes)
/// plus A64FX for the prefetcher and out-of-order paths.
fn design_points() -> Vec<(String, MachineConfig)> {
    let mut out = Vec::new();
    for l2 in [1usize << 20, 4 << 20] {
        out.push((format!("rvv/2048b/L2={}MB", l2 >> 20), MachineConfig::rvv_gem5(2048, 8, l2)));
        out.push((format!("sve/512b/L2={}MB", l2 >> 20), MachineConfig::sve_gem5(512, l2)));
    }
    out.push(("a64fx".to_string(), MachineConfig::a64fx()));
    out
}

/// Working set larger than the L1 so streams exercise misses and writebacks.
const ARENA_WORDS: usize = 1 << 15;
const USED_REGS: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Vle { vd: usize, off: usize, vl: usize },
    Vse { vs: usize, off: usize, vl: usize },
    Vlse { vd: usize, off: usize, stride: u64, vl: usize },
    Gather { vd: usize, idx: Vec<u32> },
    Fma { vd: usize, a: f32, vs: usize, vl: usize },
    Redsum { vs: usize, vl: usize },
    Div { vd: usize, va: usize, vb: usize, vl: usize },
    ScalarRead { off: usize },
    ScalarWrite { off: usize, v: f32 },
    Prefetch { off: usize, target: PrefetchTarget },
}

fn random_indices(rng: &mut Rng, vl: usize) -> Vec<u32> {
    (0..vl)
        .map(|_| if rng.gen_bool(0.1) { u32::MAX } else { rng.gen_index(0, ARENA_WORDS) as u32 })
        .collect()
}

fn random_stream(rng: &mut Rng, max_vl: usize, ops: usize) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        let vl = rng.gen_index(1, max_vl + 1);
        let vd = rng.gen_index(0, USED_REGS);
        let vs = rng.gen_index(0, USED_REGS);
        out.push(match rng.gen_index(0, 10) {
            0 | 1 => Op::Vle { vd, off: rng.gen_index(0, ARENA_WORDS - vl + 1), vl },
            2 => Op::Vse { vs, off: rng.gen_index(0, ARENA_WORDS - vl + 1), vl },
            3 => {
                let stride_words = rng.gen_range(0, 9);
                let span = (vl - 1) * stride_words as usize + 1;
                Op::Vlse {
                    vd,
                    off: rng.gen_index(0, ARENA_WORDS - span + 1),
                    stride: 4 * stride_words,
                    vl,
                }
            }
            4 => Op::Gather { vd, idx: random_indices(rng, vl) },
            5 | 6 => {
                let vs = if vs == vd { (vs + 1) % USED_REGS } else { vs };
                Op::Fma { vd, a: rng.next_f32_signed(), vs, vl }
            }
            7 => {
                if rng.gen_bool(0.5) {
                    Op::Redsum { vs, vl }
                } else {
                    let va = (vd + 1) % USED_REGS;
                    let vb = (vd + 2) % USED_REGS;
                    Op::Div { vd, va, vb, vl }
                }
            }
            8 => Op::Prefetch {
                off: rng.gen_index(0, ARENA_WORDS),
                target: if rng.gen_bool(0.5) { PrefetchTarget::L1 } else { PrefetchTarget::L2 },
            },
            _ => {
                if rng.gen_bool(0.5) {
                    Op::ScalarRead { off: rng.gen_index(0, ARENA_WORDS) }
                } else {
                    Op::ScalarWrite { off: rng.gen_index(0, ARENA_WORDS), v: rng.next_f32_signed() }
                }
            }
        });
    }
    out
}

fn machine_with_arena(cfg: &MachineConfig, seed: u64) -> (Machine, Buf) {
    let mut m = Machine::new(cfg.clone());
    let buf = m.mem.alloc(ARENA_WORDS);
    let data = Rng::new(seed).f32_vec(ARENA_WORDS);
    m.mem.slice_mut(buf).copy_from_slice(&data);
    (m, buf)
}

fn apply(m: &mut Machine, buf: Buf, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Vle { vd, off, vl } => m.vle(*vd, buf.addr(*off), *vl),
            Op::Vse { vs, off, vl } => m.vse(*vs, buf.addr(*off), *vl),
            Op::Vlse { vd, off, stride, vl } => m.vlse(*vd, buf.addr(*off), *stride, *vl),
            Op::Gather { vd, idx } => m.vgather(*vd, buf.addr(0), idx, idx.len()),
            Op::Fma { vd, a, vs, vl } => m.vfmacc_vf(*vd, *a, *vs, *vl),
            Op::Redsum { vs, vl } => {
                let _ = m.vfredsum(*vs, *vl);
            }
            Op::Div { vd, va, vb, vl } => {
                // Guard against 0/0 NaN asymmetries: fill vb deterministically.
                m.vbroadcast(*vb, 1.5, *vl);
                m.vfdiv_vv(*vd, *va, *vb, *vl);
            }
            Op::ScalarRead { off } => {
                let _ = m.scalar_read(buf.addr(*off));
            }
            Op::ScalarWrite { off, v } => m.scalar_write(buf.addr(*off), *v),
            Op::Prefetch { off, target } => m.prefetch(buf.addr(*off), *target),
        }
    }
}

fn assert_functional_identical(ideal: &Machine, factual: &Machine, buf: Buf, what: &str) {
    assert_eq!(ideal.stats, factual.stats, "{what}: VpuStats diverged");
    assert_eq!(ideal.sys.stats(), factual.sys.stats(), "{what}: cache statistics diverged");
    for r in 0..USED_REGS {
        let (a, b) = (ideal.vreg(r), factual.vreg(r));
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{what}: register v{r} contents diverged"
        );
    }
    let (a, b) = (ideal.mem.slice(buf), factual.mem.slice(buf));
    assert!(
        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: memory contents diverged"
    );
}

/// With all knobs off, a machine routed through `set_ideal` is bit-identical
/// to the plain fast-path machine on every observable, including cycles and
/// stall attribution.
#[test]
fn knobs_off_is_bit_identical_to_fast_path() {
    for (name, cfg) in design_points() {
        for seed in [1u64, 0xBEEF, 0x5EED_CAFE] {
            let max_vl = cfg.vpu.vlen_elems();
            let ops = random_stream(&mut Rng::new(seed), max_vl, 300);
            let (mut plain, buf) = machine_with_arena(&cfg, seed);
            let (mut off, _) = machine_with_arena(&cfg, seed);
            off.set_ideal(IdealSpec::NONE);
            assert!(!off.ideal().any());
            apply(&mut plain, buf, &ops);
            apply(&mut off, buf, &ops);
            let what = format!("{name} seed={seed:#x}");
            assert_eq!(off.cycles(), plain.cycles(), "{what}: cycle count diverged");
            assert_eq!(off.stalls, plain.stalls, "{what}: stall attribution diverged");
            assert_functional_identical(&off, &plain, buf, &what);
        }
    }
}

/// Under ANY knob (each single knob and all of them at once), functional
/// state, cache statistics, and the whole captured trace stay bit-identical
/// to the factual run, and cycles never increase. All-on is at least as fast
/// as every single knob (the clamps compose componentwise).
#[test]
fn every_knob_is_timing_only_and_cycle_monotone() {
    let all_on = IdealSpec {
        perfect_l1: true,
        perfect_l2: true,
        zero_vector_startup: true,
        infinite_lanes: true,
        infinite_issue: true,
    };
    for (name, cfg) in design_points() {
        for seed in [7u64, 0xF00D] {
            let max_vl = cfg.vpu.vlen_elems();
            let ops = random_stream(&mut Rng::new(seed), max_vl, 300);
            let run = |spec: IdealSpec| {
                let (mut m, buf) = machine_with_arena(&cfg, seed);
                m.set_ideal(spec);
                m.start_capture();
                apply(&mut m, buf, &ops);
                (m, buf)
            };
            let (mut factual, buf) = run(IdealSpec::NONE);
            let factual_trace = factual.finish_capture().expect("capture was started");
            let mut single_cycles = Vec::new();
            for knob in IdealKnob::ALL {
                let (mut m, _) = run(knob.spec());
                let what = format!("{name} seed={seed:#x} +{}", knob.name());
                let trace = m.finish_capture().expect("capture was started");
                assert_eq!(trace, factual_trace, "{what}: captured trace diverged");
                assert_functional_identical(&m, &factual, buf, &what);
                assert!(
                    m.cycles() <= factual.cycles(),
                    "{what}: idealization increased cycles ({} > {})",
                    m.cycles(),
                    factual.cycles()
                );
                assert_eq!(
                    m.stalls.attributed(),
                    m.stalls.total(),
                    "{what}: stall attribution no longer sums to total"
                );
                single_cycles.push(m.cycles());
            }
            let (all, _) = run(all_on);
            let what = format!("{name} seed={seed:#x} all-on");
            assert_functional_identical(&all, &factual, buf, &what);
            for (knob, &c) in IdealKnob::ALL.iter().zip(&single_cycles) {
                assert!(
                    all.cycles() <= c,
                    "{what}: slower than single knob +{} ({} > {c})",
                    knob.name(),
                    all.cycles()
                );
            }
        }
    }
}

/// The reference (per-element) model honours the knobs exactly like the fast
/// path: equivalence holds under idealization too.
#[test]
fn reference_model_agrees_under_knobs() {
    for (name, cfg) in design_points() {
        let seed = 0x1DEA;
        let max_vl = cfg.vpu.vlen_elems();
        let ops = random_stream(&mut Rng::new(seed), max_vl, 200);
        for knob in IdealKnob::ALL {
            let run = |reference: bool| {
                let (mut m, buf) = machine_with_arena(&cfg, seed);
                m.set_reference_model(reference);
                m.set_ideal(knob.spec());
                apply(&mut m, buf, &ops);
                (m, buf)
            };
            let (fast, buf) = run(false);
            let (reference, _) = run(true);
            let what = format!("{name} +{}", knob.name());
            assert_eq!(fast.cycles(), reference.cycles(), "{what}: cycle count diverged");
            assert_eq!(fast.stalls, reference.stalls, "{what}: stall attribution diverged");
            assert_functional_identical(&fast, &reference, buf, &what);
        }
    }
}
