//! The GEMM micro-kernel's row update, `Machine::vfmacc_vf_rows`, is one
//! op for what the kernels used to issue per row: a scalar read of A, a
//! scalar-flop charge when `alpha ≠ 1`, and a `vfmacc.vf` into the row's
//! accumulator. Driven side by side with those separate calls over seeded
//! streams, it must leave every observable identical: cycles, stall
//! attribution, VPU and memory-system statistics, the phase timer,
//! registers and arena, the pipeline-interval events, and the vector
//! events decoded from the capture.

use lva_isa::{Buf, KernelPhase, Machine, MachineConfig, PipeEvent, VecEvent, NUM_VREGS};
use lva_sim::Rng;

/// Working set larger than the L1, so A reads and B loads miss.
const ARENA_WORDS: usize = 1 << 16;

/// One row update: `rows` accumulators from `acc0`, A scalars every
/// `stride` words from word `off`, times `vs` at vector length `vl`.
#[derive(Debug, Clone, Copy)]
struct Update {
    acc0: usize,
    off: usize,
    stride: usize,
    rows: usize,
    alpha: f32,
    vs: usize,
    vl: usize,
}

/// Every row count from 1 to 30 with `alpha` 1 and 0.5, in seeded order,
/// each with a random accumulator base, source register, stride and `vl`.
fn updates(rng: &mut Rng, max_vl: usize) -> Vec<Update> {
    let mut out = Vec::new();
    for rows in 1..=30 {
        for alpha in [1.0, 0.5] {
            let vs = rng.gen_index(0, 2);
            let acc0 = rng.gen_index(2, NUM_VREGS - rows + 1);
            let stride = match rng.gen_index(0, 3) {
                0 => 0,
                1 => rng.gen_index(1, 17),
                _ => rng.gen_index(17, 1025),
            };
            let off = rng.gen_index(0, ARENA_WORDS - (rows - 1) * stride);
            let vl = rng.gen_index(1, max_vl + 1);
            out.push(Update { acc0, off, stride, rows, alpha, vs, vl });
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_index(0, i + 1));
    }
    out
}

/// The calls the row update stands for, as the GEMM kernels made them.
fn separate(m: &mut Machine, buf: Buf, u: &Update) {
    for r in 0..u.rows {
        let mut a = m.scalar_read(buf.addr(u.off + r * u.stride));
        if u.alpha != 1.0 {
            a *= u.alpha;
            m.charge_scalar_flops(1);
        }
        m.vfmacc_vf(u.acc0 + r, a, u.vs, u.vl);
    }
}

fn fused(m: &mut Machine, buf: Buf, u: &Update) {
    let stride = 4 * u.stride as u64;
    m.vfmacc_vf_rows(u.acc0, buf.addr(u.off), stride, u.rows, u.alpha, u.vs, u.vl);
}

/// Everything one run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    cycles: u64,
    stalls: lva_isa::StallBreakdown,
    vpu: lva_isa::VpuStats,
    mem: lva_sim::MemSystemStats,
    phases: lva_isa::PhaseTimer,
    regs: Vec<Vec<f32>>,
    arena: Vec<f32>,
    pipe: Vec<PipeEvent>,
    events: Vec<VecEvent>,
}

/// Each update reloads its source vector and runs inside a GEMM phase;
/// every third one stores an accumulator back, so later reads see it.
fn run(cfg: &MachineConfig, seed: u64, update: fn(&mut Machine, Buf, &Update)) -> Outcome {
    let mut m = Machine::new(cfg.clone());
    let buf = m.mem.alloc(ARENA_WORDS);
    let data = Rng::new(seed).f32_vec(ARENA_WORDS);
    m.mem.slice_mut(buf).copy_from_slice(&data);
    m.start_capture();
    m.record_pipe_events();
    let mut rng = Rng::new(seed ^ 0x5eed);
    for (i, u) in updates(&mut rng, m.vlen_elems()).iter().enumerate() {
        m.vle(u.vs, buf.addr(rng.gen_index(0, ARENA_WORDS - u.vl + 1)), u.vl);
        m.phase(KernelPhase::Gemm, |m| update(m, buf, u));
        if i % 3 == 0 {
            m.vse(u.acc0, buf.addr(rng.gen_index(0, ARENA_WORDS - u.vl + 1)), u.vl);
        }
    }
    let trace = m.finish_capture().expect("capture was started");
    Outcome {
        cycles: m.cycles(),
        stalls: m.stalls,
        vpu: m.stats,
        mem: m.sys.stats(),
        phases: m.phases.clone(),
        regs: (0..NUM_VREGS).map(|r| m.vreg(r).to_vec()).collect(),
        arena: m.mem.slice(buf).to_vec(),
        pipe: m.take_pipe_events(),
        events: trace.vec_events(m.vlen_elems()),
    }
}

#[test]
fn row_update_equals_the_separate_calls() {
    for (name, cfg) in [
        ("rvv/2048b", MachineConfig::rvv_gem5(2048, 8, 1 << 20)),
        ("sve/512b", MachineConfig::sve_gem5(512, 1 << 20)),
        ("a64fx", MachineConfig::a64fx()),
    ] {
        for seed in [5u64, 0xBEEF] {
            let want = run(&cfg, seed, separate);
            let got = run(&cfg, seed, fused);
            assert!(want.pipe.iter().any(|e| matches!(e, PipeEvent::Stall { .. })));
            assert!(want.vpu.scalar_flops > 0, "{name}: no update was scaled");
            assert_eq!(got, want, "{name} seed={seed:#x}");
        }
    }
}

/// The GEMM k loop: the next update lands on the same accumulators while
/// the last one's FMAs may still be in flight, so each row's `vfmacc.vf`
/// must wait on its accumulator as the separate call does.
fn separate_twice(m: &mut Machine, buf: Buf, u: &Update) {
    separate(m, buf, u);
    separate(m, buf, u);
}

fn fused_twice(m: &mut Machine, buf: Buf, u: &Update) {
    fused(m, buf, u);
    fused(m, buf, u);
}

#[test]
fn back_to_back_row_updates_wait_on_their_accumulators() {
    for cfg in [
        MachineConfig::rvv_gem5(2048, 8, 1 << 20),
        MachineConfig::sve_gem5(512, 1 << 20),
        MachineConfig::a64fx(),
    ] {
        let want = run(&cfg, 7, separate_twice);
        assert_eq!(run(&cfg, 7, fused_twice), want, "{:?}", cfg.vpu.isa);
    }
}

#[test]
#[should_panic(expected = "vfmacc_vf_rows")]
fn row_update_reading_past_the_arena_names_the_op() {
    let mut m = Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20));
    let a = m.mem.alloc_named("a_pack", 64);
    // Rows 0..3 read words 0, 22 and 44; row 3 reads word 66, past the end.
    m.vfmacc_vf_rows(2, a.addr(0), 4 * 22, 4, 1.0, 0, 16);
}
