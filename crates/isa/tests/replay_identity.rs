//! Capture-vs-replay bit-identity at the machine level.
//!
//! The `lva-retime` engine rests on one invariant: re-executing a captured
//! semantic trace through [`Machine::replay`] reproduces **every** timing
//! observable — cycles, stall attribution, VPU statistics, kernel-phase
//! timer, per-layer deltas and cache counters — bit-identically to the full
//! simulation that produced the trace, in both replay modes:
//!
//! * **live replay**: the recorded addresses drive a real memory hierarchy,
//!   valid at any design point (tested here across L2 sizes);
//! * **tape refit**: probes read serving levels from the capture's probe
//!   tape, valid at any config with the same state geometry (tested here
//!   across `IdealSpec` knobs, which change latencies but not state).
//!
//! Streams are randomized (seeded SplitMix64) over the full public op
//! surface including phases, layer markers, predication, reductions, scalar
//! charges, GEMM row updates and `reset_timing` segment boundaries.

use lva_isa::replay::{ProbeTape, ReplayTrace, SegmentReplay, TapeSegment};
use lva_isa::{
    Buf, IdealKnob, KernelPhase, Machine, MachineConfig, PrefetchTarget, ReplayCursor, ReplayOp,
    NUM_VREGS,
};
use lva_sim::{AccessKind, Rng};

/// Working-set size in `f32` words: larger than the L1 so the stream
/// exercises misses, fills, writebacks and the prefetchers, and long enough
/// for scalar streams past the inline `u16` word count of a replay op.
const ARENA_WORDS: usize = 1 << 17;

/// Scalar streams of more words than this are recorded in the trace's pool.
const INLINE_STREAM_WORDS: usize = u16::MAX as usize;

/// Vector registers the generated streams read and write.
const USED_REGS: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Setvl { rvl: usize },
    Whilelt { i: usize, n: usize },
    Vle { vd: usize, off: usize, vl: usize },
    Vse { vs: usize, off: usize, vl: usize },
    Vlse { vd: usize, off: usize, stride: u64, vl: usize },
    Vsse { vs: usize, off: usize, stride: u64, vl: usize },
    Gather { vd: usize, idx: Vec<u32>, grouped: bool },
    Scatter { vs: usize, idx: Vec<u32>, grouped: bool },
    Fma { vd: usize, a: f32, vs: usize, vl: usize },
    FmaRows { acc0: usize, off: usize, stride: usize, rows: usize, a: f32, vs: usize, vl: usize },
    FmaVv { vd: usize, va: usize, vb: usize, vl: usize },
    Mul { vd: usize, vs: usize, a: f32, vl: usize },
    Max { vd: usize, va: usize, vb: usize, vl: usize },
    Div { vd: usize, va: usize, vb: usize, vl: usize },
    Broadcast { vd: usize, x: f32, vl: usize },
    RedSum { vs: usize, vl: usize },
    RedMax { vs: usize, vl: usize },
    ScalarOps { n: u64 },
    ScalarFlops { n: u64 },
    ScalarRead { off: usize },
    ScalarWrite { off: usize, v: f32 },
    ScalarStream { off: usize, words: usize, write: bool },
    Prefetch { off: usize, target: PrefetchTarget },
    Spill,
}

fn random_indices(rng: &mut Rng, vl: usize) -> Vec<u32> {
    let mut idx = Vec::with_capacity(vl);
    while idx.len() < vl {
        if rng.gen_bool(0.1) {
            idx.push(u32::MAX);
        } else {
            idx.push(rng.gen_index(0, ARENA_WORDS) as u32);
        }
    }
    idx
}

fn random_stream(rng: &mut Rng, max_vl: usize, ops: usize) -> Vec<Op> {
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        let vl = rng.gen_index(1, max_vl + 1);
        let vd = rng.gen_index(0, USED_REGS);
        let vs = rng.gen_index(0, USED_REGS);
        out.push(match rng.gen_index(0, 16) {
            0 => Op::Vle { vd, off: rng.gen_index(0, ARENA_WORDS - vl + 1), vl },
            1 => Op::Vse { vs, off: rng.gen_index(0, ARENA_WORDS - vl + 1), vl },
            2 => {
                let stride_words =
                    if rng.gen_bool(0.7) { rng.gen_range(0, 9) } else { rng.gen_range(9, 41) };
                let span = (vl - 1) * stride_words as usize + 1;
                let off = rng.gen_index(0, ARENA_WORDS - span + 1);
                let stride = 4 * stride_words;
                if rng.gen_bool(0.5) {
                    Op::Vlse { vd, off, stride, vl }
                } else {
                    Op::Vsse { vs, off, stride, vl }
                }
            }
            3 => Op::Gather { vd, idx: random_indices(rng, vl), grouped: rng.gen_bool(0.5) },
            4 => Op::Scatter { vs, idx: random_indices(rng, vl), grouped: rng.gen_bool(0.5) },
            5 if rng.gen_bool(0.5) => {
                let vs = if vs == vd { (vs + 1) % USED_REGS } else { vs };
                Op::Fma { vd, a: rng.next_f32_signed(), vs, vl }
            }
            5 => {
                // A row update: accumulators `acc0..acc0 + rows`, the source
                // just past them, A scalars `stride` words apart.
                let rows = rng.gen_index(1, 17);
                let acc0 = rng.gen_index(0, NUM_VREGS - rows + 1);
                let stride = if rng.gen_bool(0.5) { rng.gen_index(0, 9) } else { 1 + vl };
                let off = rng.gen_index(0, ARENA_WORDS - (rows - 1) * stride);
                let a = if rng.gen_bool(0.5) { 1.0 } else { rng.next_f32_signed() };
                let vs = (acc0 + rows) % NUM_VREGS;
                Op::FmaRows { acc0, off, stride, rows, a, vs, vl }
            }
            6 => {
                let va = (vd + 1) % USED_REGS;
                let vb = (vd + 2) % USED_REGS;
                Op::FmaVv { vd, va, vb, vl }
            }
            7 => Op::Mul { vd, vs, a: rng.next_f32_signed(), vl },
            8 => Op::Max { vd, va: vs, vb: (vs + 1) % USED_REGS, vl },
            9 => {
                // Keep divisor lanes away from zero-heavy registers: timing
                // is data-independent, this only avoids NaN noise in regs.
                Op::Div { vd, va: vs, vb: (vs + 3) % USED_REGS, vl }
            }
            10 => Op::Broadcast { vd, x: rng.next_f32_signed(), vl },
            11 => {
                if rng.gen_bool(0.5) {
                    Op::RedSum { vs, vl }
                } else {
                    Op::RedMax { vs, vl }
                }
            }
            12 => match rng.gen_index(0, 3) {
                0 => Op::Setvl { rvl: rng.gen_index(1, 4 * max_vl) },
                1 if rng.gen_bool(0.25) => {
                    // Past the end: an empty predicate (`n - i` saturates).
                    let n = rng.gen_index(0, 256);
                    Op::Whilelt { i: n + rng.gen_index(0, 64), n }
                }
                1 => Op::Whilelt { i: rng.gen_index(0, 64), n: rng.gen_index(64, 256) },
                _ => Op::Spill,
            },
            13 => {
                if rng.gen_bool(0.5) {
                    Op::ScalarOps { n: rng.gen_range(1, 64) }
                } else {
                    Op::ScalarFlops { n: rng.gen_range(1, 16) }
                }
            }
            14 => {
                let words = if rng.gen_bool(0.25) {
                    rng.gen_index(INLINE_STREAM_WORDS + 1, ARENA_WORDS)
                } else {
                    rng.gen_index(1, 512)
                };
                Op::ScalarStream {
                    off: rng.gen_index(0, ARENA_WORDS - words),
                    words,
                    write: rng.gen_bool(0.3),
                }
            }
            _ => match rng.gen_index(0, 3) {
                0 => Op::ScalarRead { off: rng.gen_index(0, ARENA_WORDS) },
                1 => {
                    Op::ScalarWrite { off: rng.gen_index(0, ARENA_WORDS), v: rng.next_f32_signed() }
                }
                _ => Op::Prefetch {
                    off: rng.gen_index(0, ARENA_WORDS),
                    target: if rng.gen_bool(0.5) { PrefetchTarget::L1 } else { PrefetchTarget::L2 },
                },
            },
        });
    }
    out
}

fn apply(m: &mut Machine, buf: Buf, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Setvl { rvl } => {
                let _ = m.setvl(*rvl);
            }
            Op::Whilelt { i, n } => {
                let _ = m.whilelt(*i, *n);
            }
            Op::Vle { vd, off, vl } => m.vle(*vd, buf.addr(*off), *vl),
            Op::Vse { vs, off, vl } => m.vse(*vs, buf.addr(*off), *vl),
            Op::Vlse { vd, off, stride, vl } => m.vlse(*vd, buf.addr(*off), *stride, *vl),
            Op::Vsse { vs, off, stride, vl } => m.vsse(*vs, buf.addr(*off), *stride, *vl),
            Op::Gather { vd, idx, grouped: false } => m.vgather(*vd, buf.addr(0), idx, idx.len()),
            Op::Gather { vd, idx, grouped: true } => m.vgather4(*vd, buf.addr(0), idx, idx.len()),
            Op::Scatter { vs, idx, grouped: false } => m.vscatter(*vs, buf.addr(0), idx, idx.len()),
            Op::Scatter { vs, idx, grouped: true } => m.vscatter4(*vs, buf.addr(0), idx, idx.len()),
            Op::Fma { vd, a, vs, vl } => m.vfmacc_vf(*vd, *a, *vs, *vl),
            &Op::FmaRows { acc0, off, stride, rows, a, vs, vl } => {
                m.vfmacc_vf_rows(acc0, buf.addr(off), 4 * stride as u64, rows, a, vs, vl);
            }
            Op::FmaVv { vd, va, vb, vl } => m.vfmacc_vv(*vd, *va, *vb, *vl),
            Op::Mul { vd, vs, a, vl } => m.vfmul_vf(*vd, *vs, *a, *vl),
            Op::Max { vd, va, vb, vl } => m.vfmax_vv(*vd, *va, *vb, *vl),
            Op::Div { vd, va, vb, vl } => {
                let (va, vb) = (*va, *vb);
                let (va, vb) = if va == *vd { ((va + 1) % USED_REGS, vb) } else { (va, vb) };
                let vb = if vb == *vd { (vb + 1) % USED_REGS } else { vb };
                let vb = if vb == va { (vb + 1) % USED_REGS } else { vb };
                if va != *vd && vb != *vd {
                    m.vfdiv_vv(*vd, va, vb, *vl);
                }
            }
            Op::Broadcast { vd, x, vl } => m.vbroadcast(*vd, *x, *vl),
            Op::RedSum { vs, vl } => {
                let _ = m.vfredsum(*vs, *vl);
            }
            Op::RedMax { vs, vl } => {
                let _ = m.vfredmax(*vs, *vl);
            }
            Op::ScalarOps { n } => m.charge_scalar_ops(*n),
            Op::ScalarFlops { n } => m.charge_scalar_flops(*n),
            Op::ScalarRead { off } => {
                let _ = m.scalar_read(buf.addr(*off));
            }
            Op::ScalarWrite { off, v } => m.scalar_write(buf.addr(*off), *v),
            Op::ScalarStream { off, words, write } => {
                let kind = if *write { AccessKind::Write } else { AccessKind::Read };
                m.scalar_stream(buf.addr(*off), *words, kind);
            }
            Op::Prefetch { off, target } => m.prefetch(buf.addr(*off), *target),
            Op::Spill => m.note_spill(),
        }
    }
}

/// Drive the full workload: a warmup segment, `reset_timing`, then two
/// "layers" wrapped in phases — the structure `lva-core` experiments have.
fn run_workload(m: &mut Machine, buf: Buf, seed: u64, max_vl: usize) {
    let mut rng = Rng::new(seed);
    let warmup = random_stream(&mut rng, max_vl, 60);
    apply(m, buf, &warmup);
    m.reset_timing();
    let body: Vec<Vec<Op>> = (0..2).map(|_| random_stream(&mut rng, max_vl, 220)).collect();
    for (i, ops) in body.iter().enumerate() {
        m.layer_begin(i, &format!("layer-{i}"));
        let (head, tail) = ops.split_at(ops.len() / 2);
        m.phase(KernelPhase::Gemm, |m| apply(m, buf, head));
        m.phase(KernelPhase::Activate, |m| apply(m, buf, tail));
        m.layer_end();
    }
}

/// Capture-run observables, collected identically from a live machine and
/// from a replay's final segment.
#[derive(Debug, PartialEq)]
struct Observables {
    cycles: u64,
    stalls: lva_isa::StallBreakdown,
    phases: lva_isa::PhaseTimer,
    vpu: lva_isa::VpuStats,
    mem: lva_sim::MemSystemStats,
}

fn observe(m: &Machine) -> Observables {
    Observables {
        cycles: m.cycles(),
        stalls: m.stalls,
        phases: m.phases.clone(),
        vpu: m.stats,
        mem: m.sys.stats(),
    }
}

fn observe_segment(seg: &SegmentReplay) -> Observables {
    Observables {
        cycles: seg.cycles,
        stalls: seg.stalls,
        phases: seg.phases.clone(),
        vpu: seg.vpu,
        mem: seg.mem,
    }
}

fn machine_with_arena(cfg: &MachineConfig, seed: u64) -> (Machine, Buf) {
    let mut m = Machine::new(cfg.clone());
    let buf = m.mem.alloc(ARENA_WORDS);
    let data = Rng::new(seed).f32_vec(ARENA_WORDS);
    m.mem.slice_mut(buf).copy_from_slice(&data);
    (m, buf)
}

/// Full simulation at `cfg` with capture on: returns the final observables,
/// the trace and the tape.
fn capture_run(cfg: &MachineConfig, seed: u64) -> (Observables, ReplayTrace, ProbeTape) {
    let (mut m, buf) = machine_with_arena(cfg, seed);
    m.start_capture();
    m.record_probe_tape();
    let max_vl = m.vlen_elems();
    run_workload(&mut m, buf, seed, max_vl);
    let obs = observe(&m);
    let trace = m.finish_capture().expect("capture was started");
    let tape = m.take_probe_tape().expect("tape recording was started");
    (obs, trace, tape)
}

/// Full simulation at `cfg` without capture (the ground truth a replay at
/// that config must match).
fn full_run(cfg: &MachineConfig, seed: u64) -> Observables {
    let (mut m, buf) = machine_with_arena(cfg, seed);
    let max_vl = m.vlen_elems();
    run_workload(&mut m, buf, seed, max_vl);
    observe(&m)
}

fn design_points() -> Vec<(String, MachineConfig)> {
    vec![
        ("rvv/2048b".into(), MachineConfig::rvv_gem5(2048, 8, 1 << 20)),
        ("sve/512b".into(), MachineConfig::sve_gem5(512, 1 << 20)),
        ("a64fx".into(), MachineConfig::a64fx()),
    ]
}

#[test]
fn live_replay_matches_capture_bit_for_bit() {
    for (name, cfg) in design_points() {
        for seed in [3u64, 0xC0FFEE] {
            let (obs, trace, _tape) = capture_run(&cfg, seed);
            let mut m = Machine::new(cfg.clone());
            let segs = m.replay(&trace);
            assert_eq!(segs.len(), 2, "{name}: warmup + measured segment expected");
            assert_eq!(observe_segment(&segs[1]), obs, "{name} seed={seed:#x}: live replay");
            assert_eq!(segs[1].layers.len(), 2, "{name}: two layers recorded");
        }
    }
}

#[test]
fn tape_refit_matches_capture_bit_for_bit() {
    for (name, cfg) in design_points() {
        let (obs, trace, tape) = capture_run(&cfg, 7);
        let mut m = Machine::new(cfg.clone());
        m.play_probe_tape(std::sync::Arc::new(tape)).expect("same geometry");
        let segs = m.replay(&trace);
        assert_eq!(observe_segment(&segs[1]), obs, "{name}: tape refit");
    }
}

/// Every generated workload records both sides of each inline/pool choice:
/// a `whilelt` past its end next to ordinary ones, scalar streams on both
/// sides of the inline word limit, and pool-backed row updates with and
/// without `alpha`.
#[test]
fn workloads_cover_both_sides_of_the_inline_encodings() {
    let cfg = MachineConfig::rvv_gem5(2048, 8, 1 << 20);
    for seed in [3u64, 0xC0FFEE, 7, 11, 13] {
        let (_, trace, _) = capture_run(&cfg, seed);
        let count = |f: &dyn Fn(&ReplayOp) -> bool| trace.ops.iter().filter(|op| f(op)).count();
        let empty = count(&|op| matches!(op, ReplayOp::Whilelt { rem: 0 }));
        let whilelt = count(&|op| matches!(op, ReplayOp::Whilelt { .. }));
        let long = count(&|op| matches!(op, ReplayOp::ScalarStream { words: 0, .. }));
        let streams = count(&|op| matches!(op, ReplayOp::ScalarStream { .. }));
        assert!(0 < empty && empty < whilelt, "seed {seed:#x}: {empty} of {whilelt} whilelt empty");
        assert!(0 < long && long < streams, "seed {seed:#x}: {long} of {streams} streams long");
        let scaled = |op: &ReplayOp| match *op {
            ReplayOp::VMaccRows { at, .. } => Some(trace.macc_rows(at).scaled),
            _ => None,
        };
        let rows = count(&|op| scaled(op).is_some());
        let alpha = count(&|op| scaled(op) == Some(true));
        assert!(0 < alpha && alpha < rows, "seed {seed:#x}: {alpha} of {rows} row updates scaled");
    }
}

/// A cursor stepped one `replay_step` at a time — one sub-op per step
/// inside a row update — reproduces the batch executor over the same
/// range, as the SoC event loop relies on.
#[test]
fn stepped_cursor_matches_batch_replay() {
    for (name, cfg) in design_points() {
        let (_, trace, _) = capture_run(&cfg, 23);
        let batch = Machine::new(cfg.clone()).replay(&trace);
        let rt = trace.ops.iter().position(|op| *op == ReplayOp::ResetTiming).expect("a reset");
        let mut m = Machine::new(cfg.clone());
        let mut steps = 0usize;
        for (start, end) in [(0, rt), (rt + 1, trace.ops.len())] {
            if start > 0 {
                m.reset_timing();
            }
            let mut cur = ReplayCursor::new(start, end);
            while m.replay_step(&trace, &mut cur) {
                steps += 1;
            }
            assert!(cur.done(), "{name}: cursor stopped inside its range");
        }
        let sub_ops: Vec<usize> = trace
            .ops
            .iter()
            .filter_map(|op| match *op {
                ReplayOp::VMaccRows { at, .. } => Some(trace.macc_rows(at).sub_ops()),
                _ => None,
            })
            .collect();
        assert!(!sub_ops.is_empty(), "{name}: the workload holds no row update");
        let single = trace.ops.len() - 1 - sub_ops.len();
        assert_eq!(steps, single + sub_ops.iter().sum::<usize>(), "{name}: one step per sub-op");
        let stepped = Observables {
            cycles: m.cycles(),
            stalls: m.stalls,
            phases: m.phases.clone(),
            vpu: m.stats,
            mem: m.sys.stats(),
        };
        assert_eq!(stepped, observe_segment(&batch[1]), "{name}: stepped vs batch replay");
    }
}

/// A finished capture holds no spare capacity: its accounted footprint is
/// exactly its lengths times the element sizes.
#[test]
fn finished_capture_accounts_exactly_what_it_holds() {
    let (_, trace, tape) = capture_run(&MachineConfig::sve_gem5(512, 1 << 20), 19);
    let descs: usize = trace.descs.iter().map(|d| d.len() + 24).sum();
    assert_eq!(trace.approx_bytes(), trace.ops.len() * 8 + trace.pool.len() * 4 + descs);
    assert_eq!(
        tape.approx_bytes(),
        tape.levels.len() + tape.segments.len() * std::mem::size_of::<TapeSegment>()
    );
}

/// Live replay retargets *state-changing* axes: a capture at L2 = 1 MB
/// replayed against an L2 = 4 MB hierarchy must equal the full simulation
/// at 4 MB (same functional stream — the op list is config-independent).
#[test]
fn live_replay_retargets_l2_size() {
    let seed = 11u64;
    let (_, trace, _) = capture_run(&MachineConfig::rvv_gem5(2048, 8, 1 << 20), seed);
    let target = MachineConfig::rvv_gem5(2048, 8, 4 << 20);
    let truth = full_run(&target, seed);
    let mut m = Machine::new(target);
    let segs = m.replay(&trace);
    assert_eq!(observe_segment(&segs[1]), truth, "live replay at L2=4MB");
}

/// Tape refit retargets *timing-only* axes: the same tape re-timed under
/// each `IdealSpec` knob must equal the full simulation under that knob
/// (state geometry unchanged — the refit validity condition).
#[test]
fn tape_refit_retargets_ideal_knobs() {
    let seed = 13u64;
    let base = MachineConfig::rvv_gem5(2048, 8, 1 << 20);
    let (_, trace, tape) = capture_run(&base, seed);
    let tape = std::sync::Arc::new(tape);
    for knob in IdealKnob::ALL {
        let mut target = base.clone();
        target.ideal = knob.spec();
        let truth = full_run(&target, seed);
        let mut m = Machine::new(target);
        m.play_probe_tape(tape.clone()).expect("same geometry");
        let segs = m.replay(&trace);
        assert_eq!(observe_segment(&segs[1]), truth, "tape refit under {knob:?}");
    }
}

/// A tape recorded at one cache geometry must be refused at another.
#[test]
fn tape_geometry_mismatch_is_refused() {
    let (_, _, tape) = capture_run(&MachineConfig::rvv_gem5(2048, 8, 1 << 20), 17);
    let mut m = Machine::new(MachineConfig::rvv_gem5(2048, 8, 4 << 20));
    assert!(m.play_probe_tape(std::sync::Arc::new(tape)).is_err());
}
