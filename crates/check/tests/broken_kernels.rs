//! Sanitizer validation: one deliberately-broken kernel per pass, each
//! asserting the exact finding; plus the two properties the whole scheme
//! rests on — recording is timing-neutral, and every registered production
//! kernel is clean on every swept design point.

use lva_check::{
    capacity_checks, check_kernel, lint_capacity, registered_kernels, sanitize, sweep_configs,
    EventTrace, Finding,
};
use lva_isa::{Machine, MachineConfig, VecEvent};
use lva_kernels::{BlockSizes, DEFAULT_UNROLL};
use lva_sim::AllocRecord;

/// A small RVV machine: vlen 512 bits = 16 f32 lanes.
fn machine() -> Machine {
    Machine::new(MachineConfig::rvv_gem5(512, 8, 1 << 20))
}

fn run_broken(build: impl FnOnce(&mut Machine)) -> (Vec<VecEvent>, Vec<AllocRecord>, usize) {
    let mut m = machine();
    m.start_capture();
    build(&mut m);
    let trace = m.finish_capture().expect("capture was started");
    (trace.vec_events(m.vlen_elems()), m.mem.allocs().to_vec(), m.vlen_elems())
}

fn findings_of(events: &[VecEvent], allocs: &[AllocRecord], vlen: usize) -> Vec<Finding> {
    sanitize(&EventTrace { kernel: "broken", profile: "test", events, allocs, vlen_elems: vlen })
}

#[test]
fn uninit_read_is_flagged() {
    let (events, allocs, vlen) = run_broken(|m| {
        let a = m.mem.alloc_named("a", 32);
        let g = m.setvl(16);
        m.vle(1, a.addr(0), g);
        m.vfadd_vv(3, 1, 2, g); // v2 was never defined
    });
    let f = findings_of(&events, &allocs, vlen);
    assert_eq!(f.len(), 1, "expected exactly the uninit finding, got {f:?}");
    assert_eq!(f[0].pass, "uninit-read");
    assert!(f[0].detail.contains("reads v2"), "detail: {}", f[0].detail);
    assert!(f[0].detail.contains("only 0 are defined"), "detail: {}", f[0].detail);
}

#[test]
fn partial_definition_prefix_is_tracked() {
    // Defining 8 lanes then reading 16 is the bug; reading 8 is fine.
    let (events, allocs, vlen) = run_broken(|m| {
        let a = m.mem.alloc_named("a", 32);
        let g8 = m.setvl(8);
        m.vle(1, a.addr(0), g8);
        let g16 = m.setvl(16);
        m.vse(1, a.addr(16), g16); // reads lanes 8..16 of v1: undefined
    });
    let f = findings_of(&events, &allocs, vlen);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].pass, "uninit-read");
    assert!(f[0].detail.contains("only 8 are defined"), "detail: {}", f[0].detail);
}

#[test]
fn oob_past_buffer_end_is_flagged_and_names_the_buffer() {
    let (events, allocs, vlen) = run_broken(|m| {
        // "small" is 8 words but padded to the 16-word allocation grain, so
        // a 16-lane load stays inside the arena (no hard panic) while
        // overrunning the buffer — exactly what the per-allocation pass is
        // for.
        let small = m.mem.alloc_named("small", 8);
        let _victim = m.mem.alloc_named("victim", 64);
        let g = m.setvl(16);
        m.vle(1, small.addr(0), g);
    });
    let f = findings_of(&events, &allocs, vlen);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].pass, "oob");
    assert!(f[0].detail.contains("'small'"), "detail: {}", f[0].detail);
    assert!(f[0].detail.contains("32 bytes past the end"), "detail: {}", f[0].detail);
}

#[test]
fn war_overlap_is_flagged() {
    let (events, allocs, vlen) = run_broken(|m| {
        let shared = m.mem.alloc_named("shared", 32);
        let g = m.setvl(16);
        m.vle(1, shared.addr(0), g); // v1 <- shared[0..16]
        m.vbroadcast(2, 1.0, g);
        m.vse(2, shared.addr(0), g); // overwrites v1's source range
        m.vfadd_vv(3, 1, 1, g); // reads the stale copy
    });
    let f = findings_of(&events, &allocs, vlen);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].pass, "war-overlap");
    assert!(f[0].detail.contains("v1"), "detail: {}", f[0].detail);
    assert!(f[0].detail.contains("'shared'"), "detail: {}", f[0].detail);
}

#[test]
fn writeback_of_the_same_register_is_not_a_war_hazard() {
    // The GEMM accumulator idiom: load C, accumulate, store C back.
    let (events, allocs, vlen) = run_broken(|m| {
        let c = m.mem.alloc_named("c", 32);
        let g = m.setvl(16);
        m.vle(1, c.addr(0), g);
        m.vfadd_vf(1, 1, 2.0, g);
        m.vse(1, c.addr(0), g);
        m.vfadd_vv(3, 1, 1, g); // still reading v1 afterwards is fine
    });
    let f = findings_of(&events, &allocs, vlen);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn ungoverned_partial_vl_is_flagged() {
    let (events, allocs, vlen) = run_broken(|m| {
        let a = m.mem.alloc_named("a", 32);
        let g = m.setvl(12);
        assert_eq!(g, 12);
        m.vbroadcast(1, 0.0, 16); // vl == vlen: whole-register idiom, legal
        m.vse(1, a.addr(0), 10); // partial vl that matches no grant
    });
    let f = findings_of(&events, &allocs, vlen);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].pass, "vl-discipline");
    assert!(f[0].detail.contains("vl=10"), "detail: {}", f[0].detail);
    assert!(f[0].detail.contains("grant is 12"), "detail: {}", f[0].detail);
}

#[test]
fn recording_is_timing_neutral_for_every_kernel_and_profile() {
    for (profile, cfg) in sweep_configs() {
        for case in registered_kernels().iter().filter(|c| c.supports(cfg.vpu.isa)) {
            let mut plain = Machine::new(cfg.clone());
            (case.run)(&mut plain);
            let mut recorded = Machine::new(cfg.clone());
            recorded.start_capture();
            (case.run)(&mut recorded);
            let trace = recorded.finish_capture().expect("capture was started");
            let events = trace.vec_events(recorded.vlen_elems());
            assert!(!events.is_empty() || case.name == "gemm_naive");
            assert_eq!(
                plain.cycles(),
                recorded.cycles(),
                "recording changed the cycle count of {} on {profile}",
                case.name
            );
        }
    }
}

#[test]
fn every_registered_kernel_is_clean_on_every_profile() {
    // The same gate CI enforces through `lint-kernels`, as a tier-1 test.
    for (profile, cfg) in sweep_configs() {
        for case in registered_kernels().iter().filter(|c| c.supports(cfg.vpu.isa)) {
            let f = check_kernel(case, profile, &cfg);
            assert!(f.is_empty(), "{} on {profile}: {f:#?}", case.name);
        }
    }
}

#[test]
fn paper_block_sizes_fit_every_swept_design_point() {
    for (profile, cfg) in sweep_configs() {
        let checks = capacity_checks(&cfg, BlockSizes::TABLE2_BEST, DEFAULT_UNROLL, Some(512));
        let f = lint_capacity(profile, &checks);
        assert!(f.is_empty(), "{profile}: {f:#?}");
    }
}

#[test]
fn oversized_blocks_are_flagged_by_the_capacity_linter() {
    // Table II's worst row: blockM=128, blockN=1024, blockK=256. Its packed
    // B panel is 1 MiB (the whole L2) and its SVE micro-panel is 64 KiB
    // (the whole L1) — both over budget.
    let blocks = BlockSizes { m: 128, n: 1024, k: 256 };
    let (profile, cfg) = sweep_configs().remove(3); // sve/2048b
    let checks = capacity_checks(&cfg, blocks, DEFAULT_UNROLL, None);
    let f = lint_capacity(profile, &checks);
    let names: Vec<&str> = f.iter().map(|x| x.detail.split_whitespace().next().unwrap()).collect();
    assert!(names.contains(&"b-panel"), "{f:#?}");
    assert!(names.contains(&"b-micropanel"), "{f:#?}");
}

#[test]
fn overlong_unroll_is_flagged() {
    let (profile, cfg) = sweep_configs().remove(0);
    let checks = capacity_checks(&cfg, BlockSizes::TABLE2_BEST, 31, None);
    let f = lint_capacity(profile, &checks);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f[0].detail.contains("unroll-accumulators"), "{}", f[0].detail);
}
