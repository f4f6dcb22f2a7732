//! Deliberately-broken synthetic kernels, one per analysis, pinning the
//! exact finding each pass must emit.
//!
//! `KernelCase` takes a plain fn pointer, so these build tiny kernels the
//! registry never ships: a reloading kernel for the redundant-load pass, a
//! clobbered store for the dead-store pass, two kernels whose recording
//! depends on the L2 capacity — one in its vector ops, one only in its
//! scalar work (each breaking timing-invariance) — and a kernel whose
//! element count scales with the hardware vector length (breaking
//! VL-renaming equivalence).

use lva_check::{record_kernel, sweep_configs, KernelCase};
use lva_depgraph::{certify_kernel, lint_dataflow};
use lva_isa::Machine;

fn synthetic(name: &'static str, run: fn(&mut Machine)) -> KernelCase {
    KernelCase { name, shape: "synthetic", isa: None, run }
}

// ---------------------------------------------------------------------
// redundant-load
// ---------------------------------------------------------------------

fn run_reloading(m: &mut Machine) {
    let x = m.mem.alloc_from(&[1.0; 16]);
    let out = m.mem.alloc_named("out", 16);
    let vl = m.setvl(16);
    m.vle(1, x.addr(0), vl);
    m.vle(2, x.addr(0), vl); // same bytes, still live in v1
    m.vfadd_vv(3, 1, 2, vl);
    m.vse(3, out.addr(0), vl);
}

#[test]
fn redundant_load_finding_pins_exact_text() {
    let case = synthetic("reloading", run_reloading);
    let (profile, cfg) = &sweep_configs()[0];
    let rec = record_kernel(&case, cfg);
    let findings = lint_dataflow(case.name, profile, &rec.events, &rec.allocs);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.pass, "redundant-load");
    // Stream: #0 setvl grant, #1 first vle, #2 the redundant reload.
    let x = &rec.allocs[0];
    assert_eq!(
        f.detail,
        format!(
            "event #2: vle v2 reloads [{:#x}, {:#x}) of `{}` already live in v1",
            x.buf.base,
            x.buf.base + 64,
            x.label,
        )
    );
}

// ---------------------------------------------------------------------
// dead-store
// ---------------------------------------------------------------------

fn run_clobbering(m: &mut Machine) {
    let x = m.mem.alloc_from(&[1.0; 16]);
    let out = m.mem.alloc_named("out", 16);
    let vl = m.setvl(16);
    m.vle(1, x.addr(0), vl);
    m.vse(1, out.addr(0), vl); // fully overwritten below, never read
    m.vfadd_vf(2, 1, 1.0, vl);
    m.vse(2, out.addr(0), vl);
}

#[test]
fn dead_store_finding_pins_exact_text() {
    let case = synthetic("clobbering", run_clobbering);
    let (profile, cfg) = &sweep_configs()[0];
    let rec = record_kernel(&case, cfg);
    let findings = lint_dataflow(case.name, profile, &rec.events, &rec.allocs);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.pass, "dead-store");
    // Stream: #0 setvl grant, #1 vle, #2 the doomed vse.
    let out = rec.allocs.iter().find(|a| a.label == "out").unwrap();
    assert_eq!(
        f.detail,
        format!(
            "event #2: vse to [{:#x}, {:#x}) of `out` is fully overwritten before any read",
            out.buf.base,
            out.buf.base + 64,
        )
    );
}

// ---------------------------------------------------------------------
// config-variance: the stream must not read timing state
// ---------------------------------------------------------------------

fn run_l2_dependent(m: &mut Machine) {
    let x = m.mem.alloc_from(&[1.0; 16]);
    let out = m.mem.alloc_named("out", 16);
    let vl = m.setvl(16);
    m.vle(1, x.addr(0), vl);
    // Forbidden: shape the stream by cache capacity. The l2-4MiB
    // perturbation flips this branch.
    if m.config().mem.l2.bytes > (2 << 20) {
        m.vfadd_vf(1, 1, 1.0, vl);
    }
    m.vse(1, out.addr(0), vl);
}

#[test]
fn l2_dependent_stream_fails_certification() {
    let case = synthetic("l2_dependent", run_l2_dependent);
    let sweep = sweep_configs();
    let (cert, findings, _) = certify_kernel(&case, &sweep);
    assert!(!cert.certified);
    // One config-variance finding per design point, naming the perturbation
    // and the event-count delta (the baseline stream has one fewer event).
    let variance: Vec<_> = findings.iter().filter(|f| f.pass == "config-variance").collect();
    assert_eq!(variance.len(), sweep.len(), "{findings:?}");
    let n = record_kernel(&case, &sweep[0].1).events.len();
    for f in &variance {
        assert_eq!(
            f.detail,
            format!("stream length changed under l2-4MiB: {n} events vs {}", n + 1)
        );
    }
    // Every point still reports which perturbations *did* hold.
    for p in &cert.points {
        assert!(!p.invariant);
        assert_eq!(p.invariant_under, vec!["lanes-halved", "reference-model", "ideal-all"]);
    }
}

fn run_l2_dependent_scalar(m: &mut Machine) {
    let x = m.mem.alloc_from(&[1.0; 16]);
    let out = m.mem.alloc_named("out", 16);
    let vl = m.setvl(16);
    m.vle(1, x.addr(0), vl);
    // Forbidden too, though no vector event moves: a replay re-executes
    // the scalar charge, so its cost must not depend on cache capacity.
    m.charge_scalar_ops(if m.config().mem.l2.bytes > (2 << 20) { 2 } else { 1 });
    m.vse(1, out.addr(0), vl);
}

#[test]
fn l2_dependent_scalar_work_fails_certification() {
    let case = synthetic("l2_dependent_scalar", run_l2_dependent_scalar);
    let sweep = sweep_configs();
    let (cert, findings, _) = certify_kernel(&case, &sweep);
    assert!(!cert.certified);
    // The decoded vector events agree, so each design point's finding
    // names the first differing op: #0 setvl, #1 vle, #2 the scalar charge.
    let variance: Vec<_> = findings.iter().filter(|f| f.pass == "config-variance").collect();
    assert_eq!(variance.len(), sweep.len(), "{findings:?}");
    for (f, (profile, _)) in variance.iter().zip(&sweep) {
        assert_eq!(f.profile, *profile);
        assert_eq!(
            f.detail,
            "stream diverged under l2-4MiB at op #2: ScalarOps { n: 1 } vs ScalarOps { n: 2 }"
        );
    }
    for p in &cert.points {
        assert!(!p.invariant);
        assert_eq!(p.invariant_under, vec!["lanes-halved", "reference-model", "ideal-all"]);
    }
}

// ---------------------------------------------------------------------
// vl-equivalence: element totals must not scale with the hardware VL
// ---------------------------------------------------------------------

fn run_vl_dependent(m: &mut Machine) {
    let x = m.mem.alloc_from(&[1.0; 512]);
    let out = m.mem.alloc_named("out", 512);
    // Forbidden: process "one register's worth" of data — the element
    // count then scales with the hardware vector length.
    let vl = m.setvl(m.vlen_elems());
    m.vle(1, x.addr(0), vl);
    m.vse(1, out.addr(0), vl);
}

#[test]
fn vl_dependent_stream_fails_renaming_equivalence() {
    let case = synthetic("vl_dependent", run_vl_dependent);
    let sweep = sweep_configs();
    let (cert, findings, _) = certify_kernel(&case, &sweep);
    assert!(!cert.certified);
    // Timing perturbations all hold — the breakage is purely across VLs.
    assert!(cert.points.iter().all(|p| p.invariant));
    let vl_findings: Vec<_> = findings.iter().filter(|f| f.pass == "vl-equivalence").collect();
    assert_eq!(vl_findings.len(), 2, "one per ISA pair: {findings:?}");
    let rvv = vl_findings.iter().find(|f| f.profile == "rvv/4096b vs rvv/16384b").unwrap();
    assert_eq!(
        rvv.detail,
        "streams not equivalent modulo VL renaming: op `vle` total active lanes 128 vs 512"
    );
    let sve = vl_findings.iter().find(|f| f.profile == "sve/512b vs sve/2048b").unwrap();
    assert_eq!(
        sve.detail,
        "streams not equivalent modulo VL renaming: op `vle` total active lanes 16 vs 64"
    );
    assert!(cert.vl_equivalence.iter().all(|v| !v.equivalent));
}
