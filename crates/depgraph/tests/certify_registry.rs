//! The acceptance gate over the real kernel registry: every registered
//! kernel carries a clean retime certificate, the critical-path lower
//! bound never exceeds the simulated cycle count, every lint finding is
//! explicitly allowlisted, and capturing itself is timing-neutral.

use lva_check::{record_kernel, registered_kernels, sweep_configs, KernelCase};
use lva_depgraph::{allowlisted, certify_kernel, lint_dataflow, lower_bound, DepGraph};
use lva_isa::{Machine, MachineConfig};

fn supported<'c>(
    case: &'c KernelCase,
    sweep: &'c [(&'static str, MachineConfig)],
) -> impl Iterator<Item = &'c (&'static str, MachineConfig)> {
    sweep.iter().filter(|(_, cfg)| case.supports(cfg.vpu.isa))
}

#[test]
fn every_registered_kernel_is_certified() {
    let sweep = sweep_configs();
    for case in registered_kernels() {
        let (cert, findings, _) = certify_kernel(&case, &sweep);
        assert!(findings.is_empty(), "{}: {findings:?}", case.name);
        assert!(cert.certified, "{} lost its retime certificate", case.name);
        assert_eq!(
            cert.points.len(),
            supported(&case, &sweep).count(),
            "{} must be certified at every supported design point",
            case.name
        );
        for p in &cert.points {
            assert!(p.invariant, "{} @ {}: stream not timing-invariant", case.name, p.profile);
        }
        for v in &cert.vl_equivalence {
            assert!(v.equivalent, "{} [{}]: VL renaming broken: {}", case.name, v.isa, v.detail);
        }
    }
}

#[test]
fn lower_bound_never_exceeds_simulated_cycles() {
    let sweep = sweep_configs();
    for case in registered_kernels() {
        for (profile, cfg) in supported(&case, &sweep) {
            let rec = record_kernel(&case, cfg);
            let graph = DepGraph::build(&rec.events, &rec.allocs);
            let lb = lower_bound(cfg, &rec.events, &graph);
            assert!(
                lb.bound <= rec.cycles,
                "{} @ {profile}: lower bound {} > simulated {}",
                case.name,
                lb.bound,
                rec.cycles
            );
            assert_eq!(lb.bound, lb.resource.max(lb.dependence));
            // The critical path must name real DAG nodes.
            assert!(lb.critical_path.iter().all(|&n| n < graph.nodes()));
        }
    }
}

#[test]
fn registry_lint_findings_are_all_allowlisted() {
    let sweep = sweep_configs();
    for case in registered_kernels() {
        for (profile, cfg) in supported(&case, &sweep) {
            let rec = record_kernel(&case, cfg);
            for f in lint_dataflow(case.name, profile, &rec.events, &rec.allocs) {
                assert!(
                    allowlisted(&f.kernel, f.pass).is_some(),
                    "new gating finding — fix the kernel or review it into the \
                     allowlist: {f:?}"
                );
            }
        }
    }
}

#[test]
fn event_recording_is_timing_neutral() {
    // The certifier's premise: turning the capture on must not move a
    // single cycle, otherwise certificates describe a different machine
    // than the benchmarks run on.
    let sweep = sweep_configs();
    for case in registered_kernels() {
        for (profile, cfg) in supported(&case, &sweep) {
            let recorded = record_kernel(&case, cfg).cycles;
            let mut m = Machine::new(cfg.clone());
            (case.run)(&mut m);
            assert_eq!(
                m.cycles(),
                recorded,
                "{} @ {profile}: recording changed the cycle count",
                case.name
            );
        }
    }
}
