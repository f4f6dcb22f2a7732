use super::*;
use lva_core::{scaled_input, HwTarget, Workload};
use lva_isa::StallCause;
use lva_kernels::GemmVariant;
use lva_nn::{ConvPolicy, LayerReport, ModelId};
use lva_prof::StackDistance;
use lva_sim::{AccessKind, PortEvent, PortObserver, Rng};

fn experiment(layers: usize) -> Experiment {
    Experiment::new(
        HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
        ConvPolicy::gemm_only(GemmVariant::opt3()),
        Workload {
            model: ModelId::Yolov3Tiny,
            input_hw: scaled_input(ModelId::Yolov3Tiny, 13),
            layer_limit: Some(layers),
        },
    )
}

fn base() -> Experiment {
    experiment(4)
}

/// The op-at-a-time scheduler the batched loops replaced, kept verbatim as
/// the oracle they must reproduce: before every op, re-pick the runnable
/// core with the lowest `Machine::cycles()`.
mod reference {
    use super::super::{CoreState, ReplayCursor, ReplayTrace};

    /// Pick the runnable core with the lowest local clock (lowest index wins
    /// ties — round-robin whenever cores are in lockstep).
    fn next_core(
        cores: &[CoreState],
        runnable: impl Fn(usize, &CoreState) -> bool,
    ) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (i, c) in cores.iter().enumerate() {
            if runnable(i, c) {
                let t = c.m.cycles();
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Replay `range` to completion on every core (setup, and batch frames).
    pub(super) fn run_uniform(cores: &mut [CoreState], trace: &ReplayTrace, range: (usize, usize)) {
        for c in cores.iter_mut() {
            c.cur = ReplayCursor::new(range.0, range.1);
        }
        while let Some(i) = next_core(cores, |_, c| !c.cur.done()) {
            let c = &mut cores[i];
            c.m.sys.set_port_now(c.m.cycles());
            c.step(trace);
            if c.cur.done() {
                c.frames_done += 1;
            }
        }
    }

    /// Run the layer-pipeline schedule: core `c` executes op range
    /// `stages[c]` for each of `frames` frames, starting frame `f` only once
    /// core `c-1` finished frame `f`.
    pub(super) fn run_pipeline(
        cores: &mut [CoreState],
        trace: &ReplayTrace,
        stages: &[(usize, usize)],
        frames: usize,
    ) {
        let n = cores.len();
        let mut done_at: Vec<Vec<u64>> = vec![Vec::with_capacity(frames); n];
        for c in cores.iter_mut() {
            c.frame = 0;
            c.started = false;
        }
        loop {
            let runnable = |i: usize, c: &CoreState| {
                c.frame < frames && (i == 0 || done_at[i - 1].len() > c.frame)
            };
            let Some(i) = next_core(cores, runnable) else {
                assert!(
                    cores.iter().all(|c| c.frame >= frames),
                    "pipeline deadlock: no runnable core with frames outstanding"
                );
                break;
            };
            let c = &mut cores[i];
            if !c.started {
                if i > 0 {
                    let ready = done_at[i - 1][c.frame];
                    let before = c.m.cycles();
                    c.m.advance_to(ready);
                    c.idle += ready.saturating_sub(before);
                }
                c.cur = ReplayCursor::new(stages[i].0, stages[i].1);
                c.started = true;
            }
            c.m.sys.set_port_now(c.m.cycles());
            c.step(trace);
            if c.cur.done() {
                done_at[i].push(c.m.cycles());
                c.frame += 1;
                c.frames_done += 1;
                c.started = false;
            }
        }
    }
}

const REFERENCE: Loops =
    Loops { uniform: reference::run_uniform, pipeline: reference::run_pipeline };

/// The batched event loops schedule exactly what the op-at-a-time oracle
/// schedules: every timing field, the Mattson check, the bandwidth series,
/// pipeline idle time and per-core frame counts agree, for both shardings,
/// odd and even core counts, with and without port contention.
#[test]
fn batched_scheduler_matches_the_op_at_a_time_reference() {
    // Eight layers, so an eight-stage pipeline has one layer per stage.
    let exp = experiment(8);
    let cap = exp.run_traced();
    // The opt3 GEMM records row updates, which the loops step one sub-op
    // at a time.
    assert!(
        cap.trace.ops.iter().any(|op| matches!(op, ReplayOp::VMaccRows { .. })),
        "the capture holds no row update"
    );
    for sharding in Sharding::ALL {
        for n in [1usize, 2, 3, 4, 8] {
            for infinite in [false, true] {
                let cfg = SocConfig::new(n, sharding).with_infinite_bw(infinite);
                let what = format!("{} n={n} infinite_bw={infinite}", sharding.name());
                let got = run_soc_captured(&exp, &cap, &cfg);
                let want = run_soc_with(&exp, &cap, &cfg, &REFERENCE);
                assert_eq!(got.digest(), want.digest(), "{what}: digest");
                assert_eq!(got.makespan, want.makespan, "{what}: makespan");
                assert_eq!(
                    got.mattson.predicted_hit_rate.to_bits(),
                    want.mattson.predicted_hit_rate.to_bits(),
                    "{what}: predicted hit rate"
                );
                assert_eq!(
                    got.mattson.simulated_hit_rate.to_bits(),
                    want.mattson.simulated_hit_rate.to_bits(),
                    "{what}: simulated hit rate"
                );
                assert_eq!(got.mattson.transactions, want.mattson.transactions, "{what}");
                assert_eq!(got.bw_samples, want.bw_samples, "{what}: bandwidth samples");
                for (i, (g, w)) in got.cores.iter().zip(&want.cores).enumerate() {
                    assert_eq!(g.pipeline_idle, w.pipeline_idle, "{what}: core {i} idle");
                    assert_eq!(g.frames, w.frames, "{what}: core {i} frames");
                }
            }
        }
    }
}

/// Feed `warm`, open the measured phase, feed `measured`; the recency
/// window's predicted hits must equal a per-set [`StackDistance`] oracle's
/// count of measured references at within-set distance `< assoc`.
/// Returns the predicted hits.
fn check_window_against_stack_distance(
    sets: usize,
    assoc: usize,
    warm: &[u64],
    measured: &[u64],
) -> u64 {
    let mut profile = ProfileHandle::new(sets, assoc);
    let mut oracle: Vec<StackDistance> = (0..sets).map(|_| StackDistance::new()).collect();
    let mut oracle_hit = |line: u64| {
        oracle[line as usize & (sets - 1)].access(line).is_some_and(|d| d < assoc as u64)
    };
    let event = |t: usize, line: u64| PortEvent {
        core: t % 3,
        line,
        kind: AccessKind::Read,
        hit: false,
        at: t as u64,
        wait: 0,
        service: 1,
        queue_depth: 0,
    };
    for (t, &line) in warm.iter().enumerate() {
        profile.transaction(&event(t, line));
        oracle_hit(line);
    }
    profile.start_measure();
    let mut want = 0u64;
    for (t, &line) in measured.iter().enumerate() {
        profile.transaction(&event(t, line));
        want += u64::from(oracle_hit(line));
    }
    let got = profile.finish();
    let what = format!("{sets} sets x {assoc} ways");
    assert_eq!(got.transactions, measured.len() as u64, "{what}: transactions");
    assert_eq!(got.predicted_hits, want, "{what}: predicted hits");
    want
}

/// Seeded address streams with distinct reuse structure.
fn streams(sets: usize, assoc: usize, seed: u64) -> Vec<(&'static str, Vec<u64>)> {
    let lines = (sets * assoc) as u64;
    let mut rng = Rng::new(seed);
    let len = 4000;
    // Uniform over three times the capacity: a mix of hits and misses.
    let uniform = (0..len).map(|_| rng.gen_range(0, 3 * lines)).collect();
    // Every reference lands in set 5 (mod sets), cycling over a few more
    // lines than it has ways, with random detours that sometimes hit.
    let hot = (0..len)
        .map(|i| {
            let k = if rng.gen_bool(0.3) {
                rng.gen_range(0, assoc as u64 + 2)
            } else {
                i % (assoc as u64 + 1)
            };
            (5 % sets as u64) + sets as u64 * k
        })
        .collect();
    // Long reuse gaps: re-touch a line seen up to ~2x capacity references
    // ago, or touch a fresh one.
    let mut gaps: Vec<u64> = Vec::with_capacity(len as usize);
    let mut fresh = 0u64;
    for _ in 0..len {
        if gaps.is_empty() || rng.gen_bool(0.4) {
            gaps.push(fresh);
            fresh += 1;
        } else {
            let back = rng.gen_index(0, gaps.len().min(2 * lines as usize + 1));
            gaps.push(gaps[gaps.len() - 1 - back]);
        }
    }
    vec![("uniform", uniform), ("hot set", hot), ("long gaps", gaps)]
}

/// The O(assoc) recency window predicts exactly what per-set stack
/// distances predict, for several geometries and reuse patterns, and its
/// warm state survives the measurement barrier.
#[test]
fn recency_window_matches_per_set_stack_distance() {
    for (seed, (sets, assoc)) in
        [(1usize, 1usize), (1, 8), (4, 1), (4, 2), (16, 4), (64, 16)].into_iter().enumerate()
    {
        for (name, stream) in streams(sets, assoc, seed as u64 + 7) {
            check_window_against_stack_distance(sets, assoc, &[], &stream);
            let (warm, measured) = stream.split_at(stream.len() / 2);
            let warm_hits = check_window_against_stack_distance(sets, assoc, warm, measured);
            let cold_hits = check_window_against_stack_distance(sets, assoc, &[], measured);
            // Warm state can only add hits (measured-phase reuse distances
            // are the same either way); with a few dozen lines of capacity
            // the uniform stream re-touches warm lines for sure.
            assert!(warm_hits >= cold_hits, "{name}: warm state lost hits");
            if name == "uniform" && sets * assoc >= 64 {
                assert!(warm_hits > cold_hits, "{name}: warm state did not survive the barrier");
            }
        }
    }
}

/// The N=1 identity contract: a one-core SoC run is bit-identical to the
/// single-core simulator — same cycles, same stall breakdown, same private
/// cache counters, the same layer book, and the shared L2 carries exactly
/// the stats the private L2 would have carried over the measured segment.
/// Contention is identically zero.
#[test]
fn one_core_batch_is_bit_identical_to_the_single_core_simulator() {
    let exp = base();
    let cap = exp.run_traced();
    let soc = run_soc_captured(&exp, &cap, &SocConfig::new(1, Sharding::Batch));

    assert_eq!(soc.cores.len(), 1);
    let core = &soc.cores[0];
    assert_eq!(core.cycles, cap.summary.cycles, "one-core SoC must match the headline run");
    assert_eq!(soc.makespan, cap.summary.cycles);
    assert_eq!(core.stalls.get(StallCause::Contention), 0);
    assert_eq!(soc.port.waits, vec![0]);

    // Reference: single-core live replay of the same capture, private L2.
    let mut m = exp.machine();
    let segs = m.replay(&cap.trace);
    let seg = segs.last().expect("measured segment");
    assert_eq!(core.cycles, seg.cycles);
    assert_eq!(core.stalls, seg.stalls);
    let full = m.sys.stats();
    assert_eq!(core.mem.l1, full.l1);
    assert_eq!(core.mem.vcache, full.vcache);
    assert_eq!(core.mem.dram_reads, full.dram_reads);
    assert_eq!(core.mem.dram_writes, full.dram_writes);
    // The SoC's private L2 row stays cold; the shared L2's measured-phase
    // stats equal the private L2's over the measured segment (the
    // `ResetTiming` boundary zeroed the counters setup left behind).
    assert_eq!(core.mem.l2.accesses, 0, "private L2 must be bypassed under a shared port");
    assert_eq!(soc.port.l2.accesses, full.l2.accesses);
    assert_eq!(soc.port.l2.hits, full.l2.hits);
    assert_eq!(soc.port.l2.misses, full.l2.misses);
    assert_eq!(soc.port.l2.writebacks, full.l2.writebacks);

    // The core's layer book is the single-core replay's, record by record,
    // except the private L2 row the shared port bypasses...
    assert_eq!(core.layers.len(), seg.layers.len());
    for (got, want) in core.layers.iter().zip(&seg.layers) {
        let what = format!("layer {}", want.index);
        assert_eq!((got.index, &got.desc), (want.index, &want.desc), "{what}");
        for (g, w) in [(&got.begin, &want.begin), (&got.end, &want.end)] {
            assert_eq!((g.cycles, g.stalls, g.vpu), (w.cycles, w.stalls, w.vpu), "{what}");
            let private = |m: &lva_sim::MemSystemStats| {
                (m.l1, m.vcache, m.dram_reads, m.dram_writes, m.hwpf_issued)
            };
            assert_eq!(private(&g.mem), private(&w.mem), "{what}");
        }
    }
    // ...and it reports every layer exactly as the single-core run did.
    let reports: Vec<LayerReport> = core
        .layers
        .iter()
        .zip(&cap.summary.report.layers)
        .map(|(rec, l)| LayerReport::from_record(rec, l.flops, l.mnk, l.algo, l.out_shape))
        .collect();
    assert_eq!(reports, cap.summary.report.layers);
}

/// The contention attribution contract: per core the stall breakdown still
/// sums to the noted total, one core never waits, and total contention
/// grows with the core count at fixed shared-L2 capacity.
#[test]
fn contention_sums_to_total_per_core_and_grows_with_core_count() {
    let exp = base();
    let cap = exp.run_traced();
    let mut last_total = 0u64;
    for n in [1usize, 2, 4] {
        let soc = run_soc_captured(&exp, &cap, &SocConfig::new(n, Sharding::Batch));
        for (i, core) in soc.cores.iter().enumerate() {
            assert_eq!(
                core.stalls.attributed(),
                core.stalls.total(),
                "core {i} of {n}: stall causes must sum to total"
            );
            if n == 1 {
                assert_eq!(core.stalls.get(StallCause::Contention), 0);
            } else {
                assert!(
                    core.stalls.get(StallCause::Contention) > 0,
                    "core {i} of {n} shows no contention on a shared port"
                );
            }
        }
        let total = soc.total_contention();
        assert!(
            total > last_total || n == 1,
            "contention should grow with cores: {n} cores -> {total} <= {last_total}"
        );
        // Cross-check against the port's own ledger: stall-charged
        // contention can never exceed the arbitration waits handed out.
        let waits: u64 = soc.port.waits.iter().sum();
        assert!(total <= waits, "charged contention {total} exceeds port waits {waits}");
        if n > 1 {
            assert!(waits > 0);
        }
        last_total = total;
    }
}

/// Same capture, same config, run twice: byte-identical results (the
/// digest covers every timing-relevant field). Determinism is what makes
/// `--jobs` sweeps reproducible.
#[test]
fn soc_runs_are_deterministic() {
    let exp = base();
    let cap = exp.run_traced();
    for sharding in Sharding::ALL {
        let cfg = SocConfig::new(2, sharding);
        let a = run_soc_captured(&exp, &cap, &cfg);
        let b = run_soc_captured(&exp, &cap, &cfg);
        assert_eq!(a.digest(), b.digest(), "{} run not deterministic", sharding.name());
        assert_eq!(a.makespan, b.makespan);
    }
    // A fresh capture of the same experiment also reproduces.
    let cap2 = exp.run_traced();
    let a = run_soc_captured(&exp, &cap, &SocConfig::new(2, Sharding::Batch));
    let b = run_soc_captured(&exp, &cap2, &SocConfig::new(2, Sharding::Batch));
    assert_eq!(a.digest(), b.digest());
}

/// Pipeline sharding: contiguous non-empty stages covering every layer,
/// 2N frames flow through, stage `c` never starts frame `f` before stage
/// `c-1` finished it (visible as upstream idle time on the later cores),
/// and core 0 never waits on anyone.
#[test]
fn pipeline_sharding_partitions_layers_and_respects_dependencies() {
    let exp = base();
    let cap = exp.run_traced();
    let n = 2;
    let soc = run_soc_captured(&exp, &cap, &SocConfig::new(n, Sharding::Pipeline));
    assert_eq!(soc.frames, 2 * n);
    let n_layers = cap.summary.report.layers.len();
    let mut covered = 0;
    for (i, core) in soc.cores.iter().enumerate() {
        assert_eq!(core.frames, 2 * n, "every stage sees every frame");
        let (a, b) = core.stage_layers.expect("pipeline run reports stage ranges");
        assert_eq!(a, covered, "stages must be contiguous");
        assert!(b > a, "stage {i} is empty");
        covered = b;
    }
    assert_eq!(covered, n_layers, "stages must cover all layers");
    assert_eq!(soc.cores[0].pipeline_idle, 0, "stage 0 has no upstream");
    assert_eq!(soc.makespan, soc.cores.iter().map(|c| c.cycles).max().unwrap());
}

/// The infinite-bandwidth counterfactual kills all waits and all
/// contention, and the SoC can only get faster.
#[test]
fn infinite_shared_bw_removes_contention() {
    let exp = base();
    let cap = exp.run_traced();
    let real = run_soc_captured(&exp, &cap, &SocConfig::new(4, Sharding::Batch));
    let ideal =
        run_soc_captured(&exp, &cap, &SocConfig::new(4, Sharding::Batch).with_infinite_bw(true));
    assert!(real.total_contention() > 0);
    assert_eq!(ideal.total_contention(), 0);
    assert!(ideal.port.waits.iter().all(|&w| w == 0));
    assert!(ideal.makespan <= real.makespan);
}

/// The merged-stream Mattson profile tracks the simulated shared-L2 hit
/// rate (crate headline cross-check; the committed scaling report gates
/// this at 1% absolute on the full grid).
#[test]
fn mattson_merged_stream_prediction_tracks_shared_l2() {
    let exp = base();
    let cap = exp.run_traced();
    for n in [1usize, 4] {
        let soc = run_soc_captured(&exp, &cap, &SocConfig::new(n, Sharding::Batch));
        assert_eq!(soc.mattson.transactions, soc.port.l2.accesses);
        assert!(
            soc.mattson.abs_error() < 0.01,
            "{n} cores: predicted {:.4} vs simulated {:.4}",
            soc.mattson.predicted_hit_rate,
            soc.mattson.simulated_hit_rate
        );
    }
}

/// Multi-core timeline: one process per core plus shared-port counter
/// tracks, and the whole thing satisfies the trace-viewer invariants.
#[test]
fn timeline_is_well_formed_with_one_process_per_core() {
    let exp = base();
    let cap = exp.run_traced();
    let soc = run_soc_captured(&exp, &cap, &SocConfig::new(2, Sharding::Batch).with_timeline(true));
    let tl = soc.timeline.expect("timeline requested");
    assert_eq!(tl.validate(), Ok(()));
    assert!(!tl.is_empty());
    let text = tl.to_json().to_string_pretty();
    for needle in ["\"core0\"", "\"core1\"", "bandwidth utilization", "queue depth"] {
        assert!(text.contains(needle), "timeline missing {needle}");
    }
    assert!(!soc.bw_samples.is_empty());
}

#[test]
fn partition_layers_balances_and_covers() {
    // Equal weights: even split.
    assert_eq!(partition_layers(&[1, 1, 1, 1], 2), vec![(0, 2), (2, 4)]);
    // A heavy head gets its own stage.
    assert_eq!(partition_layers(&[100, 1, 1, 1], 2), vec![(0, 1), (1, 4)]);
    // Never more stages than layers; every stage non-empty.
    let stages = partition_layers(&[5, 1, 1], 3);
    assert_eq!(stages, vec![(0, 1), (1, 2), (2, 3)]);
    // One stage takes everything.
    assert_eq!(partition_layers(&[3, 7], 1), vec![(0, 2)]);
}
