//! The four workloads. Each times calls into the simulator's public API
//! and checks what they return; none of them instruments the simulator.
//!
//! | workload | requests per pass | stresses |
//! |---|---|---|
//! | `headline_full` | 9 × `Experiment::run` | functional + timing simulation |
//! | `retime_unseen` | 3 streams × (1 capture + 5 unseen points) | recorder, tape refit, live replay, `LayerMemo` |
//! | `serve_ladder` | 4 rungs × 3 tenants `run_stream(2)` + 8 `simulate` | stream capture/replay, serving tier |
//! | `soc_contention` | 1 capture + 4 SoC cells | shared port, global event loop |

use crate::checks::{requests_balance, same_run, same_stream, stalls_sum, summary_stalls_sum};
use crate::model::Model;
use crate::points::{stream_plan, StreamPlan};
use crate::report::{Metrics, RunRecord};
use crate::run::{run, Ctx, Pass, Workload};
use crate::stats::median;
use lva_bench::serving_report::{serving_design_points, REQUESTS_PER_UNIT_WEIGHT};
use lva_bench::{headline_specs, scaled_input, ConvPolicy, GemmVariant, HwTarget, ModelId};
use lva_core::{EnergyModel, Experiment, RetimeOpt, RunSummary, StreamSummary, Workload as Net};
use lva_retime::{CertGate, RetimeEngine};
use lva_scale::{run_soc, run_soc_captured, Sharding, SocConfig, SocResult};
use lva_serve::{
    cycles_to_ms, default_mix, merge_arrivals, poisson_arrivals, simulate, LatencyHistogram,
    Request, ServeConfig, SimResult, TenantProfile, TenantSpec,
};

/// Names of the workloads, in run order.
pub const NAMES: [&str; 4] = ["headline_full", "retime_unseen", "serve_ladder", "soc_contention"];

/// Run workload `name` (one of [`NAMES`]).
pub fn run_named(name: &str, seed: u64, seconds: u64, trace: bool) -> Option<RunRecord> {
    Some(match name {
        "headline_full" => run(&Headline, name, seed, seconds, trace),
        "retime_unseen" => run(&RetimeUnseen, name, seed, seconds, trace),
        "serve_ladder" => run(&ServeLadder, name, seed, seconds, trace),
        "soc_contention" => run(&SocContention, name, seed, seconds, trace),
        _ => return None,
    })
}

fn seeded(mut e: Experiment, seed: u64) -> Experiment {
    e.seed = seed;
    e
}

/// Input down-scale of `headline_full` and `retime_unseen`.
pub const HEADLINE_DIV: usize = 32;

/// The headline experiment called `name`, at [`HEADLINE_DIV`].
fn headline_point(name: &str, seed: u64) -> Experiment {
    let (_, e) = headline_specs(HEADLINE_DIV, None)
        .into_iter()
        .find(|(n, _)| n == name)
        .expect("a headline design point");
    seeded(e, seed)
}

/// Median over passes of a per-pass value.
fn per_pass<D>(passes: &[Pass<D>], f: impl Fn(&Pass<D>) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

// ---- headline_full ---------------------------------------------------

/// The nine §VI design points, each simulated in full.
pub struct Headline;

impl Workload for Headline {
    type State = Vec<(String, Experiment)>;
    /// `(point, summary, seconds)` per completed request.
    type Detail = Vec<(usize, RunSummary, f64)>;

    fn setup(&self, seed: u64, ctx: &mut Ctx) -> Self::State {
        let specs: Vec<(String, Experiment)> = headline_specs(HEADLINE_DIV, None)
            .into_iter()
            .map(|(n, e)| (n, seeded(e, seed)))
            .collect();
        ctx.call("core.run", || self.ladder_point(&specs).run());
        specs
    }

    fn pass(&self, specs: &Self::State, ctx: &mut Ctx) -> Pass<Self::Detail> {
        let mut p = Pass { sim_cycles: 0, model: Model::default(), detail: Vec::new() };
        for (i, (_, e)) in specs.iter().enumerate() {
            if let Some((s, secs)) = ctx.request("core.run", || e.run()) {
                p.sim_cycles += s.cycles;
                p.model.add_run(&s);
                p.detail.push((i, s, secs));
            }
        }
        p
    }

    fn finish(
        &self,
        specs: &Self::State,
        passes: &[Pass<Self::Detail>],
        ctx: &mut Ctx,
        m: &mut Metrics,
    ) {
        for (i, s, _) in passes.iter().flat_map(|p| &p.detail) {
            ctx.ledger
                .check(summary_stalls_sum(s), || format!("{}: stalls do not sum", specs[*i].0));
        }
        // Host time grouped by platform (the point's name prefix) and by
        // kernel class.
        let member = |point: &str, group: &str| match group {
            "naive" => point.ends_with("naive"),
            "opt" => !point.ends_with("naive"),
            platform => point.starts_with(platform),
        };
        for group in ["rvv", "a64fx", "sve", "naive", "opt"] {
            let ms = per_pass(passes, |p| {
                let mine = p.detail.iter().filter(|(i, ..)| member(&specs[*i].0, group));
                mine.map(|(.., s)| s * 1e3).sum()
            });
            m.push(&format!("core.run_ms.{group}"), ms, "ms");
        }
    }

    /// The cheapest point, `rvv_tiny_opt3`.
    fn ladder_point(&self, specs: &Self::State) -> Experiment {
        let (_, e) = specs.iter().find(|(n, _)| n == "rvv_tiny_opt3").expect("a headline point");
        e.clone()
    }
}

// ---- retime_unseen ----------------------------------------------------

/// Three captured streams, each re-timed at five seeded points it has not
/// seen, through a retime engine whose memos start cold every pass.
pub struct RetimeUnseen;

/// The streams `retime_unseen` captures: RVV with the opt3 and opt6 GEMM
/// kernels, and SVE.
pub const RETIME_STREAMS: [&str; 3] = ["rvv_tiny_opt3", "rvv_yolo20_opt6", "sve512_yolo20_opt3"];

/// Engine paths of one stream's six requests, in order.
pub const RETIME_PATHS: [&str; 6] =
    ["capture", "tape-refit", "tape-refit", "live-replay", "tape-refit", "tape-refit"];

pub struct RetimeState {
    streams: Vec<(Experiment, StreamPlan)>,
    verdict: Result<(), String>,
    cert_ms: f64,
}

/// One completed engine request.
pub struct RetimeReq {
    stream: usize,
    /// 0 is the capture; 1..=5 index the plan's points.
    point: usize,
    path: &'static str,
    secs: f64,
    summary: RunSummary,
}

pub struct RetimeDetail {
    reqs: Vec<RetimeReq>,
    memo_hit_rate: f64,
    memo_entries: usize,
    store_bytes: usize,
}

impl Workload for RetimeUnseen {
    type State = RetimeState;
    type Detail = RetimeDetail;

    fn setup(&self, seed: u64, ctx: &mut Ctx) -> RetimeState {
        let streams: Vec<(Experiment, StreamPlan)> = RETIME_STREAMS
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let e = headline_point(n, seed);
                let plan = stream_plan(&e, seed, i);
                (e, plan)
            })
            .collect();
        let mut gate = CertGate::standard();
        let verdict = ctx
            .call("retime.cert", || gate.check())
            .map_or_else(|| Err("certification panicked".into()), |(v, _)| v);
        ctx.call("core.run", || streams[0].0.run());
        RetimeState { streams, verdict, cert_ms: gate.cert_ms }
    }

    fn pass(&self, st: &RetimeState, ctx: &mut Ctx) -> Pass<RetimeDetail> {
        let mut engine =
            RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(st.verdict.clone()));
        let (mut sim_cycles, mut model, mut reqs) = (0, Model::default(), Vec::new());
        for (stream, (capture, plan)) in st.streams.iter().enumerate() {
            for (point, e) in std::iter::once(capture).chain(&plan.points).enumerate() {
                let Some(((summary, path), secs)) =
                    ctx.request("retime.run_explained", || engine.run_explained(e))
                else {
                    continue;
                };
                ctx.name_last_request(&format!("retime.{path}"));
                // Only the captures are seed-independent.
                if point == 0 {
                    sim_cycles += summary.cycles;
                    model.add_run(&summary);
                }
                reqs.push(RetimeReq { stream, point, path, secs, summary });
            }
        }
        let (_, entries, hits, misses, _) = engine.store().layer_memo_totals();
        let detail = RetimeDetail {
            reqs,
            memo_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
            memo_entries: entries,
            store_bytes: engine.store().approx_bytes(),
        };
        Pass { sim_cycles, model, detail }
    }

    fn finish(
        &self,
        st: &RetimeState,
        passes: &[Pass<RetimeDetail>],
        ctx: &mut Ctx,
        m: &mut Metrics,
    ) {
        for p in passes {
            for r in &p.detail.reqs {
                ctx.ledger.check(summary_stalls_sum(&r.summary), || {
                    format!("{} point {}: stalls do not sum", RETIME_STREAMS[r.stream], r.point)
                });
            }
            for (i, name) in RETIME_STREAMS.iter().enumerate() {
                let paths: Vec<&str> =
                    p.detail.reqs.iter().filter(|r| r.stream == i).map(|r| r.path).collect();
                ctx.ledger
                    .check(paths == RETIME_PATHS, || format!("{name}: engine paths {paths:?}"));
            }
        }
        // Verification: the seeded point of each stream against full
        // simulation, timed so the engine's gain on it can be reported.
        let (mut full_s, mut engine_s) = (0.0, 0.0);
        for (i, (_, plan)) in st.streams.iter().enumerate() {
            let e = &plan.points[plan.verify];
            let got =
                passes[0].detail.reqs.iter().find(|r| r.stream == i && r.point == plan.verify + 1);
            let Some((full, secs)) = ctx.call("verify.run", || e.run()) else { continue };
            ctx.ledger.check(got.is_some_and(|r| same_run(&r.summary, &full)), || {
                format!(
                    "{}: unseen point {} differs from full simulation",
                    RETIME_STREAMS[i],
                    e.hw.describe()
                )
            });
            if let Some(r) = got {
                full_s += secs;
                engine_s += r.secs;
            }
        }
        m.push("retime.cert_ms", st.cert_ms, "ms");
        for path in ["capture", "tape-refit", "live-replay"] {
            let stem = path.replace('-', "_");
            let secs: Vec<f64> = passes
                .iter()
                .flat_map(|p| &p.detail.reqs)
                .filter(|r| r.path == path)
                .map(|r| r.secs * 1e3)
                .collect();
            let n = passes[0].detail.reqs.iter().filter(|r| r.path == path).count();
            m.push(&format!("retime.{stem}_n"), n as f64, "count");
            if !secs.is_empty() {
                m.push(&format!("retime.{stem}_ms_p50"), median(&secs), "ms");
            }
        }
        if engine_s > 0.0 {
            m.push("retime.unseen_x_full", full_s / engine_s, "ratio");
        }
        m.push("retime.layer_memo_hit_rate", passes[0].detail.memo_hit_rate, "ratio");
        m.push("retime.layer_memo_entries", passes[0].detail.memo_entries as f64, "count");
        m.push("retime.store_mb", passes[0].detail.store_bytes as f64 / (1 << 20) as f64, "MB");
    }

    fn ladder_point(&self, st: &RetimeState) -> Experiment {
        let (_, plan) = &st.streams[0];
        plan.points[plan.verify].clone()
    }
}

// ---- serve_ladder -----------------------------------------------------

/// Serving-tier calibration of four hardware rungs × three tenants through
/// the engine's stream path, then the batching simulator at two loads.
pub struct ServeLadder;

/// Input down-scale and layer cap of every tenant (the full VGG16 at the
/// serving observatory's scale needs gigabytes of recordings).
pub const SERVE_DIV: usize = 16;
pub const SERVE_LAYERS: usize = 6;
/// Offered load as a share of the reference rung's capacity.
pub const SERVE_LOADS: [f64; 2] = [0.5, 0.95];
/// The rung and load whose p99 latency is reported.
const P99_RUNG: &str = "rvv2048x8/1MB";

pub struct ServeState {
    rungs: Vec<(String, HwTarget)>,
    mix: Vec<TenantSpec>,
    /// `(rung, tenant, experiment)`, rung-major.
    cells: Vec<(usize, usize, Experiment)>,
    verdict: Result<(), String>,
    cert_ms: f64,
    /// The cell checked against a full `run_stream`.
    verify: usize,
    seed: u64,
}

pub struct ServeDetail {
    /// `(cell, engine path, seconds, result)` per completed calibration.
    streams: Vec<(usize, &'static str, f64, StreamSummary)>,
    /// `(rung, load, result)` per simulated cell.
    sims: Vec<(usize, usize, SimResult)>,
    simulate_s: f64,
    store_bytes: usize,
}

/// Seeded Poisson arrivals per tenant at `intensity` of the reference
/// rung's steady capacity, with deadlines anchored to that rung.
fn offered(
    mix: &[TenantSpec],
    reference: &[TenantProfile],
    intensity: f64,
    seed: u64,
) -> Vec<Request> {
    let mean_cost: f64 =
        mix.iter().zip(reference).map(|(t, p)| t.weight * p.steady_cycles as f64).sum();
    let streams: Vec<Vec<Request>> = mix
        .iter()
        .zip(reference)
        .enumerate()
        .map(|(i, (t, p))| {
            let deadline = (t.deadline_mult * p.steady_cycles as f64).round() as u64;
            let n = (t.weight * REQUESTS_PER_UNIT_WEIGHT as f64).round() as usize;
            let tenant_seed = seed ^ ((i as u64 + 1) << 32);
            poisson_arrivals(tenant_seed, i, mean_cost / (intensity * t.weight), n, deadline)
        })
        .collect();
    merge_arrivals(&streams)
}

impl Workload for ServeLadder {
    type State = ServeState;
    type Detail = ServeDetail;

    fn setup(&self, seed: u64, ctx: &mut Ctx) -> ServeState {
        let rungs: Vec<(String, HwTarget)> =
            serving_design_points().into_iter().filter(|(_, hw)| *hw != HwTarget::A64fx).collect();
        let mix = default_mix();
        let policy = ConvPolicy::gemm_only(GemmVariant::opt3());
        let mut cells = Vec::new();
        for (r, (_, hw)) in rungs.iter().enumerate() {
            for (t, spec) in mix.iter().enumerate() {
                let net = Net {
                    model: spec.model,
                    input_hw: scaled_input(spec.model, SERVE_DIV),
                    layer_limit: Some(SERVE_LAYERS),
                };
                cells.push((r, t, seeded(Experiment::new(*hw, policy, net), seed)));
            }
        }
        let mut gate = CertGate::standard();
        let verdict = ctx
            .call("retime.cert", || gate.check())
            .map_or_else(|| Err("certification panicked".into()), |(v, _)| v);
        ctx.call("core.run_stream", || cells[0].2.run_stream(2));
        let verify = lva_sim::Rng::new(seed).gen_index(0, cells.len());
        ServeState { rungs, mix, cells, verdict, cert_ms: gate.cert_ms, verify, seed }
    }

    fn pass(&self, st: &ServeState, ctx: &mut Ctx) -> Pass<ServeDetail> {
        let mut engine =
            RetimeEngine::with_gate(RetimeOpt::On, CertGate::decided(st.verdict.clone()));
        let (mut sim_cycles, mut model, mut streams) = (0, Model::default(), Vec::new());
        for (c, (_, _, e)) in st.cells.iter().enumerate() {
            let before = engine.counters().clone();
            let Some((s, secs)) = ctx.request("retime.run_stream", || engine.run_stream(e, 2))
            else {
                continue;
            };
            let after = engine.counters();
            let path = if after.stream_captures > before.stream_captures {
                "stream_capture"
            } else if after.stream_refits > before.stream_refits {
                "stream_refit"
            } else if after.stream_live_replays > before.stream_live_replays {
                "stream_live_replay"
            } else {
                "other"
            };
            ctx.name_last_request(&format!("retime.{path}"));
            sim_cycles += s.per_frame_cycles.iter().sum::<u64>();
            model.add_run(&s.steady);
            streams.push((c, path, secs, s));
        }
        let mut sims = Vec::new();
        let mut simulate_s = 0.0;
        if streams.len() == st.cells.len() {
            let profile = |(.., s): &(usize, &str, f64, StreamSummary)| TenantProfile {
                cold_cycles: s.cold_cycles(),
                steady_cycles: s.steady_cycles(),
            };
            let profiles: Vec<Vec<TenantProfile>> =
                streams.chunks(st.mix.len()).map(|row| row.iter().map(profile).collect()).collect();
            let reference = profiles.last().expect("at least one rung");
            for (l, &load) in SERVE_LOADS.iter().enumerate() {
                let arrivals = offered(&st.mix, reference, load, st.seed ^ l as u64);
                for (r, prof) in profiles.iter().enumerate() {
                    if let Some((res, secs)) = ctx.call("serve.simulate", || {
                        simulate(prof, &arrivals, &ServeConfig::default())
                    }) {
                        simulate_s += secs;
                        sims.push((r, l, res));
                    }
                }
            }
        }
        let store_bytes = engine.store().approx_bytes();
        let detail = ServeDetail { streams, sims, simulate_s, store_bytes };
        Pass { sim_cycles, model, detail }
    }

    fn finish(
        &self,
        st: &ServeState,
        passes: &[Pass<ServeDetail>],
        ctx: &mut Ctx,
        m: &mut Metrics,
    ) {
        for p in passes {
            for (c, path, _, s) in &p.detail.streams {
                let (r, t, e) = &st.cells[*c];
                let what = || format!("{} / {}", st.rungs[*r].0, st.mix[*t].name());
                ctx.ledger.check(summary_stalls_sum(&s.steady), || {
                    format!("{}: stalls do not sum", what())
                });
                // A rung at the capture's L2 size starts the stream's
                // recording; the other L2 size forces a live replay.
                let expected = if e.hw.l2_bytes() == 1 << 20 {
                    "stream_capture"
                } else {
                    "stream_live_replay"
                };
                ctx.ledger.check(*path == expected, || format!("{}: engine path {path}", what()));
            }
            ctx.ledger.check(p.detail.sims.len() == st.rungs.len() * SERVE_LOADS.len(), || {
                "serving simulation did not run on every rung and load".into()
            });
            for (r, l, res) in &p.detail.sims {
                ctx.ledger.check(requests_balance(res), || {
                    format!(
                        "{} at load {}: offered != completed + shed",
                        st.rungs[*r].0, SERVE_LOADS[*l]
                    )
                });
            }
        }
        let (_, _, e) = &st.cells[st.verify];
        let got = passes[0].detail.streams.iter().find(|(c, ..)| *c == st.verify);
        if let Some((full, _)) = ctx.call("verify.run_stream", || e.run_stream(2)) {
            ctx.ledger.check(got.is_some_and(|(.., s)| same_stream(s, &full)), || {
                format!("serve cell {} differs from run_stream", st.verify)
            });
        }

        m.push("retime.cert_ms", st.cert_ms, "ms");
        for path in ["stream_capture", "stream_live_replay"] {
            let ms = per_pass(passes, |p| {
                let mine = p.detail.streams.iter().filter(|(_, q, ..)| *q == path);
                mine.map(|(_, _, s, _)| s * 1e3).fold(0.0, |a, b| a + b)
            });
            m.push(&format!("retime.{path}_ms"), ms, "ms");
        }
        m.push("retime.store_mb", passes[0].detail.store_bytes as f64 / (1 << 20) as f64, "MB");
        let calibrate_ms =
            |p: &Pass<ServeDetail>| p.detail.streams.iter().map(|(.., s, _)| s * 1e3).sum();
        m.push("serve.calibrate_ms", per_pass(passes, calibrate_ms), "ms");
        m.push("serve.simulate_ms", per_pass(passes, |p| p.detail.simulate_s * 1e3), "ms");
        let sims = &passes[0].detail.sims;
        let total = |f: fn(&lva_serve::TenantStats) -> u64| {
            sims.iter().flat_map(|(.., r)| &r.tenants).map(f).sum::<u64>() as f64
        };
        m.push("serve.requests", total(|t| t.offered), "count");
        m.push("serve.shed", total(|t| t.shed), "count");
        let knee =
            sims.iter().find(|(r, l, _)| st.rungs[*r].0 == P99_RUNG && *l == SERVE_LOADS.len() - 1);
        if let Some((.., res)) = knee {
            let mut h = LatencyHistogram::new();
            for t in &res.tenants {
                h.merge(&t.latency);
            }
            let ms = cycles_to_ms(h.percentile(0.99), EnergyModel::default().freq_ghz);
            m.push("serve.sim_p99_ms", ms, "ms");
        }
    }

    fn ladder_point(&self, st: &ServeState) -> Experiment {
        st.cells[st.verify].2.clone()
    }
}

// ---- soc_contention ---------------------------------------------------

/// One capture replayed on 1, 2, 4 and 8 cores behind one shared L2 port.
pub struct SocContention;

/// Input down-scale of the SoC workload (the smallest YOLOv3 input).
pub const SOC_DIV: usize = 32;
pub const SOC_LAYERS: usize = 6;
pub const SOC_CORES: [usize; 4] = [1, 2, 4, 8];

pub struct SocDetail {
    capture_s: f64,
    /// `(cores, seconds, result)` per completed cell.
    cells: Vec<(usize, f64, SocResult)>,
}

impl Workload for SocContention {
    type State = Experiment;
    type Detail = SocDetail;

    fn setup(&self, seed: u64, ctx: &mut Ctx) -> Experiment {
        let net = Net {
            model: ModelId::Yolov3,
            input_hw: scaled_input(ModelId::Yolov3, SOC_DIV),
            layer_limit: Some(SOC_LAYERS),
        };
        let e = seeded(
            Experiment::new(
                HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
                ConvPolicy::gemm_only(GemmVariant::opt3()),
                net,
            ),
            seed,
        );
        ctx.call("scale.run_soc", || run_soc(&e, &SocConfig::new(1, Sharding::Batch)));
        e
    }

    fn pass(&self, e: &Experiment, ctx: &mut Ctx) -> Pass<SocDetail> {
        let mut p = Pass {
            sim_cycles: 0,
            model: Model::default(),
            detail: SocDetail { capture_s: 0.0, cells: Vec::new() },
        };
        let Some((cap, capture_s)) = ctx.call("scale.capture", || e.run_traced()) else { return p };
        p.detail.capture_s = capture_s;
        p.model.add_run(&cap.summary);
        for n in SOC_CORES {
            let cfg = SocConfig::new(n, Sharding::Batch);
            let Some((r, secs)) =
                ctx.request("scale.run_soc_captured", || run_soc_captured(e, &cap, &cfg))
            else {
                continue;
            };
            ctx.name_last_request(&format!("scale.cell.n{n}"));
            p.sim_cycles += r.makespan;
            p.model.add_contention(r.total_contention());
            p.detail.cells.push((n, secs, r));
        }
        p
    }

    fn finish(&self, e: &Experiment, passes: &[Pass<SocDetail>], ctx: &mut Ctx, m: &mut Metrics) {
        for (n, _, r) in passes.iter().flat_map(|p| &p.detail.cells) {
            for (i, c) in r.cores.iter().enumerate() {
                ctx.ledger
                    .check(stalls_sum(&c.stalls), || format!("n{n} core {i}: stalls do not sum"));
            }
            ctx.ledger.check(r.mattson.abs_error() <= 0.01, || {
                format!("n{n}: Mattson error {} above 0.01", r.mattson.abs_error())
            });
        }
        let cell = |n: usize| passes[0].detail.cells.iter().find(|(k, ..)| *k == n);
        if let Some((single, single_s)) = ctx.call("verify.run", || e.run()) {
            ctx.ledger.check(cell(1).is_some_and(|(.., r)| r.makespan == single.cycles), || {
                "N=1 makespan differs from the single-core run".into()
            });
            if let Some((_, secs, _)) = cell(1) {
                m.push("scale.n1_x_single", secs / single_s, "ratio");
            }
        }
        m.push("scale.capture_ms", per_pass(passes, |p| p.detail.capture_s * 1e3), "ms");
        for n in SOC_CORES {
            let ms: Vec<f64> = passes
                .iter()
                .flat_map(|p| &p.detail.cells)
                .filter(|(k, ..)| *k == n)
                .map(|(_, s, _)| s * 1e3)
                .collect();
            if !ms.is_empty() {
                m.push(&format!("scale.cell_ms.n{n}"), median(&ms), "ms");
            }
        }
        let waits: u64 = passes[0].detail.cells.iter().flat_map(|(.., r)| &r.port.waits).sum();
        m.push("scale.port_wait_mcycles", waits as f64 / 1e6, "Mcycles");
        if let (Some((.., one)), Some((.., eight))) = (cell(1), cell(8)) {
            m.push("scale.contention_share.n8", eight.mean_contention_share(), "ratio");
            let linear = 8.0 * one.frames_per_kcycle();
            m.push("scale.efficiency.n8", eight.frames_per_kcycle() / linear, "ratio");
        }
        let worst =
            passes[0].detail.cells.iter().map(|(.., r)| r.mattson.abs_error()).fold(0.0, f64::max);
        m.push("scale.mattson_abs_err_max", worst, "ratio");
    }

    fn ladder_point(&self, e: &Experiment) -> Experiment {
        e.clone()
    }
}
