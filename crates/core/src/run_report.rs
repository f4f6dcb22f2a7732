//! Machine-readable run reports.
//!
//! A [`RunReport`] bundles everything one experiment run measured — total
//! cycles and flops, the stall-cycle attribution, per-level cache behaviour,
//! and the per-layer breakdown — and serializes it to JSON (hand-rolled via
//! [`lva_trace::Json`]; the repo has no serde). The `exp-*` binaries write
//! these under `results/<name>.json` when invoked with `--json`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::experiment::{Experiment, RunSummary};
use lva_isa::{StallBreakdown, StallCause};
use lva_nn::{ConvAlgo, LayerReport};
use lva_sim::CacheStats;
use lva_trace::Json;

/// Host-side cost of producing one run: how long the *simulator* took on
/// the machine it ran on. Self-benchmarking data — simulated results are
/// independent of it, so it is kept out of reports unless explicitly
/// attached (deterministic report files must stay byte-identical across
/// hosts and runs).
#[derive(Debug, Clone, Copy)]
pub struct HostPerf {
    /// Wall-clock milliseconds the run took on the host.
    pub host_ms: f64,
}

/// A named, self-describing record of one experiment run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report name; also the default file stem for [`Self::save`].
    pub name: String,
    /// Hardware point description (e.g. `RVV@gem5 vlen=4096b lanes=8 L2=1MB`).
    pub hw: String,
    /// Workload description (e.g. `YOLOv3 (20 layers) @ 96px`).
    pub workload: String,
    pub summary: RunSummary,
    /// Host wall-clock for the run; `None` (the default) keeps host noise
    /// out of the serialized report. See [`Self::with_host`].
    pub host: Option<HostPerf>,
    /// Counterfactual (`lva-whatif`) analysis for this run; `None` (the
    /// default) omits the section. See [`Self::with_whatif`].
    pub whatif: Option<Json>,
    /// Per-layer energy attribution (`lva-energy`) for this run; `None`
    /// (the default) omits the section. See [`Self::with_energy`].
    pub energy: Option<Json>,
    /// Serving-tier observability (`lva-serve` latency/queue/SLO stats) for
    /// this run; `None` (the default) omits the section. See
    /// [`Self::with_serving`].
    pub serving: Option<Json>,
    /// Multi-core scaling observatory (`lva-scale`: per-core contention
    /// attribution, shared-port counters, throughput-vs-cores); `None`
    /// (the default) omits the section. See [`Self::with_scaling`].
    pub scaling: Option<Json>,
}

fn algo_name(a: ConvAlgo) -> &'static str {
    match a {
        ConvAlgo::Im2colGemm => "im2col+gemm",
        ConvAlgo::Winograd => "winograd",
        ConvAlgo::Direct => "direct",
    }
}

fn stalls_json(s: &StallBreakdown) -> Json {
    let mut by_cause = Json::obj();
    for c in StallCause::ALL {
        by_cause = by_cause.field(c.name(), s.get(c));
    }
    Json::obj()
        .field("total", s.total())
        .field("attributed", s.attributed())
        .field("by_cause", by_cause)
}

fn cache_json(c: &CacheStats) -> Json {
    let mut j = Json::obj()
        .field("accesses", c.accesses)
        .field("hits", c.hits)
        .field("misses", c.misses)
        .field("miss_rate", c.miss_rate())
        .field("hit_rate", c.hit_rate())
        .field("writebacks", c.writebacks)
        .field("prefetch_fills", c.prefetch_fills)
        .field("prefetch_hits", c.prefetch_hits)
        .field("prefetch_accuracy", c.prefetch_accuracy());
    // Present only on profiled runs (`lva-prof` fills the classification).
    if c.three_c.classified() > 0 {
        j = j.field(
            "miss_classes",
            Json::obj()
                .field("compulsory", c.three_c.compulsory)
                .field("capacity", c.three_c.capacity)
                .field("conflict", c.three_c.conflict),
        );
    }
    j
}

fn layer_json(l: &LayerReport) -> Json {
    let mut j = Json::obj()
        .field("index", l.index as u64)
        .field("desc", l.desc.as_str())
        .field("cycles", l.cycles)
        .field("flops", l.flops)
        .field("flops_per_cycle", l.flops_per_cycle())
        .field("avg_vlen_bits", l.avg_vlen_bits)
        .field(
            "out_shape",
            Json::Arr(vec![
                Json::from(l.out_shape.c as u64),
                Json::from(l.out_shape.h as u64),
                Json::from(l.out_shape.w as u64),
            ]),
        );
    if let Some((m, n, k)) = l.mnk {
        j = j
            .field("mnk", Json::Arr(vec![(m as u64).into(), (n as u64).into(), (k as u64).into()]));
    }
    if let Some(a) = l.algo {
        j = j.field("algo", algo_name(a));
    }
    j.field("stalls", stalls_json(&l.stalls))
}

impl RunReport {
    /// Build a report from an experiment definition and its measurements.
    pub fn new(name: impl Into<String>, e: &Experiment, s: &RunSummary) -> Self {
        RunReport {
            name: name.into(),
            hw: e.hw.describe(),
            workload: e.workload.describe(),
            summary: s.clone(),
            host: None,
            whatif: None,
            energy: None,
            serving: None,
            scaling: None,
        }
    }

    /// Attach a host wall-clock measurement; [`Self::to_json`] then emits a
    /// `host` section with `host_ms` and the derived simulation rate
    /// `sim_cycles_per_host_us`.
    #[must_use]
    pub fn with_host(mut self, host_ms: f64) -> Self {
        self.host = Some(HostPerf { host_ms });
        self
    }

    /// Attach a counterfactual analysis (produced by `lva-whatif`);
    /// [`Self::to_json`] then emits it verbatim as a `whatif` section.
    #[must_use]
    pub fn with_whatif(mut self, whatif: Json) -> Self {
        self.whatif = Some(whatif);
        self
    }

    /// Attach a per-layer energy attribution (produced by `lva-energy`,
    /// typically `EnergyAttribution::to_json()`); [`Self::to_json`] then
    /// emits it verbatim as an `energy` section.
    #[must_use]
    pub fn with_energy(mut self, energy: Json) -> Self {
        self.energy = Some(energy);
        self
    }

    /// Attach serving-tier observability (produced by `lva-serve`: latency
    /// histograms, queue telemetry, SLO outcomes); [`Self::to_json`] then
    /// emits it verbatim as a `serving` section.
    #[must_use]
    pub fn with_serving(mut self, serving: Json) -> Self {
        self.serving = Some(serving);
        self
    }

    /// Attach a multi-core scaling section (produced by `lva-scale`/
    /// `lva-bench`'s scaling observatory); [`Self::to_json`] then emits it
    /// verbatim as a `scaling` section.
    #[must_use]
    pub fn with_scaling(mut self, scaling: Json) -> Self {
        self.scaling = Some(scaling);
        self
    }

    /// The `host` section, if a measurement was attached.
    fn host_json(&self) -> Option<Json> {
        self.host.map(|h| {
            let cycles = self.summary.cycles;
            let rate = if h.host_ms > 0.0 { cycles as f64 / (h.host_ms * 1000.0) } else { 0.0 };
            Json::obj().field("host_ms", h.host_ms).field("sim_cycles_per_host_us", rate)
        })
    }

    /// The full report as a JSON value.
    pub fn to_json(&self) -> Json {
        let s = &self.summary;
        let net = &s.report;
        let mem = &net.mem;

        let mut caches = Json::obj();
        for (level, c) in [("l1d", &mem.l1), ("l2", &mem.l2), ("vcache", &mem.vcache)] {
            if c.accesses == 0 && c.prefetch_fills == 0 {
                continue;
            }
            caches = caches.field(level, cache_json(c));
        }

        let mut phases = Json::obj();
        for (p, cyc) in net.phases.breakdown() {
            phases = phases.field(p.name(), cyc);
        }

        let flops_per_cycle = if s.cycles == 0 { 0.0 } else { s.flops as f64 / s.cycles as f64 };

        let mut j = Json::obj()
            .field("name", self.name.as_str())
            .field("hw", self.hw.as_str())
            .field("workload", self.workload.as_str())
            .field(
                "totals",
                Json::obj()
                    .field("cycles", s.cycles)
                    .field("flops", s.flops)
                    .field("flops_per_cycle", flops_per_cycle)
                    .field("avg_vlen_bits", s.avg_vlen_bits)
                    .field("vec_instrs", net.vpu.vec_instrs)
                    .field("vec_mem_instrs", net.vpu.vec_mem_instrs)
                    .field("scalar_ops", net.vpu.scalar_ops)
                    .field("sw_prefetches", net.vpu.sw_prefetches),
            )
            .field("stalls", stalls_json(&net.stalls))
            .field("caches", caches)
            .field(
                "dram",
                Json::obj().field("reads", mem.dram_reads).field("writes", mem.dram_writes),
            )
            .field("hwpf_issued", mem.hwpf_issued)
            .field("phases", phases)
            .field("layers", Json::Arr(net.layers.iter().map(layer_json).collect()));
        // Optional sections go through one uniform path: each is skipped
        // when absent, so deterministic report files stay byte-identical
        // and new sections cannot invent their own presence rules.
        for (key, section) in [
            ("host", self.host_json()),
            ("whatif", self.whatif.clone()),
            ("energy", self.energy.clone()),
            ("serving", self.serving.clone()),
            ("scaling", self.scaling.clone()),
        ] {
            if let Some(sec) = section {
                j = j.field(key, sec);
            }
        }
        j
    }

    /// Write pretty-printed JSON under `results/<name>.json` (creating the
    /// directory), returning the path.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = Path::new("results");
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        self.save_to(&path)?;
        Ok(path)
    }

    /// Write pretty-printed JSON to an explicit path.
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut body = self.to_json().to_string_pretty();
        body.push('\n');
        fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{HwTarget, Workload};
    use lva_nn::{ConvPolicy, ModelId};

    fn small_run() -> (Experiment, RunSummary) {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(lva_kernels::GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(3) },
        );
        let s = e.run();
        (e, s)
    }

    #[test]
    fn run_report_json_has_required_sections() {
        let (e, s) = small_run();
        let r = RunReport::new("unit_test_report", &e, &s);
        let j = r.to_json().to_string_pretty();
        for key in [
            "\"totals\"",
            "\"stalls\"",
            "\"by_cause\"",
            "\"caches\"",
            "\"layers\"",
            "\"avg_vlen_bits\"",
            "\"hit_rate\"",
            "\"flops_per_cycle\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        // Per-layer stall attribution is complete and sums to the run total.
        let net = &s.report;
        assert_eq!(net.stalls.attributed(), net.stalls.total());
        let per_layer: u64 = net.layers.iter().map(|l| l.stalls.total()).sum();
        assert_eq!(per_layer, net.stalls.total());
        assert!(net.stalls.total() > 0, "a real workload stalls somewhere");
    }

    /// Optional sections (`host`, `whatif`) are opt-in and handled through
    /// one uniform code path: absent by default (so deterministic report
    /// files stay byte-identical across hosts) and emitted when attached.
    #[test]
    fn optional_sections_only_when_attached() {
        let (e, s) = small_run();
        let plain = RunReport::new("t", &e, &s).to_json();
        for key in ["host", "whatif", "energy", "serving", "scaling"] {
            assert!(plain.get(key).is_none(), "optional section {key} present by default");
        }
        let timed = RunReport::new("t", &e, &s).with_host(250.0).to_json();
        let host = timed.get("host").expect("host section after with_host");
        assert_eq!(host.get("host_ms").and_then(Json::as_f64), Some(250.0));
        let want_rate = s.cycles as f64 / 250_000.0;
        assert_eq!(host.get("sim_cycles_per_host_us").and_then(Json::as_f64), Some(want_rate));
        // A zero measurement must not divide by zero.
        let degenerate = RunReport::new("t", &e, &s).with_host(0.0).to_json();
        let rate = degenerate.get("host").and_then(|h| h.get("sim_cycles_per_host_us"));
        assert_eq!(rate.and_then(Json::as_f64), Some(0.0));
        // The whatif payload is carried verbatim.
        let wf = Json::obj().field("bound", "memory");
        let with_wf = RunReport::new("t", &e, &s).with_whatif(wf.clone()).to_json();
        let got = with_wf.get("whatif").expect("whatif section after with_whatif");
        assert_eq!(got.to_string_compact(), wf.to_string_compact());
        // So is the energy payload.
        let en = Json::obj().field("total_j", 1.5e-3);
        let with_en = RunReport::new("t", &e, &s).with_energy(en.clone()).to_json();
        let got = with_en.get("energy").expect("energy section after with_energy");
        assert_eq!(got.to_string_compact(), en.to_string_compact());
        // And the serving payload.
        let sv = Json::obj().field("p99_ms", 4.25).field("deadline_misses", 3u64);
        let with_sv = RunReport::new("t", &e, &s).with_serving(sv.clone()).to_json();
        let got = with_sv.get("serving").expect("serving section after with_serving");
        assert_eq!(got.to_string_compact(), sv.to_string_compact());
        // And the scaling payload.
        let sc = Json::obj().field("cores", 4u64).field("contention_share", 0.31);
        let with_sc = RunReport::new("t", &e, &s).with_scaling(sc.clone()).to_json();
        let got = with_sc.get("scaling").expect("scaling section after with_scaling");
        assert_eq!(got.to_string_compact(), sc.to_string_compact());
    }

    #[test]
    fn run_report_json_round_trips() {
        let (e, s) = small_run();
        let report = RunReport::new("t", &e, &s)
            .with_host(125.0)
            .with_whatif(Json::obj().field("bound", "memory"))
            .with_serving(
                Json::obj()
                    .field("tenant", "yolov3_tiny")
                    .field("latency", Json::obj().field("p50_ms", 1.5).field("p99_ms", 6.0))
                    .field("slo", Json::obj().field("p99_met", true).field("budget_burn", 0.2)),
            );
        let compact = report.to_json().to_string_compact();
        let parsed = Json::parse(&compact).expect("report parses");
        // Parsing preserves field order, so re-serialization is the identity.
        assert_eq!(parsed.to_string_compact(), compact);
        let pretty = report.to_json().to_string_pretty();
        let reparsed = Json::parse(&pretty).expect("pretty report parses");
        assert_eq!(reparsed.to_string_compact(), compact);
        // Spot-check the parsed view sees the same totals the run measured.
        let totals = parsed.get("totals").expect("totals");
        assert_eq!(totals.get("cycles").and_then(Json::as_u64), Some(s.cycles));
        assert_eq!(totals.get("flops").and_then(Json::as_u64), Some(s.flops));
        assert_eq!(
            parsed.get("layers").and_then(Json::as_arr).map(<[Json]>::len),
            Some(s.report.layers.len())
        );
    }

    /// A real energy section survives the JSON round trip and
    /// carries one entry per layer plus the headline totals.
    #[test]
    fn energy_section_round_trips() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 1024, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(lva_kernels::GemmVariant::opt3()),
            Workload { model: ModelId::Yolov3, input_hw: 32, layer_limit: Some(3) },
        );
        let (s, att) = e.run_energy(&crate::EnergyModel::default());
        let report = RunReport::new("t", &e, &s).with_energy(att.to_json());
        let compact = report.to_json().to_string_compact();
        let parsed = Json::parse(&compact).expect("report with energy parses");
        assert_eq!(parsed.to_string_compact(), compact);
        let en = parsed.get("energy").expect("energy section");
        assert_eq!(en.get("total_j").and_then(Json::as_f64), Some(att.total.total_j()));
        assert_eq!(
            en.get("layers").and_then(Json::as_arr).map(<[Json]>::len),
            Some(s.report.layers.len())
        );
        let err = en.get("reconciliation_rel_err").and_then(Json::as_f64).expect("rel err");
        assert!(err < 1e-6, "round-tripped reconciliation error {err}");
    }
}
