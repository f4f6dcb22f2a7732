//! Metric definitions, a run's record, and its two output forms: the
//! `workload metric value unit` lines plus the one-line JSON result on
//! stdout, and an appended record in `out/results.jsonl`.

use lva_trace::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better: "lower", bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("wall_s", "s", 0.2),
    e2e("cpu_s", "s", 0.2),
    e2e("point_p50_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.05),
    e2e("sim_gcycles", "Gcycles", 0.001),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [MetricDef; 27] = [
    layer("trace.wall_s", "s", "lower"),
    layer("core.run_ms", "ms", "lower"),
    layer("core.functional_ms", "ms", "lower"),
    layer("sim.hierarchy_ms", "ms", "lower"),
    layer("isa.timing_ms", "ms", "lower"),
    layer("retime.recorder_ms", "ms", "lower"),
    layer("retime.layer_memo_saving_ms", "ms", "higher"),
    layer("retime.capture_x_full", "ratio", "lower"),
    layer("isa.vec_instrs_m", "M", "lower"),
    layer("isa.scalar_ops_m", "M", "lower"),
    layer("isa.stall.raw_hazard_mcycles", "Mcycles", "lower"),
    layer("isa.stall.vector_startup_mcycles", "Mcycles", "lower"),
    layer("isa.stall.mem_latency_mcycles", "Mcycles", "lower"),
    layer("isa.stall.lane_occupancy_mcycles", "Mcycles", "lower"),
    layer("isa.stall.issue_width_mcycles", "Mcycles", "lower"),
    layer("isa.stall.contention_mcycles", "Mcycles", "lower"),
    layer("sim.l1.accesses_m", "M", "lower"),
    layer("sim.l2.accesses_m", "M", "lower"),
    layer("sim.vcache.accesses_m", "M", "lower"),
    layer("sim.l1.hit_rate", "ratio", "higher"),
    layer("sim.l2.hit_rate", "ratio", "higher"),
    layer("sim.dram_lines_m", "M", "lower"),
    layer("sim.hwpf_issued_m", "M", "lower"),
    layer("kernels.phase.gemm_mcycles", "Mcycles", "lower"),
    layer("kernels.phase.im2col_mcycles", "Mcycles", "lower"),
    layer("kernels.phase.maxpool_mcycles", "Mcycles", "lower"),
    layer("kernels.phase.other_mcycles", "Mcycles", "lower"),
];

/// Named values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }
}

/// Everything one benchmark run measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed share of the requests and checks attempted.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics the JSON result line carries: the end-to-end set for an
    /// untraced run, the per-layer set for a traced one.
    pub fn declared(&self) -> &'static [MetricDef] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the declared
    /// metrics. A metric a failed run could not measure reads 0; the run
    /// is then not correct.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        let mut complete = true;
        for d in self.declared() {
            let value = self.metrics.get(d.name);
            complete &= value.is_some();
            metrics = metrics.field(
                d.name,
                Json::obj().field("value", value.unwrap_or(0.0)).field("unit", d.unit),
            );
        }
        Json::obj()
            .field("correct", self.correct() && complete)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .to_string_compact()
    }

    /// `workload metric value unit`, one line per metric measured.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.metrics.iter().map(|(n, v, u)| format!("{} {n} {v} {u}", self.workload)).collect();
        out.push(format!("{} fail_rate {} ratio", self.workload, self.fail_rate()));
        out
    }

    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (n, v, u) in self.metrics.iter() {
            metrics = metrics.field(n, Json::obj().field("value", v).field("unit", u));
        }
        Json::obj()
            .field("workload", self.workload.as_str())
            .field("seed", self.seed)
            .field("seconds", self.seconds)
            .field("trace", self.trace)
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }

    /// Parse a record written by [`RunRecord::to_json`].
    pub fn from_json(j: &Json) -> Option<RunRecord> {
        let mut metrics = Metrics::default();
        if let Some(Json::Obj(pairs)) = j.get("metrics") {
            for (name, m) in pairs {
                metrics.push(name, m.get("value")?.as_f64()?, m.get("unit")?.as_str()?);
            }
        }
        Some(RunRecord {
            workload: j.get("workload")?.as_str()?.to_string(),
            seed: j.get("seed")?.as_u64()?,
            seconds: j.get("seconds")?.as_u64()?,
            trace: j.get("trace")?.as_bool()?,
            attempted: j.get("attempted")?.as_u64()?,
            failed: j.get("failed")?.as_u64()?,
            metrics,
        })
    }
}

/// Where runs write their records and spans: `out/` next to this
/// package's manifest, wherever the command is started from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Append one record to `out/results.jsonl`.
pub fn append_record(r: &RunRecord) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("results.jsonl");
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
    writeln!(f, "{}", r.to_json().to_string_compact())?;
    f.sync_all()?;
    Ok(path)
}

/// Read every record of a results file (blank and unparsable lines are
/// reported as errors).
pub fn read_records(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            Json::parse(l)
                .ok()
                .as_ref()
                .and_then(RunRecord::from_json)
                .ok_or_else(|| format!("{}:{}: not a run record", path.display(), i + 1))
        })
        .collect()
}
