//! The registry of report kinds. One row per record tag gives the record's
//! file, its markdown renderer and output path, and the drift rules
//! `bench-diff` walks ([`crate::diff`]). The `exp-*` observatories publish
//! through it, `report` renders through it and `bench-diff` gates through
//! it; none of them branches on a tag.

use std::path::Path;

use crate::diff::Rule;
use crate::{codesign_markdown, pareto_markdown, scaling_markdown, serving_markdown, Json};
use lva_depgraph::dataflow_markdown;

/// A pure record-to-markdown renderer.
pub type Renderer = fn(&Json) -> String;

/// One report kind.
pub struct Kind {
    /// The record's `bench` tag (`tool` tag for the lint tools).
    pub tag: &'static str,
    /// Where the producer writes the record.
    pub record: &'static str,
    /// The markdown renderer and the committed file it renders to.
    pub render: Option<(Renderer, &'static str)>,
    /// Drift rules; empty when CI gates the kind by determinism alone.
    pub rules: &'static [Rule],
}

/// Every report kind, with today's drift policy.
pub static KINDS: &[Kind] = &[
    Kind {
        tag: "headline",
        record: "BENCH_headline.json",
        render: None,
        rules: &[
            Rule::rel("runs[name].totals.cycles", 2.0),
            Rule::rel("runs[name].stalls.total", 10.0),
            Rule::abs("runs[name].caches.*.hit_rate", 0.01).lower_is_worse(),
            Rule::rel("runs[name].layers[#].cycles", 5.0),
        ],
    },
    Kind {
        tag: "energy",
        record: "BENCH_energy.json",
        render: Some((pareto_markdown, "results/PARETO.md")),
        rules: &[
            Rule::fixed("networks[name].cycles_optimal"),
            Rule::fixed("networks[name].edp_optimal"),
            Rule::rel("networks[name].points[name].cycles", 2.0),
            Rule::rel("networks[name].points[name].total_j", 2.0),
            // EDP compounds the cycle and energy drifts.
            Rule::rel("networks[name].points[name].edp_js", 4.0),
        ],
    },
    Kind {
        tag: "serving",
        record: "BENCH_serving.json",
        render: Some((serving_markdown, "results/SERVING.md")),
        rules: &[
            Rule::fixed("slo_recommendation.recommended.point"),
            Rule::rel("points[name].loads[#intensity].overall.p50_ms", 2.0),
            // The tail sits on log-bucket edges; the looser gate absorbs a
            // sample stepping one sub-bucket.
            Rule::rel("points[name].loads[#intensity].overall.p99_ms", 5.0),
            Rule::exact("points[name].loads[#intensity].overall.deadline_misses"),
        ],
    },
    Kind {
        tag: "scaling",
        record: "BENCH_scaling.json",
        render: Some((scaling_markdown, "results/SCALING.md")),
        rules: &[
            Rule::fixed("networks[name].points[name].curves[sharding].advice.knee_cores"),
            Rule::fixed("networks[name].points[name].curves[sharding].advice.lever"),
            Rule::rel(
                "networks[name].points[name].curves[sharding].cells[#cores].throughput_fpkc",
                2.0,
            )
            .lower_is_worse(),
            Rule::rel(
                "networks[name].points[name].curves[sharding].cells[#cores].stall_shares.*",
                10.0,
            )
            .above(0.001),
        ],
    },
    Kind {
        tag: "whatif",
        record: "BENCH_whatif.json",
        render: Some((codesign_markdown, "results/CODESIGN_REPORT.md")),
        rules: &[],
    },
    Kind {
        tag: "lint-dataflow",
        record: "results/lint-dataflow.json",
        render: Some((dataflow_markdown, "results/DATAFLOW.md")),
        rules: &[],
    },
];

/// The registered kind of a record, by its `bench` or `tool` tag. Records
/// written before the tag existed are headline-shaped, so an untagged
/// record is a headline record.
pub fn kind_of(record: &Json) -> Result<&'static Kind, String> {
    let tag = record.get("bench").or_else(|| record.get("tool")).and_then(Json::as_str);
    let tag = tag.unwrap_or("headline");
    KINDS.iter().find(|k| k.tag == tag).ok_or_else(|| {
        let known: Vec<&str> = KINDS.iter().map(|k| k.tag).collect();
        format!("unknown report kind \"{tag}\" (known kinds: {})", known.join(", "))
    })
}

/// Read and parse a JSON record, with a one-line error for the CLI.
pub fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// Render the record at `input` to `output` (default: the kind's committed
/// markdown path) and return the path written — the `report` binary.
/// Nothing is written unless the record is readable and its kind renders.
pub fn render(input: &str, output: Option<&str>) -> Result<String, String> {
    let record = load(input)?;
    let kind = kind_of(&record).map_err(|e| format!("{input}: {e}"))?;
    let Some((renderer, default_out)) = kind.render else {
        let renderable: Vec<&str> =
            KINDS.iter().filter(|k| k.render.is_some()).map(|k| k.tag).collect();
        return Err(format!(
            "{input}: \"{}\" records have no markdown renderer (renderable kinds: {})",
            kind.tag,
            renderable.join(", ")
        ));
    };
    let output = output.unwrap_or(default_out);
    save(output, renderer(&record)).map_err(|e| format!("cannot write {output}: {e}"))?;
    Ok(output.to_string())
}

/// Write `record` to its kind's record file and render its markdown: the
/// shared tail of the `exp-*` observatories. Write failures are reported,
/// not fatal — the printed table is still worth having.
pub fn publish(record: &Json) {
    let kind = kind_of(record).expect("published records carry a registered tag");
    let mut body = record.to_string_pretty();
    body.push('\n');
    let mut outputs = vec![(kind.record, body)];
    if let Some((renderer, path)) = kind.render {
        outputs.push((path, renderer(record)));
    }
    for (path, body) in outputs {
        match save(path, body) {
            Ok(()) => println!("[saved {path}]"),
            Err(e) => eprintln!("could not save {path}: {e}"),
        }
    }
}

fn save(path: &str, body: String) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{inject, walk};

    /// The committed baselines, the records CI gates against.
    const BASELINES: [(&str, &str); 4] = [
        ("headline", include_str!("../../../results/baseline_headline.json")),
        ("energy", include_str!("../../../results/baseline_energy.json")),
        ("serving", include_str!("../../../results/baseline_serving.json")),
        ("scaling", include_str!("../../../results/baseline_scaling.json")),
    ];

    /// A scratch path unique to this test process and `name`.
    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("lva-observatory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn committed_baselines_pass_against_themselves_and_trip_on_injection() {
        for ((tag, text), want) in BASELINES.into_iter().zip([228, 112, 61, 212]) {
            let base = Json::parse(text).expect("baseline parses");
            let kind = kind_of(&base).expect("registered kind");
            assert_eq!(kind.tag, tag);
            let d = walk(kind.rules, &base, &base);
            assert!(d.is_pass() && d.findings.is_empty(), "{tag}: {:?}", d.findings);
            assert_eq!(d.compared, want, "{tag}: comparison count");
            let mut cur = base.clone();
            inject(kind.rules, &mut cur, 6.0);
            let d = walk(kind.rules, &base, &cur);
            assert!(!d.is_pass() && d.structural() == 0, "{tag}: --inject 6 must trip the gate");
            if tag == "headline" {
                assert_eq!(d.regressions(), 197, "9 totals + 188 layers");
            }
        }
    }

    #[test]
    fn records_render_to_their_kinds_report() {
        // The committed PARETO.md is the full-size grid; SERVING.md and
        // SCALING.md are rendered from the very baselines CI gates on.
        let committed = [
            ("results/PARETO.md", None),
            ("results/SERVING.md", Some(include_str!("../../../results/SERVING.md"))),
            ("results/SCALING.md", Some(include_str!("../../../results/SCALING.md"))),
        ];
        for ((tag, text), (path, md)) in BASELINES[1..].iter().zip(committed) {
            let record = Json::parse(text).expect("baseline parses");
            let (renderer, default_out) = kind_of(&record).ok().and_then(|k| k.render).expect(tag);
            assert_eq!(default_out, path);
            let (input, output) = (scratch(&format!("{tag}.json")), scratch(&format!("{tag}.md")));
            std::fs::write(&input, text).expect("write record");
            assert_eq!(render(&input, Some(&output)), Ok(output.clone()));
            let rendered = std::fs::read_to_string(&output).expect("rendered");
            assert_eq!(rendered, renderer(&record), "{tag}");
            assert!(md.is_none_or(|md| md == rendered), "{tag}: committed report drifted");
        }
        let dataflow = kind_of(&Json::obj().field("tool", "lint-dataflow")).expect("tool tag");
        assert_eq!(dataflow.render.map(|r| r.1), Some("results/DATAFLOW.md"));
    }

    #[test]
    fn unknown_or_unrenderable_kinds_write_nothing() {
        for (name, record) in [
            ("wallclock", Json::obj().field("bench", "sim_wallclock")),
            ("untagged", Json::obj().field("runs", Json::Arr(vec![]))),
            ("headline", Json::obj().field("bench", "headline")),
        ] {
            let (input, output) =
                (scratch(&format!("{name}.json")), scratch(&format!("{name}.md")));
            std::fs::write(&input, record.to_string_pretty()).expect("write record");
            let err = render(&input, Some(&output)).expect_err(name);
            assert!(err.contains("energy, serving, scaling, whatif, lint-dataflow"), "{err}");
            assert!(!Path::new(&output).exists(), "{name}: nothing may be written");
        }
    }

    #[test]
    fn unreadable_or_invalid_input_is_an_error() {
        let missing = scratch("does-not-exist.json");
        assert!(load(&missing).expect_err("missing").starts_with("cannot read"));
        let garbage = scratch("garbage.json");
        std::fs::write(&garbage, "{\"bench\": ").expect("write");
        let output = scratch("garbage.md");
        let err = render(&garbage, Some(&output)).expect_err("invalid JSON");
        assert!(err.contains("is not valid JSON"), "{err}");
        assert!(!Path::new(&output).exists());
    }
}
