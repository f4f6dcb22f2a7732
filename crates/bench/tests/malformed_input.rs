//! Seeded fuzzing of the public parsers: the Darknet cfg parser, the JSON
//! parser, and the `bench-diff`/`report` paths over JSON records. Every
//! corrupted input must come back as an `Err` or a rendered result, never
//! as a panic.
//!
//! Inputs are the committed corpora: the five network cfgs under
//! `crates/nn/cfg/` and the four `results/baseline_*.json` records. The
//! mutations are drawn from `lva_sim::Rng` (SplitMix64) with fixed seeds,
//! so every run checks the same cases and a failure names the seed that
//! reproduces it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lva_bench::diff::walk;
use lva_bench::observatory::{kind_of, KINDS};
use lva_bench::Json;
use lva_sim::Rng;

const CFGS: [&str; 5] =
    ["yolov3.cfg", "yolov3-tiny.cfg", "vgg16.cfg", "resnet50.cfg", "mobilenet-v1.cfg"];
const BASELINES: [&str; 4] = ["headline", "energy", "serving", "scaling"];

/// Byte mutations per input file and mutation kind.
const BYTE_CASES: u64 = 100;
/// Structural mutations per baseline.
const STRUCT_CASES: u64 = 150;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn corpus() -> Vec<(String, String)> {
    let cfgs = CFGS.iter().map(|f| (f.to_string(), read(&format!("../nn/cfg/{f}"))));
    let records = BASELINES.iter().map(|k| {
        let f = format!("baseline_{k}.json");
        let text = read(&format!("../../results/{f}"));
        (f, text)
    });
    cfgs.chain(records).collect()
}

/// Run `f`, turning a panic into a test failure that names the case.
fn must_not_panic(case: &str, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!("panicked on {case}");
    }
}

/// Bytes a mutation writes: structural characters of both formats, digits,
/// letters, whitespace, and arbitrary bytes (invalid UTF-8 is replaced).
fn random_byte(rng: &mut Rng) -> u8 {
    const INTERESTING: &[u8] = b"[]{}\",:=#-+.eE0123456789 \n\t\\/xyz";
    if rng.gen_bool(0.75) {
        INTERESTING[rng.gen_index(0, INTERESTING.len())]
    } else {
        rng.gen_range(0, 256) as u8
    }
}

/// Apply byte mutation `kind` (0..4) to `text`: truncate, delete a span,
/// overwrite a few bytes, or insert a long digit run.
fn mutate_bytes(text: &str, kind: u64, rng: &mut Rng) -> String {
    let mut b = text.as_bytes().to_vec();
    let at = rng.gen_index(0, b.len() + 1);
    match kind {
        0 => b.truncate(at),
        1 => {
            let end = (at + rng.gen_index(1, 200)).min(b.len());
            b.drain(at..end);
        }
        2 => {
            for _ in 0..rng.gen_index(1, 9) {
                let i = rng.gen_index(0, b.len());
                b[i] = random_byte(rng);
            }
        }
        _ => {
            let run: Vec<u8> =
                (0..rng.gen_index(20, 400)).map(|_| b'0' + rng.gen_index(0, 10) as u8).collect();
            b.splice(at..at, run);
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

#[test]
fn byte_mutations_of_cfgs_and_records_are_errors_not_panics() {
    for (name, text) in corpus() {
        for kind in 0..4 {
            for seed in 0..BYTE_CASES {
                let mut rng = Rng::new(seed ^ (kind << 32) ^ 0xf022);
                let bad = mutate_bytes(&text, kind, &mut rng);
                must_not_panic(&format!("{name}, byte mutation {kind}, seed {seed}"), || {
                    if let Ok((specs, shape)) = lva_nn::parse_cfg(&bad) {
                        let _ = lva_nn::network::check_shapes(&specs, shape);
                    }
                    let _ = Json::parse(&bad);
                });
            }
        }
    }
}

/// Child-index paths of every node of `j` for which `want` holds.
fn paths(j: &Json, want: fn(&Json) -> bool) -> Vec<Vec<usize>> {
    fn go(j: &Json, at: &mut Vec<usize>, want: fn(&Json) -> bool, out: &mut Vec<Vec<usize>>) {
        if want(j) {
            out.push(at.clone());
        }
        let kids: Vec<&Json> = match j {
            Json::Arr(a) => a.iter().collect(),
            Json::Obj(o) => o.iter().map(|(_, v)| v).collect(),
            _ => Vec::new(),
        };
        for (i, k) in kids.into_iter().enumerate() {
            at.push(i);
            go(k, at, want, out);
            at.pop();
        }
    }
    let mut out = Vec::new();
    go(j, &mut Vec::new(), want, &mut out);
    out
}

fn node_mut<'a>(j: &'a mut Json, path: &[usize]) -> &'a mut Json {
    path.iter().fold(j, |n, &i| match n {
        Json::Arr(a) => &mut a[i],
        Json::Obj(o) => &mut o[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// A value of a different type than `old`.
fn wrong_type(old: &Json, rng: &mut Rng) -> Json {
    let choices = [
        Json::Null,
        Json::Bool(true),
        Json::UInt(u64::MAX),
        Json::Int(-1),
        Json::Num(-0.5),
        Json::Str("x".to_string()),
        Json::Arr(Vec::new()),
        Json::obj(),
    ];
    loop {
        let c = &choices[rng.gen_index(0, choices.len())];
        if std::mem::discriminant(c) != std::mem::discriminant(old) {
            return c.clone();
        }
    }
}

/// Apply one structural mutation (0..4): drop an object key, replace a
/// node with a value of another type, shorten an array, or duplicate its
/// elements. Returns false when the record has no node of the needed shape.
fn mutate_structure(j: &mut Json, kind: u64, rng: &mut Rng) -> bool {
    let want: fn(&Json) -> bool = match kind {
        0 => |n| matches!(n, Json::Obj(o) if !o.is_empty()),
        1 => |_| true,
        _ => |n| matches!(n, Json::Arr(a) if !a.is_empty()),
    };
    let candidates = paths(j, want);
    if candidates.is_empty() {
        return false;
    }
    let node = node_mut(j, &candidates[rng.gen_index(0, candidates.len())]);
    match (kind, node) {
        (0, Json::Obj(o)) => {
            o.remove(rng.gen_index(0, o.len()));
        }
        (1, n) => *n = wrong_type(n, rng),
        (2, Json::Arr(a)) => a.truncate(rng.gen_index(0, a.len())),
        (_, Json::Arr(a)) => {
            let copy = a.clone();
            if rng.gen_bool(0.5) {
                a.extend(copy);
            } else {
                let i = rng.gen_index(0, a.len());
                a.insert(i, copy[i].clone());
            }
        }
        _ => unreachable!("candidates match the mutation kind"),
    }
    true
}

#[test]
fn structural_mutations_of_records_are_handled_by_diff_and_renderers() {
    for k in BASELINES {
        let base = Json::parse(&read(&format!("../../results/baseline_{k}.json")))
            .unwrap_or_else(|e| panic!("baseline_{k}.json must parse: {e}"));
        let rules = kind_of(&base).expect("baselines carry a registered kind").rules;
        for seed in 0..STRUCT_CASES {
            let mut rng = Rng::new(seed ^ 0x57c7);
            let mut bad = base.clone();
            let mut applied = 0;
            for _ in 0..rng.gen_index(1, 4) {
                applied += u64::from(mutate_structure(&mut bad, rng.gen_range(0, 4), &mut rng));
            }
            assert!(applied > 0, "baseline_{k}.json seed {seed}: no mutation applied");
            must_not_panic(&format!("baseline_{k}.json, structural seed {seed}"), || {
                let _ = walk(rules, &base, &bad);
                let _ = walk(rules, &bad, &base);
                for (render, _) in KINDS.iter().filter_map(|kind| kind.render) {
                    let _ = render(&bad);
                }
            });
        }
    }
}
