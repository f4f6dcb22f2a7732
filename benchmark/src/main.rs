//! `lva-benchmark` — see README.md next to this package.

use lva_benchmark::compare::{load_rules, print_comparison};
use lva_benchmark::report::{append_record, read_records};
use lva_benchmark::workloads::{run_named, NAMES};
use lva_trace::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage: lva-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       lva-benchmark compare A.jsonl B.jsonl [--bench BENCHMARK.json]
workloads: headline_full retime_unseen serve_ladder soc_contention (default: all four,
each in a fresh child process)";

#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts { workload: None, seed: 42, seconds: 15, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                o.workload = Some(w.clone());
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Run one workload in this process: metric lines, then the JSON result
/// as the last line of stdout. Exits 0 even when a check failed; the
/// result line says so.
fn single(name: &str, o: &Opts) -> i32 {
    let rec = run_named(name, o.seed, o.seconds, o.trace).expect("name validated by parse");
    for l in rec.lines() {
        println!("{l}");
    }
    if let Err(e) = append_record(&rec) {
        eprintln!("could not append the run record: {e}");
    }
    println!("{}", rec.result_line());
    0
}

/// Run every workload, each in a fresh child process (untraced, then
/// traced when asked, which also gives the tracing overhead).
fn all(o: &Opts) -> i32 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    for name in NAMES {
        let mut wall = [None, None];
        for (slot, trace) in [false, true].into_iter().enumerate().take(1 + usize::from(o.trace)) {
            let out = Command::new(&exe)
                .args(["--workload", name, "--seed", &o.seed.to_string()])
                .args([
                    "--seconds",
                    &o.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stderr(Stdio::inherit())
                .output();
            let stdout = out.as_ref().map(|r| String::from_utf8_lossy(&r.stdout).into_owned());
            let mut lines: Vec<&str> = stdout.as_deref().unwrap_or_default().lines().collect();
            let result = lines.pop().and_then(|l| Json::parse(l).ok());
            for l in lines {
                println!("{l}");
            }
            let Some(j) = result.filter(|_| out.as_ref().is_ok_and(|r| r.status.success())) else {
                eprintln!("[{name}] child run failed");
                ok = false;
                continue;
            };
            ok &= j.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += j.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += j.get("failed").and_then(Json::as_u64).unwrap_or(0);
            let key = if trace { "trace.wall_s" } else { "wall_s" };
            wall[slot] = j
                .get("metrics")
                .and_then(|m| m.get(key))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
        }
        if let [Some(plain), Some(traced)] = wall {
            println!("{name} trace.overhead_s {} s", traced - plain);
        }
    }
    println!(
        "{}",
        Json::obj()
            .field("correct", ok)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("workloads", NAMES.len())
            .to_string_compact()
    );
    i32::from(!ok)
}

fn compare(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.len()) {
            ("--bench", 1..) => bench = PathBuf::from(it.next().expect("checked length")),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let loaded = (|| Ok::<_, String>((read_records(a)?, read_records(b)?, load_rules(&bench)?)))();
    match loaded {
        Ok((ra, rb, rules)) => i32::from(!print_comparison(&ra, &rb, &rules)),
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare(&args[1..])
    } else {
        match parse(&args) {
            Ok(o) => match &o.workload {
                Some(name) => single(name, &o),
                None => all(&o),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}
