//! Shared command-line parsing for every workspace binary.
//!
//! The `exp-*` experiment drivers and the `lint-*` static-analysis tools
//! all speak the same flag dialect (`--jobs`, `--json`, `--trace`, …).
//! Each bin used to re-implement the loop by hand and PR 5/6 had to patch
//! them one at a time for flag parity; [`Opts`] is now the single
//! implementation. Experiment bins call [`Opts::parse`] (the experiment
//! dialect, re-exported as `lva_bench::Opts`); lint tools call
//! [`Opts::parse_tool`] (the `--jobs/--json/--trace` subset). All print
//! `--help` and exit 0, and answer a malformed command line — including a
//! flag the binary does not take — with one line naming the flag and exit
//! 2 (the lint tools' "internal/usage error" code). The parsing itself is
//! [`Opts::try_parse`] / [`Opts::try_parse_tool`], which take the
//! arguments as an iterator and return a [`CliError`].

use std::env;

/// Common options for experiment and lint binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Linear input down-scale divisor (1 = paper-native resolution).
    pub div: usize,
    /// Override the layer prefix length.
    pub layers: Option<usize>,
    /// Write a CSV under `results/`.
    pub csv: bool,
    /// Write machine-readable JSON under `results/`.
    pub json: bool,
    /// Attach an `lva-prof` memory profiler to every run (reuse-distance
    /// histograms, 3C miss classes, hit-rate-vs-capacity curves in the
    /// JSON output). Timing is unchanged.
    pub profile: bool,
    /// Write a Chrome trace-event timeline (Perfetto-loadable) to this path.
    pub chrome: Option<String>,
    /// Worker threads for independent design-point runs (`--jobs N`;
    /// `--jobs 0` means all host cores). 1 = the serial loop.
    pub jobs: usize,
    /// Self-benchmark the simulator's wall-clock (`--wallclock`): run the
    /// sweep serially and with `--jobs`, median-of-3 each, and write a
    /// `BENCH_sim_wallclock.json` report.
    pub wallclock: bool,
    /// Attach the `lva-energy` per-layer attribution to every run's JSON
    /// report (`--with-energy`): one re-run per design point with layer
    /// counters recorded, cycle counts unchanged. Off by default.
    pub energy: bool,
}

/// Which flags a binary takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialect {
    /// The lint tools' subset: `--jobs`, `--json`, `--trace`.
    Tool,
    /// Every experiment flag.
    Experiment,
}

/// Why an `Opts::try_parse*` call returned no options.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h`: print the usage text and exit 0.
    Help,
    /// A malformed command line, as one line naming the flag: print it
    /// and exit 2.
    Usage(String),
}

impl CliError {
    fn exit(self, usage: &str) -> ! {
        match self {
            CliError::Help => {
                eprintln!("{usage}");
                std::process::exit(0);
            }
            CliError::Usage(msg) => {
                eprintln!("{msg}; try --help");
                std::process::exit(2);
            }
        }
    }
}

impl Opts {
    fn defaults(default_div: usize) -> Opts {
        Opts {
            div: default_div,
            layers: None,
            csv: true,
            json: false,
            profile: false,
            chrome: None,
            jobs: 1,
            wallclock: false,
            energy: false,
        }
    }

    /// Parse the experiment dialect from `std::env`; print the usage text
    /// and exit 0 on `--help`, or print the error and exit 2 on a malformed
    /// command line. `default_div` is the experiment's default scale.
    /// `--trace` installs a JSONL telemetry sink for the whole run.
    pub fn parse(default_div: usize, what: &str) -> Opts {
        Self::try_parse(default_div, env::args().skip(1))
            .unwrap_or_else(|e| e.exit(&usage(default_div, what)))
    }

    /// Parse the lint-tool subset (`--jobs N`, `--json`, `--trace FILE`,
    /// `--help`) from `std::env`, exiting like [`Opts::parse`]. Used by
    /// `lint-kernels` and `lint-dataflow`, whose exit codes distinguish
    /// findings (1) from internal/usage errors (2).
    pub fn parse_tool(what: &str) -> Opts {
        Self::try_parse_tool(env::args().skip(1)).unwrap_or_else(|e| {
            e.exit(&format!(
                "{what}\n\nOptions:\n  --jobs N     check design points on N threads (0 = all cores;\n               the report is identical for every N)\n  --json       also save the report under results/\n  --trace FILE stream JSONL telemetry spans to FILE\n\nExit codes: 0 clean, 1 findings, 2 internal/usage error"
            ))
        })
    }

    /// [`Opts::parse`] over explicit arguments (without the program name).
    pub fn try_parse(
        default_div: usize,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Opts, CliError> {
        Self::parse_args(default_div, Dialect::Experiment, args)
    }

    /// [`Opts::parse_tool`] over explicit arguments (without the program
    /// name).
    pub fn try_parse_tool(args: impl IntoIterator<Item = String>) -> Result<Opts, CliError> {
        Self::parse_args(1, Dialect::Tool, args)
    }

    /// The one parser: the lint tools' subset first, then the experiment
    /// flags.
    fn parse_args(
        default_div: usize,
        dialect: Dialect,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Opts, CliError> {
        let tool = dialect == Dialect::Tool;
        let mut opts = Opts::defaults(default_div);
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--jobs" => opts.jobs = parse_jobs(&mut args)?,
                "--json" => opts.json = true,
                "--trace" => install_trace(&mut args)?,
                "--help" | "-h" => return Err(CliError::Help),
                other if tool => return Err(CliError::Usage(format!("unknown option {other}"))),
                "--div" => opts.div = integer(&mut args, "--div", 1)?,
                "--layers" => opts.layers = Some(integer(&mut args, "--layers", 1)?),
                "--no-csv" => opts.csv = false,
                "--csv" => opts.csv = true,
                "--no-json" => opts.json = false,
                "--profile" => opts.profile = true,
                "--wallclock" => opts.wallclock = true,
                "--with-energy" => opts.energy = true,
                "--chrome" => opts.chrome = Some(value(&mut args, "--chrome", "a file path")?),
                other => return Err(CliError::Usage(format!("unknown option {other}"))),
            }
        }
        Ok(opts)
    }
}

/// The `--help` text of an experiment binary.
fn usage(default_div: usize, what: &str) -> String {
    format!(
        "{what}\n\nOptions:\n  --div N      input down-scale divisor (default {default_div}; 1 = paper size)\n  --layers N   layer prefix override (at least 1)\n  --csv/--no-csv  write results/<exp>.csv (default on)\n  --json       also write results/<exp>.json (machine-readable)\n  --profile    tap the cache hierarchy: reuse-distance histograms, 3C\n               miss classes, capacity curves (in the JSON output)\n  --chrome FILE  write a Chrome trace-event timeline (Perfetto) to FILE\n  --trace FILE stream JSONL telemetry spans to FILE\n  --jobs N     run independent design points on N threads (0 = all cores;\n               results and reports are identical to --jobs 1)\n  --wallclock  self-benchmark: time the sweep serial vs --jobs (median of\n               3 each) and write BENCH_sim_wallclock.json\n  --with-energy  attach the lva-energy attribution (per-layer\n               joules, EDP, energy roofline) to the JSON reports"
    )
}

/// The value after `flag`, or a usage error saying what it `needs`.
fn value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    needs: &str,
) -> Result<String, CliError> {
    args.next().ok_or_else(|| CliError::Usage(format!("{flag} needs {needs}")))
}

/// The integer of at least `min` (0 or 1) after `flag`.
fn integer(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    min: usize,
) -> Result<usize, CliError> {
    let needs = if min == 0 { "a non-negative integer" } else { "a positive integer" };
    let v = value(args, flag, needs)?;
    v.parse()
        .ok()
        .filter(|&n| n >= min)
        .ok_or_else(|| CliError::Usage(format!("{flag} needs {needs}, got `{v}`")))
}

/// `--jobs N`, where 0 means all host cores.
fn parse_jobs(args: &mut impl Iterator<Item = String>) -> Result<usize, CliError> {
    let n = integer(args, "--jobs", 0)?;
    Ok(if n == 0 { crate::par::default_jobs() } else { n })
}

fn install_trace(args: &mut impl Iterator<Item = String>) -> Result<(), CliError> {
    let path = value(args, "--trace", "a file path")?;
    lva_trace::enable_to_file(&path)
        .map_err(|e| CliError::Usage(format!("--trace cannot open {path}: {e}")))?;
    eprintln!("[tracing to {path}]");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn well_formed_flags_parse() {
        let o = Opts::try_parse(4, args("--div 8 --layers 1 --no-csv --jobs 3"))
            .expect("valid command line");
        assert_eq!((o.div, o.layers, o.csv, o.jobs), (8, Some(1), false, 3));
        assert_eq!(Opts::try_parse(4, args("")).expect("defaults").div, 4);
        assert_eq!(Opts::try_parse_tool(args("--jobs 2 --json")).expect("tool subset").jobs, 2);
        assert_eq!(Opts::try_parse(4, args("-h")).unwrap_err(), CliError::Help);
        assert_eq!(Opts::try_parse_tool(args("--help")).unwrap_err(), CliError::Help);
    }

    #[test]
    fn malformed_flags_are_one_line_usage_errors_naming_the_flag() {
        let trace = "--trace /nonexistent/dir/t.jsonl";
        for (line, flag) in [
            ("--div 0", "--div"),
            ("--div x", "--div"),
            ("--jobs", "--jobs"),
            ("--layers -1", "--layers"),
            ("--layers 0", "--layers"),
            ("--chrome", "--chrome"),
            (trace, "--trace"),
            ("--bogus", "--bogus"),
        ] {
            let Err(CliError::Usage(msg)) = Opts::try_parse(4, args(line)) else {
                panic!("`{line}` must be a usage error");
            };
            assert!(msg.contains(flag) && !msg.contains('\n'), "`{line}`: {msg}");
        }
        for (line, flag) in [("--jobs x", "--jobs"), ("--div 8", "--div")] {
            let Err(CliError::Usage(msg)) = Opts::try_parse_tool(args(line)) else {
                panic!("`{line}` must be a lint-tool usage error");
            };
            assert!(msg.contains(flag) && !msg.contains('\n'), "`{line}`: {msg}");
        }
    }

    #[test]
    fn retime_is_an_unknown_option() {
        for flag in ["--retime", "--retime=verify", "--retime=off"] {
            for parsed in [Opts::try_parse(8, args(flag)), Opts::try_parse_tool(args(flag))] {
                let Err(CliError::Usage(msg)) = parsed else {
                    panic!("`{flag}` must be an unknown option");
                };
                assert_eq!(msg, format!("unknown option {flag}"));
            }
        }
        assert!(!usage(8, "x").contains("--retime"));
    }
}
