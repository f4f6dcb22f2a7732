//! Shared command-line parsing for every workspace binary.
//!
//! The `exp-*` experiment drivers and the `lint-*` static-analysis tools
//! share one parser, [`Opts::parse`]. Each binary names its [`Dialect`],
//! the flags it reads (`--jobs`, `--json`, `--div`, …). All print `--help`
//! (listing only those flags) and exit 0, and answer a malformed command
//! line — including a flag the binary does not read — with one line naming
//! the flag and exit 2 (the lint tools' "internal/usage error" code). The
//! parsing itself is [`Opts::try_parse`], which takes the arguments as an
//! iterator and returns a [`CliError`]; it has no side effects.

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
    /// Self-benchmark the simulator's wall-clock (`--wallclock`): capture,
    /// run the sweep serially and with `--jobs`, and tape-refit it, three
    /// passes, and write a `BENCH_sim_wallclock.json` report.
    pub wallclock: bool,
    /// Attach the `lva-energy` per-layer attribution to every run's JSON
    /// report (`--with-energy`): one re-run per design point with layer
    /// counters recorded, cycle counts unchanged. Off by default.
    pub energy: bool,
}

/// Which flags a binary reads. Each dialect takes every flag of the ones
/// before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dialect {
    /// The lint tools: `--jobs`, `--json`.
    Tool,
    /// Every experiment binary: adds `--div`, `--layers`, `--csv`,
    /// `--no-csv` and `--no-json`.
    Experiment,
    /// Binaries that write a Chrome timeline (`exp-scale`, `exp-serve`):
    /// adds `--chrome FILE`.
    Timeline,
    /// `exp-headline`: adds `--profile`, `--wallclock` and `--with-energy`.
    Headline,
}

/// Why an `Opts::try_parse` call returned no options.
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

    /// Parse `dialect` from `std::env`; print the usage text and exit 0 on
    /// `--help`, or print the error and exit 2 on a malformed command line.
    /// `default_div` is the experiment's default scale (a lint tool takes
    /// no `--div`). `what` heads the usage text.
    pub fn parse(dialect: Dialect, default_div: usize, what: &str) -> Opts {
        Self::try_parse(dialect, default_div, env::args().skip(1))
            .unwrap_or_else(|e| e.exit(&usage(dialect, default_div, what)))
    }

    /// [`Opts::parse`] over explicit arguments (without the program name).
    pub fn try_parse(
        dialect: Dialect,
        default_div: usize,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Opts, CliError> {
        let unknown = |flag: &str| Err(CliError::Usage(format!("unknown option {flag}")));
        let mut opts = Opts::defaults(default_div);
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--jobs" => opts.jobs = parse_jobs(&mut args)?,
                "--json" => opts.json = true,
                "--help" | "-h" => return Err(CliError::Help),
                other if dialect < Dialect::Experiment => return unknown(other),
                "--div" => opts.div = integer(&mut args, "--div", 1)?,
                "--layers" => opts.layers = Some(integer(&mut args, "--layers", 1)?),
                "--no-csv" => opts.csv = false,
                "--csv" => opts.csv = true,
                "--no-json" => opts.json = false,
                other if dialect < Dialect::Timeline => return unknown(other),
                "--chrome" => opts.chrome = Some(value(&mut args, "--chrome", "a file path")?),
                other if dialect < Dialect::Headline => return unknown(other),
                "--profile" => opts.profile = true,
                "--wallclock" => opts.wallclock = true,
                "--with-energy" => opts.energy = true,
                other => return unknown(other),
            }
        }
        Ok(opts)
    }
}

/// The `--help` text of a binary speaking `dialect`: its flags only.
fn usage(dialect: Dialect, default_div: usize, what: &str) -> String {
    if dialect == Dialect::Tool {
        return format!(
            "{what}\n\nOptions:\n  --jobs N     check design points on N threads (0 = all cores;\n               the report is identical for every N)\n  --json       also save the report under results/\n\nExit codes: 0 clean, 1 findings, 2 internal/usage error"
        );
    }
    let mut text = format!(
        "{what}\n\nOptions:\n  --div N      input down-scale divisor (default {default_div}; 1 = paper size)\n  --layers N   layer prefix override (at least 1)\n  --csv/--no-csv  write results/<exp>.csv (default on)\n  --json       also write results/<exp>.json (machine-readable)\n  --jobs N     run independent design points on N threads (0 = all cores;\n               results and reports are identical to --jobs 1)"
    );
    if dialect >= Dialect::Timeline {
        text.push_str("\n  --chrome FILE  write a Chrome trace-event timeline (Perfetto) to FILE");
    }
    if dialect >= Dialect::Headline {
        text.push_str("\n  --profile    tap the cache hierarchy: reuse-distance histograms, 3C\n               miss classes, capacity curves (in the JSON output)\n  --wallclock  self-benchmark: time capture, the sweep serial and with\n               --jobs, and tape refit (3 passes); write BENCH_sim_wallclock.json\n  --with-energy  attach the lva-energy attribution (per-layer\n               joules, EDP, energy roofline) to the JSON reports");
    }
    text
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

#[cfg(test)]
mod tests {
    use super::Dialect::{Experiment, Headline, Timeline, Tool};
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn well_formed_flags_parse() {
        let o = Opts::try_parse(Experiment, 4, args("--div 8 --layers 1 --no-csv --jobs 3"))
            .expect("valid command line");
        assert_eq!((o.div, o.layers, o.csv, o.jobs), (8, Some(1), false, 3));
        assert_eq!(Opts::try_parse(Experiment, 4, args("")).expect("defaults").div, 4);
        assert_eq!(Opts::try_parse(Tool, 1, args("--jobs 2 --json")).expect("tool subset").jobs, 2);
        let o = Opts::try_parse(Timeline, 4, args("--chrome t.json")).expect("timeline flags");
        assert_eq!(o.chrome.as_deref(), Some("t.json"));
        let o =
            Opts::try_parse(Headline, 4, args("--profile --chrome t --wallclock --with-energy"))
                .expect("headline flags");
        assert!(o.profile && o.wallclock && o.energy && o.chrome.is_some());
        assert_eq!(Opts::try_parse(Experiment, 4, args("-h")).unwrap_err(), CliError::Help);
        assert_eq!(Opts::try_parse(Tool, 1, args("--help")).unwrap_err(), CliError::Help);
    }

    #[test]
    fn malformed_flags_are_one_line_usage_errors_naming_the_flag() {
        let usage_error = |dialect: Dialect, line: &str, flag: &str| {
            let Err(CliError::Usage(msg)) = Opts::try_parse(dialect, 4, args(line)) else {
                panic!("`{line}` must be a {dialect:?} usage error");
            };
            assert!(msg.contains(flag) && !msg.contains('\n'), "`{line}`: {msg}");
        };
        for dialect in [Experiment, Timeline, Headline] {
            for (line, flag) in [
                ("--div 0", "--div"),
                ("--div x", "--div"),
                ("--jobs", "--jobs"),
                ("--layers -1", "--layers"),
                ("--layers 0", "--layers"),
                ("--chrome", "--chrome"),
                ("--bogus", "--bogus"),
            ] {
                usage_error(dialect, line, flag);
            }
        }
        for (line, flag) in [("--jobs x", "--jobs"), ("--div 8", "--div")] {
            usage_error(Tool, line, flag);
        }
        // A flag the binary never reads is refused, and its help omits it.
        let headline_only = ["--profile", "--wallclock", "--with-energy"];
        for (dialect, unread) in [
            (Tool, &["--div", "--layers", "--no-csv", "--chrome", "--profile"][..]),
            (Experiment, &["--chrome", "--profile", "--wallclock", "--with-energy"]),
            (Timeline, &headline_only),
        ] {
            for flag in unread {
                usage_error(dialect, &format!("{flag} x.json"), flag);
                assert!(!usage(dialect, 4, "x").contains(flag), "{dialect:?} help lists {flag}");
            }
        }
    }

    #[test]
    fn retime_and_trace_are_unknown_options() {
        for line in ["--retime", "--retime=verify", "--retime=off", "--trace", "--trace t.jsonl"] {
            let flag = line.split(' ').next().expect("a flag");
            for dialect in [Tool, Experiment, Timeline, Headline] {
                let Err(CliError::Usage(msg)) = Opts::try_parse(dialect, 8, args(line)) else {
                    panic!("`{line}` must be an unknown option");
                };
                assert_eq!(msg, format!("unknown option {flag}"));
                let help = usage(dialect, 8, "x");
                assert!(!help.contains("--retime") && !help.contains("--trace"), "{help}");
            }
        }
    }
}
