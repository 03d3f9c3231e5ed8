//! The HARP stack's reference benchmark: five workloads, end-to-end and
//! per-layer metrics, one correctness oracle. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! harp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! harp-benchmark run [--seed <n>] [--seconds <s>] [--traced] [--quick]
//! harp-benchmark check-repeat [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, the last line being the result as one JSON object. `run`
//! runs all five, each in a fresh child process; `check-repeat` runs the
//! set on two interleaved sides and fails if the same code's two medians
//! disagree beyond the benchmark's own bounds.

mod counted;
mod daemon_wl;
mod inputs;
mod layers;
mod mirror;
mod online_wl;
mod paper_wl;
mod spans;
mod spec;
mod stats;
mod tap;

use spec::{Better, Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: counted::CountingAlloc = counted::CountingAlloc;

/// What one workload run is asked to do.
pub struct RunArgs {
    pub seed: u64,
    /// Measured seconds (the warm-up is a tenth of it, on top).
    pub seconds: f64,
    pub trace: bool,
    /// 1/50 sizes, one set-up, oracle only.
    pub quick: bool,
    /// Sockets and journals; relative to the working directory where
    /// possible, because a Unix socket path holds 108 bytes.
    pub scratch: PathBuf,
    /// Where traced runs leave their span files.
    pub out_dir: PathBuf,
}

impl RunArgs {
    /// Whether a run that has made `done` set-ups taking `spent_s` in
    /// total makes another. The median is `setup_s`: three at least, five
    /// unless they take seconds, and up to 25 while they are cheap, so
    /// that a set-up of a few milliseconds is not one scheduler hiccup
    /// away from a different median.
    pub fn another_setup(&self, done: usize, spent_s: f64) -> bool {
        if self.quick {
            return done < 1;
        }
        done < 3 || (done < 5 && spent_s < 2.0) || (done < 25 && spent_s < 0.5)
    }
}

/// What one workload run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle breaches, in discovery order. Any makes the run incorrect.
    pub violations: Vec<String>,
    pub e2e: Values,
    pub layers: Values,
    /// Sample counts, ranges, decompositions: printed, not parsed.
    pub notes: Vec<String>,
}

fn run_workload(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "churn_idle" => daemon_wl::run(&daemon_wl::CHURN_IDLE, args),
        "churn_contended" => daemon_wl::run(&daemon_wl::CHURN_CONTENDED, args),
        "fanout_oversub" => daemon_wl::run(&daemon_wl::FANOUT_OVERSUB, args),
        "online_ticks" => online_wl::run(args),
        "paper_outcome" => paper_wl::run(args),
        _ => return None,
    })
}

/// Where a run leaves its files (sockets, journals, span traces):
/// `$CARGO_TARGET_DIR/benchmark` when cargo names a target directory (the
/// driver does), else `target/benchmark` under the working directory.
/// Relative to the working directory where possible: a Unix socket path
/// holds 108 bytes.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("benchmark");
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map_or(dir.clone(), PathBuf::from),
        Err(_) => dir,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome, trace: bool) -> String {
    let entry = |name: &str, unit: &str, v: f64| {
        format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        )
    };
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|m| entry(m.name, m.unit, out.layers.get(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| entry(m.name, m.unit, out.e2e.get(m.name).unwrap_or(1.0)))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn print_outcome(workload: &str, out: &Outcome, args: &RunArgs) {
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}{}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick {
            "  (quick: oracle only, no timing claims)"
        } else {
            ""
        }
    );
    for m in &END_TO_END {
        if let Some(v) = out.e2e.get(m.name) {
            println!(
                "  {:<18} {:>14.4} {:<5} ({} is better, bound {})",
                m.name,
                v,
                m.unit,
                m.better.as_str(),
                m.bound
            );
        }
    }
    if args.trace {
        for m in &PER_LAYER {
            let v = out.layers.get(m.name).unwrap_or(0.0);
            println!("  {:<38} {:>14.4} {}", m.name, v, m.unit);
        }
    }
    println!(
        "  failed_share {} of {} attempted",
        out.failed,
        out.attempted.max(1)
    );
    for n in &out.notes {
        println!("  note: {n}");
    }
    for v in &out.violations {
        println!("  ORACLE: {v}");
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_flags(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => cli.trace = true,
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload here; prints the human-readable block and the
/// result line. Exit 0 when the run completed (a failed oracle shows in
/// `correct`/`failed`, and in `run`'s exit code), 2 on unusable input.
fn single(cli: &Cli) -> ExitCode {
    let name = cli.workload.as_deref().unwrap_or_default();
    // The instrument checks itself before anything is measured (and
    // before any other thread exists).
    if let Err(e) = counted::selftest() {
        eprintln!("counted-work self-test failed: {e}");
        return ExitCode::from(2);
    }
    let out_dir = out_dir();
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: if cli.quick {
            cli.seconds / 50.0
        } else {
            cli.seconds
        },
        trace: cli.trace,
        quick: cli.quick,
        scratch,
        out_dir,
    };
    let out = run_workload(name, &args);
    let _ = std::fs::remove_dir_all(&args.scratch);
    let Some(out) = out else {
        eprintln!(
            "unknown workload {name:?}; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    print_outcome(name, &out, &args);
    println!("{}", result_json(&out, cli.trace));
    ExitCode::SUCCESS
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn parse_result(line: &str) -> Option<ChildResult> {
    let doc = harp_obs::json::parse(line).ok()?;
    let metrics = doc
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(ChildResult {
        correct: doc.get("correct")?.as_bool()?,
        metrics,
    })
}

/// Runs `workload` in a fresh child process of this executable, echoing
/// its output.
fn child(workload: &str, cli: &Cli, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().ok()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop()?;
    for l in lines {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return None;
    }
    parse_result(last)
}

/// Runs the five workloads (untraced, then traced if asked). Returns the
/// untraced results per workload, or `None` if any run was incorrect.
fn run_set(cli: &Cli, order: &[usize]) -> Option<Vec<(usize, ChildResult)>> {
    let mut ok = true;
    let mut results = Vec::new();
    for &i in order {
        let w = WORKLOADS[i].name;
        match child(w, cli, false) {
            Some(r) => {
                ok &= r.correct;
                results.push((i, r));
            }
            None => ok = false,
        }
        if cli.trace {
            ok &= child(w, cli, true).is_some_and(|r| r.correct);
        }
        println!();
    }
    ok.then_some(results)
}

/// Runs of the full set per side of `check-repeat`. One run in ten on the
/// reference host lands on a disturbed machine (a repetition 20 % slow, a
/// tail 30 % out); a median of three shrugs one such run off, as the
/// driver's medians of ten do.
const REPEAT_RUNS: usize = 3;

/// A side's value of one metric on one workload: the median over its runs.
fn side_median(side: &[Vec<(usize, ChildResult)>], workload: usize, metric: &str) -> Option<f64> {
    let mut v: Vec<f64> = side
        .iter()
        .filter_map(|set| set.iter().find(|(j, _)| *j == workload))
        .filter_map(|(_, r)| r.metrics.iter().find(|(n, _)| n == metric))
        .map(|x| x.1)
        .collect();
    (!v.is_empty()).then(|| stats::median(&mut v))
}

fn check_repeat(cli: &Cli) -> ExitCode {
    // Two sides of the same code, their sets interleaved and in opposite
    // workload order, so that neither side always runs a workload on a
    // machine warmed by the same predecessor.
    let forward: Vec<usize> = (0..WORKLOADS.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..REPEAT_RUNS {
        let (Some(x), Some(y)) = (run_set(cli, &forward), run_set(cli, &backward)) else {
            eprintln!("check-repeat: a run was incorrect");
            return ExitCode::FAILURE;
        };
        a.push(x);
        b.push(y);
    }
    let mut bad = 0;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (side_median(&a, i, m.name), side_median(&b, i, m.name))
            else {
                continue;
            };
            // How much worse the worse of the two is, as a share of the
            // better: two sides of the same code must stay within bound.
            let (good, poor) = match m.better {
                Better::Lower => (x.min(y), x.max(y)),
                Better::Higher => (x.max(y), x.min(y)),
            };
            let worse = (poor - good).abs() / good.abs().max(f64::MIN_POSITIVE);
            let verdict = if worse <= m.bound { "ok" } else { "DIFFERS" };
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4}  {:>6.2}% of bound {:>4.0}%  {verdict}",
                w.name,
                m.name,
                x,
                y,
                worse * 100.0,
                m.bound * 100.0
            );
            bad += usize::from(worse > m.bound);
        }
    }
    if bad > 0 {
        eprintln!("check-repeat: {bad} metric(s) differ between two sides of the same code");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, flags) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("check-repeat") => ("check-repeat", &argv[1..]),
        Some("spec-json") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => ("single", &argv[..]),
    };
    let cli = match parse_flags(flags) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "run" => {
            let order: Vec<usize> = (0..WORKLOADS.len()).collect();
            if run_set(&cli, &order).is_some() {
                ExitCode::SUCCESS
            } else {
                eprintln!("run: at least one workload failed its oracle");
                ExitCode::FAILURE
            }
        }
        "check-repeat" => check_repeat(&cli),
        _ if cli.workload.is_some() => single(&cli),
        _ => {
            eprintln!(
                "usage: harp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                 \x20      harp-benchmark run [--seed <n>] [--seconds <s>] [--traced] [--quick]\n\
                 \x20      harp-benchmark check-repeat [--seed <n>] [--seconds <s>]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.e2e.set("setup_s", 0.5);
        out.e2e.set("ops_per_s", 1234.5);
        let r = parse_result(&result_json(&out, false)).unwrap();
        assert!(r.correct);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert_eq!(r.metrics[0], ("setup_s".to_string(), 0.5));
        assert_eq!(r.metrics[1], ("ops_per_s".to_string(), 1234.5));
        out.failed = 1;
        assert!(!parse_result(&result_json(&out, false)).unwrap().correct);
        let traced = parse_result(&result_json(&out, true)).unwrap();
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
    }
}
