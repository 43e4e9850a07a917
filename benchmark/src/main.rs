//! Command line of the repo benchmark.
//!
//! ```text
//! amos-benchmark --workload W --seed N --seconds S --trace 0|1   one run; the contract's command
//! amos-benchmark run [W] [--seed N] [--trace] [--quick]          every workload, one process each
//! amos-benchmark repeat [--seed N]                               two alternating untraced sets, compared
//! ```

use std::process::{Command, ExitCode};

use amos_benchmark::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use amos_benchmark::stats::median_f64;
use amos_benchmark::{calibrate_ms, out_dir, run_workload, RunConfig};
use amos_metrics::JsonValue;

/// `run_seconds` of `/BENCHMARK.json`.
const RUN_SECONDS: u64 = 10;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    break_model: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        break_model: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            // `--trace 0|1` in the contract's form, bare `--trace` by hand.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            // For the benchmark's own tests: the oracle must reject the run.
            "--break-model" => args.break_model = true,
            "run" | "repeat" if args.command.is_none() => args.command = Some(arg),
            w if args.command.as_deref() == Some("run") && WORKLOADS.contains(&w) => {
                args.workload = Some(arg)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn config(&self, workload: &str, trace: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            trace,
            quick: self.quick,
            break_model: self.break_model,
        }
    }
}

/// One run in this process; the result line is the last line of stdout.
fn run_here(cfg: &RunConfig) -> ExitCode {
    let outcome = match run_workload(cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let decls = if cfg.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "{} seed {} {}{}: {} attempted, {} failed",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        if cfg.quick {
            " (QUICK: counts / 50, smoke test only)"
        } else {
            ""
        },
        outcome.attempted,
        outcome.failed
    );
    eprint!("{}", outcome.metrics.render(decls));
    for p in &outcome.problems {
        eprintln!("FAILED: {p}");
    }
    println!("{}", outcome.to_json(cfg.trace).to_compact());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a process of its own (so that `peak_rss_mb` is
/// that workload's) and parse its result line.
fn run_child(cfg: &RunConfig) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    if cfg.break_model {
        cmd.arg("--break-model");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc =
        JsonValue::parse(line).map_err(|e| format!("{}: no result line ({e})", cfg.workload))?;
    if !output.status.success() {
        return Err(format!("{}: an oracle rejected the run", cfg.workload));
    }
    Ok(doc)
}

fn metric(doc: &JsonValue, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `run`: every selected workload, untraced and (with `--trace`) traced;
/// the result lines are collected in `out/results.json`.
fn run_all(args: &Args) -> ExitCode {
    let selected: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut results = JsonValue::object();
    let mut ok = true;
    for workload in selected {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(&args.config(workload, trace)) {
                Ok(doc) => {
                    let key = format!("{workload}{}", if trace { ".trace" } else { "" });
                    results = results.with(&key, doc);
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    let path = out_dir().join("results.json");
    if let Err(e) = std::fs::write(&path, results.to_pretty() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
        ok = false;
    }
    eprintln!("results in {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs per set and workload in `repeat`. One run against one run does
/// not resolve the bounds on a shared host (two runs of `wire_oltp` a
/// minute apart have differed by 24 % in `txn_p50_us`), so each set is the
/// median of three and the sets alternate.
const REPEAT_RUNS: usize = 3;

/// `repeat`: two untraced sets of this binary, alternating run by run.
/// Their medians must agree within each metric's bound, and the
/// calibration loop within 10 % (else the machine is noisy: rerun, do not
/// widen a bound).
fn repeat(args: &Args) -> ExitCode {
    // runs[set][workload] = the result lines of that set's runs.
    let mut runs = vec![vec![Vec::new(); WORKLOADS.len()]; 2];
    let mut calib = [f64::INFINITY; 2];
    for _ in 0..REPEAT_RUNS {
        for set in 0..2 {
            calib[set] = calib[set].min(calibrate_ms());
            for (w, workload) in WORKLOADS.iter().enumerate() {
                match run_child(&args.config(workload, false)) {
                    Ok(doc) => runs[set][w].push(doc),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    let median_of = |set: usize, w: usize, name: &str| {
        let values: Option<Vec<f64>> = runs[set][w].iter().map(|d| metric(d, name)).collect();
        values.map(|v| median_f64(&v))
    };
    let mut ok = true;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for d in END_TO_END {
            let (Some(a), Some(b)) = (median_of(0, w, d.name), median_of(1, w, d.name)) else {
                println!("{workload:<12} {:<14} missing", d.name);
                ok = false;
                continue;
            };
            // How much worse the second set is than the first, as a share
            // of the first; either direction beyond the bound disagrees.
            let worse = match d.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if worse.abs() > bound { "DISAGREE" } else { "" };
            ok &= worse.abs() <= bound;
            println!(
                "{workload:<12} {:<14} {a:>14.3} {b:>14.3} {:>+7.1}% {:>6.0}% {verdict}",
                d.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    let drift = (calib[1] - calib[0]).abs() / calib[0];
    println!(
        "bench.calib_ms {:.2} then {:.2} ({:+.1} %)",
        calib[0],
        calib[1],
        drift * 100.0
    );
    if drift > 0.10 {
        println!("the calibration loop moved by more than 10 %: noisy machine, rerun");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload W --seed N --seconds S --trace 0|1 \
                 | run [W] [--seed N] [--trace] [--quick] | repeat"
            );
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("run"), _) => run_all(&args),
        (Some("repeat"), _) => repeat(&args),
        (None, Some(workload)) => run_here(&args.config(workload, args.trace)),
        _ => {
            eprintln!("name a workload (--workload W) or a command (run, repeat)");
            ExitCode::from(2)
        }
    }
}
