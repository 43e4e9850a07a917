//! Bench-regression gate: diff a fresh bench JSON report against a
//! committed baseline and exit non-zero on regression.
//!
//! ```text
//! compare --baseline crates/bench/baselines/BENCH_fig6.json \
//!         --fresh BENCH_fig6.json [--tolerance 0.5] \
//!         [--pipeline-floor 1.2] [--hybrid-epsilon 0.5]
//! ```
//!
//! Deterministic counters (`fired`/`candidates`/`rejected`, and the
//! row-level `committed`/`aborted`/`fsyncs`/`chose_*` family) must
//! match the baseline exactly — a drift there is a semantic change, not
//! noise. Speed *ratios* (naive/incremental, static/adaptive,
//! serial/concurrent, best/hybrid) may sag by up to `tolerance`
//! (relative) before the gate trips; absolute milliseconds are never
//! compared, so runner speed doesn't matter.
//!
//! Server-bench `pipeline=on` rows carry the wire-pipelining ablation
//! (`unpipelined_ms / pipelined_ms`); `--pipeline-floor F` demands that
//! speedup reach F at ≥4 sessions — but only on runners with enough
//! hardware threads (`hw_threads >= sessions` in the fresh row).
//! `--hybrid-epsilon E` demands hybrid rows satisfy
//! `hybrid_ms <= (1+E) × min(incremental_ms, naive_ms)` — an absolute
//! check on the fresh report alone.

use amos_bench::report::{compare_reports_gated, GateOptions};
use amos_metrics::json::JsonValue;
use std::process::ExitCode;

struct Args {
    baseline: String,
    fresh: String,
    gates: GateOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut gates = GateOptions {
        tolerance: 0.5,
        ..GateOptions::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        let parse = |name: &str, v: String| v.parse::<f64>().map_err(|e| format!("{name}: {e}"));
        match flag.as_str() {
            "--baseline" => baseline = Some(grab("--baseline")?),
            "--fresh" => fresh = Some(grab("--fresh")?),
            "--tolerance" => gates.tolerance = parse("--tolerance", grab("--tolerance")?)?,
            "--pipeline-floor" => {
                gates.pipeline_floor = Some(parse("--pipeline-floor", grab("--pipeline-floor")?)?)
            }
            "--hybrid-epsilon" => {
                gates.hybrid_epsilon = Some(parse("--hybrid-epsilon", grab("--hybrid-epsilon")?)?)
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        gates,
    })
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let run = || -> Result<Vec<String>, String> {
        let args = parse_args()?;
        let baseline = load(&args.baseline)?;
        let fresh = load(&args.fresh)?;
        let regressions = compare_reports_gated(&baseline, &fresh, &args.gates)?;
        println!(
            "compare: {} vs {} (tolerance {})",
            args.baseline, args.fresh, args.gates.tolerance
        );
        Ok(regressions)
    };
    match run() {
        Ok(regressions) if regressions.is_empty() => {
            println!("compare: OK — no regressions");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            for r in &regressions {
                eprintln!("REGRESSION: {r}");
            }
            eprintln!("compare: {} regression(s)", regressions.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("compare: error: {e}");
            ExitCode::FAILURE
        }
    }
}
