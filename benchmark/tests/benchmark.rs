//! The benchmark's own checks: every workload passes its oracle at
//! `--quick` size, emits exactly the names `/BENCHMARK.json` declares,
//! and repeats its engine-reported counts for one seed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use amos_benchmark::metrics::{Decl, END_TO_END, PER_LAYER, WORKLOADS};
use amos_benchmark::{run_workload, Outcome, RunConfig};
use amos_metrics::JsonValue;

fn quick(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 10,
        trace,
        quick: true,
        break_model: false,
    };
    let out = run_workload(&cfg).expect("a declared workload");
    assert!(
        out.correct(),
        "{workload} (trace {trace}) failed its oracle: {:?}",
        out.problems
    );
    assert!(out.attempted > 0);
    out
}

fn declared() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("/BENCHMARK.json beside benchmark/");
    JsonValue::parse(&text).expect("/BENCHMARK.json parses")
}

fn names_of(list: &JsonValue) -> BTreeSet<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn emitted(out: &Outcome, trace: bool) -> BTreeSet<String> {
    match out.to_json(trace).get("metrics") {
        Some(JsonValue::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("the result line has a metrics object"),
    }
}

/// Name, unit, direction and bound of every metric agree between the
/// code and the declaration, both ways.
fn assert_same_metrics(list: &JsonValue, decls: &[Decl]) {
    let by_name = |name: &str| decls.iter().find(|d| d.name == name);
    let listed = list.as_array().expect("a list");
    assert_eq!(listed.len(), decls.len());
    for m in listed {
        let name = m.get("name").and_then(JsonValue::as_str).expect("a name");
        let d = by_name(name).unwrap_or_else(|| panic!("{name} is declared but not emitted"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(d.unit),
            "{name}"
        );
        assert_eq!(
            m.get("better").and_then(JsonValue::as_str),
            Some(d.better.name()),
            "{name}"
        );
        assert_eq!(
            m.get("bound").and_then(JsonValue::as_f64),
            d.bound,
            "{name}"
        );
    }
}

#[test]
fn declaration_matches_the_code() {
    let doc = declared();
    assert_same_metrics(doc.get("end_to_end").expect("end_to_end"), END_TO_END);
    assert_same_metrics(doc.get("per_layer").expect("per_layer"), PER_LAYER);
    let workloads = names_of(doc.get("workloads").expect("workloads"));
    assert_eq!(
        workloads,
        WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .collect::<BTreeSet<_>>()
    );
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn every_workload_passes_its_oracle_and_emits_the_declared_names() {
    let doc = declared();
    let end_to_end = names_of(doc.get("end_to_end").expect("end_to_end"));
    let per_layer = names_of(doc.get("per_layer").expect("per_layer"));
    for workload in WORKLOADS {
        let out = quick(workload, 1, false);
        assert_eq!(emitted(&out, false), end_to_end, "{workload}");
        for name in &end_to_end {
            assert!(
                out.metrics.get(name).is_some_and(|v| v > 0.0),
                "{workload}: {name} must be measured and never 0"
            );
        }
        let out = quick(workload, 1, true);
        assert_eq!(emitted(&out, true), per_layer, "{workload}");
        // What the run measured is a subset of what is declared: nothing
        // is measured under a name the declaration does not have.
        assert!(out.metrics.names().all(|n| per_layer.contains(n)));
    }
}

#[test]
fn engine_counts_repeat_for_a_seed_and_move_with_it() {
    for workload in ["small_txn", "bulk_txn", "mixed_rules"] {
        let a = quick(workload, 7, true);
        let b = quick(workload, 7, true);
        let c = quick(workload, 8, true);
        assert!(a.totals.txns > 0 && a.totals.fired > 0, "{workload}");
        let (ta, tb) = (a.totals.repeatable(), b.totals.repeatable());
        assert_eq!(ta, tb, "{workload}: same seed, same counts");
        if workload != "mixed_rules" {
            // Flat networks table nothing, so there every count repeats.
            assert_eq!(a.totals, b.totals, "{workload}");
        }
        assert_eq!(
            a.digest, b.digest,
            "{workload}: same seed, same final state"
        );
        assert_ne!(
            (&a.totals, a.digest),
            (&c.totals, c.digest),
            "{workload}: another seed gives other inputs"
        );
    }
}

fn binary(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_amos-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    (
        out.status.success(),
        stdout.lines().last().unwrap_or_default().to_string(),
    )
}

#[test]
fn a_model_that_disagrees_with_the_engine_fails_the_run() {
    for workload in ["small_txn", "wire_oltp"] {
        let run = [
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
            "--quick",
        ];
        let (ok, line) = binary(&run);
        let doc = JsonValue::parse(&line).expect("a result line");
        assert!(ok, "{workload}: {line}");
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));

        let (ok, line) = binary(&[&run[..], &["--break-model"]].concat());
        let doc = JsonValue::parse(&line).expect("a result line");
        assert!(!ok, "{workload}: a rejected run must exit non-zero");
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
        assert!(doc.get("failed").and_then(JsonValue::as_f64) > Some(0.0));
    }
}

#[test]
fn unknown_arguments_are_refused() {
    assert!(!binary(&["--workload", "no_such_workload"]).0);
    assert!(!binary(&["--frobnicate"]).0);
    assert!(!binary(&[]).0);
}
