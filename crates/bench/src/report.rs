//! Machine-readable benchmark reports (`BENCH_*.json`) plus the shared
//! command-line handling, so the CI bench-smoke job and local runs of
//! the `fig6`/`fig7` binaries share one code path.
//!
//! The JSON artifact carries, per database size, the measured series
//! timings and the full [`PassMetrics`] of the last incremental
//! propagation pass — per-differential timings, candidate/rejected
//! counters, and per-level wave-front sizes — so perf regressions are
//! diffable across CI runs.
//!
//! [`compare_reports`] is that diff, mechanized: the CI bench-regression
//! gate reads the committed `crates/bench/baselines/BENCH_*.json` and a
//! fresh run of the same binary at the same sizes, and fails on (a) any
//! drift in the deterministic result counters (fired / candidates /
//! rejected — a semantic regression, zero tolerance) or (b) a timing
//! *ratio* (incremental-vs-naive, adaptive-vs-static) that fell more
//! than a tolerance factor below the baseline. Absolute milliseconds are
//! never compared — they measure the runner, not the code.

use std::io::Write as _;
use std::path::PathBuf;

use amos_metrics::{JsonValue, PassMetrics};

/// Command-line options shared by the figure binaries.
#[derive(Debug, Default)]
pub struct BenchArgs {
    /// `--json PATH`: write the machine-readable report here.
    pub json: Option<PathBuf>,
    /// `--sizes 1,10,100`: override the database sizes to sweep.
    pub sizes: Option<Vec<usize>>,
    /// `--transactions N`: override the per-size transaction count
    /// (fig. 6 only).
    pub transactions: Option<usize>,
}

impl BenchArgs {
    /// Parse `std::env::args()`; panics with a usage message on
    /// unknown or malformed flags (these are dev binaries).
    pub fn parse() -> Self {
        let mut out = BenchArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--json" => out.json = Some(PathBuf::from(value("--json"))),
                "--sizes" => {
                    out.sizes = Some(
                        value("--sizes")
                            .split(',')
                            .map(|s| {
                                s.trim()
                                    .parse()
                                    .unwrap_or_else(|_| panic!("bad size {s:?}"))
                            })
                            .collect(),
                    )
                }
                "--transactions" => {
                    out.transactions = Some(
                        value("--transactions")
                            .parse()
                            .expect("--transactions takes a count"),
                    )
                }
                other => panic!(
                    "unknown flag {other:?} (expected --json PATH, --sizes A,B,C, \
                     --transactions N)"
                ),
            }
        }
        out
    }
}

/// One measured database size in a figure sweep.
#[derive(Debug)]
pub struct SizeRow {
    /// Database size (number of inventory items).
    pub n_items: usize,
    /// Total time of the incremental series, milliseconds.
    pub incremental_ms: f64,
    /// Total time of the naive series, milliseconds.
    pub naive_ms: f64,
    /// Metrics of the last incremental propagation pass at this size.
    pub last_pass: Option<PassMetrics>,
}

impl SizeRow {
    fn to_json(&self) -> JsonValue {
        let mut row = JsonValue::object()
            .with("n_items", self.n_items)
            .with("incremental_ms", self.incremental_ms)
            .with("naive_ms", self.naive_ms);
        row = match &self.last_pass {
            Some(m) => row.with("last_pass", m.to_json()),
            None => row.with("last_pass", JsonValue::Null),
        };
        row
    }
}

/// Assemble the report document for one figure sweep.
pub fn report_json(
    bench: &str,
    description: &str,
    transactions: usize,
    rows: &[SizeRow],
) -> JsonValue {
    JsonValue::object()
        .with("bench", bench)
        .with("description", description)
        .with("transactions", transactions)
        .with(
            "results",
            JsonValue::Array(rows.iter().map(SizeRow::to_json).collect()),
        )
}

/// Write the report to `path` (pretty-printed, trailing newline).
pub fn write_report(
    path: &PathBuf,
    bench: &str,
    description: &str,
    transactions: usize,
    rows: &[SizeRow],
) -> std::io::Result<()> {
    let doc = report_json(bench, description, transactions, rows);
    let mut file = std::fs::File::create(path)?;
    writeln!(file, "{}", doc.to_pretty())?;
    Ok(())
}

/// The speed *ratio* a result row demonstrates, by report family:
/// `min(naive, incremental) / hybrid_ms` for the hybrid bench (checked
/// first — its rows carry all three timings),
/// `naive_ms / incremental_ms` for the figure sweeps,
/// `static_ms / adaptive_ms` for the planner bench,
/// `serial_ms / concurrent_ms` for the multi-session server bench.
/// `None` when the row carries none of the pairs.
fn row_ratio(row: &JsonValue) -> Option<(&'static str, f64)> {
    let num = |key: &str| row.get(key).and_then(JsonValue::as_f64);
    if let (Some(hybrid), Some(naive), Some(inc)) =
        (num("hybrid_ms"), num("naive_ms"), num("incremental_ms"))
    {
        return Some((
            "best/hybrid",
            naive.min(inc) / hybrid.max(f64::MIN_POSITIVE),
        ));
    }
    if let (Some(naive), Some(inc)) = (num("naive_ms"), num("incremental_ms")) {
        return Some(("naive/incremental", naive / inc.max(f64::MIN_POSITIVE)));
    }
    if let (Some(st), Some(ad)) = (num("static_ms"), num("adaptive_ms")) {
        return Some(("static/adaptive", st / ad.max(f64::MIN_POSITIVE)));
    }
    if let (Some(serial), Some(conc)) = (num("serial_ms"), num("concurrent_ms")) {
        return Some(("serial/concurrent", serial / conc.max(f64::MIN_POSITIVE)));
    }
    None
}

/// The key identifying a result row across runs: `scenario` (planner
/// bench), `n_items` (figure sweeps), or `sessions` (server bench) —
/// the server bench additionally splits on its `pipeline` variant.
fn row_key(row: &JsonValue) -> String {
    row.get("scenario")
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .or_else(|| {
            row.get("n_items")
                .and_then(JsonValue::as_f64)
                .map(|n| format!("n_items={n}"))
        })
        .or_else(|| {
            row.get("sessions").and_then(JsonValue::as_f64).map(|n| {
                match row.get("pipeline").and_then(JsonValue::as_str) {
                    Some(p) => format!("sessions={n} pipeline={p}"),
                    None => format!("sessions={n}"),
                }
            })
        })
        .unwrap_or_else(|| "<unkeyed>".to_owned())
}

/// Per-row counters that are deterministic for a fixed workload: any
/// drift means the engine computed something different, not slower.
const EXACT_COUNTERS: [&str; 3] = ["fired", "candidates", "rejected"];

/// Deterministic counters carried directly on a result row (not inside
/// `last_pass`): the server bench's seeded schedule commits, aborts,
/// and fsyncs exactly the same transactions on every machine, and the
/// hybrid bench's cost model sees exactly the same Δ-set and relation
/// sizes — so any drift is a change in conflict-detection, WAL-flush,
/// or strategy-selection semantics.
const ROW_EXACT_COUNTERS: [&str; 5] = [
    "committed",
    "aborted",
    "fsyncs",
    "chose_incremental",
    "chose_naive",
];

/// Optional absolute gates layered on top of the relative comparison —
/// each applies only to reports that carry the relevant fields.
#[derive(Debug, Default, Clone, Copy)]
pub struct GateOptions {
    /// Allowed *relative* drop in a row's speed ratio (and pipeline
    /// speedup) below the baseline's.
    pub tolerance: f64,
    /// `--pipeline-floor`: absolute `unpipelined_ms / pipelined_ms`
    /// speedup required of server-bench `pipeline=on` rows at ≥ 4
    /// sessions (hardware-conditional: only when the fresh runner has
    /// `hw_threads >= sessions`).
    pub pipeline_floor: Option<f64>,
    /// `--hybrid-epsilon`: fresh hybrid rows must satisfy
    /// `hybrid_ms <= (1 + ε) × min(incremental_ms, naive_ms)`.
    pub hybrid_epsilon: Option<f64>,
}

/// Diff `fresh` against `baseline`; returns the list of regressions
/// (empty = gate passes). `tolerance` is the allowed *relative* drop in
/// a row's speed ratio — 0.5 means a fresh ratio down to half the
/// baseline's still passes (CI runners are noisy; only collapses fail).
pub fn compare_reports(
    baseline: &JsonValue,
    fresh: &JsonValue,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    compare_reports_gated(
        baseline,
        fresh,
        &GateOptions {
            tolerance,
            ..GateOptions::default()
        },
    )
}

/// [`compare_reports`] with the full gate set ([`GateOptions`]):
/// on top of the exact-counter and ratio checks, server-bench
/// `pipeline=on` rows are held to a pipelined-vs-unpipelined speedup
/// (relative to the baseline, plus the optional absolute
/// `pipeline_floor` at ≥ 4 sessions) whenever the fresh runner has
/// `hw_threads >= sessions`, and fresh hybrid rows must stay within
/// `hybrid_epsilon` of the better pure strategy.
pub fn compare_reports_gated(
    baseline: &JsonValue,
    fresh: &JsonValue,
    gates: &GateOptions,
) -> Result<Vec<String>, String> {
    let tolerance = gates.tolerance;
    let name = |doc: &JsonValue| {
        doc.get("bench")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "report has no \"bench\" field".to_owned())
    };
    let (bname, fname) = (name(baseline)?, name(fresh)?);
    if bname != fname {
        return Err(format!(
            "comparing different benches: baseline {bname:?} vs fresh {fname:?}"
        ));
    }
    let rows = |doc: &JsonValue, which: &str| {
        doc.get("results")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::to_vec)
            .ok_or_else(|| format!("{which} report has no \"results\" array"))
    };
    let base_rows = rows(baseline, "baseline")?;
    let fresh_rows = rows(fresh, "fresh")?;

    let mut regressions = Vec::new();
    for brow in &base_rows {
        let key = row_key(brow);
        let Some(frow) = fresh_rows.iter().find(|r| row_key(r) == key) else {
            regressions.push(format!("{bname}[{key}]: row missing from fresh report"));
            continue;
        };
        // Deterministic counters from the last pass must match exactly.
        if let (Some(bpass), Some(fpass)) = (brow.get("last_pass"), frow.get("last_pass")) {
            for counter in EXACT_COUNTERS {
                let b = bpass.get(counter).and_then(JsonValue::as_f64);
                let f = fpass.get(counter).and_then(JsonValue::as_f64);
                if let (Some(b), Some(f)) = (b, f) {
                    if b != f {
                        regressions.push(format!(
                            "{bname}[{key}]: {counter} drifted from {b} to {f} \
                             (deterministic counter — semantic change)"
                        ));
                    }
                }
            }
        }
        // Row-level deterministic counters (server bench): exact match.
        for counter in ROW_EXACT_COUNTERS {
            let b = brow.get(counter).and_then(JsonValue::as_f64);
            let f = frow.get(counter).and_then(JsonValue::as_f64);
            if let (Some(b), Some(f)) = (b, f) {
                if b != f {
                    regressions.push(format!(
                        "{bname}[{key}]: {counter} drifted from {b} to {f} \
                         (deterministic counter — semantic change)"
                    ));
                }
            }
        }
        // The demonstrated speed ratio must not collapse.
        if let (Some((label, bratio)), Some((_, fratio))) = (row_ratio(brow), row_ratio(frow)) {
            let floor = bratio * (1.0 - tolerance);
            if fratio < floor {
                regressions.push(format!(
                    "{bname}[{key}]: {label} ratio fell to {fratio:.2} \
                     (baseline {bratio:.2}, floor {floor:.2})"
                ));
            }
        }
        // Wire-pipelining speedup (server bench `pipeline=on` rows):
        // relative to the baseline, plus the optional absolute floor at
        // ≥ 4 sessions. Both only when the fresh runner has the
        // hardware threads to actually overlap the sessions — a 1-core
        // runner cannot demonstrate commit coalescing and is not asked
        // to.
        let speedup_of = |row: &JsonValue| {
            let un = row.get("unpipelined_ms").and_then(JsonValue::as_f64)?;
            let pi = row.get("pipelined_ms").and_then(JsonValue::as_f64)?;
            Some(un / pi.max(f64::MIN_POSITIVE))
        };
        if let Some(fspeed) = speedup_of(frow) {
            let hw = frow
                .get("hw_threads")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            let sessions = frow
                .get("sessions")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            if hw >= sessions {
                if let Some(bspeed) = speedup_of(brow) {
                    let floor = bspeed * (1.0 - tolerance);
                    if fspeed < floor {
                        regressions.push(format!(
                            "{bname}[{key}]: pipeline speedup fell to {fspeed:.2} \
                             (baseline {bspeed:.2}, floor {floor:.2})"
                        ));
                    }
                }
                if let Some(abs_floor) = gates.pipeline_floor {
                    if sessions >= 4.0 && fspeed < abs_floor {
                        regressions.push(format!(
                            "{bname}[{key}]: pipeline speedup {fspeed:.2} below the \
                             absolute floor {abs_floor:.2}"
                        ));
                    }
                }
            }
        }
        // Hybrid ε gate: the cost-based strategy must track the better
        // pure strategy within the stated margin — a fresh-report-only
        // absolute check (no baseline involved).
        if let Some(eps) = gates.hybrid_epsilon {
            let num = |k: &str| frow.get(k).and_then(JsonValue::as_f64);
            if let (Some(hybrid), Some(naive), Some(inc)) =
                (num("hybrid_ms"), num("naive_ms"), num("incremental_ms"))
            {
                let best = naive.min(inc);
                if hybrid > best * (1.0 + eps) {
                    regressions.push(format!(
                        "{bname}[{key}]: hybrid_ms {hybrid:.2} exceeds \
                         (1 + {eps}) × best pure strategy ({best:.2})"
                    ));
                }
            }
        }
    }

    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape() {
        let rows = vec![SizeRow {
            n_items: 10,
            incremental_ms: 1.25,
            naive_ms: 2.5,
            last_pass: Some(PassMetrics {
                strategy: "parallel".into(),
                check: "nervous".into(),
                ..Default::default()
            }),
        }];
        let doc = report_json("fig6", "single-item updates", 100, &rows).to_compact();
        assert!(doc.contains(r#""bench":"fig6""#));
        assert!(doc.contains(r#""transactions":100"#));
        assert!(doc.contains(r#""incremental_ms":1.25"#));
        assert!(doc.contains(r#""last_pass":{"strategy":"parallel""#));
    }

    fn fig_report(incremental_ms: f64, naive_ms: f64, candidates: u64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"bench":"fig6","results":[{{"n_items":100,
                "incremental_ms":{incremental_ms},"naive_ms":{naive_ms},
                "last_pass":{{"fired":2,"candidates":{candidates},"rejected":0}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_passes_identical_and_faster_runs() {
        let base = fig_report(10.0, 100.0, 5);
        assert_eq!(
            compare_reports(&base, &base, 0.5).unwrap(),
            Vec::<String>::new()
        );
        // 2x faster incremental: ratio improved, still passes.
        let faster = fig_report(5.0, 100.0, 5);
        assert!(compare_reports(&base, &faster, 0.5).unwrap().is_empty());
        // Ratio sagged 30% — inside the 50% tolerance.
        let noisy = fig_report(14.0, 100.0, 5);
        assert!(compare_reports(&base, &noisy, 0.5).unwrap().is_empty());
    }

    #[test]
    fn compare_flags_ratio_collapse_and_counter_drift() {
        let base = fig_report(10.0, 100.0, 5);
        // Ratio collapsed from 10x to 2x: regression.
        let slow = fig_report(50.0, 100.0, 5);
        let found = compare_reports(&base, &slow, 0.5).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("ratio fell"), "{found:?}");
        // Candidate count drift: semantic regression, zero tolerance.
        let drifted = fig_report(10.0, 100.0, 6);
        let found = compare_reports(&base, &drifted, 0.5).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("candidates drifted"), "{found:?}");
    }

    #[test]
    fn compare_rejects_mismatched_benches_and_missing_rows() {
        let base = fig_report(10.0, 100.0, 5);
        let other = JsonValue::parse(r#"{"bench":"fig7","results":[]}"#).unwrap();
        assert!(compare_reports(&base, &other, 0.5).is_err());
        let empty = JsonValue::parse(r#"{"bench":"fig6","results":[]}"#).unwrap();
        let found = compare_reports(&base, &empty, 0.5).unwrap();
        assert!(found[0].contains("row missing"), "{found:?}");
    }

    #[test]
    fn compare_handles_planner_reports() {
        let row = |static_ms: f64, adaptive_ms: f64| {
            JsonValue::parse(&format!(
                r#"{{"bench":"plan","results":[{{"scenario":"skew",
                    "static_ms":{static_ms},"adaptive_ms":{adaptive_ms}}}]}}"#
            ))
            .unwrap()
        };
        let base = row(300.0, 200.0); // 1.5x
        assert!(compare_reports(&base, &row(300.0, 220.0), 0.5)
            .unwrap()
            .is_empty());
        let collapsed = row(300.0, 450.0); // 0.67x < 1.5 * 0.5
        assert!(!compare_reports(&base, &collapsed, 0.5).unwrap().is_empty());
    }

    fn server_report(sessions: u64, committed: u64, aborted: u64, concurrent_ms: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"bench":"server","results":[{{"sessions":{sessions},
                "committed":{committed},"aborted":{aborted},
                "serial_ms":100.0,"concurrent_ms":{concurrent_ms},
                "commits_per_sec":1000.0}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn server_rows_key_on_sessions_and_gate_exact_counters() {
        let base = server_report(4, 120, 7, 60.0);
        assert!(compare_reports(&base, &base, 0.5).unwrap().is_empty());

        // Commit/abort counts are exact: any drift fails, even "better".
        let drift = server_report(4, 120, 6, 60.0);
        let found = compare_reports(&base, &drift, 0.5).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("aborted drifted"), "{found:?}");
        assert!(found[0].contains("sessions=4"), "{found:?}");

        let drift = server_report(4, 119, 7, 60.0);
        let found = compare_reports(&base, &drift, 0.5).unwrap();
        assert!(found[0].contains("committed drifted"), "{found:?}");
    }

    #[test]
    fn server_throughput_ratio_is_floored_not_exact() {
        let base = server_report(4, 120, 7, 60.0); // serial/concurrent ≈ 1.67
                                                   // 20% sag: inside tolerance.
        let noisy = server_report(4, 120, 7, 72.0);
        assert!(compare_reports(&base, &noisy, 0.5).unwrap().is_empty());
        // Collapse below half the baseline ratio: regression.
        let collapsed = server_report(4, 120, 7, 150.0);
        let found = compare_reports(&base, &collapsed, 0.5).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("serial/concurrent"), "{found:?}");
    }

    fn pipeline_report(rows: &[(u64, &str, u64, u64, f64, f64)]) -> JsonValue {
        // (sessions, pipeline, hw_threads, fsyncs, pipelined_ms, unpipelined_ms)
        let rows: Vec<String> = rows
            .iter()
            .map(|(s, p, hw, fs, pi, un)| {
                format!(
                    r#"{{"sessions":{s},"pipeline":"{p}","hw_threads":{hw},
                        "committed":120,"aborted":0,"fsyncs":{fs},
                        "serial_ms":100.0,"concurrent_ms":60.0,
                        "pipelined_ms":{pi},"unpipelined_ms":{un}}}"#
                )
            })
            .collect();
        JsonValue::parse(&format!(
            r#"{{"bench":"server","results":[{}]}}"#,
            rows.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn pipeline_rows_key_on_sessions_and_variant() {
        // on/off rows at the same session count are distinct keys: a
        // report with both must match a baseline with both.
        let base = pipeline_report(&[(4, "on", 8, 15, 10.0, 20.0), (4, "off", 8, 120, 10.0, 20.0)]);
        assert!(compare_reports(&base, &base, 0.5).unwrap().is_empty());
        let only_on = pipeline_report(&[(4, "on", 8, 15, 10.0, 20.0)]);
        let found = compare_reports(&base, &only_on, 0.5).unwrap();
        assert!(
            found
                .iter()
                .any(|r| r.contains("pipeline=off") && r.contains("row missing")),
            "{found:?}"
        );
        // fsyncs is an exact counter: coalescing drift is semantic.
        let drift =
            pipeline_report(&[(4, "on", 8, 16, 10.0, 20.0), (4, "off", 8, 120, 10.0, 20.0)]);
        let found = compare_reports(&base, &drift, 0.5).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("fsyncs drifted"), "{found:?}");
    }

    #[test]
    fn pipeline_speedup_gates_are_hardware_conditional() {
        let base = pipeline_report(&[(4, "on", 8, 15, 10.0, 20.0)]); // 2.0x
        let gates = |floor: Option<f64>| GateOptions {
            tolerance: 0.5,
            pipeline_floor: floor,
            ..GateOptions::default()
        };
        // Sagged to 1.25x: inside the 50% relative tolerance.
        let noisy = pipeline_report(&[(4, "on", 8, 15, 16.0, 20.0)]);
        assert!(compare_reports_gated(&base, &noisy, &gates(None))
            .unwrap()
            .is_empty());
        // ...but below an absolute floor of 1.5.
        let found = compare_reports_gated(&base, &noisy, &gates(Some(1.5))).unwrap();
        assert!(
            found.iter().any(|r| r.contains("absolute floor")),
            "{found:?}"
        );
        // Collapsed to 0.8x: relative regression even with no floor.
        let collapsed = pipeline_report(&[(4, "on", 8, 15, 25.0, 20.0)]);
        let found = compare_reports_gated(&base, &collapsed, &gates(None)).unwrap();
        assert!(
            found.iter().any(|r| r.contains("pipeline speedup fell")),
            "{found:?}"
        );
        // A 1-core runner is excused from both speedup gates (exact
        // counters still bind, so keep them identical here).
        let one_core = pipeline_report(&[(4, "on", 1, 15, 25.0, 20.0)]);
        assert!(compare_reports_gated(&base, &one_core, &gates(Some(1.5)))
            .unwrap()
            .is_empty());
    }

    fn hybrid_report(rows: &[(u64, f64, f64, f64, u64, u64)]) -> JsonValue {
        // (n_items, incremental_ms, naive_ms, hybrid_ms, chose_inc, chose_nve)
        let rows: Vec<String> = rows
            .iter()
            .map(|(n, i, nv, h, ci, cn)| {
                format!(
                    r#"{{"n_items":{n},"incremental_ms":{i},"naive_ms":{nv},
                        "hybrid_ms":{h},"chose_incremental":{ci},"chose_naive":{cn}}}"#
                )
            })
            .collect();
        JsonValue::parse(&format!(
            r#"{{"bench":"hybrid","results":[{}]}}"#,
            rows.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn hybrid_epsilon_and_strategy_counters() {
        let base = hybrid_report(&[(100, 8.0, 5.0, 5.5, 17, 3)]);
        let eps = |e: Option<f64>| GateOptions {
            tolerance: 0.5,
            hybrid_epsilon: e,
            ..GateOptions::default()
        };
        // hybrid 5.5 vs best pure 5.0: within ε = 0.2.
        assert!(compare_reports_gated(&base, &base, &eps(Some(0.2)))
            .unwrap()
            .is_empty());
        // hybrid 7.0 > 5.0 * 1.2: regression (fresh-only check).
        let worse = hybrid_report(&[(100, 8.0, 5.0, 7.0, 17, 3)]);
        let found = compare_reports_gated(&base, &worse, &eps(Some(0.2))).unwrap();
        assert!(found.iter().any(|r| r.contains("hybrid_ms")), "{found:?}");
        // Without the flag the same report passes on ratio tolerance.
        assert!(compare_reports_gated(&base, &worse, &eps(None))
            .unwrap()
            .is_empty());
        // Strategy-choice counters are deterministic: drift is semantic.
        let drift = hybrid_report(&[(100, 8.0, 5.0, 5.5, 16, 4)]);
        let found = compare_reports_gated(&base, &drift, &eps(None)).unwrap();
        assert!(
            found
                .iter()
                .any(|r| r.contains("chose_incremental drifted")),
            "{found:?}"
        );
        assert!(
            found.iter().any(|r| r.contains("chose_naive drifted")),
            "{found:?}"
        );
    }
}
