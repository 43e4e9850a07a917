//! The metric names this benchmark emits — the same set `/BENCHMARK.json`
//! declares (a test compares the two, both ways) — and the record a run
//! fills in.

use std::collections::BTreeMap;

use amos_metrics::JsonValue;

use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may get worse; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a caller of the engine, or a client of `amos-server`, sees.
/// Measured with tracing off. `failed_share` is not listed: it is 0 on
/// every workload and the result line carries it as `failed`/`attempted`.
///
/// The bounds are what this sandbox can resolve, not what one would wish:
/// ten runs of one binary spread (quartile to quartile) by up to 17 % of
/// the median on the timed metrics and 4 % on memory when the host is
/// busy, so a tighter bound would reject the benchmark against itself.
pub const END_TO_END: &[Decl] = &[
    e2e("txn_p50_us", "us", Better::Lower, 0.25),
    e2e("txn_p99_us", "us", Better::Lower, 0.25),
    e2e("commits_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// One group per crate on the transaction path, from the traced run.
pub const PER_LAYER: &[Decl] = &[
    lower("server.roundtrip_p50_us", "us"),
    lower("server.self_p50_us", "us"),
    lower("server.bytes_in_per_txn", "B"),
    lower("server.bytes_out_per_txn", "B"),
    lower("server.err_lines", "count"),
    lower("amosql.parse_p50_us", "us"),
    lower("amosql.bytes_per_line", "B"),
    lower("amosql.stmts_per_line", "count"),
    lower("db.begin_p50_us", "us"),
    lower("db.update_p50_us", "us"),
    lower("db.select_p50_us", "us"),
    lower("db.commit_p50_us", "us"),
    lower("db.commit_lock_hold_mean_us", "us"),
    lower("db.commit_lock_hold_max_us", "us"),
    lower("db.scan_txn_p50_us", "us"),
    lower("db.conflicts", "count"),
    lower("db.populate_ms", "ms"),
    lower("db.activate_ms", "ms"),
    lower("db.first_txn_us", "us"),
    lower("core.check_phase_p50_us", "us"),
    lower("core.pass_p50_us", "us"),
    lower("core.diff_sum_p50_us", "us"),
    lower("core.executor_overhead_p50_us", "us"),
    lower("core.propagate_serial_p50_us", "us"),
    lower("core.propagate_parallel_p50_us", "us"),
    lower("core.passes", "count"),
    lower("core.levels_per_pass", "count"),
    lower("core.tasks_per_pass", "count"),
    lower("core.wave_tuples_per_pass", "count"),
    lower("core.fired", "count"),
    lower("core.candidates", "count"),
    lower("core.rejected", "count"),
    higher("core.accept_ratio", "ratio"),
    lower("core.actions", "count"),
    lower("core.failed_actions", "count"),
    lower("core.replans", "count"),
    higher("core.plan_cache_hits", "count"),
    higher("core.pruned_differentials", "count"),
    lower("core.naive_ref_p50_us", "us"),
    lower("core.inc_over_naive", "ratio"),
    lower("core.size_flatness", "ratio"),
    lower("objectlog.probes", "count"),
    lower("objectlog.scans", "count"),
    lower("objectlog.delta_probes", "count"),
    lower("objectlog.delta_scans", "count"),
    higher("objectlog.merge_joins", "count"),
    lower("objectlog.fallback_scans", "count"),
    higher("objectlog.tabling_hit_ratio", "ratio"),
    lower("objectlog.cond_eval_p50_us", "us"),
    lower("objectlog.rows_per_candidate", "ratio"),
    lower("storage.update_p50_ns", "ns"),
    lower("storage.apply_us", "us"),
    lower("storage.commit_p50_us", "us"),
    lower("storage.rollback_p50_us", "us"),
    lower("storage.probe_p50_ns", "ns"),
    lower("storage.delta_tuples", "count"),
    lower("wal.append_sync_p50_us", "us"),
    lower("wal.bytes_per_commit", "B"),
    lower("wal.fsyncs_per_commit", "ratio"),
    higher("wal.group_mean", "ratio"),
    higher("wal.waiters_woken", "count"),
    lower("wal.recovery_ms", "ms"),
    lower("lint.lint_all_ms", "ms"),
    lower("bench.calib_ms", "ms"),
    lower("bench.trace_overhead", "ratio"),
    lower("bench.timed_s", "s"),
    higher("bench.attributed_share", "ratio"),
];

pub const WORKLOADS: &[&str] = &["small_txn", "bulk_txn", "mixed_rules", "wire_oltp"];

/// What one run measured: a value and the number of samples behind it.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, (value, samples));
    }

    /// The median of nanosecond samples, reported in microseconds.
    pub fn set_p50_us(&mut self, name: &'static str, samples_ns: &[u64]) {
        self.set(name, median(samples_ns) / 1e3, samples_ns.len());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }

    /// The `metrics` object of the result line: every metric of `decls`,
    /// a layer that does nothing on this workload reporting 0.
    pub fn to_json(&self, decls: &[Decl]) -> JsonValue {
        decls.iter().fold(JsonValue::object(), |obj, d| {
            let value = self.get(d.name).unwrap_or(0.0);
            obj.with(
                d.name,
                JsonValue::object()
                    .with("value", value)
                    .with("unit", d.unit),
            )
        })
    }

    /// One line per metric: name, value, unit, direction, sample count.
    pub fn render(&self, decls: &[Decl]) -> String {
        let mut out = String::new();
        for d in decls {
            let (value, n) = self.0.get(d.name).copied().unwrap_or((0.0, 0));
            out.push_str(&format!(
                "  {:<34} {:>16.4} {:<6} {:<6} better  n={}\n",
                d.name,
                value,
                d.unit,
                d.better.name(),
                n
            ));
        }
        out
    }
}
