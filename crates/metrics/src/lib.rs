//! # amos-metrics
//!
//! Instrumentation layer for the propagation engine: structured,
//! machine-readable measurements of each propagation pass — per-
//! differential execution timing, candidate/rejected counters, per-level
//! wave-front sizes, and a pass summary. The engine fills these structs
//! in during [`propagate`](../amos_core/propagate/index.html); `explain`
//! renders them for humans and `crates/bench` serializes them into
//! `BENCH_*.json` artifacts via the [`json`] module.
//!
//! The crate is deliberately a leaf: plain data + a hand-rolled JSON
//! writer (no registry access, so no `serde`), with no dependency on the
//! engine's types — predicates appear here by name.

pub mod json;

pub use json::JsonValue;

use std::fmt::Write as _;
use std::time::Instant;

/// Wall-clock stopwatch for filling `nanos` fields.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

/// Execution record for one partial-differential run within a pass.
#[derive(Debug, Clone)]
pub struct DiffTiming {
    /// Differential id within the network.
    pub diff: usize,
    /// Rendered differential, e.g. `Δcnd_monitor_items/Δ₊quantity`.
    pub differential: String,
    /// Name of the affected (written) predicate.
    pub affected: String,
    /// Network level of the influent node that seeded the run.
    pub level: usize,
    /// Wall-clock time of plan execution plus checks.
    pub nanos: u64,
    /// Tuples produced by the differential before §7.2 checks.
    pub candidates: usize,
    /// Tuples surviving the checks (merged with `∪Δ`).
    pub accepted: usize,
    /// Planner's estimated output rows for the executed plan, when the
    /// statistics-backed estimator produced one (`None` under the static
    /// cost model).
    pub est_rows: Option<f64>,
}

impl DiffTiming {
    /// Candidates rejected by the §7.2 correction checks.
    pub fn rejected(&self) -> usize {
        self.candidates - self.accepted
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("diff", self.diff)
            .with("differential", self.differential.as_str())
            .with("affected", self.affected.as_str())
            .with("level", self.level)
            .with("nanos", self.nanos)
            .with("candidates", self.candidates)
            .with("accepted", self.accepted)
            .with("rejected", self.rejected())
            .with(
                "est_rows",
                self.est_rows.map_or(JsonValue::Null, JsonValue::from),
            )
    }
}

/// Wave-front shape at one level of the propagation network.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Level index (0 = stored relations).
    pub level: usize,
    /// Nodes at this level holding a non-empty Δ-set when the wave
    /// reached them.
    pub active_nodes: usize,
    /// Total Δ-tuples (insertions + deletions) across those nodes.
    pub wave_tuples: usize,
    /// Differential executions launched from this level.
    pub tasks: usize,
    /// Whether the level's tasks ran on threads (false: inline).
    pub parallel: bool,
}

impl LevelStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("level", self.level)
            .with("active_nodes", self.active_nodes)
            .with("wave_tuples", self.wave_tuples)
            .with("tasks", self.tasks)
            .with("parallel", self.parallel)
    }
}

/// Summary of one full propagation pass (one check-phase wave).
#[derive(Debug, Clone, Default)]
pub struct PassMetrics {
    /// Execution strategy (`"serial"` or `"parallel"`).
    pub strategy: String,
    /// Check level the pass ran under (`"raw"`/`"nervous"`/`"strict"`).
    pub check: String,
    /// Wall-clock time of the whole pass.
    pub nanos: u64,
    /// Differentials that fired (were recorded in the trace).
    pub fired: usize,
    /// Total candidate tuples across all differentials.
    pub candidates: usize,
    /// Total candidates rejected by checks.
    pub rejected: usize,
    /// Derived-call memo ("tabling") hits during the pass — evaluations
    /// shared across differentials instead of recomputed.
    pub tabling_hits: u64,
    /// Derived-call memo misses (first evaluation of a call pattern).
    pub tabling_misses: u64,
    /// Per-level wave-front statistics, in propagation order.
    pub levels: Vec<LevelStats>,
    /// Per-differential-execution records, in merge (= serial) order.
    pub differentials: Vec<DiffTiming>,
    /// Rule actions that failed during the check phase this pass fed
    /// (`"rule: reason"`); the rule was quarantined and its updates
    /// rolled back to the pre-action savepoint.
    pub failed_actions: Vec<String>,
    /// Differential plans recompiled this pass because their statistics
    /// fingerprint drifted (adaptive planner only).
    pub replans: u64,
    /// Differential plans served from the adaptive plan cache.
    pub plan_cache_hits: u64,
    /// Stored-relation index probes during differential evaluation.
    pub probes: u64,
    /// Stored-relation full scans during differential evaluation.
    pub scans: u64,
    /// Δ-set probes through per-column hash indexes (or the small-set
    /// linear path).
    pub delta_probes: u64,
    /// Unbound Δ-set scans (the seed literal of each differential).
    pub delta_scans: u64,
    /// Sorted merge-join zipper executions (fused Δ ⋈ stored steps).
    pub merge_joins: u64,
    /// Probes that silently fell back to an O(n) relation scan because
    /// no index covered the bound columns.
    pub fallback_scans: u64,
    /// The distinct `relation[cols]` sites behind `fallback_scans`,
    /// drained once per pass.
    pub fallback_sites: Vec<String>,
    /// Differentials statically pruned from the network at activation
    /// (lint pass L004: Δ₋ on append-only relations, statically-false
    /// bodies). Constant across passes of the same network.
    pub pruned_differentials: u64,
}

impl PassMetrics {
    /// Serialize for `BENCH_*.json` and other machine consumers.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("strategy", self.strategy.as_str())
            .with("check", self.check.as_str())
            .with("nanos", self.nanos)
            .with("fired", self.fired)
            .with("candidates", self.candidates)
            .with("rejected", self.rejected)
            .with("tabling_hits", self.tabling_hits)
            .with("tabling_misses", self.tabling_misses)
            .with(
                "levels",
                JsonValue::Array(self.levels.iter().map(LevelStats::to_json).collect()),
            )
            .with(
                "differentials",
                JsonValue::Array(self.differentials.iter().map(DiffTiming::to_json).collect()),
            )
            .with(
                "failed_actions",
                JsonValue::Array(
                    self.failed_actions
                        .iter()
                        .map(|s| JsonValue::from(s.as_str()))
                        .collect(),
                ),
            )
            .with("replans", self.replans)
            .with("plan_cache_hits", self.plan_cache_hits)
            .with("probes", self.probes)
            .with("scans", self.scans)
            .with("delta_probes", self.delta_probes)
            .with("delta_scans", self.delta_scans)
            .with("merge_joins", self.merge_joins)
            .with("fallback_scans", self.fallback_scans)
            .with(
                "fallback_sites",
                JsonValue::Array(
                    self.fallback_sites
                        .iter()
                        .map(|s| JsonValue::from(s.as_str()))
                        .collect(),
                ),
            )
            .with("pruned_differentials", self.pruned_differentials)
    }

    /// Human-readable rendering for `explain` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "propagation pass: strategy={} check={} time={:.3}ms fired={} candidates={} rejected={} tabling_hits={} tabling_misses={}",
            self.strategy,
            self.check,
            self.nanos as f64 / 1e6,
            self.fired,
            self.candidates,
            self.rejected,
            self.tabling_hits,
            self.tabling_misses
        );
        let _ = writeln!(
            out,
            "  planning: replans={} plan_cache_hits={} probes={} scans={} delta_probes={} delta_scans={} merge_joins={} fallback_scans={} pruned_differentials={}",
            self.replans,
            self.plan_cache_hits,
            self.probes,
            self.scans,
            self.delta_probes,
            self.delta_scans,
            self.merge_joins,
            self.fallback_scans,
            self.pruned_differentials
        );
        for site in &self.fallback_sites {
            let _ = writeln!(out, "  FALLBACK scan at {site} (no covering index)");
        }
        for lvl in &self.levels {
            let _ = writeln!(
                out,
                "  level {}: active_nodes={} wave_tuples={} tasks={} ({})",
                lvl.level,
                lvl.active_nodes,
                lvl.wave_tuples,
                lvl.tasks,
                if lvl.parallel { "parallel" } else { "serial" }
            );
        }
        for d in &self.differentials {
            let _ = writeln!(
                out,
                "  {} -> {}: {:.3}ms candidates={} accepted={} rejected={}",
                d.differential,
                d.affected,
                d.nanos as f64 / 1e6,
                d.candidates,
                d.accepted,
                d.rejected()
            );
            if let Some(est) = d.est_rows {
                let _ = writeln!(out, "    est-rows={est:.2} actual={}", d.candidates);
            }
        }
        for fa in &self.failed_actions {
            let _ = writeln!(out, "  FAILED action {fa} (rule quarantined)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PassMetrics {
        PassMetrics {
            strategy: "parallel".into(),
            check: "strict".into(),
            nanos: 1_500_000,
            fired: 2,
            candidates: 5,
            rejected: 1,
            tabling_hits: 4,
            tabling_misses: 2,
            levels: vec![LevelStats {
                level: 0,
                active_nodes: 2,
                wave_tuples: 3,
                tasks: 2,
                parallel: true,
            }],
            differentials: vec![DiffTiming {
                diff: 7,
                differential: "Δcnd/Δ₊quantity".into(),
                affected: "cnd".into(),
                level: 0,
                nanos: 900_000,
                candidates: 5,
                accepted: 4,
                est_rows: Some(4.5),
            }],
            failed_actions: vec!["order_rule: order service down".into()],
            replans: 1,
            plan_cache_hits: 3,
            probes: 10,
            scans: 2,
            delta_probes: 6,
            delta_scans: 1,
            merge_joins: 1,
            fallback_scans: 1,
            fallback_sites: vec!["stock[1]".into()],
            pruned_differentials: 2,
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let doc = sample().to_json().to_compact();
        assert!(doc.starts_with(r#"{"strategy":"parallel","check":"strict","nanos":1500000"#));
        assert!(doc.contains(r#""levels":[{"level":0,"active_nodes":2"#));
        assert!(doc.contains(r#""rejected":1,"#));
        assert!(doc.contains(r#""tabling_hits":4,"tabling_misses":2,"#));
        assert!(doc.contains(r#""differential":"Δcnd/Δ₊quantity""#));
        assert!(doc.contains(r#""failed_actions":["order_rule: order service down"]"#));
        assert!(doc.contains(r#""est_rows":4.5"#));
        assert!(doc.contains(r#""replans":1,"plan_cache_hits":3,"#));
        assert!(doc.contains(r#""delta_scans":1,"merge_joins":1,"#));
        assert!(doc.contains(r#""fallback_scans":1,"fallback_sites":["stock[1]"]"#));
        assert!(doc.contains(r#""pruned_differentials":2"#));
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        assert!(text.contains("strategy=parallel"));
        assert!(text.contains("tabling_hits=4"));
        assert!(text.contains("level 0: active_nodes=2"));
        assert!(text.contains("accepted=4 rejected=1"));
        assert!(text.contains("FAILED action order_rule"));
        assert!(text.contains("replans=1 plan_cache_hits=3"));
        assert!(text.contains("merge_joins=1"));
        assert!(text.contains("pruned_differentials=2"));
        assert!(text.contains("est-rows=4.50 actual=5"));
        assert!(text.contains("FALLBACK scan at stock[1]"));
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }
}
