//! # amos-metrics
//!
//! Instrumentation layer for the propagation engine: structured,
//! machine-readable measurements of each propagation pass — per-
//! differential execution timing, candidate/rejected counters, per-level
//! wave-front sizes, and a pass summary. The engine fills these structs
//! in during [`propagate`](../amos_core/propagate/index.html); `explain`
//! renders them for humans and the repo benchmark reads their fields.
//!
//! The crate is deliberately a leaf: plain data + a hand-rolled JSON
//! value (no registry access, so no `serde`) for the benchmark's
//! reports, with no dependency on the engine's types — predicates appear
//! here by name.

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
    /// Wall-clock time of plan execution plus the check.
    pub nanos: u64,
    /// Tuples produced by the differential before the §7.2 check.
    pub candidates: usize,
    /// Tuples surviving the check (merged with `∪Δ`).
    pub accepted: usize,
    /// Planner's estimated output rows for the executed plan, when the
    /// statistics-backed estimator produced one (`None` under the static
    /// cost model).
    pub est_rows: Option<f64>,
}

impl DiffTiming {
    /// Candidates rejected by the §7.2 deletion check.
    pub fn rejected(&self) -> usize {
        self.candidates - self.accepted
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

/// Summary of one full propagation pass (one check-phase wave).
#[derive(Debug, Clone, Default)]
pub struct PassMetrics {
    /// Execution strategy (`"serial"` or `"parallel"`).
    pub strategy: String,
    /// Wall-clock time of the whole pass.
    pub nanos: u64,
    /// Differentials that fired (were recorded in the trace).
    pub fired: usize,
    /// Total candidate tuples across all differentials.
    pub candidates: usize,
    /// Total candidates rejected by the §7.2 deletion check.
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
    /// Always 0: the evaluator has no merge-join step. The field stays
    /// because the benchmark harness reads it.
    pub merge_joins: u64,
    /// Probes that silently fell back to an O(n) relation scan because
    /// no index covered the bound columns.
    pub fallback_scans: u64,
    /// The distinct `relation[cols]` sites behind `fallback_scans`,
    /// drained once per pass.
    pub fallback_sites: Vec<String>,
    /// `holds` calls of the rule-level strict filter after propagation
    /// (two per candidate that was false before, one per candidate that
    /// already held). Kept apart from `probes`, which counts propagation
    /// alone.
    pub filter_holds: u64,
    /// Stored-relation probes those `holds` calls made.
    pub filter_probes: u64,
    /// Differentials statically pruned from the network at activation
    /// (lint pass L004: Δ₋ on append-only relations, statically-false
    /// bodies). Constant across passes of the same network.
    pub pruned_differentials: u64,
}

impl PassMetrics {
    /// Human-readable rendering for `explain` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "propagation pass: strategy={} time={:.3}ms fired={} candidates={} rejected={} tabling_hits={} tabling_misses={}",
            self.strategy,
            self.nanos as f64 / 1e6,
            self.fired,
            self.candidates,
            self.rejected,
            self.tabling_hits,
            self.tabling_misses
        );
        let _ = writeln!(
            out,
            "  planning: replans={} plan_cache_hits={} probes={} scans={} delta_probes={} delta_scans={} fallback_scans={} pruned_differentials={} filter_holds={} filter_probes={}",
            self.replans,
            self.plan_cache_hits,
            self.probes,
            self.scans,
            self.delta_probes,
            self.delta_scans,
            self.fallback_scans,
            self.pruned_differentials,
            self.filter_holds,
            self.filter_probes
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
            merge_joins: 0,
            fallback_scans: 1,
            fallback_sites: vec!["stock[1]".into()],
            filter_holds: 3,
            filter_probes: 9,
            pruned_differentials: 2,
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let text = sample().render();
        assert!(text.contains("propagation pass: strategy=parallel time=1.500ms"));
        assert!(text.contains("tabling_hits=4"));
        assert!(text.contains("level 0: active_nodes=2"));
        assert!(text.contains("accepted=4 rejected=1"));
        assert!(text.contains("FAILED action order_rule"));
        assert!(text.contains("replans=1 plan_cache_hits=3"));
        assert!(text.contains("delta_scans=1 fallback_scans=1"));
        assert!(!text.contains("merge_joins"));
        assert!(text.contains("pruned_differentials=2 filter_holds=3 filter_probes=9"));
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
