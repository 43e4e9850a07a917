//! The three embedded workloads (`small_txn`, `bulk_txn`, `mixed_rules`):
//! an `Amos` driven through its public API by one closed-loop caller.

use std::time::Instant;

use amos_core::propagate::propagate_with;
use amos_db::{ExecStrategy, MonitorMode, NetworkPrep};

use crate::gen::{Source, Stream};
use crate::stats::{layer_shares, median, median_f64, sliced_p99, sliced_rate, Trace, NO_PARENT};
use crate::world::{Txn, World, WorldSpec, CONDITION_QUERY, MIXED_RULES};
use crate::{peak_rss_mb, write_trace, Outcome, RunConfig};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// `mixed_rules` transactions replayed on the naive twin. A naive commit
/// re-evaluates eight conditions over 2 000 items in each of its passes,
/// about 0.2 s a transaction: 50 (the first rollback included) is what a
/// run's time allows.
const TWIN_TXNS: usize = 50;

pub fn spec_of(stream: Stream) -> WorldSpec {
    let paper = WorldSpec {
        n_items: 10_000,
        prep: NetworkPrep::Flat,
        append_only: true,
        rules: 1,
        writeback: false,
        mode: MonitorMode::Incremental,
    };
    match stream {
        Stream::Small | Stream::Bulk => paper,
        Stream::Mixed => WorldSpec {
            n_items: 2_000,
            prep: NetworkPrep::Bushy,
            append_only: false,
            rules: MIXED_RULES,
            writeback: true,
            ..paper
        },
    }
}

/// Transactions run before timing starts, and timed. The timed count is
/// a fixed rate times `--seconds` (sized so that the timed section takes
/// about that long at the commit that defined the benchmark), not a
/// duration: the same seed then runs the same transactions on every
/// commit, and the engine's counts repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub warmup: usize,
    pub timed: usize,
}

/// What the traced run does with each transaction of the timed section,
/// by its index: three in five are traced, one runs untraced as the
/// reference for `bench.trace_overhead` (interleaved, so that neither the
/// machine's drift nor the world's growth separates the two), and one is
/// used to time `propagate_with` beside the real pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Traced,
    Reference,
    Side,
}

fn role(index: usize) -> Role {
    match index % 5 {
        3 => Role::Reference,
        4 => Role::Side,
        _ => Role::Traced,
    }
}

pub fn counts(stream: Stream, cfg: &RunConfig) -> Counts {
    let s = cfg.seconds as usize;
    let c = match stream {
        Stream::Small => Counts {
            warmup: 1_000,
            timed: 5_000 * s,
        },
        Stream::Bulk => Counts {
            warmup: 2,
            timed: 2 * s,
        },
        Stream::Mixed => Counts {
            warmup: 200,
            timed: 250 * s,
        },
    };
    if cfg.quick {
        Counts {
            warmup: (c.warmup / 50).max(1),
            timed: (c.timed / 50).max(5),
        }
    } else {
        c
    }
}

/// Build the world and run the warm-up transactions (lazy index build,
/// first materialisation), so that none of it is in the timed section.
fn setup(stream: Stream, spec: &WorldSpec, seed: u64, warmup: usize) -> (World, Source, u64) {
    let mut world = World::build(spec);
    let mut src = Source::new(stream, spec, seed);
    let mut failed = 0;
    for i in 0..warmup {
        let txn = src.next_txn();
        let start = Instant::now();
        failed += world.run(&txn).is_err() as u64;
        if i == 0 {
            world.times.first_txn_us = start.elapsed().as_nanos() as f64 / 1e3;
        }
    }
    (world, src, failed)
}

/// The timed section of the untraced run: one sample per transaction,
/// `begin` to `commit()` returned. Returns the samples in order, when
/// each transaction returned (ns from the start of the section) and the
/// number of failed transactions.
fn timed_section(world: &mut World, txns: &[Txn]) -> (Vec<u64>, Vec<u64>, u64) {
    let mut samples = Vec::with_capacity(txns.len());
    let mut ends = Vec::with_capacity(txns.len());
    let mut failed = 0;
    let wall = Instant::now();
    for txn in txns {
        let start = Instant::now();
        let result = world.run(txn);
        let end = Instant::now();
        samples.push((end - start).as_nanos() as u64);
        ends.push((end - wall).as_nanos() as u64);
        failed += result.is_err() as u64;
    }
    (samples, ends, failed)
}

pub fn us(ns: f64) -> f64 {
    ns / 1e3
}

pub fn run(stream: Stream, cfg: &RunConfig) -> Outcome {
    if cfg.trace {
        run_traced(stream, cfg)
    } else {
        run_untraced(stream, cfg)
    }
}

fn run_untraced(stream: Stream, cfg: &RunConfig) -> Outcome {
    let spec = spec_of(stream);
    let n = counts(stream, cfg);
    let mut out = Outcome::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        let (world, src, failed) = setup(stream, &spec, cfg.seed, n.warmup);
        setup_s.push(start.elapsed().as_secs_f64());
        out.failed += failed;
        built = Some((world, src));
    }
    let (mut world, mut src) = built.expect("SETUPS > 0");
    out.attempted += (SETUPS * n.warmup) as u64;

    let txns = src.take(n.timed);
    let (samples, ends, failed) = timed_section(&mut world, &txns);
    out.attempted += txns.len() as u64;
    out.failed += failed;
    let committed: Vec<bool> = txns.iter().map(|t| !t.rollback).collect();
    if cfg.break_model {
        src.model.items[0].quantity += 1;
    }

    out.check(world.check_against(&src.model));
    if stream == Stream::Mixed {
        out.check(twin_disagreements(cfg, &spec, &world));
    }
    out.digest = world.state_digest();

    let m = &mut out.metrics;
    m.set_p50_us("txn_p50_us", &samples);
    m.set("txn_p99_us", us(sliced_p99(&samples)), samples.len());
    m.set(
        "commits_per_s",
        sliced_rate(&ends, &committed),
        samples.len(),
    );
    m.set("setup_s", median_f64(&setup_s), SETUPS);
    m.set("peak_rss_mb", peak_rss_mb(), 1);
    out
}

/// Replay the first transactions of the run on a second engine that
/// monitors naively, and compare the (rule, instance) firings: the
/// incremental monitor must trigger exactly what full re-evaluation does.
fn twin_disagreements(cfg: &RunConfig, spec: &WorldSpec, world: &World) -> Vec<String> {
    let n = counts(Stream::Mixed, cfg);
    let replay = TWIN_TXNS.min(n.warmup + n.timed);
    let (twin, _) = naive_twin(Stream::Mixed, cfg, spec, replay);
    let mut want = twin.firings.lock().expect("firings lock").clone();
    // The main engine ran on past the twin. If the two agree, its first
    // `want.len()` firings are those of the same transactions.
    let mut got = world.firings.lock().expect("firings lock").clone();
    got.truncate(want.len());
    want.sort_unstable();
    got.sort_unstable();
    if got == want {
        Vec::new()
    } else {
        vec![format!(
            "the naive twin fired {} (rule, instance) pairs over {replay} transactions, \
             the incremental engine a different multiset",
            want.len()
        )]
    }
}

/// The same world under `MonitorMode::Naive`, run over the first `txns`
/// transactions of the seed's stream; returns it with one sample per
/// transaction.
fn naive_twin(stream: Stream, cfg: &RunConfig, spec: &WorldSpec, txns: usize) -> (World, Vec<u64>) {
    let naive = WorldSpec {
        mode: MonitorMode::Naive,
        ..*spec
    };
    let mut twin = World::build(&naive);
    let mut src = Source::new(stream, &naive, cfg.seed);
    let (samples, _, _) = timed_section(&mut twin, &src.take(txns));
    (twin, samples)
}

/// What the engine counted over the traced transactions. These repeat
/// exactly for one seed, whatever the machine does.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Totals {
    pub txns: u64,
    pub passes: u64,
    /// Transactions whose last pass `last_pass_metrics` described.
    pub last_passes: u64,
    pub levels: u64,
    pub tasks: u64,
    pub wave_tuples: u64,
    pub fired: u64,
    pub candidates: u64,
    pub rejected: u64,
    pub actions: u64,
    pub failed_actions: u64,
    pub replans: u64,
    pub plan_cache_hits: u64,
    pub pruned_differentials: u64,
    pub probes: u64,
    pub scans: u64,
    pub delta_probes: u64,
    pub delta_scans: u64,
    pub merge_joins: u64,
    pub fallback_scans: u64,
    pub tabling_hits: u64,
    pub tabling_misses: u64,
    pub delta_tuples: u64,
}

impl Totals {
    /// The counts that repeat exactly. On a bushy network the per-pass
    /// memo of derived calls is filled by racing worker threads: two of
    /// them can miss the same key at once, so `probes` and the split of
    /// lookups into hits and misses move by a few per mille from run to
    /// run (their sum does not).
    pub fn repeatable(&self) -> Totals {
        Totals {
            probes: 0,
            tabling_hits: self.tabling_hits + self.tabling_misses,
            tabling_misses: 0,
            ..self.clone()
        }
    }
}

/// Timings (ns) taken around the layer calls of the traced run.
#[derive(Default)]
struct Samples {
    txn: Vec<u64>,
    update: Vec<u64>,
    apply: Vec<u64>,
    check: Vec<u64>,
    pass: Vec<u64>,
    diff_sum: Vec<u64>,
    overhead: Vec<u64>,
    commit: Vec<u64>,
    rollback: Vec<u64>,
    serial: Vec<u64>,
    parallel: Vec<u64>,
}

/// Everything the traced run records.
#[derive(Default)]
struct Recorder {
    trace: Trace,
    samples: Samples,
    totals: Totals,
}

/// One transaction of the traced run: the single `commit()` replaced by
/// the layer calls in sequence, a span around each. A `side` transaction
/// times `propagate_with` beside the real pass and leaves no spans or
/// samples of its own.
fn traced_txn(
    world: &mut World,
    txn: &Txn,
    id: u32,
    side: bool,
    rec: &mut Recorder,
) -> Result<(), String> {
    let Recorder {
        trace,
        samples: s,
        totals,
    } = rec;
    let root = trace.open("txn", NO_PARENT, id);
    let spans_before = trace.spans.len();
    trace
        .span("storage.begin", root, id, || world.db.begin())
        .0
        .map_err(|e| e.to_string())?;
    let mut apply = 0;
    for op in &txn.ops {
        let (r, ns) = trace.span("storage.update", root, id, || world.apply(op));
        r.map_err(|e| e.to_string())?;
        apply += ns;
        if !side {
            s.update.push(ns);
        }
    }
    totals.txns += 1;
    totals.delta_tuples += world.delta_tuples() as u64;

    if txn.rollback {
        let (r, ns) = trace.span("storage.rollback", root, id, || world.db.rollback());
        r.map_err(|e| e.to_string())?;
        s.rollback.push(ns);
    } else {
        if side {
            // Read-only on the open transaction's Δ-sets, so it can run
            // beside the real pass; it warms the caches the real pass
            // then uses, which is why this transaction is not sampled.
            for (strategy, into) in [
                (ExecStrategy::Serial, &mut s.serial),
                (ExecStrategy::Parallel, &mut s.parallel),
            ] {
                let rules = world.db.rules();
                let start = Instant::now();
                let r = propagate_with(
                    rules.network(),
                    world.db.catalog(),
                    world.db.storage(),
                    rules.check,
                    strategy,
                );
                into.push(start.elapsed().as_nanos() as u64);
                r.map_err(|e| e.to_string())?;
            }
        }
        let before = world.db.rules().stats();
        let check = trace.open("core.check_phase", root, id);
        let result = world.db.check_now();
        let check_ns = trace.close(check);
        result.map_err(|e| e.to_string())?;
        let after = world.db.rules().stats();
        let passes = (after.passes - before.passes) as u64;
        totals.passes += passes;
        totals.fired += (after.differentials_executed - before.differentials_executed) as u64;
        totals.candidates += (after.tuples_produced - before.tuples_produced) as u64;
        totals.rejected += (after.tuples_rejected - before.tuples_rejected) as u64;
        totals.actions += (after.actions_executed - before.actions_executed) as u64;
        totals.failed_actions += (after.actions_failed - before.actions_failed) as u64;
        // `last_pass_metrics` is a snapshot of the last pass only: when a
        // firing cascades, the earlier passes of this check phase are in
        // the cumulative counts above but not in the per-pass ones below.
        if let (true, Some(pm)) = (passes > 0, world.db.last_pass_metrics()) {
            totals.last_passes += 1;
            totals.levels += pm.levels.len() as u64;
            totals.tasks += pm.levels.iter().map(|l| l.tasks as u64).sum::<u64>();
            totals.wave_tuples += pm.levels.iter().map(|l| l.wave_tuples as u64).sum::<u64>();
            totals.replans += pm.replans;
            totals.plan_cache_hits += pm.plan_cache_hits;
            totals.pruned_differentials = pm.pruned_differentials;
            totals.probes += pm.probes;
            totals.scans += pm.scans;
            totals.delta_probes += pm.delta_probes;
            totals.delta_scans += pm.delta_scans;
            totals.merge_joins += pm.merge_joins;
            totals.fallback_scans += pm.fallback_scans;
            totals.tabling_hits += pm.tabling_hits;
            totals.tabling_misses += pm.tabling_misses;
            // The engine reports durations, not instants: lay the pass
            // out from the start of the check phase and the differential
            // executions one after another inside it.
            let at = trace.spans[check as usize].start_ns;
            let end = trace.spans[check as usize].end_ns;
            let pass = trace.push("core.pass", at, (at + pm.nanos).min(end), check, id);
            let pass_end = trace.spans[pass as usize].end_ns;
            let mut cursor = at;
            let mut diff_sum = 0;
            for d in &pm.differentials {
                let stop = (cursor + d.nanos).min(pass_end);
                trace.push("objectlog.diff", cursor, stop, pass, id);
                cursor = stop;
                diff_sum += d.nanos;
            }
            if !side {
                s.pass.push(pm.nanos);
                s.diff_sum.push(diff_sum);
                s.overhead.push(pm.nanos.saturating_sub(diff_sum));
            }
        }
        let (r, ns) = trace.span("storage.commit", root, id, || world.db.commit());
        r.map_err(|e| e.to_string())?;
        if !side {
            s.check.push(check_ns);
            s.commit.push(ns);
        }
    }
    let txn_ns = trace.close(root);
    if side {
        trace.spans.truncate(spans_before - 1);
    } else {
        s.txn.push(txn_ns);
        s.apply.push(apply);
    }
    Ok(())
}

fn run_traced(stream: Stream, cfg: &RunConfig) -> Outcome {
    let spec = spec_of(stream);
    let n = counts(stream, cfg);
    let mut out = Outcome::default();

    let (mut world, mut src, failed) = setup(stream, &spec, cfg.seed, n.warmup);
    out.failed += failed;
    out.attempted += n.warmup as u64;

    let txns = src.take(n.timed);
    let mut rec = Recorder::default();
    let mut ref_samples = Vec::new();
    let wall = Instant::now();
    for (i, txn) in txns.iter().enumerate() {
        let role = role(i);
        let r = if role == Role::Reference {
            let start = Instant::now();
            let r = world.run(txn);
            ref_samples.push(start.elapsed().as_nanos() as u64);
            r
        } else {
            let items_before = world.items.len();
            let side = role == Role::Side;
            let r = traced_txn(&mut world, txn, i as u32, side, &mut rec);
            if r.is_err() || txn.rollback {
                world.undo(items_before);
            }
            r
        };
        out.failed += r.is_err() as u64;
    }
    let timed_s = wall.elapsed().as_secs_f64();
    out.attempted += txns.len() as u64;
    let ref_p50 = median(&ref_samples);

    out.check(world.check_against(&src.model));
    out.digest = world.state_digest();

    // Sampled point lookups and the rule condition as a query (the
    // naive monitor's unit of work), after the transactions.
    let mut probe = Vec::new();
    let quantity = world.db.storage().relation(world.rels.quantity);
    for oid in world
        .items
        .iter()
        .step_by((world.items.len() / 2_000).max(1))
    {
        let key = [amos_db::Value::Oid(*oid)];
        let start = Instant::now();
        std::hint::black_box(quantity.probe(&[0], &key));
        probe.push(start.elapsed().as_nanos() as u64);
    }
    let mut cond_eval = Vec::new();
    for _ in 0..if cfg.quick { 3 } else { 15 } {
        let start = Instant::now();
        let rows = world.db.query(CONDITION_QUERY);
        cond_eval.push(start.elapsed().as_nanos() as u64);
        out.attempted += 1;
        out.failed += rows.is_err() as u64;
    }
    let start = Instant::now();
    std::hint::black_box(world.db.lint_all());
    let lint_ms = start.elapsed().as_secs_f64() * 1e3;

    let naive = naive_reference(stream, cfg, &spec);
    out.attempted += naive.len() as u64;
    let flatness = (stream == Stream::Small).then(|| {
        // Paper fig. 6: the same transactions on a world a hundredth
        // the size should cost the same.
        let small_world = WorldSpec {
            n_items: 100,
            ..spec
        };
        let (mut w, mut src, _) = setup(stream, &small_world, cfg.seed, n.warmup);
        let side = src.take(n.timed * 2 / 5);
        let (samples, _, failed) = timed_section(&mut w, &side);
        out.attempted += side.len() as u64;
        out.failed += failed;
        (ref_p50 / median(&samples), samples.len())
    });

    let Recorder {
        trace,
        samples: s,
        totals,
    } = rec;
    let shares = layer_shares(&trace.spans);
    write_trace(crate::workload_name(stream), &trace.spans, &shares);

    let t = &totals;
    let per_txn = |total: u64| total as f64 / t.txns.max(1) as f64;
    let per_pass = |total: u64| total as f64 / t.last_passes.max(1) as f64;
    let n_txn = t.txns as usize;
    let m = &mut out.metrics;
    m.set("db.populate_ms", world.times.populate_ms, 1);
    m.set("db.activate_ms", world.times.activate_ms, 1);
    m.set("db.first_txn_us", world.times.first_txn_us, 1);
    m.set_p50_us("core.check_phase_p50_us", &s.check);
    m.set_p50_us("core.pass_p50_us", &s.pass);
    m.set_p50_us("core.diff_sum_p50_us", &s.diff_sum);
    m.set_p50_us("core.executor_overhead_p50_us", &s.overhead);
    m.set_p50_us("core.propagate_serial_p50_us", &s.serial);
    m.set_p50_us("core.propagate_parallel_p50_us", &s.parallel);
    m.set_p50_us("core.naive_ref_p50_us", &naive);
    m.set_p50_us("objectlog.cond_eval_p50_us", &cond_eval);
    m.set_p50_us("storage.apply_us", &s.apply);
    m.set_p50_us("storage.commit_p50_us", &s.commit);
    m.set_p50_us("storage.rollback_p50_us", &s.rollback);
    m.set("storage.update_p50_ns", median(&s.update), s.update.len());
    m.set("storage.probe_p50_ns", median(&probe), probe.len());
    for (name, total) in [
        ("core.passes", t.passes),
        ("core.fired", t.fired),
        ("core.candidates", t.candidates),
        ("core.rejected", t.rejected),
        ("core.actions", t.actions),
        ("core.failed_actions", t.failed_actions),
        ("core.replans", t.replans),
        ("core.plan_cache_hits", t.plan_cache_hits),
        ("objectlog.probes", t.probes),
        ("objectlog.scans", t.scans),
        ("objectlog.delta_probes", t.delta_probes),
        ("objectlog.delta_scans", t.delta_scans),
        ("objectlog.merge_joins", t.merge_joins),
        ("objectlog.fallback_scans", t.fallback_scans),
        ("storage.delta_tuples", t.delta_tuples),
    ] {
        m.set(name, per_txn(total), n_txn);
    }
    m.set("core.levels_per_pass", per_pass(t.levels), n_txn);
    m.set("core.tasks_per_pass", per_pass(t.tasks), n_txn);
    m.set("core.wave_tuples_per_pass", per_pass(t.wave_tuples), n_txn);
    let pruned = t.pruned_differentials as f64;
    m.set("core.pruned_differentials", pruned, 1);
    // No candidate, none rejected: nothing was wasted.
    let accept_ratio = match t.candidates {
        0 => 1.0,
        c => (c - t.rejected) as f64 / c as f64,
    };
    m.set("core.accept_ratio", accept_ratio, n_txn);
    let lookups = (t.tabling_hits + t.tabling_misses).max(1);
    let hit_ratio = t.tabling_hits as f64 / lookups as f64;
    m.set("objectlog.tabling_hit_ratio", hit_ratio, n_txn);
    // Rows examined per result — per transaction where the differentials
    // produced no candidate at all (every update stays above threshold).
    let rows = (t.probes + t.scans + t.delta_probes) as f64;
    let results = t.candidates.max(t.txns).max(1) as f64;
    m.set("objectlog.rows_per_candidate", rows / results, n_txn);
    m.set("core.inc_over_naive", ref_p50 / median(&naive), naive.len());
    if let Some((ratio, samples)) = flatness {
        m.set("core.size_flatness", ratio, samples);
    }
    m.set("lint.lint_all_ms", lint_ms, 1);
    m.set("bench.calib_ms", crate::calibrate_ms(), 1);
    let overhead = median(&s.txn) / ref_p50;
    m.set("bench.trace_overhead", overhead, s.txn.len());
    m.set("bench.timed_s", timed_s, 1);
    let attributed = 1.0 - shares.get("unattributed").copied().unwrap_or(1.0);
    m.set("bench.attributed_share", attributed, s.txn.len());
    out.totals = totals;
    out
}

/// One sample per transaction of the stream's first transactions under
/// `MonitorMode::Naive`, on a world of its own (the naive monitor
/// materialises its conditions at activation).
fn naive_reference(stream: Stream, cfg: &RunConfig, spec: &WorldSpec) -> Vec<u64> {
    let n = counts(stream, cfg);
    let rounds = match stream {
        // A naive transaction re-evaluates the condition over all 10 000
        // items: tens of milliseconds each.
        Stream::Small => 30,
        Stream::Bulk => 5,
        Stream::Mixed => TWIN_TXNS,
    };
    naive_twin(stream, cfg, spec, rounds.min(n.timed)).1
}
