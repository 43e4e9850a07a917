//! Integration tests for the abstract-interpretation layer: the
//! L006–L009 passes surfacing through `lint_script` (snapshot-style
//! rendered output), semantic (L007) differential pruning being
//! observationally invisible across check levels × execution
//! strategies, the activation-time conformance gate, and the
//! `monitor rule … naive|incremental|auto` strategy pin.

use amos_core::hybrid::Strategy;
use amos_core::propagate::ExecStrategy;
use amos_db::engine::NetworkPrep;
use amos_db::{Amos, CheckLevel, EngineOptions, LintCode, LintConfig, MonitorMode, Severity};
use proptest::prelude::*;

fn quiet(db: &mut Amos) {
    db.register_procedure("print", |_ctx, _args| Ok(()));
    db.register_procedure("order", |_ctx, _args| Ok(()));
}

/// A schema whose rule condition has one live clause and one clause
/// that only the *semantic* (cross-predicate interval) analysis can
/// prove empty: `band(i)` is bounded above by 5 by its own body, so
/// `band(i) > 100` never holds — but no single clause is syntactically
/// contradictory, keeping L005 out of the picture. Bushy preparation
/// keeps `band` as a network sub-node instead of inlining it (inlined,
/// the contradiction becomes syntactic and the L005 pruning path
/// fires instead).
const BANDED: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function band(item i) -> integer
        as select quantity(i) where quantity(i) < 5;
    create rule watch() as
        when for each item i
        where band(i) > 100 or quantity(i) > 50
        do print(i);
"#;

fn banded_db(semantic: bool, strategy: ExecStrategy) -> Amos {
    let mut db = Amos::with_options(EngineOptions {
        network_prep: NetworkPrep::Bushy,
        semantic_pruning: semantic,
        propagation: strategy,
        ..EngineOptions::default()
    });
    quiet(&mut db);
    db.execute(BANDED).unwrap();
    db
}

// ---------------------------------------------------------------------
// Semantic pruning prunes — and is observationally invisible
// ---------------------------------------------------------------------

#[test]
fn semantic_pruning_drops_provably_empty_differentials() {
    let mut db = banded_db(true, ExecStrategy::Parallel);
    db.execute("create item instances :a; activate watch();")
        .unwrap();
    let pruned = db.rules().network().pruned_semantic();
    assert!(
        !pruned.is_empty(),
        "expected semantically pruned differentials, network:\n{}",
        db.rules().network().render(db.catalog())
    );

    let mut db = banded_db(false, ExecStrategy::Parallel);
    db.execute("create item instances :a; activate watch();")
        .unwrap();
    assert!(db.rules().network().pruned_semantic().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// L007 pruning must be invisible: run a random update workload
    /// with and without semantic pruning and compare every commit's
    /// `CheckSummary` across all check levels × execution strategies.
    #[test]
    fn semantic_pruning_preserves_semantics(
        updates in proptest::collection::vec((0usize..3, -20i64..120), 1..8),
    ) {
        let run = |semantic: bool, check: CheckLevel, strategy: ExecStrategy| {
            let mut db = banded_db(semantic, strategy);
            db.set_check_level(check);
            db.execute("create item instances :a, :b, :c; activate watch();")
                .unwrap();
            let mut summaries = Vec::new();
            for (slot, value) in &updates {
                let var = ["a", "b", "c"][*slot];
                let results = db
                    .execute(&format!(
                        "begin; set quantity(:{var}) = {value}; commit;"
                    ))
                    .unwrap();
                for r in results {
                    if let amos_db::ExecResult::Committed(s) = r {
                        summaries.push(s);
                    }
                }
            }
            summaries
        };
        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            for strategy in [ExecStrategy::Serial, ExecStrategy::Parallel] {
                let unpruned = run(false, check, strategy);
                let pruned = run(true, check, strategy);
                prop_assert_eq!(
                    &unpruned,
                    &pruned,
                    "summaries diverged at {:?}/{:?}",
                    check,
                    strategy
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The activation-time conformance gate
// ---------------------------------------------------------------------

/// A conforming network activates cleanly (the gate runs on every
/// `activate`), and the paper's inventory schema passes it.
#[test]
fn inventory_schema_passes_the_conformance_gate() {
    let mut db = Amos::new();
    quiet(&mut db);
    db.execute(include_str!("../../../examples/osql/inventory.osql"))
        .unwrap();
    db.execute("activate monitor_items();").unwrap();
    let violations =
        amos_core::verify::verify_network(db.catalog(), db.storage(), db.rules().network());
    assert!(violations.is_empty(), "{violations:?}");
}

/// A network build that loses a differential (an injected one-shot
/// fault): the gate must report it as missing, refuse the activation,
/// and roll it back.
#[cfg(feature = "fault-injection")]
#[test]
fn conformance_gate_rolls_back_a_refused_activation() {
    let mut db = banded_db(true, ExecStrategy::Parallel);
    db.set_fault_plan(std::sync::Arc::new(
        amos_storage::fault::FaultPlan::drop_differential(),
    ));
    db.execute("create item instances :a;").unwrap();
    let err = db.execute("activate watch();").unwrap_err();
    let amos_db::DbError::Conformance(violations) = err else {
        panic!("expected conformance refusal, got {err:?}");
    };
    assert!(
        violations.iter().any(|v| v.contains("was not emitted")),
        "{violations:?}"
    );
    let id = db.rules().rule_id("watch").unwrap();
    assert!(
        !db.rules().rule(id).is_active(),
        "refused activation must be rolled back"
    );
    // The fault was one-shot: the next build is whole and activates.
    db.execute("activate watch();").unwrap();
}

// ---------------------------------------------------------------------
// `monitor rule` strategy pins
// ---------------------------------------------------------------------

#[test]
fn monitor_rule_pins_override_the_hybrid_cost_model() {
    let mut db = Amos::new();
    quiet(&mut db);
    db.set_monitor_mode(MonitorMode::Hybrid);
    db.execute(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create rule low() as
            when for each item i where quantity(i) < 10 do print(i);
        create item instances :a;
        activate low();
    "#,
    )
    .unwrap();
    let id = db.rules().rule_id("low").unwrap();

    db.execute("monitor rule low naive;").unwrap();
    let text = explain(&mut db, "explain rule low;");
    assert!(text.contains("monitor strategy: naive"), "{text}");
    db.execute("begin; set quantity(:a) = 5; commit;").unwrap();
    assert_eq!(db.rules().last_strategies()[&id], Strategy::Naive);
    assert!(db.rules().stats().naive_recomputations > 0);

    db.execute("monitor rule low incremental;").unwrap();
    let text = explain(&mut db, "explain rule low;");
    assert!(text.contains("monitor strategy: incremental"), "{text}");
    db.execute("begin; set quantity(:a) = 50; commit;").unwrap();
    assert_eq!(db.rules().last_strategies()[&id], Strategy::Incremental);

    db.execute("monitor rule low auto;").unwrap();
    let text = explain(&mut db, "explain rule low;");
    assert!(text.contains("monitor strategy: auto"), "{text}");

    let err = db.execute("monitor rule missing naive;").unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

// ---------------------------------------------------------------------
// L006–L009 through the script driver (rendered-output snapshots)
// ---------------------------------------------------------------------

fn rendered(src: &str) -> Vec<String> {
    amos_db::lint_script(src, &LintConfig::default())
        .unwrap()
        .iter()
        .map(|d| d.render("f.osql"))
        .collect()
}

#[test]
fn l006_type_mismatch_is_deny_and_rendered_with_span() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function label(item i) -> charstring;
        create rule bad() as
            when for each item i where quantity(i) < label(i)
            do print(i);
    "#,
    );
    let l006: Vec<_> = out.iter().filter(|l| l.contains("[L006]")).collect();
    assert!(!l006.is_empty(), "no L006 in {out:#?}");
    assert!(
        l006.iter().any(|l| l.starts_with("f.osql:")
            && l.contains("deny[L006]")
            && l.contains("incompatible types")),
        "{l006:#?}"
    );
    // Deny severity: the script driver reports it as gate-refusing.
    let diags = amos_db::lint_script(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function label(item i) -> charstring;
        create rule bad() as
            when for each item i where quantity(i) < label(i)
            do print(i);
    "#,
        &LintConfig::default(),
    )
    .unwrap();
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::L006 && d.severity == Severity::Deny));
}

#[test]
fn l007_provably_empty_condition_is_reported_with_rule() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function band(item i) -> integer
            as select quantity(i) where quantity(i) < 5;
        create rule never() as
            when for each item i where band(i) > 100
            do print(i);
    "#,
    );
    assert!(
        out.iter().any(|l| l.contains("warn[L007]")
            && l.contains("can never fire")
            && l.contains("[never]")),
        "{out:#?}"
    );
}

#[test]
fn l008_subsumed_condition_names_both_rules() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create rule tight() as
            when for each item i where quantity(i) < 5 do print(i);
        create rule loose() as
            when for each item i where quantity(i) < 10 do print(i);
    "#,
    );
    assert!(
        out.iter()
            .any(|l| l.contains("warn[L008]") && l.contains("tight") && l.contains("loose")),
        "{out:#?}"
    );
}

#[test]
fn l009_foldable_subcondition_shows_residual() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function small(item i) -> integer
            as select quantity(i) where quantity(i) < 5;
        create rule low() as
            when for each item i where small(i) < 10
            do print(i);
    "#,
    );
    assert!(
        out.iter().any(|l| l.contains("warn[L009]")
            && l.contains("folded away")
            && l.contains("residual")),
        "{out:#?}"
    );
}

#[test]
fn clean_inventory_schema_has_no_absint_findings() {
    let mut strict = LintConfig::default();
    strict.deny_warnings();
    let diags = amos_db::lint_script(
        include_str!("../../../examples/osql/inventory.osql"),
        &strict,
    )
    .unwrap();
    assert!(diags.is_empty(), "unexpected findings: {diags:#?}");
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

fn explain(db: &mut Amos, stmt: &str) -> String {
    let results = db.execute(stmt).unwrap();
    for r in results {
        if let amos_db::ExecResult::Text(t) = r {
            return t;
        }
    }
    panic!("statement produced no text output");
}
