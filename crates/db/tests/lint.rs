//! Integration tests for the static rule analyzer: the `activate`
//! lint gate, `explain rule` surfacing, the script-lint driver, and
//! the satellite properties — L004-pruned networks are observationally
//! identical to unpruned ones, and rule sets the analyzer accepts
//! terminate under Strict semantics in bounded passes.

use amos_db::{Amos, DbError, EngineOptions, LintCode, LintConfig, Severity, Value};
use amos_objectlog::clause::ClauseBuilder;
use amos_objectlog::Term;
use proptest::prelude::*;

const INVENTORY: &str = include_str!("../../../examples/osql/inventory.osql");
const BAD_RULES: &str = include_str!("../../../examples/osql/bad_rules.osql");

fn quiet(db: &mut Amos) {
    db.register_procedure("print", |_ctx, _args| Ok(()));
    db.register_procedure("order", |_ctx, _args| Ok(()));
}

// ---------------------------------------------------------------------
// The activate gate
// ---------------------------------------------------------------------

/// Mutual recursion through negation cannot be written in AMOSQL (the
/// compiler's two-phase definition only permits self-reference), but
/// the catalog can be rewired into it programmatically. The scoped
/// L002 pass must catch it at `activate` and refuse with a deny-level
/// diagnostic. Two rules call `flip`: the first, alone, expands it as
/// it was defined and activates; the second keeps `flip` as a shared
/// node, so the rewiring becomes reachable from both conditions, and
/// the refusal puts the first condition's shape back.
#[test]
fn activate_refuses_non_stratifiable_rule() {
    let mut db = Amos::new();
    quiet(&mut db);
    db.execute(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function flip(item i) -> boolean
            as select true where quantity(i) > 0;
        create function flop(item i) -> boolean
            as select true where quantity(i) > 0;
        create rule watch() as
            when for each item i where flip(i) do print(i);
        create rule watch_too() as
            when for each item i where flip(i) and quantity(i) > 5 do print(i);
    "#,
    )
    .unwrap();
    let flip = db.catalog().lookup("flip").unwrap();
    let flop = db.catalog().lookup("flop").unwrap();
    let quantity = db.catalog().lookup("quantity").unwrap();
    // flip(X, true) ← quantity(X, Q) ∧ ¬flop(X, true)
    db.catalog_mut()
        .replace_clauses(
            flip,
            vec![ClauseBuilder::new(2)
                .head([Term::var(0), Term::val(true)])
                .pred(quantity, [Term::var(0), Term::var(1)])
                .not_pred(flop, [Term::var(0), Term::val(true)])
                .build()],
        )
        .unwrap();
    // flop(X, true) ← flip(X, true)
    db.catalog_mut()
        .replace_clauses(
            flop,
            vec![ClauseBuilder::new(1)
                .head([Term::var(0), Term::val(true)])
                .pred(flip, [Term::var(0), Term::val(true)])
                .build()],
        )
        .unwrap();
    db.execute("activate watch_too();").unwrap();
    let watch_too = db.catalog().lookup("cnd_watch_too").unwrap();
    let flat = db.catalog().def(watch_too).clauses().unwrap().to_vec();
    let err = db.execute("activate watch();").unwrap_err();
    let DbError::Lint(diags) = err else {
        panic!("expected lint refusal, got {err:?}");
    };
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::L002 && d.severity == Severity::Deny));
    assert!(db.to_owned_err_msg(&diags).contains("flip"));
    assert_eq!(db.catalog().def(watch_too).clauses().unwrap(), &flat[..]);
    assert!(db.rules().network().node_of(flip).is_none());
}

/// Escalating a default-warn code to deny makes the gate refuse; the
/// default configuration lets the same rule activate (with a warning
/// visible in `explain rule`).
#[test]
fn lint_level_escalation_gates_activation() {
    let schema = r#"
        create type item;
        create function flagged(item i) -> integer;
        create rule purge() as
            when for each item i where flagged(i) = 1
            do remove flagged(i) = 1;
    "#;
    // Default: L003 warns, activation proceeds.
    let mut db = Amos::new();
    quiet(&mut db);
    db.execute(schema).unwrap();
    db.execute("activate purge();").unwrap();

    // Escalated: L003 denies, activation refused.
    let mut level = LintConfig::default();
    level.set_level(LintCode::L003, Severity::Deny);
    let mut db = Amos::with_options(EngineOptions {
        lint_level: level,
        ..EngineOptions::default()
    });
    quiet(&mut db);
    db.execute(schema).unwrap();
    let err = db.execute("activate purge();").unwrap_err();
    let DbError::Lint(diags) = err else {
        panic!("expected lint refusal, got {err:?}");
    };
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::L003 && d.message.contains("self-disactivating")));
}

#[test]
fn explain_rule_includes_lint_findings() {
    let mut db = Amos::new();
    quiet(&mut db);
    db.execute(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create rule impossible() as
            when for each item i
            where quantity(i) < 3 and quantity(i) > 9
            do print(i);
    "#,
    )
    .unwrap();
    let text = db.explain("explain rule impossible;");
    assert!(text.contains("lint:"), "missing lint section:\n{text}");
    assert!(text.contains("[L005]"), "missing L005 finding:\n{text}");
    assert!(text.contains("contradictory bounds"), "{text}");
}

// ---------------------------------------------------------------------
// Script-lint driver
// ---------------------------------------------------------------------

#[test]
fn lint_script_reports_all_nine_codes_with_spans() {
    let diags = amos_db::lint_script(BAD_RULES, &LintConfig::default()).unwrap();
    for code in [
        LintCode::L001,
        LintCode::L002,
        LintCode::L003,
        LintCode::L004,
        LintCode::L005,
        LintCode::L006,
        LintCode::L007,
        LintCode::L008,
        LintCode::L009,
    ] {
        let found: Vec<_> = diags.iter().filter(|d| d.code == code).collect();
        assert!(!found.is_empty(), "no {code} finding in:\n{diags:#?}");
        assert!(
            found.iter().all(|d| d.span.is_some()),
            "{code} finding lacks a span:\n{found:#?}"
        );
    }
    // The L001 finding names the unbindable variable by source name.
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::L001 && d.message.contains('n')));
    assert!(amos_lint::has_deny(&diags));
}

#[test]
fn lint_script_accepts_the_clean_inventory_schema() {
    let mut strict = LintConfig::default();
    strict.deny_warnings();
    let diags = amos_db::lint_script(INVENTORY, &strict).unwrap();
    assert!(diags.is_empty(), "unexpected findings: {diags:#?}");
}

// ---------------------------------------------------------------------
// Satellite: L004 pruning is observationally invisible
// ---------------------------------------------------------------------

/// Run the inventory workload with and without the append-only marks
/// and compare every commit's `CheckSummary` under both execution
/// strategies. Pruned networks must be bit-identical in
/// observable behaviour (the Δ₋ sets they skip are always empty).
#[test]
fn pruned_network_matches_unpruned_check_summaries() {
    use amos_core::propagate::ExecStrategy;

    let run_world = |db: &mut Amos, pruned: bool| -> Vec<amos_core::rules::CheckSummary> {
        let schema = r#"
            create type item;
            create function arrivals(item i) -> integer;
            create function quantity(item i) -> integer;
            create rule low() as
                when for each item i
                where quantity(i) < 10 and arrivals(i) > 0
                do print(i);
        "#;
        quiet(db);
        db.execute(schema).unwrap();
        if pruned {
            db.set_append_only("arrivals", true).unwrap();
            db.set_append_only("item_extent", true).unwrap();
        }
        db.execute("create item instances :a, :b, :c;").unwrap();
        db.execute("activate low();").unwrap();
        if pruned {
            assert!(
                db.rules().network().pruned_count() > 0,
                "append-only marks should prune Δ₋ differentials"
            );
        } else {
            assert_eq!(db.rules().network().pruned_count(), 0);
        }
        let mut summaries = Vec::new();
        // Append-only workload: inserts and quantity updates only.
        for (tx, stmts) in [
            "begin; add arrivals(:a) = 1; set quantity(:a) = 5; commit;",
            "begin; add arrivals(:b) = 2; commit;",
            "begin; set quantity(:b) = 3; set quantity(:c) = 50; commit;",
            "begin; add arrivals(:c) = 7; set quantity(:a) = 4; commit;",
        ]
        .into_iter()
        .enumerate()
        {
            let results = db.execute(stmts).unwrap();
            for r in results {
                if let amos_db::ExecResult::Committed(s) = r {
                    summaries.push((tx, s));
                }
            }
        }
        summaries.into_iter().map(|(_, s)| s).collect()
    };

    for strategy in [ExecStrategy::Serial, ExecStrategy::Parallel] {
        let opts = || EngineOptions {
            propagation: strategy,
            ..EngineOptions::default()
        };
        let baseline = run_world(&mut Amos::with_options(opts()), false);
        let pruned = run_world(&mut Amos::with_options(opts()), true);
        assert_eq!(baseline, pruned, "summaries diverged at {strategy:?}");
    }
}

// ---------------------------------------------------------------------
// Satellite: accepted strict rule sets terminate
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generate small acyclic cascades — rule k monitors level k and
    /// writes level k+1 — which L002/L003 accept (no recursion, no
    /// triggering cycle), and check that the check phase of these strict
    /// rules terminates within the bounded number of cascade passes.
    #[test]
    fn accepted_rule_sets_terminate_under_strict(
        depth in 1usize..4,
        seed in 0i64..50,
    ) {
        let mut db = Amos::new();
        quiet(&mut db);
        db.execute("create type item;").unwrap();
        for lvl in 0..=depth {
            db.execute(&format!("create function lvl{lvl}(item i) -> integer;"))
                .unwrap();
        }
        // Rule k: when lvl_k(i) > 0, set lvl_{k+1}(i) — a pure forward
        // cascade, no cycle, every rule accepted by the analyzer.
        for lvl in 0..depth {
            let next = lvl + 1;
            db.execute(&format!(
                "create rule cascade{lvl}() as \
                 when for each item i where lvl{lvl}(i) > 0 \
                 do set lvl{next}(i) = lvl{lvl}(i);"
            ))
            .unwrap();
        }
        for lvl in 0..depth {
            let diags = db.lint_rule(&format!("cascade{lvl}")).unwrap();
            prop_assert!(
                !amos_lint::has_deny(&diags),
                "analyzer rejected an acyclic cascade: {diags:#?}"
            );
            db.execute(&format!("activate cascade{lvl}();")).unwrap();
        }
        db.execute("create item instances :x;").unwrap();
        let results = db
            .execute(&format!("begin; set lvl0(:x) = {}; commit;", 1 + seed))
            .unwrap();
        let mut passes = 0usize;
        let mut fired = 0usize;
        for r in results {
            if let amos_db::ExecResult::Committed(s) = r {
                passes = s.passes;
                fired = s.executed.iter().map(|(_, n)| n).sum();
            }
        }
        // The cascade is `depth` rules deep: each pass fires the next
        // stage, plus one quiescent pass to detect the fixpoint.
        prop_assert!(fired >= depth, "cascade did not run to completion");
        prop_assert!(
            passes <= depth + 2,
            "the check phase needed {passes} passes for depth {depth}"
        );
        let val = db.query(&format!("select lvl{depth}(:x);")).unwrap();
        prop_assert_eq!(val[0][0].clone(), Value::Int(1 + seed));
    }
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

trait ExplainExt {
    fn explain(&mut self, stmt: &str) -> String;
    fn to_owned_err_msg(&self, diags: &[amos_db::Diagnostic]) -> String;
}

impl ExplainExt for Amos {
    fn explain(&mut self, stmt: &str) -> String {
        let results = self.execute(stmt).unwrap();
        for r in results {
            if let amos_db::ExecResult::Text(t) = r {
                return t;
            }
        }
        panic!("statement produced no text output");
    }

    fn to_owned_err_msg(&self, diags: &[amos_db::Diagnostic]) -> String {
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}
