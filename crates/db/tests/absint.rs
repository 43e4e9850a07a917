//! Integration tests for the abstract-interpretation layer: the
//! L006–L009 passes surfacing through `lint_script` (snapshot-style
//! rendered output) and the activation-time conformance gate.

use amos_db::{Amos, LintCode, LintConfig, Severity};

fn quiet(db: &mut Amos) {
    db.register_procedure("print", |_ctx, _args| Ok(()));
    db.register_procedure("order", |_ctx, _args| Ok(()));
}

/// A schema whose `watch` condition has one live clause and one that
/// the cross-predicate interval analysis proves empty (L007): `band(i)`
/// is bounded above by 5 by its own body, so `band(i) > 100` never
/// holds. The network still carries that clause's differentials; the
/// finding is a lint, not a pruning. `low` calls `band` too, so with
/// both active `band` is a shared node.
#[cfg(feature = "fault-injection")]
const BANDED: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function band(item i) -> integer
        as select quantity(i) where quantity(i) < 5;
    create rule watch() as
        when for each item i
        where band(i) > 100 or quantity(i) > 50
        do print(i);
    create rule low() as
        when for each item i where band(i) < 3
        do print(i);
"#;

#[cfg(feature = "fault-injection")]
fn banded_db() -> Amos {
    let mut db = Amos::new();
    quiet(&mut db);
    db.execute(BANDED).unwrap();
    db
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
/// and roll it back — the activation, and the shape the second caller
/// of `band` gave both conditions.
#[cfg(feature = "fault-injection")]
#[test]
fn conformance_gate_rolls_back_a_refused_activation() {
    let mut db = banded_db();
    db.execute("create item instances :a; activate low();")
        .unwrap();
    let low = db.catalog().lookup("cnd_low").unwrap();
    let flat = db.catalog().def(low).clauses().unwrap().to_vec();
    db.set_fault_plan(std::sync::Arc::new(
        amos_storage::fault::FaultPlan::drop_differential(),
    ));
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
    assert_eq!(db.catalog().def(low).clauses().unwrap(), &flat[..]);
    let band = db.catalog().lookup("band").unwrap();
    assert!(db.rules().network().node_of(band).is_none());
    // The fault was one-shot: the next build is whole and activates.
    db.execute("activate watch();").unwrap();
    assert!(db.rules().network().node_of(band).is_some());
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
