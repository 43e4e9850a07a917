//! The `explain` statement: query plans and rule monitoring setups
//! rendered from AMOSQL.

use amos_db::{Amos, ExecResult};

fn text(results: Vec<ExecResult>) -> String {
    for r in results {
        if let ExecResult::Text(t) = r {
            return t;
        }
    }
    panic!("no explain output");
}

const SCHEMA: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function threshold(item i) -> integer;
    create rule low() as
        when for each item i where quantity(i) < threshold(i)
        do order(i);
"#;

#[test]
fn explain_select_shows_plan() {
    let mut db = Amos::new();
    db.execute(SCHEMA).unwrap();
    let out = text(
        db.execute("explain select i for each item i where quantity(i) < threshold(i);")
            .unwrap(),
    );
    assert!(out.contains("clause 0"), "{out}");
    assert!(out.contains("scan item_extent"), "{out}");
    assert!(out.contains("probe quantity[0]"), "{out}");
    assert!(out.contains("test"), "{out}");
}

#[test]
fn explain_rule_inactive_and_active() {
    let mut db = Amos::new();
    db.register_procedure("order", |_ctx, _| Ok(()));
    db.execute(SCHEMA).unwrap();

    let out = text(db.execute("explain rule low;").unwrap());
    assert!(out.contains("inactive"), "{out}");

    db.execute("activate low();").unwrap();
    let out = text(db.execute("explain rule low;").unwrap());
    assert!(out.contains("propagation network"), "{out}");
    assert!(out.contains("Δcnd_low/Δ+quantity"), "{out}");
    assert!(out.contains("delta-scan Δ+quantity"), "{out}");
    assert!(out.contains("Δcnd_low/Δ-threshold"), "{out}");
}

/// The §3.1 rule ranges over `item` twice — `for each item i` and
/// `threshold(item i)` — and the flattened condition unifies the two
/// variables: every differential's plan tests `item_extent` membership
/// once, not once per occurrence.
#[test]
fn explain_rule_tests_a_decided_membership_once() {
    let mut db = Amos::new();
    db.register_procedure("order", |_ctx, _| Ok(()));
    db.execute(include_str!("../examples/osql/inventory.osql"))
        .unwrap();
    db.execute("activate monitor_items();").unwrap();
    let out = text(db.execute("explain rule monitor_items;").unwrap());
    let plans = out.split("differentials and plans:").nth(1).expect(&out);
    let quantity_plus: Vec<&str> = plans
        .lines()
        .skip_while(|l| *l != "Δcnd_monitor_items/Δ+quantity")
        .skip(1)
        .take_while(|l| l.starts_with("    "))
        .map(str::trim)
        .collect();
    assert_eq!(
        quantity_plus,
        [
            "0: delta-scan Δ+quantity",
            "1: unify _G0 = _G3",
            "2: lookup item_extent[0]",
            "3: probe supplies[1]",
            "4: lookup supplier_extent[0]",
            "5: probe consume_freq[0]",
            "6: probe delivery_time[0, 1]",
            "7: compute _G7 = _G5 * _G6",
            "8: probe min_stock[0]",
            "9: compute _G9 = _G7 + _G8",
            "10: unify _G2 = _G9",
            "11: test _G1 < _G2",
        ],
        "{out}"
    );
    for block in plans.split("Δcnd_monitor_items/").skip(1) {
        let lookups = block.matches("lookup item_extent").count();
        assert!(lookups <= 1, "{block}");
    }
}

/// After a commit runs the check phase, `explain rule` includes the
/// metrics of the last propagation pass (timings and counters).
#[test]
fn explain_rule_reports_pass_metrics() {
    let mut db = Amos::new();
    db.register_procedure("order", |_ctx, _| Ok(()));
    db.execute(SCHEMA).unwrap();
    db.execute("activate low();").unwrap();
    db.execute(
        "begin;
         create item instances :i1;
         set quantity(:i1) = 2;
         set threshold(:i1) = 5;
         commit;",
    )
    .unwrap();

    let out = text(db.execute("explain rule low;").unwrap());
    assert!(out.contains("last propagation pass:"), "{out}");
    assert!(out.contains("strategy=parallel check=nervous"), "{out}");
    assert!(out.contains("candidates="), "{out}");
    assert!(out.contains("Δcnd_low/Δ+quantity"), "{out}");

    let metrics = db.last_pass_metrics().expect("a pass ran at commit");
    assert!(!metrics.differentials.is_empty());
    assert!(metrics.to_json().to_compact().contains("\"levels\""));
}

#[test]
fn explain_unknown_rule_errors() {
    let mut db = Amos::new();
    assert!(db.execute("explain rule nosuch;").is_err());
}

#[test]
fn explain_roundtrips_through_printer() {
    let parsed = amos_amosql::parser::parse("explain rule low; explain select 1;").unwrap();
    let printed: Vec<String> = parsed.iter().map(|s| s.to_string()).collect();
    assert_eq!(printed[0], "explain rule low;");
    assert_eq!(printed[1], "explain select 1;");
    let reparsed = amos_amosql::parser::parse(&printed.join(" ")).unwrap();
    assert_eq!(parsed, reparsed);
}

#[test]
fn drop_rule_removes_everything() {
    let mut db = Amos::new();
    db.register_procedure("order", |_ctx, _| Ok(()));
    db.execute(SCHEMA).unwrap();
    db.execute("activate low();").unwrap();
    // Influents monitored while active.
    let quantity_rel = {
        let cat = db.catalog();
        cat.def(cat.lookup("quantity").unwrap())
            .stored_rel()
            .unwrap()
    };
    assert!(db.storage().is_monitored(quantity_rel));

    db.execute("drop rule low;").unwrap();
    assert!(!db.storage().is_monitored(quantity_rel));
    // The name is gone: re-activation fails, re-creation... the cnd_
    // predicate name persists in the catalog, so a same-named rule needs
    // a fresh name (documented limitation).
    assert!(db.execute("activate low();").is_err());
    assert!(db.execute("drop rule low;").is_err());
    // Printer roundtrip.
    let parsed = amos_amosql::parser::parse("drop rule low;").unwrap();
    assert_eq!(parsed[0].to_string(), "drop rule low;");
}
