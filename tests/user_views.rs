//! §8 extensions end to end: incremental aggregates and user-defined
//! differentials, monitored by rules through the ordinary partial
//! differencing machinery, and the views' oracle: `sum`/`min`/`max`
//! views ≡ a recompute from their source after generated transactions
//! whose rule actions write the source and some of which roll back
//! after a mid-transaction check phase.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use amos_core::aggregate::AggFn;
use amos_core::maintained::ClosureView;
use amos_core::rules::CheckSummary;
use amos_core::CoreError;
use amos_db::{Amos, Tuple, Value, WalConfig};
use amos_storage::{DeltaSet, Storage};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

#[test]
fn rule_over_incremental_aggregate() {
    let mut db = Amos::new();
    let flags = Arc::new(Mutex::new(Vec::new()));
    let sink = flags.clone();
    db.register_procedure("flag", move |_ctx, args| {
        sink.lock().unwrap().push(args[0].clone());
        Ok(())
    });
    db.execute(
        r#"
        create type acct;
        create function amount(acct a, integer xfer) -> integer;
        create acct instances :a1, :a2;
    "#,
    )
    .unwrap();
    db.register_aggregate("total", "amount", vec![0], 2, AggFn::Sum)
        .unwrap();
    db.execute(
        r#"
        create rule watch() as
            when for each acct a where total(a) > 100
            do flag(a);
        activate watch();
    "#,
    )
    .unwrap();

    db.execute("add amount(:a1, 1) = 60;").unwrap();
    assert!(flags.lock().unwrap().is_empty());
    db.execute("add amount(:a1, 2) = 50;").unwrap();
    assert_eq!(flags.lock().unwrap().len(), 1, "110 > 100 triggers");
    // Reverse below the limit and cross again: strict → a second firing.
    db.execute("remove amount(:a1, 1) = 60;").unwrap();
    db.execute("add amount(:a1, 3) = 70;").unwrap();
    assert_eq!(flags.lock().unwrap().len(), 2);
    // A no-net-change transaction through the aggregate.
    db.execute("begin; add amount(:a2, 9) = 500; remove amount(:a2, 9) = 500; commit;")
        .unwrap();
    assert_eq!(flags.lock().unwrap().len(), 2);
}

#[test]
fn min_aggregate_with_deletions() {
    let mut db = Amos::new();
    db.register_procedure("noop", |_ctx, _| Ok(()));
    db.execute(
        r#"
        create type host;
        create function latency(host h, integer probe) -> integer;
        create host instances :h1;
        add latency(:h1, 1) = 30;
        add latency(:h1, 2) = 10;
        add latency(:h1, 3) = 20;
    "#,
    )
    .unwrap();
    db.register_aggregate("best_latency", "latency", vec![0], 2, AggFn::Min)
        .unwrap();
    let h1 = db.iface_value("h1").cloned().unwrap();
    assert_eq!(
        db.call_function("best_latency", std::slice::from_ref(&h1))
            .unwrap(),
        Value::Int(10)
    );
    // Deleting the minimum falls back to the next without a rescan.
    db.execute("remove latency(:h1, 2) = 10;").unwrap();
    assert_eq!(
        db.call_function("best_latency", &[h1]).unwrap(),
        Value::Int(20)
    );
}

/// A user-defined differential: `risk(a) = total_out(a) − total_in(a)`
/// over a transfers relation, maintained by custom Rust logic (the §8
/// "incremental evaluation of foreign functions through user defined
/// differentials"), monitored by a rule.
#[test]
fn closure_view_with_user_differential() {
    let mut db = Amos::new();
    let alerts = Arc::new(Mutex::new(Vec::new()));
    let sink = alerts.clone();
    db.register_procedure("alert", move |_ctx, args| {
        sink.lock().unwrap().push(args[0].clone());
        Ok(())
    });
    db.execute(
        r#"
        create type acct;
        -- transfer(from, to, id) -> amount
        create function transfer(acct f, acct t, integer id) -> integer;
        create acct instances :a, :b;
    "#,
    )
    .unwrap();

    let transfer_rel = {
        let cat = db.catalog();
        cat.def(cat.lookup("transfer").unwrap())
            .stored_rel()
            .unwrap()
    };

    // Shared incremental state: net outflow per account oid.
    type NetMap = std::collections::HashMap<Value, i64>;
    let state: Arc<Mutex<NetMap>> = Arc::new(Mutex::new(NetMap::new()));

    let apply_tuple = |net: &mut NetMap, t: &Tuple, sign: i64| {
        let amount = t[3].as_int().unwrap() * sign;
        *net.entry(t[0].clone()).or_insert(0) += amount; // outflow from sender
        *net.entry(t[1].clone()).or_insert(0) -= amount; // inflow to receiver
    };
    let snapshot = |net: &NetMap| -> Vec<Tuple> {
        net.iter()
            .map(|(k, v)| Tuple::new(vec![k.clone(), Value::Int(*v)]))
            .collect()
    };

    let st_init = state.clone();
    let st_diff = state.clone();
    let view = ClosureView::new(
        vec![transfer_rel],
        move |_cat, storage| {
            let mut net = st_init.lock().unwrap();
            net.clear();
            for t in storage.relation(transfer_rel).scan() {
                apply_tuple(&mut net, t, 1);
            }
            Ok(snapshot(&net))
        },
        move |_cat, storage: &Storage| {
            let mut net = st_diff.lock().unwrap();
            let before = snapshot(&net);
            if let Some(d) = storage.delta(transfer_rel) {
                for t in d.minus() {
                    apply_tuple(&mut net, t, -1);
                }
                for t in d.plus() {
                    apply_tuple(&mut net, t, 1);
                }
            }
            let after = snapshot(&net);
            let before: std::collections::HashSet<Tuple> = before.into_iter().collect();
            let after: std::collections::HashSet<Tuple> = after.into_iter().collect();
            let mut out = DeltaSet::new();
            for t in before.difference(&after) {
                out.apply_delete(t.clone());
            }
            for t in after.difference(&before) {
                out.apply_insert(t.clone());
            }
            Ok::<DeltaSet, CoreError>(out)
        },
    );
    db.register_view("net_outflow", 2, 1, Box::new(view))
        .unwrap();

    db.execute(
        r#"
        create rule drain_watch() as
            when for each acct a where net_outflow(a) > 1000
            do alert(a);
        activate drain_watch();
    "#,
    )
    .unwrap();

    db.execute("add transfer(:a, :b, 1) = 600;").unwrap();
    assert!(alerts.lock().unwrap().is_empty());
    db.execute("add transfer(:a, :b, 2) = 700;").unwrap();
    let a = db.iface_value("a").cloned().unwrap();
    assert_eq!(alerts.lock().unwrap().as_slice(), std::slice::from_ref(&a));
    assert_eq!(
        db.call_function("net_outflow", std::slice::from_ref(&a))
            .unwrap(),
        Value::Int(1300)
    );
    // b's inflow shows as negative outflow.
    let b = db.iface_value("b").cloned().unwrap();
    assert_eq!(
        db.call_function("net_outflow", &[b]).unwrap(),
        Value::Int(-1300)
    );
    // Reversing a transfer drops a below the limit; crossing again
    // re-alerts (strict false→true).
    db.execute("remove transfer(:a, :b, 2) = 700;").unwrap();
    db.execute("add transfer(:a, :b, 3) = 900;").unwrap();
    assert_eq!(alerts.lock().unwrap().len(), 2);
}

/// The accounts world of the view oracles: three `acct`s whose
/// `amount` is summed (`total`), minimised (`least`) and maximised
/// (`most`) by registered aggregates. Rule actions write the source:
/// `bonus` adds an amount when an account opens, and `clawback` removes
/// it when the account's largest amount passes 90 — a cascade through a
/// view.
fn accounts() -> Amos {
    let mut db = Amos::new();
    db.execute(
        "create type acct;
         create function amount(acct a, integer x) -> integer;
         create function opened(acct a) -> integer;
         create acct instances :a0, :a1, :a2;",
    )
    .unwrap();
    for (name, agg) in [
        ("total", AggFn::Sum),
        ("least", AggFn::Min),
        ("most", AggFn::Max),
    ] {
        db.register_aggregate(name, "amount", vec![0], 2, agg)
            .unwrap();
    }
    db.execute(
        "create rule bonus() as
             when for each acct a where opened(a) = 1 do add amount(a, 7) = 40;
         create rule clawback() as
             when for each acct a where most(a) > 90 do remove amount(a, 7) = 40;
         activate bonus(); activate clawback();",
    )
    .unwrap();
    db
}

/// The tuples of the stored function `name`.
fn stored(db: &Amos, name: &str) -> BTreeSet<Tuple> {
    let cat = db.catalog();
    let rel = cat.def(cat.lookup(name).unwrap()).stored_rel().unwrap();
    db.storage().relation(rel).scan().cloned().collect()
}

/// `total`, `least` and `most` recomputed from `amount`.
fn recomputed(db: &Amos) -> [BTreeSet<Tuple>; 3] {
    let mut groups: BTreeMap<Value, Vec<i64>> = BTreeMap::new();
    for t in stored(db, "amount") {
        groups
            .entry(t[0].clone())
            .or_default()
            .push(t[2].as_int().unwrap());
    }
    let aggs: [fn(&[i64]) -> i64; 3] = [
        |v| v.iter().sum(),
        |v| *v.iter().min().unwrap(),
        |v| *v.iter().max().unwrap(),
    ];
    aggs.map(|agg| {
        let row = |(g, v): (&Value, &Vec<i64>)| Tuple::new(vec![g.clone(), Value::Int(agg(v))]);
        groups.iter().map(row).collect()
    })
}

fn total(db: &Amos, acct: &str) -> Value {
    let a = db.iface_value(acct).cloned().unwrap();
    db.call_function("total", &[a]).unwrap()
}

/// A rule action that writes a view's source reaches the view: the pass
/// after the action folds it.
#[test]
fn rule_action_writes_to_a_source_reach_its_view() {
    let mut db = accounts();
    db.execute("add amount(:a1, 1) = 10; set opened(:a1) = 1;")
        .unwrap();
    assert_eq!(total(&db, "a1"), Value::Int(50), "10 + the bonus's 40");
    assert_eq!(
        [
            stored(&db, "total"),
            stored(&db, "least"),
            stored(&db, "most")
        ],
        recomputed(&db)
    );
}

/// A rollback after a check phase that folded changes into a view
/// restores the view's own state, not only its backing relation.
#[test]
fn rollback_after_check_now_restores_the_view() {
    let mut db = accounts();
    db.execute("begin; add amount(:a1, 1) = 10;").unwrap();
    db.check_now().unwrap();
    db.execute("rollback; add amount(:a1, 2) = 5;").unwrap();
    assert_eq!(total(&db, "a1"), Value::Int(5));
}

/// A view registered before a late `attach_wal` is re-initialized from
/// the recovered state: a new amount adds to the recovered total.
#[test]
fn view_registered_before_a_late_attach_wal_sums_the_recovered_rows() {
    let dir = std::env::temp_dir().join(format!("amos-late-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = "create type acct; create function amount(acct a, integer x) -> integer;";
    let open = |wal_first: bool| {
        let mut db = Amos::new();
        if wal_first {
            db.attach_wal(&dir, WalConfig::default()).unwrap();
        }
        db.execute(schema).unwrap();
        db.register_aggregate("total", "amount", vec![0], 2, AggFn::Sum)
            .unwrap();
        if !wal_first {
            db.attach_wal(&dir, WalConfig::default()).unwrap();
        }
        db
    };
    let a1 = {
        let mut db = open(true);
        db.execute("create acct instances :a1; add amount(:a1, 1) = 60;")
            .unwrap();
        db.iface_value("a1").cloned().unwrap()
    };
    let mut db = open(false);
    db.bind_iface("a1", a1.clone());
    db.execute("add amount(:a1, 2) = 5;").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let sum = Tuple::new(vec![a1, Value::Int(65)]);
    assert_eq!(stored(&db, "total"), BTreeSet::from([sum]));
}

/// `sum`/`min`/`max` views ≡ a recompute from their source after every
/// transaction of a generated history. The
/// transactions add, remove and open accounts, so rule actions write
/// the source; some run a check phase mid-transaction and then commit
/// or roll back. `PROPTEST_CASES` raises the case count.
#[test]
fn views_equal_recompute_after_random_transactions() {
    let cases = ProptestConfig::with_cases(48).resolved_cases();
    let mut rng = TestRng::for_test("views_equal_recompute_after_random_transactions");
    let (mut bonus, mut clawback, mut restored) = (false, false, false);
    for n in 0..cases {
        let mut db = accounts();
        let mut history = format!("-- case {n}\n");
        for _ in 0..12 {
            let mut below = |k: usize| rng.usize_below(k);
            let stmts: Vec<String> = (0..1 + below(3))
                .map(|_| {
                    let a = below(3);
                    let (x, v) = ([1, 2, 7][below(3)], [5, 40, 60, 95][below(4)]);
                    match below(5) {
                        0..=1 => format!("add amount(:a{a}, {x}) = {v};"),
                        2..=3 => format!("remove amount(:a{a}, {x}) = {v};"),
                        _ => format!("set opened(:a{a}) = {};", below(2)),
                    }
                })
                .collect();
            let ending = below(5);
            db.begin().unwrap();
            db.execute(&stmts.concat()).unwrap();
            let mut summaries = Vec::new();
            if matches!(ending, 2 | 3) {
                summaries.push(db.check_now().unwrap());
            }
            if ending >= 3 {
                db.rollback().unwrap();
                restored |= ending == 3 && summaries[0].passes > 0;
            } else {
                summaries.push(db.commit().unwrap());
            }
            let fired = |rule: &str| {
                let ran = |s: &CheckSummary| s.executed.iter().any(|(r, k)| r == rule && *k > 0);
                summaries.iter().any(ran)
            };
            bonus |= fired("bonus");
            clawback |= fired("clawback");
            let end = [
                "commit",
                "commit",
                "check; commit",
                "check; rollback",
                "rollback",
            ];
            history += &format!("begin; {} {};\n", stmts.join(" "), end[ending]);
            let views = [
                stored(&db, "total"),
                stored(&db, "least"),
                stored(&db, "most"),
            ];
            assert_eq!(views, recomputed(&db), "views ≠ recompute after\n{history}");
        }
    }
    assert!(bonus, "no rule action added to the source");
    assert!(clawback, "no rule action removed from the source");
    assert!(restored, "no rollback followed a check phase");
}
