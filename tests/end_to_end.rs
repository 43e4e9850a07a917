//! Cross-crate integration tests: full AMOSQL sessions driving the
//! complete stack (parser → compiler → ObjectLog → differencing →
//! propagation → rules → actions).

use std::sync::{Arc, Mutex};

use amos_core::MonitorMode;
use amos_db::{Amos, Tuple, Value};

type CallLog = Arc<Mutex<Vec<(String, Vec<Value>)>>>;

fn counting_db() -> (Amos, CallLog) {
    let mut db = Amos::new();
    let log: CallLog = Arc::new(Mutex::new(Vec::new()));
    for proc_name in ["notify", "escalate", "archive"] {
        let sink = log.clone();
        let name = proc_name.to_string();
        db.register_procedure(proc_name, move |_ctx, args| {
            sink.lock().unwrap().push((name.clone(), args.to_vec()));
            Ok(())
        });
    }
    (db, log)
}

#[test]
fn multiple_rules_over_shared_influents() {
    let (mut db, log) = counting_db();
    db.execute(
        r#"
        create type job;
        create function runtime(job j) -> integer;
        create function deadline(job j) -> integer;

        create rule slow_job() as
            when for each job j where runtime(j) > 100
            do notify(j) priority 1;
        create rule missed_deadline() as
            when for each job j where runtime(j) > deadline(j)
            do escalate(j) priority 9;

        create job instances :j1, :j2;
        set runtime(:j1) = 10; set deadline(:j1) = 50;
        set runtime(:j2) = 10; set deadline(:j2) = 500;
        activate slow_job();
        activate missed_deadline();
    "#,
    )
    .unwrap();

    // j1 exceeds both conditions in one transaction: conflict resolution
    // runs escalate (priority 9) before notify (priority 1).
    db.execute("set runtime(:j1) = 150;").unwrap();
    let calls = log.lock().unwrap().clone();
    assert_eq!(calls.len(), 2);
    assert_eq!(calls[0].0, "escalate");
    assert_eq!(calls[1].0, "notify");

    // j2 exceeds only the static threshold.
    db.execute("set runtime(:j2) = 120;").unwrap();
    let calls = log.lock().unwrap().clone();
    assert_eq!(calls.len(), 3);
    assert_eq!(calls[2].0, "notify");
}

#[test]
fn rule_cascade_across_rules() {
    let (mut db, log) = counting_db();
    db.execute(
        r#"
        create type ticket;
        create function severity(ticket t) -> integer;
        create function attention(ticket t) -> integer;

        -- Raising severity beyond 5 bumps attention; attention beyond 0
        -- archives (a two-step cascade through a second rule).
        create rule bump() as
            when for each ticket t where severity(t) > 5
            do set attention(t) = severity(t) * 10;
        create rule watch_attention() as
            when for each ticket t where attention(t) > 0
            do archive(t);

        create ticket instances :t1;
        set severity(:t1) = 1;
        set attention(:t1) = 0;
        activate bump();
        activate watch_attention();
    "#,
    )
    .unwrap();

    db.execute("set severity(:t1) = 7;").unwrap();
    let calls = log.lock().unwrap().clone();
    assert_eq!(calls.len(), 1);
    assert_eq!(calls[0].0, "archive");
    // The cascaded update is visible.
    let t1 = db.iface_value("t1").cloned().unwrap();
    assert_eq!(
        db.call_function("attention", &[t1]).unwrap(),
        Value::Int(70)
    );
}

#[test]
fn disjunctive_condition() {
    let (mut db, log) = counting_db();
    db.execute(
        r#"
        create type vm;
        create function cpu(vm v) -> integer;
        create function mem(vm v) -> integer;
        create rule pressure() as
            when for each vm v where cpu(v) > 90 or mem(v) > 90
            do notify(v);
        create vm instances :v1;
        set cpu(:v1) = 10; set mem(:v1) = 10;
        activate pressure();
    "#,
    )
    .unwrap();

    db.execute("set cpu(:v1) = 95;").unwrap();
    assert_eq!(log.lock().unwrap().len(), 1, "cpu branch triggers");
    // Already true via cpu: raising mem is NOT a false→true transition.
    db.execute("set mem(:v1) = 95;").unwrap();
    assert_eq!(log.lock().unwrap().len(), 1, "strict: no re-trigger");
    // Drop both, then raise mem only: triggers via the mem branch.
    db.execute("set cpu(:v1) = 10; set mem(:v1) = 10;").unwrap();
    db.execute("set mem(:v1) = 99;").unwrap();
    assert_eq!(log.lock().unwrap().len(), 2);
}

#[test]
fn all_monitor_modes_agree() {
    for mode in [MonitorMode::Incremental, MonitorMode::Naive] {
        let (mut db, log) = counting_db();
        db.set_monitor_mode(mode);
        db.execute(
            r#"
            create type acct;
            create function balance(acct a) -> integer;
            create rule overdraft() as
                when for each acct a where balance(a) < 0
                do notify(a);
            create acct instances :a1, :a2, :a3;
            set balance(:a1) = 100;
            set balance(:a2) = 100;
            set balance(:a3) = 100;
            activate overdraft();
        "#,
        )
        .unwrap();

        db.execute("begin; set balance(:a1) = -5; set balance(:a2) = -10; commit;")
            .unwrap();
        assert_eq!(log.lock().unwrap().len(), 2, "mode {mode:?}");
        // Back to positive and negative again within one tx: net no-op
        // for a1; a3 newly negative.
        db.execute(
            "begin; set balance(:a1) = 50; set balance(:a1) = -5; set balance(:a3) = -1; commit;",
        )
        .unwrap();
        assert_eq!(log.lock().unwrap().len(), 3, "mode {mode:?}");
    }
}

#[test]
fn deletion_driven_rule_via_remove() {
    let (mut db, log) = counting_db();
    db.execute(
        r#"
        create type user;
        create function role(user u) -> charstring;
        -- Boolean-valued membership: in_group(u, g) -> boolean
        create function in_group(user u, charstring g) -> boolean;
        create rule orphaned_admin() as
            when for each user u
            where role(u) = "admin" and not in_group(u, "admins")
            do notify(u);
        create user instances :u1;
        set role(:u1) = "admin";
        add in_group(:u1, "admins") = true;
        activate orphaned_admin();
    "#,
    )
    .unwrap();

    assert!(log.lock().unwrap().is_empty());
    // Removing group membership makes the negated literal true — the
    // rule fires through a *negative* partial differential.
    db.execute("remove in_group(:u1, \"admins\") = true;")
        .unwrap();
    assert_eq!(log.lock().unwrap().len(), 1);
}

#[test]
fn queries_and_interface_vars_roundtrip() {
    let mut db = Amos::new();
    db.execute(
        r#"
        create type city;
        create function population(city c) -> integer;
        create function country(city c) -> charstring;
        create city instances :lkpg, :sthlm;
        set population(:lkpg) = 160000;
        set population(:sthlm) = 980000;
        set country(:lkpg) = "SE";
        set country(:sthlm) = "SE";
    "#,
    )
    .unwrap();

    let rows = db
        .query("select population(c), c for each city c where population(c) > 500000;")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(980000));

    // Arithmetic in the select list.
    let rows = db.query("select population(:lkpg) * 2 + 1;").unwrap();
    assert_eq!(rows, vec![Tuple::new(vec![Value::Int(320001)])]);

    // String predicates.
    let rows = db
        .query("select c for each city c where country(c) = \"SE\";")
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn rollback_undoes_everything_between_begin_and_rollback() {
    let (mut db, log) = counting_db();
    db.execute(
        r#"
        create type item;
        create function qty(item i) -> integer;
        create rule low() as
            when for each item i where qty(i) < 5
            do notify(i);
        create item instances :x;
        set qty(:x) = 100;
        activate low();
    "#,
    )
    .unwrap();
    db.execute("begin; set qty(:x) = 1; rollback;").unwrap();
    assert!(
        log.lock().unwrap().is_empty(),
        "rollback suppresses triggers"
    );
    let x = db.iface_value("x").cloned().unwrap();
    assert_eq!(db.call_function("qty", &[x]).unwrap(), Value::Int(100));
}
