//! Rule-action failure handling at the engine level.
//!
//! A failing (erroring or panicking) action must quarantine exactly its
//! own rule: the action's partial writes are rolled back to the
//! savepoint, the other triggered rules still fire, and the commit's
//! check phase completes and reports the failure — under every
//! `MonitorMode`. `clear quarantine` + a fixed action resumes the rule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use amos_db::{Amos, ExecResult, MonitorMode, Value};
use amos_types::Tuple;

const SCHEMA: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function threshold(item i) -> integer;
    create function audit(item i) -> integer;

    create rule bad_rule() as
        when for each item i
        where quantity(i) < threshold(i)
        do blowup(i);

    create rule good_rule() as
        when for each item i
        where quantity(i) < threshold(i)
        do note(i);
"#;

const POPULATE: &str = r#"
    create item instances :x, :y;
    set threshold(:x) = 100;
    set threshold(:y) = 100;
    set quantity(:x) = 500;
    set quantity(:y) = 500;
    activate bad_rule();
    activate good_rule();
"#;

struct World {
    db: Amos,
    /// Items seen by `good_rule`'s action.
    noted: Arc<Mutex<Vec<Value>>>,
    /// When set, `blowup` fails (Err or panic per `panics`).
    failing: Arc<AtomicBool>,
    panics: Arc<AtomicBool>,
}

/// `blowup` writes an audit tuple *before* failing, so the tests can
/// observe that the savepoint rollback undid the partial write.
fn setup(mode: MonitorMode) -> World {
    let mut db = Amos::new();
    db.set_monitor_mode(mode);
    let noted: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
    let failing = Arc::new(AtomicBool::new(true));
    let panics = Arc::new(AtomicBool::new(false));

    let sink = noted.clone();
    db.register_procedure("note", move |_ctx, args| {
        sink.lock().unwrap().push(args[0].clone());
        Ok(())
    });
    let f = failing.clone();
    let p = panics.clone();
    db.register_procedure("blowup", move |ctx, args| {
        let audit = ctx
            .storage
            .relation_id("audit")
            .map_err(|e| e.to_string())?;
        ctx.storage
            .insert(audit, Tuple::new(vec![args[0].clone(), Value::Int(1)]))
            .map_err(|e| e.to_string())?;
        if f.load(Ordering::SeqCst) {
            if p.load(Ordering::SeqCst) {
                panic!("blowup exploded");
            }
            return Err("blowup failed".into());
        }
        Ok(())
    });

    db.execute(SCHEMA).unwrap();
    db.execute(POPULATE).unwrap();
    World {
        db,
        noted,
        failing,
        panics,
    }
}

fn audit_rows(db: &Amos) -> usize {
    let id = db.storage().relation_id("audit").unwrap();
    db.storage().relation(id).scan().count()
}

/// Run one statement and return its commit summary.
fn commit_of(db: &mut Amos, stmt: &str) -> amos_core::rules::CheckSummary {
    match db.execute(stmt).unwrap().pop().unwrap() {
        ExecResult::Committed(summary) => summary,
        other => panic!("expected a committed statement, got {other:?}"),
    }
}

fn check_failure_handling(mode: MonitorMode, panic_kind: bool) {
    let mut w = setup(mode);
    w.panics.store(panic_kind, Ordering::SeqCst);

    // Trigger both rules; `blowup` fails after its partial write.
    let summary = commit_of(&mut w.db, "set quantity(:x) = 50;");

    // Exactly bad_rule failed, and the reason is surfaced.
    assert_eq!(summary.failed.len(), 1, "{mode:?}");
    let (name, reason) = &summary.failed[0];
    assert_eq!(name, "bad_rule");
    if panic_kind {
        assert!(reason.contains("blowup exploded"), "{reason}");
    } else {
        assert!(reason.contains("blowup failed"), "{reason}");
    }

    // The failure did not abort the check phase: good_rule still fired.
    assert!(
        summary.executed.iter().any(|(n, _)| n == "good_rule"),
        "{mode:?}: {summary:?}"
    );
    assert_eq!(w.noted.lock().unwrap().len(), 1);
    // The partial audit write was rolled back with the savepoint.
    assert_eq!(
        audit_rows(&w.db),
        0,
        "{mode:?}: partial action write must not survive"
    );

    // Metrics report the quarantine (when the mode produces metrics).
    if let Some(m) = w.db.last_pass_metrics() {
        assert!(
            m.failed_actions.iter().any(|f| f.contains("bad_rule")),
            "{mode:?}: {:?}",
            m.failed_actions
        );
    }

    // `explain rule` surfaces the quarantine.
    let text = match w
        .db
        .execute("explain rule bad_rule;")
        .unwrap()
        .pop()
        .unwrap()
    {
        ExecResult::Text(t) => t,
        other => panic!("{other:?}"),
    };
    assert!(text.contains("QUARANTINED"), "{text}");

    // While quarantined, bad_rule never runs again — good_rule does.
    let summary = commit_of(&mut w.db, "set quantity(:y) = 50;");
    assert!(
        summary.failed.is_empty(),
        "{mode:?}: no repeated failure while quarantined"
    );
    assert!(summary.executed.iter().any(|(n, _)| n == "good_rule"));
    assert!(!summary.executed.iter().any(|(n, _)| n == "bad_rule"));
    assert_eq!(w.noted.lock().unwrap().len(), 2);
    assert_eq!(audit_rows(&w.db), 0);

    // Fix the action, clear the quarantine: the rule resumes cleanly.
    // `y` turned true while bad_rule was quarantined, and is not
    // delivered retroactively. (Strict semantics: the condition must go
    // false → true again.)
    w.failing.store(false, Ordering::SeqCst);
    assert!(w.db.clear_quarantine("bad_rule").unwrap());
    let summary = commit_of(&mut w.db, "set quantity(:x) = 500;");
    assert!(
        !summary.executed.iter().any(|(n, _)| n == "bad_rule"),
        "{mode:?}: nothing is delivered for the quarantine: {summary:?}"
    );
    let summary = commit_of(&mut w.db, "set quantity(:x) = 40;");
    assert!(summary.failed.is_empty(), "{mode:?}: {summary:?}");
    assert!(
        summary.executed.iter().any(|(n, _)| n == "bad_rule"),
        "{mode:?}: {summary:?}"
    );
    assert!(
        audit_rows(&w.db) > 0,
        "{mode:?}: the fixed action's write persists"
    );
}

#[test]
fn erroring_action_quarantines_only_its_rule_incremental() {
    check_failure_handling(MonitorMode::Incremental, false);
}

#[test]
fn erroring_action_quarantines_only_its_rule_naive() {
    check_failure_handling(MonitorMode::Naive, false);
}

#[test]
fn panicking_action_quarantines_only_its_rule_incremental() {
    check_failure_handling(MonitorMode::Incremental, true);
}

#[test]
fn panicking_action_quarantines_only_its_rule_naive() {
    check_failure_handling(MonitorMode::Naive, true);
}
