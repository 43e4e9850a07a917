//! Randomized engine-level equivalence: drive identical random update
//! workloads through incremental and naive monitoring, on schemas where
//! the derived `buffer` has one caller (expanded: a flat network) or two
//! (kept as a shared node: a bushy one), and require identical rule
//! firings and final database states.
//!
//! This is the system-level counterpart of the calculus-level property
//! tests in `amos-core` — it additionally covers the AMOSQL compiler,
//! the check-phase loop, strict-semantics filtering, action execution,
//! the state kept beside storage and the network's reshaping: some
//! transactions run a check phase and roll back before the same updates
//! commit, every config switches its monitoring mode once, mid-run, and
//! a further caller of `buffer` is activated a quarter of the way in and
//! deactivated three quarters in, so the one-caller schema goes flat →
//! shared → flat. `PROPTEST_CASES` sets the number of generated
//! workloads.

use std::sync::{Arc, Mutex};

use amos_core::MonitorMode::{self, Incremental, Naive};
use amos_db::{Amos, Value};
use proptest::test_runner::{ProptestConfig, TestRng};

mod common;
use common::assert_shared_by_caller_count;

const N_ITEMS: usize = 12;
const N_TXNS: usize = 40;

/// How many active rules call `buffer` besides `surge_watch`: only
/// `low_watch`, or `buffer_watch` too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Callers {
    One,
    Two,
}

/// Each config's monitoring mode and schema, and the mode it switches
/// to after half the workload.
const CONFIGS: [(MonitorMode, Callers, MonitorMode); 4] = [
    (Incremental, Callers::One, Naive),
    (Naive, Callers::One, Incremental),
    (Incremental, Callers::Two, Naive),
    (Naive, Callers::Two, Incremental),
];

const RULES: [&str; 4] = ["low_watch", "ratio_watch", "surge_watch", "buffer_watch"];

struct World {
    db: Amos,
    fired: Arc<Mutex<Vec<(String, Value)>>>,
}

fn build(mode: MonitorMode, callers: Callers) -> World {
    let mut db = Amos::new();
    db.set_monitor_mode(mode);
    let fired: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
    for rule in RULES {
        let sink = fired.clone();
        let name = rule.to_string();
        db.register_procedure(&format!("fire_{rule}"), move |_ctx, args| {
            sink.lock().unwrap().push((name.clone(), args[0].clone()));
            Ok(())
        });
    }
    db.execute(
        r#"
        create type item;
        create function stock(item i) -> integer;
        create function demand(item i) -> integer;
        create function need(item i) -> integer as select demand(i) + 1;
        create function buffer(item i) -> integer as select need(i) * 2;

        create rule low_watch() as
            when for each item i where stock(i) < buffer(i)
            do fire_low_watch(i);
        create rule ratio_watch() as
            when for each item i where stock(i) > demand(i) * 10
            do fire_ratio_watch(i);
        create rule surge_watch() as
            when for each item i where stock(i) * 2 < buffer(i)
            do fire_surge_watch(i);
        create rule buffer_watch() as
            when for each item i where buffer(i) > 200
            do fire_buffer_watch(i);
    "#,
    )
    .unwrap();
    // Population.
    let mut names = Vec::new();
    for i in 0..N_ITEMS {
        names.push(format!(":i{i}"));
    }
    db.execute(&format!("create item instances {};", names.join(", ")))
        .unwrap();
    for i in 0..N_ITEMS {
        db.execute(&format!("set stock(:i{i}) = 50; set demand(:i{i}) = 10;"))
            .unwrap();
    }
    db.execute("activate low_watch(); activate ratio_watch();")
        .unwrap();
    if callers == Callers::Two {
        db.execute("activate buffer_watch();").unwrap();
    }
    assert_shape(&db, callers == Callers::Two);
    World { db, fired }
}

/// The caller-count invariant, and whether `buffer` is a shared node.
fn assert_shape(db: &Amos, shared: bool) {
    assert_shared_by_caller_count(db);
    let buffer = db.catalog().lookup("buffer").unwrap();
    assert_eq!(db.rules().network().node_of(buffer).is_some(), shared);
}

/// One random transaction's updates, and whether a check phase runs on
/// them in a transaction that rolls back before they commit.
fn random_tx(rng: &mut TestRng) -> (String, bool) {
    let n_updates = 1 + rng.usize_below(5);
    let mut updates = String::new();
    for _ in 0..n_updates {
        let item = rng.usize_below(N_ITEMS);
        let field = if rng.f64_unit() < 0.7 {
            "stock"
        } else {
            "demand"
        };
        let value = rng.usize_below(150);
        updates.push_str(&format!("set {field}(:i{item}) = {value}; "));
    }
    (updates, rng.usize_below(4) == 0)
}

/// Run the workload through one config: the firings (sorted — the
/// multiset must agree) and the final state.
fn run(config: (MonitorMode, Callers, MonitorMode), txns: &[(String, bool)]) -> [Vec<String>; 2] {
    let (mode, callers, switch) = config;
    let mut w = build(mode, callers);
    for (k, (updates, rehearsed)) in txns.iter().enumerate() {
        if k == N_TXNS / 4 {
            w.db.execute("activate surge_watch();").unwrap();
            assert_shape(&w.db, true);
        }
        if k == N_TXNS / 2 {
            w.db.set_monitor_mode(switch);
        }
        if k == 3 * N_TXNS / 4 {
            w.db.execute("deactivate surge_watch();").unwrap();
            assert_shape(&w.db, callers == Callers::Two);
        }
        if *rehearsed {
            w.db.execute(&format!("begin; {updates}")).unwrap();
            w.db.check_now().unwrap();
            w.db.rollback().unwrap();
        }
        w.db.execute(&format!("begin; {updates} commit;")).unwrap();
    }
    let mut firings: Vec<String> = w
        .fired
        .lock()
        .unwrap()
        .iter()
        .map(|f| format!("{f:?}"))
        .collect();
    firings.sort();
    let rows =
        w.db.query("select i, stock(i), demand(i) for each item i;")
            .unwrap();
    [firings, rows.iter().map(|t| t.to_string()).collect()]
}

/// A run's outcome without `buffer_watch`'s firings, which only the
/// two-caller schema has.
fn common_rules(outcome: &[Vec<String>; 2]) -> [Vec<String>; 2] {
    let firings = outcome[0].iter().filter(|f| !f.contains("buffer_watch"));
    [firings.cloned().collect(), outcome[1].clone()]
}

#[test]
fn modes_and_network_shapes_agree_on_random_workloads() {
    let cases = ProptestConfig::with_cases(8).resolved_cases();
    let mut rng = TestRng::for_test("modes_and_network_shapes_agree_on_random_workloads");
    let (mut fired, mut surged) = (false, false);
    for case in 0..cases {
        let txns: Vec<(String, bool)> = (0..N_TXNS).map(|_| random_tx(&mut rng)).collect();
        let history: String = txns
            .iter()
            .map(|(u, rehearsed)| match rehearsed {
                true => format!("begin; {u}check; rollback;\nbegin; {u}commit;\n"),
                false => format!("begin; {u}commit;\n"),
            })
            .collect();
        let outcomes: Vec<_> = CONFIGS.iter().map(|&c| run(c, &txns)).collect();
        for (config, outcome) in CONFIGS.iter().zip(&outcomes).skip(1) {
            assert_eq!(
                common_rules(&outcomes[0]),
                common_rules(outcome),
                "case {case}: {config:?} diverged from {:?} after\n{history}",
                CONFIGS[0]
            );
        }
        assert_eq!(
            outcomes[2], outcomes[3],
            "case {case}: the two-caller schema's modes diverged after\n{history}"
        );
        fired |= !outcomes[0][0].is_empty();
        surged |= outcomes[0][0].iter().any(|f| f.contains("surge_watch"));
    }
    // The workload actually exercised the rules.
    assert!(fired, "workload never triggered anything");
    assert!(surged, "the mid-run caller never fired");
}
