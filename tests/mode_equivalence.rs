//! Randomized engine-level equivalence: drive identical random update
//! workloads through incremental and naive monitoring, on the flat and
//! the bushy network, and require identical rule firings and final
//! database states.
//!
//! This is the system-level counterpart of the calculus-level property
//! tests in `amos-core` — it additionally covers the AMOSQL compiler,
//! the check-phase loop, strict-semantics filtering, action execution,
//! and the state kept beside storage: some transactions run a check
//! phase and roll back before the same updates commit, and every config
//! switches its monitoring mode once, mid-run. `PROPTEST_CASES` sets
//! the number of generated workloads.

use std::sync::{Arc, Mutex};

use amos_core::MonitorMode::{self, Incremental, Naive};
use amos_db::engine::NetworkPrep::{self, Bushy, Flat};
use amos_db::{Amos, EngineOptions, Value};
use proptest::test_runner::{ProptestConfig, TestRng};

const N_ITEMS: usize = 12;
const N_TXNS: usize = 40;

/// Each config's monitoring mode and network shape, and the mode it
/// switches to after half the workload.
const CONFIGS: [(MonitorMode, NetworkPrep, MonitorMode); 4] = [
    (Incremental, Flat, Naive),
    (Naive, Flat, Incremental),
    (Incremental, Bushy, Naive),
    (Naive, Bushy, Incremental),
];

struct World {
    db: Amos,
    fired: Arc<Mutex<Vec<(String, Value)>>>,
}

fn build(mode: MonitorMode, prep: NetworkPrep) -> World {
    let mut db = Amos::with_options(EngineOptions {
        network_prep: prep,
        ..Default::default()
    });
    db.set_monitor_mode(mode);
    let fired: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
    for rule in ["low_watch", "ratio_watch"] {
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
        create function buffer(item i) -> integer as select demand(i) * 2;

        create rule low_watch() as
            when for each item i where stock(i) < buffer(i)
            do fire_low_watch(i);
        create rule ratio_watch() as
            when for each item i where stock(i) > demand(i) * 10
            do fire_ratio_watch(i);
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
    World { db, fired }
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
fn run(
    config: (MonitorMode, NetworkPrep, MonitorMode),
    txns: &[(String, bool)],
) -> [Vec<String>; 2] {
    let (mode, prep, switch) = config;
    let mut w = build(mode, prep);
    for (k, (updates, rehearsed)) in txns.iter().enumerate() {
        if k == N_TXNS / 2 {
            w.db.set_monitor_mode(switch);
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

#[test]
fn modes_and_network_shapes_agree_on_random_workloads() {
    let cases = ProptestConfig::with_cases(8).resolved_cases();
    let mut rng = TestRng::for_test("modes_and_network_shapes_agree_on_random_workloads");
    let mut fired = false;
    for case in 0..cases {
        let txns: Vec<(String, bool)> = (0..N_TXNS).map(|_| random_tx(&mut rng)).collect();
        let history: String = txns
            .iter()
            .map(|(u, rehearsed)| match rehearsed {
                true => format!("begin; {u}check; rollback;\nbegin; {u}commit;\n"),
                false => format!("begin; {u}commit;\n"),
            })
            .collect();
        let reference = run(CONFIGS[0], &txns);
        for config in &CONFIGS[1..] {
            assert_eq!(
                reference,
                run(*config, &txns),
                "case {case}: {config:?} diverged from {:?} after\n{history}",
                CONFIGS[0]
            );
        }
        fired |= !reference[0].is_empty();
    }
    // The workload actually exercised the rules.
    assert!(fired, "workload never triggered anything");
}
