//! The paper's running example (§3.1), end to end and near-verbatim:
//! the inventory schema, the `monitor_items` rule, population,
//! activation, and the ordering behaviour the paper describes —
//! "the quantity of items of type 1 is always kept between 5000 and 100,
//! and new items will be delivered if the quantity drops below 140. The
//! quantity of items of type 2 will be kept between 7500 and 200, and
//! new items will be ordered if the quantity drops below 290."

use std::sync::{Arc, Mutex};

use amos_core::MonitorMode;
use amos_db::{Amos, Value};

/// The §3.1 schema and rule, verbatim modulo whitespace.
const SCHEMA: &str = r#"
    create type item;
    create type supplier;
    create function quantity(item i) -> integer;
    create function max_stock(item i) -> integer;
    create function min_stock(item i) -> integer;
    create function consume_freq(item i) -> integer;
    create function supplies(supplier s) -> item;
    create function delivery_time(item i, supplier s) -> integer;
    create function threshold(item i) -> integer
        as
        select consume_freq(i) * delivery_time(i, s) + min_stock(i)
        for each supplier s where supplies(s) = i;

    create rule monitor_items() as
        when for each item i
        where quantity(i) < threshold(i)
        do order(i, max_stock(i) - quantity(i));
"#;

const POPULATE: &str = r#"
    create item instances :item1, :item2;
    set max_stock(:item1) = 5000;
    set max_stock(:item2) = 7500;
    set min_stock(:item1) = 100;
    set min_stock(:item2) = 200;
    set consume_freq(:item1) = 20;
    set consume_freq(:item2) = 30;
    create supplier instances :sup1, :sup2;
    set supplies(:sup1) = :item1;
    set supplies(:sup2) = :item2;
    set delivery_time(:item1, :sup1) = 2;
    set delivery_time(:item2, :sup2) = 3;
    set quantity(:item1) = 5000;
    set quantity(:item2) = 7500;
    activate monitor_items();
"#;

/// A second rule over `threshold`, which never fires on this data: with
/// it `threshold` has two callers and stays a shared node (fig. 1);
/// without it `monitor_items` expands `threshold` (fig. 2).
const SECOND_CALLER: &str = r#"
    create rule overstocked() as
        when for each item i where quantity(i) > threshold(i) * 1000
        do warn(i);
    activate overstocked();
"#;

type OrderLog = Arc<Mutex<Vec<(Value, i64)>>>;

/// Build the paper's world, with `threshold`'s second caller when
/// `shared`; `orders` collects (item oid, amount).
fn setup(shared: bool, mode: MonitorMode) -> (Amos, OrderLog) {
    let mut db = Amos::new();
    db.set_monitor_mode(mode);
    db.register_procedure("warn", |_ctx, _args| Ok(()));
    let orders: OrderLog = Arc::new(Mutex::new(Vec::new()));
    let sink = orders.clone();
    db.register_procedure("order", move |_ctx, args| {
        let amount = args[1].as_int().map_err(|e| e.to_string())?;
        sink.lock().unwrap().push((args[0].clone(), amount));
        Ok(())
    });
    db.execute(SCHEMA).unwrap();
    db.execute(POPULATE).unwrap();
    if shared {
        db.execute(SECOND_CALLER).unwrap();
    }
    (db, orders)
}

fn run_scenario(shared: bool, mode: MonitorMode) {
    let (mut db, orders) = setup(shared, mode);
    let item1 = db.iface_value("item1").unwrap().clone();

    // Thresholds per the paper: item1 → 20*2+100 = 140; item2 → 30*3+200 = 290.
    let rows = db.query("select threshold(:item1);").unwrap();
    assert_eq!(rows[0][0], Value::Int(140), "shared {shared}/{mode:?}");
    let rows = db.query("select threshold(:item2);").unwrap();
    assert_eq!(rows[0][0], Value::Int(290));

    // Quantity above threshold: no order.
    db.execute("set quantity(:item1) = 200;").unwrap();
    assert!(orders.lock().unwrap().is_empty());

    // Drop item1 below 140 → order 5000 − 120 = 4880.
    db.execute("set quantity(:item1) = 120;").unwrap();
    {
        let o = orders.lock().unwrap();
        assert_eq!(o.len(), 1, "shared {shared}/{mode:?}");
        assert_eq!(o[0], (item1.clone(), 4880));
    }

    // Strict semantics: "we only want to order an item once when it
    // becomes low in stock" — staying low must not re-order.
    db.execute("set quantity(:item1) = 110;").unwrap();
    assert_eq!(orders.lock().unwrap().len(), 1, "no re-order while low");

    // Recover and drop again → a second order (new false→true transition).
    db.execute("set quantity(:item1) = 5000;").unwrap();
    db.execute("set quantity(:item1) = 100;").unwrap();
    {
        let o = orders.lock().unwrap();
        assert_eq!(o.len(), 2);
        assert_eq!(o[1], (item1.clone(), 4900));
    }

    // item2 independently: drop below 290.
    db.execute("set quantity(:item2) = 250;").unwrap();
    assert_eq!(orders.lock().unwrap().len(), 3);

    // A no-net-effect transaction (the §4.1 example) must not trigger.
    db.execute("begin; set quantity(:item2) = 400; set quantity(:item2) = 250; commit;")
        .unwrap();
    assert_eq!(
        orders.lock().unwrap().len(),
        3,
        "no net change → no trigger"
    );

    // Threshold-side influents also trigger: raising min_stock above the
    // current quantity makes the condition true.
    db.execute("set quantity(:item1) = 150;").unwrap(); // above 140 again
    db.execute("set min_stock(:item1) = 120;").unwrap(); // threshold → 160 > 150
    assert_eq!(orders.lock().unwrap().len(), 4, "shared {shared}/{mode:?}");
}

#[test]
fn paper_example_flat_incremental() {
    run_scenario(false, MonitorMode::Incremental);
}

#[test]
fn paper_example_bushy_incremental() {
    run_scenario(true, MonitorMode::Incremental);
}

#[test]
fn paper_example_naive() {
    run_scenario(false, MonitorMode::Naive);
}

/// fig. 2: with one caller `threshold` is expanded, so the flat network
/// has the five stored influents (plus the item extent) feeding the
/// condition directly.
#[test]
fn flat_network_shape_matches_fig2() {
    let (db, _) = setup(false, MonitorMode::Incremental);
    let net = db.rules().network();
    let catalog = db.catalog();
    assert_eq!(net.levels().len(), 2, "stored + condition levels only");
    let stored: Vec<String> = net
        .stored_nodes(catalog)
        .into_iter()
        .map(|p| catalog.name(p).to_string())
        .collect();
    for name in [
        "quantity",
        "consume_freq",
        "delivery_time",
        "supplies",
        "min_stock",
        "item_extent",
    ] {
        assert!(
            stored.contains(&name.to_string()),
            "{stored:?} missing {name}"
        );
    }
    // Δcnd_monitor_items/Δ+quantity exists (the fig. 1 `*` edge).
    let quantity = catalog.lookup("quantity").unwrap();
    let node = net.node_of(quantity).unwrap();
    let names: Vec<String> = node
        .out_diffs
        .iter()
        .map(|d| net.differential(*d).display_name(catalog))
        .collect();
    assert!(names.contains(&"Δcnd_monitor_items/Δ+quantity".to_string()));
}

/// fig. 1: with two callers the network keeps `threshold` as an
/// intermediate node.
#[test]
fn bushy_network_shape_matches_fig1() {
    let (db, _) = setup(true, MonitorMode::Incremental);
    let net = db.rules().network();
    let catalog = db.catalog();
    let threshold = catalog.lookup("threshold").unwrap();
    let node = net.node_of(threshold).expect("threshold is a network node");
    assert_eq!(node.level, 1);
    assert_eq!(net.levels().len(), 3);
}

/// Explainability (§8): the trace identifies which influent fired.
#[test]
fn explanations_identify_influent() {
    let (mut db, _) = setup(false, MonitorMode::Incremental);
    db.execute("set quantity(:item1) = 120;").unwrap();
    let catalog = db.catalog();
    let explanations = db.rules().last_trace().explanations();
    assert!(!explanations.is_empty());
    let quantity = catalog.lookup("quantity").unwrap();
    assert!(explanations[0].causes.iter().any(|(p, _)| *p == quantity));
}

/// Rollback throws away both updates and pending triggers.
#[test]
fn rollback_discards_pending_triggers() {
    let (mut db, orders) = setup(false, MonitorMode::Incremental);
    db.execute("begin; set quantity(:item1) = 1; rollback;")
        .unwrap();
    assert!(orders.lock().unwrap().is_empty());
    let rows = db.query("select quantity(:item1);").unwrap();
    assert_eq!(rows[0][0], Value::Int(5000));
    // Next real drop still fires exactly once.
    db.execute("set quantity(:item1) = 1;").unwrap();
    assert_eq!(orders.lock().unwrap().len(), 1);
}

/// Deactivation stops monitoring; reactivation resumes.
#[test]
fn deactivate_reactivate() {
    let (mut db, orders) = setup(false, MonitorMode::Incremental);
    db.execute("deactivate monitor_items();").unwrap();
    db.execute("set quantity(:item1) = 1;").unwrap();
    assert!(orders.lock().unwrap().is_empty());
    db.execute("activate monitor_items();").unwrap();
    // Already low at activation: strict semantics needs a transition —
    // recover first, then drop.
    db.execute("set quantity(:item1) = 5000;").unwrap();
    db.execute("set quantity(:item1) = 1;").unwrap();
    assert_eq!(orders.lock().unwrap().len(), 1);
}
