//! Structural tests for the paper's figures 1 and 2: the dependency /
//! propagation networks derived from `cnd_monitor_items`, per the
//! DESIGN.md experiment index.

use amos_db::engine::NetworkPrep;
use amos_db::{Amos, EngineOptions};
use amos_objectlog::eval::DeltaMap;
use amos_objectlog::plan::PlanStep;
use amos_objectlog::planner::{LiveStats, PlanKey, Planner};
use amos_storage::DeltaSet;
use amos_types::{Tuple, Value};

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
    activate monitor_items();
"#;

fn build(prep: NetworkPrep) -> Amos {
    let mut db = Amos::with_options(EngineOptions {
        network_prep: prep,
        ..Default::default()
    });
    db.register_procedure("order", |_ctx, _args| Ok(()));
    db.execute(SCHEMA).unwrap();
    db
}

/// fig. 2 — flat network: every partial differential targets the
/// condition directly; both polarities exist per influent; the paper's
/// "five partial differentials" (plus/minus pairs) are all present.
#[test]
fn fig2_flat_network_differentials() {
    let db = build(NetworkPrep::Flat);
    let net = db.rules().network();
    let cat = db.catalog();
    let cnd = cat.lookup("cnd_monitor_items").unwrap();

    assert_eq!(net.levels().len(), 2);
    assert!(net.differentials().iter().all(|d| d.affected == cnd));

    let mut names: Vec<String> = net
        .differentials()
        .iter()
        .map(|d| d.display_name(cat))
        .collect();
    names.sort();
    // The paper's five influents (fig. 2), both polarities, plus the
    // item/supplier extents our typed `for each` adds.
    for influent in [
        "quantity",
        "consume_freq",
        "delivery_time",
        "supplies",
        "min_stock",
    ] {
        assert!(
            names.contains(&format!("Δcnd_monitor_items/Δ+{influent}")),
            "missing positive differential for {influent}: {names:?}"
        );
        assert!(
            names.contains(&format!("Δcnd_monitor_items/Δ-{influent}")),
            "missing negative differential for {influent}: {names:?}"
        );
    }
}

/// fig. 1 — bushy network: `threshold` is an intermediate node; the `*`
/// edge Δcnd/Δ₊quantity goes straight to the condition; threshold's
/// influents (consume_freq, delivery_time, supplies, min_stock) feed the
/// threshold node, not the condition.
#[test]
fn fig1_bushy_network_structure() {
    let db = build(NetworkPrep::Bushy);
    let net = db.rules().network();
    let cat = db.catalog();
    let cnd = cat.lookup("cnd_monitor_items").unwrap();
    let threshold = cat.lookup("threshold").unwrap();

    assert_eq!(net.levels().len(), 3);
    assert_eq!(net.node_of(threshold).unwrap().level, 1);
    assert_eq!(net.node_of(cnd).unwrap().level, 2);

    // The `*` edge of fig. 1.
    let quantity = cat.lookup("quantity").unwrap();
    let q_targets: Vec<_> = net
        .node_of(quantity)
        .unwrap()
        .out_diffs
        .iter()
        .map(|d| net.differential(*d).affected)
        .collect();
    assert!(q_targets.iter().all(|&a| a == cnd));

    // threshold's influents feed threshold only.
    for name in ["consume_freq", "delivery_time", "supplies", "min_stock"] {
        let p = cat.lookup(name).unwrap();
        let targets: Vec<_> = net
            .node_of(p)
            .unwrap()
            .out_diffs
            .iter()
            .map(|d| net.differential(*d).affected)
            .collect();
        assert!(
            targets.iter().all(|&a| a == threshold),
            "{name} must influence threshold, got {targets:?}"
        );
    }

    // threshold feeds the condition.
    let t_targets: Vec<_> = net
        .node_of(threshold)
        .unwrap()
        .out_diffs
        .iter()
        .map(|d| net.differential(*d).affected)
        .collect();
    assert!(!t_targets.is_empty());
    assert!(t_targets.iter().all(|&a| a == cnd));
}

/// Differential plans are Δ-seeded: under a small wave, the planner puts
/// every differential's Δ-set scan first (the paper's "optimizer assumes
/// few changes to a single influent").
#[test]
fn differential_plans_are_delta_seeded() {
    for prep in [NetworkPrep::Flat, NetworkPrep::Bushy] {
        let mut db = build(prep);
        db.execute(
            "create item instances :a, :b, :c; create supplier instances :s, :t;
             set quantity(:a) = 5; set quantity(:b) = 500; set quantity(:c) = 50;
             set supplies(:s) = :a; set supplies(:t) = :b;
             set delivery_time(:a, :s) = 2; set delivery_time(:b, :t) = 3;",
        )
        .unwrap();
        let (net, catalog) = (db.rules().network(), db.catalog());
        let mut wave = DeltaMap::new();
        for node in net.nodes() {
            let arity = catalog.def(node.pred).arity;
            let mut d = DeltaSet::new();
            d.apply_insert(Tuple::new(vec![Value::Int(1); arity]));
            d.apply_delete(Tuple::new(vec![Value::Int(2); arity]));
            wave.insert(node.pred, d);
        }
        let planner = Planner::default();
        let stats = LiveStats::new(db.storage(), &wave);
        for (i, d) in net.differentials().iter().enumerate() {
            let key = PlanKey::Differential(i as u32);
            let plan = planner.resolve(key, catalog, &d.clause, &[], &stats);
            assert!(
                matches!(plan.unwrap().steps[0], PlanStep::Delta { .. }),
                "{prep:?}: differential {} not delta-seeded",
                d.display_name(catalog)
            );
        }
    }
}

/// The one index rule, as a census of the §3.1 schema the benchmark
/// monitors — flat with one rule, bushy with one and with eight that
/// share `threshold`: each stored function's key index, plus the
/// columns the differentials, the naive monitor and bound calls of
/// `threshold` probe. The extents are scanned, never probed.
#[test]
fn index_census_of_the_inventory_schema() {
    let variants = "create rule monitor_items_1() as when for each item i
         where quantity(i) < threshold(i) + 1 do order(i, 1);
         activate monitor_items_1();";
    for (prep, rules) in [
        (NetworkPrep::Flat, 1),
        (NetworkPrep::Bushy, 1),
        (NetworkPrep::Bushy, 8),
    ] {
        let mut db = build(prep);
        for k in 1..rules {
            db.execute(
                &variants
                    .replace("_1", &format!("_{k}"))
                    .replace("+ 1", &format!("+ {k}")),
            )
            .unwrap();
        }
        let storage = db.storage();
        let count = |name: &str| {
            let rel = storage.relation_id(name).unwrap();
            storage.relation(rel).index_count()
        };
        let census = [
            ("quantity", 1),
            ("max_stock", 1),
            ("min_stock", 1),
            ("consume_freq", 1),
            ("supplies", 2),
            ("delivery_time", 3),
        ];
        for (name, expected) in census {
            assert_eq!(count(name), expected, "{prep:?} ×{rules}: {name}");
        }
        let extents: Vec<_> = storage
            .relation_ids()
            .filter(|&rel| storage.relation(rel).name().ends_with("extent"))
            .map(|rel| storage.relation(rel).index_count())
            .collect();
        assert_eq!(extents, [0, 0], "{prep:?} ×{rules}: extents");
    }
}

/// Node sharing (§7.1): a second rule over `threshold` reuses the same
/// threshold node rather than duplicating it.
#[test]
fn node_sharing_across_rules() {
    let mut db = build(NetworkPrep::Bushy);
    db.register_procedure("warn", |_ctx, _args| Ok(()));
    db.execute(
        r#"
        create rule overstocked() as
            when for each item i where quantity(i) > threshold(i) * 100
            do warn(i);
        activate overstocked();
    "#,
    )
    .unwrap();
    let net = db.rules().network();
    let cat = db.catalog();
    let threshold = cat.lookup("threshold").unwrap();
    let node = net.node_of(threshold).unwrap();
    let affected: std::collections::HashSet<_> = node
        .out_diffs
        .iter()
        .map(|d| net.differential(*d).affected)
        .collect();
    assert_eq!(affected.len(), 2, "threshold node shared by both rules");
    // Exactly one threshold node in the network.
    assert_eq!(
        net.nodes().iter().filter(|n| n.pred == threshold).count(),
        1
    );
}
