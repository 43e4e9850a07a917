//! The §3.1 inventory world the count tests share: `monitor_items` over
//! `n` items with one supplier each, populated through storage (no parser
//! on the measured path). Quantities start at 10 000, far above every
//! threshold (140), so only a transaction that lowers them makes the
//! condition true.
//!
//! Each test binary that declares `mod common;` uses a different part.
#![allow(dead_code)]

use amos_core::rules::CheckSummary;
use amos_core::MonitorMode;
use amos_db::{Amos, EngineOptions, ExecStrategy, Value};
use amos_storage::RelId;
use amos_types::{Oid, Tuple};

/// The §3.1 inventory schema and `monitor_items` rule.
pub const SCHEMA: &str = r#"
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

/// The §3.1 world.
pub struct World {
    pub db: Amos,
    pub items: Vec<Oid>,
    pub suppliers: Vec<Oid>,
    pub quantity: RelId,
    pub delivery_time: RelId,
    pub consume_freq: RelId,
}

impl World {
    /// `n` items with one supplier each, `monitor_items` plus
    /// `extra_rules` more rules over `threshold`, all activated. With an
    /// extra rule `threshold` has two or more callers, so it stays a
    /// shared network node (fig. 1); alone, `monitor_items` expands it
    /// (fig. 2). `order` and `noop` are procedures that write nothing
    /// until [`write_back`](Self::write_back).
    pub fn new(n: usize, options: EngineOptions, mode: MonitorMode, extra_rules: usize) -> World {
        let mut db = Amos::with_options(options);
        db.set_monitor_mode(mode);
        db.register_procedure("order", |_ctx, _args| Ok(()));
        db.register_procedure("noop", |_ctx, _args| Ok(()));
        db.execute(SCHEMA).unwrap();
        for k in 0..extra_rules {
            db.execute(&format!(
                "create rule extra_{k}() as \
                 when for each item i where quantity(i) < threshold(i) + {k} \
                 do noop(i);"
            ))
            .unwrap();
        }
        // The workloads never delete items, suppliers or supply links:
        // activation prunes their always-empty Δ₋ differentials (L004).
        for f in ["item_extent", "supplier_extent", "supplies"] {
            db.set_append_only(f, true).unwrap();
        }
        let rel = |name: &str| {
            let catalog = db.catalog();
            catalog
                .def(catalog.lookup(name).unwrap())
                .stored_rel()
                .unwrap()
        };
        let [item_extent, supplier_extent, supplies, delivery_time] = [
            "item_extent",
            "supplier_extent",
            "supplies",
            "delivery_time",
        ]
        .map(rel);
        let [quantity, max_stock, min_stock, consume_freq] =
            ["quantity", "max_stock", "min_stock", "consume_freq"].map(rel);
        let (mut items, mut suppliers) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let storage = db.storage_mut();
        for _ in 0..n {
            let (item, sup) = (storage.fresh_oid(), storage.fresh_oid());
            items.push(item);
            suppliers.push(sup);
            let (i, s) = (Value::Oid(item), Value::Oid(sup));
            storage
                .insert(item_extent, Tuple::new(vec![i.clone()]))
                .unwrap();
            storage
                .insert(supplier_extent, Tuple::new(vec![s.clone()]))
                .unwrap();
            for (f, v) in [
                (quantity, 10_000),
                (max_stock, 20_000),
                (min_stock, 100),
                (consume_freq, 20),
            ] {
                storage
                    .set_functional(f, std::slice::from_ref(&i), &[Value::Int(v)])
                    .unwrap();
            }
            storage
                .set_functional(supplies, std::slice::from_ref(&s), std::slice::from_ref(&i))
                .unwrap();
            storage
                .set_functional(delivery_time, &[i, s], &[Value::Int(2)])
                .unwrap();
        }
        db.execute("activate monitor_items();").unwrap();
        for k in 0..extra_rules {
            db.execute(&format!("activate extra_{k}();")).unwrap();
        }
        World {
            db,
            items,
            suppliers,
            quantity,
            delivery_time,
            consume_freq,
        }
    }

    /// The flat network (fig. 2) under `strategy`: `monitor_items` is
    /// `threshold`'s one caller, so `threshold` is expanded into it.
    pub fn flat(n: usize, strategy: ExecStrategy, mode: MonitorMode) -> World {
        let options = EngineOptions {
            propagation: strategy,
            ..Default::default()
        };
        World::new(n, options, mode, 0)
    }

    /// Make every action restock its item, `quantity(i) = max_stock(i)`,
    /// as the benchmark's `mixed_rules` does: a firing changes the
    /// database, so the check phase runs another pass.
    pub fn write_back(&mut self) {
        for name in ["order", "noop"] {
            self.db.register_procedure(name, |ctx, args| {
                let rel = |f: &str| {
                    let pred = ctx.catalog.lookup(f).map_err(|e| e.to_string())?;
                    let rel = ctx.catalog.def(pred).stored_rel();
                    rel.ok_or_else(|| format!("{f} is not stored"))
                };
                let (quantity, max_stock) = (rel("quantity")?, rel("max_stock")?);
                let key = &args[..1];
                let rows = ctx.storage.relation(max_stock).probe(&[0], key);
                let max = rows.first().and_then(|t| t.get(1)).ok_or("no max_stock")?;
                let max = max.clone();
                ctx.storage
                    .set_functional(quantity, key, &[max])
                    .map_err(|e| e.to_string())
            });
        }
    }

    /// A fig. 6 transaction: one item's quantity changes.
    pub fn update_quantity(&mut self, item: usize, value: i64) {
        self.db.begin().unwrap();
        let i = Value::Oid(self.items[item]);
        self.db
            .storage_mut()
            .set_functional(self.quantity, &[i], &[Value::Int(value)])
            .unwrap();
        self.db.commit().unwrap();
    }

    /// A fig. 7 transaction: every item's quantity, delivery time and
    /// consume frequency change (three of the paper's five partial
    /// differentials). Round 0 rewrites the populated values.
    pub fn update_all(&mut self, round: i64) {
        self.db.begin().unwrap();
        let storage = self.db.storage_mut();
        for (&item, &sup) in self.items.iter().zip(&self.suppliers) {
            let i = Value::Oid(item);
            storage
                .set_functional(
                    self.quantity,
                    std::slice::from_ref(&i),
                    &[Value::Int(10_000 + round)],
                )
                .unwrap();
            storage
                .set_functional(
                    self.delivery_time,
                    &[i.clone(), Value::Oid(sup)],
                    &[Value::Int(2 + round % 2)],
                )
                .unwrap();
            storage
                .set_functional(self.consume_freq, &[i], &[Value::Int(20 + round % 2)])
                .unwrap();
        }
        self.db.commit().unwrap();
    }

    /// Fig. 7 where every item fires: one transaction sets every item's
    /// quantity to 0, below its threshold of 140.
    pub fn fire_all(&mut self) -> CheckSummary {
        self.db.begin().unwrap();
        let storage = self.db.storage_mut();
        for &item in &self.items {
            storage
                .set_functional(self.quantity, &[Value::Oid(item)], &[Value::Int(0)])
                .unwrap();
        }
        self.db.commit().unwrap()
    }
}

/// The network's shape rule: a derived node other than a condition
/// exists iff two or more network nodes call it. (Schemas whose
/// conditions negate a call or recurse keep such calls as nodes; the
/// callers of this check use neither.)
pub fn assert_shared_by_caller_count(db: &Amos) {
    let (net, catalog) = (db.rules().network(), db.catalog());
    for def in catalog.iter().filter(|d| d.clauses().is_some()) {
        if net.conditions().contains(&def.id) {
            continue;
        }
        let callers = (net.nodes().iter())
            .filter(|n| n.pred != def.id && catalog.direct_influents(n.pred).contains(&def.id))
            .count();
        assert_eq!(
            net.node_of(def.id).is_some(),
            callers >= 2,
            "`{}` has {callers} calling nodes",
            def.name
        );
    }
}
