//! The §3.1 inventory world of the three embedded workloads: the engine
//! under test, the generated operations, and the plain model of the base
//! functions that the oracles compare the engine against.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use amos_db::{Amos, EngineOptions, MonitorMode, NetworkPrep, Oid, Tuple, Value};
use amos_storage::{RelId, Storage, StorageError};

/// Rules active in `mixed_rules`: `monitor_items` plus seven variants.
pub const MIXED_RULES: usize = 8;

/// Initial value of every item's base functions (the paper's population:
/// quantities far above the threshold of 20 * 2 + 100 = 140).
const INIT: Item = Item {
    quantity: 10_000,
    max_stock: 20_000,
    min_stock: 100,
    consume_freq: 20,
    delivery_time: 2,
    supplied: true,
};

/// Types, functions and `monitor_items` as in §3.1 of the paper, then
/// `rules - 1` variants `quantity(i) < threshold(i) + k` that all share the
/// derived `threshold` function.
pub fn schema(rules: usize) -> String {
    let mut s = String::from(
        r#"
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
"#,
    );
    for k in 1..rules {
        s.push_str(&format!(
            "    create rule monitor_items_{k}() as when for each item i \
             where quantity(i) < threshold(i) + {k} do reorder(i, {k});\n"
        ));
    }
    s
}

pub fn rule_names(rules: usize) -> Vec<String> {
    std::iter::once("monitor_items".to_string())
        .chain((1..rules).map(|k| format!("monitor_items_{k}")))
        .collect()
}

/// The condition of `monitor_items` as a query: what the naive monitor
/// evaluates at every commit, and what the oracle asks at the end.
pub const CONDITION_QUERY: &str = "select i for each item i where quantity(i) < threshold(i);";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldSpec {
    pub n_items: usize,
    pub prep: NetworkPrep,
    /// Declare extents and `supplies` append-only, as `amos-bench` does
    /// for the paper's figures (prunes their Δ₋ differentials).
    pub append_only: bool,
    pub rules: usize,
    /// The rule action sets `quantity(i) = max_stock(i)`, so a firing
    /// changes the database and the check phase runs a second pass.
    pub writeback: bool,
    pub mode: MonitorMode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    Quantity,
    DeliveryTime,
    ConsumeFreq,
    MinStock,
}

/// One generated operation; items are named by their index in creation
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Set {
        f: Func,
        item: u32,
        value: i64,
    },
    /// `remove supplies(s) = i`: `threshold(i)` loses its only supplier.
    Unsupply {
        item: u32,
    },
    /// `add supplies(s) = i` for a supplier removed earlier.
    Resupply {
        item: u32,
    },
    /// A new item and its supplier, with the initial function values.
    Create,
}

#[derive(Debug, Clone, Default)]
pub struct Txn {
    pub ops: Vec<Op>,
    /// End in `rollback` instead of `commit`.
    pub rollback: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    pub quantity: i64,
    pub max_stock: i64,
    pub min_stock: i64,
    pub consume_freq: i64,
    pub delivery_time: i64,
    pub supplied: bool,
}

/// The generator's model: the base functions as plain values, advanced
/// by the same transactions the engine receives.
#[derive(Debug, Clone)]
pub struct Model {
    pub items: Vec<Item>,
    /// Largest `k` among the active rules `quantity < threshold + k`.
    slack: i64,
    writeback: bool,
    /// Rule instances the model expects to have fired so far.
    pub fired: u64,
}

impl Model {
    pub fn new(spec: &WorldSpec) -> Self {
        Model {
            items: vec![INIT; spec.n_items],
            slack: spec.rules as i64 - 1,
            writeback: spec.writeback,
            fired: 0,
        }
    }

    pub fn threshold(&self, item: usize) -> Option<i64> {
        let it = &self.items[item];
        it.supplied
            .then(|| it.consume_freq * it.delivery_time + it.min_stock)
    }

    /// Apply a committed transaction, rule actions included. Every
    /// condition is false at every transaction boundary (the workloads
    /// without write-back never cross a threshold, and a write-back
    /// restores `max_stock`), so an item whose weakest condition holds
    /// after the updates fires exactly once: the rule chosen first sets
    /// its quantity, which untriggers the others.
    pub fn apply(&mut self, txn: &Txn) {
        if txn.rollback {
            return;
        }
        let mut touched = Vec::with_capacity(txn.ops.len());
        for op in &txn.ops {
            match *op {
                Op::Set { f, item, value } => {
                    let it = &mut self.items[item as usize];
                    match f {
                        Func::Quantity => it.quantity = value,
                        Func::DeliveryTime => it.delivery_time = value,
                        Func::ConsumeFreq => it.consume_freq = value,
                        Func::MinStock => it.min_stock = value,
                    }
                    touched.push(item);
                }
                Op::Unsupply { item } => self.items[item as usize].supplied = false,
                Op::Resupply { item } => {
                    self.items[item as usize].supplied = true;
                    touched.push(item);
                }
                Op::Create => self.items.push(INIT),
            }
        }
        if !self.writeback {
            return;
        }
        touched.sort_unstable();
        touched.dedup();
        for item in touched {
            let Some(t) = self.threshold(item as usize) else {
                continue;
            };
            let it = &mut self.items[item as usize];
            if it.quantity < t + self.slack {
                it.quantity = it.max_stock;
                self.fired += 1;
            }
        }
    }

    /// Items for which `quantity(i) < threshold(i)` holds.
    pub fn below_threshold(&self) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| {
                self.threshold(i)
                    .is_some_and(|t| self.items[i].quantity < t)
            })
            .collect()
    }
}

/// Backing relations of the stored functions, for parser-free updates.
#[derive(Debug, Clone, Copy)]
pub struct Rels {
    pub item_extent: RelId,
    pub supplier_extent: RelId,
    pub quantity: RelId,
    pub max_stock: RelId,
    pub min_stock: RelId,
    pub consume_freq: RelId,
    pub supplies: RelId,
    pub delivery_time: RelId,
}

/// Where set-up time went (per-layer metrics of the `db` group).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub populate_ms: f64,
    pub activate_ms: f64,
    pub first_txn_us: f64,
}

/// `(rule index, item oid)` of every action call, in call order.
pub type Firings = Arc<Mutex<Vec<(u8, u64)>>>;

pub struct World {
    pub db: Amos,
    pub rels: Rels,
    pub items: Vec<Oid>,
    pub suppliers: Vec<Oid>,
    pub firings: Firings,
    pub times: SetupTimes,
}

fn int_at(storage: &Storage, rel: RelId, key: &Value) -> Option<i64> {
    let rows = storage.relation(rel).probe(&[0], std::slice::from_ref(key));
    match rows.first().and_then(|t| t.get(1)) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

impl World {
    /// Engine construction, schema, population and `activate`, all through
    /// the public API and always with `EngineOptions::default()` apart
    /// from the network preparation the workload names.
    pub fn build(spec: &WorldSpec) -> World {
        let mut db = Amos::with_options(EngineOptions {
            network_prep: spec.prep,
            ..EngineOptions::default()
        });
        db.set_monitor_mode(spec.mode);
        let firings: Firings = Arc::default();
        let writeback = spec.writeback;
        for (name, rule_arg) in [("order", false), ("reorder", true)] {
            let firings = Arc::clone(&firings);
            db.register_procedure(name, move |ctx, args| {
                let Some(Value::Oid(item)) = args.first() else {
                    return Err("action called without an item".to_string());
                };
                let rule = match args.get(1) {
                    Some(Value::Int(k)) if rule_arg => *k as u8,
                    _ => 0,
                };
                firings
                    .lock()
                    .expect("firings lock")
                    .push((rule, item.raw()));
                if writeback {
                    let rel = |f: &str| {
                        ctx.catalog
                            .lookup(f)
                            .ok()
                            .and_then(|p| ctx.catalog.def(p).stored_rel())
                            .ok_or_else(|| format!("no stored function {f}"))
                    };
                    let key = Value::Oid(*item);
                    let max = int_at(ctx.storage, rel("max_stock")?, &key)
                        .ok_or("item without max_stock")?;
                    ctx.storage
                        .set_functional(rel("quantity")?, &[key], &[Value::Int(max)])
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            });
        }
        db.execute(&schema(spec.rules)).expect("schema compiles");
        if spec.append_only {
            for f in ["item_extent", "supplier_extent", "supplies"] {
                db.set_append_only(f, true).expect("stored function");
            }
        }
        let rel = |name: &str| {
            let catalog = db.catalog();
            catalog
                .def(catalog.lookup(name).expect("declared by the schema"))
                .stored_rel()
                .expect("stored function")
        };
        let rels = Rels {
            item_extent: rel("item_extent"),
            supplier_extent: rel("supplier_extent"),
            quantity: rel("quantity"),
            max_stock: rel("max_stock"),
            min_stock: rel("min_stock"),
            consume_freq: rel("consume_freq"),
            supplies: rel("supplies"),
            delivery_time: rel("delivery_time"),
        };
        let mut world = World {
            db,
            rels,
            items: Vec::with_capacity(spec.n_items),
            suppliers: Vec::with_capacity(spec.n_items),
            firings,
            times: SetupTimes::default(),
        };

        let start = Instant::now();
        for _ in 0..spec.n_items {
            world.create_item().expect("population");
        }
        world.times.populate_ms = start.elapsed().as_secs_f64() * 1e3;

        // Network build, lint and abstract interpretation, conformance
        // check and join-index creation all happen here.
        let start = Instant::now();
        for rule in rule_names(spec.rules) {
            world
                .db
                .execute(&format!("activate {rule}();"))
                .expect("activate");
        }
        world.times.activate_ms = start.elapsed().as_secs_f64() * 1e3;
        world
    }

    fn create_item(&mut self) -> Result<(), StorageError> {
        let r = self.rels;
        let s = self.db.storage_mut();
        let (item, sup) = (s.fresh_oid(), s.fresh_oid());
        let (iv, sv) = (Value::Oid(item), Value::Oid(sup));
        s.insert(r.item_extent, Tuple::new(vec![iv.clone()]))?;
        s.insert(r.supplier_extent, Tuple::new(vec![sv.clone()]))?;
        let key = std::slice::from_ref(&iv);
        s.set_functional(r.quantity, key, &[Value::Int(INIT.quantity)])?;
        s.set_functional(r.max_stock, key, &[Value::Int(INIT.max_stock)])?;
        s.set_functional(r.min_stock, key, &[Value::Int(INIT.min_stock)])?;
        s.set_functional(r.consume_freq, key, &[Value::Int(INIT.consume_freq)])?;
        s.set_functional(r.supplies, std::slice::from_ref(&sv), key)?;
        s.set_functional(
            r.delivery_time,
            &[iv, sv],
            &[Value::Int(INIT.delivery_time)],
        )?;
        self.items.push(item);
        self.suppliers.push(sup);
        Ok(())
    }

    /// One generated operation against the open transaction, bypassing
    /// the parser (`storage_mut()`), as `amos-bench` does.
    pub fn apply(&mut self, op: &Op) -> Result<(), StorageError> {
        let r = self.rels;
        match *op {
            Op::Set { f, item, value } => {
                let iv = Value::Oid(self.items[item as usize]);
                let s = self.db.storage_mut();
                let v = [Value::Int(value)];
                match f {
                    Func::Quantity => s.set_functional(r.quantity, &[iv], &v),
                    Func::ConsumeFreq => s.set_functional(r.consume_freq, &[iv], &v),
                    Func::MinStock => s.set_functional(r.min_stock, &[iv], &v),
                    Func::DeliveryTime => {
                        let sv = Value::Oid(self.suppliers[item as usize]);
                        s.set_functional(r.delivery_time, &[iv, sv], &v)
                    }
                }
            }
            Op::Unsupply { item } | Op::Resupply { item } => {
                let key = [Value::Oid(self.suppliers[item as usize])];
                let rest = [Value::Oid(self.items[item as usize])];
                let s = self.db.storage_mut();
                if matches!(op, Op::Unsupply { .. }) {
                    s.remove_functional(r.supplies, &key, &rest).map(|_| ())
                } else {
                    s.add_functional(r.supplies, &key, &rest).map(|_| ())
                }
            }
            Op::Create => self.create_item(),
        }
    }

    /// One transaction as its caller sees it: `begin` … `commit()`
    /// returned, check phase and rule actions included.
    pub fn run(&mut self, txn: &Txn) -> Result<(), String> {
        let items_before = self.items.len();
        let result = self.try_run(txn);
        if result.is_err() || txn.rollback {
            self.undo(items_before);
        }
        result
    }

    fn try_run(&mut self, txn: &Txn) -> Result<(), String> {
        self.db.begin().map_err(|e| e.to_string())?;
        for op in &txn.ops {
            self.apply(op).map_err(|e| e.to_string())?;
        }
        if txn.rollback {
            self.db.rollback().map_err(|e| e.to_string())
        } else {
            self.db.commit().map(|_| ()).map_err(|e| e.to_string())
        }
    }

    /// Leave no transaction open and forget the items an undone
    /// transaction created.
    pub fn undo(&mut self, items_before: usize) {
        if self.db.storage().in_transaction() {
            let _ = self.db.rollback();
        }
        self.items.truncate(items_before);
        self.suppliers.truncate(items_before);
    }

    /// Net Δ-tuples accumulated by the open transaction.
    pub fn delta_tuples(&self) -> usize {
        let s = self.db.storage();
        s.changed_relations()
            .into_iter()
            .filter_map(|rel| s.delta(rel))
            .map(|d| d.len())
            .sum()
    }

    /// Compare the engine with the model: the rule condition as a query,
    /// every stored quantity, and the number of rule instances fired.
    /// Returns one message per disagreement.
    pub fn check_against(&mut self, model: &Model) -> Vec<String> {
        let mut bad = Vec::new();
        match self.db.query(CONDITION_QUERY) {
            Ok(rows) => {
                let mut got: Vec<u64> = rows
                    .iter()
                    .filter_map(|t| match t.get(0) {
                        Some(Value::Oid(o)) => Some(o.raw()),
                        _ => None,
                    })
                    .collect();
                got.sort_unstable();
                let mut want: Vec<u64> = model
                    .below_threshold()
                    .into_iter()
                    .map(|i| self.items[i].raw())
                    .collect();
                want.sort_unstable();
                if got != want {
                    bad.push(format!(
                        "condition query: engine has {} items below threshold, model {}",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => bad.push(format!("condition query failed: {e}")),
        }
        if self.items.len() != model.items.len() {
            bad.push(format!(
                "engine has {} items, model {}",
                self.items.len(),
                model.items.len()
            ));
        }
        let wrong = self
            .items
            .iter()
            .zip(&model.items)
            .filter(|(oid, it)| {
                int_at(self.db.storage(), self.rels.quantity, &Value::Oid(**oid))
                    != Some(it.quantity)
            })
            .count();
        if wrong > 0 {
            bad.push(format!("{wrong} quantities differ from the model"));
        }
        let fired = self.firings.lock().expect("firings lock").len() as u64;
        if fired != model.fired {
            bad.push(format!(
                "{fired} rule instances fired, model expects {}",
                model.fired
            ));
        }
        bad
    }

    /// Order-independent digest of the stored quantities, read back from
    /// the engine (the tests' check that a seed is really used).
    pub fn state_digest(&self) -> u64 {
        self.items.iter().enumerate().fold(0u64, |acc, (i, oid)| {
            let q = int_at(self.db.storage(), self.rels.quantity, &Value::Oid(*oid)).unwrap_or(-1);
            acc.wrapping_add((q as u64 ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
    }
}
