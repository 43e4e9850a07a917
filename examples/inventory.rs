//! The paper's running example (§3.1) — the inventory monitor — with
//! the propagation network rendered and trigger explanations printed,
//! once with `monitor_items` alone (`threshold` expanded: fig. 2) and
//! once with a second rule over `threshold` (a shared node: fig. 1).
//!
//! Run with: `cargo run --example inventory`

use amos_db::Amos;

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
/// two callers `threshold` stays one network node both rules share
/// (§7.1).
const SECOND_CALLER: &str = r#"
    create rule overstocked() as
        when for each item i where quantity(i) > threshold(i) * 100
        do warn(i);
    activate overstocked();
"#;

fn run(shared: bool) {
    let callers = if shared { "two rules" } else { "one rule" };
    println!("=== {callers} calling threshold ===\n");
    let mut db = Amos::new();
    db.register_procedure("order", |_ctx, args| {
        println!("  order({}, {})", args[0], args[1]);
        Ok(())
    });
    db.register_procedure("warn", |_ctx, args| {
        println!("  warn({})", args[0]);
        Ok(())
    });
    db.execute(SCHEMA).expect("schema compiles");
    db.execute(POPULATE).expect("population");
    if shared {
        db.execute(SECOND_CALLER).expect("second rule");
    }

    println!(
        "propagation network (fig. {}):",
        match shared {
            false => "2 — flat, threshold expanded into its one caller",
            true => "1 — bushy, threshold a node both rules share",
        }
    );
    println!("{}", db.rules().network().render(db.catalog()));

    // Thresholds: item1 = 20*2+100 = 140, item2 = 30*3+200 = 290.
    let rows = db.query("select threshold(:item1);").unwrap();
    println!("threshold(:item1) = {}", rows[0][0]);
    let rows = db.query("select threshold(:item2);").unwrap();
    println!("threshold(:item2) = {}\n", rows[0][0]);

    println!("quantity(:item1) drops to 120 (below 140) — one order placed:");
    db.execute("set quantity(:item1) = 120;").unwrap();

    println!("\nwhy did it trigger?");
    for e in db.rules().last_trace().explanations() {
        println!("  {}", e.render(db.catalog()));
    }

    println!("\nstays low (110) — strict semantics, no second order:");
    db.execute("set quantity(:item1) = 110;").unwrap();

    println!("changing the *threshold side*: min_stock(:item2) = 7500");
    println!(
        "(threshold becomes 90 + 7500 = 7590 > quantity 7500) — triggers through Δ+min_stock:"
    );
    db.execute("set min_stock(:item2) = 7500;").unwrap();
    for e in db.rules().last_trace().explanations() {
        println!("  {}", e.render(db.catalog()));
    }
    println!();
}

fn main() {
    run(false);
    run(true);
}
