//! The paper's running example (§3.1) — the inventory monitor — with
//! the propagation network rendered and trigger explanations printed.
//!
//! Run with: `cargo run --example inventory`

use amos_db::engine::NetworkPrep;
use amos_db::{Amos, EngineOptions};

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

fn run(prep: NetworkPrep) {
    println!("=== network style: {prep:?} ===\n");
    let mut db = Amos::with_options(EngineOptions {
        network_prep: prep,
        ..Default::default()
    });
    db.register_procedure("order", |_ctx, args| {
        println!("  order({}, {})", args[0], args[1]);
        Ok(())
    });
    db.execute(SCHEMA).expect("schema compiles");
    db.execute(POPULATE).expect("population");

    println!(
        "propagation network (fig. {}):",
        match prep {
            NetworkPrep::Flat => "2 — flat, fully expanded",
            NetworkPrep::Bushy => "1 — bushy, threshold shared",
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
    run(NetworkPrep::Flat);
    run(NetworkPrep::Bushy);
}
