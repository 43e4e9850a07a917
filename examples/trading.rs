//! A trading-desk risk monitor showing the remaining feature surface:
//! ECA event restriction (`on price`), immediate rule processing, and
//! the monitoring statistics counters, under the default incremental
//! (partial differencing) monitoring.
//!
//! Run with: `cargo run --example trading`

use amos_db::{Amos, EngineOptions};

fn main() {
    let mut db = Amos::with_options(EngineOptions {
        immediate: true, // checks run after every statement, mid-transaction
        ..Default::default()
    });
    db.register_procedure("halt_trading", |_ctx, args| {
        println!("  HALT: instrument {} breached its limit", args[0]);
        Ok(())
    });
    db.register_procedure("rebalance", |_ctx, args| {
        println!("  rebalance: desk exposure via {}", args[0]);
        Ok(())
    });

    db.execute(
        r#"
        create type instrument;
        create function price(instrument x) -> integer;
        create function position(instrument x) -> integer;
        create function limit_of(instrument x) -> integer;
        create function exposure(instrument x) -> integer
            as select price(x) * position(x);

        -- ECA restriction: only *price* events test the halt condition;
        -- position changes are the desk's own doing and must not halt.
        create rule circuit_breaker() as on price
            when for each instrument x where exposure(x) > limit_of(x)
            do halt_trading(x) priority 10;

        -- A plain CA rule reacting to any influent.
        create rule exposure_watch() as
            when for each instrument x where exposure(x) > limit_of(x)
            do rebalance(x) priority 1;

        create instrument instances :bond, :fx;
        set price(:bond) = 100;  set position(:bond) = 10;  set limit_of(:bond) = 5000;
        set price(:fx) = 50;     set position(:fx) = 10;    set limit_of(:fx) = 5000;
        activate circuit_breaker();
        activate exposure_watch();
    "#,
    )
    .expect("schema");
    db.rules_mut().reset_stats();

    println!("position grows past the limit — only the CA rule reacts (no price event):");
    db.execute("set position(:bond) = 60;").unwrap(); // exposure 6000 > 5000

    println!("\nprice spike on fx inside an open transaction — immediate mode fires now:");
    db.execute("begin;").unwrap();
    db.execute("set price(:fx) = 600;").unwrap(); // exposure 6000: price event → both rules
    println!("  (transaction still open; committing…)");
    db.execute("commit;").unwrap();

    let stats = db.rules().stats();
    println!("\nmonitoring statistics:");
    println!("  check phases          {}", stats.check_phases);
    println!("  propagation passes    {}", stats.passes);
    println!("  differentials run     {}", stats.differentials_executed);
    println!("  candidate tuples      {}", stats.tuples_produced);
    println!("  rejected by §7.2      {}", stats.tuples_rejected);
    println!("  actions executed      {}", stats.actions_executed);
    println!("done.");
}
