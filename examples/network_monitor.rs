//! A second domain: data-center link monitoring, exercising the parts of
//! the calculus the inventory example doesn't — **negation** (a rule that
//! depends on the *absence* of tuples, so deletions trigger it through
//! negative partial differentials) and **rule cascades** (an action that
//! updates relations other rules monitor).
//!
//! Scenario: hosts are connected by links. A host with no working link
//! is *isolated*; the `isolation_alarm` rule pages the operator. A
//! `failover` rule with higher priority re-enables a backup link first —
//! so a host with a backup never pages.
//!
//! Run with: `cargo run --example network_monitor`

use amos_db::{Amos, Value};

fn main() {
    let mut db = Amos::new();
    db.register_procedure("page_operator", |_ctx, args| {
        println!("  PAGE: host {} is isolated!", args[0]);
        Ok(())
    });
    db.register_procedure("log", |_ctx, args| {
        println!("  log: failover engaged for host {}", args[0]);
        Ok(())
    });

    db.execute(
        r#"
        create type host;
        -- link_up(h) = 1 while some link of h is up, stored per link id:
        --   up(h, link_id) -> integer   (1 = up, 0 = down)
        create function up(host h, integer link) -> integer;
        -- backup(h) -> integer: id of a standby link, 0 if none
        create function backup(host h) -> integer;

        -- a host is reachable if ANY of its links is up
        create function reachable(host h) -> boolean
            as select true for each integer l where up(h, l) = 1;

        -- failover: when a host stops being reachable and has a backup,
        -- bring the backup up (priority over paging).
        create rule failover() as
            when for each host h
            where not reachable(h) and backup(h) > 0
            do set up(h, backup(h)) = 1, log(h) priority 10;

        -- isolation alarm: page when a host is unreachable.
        create rule isolation_alarm() as
            when for each host h where not reachable(h)
            do page_operator(h) priority 1;

        create host instances :web, :dbhost;
        set up(:web, 1) = 1;
        set up(:web, 2) = 0;
        set backup(:web) = 2;
        set up(:dbhost, 1) = 1;
        set backup(:dbhost) = 0;

        activate failover();
        activate isolation_alarm();
    "#,
    )
    .expect("schema");

    println!("web loses its primary link — failover engages, no page:");
    db.execute("set up(:web, 1) = 0;").unwrap();
    let rows = db
        .query("select h for each host h where reachable(h);")
        .unwrap();
    println!("  reachable hosts afterwards: {}", rows.len());
    assert_eq!(rows.len(), 2, "failover restored web via its backup link");

    println!("\ndbhost loses its only link (no backup) — the operator is paged:");
    db.execute("set up(:dbhost, 1) = 0;").unwrap();

    println!("\nwhy (which influent, insertion or deletion)?");
    for e in db.rules().last_trace().explanations() {
        println!("  {}", e.render(db.catalog()));
    }

    println!("\na flapping link inside one transaction — net change is zero, nobody is paged:");
    db.execute("set up(:dbhost, 1) = 1;").unwrap(); // repair first
    db.execute("begin; set up(:dbhost, 1) = 0; set up(:dbhost, 1) = 1; commit;")
        .unwrap();

    // Final state sanity.
    let up = db.call_function(
        "up",
        &[db.iface_value("dbhost").cloned().unwrap(), Value::Int(1)],
    );
    assert_eq!(up.unwrap(), Value::Int(1));
    println!("\ndone.");
}
