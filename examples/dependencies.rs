//! Recursive monitoring: a build-system dependency graph where a rule
//! watches *transitive* dependencies — the §5 note 1 linear-recursion
//! extension end to end.
//!
//! `depends(a, b)` are direct edges; `needs(a, b)` is the transitive
//! closure defined recursively in AMOSQL. A rule pages the release
//! manager whenever any package starts (transitively) depending on a
//! package that is quarantined.
//!
//! Run with: `cargo run --example dependencies`

use amos_db::Amos;

fn main() {
    let mut db = Amos::new();
    db.register_procedure("page", |_ctx, args| {
        println!(
            "  SUPPLY-CHAIN ALERT: {} now depends on quarantined {}",
            args[0], args[1]
        );
        Ok(())
    });

    db.execute(
        r#"
        create type package;
        create function depends(package a, package b) -> boolean;
        create function quarantined(package p) -> boolean;

        -- Transitive closure, defined recursively (linear recursion):
        create function needs(package a, package b) -> boolean
            as select true
            for each package c
            where depends(a, b) or needs(a, c) and depends(c, b);

        create rule supply_chain() as
            when for each package a, package b
            where needs(a, b) and quarantined(b)
            do page(a, b);

        create package instances :app, :web, :json, :ssl, :zlib;
        add depends(:app, :web) = true;
        add depends(:web, :json) = true;
        add depends(:json, :zlib) = true;
        activate supply_chain();
    "#,
    )
    .expect("schema");

    println!("dependency chain: app → web → json → zlib; ssl unused");
    let rows = db
        .query("select a, b for each package a, package b where needs(a, b);")
        .unwrap();
    println!("transitive dependencies: {} pairs", rows.len());
    assert_eq!(rows.len(), 6);

    println!("\nzlib is quarantined — every transitive dependent is paged:");
    db.execute("add quarantined(:zlib) = true;").unwrap();

    println!("\njson switches to ssl (new edge json → ssl) — no new quarantine exposure:");
    db.execute("add depends(:json, :ssl) = true;").unwrap();

    println!("\nssl gets quarantined too — dependents of ssl are paged:");
    db.execute("add quarantined(:ssl) = true;").unwrap();

    println!("\nwhy did the last alert fire?");
    for e in db.rules().last_trace().explanations() {
        println!("  {}", e.render(db.catalog()));
    }

    println!("\nremoving the json → zlib edge (deletion through the fixpoint):");
    db.execute("remove depends(:json, :zlib) = true;").unwrap();
    let rows = db
        .query("select a for each package a where needs(a, :zlib);")
        .unwrap();
    println!("packages still needing zlib: {}", rows.len());
    assert_eq!(rows.len(), 0);
    println!("done.");
}
