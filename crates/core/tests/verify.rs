//! Builder-mutation tests for the network conformance verifier: corrupt
//! a freshly built (conforming) network three different ways and assert
//! each corruption is rejected with a distinct violation.

use amos_core::differ::DiffId;
use amos_core::network::PropagationNetwork;
use amos_core::verify::{verify_network, Violation};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_storage::Storage;
use amos_types::{CmpOp, TypeId};

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

/// cnd(X) ← q(X,G1) ∧ thr(X,G2) ∧ G1 < G2, with thr derived from r —
/// a three-level bushy network so level mutations have room to land.
fn fixture() -> (Storage, Catalog, PredId) {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let rr = storage.create_relation("r", 2).unwrap();
    let mut cat = Catalog::new();
    let q = cat.define_stored("q", sig(2), rq, 1).unwrap();
    let r = cat.define_stored("r", sig(2), rr, 1).unwrap();
    let thr = cat
        .define_derived(
            "thr",
            sig(2),
            vec![ClauseBuilder::new(2)
                .head([Term::var(0), Term::var(1)])
                .pred(r, [Term::var(0), Term::var(1)])
                .build()],
        )
        .unwrap();
    let cnd = cat
        .define_derived(
            "cnd",
            sig(1),
            vec![ClauseBuilder::new(3)
                .head([Term::var(0)])
                .pred(q, [Term::var(0), Term::var(1)])
                .pred(thr, [Term::var(0), Term::var(2)])
                .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
                .build()],
        )
        .unwrap();
    (storage, cat, cnd)
}

fn build(storage: &mut Storage, cat: &Catalog, cnd: PredId) -> PropagationNetwork {
    PropagationNetwork::build(cat, storage, &[cnd]).unwrap()
}

#[test]
fn uncorrupted_network_verifies() {
    let (mut storage, cat, cnd) = fixture();
    let net = build(&mut storage, &cat, cnd);
    assert_eq!(verify_network(&cat, &storage, &net), Vec::new());
}

#[test]
fn dropped_differential_is_caught() {
    let (mut storage, cat, cnd) = fixture();
    let mut net = build(&mut storage, &cat, cnd);
    net.testing_remove_differential(DiffId(0));
    let violations = verify_network(&cat, &storage, &net);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::MissingDifferential { .. })),
        "{violations:?}"
    );
    // The diagnostic names the absent edge.
    let msg = violations
        .iter()
        .find(|v| matches!(v, Violation::MissingDifferential { .. }))
        .unwrap()
        .to_string();
    assert!(msg.contains("was not emitted"), "{msg}");
}

#[test]
fn duplicated_differential_is_caught() {
    let (mut storage, cat, cnd) = fixture();
    let mut net = build(&mut storage, &cat, cnd);
    net.testing_duplicate_differential(DiffId(0));
    let violations = verify_network(&cat, &storage, &net);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateDifferential { count: 2, .. })),
        "{violations:?}"
    );
    assert!(
        violations
            .iter()
            .find(|v| matches!(v, Violation::DuplicateDifferential { .. }))
            .unwrap()
            .to_string()
            .contains("double-counted"),
        "{violations:?}"
    );
}

#[test]
fn bad_level_is_caught() {
    let (mut storage, cat, cnd) = fixture();
    let mut net = build(&mut storage, &cat, cnd);
    let thr = cat.lookup("thr").unwrap();
    net.testing_set_node_level(thr, 5);
    let violations = verify_network(&cat, &storage, &net);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            Violation::BadLevel {
                expected: 1,
                found: 5,
                ..
            }
        )),
        "{violations:?}"
    );
    // Raising thr above cnd also breaks edge monotonicity — the verifier
    // reports both, with distinct renderings.
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::NonMonotoneEdge { from: 5, to: 2, .. })),
        "{violations:?}"
    );
}

/// The three corruption diagnostics render distinctly — the engine's
/// activation error shows which invariant broke.
#[test]
fn corruption_diagnostics_are_distinct() {
    let (mut storage, cat, cnd) = fixture();
    let mut renderings = Vec::new();
    for mutation in 0..3usize {
        let mut net = build(&mut storage, &cat, cnd);
        match mutation {
            0 => net.testing_remove_differential(DiffId(0)),
            1 => net.testing_duplicate_differential(DiffId(0)),
            _ => net.testing_set_node_level(cat.lookup("thr").unwrap(), 5),
        }
        let violations = verify_network(&cat, &storage, &net);
        assert!(!violations.is_empty(), "mutation {mutation} not caught");
        renderings.push(violations[0].to_string());
    }
    let unique: std::collections::HashSet<&String> = renderings.iter().collect();
    assert_eq!(unique.len(), 3, "{renderings:#?}");
}
