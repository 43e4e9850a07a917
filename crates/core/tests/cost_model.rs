//! Unit + property tests for the §8 hybrid-evaluation [`CostModel`]:
//! the naive/incremental decision must flip *exactly* at
//! `threshold × naive_cost`, and the incremental estimate must be
//! monotone in both |Δ| and the seeding node's out-degree — otherwise
//! the planner could prefer naive on a smaller transaction than one it
//! ran incrementally.

use amos_core::network::PropagationNetwork;
use amos_core::{CostModel, Strategy};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_storage::{RelId, Storage};
use amos_types::{tuple, CmpOp, TypeId, Value};
use proptest::prelude::*;

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

/// `low(x) :- q(x, y), y < 10` over `n_items` monitored rows of `q`.
/// Returns `(storage, catalog, low, q, rel)`.
fn setup(n_items: i64) -> (Storage, Catalog, PredId, PredId, RelId) {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let low = catalog
        .define_derived(
            "low",
            sig(1),
            vec![ClauseBuilder::new(2)
                .head([Term::var(0)])
                .pred(q, [Term::var(0), Term::var(1)])
                .cmp(Term::var(1), CmpOp::Lt, Term::val(10))
                .build()],
        )
        .unwrap();
    for i in 0..n_items {
        storage.insert(rq, tuple![i, 100 + i]).unwrap();
    }
    storage.monitor(rq);
    (storage, catalog, low, q, rq)
}

/// Apply `changes` functional updates to distinct keys inside an open
/// transaction.
fn touch(storage: &mut Storage, rq: RelId, changes: i64) {
    for i in 0..changes {
        storage
            .set_functional(rq, &[Value::Int(i)], &[Value::Int(5)])
            .unwrap();
    }
}

/// The decision boundary is `incremental > threshold × naive`, strictly:
/// at exactly `threshold × naive` the model must still answer
/// `Incremental`, and any threshold below the true cost ratio must
/// answer `Naive`. Sizes are powers of two so `inc / naive` is exact in
/// f64 and "exactly at the boundary" means exactly.
#[test]
fn choose_flips_exactly_at_threshold_times_naive() {
    let (mut storage, catalog, low, _q, rq) = setup(64);
    let net = PropagationNetwork::build(&catalog, &mut storage, &[low]).unwrap();
    storage.begin().unwrap();
    touch(&mut storage, rq, 4);

    let model = CostModel::default();
    let inc = model.incremental_cost(&catalog, &storage, &net, low);
    let naive = model.naive_cost(&catalog, &storage, low);
    assert!(
        inc > 0.0 && naive > 0.0,
        "degenerate fixture: {inc} / {naive}"
    );
    let ratio = inc / naive;
    assert_eq!(ratio * naive, inc, "fixture sizes must divide exactly");

    let at = CostModel {
        threshold: ratio,
        ..model
    };
    assert_eq!(
        at.choose(&catalog, &storage, &net, low),
        Strategy::Incremental,
        "boundary is strict: inc == threshold × naive stays incremental"
    );

    let below = CostModel {
        threshold: ratio * (1.0 - f64::EPSILON),
        ..model
    };
    assert_eq!(
        below.choose(&catalog, &storage, &net, low),
        Strategy::Naive,
        "one ulp under the ratio must flip to naive"
    );

    let above = CostModel {
        threshold: ratio * (1.0 + f64::EPSILON),
        ..model
    };
    assert_eq!(
        above.choose(&catalog, &storage, &net, low),
        Strategy::Incremental
    );
}

/// Out-degree factor: a condition that references `q` twice (self-join)
/// seeds two differentials per Δ tuple, so with the same Δ its estimate
/// must dominate the single-reference condition's — here exactly 2×.
#[test]
fn incremental_cost_is_monotone_in_out_degree() {
    let (mut storage, mut catalog, low, q, rq) = setup(32);
    let pair = catalog
        .define_derived(
            "pair",
            sig(1),
            vec![ClauseBuilder::new(3)
                .head([Term::var(0)])
                .pred(q, [Term::var(0), Term::var(1)])
                .pred(q, [Term::var(1), Term::var(2)])
                .build()],
        )
        .unwrap();
    // One network per condition: the estimate counts every out-edge of
    // the seeding node, so the conditions must not share a network for
    // their out-degrees to differ.
    let net_low = PropagationNetwork::build(&catalog, &mut storage, &[low]).unwrap();
    let net_pair = PropagationNetwork::build(&catalog, &mut storage, &[pair]).unwrap();
    storage.begin().unwrap();
    touch(&mut storage, rq, 8);

    let model = CostModel::default();
    let single = model.incremental_cost(&catalog, &storage, &net_low, low);
    let double = model.incremental_cost(&catalog, &storage, &net_pair, pair);
    assert!(single > 0.0);
    assert_eq!(
        double,
        2.0 * single,
        "two occurrences of q must cost twice one occurrence"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// |Δ| monotonicity: more changed tuples never make the incremental
    /// estimate cheaper (strictly more expensive while Δ still grows),
    /// and the naive estimate ignores Δ entirely.
    #[test]
    fn incremental_cost_is_monotone_in_delta(d1 in 0i64..40, d2 in 0i64..40, extra in 0i64..20) {
        let (lo, hi) = (d1.min(d2), d1.max(d2) + extra);
        let cost_at = |changes: i64| {
            let (mut storage, catalog, low, _q, rq) = setup(64);
            let net = PropagationNetwork::build(&catalog, &mut storage, &[low]).unwrap();
            storage.begin().unwrap();
            touch(&mut storage, rq, changes);
            let model = CostModel::default();
            (
                model.incremental_cost(&catalog, &storage, &net, low),
                model.naive_cost(&catalog, &storage, low),
            )
        };
        let (inc_lo, naive_lo) = cost_at(lo);
        let (inc_hi, naive_hi) = cost_at(hi);
        prop_assert!(
            inc_lo <= inc_hi,
            "incremental cost fell as Δ grew: |Δ|={} → {}, cost {} → {}",
            lo, hi, inc_lo, inc_hi
        );
        if hi > lo {
            prop_assert!(inc_lo < inc_hi, "cost must strictly grow with Δ");
        }
        prop_assert_eq!(naive_lo, naive_hi, "naive cost must not depend on Δ");
    }
}
