//! Fig. 6's constant, held as a count: the allocations of one whole
//! one-update transaction — `begin`, one `set_functional` on `quantity`,
//! `commit` with its check phase — through `Amos`, on `paper_curves`'
//! 10 000-item flat world (embedded engine, no WAL). `paper_curves`
//! holds the transaction's variable cost (12 probes, 0 scans at every
//! size); this holds the rest.
//!
//! The most expensive of 200 warm transactions, measured in a release
//! build: 68 allocations when every check phase rebuilt its trace,
//! cloned each fired differential's accepted tuples and built per-pass
//! lists of its live conditions, propagated conditions and changed
//! relations; 64 since a pass's outcome is moved into one report whose
//! buffers are cleared, not rebuilt; 57 since the write keeps the hash
//! indexes current in place. That change dropped the projected key
//! `Tuple` each index op built, the per-key `FxHashSet` (a key's tuples
//! are now a `Vec` under the key's fingerprint), the growth of the
//! pending maintenance log, and the regrowth of the `key.to_vec()` that
//! `rest` was appended to; 56 since a pass no longer names its check
//! level, which dropped the `String` `PassMetrics::check` held; 52
//! since self-recursion is a network node's flag, set at build, which
//! dropped the `Catalog::direct_influents` `Vec` that
//! `Catalog::is_self_recursive` built for every changed node and every
//! executed differential on every pass; 48 since the one planner compares
//! a cached plan's statistics fingerprint with the live one in place,
//! which dropped the `Vec` that `StatsFingerprint::capture` built, and
//! grew once, for each of the pass's two differentials. The budget is
//! the count after.
//! Driving it down is ROADMAP item 16.
//!
//! Its own test binary: the counting allocator is process-wide, and the
//! one test here is the only thread allocating while the count runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use amos_core::MonitorMode;
use amos_db::{ExecStrategy, Value};

mod common;
use common::World;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ITEMS: usize = 10_000;
/// Transactions run before counting: the first ones compile and cache
/// the differential plans.
const WARM_UP: usize = 20;
/// Transactions counted; the budget holds for the most expensive.
const COUNTED: usize = 200;
/// Allocations one transaction may make.
const BUDGET: u64 = 48;

#[test]
fn a_one_update_transaction_stays_within_its_allocation_budget() {
    let mut w = World::flat(ITEMS, ExecStrategy::default(), MonitorMode::Incremental);
    let mut worst = 0;
    for t in 0..WARM_UP + COUNTED {
        let item = Value::Oid(w.items[t % ITEMS]);
        let value = Value::Int(10_001 + t as i64);
        ALLOCATIONS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        w.db.begin().unwrap();
        w.db.storage_mut()
            .set_functional(w.quantity, &[item], &[value])
            .unwrap();
        let summary = w.db.commit().unwrap();
        COUNTING.store(false, Ordering::SeqCst);
        assert_eq!(summary.passes, 1, "transaction {t}");
        if t >= WARM_UP {
            worst = worst.max(ALLOCATIONS.load(Ordering::SeqCst));
        }
    }
    // The pass is fig. 6's: 12 probes, nothing fired.
    let m = w.db.last_pass_metrics().unwrap();
    assert_eq!((m.probes, m.scans, m.candidates), (12, 0, 0));
    assert!(
        worst <= BUDGET,
        "{worst} allocations in one transaction, budget {BUDGET}"
    );
    eprintln!("worst transaction: {worst} allocations (budget {BUDGET})");
}
