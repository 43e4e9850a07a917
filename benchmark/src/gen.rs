//! Seeded transaction streams of the three embedded workloads. A stream
//! owns the model and advances it with every transaction it hands out,
//! so the model is always the state the engine should be in after
//! running them all.

use std::collections::VecDeque;

use crate::rng::SplitMix64;
use crate::world::{Func, Model, Op, Txn, WorldSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Paper fig. 6: one quantity update of one uniformly chosen item.
    Small,
    /// Paper fig. 7: quantity, delivery time and consume frequency of
    /// every item.
    Bulk,
    /// 32 operations over every base function, with firings, supplier
    /// churn, creations and rollbacks.
    Mixed,
}

/// Operations per `mixed_rules` transaction.
pub const MIXED_OPS: usize = 32;
/// Every this-many-th `mixed_rules` transaction ends in `rollback`.
pub const ROLLBACK_EVERY: u64 = 50;

pub struct Source {
    stream: Stream,
    rng: SplitMix64,
    pub model: Model,
    serial: u64,
    /// Items whose supplier is currently removed, oldest first.
    unsupplied: VecDeque<u32>,
}

impl Source {
    pub fn new(stream: Stream, spec: &WorldSpec, seed: u64) -> Self {
        Source {
            stream,
            rng: SplitMix64::fork(seed, stream as u64),
            model: Model::new(spec),
            serial: 0,
            unsupplied: VecDeque::new(),
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Txn> {
        (0..n).map(|_| self.next_txn()).collect()
    }

    pub fn next_txn(&mut self) -> Txn {
        self.serial += 1;
        let txn = match self.stream {
            Stream::Small => self.small(),
            Stream::Bulk => self.bulk(),
            Stream::Mixed => self.mixed(),
        };
        self.model.apply(&txn);
        txn
    }

    fn item(&mut self) -> u32 {
        self.rng.below(self.model.items.len() as u64) as u32
    }

    /// A fresh value (the serial number makes every update a real change)
    /// far above the threshold: pure monitoring cost, no rule fires.
    fn small(&mut self) -> Txn {
        let op = Op::Set {
            f: Func::Quantity,
            item: self.item(),
            value: 10_000 + self.serial as i64,
        };
        Txn {
            ops: vec![op],
            rollback: false,
        }
    }

    /// Quantities are drawn from 64 values, so about one item in 64 is
    /// rewritten with the value it already has and its `−`/`+` pair
    /// cancels in the Δ-set (§4.1); the other two functions alternate
    /// between two values and always change.
    fn bulk(&mut self) -> Txn {
        let flip = (self.serial % 2) as i64;
        let n = self.model.items.len() as u32;
        let mut ops = Vec::with_capacity(3 * n as usize);
        for item in 0..n {
            for (f, value) in [
                (Func::Quantity, 10_000 + self.rng.range(0, 64)),
                (Func::DeliveryTime, 2 + flip),
                (Func::ConsumeFreq, 20 + flip),
            ] {
                ops.push(Op::Set { f, item, value });
            }
        }
        Txn {
            ops,
            rollback: false,
        }
    }

    fn mixed(&mut self) -> Txn {
        let rollback = self.serial.is_multiple_of(ROLLBACK_EVERY);
        let mut ops = Vec::with_capacity(MIXED_OPS);
        // The model is only advanced once the whole transaction is built,
        // so churn decisions within one transaction go by `unsupplied`.
        let mut churned: Vec<u32> = Vec::new();
        while ops.len() < MIXED_OPS {
            let item = self.item();
            let op = match self.rng.below(10) {
                0..=4 => {
                    let low = self.rng.below(5) == 0;
                    let value = match self.model.threshold(item as usize) {
                        // Below `threshold + 7`: between one and all
                        // eight rules become true.
                        Some(t) if low => t + self.rng.range(-10, 7),
                        _ => self.rng.range(5_000, 15_000),
                    };
                    Op::Set {
                        f: Func::Quantity,
                        item,
                        value,
                    }
                }
                5 => Op::Set {
                    f: Func::DeliveryTime,
                    item,
                    value: self.rng.range(1, 5),
                },
                6 => Op::Set {
                    f: Func::ConsumeFreq,
                    item,
                    value: self.rng.range(10, 31),
                },
                7 => Op::Set {
                    f: Func::MinStock,
                    item,
                    value: self.rng.range(50, 151),
                },
                8 => {
                    // Restore the oldest removed supplier once a few are
                    // out, else remove another; never both for one item
                    // in one transaction.
                    let restore = self
                        .unsupplied
                        .front()
                        .is_some_and(|i| self.unsupplied.len() >= 4 && !churned.contains(i));
                    if restore && !rollback {
                        let item = self.unsupplied.pop_front().expect("checked non-empty");
                        churned.push(item);
                        Op::Resupply { item }
                    } else if self.model.items[item as usize].supplied
                        && !churned.contains(&item)
                        && !rollback
                    {
                        self.unsupplied.push_back(item);
                        churned.push(item);
                        Op::Unsupply { item }
                    } else {
                        continue;
                    }
                }
                // A rolled-back transaction creates nothing, so item
                // indices stay dense.
                _ if rollback => continue,
                _ => Op::Create,
            };
            ops.push(op);
        }
        Txn { ops, rollback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec_of;

    #[test]
    fn same_seed_same_stream() {
        for stream in [Stream::Small, Stream::Mixed] {
            let spec = spec_of(stream);
            let a: Vec<_> = Source::new(stream, &spec, 7)
                .take(60)
                .iter()
                .map(|t| t.ops.clone())
                .collect();
            let b: Vec<_> = Source::new(stream, &spec, 7)
                .take(60)
                .iter()
                .map(|t| t.ops.clone())
                .collect();
            let c: Vec<_> = Source::new(stream, &spec, 8)
                .take(60)
                .iter()
                .map(|t| t.ops.clone())
                .collect();
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn mixed_stream_has_every_kind_of_operation() {
        let spec = spec_of(Stream::Mixed);
        let mut src = Source::new(Stream::Mixed, &spec, 1);
        let txns = src.take(200);
        let ops: Vec<&Op> = txns.iter().flat_map(|t| &t.ops).collect();
        assert!(txns.iter().all(|t| t.ops.len() == MIXED_OPS));
        assert_eq!(txns.iter().filter(|t| t.rollback).count(), 4);
        assert!(ops.iter().any(|o| matches!(o, Op::Unsupply { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Resupply { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Create)));
        assert!(src.model.fired > 0, "some quantity sets must cross");
        assert!(src.model.below_threshold().is_empty());
    }
}
