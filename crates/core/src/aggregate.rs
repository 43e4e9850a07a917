//! Incremental aggregates — the §8 "future work" extension.
//!
//! An [`AggregateView`] maintains `agg(value_col) group by group_cols`
//! over a **stored** source relation, incrementally: the source's Δ-set
//! folds into per-group state, and the view emits its own Δ-set of
//! `(group…, value)` result tuples.
//!
//! * `count`/`sum`/`avg` keep O(1) state per group.
//! * `min`/`max` keep a multiset (ordered map value → multiplicity) so
//!   deletions of the current extremum are exact without rescanning the
//!   source.
//!
//! The rule manager materializes the view into a backing stored relation
//! at the start of every pass of the check phase, rule actions' writes
//! to the source included: writing the aggregate's changes through
//! [`amos_storage::Storage`] produces ordinary physical events, so the
//! propagation network (and therefore rule conditions) can depend on
//! aggregates exactly like on any stored function.

use std::collections::{BTreeMap, HashMap};

use amos_objectlog::catalog::{Catalog, PredId};
use amos_storage::{DeltaSet, Storage};
use amos_types::{Tuple, Value, ValueError};

use crate::error::CoreError;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Number of source tuples per group.
    Count,
    /// Sum of the value column.
    Sum,
    /// Average of the value column (`real`-valued).
    Avg,
    /// Minimum of the value column.
    Min,
    /// Maximum of the value column.
    Max,
}

impl AggFn {
    /// The AMOSQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Avg => "avg",
            AggFn::Min => "min",
            AggFn::Max => "max",
        }
    }

    /// Parse an AMOSQL aggregate name.
    pub fn parse(s: &str) -> Option<AggFn> {
        match s {
            "count" => Some(AggFn::Count),
            "sum" => Some(AggFn::Sum),
            "avg" => Some(AggFn::Avg),
            "min" => Some(AggFn::Min),
            "max" => Some(AggFn::Max),
            _ => None,
        }
    }
}

/// Per-group incremental state.
#[derive(Debug, Clone, Default)]
struct GroupState {
    count: i64,
    /// Running sum (integers; promoted to real on demand).
    sum_int: i64,
    sum_real: f64,
    any_real: bool,
    /// Ordered multiset for min/max.
    values: BTreeMap<Value, usize>,
}

impl GroupState {
    fn add(&mut self, v: &Value) -> Result<(), ValueError> {
        self.count += 1;
        match v {
            Value::Int(i) => self.sum_int += *i,
            Value::Real(r) => {
                self.sum_real += *r;
                self.any_real = true;
            }
            _ => {}
        }
        *self.values.entry(v.clone()).or_insert(0) += 1;
        Ok(())
    }

    fn remove(&mut self, v: &Value) -> Result<(), ValueError> {
        self.count -= 1;
        match v {
            Value::Int(i) => self.sum_int -= *i,
            Value::Real(r) => self.sum_real -= *r,
            _ => {}
        }
        if let Some(m) = self.values.get_mut(v) {
            *m -= 1;
            if *m == 0 {
                self.values.remove(v);
            }
        }
        Ok(())
    }

    fn result(&self, agg: AggFn) -> Result<Option<Value>, ValueError> {
        if self.count == 0 {
            return Ok(None);
        }
        Ok(Some(match agg {
            AggFn::Count => Value::Int(self.count),
            AggFn::Sum => {
                if self.any_real {
                    Value::real(self.sum_real + self.sum_int as f64)?
                } else {
                    Value::Int(self.sum_int)
                }
            }
            AggFn::Avg => Value::real((self.sum_real + self.sum_int as f64) / self.count as f64)?,
            AggFn::Min => self
                .values
                .keys()
                .next()
                .cloned()
                .expect("count > 0 implies non-empty multiset"),
            AggFn::Max => self
                .values
                .keys()
                .next_back()
                .cloned()
                .expect("count > 0 implies non-empty multiset"),
        }))
    }
}

/// An incrementally maintained grouped aggregate over a stored relation.
#[derive(Debug, Clone)]
pub struct AggregateView {
    /// The source predicate (must be stored).
    pub source: PredId,
    /// Source columns forming the group key.
    pub group_cols: Vec<usize>,
    /// Source column being aggregated.
    pub value_col: usize,
    /// The aggregate function.
    pub agg: AggFn,
    groups: HashMap<Tuple, GroupState>,
}

impl AggregateView {
    /// Create an uninitialized view.
    pub fn new(source: PredId, group_cols: Vec<usize>, value_col: usize, agg: AggFn) -> Self {
        AggregateView {
            source,
            group_cols,
            value_col,
            agg,
            groups: HashMap::new(),
        }
    }

    fn group_of(&self, t: &Tuple) -> Tuple {
        t.project(&self.group_cols)
    }

    /// Initialize from the current contents of the source relation.
    pub fn initialize(&mut self, catalog: &Catalog, storage: &Storage) -> Result<(), CoreError> {
        self.groups.clear();
        let rel = catalog.def(self.source).stored_rel().ok_or_else(|| {
            CoreError::ObjectLog(amos_objectlog::ObjectLogError::NotDerived(
                catalog.name(self.source).to_string(),
            ))
        })?;
        for t in storage.relation(rel).scan() {
            let g = self.group_of(t);
            self.groups
                .entry(g)
                .or_default()
                .add(&t[self.value_col])
                .map_err(amos_objectlog::ObjectLogError::from)?;
        }
        Ok(())
    }

    /// Fold a source Δ-set into the view and return the Δ-set of result
    /// tuples `(group…, value)`: old results removed, new inserted.
    pub fn apply_delta(&mut self, delta: &DeltaSet) -> Result<DeltaSet, CoreError> {
        // Collect affected groups and their before-values.
        let mut before: HashMap<Tuple, Option<Value>> = HashMap::new();
        let touch = |groups: &HashMap<Tuple, GroupState>,
                     before: &mut HashMap<Tuple, Option<Value>>,
                     g: Tuple,
                     agg: AggFn|
         -> Result<(), CoreError> {
            if let std::collections::hash_map::Entry::Vacant(e) = before.entry(g) {
                let v = match groups.get(e.key()) {
                    Some(st) => st
                        .result(agg)
                        .map_err(amos_objectlog::ObjectLogError::from)?,
                    None => None,
                };
                e.insert(v);
            }
            Ok(())
        };
        for t in delta.plus().iter().chain(delta.minus()) {
            touch(&self.groups, &mut before, self.group_of(t), self.agg)?;
        }
        // Apply the changes.
        for t in delta.plus() {
            let g = self.group_of(t);
            self.groups
                .entry(g)
                .or_default()
                .add(&t[self.value_col])
                .map_err(amos_objectlog::ObjectLogError::from)?;
        }
        for t in delta.minus() {
            let g = self.group_of(t);
            if let Some(st) = self.groups.get_mut(&g) {
                st.remove(&t[self.value_col])
                    .map_err(amos_objectlog::ObjectLogError::from)?;
                if st.count == 0 {
                    self.groups.remove(&g);
                }
            }
        }
        // Emit result-level changes.
        let mut out = DeltaSet::new();
        for (g, old) in before {
            let new = match self.groups.get(&g) {
                Some(st) => st
                    .result(self.agg)
                    .map_err(amos_objectlog::ObjectLogError::from)?,
                None => None,
            };
            if old == new {
                continue;
            }
            if let Some(v) = old {
                out.apply_delete(g.concat(&Tuple::new(vec![v])));
            }
            if let Some(v) = new {
                out.apply_insert(g.concat(&Tuple::new(vec![v])));
            }
        }
        Ok(out)
    }

    /// The current result tuples `(group…, value)`.
    pub fn current(&self) -> Result<Vec<Tuple>, CoreError> {
        let mut out = Vec::with_capacity(self.groups.len());
        for (g, st) in &self.groups {
            if let Some(v) = st
                .result(self.agg)
                .map_err(amos_objectlog::ObjectLogError::from)?
            {
                out.push(g.concat(&Tuple::new(vec![v])));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Number of groups currently tracked.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::{tuple, TypeId};

    fn setup() -> (Storage, Catalog, PredId, amos_storage::RelId) {
        let mut storage = Storage::new();
        let rel = storage.create_relation("sales", 2).unwrap(); // (region, amount)
        let mut catalog = Catalog::new();
        let sales = catalog
            .define_stored("sales", vec![TypeId(0); 2], rel, 1)
            .unwrap();
        storage.insert(rel, tuple![1, 10]).unwrap();
        storage.insert(rel, tuple![1, 20]).unwrap();
        storage.insert(rel, tuple![2, 5]).unwrap();
        (storage, catalog, sales, rel)
    }

    fn delta(plus: &[Tuple], minus: &[Tuple]) -> DeltaSet {
        let mut d = DeltaSet::new();
        for t in minus {
            d.apply_delete(t.clone());
        }
        for t in plus {
            d.apply_insert(t.clone());
        }
        d
    }

    #[test]
    fn sum_and_count_initialize_and_update() {
        let (storage, catalog, sales, _) = setup();
        let mut sum = AggregateView::new(sales, vec![0], 1, AggFn::Sum);
        sum.initialize(&catalog, &storage).unwrap();
        assert_eq!(sum.current().unwrap(), vec![tuple![1, 30], tuple![2, 5]]);

        let d = sum
            .apply_delta(&delta(&[tuple![1, 15]], &[tuple![1, 10]]))
            .unwrap();
        assert_eq!(d.plus(), &[tuple![1, 35]].into_iter().collect());
        assert_eq!(d.minus(), &[tuple![1, 30]].into_iter().collect());
        assert_eq!(sum.current().unwrap(), vec![tuple![1, 35], tuple![2, 5]]);
    }

    #[test]
    fn count_tracks_group_disappearance() {
        let (storage, catalog, sales, _) = setup();
        let mut count = AggregateView::new(sales, vec![0], 1, AggFn::Count);
        count.initialize(&catalog, &storage).unwrap();
        let d = count.apply_delta(&delta(&[], &[tuple![2, 5]])).unwrap();
        assert_eq!(d.minus(), &[tuple![2, 1]].into_iter().collect());
        assert!(d.plus().is_empty());
        assert_eq!(count.group_count(), 1);
    }

    #[test]
    fn min_max_survive_extremum_deletion() {
        let (storage, catalog, sales, _) = setup();
        let mut min = AggregateView::new(sales, vec![0], 1, AggFn::Min);
        min.initialize(&catalog, &storage).unwrap();
        assert_eq!(min.current().unwrap(), vec![tuple![1, 10], tuple![2, 5]]);

        // Delete the group-1 minimum: falls back to 20 without rescan.
        let d = min.apply_delta(&delta(&[], &[tuple![1, 10]])).unwrap();
        assert_eq!(d.plus(), &[tuple![1, 20]].into_iter().collect());
        assert_eq!(d.minus(), &[tuple![1, 10]].into_iter().collect());

        let mut max = AggregateView::new(sales, vec![0], 1, AggFn::Max);
        max.initialize(&catalog, &storage).unwrap();
        assert_eq!(max.current().unwrap(), vec![tuple![1, 20], tuple![2, 5]]);
    }

    #[test]
    fn duplicate_values_multiset_semantics() {
        let (mut storage, catalog, sales, rel) = setup();
        storage.insert(rel, tuple![2, 5]).unwrap(); // set semantics: no-op
        let mut min = AggregateView::new(sales, vec![0], 1, AggFn::Min);
        min.initialize(&catalog, &storage).unwrap();
        // Two *distinct* tuples with equal values per group:
        storage.insert(rel, tuple![1, 10]).unwrap(); // no-op (already there)
        let d = min.apply_delta(&delta(&[tuple![1, 5]], &[])).unwrap();
        assert_eq!(d.plus(), &[tuple![1, 5]].into_iter().collect());
        // Removing one of the two 5-valued... there is only one (1,5); after
        // deleting it the min reverts to 10.
        let d = min.apply_delta(&delta(&[], &[tuple![1, 5]])).unwrap();
        assert_eq!(d.plus(), &[tuple![1, 10]].into_iter().collect());
    }

    #[test]
    fn avg_is_real_valued() {
        let (storage, catalog, sales, _) = setup();
        let mut avg = AggregateView::new(sales, vec![0], 1, AggFn::Avg);
        avg.initialize(&catalog, &storage).unwrap();
        let cur = avg.current().unwrap();
        assert_eq!(
            cur,
            vec![
                tuple![1, Value::real(15.0).unwrap()],
                tuple![2, Value::real(5.0).unwrap()]
            ]
        );
    }

    #[test]
    fn no_change_emits_empty_delta() {
        let (storage, catalog, sales, _) = setup();
        let mut sum = AggregateView::new(sales, vec![0], 1, AggFn::Sum);
        sum.initialize(&catalog, &storage).unwrap();
        // +15 and −15 in the same group with the same net sum? Replace a
        // 10 with another 10-valued tuple… set semantics prevents exact
        // duplicates, so swap (1,10) for (1,10) — a no-op delta.
        let d = sum.apply_delta(&DeltaSet::new()).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn aggregate_fn_names_round_trip() {
        for agg in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
            assert_eq!(AggFn::parse(agg.name()), Some(agg));
        }
        assert_eq!(AggFn::parse("median"), None);
    }
}
