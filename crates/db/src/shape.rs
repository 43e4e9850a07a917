//! Network shape by caller count (§4.3 and §7.1).
//!
//! §4.3 expands derived functions into the conditions that call them,
//! which gives the optimizer freedom and yields the flat network of
//! fig. 2. §7.1 keeps a sub-function such as `threshold` as one node
//! that several rules share (fig. 1). Neither fixed shape is cheaper on
//! every workload, so the shape follows from the active conditions: a
//! derived function stays a network node iff two or more of the
//! network's other nodes call it, and is expanded into its one caller
//! otherwise. Negated and self-recursive calls stay calls, as
//! [`expand_clauses`] leaves them, and the bodies behind them keep the
//! shape they were defined with.
//!
//! Each rule condition keeps the clauses `create rule` compiled as its
//! *source*. An active condition is its source expanded around the
//! shared set; an inactive one is its source fully expanded, which is
//! how `create rule` installs it. A shared function whose own body calls
//! derived functions is expanded the same way, and gets its source back
//! when it stops being shared. [`Shapes::reshape`] runs whenever the set
//! of active conditions changes, before the network is rebuilt, so
//! `holds`, the naive monitor, `explain rule` and the network all read
//! one shape.

use std::collections::{BTreeSet, HashMap, HashSet};

use amos_objectlog::catalog::{Catalog, PredId, PredKind};
use amos_objectlog::clause::{Clause, Literal};
use amos_objectlog::expand::expand_clauses;
use amos_types::TypeId;

use crate::error::DbError;

/// The source and current shape of every predicate whose catalog
/// clauses are an expansion: each rule condition, and each shared
/// function that expands a call of its own.
#[derive(Default)]
pub(crate) struct Shapes {
    shaped: HashMap<PredId, Shape>,
}

pub(crate) struct Shape {
    source: Vec<Clause>,
    condition: bool,
    /// The shared functions the expansion left as calls, sorted: the
    /// expansion meets no other decision, so an equal set is an equal
    /// shape.
    kept: Vec<PredId>,
}

/// What one [`Shapes::reshape`] replaced: each predicate's previous
/// clauses and shape, in replacement order.
pub(crate) type Undo = Vec<(PredId, Vec<Clause>, Option<Shape>)>;

impl Shapes {
    /// Define a rule condition as its source fully expanded.
    pub(crate) fn define_condition(
        &mut self,
        catalog: &mut Catalog,
        name: &str,
        signature: Vec<TypeId>,
        source: Vec<Clause>,
    ) -> Result<PredId, DbError> {
        let clauses = expand_clauses(catalog, &source, &HashSet::new())?;
        let pred = catalog.define_derived(name, signature, clauses)?;
        let shape = Shape {
            source,
            condition: true,
            kept: Vec::new(),
        };
        self.shaped.insert(pred, shape);
        Ok(pred)
    }

    /// Forget a dropped rule's condition and free its name.
    pub(crate) fn retire(&mut self, catalog: &mut Catalog, condition: PredId) {
        self.shaped.remove(&condition);
        catalog.retire(condition);
    }

    /// Give every predicate the shape that `active`, the conditions the
    /// network will monitor, calls for. Only predicates whose shape
    /// changes are expanded again.
    pub(crate) fn reshape(
        &mut self,
        catalog: &mut Catalog,
        active: &[PredId],
    ) -> Result<Undo, DbError> {
        let shared = self.shared(catalog, active);
        let mut undo = Undo::new();
        // A function that stops being shared gets its source back
        // first: the callers reshaped below inline it.
        let leaving: Vec<PredId> = (self.shaped.iter())
            .filter(|(p, s)| !s.condition && !shared.contains(p))
            .map(|(&p, _)| p)
            .collect();
        for p in leaving {
            let shape = self.shaped.remove(&p).expect("listed above");
            let old = install(catalog, p, shape.source.clone())?;
            undo.push((p, old, Some(shape)));
        }
        let none = HashSet::new();
        let mut targets: Vec<PredId> = (self.shaped.iter())
            .filter(|(_, s)| s.condition)
            .map(|(&p, _)| p)
            .chain(shared.iter().copied())
            .collect();
        targets.sort();
        for p in targets {
            let condition = self.shaped.get(&p).is_some_and(|s| s.condition);
            let (keep, kept, expands) = match condition && !active.contains(&p) {
                true => (&none, Vec::new(), true),
                false => {
                    let (kept, expands) = self.kept_calls(catalog, p, &shared);
                    (&shared, kept, expands)
                }
            };
            let want = (condition || expands).then_some(kept);
            if want.as_ref() == self.shaped.get(&p).map(|s| &s.kept) {
                continue;
            }
            let source = self.source(catalog, p).to_vec();
            let (clauses, shape) = match want {
                Some(kept) => {
                    let clauses = expand_clauses(catalog, &source, keep)?;
                    let shape = Shape {
                        source,
                        condition,
                        kept,
                    };
                    (clauses, self.shaped.insert(p, shape))
                }
                None => (source, self.shaped.remove(&p)),
            };
            let old = install(catalog, p, clauses)?;
            undo.push((p, old, shape));
        }
        Ok(undo)
    }

    /// Put back what a [`reshape`](Self::reshape) replaced.
    pub(crate) fn restore(&mut self, catalog: &mut Catalog, undo: Undo) {
        for (p, clauses, shape) in undo.into_iter().rev() {
            install(catalog, p, clauses).expect("the catalog held these clauses");
            match shape {
                Some(shape) => self.shaped.insert(p, shape),
                None => self.shaped.remove(&p),
            };
        }
    }

    /// The clauses `p` was defined with.
    fn source<'c>(&'c self, catalog: &'c Catalog, p: PredId) -> &'c [Clause] {
        match self.shaped.get(&p) {
            Some(shape) => &shape.source,
            None => catalog.def(p).clauses().unwrap_or_default(),
        }
    }

    /// The derived functions that two or more network nodes call when
    /// `roots` are the monitored conditions. Callers are decided before
    /// their callees (reverse post-order of the call graph), so each
    /// function's callers are known nodes: a caller that is a node
    /// counts as itself, one expanded away counts as its own caller.
    fn shared(&self, catalog: &Catalog, roots: &[PredId]) -> HashSet<PredId> {
        let mut called_by: HashMap<PredId, Vec<(PredId, bool)>> = HashMap::new();
        let mut recursive = HashSet::new();
        let mut post = Vec::new();
        let mut seen = HashSet::new();
        let mut stack: Vec<(PredId, bool)> = roots.iter().map(|&r| (r, false)).collect();
        while let Some((p, done)) = stack.pop() {
            if done {
                post.push(p);
                continue;
            }
            if !seen.insert(p) {
                continue;
            }
            stack.push((p, true));
            for (q, negated) in derived_calls(catalog, self.source(catalog, p)) {
                if q == p {
                    recursive.insert(p);
                } else {
                    called_by.entry(q).or_default().push((p, negated));
                    stack.push((q, false));
                }
            }
        }
        let mut callers: HashMap<PredId, BTreeSet<PredId>> =
            roots.iter().map(|&r| (r, BTreeSet::from([r]))).collect();
        let mut shared = HashSet::new();
        for &p in post.iter().rev() {
            if callers.contains_key(&p) || recursive.contains(&p) {
                continue;
            }
            let (mut of, mut positive) = (BTreeSet::new(), false);
            for (q, negated) in called_by.get(&p).into_iter().flatten() {
                if let Some(c) = callers.get(q) {
                    of.extend(c.iter().copied());
                    positive |= !negated;
                }
            }
            if of.len() >= 2 {
                shared.insert(p);
                callers.insert(p, BTreeSet::from([p]));
            } else if positive {
                callers.insert(p, of);
            }
        }
        shared
    }

    /// The calls that expanding `p`'s source around `keep` leaves to
    /// members of `keep`, sorted, and whether it expands any call.
    fn kept_calls(
        &self,
        catalog: &Catalog,
        p: PredId,
        keep: &HashSet<PredId>,
    ) -> (Vec<PredId>, bool) {
        let (mut kept, mut expands) = (BTreeSet::new(), false);
        let mut seen = HashSet::new();
        let mut stack = vec![p];
        while let Some(q) = stack.pop() {
            for (r, negated) in derived_calls(catalog, self.source(catalog, q)) {
                if negated || catalog.is_self_recursive(r) {
                    continue;
                }
                if keep.contains(&r) {
                    kept.insert(r);
                } else {
                    expands = true;
                    if seen.insert(r) {
                        stack.push(r);
                    }
                }
            }
        }
        (kept.into_iter().collect(), expands)
    }
}

/// The derived predicates `clauses` call, each with whether the call is
/// negated.
fn derived_calls<'c>(
    catalog: &'c Catalog,
    clauses: &'c [Clause],
) -> impl Iterator<Item = (PredId, bool)> + 'c {
    clauses
        .iter()
        .flat_map(|c| &c.body)
        .filter_map(move |lit| match lit {
            Literal::Pred { pred, negated, .. }
                if matches!(catalog.def(*pred).kind, PredKind::Derived(_)) =>
            {
                Some((*pred, *negated))
            }
            _ => None,
        })
}

/// Replace `p`'s clauses, returning the ones it had.
fn install(catalog: &mut Catalog, p: PredId, clauses: Vec<Clause>) -> Result<Vec<Clause>, DbError> {
    let old = catalog.def(p).clauses().unwrap_or_default().to_vec();
    catalog.replace_clauses(p, clauses)?;
    Ok(old)
}
