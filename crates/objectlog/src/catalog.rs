//! The predicate catalog.
//!
//! Every AMOSQL function becomes a predicate:
//!
//! * **stored** functions (`create function quantity(item) -> integer;`)
//!   become facts — a base relation in [`amos_storage::Storage`];
//! * **derived** functions (`create function threshold(item) -> integer
//!   as select …`) become Horn clauses.
//!
//! Stored-function metadata records the *key arity* — how many leading
//! columns form the argument part of the function — so `set f(args…) =
//! value` can emit the delete-then-insert physical event sequence of
//! §4.1.

use std::collections::HashMap;
use std::fmt;

use amos_storage::RelId;
use amos_types::TypeId;

use crate::clause::{Clause, Literal};
use crate::error::ObjectLogError;

/// Identifier of a predicate in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

/// How a predicate is implemented.
#[derive(Clone)]
pub enum PredKind {
    /// Facts in a base relation.
    Stored {
        /// Backing relation.
        rel: RelId,
        /// Number of leading key (argument) columns for `set` updates.
        key_arity: usize,
    },
    /// A disjunction of Horn clauses.
    Derived(Vec<Clause>),
}

impl fmt::Debug for PredKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredKind::Stored { rel, key_arity } => f
                .debug_struct("Stored")
                .field("rel", rel)
                .field("key_arity", key_arity)
                .finish(),
            PredKind::Derived(cs) => f.debug_tuple("Derived").field(&cs.len()).finish(),
        }
    }
}

/// A predicate definition.
#[derive(Debug, Clone)]
pub struct PredDef {
    /// Unique id.
    pub id: PredId,
    /// Name, e.g. `quantity` or `cnd_monitor_items`.
    pub name: String,
    /// Number of columns (function arguments + result columns).
    pub arity: usize,
    /// Declared column types (informational; used by the AMOSQL layer).
    pub signature: Vec<TypeId>,
    /// Implementation.
    pub kind: PredKind,
}

impl PredDef {
    /// Whether this predicate is stored (a base relation).
    pub fn is_stored(&self) -> bool {
        matches!(self.kind, PredKind::Stored { .. })
    }

    /// The backing relation, if stored.
    pub fn stored_rel(&self) -> Option<RelId> {
        match self.kind {
            PredKind::Stored { rel, .. } => Some(rel),
            _ => None,
        }
    }

    /// The clauses, if derived.
    pub fn clauses(&self) -> Option<&[Clause]> {
        match &self.kind {
            PredKind::Derived(cs) => Some(cs),
            _ => None,
        }
    }
}

/// The catalog of predicates.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    preds: Vec<PredDef>,
    by_name: HashMap<String, PredId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    fn register(
        &mut self,
        name: &str,
        arity: usize,
        signature: Vec<TypeId>,
        kind: PredKind,
    ) -> Result<PredId, ObjectLogError> {
        if self.by_name.contains_key(name) {
            return Err(ObjectLogError::DuplicatePredicate(name.to_string()));
        }
        let id = PredId(self.preds.len() as u32);
        self.preds.push(PredDef {
            id,
            name: name.to_string(),
            arity,
            signature,
            kind,
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Register a stored predicate backed by `rel`.
    pub fn define_stored(
        &mut self,
        name: &str,
        signature: Vec<TypeId>,
        rel: RelId,
        key_arity: usize,
    ) -> Result<PredId, ObjectLogError> {
        let arity = signature.len();
        self.register(name, arity, signature, PredKind::Stored { rel, key_arity })
    }

    /// Register a derived predicate with its clauses. Every clause must
    /// be safe (range-restricted) and have a head matching the arity.
    pub fn define_derived(
        &mut self,
        name: &str,
        signature: Vec<TypeId>,
        clauses: Vec<Clause>,
    ) -> Result<PredId, ObjectLogError> {
        let arity = signature.len();
        for c in &clauses {
            if c.head.len() != arity {
                return Err(ObjectLogError::HeadArityMismatch {
                    pred: name.to_string(),
                    expected: arity,
                    found: c.head.len(),
                });
            }
            if let Some(v) = c.unsafe_var() {
                return Err(ObjectLogError::UnsafeClause {
                    pred: name.to_string(),
                    var: v,
                });
            }
        }
        self.register(name, arity, signature, PredKind::Derived(clauses))
    }

    /// Replace the clauses of an existing derived predicate (used by the
    /// expansion machinery and to close the knot for **recursive**
    /// definitions: declare with empty clauses, then install bodies that
    /// reference the predicate's own id).
    ///
    /// Validates head arity, range restriction, and — for
    /// self-referencing clauses — *linearity*: at most one positive
    /// self-literal per clause (the §5 note's "linear recursion";
    /// negated self-reference is non-stratifiable and rejected).
    pub fn replace_clauses(
        &mut self,
        id: PredId,
        clauses: Vec<Clause>,
    ) -> Result<(), ObjectLogError> {
        let (name, arity) = {
            let def = self.def(id);
            (def.name.clone(), def.arity)
        };
        for c in &clauses {
            if c.head.len() != arity {
                return Err(ObjectLogError::HeadArityMismatch {
                    pred: name.clone(),
                    expected: arity,
                    found: c.head.len(),
                });
            }
            if let Some(v) = c.unsafe_var() {
                return Err(ObjectLogError::UnsafeClause {
                    pred: name.clone(),
                    var: v,
                });
            }
            let mut self_refs = 0;
            for lit in &c.body {
                if let Literal::Pred { pred, negated, .. } = lit {
                    if *pred == id {
                        if *negated {
                            return Err(ObjectLogError::RecursivePredicate(format!(
                                "{name} (negated self-reference)"
                            )));
                        }
                        self_refs += 1;
                    }
                }
            }
            if self_refs > 1 {
                return Err(ObjectLogError::RecursivePredicate(format!(
                    "{name} (non-linear: {self_refs} self-literals in one clause)"
                )));
            }
        }
        let def = &mut self.preds[id.0 as usize];
        match &mut def.kind {
            PredKind::Derived(cs) => {
                *cs = clauses;
                Ok(())
            }
            _ => Err(ObjectLogError::NotDerived(def.name.clone())),
        }
    }

    /// Retire a derived predicate (a dropped rule's condition): its name
    /// is free for a new definition of any arity, and its clauses are
    /// emptied. The id stays allocated, so every other id stays stable.
    pub fn retire(&mut self, id: PredId) {
        let def = &mut self.preds[id.0 as usize];
        if let PredKind::Derived(cs) = &mut def.kind {
            cs.clear();
            self.by_name.remove(&def.name);
        }
    }

    /// Whether a derived predicate references itself (linear recursion).
    pub fn is_self_recursive(&self, id: PredId) -> bool {
        self.direct_influents(id).contains(&id)
    }

    /// Look up a predicate by name.
    pub fn lookup(&self, name: &str) -> Result<PredId, ObjectLogError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ObjectLogError::UnknownPredicate(name.to_string()))
    }

    /// The definition of a predicate.
    pub fn def(&self, id: PredId) -> &PredDef {
        &self.preds[id.0 as usize]
    }

    /// The name of a predicate.
    pub fn name(&self, id: PredId) -> &str {
        &self.def(id).name
    }

    /// All predicates, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &PredDef> {
        self.preds.iter()
    }

    /// The direct *influents* of a predicate: the predicates referenced
    /// by its clause bodies (paper fig. 1 edges). Stored predicates have
    /// none.
    pub fn direct_influents(&self, id: PredId) -> Vec<PredId> {
        let mut out = Vec::new();
        if let PredKind::Derived(clauses) = &self.def(id).kind {
            for c in clauses {
                for lit in &c.body {
                    if let Some(p) = lit.pred() {
                        if !out.contains(&p) {
                            out.push(p);
                        }
                    }
                }
            }
        }
        out
    }

    /// The transitive set of *stored* predicates a predicate depends on —
    /// the base-relation influents that must be monitored when a rule on
    /// this predicate is activated.
    pub fn stored_influents(&self, id: PredId) -> Vec<PredId> {
        let mut seen = Vec::new();
        let mut stack = vec![id];
        let mut out = Vec::new();
        while let Some(p) = stack.pop() {
            if seen.contains(&p) {
                continue;
            }
            seen.push(p);
            match &self.def(p).kind {
                PredKind::Stored { .. } => {
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
                PredKind::Derived(_) => stack.extend(self.direct_influents(p)),
            }
        }
        out.sort();
        out
    }

    /// The *stratum* of a predicate: 0 for stored, 1 + max of
    /// influent strata for derived. Drives the breadth-first bottom-up
    /// level order of the propagation algorithm (§5).
    ///
    /// Returns an error on recursive definitions — the paper's algorithm
    /// "assumes that there are no loops in the network".
    ///
    /// Iterative (explicit DFS frames + memo): derived chains can be
    /// tens of thousands deep and a recursive walk would overflow the
    /// 2 MiB default thread stack.
    pub fn stratum(&self, id: PredId) -> Result<usize, ObjectLogError> {
        use std::collections::HashSet;
        if !matches!(self.def(id).kind, PredKind::Derived(_)) {
            return Ok(0);
        }
        let mut memo: HashMap<PredId, usize> = HashMap::new();
        let mut on_path: HashSet<PredId> = HashSet::new();
        // Frame: (pred, direct influents, next influent, level so far).
        let mut frames: Vec<(PredId, Vec<PredId>, usize, usize)> = Vec::new();
        on_path.insert(id);
        frames.push((id, self.direct_influents(id), 0, 0));
        loop {
            let top = frames.len() - 1;
            let p = frames[top].0;
            if frames[top].2 < frames[top].1.len() {
                let dep = frames[top].1[frames[top].2];
                frames[top].2 += 1;
                // Direct self-recursion contributes no height (the
                // fixpoint stays within the node); longer cycles
                // (mutual recursion) remain unsupported.
                if dep == p {
                    continue;
                }
                if let Some(&l) = memo.get(&dep) {
                    frames[top].3 = frames[top].3.max(l + 1);
                    continue;
                }
                if !matches!(self.def(dep).kind, PredKind::Derived(_)) {
                    frames[top].3 = frames[top].3.max(1);
                    continue;
                }
                if on_path.contains(&dep) {
                    return Err(ObjectLogError::RecursivePredicate(
                        self.name(dep).to_string(),
                    ));
                }
                on_path.insert(dep);
                frames.push((dep, self.direct_influents(dep), 0, 0));
            } else {
                // All influents resolved: finish this node.
                let level = frames[top].3.max(1);
                frames.pop();
                on_path.remove(&p);
                memo.insert(p, level);
                match frames.last_mut() {
                    Some(parent) => parent.3 = parent.3.max(level + 1),
                    None => return Ok(level),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::{ClauseBuilder, Term};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    #[test]
    fn define_and_lookup() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        assert_eq!(cat.lookup("q").unwrap(), q);
        assert!(cat.def(q).is_stored());
        assert!(matches!(
            cat.lookup("nope"),
            Err(ObjectLogError::UnknownPredicate(_))
        ));
        assert!(matches!(
            cat.define_stored("q", sig(2), RelId(1), 1),
            Err(ObjectLogError::DuplicatePredicate(_))
        ));
    }

    #[test]
    fn derived_safety_enforced() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        // p(X, Y) ← q(X, _) : Y unsafe
        let bad = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(1)])
            .pred(q, [Term::var(0), Term::var(2)])
            .build();
        assert!(matches!(
            cat.define_derived("p", sig(2), vec![bad]),
            Err(ObjectLogError::UnsafeClause { .. })
        ));
    }

    #[test]
    fn influents_and_strata() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        let r = cat.define_stored("r", sig(2), RelId(1), 1).unwrap();
        // mid(X,Z) ← q(X,Y) ∧ r(Y,Z)
        let mid = cat
            .define_derived(
                "mid",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();
        // top(X) ← mid(X,Z) ∧ q(Z, _)
        let top = cat
            .define_derived(
                "top",
                sig(1),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(mid, [Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();

        assert_eq!(cat.direct_influents(top), vec![mid, q]);
        assert_eq!(cat.stored_influents(top), vec![q, r]);
        assert_eq!(cat.stratum(q).unwrap(), 0);
        assert_eq!(cat.stratum(mid).unwrap(), 1);
        assert_eq!(cat.stratum(top).unwrap(), 2);
    }

    #[test]
    fn self_recursion_allowed_mutual_rejected() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        // Self (linear) recursion is supported: stratum ignores the
        // self-edge and the predicate reports as recursive.
        let p = cat
            .define_derived(
                "p",
                sig(2),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap();
        let rec = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .pred(p, [Term::var(0), Term::var(1)])
            .pred(q, [Term::var(1), Term::var(2)])
            .build();
        cat.replace_clauses(
            p,
            vec![
                ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .build(),
                rec,
            ],
        )
        .unwrap();
        assert!(cat.is_self_recursive(p));
        assert_eq!(cat.stratum(p).unwrap(), 1);

        // Mutual recursion (a → b → a) remains rejected.
        let a = cat
            .define_derived(
                "a",
                sig(2),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap();
        let b = cat
            .define_derived(
                "b",
                sig(2),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(a, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap();
        cat.replace_clauses(
            a,
            vec![ClauseBuilder::new(2)
                .head([Term::var(0), Term::var(1)])
                .pred(b, [Term::var(0), Term::var(1)])
                .build()],
        )
        .unwrap();
        assert!(matches!(
            cat.stratum(a),
            Err(ObjectLogError::RecursivePredicate(_))
        ));
    }

    #[test]
    fn stratum_survives_deep_derived_chains() {
        // Regression: the recursive walk overflowed the 2 MiB test-thread
        // stack on chains this deep; the iterative version must not.
        let mut cat = Catalog::new();
        let mut prev = cat.define_stored("d0", sig(1), RelId(0), 1).unwrap();
        const DEPTH: usize = 10_000;
        for i in 1..=DEPTH {
            prev = cat
                .define_derived(
                    &format!("d{i}"),
                    sig(1),
                    vec![ClauseBuilder::new(1)
                        .head([Term::var(0)])
                        .pred(prev, [Term::var(0)])
                        .build()],
                )
                .unwrap();
        }
        assert_eq!(cat.stratum(prev).unwrap(), DEPTH);
    }

    #[test]
    fn replace_clauses_rejects_nonlinear_and_negated_self() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        let p = cat
            .define_derived(
                "p",
                sig(2),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap();
        // Two self-literals: non-linear.
        let nonlinear = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .pred(p, [Term::var(0), Term::var(1)])
            .pred(p, [Term::var(1), Term::var(2)])
            .build();
        assert!(matches!(
            cat.replace_clauses(p, vec![nonlinear]),
            Err(ObjectLogError::RecursivePredicate(_))
        ));
        // Negated self-reference: non-stratifiable.
        let negated = ClauseBuilder::new(2)
            .head([Term::var(0), Term::var(1)])
            .pred(q, [Term::var(0), Term::var(1)])
            .not_pred(p, [Term::var(0), Term::var(1)])
            .build();
        assert!(matches!(
            cat.replace_clauses(p, vec![negated]),
            Err(ObjectLogError::RecursivePredicate(_))
        ));
    }
}
