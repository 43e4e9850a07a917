//! Conformance verification of a compiled propagation network.
//!
//! The network builder is trusted code, but the calculus it implements
//! has sharp invariants that are easy to break silently while refactoring
//! — a dropped differential loses updates, a duplicated one double-counts
//! contributions into the Δ-sets, and a bad level breaks the
//! breadth-first precondition for old-state rollback. This module
//! re-derives, from the catalog alone, what the paper's equations say
//! the network must contain and diffs the compiled artifact against it:
//!
//! * **edge completeness** — exactly one differential per (affected,
//!   influent occurrence, seed polarity) the calculus requires — both
//!   polarities for every occurrence — minus those the static L004
//!   pruning pass is entitled to drop; nothing extra, nothing doubled;
//! * **substitution fidelity** — each differential's clause and output
//!   polarity equal the §4.3–§4.5 substitution recomputed from source;
//! * **monotone levels** — every node sits at its catalog stratum and
//!   no differential edge goes downward (level-preserving edges are
//!   legal only for the semi-naive fixpoint inside a recursive SCC),
//!   so the wave-front processes all of a node's in-edges before its
//!   out-edges fire.
//!
//! The engine runs this after every `build_network` during `activate`
//! and refuses to install rules over a non-conforming network. A
//! builder-mutation test corrupts networks through the `testing_*` hooks
//! and asserts each corruption is rejected with a distinct violation.

use std::collections::{HashMap, HashSet};
use std::fmt;

use amos_objectlog::catalog::{Catalog, PredId, PredKind};
use amos_objectlog::clause::Literal;
use amos_storage::{Polarity, Storage};

use crate::differ::differenced_clause;
use crate::network::PropagationNetwork;

/// One way a compiled network can fail to conform to the calculus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A predicate reachable from a condition has no node.
    MissingNode {
        /// The absent predicate.
        pred: String,
    },
    /// A required differential was not emitted (and no pruning pass is
    /// entitled to drop it).
    MissingDifferential {
        /// Display name of the absent differential.
        name: String,
        /// Source clause index within the affected predicate.
        clause_index: usize,
        /// Substituted literal index within that clause.
        literal_index: usize,
    },
    /// The same (affected, occurrence, seed) differential appears more
    /// than once — a double-counted contribution path.
    DuplicateDifferential {
        /// Display name of the doubled differential.
        name: String,
        /// How many copies were found.
        count: usize,
    },
    /// A differential exists that the calculus does not call for.
    SpuriousDifferential {
        /// Display name of the extra differential.
        name: String,
    },
    /// A differential's clause or output polarity differs from the
    /// substitution recomputed from the source clause.
    SubstitutionMismatch {
        /// Display name of the mismatching differential.
        name: String,
    },
    /// A node's level is not its catalog stratum.
    BadLevel {
        /// The node's predicate.
        pred: String,
        /// The stratum the catalog assigns.
        expected: usize,
        /// The level recorded in the network.
        found: usize,
    },
    /// A differential edge goes downward in level (upward and — for
    /// recursive SCCs — level-preserving edges are the only legal
    /// shapes).
    NonMonotoneEdge {
        /// Display name of the offending differential.
        name: String,
        /// Level of the influent (source) node.
        from: usize,
        /// Level of the affected (target) node.
        to: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingNode { pred } => {
                write!(
                    f,
                    "conformance: reachable predicate {pred} has no network node"
                )
            }
            Violation::MissingDifferential {
                name,
                clause_index,
                literal_index,
            } => write!(
                f,
                "conformance: required differential {name} (clause {clause_index}, \
                 literal {literal_index}) was not emitted"
            ),
            Violation::DuplicateDifferential { name, count } => write!(
                f,
                "conformance: differential {name} emitted {count} times — \
                 contributions would be double-counted"
            ),
            Violation::SpuriousDifferential { name } => {
                write!(
                    f,
                    "conformance: differential {name} is not called for by the calculus"
                )
            }
            Violation::SubstitutionMismatch { name } => write!(
                f,
                "conformance: differential {name} does not match the §4.3–§4.5 \
                 substitution of its source clause"
            ),
            Violation::BadLevel {
                pred,
                expected,
                found,
            } => write!(
                f,
                "conformance: node {pred} at level {found}, but its stratum is {expected}"
            ),
            Violation::NonMonotoneEdge { name, from, to } => write!(
                f,
                "conformance: differential {name} runs downward from level {from} to \
                 level {to} — the wave-front cannot revisit a finished level"
            ),
        }
    }
}

/// Statically check `net` against the calculus. Returns every
/// violation found — empty means the network conforms.
pub fn verify_network(
    catalog: &Catalog,
    storage: &Storage,
    net: &PropagationNetwork,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Reachability: every predicate a condition depends on needs a node
    // at its catalog stratum.
    let mut reachable: HashSet<PredId> = HashSet::new();
    let mut stack: Vec<PredId> = net.conditions().to_vec();
    while let Some(p) = stack.pop() {
        if !reachable.insert(p) {
            continue;
        }
        stack.extend(catalog.direct_influents(p));
    }
    for &pred in &reachable {
        let Some(node) = net.node_of(pred) else {
            violations.push(Violation::MissingNode {
                pred: catalog.name(pred).to_string(),
            });
            continue;
        };
        if let Ok(stratum) = catalog.stratum(pred) {
            if node.level != stratum {
                violations.push(Violation::BadLevel {
                    pred: catalog.name(pred).to_string(),
                    expected: stratum,
                    found: node.level,
                });
            }
        }
    }

    // Re-derive the required differential set. A required edge is keyed
    // by (affected, influent, seed, clause, literal); the value carries
    // the substituted clause so fidelity can be checked.
    type Key = (PredId, PredId, Polarity, usize, usize);
    let node_preds: HashSet<PredId> = net.nodes().iter().map(|n| n.pred).collect();
    let mut required: HashMap<Key, amos_objectlog::clause::Clause> = HashMap::new();
    for node in net.nodes() {
        let affected = node.pred;
        if !matches!(catalog.def(affected).kind, PredKind::Derived(_)) {
            continue;
        }
        let Some(clauses) = catalog.def(affected).clauses() else {
            continue;
        };
        for (ci, clause) in clauses.iter().enumerate() {
            for (li, lit) in clause.body.iter().enumerate() {
                let Literal::Pred { pred, .. } = lit else {
                    continue;
                };
                if !node_preds.contains(pred) {
                    continue;
                }
                for seed in [Polarity::Plus, Polarity::Minus] {
                    let (dclause, _output) = differenced_clause(clause, li, seed)
                        .expect("literal is a relation occurrence");
                    // Mirror the builder's pruning entitlements: a pruned
                    // differential is neither required nor spurious.
                    let dead_minus = seed == Polarity::Minus
                        && catalog
                            .def(*pred)
                            .stored_rel()
                            .is_some_and(|rel| storage.is_append_only(rel));
                    if dead_minus || amos_lint::clause_statically_false(&dclause) {
                        continue;
                    }
                    required.insert((affected, *pred, seed, ci, li), dclause);
                }
            }
        }
    }

    // Index the compiled differentials by the same key.
    let mut found: HashMap<Key, Vec<usize>> = HashMap::new();
    for (idx, d) in net.differentials().iter().enumerate() {
        found
            .entry((
                d.affected,
                d.influent,
                d.seed,
                d.clause_index,
                d.literal_index,
            ))
            .or_default()
            .push(idx);
    }

    for (key, dclause) in &required {
        let &(affected, influent, seed, ci, li) = key;
        let name = format!(
            "Δ{}/{}{}",
            catalog.name(affected),
            seed,
            catalog.name(influent)
        );
        match found.get(key).map(Vec::as_slice) {
            None | Some([]) => violations.push(Violation::MissingDifferential {
                name,
                clause_index: ci,
                literal_index: li,
            }),
            Some(idxs) => {
                if idxs.len() > 1 {
                    violations.push(Violation::DuplicateDifferential {
                        name: name.clone(),
                        count: idxs.len(),
                    });
                }
                for &idx in idxs {
                    let d = &net.differentials()[idx];
                    let expected_output =
                        differenced_clause(&catalog.def(affected).clauses().unwrap()[ci], li, seed)
                            .unwrap()
                            .1;
                    if d.clause != *dclause || d.output != expected_output {
                        violations.push(Violation::SubstitutionMismatch { name: name.clone() });
                    }
                }
            }
        }
    }

    for (key, idxs) in &found {
        if !required.contains_key(key) {
            for _ in idxs {
                let &(affected, influent, seed, ..) = key;
                violations.push(Violation::SpuriousDifferential {
                    name: format!(
                        "Δ{}/{}{}",
                        catalog.name(affected),
                        seed,
                        catalog.name(influent)
                    ),
                });
            }
        }
    }

    // Edge monotonicity over the levels the network records. Equal
    // levels are legal exactly within a recursive SCC (a linear
    // self-differential like Δreach/Δ+reach re-enters its own stratum
    // for the semi-naive fixpoint); strata are otherwise strictly
    // increasing along dependencies, and a *wrong* equal level is still
    // caught by the `BadLevel` comparison against the catalog.
    for d in net.differentials() {
        let (Some(from), Some(to)) = (net.node_of(d.influent), net.node_of(d.affected)) else {
            continue; // already reported as MissingNode
        };
        if from.level > to.level {
            violations.push(Violation::NonMonotoneEdge {
                name: d.display_name(catalog),
                from: from.level,
                to: to.level,
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_types::{CmpOp, TypeId};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    /// A freshly built network conforms.
    #[test]
    fn fresh_network_conforms() {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), rq, 1).unwrap();
        let r = cat.define_stored("r", sig(2), rr, 1).unwrap();
        let cnd = cat
            .define_derived(
                "cnd",
                sig(1),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(1), Term::var(2)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
                    .build()],
            )
            .unwrap();
        let net = PropagationNetwork::build(&cat, &mut storage, &[cnd]).unwrap();
        assert_eq!(verify_network(&cat, &storage, &net), Vec::new());
    }
}
