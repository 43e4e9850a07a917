//! Generation of partial differentials from Horn clauses (§4.3–§4.5).
//!
//! For a derived predicate `P` with clause `P ← L₁ ∧ … ∧ Lₙ` and an
//! influent occurrence `Lᵢ` referencing node predicate `X`:
//!
//! * **positive** differential `ΔP/Δ₊X` — substitute `Lᵢ` with the
//!   Δ-literal `Δ₊X(args)`; all other literals evaluate in the **new**
//!   state (§4.3);
//! * **negative** differential `ΔP/Δ₋X` — substitute with `Δ₋X(args)`;
//!   all *other relation literals* evaluate in the **old** state, because
//!   "conditions that depend on deletions are actually historical queries
//!   that must be executed in the database state when the deleted data
//!   were present" (§4.4). Built-ins are state-independent and stay.
//!
//! A **negated** occurrence `¬X(args)` flips the mapping (cf. the `~Q`
//! rule `Δ(~Q) = <Δ₋Q, Δ₊Q>` of §4.5): deletions from `X` contribute
//! insertions to `P` (evaluated new) and insertions to `X` contribute
//! deletions from `P` (rest evaluated old). The substituted Δ-literal is
//! always *positive* — it binds from the Δ-set — and the negation guard
//! itself is implied: a tuple in `Δ₋X` is absent from `X_new`, one in
//! `Δ₊X` was absent from `X_old`.
//!
//! If `X` occurs several times in a body, each occurrence yields its own
//! differentials (changes through either occurrence must be seen).
//!
//! Every differential is compiled once into an index-seeded [`Plan`]; the
//! Δ-literal's zero cost puts it first, so each execution is
//! `O(|ΔX| · probes)` rather than a database-sized join.

use std::collections::HashSet;
use std::fmt;

use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{Clause, Literal};
use amos_objectlog::plan::{compile_clause, ensure_join_indexes, ensure_plan_indexes, Plan};
use amos_storage::{Polarity, StateEpoch, Storage};

use crate::error::CoreError;

/// Identifier of a differential within a propagation network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiffId(pub u32);

/// One partial differential `ΔP/Δ±X`, compiled and ready to execute.
#[derive(Debug, Clone)]
pub struct Differential {
    /// The affected predicate `P`.
    pub affected: PredId,
    /// The influent `X` whose Δ-set seeds this differential.
    pub influent: PredId,
    /// Which side of `ΔX` is consumed.
    pub seed: Polarity,
    /// Which side of `ΔP` the results feed. Equals `seed` for positive
    /// occurrences, `seed.flipped()` for negated occurrences.
    pub output: Polarity,
    /// Index of the source clause within `P`'s definition.
    pub clause_index: usize,
    /// Index of the substituted literal within that clause's body.
    pub literal_index: usize,
    /// The differential clause (body with the Δ-literal substituted).
    pub clause: Clause,
    /// The compiled, reusable plan.
    pub plan: Plan,
}

impl Differential {
    /// A readable name like `Δcnd_monitor_items/Δ+quantity`.
    pub fn display_name(&self, catalog: &Catalog) -> String {
        format!(
            "Δ{}/{}{}",
            catalog.name(self.affected),
            self.seed,
            catalog.name(self.influent)
        )
    }
}

impl fmt::Display for Differential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Δp{}/{}p{} (clause {}, literal {})",
            self.affected.0, self.seed, self.influent.0, self.clause_index, self.literal_index
        )
    }
}

/// Generate the partial differentials of `affected` with respect to every
/// occurrence of every predicate in `node_preds` (the influents that are
/// nodes of the propagation network and therefore carry Δ-sets). Every
/// occurrence gets both polarities: Δ₋ is what keeps negation, net-change
/// cancellation and the §7.2 deletion checks exact.
///
/// Plans are compiled against the current catalog; `storage` gains the
/// hash indexes the plans probe (done once, at rule activation).
pub fn generate_differentials(
    catalog: &Catalog,
    storage: &mut Storage,
    affected: PredId,
    node_preds: &HashSet<PredId>,
) -> Result<Vec<Differential>, CoreError> {
    let clauses: Vec<Clause> = catalog
        .def(affected)
        .clauses()
        .ok_or_else(|| {
            CoreError::ObjectLog(amos_objectlog::ObjectLogError::NotDerived(
                catalog.name(affected).to_string(),
            ))
        })?
        .to_vec();

    let mut out = Vec::new();
    for (ci, clause) in clauses.iter().enumerate() {
        for (li, lit) in clause.body.iter().enumerate() {
            let Literal::Pred { pred, epoch, .. } = lit else {
                continue;
            };
            if !node_preds.contains(pred) {
                continue;
            }
            debug_assert_eq!(
                *epoch,
                StateEpoch::New,
                "differencing an already-differenced clause"
            );
            for seed in [Polarity::Plus, Polarity::Minus] {
                let (dclause, output) = differenced_clause(clause, li, seed)
                    .expect("literal checked to be a relation occurrence");
                let plan = compile_clause(catalog, &dclause, &HashSet::new())?;
                ensure_plan_indexes(catalog, &plan, storage);
                // Index every probe pattern adaptive re-optimization
                // could pick at wave-front time (storage is immutable
                // there, so the indexes must exist up front).
                ensure_join_indexes(catalog, &dclause, storage);
                out.push(Differential {
                    affected,
                    influent: *pred,
                    seed,
                    output,
                    clause_index: ci,
                    literal_index: li,
                    clause: dclause,
                    plan,
                });
            }
        }
    }
    Ok(out)
}

/// The §4.3–§4.5 substitution as a pure function: replace the relation
/// occurrence at `literal_index` with a Δ-literal of polarity `seed` and
/// re-target the remaining relation literals to the epoch the output
/// polarity requires. Returns the differential clause and the output
/// polarity (`seed` for positive occurrences, flipped for negated ones),
/// or `None` if the literal is not a relation occurrence.
///
/// [`generate_differentials`] compiles its result into plans; the
/// conformance verifier (`amos_core::verify`) calls it directly to
/// reconstruct what the builder should have emitted.
pub fn differenced_clause(
    clause: &Clause,
    literal_index: usize,
    seed: Polarity,
) -> Option<(Clause, Polarity)> {
    let Literal::Pred {
        pred,
        args,
        negated,
        ..
    } = clause.body.get(literal_index)?
    else {
        return None;
    };
    // Output polarity: positive occurrence keeps the seed's polarity;
    // negation flips it.
    let output = if *negated { seed.flipped() } else { seed };
    // "Rest" epoch: insertions evaluate new, deletions old.
    let rest_epoch = match output {
        Polarity::Plus => StateEpoch::New,
        Polarity::Minus => StateEpoch::Old,
    };
    let mut body = Vec::with_capacity(clause.body.len());
    for (lj, other) in clause.body.iter().enumerate() {
        if lj == literal_index {
            body.push(Literal::Delta {
                pred: *pred,
                polarity: seed,
                args: args.clone(),
            });
        } else {
            body.push(retarget(other, rest_epoch));
        }
    }
    Some((
        Clause {
            n_vars: clause.n_vars,
            head: clause.head.clone(),
            body,
        },
        output,
    ))
}

/// Re-annotate a literal with the epoch the differential requires.
/// Only relation (predicate) literals carry state; built-ins pass
/// through. Δ-literals never appear in source clauses.
fn retarget(lit: &Literal, epoch: StateEpoch) -> Literal {
    match lit {
        Literal::Pred {
            pred,
            args,
            negated,
            ..
        } => Literal::Pred {
            pred: *pred,
            args: args.clone(),
            negated: *negated,
            epoch,
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_objectlog::plan::PlanStep;
    use amos_types::TypeId;

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    struct Fix {
        storage: Storage,
        catalog: Catalog,
        q: PredId,
        r: PredId,
        p: PredId,
    }

    /// p(X,Z) ← q(X,Y) ∧ r(Y,Z)
    fn fixture() -> Fix {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
        let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();
        let p = catalog
            .define_derived(
                "p",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();
        Fix {
            storage,
            catalog,
            q,
            r,
            p,
        }
    }

    #[test]
    fn four_differentials_for_two_influents() {
        let mut f = fixture();
        let nodes: HashSet<PredId> = [f.q, f.r].into_iter().collect();
        let diffs = generate_differentials(&f.catalog, &mut f.storage, f.p, &nodes).unwrap();
        assert_eq!(diffs.len(), 4);
        let names: Vec<String> = diffs.iter().map(|d| d.display_name(&f.catalog)).collect();
        assert!(names.contains(&"Δp/Δ+q".to_string()));
        assert!(names.contains(&"Δp/Δ-q".to_string()));
        assert!(names.contains(&"Δp/Δ+r".to_string()));
        assert!(names.contains(&"Δp/Δ-r".to_string()));
    }

    #[test]
    fn negative_differential_evaluates_rest_old() {
        let mut f = fixture();
        let nodes: HashSet<PredId> = [f.q, f.r].into_iter().collect();
        let diffs = generate_differentials(&f.catalog, &mut f.storage, f.p, &nodes).unwrap();
        let dminus_r = diffs
            .iter()
            .find(|d| d.influent == f.r && d.seed == Polarity::Minus)
            .unwrap();
        // Its q literal must be old-state — the §4.4 q_old.
        let q_lit = dminus_r
            .clause
            .body
            .iter()
            .find(|l| matches!(l, Literal::Pred { pred, .. } if *pred == f.q))
            .unwrap();
        assert!(matches!(
            q_lit,
            Literal::Pred {
                epoch: StateEpoch::Old,
                ..
            }
        ));
        // Positive differential keeps q in the new state.
        let dplus_r = diffs
            .iter()
            .find(|d| d.influent == f.r && d.seed == Polarity::Plus)
            .unwrap();
        let q_lit = dplus_r
            .clause
            .body
            .iter()
            .find(|l| matches!(l, Literal::Pred { pred, .. } if *pred == f.q))
            .unwrap();
        assert!(matches!(
            q_lit,
            Literal::Pred {
                epoch: StateEpoch::New,
                ..
            }
        ));
    }

    #[test]
    fn plans_are_delta_seeded() {
        let mut f = fixture();
        let nodes: HashSet<PredId> = [f.q, f.r].into_iter().collect();
        let diffs = generate_differentials(&f.catalog, &mut f.storage, f.p, &nodes).unwrap();
        for d in &diffs {
            assert!(
                matches!(d.plan.steps[0], PlanStep::Delta { .. }),
                "differential {} must start with its Δ-scan",
                d.display_name(&f.catalog)
            );
        }
        // Index on r.0 (probe from Δq) and q.1 (probe from Δr) exist.
        let rr = f.catalog.def(f.r).stored_rel().unwrap();
        let rq = f.catalog.def(f.q).stored_rel().unwrap();
        assert!(f.storage.relation(rr).has_index(&[0]));
        assert!(f.storage.relation(rq).has_index(&[1]));
    }

    #[test]
    fn negated_occurrence_flips_polarity() {
        let mut f = fixture();
        // s(X) ← q(X,Y) ∧ ¬r(X,Y)
        let s = f
            .catalog
            .define_derived(
                "s",
                sig(1),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(f.q, [Term::var(0), Term::var(1)])
                    .not_pred(f.r, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap();
        let nodes: HashSet<PredId> = [f.q, f.r].into_iter().collect();
        let diffs = generate_differentials(&f.catalog, &mut f.storage, s, &nodes).unwrap();
        assert_eq!(diffs.len(), 4);
        let r_diffs: Vec<_> = diffs.iter().filter(|d| d.influent == f.r).collect();
        for d in r_diffs {
            assert_eq!(d.output, d.seed.flipped(), "negation flips polarity");
        }
        // Deletions from r (seed −) insert into s (output +) → rest new.
        let d = diffs
            .iter()
            .find(|d| d.influent == f.r && d.seed == Polarity::Minus)
            .unwrap();
        let q_lit = d
            .clause
            .body
            .iter()
            .find(|l| matches!(l, Literal::Pred { pred, .. } if *pred == f.q))
            .unwrap();
        assert!(matches!(
            q_lit,
            Literal::Pred {
                epoch: StateEpoch::New,
                ..
            }
        ));
    }

    #[test]
    fn repeated_influent_occurrences_each_differenced() {
        let mut f = fixture();
        // self_join(X,Z) ← q(X,Y) ∧ q(Y,Z)
        let sj = f
            .catalog
            .define_derived(
                "self_join",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(f.q, [Term::var(0), Term::var(1)])
                    .pred(f.q, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();
        let nodes: HashSet<PredId> = [f.q].into_iter().collect();
        let diffs = generate_differentials(&f.catalog, &mut f.storage, sj, &nodes).unwrap();
        // two occurrences × two polarities
        assert_eq!(diffs.len(), 4);
        let lits: HashSet<usize> = diffs.iter().map(|d| d.literal_index).collect();
        assert_eq!(lits, [0usize, 1].into_iter().collect());
    }
}
