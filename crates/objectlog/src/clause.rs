//! Horn clauses, literals, and terms.
//!
//! A derived predicate is defined by one or more clauses (several clauses
//! form a disjunction). Clause bodies are conjunctions of literals:
//!
//! * predicate literals, positive or negated, each annotated with the
//!   [`StateEpoch`] it must be evaluated in (`Old` literals implement the
//!   `q_old`/`r_old` of negative partial differentials, §4.4);
//! * Δ-literals reading one side of an influent's Δ-set — these appear
//!   only in compiler-generated partial differentials;
//! * comparison, arithmetic, and unification built-ins (the `_G1 < _G2`,
//!   `_G4 = _G1 * _G3` goals of the paper's ObjectLog listings).
//!
//! Variables are clause-local indices; [`ClauseBuilder`] offers a
//! readable way to construct clauses in tests and in the AMOSQL
//! compiler.

use std::fmt;

use amos_storage::{Polarity, StateEpoch};
use amos_types::{ArithOp, CmpOp, Value};

use crate::catalog::PredId;

/// A clause-local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_G{}", self.0)
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A clause-local variable.
    Var(Var),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(i: u32) -> Term {
        Term::Var(Var(i))
    }

    /// Shorthand for a constant term.
    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A predicate literal `p(args…)` or `¬p(args…)`, evaluated in the
    /// given state epoch (old-state literals appear in negative partial
    /// differentials).
    Pred {
        /// The referenced predicate.
        pred: PredId,
        /// Argument terms, one per predicate column.
        args: Vec<Term>,
        /// Negation-as-failure; all variables must be bound by the time
        /// a negated literal is scheduled (safety).
        negated: bool,
        /// Which database state to evaluate against.
        epoch: StateEpoch,
    },
    /// A Δ-literal `Δ₊p(args…)` / `Δ₋p(args…)` reading one side of a
    /// Δ-set during propagation. Generated only by the rule compiler.
    Delta {
        /// The influent predicate whose Δ-set is read.
        pred: PredId,
        /// Which side of the Δ-set.
        polarity: Polarity,
        /// Argument terms.
        args: Vec<Term>,
    },
    /// `lhs op rhs` — both sides must be bound when scheduled.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
    },
    /// `result = lhs op rhs` — operands must be bound; `result` binds or
    /// tests.
    Arith {
        /// Arithmetic operator.
        op: ArithOp,
        /// Result term (bound: equality test; unbound var: binds).
        result: Term,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
    },
    /// `lhs = rhs` unification: if one side is an unbound variable it is
    /// bound to the other side's value; if both bound, equality test.
    Unify {
        /// Left term.
        lhs: Term,
        /// Right term.
        rhs: Term,
    },
}

impl Literal {
    /// All terms mentioned by this literal.
    pub fn terms(&self) -> Vec<&Term> {
        match self {
            Literal::Pred { args, .. } | Literal::Delta { args, .. } => args.iter().collect(),
            Literal::Cmp { lhs, rhs, .. } | Literal::Unify { lhs, rhs } => vec![lhs, rhs],
            Literal::Arith {
                result, lhs, rhs, ..
            } => vec![result, lhs, rhs],
        }
    }

    /// All variables mentioned by this literal.
    pub fn vars(&self) -> Vec<Var> {
        self.terms().into_iter().filter_map(Term::as_var).collect()
    }

    /// The predicate this literal references, if any.
    pub fn pred(&self) -> Option<PredId> {
        match self {
            Literal::Pred { pred, .. } | Literal::Delta { pred, .. } => Some(*pred),
            _ => None,
        }
    }
}

/// A Horn clause: `head(head_terms…) ← body₁ ∧ … ∧ bodyₙ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// Number of distinct variables used (variables are `0..n_vars`).
    pub n_vars: u32,
    /// Head argument terms, one per predicate column.
    pub head: Vec<Term>,
    /// Conjunctive body.
    pub body: Vec<Literal>,
}

impl Clause {
    /// Allocate a fresh variable (increasing `n_vars`).
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// All head variables (ignoring constant head terms).
    pub fn head_vars(&self) -> Vec<Var> {
        self.head.iter().filter_map(Term::as_var).collect()
    }

    /// Check *range restriction* (safety): every head variable, and every
    /// variable of a negated or built-in literal, must be bindable from
    /// some positive predicate/Δ literal. Returns the offending variable
    /// if unsafe.
    pub fn unsafe_var(&self) -> Option<Var> {
        use std::collections::HashSet;
        let mut bindable: HashSet<Var> = HashSet::new();
        for lit in &self.body {
            match lit {
                Literal::Pred { negated: false, .. } | Literal::Delta { .. } => {
                    bindable.extend(lit.vars());
                }
                // Arith/Unify can bind their result/one side.
                Literal::Arith { result, .. } => {
                    bindable.extend(result.as_var());
                }
                Literal::Unify { lhs, rhs } => {
                    bindable.extend(lhs.as_var());
                    bindable.extend(rhs.as_var());
                }
                _ => {}
            }
        }
        for v in self.head_vars() {
            if !bindable.contains(&v) {
                return Some(v);
            }
        }
        for lit in &self.body {
            match lit {
                Literal::Pred { negated: true, .. } => {
                    for v in lit.vars() {
                        if !bindable.contains(&v) {
                            return Some(v);
                        }
                    }
                }
                // Comparison operands and arithmetic inputs must be
                // bindable too, or the plan can never schedule them.
                Literal::Cmp { lhs, rhs, .. } => {
                    for v in [lhs, rhs].into_iter().filter_map(Term::as_var) {
                        if !bindable.contains(&v) {
                            return Some(v);
                        }
                    }
                }
                Literal::Arith { lhs, rhs, .. } => {
                    for v in [lhs, rhs].into_iter().filter_map(Term::as_var) {
                        if !bindable.contains(&v) {
                            return Some(v);
                        }
                    }
                }
                _ => {}
            }
        }
        None
    }
}

/// Fluent builder for clauses.
///
/// ```
/// use amos_objectlog::{ClauseBuilder, Term};
/// use amos_types::CmpOp;
/// # use amos_objectlog::catalog::PredId;
/// # let quantity = PredId(0); let threshold = PredId(1);
/// // cnd(I) ← quantity(I, G1) ∧ threshold(I, G2) ∧ G1 < G2
/// let clause = ClauseBuilder::new(3)
///     .head([Term::var(0)])
///     .pred(quantity, [Term::var(0), Term::var(1)])
///     .pred(threshold, [Term::var(0), Term::var(2)])
///     .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
///     .build();
/// assert_eq!(clause.body.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ClauseBuilder {
    clause: Clause,
}

impl ClauseBuilder {
    /// Start a clause with `n_vars` variables.
    pub fn new(n_vars: u32) -> Self {
        ClauseBuilder {
            clause: Clause {
                n_vars,
                head: Vec::new(),
                body: Vec::new(),
            },
        }
    }

    /// Set the head terms.
    pub fn head(mut self, terms: impl IntoIterator<Item = Term>) -> Self {
        self.clause.head = terms.into_iter().collect();
        self
    }

    /// Add a positive new-state predicate literal.
    pub fn pred(mut self, pred: PredId, args: impl IntoIterator<Item = Term>) -> Self {
        self.clause.body.push(Literal::Pred {
            pred,
            args: args.into_iter().collect(),
            negated: false,
            epoch: StateEpoch::New,
        });
        self
    }

    /// Add a negated new-state predicate literal.
    pub fn not_pred(mut self, pred: PredId, args: impl IntoIterator<Item = Term>) -> Self {
        self.clause.body.push(Literal::Pred {
            pred,
            args: args.into_iter().collect(),
            negated: true,
            epoch: StateEpoch::New,
        });
        self
    }

    /// Add a positive old-state predicate literal.
    pub fn pred_old(mut self, pred: PredId, args: impl IntoIterator<Item = Term>) -> Self {
        self.clause.body.push(Literal::Pred {
            pred,
            args: args.into_iter().collect(),
            negated: false,
            epoch: StateEpoch::Old,
        });
        self
    }

    /// Add a Δ-literal.
    pub fn delta(
        mut self,
        pred: PredId,
        polarity: Polarity,
        args: impl IntoIterator<Item = Term>,
    ) -> Self {
        self.clause.body.push(Literal::Delta {
            pred,
            polarity,
            args: args.into_iter().collect(),
        });
        self
    }

    /// Add a comparison.
    pub fn cmp(mut self, lhs: Term, op: CmpOp, rhs: Term) -> Self {
        self.clause.body.push(Literal::Cmp { op, lhs, rhs });
        self
    }

    /// Add `result = lhs op rhs`.
    pub fn arith(mut self, result: Term, lhs: Term, op: ArithOp, rhs: Term) -> Self {
        self.clause.body.push(Literal::Arith {
            op,
            result,
            lhs,
            rhs,
        });
        self
    }

    /// Add a unification `lhs = rhs`.
    pub fn unify(mut self, lhs: Term, rhs: Term) -> Self {
        self.clause.body.push(Literal::Unify { lhs, rhs });
        self
    }

    /// Finish the clause.
    pub fn build(self) -> Clause {
        self.clause
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_vars() {
        let c = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .pred(PredId(0), [Term::var(0), Term::var(1)])
            .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
            .arith(Term::var(2), Term::var(1), ArithOp::Add, Term::val(1))
            .build();
        assert_eq!(c.head_vars(), vec![Var(0)]);
        assert_eq!(c.body[0].vars(), vec![Var(0), Var(1)]);
        assert_eq!(c.body[2].vars(), vec![Var(2), Var(1)]);
    }

    #[test]
    fn safety_check() {
        // head var not bound by any positive literal → unsafe
        let c = ClauseBuilder::new(2)
            .head([Term::var(0), Term::var(1)])
            .pred(PredId(0), [Term::var(0)])
            .build();
        assert_eq!(c.unsafe_var(), Some(Var(1)));

        // negated literal with free var → unsafe
        let c2 = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .pred(PredId(0), [Term::var(0)])
            .not_pred(PredId(1), [Term::var(1)])
            .build();
        assert_eq!(c2.unsafe_var(), Some(Var(1)));

        // arith result counts as bindable
        let c3 = ClauseBuilder::new(2)
            .head([Term::var(1)])
            .pred(PredId(0), [Term::var(0)])
            .arith(Term::var(1), Term::var(0), ArithOp::Mul, Term::val(2))
            .build();
        assert_eq!(c3.unsafe_var(), None);
    }

    #[test]
    fn display_terms() {
        assert_eq!(Term::var(3).to_string(), "_G3");
        assert_eq!(Term::val(7).to_string(), "7");
    }

    #[test]
    fn fresh_var() {
        let mut c = ClauseBuilder::new(1).head([Term::var(0)]).build();
        let v = c.fresh_var();
        assert_eq!(v, Var(1));
        assert_eq!(c.n_vars, 2);
    }
}
