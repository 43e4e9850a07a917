//! Explainability (§1, §8): "one can easily determine which influents
//! actually caused a rule to trigger and if it was triggered by an
//! insertion or a deletion … by remembering which partial differentials
//! were actually executed in the triggering."
//!
//! Every pass records the executed differentials with their accepted
//! tuples, and the instances it newly triggered. Asking *why* a rule
//! fired builds the causes from the pass that triggered the instance,
//! when asked — the CA-rule alternative to duplicating ECA rules per
//! event type that §8 describes, at no cost to a pass nobody asks about.

use amos_metrics::PassMetrics;
use amos_objectlog::catalog::{Catalog, PredId};
use amos_storage::Polarity;
use amos_types::Tuple;

use crate::differ::DiffId;

/// One differential execution during propagation.
#[derive(Debug, Clone)]
pub struct FiredDifferential {
    /// Which differential.
    pub diff: DiffId,
    /// The affected predicate.
    pub affected: PredId,
    /// The influent whose Δ-set seeded the execution.
    pub influent: PredId,
    /// Which side of the influent's Δ-set was read.
    pub seed: Polarity,
    /// Which side of the affected Δ-set was fed.
    pub output: Polarity,
    /// The accepted contribution tuples.
    pub tuples: Vec<Tuple>,
}

/// Why one rule instance triggered.
#[derive(Debug, Clone)]
pub struct TriggerExplanation {
    /// The rule's condition predicate.
    pub condition: PredId,
    /// The triggering instance (condition result tuple), an insertion
    /// into the condition.
    pub instance: Tuple,
    /// The influents (with seed polarities) whose differentials
    /// contributed this instance, in execution order.
    pub causes: Vec<(PredId, Polarity)>,
}

impl TriggerExplanation {
    /// Readable rendering.
    pub fn render(&self, catalog: &Catalog) -> String {
        let causes: Vec<String> = self
            .causes
            .iter()
            .map(|(p, pol)| format!("{pol}{}", catalog.name(*p)))
            .collect();
        format!(
            "+{} of {} caused by [{}]",
            self.instance,
            catalog.name(self.condition),
            causes.join(", ")
        )
    }
}

/// One monitoring pass as the trace keeps it.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    /// Differential executions of the pass, in execution order.
    pub fired: Vec<FiredDifferential>,
    /// The instances the pass newly triggered, per rule, with the rule's
    /// condition.
    pub triggered: Vec<(PredId, Tuple)>,
    /// The propagation's instrumentation; `None` when the pass ran no
    /// propagation (naive monitoring).
    pub metrics: Option<PassMetrics>,
}

impl PassTrace {
    /// Why this pass triggered `instance` of `condition`: the influents
    /// of the differentials whose accepted insertions contain it. `None`
    /// when the pass ran no propagation.
    pub(crate) fn explain(
        &self,
        condition: PredId,
        instance: &Tuple,
    ) -> Option<TriggerExplanation> {
        self.metrics.as_ref()?;
        let causes = self
            .fired
            .iter()
            .filter(|f| {
                f.affected == condition && f.output == Polarity::Plus && f.tuples.contains(instance)
            })
            .map(|f| (f.influent, f.seed))
            .collect();
        Some(TriggerExplanation {
            condition,
            instance: instance.clone(),
            causes,
        })
    }
}

/// The trace of one check phase — the cascade as a sequence of states,
/// one per pass — kept by the rule manager until the next phase starts,
/// its buffers cleared rather than rebuilt.
#[derive(Debug, Clone, Default)]
pub struct CheckTrace {
    /// One entry per propagation / recomputation pass, in order.
    pub passes: Vec<PassTrace>,
    /// The last propagation pass of an earlier phase, read while this
    /// one has run none.
    earlier: Option<PassMetrics>,
}

impl CheckTrace {
    /// Start a check phase.
    pub(crate) fn begin(&mut self) {
        if let Some(m) = self.passes.iter_mut().rev().find_map(|p| p.metrics.take()) {
            self.earlier = Some(m);
        }
        self.passes.clear();
    }

    /// The last propagation pass's metrics, in this phase or, when it
    /// ran none, an earlier one.
    pub fn last_metrics(&self) -> Option<&PassMetrics> {
        let mut passes = self.passes.iter().rev();
        passes
            .find_map(|p| p.metrics.as_ref())
            .or(self.earlier.as_ref())
    }

    /// [`last_metrics`](Self::last_metrics), to record a failed action on.
    pub(crate) fn last_metrics_mut(&mut self) -> Option<&mut PassMetrics> {
        let mut passes = self.passes.iter_mut().rev();
        passes
            .find_map(|p| p.metrics.as_mut())
            .or(self.earlier.as_mut())
    }

    /// Why `instance` of `condition` triggered, from the last pass that
    /// triggered it.
    pub fn explain(&self, condition: PredId, instance: &Tuple) -> Option<TriggerExplanation> {
        let pass = self.passes.iter().rev().find(|p| {
            p.triggered
                .iter()
                .any(|(c, t)| *c == condition && t == instance)
        })?;
        pass.explain(condition, instance)
    }

    /// An explanation for every triggering of the phase, in pass order.
    pub fn explanations(&self) -> Vec<TriggerExplanation> {
        self.passes
            .iter()
            .flat_map(|p| p.triggered.iter().filter_map(|(c, t)| p.explain(*c, t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::tuple;

    #[test]
    fn explanations_collect_matching_causes() {
        let cond = PredId(5);
        let fired = |diff, affected, influent, seed, tuples| FiredDifferential {
            diff: DiffId(diff),
            affected,
            influent: PredId(influent),
            seed,
            output: Polarity::Plus,
            tuples,
        };
        let pass = PassTrace {
            fired: vec![
                fired(0, cond, 1, Polarity::Plus, vec![tuple![1], tuple![2]]),
                fired(1, cond, 2, Polarity::Minus, vec![tuple![1]]),
                // Another condition's differential: ignored.
                fired(2, PredId(9), 1, Polarity::Plus, vec![tuple![1]]),
            ],
            triggered: vec![(cond, tuple![1]), (cond, tuple![2])],
            metrics: Some(PassMetrics::default()),
        };
        let trace = CheckTrace {
            passes: vec![pass],
            ..CheckTrace::default()
        };
        let ex = trace.explanations();
        assert_eq!(ex.len(), 2);
        assert_eq!(
            ex[0].causes,
            vec![(PredId(1), Polarity::Plus), (PredId(2), Polarity::Minus)]
        );
        assert_eq!(ex[1].causes, vec![(PredId(1), Polarity::Plus)]);
        let one = trace.explain(cond, &tuple![2]).unwrap();
        assert_eq!(one.causes, ex[1].causes);
        assert!(trace.explain(cond, &tuple![3]).is_none());
    }
}
