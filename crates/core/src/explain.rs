//! Explainability (§1, §8): "one can easily determine which influents
//! actually caused a rule to trigger and if it was triggered by an
//! insertion or a deletion … by remembering which partial differentials
//! were actually executed in the triggering."
//!
//! Every propagation pass records the executed differentials and their
//! contributions; the rule manager attaches them to each triggering so
//! actions (and users) can ask *why* a rule fired — the CA-rule
//! alternative to duplicating ECA rules per event type that §8 describes.

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

impl FiredDifferential {
    /// Readable rendering, e.g.
    /// `Δcnd_monitor_items/Δ+quantity → +{(#[oid 1])}`.
    pub fn render(&self, catalog: &Catalog) -> String {
        let mut ts: Vec<String> = self.tuples.iter().map(|t| t.to_string()).collect();
        ts.sort();
        format!(
            "Δ{}/{}{} → {}{{{}}}",
            catalog.name(self.affected),
            self.seed,
            catalog.name(self.influent),
            if self.output == Polarity::Plus {
                "+"
            } else {
                "-"
            },
            ts.join(", ")
        )
    }
}

/// Why one rule instance triggered.
#[derive(Debug, Clone)]
pub struct TriggerExplanation {
    /// The rule's condition predicate.
    pub condition: PredId,
    /// The triggering instance (condition result tuple).
    pub instance: Tuple,
    /// Whether the instance was inserted into or deleted from the
    /// condition.
    pub polarity: Polarity,
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
            "{}{} of {} caused by [{}]",
            if self.polarity == Polarity::Plus {
                "+"
            } else {
                "-"
            },
            self.instance,
            catalog.name(self.condition),
            causes.join(", ")
        )
    }
}

/// The full trace of one check phase.
#[derive(Debug, Clone, Default)]
pub struct CheckTrace {
    /// Differential executions across all propagation passes, in order.
    pub fired: Vec<FiredDifferential>,
    /// Per-instance explanations for every rule triggering.
    pub explanations: Vec<TriggerExplanation>,
    /// Number of propagation passes (fixpoint iterations) performed.
    pub passes: usize,
}

impl CheckTrace {
    /// Derive per-instance explanations from the fired differentials of
    /// one pass, for the instances that ended up triggering.
    pub fn explain_instances(
        fired: &[FiredDifferential],
        condition: PredId,
        instances: &[(Tuple, Polarity)],
    ) -> Vec<TriggerExplanation> {
        instances
            .iter()
            .map(|(instance, polarity)| {
                let causes: Vec<(PredId, Polarity)> = fired
                    .iter()
                    .filter(|f| {
                        f.affected == condition
                            && f.output == *polarity
                            && f.tuples.contains(instance)
                    })
                    .map(|f| (f.influent, f.seed))
                    .collect();
                TriggerExplanation {
                    condition,
                    instance: instance.clone(),
                    polarity: *polarity,
                    causes,
                }
            })
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
        let fired = vec![
            FiredDifferential {
                diff: DiffId(0),
                affected: cond,
                influent: PredId(1),
                seed: Polarity::Plus,
                output: Polarity::Plus,
                tuples: vec![tuple![1], tuple![2]],
            },
            FiredDifferential {
                diff: DiffId(1),
                affected: cond,
                influent: PredId(2),
                seed: Polarity::Minus,
                output: Polarity::Plus,
                tuples: vec![tuple![1]],
            },
            FiredDifferential {
                diff: DiffId(2),
                affected: PredId(9), // other condition — ignored
                influent: PredId(1),
                seed: Polarity::Plus,
                output: Polarity::Plus,
                tuples: vec![tuple![1]],
            },
        ];
        let ex = CheckTrace::explain_instances(
            &fired,
            cond,
            &[(tuple![1], Polarity::Plus), (tuple![2], Polarity::Plus)],
        );
        assert_eq!(ex.len(), 2);
        assert_eq!(
            ex[0].causes,
            vec![(PredId(1), Polarity::Plus), (PredId(2), Polarity::Minus)]
        );
        assert_eq!(ex[1].causes, vec![(PredId(1), Polarity::Plus)]);
    }
}
