//! The propagation network (fig. 1 / fig. 2).
//!
//! Nodes are predicates: the monitored condition functions at the top,
//! their (transitive) derived influents in the middle (only in *bushy*
//! networks, §7.1), and the stored influents at the bottom. Each edge
//! from influent `X` up to affected `P` carries the partial differentials
//! `ΔP/Δ₊X` and `ΔP/Δ₋X`.
//!
//! Nodes are levelled by stratum (longest path from a stored node) so the
//! §5 algorithm can process them breadth-first, bottom-up: all changes to
//! a node's influents are accumulated before the node's own out-edges
//! fire, which is the precondition for computing old states by logical
//! rollback.
//!
//! Networks are *shared* across rules: two conditions depending on the
//! same predicate share its node (and, in bushy style, shared derived
//! sub-functions like `threshold` become shared intermediate nodes —
//! the node-sharing optimization of §7.1).

use std::collections::{HashMap, HashSet};

use amos_objectlog::catalog::{Catalog, PredId, PredKind};
use amos_storage::{Polarity, Storage};

use amos_objectlog::plan::{compile_clause, ensure_plan_indexes};

use crate::differ::{generate_differentials, DiffId, Differential};
use crate::error::CoreError;

/// Identifier of a node within the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// How condition predicates were prepared, which shapes the network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum NetworkStyle {
    /// Conditions fully expanded: stored influents feed conditions
    /// directly (fig. 2). This is the AMOS default.
    #[default]
    Flat,
    /// Expansion stopped at the named predicates, which become shared
    /// intermediate nodes (fig. 1 / §7.1).
    Bushy,
}

/// One node of the network.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The predicate.
    pub pred: PredId,
    /// Stratum: 0 for stored predicates, `1 + max(influent levels)` for
    /// derived.
    pub level: usize,
    /// Differentials seeded by this node's Δ-set (out-edges).
    pub out_diffs: Vec<DiffId>,
    /// Whether this node is a monitored condition (top of the network).
    pub is_condition: bool,
}

/// The assembled propagation network.
#[derive(Debug, Clone, Default)]
pub struct PropagationNetwork {
    nodes: Vec<Node>,
    by_pred: HashMap<PredId, NodeId>,
    differentials: Vec<Differential>,
    /// Node ids grouped by level, ascending.
    levels: Vec<Vec<NodeId>>,
    /// The condition predicates, in registration order.
    conditions: Vec<PredId>,
    /// Display names of differentials pruned as statically dead (Δ₋ on
    /// append-only relations, statically-false bodies) — lint pass L004.
    pruned: Vec<String>,
    /// Display names of differentials pruned because abstract
    /// interpretation proved their body empty — lint pass L007. Disjoint
    /// from `pruned` (syntactic pruning runs first).
    pruned_semantic: Vec<String>,
    /// Whether the build ran semantic (L007) pruning — what the
    /// conformance verifier needs to know which drops were entitled.
    semantic_pruning: bool,
}

impl PropagationNetwork {
    /// Build the network for a set of condition predicates.
    ///
    /// Every predicate reachable from a condition through clause bodies
    /// becomes a node (derived influents were either expanded away before
    /// this call — flat style — or remain and become intermediate
    /// nodes). Differentials are generated for every derived node with
    /// respect to its direct influent nodes, compiled, and their probe
    /// indexes created in `storage`.
    pub fn build(
        catalog: &Catalog,
        storage: &mut Storage,
        conditions: &[PredId],
    ) -> Result<Self, CoreError> {
        PropagationNetwork::build_with(catalog, storage, conditions, true)
    }

    /// [`PropagationNetwork::build`] with semantic (L007) pruning made
    /// explicit. `semantic: false` keeps only the syntactic L004 pruning
    /// — the unpruned reference the pruning-equivalence proptest
    /// compares against. The network records the choice for the
    /// conformance verifier.
    pub fn build_with(
        catalog: &Catalog,
        storage: &mut Storage,
        conditions: &[PredId],
        semantic: bool,
    ) -> Result<Self, CoreError> {
        let analysis = semantic.then(|| amos_lint::absint::analyze(catalog));
        let mut net = PropagationNetwork {
            conditions: conditions.to_vec(),
            semantic_pruning: semantic,
            ..Default::default()
        };

        // Discover all reachable predicates.
        let mut stack: Vec<PredId> = conditions.to_vec();
        let mut seen: HashSet<PredId> = HashSet::new();
        while let Some(p) = stack.pop() {
            if !seen.insert(p) {
                continue;
            }
            for dep in catalog.direct_influents(p) {
                stack.push(dep);
            }
        }

        // Create nodes with stratum levels (stratum() also rejects
        // recursion, which the §5 algorithm does not handle).
        let mut preds: Vec<PredId> = seen.into_iter().collect();
        preds.sort();
        for pred in preds {
            let level = catalog.stratum(pred)?;
            let id = NodeId(net.nodes.len() as u32);
            net.nodes.push(Node {
                id,
                pred,
                level,
                out_diffs: Vec::new(),
                is_condition: conditions.contains(&pred),
            });
            net.by_pred.insert(pred, id);
            if net.levels.len() <= level {
                net.levels.resize(level + 1, Vec::new());
            }
            net.levels[level].push(id);
        }

        // Generate differentials for each derived node w.r.t. its direct
        // influent nodes.
        let node_preds: HashSet<PredId> = net.by_pred.keys().copied().collect();
        for node_id in 0..net.nodes.len() {
            let pred = net.nodes[node_id].pred;
            if !matches!(catalog.def(pred).kind, PredKind::Derived(_)) {
                continue;
            }
            // Ensure the indexes for *full* evaluation of this predicate
            // too: the naive baseline re-evaluates conditions in full,
            // and the §7.2 correction checks run fully-bound point
            // queries — both probe stored literals on column subsets
            // that differ from the differential plans'.
            if let Some(clauses) = catalog.def(pred).clauses() {
                for clause in clauses {
                    let unbound = compile_clause(catalog, clause, &HashSet::new())?;
                    ensure_plan_indexes(catalog, &unbound, storage);
                    let all_head: HashSet<_> = clause.head_vars().into_iter().collect();
                    let bound = compile_clause(catalog, clause, &all_head)?;
                    ensure_plan_indexes(catalog, &bound, storage);
                }
            }
            let diffs = generate_differentials(catalog, storage, pred, &node_preds)?;
            for d in diffs {
                // L004 dead-differential pruning: a Δ₋-seeded edge from a
                // stored append-only relation can never carry tuples (its
                // minus Δ-set is empty by contract), and a differential
                // whose body is statically false can never produce any.
                // Dropping them here keeps the propagation loop from
                // scheduling provably empty work. With no append-only
                // declarations this is a strict no-op.
                let dead_minus = d.seed == Polarity::Minus
                    && catalog
                        .def(d.influent)
                        .stored_rel()
                        .is_some_and(|rel| storage.is_append_only(rel));
                if dead_minus || amos_lint::clause_statically_false(&d.clause) {
                    net.pruned.push(d.display_name(catalog));
                    continue;
                }
                // L007 semantic pruning: the abstract interpreter can
                // prove bodies empty that no single-clause syntactic
                // check sees (e.g. a bound contradicting an influent's
                // inferred head interval). Sound — an empty differential
                // can never contribute tuples — so dropping it preserves
                // propagation semantics exactly (see the
                // pruning-equivalence proptest).
                if let Some(analysis) = &analysis {
                    if analysis.clause_provably_empty(catalog, &d.clause) {
                        net.pruned_semantic.push(d.display_name(catalog));
                        continue;
                    }
                }
                let did = DiffId(net.differentials.len() as u32);
                let influent_node = net.by_pred[&d.influent];
                net.nodes[influent_node.0 as usize].out_diffs.push(did);
                net.differentials.push(d);
            }
        }
        Ok(net)
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by predicate.
    pub fn node_of(&self, pred: PredId) -> Option<&Node> {
        self.by_pred.get(&pred).map(|id| &self.nodes[id.0 as usize])
    }

    /// All differentials.
    pub fn differentials(&self) -> &[Differential] {
        &self.differentials
    }

    /// A differential by id.
    pub fn differential(&self, id: DiffId) -> &Differential {
        &self.differentials[id.0 as usize]
    }

    /// Node ids per level, ascending (level 0 = stored predicates).
    pub fn levels(&self) -> &[Vec<NodeId>] {
        &self.levels
    }

    /// The monitored condition predicates.
    pub fn conditions(&self) -> &[PredId] {
        &self.conditions
    }

    /// Display names of differentials pruned as statically dead (L004).
    pub fn pruned(&self) -> &[String] {
        &self.pruned
    }

    /// Number of differentials pruned as statically dead.
    pub fn pruned_count(&self) -> usize {
        self.pruned.len()
    }

    /// Display names of differentials pruned as provably empty by
    /// abstract interpretation (L007).
    pub fn pruned_semantic(&self) -> &[String] {
        &self.pruned_semantic
    }

    /// Whether this network was built with semantic (L007) pruning.
    pub fn semantic_pruning(&self) -> bool {
        self.semantic_pruning
    }

    /// Drop differential `id` from the network, as if the builder had
    /// forgotten to emit it. Testing hook for the conformance verifier's
    /// mutation tests — never called by production code.
    #[doc(hidden)]
    pub fn testing_remove_differential(&mut self, id: DiffId) {
        let idx = id.0 as usize;
        self.differentials.remove(idx);
        for node in &mut self.nodes {
            node.out_diffs.retain(|d| *d != id);
            for d in &mut node.out_diffs {
                if d.0 > id.0 {
                    d.0 -= 1;
                }
            }
        }
    }

    /// Emit differential `id` a second time, as if the builder had
    /// double-counted a contribution path. Testing hook.
    #[doc(hidden)]
    pub fn testing_duplicate_differential(&mut self, id: DiffId) {
        let d = self.differentials[id.0 as usize].clone();
        let dup = DiffId(self.differentials.len() as u32);
        let influent_node = self.by_pred[&d.influent];
        self.nodes[influent_node.0 as usize].out_diffs.push(dup);
        self.differentials.push(d);
    }

    /// Overwrite a node's breadth-first level. Testing hook.
    #[doc(hidden)]
    pub fn testing_set_node_level(&mut self, pred: PredId, level: usize) {
        let id = self.by_pred[&pred];
        self.nodes[id.0 as usize].level = level;
    }

    /// The stored predicates at the bottom of the network — the
    /// relations that must be monitored for Δ-set accumulation.
    pub fn stored_nodes(&self, catalog: &Catalog) -> Vec<PredId> {
        self.nodes
            .iter()
            .filter(|n| matches!(catalog.def(n.pred).kind, PredKind::Stored { .. }))
            .map(|n| n.pred)
            .collect()
    }

    /// Render the network structure for docs/tests: one line per node
    /// with its level and out-edge differentials.
    pub fn render(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        for level in (0..self.levels.len()).rev() {
            for node_id in &self.levels[level] {
                let node = &self.nodes[node_id.0 as usize];
                let marker = if node.is_condition { "*" } else { " " };
                out.push_str(&format!("L{level}{marker} {}\n", catalog.name(node.pred)));
                for did in &node.out_diffs {
                    let d = self.differential(*did);
                    out.push_str(&format!("      └─ {}\n", d.display_name(catalog)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_types::{CmpOp, TypeId};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    /// Build the fig. 1 dependency structure: cnd ← quantity, threshold;
    /// threshold ← consume_freq, delivery_time, supplies, min_stock.
    fn monitor_items_bushy() -> (Storage, Catalog, PredId, PredId) {
        let mut storage = Storage::new();
        let mut cat = Catalog::new();
        let stored = |st: &mut Storage, cat: &mut Catalog, name: &str, ar: usize| {
            let rel = st.create_relation(name, ar).unwrap();
            cat.define_stored(name, sig(ar), rel, ar - 1).unwrap()
        };
        let quantity = stored(&mut storage, &mut cat, "quantity", 2);
        let consume = stored(&mut storage, &mut cat, "consume_freq", 2);
        let delivery = stored(&mut storage, &mut cat, "delivery_time", 3);
        let supplies = stored(&mut storage, &mut cat, "supplies", 2);
        let min_stock = stored(&mut storage, &mut cat, "min_stock", 2);

        // threshold(I,T) ← consume_freq(I,G1) ∧ delivery_time(I,G2,G3) ∧
        //   supplies(I,G2) ∧ G4=G1*G3 ∧ min_stock(I,G5) ∧ T=G4+G5
        let threshold = cat
            .define_derived(
                "threshold",
                sig(2),
                vec![ClauseBuilder::new(7)
                    .head([Term::var(0), Term::var(6)])
                    .pred(consume, [Term::var(0), Term::var(1)])
                    .pred(delivery, [Term::var(0), Term::var(2), Term::var(3)])
                    .pred(supplies, [Term::var(0), Term::var(2)])
                    .arith(
                        Term::var(4),
                        Term::var(1),
                        amos_types::ArithOp::Mul,
                        Term::var(3),
                    )
                    .pred(min_stock, [Term::var(0), Term::var(5)])
                    .arith(
                        Term::var(6),
                        Term::var(4),
                        amos_types::ArithOp::Add,
                        Term::var(5),
                    )
                    .build()],
            )
            .unwrap();
        // cnd(I) ← quantity(I,G1) ∧ threshold(I,G2) ∧ G1 < G2
        let cnd = cat
            .define_derived(
                "cnd_monitor_items",
                sig(1),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(quantity, [Term::var(0), Term::var(1)])
                    .pred(threshold, [Term::var(0), Term::var(2)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
                    .build()],
            )
            .unwrap();
        (storage, cat, cnd, threshold)
    }

    /// The fig. 1 network: threshold is an intermediate node at level 1,
    /// cnd at level 2, five stored nodes at level 0, and the marked `*`
    /// edge Δcnd/Δ₊quantity exists.
    #[test]
    fn bushy_network_matches_fig1() {
        let (mut storage, cat, cnd, threshold) = monitor_items_bushy();
        let net = PropagationNetwork::build(&cat, &mut storage, &[cnd]).unwrap();

        assert_eq!(net.levels().len(), 3);
        assert_eq!(net.levels()[0].len(), 5, "five stored influents");
        assert_eq!(net.levels()[1].len(), 1, "threshold is intermediate");
        assert_eq!(net.levels()[2].len(), 1, "cnd on top");

        let quantity = cat.lookup("quantity").unwrap();
        let qnode = net.node_of(quantity).unwrap();
        // quantity feeds cnd directly: Δcnd/Δ±quantity (the fig. 1 `*` edge).
        let names: Vec<String> = qnode
            .out_diffs
            .iter()
            .map(|d| net.differential(*d).display_name(&cat))
            .collect();
        assert!(names.contains(&"Δcnd_monitor_items/Δ+quantity".to_string()));

        // threshold's out-edges feed cnd.
        let tnode = net.node_of(threshold).unwrap();
        assert!(tnode
            .out_diffs
            .iter()
            .all(|d| net.differential(*d).affected == cnd));
        // threshold has 4 influents × 2 polarities in-edges — counted on
        // the influent side.
        let consume = cat.lookup("consume_freq").unwrap();
        let cnode = net.node_of(consume).unwrap();
        assert!(cnode
            .out_diffs
            .iter()
            .all(|d| net.differential(*d).affected == threshold));

        let rendered = net.render(&cat);
        assert!(rendered.contains("L2* cnd_monitor_items"), "{rendered}");
    }

    /// Flat style: expanding threshold away leaves a two-level network
    /// with five differential pairs straight into cnd (fig. 2).
    #[test]
    fn flat_network_matches_fig2() {
        let (mut storage, mut cat, cnd, _threshold) = monitor_items_bushy();
        let expanded = amos_objectlog::expand::expand_predicate(
            &cat,
            cnd,
            &amos_objectlog::expand::ExpandOptions::full(),
        )
        .unwrap();
        cat.replace_clauses(cnd, expanded).unwrap();

        let net = PropagationNetwork::build(&cat, &mut storage, &[cnd]).unwrap();
        assert_eq!(net.levels().len(), 2, "flat: stored + condition only");
        assert_eq!(net.levels()[0].len(), 5);
        // 5 influents × 2 polarities = 10 differentials, all into cnd.
        assert_eq!(net.differentials().len(), 10);
        assert!(net.differentials().iter().all(|d| d.affected == cnd));
    }

    /// Two rules sharing influents share nodes.
    #[test]
    fn node_sharing_between_conditions() {
        let (mut storage, mut cat, cnd, threshold) = monitor_items_bushy();
        let quantity = cat.lookup("quantity").unwrap();
        // A second condition using threshold and quantity.
        let cnd2 = cat
            .define_derived(
                "cnd_other",
                sig(1),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(quantity, [Term::var(0), Term::var(1)])
                    .pred(threshold, [Term::var(0), Term::var(2)])
                    .cmp(Term::var(1), CmpOp::Gt, Term::var(2))
                    .build()],
            )
            .unwrap();
        let net = PropagationNetwork::build(&cat, &mut storage, &[cnd, cnd2]).unwrap();
        // threshold node exists once; its out-edges feed both conditions.
        let tnode = net.node_of(threshold).unwrap();
        let affected: HashSet<PredId> = tnode
            .out_diffs
            .iter()
            .map(|d| net.differential(*d).affected)
            .collect();
        assert_eq!(affected, [cnd, cnd2].into_iter().collect());
        // Network has exactly one threshold node (count nodes for pred).
        let count = net.nodes().iter().filter(|n| n.pred == threshold).count();
        assert_eq!(count, 1);
    }
}
