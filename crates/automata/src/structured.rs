//! Direct compilation of automaton provenance into certified, smooth
//! structured d-DNNFs (d-SDNNFs).
//!
//! [`provenance_circuit`](crate::provenance_circuit) emits a raw circuit and
//! leaves the d-DNNF property to after-the-fact verification. This module is
//! the paper's Theorem 6.11 made constructive: for a *deterministic*
//! bottom-up automaton on an uncertain tree whose events each control a
//! single node, [`compile_structured_dnnf`] emits a circuit that is
//!
//! * **decomposable** by construction — every ∧ splits the event of the
//!   current node from the (disjoint) event scopes of the two subtrees;
//! * **deterministic** by construction — every ∨ ranges over mutually
//!   exclusive cases (the event literal picks the label; the unique run of
//!   the deterministic automaton picks the child states);
//! * **smooth** by construction — every gate either is the constant false or
//!   mentions *exactly* the events of its subtree, so all ∨-children share
//!   one scope and model counting is a single integer pass (no padding
//!   needed afterwards);
//! * **structured** — witnessed by a [`Vtree`] read off the input tree
//!   (event of a node against the scopes of its two children), which
//!   [`StructuredDnnf::vtree`] exposes and the test suite certifies with
//!   [`Vtree::respects`].
//!
//! Probability, weighted model counting and model counting on the result are
//! all linear in its size — the "linear-time probability without OBDD
//! blowup" extension that motivates the d-SDNNF backend.

use crate::automaton::TreeAutomaton;
use crate::tree::{NodeAnnotation, UncertainTree};
use std::collections::BTreeMap;
use treelineage_circuit::{Circuit, Dnnf, GateId, ScaledWeights, Vtree, VtreeId};
use treelineage_num::{BigUint, Rational};

/// Errors reported by the structured compiler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructuredDnnfError {
    /// The automaton is not bottom-up deterministic, so the ∨ over runs is
    /// not guaranteed deterministic (determinize first).
    NondeterministicAutomaton,
    /// An event controls more than one node, so subtree scopes overlap and
    /// the ∧ over children is not guaranteed decomposable.
    SharedEvent {
        /// The offending event (Boolean variable).
        event: usize,
    },
}

impl std::fmt::Display for StructuredDnnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuredDnnfError::NondeterministicAutomaton => {
                write!(f, "automaton is not bottom-up deterministic")
            }
            StructuredDnnfError::SharedEvent { event } => {
                write!(f, "event {event} controls more than one node")
            }
        }
    }
}

impl std::error::Error for StructuredDnnfError {}

/// A certified smooth d-SDNNF for the provenance of a deterministic tree
/// automaton on an uncertain tree, together with its structure witness.
#[derive(Clone, Debug)]
pub struct StructuredDnnf {
    dnnf: Dnnf,
    vtree: Vtree,
    universe: Vec<usize>,
}

impl StructuredDnnf {
    /// Assembles a `StructuredDnnf` from parts the caller attests satisfy
    /// the module invariants: `dnnf` smooth with every gate's scope exactly
    /// its subtree's events, structured by `vtree`, over the sorted event
    /// `universe`. The parallel compilation engine (`treelineage-engine`)
    /// uses this to wrap circuits it builds byte-identically to
    /// [`compile_structured_dnnf`] from fragments compiled on worker
    /// threads; like [`Dnnf::from_trusted_circuit`], no properties are
    /// re-checked here — hand untrusted circuits to [`Dnnf::verify`] and
    /// [`Vtree::respects`] instead.
    pub fn from_trusted_parts(dnnf: Dnnf, vtree: Vtree, universe: Vec<usize>) -> Self {
        StructuredDnnf {
            dnnf,
            vtree,
            universe,
        }
    }

    /// The underlying d-DNNF (smooth, deterministic, decomposable).
    pub fn dnnf(&self) -> &Dnnf {
        &self.dnnf
    }

    /// The vtree the circuit is structured by (derived from the input tree:
    /// each tree node splits its own event from its children's scopes).
    pub fn vtree(&self) -> &Vtree {
        &self.vtree
    }

    /// The declared universe: all events of the uncertain tree, sorted.
    pub fn universe(&self) -> &[usize] {
        &self.universe
    }

    /// Size of the circuit (number of gates).
    pub fn size(&self) -> usize {
        self.dnnf.size()
    }

    /// Acceptance probability under independent event probabilities; one
    /// bottom-up scaled-integer pass ([`Dnnf::scaled_wmc`]), linear in the
    /// circuit size. The universe is the output's scope: every non-false
    /// gate mentions exactly its subtree's events, and the output's subtree
    /// is the whole tree.
    pub fn probability(&self, prob: &dyn Fn(usize) -> Rational) -> Rational {
        self.dnnf
            .scaled_wmc(&ScaledWeights::probability(&self.universe, prob))
    }

    /// Weighted model count with general per-literal weights (the circuit is
    /// smooth, so no padding pass is needed); one scaled-integer pass,
    /// linear in the circuit size.
    pub fn wmc(
        &self,
        pos: &dyn Fn(usize) -> Rational,
        neg: &dyn Fn(usize) -> Rational,
    ) -> Rational {
        self.dnnf
            .scaled_wmc(&ScaledWeights::wmc(&self.universe, pos, neg))
    }

    /// Number of event valuations under which the automaton accepts: the
    /// same integer pass under unit weights, thanks to
    /// smoothness-by-construction.
    pub fn model_count(&self) -> BigUint {
        let count = self.dnnf.scaled_wmc(&ScaledWeights::unit(&self.universe));
        count.numerator().magnitude().clone()
    }
}

/// [`compile_structured_dnnf`] under a `dsdnnf_compile` telemetry span:
/// the instrumented single-threaded pipelines route through this so the
/// sequential d-SDNNF construction shows up in span aggregates (the
/// fragment-parallel engine path records `dsdnnf_fragments` /
/// `dsdnnf_merge` spans of its own instead). Records nothing when
/// `telemetry` is disabled, and never changes the compiled artifact.
pub fn compile_structured_dnnf_traced(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    telemetry: &treelineage_telemetry::Telemetry,
) -> Result<StructuredDnnf, StructuredDnnfError> {
    let _span = telemetry.span("dsdnnf_compile");
    compile_structured_dnnf(automaton, tree)
}

/// Compiles the provenance of a deterministic automaton on an uncertain tree
/// directly into a certified smooth d-SDNNF (see the module docs for the
/// invariants and why they hold). Rejects nondeterministic automata and
/// events shared between nodes; determinize / re-event first in those cases.
#[allow(clippy::needless_range_loop)] // `q` is a state id, not just an index
pub fn compile_structured_dnnf(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
) -> Result<StructuredDnnf, StructuredDnnfError> {
    if !automaton.is_deterministic() {
        return Err(StructuredDnnfError::NondeterministicAutomaton);
    }
    let mut seen_events: BTreeMap<usize, usize> = BTreeMap::new();
    for node in 0..tree.tree().node_count() {
        if let NodeAnnotation::Event { event, .. } = tree.annotation(crate::tree::NodeId(node)) {
            *seen_events.entry(event).or_insert(0) += 1;
        }
    }
    if let Some((&event, _)) = seen_events.iter().find(|(_, &count)| count > 1) {
        return Err(StructuredDnnfError::SharedEvent { event });
    }

    let mut circuit = Circuit::new();
    let false_gate = circuit.constant(false);
    let true_gate = circuit.constant(true);
    let states = automaton.state_count();
    let node_count = tree.tree().node_count();
    // gates[node][q]: either the false constant, the true constant (only for
    // event-free subtrees), or a gate whose scope is exactly the events of
    // the node's subtree — the smoothness invariant.
    let mut gates: Vec<Vec<GateId>> = vec![vec![false_gate; states]; node_count];
    // Vtree subtree covering each tree node's events (`None` if event-free),
    // assembled bottom-up alongside the gates.
    let mut vtree = Vtree::new();
    let mut vnodes: Vec<Option<VtreeId>> = vec![None; node_count];

    // Conjunction keeping the smoothness invariant: constants true drop out
    // (they carry no scope), `None` means the whole conjunct is true.
    let conjoin =
        |parts: Vec<GateId>, circuit: &mut Circuit, true_gate: GateId| -> Option<GateId> {
            let real: Vec<GateId> = parts.into_iter().filter(|&g| g != true_gate).collect();
            match real.len() {
                0 => None,
                1 => Some(real[0]),
                _ => Some(circuit.and(real)),
            }
        };

    for node in tree.tree().post_order() {
        let own_event = match tree.annotation(node) {
            NodeAnnotation::Fixed => None,
            NodeAnnotation::Event { event, .. } => Some(event),
        };
        match tree.tree().children(node) {
            None => {
                for q in 0..states {
                    gates[node.0][q] = match tree.annotation(node) {
                        NodeAnnotation::Fixed => {
                            if automaton.leaf_states(tree.tree().label(node)).contains(&q) {
                                true_gate
                            } else {
                                false_gate
                            }
                        }
                        NodeAnnotation::Event {
                            event,
                            if_true,
                            if_false,
                        } => {
                            let in_true = automaton.leaf_states(if_true).contains(&q);
                            let in_false = automaton.leaf_states(if_false).contains(&q);
                            match (in_true, in_false) {
                                // Smoothness: the gate must mention the
                                // event, so a both-labels state compiles to
                                // the tautology e ∨ ¬e, not to true.
                                (true, true) => {
                                    let v = circuit.var(event);
                                    let nv = circuit.not(v);
                                    circuit.or(vec![v, nv])
                                }
                                (false, false) => false_gate,
                                (true, false) => circuit.var(event),
                                (false, true) => {
                                    let v = circuit.var(event);
                                    circuit.not(v)
                                }
                            }
                        }
                    };
                }
                vnodes[node.0] = own_event.map(|e| vtree.leaf(e));
            }
            Some((left, right)) => {
                // Guarded label alternatives, as in `provenance_circuit`.
                let alternatives: Vec<(usize, Option<GateId>)> = match tree.annotation(node) {
                    NodeAnnotation::Fixed => vec![(tree.tree().label(node), None)],
                    NodeAnnotation::Event {
                        event,
                        if_true,
                        if_false,
                    } => {
                        let v = circuit.var(event);
                        let not_v = circuit.not(v);
                        vec![(if_true, Some(v)), (if_false, Some(not_v))]
                    }
                };
                // Iterate only over *live* (non-false) child states and push
                // each discovered run into its target state's disjunct list:
                // cost per node is |live_l| · |live_r| · |alternatives|
                // rather than |states|³, which is what keeps this linear on
                // the lazily-materialized automata of the encoding pipeline
                // (whose total state count far exceeds the per-node live
                // count). Discovery order per target state is (alternative,
                // left state, right state) lexicographic — identical to the
                // dense triple loop this replaces.
                let live_left: Vec<usize> = (0..states)
                    .filter(|&q| gates[left.0][q] != false_gate)
                    .collect();
                let live_right: Vec<usize> = (0..states)
                    .filter(|&q| gates[right.0][q] != false_gate)
                    .collect();
                let mut disjuncts: Vec<Vec<GateId>> = vec![Vec::new(); states];
                for &(label, guard) in &alternatives {
                    for &ql in &live_left {
                        for &qr in &live_right {
                            for &q in &automaton.internal_states(label, ql, qr) {
                                let gl = gates[left.0][ql];
                                let gr = gates[right.0][qr];
                                // Nested binary shape guard ∧ (gl ∧ gr):
                                // what the node's vtree split witnesses.
                                let inner = conjoin(vec![gl, gr], &mut circuit, true_gate);
                                let conj = match (guard, inner) {
                                    (None, None) => true_gate,
                                    (None, Some(g)) => g,
                                    (Some(gv), None) => gv,
                                    (Some(gv), Some(g)) => circuit.and(vec![gv, g]),
                                };
                                disjuncts[q].push(conj);
                            }
                        }
                    }
                }
                for (q, disjuncts) in disjuncts.into_iter().enumerate() {
                    gates[node.0][q] = match disjuncts.len() {
                        0 => false_gate,
                        1 => disjuncts[0],
                        _ => circuit.or(disjuncts),
                    };
                }
                // Vtree split for this node: own event against the combined
                // children scopes (skipping event-free parts).
                let children_v = match (vnodes[left.0], vnodes[right.0]) {
                    (None, None) => None,
                    (Some(l), None) => Some(l),
                    (None, Some(r)) => Some(r),
                    (Some(l), Some(r)) => Some(vtree.internal(l, r)),
                };
                vnodes[node.0] = match (own_event, children_v) {
                    (None, v) => v,
                    (Some(e), None) => Some(vtree.leaf(e)),
                    (Some(e), Some(v)) => {
                        let leaf = vtree.leaf(e);
                        Some(vtree.internal(leaf, v))
                    }
                };
            }
        }
    }

    let root = tree.tree().root();
    let accepting: Vec<GateId> = automaton
        .accepting_states()
        .iter()
        .map(|&q| gates[root.0][q])
        .filter(|&g| g != false_gate)
        .collect();
    let output = match accepting.len() {
        0 => false_gate,
        1 => accepting[0],
        _ => circuit.or(accepting),
    };
    circuit.set_output(output);
    if let Some(v) = vnodes[root.0] {
        vtree.set_root(v);
    }

    let dnnf = Dnnf::from_trusted_circuit(circuit)
        .expect("the structured construction is decomposable by construction");
    Ok(StructuredDnnf {
        dnnf,
        vtree,
        universe: tree.events(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{exists_one_automaton, parity_automaton};
    use crate::provenance::acceptance_probability_bruteforce;
    use crate::tree::{BinaryTree, NodeId};
    use std::collections::BTreeSet;

    fn uncertain_leaves(n: usize) -> UncertainTree {
        let tree = BinaryTree::comb(&vec![0; n], 2);
        let mut u = UncertainTree::certain(tree);
        let mut leaf_index = 0;
        for node in 0..u.tree().node_count() {
            if u.tree().is_leaf(NodeId(node)) {
                u.set_event(NodeId(node), leaf_index, 1, 0);
                leaf_index += 1;
            }
        }
        u
    }

    #[test]
    fn structured_compile_is_correct_and_certified() {
        let automaton = parity_automaton(2);
        for n in 1..=6 {
            let tree = uncertain_leaves(n);
            let s = compile_structured_dnnf(&automaton, &tree).unwrap();
            // Full certification: all three d-DNNF conditions, smoothness,
            // and the vtree witness.
            assert!(Dnnf::verify(s.dnnf().circuit().clone()).is_ok(), "n={n}");
            assert!(s.dnnf().is_smooth(), "n={n}");
            assert!(s.vtree().respects(s.dnnf().circuit()).is_ok(), "n={n}");
            // Semantics: agrees with acceptance on every valuation.
            let events = tree.events();
            for mask in 0u64..(1u64 << events.len()) {
                let true_events: BTreeSet<usize> = events
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &e)| e)
                    .collect();
                let concrete = tree.instantiate(&|e| true_events.contains(&e));
                assert_eq!(
                    s.dnnf().circuit().evaluate_set(&true_events),
                    automaton.accepts(&concrete),
                    "n={n}, mask={mask}"
                );
            }
        }
    }

    #[test]
    fn model_count_and_probability_match_bruteforce() {
        let automaton = parity_automaton(2);
        let tree = uncertain_leaves(5);
        let s = compile_structured_dnnf(&automaton, &tree).unwrap();
        // Parity of 5 independent bits: half of the 32 valuations are odd.
        assert_eq!(s.model_count().to_u64(), Some(16));
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 + 2);
        assert_eq!(
            s.probability(&prob),
            acceptance_probability_bruteforce(&automaton, &tree, &prob)
        );
        // WMC with probability weights equals the probability.
        let neg = |e: usize| prob(e).complement();
        assert_eq!(s.wmc(&prob, &neg), s.probability(&prob));
    }

    #[test]
    fn nondeterministic_automaton_is_rejected() {
        let nta = exists_one_automaton(2);
        let tree = uncertain_leaves(3);
        assert_eq!(
            compile_structured_dnnf(&nta, &tree).unwrap_err(),
            StructuredDnnfError::NondeterministicAutomaton
        );
        // After determinization it compiles, and agrees with the NTA.
        let (dta, _) = nta.determinize();
        let s = compile_structured_dnnf(&dta, &tree).unwrap();
        let prob = |_: usize| Rational::one_half();
        assert_eq!(
            s.probability(&prob),
            acceptance_probability_bruteforce(&nta, &tree, &prob)
        );
    }

    #[test]
    fn shared_event_is_rejected() {
        let automaton = parity_automaton(2);
        let mut tree = uncertain_leaves(3);
        // Make two leaves share event 0.
        let leaves: Vec<NodeId> = (0..tree.tree().node_count())
            .map(NodeId)
            .filter(|&n| tree.tree().is_leaf(n))
            .collect();
        tree.set_event(leaves[1], 0, 1, 0);
        assert_eq!(
            compile_structured_dnnf(&automaton, &tree).unwrap_err(),
            StructuredDnnfError::SharedEvent { event: 0 }
        );
    }

    #[test]
    fn internal_node_events_and_fixed_leaves() {
        // A tree whose internal node is controlled by an event switching the
        // internal label between 3 (the parity-combining label of
        // `parity_automaton(3)`) and 2 (no transitions: the automaton
        // rejects when event 9 is false, since no run exists).
        let mut t = BinaryTree::new();
        let a = t.leaf(1);
        let b = t.leaf(0);
        let root = t.internal(3, a, b);
        t.set_root(root);
        let mut u = UncertainTree::certain(t);
        u.set_event(root, 9, 3, 2);
        let automaton = parity_automaton(3);
        let s = compile_structured_dnnf(&automaton, &u).unwrap();
        assert!(s.dnnf().is_smooth());
        assert!(s.vtree().respects(s.dnnf().circuit()).is_ok());
        assert_eq!(s.universe(), &[9]);
        // Accepts iff event 9 is true (one 1-leaf, odd).
        assert_eq!(s.model_count().to_u64(), Some(1));
        let one_third = Rational::from_ratio_u64(1, 3);
        assert_eq!(s.probability(&|_| one_third.clone()), one_third);
    }

    #[test]
    fn certain_tree_compiles_to_a_constant() {
        let automaton = parity_automaton(2);
        let tree = UncertainTree::certain(BinaryTree::comb(&[1, 0, 1], 2));
        let s = compile_structured_dnnf(&automaton, &tree).unwrap();
        assert!(s.universe().is_empty());
        assert_eq!(s.model_count().to_u64(), Some(0)); // two 1s: even
        let tree = UncertainTree::certain(BinaryTree::comb(&[1, 0, 0], 2));
        let s = compile_structured_dnnf(&automaton, &tree).unwrap();
        assert_eq!(s.model_count().to_u64(), Some(1));
        assert!(s.probability(&|_| Rational::one_half()).is_one());
    }
}
