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

use crate::automaton::{State, TreeAutomaton};
use crate::tree::{NodeAnnotation, NodeId, UncertainTree};
use std::collections::BTreeMap;
use treelineage_circuit::{Circuit, Dnnf, Gate, GateId, ScaledWeights, Vtree, VtreeId};
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

/// Checks the two preconditions of the construction, in this order: the
/// automaton is deterministic, and no event controls two nodes. Both
/// compilers (this crate's and the fragment-parallel engine's) run exactly
/// this check, so they fail on the same inputs with the same errors.
pub fn check_compilable(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
) -> Result<(), StructuredDnnfError> {
    if !automaton.is_deterministic() {
        return Err(StructuredDnnfError::NondeterministicAutomaton);
    }
    let mut seen_events: BTreeMap<usize, usize> = BTreeMap::new();
    for node in 0..tree.tree().node_count() {
        if let NodeAnnotation::Event { event, .. } = tree.annotation(NodeId(node)) {
            *seen_events.entry(event).or_insert(0) += 1;
        }
    }
    match seen_events.iter().find(|(_, &count)| count > 1) {
        Some((&event, _)) => Err(StructuredDnnfError::SharedEvent { event }),
        None => Ok(()),
    }
}

/// Compiles the provenance of a deterministic automaton on an uncertain tree
/// directly into a certified smooth d-SDNNF (see the module docs for the
/// invariants and why they hold). Rejects nondeterministic automata and
/// events shared between nodes; determinize / re-event first in those cases.
pub fn compile_structured_dnnf(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
) -> Result<StructuredDnnf, StructuredDnnfError> {
    check_compilable(automaton, tree)?;
    let mut circuit = Circuit::new();
    circuit.constant(false);
    circuit.constant(true);
    let mut vtree = Vtree::new();
    let root = compile_subtree(
        automaton,
        tree,
        tree.tree().root(),
        &mut circuit,
        &mut vtree,
    );
    let output = root.output(automaton, &mut circuit);
    circuit.set_output(output);
    if let Some(v) = root.vnode {
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

/// The constant gates every arena of the construction holds at fixed ids.
const FALSE: GateId = GateId(0);
const TRUE: GateId = GateId(1);

/// What the construction knows about one compiled tree node: the gate of
/// each of its *live* states, and the vtree node covering its subtree's
/// events.
///
/// A state is live at a node when some valuation of the subtree's events
/// gives the node that state. Only live states get a gate; an absent state
/// stands for the constant false. A node's live states are a tiny subset
/// of the automaton's states (which, for the lazily materialized machines
/// of the encoding pipeline, number every state the machine has ever
/// interned), so each per-node step costs the product of its children's
/// live-state counts and never the automaton's size.
///
/// The gates refer to an arena that holds the constants false and true at
/// ids 0 and 1, as every circuit of this construction does.
#[derive(Clone, Debug)]
pub struct NodeGates {
    /// `(state, gate)` per live state, sorted by state. No gate is the
    /// constant false; a gate is the constant true only in an event-free
    /// subtree. Every other gate mentions exactly the subtree's events
    /// (the smoothness invariant).
    pub live: Vec<(State, GateId)>,
    /// The vtree node covering the subtree's events (`None` if the subtree
    /// has none).
    pub vnode: Option<VtreeId>,
}

impl NodeGates {
    /// Compiles a leaf: one gate per state the leaf's label (or either of
    /// its event's labels) leads to, in increasing state order.
    pub fn leaf(
        automaton: &TreeAutomaton,
        tree: &UncertainTree,
        node: NodeId,
        circuit: &mut Circuit,
        vtree: &mut Vtree,
    ) -> NodeGates {
        match tree.annotation(node) {
            NodeAnnotation::Fixed => NodeGates {
                live: automaton
                    .leaf_states(tree.tree().label(node))
                    .iter()
                    .map(|&q| (q, TRUE))
                    .collect(),
                vnode: None,
            },
            NodeAnnotation::Event {
                event,
                if_true,
                if_false,
            } => {
                let on_true = automaton.leaf_states(if_true);
                let on_false = automaton.leaf_states(if_false);
                let live = on_true
                    .union(on_false)
                    .map(|&q| {
                        let gate = match (on_true.contains(&q), on_false.contains(&q)) {
                            // Smoothness: the gate must mention the event, so
                            // a both-labels state compiles to the tautology
                            // e ∨ ¬e, not to true.
                            (true, true) => {
                                let v = circuit.var(event);
                                let nv = circuit.not(v);
                                circuit.or(vec![v, nv])
                            }
                            (true, false) => circuit.var(event),
                            _ => {
                                let v = circuit.var(event);
                                circuit.not(v)
                            }
                        };
                        (q, gate)
                    })
                    .collect();
                NodeGates {
                    live,
                    vnode: Some(vtree.leaf(event)),
                }
            }
        }
    }

    /// Compiles an internal node from its children's gates. Every run
    /// `(alternative, left state, right state)` found over the live child
    /// states, in that lexicographic order, becomes a conjunction guard ∧
    /// (left ∧ right); each target state then gets the OR of its
    /// conjunctions, ORs emitted in increasing state order. The gate stream
    /// is thereby a function of the live states alone.
    pub fn internal(
        automaton: &TreeAutomaton,
        tree: &UncertainTree,
        node: NodeId,
        left: &NodeGates,
        right: &NodeGates,
        circuit: &mut Circuit,
        vtree: &mut Vtree,
    ) -> NodeGates {
        // Guarded label alternatives, as in `provenance_circuit`.
        let (own_event, alternatives): (Option<usize>, Vec<(usize, Option<GateId>)>) =
            match tree.annotation(node) {
                NodeAnnotation::Fixed => (None, vec![(tree.tree().label(node), None)]),
                NodeAnnotation::Event {
                    event,
                    if_true,
                    if_false,
                } => {
                    let v = circuit.var(event);
                    let not_v = circuit.not(v);
                    (
                        Some(event),
                        vec![(if_true, Some(v)), (if_false, Some(not_v))],
                    )
                }
            };
        // (target state, conjunction) in discovery order.
        let mut runs: Vec<(State, GateId)> = Vec::new();
        for &(label, guard) in &alternatives {
            for &(ql, gl) in &left.live {
                for &(qr, gr) in &right.live {
                    for &q in automaton.internal_states(label, ql, qr) {
                        // Nested binary shape guard ∧ (gl ∧ gr): what the
                        // node's vtree split witnesses. True constants
                        // carry no scope and drop out.
                        let inner = match (gl == TRUE, gr == TRUE) {
                            (true, true) => None,
                            (false, true) => Some(gl),
                            (true, false) => Some(gr),
                            (false, false) => Some(circuit.and(vec![gl, gr])),
                        };
                        let conj = match (guard, inner) {
                            (None, None) => TRUE,
                            (None, Some(g)) => g,
                            (Some(gv), None) => gv,
                            (Some(gv), Some(g)) => circuit.and(vec![gv, g]),
                        };
                        runs.push((q, conj));
                    }
                }
            }
        }
        // A stable sort groups each state's conjunctions, keeping their
        // discovery order.
        runs.sort_by_key(|&(q, _)| q);
        let mut live = Vec::new();
        for group in runs.chunk_by(|a, b| a.0 == b.0) {
            let gate = match group {
                [(_, only)] => *only,
                _ => circuit.or(group.iter().map(|&(_, g)| g).collect()),
            };
            live.push((group[0].0, gate));
        }
        // Vtree split for this node: own event against the combined
        // children scopes (skipping event-free parts).
        let children_v = match (left.vnode, right.vnode) {
            (None, None) => None,
            (Some(l), None) => Some(l),
            (None, Some(r)) => Some(r),
            (Some(l), Some(r)) => Some(vtree.internal(l, r)),
        };
        let vnode = match (own_event, children_v) {
            (None, v) => v,
            (Some(e), None) => Some(vtree.leaf(e)),
            (Some(e), Some(v)) => {
                let leaf = vtree.leaf(e);
                Some(vtree.internal(leaf, v))
            }
        };
        NodeGates { live, vnode }
    }

    /// The output gate when this node is the root: the OR of its accepting
    /// live states' gates (false if there is none, the gate itself if
    /// there is one).
    pub fn output(&self, automaton: &TreeAutomaton, circuit: &mut Circuit) -> GateId {
        let accepting: Vec<GateId> = self
            .live
            .iter()
            .filter(|(q, _)| automaton.accepting_states().contains(q))
            .map(|&(_, g)| g)
            .collect();
        match accepting[..] {
            [] => FALSE,
            [only] => only,
            _ => circuit.or(accepting),
        }
    }
}

/// Compiles the subtree rooted at `root` into `circuit` and `vtree` (which
/// must hold the constants false and true at ids 0 and 1), in post-order,
/// and returns the root's [`NodeGates`]. A subtree's nodes are a contiguous
/// segment of the whole tree's post-order, so compiling a subtree into a
/// fresh arena produces the gates the whole-tree construction allocates
/// for it, shifted by one offset; the fragment-parallel engine relies on
/// this.
pub fn compile_subtree(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    root: NodeId,
    circuit: &mut Circuit,
    vtree: &mut Vtree,
) -> NodeGates {
    debug_assert_eq!(circuit.gate(FALSE), &Gate::Const(false));
    debug_assert_eq!(circuit.gate(TRUE), &Gate::Const(true));
    // In post-order, an internal node's children are the top two pending
    // entries, the right one on top.
    let mut pending: Vec<NodeGates> = Vec::new();
    for node in tree.tree().post_order_from(root) {
        let gates = if tree.tree().is_leaf(node) {
            NodeGates::leaf(automaton, tree, node, circuit, vtree)
        } else {
            let right = pending.pop().expect("post-order: right child first");
            let left = pending.pop().expect("post-order: left child first");
            NodeGates::internal(automaton, tree, node, &left, &right, circuit, vtree)
        };
        pending.push(gates);
    }
    debug_assert_eq!(pending.len(), 1);
    pending.pop().expect("the root is processed last")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{exists_one_automaton, parity_automaton};
    use crate::provenance::acceptance_probability_bruteforce;
    use crate::tree::BinaryTree;
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
