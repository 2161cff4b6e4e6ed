//! Parallel bottom-up subtree compilation with a **bit-identical** output
//! contract.
//!
//! Every bottom-up pass of the lineage pipeline — the automaton run, the
//! Theorem 6.11 d-SDNNF gate construction, and the evaluation passes over
//! the resulting circuit — has the same shape: disjoint subtrees are
//! independent, and only the "spine" of nodes above the chosen cut points
//! sequentializes. This module exploits that:
//!
//! 1. [`SubtreePlan`] cuts the tree into fragments of comparable size (one
//!    contiguous post-order segment each) plus the spine above them;
//! 2. worker threads compile fragments independently (scheduled by the
//!    work-stealing pool in `pool`);
//! 3. a deterministic merge replays each fragment into the global arenas
//!    **in global post-order**, then runs the spine sequentially.
//!
//! The determinism contract: because `Circuit` and `Vtree` are append-only
//! arenas and a subtree's nodes occupy a contiguous post-order segment, the
//! sequential construction allocates a fragment's gates as one contiguous id
//! block that references only the block itself plus the two constant gates.
//! Replaying fragments in post-order therefore reproduces the sequential
//! gate stream *byte for byte* — same gates, same ids, same operand order,
//! same output — at every thread count, with no iteration-order leakage
//! (worker completion order never influences ids; only the tree shape
//! does). Workers and the merge spine run the sequential compiler's own
//! per-node steps ([`compile_subtree`], [`NodeGates::internal`]), so the
//! construction has one definition; this module adds only the cut, the
//! replay and the merge. `tests` and the umbrella
//! `tests/parallel_differential.rs` pin the result gate-by-gate against
//! [`treelineage_automata::compile_structured_dnnf`], and
//! `tests/compile_golden.rs` pins both against recorded gate streams.
//!
//! The evaluation passes reuse the same partition: each fragment's gate
//! range is self-contained, so workers evaluate ranges concurrently and the
//! spine finishes on the caller's thread.
//!
//! Exact evaluation ([`ParallelDnnf::probability`] / [`ParallelDnnf::wmc`] /
//! [`ParallelDnnf::model_count`]) is **one scaled-integer pass**. The
//! circuit is smooth by construction — every non-false gate mentions
//! exactly the events of its subtree — so each event's two literal weights
//! are put on a common integer scale `L_v` once per request
//! ([`ScaledWeights`]: `(a_v, d_v − a_v)` on scale `d_v` for a probability
//! `a_v / d_v`, unit weights for model counting), the pass adds at OR and
//! multiplies at AND over signed integers (`BigInt`: weighted model counts
//! take negative weights), and the output is divided once by `∏_v L_v`.
//! Every OR child carries the same factor `∏_{v ∈ S} L_v` of its common
//! scope `S` and every AND multiplies its children's disjoint factors, so
//! the output carries exactly `∏_{v ∈ universe} L_v`, and the single final
//! reduction returns the same canonical `Rational` a gate-by-gate rational
//! pass would — with no gcd per gate. Integer arithmetic is exact and
//! associative, so the value is identical at every thread count, not
//! merely close. The pass runs under one `eval_exact` telemetry span.

use crate::pool::run_tasks;
use crate::EngineConfig;
use std::collections::HashMap;
use treelineage_automata::{
    check_compilable, compile_structured_dnnf_traced, compile_subtree, BinaryTree, NodeAnnotation,
    NodeGates, NodeId, State, StructuredDnnf, StructuredDnnfError, TreeAutomaton, UncertainTree,
};
use treelineage_circuit::{
    Circuit, Dnnf, Gate, GateId, ScaledWeights, VarId, Vtree, VtreeId, VtreeNode,
};
use treelineage_num::{BigInt, BigUint, ErrorInterval, Rational};
use treelineage_telemetry::Telemetry;

/// Fragments below this size are not worth a task of their own: the replay
/// and scheduling overhead would exceed the construction work.
const MIN_FRAGMENT_NODES: usize = 64;

/// A partition of the tree into disjoint subtrees ("fragments") plus the
/// spine of nodes above all cut points. Fragment roots are the cut points;
/// every node belongs to exactly one fragment or to the spine.
#[derive(Clone, Debug)]
pub(crate) struct SubtreePlan {
    /// Cut points (fragment roots), each owning its whole subtree.
    pub(crate) cuts: Vec<NodeId>,
    /// `owner[node] = Some(i)` if the node lies in fragment `i` (including
    /// its root), `None` for spine nodes.
    pub(crate) owner: Vec<Option<u32>>,
}

impl SubtreePlan {
    /// Cuts `tree` into at least two fragments of roughly
    /// `node_count / (threads * 4)` nodes each (never below
    /// [`MIN_FRAGMENT_NODES`]; `grain_override > 0` fixes the grain
    /// explicitly), or returns `None` when the tree is too small to be
    /// worth splitting. The plan depends only on the tree shape and the
    /// grain — never on scheduling — so the merge order is deterministic.
    pub(crate) fn cut(
        tree: &BinaryTree,
        threads: usize,
        grain_override: usize,
    ) -> Option<SubtreePlan> {
        let n = tree.node_count();
        if threads <= 1 {
            return None;
        }
        let grain = if grain_override > 0 {
            grain_override
        } else if n < 2 * MIN_FRAGMENT_NODES {
            return None;
        } else {
            // 4 fragments per worker gives the work-stealing pool enough
            // slack to balance subtrees of unequal size.
            (n / (threads * 4)).max(MIN_FRAGMENT_NODES)
        };
        let mut sizes = vec![0usize; n];
        for node in tree.post_order() {
            sizes[node.0] = match tree.children(node) {
                None => 1,
                Some((l, r)) => 1 + sizes[l.0] + sizes[r.0],
            };
        }
        let mut cuts = Vec::new();
        let mut owner: Vec<Option<u32>> = vec![None; n];
        let mut stack = vec![tree.root()];
        while let Some(node) = stack.pop() {
            if sizes[node.0] <= grain {
                let index = cuts.len() as u32;
                cuts.push(node);
                for member in tree.post_order_from(node) {
                    owner[member.0] = Some(index);
                }
            } else {
                // A node larger than the grain has children (leaves have
                // size 1 ≤ grain); it stays on the spine.
                let (l, r) = tree.children(node).expect("grain ≥ 1 keeps leaves cut");
                stack.push(r);
                stack.push(l);
            }
        }
        if cuts.len() < 2 {
            return None;
        }
        Some(SubtreePlan { cuts, owner })
    }
}

/// The fragment ranges of a circuit produced by the parallel compiler: each
/// `[start, end)` gate-id range is *self-contained* — gates in the range
/// reference only the range itself plus the two global constant gates — so
/// evaluation passes can process ranges on independent threads.
#[derive(Clone, Debug, Default)]
pub struct CircuitPartition {
    fragments: Vec<(usize, usize)>,
}

impl CircuitPartition {
    /// The self-contained `[start, end)` gate ranges.
    pub fn fragments(&self) -> &[(usize, usize)] {
        &self.fragments
    }

    /// `true` when the partition carries no parallelizable range (the
    /// circuit was compiled sequentially); evaluation then runs in one
    /// pass on the caller's thread.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// A certified smooth d-SDNNF plus the fragment partition of its circuit:
/// the artifact of [`compile_structured_dnnf_parallel`]. Dereference to the
/// wrapped [`StructuredDnnf`] for the circuit/vtree accessors; the
/// evaluation methods here take a thread count and run the bottom-up pass
/// fragment-parallel (exact arithmetic, so results equal the sequential
/// pass at every thread count).
#[derive(Clone, Debug)]
pub struct ParallelDnnf {
    structured: StructuredDnnf,
    partition: CircuitPartition,
    /// Observes the evaluation passes (pool task/steal counters); carried
    /// from the compiling config so cached artifacts keep reporting into
    /// the session's registry. Never influences any computed value.
    telemetry: Telemetry,
}

impl ParallelDnnf {
    /// Wraps a sequentially compiled artifact (empty partition: every
    /// evaluation runs sequentially; no telemetry sink).
    pub fn sequential(structured: StructuredDnnf) -> Self {
        ParallelDnnf {
            structured,
            partition: CircuitPartition::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the telemetry sink the evaluation passes record into.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The wrapped certified d-SDNNF.
    pub fn structured(&self) -> &StructuredDnnf {
        &self.structured
    }

    /// The fragment partition of the circuit.
    pub fn partition(&self) -> &CircuitPartition {
        &self.partition
    }

    /// Number of gates of the circuit.
    pub fn size(&self) -> usize {
        self.structured.size()
    }

    /// Acceptance probability under independent event probabilities: the
    /// scaled-integer pass (see the module docs), fragment-parallel over
    /// `threads` workers.
    pub fn probability(
        &self,
        prob: &(dyn Fn(usize) -> Rational + Sync),
        threads: usize,
    ) -> Rational {
        self.exact(threads, |universe| {
            ScaledWeights::probability(universe, prob)
        })
    }

    /// Weighted model count with general per-literal weights (any sign; the
    /// circuit is smooth by construction, so one pass suffices):
    /// the scaled-integer pass, fragment-parallel.
    pub fn wmc(
        &self,
        pos: &(dyn Fn(usize) -> Rational + Sync),
        neg: &(dyn Fn(usize) -> Rational + Sync),
        threads: usize,
    ) -> Rational {
        self.exact(threads, |universe| ScaledWeights::wmc(universe, pos, neg))
    }

    /// Number of accepting event valuations: the scaled-integer pass under
    /// unit weights, fragment-parallel.
    pub fn model_count(&self, threads: usize) -> BigUint {
        let count = self.exact(threads, ScaledWeights::unit);
        count.numerator().magnitude().clone()
    }

    /// Converts the weights over the universe (the output's scope: every
    /// non-false gate mentions exactly its subtree's events, and the
    /// output's subtree is the whole tree), runs the integer pass and
    /// divides once, all under one `eval_exact` span.
    fn exact(&self, threads: usize, weights: impl FnOnce(&[usize]) -> ScaledWeights) -> Rational {
        let _span = self.telemetry.span("eval_exact");
        let weights = weights(self.structured.universe());
        let total = run_pass(
            self.structured.dnnf().circuit(),
            &self.partition,
            threads,
            &self.telemetry,
            &ScaledPass { weights: &weights },
        );
        weights.unscale(total)
    }

    /// The float fast-path of [`ParallelDnnf::probability`]: the same
    /// fragment-parallel pass in certified [`ErrorInterval`] arithmetic.
    /// The returned interval is guaranteed to contain the exact rational
    /// answer, and — like every pass here — it is *identical at every
    /// thread count*: each gate's interval depends only on its input gates'
    /// intervals and the fixed operand order, and parallelism only changes
    /// which thread computes a gate, never the gate's inputs. The pass,
    /// leaf conversions included, runs under one `eval_interval` span.
    pub fn probability_interval(
        &self,
        prob: &(dyn Fn(usize) -> ErrorInterval + Sync),
        threads: usize,
    ) -> ErrorInterval {
        let _span = self.telemetry.span("eval_interval");
        run_pass(
            self.structured.dnnf().circuit(),
            &self.partition,
            threads,
            &self.telemetry,
            &IntervalProbabilityPass { prob },
        )
    }

    /// The float fast-path of [`ParallelDnnf::wmc`], with the same
    /// containment and thread-count-independence guarantees as
    /// [`ParallelDnnf::probability_interval`], under one `eval_interval`
    /// span.
    pub fn wmc_interval(
        &self,
        pos: &(dyn Fn(usize) -> ErrorInterval + Sync),
        neg: &(dyn Fn(usize) -> ErrorInterval + Sync),
        threads: usize,
    ) -> ErrorInterval {
        let _span = self.telemetry.span("eval_interval");
        run_pass(
            self.structured.dnnf().circuit(),
            &self.partition,
            threads,
            &self.telemetry,
            &IntervalWmcPass { pos, neg },
        )
    }
}

/// A compiled fragment: the gates and vtree nodes the sequential
/// construction would allocate for this subtree, with local ids (constants
/// at 0/1, everything else offset by 2 at replay time).
struct Fragment {
    circuit: Circuit,
    vtree: Vtree,
    /// The fragment root's live-state gates and vtree node (local ids).
    root: NodeGates,
}

/// The full post-order content of a fragment subtree — `(label, is-leaf,
/// event annotation)` per node. Two subtrees with equal keys have equal
/// shape, labels and events, so [`compile_fragment`] produces byte-identical
/// output for them (its gate stream is a pure function of this content and
/// the automaton's memoized transitions). Keys are compared in full — no
/// hash shortcut decides reuse.
type FragmentKey = Vec<(usize, bool, Option<(usize, usize, usize)>)>;

fn fragment_key(tree: &UncertainTree, root: NodeId) -> FragmentKey {
    tree.tree()
        .post_order_from(root)
        .into_iter()
        .map(|node| {
            let annotation = match tree.annotation(node) {
                NodeAnnotation::Fixed => None,
                NodeAnnotation::Event {
                    event,
                    if_true,
                    if_false,
                } => Some((event, if_true, if_false)),
            };
            (
                tree.tree().label(node),
                tree.tree().is_leaf(node),
                annotation,
            )
        })
        .collect()
}

/// Compiled fragments of one artifact, keyed by subtree content: the unit
/// of reuse for incremental recompilation. After an update, fragments whose
/// post-order content (shape, labels, events) is unchanged hit the library
/// and skip [`compile_fragment`] entirely; only dirty fragments recompile,
/// and the deterministic merge replays as usual. Validity is the caller's
/// contract: a library may only be replayed against the *same* compiled
/// query machine that produced it (state numbering is machine-history
/// dependent) — the session layer guards this.
#[derive(Clone, Default)]
pub(crate) struct FragmentLibrary {
    fragments: HashMap<FragmentKey, std::sync::Arc<Fragment>>,
}

impl FragmentLibrary {
    /// Number of fragments held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.fragments.len()
    }
}

/// How much of a cached compile was reused vs recompiled — the dirty-set
/// accounting behind the session's `fragments_recompiled` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RecompileStats {
    /// Fragments in the plan (0 for a sequential compile).
    pub(crate) total: usize,
    /// Fragments served from the library.
    pub(crate) reused: usize,
    /// Fragments compiled fresh (dirty, or no library offered).
    pub(crate) recompiled: usize,
}

/// The artifact of [`compile_with_pool_cached`]: the compiled d-SDNNF, the
/// fragment library to seed the *next* incremental compile with, and the
/// reuse accounting.
pub(crate) struct CachedCompile {
    pub(crate) artifact: ParallelDnnf,
    pub(crate) library: FragmentLibrary,
    pub(crate) stats: RecompileStats,
}

/// Compiles the provenance of a deterministic automaton on an uncertain
/// tree into a certified smooth d-SDNNF, splitting the tree into disjoint
/// subtrees compiled on `config.threads` worker threads. The output is
/// byte-identical to [`treelineage_automata::compile_structured_dnnf`] at
/// every thread count (see the module docs for why); with `threads <= 1` or
/// a small tree it simply delegates to the sequential compiler.
pub fn compile_structured_dnnf_parallel(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    config: &EngineConfig,
) -> Result<ParallelDnnf, StructuredDnnfError> {
    compile_with_pool(automaton, tree, config, config.threads)
}

/// [`compile_structured_dnnf_parallel`] with the fragment *plan*
/// (`config.threads`) decoupled from the worker pool actually used
/// (`pool_threads`). The session layer compiles with `pool_threads = 1`
/// when a batch already saturates the pool with one task per (query,
/// instance) pair — the cached artifact still carries the partition its
/// session-level thread count plans for, so later lone-request batches get
/// fragment-parallel evaluation. The output is identical either way: the
/// plan, not the pool, determines every id.
pub(crate) fn compile_with_pool(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    config: &EngineConfig,
    pool_threads: usize,
) -> Result<ParallelDnnf, StructuredDnnfError> {
    compile_with_pool_cached(automaton, tree, config, pool_threads, None).map(|c| c.artifact)
}

/// [`compile_with_pool`] with fragment reuse: fragments of `previous` whose
/// subtree content is unchanged are replayed instead of recompiled, and the
/// output is **byte-identical** to a compile without the library (same
/// gates, ids, operand order, vtree) — reuse changes which thread produces
/// a block of gates, never the gates. Preconditions on `previous` (enforced
/// by the session layer): it was produced by this function against the same
/// compiled query machine.
pub(crate) fn compile_with_pool_cached(
    automaton: &TreeAutomaton,
    tree: &UncertainTree,
    config: &EngineConfig,
    pool_threads: usize,
    previous: Option<&FragmentLibrary>,
) -> Result<CachedCompile, StructuredDnnfError> {
    let telemetry = &config.telemetry;
    let plan = match SubtreePlan::cut(tree.tree(), config.threads, config.fragment_grain) {
        Some(plan) => plan,
        None => {
            return compile_structured_dnnf_traced(automaton, tree, telemetry).map(|s| {
                CachedCompile {
                    artifact: ParallelDnnf::sequential(s).with_telemetry(telemetry.clone()),
                    library: FragmentLibrary::default(),
                    stats: RecompileStats::default(),
                }
            })
        }
    };
    // The sequential compiler's validation: the parallel path must fail on
    // exactly the inputs (and with exactly the errors) it fails on.
    check_compilable(automaton, tree)?;

    // Phase 1: fragments, in parallel — but first settle, per cut, whether
    // the library already holds this subtree's compile. The key is the full
    // post-order content, so a hit is exactly "this subtree is untouched".
    let keys: Vec<FragmentKey> = plan
        .cuts
        .iter()
        .map(|&cut| fragment_key(tree, cut))
        .collect();
    let cached: Vec<Option<std::sync::Arc<Fragment>>> = keys
        .iter()
        .map(|key| previous.and_then(|lib| lib.fragments.get(key).cloned()))
        .collect();
    let dirty: Vec<usize> = (0..plan.cuts.len())
        .filter(|&i| cached[i].is_none())
        .collect();
    let stats = RecompileStats {
        total: plan.cuts.len(),
        reused: plan.cuts.len() - dirty.len(),
        recompiled: dirty.len(),
    };

    // Only dirty fragments hit the pool. Results land in dirty order, so
    // nothing downstream depends on completion order.
    let compiled: Vec<Fragment> = {
        let mut span = telemetry.span("dsdnnf_fragments");
        span.label("fragments", plan.cuts.len());
        span.label("reused", stats.reused);
        run_tasks(pool_threads, dirty.len(), telemetry, |j| {
            // On a pool worker this parents to the `dsdnnf_fragments` span
            // through the context captured at spawn time; inline it nests
            // via the caller's span stack. Either way: one connected trace.
            let mut fragment_span = telemetry.span("dsdnnf_fragment");
            fragment_span.label("fragment", dirty[j]);
            compile_fragment(automaton, tree, plan.cuts[dirty[j]])
        })
    };
    let mut compiled = compiled.into_iter();
    let fragments: Vec<std::sync::Arc<Fragment>> = cached
        .into_iter()
        .map(|slot| match slot {
            Some(fragment) => fragment,
            None => std::sync::Arc::new(compiled.next().expect("one compile per dirty cut")),
        })
        .collect();
    let library = FragmentLibrary {
        fragments: keys.into_iter().zip(fragments.iter().cloned()).collect(),
    };

    // Phase 2: deterministic merge — walk the global post-order, replay
    // each fragment at its root's position, run spine nodes inline.
    let _merge_span = telemetry.span("dsdnnf_merge");
    let mut circuit = Circuit::new();
    // The constants at ids 0 and 1, as in every arena of the construction
    // (the fragment replay maps its local constants onto these).
    circuit.constant(false);
    circuit.constant(true);
    let mut vtree = Vtree::new();
    let mut partition = CircuitPartition::default();
    // Live-state gates of the *pending* nodes (fragment roots and spine
    // nodes whose parent has not been processed yet).
    let mut pending: HashMap<usize, NodeGates> = HashMap::new();

    for node in tree.tree().post_order() {
        match plan.owner[node.0] {
            Some(fragment_index) => {
                if plan.cuts[fragment_index as usize] != node {
                    continue; // interior fragment node: already compiled by its worker
                }
                let fragment = &fragments[fragment_index as usize];
                let gate_offset = circuit.size();
                replay_circuit(&mut circuit, &fragment.circuit);
                partition.fragments.push((gate_offset, circuit.size()));
                let vtree_offset = vtree.node_count();
                replay_vtree(&mut vtree, &fragment.vtree);
                let root = &fragment.root;
                let live = root
                    .live
                    .iter()
                    .map(|&(q, g)| (q, shift_gate(g, gate_offset)))
                    .collect();
                let vnode = root.vnode.map(|v| VtreeId(vtree_offset + v.0));
                pending.insert(node.0, NodeGates { live, vnode });
            }
            None => {
                // Spine node: both children are pending (fragment roots or
                // spine nodes), so take their entries and run the
                // sequential per-node construction.
                let (left, right) = tree
                    .tree()
                    .children(node)
                    .expect("spine nodes are larger than any fragment, hence internal");
                let left = pending.remove(&left.0).expect("post-order: child first");
                let right = pending.remove(&right.0).expect("post-order: child first");
                let gates = NodeGates::internal(
                    automaton,
                    tree,
                    node,
                    &left,
                    &right,
                    &mut circuit,
                    &mut vtree,
                );
                pending.insert(node.0, gates);
            }
        }
    }

    let root = &pending[&tree.tree().root().0];
    let output = root.output(automaton, &mut circuit);
    circuit.set_output(output);
    if let Some(v) = root.vnode {
        vtree.set_root(v);
    }
    let dnnf = Dnnf::from_trusted_circuit(circuit)
        .expect("the structured construction is decomposable by construction");
    Ok(CachedCompile {
        artifact: ParallelDnnf {
            structured: StructuredDnnf::from_trusted_parts(dnnf, vtree, tree.events()),
            partition,
            telemetry: telemetry.clone(),
        },
        library,
        stats,
    })
}

/// Compiles one subtree exactly as the sequential compiler would
/// ([`compile_subtree`], the same per-node steps in the same order) into a
/// fresh arena. Constants occupy local gate ids 0 (false) and 1 (true) and
/// are the only out-of-block references a fragment may make.
fn compile_fragment(automaton: &TreeAutomaton, tree: &UncertainTree, root: NodeId) -> Fragment {
    let mut circuit = Circuit::new();
    circuit.constant(false);
    circuit.constant(true);
    let mut vtree = Vtree::new();
    let root = compile_subtree(automaton, tree, root, &mut circuit, &mut vtree);
    Fragment {
        circuit,
        vtree,
        root,
    }
}

/// Where a fragment's local gate lands in the global circuit when its
/// block is replayed at `offset`: the two constants are global, and every
/// other gate shifts by `offset - 2`.
fn shift_gate(g: GateId, offset: usize) -> GateId {
    if g.0 < 2 {
        g
    } else {
        GateId(offset + g.0 - 2)
    }
}

/// Replays a fragment's gates (skipping its two local constants) into the
/// global circuit. Allocation order is preserved, so the fragment's gate
/// `i ≥ 2` lands at global id `offset + i - 2` — exactly where the
/// sequential construction would have put it.
fn replay_circuit(global: &mut Circuit, fragment: &Circuit) {
    let offset = global.size();
    let map = |g: GateId| shift_gate(g, offset);
    for id in 2..fragment.size() {
        let new_id = match fragment.gate(GateId(id)) {
            // Fragment events are globally unique, so `var` always
            // allocates (the memo can never hit across fragments).
            Gate::Var(v) => global.var(*v),
            Gate::Const(_) => unreachable!("fragments hold constants only at ids 0 and 1"),
            Gate::Not(i) => global.not(map(*i)),
            Gate::And(inputs) => {
                let mapped: Vec<GateId> = inputs.iter().map(|&i| map(i)).collect();
                global.and(mapped)
            }
            Gate::Or(inputs) => {
                let mapped: Vec<GateId> = inputs.iter().map(|&i| map(i)).collect();
                global.or(mapped)
            }
        };
        debug_assert_eq!(new_id, map(GateId(id)));
    }
}

/// Replays a fragment's vtree nodes into the global vtree (append-only, so
/// local node `i` lands at global id `offset + i`; leaf spans stay adjacent
/// because leaves are appended in the same order).
fn replay_vtree(global: &mut Vtree, fragment: &Vtree) {
    let offset = global.node_count();
    for i in 0..fragment.node_count() {
        match fragment.node(VtreeId(i)) {
            VtreeNode::Leaf(v) => global.leaf(v),
            VtreeNode::Internal(l, r) => {
                global.internal(VtreeId(offset + l.0), VtreeId(offset + r.0))
            }
        };
    }
}

/// The automaton run itself, fragment-parallel: the states reachable at
/// every node of the tree, equal (as sets) to
/// [`TreeAutomaton::reachable_states`] at every thread count.
pub fn parallel_reachable_states(
    automaton: &TreeAutomaton,
    tree: &BinaryTree,
    threads: usize,
) -> Vec<std::collections::BTreeSet<State>> {
    use std::collections::BTreeSet;
    let plan = match SubtreePlan::cut(tree, threads, 0) {
        Some(plan) => plan,
        None => return automaton.reachable_states(tree),
    };
    let run_subtree = |root: NodeId| -> Vec<(usize, BTreeSet<State>)> {
        let order = tree.post_order_from(root);
        let mut local: HashMap<usize, BTreeSet<State>> = HashMap::with_capacity(order.len());
        for node in order.iter().copied() {
            let label = tree.label(node);
            let states = match tree.children(node) {
                None => automaton.leaf_states(label).clone(),
                Some((l, r)) => {
                    let mut out = BTreeSet::new();
                    for &ls in &local[&l.0] {
                        for &rs in &local[&r.0] {
                            out.extend(automaton.internal_states(label, ls, rs));
                        }
                    }
                    out
                }
            };
            local.insert(node.0, states);
        }
        order
            .into_iter()
            .map(|n| (n.0, local.remove(&n.0).unwrap()))
            .collect()
    };
    let fragments = run_tasks(threads, plan.cuts.len(), &Telemetry::disabled(), |i| {
        run_subtree(plan.cuts[i])
    });
    let mut states: Vec<BTreeSet<State>> = vec![BTreeSet::new(); tree.node_count()];
    for fragment in fragments {
        for (node, set) in fragment {
            states[node] = set;
        }
    }
    for node in tree.post_order() {
        if plan.owner[node.0].is_some() {
            continue;
        }
        let label = tree.label(node);
        let (l, r) = tree
            .children(node)
            .expect("spine nodes are larger than any fragment, hence internal");
        let mut out = BTreeSet::new();
        for &ls in &states[l.0] {
            for &rs in &states[r.0] {
                out.extend(automaton.internal_states(label, ls, rs));
            }
        }
        states[node.0] = out;
    }
    states
}

// ---------------------------------------------------------------------------
// Fragment-parallel evaluation passes
// ---------------------------------------------------------------------------

/// One bottom-up evaluation semantics over d-SDNNF gates; implementors
/// mirror the corresponding `Dnnf` pass exactly (same per-gate operations,
/// and per-gate determinism makes the thread count irrelevant), so the
/// parallel result equals the sequential one.
trait GatePass: Sync {
    type Value: Clone + Send;
    fn constant(&self, value: bool) -> Self::Value;
    fn var(&self, v: VarId) -> Self::Value;
    /// Value of `Not(inner)` given the inner gate and its value.
    fn not(&self, circuit: &Circuit, inner: GateId, inner_value: &Self::Value) -> Self::Value;
    /// Value of an AND gate from its inputs' values, in operand order.
    fn and<'v>(&self, inputs: impl Iterator<Item = &'v Self::Value>) -> Self::Value
    where
        Self::Value: 'v;
    /// Value of an OR gate from its inputs' values, in operand order.
    fn or<'v>(&self, inputs: impl Iterator<Item = &'v Self::Value>) -> Self::Value
    where
        Self::Value: 'v;
}

/// The exact pass: signed integers on the per-variable scale of
/// `weights`. Nothing is reduced per gate; the caller divides the output
/// once by the weights' scale.
struct ScaledPass<'a> {
    weights: &'a ScaledWeights,
}

impl GatePass for ScaledPass<'_> {
    type Value = BigInt;
    fn constant(&self, value: bool) -> BigInt {
        if value {
            BigInt::one()
        } else {
            BigInt::zero()
        }
    }
    fn var(&self, v: VarId) -> BigInt {
        self.weights.literal(v, true)
    }
    fn not(&self, circuit: &Circuit, inner: GateId, _inner_value: &BigInt) -> BigInt {
        match circuit.gate(inner) {
            Gate::Var(v) => self.weights.literal(*v, false),
            Gate::Const(b) => self.constant(!b),
            _ => unreachable!("d-SDNNFs negate inputs only"),
        }
    }
    fn and<'v>(&self, mut inputs: impl Iterator<Item = &'v BigInt>) -> BigInt {
        // Start from the first input, not from one: a multiplication by one
        // would copy it anyway, at the price of a bignum product.
        match inputs.next() {
            Some(first) => inputs.fold(first.clone(), |acc, x| &acc * x),
            None => BigInt::one(),
        }
    }
    fn or<'v>(&self, inputs: impl Iterator<Item = &'v BigInt>) -> BigInt {
        inputs.fold(BigInt::zero(), |acc, x| &acc + x)
    }
}

/// The interval passes' AND: the outward-rounded product folded from `1`
/// in operand order, exactly as `Dnnf::probability_interval` folds it.
fn interval_product<'v>(inputs: impl Iterator<Item = &'v ErrorInterval>) -> ErrorInterval {
    inputs.fold(ErrorInterval::one(), |acc, x| acc.mul(x))
}

/// The interval passes' OR: the outward-rounded sum folded from `0`.
fn interval_sum<'v>(inputs: impl Iterator<Item = &'v ErrorInterval>) -> ErrorInterval {
    inputs.fold(ErrorInterval::zero(), |acc, x| acc.add(x))
}

struct IntervalProbabilityPass<'a> {
    prob: &'a (dyn Fn(VarId) -> ErrorInterval + Sync),
}

impl GatePass for IntervalProbabilityPass<'_> {
    type Value = ErrorInterval;
    fn constant(&self, value: bool) -> ErrorInterval {
        if value {
            ErrorInterval::one()
        } else {
            ErrorInterval::zero()
        }
    }
    fn var(&self, v: VarId) -> ErrorInterval {
        (self.prob)(v)
    }
    fn not(
        &self,
        _circuit: &Circuit,
        _inner: GateId,
        inner_value: &ErrorInterval,
    ) -> ErrorInterval {
        inner_value.complement()
    }
    fn and<'v>(&self, inputs: impl Iterator<Item = &'v ErrorInterval>) -> ErrorInterval {
        interval_product(inputs)
    }
    fn or<'v>(&self, inputs: impl Iterator<Item = &'v ErrorInterval>) -> ErrorInterval {
        interval_sum(inputs)
    }
}

struct IntervalWmcPass<'a> {
    pos: &'a (dyn Fn(VarId) -> ErrorInterval + Sync),
    neg: &'a (dyn Fn(VarId) -> ErrorInterval + Sync),
}

impl GatePass for IntervalWmcPass<'_> {
    type Value = ErrorInterval;
    fn constant(&self, value: bool) -> ErrorInterval {
        if value {
            ErrorInterval::one()
        } else {
            ErrorInterval::zero()
        }
    }
    fn var(&self, v: VarId) -> ErrorInterval {
        (self.pos)(v)
    }
    fn not(&self, circuit: &Circuit, inner: GateId, _inner_value: &ErrorInterval) -> ErrorInterval {
        match circuit.gate(inner) {
            Gate::Var(v) => (self.neg)(*v),
            Gate::Const(b) => self.constant(!b),
            _ => unreachable!("d-SDNNFs negate inputs only"),
        }
    }
    fn and<'v>(&self, inputs: impl Iterator<Item = &'v ErrorInterval>) -> ErrorInterval {
        interval_product(inputs)
    }
    fn or<'v>(&self, inputs: impl Iterator<Item = &'v ErrorInterval>) -> ErrorInterval {
        interval_sum(inputs)
    }
}

/// Evaluates the circuit bottom-up under `pass`: self-contained fragment
/// ranges on worker threads first, then one sweep on the caller's thread
/// for everything outside a fragment (spine gates and, when the partition
/// is empty, the whole circuit).
fn run_pass<P: GatePass>(
    circuit: &Circuit,
    partition: &CircuitPartition,
    threads: usize,
    telemetry: &Telemetry,
    pass: &P,
) -> P::Value {
    let n = circuit.size();
    let mut values: Vec<Option<P::Value>> = vec![None; n];
    if threads > 1 && partition.fragments.len() > 1 {
        let chunks = run_tasks(threads, partition.fragments.len(), telemetry, |fi| {
            let mut chunk_span = telemetry.span("eval_fragment");
            chunk_span.label("fragment", fi);
            let (start, end) = partition.fragments[fi];
            let cfalse = pass.constant(false);
            let ctrue = pass.constant(true);
            let mut buf: Vec<P::Value> = Vec::with_capacity(end - start);
            for id in start..end {
                let get = |i: GateId| -> &P::Value {
                    if i.0 >= start {
                        &buf[i.0 - start]
                    } else {
                        match circuit.gate(i) {
                            Gate::Const(true) => &ctrue,
                            Gate::Const(false) => &cfalse,
                            _ => unreachable!("fragment ranges are self-contained"),
                        }
                    }
                };
                let value = match circuit.gate(GateId(id)) {
                    Gate::Var(v) => pass.var(*v),
                    Gate::Const(b) => pass.constant(*b),
                    Gate::Not(i) => pass.not(circuit, *i, get(*i)),
                    Gate::And(inputs) => pass.and(inputs.iter().map(|&i| get(i))),
                    Gate::Or(inputs) => pass.or(inputs.iter().map(|&i| get(i))),
                };
                buf.push(value);
            }
            buf
        });
        for (fi, chunk) in chunks.into_iter().enumerate() {
            let (start, _) = partition.fragments[fi];
            for (offset, value) in chunk.into_iter().enumerate() {
                values[start + offset] = Some(value);
            }
        }
    }
    for id in 0..n {
        if values[id].is_some() {
            continue;
        }
        let input = |i: GateId| values[i.0].as_ref().expect("ids are topological");
        let value = match circuit.gate(GateId(id)) {
            Gate::Var(v) => pass.var(*v),
            Gate::Const(b) => pass.constant(*b),
            Gate::Not(i) => pass.not(circuit, *i, input(*i)),
            Gate::And(inputs) => pass.and(inputs.iter().map(|&i| input(i))),
            Gate::Or(inputs) => pass.or(inputs.iter().map(|&i| input(i))),
        };
        values[id] = Some(value);
    }
    values[circuit.output().0]
        .take()
        .expect("output gate was evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelineage_automata::{compile_structured_dnnf, strategies};

    /// Gate-by-gate equality (ids, kinds, operand order, output) plus vtree
    /// node equality — the byte-identity contract.
    fn assert_identical(parallel: &ParallelDnnf, sequential: &StructuredDnnf) {
        let pc = parallel.structured().dnnf().circuit();
        let sc = sequential.dnnf().circuit();
        assert_eq!(pc.size(), sc.size());
        for id in pc.gate_ids() {
            assert_eq!(pc.gate(id), sc.gate(id), "gate {id:?}");
        }
        assert_eq!(pc.output(), sc.output());
        let pv = parallel.structured().vtree();
        let sv = sequential.vtree();
        assert_eq!(pv.node_count(), sv.node_count());
        for i in 0..pv.node_count() {
            assert_eq!(pv.node(VtreeId(i)), sv.node(VtreeId(i)), "vtree node {i}");
        }
        assert_eq!(pv.root(), sv.root());
        assert_eq!(parallel.structured().universe(), sequential.universe());
    }

    /// A deep uncertain comb with every leaf controlled by its own event —
    /// large enough to be cut into several fragments.
    fn big_comb(n: usize) -> UncertainTree {
        let tree = BinaryTree::comb(&vec![0; n], 2);
        let mut u = UncertainTree::certain(tree);
        let mut event = 0;
        for node in 0..u.tree().node_count() {
            if u.tree().is_leaf(NodeId(node)) {
                u.set_event(NodeId(node), event, 1, 0);
                event += 1;
            }
        }
        u
    }

    #[test]
    fn plan_covers_every_node_exactly_once() {
        let tree = BinaryTree::comb(&vec![0; 400], 2);
        let plan = SubtreePlan::cut(&tree, 4, 0).expect("big tree must split");
        assert!(plan.cuts.len() >= 2);
        let mut covered = 0usize;
        for cut in &plan.cuts {
            covered += tree.post_order_from(*cut).len();
        }
        let spine = plan.owner.iter().filter(|o| o.is_none()).count();
        assert_eq!(covered + spine, tree.node_count());
        // Cut roots own themselves; spine nodes own nothing.
        for (i, cut) in plan.cuts.iter().enumerate() {
            assert_eq!(plan.owner[cut.0], Some(i as u32));
        }
    }

    #[test]
    fn small_trees_fall_back_to_sequential() {
        assert!(SubtreePlan::cut(&BinaryTree::comb(&[0, 1, 0], 2), 8, 0).is_none());
        let u = big_comb(3);
        let automaton = treelineage_automata::parity_automaton(2);
        let p = compile_structured_dnnf_parallel(&automaton, &u, &EngineConfig::with_threads(8))
            .unwrap();
        assert!(p.partition().is_empty());
    }

    #[test]
    fn parallel_compile_is_byte_identical_on_combs() {
        let automaton = treelineage_automata::parity_automaton(2);
        for n in [200usize, 333, 1000] {
            let u = big_comb(n);
            let sequential = compile_structured_dnnf(&automaton, &u).unwrap();
            for threads in [2usize, 3, 8] {
                let config = EngineConfig::with_threads(threads);
                let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
                assert!(!parallel.partition().is_empty(), "n={n} threads={threads}");
                assert_identical(&parallel, &sequential);
            }
        }
    }

    #[test]
    fn parallel_eval_matches_sequential_exactly() {
        let automaton = treelineage_automata::parity_automaton(2);
        let u = big_comb(500);
        let config = EngineConfig::with_threads(4);
        let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
        let sequential = compile_structured_dnnf(&automaton, &u).unwrap();
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 % 7 + 2);
        let neg = |e: usize| Rational::from_ratio_u64(1, e as u64 % 5 + 1);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                parallel.probability(&prob, threads),
                sequential.probability(&prob)
            );
            assert_eq!(
                parallel.wmc(&prob, &neg, threads),
                sequential.wmc(&prob, &neg)
            );
            assert_eq!(parallel.model_count(threads), sequential.model_count());
        }
    }

    #[test]
    fn interval_pass_contains_exact_and_is_thread_count_invariant() {
        let automaton = treelineage_automata::parity_automaton(2);
        let u = big_comb(500);
        let config = EngineConfig::with_threads(4);
        let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 % 7 + 2);
        let neg = |e: usize| Rational::from_ratio_u64(1, e as u64 % 5 + 1);
        let exact_p = parallel.probability(&prob, 1);
        let exact_w = parallel.wmc(&prob, &neg, 1);
        let iv = |f: &dyn Fn(usize) -> Rational, e: usize| ErrorInterval::from_rational(&f(e));
        let base_p = parallel.probability_interval(&|e| iv(&prob, e), 1);
        let base_w = parallel.wmc_interval(&|e| iv(&prob, e), &|e| iv(&neg, e), 1);
        assert!(base_p.contains(&exact_p));
        assert!(base_w.contains(&exact_w));
        for threads in [2usize, 8] {
            // Bit-identical endpoints at every thread count: the pass is
            // per-gate deterministic, so parallelism cannot move a bound.
            let p = parallel.probability_interval(&|e| iv(&prob, e), threads);
            let w = parallel.wmc_interval(&|e| iv(&prob, e), &|e| iv(&neg, e), threads);
            assert_eq!(p, base_p, "threads={threads}");
            assert_eq!(w, base_w, "threads={threads}");
        }
    }

    #[test]
    fn validation_errors_match_sequential() {
        let nta = treelineage_automata::exists_one_automaton(2);
        let u = big_comb(300);
        let config = EngineConfig::with_threads(4);
        assert_eq!(
            compile_structured_dnnf_parallel(&nta, &u, &config).unwrap_err(),
            StructuredDnnfError::NondeterministicAutomaton
        );
        let automaton = treelineage_automata::parity_automaton(2);
        let mut shared = big_comb(300);
        // Give two leaves the same event: rejected with the same error.
        let leaves: Vec<NodeId> = (0..shared.tree().node_count())
            .map(NodeId)
            .filter(|&n| shared.tree().is_leaf(n))
            .collect();
        shared.set_event(leaves[7], 3, 1, 0);
        assert_eq!(
            compile_structured_dnnf_parallel(&automaton, &shared, &config).unwrap_err(),
            compile_structured_dnnf(&automaton, &shared).unwrap_err()
        );
    }

    #[test]
    fn parallel_reachable_states_matches_sequential() {
        let automaton = treelineage_automata::exists_one_automaton(2);
        let u = big_comb(400);
        let concrete = u.instantiate(&|e| e % 3 == 0);
        let expected = automaton.reachable_states(&concrete);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                parallel_reachable_states(&automaton, &concrete, threads),
                expected,
                "threads={threads}"
            );
        }
    }

    /// A leaf owned by some fragment of the plan (not on the spine).
    fn fragment_leaf(u: &UncertainTree, plan: &SubtreePlan) -> NodeId {
        (0..u.tree().node_count())
            .map(NodeId)
            .find(|&n| u.tree().is_leaf(n) && plan.owner[n.0].is_some())
            .expect("a multi-fragment plan owns some leaf")
    }

    #[test]
    fn a_touched_node_dirties_exactly_its_owning_fragment() {
        let u = big_comb(400);
        let plan = SubtreePlan::cut(u.tree(), 4, 0).expect("big tree must split");
        let leaf = fragment_leaf(&u, &plan);
        let owner = plan.owner[leaf.0].unwrap() as usize;
        let before: Vec<FragmentKey> = plan.cuts.iter().map(|&c| fragment_key(&u, c)).collect();
        let mut mutated = u.clone();
        mutated.set_event(leaf, 9999, 1, 0);
        let after: Vec<FragmentKey> = plan
            .cuts
            .iter()
            .map(|&c| fragment_key(&mutated, c))
            .collect();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b == a, i != owner, "fragment {i}");
        }
    }

    #[test]
    fn cached_recompile_is_byte_identical_and_reuses_untouched_fragments() {
        let automaton = treelineage_automata::parity_automaton(2);
        let u = big_comb(400);
        let config = EngineConfig::with_threads(4);
        let first = compile_with_pool_cached(&automaton, &u, &config, 4, None).unwrap();
        let total = first.stats.total;
        assert!(total >= 2);
        assert_eq!(first.stats.reused, 0);
        assert_eq!(first.stats.recompiled, total);
        assert_eq!(first.library.len(), total);

        // Replaying the library against the unchanged tree is zero-dirty and
        // still byte-identical.
        let replay =
            compile_with_pool_cached(&automaton, &u, &config, 4, Some(&first.library)).unwrap();
        assert_eq!(replay.stats.recompiled, 0);
        assert_eq!(replay.stats.reused, total);
        assert_identical(
            &replay.artifact,
            &compile_structured_dnnf(&automaton, &u).unwrap(),
        );

        // Touch one fragment-owned leaf: exactly one fragment recompiles,
        // and the result equals a cold compile of the mutated tree.
        let plan = SubtreePlan::cut(u.tree(), 4, 0).unwrap();
        let leaf = fragment_leaf(&u, &plan);
        let mut mutated = u.clone();
        mutated.set_event(leaf, 9999, 1, 0);
        let second =
            compile_with_pool_cached(&automaton, &mutated, &config, 4, Some(&first.library))
                .unwrap();
        assert_eq!(second.stats.recompiled, 1);
        assert_eq!(second.stats.reused, total - 1);
        assert_identical(
            &second.artifact,
            &compile_structured_dnnf(&automaton, &mutated).unwrap(),
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn random_trees_compile_byte_identically(
            u in strategies::uncertain_tree(64, 3),
            automaton in strategies::deterministic_automaton(3, 4),
        ) {
            // Random trees are small, so pin a tiny fragment grain to force
            // the cut/merge path that a production-size tree would take.
            let sequential = match compile_structured_dnnf(&automaton, &u) {
                Ok(s) => s,
                Err(_) => return, // shared events: both paths reject (covered above)
            };
            for threads in [2usize, 4] {
                let mut config = EngineConfig::with_threads(threads);
                config.fragment_grain = 8;
                let parallel = compile_structured_dnnf_parallel(&automaton, &u, &config).unwrap();
                assert_identical(&parallel, &sequential);
                let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 % 3 + 2);
                assert_eq!(
                    parallel.probability(&prob, threads),
                    sequential.probability(&prob)
                );
                assert_eq!(parallel.model_count(threads), sequential.model_count());
            }
        }
    }
}
