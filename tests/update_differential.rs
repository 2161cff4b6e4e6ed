//! Update differential suite (PR 10): incremental maintenance under
//! updates, pinned against a cold-recompiled oracle.
//!
//! Random interleaved sequences of `{insert_fact, retract_fact,
//! set_probability, batch_probability, batch_wmc, batch_model_count}` run
//! against an [`EvalSession`] while the test maintains a *shadow* of the
//! mutated state (a mirror [`Instance`] plus valuation, updated by the
//! same operations). After **every** step:
//!
//! * the session's incremental lineage artifact must be **byte-identical**
//!   (same gates at the same ids with the same operands, same vtree, same
//!   universe) to [`EvalSession::cold_lineage`] — a from-scratch compile of
//!   the mutated instance through the same query machine;
//! * every answer must equal the independent `ProbabilityEvaluator` on the
//!   shadow state exactly, and the brute-force possible-worlds oracle where
//!   feasible;
//! * typed update errors must agree with the free validation functions on
//!   the shadow, and rejected updates must leave every answer unchanged.
//!
//! The run is repeated at `threads ∈ {1, 8}` (plus `TREELINEAGE_THREADS`),
//! with a tiny fragment grain so the cut/merge/reuse path is exercised even
//! on small instances; 32 proptest cases × 2 thread counts ≥ 64 random
//! update sequences per suite run. A deterministic companion test pins the
//! cost claim: an incremental recompile touches strictly fewer fragments
//! than a cold compile on multi-fragment instances.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage::{validate_retract, ProbabilityRequest, WmcRequest};
use treelineage_engine::ParallelDnnf;
use treelineage_instance::{strategies as instance_strategies, Fact};
use treelineage_query::matching;

fn sig() -> Signature {
    Signature::builder()
        .relation("R", 2)
        .relation("S", 2)
        .relation("L", 1)
        .build()
}

fn queries() -> Vec<UnionOfConjunctiveQueries> {
    [
        "R(x, y), S(y, z)",
        "S(x, y), S(y, z), x != z",
        "L(x), R(x, y) | L(y), S(x, y)",
    ]
    .iter()
    .map(|t| parse_query(&sig(), t).unwrap())
    .collect()
}

/// The thread counts under test: the ISSUE's {1, 8} grid plus the CI
/// matrix value.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 8];
    if let Some(t) = std::env::var("TREELINEAGE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    counts
}

/// Gate-for-gate, node-for-node equality of two lineage artifacts — the
/// byte-identity contract of the incremental recompile.
fn assert_byte_identical(a: &ParallelDnnf, b: &ParallelDnnf, context: &str) {
    let (ac, bc) = (
        a.structured().dnnf().circuit(),
        b.structured().dnnf().circuit(),
    );
    assert_eq!(ac.size(), bc.size(), "circuit size, {context}");
    for id in ac.gate_ids() {
        assert_eq!(ac.gate(id), bc.gate(id), "gate {id:?}, {context}");
    }
    assert_eq!(ac.output(), bc.output(), "output, {context}");
    let (av, bv) = (a.structured().vtree(), b.structured().vtree());
    assert_eq!(av.node_count(), bv.node_count(), "vtree size, {context}");
    for i in 0..av.node_count() {
        assert_eq!(
            av.node(treelineage_circuit::VtreeId(i)),
            bv.node(treelineage_circuit::VtreeId(i)),
            "vtree node {i}, {context}"
        );
    }
    assert_eq!(av.root(), bv.root(), "vtree root, {context}");
    assert_eq!(
        a.structured().universe(),
        b.structured().universe(),
        "universe, {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleaved update/read sequences: the incremental artifact
    /// is byte-identical to a cold recompile of the mutated instance after
    /// every step, every answer equals the shadow oracle exactly, and
    /// typed errors agree with the free validation functions.
    #[test]
    fn random_update_sequences_match_cold_oracle(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0u8..17), 1..10),
    ) {
        prop_assume!(inst.fact_count() >= 2 && inst.fact_count() <= 10);
        let q = queries()[qi].clone();
        for threads in thread_counts() {
            let mut config = EngineConfig::with_threads(threads);
            // A tiny grain forces the cut/merge/reuse path even on these
            // small instances.
            config.fragment_grain = 4;
            let mut session = EvalSession::new(config);
            let qid = session.register_query(q.clone());
            let iid = session
                .register_instance_with_decomposition(inst.clone(), td.clone())
                .unwrap();
            // The shadow: a mirror instance + valuation maintained by the
            // same operations, and a pool of retracted facts available for
            // re-insertion (insertion of never-seen facts is exercised by
            // the session unit tests; here every accepted insert must keep
            // the pinned domain, which re-insertions do by construction).
            let mut mirror = inst.clone();
            let mut shadow_val = ProbabilityValuation::all_one_half(&inst);
            let mut pool: Vec<Fact> = Vec::new();
            let mut applied_structural = 0usize;
            // Warm the lineage so every structural update exercises
            // invalidation + incremental recompile rather than a cold start.
            session.lineage_artifact(qid, iid).unwrap();
            for &(kind, sel, val) in &ops {
                let p = Rational::from_ratio_u64(val as u64, 17);
                match kind {
                    0 => {
                        if pool.is_empty() {
                            // No retracted fact to re-add: a duplicate
                            // insert must be a typed rejection that leaves
                            // the state untouched.
                            let f = FactId(sel % mirror.fact_count());
                            let fact = mirror.fact(f).clone();
                            let err = session
                                .insert_fact(iid, fact.clone(), p.clone())
                                .unwrap_err();
                            prop_assert_eq!(err, UpdateError::DuplicateFact(f));
                        } else {
                            let fact = pool.remove(sel % pool.len());
                            let report =
                                session.insert_fact(iid, fact.clone(), p.clone()).unwrap();
                            prop_assert_eq!(report.kind, UpdateKind::Insert);
                            prop_assert!(report.structural && !report.no_op);
                            let id =
                                mirror.add_fact(fact.relation(), fact.arguments().to_vec());
                            shadow_val.push(p.clone());
                            prop_assert_eq!(report.fact, id);
                            applied_structural += 1;
                        }
                    }
                    1 => {
                        let f = FactId(sel % mirror.fact_count());
                        let expected = validate_retract(&mirror, f, true);
                        let got = session.retract_fact(iid, f);
                        match expected {
                            Ok(()) => {
                                let report = got.unwrap();
                                prop_assert_eq!(report.kind, UpdateKind::Retract);
                                let (fact, moved) = mirror.remove_fact(f);
                                shadow_val.swap_remove(f);
                                prop_assert_eq!(report.moved, moved);
                                pool.push(fact);
                                applied_structural += 1;
                            }
                            Err(e) => {
                                prop_assert_eq!(got.unwrap_err(), e);
                            }
                        }
                    }
                    2 => {
                        let f = FactId(sel % mirror.fact_count());
                        let report = session.set_probability(iid, f, p.clone()).unwrap();
                        prop_assert!(!report.structural);
                        prop_assert_eq!(
                            report.no_op,
                            shadow_val.probability(f) == &p,
                            "no_op must mean the value was already set"
                        );
                        shadow_val.set_probability(f, p.clone());
                    }
                    3 => {
                        let got = session.batch_probability(&[ProbabilityRequest {
                            query: qid,
                            instance: iid,
                            valuation: session.valuation(iid).clone(),
                        }])[0]
                            .clone()
                            .unwrap();
                        let expected = ProbabilityEvaluator::new(&mirror, &shadow_val)
                            .query_probability(&q)
                            .unwrap();
                        prop_assert_eq!(&got, &expected);
                        if mirror.fact_count() <= 10 {
                            let brute = shadow_val.probability_of(|world| {
                                matching::satisfied_in_world(&q, &mirror, world)
                            });
                            prop_assert_eq!(got, brute);
                        }
                    }
                    4 => {
                        let n = mirror.fact_count();
                        let pos: Vec<Rational> = (0..n)
                            .map(|j| Rational::from_ratio_u64(j as u64 + 2, 3))
                            .collect();
                        let neg: Vec<Rational> = (0..n)
                            .map(|j| Rational::from_ratio_u64(1, j as u64 + 1))
                            .collect();
                        let got = session.batch_wmc(&[WmcRequest {
                            query: qid,
                            instance: iid,
                            pos: pos.clone(),
                            neg: neg.clone(),
                        }])[0]
                            .clone()
                            .unwrap();
                        let expected = ProbabilityEvaluator::new(&mirror, &shadow_val)
                            .query_wmc(&q, &|f: FactId| pos[f.0].clone(), &|f: FactId| {
                                neg[f.0].clone()
                            })
                            .unwrap();
                        prop_assert_eq!(got, expected);
                    }
                    _ => {
                        let got = session.batch_model_count(&[(qid, iid)])[0]
                            .clone()
                            .unwrap();
                        let expected = ProbabilityEvaluator::new(&mirror, &shadow_val)
                            .model_count(&q)
                            .unwrap();
                        prop_assert_eq!(got, expected);
                    }
                }
                // The byte-identity contract, after every single step.
                let incremental = session.lineage_artifact(qid, iid).unwrap();
                let cold = session.cold_lineage(qid, iid).unwrap();
                assert_byte_identical(
                    &incremental,
                    &cold,
                    &format!("threads={threads} kind={kind}"),
                );
            }
            // The session's valuation tracked the shadow exactly, and every
            // applied structural update invalidated the (always-warm)
            // cached lineage exactly once.
            prop_assert_eq!(session.valuation(iid).len(), shadow_val.len());
            for j in 0..shadow_val.len() {
                prop_assert_eq!(
                    session.valuation(iid).probability(FactId(j)),
                    shadow_val.probability(FactId(j))
                );
            }
            prop_assert_eq!(session.stats().lineages_invalidated, applied_structural);
            prop_assert_eq!(session.instance_epoch(iid) >= applied_structural as u64, true);
        }
    }
}

fn chain_sig() -> Signature {
    Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build()
}

fn chain_instance(n: usize) -> Instance {
    let mut inst = Instance::new(chain_sig());
    for i in 0..n as u64 {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    inst
}

/// The cost claim behind the update path, pinned via the session counters:
/// on a multi-fragment instance, a single-fact update recompiles strictly
/// fewer fragments than a cold compile (which recompiles all of them),
/// while staying byte-identical to it.
#[test]
fn incremental_update_recompiles_strictly_fewer_fragments_than_cold() {
    for threads in [2usize, 8] {
        let mut config = EngineConfig::with_threads(threads);
        config.fragment_grain = 4;
        let mut session = EvalSession::new(config);
        let q = parse_query(&chain_sig(), "R(x), S(x, y), T(y)").unwrap();
        let qid = session.register_query(q);
        let iid = session.register_instance(chain_instance(8));
        let warm = session.lineage_artifact(qid, iid).unwrap();
        assert!(
            warm.partition().fragments().len() >= 2,
            "the test needs a multi-fragment instance"
        );
        session.retract_fact(iid, FactId(0)).unwrap();
        let incremental = session.lineage_artifact(qid, iid).unwrap();
        let stats = session.stats();
        let new_total = incremental.partition().fragments().len();
        assert!(stats.fragments_reused > 0, "threads={threads}");
        assert_eq!(
            stats.fragments_recompiled + stats.fragments_reused,
            new_total,
            "threads={threads}"
        );
        assert!(
            stats.fragments_recompiled < new_total,
            "update must touch strictly fewer fragments than cold, threads={threads}"
        );
        let cold = session.cold_lineage(qid, iid).unwrap();
        assert_byte_identical(&incremental, &cold, &format!("chain, threads={threads}"));
    }
}
