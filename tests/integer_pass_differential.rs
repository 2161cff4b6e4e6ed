//! The scaled-integer evaluation pass, pinned against oracles that share no
//! code with it — including at sizes brute-force worlds enumeration cannot
//! reach.
//!
//! Exact evaluation of the smooth d-SDNNFs (`ParallelDnnf`,
//! `StructuredDnnf`, `StructuredLineage`) runs one pass over integers on a
//! per-variable scale and divides once at the end. The oracles here are:
//!
//! * the gate-by-gate `Rational` pass [`Dnnf::probability`] on the *same
//!   raw circuit*, for probabilities `p = a/b` with `b ∈ [2, 16]`,
//!   including `p ∈ {0, 1}`;
//! * a gate-by-gate `Rational` weighted model count written out below
//!   ([`rational_wmc`]), for general weights including zero and negative
//!   ones, plus brute-force worlds on the small instances;
//! * constant outputs (event-free true, and false with and without events);
//! * the closed form `1 − ∏_i (1 − p_R(i) · p_S(i, i+1) · p_T(i+1))` of
//!   `R(x), S(x, y), T(y)` on chains of n = 200 and 400 links, computed in
//!   `Rational` without any circuit.
//!
//! Every check runs at `threads ∈ {1, 2, 8}` with a fragment grain small
//! enough to exercise the fragment-parallel branch of the pass.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage_automata::{parity_automaton, BinaryTree, NodeId, UncertainTree};
use treelineage_circuit::{Gate, VarId};
use treelineage_engine::compile_structured_dnnf_parallel;
use treelineage_instance::strategies as instance_strategies;

const THREADS: [usize; 3] = [1, 2, 8];

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

/// A well-mixed 64-bit hash (splitmix64), so per-fact values drawn from one
/// seed are independent-looking.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The probability of fact `v` under `seed`: `a/b` with `b ∈ [2, 16]`, and
/// `a = 0` or `a = b` (probability 0 or 1) a quarter of the time.
fn probability(seed: u64, v: VarId) -> Rational {
    let h = mix(seed ^ mix(v as u64));
    let b = 2 + h % 15;
    let a = match (h >> 8) % 8 {
        0 => 0,
        1 => b,
        _ => (h >> 16) % (b + 1),
    };
    Rational::from_ratio_u64(a, b)
}

/// A general literal weight: `n/d` with `n ∈ [-4, 4]` (zero and negative
/// included) and `d ∈ [1, 9]`.
fn weight(seed: u64, v: VarId) -> Rational {
    let h = mix(seed ^ mix(v as u64));
    Rational::from_ratio_i64((h % 9) as i64 - 4, 1 + (h >> 8) % 9)
}

fn engine_config(threads: usize) -> EngineConfig {
    let mut config = EngineConfig::with_threads(threads);
    // Small enough that even these instances cut into several fragments.
    config.fragment_grain = 6;
    // The union query's machine outgrows the default budget on the larger
    // random instances; the budget only caps, it changes no answer.
    config.state_budget = 1 << 16;
    config
}

/// A builder for `q` on `inst`, under `td` when given.
fn builder<'a>(
    q: &'a UnionOfConjunctiveQueries,
    inst: &'a Instance,
    td: Option<&TreeDecomposition>,
) -> LineageBuilder<'a> {
    let builder = LineageBuilder::new(q, inst).unwrap();
    match td {
        Some(td) => builder.with_decomposition(td.clone()).unwrap(),
        None => builder,
    }
}

/// The automaton-pipeline lineage of `q` on `inst`, compiled under `config`.
fn automaton_lineage(
    q: &UnionOfConjunctiveQueries,
    inst: &Instance,
    td: Option<&TreeDecomposition>,
    config: EngineConfig,
) -> AutomatonLineage {
    builder(q, inst, td)
        .with_engine_config(config)
        .automaton_lineage()
        .unwrap()
}

/// The reference weighted model count: a gate-by-gate `Rational` pass over
/// a *smooth* d-DNNF (every gate reduced as it is computed). Shares no code
/// with the integer pass.
fn rational_wmc(
    circuit: &Circuit,
    pos: &dyn Fn(VarId) -> Rational,
    neg: &dyn Fn(VarId) -> Rational,
) -> Rational {
    let constant = |b: bool| if b { Rational::one() } else { Rational::zero() };
    let mut values: Vec<Rational> = Vec::with_capacity(circuit.size());
    for id in circuit.gate_ids() {
        let value = match circuit.gate(id) {
            Gate::Var(v) => pos(*v),
            Gate::Const(b) => constant(*b),
            Gate::Not(i) => match circuit.gate(*i) {
                Gate::Var(v) => neg(*v),
                Gate::Const(b) => constant(!b),
                _ => unreachable!("d-DNNFs negate inputs only"),
            },
            Gate::And(inputs) => {
                let mut acc = Rational::one();
                for i in inputs {
                    acc *= &values[i.0];
                }
                acc
            }
            Gate::Or(inputs) => {
                let mut acc = Rational::zero();
                for i in inputs {
                    acc += &values[i.0];
                }
                acc
            }
        };
        values.push(value);
    }
    values[circuit.output().0].clone()
}

/// Brute-force weighted model count over every assignment of `universe`.
fn worlds_wmc(
    circuit: &Circuit,
    universe: &[VarId],
    pos: &dyn Fn(VarId) -> Rational,
    neg: &dyn Fn(VarId) -> Rational,
) -> Rational {
    assert!(universe.len() <= 12, "worlds oracle is exponential");
    let mut total = Rational::zero();
    for mask in 0u32..(1 << universe.len()) {
        let on = |v: VarId| {
            let i = universe.iter().position(|&u| u == v).unwrap();
            mask >> i & 1 == 1
        };
        if circuit.evaluate(&on) {
            let mut w = Rational::one();
            for &v in universe {
                w *= &if on(v) { pos(v) } else { neg(v) };
            }
            total += &w;
        }
    }
    total
}

/// The product of `factors` as a balanced tree of `Rational` products, so
/// the closed forms below reduce a few large products instead of hundreds.
fn product(factors: &[Rational]) -> Rational {
    match factors.len() {
        0 => Rational::one(),
        1 => factors[0].clone(),
        n => &product(&factors[..n / 2]) * &product(&factors[n / 2..]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Probability: the integer pass (fragment-parallel engine, sequential
    /// `StructuredDnnf`, smoothed `StructuredLineage`) equals the Rational
    /// `Dnnf::probability` of the same raw circuit.
    #[test]
    fn probability_matches_the_rational_pass(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 14, 2),
        qi in 0usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(inst.fact_count() > 0);
        let q = &queries()[qi];
        let prob = |v: VarId| probability(seed, v);
        let structured = builder(q, &inst, Some(&td)).structured_dnnf();
        prop_assert_eq!(structured.probability(&prob), structured.dnnf().probability(&prob));
        let mut oracle = None;
        for threads in THREADS {
            let lineage = automaton_lineage(q, &inst, Some(&td), engine_config(threads));
            let expected = oracle
                .get_or_insert_with(|| lineage.structured().dnnf().probability(&prob))
                .clone();
            prop_assert_eq!(lineage.structured().probability(&prob), expected.clone());
            prop_assert_eq!(lineage.probability(&prob), expected.clone(), "threads={}", threads);
            prop_assert_eq!(&structured.probability(&prob), &expected);
        }
    }

    /// General weights, zero and negative included: the integer pass equals
    /// the gate-by-gate Rational WMC, and brute-force worlds where they fit.
    #[test]
    fn wmc_matches_the_rational_pass_with_zero_and_negative_weights(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 10, 2),
        qi in 0usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(inst.fact_count() > 0);
        let q = &queries()[qi];
        let pos = |v: VarId| weight(seed, v);
        let neg = |v: VarId| weight(!seed, v);
        let structured = builder(q, &inst, Some(&td)).structured_dnnf();
        let expected = rational_wmc(structured.smoothed().circuit(), &pos, &neg);
        prop_assert_eq!(structured.wmc(&pos, &neg), expected.clone());
        prop_assert_eq!(structured.smoothed().wmc(&pos, &neg), expected.clone());
        if inst.fact_count() <= 12 {
            let worlds =
                worlds_wmc(structured.dnnf().circuit(), structured.universe(), &pos, &neg);
            prop_assert_eq!(&worlds, &expected);
        }
        for threads in THREADS {
            let lineage = automaton_lineage(q, &inst, Some(&td), engine_config(threads));
            let circuit = lineage.structured().dnnf().circuit();
            prop_assert_eq!(rational_wmc(circuit, &pos, &neg), expected.clone());
            prop_assert_eq!(lineage.structured().wmc(&pos, &neg), expected.clone());
            prop_assert_eq!(lineage.wmc(&pos, &neg), expected.clone(), "threads={}", threads);
        }
    }
}

/// A comb of `leaves` leaves, each controlled by its own event when
/// `uncertain` (label 1 if true, 0 if false) and fixed to `label` otherwise.
fn comb(leaves: usize, uncertain: bool, label: usize) -> UncertainTree {
    let tree = BinaryTree::comb(&vec![label; leaves], 2);
    let mut u = UncertainTree::certain(tree);
    if uncertain {
        let mut event = 0;
        for node in 0..u.tree().node_count() {
            if u.tree().is_leaf(NodeId(node)) {
                u.set_event(NodeId(node), event, 1, 0);
                event += 1;
            }
        }
    }
    u
}

#[test]
fn constant_outputs_evaluate_exactly() {
    let automaton = parity_automaton(2);
    let prob = |v: VarId| probability(7, v);
    let (pos, neg) = (|v: VarId| weight(7, v), |v: VarId| weight(8, v));
    for threads in THREADS {
        // Event-free trees: the output is a constant, the universe empty.
        // 101 leaves labelled 1 have odd parity (true), 100 even (false).
        for (leaves, accepted) in [(101usize, true), (100, false)] {
            let tree = comb(leaves, false, 1);
            let dnnf = compile_structured_dnnf_parallel(&automaton, &tree, &engine_config(threads))
                .unwrap();
            assert!(dnnf.structured().universe().is_empty());
            let circuit = dnnf.structured().dnnf().circuit();
            assert_eq!(circuit.gate(circuit.output()), &Gate::Const(accepted));
            let expected = if accepted {
                Rational::one()
            } else {
                Rational::zero()
            };
            assert_eq!(dnnf.probability(&prob, threads), expected);
            assert_eq!(dnnf.wmc(&pos, &neg, threads), expected);
            assert_eq!(
                dnnf.model_count(threads),
                BigUint::from_u64(accepted as u64)
            );
            assert_eq!(dnnf.structured().probability(&prob), expected);
        }
    }

    // Constant false over a non-empty universe: the query needs an `S`
    // fact and the instance has none.
    let mut inst = Instance::new(sig());
    inst.add_fact_by_name("L", &[0]);
    inst.add_fact_by_name("R", &[0, 1]);
    inst.add_fact_by_name("R", &[1, 2]);
    let q = parse_query(&sig(), "R(x, y), S(y, z)").unwrap();
    for threads in THREADS {
        let lineage = automaton_lineage(&q, &inst, None, engine_config(threads));
        assert_eq!(lineage.structured().universe().len(), 3);
        let circuit = lineage.structured().dnnf().circuit();
        assert_eq!(circuit.gate(circuit.output()), &Gate::Const(false));
        assert!(lineage.probability(&prob).is_zero());
        assert!(lineage.wmc(&pos, &neg).is_zero());
        assert!(lineage.model_count().is_zero());
    }
    let structured = builder(&q, &inst, None).structured_dnnf();
    assert!(structured.probability(&prob).is_zero());
    assert!(structured.wmc(&pos, &neg).is_zero());
}

#[test]
fn uncertain_comb_matches_the_rational_pass() {
    // A direct automaton circuit (no instance pipeline) with every leaf an
    // event: parity of 300 independent coins.
    let automaton = parity_automaton(2);
    let tree = comb(300, true, 0);
    let prob = |v: VarId| probability(11, v);
    let mut expected = None;
    for threads in THREADS {
        let dnnf =
            compile_structured_dnnf_parallel(&automaton, &tree, &engine_config(threads)).unwrap();
        assert_eq!(dnnf.partition().is_empty(), threads == 1);
        let exact = expected
            .get_or_insert_with(|| dnnf.structured().dnnf().probability(&prob))
            .clone();
        assert_eq!(dnnf.probability(&prob, threads), exact, "threads={threads}");
        // Half of all valuations have odd parity.
        assert_eq!(dnnf.model_count(threads), BigUint::pow2(299));
    }
}

/// `R(x), S(x, y), T(y)` on the chain `R(i), S(i, i+1), T(i+1)` for
/// `i < n`: the matches use pairwise disjoint facts, so they are
/// independent and the probability has a closed form.
#[test]
fn chains_match_the_closed_form() {
    let rst = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build();
    let q = parse_query(&rst, "R(x), S(x, y), T(y)").unwrap();
    for n in [200usize, 400] {
        let mut inst = Instance::new(rst.clone());
        let mut links = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let r = inst.add_fact_by_name("R", &[i]);
            let s = inst.add_fact_by_name("S", &[i, i + 1]);
            let t = inst.add_fact_by_name("T", &[i + 1]);
            links.push([r, s, t]);
        }
        // Strictly between 0 and 1, so no link is certain or impossible.
        let prob = |v: VarId| {
            let h = mix(n as u64 ^ mix(v as u64));
            let b = 2 + h % 15;
            Rational::from_ratio_u64(1 + (h >> 8) % (b - 1), b)
        };
        let misses: Vec<Rational> = links
            .iter()
            .map(|link| {
                let hit = link
                    .iter()
                    .fold(Rational::one(), |acc, f| &acc * &prob(f.0));
                hit.complement()
            })
            .collect();
        let expected = product(&misses).complement();
        // Models: all 2^{3n} valuations but the 7^n that miss every link.
        let models = &BigUint::pow2(3 * n) - &BigUint::from_u64(7).pow(n as u32);
        for threads in THREADS {
            let lineage = automaton_lineage(&q, &inst, None, EngineConfig::with_threads(threads));
            assert_eq!(
                lineage.probability(&prob),
                expected,
                "n={n} threads={threads}"
            );
            assert_eq!(lineage.model_count(), models, "n={n} threads={threads}");
        }
        // Far past any worlds oracle: the answer carries hundreds of bits.
        assert!(expected.denominator().bits() > 2 * n);
    }
}
