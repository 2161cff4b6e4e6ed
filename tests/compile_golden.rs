//! Golden pin of the compiled lineage d-SDNNF: gate count, vtree node count
//! and FNV-1a digests of the gate stream and of the vtree, recorded once
//! and compared byte for byte ever after.
//!
//! `parallel_differential` only checks the fragment-parallel compiler
//! against the sequential one, so a change that rewrites both the same way
//! passes it. This suite instead compares against fixed reference values.
//!
//! State numbering depends on the query machine's memo history, so every
//! input is compiled in a fresh [`EvalSession`] with a fixed call order:
//! register the query, register the instance, compile. Each input runs at
//! `threads ∈ {1, 2, 8}` (plus `TREELINEAGE_THREADS`), which covers the
//! sequential compiler and two fragment plans. Then a `retract_fact` +
//! `insert_fact` round trip recompiles the pair through its fragment
//! library (at `threads > 1`), and that artifact is pinned too.

use treelineage::prelude::*;
use treelineage::validate_retract;
use treelineage_circuit::{Gate, VtreeNode};
use treelineage_engine::ParallelDnnf;
use treelineage_instance::encodings;

/// The size and digests of one compiled artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Golden {
    gates: usize,
    vtree_nodes: usize,
    gate_digest: u64,
    vtree_digest: u64,
}

/// 64-bit FNV-1a over a stream of words (each fed as 8 little-endian
/// bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn golden(artifact: &ParallelDnnf) -> Golden {
    let circuit = artifact.structured().dnnf().circuit();
    let mut gates = Fnv::new();
    for id in circuit.gate_ids() {
        match circuit.gate(id) {
            Gate::Var(v) => {
                gates.word(0);
                gates.word(*v as u64);
            }
            Gate::Const(b) => {
                gates.word(1);
                gates.word(u64::from(*b));
            }
            Gate::Not(g) => {
                gates.word(2);
                gates.word(g.0 as u64);
            }
            Gate::And(inputs) | Gate::Or(inputs) => {
                let kind = if matches!(circuit.gate(id), Gate::And(_)) {
                    3
                } else {
                    4
                };
                gates.word(kind);
                gates.word(inputs.len() as u64);
                for g in inputs {
                    gates.word(g.0 as u64);
                }
            }
        }
    }
    gates.word(circuit.output().0 as u64);

    let vtree = artifact.structured().vtree();
    let mut nodes = Fnv::new();
    for i in 0..vtree.node_count() {
        match vtree.node(treelineage_circuit::VtreeId(i)) {
            VtreeNode::Leaf(v) => {
                nodes.word(0);
                nodes.word(v as u64);
            }
            VtreeNode::Internal(l, r) => {
                nodes.word(1);
                nodes.word(l.0 as u64);
                nodes.word(r.0 as u64);
            }
        }
    }
    nodes.word(vtree.root().map_or(u64::MAX, |r| r.0 as u64));

    Golden {
        gates: circuit.size(),
        vtree_nodes: vtree.node_count(),
        gate_digest: gates.0,
        vtree_digest: nodes.0,
    }
}

fn rst() -> Signature {
    Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build()
}

fn s_only() -> Signature {
    Signature::builder().relation("S", 2).build()
}

fn chain(n: u64) -> Instance {
    let mut inst = Instance::new(rst());
    for i in 0..n {
        inst.add_fact_by_name("R", &[i]);
        inst.add_fact_by_name("S", &[i, i + 1]);
        inst.add_fact_by_name("T", &[i + 1]);
    }
    inst
}

fn grid(n: usize) -> Instance {
    let sig = s_only();
    let s = sig.relation_by_name("S").unwrap();
    encodings::grid_instance(&sig, s, n, n)
}

/// The pinned inputs: name, instance, query, and the reference values of
/// the cold compile and of the compile after the round trip.
fn inputs() -> Vec<(
    &'static str,
    Instance,
    UnionOfConjunctiveQueries,
    [Golden; 2],
)> {
    let rst_query = || parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
    let s_query = || parse_query(&s_only(), "S(x, y)").unwrap();
    let g = |gates, vtree_nodes, gate_digest, vtree_digest| Golden {
        gates,
        vtree_nodes,
        gate_digest,
        vtree_digest,
    };
    vec![
        (
            "chain25",
            chain(25),
            rst_query(),
            [
                g(1586, 149, 0xadbe79fe3441416d, 0x1d19b45ca05ba49a),
                g(1586, 149, 0xfbd7b84ef45f6eb9, 0x369fe0e3ad26cc7a),
            ],
        ),
        (
            "chain100",
            chain(100),
            rst_query(),
            [
                g(6536, 599, 0xc2570e0b12c39cf7, 0xde17d094df5c2fb9),
                g(6536, 599, 0xe7f6475d8c152fad, 0x2bd2d92364ba6b89),
            ],
        ),
        (
            "chain400",
            chain(400),
            rst_query(),
            [
                g(26336, 2399, 0xf234cc362ea1abc7, 0x57a877a93a499728),
                g(26336, 2399, 0x9530b8e10822da15, 0x7e4cf0a0ea7e8ac8),
            ],
        ),
        (
            "grid4x4",
            grid(4),
            s_query(),
            [
                g(3450, 47, 0xa91fbe51d67ee153, 0x83fbefde585a170b),
                g(3450, 47, 0xa4e442edcf4af5b3, 0xa931b9210497086b),
            ],
        ),
        (
            "grid5x5",
            grid(5),
            s_query(),
            [
                g(12288, 79, 0xd5fbe41ab785d311, 0x8bf82b2affe4266b),
                g(12288, 79, 0x3ff593e25efc2185, 0xadc5e20a35fe4fab),
            ],
        ),
        (
            "treelike60",
            encodings::random_treelike_instance(&rst(), 60, 2, 7),
            rst_query(),
            [
                g(8480, 323, 0xc0e7743b03df9432, 0x47e28db52fa26931),
                g(8480, 323, 0x612710b989cdae9e, 0x1cc8e075ca8e59ed),
            ],
        ),
    ]
}

/// The thread counts under test: the fixed grid plus the CI matrix value.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
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

/// Compiles `instance` under `query` in a fresh session, then retracts the
/// first fact whose removal keeps the active domain, inserts it back and
/// compiles again, replaying the untouched fragments when `threads > 1`.
/// Returns both artifacts' golden values.
fn compile_twice(
    instance: &Instance,
    query: &UnionOfConjunctiveQueries,
    threads: usize,
) -> [Golden; 2] {
    let mut session = EvalSession::new(EngineConfig::with_threads(threads));
    let q = session.register_query(query.clone());
    let i = session.register_instance(instance.clone());
    let cold = golden(&session.lineage_artifact(q, i).unwrap());

    let victim = (0..instance.fact_count())
        .map(FactId)
        .find(|&f| validate_retract(instance, f, true).is_ok())
        .expect("some fact can be retracted without orphaning an element");
    let fact = instance.fact(victim).clone();
    session.retract_fact(i, victim).unwrap();
    session.insert_fact(i, fact, Rational::one_half()).unwrap();
    let round_trip = golden(&session.lineage_artifact(q, i).unwrap());
    if threads > 1 {
        assert!(
            session.stats().fragments_reused > 0,
            "the round trip at threads {threads} replays library fragments"
        );
    }
    [cold, round_trip]
}

#[test]
fn compiled_lineages_match_the_recorded_gate_streams() {
    let mut mismatches = Vec::new();
    for (name, instance, query, expected) in inputs() {
        for threads in thread_counts() {
            let actual = compile_twice(&instance, &query, threads);
            if actual != expected {
                mismatches.push(format!("{name} at threads {threads}: {actual:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "compiled artifacts differ from the recorded ones:\n{}",
        mismatches.join("\n")
    );
}
