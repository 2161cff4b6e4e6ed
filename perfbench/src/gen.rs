//! Seeded input generator: every instance, valuation, threshold and update
//! the benchmark sends is drawn here from the workload seed, so one seed
//! always yields the same inputs and the library sees nothing else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treelineage_instance::{
    encodings, Element, Fact, FactId, Instance, ProbabilityValuation, Signature,
};
use treelineage_num::Rational;
use treelineage_query::{parse_query, UnionOfConjunctiveQueries};

/// One instance family member. Chains and grids are fixed shapes (the seed
/// only changes their valuations); treelike instances carry their own seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `R(i), S(i, i+1), T(i+1)` for `i < n`: pathwidth 1, `3n` facts.
    Chain(usize),
    /// The `n × n` grid over `S`: treewidth `n`, wide encoding alphabet.
    Grid(usize),
    /// `random_treelike_instance` over `R, S, T` with `k = 2`.
    Treelike { n: usize, seed: u64 },
    /// The `S`-clique on `n` elements (treewidth `n - 1`), with `R` and `T`
    /// on every element when `rst`: a tiny instance of a chosen width.
    Clique { n: usize, rst: bool },
}

impl Shape {
    /// The instance of this shape.
    pub fn instance(&self) -> Instance {
        match *self {
            Shape::Chain(n) => {
                let mut inst = Instance::new(rst_signature());
                for i in 0..n as u64 {
                    inst.add_fact_by_name("R", &[i]);
                    inst.add_fact_by_name("S", &[i, i + 1]);
                    inst.add_fact_by_name("T", &[i + 1]);
                }
                inst
            }
            Shape::Grid(n) => {
                let sig = s_signature();
                let s = sig.relation_by_name("S").expect("S is declared");
                encodings::grid_instance(&sig, s, n, n)
            }
            Shape::Treelike { n, seed } => {
                encodings::random_treelike_instance(&rst_signature(), n, 2, seed)
            }
            Shape::Clique { n, rst } => {
                let mut inst = Instance::new(if rst { rst_signature() } else { s_signature() });
                for i in 0..n as u64 {
                    for j in i + 1..n as u64 {
                        inst.add_fact_by_name("S", &[i, j]);
                    }
                    if rst {
                        inst.add_fact_by_name("R", &[i]);
                        inst.add_fact_by_name("T", &[i]);
                    }
                }
                inst
            }
        }
    }

    /// The query served on this shape: `R(x), S(x, y), T(y)` on chains and
    /// treelike instances, `S(x, y)` on grids (whose signature has only `S`).
    pub fn query(&self) -> UnionOfConjunctiveQueries {
        match self {
            Shape::Grid(_) | Shape::Clique { rst: false, .. } => {
                parse_query(&s_signature(), "S(x, y)")
            }
            _ => parse_query(&rst_signature(), "R(x), S(x, y), T(y)"),
        }
        .expect("the benchmark queries parse")
    }

    /// The chain length, for the scaling-exponent fits.
    pub fn chain_len(&self) -> Option<usize> {
        match *self {
            Shape::Chain(n) => Some(n),
            _ => None,
        }
    }

    /// A short stable name, used in reports and span labels.
    pub fn label(&self) -> String {
        match *self {
            Shape::Chain(n) => format!("chain{n}"),
            Shape::Grid(n) => format!("grid{n}x{n}"),
            Shape::Treelike { n, .. } => format!("treelike{n}"),
            Shape::Clique { n, .. } => format!("clique{n}"),
        }
    }
}

fn rst_signature() -> Signature {
    Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build()
}

fn s_signature() -> Signature {
    Signature::builder().relation("S", 2).build()
}

/// A seeded stream of request inputs.
pub struct Draw(StdRng);

impl Draw {
    /// The stream for `purpose` under the workload seed; distinct purposes
    /// give independent streams, so adding draws to one leaves the others
    /// unchanged.
    pub fn new(seed: u64, purpose: u64) -> Self {
        Draw(StdRng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose,
        ))
    }

    /// A uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    /// A fresh seed for a generated instance.
    pub fn seed(&mut self) -> u64 {
        self.0.gen_range(0..u64::MAX)
    }

    /// A probability `a/b` with `b ∈ [2, 16]` and `0 < a < b`: operand bit
    /// size drives exact evaluation cost, so it varies per fact.
    pub fn probability(&mut self) -> Rational {
        let b = self.0.gen_range(2..17u64);
        let a = self.0.gen_range(1..b);
        Rational::from_ratio_u64(a, b)
    }

    /// A fresh valuation covering every fact of `instance`.
    pub fn valuation(&mut self, instance: &Instance) -> ProbabilityValuation {
        let probabilities = (0..instance.fact_count())
            .map(|_| self.probability())
            .collect();
        ProbabilityValuation::from_probabilities(instance, probabilities)
    }

    /// A threshold uniform in `(0, 1)` at a resolution of `2^-20`.
    pub fn threshold(&mut self) -> Rational {
        Rational::from_ratio_u64(self.0.gen_range(1..1u64 << 20), 1 << 20)
    }
}

/// The kinds of one update-workload operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Update {
    /// `set_probability` of a fact.
    Reweight { fact: FactId, probability: Rational },
    /// `retract_fact` of a fact whose elements all occur in another fact,
    /// so the pinned domain survives.
    Retract { fact: FactId },
    /// `insert_fact` of the fact retracted earlier on the same instance.
    Insert { fact: Fact, probability: Rational },
}

/// The update workload's operation stream, with a mirror of each instance
/// and valuation that the stream keeps in step with the session: an
/// operation is drawn from the mirror's state and applied to it once the
/// session accepted it, so the sequence depends on the seed alone.
pub struct UpdateStream {
    draw: Draw,
    /// Mirror instance and valuation per workload instance.
    pub mirrors: Vec<(Instance, ProbabilityValuation)>,
    /// The fact retracted from each instance and not yet inserted back.
    pending: Vec<Option<(Fact, Rational)>>,
    step: usize,
}

/// Per instance, one update cycle is: reweight, retract, reweight, insert
/// the retracted fact back. Half the operations are structural.
const UPDATE_PHASES: usize = 4;

impl UpdateStream {
    /// The stream over the given instances, each with a fresh seeded
    /// valuation that the caller installs in the session before the first
    /// operation. Starting from random weights keeps answer cost steady:
    /// from the registration default of 1/2 everywhere, every reweight
    /// would make later answers dearer.
    pub fn new(seed: u64, instances: Vec<Instance>) -> Self {
        let mut draw = Draw::new(seed, 0x0b_da7e);
        let pending = vec![None; instances.len()];
        let mirrors = instances
            .into_iter()
            .map(|inst| {
                let valuation = draw.valuation(&inst);
                (inst, valuation)
            })
            .collect();
        UpdateStream {
            draw,
            mirrors,
            pending,
            step: 0,
        }
    }

    /// Operations in one full cycle over every instance.
    pub fn cycle_len(&self) -> usize {
        UPDATE_PHASES * self.mirrors.len()
    }

    /// The next operation, as `(instance index, update)`. Call
    /// [`UpdateStream::apply`] with it once the session accepted it.
    pub fn next(&mut self) -> (usize, Update) {
        let instances = self.mirrors.len();
        let i = self.step % instances;
        let phase = (self.step / instances) % UPDATE_PHASES;
        self.step += 1;
        let (inst, _) = &self.mirrors[i];
        let update = match (phase, &self.pending[i]) {
            (3, Some((fact, probability))) => Update::Insert {
                fact: fact.clone(),
                probability: probability.clone(),
            },
            (1, None) => {
                let candidates = retractable(inst);
                Update::Retract {
                    fact: candidates[self.draw.index(candidates.len())],
                }
            }
            _ => Update::Reweight {
                fact: FactId(self.draw.index(inst.fact_count())),
                probability: self.draw.probability(),
            },
        };
        (i, update)
    }

    /// Applies an accepted operation to the mirror.
    pub fn apply(&mut self, i: usize, update: &Update) {
        let (inst, valuation) = &mut self.mirrors[i];
        match update {
            Update::Reweight { fact, probability } => {
                valuation.set_probability(*fact, probability.clone())
            }
            Update::Retract { fact } => {
                let (removed, _) = inst.remove_fact(*fact);
                let probability = valuation.swap_remove(*fact);
                self.pending[i] = Some((removed, probability));
            }
            Update::Insert { fact, probability } => {
                inst.add_fact(fact.relation(), fact.arguments().to_vec());
                valuation.push(probability.clone());
                self.pending[i] = None;
            }
        }
    }
}

/// Facts whose every element also occurs in another fact: retracting one
/// keeps the pinned active domain, so the session must accept it.
pub fn retractable(inst: &Instance) -> Vec<FactId> {
    let mut occurrences = std::collections::BTreeMap::<Element, usize>::new();
    for (_, fact) in inst.facts() {
        for e in fact.elements() {
            *occurrences.entry(e).or_insert(0) += 1;
        }
    }
    let candidates: Vec<FactId> = inst
        .facts()
        .filter(|(_, fact)| fact.elements().iter().all(|e| occurrences[e] > 1))
        .map(|(id, _)| id)
        .collect();
    assert!(
        !candidates.is_empty(),
        "an instance with no retractable fact"
    );
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(inst: &Instance, valuation: &ProbabilityValuation) -> String {
        let probs: Vec<String> = (0..valuation.len())
            .map(|i| valuation.probability(FactId(i)).to_string())
            .collect();
        format!("{inst}|{}", probs.join(","))
    }

    /// Everything a workload sends for `seed`, rendered as text.
    fn inputs(seed: u64) -> String {
        let mut draw = Draw::new(seed, 1);
        let shape = Shape::Treelike {
            n: 40 + draw.index(21),
            seed: draw.seed(),
        };
        let inst = shape.instance();
        let valuation = draw.valuation(&inst);
        let threshold = draw.threshold();
        let mut stream = UpdateStream::new(seed, vec![Shape::Chain(6).instance(), inst.clone()]);
        let mut updates = Vec::new();
        for _ in 0..3 * stream.cycle_len() {
            let (i, update) = stream.next();
            stream.apply(i, &update);
            updates.push(format!("{i}:{update:?}"));
        }
        format!(
            "{}\n{threshold}\n{}\n{}",
            render(&inst, &valuation),
            updates.join(";"),
            render(&stream.mirrors[1].0, &stream.mirrors[1].1)
        )
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(7).into_bytes(), inputs(7).into_bytes());
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(inputs(7), inputs(8));
    }

    #[test]
    fn update_cycle_restores_the_fact_set() {
        let chain = Shape::Chain(5).instance();
        let mut stream = UpdateStream::new(3, vec![chain.clone()]);
        for _ in 0..stream.cycle_len() {
            let (i, update) = stream.next();
            stream.apply(i, &update);
        }
        let mirror = &stream.mirrors[0].0;
        assert_eq!(mirror.fact_count(), chain.fact_count());
        assert!(chain
            .facts()
            .all(|(_, f)| mirror.contains(f.relation(), f.arguments())));
    }

    #[test]
    fn probabilities_stay_inside_the_unit_interval() {
        let mut draw = Draw::new(11, 2);
        for _ in 0..1000 {
            let p = draw.probability();
            assert!(p.is_probability() && !p.is_zero() && !p.is_one());
            let t = draw.threshold();
            assert!(t.is_probability() && !t.is_zero() && !t.is_one());
        }
    }
}
