//! Literal weights scaled to integers: the input of the one-pass exact
//! evaluation of *smooth* d-DNNFs ([`Dnnf::scaled_wmc`](crate::Dnnf::scaled_wmc)
//! and the fragment-parallel pass of the engine crate).
//!
//! Every gate `g` of a smooth d-DNNF has a fixed scope `S(g)`, the variables
//! it mentions, and its value under literal weights `(pos_v, neg_v)` is the
//! weighted model count of `g` over `S(g)`. Scale both weights of variable
//! `v` by `L_v = lcm(den(pos_v), den(neg_v))`: they become integers, and the
//! value of every gate is multiplied by `∏_{v ∈ S(g)} L_v`. That factor is
//! the same for all children of an OR (smoothness: one common scope) and is
//! the product of the children's factors at an AND (decomposability:
//! disjoint scopes whose union is the gate's), while the constants have the
//! empty scope (and `0` is `0` on any scale). So a pass that adds at OR and
//! multiplies at AND over the integer weights computes
//! `W(g) · ∏_{v ∈ S(g)} L_v` at every gate, and one division by
//! `∏_{v ∈ S(output)} L_v` at the end recovers the exact value. The division
//! reduces to lowest terms, so the answer is the same canonical [`Rational`]
//! a gate-by-gate rational pass returns — at the cost of one gcd instead of
//! one per gate.
//!
//! For probabilities, `p_v = a_v / d_v` in lowest terms gives the weights
//! `(a_v, d_v − a_v)` on the scale `L_v = d_v`.

use crate::circuit::VarId;
use std::collections::HashMap;
use treelineage_num::{BigInt, BigUint, Rational};

/// Integer literal weights on a common per-variable scale over a fixed
/// scope, plus the product of the scales (see the module docs).
#[derive(Clone, Debug)]
pub struct ScaledWeights {
    literals: HashMap<VarId, (BigInt, BigInt)>,
    scale: BigUint,
}

impl ScaledWeights {
    /// Probability weights `(p_v, 1 − p_v)` over `scope`: for `p_v = a_v /
    /// d_v`, the integers `(a_v, d_v − a_v)` on the scale `d_v`.
    pub fn probability(scope: &[VarId], prob: &dyn Fn(VarId) -> Rational) -> Self {
        Self::build(scope, |v| {
            let p = prob(v);
            let d = p.denominator().clone();
            let negative = &BigInt::from_biguint(d.clone()) - p.numerator();
            (p.numerator().clone(), negative, d)
        })
    }

    /// General literal weights over `scope` (any sign, any denominators),
    /// on the scale `lcm(den(pos_v), den(neg_v))`.
    pub fn wmc(
        scope: &[VarId],
        pos: &dyn Fn(VarId) -> Rational,
        neg: &dyn Fn(VarId) -> Rational,
    ) -> Self {
        Self::build(scope, |v| {
            let (p, n) = (pos(v), neg(v));
            let g = p.denominator().gcd(n.denominator());
            let lcm = &p.denominator().div_rem(&g).0 * n.denominator();
            let on_scale = |w: &Rational| {
                w.numerator() * &BigInt::from_biguint(lcm.div_rem(w.denominator()).0)
            };
            (on_scale(&p), on_scale(&n), lcm)
        })
    }

    /// Unit weights over `scope` (scale 1): the pass counts models.
    pub fn unit(scope: &[VarId]) -> Self {
        Self::build(scope, |_| (BigInt::one(), BigInt::one(), BigUint::one()))
    }

    fn build(scope: &[VarId], mut literal: impl FnMut(VarId) -> (BigInt, BigInt, BigUint)) -> Self {
        let mut literals = HashMap::with_capacity(scope.len());
        let mut scale = BigUint::one();
        for &v in scope {
            let (positive, negative, l) = literal(v);
            if !l.is_one() {
                scale = &scale * &l;
            }
            literals.insert(v, (positive, negative));
        }
        ScaledWeights { literals, scale }
    }

    /// The scaled weight of the literal `v` (or `¬v` when `positive` is
    /// false). A variable outside the scope gets `0`: on a circuit whose
    /// output scope is the scope, such a variable occurs only in gates the
    /// output does not reach, so the value is never read.
    pub fn literal(&self, v: VarId, positive: bool) -> BigInt {
        match self.literals.get(&v) {
            Some((p, _)) if positive => p.clone(),
            Some((_, n)) => n.clone(),
            None => BigInt::zero(),
        }
    }

    /// The exact value of a pass output: `total / ∏_v L_v`, in lowest terms.
    pub fn unscale(&self, total: BigInt) -> Rational {
        if self.scale.is_one() {
            Rational::from_integer(total)
        } else {
            Rational::new(total, self.scale.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_weights_sum_to_the_scale() {
        let prob = |v: VarId| Rational::from_ratio_u64(v as u64, 12);
        let w = ScaledWeights::probability(&[0, 3, 6, 12], &prob);
        // 0/12 = 0/1, 3/12 = 1/4, 6/12 = 1/2, 12/12 = 1/1: scale 1·4·2·1.
        assert_eq!(w.unscale(BigInt::one()), Rational::from_ratio_u64(1, 8));
        assert_eq!(w.literal(3, true), BigInt::from_i64(1));
        assert_eq!(w.literal(3, false), BigInt::from_i64(3));
        assert_eq!(w.literal(0, false), BigInt::from_i64(1));
        assert_eq!(w.literal(12, false), BigInt::zero());
        assert_eq!(w.literal(99, true), BigInt::zero());
    }

    #[test]
    fn wmc_weights_share_one_scale_per_variable() {
        let pos = |_: VarId| Rational::from_ratio_i64(-1, 6);
        let neg = |_: VarId| Rational::from_ratio_u64(3, 4);
        let w = ScaledWeights::wmc(&[5], &pos, &neg);
        assert_eq!(w.unscale(BigInt::one()), Rational::from_ratio_u64(1, 12));
        assert_eq!(w.literal(5, true), BigInt::from_i64(-2));
        assert_eq!(w.literal(5, false), BigInt::from_i64(9));
        assert_eq!(
            w.unscale(BigInt::from_i64(-2)),
            Rational::from_ratio_i64(-1, 6)
        );
    }
}
