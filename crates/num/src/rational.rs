//! Exact rational numbers.
//!
//! Definition 3.1 of the paper represents probabilities as pairs
//! numerator/denominator; the "ra-linear" complexity measure counts arithmetic
//! operations on such rationals at unit cost. [`Rational`] is the exact
//! number type threaded through probability evaluation, weighted model
//! counting, and match counting.

use crate::bigint::BigInt;
use crate::biguint::BigUint;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// An exact rational number, kept in lowest terms with a positive denominator.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    numerator: BigInt,
    denominator: BigUint,
}

impl Rational {
    /// The value 0.
    pub fn zero() -> Self {
        Rational {
            numerator: BigInt::zero(),
            denominator: BigUint::one(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        Rational {
            numerator: BigInt::one(),
            denominator: BigUint::one(),
        }
    }

    /// The value 1/2, the valuation used when relating probability evaluation
    /// to model counting (footnote 3 of the paper).
    pub fn one_half() -> Self {
        Rational::from_ratio_u64(1, 2)
    }

    /// Builds `n/d` from machine integers. Panics if `d == 0`.
    pub fn from_ratio_u64(n: u64, d: u64) -> Self {
        assert!(d != 0, "zero denominator");
        Rational::new(BigInt::from_u64(n), BigUint::from_u64(d))
    }

    /// Builds `n/d` from a signed numerator and unsigned denominator.
    /// Panics if `d == 0`.
    pub fn from_ratio_i64(n: i64, d: u64) -> Self {
        assert!(d != 0, "zero denominator");
        Rational::new(BigInt::from_i64(n), BigUint::from_u64(d))
    }

    /// Builds an integer-valued rational.
    pub fn from_integer(n: BigInt) -> Self {
        Rational {
            numerator: n,
            denominator: BigUint::one(),
        }
    }

    /// Builds a non-negative integer-valued rational from a [`BigUint`].
    pub fn from_biguint(n: BigUint) -> Self {
        Rational::from_integer(BigInt::from_biguint(n))
    }

    /// Builds a rational from an arbitrary numerator and denominator,
    /// normalizing sign and reducing to lowest terms. Panics if `d == 0`.
    pub fn new(n: BigInt, d: BigUint) -> Self {
        assert!(!d.is_zero(), "zero denominator");
        let mut out = Rational {
            numerator: n,
            denominator: d,
        };
        out.reduce();
        out
    }

    /// Exact conversion from an `f64` that is a dyadic rational produced by
    /// ordinary probability inputs (e.g. `0.5`, `0.25`). Returns `None` for
    /// NaN or infinite values.
    pub fn from_f64_dyadic(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::zero());
        }
        // Decompose v = mantissa * 2^exp exactly.
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exponent = ((bits >> 52) & 0x7FF) as i64;
        let fraction = bits & 0xF_FFFF_FFFF_FFFF;
        let (mantissa, exp) = if exponent == 0 {
            (fraction, -1074i64)
        } else {
            (fraction | (1 << 52), exponent - 1075)
        };
        let m = BigUint::from_u64(mantissa);
        let mut out = if exp >= 0 {
            Rational::from_biguint(&m * &BigUint::pow2(exp as usize))
        } else {
            Rational::new(BigInt::from_biguint(m), BigUint::pow2((-exp) as usize))
        };
        if sign < 0 {
            out = -out;
        }
        Some(out)
    }

    /// The numerator (signed, in lowest terms).
    pub fn numerator(&self) -> &BigInt {
        &self.numerator
    }

    /// The denominator (positive, in lowest terms).
    pub fn denominator(&self) -> &BigUint {
        &self.denominator
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.numerator.is_zero()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.denominator.is_one() && self.numerator == BigInt::one()
    }

    /// Returns `true` if the value lies in the closed interval \[0, 1\]
    /// (i.e. it is a valid probability).
    pub fn is_probability(&self) -> bool {
        !self.numerator.is_negative() && self.numerator.magnitude() <= &self.denominator
    }

    /// `1 - self`; the probability of the complementary event.
    pub fn complement(&self) -> Self {
        &Rational::one() - self
    }

    /// Correctly-rounded conversion to `f64` (round to nearest, ties to
    /// even; values past `f64::MAX` round to the infinity of matching sign).
    ///
    /// When numerator and denominator are at most `2^53` in magnitude both
    /// are exact in `f64`, so their IEEE quotient *is* the correctly rounded
    /// value and is returned directly. Larger operands go through
    /// [`Rational::to_f64_bounds`]: the two candidate floats come from the
    /// certified bracket, and the nearest one is selected by exact rational
    /// comparison against their midpoint — no rounding analysis of the fast
    /// approximation is trusted. (The previous implementation shifted
    /// numerator and denominator by a *common* amount past 900 bits, which
    /// collapsed a small denominator to zero — `2^950 / 2^10` came back
    /// `inf` despite being comfortably inside `f64` range — and
    /// double-rounded through per-limb float accumulation below the
    /// threshold.)
    pub fn to_f64(&self) -> f64 {
        if let Some((negative, n, d)) = self.f64_exact_parts() {
            let q = n as f64 / d as f64;
            return if negative { -q } else { q };
        }
        self.to_f64_walk()
    }

    /// The general path of [`Rational::to_f64`]: the certified bracket of
    /// [`Rational::walk_bounds`], then an exact midpoint comparison.
    fn to_f64_walk(&self) -> f64 {
        let (lo, hi) = self.walk_bounds();
        if lo == hi {
            return lo;
        }
        // Past the finite range the optimal bracket is (MAX, inf) or its
        // dual; conventional overflow rounds to the infinite endpoint.
        if lo == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        if hi == f64::INFINITY {
            return f64::INFINITY;
        }
        // `lo` and `hi` are adjacent floats; their midpoint is a dyadic
        // rational, so round-to-nearest is an exact comparison.
        let mid = &(&Rational::from_f64_dyadic(lo).expect("finite bound")
            + &Rational::from_f64_dyadic(hi).expect("finite bound"))
            * &Rational::from_ratio_u64(1, 2);
        match self.cmp(&mid) {
            Ordering::Less => lo,
            Ordering::Greater => hi,
            // Exact tie: pick the even mantissa (adjacent floats differ by
            // one bit, so exactly one of the two is even).
            Ordering::Equal => {
                if lo.to_bits() & 1 == 0 {
                    lo
                } else {
                    hi
                }
            }
        }
    }

    /// Fast uncertified approximation seeding the bounds fix-up: both sides
    /// are truncated to their top 63 bits with the cut exponents tracked
    /// explicitly, so the quotient is computed on `u64`-sized operands at
    /// full `f64` precision and then scaled by an exact power of two. Within
    /// a few ulps of the exact value on the whole `f64` range.
    fn to_f64_approx(&self) -> f64 {
        if self.numerator.is_zero() {
            return 0.0;
        }
        let n = self.numerator.magnitude();
        let d = &self.denominator;
        let n_shift = n.bits().saturating_sub(63);
        let d_shift = d.bits().saturating_sub(63);
        let n_top = (n >> n_shift).to_u64().expect("63 bits fit in u64") as f64;
        let d_top = (d >> d_shift).to_u64().expect("63 bits fit in u64") as f64;
        let magnitude = ldexp(n_top / d_top, n_shift as i64 - d_shift as i64);
        if self.numerator.is_negative() {
            -magnitude
        } else {
            magnitude
        }
    }

    /// The tightest pair of `f64` bounds around the exact value:
    /// `lo` is the largest `f64` with `lo <= self` and `hi` the smallest
    /// with `self <= hi` (so `lo == hi` exactly when the value is
    /// representable, and otherwise `hi == lo.next_up()`). Values beyond
    /// `f64` range get the saturating bound (`f64::MAX`/`inf` and duals).
    ///
    /// This is the certified conversion the interval fast-path is built on,
    /// and every candidate is *verified by exact comparison* (finite floats
    /// are dyadic rationals), so no rounding analysis is trusted:
    ///
    /// * when numerator and denominator are at most `2^53` in magnitude
    ///   (every probability a caller types in), both are exact in `f64` and
    ///   `q = n / d` is one IEEE division; a single `u128` comparison of
    ///   `q`'s mantissa and exponent against `n / d` then picks `(q, q)`,
    ///   `(q.next_down(), q)` or `(q, q.next_up())` — constant time, no
    ///   allocation;
    /// * larger operands walk from a truncation-based candidate
    ///   (`walk_bounds`), comparing each step exactly.
    pub fn to_f64_bounds(&self) -> (f64, f64) {
        let Some((negative, n, d)) = self.f64_exact_parts() else {
            return self.walk_bounds();
        };
        let q = n as f64 / d as f64;
        let (lo, hi) = match cmp_f64_small(q, false, n, d) {
            Ordering::Equal => (q, q),
            Ordering::Greater => (q.next_down(), q),
            Ordering::Less => (q, q.next_up()),
        };
        debug_assert!(
            cmp_f64_small(lo, false, n, d) != Ordering::Greater
                && cmp_f64_small(hi, false, n, d) != Ordering::Less,
            "IEEE division is correctly rounded"
        );
        if negative {
            (-hi, -lo)
        } else {
            (lo, hi)
        }
    }

    /// `(negative, |numerator|, denominator)` when both fit in a `u64`.
    fn small_parts(&self) -> Option<(bool, u64, u64)> {
        Some((
            self.numerator.is_negative(),
            self.numerator.magnitude().to_u64()?,
            self.denominator.to_u64()?,
        ))
    }

    /// [`Rational::small_parts`] when both operands are at most `2^53`, so
    /// each converts to `f64` exactly.
    fn f64_exact_parts(&self) -> Option<(bool, u64, u64)> {
        const EXACT: u64 = 1 << 53;
        self.small_parts()
            .filter(|&(_, n, d)| n <= EXACT && d <= EXACT)
    }

    /// The general path of [`Rational::to_f64_bounds`], for any operand
    /// size: starting from the fast truncation-based candidate, walk down
    /// until the candidate is `<= self` and back up while still `<= self`
    /// (dually for `hi`), comparing each candidate by exact rational
    /// arithmetic.
    fn walk_bounds(&self) -> (f64, f64) {
        let cmp = |f: f64| cmp_f64_big(f, self);
        let approx = self.to_f64_approx();
        debug_assert!(!approx.is_nan());
        // Largest f64 <= self: walk down until <=, then back up while still <=.
        let mut lo = approx;
        while cmp(lo) == Ordering::Greater {
            lo = lo.next_down();
        }
        while lo != f64::INFINITY && cmp(lo.next_up()) != Ordering::Greater {
            lo = lo.next_up();
        }
        // Smallest f64 >= self, dually.
        let mut hi = approx;
        while cmp(hi) == Ordering::Less {
            hi = hi.next_up();
        }
        while hi != f64::NEG_INFINITY && cmp(hi.next_down()) != Ordering::Less {
            hi = hi.next_down();
        }
        debug_assert!(lo <= hi);
        (lo, hi)
    }

    /// Multiplicative inverse. Panics if the value is zero.
    pub fn reciprocal(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero");
        let sign = self.numerator.sign();
        let n = BigInt::from_sign_magnitude(sign, self.denominator.clone());
        Rational::new(n, self.numerator.magnitude().clone())
    }

    /// `self^exp` for a machine-sized exponent.
    pub fn pow(&self, exp: u32) -> Self {
        let mut acc = Rational::one();
        for _ in 0..exp {
            acc = &acc * self;
        }
        acc
    }

    fn reduce(&mut self) {
        if self.numerator.is_zero() {
            self.denominator = BigUint::one();
            return;
        }
        let g = self.numerator.magnitude().gcd(&self.denominator);
        if !g.is_one() {
            let (n, _) = self.numerator.magnitude().div_rem(&g);
            let (d, _) = self.denominator.div_rem(&g);
            self.numerator = BigInt::from_sign_magnitude(self.numerator.sign(), n);
            self.denominator = d;
        }
    }
}

/// `x * 2^exp` without `libm`: scales in chunks of `2^±1000` (each chunk
/// factor is exactly representable, so only the final step can round — into
/// the subnormal range or to `±inf`, which is the correct saturating
/// behaviour for an approximate conversion).
fn ldexp(x: f64, exp: i64) -> f64 {
    let mut x = x;
    let mut exp = exp;
    while exp > 0 {
        let step = exp.min(1000);
        x *= 2f64.powi(step as i32);
        exp -= step;
    }
    while exp < 0 {
        let step = exp.max(-1000);
        x *= 2f64.powi(step as i32);
        exp -= step;
    }
    x
}

/// The exact order of `f` (any `f64` but `NaN`) relative to `r`: finite
/// floats are dyadic rationals. Operands that fit in a `u64` are compared in
/// `u128` arithmetic ([`cmp_f64_small`]); larger ones through
/// [`Rational::from_f64_dyadic`] and a `BigUint` cross-multiplication.
pub(crate) fn cmp_f64_rational(f: f64, r: &Rational) -> Ordering {
    match r.small_parts() {
        Some((negative, n, d)) => cmp_f64_small(f, negative, n, d),
        None => cmp_f64_big(f, r),
    }
}

/// [`cmp_f64_rational`] by exact rational arithmetic, for any operand size.
fn cmp_f64_big(f: f64, r: &Rational) -> Ordering {
    if f == f64::INFINITY {
        return Ordering::Greater;
    }
    if f == f64::NEG_INFINITY {
        return Ordering::Less;
    }
    Rational::from_f64_dyadic(f)
        .expect("compared floats are never NaN")
        .cmp(r)
}

/// The order of `f` (any `f64` but `NaN`) relative to `±n/d` (`d > 0`,
/// negative when `negative`), decided exactly without allocating.
fn cmp_f64_small(f: f64, negative: bool, n: u64, d: u64) -> Ordering {
    let f_sign = f.partial_cmp(&0.0).expect("compared floats are never NaN");
    let r_sign = match (n, negative) {
        (0, _) => Ordering::Equal,
        (_, true) => Ordering::Less,
        (_, false) => Ordering::Greater,
    };
    // Differing signs decide alone, as do two zeros (`-0.0` included) and
    // an infinite `f`.
    if f_sign != r_sign || f_sign == Ordering::Equal {
        return f_sign.cmp(&r_sign);
    }
    if f.is_infinite() {
        return f_sign;
    }
    // |f| = m·2^e with m < 2^53, so |f| vs n/d is m·d·2^e vs n, and
    // m·d < 2^117 fits in a u128. Whichever side gets the power of two, a
    // shift that would overflow u128 leaves that side at least 2^128, above
    // the other side.
    let bits = f.to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i32;
    let fraction = bits & 0xF_FFFF_FFFF_FFFF;
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let md = u128::from(m) * u128::from(d);
    let shl = |x: u128, k: u32| (k <= x.leading_zeros()).then(|| x << k);
    let magnitude = if e >= 0 {
        shl(md, e as u32).map_or(Ordering::Greater, |lhs| lhs.cmp(&u128::from(n)))
    } else {
        shl(u128::from(n), e.unsigned_abs()).map_or(Ordering::Less, |rhs| md.cmp(&rhs))
    };
    if negative {
        magnitude.reverse()
    } else {
        magnitude
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({})", self)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denominator.is_one() {
            write!(f, "{}", self.numerator)
        } else {
            write!(f, "{}/{}", self.numerator, self.denominator)
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b cmp c/d  <=>  a*d cmp c*b   (b, d > 0)
        let lhs = &self.numerator * &BigInt::from_biguint(other.denominator.clone());
        let rhs = &other.numerator * &BigInt::from_biguint(self.denominator.clone());
        lhs.cmp(&rhs)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numerator: -self.numerator,
            denominator: self.denominator,
        }
    }
}

impl Add<&Rational> for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        let n = &(&self.numerator * &BigInt::from_biguint(rhs.denominator.clone()))
            + &(&rhs.numerator * &BigInt::from_biguint(self.denominator.clone()));
        let d = &self.denominator * &rhs.denominator;
        Rational::new(n, d)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl Sub<&Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        self + &(-rhs.clone())
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl Mul<&Rational> for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        let n = &self.numerator * &rhs.numerator;
        let d = &self.denominator * &rhs.denominator;
        Rational::new(n, d)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl Div<&Rational> for &Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division as reciprocal multiplication
    fn div(self, rhs: &Rational) -> Rational {
        self * &rhs.reciprocal()
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        &self / &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        let r = Rational::from_ratio_u64(6, 8);
        assert_eq!(r.numerator().to_i64(), Some(3));
        assert_eq!(r.denominator().to_u64(), Some(4));
        let z = Rational::from_ratio_i64(0, 17);
        assert!(z.is_zero());
        assert_eq!(z.denominator().to_u64(), Some(1));
    }

    #[test]
    fn arithmetic_small() {
        let a = Rational::from_ratio_u64(1, 3);
        let b = Rational::from_ratio_u64(1, 6);
        assert_eq!(&a + &b, Rational::from_ratio_u64(1, 2));
        assert_eq!(&a - &b, Rational::from_ratio_u64(1, 6));
        assert_eq!(&a * &b, Rational::from_ratio_u64(1, 18));
        assert_eq!(&a / &b, Rational::from_ratio_u64(2, 1));
    }

    #[test]
    fn negative_values() {
        let a = Rational::from_ratio_i64(-1, 2);
        let b = Rational::from_ratio_u64(1, 4);
        assert_eq!(&a + &b, Rational::from_ratio_i64(-1, 4));
        assert_eq!(&a * &b, Rational::from_ratio_i64(-1, 8));
        assert!(a < b);
        assert!(!a.is_probability());
    }

    #[test]
    fn probability_range() {
        assert!(Rational::zero().is_probability());
        assert!(Rational::one().is_probability());
        assert!(Rational::one_half().is_probability());
        assert!(!Rational::from_ratio_u64(3, 2).is_probability());
    }

    #[test]
    fn complement() {
        assert_eq!(
            Rational::from_ratio_u64(1, 4).complement(),
            Rational::from_ratio_u64(3, 4)
        );
        assert_eq!(Rational::one().complement(), Rational::zero());
    }

    #[test]
    fn reciprocal_and_pow() {
        assert_eq!(
            Rational::from_ratio_u64(2, 5).reciprocal(),
            Rational::from_ratio_u64(5, 2)
        );
        assert_eq!(
            Rational::one_half().pow(10),
            Rational::from_ratio_u64(1, 1024)
        );
        assert_eq!(Rational::from_ratio_u64(7, 3).pow(0), Rational::one());
    }

    #[test]
    #[should_panic]
    fn reciprocal_of_zero_panics() {
        let _ = Rational::zero().reciprocal();
    }

    #[test]
    fn from_f64_dyadic_exact() {
        assert_eq!(
            Rational::from_f64_dyadic(0.5).unwrap(),
            Rational::one_half()
        );
        assert_eq!(
            Rational::from_f64_dyadic(0.25).unwrap(),
            Rational::from_ratio_u64(1, 4)
        );
        assert_eq!(
            Rational::from_f64_dyadic(-1.5).unwrap(),
            Rational::from_ratio_i64(-3, 2)
        );
        assert_eq!(Rational::from_f64_dyadic(0.0).unwrap(), Rational::zero());
        assert_eq!(
            Rational::from_f64_dyadic(3.0).unwrap(),
            Rational::from_ratio_u64(3, 1)
        );
        assert!(Rational::from_f64_dyadic(f64::NAN).is_none());
        assert!(Rational::from_f64_dyadic(f64::INFINITY).is_none());
    }

    #[test]
    fn to_f64_roundtrip() {
        for (n, d) in [(1u64, 2u64), (3, 4), (7, 8), (1, 1), (0, 1), (5, 16)] {
            let r = Rational::from_ratio_u64(n, d);
            assert!((r.to_f64() - n as f64 / d as f64).abs() < 1e-12);
        }
    }

    /// Rationals `±n/d` on the operand sizes around the `2^53` cut of the
    /// small-operand fast path.
    fn straddling_2_53() -> Vec<Rational> {
        let p = 1u64 << 53;
        let edges = [1, 2, 3, 7, 1 << 20, p - 2, p - 1, p, p + 1, p + 2, u64::MAX];
        let mut out = vec![Rational::zero()];
        for &n in &edges {
            for &d in &edges {
                let r = Rational::new(BigInt::from_u64(n), BigUint::from_u64(d));
                out.push(-r.clone());
                out.push(r);
            }
        }
        out
    }

    /// `to_f64_bounds` / `to_f64` agree bit for bit with the general walk.
    fn assert_fast_path_matches_walk(r: &Rational) {
        let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
        assert_eq!(
            bits(r.to_f64_bounds()),
            bits(r.walk_bounds()),
            "bounds of {r}"
        );
        assert_eq!(
            r.to_f64().to_bits(),
            r.to_f64_walk().to_bits(),
            "to_f64 of {r}"
        );
    }

    #[test]
    fn fast_conversion_matches_walk_at_the_2_53_edges() {
        for r in straddling_2_53() {
            assert_fast_path_matches_walk(&r);
        }
        for b in 2..=16u64 {
            for a in 0..=b {
                assert_fast_path_matches_walk(&Rational::from_ratio_u64(a, b));
                assert_fast_path_matches_walk(&Rational::from_ratio_i64(-(a as i64), b));
            }
        }
        assert_fast_path_matches_walk(&Rational::one());
        assert_fast_path_matches_walk(&Rational::from_ratio_u64(1 << 53, 1));
    }

    /// Floats next to each of `r`'s bounds, plus the signed zeros and the
    /// infinities.
    fn probe_floats(r: &Rational) -> Vec<f64> {
        let (lo, hi) = r.walk_bounds();
        let mut out = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        for f in [lo, hi] {
            out.extend([f, f.next_down(), f.next_up(), -f]);
        }
        out.retain(|f| !f.is_nan());
        out
    }

    #[test]
    fn small_comparison_matches_big_on_dyadic_thresholds() {
        let mut thresholds: Vec<Rational> = (0..=64u64)
            .chain([(1 << 20) - 1, 1 << 20, (1 << 20) + 1, 3 << 19])
            .map(|k| Rational::new(BigInt::from_u64(k), BigUint::pow2(20)))
            .collect();
        thresholds.extend(straddling_2_53());
        for r in &thresholds {
            let (negative, n, d) = r.small_parts().expect("u64-sized operands");
            for f in probe_floats(r)
                .into_iter()
                .chain([5e-324, 1e300, f64::MAX, -f64::MAX])
            {
                assert_eq!(
                    cmp_f64_small(f, negative, n, d),
                    cmp_f64_big(f, r),
                    "{f:e} vs {r}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn fast_conversion_matches_walk(n in -(1i64 << 40)..(1i64 << 40), d in 1u64..(1 << 40)) {
            assert_fast_path_matches_walk(&Rational::from_ratio_i64(n, d));
        }

        #[test]
        fn fast_conversion_matches_walk_near_2_53(
            n in (1u64 << 53) - (1 << 12)..(1u64 << 53) + (1 << 12),
            d in 1u64..(1 << 53) + (1 << 12),
            swap in 0u8..2,
            negate in 0u8..2,
        ) {
            let (n, d) = if swap == 1 { (d, n) } else { (n, d) };
            let mut r = Rational::new(BigInt::from_u64(n), BigUint::from_u64(d));
            if negate == 1 {
                r = -r;
            }
            assert_fast_path_matches_walk(&r);
        }

        #[test]
        fn small_comparison_matches_big(
            k in 0u64..(1 << 20) + 1,
            n in -(1i64 << 62)..(1i64 << 62),
            d in 1u64..u64::MAX,
        ) {
            for r in [
                Rational::new(BigInt::from_u64(k), BigUint::pow2(20)),
                Rational::from_ratio_i64(n, d),
            ] {
                let (negative, n, d) = r.small_parts().expect("u64-sized operands");
                for f in probe_floats(&r) {
                    assert_eq!(cmp_f64_small(f, negative, n, d), cmp_f64_big(f, &r), "{f:e} vs {r}");
                }
            }
        }
    }

    #[test]
    fn ordering() {
        let vals: Vec<Rational> = [(1i64, 3u64), (1, 2), (2, 3), (-1, 2), (0, 1)]
            .iter()
            .map(|&(n, d)| Rational::from_ratio_i64(n, d))
            .collect();
        let as_f64: Vec<f64> = vals.iter().map(|r| r.to_f64()).collect();
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                assert_eq!(
                    vals[i].cmp(&vals[j]),
                    as_f64[i].partial_cmp(&as_f64[j]).unwrap()
                );
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(Rational::from_ratio_u64(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from_ratio_u64(4, 2).to_string(), "2");
        assert_eq!(Rational::from_ratio_i64(-3, 9).to_string(), "-1/3");
    }

    #[test]
    fn sum_of_possible_world_probabilities_is_one() {
        // Sanity check of the TID semantics at the arithmetic level: with
        // three facts of probability 1/2, 1/3, 2/5 the 8 world probabilities
        // sum to 1.
        let probs = [
            Rational::one_half(),
            Rational::from_ratio_u64(1, 3),
            Rational::from_ratio_u64(2, 5),
        ];
        let mut total = Rational::zero();
        for mask in 0..8u32 {
            let mut w = Rational::one();
            for (i, p) in probs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    w = &w * p;
                } else {
                    w = &w * &p.complement();
                }
            }
            total = &total + &w;
        }
        assert!(total.is_one());
    }
}
