//! Exact rationals, always stored in lowest terms with positive denominator.
//!
//! The representation is a two-variant enum mirroring Zarith's small-integer
//! fast path: values whose numerator and denominator fit machine words live
//! inline as a pair of `i64`s and all arithmetic on them runs in `i128`
//! intermediates without touching the heap; everything else falls back to a
//! boxed [`BigInt`] pair. Results are *demoted* back to the inline form
//! whenever they fit, so representation is canonical: a value is `Small`
//! iff it is representable as `Small`. Equality and hashing rely on this.

use crate::bigint::gcd_u128;
use crate::stats::{note_big_op, note_promotion};
use crate::BigInt;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Largest numerator/denominator magnitude representable inline.
///
/// The numerator range is symmetric (`i64::MIN` is excluded) so negation
/// and `abs` of a `Small` value never overflow.
const SMALL_MAX: i128 = i64::MAX as i128;

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `num / den` with `den > 0`, `gcd(|num|, den) == 1`, and both within
    /// `±SMALL_MAX`. Zero is `Small(0, 1)`.
    Small(i64, i64),
    /// Lowest terms, positive denominator, and **not** representable as
    /// `Small` (otherwise demotion would have fired). The box keeps
    /// `Ratio` itself two words wide.
    Big(Box<(BigInt, BigInt)>),
}

/// An exact rational number.
///
/// Invariants: `den > 0` and `gcd(|num|, den) == 1`; zero is `0/1`.
/// Values representable with `i64` numerator and denominator are stored
/// inline and their arithmetic never allocates.
///
/// # Examples
///
/// ```
/// use mcnetkat_num::Ratio;
/// let p = Ratio::new(1, 4) + Ratio::new(1, 4);
/// assert_eq!(p, Ratio::new(1, 2));
/// assert_eq!(p.to_f64(), 0.5);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ratio {
    repr: Repr,
}

/// Error returned when parsing a [`Ratio`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError;

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational syntax")
    }
}

impl std::error::Error for ParseRatioError {}

impl Ratio {
    /// Builds `n / d` from `i128` intermediates, normalising and demoting.
    ///
    /// `|n|` and `|d|` must be below `2^127` (guaranteed for single
    /// products/sums of `Small` parts); `d` must be non-zero.
    fn from_i128(mut n: i128, mut d: i128) -> Ratio {
        assert!(d != 0, "rational with zero denominator");
        if d < 0 {
            n = -n;
            d = -d;
        }
        if n == 0 {
            return Ratio::zero();
        }
        let g = gcd_u128(n.unsigned_abs(), d as u128) as i128;
        let (n, d) = (n / g, d / g);
        if (-SMALL_MAX..=SMALL_MAX).contains(&n) && d <= SMALL_MAX {
            Ratio {
                repr: Repr::Small(n as i64, d as i64),
            }
        } else {
            note_promotion();
            Ratio {
                repr: Repr::Big(Box::new((BigInt::from(n), BigInt::from(d)))),
            }
        }
    }

    /// Wraps an already-normalised big pair, demoting to `Small` if it
    /// fits (which keeps the representation canonical).
    fn from_normalised_bigints(num: BigInt, den: BigInt) -> Ratio {
        if let (Some(n), Some(d)) = (num.to_i128(), den.to_i128()) {
            if (-SMALL_MAX..=SMALL_MAX).contains(&n) && d <= SMALL_MAX {
                return Ratio {
                    repr: Repr::Small(n as i64, d as i64),
                };
            }
        }
        Ratio {
            repr: Repr::Big(Box::new((num, den))),
        }
    }

    /// The numerator as a [`BigInt`] regardless of representation.
    fn num_big(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, _) => BigInt::from(*n),
            Repr::Big(b) => b.0.clone(),
        }
    }

    /// The denominator as a [`BigInt`] regardless of representation.
    fn den_big(&self) -> BigInt {
        match &self.repr {
            Repr::Small(_, d) => BigInt::from(*d),
            Repr::Big(b) => b.1.clone(),
        }
    }

    /// Both parts as [`BigInt`]s, borrowing them when the value is
    /// already `Big` — the mixed/overflow operator arms use this so they
    /// never clone the heap pair just to read it.
    fn big_parts(&self) -> (Cow<'_, BigInt>, Cow<'_, BigInt>) {
        match &self.repr {
            Repr::Small(n, d) => (Cow::Owned(BigInt::from(*n)), Cow::Owned(BigInt::from(*d))),
            Repr::Big(b) => (Cow::Borrowed(&b.0), Cow::Borrowed(&b.1)),
        }
    }

    /// Creates `num/den` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        Ratio::from_i128(num as i128, den as i128)
    }

    /// Creates `num/den` from big integers, normalising the result (and
    /// demoting it to the inline representation when it fits).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        // Fast path: both parts already fit machine words. `i128::MIN` is
        // excluded — `from_i128`'s sign normalisation negates, which
        // would overflow on it.
        if let (Some(n), Some(d)) = (num.to_i128(), den.to_i128()) {
            if n != i128::MIN && d != i128::MIN {
                return Ratio::from_i128(n, d);
            }
        }
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        if num.is_zero() {
            return Ratio::zero();
        }
        let g = num.gcd(&den);
        if g.is_one() {
            return Ratio::from_normalised_bigints(num, den);
        }
        Ratio::from_normalised_bigints(num.divexact(&g), den.divexact(&g))
    }

    /// The rational zero.
    pub fn zero() -> Self {
        Ratio {
            repr: Repr::Small(0, 1),
        }
    }

    /// The rational one.
    pub fn one() -> Self {
        Ratio {
            repr: Repr::Small(1, 1),
        }
    }

    /// Creates the integer `n` as a rational.
    pub fn from_integer(n: i64) -> Self {
        Ratio::from_i128(n as i128, 1)
    }

    /// The numerator (sign-carrying), widened to a [`BigInt`].
    pub fn numer(&self) -> BigInt {
        self.num_big()
    }

    /// The denominator (always positive), widened to a [`BigInt`].
    pub fn denom(&self) -> BigInt {
        self.den_big()
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small(0, _))
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Small(1, 1))
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n < 0,
            Repr::Big(b) => b.0.is_negative(),
        }
    }

    /// Returns `true` if this is a valid probability, i.e. in `[0, 1]`.
    pub fn is_probability(&self) -> bool {
        !self.is_negative() && *self <= Ratio::one()
    }

    /// Whether the value is in canonical form: lowest terms, positive
    /// denominator, zero stored as `0/1`, and demoted to the inline
    /// representation whenever numerator and denominator both fit.
    ///
    /// Always true for values built through this crate's operations —
    /// equality and hashing rely on it — so a `false` here means a
    /// representation invariant was broken somewhere. Exposed by name for
    /// invariant auditors (the FDD manager's `audit()` pass checks every
    /// interned leaf probability with it).
    pub fn is_canonical(&self) -> bool {
        match &self.repr {
            Repr::Small(n, d) => {
                *d > 0
                    && (*n != 0 || *d == 1)
                    && gcd_u128(n.unsigned_abs() as u128, *d as u128) <= 1
            }
            Repr::Big(b) => {
                let (n, d) = (&b.0, &b.1);
                if !n.is_normalised() || !d.is_normalised() || d.is_negative() || d.is_zero() {
                    return false;
                }
                // Demotion must have fired if both parts fit inline.
                if let (Some(ni), Some(di)) = (n.to_i128(), d.to_i128()) {
                    if (-SMALL_MAX..=SMALL_MAX).contains(&ni) && di <= SMALL_MAX {
                        return false;
                    }
                }
                n.gcd(d).is_one()
            }
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            // Parts stay within ±SMALL_MAX, gcd is unchanged: flip inline.
            &Repr::Small(n, d) => Ratio {
                repr: if n < 0 {
                    Repr::Small(-d, -n)
                } else {
                    Repr::Small(d, n)
                },
            },
            Repr::Big(b) => Ratio::from_bigints(b.1.clone(), b.0.clone()),
        }
    }

    /// Lossy conversion to `f64`.
    ///
    /// Scales numerator and denominator down together so the division stays
    /// in `f64` range even for huge exact values.
    pub fn to_f64(&self) -> f64 {
        let (num, den) = match &self.repr {
            &Repr::Small(n, d) => return n as f64 / d as f64,
            Repr::Big(b) => (&b.0, &b.1),
        };
        let nbits = num.bits();
        let dbits = den.bits();
        if nbits < 1000 && dbits < 1000 {
            return num.to_f64() / den.to_f64();
        }
        // Shift both down so the larger fits in ~900 bits.
        let excess = nbits.max(dbits).saturating_sub(900) as u32;
        let scale = BigInt::from(2u64).pow(excess);
        let n = num.divmod(&scale).0;
        let d = den.divmod(&scale).0;
        if d.is_zero() {
            return if num.is_negative() {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        n.to_f64() / d.to_f64()
    }

    /// Approximates an `f64` by an exact dyadic rational (exact for finite
    /// floats).
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN or infinite.
    pub fn from_f64(v: f64) -> Ratio {
        assert!(v.is_finite(), "cannot represent non-finite float exactly");
        if v == 0.0 {
            return Ratio::zero();
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = if exponent == 0 {
            bits & 0xf_ffff_ffff_ffff
        } else {
            (bits & 0xf_ffff_ffff_ffff) | 0x10_0000_0000_0000
        };
        let exp2 = exponent.max(1) - 1075;
        let m = BigInt::from(mantissa) * BigInt::from(sign);
        if exp2 >= 0 {
            Ratio::from_bigints(m * BigInt::from(2u64).pow(exp2 as u32), BigInt::one())
        } else {
            Ratio::from_bigints(m, BigInt::from(2u64).pow((-exp2) as u32))
        }
    }

    /// Raises to a small integer power.
    pub fn pow(&self, exp: u32) -> Ratio {
        if let Repr::Small(n, d) = self.repr {
            if let (Some(np), Some(dp)) =
                ((n as i128).checked_pow(exp), (d as i128).checked_pow(exp))
            {
                return Ratio::from_i128(np, dp);
            }
        }
        Ratio::from_bigints(self.num_big().pow(exp), self.den_big().pow(exp))
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        match &self.repr {
            // |n| ≤ SMALL_MAX by invariant, so negation cannot overflow.
            &Repr::Small(n, d) => Ratio {
                repr: Repr::Small(n.abs(), d),
            },
            // Magnitudes are unchanged, so the value stays non-`Small`.
            Repr::Big(b) => Ratio {
                repr: Repr::Big(Box::new((b.0.abs(), b.1.clone()))),
            },
        }
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::zero()
    }
}

impl Add for &Ratio {
    type Output = Ratio;
    fn add(self, rhs: &Ratio) -> Ratio {
        match (&self.repr, &rhs.repr) {
            (&Repr::Small(n1, d1), &Repr::Small(n2, d2)) => {
                let (n1, d1, n2, d2) = (n1 as i128, d1 as i128, n2 as i128, d2 as i128);
                Ratio::from_i128(n1 * d2 + n2 * d1, d1 * d2)
            }
            _ => big_add(self, rhs, false),
        }
    }
}

impl Sub for &Ratio {
    type Output = Ratio;
    fn sub(self, rhs: &Ratio) -> Ratio {
        match (&self.repr, &rhs.repr) {
            (&Repr::Small(n1, d1), &Repr::Small(n2, d2)) => {
                let (n1, d1, n2, d2) = (n1 as i128, d1 as i128, n2 as i128, d2 as i128);
                Ratio::from_i128(n1 * d2 - n2 * d1, d1 * d2)
            }
            _ => big_add(self, rhs, true),
        }
    }
}

impl Mul for &Ratio {
    type Output = Ratio;
    fn mul(self, rhs: &Ratio) -> Ratio {
        match (&self.repr, &rhs.repr) {
            (&Repr::Small(n1, d1), &Repr::Small(n2, d2)) => {
                Ratio::from_i128(n1 as i128 * n2 as i128, d1 as i128 * d2 as i128)
            }
            _ => {
                let (an, ad) = self.big_parts();
                let (bn, bd) = rhs.big_parts();
                big_mul(&an, &ad, &bn, &bd)
            }
        }
    }
}

impl Div for &Ratio {
    type Output = Ratio;
    fn div(self, rhs: &Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "division by zero rational");
        match (&self.repr, &rhs.repr) {
            (&Repr::Small(n1, d1), &Repr::Small(n2, d2)) => {
                Ratio::from_i128(n1 as i128 * d2 as i128, d1 as i128 * n2 as i128)
            }
            // a / b = (an/ad)·(bd/bn); `big_mul` moves bn's sign up.
            _ => {
                let (an, ad) = self.big_parts();
                let (bn, bd) = rhs.big_parts();
                big_mul(&an, &ad, &bd, &bn)
            }
        }
    }
}

/// `x / g` for a gcd `g` of `x`, borrowing `x` when `g` is one.
fn cancel<'a>(x: &'a BigInt, g: &BigInt) -> Cow<'a, BigInt> {
    if g.is_one() {
        Cow::Borrowed(x)
    } else {
        Cow::Owned(x.divexact(g))
    }
}

/// `a + b`, or `a − b` when `subtract`, with at least one `Big` operand.
///
/// Knuth's gcd-splitting (TAOCP vol. 2 §4.5.1): with `d1 = gcd(ad, bd)`
/// and `t = an·(bd/d1) ± bn·(ad/d1)`, every common factor of `t` and the
/// full denominator `(ad/d1)·bd` divides `d1`, because the operands are
/// in lowest terms. So `d2 = gcd(t, d1)` is the only cancellation left,
/// and it is taken over `d1` rather than over the cross products. When
/// `d1 = 1` the plain cross-multiplied sum is already in lowest terms.
fn big_add(a: &Ratio, b: &Ratio, subtract: bool) -> Ratio {
    note_big_op();
    let (an, ad) = a.big_parts();
    let (bn, bd) = b.big_parts();
    let d1 = ad.gcd(&bd);
    let (ad1, bd1) = (cancel(&ad, &d1), cancel(&bd, &d1));
    let (left, right) = (&*an * &*bd1, &*bn * &*ad1);
    let t = if subtract {
        &left - &right
    } else {
        &left + &right
    };
    if t.is_zero() {
        return Ratio::zero();
    }
    let d2 = if d1.is_one() { d1 } else { t.gcd(&d1) };
    let den = &*ad1 * &*cancel(&bd, &d2);
    Ratio::from_normalised_bigints(cancel(&t, &d2).into_owned(), den)
}

/// `(an/ad)·(bn/bd)` for two lowest-terms fractions with at least one
/// `Big` operand, where `bd` may carry the sign (division passes the
/// divisor's parts swapped).
///
/// Cross-cancels `gcd(an, bd)` and `gcd(bn, ad)` before multiplying, so
/// the product is born in lowest terms and no gcd of the full products
/// is ever taken.
fn big_mul(an: &BigInt, ad: &BigInt, bn: &BigInt, bd: &BigInt) -> Ratio {
    note_big_op();
    if an.is_zero() || bn.is_zero() {
        return Ratio::zero();
    }
    let (g1, g2) = (an.gcd(bd), bn.gcd(ad));
    let num = &*cancel(an, &g1) * &*cancel(bn, &g2);
    let den = &*cancel(ad, &g2) * &*cancel(bd, &g1);
    if den.is_negative() {
        Ratio::from_normalised_bigints(-num, -den)
    } else {
        Ratio::from_normalised_bigints(num, den)
    }
}

macro_rules! forward_owned {
    ($trait:ident, $method:ident) => {
        impl $trait for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: Ratio) -> Ratio {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Ratio> for Ratio {
            type Output = Ratio;
            fn $method(self, rhs: &Ratio) -> Ratio {
                (&self).$method(rhs)
            }
        }
    };
}
forward_owned!(Add, add);
forward_owned!(Sub, sub);
forward_owned!(Mul, mul);
forward_owned!(Div, div);

impl AddAssign<&Ratio> for Ratio {
    fn add_assign(&mut self, rhs: &Ratio) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Ratio> for Ratio {
    fn sub_assign(&mut self, rhs: &Ratio) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Ratio> for Ratio {
    fn mul_assign(&mut self, rhs: &Ratio) {
        *self = &*self * rhs;
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        match self.repr {
            // |n| ≤ SMALL_MAX by invariant, so negation cannot overflow.
            Repr::Small(n, d) => Ratio {
                repr: Repr::Small(-n, d),
            },
            // Magnitudes are unchanged, so the value stays non-`Small`.
            Repr::Big(b) => {
                let (num, den) = *b;
                Ratio {
                    repr: Repr::Big(Box::new((-num, den))),
                }
            }
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // Cross-multiply: denominators are positive so order is preserved.
        match (&self.repr, &other.repr) {
            (&Repr::Small(n1, d1), &Repr::Small(n2, d2)) => {
                (n1 as i128 * d2 as i128).cmp(&(n2 as i128 * d1 as i128))
            }
            _ => {
                note_big_op();
                match (self.is_negative(), other.is_negative()) {
                    (true, false) => return Ordering::Less,
                    (false, true) => return Ordering::Greater,
                    _ => {}
                }
                let (an, ad) = self.big_parts();
                let (bn, bd) = other.big_parts();
                (&*an * &*bd).cmp(&(&*bn * &*ad))
            }
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(n, 1) => write!(f, "{n}"),
            Repr::Small(n, d) => write!(f, "{n}/{d}"),
            Repr::Big(b) if b.1.is_one() => write!(f, "{}", b.0),
            Repr::Big(b) => write!(f, "{}/{}", b.0, b.1),
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({self})")
    }
}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses `"a"`, `"a/b"` or a decimal literal such as `"0.125"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((n, d)) = s.split_once('/') {
            let num = BigInt::parse(n.trim()).ok_or(ParseRatioError)?;
            let den = BigInt::parse(d.trim()).ok_or(ParseRatioError)?;
            if den.is_zero() {
                return Err(ParseRatioError);
            }
            return Ok(Ratio::from_bigints(num, den));
        }
        if let Some((int, frac)) = s.split_once('.') {
            let int = if int.is_empty() { "0" } else { int };
            let neg = int.starts_with('-');
            let whole = BigInt::parse(int).ok_or(ParseRatioError)?;
            let fnum = BigInt::parse(frac).ok_or(ParseRatioError)?;
            if fnum.is_negative() {
                return Err(ParseRatioError);
            }
            let scale = BigInt::from(10u64).pow(frac.len() as u32);
            let mag = &(&whole.abs() * &scale) + &fnum;
            let num = if neg { -mag } else { mag };
            return Ok(Ratio::from_bigints(num, scale));
        }
        let num = BigInt::parse(s.trim()).ok_or(ParseRatioError)?;
        Ok(Ratio::from_bigints(num, BigInt::one()))
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio::from_integer(v)
    }
}

impl From<u32> for Ratio {
    fn from(v: u32) -> Self {
        Ratio::from_integer(v as i64)
    }
}

impl std::iter::Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc + x)
    }
}

impl<'a> std::iter::Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the value is held in the inline representation.
    fn is_small(r: &Ratio) -> bool {
        matches!(r.repr, Repr::Small(..))
    }

    #[test]
    fn normalisation() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::zero());
        assert_eq!(Ratio::new(0, 7).denom(), BigInt::one());
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(1, 3);
        assert_eq!(&a + &b, Ratio::new(5, 6));
        assert_eq!(&a - &b, Ratio::new(1, 6));
        assert_eq!(&a * &b, Ratio::new(1, 6));
        assert_eq!(&a / &b, Ratio::new(3, 2));
    }

    #[test]
    fn probability_range() {
        assert!(Ratio::new(1, 2).is_probability());
        assert!(Ratio::zero().is_probability());
        assert!(Ratio::one().is_probability());
        assert!(!Ratio::new(3, 2).is_probability());
        assert!(!Ratio::new(-1, 2).is_probability());
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::zero());
        assert!(Ratio::new(2, 3) > Ratio::new(3, 5));
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(Ratio::new(1, 2).to_string(), "1/2");
        assert_eq!(Ratio::from_integer(5).to_string(), "5");
        assert_eq!("3/4".parse::<Ratio>().unwrap(), Ratio::new(3, 4));
        assert_eq!("7".parse::<Ratio>().unwrap(), Ratio::from_integer(7));
        assert_eq!("0.125".parse::<Ratio>().unwrap(), Ratio::new(1, 8));
        assert_eq!("-0.5".parse::<Ratio>().unwrap(), Ratio::new(-1, 2));
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("x".parse::<Ratio>().is_err());
    }

    #[test]
    fn f64_round_trips() {
        for v in [0.0, 0.5, 0.25, -0.75, 1.0, 0.001, 1.0 / 3.0] {
            let r = Ratio::from_f64(v);
            assert_eq!(r.to_f64(), v, "round trip {v}");
        }
        assert_eq!(Ratio::from_f64(0.5), Ratio::new(1, 2));
        assert_eq!(Ratio::from_f64(0.2).to_f64(), 0.2);
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(Ratio::new(2, 3).pow(3), Ratio::new(8, 27));
        assert_eq!(Ratio::new(2, 3).recip(), Ratio::new(3, 2));
        assert_eq!(Ratio::new(-2, 3).recip(), Ratio::new(-3, 2));
        assert_eq!(Ratio::new(2, 3).pow(0), Ratio::one());
        // Power past the i128 fast path still lands on the exact value.
        let big = Ratio::new(3, 2).pow(100);
        assert_eq!(big, &Ratio::new(3, 2).pow(50) * &Ratio::new(3, 2).pow(50));
    }

    #[test]
    fn sum_iterator() {
        let parts = vec![Ratio::new(1, 4); 4];
        let total: Ratio = parts.into_iter().sum();
        assert_eq!(total, Ratio::one());
    }

    #[test]
    fn large_values_stay_exact() {
        // (1/3 + 1/3 + 1/3) stays exactly 1 even after many operations.
        let third = Ratio::new(1, 3);
        let mut acc = Ratio::zero();
        for _ in 0..99 {
            acc += &third;
        }
        assert_eq!(acc, Ratio::from_integer(33));
    }

    #[test]
    fn small_values_stay_inline() {
        // Probability arithmetic keeps the inline representation.
        let a = Ratio::new(1, 1000);
        let b = Ratio::new(999, 1000);
        assert!(is_small(&(&a + &b)));
        assert!(is_small(&(&a * &b)));
        assert!(is_small(&(&b - &a)));
        assert!(is_small(&(&a / &b)));
        assert!(is_small(&(-a)));
    }

    #[test]
    fn overflow_promotes_and_demotes() {
        let big = Ratio::new(i64::MAX, 1);
        let sq = &big * &big; // > i64::MAX: must promote
        assert!(!is_small(&sq));
        let back = &sq / &big; // exact division demotes again
        assert!(is_small(&back));
        assert_eq!(back, big);
        // i64::MIN does not fit the symmetric Small range.
        let min = Ratio::new(i64::MIN, 1);
        assert!(!is_small(&min));
        assert_eq!(-min, &Ratio::new(i64::MAX, 1) + &Ratio::one());
    }

    #[test]
    fn from_bigints_handles_i128_min() {
        // i128::MIN cannot be negated in i128; the machine-word fast path
        // must skip it rather than overflow.
        let min = BigInt::from(i128::MIN);
        let r = Ratio::from_bigints(BigInt::from(1i64), min.clone());
        assert_eq!(r, Ratio::from_bigints(BigInt::from(-1i64), -min.clone()));
        assert!(r.is_negative());
        assert_eq!(r.denom(), -min.clone());
        let n = Ratio::from_bigints(min.clone(), BigInt::from(2i64));
        assert_eq!(n.numer(), min.divmod(&BigInt::from(2i64)).0);
        assert_eq!(n.denom(), BigInt::one());
    }

    #[test]
    fn representation_is_canonical_for_eq_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // The same value reached via the big path and the small path must
        // compare and hash identically.
        let via_big = Ratio::from_bigints(
            BigInt::from(7u64) * BigInt::from(1u64 << 40),
            BigInt::from(14u64) * BigInt::from(1u64 << 40),
        );
        let via_small = Ratio::new(1, 2);
        assert_eq!(via_big, via_small);
        let hash = |r: &Ratio| {
            let mut h = DefaultHasher::new();
            r.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&via_big), hash(&via_small));
        assert!(is_small(&via_big));
    }
}
