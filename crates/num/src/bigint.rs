//! Sign-magnitude arbitrary-precision integers over base-2^32 limbs.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};

const BASE_BITS: u32 = 32;

/// An arbitrary-precision signed integer.
///
/// Representation: little-endian `u32` limbs with no trailing zero limb;
/// zero is the empty limb vector with `negative == false`.
///
/// # Examples
///
/// ```
/// use mcnetkat_num::BigInt;
/// let a = BigInt::from(1u64 << 40);
/// let b = BigInt::from(3u64);
/// assert_eq!((&a * &b).to_string(), "3298534883328");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigInt {
    negative: bool,
    limbs: Vec<u32>,
}

impl BigInt {
    /// The integer zero.
    pub fn zero() -> Self {
        BigInt::default()
    }

    /// The integer one.
    pub fn one() -> Self {
        BigInt::from(1u64)
    }

    /// Returns `true` if this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if this integer is one.
    pub fn is_one(&self) -> bool {
        !self.negative && self.limbs == [1]
    }

    /// Returns `true` if this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Returns the absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt {
            negative: false,
            limbs: self.limbs.clone(),
        }
    }

    /// Whether the representation invariant holds: no trailing zero limb,
    /// and zero is the empty limb vector with `negative == false`.
    ///
    /// Always true for values built through this crate's constructors
    /// (every magnitude passes through the private `trim`); exposed by name
    /// so invariant auditors — [`crate::Ratio::is_canonical`] and the FDD
    /// manager's `audit()` pass — can verify stored values instead of
    /// re-deriving the rule.
    pub fn is_normalised(&self) -> bool {
        self.limbs.last() != Some(&0) && !(self.limbs.is_empty() && self.negative)
    }

    fn trim(mut limbs: Vec<u32>, negative: bool) -> BigInt {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        let negative = negative && !limbs.is_empty();
        BigInt { negative, limbs }
    }

    /// Number of significant bits in the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * BASE_BITS as u64 + (32 - top.leading_zeros()) as u64
            }
        }
    }

    fn cmp_abs(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    fn add_abs(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let sum = limb as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
            out.push(sum as u32);
            carry = sum >> BASE_BITS;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// `sub_abs`'s precondition: the minuend's magnitude is at least the
    /// subtrahend's. Named so the assertion failures below say which
    /// contract broke, not just which expression was false.
    fn sub_abs_ordered(a: &[u32], b: &[u32]) -> bool {
        Self::cmp_abs(a, b) != Ordering::Less
    }

    /// Computes `a - b` assuming `|a| >= |b|`.
    fn sub_abs(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = a.to_vec();
        Self::sub_in_place(&mut out, b);
        out
    }

    /// `a -= b` in place assuming `|a| >= |b|`, trimming high zero limbs.
    fn sub_in_place(a: &mut Vec<u32>, b: &[u32]) {
        debug_assert!(
            Self::sub_abs_ordered(a, b),
            "sub_abs: |a| < |b| — callers must pass the larger magnitude first"
        );
        let mut borrow = 0i64;
        for (i, limb) in a.iter_mut().enumerate() {
            if i >= b.len() && borrow == 0 {
                break;
            }
            let mut diff = *limb as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
            if diff < 0 {
                diff += 1 << BASE_BITS;
                borrow = 1;
            } else {
                borrow = 0;
            }
            *limb = diff as u32;
        }
        debug_assert_eq!(
            borrow, 0,
            "sub_abs: borrow escaped the top limb — the |a| >= |b| precondition was violated"
        );
        while a.last() == Some(&0) {
            a.pop();
        }
    }

    fn mul_abs(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u64 + x as u64 * y as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> BASE_BITS;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> BASE_BITS;
                k += 1;
            }
        }
        out
    }

    /// Divides magnitude by a single limb, returning (quotient, remainder).
    fn divmod_small(a: &[u32], d: u32) -> (Vec<u32>, u32) {
        debug_assert!(
            d != 0,
            "divmod_small: zero divisor limb — divmod_abs must reject zero divisors first"
        );
        let mut out = vec![0u32; a.len()];
        let mut rem = 0u64;
        for i in (0..a.len()).rev() {
            let cur = (rem << BASE_BITS) | a[i] as u64;
            out[i] = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        (out, rem as u32)
    }

    /// Magnitude division: returns `(|a| / |b|, |a| % |b|)`.
    ///
    /// Schoolbook long division (Knuth Algorithm D with normalisation).
    fn divmod_abs(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero");
        if Self::cmp_abs(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let (q, r) = Self::divmod_small(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }
        // Normalise so the divisor's top limb has its high bit set.
        let shift = b.last().unwrap().leading_zeros();
        let bn = shl_bits(b, shift);
        let mut an = shl_bits(a, shift);
        an.push(0); // guarantee an extra high limb
        let n = bn.len();
        let m = an.len() - n - 1;
        let mut q = vec![0u32; m + 1];
        let btop = *bn.last().unwrap() as u64;
        let bsecond = bn[n - 2] as u64;
        for j in (0..=m).rev() {
            // Estimate q̂ from the top three limbs.
            let top2 = ((an[j + n] as u64) << BASE_BITS) | an[j + n - 1] as u64;
            let mut qhat = top2 / btop;
            let mut rhat = top2 % btop;
            while qhat >> BASE_BITS != 0
                || qhat * bsecond > ((rhat << BASE_BITS) | an[j + n - 2] as u64)
            {
                qhat -= 1;
                rhat += btop;
                if rhat >> BASE_BITS != 0 {
                    break;
                }
            }
            // Multiply-and-subtract qhat * bn from an[j .. j+n].
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let prod = qhat * bn[i] as u64 + carry;
                carry = prod >> BASE_BITS;
                let mut diff = an[j + i] as i64 - (prod as u32) as i64 - borrow;
                if diff < 0 {
                    diff += 1 << BASE_BITS;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                an[j + i] = diff as u32;
            }
            let mut diff = an[j + n] as i64 - carry as i64 - borrow;
            if diff < 0 {
                // q̂ was one too large: add bn back.
                diff += 1 << BASE_BITS;
                qhat -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let sum = an[j + i] as u64 + bn[i] as u64 + c;
                    an[j + i] = sum as u32;
                    c = sum >> BASE_BITS;
                }
                diff += c as i64;
            }
            an[j + n] = diff as u32;
            q[j] = qhat as u32;
        }
        let rem = shr_bits(&an[..n], shift);
        let mut qv = q;
        while qv.last() == Some(&0) {
            qv.pop();
        }
        (qv, rem)
    }

    /// Returns `(quotient, remainder)` with truncation towards zero.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn divmod(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = Self::divmod_abs(&self.limbs, &other.limbs);
        (
            Self::trim(q, self.negative != other.negative),
            Self::trim(r, self.negative),
        )
    }

    /// The greatest common divisor of the magnitudes (always non-negative).
    ///
    /// Binary gcd (TAOCP vol. 2 §4.5.2, Algorithm B) on two working
    /// copies of the limbs: each step is an in-place subtract and shift,
    /// with no allocation. Operands more than two limbs apart are brought
    /// together by one remainder instead, and once both fit a `u128` the
    /// loop finishes in word arithmetic.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return if self.is_zero() {
                other.abs()
            } else {
                self.abs()
            };
        }
        let mut x = self.limbs.clone();
        let mut y = other.limbs.clone();
        let zx = trailing_zero_bits(&x);
        let zy = trailing_zero_bits(&y);
        shr_in_place(&mut x, zx);
        shr_in_place(&mut y, zy);
        // Both odd from here on, with `x > y` after the swap: `x - y` is
        // even, so every step strips at least one bit.
        loop {
            match Self::cmp_abs(&x, &y) {
                Ordering::Equal => break,
                Ordering::Less => std::mem::swap(&mut x, &mut y),
                Ordering::Greater => {}
            }
            if x.len() <= 4 {
                let word = |v: &[u32]| {
                    v.iter()
                        .rev()
                        .fold(0, |acc, &l| acc << BASE_BITS | l as u128)
                };
                x = BigInt::from(gcd_u128(word(&x), word(&y))).limbs;
                break;
            }
            if x.len() > y.len() + 2 {
                // Subtracting would take a step per few bits of the gap.
                x = Self::divmod_abs(&x, &y).1;
                if x.is_empty() {
                    x = y;
                    break;
                }
            } else {
                Self::sub_in_place(&mut x, &y);
            }
            let z = trailing_zero_bits(&x);
            shr_in_place(&mut x, z);
        }
        let mut out = vec![0; (zx.min(zy) / BASE_BITS as u64) as usize];
        out.extend(shl_bits(&x, (zx.min(zy) % BASE_BITS as u64) as u32));
        Self::trim(out, false)
    }

    /// `self / d` for a divisor known to divide `self` exactly — the
    /// gcd-cancelling steps of [`crate::Ratio`]'s arithmetic.
    ///
    /// Jebelean's right-to-left exact division: each quotient limb is
    /// the low limb of the running remainder times the inverse of the
    /// divisor's odd low limb mod 2³², so no quotient estimate, no
    /// normalisation shift and no correction step are needed.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero. The result is meaningless when `d` does not
    /// divide `self` (debug builds assert it does).
    pub(crate) fn divexact(&self, d: &BigInt) -> BigInt {
        Self::trim(
            Self::divexact_abs(&self.limbs, &d.limbs),
            self.negative != d.negative,
        )
    }

    fn divexact_abs(a: &[u32], d: &[u32]) -> Vec<u32> {
        assert!(!d.is_empty(), "division by zero");
        // Strip the divisor's factors of two from both sides so its low
        // limb is odd, hence invertible mod 2^32.
        let shift = trailing_zero_bits(d);
        let (mut d, mut r) = (d.to_vec(), a.to_vec());
        shr_in_place(&mut d, shift);
        shr_in_place(&mut r, shift);
        if r.len() < d.len() {
            debug_assert!(r.is_empty(), "divexact: divisor does not divide");
            return Vec::new();
        }
        // Newton iteration doubles the correct low bits: 3 → 6 → … → 48.
        let d0 = d[0];
        let mut inv = d0;
        for _ in 0..4 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(d0.wrapping_mul(inv)));
        }
        let n = r.len() - d.len() + 1;
        let mut q = Vec::with_capacity(n);
        for i in 0..n {
            let qi = r[i].wrapping_mul(inv);
            q.push(qi);
            // r[i..] -= qi * d; this zeroes r[i].
            let mut borrow = 0u64;
            for (j, &dj) in d.iter().enumerate() {
                let prod = qi as u64 * dj as u64 + borrow;
                let (diff, under) = r[i + j].overflowing_sub(prod as u32);
                r[i + j] = diff;
                borrow = (prod >> BASE_BITS) + under as u64;
            }
            for limb in &mut r[i + d.len()..] {
                if borrow == 0 {
                    break;
                }
                let (diff, under) = limb.overflowing_sub(borrow as u32);
                *limb = diff;
                borrow = under as u64;
            }
        }
        debug_assert!(
            r.iter().all(|&w| w == 0),
            "divexact: divisor does not divide"
        );
        while q.last() == Some(&0) {
            q.pop();
        }
        q
    }

    /// Lossy conversion to `f64` (round-to-nearest for in-range values,
    /// ±∞ on overflow).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * (1u64 << BASE_BITS) as f64 + limb as f64;
        }
        if self.negative {
            -acc
        } else {
            acc
        }
    }

    /// Conversion to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        if self.negative || self.limbs.len() > 2 {
            return None;
        }
        let lo = *self.limbs.first().unwrap_or(&0) as u64;
        let hi = *self.limbs.get(1).unwrap_or(&0) as u64;
        Some((hi << BASE_BITS) | lo)
    }

    /// Conversion to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.negative || self.limbs.len() > 4 {
            return None;
        }
        let mut out = 0u128;
        for (i, &limb) in self.limbs.iter().enumerate() {
            out |= (limb as u128) << (BASE_BITS as usize * i);
        }
        Some(out)
    }

    /// Conversion to `i128` if the value fits.
    pub fn to_i128(&self) -> Option<i128> {
        let mag = self.abs().to_u128()?;
        if self.negative {
            if mag <= 1u128 << 127 {
                Some((mag as i128).wrapping_neg())
            } else {
                None
            }
        } else {
            i128::try_from(mag).ok()
        }
    }

    /// Conversion to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        let mag = self.abs().to_u64()?;
        if self.negative {
            if mag <= 1u64 << 63 {
                Some((mag as i64).wrapping_neg())
            } else {
                None
            }
        } else {
            i64::try_from(mag).ok()
        }
    }

    /// Parses a decimal string with optional leading `-`.
    ///
    /// Runs on untrusted bytes (the journal and `net::codec` decode
    /// paths), so each 9-digit chunk costs one in-place
    /// multiply-by-`10^k`-and-add pass over the limbs accumulated so far.
    pub fn parse(s: &str) -> Option<BigInt> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut limbs = Vec::with_capacity(digits.len() / 9 + 1);
        for chunk in digits.as_bytes().chunks(9) {
            let part = chunk
                .iter()
                .fold(0u32, |acc, &b| acc * 10 + (b - b'0') as u32);
            mul_small_add(&mut limbs, 10u32.pow(chunk.len() as u32), part);
        }
        Some(Self::trim(limbs, neg))
    }

    /// Raises `self` to a small power.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            base = &base * &base;
            exp >>= 1;
        }
        acc
    }
}

fn shl_bits(v: &[u32], shift: u32) -> Vec<u32> {
    if shift == 0 {
        return v.to_vec();
    }
    let mut out = Vec::with_capacity(v.len() + 1);
    let mut carry = 0u32;
    for &x in v {
        out.push((x << shift) | carry);
        carry = x >> (BASE_BITS - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn shr_bits(v: &[u32], shift: u32) -> Vec<u32> {
    let mut out = v.to_vec();
    shr_in_place(&mut out, shift as u64);
    out
}

/// `v >>= bits` in place, trimming high zero limbs.
fn shr_in_place(v: &mut Vec<u32>, bits: u64) {
    v.drain(..((bits / BASE_BITS as u64) as usize).min(v.len()));
    let shift = (bits % BASE_BITS as u64) as u32;
    if shift != 0 {
        for i in 0..v.len() {
            let hi = v.get(i + 1).copied().unwrap_or(0);
            v[i] = (v[i] >> shift) | (hi << (BASE_BITS - shift));
        }
    }
    while v.last() == Some(&0) {
        v.pop();
    }
}

/// The number of trailing zero bits of a non-zero magnitude.
fn trailing_zero_bits(v: &[u32]) -> u64 {
    let i = v.iter().position(|&w| w != 0).expect("non-zero magnitude");
    i as u64 * BASE_BITS as u64 + v[i].trailing_zeros() as u64
}

/// `v = v * m + add` in place.
fn mul_small_add(v: &mut Vec<u32>, m: u32, add: u32) {
    let mut carry = add as u64;
    for limb in v.iter_mut() {
        let cur = *limb as u64 * m as u64 + carry;
        *limb = cur as u32;
        carry = cur >> BASE_BITS;
    }
    if carry != 0 {
        v.push(carry as u32);
    }
}

/// Euclidean gcd over `u128`, dropping to `u64` arithmetic when both
/// operands fit (the overwhelmingly common case — `u128` division is a
/// software routine on most targets).
pub(crate) fn gcd_u128(a: u128, b: u128) -> u128 {
    if a <= u64::MAX as u128 && b <= u64::MAX as u128 {
        let (mut a, mut b) = (a as u64, b as u64);
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a as u128
    } else {
        let (mut a, mut b) = (a, b);
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        let mut limbs = vec![v as u32, (v >> BASE_BITS) as u32];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigInt {
            negative: false,
            limbs,
        }
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        let mut b = BigInt::from(v.unsigned_abs());
        b.negative = v < 0;
        b
    }
}

impl From<u32> for BigInt {
    fn from(v: u32) -> Self {
        BigInt::from(v as u64)
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> Self {
        let mut limbs = vec![
            v as u32,
            (v >> 32) as u32,
            (v >> 64) as u32,
            (v >> 96) as u32,
        ];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigInt {
            negative: false,
            limbs,
        }
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let mut b = BigInt::from(v.unsigned_abs());
        b.negative = v < 0;
        b
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Self::cmp_abs(&self.limbs, &other.limbs),
            (true, true) => Self::cmp_abs(&other.limbs, &self.limbs),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.negative == rhs.negative {
            BigInt::trim(BigInt::add_abs(&self.limbs, &rhs.limbs), self.negative)
        } else {
            match BigInt::cmp_abs(&self.limbs, &rhs.limbs) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::trim(BigInt::sub_abs(&self.limbs, &rhs.limbs), self.negative)
                }
                Ordering::Less => {
                    BigInt::trim(BigInt::sub_abs(&rhs.limbs, &self.limbs), rhs.negative)
                }
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs.clone())
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::trim(
            BigInt::mul_abs(&self.limbs, &rhs.limbs),
            self.negative != rhs.negative,
        )
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.divmod(rhs).1
    }
}

macro_rules! forward_owned {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
    };
}
forward_owned!(Add, add);
forward_owned!(Sub, sub);
forward_owned!(Mul, mul);
forward_owned!(Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        if !self.is_zero() {
            self.negative = !self.negative;
        }
        self
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        if self.negative {
            write!(f, "-")?;
        }
        // Repeated division by 10^9 produces base-10^9 digits.
        let mut limbs = self.limbs.clone();
        let mut chunks = Vec::new();
        while !limbs.is_empty() {
            let (q, r) = BigInt::divmod_small(&limbs, 1_000_000_000);
            limbs = q;
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            chunks.push(r);
        }
        write!(f, "{}", chunks.last().unwrap())?;
        for chunk in chunks.iter().rev().skip(1) {
            write!(f, "{chunk:09}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: i64) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert_eq!(BigInt::zero().to_string(), "0");
    }

    #[test]
    fn add_small() {
        assert_eq!(big(2) + big(3), big(5));
        assert_eq!(big(-2) + big(3), big(1));
        assert_eq!(big(2) + big(-3), big(-1));
        assert_eq!(big(-2) + big(-3), big(-5));
    }

    #[test]
    fn sub_small() {
        assert_eq!(big(10) - big(3), big(7));
        assert_eq!(big(3) - big(10), big(-7));
        assert_eq!(big(5) - big(5), BigInt::zero());
    }

    #[test]
    fn mul_small() {
        assert_eq!(big(7) * big(6), big(42));
        assert_eq!(big(-7) * big(6), big(-42));
        assert_eq!(big(0) * big(123), BigInt::zero());
    }

    #[test]
    fn mul_carries_across_limbs() {
        let a = BigInt::from(u64::MAX);
        let sq = &a * &a;
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        assert_eq!(sq.to_string(), "340282366920938463426481119284349108225");
    }

    #[test]
    fn divmod_small_values() {
        let (q, r) = big(17).divmod(&big(5));
        assert_eq!((q, r), (big(3), big(2)));
        let (q, r) = big(-17).divmod(&big(5));
        assert_eq!((q, r), (big(-3), big(-2)));
        let (q, r) = big(17).divmod(&big(-5));
        assert_eq!((q, r), (big(-3), big(2)));
    }

    #[test]
    fn divmod_multi_limb() {
        let a = BigInt::parse("123456789012345678901234567890").unwrap();
        let b = BigInt::parse("987654321098765").unwrap();
        let (q, r) = a.divmod(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn division_by_zero_panics() {
        let result = std::panic::catch_unwind(|| big(1).divmod(&BigInt::zero()));
        assert!(result.is_err());
    }

    #[test]
    fn gcd_values() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(-12).gcd(&big(18)), big(6));
        assert_eq!(big(0).gcd(&big(5)), big(5));
        assert_eq!(big(7).gcd(&big(13)), big(1));
    }

    #[test]
    fn gcd_multi_limb_values() {
        let k = BigInt::from(1000u64).pow(9) * BigInt::from(7u64).pow(20);
        let a = &k * &BigInt::from(3u64).pow(41);
        let b = &k * &(BigInt::from(2u64).pow(90) + BigInt::one());
        assert_eq!(a.gcd(&b), k);
        assert_eq!(a.gcd(&a), a);
        assert_eq!((-a.clone()).gcd(&BigInt::zero()), a);
        // Far-apart sizes take the one-off remainder first.
        assert_eq!(
            BigInt::from(3u64).pow(300).gcd(&BigInt::from(3u64).pow(5)),
            big(243)
        );
    }

    #[test]
    fn divexact_values() {
        let d = BigInt::from(1000u64).pow(7) * big(-21);
        let q = BigInt::from(3u64).pow(77) + big(5);
        assert_eq!((&q * &d).divexact(&d), q);
        assert_eq!((-(&q * &d)).divexact(&d), -q.clone());
        assert_eq!(BigInt::zero().divexact(&d), BigInt::zero());
        assert_eq!(d.divexact(&d), BigInt::one());
        assert_eq!(big(-84).divexact(&big(4)), big(-21));
        assert_eq!(
            BigInt::from(1u64 << 40).divexact(&BigInt::from(1u64 << 33)),
            big(128)
        );
    }

    #[test]
    fn display_round_trips_parse() {
        for s in [
            "0",
            "1",
            "-1",
            "999999999",
            "1000000000",
            "123456789012345678901234567890",
            "-98765432109876543210",
        ] {
            assert_eq!(BigInt::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BigInt::parse("").is_none());
        assert!(BigInt::parse("-").is_none());
        assert!(BigInt::parse("12a3").is_none());
    }

    #[test]
    fn to_f64_matches() {
        assert_eq!(big(12345).to_f64(), 12345.0);
        assert_eq!(big(-7).to_f64(), -7.0);
        let a = BigInt::from(1u64 << 53);
        assert_eq!(a.to_f64(), 9007199254740992.0);
    }

    #[test]
    fn conversions() {
        assert_eq!(big(42).to_u64(), Some(42));
        assert_eq!(big(-42).to_u64(), None);
        assert_eq!(big(-42).to_i64(), Some(-42));
        assert_eq!(BigInt::from(u64::MAX).to_i64(), None);
        assert_eq!(BigInt::from(i64::MIN).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn pow_values() {
        assert_eq!(big(2).pow(10), big(1024));
        assert_eq!(big(10).pow(0), big(1));
        assert_eq!(big(3).pow(40).to_string(), "12157665459056928801");
    }

    #[test]
    fn ordering() {
        assert!(big(-5) < big(3));
        assert!(big(3) < big(5));
        assert!(big(-3) > big(-5));
        let a = BigInt::parse("123456789012345678901").unwrap();
        assert!(a > big(i64::MAX));
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(255).bits(), 8);
        assert_eq!(BigInt::from(1u64 << 40).bits(), 41);
    }
}
