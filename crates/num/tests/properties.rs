//! Property-based tests for the exact-arithmetic substrate.

use mcnetkat_num::{BigInt, Ratio};
use proptest::prelude::*;

fn arb_bigint() -> impl Strategy<Value = BigInt> {
    // Mix of small values and multi-limb values built from parts.
    prop_oneof![
        any::<i64>().prop_map(BigInt::from),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(a, b, neg)| {
            let v = BigInt::from(a) * BigInt::from(u64::MAX) + BigInt::from(b);
            if neg {
                -v
            } else {
                v
            }
        }),
    ]
}

fn arb_ratio() -> impl Strategy<Value = Ratio> {
    (any::<i32>(), 1..=10_000i64).prop_map(|(n, d)| Ratio::new(n as i64, d))
}

proptest! {
    #[test]
    fn add_commutes(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_distributes(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in arb_bigint(), b in arb_bigint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn divmod_identity(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divmod(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.abs() < b.abs());
        // Remainder has the sign of the dividend (or is zero).
        prop_assert!(r.is_zero() || r.is_negative() == a.is_negative());
    }

    #[test]
    fn gcd_divides_both(a in arb_bigint(), b in arb_bigint()) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn display_parse_round_trip(a in arb_bigint()) {
        let s = a.to_string();
        prop_assert_eq!(BigInt::parse(&s).unwrap(), a);
    }

    #[test]
    fn ratio_field_axioms(a in arb_ratio(), b in arb_ratio(), c in arb_ratio()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&(&a + &b) - &b, a.clone());
        if !b.is_zero() {
            prop_assert_eq!(&(&a / &b) * &b, a);
        }
    }

    #[test]
    fn ratio_normalised(n in any::<i32>(), d in 1..=10_000i64) {
        let r = Ratio::new(n as i64, d);
        prop_assert!(!r.denom().is_negative());
        prop_assert!(!r.denom().is_zero());
        let g = r.numer().gcd(&r.denom());
        prop_assert!(g.is_one() || r.is_zero());
    }

    #[test]
    fn ratio_matches_f64(a in arb_ratio(), b in arb_ratio()) {
        let exact = (&a + &b).to_f64();
        let approx = a.to_f64() + b.to_f64();
        // Relative tolerance: the operands may be large.
        let scale = 1.0f64.max(exact.abs());
        prop_assert!((exact - approx).abs() < 1e-9 * scale);
    }

    #[test]
    fn ratio_ordering_matches_f64(a in arb_ratio(), b in arb_ratio()) {
        if a < b {
            prop_assert!(a.to_f64() <= b.to_f64());
        }
    }

    #[test]
    fn ratio_string_round_trip(a in arb_ratio()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Ratio>().unwrap(), a);
    }

    #[test]
    fn from_f64_exact(v in -1.0e9..1.0e9f64) {
        prop_assert_eq!(Ratio::from_f64(v).to_f64(), v);
    }
}

// ---------------------------------------------------------------------------
// Small/big fast-path agreement.
//
// `Ratio` stores machine-word-sized values inline and computes on them with
// `i128` intermediates; only overflowing results promote to heap `BigInt`
// pairs. These properties drive operands across the promotion boundary
// (i64::MAX-adjacent numerators and denominators) and pin every operator
// against a reference computed entirely in `BigInt` arithmetic, which both
// paths must agree with.
// ---------------------------------------------------------------------------

/// Operands clustered at the `Small` representation's edges: huge positive,
/// huge negative, and ordinary magnitudes.
fn arb_boundary_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0..1000i64).prop_map(|k| i64::MAX - k),
        (0..1000i64).prop_map(|k| -(i64::MAX - k)),
        -1000..1000i64,
        any::<i64>(),
    ]
}

fn arb_boundary_den() -> impl Strategy<Value = i64> {
    prop_oneof![1..1000i64, (0..1000i64).prop_map(|k| i64::MAX - k)]
}

fn arb_boundary_ratio() -> impl Strategy<Value = Ratio> {
    (arb_boundary_i64(), arb_boundary_den()).prop_map(|(n, d)| Ratio::new(n, d))
}

/// Euclid's algorithm over `divmod`: the gcd `BigInt::gcd` replaced,
/// kept as a reference that shares no code with the binary-gcd kernel.
fn euclid_gcd(a: &BigInt, b: &BigInt) -> BigInt {
    let (mut a, mut b) = (a.abs(), b.abs());
    while !b.is_zero() {
        let r = a.divmod(&b).1;
        a = b;
        b = r;
    }
    a
}

/// `n/d` in lowest terms with positive denominator, normalised by
/// cross-multiplying and then cancelling with [`euclid_gcd`] — the
/// textbook algorithm `Ratio`'s gcd-splitting arms replaced.
fn ref_normalise(n: BigInt, d: BigInt) -> (BigInt, BigInt) {
    let (n, d) = if d.is_negative() { (-n, -d) } else { (n, d) };
    if n.is_zero() {
        return (BigInt::zero(), BigInt::one());
    }
    let g = euclid_gcd(&n, &d);
    (n.divmod(&g).0, d.divmod(&g).0)
}

/// A value's `(numerator, denominator)`, the form references return.
fn parts(r: &Ratio) -> (BigInt, BigInt) {
    (r.numer(), r.denom())
}

/// Reference addition computed wholly in `BigInt` arithmetic.
fn ref_add(a: &Ratio, b: &Ratio) -> (BigInt, BigInt) {
    ref_normalise(
        a.numer() * b.denom() + b.numer() * a.denom(),
        a.denom() * b.denom(),
    )
}

fn ref_sub(a: &Ratio, b: &Ratio) -> (BigInt, BigInt) {
    ref_normalise(
        a.numer() * b.denom() - b.numer() * a.denom(),
        a.denom() * b.denom(),
    )
}

fn ref_mul(a: &Ratio, b: &Ratio) -> (BigInt, BigInt) {
    ref_normalise(a.numer() * b.numer(), a.denom() * b.denom())
}

fn ref_div(a: &Ratio, b: &Ratio) -> (BigInt, BigInt) {
    ref_normalise(a.numer() * b.denom(), a.denom() * b.numer())
}

fn ref_cmp(a: &Ratio, b: &Ratio) -> std::cmp::Ordering {
    (a.numer() * b.denom()).cmp(&(b.numer() * a.denom()))
}

fn std_hash(r: &Ratio) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

proptest! {
    #[test]
    fn boundary_add_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        check_against(&(&a + &b), ref_add(&a, &b))?;
    }

    #[test]
    fn boundary_sub_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        check_against(&(&a - &b), ref_sub(&a, &b))?;
    }

    #[test]
    fn boundary_mul_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        check_against(&(&a * &b), ref_mul(&a, &b))?;
    }

    #[test]
    fn boundary_div_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        prop_assume!(!b.is_zero());
        check_against(&(&a / &b), ref_div(&a, &b))?;
    }

    #[test]
    fn boundary_cmp_matches_bigint_reference(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        prop_assert_eq!(a.cmp(&b), ref_cmp(&a, &b));
    }

    #[test]
    fn boundary_results_stay_in_lowest_terms(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        for r in [&a + &b, &a - &b, &a * &b] {
            prop_assert!(!r.denom().is_negative() && !r.denom().is_zero());
            let g = r.numer().gcd(&r.denom());
            prop_assert!(g.is_one() || r.is_zero(), "not in lowest terms: {:?}", r);
        }
    }

    #[test]
    fn boundary_hash_is_representation_independent(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        // The same value rebuilt through the all-BigInt constructor (which
        // may enter via the promoted path) must hash identically — the
        // canonical-representation invariant Eq/Hash rely on.
        let sum = &a + &b;
        let rebuilt = Ratio::from_bigints(sum.numer(), sum.denom());
        prop_assert_eq!(&sum, &rebuilt);
        prop_assert_eq!(std_hash(&sum), std_hash(&rebuilt));
    }

    #[test]
    fn boundary_add_round_trips_through_sub(a in arb_boundary_ratio(), b in arb_boundary_ratio()) {
        // Exercises promote-then-demote: (a + b) - b must land back on a
        // exactly, whatever representations the intermediates took.
        prop_assert_eq!(&(&a + &b) - &b, a);
    }
}

// ---------------------------------------------------------------------------
// The `Big` path against the textbook algorithms.
//
// `Ratio`'s `Big` arms cancel by gcd-splitting before they multiply, and
// `BigInt::gcd` is a binary gcd with a `u128` tail. Chain solves feed them
// multi-limb values built from a few repeated factors (powers of the
// failure probability's denominator, small-prime products), so these
// strategies draw operands with exactly that shape, mixed with inline
// `Small` values, and pin every operator against cross-multiply-then-
// Euclid references that share no code with the kernel under test.
// ---------------------------------------------------------------------------

const SMALL_PRIMES: [u64; 10] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29];

/// A positive magnitude assembled from `u32` limbs, most significant
/// first.
fn from_limbs(limbs: &[u32]) -> BigInt {
    limbs.iter().fold(BigInt::zero(), |acc, &l| {
        acc * BigInt::from(1u64 << 32) + BigInt::from(l)
    })
}

/// Positive multi-limb magnitudes with heavy shared factor structure:
/// powers of 1000, smooth `2^i·3^j·7^l`, products of small primes, and
/// arbitrary 2–8-limb values.
fn arb_factor() -> impl Strategy<Value = BigInt> {
    prop_oneof![
        (1..=24u32).prop_map(|k| BigInt::from(1000u64).pow(k)),
        (0..=80u32, 0..=50u32, 0..=30u32).prop_map(|(i, j, l)| {
            BigInt::from(2u64).pow(i) * BigInt::from(3u64).pow(j) * BigInt::from(7u64).pow(l)
        }),
        proptest::collection::vec(0..SMALL_PRIMES.len(), 1..61).prop_map(|ix| {
            ix.iter()
                .fold(BigInt::one(), |acc, &i| acc * BigInt::from(SMALL_PRIMES[i]))
        }),
        proptest::collection::vec(any::<u32>(), 2..9).prop_map(|mut limbs| {
            limbs[0] |= 1; // keep the top limb non-zero
            from_limbs(&limbs)
        }),
    ]
}

/// Numerators: a structured factor nudged by a small offset (so it is
/// sometimes coprime to the denominators and sometimes not), a bare
/// structured factor, or an arbitrary machine word.
fn arb_numer() -> impl Strategy<Value = BigInt> {
    prop_oneof![
        (arb_factor(), -3..=3i64, any::<bool>()).prop_map(|(f, off, neg)| {
            let v = f + BigInt::from(off);
            if neg {
                -v
            } else {
                v
            }
        }),
        arb_factor(),
        any::<i64>().prop_map(BigInt::from),
    ]
}

/// Mostly multi-limb `Big` ratios with structured denominators, plus
/// inline values on and off the promotion boundary for `Small`×`Big`
/// mixes.
fn arb_mixed_ratio() -> impl Strategy<Value = Ratio> {
    prop_oneof![
        (arb_numer(), arb_factor()).prop_map(|(n, d)| Ratio::from_bigints(n, d)),
        (arb_numer(), arb_factor(), arb_factor())
            .prop_map(|(n, d, e)| Ratio::from_bigints(n, d * e)),
        arb_boundary_ratio(),
        arb_ratio(),
    ]
}

/// `r` equals the reference parts, is canonical (so `Small` exactly when
/// it fits), and is structurally equal to, and hashes like, the same value
/// rebuilt from those parts.
fn check_against(r: &Ratio, expected: (BigInt, BigInt)) -> TestCaseResult {
    prop_assert!(r.is_canonical(), "not canonical: {:?}", r);
    prop_assert_eq!(parts(r), expected.clone());
    let rebuilt = Ratio::from_bigints(expected.0, expected.1);
    prop_assert_eq!(r, &rebuilt);
    prop_assert_eq!(std_hash(r), std_hash(&rebuilt));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn shared_factor_arithmetic_matches_reference(a in arb_mixed_ratio(), b in arb_mixed_ratio()) {
        prop_assert!(a.is_canonical() && b.is_canonical());
        check_against(&(&a + &b), ref_add(&a, &b))?;
        check_against(&(&a - &b), ref_sub(&a, &b))?;
        check_against(&(&a * &b), ref_mul(&a, &b))?;
        if !b.is_zero() {
            check_against(&(&a / &b), ref_div(&a, &b))?;
        }
        prop_assert_eq!(a.cmp(&b), ref_cmp(&a, &b));
        prop_assert_eq!(b.cmp(&a), ref_cmp(&b, &a));
    }

    #[test]
    fn shared_factor_cancellation_lands_on_exact_values(a in arb_mixed_ratio(), b in arb_mixed_ratio()) {
        // Results whose every factor cancels must come back canonical,
        // demoted to the inline form when they fit.
        check_against(&(&(&a + &b) - &b), parts(&a))?;
        check_against(&(&a - &a), (BigInt::zero(), BigInt::one()))?;
        if !b.is_zero() {
            check_against(&(&(&a * &b) / &b), parts(&a))?;
            check_against(&(&b / &b), (BigInt::one(), BigInt::one()))?;
        }
    }

    #[test]
    fn gcd_matches_euclid_with_coprime_cofactors(
        common in arb_factor(),
        x in arb_numer(),
        y in arb_numer(),
    ) {
        let (a, b) = (&common * &x, &common * &y);
        for (a, b) in [(&a, &b), (&x, &y), (&a, &y), (&common, &x)] {
            let g = a.gcd(b);
            prop_assert_eq!(&g, &euclid_gcd(a, b));
            prop_assert!(!g.is_negative());
            if g.is_zero() {
                prop_assert!(a.is_zero() && b.is_zero());
                continue;
            }
            let (ca, ra) = a.divmod(&g);
            let (cb, rb) = b.divmod(&g);
            prop_assert!(ra.is_zero() && rb.is_zero(), "gcd does not divide");
            prop_assert!(euclid_gcd(&ca, &cb).is_one(), "cofactors share a factor");
        }
    }
}

#[test]
fn gcd_edge_cases_match_euclid() {
    let big = BigInt::from(1000u64).pow(12);
    let cases = [
        (BigInt::zero(), BigInt::zero()),
        (BigInt::zero(), big.clone()),
        (big.clone(), big.clone()),
        (-big.clone(), big.clone()),
        (
            big.clone() * BigInt::from(2u64).pow(70),
            BigInt::from(2u64).pow(200),
        ),
        (big.clone() + BigInt::one(), big.clone()),
        (BigInt::from(u128::MAX), BigInt::from(u128::MAX - 1)),
        (
            BigInt::from(u128::MAX) * BigInt::from(3u64),
            BigInt::from(u128::MAX),
        ),
        (
            BigInt::from(3u64).pow(200),
            BigInt::from(3u64).pow(7) * BigInt::from(5u64),
        ),
    ];
    for (a, b) in &cases {
        assert_eq!(a.gcd(b), euclid_gcd(a, b), "gcd({a}, {b})");
        assert_eq!(b.gcd(a), euclid_gcd(a, b), "gcd({b}, {a})");
    }
}

#[test]
fn ten_thousand_digit_parse_round_trips() {
    // A deterministic pseudo-random digit string with a non-zero lead.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let digits: String = std::iter::once('7')
        .chain((1..10_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            char::from(b'0' + (state % 10) as u8)
        }))
        .collect();
    let v = BigInt::parse(&digits).unwrap();
    assert_eq!(v.to_string(), digits);
    let neg = BigInt::parse(&format!("-{digits}")).unwrap();
    assert_eq!(neg, -v.clone());
    // Agrees with the value built arithmetically.
    let pow = BigInt::parse(&format!("1{}", "0".repeat(9_999))).unwrap();
    assert_eq!(pow, BigInt::from(10u64).pow(9_999));
    assert_eq!(BigInt::parse(&format!("000{digits}")).unwrap(), v);
}

#[test]
fn multi_limb_ratio_string_round_trip() {
    let num = BigInt::from(3u64).pow(150) + BigInt::one();
    let den = BigInt::from(1000u64).pow(30);
    let r = Ratio::from_bigints(-num.clone(), den.clone());
    let s = r.to_string();
    assert_eq!(s.parse::<Ratio>().unwrap(), r);
    // An unreduced spelling parses to the same canonical value.
    let k = BigInt::from(7u64).pow(40);
    let unreduced = format!("{}/{}", -num * k.clone(), den * k);
    let parsed = unreduced.parse::<Ratio>().unwrap();
    assert!(parsed.is_canonical());
    assert_eq!(parsed, r);
    assert_eq!(std_hash(&parsed), std_hash(&r));
}
