//! Seeded op schedules over stratified populations.
//!
//! A workload's inputs form a fixed *population*; a run is a sequence of
//! *rounds*, each of which visits every population member exactly once in
//! a seeded order. Every input therefore appears equally often whatever
//! the seed, so latency percentiles depend on the program, not on which
//! inputs a seed happened to draw. The seed only permutes.

/// SplitMix64: a tiny, well-mixed, dependency-free generator. The
/// schedule must be reproducible from the seed alone, across builds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream; distinct `(seed, stream)` pairs give
    /// independent-looking sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        // Multiply-shift: bias is below 2^-32 for any population here.
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The order in which round `round` visits a population of `n` inputs: a
/// permutation of `0..n` determined by `(seed, round)` alone.
pub fn round_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, round).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_schedule() {
        for round in 0..4 {
            assert_eq!(round_order(7, round, 80), round_order(7, round, 80));
        }
    }

    #[test]
    fn different_seed_permutes_the_same_multiset() {
        let a = round_order(1, 0, 80);
        let b = round_order(2, 0, 80);
        assert_ne!(a, b, "seeds should reorder");
        let (mut sa, mut sb) = (a, b);
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
        assert_eq!(sa, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn rounds_differ_within_a_seed() {
        assert_ne!(round_order(3, 0, 32), round_order(3, 1, 32));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(9, 0);
        for n in 1..50 {
            assert!(r.below(n) < n);
        }
    }
}
