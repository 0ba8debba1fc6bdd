//! The host-speed yardstick: a fixed computation that calls no library
//! code, timed in short slices between the ops of an untraced run.
//!
//! The host the benchmark shares runs the same work 1.5–2× slower for
//! seconds to minutes at a time, and every op of a run slows with it. The
//! yardstick slows with the host but not with the program: it is the same
//! code in every version. So an op's wall time times
//! `REFERENCE_NS / (yardstick time around the op)` is its time at a fixed
//! reference speed. A program that gets slower, in every op or in a few,
//! moves that by the full amount; a host that gets slower moves both
//! sides of the ratio and cancels. No op is left out.
//!
//! A slice is one untimed pass that brings the yardstick's data back into
//! cache and one timed pass, so what the program left in the cache does
//! not change the reading. Its buffers add about 0.3 MiB to the process.

use crate::metrics::median;
use crate::schedule::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One slice's time on the box the bounds were calibrated on (median over
/// the calibration runs, see CALIBRATION.md), on one thread and on two:
/// the reference speed.
pub const REFERENCE_NS: [f64; 2] = [85_000.0, 660_000.0];
/// An op is scaled by the slices taken within this long of its midpoint.
const WINDOW_NS: u64 = 1_000_000_000;
/// Slices taken just before and just after a timed set-up.
const BURST: usize = 8;
/// Slots of the pointer-chase ring (256 KiB, cache-resident once warmed).
const RING: usize = 1 << 16;
const CHASE_STEPS: usize = 4096;
/// Keys hashed into a table and sorted per pass.
const KEYS: usize = 1500;

/// One timed slice: when it started (ns since the pass began) and how long
/// it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at_ns: u64,
    pub ns: u64,
}

/// One thread's hash table and sort buffer, allocated once so that the
/// program's heap does not change the reading.
struct Scratch {
    table: HashMap<u64, u64>,
    keys: Vec<u64>,
}

pub struct Yardstick {
    /// A single random cycle through `RING` slots.
    ring: Vec<u32>,
    /// One per thread a slice runs on.
    scratch: Vec<Scratch>,
    /// Samples in time order.
    pub samples: Vec<Sample>,
}

/// The fixed work: a dependent pointer chase, then hashing into a table
/// and a sort, the kinds of work the diagram tables do. It allocates
/// nothing.
fn pass(ring: &[u32], s: &mut Scratch) -> u64 {
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..CHASE_STEPS {
        at = ring[at as usize];
        acc = acc.wrapping_add(u64::from(at));
    }
    let mut rng = Rng::new(11, 2);
    s.table.clear();
    for i in 0..KEYS as u64 {
        s.table.insert(rng.next_u64() & 0xF_FFFF, i);
    }
    s.keys.clear();
    s.keys.extend((0..KEYS).map(|_| rng.next_u64()));
    s.keys.sort_unstable();
    acc ^ s.keys[KEYS / 2] ^ s.table.len() as u64
}

impl Yardstick {
    /// A yardstick for ops that run on `threads` threads (1 or 2).
    pub fn new(threads: usize) -> Yardstick {
        assert!((1..=REFERENCE_NS.len()).contains(&threads));
        let mut order: Vec<u32> = (0..RING as u32).collect();
        Rng::new(5, 0).shuffle(&mut order);
        let mut ring = vec![0u32; RING];
        for w in 0..RING {
            ring[order[w] as usize] = order[(w + 1) % RING];
        }
        let scratch = (0..threads)
            .map(|_| Scratch {
                table: HashMap::with_capacity(KEYS),
                keys: Vec::with_capacity(KEYS),
            })
            .collect();
        Yardstick {
            ring,
            scratch,
            samples: Vec::new(),
        }
    }

    fn reference_ns(&self) -> f64 {
        REFERENCE_NS[self.scratch.len() - 1]
    }

    /// One slice. On one thread: a pass that warms the cache, then the
    /// timed pass. On more: as a query batch does, one spawned thread per
    /// worker, each making both passes, timed from the spawn until all
    /// have joined, so that the reading sees the second CPU too.
    fn slice_ns(&mut self) -> u64 {
        let ring = &self.ring;
        let start;
        match self.scratch.as_mut_slice() {
            [one] => {
                black_box(pass(ring, one));
                start = Instant::now();
                black_box(pass(ring, one));
            }
            many => {
                start = Instant::now();
                std::thread::scope(|scope| {
                    for s in many.iter_mut() {
                        scope.spawn(move || {
                            black_box(pass(ring, s));
                            black_box(pass(ring, s));
                        });
                    }
                });
            }
        }
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Takes one slice and keeps it, stamped `at_ns` into the pass.
    pub fn sample(&mut self, at_ns: u64) {
        let ns = self.slice_ns();
        self.samples.push(Sample { at_ns, ns });
    }

    /// The reference-speed factor of a pass: the reference slice time over
    /// the median slice. 1 without samples.
    pub fn factor(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.ns as f64).collect();
        if all.is_empty() {
            1.0
        } else {
            self.reference_ns() / median(&all)
        }
    }

    /// The factor for an op whose midpoint is `mid_ns` into the pass: over
    /// the slices within `WINDOW_NS` of it, or over the pass if none are.
    pub fn factor_at(&self, mid_ns: u64) -> f64 {
        let lo = self
            .samples
            .partition_point(|s| s.at_ns < mid_ns.saturating_sub(WINDOW_NS));
        let hi = self
            .samples
            .partition_point(|s| s.at_ns <= mid_ns.saturating_add(WINDOW_NS));
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.ns as f64).collect();
        if near.is_empty() {
            self.factor()
        } else {
            self.reference_ns() / median(&near)
        }
    }

    /// Runs `f` between two bursts of slices. Returns its result, its wall
    /// time in seconds, and the reference-speed factor of the bursts.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let mut near: Vec<f64> = (0..BURST).map(|_| self.slice_ns() as f64).collect();
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        near.extend((0..BURST).map(|_| self.slice_ns() as f64));
        (out, secs, self.reference_ns() / median(&near))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stick(samples: &[(u64, u64)]) -> Yardstick {
        let mut y = Yardstick::new(1);
        y.samples = samples
            .iter()
            .map(|&(at_ns, ns)| Sample { at_ns, ns })
            .collect();
        y
    }

    #[test]
    fn factor_follows_the_slices_near_an_op() {
        let s = 1_000_000_000;
        // Reference speed for 10 s, then a host twice as slow.
        let reference = REFERENCE_NS[0] as u64;
        let samples: Vec<(u64, u64)> = (0..40)
            .map(|i| (i * s / 2, if i < 20 { reference } else { 2 * reference }))
            .collect();
        let y = stick(&samples);
        assert_eq!(y.factor_at(2 * s), 1.0);
        assert_eq!(y.factor_at(17 * s), 0.5);
        // Far from any slice: the whole pass.
        assert_eq!(y.factor_at(100 * s), y.factor());
        assert_eq!(stick(&[]).factor(), 1.0);
    }

    #[test]
    fn around_times_only_its_closure() {
        for threads in [1, 2] {
            let mut y = Yardstick::new(threads);
            let (out, secs, factor) = y.around(|| 7);
            assert_eq!(out, 7);
            assert!(secs < 0.01, "{secs}");
            assert!(factor > 0.0 && factor.is_finite());
        }
    }
}
