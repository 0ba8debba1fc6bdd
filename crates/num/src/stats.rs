//! Thread-local gauges for the `Ratio` layer's slow path.
//!
//! Only the `Big` arms and the promotion branch touch these counters, so
//! arithmetic on two inline `Small` values that stays inline pays nothing.

use std::cell::Cell;

/// Counts of [`crate::Ratio`] operations that left the inline fast path,
/// on the calling thread since its last [`reset_arith_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArithStats {
    /// `+ − × ÷` and comparisons with at least one `Big` operand.
    pub big_ops: u64,
    /// Values computed in machine words that did not fit the inline
    /// representation and were promoted to a `Big` pair.
    pub promotions: u64,
}

thread_local! {
    static STATS: Cell<ArithStats> = const {
        Cell::new(ArithStats { big_ops: 0, promotions: 0 })
    };
}

/// This thread's counters. Work on other threads (e.g. parallel compile
/// workers) is not included.
pub fn arith_stats() -> ArithStats {
    STATS.with(Cell::get)
}

/// Zeroes this thread's counters.
pub fn reset_arith_stats() {
    STATS.with(|s| s.set(ArithStats::default()));
}

fn bump(update: impl FnOnce(&mut ArithStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        update(&mut v);
        s.set(v);
    });
}

pub(crate) fn note_big_op() {
    bump(|v| v.big_ops += 1);
}

pub(crate) fn note_promotion() {
    bump(|v| v.promotions += 1);
}
