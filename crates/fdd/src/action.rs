//! Leaf actions of probabilistic FDDs.
//!
//! A leaf of a probabilistic FDD holds a distribution over *actions*, where
//! an action is either `drop` or a set of field modifications (§5.1).

use mcnetkat_core::{Field, Packet, Value};
use mcnetkat_num::Ratio;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An FDD action: drop the packet, or apply a set of modifications.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Action {
    /// Drop the packet.
    Drop,
    /// Apply modifications (sorted by field, no zero-effect entries are
    /// removed — `f<-0` is a real modification).
    Mods(Vec<(Field, Value)>),
}

impl Action {
    /// The identity action (no modifications).
    pub fn skip() -> Action {
        Action::Mods(Vec::new())
    }

    /// A single modification `f <- v`.
    pub fn assign(f: Field, v: Value) -> Action {
        Action::Mods(vec![(f, v)])
    }

    /// Builds a modification set from pairs (later pairs win), sorted.
    pub fn mods<I: IntoIterator<Item = (Field, Value)>>(pairs: I) -> Action {
        let mut mods: Vec<(Field, Value)> = pairs.into_iter().collect();
        // Stable sort keeps insertion order within equal fields, so the
        // last-wins rule survives sorting; the dedup then keeps the later
        // element of each equal-field run. The result stays sorted by
        // field — the invariant `Action::lookup`'s binary search needs.
        mods.sort_by_key(|&(f, _)| f);
        mods.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        Action::Mods(mods)
    }

    /// Returns `true` for the identity action.
    pub fn is_skip(&self) -> bool {
        matches!(self, Action::Mods(m) if m.is_empty())
    }

    /// Sequential composition: first `self`, then `other` (whose
    /// modifications win on conflicts). `Drop` is absorbing on both sides.
    pub fn then(&self, other: &Action) -> Action {
        match (self, other) {
            (Action::Drop, _) | (_, Action::Drop) => Action::Drop,
            (Action::Mods(a), Action::Mods(b)) => {
                Action::mods(a.iter().copied().chain(b.iter().copied()))
            }
        }
    }

    /// Applies the action to a packet (`None` = dropped).
    pub fn apply(&self, pk: &Packet) -> Option<Packet> {
        match self {
            Action::Drop => None,
            Action::Mods(mods) => {
                let mut out = pk.clone();
                for &(f, v) in mods {
                    out.set(f, v);
                }
                Some(out)
            }
        }
    }

    /// The modification this action performs on `f`, if any.
    pub fn lookup(&self, f: Field) -> Option<Value> {
        match self {
            Action::Drop => None,
            Action::Mods(mods) => mods
                .binary_search_by_key(&f, |&(g, _)| g)
                .ok()
                .map(|ix| mods[ix].1),
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Drop => write!(f, "drop"),
            Action::Mods(mods) if mods.is_empty() => write!(f, "skip"),
            Action::Mods(mods) => {
                for (i, (field, v)) in mods.iter().enumerate() {
                    if i > 0 {
                        write!(f, ";")?;
                    }
                    write!(f, "{field}<-{v}")?;
                }
                Ok(())
            }
        }
    }
}

/// A sub-distribution over actions: sorted by action, strictly positive
/// probabilities. Total mass is 1 for fully built FDDs; intermediate sums
/// during compilation may carry less.
///
/// Entries hold their [`Action`]s behind `Arc`s: distribution-level
/// operations (`sum`, `scale`) are hot inside the FDD combinators, and
/// sharing the action payloads turns the per-entry clone from a `Vec`
/// allocation into a reference-count bump. Equality, ordering and hashing
/// see through the `Arc` to the action value.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct ActionDist {
    entries: Vec<(Arc<Action>, Ratio)>,
}

impl ActionDist {
    /// The point mass on `a`.
    pub fn dirac(a: Action) -> ActionDist {
        ActionDist {
            entries: vec![(Arc::new(a), Ratio::one())],
        }
    }

    /// The distribution that always drops.
    pub fn drop() -> ActionDist {
        Self::dirac(Action::Drop)
    }

    /// The distribution that always passes unchanged.
    pub fn skip() -> ActionDist {
        Self::dirac(Action::skip())
    }

    /// The empty sub-distribution.
    pub fn zero() -> ActionDist {
        ActionDist::default()
    }

    /// Builds from `(action, probability)` pairs, merging duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any probability is negative.
    pub fn from_pairs<I: IntoIterator<Item = (Action, Ratio)>>(pairs: I) -> ActionDist {
        let mut out = ActionDist::zero();
        for (a, r) in pairs {
            out.add(a, r);
        }
        out
    }

    /// Adds probability `r` to action `a`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative.
    pub fn add(&mut self, a: Action, r: Ratio) {
        assert!(!r.is_negative(), "negative probability {r}");
        if r.is_zero() {
            return;
        }
        match self.entries.binary_search_by(|(b, _)| b.as_ref().cmp(&a)) {
            Ok(ix) => self.entries[ix].1 += &r,
            Err(ix) => self.entries.insert(ix, (Arc::new(a), r)),
        }
    }

    /// `Σ rᵢ · (aᵢ ; dᵢ)` over terms `(aᵢ, dᵢ, rᵢ)`: each distribution's
    /// actions behind its optional prefix (composed with [`Action::then`]),
    /// scaled by its nonzero weight, and summed. One sort and one merging
    /// pass, however many terms, so a weighted sum of leaves is built once
    /// instead of one partial sum at a time.
    pub(crate) fn weighted_sum<'a>(
        terms: impl IntoIterator<Item = (Option<&'a Action>, &'a ActionDist, &'a Ratio)>,
    ) -> ActionDist {
        let mut scaled: Vec<(Arc<Action>, Ratio)> = Vec::new();
        for (prefix, d, r) in terms {
            for (a, p) in &d.entries {
                let a = match prefix {
                    Some(pre) => Arc::new(pre.then(a)),
                    None => a.clone(),
                };
                scaled.push((a, p * r));
            }
        }
        scaled.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut entries: Vec<(Arc<Action>, Ratio)> = Vec::with_capacity(scaled.len());
        for (a, p) in scaled {
            match entries.last_mut() {
                Some((b, q)) if *b == a => *q += &p,
                _ => entries.push((a, p)),
            }
        }
        ActionDist { entries }
    }

    /// Pointwise sum of two sub-distributions.
    ///
    /// Both operands are sorted by action, so this is a linear merge; the
    /// shared-action case adds the probabilities (both strictly positive,
    /// so the result never needs filtering).
    pub fn sum(&self, other: &ActionDist) -> ActionDist {
        let mut out = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (a, ra) = &self.entries[i];
            let (b, rb) = &other.entries[j];
            match a.cmp(b) {
                Ordering::Less => {
                    out.push((a.clone(), ra.clone()));
                    i += 1;
                }
                Ordering::Greater => {
                    out.push((b.clone(), rb.clone()));
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a.clone(), ra + rb));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.entries[i..]);
        out.extend_from_slice(&other.entries[j..]);
        ActionDist { entries: out }
    }

    /// Scales every probability by `r`.
    pub fn scale(&self, r: &Ratio) -> ActionDist {
        if r.is_zero() {
            return ActionDist::zero();
        }
        ActionDist {
            entries: self
                .entries
                .iter()
                .map(|(a, p)| (a.clone(), p * r))
                .collect(),
        }
    }

    /// Total probability mass.
    pub fn mass(&self) -> Ratio {
        self.entries.iter().map(|(_, r)| r).sum()
    }

    /// Probability of action `a`.
    pub fn prob(&self, a: &Action) -> Ratio {
        self.entries
            .binary_search_by(|(b, _)| b.as_ref().cmp(a))
            .ok()
            .map(|ix| self.entries[ix].1.clone())
            .unwrap_or_else(Ratio::zero)
    }

    /// Iterates over `(action, probability)` pairs in action order.
    pub fn iter(&self) -> impl Iterator<Item = (&Action, &Ratio)> {
        self.entries.iter().map(|(a, r)| (a.as_ref(), r))
    }

    /// Number of actions with positive probability.
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if this is the deterministic pass-through.
    pub fn is_skip(&self) -> bool {
        self.entries.len() == 1 && self.entries[0].0.is_skip() && self.entries[0].1.is_one()
    }

    /// Returns `true` if this is the deterministic drop.
    pub fn is_drop(&self) -> bool {
        self.entries.len() == 1 && *self.entries[0].0 == Action::Drop && self.entries[0].1.is_one()
    }

    /// Maps every action through `f`, merging collisions.
    pub fn map_actions(&self, f: impl Fn(&Action) -> Action) -> ActionDist {
        ActionDist::from_pairs(self.entries.iter().map(|(a, r)| (f(a), r.clone())))
    }
}

impl fmt::Display for ActionDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, r)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a} @ {r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> (Field, Field) {
        (Field::named("act_f"), Field::named("act_g"))
    }

    #[test]
    fn compose_mods_later_wins() {
        let (f, g) = fields();
        let a = Action::mods([(f, 1), (g, 2)]);
        let b = Action::assign(f, 9);
        assert_eq!(a.then(&b), Action::mods([(f, 9), (g, 2)]));
        assert_eq!(b.then(&a), Action::mods([(f, 1), (g, 2)]));
    }

    #[test]
    fn drop_is_absorbing() {
        let (f, _) = fields();
        let a = Action::assign(f, 1);
        assert_eq!(a.then(&Action::Drop), Action::Drop);
        assert_eq!(Action::Drop.then(&a), Action::Drop);
    }

    #[test]
    fn apply_to_packet() {
        let (f, g) = fields();
        let pk = Packet::new().with(f, 5);
        assert_eq!(Action::Drop.apply(&pk), None);
        assert_eq!(Action::mods([(g, 3)]).apply(&pk), Some(pk.with(g, 3)));
    }

    #[test]
    fn skip_identity() {
        let (f, _) = fields();
        let pk = Packet::new().with(f, 5);
        assert_eq!(Action::skip().apply(&pk), Some(pk.clone()));
        assert!(Action::skip().is_skip());
        assert!(!Action::assign(f, 1).is_skip());
    }

    #[test]
    fn dist_merges_duplicates() {
        let (f, _) = fields();
        let d = ActionDist::from_pairs([
            (Action::assign(f, 1), Ratio::new(1, 4)),
            (Action::assign(f, 1), Ratio::new(1, 4)),
            (Action::Drop, Ratio::new(1, 2)),
        ]);
        assert_eq!(d.support_size(), 2);
        assert_eq!(d.prob(&Action::assign(f, 1)), Ratio::new(1, 2));
        assert_eq!(d.mass(), Ratio::one());
    }

    #[test]
    fn dist_sum_and_scale() {
        let (f, _) = fields();
        let d1 = ActionDist::dirac(Action::assign(f, 1)).scale(&Ratio::new(1, 2));
        let d2 = ActionDist::dirac(Action::assign(f, 2)).scale(&Ratio::new(1, 2));
        let d = d1.sum(&d2);
        assert_eq!(d.mass(), Ratio::one());
        assert_eq!(d.prob(&Action::assign(f, 1)), Ratio::new(1, 2));
    }

    #[test]
    fn skip_and_drop_recognisers() {
        assert!(ActionDist::skip().is_skip());
        assert!(ActionDist::drop().is_drop());
        assert!(!ActionDist::skip().is_drop());
    }

    #[test]
    fn map_actions_merges() {
        let (f, _) = fields();
        let d = ActionDist::from_pairs([
            (Action::assign(f, 1), Ratio::new(1, 2)),
            (Action::assign(f, 2), Ratio::new(1, 2)),
        ]);
        let collapsed = d.map_actions(|_| Action::Drop);
        assert!(collapsed.is_drop());
    }
}
