//! Symbolic packets: the dynamic domain reduction of §5.1.
//!
//! A symbolic packet assigns *some* fields concrete values; every other
//! field carries the wildcard `*`, which stands for "any value not
//! explicitly represented" — equivalently, "whatever the field held on
//! input". Because FDD tests only mention explicitly-represented values, a
//! wildcard field fails every test, so a symbolic packet soundly represents
//! an equivalence class of concrete packets.

use crate::{Action, ActionDist};
use mcnetkat_core::{Field, Packet, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A symbolic packet: concrete values for some fields, `*` for the rest.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SymPkt {
    entries: Vec<(Field, Value)>,
}

impl SymPkt {
    /// The all-wildcard symbolic packet.
    pub fn star() -> SymPkt {
        SymPkt::default()
    }

    /// Builds from concrete `(field, value)` pairs.
    pub fn from_pairs<I: IntoIterator<Item = (Field, Value)>>(pairs: I) -> SymPkt {
        let mut entries: Vec<(Field, Value)> = pairs.into_iter().collect();
        entries.sort_unstable_by_key(|&(f, _)| f);
        entries.dedup_by_key(|&mut (f, _)| f);
        SymPkt { entries }
    }

    /// The concrete value of `f`, or `None` for the wildcard.
    pub fn get(&self, f: Field) -> Option<Value> {
        self.entries
            .binary_search_by_key(&f, |&(g, _)| g)
            .ok()
            .map(|ix| self.entries[ix].1)
    }

    /// Returns a copy with `f` set to the concrete value `v`.
    pub fn with(&self, f: Field, v: Value) -> SymPkt {
        let mut out = self.clone();
        out.set(f, v);
        out
    }

    fn set(&mut self, f: Field, v: Value) {
        match self.entries.binary_search_by_key(&f, |&(g, _)| g) {
            Ok(ix) => self.entries[ix].1 = v,
            Err(ix) => self.entries.insert(ix, (f, v)),
        }
    }

    /// Whether the test `f = v` succeeds. Wildcards fail every test (sound
    /// as long as `v` ranges over the explicitly represented values).
    pub fn test(&self, f: Field, v: Value) -> bool {
        self.get(f) == Some(v)
    }

    /// Applies an FDD action; `None` means dropped.
    pub fn apply(&self, action: &Action) -> Option<SymPkt> {
        match action {
            Action::Drop => None,
            Action::Mods(mods) => {
                let mut out = self.clone();
                for &(f, v) in mods {
                    out.set(f, v);
                }
                Some(out)
            }
        }
    }

    /// The modifications needed to turn an input in this packet's class
    /// into this packet: one `f <- v` per concrete field.
    pub fn as_action(&self) -> Action {
        Action::Mods(self.entries.clone())
    }

    /// Iterates over the concrete fields.
    pub fn iter(&self) -> impl Iterator<Item = (Field, Value)> + '_ {
        self.entries.iter().copied()
    }

    /// Refines a concrete packet from this class: applies the concrete
    /// fields on top of `base`.
    pub fn concretize(&self, base: &Packet) -> Packet {
        let mut out = base.clone();
        for &(f, v) in &self.entries {
            out.set(f, v);
        }
        out
    }
}

impl fmt::Display for SymPkt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "⟨*⟩");
        }
        write!(f, "⟨")?;
        for (i, (field, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{field}={v}")?;
        }
        write!(f, "⟩")
    }
}

/// The per-field value sets discovered by traversing FDDs — the "dynamic
/// domain" of §5.1. `tested` drives input-class enumeration; `modified`
/// only ever appears in outputs.
#[derive(Clone, Debug, Default)]
pub struct Domain {
    /// Values each field is tested against.
    pub tested: BTreeMap<Field, Vec<Value>>,
}

impl Domain {
    /// Creates an empty domain.
    pub fn new() -> Domain {
        Domain::default()
    }

    /// Records that `f` is tested against `v`.
    pub fn add_test(&mut self, f: Field, v: Value) {
        let values = self.tested.entry(f).or_default();
        if let Err(ix) = values.binary_search(&v) {
            values.insert(ix, v);
        }
    }

    /// Number of input equivalence classes: `Π (|tested(f)| + 1)`.
    pub fn class_count(&self) -> usize {
        self.tested
            .values()
            .map(|vs| vs.len() + 1)
            .try_fold(1usize, |acc, k| acc.checked_mul(k))
            .unwrap_or(usize::MAX)
    }

    /// Enumerates all input classes as symbolic packets (wildcards stand
    /// for "any untested value").
    pub fn input_classes(&self) -> Vec<SymPkt> {
        let mut classes = vec![SymPkt::star()];
        for (&f, values) in &self.tested {
            let mut next = Vec::with_capacity(classes.len() * (values.len() + 1));
            for class in &classes {
                for &v in values {
                    next.push(class.with(f, v));
                }
                next.push(class.clone()); // the * option
            }
            classes = next;
        }
        classes
    }

    /// Merges another domain into this one.
    pub fn merge(&mut self, other: &Domain) {
        for (&f, values) in &other.tested {
            for &v in values {
                self.add_test(f, v);
            }
        }
    }
}

/// Evaluates an action distribution on a symbolic packet, producing the
/// distribution over successor symbolic packets (`None` = dropped).
pub fn step(dist: &ActionDist, pk: &SymPkt) -> Vec<(Option<SymPkt>, mcnetkat_num::Ratio)> {
    dist.iter().map(|(a, r)| (pk.apply(a), r.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_num::Ratio;

    fn fields() -> (Field, Field) {
        (Field::named("sym_f"), Field::named("sym_g"))
    }

    #[test]
    fn star_fails_all_tests() {
        let (f, _) = fields();
        let pk = SymPkt::star();
        assert!(!pk.test(f, 0));
        assert!(!pk.test(f, 1));
    }

    #[test]
    fn concrete_tests_resolve() {
        let (f, g) = fields();
        let pk = SymPkt::from_pairs([(f, 1)]);
        assert!(pk.test(f, 1));
        assert!(!pk.test(f, 2));
        assert!(!pk.test(g, 1));
    }

    #[test]
    fn apply_mods_sets_fields() {
        let (f, g) = fields();
        let pk = SymPkt::star().with(f, 1);
        let out = pk.apply(&Action::mods([(g, 2)])).unwrap();
        assert_eq!(out.get(f), Some(1));
        assert_eq!(out.get(g), Some(2));
        assert_eq!(pk.apply(&Action::Drop), None);
    }

    #[test]
    fn input_classes_enumerate_product() {
        let (f, g) = fields();
        let mut dom = Domain::new();
        dom.add_test(f, 1);
        dom.add_test(f, 2);
        dom.add_test(g, 7);
        assert_eq!(dom.class_count(), 6);
        let classes = dom.input_classes();
        assert_eq!(classes.len(), 6);
        // All classes are distinct.
        let set: std::collections::BTreeSet<_> = classes.iter().cloned().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn step_distributes_over_actions() {
        let (f, _) = fields();
        let dist = ActionDist::from_pairs([
            (Action::assign(f, 1), Ratio::new(1, 2)),
            (Action::Drop, Ratio::new(1, 2)),
        ]);
        let outs = step(&dist, &SymPkt::star());
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().any(|(o, _)| o.is_none()));
        assert!(outs
            .iter()
            .any(|(o, _)| o.as_ref().is_some_and(|p| p.get(f) == Some(1))));
    }

    #[test]
    fn concretize_overlays_base() {
        let (f, g) = fields();
        let base = Packet::new().with(g, 9);
        let sym = SymPkt::from_pairs([(f, 1)]);
        let pk = sym.concretize(&base);
        assert_eq!(pk.get(f), 1);
        assert_eq!(pk.get(g), 9);
    }
}
