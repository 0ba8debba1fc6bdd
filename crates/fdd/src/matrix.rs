//! The "Convert" arrow of Figure 5: explicit (sparse) stochastic-matrix
//! views of compiled FDDs over the dynamically reduced symbolic-packet
//! domain.
//!
//! The loop solver uses a transition-specific construction internally;
//! this module exposes the general matrix view for inspection, for the
//! Figure 5 rendering, and for cross-checking the symbolic representation
//! against explicit linear algebra.

use crate::{Fdd, Manager, SymPkt};
use mcnetkat_num::Ratio;
use std::collections::HashMap;
use std::fmt;

/// An explicit stochastic-matrix view of an FDD.
///
/// Rows are the input equivalence classes (symbolic packets over the
/// diagram's tested fields); columns are the reachable output symbolic
/// packets plus the distinguished `∅` (drop) column at index 0.
#[derive(Clone, Debug)]
pub struct BigStepMatrix {
    /// Row labels: the input classes.
    pub inputs: Vec<SymPkt>,
    /// Column labels: output symbolic packets (`None` = the ∅ column).
    pub outputs: Vec<Option<SymPkt>>,
    /// Sparse rows: `(column, probability)` with exact probabilities.
    pub rows: Vec<Vec<(usize, Ratio)>>,
}

impl Manager {
    /// Converts a compiled FDD into its explicit matrix over symbolic
    /// packets (dynamic domain reduction, §5.1).
    pub fn to_matrix(&self, p: Fdd) -> BigStepMatrix {
        let dom = self.domain(p);
        let inputs = dom.input_classes();
        let mut outputs: Vec<Option<SymPkt>> = vec![None];
        let mut out_ix: HashMap<Option<SymPkt>, usize> = HashMap::new();
        out_ix.insert(None, 0);
        let mut rows = Vec::with_capacity(inputs.len());
        for class in &inputs {
            let dist = self.sym_output_dist(p, class);
            let mut row = Vec::with_capacity(dist.len());
            for (o, r) in dist {
                let col = *out_ix.entry(o.clone()).or_insert_with(|| {
                    outputs.push(o);
                    outputs.len() - 1
                });
                row.push((col, r));
            }
            rows.push(row);
        }
        BigStepMatrix {
            inputs,
            outputs,
            rows,
        }
    }
}

impl BigStepMatrix {
    /// Number of rows (input classes).
    pub fn nrows(&self) -> usize {
        self.inputs.len()
    }

    /// Number of columns (distinct outputs, including ∅).
    pub fn ncols(&self) -> usize {
        self.outputs.len()
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The probability in row `i`, column `j`.
    pub fn get(&self, i: usize, j: usize) -> Ratio {
        self.rows[i]
            .iter()
            .find_map(|(c, r)| (*c == j).then(|| r.clone()))
            .unwrap_or_else(Ratio::zero)
    }

    /// Total probability mass of row `i`.
    pub fn row_mass(&self, i: usize) -> Ratio {
        self.rows[i].iter().map(|(_, r)| r.clone()).sum()
    }

    /// Checks row-stochasticity (every row sums to exactly 1).
    pub fn is_stochastic(&self) -> bool {
        (0..self.nrows()).all(|i| self.row_mass(i) == Ratio::one())
    }

    /// The density `nnz / (rows × cols)` — the compression the FDD
    /// achieves relative to the explicit representation.
    pub fn density(&self) -> f64 {
        if self.nrows() == 0 || self.ncols() == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows() * self.ncols()) as f64
    }
}

impl fmt::Display for BigStepMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}×{} stochastic matrix, {} non-zeros",
            self.nrows(),
            self.ncols(),
            self.nnz()
        )?;
        for (i, class) in self.inputs.iter().enumerate() {
            write!(f, "  {class} →")?;
            for (c, r) in &self.rows[i] {
                match &self.outputs[*c] {
                    None => write!(f, "  ∅ @ {r}")?,
                    Some(o) => write!(f, "  {o} @ {r}")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_core::{Field, Pred, Prog};

    fn field(n: &str) -> Field {
        Field::named(n)
    }

    #[test]
    fn figure_5_example_matrix() {
        // The program of Figure 5: a port-cycling switch.
        let pt = field("mx_pt");
        let mgr = Manager::new();
        let prog = Prog::case(
            vec![
                (
                    Pred::test(pt, 1),
                    Prog::choice2(Prog::assign(pt, 2), Ratio::new(1, 2), Prog::assign(pt, 3)),
                ),
                (Pred::test(pt, 2), Prog::assign(pt, 1)),
                (Pred::test(pt, 3), Prog::assign(pt, 1)),
            ],
            Prog::drop(),
        );
        let fdd = mgr.compile(&prog).unwrap();
        let m = mgr.to_matrix(fdd);
        // Four input classes: pt ∈ {1, 2, 3, *}.
        assert_eq!(m.nrows(), 4);
        assert!(m.is_stochastic());
        // The pt=1 row splits ½/½; the wildcard row drops.
        let row1 = m.inputs.iter().position(|c| c.get(pt) == Some(1)).unwrap();
        assert_eq!(m.rows[row1].len(), 2);
        let star = m.inputs.iter().position(|c| c.get(pt).is_none()).unwrap();
        // ∅ column
        assert_eq!(m.get(star, 0), Ratio::one());
        // Sparse: 5 non-zeros in a 4×≥4 matrix, matching Figure 5.
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn identity_matrix_for_skip() {
        let mgr = Manager::new();
        let fdd = mgr.compile(&Prog::skip()).unwrap();
        let m = mgr.to_matrix(fdd);
        // skip tests nothing: one wildcard class mapping to itself.
        assert_eq!(m.nrows(), 1);
        assert!(m.is_stochastic());
        assert_eq!(m.get(0, 1), Ratio::one());
    }

    #[test]
    fn loop_solutions_are_exact_through_the_matrix_view() {
        // while f=0 do (f←1 ⊕⅓ f←2 ⊕⅙ skip): absorption probabilities
        // are 2/3 and 1/3 — not representable in binary floats. The loop
        // solve must surface them *exactly*.
        let f = field("mx_lp");
        let mgr = Manager::new();
        let body = Prog::choice(vec![
            (Prog::assign(f, 1), Ratio::new(1, 3)),
            (Prog::assign(f, 2), Ratio::new(1, 6)),
            (Prog::skip(), Ratio::new(1, 2)),
        ]);
        let prog = Prog::while_(Pred::test(f, 0), body);
        let fdd = mgr.compile(&prog).unwrap();
        let m = mgr.to_matrix(fdd);
        assert!(m.is_stochastic());
        let row0 = m
            .inputs
            .iter()
            .position(|c| c.get(f) == Some(0))
            .expect("f=0 input class");
        let mut probs: Vec<Ratio> = m.rows[row0].iter().map(|(_, r)| r.clone()).collect();
        probs.sort();
        assert_eq!(probs, vec![Ratio::new(1, 3), Ratio::new(2, 3)]);
    }

    #[test]
    fn density_measures_sparsity() {
        let f = field("mx_f");
        let mgr = Manager::new();
        // A filter over three values: 4 classes, 4 entries, all diagonal-ish.
        let prog = Prog::ite(Pred::test(f, 1), Prog::skip(), Prog::drop());
        let fdd = mgr.compile(&prog).unwrap();
        let m = mgr.to_matrix(fdd);
        assert!(m.density() <= 0.5);
        assert!(m.is_stochastic());
    }
}
