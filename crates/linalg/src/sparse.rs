//! Sparse matrices in triplet and compressed-sparse-row form.

/// A coordinate-format builder for sparse matrices.
///
/// Duplicate entries are summed when compressed, which is convenient when
/// accumulating transition probabilities.
#[derive(Clone, Debug, Default)]
pub(crate) struct Triplets {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplets {
    /// Creates an empty `rows × cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "triplet out of bounds");
        if v != 0.0 {
            self.entries.push((i, j, v));
        }
    }

    /// Compresses into CSR form, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(i, j, _)| (i, j));
        // Merge duplicates (same row and column) by summing.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (i, j, v) in entries {
            match merged.last_mut() {
                Some((pi, pj, pv)) if *pi == i && *pj == j => *pv += v,
                _ => merged.push((i, j, v)),
            }
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_ix = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        row_ptr.push(0);
        let mut cur_row = 0;
        for (i, j, v) in merged {
            while cur_row < i {
                row_ptr.push(col_ix.len());
                cur_row += 1;
            }
            col_ix.push(j);
            values.push(v);
        }
        while cur_row < self.rows {
            row_ptr.push(col_ix.len());
            cur_row += 1;
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_ix,
            values,
        }
    }
}

/// A compressed-sparse-row matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_ix: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[cfg(test)]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the non-zeros of row `i` as `(col, value)`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_ix[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Reads entry `(i, j)` (zero if not stored).
    #[cfg(test)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i)
            .find_map(|(c, v)| (c == j).then_some(v))
            .unwrap_or(0.0)
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[cfg(test)]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).map(|(j, v)| v * x[j]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_compress_and_sum_duplicates() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 1, 0.25);
        t.push(0, 1, 0.25);
        t.push(2, 0, 1.0);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), 0.5);
        assert_eq!(m.get(2, 0), 1.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn empty_rows_are_handled() {
        let t = Triplets::new(4, 4);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.matvec(&[1.0; 4]), vec![0.0; 4]);
    }

    #[test]
    fn matvec_matches_dense() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        let m = t.to_csr();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
    }
}
