//! Absorbing Markov chain solver: the closed form of §4.
//!
//! Given an absorbing chain with transient states `T` and absorbing states
//! `A`, reorder the transition matrix as
//!
//! ```text
//!     [ I  0 ]
//!     [ R  Q ]
//! ```
//!
//! Then the absorption probabilities are `A = (I − Q)^{-1} R`
//! (equation 2 / Theorem 4.7). This module computes `A` exactly two ways:
//! the sparse SCC-decomposed solve of [`AbsorbingChain::solve_sparse_scc`]
//! (every compiled `while` loop) and the dense rational elimination of
//! [`AbsorbingChain::solve_exact`] (the reference it is differential-tested
//! against). [`AbsorbingChain::reach_prob_approx`] is the float
//! reachability probability `(I − Q)^{-1} R · 1_targets` the PRISM model
//! checker iterates for, computed by Gauss–Seidel.

use crate::scc::condense;
use crate::{gauss_seidel, DenseMatrix, IterativeOptions, LinalgError, Triplets};
use mcnetkat_num::Ratio;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An absorbing Markov chain under construction.
///
/// States are `0..n`. Mark absorbing states with [`set_absorbing`]
/// (they implicitly self-loop with probability 1); add transitions out of
/// transient states with [`add`]. Rows of transient states should sum to
/// 1 (see [`validate`]); the exact solves also take sub-stochastic rows,
/// whose missing mass absorbs nowhere.
///
/// [`set_absorbing`]: AbsorbingChain::set_absorbing
/// [`add`]: AbsorbingChain::add
/// [`validate`]: AbsorbingChain::validate
///
/// # Examples
///
/// ```
/// use mcnetkat_linalg::AbsorbingChain;
/// use mcnetkat_num::Ratio;
///
/// // Gambler's ruin on {0,1,2} with fair coin: states 0 and 2 absorb.
/// let mut chain = AbsorbingChain::new(3);
/// chain.set_absorbing(0);
/// chain.set_absorbing(2);
/// chain.add(1, 0, Ratio::new(1, 2));
/// chain.add(1, 2, Ratio::new(1, 2));
/// let sol = chain.solve_sparse_scc().unwrap();
/// assert_eq!(sol.prob(1, 0), Ratio::new(1, 2));
/// let approx = chain.reach_prob_approx(&[0]).unwrap();
/// assert!((approx[1] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct AbsorbingChain {
    n: usize,
    absorbing: Vec<bool>,
    transitions: Vec<(usize, usize, Ratio)>,
}

impl AbsorbingChain {
    /// Creates a chain with states `0..n` and no transitions.
    pub fn new(n: usize) -> Self {
        AbsorbingChain {
            n,
            absorbing: vec![false; n],
            transitions: Vec::new(),
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Marks state `s` as absorbing.
    pub fn set_absorbing(&mut self, s: usize) {
        self.absorbing[s] = true;
    }

    /// Returns `true` if `s` was marked absorbing.
    pub fn is_absorbing(&self, s: usize) -> bool {
        self.absorbing[s]
    }

    /// Adds a transition `from → to` with exact probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `from` was marked absorbing or `p` is not a probability.
    pub fn add(&mut self, from: usize, to: usize, p: Ratio) {
        assert!(!self.absorbing[from], "transition out of absorbing state");
        assert!(p.is_probability(), "invalid transition probability {p}");
        if !p.is_zero() {
            self.transitions.push((from, to, p));
        }
    }

    /// Checks that every transient row sums to exactly 1.
    pub fn validate(&self) -> Result<(), String> {
        let mut sums = vec![Ratio::zero(); self.n];
        for (from, _, p) in &self.transitions {
            sums[*from] += p;
        }
        for (s, sum) in sums.iter().enumerate() {
            if !self.absorbing[s] && *sum != Ratio::one() {
                return Err(format!("row {s} sums to {sum}, expected 1"));
            }
        }
        Ok(())
    }

    /// The probability of eventually reaching one of the absorbing states
    /// `targets`, for every state, in floats: one Gauss–Seidel solve of
    /// `(I − Q) x = R · 1_targets`, which is how the PRISM model checker
    /// computes `P[F target]`. Entry `s` of the result is state `s`'s
    /// probability; an absorbing state reads 1 if it is a target, else 0.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NoConvergence`] when the iteration does not settle
    /// within its sweep budget.
    ///
    /// # Panics
    ///
    /// Panics if a target is not an absorbing state.
    pub fn reach_prob_approx(&self, targets: &[usize]) -> Result<Vec<f64>, LinalgError> {
        let mut is_target = vec![false; self.n];
        for &t in targets {
            assert!(self.absorbing[t], "target state {t} is not absorbing");
            is_target[t] = true;
        }
        let (transient_ix, _, transients, _) = self.partition();
        let nt = transients.len();
        let mut q = Triplets::new(nt, nt);
        let mut b = vec![0.0f64; nt];
        for (from, to, p) in &self.transitions {
            let ti = transient_ix[*from];
            if !self.absorbing[*to] {
                q.push(ti, transient_ix[*to], p.to_f64());
            } else if is_target[*to] {
                b[ti] += p.to_f64();
            }
        }
        let x = gauss_seidel(&q.to_csr(), &b, IterativeOptions::default())?;
        Ok((0..self.n)
            .map(|s| match transient_ix[s] {
                usize::MAX if is_target[s] => 1.0,
                usize::MAX => 0.0,
                t => x[t],
            })
            .collect())
    }

    /// Computes the absorption probabilities exactly, over rationals, with
    /// dense Gaussian elimination. Far slower than
    /// [`solve_sparse_scc`](AbsorbingChain::solve_sparse_scc) on routing
    /// chains: the reference the sparse SCC solve is differential-tested
    /// against.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] when some set of transient states keeps
    /// all of its mass forever (the chain is not actually absorbing).
    pub fn solve_exact(&self) -> Result<Vec<Vec<Ratio>>, LinalgError> {
        let (transient_ix, absorbing_ix, transients, absorbing_states) = self.partition();
        let nt = transients.len();
        let na = absorbing_states.len();
        let mut iq = DenseMatrix::identity(nt);
        let mut r = DenseMatrix::zeros(nt, na);
        for (from, to, p) in &self.transitions {
            let ti = transient_ix[*from];
            if self.absorbing[*to] {
                let ai = absorbing_ix[*to];
                r.set(ti, ai, r.get(ti, ai).clone() + p.clone());
            } else {
                let tj = transient_ix[*to];
                iq.set(ti, tj, iq.get(ti, tj).clone() - p.clone());
            }
        }
        let x = iq.solve_multi(&r)?;
        Ok((0..nt)
            .map(|i| (0..na).map(|j| x.get(i, j).clone()).collect())
            .collect())
    }

    /// Computes the absorption probabilities **exactly and sparsely**: the
    /// transient subgraph is condensed into its SCC DAG
    /// ([`crate::scc::condense`]) and solved one component at a time in
    /// reverse topological order — every transition out of a component
    /// lands in an already-solved component or an absorbing state, so each
    /// block is an independent small exact elimination (most components of
    /// routing chains are singletons, which reduce to a single division).
    /// Zero entries are never materialised: rows are sparse maps from
    /// reachable absorbing states only.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] when some component keeps all of its mass
    /// (its states are trapped and the chain is not absorbing): exactly
    /// when [`AbsorbingChain::solve_exact`] fails, detected per component
    /// instead of at a global pivot. A component that reaches no absorbing
    /// state but leaks mass is not trapped; its rows are empty.
    pub fn solve_sparse_scc(&self) -> Result<SparseAbsorption, LinalgError> {
        self.solve_sparse_scc_interruptible(&mut || false)
    }

    /// [`AbsorbingChain::solve_sparse_scc`] with a cooperative
    /// interruption check, polled once per SCC of the transient graph —
    /// the unit of solver work, so a deadline or cancellation is honoured
    /// within one component's elimination.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Interrupted`] as soon as `should_stop` returns
    /// `true`; otherwise as [`AbsorbingChain::solve_sparse_scc`].
    pub fn solve_sparse_scc_interruptible(
        &self,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Result<SparseAbsorption, LinalgError> {
        let (transient_ix, absorbing_ix, transients, absorbing_states) = self.partition();
        let nt = transients.len();
        // Sparse exact rows over compact ids: targets < nt are transient
        // ranks, nt + a is absorbing rank a.
        let mut rows: Vec<Vec<(usize, Ratio)>> = vec![Vec::new(); nt];
        for (from, to, p) in &self.transitions {
            let t = transient_ix[*from];
            let target = if self.absorbing[*to] {
                nt + absorbing_ix[*to]
            } else {
                transient_ix[*to]
            };
            rows[t].push((target, p.clone()));
        }
        for row in &mut rows {
            merge_row(row);
        }

        // Condense the transient graph and solve per component in
        // emission order — reverse topological, so every external
        // transient target is already solved.
        let succ: Vec<Vec<usize>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .filter(|(t, _)| *t < nt)
                    .map(|(t, _)| *t)
                    .collect()
            })
            .collect();
        let cond = condense(nt, &succ);
        let mut solved: Vec<Option<Vec<(usize, Ratio)>>> = vec![None; nt];
        for comp in &cond.components {
            if should_stop() {
                return Err(LinalgError::Interrupted);
            }
            solve_component(comp, &rows, &mut solved)?;
        }

        Ok(SparseAbsorption {
            n: self.n,
            transient_ix,
            absorbing_ix,
            absorbing_states,
            rows: solved
                .into_iter()
                .map(|row| row.expect("component solved"))
                .collect(),
            scc_count: cond.len(),
        })
    }

    fn partition(&self) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>) {
        let mut transient_ix = vec![usize::MAX; self.n];
        let mut absorbing_ix = vec![usize::MAX; self.n];
        let mut transients = Vec::new();
        let mut absorbing_states = Vec::new();
        for s in 0..self.n {
            if self.absorbing[s] {
                absorbing_ix[s] = absorbing_states.len();
                absorbing_states.push(s);
            } else {
                transient_ix[s] = transients.len();
                transients.push(s);
            }
        }
        (transient_ix, absorbing_ix, transients, absorbing_states)
    }
}

/// Sorts a sparse row by target, sums duplicate targets, drops zeros.
fn merge_row(row: &mut Vec<(usize, Ratio)>) {
    row.sort_unstable_by_key(|(t, _)| *t);
    let mut out: Vec<(usize, Ratio)> = Vec::with_capacity(row.len());
    for (t, p) in row.drain(..) {
        match out.last_mut() {
            Some((pt, pp)) if *pt == t => *pp += &p,
            _ => out.push((t, p)),
        }
    }
    out.retain(|(_, p)| !p.is_zero());
    *row = out;
}

/// Solves one SCC of the transient graph, writing each member's sparse
/// absorption row into `solved`. `comp`'s external transient successors
/// are already solved (reverse topological processing order); targets
/// `>= rows.len()` are absorbing ranks.
fn solve_component(
    comp: &[usize],
    rows: &[Vec<(usize, Ratio)>],
    solved: &mut [Option<Vec<(usize, Ratio)>>],
) -> Result<(), LinalgError> {
    let nt = rows.len();
    if let [s] = comp {
        // Singleton (the overwhelmingly common case on routing chains —
        // shortest-path forwarding is a DAG): fold already-solved
        // successors and absorbing hits into one sparse row, then divide
        // out the self-loop mass.
        let s = *s;
        let mut selfp = Ratio::zero();
        let mut base: BTreeMap<usize, Ratio> = BTreeMap::new();
        for (t, p) in &rows[s] {
            if *t == s {
                selfp += p;
            } else if *t >= nt {
                *base.entry(*t - nt).or_insert_with(Ratio::zero) += p;
            } else {
                let srow = solved[*t].as_ref().expect("successor SCC solved first");
                for (a, q) in srow {
                    *base.entry(*a).or_insert_with(Ratio::zero) += &(p * q);
                }
            }
        }
        let keep = &Ratio::one() - &selfp;
        if keep.is_zero() {
            // All mass stays put forever: (I − Q) has a zero row, exactly
            // the Singular case the dense elimination reports.
            return Err(LinalgError::Singular(s));
        }
        let inv = keep.recip();
        solved[s] = Some(
            base.into_iter()
                .map(|(a, p)| (a, &p * &inv))
                .filter(|(_, p)| !p.is_zero())
                .collect(),
        );
        return Ok(());
    }

    // A genuine cycle cluster: solve (I − Q_C) X = B_C exactly, with
    // columns only for the absorbing states the component actually
    // reaches. A component that reaches none has no columns, and the
    // elimination alone decides: `I − Q_C` is singular when every member
    // keeps all of its mass (trapped states), and otherwise (some member
    // leaks into a dead end or out of a sub-stochastic row) every row is
    // empty, as in `solve_exact`.
    let k = comp.len();
    let pos: HashMap<usize, usize> = comp.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let mut a = DenseMatrix::identity(k);
    let mut bases: Vec<BTreeMap<usize, Ratio>> = vec![BTreeMap::new(); k];
    for (li, &s) in comp.iter().enumerate() {
        for (t, p) in &rows[s] {
            if *t >= nt {
                *bases[li].entry(*t - nt).or_insert_with(Ratio::zero) += p;
            } else if let Some(&lj) = pos.get(t) {
                let cur = a.get(li, lj).clone();
                a.set(li, lj, &cur - p);
            } else {
                let srow = solved[*t].as_ref().expect("successor SCC solved first");
                for (aix, q) in srow {
                    *bases[li].entry(*aix).or_insert_with(Ratio::zero) += &(p * q);
                }
            }
        }
    }
    let cols: Vec<usize> = bases
        .iter()
        .flat_map(|b| b.keys().copied())
        .collect::<BTreeSet<usize>>()
        .into_iter()
        .collect();
    let col_ix: HashMap<usize, usize> = cols.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut rhs = DenseMatrix::zeros(k, cols.len());
    for (li, base) in bases.iter().enumerate() {
        for (aix, p) in base {
            rhs.set(li, col_ix[aix], p.clone());
        }
    }
    let x = a.solve_multi(&rhs)?;
    for (li, &s) in comp.iter().enumerate() {
        solved[s] = Some(
            cols.iter()
                .enumerate()
                .filter_map(|(ci, &aix)| {
                    let p = x.get(li, ci);
                    (!p.is_zero()).then(|| (aix, p.clone()))
                })
                .collect(),
        );
    }
    Ok(())
}

/// Exact, sparse absorption probabilities from
/// [`AbsorbingChain::solve_sparse_scc`]: each transient state's row holds
/// only the absorbing states it actually reaches, as exact rationals.
#[derive(Clone, Debug)]
pub struct SparseAbsorption {
    n: usize,
    transient_ix: Vec<usize>,
    absorbing_ix: Vec<usize>,
    absorbing_states: Vec<usize>,
    /// `rows[t]`: sorted `(absorbing rank, probability)` pairs, zero
    /// entries omitted.
    rows: Vec<Vec<(usize, Ratio)>>,
    scc_count: usize,
}

impl SparseAbsorption {
    /// Exact probability that `from` (original id) absorbs in `to`
    /// (original id). For an absorbing `from`, 1 iff `from == to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not absorbing or ids are out of range.
    pub fn prob(&self, from: usize, to: usize) -> Ratio {
        assert!(from < self.n && to < self.n, "state out of range");
        let a = self.absorbing_ix[to];
        assert!(a != usize::MAX, "target state {to} is not absorbing");
        if self.transient_ix[from] == usize::MAX {
            return if from == to {
                Ratio::one()
            } else {
                Ratio::zero()
            };
        }
        self.rows[self.transient_ix[from]]
            .iter()
            .find_map(|(ra, p)| (*ra == a).then(|| p.clone()))
            .unwrap_or_else(Ratio::zero)
    }

    /// The sparse row of transient rank `t` as `(absorbing rank, prob)`.
    pub fn sparse_row(&self, t: usize) -> &[(usize, Ratio)] {
        &self.rows[t]
    }

    /// Every transient rank's sparse row, in rank order, moved out of the
    /// solution.
    pub fn into_rows(self) -> Vec<Vec<(usize, Ratio)>> {
        self.rows
    }

    /// The absorbing states (original ids) in rank order.
    pub fn absorbing_states(&self) -> &[usize] {
        &self.absorbing_states
    }

    /// Number of transient rows.
    pub fn num_transient(&self) -> usize {
        self.rows.len()
    }

    /// Stored non-zero entries across all rows.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Components of the transient SCC DAG.
    pub fn scc_count(&self) -> usize {
        self.scc_count
    }

    /// Densifies into the `transient rank × absorbing rank` matrix of
    /// [`AbsorbingChain::solve_exact`] — for differential tests; the
    /// production path consumes [`SparseAbsorption::into_rows`] directly.
    pub fn to_dense(&self) -> Vec<Vec<Ratio>> {
        let na = self.absorbing_states.len();
        self.rows
            .iter()
            .map(|row| {
                let mut dense = vec![Ratio::zero(); na];
                for (a, p) in row {
                    dense[*a] = p.clone();
                }
                dense
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_scc_matches_exact_on_cyclic_chain() {
        // 0 ↔ 2 cycle feeding absorbing 3; exercises a non-singleton SCC.
        let mut chain = AbsorbingChain::new(4);
        chain.set_absorbing(3);
        chain.add(0, 1, Ratio::new(1, 3));
        chain.add(0, 2, Ratio::new(2, 3));
        chain.add(1, 3, Ratio::one());
        chain.add(2, 0, Ratio::new(1, 2));
        chain.add(2, 3, Ratio::new(1, 2));
        let sparse = chain.solve_sparse_scc().unwrap();
        assert_eq!(sparse.to_dense(), chain.solve_exact().unwrap());
    }

    #[test]
    fn sparse_scc_detects_trapped_states() {
        // 0 → 1 → 0 with no exit: not an absorbing chain.
        let mut chain = AbsorbingChain::new(3);
        chain.set_absorbing(2);
        chain.add(0, 1, Ratio::one());
        chain.add(1, 0, Ratio::one());
        assert!(matches!(
            chain.solve_sparse_scc(),
            Err(LinalgError::Singular(_))
        ));
        // Self-loop with probability 1 is the singleton flavour.
        let mut chain = AbsorbingChain::new(2);
        chain.set_absorbing(1);
        chain.add(0, 0, Ratio::one());
        assert!(matches!(
            chain.solve_sparse_scc(),
            Err(LinalgError::Singular(_))
        ));
    }

    #[test]
    fn interruptible_solve_stops_on_request() {
        let mut chain = AbsorbingChain::new(3);
        chain.set_absorbing(2);
        chain.add(0, 1, Ratio::one());
        chain.add(1, 2, Ratio::one());
        assert!(matches!(
            chain.solve_sparse_scc_interruptible(&mut || true),
            Err(LinalgError::Interrupted)
        ));
        // A check that never fires leaves the solve untouched.
        let sol = chain.solve_sparse_scc_interruptible(&mut || false).unwrap();
        assert_eq!(sol.prob(0, 2), Ratio::one());
    }

    #[test]
    fn gamblers_ruin_all_backends() {
        // States 0..=4; 0 and 4 absorb; fair coin. Classic result:
        // P(absorb at 4 | start i) = i/4.
        let mut chain = AbsorbingChain::new(5);
        chain.set_absorbing(0);
        chain.set_absorbing(4);
        for i in 1..4 {
            chain.add(i, i - 1, Ratio::new(1, 2));
            chain.add(i, i + 1, Ratio::new(1, 2));
        }
        chain.validate().unwrap();
        let exact = chain.solve_exact().unwrap();
        let sol = chain.solve_sparse_scc().unwrap();
        for i in 1..4 {
            assert_eq!(sol.prob(i, 4), Ratio::new(i as i64, 4), "start {i}");
            assert_eq!(sol.prob(i, 0), Ratio::new(4 - i as i64, 4));
        }
        assert_eq!(sol.to_dense(), exact);
        let approx = chain.reach_prob_approx(&[4]).unwrap();
        for (i, p) in approx.iter().enumerate() {
            assert!((p - i as f64 / 4.0).abs() < 1e-9, "start {i}");
        }
    }

    #[test]
    fn exact_matches_float() {
        let mut chain = AbsorbingChain::new(4);
        chain.set_absorbing(3);
        chain.add(0, 1, Ratio::new(1, 3));
        chain.add(0, 2, Ratio::new(2, 3));
        chain.add(1, 3, Ratio::one());
        chain.add(2, 0, Ratio::new(1, 2));
        chain.add(2, 3, Ratio::new(1, 2));
        let exact = chain.solve_exact().unwrap();
        let float = chain.reach_prob_approx(&[3]).unwrap();
        // Single absorbing state: everything absorbs there with prob 1.
        for row in &exact {
            assert_eq!(row[0], Ratio::one());
        }
        for p in float {
            assert!((p - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn self_loops_in_transient_states() {
        // State 0 self-loops with prob 1/2, exits to 1 with 1/2.
        let mut chain = AbsorbingChain::new(2);
        chain.set_absorbing(1);
        chain.add(0, 0, Ratio::new(1, 2));
        chain.add(0, 1, Ratio::new(1, 2));
        let sol = chain.solve_sparse_scc().unwrap();
        assert_eq!(sol.prob(0, 1), Ratio::one());
        assert!((chain.reach_prob_approx(&[1]).unwrap()[0] - 1.0).abs() < 1e-9);
        assert_eq!(chain.solve_exact().unwrap()[0][0], Ratio::one());
    }

    #[test]
    fn multiple_absorbing_states_partition_mass() {
        // 0 → {1 w.p. 1/4, 2 w.p. 3/4}, both absorbing.
        let mut chain = AbsorbingChain::new(3);
        chain.set_absorbing(1);
        chain.set_absorbing(2);
        chain.add(0, 1, Ratio::new(1, 4));
        chain.add(0, 2, Ratio::new(3, 4));
        let sol = chain.solve_sparse_scc().unwrap();
        assert_eq!(sol.prob(0, 1), Ratio::new(1, 4));
        assert_eq!(sol.prob(0, 2), Ratio::new(3, 4));
        assert!((chain.reach_prob_approx(&[1]).unwrap()[0] - 0.25).abs() < 1e-12);
        assert!((chain.reach_prob_approx(&[1, 2]).unwrap()[0] - 1.0).abs() < 1e-12);
        let exact = chain.solve_exact().unwrap();
        assert_eq!(exact[0], vec![Ratio::new(1, 4), Ratio::new(3, 4)]);
    }

    #[test]
    fn absorbing_from_state_queries() {
        let mut chain = AbsorbingChain::new(2);
        chain.set_absorbing(0);
        chain.set_absorbing(1);
        let sol = chain.solve_sparse_scc().unwrap();
        assert_eq!(sol.prob(0, 0), Ratio::one());
        assert_eq!(sol.prob(0, 1), Ratio::zero());
        assert_eq!(chain.reach_prob_approx(&[0]).unwrap(), vec![1.0, 0.0]);
    }

    #[test]
    fn validate_rejects_leaky_rows() {
        let mut chain = AbsorbingChain::new(2);
        chain.set_absorbing(1);
        chain.add(0, 1, Ratio::new(1, 2));
        assert!(chain.validate().is_err());
    }

    #[test]
    fn rows_sum_to_one_property() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let n = rng.gen_range(3..12);
            let mut chain = AbsorbingChain::new(n);
            chain.set_absorbing(n - 1);
            for s in 0..n - 1 {
                // Random distribution over targets, with guaranteed path to
                // the absorbing state via weight on n-1.
                let mut weights: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5)).collect();
                weights[n - 1] += 1;
                let total: u32 = weights.iter().sum();
                for (t, w) in weights.iter().enumerate() {
                    chain.add(s, t, Ratio::new(*w as i64, total as i64));
                }
            }
            chain.validate().unwrap();
            let sol = chain.solve_sparse_scc().unwrap();
            for s in 0..n - 1 {
                let sum: Ratio = sol.sparse_row(s).iter().map(|(_, p)| p).sum();
                assert_eq!(sum, Ratio::one(), "row {s}");
            }
            let approx = chain.reach_prob_approx(&[n - 1]).unwrap();
            for (s, p) in approx.iter().enumerate() {
                assert!((p - 1.0).abs() < 1e-9, "state {s} reaches with {p}");
            }
        }
    }
}
