//! Differential tests pinning the structured sparse solver to the exact
//! dense path.
//!
//! `SolverBackend::SparseScc` (SCC condensation + per-component exact
//! elimination + optional symmetry lumping) is the production loop solver;
//! nothing else in the suite would catch it being subtly wrong on chains
//! with non-trivial structure. These tests generate randomised absorbing
//! chains — multi-SCC, multi-absorbing-class, with cycles, self-loops and
//! disconnected regions — and require the sparse solve to agree *exactly*
//! (`Ratio` equality, not tolerance) with `solve_exact` under every
//! lumping configuration, and within float tolerance with every other
//! backend. The partition-refinement engine is differentially pinned
//! against a naive textbook implementation.

use mcnetkat_linalg::{is_lumpable, refine, AbsorbingChain, LinalgError, Partition, SolverBackend};
use mcnetkat_num::Ratio;
use proptest::prelude::*;
use std::collections::HashMap;

/// A random absorbing chain with structure: `nt` transient states, `na`
/// absorbing classes, sparse random rows that may form cycles, self-loops
/// and multiple SCCs. Every transient state keeps guaranteed weight on an
/// absorbing state so the chain genuinely absorbs.
fn arb_structured_chain() -> impl Strategy<Value = AbsorbingChain> {
    (
        2..12usize,
        1..4usize,
        proptest::collection::vec(0..7u32, 400),
    )
        .prop_map(|(nt, na, weights)| {
            let n = nt + na;
            let mut chain = AbsorbingChain::new(n);
            for a in nt..n {
                chain.set_absorbing(a);
            }
            let mut w = weights.into_iter().cycle();
            for s in 0..nt {
                let mut row: Vec<u32> = (0..n).map(|_| w.next().unwrap()).collect();
                // Sparsify: drop roughly half the entries so the transient
                // graph breaks into non-trivial SCC structure.
                for slot in row.iter_mut() {
                    if w.next().unwrap() < 4 {
                        *slot = 0;
                    }
                }
                // Guaranteed absorption, spread across the classes.
                let a = nt + (s % na);
                row[a] += 1;
                let total: u32 = row.iter().sum();
                for (t, &weight) in row.iter().enumerate() {
                    if weight > 0 {
                        chain.add(s, t, Ratio::new(weight as i64, total as i64));
                    }
                }
            }
            chain
        })
}

/// The naive textbook refinement: split *every* block by signature each
/// round until stable. Quadratic, but obviously correct — the reference
/// the worklist implementation must match block-for-block (the coarsest
/// stable refinement of a seed is unique).
type Signature = Vec<(usize, usize, Ratio)>;

fn naive_refine(rows: &[Vec<(usize, Ratio)>], seed: &Partition) -> Partition {
    let n = rows.len();
    let mut part = Partition::from_labels(&seed.block_of);
    loop {
        let mut ids: HashMap<(usize, Signature), usize> = HashMap::new();
        let mut labels = Vec::with_capacity(n);
        for (s, row) in rows.iter().enumerate() {
            let mut acc: HashMap<(usize, usize), Ratio> = HashMap::new();
            for (t, p) in row {
                if p.is_zero() {
                    continue;
                }
                let key = if *t < n {
                    (0, part.block_of[*t])
                } else {
                    (1, *t - n)
                };
                *acc.entry(key).or_insert_with(Ratio::zero) += p;
            }
            let mut sig: Signature = acc.into_iter().map(|((k, i), p)| (k, i, p)).collect();
            sig.sort_unstable_by_key(|&(k, i, _)| (k, i));
            let key = (part.block_of[s], sig);
            let next = ids.len();
            labels.push(*ids.entry(key).or_insert(next));
        }
        let refined = Partition::from_labels(&labels);
        if refined.num_blocks == part.num_blocks {
            return part;
        }
        part = refined;
    }
}

/// Random sparse rows over `n` states plus `next` external symbols, with a
/// small probability pool so symmetric states actually occur.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<(usize, Ratio)>>> {
    (
        2..14usize,
        1..4usize,
        proptest::collection::vec((0..18usize, 1..4usize), 100),
    )
        .prop_map(|(n, next, raw)| {
            let mut raw = raw.into_iter().cycle();
            (0..n)
                .map(|_| {
                    let (k_src, _) = raw.next().unwrap();
                    let k = 1 + k_src % 3;
                    (0..k)
                        .map(|_| {
                            let (t_src, _) = raw.next().unwrap();
                            (t_src % (n + next), Ratio::new(1, k as i64))
                        })
                        .collect()
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant: SparseScc ≡ solve_exact, *exactly*, with
    /// lumping off and on. Not a tolerance check — `Ratio` equality.
    #[test]
    fn sparse_scc_equals_solve_exact(chain in arb_structured_chain()) {
        chain.validate().unwrap();
        let exact = chain.solve_exact().unwrap();
        for lumping in [false, true] {
            let sparse = chain.solve_sparse_scc(lumping).unwrap();
            prop_assert_eq!(
                sparse.to_dense(), exact.clone(),
                "lumping={} blocks={} sccs={}",
                lumping, sparse.lumped_blocks(), sparse.scc_count()
            );
            // Sparse means sparse: no stored zeros.
            for t in 0..sparse.num_transient() {
                for (_, p) in sparse.sparse_row(t) {
                    prop_assert!(!p.is_zero());
                }
            }
        }
    }

    /// Refining any seed partition never changes absorption
    /// probabilities: lumping quotients by the coarsest *stable*
    /// refinement of the seed, and stable partitions preserve absorption
    /// rows exactly — so an arbitrary (even nonsensical) seed must yield
    /// the same answer as the dense exact solve.
    #[test]
    fn any_lumping_seed_yields_identical_probabilities(
        chain in arb_structured_chain(),
        labels in proptest::collection::vec(0..5usize, 16),
    ) {
        let exact = chain.solve_exact().unwrap();
        let nt = exact.len();
        let seed_labels: Vec<usize> = (0..nt).map(|t| labels[t % labels.len()]).collect();
        let seed = Partition::from_labels(&seed_labels);
        let sparse = chain.solve_sparse_scc_seeded(true, Some(&seed)).unwrap();
        prop_assert_eq!(sparse.to_dense(), exact);
    }

    /// SparseScc agrees with both float backends within float tolerance
    /// (the exact ↔ float direction of the differential matrix).
    #[test]
    fn sparse_scc_within_tolerance_of_float_backends(chain in arb_structured_chain()) {
        let sparse = chain.solve(SolverBackend::SparseScc).unwrap();
        for backend in [SolverBackend::SparseLu, SolverBackend::GaussSeidel] {
            let float = chain.solve(backend).unwrap();
            prop_assert_eq!(float.absorbing_states(), sparse.absorbing_states());
            for s in 0..chain.len() {
                for &a in sparse.absorbing_states() {
                    let e = sparse.prob(s, a);
                    let f = float.prob(s, a);
                    prop_assert!(
                        (e - f).abs() < 1e-8,
                        "{:?} s={} a={}: {} vs {}", backend, s, a, e, f
                    );
                }
            }
        }
    }

    /// The worklist partition refinement matches the naive textbook
    /// fixpoint block-for-block, and its result is always a lumpable
    /// refinement of the seed. (This caught a real bug: fresh blocks
    /// created by a split were never re-queued, silently under-refining —
    /// 13 blocks where the unique coarsest stable partition has 27.)
    #[test]
    fn refine_matches_naive_reference(
        rows in arb_rows(),
        seed_labels in proptest::collection::vec(0..3usize, 14),
    ) {
        let n = rows.len();
        let seeds = [
            Partition::trivial(n),
            Partition::from_labels(&(0..n).map(|s| seed_labels[s % seed_labels.len()]).collect::<Vec<_>>()),
        ];
        for seed in &seeds {
            let fast = refine(&rows, seed);
            let slow = naive_refine(&rows, seed);
            prop_assert!(is_lumpable(&rows, &fast));
            prop_assert!(fast.refines(seed));
            prop_assert_eq!(fast.num_blocks, slow.num_blocks);
            // Same partition, not merely the same size: blocks must match
            // up to renumbering, which `refines` both ways certifies.
            prop_assert!(fast.refines(&slow) && slow.refines(&fast));
        }
    }
}

/// Deterministic multi-SCC shape: two 2-cycles in series feeding one
/// absorbing state — the condensation must see exactly two components,
/// and the probabilities are all 1 (single absorbing class).
#[test]
fn two_cycle_chain_condenses_to_two_components() {
    let mut chain = AbsorbingChain::new(5);
    chain.set_absorbing(4);
    chain.add(0, 1, Ratio::one());
    chain.add(1, 0, Ratio::new(1, 2));
    chain.add(1, 2, Ratio::new(1, 2));
    chain.add(2, 3, Ratio::one());
    chain.add(3, 2, Ratio::new(1, 3));
    chain.add(3, 4, Ratio::new(2, 3));
    let sparse = chain.solve_sparse_scc(false).unwrap();
    assert_eq!(sparse.scc_count(), 2);
    for s in 0..4 {
        assert_eq!(sparse.prob(s, 4), Ratio::one());
    }
    assert_eq!(sparse.to_dense(), chain.solve_exact().unwrap());
}

/// A trapped cycle (no path to any absorbing state) is the same singular
/// error the dense exact path reports — per-component detection must not
/// turn it into a wrong answer.
#[test]
fn trapped_cycles_error_like_solve_exact() {
    let mut chain = AbsorbingChain::new(4);
    chain.set_absorbing(3);
    // 0 reaches absorption; 1 ↔ 2 is a trapped island.
    chain.add(0, 3, Ratio::one());
    chain.add(1, 2, Ratio::one());
    chain.add(2, 1, Ratio::one());
    assert!(matches!(chain.solve_exact(), Err(LinalgError::Singular(_))));
    for lumping in [false, true] {
        assert!(
            matches!(
                chain.solve_sparse_scc(lumping),
                Err(LinalgError::Singular(_))
            ),
            "lumping={lumping}"
        );
    }
}

/// Transient states with *no* outgoing transitions at all get an all-zero
/// absorption row from the dense solve (R has a zero row, (I−Q) is still
/// nonsingular); the sparse path must reproduce that, not error.
#[test]
fn empty_transient_rows_absorb_nowhere() {
    let mut chain = AbsorbingChain::new(3);
    chain.set_absorbing(2);
    chain.add(0, 2, Ratio::one());
    // State 1 has no row at all.
    let exact = chain.solve_exact().unwrap();
    let sparse = chain.solve_sparse_scc(true).unwrap();
    assert_eq!(sparse.to_dense(), exact);
    assert_eq!(sparse.prob(1, 2), Ratio::zero());
    assert!(sparse.sparse_row(1).is_empty());
}
