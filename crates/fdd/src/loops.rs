//! Closed-form compilation of `while` loops (§4 / Theorem 4.7, specialised
//! to single packets).
//!
//! `while t do p` on a single packet is an absorbing Markov chain over
//! symbolic packets: guard-false states absorb with the packet as output;
//! guard-true states step through the body's FDD; the `drop` outcome
//! absorbs in `∅`. The absorption probabilities `A = (I − Q)^{-1} R`
//! (equation 2) give the loop's big-step distribution exactly. Mass that
//! can never reach an absorbing state corresponds to non-termination, which
//! the semantics identifies with `drop`.
//!
//! The state space uses *dynamic domain reduction* (§5.1): input classes
//! are the product, over fields tested by the guard or body, of the tested
//! values plus a wildcard; exploration then closes the set under the body's
//! modifications. The guard's and body's case spines are indexed once per
//! loop, so a state's step starts at its switch's arm rather than at the
//! root (`fdd::query`, "The case-spine index"): a network body is an
//! `sw`-case chain with one arm per switch.

use crate::{Action, ActionDist, CompileError, CompileOptions, Fdd, Manager, SymPkt};
use mcnetkat_core::{Field, Value};
use mcnetkat_linalg::{AbsorbingChain, LinalgError};
use mcnetkat_num::Ratio;
use std::collections::HashMap;

/// Index of the distinguished `∅` (dropped) state.
const DROP_STATE: usize = 0;

/// Compiles `while guard do body` given compiled guard and body FDDs.
///
/// # Errors
///
/// Fails if the symbolic state space exceeds `opts.state_limit`, the guard
/// is probabilistic, or the linear solver fails.
pub fn compile_while(
    mgr: &Manager,
    guard: Fdd,
    body: Fdd,
    opts: &CompileOptions,
) -> Result<Fdd, CompileError> {
    // 1. Dynamic domain: fields/values tested by guard or body.
    let mut dom = mgr.domain(guard);
    dom.merge(&mgr.domain(body));
    if dom.class_count() > opts.state_limit {
        return Err(CompileError::StateSpaceTooLarge {
            discovered: dom.class_count(),
            limit: opts.state_limit,
        });
    }
    let input_classes = dom.input_classes();

    // 2. Explore the chain from every input class.
    //    State 0 is ∅; symbolic packets are states 1….
    //    The state limit is enforced inside `intern` — a single body
    //    evaluation can discover many successor states, so checking only
    //    between evaluations would let the state set overshoot the limit
    //    arbitrarily far before the next check.
    let limit = opts.state_limit;
    let budget = &opts.budget;
    let mut index: HashMap<SymPkt, usize> = HashMap::new();
    let mut states: Vec<SymPkt> = Vec::new();
    let mut worklist: Vec<usize> = Vec::new();
    let mut polls: u32 = 0;
    let mut intern = |pk: SymPkt,
                      states: &mut Vec<SymPkt>,
                      worklist: &mut Vec<usize>|
     -> Result<usize, CompileError> {
        #[cfg(feature = "failpoints")]
        crate::failpoints::check_compile("fdd::intern")?;
        if let Some(&ix) = index.get(&pk) {
            return Ok(ix);
        }
        // Budget checkpoint on state discovery, amortised so unlimited
        // budgets cost a counter increment per new state.
        polls = polls.wrapping_add(1);
        if polls & 0x3f == 0 {
            budget.check_external()?;
        }
        // `states.len() + 2` counts DROP_STATE plus the state about to be
        // interned.
        if states.len() + 2 > limit {
            return Err(CompileError::StateSpaceTooLarge {
                discovered: states.len() + 2,
                limit,
            });
        }
        let ix = states.len() + 1; // offset for DROP_STATE
        index.insert(pk.clone(), ix);
        states.push(pk);
        worklist.push(ix);
        Ok(ix)
    };
    for class in &input_classes {
        intern(class.clone(), &mut states, &mut worklist)?;
    }
    // rows[s]: sparse transition list of transient state s (empty for
    // absorbing states). Indexed by state id for deterministic iteration —
    // the chain, and hence the solver's pivoting order, must not depend on
    // hash iteration order.
    let mut rows: Vec<Vec<(usize, Ratio)>> = Vec::new();
    let mut absorbing: Vec<usize> = vec![DROP_STATE];
    // The body is typically the model's `sw`-case chain: index the guard's
    // and the body's case spines once and start each state at its arm
    // instead of walking the chain from the root. One lock covers the
    // exploration; nothing in it calls back into the manager.
    let walk = mgr.walker();
    let (guard_spine, body_spine) = (walk.case_index(guard), walk.case_index(body));
    while let Some(ix) = worklist.pop() {
        let pk = states[ix - 1].clone();
        let gd = walk.eval_sym_at(&guard_spine, &pk);
        if gd.is_drop() {
            absorbing.push(ix);
            continue;
        }
        if !gd.is_skip() {
            return Err(CompileError::ProbabilisticGuard);
        }
        let dist = walk.eval_sym_at(&body_spine, &pk);
        let mut row = Vec::with_capacity(dist.support_size());
        for (action, r) in dist.iter() {
            let target = match pk.apply(action) {
                None => DROP_STATE,
                Some(next) => intern(next, &mut states, &mut worklist)?,
            };
            row.push((target, r.clone()));
        }
        if rows.len() <= ix {
            rows.resize(ix + 1, Vec::new());
        }
        rows[ix] = row;
    }
    drop(walk);
    let n = states.len() + 1;
    rows.resize(n, Vec::new());

    // 3. Drop states that cannot reach an absorbing state: they represent
    //    sure non-termination, which the semantics equates with drop.
    let mut reaches = vec![false; n];
    for &a in &absorbing {
        reaches[a] = true;
    }
    // Backward reachability via reverse adjacency.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (s, row) in rows.iter().enumerate() {
        for (t, _) in row {
            rev[*t].push(s);
        }
    }
    let mut stack: Vec<usize> = absorbing.clone();
    while let Some(s) = stack.pop() {
        for &prev in &rev[s] {
            if !reaches[prev] {
                reaches[prev] = true;
                stack.push(prev);
            }
        }
    }

    // 4. Build and solve the absorbing chain. Transitions into unreachable
    //    states are redirected to ∅ (their mass never produces output).
    let mut chain = AbsorbingChain::new(n);
    for &a in &absorbing {
        chain.set_absorbing(a);
    }
    for s in 0..n {
        if chain.is_absorbing(s) {
            continue;
        }
        if !reaches[s] {
            // Never absorbs: model as immediately absorbing into ∅ —
            // we simply leave its row empty and mark it absorbed-to-drop by
            // sending all mass to DROP_STATE.
            chain.add(s, DROP_STATE, Ratio::one());
            continue;
        }
        for (t, r) in &rows[s] {
            let target = if reaches[*t] { *t } else { DROP_STATE };
            chain.add(s, target, r.clone());
        }
    }
    // Compact index maps (same ordering as the chain's internal partition:
    // states scanned in id order).
    let mut transient_rank = vec![usize::MAX; n];
    let mut absorbing_ids = Vec::new();
    for (s, rank) in transient_rank.iter_mut().enumerate() {
        if chain.is_absorbing(s) {
            absorbing_ids.push(s);
        } else {
            *rank = s - absorbing_ids.len();
        }
    }
    let nt = n - absorbing_ids.len();

    // Absorption probabilities as *sparse* exact rows, `(absorbing rank,
    // probability)` with zero entries never materialised: SCC-decomposed
    // back-substitution over rationals, polling the budget once per
    // component. The solve fails only on a singular chain, and step 3
    // leaves none: every trapped state was sent to ∅.
    #[cfg(feature = "failpoints")]
    crate::failpoints::check_compile("fdd::loops::solve")?;
    let mut stop = || budget.check_external().is_err();
    let sol = match chain.solve_sparse_scc_interruptible(&mut stop) {
        Ok(sol) => sol,
        // The solver stopped because our budget check fired: re-evaluate
        // the budget for the typed error. Deadlines stay expired and
        // tokens stay cancelled, so the default is unreachable.
        Err(LinalgError::Interrupted) => {
            return Err(budget
                .check_external()
                .err()
                .unwrap_or(CompileError::DeadlineExceeded))
        }
        Err(e) => return Err(CompileError::Solver(e)),
    };
    mgr.record_loop_solve(nt, sol.scc_count());
    let solved = sol.into_rows();

    // 5. Build the leaf distribution for each input class.
    let mut class_dists: HashMap<SymPkt, ActionDist> = HashMap::new();
    for class in &input_classes {
        let ix = index[class];
        let dist = if chain.is_absorbing(ix) {
            if ix == DROP_STATE {
                ActionDist::drop()
            } else {
                // Guard already false: the loop is the identity here.
                ActionDist::skip()
            }
        } else {
            let mut d = ActionDist::zero();
            let mut total = Ratio::zero();
            let row = &solved[transient_rank[ix]];
            for (a_rank, pr) in row {
                if pr.is_zero() || pr.is_negative() {
                    continue;
                }
                let a = absorbing_ids[*a_rank];
                let action = if a == DROP_STATE {
                    Action::Drop
                } else {
                    states[a - 1].as_action()
                };
                total += pr;
                d.add(action, pr.clone());
            }
            // Residual mass is genuine non-termination, which the
            // semantics equates with drop.
            let deficit = Ratio::one() - total;
            if deficit > Ratio::zero() {
                d.add(Action::Drop, deficit);
            }
            d
        };
        class_dists.insert(class.clone(), dist);
    }

    // 6. Rebuild the big-step FDD over the tested fields.
    let fields: Vec<(Field, Vec<Value>)> =
        dom.tested.iter().map(|(f, vs)| (*f, vs.clone())).collect();
    Ok(build_tree(mgr, &fields, 0, SymPkt::star(), &class_dists))
}

/// Builds the decision tree for the loop result: fields in FDD order, each
/// field's tested values in ascending order, with the wildcard class on the
/// final false-branch.
fn build_tree(
    mgr: &Manager,
    fields: &[(Field, Vec<Value>)],
    fi: usize,
    class: SymPkt,
    dists: &HashMap<SymPkt, ActionDist>,
) -> Fdd {
    if fi == fields.len() {
        let dist = dists
            .get(&class)
            .cloned()
            .expect("input class missing from solution");
        return mgr.leaf(dist);
    }
    let (field, values) = &fields[fi];
    // Build the chain bottom-up: start with the wildcard branch.
    let mut result = build_tree(mgr, fields, fi + 1, class.clone(), dists);
    for &v in values.iter().rev() {
        let hi = build_tree(mgr, fields, fi + 1, class.with(*field, v), dists);
        result = mgr.branch(*field, v, hi, result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_core::{Field, Packet, Pred, Prog};

    fn field(n: &str) -> Field {
        Field::named(n)
    }

    #[test]
    fn single_iteration_loop() {
        let mgr = Manager::new();
        let f = field("lp_f1");
        // while f=0 do f<-1
        let prog = Prog::while_(Pred::test(f, 0), Prog::assign(f, 1));
        let fdd = mgr.compile(&prog).unwrap();
        let d = mgr.eval(fdd, &Packet::new()); // f=0 initially
        let out: Vec<_> = d
            .iter()
            .map(|(a, r)| (a.apply(&Packet::new()), r.clone()))
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Some(Packet::new().with(f, 1)));
        assert_eq!(out[0].1, Ratio::one());
        // Guard already false: identity.
        let d2 = mgr.eval(fdd, &Packet::new().with(f, 5));
        assert!(d2.is_skip());
    }

    #[test]
    fn geometric_loop_solves_exactly() {
        let mgr = Manager::new();
        let f = field("lp_f2");
        // while f=0 do (f<-1 ⊕½ skip): exits with probability 1.
        let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::skip());
        let prog = Prog::while_(Pred::test(f, 0), body);
        let fdd = mgr.compile(&prog).unwrap();
        let d = mgr.eval(fdd, &Packet::new());
        let p1 = d.prob(&Action::assign(f, 1));
        // The closed form gives exactly 1, unlike any finite unrolling.
        assert!((p1.to_f64() - 1.0).abs() < 1e-9);
        assert!(d.prob(&Action::Drop).to_f64() < 1e-9);
    }

    #[test]
    fn nonterminating_loop_is_drop() {
        let mgr = Manager::new();
        let f = field("lp_f3");
        // while f=0 do skip: diverges on f=0, identity otherwise.
        let prog = Prog::while_(Pred::test(f, 0), Prog::skip());
        let fdd = mgr.compile(&prog).unwrap();
        assert!(mgr.eval(fdd, &Packet::new()).is_drop());
        assert!(mgr.eval(fdd, &Packet::new().with(f, 1)).is_skip());
    }

    #[test]
    fn nonterminating_cycle_is_drop() {
        let mgr = Manager::new();
        let f = field("lp_f8");
        let g = field("lp_g8");
        // while f=0 do (g<-0 ⊕½ g<-1): on f=0 the chain closes the cycle
        // g=0 ↔ g=1 and never absorbs. Step 3 must send the whole cycle to
        // ∅, not hand the solver a trapped component.
        let body = Prog::choice2(Prog::assign(g, 0), Ratio::new(1, 2), Prog::assign(g, 1));
        let prog = Prog::while_(Pred::test(f, 0), body);
        let fdd = mgr.compile(&prog).unwrap();
        for input in [Packet::new(), Packet::new().with(g, 0), Packet::new().with(g, 7)] {
            assert!(mgr.eval(fdd, &input).is_drop(), "{input:?}");
        }
        assert!(mgr.eval(fdd, &Packet::new().with(f, 1)).is_skip());
        assert!(mgr.eval(fdd, &Packet::new().with(f, 1).with(g, 1)).is_skip());
    }

    #[test]
    fn counting_loop_terminates() {
        let mgr = Manager::new();
        let f = field("lp_f4");
        // while ¬(f=3) do (f=0;f<-1 | f=1;f<-2 | f=2;f<-3) via conditionals
        let body = Prog::case(
            vec![
                (Pred::test(f, 0), Prog::assign(f, 1)),
                (Pred::test(f, 1), Prog::assign(f, 2)),
                (Pred::test(f, 2), Prog::assign(f, 3)),
            ],
            Prog::drop(),
        );
        let prog = Prog::while_(Pred::test(f, 3).not(), body);
        let fdd = mgr.compile(&prog).unwrap();
        for start in 0..=3u32 {
            let d = mgr.eval(fdd, &Packet::new().with(f, start));
            let out = d
                .iter()
                .next()
                .unwrap()
                .0
                .apply(&Packet::new().with(f, start));
            assert_eq!(out, Some(Packet::new().with(f, 3)), "start {start}");
            assert_eq!(d.mass(), Ratio::one());
        }
        // Any other value loops through drop (body drops it).
        let d = mgr.eval(fdd, &Packet::new().with(f, 9));
        assert!(d.is_drop());
    }

    #[test]
    fn loop_output_respects_unmodified_fields() {
        let mgr = Manager::new();
        let f = field("lp_f5");
        let g = field("lp_g5");
        // while f=0 do f<-1 — field g must pass through untouched.
        let prog = Prog::while_(Pred::test(f, 0), Prog::assign(f, 1));
        let fdd = mgr.compile(&prog).unwrap();
        let input = Packet::new().with(g, 42);
        let d = mgr.eval(fdd, &input);
        let outs: Vec<_> = d.iter().map(|(a, _)| a.apply(&input)).collect();
        assert_eq!(outs, vec![Some(input.with(f, 1))]);
    }

    #[test]
    fn state_limit_enforced_within_one_body_evaluation() {
        // A single body evaluation discovers 8 successor states at once.
        // The limit must trip *during* that evaluation (inside `intern`),
        // not at the next worklist pop — so the discovered count can
        // overshoot the limit by at most the one state being interned.
        let mgr = Manager::new();
        let f = field("lp_f7");
        let g = field("lp_g7");
        let branches: Vec<(Prog, Ratio)> = (1..=8u32)
            .map(|i| (Prog::assign(g, i), Ratio::new(1, 8)))
            .collect();
        let prog = Prog::while_(Pred::test(f, 0), Prog::choice(branches));
        let limit = 5;
        let opts = CompileOptions {
            state_limit: limit,
            ..CompileOptions::default()
        };
        match mgr.compile_with(&prog, &opts).unwrap_err() {
            CompileError::StateSpaceTooLarge {
                discovered,
                limit: l,
            } => {
                assert_eq!(l, limit);
                assert_eq!(discovered, limit + 1, "limit trips without overshoot");
            }
            other => panic!("unexpected error: {other}"),
        }
        // A permissive limit compiles the same loop fine.
        mgr.compile(&prog).unwrap();
    }

    #[test]
    fn two_phase_random_walk() {
        let mgr = Manager::new();
        let f = field("lp_f6");
        // Random walk on {0,1,2}: from 1 go to 0 or 2 with prob ½ each;
        // absorb at 0 and 2. Start at 1 → ½ / ½.
        let body = Prog::ite(
            Pred::test(f, 1),
            Prog::choice2(Prog::assign(f, 0), Ratio::new(1, 2), Prog::assign(f, 2)),
            Prog::drop(),
        );
        let guard = Pred::test(f, 1);
        let prog = Prog::while_(guard, body);
        let fdd = mgr.compile(&prog).unwrap();
        let d = mgr.eval(fdd, &Packet::new().with(f, 1));
        assert_eq!(d.prob(&Action::assign(f, 0)).to_f64(), 0.5);
        assert_eq!(d.prob(&Action::assign(f, 2)).to_f64(), 0.5);
    }
}
