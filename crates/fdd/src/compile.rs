//! Compilation of guarded ProbNetKAT programs to probabilistic FDDs
//! (the "Compile" arrow of Figure 5).

use crate::{loops, Action, ActionDist, Budget, Fdd, Manager};
use mcnetkat_core::{Pred, Prog};
use mcnetkat_linalg::LinalgError;
use std::fmt;

/// Options controlling compilation.
///
/// Every `while` loop is solved exactly, by one sparse SCC solve; these
/// options bound that solve but never trade exactness for speed.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Upper bound on the symbolic state space explored per loop.
    pub state_limit: usize,
    /// Resource limits for this compile (deadline, cancellation,
    /// table-size ceilings). Unlimited by default; deliberately *not*
    /// part of the `while`-cache key — a budget never changes a
    /// successful result, and aborted compiles are never cached.
    pub budget: Budget,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            state_limit: 4_000_000,
            budget: Budget::default(),
        }
    }
}

/// The slice of [`CompileOptions`] that can change a `while` loop's
/// compiled diagram — the key of the manager's loop-solution cache.
///
/// Every solver-configuration field must appear here: `state_limit`
/// decides whether a loop compiles at all. Leaving a field out would let
/// a solution computed under one configuration answer a query made under
/// another, so any field added to steer the solve joins the key. The
/// [`Budget`] is the one options field *not* in the key: it decides
/// whether a compile finishes, never what a finished compile produces,
/// and aborted compiles are never cached.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct OptsKey {
    state_limit: usize,
}

impl From<&CompileOptions> for OptsKey {
    fn from(opts: &CompileOptions) -> OptsKey {
        OptsKey {
            state_limit: opts.state_limit,
        }
    }
}

/// Errors produced by the compiler.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The program uses `&` or `*` — outside the guarded fragment (§5).
    Unguarded(&'static str),
    /// A loop's symbolic state space exceeded the configured limit.
    StateSpaceTooLarge {
        /// States discovered before giving up.
        discovered: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The loop solve failed: the absorbing chain was singular.
    Solver(LinalgError),
    /// A loop guard compiled to a probabilistic diagram.
    ProbabilisticGuard,
    /// The compile's [`Budget`] cancellation token fired.
    Cancelled,
    /// The compile ran past its [`Budget`] wall-clock deadline.
    DeadlineExceeded,
    /// A [`Budget`] table-size ceiling was exceeded.
    ResourceExhausted {
        /// Which gauge tripped (`"live nodes"` or `"dist entries"`).
        resource: &'static str,
        /// The gauge value at the checkpoint.
        used: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// A parallel-backend worker or merge thread panicked; the panic was
    /// contained and its siblings cancelled.
    WorkerPanicked {
        /// The panic payload, when it was a string (else a placeholder).
        payload: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unguarded(op) => {
                write!(f, "operator `{op}` is outside the guarded fragment")
            }
            CompileError::StateSpaceTooLarge { discovered, limit } => write!(
                f,
                "loop state space exceeded limit ({discovered} ≥ {limit})"
            ),
            CompileError::Solver(e) => write!(f, "linear solver failed: {e}"),
            CompileError::ProbabilisticGuard => {
                write!(f, "loop guard is probabilistic")
            }
            CompileError::Cancelled => write!(f, "compile cancelled"),
            CompileError::DeadlineExceeded => write!(f, "compile deadline exceeded"),
            CompileError::ResourceExhausted {
                resource,
                used,
                limit,
            } => write!(
                f,
                "resource budget exhausted: {used} {resource} > limit {limit}"
            ),
            CompileError::WorkerPanicked { payload } => {
                write!(f, "parallel worker panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LinalgError> for CompileError {
    fn from(e: LinalgError) -> Self {
        CompileError::Solver(e)
    }
}

impl Manager {
    /// Compiles a predicate to a pass/drop FDD.
    pub fn compile_pred(&self, t: &Pred) -> Fdd {
        match t {
            Pred::False => self.fail(),
            Pred::True => self.pass(),
            Pred::Test(f, v) => self.branch(*f, *v, self.pass(), self.fail()),
            Pred::Or(a, b) => {
                let fa = self.compile_pred(a);
                let fb = self.compile_pred(b);
                self.ite(fa, self.pass(), fb)
            }
            Pred::And(a, b) => {
                let fa = self.compile_pred(a);
                let fb = self.compile_pred(b);
                self.ite(fa, fb, self.fail())
            }
            Pred::Not(a) => {
                let fa = self.compile_pred(a);
                self.ite(fa, self.fail(), self.pass())
            }
        }
    }

    /// Compiles a guarded program to its big-step FDD with default options.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile(&self, p: &Prog) -> Result<Fdd, CompileError> {
        self.compile_with(p, &CompileOptions::default())
    }

    /// Compiles `while guard do body` from already-compiled guard and body
    /// FDDs — the entry point used by the parallel backend, which
    /// assembles the loop body out of per-switch diagrams compiled on
    /// worker threads.
    ///
    /// Solutions are memoised per (guard, body, options): repeated loops
    /// — identical sub-chains across routing schemes or failure models —
    /// skip the absorbing-chain solve entirely. [`Manager::while_cache_stats`]
    /// reports the hit rate. Only successful solves are cached; errors
    /// (e.g. [`CompileError::StateSpaceTooLarge`]) are re-derived so each
    /// call observes its own options.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn while_loop(
        &self,
        guard: Fdd,
        body: Fdd,
        opts: &CompileOptions,
    ) -> Result<Fdd, CompileError> {
        let key = OptsKey::from(opts);
        if let Some(hit) = self.while_cache_lookup(guard, body, &key) {
            return Ok(hit);
        }
        let _gov = self.govern(&opts.budget);
        let result = loops::compile_while(self, guard, body, opts)?;
        // A governed abort during the rebuild surfaces as an Ok-but-
        // truncated diagram; the trip check here keeps it out of the
        // cache and converts it to the typed error.
        self.governed_error()?;
        self.while_cache_store(guard, body, key, result);
        Ok(result)
    }

    /// Compiles a guarded program with explicit options.
    ///
    /// Governed by `opts.budget` for the duration of the call: a fired
    /// cancellation token, an expired deadline or a table-size ceiling
    /// surfaces as the matching [`CompileError`] variant, and the manager
    /// remains fully reusable afterwards.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_with(&self, p: &Prog, opts: &CompileOptions) -> Result<Fdd, CompileError> {
        let _gov = self.govern(&opts.budget);
        let result = self.compile_ast(p, opts);
        // Catch a trip that produced a truncated Ok diagram.
        self.governed_error()?;
        result
    }

    fn compile_ast(&self, p: &Prog, opts: &CompileOptions) -> Result<Fdd, CompileError> {
        self.governed_error()?;
        match p {
            Prog::Filter(t) => Ok(self.compile_pred(t)),
            Prog::Assign(f, v) => Ok(self.leaf(ActionDist::dirac(Action::assign(*f, *v)))),
            Prog::Union(..) => Err(CompileError::Unguarded("&")),
            Prog::Star(..) => Err(CompileError::Unguarded("*")),
            Prog::Seq(a, b) => {
                let fa = self.compile_ast(a, opts)?;
                let fb = self.compile_ast(b, opts)?;
                Ok(self.seq(fa, fb))
            }
            Prog::Choice(branches) => {
                let mut compiled = Vec::with_capacity(branches.len());
                for (q, r) in branches.iter() {
                    compiled.push((self.compile_ast(q, opts)?, r.clone()));
                }
                Ok(self.convex(&compiled))
            }
            Prog::If(t, a, b) => {
                let ft = self.compile_pred(t);
                let fa = self.compile_ast(a, opts)?;
                let fb = self.compile_ast(b, opts)?;
                Ok(self.ite(ft, fa, fb))
            }
            Prog::While(t, body) => {
                let guard = self.compile_pred(t);
                let fbody = self.compile_ast(body, opts)?;
                self.while_loop(guard, fbody, opts)
            }
            Prog::Local(f, n, body) => {
                let enter = self.leaf(ActionDist::dirac(Action::assign(*f, *n)));
                let fbody = self.compile_ast(body, opts)?;
                let erase = self.leaf(ActionDist::dirac(Action::assign(*f, 0)));
                let inner = self.seq(fbody, erase);
                Ok(self.seq(enter, inner))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use mcnetkat_core::{Field, Packet};
    use mcnetkat_num::Ratio;
    use std::time::Duration;

    fn fields() -> (Field, Field) {
        (Field::named("cmp_f"), Field::named("cmp_g"))
    }

    #[test]
    fn compiles_running_example_fragment() {
        // Figure 5's program: if pt=1 then pt<-2 ⊕0.5 pt<-3 else …
        let mgr = Manager::new();
        let pt = Field::named("cmp_pt");
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
        let d1 = mgr.eval(fdd, &Packet::new().with(pt, 1));
        assert_eq!(d1.prob(&Action::assign(pt, 2)), Ratio::new(1, 2));
        assert_eq!(d1.prob(&Action::assign(pt, 3)), Ratio::new(1, 2));
        let d2 = mgr.eval(fdd, &Packet::new().with(pt, 2));
        assert_eq!(d2, ActionDist::dirac(Action::assign(pt, 1)));
        let dstar = mgr.eval(fdd, &Packet::new().with(pt, 9));
        assert!(dstar.is_drop());
    }

    #[test]
    fn predicates_obey_boolean_algebra() {
        let mgr = Manager::new();
        let (f, g) = fields();
        let t1 = Pred::test(f, 1);
        let t2 = Pred::test(g, 2);
        // De Morgan: ¬(t1 & t2) = ¬t1 ; ¬t2
        let lhs = mgr.compile_pred(&t1.clone().or(t2.clone()).not());
        let rhs = mgr.compile_pred(&t1.not().and(t2.not()));
        assert_eq!(lhs, rhs); // hash-consing makes this pointer equality
    }

    #[test]
    fn rejects_unguarded_operators() {
        let mgr = Manager::new();
        assert!(matches!(
            mgr.compile(&Prog::skip().union(Prog::drop())),
            Err(CompileError::Unguarded("&"))
        ));
        assert!(matches!(
            mgr.compile(&Prog::skip().star()),
            Err(CompileError::Unguarded("*"))
        ));
    }

    #[test]
    fn local_erases_on_exit() {
        let mgr = Manager::new();
        let (f, g) = fields();
        let prog = Prog::local(
            f,
            1,
            Prog::ite(Pred::test(f, 1), Prog::assign(g, 7), Prog::drop()),
        );
        let fdd = mgr.compile(&prog).unwrap();
        let d = mgr.eval(fdd, &Packet::new());
        // f is reset to 0 (= absent), g is 7.
        assert_eq!(d, ActionDist::dirac(Action::mods([(f, 0), (g, 7)])));
        let out = d.iter().next().unwrap().0.apply(&Packet::new()).unwrap();
        assert_eq!(out, Packet::new().with(g, 7));
    }

    #[test]
    fn assignment_then_test_is_resolved() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let prog = Prog::assign(f, 3).seq(Prog::test(f, 3));
        let fdd = mgr.compile(&prog).unwrap();
        assert_eq!(fdd, mgr.compile(&Prog::assign(f, 3)).unwrap());
        let contradiction = Prog::assign(f, 3).seq(Prog::test(f, 4));
        assert_eq!(mgr.compile(&contradiction).unwrap(), mgr.fail());
    }

    #[test]
    fn while_solutions_are_memoised_per_options() {
        let mgr = Manager::new();
        let f = Field::named("cmp_wc");
        let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::skip());
        let prog = Prog::while_(Pred::test(f, 0), body);
        let a = mgr.compile(&prog).unwrap();
        let s1 = mgr.while_cache_stats();
        assert_eq!((s1.hits, s1.misses), (0, 1));
        // Same loop again: answered from the cache, no new solve.
        let b = mgr.compile(&prog).unwrap();
        assert_eq!(a, b);
        let s2 = mgr.while_cache_stats();
        assert_eq!((s2.hits, s2.misses), (1, 1));
        // Different options form a different key: a solve under another
        // state limit must not be answered by the default's solution.
        let opts = CompileOptions {
            state_limit: 1_000,
            ..CompileOptions::default()
        };
        mgr.compile_with(&prog, &opts).unwrap();
        let s3 = mgr.while_cache_stats();
        assert_eq!((s3.hits, s3.misses), (1, 2));
        assert_eq!(s3.entries, 2);
    }

    #[test]
    fn while_cache_keys_on_solver_configuration() {
        // Regression: the cache key must cover every solver-configuration
        // field. A solution computed under one state-limit setting must
        // never answer a query made under another — each distinct
        // configuration is its own miss and its own entry.
        let mgr = Manager::new();
        let f = Field::named("cmp_wk");
        let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 3), Prog::skip());
        let prog = Prog::while_(Pred::test(f, 0), body);
        let configs = [
            CompileOptions::default(),
            CompileOptions {
                state_limit: 1_000,
                ..CompileOptions::default()
            },
            CompileOptions {
                state_limit: 2_000,
                ..CompileOptions::default()
            },
        ];
        let mut results = Vec::new();
        for (i, opts) in configs.iter().enumerate() {
            results.push(mgr.compile_with(&prog, opts).unwrap());
            let s = mgr.while_cache_stats();
            assert_eq!(
                (s.hits, s.misses, s.entries),
                (0, i as u64 + 1, i + 1),
                "config {i} must miss and add an entry, not hit a stale one"
            );
        }
        // Every configuration agrees on the diagram (hash-consing makes
        // that pointer equality); the point above is that they got there
        // via separate solves, not a cross-configuration cache hit.
        assert!(results.iter().all(|r| *r == results[0]));
        // Re-compiling each configuration now hits its own entry.
        for (i, opts) in configs.iter().enumerate() {
            let again = mgr.compile_with(&prog, opts).unwrap();
            assert_eq!(again, results[i]);
        }
        let s = mgr.while_cache_stats();
        assert_eq!(
            (s.hits, s.misses),
            (configs.len() as u64, configs.len() as u64)
        );
    }

    /// A moderately wide program: chained probabilistic choices over
    /// several fields, enough diagram work for a governor to interrupt.
    fn governed_workload(tag: &str) -> Prog {
        Prog::seq_all((0..6).map(|i| {
            let f = Field::named(&format!("cmp_gov_{tag}_{i}"));
            Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 3), Prog::assign(f, 2))
        }))
    }

    #[test]
    fn governed_ceiling_aborts_and_manager_recovers() {
        let mgr = Manager::new();
        let prog = governed_workload("ceil");
        let opts = CompileOptions {
            budget: Budget::default().with_max_live_nodes(1),
            ..CompileOptions::default()
        };
        match mgr.compile_with(&prog, &opts) {
            Err(CompileError::ResourceExhausted {
                resource, limit, ..
            }) => {
                assert_eq!(resource, "live nodes");
                assert_eq!(limit, 1);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // The abort left only well-formed nodes behind…
        #[cfg(feature = "audit")]
        mgr.audit().assert_clean();
        // …and the same manager completes the same compile on retry.
        let retried = mgr.compile(&prog).unwrap();
        let fresh = Manager::new().compile(&prog);
        assert!(fresh.is_ok());
        let pk = Packet::new();
        assert_eq!(mgr.prob_delivery(retried, &pk), Ratio::one());
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let mgr = Manager::new();
        let prog = governed_workload("tok");
        let token = CancelToken::new();
        token.cancel();
        let opts = CompileOptions {
            budget: Budget::default().with_cancel(token),
            ..CompileOptions::default()
        };
        assert!(matches!(
            mgr.compile_with(&prog, &opts),
            Err(CompileError::Cancelled)
        ));
        #[cfg(feature = "audit")]
        mgr.audit().assert_clean();
        mgr.compile(&prog).unwrap();
    }

    #[test]
    fn expired_deadline_aborts_and_is_not_sticky() {
        let mgr = Manager::new();
        let prog = governed_workload("dl");
        let opts = CompileOptions {
            budget: Budget::default().with_deadline(Duration::ZERO),
            ..CompileOptions::default()
        };
        assert!(matches!(
            mgr.compile_with(&prog, &opts),
            Err(CompileError::DeadlineExceeded)
        ));
        // Dropping the governor guard cleared the latched trip: a new
        // governed compile with a sane budget runs to completion.
        let sane = CompileOptions {
            budget: Budget::default().with_deadline(Duration::from_secs(600)),
            ..CompileOptions::default()
        };
        mgr.compile_with(&prog, &sane).unwrap();
    }

    #[test]
    fn governed_aborts_never_poison_the_while_cache() {
        let mgr = Manager::new();
        let f = Field::named("cmp_gov_wc");
        let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::skip());
        let prog = Prog::while_(Pred::test(f, 0), body);
        let token = CancelToken::new();
        token.cancel();
        let opts = CompileOptions {
            budget: Budget::default().with_cancel(token),
            ..CompileOptions::default()
        };
        assert!(mgr.compile_with(&prog, &opts).is_err());
        let s = mgr.while_cache_stats();
        assert_eq!(s.entries, 0, "aborted loop must not be memoised");
        // The retry — same options key, no cancellation — misses, solves,
        // and produces the exact closed form.
        let fdd = mgr.compile(&prog).unwrap();
        assert_eq!(mgr.prob_delivery(fdd, &Packet::new()), Ratio::one());
    }

    #[test]
    fn while_errors_are_not_cached() {
        let mgr = Manager::new();
        let f = Field::named("cmp_we");
        let prog = Prog::while_(Pred::test(f, 0), Prog::assign(f, 1));
        let tiny = CompileOptions {
            state_limit: 1,
            ..CompileOptions::default()
        };
        assert!(matches!(
            mgr.compile_with(&prog, &tiny),
            Err(CompileError::StateSpaceTooLarge { .. })
        ));
        // The failure must not poison other option sets.
        mgr.compile(&prog).unwrap();
    }

    #[test]
    fn choice_of_choices_flattens_probabilities() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let inner = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::assign(f, 2));
        let outer = Prog::choice2(inner, Ratio::new(1, 2), Prog::assign(f, 1));
        let fdd = mgr.compile(&outer).unwrap();
        let d = mgr.eval(fdd, &Packet::new());
        assert_eq!(d.prob(&Action::assign(f, 1)), Ratio::new(3, 4));
        assert_eq!(d.prob(&Action::assign(f, 2)), Ratio::new(1, 4));
    }
}
