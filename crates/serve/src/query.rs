//! Queries against loaded models: what can be asked ([`Query`]), under
//! which budget ([`QueryRequest`]), and the concurrent, admission-gated
//! path that answers them.

use crate::{Engine, EngineError, ModelId};
use mcnetkat_fdd::Budget;
use mcnetkat_num::Ratio;
use mcnetkat_topo::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A single query against loaded models.
#[derive(Clone, Debug)]
pub enum Query {
    /// Probability a packet injected at ingress `src` reaches the
    /// destination.
    DeliveryProb {
        /// The model to query.
        model: ModelId,
        /// Ingress switch.
        src: NodeId,
    },
    /// Whether `src` can reach the destination at all (delivery
    /// probability strictly positive).
    Reachable {
        /// The model to query.
        model: ModelId,
        /// Ingress switch.
        src: NodeId,
    },
    /// The minimum delivery probability over every ingress.
    MinDelivery {
        /// The model to query.
        model: ModelId,
    },
    /// Whether `left` refines `right`: at least as likely to deliver from
    /// every ingress ([`Queries::refines`](mcnetkat_net::Queries::refines)).
    Refines {
        /// The candidate refinement.
        left: ModelId,
        /// The model refined against.
        right: ModelId,
    },
    /// Whether the two compiled models are equivalent as packet
    /// transformers.
    Equiv {
        /// First model.
        left: ModelId,
        /// Second model.
        right: ModelId,
    },
    /// Whether the model delivers like the ideal teleport specification
    /// (failure-free resilience check).
    EquivTeleport {
        /// The model to query.
        model: ModelId,
    },
}

/// A [`Query`] plus its resource [`Budget`]. A budget that is already
/// cancelled or past its deadline rejects the query at admission; limits
/// are also re-checked against the manager between query steps.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// What to answer.
    pub query: Query,
    /// Per-query resource budget (unlimited by default).
    pub budget: Budget,
}

impl QueryRequest {
    /// Gives the request a deadline this far in the future, keeping the
    /// rest of its budget. A query that trips it fails with
    /// [`EngineError::Compile`]`(`[`DeadlineExceeded`](mcnetkat_fdd::CompileError::DeadlineExceeded)`)`
    /// and is not retried: a caller that would take a late answer resends
    /// it with a longer deadline. A query that finishes its computation
    /// after the deadline still answers.
    pub fn with_deadline(mut self, timeout: Duration) -> QueryRequest {
        self.budget = self.budget.with_deadline(timeout);
        self
    }
}

impl From<Query> for QueryRequest {
    fn from(query: Query) -> QueryRequest {
        QueryRequest {
            query,
            budget: Budget::unlimited(),
        }
    }
}

/// A query's answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// An exact probability.
    Prob(Ratio),
    /// A truth value.
    Bool(bool),
}

impl Answer {
    /// The probability inside, if this is a probability answer.
    pub fn prob(&self) -> Option<&Ratio> {
        match self {
            Answer::Prob(r) => Some(r),
            Answer::Bool(_) => None,
        }
    }

    /// The truth value inside, if this is a boolean answer.
    pub fn truth(&self) -> Option<bool> {
        match self {
            Answer::Bool(b) => Some(*b),
            Answer::Prob(_) => None,
        }
    }
}

impl Engine {
    /// Answers a batch of queries concurrently over the shared manager,
    /// each under its own budget. Results come back in request order;
    /// each failure is per-query (one budget trip doesn't poison the
    /// batch).
    ///
    /// Worker fan-out is capped at
    /// [`EngineConfig::max_concurrent_queries`](crate::EngineConfig::max_concurrent_queries)
    /// (falling back to the machine's parallelism), and the requests past
    /// the cap *queue* on the workers' shared cursor rather than spawning
    /// threads — a 10k query batch runs on a handful of threads. A batch
    /// with one worker (one request, or a cap of one) runs on the caller's
    /// thread. Under cross-batch contention, individual queries can still
    /// shed with [`EngineError::Overloaded`] (the admission gate is
    /// global).
    pub fn query_batch(&self, reqs: &[QueryRequest]) -> Vec<Result<Answer, EngineError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = reqs
            .len()
            .min(self.max_concurrent_queries.unwrap_or(hardware))
            .max(1);
        if workers == 1 {
            // One worker would only queue the requests behind a thread
            // spawn: answer them on the caller's thread, in order.
            return reqs.iter().map(|req| self.query(req)).collect();
        }
        let slots: Vec<OnceLock<Result<Answer, EngineError>>> =
            (0..reqs.len()).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let result = self.query(req);
                    slots[i]
                        .set(result)
                        .map_err(|_| "slot")
                        .expect("slot set once");
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every slot filled by a worker"))
            .collect()
    }

    /// Answers one query under its budget, recording its latency.
    ///
    /// Admission happens in two layers. First the concurrency gate: when
    /// [`EngineConfig::max_concurrent_queries`](crate::EngineConfig::max_concurrent_queries)
    /// queries are already in flight, the query is *shed* with
    /// [`EngineError::Overloaded`] before any work. Then the budget: a
    /// cancelled or expired budget rejects the query, and limits are
    /// re-checked against the manager between steps of multi-part
    /// queries. A query that completes its computation returns its answer
    /// even if the deadline passed meanwhile — a late exact answer is
    /// still an answer — and a query that *trips* its deadline returns
    /// the budget-trip error.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`], [`EngineError::UnknownModel`], a
    /// budget-trip [`CompileError`](mcnetkat_fdd::CompileError), or a
    /// propagated compile failure (the teleport check compiles its
    /// specification on first use, under the query's budget).
    pub fn query(&self, req: &QueryRequest) -> Result<Answer, EngineError> {
        let start = Instant::now();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let _permit = self.admit()?;
        let result = self.answer(req);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latencies_ns
            .lock()
            .expect("latency gauge poisoned")
            .push(ns);
        result
    }

    /// The admission gate: takes a concurrency permit or sheds.
    pub(crate) fn admit(&self) -> Result<Option<QueryPermit<'_>>, EngineError> {
        let Some(limit) = self.max_concurrent_queries else {
            return Ok(None);
        };
        let mut active = self.active_queries.load(Ordering::Relaxed);
        loop {
            if active >= limit {
                self.queries_shed.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::Overloaded { active, limit });
            }
            match self.active_queries.compare_exchange_weak(
                active,
                active + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(Some(QueryPermit(&self.active_queries))),
                Err(now) => active = now,
            }
        }
    }

    fn answer(&self, req: &QueryRequest) -> Result<Answer, EngineError> {
        req.budget.check_external()?;
        let mgr = self.manager();
        match &req.query {
            Query::DeliveryProb { model, src } => {
                Ok(Answer::Prob(self.queries_of(*model)?.delivery_prob(*src)))
            }
            Query::Reachable { model, src } => {
                let p = self.queries_of(*model)?.delivery_prob(*src);
                Ok(Answer::Bool(p > Ratio::zero()))
            }
            Query::MinDelivery { model } => {
                let q = self.queries_of(*model)?;
                mgr.check_budget(&req.budget)?;
                Ok(Answer::Prob(q.min_delivery()))
            }
            Query::Refines { left, right } => {
                let l = self.queries_of(*left)?;
                let r = self.queries_of(*right)?;
                mgr.check_budget(&req.budget)?;
                // `Queries::refines` reads `self ≤ other`; "left refines
                // right" means right's delivery is dominated by left's.
                Ok(Answer::Bool(r.refines(&l)))
            }
            Query::Equiv { left, right } => {
                let l = self.fdd(*left)?;
                let r = self.fdd(*right)?;
                mgr.check_budget(&req.budget)?;
                Ok(Answer::Bool(mgr.equiv(l, r)))
            }
            Query::EquivTeleport { model } => {
                let fdd = self.fdd(*model)?;
                mgr.check_budget(&req.budget)?;
                let teleport = self.teleport(*model, &req.budget)?;
                Ok(Answer::Bool(mgr.equiv(fdd, teleport)))
            }
        }
    }
}

/// An admission-gate permit: holding one means the query is counted in
/// `active_queries`; dropping it (on any exit path) releases the slot.
pub(crate) struct QueryPermit<'a>(&'a AtomicUsize);

impl Drop for QueryPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}
