//! Network models for McNetKAT: the `M(p, t)` / `M̂(p, t, f)` constructions
//! of §2 and §7, routing schemes (ECMP/F10₀, F10₃, F10₃,₅), failure models
//! `f_k` and their generalisation [`FailureSpec`] (per-link heterogeneous
//! probabilities, correlated shared-risk link groups), the teleport
//! specification, verification queries, and the parallel per-switch
//! compilation backend.

#![forbid(unsafe_code)]

mod chain;
pub mod codec;
mod example;
mod failure;
mod fields;
pub mod fused;
mod model;
mod queries;
mod scheme;

pub use chain::{chain_benchmark, chain_delivery_native, chain_expected_delivery, ChainBenchmark};
pub use codec::{Codec, CodecError, ModelDescription, Reader};
pub use example::{running_example, RunningExample};
pub use failure::{FailureEvent, FailureSpec, Srlg};
pub use fields::NetFields;
pub use fused::{compile_model_parallel, FusedStats};
pub use model::{teleport, NetworkModel};
pub use queries::{HopStats, Queries};
pub use scheme::{down_ports, RoutingScheme};
