//! # HARP — Energy-Aware and Adaptive Management of Heterogeneous Processors
//!
//! Facade crate re-exporting the HARP workspace: a reproduction of the
//! Middleware '25 paper *"HARP: Energy-Aware and Adaptive Management of
//! Heterogeneous Processors"* (Smejkal, Khasanov, Castrillon, Härtig).
//!
//! HARP is a user-space resource-management framework for single-ISA
//! heterogeneous CPUs (Intel P/E-cores, Arm big.LITTLE). A central resource
//! manager ([`rm`]) partitions heterogeneous cores among registered
//! applications by selecting one *operating point* per application and
//! solving a multiple-choice multi-dimensional knapsack problem; the
//! application-side library ([`libharp`]) adapts each application (e.g. its
//! parallelization degree) to the decision and feeds utility metrics back.
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for the
//! reproduced evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use harp::platform::HardwareDescription;
//! use harp::types::ExtResourceVector;
//!
//! // The simulated Intel Raptor Lake i9-13900K: 8 P-cores (SMT) + 16 E-cores.
//! let hw = HardwareDescription::raptor_lake();
//! assert_eq!(hw.total_hw_threads(), 32);
//! let shape = hw.erv_shape();
//! let erv = ExtResourceVector::full_smt(&shape, &[8, 16]).unwrap();
//! assert_eq!(erv.total_threads(), 32);
//! ```

#![forbid(unsafe_code)]

pub use harp_alloc as alloc;
pub use harp_bench as bench;
pub use harp_energy as energy;
pub use harp_explore as explore;
pub use harp_model as model;
pub use harp_obs as obs;
pub use harp_platform as platform;
pub use harp_proto as proto;
pub use harp_rm as rm;
pub use harp_sched as sched;
pub use harp_sim as sim;
pub use harp_types as types;
pub use harp_workload as workload;
pub use libharp;

pub use harp_daemon as daemon;
