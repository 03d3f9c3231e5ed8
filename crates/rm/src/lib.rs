//! The HARP Resource Manager (paper §4).
//!
//! A single RM instance oversees all managed applications. It reacts to
//! application arrivals and exits and to periodic measurement ticks:
//!
//! 1. it gathers each application's *operating points* — supplied offline
//!    via profiles or learned online by the exploration engine
//!    (`harp-explore`);
//! 2. it attributes measured package energy to applications
//!    (`harp-energy`) and smooths utility/power measurements;
//! 3. it selects one Pareto-optimal operating point per application by
//!    solving the MMKP of Eq. 1 (`harp-alloc`), mapping selections onto
//!    disjoint physical cores;
//! 4. it emits [`Directive`]s — the *operating-point activation* messages
//!    that a frontend relays to each application's libharp instance, which
//!    then adapts (affinity + parallelism).
//!
//! The RM core is transport-agnostic: `harp-sched` drives it inside the
//! machine simulator for the evaluation, and `harp-daemon` drives it over
//! real Unix sockets. Both frontends charge the RM's communication costs to
//! the applications, reproducing the §6.6 overhead study.
//!
//! # Example
//!
//! ```
//! use harp_platform::HardwareDescription;
//! use harp_rm::{RmConfig, RmCore};
//! use harp_types::AppId;
//!
//! let hw = HardwareDescription::raptor_lake();
//! let mut rm = RmCore::new(hw, RmConfig::default());
//! let out = rm.register(AppId(1), "mg", false)?;
//! // A fresh application starts exploring: it gets the whole idle machine
//! // as its measurement envelope and a first target configuration.
//! assert_eq!(out.directives.len(), 1);
//! assert!(out.directives[0].parallelism >= 1);
//! # Ok::<(), harp_types::HarpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
pub mod journal;

pub use crate::core::{
    table_from_points, AppObservation, Directive, RmConfig, RmCore, RmOutput, TickObservations,
};
pub use crate::journal::{JournalRecord, JournalWriter, ReadOutcome};
pub use harp_energy::{EnergyLedger, LedgerEntry, LedgerTick};
pub use harp_explore::Stage;
