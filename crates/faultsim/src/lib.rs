//! # ftes-faultsim — transient-fault injection substrate
//!
//! The DATE'09 paper takes the process failure probabilities `p_ijh` from
//! fault-injection experiments (GOOFI \[1\], FPGA-based injection \[18\]) on
//! real hardened processors. Those measurements are not available, so
//! this crate is the reproduction's substitute substrate:
//!
//! * [`SerModel`] — per-cycle soft-error rates as a function of the
//!   hardening level (default: 100× reduction per level, matching the
//!   paper's own tables), plus the analytic failure probability
//!   `1 − (1 − SER_h)^cycles`;
//! * [`Injector`] — Monte-Carlo injection on a simple sequential processor
//!   model with O(1) geometric sampling per execution;
//! * [`build_timing_db`] — runs the "campaign" for every (process, node
//!   type, h-version) and fills the [`TimingDb`](ftes_model::TimingDb),
//!   with WCETs degraded per the paper's HPD profiles ([`hpd_profile`]);
//! * [`simulate_with_faults`] — executes a static schedule under a fault
//!   plan and checks the shared-recovery-slack bound end to end.
//!
//! ## Example
//!
//! ```
//! use ftes_faultsim::{Injector, SerModel};
//!
//! let model = SerModel::paper_default(1e-6);
//! let cycles = model.cycles(ftes_model::TimeUs::from_ms(10));
//! let analytic = model.pfail_cycles(cycles, 1);
//! let estimate = Injector::new(42).estimate_pfail(cycles, model.ser(1), 10_000);
//! assert!((analytic - estimate).abs() < 0.02);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod injector;
mod mc_validate;
mod runtime;
mod ser;

pub use campaign::{build_timing_db, hpd_profile, ProbSource};
pub use injector::{ExecutionOutcome, Injector};
pub use mc_validate::{binomial_sigma, estimate_system_failure};
pub use runtime::{simulate_with_faults, SimulationRun};
pub use ser::SerModel;
