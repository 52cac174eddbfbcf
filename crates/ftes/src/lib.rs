//! # ftes — fault-tolerant embedded systems with hardened processors
//!
//! A production-quality Rust reproduction of
//!
//! > V. Izosimov, I. Polian, P. Pop, P. Eles, Z. Peng, *Analysis and
//! > Optimization of Fault-Tolerant Embedded Systems with Hardened
//! > Processors*, DATE 2009, pp. 682–687.
//!
//! The library co-optimizes **hardware hardening** (each computation node
//! is available in several *h-versions* with decreasing soft-error rate,
//! increasing cost and longer WCETs) and **software re-execution** (up to
//! `k_j` recoveries per node and iteration) so that hard real-time task
//! graphs meet their deadlines and a reliability goal ρ = 1 − γ per hour at
//! minimum architecture cost.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — applications, platforms, timing tables, architectures,
//!   mappings, reliability goals, buses ([`ftes_model`]);
//! * [`sfp`] — the system failure probability analysis of Appendix A
//!   ([`ftes_sfp`]);
//! * [`sched`] — static scheduling with shared recovery slack
//!   ([`ftes_sched`]);
//! * [`opt`] — the design-space exploration of Section 6: architecture
//!   selection, tabu-search mapping, `RedundancyOpt` ([`ftes_opt`]);
//! * [`faultsim`] — the fault-injection substrate producing `p_ijh`
//!   ([`ftes_faultsim`]);
//! * [`gen`] — synthetic benchmarks and the cruise-controller case study
//!   ([`ftes_gen`]);
//! * [`bench`](mod@bench) — the Section 7 experiment harness ([`ftes_bench`]).
//!
//! ## Quick start
//!
//! Optimize the paper's running example (Fig. 1):
//!
//! ```
//! use ftes::model::paper;
//! use ftes::opt::{design_strategy, OptConfig};
//!
//! let system = paper::fig1_system();
//! let best = design_strategy(&system, &OptConfig::default())?
//!     .expect("a feasible architecture exists");
//! assert!(best.solution.is_schedulable());
//! assert!(best.solution.cost <= ftes::model::Cost::new(72));
//! # Ok::<(), ftes::model::ModelError>(())
//! ```
//!
//! See `examples/` for runnable walkthroughs and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every figure and table.

#![warn(missing_docs)]

pub use ftes_bench as bench;
pub use ftes_faultsim as faultsim;
pub use ftes_gen as gen;
pub use ftes_model as model;
pub use ftes_opt as opt;
pub use ftes_sched as sched;
pub use ftes_sfp as sfp;
