//! # ftes-opt — design optimization heuristics
//!
//! The design strategy of the DATE'09 paper (Section 6): select computation
//! nodes and their hardening levels, map processes, choose re-execution
//! budgets and build the static schedule such that the **architecture cost
//! is minimized** while **deadlines** and the **reliability goal** hold.
//!
//! The layering mirrors Fig. 5 of the paper:
//!
//! ```text
//! design_strategy                         (architecture exploration, Cbest pruning)
//!   └─ Search::mapping_algorithm          (tabu search over critical-path moves)
//!        └─ Search::redundancy_opt        (hardening ↑ then ↓, per mapping, memoized)
//!             └─ ReExecutionOpt           (greedy k_j from the SFP analysis)
//!                  └─ schedule            (list scheduler with shared slack)
//! ```
//!
//! One [`Search`] carries the engine state of a run — the candidate
//! [`Evaluator`] and the mapping-outcome memo, built from one
//! [`OptConfig`] — and exposes each layer below the design strategy as a
//! method. [`optimize_fixed_architecture`] runs the same inner loop on a
//! given node selection.
//!
//! The paper's three compared strategies are selected via
//! [`HardeningPolicy`]: `Optimize` (OPT), `FixedMin` (MIN), `FixedMax`
//! (MAX).
//!
//! Candidates are evaluated through the incremental engine ([`Evaluator`]:
//! one-node-delta SFP re-analysis via [`ftes_sfp::SystemSfp`] feeding a
//! delta-maintained priority cache and a flat list-scheduling walk),
//! bit-identically to the from-scratch pipeline, which remains selectable
//! as the executable specification via [`EvalMode::Scratch`]. The
//! architecture exploration is one sequential walk; parallelism lives one
//! level up, where independent designs fan out under a [`CoreBudget`].
//!
//! ## Example
//!
//! ```
//! use ftes_model::{paper, Cost};
//! use ftes_opt::{design_strategy, OptConfig};
//!
//! let sys = paper::fig1_system();
//! let best = design_strategy(&sys, &OptConfig::default())?.expect("feasible");
//! // At least as cheap as the paper's Fig. 4a optimum (72 units).
//! assert!(best.solution.cost <= Cost::new(72));
//! # Ok::<(), ftes_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch_iter;
mod config;
mod design_strategy;
mod evaluation;
mod fixed_arch;
mod incremental;
mod mapping_opt;
mod memo;
mod redundancy;
mod search;

pub use arch_iter::architectures_with_n_nodes;
pub use config::{
    CoreBudget, EvalMode, HardeningPolicy, MaxK, MemoCap, Objective, OptConfig, TabuConfig, Threads,
};
pub use design_strategy::{design_strategy, DesignOutcome, ExplorationStats};
pub use evaluation::{evaluate_fixed, Solution};
pub use fixed_arch::optimize_fixed_architecture;
pub use incremental::{Candidate, EvalStats, Evaluator};
pub use mapping_opt::{initial_mapping, TabuMove};
pub use memo::SlruCache;
pub use redundancy::{redundancy_opt, RedundancyOutcome};
pub use search::Search;
