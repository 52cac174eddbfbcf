//! # ftes-sched — static scheduling with shared recovery slack
//!
//! The off-line scheduling strategy of the DATE'09 paper (Section 6.4,
//! adapting the authors' earlier work [7, 15]): a deterministic
//! critical-path list scheduler builds the no-fault static schedule, and a
//! *shared recovery slack* of `(t_ijh + μ_i) × k_j` after each process
//! accommodates up to `k_j` re-executions per node `N_j`. The worst-case
//! schedule length `SL` is compared against the deadline `D` by the design
//! strategy (`SL ≤ D` in Fig. 5).
//!
//! * [`schedule`] — builds a [`Schedule`] for an application, architecture,
//!   mapping and per-node re-execution budgets;
//! * [`longest_path_to_sink`] / [`critical_processes`] — the priorities
//!   driving both the list scheduler and the tabu-search mapping heuristic.
//!
//! ## Example
//!
//! ```
//! use ftes_model::{paper, TimeUs};
//! use ftes_sched::schedule;
//!
//! let sys = paper::fig1_system();
//! let (arch, mapping) = paper::fig4_alternative('a');
//! let sched = schedule(
//!     sys.application(), sys.timing(), &arch, &mapping, &[1, 1], sys.bus(),
//! )?;
//! assert_eq!(sched.wc_length(), TimeUs::from_ms(330)); // ≤ D = 360 ms
//! assert!(sched.is_schedulable());
//! # Ok::<(), ftes_model::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod list_scheduler;
mod priority;
mod schedule;

pub use list_scheduler::{schedule, schedule_with, ScheduleVerdict, Scheduler, SlackModel};
pub use priority::{
    critical_processes, critical_processes_into, longest_path_to_sink, CriticalScratch,
    PriorityCache, PriorityStats,
};
pub use schedule::{MessageSlot, ProcessSlot, Schedule};
