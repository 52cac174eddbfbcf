//! The off-line list scheduler with shared recovery slack (Section 6.4).
//!
//! The paper adapts the scheduling strategy of [7, 15]: a static cyclic
//! schedule is built for the no-fault case and, after each process `P_i` on
//! node `N_j`, a *recovery slack* of `(t_ijh + μ_i) × k_j` is budgeted so
//! that up to `k_j` re-executions fit before the deadline. The slack is
//! **shared** between the processes on a node — slack regions overlap, and
//! the worst-case completion of process `P_i` is
//!
//! ```text
//! finish_i + k_j · max_{i' before or at i on N_j} (t_i'jh + μ_i')
//! ```
//!
//! (a process can only be delayed by re-executions of itself or of
//! processes scheduled before it on the same node). This bound reproduces
//! every schedulability verdict in the paper's worked examples (Fig. 3:
//! 680/340/340 ms against D = 360 ms; Fig. 4: variants a/e schedulable at
//! 330 ms, b/c/d unschedulable at 540/450/390 ms) and is provably sound
//! under node-local fault semantics — `ftes-faultsim`'s runtime simulator
//! checks it by injection (see the property tests).

use ftes_model::{
    Application, Architecture, BusSpec, Mapping, ModelError, ProcessId, TimeUs, TimingDb,
    TimingSource,
};

use crate::schedule::{MessageSlot, ProcessSlot, Schedule};

/// Builds the static schedule for one application iteration.
///
/// * `ks[j]` — re-execution budget of architecture node `j` (one entry per
///   node; obtained from the SFP analysis);
/// * `bus` — the bus model used for inter-node messages. Messages between
///   processes on the same node are delivered instantaneously at the
///   producer's completion.
///
/// The scheduler is a deterministic list scheduler: among ready processes
/// it always picks the one with the longest remaining path to a sink
/// (ties: smaller process index), places it as early as possible on its
/// mapped node, and accounts the recovery slack on top of the no-fault
/// placement.
///
/// # Errors
///
/// Returns model errors for invalid mappings, missing timing entries, or a
/// `ks` vector whose length differs from the architecture's node count.
///
/// # Examples
///
/// ```
/// use ftes_model::paper;
/// use ftes_sched::schedule;
///
/// let sys = paper::fig1_system();
/// let (arch, mapping) = paper::fig4_alternative('a');
/// let sched = schedule(
///     sys.application(), sys.timing(), &arch, &mapping, &[1, 1], sys.bus(),
/// )?;
/// assert_eq!(sched.wc_length(), ftes_model::TimeUs::from_ms(330));
/// assert!(sched.is_schedulable());
/// # Ok::<(), ftes_model::ModelError>(())
/// ```
pub fn schedule(
    app: &Application,
    timing: &TimingDb,
    arch: &Architecture,
    mapping: &Mapping,
    ks: &[u32],
    bus: BusSpec,
) -> Result<Schedule, ModelError> {
    schedule_with(app, timing, arch, mapping, ks, bus, SlackModel::Shared)
}

/// How recovery slack is accounted (ablation knob).
///
/// The paper's contribution uses **shared** slack; `PerProcess` is the
/// naive alternative in which every process reserves its own exclusive
/// `k_j · (t_ijh + μ_i)` window, delaying every later process on the node.
/// The `ablation` bench quantifies the schedulability the sharing buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SlackModel {
    /// The paper's shared slack: overlapping recovery windows, worst case
    /// `finish_i + k_j · prefix_max(t + μ)`.
    #[default]
    Shared,
    /// Exclusive per-process slack windows (no sharing).
    PerProcess,
}

/// [`schedule`] with an explicit [`SlackModel`].
///
/// # Errors
///
/// Same as [`schedule`].
pub fn schedule_with(
    app: &Application,
    timing: &TimingDb,
    arch: &Architecture,
    mapping: &Mapping,
    ks: &[u32],
    bus: BusSpec,
    slack: SlackModel,
) -> Result<Schedule, ModelError> {
    mapping.validate(app, arch, timing)?;
    Scheduler::new().run(app, timing, arch, mapping, ks, bus, slack)
}

/// The list scheduler with reusable intermediate buffers.
///
/// [`schedule`] / [`schedule_with`] construct one per call; hot loops (the
/// design-space exploration evaluates thousands of candidates per second)
/// keep one around and call [`run`](Scheduler::run) directly, skipping the
/// per-call mapping validation (the caller is expected to have validated)
/// and all intermediate allocations.
///
/// Every entry point resolves its per-process inputs (priorities, WCETs,
/// predecessor counts) if the caller has not, then runs the same single
/// list-scheduling walk; [`run`](Scheduler::run) records the slots along
/// the way, the verdict entry points record nothing. The ready process
/// picked next is always the one with the highest priority, ties going
/// to the smaller process index.
#[derive(Debug, Default)]
pub struct Scheduler {
    /// Per-process inputs resolved by [`run`](Scheduler::run) and
    /// [`run_light`](Scheduler::run_light).
    priorities: Vec<TimeUs>,
    wcets: Vec<TimeUs>,
    preds: Vec<usize>,
    walk: Walk,
}

/// The schedulability verdict of [`Scheduler::run_light`]: exactly the
/// two numbers the design-space search scores candidates by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleVerdict {
    /// Worst-case schedule length `SL` (equals
    /// [`Schedule::wc_length`](crate::Schedule::wc_length)).
    pub wc_length: TimeUs,
    /// Whether every graph meets its deadline (equals
    /// [`Schedule::is_schedulable`](crate::Schedule::is_schedulable)).
    pub schedulable: bool,
}

impl Scheduler {
    /// Creates a scheduler with empty buffers.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Builds the static schedule — the buffer-reusing core of
    /// [`schedule_with`], without the mapping validation (callers are
    /// expected to have validated; an invalid mapping panics on an
    /// out-of-range index instead of returning the validation error).
    ///
    /// # Errors
    ///
    /// Returns model errors for missing timing entries or a `ks` vector
    /// whose length differs from the architecture's node count.
    #[allow(clippy::too_many_arguments)]
    pub fn run<T: TimingSource>(
        &mut self,
        app: &Application,
        timing: &T,
        arch: &Architecture,
        mapping: &Mapping,
        ks: &[u32],
        bus: BusSpec,
        slack: SlackModel,
    ) -> Result<Schedule, ModelError> {
        self.resolve(app, timing, arch, mapping, ks)?;
        let mut slots = Slots::new(app);
        let verdict = self.walk.walk(
            app,
            mapping,
            ks,
            bus,
            slack,
            &self.priorities,
            &self.wcets,
            &self.preds,
            &mut slots,
        );
        Ok(Schedule::from_parts(
            slots.processes,
            slots.messages,
            ks.to_vec(),
            std::mem::take(&mut self.walk.graph_wc),
            verdict.schedulable,
        ))
    }

    /// The schedulability verdict only — the same list-scheduling walk as
    /// [`run`](Scheduler::run) without materializing the slot vectors, so
    /// a candidate probe allocates nothing. `wc_length` and `schedulable`
    /// are bit-identical to the full schedule's (the sched unit tests and
    /// the `incremental_differential` suite pin this).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Scheduler::run).
    #[allow(clippy::too_many_arguments)]
    pub fn run_light<T: TimingSource>(
        &mut self,
        app: &Application,
        timing: &T,
        arch: &Architecture,
        mapping: &Mapping,
        ks: &[u32],
        bus: BusSpec,
        slack: SlackModel,
    ) -> Result<ScheduleVerdict, ModelError> {
        self.resolve(app, timing, arch, mapping, ks)?;
        Ok(self.walk.walk(
            app,
            mapping,
            ks,
            bus,
            slack,
            &self.priorities,
            &self.wcets,
            &self.preds,
            &mut (),
        ))
    }

    /// The hot kernel of the incremental engine: the verdict walk of
    /// [`run_light`](Scheduler::run_light) over **pre-resolved**
    /// per-process priorities, WCETs (as maintained across probes by a
    /// [`PriorityCache`](crate::PriorityCache)) and predecessor counts
    /// (app-constant; precompute once per system), so no architecture or
    /// timing-table lookup is left to do. `ks.len()` defines the node
    /// count; `priorities`/`wcets` must equal what the full recompute
    /// would produce for the candidate and `preds[i]` must be
    /// `app.incoming(i).len()` — the verdict is then bit-identical to
    /// [`run_light`](Scheduler::run_light)'s (pinned by the sched unit
    /// tests and the hot-kernel differential suite).
    ///
    /// # Errors
    ///
    /// Infallible for consistent inputs; returns `Result` for signature
    /// symmetry with the self-resolving entry points.
    #[allow(clippy::too_many_arguments)]
    pub fn run_light_flat(
        &mut self,
        app: &Application,
        mapping: &Mapping,
        ks: &[u32],
        bus: BusSpec,
        slack: SlackModel,
        priorities: &[TimeUs],
        wcets: &[TimeUs],
        preds: &[usize],
    ) -> Result<ScheduleVerdict, ModelError> {
        Ok(self.walk.walk(
            app,
            mapping,
            ks,
            bus,
            slack,
            priorities,
            wcets,
            preds,
            &mut (),
        ))
    }

    /// Checks `ks` against the node count and fills the per-process
    /// priorities, WCETs and predecessor counts for the candidate.
    fn resolve<T: TimingSource>(
        &mut self,
        app: &Application,
        timing: &T,
        arch: &Architecture,
        mapping: &Mapping,
        ks: &[u32],
    ) -> Result<(), ModelError> {
        if ks.len() != arch.node_count() {
            return Err(ModelError::IncompleteMapping {
                expected: arch.node_count(),
                got: ks.len(),
            });
        }
        crate::priority::longest_path_to_sink_into(
            app,
            timing,
            arch,
            mapping,
            &mut self.priorities,
        )?;
        self.preds.clear();
        self.preds
            .extend(app.process_ids().map(|p| app.incoming(p).len()));
        self.wcets.clear();
        self.wcets.reserve(app.process_count());
        for p in app.process_ids() {
            let inst = arch.node(mapping.node_of(p));
            self.wcets
                .push(timing.wcet(p, inst.node_type, inst.hardening)?);
        }
        Ok(())
    }
}

/// Where the walk records its placements: `()` records nothing (the
/// verdict path), [`Slots`] writes every slot in place (the full
/// schedule). Monomorphized, so the verdict walk carries no slot code.
trait SlotSink {
    fn process(&mut self, slot: ProcessSlot);
    fn message(&mut self, slot: MessageSlot);
}

impl SlotSink for () {
    #[inline(always)]
    fn process(&mut self, _: ProcessSlot) {}
    #[inline(always)]
    fn message(&mut self, _: MessageSlot) {}
}

/// The full schedule's slot vectors, indexed by process and by message.
/// Every index is written exactly once: the DAG guarantees each process
/// and message schedules.
struct Slots {
    processes: Vec<ProcessSlot>,
    messages: Vec<MessageSlot>,
}

impl Slots {
    fn new(app: &Application) -> Self {
        let process = ProcessSlot {
            process: ProcessId::new(0),
            node: ftes_model::NodeId::new(0),
            start: TimeUs::ZERO,
            finish: TimeUs::ZERO,
            wc_end: TimeUs::ZERO,
        };
        let message = MessageSlot {
            message: ftes_model::MessageId::new(0),
            send: TimeUs::ZERO,
            arrival: TimeUs::ZERO,
            over_bus: false,
        };
        Slots {
            processes: vec![process; app.process_count()],
            messages: vec![message; app.message_count()],
        }
    }
}

impl SlotSink for Slots {
    #[inline]
    fn process(&mut self, slot: ProcessSlot) {
        self.processes[slot.process.index()] = slot;
    }
    #[inline]
    fn message(&mut self, slot: MessageSlot) {
        self.messages[slot.message.index()] = slot;
    }
}

/// Removes and returns the ready process to place next: the highest
/// priority, ties going to the smaller process index.
#[inline]
fn pop_highest(ready: &mut Vec<ProcessId>, priorities: &[TimeUs]) -> Option<ProcessId> {
    let (idx, _) = ready.iter().enumerate().max_by(|(_, a), (_, b)| {
        priorities[a.index()]
            .cmp(&priorities[b.index()])
            .then(b.index().cmp(&a.index()))
    })?;
    Some(ready.swap_remove(idx))
}

/// The reusable buffers of one list-scheduling walk.
#[derive(Debug, Default)]
struct Walk {
    remaining_preds: Vec<usize>,
    ready: Vec<ProcessId>,
    node_available: Vec<TimeUs>,
    node_prefix_max: Vec<TimeUs>,
    node_bus_busy: Vec<TimeUs>,
    msg_arrival: Vec<TimeUs>,
    graph_wc: Vec<TimeUs>,
}

impl Walk {
    /// The list-scheduling walk: pops ready processes in priority order,
    /// places each as early as possible on its node, accounts its
    /// recovery slack, prices its outgoing messages and releases its
    /// successors. Leaves the per-graph worst-case completions in
    /// `graph_wc` and returns the verdict.
    #[allow(clippy::too_many_arguments)]
    fn walk<S: SlotSink>(
        &mut self,
        app: &Application,
        mapping: &Mapping,
        ks: &[u32],
        bus: BusSpec,
        slack: SlackModel,
        priorities: &[TimeUs],
        wcets: &[TimeUs],
        preds: &[usize],
        sink: &mut S,
    ) -> ScheduleVerdict {
        debug_assert_eq!(priorities.len(), app.process_count());
        debug_assert_eq!(wcets.len(), app.process_count());
        debug_assert_eq!(preds.len(), app.process_count());

        let Walk {
            remaining_preds,
            ready,
            node_available,
            node_prefix_max,
            node_bus_busy,
            msg_arrival,
            graph_wc,
        } = self;
        remaining_preds.clear();
        remaining_preds.extend_from_slice(preds);
        ready.clear();
        // One allocation for a fresh scheduler instead of a growth series.
        ready.reserve(app.process_count());
        ready.extend(app.process_ids().filter(|p| preds[p.index()] == 0));

        let node_count = ks.len();
        node_available.clear();
        node_available.resize(node_count, TimeUs::ZERO);
        // Running maximum of (t_ijh + μ_i) over the processes placed so far
        // on each node: a process can only be delayed by re-executions of
        // itself or of processes scheduled before it, so its worst-case end
        // is finish + k_j · prefix_max(t + μ). This is the shared-slack
        // bound.
        node_prefix_max.clear();
        node_prefix_max.resize(node_count, TimeUs::ZERO);
        // Serialization point per sender node for bus transmissions: a
        // node's network interface sends one message at a time.
        node_bus_busy.clear();
        node_bus_busy.resize(node_count, TimeUs::ZERO);
        // Every message's arrival is written when its producer schedules,
        // strictly before any consumer reads it (precedence), so stale
        // values from the previous walk are never observed — skip the
        // zero-fill unless the buffer changes size.
        if msg_arrival.len() != app.message_count() {
            msg_arrival.clear();
            msg_arrival.resize(app.message_count(), TimeUs::ZERO);
        }
        graph_wc.clear();
        graph_wc.resize(app.graph_count(), TimeUs::ZERO);
        let mut scheduled = 0usize;

        while let Some(p) = pop_highest(ready, priorities) {
            let node = mapping.node_of(p);
            let wcet = wcets[p.index()];

            // Earliest data-ready time over all inputs.
            let mut data_ready = TimeUs::ZERO;
            for &m in app.incoming(p) {
                data_ready = data_ready.max(msg_arrival[m.index()]);
            }
            let start = data_ready.max(node_available[node.index()]);
            let finish = start + wcet;
            let k = ks[node.index()] as i64;
            let proc = app.process(p);
            let mu = proc.mu();
            let own_slack = (wcet + mu).times(k);
            let wc_end = match slack {
                SlackModel::Shared => {
                    let prefix = node_prefix_max[node.index()].max(wcet + mu);
                    node_prefix_max[node.index()] = prefix;
                    finish + prefix.times(k)
                }
                SlackModel::PerProcess => finish + own_slack,
            };
            let g = proc.graph().index();
            graph_wc[g] = graph_wc[g].max(wc_end);
            node_available[node.index()] = match slack {
                SlackModel::Shared => finish,
                // Exclusive windows: the next process starts after the slack.
                SlackModel::PerProcess => finish + own_slack,
            };
            sink.process(ProcessSlot {
                process: p,
                node,
                start,
                finish,
                wc_end,
            });
            scheduled += 1;

            // Emit outputs and release successors.
            for &m in app.outgoing(p) {
                let msg = app.message(m);
                let d = msg.dst();
                let (send, arrival, over_bus) = if mapping.node_of(d) == node {
                    (finish, finish, false)
                } else {
                    let send = finish.max(node_bus_busy[node.index()]);
                    let arrival = bus.arrival_time(node, node_count, send, msg.tx_time());
                    node_bus_busy[node.index()] = arrival;
                    (send, arrival, true)
                };
                msg_arrival[m.index()] = arrival;
                sink.message(MessageSlot {
                    message: m,
                    send,
                    arrival,
                    over_bus,
                });
                remaining_preds[d.index()] -= 1;
                if remaining_preds[d.index()] == 0 {
                    ready.push(d);
                }
            }
        }
        debug_assert_eq!(scheduled, app.process_count(), "DAG schedules all");

        let mut verdict = ScheduleVerdict {
            wc_length: TimeUs::ZERO,
            schedulable: true,
        };
        for (g, &wc) in app.graph_ids().zip(graph_wc.iter()) {
            verdict.wc_length = verdict.wc_length.max(wc);
            verdict.schedulable &= wc <= app.graph(g).deadline();
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::{paper, NodeId, NodeTypeId, ProcessId};

    fn fig3_schedule(h: u8, k: u32) -> Schedule {
        let sys = paper::fig3_system();
        let mut arch = Architecture::with_min_hardening(&[NodeTypeId::new(0)]);
        arch.set_hardening(NodeId::new(0), ftes_model::HLevel::new(h).unwrap());
        let mapping = Mapping::all_on(1, NodeId::new(0));
        schedule(
            sys.application(),
            sys.timing(),
            &arch,
            &mapping,
            &[k],
            sys.bus(),
        )
        .unwrap()
    }

    #[test]
    fn fig3_worst_case_lengths_match_paper() {
        // Fig. 3a: h1, k=6 → 80 + 6·(80+20) = 680 > 360 (unschedulable).
        let a = fig3_schedule(1, 6);
        assert_eq!(a.wc_length(), TimeUs::from_ms(680));
        assert!(!a.is_schedulable());
        // Fig. 3b: h2, k=2 → 100 + 2·120 = 340 ≤ 360 (schedulable).
        let b = fig3_schedule(2, 2);
        assert_eq!(b.wc_length(), TimeUs::from_ms(340));
        assert!(b.is_schedulable());
        // Fig. 3c: h3, k=1 → 160 + 180 = 340 ≤ 360; the paper notes it
        // completes at the same time as the h2 solution.
        let c = fig3_schedule(3, 1);
        assert_eq!(c.wc_length(), TimeUs::from_ms(340));
        assert!(c.is_schedulable());
        assert_eq!(b.wc_length(), c.wc_length());
    }

    fn fig4_schedule(variant: char, ks: &[u32]) -> Schedule {
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative(variant);
        schedule(
            sys.application(),
            sys.timing(),
            &arch,
            &mapping,
            ks,
            sys.bus(),
        )
        .unwrap()
    }

    #[test]
    fn fig4_schedulability_matches_paper() {
        // k budgets from the SFP analysis: a → (1,1); b, c → 2; d, e → 0.
        let a = fig4_schedule('a', &[1, 1]);
        assert_eq!(a.wc_length(), TimeUs::from_ms(330));
        assert!(a.is_schedulable());

        let b = fig4_schedule('b', &[2]);
        assert_eq!(b.wc_length(), TimeUs::from_ms(540));
        assert!(!b.is_schedulable());

        let c = fig4_schedule('c', &[2]);
        assert_eq!(c.wc_length(), TimeUs::from_ms(450));
        assert!(!c.is_schedulable());

        let d = fig4_schedule('d', &[0]);
        assert_eq!(d.wc_length(), TimeUs::from_ms(390));
        assert!(!d.is_schedulable());

        let e = fig4_schedule('e', &[0]);
        assert_eq!(e.wc_length(), TimeUs::from_ms(330));
        assert!(e.is_schedulable());
    }

    #[test]
    fn fig4a_no_fault_timeline() {
        let sched = fig4_schedule('a', &[1, 1]);
        let slot = |i: u32| sched.process_slot(ProcessId::new(i));
        // N1: P1 0–75, P2 75–165 (wc 270); N2: P3 75–135, P4 165–240 (wc 330).
        assert_eq!(slot(0).start, TimeUs::ZERO);
        assert_eq!(slot(0).finish, TimeUs::from_ms(75));
        assert_eq!(slot(1).start, TimeUs::from_ms(75));
        assert_eq!(slot(1).finish, TimeUs::from_ms(165));
        assert_eq!(slot(1).wc_end, TimeUs::from_ms(270));
        assert_eq!(slot(2).start, TimeUs::from_ms(75));
        assert_eq!(slot(2).finish, TimeUs::from_ms(135));
        assert_eq!(slot(3).start, TimeUs::from_ms(165));
        assert_eq!(slot(3).finish, TimeUs::from_ms(240));
        assert_eq!(slot(3).wc_end, TimeUs::from_ms(330));
        assert_eq!(sched.makespan(), TimeUs::from_ms(240));
    }

    #[test]
    fn invariants_hold_on_paper_examples() {
        let sys = paper::fig1_system();
        for (v, ks) in [('a', vec![1, 1]), ('b', vec![2]), ('e', vec![0])] {
            let (arch, mapping) = paper::fig4_alternative(v);
            let sched = schedule(
                sys.application(),
                sys.timing(),
                &arch,
                &mapping,
                &ks,
                sys.bus(),
            )
            .unwrap();
            assert_eq!(sched.check_invariants(sys.application(), &mapping), None);
        }
    }

    #[test]
    fn messages_crossing_nodes_use_the_bus() {
        let sched = fig4_schedule('a', &[1, 1]);
        // m2 (P1→P3) and m3 (P2→P4) cross nodes; m1, m4 stay local.
        assert!(!sched.message_slot(ftes_model::MessageId::new(0)).over_bus);
        assert!(sched.message_slot(ftes_model::MessageId::new(1)).over_bus);
        assert!(sched.message_slot(ftes_model::MessageId::new(2)).over_bus);
        assert!(!sched.message_slot(ftes_model::MessageId::new(3)).over_bus);
    }

    #[test]
    fn ks_length_is_validated() {
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        assert!(schedule(
            sys.application(),
            sys.timing(),
            &arch,
            &mapping,
            &[1],
            sys.bus()
        )
        .is_err());
    }

    #[test]
    fn run_light_verdict_matches_full_schedule() {
        // The light walk must agree bit for bit with the materialized
        // schedule on every paper example, under both slack models.
        let fig1 = paper::fig1_system();
        let fig3 = paper::fig3_system();
        let cases: Vec<(&ftes_model::System, Architecture, Mapping, Vec<u32>)> = vec![
            {
                let (a, m) = paper::fig4_alternative('a');
                (&fig1, a, m, vec![1, 1])
            },
            {
                let (a, m) = paper::fig4_alternative('b');
                (&fig1, a, m, vec![2])
            },
            {
                let (a, m) = paper::fig4_alternative('d');
                (&fig1, a, m, vec![0])
            },
            {
                let (a, m) = paper::fig4_alternative('e');
                (&fig1, a, m, vec![0])
            },
            (
                &fig3,
                Architecture::with_min_hardening(&[NodeTypeId::new(0)]),
                Mapping::all_on(1, NodeId::new(0)),
                vec![6],
            ),
        ];
        let mut scheduler = Scheduler::new();
        for (sys, arch, mapping, ks) in cases {
            for slack in [SlackModel::Shared, SlackModel::PerProcess] {
                let full = scheduler
                    .run(
                        sys.application(),
                        sys.timing(),
                        &arch,
                        &mapping,
                        &ks,
                        sys.bus(),
                        slack,
                    )
                    .unwrap();
                let light = scheduler
                    .run_light(
                        sys.application(),
                        sys.timing(),
                        &arch,
                        &mapping,
                        &ks,
                        sys.bus(),
                        slack,
                    )
                    .unwrap();
                assert_eq!(light.wc_length, full.wc_length());
                assert_eq!(light.schedulable, full.is_schedulable());
            }
        }
    }

    #[test]
    fn flat_timing_produces_identical_schedules() {
        use ftes_model::FlatTiming;
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let flat = FlatTiming::new(sys.timing());
        let mut scheduler = Scheduler::new();
        let via_db = scheduler
            .run(
                sys.application(),
                sys.timing(),
                &arch,
                &mapping,
                &[1, 1],
                sys.bus(),
                SlackModel::Shared,
            )
            .unwrap();
        let via_flat = scheduler
            .run(
                sys.application(),
                &flat,
                &arch,
                &mapping,
                &[1, 1],
                sys.bus(),
                SlackModel::Shared,
            )
            .unwrap();
        assert_eq!(via_db, via_flat);
    }

    #[test]
    fn gantt_renders_every_node_and_bus() {
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let sched = schedule(
            sys.application(),
            sys.timing(),
            &arch,
            &mapping,
            &[1, 1],
            sys.bus(),
        )
        .unwrap();
        let gantt = sched.render_gantt(sys.application(), arch.node_count());
        assert!(gantt.contains("n1:"));
        assert!(gantt.contains("n2:"));
        assert!(gantt.contains("bus:"));
        assert!(gantt.contains("P4"));
    }

    #[test]
    fn per_process_slack_is_never_shorter_than_shared() {
        let sys = paper::fig1_system();
        for (v, ks) in [('a', vec![1u32, 1]), ('b', vec![2]), ('e', vec![0])] {
            let (arch, mapping) = paper::fig4_alternative(v);
            let shared = schedule(
                sys.application(),
                sys.timing(),
                &arch,
                &mapping,
                &ks,
                sys.bus(),
            )
            .unwrap();
            let naive = schedule_with(
                sys.application(),
                sys.timing(),
                &arch,
                &mapping,
                &ks,
                sys.bus(),
                SlackModel::PerProcess,
            )
            .unwrap();
            assert!(naive.wc_length() >= shared.wc_length(), "variant {v}");
            assert_eq!(naive.check_invariants(sys.application(), &mapping), None);
        }
    }

    #[test]
    fn sharing_is_what_makes_fig4a_schedulable() {
        // Without sharing, the Fig. 4a recovery slack (two exclusive
        // windows on N1: 90 and 105 ms) pushes the worst case past 360 ms.
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let naive = schedule_with(
            sys.application(),
            sys.timing(),
            &arch,
            &mapping,
            &[1, 1],
            sys.bus(),
            SlackModel::PerProcess,
        )
        .unwrap();
        assert!(!naive.is_schedulable(), "SL = {}", naive.wc_length());
    }

    #[test]
    fn tdma_bus_delays_cross_node_messages() {
        use ftes_model::BusSpec;
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        // Give messages a nonzero size via TDMA slots of 5 ms: m2 from N1
        // (slot 0) ready at 75 departs in the next round.
        let sched = schedule(
            sys.application(),
            sys.timing(),
            &arch,
            &mapping,
            &[1, 1],
            BusSpec::tdma(TimeUs::from_ms(5)),
        )
        .unwrap();
        // tx_time of fig1 messages is zero, so TDMA passes them through
        // instantly; the schedule must equal the ideal-bus one.
        assert_eq!(sched.wc_length(), TimeUs::from_ms(330));
    }

    /// A two-node system whose messages have real transmission times, so
    /// TDMA slot alignment actually shapes the schedule (unlike the paper
    /// examples, whose message delays are folded into the WCETs).
    fn tdma_test_system() -> (
        ftes_model::Application,
        ftes_model::TimingDb,
        Architecture,
        Mapping,
    ) {
        use ftes_model::{
            ApplicationBuilder, Cost, ExecSpec, HLevel, NodeType, NodeTypeId, Platform, Prob,
            TimingDb,
        };
        let mut b = ApplicationBuilder::new("tdma");
        let g = b.add_graph("G1", TimeUs::from_ms(200));
        let p1 = b.add_process(g, TimeUs::from_ms(1));
        let p2 = b.add_process(g, TimeUs::from_ms(1));
        let p3 = b.add_process(g, TimeUs::from_ms(1));
        // Two cross-node messages from the same sender (serialized on its
        // interface) plus a fan-in edge.
        b.add_message(p1, p2, TimeUs::from_ms(3)).unwrap();
        b.add_message(p1, p3, TimeUs::from_ms(1)).unwrap();
        b.add_message(p2, p3, TimeUs::from_ms(1)).unwrap();
        let app = b.build().unwrap();
        let platform =
            Platform::new(vec![NodeType::new("N", vec![Cost::new(1)], 1.0).unwrap()]).unwrap();
        let mut timing = TimingDb::new(3, &platform);
        let spec = ExecSpec::new(TimeUs::from_ms(10), Prob::new(1e-5).unwrap()).unwrap();
        for p in [p1, p2, p3] {
            timing
                .set(p, NodeTypeId::new(0), HLevel::MIN, spec)
                .unwrap();
        }
        let arch = Architecture::with_min_hardening(&[NodeTypeId::new(0), NodeTypeId::new(0)]);
        let mut mapping = Mapping::all_on(3, NodeId::new(0));
        mapping.assign(ProcessId::new(1), NodeId::new(1));
        (app, timing, arch, mapping)
    }

    #[test]
    fn tdma_slot_alignment_shapes_the_schedule() {
        use ftes_model::{BusSpec, MessageId};
        let (app, timing, arch, mapping) = tdma_test_system();
        let bus = BusSpec::tdma(TimeUs::from_ms(2));
        let sched = schedule(&app, &timing, &arch, &mapping, &[0, 0], bus).unwrap();
        // P1 (node 0) finishes at 10 ms. m1 (P1→P2, 3 ms) needs 2 slots of
        // node 0 (slots at 12–14 and 16–18): arrival 18 ms — exactly what
        // BusSpec::arrival_time prices.
        let m1 = sched.message_slot(MessageId::new(0));
        assert!(m1.over_bus);
        assert_eq!(
            m1.arrival,
            bus.arrival_time(NodeId::new(0), 2, TimeUs::from_ms(10), TimeUs::from_ms(3))
        );
        assert_eq!(m1.arrival, TimeUs::from_ms(18));
        // m2 (P1→P3) stays on node 0: delivered at P1's finish.
        assert!(!sched.message_slot(MessageId::new(1)).over_bus);
        // m3 (P2→P3, node 1 → node 0) waits for node 1's slot.
        let m3 = sched.message_slot(MessageId::new(2));
        assert!(m3.over_bus);
        assert_eq!(
            m3.arrival,
            bus.arrival_time(NodeId::new(1), 2, m3.send, TimeUs::from_ms(1))
        );
        // The ideal bus would finish strictly earlier.
        let ideal = schedule(&app, &timing, &arch, &mapping, &[0, 0], BusSpec::ideal()).unwrap();
        assert!(ideal.wc_length() < sched.wc_length());
    }

    #[test]
    fn equal_priorities_start_in_process_index_order() {
        // Three independent processes with equal WCETs on one node all
        // have the same priority, so the tie rule alone orders them: the
        // smaller process index starts first, under both slack models.
        use ftes_model::{
            ApplicationBuilder, Cost, ExecSpec, HLevel, NodeType, Platform, Prob, TimingDb,
        };
        let mut b = ApplicationBuilder::new("ties");
        let g = b.add_graph("G1", TimeUs::from_ms(100));
        let procs: Vec<ProcessId> = (0..3)
            .map(|_| b.add_process(g, TimeUs::from_ms(1)))
            .collect();
        let app = b.build().unwrap();
        let platform =
            Platform::new(vec![NodeType::new("N", vec![Cost::new(1)], 1.0).unwrap()]).unwrap();
        let mut timing = TimingDb::new(3, &platform);
        let spec = ExecSpec::new(TimeUs::from_ms(10), Prob::new(1e-5).unwrap()).unwrap();
        for &p in &procs {
            timing
                .set(p, NodeTypeId::new(0), HLevel::MIN, spec)
                .unwrap();
        }
        let arch = Architecture::with_min_hardening(&[NodeTypeId::new(0)]);
        let mapping = Mapping::all_on(3, NodeId::new(0));
        let mut scheduler = Scheduler::new();
        for slack in [SlackModel::Shared, SlackModel::PerProcess] {
            let sched = scheduler
                .run(
                    &app,
                    &timing,
                    &arch,
                    &mapping,
                    &[1],
                    BusSpec::ideal(),
                    slack,
                )
                .unwrap();
            let starts: Vec<TimeUs> = procs.iter().map(|&p| sched.process_slot(p).start).collect();
            assert_eq!(starts[0], TimeUs::ZERO, "{slack:?}");
            assert!(
                starts.windows(2).all(|w| w[0] < w[1]),
                "{slack:?}: {starts:?}"
            );
        }
    }

    #[test]
    fn run_light_flat_matches_run_light_via_cache() {
        // Feeding the flat walk through a PriorityCache across a probe
        // sequence must give the same verdicts as the self-resolving
        // run_light at every step.
        use crate::priority::PriorityCache;
        use ftes_model::HLevel;
        let sys = paper::fig1_system();
        let app = sys.application();
        let (mut arch, mut mapping) = paper::fig4_alternative('a');
        let mut scheduler = Scheduler::new();
        let mut cache = PriorityCache::new();
        for (proc_i, node_i, level) in [
            (1u32, 1u32, 2u8),
            (1, 0, 2),
            (2, 1, 3),
            (3, 0, 1),
            (0, 1, 2),
        ] {
            mapping.assign(ProcessId::new(proc_i), NodeId::new(node_i));
            arch.set_hardening(NodeId::new(node_i), HLevel::new(level).unwrap());
            let fresh = scheduler
                .run_light(
                    app,
                    sys.timing(),
                    &arch,
                    &mapping,
                    &[1, 1],
                    sys.bus(),
                    SlackModel::Shared,
                )
                .unwrap();
            cache.sync(app, sys.timing(), &arch, &mapping).unwrap();
            let prios = cache.priorities().to_vec();
            let wcets: Vec<_> = app
                .process_ids()
                .map(|p| {
                    let inst = arch.node(mapping.node_of(p));
                    sys.timing()
                        .wcet(p, inst.node_type, inst.hardening)
                        .unwrap()
                })
                .collect();
            let preds: Vec<usize> = app.process_ids().map(|p| app.incoming(p).len()).collect();
            let cached = scheduler
                .run_light_flat(
                    app,
                    &mapping,
                    &[1, 1],
                    sys.bus(),
                    SlackModel::Shared,
                    &prios,
                    &wcets,
                    &preds,
                )
                .unwrap();
            assert_eq!(fresh, cached, "probe ({proc_i},{node_i},{level})");
            // The cache's WCET mirror must equal fresh lookups.
            for p in app.process_ids() {
                let inst = arch.node(mapping.node_of(p));
                assert_eq!(
                    wcets[p.index()],
                    sys.timing()
                        .wcet(p, inst.node_type, inst.hardening)
                        .unwrap()
                );
            }
        }
    }

    #[test]
    fn run_light_matches_run_under_tdma_with_real_tx_times() {
        // The regression pin for the light walk's bus pricing: across slot
        // lengths, budgets and slack models, the allocation-free verdict
        // must equal the materialized schedule bit for bit on a system
        // where TDMA slot alignment genuinely moves messages.
        use ftes_model::BusSpec;
        let (app, timing, arch, mapping) = tdma_test_system();
        let mut scheduler = Scheduler::new();
        for slot_ms in [1, 2, 3, 5, 7] {
            for ks in [[0u32, 0], [1, 0], [2, 1]] {
                for slack in [SlackModel::Shared, SlackModel::PerProcess] {
                    let bus = BusSpec::tdma(TimeUs::from_ms(slot_ms));
                    let full = scheduler
                        .run(&app, &timing, &arch, &mapping, &ks, bus, slack)
                        .unwrap();
                    let light = scheduler
                        .run_light(&app, &timing, &arch, &mapping, &ks, bus, slack)
                        .unwrap();
                    assert_eq!(
                        light.wc_length,
                        full.wc_length(),
                        "slot {slot_ms}ms ks {ks:?} {slack:?}"
                    );
                    assert_eq!(light.schedulable, full.is_schedulable());
                }
            }
        }
    }
}
