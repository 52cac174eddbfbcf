//! Static schedules with recovery slack.

use ftes_model::{Application, GraphId, Mapping, MessageId, NodeId, ProcessId, TimeUs};
use serde::{Deserialize, Serialize};

/// Placement of one process in the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessSlot {
    /// The scheduled process.
    pub process: ProcessId,
    /// The executing node.
    pub node: NodeId,
    /// No-fault start time.
    pub start: TimeUs,
    /// No-fault completion time (`start + t_ijh`).
    pub finish: TimeUs,
    /// Worst-case completion including this process's recovery slack:
    /// `finish + k_j · (t_ijh + μ_i)`. Slack regions of processes on the
    /// same node may overlap — that is the paper's slack *sharing*.
    pub wc_end: TimeUs,
}

/// Placement of one message in the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageSlot {
    /// The scheduled message.
    pub message: MessageId,
    /// When the message is sent (the sender's no-fault completion, possibly
    /// delayed by bus contention).
    pub send: TimeUs,
    /// When the payload is available at the destination node.
    pub arrival: TimeUs,
    /// `true` if the message crosses nodes and therefore occupies the bus.
    pub over_bus: bool,
}

/// A complete static schedule for one application iteration.
///
/// Produced by [`schedule`](crate::schedule); immutable afterwards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    processes: Vec<ProcessSlot>,
    messages: Vec<MessageSlot>,
    ks: Vec<u32>,
    makespan: TimeUs,
    wc_length: TimeUs,
    graph_wc: Vec<TimeUs>,
    schedulable: bool,
}

impl Schedule {
    pub(crate) fn from_parts(
        processes: Vec<ProcessSlot>,
        messages: Vec<MessageSlot>,
        ks: Vec<u32>,
        graph_wc: Vec<TimeUs>,
        schedulable: bool,
    ) -> Self {
        let makespan = processes
            .iter()
            .map(|s| s.finish)
            .max()
            .unwrap_or(TimeUs::ZERO);
        let wc_length = processes
            .iter()
            .map(|s| s.wc_end)
            .max()
            .unwrap_or(TimeUs::ZERO);
        Schedule {
            processes,
            messages,
            ks,
            makespan,
            wc_length,
            graph_wc,
            schedulable,
        }
    }

    /// The slot of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn process_slot(&self, p: ProcessId) -> ProcessSlot {
        self.processes[p.index()]
    }

    /// All process slots, indexed by process.
    pub fn process_slots(&self) -> &[ProcessSlot] {
        &self.processes
    }

    /// The slot of message `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn message_slot(&self, m: MessageId) -> MessageSlot {
        self.messages[m.index()]
    }

    /// All message slots, indexed by message.
    pub fn message_slots(&self) -> &[MessageSlot] {
        &self.messages
    }

    /// The re-execution budgets `k_j` the slack was sized for.
    pub fn ks(&self) -> &[u32] {
        &self.ks
    }

    /// No-fault makespan (latest no-fault completion).
    pub fn makespan(&self) -> TimeUs {
        self.makespan
    }

    /// Worst-case schedule length `SL` including recovery slack — the value
    /// compared against the deadline in the paper's Fig. 5 (`SL ≤ D`).
    pub fn wc_length(&self) -> TimeUs {
        self.wc_length
    }

    /// Worst-case completion of a task graph (max `wc_end` over members).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn graph_wc_finish(&self, g: GraphId) -> TimeUs {
        self.graph_wc[g.index()]
    }

    /// `true` if every task graph meets its deadline in the worst case.
    pub fn is_schedulable(&self) -> bool {
        self.schedulable
    }

    /// Checks structural invariants of the schedule against the model:
    ///
    /// * every process starts at or after the arrival of all its inputs;
    /// * process executions on the same node do not overlap (no-fault
    ///   intervals);
    /// * messages are sent no earlier than the producer finishes and arrive
    ///   no earlier than sent;
    /// * `wc_end ≥ finish ≥ start ≥ 0`.
    ///
    /// Returns a human-readable description of the first violation, if any.
    /// Used by the test-suite and by debug assertions in the optimizer.
    pub fn check_invariants(&self, app: &Application, mapping: &Mapping) -> Option<String> {
        for p in app.process_ids() {
            let slot = self.processes[p.index()];
            if slot.start.is_negative() || slot.finish < slot.start || slot.wc_end < slot.finish {
                return Some(format!("{p} has inconsistent times {slot:?}"));
            }
            if slot.node != mapping.node_of(p) {
                return Some(format!(
                    "{p} scheduled on {} but mapped on {}",
                    slot.node,
                    mapping.node_of(p)
                ));
            }
            for &m in app.incoming(p) {
                let ms = self.messages[m.index()];
                if ms.arrival > slot.start {
                    return Some(format!(
                        "{p} starts at {} before input {m} arrives at {}",
                        slot.start, ms.arrival
                    ));
                }
            }
            for &m in app.outgoing(p) {
                let ms = self.messages[m.index()];
                if ms.send < slot.finish {
                    return Some(format!(
                        "{m} sent at {} before producer {p} finishes at {}",
                        ms.send, slot.finish
                    ));
                }
                if ms.arrival < ms.send {
                    return Some(format!("{m} arrives before being sent"));
                }
            }
        }
        // Node exclusivity on the no-fault intervals.
        let mut by_node: std::collections::BTreeMap<NodeId, Vec<(TimeUs, TimeUs, ProcessId)>> =
            std::collections::BTreeMap::new();
        for p in app.process_ids() {
            let s = self.processes[p.index()];
            by_node
                .entry(s.node)
                .or_default()
                .push((s.start, s.finish, p));
        }
        for (node, mut spans) in by_node {
            spans.sort();
            for w in spans.windows(2) {
                let (_, f1, p1) = w[0];
                let (s2, _, p2) = w[1];
                if s2 < f1 {
                    return Some(format!("{p1} and {p2} overlap on {node}"));
                }
            }
        }
        None
    }

    /// Renders a compact textual Gantt chart (one line per node plus one
    /// for the bus), for examples and debugging output.
    pub fn render_gantt(&self, app: &Application, n_nodes: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for n in 0..n_nodes {
            let node = NodeId::new(n as u32);
            let mut slots: Vec<&ProcessSlot> =
                self.processes.iter().filter(|s| s.node == node).collect();
            slots.sort_by_key(|s| s.start);
            let _ = write!(out, "{node}: ");
            for s in slots {
                let _ = write!(
                    out,
                    "[{} {}..{}|wc {}] ",
                    app.process(s.process).name(),
                    s.start,
                    s.finish,
                    s.wc_end
                );
            }
            out.push('\n');
        }
        let mut bus: Vec<&MessageSlot> = self.messages.iter().filter(|m| m.over_bus).collect();
        bus.sort_by_key(|m| m.send);
        let _ = write!(out, "bus: ");
        for m in bus {
            let _ = write!(
                out,
                "[{} {}..{}] ",
                app.message(m.message).name(),
                m.send,
                m.arrival
            );
        }
        out.push('\n');
        out
    }
}
