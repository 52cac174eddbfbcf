//! Critical-path priorities for list scheduling.
//!
//! The mapping heuristic of the paper (Section 6.2) focuses on processes on
//! the critical path; the off-line scheduler uses the classic
//! *longest-path-to-sink* priority: the length of the longest chain of
//! WCETs (plus message transmission times for inter-node edges) from a
//! process to any sink of its graph, evaluated for the WCETs of the current
//! architecture/mapping.

use ftes_model::{
    Application, Architecture, Mapping, ModelError, NodeId, NodeInstance, ProcessId, TimeUs,
    TimingSource,
};

/// Computes, for every process, the longest path from the start of that
/// process to the end of any sink, using the WCETs of the node each process
/// is mapped on (at the node's hardening level). Message transmission times
/// are counted only for edges crossing nodes.
///
/// Returns a vector indexed by process index.
///
/// # Errors
///
/// Returns [`ModelError::MissingTiming`] when a process has no WCET on its
/// assigned node type/level.
pub fn longest_path_to_sink<T: TimingSource>(
    app: &Application,
    timing: &T,
    arch: &Architecture,
    mapping: &Mapping,
) -> Result<Vec<TimeUs>, ModelError> {
    let mut lp = Vec::new();
    longest_path_to_sink_into(app, timing, arch, mapping, &mut lp)?;
    Ok(lp)
}

/// [`longest_path_to_sink`] into a caller-provided buffer (cleared and
/// refilled), so hot loops can reuse the allocation.
///
/// # Errors
///
/// Same as [`longest_path_to_sink`].
pub(crate) fn longest_path_to_sink_into<T: TimingSource>(
    app: &Application,
    timing: &T,
    arch: &Architecture,
    mapping: &Mapping,
    lp: &mut Vec<TimeUs>,
) -> Result<(), ModelError> {
    lp.clear();
    lp.resize(app.process_count(), TimeUs::ZERO);
    // Walk the topological order backwards: successors are finalized first.
    for &p in app.topological_order().iter().rev() {
        let inst = arch.node(mapping.node_of(p));
        let wcet = timing.wcet(p, inst.node_type, inst.hardening)?;
        lp[p.index()] = wcet + longest_tail(app, mapping, p, lp);
    }
    Ok(())
}

/// The longest-path step: the longest path that follows `p` — the max
/// over `p`'s outgoing messages of the transmission time (counted only
/// when the message crosses nodes) plus the successor's path in `lp`.
#[inline]
fn longest_tail(app: &Application, mapping: &Mapping, p: ProcessId, lp: &[TimeUs]) -> TimeUs {
    let node = mapping.node_of(p);
    let mut best = TimeUs::ZERO;
    for &m in app.outgoing(p) {
        let msg = app.message(m);
        let succ = msg.dst();
        let tx = if mapping.node_of(succ) == node {
            TimeUs::ZERO
        } else {
            msg.tx_time()
        };
        best = best.max(tx + lp[succ.index()]);
    }
    best
}

/// Counters of a [`PriorityCache`]: how much DAG work the delta updates
/// saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PriorityStats {
    /// Syncs that recomputed the whole DAG (cold start, node-count or
    /// process-count change).
    pub full_syncs: u64,
    /// Syncs resolved by diffing against the previously synced candidate.
    pub delta_syncs: u64,
    /// Per-process priority values recomputed.
    pub recomputed: u64,
    /// Per-process recomputes avoided (value provably unchanged).
    pub reused: u64,
}

/// Incrementally maintained longest-path-to-sink priorities.
///
/// The list-scheduler priorities depend only on `(mapping, architecture,
/// timing)` — not on the re-execution budgets — so consecutive probes of
/// the design-space search (a hardening step touches one node, a tabu
/// move re-maps one process) mostly reprice a *cone* of the DAG, not all
/// of it. [`sync`](PriorityCache::sync) diffs the candidate against the
/// previously synced one, seeds the processes whose own WCET or outgoing
/// transmission classification changed, and propagates upwards through
/// the reverse topological order only while values actually change.
///
/// The arithmetic is exact integer arithmetic, so a delta sync is
/// **bit-identical** to a full recompute (`longest_path_to_sink`); the
/// sched unit tests and the hot-kernel differential suite pin this.
#[derive(Debug, Default)]
pub struct PriorityCache {
    lp: Vec<TimeUs>,
    /// Snapshot of the synced candidate.
    nodes: Vec<NodeInstance>,
    map: Vec<NodeId>,
    synced: bool,
    /// Scratch: per-process dirty / value-changed flags, and the WCET
    /// buffer of the [`sync`](PriorityCache::sync) convenience wrapper.
    dirty: Vec<bool>,
    changed: Vec<bool>,
    wcet_scratch: Vec<TimeUs>,
    stats: PriorityStats,
}

/// Above this process count, a whole-node WCET change (hardening step)
/// still takes the cone path; below it, the tight full pass is cheaper
/// than per-process bookkeeping (a contiguous DAG pass costs a few ns
/// per process at these sizes).
const FULL_PASS_LIMIT: usize = 512;

impl PriorityCache {
    /// Creates an empty (unsynced) cache.
    pub fn new() -> Self {
        PriorityCache::default()
    }

    /// The priorities of the last synced candidate (empty before the
    /// first [`sync`](PriorityCache::sync)).
    pub fn priorities(&self) -> &[TimeUs] {
        &self.lp
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PriorityStats {
        self.stats
    }

    /// Drops the synced state: the next [`sync`](PriorityCache::sync)
    /// recomputes from scratch.
    pub fn invalidate(&mut self) {
        self.synced = false;
    }

    /// Brings the cached priorities up to date with `(arch, mapping)` and
    /// returns them. On the first call (or after a node-count /
    /// process-count change) the full DAG is computed; afterwards only
    /// the ancestor cone affected by the diff against the previously
    /// synced candidate is re-evaluated.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingTiming`] like
    /// [`longest_path_to_sink`]. An error leaves the cache untouched —
    /// still consistently synced to the previous candidate.
    pub fn sync<T: TimingSource>(
        &mut self,
        app: &Application,
        timing: &T,
        arch: &Architecture,
        mapping: &Mapping,
    ) -> Result<&[TimeUs], ModelError> {
        // Resolve the candidate's per-process WCETs once, then run the
        // timing-free core (the hot path resolves WCETs itself — one
        // `ExecSpec` load serves both the priorities and the SFP probs —
        // and calls [`sync_flat`](PriorityCache::sync_flat) directly).
        self.wcet_scratch.clear();
        for p in app.process_ids() {
            let inst = arch.node(mapping.node_of(p));
            self.wcet_scratch
                .push(timing.wcet(p, inst.node_type, inst.hardening)?);
        }
        let wcets = std::mem::take(&mut self.wcet_scratch);
        self.sync_flat(app, arch, mapping, &wcets);
        self.wcet_scratch = wcets;
        Ok(&self.lp)
    }

    /// The timing-free core of [`sync`](PriorityCache::sync): brings the
    /// cached priorities up to date for `(arch, mapping)` given the
    /// candidate's already-resolved per-process WCETs (`wcets[i]` = WCET
    /// of process `i` on its mapped node). Infallible — all lookups
    /// happened on the caller's side.
    pub fn sync_flat(
        &mut self,
        app: &Application,
        arch: &Architecture,
        mapping: &Mapping,
        wcets: &[TimeUs],
    ) -> &[TimeUs] {
        debug_assert_eq!(wcets.len(), app.process_count());
        let n = app.process_count();
        let node_count = arch.node_count();
        if !self.synced || self.map.len() != n || self.nodes.len() != node_count {
            self.stats.full_syncs += 1;
            self.stats.recomputed += n as u64;
            return self.full_pass(app, mapping, wcets, arch);
        }

        // Cheap dispatch first: two slice compares classify the probe.
        let nodes_same = self.nodes.as_slice() == arch.nodes();
        let map_same = self.map.as_slice() == mapping.as_slice();
        if nodes_same && map_same {
            // The synced candidate re-probed (e.g. only `ks` changed).
            self.stats.delta_syncs += 1;
            self.stats.reused += n as u64;
            return &self.lp;
        }
        if !nodes_same && n <= FULL_PASS_LIMIT {
            // A hardening/type step dirties every process on the touched
            // nodes — at these DAG sizes the tight contiguous pass beats
            // any per-process bookkeeping.
            self.stats.delta_syncs += 1;
            self.stats.recomputed += n as u64;
            return self.full_pass(app, mapping, wcets, arch);
        }

        // Seed the locally-dirty set from the candidate diff.
        self.dirty.clear();
        self.dirty.resize(n, false);
        let mut dirty_count = 0usize;
        for p in app.process_ids() {
            let pi = p.index();
            let new_node = mapping.node_of(p);
            let remapped = self.map[pi] != new_node;
            // A remap changes p's WCET and the bus classification of its
            // incoming and outgoing edges; a changed node instance
            // changes the WCET of everything mapped on it. The outgoing
            // side is p's own contribution (p is dirty); the incoming
            // side belongs to the predecessors' path terms.
            let node_changed = !nodes_same && self.nodes[new_node.index()] != arch.node(new_node);
            if (remapped || node_changed) && !self.dirty[pi] {
                self.dirty[pi] = true;
                dirty_count += 1;
            }
            if remapped {
                for &m in app.incoming(p) {
                    let src = app.message(m).src().index();
                    if !self.dirty[src] {
                        self.dirty[src] = true;
                        dirty_count += 1;
                    }
                }
            }
        }
        // Cone-vs-full break-even: once a sizable fraction of the DAG is
        // locally dirty, skip bookkeeping costs more than it saves.
        if dirty_count * 4 > n {
            self.stats.delta_syncs += 1;
            self.stats.recomputed += n as u64;
            return self.full_pass(app, mapping, wcets, arch);
        }

        // Propagate: walking the topological order backwards, a process
        // needs recomputation iff it is locally dirty or a successor's
        // value changed; an unchanged recomputed value stops the wave.
        self.changed.clear();
        self.changed.resize(n, false);
        let mut recomputed = 0u64;
        for &p in app.topological_order().iter().rev() {
            let pi = p.index();
            let needs = self.dirty[pi]
                || app
                    .outgoing(p)
                    .iter()
                    .any(|&m| self.changed[app.message(m).dst().index()]);
            if !needs {
                continue;
            }
            recomputed += 1;
            let new = wcets[pi] + longest_tail(app, mapping, p, &self.lp);
            if new != self.lp[pi] {
                self.lp[pi] = new;
                self.changed[pi] = true;
            }
        }
        self.stats.delta_syncs += 1;
        self.stats.recomputed += recomputed;
        self.stats.reused += n as u64 - recomputed;
        self.snapshot(arch, mapping);
        &self.lp
    }

    /// The tight full DAG pass over pre-resolved WCETs — the same walk
    /// as [`longest_path_to_sink_into`] (the unit tests pin the equality
    /// bit for bit).
    fn full_pass(
        &mut self,
        app: &Application,
        mapping: &Mapping,
        wcets: &[TimeUs],
        arch: &Architecture,
    ) -> &[TimeUs] {
        let n = app.process_count();
        // Every entry is assigned below before any read (reverse
        // topological order: successors first), so stale values from the
        // previous sync are never observed — skip the zero-fill unless
        // the buffer changes size.
        if self.lp.len() != n {
            self.lp.clear();
            self.lp.resize(n, TimeUs::ZERO);
        }
        for &p in app.topological_order().iter().rev() {
            self.lp[p.index()] = wcets[p.index()] + longest_tail(app, mapping, p, &self.lp);
        }
        self.snapshot(arch, mapping);
        &self.lp
    }

    fn snapshot(&mut self, arch: &Architecture, mapping: &Mapping) {
        self.nodes.clear();
        self.nodes.extend_from_slice(arch.nodes());
        self.map.clear();
        self.map.extend_from_slice(mapping.as_slice());
        self.synced = true;
    }
}

/// The set of processes lying on a critical path: those whose
/// earliest-start plus longest-path-to-sink equals the graph's overall
/// critical-path length (within the same graph). Used by the tabu-search
/// mapping heuristic to pick re-mapping candidates.
///
/// # Errors
///
/// Propagates [`ModelError::MissingTiming`] from the path computation.
pub fn critical_processes<T: TimingSource>(
    app: &Application,
    timing: &T,
    arch: &Architecture,
    mapping: &Mapping,
) -> Result<Vec<ProcessId>, ModelError> {
    let mut scratch = CriticalScratch::default();
    let mut out = Vec::new();
    critical_processes_into(app, timing, arch, mapping, &mut scratch, &mut out)?;
    Ok(out)
}

/// Reusable buffers for [`critical_processes_into`], so the tabu loop
/// (one critical-path analysis per iteration) allocates nothing.
#[derive(Debug, Default)]
pub struct CriticalScratch {
    lp: Vec<TimeUs>,
    es: Vec<TimeUs>,
    graph_len: Vec<TimeUs>,
}

/// [`critical_processes`] into caller-provided buffers (cleared and
/// refilled) — the allocation-free form hot search loops use.
///
/// # Errors
///
/// Same as [`critical_processes`].
pub fn critical_processes_into<T: TimingSource>(
    app: &Application,
    timing: &T,
    arch: &Architecture,
    mapping: &Mapping,
    scratch: &mut CriticalScratch,
    out: &mut Vec<ProcessId>,
) -> Result<(), ModelError> {
    longest_path_to_sink_into(app, timing, arch, mapping, &mut scratch.lp)?;
    let lp = &scratch.lp;
    // Earliest start = longest path from any root up to (excluding) p.
    scratch.es.clear();
    scratch.es.resize(app.process_count(), TimeUs::ZERO);
    let es = &mut scratch.es;
    for &p in app.topological_order() {
        let node = mapping.node_of(p);
        let inst = arch.node(node);
        let wcet = timing.wcet(p, inst.node_type, inst.hardening)?;
        for &m in app.outgoing(p) {
            let msg = app.message(m);
            let succ = msg.dst();
            let tx = if mapping.node_of(succ) == node {
                TimeUs::ZERO
            } else {
                msg.tx_time()
            };
            let cand = es[p.index()] + wcet + tx;
            if cand > es[succ.index()] {
                es[succ.index()] = cand;
            }
        }
    }
    // Per-graph critical length.
    scratch.graph_len.clear();
    scratch.graph_len.resize(app.graph_count(), TimeUs::ZERO);
    let graph_len = &mut scratch.graph_len;
    for p in app.process_ids() {
        let g = app.process(p).graph().index();
        graph_len[g] = graph_len[g].max(es[p.index()] + lp[p.index()]);
    }
    out.clear();
    out.extend(app.process_ids().filter(|&p| {
        let g = app.process(p).graph().index();
        es[p.index()] + lp[p.index()] == graph_len[g]
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::paper;

    #[test]
    fn fig1_longest_paths_on_fig4a_mapping() {
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let lp = longest_path_to_sink(sys.application(), sys.timing(), &arch, &mapping).unwrap();
        // WCETs: P1=75, P2=90 on N1^2; P3=60, P4=75 on N2^2; tx = 0.
        // lp(P4) = 75; lp(P3) = 60+75 = 135; lp(P2) = 90+75 = 165;
        // lp(P1) = 75 + max(165, 135) = 240.
        assert_eq!(lp[3], TimeUs::from_ms(75));
        assert_eq!(lp[2], TimeUs::from_ms(135));
        assert_eq!(lp[1], TimeUs::from_ms(165));
        assert_eq!(lp[0], TimeUs::from_ms(240));
    }

    #[test]
    fn critical_path_is_p1_p2_p4_on_fig4a() {
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let crit = critical_processes(sys.application(), sys.timing(), &arch, &mapping).unwrap();
        let names: Vec<&str> = crit
            .iter()
            .map(|&p| sys.application().process(p).name())
            .collect();
        assert_eq!(names, vec!["P1", "P2", "P4"]);
    }

    #[test]
    fn single_process_path_is_its_wcet() {
        let sys = paper::fig3_system();
        let (arch, mapping) = (
            ftes_model::Architecture::with_min_hardening(&[ftes_model::NodeTypeId::new(0)]),
            ftes_model::Mapping::all_on(1, ftes_model::NodeId::new(0)),
        );
        let lp = longest_path_to_sink(sys.application(), sys.timing(), &arch, &mapping).unwrap();
        assert_eq!(lp, vec![TimeUs::from_ms(80)]);
        let crit = critical_processes(sys.application(), sys.timing(), &arch, &mapping).unwrap();
        assert_eq!(crit.len(), 1);
    }

    #[test]
    fn priority_cache_delta_sync_matches_full_recompute() {
        // Replay a search-shaped probe sequence (hardening bumps and
        // single-process re-maps, interleaved with undo moves) and check
        // the delta-synced priorities equal a fresh full pass bit for bit
        // at every step.
        use ftes_model::{HLevel, Mapping, NodeId, ProcessId};
        let sys = paper::fig1_system();
        let app = sys.application();
        let timing = sys.timing();
        let (mut arch, mut mapping) = paper::fig4_alternative('a');
        let mut cache = PriorityCache::new();

        let moves: [(u32, u32, u8); 7] = [
            (0, 0, 2), // no-op remap, same levels (nothing dirty)
            (0, 1, 2), // re-map the root: a small ancestor cone
            (0, 0, 2), // undo the re-map
            (2, 0, 3), // re-map + hardening bump together
            (2, 1, 3),
            (3, 0, 1), // hardening drop on the other node
            (1, 1, 1),
        ];
        for (proc_i, node_i, level) in moves {
            mapping.assign(ProcessId::new(proc_i), NodeId::new(node_i));
            arch.set_hardening(NodeId::new(node_i), HLevel::new(level).unwrap());
            let cached = cache.sync(app, timing, &arch, &mapping).unwrap().to_vec();
            let fresh = longest_path_to_sink(app, timing, &arch, &mapping).unwrap();
            assert_eq!(cached, fresh, "probe ({proc_i},{node_i},{level})");
        }
        let stats = cache.stats();
        assert_eq!(stats.full_syncs, 1, "only the cold start is a full pass");
        assert_eq!(stats.delta_syncs, 6);
        assert!(
            stats.reused > 0,
            "some recomputes must be avoided: {stats:?}"
        );
        let _ = Mapping::all_on(1, NodeId::new(0));
    }

    #[test]
    fn priority_cache_resyncs_on_node_count_change() {
        let sys = paper::fig1_system();
        let app = sys.application();
        let timing = sys.timing();
        let mut cache = PriorityCache::new();

        let (arch2, map2) = paper::fig4_alternative('a');
        cache.sync(app, timing, &arch2, &map2).unwrap();
        // Shrink to a single-node architecture: sizes change, full resync.
        let (arch1, map1) = paper::fig4_alternative('e');
        let cached = cache.sync(app, timing, &arch1, &map1).unwrap().to_vec();
        assert_eq!(
            cached,
            longest_path_to_sink(app, timing, &arch1, &map1).unwrap()
        );
        assert_eq!(cache.stats().full_syncs, 2);
    }

    #[test]
    fn priority_cache_invalidate_forces_full_pass() {
        let sys = paper::fig1_system();
        let (arch, mapping) = paper::fig4_alternative('a');
        let mut cache = PriorityCache::new();
        cache
            .sync(sys.application(), sys.timing(), &arch, &mapping)
            .unwrap();
        cache.invalidate();
        cache
            .sync(sys.application(), sys.timing(), &arch, &mapping)
            .unwrap();
        assert_eq!(cache.stats().full_syncs, 2);
    }

    #[test]
    fn tx_time_counts_only_across_nodes() {
        use ftes_model::{
            ApplicationBuilder, Architecture, Cost, ExecSpec, HLevel, Mapping, NodeId, NodeType,
            NodeTypeId, Platform, Prob, ProcessId, TimeUs, TimingDb,
        };
        let mut b = ApplicationBuilder::new("A");
        let g = b.add_graph("G1", TimeUs::from_ms(100));
        let p1 = b.add_process(g, TimeUs::ZERO);
        let p2 = b.add_process(g, TimeUs::ZERO);
        b.add_message(p1, p2, TimeUs::from_ms(7)).unwrap();
        let app = b.build().unwrap();
        let platform =
            Platform::new(vec![NodeType::new("N", vec![Cost::new(1)], 1.0).unwrap()]).unwrap();
        let mut timing = TimingDb::new(2, &platform);
        let spec = ExecSpec::new(TimeUs::from_ms(10), Prob::ZERO).unwrap();
        for p in [p1, p2] {
            timing
                .set(p, NodeTypeId::new(0), HLevel::MIN, spec)
                .unwrap();
        }
        // Same node: tx ignored.
        let arch1 = Architecture::with_min_hardening(&[NodeTypeId::new(0)]);
        let same = Mapping::all_on(2, NodeId::new(0));
        let lp = longest_path_to_sink(&app, &timing, &arch1, &same).unwrap();
        assert_eq!(lp[p1.index()], TimeUs::from_ms(20));
        // Different nodes: tx added.
        let arch2 = Architecture::with_min_hardening(&[NodeTypeId::new(0), NodeTypeId::new(0)]);
        let mut split = Mapping::all_on(2, NodeId::new(0));
        split.assign(ProcessId::new(1), NodeId::new(1));
        let lp = longest_path_to_sink(&app, &timing, &arch2, &split).unwrap();
        assert_eq!(lp[p1.index()], TimeUs::from_ms(27));
    }
}
