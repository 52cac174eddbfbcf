//! Checks and direct probes of the engine layers (`ftes-opt`, `ftes-sfp`,
//! `ftes-sched`) on one finished design of the `explore` workload.

use std::time::Instant;

use ftes_bench::dist::protocol::fnv64;
use ftes_model::System;
use ftes_opt::{
    evaluate_fixed, redundancy_opt, DesignOutcome, Evaluator, ExplorationStats, OptConfig, Solution,
};
use ftes_sfp::{node_process_probs, SystemSfp};

use crate::report::Report;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Signature of one design for the exact-repeat guard: every counter of
/// its `DesignOutcome.stats` plus the cost it found.
pub fn signature(outcome: Option<&DesignOutcome>) -> u64 {
    match outcome {
        None => fnv64(b"infeasible"),
        Some(o) => fnv64(format!("{:?}/{}", o.stats, o.solution.cost.units()).as_bytes()),
    }
}

/// Re-verifies a design through the from-scratch path
/// ([`evaluate_fixed`]): cost, schedule length, deadline and
/// re-execution budgets (the reliability goal) must agree. Returns the
/// check's duration in microseconds.
pub fn verify(system: &System, opt: &OptConfig, sol: &Solution) -> Result<f64, String> {
    let t = Instant::now();
    let scratch = evaluate_fixed(system, &sol.architecture, &sol.mapping, opt)
        .map_err(|e| format!("evaluate_fixed failed: {e}"))?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    let Some(scratch) = scratch else {
        return Err("from-scratch evaluation misses the reliability goal".to_string());
    };
    if !sol.is_schedulable() {
        return Err("design misses its deadline".to_string());
    }
    if scratch.cost != sol.cost
        || scratch.ks != sol.ks
        || scratch.schedule_length() != sol.schedule_length()
        || scratch.is_schedulable() != sol.is_schedulable()
    {
        return Err(format!(
            "from-scratch evaluation disagrees: cost {} vs {}, length {:?} vs {:?}",
            scratch.cost.units(),
            sol.cost.units(),
            scratch.schedule_length(),
            sol.schedule_length()
        ));
    }
    Ok(us)
}

/// Engine counters summed over a fixed prefix of designs, and the
/// per-call timings of direct probes on each design's winner.
#[derive(Debug, Default)]
pub struct EngineLayer {
    designs: u64,
    evaluations: u64,
    cache_hits: u64,
    archs_evaluated: u64,
    archs_pruned: u64,
    memo_hits: u64,
    memo_misses: u64,
    batched_probes: u64,
    sfp_computed: u64,
    sfp_reused: u64,
    prio_recomputed: u64,
    prio_reused: u64,
    worker_threads_max: u64,
    evaluate_us: Vec<f64>,
    scratch_us: Vec<f64>,
    redundancy_ms: Vec<f64>,
    sfp_us: Vec<f64>,
    sched_us: Vec<f64>,
}

impl EngineLayer {
    /// Adds one design's counters.
    pub fn count(&mut self, s: &ExplorationStats) {
        self.designs += 1;
        self.evaluations += s.eval.evaluations;
        self.cache_hits += s.eval.cache_hits;
        self.archs_evaluated += u64::from(s.architectures_evaluated);
        self.archs_pruned += u64::from(s.architectures_pruned);
        self.memo_hits += s.eval.mapping_memo_hits;
        self.memo_misses += s.eval.mapping_memo_misses;
        self.batched_probes += s.eval.batched_probes;
        self.sfp_computed += s.eval.sfp_nodes_computed;
        self.sfp_reused += s.eval.sfp_nodes_reused;
        self.prio_recomputed += s.eval.priority_recomputed;
        self.prio_reused += s.eval.priority_reused;
        self.worker_threads_max = self.worker_threads_max.max(u64::from(s.worker_threads));
    }

    /// Times direct calls into each engine layer on the winning design
    /// and checks that each agrees with it. Spans go under `parent`.
    pub fn probe(
        &mut self,
        system: &System,
        opt: &OptConfig,
        sol: &Solution,
        tracer: &mut Tracer,
        req: u64,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        let app = system.application();

        let t = Instant::now();
        let mut evaluator = Evaluator::new(system, opt);
        let fresh = evaluator
            .evaluate(&sol.architecture, &sol.mapping)
            .map_err(|e| format!("Evaluator::evaluate failed: {e}"))?;
        let end = Instant::now();
        tracer.record("opt.evaluate", req, parent, t, end);
        self.evaluate_us.push((end - t).as_secs_f64() * 1e6);
        match fresh {
            Some(c)
                if c.cost == sol.cost && c.ks == sol.ks && c.wc_length == sol.schedule_length() => {
            }
            _ => return Err("a fresh Evaluator::evaluate disagrees with the design".to_string()),
        }

        let t = Instant::now();
        let us = verify(system, opt, sol)?;
        tracer.record("opt.evaluate_fixed", req, parent, t, Instant::now());
        self.scratch_us.push(us);

        let t = Instant::now();
        let walked = redundancy_opt(system, &sol.architecture, &sol.mapping, opt)
            .map_err(|e| format!("redundancy_opt failed: {e}"))?;
        let end = Instant::now();
        tracer.record("opt.redundancy_opt", req, parent, t, end);
        self.redundancy_ms.push((end - t).as_secs_f64() * 1e3);
        match walked {
            Some(w) if w.solution.cost == sol.cost => {}
            _ => {
                return Err(
                    "redundancy_opt on the winning mapping disagrees with the design".to_string(),
                )
            }
        }

        let probs = node_process_probs(app, system.timing(), &sol.architecture, &sol.mapping)
            .map_err(|e| format!("node_process_probs failed: {e}"))?;
        let t = Instant::now();
        let mut sfp = SystemSfp::from_node_probs(&probs, opt.max_k.0, opt.rounding);
        let ks = sfp.optimize(system.goal(), app.period());
        let end = Instant::now();
        tracer.record("sfp.optimize", req, parent, t, end);
        self.sfp_us.push((end - t).as_secs_f64() * 1e6);
        if ks.as_deref() != Some(sol.ks.as_slice()) {
            return Err("SystemSfp k-search disagrees with the design's budgets".to_string());
        }

        let t = Instant::now();
        let sched = ftes_sched::schedule(
            app,
            system.timing(),
            &sol.architecture,
            &sol.mapping,
            &sol.ks,
            system.bus(),
        )
        .map_err(|e| format!("schedule failed: {e}"))?;
        let end = Instant::now();
        tracer.record("sched.schedule", req, parent, t, end);
        self.sched_us.push((end - t).as_secs_f64() * 1e6);
        if sched.wc_length() != sol.schedule_length() {
            return Err("list scheduler disagrees with the design's schedule length".to_string());
        }
        Ok(())
    }

    pub fn report(&self, r: &mut Report, designs_ms: &[f64]) {
        let base = format!("summed over {} feasible designs", self.designs);
        r.put(
            "opt.design_ms",
            median(designs_ms),
            "ms",
            format!("median self time, n={}", designs_ms.len()),
        );
        r.put(
            "opt.evaluations",
            self.evaluations as f64,
            "count",
            base.clone(),
        );
        r.put(
            "opt.cache_hits",
            self.cache_hits as f64,
            "count",
            base.clone(),
        );
        r.put_ratio(
            "opt.eval_cache_hit_ratio",
            self.cache_hits,
            self.evaluations,
            "evaluations",
        );
        r.put(
            "opt.archs_evaluated",
            self.archs_evaluated as f64,
            "count",
            base.clone(),
        );
        r.put(
            "opt.archs_pruned",
            self.archs_pruned as f64,
            "count",
            base.clone(),
        );
        r.put_ratio(
            "opt.arch_prune_ratio",
            self.archs_pruned,
            self.archs_pruned + self.archs_evaluated,
            "architectures",
        );
        r.put(
            "opt.mapping_memo_hits",
            self.memo_hits as f64,
            "count",
            base.clone(),
        );
        r.put_ratio(
            "opt.mapping_memo_hit_ratio",
            self.memo_hits,
            self.memo_hits + self.memo_misses,
            "mapping memo lookups",
        );
        r.put(
            "opt.batched_probes",
            self.batched_probes as f64,
            "count",
            base.clone(),
        );
        r.put(
            "opt.worker_threads_max",
            self.worker_threads_max as f64,
            "count",
            "peak design_strategy worker threads (Threads(N) fan-out)",
        );
        let n = |v: &[f64]| format!("median, n={}", v.len());
        r.put(
            "opt.evaluate_call_us",
            median(&self.evaluate_us),
            "us",
            n(&self.evaluate_us),
        );
        r.put(
            "opt.scratch_eval_us",
            median(&self.scratch_us),
            "us",
            n(&self.scratch_us),
        );
        r.put(
            "opt.redundancy_call_ms",
            median(&self.redundancy_ms),
            "ms",
            n(&self.redundancy_ms),
        );
        r.put(
            "sfp.nodes_computed",
            self.sfp_computed as f64,
            "count",
            base.clone(),
        );
        r.put(
            "sfp.nodes_reused",
            self.sfp_reused as f64,
            "count",
            base.clone(),
        );
        r.put_ratio(
            "sfp.node_reuse_ratio",
            self.sfp_reused,
            self.sfp_reused + self.sfp_computed,
            "node analyses",
        );
        r.put(
            "sfp.optimize_call_us",
            median(&self.sfp_us),
            "us",
            n(&self.sfp_us),
        );
        r.put(
            "sched.priority_recomputed",
            self.prio_recomputed as f64,
            "count",
            base.clone(),
        );
        r.put(
            "sched.priority_reused",
            self.prio_reused as f64,
            "count",
            base,
        );
        r.put_ratio(
            "sched.priority_reuse_ratio",
            self.prio_reused,
            self.prio_reused + self.prio_recomputed,
            "priority syncs",
        );
        r.put(
            "sched.schedule_call_us",
            median(&self.sched_us),
            "us",
            n(&self.sched_us),
        );
    }
}
