//! Layered random task-graph generation (TGFF style).
//!
//! The paper evaluates on synthetic applications of 20 and 40 processes
//! with WCETs of 1–20 ms and recovery overheads μ of 1–10 % of the WCET.
//! This generator produces layered DAGs in that style: processes are
//! assigned to consecutive layers; edges connect earlier layers to later
//! ones, biased towards adjacent layers; every non-root process has at
//! least one predecessor so graphs are connected chains/fans rather than
//! loose collections.

use ftes_model::{Application, ApplicationBuilder, GraphId, ProcessId, TimeUs};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the random DAG generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DagConfig {
    /// Number of processes.
    pub processes: usize,
    /// Average number of processes per layer (controls parallelism).
    pub width: f64,
    /// Probability of an extra (non-tree) edge between compatible layers.
    pub extra_edge_prob: f64,
    /// Base WCET range in milliseconds (paper: 1–20 ms on the fastest
    /// unhardened node).
    pub wcet_ms: (i64, i64),
    /// μ as a fraction of the base WCET (paper: 1–10 %).
    pub mu_fraction: (f64, f64),
    /// Message transmission time as a fraction of the average WCET
    /// (0 disables bus traffic cost).
    pub tx_fraction: f64,
}

impl Default for DagConfig {
    fn default() -> Self {
        DagConfig {
            processes: 20,
            width: 3.0,
            extra_edge_prob: 0.25,
            wcet_ms: (1, 20),
            mu_fraction: (0.01, 0.10),
            tx_fraction: 0.05,
        }
    }
}

/// A generated application plus its per-process base WCETs (on the fastest
/// node at zero degradation) — the raw material for
/// [`build_timing_db`](ftes_faultsim::build_timing_db).
#[derive(Debug, Clone)]
pub struct GeneratedDag {
    /// The application (deadline/period are placeholders; the experiment
    /// generator assigns them).
    pub application: Application,
    /// Base WCET per process.
    pub base_wcet: Vec<TimeUs>,
}

/// Generates a random layered DAG.
///
/// The deadline/period are set to a generous placeholder (the sum of all
/// WCETs); callers re-derive them (see `reassign_deadline` in
/// `experiment.rs`).
///
/// # Panics
///
/// Panics if `config.processes == 0` or the ranges are inverted.
pub fn generate_dag<R: Rng>(config: &DagConfig, rng: &mut R) -> GeneratedDag {
    assert!(config.processes > 0, "need at least one process");
    assert!(config.wcet_ms.0 >= 1 && config.wcet_ms.0 <= config.wcet_ms.1);
    assert!(config.mu_fraction.0 <= config.mu_fraction.1);

    // Draw base WCETs first; μ derives from them.
    let base_wcet: Vec<TimeUs> = (0..config.processes)
        .map(|_| TimeUs::from_ms(rng.gen_range(config.wcet_ms.0..=config.wcet_ms.1)))
        .collect();
    let total: TimeUs = base_wcet.iter().copied().sum();
    let avg = TimeUs::from_us(total.as_us() / config.processes as i64);

    let mut b = ApplicationBuilder::new("synthetic");
    // Placeholder deadline = total work; the experiment generator replaces
    // it via `assign_deadline`.
    let g: GraphId = b.add_graph("G1", total);
    b.set_period(total);

    let mut layer_of = Vec::with_capacity(config.processes);
    let mut pids: Vec<ProcessId> = Vec::with_capacity(config.processes);
    let mut layer = 0usize;
    let mut in_layer = 0f64;
    for (i, &wcet) in base_wcet.iter().enumerate() {
        let mu_frac = rng.gen_range(config.mu_fraction.0..=config.mu_fraction.1);
        let mu = wcet.scale(mu_frac);
        pids.push(b.add_process(g, mu));
        layer_of.push(layer);
        in_layer += 1.0;
        if in_layer >= config.width && i + 1 < config.processes {
            layer += 1;
            in_layer = 0.0;
        }
    }
    let tx = avg.scale(config.tx_fraction);

    // Tree edges: every non-first-layer process gets one parent from the
    // previous layer.
    for i in 0..config.processes {
        if layer_of[i] == 0 {
            continue;
        }
        let parents: Vec<usize> = (0..config.processes)
            .filter(|&j| layer_of[j] == layer_of[i] - 1)
            .collect();
        let parent = parents[rng.gen_range(0..parents.len())];
        b.add_message(pids[parent], pids[i], tx)
            .expect("tree edge is valid");
    }
    // Extra forward edges.
    for i in 0..config.processes {
        for j in 0..config.processes {
            if layer_of[j] > layer_of[i]
                && layer_of[j] - layer_of[i] <= 2
                && rng.gen_bool(config.extra_edge_prob.min(1.0))
            {
                // Ignore duplicates (the tree edge may already exist).
                let _ = b.add_message(pids[i], pids[j], tx);
            }
        }
    }

    let application = b.build().expect("generated DAG is a valid application");
    GeneratedDag {
        application,
        base_wcet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn gen(seed: u64, cfg: &DagConfig) -> GeneratedDag {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate_dag(cfg, &mut rng)
    }

    #[test]
    fn generates_requested_process_count() {
        for n in [1, 5, 20, 40] {
            let cfg = DagConfig {
                processes: n,
                ..DagConfig::default()
            };
            let d = gen(1, &cfg);
            assert_eq!(d.application.process_count(), n);
            assert_eq!(d.base_wcet.len(), n);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let cfg = DagConfig::default();
        let a = gen(77, &cfg);
        let b = gen(77, &cfg);
        assert_eq!(a.application, b.application);
        assert_eq!(a.base_wcet, b.base_wcet);
        let c = gen(78, &cfg);
        assert_ne!(a.application, c.application);
    }

    #[test]
    fn wcets_respect_the_paper_range() {
        let cfg = DagConfig::default();
        let d = gen(3, &cfg);
        for &w in &d.base_wcet {
            assert!(w >= TimeUs::from_ms(1) && w <= TimeUs::from_ms(20));
        }
    }

    #[test]
    fn mu_is_one_to_ten_percent_of_wcet() {
        let cfg = DagConfig::default();
        let d = gen(5, &cfg);
        for p in d.application.process_ids() {
            let mu = d.application.process(p).mu();
            let w = d.base_wcet[p.index()];
            assert!(mu >= w.scale(0.009), "{mu} vs {w}");
            assert!(mu <= w.scale(0.101), "{mu} vs {w}");
        }
    }

    #[test]
    fn non_root_processes_have_predecessors() {
        let cfg = DagConfig {
            processes: 30,
            ..DagConfig::default()
        };
        let d = gen(9, &cfg);
        let roots = d
            .application
            .process_ids()
            .filter(|&p| d.application.is_root(p))
            .count();
        // Only the first layer (≈ width) may be roots.
        assert!(roots <= 4, "{roots} roots");
        assert!(roots >= 1);
    }

    #[test]
    fn graphs_are_acyclic_by_construction() {
        // build() would fail on a cycle; creating many seeds exercises it.
        let cfg = DagConfig {
            processes: 40,
            extra_edge_prob: 0.5,
            ..DagConfig::default()
        };
        for seed in 0..20 {
            let d = gen(seed, &cfg);
            assert_eq!(d.application.topological_order().len(), 40);
        }
    }
}
