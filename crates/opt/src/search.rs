//! `Search` — the engine state one optimization run shares across the
//! layers of Fig. 5.
//!
//! A search owns the incremental candidate [`Evaluator`] and the
//! cross-iteration mapping-outcome memo, both built from the same
//! [`OptConfig`], so a memo can never answer for a different
//! configuration or hardening policy. Each layer is one method:
//! [`mapping_algorithm`](Search::mapping_algorithm) (tabu, Section 6.2),
//! its batched [`score_neighborhood`](Search::score_neighborhood) kernel,
//! and [`redundancy_opt`](Search::redundancy_opt) (Section 6.3). The
//! design strategy runs its whole architecture walk on one search, so
//! both memo layers persist across every probe.

use std::hash::Hasher;

use ftes_model::fasthash::FastHasher;
use ftes_model::{Architecture, Mapping, ModelError, NodeId, NodeTypeId, System};

use crate::config::{EvalMode, OptConfig};
use crate::incremental::{EvalStats, Evaluator};
use crate::memo::SlruCache;
use crate::redundancy::{redundancy_walk, RedundancyOutcome};

/// The optimization engine of one run: the incremental candidate
/// evaluator plus the mapping-outcome memo, built from one configuration.
///
/// # Examples
///
/// ```
/// use ftes_model::{paper, Cost};
/// use ftes_opt::{OptConfig, Search};
///
/// let sys = paper::fig1_system();
/// let config = OptConfig::default();
/// let mut search = Search::new(&sys, &config);
/// let (base, mapping) = paper::fig4_alternative('a');
/// let out = search.redundancy_opt(&base, &mapping)?.expect("reachable");
/// assert_eq!(out.solution.cost, Cost::new(72));
/// // A revisit of the same (node types, mapping) is one memo lookup.
/// search.redundancy_opt(&base, &mapping)?;
/// assert_eq!(search.stats().mapping_memo_hits, 1);
/// # Ok::<(), ftes_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct Search<'a> {
    pub(crate) evaluator: Evaluator<'a>,
    /// `(node types, mapping) → redundancy outcome`, LRU-bounded via
    /// [`OptConfig::mapping_memo`].
    ///
    /// The tabu search revisits mappings constantly — recently tried
    /// moves, the `Cost` pass re-walking the `ScheduleLength` pass's
    /// neighbourhood — and every revisit would replay the whole hardening
    /// walk (dozens of candidate probes). The memo collapses a revisit to
    /// one fasthash of the mapping. Keys are verified exactly on hit, so
    /// a hash collision degrades to a miss instead of a wrong result.
    ///
    /// The key ignores `base`'s hardening levels: the redundancy
    /// optimization controls them (per
    /// [`HardeningPolicy`](crate::HardeningPolicy)), so its outcome depends
    /// only on the node *types* and the mapping.
    memo: SlruCache<u64, MemoEntry>,
    memo_hits: u64,
    memo_misses: u64,
}

#[derive(Debug)]
struct MemoEntry {
    types: Vec<NodeTypeId>,
    mapping: Vec<NodeId>,
    outcome: Option<RedundancyOutcome>,
}

impl<'a> Search<'a> {
    /// A search of `system` under `config`. The memo holds
    /// `config.mapping_memo` entries — none under `MemoCap(0)` or
    /// [`EvalMode::Scratch`], the fully unmemoized executable
    /// specification (and the perf baseline).
    pub fn new(system: &'a System, config: &'a OptConfig) -> Self {
        let cap = match config.eval_mode {
            EvalMode::Scratch => 0,
            EvalMode::Incremental => config.mapping_memo.0,
        };
        Search {
            evaluator: Evaluator::new(system, config),
            memo: SlruCache::new(cap),
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Counters accumulated so far, the mapping memo's included.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            mapping_memo_hits: self.memo_hits,
            mapping_memo_misses: self.memo_misses,
            ..self.evaluator.stats()
        }
    }

    /// Runs the hardening/re-execution trade-off (`RedundancyOpt`) for a
    /// fixed mapping on the node slots of `base`.
    ///
    /// `base` carries the node types of the architecture; its hardening
    /// levels are ignored (the search controls them, honouring the
    /// configured [`HardeningPolicy`](crate::HardeningPolicy)). A revisited
    /// `(node types, mapping)` pair returns its memoized outcome, which
    /// is bit-identical to re-running the walk: the memoized value *is* a
    /// previous walk's result, and the walk is deterministic in its
    /// inputs. Returns `Ok(None)` when *no* hardening vector admits the
    /// reliability goal.
    ///
    /// # Errors
    ///
    /// Propagates model errors from evaluation.
    pub fn redundancy_opt(
        &mut self,
        base: &Architecture,
        mapping: &Mapping,
    ) -> Result<Option<RedundancyOutcome>, ModelError> {
        if !self.memo.enabled() {
            return redundancy_walk(&mut self.evaluator, base, mapping);
        }
        let key = memo_key(base, mapping);
        if let Some(entry) = self.memo.get(&key) {
            let exact = entry
                .types
                .iter()
                .copied()
                .eq(base.nodes().iter().map(|n| n.node_type))
                && entry.mapping.as_slice() == mapping.as_slice();
            if exact {
                self.memo_hits += 1;
                return Ok(entry.outcome.clone());
            }
        }
        self.memo_misses += 1;
        let outcome = redundancy_walk(&mut self.evaluator, base, mapping)?;
        self.memo.insert(
            key,
            MemoEntry {
                types: base.nodes().iter().map(|n| n.node_type).collect(),
                mapping: mapping.as_slice().to_vec(),
                outcome: outcome.clone(),
            },
        );
        Ok(outcome)
    }
}

fn memo_key(base: &Architecture, mapping: &Mapping) -> u64 {
    let mut h = FastHasher::default();
    h.write_usize(base.node_count());
    for node in base.nodes() {
        h.write_u32(node.node_type.index() as u32);
    }
    for &n in mapping.as_slice() {
        h.write_u32(n.index() as u32);
    }
    h.finish()
}
