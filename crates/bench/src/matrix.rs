//! The scenario-matrix runner: expands a [`ScenarioMatrix`] into cells,
//! funnels every cell through the same design-strategy engine the Fig. 6
//! sweeps use, and renders the results as a summary table, a golden-file
//! JSON snapshot (timing-free, byte-stable) and a benchmark JSON artifact
//! (`BENCH_PR<N>.json`, with wall-clock timings).
//!
//! One cell = one [`Scenario`] (bus model × platform heterogeneity ×
//! deadline tightness × graph shape × message load × fault load ×
//! application count). Per cell each requested [`Strategy`] is run over
//! the cell's applications; recorded per application are the best
//! architecture cost and the worst-case schedule length, from which
//! acceptance at any maximum architecture cost `ArC` derives.
//!
//! ## Parallel streaming execution
//!
//! [`run_cells_streaming`] is the scalable engine behind every entry
//! point: a worker pool claims cells off a shared cursor and a single
//! consumer emits finished [`CellResult`]s **in cell order** through a
//! sink callback, so memory stays bounded by the in-flight window (the
//! pool stops claiming new cells when too many completed cells are
//! waiting for an earlier, slower one) rather than by the matrix size.
//! Because cells are independent and each cell's result is deterministic,
//! this in-order replay makes the parallel output **bit-identical to the
//! sequential run for any thread count**.
//!
//! One [`CoreBudget`] is shared across both nesting levels — cell pool ×
//! per-cell application fan-out, one sequential `design_strategy` per
//! application — so the worker product never exceeds the requested
//! parallelism (no `threads²` oversubscription).

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

use ftes_gen::{Scenario, ScenarioMatrix};
use ftes_model::Cost;
use ftes_opt::{CoreBudget, Threads, WarmStart};
use serde::{Deserialize, Serialize};

use crate::experiment::{run_strategy_over, Strategy};

/// Result of one strategy over one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyCell {
    /// The strategy this row was produced by.
    pub strategy: Strategy,
    /// Best feasible cost per application index (`None` = no schedulable,
    /// reliable solution).
    pub best_cost: Vec<Option<u64>>,
    /// Worst-case schedule length (µs) of the found solution per
    /// application index.
    pub schedule_len_us: Vec<Option<i64>>,
    /// Wall-clock seconds this strategy took on the cell.
    pub wall_seconds: f64,
}

impl StrategyCell {
    /// Percentage of the cell's applications accepted under a maximum
    /// architecture cost `arc` (feasible *and* affordable).
    pub fn acceptance(&self, arc: Cost) -> f64 {
        if self.best_cost.is_empty() {
            return 0.0;
        }
        let accepted = self
            .best_cost
            .iter()
            .filter(|c| c.is_some_and(|c| c <= arc.units()))
            .count();
        100.0 * accepted as f64 / self.best_cost.len() as f64
    }

    /// Mean best cost over the feasible applications, if any.
    pub fn mean_cost(&self) -> Option<f64> {
        let feasible: Vec<u64> = self.best_cost.iter().copied().flatten().collect();
        if feasible.is_empty() {
            return None;
        }
        Some(feasible.iter().sum::<u64>() as f64 / feasible.len() as f64)
    }
}

/// Results of all requested strategies on one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// The cell descriptor.
    pub scenario: Scenario,
    /// One row per requested strategy, in request order.
    pub strategies: Vec<StrategyCell>,
}

impl CellResult {
    /// The cell's stable label (see [`Scenario::label`]).
    pub fn label(&self) -> String {
        self.scenario.label()
    }
}

/// A completed matrix run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// One entry per cell, in matrix expansion order.
    pub cells: Vec<CellResult>,
    /// The maximum architecture cost the summary table evaluates
    /// acceptance at.
    pub arc: Cost,
}

/// A shard selector: run only the cells whose index `≡ index (mod
/// count)`. Striding (rather than chunking) keeps every shard covering
/// all axis values, so sharded runs stay representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// This shard's index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Whether this shard owns cell `cell_index`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid shard (`index ≥ max(count, 1)`): an
    /// out-of-range shard owns no cells under the stride contract, and
    /// silently running the wrong set would corrupt a multi-machine
    /// sweep — fail fast instead.
    pub fn owns(self, cell_index: usize) -> bool {
        assert!(
            self.index < self.count.max(1),
            "invalid shard {}/{}: index must be < count",
            self.index,
            self.count
        );
        self.count <= 1 || cell_index % self.count == self.index
    }
}

/// Configuration of a matrix run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixRunConfig {
    /// The maximum architecture cost acceptance is evaluated at.
    pub arc: Cost,
    /// The **total** core budget of the run, shared between the cell
    /// worker pool and each cell's application fan-out (`0` = all
    /// available cores, `1` = fully sequential). Results are
    /// bit-identical for any value.
    pub threads: Threads,
    /// When `Some`, only the cells owned by the shard are run.
    pub shard: Option<Shard>,
    /// Print one progress line per completed cell to stderr.
    pub progress: bool,
}

impl Default for MatrixRunConfig {
    fn default() -> Self {
        MatrixRunConfig {
            arc: Cost::new(20),
            threads: Threads(0),
            shard: None,
            progress: false,
        }
    }
}

impl MatrixRunConfig {
    /// The cells of `cells` this configuration will actually run, in
    /// matrix order (the shard filter applied) — the single source of
    /// truth for every runner and progress denominator.
    pub fn selected<'a>(&self, cells: &'a [Scenario]) -> Vec<&'a Scenario> {
        cells
            .iter()
            .enumerate()
            .filter(|(i, _)| self.shard.map_or(true, |s| s.owns(*i)))
            .map(|(_, c)| c)
            .collect()
    }

    /// How many of `cells` this configuration will run.
    pub fn owned_count(&self, cells: &[Scenario]) -> usize {
        self.selected(cells).len()
    }
}

/// The winning design points of one cell run, per strategy and
/// application — everything a later run on the *same scenario* needs to
/// warm-start its tabu searches (the `ftes-server` result cache stores
/// one of these alongside each rendered payload).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CellSeeds {
    /// One `(strategy, per-application seed)` row per strategy run, in
    /// request order. `None` = that application had no feasible solution.
    pub strategies: Vec<(Strategy, Vec<Option<WarmStart>>)>,
}

impl CellSeeds {
    /// The per-application seeds to warm-start `strategy` with: the same
    /// strategy's winners when the donor ran it, else the donor's first
    /// strategy row — a mapping is a mapping; the exploration re-derives
    /// hardening and re-execution under its own policy, so any donor
    /// strategy's design point is a valid start for any other.
    pub fn for_strategy(&self, strategy: Strategy) -> Option<&[Option<WarmStart>]> {
        self.strategies
            .iter()
            .find(|(s, _)| *s == strategy)
            .or_else(|| self.strategies.first())
            .map(|(_, seeds)| seeds.as_slice())
    }

    /// How many concrete (non-`None`) seeds this set carries.
    pub fn seed_count(&self) -> usize {
        self.strategies
            .iter()
            .map(|(_, seeds)| seeds.iter().flatten().count())
            .sum()
    }
}

/// The donor design point of one finished exploration: the winning node
/// types in slot order plus the process-to-node mapping.
fn warm_start_of(solution: &ftes_opt::Solution) -> WarmStart {
    WarmStart {
        types: solution
            .architecture
            .node_ids()
            .map(|n| solution.architecture.node_type(n))
            .collect(),
        mapping: solution.mapping.as_slice().to_vec(),
    }
}

/// Runs every requested strategy over one cell within a [`CoreBudget`].
///
/// With a warm-start `donor`, each strategy's tabu searches seed from the
/// donor's design points ([`CellSeeds::for_strategy`]); a `None` donor is
/// exactly the cold path. The cell's own winners are returned alongside
/// the result for the caller to cache as a future donor.
pub fn run_cell_seeded(
    scenario: &Scenario,
    strategies: &[Strategy],
    budget: CoreBudget,
    donor: Option<&CellSeeds>,
) -> (CellResult, CellSeeds) {
    let mut rows = Vec::with_capacity(strategies.len());
    let mut winners = CellSeeds::default();
    for &strategy in strategies {
        let seeds = donor.and_then(|d| d.for_strategy(strategy));
        let start = std::time::Instant::now();
        let outcomes = run_strategy_over(
            |i| scenario.generate(i),
            scenario.apps,
            strategy,
            budget,
            seeds,
        );
        let wall_seconds = start.elapsed().as_secs_f64();
        rows.push(StrategyCell {
            strategy,
            best_cost: outcomes
                .iter()
                .map(|o| o.as_ref().map(|o| o.solution.cost.units()))
                .collect(),
            schedule_len_us: outcomes
                .iter()
                .map(|o| o.as_ref().map(|o| o.solution.schedule_length().as_us()))
                .collect(),
            wall_seconds,
        });
        let won = outcomes
            .iter()
            .map(|o| o.as_ref().map(|o| warm_start_of(&o.solution)))
            .collect();
        winners.strategies.push((strategy, won));
    }
    (
        CellResult {
            scenario: scenario.clone(),
            strategies: rows,
        },
        winners,
    )
}

/// [`run_cell_seeded`] cold, without the winners. Kept only because the
/// benchmark package (`perfbench/`) links this name.
#[doc(hidden)]
pub fn run_cell_budgeted(
    scenario: &Scenario,
    strategies: &[Strategy],
    budget: CoreBudget,
) -> CellResult {
    run_cell_seeded(scenario, strategies, budget, None).0
}

/// [`run_cell_seeded`] cold on the full core budget. Kept only because
/// the benchmark package (`perfbench/`) links this name.
#[doc(hidden)]
pub fn run_cell(scenario: &Scenario, strategies: &[Strategy]) -> CellResult {
    run_cell_seeded(scenario, strategies, CoreBudget::available(), None).0
}

/// Shared state of the streaming pool: the claim cursor, the emit cursor,
/// the completed-but-not-yet-emitted buffer and the abort flag.
struct StreamState {
    claimed: usize,
    emitted: usize,
    done: BTreeMap<usize, CellResult>,
    aborted: bool,
}

/// Unblocks the rest of the streaming pool when one side unwinds, so a
/// panic (a sink I/O failure in the consumer, an engine panic in a
/// worker) aborts the run and propagates out of `std::thread::scope`
/// instead of deadlocking its implicit join against threads parked on a
/// condvar that would never be signalled again.
struct AbortOnPanic<'a> {
    state: &'a Mutex<StreamState>,
    cell_finished: &'a Condvar,
    slot_freed: &'a Condvar,
    total: usize,
}

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = match self.state.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            st.aborted = true;
            st.claimed = self.total; // nothing further gets claimed
            drop(st);
            self.cell_finished.notify_all();
            self.slot_freed.notify_all();
        }
    }
}

/// The parallel streaming engine: runs `cells` (those owned by the
/// configured shard) and hands each [`CellResult`] to `sink` **in cell
/// order**, as soon as it and all its predecessors are finished.
///
/// `sink` receives `(position, result)` where `position` counts emitted
/// cells (0-based) — with a shard configured, the positions still cover
/// `0..owned_count` while `result.scenario` identifies the actual cell.
///
/// Memory is bounded: at most `2 × workers` finished cells are buffered;
/// when an early cell is slow, the pool pauses claiming instead of piling
/// up out-of-order results. The emitted sequence is bit-identical for
/// any [`MatrixRunConfig::threads`] value.
///
/// With [`MatrixRunConfig::progress`] set, one line per emitted cell is
/// printed to stderr (on the consumer thread, before `sink` runs).
pub fn run_cells_streaming<F>(
    cells: &[Scenario],
    strategies: &[Strategy],
    config: &MatrixRunConfig,
    mut sink: F,
) where
    F: FnMut(usize, CellResult),
{
    let selected = config.selected(cells);
    let total = selected.len();
    if total == 0 {
        return;
    }
    let mut emit = move |i: usize, cell: CellResult| {
        if config.progress {
            let spent: f64 = cell.strategies.iter().map(|s| s.wall_seconds).sum();
            eprintln!("[{}/{total}] {} ({spent:.2}s)", i + 1, cell.label());
        }
        sink(i, cell);
    };
    let budget = CoreBudget::new(config.threads.resolve());
    let (workers, per_cell) = budget.fan_out(total);

    if workers <= 1 {
        // Sequential reference path: claim, run and emit in order.
        for (i, scenario) in selected.iter().enumerate() {
            emit(i, run_cell_seeded(scenario, strategies, budget, None).0);
        }
        return;
    }

    let window = 2 * workers;
    let state = Mutex::new(StreamState {
        claimed: 0,
        emitted: 0,
        done: BTreeMap::new(),
        aborted: false,
    });
    let cell_finished = Condvar::new();
    let slot_freed = Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _guard = AbortOnPanic {
                    state: &state,
                    cell_finished: &cell_finished,
                    slot_freed: &slot_freed,
                    total,
                };
                loop {
                    let i = {
                        let mut st = state.lock().unwrap();
                        // Bounded window: don't run ahead of the consumer.
                        while !st.aborted && st.claimed < total && st.claimed - st.emitted >= window
                        {
                            st = slot_freed.wait(st).unwrap();
                        }
                        if st.aborted || st.claimed >= total {
                            break;
                        }
                        st.claimed += 1;
                        st.claimed - 1
                    };
                    let (result, _) = run_cell_seeded(selected[i], strategies, per_cell, None);
                    let mut st = state.lock().unwrap();
                    st.done.insert(i, result);
                    drop(st);
                    cell_finished.notify_all();
                }
            });
        }

        // The caller's thread is the consumer: emit strictly in order.
        let _guard = AbortOnPanic {
            state: &state,
            cell_finished: &cell_finished,
            slot_freed: &slot_freed,
            total,
        };
        for i in 0..total {
            let result = {
                let mut st = state.lock().unwrap();
                loop {
                    if let Some(result) = st.done.remove(&i) {
                        st.emitted = i + 1;
                        break result;
                    }
                    if st.aborted {
                        // A worker unwound: its claimed cell will never
                        // arrive. Propagate (the scope join re-raises the
                        // worker's own panic as well).
                        drop(st);
                        panic!("a matrix worker panicked; aborting the streaming run");
                    }
                    st = cell_finished.wait(st).unwrap();
                }
            };
            slot_freed.notify_all();
            emit(i, result);
        }
    });
}

/// Runs `cells` under `config` and collects the results into a
/// [`MatrixReport`] (in cell order, bit-identical for any thread count).
pub fn run_cells(
    cells: &[Scenario],
    strategies: &[Strategy],
    config: &MatrixRunConfig,
) -> MatrixReport {
    let mut results = Vec::with_capacity(config.owned_count(cells));
    run_cells_streaming(cells, strategies, config, |_, cell| {
        results.push(cell);
    });
    MatrixReport {
        cells: results,
        arc: config.arc,
    }
}

/// Expands `matrix` and runs every cell on the machine's full core
/// budget; `progress` (when `true`) prints one line per completed cell to
/// stderr.
pub fn run_matrix(
    matrix: &ScenarioMatrix,
    strategies: &[Strategy],
    arc: Cost,
    progress: bool,
) -> MatrixReport {
    run_cells(
        &matrix.cells(),
        strategies,
        &MatrixRunConfig {
            arc,
            progress,
            ..MatrixRunConfig::default()
        },
    )
}

// ---------------------------------------------------------------------
// JSON rendering — shared between the in-memory report and the
// streaming writer of `repro_matrix`.
// ---------------------------------------------------------------------

/// Metadata of a benchmark artifact (`BENCH_PR<N>.json`): the PR number
/// and the smoke flag. Every artifact covers its whole matrix — a
/// `--shard` run writes a journal, not a document — and golden
/// snapshots carry no metadata at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchMeta {
    /// The PR number stamped into the artifact.
    pub pr: u32,
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
}

impl BenchMeta {
    /// Artifact metadata.
    pub fn new(pr: u32, smoke: bool) -> Self {
        BenchMeta { pr, smoke }
    }
}

/// The opening of a matrix JSON document. `meta` (when present) tags the
/// benchmark artifact with its PR number and smoke flag; the golden
/// snapshot omits it. `extra` header lines (each already formatted as
/// `  "key": value,\n`) go just before the `"arc"` line — the
/// distributed runner's [`DistStats`](crate::dist::DistStats) lines,
/// stripped with `grep -v '"dist_'` when comparing; `""` for none.
pub fn json_header(arc: Cost, meta: Option<BenchMeta>, extra: &str) -> String {
    let mut out = String::from("{\n");
    if let Some(meta) = meta {
        out.push_str(&format!(
            "  \"bench\": \"repro_matrix\",\n  \"pr\": {},\n  \"smoke\": {},\n",
            meta.pr, meta.smoke
        ));
    }
    out.push_str(extra);
    out.push_str(&format!("  \"arc\": {},\n  \"cells\": [\n", arc.units()));
    out
}

/// One cell as a JSON object (no trailing separator). With `timings`,
/// per-strategy wall-clock seconds are included — golden snapshots set it
/// to `false` so the output is deterministic.
pub fn cell_json(cell: &CellResult, arc: Cost, timings: bool) -> String {
    let s = &cell.scenario;
    let mut out = format!(
        concat!(
            "    {{\n",
            "      \"scenario\": \"{}\",\n",
            "      \"bus\": \"{}\",\n",
            "      \"platform\": \"{}\",\n",
            "      \"utilization\": \"{}\",\n",
            "      \"shape\": \"{}\",\n",
            "      \"message\": \"{}\",\n",
            "      \"fault\": \"{}\",\n",
            "      \"apps\": {},\n",
            "      \"strategies\": {{\n"
        ),
        cell.label(),
        s.bus.label(),
        s.platform.label(),
        s.utilization.label(),
        s.shape.label(),
        s.message.label(),
        s.fault.label(),
        s.apps,
    );
    for (si, row) in cell.strategies.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "        \"{}\": {{\n",
                "          \"acceptance\": {:.1},\n",
                "          \"best_cost\": [{}],\n",
                "          \"schedule_len_us\": [{}]"
            ),
            row.strategy.label(),
            row.acceptance(arc),
            join_opts(&row.best_cost),
            join_opts(&row.schedule_len_us),
        ));
        if timings {
            out.push_str(&format!(
                ",\n          \"wall_seconds\": {:.6}",
                row.wall_seconds
            ));
        }
        out.push_str("\n        }");
        out.push_str(if si + 1 < cell.strategies.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("      }\n    }");
    out
}

/// The closing of a matrix JSON document.
pub fn json_footer() -> String {
    "\n  ]\n}\n".to_string()
}

impl MatrixReport {
    /// Human-readable summary: one row per cell, acceptance at `arc` and
    /// mean feasible cost per strategy.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .cells
            .iter()
            .map(|c| c.label().len())
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!(
            "{:<width$}  acceptance at ArC = {}\n",
            "cell",
            self.arc.units(),
            width = width
        ));
        for cell in &self.cells {
            out.push_str(&render_table_row(cell, self.arc, width));
        }
        out
    }

    /// The timing-free JSON snapshot the golden-file harness byte-compares
    /// (deterministic for a deterministic engine: no wall-clock values).
    pub fn golden_json(&self) -> String {
        self.render_json(false, None)
    }

    /// The benchmark artifact JSON (`BENCH_PR<N>.json`): the golden fields
    /// plus per-strategy wall-clock seconds and run metadata.
    pub fn bench_json(&self, pr: u32, smoke: bool) -> String {
        self.render_json(true, Some(BenchMeta::new(pr, smoke)))
    }

    fn render_json(&self, timings: bool, meta: Option<BenchMeta>) -> String {
        let mut out = json_header(self.arc, meta, "");
        for (ci, cell) in self.cells.iter().enumerate() {
            if ci > 0 {
                out.push_str(",\n");
            }
            out.push_str(&cell_json(cell, self.arc, timings));
        }
        out.push_str(&json_footer());
        out
    }
}

/// One summary-table row (used by the report and the streaming bin).
pub fn render_table_row(cell: &CellResult, arc: Cost, width: usize) -> String {
    let mut out = format!("{:<width$} ", cell.label(), width = width);
    for s in &cell.strategies {
        let mean = s
            .mean_cost()
            .map_or("   -".to_string(), |m| format!("{m:4.1}"));
        out.push_str(&format!(
            "  {} {:5.1}% (c\u{0304} {})",
            s.strategy.label(),
            s.acceptance(arc),
            mean
        ));
    }
    out.push('\n');
    out
}

fn join_opts<T: std::fmt::Display>(values: &[Option<T>]) -> String {
    values
        .iter()
        .map(|v| v.as_ref().map_or("null".to_string(), T::to_string))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_gen::{BusProfile, Heterogeneity, Utilization};

    fn tiny_cell() -> Scenario {
        Scenario::new(
            BusProfile::Ideal,
            Heterogeneity::Mild,
            Utilization::Relaxed,
            2,
        )
    }

    #[test]
    fn cell_seeds_prefer_same_strategy_then_fall_back_to_first() {
        let opt_seed = WarmStart {
            types: vec![ftes_model::NodeTypeId::new(1)],
            mapping: vec![ftes_model::NodeId::new(0)],
        };
        let seeds = CellSeeds {
            strategies: vec![
                (Strategy::Max, vec![None]),
                (Strategy::Opt, vec![Some(opt_seed.clone())]),
            ],
        };
        assert_eq!(
            seeds.for_strategy(Strategy::Opt),
            Some(&[Some(opt_seed)][..])
        );
        // No MIN row: any donor design point is a valid start, so the
        // first row stands in.
        assert_eq!(seeds.for_strategy(Strategy::Min), Some(&[None][..]));
        assert_eq!(seeds.seed_count(), 1);
        assert_eq!(CellSeeds::default().for_strategy(Strategy::Opt), None);
    }

    #[test]
    fn seeded_cell_run_matches_cold_and_returns_reusable_winners() {
        let scenario = tiny_cell();
        let budget = CoreBudget::new(2);
        let (cold, winners) = run_cell_seeded(&scenario, &[Strategy::Opt], budget, None);
        assert!(winners.seed_count() > 0, "tiny cell should find solutions");
        // Re-seeding redirects each tabu start, so the warm run may land
        // on a *different* equal-cost design point — but it explores the
        // same architecture walk, so feasibility and best cost per app
        // are unchanged when seeded with the cell's own winners.
        let (warm, _) = run_cell_seeded(&scenario, &[Strategy::Opt], budget, Some(&winners));
        for (w, c) in warm.strategies.iter().zip(&cold.strategies) {
            assert_eq!(w.strategy, c.strategy);
            assert_eq!(w.best_cost, c.best_cost);
            for (ws, cs) in w.schedule_len_us.iter().zip(&c.schedule_len_us) {
                assert_eq!(ws.is_some(), cs.is_some());
            }
        }
    }

    #[test]
    fn acceptance_and_mean_cost_derive_from_per_app_costs() {
        let row = StrategyCell {
            strategy: Strategy::Opt,
            best_cost: vec![Some(10), None, Some(30), Some(20)],
            schedule_len_us: vec![Some(1), None, Some(3), Some(2)],
            wall_seconds: 0.0,
        };
        assert_eq!(row.acceptance(Cost::new(20)), 50.0);
        assert_eq!(row.acceptance(Cost::new(9)), 0.0);
        assert_eq!(row.mean_cost(), Some(20.0));
        let empty = StrategyCell {
            strategy: Strategy::Min,
            best_cost: vec![None, None],
            schedule_len_us: vec![None, None],
            wall_seconds: 0.0,
        };
        assert_eq!(empty.acceptance(Cost::new(100)), 0.0);
        assert_eq!(empty.mean_cost(), None);
    }

    #[test]
    fn cell_run_matches_the_condition_runner_on_the_default_cell() {
        // The (Ideal, Mild, Relaxed) cell is exactly the Fig. 6 default
        // condition: the matrix runner must reproduce run_condition's costs.
        let scenario = tiny_cell();
        let (cell, _) = run_cell_seeded(&scenario, &[Strategy::Opt], CoreBudget::available(), None);
        let cell = &cell.strategies[0];
        let reference = crate::experiment::run_condition(
            &ftes_gen::ExperimentConfig::default(),
            scenario.apps,
            Strategy::Opt,
        );
        let costs: Vec<Option<u64>> = reference
            .best_cost
            .iter()
            .map(|c| c.map(|c| c.units()))
            .collect();
        assert_eq!(cell.best_cost, costs);
    }

    #[test]
    fn golden_json_is_deterministic_and_timing_free() {
        let scenario = tiny_cell();
        let run = || MatrixReport {
            cells: vec![
                run_cell_seeded(&scenario, &[Strategy::Opt], CoreBudget::available(), None).0,
            ],
            arc: Cost::new(20),
        };
        let (report, again) = (run(), run());
        assert_eq!(report.golden_json(), again.golden_json());
        assert!(!report.golden_json().contains("wall_seconds"));
        assert!(report.bench_json(3, true).contains("wall_seconds"));
        assert!(report.render_table().contains("OPT"));
    }

    #[test]
    fn streamed_json_composes_to_the_report_rendering() {
        // The streaming writer (header + per-cell chunks + footer) must
        // produce byte-identical documents to MatrixReport::render_json.
        let cells = [tiny_cell()];
        let cfg = MatrixRunConfig {
            threads: Threads(1),
            ..MatrixRunConfig::default()
        };
        let report = run_cells(&cells, &[Strategy::Opt, Strategy::Min], &cfg);
        let mut streamed = json_header(cfg.arc, None, "");
        for (i, cell) in report.cells.iter().enumerate() {
            if i > 0 {
                streamed.push_str(",\n");
            }
            streamed.push_str(&cell_json(cell, cfg.arc, false));
        }
        streamed.push_str(&json_footer());
        assert_eq!(streamed, report.golden_json());
    }

    #[test]
    fn sharding_partitions_the_cells_exactly() {
        let matrix = ScenarioMatrix::smoke();
        let cells = matrix.cells();
        let cfg = MatrixRunConfig {
            threads: Threads(1),
            ..MatrixRunConfig::default()
        };
        let full = run_cells(&cells, &[Strategy::Min], &cfg);
        let mut stitched: Vec<Option<CellResult>> = vec![None; cells.len()];
        for index in 0..3 {
            let shard_cfg = MatrixRunConfig {
                shard: Some(Shard { index, count: 3 }),
                ..cfg
            };
            let part = run_cells(&cells, &[Strategy::Min], &shard_cfg);
            for cell in part.cells {
                let at = cells
                    .iter()
                    .position(|c| c.label() == cell.label())
                    .unwrap();
                assert!(Shard { index, count: 3 }.owns(at));
                assert!(stitched[at].replace(cell).is_none(), "cell run twice");
            }
        }
        let stitched: Vec<CellResult> = stitched.into_iter().map(Option::unwrap).collect();
        // Compare the deterministic fields (wall_seconds differs by run).
        for (a, b) in stitched.iter().zip(&full.cells) {
            assert_eq!(cell_json(a, cfg.arc, false), cell_json(b, cfg.arc, false));
        }
    }

    #[test]
    fn sink_panic_aborts_the_streaming_run_instead_of_deadlocking() {
        // A consumer-side panic (e.g. the output file's disk filling up)
        // must propagate out of the scope, not leave workers parked on
        // the window condvar forever.
        let cells: Vec<Scenario> = (0..6)
            .map(|i| {
                let mut c = tiny_cell();
                c.apps = 1;
                c.base.seed = 0xF7E5 + i;
                c
            })
            .collect();
        let cfg = MatrixRunConfig {
            threads: Threads(4),
            ..MatrixRunConfig::default()
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cells_streaming(&cells, &[Strategy::Min], &cfg, |i, _| {
                assert!(i < 1, "sink failure");
            });
        }));
        assert!(outcome.is_err(), "the sink panic was swallowed");
    }

    #[test]
    fn worker_panic_aborts_the_streaming_run_instead_of_deadlocking() {
        // A worker-side panic (here: a structurally impossible cell) must
        // wake the consumer and propagate instead of hanging it on
        // `cell_finished`.
        let mut poison = tiny_cell();
        poison.apps = 1;
        poison.base.node_types = 0; // generate_platform asserts >= 1
        let mut cells: Vec<Scenario> = (0..5)
            .map(|i| {
                let mut c = tiny_cell();
                c.apps = 1;
                c.base.seed = 0xF7E5 + i;
                c
            })
            .collect();
        cells.insert(3, poison);
        let cfg = MatrixRunConfig {
            threads: Threads(3),
            ..MatrixRunConfig::default()
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cells(&cells, &[Strategy::Min], &cfg);
        }));
        assert!(outcome.is_err(), "the worker panic was swallowed");
    }

    #[test]
    fn nested_worker_pools_share_one_core_budget() {
        // The threads² regression: with a budget of 2 cores, 4 cells × 4
        // apps must never have more than 2 generator calls in flight (cell
        // workers × app workers ≤ budget). Before the budget sharing, each
        // of the 2 cell workers would fan apps out over all cores.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let cells: Vec<Scenario> = (0..4)
            .map(|i| {
                let mut c = tiny_cell();
                c.apps = 4;
                c.base.seed = 0xF7E5 + i;
                c
            })
            .collect();
        let budget = CoreBudget::new(2);
        let (workers, per_cell) = budget.fan_out(cells.len());
        assert_eq!(workers, 2);
        assert_eq!(per_cell.get(), 1);
        // Drive the same nested path run_cells_streaming uses, with an
        // instrumented generator standing in for Scenario::generate.
        std::thread::scope(|scope| {
            for chunk in cells.chunks(cells.len() / workers) {
                let (live, peak) = (&live, &peak);
                scope.spawn(move || {
                    for cell in chunk {
                        let _ = crate::experiment::run_strategy_over(
                            |i| {
                                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                                peak.fetch_max(now, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                live.fetch_sub(1, Ordering::SeqCst);
                                cell.generate(i)
                            },
                            2,
                            Strategy::Min,
                            per_cell,
                            None,
                        );
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= budget.get(),
            "peak {} exceeds the {}-core budget",
            peak.load(Ordering::SeqCst),
            budget.get()
        );
    }
}
