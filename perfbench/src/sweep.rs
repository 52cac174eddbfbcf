//! Inputs and reference outputs of the dist and matrix probes: the 216-cell v2 scenario matrix for a seed, and the
//! digest of every cell's payload computed by the sequential per-cell
//! path.

use ftes_bench::dist::protocol::fnv64;
use ftes_bench::matrix::{cell_json, run_cell_budgeted};
use ftes_bench::Strategy;
use ftes_gen::{Scenario, ScenarioMatrix};
use ftes_model::Cost;
use ftes_opt::CoreBudget;

use crate::env::Rng;

/// Acceptance threshold the payloads are rendered at (the runners' default).
pub const ARC: Cost = Cost::new(20);
/// Threads computing the sequential reference, one cell at a time each.
const REFERENCE_THREADS: usize = 2;

/// The full v2 matrix with a seed in each cell's base condition. Every
/// cell draws its own instances: with one shared base seed all 216 cells
/// re-price the same two graphs, so a run's work would hinge on two
/// random draws.
pub fn cells(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::stream(seed, 2);
    let mut cells = ScenarioMatrix::full_v2().cells();
    for cell in &mut cells {
        cell.base.seed = rng.next_u64();
    }
    cells
}

pub fn digest(payload: &str) -> u64 {
    fnv64(payload.as_bytes())
}

/// Drops the measured `wall_seconds` fields from a rendered cell, which
/// leaves exactly the untimed rendering.
pub fn strip_timings(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    for line in payload.split_inclusive('\n') {
        if line.trim_start().starts_with("\"wall_seconds\"") {
            // The field before it carried the separating comma.
            if out.ends_with(",\n") {
                out.truncate(out.len() - 2);
                out.push('\n');
            }
            continue;
        }
        out.push_str(line);
    }
    out
}

/// Digest of every cell's untimed payload under `strategies`, each cell
/// run by the sequential per-cell path on a budget of one core (cells
/// are independent; [`REFERENCE_THREADS`] threads share them out).
pub fn reference(cells: &[Scenario], strategies: &[Strategy]) -> Vec<u64> {
    let mut out = vec![0u64; cells.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..REFERENCE_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    (t..cells.len())
                        .step_by(REFERENCE_THREADS)
                        .map(|i| {
                            let cell = run_cell_budgeted(&cells[i], strategies, CoreBudget::new(1));
                            (i, digest(&cell_json(&cell, ARC, false)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, d) in h.join().expect("reference thread panicked") {
                out[i] = d;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_bench::matrix::{run_cell, CellResult};

    #[test]
    fn stripping_timings_gives_the_untimed_rendering() {
        let cells = ScenarioMatrix::smoke().cells();
        let cell: CellResult = run_cell(&cells[0], &[Strategy::Min, Strategy::Max]);
        let timed = cell_json(&cell, ARC, true);
        assert_ne!(timed, cell_json(&cell, ARC, false));
        assert_eq!(strip_timings(&timed), cell_json(&cell, ARC, false));
    }

    #[test]
    fn cells_depend_on_the_seed_only() {
        assert_eq!(cells(3), cells(3));
        assert_eq!(cells(3).len(), 216);
        assert_ne!(cells(3)[0].base.seed, cells(4)[0].base.seed);
    }
}
