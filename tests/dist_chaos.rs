//! Fault-injection suite for the distributed matrix runner.
//!
//! The contract under test: whatever the chaos schedule does to the
//! workers — kills mid-cell, stalls past the lease deadline, corrupted
//! or truncated result frames, duplicate completions, or no workers at
//! all — the coordinator's merged document is **byte-for-byte
//! identical** to the fault-free run, every cell is emitted exactly
//! once, and nothing hangs.

use ftes::bench::dist::{
    run_dist_local, ChaosPlan, DistConfig, LocalWorkerSpec, RunOpts, WorkerOutcome,
};
use ftes::bench::{cell_json, run_cell_seeded, Strategy};
use ftes::gen::{
    BusProfile, FaultLoad, GraphShape, Heterogeneity, MessageLoad, Scenario, ScenarioMatrix,
    Utilization,
};
use ftes::model::{Cost, TimeUs};
use ftes::opt::CoreBudget;

/// A 6-cell mini-matrix spanning the v2 axes, small enough that a full
/// chaos schedule (with its deliberate stalls) stays test-sized.
fn mini_matrix() -> Vec<Scenario> {
    ScenarioMatrix {
        buses: vec![
            BusProfile::Ideal,
            BusProfile::Tdma {
                slot: TimeUs::from_ms(1),
            },
        ],
        platforms: vec![Heterogeneity::Wide],
        utilizations: vec![Utilization::Tight],
        shapes: vec![GraphShape::Fan],
        messages: vec![MessageLoad::Paper, MessageLoad::Bulk],
        faults: vec![
            FaultLoad::Base,
            FaultLoad::SerHpd {
                ser_h1: 1e-10,
                hpd: 1.0,
            },
        ],
        app_counts: vec![1],
        base: ftes::gen::ExperimentConfig::default(),
    }
    .cells()
    .into_iter()
    .take(6)
    .collect()
}

const ARC: Cost = Cost::new(20);

fn strategies() -> Vec<Strategy> {
    vec![Strategy::Opt, Strategy::Min]
}

/// The fault-free oracle: the same cells through the same engine,
/// sequentially, rendered without timings.
fn sequential_payloads(cells: &[Scenario]) -> Vec<String> {
    let strats = strategies();
    cells
        .iter()
        .map(|c| {
            cell_json(
                &run_cell_seeded(c, &strats, CoreBudget::new(1), None).0,
                ARC,
                false,
            )
        })
        .collect()
}

/// A test-sized config: short leases and grace so injected stalls and
/// desertions resolve in hundreds of milliseconds, timings off so
/// payloads are bytewise deterministic.
fn test_cfg() -> DistConfig {
    DistConfig {
        lease_ms: 1_500,
        grace_ms: 300,
        io_poll_ms: 10,
        timings: false,
        ..DistConfig::default()
    }
}

/// [`test_cfg`] with a grace window no registration delay can reach: the
/// coordinator never falls back to local execution, so a test whose
/// workers are all healthy can assert that they did every cell. Tests
/// that exercise the fallback keep [`test_cfg`]'s 300 ms.
fn workers_only_cfg() -> DistConfig {
    DistConfig {
        grace_ms: u64::MAX,
        ..test_cfg()
    }
}

/// Runs the distributed sweep and returns (stats, reports, payloads in
/// emission order) — asserting the in-order sink contract along the way.
fn dist_run(
    cells: &[Scenario],
    cfg: &DistConfig,
    workers: &[LocalWorkerSpec],
) -> (
    ftes::bench::dist::DistStats,
    Vec<ftes::bench::dist::WorkerReport>,
    Vec<String>,
) {
    let strats = strategies();
    let mut got: Vec<(usize, String)> = Vec::new();
    let (stats, reports) = run_dist_local(
        cells,
        &strats,
        ARC,
        cfg,
        workers,
        CoreBudget::new(2),
        |i, payload| got.push((i, payload.to_string())),
    )
    .expect("distributed run failed");
    let order: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
    assert_eq!(
        order,
        (0..cells.len()).collect::<Vec<_>>(),
        "sink must observe cells in matrix order"
    );
    (stats, reports, got.into_iter().map(|(_, p)| p).collect())
}

#[test]
fn fault_free_distributed_run_matches_sequential_bytes() {
    let cells = mini_matrix();
    let expected = sequential_payloads(&cells);
    let workers = [
        LocalWorkerSpec {
            seed: 1,
            ..LocalWorkerSpec::default()
        },
        LocalWorkerSpec {
            seed: 2,
            ..LocalWorkerSpec::default()
        },
    ];
    let (stats, reports, got) = dist_run(&cells, &workers_only_cfg(), &workers);
    assert_eq!(got, expected);
    assert_eq!(stats.cells_emitted, cells.len() as u64);
    assert_eq!(stats.results_ok, cells.len() as u64);
    assert_eq!(stats.workers_registered, 2);
    assert_eq!(stats.local_fallback_cells, 0, "workers should do the work");
    for r in &reports {
        assert_eq!(r.outcome, WorkerOutcome::Shutdown, "clean wind-down");
    }
    let computed: u64 = reports.iter().map(|r| r.cells_completed).sum();
    assert!(computed >= cells.len() as u64);
}

#[test]
fn deserted_coordinator_falls_back_to_local_without_hanging() {
    let cells = mini_matrix();
    let expected = sequential_payloads(&cells);
    let cfg = DistConfig {
        grace_ms: 0, // fall back immediately
        ..test_cfg()
    };
    let (stats, reports, got) = dist_run(&cells, &cfg, &[]);
    assert_eq!(got, expected);
    assert!(reports.is_empty());
    assert_eq!(stats.local_fallback_cells, cells.len() as u64);
    assert_eq!(stats.workers_registered, 0);
}

#[test]
fn every_chaos_schedule_preserves_the_artifact_bytes() {
    let cells = mini_matrix();
    let expected = sequential_payloads(&cells);
    let schedules = [
        "kill:1",
        "hang:1",
        "corrupt:2",
        "dup:2",
        "kill:1,hang:1,corrupt:2,dup:1",
    ];
    for spec in schedules {
        let plan = ChaosPlan::parse(spec).unwrap();
        for seed in [3u64, 11] {
            // Worker 0 misbehaves per the schedule; worker 1 is clean —
            // the pair exercises re-queue + takeover.
            let workers = [
                LocalWorkerSpec { chaos: plan, seed },
                LocalWorkerSpec {
                    seed: seed + 100,
                    ..LocalWorkerSpec::default()
                },
            ];
            let (stats, reports, got) = dist_run(&cells, &test_cfg(), &workers);
            assert_eq!(
                got, expected,
                "chaos {spec:?} seed {seed} changed the artifact"
            );
            assert_eq!(stats.cells_emitted, cells.len() as u64);
            // Whatever happened, accounting must balance: every granted
            // lease was answered, expired or re-queued — never lost.
            assert!(
                stats.results_ok >= cells.len() as u64,
                "chaos {spec:?} seed {seed}: {stats:?}"
            );
            let fired: u64 = reports.iter().map(|r| r.chaos_fired).sum();
            let disturbance = stats.leases_requeued
                + stats.duplicates_dropped
                + stats.results_rejected
                + stats.leases_expired
                + stats.local_fallback_cells;
            assert!(
                fired == 0 || disturbance > 0,
                "chaos {spec:?} seed {seed}: {fired} faults fired but no disturbance recorded: {stats:?}"
            );
        }
    }
}

#[test]
fn duplicate_completions_are_dropped_and_counted() {
    let cells = mini_matrix();
    let expected = sequential_payloads(&cells);
    // A single worker with a dup-heavy budget: every duplicate must be
    // detected by the coordinator, not merged twice.
    let workers = [LocalWorkerSpec {
        chaos: ChaosPlan::parse("dup:3").unwrap(),
        seed: 5,
    }];
    let (stats, reports, got) = dist_run(&cells, &workers_only_cfg(), &workers);
    assert_eq!(got, expected);
    assert_eq!(stats.cells_emitted, cells.len() as u64);
    let fired = reports[0].chaos_fired;
    assert!(fired > 0, "seed 5 never fired a dup over 6 leases");
    assert_eq!(
        stats.duplicates_dropped, fired,
        "every duplicated frame is dropped exactly once: {stats:?}"
    );
}

#[test]
fn killed_worker_hands_its_cells_back() {
    let cells = mini_matrix();
    let expected = sequential_payloads(&cells);
    // Only one worker, and it dies: the coordinator must finish the
    // matrix itself after the grace period.
    let workers = [LocalWorkerSpec {
        chaos: ChaosPlan::parse("kill:1").unwrap(),
        seed: 3,
    }];
    let (stats, reports, got) = dist_run(&cells, &test_cfg(), &workers);
    assert_eq!(got, expected);
    assert_eq!(stats.cells_emitted, cells.len() as u64);
    if reports[0].chaos_fired > 0 {
        assert_eq!(reports[0].outcome, WorkerOutcome::Killed);
        assert!(
            stats.local_fallback_cells > 0 || stats.leases_requeued > 0,
            "a kill must surface as requeue or fallback: {stats:?}"
        );
    }
}

#[test]
fn worker_that_dies_right_after_registering_hands_everything_back() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use ftes::bench::dist::{matrix_fingerprint, Coordinator, Frame, PROTO_VERSION};

    let cells = mini_matrix();
    let expected = sequential_payloads(&cells);
    let strats = strategies();
    let cfg = test_cfg();
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind coordinator");
    let addr = coordinator.local_addr();
    let fingerprint = matrix_fingerprint(&cells, &strats, ARC, cfg.timings);
    let (stats, got) = std::thread::scope(|scope| {
        scope.spawn(|| {
            // A raw dead-on-arrival worker: registers correctly, gets its
            // first lease batch granted, then vanishes without answering a
            // single lease. Every granted lease must be recovered — a cell
            // marked Leased but tracked nowhere would hang the run.
            let mut stream = TcpStream::connect(addr).expect("connect fake worker");
            stream
                .write_all(
                    Frame::Hello {
                        proto: PROTO_VERSION,
                        name: "doa".to_string(),
                        fingerprint,
                    }
                    .render()
                    .as_bytes(),
                )
                .expect("send hello");
            let mut lines = BufReader::new(stream);
            let mut welcome = String::new();
            lines.read_line(&mut welcome).expect("read welcome");
            assert!(matches!(Frame::parse(&welcome), Ok(Frame::Welcome { .. })));
            // Drop the connection: the coordinator's lease sends hit a
            // closing socket (some mid-batch), then the read sees EOF.
        });
        let mut got: Vec<String> = Vec::new();
        let stats = coordinator
            .run(
                &cells,
                &strats,
                ARC,
                CoreBudget::new(2),
                RunOpts::default(),
                |_, p| got.push(p.to_string()),
            )
            .expect("run");
        (stats, got)
    });
    assert_eq!(got, expected, "a DOA worker must not change the bytes");
    assert_eq!(stats.cells_emitted, cells.len() as u64);
    assert_eq!(stats.workers_registered, 1);
    assert_eq!(stats.local_fallback_cells, cells.len() as u64);
    assert!(
        stats.leases_requeued >= 1,
        "the DOA worker's granted leases must come back: {stats:?}"
    );
}

#[test]
fn mismatched_worker_is_rejected_not_fed_leases() {
    let cells = mini_matrix();
    let expected = sequential_payloads(&cells);
    let strats = strategies();
    let cfg = test_cfg();
    let coordinator =
        ftes::bench::dist::Coordinator::bind("127.0.0.1:0", cfg).expect("bind coordinator");
    let addr = coordinator.local_addr().to_string();
    let (stats, report, got) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            // This worker renders timings — a different fingerprint, so
            // its cell indices would not mean the same bytes.
            let wcfg = ftes::bench::dist::WorkerConfig {
                timings: true,
                io_poll_ms: 10,
                ..ftes::bench::dist::WorkerConfig::default()
            };
            ftes::bench::dist::run_worker(&addr, &cells, &strats, ARC, &wcfg)
        });
        let mut got: Vec<String> = Vec::new();
        let stats = coordinator
            .run(
                &cells,
                &strats,
                ARC,
                CoreBudget::new(2),
                RunOpts::default(),
                |_, p| got.push(p.to_string()),
            )
            .expect("run");
        (stats, handle.join().expect("worker thread"), got)
    });
    assert_eq!(got, expected, "rejected worker must not affect the bytes");
    assert!(matches!(report.outcome, WorkerOutcome::Rejected(_)));
    assert_eq!(stats.workers_rejected, 1);
    assert_eq!(stats.local_fallback_cells, cells.len() as u64);
}

#[test]
fn run_ends_without_waiting_on_the_accept_poll_slice() {
    // A read slice of 5 s, and 4 cheap MIN cells: neither the accepts
    // nor the end of the run may wait on the slice, so the whole run
    // takes milliseconds, not a multiple of 5 s.
    let cells: Vec<Scenario> = mini_matrix().into_iter().take(4).collect();
    let cfg = DistConfig {
        io_poll_ms: 5_000,
        ..test_cfg()
    };
    let workers = [
        LocalWorkerSpec {
            seed: 1,
            ..LocalWorkerSpec::default()
        },
        LocalWorkerSpec {
            seed: 2,
            ..LocalWorkerSpec::default()
        },
    ];
    let start = std::time::Instant::now();
    let (stats, _) = run_dist_local(
        &cells,
        &[Strategy::Min],
        ARC,
        &cfg,
        &workers,
        CoreBudget::new(2),
        |_, _| {},
    )
    .expect("distributed run failed");
    let took = start.elapsed();
    assert_eq!(stats.cells_emitted, cells.len() as u64);
    assert!(
        took < std::time::Duration::from_secs(1),
        "run took {took:?}"
    );
}
