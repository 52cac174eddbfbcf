//! Crash-safety suite for the distributed matrix runner's write-ahead
//! journal and `--resume` path.
//!
//! The contract under test: kill the coordinator mid-run (after at
//! least one verified result) and resume from its journal, and the
//! final artifact is **byte-for-byte identical** to the sequential
//! run, every cell is emitted exactly once across both coordinator
//! lives, and no cell that was durable before the crash is ever
//! recomputed. Surviving workers re-register against the resumed
//! coordinator under its new epoch; results stamped with the dead
//! life's epoch are dropped, not double-emitted. The journal loader
//! itself must accept a torn tail (truncate-and-continue) at *any*
//! byte boundary but hard-error on interior corruption or a journal
//! from a different sweep.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use ftes::bench::dist::{
    load_journal, matrix_fingerprint, run_worker, Coordinator, DistConfig, Journal, RunOpts,
    WorkerConfig, WorkerOutcome,
};
use ftes::bench::{cell_json, run_cell_seeded, Strategy, ENGINE_VERSION};
use ftes::gen::{
    BusProfile, FaultLoad, GraphShape, Heterogeneity, MessageLoad, Scenario, ScenarioMatrix,
    Utilization,
};
use ftes::model::{Cost, TimeUs};
use ftes::opt::CoreBudget;
use proptest::prelude::*;

/// A 6-cell mini-matrix (the `dist_chaos` one): small enough that a
/// crash-and-resume cycle stays test-sized.
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

fn test_cfg() -> DistConfig {
    DistConfig {
        lease_ms: 1_500,
        grace_ms: 300,
        io_poll_ms: 10,
        timings: false,
        ..DistConfig::default()
    }
}

/// A unique scratch path under the system temp dir (no reliance on
/// tempfile — the suite stays std-only like the code it tests).
fn scratch_path(tag: &str) -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ftes_dist_resume_{}_{}_{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("run.journal").to_string_lossy().into_owned()
}

/// A worker config patient enough to outlive a coordinator restart:
/// short backoff, many attempts, fingerprint-compatible rendering.
fn patient_worker(name: &str, seed: u64) -> WorkerConfig {
    WorkerConfig {
        name: name.to_string(),
        backoff_base_ms: 20,
        backoff_cap_ms: 100,
        max_attempts: 100,
        io_poll_ms: 10,
        timings: false,
        seed,
        ..WorkerConfig::default()
    }
}

/// The headline test: coordinator + 2 workers, `ckill` the coordinator
/// after 2 verified results, resume from the journal on the **same
/// address** (the workers keep retrying it), and prove zero
/// recomputation plus a byte-identical artifact.
#[test]
fn coordinator_killed_mid_run_resumes_from_journal_without_recompute() {
    const CKILL_AFTER: u64 = 2;
    let cells = mini_matrix();
    let total = cells.len();
    let expected = sequential_payloads(&cells);
    let strats = strategies();
    let cfg = test_cfg();
    let journal_path = scratch_path("ckill");
    let fingerprint = matrix_fingerprint(&cells, &strats, ARC, cfg.timings);

    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind life 1");
    let addr = coordinator.local_addr().to_string();

    let (life1, stats2, emitted1, emitted2, durable, reports) = std::thread::scope(|scope| {
        let w1 = {
            let (addr, cells, strats) = (addr.clone(), &cells, &strats);
            scope.spawn(move || run_worker(&addr, cells, strats, ARC, &patient_worker("w1", 1)))
        };
        let w2 = {
            let (addr, cells, strats) = (addr.clone(), &cells, &strats);
            scope.spawn(move || run_worker(&addr, cells, strats, ARC, &patient_worker("w2", 2)))
        };

        // Life 1: journaling, rigged to "crash" after two durable cells.
        let journal =
            Journal::create(&journal_path, &fingerprint, ENGINE_VERSION, total).expect("create");
        let mut emitted1: Vec<(usize, String)> = Vec::new();
        let life1 = coordinator.run(
            &cells,
            &strats,
            ARC,
            CoreBudget::new(2),
            RunOpts {
                journal: Some(journal),
                ckill_after: CKILL_AFTER,
                ..RunOpts::default()
            },
            |i, p| emitted1.push((i, p.to_string())),
        );

        // Life 2: rebind the *same* address (the workers only know that
        // one), seed the durable set from the journal, run to the end.
        let (journal, replay) =
            Journal::resume(&journal_path, &fingerprint, ENGINE_VERSION, total).expect("resume");
        assert_eq!(replay.epoch, 2, "second life, second epoch");
        assert!(
            replay.payloads.len() as u64 >= CKILL_AFTER,
            "every result the ckill counted must already be durable: {} < {CKILL_AFTER}",
            replay.payloads.len()
        );
        let durable: Vec<usize> = replay.payloads.keys().copied().collect();
        let resumed = Coordinator::bind(&addr, cfg).expect("rebind life 2");
        let mut emitted2: Vec<(usize, String)> = Vec::new();
        let stats2 = resumed
            .run(
                &cells,
                &strats,
                ARC,
                CoreBudget::new(2),
                RunOpts {
                    journal: Some(journal),
                    durable: durable.clone(),
                    epoch: replay.epoch,
                    ..RunOpts::default()
                },
                |i, p| emitted2.push((i, p.to_string())),
            )
            .expect("resumed run");
        let reports = vec![w1.join().expect("w1"), w2.join().expect("w2")];
        (life1, stats2, emitted1, emitted2, durable, reports)
    });

    // Life 1 ended as a simulated crash, not a success.
    let err = life1.expect_err("ckill must abort the first life");
    assert!(err.contains("ckill"), "unexpected abort reason: {err}");

    // The journal holds the whole matrix now; its bytes are the
    // artifact, and they match the sequential oracle exactly.
    let final_replay =
        load_journal(&journal_path, &fingerprint, ENGINE_VERSION, total).expect("final load");
    assert_eq!(final_replay.payloads.len(), total, "journal incomplete");
    assert_eq!(final_replay.truncated_bytes, 0);
    let journal_payloads: Vec<String> = final_replay.payloads.values().cloned().collect();
    assert_eq!(
        journal_payloads, expected,
        "resumed artifact differs from the sequential run"
    );

    // Exactly-once across both lives: life 1 only emitted durable
    // cells (journal-before-emission), life 2 emitted exactly the
    // complement of the durable set, and the two sinks are disjoint.
    let durable: BTreeSet<usize> = durable.into_iter().collect();
    let sunk1: BTreeSet<usize> = emitted1.iter().map(|(i, _)| *i).collect();
    let sunk2: BTreeSet<usize> = emitted2.iter().map(|(i, _)| *i).collect();
    assert!(
        sunk1.is_disjoint(&sunk2),
        "a cell was emitted in both lives"
    );
    assert!(
        sunk1.iter().all(|i| durable.contains(i)),
        "life 1 emitted a cell it never journaled"
    );
    assert!(
        sunk2.iter().all(|i| !durable.contains(i)),
        "life 2 re-emitted a cell the journal already held"
    );
    assert_eq!(
        sunk1.len() + sunk2.len() + (durable.len() - sunk1.len()),
        total,
        "exactly-once accounting across lives"
    );
    assert_eq!(
        stats2.resumed_cells + stats2.cells_emitted,
        total as u64,
        "resumed + emitted must cover the matrix: {stats2:?}"
    );
    assert_eq!(stats2.resumed_cells, durable.len() as u64);
    for (i, p) in &emitted2 {
        assert_eq!(p, &expected[*i], "cell {i} bytes changed across the crash");
    }

    // Zero recomputation: the resumed life never leased a durable cell.
    assert!(
        stats2.leases_granted < total as u64,
        "resume re-leased completed cells: {} leases for {} remaining",
        stats2.leases_granted,
        total as u64 - stats2.resumed_cells
    );

    // The workers survived the crash: both re-registered against the
    // resumed coordinator and were shut down cleanly by it.
    for r in &reports {
        assert_eq!(
            r.outcome,
            WorkerOutcome::Shutdown,
            "a worker never reached the resumed coordinator: {r:?}"
        );
    }
    assert!(
        reports.iter().map(|r| r.connects).sum::<u64>() >= 3,
        "at least one worker must have reconnected: {reports:?}"
    );
}

/// A forged result stamped with the previous life's epoch is dropped
/// and counted — never double-emitted, never treated as a duplicate.
#[test]
fn stale_epoch_results_are_dropped_not_double_emitted() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use ftes::bench::dist::protocol::checksum;
    use ftes::bench::dist::{Frame, PROTO_VERSION};

    let cells: Vec<Scenario> = mini_matrix().into_iter().take(2).collect();
    let expected = sequential_payloads(&cells);
    let strats = strategies();
    let cfg = test_cfg();
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr();
    let fingerprint = matrix_fingerprint(&cells, &strats, ARC, test_cfg().timings);

    let (stats, got) = std::thread::scope(|scope| {
        scope.spawn(|| {
            // A hand-rolled worker that answers every lease twice: once
            // with a stale epoch-1 stamp (as if a previous-life lease
            // were still in flight), then correctly under the epoch the
            // welcome announced.
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(
                    Frame::Hello {
                        proto: PROTO_VERSION,
                        name: "time-traveller".to_string(),
                        fingerprint: fingerprint.clone(),
                    }
                    .render()
                    .as_bytes(),
                )
                .expect("hello");
            let mut lines = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            lines.read_line(&mut line).expect("welcome");
            let epoch = match Frame::parse(&line) {
                Ok(Frame::Welcome { epoch, .. }) => epoch,
                other => panic!("expected welcome, got {other:?}"),
            };
            assert_eq!(epoch, 3, "the coordinator must announce its epoch");
            loop {
                line.clear();
                if lines.read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                match Frame::parse(&line) {
                    Ok(Frame::Lease { lease, cell, .. }) => {
                        let payload = cell_json(
                            &run_cell_seeded(&cells[cell], &strats, CoreBudget::new(1), None).0,
                            ARC,
                            false,
                        );
                        for e in [epoch - 1, epoch] {
                            stream
                                .write_all(
                                    Frame::Result {
                                        lease,
                                        cell,
                                        epoch: e,
                                        crc: checksum(&payload),
                                        payload: payload.clone(),
                                    }
                                    .render()
                                    .as_bytes(),
                                )
                                .expect("send result");
                        }
                    }
                    Ok(Frame::Shutdown) => {
                        let _ = stream.write_all(Frame::Bye.render().as_bytes());
                        break;
                    }
                    _ => {}
                }
            }
        });
        let mut got: Vec<String> = Vec::new();
        let stats = coordinator
            .run(
                &cells,
                &strats,
                ARC,
                CoreBudget::new(2),
                RunOpts {
                    epoch: 3,
                    ..RunOpts::default()
                },
                |_, p| got.push(p.to_string()),
            )
            .expect("run");
        (stats, got)
    });

    assert_eq!(got, expected, "stale frames must not change the artifact");
    assert_eq!(stats.cells_emitted, cells.len() as u64);
    assert!(
        stats.stale_results >= 1,
        "the forged previous-epoch frames must be counted: {stats:?}"
    );
    assert_eq!(
        stats.duplicates_dropped, 0,
        "a stale frame is not a duplicate — it is dropped before the \
         lease table ever sees it: {stats:?}"
    );
}

/// Journals from a different sweep, engine, or with a corrupted
/// interior record are one-line hard errors — only the *tail* may be
/// torn.
#[test]
fn guard_mismatches_and_interior_corruption_refuse_to_resume() {
    let path = scratch_path("guards");
    let mut journal = Journal::create(&path, "fp-a", ENGINE_VERSION, 3).expect("create");
    journal.append_cell(0, "alpha").expect("append");
    journal.append_cell(1, "beta").expect("append");
    drop(journal);

    let err = load_journal(&path, "fp-b", ENGINE_VERSION, 3).expect_err("wrong sweep");
    assert!(err.contains("different sweep"), "{err}");
    let err = load_journal(&path, "fp-a", ENGINE_VERSION + 1, 3).expect_err("wrong engine");
    assert!(err.contains("engine version"), "{err}");
    let err = load_journal(&path, "fp-a", ENGINE_VERSION, 4).expect_err("wrong cell count");
    assert!(err.contains("cells"), "{err}");

    // Flip one payload byte of an *interior* record: its checksum no
    // longer matches, and truncate-and-continue must not apply.
    let text = std::fs::read_to_string(&path).expect("read");
    let tampered = text.replacen("alpha", "alphA", 1);
    assert_ne!(text, tampered, "tamper target not found");
    std::fs::write(&path, tampered).expect("write");
    let err = load_journal(&path, "fp-a", ENGINE_VERSION, 3).expect_err("interior corruption");
    assert!(err.contains("corrupt interior record"), "{err}");
    assert!(
        Journal::resume(&path, "fp-a", ENGINE_VERSION, 3).is_err(),
        "resume must refuse a journal with corrupt interior records"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate a healthy journal at *any* byte boundary: the loader
    /// must recover every record that fits entirely before the cut,
    /// report the torn remainder, and never invent or lose an interior
    /// record. Resuming the truncated file physically removes the torn
    /// tail and leaves a journal that reloads cleanly.
    #[test]
    fn any_truncation_point_recovers_exactly_the_complete_records(cut in 1usize..10_000) {
        let path = scratch_path("prop");
        let mut journal = Journal::create(&path, "prop-fp", ENGINE_VERSION, 5).expect("create");
        let payloads = ["p0", "p1 with \"quotes\"", "p2\nmultiline", "p3", "p4"];
        for (i, p) in payloads.iter().enumerate() {
            journal.append_cell(i, p).expect("append");
        }
        drop(journal);
        let bytes = std::fs::read(&path).expect("read");
        let cut = 1 + cut % (bytes.len() - 1); // 1..len: always a real truncation
        std::fs::write(&path, &bytes[..cut]).expect("truncate");

        // Which whole lines survived the cut?
        let survivors = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let loaded = load_journal(&path, "prop-fp", ENGINE_VERSION, 5);
        if survivors == 0 {
            // Not even the header line fits: nothing to resume from.
            prop_assert!(loaded.is_err());
            let err = loaded.unwrap_err();
            prop_assert!(err.contains("no valid header"), "{err}");
        } else {
            let replay = loaded.expect("torn tails must not be fatal");
            // Lines after the header are the cell records, in order.
            let durable: Vec<usize> = replay.payloads.keys().copied().collect();
            prop_assert_eq!(&durable, &(0..survivors - 1).collect::<Vec<_>>());
            for (i, p) in &replay.payloads {
                prop_assert_eq!(p.as_str(), payloads[*i]);
            }
            let torn = (cut - bytes[..cut].iter().rposition(|&b| b == b'\n').unwrap() - 1) as u64;
            prop_assert_eq!(replay.truncated_bytes, torn);

            // Resume truncates the torn tail for real and stamps epoch 2;
            // the journal then reloads cleanly, byte-exact.
            let (journal, resumed) =
                Journal::resume(&path, "prop-fp", ENGINE_VERSION, 5).expect("resume");
            drop(journal);
            prop_assert_eq!(resumed.epoch, 2);
            prop_assert_eq!(&resumed.payloads, &replay.payloads);
            let reloaded = load_journal(&path, "prop-fp", ENGINE_VERSION, 5).expect("reload");
            prop_assert_eq!(reloaded.truncated_bytes, 0);
            prop_assert_eq!(&reloaded.payloads, &replay.payloads);
            prop_assert_eq!(reloaded.epoch, 2);
        }
    }
}
