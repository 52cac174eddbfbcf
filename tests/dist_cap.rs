//! The coordinator's connection cap, through real sockets.
//!
//! This is its own test binary because it counts the process's
//! threads, which tests running beside it would disturb.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ftes::bench::dist::protocol::checksum;
use ftes::bench::dist::{
    matrix_fingerprint, Coordinator, DistConfig, Frame, RunOpts, PROTO_VERSION,
};
use ftes::bench::{cell_json, run_cell_budgeted, Strategy};
use ftes::gen::{
    BusProfile, FaultLoad, GraphShape, Heterogeneity, MessageLoad, Scenario, ScenarioMatrix,
    Utilization,
};
use ftes::model::Cost;
use ftes::opt::CoreBudget;

/// Live connections the coordinator serves at once.
const CAP: usize = 64;
const ARC: Cost = Cost::new(20);

fn cells() -> Vec<Scenario> {
    ScenarioMatrix {
        buses: vec![BusProfile::Ideal],
        platforms: vec![Heterogeneity::Wide],
        utilizations: vec![Utilization::Tight],
        shapes: vec![GraphShape::Fan],
        messages: vec![MessageLoad::Paper, MessageLoad::Bulk],
        faults: vec![FaultLoad::Base],
        app_counts: vec![1],
        base: ftes::gen::ExperimentConfig::default(),
    }
    .cells()
}

/// Threads of this process, where the platform says (`None` elsewhere).
fn threads() -> Option<usize> {
    cfg!(target_os = "linux").then(|| {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    })
}

fn send(stream: &mut TcpStream, frame: &Frame) {
    stream
        .write_all(frame.render().as_bytes())
        .expect("send frame");
}

fn read_frame(reader: &mut impl BufRead) -> Frame {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read frame");
    Frame::parse(&line).expect("parse frame")
}

/// Connects one connection too many and reads the refusal.
fn refused(addr: SocketAddr) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    assert_eq!(
        read_frame(&mut BufReader::new(stream)),
        Frame::Reject {
            reason: "busy".to_string()
        }
    );
}

#[test]
fn connection_over_the_cap_is_refused_without_a_handler_thread() {
    let cells = cells();
    let strats = [Strategy::Min];
    let expected: Vec<String> = cells
        .iter()
        .map(|c| {
            cell_json(
                &run_cell_budgeted(c, &strats, CoreBudget::new(1)),
                ARC,
                false,
            )
        })
        .collect();
    // No lease expires and the coordinator never runs a cell itself:
    // the run ends only once the test's worker answers its leases.
    let cfg = DistConfig {
        lease_ms: 60_000,
        grace_ms: u64::MAX,
        io_poll_ms: 10,
        timings: false,
        ..DistConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind coordinator");
    let addr = coordinator.local_addr();
    let fingerprint = matrix_fingerprint(&cells, &strats, ARC, cfg.timings);
    let (stats, got) = std::thread::scope(|scope| {
        scope.spawn(|| {
            // A registered worker that holds its leases keeps the run
            // open while the cap fills.
            let mut worker = TcpStream::connect(addr).expect("connect worker");
            let mut frames = BufReader::new(worker.try_clone().expect("clone"));
            send(
                &mut worker,
                &Frame::Hello {
                    proto: PROTO_VERSION,
                    name: "holder".to_string(),
                    fingerprint,
                },
            );
            let Frame::Welcome { epoch, .. } = read_frame(&mut frames) else {
                panic!("not welcomed");
            };
            // The rest of the cap: connections that never say hello,
            // each holding a handler in its hello wait.
            let silent: Vec<TcpStream> = (1..CAP)
                .map(|_| TcpStream::connect(addr).expect("connect"))
                .collect();
            // The acceptor serves connections in order, so the refusal
            // of the first one over the cap means every handler above
            // has been spawned.
            refused(addr);
            let before = threads();
            refused(addr);
            assert_eq!(threads(), before, "a refused connection got a thread");
            drop(silent);
            // Now answer both leases; the coordinator then shuts down.
            for _ in 0..cells.len() {
                let Frame::Lease { lease, cell, .. } = read_frame(&mut frames) else {
                    panic!("expected a lease");
                };
                let payload = expected[cell].clone();
                let crc = checksum(&payload);
                let result = Frame::Result {
                    lease,
                    cell,
                    epoch,
                    crc,
                    payload,
                };
                send(&mut worker, &result);
            }
            assert_eq!(read_frame(&mut frames), Frame::Shutdown);
            send(&mut worker, &Frame::Bye);
        });
        let mut got: Vec<String> = Vec::new();
        let stats = coordinator
            .run(
                &cells,
                &strats,
                ARC,
                CoreBudget::new(1),
                RunOpts::default(),
                |_, p| got.push(p.to_string()),
            )
            .expect("run");
        (stats, got)
    });
    assert_eq!(got, expected);
    assert_eq!(stats.workers_rejected, 2, "{stats:?}");
    assert_eq!(stats.workers_registered, 1, "{stats:?}");
    assert_eq!(stats.workers_disconnected, 1, "{stats:?}");
    assert_eq!(stats.leases_granted, cells.len() as u64, "{stats:?}");
    assert_eq!(stats.results_ok, cells.len() as u64, "{stats:?}");
}
