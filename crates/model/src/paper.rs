//! Fixtures reproducing the paper's worked examples.
//!
//! The DATE'09 paper illustrates its analysis on two small systems:
//!
//! * **Fig. 1** — application `A`: a four-process task graph (`P1 → P2`,
//!   `P1 → P3`, `P2 → P4`, `P3 → P4`) with deadline 360 ms, recovery
//!   overhead μ = 15 ms and reliability goal ρ = 1 − 10⁻⁵ per hour, mapped
//!   onto two node types `N1`/`N2` with three h-versions each.
//! * **Fig. 3** — a single process `P1` on node `N1` with three h-versions,
//!   μ = 20 ms, deadline 360 ms, used to show the hardware/software recovery
//!   trade-off.
//!
//! The table layout in the published PDF is scrambled by text extraction;
//! the values here are reconstructed such that **every** derived number in
//! the paper holds (architecture costs Ca…Ce, the Appendix A.2
//! probabilities, and the Fig. 3/Fig. 4 schedulability verdicts); the
//! `paper_examples` and `appendix_a2` test suites check each of them.

use crate::architecture::Architecture;
use crate::builder::ApplicationBuilder;
use crate::bus::BusSpec;
use crate::goal::ReliabilityGoal;
use crate::ids::{HLevel, NodeId, NodeTypeId, ProcessId};
use crate::mapping::Mapping;
use crate::node::{Cost, NodeType, Platform};
use crate::prob::Prob;
use crate::system::System;
use crate::time::TimeUs;
use crate::timing::{ExecSpec, TimingDb};

fn h(level: u8) -> HLevel {
    HLevel::new(level).expect("fixture levels are valid")
}

fn spec(ms: i64, p: f64) -> ExecSpec {
    ExecSpec::new(
        TimeUs::from_ms(ms),
        Prob::new(p).expect("fixture probability"),
    )
    .expect("fixture WCET")
}

/// The application of Fig. 1: the diamond `P1 → {P2, P3} → P4` with
/// deadline and period 360 ms and μ = 15 ms.
pub fn fig1_application() -> crate::Application {
    let mut b = ApplicationBuilder::new("A");
    b.set_period(TimeUs::from_ms(360));
    let g1 = b.add_graph("G1", TimeUs::from_ms(360));
    let mu = TimeUs::from_ms(15);
    let p1 = b.add_process(g1, mu);
    let p2 = b.add_process(g1, mu);
    let p3 = b.add_process(g1, mu);
    let p4 = b.add_process(g1, mu);
    b.add_message(p1, p2, TimeUs::ZERO).expect("m1");
    b.add_message(p1, p3, TimeUs::ZERO).expect("m2");
    b.add_message(p2, p4, TimeUs::ZERO).expect("m3");
    b.add_message(p3, p4, TimeUs::ZERO).expect("m4");
    b.build().expect("fig1 application is valid")
}

/// The platform of Fig. 1: node types `N1` (costs 16/32/64) and `N2`
/// (costs 20/40/80), three h-versions each. `N2` is the faster type.
pub fn fig1_platform() -> Platform {
    Platform::new(vec![
        NodeType::new("N1", vec![Cost::new(16), Cost::new(32), Cost::new(64)], 1.2).expect("N1"),
        NodeType::new("N2", vec![Cost::new(20), Cost::new(40), Cost::new(80)], 1.0).expect("N2"),
    ])
    .expect("fig1 platform")
}

/// The WCET/failure-probability tables of Fig. 1.
pub fn fig1_timing() -> TimingDb {
    let platform = fig1_platform();
    let mut db = TimingDb::new(4, &platform);
    let n1 = NodeTypeId::new(0);
    let n2 = NodeTypeId::new(1);

    // N1: per level, WCETs for P1..P4 and failure probabilities.
    let n1_wcet = [[60, 75, 60, 75], [75, 90, 75, 90], [90, 105, 90, 105]];
    let n1_p = [
        [1.2e-3, 1.3e-3, 1.4e-3, 1.6e-3],
        [1.2e-5, 1.3e-5, 1.4e-5, 1.6e-5],
        [1.2e-10, 1.3e-10, 1.4e-10, 1.6e-10],
    ];
    // N2 is faster but the probabilities are slightly different.
    let n2_wcet = [[50, 65, 50, 65], [60, 75, 60, 75], [75, 90, 75, 90]];
    let n2_p = [
        [1.0e-3, 1.2e-3, 1.2e-3, 1.3e-3],
        [1.0e-5, 1.2e-5, 1.2e-5, 1.3e-5],
        [1.0e-10, 1.2e-10, 1.2e-10, 1.3e-10],
    ];

    for (nt, wcets, probs) in [(n1, &n1_wcet, &n1_p), (n2, &n2_wcet, &n2_p)] {
        for (li, (w_row, p_row)) in wcets.iter().zip(probs.iter()).enumerate() {
            for pi in 0..4 {
                db.set(
                    ProcessId::new(pi as u32),
                    nt,
                    h(li as u8 + 1),
                    spec(w_row[pi], p_row[pi]),
                )
                .expect("fig1 timing entry");
            }
        }
    }
    db
}

/// The full Fig. 1 problem instance (ρ = 1 − 10⁻⁵ per hour, ideal bus).
pub fn fig1_system() -> System {
    System::new(
        fig1_application(),
        fig1_platform(),
        fig1_timing(),
        ReliabilityGoal::per_hour(1e-5).expect("fig1 goal"),
        BusSpec::ideal(),
    )
    .expect("fig1 system")
}

/// The five architecture/mapping alternatives evaluated in Fig. 4.
///
/// Returns `(architecture, mapping)` for variants `'a'`–`'e'`:
///
/// | variant | architecture    | mapping                | paper verdict |
/// |---------|-----------------|------------------------|---------------|
/// | a       | `N1²`, `N2²`    | P1,P2→N1; P3,P4→N2     | schedulable, C=72 |
/// | b       | `N1²`           | all → N1               | unschedulable, C=32 |
/// | c       | `N2²`           | all → N2               | unschedulable, C=40 |
/// | d       | `N1³`           | all → N1               | unschedulable, C=64 |
/// | e       | `N2³`           | all → N2               | schedulable, C=80 |
///
/// # Panics
///
/// Panics on a variant outside `'a'..='e'`.
pub fn fig4_alternative(variant: char) -> (Architecture, Mapping) {
    let n1 = NodeTypeId::new(0);
    let n2 = NodeTypeId::new(1);
    match variant {
        'a' => {
            let mut arch = Architecture::with_min_hardening(&[n1, n2]);
            arch.set_hardening(NodeId::new(0), h(2));
            arch.set_hardening(NodeId::new(1), h(2));
            let mut mapping = Mapping::all_on(4, NodeId::new(0));
            mapping.assign(ProcessId::new(2), NodeId::new(1));
            mapping.assign(ProcessId::new(3), NodeId::new(1));
            (arch, mapping)
        }
        'b' => {
            let mut arch = Architecture::with_min_hardening(&[n1]);
            arch.set_hardening(NodeId::new(0), h(2));
            (arch, Mapping::all_on(4, NodeId::new(0)))
        }
        'c' => {
            let mut arch = Architecture::with_min_hardening(&[n2]);
            arch.set_hardening(NodeId::new(0), h(2));
            (arch, Mapping::all_on(4, NodeId::new(0)))
        }
        'd' => {
            let mut arch = Architecture::with_min_hardening(&[n1]);
            arch.set_hardening(NodeId::new(0), h(3));
            (arch, Mapping::all_on(4, NodeId::new(0)))
        }
        'e' => {
            let mut arch = Architecture::with_min_hardening(&[n2]);
            arch.set_hardening(NodeId::new(0), h(3));
            (arch, Mapping::all_on(4, NodeId::new(0)))
        }
        other => panic!("unknown Fig. 4 variant '{other}' (expected 'a'..='e')"),
    }
}

/// The single-process application of Fig. 3 (μ = 20 ms, deadline 360 ms).
pub fn fig3_application() -> crate::Application {
    let mut b = ApplicationBuilder::new("Fig3");
    b.set_period(TimeUs::from_ms(360));
    let g1 = b.add_graph("G1", TimeUs::from_ms(360));
    b.add_process(g1, TimeUs::from_ms(20));
    b.build().expect("fig3 application is valid")
}

/// The platform of Fig. 3: one node type `N1` with costs 10/20/40.
pub fn fig3_platform() -> Platform {
    Platform::new(vec![NodeType::new(
        "N1",
        vec![Cost::new(10), Cost::new(20), Cost::new(40)],
        1.0,
    )
    .expect("N1")])
    .expect("fig3 platform")
}

/// The Fig. 3 timing table: `t = 80/100/160 ms`, `p = 4·10⁻²/4·10⁻⁴/4·10⁻⁶`.
pub fn fig3_timing() -> TimingDb {
    let platform = fig3_platform();
    let mut db = TimingDb::new(1, &platform);
    let n1 = NodeTypeId::new(0);
    let p1 = ProcessId::new(0);
    db.set(p1, n1, h(1), spec(80, 4e-2)).expect("fig3 h1");
    db.set(p1, n1, h(2), spec(100, 4e-4)).expect("fig3 h2");
    db.set(p1, n1, h(3), spec(160, 4e-6)).expect("fig3 h3");
    db
}

/// The full Fig. 3 problem instance.
pub fn fig3_system() -> System {
    System::new(
        fig3_application(),
        fig3_platform(),
        fig3_timing(),
        ReliabilityGoal::per_hour(1e-5).expect("fig3 goal"),
        BusSpec::ideal(),
    )
    .expect("fig3 system")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_tables_match_appendix_a2_inputs() {
        let db = fig1_timing();
        // A.2 computes Pr(0; N1^2) from p = 1.2e-5 (P1) and 1.3e-5 (P2)...
        assert_eq!(
            db.pfail(ProcessId::new(0), NodeTypeId::new(0), h(2))
                .unwrap()
                .value(),
            1.2e-5
        );
        assert_eq!(
            db.pfail(ProcessId::new(1), NodeTypeId::new(0), h(2))
                .unwrap()
                .value(),
            1.3e-5
        );
        // ...and Pr(0; N2^2) from p = 1.2e-5 (P3) and 1.3e-5 (P4).
        assert_eq!(
            db.pfail(ProcessId::new(2), NodeTypeId::new(1), h(2))
                .unwrap()
                .value(),
            1.2e-5
        );
        assert_eq!(
            db.pfail(ProcessId::new(3), NodeTypeId::new(1), h(2))
                .unwrap()
                .value(),
            1.3e-5
        );
    }

    #[test]
    fn fig1_wcets_increase_with_hardening() {
        let db = fig1_timing();
        for nt in [NodeTypeId::new(0), NodeTypeId::new(1)] {
            for p in 0..4 {
                let p = ProcessId::new(p);
                let t1 = db.wcet(p, nt, h(1)).unwrap();
                let t2 = db.wcet(p, nt, h(2)).unwrap();
                let t3 = db.wcet(p, nt, h(3)).unwrap();
                assert!(t1 < t2 && t2 < t3, "{p} on {nt}");
            }
        }
    }

    #[test]
    fn fig4_costs_match_paper() {
        let platform = fig1_platform();
        let expected = [('a', 72), ('b', 32), ('c', 40), ('d', 64), ('e', 80)];
        for (v, cost) in expected {
            let (arch, mapping) = fig4_alternative(v);
            assert_eq!(
                arch.cost(&platform).unwrap(),
                Cost::new(cost),
                "variant {v}"
            );
            mapping
                .validate(&fig1_application(), &arch, &fig1_timing())
                .unwrap_or_else(|e| panic!("variant {v}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "unknown Fig. 4 variant")]
    fn fig4_rejects_unknown_variant() {
        let _ = fig4_alternative('z');
    }

    #[test]
    fn fig3_tables() {
        let db = fig3_timing();
        let p1 = ProcessId::new(0);
        let n1 = NodeTypeId::new(0);
        assert_eq!(db.wcet(p1, n1, h(1)).unwrap(), TimeUs::from_ms(80));
        assert_eq!(db.wcet(p1, n1, h(3)).unwrap(), TimeUs::from_ms(160));
        assert_eq!(db.pfail(p1, n1, h(2)).unwrap().value(), 4e-4);
        assert_eq!(
            fig3_platform().node_type(n1).cost(h(3)).unwrap(),
            Cost::new(40)
        );
    }

    #[test]
    fn systems_assemble() {
        let s1 = fig1_system();
        assert_eq!(s1.application().message_count(), 4);
        let s3 = fig3_system();
        assert_eq!(s3.application().process_count(), 1);
        assert_eq!(
            s3.application().process(ProcessId::new(0)).mu(),
            TimeUs::from_ms(20)
        );
    }
}
