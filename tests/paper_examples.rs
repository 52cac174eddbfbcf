//! Integration tests reproducing the paper's worked examples end to end
//! (Fig. 2, Fig. 3, Fig. 4 and the Section 6.1 narration), exercising the
//! model, SFP, scheduling and optimization crates together.

use ftes::model::{paper, Cost, HLevel, Mapping, NodeId, NodeTypeId, TimeUs};
use ftes::opt::{evaluate_fixed, OptConfig, Search};
use ftes::sched::schedule;
use ftes::sfp::{ReExecutionOpt, Rounding};

/// Fig. 2: the number of re-executions falls with the hardening level.
/// (Fig. 2 does not print probabilities; we use the Fig. 1 table of P1 on
/// N1 and verify k decreases monotonically to zero at h3.)
#[test]
fn fig2_reexecutions_fall_with_hardening() {
    let sys = paper::fig1_system();
    let reexec = ReExecutionOpt::default();
    let mut ks = Vec::new();
    for h in 1..=3u8 {
        let p = sys
            .timing()
            .pfail(
                ftes::model::ProcessId::new(0),
                NodeTypeId::new(0),
                HLevel::new(h).unwrap(),
            )
            .unwrap();
        ks.push(
            reexec
                .min_k_single_node(&[p], sys.goal(), sys.application().period())
                .expect("reachable"),
        );
    }
    assert!(ks[0] > ks[1], "{ks:?}");
    assert!(ks[1] > ks[2], "{ks:?}");
    assert_eq!(ks[2], 0, "most hardened version needs no re-execution");
}

/// Fig. 3: k = 6 / 2 / 1 with worst cases 680 / 340 / 340 ms against the
/// 360 ms deadline, and the design strategy picks the h2 solution because
/// the h3 one costs twice as much for the same worst case.
#[test]
fn fig3_hardware_vs_software_recovery() {
    let sys = paper::fig3_system();
    let reexec = ReExecutionOpt::default();
    let expected = [(1u8, 6u32, 680i64), (2, 2, 340), (3, 1, 340)];
    for (h, k_paper, wc_ms) in expected {
        let p = sys
            .timing()
            .pfail(
                ftes::model::ProcessId::new(0),
                NodeTypeId::new(0),
                HLevel::new(h).unwrap(),
            )
            .unwrap();
        let k = reexec
            .min_k_single_node(&[p], sys.goal(), sys.application().period())
            .expect("reachable");
        assert_eq!(k, k_paper, "h{h}");

        let mut arch = ftes::model::Architecture::with_min_hardening(&[NodeTypeId::new(0)]);
        arch.set_hardening(NodeId::new(0), HLevel::new(h).unwrap());
        let mapping = Mapping::all_on(1, NodeId::new(0));
        let sched = schedule(
            sys.application(),
            sys.timing(),
            &arch,
            &mapping,
            &[k],
            sys.bus(),
        )
        .unwrap();
        assert_eq!(sched.wc_length(), TimeUs::from_ms(wc_ms), "h{h}");
        assert_eq!(sched.is_schedulable(), wc_ms <= 360, "h{h} schedulability");
    }
}

/// Fig. 4: all five alternatives cost and schedule exactly as published.
#[test]
fn fig4_alternatives_match_published_verdicts() {
    let sys = paper::fig1_system();
    let table = [
        ('a', 72u64, vec![1u32, 1], 330i64, true),
        ('b', 32, vec![2], 540, false),
        ('c', 40, vec![2], 450, false),
        ('d', 64, vec![0], 390, false),
        ('e', 80, vec![0], 330, true),
    ];
    for (variant, cost, ks, sl_ms, schedulable) in table {
        let (arch, mapping) = paper::fig4_alternative(variant);
        let sol = evaluate_fixed(&sys, &arch, &mapping, &OptConfig::default())
            .unwrap()
            .unwrap_or_else(|| panic!("variant {variant} reachable"));
        assert_eq!(sol.cost, Cost::new(cost), "4{variant} cost");
        assert_eq!(sol.ks, ks, "4{variant} re-executions");
        assert_eq!(
            sol.schedule_length(),
            TimeUs::from_ms(sl_ms),
            "4{variant} worst case"
        );
        assert_eq!(sol.is_schedulable(), schedulable, "4{variant} verdict");
    }
}

/// Section 6.1: the redundancy optimization reacts to re-mapping exactly as
/// narrated — the split mapping settles on h = (2,2); moving everything to
/// N2 forces h = 3; the all-on-N1 mapping stays unschedulable.
#[test]
fn section_6_1_narration() {
    let sys = paper::fig1_system();
    let cfg = OptConfig::default();
    let mut search = Search::new(&sys, &cfg);

    let (base_a, map_a) = paper::fig4_alternative('a');
    let out_a = search.redundancy_opt(&base_a, &map_a).unwrap().unwrap();
    assert!(out_a.schedulable);
    assert_eq!(out_a.solution.cost, Cost::new(72));

    let (base_e, map_e) = paper::fig4_alternative('e');
    let out_e = search.redundancy_opt(&base_e, &map_e).unwrap().unwrap();
    assert!(out_e.schedulable);
    assert_eq!(
        out_e.solution.architecture.hardening(NodeId::new(0)),
        HLevel::new(3).unwrap()
    );

    let (base_d, map_d) = paper::fig4_alternative('d');
    let out_d = search.redundancy_opt(&base_d, &map_d).unwrap().unwrap();
    assert!(!out_d.schedulable, "all-on-N1 must be discarded");
}

/// The design strategy on Fig. 1 returns a valid solution at least as cheap
/// as the paper's 72-unit optimum, which itself evaluates exactly as
/// published. (With the reconstructed tables the search also finds a
/// cheaper mixed-hardening solution that passes the same analysis.)
#[test]
fn design_strategy_on_fig1() {
    let sys = paper::fig1_system();
    let best = ftes::opt::design_strategy(&sys, &OptConfig::default())
        .unwrap()
        .expect("feasible");
    assert!(best.solution.is_schedulable());
    assert!(best.solution.cost <= Cost::new(72));
    let sfp = ftes::sfp::analyze(
        sys.application(),
        sys.timing(),
        &best.solution.architecture,
        &best.solution.mapping,
        &best.solution.ks,
        sys.goal(),
        Rounding::Pessimistic,
    )
    .unwrap();
    assert!(sfp.meets_goal);
}
