//! Allocation regression test for the candidate arena: steady-state
//! probe evaluation must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the engine (SFP configuration memo filled, SoA buffers at their
//! working capacity, arena stocked with recyclable candidates) and then
//! pins three steady-state probe patterns at **zero allocations**:
//!
//! 1. an alternating probe walk through `evaluate` (hardening flip —
//!    delta SFP splice, priority delta, flat schedule, arena-recycled
//!    candidate);
//! 2. repeated probes of one candidate through `evaluate`, each of which
//!    runs the evaluation again and recycles the previous probe's
//!    candidate;
//! 3. whole redundancy-walk revisits through `redundancy_opt_memo` (both
//!    the mapping-memo hit and, with the memo disabled, the
//!    pooled-architecture walk over arena-recycled candidates).
//!
//! The file is its own integration-test binary so no concurrently running
//! test can pollute the allocation counter; the scenarios therefore run
//! inside a single `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use ftes::model::{paper, HLevel, NodeId};
use ftes::opt::{redundancy_opt_memo, Evaluator, MemoCap, OptConfig, RedundancyMemo};

/// Counts every allocation (and reallocation — a growing `Vec` must not
/// hide behind `realloc`) on top of the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    let after = ALLOCS.load(Ordering::Relaxed);
    (after - before, result)
}

#[test]
fn steady_state_probes_allocate_nothing() {
    let system = paper::fig1_system();
    let config = OptConfig::default();
    let (arch_lo, mapping) = paper::fig4_alternative('a');
    let mut arch_hi = arch_lo.clone();
    arch_hi.set_hardening(NodeId::new(0), HLevel::new(3).unwrap());

    // --- 1. executed alternating probes through the arena ---------------
    let mut ev = Evaluator::new(&system, &config);
    for _ in 0..8 {
        // Results dropped immediately: the tracked candidates become
        // uniquely referenced and recyclable.
        ev.evaluate(&arch_lo, &mapping).unwrap();
        ev.evaluate(&arch_hi, &mapping).unwrap();
    }
    let reuses_before = ev.stats().arena_reuses;
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let a = ev.evaluate(&arch_lo, &mapping).unwrap();
            drop(a);
            let b = ev.evaluate(&arch_hi, &mapping).unwrap();
            drop(b);
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed alternating executed probes must be allocation-free"
    );
    let reuses = ev.stats().arena_reuses - reuses_before;
    assert_eq!(reuses, 64, "every executed probe must recycle a candidate");

    // --- 2. re-probes of one candidate ----------------------------------
    ev.evaluate(&arch_lo, &mapping).unwrap();
    ev.evaluate(&arch_lo, &mapping).unwrap();
    let reuses_before = ev.stats().arena_reuses;
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let again = ev.evaluate(&arch_lo, &mapping).unwrap();
            drop(again);
        }
    });
    assert_eq!(
        allocs, 0,
        "re-probes of one candidate must be allocation-free"
    );
    let reuses = ev.stats().arena_reuses - reuses_before;
    assert_eq!(reuses, 32, "every re-probe must recycle a candidate");

    // --- 3a. mapping-memo revisits --------------------------------------
    let mut memo_ev = Evaluator::new(&system, &config);
    let mut memo = RedundancyMemo::from_config(&config);
    redundancy_opt_memo(&mut memo_ev, &mut memo, &arch_lo, &mapping).unwrap();
    redundancy_opt_memo(&mut memo_ev, &mut memo, &arch_lo, &mapping).unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let out = redundancy_opt_memo(&mut memo_ev, &mut memo, &arch_lo, &mapping).unwrap();
            drop(out);
        }
    });
    assert_eq!(allocs, 0, "mapping-memo revisits must be allocation-free");

    // --- 3b. unmemoized revisits: the full pooled hardening walk --------
    let mut plain_ev = Evaluator::new(&system, &config);
    let mut no_memo = RedundancyMemo::new(MemoCap(0));
    redundancy_opt_memo(&mut plain_ev, &mut no_memo, &arch_lo, &mapping).unwrap();
    redundancy_opt_memo(&mut plain_ev, &mut no_memo, &arch_lo, &mapping).unwrap();
    let (allocs, _) = allocations_in(|| {
        for _ in 0..32 {
            let out = redundancy_opt_memo(&mut plain_ev, &mut no_memo, &arch_lo, &mapping).unwrap();
            drop(out);
        }
    });
    assert_eq!(
        allocs, 0,
        "unmemoized redundancy revisits (pooled arch + recycled candidates) must be allocation-free"
    );
}
