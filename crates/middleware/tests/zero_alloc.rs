//! Proof that the steady-state decision loop performs no heap
//! allocation.
//!
//! A counting global allocator wraps the system allocator; the test
//! warms the router up (growing every reusable buffer — shortlist
//! scratch, decision memo, drain scratch, perturbation buffers — to its
//! steady-state footprint), then arms the counter around a measured run
//! of pure decisions and requires the count to be exactly zero. The
//! counter is thread-local and const-initialised, so accounting itself
//! never allocates and parallel test threads cannot pollute the
//! measurement.

use cas_core::heuristics::HeuristicKind;
use cas_core::{SelectorKind, SyncPolicy};
use cas_middleware::shard::{AgentRouter, DecisionInputs};
use cas_platform::{
    CostTable, IndexScoring, LoadReport, PhaseCosts, Problem, ProblemId, ServerId, TaskId,
    TaskInstance,
};
use cas_sim::{RngStream, SimTime, StreamKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the bookkeeping reads a
// const-initialised thread-local, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count() {
    // `try_with`: TLS may already be torn down during thread exit.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many
/// allocations (including reallocations) it performed on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCS.with(|n| n.get())
}

/// An `n`-server farm, one problem solvable everywhere with spread costs.
fn farm(n: usize) -> CostTable {
    let mut costs = CostTable::new(n);
    costs.add_problem(
        Problem::new("p", 1.0, 0.5, 0.0),
        (0..n)
            .map(|s| Some(PhaseCosts::new(0.4, 10.0 + 3.0 * s as f64, 0.4)))
            .collect(),
    );
    costs
}

fn task(id: u64, at: f64) -> TaskInstance {
    TaskInstance::new(TaskId(id), ProblemId(0), SimTime::from_secs(at))
}

/// Loads an `n`-server farm, warms a router running `kind` over
/// `selector` until every reusable buffer is grown, then counts the
/// allocations of 300 further decisions. Returns the router for
/// follow-up checks.
fn steady_state_allocations(
    n: usize,
    selector: SelectorKind,
    kind: HeuristicKind,
) -> (u64, AgentRouter) {
    let costs = farm(n);
    let reports: Vec<LoadReport> = (0..n as u32)
        .map(|i| LoadReport::initial(ServerId(i)))
        .collect();
    let server_mem = vec![f64::MAX; n];
    let mut router = AgentRouter::new(
        &costs,
        None,
        selector,
        IndexScoring::RemainingWork,
        SyncPolicy::None,
    )
    .with_completion_only(!kind.build().needs_perturbations());
    let mut heuristic = kind.build();
    let mut tie_rng = RngStream::derive(11, StreamKind::TieBreak);
    let admit = |_: ServerId| true;

    // Load the farm so predictions carry real perturbation lists (their
    // buffers must be grown by the warmup, not the measured run): a few
    // long-running commits per server that stay active throughout.
    for s in 0..n as u32 {
        for k in 0..4u64 {
            let t = task(100_000 + u64::from(s) * 8 + k, 0.0);
            router.on_commit(SimTime::ZERO, ServerId(s), &t, 40.0);
        }
    }

    let mut decide = |router: &mut AgentRouter,
                      heuristic: &mut dyn cas_core::heuristics::Heuristic,
                      id: u64,
                      at: f64| {
        let t = task(id, at);
        router.decide(
            DecisionInputs {
                now: t.arrival,
                task: t,
                costs: &costs,
                reports: (&reports).into(),
                server_mem: &server_mem,
                admit: &admit,
            },
            heuristic,
            &mut tie_rng,
        )
    };

    // Warmup: grow every scratch buffer well past the measured regime.
    for i in 0..3000u64 {
        decide(&mut router, heuristic.as_mut(), i, 0.001 * i as f64);
    }

    // Measured: pure decisions.
    let allocs = allocations_in(|| {
        for i in 3000..3300u64 {
            let pick = decide(&mut router, heuristic.as_mut(), i, 3.0 + 0.001 * i as f64);
            assert!(pick.is_some(), "decision {i} found no candidate");
        }
    });
    (allocs, router)
}

/// The steady-state decision loop — stage-1 shortlist walk, stage-2
/// what-if queries through the memo, argmin — allocates nothing once
/// its reusable buffers are warm.
#[test]
fn steady_state_decisions_allocate_nothing() {
    let (allocs, mut router) =
        steady_state_allocations(12, SelectorKind::Exhaustive, HeuristicKind::Hmct);
    assert_eq!(
        allocs, 0,
        "steady-state decision loop must not allocate (saw {allocs} allocations over 300 decisions)"
    );

    // The commit path's completion query shares the router's scratch
    // prediction: allocation-free as well once warm.
    let warm = task(5_000, 10.0);
    router.predict_completion(SimTime::from_secs(10.0), ServerId(0), &warm);
    let allocs = allocations_in(|| {
        for i in 0..100u64 {
            let t = task(6_000 + i, 10.0);
            let c = router.predict_completion(SimTime::from_secs(10.0), ServerId(0), &t);
            assert!(c.is_some());
        }
    });
    assert_eq!(
        allocs, 0,
        "commit-path completion queries must not allocate"
    );
}

/// A 64-wide shortlist over an 80-server farm takes the same direct
/// stage-2 loop as a short one — no batch vector, no pool scope — under
/// both query depths: HMCT (completion-only, truncated drains) and MSF
/// (full drains that fill the perturbation lists). The counter is
/// thread-local, so this holds only because stage 2 never leaves the
/// calling thread.
#[test]
fn wide_shortlist_decisions_allocate_nothing() {
    for kind in [HeuristicKind::Hmct, HeuristicKind::Msf] {
        let (allocs, _) = steady_state_allocations(80, SelectorKind::TopK { k: 64 }, kind);
        assert_eq!(
            allocs, 0,
            "{kind:?}: 64-wide steady-state decisions must not allocate (saw {allocs} over 300)"
        );
    }
}
