//! Runtime allocation budgets of the matching kernel and its callers.
//!
//! A counting global allocator tallies every allocation made on the
//! calling thread (test threads run in parallel, so a process-wide count
//! would mix tests). The kernel must not allocate at all once built;
//! each simulator that matches through it has a steady-state
//! allocations-per-slot budget, measured as the difference between two
//! runs that differ only in length, so construction and report costs
//! cancel. Budgets start at the counts measured when the kernel landed
//! and may only be lowered.

use osmosis::fabric::multistage::{FabricConfig, FatTreeFabric};
use osmosis::fabric::spec::TopologySpec;
use osmosis::fabric::CompiledFabric;
use osmosis::sched::subsched::SubScheduler;
use osmosis::sched::{
    CellScheduler, Flppr, Islip, MatchArbiters, Matcher, Matching, PipelinedArbiter, PointerRule,
    RequestMasks, Requests,
};
use osmosis::sim::{EngineConfig, SeedSequence};
use osmosis::switch::{BurstSwitch, CioqSwitch, VoqSwitch};
use osmosis::traffic::BernoulliUniform;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const WARMUP: u64 = 300;
const SHORT: u64 = 1_000;
const LONG: u64 = 3_000;

/// Steady-state allocations per slot of `run(cfg)`: the extra
/// allocations of a run `LONG − SHORT` measured slots longer, per slot.
fn per_slot(run: impl Fn(&EngineConfig)) -> f64 {
    let short = allocs(|| run(&EngineConfig::new(WARMUP, SHORT)));
    let long = allocs(|| run(&EngineConfig::new(WARMUP, LONG)));
    long.saturating_sub(short) as f64 / (LONG - SHORT) as f64
}

fn uniform(n: usize, load: f64) -> BernoulliUniform {
    BernoulliUniform::new(n, load, &SeedSequence::new(1234))
}

fn voq(make: fn() -> Box<dyn CellScheduler>) -> impl Fn(&EngineConfig) {
    move |cfg| {
        let sched = make();
        let n = sched.inputs();
        VoqSwitch::new(sched).run(&mut uniform(n, 0.7), cfg);
    }
}

#[test]
fn kernel_iteration_does_not_allocate() {
    for (n, r, rule) in [
        (16, 1, PointerRule::EveryAccept),
        (64, 2, PointerRule::FirstIteration),
    ] {
        let mut arbs = MatchArbiters::new(n, r, rule);
        let mut matcher = Matcher::new(n, r);
        let mut requests = RequestMasks::new(n);
        for o in 0..n {
            for i in (o % 3..n).step_by(3) {
                requests.set(i, o);
            }
        }
        let mut pairs = Vec::with_capacity(n);
        let made = allocs(|| {
            for round in 0..100 {
                matcher.rematch(&mut arbs, &requests, n, &mut pairs);
                if round % 2 == 1 {
                    let (i, _, sp) = pairs.swap_remove(0);
                    matcher.release(i, sp);
                    matcher.set_capacity(0, r - 1);
                    matcher.iterate(&mut arbs, &requests, &mut pairs);
                    matcher.set_capacity(0, r);
                }
            }
        });
        assert_eq!(made, 0, "n = {n}, r = {r}: the kernel allocated");
    }
}

#[test]
fn request_mask_updates_do_not_allocate() {
    for n in [16, 64, 200] {
        let mut masks = RequestMasks::new(n);
        let made = allocs(|| {
            for round in 0..50 {
                for o in 0..n {
                    for i in (o % 3..n).step_by(3 + round % 4) {
                        masks.set(i, o);
                    }
                }
                for o in (0..n).step_by(2) {
                    for i in 0..n {
                        masks.clear(i, o);
                    }
                }
                masks.clear_all();
            }
        });
        assert_eq!(made, 0, "n = {n}: a mask update allocated");
        assert!(masks.is_empty());
    }
}

/// A sub-scheduler run the way FLPPR runs one: arrivals and departures
/// over an occupancy view the caller owns, an iteration per slot, and a
/// harvest every `depth` slots.
#[test]
fn sub_scheduler_cycle_does_not_allocate() {
    for (n, r) in [(16, 1), (64, 2), (200, 2)] {
        let depth = 4;
        let mut req = Requests::square(n);
        let mut sub = SubScheduler::new(n, r);
        let mut out = Matching::with_capacity(n);
        let made = allocs(|| {
            for slot in 0..200 {
                for i in (slot % 2..n).step_by(2) {
                    let o = (i * 7 + slot * 3) % n;
                    req.inc(i, o);
                    sub.note_arrival(&req, i, o);
                }
                sub.iterate(&req);
                if slot % depth == depth - 1 {
                    sub.take(&req, &mut out);
                    for &(i, o) in out.pairs() {
                        req.dec(i, o);
                        sub.note_departure(&req, i, o);
                    }
                } else {
                    // Another stage's grants: cells leave under the
                    // in-progress matching.
                    for i in (slot % 3..n).step_by(5) {
                        let o = (i * 7 + slot * 3) % n;
                        if req.try_dec(i, o) {
                            sub.note_departure(&req, i, o);
                        }
                    }
                }
            }
        });
        assert_eq!(made, 0, "n = {n}, r = {r}: the sub-scheduler allocated");
    }
}

/// Assert `run`'s steady-state allocations per slot stay within `budget`.
fn check_budget(name: &str, budget: f64, run: impl Fn(&EngineConfig)) {
    let got = per_slot(run);
    assert!(
        got <= budget,
        "{name}: {got} allocations per slot exceed the budget of {budget}"
    );
}

/// Steady-state allocations per slot. The VOQ switch pays one per slot
/// for the `Matching` that `CellScheduler::tick` returns; the fractions
/// are queue growth inside the measured window. The compiled fabric's
/// count is its sparse VOQ map: a queue entry is created and dropped as
/// a VOQ fills and empties.
#[test]
fn simulators_stay_within_their_allocation_budgets() {
    check_budget("voq+islip", 1.002, voq(|| Box::new(Islip::log2n(16, 2))));
    check_budget("voq+flppr", 1.0015, voq(|| Box::new(Flppr::osmosis(16, 2))));
    check_budget(
        "voq+flppr-64",
        1.01,
        voq(|| Box::new(Flppr::osmosis(64, 2))),
    );
    check_budget(
        "voq+pipelined",
        1.018,
        voq(|| Box::new(PipelinedArbiter::log2n(16, 1))),
    );
    check_budget("cioq", 0.0, |cfg| {
        CioqSwitch::new(16, 2, 8).run(&mut uniform(16, 0.8), cfg);
    });
    check_budget("burst", 0.0425, |cfg| {
        BurstSwitch::new(16, 8, 8).run(&mut uniform(16, 0.6), cfg);
    });
    check_budget("multistage", 0.002, |cfg| {
        let mut fab = FatTreeFabric::new(FabricConfig::small(8, 2));
        let hosts = fab.topology().hosts();
        fab.run(&mut uniform(hosts, 0.5), cfg);
    });
    check_budget("compiled-m-ary", 10.8905, |cfg| {
        let mut sim = CompiledFabric::new(TopologySpec::m_ary_fat_tree(4, 3));
        let hosts = sim.expanded().hosts.len();
        sim.run(&mut uniform(hosts, 0.4), cfg);
    });
    check_budget("compiled", 41.405, |cfg| {
        let mut sim = CompiledFabric::new(TopologySpec::fat_tree(8, 2));
        let hosts = sim.expanded().hosts.len();
        sim.run(&mut uniform(hosts, 0.5), cfg);
    });
}
