//! Property-based tests of the scheduler crate: every scheduler respects
//! the crossbar constraints and conserves cells for arbitrary arrival
//! sequences; the matching kernel's matchings are legal and, once
//! iterated to a fixed point, maximal; the arbiter primitives match
//! naive references.

use osmosis::sched::arbiter::BitSet;
use osmosis::sched::{
    CellScheduler, Flppr, Islip, MatchArbiters, Matcher, Pim, PipelinedArbiter, PointerRule,
    Requests,
};
use proptest::prelude::*;

/// An arbitrary arrival trace: per slot, a list of (input, output) pairs
/// with at most one arrival per input.
fn arrivals_strategy(n: usize, slots: usize) -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    prop::collection::vec(
        prop::collection::vec((0..n, 0..n), 0..=n).prop_map(move |mut v| {
            let mut seen = vec![false; n];
            v.retain(|&(i, _)| {
                if seen[i] {
                    false
                } else {
                    seen[i] = true;
                    true
                }
            });
            v
        }),
        slots,
    )
}

fn check_scheduler(
    mut sched: Box<dyn CellScheduler>,
    trace: &[Vec<(usize, usize)>],
) -> Result<(), TestCaseError> {
    let n = sched.inputs();
    let cap = sched.out_capacity();
    let mut shadow = Requests::square(n);
    let mut injected = 0u64;
    let mut granted = 0u64;
    for (slot, arrivals) in trace.iter().enumerate() {
        let m = sched.tick(slot as u64);
        m.validate(&shadow, cap)
            .map_err(|e| TestCaseError::fail(format!("slot {slot}: {e}")))?;
        for &(i, o) in m.pairs() {
            shadow.dec(i, o);
            granted += 1;
        }
        for &(i, o) in arrivals {
            sched.note_arrival(i, o);
            shadow.inc(i, o);
            injected += 1;
        }
    }
    // Drain: with no further arrivals, everything must be served.
    for slot in trace.len()..(trace.len() + 50 * n) {
        let m = sched.tick(slot as u64);
        m.validate(&shadow, cap)
            .map_err(|e| TestCaseError::fail(format!("drain {slot}: {e}")))?;
        for &(i, o) in m.pairs() {
            shadow.dec(i, o);
            granted += 1;
        }
        if shadow.is_empty() {
            break;
        }
    }
    prop_assert_eq!(granted, injected, "work conservation");
    prop_assert!(shadow.is_empty(), "all cells drained");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn islip_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Islip::log2n(8, 1)), &trace)?;
    }

    #[test]
    fn islip_dual_receiver_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Islip::log2n(8, 2)), &trace)?;
    }

    #[test]
    fn pim_respects_constraints(trace in arrivals_strategy(8, 30), seed in any::<u64>()) {
        check_scheduler(Box::new(Pim::new(8, 3, 1, seed)), &trace)?;
    }

    #[test]
    fn flppr_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Flppr::osmosis(8, 1)), &trace)?;
    }

    #[test]
    fn flppr_dual_receiver_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(Flppr::osmosis(8, 2)), &trace)?;
    }

    #[test]
    fn pipelined_respects_constraints(trace in arrivals_strategy(8, 30)) {
        check_scheduler(Box::new(PipelinedArbiter::log2n(8, 1)), &trace)?;
    }
}

proptest! {
    /// The wrapping priority encoder agrees with a naive scan for
    /// arbitrary bit patterns and starting points.
    #[test]
    fn next_set_wrapping_matches_naive(
        bits in prop::collection::vec(any::<bool>(), 1..200),
        from in any::<usize>(),
    ) {
        let n = bits.len();
        let mut set = BitSet::new(n);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                set.set(i);
            }
        }
        let from = from % n;
        let naive = (0..n).map(|k| (from + k) % n).find(|&i| bits[i]);
        prop_assert_eq!(set.next_set_wrapping(from), naive);
    }

    /// Set/clear/count behave like a Vec<bool>.
    #[test]
    fn bitset_matches_vec_bool(ops in prop::collection::vec((any::<bool>(), 0usize..150), 0..300)) {
        let n = 150;
        let mut set = BitSet::new(n);
        let mut reference = vec![false; n];
        for (on, idx) in ops {
            if on {
                set.set(idx);
                reference[idx] = true;
            } else {
                set.clear(idx);
                reference[idx] = false;
            }
        }
        for (i, &expect) in reference.iter().enumerate() {
            prop_assert_eq!(set.get(i), expect);
        }
        prop_assert_eq!(set.count(), reference.iter().filter(|&&b| b).count());
    }

    /// The max-size oracle never returns an invalid matching and is at
    /// least as large as any greedy matching.
    #[test]
    fn max_matching_validity(edges in prop::collection::vec((0usize..10, 0usize..10), 0..40)) {
        use osmosis::sched::max_matching;
        let mut occ = Requests::square(10);
        for &(i, o) in &edges {
            occ.inc(i, o);
        }
        let m = max_matching(&occ, 1);
        prop_assert!(m.validate(&occ, 1).is_ok());
        // Greedy lower bound.
        let mut in_used = [false; 10];
        let mut out_used = [false; 10];
        let mut greedy = 0;
        for (i, iu) in in_used.iter_mut().enumerate() {
            for (o, ou) in out_used.iter_mut().enumerate() {
                if !*iu && !*ou && occ.get(i, o) > 0 {
                    *iu = true;
                    *ou = true;
                    greedy += 1;
                    break;
                }
            }
        }
        prop_assert!(m.len() >= greedy, "{} < greedy {}", m.len(), greedy);
    }
}

/// One random matching problem for the kernel: `n` ports, `r` receivers
/// per output, the request mask of each output, and each output's usable
/// sub-ports (≤ r).
struct KernelCase {
    n: usize,
    r: usize,
    requests: Vec<BitSet>,
    caps: Vec<usize>,
    rule: PointerRule,
}

fn kernel_case() -> impl Strategy<Value = KernelCase> {
    (
        1usize..=64,
        1usize..=2,
        prop::collection::vec(any::<u64>(), 64),
        prop::collection::vec(0usize..=2, 64),
        any::<bool>(),
    )
        .prop_map(|(n, r, words, caps, first)| KernelCase {
            n,
            r,
            requests: words[..n]
                .iter()
                .map(|&w| {
                    let mut mask = BitSet::new(n);
                    for i in (0..n).filter(|&i| w >> i & 1 == 1) {
                        mask.set(i);
                    }
                    mask
                })
                .collect(),
            caps: caps[..n].iter().map(|&c| c.min(r)).collect(),
            rule: if first {
                PointerRule::FirstIteration
            } else {
                PointerRule::EveryAccept
            },
        })
}

impl KernelCase {
    fn kernel(&self) -> (MatchArbiters, Matcher) {
        let mut matcher = Matcher::new(self.n, self.r);
        for (o, &cap) in self.caps.iter().enumerate() {
            matcher.set_capacity(o, cap);
        }
        (MatchArbiters::new(self.n, self.r, self.rule), matcher)
    }

    /// Each input at most once, each sub-port at most once and within its
    /// output's usable range, and only requested pairs.
    fn check_legal(&self, pairs: &[(usize, usize, usize)]) -> Result<(), TestCaseError> {
        let mut input_used = vec![false; self.n];
        let mut subport_used = vec![false; self.n * self.r];
        for &(i, o, sp) in pairs {
            prop_assert!(self.requests[o].get(i), "unrequested pair ({}, {})", i, o);
            prop_assert!(!input_used[i], "input {} matched twice", i);
            prop_assert!(
                sp >= o * self.r && sp < o * self.r + self.caps[o],
                "sub-port {} outside output {}'s usable range",
                sp,
                o
            );
            prop_assert!(!subport_used[sp], "sub-port {} matched twice", sp);
            input_used[i] = true;
            subport_used[sp] = true;
        }
        Ok(())
    }

    /// No requested pair has a free input and an output below its cap.
    fn check_maximal(&self, pairs: &[(usize, usize, usize)]) -> Result<(), TestCaseError> {
        let mut input_used = vec![false; self.n];
        let mut load = vec![0usize; self.n];
        for &(i, o, _) in pairs {
            input_used[i] = true;
            load[o] += 1;
        }
        for o in (0..self.n).filter(|&o| load[o] < self.caps[o]) {
            for i in (0..self.n).filter(|&i| !input_used[i]) {
                prop_assert!(!self.requests[o].get(i), "({}, {}) left unmatched", i, o);
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every iteration leaves a legal matching, and `n` iterations reach a
    /// maximal one — over several matchings, so the pointers have moved.
    #[test]
    fn kernel_matchings_are_legal_and_maximal(case in kernel_case()) {
        let (mut arbs, mut matcher) = case.kernel();
        let mut pairs = Vec::new();
        for _ in 0..3 {
            matcher.reset();
            pairs.clear();
            for _ in 0..case.n {
                matcher.iterate(&mut arbs, &case.requests, &mut pairs);
                case.check_legal(&pairs)?;
            }
            case.check_maximal(&pairs)?;
        }
    }

    /// Releasing matched pairs and iterating again never double-books an
    /// input or a sub-port, and still converges to a maximal matching.
    #[test]
    fn kernel_release_never_double_books(
        case in kernel_case(),
        drop in prop::collection::vec(any::<bool>(), 64),
    ) {
        let (mut arbs, mut matcher) = case.kernel();
        let mut pairs = Vec::new();
        matcher.iterate(&mut arbs, &case.requests, &mut pairs);
        for round in 0..4 {
            let mut k = 0;
            let mut slot = 0;
            while k < pairs.len() {
                slot += 1;
                if drop[(round * 16 + slot) % 64] {
                    let (i, _, sp) = pairs.swap_remove(k);
                    matcher.release(i, sp);
                } else {
                    k += 1;
                }
            }
            matcher.iterate(&mut arbs, &case.requests, &mut pairs);
            case.check_legal(&pairs)?;
        }
        for _ in 0..case.n {
            matcher.iterate(&mut arbs, &case.requests, &mut pairs);
        }
        case.check_legal(&pairs)?;
        case.check_maximal(&pairs)?;
    }
}
