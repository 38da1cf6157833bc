//! Property-based tests of the scheduler crate: every scheduler respects
//! the crossbar constraints and conserves cells for arbitrary arrival
//! sequences; the matching kernel's matchings are legal and, once
//! iterated to a fixed point, maximal; the kernel and the arbiter
//! primitives match naive references.

use osmosis::sched::arbiter::BitSet;
use osmosis::sched::{
    CellScheduler, Flppr, Islip, MatchArbiters, Matcher, Pim, PipelinedArbiter, PointerRule,
    RequestMasks, Requests,
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
    /// arbitrary bit patterns and starting points, including starting
    /// points at or beyond the set's length, which are documented to
    /// count modulo the length.
    #[test]
    fn next_set_wrapping_matches_naive(
        bits in prop::collection::vec(any::<bool>(), 1..200),
        from in any::<usize>(),
        near in 0usize..400,
    ) {
        let n = bits.len();
        let mut set = BitSet::new(n);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                set.set(i);
            }
        }
        let naive = |from: usize| (0..n).map(|k| (from % n + k) % n).find(|&i| bits[i]);
        prop_assert_eq!(set.next_set_wrapping(from % n), naive(from));
        prop_assert_eq!(set.next_set_wrapping(from), naive(from));
        prop_assert_eq!(set.next_set_wrapping(near), naive(near));
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

/// Largest port count of a kernel case: 200 ports take four words per
/// input mask and, with two receivers, seven words per sub-port mask.
const KERNEL_MAX_PORTS: usize = 200;

/// One random matching problem for the kernel: `n` ports, `r` receivers
/// per output, the request masks, and each output's usable sub-ports
/// (≤ r).
struct KernelCase {
    n: usize,
    r: usize,
    requests: RequestMasks,
    caps: Vec<usize>,
    rule: PointerRule,
}

fn kernel_case() -> impl Strategy<Value = KernelCase> {
    (
        1usize..=KERNEL_MAX_PORTS,
        1usize..=2,
        prop::collection::vec(any::<u64>(), 4 * KERNEL_MAX_PORTS),
        0usize..=2,
        prop::collection::vec(0usize..=2, KERNEL_MAX_PORTS),
        any::<bool>(),
    )
        .prop_map(|(n, r, words, thin, caps, first)| {
            // Bit (i, o) is the AND of `thin + 1` random bits: request
            // densities 1/2, 1/4 and 1/8.
            let bit = |i: usize, o: usize| {
                (0..=thin)
                    .all(|k| words[(o * 4 + i / 64 + 7 * k) % words.len()] >> (i % 64) & 1 == 1)
            };
            let mut requests = RequestMasks::new(n);
            for o in 0..n {
                for i in (0..n).filter(|&i| bit(i, o)) {
                    requests.set(i, o);
                }
            }
            KernelCase {
                n,
                r,
                requests,
                caps: caps[..n].iter().map(|&c| c.min(r)).collect(),
                rule: if first {
                    PointerRule::FirstIteration
                } else {
                    PointerRule::EveryAccept
                },
            }
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
            prop_assert!(self.requests.get(i, o), "unrequested pair ({}, {})", i, o);
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
                prop_assert!(!self.requests.get(i, o), "({}, {}) left unmatched", i, o);
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

/// The kernel written out naively from its documented round: plain loops
/// over `Vec<bool>`, one modulo per pointer step, no live or open sets.
struct NaiveKernel {
    n: usize,
    r: usize,
    rule: PointerRule,
    /// Per output sub-port `o · r + k`: the grant pointer over inputs.
    grant: Vec<usize>,
    /// Per input: the accept pointer over sub-ports.
    accept: Vec<usize>,
    caps: Vec<usize>,
    in_matched: Vec<bool>,
    subport_used: Vec<bool>,
    first_iteration: bool,
}

impl NaiveKernel {
    fn new(case: &KernelCase) -> Self {
        let (n, r) = (case.n, case.r);
        NaiveKernel {
            n,
            r,
            rule: case.rule,
            // Sub-port k of every output starts at input k.
            grant: (0..n * r).map(|sp| sp % r % n).collect(),
            accept: vec![0; n],
            caps: case.caps.clone(),
            in_matched: vec![false; n],
            subport_used: vec![false; n * r],
            first_iteration: true,
        }
    }

    /// `requests[o][i]`: input i requests output o.
    fn iterate(&mut self, requests: &[Vec<bool>], out: &mut Vec<(usize, usize, usize)>) -> bool {
        let (n, r) = (self.n, self.r);
        let move_pointers = self.first_iteration || self.rule == PointerRule::EveryAccept;
        self.first_iteration = false;
        // Grant: outputs ascending, free usable sub-ports ascending, each
        // to the first requesting unmatched input at or after its pointer.
        let mut grants = vec![vec![false; n * r]; n];
        let mut any = false;
        for (o, requesting) in requests.iter().enumerate() {
            for k in 0..self.caps[o] {
                let sp = o * r + k;
                if self.subport_used[sp] {
                    continue;
                }
                let pick = (0..n)
                    .map(|d| (self.grant[sp] + d) % n)
                    .find(|&i| requesting[i] && !self.in_matched[i]);
                if let Some(i) = pick {
                    grants[i][sp] = true;
                    any = true;
                }
            }
        }
        // Accept: inputs ascending, each the first granting sub-port at or
        // after its pointer.
        for (i, granted) in grants.iter().enumerate() {
            let pick = (0..n * r)
                .map(|k| (self.accept[i] + k) % (n * r))
                .find(|&sp| granted[sp]);
            if let Some(sp) = pick {
                self.in_matched[i] = true;
                self.subport_used[sp] = true;
                out.push((i, sp / r, sp));
                if move_pointers {
                    self.grant[sp] = (i + 1) % n;
                    self.accept[i] = (sp + 1) % (n * r);
                }
            }
        }
        any
    }

    fn release(&mut self, input: usize, subport: usize) {
        self.in_matched[input] = false;
        self.subport_used[subport] = false;
    }

    fn reset(&mut self) {
        self.in_matched.fill(false);
        self.subport_used.fill(false);
        self.first_iteration = true;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The kernel agrees with the naive reference pair for pair and
    /// pointer for pointer over random sequences of iterations, releases,
    /// capacity changes, request changes and resets — on one-word
    /// (n ≤ 64) and multi-word masks alike.
    #[test]
    fn kernel_matches_the_naive_reference(
        case in kernel_case(),
        ops in prop::collection::vec((0u8..10, any::<usize>(), any::<usize>()), 1..80),
    ) {
        let (n, r) = (case.n, case.r);
        let (mut arbs, mut matcher) = case.kernel();
        let mut naive = NaiveKernel::new(&case);
        let mut masks = case.requests.clone();
        let mut requests: Vec<Vec<bool>> =
            (0..n).map(|o| (0..n).map(|i| masks.get(i, o)).collect()).collect();
        let mut pairs = Vec::new();
        let mut naive_pairs = Vec::new();
        for (step, (op, a, b)) in ops.into_iter().enumerate() {
            match op {
                0..=3 => {
                    let got = matcher.iterate(&mut arbs, &masks, &mut pairs);
                    let want = naive.iterate(&requests, &mut naive_pairs);
                    prop_assert_eq!(got, want, "step {}: iterate result", step);
                }
                4 if !pairs.is_empty() => {
                    let k = a % pairs.len();
                    let (i, _, sp) = pairs.swap_remove(k);
                    naive_pairs.swap_remove(k);
                    matcher.release(i, sp);
                    naive.release(i, sp);
                }
                5 => {
                    let (o, cap) = (a % n, b % (r + 1));
                    matcher.set_capacity(o, cap);
                    naive.caps[o] = cap;
                }
                6 | 7 => {
                    let (i, o) = (a % n, b % n);
                    if op == 6 {
                        masks.set(i, o);
                    } else {
                        masks.clear(i, o);
                    }
                    requests[o][i] = op == 6;
                }
                8 => {
                    matcher.reset();
                    naive.reset();
                    pairs.clear();
                    naive_pairs.clear();
                }
                9 => {
                    masks.clear_all();
                    requests.iter_mut().for_each(|row| row.fill(false));
                }
                _ => {}
            }
            prop_assert_eq!(&pairs, &naive_pairs, "step {}: pairs", step);
            for sp in 0..n * r {
                prop_assert_eq!(arbs.grant_pointer(sp), naive.grant[sp], "step {}: grant pointer {}", step, sp);
            }
            for i in 0..n {
                prop_assert_eq!(arbs.accept_pointer(i), naive.accept[i], "step {}: accept pointer {}", step, i);
            }
            for o in 0..n {
                prop_assert_eq!(matcher.capacity(o), naive.caps[o], "step {}: capacity {}", step, o);
            }
            prop_assert_eq!(
                masks.is_empty(),
                requests.iter().all(|row| row.iter().all(|&b| !b)),
                "step {}: live set",
                step
            );
        }
    }
}
