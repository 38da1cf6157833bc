//! The one-iteration-per-slot accumulating matcher used as the
//! sub-scheduler building block of both FLPPR and the prior-art pipelined
//! arbiter.
//!
//! Hardware schedulers cannot run log₂N grant/accept iterations inside one
//! 51.2 ns cell cycle, so pipelined designs spread a matching's iterations
//! over several cycles. A [`SubScheduler`] owns a partial matching;
//! [`SubScheduler::iterate`] performs one round-robin grant/accept round
//! (one "iteration"), and [`SubScheduler::take`] harvests the accumulated
//! matching and starts a fresh one.
//!
//! The VOQ occupancy the sub-scheduler matches against is owned by the
//! caller and passed to every call. FLPPR hands all of its sub-schedulers
//! the one master view (each request goes to all of them); the pipelined
//! arbiter keeps one view per stage. The caller updates the view first and
//! then tells the sub-scheduler: [`note_arrival`](SubScheduler::note_arrival)
//! after an increment, [`note_departure`](SubScheduler::note_departure)
//! after a decrement.

use crate::matcher::{MatchArbiters, Matcher, PointerRule, RequestMasks};
use crate::requests::{Matching, Requests};

/// Marks an input without a pair in the in-progress matching.
const UNMATCHED: usize = usize::MAX;

/// A pipelined matching engine for an n×n crossbar with `out_capacity`
/// receivers per output.
#[derive(Debug, Clone)]
pub struct SubScheduler {
    out_capacity: usize,
    arbs: MatchArbiters,
    /// The in-progress matching; its per-output capacity is lowered by
    /// the owner when fault masking degrades an egress.
    matcher: Matcher,
    /// Accumulated partial matching: (input, output, sub-port).
    pairs: Vec<(usize, usize, usize)>,
    /// Per input: the output of its pair in `pairs`, or [`UNMATCHED`].
    /// An input holds at most one pair, so the cells the matching has
    /// claimed from VOQ (i, o) number `(matched_to[i] == o) as u32`.
    matched_to: Vec<usize>,
    /// Per matched input: the index of its pair in `pairs`.
    pair_index: Vec<usize>,
    /// Bit i of output o's mask set ⇔ occupancy(i, o) exceeds the cells
    /// claimed from VOQ (i, o) — maintained incrementally so the grant
    /// stage is O(N/64) per output instead of an O(N) scan.
    masks: RequestMasks,
}

impl SubScheduler {
    /// Fresh engine for an `n`-port crossbar.
    pub fn new(n: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && out_capacity > 0);
        SubScheduler {
            out_capacity,
            arbs: MatchArbiters::new(n, out_capacity, PointerRule::EveryAccept),
            matcher: Matcher::new(n, out_capacity),
            pairs: Vec::with_capacity(n),
            matched_to: vec![UNMATCHED; n],
            pair_index: vec![0; n],
            masks: RequestMasks::new(n),
        }
    }

    /// Keep mask bit (i, o) consistent with the occupancy `req` and the
    /// matching's claims.
    #[inline]
    fn refresh_bit(&mut self, req: &Requests, i: usize, o: usize) {
        let reserved = u32::from(self.matched_to[i] == o);
        if req.get(i, o) > reserved {
            self.masks.set(i, o);
        } else {
            self.masks.clear(i, o);
        }
    }

    /// Drop the pair at `pairs[k]` from the in-progress matching.
    fn unmatch(&mut self, req: &Requests, k: usize) {
        let (i, o, sp) = self.pairs.swap_remove(k);
        if let Some(&(moved, _, _)) = self.pairs.get(k) {
            self.pair_index[moved] = k;
        }
        self.matcher.release(i, sp);
        self.matched_to[i] = UNMATCHED;
        self.refresh_bit(req, i, o);
    }

    /// Ports.
    pub fn ports(&self) -> usize {
        self.masks.ports()
    }

    /// A request (cell arrival) for (input, output): `req` has just been
    /// incremented there.
    pub fn note_arrival(&mut self, req: &Requests, input: usize, output: usize) {
        self.refresh_bit(req, input, output);
    }

    /// A cell for (input, output) left: `req` has just been decremented
    /// there, typically because another sub-scheduler's grant consumed
    /// the cell. If the in-progress matching had claimed the now-gone
    /// cell, the stale pair is un-matched immediately so the input and
    /// output become available again (FLPPR's duplicate-removal step;
    /// without it a served cell would block its input and output in every
    /// other sub-scheduler for up to K cycles).
    pub fn note_departure(&mut self, req: &Requests, input: usize, output: usize) {
        if self.matched_to[input] == output && req.get(input, output) == 0 {
            self.unmatch(req, self.pair_index[input]);
        } else {
            self.refresh_bit(req, input, output);
        }
    }

    /// Size of the partial matching accumulated so far.
    pub fn partial_len(&self) -> usize {
        self.pairs.len()
    }

    /// Degrade (or restore) one output's effective capacity. Lowering the
    /// cap un-matches any in-progress pairs on the now-dead sub-ports so
    /// their inputs become grantable elsewhere this very iteration.
    pub fn set_output_capacity(&mut self, req: &Requests, output: usize, cap: usize) {
        let cap = cap.min(self.out_capacity);
        if self.matcher.capacity(output) == cap {
            return;
        }
        self.matcher.set_capacity(output, cap);
        let r = self.out_capacity;
        let mut k = 0;
        while k < self.pairs.len() {
            let (_, o, sp) = self.pairs[k];
            if o == output && sp - o * r >= cap {
                self.unmatch(req, k);
            } else {
                k += 1;
            }
        }
    }

    /// Perform one grant/accept iteration over the occupancy `req`,
    /// extending the partial matching.
    pub fn iterate(&mut self, req: &Requests) {
        let start = self.pairs.len();
        self.matcher
            .iterate(&mut self.arbs, &self.masks, &mut self.pairs);
        for k in start..self.pairs.len() {
            let (i, o, _) = self.pairs[k];
            self.matched_to[i] = o;
            self.pair_index[i] = k;
            self.refresh_bit(req, i, o);
        }
    }

    /// Harvest the accumulated matching and reset for the next one.
    /// The occupancy `req` is *not* touched: granted cells are removed by
    /// the owner once the grants are validated and issued.
    pub fn take(&mut self, req: &Requests, out: &mut Matching) {
        out.clear();
        self.matcher.reset();
        // Releasing the claims can only *add* requester bits, and only at
        // the matched pairs.
        for k in 0..self.pairs.len() {
            let (i, o, _) = self.pairs[k];
            out.push(i, o);
            self.matched_to[i] = UNMATCHED;
            self.refresh_bit(req, i, o);
        }
        self.pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sub-scheduler over an occupancy view of its own, as each stage
    /// of the pipelined arbiter has.
    struct Stage {
        s: SubScheduler,
        req: Requests,
    }

    impl Stage {
        fn new(n: usize, out_capacity: usize) -> Self {
            Stage {
                s: SubScheduler::new(n, out_capacity),
                req: Requests::square(n),
            }
        }

        fn arrive(&mut self, i: usize, o: usize) {
            self.req.inc(i, o);
            self.s.note_arrival(&self.req, i, o);
        }

        fn depart(&mut self, i: usize, o: usize) {
            self.req.dec(i, o);
            self.s.note_departure(&self.req, i, o);
        }

        fn iterate(&mut self) {
            self.s.iterate(&self.req);
        }

        fn take(&mut self) -> Matching {
            let mut m = Matching::new();
            self.s.take(&self.req, &mut m);
            m
        }

        fn set_output_capacity(&mut self, o: usize, cap: usize) {
            self.s.set_output_capacity(&self.req, o, cap);
        }
    }

    #[test]
    fn one_iteration_matches_uncontended_requests() {
        let mut s = Stage::new(8, 1);
        s.arrive(1, 2);
        s.arrive(3, 4);
        s.iterate();
        assert_eq!(s.s.partial_len(), 2);
        let mut pairs = s.take().pairs().to_vec();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (3, 4)]);
        assert_eq!(s.s.partial_len(), 0, "reset after take");
    }

    #[test]
    fn iterations_accumulate_without_double_booking() {
        let mut s = Stage::new(4, 1);
        // Everyone wants output 0 plus a private output.
        for i in 0..4 {
            s.arrive(i, 0);
            s.arrive(i, (i + 1) % 4);
        }
        s.iterate();
        let after1 = s.s.partial_len();
        s.iterate();
        s.iterate();
        let after3 = s.s.partial_len();
        assert!(after3 >= after1);
        let m = s.take();
        m.validate(&s.req, 1).unwrap();
    }

    #[test]
    fn reserved_cells_not_rematched() {
        let mut s = Stage::new(4, 1);
        s.arrive(0, 0); // exactly one cell
        s.iterate();
        s.iterate();
        assert_eq!(s.s.partial_len(), 1, "single cell matched once");
    }

    #[test]
    fn departed_cells_are_not_matched() {
        let mut s = Stage::new(4, 1);
        s.arrive(0, 0);
        s.depart(0, 0);
        s.iterate();
        assert_eq!(s.s.partial_len(), 0, "view empty after departure");
    }

    #[test]
    fn departure_of_a_claimed_cell_unmatches_its_pair() {
        let mut s = Stage::new(8, 1);
        for i in 0..4 {
            s.arrive(i, i + 4);
        }
        s.arrive(2, 6);
        s.iterate();
        assert_eq!(s.s.partial_len(), 4);
        // A second cell of (2, 6) is queued: the claimed one's departure
        // leaves a cell for the pair to serve.
        s.depart(2, 6);
        assert_eq!(s.s.partial_len(), 4, "the pair still has a cell");
        // The last cell of (0, 4) leaves: its pair goes, and (3, 7)
        // takes its place in the partial matching.
        s.depart(0, 4);
        assert_eq!(s.s.partial_len(), 3);
        // The moved pair's index was kept: its departure finds it.
        s.depart(3, 7);
        assert_eq!(s.take().pairs(), &[(2, 6), (1, 5)]);
    }

    #[test]
    fn dual_capacity_matches_two_per_output() {
        let mut s = Stage::new(4, 2);
        for i in 0..4 {
            s.arrive(i, 0);
        }
        s.iterate();
        assert_eq!(s.s.partial_len(), 2, "two receivers on output 0");
    }

    #[test]
    fn degraded_output_matches_fewer_and_recovers() {
        let mut s = Stage::new(4, 2);
        s.set_output_capacity(0, 1);
        for i in 0..4 {
            s.arrive(i, 0);
        }
        s.iterate();
        assert_eq!(s.s.partial_len(), 1, "one surviving receiver on output 0");
        s.take();
        s.set_output_capacity(0, 2);
        s.iterate();
        s.iterate();
        assert_eq!(s.s.partial_len(), 2, "full capacity after repair");
    }

    #[test]
    fn lowering_capacity_unmatches_in_progress_pairs() {
        let mut s = Stage::new(4, 2);
        for i in 0..4 {
            s.arrive(i, 0);
            s.arrive(i, 1);
        }
        s.iterate();
        s.iterate();
        let before = s.s.partial_len();
        assert!(before >= 3, "warm matching uses both receivers");
        // Kill output 0 entirely: its pairs must be released so the
        // freed inputs can be re-matched toward output 1.
        s.set_output_capacity(0, 0);
        let m = s.take();
        assert!(
            m.pairs().iter().all(|&(_, o)| o != 0),
            "no grant to dead output"
        );
        s.iterate();
        s.iterate();
        let m2 = s.take();
        assert!(m2.pairs().iter().all(|&(_, o)| o != 0));
        assert!(!m2.is_empty(), "surviving output still matched");
    }
}
