//! The one-iteration-per-slot accumulating matcher used as the
//! sub-scheduler building block of both FLPPR and the prior-art pipelined
//! arbiter.
//!
//! Hardware schedulers cannot run log₂N grant/accept iterations inside one
//! 51.2 ns cell cycle, so pipelined designs spread a matching's iterations
//! over several cycles. A [`SubScheduler`] owns its request view and a
//! partial matching; [`SubScheduler::iterate`] performs one round-robin
//! grant/accept round (one "iteration"), and [`SubScheduler::take`]
//! harvests the accumulated matching and starts a fresh one.

use crate::arbiter::BitSet;
use crate::matcher::{MatchArbiters, Matcher, PointerRule};
use crate::requests::{Matching, Requests};

/// A pipelined matching engine for an n×n crossbar with `out_capacity`
/// receivers per output.
#[derive(Debug, Clone)]
pub struct SubScheduler {
    /// This sub-scheduler's view of the VOQ occupancy.
    pub req: Requests,
    /// Cells already claimed by the in-progress matching.
    reserved: Requests,
    out_capacity: usize,
    arbs: MatchArbiters,
    /// The in-progress matching; its per-output capacity is lowered by
    /// the owner when fault masking degrades an egress.
    matcher: Matcher,
    /// Accumulated partial matching: (input, output, sub-port).
    pairs: Vec<(usize, usize, usize)>,
    /// Per output: bit i set ⇔ req(i,o) > reserved(i,o) — maintained
    /// incrementally so the grant stage is O(N/64) per output instead of
    /// an O(N) scan.
    req_bits: Vec<BitSet>,
}

impl SubScheduler {
    /// Fresh engine for an `n`-port crossbar.
    pub fn new(n: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && out_capacity > 0);
        SubScheduler {
            req: Requests::square(n),
            reserved: Requests::square(n),
            out_capacity,
            arbs: MatchArbiters::new(n, out_capacity, PointerRule::EveryAccept),
            matcher: Matcher::new(n, out_capacity),
            pairs: Vec::with_capacity(n),
            req_bits: (0..n).map(|_| BitSet::new(n)).collect(),
        }
    }

    /// Keep `req_bits[o]` consistent with `req`/`reserved` at (i, o).
    #[inline]
    fn refresh_bit(&mut self, i: usize, o: usize) {
        if self.req.get(i, o) > self.reserved.get(i, o) {
            self.req_bits[o].set(i);
        } else {
            self.req_bits[o].clear(i);
        }
    }

    /// Drop the pair at `pairs[k]` from the in-progress matching.
    fn unmatch(&mut self, k: usize) {
        let (i, o, sp) = self.pairs.swap_remove(k);
        self.matcher.release(i, sp);
        self.reserved.dec(i, o);
        self.refresh_bit(i, o);
    }

    /// Ports.
    pub fn ports(&self) -> usize {
        self.req.inputs()
    }

    /// Record a request (cell arrival) in this sub-scheduler's view.
    pub fn note_arrival(&mut self, input: usize, output: usize) {
        self.req.inc(input, output);
        self.refresh_bit(input, output);
    }

    /// Remove one cell for (input, output) from this view, saturating —
    /// used when another sub-scheduler's grant consumed the cell. If the
    /// in-progress matching had claimed the now-gone cell, the stale pair
    /// is un-matched immediately so the input and output become available
    /// again (FLPPR's duplicate-removal step; without it a served cell
    /// would block its input and output in every other sub-scheduler for
    /// up to K cycles).
    pub fn note_departure(&mut self, input: usize, output: usize) {
        self.req.try_dec(input, output);
        while self.reserved.get(input, output) > self.req.get(input, output) {
            let pos = self
                .pairs
                .iter()
                .position(|&(i, o, _)| i == input && o == output)
                // lint:allow(panic-free): `reserved` is only incremented
                // when a pair is pushed, so a surplus implies a match
                .expect("reserved count implies a matched pair");
            self.unmatch(pos);
        }
        self.refresh_bit(input, output);
    }

    /// Size of the partial matching accumulated so far.
    pub fn partial_len(&self) -> usize {
        self.pairs.len()
    }

    /// Degrade (or restore) one output's effective capacity. Lowering the
    /// cap un-matches any in-progress pairs on the now-dead sub-ports so
    /// their inputs become grantable elsewhere this very iteration.
    pub fn set_output_capacity(&mut self, output: usize, cap: usize) {
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
                self.unmatch(k);
            } else {
                k += 1;
            }
        }
    }

    /// Perform one grant/accept iteration, extending the partial matching.
    pub fn iterate(&mut self) {
        let start = self.pairs.len();
        self.matcher
            .iterate(&mut self.arbs, &self.req_bits, &mut self.pairs);
        for k in start..self.pairs.len() {
            let (i, o, _) = self.pairs[k];
            self.reserved.inc(i, o);
            self.refresh_bit(i, o);
        }
    }

    /// Harvest the accumulated matching and reset for the next one.
    /// The request view is *not* touched: granted cells are removed by the
    /// owner once the grants are validated and issued.
    pub fn take(&mut self, out: &mut Matching) {
        out.clear();
        self.matcher.reset();
        // Releasing the reservations can only *add* requester bits, and
        // only at the matched pairs.
        for k in 0..self.pairs.len() {
            let (i, o, _) = self.pairs[k];
            out.push(i, o);
            self.reserved.dec(i, o);
            self.refresh_bit(i, o);
        }
        self.pairs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_iteration_matches_uncontended_requests() {
        let mut s = SubScheduler::new(8, 1);
        s.note_arrival(1, 2);
        s.note_arrival(3, 4);
        s.iterate();
        assert_eq!(s.partial_len(), 2);
        let mut m = Matching::new();
        s.take(&mut m);
        let mut pairs = m.pairs().to_vec();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (3, 4)]);
        assert_eq!(s.partial_len(), 0, "reset after take");
    }

    #[test]
    fn iterations_accumulate_without_double_booking() {
        let mut s = SubScheduler::new(4, 1);
        // Everyone wants output 0 plus a private output.
        for i in 0..4 {
            s.note_arrival(i, 0);
            s.note_arrival(i, (i + 1) % 4);
        }
        s.iterate();
        let after1 = s.partial_len();
        s.iterate();
        s.iterate();
        let after3 = s.partial_len();
        assert!(after3 >= after1);
        let mut m = Matching::new();
        s.take(&mut m);
        m.validate(&s.req, 1).unwrap();
    }

    #[test]
    fn reserved_cells_not_rematched() {
        let mut s = SubScheduler::new(4, 1);
        s.note_arrival(0, 0); // exactly one cell
        s.iterate();
        s.iterate();
        assert_eq!(s.partial_len(), 1, "single cell matched once");
    }

    #[test]
    fn departure_is_saturating() {
        let mut s = SubScheduler::new(4, 1);
        s.note_departure(0, 0); // no cell: must not underflow
        s.note_arrival(0, 0);
        s.note_departure(0, 0);
        s.iterate();
        assert_eq!(s.partial_len(), 0, "view empty after departure");
    }

    #[test]
    fn dual_capacity_matches_two_per_output() {
        let mut s = SubScheduler::new(4, 2);
        for i in 0..4 {
            s.note_arrival(i, 0);
        }
        s.iterate();
        assert_eq!(s.partial_len(), 2, "two receivers on output 0");
    }

    #[test]
    fn degraded_output_matches_fewer_and_recovers() {
        let mut s = SubScheduler::new(4, 2);
        s.set_output_capacity(0, 1);
        for i in 0..4 {
            s.note_arrival(i, 0);
        }
        s.iterate();
        assert_eq!(s.partial_len(), 1, "one surviving receiver on output 0");
        let mut m = Matching::new();
        s.take(&mut m);
        s.set_output_capacity(0, 2);
        s.iterate();
        s.iterate();
        assert_eq!(s.partial_len(), 2, "full capacity after repair");
    }

    #[test]
    fn lowering_capacity_unmatches_in_progress_pairs() {
        let mut s = SubScheduler::new(4, 2);
        for i in 0..4 {
            s.note_arrival(i, 0);
            s.note_arrival(i, 1);
        }
        s.iterate();
        s.iterate();
        let before = s.partial_len();
        assert!(before >= 3, "warm matching uses both receivers");
        // Kill output 0 entirely: its pairs must be released so the
        // freed inputs can be re-matched toward output 1.
        s.set_output_capacity(0, 0);
        let mut m = Matching::new();
        s.take(&mut m);
        assert!(
            m.pairs().iter().all(|&(_, o)| o != 0),
            "no grant to dead output"
        );
        s.iterate();
        s.iterate();
        let mut m2 = Matching::new();
        s.take(&mut m2);
        assert!(m2.pairs().iter().all(|&(_, o)| o != 0));
        assert!(!m2.is_empty(), "surviving output still matched");
    }
}
