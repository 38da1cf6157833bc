//! iSLIP — the classic iterative round-robin matcher (McKeown, ref. [17]).
//!
//! Used here both as the building block inside FLPPR's sub-schedulers and,
//! standalone, as the *non-pipelined* reference scheduler: it computes a
//! complete i-iteration matching within a single cell slot, which is
//! exactly what the paper argues is infeasible in hardware at 51.2 ns —
//! the motivation for FLPPR.
//!
//! The dual-receiver extension treats each output as `out_capacity`
//! sub-ports, each with its own grant arbiter, so the same algorithm
//! serves both Fig. 7 curves.

use crate::matcher::{ceil_log2, MatchArbiters, Matcher, PointerRule, RequestMasks};
use crate::requests::{Matching, Requests};
use crate::traits::CellScheduler;

/// iSLIP scheduler with a configurable iteration count and output capacity.
#[derive(Debug, Clone)]
pub struct Islip {
    occ: Requests,
    iterations: usize,
    out_capacity: usize,
    arbs: MatchArbiters,
    matcher: Matcher,
    /// Bit (i, o) set ⇔ occ(i,o) > 0, maintained incrementally.
    occ_bits: RequestMasks,
    pairs: Vec<(usize, usize, usize)>,
}

impl Islip {
    /// `n × n` iSLIP with `iterations` iterations and `out_capacity`
    /// receivers per output.
    pub fn new(n: usize, iterations: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && iterations > 0 && out_capacity > 0);
        Islip {
            occ: Requests::square(n),
            iterations,
            out_capacity,
            arbs: MatchArbiters::new(n, out_capacity, PointerRule::FirstIteration),
            matcher: Matcher::new(n, out_capacity),
            occ_bits: RequestMasks::new(n),
            pairs: Vec::with_capacity(n),
        }
    }

    /// The canonical configuration from ref. [17]: log₂N iterations.
    pub fn log2n(n: usize, out_capacity: usize) -> Self {
        Self::new(n, ceil_log2(n), out_capacity)
    }

    /// Internal VOQ occupancy view (for tests and diagnostics).
    pub fn occupancy(&self) -> &Requests {
        &self.occ
    }
}

impl CellScheduler for Islip {
    fn inputs(&self) -> usize {
        self.occ.inputs()
    }

    fn outputs(&self) -> usize {
        self.occ.outputs()
    }

    fn out_capacity(&self) -> usize {
        self.out_capacity
    }

    fn note_arrival(&mut self, input: usize, output: usize) {
        self.occ.inc(input, output);
        self.occ_bits.set(input, output);
    }

    fn tick(&mut self, _slot: u64) -> Matching {
        self.matcher.rematch(
            &mut self.arbs,
            &self.occ_bits,
            self.iterations,
            &mut self.pairs,
        );
        let mut matching = Matching::with_capacity(self.occ.inputs());
        for &(i, o, _) in &self.pairs {
            matching.push(i, o);
            self.occ.dec(i, o);
            if self.occ.get(i, o) == 0 {
                self.occ_bits.clear(i, o);
            }
        }
        matching
    }

    fn name(&self) -> &'static str {
        "iSLIP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut Islip, slots: u64) -> Vec<Matching> {
        (0..slots).map(|t| s.tick(t)).collect()
    }

    #[test]
    fn empty_switch_grants_nothing() {
        let mut s = Islip::new(4, 2, 1);
        assert!(s.tick(0).is_empty());
    }

    #[test]
    fn single_cell_granted_immediately() {
        let mut s = Islip::new(8, 1, 1);
        s.note_arrival(3, 5);
        let m = s.tick(0);
        assert_eq!(m.pairs(), &[(3, 5)]);
        assert!(s.tick(1).is_empty(), "cell consumed");
    }

    #[test]
    fn grants_respect_constraints() {
        let mut s = Islip::new(8, 3, 1);
        let mut shadow = Requests::square(8);
        // Load a conflicted pattern.
        for i in 0..8 {
            for o in [0usize, 1] {
                s.note_arrival(i, o);
                shadow.inc(i, o);
            }
        }
        let m = s.tick(0);
        m.validate(&shadow, 1).unwrap();
        // Single-receiver: at most 2 grants (outputs 0 and 1).
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn dual_receiver_doubles_hot_output_drain() {
        let mut s1 = Islip::new(8, 3, 1);
        let mut s2 = Islip::new(8, 3, 2);
        for i in 0..8 {
            s1.note_arrival(i, 0);
            s2.note_arrival(i, 0);
        }
        let m1 = s1.tick(0);
        let m2 = s2.tick(0);
        assert_eq!(m1.len(), 1);
        assert_eq!(m2.len(), 2, "two receivers accept two cells");
    }

    #[test]
    fn permutation_load_fully_matched_in_one_iteration() {
        let mut s = Islip::new(16, 1, 1);
        for i in 0..16 {
            s.note_arrival(i, (i + 3) % 16);
        }
        let m = s.tick(0);
        assert_eq!(m.len(), 16, "contention-free load matches completely");
    }

    #[test]
    fn more_iterations_grow_the_matching() {
        // A dense conflicted pattern: 1 iteration leaves holes that 4
        // iterations fill.
        let build = |iters| {
            let mut s = Islip::new(16, iters, 1);
            for i in 0..16 {
                for o in 0..16 {
                    if (i + o) % 3 == 0 {
                        s.note_arrival(i, o);
                    }
                }
            }
            s.tick(0).len()
        };
        let one = build(1);
        let four = build(4);
        assert!(four >= one);
        assert!(four >= 12, "iterated matching near-maximal: {four}");
    }

    #[test]
    fn round_robin_is_fair_across_hot_inputs() {
        // 4 inputs all fighting for output 0: over 8 slots each gets 2.
        let mut s = Islip::new(4, 1, 1);
        for _ in 0..8 {
            for i in 0..4 {
                s.note_arrival(i, 0);
            }
        }
        let mut served = [0u32; 4];
        for m in drain(&mut s, 8) {
            assert_eq!(m.len(), 1);
            served[m.pairs()[0].0] += 1;
        }
        assert_eq!(served, [2, 2, 2, 2], "round-robin fairness");
    }

    #[test]
    fn saturated_uniform_throughput_is_high() {
        // All VOQs deep: every slot must fill nearly all outputs —
        // iSLIP with log2(N) iterations converges to ~100% throughput.
        let n = 16;
        let mut s = Islip::log2n(n, 1);
        for i in 0..n {
            for o in 0..n {
                for _ in 0..50 {
                    s.note_arrival(i, o);
                }
            }
        }
        let slots = 200u64;
        let granted: usize = drain(&mut s, slots).iter().map(|m| m.len()).sum();
        let thr = granted as f64 / (slots as f64 * n as f64);
        assert!(thr > 0.95, "throughput {thr}");
    }

    #[test]
    fn occupancy_never_negative() {
        let mut s = Islip::new(4, 2, 2);
        s.note_arrival(0, 0);
        s.tick(0);
        // Would panic internally on a double grant for the same cell.
        for t in 1..10 {
            assert!(s.tick(t).is_empty());
        }
    }
}
