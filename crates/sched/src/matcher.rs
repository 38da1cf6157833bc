//! The round-robin grant/accept matching kernel.
//!
//! iSLIP, the sub-schedulers of FLPPR and of the pipelined arbiter, the
//! fabric switch nodes and the CIOQ and burst switches all run the same
//! round: every free output sub-port grants one requesting unmatched
//! input through its round-robin arbiter, then every granted input
//! accepts one sub-port through its own. [`Matcher::iterate`] is that
//! round, once. Callers differ only in which inputs request each output
//! (one mask per output, fixed while a matching runs) and in when the
//! pointers move ([`PointerRule`]).
//!
//! The arbiter pointers are per-crossbar state ([`MatchArbiters`]); the
//! matching in progress and the grant scratch ([`Matcher`]) can be one
//! instance shared by every crossbar a simulator matches in turn.

use crate::arbiter::{BitSet, RoundRobinArbiter};

/// ⌈log₂ n⌉, and at least 1: the iteration count ref. [17] calls for,
/// and the pipeline depth of FLPPR and the pipelined arbiter.
pub fn ceil_log2(n: usize) -> usize {
    (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize
}

/// Which accepts move the round-robin pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerRule {
    /// Every accept moves the grant and accept pointers one beyond the
    /// accepted position.
    EveryAccept,
    /// Only accepts in a matching's first iteration move the pointers —
    /// the iSLIP rule, which prevents starvation and desynchronizes the
    /// grant arbiters.
    FirstIteration,
}

/// The round-robin pointers of one n×n crossbar with `out_capacity`
/// receivers (sub-ports) per output.
#[derive(Debug, Clone)]
pub struct MatchArbiters {
    /// Per output sub-port `o · out_capacity + k`, over inputs.
    grant: Vec<RoundRobinArbiter>,
    /// Per input, over output sub-ports.
    accept: Vec<RoundRobinArbiter>,
    rule: PointerRule,
}

impl MatchArbiters {
    /// All pointers at their start positions. The sub-port pointers of
    /// an output are staggered so that a dual-receiver output's two grant
    /// arbiters do not grant the same input on slot 0.
    pub fn new(n: usize, out_capacity: usize, rule: PointerRule) -> Self {
        assert!(n > 0 && out_capacity > 0);
        let mut grant = vec![RoundRobinArbiter::new(n); n * out_capacity];
        for output in grant.chunks_mut(out_capacity) {
            for (k, arb) in output.iter_mut().enumerate().skip(1) {
                *arb = RoundRobinArbiter::with_pointer(n, k);
            }
        }
        MatchArbiters {
            grant,
            accept: vec![RoundRobinArbiter::new(n * out_capacity); n],
            rule,
        }
    }
}

/// A matching in progress on an n×n crossbar, plus the scratch one
/// grant/accept round needs. The matching persists across
/// [`iterate`](Matcher::iterate) calls until [`reset`](Matcher::reset).
#[derive(Debug, Clone)]
pub struct Matcher {
    out_capacity: usize,
    /// Per output: sub-ports currently usable (≤ `out_capacity`).
    cap: Vec<usize>,
    in_matched: BitSet,
    subport_used: Vec<bool>,
    /// No iteration has run since the last reset.
    first_iteration: bool,
    grants_to_input: Vec<BitSet>,
    requesters: BitSet,
}

impl Matcher {
    /// An empty matching on an `n`-port crossbar with `out_capacity`
    /// sub-ports per output, all usable.
    pub fn new(n: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && out_capacity > 0);
        Matcher {
            out_capacity,
            cap: vec![out_capacity; n],
            in_matched: BitSet::new(n),
            subport_used: vec![false; n * out_capacity],
            first_iteration: true,
            grants_to_input: (0..n).map(|_| BitSet::new(n * out_capacity)).collect(),
            requesters: BitSet::new(n),
        }
    }

    /// Usable sub-ports of `output`.
    pub fn capacity(&self, output: usize) -> usize {
        self.cap[output]
    }

    /// Limit `output` to its first `cap` sub-ports. Pairs already matched
    /// on a higher sub-port stay matched until the caller
    /// [`release`](Matcher::release)s them.
    pub fn set_capacity(&mut self, output: usize, cap: usize) {
        assert!(cap <= self.out_capacity);
        self.cap[output] = cap;
    }

    /// Forget the matching: every input and sub-port is free again and
    /// the next iteration is a first iteration.
    pub fn reset(&mut self) {
        self.in_matched.clear_all();
        self.subport_used.fill(false);
        self.first_iteration = true;
    }

    /// Un-match the pair holding `input` and output sub-port `subport`.
    pub fn release(&mut self, input: usize, subport: usize) {
        self.in_matched.clear(input);
        self.subport_used[subport] = false;
    }

    /// One grant/accept round. `requests[o]` holds the inputs with a cell
    /// for output `o`. Outputs grant in ascending order, each free usable
    /// sub-port of an output in ascending order, to the first requesting
    /// unmatched input at or after its pointer; inputs then accept in
    /// ascending order. Each accepted pair is appended to `out` as
    /// `(input, output, sub-port)`, with sub-port `o · out_capacity + k`.
    /// Returns whether any pair was added; when none was, further
    /// iterations over the same requests add none either.
    pub fn iterate(
        &mut self,
        arbs: &mut MatchArbiters,
        requests: &[BitSet],
        out: &mut Vec<(usize, usize, usize)>,
    ) -> bool {
        let r = self.out_capacity;
        debug_assert_eq!(requests.len(), self.cap.len());
        debug_assert_eq!(arbs.grant.len(), self.subport_used.len());
        let move_pointers = self.first_iteration || arbs.rule == PointerRule::EveryAccept;
        self.first_iteration = false;

        for g in &mut self.grants_to_input {
            g.clear_all();
        }
        let mut any = false;
        for (o, mask) in requests.iter().enumerate() {
            let subports = o * r..o * r + self.cap[o];
            if subports.clone().all(|sp| self.subport_used[sp]) {
                continue;
            }
            self.requesters.assign_and_not(mask, &self.in_matched);
            if self.requesters.is_empty() {
                continue;
            }
            for sp in subports {
                if self.subport_used[sp] {
                    continue;
                }
                if let Some(i) = arbs.grant[sp].arbitrate(&self.requesters) {
                    self.grants_to_input[i].set(sp);
                    any = true;
                }
            }
        }
        if !any {
            return false;
        }
        // Grants only reach unmatched inputs, so every granted input
        // accepts.
        for (i, grants) in self.grants_to_input.iter().enumerate() {
            if grants.is_empty() {
                continue;
            }
            let Some(sp) = arbs.accept[i].arbitrate(grants) else {
                continue;
            };
            self.in_matched.set(i);
            self.subport_used[sp] = true;
            out.push((i, sp / r, sp));
            if move_pointers {
                arbs.grant[sp].advance_past(i);
                arbs.accept[i].advance_past(sp);
            }
        }
        true
    }

    /// A fresh matching: [`reset`](Matcher::reset), clear `out`, then
    /// [`iterate`](Matcher::iterate) up to `iterations` times, stopping
    /// at the first round that adds nothing.
    pub fn rematch(
        &mut self,
        arbs: &mut MatchArbiters,
        requests: &[BitSet],
        iterations: usize,
        out: &mut Vec<(usize, usize, usize)>,
    ) {
        self.reset();
        out.clear();
        for _ in 0..iterations {
            if !self.iterate(arbs, requests, out) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masks(n: usize, pairs: &[(usize, usize)]) -> Vec<BitSet> {
        let mut m: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for &(i, o) in pairs {
            m[o].set(i);
        }
        m
    }

    #[test]
    fn ceil_log2_matches_the_float_formula() {
        for n in 1..=65_536usize {
            let float = (n.max(2) as f64).log2().ceil() as usize;
            assert_eq!(ceil_log2(n), float, "n = {n}");
        }
    }

    #[test]
    fn contended_output_grants_in_pointer_order() {
        let mut arbs = MatchArbiters::new(4, 1, PointerRule::EveryAccept);
        let mut m = Matcher::new(4, 1);
        let req = masks(4, &[(1, 0), (2, 0), (3, 0)]);
        let mut served = Vec::new();
        for _ in 0..3 {
            let mut out = Vec::new();
            m.reset();
            assert!(m.iterate(&mut arbs, &req, &mut out));
            assert_eq!(out.len(), 1);
            served.push(out[0].0);
        }
        assert_eq!(served, vec![1, 2, 3], "pointer moves past each winner");
    }

    #[test]
    fn first_iteration_rule_ignores_later_accepts() {
        // Input 0 requests outputs 0 and 1, input 1 only output 1. Round
        // one matches (0, 0); output 1 granted input 0 and lost. Round
        // two matches (1, 1), which moves output 1's pointer only under
        // the every-accept rule.
        let req = masks(3, &[(0, 0), (0, 1), (1, 1)]);
        for (rule, pointer) in [
            (PointerRule::EveryAccept, 2),
            (PointerRule::FirstIteration, 0),
        ] {
            let mut arbs = MatchArbiters::new(3, 1, rule);
            let mut m = Matcher::new(3, 1);
            let mut out = Vec::new();
            assert!(m.iterate(&mut arbs, &req, &mut out));
            assert!(m.iterate(&mut arbs, &req, &mut out));
            assert!(!m.iterate(&mut arbs, &req, &mut out), "nothing left");
            assert_eq!(out, vec![(0, 0, 0), (1, 1, 1)]);
            assert_eq!(arbs.grant[1].pointer(), pointer, "{rule:?}");
            assert_eq!(arbs.grant[0].pointer(), 1, "{rule:?}: first round moves");
        }
    }

    #[test]
    fn release_frees_the_pair_for_the_next_round() {
        let mut arbs = MatchArbiters::new(2, 1, PointerRule::EveryAccept);
        let mut m = Matcher::new(2, 1);
        let req = masks(2, &[(0, 0)]);
        let mut out = Vec::new();
        assert!(m.iterate(&mut arbs, &req, &mut out));
        assert!(!m.iterate(&mut arbs, &req, &mut out), "already matched");
        m.release(0, 0);
        assert!(m.iterate(&mut arbs, &req, &mut out));
        assert_eq!(out, vec![(0, 0, 0), (0, 0, 0)]);
    }

    #[test]
    fn capacity_limits_the_usable_subports() {
        let mut arbs = MatchArbiters::new(4, 2, PointerRule::EveryAccept);
        let mut m = Matcher::new(4, 2);
        let req = masks(4, &[(0, 1), (1, 1), (2, 1), (3, 1)]);
        let mut out = Vec::new();
        m.set_capacity(1, 1);
        m.iterate(&mut arbs, &req, &mut out);
        m.iterate(&mut arbs, &req, &mut out);
        assert_eq!(out.len(), 1, "one usable receiver");
        assert_eq!(out[0].2, 2, "sub-port 0 of output 1");
        m.set_capacity(1, 0);
        m.reset();
        out.clear();
        assert!(!m.iterate(&mut arbs, &req, &mut out), "dead output");
    }
}
