//! The round-robin grant/accept matching kernel.
//!
//! iSLIP, the sub-schedulers of FLPPR and of the pipelined arbiter, the
//! fabric switch nodes and the CIOQ and burst switches all run the same
//! round: every free output sub-port grants one requesting unmatched
//! input through its round-robin arbiter, then every granted input
//! accepts one sub-port through its own. [`Matcher::iterate`] is that
//! round, once. Callers differ only in which inputs request each output
//! ([`RequestMasks`], fixed while a matching runs) and in when the
//! pointers move ([`PointerRule`]).
//!
//! The arbiter pointers are per-crossbar state ([`MatchArbiters`]); the
//! matching in progress and the grant scratch ([`Matcher`]) can be one
//! instance shared by every crossbar a simulator matches in turn.
//!
//! A round costs work in proportion to what can still change: it visits
//! only outputs that are both requested (the masks' live set) and open
//! (a usable sub-port still free), and accepts only at the inputs
//! granted in that round.

use crate::arbiter::{next_set_wrapping, one_past};

/// ⌈log₂ n⌉, and at least 1: the iteration count ref. [17] calls for,
/// and the pipeline depth of FLPPR and the pipelined arbiter.
pub fn ceil_log2(n: usize) -> usize {
    (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize
}

/// The lowest `k` bits of a word (`k ≤ 64`).
fn low_bits(k: usize) -> u64 {
    if k == 64 {
        !0
    } else {
        (1 << k) - 1
    }
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

/// The per-output request masks of an n×n crossbar: bit `i` of output
/// `o`'s mask is set when input `i` requests `o`. The masks sit in one
/// flat word array with a fixed stride of ⌈n / 64⌉ words per output, and
/// the set of outputs with a non-empty mask (the live set) is kept up to
/// date by every update, so the kernel visits requested outputs only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMasks {
    n: usize,
    /// Words per mask, and words of the live set.
    stride: usize,
    /// Output `o`'s mask is `words[o · stride .. (o + 1) · stride]`.
    words: Vec<u64>,
    /// Bit `o` set ⇔ output `o`'s mask is non-empty.
    live: Vec<u64>,
}

impl RequestMasks {
    /// No requests on an `n`-port crossbar.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let stride = n.div_ceil(64);
        RequestMasks {
            n,
            stride,
            words: vec![0; n * stride],
            live: vec![0; stride],
        }
    }

    /// Ports.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// Whether `input` requests `output`.
    #[inline]
    pub fn get(&self, input: usize, output: usize) -> bool {
        debug_assert!(input < self.n && output < self.n);
        self.words[output * self.stride + input / 64] >> (input % 64) & 1 == 1
    }

    /// Let `input` request `output`.
    #[inline]
    pub fn set(&mut self, input: usize, output: usize) {
        debug_assert!(input < self.n && output < self.n);
        self.words[output * self.stride + input / 64] |= 1 << (input % 64);
        self.live[output / 64] |= 1 << (output % 64);
    }

    /// Withdraw `input`'s request for `output`.
    #[inline]
    pub fn clear(&mut self, input: usize, output: usize) {
        debug_assert!(input < self.n && output < self.n);
        let row = output * self.stride;
        let w = row + input / 64;
        self.words[w] &= !(1 << (input % 64));
        if self.words[w] == 0 && self.words[row..row + self.stride].iter().all(|&w| w == 0) {
            self.live[output / 64] &= !(1 << (output % 64));
        }
    }

    /// Withdraw every request, touching only the live masks.
    pub fn clear_all(&mut self) {
        for (lw, live) in self.live.iter_mut().enumerate() {
            let mut outputs = std::mem::take(live);
            while outputs != 0 {
                let o = lw * 64 + outputs.trailing_zeros() as usize;
                outputs &= outputs - 1;
                self.words[o * self.stride..(o + 1) * self.stride].fill(0);
            }
        }
    }

    /// True when no input requests any output.
    pub fn is_empty(&self) -> bool {
        self.live.iter().all(|&w| w == 0)
    }
}

/// The round-robin pointers of one n×n crossbar with `out_capacity`
/// receivers (sub-ports) per output.
#[derive(Debug, Clone)]
pub struct MatchArbiters {
    /// Per output sub-port `o · out_capacity + k`: the grant pointer,
    /// over inputs.
    grant: Vec<usize>,
    /// Per input: the accept pointer, over output sub-ports.
    accept: Vec<usize>,
    rule: PointerRule,
}

impl MatchArbiters {
    /// All pointers at their start positions. The sub-port pointers of
    /// an output are staggered (sub-port `k` starts at input `k`) so that
    /// a dual-receiver output's two grant arbiters do not grant the same
    /// input on slot 0.
    pub fn new(n: usize, out_capacity: usize, rule: PointerRule) -> Self {
        assert!(n > 0 && out_capacity > 0);
        let mut grant = vec![0; n * out_capacity];
        if out_capacity > 1 {
            for (sp, pointer) in grant.iter_mut().enumerate() {
                *pointer = sp % out_capacity % n;
            }
        }
        MatchArbiters {
            grant,
            accept: vec![0; n],
            rule,
        }
    }

    /// The grant pointer of output sub-port `subport`: the first input
    /// it considers.
    pub fn grant_pointer(&self, subport: usize) -> usize {
        self.grant[subport]
    }

    /// The accept pointer of `input`: the first sub-port it considers.
    pub fn accept_pointer(&self, input: usize) -> usize {
        self.accept[input]
    }
}

/// A matching in progress on an n×n crossbar, plus the scratch one
/// grant/accept round needs. The matching persists across
/// [`iterate`](Matcher::iterate) calls until [`reset`](Matcher::reset).
///
/// Every set is a flat word array: per output, the usable and the
/// matched sub-ports are one word each (so `out_capacity ≤ 64`), and a
/// sub-port is free when it is usable and not matched.
#[derive(Debug, Clone)]
pub struct Matcher {
    n: usize,
    out_capacity: usize,
    /// Words of an input- or output-indexed set: ⌈n / 64⌉.
    words: usize,
    /// Words of a sub-port-indexed set: ⌈n · out_capacity / 64⌉.
    subport_words: usize,
    /// Per output: bit `k` set ⇔ sub-port `k` is usable.
    usable: Vec<u64>,
    /// Per output: bit `k` set ⇔ sub-port `k` is matched.
    used: Vec<u64>,
    /// Bit `o` set ⇔ output `o` has a usable sub-port.
    capable: Vec<u64>,
    /// Bit `o` set ⇔ output `o` has a free usable sub-port.
    open: Vec<u64>,
    in_matched: Vec<u64>,
    /// No iteration has run since the last reset.
    first_iteration: bool,
    /// Per input `i`: the sub-ports granting it this round, in
    /// `grants[i · subport_words ..]`. All zero between rounds: each
    /// input's words are cleared when it accepts.
    grants: Vec<u64>,
    /// The inputs granted this round.
    granted: Vec<u64>,
    /// The requesting unmatched inputs of the output being granted.
    requesters: Vec<u64>,
}

impl Matcher {
    /// An empty matching on an `n`-port crossbar with `out_capacity`
    /// sub-ports per output, all usable.
    pub fn new(n: usize, out_capacity: usize) -> Self {
        assert!(n > 0 && out_capacity > 0 && out_capacity <= 64);
        let words = n.div_ceil(64);
        let subport_words = (n * out_capacity).div_ceil(64);
        let mut capable = vec![!0u64; words];
        capable[words - 1] = low_bits(n - 64 * (words - 1));
        Matcher {
            n,
            out_capacity,
            words,
            subport_words,
            usable: vec![low_bits(out_capacity); n],
            used: vec![0; n],
            open: capable.clone(),
            capable,
            in_matched: vec![0; words],
            first_iteration: true,
            grants: vec![0; n * subport_words],
            granted: vec![0; words],
            requesters: vec![0; words],
        }
    }

    /// Usable sub-ports of `output`.
    pub fn capacity(&self, output: usize) -> usize {
        self.usable[output].count_ones() as usize
    }

    /// Keep `output`'s bit in the open set in step with its sub-ports.
    #[inline]
    fn refresh_open(&mut self, output: usize) {
        let bit = 1 << (output % 64);
        if self.usable[output] & !self.used[output] != 0 {
            self.open[output / 64] |= bit;
        } else {
            self.open[output / 64] &= !bit;
        }
    }

    /// Limit `output` to its first `cap` sub-ports. Pairs already matched
    /// on a higher sub-port stay matched until the caller
    /// [`release`](Matcher::release)s them.
    pub fn set_capacity(&mut self, output: usize, cap: usize) {
        assert!(cap <= self.out_capacity);
        self.usable[output] = low_bits(cap);
        let bit = 1 << (output % 64);
        if cap > 0 {
            self.capable[output / 64] |= bit;
        } else {
            self.capable[output / 64] &= !bit;
        }
        self.refresh_open(output);
    }

    /// Forget the matching: every input and sub-port is free again and
    /// the next iteration is a first iteration.
    pub fn reset(&mut self) {
        self.in_matched.fill(0);
        self.used.fill(0);
        self.open.copy_from_slice(&self.capable);
        self.first_iteration = true;
    }

    /// Un-match the pair holding `input` and output sub-port `subport`.
    pub fn release(&mut self, input: usize, subport: usize) {
        self.in_matched[input / 64] &= !(1 << (input % 64));
        let output = subport / self.out_capacity;
        self.used[output] &= !(1 << (subport - output * self.out_capacity));
        self.refresh_open(output);
    }

    /// One grant/accept round. Output `o` is requested by the inputs in
    /// `requests`' mask `o`. Outputs grant in ascending order, each free
    /// usable sub-port of an output in ascending order, to the first
    /// requesting unmatched input at or after its pointer; inputs then
    /// accept in ascending order. Each accepted pair is appended to `out`
    /// as `(input, output, sub-port)`, with sub-port `o · out_capacity +
    /// k`. Returns whether any pair was added; when none was, further
    /// iterations over the same requests add none either.
    pub fn iterate(
        &mut self,
        arbs: &mut MatchArbiters,
        requests: &RequestMasks,
        out: &mut Vec<(usize, usize, usize)>,
    ) -> bool {
        let r = self.out_capacity;
        let stride = requests.stride;
        debug_assert_eq!(requests.n, self.n);
        debug_assert_eq!(arbs.grant.len(), self.n * r);
        let move_pointers = self.first_iteration || arbs.rule == PointerRule::EveryAccept;
        self.first_iteration = false;

        // Grant: only requested outputs with a free usable sub-port.
        let mut any = false;
        for (lw, (&live, &open)) in requests.live.iter().zip(&self.open).enumerate() {
            let mut outputs = live & open;
            while outputs != 0 {
                let o = lw * 64 + outputs.trailing_zeros() as usize;
                outputs &= outputs - 1;
                let mask = &requests.words[o * stride..(o + 1) * stride];
                let mut requesting = 0;
                for ((q, &m), &matched) in
                    self.requesters.iter_mut().zip(mask).zip(&self.in_matched)
                {
                    *q = m & !matched;
                    requesting |= *q;
                }
                if requesting == 0 {
                    continue;
                }
                let mut free = self.usable[o] & !self.used[o];
                while free != 0 {
                    let sp = o * r + free.trailing_zeros() as usize;
                    free &= free - 1;
                    if let Some(i) = next_set_wrapping(&self.requesters, arbs.grant[sp]) {
                        self.grants[i * self.subport_words + sp / 64] |= 1 << (sp % 64);
                        self.granted[i / 64] |= 1 << (i % 64);
                        any = true;
                    }
                }
            }
        }
        if !any {
            return false;
        }
        // Accept: only the inputs granted this round. Grants only reach
        // unmatched inputs, so every granted input accepts.
        for gw in 0..self.words {
            let mut inputs = std::mem::take(&mut self.granted[gw]);
            while inputs != 0 {
                let i = gw * 64 + inputs.trailing_zeros() as usize;
                inputs &= inputs - 1;
                let grants = &mut self.grants[i * self.subport_words..(i + 1) * self.subport_words];
                let Some(sp) = next_set_wrapping(grants, arbs.accept[i]) else {
                    continue;
                };
                grants.fill(0);
                let o = sp / r;
                self.in_matched[i / 64] |= 1 << (i % 64);
                self.used[o] |= 1 << (sp - o * r);
                self.refresh_open(o);
                out.push((i, o, sp));
                if move_pointers {
                    arbs.grant[sp] = one_past(i, self.n);
                    arbs.accept[i] = one_past(sp, self.n * r);
                }
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
        requests: &RequestMasks,
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

    fn masks(n: usize, pairs: &[(usize, usize)]) -> RequestMasks {
        let mut m = RequestMasks::new(n);
        for &(i, o) in pairs {
            m.set(i, o);
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
            assert_eq!(arbs.grant_pointer(1), pointer, "{rule:?}");
            assert_eq!(arbs.grant_pointer(0), 1, "{rule:?}: first round moves");
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

    #[test]
    fn request_masks_track_their_live_outputs() {
        let mut m = RequestMasks::new(130);
        assert!(m.is_empty());
        m.set(0, 7);
        m.set(129, 7);
        m.set(64, 128);
        assert!(m.get(0, 7) && m.get(129, 7) && m.get(64, 128));
        assert!(!m.get(1, 7));
        assert_eq!(m.live, vec![1 << 7, 0, 1]);
        m.clear(0, 7);
        assert_eq!(m.live[0], 1 << 7, "input 129 still requests output 7");
        m.clear(129, 7);
        assert_eq!(m.live[0], 0, "output 7 has no requester left");
        m.clear(5, 3);
        assert_eq!(m.live, vec![0, 0, 1], "clearing an unset bit is a no-op");
        m.clear_all();
        assert!(m.is_empty());
        assert_eq!(m, RequestMasks::new(130));
    }

    #[test]
    fn open_outputs_follow_matches_releases_and_capacity() {
        let mut arbs = MatchArbiters::new(4, 2, PointerRule::EveryAccept);
        let mut m = Matcher::new(4, 2);
        let req = masks(4, &[(0, 1), (1, 1), (2, 1)]);
        let mut out = Vec::new();
        assert!(m.iterate(&mut arbs, &req, &mut out));
        assert_eq!(out.len(), 2, "both receivers of output 1");
        assert_eq!(m.open[0] & 0b10, 0, "output 1 is full");
        assert!(!m.iterate(&mut arbs, &req, &mut out));
        let (i, _, sp) = out.swap_remove(0);
        m.release(i, sp);
        assert_ne!(m.open[0] & 0b10, 0, "a receiver is free again");
        m.set_capacity(1, 0);
        assert_eq!(m.open[0] & 0b10, 0, "dead output");
        m.set_capacity(1, 2);
        assert!(m.iterate(&mut arbs, &req, &mut out));
        assert_eq!(out.len(), 2);
    }
}
