//! Generalized L-level folded-Clos simulation — the §VI.C comparison in
//! motion.
//!
//! §VI.C argues by stage count: 2048 ports need 3 OSMOSIS stages but 5
//! high-end or 9 commodity electronic stages, and "each stage contributes
//! to latency and power consumption". The two-level simulator in
//! [`crate::multistage`] covers the OSMOSIS case; this module builds a
//! folded Clos of **any** depth from radix-k switches so fabrics of
//! different radix can be simulated at the *same* host count and their
//! latencies compared hop for hop.
//!
//! Construction (m = k/2): hosts = m^L, every level has m^(L−1) switches
//! of m down + m up ports (the top level uses only its down half).
//! Switch indices are (L−1)-digit base-m numbers; the up-edge from a
//! level-l switch X via up-port p leads to the level-(l+1) switch with
//! digit l of X replaced by p, whose down-port q = old digit l. A packet
//! ascends to the lowest common ancestor level (up-ports chosen by flow
//! hash, so per-flow order holds) and descends following the destination
//! digits. Links carry credits exactly as in the two-level model; the
//! losslessness assertion is the same.
//!
//! The simulator runs on the shared engine via the `CellSwitch` hooks
//! and reports the unified [`EngineReport`]; the stage count (2L−1) of
//! the simulated topology rides along as `extra("stages")`.

use crate::spec::TopologyError;
use osmosis_sched::{MatchArbiters, Matcher, PointerRule, RequestMasks};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_switch::driven::{run_switch, CellSwitch};
use osmosis_switch::Cell;
use osmosis_traffic::{Arrival, SequenceChecker, SequenceStamper, TrafficGen};
use std::collections::VecDeque;

/// Topology descriptor for an L-level folded Clos of radix-k switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiLevelClos {
    /// Switch radix (even, ≥ 4).
    pub radix: usize,
    /// Levels of switches.
    pub levels: u32,
}

impl MultiLevelClos {
    /// Build a descriptor. `radix` must be even ≥ 4, `levels ≥ 1`;
    /// panics otherwise — use [`try_new`](Self::try_new) where the
    /// parameters come from external input.
    pub fn new(radix: usize, levels: u32) -> Self {
        match Self::try_new(radix, levels) {
            Ok(t) => t,
            // lint:allow(panic-free): documented panic contract of the
            // infallible constructor; `try_new` is the checked form
            Err(e) => panic!("{e}"),
        }
    }

    /// Build a descriptor, rejecting bad parameters with a typed error.
    pub fn try_new(radix: usize, levels: u32) -> Result<Self, TopologyError> {
        if radix < 4 || !radix.is_multiple_of(2) {
            return Err(TopologyError::InvalidRadix {
                radix,
                min: 4,
                even: true,
            });
        }
        if !(1..=16).contains(&levels) {
            return Err(TopologyError::InvalidLevels { levels });
        }
        Ok(MultiLevelClos { radix, levels })
    }

    /// Down/up ports per switch (m = k/2).
    pub fn m(&self) -> usize {
        self.radix / 2
    }

    /// Host count: m^L.
    pub fn hosts(&self) -> usize {
        self.m().pow(self.levels)
    }

    /// Switches per level: m^(L−1).
    pub fn switches_per_level(&self) -> usize {
        self.m().pow(self.levels - 1)
    }

    /// Stages a packet traverses end to end: 2L−1.
    pub fn stages(&self) -> u32 {
        2 * self.levels - 1
    }

    /// Digit `pos` (base m) of a switch/leaf index.
    fn digit(&self, index: usize, pos: u32) -> usize {
        (index / self.m().pow(pos)) % self.m()
    }

    /// Replace digit `pos` of `index` with `value`.
    fn with_digit(&self, index: usize, pos: u32, value: usize) -> usize {
        let p = self.m().pow(pos);
        index - self.digit(index, pos) * p + value * p
    }

    /// Leaf switch of a host.
    pub fn leaf_of(&self, host: usize) -> usize {
        host / self.m()
    }

    /// Ascent height for a src→dst route: the number of up-hops needed
    /// (0 when both hosts share a leaf).
    pub fn ascent(&self, src: usize, dst: usize) -> u32 {
        let (ls, ld) = (self.leaf_of(src), self.leaf_of(dst));
        if ls == ld {
            return 0;
        }
        let mut a = 0;
        for pos in 0..self.levels - 1 {
            if self.digit(ls, pos) != self.digit(ld, pos) {
                a = pos + 1;
            }
        }
        a
    }

    /// The full switch path a src→dst flow takes, as (level, switch
    /// index) pairs — pure topology, used by property tests and by
    /// anyone who wants to reason about link loads without running the
    /// simulator.
    pub fn path(&self, src: usize, dst: usize) -> Vec<(u32, usize)> {
        assert!(src < self.hosts() && dst < self.hosts());
        let a = self.ascent(src, dst);
        let mut sw = self.leaf_of(src);
        let mut out = vec![(0u32, sw)];
        for level in 0..a {
            let p = self.up_choice(src, dst, level);
            sw = self.with_digit(sw, level, p);
            out.push((level + 1, sw));
        }
        for level in (1..=a).rev() {
            let q = self.digit(self.leaf_of(dst), level - 1);
            sw = self.with_digit(sw, level - 1, q);
            out.push((level - 1, sw));
        }
        out
    }

    /// Deterministic per-flow up-port choice at ascent step `level` —
    /// the shared [`crate::spec::up_choice`] hash, single-sourced so the
    /// spec-expanded fabrics route identically.
    pub fn up_choice(&self, src: usize, dst: usize, level: u32) -> usize {
        crate::spec::up_choice(src, dst, level, self.m())
    }
}

/// Configuration for a multilevel fabric run.
#[derive(Debug, Clone, Copy)]
pub struct MultiLevelConfig {
    /// Topology.
    pub topo: MultiLevelClos,
    /// Link flight time in slots.
    pub link_delay: u64,
    /// Input-buffer capacity per switch input port.
    pub buffer_cells: usize,
    /// Matching iterations per switch per slot.
    pub iterations: usize,
}

impl MultiLevelConfig {
    /// RTT-sized buffers, 3 iterations.
    pub fn standard(topo: MultiLevelClos, link_delay: u64) -> Self {
        MultiLevelConfig {
            topo,
            link_delay,
            buffer_cells: (2 * link_delay + 2) as usize,
            iterations: 3,
        }
    }
}

/// Per-switch state: ports 0..m−1 down, m..2m−1 up. The wiring tables
/// (`down`, `up`) are read off the compiled expansion at construction —
/// `None` marks the unused up-side of the top level.
struct Node {
    voq: Vec<VecDeque<Cell>>,
    input_occupancy: Vec<usize>,
    credits: Vec<usize>,
    arbs: MatchArbiters,
    /// Where each output port's cable leads.
    down: Vec<Option<Hop>>,
    /// Where each input port's credits return to.
    up: Vec<Option<CreditTo>>,
}

/// Destination of a sent cell.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Host(usize),
    /// (level, switch, input port)
    Switch(u32, usize, usize),
}

/// The multilevel fabric simulator.
pub struct MultiLevelFabric {
    cfg: MultiLevelConfig,
    /// `nodes[level][switch]`.
    nodes: Vec<Vec<Node>>,
    host_queues: Vec<VecDeque<Cell>>,
    host_credits: Vec<usize>,
    cell_flights: VecDeque<(u64, Hop, Cell)>,
    credit_flights: VecDeque<(u64, CreditTo)>,
    stamper: SequenceStamper,
    checker: SequenceChecker,
    next_id: u64,
    /// Matching scratch shared by every switch, which are matched in
    /// turn: the matching in progress, the per-output request masks and
    /// the accepted pairs.
    matcher: Matcher,
    requests: RequestMasks,
    matched: Vec<(usize, usize, usize)>,
}

#[derive(Debug, Clone, Copy)]
enum CreditTo {
    Host(usize),
    /// (level, switch, output port)
    Switch(u32, usize, usize),
}

impl MultiLevelFabric {
    /// Build the fabric.
    pub fn new(cfg: MultiLevelConfig) -> Self {
        assert!(cfg.link_delay >= 1);
        let t = cfg.topo;
        let ports = 2 * t.m();
        let width = t.switches_per_level();
        // The wiring is the 1-plane expansion of the same spec; reading
        // the tables off the compiled graph keeps this simulator and the
        // topology compiler in provable agreement (see the equivalence
        // test below).
        let expanded = match crate::expand::ExpandedFabric::expand(
            crate::spec::TopologySpec::m_ary_fat_tree(t.radix, t.levels),
        ) {
            Ok(fab) => fab,
            // lint:allow(panic-free): MultiLevelClos::new already
            // validated radix and levels; kept as the infallible
            // constructor's documented contract
            Err(e) => panic!("{e}"),
        };
        use crate::expand::Peer;
        use crate::ids::{EntityId, SwitchId};
        let nodes = (0..t.levels)
            .map(|level| {
                (0..width)
                    .map(|sw| {
                        let swid = SwitchId::from_index(level as usize * width + sw);
                        let mut down = Vec::with_capacity(ports);
                        let mut up = Vec::with_capacity(ports);
                        for local in 0..ports {
                            let peer = expanded.ports[expanded.port_id(swid, local as u32)].peer;
                            let far = match peer {
                                Peer::Host(h) => {
                                    down.push(Some(Hop::Host(h.index())));
                                    up.push(Some(CreditTo::Host(h.index())));
                                    continue;
                                }
                                Peer::Port(far) => far,
                                Peer::Unconnected => {
                                    down.push(None);
                                    up.push(None);
                                    continue;
                                }
                            };
                            let fsw = expanded.ports[far].switch;
                            let flevel = expanded.level_of(fsw);
                            let fpos = expanded.switches[fsw].pos as usize;
                            let flocal = expanded.ports[far].local as usize;
                            down.push(Some(Hop::Switch(flevel, fpos, flocal)));
                            up.push(Some(CreditTo::Switch(flevel, fpos, flocal)));
                        }
                        Node {
                            voq: (0..ports * ports).map(|_| VecDeque::new()).collect(),
                            input_occupancy: vec![0; ports],
                            credits: vec![cfg.buffer_cells; ports],
                            arbs: MatchArbiters::new(ports, 1, PointerRule::EveryAccept),
                            down,
                            up,
                        }
                    })
                    .collect()
            })
            .collect();
        MultiLevelFabric {
            cfg,
            nodes,
            host_queues: (0..t.hosts()).map(|_| VecDeque::new()).collect(),
            host_credits: vec![cfg.buffer_cells; t.hosts()],
            cell_flights: VecDeque::new(),
            credit_flights: VecDeque::new(),
            stamper: SequenceStamper::new(),
            checker: SequenceChecker::new(),
            next_id: 0,
            matcher: Matcher::new(ports, 1),
            requests: RequestMasks::new(ports),
            matched: Vec::with_capacity(ports),
        }
    }

    /// Topology.
    pub fn topology(&self) -> MultiLevelClos {
        self.cfg.topo
    }

    /// Output port a cell takes at (level, switch), given the input side
    /// it arrived on: cells arriving on an up-side input (≥ m) are
    /// descending and always continue down; cells arriving from a host or
    /// from below ascend until the lowest common ancestor level, then
    /// turn.
    fn route(&self, level: u32, switch: usize, in_port: usize, cell: &Cell) -> usize {
        let t = self.cfg.topo;
        let m = t.m();
        let descending = in_port >= m;
        if !descending && level < t.ascent(cell.src, cell.dst) {
            // Still ascending: up port by flow hash.
            return m + t.up_choice(cell.src, cell.dst, level);
        }
        if level == 0 {
            // At the destination leaf.
            debug_assert_eq!(switch, t.leaf_of(cell.dst));
            cell.dst % m
        } else {
            // Descending (or turning): down port = destination digit
            // (level−1).
            t.digit(t.leaf_of(cell.dst), level - 1)
        }
    }

    /// Where an output port of (level, switch) leads — the closed-form
    /// digit rule the expansion-derived tables are checked against.
    #[cfg(test)]
    fn downstream(&self, level: u32, switch: usize, port: usize) -> Hop {
        let t = self.cfg.topo;
        let m = t.m();
        if port < m {
            if level == 0 {
                Hop::Host(switch * m + port)
            } else {
                // Down edge: level-l switch Y down-port q → level l−1
                // switch X = Y[digit l−1 := q]... inverse of the up rule:
                // Y was reached from X via up-port p where Y = X[digit
                // l−1 := p]; conversely X = Y[digit l−1 := q] where q is
                // X's old digit — the down port *selects* that digit.
                let below = t.with_digit(switch, level - 1, port);
                // The receiving input port on X is the up port it used,
                // which is Y's digit (level−1).
                let in_port = m + t.digit(switch, level - 1);
                Hop::Switch(level - 1, below, in_port)
            }
        } else {
            // Up edge: to level+1, switch with digit `level` := p.
            let p = port - m;
            let above = t.with_digit(switch, level, p);
            let in_port = t.digit(switch, level); // our old digit
            Hop::Switch(level + 1, above, in_port)
        }
    }

    /// Where an input port's credits return to — closed form, kept as
    /// the test oracle for the expansion-derived tables.
    #[cfg(test)]
    fn upstream(&self, level: u32, switch: usize, in_port: usize) -> CreditTo {
        let t = self.cfg.topo;
        let m = t.m();
        if in_port < m {
            if level == 0 {
                CreditTo::Host(switch * m + in_port)
            } else {
                // Cells arriving on a down-side input of a level-l switch
                // came *up* from level l−1: input port q < m corresponds
                // to the lower switch X = self[digit l−1 := q]'s up port
                // (m + our digit l−1)... but by construction cells from
                // below arrive on input ports ≥ m? No: the up edge from X
                // (up port m+p) lands on the level-(l+1) switch's input
                // port equal to X's old digit — a *down-side* index.
                let below = t.with_digit(switch, level - 1, in_port);
                let out_port = m + t.digit(switch, level - 1);
                CreditTo::Switch(level - 1, below, out_port)
            }
        } else {
            // Inputs ≥ m receive from the level-(l+1) switch our up port
            // (in_port − m) leads to; it sent via its down port equal to
            // our digit at position `level`.
            let above = t.with_digit(switch, level, in_port - m);
            CreditTo::Switch(level + 1, above, t.digit(switch, level))
        }
    }

    /// Run traffic through the fabric on the shared engine. The stage
    /// count of the topology is reported as `extra("stages")`.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }
}

impl CellSwitch for MultiLevelFabric {
    fn ports(&self) -> usize {
        self.cfg.topo.hosts()
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        self.checker = SequenceChecker::new();
        // Engine-level buffer override re-arms the credit loops (valid on
        // a fabric that has not run yet).
        if let Some(b) = cfg.buffer_cells {
            if b != self.cfg.buffer_cells {
                assert!(b >= 1);
                self.cfg.buffer_cells = b;
                for level in self.nodes.iter_mut() {
                    for node in level.iter_mut() {
                        node.credits.iter_mut().for_each(|c| *c = b);
                    }
                }
                self.host_credits.iter_mut().for_each(|c| *c = b);
            }
        }
    }

    fn arbitrate<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        let t = self.cfg.topo;
        let m = t.m();
        let ports = 2 * m;
        let d = self.cfg.link_delay;
        let buffer_cells = self.cfg.buffer_cells;

        // Cell arrivals.
        while self
            .cell_flights
            .front()
            .is_some_and(|&(at, _, _)| at == slot)
        {
            let Some((_, hop, cell)) = self.cell_flights.pop_front() else {
                break;
            };
            match hop {
                Hop::Host(h) => {
                    debug_assert_eq!(cell.dst, h);
                    self.checker.record(cell.src, cell.dst, cell.seq);
                    obs.cell_delivered_flow(h, cell.inject_slot, cell.src, cell.seq);
                }
                Hop::Switch(level, sw, in_port) => {
                    let out = self.route(level, sw, in_port, &cell);
                    let node = &mut self.nodes[level as usize][sw];
                    node.input_occupancy[in_port] += 1;
                    assert!(
                        node.input_occupancy[in_port] <= buffer_cells,
                        "buffer overflow at level {level} switch {sw} \
                         port {in_port}"
                    );
                    obs.note_queue_depth(node.input_occupancy[in_port]);
                    node.voq[in_port * ports + out].push_back(cell);
                }
            }
        }

        // Credit returns.
        while self
            .credit_flights
            .front()
            .is_some_and(|&(at, _)| at == slot)
        {
            let Some((_, credit)) = self.credit_flights.pop_front() else {
                break;
            };
            match credit {
                CreditTo::Host(h) => self.host_credits[h] += 1,
                CreditTo::Switch(level, sw, port) => {
                    self.nodes[level as usize][sw].credits[port] += 1;
                }
            }
        }

        // Matchings, level by level.
        for level in 0..t.levels {
            for sw in 0..t.switches_per_level() {
                {
                    let node = &mut self.nodes[level as usize][sw];
                    self.requests.clear_all();
                    for o in 0..ports {
                        if node.credits[o] == 0 {
                            continue;
                        }
                        for i in 0..ports {
                            if !node.voq[i * ports + o].is_empty() {
                                self.requests.set(i, o);
                            }
                        }
                    }
                    self.matcher.rematch(
                        &mut node.arbs,
                        &self.requests,
                        self.cfg.iterations,
                        &mut self.matched,
                    );
                }
                for k in 0..self.matched.len() {
                    let (i, o, _) = self.matched[k];
                    let cell = {
                        let node = &mut self.nodes[level as usize][sw];
                        let mut cell = node.voq[i * ports + o]
                            .pop_front()
                            // lint:allow(panic-free): the maximal matching
                            // only pairs ports with a queued cell
                            .expect("matched pair without a queued cell");
                        cell.grant_slot = slot;
                        node.input_occupancy[i] -= 1;
                        node.credits[o] -= 1;
                        cell
                    };
                    // Credit for hosts feeding leaf down-ports: a host
                    // sink never consumes switch credits, so restore
                    // the decrement for host-bound ports.
                    let Some(hop) = self.nodes[level as usize][sw].down[o] else {
                        // lint:allow(panic-free): routing never selects
                        // the top level's unused up-side, so a matched
                        // pair always has a cable
                        panic!("matched cell bound for an unwired port")
                    };
                    if matches!(hop, Hop::Host(_)) {
                        self.nodes[level as usize][sw].credits[o] += 1;
                    }
                    let Some(credit_to) = self.nodes[level as usize][sw].up[i] else {
                        // lint:allow(panic-free): cells only arrive on
                        // wired inputs, so the credit return is always
                        // defined
                        panic!("credit return for an unwired input")
                    };
                    self.credit_flights.push_back((slot + d, credit_to));
                    self.cell_flights.push_back((slot + d, hop, cell));
                }
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, slot: u64, obs: &mut Observer<'_, T>) {
        // Host injection, credit-gated.
        let t = self.cfg.topo;
        let m = t.m();
        let d = self.cfg.link_delay;
        for h in 0..t.hosts() {
            if self.host_credits[h] > 0 {
                if let Some(cell) = self.host_queues[h].pop_front() {
                    self.host_credits[h] -= 1;
                    let leaf = t.leaf_of(h);
                    self.cell_flights
                        .push_back((slot + d, Hop::Switch(0, leaf, h % m), cell));
                }
            } else if !self.host_queues[h].is_empty() {
                obs.credit_stall(t.leaf_of(h), h % m);
            }
        }
    }

    fn admit<T: TraceSink>(&mut self, arrivals: &[Arrival], slot: u64, obs: &mut Observer<'_, T>) {
        for a in arrivals {
            let seq = self.stamper.stamp(a.src, a.dst);
            let cell = Cell::new(self.next_id, a.src, a.dst, a.class, seq, slot);
            self.next_id += 1;
            obs.cell_injected(a.src, a.dst);
            self.host_queues[a.src].push_back(cell);
        }
    }

    fn finish(&mut self, report: &mut EngineReport) {
        report.reordered = self.checker.reordered();
        report.set_extra("stages", self.cfg.topo.stages() as f64);
    }

    fn resident_cells(&self) -> Option<u64> {
        let mut n = self.cell_flights.len();
        n += self.host_queues.iter().map(VecDeque::len).sum::<usize>();
        for level in &self.nodes {
            for node in level {
                n += node.voq.iter().map(VecDeque::len).sum::<usize>();
            }
        }
        Some(n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::BernoulliUniform;

    fn run_clos(radix: usize, levels: u32, load: f64, seed: u64) -> EngineReport {
        let topo = MultiLevelClos::new(radix, levels);
        let mut fab = MultiLevelFabric::new(MultiLevelConfig::standard(topo, 2));
        let mut tr = BernoulliUniform::new(topo.hosts(), load, &SeedSequence::new(seed));
        fab.run(&mut tr, &EngineConfig::new(1_000, 8_000))
    }

    fn stages(r: &EngineReport) -> u32 {
        r.extra("stages").unwrap() as u32
    }

    #[test]
    fn topology_arithmetic() {
        let t = MultiLevelClos::new(8, 2);
        assert_eq!(t.hosts(), 16);
        assert_eq!(t.switches_per_level(), 4);
        assert_eq!(t.stages(), 3);
        let deep = MultiLevelClos::new(4, 4);
        assert_eq!(deep.hosts(), 16, "same host count, deeper tree");
        assert_eq!(deep.stages(), 7);
    }

    #[test]
    fn ascent_heights() {
        let t = MultiLevelClos::new(4, 3); // m=2, 8 hosts, leaves 0..3
        assert_eq!(t.ascent(0, 1), 0, "same leaf");
        assert_eq!(t.ascent(0, 2), 1, "adjacent leaves share level-1");
        assert_eq!(t.ascent(0, 7), 2, "opposite halves need the top");
    }

    #[test]
    fn single_level_is_one_switch() {
        let r = run_clos(8, 1, 0.5, 1);
        assert_eq!(stages(&r), 1);
        assert!((r.throughput - 0.5).abs() < 0.03);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn two_level_carries_load_lossless_in_order() {
        let r = run_clos(8, 2, 0.5, 2);
        assert!((r.throughput - 0.5).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn four_level_radix4_works_too() {
        // 16 hosts through a 7-stage fabric of radix-4 switches.
        let r = run_clos(4, 4, 0.3, 3);
        assert_eq!(stages(&r), 7);
        assert!((r.throughput - 0.3).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn section_6c_in_motion_fewer_stages_less_latency() {
        // Same 16 hosts, same load, same links: the 3-stage radix-8
        // fabric beats the 7-stage radix-4 fabric on latency — §VI.C's
        // "each stage contributes to latency", simulated.
        let big_radix = run_clos(8, 2, 0.2, 4);
        let small_radix = run_clos(4, 4, 0.2, 4);
        assert!(
            small_radix.mean_delay > big_radix.mean_delay + 4.0,
            "7-stage {} vs 3-stage {}",
            small_radix.mean_delay,
            big_radix.mean_delay
        );
    }

    #[test]
    fn multilevel_runs_are_deterministic() {
        let a = run_clos(8, 2, 0.4, 9);
        let b = run_clos(8, 2, 0.4, 9);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn expansion_tables_match_digit_formulas() {
        // The wiring tables read off the compiled expansion must equal
        // the closed-form digit rules this simulator historically
        // computed inline — port for port, switch for switch.
        for (radix, levels) in [(4usize, 1u32), (4, 3), (6, 2), (8, 2)] {
            let topo = MultiLevelClos::new(radix, levels);
            let fab = MultiLevelFabric::new(MultiLevelConfig::standard(topo, 2));
            let ports = 2 * topo.m();
            for level in 0..levels {
                for sw in 0..topo.switches_per_level() {
                    for port in 0..ports {
                        let table = fab.nodes[level as usize][sw].down[port];
                        let top_up = level == levels - 1 && port >= topo.m();
                        if top_up {
                            assert!(table.is_none(), "top up-side must be unwired");
                            assert!(fab.nodes[level as usize][sw].up[port].is_none());
                            continue;
                        }
                        let formula = fab.downstream(level, sw, port);
                        assert_eq!(
                            format!("{table:?}"),
                            format!("{:?}", Some(formula)),
                            "down r{radix} L{levels} ({level},{sw},{port})"
                        );
                        let table_up = fab.nodes[level as usize][sw].up[port];
                        let formula_up = fab.upstream(level, sw, port);
                        assert_eq!(
                            format!("{table_up:?}"),
                            format!("{:?}", Some(formula_up)),
                            "up r{radix} L{levels} ({level},{sw},{port})"
                        );
                    }
                }
            }
        }
    }
}
