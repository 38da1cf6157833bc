//! Slotted simulation of a two-level fat-tree fabric built from
//! input-buffered switches with credit flow control — the architecture of
//! §IV with buffer-placement option 3 (and option 1 for the Fig. 2
//! comparison).
//!
//! Every switch is an input-buffered crossbar with its own independent
//! round-robin iterative scheduler (the multistage-scalability argument of
//! §IV: per-stage buffers let the schedulers run independently). The
//! inter-switch links carry fixed-size cells with a configurable flight
//! time; the downstream input buffers are finite and protected by a
//! credit loop with a deterministic RTT — the paper's scheduler-relayed
//! remote flow control (Fig. 4) travels on existing channels, so its
//! timing is exactly this credit loop. Losslessness is asserted, not just
//! measured: a cell arriving at a full buffer panics the simulation.
//!
//! The fabric runs on the shared engine through the `CellSwitch` hooks
//! (link/credit arrivals and switch matchings in `arbitrate`, host
//! injection in `deliver`, new traffic in `admit`) and reports the
//! unified [`EngineReport`]: end-to-end latency lands in
//! `mean_delay`/`delay_hist`, peak input-buffer occupancy in
//! `max_queue_depth`. Host credit stalls are emitted as
//! `TraceEvent::CreditStall` for trace consumers.

use crate::expand::{ExpandedFabric, Peer};
use crate::ids::{EntityId, HostId, SwitchId};
use crate::spec::{TopologyError, TopologySpec};
use crate::topology::TwoLevelFatTree;
use osmosis_fdl::FdlBufferPlane;
use osmosis_sched::{MatchArbiters, Matcher, PointerRule, RequestMasks};
use osmosis_sim::audit::{CreditLedger, DropReason};
use osmosis_sim::buffer::{BufferLossReason, BufferPlane, BufferStats, ElectronicVoq};
use osmosis_sim::engine::{EngineConfig, EngineReport, Observer, TraceSink};
use osmosis_switch::driven::{run_switch, CellSwitch};
use osmosis_switch::Cell;
use osmosis_traffic::{Arrival, SequenceChecker, SequenceStamper, TrafficGen};
use std::collections::VecDeque;

/// Buffer placement per stage (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Option 1: buffers at inputs *and* outputs of every stage. Simple
    /// flow control, but twice the OEO conversions.
    InputAndOutput,
    /// Option 2: output buffers only — the request/grant protocol crosses
    /// the long upstream cable, adding a round trip to every scheduling
    /// decision.
    OutputOnly,
    /// Option 3 (the paper's choice): input buffers only; request/grant
    /// stays inside the switch, the buffers absorb the upstream RTT.
    InputOnly,
}

impl Placement {
    /// OEO conversion points per stage (the §IV.A cost argument).
    pub fn oeo_per_stage(self) -> u32 {
        match self {
            Placement::InputAndOutput => 2,
            Placement::OutputOnly | Placement::InputOnly => 1,
        }
    }
}

/// The technology realizing each switch's per-stage input buffers — the
/// fourth axis the FDL study adds to the Fig. 2 placement argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferTech {
    /// Electronic virtual output queues (the paper's premise: every
    /// buffered stage pays an OEO conversion). Lossless by credit flow
    /// control; the default, proven zero-cost against the pinned
    /// fingerprints.
    Electronic,
    /// Emulated optical fiber-delay-line queues (`osmosis-fdl`): cells
    /// stay in fiber, recirculating through a Tang-style delay-line
    /// bank per input. FIFO per input (head-of-line blocking across
    /// outputs), typed losses under delay-line faults. Supported with
    /// [`Placement::InputOnly`] only.
    Fdl,
}

impl BufferTech {
    /// Short stable label (campaign axes, bench tables, JSON).
    pub fn name(self) -> &'static str {
        match self {
            BufferTech::Electronic => "electronic",
            BufferTech::Fdl => "fdl",
        }
    }
}

/// Fabric configuration.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Switch radix (two-level fat tree: k²/2 hosts).
    pub radix: usize,
    /// One-way link flight time in cell slots (host↔leaf and leaf↔spine).
    pub link_delay: u64,
    /// Input-buffer capacity per switch input port, in cells. The credit
    /// loop RTT is 2·link_delay(+1); smaller buffers throttle, but can
    /// never lose a cell.
    pub buffer_cells: usize,
    /// Matching iterations per switch per slot.
    pub iterations: usize,
    /// Buffer placement (Fig. 2 option).
    pub placement: Placement,
    /// Input-buffer technology: electronic VOQs (default) or emulated
    /// optical fiber-delay-line queues.
    pub buffer_tech: BufferTech,
}

impl FabricConfig {
    /// A small OSMOSIS-style fabric: radix-8 (32 hosts), 2-slot links,
    /// buffers sized for the credit RTT, option 3, electronic buffers.
    pub fn small(radix: usize, link_delay: u64) -> Self {
        FabricConfig {
            radix,
            link_delay,
            buffer_cells: (2 * link_delay + 2) as usize,
            iterations: 3,
            placement: Placement::InputOnly,
            buffer_tech: BufferTech::Electronic,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeId {
    Leaf(usize),
    Spine(usize),
}

/// Where a switch output port leads.
#[derive(Debug, Clone, Copy)]
enum Downstream {
    /// A host NIC (sink; drains one cell per slot by construction).
    Host(usize),
    /// Another switch's input port (credit-controlled).
    Switch(NodeId, usize),
}

/// Where a switch input port receives from (for credit returns).
#[derive(Debug, Clone, Copy)]
enum Upstream {
    Host(usize),
    Switch(NodeId, usize),
}

struct SwitchNode {
    /// Per-switch input buffering behind the pluggable plane seam:
    /// electronic VOQs (the pre-seam semantics, bit-identical) or an
    /// emulated optical FDL queue per input. Each stored entry carries
    /// the slot at which the cell becomes schedulable (later than its
    /// arrival only under placement option 2, where requests cross the
    /// long cable to reach the scheduler).
    buffers: Box<dyn BufferPlane<Cell>>,
    /// Option-1 egress buffers.
    egress: Vec<VecDeque<Cell>>,
    /// Send credits per output port (usize::MAX for host sinks).
    credits: Vec<usize>,
    arbs: MatchArbiters,
    downstream: Vec<Downstream>,
    upstream: Vec<Upstream>,
}

impl SwitchNode {
    fn new(
        ports: usize,
        downstream: Vec<Downstream>,
        upstream: Vec<Upstream>,
        buffer: usize,
        tech: BufferTech,
    ) -> Self {
        let credits = downstream
            .iter()
            .map(|d| match d {
                Downstream::Host(_) => usize::MAX,
                Downstream::Switch(..) => buffer,
            })
            .collect();
        let buffers: Box<dyn BufferPlane<Cell>> = match tech {
            BufferTech::Electronic => Box::new(ElectronicVoq::new(ports)),
            // A balanced bank of `buffer` delay lines per input emulates
            // a queue of exactly `buffer` cells — the same capacity the
            // credit loop protects.
            BufferTech::Fdl => Box::new(FdlBufferPlane::new(ports, buffer)),
        };
        SwitchNode {
            buffers,
            egress: (0..ports).map(|_| VecDeque::new()).collect(),
            credits,
            arbs: MatchArbiters::new(ports, 1, PointerRule::EveryAccept),
            downstream,
            upstream,
        }
    }

    fn reset_credits(&mut self, buffer: usize) {
        for (c, d) in self.credits.iter_mut().zip(self.downstream.iter()) {
            *c = match d {
                Downstream::Host(_) => usize::MAX,
                Downstream::Switch(..) => buffer,
            };
        }
    }
}

/// The fabric simulator.
pub struct FatTreeFabric {
    cfg: FabricConfig,
    topo: TwoLevelFatTree,
    /// The expanded graph the wiring tables and host attachments were
    /// compiled from (stage 0 = leaves, stage 1 = spines, in id order).
    graph: ExpandedFabric,
    leaves: Vec<SwitchNode>,
    spines: Vec<SwitchNode>,
    /// Host injection queues (the source VOQs; unbounded).
    host_queues: Vec<VecDeque<Cell>>,
    /// Credits a host holds toward its leaf input buffer.
    host_credits: Vec<usize>,
    /// Cells in flight: (arrival slot, destination node+port or host).
    cell_flights: VecDeque<(u64, CellDest, Cell)>,
    /// Credits in flight back to (node, output port) or host.
    credit_flights: VecDeque<(u64, CreditDest)>,
    /// Per-spine health under an attached fault plane (all true without
    /// one). A dead spine is a dead wavelength plane: leaves stop
    /// granting toward it and new flows re-hash onto the survivors.
    spine_ok: Vec<bool>,
    /// Cells corrupted on a link, re-arriving after the hop-by-hop NACK +
    /// resend round trip (constant 2·link_delay, so this queue stays
    /// FIFO-by-due like `cell_flights`).
    retransmit_flights: VecDeque<(u64, CellDest, Cell)>,
    /// Credits whose return was lost, recovered by the periodic credit
    /// audit (constant link_delay + resync period; FIFO-by-due).
    resync_credit_flights: VecDeque<(u64, CreditDest)>,
    /// Per-link go-back-N stall: until this slot, every arrival on the
    /// link is discarded and resent behind the corrupted cell, keeping
    /// per-link (hence per-flow) delivery order across retransmissions.
    link_stall: Vec<u64>,
    stamper: SequenceStamper,
    checker: SequenceChecker,
    next_id: u64,
    node_ids: Vec<NodeId>,
    /// Matching scratch shared by every node, which are matched in turn:
    /// the matching in progress, the per-output request masks and the
    /// accepted pairs.
    matcher: Matcher,
    requests: RequestMasks,
    matched_pairs: Vec<(usize, usize, usize)>,
}

#[derive(Debug, Clone, Copy)]
enum CellDest {
    SwitchIn(NodeId, usize),
    Host(usize),
}

#[derive(Debug, Clone, Copy)]
enum CreditDest {
    SwitchOut(NodeId, usize),
    Host(usize),
}

impl FatTreeFabric {
    /// Build the fabric. Panics on an invalid configuration; use
    /// [`try_new`](Self::try_new) where the configuration comes from
    /// external input (sweep grids, checkpoints, CLI flags).
    pub fn new(cfg: FabricConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(fab) => fab,
            // lint:allow(panic-free): documented panic contract of the
            // infallible constructor; `try_new` is the checked form
            Err(e) => panic!("{e}"),
        }
    }

    /// Build the fabric, rejecting invalid configurations with a typed
    /// error instead of a panic. The wiring tables are read off the
    /// compiled expansion of the equivalent [`TopologySpec::two_level`]
    /// spec, not recomputed from closed forms — the simulator consumes
    /// exactly the graph the topology compiler produces.
    pub fn try_new(cfg: FabricConfig) -> Result<Self, TopologyError> {
        // FDL buffering models the paper's option 3 only: the delay-line
        // bank quantizes schedulability to its shortest (one-slot) line,
        // which matches the local request/grant cycle of input-only
        // placement but cannot represent option 2's per-cell control RTT
        // or option 1's egress stage.
        if cfg.buffer_tech == BufferTech::Fdl && cfg.placement != Placement::InputOnly {
            return Err(TopologyError::UnsupportedPlacement {
                placement: cfg.placement,
            });
        }
        let spec = TopologySpec {
            placement: cfg.placement,
            iterations: cfg.iterations,
            ..TopologySpec::two_level(cfg.radix)
                .with_link_delay(cfg.link_delay)
                .with_buffer_cells(cfg.buffer_cells)
        };
        let graph = ExpandedFabric::expand(spec)?;
        let topo = TwoLevelFatTree::try_new(cfg.radix)?;
        let k = cfg.radix;
        let leaf_count = topo.leaves();

        // Switch ids are stage-major: 0..k leaves, then the spines.
        let node_of = |sw: SwitchId| -> NodeId {
            if sw.index() < leaf_count {
                NodeId::Leaf(sw.index())
            } else {
                NodeId::Spine(sw.index() - leaf_count)
            }
        };
        let build = |sw: SwitchId| -> SwitchNode {
            let mut downstream = Vec::with_capacity(k);
            let mut upstream = Vec::with_capacity(k);
            for local in 0..k {
                match graph.ports[graph.port_id(sw, local as u32)].peer {
                    Peer::Host(h) => {
                        downstream.push(Downstream::Host(h.index()));
                        upstream.push(Upstream::Host(h.index()));
                    }
                    // Cables are full duplex: the far port both receives
                    // our cells and returns our credits.
                    Peer::Port(far) => {
                        let far = graph.ports[far];
                        downstream
                            .push(Downstream::Switch(node_of(far.switch), far.local as usize));
                        upstream.push(Upstream::Switch(node_of(far.switch), far.local as usize));
                    }
                    // lint:allow(panic-free): a 2-plane 2-level expansion
                    // uses every port; an unconnected one is a compiler bug
                    Peer::Unconnected => panic!("unwired port in a two-level expansion"),
                }
            }
            SwitchNode::new(k, downstream, upstream, cfg.buffer_cells, cfg.buffer_tech)
        };

        let leaves = (0..leaf_count)
            .map(|l| build(SwitchId::from_index(l)))
            .collect();
        let spines = (0..topo.spines())
            .map(|s| build(SwitchId::from_index(leaf_count + s)))
            .collect();

        let node_ids = (0..topo.leaves())
            .map(NodeId::Leaf)
            .chain((0..topo.spines()).map(NodeId::Spine))
            .collect();

        Ok(FatTreeFabric {
            cfg,
            topo,
            graph,
            leaves,
            spines,
            host_queues: (0..topo.hosts()).map(|_| VecDeque::new()).collect(),
            host_credits: vec![cfg.buffer_cells; topo.hosts()],
            cell_flights: VecDeque::new(),
            credit_flights: VecDeque::new(),
            spine_ok: vec![true; topo.spines()],
            retransmit_flights: VecDeque::new(),
            resync_credit_flights: VecDeque::new(),
            link_stall: vec![0; topo.leaves() + topo.spines() + topo.hosts()],
            stamper: SequenceStamper::new(),
            checker: SequenceChecker::new(),
            next_id: 0,
            node_ids,
            matcher: Matcher::new(k, 1),
            requests: RequestMasks::new(k),
            matched_pairs: Vec::with_capacity(k),
        })
    }

    /// Topology descriptor.
    pub fn topology(&self) -> TwoLevelFatTree {
        self.topo
    }

    /// The expanded graph the simulator was compiled from.
    pub fn expanded(&self) -> &ExpandedFabric {
        &self.graph
    }

    fn node(&mut self, id: NodeId) -> &mut SwitchNode {
        match id {
            NodeId::Leaf(l) => &mut self.leaves[l],
            NodeId::Spine(s) => &mut self.spines[s],
        }
    }

    /// Output port a cell takes at the given switch: the expanded
    /// graph's host attachment drives every descent; the ascent picks a
    /// spine through [`pick_spine`](Self::pick_spine) so a dead plane
    /// re-hashes flows (the healthy case agrees with
    /// [`ExpandedFabric::route`], which the tests pin).
    fn route(&self, id: NodeId, cell: &Cell) -> usize {
        let (dst_sw, dst_port) = self.graph.host_attach(HostId::from_index(cell.dst));
        match id {
            NodeId::Leaf(l) => {
                if dst_sw.index() == l {
                    dst_port as usize
                } else {
                    self.topo.up_port(self.pick_spine(cell.src, cell.dst))
                }
            }
            // Spine port l is cabled to leaf l: descend to the
            // destination's edge switch.
            NodeId::Spine(_) => dst_sw.index(),
        }
    }

    /// The spine carrying (src, dst): the stable flow hash, re-hashed
    /// across the surviving planes when the hashed one is down. The
    /// second-level hash uses a different key ordering so a dead plane's
    /// flows spread over all survivors instead of piling onto one
    /// neighbour. With every plane dead the cell stalls (losslessly)
    /// toward its nominal spine until one heals.
    fn pick_spine(&self, src: usize, dst: usize) -> usize {
        let s0 = self.topo.spine_of_flow(src, dst);
        if self.spine_ok[s0] {
            return s0;
        }
        let healthy = self.spine_ok.iter().filter(|&&ok| ok).count();
        if healthy == 0 {
            return s0;
        }
        let pick = self.topo.spine_of_flow(dst + self.topo.hosts(), src) % healthy;
        self.spine_ok
            .iter()
            .enumerate()
            .filter(|&(_, &ok)| ok)
            .nth(pick)
            .map(|(s, _)| s)
            // pick < healthy by construction; fall back to the nominal
            // spine (lossless stall) rather than panic if that ever
            // stops holding.
            .unwrap_or(s0)
    }

    /// Global node index: leaves first, then spines (the fault plane's
    /// and the audit plane's node keying).
    fn node_index(&self, id: NodeId) -> usize {
        match id {
            NodeId::Leaf(l) => l,
            NodeId::Spine(s) => self.topo.leaves() + s,
        }
    }

    /// Snapshot every credit-controlled link's ledger for the audit
    /// plane. Taken at the top of `arbitrate`, where the conservation
    /// sum is quiescent: every state transition (credit consumed ↔ cell
    /// in flight ↔ buffer occupancy ↔ credit in flight) happens
    /// atomically inside the arbitrate/deliver phases.
    fn report_credit_ledgers<T: TraceSink>(&mut self, obs: &mut Observer<'_, T>) {
        use std::collections::BTreeMap;
        // One pass over the flight queues, binned by receiving link.
        let mut cells_to: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for &(_, dest, _) in self
            .cell_flights
            .iter()
            .chain(self.retransmit_flights.iter())
        {
            if let CellDest::SwitchIn(id, p) = dest {
                *cells_to.entry((self.node_index(id), p)).or_insert(0) += 1;
            }
        }
        let mut credits_to_out: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let mut credits_to_host: BTreeMap<usize, u64> = BTreeMap::new();
        for &(_, dest) in self
            .credit_flights
            .iter()
            .chain(self.resync_credit_flights.iter())
        {
            match dest {
                CreditDest::SwitchOut(id, port) => {
                    *credits_to_out
                        .entry((self.node_index(id), port))
                        .or_insert(0) += 1;
                }
                CreditDest::Host(h) => *credits_to_host.entry(h).or_insert(0) += 1,
            }
        }
        let capacity = self.cfg.buffer_cells as u64;
        let ports = self.cfg.radix;
        for idx in 0..self.node_ids.len() {
            let id = self.node_ids[idx];
            for p in 0..ports {
                let (upstream, occupancy) = {
                    let node = match id {
                        NodeId::Leaf(l) => &self.leaves[l],
                        NodeId::Spine(s) => &self.spines[s],
                    };
                    (node.upstream[p], node.buffers.occupancy(p) as u64)
                };
                let (held, credits_in_flight) = match upstream {
                    Upstream::Host(h) => (
                        self.host_credits[h] as u64,
                        credits_to_host.get(&h).copied().unwrap_or(0),
                    ),
                    Upstream::Switch(uid, uo) => {
                        let up = match uid {
                            NodeId::Leaf(l) => &self.leaves[l],
                            NodeId::Spine(s) => &self.spines[s],
                        };
                        if up.credits[uo] == usize::MAX {
                            // Host-facing output: not credit-controlled.
                            continue;
                        }
                        (
                            up.credits[uo] as u64,
                            credits_to_out
                                .get(&(self.node_index(uid), uo))
                                .copied()
                                .unwrap_or(0),
                        )
                    }
                };
                let cells_in_flight = cells_to.get(&(idx, p)).copied().unwrap_or(0);
                obs.audit_credit_link(
                    idx,
                    p,
                    CreditLedger {
                        held,
                        in_flight: credits_in_flight + cells_in_flight,
                        occupancy,
                        capacity,
                    },
                );
            }
        }
    }

    /// Snapshot every FDL queue's cell-conservation ledger for the audit
    /// plane (`pushed == popped + dropped + resident` per input queue).
    /// Queue keying is `node_index · radix + input`. Electronic planes
    /// keep no per-queue ledgers and report nothing here, so audited
    /// electronic runs stay bit-identical to the pre-seam code.
    fn report_fdl_ledgers<T: TraceSink>(&mut self, obs: &mut Observer<'_, T>) {
        let ports = self.cfg.radix;
        for idx in 0..self.node_ids.len() {
            let id = self.node_ids[idx];
            for p in 0..ports {
                let ledger = {
                    let node = match id {
                        NodeId::Leaf(l) => &self.leaves[l],
                        NodeId::Spine(s) => &self.spines[s],
                    };
                    node.buffers.queue_ledger(p)
                };
                if let Some((pushed, popped, dropped, resident)) = ledger {
                    obs.audit_fdl_ledger(idx * ports + p, pushed, popped, dropped, resident);
                }
            }
        }
    }

    /// The link index a cell traverses to reach `dest` — the receiving
    /// endpoint's global index (leaves, then spines, then hosts) — used
    /// as the `FaultView::cell_corrupted` key.
    fn link_of(&self, dest: CellDest) -> usize {
        match dest {
            CellDest::SwitchIn(NodeId::Leaf(l), _) => l,
            CellDest::SwitchIn(NodeId::Spine(s), _) => self.topo.leaves() + s,
            CellDest::Host(h) => self.topo.leaves() + self.topo.spines() + h,
        }
    }

    /// Cells currently inside the fabric (host queues, switch buffers,
    /// links, retransmission round trips). With `injected == delivered +
    /// resident_cells()` after a faulted run, no cell was lost.
    pub fn resident_cells(&self) -> u64 {
        let mut n = self.cell_flights.len() + self.retransmit_flights.len();
        n += self.host_queues.iter().map(|q| q.len()).sum::<usize>();
        for node in self.leaves.iter().chain(self.spines.iter()) {
            n += node.buffers.total();
            n += node.egress.iter().map(|q| q.len()).sum::<usize>();
        }
        n as u64
    }

    /// Run traffic through the fabric on the shared engine.
    pub fn run(&mut self, traffic: &mut dyn TrafficGen, cfg: &EngineConfig) -> EngineReport {
        run_switch(self, traffic, cfg)
    }

    /// Run traffic under a fault plane. A vacuous view (empty plan)
    /// leaves the run bit-identical to [`run`](Self::run).
    pub fn run_faulted(
        &mut self,
        traffic: &mut dyn TrafficGen,
        cfg: &EngineConfig,
        faults: &mut dyn osmosis_sim::FaultView,
    ) -> EngineReport {
        osmosis_switch::run_switch_faulted(self, traffic, cfg, faults)
    }
}

impl CellSwitch for FatTreeFabric {
    fn ports(&self) -> usize {
        self.topo.hosts()
    }

    fn configure(&mut self, cfg: &EngineConfig) {
        self.checker = SequenceChecker::new();
        self.spine_ok.iter_mut().for_each(|ok| *ok = true);
        self.retransmit_flights.clear();
        self.resync_credit_flights.clear();
        self.link_stall.iter_mut().for_each(|s| *s = 0);
        // An engine-level buffer override re-arms every credit loop; only
        // meaningful on a fabric that has not run yet (queues empty).
        if let Some(b) = cfg.buffer_cells {
            if b != self.cfg.buffer_cells {
                assert!(b >= 1);
                self.cfg.buffer_cells = b;
                for node in self.leaves.iter_mut().chain(self.spines.iter_mut()) {
                    node.reset_credits(b);
                    node.buffers.reconfigure(b);
                }
                self.host_credits.iter_mut().for_each(|c| *c = b);
            }
        }
    }

    fn arbitrate<T: TraceSink>(&mut self, t: u64, obs: &mut Observer<'_, T>) {
        let d = self.cfg.link_delay;
        let ports = self.cfg.radix;
        let half = ports / 2;
        let buffer_cells = self.cfg.buffer_cells;
        let option2_extra = if self.cfg.placement == Placement::OutputOnly {
            2 * d
        } else {
            0
        };
        let faults_on = obs.faults_attached();
        // Credit-audit period: a lost credit is recovered after the
        // downstream's next occupancy audit (a few credit RTTs), not
        // instantly — the degraded mode throttles, but never deadlocks.
        let resync = 4 * (2 * d + 1);
        // The invariant auditor sees every credit loop's ledger here, at
        // the top of the slot, where the conservation sum is quiescent.
        if obs.audit_attached() {
            self.report_credit_ledgers(obs);
            if self.cfg.buffer_tech == BufferTech::Fdl {
                self.report_fdl_ledgers(obs);
            }
        }
        if faults_on {
            for s in 0..self.spine_ok.len() {
                self.spine_ok[s] = !obs.fault_plane_down(s);
            }
            // Delay-line health. The fault plane keys lines globally as
            // (node_index · radix + input) · lines_per_queue + local; the
            // plane itself uses the node-local index. A dead line accepts
            // no new cells (its contents still emerge), so the affected
            // input runs at reduced guaranteed capacity.
            if self.cfg.buffer_tech == BufferTech::Fdl {
                for idx in 0..self.node_ids.len() {
                    let id = self.node_ids[idx];
                    let lpq = self.node(id).buffers.lines_per_queue();
                    for p in 0..ports {
                        for l in 0..lpq {
                            let dead = obs.fault_delay_line_dead((idx * ports + p) * lpq + l);
                            self.node(id).buffers.set_line_dead(p * lpq + l, dead);
                        }
                    }
                }
            }
        }
        // Start-of-slot buffer tick: delay-line emergences become visible
        // before this slot's arrivals and matching (no-op for electronic
        // planes).
        for idx in 0..self.node_ids.len() {
            let id = self.node_ids[idx];
            self.node(id).buffers.tick(t);
        }

        // --- Cell arrivals from links. The retransmission path drains
        // first: a resent cell is older than anything still in the
        // primary flight queue for the same link, and go-back-N order
        // requires it to be accepted first.
        for pass in 0..2 {
            loop {
                let popped = {
                    let q = if pass == 0 {
                        &mut self.retransmit_flights
                    } else {
                        &mut self.cell_flights
                    };
                    if q.front().is_some_and(|&(at, _, _)| at == t) {
                        q.pop_front()
                    } else {
                        None
                    }
                };
                let Some((_, dest, cell)) = popped else { break };
                if faults_on {
                    let link = self.link_of(dest);
                    if t < self.link_stall[link] {
                        // Go-back-N: a predecessor on this link is mid
                        // retransmission, so this cell is out of sequence
                        // at the receiver — discard and resend it behind
                        // the predecessor, extending the stall so cells
                        // behind *it* queue up in order too.
                        obs.cell_retransmitted(link);
                        self.link_stall[link] = t + 2 * d;
                        self.retransmit_flights.push_back((t + 2 * d, dest, cell));
                        continue;
                    }
                    if obs.fault_cell_corrupted(link) {
                        // Detected-uncorrectable arrival: NACK upstream
                        // and resend — one extra link RTT, no loss. The
                        // sender's credit stays consumed, so buffer
                        // accounting holds across the round trip.
                        obs.cell_retransmitted(link);
                        self.link_stall[link] = t + 2 * d;
                        self.retransmit_flights.push_back((t + 2 * d, dest, cell));
                        continue;
                    }
                }
                match dest {
                    CellDest::Host(h) => {
                        debug_assert_eq!(cell.dst, h);
                        self.checker.record(cell.src, cell.dst, cell.seq);
                        obs.cell_delivered_flow(h, cell.inject_slot, cell.src, cell.seq);
                    }
                    CellDest::SwitchIn(id, port) => {
                        let out = self.route(id, &cell);
                        let node = self.node(id);
                        // A cell arriving in slot t is schedulable at t+1
                        // (the local request/grant cycle); option 2 adds a
                        // control RTT on top.
                        node.buffers.push(t, port, out, t + 1 + option2_extra, cell);
                        let occ = node.buffers.occupancy(port);
                        assert!(
                            occ <= buffer_cells,
                            "input buffer overflow at {id:?} port {port}: \
                             credit flow control violated"
                        );
                        obs.note_queue_depth(occ);
                    }
                }
            }
        }

        // --- Credit returns (normal loop, then audit-recovered credits).
        while let Some(&(at, dest)) = self.credit_flights.front() {
            if at != t {
                break;
            }
            self.credit_flights.pop_front();
            match dest {
                CreditDest::Host(h) => self.host_credits[h] += 1,
                CreditDest::SwitchOut(id, port) => {
                    let node = self.node(id);
                    node.credits[port] += 1;
                }
            }
        }
        while let Some(&(at, dest)) = self.resync_credit_flights.front() {
            if at != t {
                break;
            }
            self.resync_credit_flights.pop_front();
            match dest {
                CreditDest::Host(h) => self.host_credits[h] += 1,
                CreditDest::SwitchOut(id, port) => {
                    let node = self.node(id);
                    node.credits[port] += 1;
                }
            }
        }

        // --- Each switch computes a matching and forwards cells.
        for idx in 0..self.node_ids.len() {
            let id = self.node_ids[idx];
            // A dead wavelength plane switches nothing: its buffered
            // cells stall (losslessly — upstream credits stay consumed)
            // until the plane heals. Leaves stop feeding it below.
            if faults_on {
                if let NodeId::Spine(s) = id {
                    if !self.spine_ok[s] {
                        continue;
                    }
                }
            }
            // Option 1: egress buffers transmit first (a cell matched in
            // slot t departs the stage in slot t+1), gated by downstream
            // credits.
            if self.cfg.placement == Placement::InputAndOutput {
                for o in 0..ports {
                    let (send, dest) = {
                        let node = match id {
                            NodeId::Leaf(l) => &mut self.leaves[l],
                            NodeId::Spine(s) => &mut self.spines[s],
                        };
                        let is_switch = matches!(node.downstream[o], Downstream::Switch(..));
                        if is_switch && node.credits[o] == 0 {
                            continue;
                        }
                        let Some(cell) = node.egress[o].pop_front() else {
                            continue;
                        };
                        if is_switch {
                            node.credits[o] -= 1;
                        }
                        (cell, node.downstream[o])
                    };
                    let dest = match dest {
                        Downstream::Host(h) => CellDest::Host(h),
                        Downstream::Switch(nid, port) => CellDest::SwitchIn(nid, port),
                    };
                    self.cell_flights.push_back((t + d, dest, send));
                }
            }

            // Matching (iterative RR grant/accept) on the node.
            {
                let needs_credit_at_match = self.cfg.placement != Placement::InputAndOutput;
                let node = match id {
                    NodeId::Leaf(l) => &mut self.leaves[l],
                    NodeId::Spine(s) => &mut self.spines[s],
                };
                self.requests.clear_all();
                for o in 0..ports {
                    // Leaf uplinks toward a dead spine are masked out of
                    // arbitration; queued cells wait for repair, new
                    // flows were already re-hashed at routing.
                    if faults_on
                        && matches!(id, NodeId::Leaf(_))
                        && o >= half
                        && !self.spine_ok[o - half]
                    {
                        continue;
                    }
                    if needs_credit_at_match && node.credits[o] == 0 {
                        continue;
                    }
                    for i in 0..ports {
                        if node.buffers.ready(t, i, o) {
                            self.requests.set(i, o);
                        }
                    }
                }
                self.matcher.rematch(
                    &mut node.arbs,
                    &self.requests,
                    self.cfg.iterations,
                    &mut self.matched_pairs,
                );
            }

            // Execute the matching: move cells out of the input buffers,
            // return credits upstream.
            for m in 0..self.matched_pairs.len() {
                let (i, o, _) = self.matched_pairs[m];
                let (cell, upstream, to_egress, dest) = {
                    let node = match id {
                        NodeId::Leaf(l) => &mut self.leaves[l],
                        NodeId::Spine(s) => &mut self.spines[s],
                    };
                    let mut cell = node
                        .buffers
                        .pop(t, i, o)
                        // lint:allow(panic-free): the per-node matching
                        // only grants (i, o) pairs the plane reported
                        // ready this slot
                        .expect("matched pair without a cell");
                    cell.grant_slot = t;
                    let to_egress = self.cfg.placement == Placement::InputAndOutput;
                    if !to_egress {
                        debug_assert!(node.credits[o] >= 1);
                        if let Downstream::Switch(..) = node.downstream[o] {
                            node.credits[o] -= 1;
                        }
                    }
                    (cell, node.upstream[i], to_egress, node.downstream[o])
                };
                // Credit back to whoever feeds this input port. Under a
                // credit-drop fault the return is lost on the wire and
                // recovered later by the periodic credit audit.
                let credit_dest = match upstream {
                    Upstream::Host(h) => CreditDest::Host(h),
                    Upstream::Switch(up_id, up_port) => CreditDest::SwitchOut(up_id, up_port),
                };
                let node_index = match id {
                    NodeId::Leaf(l) => l,
                    NodeId::Spine(s) => self.topo.leaves() + s,
                };
                if faults_on && obs.fault_credit_dropped(node_index, i) {
                    self.resync_credit_flights
                        .push_back((t + d + resync, credit_dest));
                } else {
                    self.credit_flights.push_back((t + d, credit_dest));
                }
                if to_egress {
                    let node = match id {
                        NodeId::Leaf(l) => &mut self.leaves[l],
                        NodeId::Spine(s) => &mut self.spines[s],
                    };
                    node.egress[o].push_back(cell);
                } else {
                    let dest = match dest {
                        Downstream::Host(h) => CellDest::Host(h),
                        Downstream::Switch(nid, port) => CellDest::SwitchIn(nid, port),
                    };
                    self.cell_flights.push_back((t + d, dest, cell));
                }
            }
        }

        // --- End of slot: each plane commits unserved emerged cells and
        // new arrivals back into storage (recirculation; no-op for
        // electronic planes) and surfaces what it could not keep. A lost
        // cell consumed its upstream credit at admission, so the credit
        // returns exactly as a served cell's would — subject to the same
        // credit-drop fault and audit resync.
        for idx in 0..self.node_ids.len() {
            let id = self.node_ids[idx];
            let losses = {
                let node = self.node(id);
                node.buffers.settle(t);
                node.buffers.take_losses()
            };
            for loss in losses {
                let upstream = match id {
                    NodeId::Leaf(l) => self.leaves[l].upstream[loss.input],
                    NodeId::Spine(s) => self.spines[s].upstream[loss.input],
                };
                let credit_dest = match upstream {
                    Upstream::Host(h) => CreditDest::Host(h),
                    Upstream::Switch(up_id, up_port) => CreditDest::SwitchOut(up_id, up_port),
                };
                if faults_on && obs.fault_credit_dropped(idx, loss.input) {
                    self.resync_credit_flights
                        .push_back((t + d + resync, credit_dest));
                } else {
                    self.credit_flights.push_back((t + d, credit_dest));
                }
                let reason = match loss.reason {
                    BufferLossReason::AdmissionFull => DropReason::BufferFull,
                    BufferLossReason::DeadLine => DropReason::FaultLoss,
                    BufferLossReason::NoFeasibleLine => DropReason::Other,
                };
                obs.cell_dropped_for(idx * ports + loss.input, reason);
            }
        }
    }

    fn deliver<T: TraceSink>(&mut self, t: u64, obs: &mut Observer<'_, T>) {
        // --- Hosts inject one cell per slot when they hold a credit.
        let d = self.cfg.link_delay;
        for h in 0..self.topo.hosts() {
            let (leaf, port) = self.graph.host_attach(HostId::from_index(h));
            if self.host_credits[h] > 0 {
                if let Some(cell) = self.host_queues[h].pop_front() {
                    self.host_credits[h] -= 1;
                    self.cell_flights.push_back((
                        t + d,
                        CellDest::SwitchIn(NodeId::Leaf(leaf.index()), port as usize),
                        cell,
                    ));
                }
            } else if !self.host_queues[h].is_empty() {
                obs.credit_stall(leaf.index(), port as usize);
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
        // FDL-only buffer-plane extras: electronic runs stay extra-free
        // so the pinned fingerprints are untouched by the plane seam.
        if self.cfg.buffer_tech == BufferTech::Fdl {
            let mut total = BufferStats::default();
            for node in self.leaves.iter().chain(self.spines.iter()) {
                let s = node.buffers.stats();
                total.dropped += s.dropped;
                total.dropped_admission += s.dropped_admission;
                total.dropped_dead_line += s.dropped_dead_line;
                total.recirculations += s.recirculations;
                total.underflow_stalls += s.underflow_stalls;
            }
            report.set_extra("fdl_drops_total", total.dropped as f64);
            report.set_extra("fdl_drops_admission", total.dropped_admission as f64);
            report.set_extra("fdl_drops_dead_line", total.dropped_dead_line as f64);
            report.set_extra("fdl_recirculations", total.recirculations as f64);
            report.set_extra("fdl_underflow_stalls", total.underflow_stalls as f64);
        }
    }

    fn resident_cells(&self) -> Option<u64> {
        Some(FatTreeFabric::resident_cells(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osmosis_sim::SeedSequence;
    use osmosis_traffic::{BernoulliUniform, Hotspot};

    fn run_fabric(cfg: FabricConfig, load: f64, seed: u64) -> EngineReport {
        let mut fab = FatTreeFabric::new(cfg);
        let mut tr = BernoulliUniform::new(fab.topology().hosts(), load, &SeedSequence::new(seed));
        fab.run(&mut tr, &EngineConfig::new(1_000, 8_000))
    }

    #[test]
    fn expansion_wiring_matches_hand_built_rule() {
        // The tables compiled from the expanded graph must equal the §V
        // closed forms: leaf l port p < k/2 faces host l·(k/2)+p; up
        // port k/2+s reaches spine s at input l; spine port l mirrors
        // leaf l's up port.
        let fab = FatTreeFabric::new(FabricConfig::small(8, 2));
        let (k, half) = (8usize, 4usize);
        for l in 0..fab.topo.leaves() {
            for p in 0..k {
                match fab.leaves[l].downstream[p] {
                    Downstream::Host(h) if p < half => assert_eq!(h, l * half + p),
                    Downstream::Switch(NodeId::Spine(s), port) if p >= half => {
                        assert_eq!(s, p - half);
                        assert_eq!(port, l);
                    }
                    other => panic!("leaf {l} port {p}: {other:?}"),
                }
                match fab.leaves[l].upstream[p] {
                    Upstream::Host(h) if p < half => assert_eq!(h, l * half + p),
                    Upstream::Switch(NodeId::Spine(s), port) if p >= half => {
                        assert_eq!(s, p - half);
                        assert_eq!(port, l);
                    }
                    other => panic!("leaf {l} port {p}: {other:?}"),
                }
            }
        }
        for s in 0..fab.topo.spines() {
            for l in 0..k {
                match fab.spines[s].downstream[l] {
                    Downstream::Switch(NodeId::Leaf(leaf), port) => {
                        assert_eq!(leaf, l);
                        assert_eq!(port, half + s);
                    }
                    other => panic!("spine {s} port {l}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        use crate::spec::TopologyError;
        let mut odd = FabricConfig::small(8, 2);
        odd.radix = 7;
        assert!(matches!(
            FatTreeFabric::try_new(odd),
            Err(TopologyError::InvalidRadix { .. })
        ));
        let mut frozen = FabricConfig::small(8, 2);
        frozen.link_delay = 0;
        assert!(matches!(
            FatTreeFabric::try_new(frozen),
            Err(TopologyError::ZeroLinkDelay)
        ));
        let mut bufferless = FabricConfig::small(8, 2);
        bufferless.buffer_cells = 0;
        assert!(matches!(
            FatTreeFabric::try_new(bufferless),
            Err(TopologyError::ZeroBuffer)
        ));
    }

    #[test]
    fn idle_fabric_stays_idle() {
        let r = run_fabric(FabricConfig::small(8, 2), 0.0, 1);
        assert_eq!(r.injected, 0);
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn light_load_flows_lossless_in_order() {
        let r = run_fabric(FabricConfig::small(8, 2), 0.2, 2);
        assert!((r.throughput - 0.2).abs() < 0.02, "thr {}", r.throughput);
        assert_eq!(r.reordered, 0, "per-flow order via stable spine hashing");
        assert!(r.max_queue_depth <= 6, "occ {}", r.max_queue_depth);
    }

    #[test]
    fn unloaded_latency_decomposes_into_hops() {
        // Inter-leaf: 1 (inject) + 4 links + 3 scheduling cycles = 4d+4;
        // intra-leaf (prob = (k/2−1)/(k²/2)·…≈1/8 incl. self): 2d+2.
        // At radix 8 the destination is under the same leaf with
        // probability 4/32, so the mix is 0.875·(4d+4) + 0.125·(2d+2).
        let d = 3u64;
        let r = run_fabric(FabricConfig::small(8, d), 0.02, 3);
        let inter = (4 * d + 4) as f64;
        let intra = (2 * d + 2) as f64;
        let expect = 0.875 * inter + 0.125 * intra;
        assert!(
            (r.mean_delay - expect).abs() < 1.5,
            "latency {} vs ≈{expect}",
            r.mean_delay
        );
    }

    #[test]
    fn moderate_load_sustains_throughput() {
        let r = run_fabric(FabricConfig::small(8, 2), 0.7, 4);
        assert!(
            (r.throughput - 0.7).abs() < 0.04,
            "thr {} vs 0.7",
            r.throughput
        );
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn hotspot_overload_is_lossless() {
        // Every host sends half its traffic to host 0: output 0 is
        // overloaded, backpressure propagates, nothing is ever dropped
        // (the assertion inside the sim would panic on overflow).
        let cfg = FabricConfig::small(8, 2);
        let mut fab = FatTreeFabric::new(cfg);
        let hosts = fab.topology().hosts();
        let mut tr = Hotspot::new(hosts, 0.5, 0, 0.5, &SeedSequence::new(5));
        let r = fab.run(&mut tr, &EngineConfig::new(1_000, 8_000));
        assert_eq!(r.reordered, 0);
        assert!(
            r.max_queue_depth <= cfg.buffer_cells,
            "credits bound the buffers"
        );
        // The hot egress drains at its full line rate (1/hosts of the
        // aggregate); port-level backpressure lets congestion spread into
        // the shared buffers (tree saturation), so aggregate throughput
        // sits well below offered load — but strictly above the hot
        // port's own rate, and nothing is ever lost.
        let hot_rate = 1.0 / fab.topology().hosts() as f64;
        assert!(r.throughput > hot_rate, "throughput {}", r.throughput);
    }

    #[test]
    fn tiny_buffers_throttle_but_never_drop() {
        // Buffer below the credit RTT: goodput drops, losslessness holds.
        let mut cfg = FabricConfig::small(8, 4);
        cfg.buffer_cells = 2; // RTT is 2·4 = 8 slots
        let r = run_fabric(cfg, 0.9, 6);
        assert!(r.throughput < 0.6, "throttled: {}", r.throughput);
        assert_eq!(r.reordered, 0);
    }

    #[test]
    fn rtt_sized_buffers_sustain_full_rate() {
        // Load chosen below the static-flow-hash imbalance point: with
        // k/2 = 4 uplinks per leaf and random per-flow spine hashing, the
        // worst uplink carries noticeably more than the average, so the
        // fabric saturates before the hosts do (cf. the ECMP-imbalance
        // literature). 0.72 keeps every link under 1.0 with margin.
        let mut cfg = FabricConfig::small(8, 4);
        cfg.buffer_cells = (2 * cfg.link_delay + 2) as usize;
        let r = run_fabric(cfg, 0.72, 7);
        assert!(
            (r.throughput - 0.72).abs() < 0.04,
            "thr {} at RTT-sized buffers",
            r.throughput
        );
    }

    #[test]
    fn engine_buffer_override_rearms_the_credit_loop() {
        // EngineConfig::with_buffer_cells reaches the fabric's credit
        // loops: a 2-cell override on an RTT=8 fabric throttles exactly
        // like building it with tiny buffers.
        let cfg = FabricConfig::small(8, 4);
        let mut fab = FatTreeFabric::new(cfg);
        let mut tr = BernoulliUniform::new(fab.topology().hosts(), 0.9, &SeedSequence::new(6));
        let r = fab.run(
            &mut tr,
            &EngineConfig::new(1_000, 8_000).with_buffer_cells(2),
        );
        assert!(r.throughput < 0.6, "throttled: {}", r.throughput);
        assert!(r.max_queue_depth <= 2, "occ {}", r.max_queue_depth);
    }

    #[test]
    fn placement_option1_adds_a_stage_of_latency() {
        let mut cfg3 = FabricConfig::small(8, 2);
        cfg3.placement = Placement::InputOnly;
        let mut cfg1 = cfg3;
        cfg1.placement = Placement::InputAndOutput;
        let r3 = run_fabric(cfg3, 0.1, 8);
        let r1 = run_fabric(cfg1, 0.1, 8);
        assert!(
            r1.mean_delay > r3.mean_delay + 2.0,
            "option 1 {} vs option 3 {}",
            r1.mean_delay,
            r3.mean_delay
        );
        assert_eq!(Placement::InputAndOutput.oeo_per_stage(), 2);
        assert_eq!(Placement::InputOnly.oeo_per_stage(), 1);
    }

    #[test]
    fn placement_option2_pays_control_rtt_per_stage() {
        let mut cfg3 = FabricConfig::small(8, 3);
        cfg3.placement = Placement::InputOnly;
        let mut cfg2 = cfg3;
        cfg2.placement = Placement::OutputOnly;
        let r3 = run_fabric(cfg3, 0.1, 9);
        let r2 = run_fabric(cfg2, 0.1, 9);
        // Each of the 3 stages adds ≈ 2·d of request/grant flight.
        assert!(
            r2.mean_delay > r3.mean_delay + 4.0,
            "option 2 {} vs option 3 {}",
            r2.mean_delay,
            r3.mean_delay
        );
    }

    #[test]
    fn fdl_buffers_carry_load_losslessly() {
        // Clean FDL run: the credit loop bounds every input queue at the
        // plane's guaranteed capacity, so admission never refuses a cell
        // and the only behavioural difference from electronic VOQs is
        // head-of-line blocking (one FIFO per input, not per pair) plus
        // recirculation bookkeeping.
        let mut cfg = FabricConfig::small(8, 2);
        cfg.buffer_tech = BufferTech::Fdl;
        let r = run_fabric(cfg, 0.4, 31);
        assert_eq!(r.dropped, 0, "clean FDL runs are lossless");
        assert_eq!(r.reordered, 0);
        assert!((r.throughput - 0.4).abs() < 0.04, "thr {}", r.throughput);
        assert_eq!(r.extra("fdl_drops_total"), Some(0.0));
        assert_eq!(r.extra("fdl_underflow_stalls"), Some(0.0));
        assert!(
            r.extra("fdl_recirculations").unwrap() > 0.0,
            "unserved emerged cells re-enter the delay lines"
        );
    }

    #[test]
    fn fdl_mode_is_deterministic_and_distinct_from_electronic() {
        let mut cfg = FabricConfig::small(8, 2);
        cfg.buffer_tech = BufferTech::Fdl;
        let a = run_fabric(cfg, 0.5, 11);
        let b = run_fabric(cfg, 0.5, 11);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let e = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        assert_ne!(
            a.fingerprint(),
            e.fingerprint(),
            "per-input FIFO semantics differ from per-pair VOQs"
        );
    }

    #[test]
    fn fdl_requires_input_only_placement() {
        use crate::spec::TopologyError;
        let mut cfg = FabricConfig::small(8, 2);
        cfg.buffer_tech = BufferTech::Fdl;
        cfg.placement = Placement::OutputOnly;
        assert!(matches!(
            FatTreeFabric::try_new(cfg),
            Err(TopologyError::UnsupportedPlacement { .. })
        ));
        assert_eq!(BufferTech::Fdl.name(), "fdl");
        assert_eq!(BufferTech::Electronic.name(), "electronic");
    }

    #[test]
    fn fabric_is_deterministic() {
        let a = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        let b = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        use osmosis_faults::{FaultInjector, FaultPlan};
        let plain = run_fabric(FabricConfig::small(8, 2), 0.5, 11);
        let mut fab = FatTreeFabric::new(FabricConfig::small(8, 2));
        let hosts = fab.topology().hosts();
        let mut tr = BernoulliUniform::new(hosts, 0.5, &SeedSequence::new(11));
        let mut inj = FaultInjector::new(FaultPlan::new());
        let faulted = fab.run_faulted(&mut tr, &EngineConfig::new(1_000, 8_000), &mut inj);
        assert_eq!(plain.fingerprint(), faulted.fingerprint());
    }

    #[test]
    fn dead_wavelength_plane_reroutes_and_recovers() {
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        // Kill one of the four spines for a window mid-run. Re-hashing
        // spreads its flows over the survivors; at 0.6 load the three
        // remaining uplinks per leaf (0.8 each) still carry everything.
        let cfg = FabricConfig::small(8, 2);
        let e = EngineConfig::new(0, 10_000).with_seed(21);
        let run = |plan: FaultPlan| {
            let mut fab = FatTreeFabric::new(cfg);
            let hosts = fab.topology().hosts();
            let mut tr = BernoulliUniform::new(hosts, 0.6, &SeedSequence::new(e.seed));
            let mut inj = FaultInjector::new(plan);
            let r = fab.run_faulted(&mut tr, &e, &mut inj);
            (r, fab.resident_cells())
        };
        let (nominal, _) = run(FaultPlan::new());
        let (degraded, resident) = run(FaultPlan::new().one_shot(
            FaultKind::WavelengthLoss { plane: 1 },
            2_000,
            Some(3_000),
        ));
        assert_eq!(degraded.dropped, 0, "re-routing is lossless");
        assert_eq!(
            degraded.injected,
            degraded.delivered + resident,
            "every cell delivered or still resident"
        );
        assert!(
            degraded.throughput > 0.9 * nominal.throughput,
            "one dead plane out of four barely dents 0.6 load: {} vs {}",
            degraded.throughput,
            nominal.throughput
        );
        assert_eq!(degraded.extra("faults_injected"), Some(1.0));
        assert_eq!(degraded.extra("faults_healed"), Some(1.0));
    }

    #[test]
    fn link_ber_burst_retransmits_hop_by_hop() {
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan, LINK_ANY};
        let cfg = FabricConfig::small(8, 2);
        let e = EngineConfig::new(0, 8_000).with_seed(23);
        let mut fab = FatTreeFabric::new(cfg);
        let hosts = fab.topology().hosts();
        let mut tr = BernoulliUniform::new(hosts, 0.4, &SeedSequence::new(e.seed));
        let plan = FaultPlan::new().permanent(
            FaultKind::LinkBerBurst {
                link: LINK_ANY,
                cell_error_prob: 0.05,
            },
            0,
        );
        let mut inj = FaultInjector::new(plan);
        let r = fab.run_faulted(&mut tr, &e, &mut inj);
        assert!(
            r.extra("fault_retransmits").unwrap() > 100.0,
            "corrupted hops were re-sent"
        );
        assert_eq!(r.dropped, 0);
        assert_eq!(
            r.reordered, 0,
            "go-back-N link stall preserves per-flow order"
        );
        assert_eq!(
            r.injected,
            r.delivered + fab.resident_cells(),
            "retransmission loses nothing"
        );
    }

    #[test]
    fn dropped_credits_throttle_but_recover_via_resync() {
        use osmosis_faults::{FaultInjector, FaultKind, FaultPlan};
        let cfg = FabricConfig::small(8, 2);
        let e = EngineConfig::new(0, 10_000).with_seed(25);
        let run = |plan: FaultPlan| {
            let mut fab = FatTreeFabric::new(cfg);
            let hosts = fab.topology().hosts();
            let mut tr = BernoulliUniform::new(hosts, 0.5, &SeedSequence::new(e.seed));
            let mut inj = FaultInjector::new(plan);
            let r = fab.run_faulted(&mut tr, &e, &mut inj);
            (r, fab.resident_cells())
        };
        let (faulted, resident) =
            run(FaultPlan::new().one_shot(FaultKind::CreditDrop { prob: 0.3 }, 1_000, Some(4_000)));
        assert!(faulted.extra("fault_credits_dropped").unwrap() > 100.0);
        assert_eq!(faulted.dropped, 0, "lost credits never lose cells");
        assert_eq!(
            faulted.injected,
            faulted.delivered + resident,
            "credit resync keeps the fabric flowing"
        );
        assert!(
            faulted.throughput > 0.4,
            "audit recovery bounds the throttling: {}",
            faulted.throughput
        );
    }
}
