//! Host-time benchmark of the OSMOSIS simulators.
//!
//! Runs one named workload for a wall-clock budget, checks every
//! simulated result against a recorded fingerprint (or, for a seed with
//! none recorded, against invariants that hold for every seed), and
//! prints a readable block followed by one JSON line with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` times the library from outside with nothing wrapped and
//!   reports the end-to-end metrics.
//! * `--trace 1` lets plain runs, traced runs and any plane legs take
//!   turns and reports the per-layer metrics. A traced run wraps the
//!   public trait boundaries: a timing `TrafficGen` around the generator,
//!   a timing `CellScheduler` around FLPPR, and the counting allocator
//!   below.
//!
//! ```text
//! perfbench --workload osmosis64|fattree8k|campaign_quick --seed N
//!           --seconds S --trace 0|1 [--expect FINGERPRINT] [--work-dir DIR]
//! ```
//!
//! `run.py` next to this package builds the binary, prints the machine
//! header and passes `--expect` from `fingerprints.json`.

use osmosis_audit::{AuditMode, AuditSet};
use osmosis_campaign::shard::paths;
use osmosis_campaign::{run_shard, CampaignSpec};
use osmosis_core::experiments::campaign::default_spec;
use osmosis_core::Scale;
use osmosis_fabric::{CompiledFabric, ExpandedFabric, TopologySpec};
use osmosis_faults::{FaultInjector, FaultPlan};
use osmosis_sched::{CellScheduler, Flppr, Matching};
use osmosis_sim::{EngineConfig, EngineReport, SeedSequence};
use osmosis_switch::{
    run_switch, run_switch_instrumented, run_switch_instrumented_traced, CellSwitch, VoqSwitch,
};
use osmosis_telemetry::TelemetrySink;
use osmosis_traffic::{Arrival, BernoulliUniform, TrafficGen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// Counts allocation calls while [`COUNTING`] is set. Plain runs leave it
/// clear, so their only cost is one relaxed load per allocation.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; the counters are plain atomics
// that never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Layer probes: timing wrappers at the public trait boundaries
// ---------------------------------------------------------------------

/// What the timing scheduler saw.
#[derive(Default)]
struct SchedLedger {
    tick_ns: Vec<f64>,
    grants: u64,
    note_ns: u64,
    note_calls: u64,
}

/// A `CellScheduler` that times every call into the one it wraps.
struct TimedSched<S> {
    inner: S,
    ledger: Rc<RefCell<SchedLedger>>,
}

impl<S: CellScheduler> CellScheduler for TimedSched<S> {
    fn inputs(&self) -> usize {
        self.inner.inputs()
    }

    fn outputs(&self) -> usize {
        self.inner.outputs()
    }

    fn out_capacity(&self) -> usize {
        self.inner.out_capacity()
    }

    fn note_arrival(&mut self, input: usize, output: usize) {
        let t = Instant::now();
        self.inner.note_arrival(input, output);
        let ns = nanos(t.elapsed());
        let mut l = self.ledger.borrow_mut();
        l.note_ns += ns;
        l.note_calls += 1;
    }

    fn tick(&mut self, slot: u64) -> Matching {
        let t = Instant::now();
        let m = self.inner.tick(slot);
        let ns = nanos(t.elapsed());
        let mut l = self.ledger.borrow_mut();
        l.tick_ns.push(ns as f64);
        l.grants += m.len() as u64;
        m
    }

    fn set_output_capacity(&mut self, output: usize, cap: usize) {
        self.inner.set_output_capacity(output, cap);
    }

    fn output_capacity(&self, output: usize) -> usize {
        self.inner.output_capacity(output)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What the timing generator saw. Buffers are sized in set-up so the
/// probe itself allocates nothing while the run is counted.
struct TrafficLedger {
    busy_ns: u64,
    arrivals: u64,
    /// Host time between the starts of consecutive `arrivals` calls:
    /// one whole simulated slot each.
    slot_gap_ns: Vec<f64>,
    last_call: Option<Instant>,
    /// Last warm-up slot and last slot of the run; the allocation
    /// window runs from the end of the first's `arrivals` call to the end
    /// of the second's, which spans exactly the measured slots.
    warm_last: u64,
    run_last: u64,
    window_allocs: (u64, u64),
    window_start: Option<Instant>,
    window_s: f64,
}

impl TrafficLedger {
    fn new(cfg: &EngineConfig) -> Self {
        let slots = cfg.warmup_slots + cfg.measure_slots;
        TrafficLedger {
            busy_ns: 0,
            arrivals: 0,
            slot_gap_ns: Vec::with_capacity(slots as usize),
            last_call: None,
            warm_last: cfg.warmup_slots.saturating_sub(1),
            run_last: slots.saturating_sub(1),
            window_allocs: (0, 0),
            window_start: None,
            window_s: 0.0,
        }
    }
}

/// A `TrafficGen` that times every call into the one it wraps.
struct TimedTraffic<'a> {
    inner: &'a mut dyn TrafficGen,
    ledger: &'a mut TrafficLedger,
}

impl TrafficGen for TimedTraffic<'_> {
    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn offered_load(&self) -> f64 {
        self.inner.offered_load()
    }

    fn arrivals(&mut self, slot: u64, out: &mut Vec<Arrival>) {
        let start = Instant::now();
        let before = out.len();
        self.inner.arrivals(slot, out);
        let end = Instant::now();
        let l = &mut *self.ledger;
        l.busy_ns += nanos(end - start);
        l.arrivals += (out.len() - before) as u64;
        if let Some(prev) = l.last_call {
            l.slot_gap_ns.push(nanos(start - prev) as f64);
        }
        l.last_call = Some(start);
        if slot == l.warm_last {
            l.window_allocs.0 = allocs();
            l.window_start = Some(end);
        }
        if slot == l.run_last {
            l.window_allocs.1 = allocs();
            l.window_s = l.window_start.map_or(0.0, |w| (end - w).as_secs_f64());
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Quantile `q` of `v`, interpolating linearly between order statistics.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = (s.len() - 1) as f64 * q;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Per-layer figures of one traced run, by metric name.
type Layers = BTreeMap<&'static str, f64>;

/// What one timed run produced.
struct Outcome {
    run_s: f64,
    slots: u64,
    fingerprint: u64,
    layers: Layers,
}

/// A workload: a set-up step and a run step, each timed from outside.
trait Workload {
    /// What set-up builds and the run consumes.
    type Built;
    /// Points one run completes (campaign points; 1 otherwise).
    const POINTS: u64;
    /// Ratio metrics of the plane legs a traced invocation interleaves
    /// with its plain and traced runs; see [`leg`](Self::leg).
    const LEGS: &'static [&'static str] = &[];
    fn setup(&self, traced: bool) -> Result<Self::Built, String>;
    fn run(&self, built: Self::Built) -> Result<Outcome, String>;
    /// One run of leg `i` of [`LEGS`](Self::LEGS): its run time and
    /// fingerprint, which must equal the plain runs'.
    fn leg(&self, _i: usize) -> Result<(f64, u64), String> {
        Err("this workload has no legs".into())
    }
}

fn check_throughput(report: &EngineReport, load: f64) -> Result<(), String> {
    if (report.throughput - load).abs() > 0.01 {
        return Err(format!(
            "throughput {:.4} is more than 0.01 from offered load {load}",
            report.throughput
        ));
    }
    Ok(())
}

// --- osmosis64: the 64-port dual-receiver FLPPR demonstrator ----------

const SWITCH_PORTS: usize = 64;
const SWITCH_RECEIVERS: usize = 2;
const SWITCH_LOAD: f64 = 0.8;
const SWITCH_WARMUP: u64 = 2_000;
const SWITCH_MEASURE: u64 = 20_000;

struct Osmosis64 {
    seed: u64,
}

struct SwitchBuilt {
    traffic: BernoulliUniform,
    switch: VoqSwitch,
    probe: Option<(TrafficLedger, Rc<RefCell<SchedLedger>>)>,
}

impl Osmosis64 {
    fn cfg(&self) -> EngineConfig {
        EngineConfig::new(SWITCH_WARMUP, SWITCH_MEASURE).with_seed(self.seed)
    }

    fn traffic(&self) -> BernoulliUniform {
        BernoulliUniform::new(SWITCH_PORTS, SWITCH_LOAD, &SeedSequence::new(self.seed))
    }
}

impl Workload for Osmosis64 {
    type Built = SwitchBuilt;
    const POINTS: u64 = 1;
    const LEGS: &'static [&'static str] = &[
        "telemetry.overhead_ratio",
        "audit.overhead_ratio",
        "faults.empty_plan_ratio",
    ];

    fn setup(&self, traced: bool) -> Result<SwitchBuilt, String> {
        let traffic = self.traffic();
        let flppr = Flppr::osmosis(SWITCH_PORTS, SWITCH_RECEIVERS);
        let (switch, probe) = if traced {
            let ledger = Rc::new(RefCell::new(SchedLedger {
                tick_ns: Vec::with_capacity((SWITCH_WARMUP + SWITCH_MEASURE) as usize),
                ..SchedLedger::default()
            }));
            let sched = TimedSched {
                inner: flppr,
                ledger: Rc::clone(&ledger),
            };
            let probe = (TrafficLedger::new(&self.cfg()), ledger);
            (VoqSwitch::new(Box::new(sched)), Some(probe))
        } else {
            (VoqSwitch::new(Box::new(flppr)), None)
        };
        Ok(SwitchBuilt {
            traffic,
            switch,
            probe,
        })
    }

    fn run(&self, built: SwitchBuilt) -> Result<Outcome, String> {
        let cfg = self.cfg();
        let SwitchBuilt {
            mut traffic,
            mut switch,
            probe,
        } = built;
        let mut layers = Layers::new();
        let (report, run_s) = match probe {
            None => {
                let t = Instant::now();
                let r = run_switch(&mut switch, &mut traffic, &cfg);
                (r, t.elapsed().as_secs_f64())
            }
            Some((tl, sched)) => {
                let (r, run_s) = run_probed(&mut switch, &mut traffic, &cfg, tl, &mut layers);
                let s = sched.borrow();
                let tick_s = s.tick_ns.iter().sum::<f64>() * 1e-9;
                let note_s = s.note_ns as f64 * 1e-9;
                let ticks = s.tick_ns.len() as f64;
                let traffic_s = layers["traffic.busy_s"];
                layers.insert("sched.tick_busy_s", tick_s);
                layers.insert("sched.tick_ns_p50", quantile(&s.tick_ns, 0.50));
                layers.insert("sched.tick_ns_p99", quantile(&s.tick_ns, 0.99));
                layers.insert("sched.note_arrival_busy_s", note_s);
                layers.insert("sched.grants_per_tick", s.grants as f64 / ticks.max(1.0));
                layers.insert("sched.share", (tick_s + note_s) / run_s);
                layers.insert("sched.calls", ticks + s.note_calls as f64);
                layers.insert("switch.self_s", run_s - tick_s - note_s - traffic_s);
                (r, run_s)
            }
        };
        check_throughput(&report, SWITCH_LOAD)?;
        Ok(Outcome {
            run_s,
            slots: SWITCH_WARMUP + SWITCH_MEASURE,
            fingerprint: report.fingerprint(),
            layers,
        })
    }

    /// The plane legs: the same run with a telemetry sink, the standard
    /// audit battery, or an empty fault plan attached.
    fn leg(&self, i: usize) -> Result<(f64, u64), String> {
        let cfg = self.cfg();
        let mut traffic = self.traffic();
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(SWITCH_PORTS, SWITCH_RECEIVERS)));
        let t = Instant::now();
        let report = match Self::LEGS[i] {
            "telemetry.overhead_ratio" => {
                let mut sink = TelemetrySink::new();
                run_switch_instrumented_traced(&mut sw, &mut traffic, &cfg, &mut sink, None, None)
            }
            "audit.overhead_ratio" => {
                let mut audit = AuditSet::standard(AuditMode::Accumulate);
                run_switch_instrumented(&mut sw, &mut traffic, &cfg, None, Some(&mut audit))
            }
            _ => {
                let mut faults = FaultInjector::new(FaultPlan::new());
                run_switch_instrumented(&mut sw, &mut traffic, &cfg, Some(&mut faults), None)
            }
        };
        Ok((t.elapsed().as_secs_f64(), report.fingerprint()))
    }
}

/// A traced switch or fabric run: the generator behind the timing probe
/// and the allocator counting. Adds the traffic and slot figures to
/// `layers` and returns the report and the run time.
fn run_probed<S: CellSwitch>(
    model: &mut S,
    traffic: &mut dyn TrafficGen,
    cfg: &EngineConfig,
    mut tl: TrafficLedger,
    layers: &mut Layers,
) -> (EngineReport, f64) {
    COUNTING.store(true, Ordering::Relaxed);
    let t = Instant::now();
    let report = {
        let mut probe = TimedTraffic {
            inner: traffic,
            ledger: &mut tl,
        };
        run_switch(model, &mut probe, cfg)
    };
    let run_s = t.elapsed().as_secs_f64();
    COUNTING.store(false, Ordering::Relaxed);
    let traffic_s = tl.busy_ns as f64 * 1e-9;
    layers.insert("traffic.busy_s", traffic_s);
    layers.insert(
        "traffic.ns_per_arrival",
        tl.busy_ns as f64 / tl.arrivals.max(1) as f64,
    );
    layers.insert("traffic.share", traffic_s / run_s);
    let slots = (cfg.warmup_slots + cfg.measure_slots) as f64;
    let window_allocs = tl.window_allocs.1.saturating_sub(tl.window_allocs.0);
    layers.insert("sim.slot_ns_p50", quantile(&tl.slot_gap_ns, 0.50));
    layers.insert("sim.slot_ns_p99", quantile(&tl.slot_gap_ns, 0.99));
    layers.insert(
        "sim.allocs_per_slot",
        window_allocs as f64 / cfg.measure_slots as f64,
    );
    layers.insert("sim.ns_per_slot", run_s * 1e9 / slots);
    layers.insert(
        "sim.ns_per_delivered_cell",
        tl.window_s * 1e9 / report.delivered.max(1) as f64,
    );
    (report, run_s)
}

// --- fattree8k: the compiled 8192-host, two-plane fat tree ------------

const FABRIC_SPEC: &str = "fat-tree:radix=32,levels=3,planes=2";
const FABRIC_LOAD: f64 = 0.1;
const FABRIC_WARMUP: u64 = 200;
const FABRIC_MEASURE: u64 = 400;

struct FatTree8k {
    seed: u64,
}

struct FabricBuilt {
    traffic: BernoulliUniform,
    fabric: CompiledFabric,
    expand_s: f64,
    build_s: f64,
    probe: Option<TrafficLedger>,
}

impl FatTree8k {
    fn cfg(&self) -> EngineConfig {
        EngineConfig::new(FABRIC_WARMUP, FABRIC_MEASURE).with_seed(self.seed)
    }
}

impl Workload for FatTree8k {
    type Built = FabricBuilt;
    const POINTS: u64 = 1;

    fn setup(&self, traced: bool) -> Result<FabricBuilt, String> {
        let spec: TopologySpec = FABRIC_SPEC
            .parse()
            .map_err(|e| format!("topology `{FABRIC_SPEC}`: {e}"))?;
        let t = Instant::now();
        let expanded = ExpandedFabric::expand(spec).map_err(|e| format!("expand: {e}"))?;
        let expand_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let fabric = CompiledFabric::over(expanded);
        let build_s = t.elapsed().as_secs_f64();
        let hosts = fabric.expanded().hosts.len();
        let traffic = BernoulliUniform::new(hosts, FABRIC_LOAD, &SeedSequence::new(self.seed));
        Ok(FabricBuilt {
            traffic,
            fabric,
            expand_s,
            build_s,
            probe: traced.then(|| TrafficLedger::new(&self.cfg())),
        })
    }

    fn run(&self, built: FabricBuilt) -> Result<Outcome, String> {
        let cfg = self.cfg();
        let FabricBuilt {
            mut traffic,
            mut fabric,
            expand_s,
            build_s,
            probe,
        } = built;
        let mut layers = Layers::new();
        let (report, run_s) = match probe {
            None => {
                let t = Instant::now();
                let r = fabric.run(&mut traffic, &cfg);
                (r, t.elapsed().as_secs_f64())
            }
            Some(tl) => {
                let (r, run_s) = run_probed(&mut fabric, &mut traffic, &cfg, tl, &mut layers);
                // The compiled fabric matches inside each switch; no
                // CellScheduler is ever built, so the sched layer reads 0.
                layers.insert("sched.share", 0.0);
                layers.insert("sched.calls", 0.0);
                layers.insert("fabric.expand_s", expand_s);
                layers.insert("fabric.build_s", build_s);
                layers.insert("fabric.self_s", run_s - layers["traffic.busy_s"]);
                // Here the simulated slot is the fabric's slot.
                for (fabric, sim) in [
                    ("fabric.slot_ns_p50", "sim.slot_ns_p50"),
                    ("fabric.slot_ns_p99", "sim.slot_ns_p99"),
                    ("fabric.allocs_per_slot", "sim.allocs_per_slot"),
                    ("fabric.ns_per_delivered_cell", "sim.ns_per_delivered_cell"),
                ] {
                    layers.insert(fabric, layers[sim]);
                }
                (r, run_s)
            }
        };
        check_throughput(&report, FABRIC_LOAD)?;
        Ok(Outcome {
            run_s,
            slots: FABRIC_WARMUP + FABRIC_MEASURE,
            fingerprint: report.fingerprint(),
            layers,
        })
    }
}

// --- campaign_quick: one in-process shard of the quick campaign -------

struct CampaignQuick {
    seed: u64,
    work: PathBuf,
    next_dir: std::cell::Cell<u32>,
}

/// A fresh campaign directory holding only `spec.json`; removed on drop.
struct CampaignBuilt {
    dir: PathBuf,
    spec: CampaignSpec,
    traced: bool,
}

impl Drop for CampaignBuilt {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space, and
        // the next run picks a new name.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn file_len(path: &std::path::Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

impl Workload for CampaignQuick {
    type Built = CampaignBuilt;
    const POINTS: u64 = 64;

    fn setup(&self, traced: bool) -> Result<CampaignBuilt, String> {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        let dir = self
            .work
            .join(format!("campaign-{}-{n}", std::process::id()));
        // Remove any leftover of an earlier process before timing starts.
        let _ = std::fs::remove_dir_all(&dir);
        let spec = default_spec(Scale::Quick, self.seed);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let built = CampaignBuilt { dir, spec, traced };
        let spec_path = paths::spec(&built.dir);
        std::fs::write(&spec_path, built.spec.to_json().encode() + "\n")
            .map_err(|e| format!("write {}: {e}", spec_path.display()))?;
        Ok(built)
    }

    fn run(&self, built: CampaignBuilt) -> Result<Outcome, String> {
        let dir = &built.dir;
        let points = built.spec.total_points();
        if points != Self::POINTS {
            return Err(format!(
                "quick campaign has {points} points, expected {}",
                Self::POINTS
            ));
        }
        COUNTING.store(built.traced, Ordering::Relaxed);
        let before = allocs();
        let t = Instant::now();
        let fresh = run_shard(dir, 0, 1);
        let run_s = t.elapsed().as_secs_f64();
        let fresh_allocs = allocs() - before;
        COUNTING.store(false, Ordering::Relaxed);
        let fresh = fresh.map_err(|e| format!("fresh run_shard: {e}"))?;
        let ckpt_bytes = file_len(&paths::shard_log(dir, 0))?;
        let stream_bytes = file_len(&paths::shard_stream(dir, 0))?;
        let t = Instant::now();
        let resumed = run_shard(dir, 0, 1).map_err(|e| format!("resumed run_shard: {e}"))?;
        let resume_s = t.elapsed().as_secs_f64();
        if fresh.points != points || fresh.restored != 0 {
            return Err(format!(
                "fresh shard ran {} points and restored {}, expected {points} and 0",
                fresh.points, fresh.restored
            ));
        }
        if resumed.restored != points
            || resumed.fingerprint != fresh.fingerprint
            || resumed.delivered != fresh.delivered
            || resumed.dropped != fresh.dropped
        {
            return Err(format!(
                "resumed shard (restored {}, fingerprint {:#018x}) differs from the fresh one \
                 (points {points}, fingerprint {:#018x})",
                resumed.restored, resumed.fingerprint, fresh.fingerprint
            ));
        }
        let slots = points * (built.spec.warmup + built.spec.measure);
        let mut layers = Layers::new();
        if built.traced {
            layers.insert("campaign.point_ms_mean", run_s * 1e3 / points as f64);
            layers.insert("campaign.ckpt_bytes", ckpt_bytes as f64);
            layers.insert("campaign.stream_bytes", stream_bytes as f64);
            layers.insert("campaign.resume_s", resume_s);
            layers.insert("campaign.resume_ratio", resume_s / run_s);
            layers.insert(
                "campaign.allocs_per_point",
                fresh_allocs as f64 / points as f64,
            );
            layers.insert("sim.allocs_per_slot", fresh_allocs as f64 / slots as f64);
            layers.insert("sim.ns_per_slot", run_s * 1e9 / slots as f64);
            layers.insert(
                "sim.ns_per_delivered_cell",
                run_s * 1e9 / fresh.delivered.max(1) as f64,
            );
        }
        Ok(Outcome {
            run_s,
            slots,
            fingerprint: fresh.fingerprint,
            layers,
        })
    }
}

// ---------------------------------------------------------------------
// Measurement and report
// ---------------------------------------------------------------------

/// Every per-layer metric with its unit, and whether it goes in the JSON
/// line of `--trace 1` (the `per_layer` list of `BENCHMARK.json`). The
/// JSON ones are reported on every workload, reading 0 where no probe
/// sees the layer; the rest are printed only where they are measured.
const LAYERS: &[(&str, &str, bool)] = &[
    ("trace.overhead_ratio", "ratio", true),
    ("sim.ns_per_slot", "ns/slot", true),
    ("sim.ns_per_delivered_cell", "ns/cell", true),
    ("sim.allocs_per_slot", "count", true),
    ("sim.slot_ns_p50", "ns", false),
    ("sim.slot_ns_p99", "ns", false),
    ("traffic.share", "ratio", true),
    ("traffic.busy_s", "s", false),
    ("traffic.ns_per_arrival", "ns", false),
    ("sched.share", "ratio", true),
    ("sched.calls", "count", true),
    ("sched.grants_per_tick", "count", false),
    ("sched.tick_busy_s", "s", false),
    ("sched.tick_ns_p50", "ns", false),
    ("sched.tick_ns_p99", "ns", false),
    ("sched.note_arrival_busy_s", "s", false),
    ("switch.self_s", "s", false),
    ("fabric.expand_s", "s", false),
    ("fabric.build_s", "s", false),
    ("fabric.self_s", "s", false),
    ("fabric.slot_ns_p50", "ns", false),
    ("fabric.slot_ns_p99", "ns", false),
    ("fabric.allocs_per_slot", "count", false),
    ("fabric.ns_per_delivered_cell", "ns", false),
    ("telemetry.overhead_ratio", "ratio", true),
    ("audit.overhead_ratio", "ratio", true),
    ("faults.empty_plan_ratio", "ratio", true),
    ("campaign.point_ms_mean", "ms", false),
    ("campaign.resume_s", "s", false),
    ("campaign.resume_ratio", "ratio", true),
    ("campaign.ckpt_bytes", "bytes", true),
    ("campaign.stream_bytes", "bytes", true),
    ("campaign.allocs_per_point", "count", true),
];

/// Runs of one seed in one process; the determinism check needs two.
const MIN_RUNS: usize = 2;

/// Set-up-only samples taken after each run, so `setup_s` is a median of
/// many even when few runs fit in the budget, spread over the same
/// stretch of time as the runs.
const SETUP_SAMPLES: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect: Option<u64>,
    work_dir: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        expect: None,
        work_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--expect" => args.expect = Some(parse_u64(&value).ok_or_else(bad)?),
            "--work-dir" => args.work_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Attempts, failures and the determinism reference of one process.
struct Tally {
    attempted: u64,
    failed: u64,
    expect: Option<u64>,
    reference: Option<u64>,
}

impl Tally {
    fn check(&mut self, fingerprint: u64) -> Result<(), String> {
        if let Some(want) = self.expect {
            if fingerprint != want {
                return Err(format!(
                    "fingerprint {fingerprint:#018x} differs from the recorded {want:#018x}"
                ));
            }
        }
        match self.reference {
            Some(first) if first != fingerprint => Err(format!(
                "fingerprint {fingerprint:#018x} differs from this seed's first run {first:#018x}"
            )),
            _ => {
                self.reference = Some(fingerprint);
                Ok(())
            }
        }
    }

    /// Count `points` attempted; on failure count them failed and say why.
    fn settle<T>(&mut self, points: u64, res: std::thread::Result<Result<T, String>>) -> Option<T> {
        COUNTING.store(false, Ordering::Relaxed);
        self.attempted += points;
        let res = res.unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panic: {msg}"))
        });
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += points;
                eprintln!("perfbench: FAILED: {e}");
                None
            }
        }
    }
}

/// One set-up plus run; returns the set-up time and the outcome.
fn attempt<W: Workload>(w: &W, traced: bool, tally: &mut Tally) -> Option<(f64, Outcome)> {
    let res = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let built = w.setup(traced)?;
        let setup_s = t.elapsed().as_secs_f64();
        let out = w.run(built)?;
        tally.check(out.fingerprint)?;
        Ok((setup_s, out))
    }));
    tally.settle(W::POINTS, res)
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// `--trace 0`: plain runs only, end-to-end metrics. Also returns each
/// run's slots/s.
fn end_to_end<W: Workload>(w: &W, budget: Duration, tally: &mut Tally) -> (Metrics, Vec<f64>) {
    let start = Instant::now();
    // A first run, checked but not timed: it pays the process's cold
    // costs (fresh heap pages, cold caches) that later runs do not.
    let _ = attempt(w, false, tally);
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let mut tries = 0;
    // A run starts only if a run as long as the last one still ends
    // within the budget, so an invocation ends near its budget, not up to
    // a whole run past it.
    let mut last = Duration::ZERO;
    while tries < MIN_RUNS || start.elapsed() + last < budget {
        tries += 1;
        let t = Instant::now();
        if let Some((setup_s, out)) = attempt(w, false, tally) {
            setups.push(setup_s);
            runs.push(out);
        }
        for _ in 0..SETUP_SAMPLES {
            let res = catch_unwind(AssertUnwindSafe(|| {
                let t = Instant::now();
                let built = w.setup(false)?;
                let setup_s = t.elapsed().as_secs_f64();
                drop(built);
                Ok(setup_s)
            }));
            if let Some(s) = tally.settle(0, res) {
                setups.push(s);
            }
        }
        last = t.elapsed();
    }
    // Rates are those of the slowest run. On a shared host the speed sits
    // on a steady floor while other tenants are busy and rises, erratically,
    // while they idle; the slowest run finds that floor whenever any run
    // falls on it, where a quantile needs a quarter of the runs to.
    let rates: Vec<f64> = runs.iter().map(|o| o.slots as f64 / o.run_s).collect();
    let mut metrics = Metrics::new();
    if !runs.is_empty() {
        let slowest = runs.iter().map(|o| o.run_s).fold(0.0, f64::max);
        let min_rate = rates.iter().copied().fold(f64::INFINITY, f64::min);
        metrics.push(("slots_per_s", min_rate, "slots/s"));
        metrics.push(("points_per_s", W::POINTS as f64 / slowest, "points/s"));
        metrics.push(("setup_s", median(&setups), "s"));
    }
    match peak_rss_mib() {
        Ok(mib) => metrics.push(("peak_rss_mib", mib, "MiB")),
        Err(e) => {
            tally.failed += 1;
            eprintln!("perfbench: FAILED: {e}");
        }
    }
    (metrics, rates)
}

/// `--trace 1`: plain runs, traced runs and the workload's legs take
/// turns; returns the JSON and the readable per-layer figures.
fn traced<W: Workload>(w: &W, budget: Duration, tally: &mut Tally) -> (Metrics, Metrics, usize) {
    let start = Instant::now();
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    let mut legs: Vec<Vec<f64>> = vec![Vec::new(); W::LEGS.len()];
    // Plain, traced and leg runs take turns, so drift in machine speed
    // falls on all of them alike.
    let kinds = 2 + W::LEGS.len();
    let mut turn = 0usize;
    // As in `end_to_end`, a turn starts only if it should end in budget.
    let mut last = Duration::ZERO;
    while turn < kinds * MIN_RUNS || start.elapsed() + last < budget {
        let kind = turn % kinds;
        turn += 1;
        let t = Instant::now();
        if kind >= 2 {
            let res = catch_unwind(AssertUnwindSafe(|| {
                let (run_s, fingerprint) = w.leg(kind - 2)?;
                tally.check(fingerprint)?;
                Ok(run_s)
            }));
            if let Some(run_s) = tally.settle(W::POINTS, res) {
                legs[kind - 2].push(run_s);
            }
        } else if let Some((_, out)) = attempt(w, kind == 1, tally) {
            if kind == 1 {
                probed.push(out);
            } else {
                plain.push(out);
            }
        }
        last = t.elapsed();
    }
    let mut layers = Layers::new();
    if !plain.is_empty() && !probed.is_empty() {
        let plain_run_s = median(&plain.iter().map(|o| o.run_s).collect::<Vec<_>>());
        let traced_run_s = median(&probed.iter().map(|o| o.run_s).collect::<Vec<_>>());
        layers.insert("trace.overhead_ratio", traced_run_s / plain_run_s);
        for &(name, _, _) in LAYERS {
            let vals: Vec<f64> = probed
                .iter()
                .filter_map(|o| o.layers.get(name).copied())
                .collect();
            if !vals.is_empty() {
                layers.insert(name, median(&vals));
            }
        }
        // A leg's ratio is its slots/s over the plain runs' slots/s.
        for (&name, runs) in W::LEGS.iter().zip(&legs) {
            if !runs.is_empty() {
                layers.insert(name, plain_run_s / median(runs));
            }
        }
    }
    let json: Metrics = LAYERS
        .iter()
        .filter(|l| l.2)
        .map(|&(name, unit, _)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let shown: Metrics = LAYERS
        .iter()
        .filter_map(|&(name, unit, _)| layers.get(name).map(|&v| (name, v, unit)))
        .collect();
    (json, shown, turn)
}

fn bench<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        expect: args.expect,
        reference: None,
    };
    let (json, shown, runs, rates) = if args.trace {
        let (json, shown, turns) = traced(w, budget, &mut tally);
        (json, shown, turns, Vec::new())
    } else {
        let (m, rates) = end_to_end(w, budget, &mut tally);
        (m.clone(), m, rates.len(), rates)
    };
    let correct = tally.failed == 0 && json.iter().all(|m| m.1.is_finite());
    let check = match (args.expect, tally.reference) {
        (Some(_), Some(_)) if tally.failed == 0 => "matches the recorded fingerprint",
        (None, Some(_)) if tally.failed == 0 => "no recorded fingerprint; invariants hold",
        _ => "CHECK FAILED",
    };
    println!(
        "workload {} seed {} trace {}: {runs} runs in {:.1} s budget",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "fingerprint {} ({check})",
        tally
            .reference
            .map_or("none".into(), |f| format!("{f:#018x}"))
    );
    if !rates.is_empty() {
        let each: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
        println!("slots/s of each run, in order: {}", each.join(" "));
        let q = |p| quantile(&rates, p);
        println!(
            "slots/s over the runs: min {:.1}, q1 {:.1}, median {:.1}, q3 {:.1}, max {:.1}",
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
    }
    for &(name, value, unit) in &shown {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("  {:<28} {error_rate:>16.6} ratio", "error_rate");
    let metrics: Vec<String> = json
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    match args.workload.as_str() {
        "osmosis64" => bench(&Osmosis64 { seed }, &args),
        "fattree8k" => bench(&FatTree8k { seed }, &args),
        "campaign_quick" => match &args.work_dir {
            Some(work) => bench(
                &CampaignQuick {
                    seed,
                    work: work.clone(),
                    next_dir: std::cell::Cell::new(0),
                },
                &args,
            ),
            None => {
                eprintln!("perfbench: campaign_quick needs --work-dir");
                ExitCode::from(2)
            }
        },
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (osmosis64, fattree8k, campaign_quick)"
            );
            ExitCode::from(2)
        }
    }
}
