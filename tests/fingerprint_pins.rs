//! Pinned engine fingerprints for all ten simulators.
//!
//! These literal values were captured before the HashMap→BTreeMap and
//! unwrap burn-down refactor (PR 5) and prove that the refactor left
//! every simulator's report bit-identical. Any future change that
//! perturbs a fingerprint must consciously update the pin and explain
//! why in the commit message.

use osmosis::fabric::multistage::{FabricConfig, FatTreeFabric};
use osmosis::sched::Flppr;
use osmosis::sim::{EngineConfig, EngineReport, SeedSequence};
use osmosis::switch::{
    run_multicast, run_uniform, BurstSwitch, BvnSwitch, CioqSwitch, DeflectionSwitch, FifoSwitch,
    OqSwitch, RemoteSchedulerSwitch,
};
use osmosis::traffic::BernoulliUniform;

fn cfg() -> EngineConfig {
    EngineConfig::new(300, 3_000)
}

fn uniform(n: usize, load: f64, seed: u64) -> BernoulliUniform {
    BernoulliUniform::new(n, load, &SeedSequence::new(seed))
}

fn capture() -> Vec<(&'static str, u64)> {
    let s = 1234u64;
    let mut out: Vec<(&'static str, EngineReport)> = Vec::new();
    out.push((
        "voq",
        run_uniform(|| Box::new(Flppr::osmosis(16, 2)), 0.7, &cfg().with_seed(s)),
    ));
    out.push((
        "fifo",
        FifoSwitch::new(16).run(&mut uniform(16, 0.5, s), &cfg()),
    ));
    out.push((
        "oq",
        OqSwitch::new(16).run(&mut uniform(16, 0.7, s), &cfg()),
    ));
    out.push((
        "bvn",
        BvnSwitch::new(16).run(&mut uniform(16, 0.6, s), &cfg()),
    ));
    out.push((
        "burst",
        BurstSwitch::new(16, 8, 8).run(&mut uniform(16, 0.6, s), &cfg()),
    ));
    out.push((
        "deflection",
        DeflectionSwitch::new(16, 4, s).run(&mut uniform(16, 0.6, s), &cfg()),
    ));
    out.push((
        "cioq",
        CioqSwitch::new(16, 2, 8).run(&mut uniform(16, 0.8, s), &cfg()),
    ));
    out.push((
        "remote_sched",
        RemoteSchedulerSwitch::new(Box::new(Flppr::osmosis(8, 1)), 4)
            .run(&mut uniform(8, 0.5, s), &cfg()),
    ));
    out.push(("multicast", run_multicast(16, 3, 0.2, 3_000, s)));
    out.push(("multistage", {
        let mut fab = FatTreeFabric::new(FabricConfig::small(8, 2));
        let hosts = fab.topology().hosts();
        fab.run(&mut uniform(hosts, 0.5, s), &cfg())
    }));
    let mut fps: Vec<(&'static str, u64)> =
        out.into_iter().map(|(n, r)| (n, r.fingerprint())).collect();
    fps.push(("multilevel", multilevel_fingerprint(4, 3, 0.4)));
    fps
}

/// Fingerprint of an m-ary fat tree of radix-`radix` switches, `levels`
/// deep, under uniform traffic at `load`, with the compiled fabric's
/// `switches` extra left out (the multilevel pins predate it).
fn multilevel_fingerprint(radix: usize, levels: u32, load: f64) -> u64 {
    use osmosis::fabric::spec::TopologySpec;
    use osmosis::fabric::CompiledFabric;

    let mut fab = CompiledFabric::new(TopologySpec::m_ary_fat_tree(radix, levels));
    let hosts = fab.expanded().hosts.len();
    let mut r = fab.run(&mut uniform(hosts, load, 1234), &cfg());
    r.extra.retain(|&(name, _)| name != "switches");
    r.fingerprint()
}

/// Fingerprints captured on the commit preceding the static-analysis
/// refactor. The HashMap→BTreeMap conversions and the unwrap burn-down
/// must not perturb a single bit of any report.
const PINS: &[(&str, u64)] = &[
    ("voq", 0xbcfe_ba06_2d0e_ba76),
    ("fifo", 0xda3c_b239_af7b_f740),
    ("oq", 0x8d41_1187_2c49_8762),
    ("bvn", 0x316f_0339_2850_4561),
    ("burst", 0x0426_93ee_8fda_1e8d),
    ("deflection", 0x7c6a_2fd4_bd22_a98c),
    ("cioq", 0x8b8d_a37f_b734_d1f3),
    ("remote_sched", 0x8b25_4860_27ab_953e),
    ("multicast", 0x9cbd_4359_dfb6_1abf),
    ("multistage", 0x7cdd_391d_75c3_0074),
    ("multilevel", 0x18ca_f1b3_5fc3_e739),
];

#[test]
fn fingerprints_match_pre_refactor_pins() {
    let got = capture();
    assert_eq!(got.len(), PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// Structural fingerprints of the topology compiler's expansions,
/// captured when the compiler landed (PR 6). The §V two-level pin also
/// asserts that the multistage simulator's internal expansion is the
/// very same graph — the declarative spec reproduces the hand-built
/// 2048-port fabric exactly.
const EXPANSION_PINS: &[(&str, u64)] = &[
    ("fat-tree:radix=64,levels=2,planes=2", 0xbe1a_8a40_048e_3cf4),
    ("dragonfly:radix=8,groups=4", 0xe28a_f9f4_81c0_596d),
    ("full-mesh:radix=8,switches=5", 0x649e_aa38_4a0c_285c),
];

#[test]
fn expansion_fingerprints_match_pins() {
    use osmosis::fabric::expand::ExpandedFabric;
    use osmosis::fabric::spec::TopologySpec;

    for (text, pin) in EXPANSION_PINS {
        let spec: TopologySpec = text.parse().unwrap();
        let fp = ExpandedFabric::expand(spec)
            .unwrap()
            .structural_fingerprint();
        assert_eq!(
            fp, *pin,
            "{text}: structural fingerprint {fp:#018x} drifted from {pin:#018x}"
        );
    }
    // The 2048-port §V fabric the multistage simulator wires itself from
    // is the pinned expansion, bit for bit.
    let fab = FatTreeFabric::new(FabricConfig::small(64, 2));
    assert_eq!(
        fab.expanded().structural_fingerprint(),
        EXPANSION_PINS[0].1,
        "multistage internal expansion drifted from the §V pin"
    );
}

/// The OCS mode hook is zero-cost: running packet simulators through
/// the circuit-switched entry point with the null circuit plane must
/// reproduce the pre-OCS pins bit for bit — the plane is dropped before
/// the slot loop ever sees it.
#[test]
fn null_circuit_plane_reproduces_pins() {
    use osmosis::sched::CellScheduler;
    use osmosis::sim::NullCircuits;
    use osmosis::switch::{run_switch_circuit, VoqSwitch};

    let s = 1234u64;
    let pin = |name: &str| {
        PINS.iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, fp)| fp)
            .expect("pinned simulator")
    };
    {
        let sched: Box<dyn CellScheduler> = Box::new(Flppr::osmosis(16, 2));
        let mut sw = VoqSwitch::new(sched);
        let cfg = cfg().with_seed(s);
        let mut tr = uniform(16, 0.7, cfg.seed);
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg, &mut NullCircuits, None, None);
        assert_eq!(r.fingerprint(), pin("voq"), "voq drifted under the hook");
    }
    {
        let mut sw = FifoSwitch::new(16);
        let mut tr = uniform(16, 0.5, s);
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg(), &mut NullCircuits, None, None);
        assert_eq!(r.fingerprint(), pin("fifo"), "fifo drifted under the hook");
    }
    {
        let mut sw = BvnSwitch::new(16);
        let mut tr = uniform(16, 0.6, s);
        let r = run_switch_circuit(&mut sw, &mut tr, &cfg(), &mut NullCircuits, None, None);
        assert_eq!(r.fingerprint(), pin("bvn"), "bvn drifted under the hook");
    }
}

/// Engine-report fingerprints of the compiled simulator over the two
/// non-fat-tree families, pinning routing and flow control end to end.
const COMPILED_PINS: &[(&str, u64)] = &[
    ("dragonfly:radix=8,groups=4", 0x30d9_f2a1_3616_bb8b),
    ("full-mesh:radix=8,switches=5", 0x4209_01b9_e65a_9686),
];

#[test]
fn compiled_family_fingerprints_match_pins() {
    use osmosis::fabric::expand::ExpandedFabric;
    use osmosis::fabric::spec::TopologySpec;
    use osmosis::fabric::CompiledFabric;

    for (text, pin) in COMPILED_PINS {
        let spec: TopologySpec = text.parse().unwrap();
        let fab = ExpandedFabric::expand(spec).unwrap();
        let hosts = fab.hosts.len();
        let mut sim = CompiledFabric::over(fab);
        let r = sim.run(&mut uniform(hosts, 0.4, 1234), &cfg());
        assert_eq!(
            r.fingerprint(),
            *pin,
            "{text}: report fingerprint {:#018x} drifted from {pin:#018x}",
            r.fingerprint()
        );
    }
}

/// Engine-report fingerprints of the matching-kernel paths the pins
/// above leave uncovered: iSLIP and the prior-art pipelined arbiter in
/// the VOQ switch, FLPPR with egresses degraded by the fault plane (the
/// sub-scheduler un-matching and masked-issue path), the compiled
/// simulator over a fat tree, and the multistage fabric with egress
/// buffers (placement option 1, matched without a credit check).
/// Captured before the grant/accept loops were folded into one kernel.
const KERNEL_PINS: &[(&str, u64)] = &[
    ("voq+islip", 0x5038_356a_92d8_f3d5),
    ("voq+islip-dual", 0x43a0_adee_7ad8_5bf1),
    ("voq+pipelined", 0x8462_0633_2745_64d4),
    ("voq+flppr-degraded", 0xdf01_91be_4758_e7bd),
    ("compiled-fat-tree", 0x72b8_2ce8_babc_4efa),
    ("multistage-option1", 0xa4c5_2017_ebdb_1e7c),
];

fn capture_kernel_paths() -> Vec<(&'static str, u64)> {
    use osmosis::fabric::multistage::Placement;
    use osmosis::fabric::spec::TopologySpec;
    use osmosis::fabric::CompiledFabric;
    use osmosis::faults::{FaultInjector, FaultKind, FaultPlan};
    use osmosis::sched::{Islip, PipelinedArbiter};
    use osmosis::switch::{run_switch_faulted, VoqSwitch};

    let s = 1234u64;
    let mut out: Vec<(&'static str, EngineReport)> = Vec::new();
    out.push((
        "voq+islip",
        run_uniform(|| Box::new(Islip::log2n(16, 1)), 0.8, &cfg().with_seed(s)),
    ));
    out.push((
        "voq+islip-dual",
        run_uniform(|| Box::new(Islip::log2n(16, 2)), 0.8, &cfg().with_seed(s)),
    ));
    out.push((
        "voq+pipelined",
        run_uniform(
            || Box::new(PipelinedArbiter::log2n(16, 1)),
            0.7,
            &cfg().with_seed(s),
        ),
    ));
    out.push(("voq+flppr-degraded", {
        let plan = FaultPlan::new()
            .one_shot(FaultKind::SoaStuckOff { output: 3 }, 500, Some(700))
            .one_shot(FaultKind::ReceiverDeath { output: 5 }, 900, Some(1_200))
            .periodic(FaultKind::ReceiverDeath { output: 11 }, 400, 600, 150);
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
        let mut inj = FaultInjector::new(plan);
        run_switch_faulted(&mut sw, &mut uniform(16, 0.8, s), &cfg(), &mut inj)
    }));
    out.push(("compiled-fat-tree", {
        let mut sim = CompiledFabric::new(TopologySpec::fat_tree(8, 2));
        let hosts = sim.expanded().hosts.len();
        sim.run(&mut uniform(hosts, 0.5, s), &cfg())
    }));
    out.push(("multistage-option1", {
        let mut fc = FabricConfig::small(8, 2);
        fc.placement = Placement::InputAndOutput;
        let mut fab = FatTreeFabric::new(fc);
        let hosts = fab.topology().hosts();
        fab.run(&mut uniform(hosts, 0.5, s), &cfg())
    }));
    out.into_iter().map(|(n, r)| (n, r.fingerprint())).collect()
}

#[test]
fn kernel_path_fingerprints_match_pins() {
    let got = capture_kernel_paths();
    assert_eq!(got.len(), KERNEL_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(KERNEL_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// Engine-report fingerprints of the FLPPR paths with the most
/// sub-scheduler churn: the 64-port benchmark point, a 200-port switch
/// (multi-word input masks and multi-word sub-port masks), and the
/// grant-loss re-request path, where a lost grant re-enters every
/// sub-scheduler's view as a fresh arrival. Captured before the
/// sub-schedulers began sharing FLPPR's occupancy view.
const FLPPR_PINS: &[(&str, u64)] = &[
    ("voq+flppr-64", 0x1ead_61c0_6b9d_51d0),
    ("voq+flppr-200", 0x2ecd_ba05_3421_264e),
    ("voq+flppr-grantloss", 0xdf31_45b7_c863_0ae7),
];

fn capture_flppr_paths() -> Vec<(&'static str, u64)> {
    use osmosis::faults::{FaultInjector, FaultKind, FaultPlan};
    use osmosis::switch::{run_switch_faulted, VoqSwitch};

    let s = 1234u64;
    let mut out: Vec<(&'static str, EngineReport)> = Vec::new();
    out.push((
        "voq+flppr-64",
        run_uniform(|| Box::new(Flppr::osmosis(64, 2)), 0.8, &cfg().with_seed(s)),
    ));
    out.push((
        "voq+flppr-200",
        run_uniform(
            || Box::new(Flppr::osmosis(200, 2)),
            0.8,
            &cfg().with_seed(s),
        ),
    ));
    out.push(("voq+flppr-grantloss", {
        let plan = FaultPlan::new().periodic(FaultKind::GrantLoss { prob: 0.1 }, 200, 900, 250);
        let mut sw = VoqSwitch::new(Box::new(Flppr::osmosis(16, 2)));
        let mut inj = FaultInjector::new(plan);
        run_switch_faulted(&mut sw, &mut uniform(16, 0.8, s), &cfg(), &mut inj)
    }));
    out.into_iter().map(|(n, r)| (n, r.fingerprint())).collect()
}

#[test]
fn flppr_path_fingerprints_match_pins() {
    let got = capture_flppr_paths();
    assert_eq!(got.len(), FLPPR_PINS.len());
    for ((name, fp), (pin_name, pin)) in got.iter().zip(FLPPR_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(
            *fp, *pin,
            "{name}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}

/// Engine-report fingerprints of the m-ary fat trees the §VI.C study
/// simulates: the four `sec6c_simulated` shapes at 0.3 load, plus a
/// single switch and a radix-6 three-level tree at 0.8 load, as
/// (radix, levels, load, fingerprint). Captured on the dedicated
/// multilevel simulator, which reported no `switches` extra, before the
/// compiled fabric took over its runs.
const MULTILEVEL_PINS: &[(usize, u32, f64, u64)] = &[
    (8, 2, 0.3, 0x28bb_12bd_edd0_e01b),
    (4, 4, 0.3, 0x6492_29da_e548_f01e),
    (16, 2, 0.3, 0x52f0_23e0_04e0_044b),
    (4, 6, 0.3, 0x7b10_5c71_9253_f925),
    (4, 1, 0.8, 0x6eaf_e0f9_7739_d978),
    (6, 3, 0.8, 0x035c_fb65_f459_fcef),
];

#[test]
fn multilevel_fingerprints_match_pins() {
    for &(radix, levels, load, pin) in MULTILEVEL_PINS {
        let fp = multilevel_fingerprint(radix, levels, load);
        assert_eq!(
            fp, pin,
            "r{radix} L{levels} @{load}: fingerprint {fp:#018x} drifted from pinned {pin:#018x}"
        );
    }
}
