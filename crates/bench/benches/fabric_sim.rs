//! Criterion bench of the fabric simulators: simulated slots per second
//! for radix-8 and radix-16 multistage fat trees, and for the compiled
//! fabric over a shallow and a deep m-ary fat tree of 16 hosts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use osmosis_fabric::multistage::{FabricConfig, FatTreeFabric};
use osmosis_sim::{EngineConfig, SeedSequence};
use osmosis_traffic::BernoulliUniform;

fn bench_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric_sim");
    let slots = 1_000u64;
    g.throughput(Throughput::Elements(slots));
    for radix in [8usize, 16] {
        g.bench_with_input(BenchmarkId::new("fat_tree", radix), &radix, |b, &radix| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut fab = FatTreeFabric::new(FabricConfig::small(radix, 2));
                let hosts = fab.topology().hosts();
                let mut tr = BernoulliUniform::new(hosts, 0.6, &SeedSequence::new(seed));
                fab.run(&mut tr, &EngineConfig::new(0, slots))
            })
        });
    }
    g.finish();
}

fn bench_multilevel(c: &mut Criterion) {
    use osmosis_fabric::{CompiledFabric, TopologySpec};
    let mut g = c.benchmark_group("multilevel_sim");
    let slots = 1_000u64;
    g.throughput(Throughput::Elements(slots));
    for (radix, levels) in [(8usize, 2u32), (4, 4)] {
        g.bench_with_input(
            BenchmarkId::new("folded_clos", format!("r{radix}l{levels}")),
            &(radix, levels),
            |b, &(radix, levels)| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut fab = CompiledFabric::new(TopologySpec::m_ary_fat_tree(radix, levels));
                    let hosts = fab.expanded().hosts.len();
                    let mut tr = BernoulliUniform::new(hosts, 0.5, &SeedSequence::new(seed));
                    fab.run(&mut tr, &EngineConfig::new(0, slots))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fabric, bench_multilevel);
criterion_main!(benches);
