//! Criterion bench for the sharded staging fleet: aggregate put throughput
//! at 1/2/4/8 shards under a hashed partition map.
//!
//! Two quantities come out of this bench:
//!
//! * The **simulated** aggregate put throughput per shard count — printed
//!   as a table before the Criterion samples and recorded in
//!   EXPERIMENTS.md. This is the paper-facing number: in virtual time the
//!   shards serve their queues concurrently, so a put-bound workload's
//!   total time falls (and aggregate throughput rises) as the fleet grows.
//!   Wall-clock threads cannot show this on a single-core host; virtual
//!   time can.
//! * The **host** cost of simulating one sharded run per fleet size — the
//!   Criterion measurement itself, guarding against the routing layer
//!   making the simulation more expensive as shards are added.
//!
//! The workload skews the server cost model toward a storage-class staging
//! node (per-byte store/log cost well above the interconnect's per-byte
//! serialization cost) so the fleet — not the producer NIC — is the
//! bottleneck being scaled.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use staging::service::ServerCosts;
use std::hint::black_box;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, ShardAssign, ShardingCfg, WorkflowConfig};
use workflow::runner::run;

/// A put-bound sharded configuration: fine blocks (64 per step), heavy
/// per-byte staging cost, light compute — staging service time dominates
/// the step, so fleet size is what the total time measures.
fn sharded_cfg(nshards: usize) -> WorkflowConfig {
    let mut cfg = tiny(WorkflowProtocol::Uncoordinated).with_sharding(ShardingCfg {
        assign: ShardAssign::Hashed { seed: 0xC0FFEE },
        rebalance: None,
    });
    cfg.label = format!("shard-scaling/{nshards}");
    cfg.block = [16, 16, 16];
    cfg.nservers = nshards;
    cfg.bytes_per_point = 256;
    for c in &mut cfg.components {
        c.compute_per_step = sim_core::time::SimTime::from_millis(5);
    }
    cfg.server_costs = ServerCosts {
        per_request_ns: 2_000,
        per_byte_ns: 1.2,
        log_event_ns: 1_000,
        log_byte_ns: 0.4,
    };
    cfg
}

fn bench_shard_scaling(c: &mut Criterion) {
    // The paper-facing measurement: virtual-time aggregate put throughput
    // per fleet size. One run per shard count, printed as a table.
    eprintln!("shard_scaling: simulated aggregate put throughput");
    eprintln!("{:>7} {:>8} {:>12} {:>14}", "shards", "puts", "total [s]", "puts/s (sim)");
    for shards in [1usize, 2, 4, 8] {
        let rep = run(&sharded_cfg(shards));
        assert_eq!(rep.shard_puts.len(), shards, "report must carry the fleet size");
        assert_eq!(rep.digest_mismatches, 0);
        eprintln!(
            "{:>7} {:>8} {:>12.3} {:>14.1}",
            shards,
            rep.puts(),
            rep.total_time_s,
            rep.puts() as f64 / rep.total_time_s,
        );
    }

    // The host-cost measurement: simulating a bigger fleet must not blow up
    // the routing layer.
    let mut group = c.benchmark_group("shard_scaling");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let cfg = sharded_cfg(shards);
        group.bench_with_input(BenchmarkId::new("sim", shards), &cfg, |b, cfg| {
            b.iter(|| black_box(run(cfg)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
