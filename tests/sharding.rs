//! The sharded staging fleet: partitioned data plane with cross-shard
//! consistency and localized per-shard rollback.
//!
//! The invariants pinned here, per the sharding design (DESIGN §9):
//!
//! * **Ownership totality and disjointness** — the versioned partition map
//!   assigns every block key to exactly one shard, in every mode (range,
//!   hashed, with overrides) and at every map version (proptest).
//! * **Localized failure** — a single shard's fail-stop is absorbed by that
//!   shard's rebuild alone: no component rolls back, the survivors keep
//!   serving, replay digests verify clean, and same-seed runs stay
//!   byte-identical.
//! * **Live rebalance** — a scripted map-version bump migrates a block
//!   range mid-run while puts continue; the cutover is replay-equivalent
//!   (clean digests, same data observed) and deterministic.
//! * **Conservation** — across the whole fleet no logged piece is owned by
//!   two different shards (the cross-shard-conservation oracle).
//! * **Scaling** — on a put-bound workload, aggregate put throughput rises
//!   from 1 to 8 shards in virtual time (pinned totals).

mod common;

use proptest::prelude::*;
use shardmap::{MapHistory, ShardMap};
use sim_core::time::SimTime;
use staging::service::ServerCosts;
use std::time::Duration;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec, RebalanceCfg, ShardAssign, ShardingCfg, WorkflowConfig};
use workflow::runner::run;

/// The tiny workflow over a sharded fleet (logging protocol keeps the
/// replay digest checker live).
fn sharded(assign: ShardAssign) -> WorkflowConfig {
    tiny(WorkflowProtocol::Uncoordinated).with_sharding(ShardingCfg { assign, rebalance: None })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every key is owned by exactly one shard — in range mode, hashed
    /// mode, after a migration override, and at every version of a map
    /// history. Totality is `owner_of` returning a valid index for *any*
    /// key; disjointness is it being a function (one owner per key), which
    /// the fleet conservation oracle then enforces end-to-end.
    #[test]
    fn ownership_is_total_and_disjoint(
        nshards in 1usize..=8,
        seed in 0u64..1 << 32,
        nkeys in 1usize..=64,
        migrate_to in 0usize..8,
    ) {
        let codes: Vec<u64> = (0..nkeys as u64).map(|i| i * 7 + seed % 5).collect();
        let range = ShardMap::range_over(&codes, nshards);
        let hashed = ShardMap::hashed(nshards, seed);
        for map in [&range, &hashed] {
            for &k in &codes {
                let owner = map.owner_of(k);
                prop_assert!(owner < nshards, "owner {owner} out of range");
            }
        }
        // A migration override re-homes keys but keeps ownership total and
        // single-valued at both versions of the history.
        let to = migrate_to % nshards;
        let moved: Vec<u64> = codes.iter().copied().take(nkeys / 2 + 1).collect();
        let v2 = hashed.migrate(&moved, to);
        let history = MapHistory::single(hashed.clone()).with_epoch(5, v2);
        for &k in &codes {
            let before = history.owner_at(k, 0);
            let after = history.owner_at(k, 5);
            prop_assert!(before < nshards && after < nshards);
            if moved.contains(&k) {
                prop_assert_eq!(after, to, "migrated key must land on the destination");
            } else {
                prop_assert_eq!(after, before, "unmigrated keys must not move");
            }
        }
    }
}

/// A single shard's fail-stop is localized: the victim shard rebuilds, no
/// application component rolls back, the survivors keep serving (the run
/// completes with every get answered), replay digests verify clean, and
/// same-seed runs are byte-identical.
#[test]
fn single_shard_crash_recovers_locally() {
    let _wd = common::watchdog("single_shard_crash_recovers_locally", Duration::from_secs(120));
    let cfg = sharded(ShardAssign::Hashed { seed: 0xC0FFEE })
        .with_failures(vec![FailureSpec::StagingAt { at: SimTime::from_millis(500), server: 1 }]);
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2, "survivors must keep the workflow serving");
    assert_eq!(r.staging_rebuilds, 1, "exactly the victim shard rebuilds");
    assert_eq!(r.recoveries(), 0, "no application component rolls back");
    assert_eq!(r.digest_mismatches, 0);
    assert_eq!(r.stale_gets, 0);
    assert_eq!(r.shard_puts.len(), 4);

    // The clean sharded run observes the same data volume: localized
    // recovery loses nothing.
    let clean = run(&sharded(ShardAssign::Hashed { seed: 0xC0FFEE }));
    assert_eq!(r.puts(), clean.puts(), "rebuild must not change the put stream");
    assert_eq!(r.gets(), clean.gets(), "every read is still answered");

    let again = run(&cfg);
    assert_eq!(r.to_json_line(), again.to_json_line(), "same seed, same sharded report");
}

/// Under a transport that duplicates messages a shard answers some puts
/// twice (the second time from its dedup cache), but it *served* each once:
/// the per-shard balance numbers count requests, not acknowledgements sent.
#[test]
fn shard_puts_count_each_put_once_under_duplication() {
    let _wd = common::watchdog(
        "shard_puts_count_each_put_once_under_duplication",
        Duration::from_secs(120),
    );
    // Three in ten of some four hundred messages arrive twice.
    let dup_only = faultplane::FaultPlan {
        seed: 5,
        rates: faultplane::FaultRates {
            duplicate: 0.3,
            max_extra_delay_ns: 500_000,
            ..Default::default()
        },
        windows: Vec::new(),
    };
    let r = run(&sharded(ShardAssign::Range).with_net_faults(dup_only));
    assert_eq!(r.shard_puts.len(), 4);
    assert_eq!(r.shard_puts.iter().sum::<u64>(), r.puts());
}

/// A scripted live rebalance: at `at_version` the partition map bumps and a
/// block range migrates to a new owner while the producer keeps putting.
/// The cutover must be clean (no digest mismatches, no stale reads), land
/// in the report, route traffic to the destination, and stay deterministic.
#[test]
fn live_rebalance_cuts_over_cleanly() {
    let _wd = common::watchdog("live_rebalance_cuts_over_cleanly", Duration::from_secs(120));
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_sharding(ShardingCfg {
        assign: ShardAssign::Range,
        rebalance: Some(RebalanceCfg { at_version: 6, blocks: vec![[0, 0, 0], [1, 0, 0]], to: 3 }),
    });
    let r = run(&cfg);
    assert_eq!(r.finish_times_s.len(), 2);
    assert_eq!(r.digest_mismatches, 0, "replay equivalence must hold across the cutover");
    assert_eq!(r.stale_gets, 0);
    assert_eq!(r.shard_puts.len(), 4);
    assert_eq!(
        r.shard_puts.iter().sum::<u64>(),
        r.puts(),
        "per-shard puts must account for every put exactly once"
    );

    // Versus the same run without the rebalance: the destination shard's
    // share of the put stream grows, everything else stays equivalent.
    let base = run(&tiny(WorkflowProtocol::Uncoordinated)
        .with_sharding(ShardingCfg { assign: ShardAssign::Range, rebalance: None }));
    assert_eq!(r.puts(), base.puts(), "the migration must not change the put stream");
    assert_eq!(r.gets(), base.gets());
    assert!(
        r.shard_puts[3] > base.shard_puts[3],
        "the destination shard must receive the migrated range ({} vs {})",
        r.shard_puts[3],
        base.shard_puts[3]
    );

    let again = run(&cfg);
    assert_eq!(r.to_json_line(), again.to_json_line(), "same seed, same rebalanced report");
}

/// The cross-shard conservation oracle over a finished sharded run: the
/// union of the shards' logs holds no piece owned by two different shards —
/// the "no piece lost or double-served" half of the rollback story that the
/// per-shard digest checks cannot see.
#[test]
fn fleet_conservation_holds_after_a_sharded_run() {
    let _wd = common::watchdog("fleet_conservation", Duration::from_secs(120));
    for assign in [ShardAssign::Range, ShardAssign::Hashed { seed: 3 }] {
        let cfg = sharded(assign)
            .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(700), app: 1 }]);
        let mut built = workflow::runner::build(&cfg);
        built.engine.run_limited(200_000_000);
        let server_ids = built.server_ids.clone();
        let mut oracles = workflow::mcheck_mode::consistency_oracles(server_ids);
        let conservation = oracles
            .iter_mut()
            .find(|o| o.name() == "cross-shard-conservation")
            .expect("conservation oracle registered");
        conservation.check(&built.engine).expect("no piece on two shards");
        let rep = workflow::runner::harvest(&mut built);
        assert_eq!(rep.digest_mismatches, 0);
        assert_eq!(rep.recoveries(), 1, "the component crash still recovers");
    }
}

/// Aggregate put throughput rises with the fleet, in virtual time. The
/// workload is put-bound: fine blocks (64 a step), a storage-class server
/// cost model (per-byte store and log cost well above the interconnect's)
/// and light compute, so staging service time dominates a step and the
/// fleet, not the producer's NIC, is what the total time measures. The
/// shards serve their queues concurrently in virtual time, which wall-clock
/// threads on a small host cannot show. The totals are pinned exactly: they
/// are virtual-time outputs, and a difference is a changed event.
#[test]
fn aggregate_put_throughput_rises_with_shards() {
    let _wd =
        common::watchdog("aggregate_put_throughput_rises_with_shards", Duration::from_secs(120));
    let sharded_cfg = |nshards: usize| {
        let mut cfg = sharded(ShardAssign::Hashed { seed: 0xC0FFEE });
        cfg.block = [16, 16, 16];
        cfg.nservers = nshards;
        cfg.bytes_per_point = 256;
        for c in &mut cfg.components {
            c.compute_per_step = SimTime::from_millis(5);
        }
        cfg.server_costs = ServerCosts {
            per_request_ns: 2_000,
            per_byte_ns: 1.2,
            log_event_ns: 1_000,
            log_byte_ns: 0.4,
        };
        cfg
    };
    // (shards, total seconds): 335.3, 623.7, 1094.0 and 1367.1 puts/s.
    let pinned = [(1usize, 2.290443801), (2, 1.231319121), (4, 0.702021973), (8, 0.561776369)];
    for (shards, total_time_s) in pinned {
        let rep = run(&sharded_cfg(shards));
        assert_eq!(rep.puts(), 768, "{shards} shards");
        assert_eq!(
            rep.shard_puts.len(),
            shards,
            "{shards} shards: the report carries the fleet size"
        );
        assert_eq!(rep.digest_mismatches, 0, "{shards} shards");
        assert_eq!(rep.total_time_s, total_time_s, "{shards} shards");
    }
}

/// Sharded soak (CI `shard-soak` job): shard counts × assignment modes ×
/// single-shard failures × a live rebalance, each cell run twice and
/// required to complete clean and byte-identical.
/// Locally: `cargo test --test sharding -- --ignored shard_soak`.
#[test]
#[ignore = "soak matrix; run with `cargo test --release -- --ignored shard_soak`"]
fn shard_soak() {
    let _wd = common::watchdog("shard_soak", Duration::from_secs(570));
    let mut cells = 0;
    for assign in [ShardAssign::Range, ShardAssign::Hashed { seed: 0xC0FFEE }] {
        for victim in 0..4usize {
            let cfg = sharded(assign).with_failures(vec![FailureSpec::StagingAt {
                at: SimTime::from_millis(300 + victim as u64 * 150),
                server: victim,
            }]);
            let r = run(&cfg);
            assert_eq!(r.finish_times_s.len(), 2, "{assign:?} srv {victim}: must finish");
            assert_eq!(r.staging_rebuilds, 1, "{assign:?} srv {victim}");
            assert_eq!(r.digest_mismatches, 0, "{assign:?} srv {victim}: replay drifted");
            assert_eq!(r.to_json_line(), run(&cfg).to_json_line(), "{assign:?} srv {victim}");
            cells += 1;
        }
    }
    for at_version in [2u32, 6, 10] {
        let cfg = tiny(WorkflowProtocol::Uncoordinated).with_sharding(ShardingCfg {
            assign: ShardAssign::Range,
            rebalance: Some(RebalanceCfg { at_version, blocks: vec![[0, 0, 0], [0, 1, 0]], to: 2 }),
        });
        let r = run(&cfg);
        assert_eq!(r.finish_times_s.len(), 2, "rebalance@{at_version}: must finish");
        assert_eq!(r.digest_mismatches, 0, "rebalance@{at_version}: replay drifted");
        assert_eq!(r.to_json_line(), run(&cfg).to_json_line(), "rebalance@{at_version}");
        cells += 1;
    }
    eprintln!("shard_soak: {cells} cells green");
}
