//! S3D-style coupled simulation workflow (paper §II-A).
//!
//! Models the paper's motivating workload: a DNS combustion solver coupled
//! to in-situ analytics through staging, exchanging several 3-D fields
//! (temperature, pressure, density, velocity components) every time step.
//! Runs the workflow under every fault-tolerance protocol with the same
//! injected failure and prints the comparison the paper's Figure 9(e) makes.
//!
//! Run with:
//! ```text
//! cargo run --release --example s3d_coupled
//! ```

use sim_core::time::SimTime;
use wfcr::protocol::{FtScheme, WorkflowProtocol};
use workflow::config::{ComponentConfig, FailureSpec, Role, WorkflowConfig};
use workflow::runner::run;

/// An S3D-flavoured configuration: 5 coupled scalar/vector fields over a
/// 256³ DNS grid, 24 coupling cycles.
fn s3d_config(protocol: WorkflowProtocol) -> WorkflowConfig {
    WorkflowConfig {
        label: format!("s3d/{}", protocol.label()),
        components: vec![
            ComponentConfig {
                name: "s3d-dns".into(),
                app: 0,
                role: Role::Producer,
                ranks: 128,
                spares: 4,
                compute_per_step: SimTime::from_millis(8_000),
                jitter: 0.04,
                state_bytes: 128 * (40 << 20),
                scheme: FtScheme::CheckpointRestart { period: 4 },
                subset_millis: 1000,
                subset_pattern: workflow::config::SubsetPattern::Fixed,
            },
            ComponentConfig {
                name: "viz-analytics".into(),
                app: 1,
                role: Role::Consumer,
                ranks: 32,
                spares: 2,
                compute_per_step: SimTime::from_millis(1_500),
                jitter: 0.04,
                state_bytes: 32 * (40 << 20),
                scheme: FtScheme::CheckpointRestart { period: 6 },
                subset_millis: 1000,
                subset_pattern: workflow::config::SubsetPattern::Fixed,
            },
        ],
        domain: [256, 256, 256],
        block: [128, 128, 128],
        nservers: 16,
        bytes_per_point: 8,
        nvars: 5, // T, p, rho, u, Y — "dozens of 3D scalar and vector fields"
        total_steps: 24,
        protocol,
        coordinated_period: 4,
        net: net::cost::CostModel::cori_like(),
        server_costs: staging::service::ServerCosts::default(),
        ulfm: mpi_sim::UlfmCosts::default(),
        pfs: ckpt::PfsModel::default(),
        failures: vec![],
        staging_resilience: workflow::config::StagingResilienceCfg::default(),
        ckpt_target: workflow::config::CkptTarget::Pfs,
        node_local: ckpt::NodeLocalModel::default(),
        proactive: None,
        log_gc: true,
        failover: SimTime::from_millis(500),
        reconnect_per_rank: SimTime::from_millis(5),
        seed: 1234,
        durability: None,
        supervision: false,
        sharding: None,
        trace: None,
        telemetry: None,
    }
}

fn main() {
    // The same failure hits the DNS solver mid-run under every protocol.
    let failure = vec![FailureSpec::At { at: SimTime::from_secs(90), app: 0 }];

    println!("S3D coupled workflow: 128 DNS + 32 analytics ranks, 16 staging servers");
    println!("5 fields x 256^3 x 8B = {} MiB per coupling cycle\n", (5 * 256u64.pow(3) * 8) >> 20);

    let mut co_total = None;
    for proto in WorkflowProtocol::all() {
        let cfg = if proto == WorkflowProtocol::FailureFree {
            s3d_config(proto)
        } else {
            s3d_config(proto).with_failures(failure.clone())
        };
        let r = run(&cfg);
        if proto == WorkflowProtocol::Coordinated {
            co_total = Some(r.total_time_s);
        }
        let vs_co = co_total
            .map(|co| format!("{:+.2}% vs Co", (co - r.total_time_s) / co * 100.0))
            .unwrap_or_else(|| "(failure-free baseline)".into());
        println!(
            "{:>2}: total {:>8.2}s | ckpts {:>2} rollbacks {} failovers {} \
             absorbed-puts {:>3} replayed-gets {:>3} mismatches {} | {}",
            proto.label(),
            r.total_time_s,
            r.ckpts(),
            r.recoveries(),
            r.failovers(),
            r.absorbed_puts,
            r.replayed_gets,
            r.digest_mismatches,
            vs_co,
        );
        assert_eq!(r.digest_mismatches, 0);
    }

    println!(
        "\nReading the table: the coordinated baseline (Co) rolls the whole \
         workflow back on the DNS failure, while the paper's uncoordinated \
         (Un) and hybrid (Hy) schemes roll back only the failed solver — the \
         staging log absorbs its redundant re-writes, keeping the analytics' \
         data consistent without restarting it."
    );
}
