//! Experiment configuration, including the paper's Table II and Table III
//! setups.

use faultplane::FaultPlan;
use net::cost::CostModel;
use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;
use staging::geometry::BBox;
use staging::service::ServerCosts;
use wfcr::protocol::{FtScheme, WorkflowProtocol};

/// What a component does each coupling cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Writes the coupled data (the simulation).
    Producer,
    /// Reads the coupled data (the analytics/visualization).
    Consumer,
    /// Both writes its own fields and reads its peers' — a coupled-solver
    /// component like the DNS/LES pair of paper §II-A, whose exchange
    /// pattern Figure 5's queue algorithm is illustrated on.
    Peer,
}

impl Role {
    /// Does this component write coupled data each step?
    pub fn writes(&self) -> bool {
        matches!(self, Role::Producer | Role::Peer)
    }

    /// Does this component read coupled data each step?
    pub fn reads(&self) -> bool {
        matches!(self, Role::Consumer | Role::Peer)
    }
}

/// How the coupled subset moves across time steps (evaluation Case 1 writes
/// "different subsets of the entire data domain in each time step").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SubsetPattern {
    /// The same prefix region every step.
    #[default]
    Fixed,
    /// The region slides along the last axis by its own extent each step,
    /// wrapping around the domain (so successive steps touch different
    /// blocks).
    Rotating,
}

/// The region(s) of `domain` coupled at `step` for a given subset fraction
/// and pattern. Rotating subsets that wrap the domain boundary come back as
/// two boxes.
pub fn coupled_regions(
    domain: &BBox,
    subset_millis: u64,
    pattern: SubsetPattern,
    step: u32,
) -> Vec<BBox> {
    assert!((1..=1000).contains(&subset_millis));
    let axis = domain.ndim as usize - 1;
    let extent = domain.extent(axis);
    let take = ((extent as u128 * subset_millis as u128).div_ceil(1000) as u64).clamp(1, extent);
    let slice = |lo: u64, hi: u64| {
        let mut b = *domain;
        b.lb[axis] = domain.lb[axis] + lo;
        b.ub[axis] = domain.lb[axis] + hi;
        b
    };
    match pattern {
        SubsetPattern::Fixed => vec![slice(0, take - 1)],
        SubsetPattern::Rotating => {
            let start = (step as u64 * take) % extent;
            if start + take <= extent {
                vec![slice(start, start + take - 1)]
            } else {
                let tail = start + take - extent;
                vec![slice(start, extent - 1), slice(0, tail - 1)]
            }
        }
    }
}

/// One application component of the workflow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentConfig {
    /// Display name ("simulation", "analytics").
    pub name: String,
    /// Component id (also the staging `AppId`).
    pub app: u32,
    /// Producer or consumer.
    pub role: Role,
    /// Core/rank count (drives collective costs and state size).
    pub ranks: usize,
    /// Spare processes for ULFM recovery.
    pub spares: usize,
    /// Mean compute time per time step.
    pub compute_per_step: SimTime,
    /// Fractional uniform jitter on compute time (0.05 = ±5%).
    pub jitter: f64,
    /// Checkpointed state size, bytes (whole component).
    pub state_bytes: u64,
    /// Fault-tolerance scheme under Un/Hy/In protocols. (Co overrides the
    /// period with the global coordinated period; Ds ignores it.)
    pub scheme: FtScheme,
    /// Fraction of the domain coupled each step, in thousandths
    /// (1000 = 100%; Case 1 sweeps 200..=1000).
    pub subset_millis: u64,
    /// How the coupled subset moves across steps.
    pub subset_pattern: SubsetPattern,
}

/// When and whom failures strike.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FailureSpec {
    /// Deterministic failure of `app` at `at`.
    At {
        /// Failure time.
        at: SimTime,
        /// Victim component.
        app: u32,
    },
    /// `count` failures with exponential inter-arrival times of mean
    /// `mtbf_secs`, victims chosen randomly weighted by rank count.
    Mtbf {
        /// Mean time between failures, seconds.
        mtbf_secs: f64,
        /// Number of failures to inject.
        count: usize,
    },
    /// Fail-stop failure of staging server `server` at `at`; the server
    /// rebuilds its contents from survivors while requests queue, ingesting
    /// `staging_resilience.protect.rs_k` bytes through its NIC per byte
    /// rebuilt.
    StagingAt {
        /// Failure time.
        at: SimTime,
        /// Staging server index.
        server: usize,
    },
    /// Seed-deterministic network fault injection (drop / duplication /
    /// reordering / bounded extra delay) on the staging data path for the
    /// whole run. The director's coordination channel is exempt — the
    /// faulted surface is put/get/ctl traffic between components and
    /// staging servers.
    NetFaults {
        /// The fault plan (rates, windows, seed).
        plan: FaultPlan,
    },
    /// Poison input: the data `victim` consumes at `step` is malformed and
    /// kills it on every attempt. Without supervision this wedges the run in
    /// a crash loop; with supervision the step is quarantined to the
    /// dead-letter queue once it has caused [`supervise::POISON_THRESHOLD`]
    /// deaths.
    PoisonPut {
        /// The consumer that crashes on the poisoned input.
        victim: u32,
        /// The step whose input is poisoned.
        step: u32,
    },
}

/// Where component checkpoints are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CkptTarget {
    /// Directly to the shared parallel file system (the paper's primary
    /// option: "checkpoints can be stored through a centralized parallel
    /// file system").
    Pfs,
    /// SCR/FTI-style two-level: blocking write to node-local NVRAM/SSD with
    /// asynchronous PFS flush. Restores hit node-local when the copy
    /// survived; a component's *own* failure destroys its local copies, so
    /// its restore falls back to the PFS ("multi-level checkpointing" — the
    /// future-work integration the paper names).
    TwoLevel,
}

/// Proactive checkpointing (Bouguerra et al., the paper's reference 15): a failure
/// predictor warns `lead` before an impending failure with probability
/// `recall`; warned components take an immediate out-of-band checkpoint,
/// shrinking the lost work to under one step.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProactiveCfg {
    /// Warning lead time before the failure.
    pub lead: SimTime,
    /// Probability the predictor catches a failure (0..=1).
    pub recall: f64,
}

/// Durable journaling of the staging log (the persistence layer): every
/// staging server's logging backend writes its put/get/control history
/// through a segmented `logstore::LogStore`, making a cold restart from disk
/// possible after full process death. Only a logging protocol (Un/Hy) keeps a
/// log to journal; [`WorkflowConfig::validate`] refuses durability under any
/// other. `None` (the default) keeps the seed's in-memory-only behaviour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DurabilityCfg {
    /// Directory for segment files (one subdirectory per staging server).
    /// `None` journals through in-memory media — durable across a *simulated*
    /// crash (`MemMedia::crash`), hermetic for tests.
    #[serde(default)]
    pub dir: Option<String>,
    /// Segment rotation size, bytes.
    pub segment_bytes: u64,
    /// Flush/fsync policy.
    pub flush: logstore::FlushPolicy,
    /// Journal-handle coalescing window: entries accumulate client-side and
    /// reach the log as one batched group commit every this-many records
    /// (commit points always hand off immediately). 0 behaves as 1
    /// (no coalescing).
    #[serde(default = "default_coalesce")]
    pub coalesce: usize,
}

fn default_coalesce() -> usize {
    wfcr::journal::DEFAULT_COALESCE
}

impl Default for DurabilityCfg {
    fn default() -> Self {
        let base = logstore::LogConfig::default();
        DurabilityCfg {
            dir: None,
            segment_bytes: base.segment_bytes,
            flush: base.flush,
            coalesce: default_coalesce(),
        }
    }
}

impl DurabilityCfg {
    /// The equivalent `logstore` configuration.
    pub fn log_config(&self) -> logstore::LogConfig {
        logstore::LogConfig { segment_bytes: self.segment_bytes, flush: self.flush }
    }
}

/// How the sharded fleet assigns block keys to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardAssign {
    /// Contiguous SFC ranges — reproduces the classic `Distribution` range
    /// partition exactly, so an unrebalanced Range run routes identically
    /// to an unsharded one.
    Range,
    /// Rendezvous (highest-random-weight) hashing with the given seed —
    /// spreads hot SFC ranges and moves only ~1/N of keys when the fleet
    /// grows.
    Hashed {
        /// Hash seed (part of the map identity; same seed → same map).
        seed: u64,
    },
}

/// A scripted live rebalance: at data version `at_version` the partition
/// map migrates `blocks` to shard `to` (a new map epoch — writes of
/// `at_version` and later go to `to`, earlier versions stay with, and are
/// replayed by, the old owner).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebalanceCfg {
    /// First data version routed by the migrated map.
    pub at_version: u32,
    /// Block grid coordinates to migrate.
    pub blocks: Vec<[u64; 3]>,
    /// Destination shard.
    pub to: usize,
}

/// Sharded staging fleet: route every put/get through an explicit versioned
/// partition map instead of the distribution's implicit range partition.
/// `None` (the default) keeps the seed's unsharded routing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardingCfg {
    /// Key → shard assignment policy.
    pub assign: ShardAssign,
    /// Optional scripted mid-run map migration.
    #[serde(default)]
    pub rebalance: Option<RebalanceCfg>,
}

/// Parameters of the staging area's own resilience (the CoREC substrate the
/// paper builds on: "the data staging can contain data resilience mechanisms
/// such as data replication or erasure coding").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StagingResilienceCfg {
    /// Erasure-coding geometry of staged objects (sets the rebuild rate).
    pub protect: resilience::ProtectConfig,
    /// Fixed failover/detection cost before the rebuild starts.
    pub fixed: SimTime,
}

impl Default for StagingResilienceCfg {
    fn default() -> Self {
        StagingResilienceCfg {
            protect: resilience::ProtectConfig::default(),
            fixed: SimTime::from_millis(200),
        }
    }
}

/// Full experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// Human-readable label for reports.
    pub label: String,
    /// The coupled components (exactly one producer expected by the
    /// synthetic workloads, but the engine supports several).
    pub components: Vec<ComponentConfig>,
    /// Global domain extents.
    pub domain: [u64; 3],
    /// Staging block extents.
    pub block: [u64; 3],
    /// Staging server count.
    pub nservers: usize,
    /// Bytes per grid point per variable (8 = one double).
    pub bytes_per_point: u64,
    /// Coupled variables per step.
    pub nvars: u32,
    /// Coupling cycles to run.
    pub total_steps: u32,
    /// Workflow-level protocol.
    pub protocol: WorkflowProtocol,
    /// Global checkpoint period under the Co protocol (time steps).
    pub coordinated_period: u32,
    /// Interconnect cost model.
    pub net: CostModel,
    /// Staging server CPU cost model.
    pub server_costs: ServerCosts,
    /// ULFM/recovery cost model.
    pub ulfm: mpi_sim::UlfmCosts,
    /// PFS model for checkpoint I/O.
    pub pfs: ckpt::PfsModel,
    /// Failure injection plan.
    pub failures: Vec<FailureSpec>,
    /// Staging-area resilience parameters (drives rebuild times after
    /// staging-server failures).
    pub staging_resilience: StagingResilienceCfg,
    /// Checkpoint storage target for every component.
    pub ckpt_target: CkptTarget,
    /// Node-local storage model (used when `ckpt_target` is two-level).
    pub node_local: ckpt::NodeLocalModel,
    /// Optional proactive-checkpointing predictor.
    pub proactive: Option<ProactiveCfg>,
    /// Log garbage collection (disable only for the GC ablation).
    pub log_gc: bool,
    /// Replication failover pause (Hy components with replication).
    pub failover: SimTime,
    /// Staging-client re-initialization cost per rank after a restart (the
    /// paper's "tries to build RDMA connection to data staging servers" in
    /// `workflow_restart()`; client registration serializes at the staging
    /// master). A restarted component pays `ranks × reconnect_per_rank`;
    /// under Co *every* component restarts, so the whole workflow's ranks
    /// reconnect — one of the costs that grows with scale in Figure 10.
    pub reconnect_per_rank: SimTime,
    /// Engine RNG seed.
    pub seed: u64,
    /// Optional durable journaling of the staging stores (absent in the
    /// seed's configs — `#[serde(default)]` keeps old documents readable).
    #[serde(default)]
    pub durability: Option<DurabilityCfg>,
    /// Optional causal tracing (absent in the seed's configs —
    /// `#[serde(default)]` keeps old documents readable). Tracing is
    /// observational only: a traced run is event-for-event identical to the
    /// same run untraced.
    #[serde(default)]
    pub trace: Option<TraceCfg>,
    /// Self-healing supervision (the `supervise` crate wired into the
    /// runner; off in the seed's configs — `#[serde(default)]` keeps old
    /// documents readable). When on, a supervisor actor owns component
    /// failure handling: restarts from the last checkpoint after a
    /// capped-exponential backoff ([`supervise::BACKOFF_BASE_NS`] doubling
    /// to [`supervise::BACKOFF_CAP_NS`]), and dead-letter quarantine of an
    /// input that kills its component [`supervise::POISON_THRESHOLD`] times.
    /// Staging-server outages are timed, not restarted: the resilience
    /// layer's rebuild brings a server back.
    #[serde(default)]
    pub supervision: bool,
    /// Optional sharded staging fleet (absent in the seed's configs —
    /// `#[serde(default)]` keeps old documents readable). When enabled,
    /// every put/get routes through an explicit versioned partition map;
    /// consistency windows, rollback, and GC floors are tracked per shard.
    #[serde(default)]
    pub sharding: Option<ShardingCfg>,
    /// Optional deterministic time-series telemetry (absent in the seed's
    /// configs — `#[serde(default)]` keeps old documents readable). When
    /// enabled, a virtual-time scraper actor samples the metrics registry
    /// every window and the run report carries a byte-deterministic windowed
    /// series.
    #[serde(default)]
    pub telemetry: Option<TelemetryCfg>,
}

/// Deterministic time-series telemetry configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryCfg {
    /// Scrape window width (virtual time). Every window boundary the
    /// scraper turns the cumulative registry into per-window activity:
    /// counter deltas, gauge closes, and exact per-window latency
    /// histograms.
    pub window: SimTime,
}

impl Default for TelemetryCfg {
    fn default() -> Self {
        TelemetryCfg { window: SimTime::from_millis(1_000) }
    }
}

impl TelemetryCfg {
    /// Telemetry with `window`-wide scrape windows.
    pub fn windowed(window: SimTime) -> TelemetryCfg {
        TelemetryCfg { window }
    }
}

/// Causal-trace capture configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceCfg {
    /// Keep only the most recent `flight_cap` records (a flight recorder
    /// dumped on failure) instead of the full stream. `None` records
    /// everything — use for short runs and export; the bounded mode is for
    /// long runs where only the tail around a crash matters.
    #[serde(default)]
    pub flight_cap: Option<usize>,
}

impl TraceCfg {
    /// Record the full span stream (export-quality traces).
    pub fn full() -> TraceCfg {
        TraceCfg { flight_cap: None }
    }

    /// Keep only the most recent `cap` records (flight-recorder mode).
    pub fn flight(cap: usize) -> TraceCfg {
        TraceCfg { flight_cap: Some(cap) }
    }
}

impl WorkflowConfig {
    /// The whole-domain bounding box.
    pub fn domain_bbox(&self) -> BBox {
        BBox::whole(self.domain)
    }

    /// Total cores: components + staging (as in Tables II/III).
    pub fn total_cores(&self) -> usize {
        self.components.iter().map(|c| c.ranks).sum::<usize>() + self.nservers
    }

    /// Coupled bytes moved per time step (all vars, full subset).
    pub fn bytes_per_step(&self, subset_millis: u64) -> u64 {
        let vol = self.domain_bbox().volume();
        vol * subset_millis / 1000 * self.bytes_per_point * self.nvars as u64
    }

    /// Replace the failure plan on a copy.
    pub fn with_failures(&self, failures: Vec<FailureSpec>) -> WorkflowConfig {
        let mut c = self.clone();
        c.failures = failures;
        c
    }

    /// Replace the RNG seed on a copy (varies jitter and sampled failures).
    pub fn with_seed(&self, seed: u64) -> WorkflowConfig {
        let mut c = self.clone();
        c.seed = seed;
        c
    }

    /// Append a network fault-injection plan on a copy.
    pub fn with_net_faults(&self, plan: FaultPlan) -> WorkflowConfig {
        let mut c = self.clone();
        c.failures.push(FailureSpec::NetFaults { plan });
        c
    }

    /// Enable durable staging journals on a copy.
    pub fn with_durability(&self, durability: DurabilityCfg) -> WorkflowConfig {
        let mut c = self.clone();
        c.durability = Some(durability);
        c
    }

    /// Enable causal tracing on a copy.
    pub fn with_tracing(&self, trace: TraceCfg) -> WorkflowConfig {
        let mut c = self.clone();
        c.trace = Some(trace);
        c
    }

    /// Enable self-healing supervision on a copy.
    pub fn with_supervision(&self) -> WorkflowConfig {
        let mut c = self.clone();
        c.supervision = true;
        c
    }

    /// Enable the sharded staging fleet on a copy.
    pub fn with_sharding(&self, sharding: ShardingCfg) -> WorkflowConfig {
        let mut c = self.clone();
        c.sharding = Some(sharding);
        c
    }

    /// Enable deterministic time-series telemetry on a copy.
    pub fn with_telemetry(&self, telemetry: TelemetryCfg) -> WorkflowConfig {
        let mut c = self.clone();
        c.telemetry = Some(telemetry);
        c
    }

    /// The staging domain decomposition this configuration describes.
    pub fn dist(&self) -> staging::Distribution {
        staging::Distribution::new(self.domain_bbox(), self.block, self.nservers)
    }

    /// The request router: unsharded (classic range partition) unless
    /// [`WorkflowConfig::sharding`] is set, in which case an explicit
    /// versioned partition map — including any scripted rebalance epoch —
    /// routes every block. Deterministic: the same config always builds the
    /// same router.
    pub fn build_router(&self) -> staging::Router {
        let dist = self.dist();
        let Some(sharding) = &self.sharding else {
            return staging::Router::unsharded(dist);
        };
        let base = match sharding.assign {
            ShardAssign::Range => shardmap::ShardMap::range_over(dist.codes(), dist.nservers),
            ShardAssign::Hashed { seed } => shardmap::ShardMap::hashed(dist.nservers, seed),
        };
        let mut history = shardmap::MapHistory::single(base.clone());
        if let Some(reb) = &sharding.rebalance {
            let keys: Vec<u64> =
                reb.blocks.iter().map(|&[x, y, z]| dist.block_code([x, y, z])).collect();
            history = history.with_epoch(u64::from(reb.at_version), base.migrate(&keys, reb.to));
        }
        staging::Router::sharded(dist, history)
    }

    /// Durability journals the logging backend; a protocol without a log has
    /// nothing a restart could read back.
    pub(crate) fn check_durability(&self) -> Result<(), String> {
        if self.durability.is_some() && !self.protocol.uses_logging() {
            return Err(format!(
                "durability journals the staging log, and protocol {} keeps none",
                self.protocol.label()
            ));
        }
        Ok(())
    }

    /// Validate the configuration: the failure plan's component and server
    /// indices must exist, rates must be probabilities, windows must be
    /// non-empty, there is at most one network fault plan and one poison put
    /// per victim, and durability needs a logging protocol.
    pub fn validate(&self) -> Result<(), String> {
        self.check_durability()?;
        let mut net_faults = false;
        let mut poisoned: Vec<u32> = Vec::new();
        for (i, spec) in self.failures.iter().enumerate() {
            let at_spec = |msg: String| format!("failures[{i}]: {msg}");
            let victim = |app: u32| {
                self.components
                    .iter()
                    .find(|c| c.app == app)
                    .ok_or_else(|| at_spec(format!("unknown victim app {app}")))
            };
            match spec {
                FailureSpec::At { app, .. } => {
                    victim(*app)?;
                }
                FailureSpec::Mtbf { mtbf_secs, count } => {
                    if !(mtbf_secs.is_finite() && *mtbf_secs > 0.0) {
                        return Err(at_spec(format!("MTBF must be positive, got {mtbf_secs}")));
                    }
                    if *count == 0 {
                        return Err(at_spec("MTBF failure count must be nonzero".into()));
                    }
                }
                FailureSpec::StagingAt { server, .. } => {
                    if *server >= self.nservers {
                        return Err(at_spec(format!(
                            "staging server {server} out of range ({} servers)",
                            self.nservers
                        )));
                    }
                }
                FailureSpec::NetFaults { plan } => {
                    if net_faults {
                        return Err(at_spec(
                            "a second network fault plan; the run installs one".into(),
                        ));
                    }
                    net_faults = true;
                    plan.validate().map_err(|e| at_spec(format!("bad fault plan: {e}")))?;
                }
                FailureSpec::PoisonPut { victim: app, step } => {
                    if !victim(*app)?.role.reads() {
                        return Err(at_spec(format!("poison victim {app} never consumes data")));
                    }
                    if *step >= self.total_steps {
                        return Err(at_spec(format!(
                            "poison step {step} out of range ({} steps)",
                            self.total_steps
                        )));
                    }
                    if !self.supervision {
                        return Err(at_spec(
                            "a poison put without supervision wedges the run; \
                             enable supervision"
                                .into(),
                        ));
                    }
                    if poisoned.contains(app) {
                        return Err(at_spec(format!(
                            "a second poison put for victim {app}; a component carries one \
                             poisoned step"
                        )));
                    }
                    poisoned.push(*app);
                }
            }
        }
        if let Some(sharding) = &self.sharding {
            if let Some(reb) = &sharding.rebalance {
                if reb.to >= self.nservers {
                    return Err(format!(
                        "rebalance destination shard {} out of range ({} servers)",
                        reb.to, self.nservers
                    ));
                }
                if reb.at_version == 0 || reb.at_version >= self.total_steps {
                    return Err(format!(
                        "rebalance at_version {} outside 1..{} (must cut over mid-run)",
                        reb.at_version, self.total_steps
                    ));
                }
                if reb.blocks.is_empty() {
                    return Err("rebalance block list is empty".into());
                }
                let counts = self.dist().counts();
                for b in &reb.blocks {
                    if b[0] >= counts[0] || b[1] >= counts[1] || b[2] >= counts[2] {
                        return Err(format!(
                            "rebalance block {b:?} outside the {counts:?} block grid"
                        ));
                    }
                }
            }
        }
        if self.supervision && self.protocol.coordinated_checkpoints() {
            // Coordinated rollback is global by construction; a per-domain
            // supervisor restarting one component would race the
            // director's whole-workflow rollback.
            return Err("supervision composes with per-component recovery, not with the \
                 coordinated protocol's global rollback"
                .into());
        }
        if let Some(t) = &self.telemetry {
            if t.window.0 == 0 {
                return Err("telemetry scrape window must be nonzero".into());
            }
        }
        Ok(())
    }
}

/// What the presets below share, and the mid-size shape two of them
/// (`dns_les`, `fanout`) run as is: one double per point and one variable on
/// sixteen Morton-ordered servers over a 256³ domain in 128³ blocks, twelve
/// steps, coordinated period 4, a Cori-like interconnect, default server,
/// ULFM, PFS and node-local cost models, checkpoints to the PFS, GC on, no
/// failures and none of the optional subsystems. A preset is its label, seed
/// and components plus the fields it differs in.
fn base(
    label: &str,
    protocol: WorkflowProtocol,
    seed: u64,
    components: Vec<ComponentConfig>,
) -> WorkflowConfig {
    WorkflowConfig {
        label: format!("{label}/{}", protocol.label()),
        components,
        domain: [256, 256, 256],
        block: [128, 128, 128],
        nservers: 16,
        bytes_per_point: 8,
        nvars: 1,
        total_steps: 12,
        protocol,
        coordinated_period: 4,
        net: CostModel::cori_like(),
        server_costs: ServerCosts::default(),
        ulfm: mpi_sim::UlfmCosts::default(),
        pfs: ckpt::PfsModel::default(),
        failures: Vec::new(),
        staging_resilience: StagingResilienceCfg::default(),
        ckpt_target: CkptTarget::Pfs,
        node_local: ckpt::NodeLocalModel::default(),
        proactive: None,
        log_gc: true,
        failover: SimTime::from_millis(500),
        reconnect_per_rank: SimTime::from_millis(5),
        seed,
        durability: None,
        trace: None,
        supervision: false,
        sharding: None,
        telemetry: None,
    }
}

/// A component as the paper-scale presets build it: checkpoint/restart every
/// `period` steps, recovering from its own checkpoint, the whole domain
/// coupled each step, ±3 % compute jitter, and ~40 MiB of solver state per
/// rank — checkpoint volume grows with the job while the PFS does not, the
/// classic C/R scaling pressure the paper leans on.
fn component(
    name: &str,
    app: u32,
    role: Role,
    ranks: usize,
    spares: usize,
    compute_ms: u64,
    period: u32,
) -> ComponentConfig {
    ComponentConfig {
        name: name.into(),
        app,
        role,
        ranks,
        spares,
        compute_per_step: SimTime::from_millis(compute_ms),
        jitter: 0.03,
        state_bytes: (ranks as u64 * 40) << 20,
        scheme: FtScheme::CheckpointRestart { period },
        subset_millis: 1000,
        subset_pattern: SubsetPattern::Fixed,
    }
}

/// The Table II setup: 256 simulation + 64 analytics + 32 staging cores,
/// 512×512×256 domain, 20 GB over 40 time steps, checkpoint periods 4 (sim)
/// and 5 (analytics), coordinated period 4.
pub fn table2(protocol: WorkflowProtocol) -> WorkflowConfig {
    let domain = [512u64, 512, 256];
    let volume: u64 = domain.iter().product();
    // 20 GB over 40 steps → 0.5 GB/step → 8 B per point (one double):
    // 512·512·256 = 67,108,864 points × 8 B = 512 MiB per step.
    let bytes_per_point = 8;
    assert_eq!(volume * bytes_per_point, 536_870_912);
    let components = vec![
        component("simulation", 0, Role::Producer, 256, 4, 12_000, 4),
        component("analytics", 1, Role::Consumer, 64, 2, 2_000, 5),
    ];
    WorkflowConfig {
        domain,
        nservers: 32,
        bytes_per_point,
        total_steps: 40,
        // MTBF = 10 min with one failure inside the 40-step window.
        failures: vec![FailureSpec::Mtbf { mtbf_secs: 600.0, count: 1 }],
        ..base("table2", protocol, 42, components)
    }
}

/// Table III scaling configurations. `scale` indexes the five columns:
/// 0 → 704 cores … 4 → 11,264 cores. `mtbf_secs`/`nfailures` follow the
/// paper's scalability scenarios (600/1, 300/2, 200/3).
pub fn table3(scale: usize, protocol: WorkflowProtocol, nfailures: usize) -> WorkflowConfig {
    assert!(scale < 5, "five scales: 704..11264 cores");
    let sim_ranks = 512usize << scale; // 512,1024,2048,4096,8192
    let ana_ranks = sim_ranks / 4; // 128..2048
    let nservers = sim_ranks / 8; // 64..1024
    let cores = sim_ranks + ana_ranks + nservers;
    // Data scales with cores: 40 GB → 640 GB per 40 steps, i.e. 1..16 GB per
    // step. Domain doubles one axis per scale step from 512×512×512.
    let domain = match scale {
        0 => [512, 512, 512],
        1 => [1024, 512, 512],
        2 => [1024, 1024, 512],
        3 => [1024, 1024, 1024],
        _ => [2048, 1024, 1024],
    };
    let mtbf_secs = match nfailures {
        0 | 1 => 600.0,
        2 => 300.0,
        _ => 200.0,
    };
    let components = vec![
        component("simulation", 0, Role::Producer, sim_ranks, 8, 15_000, 8),
        component("analytics", 1, Role::Consumer, ana_ranks, 4, 2_500, 10),
    ];
    WorkflowConfig {
        domain,
        block: [256, 256, 256],
        nservers,
        total_steps: 40,
        coordinated_period: 8,
        failures: vec![FailureSpec::Mtbf { mtbf_secs, count: nfailures }],
        ..base(
            &format!("table3/{cores}cores/{nfailures}f"),
            protocol,
            42 + scale as u64,
            components,
        )
    }
}

/// A DNS/LES-style pair of coupled solvers (paper §II-A, Figure 5): two
/// simulations at different resolutions exchanging fields through staging
/// every time step, each checkpointing on its own period.
pub fn dns_les(protocol: WorkflowProtocol) -> WorkflowConfig {
    let components = vec![
        component("dns", 0, Role::Peer, 128, 4, 10_000, 4),
        ComponentConfig {
            subset_millis: 300, // boundary/coarse exchange, not the full domain
            ..component("les", 1, Role::Peer, 32, 2, 9_000, 5)
        },
    ];
    WorkflowConfig { nvars: 2, ..base("dns-les", protocol, 77, components) }
}

/// The Figure 1 topology: one simulation fanned out to several coupled
/// consumers (secondary analysis, analytics, visualization), each with its
/// own checkpoint period.
pub fn fanout(protocol: WorkflowProtocol, nconsumers: usize) -> WorkflowConfig {
    assert!(nconsumers >= 1);
    let mut components = vec![component("simulation", 0, Role::Producer, 128, 4, 8_000, 4)];
    for i in 0..nconsumers as u32 {
        let name = format!("consumer-{i}");
        let (compute_ms, period) = (1_000 + 500 * u64::from(i), 4 + i);
        components.push(component(&name, 1 + i, Role::Consumer, 32, 2, compute_ms, period));
    }
    base(&format!("fanout{nconsumers}"), protocol, 99, components)
}

/// A laptop-sized configuration for tests and the quickstart example: small
/// domain, short steps, fast to simulate.
pub fn tiny(protocol: WorkflowProtocol) -> WorkflowConfig {
    let small = |state_bytes, c| ComponentConfig { jitter: 0.02, state_bytes, ..c };
    let components = vec![
        small(8 << 20, component("simulation", 0, Role::Producer, 8, 2, 100, 4)),
        small(4 << 20, component("analytics", 1, Role::Consumer, 4, 1, 60, 5)),
    ];
    WorkflowConfig {
        domain: [64, 64, 64],
        block: [32, 32, 32],
        nservers: 4,
        ulfm: mpi_sim::UlfmCosts {
            detect_ns: 10_000_000, // 10 ms: keep tiny runs snappy
            ..mpi_sim::UlfmCosts::default()
        },
        failover: SimTime::from_millis(50),
        reconnect_per_rank: SimTime::from_micros(200),
        ..base("tiny", protocol, 7, components)
    }
}

/// The model checker's exploration target: the smallest workflow whose
/// schedule tree is still interesting — one producer and one consumer
/// exchanging a single staged block per step through a single staging
/// server, for three coupling steps. Every put, get, ack, and checkpoint
/// marker is a potential choice point, so bounded-depth exhaustive
/// exploration ([`crate::mcheck_mode`]) stays tractable while still
/// covering the full write-then-read consistency protocol.
pub fn micro(protocol: WorkflowProtocol) -> WorkflowConfig {
    // No compute jitter: schedule choices are the only nondeterminism.
    let still = |state_bytes, c| ComponentConfig { jitter: 0.0, state_bytes, ..c };
    let components = vec![
        still(1 << 20, component("producer", 0, Role::Producer, 2, 1, 2, 2)),
        still(1 << 19, component("consumer", 1, Role::Consumer, 1, 1, 1, 2)),
    ];
    WorkflowConfig {
        domain: [32, 32, 32],
        block: [32, 32, 32], // one block per step: minimal message fan-out
        nservers: 1,
        total_steps: 3,
        coordinated_period: 2,
        ulfm: mpi_sim::UlfmCosts {
            detect_ns: 1_000_000, // 1 ms: recoveries stay inside the short run
            ..mpi_sim::UlfmCosts::default()
        },
        failover: SimTime::from_millis(5),
        reconnect_per_rank: SimTime::from_micros(100),
        ..base("micro", protocol, 3, components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_numbers() {
        let c = table2(WorkflowProtocol::Uncoordinated);
        assert_eq!(c.total_cores(), 352);
        assert_eq!(c.components[0].ranks, 256);
        assert_eq!(c.components[1].ranks, 64);
        assert_eq!(c.nservers, 32);
        assert_eq!(c.domain, [512, 512, 256]);
        assert_eq!(c.total_steps, 40);
        // 20 GB over 40 steps.
        assert_eq!(c.bytes_per_step(1000) * 40, 20 * (1 << 30));
        assert_eq!(c.components[0].scheme.period(), Some(4));
        assert_eq!(c.components[1].scheme.period(), Some(5));
        assert_eq!(c.coordinated_period, 4);
    }

    #[test]
    fn table3_core_counts_match_paper() {
        let expect = [704, 1408, 2816, 5632, 11264];
        for (scale, &cores) in expect.iter().enumerate() {
            let c = table3(scale, WorkflowProtocol::Uncoordinated, 1);
            assert_eq!(c.total_cores(), cores, "scale {scale}");
        }
    }

    #[test]
    fn table3_data_scales() {
        // 40 GB at scale 0 doubling to 640 GB at scale 4 (per 40 steps).
        for scale in 0..5 {
            let c = table3(scale, WorkflowProtocol::Coordinated, 1);
            let total = c.bytes_per_step(1000) * c.total_steps as u64;
            assert_eq!(total, (40u64 << scale) * (1 << 30), "scale {scale}");
        }
    }

    #[test]
    fn table3_failure_plan() {
        for (n, mtbf) in [(1usize, 600.0), (2, 300.0), (3, 200.0)] {
            let c = table3(0, WorkflowProtocol::Uncoordinated, n);
            match &c.failures[0] {
                FailureSpec::Mtbf { mtbf_secs, count } => {
                    assert_eq!(*count, n);
                    assert!((mtbf_secs - mtbf).abs() < 1e-9);
                }
                _ => panic!("expected MTBF spec"),
            }
        }
    }

    #[test]
    fn bytes_per_step_subsets() {
        let c = table2(WorkflowProtocol::FailureFree);
        let full = c.bytes_per_step(1000) as f64;
        let fifth = c.bytes_per_step(200) as f64;
        let ratio = fifth * 5.0 / full;
        assert!((ratio - 1.0).abs() < 0.02, "ratio {ratio}");
    }

    fn plan(drop: f64) -> FaultPlan {
        FaultPlan {
            seed: 9,
            rates: faultplane::FaultRates { drop, ..Default::default() },
            windows: vec![faultplane::FaultWindow { from_msg: 0, to_msg: 100 }],
        }
    }

    #[test]
    fn failure_spec_serde_round_trips() {
        let cfg = tiny(WorkflowProtocol::Uncoordinated).with_supervision().with_failures(vec![
            FailureSpec::At { at: SimTime::from_millis(10), app: 0 },
            FailureSpec::Mtbf { mtbf_secs: 300.0, count: 2 },
            FailureSpec::StagingAt { at: SimTime::from_millis(20), server: 1 },
            FailureSpec::NetFaults { plan: plan(0.25) },
            FailureSpec::PoisonPut { victim: 1, step: 3 },
        ]);
        assert!(cfg.validate().is_ok());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: WorkflowConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.failures.len(), cfg.failures.len());
        match (&back.failures[3], &cfg.failures[3]) {
            (FailureSpec::NetFaults { plan: a }, FailureSpec::NetFaults { plan: b }) => {
                assert_eq!(a, b, "fault plan survives the round trip");
            }
            _ => panic!("variant order changed"),
        }
        // Full-config byte equality: serializing the deserialized config
        // reproduces the original document.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn validate_rejects_bad_fault_plans() {
        let base = tiny(WorkflowProtocol::Uncoordinated);
        // Negative rate.
        let bad = base.with_net_faults(plan(-0.1));
        let err = bad.validate().unwrap_err();
        assert!(err.contains("bad fault plan"), "{err}");
        // Rate above one.
        assert!(base.with_net_faults(plan(1.5)).validate().is_err());
        // Empty (inverted) window.
        let mut p = plan(0.1);
        p.windows = vec![faultplane::FaultWindow { from_msg: 50, to_msg: 10 }];
        assert!(base.with_net_faults(p).validate().is_err());
        // A second plan: the runner installs only one.
        let twice = base.with_net_faults(plan(0.1)).with_net_faults(plan(0.2));
        assert!(twice.validate().unwrap_err().contains("second network fault plan"));
    }

    #[test]
    fn validate_rejects_bad_indices_and_zero_spreads() {
        let base = tiny(WorkflowProtocol::Uncoordinated); // 4 servers, apps 0/1
        let bad_app =
            base.with_failures(vec![FailureSpec::At { at: SimTime::from_millis(1), app: 99 }]);
        assert!(bad_app.validate().unwrap_err().contains("unknown victim"));
        let bad_server =
            base.with_failures(vec![FailureSpec::StagingAt { at: SimTime::ZERO, server: 4 }]);
        assert!(bad_server.validate().unwrap_err().contains("out of range"));
        let bad_mtbf = base.with_failures(vec![FailureSpec::Mtbf { mtbf_secs: -1.0, count: 1 }]);
        assert!(bad_mtbf.validate().unwrap_err().contains("positive"));
    }

    #[test]
    fn supervised_failure_specs_round_trip_and_validate() {
        let ms = SimTime::from_millis;
        let cfg = tiny(WorkflowProtocol::Uncoordinated).with_supervision().with_failures(vec![
            // A cascade: app 0, then app 1 one spread later.
            FailureSpec::At { at: ms(10), app: 0 },
            FailureSpec::At { at: ms(60), app: 1 },
            // A correlated failure of both apps and server 1.
            FailureSpec::At { at: ms(20), app: 0 },
            FailureSpec::At { at: ms(20), app: 1 },
            FailureSpec::StagingAt { at: ms(20), server: 1 },
            // A second failure during app 1's recovery.
            FailureSpec::At { at: ms(30), app: 1 },
            FailureSpec::At { at: ms(35), app: 1 },
            FailureSpec::PoisonPut { victim: 1, step: 3 },
        ]);
        assert!(cfg.validate().is_ok());
        let json = serde_json::to_string(&cfg).unwrap();
        let back: WorkflowConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert!(back.supervision);
    }

    #[test]
    fn supervised_spec_validation_rejections() {
        let base = tiny(WorkflowProtocol::Uncoordinated);
        let sup = base.with_supervision();
        // Server targets must exist (tiny has 4 servers).
        assert!(sup
            .with_failures(vec![FailureSpec::StagingAt { at: SimTime::ZERO, server: 4 }])
            .validate()
            .unwrap_err()
            .contains("out of range"));
        // Poison needs supervision.
        assert!(base
            .with_failures(vec![FailureSpec::PoisonPut { victim: 1, step: 1 }])
            .validate()
            .unwrap_err()
            .contains("supervision"));
        // Poison victim must consume data; step must exist.
        assert!(sup
            .with_failures(vec![FailureSpec::PoisonPut { victim: 0, step: 1 }])
            .validate()
            .unwrap_err()
            .contains("never consumes"));
        assert!(sup
            .with_failures(vec![FailureSpec::PoisonPut { victim: 1, step: 999 }])
            .validate()
            .unwrap_err()
            .contains("out of range"));
        // A victim carries one poisoned step.
        assert!(sup
            .with_failures(vec![
                FailureSpec::PoisonPut { victim: 1, step: 3 },
                FailureSpec::PoisonPut { victim: 1, step: 5 },
            ])
            .validate()
            .unwrap_err()
            .contains("second poison put"));
        // Supervision cannot ride the coordinated protocol's global rollback.
        let co = tiny(WorkflowProtocol::Coordinated).with_supervision();
        assert!(co.validate().unwrap_err().contains("coordinated"));
    }

    #[test]
    fn validate_refuses_durability_without_a_log() {
        for protocol in [WorkflowProtocol::Coordinated, WorkflowProtocol::Individual] {
            let cfg = tiny(protocol).with_durability(DurabilityCfg::default());
            assert!(cfg.validate().unwrap_err().contains("keeps none"), "{protocol:?}");
        }
        let un = tiny(WorkflowProtocol::Uncoordinated).with_durability(DurabilityCfg::default());
        assert!(un.validate().is_ok());
    }

    /// The six presets are written as differences from one base; this pins
    /// what they serialise to (FNV-1a of `serde_json::to_string`, every
    /// protocol; all five `table3` scales × 0–3 failures, `fanout` with 1–3
    /// consumers). A change to the base, or to a preset, must move a pin
    /// here deliberately.
    #[test]
    fn presets_are_pinned() {
        let digest = |configs: Vec<WorkflowConfig>| {
            let json: Vec<String> =
                configs.iter().map(|c| serde_json::to_string(c).expect("serialises")).collect();
            staging::payload::fnv1a(json.concat().as_bytes())
        };
        let per_protocol = |preset: &dyn Fn(WorkflowProtocol) -> Vec<WorkflowConfig>| {
            digest(WorkflowProtocol::all().into_iter().flat_map(preset).collect())
        };
        let table3_all = |p| {
            (0..5).flat_map(|scale| (0..4).map(move |nf| table3(scale, p, nf))).collect::<Vec<_>>()
        };
        let pins = [
            ("table2", per_protocol(&|p| vec![table2(p)]), 0xE08F_050A_166C_E575u64),
            ("table3", per_protocol(&table3_all), 0x9EB2_A05C_CAC8_254C),
            ("dns_les", per_protocol(&|p| vec![dns_les(p)]), 0x452B_9AF2_17CB_ED2E),
            (
                "fanout",
                per_protocol(&|p| (1..=3).map(|n| fanout(p, n)).collect()),
                0xF045_8B6C_2FA9_8AE2,
            ),
            ("tiny", per_protocol(&|p| vec![tiny(p)]), 0x0CFB_1F25_923F_5BF7),
            ("micro", per_protocol(&|p| vec![micro(p)]), 0xE68E_2E1D_8D8B_CC7A),
        ];
        for (preset, got, want) in pins {
            assert_eq!(got, want, "{preset}: {got:#018X}");
        }
    }
}
