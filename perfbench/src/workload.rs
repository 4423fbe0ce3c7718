//! The three benchmark workloads and the deployment each one runs on.
//!
//! Every workload shares the same setup: 4 sites with
//! [`dynamast_bench::SITE_WORKERS`] RPC workers each, an instant network and
//! zero simulated service time (every number is real CPU cost), and a
//! closed loop of [`CLIENTS`] client threads.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamast_common::config::{FsyncMode, StrategyWeights};
use dynamast_common::ids::{Key, PartitionId};
use dynamast_common::{Result, Row, SystemConfig};
use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast_site::proc::ProcExecutor;
use dynamast_workloads::{SmallBankConfig, SmallBankWorkload, Workload, YcsbConfig, YcsbWorkload};

/// Data sites per deployment.
pub const SITES: usize = 4;
/// Closed-loop client threads (one per host CPU of the reference host).
pub const CLIENTS: usize = 2;
/// Transactions a scan-workload client spends around one centre before it
/// draws the next: 1, so every scan reads partitions drawn afresh from the
/// whole table and finds them out of cache, rather than re-reading the few
/// dozen centres the YCSB default of 1000 visits in a round.
pub const SCAN_AFFINITY_TXNS: u32 = 1;
/// Replica floor of the partial-replication workload.
pub const PARTIAL_FLOOR: usize = 2;

/// Which workload a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// SmallBank defaults on a 1k-account hot set, full replication.
    SmallbankHotspot,
    /// YCSB uniform, 90% multi-partition scans, full replication.
    YcsbScanUniform,
    /// YCSB uniform, 90% RMW, floor-2 partial replication, disk logs.
    YcsbPartialDurable,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::SmallbankHotspot,
        WorkloadKind::YcsbScanUniform,
        WorkloadKind::YcsbPartialDurable,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SmallbankHotspot => "smallbank_hotspot",
            WorkloadKind::YcsbScanUniform => "ycsb_scan_uniform",
            WorkloadKind::YcsbPartialDurable => "ycsb_partial_durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds per run, each on a fresh deployment. Placement and
    /// remastering are path dependent, so pooling independent deployments
    /// steadies the workloads that remaster; on the scan workload, whose
    /// 500k-row set-up, checks and teardown dominate a round, two rounds
    /// keep a run within its time budget.
    pub fn rounds(self) -> usize {
        match self {
            WorkloadKind::SmallbankHotspot | WorkloadKind::YcsbPartialDurable => 4,
            WorkloadKind::YcsbScanUniform => 2,
        }
    }

    /// `true` for the workloads whose correctness check is YCSB counter
    /// conservation (the others are SmallBank balance conservation).
    pub fn is_ycsb(self) -> bool {
        self != WorkloadKind::SmallbankHotspot
    }
}

/// Workload size: the benchmark sizes, or a tiny variant for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// A few thousand rows: smoke tests only.
    Tiny,
}

/// The generated workload, kept concrete so the checks can read its
/// configuration.
pub enum BenchWorkload {
    /// SmallBank.
    SmallBank(SmallBankWorkload),
    /// YCSB.
    Ycsb(YcsbWorkload),
}

impl BenchWorkload {
    /// Builds the workload for `kind` at `size`.
    pub fn new(kind: WorkloadKind, size: Size) -> Self {
        let tiny = size == Size::Tiny;
        match kind {
            WorkloadKind::SmallbankHotspot => {
                BenchWorkload::SmallBank(SmallBankWorkload::new(SmallBankConfig {
                    num_customers: if tiny { 2_000 } else { 20_000 },
                    hotspot_size: if tiny { 200 } else { 1_000 },
                    ..SmallBankConfig::default()
                }))
            }
            WorkloadKind::YcsbScanUniform => BenchWorkload::Ycsb(YcsbWorkload::new(YcsbConfig {
                num_keys: if tiny { 10_000 } else { 500_000 },
                partition_size: 100,
                rmw_fraction: 0.1,
                zipf: None,
                payload_bytes: 100,
                affinity_txns: SCAN_AFFINITY_TXNS,
                ..YcsbConfig::default()
            })),
            WorkloadKind::YcsbPartialDurable => {
                BenchWorkload::Ycsb(YcsbWorkload::new(YcsbConfig {
                    num_keys: if tiny { 10_000 } else { 200_000 },
                    partition_size: 100,
                    rmw_fraction: 0.9,
                    zipf: None,
                    payload_bytes: 100,
                    ..YcsbConfig::default()
                }))
            }
        }
    }

    /// The workload behind the common interface.
    pub fn as_dyn(&self) -> &dyn Workload {
        match self {
            BenchWorkload::SmallBank(w) => w,
            BenchWorkload::Ycsb(w) => w,
        }
    }

    /// Every partition the workload populates.
    pub fn partitions(&self) -> Vec<PartitionId> {
        match self {
            BenchWorkload::SmallBank(w) => {
                dynamast_workloads::smallbank::all_partitions(w.config())
            }
            BenchWorkload::Ycsb(w) => dynamast_workloads::ycsb::all_partitions(w.config()),
        }
    }
}

/// The system configuration of `kind`, seeded by the run's seed. `log_dir`
/// is the fresh directory of the durable workload's redo logs.
fn system_config(kind: WorkloadKind, seed: u64, log_dir: Option<&Path>) -> SystemConfig {
    let config = SystemConfig::new(SITES)
        .with_instant_network()
        .with_instant_service()
        .with_seed(seed);
    match kind {
        WorkloadKind::SmallbankHotspot => config.with_weights(StrategyWeights::smallbank()),
        WorkloadKind::YcsbScanUniform => config,
        WorkloadKind::YcsbPartialDurable => {
            let dir = log_dir.expect("the durable workload needs a log directory");
            config
                .with_partial_replication(PARTIAL_FLOOR)
                .with_durability(dir.to_path_buf(), FsyncMode::Group)
        }
    }
}

/// A built and populated deployment.
pub(crate) struct Deployment {
    /// The running system.
    pub system: Arc<DynaMastSystem>,
    /// Payload bytes of the rows loaded, counted once per row.
    pub user_bytes: u64,
    /// Sum of every loaded SmallBank balance (0 for YCSB).
    pub loaded_balance: i64,
    /// Wall time of build plus populate.
    pub setup: Duration,
    log_dir: Option<PathBuf>,
}

impl Deployment {
    /// Builds the deployment of `kind` and loads `workload` into it.
    /// `executor` replaces the workload's own (the traced run wraps it);
    /// `log_dir` must not exist yet when the workload is durable.
    pub(crate) fn build(
        kind: WorkloadKind,
        workload: &BenchWorkload,
        seed: u64,
        executor: Arc<dyn ProcExecutor>,
        log_dir: Option<PathBuf>,
    ) -> Result<Self> {
        let started = Instant::now();
        let log_dir = log_dir.filter(|_| kind == WorkloadKind::YcsbPartialDurable);
        let config = system_config(kind, seed, log_dir.as_deref());
        let mut cfg = DynaMastConfig::adaptive(config, workload.as_dyn().catalog());
        cfg.rpc_workers = dynamast_bench::SITE_WORKERS;
        let system = DynaMastSystem::build(cfg, executor);
        let mut user_bytes = 0u64;
        let mut loaded_balance = 0i64;
        let is_smallbank = !kind.is_ycsb();
        workload.as_dyn().populate(&mut |key: Key, row: Row| {
            user_bytes += row.payload_size() as u64;
            if is_smallbank {
                loaded_balance += row.cell(0).as_i64()?;
            }
            system.load_row(key, row)
        })?;
        Ok(Deployment {
            system,
            user_bytes,
            loaded_balance,
            setup: started.elapsed(),
            log_dir,
        })
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.system.shutdown();
        if let Some(dir) = &self.log_dir {
            // Best effort: a leftover directory only costs disk space, and
            // the next run uses a fresh name.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
