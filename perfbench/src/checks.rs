//! Correctness checks run at the end of every round.
//!
//! Once the clients have stopped and every site's svv has reached the
//! global frontier, the visible rows of each partition are read at every
//! site that hosts it:
//!
//! * **Replica convergence** — every hosting site holds the same visible
//!   rows.
//! * **YCSB counter conservation** — each RMW adds 1 to the counter of every
//!   key it writes, so a partition's counter sum equals the key-writes of
//!   committed RMWs in it (warm-up included). A lost update shows here.
//! * **SmallBank balance conservation** — transfers move money, deposits add
//!   it, so every site's total equals the loaded total plus the committed
//!   deposit amounts.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dynamast_common::ids::{unpack_partition_id, PartitionId, RecordId};
use dynamast_common::{Row, VersionVector};
use dynamast_site::data_site::DataSite;

/// Read access to the replicas of a deployment.
pub trait ReplicaView {
    /// Number of sites.
    fn num_sites(&self) -> usize;

    /// The visible rows of `partition` at `site`, or `None` if the site
    /// does not host the partition.
    fn partition_rows(&self, site: usize, partition: PartitionId) -> Option<Vec<(RecordId, Row)>>;
}

/// What the committed transactions say the database must hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Counter sum per partition (YCSB).
    Counters(HashMap<PartitionId, u64>),
    /// Total balance at every site (SmallBank).
    TotalBalance(i64),
}

/// Failure messages kept per run (the count of the rest is reported).
const MAX_REPORTED: usize = 8;

/// Runs the convergence check and the conservation check of `expect` over
/// `partitions`. Returns one message per failure (empty when correct).
pub fn verify(
    view: &dyn ReplicaView,
    partitions: &[PartitionId],
    expect: &Expectation,
) -> Vec<String> {
    let sites = view.num_sites();
    let mut failures = Vec::new();
    let mut site_totals = vec![0i64; sites];
    let mut hosts_all = vec![true; sites];
    for &partition in partitions {
        let mut reference: Option<(usize, u64)> = None;
        for site in 0..sites {
            let Some(rows) = view.partition_rows(site, partition) else {
                hosts_all[site] = false;
                continue;
            };
            let mut hasher = DefaultHasher::new();
            rows.hash(&mut hasher);
            let digest = hasher.finish();
            match reference {
                None => reference = Some((site, digest)),
                Some((first, d)) if d != digest => failures.push(format!(
                    "convergence: {} differs between site {first} and site {site}",
                    describe(partition)
                )),
                Some(_) => {}
            }
            match expect {
                Expectation::Counters(expected) => {
                    let sum: u64 = rows
                        .iter()
                        .map(|(_, row)| row.cell(0).as_u64().unwrap_or(u64::MAX))
                        .fold(0u64, u64::wrapping_add);
                    let want = expected.get(&partition).copied().unwrap_or(0);
                    if sum != want {
                        failures.push(format!(
                            "counter conservation: {} at site {site} sums to {sum}, \
                             committed RMWs wrote {want} keys",
                            describe(partition)
                        ));
                    }
                }
                Expectation::TotalBalance(_) => {
                    for (_, row) in &rows {
                        site_totals[site] += row.cell(0).as_i64().unwrap_or(0);
                    }
                }
            }
        }
        if reference.is_none() {
            failures.push(format!("{} has no hosting site", describe(partition)));
        }
    }
    if let Expectation::TotalBalance(want) = expect {
        for site in 0..sites {
            if hosts_all[site] && site_totals[site] != *want {
                failures.push(format!(
                    "balance conservation: site {site} holds {}, loaded plus committed \
                     deposits is {want}",
                    site_totals[site]
                ));
            }
        }
        if !hosts_all.iter().any(|h| *h) {
            failures.push("balance conservation: no site hosts every partition".into());
        }
    }
    if failures.len() > MAX_REPORTED {
        let more = failures.len() - MAX_REPORTED;
        failures.truncate(MAX_REPORTED);
        failures.push(format!("... and {more} more"));
    }
    failures
}

fn describe(partition: PartitionId) -> String {
    let (table, index) = unpack_partition_id(partition);
    format!("partition (table {}, index {index})", table.raw())
}

/// The global frontier: the element-wise max of every site's svv.
pub(crate) fn frontier(sites: &[Arc<DataSite>]) -> VersionVector {
    let m = sites.len();
    sites
        .iter()
        .map(|s| s.clock().current())
        .fold(VersionVector::zero(m), |acc, vv| acc.max_with(&vv))
}

/// Waits until every site's svv dominates the global frontier. Returns the
/// frontier, or an error naming the lagging site after `timeout`.
pub(crate) fn await_frontier(
    sites: &[Arc<DataSite>],
    timeout: Duration,
) -> std::result::Result<VersionVector, String> {
    let target = frontier(sites);
    let deadline = Instant::now() + timeout;
    for (i, site) in sites.iter().enumerate() {
        while !site.clock().current().dominates(&target) {
            if Instant::now() >= deadline {
                return Err(format!(
                    "replication: site {i} did not reach the frontier within {timeout:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    Ok(target)
}

/// The replicas of a live deployment, read at a fixed frontier.
pub(crate) struct FrontierView {
    sites: Vec<Arc<DataSite>>,
    frontier: VersionVector,
}

impl FrontierView {
    /// Reads `sites` at `frontier`.
    pub(crate) fn new(sites: Vec<Arc<DataSite>>, frontier: VersionVector) -> Self {
        FrontierView { sites, frontier }
    }
}

impl ReplicaView for FrontierView {
    fn num_sites(&self) -> usize {
        self.sites.len()
    }

    fn partition_rows(&self, site: usize, partition: PartitionId) -> Option<Vec<(RecordId, Row)>> {
        let site = &self.sites[site];
        if !site.hosts(partition) {
            return None;
        }
        let store = site.store();
        let (table, start, end) = store.partition_range(partition).ok()?;
        store.scan(table, start, end, &self.frontier).ok()
    }
}
