//! One benchmark run: set up, drive the closed loop, measure, check.
//!
//! A run is [`RunOptions::rounds`] rounds. Each round sets up a fresh
//! deployment (timed: `setup_s` is the median), warms it up and measures
//! one untraced window; the end-to-end metrics pool the rounds' windows. In
//! a traced run the last round adds a traced window of the same length on
//! the same deployment: it gives the per-layer metrics, and the round's
//! untraced window is the base of the tracing overhead. After its windows
//! each round stops its clients, drains replication to the global frontier
//! and runs the correctness checks.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Buf;
use dynamast_common::ids::{ClientId, PartitionId};
use dynamast_common::trace::{TraceKind, TracePayload};
use dynamast_common::{DynaError, Result};
use dynamast_core::dynamast::DynaMastSystem;
use dynamast_network::stats::TrafficSnapshot;
use dynamast_network::TrafficCategory;
use dynamast_site::proc::{ProcCall, ProcExecutor};
use dynamast_site::system::{Breakdown, ClientSession, ReplicatedSystem, SystemStats, TxnOutcome};
use dynamast_storage::Catalog;
use dynamast_workloads::smallbank::PROC_DEPOSIT;
use dynamast_workloads::ycsb::PROC_RMW;
use dynamast_workloads::{GeneratedTxn, TxnKind};

use crate::checks::{self, Expectation, FrontierView};
use crate::probe::{Probe, PERIOD, REFERENCE_UNIT_NS};
use crate::spans::{self, Span, SpanKind, TracedExecutor, Tracer};
use crate::workload::{BenchWorkload, Deployment, Size, WorkloadKind, CLIENTS, SITES};

/// How a run is made.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload to drive.
    pub workload: WorkloadKind,
    /// Seed of the workload generators and the system.
    pub seed: u64,
    /// Total measured time, split evenly over the rounds.
    pub window: Duration,
    /// Warm-up of each round before its window.
    pub warmup: Duration,
    /// Add the traced window and report per-layer metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Rounds, each on a fresh deployment.
    pub rounds: usize,
    /// Directory for the durable workload's logs and the span file.
    pub work_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Sample count and notes for the human-readable table.
    pub note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        note: note.into(),
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Every correctness check passed.
    pub correct: bool,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Transactions attempted in the untraced windows.
    pub attempted: u64,
    /// Transactions in the untraced windows that returned an error on
    /// every submission.
    pub failed: u64,
    /// End-to-end metrics (untraced windows).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced window; empty for an untraced run).
    pub per_layer: Vec<Metric>,
    /// Where the traced window's spans were written.
    pub span_file: Option<PathBuf>,
}

/// Executes one generated transaction through the client API.
fn execute(
    system: &dyn ReplicatedSystem,
    session: &mut ClientSession,
    txn: &GeneratedTxn,
) -> Result<TxnOutcome> {
    match txn.kind {
        TxnKind::Update => system.update(session, &txn.call),
        TxnKind::ReadOnly => system.read(session, &txn.call),
    }
}

/// Submissions of one transaction before the client counts it failed. As
/// OLTPBench's workers retry a transaction that hit a retryable error, a
/// client resubmits a transaction that returned an error; each error is
/// printed on stderr and the table counts the resubmissions. A transaction
/// counts once, with the latency from its first submission to its commit.
/// A failed submission that did commit anyway would be applied twice, which
/// the conservation checks catch.
pub const SUBMISSIONS: u64 = 4;
/// Pause before a resubmission.
const RESUBMIT_BACKOFF: Duration = Duration::from_millis(1);

/// Executes `txn`, resubmitting it after an error until it commits or has
/// had [`SUBMISSIONS`] submissions. Returns the last outcome and the number
/// of submissions; each error's message is added to `errors` while that
/// holds fewer than 4.
pub fn submit(
    system: &dyn ReplicatedSystem,
    session: &mut ClientSession,
    txn: &GeneratedTxn,
    errors: &mut Vec<String>,
) -> (Result<TxnOutcome>, u64) {
    let mut submissions = 1;
    loop {
        let outcome = execute(system, session, txn);
        let Err(e) = &outcome else {
            return (outcome, submissions);
        };
        if errors.len() < 4 {
            errors.push(format!(
                "{} (submission {submissions} of {SUBMISSIONS}): {e}",
                txn.label
            ));
        }
        if submissions == SUBMISSIONS {
            return (outcome, submissions);
        }
        thread::sleep(RESUBMIT_BACKOFF);
        submissions += 1;
    }
}

/// What committed transactions changed: the input of the conservation
/// checks. Covers every committed transaction, warm-up included.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Key-writes of committed YCSB RMWs per partition.
    pub key_writes: HashMap<PartitionId, u64>,
    /// Sum of committed SmallBank deposit amounts.
    pub deposits: i64,
}

impl Ledger {
    /// Records a committed transaction.
    pub fn record(&mut self, catalog: &Catalog, txn: &GeneratedTxn) {
        match (txn.kind, txn.call.proc_id, txn.label) {
            (TxnKind::Update, PROC_RMW, "rmw") => {
                for key in &txn.call.write_set {
                    if let Ok(p) = catalog.partition_of(*key) {
                        *self.key_writes.entry(p).or_default() += 1;
                    }
                }
            }
            (TxnKind::Update, PROC_DEPOSIT, "single-row-update") => {
                let mut args = txn.call.args.clone();
                if args.remaining() >= 8 {
                    self.deposits += args.get_i64();
                }
            }
            _ => {}
        }
    }

    /// Folds another client's ledger in.
    fn merge(&mut self, other: Ledger) {
        for (p, n) in other.key_writes {
            *self.key_writes.entry(p).or_default() += n;
        }
        self.deposits += other.deposits;
    }

    /// The state the database must be in.
    pub fn expectation(&self, kind: WorkloadKind, loaded_balance: i64) -> Expectation {
        if kind.is_ycsb() {
            Expectation::Counters(self.key_writes.clone())
        } else {
            Expectation::TotalBalance(loaded_balance + self.deposits)
        }
    }
}

const WARMUP: u8 = 0;
const UNTRACED: u8 = 1;
const TRACED: u8 = 2;
const STOPPED: u8 = 3;

/// Breakdown parts summed over committed transactions of one class, in ns.
#[derive(Clone, Copy, Debug, Default)]
struct PartSums {
    n: u64,
    client: u64,
    lookup: u64,
    routing: u64,
    begin: u64,
    execution: u64,
    commit: u64,
}

impl PartSums {
    fn add(&mut self, client: Duration, b: &Breakdown) {
        self.n += 1;
        self.client += client.as_nanos() as u64;
        self.lookup += b.lookup.as_nanos() as u64;
        self.routing += b.routing.as_nanos() as u64;
        self.begin += b.begin.as_nanos() as u64;
        self.execution += b.execution.as_nanos() as u64;
        self.commit += b.commit.as_nanos() as u64;
    }

    fn merge(&mut self, o: &PartSums) {
        self.n += o.n;
        self.client += o.client;
        self.lookup += o.lookup;
        self.routing += o.routing;
        self.begin += o.begin;
        self.execution += o.execution;
        self.commit += o.commit;
    }

    fn attributed(&self) -> u64 {
        self.lookup + self.routing + self.begin + self.execution + self.commit
    }
}

/// What the clients saw in one window.
#[derive(Clone, Debug, Default)]
struct Window {
    attempted: u64,
    failed: u64,
    /// Submissions after a transaction's first (see [`SUBMISSIONS`]).
    resubmitted: u64,
    update_ns: Vec<u64>,
    read_ns: Vec<u64>,
    /// Completion time of each `update_ns` sample.
    update_done: Vec<Instant>,
    /// Completion time of each `read_ns` sample.
    read_done: Vec<Instant>,
    key_writes: u64,
    updates: PartSums,
    reads: PartSums,
}

impl Window {
    fn committed(&self) -> u64 {
        (self.update_ns.len() + self.read_ns.len()) as u64
    }

    /// Completion time of every committed transaction.
    fn done(&self) -> Vec<Instant> {
        [&self.update_done[..], &self.read_done[..]].concat()
    }

    /// The latency samples of updates (`false`: reads) whose transaction
    /// ran entirely inside quiet slices of `host`.
    fn quiet_ns(&self, updates: bool, host: &StealProfile) -> Vec<u64> {
        let (ns, done) = if updates {
            (&self.update_ns, &self.update_done)
        } else {
            (&self.read_ns, &self.read_done)
        };
        ns.iter()
            .zip(done)
            .filter(|(ns, done)| {
                host.quiet_at(**done) && host.quiet_at(**done - Duration::from_nanos(**ns))
            })
            .map(|(ns, _)| *ns)
            .collect()
    }

    fn record_commit(
        &mut self,
        txn: &GeneratedTxn,
        done: Instant,
        elapsed: Duration,
        b: &Breakdown,
    ) {
        self.attempted += 1;
        let ns = elapsed.as_nanos() as u64;
        match txn.kind {
            TxnKind::Update => {
                self.update_ns.push(ns);
                self.update_done.push(done);
                self.key_writes += txn.call.write_set.len() as u64;
                self.updates.add(elapsed, b);
            }
            TxnKind::ReadOnly => {
                self.read_ns.push(ns);
                self.read_done.push(done);
                self.reads.add(elapsed, b);
            }
        }
    }

    fn merge(&mut self, o: Window) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.resubmitted += o.resubmitted;
        self.update_ns.extend(o.update_ns);
        self.read_ns.extend(o.read_ns);
        self.update_done.extend(o.update_done);
        self.read_done.extend(o.read_done);
        self.key_writes += o.key_writes;
        self.updates.merge(&o.updates);
        self.reads.merge(&o.reads);
    }
}

#[derive(Default)]
struct ClientOut {
    windows: [Window; 2],
    ledger: Ledger,
    spans: Vec<Span>,
    /// Partitions named by transactions committed in the traced window.
    touched: HashSet<PartitionId>,
    errors: Vec<String>,
}

/// Adds every partition `call` names (write set, read keys, scan ranges)
/// to `into`.
fn touch(catalog: &Catalog, call: &ProcCall, into: &mut HashSet<PartitionId>) {
    for key in call.write_set.iter().chain(&call.read_keys) {
        if let Ok(p) = catalog.partition_of(*key) {
            into.insert(p);
        }
    }
    for range in &call.read_ranges {
        let Ok(table) = catalog.table(range.table) else {
            continue;
        };
        let size = table.partition_size.max(1);
        let mut record = range.start;
        while record < range.end {
            into.insert(table.partition_of(record));
            record = (record / size + 1) * size;
        }
    }
}

/// Counters read at a window boundary.
#[derive(Debug)]
struct Snap {
    at: Instant,
    traffic: TrafficSnapshot,
    stats: SystemStats,
    remaster_rpcs: u64,
    replica_adds: u64,
    replica_drops: u64,
    refresh_skipped: u64,
    log_bytes: u64,
    host: HostClock,
}

impl Snap {
    fn take(system: &DynaMastSystem) -> Snap {
        let selector = system.selector();
        Snap {
            at: Instant::now(),
            traffic: system.network().stats().snapshot(),
            stats: system.stats(),
            remaster_rpcs: selector.remaster_rpcs.get(),
            replica_adds: selector.replica_adds.get(),
            replica_drops: selector.replica_drops.get(),
            refresh_skipped: system.metrics().counter("refresh_records_skipped").get(),
            log_bytes: system.logs().logs().iter().map(|l| l.byte_size()).sum(),
            host: HostClock::read(),
        }
    }
}

/// CPU time of this process and of the host's CPUs, in clock ticks
/// (`USER_HZ`, 100 per second on Linux). The kernel leaves time stolen by
/// the hypervisor out of a process's CPU time, so work per process CPU
/// second does not move when other guests take the host's cores.
#[derive(Clone, Copy, Debug, Default)]
struct HostClock {
    /// User plus system time of every thread of this process, the exited
    /// ones included (`/proc/self/stat`).
    process: u64,
    /// Time the host CPUs spent in any state (`/proc/stat`).
    host_total: u64,
    /// Of which stolen by the hypervisor.
    host_steal: u64,
}

/// Clock ticks per second of `/proc` CPU times.
const USER_HZ: f64 = 100.0;

impl HostClock {
    /// Reads both files; a field that cannot be read counts as 0, which
    /// the metrics then report as 0.
    fn read() -> HostClock {
        let process = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                // Fields after the parenthesised command name start at
                // field 3; utime and stime are fields 14 and 15.
                let rest = &stat[stat.rfind(')')? + 1..];
                let f: Vec<u64> = rest
                    .split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                (f.len() == 2).then(|| f[0] + f[1])
            })
            .unwrap_or(0);
        let (host_total, host_steal) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let f: Vec<u64> = stat
                    .lines()
                    .next()?
                    .split_whitespace()
                    .skip(1)
                    .take(8)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                (f.len() == 8).then(|| (f.iter().sum(), f[7]))
            })
            .unwrap_or((0, 0));
        HostClock {
            process,
            host_total,
            host_steal,
        }
    }

    /// Process CPU seconds since `earlier`.
    fn cpu_s_since(&self, earlier: &HostClock) -> f64 {
        self.process.saturating_sub(earlier.process) as f64 / USER_HZ
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    fn steal_since(&self, earlier: &HostClock) -> f64 {
        ratio(
            self.host_steal.saturating_sub(earlier.host_steal) as f64,
            self.host_total.saturating_sub(earlier.host_total) as f64,
        )
    }
}

/// Flight-recorder events of the traced window, folded as they drain.
#[derive(Default)]
struct RecorderFold {
    events: u64,
    routes: u64,
    release_sent: HashMap<(u64, u64), u64>,
    grant_sent: HashMap<(u64, u64), u64>,
    release_rtt: Vec<u64>,
    grant_rtt: Vec<u64>,
    vv_wait: Vec<u64>,
    refresh_lag: Vec<u64>,
    refresh_records: u64,
    svv_lag: Vec<u64>,
    unsynced: Vec<u64>,
}

impl RecorderFold {
    fn drain(&mut self, system: &DynaMastSystem) {
        let (events, wrapped) = system.recorder().drain_accounted();
        self.events += events.len() as u64 + wrapped;
        for ev in events {
            match (ev.kind, &ev.payload) {
                (TraceKind::Route, _) => self.routes += 1,
                (
                    TraceKind::ReleaseSend,
                    TracePayload::Remaster {
                        partition, epoch, ..
                    },
                ) => {
                    self.release_sent.insert((*partition, *epoch), ev.micros);
                }
                (
                    TraceKind::ReleaseAck,
                    TracePayload::Remaster {
                        partition, epoch, ..
                    },
                ) => {
                    if let Some(sent) = self.release_sent.remove(&(*partition, *epoch)) {
                        self.release_rtt.push(ev.micros.saturating_sub(sent));
                    }
                }
                (
                    TraceKind::GrantSend,
                    TracePayload::Remaster {
                        partition, epoch, ..
                    },
                ) => {
                    self.grant_sent.insert((*partition, *epoch), ev.micros);
                }
                (
                    TraceKind::GrantAck,
                    TracePayload::Remaster {
                        partition, epoch, ..
                    },
                ) => {
                    if let Some(sent) = self.grant_sent.remove(&(*partition, *epoch)) {
                        self.grant_rtt.push(ev.micros.saturating_sub(sent));
                    }
                }
                (TraceKind::TxnBegin, TracePayload::Span { vv_wait_us, .. }) => {
                    self.vv_wait.push(*vv_wait_us);
                }
                (
                    TraceKind::RefreshApply,
                    TracePayload::Refresh {
                        records, lag_us, ..
                    },
                ) => {
                    self.refresh_lag.push(*lag_us);
                    self.refresh_records += u64::from(*records);
                }
                _ => {}
            }
        }
    }

    /// Samples replication state: how far the most stale site's svv trails
    /// the frontier (records) and how many published records are not yet
    /// durable.
    fn sample(&mut self, system: &DynaMastSystem, durable: bool) {
        let sites = system.sites();
        let frontier = checks::frontier(&sites);
        let lag = sites
            .iter()
            .map(|s| {
                let svv = s.clock().current();
                frontier
                    .as_slice()
                    .iter()
                    .zip(svv.as_slice())
                    .map(|(f, s)| f.saturating_sub(*s))
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        self.svv_lag.push(lag);
        // Reserved but not yet durable (disk log) or not yet published
        // (in-memory log, which never syncs): the commit pipeline's backlog.
        let unsynced = system
            .logs()
            .logs()
            .iter()
            .map(|l| {
                let done = if durable { l.synced_len() } else { l.len() };
                l.reserved_len().saturating_sub(done)
            })
            .sum();
        self.unsynced.push(unsynced);
    }
}

/// Length of the slices host steal is read over.
const STEAL_SLICE: Duration = Duration::from_millis(100);

/// Hypervisor steal over consecutive slices of a window. A thread the
/// hypervisor deschedules keeps its locks and its place in every exchange
/// while it is away, so on a shared host a few stolen milliseconds inflate
/// the latency of every transaction in flight. Latency percentiles count
/// only transactions that ran inside quiet slices: every steal-free slice,
/// or, when fewer than a quarter of the slices are steal free, the quarter
/// with the least steal.
struct StealProfile {
    /// `(from, to, steal ticks)` of each slice, in time order.
    slices: Vec<(Instant, Instant, u64)>,
    /// Most steal a quiet slice may have.
    cut: u64,
}

impl StealProfile {
    /// Sleeps through `window`, reading the host's steal counter every
    /// [`STEAL_SLICE`].
    fn sample(window: Duration) -> StealProfile {
        let start = Instant::now();
        let mut prev = (start, HostClock::read());
        let mut slices = Vec::new();
        while prev.0 - start < window {
            thread::sleep(STEAL_SLICE.min(window - (prev.0 - start)));
            let now = (Instant::now(), HostClock::read());
            let stolen = now.1.host_steal.saturating_sub(prev.1.host_steal);
            slices.push((prev.0, now.0, stolen));
            prev = now;
        }
        let mut steal: Vec<u64> = slices.iter().map(|s| s.2).collect();
        steal.sort_unstable();
        let cut = steal.get(steal.len() / 4).copied().unwrap_or(0);
        StealProfile { slices, cut }
    }

    /// `t` falls in a quiet slice.
    fn quiet_at(&self, t: Instant) -> bool {
        let i = self.slices.partition_point(|s| s.1 <= t);
        self.slices
            .get(i)
            .is_some_and(|s| s.0 <= t && s.2 <= self.cut)
    }

    /// Share of the window's slices that are quiet.
    fn quiet_share(&self) -> f64 {
        let quiet = self.slices.iter().filter(|s| s.2 <= self.cut).count();
        ratio(quiet as f64, self.slices.len() as f64)
    }
}

/// Seed of round `round`: rounds draw different inputs, the same `seed`
/// always gives the same rounds.
fn round_seed(seed: u64, round: usize) -> u64 {
    // splitmix64 finalizer over the (seed, round) pair.
    let mut z = seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one round measured.
struct Round {
    setup_s: f64,
    untraced: Window,
    slices: Vec<f64>,
    /// Committed transactions per process CPU second of the window.
    cpu_tps: f64,
    /// Share of host CPU time stolen during the window.
    steal: f64,
    /// Latency samples of the window's updates that ran in quiet slices.
    update_quiet: Vec<u64>,
    /// The same for reads.
    read_quiet: Vec<u64>,
    /// Share of the window's slices that were quiet.
    quiet_share: f64,
    resident_ratio: f64,
    /// Median probe unit time of the untraced window ÷ the reference one
    /// (1.0 if no unit ran): above 1 the host ran slower than the
    /// reference.
    slowdown: f64,
    traced: Option<TracedWindow>,
    failures: Vec<String>,
}

/// The traced window of the last round of a traced run.
struct TracedWindow {
    window: Window,
    s0: Snap,
    s1: Snap,
    fold: RecorderFold,
    spans: Vec<Span>,
    untraced_tps: f64,
    /// Distinct partitions the window's committed transactions named, ÷
    /// partitions loaded.
    touched_ratio: f64,
}

/// Makes one run: [`RunOptions::rounds`] rounds, each on a fresh deployment
/// with its own seed, warm-up and window of `window / rounds`. Independent
/// deployments matter: placement and remastering are path dependent, so one
/// deployment's numbers drift with its early decisions. The end-to-end
/// metrics pool the rounds' untraced windows; in a traced run the last
/// round adds a traced window of the same length.
pub fn run(opts: &RunOptions) -> Result<RunReport> {
    let workload = BenchWorkload::new(opts.workload, opts.size);
    let tracer = opts.trace.then(Tracer::new);
    let executor: Arc<dyn ProcExecutor> = match &tracer {
        Some(t) => Arc::new(TracedExecutor::new(
            workload.as_dyn().executor(),
            Arc::clone(t),
        )),
        None => workload.as_dyn().executor(),
    };
    std::fs::create_dir_all(&opts.work_dir).map_err(|_| DynaError::Internal("work dir"))?;
    let rounds = opts.rounds.max(1);
    let probe = Probe::new();
    let mut done = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let traced = tracer.as_deref().filter(|_| r + 1 == rounds);
        done.push(run_round(
            opts, &workload, &executor, &probe, traced, r, rounds,
        )?);
    }

    let failures: Vec<String> = done
        .iter()
        .enumerate()
        .flat_map(|(r, round)| {
            round
                .failures
                .iter()
                .map(move |f| format!("round {r}: {f}"))
        })
        .collect();
    let end_to_end = end_to_end_metrics(&done);

    let mut per_layer = Vec::new();
    let mut span_file = None;
    if let (Some(t), Some(mut tw)) = (&tracer, done.last_mut().and_then(|r| r.traced.take())) {
        t.extend(std::mem::take(&mut tw.spans));
        let all = t.spans();
        let path = opts
            .work_dir
            .join(format!("spans-{}.tsv", opts.workload.name()));
        if spans::write_spans(&path, &all).is_ok() {
            span_file = Some(path);
        }
        per_layer = per_layer_metrics(&tw, &all);
    }
    Ok(RunReport {
        correct: failures.is_empty(),
        failures,
        attempted: done.iter().map(|r| r.untraced.attempted).sum(),
        failed: done.iter().map(|r| r.untraced.failed).sum(),
        end_to_end,
        per_layer,
        span_file,
    })
}

/// One round: set up, warm up, measure, stop the clients, check.
fn run_round(
    opts: &RunOptions,
    workload: &BenchWorkload,
    executor: &Arc<dyn ProcExecutor>,
    probe: &Probe,
    tracer: Option<&Tracer>,
    round: usize,
    rounds: usize,
) -> Result<Round> {
    let seed = round_seed(opts.seed, round);
    let log_dir = opts.work_dir.join(format!(
        "logs-{}-{}-{round}",
        std::process::id(),
        opts.workload.name()
    ));
    let deployment = Deployment::build(
        opts.workload,
        workload,
        seed,
        Arc::clone(executor),
        Some(log_dir),
    )?;
    let system = Arc::clone(&deployment.system);
    let catalog = workload.as_dyn().catalog();
    let durable = opts.workload == WorkloadKind::YcsbPartialDurable;
    let window = opts.window / rounds as u32;

    let phase = AtomicU8::new(WARMUP);
    let mut fold = RecorderFold::default();
    let (outs, probe_units, s0, s1, host, s_traced) = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let system = Arc::clone(&system);
                let mut generator = workload.as_dyn().client(ClientId::new(c), seed);
                let (phase, catalog) = (&phase, &catalog);
                scope.spawn(move || {
                    let mut session = ClientSession::new(ClientId::new(c), SITES);
                    let mut out = ClientOut::default();
                    let mut seq = 0u64;
                    while phase.load(Ordering::Relaxed) != STOPPED {
                        let txn = generator.next_txn();
                        seq += 1;
                        let txn_id = ((c as u64 + 1) << 40) | seq;
                        let traced = tracer.filter(|t| t.active());
                        let ids = traced.map(|t| {
                            let (client, exec) = (t.next_id(), t.next_id());
                            (client, exec, t.begin_call(&txn.call, txn_id, exec))
                        });
                        let start_ns = traced.map_or(0, |t| t.now_ns());
                        let started = Instant::now();
                        let (outcome, submissions) =
                            submit(system.as_ref(), &mut session, &txn, &mut out.errors);
                        let done = Instant::now();
                        let elapsed = done - started;
                        if let (Some(t), Some((client, exec, key))) = (traced, ids) {
                            t.end_call(key, exec);
                            record_spans(
                                &mut out.spans,
                                t,
                                txn_id,
                                (client, exec),
                                &txn,
                                start_ns,
                                elapsed,
                                outcome.as_ref().ok(),
                            );
                        }
                        let mut window = match phase.load(Ordering::Relaxed) {
                            UNTRACED => Some(&mut out.windows[0]),
                            TRACED => Some(&mut out.windows[1]),
                            _ => None,
                        };
                        if let Some(w) = &mut window {
                            w.resubmitted += submissions - 1;
                        }
                        match &outcome {
                            Ok(o) => {
                                out.ledger.record(catalog, &txn);
                                if traced.is_some() {
                                    touch(catalog, &txn.call, &mut out.touched);
                                }
                                if let Some(w) = window {
                                    w.record_commit(&txn, done, elapsed, &o.breakdown);
                                }
                            }
                            Err(_) => {
                                if let Some(w) = window {
                                    w.attempted += 1;
                                    w.failed += 1;
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();

        thread::sleep(opts.warmup);
        let s0 = Snap::take(&system);
        phase.store(UNTRACED, Ordering::SeqCst);
        // The host-speed probe runs through both windows, so the traced
        // window's overhead is measured against a window that carried it
        // too; only the untraced window's units scale the metrics.
        let phase = &phase;
        let prober = scope.spawn(move || {
            let mut untraced_units = Vec::new();
            loop {
                match phase.load(Ordering::Relaxed) {
                    STOPPED => break,
                    UNTRACED => untraced_units.push(probe.unit_ns()),
                    _ => {
                        probe.unit_ns();
                    }
                }
                thread::sleep(PERIOD);
            }
            untraced_units
        });
        let host = StealProfile::sample(window);
        let s1 = Snap::take(&system);
        let s_traced = tracer.map(|t| {
            system.recorder().drain();
            phase.store(TRACED, Ordering::SeqCst);
            t.set_active(true);
            let start = Instant::now();
            while start.elapsed() < window {
                thread::sleep(Duration::from_millis(10).min(window));
                fold.drain(&system);
                fold.sample(&system, durable);
            }
            t.set_active(false);
            Snap::take(&system)
        });
        phase.store(STOPPED, Ordering::SeqCst);
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let probe_units = prober.join().expect("probe thread panicked");
        (outs, probe_units, s0, s1, host, s_traced)
    });
    // Recorder events of transactions that completed in the window.
    if tracer.is_some() {
        fold.drain(&system);
    }

    let [mut untraced, mut traced_window] = [Window::default(), Window::default()];
    let mut ledger = Ledger::default();
    let mut client_spans = Vec::new();
    let mut touched = HashSet::new();
    for out in outs {
        let [w0, w1] = out.windows;
        untraced.merge(w0);
        traced_window.merge(w1);
        ledger.merge(out.ledger);
        client_spans.extend(out.spans);
        touched.extend(out.touched);
        for e in out.errors {
            eprintln!("perfbench: transaction error: {e}");
        }
    }

    // Correctness: drain replication to the frontier, then check.
    let mut failures = Vec::new();
    let sites = system.sites();
    match checks::await_frontier(&sites, Duration::from_secs(30)) {
        Ok(frontier) => {
            let view = FrontierView::new(sites, frontier);
            failures.extend(checks::verify(
                &view,
                &workload.partitions(),
                &ledger.expectation(opts.workload, deployment.loaded_balance),
            ));
        }
        Err(e) => failures.push(e),
    }

    let slices = slice_rates(&untraced.done(), &s0, &s1);
    let resident_ratio = ratio(s1.stats.resident_bytes as f64, deployment.user_bytes as f64);
    // The probe's own CPU time is not the deployment's.
    let probe_cpu_s = probe_units.iter().sum::<u64>() as f64 / 1e9;
    let cpu_tps = ratio(
        untraced.committed() as f64,
        s1.host.cpu_s_since(&s0.host) - probe_cpu_s,
    );
    let units: Vec<f64> = probe_units.iter().map(|&ns| ns as f64).collect();
    let slowdown = if units.is_empty() {
        1.0
    } else {
        median(&units) / REFERENCE_UNIT_NS
    };
    let steal = s1.host.steal_since(&s0.host);
    let (update_quiet, read_quiet) = (
        untraced.quiet_ns(true, &host),
        untraced.quiet_ns(false, &host),
    );
    let traced = s_traced.map(|s_end| {
        let json_path = opts
            .work_dir
            .join(format!("metrics-{}.json", opts.workload.name()));
        let _ = std::fs::write(json_path, system.metrics().snapshot_json());
        TracedWindow {
            window: traced_window,
            s0: s1,
            s1: s_end,
            fold,
            spans: client_spans,
            untraced_tps: median(&slices),
            touched_ratio: ratio(touched.len() as f64, workload.partitions().len() as f64),
        }
    });
    drop(system);
    Ok(Round {
        setup_s: deployment.setup.as_secs_f64(),
        untraced,
        slices,
        cpu_tps,
        steal,
        update_quiet,
        read_quiet,
        quiet_share: host.quiet_share(),
        resident_ratio,
        slowdown,
        traced,
        failures,
    })
}

/// Records a finished client call and its `Breakdown` parts. The parts'
/// durations are the program's; their placement inside the client span is
/// sequential in protocol order (lookup, routing, begin, execution, commit),
/// since the program reports durations only.
#[allow(clippy::too_many_arguments)]
fn record_spans(
    out: &mut Vec<Span>,
    tracer: &Tracer,
    txn_id: u64,
    (client, exec): (u64, u64),
    txn: &GeneratedTxn,
    start_ns: u64,
    elapsed: Duration,
    outcome: Option<&TxnOutcome>,
) {
    let kind = match txn.kind {
        TxnKind::Update => SpanKind::ClientUpdate,
        TxnKind::ReadOnly => SpanKind::ClientRead,
    };
    out.push(Span {
        id: client,
        parent: 0,
        txn: txn_id,
        kind,
        start_ns,
        dur_ns: elapsed.as_nanos() as u64,
        rows: 0,
    });
    let Some(o) = outcome else { return };
    let b = &o.breakdown;
    let mut at = start_ns;
    for (kind, d) in [
        (SpanKind::Lookup, b.lookup),
        (SpanKind::Routing, b.routing),
        (SpanKind::Begin, b.begin),
        (SpanKind::Execution, b.execution),
        (SpanKind::Commit, b.commit),
    ] {
        let dur_ns = d.as_nanos() as u64;
        if dur_ns == 0 && kind != SpanKind::Execution {
            continue;
        }
        out.push(Span {
            id: if kind == SpanKind::Execution {
                exec
            } else {
                tracer.next_id()
            },
            parent: client,
            txn: txn_id,
            kind,
            start_ns: at,
            dur_ns,
            rows: 0,
        });
        at += dur_ns;
    }
}

/// Length of the slices `txn_per_s` is the median over.
const SLICE: Duration = Duration::from_secs(1);

/// Commit rate of each whole [`SLICE`] of the window `[from, to)` (the
/// whole window if it is shorter than one slice).
fn slice_rates(done: &[Instant], from: &Snap, to: &Snap) -> Vec<f64> {
    let window = to.at - from.at;
    let slices = ((window.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
    let len = window / slices as u32;
    let mut counts = vec![0u64; slices];
    for t in done {
        if *t >= from.at && *t < to.at {
            let i = ((*t - from.at).as_nanos() / len.as_nanos().max(1)) as usize;
            counts[i.min(slices - 1)] += 1;
        }
    }
    counts
        .iter()
        .map(|c| *c as f64 / len.as_secs_f64())
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of sorted samples, with the count strictly above
/// the reported value's rank.
fn quantile(sorted: &[u64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1] as f64, sorted.len() - rank)
}

fn quantile_u64(values: &[u64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    quantile(&v, q).0
}

fn mean_u64(values: &[u64]) -> f64 {
    ratio(values.iter().sum::<u64>() as f64, values.len() as f64)
}

/// Latency percentiles of exact samples (those of each round's quiet
/// slices, see [`StealProfile`]). p50 is the median over the rounds of each
/// round's p50, so a host stall that hits one round moves it little; the
/// `ref_` p50 divides each round's p50 by the round's slowdown first. p99
/// pools the rounds' samples, so that enough of them lie beyond it.
fn latency_metrics<'a>(
    out: &mut Vec<Metric>,
    class: &str,
    rounds: impl Iterator<Item = &'a [u64]>,
    quiet_share: &[f64],
    slowdown: &[f64],
) {
    let sorted: Vec<Vec<u64>> = rounds
        .map(|samples| {
            let mut s = samples.to_vec();
            s.sort_unstable();
            s
        })
        .collect();
    let quiet = 100.0 * quiet_share.iter().copied().fold(1.0, f64::min);
    let per_round: Vec<(f64, usize)> = sorted.iter().map(|s| quantile(s, 0.5)).collect();
    let p50s: Vec<f64> = per_round.iter().map(|(ns, _)| ns / 1e3).collect();
    let note = format!(
        "median of {} rounds; per round n>={} beyond>={}; quiet slices >={quiet:.0}%",
        sorted.len(),
        sorted.iter().map(Vec::len).min().unwrap_or(0),
        per_round.iter().map(|(_, b)| *b).min().unwrap_or(0),
    );
    out.push(metric(
        &format!("{class}_p50_us"),
        "us",
        median(&p50s),
        note.clone(),
    ));
    let scaled: Vec<f64> = p50s.iter().zip(slowdown).map(|(p, k)| p / k).collect();
    out.push(metric(
        &format!("ref_{class}_p50_us"),
        "us",
        median(&scaled),
        note,
    ));
    let mut pooled: Vec<u64> = sorted.concat();
    pooled.sort_unstable();
    let (p99, beyond) = quantile(&pooled, 0.99);
    out.push(metric(
        &format!("{class}_p99_us"),
        "us",
        p99 / 1e3,
        format!(
            "{} rounds pooled; n={} beyond={beyond}; quiet slices >={quiet:.0}%",
            sorted.len(),
            pooled.len(),
        ),
    ));
}

fn end_to_end_metrics(rounds: &[Round]) -> Vec<Metric> {
    let slices: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.slices.iter().copied())
        .collect();
    let slowdown: Vec<f64> = rounds.iter().map(|r| r.slowdown).collect();
    // Each round scaled by its own slowdown, then the median of the rounds.
    let scaled = |f: fn(&Round) -> f64, faster_is_more: bool| {
        let v: Vec<f64> = rounds
            .iter()
            .map(|r| {
                if faster_is_more {
                    f(r) * r.slowdown
                } else {
                    f(r) / r.slowdown
                }
            })
            .collect();
        median(&v)
    };
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let resident: Vec<f64> = rounds.iter().map(|r| r.resident_ratio).collect();
    let sum = |f: fn(&Window) -> u64| rounds.iter().map(|r| f(&r.untraced)).sum::<u64>();
    let (committed, attempted, failed, resubmitted) = (
        sum(Window::committed),
        sum(|w| w.attempted),
        sum(|w| w.failed),
        sum(|w| w.resubmitted),
    );
    let mut out = vec![metric(
        "txn_per_s",
        "1/s",
        median(&slices),
        format!(
            "median of {} {:?} slices ({:.0}..{:.0}); committed={committed}",
            slices.len(),
            SLICE,
            slices.iter().copied().fold(f64::INFINITY, f64::min),
            slices.iter().copied().fold(0.0, f64::max),
        ),
    )];
    let cpu_tps: Vec<f64> = rounds.iter().map(|r| r.cpu_tps).collect();
    let quiet_share: Vec<f64> = rounds.iter().map(|r| r.quiet_share).collect();
    let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
    let rounds_note = format!("median of {} rounds", rounds.len());
    out.push(metric(
        "txn_per_cpu_s",
        "1/s",
        median(&cpu_tps),
        format!(
            "{rounds_note}; host steal {:.1}%..{:.1}%",
            100.0 * steal.iter().copied().fold(f64::INFINITY, f64::min),
            100.0 * steal.iter().copied().fold(0.0, f64::max),
        ),
    ));
    out.push(metric(
        "ref_txn_per_cpu_s",
        "1/s",
        scaled(|r| r.cpu_tps, true),
        rounds_note.clone(),
    ));
    latency_metrics(
        &mut out,
        "update",
        rounds.iter().map(|r| &r.update_quiet[..]),
        &quiet_share,
        &slowdown,
    );
    latency_metrics(
        &mut out,
        "read",
        rounds.iter().map(|r| &r.read_quiet[..]),
        &quiet_share,
        &slowdown,
    );
    out.push(metric(
        "failed_ratio",
        "ratio",
        ratio(failed as f64, attempted as f64),
        format!("failed={failed} attempted={attempted} resubmitted={resubmitted}"),
    ));
    out.push(metric(
        "setup_wall_s",
        "s",
        median(&setups),
        format!("median of {} set-ups", setups.len()),
    ));
    out.push(metric(
        "setup_s",
        "s",
        scaled(|r| r.setup_s, false),
        format!("median of {} set-ups, each scaled", setups.len()),
    ));
    out.push(metric(
        "resident_bytes_per_user_byte",
        "B/B",
        median(&resident),
        rounds_note.clone(),
    ));
    out.push(metric(
        "probe_unit_ms",
        "ms",
        median(&slowdown) * REFERENCE_UNIT_NS / 1e6,
        format!("{rounds_note}; reference {:.1} ms", REFERENCE_UNIT_NS / 1e6),
    ));
    out
}

fn per_layer_metrics(tw: &TracedWindow, spans: &[Span]) -> Vec<Metric> {
    let TracedWindow {
        window: w,
        s0,
        s1,
        fold,
        untraced_tps,
        touched_ratio,
        ..
    } = tw;
    let untraced_tps = *untraced_tps;
    let txns = w.committed() as f64;
    let updates = &w.updates;
    let reads = &w.reads;
    let committed_updates = (s1.stats.committed_updates - s0.stats.committed_updates) as f64;
    let remasters = (s1.stats.remaster_ops - s0.stats.remaster_ops) as f64;
    let moved = (s1.stats.partitions_moved - s0.stats.partitions_moved) as f64;
    let us = |ns: u64, n: u64| ratio(ns as f64, n as f64) / 1e3;
    let n_txn = format!("txns={}", w.committed());
    let n_upd = format!("updates={}", updates.n);
    let mut out = Vec::new();

    // core::selector
    out.push(metric(
        "selector.lookup_us",
        "us",
        us(updates.lookup, updates.n),
        &n_upd,
    ));
    out.push(metric(
        "selector.routing_us",
        "us",
        us(updates.routing, updates.n),
        &n_upd,
    ));
    out.push(metric(
        "selector.read_route_us",
        "us",
        us(reads.lookup, reads.n),
        format!("reads={}", reads.n),
    ));
    out.push(metric(
        "selector.remaster_per_update",
        "ratio",
        ratio(remasters, committed_updates),
        format!("remasters={remasters} updates={committed_updates}"),
    ));
    out.push(metric(
        "selector.partitions_moved_per_remaster",
        "ratio",
        ratio(moved, remasters),
        format!("moved={moved}"),
    ));
    out.push(metric(
        "selector.routes_per_commit",
        "ratio",
        ratio(fold.routes as f64, txns),
        format!("routes={}", fold.routes),
    ));

    // remastering
    out.push(metric(
        "remaster.release_rtt_us",
        "us",
        mean_u64(&fold.release_rtt),
        format!("pairs={}", fold.release_rtt.len()),
    ));
    out.push(metric(
        "remaster.grant_rtt_us",
        "us",
        mean_u64(&fold.grant_rtt),
        format!("pairs={}", fold.grant_rtt.len()),
    ));
    out.push(metric(
        "remaster.rpcs_per_remaster",
        "ratio",
        ratio((s1.remaster_rpcs - s0.remaster_rpcs) as f64, remasters),
        format!("rpcs={}", s1.remaster_rpcs - s0.remaster_rpcs),
    ));

    // network fabric + codec
    let traffic = s1.traffic.delta_since(&s0.traffic);
    for cat in [
        TrafficCategory::ClientSelector,
        TrafficCategory::ClientSite,
        TrafficCategory::Remaster,
        TrafficCategory::Replication,
    ] {
        let t = traffic.get(cat);
        out.push(metric(
            &format!("network.msgs_per_txn.{}", cat.label()),
            "count",
            ratio(t.messages as f64, txns),
            &n_txn,
        ));
        out.push(metric(
            &format!("network.bytes_per_txn.{}", cat.label()),
            "B",
            ratio(t.bytes as f64, txns),
            &n_txn,
        ));
    }
    let client_ns = updates.client + reads.client;
    let attributed_ns = updates.attributed() + reads.attributed();
    out.push(metric(
        "client.unattributed_us",
        "us",
        us(client_ns.saturating_sub(attributed_ns), w.committed()),
        "client wall minus every Breakdown part",
    ));
    out.push(metric(
        "client.attributed_ratio",
        "ratio",
        ratio(attributed_ns as f64, client_ns as f64),
        &n_txn,
    ));

    // site::data_site begin/commit + site::pipeline
    let both = |f: fn(&PartSums) -> u64| f(updates) + f(reads);
    out.push(metric(
        "site.begin_us",
        "us",
        us(both(|p| p.begin), w.committed()),
        &n_txn,
    ));
    out.push(metric(
        "site.vv_wait_us",
        "us",
        mean_u64(&fold.vv_wait),
        format!("begins={}", fold.vv_wait.len()),
    ));
    out.push(metric(
        "site.exec_us",
        "us",
        us(both(|p| p.execution), w.committed()),
        &n_txn,
    ));
    out.push(metric(
        "site.commit_us",
        "us",
        us(updates.commit, updates.n),
        &n_upd,
    ));
    out.push(metric(
        "site.aborts_per_commit",
        "ratio",
        ratio(
            (s1.stats.aborts - s0.stats.aborts) as f64,
            committed_updates,
        ),
        format!("aborts={}", s1.stats.aborts - s0.stats.aborts),
    ));

    // storage + procedures
    out.push(metric(
        "workloads.partitions_touched_ratio",
        "ratio",
        *touched_ratio,
        "distinct partitions named by committed txns / partitions loaded",
    ));
    let own = spans::self_times(spans);
    let of = |k: SpanKind| spans.iter().filter(move |s| s.kind == k);
    let reads_n = of(SpanKind::CtxRead).count() as u64;
    let read_ns: u64 = of(SpanKind::CtxRead).map(|s| s.dur_ns).sum();
    let scan_rows: u64 = of(SpanKind::CtxScan).map(|s| u64::from(s.rows)).sum();
    let scan_ns: u64 = of(SpanKind::CtxScan).map(|s| s.dur_ns).sum();
    let writes_n = of(SpanKind::CtxWrite).count() as u64;
    let write_ns: u64 = of(SpanKind::CtxWrite).map(|s| s.dur_ns).sum();
    let execs = of(SpanKind::Executor).count() as u64;
    let exec_self: u64 = of(SpanKind::Executor).map(|s| own[&s.id]).sum();
    out.push(metric(
        "storage.read_ns",
        "ns",
        ratio(read_ns as f64, reads_n as f64),
        format!("reads={reads_n}"),
    ));
    out.push(metric(
        "storage.reads_per_txn",
        "count",
        ratio(reads_n as f64, txns),
        &n_txn,
    ));
    out.push(metric(
        "storage.scan_ns_per_row",
        "ns/row",
        ratio(scan_ns as f64, scan_rows as f64),
        format!("rows={scan_rows}"),
    ));
    out.push(metric(
        "storage.scan_rows_per_txn",
        "count",
        ratio(scan_rows as f64, txns),
        &n_txn,
    ));
    out.push(metric(
        "storage.write_ns",
        "ns",
        ratio(write_ns as f64, writes_n as f64),
        format!("writes={writes_n}"),
    ));
    out.push(metric(
        "exec.proc_self_us",
        "us",
        us(exec_self, execs),
        format!("executor calls={execs}"),
    ));

    // replication
    out.push(metric(
        "replication.log_bytes_per_commit",
        "B",
        ratio(
            s1.log_bytes.saturating_sub(s0.log_bytes) as f64,
            committed_updates,
        ),
        format!("updates={committed_updates}"),
    ));
    out.push(metric(
        "replication.unsynced_records_p99",
        "count",
        quantile_u64(&fold.unsynced, 0.99),
        format!("samples={}", fold.unsynced.len()),
    ));
    out.push(metric(
        "replication.svv_lag_records_p99",
        "count",
        quantile_u64(&fold.svv_lag, 0.99),
        format!("samples={}", fold.svv_lag.len()),
    ));
    out.push(metric(
        "replication.refresh_batch_records",
        "count",
        ratio(fold.refresh_records as f64, fold.refresh_lag.len() as f64),
        format!("batches={}", fold.refresh_lag.len()),
    ));
    out.push(metric(
        "replication.refresh_lag_us",
        "us",
        quantile_u64(&fold.refresh_lag, 0.99),
        format!("batches={}", fold.refresh_lag.len()),
    ));
    let shipped = w.key_writes * (SITES as u64 - 1);
    out.push(metric(
        "replication.refresh_skipped_ratio",
        "ratio",
        ratio(
            (s1.refresh_skipped - s0.refresh_skipped) as f64,
            shipped as f64,
        ),
        format!("shipped key-writes={shipped}"),
    ));

    // core::replica_map + planner
    out.push(metric(
        "replica_map.adds_per_ktxn",
        "count",
        ratio((s1.replica_adds - s0.replica_adds) as f64 * 1e3, txns),
        format!("adds={}", s1.replica_adds - s0.replica_adds),
    ));
    out.push(metric(
        "replica_map.drops_per_ktxn",
        "count",
        ratio((s1.replica_drops - s0.replica_drops) as f64 * 1e3, txns),
        format!("drops={}", s1.replica_drops - s0.replica_drops),
    ));

    // common::trace recorder
    let traced_tps = median(&slice_rates(&w.done(), s0, s1));
    out.push(metric(
        "trace.events_per_txn",
        "count",
        ratio(fold.events as f64, txns),
        format!("events={}", fold.events),
    ));
    out.push(metric(
        "trace.overhead_ratio",
        "ratio",
        ratio(traced_tps, untraced_tps),
        format!("traced={traced_tps:.1}/s untraced={untraced_tps:.1}/s"),
    ));
    out
}
