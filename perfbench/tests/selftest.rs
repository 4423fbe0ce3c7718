//! Self-tests of the benchmark: every workload runs end to end at a tiny
//! size and reports every named metric, the conservation check catches a
//! system that loses one committed write or applies a resubmitted one twice,
//! and a client resubmits a transaction that returned an error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use dynamast_common::ids::{ClientId, Key, PartitionId, RecordId};
use dynamast_common::{DynaError, Result, Row};
use dynamast_perfbench::checks::{self, ReplicaView};
use dynamast_perfbench::harness::{submit, Ledger, SUBMISSIONS};
use dynamast_perfbench::workload::BenchWorkload;
use dynamast_perfbench::{
    run, RunOptions, Size, WorkloadKind, END_TO_END, GATED_END_TO_END, PER_LAYER,
};
use dynamast_site::proc::{ProcCall, ProcExecutor, ScanRange, TxnCtx};
use dynamast_site::system::{ClientSession, ReplicatedSystem, SystemStats, TxnOutcome};
use dynamast_storage::Catalog;

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn smoke(kind: WorkloadKind) {
    let report = run(&RunOptions {
        workload: kind,
        seed: 7,
        window: Duration::from_millis(400),
        warmup: Duration::from_millis(200),
        trace: true,
        size: Size::Tiny,
        rounds: 2,
        work_dir: work_dir(kind.name()),
    })
    .expect("tiny run");
    assert!(report.correct, "checks failed: {:?}", report.failures);
    assert!(report.attempted > 0);
    let names = |ms: &[dynamast_perfbench::Metric]| -> Vec<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    };
    assert_eq!(names(&report.end_to_end), END_TO_END);
    assert_eq!(names(&report.per_layer), PER_LAYER);
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(m.value >= 0.0, "{} = {}", m.name, m.value);
    }
    for name in ["txn_per_s", "txn_per_cpu_s"] {
        let m = report
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .expect(name);
        assert!(m.value > 0.0, "{name} = {}: nothing committed", m.value);
    }
    assert!(report.span_file.as_ref().is_some_and(|p| p.exists()));
}

#[test]
fn smoke_smallbank_hotspot() {
    smoke(WorkloadKind::SmallbankHotspot);
}

#[test]
fn smoke_ycsb_scan_uniform() {
    smoke(WorkloadKind::YcsbScanUniform);
}

#[test]
fn smoke_ycsb_partial_durable() {
    smoke(WorkloadKind::YcsbPartialDurable);
}

/// `BENCHMARK.json` lists every workload the benchmark runs and exactly the
/// metrics it reports.
#[test]
fn benchmark_json_names_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let named: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    let workloads = named
        .iter()
        .take_while(|n| WorkloadKind::parse(n).is_some())
        .count();
    assert_eq!(
        named[..workloads],
        WorkloadKind::ALL.map(WorkloadKind::name)[..],
        "BENCHMARK.json lists every workload, in report order"
    );
    assert!(GATED_END_TO_END.iter().all(|n| END_TO_END.contains(n)));
    let mut expected = GATED_END_TO_END.to_vec();
    expected.extend(PER_LAYER);
    assert_eq!(named[workloads..], expected[..]);
}

/// How [`LossySystem`] misbehaves.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Executes every call faithfully.
    None,
    /// Silently drops the n-th committed write (from 0).
    DropWrite(u64),
    /// Applies the n-th call's writes (from 0), then reports an error.
    ErrorAfterCommit(u64),
    /// Rejects `count` calls from the n-th on, applying nothing.
    Reject { from: u64, count: u64 },
}

/// A single-copy in-memory system that executes procedures directly and
/// misbehaves as its [`Fault`] says.
struct LossySystem {
    rows: Mutex<BTreeMap<Key, Row>>,
    executor: Arc<dyn ProcExecutor>,
    catalog: Catalog,
    writes: AtomicU64,
    calls: AtomicU64,
    fault: Fault,
}

struct MapCtx<'a> {
    rows: &'a BTreeMap<Key, Row>,
    writes: Vec<(Key, Row)>,
}

impl TxnCtx for MapCtx<'_> {
    fn read(&mut self, key: Key) -> Result<Option<Row>> {
        if let Some((_, row)) = self.writes.iter().rev().find(|(k, _)| *k == key) {
            return Ok(Some(row.clone()));
        }
        Ok(self.rows.get(&key).cloned())
    }

    fn scan(&mut self, range: ScanRange) -> Result<Vec<(RecordId, Row)>> {
        let lo = Key::new(range.table, range.start);
        let hi = Key::new(range.table, range.end);
        Ok(self
            .rows
            .range(lo..hi)
            .map(|(k, r)| (k.record, r.clone()))
            .collect())
    }

    fn write(&mut self, key: Key, row: Row) -> Result<()> {
        self.writes.push((key, row));
        Ok(())
    }
}

impl LossySystem {
    fn run(&self, proc: &ProcCall) -> Result<TxnOutcome> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if let Fault::Reject { from, count } = self.fault {
            if (from..from + count).contains(&call) {
                return Err(DynaError::Internal("injected rejection"));
            }
        }
        let mut rows = self.rows.lock().map_err(|_| DynaError::ShuttingDown)?;
        let mut ctx = MapCtx {
            rows: &rows,
            writes: Vec::new(),
        };
        let result: Bytes = self.executor.execute(&mut ctx, proc)?;
        let writes = ctx.writes;
        for (key, row) in writes {
            let n = self.writes.fetch_add(1, Ordering::Relaxed);
            if !matches!(self.fault, Fault::DropWrite(d) if d == n) {
                rows.insert(key, row);
            }
        }
        if matches!(self.fault, Fault::ErrorAfterCommit(c) if c == call) {
            return Err(DynaError::Internal("injected error after commit"));
        }
        Ok(TxnOutcome {
            result,
            breakdown: Default::default(),
        })
    }
}

impl ReplicatedSystem for LossySystem {
    fn name(&self) -> &'static str {
        "lossy"
    }

    fn update(&self, _session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        self.run(proc)
    }

    fn read(&self, _session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        self.run(proc)
    }

    fn stats(&self) -> SystemStats {
        SystemStats::default()
    }
}

impl ReplicaView for LossySystem {
    fn num_sites(&self) -> usize {
        1
    }

    fn partition_rows(&self, _site: usize, partition: PartitionId) -> Option<Vec<(RecordId, Row)>> {
        let rows = self.rows.lock().expect("rows");
        Some(
            rows.iter()
                .filter(|(k, _)| self.catalog.partition_of(**k).ok() == Some(partition))
                .map(|(k, r)| (k.record, r.clone()))
                .collect(),
        )
    }
}

/// What [`drive`] saw.
struct Driven {
    /// Messages of the failed correctness checks.
    failures: Vec<String>,
    /// Submissions after a transaction's first.
    resubmitted: u64,
    /// Transactions that erred on every submission.
    failed: u64,
}

/// Drives 300 transactions of the YCSB RMW-heavy mix through a
/// [`LossySystem`] with `fault`, submitting and recording committed ones as
/// the benchmark does, and runs the checks.
fn drive(fault: Fault) -> Driven {
    let kind = WorkloadKind::YcsbPartialDurable;
    let workload = BenchWorkload::new(kind, Size::Tiny);
    let w = workload.as_dyn();
    let system = LossySystem {
        rows: Mutex::new(BTreeMap::new()),
        executor: w.executor(),
        catalog: w.catalog(),
        writes: AtomicU64::new(0),
        calls: AtomicU64::new(0),
        fault,
    };
    w.populate(&mut |key, row| {
        system.rows.lock().expect("rows").insert(key, row);
        Ok(())
    })
    .expect("populate");
    let mut generator = w.client(ClientId::new(0), 3);
    let mut session = ClientSession::new(ClientId::new(0), 1);
    let mut ledger = Ledger::default();
    let (mut resubmitted, mut failed) = (0, 0);
    let mut errors = Vec::new();
    for _ in 0..300 {
        let txn = generator.next_txn();
        let (outcome, submissions) = submit(&system, &mut session, &txn, &mut errors);
        resubmitted += submissions - 1;
        match outcome {
            Ok(_) => ledger.record(&system.catalog, &txn),
            Err(_) => failed += 1,
        }
    }
    assert!(system.writes.load(Ordering::Relaxed) > 100);
    let failures = checks::verify(
        &system,
        &workload.partitions(),
        &ledger.expectation(kind, 0),
    );
    Driven {
        failures,
        resubmitted,
        failed,
    }
}

#[test]
fn conservation_check_passes_a_faithful_system() {
    let driven = drive(Fault::None);
    assert_eq!(driven.failures, Vec::<String>::new());
    assert_eq!((driven.resubmitted, driven.failed), (0, 0));
}

#[test]
fn conservation_check_catches_one_dropped_write() {
    let failures = drive(Fault::DropWrite(57)).failures;
    assert!(
        failures.iter().any(|f| f.contains("counter conservation")),
        "a dropped committed write went unnoticed: {failures:?}"
    );
}

#[test]
fn transient_errors_are_resubmitted_until_commit() {
    let driven = drive(Fault::Reject {
        from: 10,
        count: SUBMISSIONS - 1,
    });
    assert_eq!(driven.failures, Vec::<String>::new());
    assert_eq!((driven.resubmitted, driven.failed), (SUBMISSIONS - 1, 0));
}

#[test]
fn a_transaction_fails_once_every_submission_errs() {
    let driven = drive(Fault::Reject {
        from: 10,
        count: SUBMISSIONS,
    });
    assert_eq!(driven.failures, Vec::<String>::new());
    assert_eq!((driven.resubmitted, driven.failed), (SUBMISSIONS - 1, 1));
}

#[test]
fn conservation_check_catches_a_resubmission_applied_twice() {
    let driven = drive(Fault::ErrorAfterCommit(10));
    assert_eq!(driven.resubmitted, 1);
    assert!(
        driven
            .failures
            .iter()
            .any(|f| f.contains("counter conservation")),
        "a twice-applied write went unnoticed: {:?}",
        driven.failures
    );
}
