//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded around the calls the benchmark itself makes into the
//! program: the client call (`ReplicatedSystem::update`/`read`), the
//! workload's stored-procedure executor, and every `TxnCtx` read, scan and
//! write the procedure issues. The `Breakdown` parts the program returns
//! with each transaction become child spans of the client span. Spans of
//! one transaction share its id; they stay in memory and are written out
//! once the run ends. No span is recorded inside the program itself.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use dynamast_common::ids::{Key, RecordId};
use dynamast_common::{Result, Row};
use dynamast_site::proc::{ProcCall, ProcExecutor, ScanRange, TxnCtx};

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// `ReplicatedSystem::update`, as the client observes it.
    ClientUpdate,
    /// `ReplicatedSystem::read`, as the client observes it.
    ClientRead,
    /// `Breakdown::lookup`: selector partition lock + master lookup (for a
    /// read: the read-routing decision).
    Lookup,
    /// `Breakdown::routing`: routing decision including remastering.
    Routing,
    /// `Breakdown::begin`: write locks + session-freshness wait.
    Begin,
    /// `Breakdown::execution`: stored-procedure execution at the site.
    Execution,
    /// `Breakdown::commit`: commit processing at the site.
    Commit,
    /// One call of the workload's `ProcExecutor`.
    Executor,
    /// One `TxnCtx::read`.
    CtxRead,
    /// One `TxnCtx::scan`; `rows` holds the rows it returned.
    CtxScan,
    /// One `TxnCtx::write`.
    CtxWrite,
}

impl SpanKind {
    /// Name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ClientUpdate => "client.update",
            SpanKind::ClientRead => "client.read",
            SpanKind::Lookup => "breakdown.lookup",
            SpanKind::Routing => "breakdown.routing",
            SpanKind::Begin => "breakdown.begin",
            SpanKind::Execution => "breakdown.execution",
            SpanKind::Commit => "breakdown.commit",
            SpanKind::Executor => "exec.proc",
            SpanKind::CtxRead => "storage.read",
            SpanKind::CtxScan => "storage.scan",
            SpanKind::CtxWrite => "storage.write",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a client span.
    pub parent: u64,
    /// Benchmark transaction id shared by every span of one transaction
    /// (0 if the executor call could not be joined to its client call).
    pub txn: u64,
    /// What the span covers.
    pub kind: SpanKind,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Rows returned (scans only).
    pub rows: u32,
}

impl Span {
    /// End, ns since the tracer epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// In-flight client call, keyed by the content hash of its `ProcCall`, so
/// the executor call at the site can name its parent.
#[derive(Clone, Copy)]
struct InFlight {
    txn: u64,
    execution_span: u64,
}

/// Span recorder shared by the client threads and the traced executor.
pub struct Tracer {
    epoch: Instant,
    active: AtomicBool,
    next_span: AtomicU64,
    in_flight: Mutex<HashMap<u64, Vec<InFlight>>>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_active`].
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            active: AtomicBool::new(false),
            next_span: AtomicU64::new(1),
            in_flight: Mutex::new(HashMap::new()),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Starts or stops recording.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Announces a client call about to be submitted, so its executor
    /// call can be joined to `execution_span`. Returns the join key.
    pub fn begin_call(&self, call: &ProcCall, txn: u64, execution_span: u64) -> u64 {
        let key = call_hash(call);
        self.in_flight
            .lock()
            .expect("in-flight table poisoned by a panicking client")
            .entry(key)
            .or_default()
            .push(InFlight {
                txn,
                execution_span,
            });
        key
    }

    /// Retires a call announced by [`Tracer::begin_call`].
    pub fn end_call(&self, key: u64, execution_span: u64) {
        let mut table = self
            .in_flight
            .lock()
            .expect("in-flight table poisoned by a panicking client");
        if let Some(calls) = table.get_mut(&key) {
            calls.retain(|c| c.execution_span != execution_span);
            if calls.is_empty() {
                table.remove(&key);
            }
        }
    }

    fn joined(&self, call: &ProcCall) -> Option<InFlight> {
        let table = self
            .in_flight
            .lock()
            .expect("in-flight table poisoned by a panicking client");
        table.get(&call_hash(call)).and_then(|c| c.first().copied())
    }

    /// Adds finished spans.
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .extend(spans);
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Content hash of a call: the key that joins a site-side executor call to
/// the client call that carried it (the call crosses the fabric as bytes).
pub fn call_hash(call: &ProcCall) -> u64 {
    let mut h = DefaultHasher::new();
    call.proc_id.hash(&mut h);
    call.args[..].hash(&mut h);
    call.write_set.hash(&mut h);
    call.read_keys.hash(&mut h);
    for r in &call.read_ranges {
        (r.table.raw(), r.start, r.end).hash(&mut h);
    }
    h.finish()
}

/// Wraps the workload's executor: times each call and every `TxnCtx`
/// operation inside it while the tracer is active.
pub struct TracedExecutor {
    inner: Arc<dyn ProcExecutor>,
    tracer: Arc<Tracer>,
}

impl TracedExecutor {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ProcExecutor>, tracer: Arc<Tracer>) -> Self {
        TracedExecutor { inner, tracer }
    }
}

impl ProcExecutor for TracedExecutor {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        if !self.tracer.active() {
            return self.inner.execute(ctx, call);
        }
        let joined = self.tracer.joined(call);
        let id = self.tracer.next_id();
        let txn = joined.map_or(0, |j| j.txn);
        let start_ns = self.tracer.now_ns();
        let mut timed = TimedCtx {
            inner: ctx,
            tracer: &self.tracer,
            txn,
            parent: id,
            spans: Vec::new(),
        };
        let out = self.inner.execute(&mut timed, call);
        let mut spans = timed.spans;
        spans.push(Span {
            id,
            parent: joined.map_or(0, |j| j.execution_span),
            txn,
            kind: SpanKind::Executor,
            start_ns,
            dur_ns: self.tracer.now_ns() - start_ns,
            rows: 0,
        });
        self.tracer.extend(spans);
        out
    }
}

/// A `TxnCtx` that times each operation of the context it wraps.
struct TimedCtx<'a> {
    inner: &'a mut dyn TxnCtx,
    tracer: &'a Tracer,
    txn: u64,
    parent: u64,
    spans: Vec<Span>,
}

impl TimedCtx<'_> {
    fn push(&mut self, kind: SpanKind, start_ns: u64, rows: u32) {
        self.spans.push(Span {
            id: self.tracer.next_id(),
            parent: self.parent,
            txn: self.txn,
            kind,
            start_ns,
            dur_ns: self.tracer.now_ns() - start_ns,
            rows,
        });
    }
}

impl TxnCtx for TimedCtx<'_> {
    fn read(&mut self, key: Key) -> Result<Option<Row>> {
        let start = self.tracer.now_ns();
        let out = self.inner.read(key);
        self.push(SpanKind::CtxRead, start, 0);
        out
    }

    fn scan(&mut self, range: ScanRange) -> Result<Vec<(RecordId, Row)>> {
        let start = self.tracer.now_ns();
        let out = self.inner.scan(range);
        let rows = out.as_ref().map_or(0, |rows| rows.len() as u32);
        self.push(SpanKind::CtxScan, start, rows);
        out
    }

    fn write(&mut self, key: Key, row: Row) -> Result<()> {
        let start = self.tracer.now_ns();
        let out = self.inner.write(key, row);
        self.push(SpanKind::CtxWrite, start, 0);
        out
    }
}

/// Self time of every span that has children: its duration minus the part
/// of its interval that its children's intervals cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns()));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns()));
            (s.id, s.dur_ns - covered.min(s.dur_ns))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes spans as tab-separated lines with a header.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "txn\tspan\tparent\tname\tstart_ns\tdur_ns\trows")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.txn,
            s.id,
            s.parent,
            s.kind.name(),
            s.start_ns,
            s.dur_ns,
            s.rows
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            id,
            parent,
            txn: 1,
            kind: SpanKind::Executor,
            start_ns,
            dur_ns,
            rows: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0,100); children [10,30) and [20,50) overlap → 40 covered;
        // a child poking past the parent's end is clipped.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 20),
            span(3, 1, 20, 30),
            span(4, 1, 90, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 20);
    }
}
