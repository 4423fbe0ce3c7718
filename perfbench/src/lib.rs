//! End-to-end, layer-by-layer benchmark of DynaMast.
//!
//! One command (`python3 perfbench/run.py`, which builds and runs this
//! package's binary) drives DynaMast on one of three workloads with a
//! closed loop of clients, prints every end-to-end metric (untraced run) or
//! every per-layer metric (traced run) by name and unit, and checks the
//! database afterwards. See `README.md` in this directory for the metric
//! list and the layer each metric belongs to.

pub mod checks;
pub mod harness;
mod probe;
mod spans;
pub mod workload;

pub use harness::{run, Metric, RunOptions, RunReport};
pub use workload::{Size, WorkloadKind};

/// End-to-end metrics, in report order; the table prints them all.
pub const END_TO_END: &[&str] = &[
    "txn_per_s",
    "txn_per_cpu_s",
    "ref_txn_per_cpu_s",
    "update_p50_us",
    "ref_update_p50_us",
    "update_p99_us",
    "read_p50_us",
    "ref_read_p50_us",
    "read_p99_us",
    "failed_ratio",
    "setup_wall_s",
    "setup_s",
    "resident_bytes_per_user_byte",
    "probe_unit_ms",
];

/// The end-to-end metrics on the result line of an untraced run, each with
/// a regression bound in `BENCHMARK.json`. The time metrics are the `ref_`
/// ones and `setup_s`, scaled to the reference host speed by the probe run
/// beside the clients (see `probe.rs`): the host's own speed drifts by more
/// than any bound may allow. Left out: their raw forms, `probe_unit_ms`
/// (the host's speed, not the program's), `failed_ratio`, which the result
/// line carries as `failed`/`attempted` (no operation fails on these
/// workloads, and a metric that is always 0 is no measurement), and
/// `txn_per_s` and the two p99s, which CPU-steal episodes on a shared
/// 2-vCPU host move by more than any bound may allow (see README.md).
pub const GATED_END_TO_END: &[&str] = &[
    "ref_txn_per_cpu_s",
    "ref_update_p50_us",
    "ref_read_p50_us",
    "setup_s",
    "resident_bytes_per_user_byte",
];

/// Per-layer metrics of the traced run, in report order.
pub const PER_LAYER: &[&str] = &[
    "selector.lookup_us",
    "selector.routing_us",
    "selector.read_route_us",
    "selector.remaster_per_update",
    "selector.partitions_moved_per_remaster",
    "selector.routes_per_commit",
    "remaster.release_rtt_us",
    "remaster.grant_rtt_us",
    "remaster.rpcs_per_remaster",
    "network.msgs_per_txn.client-selector",
    "network.bytes_per_txn.client-selector",
    "network.msgs_per_txn.client-site",
    "network.bytes_per_txn.client-site",
    "network.msgs_per_txn.remaster",
    "network.bytes_per_txn.remaster",
    "network.msgs_per_txn.replication",
    "network.bytes_per_txn.replication",
    "client.unattributed_us",
    "client.attributed_ratio",
    "site.begin_us",
    "site.vv_wait_us",
    "site.exec_us",
    "site.commit_us",
    "site.aborts_per_commit",
    "workloads.partitions_touched_ratio",
    "storage.read_ns",
    "storage.reads_per_txn",
    "storage.scan_ns_per_row",
    "storage.scan_rows_per_txn",
    "storage.write_ns",
    "exec.proc_self_us",
    "replication.log_bytes_per_commit",
    "replication.unsynced_records_p99",
    "replication.svv_lag_records_p99",
    "replication.refresh_batch_records",
    "replication.refresh_lag_us",
    "replication.refresh_skipped_ratio",
    "replica_map.adds_per_ktxn",
    "replica_map.drops_per_ktxn",
    "trace.events_per_txn",
    "trace.overhead_ratio",
];

/// Renders the result line: one JSON object with the run's verdict, counts
/// and `metrics` (name → value and unit).
pub fn result_json(report: &RunReport, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        fields.join(", ")
    )
}

/// A JSON number with every digit `f64` carries (JSON has no NaN or
/// infinity; those render as `null` so a consumer rejects them).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
