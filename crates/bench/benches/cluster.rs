//! Cluster scaling benchmark — end-to-end ingest throughput through the
//! router's delivery fabric against 1 vs 3 database nodes (R = 1): the
//! same write stream, the same enrichment path, only the fan-out differs.
//! With one node every batch funnels into a single `lms-influxd`; with
//! three, the rendezvous ring spreads series across nodes and deliveries
//! proceed in parallel per destination.
//!
//! Custom harness (not criterion): the run sets the `cluster_scaling`
//! key of `BENCH_ingest.json` at the repository root and leaves the rest
//! of the file untouched.
//!
//! `LMS_BENCH_QUICK=1` runs a smaller stream, checks zero loss, and does
//! not touch the baseline file.

use lms_bench::{rounded, update_bench_file};
use lms_influx::{Influx, InfluxServer, StorageConfig};
use lms_router::{ClusterConfig, Router, RouterConfig};
use lms_util::{Clock, Json, Timestamp};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LINES_PER_BATCH: usize = 1000;
const WRITERS: usize = 4;
const RUNS: usize = 3;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");

/// Pre-renders one writer's batches: tagged, timestamped lines over many
/// hostnames, so they take the router's raw pass-through path and the
/// ring has a wide key space to spread.
fn batches_for(thread: usize, batches: usize) -> Vec<String> {
    (0..batches)
        .map(|b| {
            let mut body = String::with_capacity(LINES_PER_BATCH * 48);
            for i in 0..LINES_PER_BATCH {
                let n = b * LINES_PER_BATCH + i;
                let ts = ((thread * batches * LINES_PER_BATCH) + n + 1) as i64 * 1_000;
                body.push_str(&format!(
                    "cpu,hostname=w{thread}h{:02} busy={i} {ts}\n",
                    n % 64
                ));
            }
            body
        })
        .collect()
}

/// One timed run: `WRITERS` threads push their batches through
/// `handle_write` into a fresh cluster of `db_nodes`; the clock stops
/// when `flush` confirms every point reached a database. Returns
/// acknowledged points per second; asserts zero loss and zero duplicates
/// (total stored copies == `replication` × total written).
///
/// Every node runs the persistent engine with `wal_fsync` on. All nodes
/// share this host's cores, so the numbers measure the routing fabric's
/// overhead (R = 1) and replication cost (R = 2) — not multi-machine
/// capacity, which an in-process bench cannot observe.
fn run_once(db_nodes: usize, replication: usize, batches: usize) -> f64 {
    let clock = Clock::simulated(Timestamp::from_secs(1_000));
    let root = std::env::temp_dir().join(format!(
        "lms-bench-cluster-{}-{db_nodes}-{batches}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let mut servers = Vec::new();
    let mut handles = Vec::new();
    let mut workers = Vec::new();
    for i in 0..db_nodes {
        let storage = StorageConfig {
            wal_fsync: true,
            ..StorageConfig::new(root.join(format!("node-{i}")))
        };
        let ix = Influx::open(clock.clone(), 4, storage).unwrap();
        ix.create_database("lms");
        workers.push(ix.spawn_storage_worker().expect("persistent node has a storage worker"));
        servers.push(InfluxServer::start("127.0.0.1:0", ix.clone()).unwrap());
        handles.push(ix);
    }
    let cluster = ClusterConfig {
        nodes: servers.iter().map(|s| s.addr()).collect(),
        replication,
        write_quorum: 1,
        seed: 7,
    };
    let router =
        Arc::new(Router::new_cluster(cluster, RouterConfig::default(), clock, None).unwrap());

    let inputs: Vec<Vec<String>> = (0..WRITERS).map(|t| batches_for(t, batches)).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for input in &inputs {
            let router = router.clone();
            s.spawn(move || {
                for body in input {
                    let o = router.handle_write(None, body);
                    assert!(o.acked, "bench writes must be acknowledged");
                }
            });
        }
    });
    assert!(router.flush(Duration::from_secs(120)), "delivery must drain");
    let elapsed = start.elapsed().as_secs_f64();

    let points = WRITERS * batches * LINES_PER_BATCH;
    let stored: usize = handles.iter().map(|h| h.point_count("lms")).sum();
    assert_eq!(stored, replication * points, "zero loss, zero duplicates through the cluster path");
    if db_nodes > 1 {
        assert!(
            handles.iter().all(|h| h.point_count("lms") > 0),
            "the ring must spread series over every node"
        );
    }
    for w in workers {
        w.stop();
    }
    for s in servers {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
    points as f64 / elapsed
}

fn measure(db_nodes: usize, replication: usize, batches: usize, runs: usize) -> f64 {
    let mut samples: Vec<f64> =
        (0..runs).map(|_| run_once(db_nodes, replication, batches)).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    samples[samples.len() / 2]
}

/// Sets the `cluster_scaling` entry of the baseline file.
fn update_baseline(single: f64, three_r1: f64, three_r2: f64) {
    update_bench_file(BASELINE_PATH, |doc| {
        doc.set(
            "cluster_scaling",
            Json::obj([
                ("write_threads", Json::from(WRITERS as i64)),
                ("wal_fsync", Json::from(true)),
                ("single_node_pts_per_s", rounded(single, 0)),
                ("three_node_r1_pts_per_s", rounded(three_r1, 0)),
                ("three_node_r2_pts_per_s", rounded(three_r2, 0)),
                ("fanout_ratio", rounded(three_r1 / single, 2)),
                ("r2_copy_throughput_ratio", rounded(three_r2 * 2.0 / single, 2)),
            ]),
        );
    });
}

fn main() {
    let quick = std::env::var("LMS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let batches = if quick { 5 } else { 25 };
    let runs = if quick { 1 } else { RUNS };

    let single = measure(1, 1, batches, runs);
    let three_r1 = measure(3, 1, batches, runs);
    let three_r2 = measure(3, 2, batches, runs);
    println!(
        "cluster ingest ({WRITERS} writers, wal_fsync): 1 node {single:>9.0} pts/s   3 nodes R=1 {three_r1:>9.0} pts/s ({:.2}x)   3 nodes R=2 {three_r2:>9.0} pts/s ({:.2}x copies)",
        three_r1 / single,
        three_r2 * 2.0 / single
    );
    if !quick {
        update_baseline(single, three_r1, three_r2);
    }
}
