//! Per-layer probes of a traced pass: the benchmark calls each crate's
//! public functions itself, on samples of the workload's own inputs, and
//! records a span around every call.

use crate::load::PEAKS;
use crate::stack::{Stack, DB};
use crate::stats::median;
use crate::trace::{times_of, TracedSource, Tracer};
use lms_analysis::JobEvaluation;
use lms_dashboard::JobInfo;
use lms_http::HttpClient;
use lms_influx::{InfluxClient, QueryResult, WriteOptions};
use lms_lineproto::parse_batch;
use lms_util::{Result, Timestamp};
use std::time::{Duration, Instant};

/// Calls per write-side probe (enough for a supported p99).
const WRITE_CALLS: usize = 1000;
/// HTTP round trips per write probe and per query.
const RTT_CALLS: usize = 200;
const QUERY_REPS: usize = 20;
/// The side database the node-level write probes use, so the workload's
/// data is left as the workload wrote it.
const PROBE_DB: &str = "probe";

/// Query classes of the dashboard read path.
pub const CLASSES: [&str; 3] = ["recent", "long", "meta"];

/// One dashboard-shaped query per class over `[from, to]`, for `host`.
pub fn class_queries(host: &str, from: i64, to: i64) -> [String; 3] {
    let panel = |lo: i64| {
        format!(
            "SELECT mean(busy) FROM cpu_total WHERE hostname = '{host}' AND time >= {lo} AND time <= {to} GROUP BY time(1m)"
        )
    };
    [
        panel((to - 3600 * crate::gen::SEC).max(from)),
        panel(from),
        "SHOW MEASUREMENTS".to_string(),
    ]
}

fn us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|n| n / 1e3).collect()
}

fn p(samples: &[f64], pct: f64) -> f64 {
    crate::stats::tail(samples, pct).map_or(f64::NAN, |t| t.value)
}

/// Runs every probe and returns `(name, unit, value)` per-layer metrics.
pub fn run(
    stack: &Stack,
    bodies: &[&str],
    queries: &[[String; 3]],
    jobs: &[JobInfo],
    tracer: &Tracer,
) -> Result<Vec<(String, &'static str, f64)>> {
    let mut out: Vec<(String, &'static str, f64)> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| out.push((name.to_string(), unit, v));
    let body = |i: usize| bodies[i % bodies.len()];

    // lms-lineproto: parse_batch over the workload's bodies.
    let mut lines = 0usize;
    for i in 0..WRITE_CALLS {
        lines += tracer.span("lineproto.parse_batch", None, |_| {
            std::hint::black_box(parse_batch(body(i))).lines.len()
        });
    }
    let parse_ns = times_of(&tracer.spans(), "lineproto.parse_batch", None);
    put(
        "lineproto.parse_ns_per_line",
        "ns",
        parse_ns.iter().sum::<f64>() / lines as f64,
    );

    // lms-router: handle_write in process; re-sent bodies overwrite
    // identical points.
    let router = stack.router();
    for i in 0..WRITE_CALLS {
        tracer.span("router.handle_write", None, |_| {
            router.handle_write(Some(DB), body(i))
        });
    }
    stack.drain();
    for i in 0..QUERY_REPS {
        for q in &queries[i % queries.len()] {
            let _ = tracer.span("router.handle_query", None, |_| router.handle_query(DB, q));
        }
    }
    let spans = tracer.spans();
    let handle_write = us(&times_of(&spans, "router.handle_write", None));
    put("router.handle_write_us_p50", "us", p(&handle_write, 50.0));
    put("router.handle_write_us_p99", "us", p(&handle_write, 99.0));
    put(
        "router.handle_query_us_p50",
        "us",
        p(&us(&times_of(&spans, "router.handle_query", None)), 50.0),
    );

    // lms-influx and lms-http on node 0: parse, apply, write_lines and
    // the HTTP write of the same body; queries in process and over HTTP.
    let node = &stack.nodes[0];
    node.influx.create_database(PROBE_DB);
    let db = node
        .influx
        .database(PROBE_DB)
        .expect("probe database just created");
    let mut http = HttpClient::connect(node.addr)?;
    let target = format!("/write?db={PROBE_DB}");
    let (mut write_lines, mut apply, mut wal_wait, mut http_rtt) = (vec![], vec![], vec![], vec![]);
    for i in 0..WRITE_CALLS {
        let b = body(i);
        let t = Instant::now();
        let parsed = parse_batch(b);
        let parse = t.elapsed();
        let a = tracer.span("influx.apply", None, |_| {
            let t = Instant::now();
            db.write_parsed_batch(&parsed.lines, WriteOptions::default(), 0);
            t.elapsed()
        });
        let w = tracer.span("influx.write_lines", None, |_| {
            let t = Instant::now();
            node.influx
                .write_lines(PROBE_DB, b, WriteOptions::default())
                .map(|_| t.elapsed())
        })?;
        apply.push(a.as_secs_f64() * 1e6);
        write_lines.push(w.as_secs_f64() * 1e6);
        wal_wait.push((w.saturating_sub(parse).saturating_sub(a)).as_secs_f64() * 1e6);
        if i < RTT_CALLS {
            let h = tracer.span("http.post_text", None, |_| {
                let t = Instant::now();
                http.post_text(&target, b).map(|_| t.elapsed())
            })?;
            http_rtt.push((h.as_secs_f64() - w.as_secs_f64()) * 1e6);
        }
    }
    put("influx.write_lines_us_p50", "us", p(&write_lines, 50.0));
    put("influx.write_lines_us_p99", "us", p(&write_lines, 99.0));
    put("influx.apply_us_p50", "us", median(&apply));
    put("influx.wal_wait_us_p50", "us", median(&wal_wait));
    put("http.write_rtt_us_p50", "us", median(&http_rtt));

    let mut client = InfluxClient::connect(node.addr)?;
    for (c, class) in CLASSES.iter().enumerate() {
        let (mut local, mut rtt) = (vec![], vec![]);
        for i in 0..QUERY_REPS {
            let q = &queries[i % queries.len()][c];
            let l = tracer.span("influx.query", None, |_| {
                let t = Instant::now();
                node.influx.query(DB, q).map(|_| t.elapsed())
            })?;
            let h = tracer.span("http.query", None, |_| {
                let t = Instant::now();
                client.query(DB, q).map(|_| t.elapsed())
            })?;
            local.push(l.as_secs_f64() * 1e6);
            rtt.push((h.as_secs_f64() - l.as_secs_f64()) * 1e6);
        }
        put(
            &format!("influx.query_us_p50.{class}"),
            "us",
            median(&local),
        );
        put(
            &format!("http.query_rtt_us_p50.{class}"),
            "us",
            median(&rtt),
        );
    }

    // lms-cluster: merge per-node answers the benchmark fetched itself.
    let mut clients: Vec<InfluxClient> = stack
        .nodes
        .iter()
        .map(|n| InfluxClient::connect(n.addr))
        .collect::<Result<_>>()?;
    let mut merge = vec![];
    for i in 0..QUERY_REPS {
        for q in &queries[i % queries.len()][..2] {
            let parts: Vec<QueryResult> = clients
                .iter_mut()
                .filter_map(|c| c.query(DB, q).ok())
                .collect();
            let d = tracer.span("cluster.merge_results", None, |_| {
                let t = Instant::now();
                std::hint::black_box(lms_cluster::merge_results(parts));
                t.elapsed()
            });
            merge.push(d.as_secs_f64() * 1e6);
        }
    }
    put("cluster.merge_us_p50", "us", median(&merge));

    // lms-analysis: the job evaluation, its queries as child spans.
    let mut reader = InfluxClient::connect(stack.router.addr())?;
    reader.set_timeout(Duration::from_secs(5));
    let mut src = TracedSource::new(reader, tracer);
    for job in jobs {
        let end = job
            .end
            .unwrap_or(Timestamp(job.start.nanos() + 3600 * crate::gen::SEC));
        tracer.span("analysis.evaluate", None, |id| {
            src.parent = id;
            JobEvaluation::evaluate(&mut src, DB, &job.jobid, &job.hosts, job.start, end, PEAKS)
        })?;
    }
    let spans = tracer.spans();
    let selfs = crate::trace::self_times(&spans);
    let evaluate = times_of(&spans, "analysis.evaluate", Some(&selfs));
    put("analysis.evaluate_self_ms", "ms", median(&evaluate) / 1e6);
    Ok(out)
}
