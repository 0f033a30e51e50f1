//! Seeded input generator. Every value is a pure function of
//! `(seed, host, metric, timestamp)`, so bodies are reproducible from the
//! seed and the correctness checks recompute expected answers without
//! storing them.

use lms_influx::rollup::WindowAggregator;
use lms_lineproto::Point;
use std::fmt::Write;

pub const SEC: i64 = 1_000_000_000;
/// Start of simulated data time: 2026-01-01T00:00:00Z.
pub const T0: i64 = 1_767_225_600 * SEC;
/// Marker points live an hour before the data, one nanosecond apart.
pub const MARKER_T0: i64 = T0 - 3600 * SEC;
/// Marker measurement; every agent batch carries one marker line.
pub const MARKER: &str = "bench_marker";
/// Per-socket series families in an agent batch: `cpu` with user and
/// system time, `hpm_socket` with the DP FLOP rate.
pub const CPU_SOCKETS: usize = 3;
pub const HPM_SOCKETS: usize = 2;

/// Host-level lines: the measurements and fields the builtin dashboard
/// templates and the job evaluation query.
pub const HOST_LINES: [(&str, &[&str]); 7] = [
    ("cpu_total", &["busy"]),
    ("load", &["load1"]),
    ("memory", &["used_frac"]),
    ("network", &["rx_bytes_per_s", "tx_bytes_per_s"]),
    ("disk", &["read_bytes_per_s", "write_bytes_per_s"]),
    (
        "hpm_flops_dp",
        &["dp_mflop_s", "ipc", "vectorization_ratio"],
    ),
    ("hpm_mem", &["memory_bandwidth_mbytes_s"]),
];

/// Series per host in an agent batch.
pub const HOST_SERIES: usize = HOST_LINES.len() + CPU_SOCKETS + HPM_SOCKETS;

/// How agents report: every series is sampled `samples` times per
/// reporting interval, and the buffered samples go out as one batch.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub interval_ns: i64,
    pub samples: usize,
}

impl Shape {
    /// Lines in one agent batch, marker included.
    pub fn lines(self) -> usize {
        HOST_SERIES * self.samples + 1
    }

    /// Field values in one agent batch, marker included.
    pub fn points(self) -> usize {
        (host_field_count() + 2 * CPU_SOCKETS + HPM_SOCKETS) * self.samples + 1
    }

    /// The sample times of the batch whose interval starts at `ts`.
    pub fn sample_times(self, ts: i64) -> impl Iterator<Item = i64> {
        let step = self.interval_ns / self.samples as i64;
        (0..self.samples as i64).map(move |j| ts + j * step)
    }
}

pub fn host_field_count() -> usize {
    HOST_LINES.iter().map(|(_, f)| f.len()).sum()
}

/// Metric id of a host-level field (its position in [`HOST_LINES`]).
pub fn metric_id(measurement: &str, field: &str) -> usize {
    HOST_LINES
        .iter()
        .flat_map(|(m, fields)| fields.iter().map(move |f| (*m, *f)))
        .position(|(m, f)| m == measurement && f == field)
        .expect("known host-level field")
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The value of one metric of one host at `ts`: a decimal with at most
/// six fractional digits, so it round-trips through line protocol.
pub fn value(seed: u64, host: usize, metric: usize, ts: i64) -> f64 {
    let h = mix(seed ^ mix(((host as u64) << 32) | metric as u64) ^ ts as u64);
    (h % 1_000_000) as f64 / if metric < 3 { 1_000_000.0 } else { 1_000.0 }
}

pub fn host_name(host: usize) -> String {
    format!("n{host:04}")
}

/// One pre-rendered `/write` request.
#[derive(Debug, Clone)]
pub struct Request {
    pub target: String,
    pub body: String,
    pub lines: usize,
    /// Field values in the body.
    pub points: usize,
    /// Field values that per-user duplication copies (enriched lines).
    pub user_points: usize,
    pub marker: Option<u64>,
    pub host: usize,
    /// Start of the reporting interval the body covers.
    pub ts: i64,
    pub shape: Shape,
    /// A pre-aggregated batch bound for the 1m tier.
    pub tier: bool,
}

impl Request {
    /// Times of the samples in the body (none for a tier batch).
    pub fn samples(&self) -> impl Iterator<Item = i64> {
        self.shape
            .sample_times(self.ts)
            .take(if self.tier { 0 } else { self.shape.samples })
    }
}

/// Appends the host-level lines of `host` at `ts`.
fn host_lines(out: &mut String, seed: u64, host: usize, ts: i64) {
    let name = host_name(host);
    let mut metric = 0;
    for (m, fields) in HOST_LINES {
        let _ = write!(out, "{m},hostname={name} ");
        for (i, f) in fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{f}={}", value(seed, host, metric, ts));
            metric += 1;
        }
        let _ = writeln!(out, " {ts}");
    }
}

/// One agent batch for the interval starting at `ts`: every series at
/// each sample time, then a marker line whose timestamp encodes `marker`.
pub fn agent_body(seed: u64, host: usize, ts: i64, shape: Shape, marker: u64) -> String {
    let mut out = String::with_capacity(shape.lines() * 72);
    let name = host_name(host);
    for t in shape.sample_times(ts) {
        host_lines(&mut out, seed, host, t);
        for s in 0..CPU_SOCKETS {
            let _ = writeln!(
                out,
                "cpu,hostname={name},socket={s} user={},system={} {t}",
                value(seed, host, 100 + 2 * s, t),
                value(seed, host, 101 + 2 * s, t)
            );
        }
        for s in 0..HPM_SOCKETS {
            let _ = writeln!(
                out,
                "hpm_socket,hostname={name},socket={s} dp_mflop_s={} {t}",
                value(seed, host, 200 + s, t)
            );
        }
    }
    let _ = writeln!(
        out,
        "{MARKER},stream=agents seq={marker}i {}",
        MARKER_T0 + marker as i64
    );
    out
}

fn host_points(seed: u64, host: usize, ts: i64) -> Vec<Point> {
    let name = host_name(host);
    let mut metric = 0;
    HOST_LINES
        .iter()
        .map(|(m, fields)| {
            let mut p = Point::new(*m);
            p.add_tag("hostname", name.as_str());
            for f in fields.iter() {
                p.add_field(*f, value(seed, host, metric, ts));
                metric += 1;
            }
            p.set_timestamp(ts);
            p
        })
        .collect()
}

/// The agent stream of `hosts` over `intervals` reporting intervals from
/// `first_ts`, interval-major, each host also sending its 1m rollup rows
/// once a minute closes. Markers count up from `marker0`.
#[allow(clippy::too_many_arguments)]
pub fn agent_plan(
    seed: u64,
    db: &str,
    hosts: &[usize],
    in_job: &dyn Fn(usize) -> bool,
    first_ts: i64,
    shape: Shape,
    intervals: usize,
    marker0: u64,
) -> Vec<Request> {
    let interval_ns = shape.interval_ns;
    let raw_target = format!("/write?db={db}");
    let tier_target = format!("/write?db={db}&tier=1m");
    let mut aggs: Vec<WindowAggregator> =
        hosts.iter().map(|_| WindowAggregator::minute()).collect();
    let mut plan = Vec::new();
    let mut marker = marker0;
    for k in 0..intervals {
        let ts = first_ts + k as i64 * interval_ns;
        let minute_end = lms_influx::rollup::align_up(ts + 1, 60 * SEC);
        let closes = ts + interval_ns >= minute_end || k + 1 == intervals;
        for (agg, &host) in aggs.iter_mut().zip(hosts) {
            let enriched = in_job(host);
            plan.push(Request {
                target: raw_target.clone(),
                body: agent_body(seed, host, ts, shape, marker),
                lines: shape.lines(),
                points: shape.points(),
                user_points: if enriched { shape.points() - 1 } else { 0 },
                marker: Some(marker),
                host,
                ts,
                shape,
                tier: false,
            });
            marker += 1;
            for t in shape.sample_times(ts) {
                for p in host_points(seed, host, t) {
                    agg.push(&p, t);
                }
            }
            if closes {
                let rows = agg.close_before(minute_end);
                let mut body = String::new();
                for row in &rows {
                    body.push_str(&row.to_line());
                    body.push('\n');
                }
                plan.push(Request {
                    target: tier_target.clone(),
                    lines: rows.len(),
                    points: rows.iter().map(|r| r.fields().len()).sum(),
                    user_points: 0,
                    body,
                    marker: None,
                    host,
                    ts,
                    shape,
                    tier: true,
                });
            }
        }
    }
    plan
}

/// History of the host-level lines of `hosts`, one body per `chunk`
/// intervals, for preloading a node directly.
pub fn history(
    seed: u64,
    hosts: &[usize],
    first_ts: i64,
    interval_ns: i64,
    intervals: usize,
    chunk: usize,
) -> Vec<String> {
    let mut bodies = Vec::new();
    for start in (0..intervals).step_by(chunk.max(1)) {
        let mut body = String::new();
        for k in start..(start + chunk).min(intervals) {
            let ts = first_ts + k as i64 * interval_ns;
            for &host in hosts {
                host_lines(&mut body, seed, host, ts);
            }
        }
        bodies.push(body);
    }
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<Request> {
        let shape = Shape {
            interval_ns: 10 * SEC,
            samples: 10,
        };
        agent_plan(seed, "lms", &[0, 1, 2], &|h| h % 2 == 0, T0, shape, 12, 0)
    }

    #[test]
    fn same_seed_gives_identical_bodies() {
        let (a, b) = (plan(7), plan(7));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.body == y.body && x.target == y.target));
        assert_eq!(
            history(7, &[0, 1], T0, 60 * SEC, 30, 7),
            history(7, &[0, 1], T0, 60 * SEC, 30, 7)
        );
        let c = plan(8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.body != y.body));
    }

    #[test]
    fn agent_batches_parse_cleanly_with_declared_counts() {
        for req in plan(3) {
            let parsed = lms_lineproto::parse_batch(&req.body);
            assert!(parsed.is_clean(), "{:?}", parsed.errors.first());
            assert_eq!(parsed.lines.len(), req.lines);
            let points: usize = parsed.lines.iter().map(|l| l.fields.len()).sum();
            assert_eq!(points, req.points);
        }
    }

    #[test]
    fn tier_rows_close_once_a_minute_per_host() {
        let p = plan(1);
        // 12 ten-second intervals = 2 minutes, 3 hosts.
        assert_eq!(p.iter().filter(|r| r.tier).count(), 2 * 3);
        assert_eq!(p.iter().filter(|r| !r.tier).count(), 12 * 3);
        let markers: Vec<u64> = p.iter().filter_map(|r| r.marker).collect();
        assert_eq!(markers, (0..36).collect::<Vec<_>>());
    }

    #[test]
    fn values_round_trip_through_line_protocol() {
        for ts in [T0, T0 + 10 * SEC] {
            let v = value(5, 3, 4, ts);
            let line = format!("m v={v} {ts}");
            let parsed = lms_lineproto::parse_line(&line).unwrap();
            assert_eq!(parsed.field("v").and_then(|f| f.as_f64()), Some(v));
        }
    }
}
