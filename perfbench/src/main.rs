//! End-to-end and per-layer benchmark of the LMS stack.
//!
//! One process hosts the storage nodes and the router on loopback and
//! drives them through the public HTTP API from client threads: the
//! open-loop agent fleet, the prober that waits for its writes to become
//! visible, and the dashboard reader. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload job-dashboard --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics
//! with the tracing overhead. The last line of standard output is one
//! JSON object; the exit code is non-zero when a correctness check fails.

mod gen;
mod load;
mod probes;
mod stack;
mod stats;
mod sys;
mod trace;

use gen::{Request, Shape, SEC, T0};
use lms_dashboard::JobInfo;
use lms_influx::InfluxClient;
use load::{Pace, ReadLog, WriteLog};
use stack::{FlushPolicy, Stack, DB};
use stats::{median, tail};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// How a workload uses its `--seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// The last hour of a preloaded day arrives through the router, then
    /// a closed-loop dashboard reader runs for the whole run with no
    /// writes.
    Dashboard,
    /// Fixed-rate writes and fixed-rate refreshes at the same time.
    Mixed,
}

struct Spec {
    name: &'static str,
    mode: Mode,
    nodes: usize,
    replication: usize,
    per_user: bool,
    hosts: usize,
    /// Hosts per job; jobs cover the first half of the hosts.
    job_size: usize,
    /// How the agents batch their samples.
    shape: Shape,
    /// Offered agent batches per second (tier batches come on top).
    rate: f64,
    /// Rate ladder for `write.max_rate_lines_s`, agent batches per second.
    ladder: [f64; 4],
    /// The reader's cycle of refreshes: a job's index, or `None` for the
    /// admin view of all jobs.
    rotation: &'static [Option<usize>],
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    /// Times the node is reopened for `recovery_s`.
    reopens: usize,
}

/// When nodes seal their heads: at 2M head points or every 10 minutes,
/// so no seal runs while a workload is timed. In `job-dashboard` the last
/// hour stays in the heads. In `cluster-mixed` the run's writes are
/// sealed and rolled up when the storage workers stop after the timed
/// phase, inside its CPU measurement: with the workers' default (50k
/// points or 10 s) the refreshes that overlapped a seal, whose segment
/// fsyncs wait for a shared virtual disk, set the refresh p90.
const FLUSH: FlushPolicy = FlushPolicy {
    points: 2_000_000,
    interval: Duration::from_secs(600),
};

const SPECS: [Spec; 2] = [
    Spec {
        name: "job-dashboard",
        mode: Mode::Dashboard,
        nodes: 1,
        replication: 1,
        per_user: false,
        hosts: 16,
        job_size: 4,
        // The last hour: one batch per host every 20 s.
        shape: Shape {
            interval_ns: 20 * SEC,
            samples: 10,
        },
        rate: 225.0,
        ladder: [150.0, 300.0, 450.0, 600.0],
        // The 24 h job 3 times, each 1 h job 4 times and the admin view
        // once: p50 falls inside the 1 h refreshes and p90 inside the 24 h
        // ones, not on the edge between two kinds.
        rotation: &[
            Some(0),
            Some(1),
            Some(2),
            Some(3),
            Some(1),
            Some(2),
            Some(3),
            Some(0),
            Some(1),
            Some(2),
            Some(3),
            Some(0),
            Some(1),
            Some(2),
            Some(3),
            None,
        ],
        setups: 3,
        reopens: 5,
    },
    Spec {
        name: "cluster-mixed",
        mode: Mode::Mixed,
        nodes: 3,
        replication: 2,
        per_user: true,
        hosts: 32,
        job_size: 1,
        shape: Shape {
            interval_ns: 10 * SEC,
            samples: 2,
        },
        rate: 150.0,
        ladder: [150.0, 300.0, 450.0, 600.0],
        // Every job in turn and no admin view: the refreshes are all of
        // one kind, so p90 is not set by a rare heavier one.
        rotation: &[
            Some(0),
            Some(1),
            Some(2),
            Some(3),
            Some(4),
            Some(5),
            Some(6),
            Some(7),
            Some(8),
            Some(9),
            Some(10),
            Some(11),
            Some(12),
            Some(13),
            Some(14),
            Some(15),
        ],
        // Its set-up and recovery take a fraction of a second: more of
        // them give a steadier median.
        setups: 9,
        reopens: 15,
    },
];

/// Refresh period of `cluster-mixed`.
const MIXED_REFRESH: Duration = Duration::from_millis(200);
/// Seconds per ladder rung.
const RUNG_SECS: f64 = 1.0;
/// Visibility limit a ladder rung must meet.
const VISIBLE_LIMIT_MS: f64 = 1000.0;
/// Agent batches written straight into the WAL before `recovery_s`.
const TAIL_BATCHES: usize = 200;
const TAIL_SHAPE: Shape = Shape {
    interval_ns: 10 * SEC,
    samples: 10,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything a pass needs, built by one set-up.
struct Setup {
    stack: Stack,
    plan: Vec<Request>,
    ladder: Vec<Vec<Request>>,
    tail: Vec<String>,
    jobs: Vec<JobInfo>,
    /// Field values written by the set-up itself (`job-dashboard`).
    preload_points: usize,
    preload_bytes: usize,
    /// Per host, the timestamps of its stored host-level lines.
    written: Vec<Vec<i64>>,
    /// Annotation events written by the job signals.
    event_points: usize,
    /// Data time the writes start from.
    data_start: i64,
}

fn host_names(hosts: std::ops::Range<usize>) -> Vec<String> {
    hosts.map(gen::host_name).collect()
}

/// Jobs of a workload, and which of them are signalled as running.
fn jobs_of(spec: &Spec) -> Vec<(JobInfo, bool)> {
    let job = |j: usize, start: i64, end: Option<i64>| JobInfo {
        jobid: format!("{}", 1000 + j),
        user: format!("u{}", j % 4),
        hosts: host_names(j * spec.job_size..(j + 1) * spec.job_size),
        start: lms_util::Timestamp(start),
        end: end.map(lms_util::Timestamp),
    };
    match spec.mode {
        // One 24-hour job and three 1-hour jobs; the day job and the
        // last-hour job are still running.
        Mode::Dashboard => vec![
            (job(0, T0, Some(T0 + 24 * 3600 * SEC)), true),
            (
                job(1, T0 + 23 * 3600 * SEC, Some(T0 + 24 * 3600 * SEC)),
                true,
            ),
            (
                job(2, T0 + 6 * 3600 * SEC, Some(T0 + 7 * 3600 * SEC)),
                false,
            ),
            (
                job(3, T0 + 15 * 3600 * SEC, Some(T0 + 16 * 3600 * SEC)),
                false,
            ),
        ],
        _ => (0..spec.hosts / 2 / spec.job_size)
            .map(|j| (job(j, T0, None), true))
            .collect(),
    }
}

fn setup(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
) -> lms_util::Result<Setup> {
    let _ = std::fs::remove_dir_all(dir);
    let clock = lms_util::Clock::simulated(lms_util::Timestamp(T0));
    let stack = Stack::start(
        dir,
        spec.nodes,
        spec.replication,
        spec.per_user,
        FLUSH,
        clock,
        tracer,
    )?;
    let jobs = jobs_of(spec);
    let job_hosts: Vec<usize> = jobs
        .iter()
        .filter(|(_, running)| *running)
        .flat_map(|(j, _)| {
            j.hosts
                .iter()
                .map(|h| h[1..].parse::<usize>().expect("generated host name"))
        })
        .collect();
    let in_job = |h: usize| job_hosts.contains(&h);
    let hosts: Vec<usize> = (0..spec.hosts).collect();
    let (data_start, intervals) = match spec.mode {
        Mode::Dashboard => (
            T0 + 23 * 3600 * SEC,
            (3600 * SEC / spec.shape.interval_ns) as usize,
        ),
        _ => (
            T0,
            ((spec.rate * seconds as f64) / spec.hosts as f64).ceil() as usize,
        ),
    };
    let plan = gen::agent_plan(
        seed, DB, &hosts, &in_job, data_start, spec.shape, intervals, 0,
    );
    let ladder_hosts: Vec<usize> = (1000..1016).collect();
    let ladder = spec
        .ladder
        .iter()
        .enumerate()
        .map(|(r, rate)| {
            let intervals = (rate * RUNG_SECS / ladder_hosts.len() as f64).ceil() as usize;
            let first = T0 + (40 + r as i64) * 24 * 3600 * SEC;
            gen::agent_plan(
                seed,
                DB,
                &ladder_hosts,
                &|_| false,
                first,
                spec.shape,
                intervals,
                10_000_000 * (r as u64 + 1),
            )
        })
        .collect();
    let tail = (0..TAIL_BATCHES)
        .map(|i| {
            gen::agent_body(
                seed,
                2000 + i % 16,
                T0 + 60 * 24 * 3600 * SEC + (i / 16) as i64 * 10 * SEC,
                TAIL_SHAPE,
                90_000_000 + i as u64,
            )
        })
        .collect();

    let mut event_points = 0;
    for (job, running) in &jobs {
        if *running {
            stack.start_job(&job.jobid, &job.user, &job.hosts, job.start)?;
            event_points += job.hosts.len();
        }
    }
    let mut written = vec![Vec::new(); spec.hosts];
    let (mut preload_points, mut preload_bytes) = (0, 0);
    if spec.mode == Mode::Dashboard {
        // 23 hours of history at one-minute resolution, sealed and rolled
        // up; the last hour arrives through the router during the run.
        let node = &stack.nodes[0];
        let minutes = 23 * 60;
        for body in gen::history(seed, &hosts, T0, 60 * SEC, minutes, 60) {
            node.influx.write_lines(DB, &body, Default::default())?;
            preload_bytes += body.len();
        }
        node.influx.flush_storage()?;
        preload_points = spec.hosts * minutes * gen::host_field_count();
        for w in &mut written {
            w.extend((0..minutes as i64).map(|k| T0 + k * 60 * SEC));
        }
    }
    Ok(Setup {
        stack,
        plan,
        ladder,
        tail,
        jobs: jobs.into_iter().map(|(j, _)| j).collect(),
        preload_points,
        preload_bytes,
        written,
        event_points,
        data_start,
    })
}

/// One metric: name, unit, value.
type Metric = (String, &'static str, f64);

/// Result of one pass over a workload.
struct Pass {
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    /// Timings reported with the per-layer metrics, without a bound: the
    /// refresh tail and the write timings follow the hypervisor's steal
    /// time (a stall of the one CPU delays every request in flight), and
    /// in runs with 4–6% steal they grew by a third to a half, too much
    /// for an end-to-end bound.
    unbounded: Vec<Metric>,
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
    report: Vec<String>,
}

/// A timing in ms: the median, or a tail percentile as the median over
/// windows that each support it (see [`stats::windowed_tail`]).
fn tail_ms(
    samples: &[f64],
    p: f64,
    what: &str,
    errors: &mut Vec<String>,
    report: &mut Vec<String>,
) -> f64 {
    let t = if p == 50.0 {
        tail(samples, p)
    } else {
        stats::windowed_tail(samples, p)
    };
    match t {
        Some(t) => {
            report.push(format!(
                "{what} p{p}: {:.3} ms over {} samples",
                t.value, t.count
            ));
            t.value
        }
        None => {
            errors.push(format!(
                "{what}: {} samples do not support p{p}",
                samples.len()
            ));
            f64::NAN
        }
    }
}

/// Checks stored copies: every acknowledged point is stored R times, and
/// enriched points once more per copy in their user's database.
fn check_copies(s: &Setup, spec: &Spec, wlog: &WriteLog, errors: &mut Vec<String>) -> f64 {
    let r = s.stack.replication;
    let acked = wlog.acked.iter().map(|&i| &s.plan[i]).filter(|q| !q.tier);
    let (points, user_points) = acked.fold((0, 0), |(p, u), q| (p + q.points, u + q.user_points));
    let expected = r * (points + s.event_points) + s.preload_points;
    let stored: usize = s.stack.nodes.iter().map(|n| n.influx.point_count(DB)).sum();
    if stored != expected {
        errors.push(format!(
            "stored copies: {stored} points, expected {expected}"
        ));
    }
    if spec.per_user {
        let stored_user: usize = s
            .stack
            .nodes
            .iter()
            .flat_map(|n| {
                n.influx
                    .database_names()
                    .into_iter()
                    .filter(|d| d.starts_with("user_") && !lms_influx::rollup::is_rollup_db(d))
                    .map(|d| n.influx.point_count(&d))
            })
            .sum();
        if stored_user != r * user_points {
            errors.push(format!(
                "per-user copies: {stored_user} points, expected {}",
                r * user_points
            ));
        }
    }
    stored as f64 / (points + s.event_points + s.preload_points).max(1) as f64
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks a sample of dashboard answers through the router against means
/// the generator computes from its own values.
fn check_answers(
    s: &Setup,
    seed: u64,
    data_now: i64,
    errors: &mut Vec<String>,
) -> lms_util::Result<()> {
    let mut client = InfluxClient::connect(s.stack.router.addr())?;
    let fields: Vec<(&str, &str)> = gen::HOST_LINES
        .iter()
        .flat_map(|(m, f)| f.iter().map(move |f| (*m, *f)))
        .collect();
    for (j, job) in s.jobs.iter().enumerate() {
        let host_name = &job.hosts[(seed as usize).wrapping_add(j) % job.hosts.len()];
        let host: usize = host_name[1..].parse().expect("generated host name");
        let (m, f) = fields[(seed as usize).wrapping_add(3 * j) % fields.len()];
        let metric = gen::metric_id(m, f);
        let (from, to) = (job.start.nanos(), job.end.map_or(data_now, |e| e.nanos()));
        let stamps: Vec<i64> = s.written[host]
            .iter()
            .copied()
            .filter(|t| (from..=to).contains(t))
            .collect();
        let mean = |ts: &[i64]| {
            ts.iter()
                .map(|&t| gen::value(seed, host, metric, t))
                .sum::<f64>()
                / ts.len() as f64
        };
        let q = format!("SELECT mean({f}) FROM {m} WHERE hostname = '{host_name}' AND time >= {from} AND time <= {to}");
        let got = lms_analysis::TimeSeries::from_result(&client.query(DB, &q)?, "mean");
        let got = got.points.first().map(|&(_, v)| v);
        if stamps.is_empty() || !got.is_some_and(|g| close(g, mean(&stamps))) {
            errors.push(format!(
                "answer of `{q}`: {got:?}, expected {}",
                mean(&stamps)
            ));
        }
        // One panel per job: every 1-minute window.
        let q = format!("{} GROUP BY time(1m)", q);
        let got = lms_analysis::TimeSeries::from_result(&client.query(DB, &q)?, "mean");
        let mut windows: std::collections::BTreeMap<i64, Vec<i64>> = Default::default();
        for &t in &stamps {
            windows
                .entry(t - t.rem_euclid(60 * SEC))
                .or_default()
                .push(t);
        }
        let expected: Vec<(i64, f64)> = windows.iter().map(|(w, ts)| (*w, mean(ts))).collect();
        let matches = got.points.len() == expected.len()
            && got
                .points
                .iter()
                .zip(&expected)
                .all(|(g, e)| g.0.nanos() == e.0 && close(g.1, e.1));
        if !matches {
            errors.push(format!(
                "panel `{q}`: {} windows differ from the generator's {}",
                got.points.len(),
                expected.len()
            ));
        }
    }
    Ok(())
}

/// Offered lines per second of a request plan sent at `rate` agent
/// batches per second.
fn lines_per_s(plan: &[Request], agent_rate: f64) -> f64 {
    let agent = plan.iter().filter(|q| !q.tier).count() as f64;
    plan.iter().map(|q| q.lines).sum::<usize>() as f64 / agent * agent_rate
}

fn request_rate(plan: &[Request], agent_rate: f64) -> f64 {
    plan.len() as f64 / plan.iter().filter(|q| !q.tier).count() as f64 * agent_rate
}

/// One pass over a workload; `trace_file` turns tracing on and names
/// where the spans are written.
fn run_pass(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    work: &Path,
    trace_file: Option<&Path>,
) -> lms_util::Result<Pass> {
    let traced = trace_file.is_some();
    let tracer = Arc::new(Tracer::new(traced));
    let began = Instant::now();
    let progress = |what: &str| {
        eprintln!(
            "[{:7.2} s] {} {what}",
            began.elapsed().as_secs_f64(),
            spec.name
        )
    };
    let io_start = sys::storage_write_bytes();
    let mut setup_times = Vec::new();
    let mut current: Option<Setup> = None;
    for i in 0..spec.setups {
        if let Some(old) = current.take() {
            old.stack.shutdown();
            // Deleted files have nothing left to write back to disk.
            let _ = std::fs::remove_dir_all(work.join(format!("setup{}", i - 1)));
        }
        let t = Instant::now();
        let dir = work.join(format!("setup{i}"));
        current = Some(setup(
            spec,
            seed,
            seconds,
            &dir,
            traced.then(|| tracer.clone()),
        )?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut s = current.expect("at least one set-up");
    // The set-up's files go to disk now, not while the workload is timed.
    sys::sync_fs(work);
    progress("set up");
    let mut errors = Vec::new();
    let mut report = Vec::new();
    let router_addr = s.stack.router.addr();
    let clock = s.stack.clock.clone();
    let rate = request_rate(&s.plan, spec.rate);
    let run_for = Duration::from_secs(seconds);

    // The measured phase.
    let steal0 = sys::cpu_ticks();
    let cpu0 = sys::cpu_seconds();
    let (wlog, rlog, write_cpu): (WriteLog, ReadLog, f64) = match spec.mode {
        Mode::Dashboard => {
            let w = load::run_writer(router_addr, &s.plan, rate, &tracer, &clock)?;
            s.stack.drain();
            let cpu = sys::cpu_seconds() - cpu0;
            sys::sync_fs(work);
            let r = load::run_reader(
                router_addr,
                &s.jobs,
                spec.rotation,
                Pace::Closed { for_: run_for },
                &tracer,
                &clock,
            )?;
            (w, r, cpu)
        }
        Mode::Mixed => {
            let (w, r) = std::thread::scope(|scope| {
                let writer =
                    scope.spawn(|| load::run_writer(router_addr, &s.plan, rate, &tracer, &clock));
                let pace = Pace::Every {
                    period: MIXED_REFRESH,
                    for_: run_for,
                };
                let r =
                    load::run_reader(router_addr, &s.jobs, spec.rotation, pace, &tracer, &clock);
                (writer.join().expect("writer thread panicked"), r)
            });
            let w = w?;
            s.stack.drain();
            s.stack.quiesce();
            (w, r?, sys::cpu_seconds() - cpu0)
        }
    };
    let data_now = clock.now().nanos();
    let steal = sys::steal_frac(steal0, sys::cpu_ticks());
    progress("measured phase done");
    let cfg = stack::storage_config(work, FLUSH);
    report.push(format!(
        "{} node(s), R={}, per_user={}, {} hosts; wal_fsync={}, group commit {:?} / {} B, flush at {} points or {:?}",
        spec.nodes,
        spec.replication,
        spec.per_user,
        spec.hosts,
        cfg.wal_fsync,
        cfg.wal_group_commit,
        cfg.wal_group_commit_bytes,
        cfg.flush_points,
        cfg.flush_interval,
    ));
    report.push(format!(
        "offered {:.0} lines/s ({:.1} requests/s); {} writes, {} failed; {} refreshes, {} failed",
        lines_per_s(&s.plan, spec.rate),
        rate,
        wlog.attempted,
        wlog.failed,
        rlog.attempted,
        rlog.failed
    ));

    // Correctness after the drain.
    for &i in &wlog.acked {
        let q = &s.plan[i];
        s.written[q.host].extend(q.samples());
    }
    for w in &mut s.written {
        w.sort_unstable();
    }
    let copies = check_copies(&s, spec, &wlog, &mut errors);
    check_answers(&s, seed, data_now, &mut errors)?;
    let router_stats = s.stack.router().stats();
    progress("checked");

    // Rate ladder.
    let mut max_rate = 0.0;
    let mut ladder_bytes = 0;
    let mut ladder_lines = 0;
    for (plan, agent_rate) in s.ladder.iter().zip(spec.ladder) {
        let log = load::run_writer(
            router_addr,
            plan,
            request_rate(plan, agent_rate),
            &Tracer::new(false),
            &clock,
        )?;
        s.stack.drain();
        ladder_bytes += log.bytes_acked;
        ladder_lines += log.lines_acked;
        let offered = lines_per_s(plan, agent_rate);
        let p = stats::highest_supported(log.visible_ms.len()).unwrap_or(50.0);
        let visible = tail(&log.visible_ms, p).map_or(f64::INFINITY, |t| t.value);
        report.push(format!(
            "ladder {offered:.0} lines/s: visible p{p} {visible:.1} ms, {} failed",
            log.failed
        ));
        progress(report.last().expect("just pushed"));
        if log.failed > 0 || visible > VISIBLE_LIMIT_MS {
            break;
        }
        max_rate = offered;
    }

    // Space after the end-of-run flush.
    for node in &s.stack.nodes {
        node.influx.flush_storage()?;
    }
    let disk: u64 = s.stack.nodes.iter().map(|n| sys::dir_bytes(&n.dir)).sum();
    let input_bytes = s.preload_bytes + wlog.bytes_acked + ladder_bytes;
    let lines_total = wlog.lines_acked + ladder_lines;
    progress("flushed");

    let mut layer: Vec<Metric> = Vec::new();
    if traced {
        let bodies: Vec<&str> = wlog
            .acked
            .iter()
            .map(|&i| &s.plan[i])
            .filter(|q| !q.tier)
            .take(200)
            .map(|q| q.body.as_str())
            .collect();
        let queries: Vec<[String; 3]> = s
            .jobs
            .iter()
            .map(|j| {
                probes::class_queries(
                    &j.hosts[0],
                    s.data_start.min(j.start.nanos()),
                    j.end.map_or(data_now, |e| e.nanos()),
                )
            })
            .collect();
        layer.extend(probes::run(&s.stack, &bodies, &queries, &s.jobs, &tracer)?);
        let storage =
            s.stack
                .nodes
                .iter()
                .fold(lms_influx::StorageStats::default(), |mut acc, n| {
                    let st = n.influx.storage_stats();
                    acc.group_commits += st.group_commits;
                    acc.sealed_points += st.sealed_points;
                    acc.sealed_bytes += st.sealed_bytes;
                    acc.batched_points_per_commit = acc
                        .batched_points_per_commit
                        .max(st.batched_points_per_commit);
                    acc
                });
        let (passes, rows) = s
            .stack
            .nodes
            .iter()
            .map(|n| n.influx.rollup_counters())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let fwd = router_stats.forward;
        let mut put = |n: &str, u: &'static str, v: f64| layer.push((n.to_string(), u, v));
        put(
            "router.enriched_frac",
            "fraction",
            router_stats.lines_enriched as f64 / router_stats.lines_in.max(1) as f64,
        );
        put(
            "router.coalesced_frac",
            "fraction",
            fwd.coalesced as f64 / fwd.delivered.max(1) as f64,
        );
        put(
            "router.retry_frac",
            "fraction",
            fwd.retries as f64 / fwd.delivered.max(1) as f64,
        );
        put("router.spooled", "count", fwd.spooled as f64);
        put(
            "router.writes_shed",
            "count",
            router_stats.writes_shed as f64,
        );
        put(
            "tsm.wal_commits_per_mline",
            "count",
            storage.group_commits as f64 / (lines_total as f64 / 1e6),
        );
        put(
            "tsm.points_per_commit",
            "count",
            storage.batched_points_per_commit,
        );
        put(
            "tsm.compression_ratio",
            "ratio",
            storage.compression_ratio(),
        );
        put(
            "rollup.rows_per_pass",
            "count",
            rows as f64 / passes.max(1) as f64,
        );
        put("cluster.copies_per_line", "count", copies);
        put("env.steal_frac", "fraction", steal);
        put(
            "gen.late_p99_ms",
            "ms",
            tail(&wlog.late_ms, 99.0).map_or(f64::NAN, |t| t.value),
        );
    }

    progress("probed");
    // Recovery of node 0: stop storage work, write a tail into the WAL
    // only, drop the node and time reopening its directory.
    s.stack.stop_workers();
    let node = s.stack.nodes.remove(0);
    for body in &s.tail {
        node.influx.write_lines(DB, body, Default::default())?;
    }
    let before = node.stored_points();
    let dir = node.dir.clone();
    drop(node.shutdown());
    let mut reopen = Vec::new();
    let mut after = 0;
    for _ in 0..spec.reopens {
        let t = Instant::now();
        let cfg = stack::storage_config(&dir, FLUSH);
        let ix = tracer.span("influx.open", None, |_| {
            lms_influx::Influx::open(clock.clone(), stack::SHARDS, cfg)
        })?;
        reopen.push(t.elapsed().as_secs_f64());
        after = ix.database_names().iter().map(|d| ix.point_count(d)).sum();
    }
    if after != before {
        errors.push(format!(
            "recovery: {after} points after reopening, {before} acknowledged"
        ));
    }
    s.stack.shutdown();
    progress("recovered and shut down");
    let recovery = median(&reopen);
    let storage_io = sys::storage_write_bytes() - io_start;

    let mut e2e: Vec<Metric> = Vec::new();
    {
        let mut put = |n: &str, u: &'static str, v: f64| e2e.push((n.to_string(), u, v));
        put("setup_s", "s", median(&setup_times));
        put(
            "write.ok_frac",
            "fraction",
            1.0 - wlog.failed as f64 / wlog.attempted.max(1) as f64,
        );
        put("write.max_rate_lines_s", "lines/s", max_rate);
        put(
            "dash.refresh_p50_ms",
            "ms",
            tail_ms(
                &rlog.refresh_ms,
                50.0,
                "dash.refresh",
                &mut errors,
                &mut report,
            ),
        );
        put(
            "dash.ok_frac",
            "fraction",
            1.0 - rlog.failed as f64 / rlog.attempted.max(1) as f64,
        );
        put(
            "cpu_s_per_mline",
            "s",
            write_cpu / (wlog.lines_acked.max(1) as f64 / 1e6),
        );
        put(
            "disk_bytes_per_input_byte",
            "B/B",
            disk as f64 / input_bytes.max(1) as f64,
        );
        put("recovery_s", "s", recovery);
        put("peak_rss_mb", "MiB", sys::peak_rss_mb());
    }
    let mut unbounded: Vec<Metric> = Vec::new();
    for (name, samples, p) in [
        ("dash.refresh", &rlog.refresh_ms, 90.0),
        ("write.ack", &wlog.ack_ms, 50.0),
        ("write.visible", &wlog.visible_ms, 50.0),
        ("write.ack", &wlog.ack_ms, 90.0),
        ("write.visible", &wlog.visible_ms, 90.0),
        ("write.ack", &wlog.ack_ms, 99.0),
        ("write.visible", &wlog.visible_ms, 99.0),
    ] {
        let v = tail_ms(samples, p, name, &mut errors, &mut report);
        unbounded.push((format!("{name}_p{p}_ms"), "ms", v));
    }
    report.push(format!(
        "hypervisor steal during the measured phase: {:.1}% of CPU time",
        steal * 100.0
    ));
    report.push(format!(
        "dashboard service time p50 {:.3} ms",
        median(&rlog.service_ms)
    ));
    report.push(format!(
        "gen.late_p99_ms: {:.3}",
        tail(&wlog.late_ms, 99.0).map_or(f64::NAN, |t| t.value)
    ));

    if let Some(file) = trace_file {
        let spans = tracer.spans();
        let selfs = trace::self_times(&spans);
        let refreshes: Vec<&trace::Span> = spans.iter().filter(|sp| sp.name == "refresh").collect();
        for r in &refreshes {
            let sum = trace::subtree_self_sum(&spans, &selfs, r.id);
            if sum != r.duration_ns() {
                errors.push(format!(
                    "refresh span {}: self times sum to {sum} ns of {} ns",
                    r.id,
                    r.duration_ns()
                ));
                break;
            }
        }
        let ms_of = |name: &str, self_time: bool| {
            median(&trace::times_of(&spans, name, self_time.then_some(&selfs))) / 1e6
        };
        let count_of = |name: &str| spans.iter().filter(|sp| sp.name == name).count() as f64;
        let mut put = |n: &str, u: &'static str, v: f64| layer.push((n.to_string(), u, v));
        put(
            "dashboard.generate_self_ms",
            "ms",
            ms_of("dashboard.generate", true),
        );
        put(
            "dashboard.render_self_ms",
            "ms",
            ms_of("dashboard.render", true),
        );
        put(
            "dashboard.queries_per_refresh",
            "count",
            rlog.queries as f64 / rlog.attempted.max(1) as f64,
        );
        for (op, name) in [
            ("flush", "influx.flush"),
            ("rollup_pass", "influx.rollup_pass"),
            ("compact", "influx.compact"),
        ] {
            let calls = count_of(name);
            put(
                &format!("influx.{op}_ms"),
                "ms",
                if calls > 0.0 { ms_of(name, false) } else { 0.0 },
            );
            put(&format!("influx.{op}_calls"), "count", calls);
        }
        put(
            "tsm.disk_write_bytes_per_input_byte",
            "B/B",
            storage_io as f64 / input_bytes.max(1) as f64,
        );
        put("tsm.reopen_ms", "ms", recovery * 1e3);
        tracer.write_jsonl(file)?;
        report.push(format!(
            "{} spans written to {}",
            spans.len(),
            file.display()
        ));
    }

    Ok(Pass {
        e2e,
        layer,
        unbounded,
        errors,
        attempted: wlog.attempted + rlog.attempted,
        failed: wlog.failed + rlog.failed,
        report,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!(r#""{n}": {{"value": {v}, "unit": "{u}"}}"#))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = sys::pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; expected one of {names:?}",
            args.workload
        );
        std::process::exit(2);
    };
    let out_dir = PathBuf::from("perfbench").join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let result = (|| -> lms_util::Result<(Pass, Option<Pass>)> {
        std::fs::create_dir_all(&work)?;
        let plain = run_pass(spec, args.seed, args.seconds, &work.join("plain"), None)?;
        let traced = if args.trace {
            let file = out_dir.join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
            Some(run_pass(
                spec,
                args.seed,
                args.seconds,
                &work.join("traced"),
                Some(&file),
            )?)
        } else {
            None
        };
        Ok((plain, traced))
    })();
    let _ = std::fs::remove_dir_all(&work);
    let (plain, traced) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.name);
            std::process::exit(1);
        }
    };

    let mut errors = plain.errors.clone();
    match cpu {
        Some(c) => println!("{}: nproc={nproc}; process pinned to CPU {c}", spec.name),
        None => println!("{}: nproc={nproc}; process not pinned", spec.name),
    }
    for line in &plain.report {
        println!("{}: {line}", spec.name);
    }
    for (n, u, v) in &plain.e2e {
        println!("{}: {n} = {v:.6} {u}", spec.name);
    }
    let metrics = match &traced {
        None => plain.e2e.clone(),
        Some(t) => {
            errors.extend(t.errors.iter().cloned());
            for line in &t.report {
                println!("{} (traced): {line}", spec.name);
            }
            let mut layer = t.layer.clone();
            layer.extend(plain.unbounded.iter().cloned());
            for ((n, _, base), (_, _, with)) in plain.e2e.iter().zip(&t.e2e) {
                layer.push((
                    format!("trace.overhead_frac.{n}"),
                    "fraction",
                    (with - base) / base,
                ));
            }
            for (n, u, v) in &layer {
                println!("{} (traced): {n} = {v:.6} {u}", spec.name);
            }
            layer
        }
    };
    for (n, _, v) in &metrics {
        if !v.is_finite() {
            errors.push(format!("metric {n} is not a finite number"));
        }
    }
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let (attempted, failed) = match &traced {
        Some(t) => (plain.attempted + t.attempted, plain.failed + t.failed),
        None => (plain.attempted, plain.failed),
    };
    let finite: Vec<Metric> = metrics
        .into_iter()
        .map(|(n, u, v)| (n, u, if v.is_finite() { v } else { -1.0 }))
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        errors.is_empty(),
        json_metrics(&finite)
    );
    if !errors.is_empty() {
        std::process::exit(1);
    }
}
