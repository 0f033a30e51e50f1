//! Ingest throughput benchmark for the production write path,
//! `Database::write_parsed_batch`: whole parsed batches are staged into
//! per-shard append buffers and drained by one thread per shard, so
//! hot-series writers hand their points to the running drainer instead of
//! convoying on a series write lock.
//!
//! Two workloads: `many-series` (each writer owns its series; writes spread
//! across stripes) and `hot-series` (every thread hammers one series).
//!
//! Custom harness (not criterion): the run needs the measured numbers
//! programmatically to check scaling and to update `BENCH_ingest.json` at
//! the repository root (only the keys this bench owns).
//!
//! `LMS_BENCH_QUICK=1` switches to the CI smoke mode: 1 and 8 threads on
//! both workloads in 9 alternating pairs, no file overwrite. It exits
//! non-zero when the 8-writer/1-writer throughput ratio of either
//! workload falls below 0.7× the ratio in the checked-in
//! `BENCH_ingest.json`, when hot-series throughput collapses under
//! contention (see `contention_ok`), or when the background scrubber
//! costs ingest more than 5%.

use lms_bench::{read_bench_file, rounded, update_bench_file};
use lms_influx::{Database, Influx, StorageConfig, WriteOptions};
use lms_lineproto::{parse_batch, ParseOutcome};
use lms_util::{Clock, Json, Timestamp};
use std::hint::black_box;
use std::time::{Duration, Instant};

const LINES_PER_BATCH: usize = 200;
const BATCHES_PER_THREAD: usize = 40;
const RUNS: usize = 7;
const QUICK_PAIRS: usize = 9;
const DEFAULT_SHARDS: usize = 16;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// Each thread writes its own 64 series.
    ManySeries,
    /// All threads write the same single series (distinct timestamps).
    HotSeries,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ManySeries => "many-series",
            Workload::HotSeries => "hot-series",
        }
    }
}

/// Pre-builds the line-protocol batches one thread will write, so the timed
/// region contains only parse + write calls.
fn batches_for(workload: Workload, thread: usize) -> Vec<String> {
    let mut batches = Vec::with_capacity(BATCHES_PER_THREAD);
    for b in 0..BATCHES_PER_THREAD {
        let mut body = String::with_capacity(LINES_PER_BATCH * 48);
        for i in 0..LINES_PER_BATCH {
            let n = b * LINES_PER_BATCH + i;
            // Monotonic timestamps per series keep Series inserts at the
            // append fast path.
            match workload {
                Workload::ManySeries => {
                    let series = n % 64;
                    body.push_str(&format!(
                        "cpu,hostname=t{thread}n{series:02},cpu=c{},socket=s0 busy={i},user={i} {}\n",
                        series % 4,
                        (n + 1) as i64 * 1_000
                    ));
                }
                Workload::HotSeries => {
                    // Interleave timestamps across threads so every insert
                    // lands near the tail of the sorted series regardless
                    // of scheduling order.
                    let ts = (n * 8 + thread + 1) as i64;
                    body.push_str(&format!(
                        "cpu,hostname=h0,cpu=c0,socket=s0 busy={i},user={i} {ts}\n"
                    ));
                }
            }
        }
        batches.push(body);
    }
    batches
}

/// One timed run: `threads` writers push their pre-parsed batches into a
/// fresh database. Parsing happens once, outside the timed region — the
/// benchmark isolates the storage-engine write path. Returns points per
/// second.
fn run_once(threads: usize, inputs: &[Vec<ParseOutcome<'_>>]) -> f64 {
    let db = Database::with_shards(DEFAULT_SHARDS);
    let start = Instant::now();
    std::thread::scope(|s| {
        for input in inputs.iter().take(threads) {
            let db = &db;
            s.spawn(move || {
                for parsed in input {
                    db.write_parsed_batch(black_box(&parsed.lines), WriteOptions::default(), 0);
                }
            });
        }
    });
    // point_count drains the staged buffers, so the run is charged for
    // its own drain work, not just for staging.
    black_box(db.point_count());
    let elapsed = start.elapsed().as_secs_f64();
    let points = (threads * BATCHES_PER_THREAD * LINES_PER_BATCH) as f64;
    points / elapsed
}

/// Median of `runs` runs.
fn measure(threads: usize, inputs: &[Vec<ParseOutcome<'_>>], runs: usize) -> f64 {
    median((0..runs).map(|_| run_once(threads, inputs)).collect())
}

/// Throughput at 1 and at 8 writers from `pairs` back-to-back pairs run
/// in alternating order after one warm-up run, so drift and a cold start
/// hit both sides alike. Returns the median at 1 writer, the median at 8
/// writers and the median of the per-pair 8/1 ratios.
fn measure_scaling(inputs: &[Vec<ParseOutcome<'_>>], pairs: usize) -> (f64, f64, f64) {
    black_box(run_once(8, inputs));
    let (mut ones, mut eights, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..pairs {
        let (one, eight) = if pair % 2 == 0 {
            let one = run_once(1, inputs);
            (one, run_once(8, inputs))
        } else {
            let eight = run_once(8, inputs);
            (run_once(1, inputs), eight)
        };
        ones.push(one);
        eights.push(eight);
        ratios.push(eight / one);
    }
    (median(ones), median(eights), median(ratios))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    v[v.len() / 2]
}

/// The line-protocol batches of 8 writers for one workload.
fn raw_inputs(workload: Workload) -> Vec<Vec<String>> {
    (0..8).map(|t| batches_for(workload, t)).collect()
}

fn parse_inputs(raw: &[Vec<String>]) -> Vec<Vec<ParseOutcome<'_>>> {
    raw.iter().map(|batches| batches.iter().map(|b| parse_batch(b)).collect()).collect()
}

struct Row {
    workload: &'static str,
    threads: usize,
    pts_per_s: f64,
}

/// Lines per collector batch in [`measure_wal_fsyncs_per_point`].
const WAL_LINES: usize = 20;

/// WAL fsyncs per acknowledged point, end to end, with fsync on: the
/// router coalesces queued collector batches into merged deliveries and
/// the WAL commits concurrent appends as one fsynced group. The
/// reference is one fsync per collector batch, `1 / WAL_LINES` per point.
fn measure_wal_fsyncs_per_point() -> f64 {
    const WRITERS: usize = 8;
    const BATCHES: usize = 40;
    /// Batches the router's forwarder merges per delivery under backlog
    /// (conservative: its cap is bytes-based and far higher than this).
    const COALESCE: usize = 4;

    let dir = std::env::temp_dir().join(format!("lms-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = StorageConfig::new(&dir);
    cfg.wal_fsync = true;
    let ix = Influx::open(Clock::simulated(Timestamp::from_secs(1_000)), DEFAULT_SHARDS, cfg)
        .expect("open persistent influx");
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let ix = ix.clone();
            s.spawn(move || {
                let mut pending = String::new();
                let mut queued = 0usize;
                for b in 0..BATCHES {
                    for i in 0..WAL_LINES {
                        let ts = ((t * BATCHES + b) * WAL_LINES + i + 1) as i64;
                        pending.push_str(&format!("cpu,hostname=h{t} busy={i} {ts}\n"));
                    }
                    queued += 1;
                    if queued == COALESCE || b + 1 == BATCHES {
                        ix.write_lines("lms", &pending, WriteOptions::default())
                            .expect("acked write");
                        pending.clear();
                        queued = 0;
                    }
                }
            });
        }
    });
    let fsyncs = ix.storage_stats().wal_fsyncs as f64;
    let _ = std::fs::remove_dir_all(&dir);
    fsyncs / (WRITERS * BATCHES * WAL_LINES) as f64
}

/// Ingest throughput with and without the background integrity scrubber
/// running concurrently, on a persistent database pre-seeded with sealed
/// segments (so the scrubber has real files to re-verify). The scrub
/// thread runs far hotter than production (a 256 KiB pass every 50 ms —
/// a ~5 MiB/s scan rate vs the default 8 MiB per 60 s), so passing the
/// 5% overhead gate here
/// leaves a wide margin for the deployed configuration.
/// Returns `(plain_pts_per_s, scrubbed_pts_per_s)`, each a median of 3.
fn measure_scrub_overhead() -> (f64, f64) {
    const WRITERS: usize = 4;
    const BATCHES: usize = 100;
    const LINES: usize = 500;

    let run = |scrub: bool, round: usize| -> f64 {
        let dir = std::env::temp_dir().join(format!(
            "lms-bench-scrub-{}-{}-{round}",
            std::process::id(),
            if scrub { "on" } else { "off" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = StorageConfig::new(&dir);
        // Scrub verification is whole-file granular, so cap WAL segments
        // at the pass budget — otherwise every pass overshoots its budget
        // by one 4 MiB frozen WAL file and the duty cycle explodes.
        cfg.wal_segment_bytes = 256 * 1024;
        let ix = Influx::open(Clock::simulated(Timestamp::from_secs(1_000)), DEFAULT_SHARDS, cfg)
            .expect("open persistent influx");
        // Seed sealed segments: five flushes of 2k points each.
        for r in 0..5 {
            let mut body = String::with_capacity(2_000 * 40);
            for i in 0..2_000 {
                body.push_str(&format!(
                    "seed,hostname=s{} v={i} {}\n",
                    i % 16,
                    (r * 2_000 + i + 1) as i64 * 1_000
                ));
            }
            ix.write_lines("lms", &body, WriteOptions::default()).expect("seed write");
            ix.flush_storage().expect("seed flush");
        }

        let stop = std::sync::atomic::AtomicBool::new(false);
        let pts_per_s = std::thread::scope(|s| {
            if scrub {
                let ix = ix.clone();
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let _ = ix.scrub_storage(256 * 1024);
                        std::thread::sleep(Duration::from_millis(50));
                    }
                });
            }
            let start = Instant::now();
            std::thread::scope(|w| {
                for t in 0..WRITERS {
                    let ix = ix.clone();
                    w.spawn(move || {
                        for b in 0..BATCHES {
                            let mut body = String::with_capacity(LINES * 40);
                            for i in 0..LINES {
                                let ts = ((t * BATCHES + b) * LINES + i + 1) as i64 * 1_000
                                    + 1_000_000_000_000;
                                body.push_str(&format!("cpu,hostname=h{t} busy={i} {ts}\n"));
                            }
                            ix.write_lines("lms", &body, WriteOptions::default())
                                .expect("acked write");
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            (WRITERS * BATCHES * LINES) as f64 / elapsed
        });
        let _ = std::fs::remove_dir_all(&dir);
        pts_per_s
    };

    // Paired runs with alternating order: single-run throughput on a
    // loaded machine swings far more than the 5% gate, but drift hits
    // both sides of a back-to-back pair equally, so the median of the
    // per-pair ratios isolates the scrubber's actual cost.
    let mut plains = Vec::new();
    let mut scrubbeds = Vec::new();
    let mut ratios = Vec::new();
    for round in 0..5 {
        let (plain, scrubbed) = if round % 2 == 0 {
            let p = run(false, round);
            (p, run(true, round))
        } else {
            let s = run(true, round);
            (run(false, round), s)
        };
        plains.push(plain);
        scrubbeds.push(scrubbed);
        ratios.push(scrubbed / plain);
    }
    let (p, r) = (median(plains), median(ratios));
    (p, p * r)
}

/// The checked-in batched@8 / batched@1 throughput ratio of `workload`.
fn baseline_scaling(doc: &Json, workload: &str) -> Option<f64> {
    doc.get("scaling_8_over_1")?.get(workload)?.as_f64()
}

/// Contention gate over `(writers, pts/s)` tiers for the batched
/// hot-series path. While added writers are backed by real cores,
/// throughput must be monotonically non-decreasing. Past the machine's
/// core count the writers time-share CPUs, so no scaling is physically
/// possible and the check degrades to a bounded-amplification floor:
/// per-point work under full contention may cost at most 2.5x the
/// best uncontended tier (the pre-group-commit write path failed this
/// at >5x).
fn contention_ok(tiers: &[(usize, f64)]) -> bool {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut ok = true;
    for w in tiers.windows(2) {
        let ((t0, p0), (t1, p1)) = (w[0], w[1]);
        if t1 <= cores && p1 < p0 {
            eprintln!(
                "FAIL: batched throughput decreases {t0}→{t1} writers with {cores} cores: \
                 {p0:.0} → {p1:.0} pts/s"
            );
            ok = false;
        }
    }
    let base = tiers
        .iter()
        .filter(|&&(t, _)| t <= cores)
        .map(|&(_, p)| p)
        .fold(tiers[0].1, f64::max);
    for &(t, p) in tiers.iter().filter(|&&(t, _)| t > cores) {
        if p < 0.4 * base {
            eprintln!(
                "FAIL: {t} writers on {cores} cores amplify per-point cost >2.5x: \
                 {p:.0} pts/s < 0.4 × {base:.0} pts/s"
            );
            ok = false;
        }
    }
    ok
}

/// CI smoke mode: fail fast on scaling and contention regressions.
fn run_quick() -> bool {
    let baseline = read_bench_file(BASELINE_PATH);
    let mut ok = true;
    for workload in [Workload::HotSeries, Workload::ManySeries] {
        let raw = raw_inputs(workload);
        let inputs = parse_inputs(&raw);
        // A same-run ratio: machine speed and load cancel out.
        let (batched_1, batched_8, now) = measure_scaling(&inputs, QUICK_PAIRS);
        let name = workload.name();
        println!("{name:<12} batched@1 {batched_1:>9.0} pts/s   batched@8 {batched_8:>9.0} pts/s");
        if workload == Workload::HotSeries {
            ok &= contention_ok(&[(1, batched_1), (8, batched_8)]);
        }
        println!("{name} batched@8/batched@1 = {now:.2}x");
        match baseline.as_ref().and_then(|doc| baseline_scaling(doc, name)) {
            Some(base) => {
                println!("{name} checked-in ratio {base:.2}x, gate {:.2}x", 0.7 * base);
                if now < 0.7 * base {
                    eprintln!(
                        "FAIL: {name} 8-writer scaling regressed >30% vs checked-in \
                         BENCH_ingest.json ({now:.2}x < 0.7 × {base:.2}x)"
                    );
                    ok = false;
                }
            }
            None => println!("note: no {name} baseline in BENCH_ingest.json; skipping ratio check"),
        }
    }

    let (plain, scrubbed) = measure_scrub_overhead();
    let overhead = (1.0 - scrubbed / plain) * 100.0;
    println!(
        "scrub overhead: plain {plain:>9.0} pts/s   scrubbed {scrubbed:>9.0} pts/s   ({overhead:.1}%, target < 5%)"
    );
    if scrubbed < 0.95 * plain {
        eprintln!(
            "FAIL: background scrub costs ingest more than 5% \
             ({scrubbed:.0} pts/s < 0.95 × {plain:.0} pts/s)"
        );
        ok = false;
    }
    if ok {
        println!("bench-smoke OK");
    }
    ok
}

fn run_full() {
    let mut rows = Vec::new();
    let mut scaling = Vec::new();

    for workload in [Workload::ManySeries, Workload::HotSeries] {
        let raw = raw_inputs(workload);
        let inputs = parse_inputs(&raw);
        let (at_1, at_8, ratio) = measure_scaling(&inputs, RUNS);
        let at_4 = measure(4, &inputs, RUNS);
        for (threads, pts_per_s) in [(1usize, at_1), (4, at_4), (8, at_8)] {
            println!("{:<12} threads={threads}  batched {pts_per_s:>9.0} pts/s", workload.name());
            rows.push(Row { workload: workload.name(), threads, pts_per_s });
        }
        println!("{:<12} batched@8/batched@1 = {ratio:.2}x", workload.name());
        scaling.push((workload.name(), rounded(ratio, 2)));
    }

    let grouped_fpp = measure_wal_fsyncs_per_point();
    let per_batch_fpp = 1.0 / WAL_LINES as f64;
    let reduction = per_batch_fpp / grouped_fpp.max(f64::MIN_POSITIVE);
    println!(
        "\nwal group commit @ 8 writers: {grouped_fpp:.4} fsyncs/pt vs {per_batch_fpp:.4} at one \
         fsync per batch — {reduction:.1}x fewer (target ≥ 10x)"
    );

    let (plain, scrubbed) = measure_scrub_overhead();
    println!(
        "scrub overhead @ {WRITERS} writers: plain {plain:.0} pts/s, scrubbed {scrubbed:.0} pts/s — {:.1}% (target < 5%)",
        (1.0 - scrubbed / plain) * 100.0,
        WRITERS = 4
    );

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    update_bench_file(BASELINE_PATH, |doc| {
        doc.set(
            "config",
            Json::obj([
                ("lines_per_batch", Json::from(LINES_PER_BATCH as i64)),
                ("batches_per_thread", Json::from(BATCHES_PER_THREAD as i64)),
                ("runs", Json::from(RUNS as i64)),
                ("default_shards", Json::from(DEFAULT_SHARDS as i64)),
                ("cores", Json::from(cores as i64)),
            ]),
        );
        doc.set(
            "engine",
            Json::str("write_parsed_batch: default stripes, per-shard append buffers"),
        );
        doc.set(
            "wal_group_commit",
            Json::obj([
                ("writers", Json::from(8i64)),
                ("per_batch_fsyncs_per_point", rounded(per_batch_fpp, 5)),
                ("grouped_fsyncs_per_point", rounded(grouped_fpp, 5)),
                ("reduction", rounded(reduction, 1)),
            ]),
        );
        doc.set(
            "scrub_overhead",
            Json::obj([
                ("writers", Json::from(4i64)),
                ("plain_pts_per_s", rounded(plain, 0)),
                ("scrubbed_pts_per_s", rounded(scrubbed, 0)),
                ("overhead_pct", rounded((1.0 - scrubbed / plain) * 100.0, 2)),
            ]),
        );
        doc.set("scaling_8_over_1", Json::obj(scaling));
        doc.set(
            "results",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("workload", Json::str(r.workload)),
                    ("threads", Json::from(r.threads as i64)),
                    ("batched_pts_per_s", rounded(r.pts_per_s, 0)),
                ])
            })),
        );
    });

    let hot = |threads: usize| {
        rows.iter()
            .find(|r| r.workload == "hot-series" && r.threads == threads)
            .expect("hot-series row")
            .pts_per_s
    };
    println!(
        "acceptance: hot-series batched @ 8 writers = {:.0} pts/s (target ≥ 1M): {}, \
         scaling 1→4→8 on {cores} cores = {:.0} → {:.0} → {:.0}: {}",
        hot(8),
        if hot(8) >= 1_000_000.0 { "OK" } else { "FAIL" },
        hot(1),
        hot(4),
        hot(8),
        if contention_ok(&[(1, hot(1)), (4, hot(4)), (8, hot(8))]) { "OK" } else { "FAIL" },
    );
}

fn main() {
    let quick = std::env::var("LMS_BENCH_QUICK").is_ok_and(|v| v == "1");
    if quick {
        if !run_quick() {
            std::process::exit(1);
        }
        return;
    }
    run_full();
}
