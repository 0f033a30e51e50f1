//! Load generators: the open-loop agent fleet with its visibility prober,
//! and the dashboard reader.

use crate::gen::{Request, MARKER, MARKER_T0};
use crate::stack::DB;
use crate::trace::{TracedSource, Tracer};
use lms_analysis::evaluation::NodePeaks;
use lms_dashboard::render::RenderOptions;
use lms_dashboard::{JobInfo, TemplateStore, ViewerAgent};
use lms_http::HttpClient;
use lms_influx::{InfluxClient, QueryResult};
use lms_util::rng::XorShift64;
use lms_util::{Clock, Json, Result, Timestamp};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Per-request I/O timeout. A request that fails or times out is
/// recorded with this latency, so it misses any latency limit.
pub const TIMEOUT: Duration = Duration::from_secs(5);
pub const PENALTY_MS: f64 = 5000.0;
/// A marker not visible this long after its batch was acknowledged is
/// recorded as missing.
const VISIBLE_WAIT: Duration = Duration::from_secs(5);
/// Visibility polls are spaced uniformly at random within this range, so
/// their phase cannot lock onto the send schedule and bias a run.
const POLL_GAP_MS: (f64, f64) = (1.0, 5.0);
/// The writer sleeps until this close to a send, then spins, so sleep
/// overshoot does not show up as latency.
const SPIN: Duration = Duration::from_micros(200);

pub const PEAKS: NodePeaks = NodePeaks {
    flops_mflops: 500_000.0,
    membw_mbytes: 100_000.0,
};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn client(addr: SocketAddr) -> Result<HttpClient> {
    let mut http = HttpClient::connect(addr)?;
    http.set_timeout(TIMEOUT);
    Ok(http)
}

/// What the agent fleet saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Per request, from its scheduled send time to the response.
    pub ack_ms: Vec<f64>,
    /// Per marker batch, from its scheduled send time until a router
    /// query returned the marker.
    pub visible_ms: Vec<f64>,
    /// How late each request was sent.
    pub late_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Indices into the plan of acknowledged requests.
    pub acked: Vec<usize>,
    pub lines_acked: usize,
    pub bytes_acked: usize,
}

/// Markers acknowledged but not yet seen by a query, by sequence number.
struct MarkerPoll {
    outstanding: BTreeMap<u64, Instant>,
    next: Instant,
    gaps: XorShift64,
    visible_ms: Vec<f64>,
}

impl MarkerPoll {
    /// One router query for every marker at or after the oldest
    /// outstanding one; records the visibility of each newly seen marker.
    fn poll(&mut self, http: &mut HttpClient, tracer: &Tracer) {
        let Some((&oldest, _)) = self.outstanding.first_key_value() else {
            return;
        };
        let q = format!(
            "SELECT seq FROM {MARKER} WHERE time >= {}",
            MARKER_T0 + oldest as i64
        );
        let target = format!("/query?db={DB}&q={}", lms_http::url::percent_encode(&q));
        let answer = tracer.span("write.visibility_poll", None, |_| http.get(&target));
        let seen = Instant::now();
        let gap = self.gaps.range_f64(POLL_GAP_MS.0, POLL_GAP_MS.1);
        self.next = seen + Duration::from_secs_f64(gap / 1e3);
        let Ok(resp) = answer else { return };
        let Ok(result) = Json::parse(&resp.body_str()).and_then(|j| QueryResult::from_json(&j))
        else {
            return;
        };
        for series in &result.series {
            for row in &series.values {
                let Some(seq) = row.get(1).and_then(Json::as_f64) else {
                    continue;
                };
                if let Some(sched) = self.outstanding.remove(&(seq as u64)) {
                    self.visible_ms.push(ms(seen - sched));
                }
            }
        }
    }
}

/// The visibility prober, a client thread with a connection of its own:
/// takes acknowledged markers from `acked` and polls for them. Once the
/// writer is done it polls until every marker is seen or [`VISIBLE_WAIT`]
/// passes; markers still unseen then count as missing.
fn probe(
    addr: SocketAddr,
    acked: mpsc::Receiver<(u64, Instant)>,
    tracer: &Tracer,
) -> Result<Vec<f64>> {
    let mut http = client(addr)?;
    let mut poll = MarkerPoll {
        outstanding: BTreeMap::new(),
        next: Instant::now(),
        gaps: XorShift64::new(0x5eed),
        visible_ms: Vec::new(),
    };
    let mut give_up = None;
    loop {
        let wait = poll.next.saturating_duration_since(Instant::now());
        let received = if poll.outstanding.is_empty() && give_up.is_none() {
            acked
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected)
        } else {
            acked.recv_timeout(wait)
        };
        match received {
            Ok((m, sched)) => {
                poll.outstanding.insert(m, sched);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let deadline = *give_up.get_or_insert_with(|| Instant::now() + VISIBLE_WAIT);
                if poll.outstanding.is_empty() || Instant::now() >= deadline {
                    poll.visible_ms
                        .extend(poll.outstanding.values().map(|_| PENALTY_MS));
                    return Ok(poll.visible_ms);
                }
                std::thread::sleep(wait);
            }
        }
        if !poll.outstanding.is_empty() && Instant::now() >= poll.next {
            poll.poll(&mut http, tracer);
        }
    }
}

/// Sends `plan` open loop at `rate` requests per second over one
/// connection to `addr`, each request timed from its scheduled send time,
/// while a prober thread measures when each acknowledged marker becomes
/// visible through a router query. The simulated `clock` follows the
/// newest acknowledged sample, so queries see data time as the present.
pub fn run_writer(
    addr: SocketAddr,
    plan: &[Request],
    rate: f64,
    tracer: &Tracer,
    clock: &Clock,
) -> Result<WriteLog> {
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let prober = scope.spawn(move || probe(addr, rx, tracer));
        let mut http = client(addr)?;
        let mut log = WriteLog::default();
        let start = Instant::now();
        for (i, req) in plan.iter().enumerate() {
            let sched = start + Duration::from_secs_f64(i as f64 / rate);
            loop {
                let now = Instant::now();
                if now >= sched {
                    break;
                }
                if sched - now > SPIN {
                    std::thread::sleep(sched - now - SPIN);
                } else {
                    std::hint::spin_loop();
                }
            }
            log.late_ms.push(ms(Instant::now() - sched));
            log.attempted += 1;
            let resp = tracer.span("write.request", None, |_| {
                http.post_text(&req.target, &req.body)
            });
            let done = Instant::now();
            if resp.is_ok_and(|r| r.status == 204) {
                log.ack_ms.push(ms(done - sched));
                log.acked.push(i);
                log.lines_acked += req.lines;
                log.bytes_acked += req.body.len();
                if let Some(last) = req.samples().last().filter(|&t| t > clock.now().nanos()) {
                    clock.set(Timestamp(last));
                }
                if let Some(m) = req.marker {
                    tx.send((m, sched)).expect("prober outlives the writer");
                }
            } else {
                log.failed += 1;
                log.ack_ms.push(PENALTY_MS);
                if req.marker.is_some() {
                    log.visible_ms.push(PENALTY_MS);
                }
            }
        }
        drop(tx);
        log.visible_ms
            .extend(prober.join().expect("prober thread panicked")?);
        Ok(log)
    })
}

/// How the dashboard reader paces its refreshes.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop for `for_`: the next refresh starts when the previous
    /// one ends.
    Closed { for_: Duration },
    /// Fixed rate: one refresh every `period`, timed from its scheduled
    /// start, until `for_` has passed.
    Every { period: Duration, for_: Duration },
}

/// What the dashboard reader saw.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Per refresh, from its scheduled start to its end.
    pub refresh_ms: Vec<f64>,
    /// Per refresh, from its actual start to its end.
    pub service_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub queries: usize,
}

/// Refreshes job dashboards through the router's `/query` over one
/// connection, cycling through `rotation`: a job's refresh is
/// `ViewerAgent::job_dashboard` followed by `render_dashboard`, and `None`
/// is the admin overview of all jobs. A refresh fails on an error or a
/// partial answer. Running jobs (no end) are shown up to `clock`'s now.
pub fn run_reader(
    addr: SocketAddr,
    jobs: &[JobInfo],
    rotation: &[Option<usize>],
    pace: Pace,
    tracer: &Tracer,
    clock: &Clock,
) -> Result<ReadLog> {
    let agent = ViewerAgent::new(DB, TemplateStore::builtin(), PEAKS);
    let mut client = InfluxClient::connect(addr)?;
    client.set_timeout(TIMEOUT);
    let mut src = TracedSource::new(client, tracer);
    let mut log = ReadLog::default();
    let start = Instant::now();
    for i in 0.. {
        let sched = match pace {
            Pace::Closed { for_ } => {
                if start.elapsed() >= for_ {
                    break;
                }
                Instant::now()
            }
            Pace::Every { period, for_ } => {
                let sched = start + period * i as u32;
                if sched - start >= for_ {
                    break;
                }
                if let Some(wait) = sched.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sched
            }
        };
        let now = clock.now();
        let began = Instant::now();
        src.partial = false;
        let queries_before = src.queries;
        let outcome = tracer.span("refresh", None, |refresh| -> Result<()> {
            let Some(j) = rotation[i % rotation.len()] else {
                src.parent = refresh;
                return agent.admin_view(&mut src, jobs, now).map(drop);
            };
            let dashboard = tracer.span("dashboard.generate", refresh, |id| {
                src.parent = id;
                agent.job_dashboard(&mut src, &jobs[j], now)
            })?;
            tracer
                .span("dashboard.render", refresh, |id| {
                    src.parent = id;
                    agent.render_dashboard(&mut src, &dashboard, RenderOptions::default())
                })
                .map(drop)
        });
        log.attempted += 1;
        log.queries += src.queries - queries_before;
        log.service_ms.push(ms(began.elapsed()));
        if outcome.is_ok() && !src.partial {
            log.refresh_ms.push(ms(Instant::now() - sched));
        } else {
            log.failed += 1;
            log.refresh_ms.push(PENALTY_MS);
        }
    }
    Ok(log)
}
