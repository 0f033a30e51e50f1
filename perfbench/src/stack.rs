//! The system under test, hosted in-process on loopback: `lms-influxd`
//! nodes (`Influx::open` + `InfluxServer`) behind an `lms-router`
//! (`Router` + `RouterServer`), configured like the daemons.

use crate::trace::Tracer;
use lms_http::HttpClient;
use lms_influx::{Influx, InfluxServer, RollupPolicy, StorageConfig, StorageWorker};
use lms_router::{ClusterConfig, Router, RouterConfig, RouterServer};
use lms_util::{Clock, Result, Timestamp};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock stripes per database, as `lms-influxd` opens them.
pub const SHARDS: usize = 8;
/// The database agents write to.
pub const DB: &str = "lms";

/// When a node seals its heads: at `points` head points or every
/// `interval`, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct FlushPolicy {
    pub points: usize,
    pub interval: Duration,
}

/// The storage configuration of every node: the daemon's defaults (WAL
/// group commit without fsync) and the given flush policy. Without fsync
/// the write path is CPU work only; on a shared virtual disk an fsync's
/// latency follows other tenants' disk use, not the program.
pub fn storage_config(dir: &Path, flush: FlushPolicy) -> StorageConfig {
    StorageConfig {
        wal_fsync: false,
        flush_points: flush.points,
        flush_interval: flush.interval,
        ..StorageConfig::new(dir)
    }
}

/// One storage node.
pub struct Node {
    pub influx: Influx,
    pub dir: PathBuf,
    pub addr: SocketAddr,
    server: Option<InfluxServer>,
    worker: Option<StorageWorker>,
}

impl Node {
    /// Opens a persistent node under `dir` with rollups on; its storage
    /// worker is started by the [`Stack`].
    pub fn start(dir: PathBuf, clock: Clock, flush: FlushPolicy) -> Result<Node> {
        let influx = Influx::open(clock, SHARDS, storage_config(&dir, flush))?;
        influx.create_database(DB);
        influx.enable_rollups(RollupPolicy::default())?;
        let server = InfluxServer::start("127.0.0.1:0", influx.clone())?;
        let addr = server.addr();
        Ok(Node {
            influx,
            dir,
            addr,
            server: Some(server),
            worker: None,
        })
    }

    /// Stops the storage worker; its final flush completes first.
    pub fn stop_worker(&mut self) {
        if let Some(worker) = self.worker.take() {
            worker.stop();
        }
    }

    /// Stops the worker and the HTTP server, handing back the storage
    /// handle (dropping it closes the node).
    pub fn shutdown(mut self) -> Influx {
        self.stop_worker();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.influx
    }

    /// Field values stored across every database of the node.
    pub fn stored_points(&self) -> usize {
        self.influx
            .database_names()
            .iter()
            .map(|db| self.influx.point_count(db))
            .sum()
    }
}

/// Nodes plus the router in front of them.
pub struct Stack {
    pub clock: Clock,
    pub nodes: Vec<Node>,
    pub router: RouterServer,
    pub replication: usize,
    flush: FlushPolicy,
    tracer: Option<Arc<Tracer>>,
    worker: Option<BenchWorker>,
}

impl Stack {
    /// Starts `nodes` nodes under `root` and a router with replication
    /// `replication` and per-user duplication `per_user`. With a `tracer`
    /// the nodes' storage work is driven by a span-recording
    /// [`BenchWorker`] instead of their own workers.
    pub fn start(
        root: &Path,
        nodes: usize,
        replication: usize,
        per_user: bool,
        flush: FlushPolicy,
        clock: Clock,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Stack> {
        let mut started = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let dir = root.join(format!("node{i}"));
            started.push(Node::start(dir, clock.clone(), flush)?);
        }
        let cluster = ClusterConfig::new(started.iter().map(|n| n.addr).collect(), replication);
        let config = RouterConfig {
            per_user,
            ..RouterConfig::default()
        };
        let router = Router::new_cluster(cluster, config, clock.clone(), None)?;
        let router = RouterServer::start("127.0.0.1:0", Arc::new(router))?;
        let mut stack = Stack {
            clock,
            nodes: started,
            router,
            replication,
            flush,
            tracer,
            worker: None,
        };
        stack.start_workers();
        Ok(stack)
    }

    fn start_workers(&mut self) {
        match &self.tracer {
            Some(t) => {
                let nodes = self.nodes.iter().map(|n| n.influx.clone()).collect();
                self.worker = Some(BenchWorker::spawn(nodes, self.flush, t.clone()));
            }
            None => {
                for node in &mut self.nodes {
                    node.worker = node.influx.spawn_storage_worker();
                }
            }
        }
    }

    /// Lets background storage work finish: stops the workers (each ends
    /// with a flush and rollup) and starts them afresh, idle.
    pub fn quiesce(&mut self) {
        self.stop_workers();
        self.start_workers();
    }

    pub fn router(&self) -> &Arc<Router> {
        self.router.router()
    }

    /// Signals a job start through the router's HTTP API, with the clock
    /// at the job's start so its annotation events land there.
    pub fn start_job(&self, job: &str, user: &str, hosts: &[String], at: Timestamp) -> Result<()> {
        self.clock.set(at);
        let mut http = HttpClient::connect(self.router.addr())?;
        let target = format!(
            "/signal/start?job={job}&user={user}&hosts={}",
            hosts.join(",")
        );
        http.post_text(&target, "")?.into_result().map(drop)
    }

    /// Waits until the router has delivered everything it acknowledged.
    pub fn drain(&self) -> bool {
        self.router().flush(Duration::from_secs(60))
    }

    /// Stops storage work on every node: the nodes' own workers or the
    /// benchmark's, each ending with a flush.
    pub fn stop_workers(&mut self) {
        for node in &mut self.nodes {
            node.stop_worker();
        }
        if let Some(worker) = self.worker.take() {
            worker.stop();
        }
    }

    /// Shuts everything down, router first.
    pub fn shutdown(mut self) {
        self.stop_workers();
        self.router.shutdown();
        for node in self.nodes {
            drop(node.shutdown());
        }
    }
}

/// The storage worker's loop, run by the benchmark in traced passes so
/// flush, rollup and compaction are timed as spans: every 200 ms, flush a
/// database holding `flush_points` head points (or every
/// `flush_interval`), roll up what was sealed, then compact if needed.
/// Stopping it runs one last pass that flushes every database.
pub struct BenchWorker {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl BenchWorker {
    fn spawn(nodes: Vec<Influx>, flush: FlushPolicy, tracer: Arc<Tracer>) -> BenchWorker {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let cfg = storage_config(Path::new("."), flush);
        let thread = std::thread::spawn(move || {
            let pass = |due: bool| {
                for ix in &nodes {
                    for name in ix.database_names() {
                        let Some(db) = ix.database(&name) else {
                            continue;
                        };
                        let heads = db.head_point_count();
                        if heads > 0 && (due || heads >= cfg.flush_points) {
                            let flushed = tracer.span("influx.flush", None, |_| db.flush_storage());
                            if flushed.is_ok() {
                                let _ = tracer
                                    .span("influx.rollup_pass", None, |_| ix.rollup_pass(&name));
                            }
                        }
                        if db.engine().is_some_and(|e| e.needs_compaction()) {
                            let _ = tracer.span("influx.compact", None, |_| db.compact_storage());
                        }
                    }
                }
            };
            let mut last_flush = Instant::now();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200).min(cfg.flush_interval));
                let due = last_flush.elapsed() >= cfg.flush_interval;
                pass(due);
                if due {
                    last_flush = Instant::now();
                }
            }
            pass(true);
        });
        BenchWorker { stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .expect("benchmark storage worker panicked");
    }
}
