//! Worker-process side of the distributed runtime.
//!
//! A worker is a single-threaded bolt-execution server.  It connects to
//! the coordinator, introduces itself with `Hello`, receives an `Assign`
//! naming a topology from its [`TopologyRegistry`] and the bolt tasks it
//! owns, then loops: execute delivered tuples, answer each `TupleBatch`
//! with one `ResultBatch` (results in delivery order), checkpoint stateful
//! tasks on the configured interval, tick bolts, and obey
//! `Flush`/`RestoreState`/`Shutdown`.
//!
//! With checkpoints on, acks under `ExactlyOnceEffect` / `AtLeastOnce`
//! recovery are **deferred**: a stateful task's input is reported
//! `deferred` and its ack withheld until a `CheckpointDeposit` covering it
//! has been sent (frames are processed in order on both sides, so
//! deposit-then-ack-flush guarantees the coordinator never acks an input
//! whose effect could be lost with the worker).  `ExactlyOnceEffect`
//! additionally keeps a replay-dedup set of applied spout message ids so a
//! redelivered tuple is acknowledged without being applied twice.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::codec::{Frame, InternTable, WireEmission, WireMetric, WireResult, WireSpan};
use super::transport::{Conn, ConnStats, Endpoint, FrameReader, FrameWriter};
use super::{recovery_from_byte, span_kind_to_byte, LastWordsLine, CONNECT_TIMEOUT};
use crate::component::{Bolt, BoltOutput, Emission, TopologyContext};
use crate::error::{Error, Result};
use crate::rt::{RecoveryMode, SnapshotKind, StateSnapshot};
use crate::telemetry::{Counter, Gauge, Registry, SampleValue, Tracer, HOT_PATH_TELEMETRY};
use crate::topology::{ComponentKind, TaskId, Topology};

/// Replay-dedup sets are FIFO-capped at this many message ids (matches the
/// threaded runtime's bound).
const DEDUP_CAP: usize = 65_536;

/// Builds a topology from a registered name plus an opaque argument
/// string.  Coordinator and workers run the same builder, which is what
/// makes their routing and stream-intern tables identical.
pub type TopologyBuilderFn = Arc<dyn Fn(&str) -> Result<Topology> + Send + Sync>;

/// Name → topology builder map shared by the coordinator and the worker
/// binary.
#[derive(Default, Clone)]
pub struct TopologyRegistry {
    builders: HashMap<String, TopologyBuilderFn>,
}

impl TopologyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name`; the builder receives the `args` string passed to
    /// [`submit`](super::submit) verbatim.
    pub fn register<F>(&mut self, name: &str, builder: F)
    where
        F: Fn(&str) -> Result<Topology> + Send + Sync + 'static,
    {
        self.builders.insert(name.to_owned(), Arc::new(builder));
    }

    /// Builds the named topology.
    pub fn build(&self, name: &str, args: &str) -> Result<Topology> {
        match self.builders.get(name) {
            Some(f) => f(args),
            None => Err(Error::Config(format!("topology `{name}` not registered"))),
        }
    }

    /// Registered topology names, unordered.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.builders.keys().map(String::as_str)
    }
}

/// Serializes a [`StateSnapshot`] into a `CheckpointDeposit` payload
/// (1 kind byte + snapshot bytes).
pub(crate) fn snapshot_to_payload(snap: &StateSnapshot) -> Vec<u8> {
    let mut payload = Vec::with_capacity(snap.bytes.len() + 1);
    payload.push(match snap.kind {
        SnapshotKind::Full => 0,
        SnapshotKind::Delta => 1,
    });
    payload.extend_from_slice(&snap.bytes);
    payload
}

/// Inverse of [`snapshot_to_payload`].
pub(crate) fn snapshot_from_payload(payload: &[u8]) -> Result<StateSnapshot> {
    let (&kind, bytes) = payload
        .split_first()
        .ok_or_else(|| Error::Runtime("empty snapshot payload".into()))?;
    Ok(StateSnapshot {
        kind: match kind {
            0 => SnapshotKind::Full,
            1 => SnapshotKind::Delta,
            _ => return Err(Error::Runtime("bad snapshot kind".into())),
        },
        bytes: bytes.to_vec(),
    })
}

/// One bolt task hosted by this worker.
struct TaskState {
    task: u32,
    component: usize,
    bolt: Box<dyn Bolt>,
    stateful: bool,
    /// Delivery tokens whose acks wait for the next checkpoint.
    deferred: Vec<u64>,
    /// Applied spout message ids (`ExactlyOnceEffect` only).
    dedup_set: HashSet<u64>,
    dedup_fifo: VecDeque<u64>,
    last_ckpt: Instant,
}

impl TaskState {
    fn remember_applied(&mut self, id: u64) {
        if self.dedup_set.insert(id) {
            self.dedup_fifo.push_back(id);
            if self.dedup_fifo.len() > DEDUP_CAP {
                if let Some(old) = self.dedup_fifo.pop_front() {
                    self.dedup_set.remove(&old);
                }
            }
        }
    }
}

/// Runs the worker loop if `DSDPS_DIST_ADDR` is set, i.e. if this process
/// was launched as a distributed worker.  Call this at the top of the
/// worker binary's `main` (or inside a dedicated test entry point) and
/// return immediately when it yields `true`.  Exits the process with a
/// nonzero status on a worker-side error.
pub fn maybe_worker_from_env(registry: &TopologyRegistry) -> bool {
    let Ok(addr) = std::env::var("DSDPS_DIST_ADDR") else {
        return false;
    };
    let worker: u32 = std::env::var("DSDPS_DIST_WORKER")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let endpoint = match Endpoint::from_env(&addr) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("dsdps worker: bad DSDPS_DIST_ADDR: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = worker_main(registry, &endpoint, worker) {
        eprintln!("dsdps worker {worker}: {e}");
        std::process::exit(1);
    }
    true
}

/// Connects to the coordinator at `endpoint` and serves bolt tasks until
/// `Shutdown` (or the connection drops).
pub fn worker_main(registry: &TopologyRegistry, endpoint: &Endpoint, worker: u32) -> Result<()> {
    // Span-clock epoch: every worker-side timestamp is µs since this
    // instant.  Its reading travels in `Hello` so the coordinator can
    // estimate the offset to its own span clock and re-base shipped spans.
    let t0 = Instant::now();
    let conn = Conn::connect(endpoint, CONNECT_TIMEOUT)?;
    let writer_conn = conn
        .try_clone()
        .map_err(|e| Error::Runtime(format!("clone socket: {e}")))?;
    let stats = ConnStats::new();
    let mut reader = FrameReader::new(conn);
    reader.set_stats(Arc::clone(&stats));
    let mut writer = FrameWriter::new(writer_conn);
    writer.set_stats(Arc::clone(&stats));
    writer.send(&Frame::Hello {
        worker,
        pid: std::process::id(),
        clock_us: t0.elapsed().as_micros() as u64,
    })?;

    reader
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| Error::Runtime(format!("set timeout: {e}")))?;
    let Some(assign) = reader.read_frame()? else {
        return Err(Error::Runtime("timed out waiting for assignment".into()));
    };
    let Frame::Assign {
        worker: assigned_to,
        topology: topo_name,
        args,
        tasks,
        recovery,
        ckpt_interval_us,
        tick_interval_us,
        metrics_interval_us,
        task_count,
        stream_count,
    } = assign
    else {
        return Err(Error::Runtime(format!(
            "expected assign, got {}",
            assign.kind()
        )));
    };
    if assigned_to != worker {
        return Err(Error::Runtime(format!(
            "assignment for worker {assigned_to} delivered to worker {worker}"
        )));
    }
    let recovery = recovery_from_byte(recovery)
        .ok_or_else(|| Error::Runtime("unknown recovery mode".into()))?;
    let topology = registry.build(&topo_name, &args)?;
    let intern = InternTable::new(&topology);
    if topology.task_count() != task_count as usize || intern.len() != stream_count as usize {
        return Err(Error::Runtime(format!(
            "topology fingerprint mismatch for `{topo_name}`: worker built \
             {} tasks / {} streams, coordinator has {task_count} / {stream_count}",
            topology.task_count(),
            intern.len()
        )));
    }

    let mut states: HashMap<u32, TaskState> = HashMap::new();
    for &task in &tasks {
        let comp_id = topology.component_of_task(TaskId(task as usize));
        let comp = topology.component(comp_id);
        let ComponentKind::Bolt(factory) = &comp.kind else {
            return Err(Error::Runtime(format!(
                "spout task t{task} assigned to a worker"
            )));
        };
        let mut bolt = factory();
        bolt.prepare(&TopologyContext {
            component: comp.name.clone(),
            task_index: task as usize - comp.base_task.0,
            parallelism: comp.parallelism,
        });
        // A zero interval means checkpoints are off: every task then runs
        // stateless, acking at once and depositing nothing.
        let stateful = ckpt_interval_us > 0 && bolt.stateful().is_some();
        states.insert(
            task,
            TaskState {
                task,
                component: comp_id.0,
                bolt,
                stateful,
                deferred: Vec::new(),
                dedup_set: HashSet::new(),
                dedup_fifo: VecDeque::new(),
                last_ckpt: Instant::now(),
            },
        );
    }

    let ckpt_interval = Duration::from_micros(ckpt_interval_us.max(1));
    let tick_interval = (tick_interval_us > 0).then(|| Duration::from_micros(tick_interval_us));
    let push_interval = (HOT_PATH_TELEMETRY && metrics_interval_us > 0)
        .then(|| Duration::from_micros(metrics_interval_us));
    let mut last_tick = Instant::now();
    let mut last_push = Instant::now();
    reader
        .set_read_timeout(Some(Duration::from_millis(10)))
        .map_err(|e| Error::Runtime(format!("set timeout: {e}")))?;

    // Local telemetry: hop spans are recorded for exactly the trees the
    // coordinator sampled (the decision arrives as `WireTuple::trace_root`)
    // into per-task ring buffers drained by every `SpanBatch` push; the
    // label-free registry ships counter deltas on the same cadence.
    let span_meta: Vec<(String, usize)> = (0..topology.task_count())
        .map(|t| {
            let comp = topology.component(topology.component_of_task(TaskId(t)));
            (comp.name.clone(), worker as usize)
        })
        .collect();
    let tracer = Tracer::new(1.0, topology.task_count() + 1, span_meta);
    let local_registry = Registry::new();
    let metrics = WorkerMetrics::new(&local_registry);
    let mut last_pushed: HashMap<(String, String), u64> = HashMap::new();
    let mut batch_seq: u64 = 0;

    let serve = AssertUnwindSafe(|| -> Result<()> {
        loop {
            match reader.read_frame()? {
                Some(Frame::TupleBatch { items }) => {
                    batch_seq += 1;
                    let batch_recv = Instant::now();
                    if HOT_PATH_TELEMETRY {
                        metrics.batches.inc();
                    }
                    let mut results = Vec::with_capacity(items.len());
                    for item in items {
                        let Some(ts) = states.get_mut(&item.dest_task) else {
                            results.push(WireResult {
                                token: item.token,
                                failed: true,
                                deferred: false,
                                emissions: vec![],
                            });
                            continue;
                        };
                        // Exactly-once: a replay of an already-applied input is
                        // acknowledged (deferred, like any stateful input) but
                        // not applied again.
                        if ts.stateful && recovery == RecoveryMode::ExactlyOnceEffect {
                            if let Some(id) = item.dedup {
                                if ts.dedup_set.contains(&id) {
                                    ts.deferred.push(item.token);
                                    results.push(WireResult {
                                        token: item.token,
                                        failed: false,
                                        deferred: true,
                                        emissions: vec![],
                                    });
                                    continue;
                                }
                            }
                        }
                        let tuple = match intern.tuple(item.stream, item.values) {
                            Ok(t) => t,
                            Err(_) => {
                                results.push(WireResult {
                                    token: item.token,
                                    failed: true,
                                    deferred: false,
                                    emissions: vec![],
                                });
                                continue;
                            }
                        };
                        let mut out = BoltOutput::new();
                        out.set_now(t0.elapsed().as_secs_f64());
                        let exec_t =
                            (HOT_PATH_TELEMETRY && item.trace_root.is_some()).then(Instant::now);
                        ts.bolt.execute(&tuple, &mut out);
                        let (emissions, failed) = out.drain();
                        if let (Some(root), Some(started)) = (item.trace_root, exec_t) {
                            tracer.record_hop(
                                item.dest_task as usize,
                                root,
                                item.dest_task as usize,
                                started.duration_since(t0).as_micros() as u64,
                                started.duration_since(batch_recv).as_micros() as u64,
                                started.elapsed().as_micros() as u64,
                                batch_seq,
                            );
                        }
                        if HOT_PATH_TELEMETRY {
                            metrics.executed.inc();
                            metrics.emitted.add(emissions.len() as u64);
                        }
                        let deferred =
                            !failed && ts.stateful && recovery != RecoveryMode::Approximate;
                        if deferred {
                            ts.deferred.push(item.token);
                            if recovery == RecoveryMode::ExactlyOnceEffect {
                                if let Some(id) = item.dedup {
                                    ts.remember_applied(id);
                                }
                            }
                        }
                        let component = ts.component;
                        results.push(WireResult {
                            token: item.token,
                            failed,
                            deferred,
                            emissions: convert_emissions(&intern, component, emissions),
                        });
                    }
                    writer.send(&Frame::ResultBatch { items: results })?;
                }
                Some(Frame::RestoreState {
                    task,
                    payload,
                    dedup,
                }) => {
                    let start = Instant::now();
                    let ok = match states.get_mut(&task) {
                        Some(ts) => {
                            ts.dedup_set = dedup.iter().copied().collect();
                            ts.dedup_fifo = dedup.into();
                            match payload {
                                Some(p) => match (snapshot_from_payload(&p), ts.bolt.stateful()) {
                                    (Ok(snap), Some(state)) => state.restore(&snap, &[]).is_ok(),
                                    _ => false,
                                },
                                // Nothing checkpointed yet: fresh state is the
                                // correct restore target.
                                None => true,
                            }
                        }
                        None => false,
                    };
                    writer.send(&Frame::StateRestored {
                        task,
                        ok,
                        latency_us: start.elapsed().as_micros() as u64,
                    })?;
                }
                Some(Frame::Flush { seq }) => {
                    for ts in states.values_mut() {
                        checkpoint_task(ts, &mut writer, ckpt_interval, true, &metrics)?;
                    }
                    writer.send(&Frame::Flushed { seq })?;
                }
                Some(Frame::Shutdown) => {
                    // Final push so spans and deltas recorded since the last
                    // interval still reach the coordinator's merged view.
                    if push_interval.is_some() {
                        push_telemetry(
                            worker,
                            &mut writer,
                            &tracer,
                            &local_registry,
                            &metrics,
                            &stats,
                            t0,
                            &mut last_pushed,
                        )?;
                    }
                    break;
                }
                Some(_) => {} // Unexpected direction: ignore.
                None => {}    // Read timeout: fall through to periodic work.
            }

            for ts in states.values_mut() {
                checkpoint_task(ts, &mut writer, ckpt_interval, false, &metrics)?;
            }
            if let Some(interval) = tick_interval {
                if last_tick.elapsed() >= interval {
                    last_tick = Instant::now();
                    for ts in states.values_mut() {
                        let mut out = BoltOutput::new();
                        out.set_now(t0.elapsed().as_secs_f64());
                        ts.bolt.tick(&mut out);
                        let (emissions, _) = out.drain();
                        if !emissions.is_empty() {
                            let component = ts.component;
                            writer.send(&Frame::TickEmissions {
                                task: ts.task,
                                emissions: convert_emissions(&intern, component, emissions),
                            })?;
                        }
                    }
                }
            }
            if let Some(interval) = push_interval {
                if last_push.elapsed() >= interval {
                    last_push = Instant::now();
                    push_telemetry(
                        worker,
                        &mut writer,
                        &tracer,
                        &local_registry,
                        &metrics,
                        &stats,
                        t0,
                        &mut last_pushed,
                    )?;
                }
            }
        }
        Ok(())
    });

    match std::panic::catch_unwind(serve) {
        Ok(Ok(())) => {
            for ts in states.values_mut() {
                ts.bolt.cleanup();
            }
            Ok(())
        }
        Ok(Err(e)) => {
            emit_last_words(&mut writer, worker, classify_error(&e), &e.to_string());
            Err(e)
        }
        Err(payload) => {
            let detail = panic_detail(payload.as_ref());
            emit_last_words(&mut writer, worker, "panic", &detail);
            Err(Error::Runtime(format!("worker panicked: {detail}")))
        }
    }
}

/// Cached handles of the worker's label-free local registry.  The
/// coordinator re-registers everything pushed here under
/// `worker`/`generation` labels, so names stay collision-free with the
/// coordinator's own families.
struct WorkerMetrics {
    executed: Counter,
    emitted: Counter,
    batches: Counter,
    checkpoints: Counter,
    uptime: Gauge,
    conn_bytes_in: Counter,
    conn_bytes_out: Counter,
    conn_frames_in: Counter,
    conn_frames_out: Counter,
    conn_decode_us: Counter,
    conn_encode_us: Counter,
    conn_write_block_us: Counter,
}

impl WorkerMetrics {
    fn new(reg: &Registry) -> Self {
        WorkerMetrics {
            executed: reg.counter("dsdps_worker_executed_total", &[]),
            emitted: reg.counter("dsdps_worker_emitted_total", &[]),
            batches: reg.counter("dsdps_worker_batches_total", &[]),
            checkpoints: reg.counter("dsdps_worker_checkpoints_total", &[]),
            uptime: reg.gauge("dsdps_worker_uptime_seconds", &[]),
            conn_bytes_in: reg.counter("dsdps_worker_conn_bytes_in_total", &[]),
            conn_bytes_out: reg.counter("dsdps_worker_conn_bytes_out_total", &[]),
            conn_frames_in: reg.counter("dsdps_worker_conn_frames_in_total", &[]),
            conn_frames_out: reg.counter("dsdps_worker_conn_frames_out_total", &[]),
            conn_decode_us: reg.counter("dsdps_worker_conn_decode_us_total", &[]),
            conn_encode_us: reg.counter("dsdps_worker_conn_encode_us_total", &[]),
            conn_write_block_us: reg.counter("dsdps_worker_conn_write_block_us_total", &[]),
        }
    }

    /// Copies the transport counters and uptime gauge into the registry so
    /// the next `export_samples` sees them; runs at push cadence, never on
    /// the tuple path.
    fn sync(&self, stats: &ConnStats, t0: Instant) {
        use std::sync::atomic::Ordering::Relaxed;
        self.uptime.set(t0.elapsed().as_secs_f64());
        self.conn_bytes_in.set(stats.bytes_in.load(Relaxed));
        self.conn_bytes_out.set(stats.bytes_out.load(Relaxed));
        self.conn_frames_in.set(stats.frames_in.load(Relaxed));
        self.conn_frames_out.set(stats.frames_out.load(Relaxed));
        self.conn_decode_us.set(stats.decode_us.load(Relaxed));
        self.conn_encode_us.set(stats.encode_us.load(Relaxed));
        self.conn_write_block_us
            .set(stats.write_block_us.load(Relaxed));
    }
}

/// Drains the local tracer into a `SpanBatch` and the local registry into a
/// `MetricsPush` (counters as deltas since the last push, gauges as current
/// values).  Skips empty frames entirely.
#[allow(clippy::too_many_arguments)]
fn push_telemetry(
    worker: u32,
    writer: &mut FrameWriter,
    tracer: &Tracer,
    registry: &Registry,
    metrics: &WorkerMetrics,
    stats: &ConnStats,
    t0: Instant,
    last_pushed: &mut HashMap<(String, String), u64>,
) -> Result<()> {
    let (spans, dropped) = tracer.drain();
    if !spans.is_empty() || dropped > 0 {
        let spans = spans
            .into_iter()
            .map(|s| WireSpan {
                kind: span_kind_to_byte(s.kind),
                root: s.root,
                task: s.task as u32,
                start_us: s.start_us,
                queue_wait_us: s.queue_wait_us,
                exec_us: s.exec_us,
                batch_id: s.batch_id,
            })
            .collect();
        writer.send(&Frame::SpanBatch {
            worker,
            dropped,
            spans,
        })?;
    }
    metrics.sync(stats, t0);
    let mut samples = Vec::new();
    for (family, labels, value) in registry.export_samples() {
        match value {
            SampleValue::Counter(v) => {
                let key = (family, labels);
                let prev = last_pushed.get(&key).copied();
                let delta = v.saturating_sub(prev.unwrap_or(0));
                // First push includes zero deltas so the coordinator's
                // endpoint exposes the full family set immediately.
                if delta > 0 || prev.is_none() {
                    samples.push(WireMetric {
                        kind: 0,
                        name: key.0.clone(),
                        value: delta,
                    });
                }
                last_pushed.insert(key, v);
            }
            SampleValue::Gauge(g) => samples.push(WireMetric {
                kind: 1,
                name: family,
                value: g.to_bits(),
            }),
        }
    }
    if !samples.is_empty() {
        writer.send(&Frame::MetricsPush { worker, samples })?;
    }
    Ok(())
}

/// Maps a serve-loop error to the machine-readable last-words cause.
fn classify_error(e: &Error) -> &'static str {
    let text = e.to_string();
    if text.contains("decode frame") || text.contains("frame length") || text.contains("oversized")
    {
        "decode_error"
    } else {
        "io_error"
    }
}

/// Extracts a printable panic payload (`&str` / `String`, else a stub).
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Structured last words while dying: one JSONL line on stderr (the
/// supervisor's stderr pump parses it even when the socket is gone) plus a
/// best-effort [`Frame::LastWords`] over the connection.
fn emit_last_words(writer: &mut FrameWriter, worker: u32, cause: &str, detail: &str) {
    let line = LastWordsLine {
        dsdps_last_words: true,
        worker,
        cause: cause.to_owned(),
        detail: detail.to_owned(),
    };
    if let Ok(json) = serde_json::to_string(&line) {
        eprintln!("{json}");
    }
    let _ = writer.send(&Frame::LastWords {
        worker,
        cause: cause.to_owned(),
        detail: detail.to_owned(),
    });
}

/// Checkpoints one stateful task: deposit the snapshot, then release the
/// acks it covers.  In-order frame processing on the coordinator is what
/// aligns the two.
fn checkpoint_task(
    ts: &mut TaskState,
    writer: &mut FrameWriter,
    interval: Duration,
    force: bool,
    metrics: &WorkerMetrics,
) -> Result<()> {
    if !ts.stateful || (!force && ts.last_ckpt.elapsed() < interval) {
        return Ok(());
    }
    ts.last_ckpt = Instant::now();
    let snap = ts
        .bolt
        .stateful()
        .expect("stateful flag implies stateful()")
        .snapshot();
    writer.send(&Frame::CheckpointDeposit {
        task: ts.task,
        payload: snapshot_to_payload(&snap),
        dedup: ts.dedup_fifo.iter().copied().collect(),
    })?;
    if HOT_PATH_TELEMETRY {
        metrics.checkpoints.inc();
    }
    if !ts.deferred.is_empty() {
        writer.send(&Frame::AckFlush {
            tokens: std::mem::take(&mut ts.deferred),
        })?;
    }
    Ok(())
}

fn convert_emissions(
    intern: &InternTable,
    component: usize,
    emissions: Vec<Emission>,
) -> Vec<WireEmission> {
    emissions
        .into_iter()
        .filter_map(|e| {
            // Undeclared stream: nothing can subscribe, drop it (matches
            // the threaded router, which has no route for it).
            let stream = intern.lookup(component, e.stream.as_str())?;
            Some(WireEmission {
                stream,
                anchored: e.anchored,
                direct_task: e.direct_task.map(|t| t as u32),
                values: e.tuple.values().to_vec(),
            })
        })
        .collect()
}
