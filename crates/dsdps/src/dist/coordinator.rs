//! Coordinator side of the distributed runtime: the threaded runtime of
//! [`crate::rt`] with every bolt task on a remote executor.
//!
//! [`submit`] starts the threaded runtime — spouts, routers, the sharded
//! acker, replay, timeouts, credits, the checkpoint store, metrics — with
//! every bolt task on a remote executor: a batch flushed toward one goes
//! to the outbound queue of the worker slot hosting it (`rt::remote`).
//! Per connection, one **writer** thread alone owns the socket: it writes
//! each batch as one `TupleBatch` frame after recording the deliveries'
//! acker anchors in the connection's in-flight queue.  One **reader**
//! thread turns the worker's `ResultBatch`/`AckFlush` frames back into
//! acker ops and routes a remote task's emissions through that task's own
//! router.  The reader never waits on a lock held across a write, a
//! bounded channel or a credit, so finite socket buffers cannot wedge the
//! pair (DESIGN.md §15.4).
//!
//! Around them, a listener thread runs the handshake (hello, assign, state
//! restore on respawn) and a fleet supervisor reaps, journals and respawns
//! worker processes and refreshes the per-connection gauges.  A dying
//! connection fails every delivery in flight on it into replay, exactly
//! like a crashed local task's lost tuples.

use std::collections::{HashMap, VecDeque};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use super::codec::{self, Frame, InternTable, WireEmission};
use super::transport::{Conn, ConnStats, Endpoint, FrameReader, FrameWriter, Listener};
use super::worker::{snapshot_from_payload, snapshot_to_payload, TopologyRegistry};
use super::{recovery_to_byte, span_kind_from_byte, DistConfig, LastWordsLine};
use crate::acker::RootId;
use crate::component::Emission;
use crate::config::EngineConfig;
use crate::error::{Error, Result};
use crate::rt::{
    self, CreditTotals, RemoteCtx, RemoteSink, RemoteTasks, RtConfig, RunningTopology,
    StateSnapshot,
};
use crate::telemetry::journal::JournalEvent;
use crate::telemetry::{
    chrome_trace_json_named, normalize_start_us, trace::trace_id, Counter, Gauge, Registry, Span,
    HOT_PATH_TELEMETRY,
};
use crate::topology::ComponentKind;
use crate::tuple::Fields;

/// How often the supervisor refreshes the cluster-view gauges (outstanding
/// windows, queued tuples, connection counters).  Off the tuple path.
const GAUGE_SYNC_INTERVAL: Duration = Duration::from_millis(250);

/// Read timeout of an idle connection reader.
const IDLE_READ_TICK: Duration = Duration::from_millis(20);

/// What a worker slot's writer thread sends, in queue order.
enum Outbound {
    /// One flushed input batch of a task the slot hosts.
    Tuples { task: usize, batch: rt::Batch },
    /// A control frame, ordered with the tuples around it.
    Control(Frame),
}

/// One written `TupleBatch` awaiting its `ResultBatch`.
struct Written {
    task: usize,
    /// The batch took a credit from the task's pool (returned with the
    /// results, or when the batch fails).
    credited: bool,
    /// Token of the first delivery; the others follow consecutively.
    first_token: u64,
    len: usize,
}

/// Deliveries written on one connection whose results have not come back,
/// in write order.  The worker answers frames in order with one result per
/// delivery, so both queues pop FIFO and tokens need no lookup.
#[derive(Default)]
struct InFlight {
    batches: VecDeque<Written>,
    /// Acker anchor of every written delivery, batch after batch.
    anchors: VecDeque<Option<(RootId, u64)>>,
}

/// One live connection, shared by its reader and writer threads.
struct Link {
    slot: usize,
    generation: u64,
    pid: u32,
    /// Handle used only to shut the socket down.
    conn: Conn,
    /// `coordinator_now_us − worker_clock_us`, estimated at the `Hello`
    /// handshake; re-bases every span this connection ships.
    clock_offset_us: i64,
    /// What is written and unanswered; `None` once the connection is
    /// closed.  Held only to push or pop, never across I/O.
    in_flight: Mutex<Option<InFlight>>,
}

impl Link {
    /// Records a batch about to be written; `false` when the connection
    /// already closed.
    fn register(
        &self,
        batch: Written,
        anchors: impl Iterator<Item = Option<(RootId, u64)>>,
    ) -> bool {
        let mut guard = self.in_flight.lock();
        let Some(in_flight) = guard.as_mut() else {
            return false;
        };
        in_flight.batches.push_back(batch);
        in_flight.anchors.extend(anchors);
        true
    }

    /// Pops the oldest written batch, moving its anchors into `anchors`.
    fn pop(&self, anchors: &mut Vec<Option<(RootId, u64)>>) -> Option<Written> {
        let mut guard = self.in_flight.lock();
        let in_flight = guard.as_mut()?;
        let batch = in_flight.batches.pop_front()?;
        anchors.clear();
        anchors.extend(in_flight.anchors.drain(..batch.len));
        Some(batch)
    }

    fn is_closed(&self) -> bool {
        self.in_flight.lock().is_none()
    }

    /// Closes the connection: the socket goes down (unblocking the writer)
    /// and everything still in flight is returned for failing.
    fn close(&self) -> InFlight {
        let pending = self.in_flight.lock().take().unwrap_or_default();
        self.conn.shutdown();
        pending
    }
}

/// Process-level state of one worker slot.  The lock is held for
/// bookkeeping only, never across socket I/O.
#[derive(Default)]
struct SlotLife {
    child: Option<Child>,
    respawns: u32,
    /// Structured cause of death captured from the worker's `LastWords`
    /// frame or its stderr JSONL line; consumed when the child is reaped.
    last_words: Option<(String, String)>,
    /// A heartbeat-lag journal event was already emitted for the current
    /// silence episode.
    hb_lagged: bool,
}

/// One worker slot: the bolt tasks it hosts and the queue feeding them.
struct Slot {
    tasks: Vec<u32>,
    outbound: Sender<Outbound>,
    outbound_rx: Receiver<Outbound>,
    /// Tuples in the outbound queue (not yet written).
    queued: Arc<AtomicU64>,
    /// Tuples written to the worker whose results have not come back.
    outstanding: AtomicU64,
    pid: AtomicU32,
    generation: AtomicU64,
    connected: AtomicBool,
    /// Transport counters over every connection of the slot.
    stats: Arc<ConnStats>,
    gauges: SlotGauges,
    life: Mutex<SlotLife>,
}

/// Cached handles of the per-slot transport/flow families the supervisor
/// refreshes at gauge cadence (never on the tuple path).
struct SlotGauges {
    /// Deliveries on the wire awaiting results.
    outstanding: Gauge,
    /// Tuples queued for the connection's writer.
    parked: Gauge,
    /// Seconds since the last frame arrived on the connection.
    rx_silence: Gauge,
    bytes_in: Counter,
    bytes_out: Counter,
    frames_in: Counter,
    frames_out: Counter,
    decode_us: Counter,
    encode_us: Counter,
    write_block_us: Counter,
}

impl SlotGauges {
    fn new(reg: &Registry, slot: usize) -> Self {
        let s = slot.to_string();
        let labels: [(&str, &str); 1] = [("worker", s.as_str())];
        SlotGauges {
            outstanding: reg.gauge("dsdps_dist_outstanding_window", &labels),
            parked: reg.gauge("dsdps_dist_overflow_parked", &labels),
            rx_silence: reg.gauge("dsdps_dist_conn_rx_silence_seconds", &labels),
            bytes_in: reg.counter("dsdps_dist_conn_bytes_in_total", &labels),
            bytes_out: reg.counter("dsdps_dist_conn_bytes_out_total", &labels),
            frames_in: reg.counter("dsdps_dist_conn_frames_in_total", &labels),
            frames_out: reg.counter("dsdps_dist_conn_frames_out_total", &labels),
            decode_us: reg.counter("dsdps_dist_conn_decode_us_total", &labels),
            encode_us: reg.counter("dsdps_dist_conn_encode_us_total", &labels),
            write_block_us: reg.counter("dsdps_dist_conn_write_block_us_total", &labels),
        }
    }

    fn sync(&self, slot: &Slot) {
        use std::sync::atomic::Ordering::Relaxed;
        let stats = &slot.stats;
        self.outstanding.set(slot.outstanding.load(Relaxed) as f64);
        self.parked.set(slot.queued.load(Relaxed) as f64);
        self.bytes_in.set(stats.bytes_in.load(Relaxed));
        self.bytes_out.set(stats.bytes_out.load(Relaxed));
        self.frames_in.set(stats.frames_in.load(Relaxed));
        self.frames_out.set(stats.frames_out.load(Relaxed));
        self.decode_us.set(stats.decode_us.load(Relaxed));
        self.encode_us.set(stats.encode_us.load(Relaxed));
        self.write_block_us.set(stats.write_block_us.load(Relaxed));
        self.rx_silence.set(stats.rx_silence_s().unwrap_or(0.0));
    }
}

/// The process-specific half of a distributed run.
struct Fleet {
    ctx: RemoteCtx,
    /// The registry key the topology was submitted under (what workers
    /// rebuild from; not necessarily the topology's display name).
    topology_key: String,
    args: String,
    intern: InternTable,
    task_count: usize,
    /// Component name per global task (stamped into worker spans).
    task_names: Vec<String>,
    /// Per global task: the schemas of the streams it subscribes to, with
    /// their interned indices (a delivery's wire stream index).
    inputs: Vec<Vec<(Fields, u32)>>,
    /// Whether each task's bolt reports state (probed at submit).
    stateful: Vec<bool>,
    engine: EngineConfig,
    rt: RtConfig,
    cfg: DistConfig,
    endpoint: Endpoint,
    slots: Vec<Slot>,
    /// Worker hop spans, already clock-normalized and stamped with
    /// pid/generation at receipt.
    worker_spans: Mutex<Vec<Span>>,
    /// Spans rejected by worker-side ring buffers (shipped in `SpanBatch`).
    worker_spans_dropped: AtomicU64,
    /// The runtime's registry: rt's families, the fleet's and every worker
    /// push under `worker`/`generation` labels.
    registry: Arc<Registry>,
    worker_restarts: Counter,
    worker_disconnects: Counter,
    coord_pid: u32,
    /// Set at the end of shutdown's drain: no respawns, no new
    /// connections, and closing connections are not disconnects.
    stopping: AtomicBool,
    /// Reader and writer threads of every connection.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Fleet {
    fn now_s(&self) -> f64 {
        self.ctx.shared().now_s()
    }

    /// Wire stream index of a delivery to `task` whose tuple carries
    /// `fields` (routers stamp the declaring stream's schema).
    fn stream_of(&self, task: usize, fields: &Fields) -> u32 {
        let inputs = &self.inputs[task];
        inputs
            .iter()
            .find(|(f, _)| f.ptr_eq(fields))
            .or(inputs.first())
            .map_or(0, |&(_, idx)| idx)
    }

    /// Rebuilds an emission a worker sent back.
    fn emission(&self, e: WireEmission) -> Option<Emission> {
        let stream = self.intern.entry(e.stream)?.0.clone();
        let tuple = self.intern.tuple(e.stream, e.values).ok()?;
        Some(Emission {
            stream,
            tuple,
            message_id: None,
            direct_task: e.direct_task.map(|t| t as usize),
            anchored: e.anchored,
        })
    }

    fn spawn_worker(self: &Arc<Self>, slot_idx: usize) -> Result<()> {
        let mut cmd = Command::new(&self.cfg.worker_cmd[0]);
        cmd.args(&self.cfg.worker_cmd[1..])
            .env("DSDPS_DIST_ADDR", self.endpoint.to_env())
            .env("DSDPS_DIST_WORKER", slot_idx.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| Error::Runtime(format!("spawn worker: {e}")))?;
        // Stderr pump: structured last-words JSONL lines are captured for
        // the supervisor's `worker_died` cause; everything else is
        // forwarded verbatim.  The thread exits at stderr EOF (process
        // death), so it never needs joining.
        if let Some(stderr) = child.stderr.take() {
            let fleet = Arc::clone(self);
            let _ = std::thread::Builder::new()
                .name(format!("dist-stderr-{slot_idx}"))
                .spawn(move || {
                    for line in std::io::BufReader::new(stderr).lines() {
                        let Ok(line) = line else { break };
                        if let Ok(lw) = serde_json::from_str::<LastWordsLine>(&line) {
                            if lw.dsdps_last_words {
                                fleet.slots[slot_idx].life.lock().last_words =
                                    Some((lw.cause, lw.detail));
                                continue;
                            }
                        }
                        eprintln!("dsdps worker {slot_idx}: {line}");
                    }
                });
        }
        let slot = &self.slots[slot_idx];
        self.ctx
            .shared()
            .journal
            .append(JournalEvent::WorkerSpawned {
                time_s: self.now_s(),
                worker: slot_idx,
                pid: child.id(),
                generation: slot.generation.load(Ordering::Acquire),
            });
        slot.pid.store(child.id(), Ordering::Release);
        slot.life.lock().child = Some(child);
        Ok(())
    }

    /// Tears a connection down: every delivery in flight on it (written or
    /// held back for a checkpoint) fails into replay, and a still-running
    /// worker process is killed so the supervisor respawns it cleanly.
    fn close_link(
        &self,
        link: &Link,
        reason: &str,
        deferred: HashMap<u64, (RootId, u64)>,
        tasks: &mut RemoteTasks,
    ) {
        let pending = link.close();
        let slot = &self.slots[link.slot];
        let stopping = self.stopping.load(Ordering::Acquire);
        {
            let mut life = slot.life.lock();
            life.hb_lagged = false;
            if !stopping {
                if let Some(child) = life.child.as_mut() {
                    let _ = child.kill();
                }
            }
        }
        slot.connected.store(false, Ordering::Release);
        slot.outstanding
            .fetch_sub(pending.anchors.len() as u64, Ordering::Relaxed);
        if !stopping {
            self.worker_disconnects.inc();
            // Sampled trees that die with the connection, capped so a
            // flooded window cannot bloat the journal; cross-references
            // the span log.
            const LOST_TRACE_CAP: usize = 32;
            let tracer = &self.ctx.shared().tracer;
            let lost_trace_ids = pending
                .anchors
                .iter()
                .flatten()
                .chain(deferred.values())
                .map(|&(root, _)| root)
                .filter(|&root| tracer.enabled() && tracer.sampled(root))
                .map(trace_id)
                .take(LOST_TRACE_CAP)
                .collect();
            self.ctx
                .shared()
                .journal
                .append(JournalEvent::WorkerDisconnected {
                    time_s: self.now_s(),
                    worker: link.slot,
                    reason: reason.to_owned(),
                    lost_trace_ids,
                });
        }
        // Processed but not yet covered by a checkpoint: their effect died
        // with the worker, so those trees replay too.
        let anchors = pending
            .anchors
            .iter()
            .copied()
            .chain(deferred.into_values().map(Some));
        let credits = pending.batches.iter().map(|b| (b.task, b.credited));
        fail_undelivered(tasks, anchors, credits);
    }

    /// No tree is pending or awaiting replay and no tuple is queued for,
    /// or outstanding on, any connection.
    fn quiesced(&self) -> bool {
        let shared = self.ctx.shared();
        shared.ackers.pending_count() == 0
            && shared.replay.iter().all(|b| b.lock().is_empty())
            && self.slots.iter().all(|s| {
                s.queued.load(Ordering::Acquire) == 0 && s.outstanding.load(Ordering::Acquire) == 0
            })
    }
}

/// Fails the trees of deliveries that will never be processed and returns
/// the credits their batches took.
fn fail_undelivered(
    tasks: &mut RemoteTasks,
    anchors: impl IntoIterator<Item = Option<(RootId, u64)>>,
    credits: impl IntoIterator<Item = (usize, bool)>,
) {
    for (root, _) in anchors.into_iter().flatten() {
        tasks.fail(root);
    }
    for (task, credited) in credits {
        tasks.return_credit(task, credited);
    }
    tasks.flush(false);
}

// --- writer thread --------------------------------------------------------

/// Drains the slot's outbound queue into the socket.  The only thread that
/// writes to the connection after the handshake.
fn writer_loop(fleet: Arc<Fleet>, link: Arc<Link>, mut out: FrameWriter) {
    let slot = &fleet.slots[link.slot];
    let tracer = &fleet.ctx.shared().tracer;
    let mut next_token = 1u64;
    while !link.is_closed() {
        let msg = match slot.outbound_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let sent = match msg {
            Outbound::Tuples { task, batch } => {
                let items = &batch.items;
                slot.queued.fetch_sub(items.len() as u64, Ordering::Relaxed);
                let first_token = next_token;
                next_token += items.len() as u64;
                // Registered before the bytes leave, so a result can never
                // arrive for a delivery the reader does not know.
                let written = Written {
                    task,
                    credited: batch.credited,
                    first_token,
                    len: items.len(),
                };
                if !link.register(written, items.iter().map(|d| d.anchor)) {
                    fail_undelivered(
                        &mut fleet.ctx.tasks(&[]),
                        items.iter().map(|d| d.anchor),
                        [(task, batch.credited)],
                    );
                    break;
                }
                slot.outstanding
                    .fetch_add(items.len() as u64, Ordering::Relaxed);
                out.send_body(|buf| {
                    buf.push(codec::TUPLE_BATCH_TAG);
                    codec::write_varint(buf, items.len() as u64);
                    for (i, d) in items.iter().enumerate() {
                        // The sampling decision travels with the tuple:
                        // workers record hop spans iff `trace_root` is set.
                        let trace_root = d
                            .anchor
                            .map(|(root, _)| root)
                            .filter(|&root| tracer.enabled() && tracer.sampled(root));
                        codec::write_tuple_parts(
                            buf,
                            first_token + i as u64,
                            task as u32,
                            fleet.stream_of(task, d.tuple.fields()),
                            d.dedup,
                            trace_root,
                            d.tuple.values(),
                        );
                    }
                })
            }
            Outbound::Control(frame) => out.send(&frame),
        };
        if sent.is_err() {
            // The reader sees the dead socket too and fails what is in
            // flight; shutting it down makes sure it notices now.
            link.conn.shutdown();
            break;
        }
    }
}

// --- reader thread --------------------------------------------------------

/// Applies everything the worker sends.  Never blocks on anything but the
/// socket: routing goes to the unbounded outbound queues, acker ops and
/// outcome delivery take only short internal locks.
fn reader_loop(
    fleet: Arc<Fleet>,
    link: Arc<Link>,
    mut reader: FrameReader,
    mut restore_age: HashMap<u32, Option<f64>>,
) {
    let slot = &fleet.slots[link.slot];
    let shared = fleet.ctx.shared();
    let task_ids: Vec<usize> = slot.tasks.iter().map(|&t| t as usize).collect();
    let mut tasks = fleet.ctx.tasks(&task_ids);
    // Deliveries processed but held back until a checkpoint covers them.
    let mut deferred: HashMap<u64, (RootId, u64)> = HashMap::new();
    let mut anchors = Vec::new();
    let generation = link.generation;
    // Wake within the linger deadline only while emissions wait in the
    // routers' buffers.
    let linger_tick = fleet
        .rt
        .linger
        .clamp(Duration::from_millis(1), IDLE_READ_TICK);
    let mut lingering = false;
    let reason = loop {
        if tasks.has_pending() != lingering {
            lingering = !lingering;
            let tick = if lingering {
                linger_tick
            } else {
                IDLE_READ_TICK
            };
            if let Err(e) = reader.set_read_timeout(Some(tick)) {
                break format!("set timeout: {e}");
            }
        }
        let frame = match reader.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                // Read timeout: push out emissions past their linger.
                tasks.flush(false);
                continue;
            }
            Err(e) => break e.to_string(),
        };
        match frame {
            Frame::ResultBatch { items } => {
                let Some(batch) = link.pop(&mut anchors) else {
                    break "result batch without a delivery".to_owned();
                };
                let n = batch.len as u64;
                slot.outstanding.fetch_sub(n, Ordering::Relaxed);
                let in_order = items.len() == batch.len
                    && (items.iter().zip(batch.first_token..)).all(|(item, t)| item.token == t);
                if !in_order {
                    fail_undelivered(
                        &mut tasks,
                        anchors.drain(..),
                        [(batch.task, batch.credited)],
                    );
                    break "result batch does not match its delivery".to_owned();
                }
                let mut failed = 0u64;
                for (item, anchor) in items.into_iter().zip(&anchors) {
                    let root = anchor.map(|(root, _)| root);
                    for e in item.emissions {
                        let anchored = e.anchored;
                        if let Some(emission) = fleet.emission(e) {
                            tasks.emit(batch.task, &emission, root.filter(|_| anchored));
                        }
                    }
                    failed += u64::from(item.failed);
                    if let Some((root, edge)) = *anchor {
                        if item.failed {
                            tasks.fail(root);
                        } else if item.deferred {
                            deferred.insert(item.token, (root, edge));
                        } else {
                            tasks.ack(root, edge);
                        }
                    }
                }
                tasks.processed(batch.task, n, failed, batch.credited);
                tasks.flush(false);
            }
            Frame::AckFlush { tokens } => {
                for token in tokens {
                    if let Some((root, edge)) = deferred.remove(&token) {
                        tasks.ack(root, edge);
                    }
                }
                tasks.flush(false);
            }
            Frame::CheckpointDeposit {
                task,
                payload,
                dedup,
            } => {
                let (Some(store), Ok(snap)) =
                    (shared.checkpoints.as_ref(), snapshot_from_payload(&payload))
                else {
                    continue;
                };
                let kind = match snap.kind {
                    rt::SnapshotKind::Full => "full",
                    rt::SnapshotKind::Delta => "delta",
                };
                let now = shared.now_s();
                if let Some(bytes) = store.deposit_full(task as usize, generation, now, snap, dedup)
                {
                    tasks.checkpoint_taken(task as usize, bytes);
                    shared.journal.append(JournalEvent::CheckpointTaken {
                        time_s: now,
                        task: task as usize,
                        generation,
                        kind: kind.to_owned(),
                        bytes,
                        duration_us: 0,
                    });
                }
            }
            Frame::StateRestored {
                task,
                ok,
                latency_us,
            } => {
                let age = restore_age.remove(&task).flatten();
                let now = shared.now_s();
                if ok {
                    tasks.restored(task as usize, latency_us);
                    shared.journal.append(JournalEvent::StateRestored {
                        time_s: now,
                        task: task as usize,
                        generation,
                        snapshot_age_s: age,
                        latency_us,
                    });
                } else {
                    shared.journal.append(JournalEvent::StateLost {
                        time_s: now,
                        task: task as usize,
                        generation,
                        snapshot_age_s: age,
                    });
                }
            }
            Frame::TickEmissions { task, emissions } => {
                for e in emissions {
                    // Tick output has no input tuple: never anchored.
                    if let Some(emission) = fleet.emission(e) {
                        tasks.emit(task as usize, &emission, None);
                    }
                }
                tasks.flush(false);
            }
            Frame::SpanBatch { dropped, spans, .. } => {
                // Stamp what the worker could not know (component names,
                // slot, pid, generation), re-base the worker-clock
                // timestamps with the handshake offset, then merge.
                let mut converted: Vec<Span> = spans
                    .into_iter()
                    .filter_map(|ws| {
                        let task = ws.task as usize;
                        Some(Span {
                            trace_id: trace_id(ws.root),
                            root: ws.root,
                            kind: span_kind_from_byte(ws.kind)?,
                            component: fleet.task_names.get(task)?.clone(),
                            task,
                            worker: link.slot,
                            start_us: ws.start_us,
                            queue_wait_us: ws.queue_wait_us,
                            exec_us: ws.exec_us,
                            batch_id: ws.batch_id,
                            replay_attempt: 0,
                            message_id: None,
                            pid: link.pid,
                            generation,
                        })
                    })
                    .collect();
                normalize_start_us(&mut converted, link.clock_offset_us);
                fleet
                    .worker_spans_dropped
                    .fetch_add(dropped, Ordering::Relaxed);
                fleet.worker_spans.lock().extend(converted);
            }
            Frame::MetricsPush { samples, .. } => {
                let w = link.slot.to_string();
                let g = generation.to_string();
                let labels: [(&str, &str); 2] =
                    [("worker", w.as_str()), ("generation", g.as_str())];
                for sample in samples {
                    match sample.kind {
                        0 => fleet
                            .registry
                            .counter(&sample.name, &labels)
                            .add(sample.value),
                        1 => fleet
                            .registry
                            .gauge(&sample.name, &labels)
                            .set(f64::from_bits(sample.value)),
                        _ => {}
                    }
                }
            }
            Frame::LastWords { cause, detail, .. } => {
                slot.life.lock().last_words = Some((cause, detail));
            }
            // Worker→coordinator direction carries only the frames above.
            _ => {}
        }
    };
    tasks.flush(true);
    fleet.close_link(&link, &reason, deferred, &mut tasks);
}

// --- listener / handshake thread ------------------------------------------

fn listener_loop(fleet: Arc<Fleet>, listener: Listener) {
    let _ = listener.set_nonblocking(true);
    while !fleet.stopping.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(Some(conn)) => {
                if let Err(e) = handshake(&fleet, conn) {
                    fleet
                        .ctx
                        .shared()
                        .journal
                        .append(JournalEvent::WorkerDisconnected {
                            time_s: fleet.now_s(),
                            worker: usize::MAX,
                            reason: format!("handshake failed: {e}"),
                            lost_trace_ids: Vec::new(),
                        });
                }
            }
            Ok(None) | Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Hello → assign → state restore, then the connection's reader and writer
/// threads take over.  Frames are processed in order, so every restore
/// lands before the first tuple the new writer sends.
fn handshake(fleet: &Arc<Fleet>, conn: Conn) -> Result<()> {
    let handshake_start = Instant::now();
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| Error::Runtime(format!("set timeout: {e}")))?;
    let clone = |c: &Conn| {
        c.try_clone()
            .map_err(|e| Error::Runtime(format!("clone socket: {e}")))
    };
    let writer_conn = clone(&conn)?;
    let control_conn = clone(&conn)?;
    let mut reader = FrameReader::new(conn);
    let hello = reader
        .read_frame()?
        .ok_or_else(|| Error::Runtime("timed out waiting for hello".into()))?;
    let Frame::Hello {
        worker,
        pid,
        clock_us,
    } = hello
    else {
        return Err(Error::Runtime(format!(
            "expected hello, got {}",
            hello.kind()
        )));
    };
    let shared = fleet.ctx.shared();
    // Clock-offset estimation: the worker's span clock read `clock_us` at
    // send time, which is "now" minus (uncorrected) one-way latency on
    // loopback — good to well under a millisecond, enough to merge span
    // timelines.  Workers re-send `Hello` after a respawn, so the offset
    // is re-estimated per generation.
    let clock_offset_us = shared.now_us() as i64 - clock_us as i64;
    let slot_idx = worker as usize;
    let slot = fleet
        .slots
        .get(slot_idx)
        .ok_or_else(|| Error::Runtime(format!("unknown worker slot {worker}")))?;
    reader.set_stats(Arc::clone(&slot.stats));
    slot.stats
        .last_rx_us
        .store(slot.stats.now_us(), Ordering::Relaxed);
    let mut writer = FrameWriter::new(writer_conn);
    writer.set_stats(Arc::clone(&slot.stats));
    let checkpoints = shared.checkpoints.as_ref();
    writer.send(&Frame::Assign {
        worker,
        topology: fleet.topology_key.clone(),
        args: fleet.args.clone(),
        tasks: slot.tasks.clone(),
        recovery: recovery_to_byte(fleet.rt.recovery_mode),
        // Zero tells the worker checkpoints are off.
        ckpt_interval_us: checkpoints.map_or(0, |_| {
            fleet.rt.checkpoint_interval.as_micros().max(1) as u64
        }),
        tick_interval_us: (fleet.engine.tick_interval_s.max(0.0) * 1e6) as u64,
        metrics_interval_us: (fleet.engine.metrics_interval_s.max(0.0) * 1e6) as u64,
        task_count: fleet.task_count as u32,
        stream_count: fleet.intern.len() as u32,
    })?;

    let generation = slot.generation.fetch_add(1, Ordering::AcqRel) + 1;
    let now = shared.now_s();
    let restore_start = Instant::now();
    let mut restore_age = HashMap::new();
    for &task in slot.tasks.iter().filter(|&&t| fleet.stateful[t as usize]) {
        let Some(store) = checkpoints else { break };
        match store.load(task as usize, generation).and_then(|r| {
            let age = r.taken_at_s.map(|t| now - t);
            r.base.map(|base| (base, r.dedup, age))
        }) {
            Some((base, dedup, age)) => {
                restore_age.insert(task, age);
                writer.send(&Frame::RestoreState {
                    task,
                    payload: Some(snapshot_to_payload(&base)),
                    dedup,
                })?;
            }
            None if generation > 1 => shared.journal.append(JournalEvent::StateLost {
                time_s: now,
                task: task as usize,
                generation,
                snapshot_age_s: None,
            }),
            None => {}
        }
    }
    let restore_us = restore_start.elapsed().as_micros() as u64;
    reader
        .set_read_timeout(Some(IDLE_READ_TICK))
        .map_err(|e| Error::Runtime(format!("set timeout: {e}")))?;

    let link = Arc::new(Link {
        slot: slot_idx,
        generation,
        pid,
        conn: control_conn,
        clock_offset_us,
        in_flight: Mutex::new(Some(InFlight::default())),
    });
    slot.pid.store(pid, Ordering::Release);
    {
        let mut life = slot.life.lock();
        life.last_words = None;
        life.hb_lagged = false;
    }
    slot.connected.store(true, Ordering::Release);
    shared.journal.append(JournalEvent::WorkerConnected {
        time_s: now,
        worker: slot_idx,
        pid,
    });
    // The restore-timing decomposition: `handshake_us` covers
    // accept→hello→assign→restores end to end, `restore_us` just the
    // restore-frame leg.
    shared.journal.append(JournalEvent::WorkerAssigned {
        time_s: now,
        worker: slot_idx,
        pid,
        generation,
        tasks: slot.tasks.len(),
        clock_offset_us,
        handshake_us: handshake_start.elapsed().as_micros() as u64,
        restore_us,
    });
    let spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
        std::thread::Builder::new()
            .name(name)
            .spawn(body)
            .map_err(|e| Error::Runtime(format!("spawn connection thread: {e}")))
    };
    let (f, l) = (Arc::clone(fleet), Arc::clone(&link));
    let reader_handle = spawn(
        format!("dist-reader-{slot_idx}"),
        Box::new(move || reader_loop(f, l, reader, restore_age)),
    )?;
    let (f, l) = (Arc::clone(fleet), link);
    let writer_handle = spawn(
        format!("dist-writer-{slot_idx}"),
        Box::new(move || writer_loop(f, l, writer)),
    )?;
    fleet.threads.lock().extend([reader_handle, writer_handle]);
    Ok(())
}

// --- supervisor thread ------------------------------------------------------

fn supervisor_loop(fleet: Arc<Fleet>) {
    let mut last_gauge_sync = Instant::now();
    // Heartbeat-lag threshold: a live worker touches the connection at
    // least every metrics interval, so 2× the interval of rx silence is a
    // worker that is wedged (or a connection the OS has not failed yet).
    let hb_threshold_s =
        (fleet.engine.metrics_interval_s > 0.0).then_some(2.0 * fleet.engine.metrics_interval_s);
    let journal = &fleet.ctx.shared().journal;
    while !fleet.stopping.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
        let now = fleet.now_s();
        let sync_gauges = HOT_PATH_TELEMETRY && last_gauge_sync.elapsed() >= GAUGE_SYNC_INTERVAL;
        if sync_gauges {
            last_gauge_sync = Instant::now();
        }
        for (idx, slot) in fleet.slots.iter().enumerate() {
            if sync_gauges {
                slot.gauges.sync(slot);
            }
            let connected = slot.connected.load(Ordering::Acquire);
            let mut life = slot.life.lock();
            // Reap exited children, attaching the captured cause of death
            // (last-words frame / stderr line, else the raw exit status).
            let exit_status = life
                .child
                .as_mut()
                .and_then(|child| child.try_wait().ok().flatten());
            if let Some(status) = exit_status {
                life.child = None;
                let cause = match life.last_words.take() {
                    Some((cause, detail)) => format!("{cause}: {detail}"),
                    None => format!("exit: {status}"),
                };
                journal.append(JournalEvent::WorkerDied {
                    time_s: now,
                    worker: idx,
                    pid: slot.pid.load(Ordering::Acquire),
                    generation: slot.generation.load(Ordering::Acquire),
                    cause,
                });
            }
            // Heartbeat lag: journaled once per silence episode.
            if let (Some(threshold), true) = (hb_threshold_s, connected) {
                let silence = slot.stats.rx_silence_s().unwrap_or(0.0);
                if silence <= threshold {
                    life.hb_lagged = false;
                } else if !life.hb_lagged {
                    life.hb_lagged = true;
                    journal.append(JournalEvent::WorkerHeartbeatLag {
                        time_s: now,
                        worker: idx,
                        lag_s: silence,
                    });
                }
            }
            let down =
                life.child.is_none() && !connected && slot.generation.load(Ordering::Acquire) > 0;
            if !down {
                continue;
            }
            if life.respawns < fleet.cfg.max_worker_restarts {
                life.respawns += 1;
                drop(life);
                fleet.worker_restarts.inc();
                let _ = fleet.spawn_worker(idx);
            } else {
                // Restart budget spent: the slot stays down, and whatever
                // its tasks receive fails into replay/permanent failure.
                drop(life);
                while let Ok(msg) = slot.outbound_rx.try_recv() {
                    if let Outbound::Tuples { task, batch } = msg {
                        slot.queued
                            .fetch_sub(batch.items.len() as u64, Ordering::Relaxed);
                        fail_undelivered(
                            &mut fleet.ctx.tasks(&[]),
                            batch.items.iter().map(|d| d.anchor),
                            [(task, batch.credited)],
                        );
                    }
                }
            }
        }
    }
}

// --- submit / running handle ----------------------------------------------

/// Submits `topology_name` (resolved through `registry`, exactly as each
/// worker will resolve it) to a fleet of worker processes.
///
/// Blocks until every worker has connected and been assigned, or
/// [`CONNECT_TIMEOUT`](super::CONNECT_TIMEOUT) expires.
pub fn submit(
    registry: &TopologyRegistry,
    topology_name: &str,
    args: &str,
    engine: EngineConfig,
    rt: RtConfig,
    cfg: DistConfig,
) -> Result<RunningDist> {
    if cfg.worker_cmd.is_empty() {
        return Err(Error::Config("worker_cmd must not be empty".into()));
    }
    let topology = registry.build(topology_name, args)?;
    let intern = InternTable::new(&topology);
    let n_tasks = topology.task_count();

    // Placement: spouts stay in this process, bolt tasks go round-robin
    // over the worker slots.  Probe one instance per bolt component for
    // state.
    let mut slot_tasks: Vec<Vec<u32>> = vec![Vec::new(); cfg.workers];
    let mut task_slot = vec![None; n_tasks];
    let mut stateful = vec![false; n_tasks];
    let mut task_names = vec![String::new(); n_tasks];
    let mut inputs: Vec<Vec<(Fields, u32)>> = vec![Vec::new(); n_tasks];
    let mut has_spout = false;
    let mut next_slot = 0usize;
    for component in topology.components() {
        for task in component.tasks() {
            task_names[task.0] = component.name.clone();
        }
        for decl in &component.outputs {
            let idx = intern
                .lookup(component.id.0, decl.id.as_str())
                .expect("declared stream is interned");
            for (sub, _) in topology.subscribers_of(component.id, &decl.id) {
                for task in sub.tasks() {
                    inputs[task.0].push((decl.fields.clone(), idx));
                }
            }
        }
        match &component.kind {
            ComponentKind::Spout(_) => has_spout = true,
            ComponentKind::Bolt(factory) => {
                let is_stateful = factory().stateful().is_some();
                for task in component.tasks() {
                    task_slot[task.0] = Some(next_slot);
                    slot_tasks[next_slot].push(task.0 as u32);
                    stateful[task.0] = is_stateful;
                    next_slot = (next_slot + 1) % cfg.workers;
                }
            }
        }
    }
    if !has_spout {
        return Err(Error::Config("topology has no spout".into()));
    }

    // A batch flushed toward a bolt task goes to its slot's outbound queue.
    let outbound: Vec<(Sender<Outbound>, Receiver<Outbound>)> =
        (0..cfg.workers).map(|_| unbounded()).collect();
    let queued: Vec<Arc<AtomicU64>> = (0..cfg.workers).map(|_| Arc::default()).collect();
    let sinks = task_slot
        .iter()
        .map(|slot| {
            slot.map(|s| {
                let tx = outbound[s].0.clone();
                let queued = Arc::clone(&queued[s]);
                Arc::new(move |task, batch: rt::Batch| {
                    queued.fetch_add(batch.items.len() as u64, Ordering::Relaxed);
                    let _ = tx.send(Outbound::Tuples { task, batch });
                }) as RemoteSink
            })
        })
        .collect();

    #[cfg(unix)]
    let (listener, endpoint) = Listener::unix_temp()?;
    #[cfg(not(unix))]
    let (listener, endpoint) = Listener::tcp_loopback()?;

    let running = rt::submit_remote(topology, engine.clone(), rt.clone(), sinks)?;
    let registry = running.registry();
    let slots = slot_tasks
        .into_iter()
        .zip(outbound)
        .zip(queued)
        .enumerate()
        .map(|(i, ((tasks, (outbound, outbound_rx)), queued))| Slot {
            tasks,
            outbound,
            outbound_rx,
            queued,
            outstanding: AtomicU64::new(0),
            pid: AtomicU32::new(0),
            generation: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            stats: ConnStats::new(),
            gauges: SlotGauges::new(&registry, i),
            life: Mutex::new(SlotLife::default()),
        })
        .collect();
    let fleet = Arc::new(Fleet {
        ctx: running.remote_ctx(),
        topology_key: topology_name.to_owned(),
        args: args.to_owned(),
        task_count: n_tasks,
        intern,
        task_names,
        inputs,
        stateful,
        engine,
        rt,
        cfg,
        endpoint,
        slots,
        worker_spans: Mutex::new(Vec::new()),
        worker_spans_dropped: AtomicU64::new(0),
        worker_restarts: registry.counter("dsdps_coord_worker_restarts_total", &[]),
        worker_disconnects: registry.counter("dsdps_coord_worker_disconnects_total", &[]),
        registry,
        coord_pid: std::process::id(),
        stopping: AtomicBool::new(false),
        threads: Mutex::new(Vec::new()),
    });

    let spawn = |name: &str, body: Box<dyn FnOnce() + Send>| {
        std::thread::Builder::new()
            .name(name.into())
            .spawn(body)
            .map_err(|e| Error::Runtime(format!("spawn {name}: {e}")))
    };
    let f = Arc::clone(&fleet);
    let listener = spawn(
        "dist-listener",
        Box::new(move || listener_loop(f, listener)),
    )?;
    let f = Arc::clone(&fleet);
    let supervisor = spawn("dist-supervisor", Box::new(move || supervisor_loop(f)))?;
    let running = RunningDist {
        fleet,
        rt: Some(running),
        listener: Some(listener),
        supervisor: Some(supervisor),
    };

    // Launch the fleet and wait for every handshake.  Spouts are already
    // running; their tuples wait in the outbound queues until then.
    let fleet = Arc::clone(&running.fleet);
    let launched = (0..fleet.slots.len()).try_for_each(|i| fleet.spawn_worker(i));
    let deadline = Instant::now() + super::CONNECT_TIMEOUT;
    let all_connected = || {
        fleet
            .slots
            .iter()
            .all(|s| s.connected.load(Ordering::Acquire))
    };
    while launched.is_ok() && !all_connected() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if launched.is_ok() && all_connected() {
        return Ok(running);
    }
    let connected = fleet
        .slots
        .iter()
        .filter(|s| s.connected.load(Ordering::Acquire))
        .count();
    drop(running);
    launched?;
    Err(Error::Runtime(format!(
        "only {connected}/{} workers connected within {:?}",
        fleet.slots.len(),
        super::CONNECT_TIMEOUT
    )))
}

/// Handle on a running distributed topology.
pub struct RunningDist {
    fleet: Arc<Fleet>,
    /// The coordinator's threaded runtime; taken at shutdown.
    rt: Option<RunningTopology>,
    listener: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl RunningDist {
    fn rt(&self) -> &RunningTopology {
        self.rt.as_ref().expect("runtime lives until shutdown")
    }

    /// OS process ids of the current worker fleet (0 = not connected).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.fleet
            .slots
            .iter()
            .map(|s| s.pid.load(Ordering::Acquire))
            .collect()
    }

    /// The coordinator's OS process id (spout-emit and terminal spans are
    /// stamped with it in the merged trace).
    pub fn coordinator_pid(&self) -> u32 {
        self.fleet.coord_pid
    }

    /// Address of the unified Prometheus endpoint, when
    /// [`RtConfig::metrics_addr`] was set (resolves port 0).  It serves
    /// the runtime's families plus every worker's pushed metrics under
    /// `worker`/`generation` labels.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.rt().metrics_addr()
    }

    /// Kills worker `idx`'s OS process (SIGKILL), as a fault-injection
    /// hook.  The supervisor respawns it within the restart budget.
    pub fn kill_worker(&self, idx: usize) -> Result<()> {
        let slot = self
            .fleet
            .slots
            .get(idx)
            .ok_or_else(|| Error::Config(format!("no worker slot {idx}")))?;
        match slot.life.lock().child.as_mut() {
            Some(child) => child
                .kill()
                .map_err(|e| Error::Runtime(format!("kill worker {idx}: {e}"))),
            None => Err(Error::Runtime(format!("worker {idx} has no process"))),
        }
    }

    /// Seconds since submit.
    pub fn uptime_s(&self) -> f64 {
        self.rt().uptime_s()
    }

    /// Messages fully acked so far.
    pub fn acked(&self) -> u64 {
        self.rt().acked()
    }

    /// Distinct messages tracked so far.
    pub fn tracked(&self) -> u64 {
        self.rt().tracked()
    }

    /// Spout emissions so far (fresh, not counting replays).
    pub fn spout_emitted(&self) -> u64 {
        self.rt().spout_emitted()
    }

    /// Tuple trees currently pending in the acker.
    pub fn pending_trees(&self) -> usize {
        self.fleet.ctx.shared().ackers.pending_count()
    }

    /// Asks every worker to exit, waits for the processes (killing
    /// stragglers) and joins the fleet's threads.  Readers run until their
    /// connection's EOF, so the workers' final telemetry pushes land.
    fn stop_fleet(&mut self) {
        let fleet = &self.fleet;
        fleet.stopping.store(true, Ordering::Release);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for slot in &fleet.slots {
            let _ = slot.outbound.send(Outbound::Control(Frame::Shutdown));
        }
        for slot in &fleet.slots {
            let Some(mut child) = slot.life.lock().child.take() else {
                continue;
            };
            // Give the worker a moment to exit cleanly, then force it.
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        let threads = std::mem::take(&mut *fleet.threads.lock());
        for h in threads {
            let _ = h.join();
        }
    }

    /// Stops the spouts, drains in-flight trees (forcing checkpoints and
    /// deferred-ack flushes), tears the fleet down and reports.
    pub fn shutdown(mut self) -> DistReport {
        let fleet = Arc::clone(&self.fleet);
        self.rt().drain();
        // Drain: nudge workers to checkpoint + flush deferred acks until
        // every tree settles or the budget expires.
        let deadline = Instant::now() + super::DRAIN_TIMEOUT;
        let mut seq = 0;
        let drained_clean = loop {
            if fleet.quiesced() {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            seq += 1;
            for slot in &fleet.slots {
                let _ = slot.outbound.send(Outbound::Control(Frame::Flush { seq }));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        self.stop_fleet();
        let rt = self.rt.take().expect("runtime lives until shutdown");
        let shared = fleet.ctx.shared();
        let final_snapshots = (0..fleet.task_count)
            .map(|task| {
                let store = shared.checkpoints.as_ref()?;
                store.load(task, u64::MAX)?.base
            })
            .collect();
        let (_, r) = rt.shutdown();
        let replays_scheduled = r.journal_of_kind("replay_scheduled").len() as u64;

        // One merged trace: the runtime's spout-emit/terminal spans,
        // stamped with this process's pid, plus the worker hop spans.
        let mut spans = r.spans;
        for s in &mut spans {
            s.pid = fleet.coord_pid;
        }
        spans.extend(fleet.worker_spans.lock().drain(..));
        spans.sort_by(|a, b| {
            (a.trace_id, a.start_us, a.kind.is_terminal()).cmp(&(
                b.trace_id,
                b.start_us,
                b.kind.is_terminal(),
            ))
        });
        let total = |f: fn(&ConnStats) -> &AtomicU64| -> u64 {
            fleet
                .slots
                .iter()
                .map(|s| f(&s.stats).load(Ordering::Relaxed))
                .sum()
        };
        DistReport {
            uptime_s: r.uptime_s,
            spout_emitted: r.spout_emitted,
            tracked: r.tracked,
            acked: r.acked,
            failed: r.failed,
            timed_out: r.timed_out,
            permanently_failed: r.permanently_failed,
            replays_scheduled,
            replays_emitted: r.replays,
            in_flight: r.in_flight,
            avg_complete_latency_ms: r.avg_complete_latency_ms,
            p99_complete_latency_ms: r.p99_complete_latency_ms,
            credits: r.credits,
            checkpoints_taken: r.checkpoints_taken,
            restores: r.restores,
            snapshot_bytes: r.snapshot_bytes,
            worker_pids: self.worker_pids(),
            worker_restarts: fleet.worker_restarts.get(),
            worker_disconnects: fleet.worker_disconnects.get(),
            bytes_sent: total(|s| &s.bytes_out),
            bytes_received: total(|s| &s.bytes_in),
            frames_sent: total(|s| &s.frames_out),
            frames_received: total(|s| &s.frames_in),
            journal: r.journal,
            spans,
            spans_dropped: r.spans_dropped + fleet.worker_spans_dropped.load(Ordering::Relaxed),
            coordinator_pid: fleet.coord_pid,
            final_snapshots,
            drained_clean,
        }
    }
}

impl Drop for RunningDist {
    /// A handle dropped without [`shutdown`](RunningDist::shutdown) still
    /// takes its worker processes down.
    fn drop(&mut self) {
        if self.rt.is_some() {
            self.stop_fleet();
        }
    }
}

/// Final accounting of a distributed run: the threaded runtime's report
/// (every tuple, tree, credit and checkpoint figure comes from it) plus the
/// fleet's processes, connections and merged cross-process trace.
#[derive(Debug)]
pub struct DistReport {
    /// Wall-clock seconds from submit to shutdown.
    pub uptime_s: f64,
    /// Tuple emissions out of spouts (fresh, not counting replays).
    pub spout_emitted: u64,
    /// Distinct tracked messages (fresh spout message ids).
    pub tracked: u64,
    /// Messages fully acked.
    pub acked: u64,
    /// Tree-failure events (per tree, not per message).
    pub failed: u64,
    /// Tree-timeout events (per tree, not per message).
    pub timed_out: u64,
    /// Messages permanently failed: replay budget exhausted, or — with
    /// replay off — every failed/timed-out tree.
    pub permanently_failed: u64,
    /// Replays scheduled (backoff timers armed).
    pub replays_scheduled: u64,
    /// Replays re-emitted under fresh trees.
    pub replays_emitted: u64,
    /// Messages still unresolved at shutdown.
    pub in_flight: u64,
    /// Mean tree-completion latency, milliseconds.
    pub avg_complete_latency_ms: f64,
    /// p99 tree-completion latency, milliseconds.
    pub p99_complete_latency_ms: f64,
    /// Flow-control ledger totals (all zero when credit flow was off).
    pub credits: CreditTotals,
    /// Checkpoints deposited by workers.
    pub checkpoints_taken: u64,
    /// Successful state restores after reconnects.
    pub restores: u64,
    /// Total checkpoint payload bytes deposited.
    pub snapshot_bytes: u64,
    /// Last known OS pid per worker slot.
    pub worker_pids: Vec<u32>,
    /// Worker processes respawned by the supervisor.
    pub worker_restarts: u64,
    /// Worker connections lost (kill, crash, or socket error).
    pub worker_disconnects: u64,
    /// Payload bytes written to workers.
    pub bytes_sent: u64,
    /// Payload bytes read from workers.
    pub bytes_received: u64,
    /// Frames written to workers.
    pub frames_sent: u64,
    /// Frames read from workers.
    pub frames_received: u64,
    /// Control-plane event journal.
    pub journal: Vec<JournalEvent>,
    /// Merged sampled trace: coordinator spout-emit/terminal spans plus
    /// clock-normalized worker hop spans, ordered by `(trace_id,
    /// start_us)` and stamped with real pids and connection generations.
    pub spans: Vec<Span>,
    /// Spans rejected on ring-buffer overflow (coordinator + workers).
    pub spans_dropped: u64,
    /// The coordinator's OS pid (distinguishes its spans from worker
    /// spans in the merged trace).
    pub coordinator_pid: u32,
    /// Latest checkpointed snapshot per task at shutdown (`None` for
    /// stateless/spout tasks, and for every task with checkpoints off).
    pub final_snapshots: Vec<Option<StateSnapshot>>,
    /// Whether the shutdown drain reached a fully quiesced state within
    /// its budget.
    pub drained_clean: bool,
}

impl DistReport {
    /// The message-conservation identity:
    /// `tracked == acked + permanently_failed + in_flight`.
    pub fn conservation_holds(&self) -> bool {
        self.tracked == self.acked + self.permanently_failed + self.in_flight
    }

    /// The credit-conservation identity over the ledger.
    pub fn credit_conservation_holds(&self) -> bool {
        self.credits.conservation_holds()
    }

    /// Journal events of one kind.
    pub fn journal_of_kind(&self, kind: &str) -> Vec<&JournalEvent> {
        self.journal.iter().filter(|e| e.kind() == kind).collect()
    }

    /// Distinct sampled trace ids in the merged span log.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Chrome `trace_event` JSON of the merged trace, with process-name
    /// metadata records so the coordinator and each worker process land in
    /// separate named tracks in `chrome://tracing` / Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let mut names: Vec<(u64, String)> = Vec::new();
        for s in &self.spans {
            let pid = u64::from(s.pid);
            if pid == 0 || names.iter().any(|(p, _)| *p == pid) {
                continue;
            }
            let name = if s.pid == self.coordinator_pid {
                "coordinator".to_owned()
            } else {
                format!("worker {} (gen {})", s.worker, s.generation)
            };
            names.push((pid, name));
        }
        chrome_trace_json_named(&self.spans, &names)
    }
}
