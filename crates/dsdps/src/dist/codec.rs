//! Compact binary wire codec for the distributed runtime.
//!
//! Every cross-process hop — tuples, acks, credit grants, checkpoint
//! deposits and control messages — is one length-prefixed **frame**:
//!
//! ```text
//! frame := len:varint  tag:u8  body
//! ```
//!
//! Integers are LEB128 varints (signed values zigzag-encoded), floats are
//! 8 little-endian bytes, strings and byte strings are length-prefixed.
//! Stream ids and field schemas are never sent per tuple: both sides of a
//! connection build the same topology from the same registry entry, so
//! they derive identical [`InternTable`]s and tuples travel as a stream
//! *index* plus raw values.  Encoding appends into a caller-owned,
//! reusable `Vec<u8>`; decoding never allocates beyond the decoded values
//! themselves and **never panics** on truncated or corrupted input — every
//! length is bounds-checked against the remaining payload.
//!
//! The [`json`] submodule encodes the same frames through the workspace
//! serde_json shim.  It exists as the measured baseline for the codec
//! microbenchmark (`BENCH_dist.json`) and as a debugging aid; the runtime
//! always speaks binary.
//!
//! The [`value`] functions binary-encode a [`serde::JsonValue`] tree —
//! the workspace serde model — and back.  The checkpoint store reuses them
//! for compact state snapshots (see [`crate::rt::checkpoint`]).

use std::collections::HashMap;

use crate::topology::Topology;
use crate::tuple::{Fields, Tuple, Value};

/// Frames larger than this are rejected as malformed (a corrupted length
/// prefix must not make the reader allocate gigabytes).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// A decode failure.  Carries enough context to debug a corrupt stream;
/// decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value it promised.
    Truncated,
    /// A tag, length or invariant was out of range.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- varints ------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Zigzag-maps a signed value so small magnitudes stay short varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked cursor over an encoded payload.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint (at most 10 bytes).
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Malformed("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Malformed("varint longer than 10 bytes"));
            }
        }
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn svarint(&mut self) -> Result<i64, CodecError> {
        Ok(unzigzag(self.varint()?))
    }

    /// Reads a varint and checks it fits a length of remaining payload.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a varint element *count*; each element needs ≥ 1 byte, so a
    /// count beyond the remaining bytes is corruption, not a short read.
    fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::Malformed("element count exceeds payload"));
        }
        Ok(n as usize)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed byte string.
    pub fn byte_str(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.len()?;
        self.bytes(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.byte_str()?).map_err(|_| CodecError::Malformed("invalid UTF-8"))
    }

    /// Reads an 8-byte little-endian f64.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

#[inline]
fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

#[inline]
fn write_byte_str(buf: &mut Vec<u8>, s: &[u8]) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s);
}

// --- tuple values -------------------------------------------------------

const V_NULL: u8 = 0;
const V_FALSE: u8 = 1;
const V_TRUE: u8 = 2;
const V_I64: u8 = 3;
const V_F64: u8 = 4;
const V_STR: u8 = 5;
const V_BYTES: u8 = 6;
const V_LIST: u8 = 7;

/// Appends one tuple [`Value`].
pub fn write_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(V_NULL),
        Value::Bool(false) => buf.push(V_FALSE),
        Value::Bool(true) => buf.push(V_TRUE),
        Value::I64(i) => {
            buf.push(V_I64);
            write_varint(buf, zigzag(*i));
        }
        Value::F64(x) => {
            buf.push(V_F64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(V_STR);
            write_str(buf, s);
        }
        Value::Bytes(b) => {
            buf.push(V_BYTES);
            write_byte_str(buf, b);
        }
        Value::List(items) => {
            buf.push(V_LIST);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_value(buf, item);
            }
        }
    }
}

/// Reads one tuple [`Value`].
pub fn read_value(d: &mut Dec<'_>) -> Result<Value, CodecError> {
    match d.u8()? {
        V_NULL => Ok(Value::Null),
        V_FALSE => Ok(Value::Bool(false)),
        V_TRUE => Ok(Value::Bool(true)),
        V_I64 => Ok(Value::I64(d.svarint()?)),
        V_F64 => Ok(Value::F64(d.f64()?)),
        V_STR => Ok(Value::from(d.str()?)),
        V_BYTES => Ok(Value::Bytes(bytes::Bytes::from(d.byte_str()?.to_vec()))),
        V_LIST => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_value(d)?);
            }
            Ok(Value::List(items))
        }
        _ => Err(CodecError::Malformed("unknown value tag")),
    }
}

fn write_values(buf: &mut Vec<u8>, values: &[Value]) {
    write_varint(buf, values.len() as u64);
    for v in values {
        write_value(buf, v);
    }
}

fn read_values(d: &mut Dec<'_>) -> Result<Vec<Value>, CodecError> {
    let n = d.count()?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(read_value(d)?);
    }
    Ok(values)
}

// --- intern table -------------------------------------------------------

/// Deterministic per-topology intern table of `(component, stream)` pairs.
///
/// Both endpoints build it from the same [`Topology`] (components in id
/// order, each component's declared output streams in declaration order),
/// so a stream travels as a small varint index and the receiver recovers
/// the interned [`Fields`] schema without any per-tuple schema bytes.
pub struct InternTable {
    entries: Vec<(crate::stream::StreamId, Fields)>,
    /// `(component id, stream name) -> entry index`.
    index: HashMap<(usize, String), u32>,
    /// First entry index of each component, for per-component lookups.
    component_base: Vec<u32>,
}

impl InternTable {
    /// Builds the table for `topology`.
    pub fn new(topology: &Topology) -> Self {
        let mut entries = Vec::new();
        let mut index = HashMap::new();
        let mut component_base = Vec::new();
        for comp in topology.components() {
            component_base.push(entries.len() as u32);
            for decl in &comp.outputs {
                index.insert(
                    (comp.id.0, decl.id.as_str().to_owned()),
                    entries.len() as u32,
                );
                entries.push((decl.id.clone(), decl.fields.clone()));
            }
        }
        InternTable {
            entries,
            index,
            component_base,
        }
    }

    /// Number of interned streams (part of the topology fingerprint both
    /// sides verify at assign time).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the topology declares no streams (impossible for a valid
    /// topology, present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of `stream` as declared by `component`, if declared.
    pub fn lookup(&self, component: usize, stream: &str) -> Option<u32> {
        self.index.get(&(component, stream.to_owned())).copied()
    }

    /// The interned stream id and schema at `idx`.
    pub fn entry(&self, idx: u32) -> Option<(&crate::stream::StreamId, &Fields)> {
        self.entries.get(idx as usize).map(|(s, f)| (s, f))
    }

    /// First entry index of `component`.
    pub fn base_of(&self, component: usize) -> u32 {
        self.component_base[component]
    }

    /// Rebuilds a [`Tuple`] delivered for interned stream `idx`.
    pub fn tuple(&self, idx: u32, values: Vec<Value>) -> Result<Tuple, CodecError> {
        let (_, fields) = self
            .entry(idx)
            .ok_or(CodecError::Malformed("stream index out of range"))?;
        Ok(Tuple::with_fields(values, fields.clone()))
    }
}

// --- frames -------------------------------------------------------------

/// One tuple delivery on the coordinator → worker path.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTuple {
    /// Coordinator-assigned delivery token, echoed back in the result.
    pub token: u64,
    /// Destination global task id.
    pub dest_task: u32,
    /// Interned index of the producing stream (fields schema implied).
    pub stream: u32,
    /// Spout message id for replay dedup, when the delivery is tracked.
    pub dedup: Option<u64>,
    /// Root id of the tuple tree **when the coordinator sampled it for
    /// tracing** — the sampling decision travels with the tuple so workers
    /// record hop spans for exactly the trees the coordinator traces
    /// (`trace_id = splitmix64(root)` is derived, never sent).
    pub trace_root: Option<u64>,
    /// Raw tuple values; the schema comes from the intern table.
    pub values: Vec<Value>,
}

/// One hop span on the worker → coordinator telemetry path
/// ([`Frame::SpanBatch`]).  Carries only what the worker knows: timestamps
/// are µs on the **worker's** clock (the coordinator re-bases them with the
/// clock offset estimated at the `Hello`/`Assign` handshake) and the
/// component/worker/pid/generation tags are stamped coordinator-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// [`SpanKind`](crate::telemetry::SpanKind) discriminant
    /// (0 = spout-emit, 1 = hop, 2 = ack, 3 = fail, 4 = timeout).
    pub kind: u8,
    /// Tuple-tree root id (the sampled `trace_root` the tuple carried).
    pub root: u64,
    /// Global task id that executed the tuple.
    pub task: u32,
    /// Start timestamp, µs on the worker's clock.
    pub start_us: u64,
    /// Socket-receipt → execution-start wait, µs.
    pub queue_wait_us: u64,
    /// Bolt execute time, µs.
    pub exec_us: u64,
    /// Sequence number of the tuple batch the delivery arrived in.
    pub batch_id: u64,
}

/// One metric sample on the worker → coordinator telemetry path
/// ([`Frame::MetricsPush`]).  Counters travel as **deltas** since the last
/// push (respawns restart from zero without double counting); gauges travel
/// as the current value with the f64 stored in `value` via `to_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMetric {
    /// 0 = counter delta, 1 = gauge.
    pub kind: u8,
    /// Metric family name (worker-local registries are label-free; the
    /// coordinator re-registers under `worker`/`generation` labels).
    pub name: String,
    /// Counter delta, or `f64::to_bits` of the gauge value.
    pub value: u64,
}

/// One bolt emission on the worker → coordinator path.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEmission {
    /// Interned index of the emitting stream.
    pub stream: u32,
    /// Anchored to the input tuple's tree (`false` = fire-and-forget).
    pub anchored: bool,
    /// Direct-grouping destination task index, when emitted direct.
    pub direct_task: Option<u32>,
    /// Raw tuple values.
    pub values: Vec<Value>,
}

/// The outcome of executing one delivered tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// The delivery token being answered.
    pub token: u64,
    /// The bolt failed the tuple (fails the whole tree).
    pub failed: bool,
    /// Ack withheld until a checkpoint covers this input (stateful tasks
    /// under exactly-once / at-least-once recovery); a later
    /// [`Frame::AckFlush`] releases it.
    pub deferred: bool,
    /// Emissions produced while executing the tuple.
    pub emissions: Vec<WireEmission>,
}

/// Frame tag of `TupleBatch`, exposed so the coordinator can encode a
/// batch in place (tag, count, then [`write_tuple_parts`] per item) without
/// materializing a `Frame` first.
pub const TUPLE_BATCH_TAG: u8 = 3;

const T_HELLO: u8 = 1;
const T_ASSIGN: u8 = 2;
const T_TUPLE_BATCH: u8 = TUPLE_BATCH_TAG;
const T_RESULT_BATCH: u8 = 4;
// Tag 5 is unassigned.
const T_CHECKPOINT: u8 = 6;
const T_ACK_FLUSH: u8 = 7;
const T_RESTORE: u8 = 8;
const T_RESTORED: u8 = 9;
const T_FLUSH: u8 = 10;
const T_FLUSHED: u8 = 11;
const T_SHUTDOWN: u8 = 12;
const T_TICK: u8 = 13;
const T_SPAN_BATCH: u8 = 14;
const T_METRICS_PUSH: u8 = 15;
const T_LAST_WORDS: u8 = 16;

/// Every message of the wire protocol.
///
/// Direction is noted per variant; see `DESIGN.md` §15 for the protocol
/// walk-through.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → coordinator, first frame on a fresh connection.
    Hello {
        /// Worker slot index (from `DSDPS_DIST_WORKER`).
        worker: u32,
        /// Worker OS process id, journaled by the coordinator.
        pid: u32,
        /// Worker clock reading (µs since the worker's span clock epoch) at
        /// the moment the frame was sent.  The coordinator estimates
        /// `offset = coordinator_now_us − clock_us` on receipt and re-bases
        /// every span the worker later ships.
        clock_us: u64,
    },
    /// Coordinator → worker: topology assignment and runtime knobs.
    Assign {
        /// Worker slot index the coordinator believes it is talking to.
        worker: u32,
        /// Registry name of the topology to build.
        topology: String,
        /// Opaque argument string passed to the registry builder.
        args: String,
        /// Global bolt task ids this worker executes.
        tasks: Vec<u32>,
        /// [`RecoveryMode`](crate::rt::RecoveryMode) discriminant.
        recovery: u8,
        /// Checkpoint interval for stateful tasks, microseconds.
        ckpt_interval_us: u64,
        /// Bolt tick interval, microseconds (0 = no ticks).
        tick_interval_us: u64,
        /// Telemetry push cadence, microseconds: the worker ships
        /// [`Frame::SpanBatch`] + [`Frame::MetricsPush`] this often.
        metrics_interval_us: u64,
        /// Topology fingerprint: total task count.
        task_count: u32,
        /// Topology fingerprint: interned stream count.
        stream_count: u32,
    },
    /// Coordinator → worker: a batch of tuple deliveries.
    TupleBatch {
        /// The deliveries, possibly for several of the worker's tasks.
        items: Vec<WireTuple>,
    },
    /// Worker → coordinator: outcomes and emissions for delivered tuples.
    ResultBatch {
        /// One result per answered token.
        items: Vec<WireResult>,
    },
    /// Worker → coordinator: a full state snapshot of one stateful task.
    /// An [`Frame::AckFlush`] for the inputs it covers follows.
    CheckpointDeposit {
        /// Global task id.
        task: u32,
        /// Encoded snapshot payload ([`crate::rt::StateSnapshot`] bytes).
        payload: Vec<u8>,
        /// Replay-dedup message ids captured with the snapshot.
        dedup: Vec<u64>,
    },
    /// Worker → coordinator: deferred input acks released by a checkpoint.
    AckFlush {
        /// Delivery tokens whose input edges may now be acked.
        tokens: Vec<u64>,
    },
    /// Coordinator → worker: restore a task's state after a respawn,
    /// before any tuple flows.
    RestoreState {
        /// Global task id.
        task: u32,
        /// Snapshot payload, or `None` when only a dedup set survives.
        payload: Option<Vec<u8>>,
        /// Replay-dedup ids captured with the snapshot.
        dedup: Vec<u64>,
    },
    /// Worker → coordinator: the restore finished.
    StateRestored {
        /// Global task id.
        task: u32,
        /// Whether decoding + restoring succeeded.
        ok: bool,
        /// Restore latency, microseconds.
        latency_us: u64,
    },
    /// Coordinator → worker: checkpoint every stateful task now and flush
    /// deferred acks (drain step of shutdown).
    Flush {
        /// Echoed in the matching [`Frame::Flushed`].
        seq: u64,
    },
    /// Worker → coordinator: the matching [`Frame::Flush`] completed.
    Flushed {
        /// The flush sequence number being answered.
        seq: u64,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: unanchored emissions from a bolt tick.
    TickEmissions {
        /// Global task id that ticked.
        task: u32,
        /// The emissions.
        emissions: Vec<WireEmission>,
    },
    /// Worker → coordinator: hop spans drained from the worker's local
    /// trace ring buffers, shipped on the metrics interval.
    SpanBatch {
        /// Worker slot index.
        worker: u32,
        /// Spans rejected by the worker's ring buffers since the last
        /// batch (the coordinator folds this into its dropped counter).
        dropped: u64,
        /// The spans, timestamped on the worker's clock.
        spans: Vec<WireSpan>,
    },
    /// Worker → coordinator: local registry deltas, shipped on the metrics
    /// interval and re-registered under `worker`/`generation` labels.
    MetricsPush {
        /// Worker slot index.
        worker: u32,
        /// The samples.
        samples: Vec<WireMetric>,
    },
    /// Worker → coordinator: best-effort structured last words sent while
    /// the worker is dying (panic, decode error, socket failure).  The
    /// supervisor attaches the cause to the `worker_died` journal event.
    LastWords {
        /// Worker slot index.
        worker: u32,
        /// Short machine-readable cause (`panic`, `decode_error`, `io_error`).
        cause: String,
        /// Human-readable detail (panic payload, error text).
        detail: String,
    },
}

impl Frame {
    /// Short tag name for logs and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Assign { .. } => "assign",
            Frame::TupleBatch { .. } => "tuple_batch",
            Frame::ResultBatch { .. } => "result_batch",
            Frame::CheckpointDeposit { .. } => "checkpoint_deposit",
            Frame::AckFlush { .. } => "ack_flush",
            Frame::RestoreState { .. } => "restore_state",
            Frame::StateRestored { .. } => "state_restored",
            Frame::Flush { .. } => "flush",
            Frame::Flushed { .. } => "flushed",
            Frame::Shutdown => "shutdown",
            Frame::TickEmissions { .. } => "tick_emissions",
            Frame::SpanBatch { .. } => "span_batch",
            Frame::MetricsPush { .. } => "metrics_push",
            Frame::LastWords { .. } => "last_words",
        }
    }
}

fn write_opt_varint(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            write_varint(buf, v);
        }
    }
}

fn read_opt_varint(d: &mut Dec<'_>) -> Result<Option<u64>, CodecError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.varint()?)),
        _ => Err(CodecError::Malformed("bad option tag")),
    }
}

/// Appends one [`WireTuple`] in `TupleBatch` item layout.
pub fn write_tuple_item(buf: &mut Vec<u8>, item: &WireTuple) {
    write_tuple_parts(
        buf,
        item.token,
        item.dest_task,
        item.stream,
        item.dedup,
        item.trace_root,
        &item.values,
    );
}

/// [`write_tuple_item`] from borrowed parts, so a delivery is encoded
/// straight from the runtime's tuple without copying its values.
pub fn write_tuple_parts(
    buf: &mut Vec<u8>,
    token: u64,
    dest_task: u32,
    stream: u32,
    dedup: Option<u64>,
    trace_root: Option<u64>,
    values: &[Value],
) {
    write_varint(buf, token);
    write_varint(buf, u64::from(dest_task));
    write_varint(buf, u64::from(stream));
    write_opt_varint(buf, dedup);
    write_opt_varint(buf, trace_root);
    write_values(buf, values);
}

fn write_span(buf: &mut Vec<u8>, s: &WireSpan) {
    buf.push(s.kind);
    write_varint(buf, s.root);
    write_varint(buf, u64::from(s.task));
    write_varint(buf, s.start_us);
    write_varint(buf, s.queue_wait_us);
    write_varint(buf, s.exec_us);
    write_varint(buf, s.batch_id);
}

fn read_span(d: &mut Dec<'_>) -> Result<WireSpan, CodecError> {
    let kind = d.u8()?;
    if kind > 4 {
        return Err(CodecError::Malformed("bad span kind"));
    }
    Ok(WireSpan {
        kind,
        root: d.varint()?,
        task: d.varint()? as u32,
        start_us: d.varint()?,
        queue_wait_us: d.varint()?,
        exec_us: d.varint()?,
        batch_id: d.varint()?,
    })
}

fn write_metric(buf: &mut Vec<u8>, m: &WireMetric) {
    buf.push(m.kind);
    write_str(buf, &m.name);
    write_varint(buf, m.value);
}

fn read_metric(d: &mut Dec<'_>) -> Result<WireMetric, CodecError> {
    let kind = d.u8()?;
    if kind > 1 {
        return Err(CodecError::Malformed("bad metric kind"));
    }
    Ok(WireMetric {
        kind,
        name: d.str()?.to_owned(),
        value: d.varint()?,
    })
}

fn write_emission(buf: &mut Vec<u8>, e: &WireEmission) {
    write_varint(buf, u64::from(e.stream));
    buf.push(e.anchored as u8);
    write_opt_varint(buf, e.direct_task.map(u64::from));
    write_values(buf, &e.values);
}

fn read_emission(d: &mut Dec<'_>) -> Result<WireEmission, CodecError> {
    let stream = d.varint()? as u32;
    let anchored = match d.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Malformed("bad anchored flag")),
    };
    let direct_task = read_opt_varint(d)?.map(|v| v as u32);
    let values = read_values(d)?;
    Ok(WireEmission {
        stream,
        anchored,
        direct_task,
        values,
    })
}

/// Appends the complete length-prefixed encoding of `frame` to `buf`.
///
/// The body is encoded into the tail of `buf` first and the varint length
/// spliced in front, so one reusable buffer serves the whole connection.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) {
    let start = buf.len();
    encode_frame_body(frame, buf);
    let body_len = buf.len() - start;
    let mut prefix = [0u8; 10];
    let mut tmp = Vec::new();
    write_varint(&mut tmp, body_len as u64);
    prefix[..tmp.len()].copy_from_slice(&tmp);
    // Splice the prefix in front of the body.
    buf.splice(start..start, prefix[..tmp.len()].iter().copied());
}

/// Appends the frame body (tag + payload) **without** the length prefix —
/// the transport writer prefixes it when it owns the framing.
pub fn encode_frame_body(frame: &Frame, buf: &mut Vec<u8>) {
    match frame {
        Frame::Hello {
            worker,
            pid,
            clock_us,
        } => {
            buf.push(T_HELLO);
            write_varint(buf, u64::from(*worker));
            write_varint(buf, u64::from(*pid));
            write_varint(buf, *clock_us);
        }
        Frame::Assign {
            worker,
            topology,
            args,
            tasks,
            recovery,
            ckpt_interval_us,
            tick_interval_us,
            metrics_interval_us,
            task_count,
            stream_count,
        } => {
            buf.push(T_ASSIGN);
            write_varint(buf, u64::from(*worker));
            write_str(buf, topology);
            write_str(buf, args);
            write_varint(buf, tasks.len() as u64);
            for t in tasks {
                write_varint(buf, u64::from(*t));
            }
            buf.push(*recovery);
            write_varint(buf, *ckpt_interval_us);
            write_varint(buf, *tick_interval_us);
            write_varint(buf, *metrics_interval_us);
            write_varint(buf, u64::from(*task_count));
            write_varint(buf, u64::from(*stream_count));
        }
        Frame::TupleBatch { items } => {
            buf.push(T_TUPLE_BATCH);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_tuple_item(buf, item);
            }
        }
        Frame::ResultBatch { items } => {
            buf.push(T_RESULT_BATCH);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_varint(buf, item.token);
                buf.push(u8::from(item.failed) | (u8::from(item.deferred) << 1));
                write_varint(buf, item.emissions.len() as u64);
                for e in &item.emissions {
                    write_emission(buf, e);
                }
            }
        }
        Frame::CheckpointDeposit {
            task,
            payload,
            dedup,
        } => {
            buf.push(T_CHECKPOINT);
            write_varint(buf, u64::from(*task));
            write_byte_str(buf, payload);
            write_varint(buf, dedup.len() as u64);
            for id in dedup {
                write_varint(buf, *id);
            }
        }
        Frame::AckFlush { tokens } => {
            buf.push(T_ACK_FLUSH);
            write_varint(buf, tokens.len() as u64);
            for t in tokens {
                write_varint(buf, *t);
            }
        }
        Frame::RestoreState {
            task,
            payload,
            dedup,
        } => {
            buf.push(T_RESTORE);
            write_varint(buf, u64::from(*task));
            match payload {
                None => buf.push(0),
                Some(p) => {
                    buf.push(1);
                    write_byte_str(buf, p);
                }
            }
            write_varint(buf, dedup.len() as u64);
            for id in dedup {
                write_varint(buf, *id);
            }
        }
        Frame::StateRestored {
            task,
            ok,
            latency_us,
        } => {
            buf.push(T_RESTORED);
            write_varint(buf, u64::from(*task));
            buf.push(*ok as u8);
            write_varint(buf, *latency_us);
        }
        Frame::Flush { seq } => {
            buf.push(T_FLUSH);
            write_varint(buf, *seq);
        }
        Frame::Flushed { seq } => {
            buf.push(T_FLUSHED);
            write_varint(buf, *seq);
        }
        Frame::Shutdown => buf.push(T_SHUTDOWN),
        Frame::TickEmissions { task, emissions } => {
            buf.push(T_TICK);
            write_varint(buf, u64::from(*task));
            write_varint(buf, emissions.len() as u64);
            for e in emissions {
                write_emission(buf, e);
            }
        }
        Frame::SpanBatch {
            worker,
            dropped,
            spans,
        } => {
            buf.push(T_SPAN_BATCH);
            write_varint(buf, u64::from(*worker));
            write_varint(buf, *dropped);
            write_varint(buf, spans.len() as u64);
            for s in spans {
                write_span(buf, s);
            }
        }
        Frame::MetricsPush { worker, samples } => {
            buf.push(T_METRICS_PUSH);
            write_varint(buf, u64::from(*worker));
            write_varint(buf, samples.len() as u64);
            for m in samples {
                write_metric(buf, m);
            }
        }
        Frame::LastWords {
            worker,
            cause,
            detail,
        } => {
            buf.push(T_LAST_WORDS);
            write_varint(buf, u64::from(*worker));
            write_str(buf, cause);
            write_str(buf, detail);
        }
    }
}

/// Decodes one frame body (tag + payload, no length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, CodecError> {
    let mut d = Dec::new(body);
    let frame = decode_frame_inner(&mut d)?;
    if !d.is_done() {
        return Err(CodecError::Malformed("trailing bytes after frame"));
    }
    Ok(frame)
}

fn decode_frame_inner(d: &mut Dec<'_>) -> Result<Frame, CodecError> {
    match d.u8()? {
        T_HELLO => Ok(Frame::Hello {
            worker: d.varint()? as u32,
            pid: d.varint()? as u32,
            clock_us: d.varint()?,
        }),
        T_ASSIGN => {
            let worker = d.varint()? as u32;
            let topology = d.str()?.to_owned();
            let args = d.str()?.to_owned();
            let n = d.count()?;
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                tasks.push(d.varint()? as u32);
            }
            Ok(Frame::Assign {
                worker,
                topology,
                args,
                tasks,
                recovery: d.u8()?,
                ckpt_interval_us: d.varint()?,
                tick_interval_us: d.varint()?,
                metrics_interval_us: d.varint()?,
                task_count: d.varint()? as u32,
                stream_count: d.varint()? as u32,
            })
        }
        T_TUPLE_BATCH => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(WireTuple {
                    token: d.varint()?,
                    dest_task: d.varint()? as u32,
                    stream: d.varint()? as u32,
                    dedup: read_opt_varint(d)?,
                    trace_root: read_opt_varint(d)?,
                    values: read_values(d)?,
                });
            }
            Ok(Frame::TupleBatch { items })
        }
        T_RESULT_BATCH => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let token = d.varint()?;
                let flags = d.u8()?;
                if flags > 3 {
                    return Err(CodecError::Malformed("bad result flags"));
                }
                let m = d.count()?;
                let mut emissions = Vec::with_capacity(m);
                for _ in 0..m {
                    emissions.push(read_emission(d)?);
                }
                items.push(WireResult {
                    token,
                    failed: flags & 1 != 0,
                    deferred: flags & 2 != 0,
                    emissions,
                });
            }
            Ok(Frame::ResultBatch { items })
        }
        T_CHECKPOINT => {
            let task = d.varint()? as u32;
            let payload = d.byte_str()?.to_vec();
            let n = d.count()?;
            let mut dedup = Vec::with_capacity(n);
            for _ in 0..n {
                dedup.push(d.varint()?);
            }
            Ok(Frame::CheckpointDeposit {
                task,
                payload,
                dedup,
            })
        }
        T_ACK_FLUSH => {
            let n = d.count()?;
            let mut tokens = Vec::with_capacity(n);
            for _ in 0..n {
                tokens.push(d.varint()?);
            }
            Ok(Frame::AckFlush { tokens })
        }
        T_RESTORE => {
            let task = d.varint()? as u32;
            let payload = match d.u8()? {
                0 => None,
                1 => Some(d.byte_str()?.to_vec()),
                _ => return Err(CodecError::Malformed("bad option tag")),
            };
            let n = d.count()?;
            let mut dedup = Vec::with_capacity(n);
            for _ in 0..n {
                dedup.push(d.varint()?);
            }
            Ok(Frame::RestoreState {
                task,
                payload,
                dedup,
            })
        }
        T_RESTORED => Ok(Frame::StateRestored {
            task: d.varint()? as u32,
            ok: match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::Malformed("bad bool")),
            },
            latency_us: d.varint()?,
        }),
        T_FLUSH => Ok(Frame::Flush { seq: d.varint()? }),
        T_FLUSHED => Ok(Frame::Flushed { seq: d.varint()? }),
        T_SHUTDOWN => Ok(Frame::Shutdown),
        T_TICK => {
            let task = d.varint()? as u32;
            let n = d.count()?;
            let mut emissions = Vec::with_capacity(n);
            for _ in 0..n {
                emissions.push(read_emission(d)?);
            }
            Ok(Frame::TickEmissions { task, emissions })
        }
        T_SPAN_BATCH => {
            let worker = d.varint()? as u32;
            let dropped = d.varint()?;
            let n = d.count()?;
            let mut spans = Vec::with_capacity(n);
            for _ in 0..n {
                spans.push(read_span(d)?);
            }
            Ok(Frame::SpanBatch {
                worker,
                dropped,
                spans,
            })
        }
        T_METRICS_PUSH => {
            let worker = d.varint()? as u32;
            let n = d.count()?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push(read_metric(d)?);
            }
            Ok(Frame::MetricsPush { worker, samples })
        }
        T_LAST_WORDS => Ok(Frame::LastWords {
            worker: d.varint()? as u32,
            cause: d.str()?.to_owned(),
            detail: d.str()?.to_owned(),
        }),
        _ => Err(CodecError::Malformed("unknown frame tag")),
    }
}

// --- binary JsonValue trees (checkpoint snapshots) ----------------------

/// First payload byte of a binary-encoded snapshot.  `0xC5` is a UTF-8
/// continuation byte, so it can never begin a JSON text — decoders
/// auto-detect the format from it.
pub const SNAPSHOT_MAGIC: u8 = 0xC5;

const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_I64: u8 = 3;
const J_U64: u8 = 4;
const J_F64: u8 = 5;
const J_STR: u8 = 6;
const J_ARRAY: u8 = 7;
const J_OBJECT: u8 = 8;

/// Appends the binary encoding of a workspace-serde [`serde::JsonValue`]
/// tree.  The checkpoint store uses this (prefixed with
/// [`SNAPSHOT_MAGIC`]) instead of JSON text for compact snapshots.
pub fn write_json_value(buf: &mut Vec<u8>, v: &serde::JsonValue) {
    use serde::JsonValue as J;
    match v {
        J::Null => buf.push(J_NULL),
        J::Bool(false) => buf.push(J_FALSE),
        J::Bool(true) => buf.push(J_TRUE),
        J::I64(i) => {
            buf.push(J_I64);
            write_varint(buf, zigzag(*i));
        }
        J::U64(u) => {
            buf.push(J_U64);
            write_varint(buf, *u);
        }
        J::F64(x) => {
            buf.push(J_F64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        J::Str(s) => {
            buf.push(J_STR);
            write_str(buf, s);
        }
        J::Array(items) => {
            buf.push(J_ARRAY);
            write_varint(buf, items.len() as u64);
            for item in items {
                write_json_value(buf, item);
            }
        }
        J::Object(fields) => {
            buf.push(J_OBJECT);
            write_varint(buf, fields.len() as u64);
            for (k, val) in fields {
                write_str(buf, k);
                write_json_value(buf, val);
            }
        }
    }
}

/// Reads one binary-encoded [`serde::JsonValue`] tree.
pub fn read_json_value(d: &mut Dec<'_>) -> Result<serde::JsonValue, CodecError> {
    use serde::JsonValue as J;
    match d.u8()? {
        J_NULL => Ok(J::Null),
        J_FALSE => Ok(J::Bool(false)),
        J_TRUE => Ok(J::Bool(true)),
        J_I64 => Ok(J::I64(d.svarint()?)),
        J_U64 => Ok(J::U64(d.varint()?)),
        J_F64 => Ok(J::F64(d.f64()?)),
        J_STR => Ok(J::Str(d.str()?.to_owned())),
        J_ARRAY => {
            let n = d.count()?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(read_json_value(d)?);
            }
            Ok(J::Array(items))
        }
        J_OBJECT => {
            let n = d.count()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let k = d.str()?.to_owned();
                fields.push((k, read_json_value(d)?));
            }
            Ok(J::Object(fields))
        }
        _ => Err(CodecError::Malformed("unknown json-value tag")),
    }
}

// --- JSON shim path (microbench baseline) -------------------------------

/// The serde_json-shim encoding of the same frames, kept as the measured
/// baseline for the codec microbenchmark: this is what every cross-process
/// hop would pay if frames travelled as JSON text.
pub mod json {
    use super::*;
    use serde::JsonValue as J;

    fn value_to_json(v: &Value) -> J {
        match v {
            Value::Null => J::Null,
            Value::Bool(b) => J::Bool(*b),
            Value::I64(i) => J::I64(*i),
            Value::F64(x) => J::F64(*x),
            Value::Str(s) => J::Str(s.to_string()),
            Value::Bytes(b) => J::Array(b.iter().map(|&x| J::U64(u64::from(x))).collect()),
            Value::List(items) => J::Array(items.iter().map(value_to_json).collect()),
        }
    }

    fn value_from_json(v: &J) -> Result<Value, String> {
        Ok(match v {
            J::Null => Value::Null,
            J::Bool(b) => Value::Bool(*b),
            J::I64(i) => Value::I64(*i),
            J::U64(u) => Value::I64(*u as i64),
            J::F64(x) => Value::F64(*x),
            J::Str(s) => Value::from(s.as_str()),
            J::Array(items) => Value::List(
                items
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            J::Object(_) => return Err("unexpected object in tuple value".into()),
        })
    }

    fn tuple_item_to_json(t: &WireTuple) -> J {
        J::Object(vec![
            ("token".into(), J::U64(t.token)),
            ("dest".into(), J::U64(u64::from(t.dest_task))),
            ("stream".into(), J::U64(u64::from(t.stream))),
            ("dedup".into(), t.dedup.map_or(J::Null, J::U64)),
            ("trace".into(), t.trace_root.map_or(J::Null, J::U64)),
            (
                "values".into(),
                J::Array(t.values.iter().map(value_to_json).collect()),
            ),
        ])
    }

    fn obj_get<'a>(fields: &'a [(String, J)], key: &str) -> Result<&'a J, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    fn as_u64(v: &J) -> Result<u64, String> {
        match v {
            J::U64(u) => Ok(*u),
            J::I64(i) if *i >= 0 => Ok(*i as u64),
            _ => Err("expected unsigned integer".into()),
        }
    }

    fn tuple_item_from_json(v: &J) -> Result<WireTuple, String> {
        let J::Object(fields) = v else {
            return Err("tuple item must be an object".into());
        };
        let values = match obj_get(fields, "values")? {
            J::Array(items) => items
                .iter()
                .map(value_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("values must be an array".into()),
        };
        Ok(WireTuple {
            token: as_u64(obj_get(fields, "token")?)?,
            dest_task: as_u64(obj_get(fields, "dest")?)? as u32,
            stream: as_u64(obj_get(fields, "stream")?)? as u32,
            dedup: match obj_get(fields, "dedup")? {
                J::Null => None,
                other => Some(as_u64(other)?),
            },
            trace_root: match obj_get(fields, "trace")? {
                J::Null => None,
                other => Some(as_u64(other)?),
            },
            values,
        })
    }

    /// Encodes a [`Frame::TupleBatch`] as JSON text through the shim.
    /// Only the tuple path is implemented — it is the hot path the
    /// microbenchmark compares; control frames are cold.
    pub fn tuple_batch_to_string(items: &[WireTuple]) -> String {
        let doc = J::Object(vec![
            ("frame".into(), J::Str("tuple_batch".into())),
            (
                "items".into(),
                J::Array(items.iter().map(tuple_item_to_json).collect()),
            ),
        ]);
        serde_json::to_string(&doc).expect("json encoding cannot fail")
    }

    /// Decodes a [`json::tuple_batch_to_string`] document back.
    pub fn tuple_batch_from_str(text: &str) -> Result<Vec<WireTuple>, String> {
        let doc = serde_json::parse(text).map_err(|e| e.to_string())?;
        let J::Object(fields) = doc else {
            return Err("document must be an object".into());
        };
        match obj_get(&fields, "items")? {
            J::Array(items) => items.iter().map(tuple_item_from_json).collect(),
            _ => Err("items must be an array".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut d = Dec::new(&buf);
            assert_eq!(d.varint().unwrap(), v);
            assert!(d.is_done());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -64, 63, -65] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes must stay short.
        assert!(zigzag(-64) < 128);
        assert!(zigzag(63) < 128);
    }

    #[test]
    fn varint_overflow_is_an_error_not_a_panic() {
        let buf = [0xffu8; 11];
        assert!(Dec::new(&buf).varint().is_err());
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(Dec::new(&buf).varint().is_err());
    }

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::from(-42i64),
            Value::from(3.5f64),
            Value::from("hello"),
            Value::Bytes(bytes::Bytes::from_static(b"\x00\x01\x02")),
            Value::List(vec![Value::from(1i64), Value::from("x")]),
        ]
    }

    #[test]
    fn value_round_trips() {
        for v in sample_values() {
            let mut buf = Vec::new();
            write_value(&mut buf, &v);
            let mut d = Dec::new(&buf);
            assert_eq!(read_value(&mut d).unwrap(), v);
            assert!(d.is_done());
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                worker: 2,
                pid: 4711,
                clock_us: 12_345,
            },
            Frame::Assign {
                worker: 1,
                topology: "calib".into(),
                args: "n=100".into(),
                tasks: vec![1, 3, 5],
                recovery: 0,
                ckpt_interval_us: 500_000,
                tick_interval_us: 1_000_000,
                metrics_interval_us: 250_000,
                task_count: 6,
                stream_count: 3,
            },
            Frame::TupleBatch {
                items: vec![WireTuple {
                    token: 99,
                    dest_task: 3,
                    stream: 1,
                    dedup: Some(7),
                    trace_root: Some(4242),
                    values: sample_values(),
                }],
            },
            Frame::ResultBatch {
                items: vec![WireResult {
                    token: 99,
                    failed: false,
                    deferred: true,
                    emissions: vec![WireEmission {
                        stream: 2,
                        anchored: true,
                        direct_task: Some(0),
                        values: vec![Value::from(1i64)],
                    }],
                }],
            },
            Frame::CheckpointDeposit {
                task: 3,
                payload: vec![0xC5, 1, 2, 3],
                dedup: vec![7, 8, 9],
            },
            Frame::AckFlush {
                tokens: vec![99, 100],
            },
            Frame::RestoreState {
                task: 3,
                payload: Some(vec![0xC5, 1]),
                dedup: vec![7],
            },
            Frame::StateRestored {
                task: 3,
                ok: true,
                latency_us: 120,
            },
            Frame::Flush { seq: 4 },
            Frame::Flushed { seq: 4 },
            Frame::Shutdown,
            Frame::TickEmissions {
                task: 5,
                emissions: vec![WireEmission {
                    stream: 0,
                    anchored: false,
                    direct_task: None,
                    values: vec![Value::from(2.0f64)],
                }],
            },
            Frame::SpanBatch {
                worker: 1,
                dropped: 2,
                spans: vec![WireSpan {
                    kind: 1,
                    root: 4242,
                    task: 3,
                    start_us: 1_000_000,
                    queue_wait_us: 35,
                    exec_us: 12,
                    batch_id: 17,
                }],
            },
            Frame::MetricsPush {
                worker: 1,
                samples: vec![
                    WireMetric {
                        kind: 0,
                        name: "dsdps_worker_executed_total".into(),
                        value: 640,
                    },
                    WireMetric {
                        kind: 1,
                        name: "dsdps_worker_uptime_seconds".into(),
                        value: 1.5f64.to_bits(),
                    },
                ],
            },
            Frame::LastWords {
                worker: 1,
                cause: "panic".into(),
                detail: "bolt exploded at tuple 7".into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            encode_frame_body(&frame, &mut buf);
            let back = decode_frame(&buf).unwrap_or_else(|e| panic!("{}: {e}", frame.kind()));
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn length_prefixed_encoding_is_parseable() {
        let frame = Frame::Flush { seq: 2 };
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        let mut d = Dec::new(&buf);
        let len = d.varint().unwrap() as usize;
        assert_eq!(len, d.remaining());
        assert_eq!(decode_frame(d.bytes(len).unwrap()).unwrap(), frame);
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        for frame in sample_frames() {
            let mut buf = Vec::new();
            encode_frame_body(&frame, &mut buf);
            for cut in 0..buf.len() {
                // Every proper prefix must decode to an error, never panic.
                let _ = decode_frame(&buf[..cut]);
            }
        }
    }

    #[test]
    fn corrupted_tags_error() {
        assert!(decode_frame(&[0xfe]).is_err());
        assert!(decode_frame(&[]).is_err());
        // Element count far beyond the payload is malformed, not an OOM.
        let mut buf = vec![T_TUPLE_BATCH];
        write_varint(&mut buf, u64::MAX);
        assert!(matches!(
            decode_frame(&buf),
            Err(CodecError::Malformed(_)) | Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn json_value_trees_round_trip() {
        use serde::JsonValue as J;
        let tree = J::Object(vec![
            (
                "counts".into(),
                J::Array(vec![J::I64(-3), J::U64(u64::MAX)]),
            ),
            ("name".into(), J::Str("w0".into())),
            ("f".into(), J::F64(0.25)),
            ("none".into(), J::Null),
            ("on".into(), J::Bool(true)),
        ]);
        let mut buf = Vec::new();
        write_json_value(&mut buf, &tree);
        let mut d = Dec::new(&buf);
        assert_eq!(read_json_value(&mut d).unwrap(), tree);
        assert!(d.is_done());
    }

    #[test]
    fn json_shim_path_round_trips_and_is_bigger() {
        let items = vec![
            WireTuple {
                token: 1,
                dest_task: 2,
                stream: 0,
                dedup: None,
                trace_root: None,
                values: vec![Value::from("url-17"), Value::from(17i64)],
            };
            16
        ];
        let text = json::tuple_batch_to_string(&items);
        assert_eq!(json::tuple_batch_from_str(&text).unwrap(), items);
        let mut bin = Vec::new();
        encode_frame_body(&Frame::TupleBatch { items }, &mut bin);
        assert!(
            bin.len() * 2 < text.len(),
            "binary {} vs json {} bytes",
            bin.len(),
            text.len()
        );
    }
}
