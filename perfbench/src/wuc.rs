//! The Windowed URL Count job the benchmark drives on every backend: its
//! seeded inputs, its topology (source → parse → count → report, plus an
//! end-of-stream barrier), and the single-threaded reference computation
//! the results are checked against.
//!
//! Results are per-window rows `(window, total, digest)`.  `digest` is
//! `Σ count(url) · h(url)` over the window's per-URL counts, a linear
//! sketch: partial counts from any number of count tasks add up to the
//! same digest, and a single missing, extra or misrouted tuple changes it
//! (by `h(url) ≠ 0`).  The report stays a handful of rows per window, so
//! its checkpoint cost does not grow with the run.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsdps::component::{Bolt, BoltOutput, MessageId, Spout, SpoutOutput};
use dsdps::error::{Error, Result};
use dsdps::rt::{SnapshotKind, StateSnapshot, StatefulComponent};
use dsdps::stream::StreamId;
use dsdps::topology::{CostModel, Topology, TopologyBuilder};
use dsdps::tuple::{Fields, Tuple, Value};

use crate::ledger::{self, Kind, LocalLedger};

/// Message id of the end-of-stream tuple (data tuples use `seq + 1`).
pub const EOS_ID: MessageId = u64::MAX - 1;

/// A seeded 64-bit generator (splitmix64): identical sequences on every
/// platform, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finalizer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Process-independent hash of a URL (FNV-1a, then mixed); never 0.
pub fn url_hash(url: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in url.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h) | 1
}

/// The generated input of one run: a catalog of request lines and a
/// Zipf-distributed sequence of catalog indices the source cycles through.
pub struct Inputs {
    pub lines: Vec<Arc<str>>,
    pub keys: Vec<u32>,
}

impl Inputs {
    /// `n_urls` request lines and `len` Zipf(`s`) draws over them.  The
    /// popularity ranks are shuffled per seed, so which URL is hot differs
    /// between seeds.
    pub fn generate(seed: u64, n_urls: usize, s: f64, len: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x5752_4c5f_6361_7461);
        const HOSTS: [&str; 8] = [
            "news.example.org",
            "shop.example.com",
            "cdn.example.net",
            "blog.example.io",
            "api.example.org",
            "img.example.com",
            "docs.example.net",
            "www.example.edu",
        ];
        const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let mut lines = Vec::with_capacity(n_urls);
        for i in 0..n_urls {
            let host = HOSTS[(rng.next_u64() % HOSTS.len() as u64) as usize];
            let len = 6 + (rng.next_u64() % 18) as usize;
            let path: String = (0..len)
                .map(|_| ALPHA[(rng.next_u64() % ALPHA.len() as u64) as usize] as char)
                .collect();
            lines.push(Arc::from(
                format!("GET http://{host}/{path}/{i} HTTP/1.1").as_str(),
            ));
        }
        // Rank r (0 = most popular) maps to catalog entry perm[r].
        let mut perm: Vec<u32> = (0..n_urls as u32).collect();
        for i in (1..perm.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let mut cdf = Vec::with_capacity(n_urls);
        let mut acc = 0.0;
        for r in 0..n_urls {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let keys = (0..len)
            .map(|_| {
                let u = rng.next_f64() * acc;
                let r = cdf.partition_point(|&c| c <= u).min(n_urls - 1);
                perm[r]
            })
            .collect();
        Inputs { lines, keys }
    }

    /// The request line of tuple `seq`.
    pub fn line(&self, seq: u64) -> &Arc<str> {
        &self.lines[self.keys[(seq % self.keys.len() as u64) as usize] as usize]
    }
}

/// The `parse` step: the URL inside a request line.
pub fn url_of(line: &str) -> &str {
    let rest = line.strip_prefix("GET ").unwrap_or(line);
    rest.split(' ').next().unwrap_or("")
}

/// One window's result row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Row {
    pub total: u64,
    pub digest: u64,
}

/// Result rows keyed by window.
pub type Rows = BTreeMap<u64, Row>;

/// The single-threaded reference computation of the job over tuples
/// `0..n`: per-window per-URL counts, folded into rows.
pub fn reference(inputs: &Inputs, n: u64, window: u64) -> Rows {
    let mut rows = Rows::new();
    let mut counts: HashMap<&str, u64> = HashMap::new();
    let mut w = 0;
    while w * window < n {
        counts.clear();
        for seq in w * window..((w + 1) * window).min(n) {
            *counts.entry(url_of(inputs.line(seq))).or_insert(0) += 1;
        }
        let mut row = Row::default();
        for (url, &c) in &counts {
            row.total += c;
            row.digest = row.digest.wrapping_add(c.wrapping_mul(url_hash(url)));
        }
        rows.insert(w, row);
        w += 1;
    }
    rows
}

/// Rows that differ between the reference and the program's result:
/// missing, extra, or with a different total or digest.
pub fn mismatched_rows(expected: &Rows, got: &Rows) -> u64 {
    let mut bad = 0;
    for (w, row) in expected {
        if got.get(w) != Some(row) {
            bad += 1;
        }
    }
    bad + got.keys().filter(|w| !expected.contains_key(w)).count() as u64
}

// --- source -------------------------------------------------------------

/// What the benchmark's control thread tells the source to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Emit nothing.
    Idle,
    /// Open loop: tuple `k` of the phase is due `k / rate` seconds after
    /// `start_ns` on the bench clock.  `record` keeps per-tuple latency.
    Open {
        rate: f64,
        start_ns: u64,
        record: bool,
    },
    /// Closed loop: emit as fast as the runtime's in-flight window allows.
    Closed,
    /// Emit the end-of-stream tuple once.
    Eos,
}

/// Per-tuple record of one open-loop phase, indexed by `seq - first_seq`.
#[derive(Default)]
pub struct OpenRecord {
    pub first_seq: u64,
    pub start_ns: u64,
    pub rate: f64,
    /// Scheduled send → ack, µs (NaN until acked).
    pub lat_us: Vec<f32>,
    /// Scheduled send → emission, µs.
    pub lag_us: Vec<f32>,
}

impl OpenRecord {
    pub fn sched_ns(&self, seq: u64) -> f64 {
        self.start_ns as f64 + (seq - self.first_seq) as f64 * 1e9 / self.rate
    }
}

/// State shared between the benchmark's control thread and the source.
pub struct SourceCtl {
    epoch: Instant,
    command: Mutex<(u64, Command)>,
    /// Tuples emitted (the next sequence number).
    pub emitted: AtomicU64,
    pub acked: AtomicU64,
    pub failed: AtomicU64,
    /// Bench-clock time of the first ack (0 = none yet).
    pub first_ack_ns: AtomicU64,
    pub eos_acked: AtomicBool,
    pub record: Mutex<OpenRecord>,
    /// Time inside `next_tuple` and tuples it emitted (the generator's own
    /// cost per tuple).
    pub gen_ns: AtomicU64,
    pub gen_tuples: AtomicU64,
}

impl SourceCtl {
    pub fn new() -> Arc<Self> {
        Arc::new(SourceCtl {
            epoch: Instant::now(),
            command: Mutex::new((0, Command::Idle)),
            emitted: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            first_ack_ns: AtomicU64::new(0),
            eos_acked: AtomicBool::new(false),
            record: Mutex::new(OpenRecord::default()),
            gen_ns: AtomicU64::new(0),
            gen_tuples: AtomicU64::new(0),
        })
    }

    /// Nanoseconds on the bench clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set(&self, command: Command) {
        let mut c = self.command.lock().expect("command lock");
        c.0 += 1;
        c.1 = command;
    }

    fn get(&self) -> (u64, Command) {
        *self.command.lock().expect("command lock")
    }

    /// Emitted but not yet acked or failed.
    pub fn in_flight(&self) -> u64 {
        let done = self.acked.load(Ordering::Acquire) + self.failed.load(Ordering::Acquire);
        self.emitted.load(Ordering::Acquire).saturating_sub(done)
    }
}

/// How the source paces itself.
#[derive(Clone, Copy)]
pub enum Pacing {
    /// Wall clock, phases commanded through [`SourceCtl`].
    Driven,
    /// Simulator virtual time: `rate` tuples/s until `total` tuples, then
    /// the end-of-stream tuple once every data tuple is acked.
    Virtual { rate: f64, total: u64 },
}

/// Tuples emitted per `next_tuple` call at most (bounds bursts).
const EMIT_CAP: u64 = 256;
/// Tuples per call in the closed loop (the in-flight gate is checked
/// between calls).
const CLOSED_BURST: u64 = 16;

pub struct Source {
    inputs: Arc<Inputs>,
    ctl: Arc<SourceCtl>,
    pacing: Pacing,
    trace: bool,
    seq: u64,
    seen_gen: u64,
    command: Command,
    /// First sequence number of the current command.
    phase_first: u64,
    /// Sequence range of the recorded open phase.
    rec_lo: u64,
    rec_hi: u64,
    eos_sent: bool,
    acked: u64,
    ledger: LocalLedger,
}

impl Source {
    pub fn new(inputs: Arc<Inputs>, ctl: Arc<SourceCtl>, pacing: Pacing, trace: bool) -> Self {
        Source {
            inputs,
            ctl,
            pacing,
            trace,
            seq: 0,
            seen_gen: 0,
            command: Command::Idle,
            phase_first: 0,
            rec_lo: 0,
            rec_hi: 0,
            eos_sent: false,
            acked: 0,
            ledger: LocalLedger::default(),
        }
    }

    fn emit(&mut self, out: &mut SpoutOutput) {
        let seq = self.seq;
        let line = Value::Str(Arc::clone(self.inputs.line(seq)));
        out.emit_with_id(Tuple::of([line, Value::from(seq as i64)]), seq + 1);
        if self.trace && ledger::sampled(seq) {
            self.ledger.event(Kind::Emit, seq, ledger::wall_ns());
        }
        self.seq += 1;
    }

    fn emit_eos(&mut self, out: &mut SpoutOutput) {
        out.emit_to_with_id(
            StreamId::new("eos"),
            Tuple::of([Value::from(-1i64)]),
            EOS_ID,
        );
        self.eos_sent = true;
    }

    fn drive(&mut self, out: &mut SpoutOutput) {
        let (generation, command) = self.ctl.get();
        if generation != self.seen_gen {
            self.seen_gen = generation;
            self.command = command;
            self.phase_first = self.seq;
            if let Command::Open {
                rate,
                start_ns,
                record: true,
            } = command
            {
                // Reserved up front for any phase length: a reallocation
                // inside the loop would stall the source.
                let cap = (rate * 120.0) as usize;
                *self.ctl.record.lock().expect("record lock") = OpenRecord {
                    first_seq: self.seq,
                    start_ns,
                    rate,
                    lat_us: Vec::with_capacity(cap),
                    lag_us: Vec::with_capacity(cap),
                };
                self.rec_lo = self.seq;
                self.rec_hi = self.seq;
            }
        }
        match self.command {
            Command::Idle => {}
            Command::Closed => {
                for _ in 0..CLOSED_BURST {
                    self.emit(out);
                }
            }
            Command::Eos => {
                if !self.eos_sent {
                    self.emit_eos(out);
                }
            }
            Command::Open {
                rate,
                start_ns,
                record,
            } => {
                let now = self.ctl.now_ns();
                let due = (now.saturating_sub(start_ns) as f64 * 1e-9 * rate) as u64;
                let n = due
                    .saturating_sub(self.seq - self.phase_first)
                    .min(EMIT_CAP);
                if n == 0 {
                    return;
                }
                if !record {
                    for _ in 0..n {
                        self.emit(out);
                    }
                    return;
                }
                let ctl = Arc::clone(&self.ctl);
                let mut rec = ctl.record.lock().expect("record lock");
                for _ in 0..n {
                    let lag = (now as f64 - rec.sched_ns(self.seq)) * 1e-3;
                    rec.lag_us.push(lag as f32);
                    rec.lat_us.push(f32::NAN);
                    self.emit(out);
                }
                self.rec_hi = self.seq;
            }
        }
    }

    fn pace_virtual(&mut self, out: &mut SpoutOutput, rate: f64, total: u64) {
        if self.seq < total {
            let due = ((out.now_s() * rate) as u64).min(total);
            let n = due.saturating_sub(self.seq).min(EMIT_CAP);
            for _ in 0..n {
                self.emit(out);
            }
        } else if !self.eos_sent && self.acked == total {
            self.emit_eos(out);
        }
    }
}

impl Spout for Source {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        let t0 = Instant::now();
        let before = self.seq;
        match self.pacing {
            Pacing::Driven => self.drive(out),
            Pacing::Virtual { rate, total } => self.pace_virtual(out, rate, total),
        }
        let n = self.seq - before;
        if n > 0 {
            self.ctl.emitted.store(self.seq, Ordering::Release);
            if self.trace {
                self.ctl
                    .gen_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                self.ctl.gen_tuples.fetch_add(n, Ordering::Relaxed);
            }
        }
        true
    }

    fn ack(&mut self, id: MessageId) {
        if id == EOS_ID {
            self.ctl.eos_acked.store(true, Ordering::Release);
            return;
        }
        self.acked += 1;
        let now = self.ctl.now_ns();
        if self.ctl.acked.fetch_add(1, Ordering::AcqRel) == 0 {
            self.ctl.first_ack_ns.store(now.max(1), Ordering::Release);
        }
        let seq = id - 1;
        if self.trace && ledger::sampled(seq) {
            self.ledger.event(Kind::Ack, seq, ledger::wall_ns());
        }
        if (self.rec_lo..self.rec_hi).contains(&seq) {
            let mut rec = self.ctl.record.lock().expect("record lock");
            let lat = (now as f64 - rec.sched_ns(seq)) * 1e-3;
            let idx = (seq - rec.first_seq) as usize;
            rec.lat_us[idx] = lat as f32;
        }
    }

    fn fail(&mut self, id: MessageId) {
        if id != EOS_ID {
            self.ctl.failed.fetch_add(1, Ordering::AcqRel);
        }
    }
}

// --- bolts --------------------------------------------------------------

/// Extracts the URL from the request line and forwards it with the
/// tuple's sequence number.
struct ParseBolt {
    trace: bool,
    ledger: LocalLedger,
}

impl Bolt for ParseBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        let seq = tuple.get(1).and_then(Value::as_i64).unwrap_or(-1);
        let timed = self.trace && ledger::sampled(seq as u64);
        let (wall0, t0) = if timed {
            (ledger::wall_ns(), Some(Instant::now()))
        } else {
            (0, None)
        };
        let Some(line) = tuple.get(0).and_then(Value::as_str) else {
            out.fail();
            return;
        };
        out.emit(Tuple::of([Value::from(url_of(line)), Value::from(seq)]));
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as i64;
            self.ledger.value(Kind::ParseNs, ns as f64);
            self.ledger.event(Kind::ParseStart, seq as u64, wall0);
            self.ledger.event(Kind::ParseEnd, seq as u64, wall0 + ns);
        }
    }
}

/// Virtual-time latency recording of the simulator run: tuple `seq` is
/// scheduled at `seq / rate`; sampled tuples scheduled inside a fault
/// window are recorded when the count stage executes them.  Fault `i` (of `faults`)
/// covers `[from_s + i·period_s, from_s + i·period_s + len_s)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VirtualWindow {
    pub rate: f64,
    pub from_s: f64,
    pub len_s: f64,
    pub period_s: f64,
    pub faults: u32,
}

impl VirtualWindow {
    pub fn in_fault(&self, t: f64) -> bool {
        let d = t - self.from_s;
        d >= 0.0 && d < self.period_s * f64::from(self.faults) && d % self.period_s < self.len_s
    }

    /// End of the last fault window.
    pub fn end_s(&self) -> f64 {
        self.from_s + self.period_s * f64::from(self.faults.saturating_sub(1)) + self.len_s
    }
}

/// Rows of partial counts per tuple sent to the report.  A flush of a
/// whole window's rows is a burst: rows travel as `(url hash, count)` in
/// lists of this many, which keeps bursts small on the wire.
const FLUSH_ROWS: usize = 256;

/// Windowed per-URL partial counts.  A window is flushed to the report two
/// windows after the newest one this task has seen (tuples of one window
/// can arrive late through the other parse task), and everything is
/// flushed at end of stream.  A flush sends `(url, count)` rows in lists
/// of [`FLUSH_ROWS`].
struct CountBolt {
    window: u64,
    partials: HashMap<(u64, Arc<str>), u64>,
    newest: Option<u64>,
    trace: bool,
    virt: Option<VirtualWindow>,
    ledger: LocalLedger,
}

impl CountBolt {
    fn flush(&mut self, upto: Option<u64>, out: &mut BoltOutput) {
        let mut done: Vec<(u64, Arc<str>)> = self
            .partials
            .keys()
            .filter(|(w, _)| upto.is_none_or(|u| *w <= u))
            .cloned()
            .collect();
        done.sort();
        for chunk in done.chunk_by(|a, b| a.0 == b.0) {
            for rows in chunk.chunks(FLUSH_ROWS) {
                let mut list = Vec::with_capacity(2 * rows.len());
                for key in rows {
                    let c = self.partials.remove(key).expect("key just listed");
                    list.push(Value::from(url_hash(&key.1) as i64));
                    list.push(Value::from(c as i64));
                }
                out.emit(Tuple::of([
                    Value::from(rows[0].0 as i64),
                    Value::List(list),
                ]));
            }
        }
    }
}

impl Bolt for CountBolt {
    fn execute(&mut self, tuple: &Tuple, out: &mut BoltOutput) {
        if tuple.values().len() == 1 {
            // End of stream, broadcast by the barrier to every count task.
            self.flush(None, out);
            out.emit(Tuple::of([Value::from(-1i64), Value::List(Vec::new())]));
            return;
        }
        let (Some(Value::Str(url)), Some(seq)) =
            (tuple.get(0), tuple.get(1).and_then(Value::as_i64))
        else {
            out.fail();
            return;
        };
        let seq = seq as u64;
        if let Some(v) = self.virt.filter(|_| ledger::sampled(seq)) {
            let sched = seq as f64 / v.rate;
            if v.in_fault(sched) {
                self.ledger
                    .value(Kind::VirtLatMs, (out.now_s() - sched) * 1e3);
            }
        }
        let timed = self.trace && ledger::sampled(seq);
        let (wall0, t0) = if timed {
            (ledger::wall_ns(), Some(Instant::now()))
        } else {
            (0, None)
        };
        let w = seq / self.window;
        *self.partials.entry((w, Arc::clone(url))).or_insert(0) += 1;
        if self.newest.is_none_or(|n| w > n) {
            self.newest = Some(w);
            if w >= 2 {
                self.flush(Some(w - 2), out);
            }
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as i64;
            self.ledger.value(Kind::CountNs, ns as f64);
            self.ledger.event(Kind::CountStart, seq, wall0);
            self.ledger.event(Kind::CountEnd, seq, wall0 + ns);
        }
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

type CountState = (Option<u64>, Vec<(u64, String, u64)>);

impl StatefulComponent for CountBolt {
    fn snapshot(&mut self) -> StateSnapshot {
        let mut rows: Vec<(u64, String, u64)> = self
            .partials
            .iter()
            .map(|((w, url), &c)| (*w, url.to_string(), c))
            .collect();
        rows.sort();
        StateSnapshot::encode(SnapshotKind::Full, &(self.newest, rows))
    }

    fn restore(
        &mut self,
        base: &StateSnapshot,
        deltas: &[StateSnapshot],
    ) -> std::result::Result<(), String> {
        if !deltas.is_empty() {
            return Err("count snapshots are full-only".into());
        }
        let (newest, rows): CountState = base.decode()?;
        self.newest = newest;
        self.partials = rows
            .into_iter()
            .map(|(w, url, c)| ((w, Arc::from(url.as_str())), c))
            .collect();
        Ok(())
    }
}

/// Final state of the report task.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportState {
    pub rows: Rows,
    /// End-of-stream markers seen (one per count task).
    pub eos_seen: u64,
}

type ReportImage = (u64, Vec<(u64, u64, u64)>);

impl ReportState {
    /// Decodes the report task's checkpoint image.
    pub fn from_snapshot(snap: &StateSnapshot) -> std::result::Result<Self, String> {
        let (eos_seen, rows): ReportImage = snap.decode()?;
        Ok(ReportState {
            eos_seen,
            rows: rows
                .into_iter()
                .map(|(w, total, digest)| (w, Row { total, digest }))
                .collect(),
        })
    }
}

/// Folds the partial rows of every count task into the window rows.
struct ReportBolt {
    state: ReportState,
    publish: Arc<Mutex<Option<ReportState>>>,
}

impl Bolt for ReportBolt {
    fn execute(&mut self, tuple: &Tuple, _out: &mut BoltOutput) {
        let (Some(w), Some(Value::List(list))) =
            (tuple.get(0).and_then(Value::as_i64), tuple.get(1))
        else {
            return;
        };
        if w < 0 {
            self.state.eos_seen += 1;
            return;
        }
        let row = self.state.rows.entry(w as u64).or_default();
        for pair in list.chunks_exact(2) {
            if let (Some(h), Some(c)) = (pair[0].as_i64(), pair[1].as_i64()) {
                row.total += c as u64;
                row.digest = row.digest.wrapping_add((c as u64).wrapping_mul(h as u64));
            }
        }
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

impl StatefulComponent for ReportBolt {
    fn snapshot(&mut self) -> StateSnapshot {
        let rows: Vec<(u64, u64, u64)> = self
            .state
            .rows
            .iter()
            .map(|(w, r)| (*w, r.total, r.digest))
            .collect();
        StateSnapshot::encode(SnapshotKind::Full, &(self.state.eos_seen, rows))
    }

    fn restore(
        &mut self,
        base: &StateSnapshot,
        deltas: &[StateSnapshot],
    ) -> std::result::Result<(), String> {
        if !deltas.is_empty() {
            return Err("report snapshots are full-only".into());
        }
        self.state = ReportState::from_snapshot(base)?;
        Ok(())
    }
}

impl Drop for ReportBolt {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.publish.lock() {
            *slot = Some(std::mem::take(&mut self.state));
        }
    }
}

/// Relays the single end-of-stream tuple to every count task.
struct Barrier;

impl Bolt for Barrier {
    fn execute(&mut self, _tuple: &Tuple, out: &mut BoltOutput) {
        out.emit(Tuple::of([Value::from(-1i64)]));
    }
}

// --- topology -----------------------------------------------------------

/// Everything both sides of a distributed run need to build the same
/// topology; travels as the registry's argument string.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub parse: usize,
    pub count: usize,
    pub window: u64,
    pub trace: bool,
    pub virt: Option<VirtualWindow>,
}

impl Spec {
    pub fn to_args(&self) -> String {
        let v = self.virt.map_or("-".to_string(), |v| {
            format!(
                "{}/{}/{}/{}/{}",
                v.rate, v.from_s, v.len_s, v.period_s, v.faults
            )
        });
        format!(
            "{}:{}:{}:{}:{}",
            self.parse, self.count, self.window, self.trace as u8, v
        )
    }

    pub fn from_args(args: &str) -> Result<Self> {
        let bad = || Error::Config(format!("bad workload args `{args}`"));
        let f: Vec<&str> = args.split(':').collect();
        if f.len() != 5 {
            return Err(bad());
        }
        let virt = if f[4] == "-" {
            None
        } else {
            let v: Vec<f64> = f[4]
                .split('/')
                .map(|x| x.parse().map_err(|_| bad()))
                .collect::<Result<_>>()?;
            if v.len() != 5 {
                return Err(bad());
            }
            Some(VirtualWindow {
                rate: v[0],
                from_s: v[1],
                len_s: v[2],
                period_s: v[3],
                faults: v[4] as u32,
            })
        };
        Ok(Spec {
            parse: f[0].parse().map_err(|_| bad())?,
            count: f[1].parse().map_err(|_| bad())?,
            window: f[2].parse().map_err(|_| bad())?,
            trace: f[3] == "1",
            virt,
        })
    }
}

/// Simulator service costs (µs); the threaded and process backends run the
/// real code and ignore them.
const SIM_COST_US: [(&str, f64); 5] = [
    ("source", 2.0),
    ("parse", 20.0),
    ("count", 50.0),
    ("eos", 5.0),
    ("report", 2.0),
];

fn cost(name: &str) -> CostModel {
    let us = SIM_COST_US
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(1.0, |(_, c)| *c);
    CostModel {
        base_service_time_us: us,
        jitter: 0.1,
    }
}

/// The source's side of a topology: only the process that runs the spout
/// (the threaded runtime, the simulator, or the dist coordinator) has one.
pub struct SourceSide {
    pub inputs: Arc<Inputs>,
    pub ctl: Arc<SourceCtl>,
    pub pacing: Pacing,
}

/// Builds the job's topology.  `report` receives the report task's final
/// state when it is dropped (in-process backends).
pub fn build(
    spec: &Spec,
    source: Option<&SourceSide>,
    report: Arc<Mutex<Option<ReportState>>>,
) -> Result<Topology> {
    let mut b = TopologyBuilder::new("perfbench-wuc");
    let trace = spec.trace;
    let (inputs, ctl, pacing) = match source {
        Some(s) => (Arc::clone(&s.inputs), Arc::clone(&s.ctl), s.pacing),
        // Workers never instantiate the spout; the topology only needs its
        // shape.
        None => (
            Arc::new(Inputs {
                lines: vec![Arc::from("")],
                keys: vec![0],
            }),
            SourceCtl::new(),
            Pacing::Driven,
        ),
    };
    b.set_spout("source", 1, move || {
        Source::new(Arc::clone(&inputs), Arc::clone(&ctl), pacing, trace)
    })?
    .output_fields(Fields::new(["line", "seq"]))
    .output_stream("eos", Fields::new(["eos"]))
    .cost(cost("source"));
    b.set_bolt("parse", spec.parse, move || ParseBolt {
        trace,
        ledger: LocalLedger::default(),
    })?
    .output_fields(Fields::new(["url", "seq"]))
    .cost(cost("parse"))
    .shuffle_grouping("source")?;
    b.set_bolt("eos", 1, || Barrier)?
        .output_fields(Fields::new(["eos"]))
        .cost(cost("eos"))
        .shuffle_grouping_stream("source", "eos")?;
    let (window, virt) = (spec.window, spec.virt);
    b.set_bolt("count", spec.count, move || CountBolt {
        window,
        partials: HashMap::new(),
        newest: None,
        trace,
        virt,
        ledger: LocalLedger::default(),
    })?
    .output_fields(Fields::new(["window", "rows"]))
    .cost(cost("count"))
    .dynamic_grouping("parse")?
    .all_grouping("eos")?;
    b.set_bolt("report", 1, move || ReportBolt {
        state: ReportState::default(),
        publish: Arc::clone(&report),
    })?
    .cost(cost("report"))
    .global_grouping("count")?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::generate(7, 500, 1.1, 4096);
        let b = Inputs::generate(7, 500, 1.1, 4096);
        let c = Inputs::generate(8, 500, 1.1, 4096);
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.keys, c.keys);
        // Zipf: the hottest URL takes a large share.
        let mut freq = HashMap::new();
        for k in &a.keys {
            *freq.entry(k).or_insert(0u32) += 1;
        }
        let top = *freq.values().max().unwrap();
        assert!(top > 4096 / 20, "top share {top}/4096");
    }

    #[test]
    fn url_of_extracts_the_request_target() {
        assert_eq!(url_of("GET http://a.b/c/1 HTTP/1.1"), "http://a.b/c/1");
        assert_ne!(url_hash("http://a.b/c/1"), url_hash("http://a.b/c/2"));
    }

    #[test]
    fn reference_checker_fails_on_a_single_dropped_tuple() {
        let inputs = Inputs::generate(3, 200, 1.1, 10_000);
        let window = 1000;
        let n = 5500;
        let expected = reference(&inputs, n, window);
        assert_eq!(expected.len(), 6);
        assert_eq!(expected.values().map(|r| r.total).sum::<u64>(), n);
        // The program's view, accumulated from per-URL partial rows split
        // across two tasks, matches the reference exactly.
        let fold = |skip: Option<u64>| {
            let mut parts: [HashMap<(u64, &str), u64>; 2] = [HashMap::new(), HashMap::new()];
            for seq in 0..n {
                if Some(seq) == skip {
                    continue;
                }
                *parts[(seq % 2) as usize]
                    .entry((seq / window, url_of(inputs.line(seq))))
                    .or_insert(0) += 1;
            }
            let mut rows = Rows::new();
            for part in &parts {
                for (&(w, url), &c) in part {
                    let row = rows.entry(w).or_default();
                    row.total += c;
                    row.digest = row.digest.wrapping_add(c.wrapping_mul(url_hash(url)));
                }
            }
            rows
        };
        assert_eq!(mismatched_rows(&expected, &fold(None)), 0);
        assert_eq!(mismatched_rows(&expected, &fold(Some(4321))), 1);
        // A tuple counted under the wrong URL keeps the total but not the
        // digest.
        let mut swapped = fold(None);
        let row = swapped.get_mut(&2).unwrap();
        row.digest = row
            .digest
            .wrapping_sub(url_hash(url_of(inputs.line(2000))))
            .wrapping_add(url_hash(url_of(inputs.line(2001))));
        if url_of(inputs.line(2000)) != url_of(inputs.line(2001)) {
            assert_eq!(mismatched_rows(&expected, &swapped), 1);
        }
        // Missing and extra windows count too.
        let mut extra = fold(None);
        extra.insert(99, Row::default());
        assert_eq!(mismatched_rows(&expected, &extra), 1);
    }

    #[test]
    fn fault_windows_repeat_with_the_period() {
        let v = VirtualWindow {
            rate: 1.0,
            from_s: 30.0,
            len_s: 15.0,
            period_s: 30.0,
            faults: 2,
        };
        let inside: Vec<bool> = [29.9, 30.0, 44.9, 45.0, 60.0, 74.9, 75.0, 90.0]
            .iter()
            .map(|&t| v.in_fault(t))
            .collect();
        assert_eq!(inside, [false, true, true, false, true, true, false, false]);
        assert_eq!(v.end_s(), 75.0);
    }

    #[test]
    fn spec_round_trips_through_args() {
        let spec = Spec {
            parse: 2,
            count: 3,
            window: 65536,
            trace: true,
            virt: Some(VirtualWindow {
                rate: 20000.0,
                from_s: 25.0,
                len_s: 15.0,
                period_s: 30.0,
                faults: 3,
            }),
        };
        assert_eq!(Spec::from_args(&spec.to_args()).unwrap(), spec);
        let plain = Spec { virt: None, ..spec };
        assert_eq!(Spec::from_args(&plain.to_args()).unwrap(), plain);
        assert!(Spec::from_args("1:2").is_err());
    }
}
