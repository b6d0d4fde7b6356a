//! Spouts, bolts and run helpers shared by the bench topologies.
//!
//! Every bench builds its pipeline from these few components and keeps its
//! own shape: burst size, pacing, bound and stop flag are set per bench, so
//! each one still measures what its committed baseline measured.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsdps::component::{Bolt, BoltOutput, Spout, SpoutOutput};
use dsdps::rt::{SnapshotKind, StateSnapshot, StatefulComponent};
use dsdps::telemetry::JournalEvent;
use dsdps::tuple::{Tuple, Value};

/// Spout emitting tracked tuples with ids `1, 2, 3, …`, each carrying its
/// id as its one value (or, with [`emitting`](Self::emitting), a clone of a
/// prototype tuple).
///
/// A *flood* emits `burst` tuples per call, as fast as backpressure allows;
/// a *paced* spout emits what its offered rate says is due on the runtime
/// clock, at most `burst` per call, so it falls behind under backpressure
/// and catches up in bounded bursts the way an external source does.
#[derive(Default)]
pub struct BenchSpout {
    burst: u64,
    rate: Option<f64>,
    left: Option<u64>,
    stop: Option<Arc<AtomicBool>>,
    proto: Option<Tuple>,
    next_id: u64,
}

impl BenchSpout {
    /// An unbounded flood of `burst` tuples per call.
    pub fn flood(burst: u64) -> Self {
        BenchSpout {
            burst,
            ..Self::default()
        }
    }

    /// An unbounded stream offered at `rate` tuples/s, catching up at most
    /// `burst` tuples per call.
    pub fn paced(rate: f64, burst: u64) -> Self {
        BenchSpout {
            rate: Some(rate),
            ..Self::flood(burst)
        }
    }

    /// Stops after `n` tuples.
    pub fn bounded(mut self, n: u64) -> Self {
        self.left = Some(n);
        self
    }

    /// Stops once `stop` is raised.
    pub fn until(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Emits clones of `proto` (a reference-count bump, no allocation)
    /// instead of building a fresh tuple per id.
    pub fn emitting(mut self, proto: Tuple) -> Self {
        self.proto = Some(proto);
        self
    }
}

impl Spout for BenchSpout {
    fn next_tuple(&mut self, out: &mut SpoutOutput) -> bool {
        if self
            .stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
            || self.left == Some(0)
        {
            return false;
        }
        let due = match self.rate {
            Some(rate) => ((out.now_s() * rate) as u64).saturating_sub(self.next_id),
            None => self.burst,
        };
        let n = due.min(self.burst).min(self.left.unwrap_or(u64::MAX));
        if let Some(left) = &mut self.left {
            *left -= n;
        }
        for _ in 0..n {
            self.next_id += 1;
            let tuple = match &self.proto {
                Some(proto) => proto.clone(),
                None => Tuple::of([Value::from(self.next_id as i64)]),
            };
            out.emit_with_id(tuple, self.next_id);
        }
        true
    }
}

/// Middle stage: re-emits each tuple anchored (keeps the tree alive one hop).
pub struct Relay;

impl Bolt for Relay {
    fn execute(&mut self, t: &Tuple, out: &mut BoltOutput) {
        out.emit(t.clone());
    }
}

/// Sink that drops every tuple.
pub struct Blackhole;

impl Bolt for Blackhole {
    fn execute(&mut self, _t: &Tuple, _o: &mut BoltOutput) {}
}

/// Shared view of a [`StatefulCounter`] from outside the topology: its live
/// count, and the count carried by the last snapshot it restored.
#[derive(Clone, Default)]
pub struct CounterProbe {
    /// Tuples counted so far (restored count included).
    pub delivered: Arc<AtomicU64>,
    /// Count carried by the most recently restored snapshot.
    pub restored: Arc<AtomicU64>,
}

/// Checkpointable counting bolt: counts tuples and sums their first field,
/// snapshotting both as one full snapshot.
#[derive(Default)]
pub struct StatefulCounter {
    count: u64,
    sum: u64,
    probe: CounterProbe,
}

impl StatefulCounter {
    /// A counter publishing its progress through `probe`.
    pub fn observed(probe: CounterProbe) -> Self {
        StatefulCounter {
            probe,
            ..Self::default()
        }
    }
}

impl Bolt for StatefulCounter {
    fn execute(&mut self, t: &Tuple, _o: &mut BoltOutput) {
        self.count += 1;
        self.sum += t.get(0).and_then(|v| v.as_i64()).unwrap_or(0) as u64;
        self.probe.delivered.store(self.count, Ordering::Relaxed);
    }

    fn stateful(&mut self) -> Option<&mut dyn StatefulComponent> {
        Some(self)
    }
}

impl StatefulComponent for StatefulCounter {
    fn snapshot(&mut self) -> StateSnapshot {
        StateSnapshot::encode(SnapshotKind::Full, &(self.count, self.sum))
    }

    fn restore(&mut self, base: &StateSnapshot, deltas: &[StateSnapshot]) -> Result<(), String> {
        if !deltas.is_empty() {
            return Err("bench counter snapshots are full-only".into());
        }
        let (count, sum): (u64, u64) = base.decode()?;
        self.count = count;
        self.sum = sum;
        self.probe.delivered.store(count, Ordering::Relaxed);
        self.probe.restored.store(count, Ordering::Relaxed);
        Ok(())
    }
}

/// Milliseconds from `t` (seconds on the journal clock) to the first of
/// `events` at or after it; 0 when none came.
pub fn ms_until_first(events: &[&JournalEvent], t: f64) -> f64 {
    let first = events.iter().map(|e| e.time_s()).filter(|s| *s >= t);
    (first.fold(f64::NAN, f64::min).max(t) - t) * 1_000.0
}

/// Polls `done` every `poll` until it holds or `timeout` has passed.
pub fn wait_until(timeout: Duration, poll: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() && Instant::now() < deadline {
        std::thread::sleep(poll);
    }
}
