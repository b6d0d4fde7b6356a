//! Timestamps the benchmark's own code takes around the calls into each
//! layer, for the traced run's latency ledger.
//!
//! Every component keeps a [`LocalLedger`] and flushes it into its
//! process's store.  A worker process writes its store to a file when it
//! exits; the coordinator merges those files with its own store.  Events
//! carry a sequence number and a wall-clock time shared by every process
//! on the host, so the segments of one tuple can be joined across
//! processes.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One tuple in this many is stamped at every layer boundary.
pub const SAMPLE_EVERY: u64 = 16;

pub fn sampled(seq: u64) -> bool {
    seq.is_multiple_of(SAMPLE_EVERY)
}

/// Nanoseconds since the Unix epoch: the clock every process on the host
/// shares.
pub fn wall_ns() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as i64)
}

/// What a record measures.  Events are boundaries of one tuple's path;
/// values are per-sample costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// The source emitted the tuple.
    Emit = 0,
    ParseStart = 1,
    ParseEnd = 2,
    CountStart = 3,
    CountEnd = 4,
    /// The source's ack callback ran.
    Ack = 5,
    /// Self time of the parse code, ns.
    ParseNs = 6,
    /// Self time of the count code, ns.
    CountNs = 7,
    /// Simulator: scheduled send → count execute, virtual ms.
    VirtLatMs = 8,
}

impl Kind {
    const ALL: [Kind; 9] = [
        Kind::Emit,
        Kind::ParseStart,
        Kind::ParseEnd,
        Kind::CountStart,
        Kind::CountEnd,
        Kind::Ack,
        Kind::ParseNs,
        Kind::CountNs,
        Kind::VirtLatMs,
    ];

    fn from_u8(b: u8) -> Option<Kind> {
        Kind::ALL.get(b as usize).copied()
    }
}

/// Records of one process.
#[derive(Debug, Default)]
pub struct Store {
    pub events: Vec<(Kind, u64, i64)>,
    pub values: Vec<(Kind, f64)>,
}

impl Store {
    pub fn values_of(&self, kind: Kind) -> Vec<f64> {
        self.values
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Event times per sequence number, indexed by `Kind as usize`
    /// (`Emit..=Ack`); `None` where a boundary was not recorded.
    pub fn paths(&self) -> HashMap<u64, [Option<i64>; 6]> {
        let mut paths: HashMap<u64, [Option<i64>; 6]> = HashMap::new();
        for &(kind, seq, t) in &self.events {
            if let Some(slot) = paths.entry(seq).or_default().get_mut(kind as usize) {
                *slot = Some(t);
            }
        }
        paths
    }

    fn absorb(&mut self, other: Store) {
        self.events.extend(other.events);
        self.values.extend(other.values);
    }
}

static STORE: Mutex<Store> = Mutex::new(Store {
    events: Vec::new(),
    values: Vec::new(),
});

/// A component's buffer, flushed into the process store when full and
/// when the component is dropped.
#[derive(Default)]
pub struct LocalLedger {
    buf: Store,
}

impl LocalLedger {
    pub fn event(&mut self, kind: Kind, seq: u64, t_ns: i64) {
        self.buf.events.push((kind, seq, t_ns));
        self.flush_if_full();
    }

    pub fn value(&mut self, kind: Kind, v: f64) {
        self.buf.values.push((kind, v));
        self.flush_if_full();
    }

    fn flush_if_full(&mut self) {
        if self.buf.events.len() + self.buf.values.len() >= 4096 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Ok(mut store) = STORE.lock() {
            store.absorb(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for LocalLedger {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Takes everything recorded in this process so far.
pub fn take() -> Store {
    std::mem::take(&mut *STORE.lock().expect("ledger store lock"))
}

/// Writes this process's records to `path` (one record per line).
pub fn dump(path: &Path) -> std::io::Result<()> {
    let store = take();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (kind, seq, t) in &store.events {
        writeln!(out, "e {} {seq} {t}", *kind as u8)?;
    }
    for (kind, v) in &store.values {
        writeln!(out, "v {} {v}", *kind as u8)?;
    }
    out.flush()
}

/// Parses one dumped file.
pub fn parse(text: &str) -> Store {
    let mut store = Store::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let kind = f
            .get(1)
            .and_then(|k| k.parse().ok())
            .and_then(Kind::from_u8);
        match (f.first(), kind, f.len()) {
            (Some(&"e"), Some(kind), 4) => {
                if let (Ok(seq), Ok(t)) = (f[2].parse(), f[3].parse()) {
                    store.events.push((kind, seq, t));
                }
            }
            (Some(&"v"), Some(kind), 3) => {
                if let Ok(v) = f[2].parse() {
                    store.values.push((kind, v));
                }
            }
            _ => {}
        }
    }
    store
}

/// This process's records plus every `ledger-*.txt` file under `dir`
/// (the files are removed once read).
pub fn collect(dir: &Path) -> Store {
    let mut store = take();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("ledger-") && name.ends_with(".txt") {
                if let Ok(text) = std::fs::read_to_string(entry.path()) {
                    store.absorb(parse(&text));
                }
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumped_records_parse_back() {
        let text = "e 0 16 100\ne 5 16 900\nv 6 123.5\nx junk\ne 42 1 2\n";
        let store = parse(text);
        assert_eq!(
            store.events,
            vec![(Kind::Emit, 16, 100), (Kind::Ack, 16, 900)]
        );
        assert_eq!(store.values_of(Kind::ParseNs), vec![123.5]);
        let paths = store.paths();
        assert_eq!(paths[&16][Kind::Emit as usize], Some(100));
        assert_eq!(paths[&16][Kind::Ack as usize], Some(900));
        assert_eq!(paths[&16][Kind::ParseStart as usize], None);
    }
}
