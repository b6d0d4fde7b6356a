//! Stream transport for the distributed runtime: TCP everywhere, Unix
//! domain sockets where the platform has them.
//!
//! The transport deals in [`Frame`]s.  Reading is incremental — a
//! [`FrameReader`] accumulates bytes into one reusable buffer and yields a
//! frame as soon as its length prefix is satisfied, returning `Ok(None)`
//! on a read timeout so callers can interleave periodic work.  Writing
//! goes through a [`FrameWriter`], one vectored write per frame out of one
//! reusable encode buffer.  Tuple batching happens upstream, in the
//! runtime's per-destination output buffers (`RtConfig::batch_size` /
//! `linger`): the coordinator writes each flushed batch as one
//! `TupleBatch` frame.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::codec::{self, Frame, MAX_FRAME_LEN};
use crate::error::{Error, Result};
use crate::telemetry::HOT_PATH_TELEMETRY;

/// Live per-connection transport counters, shared between the reader and
/// writer halves of one socket and whatever aggregates them (the
/// coordinator mirrors these into its metrics registry as
/// `dsdps_dist_conn_*` samples; the worker exports them in its
/// `MetricsPush`).  All fields are relaxed atomics — one store per frame,
/// nothing per tuple — and the µs timers are skipped entirely when
/// [`HOT_PATH_TELEMETRY`] is compiled out.
#[derive(Debug)]
pub struct ConnStats {
    /// Clock epoch for [`ConnStats::now_us`] / `last_rx_us`.
    epoch: Instant,
    /// Payload bytes received.
    pub bytes_in: AtomicU64,
    /// Frames decoded.
    pub frames_in: AtomicU64,
    /// Payload bytes written (including length prefixes).
    pub bytes_out: AtomicU64,
    /// Frames written.
    pub frames_out: AtomicU64,
    /// Cumulative frame-decode time, µs.
    pub decode_us: AtomicU64,
    /// Cumulative frame-encode time, µs.
    pub encode_us: AtomicU64,
    /// Cumulative time spent inside socket writes, µs.  A healthy
    /// connection keeps this near zero per frame; a peer that stops
    /// draining (the §15.4 deadlock class) makes it climb — which is the
    /// point of tracking it.
    pub write_block_us: AtomicU64,
    /// Epoch-relative µs of the most recent successfully decoded frame
    /// (the coordinator's heartbeat-lag detector reads this).
    pub last_rx_us: AtomicU64,
}

impl Default for ConnStats {
    fn default() -> Self {
        ConnStats {
            epoch: Instant::now(),
            bytes_in: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            decode_us: AtomicU64::new(0),
            encode_us: AtomicU64::new(0),
            write_block_us: AtomicU64::new(0),
            last_rx_us: AtomicU64::new(0),
        }
    }
}

impl ConnStats {
    /// A fresh zeroed stats block with its epoch at now.
    pub fn new() -> Arc<Self> {
        Arc::new(ConnStats::default())
    }

    /// µs elapsed since the stats block was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Seconds since the last decoded frame (`now - last_rx_us`); `None`
    /// before the first frame arrives.
    pub fn rx_silence_s(&self) -> Option<f64> {
        let last = self.last_rx_us.load(Ordering::Relaxed);
        if last == 0 {
            return None;
        }
        Some((self.now_us().saturating_sub(last)) as f64 / 1e6)
    }
}

/// Where a coordinator listens / a worker connects.
///
/// Rendered as `tcp:<addr>` or `unix:<path>` in the `DSDPS_DIST_ADDR`
/// environment variable handed to worker processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address, e.g. `127.0.0.1:7410`.
    Tcp(String),
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// Renders the endpoint for `DSDPS_DIST_ADDR`.
    pub fn to_env(&self) -> String {
        match self {
            Endpoint::Tcp(addr) => format!("tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => format!("unix:{}", path.display()),
        }
    }

    /// Parses a `DSDPS_DIST_ADDR` value.
    pub fn from_env(value: &str) -> Result<Endpoint> {
        if let Some(addr) = value.strip_prefix("tcp:") {
            return Ok(Endpoint::Tcp(addr.to_owned()));
        }
        #[cfg(unix)]
        if let Some(path) = value.strip_prefix("unix:") {
            return Ok(Endpoint::Unix(path.into()));
        }
        Err(Error::Config(format!("unparseable endpoint `{value}`")))
    }
}

/// A listening socket of either family.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener on an OS-assigned loopback port.
    pub fn tcp_loopback() -> Result<(Listener, Endpoint)> {
        let l =
            TcpListener::bind("127.0.0.1:0").map_err(|e| Error::Runtime(format!("bind: {e}")))?;
        let addr = l
            .local_addr()
            .map_err(|e| Error::Runtime(format!("local_addr: {e}")))?;
        Ok((Listener::Tcp(l), Endpoint::Tcp(addr.to_string())))
    }

    /// Binds a Unix-domain listener on a fresh socket path under the
    /// system temp directory.
    #[cfg(unix)]
    pub fn unix_temp() -> Result<(Listener, Endpoint)> {
        // Process id + monotonic counter keeps concurrent coordinators in
        // one test binary from colliding.
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dsdps-dist-{}-{}.sock",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path)
            .map_err(|e| Error::Runtime(format!("bind {}: {e}", path.display())))?;
        Ok((Listener::Unix(l), Endpoint::Unix(path)))
    }

    /// Switches the listener between blocking and non-blocking accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    /// Accepts one connection; `Ok(None)` when non-blocking and idle.
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    let _ = s.set_nodelay(true);
                    Ok(Some(Conn::Tcp(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(Conn::Unix(s))),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// One established connection of either family.
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `endpoint`, retrying until `timeout` (the coordinator
    /// may not be listening yet when a worker launches).
    pub fn connect(endpoint: &Endpoint, timeout: Duration) -> Result<Conn> {
        let deadline = Instant::now() + timeout;
        loop {
            let attempt = match endpoint {
                Endpoint::Tcp(addr) => TcpStream::connect(addr).map(|s| {
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                }),
                #[cfg(unix)]
                Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            };
            match attempt {
                Ok(conn) => return Ok(conn),
                Err(e) if Instant::now() >= deadline => {
                    return Err(Error::Runtime(format!(
                        "connect to {}: {e}",
                        endpoint.to_env()
                    )));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// An independently usable handle to the same socket (reader and
    /// writer sides of one connection live on different threads).
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Bounds how long a read blocks (`None` = forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Shuts down both directions, unblocking any reader.
    pub fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Conn::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Incremental frame reader with one reusable receive buffer.
pub struct FrameReader {
    conn: Conn,
    buf: Vec<u8>,
    /// Bytes of `buf` that hold received-but-unparsed data.
    filled: usize,
    /// Parse offset within `buf[..filled]`.
    pos: usize,
    /// Shared live counters, when someone is watching.
    stats: Option<Arc<ConnStats>>,
}

impl FrameReader {
    /// Wraps a connection.
    pub fn new(conn: Conn) -> Self {
        FrameReader {
            conn,
            buf: vec![0; 64 * 1024],
            filled: 0,
            pos: 0,
            stats: None,
        }
    }

    /// Attaches a shared stats block updated on every read/decode.
    pub fn set_stats(&mut self, stats: Arc<ConnStats>) {
        self.stats = Some(stats);
    }

    /// Bounds how long [`read_frame`](Self::read_frame) blocks.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_timeout(t)
    }

    /// Tries to parse one complete frame out of the buffered bytes.
    fn parse_buffered(&mut self) -> Result<Option<Frame>> {
        let avail = &self.buf[self.pos..self.filled];
        let mut d = codec::Dec::new(avail);
        let len = match d.varint() {
            Ok(len) => len,
            // An incomplete varint at the buffer tail: need more bytes.
            Err(codec::CodecError::Truncated) => return Ok(None),
            Err(e) => return Err(Error::Runtime(format!("frame length: {e}"))),
        };
        if len as usize > MAX_FRAME_LEN {
            return Err(Error::Runtime(format!("oversized frame ({len} bytes)")));
        }
        if (len as usize) > d.remaining() {
            return Ok(None);
        }
        let header = avail.len() - d.remaining();
        let body_start = self.pos + header;
        let body_end = body_start + len as usize;
        let t0 = match &self.stats {
            Some(_) if HOT_PATH_TELEMETRY => Some(Instant::now()),
            _ => None,
        };
        let frame = codec::decode_frame(&self.buf[body_start..body_end])
            .map_err(|e| Error::Runtime(format!("decode frame: {e}")))?;
        self.pos = body_end;
        if let Some(stats) = &self.stats {
            stats.frames_in.fetch_add(1, Ordering::Relaxed);
            stats.last_rx_us.store(stats.now_us(), Ordering::Relaxed);
            if let Some(t0) = t0 {
                stats
                    .decode_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
        Ok(Some(frame))
    }

    /// Reads the next frame.  `Ok(None)` means the read timed out (per the
    /// connection's read timeout) with no complete frame buffered; an EOF
    /// or socket error is `Err`.
    pub fn read_frame(&mut self) -> Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.parse_buffered()? {
                return Ok(Some(frame));
            }
            // Compact consumed bytes to the front before growing.
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.filled, 0);
                self.filled -= self.pos;
                self.pos = 0;
            }
            if self.filled == self.buf.len() {
                self.buf
                    .resize((self.buf.len() * 2).min(MAX_FRAME_LEN + 16), 0);
            }
            match self.conn.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(Error::Runtime("connection closed".into())),
                Ok(n) => {
                    self.filled += n;
                    if let Some(stats) = &self.stats {
                        stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Runtime(format!("read: {e}"))),
            }
        }
    }
}

/// Frame writer: every frame leaves as a single vectored write of
/// `[length-prefix, body]` out of one reusable encode buffer.
pub struct FrameWriter {
    conn: Conn,
    scratch: Vec<u8>,
    /// Shared live counters, when someone is watching.
    stats: Option<Arc<ConnStats>>,
}

impl FrameWriter {
    /// Wraps a connection.
    pub fn new(conn: Conn) -> Self {
        FrameWriter {
            conn,
            scratch: Vec::with_capacity(8 * 1024),
            stats: None,
        }
    }

    /// Attaches a shared stats block updated on every encode/write.
    pub fn set_stats(&mut self, stats: Arc<ConnStats>) {
        self.stats = Some(stats);
    }

    /// Encodes and sends one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<()> {
        self.send_body(|buf| codec::encode_frame_body(frame, buf))
    }

    /// Sends one frame whose body `encode` writes (tag byte first), for
    /// callers that encode straight from their own data structures.
    pub fn send_body(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        let t0 = self.encode_clock();
        self.scratch.clear();
        encode(&mut self.scratch);
        self.note_encode(t0);
        self.write_scratch()
    }

    fn encode_clock(&self) -> Option<Instant> {
        match &self.stats {
            Some(_) if HOT_PATH_TELEMETRY => Some(Instant::now()),
            _ => None,
        }
    }

    fn note_encode(&self, t0: Option<Instant>) {
        if let (Some(stats), Some(t0)) = (&self.stats, t0) {
            stats
                .encode_us
                .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
    }

    /// Writes `[varint(len), scratch]` as one vectored write.
    fn write_scratch(&mut self) -> Result<()> {
        let mut prefix = Vec::with_capacity(10);
        codec::write_varint(&mut prefix, self.scratch.len() as u64);
        let total = prefix.len() + self.scratch.len();
        let t0 = self.encode_clock();
        let mut written = 0usize;
        while written < total {
            let bufs = if written < prefix.len() {
                [
                    IoSlice::new(&prefix[written..]),
                    IoSlice::new(&self.scratch),
                ]
            } else {
                [
                    IoSlice::new(&self.scratch[written - prefix.len()..]),
                    IoSlice::new(&[]),
                ]
            };
            match self.conn.write_vectored(&bufs) {
                Ok(0) => return Err(Error::Runtime("connection closed on write".into())),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Runtime(format!("write: {e}"))),
            }
        }
        if let Some(stats) = &self.stats {
            stats.bytes_out.fetch_add(total as u64, Ordering::Relaxed);
            stats.frames_out.fetch_add(1, Ordering::Relaxed);
            if let Some(t0) = t0 {
                stats
                    .write_block_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::codec::WireTuple;
    use crate::tuple::Value;

    fn pair() -> (Conn, Conn) {
        let (listener, ep) = Listener::tcp_loopback().unwrap();
        let client = Conn::connect(&ep, Duration::from_secs(5)).unwrap();
        listener.set_nonblocking(false).unwrap();
        let server = listener.accept().unwrap().unwrap();
        (client, server)
    }

    #[test]
    fn endpoint_env_round_trips() {
        let e = Endpoint::Tcp("127.0.0.1:9999".into());
        assert_eq!(Endpoint::from_env(&e.to_env()).unwrap(), e);
        #[cfg(unix)]
        {
            let u = Endpoint::Unix("/tmp/x.sock".into());
            assert_eq!(Endpoint::from_env(&u.to_env()).unwrap(), u);
        }
        assert!(Endpoint::from_env("carrier-pigeon:coop7").is_err());
    }

    #[test]
    fn frames_survive_the_socket() {
        let (client, server) = pair();
        let mut w = FrameWriter::new(client);
        let mut r = FrameReader::new(server);
        r.conn
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        let hello = Frame::Hello {
            worker: 1,
            pid: 42,
            clock_us: 17,
        };
        w.send(&hello).unwrap();
        let items: Vec<WireTuple> = (0..4)
            .map(|i| WireTuple {
                token: i,
                dest_task: 2,
                stream: 0,
                dedup: None,
                trace_root: Some(i + 1),
                values: vec![Value::from(i as i64)],
            })
            .collect();
        w.send_body(|buf| {
            buf.push(codec::TUPLE_BATCH_TAG);
            codec::write_varint(buf, items.len() as u64);
            for item in &items {
                codec::write_tuple_item(buf, item);
            }
        })
        .unwrap();
        w.send(&Frame::Shutdown).unwrap();

        assert_eq!(r.read_frame().unwrap().unwrap(), hello);
        assert_eq!(
            r.read_frame().unwrap().unwrap(),
            Frame::TupleBatch { items },
            "a batch encoded in place decodes like the frame it spells"
        );
        assert_eq!(r.read_frame().unwrap().unwrap(), Frame::Shutdown);
    }

    #[test]
    fn conn_stats_track_frames_and_bytes() {
        let (client, server) = pair();
        let mut w = FrameWriter::new(client);
        let mut r = FrameReader::new(server);
        r.conn
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let ws = ConnStats::new();
        let rs = ConnStats::new();
        w.set_stats(Arc::clone(&ws));
        r.set_stats(Arc::clone(&rs));
        assert!(rs.rx_silence_s().is_none());

        w.send(&Frame::Flush { seq: 1 }).unwrap();
        w.send(&Frame::Flushed { seq: 1 }).unwrap();
        assert_eq!(r.read_frame().unwrap().unwrap(), Frame::Flush { seq: 1 });
        assert_eq!(r.read_frame().unwrap().unwrap(), Frame::Flushed { seq: 1 });

        assert_eq!(ws.frames_out.load(Ordering::Relaxed), 2);
        assert_eq!(rs.frames_in.load(Ordering::Relaxed), 2);
        let sent = ws.bytes_out.load(Ordering::Relaxed);
        assert_eq!(sent, rs.bytes_in.load(Ordering::Relaxed));
        assert!(sent > 0);
        assert!(rs.rx_silence_s().is_some());
    }

    #[test]
    fn read_timeout_returns_none() {
        let (_client, server) = pair();
        let mut r = FrameReader::new(server);
        r.conn
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        assert!(r.read_frame().unwrap().is_none());
    }
}
