//! The network serving layer: a transport-trait server that speaks the
//! framed wire protocol of [`proto`] and feeds decoded requests into
//! the [`KvServer`]'s submission queues.
//!
//! ## Transports
//!
//! [`Transport`] abstracts listen/connect over byte-stream connections.
//! Two implementations:
//!
//! - [`InProcTransport`] — in-process duplex pipes (`Mutex<VecDeque>` +
//!   condvar halves). Deterministic, no sockets, no ports: what the
//!   test suite and the CI smoke run on.
//! - [`TcpTransport`] — real TCP. The listen address is decided like
//!   wrongodb's server: explicit CLI argument beats `NVKV_ADDR` beats
//!   `NVKV_PORT` (host-defaulted) beats the built-in default
//!   (see [`listen_addr`]).
//!
//! ## Per-connection pipelining
//!
//! Each accepted connection gets a **reader** thread and a **writer**
//! thread. The reader decodes frames and submits them non-blockingly
//! into the shard lanes' [`SubmissionQueue`]s — many requests from one
//! connection can be in flight at once, and requests from *different*
//! connections meet in the same queue, where the shard worker's drain
//! turns them into one grouped FASE (cross-client group commit). The
//! writer multiplexes over all of the connection's outstanding
//! completions via a shared [`Notify`] and sends responses back **in
//! completion order, not submission order** — responses carry the
//! request id, so the client reorders. One sweep of the writer encodes
//! every response that became ready and hands the transport a single
//! contiguous write.
//!
//! ## Ack contract
//!
//! A response frame for a write is encoded only after its completion
//! slot was filled, and the shard worker fills slots only after the
//! batch's FASE committed: **a response on the wire implies the write
//! is durable**. The crash sweep in `tests/net_e2e.rs` and the
//! `repro net-smoke` CI step enforce exactly this.
//!
//! [`proto`]: crate::proto

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use nvcache_telemetry::{CounterId, Recorder};

use crate::engine::Engine;
use crate::proto::{encode_response, fit_entries, FrameDecoder, Request, Response};
use crate::queue::{Completion, Notify};
use crate::server::{KvServer, ScanEntries};

/// Default TCP listen address (wrongodb-style: a fixed well-known
/// loopback port, overridable by environment or CLI).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7440";

/// Decide the TCP listen address: explicit CLI value > `NVKV_ADDR`
/// (full `host:port`) > `NVKV_PORT` (loopback host) > [`DEFAULT_ADDR`].
pub fn listen_addr(cli: Option<&str>) -> String {
    if let Some(a) = cli {
        return a.to_string();
    }
    if let Ok(a) = std::env::var("NVKV_ADDR") {
        if !a.is_empty() {
            return a;
        }
    }
    if let Ok(p) = std::env::var("NVKV_PORT") {
        if !p.is_empty() {
            return format!("127.0.0.1:{p}");
        }
    }
    DEFAULT_ADDR.to_string()
}

// ---- transport abstraction -------------------------------------------

/// One byte-stream connection end. Implementations must support
/// *independent* cloned handles (reader and writer threads each own
/// one) and an out-of-band shutdown that unblocks a blocked read.
pub trait Conn: Send {
    /// Read up to `buf.len()` bytes; `Ok(0)` means the peer closed.
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write the whole buffer.
    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()>;
    /// A second handle over the same connection.
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// Tear the connection down; concurrent reads unblock with EOF or
    /// an error.
    fn shutdown_conn(&self);
}

/// A listening endpoint handing out accepted connections.
pub trait Listener: Send + Sync {
    /// Block for the next inbound connection.
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// Stop listening; a blocked `accept_conn` returns an error.
    fn close(&self);
    /// Human-readable bound address.
    fn local_addr(&self) -> String;
}

/// A way to create listeners and client connections.
pub trait Transport {
    /// Bind a listener on `addr`.
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>>;
    /// Connect to a listener previously bound on `addr`.
    fn connect(&self, addr: &str) -> io::Result<Box<dyn Conn>>;
}

// ---- in-process transport --------------------------------------------

/// One direction of a duplex pipe: a byte queue with blocking reads.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    data: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn write(&self, buf: &[u8]) -> io::Result<()> {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if g.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        g.data.extend(buf);
        drop(g);
        self.cv.notify_all();
        Ok(())
    }

    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !g.data.is_empty() {
                let n = buf.len().min(g.data.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = g.data.pop_front().unwrap();
                }
                return Ok(n);
            }
            if g.closed {
                return Ok(0); // EOF
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.cv.notify_all();
    }
}

/// One end of an in-process duplex connection.
pub struct DuplexConn {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl DuplexConn {
    /// A fresh connected pair `(a, b)`: bytes written to `a` are read
    /// from `b` and vice versa.
    pub fn pair() -> (DuplexConn, DuplexConn) {
        let ab = Arc::new(Pipe::default());
        let ba = Arc::new(Pipe::default());
        (
            DuplexConn {
                rx: Arc::clone(&ba),
                tx: Arc::clone(&ab),
            },
            DuplexConn { rx: ab, tx: ba },
        )
    }
}

impl Conn for DuplexConn {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read(buf)
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.tx.write(buf)
    }

    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(DuplexConn {
            rx: Arc::clone(&self.rx),
            tx: Arc::clone(&self.tx),
        }))
    }

    fn shutdown_conn(&self) {
        self.rx.close();
        self.tx.close();
    }
}

#[derive(Default)]
struct InProcState {
    backlog: VecDeque<DuplexConn>,
    closed: bool,
}

/// An in-process transport: `connect` hands the server half of a fresh
/// duplex pair to whoever is blocked in `accept_conn`. One logical
/// address space per transport instance (the `addr` strings are
/// ignored) — deterministic, portable, no sockets.
#[derive(Clone, Default)]
pub struct InProcTransport {
    inner: Arc<(Mutex<InProcState>, Condvar)>,
}

impl InProcTransport {
    /// A fresh, unconnected transport.
    pub fn new() -> Self {
        Self::default()
    }
}

struct InProcListener {
    inner: Arc<(Mutex<InProcState>, Condvar)>,
}

impl Listener for InProcListener {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let (m, cv) = &*self.inner;
        let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(c) = g.backlog.pop_front() {
                return Ok(Box::new(c));
            }
            if g.closed {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "listener closed",
                ));
            }
            g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let (m, cv) = &*self.inner;
        m.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        cv.notify_all();
    }

    fn local_addr(&self) -> String {
        "inproc".to_string()
    }
}

impl Transport for InProcTransport {
    fn listen(&self, _addr: &str) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(InProcListener {
            inner: Arc::clone(&self.inner),
        }))
    }

    fn connect(&self, _addr: &str) -> io::Result<Box<dyn Conn>> {
        let (client, server) = DuplexConn::pair();
        let (m, cv) = &*self.inner;
        let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
        if g.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no listener",
            ));
        }
        g.backlog.push_back(server);
        drop(g);
        cv.notify_all();
        Ok(Box::new(client))
    }
}

// ---- TCP transport ---------------------------------------------------

impl Conn for TcpStream {
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read(buf)
    }

    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.write_all(buf)
    }

    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }

    fn shutdown_conn(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

struct TcpListenerWrap {
    inner: TcpListener,
    closed: AtomicBool,
}

impl Listener for TcpListenerWrap {
    fn accept_conn(&self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.inner.accept()?;
        if self.closed.load(Ordering::Acquire) {
            // the wakeup connection from close(); report shutdown
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "listener closed",
            ));
        }
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // unblock a parked accept() by dialing ourselves
        if let Ok(addr) = self.inner.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn local_addr(&self) -> String {
        self.inner
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string())
    }
}

/// Real TCP. Use `addr` `"127.0.0.1:0"` to let the OS pick a port
/// (read it back via [`Listener::local_addr`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpTransport;

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> io::Result<Box<dyn Listener>> {
        Ok(Box::new(TcpListenerWrap {
            inner: TcpListener::bind(addr)?,
            closed: AtomicBool::new(false),
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn Conn>> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true).ok();
        Ok(Box::new(s))
    }
}

// ---- server ----------------------------------------------------------

/// Connection-level counters, scraped by benchmarks and folded into
/// telemetry snapshots via [`NetStats::record_into`].
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request frames decoded.
    pub frames_in: AtomicU64,
    /// Response frames handed to a connection for writing (counted
    /// just before the write, so a reply a client has read is always
    /// included; a write that then fails on a dead peer stays counted).
    pub frames_out: AtomicU64,
    /// Recoverable protocol errors skipped.
    pub proto_errors: AtomicU64,
}

impl NetStats {
    /// Fold the counters into a [`Recorder`] under the `Net*` counter
    /// ids, so one snapshot carries compute- and network-side totals.
    pub fn record_into<R: Recorder>(&self, r: &mut R) {
        r.add(
            CounterId::NetConnections,
            self.connections.load(Ordering::Relaxed),
        );
        r.add(
            CounterId::NetFramesIn,
            self.frames_in.load(Ordering::Relaxed),
        );
        r.add(
            CounterId::NetFramesOut,
            self.frames_out.load(Ordering::Relaxed),
        );
        r.add(
            CounterId::NetProtoErrors,
            self.proto_errors.load(Ordering::Relaxed),
        );
    }
}

/// One outstanding request on a connection, keyed by wire id. The
/// writer sweeps these and emits a response as soon as the entry is
/// ready — possibly out of submission order.
enum PendingState {
    /// A `Get` waiting on its completion.
    Value(Completion<Option<Vec<u8>>>),
    /// A `Put`/`Delete` waiting on its completion.
    Done(Completion<bool>),
    /// A `PutMany` split over several lanes: ready when every per-lane
    /// slice acked; the combined ack is the conjunction.
    Multi {
        parts: Vec<Completion<bool>>,
        got: Vec<Option<bool>>,
    },
    /// A `Scan` fanned out to every lane (keys are hash-routed): ready
    /// when each lane returned its slice; the response is the merged,
    /// sorted, limit-truncated union, further cut to fit one frame.
    Scan {
        parts: Vec<Completion<ScanEntries>>,
        got: Vec<Option<ScanEntries>>,
        limit: usize,
    },
    /// Ready immediately (Pong, Rejected).
    Ready(Response),
}

struct PendingEntry {
    id: u64,
    state: PendingState,
}

/// Shared between one connection's reader and writer threads.
struct ConnShared {
    pending: Mutex<VecDeque<PendingEntry>>,
    notify: Arc<Notify>,
    /// Reader finished (EOF or fatal error): writer drains and exits.
    done: AtomicBool,
}

impl ConnShared {
    /// Mark the entry `id` (inserted just before a failed submit) as an
    /// immediate `Rejected` response.
    fn reject(&self, id: u64) {
        let mut g = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = g.iter_mut().rev().find(|e| e.id == id) {
            e.state = PendingState::Ready(Response::Rejected { id });
        }
        drop(g);
        self.notify.post();
    }
}

struct ConnHandle {
    conn: Box<dyn Conn>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// The framed-protocol server: accepts connections from a
/// [`Listener`] and serves them over a shared [`KvServer`]. Does not
/// own the `KvServer` — shut the store down separately after
/// [`NetServer::shutdown`].
pub struct NetServer {
    listener: Arc<Box<dyn Listener>>,
    stats: Arc<NetStats>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    accept: Option<JoinHandle<()>>,
    closing: Arc<AtomicBool>,
}

impl NetServer {
    /// Bind `transport` on `addr` and start accepting. Every accepted
    /// connection gets a reader + writer thread pair over `kv`'s
    /// submission queues.
    pub fn start<E: Engine>(
        transport: &dyn Transport,
        addr: &str,
        kv: Arc<KvServer<E>>,
    ) -> io::Result<NetServer> {
        let listener: Arc<Box<dyn Listener>> = Arc::new(transport.listen(addr)?);
        let stats = Arc::new(NetStats::default());
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let closing = Arc::new(AtomicBool::new(false));
        let accept = {
            let listener = Arc::clone(&listener);
            let stats = Arc::clone(&stats);
            let conns = Arc::clone(&conns);
            let closing = Arc::clone(&closing);
            std::thread::spawn(move || loop {
                let conn = match listener.accept_conn() {
                    Ok(c) => c,
                    Err(_) => return, // listener closed
                };
                if closing.load(Ordering::Acquire) {
                    conn.shutdown_conn();
                    return;
                }
                stats.connections.fetch_add(1, Ordering::Relaxed);
                // a failed clone simply drops the connection
                if let Ok(h) = spawn_conn(conn, Arc::clone(&kv), Arc::clone(&stats)) {
                    conns.lock().unwrap_or_else(|e| e.into_inner()).push(h);
                }
            })
        };
        Ok(NetServer {
            listener,
            stats,
            conns,
            accept: Some(accept),
            closing,
        })
    }

    /// The bound address (e.g. the OS-chosen TCP port).
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// Connection-level counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Stop accepting, tear down live connections, join every thread.
    /// The shared [`KvServer`] keeps running — close it separately.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.closing.store(true, Ordering::Release);
        self.listener.close();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<ConnHandle> = {
            let mut g = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            g.drain(..).collect()
        };
        for h in &handles {
            h.conn.shutdown_conn();
        }
        for h in handles {
            let _ = h.reader.join();
            let _ = h.writer.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Spawn the reader/writer pair for one accepted connection.
fn spawn_conn<E: Engine>(
    conn: Box<dyn Conn>,
    kv: Arc<KvServer<E>>,
    stats: Arc<NetStats>,
) -> io::Result<ConnHandle> {
    let read_half = conn.try_clone_conn()?;
    let write_half = conn.try_clone_conn()?;
    let shared = Arc::new(ConnShared {
        pending: Mutex::new(VecDeque::new()),
        notify: Arc::new(Notify::new()),
        done: AtomicBool::new(false),
    });
    let reader = {
        let shared = Arc::clone(&shared);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            reader_loop(read_half, &kv, &shared, &stats);
            shared.done.store(true, Ordering::Release);
            shared.notify.post(); // writer: drain and exit
        })
    };
    let writer = {
        let shared = Arc::clone(&shared);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || writer_loop(write_half, &shared, &stats))
    };
    Ok(ConnHandle {
        conn,
        reader,
        writer,
    })
}

/// Decode frames off the connection and submit them. Returns on EOF,
/// read error, or a fatal protocol error (which also tears the
/// connection down so the peer notices).
fn reader_loop<E: Engine>(
    mut conn: Box<dyn Conn>,
    kv: &KvServer<E>,
    shared: &ConnShared,
    stats: &NetStats,
) {
    let client = kv.handle();
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    'io: loop {
        let n = match conn.read_some(&mut buf) {
            Ok(0) | Err(_) => break 'io,
            Ok(n) => n,
        };
        dec.extend_from(&buf[..n]);
        loop {
            match dec.next_request() {
                Ok(None) => break,
                Ok(Some(req)) => {
                    stats.frames_in.fetch_add(1, Ordering::Relaxed);
                    submit(client, shared, req);
                }
                Err(e) if e.is_fatal() => {
                    conn.shutdown_conn();
                    break 'io;
                }
                Err(_) => {
                    stats.proto_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Register a pending entry for `req` **before** submitting it, so the
/// writer's notify-count snapshot can never miss the fill, then push
/// the request into the shard lane(s).
fn submit(client: &crate::server::KvClient, shared: &ConnShared, req: Request) {
    let id = req.id();
    let push_entry = |state: PendingState| {
        shared
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(PendingEntry { id, state });
    };
    match req {
        Request::Ping { id } => {
            push_entry(PendingState::Ready(Response::Pong { id }));
            shared.notify.post();
        }
        Request::Get { id, key } => {
            let c = Completion::with_notify(Arc::clone(&shared.notify));
            push_entry(PendingState::Value(c.clone()));
            if !client.submit_get(key, c) {
                shared.reject(id);
            }
        }
        Request::Put { id, key, value } => {
            let c = Completion::with_notify(Arc::clone(&shared.notify));
            push_entry(PendingState::Done(c.clone()));
            if !client.submit_put(key, value, c) {
                shared.reject(id);
            }
        }
        Request::Delete { id, key } => {
            let c = Completion::with_notify(Arc::clone(&shared.notify));
            push_entry(PendingState::Done(c.clone()));
            if !client.submit_delete(key, c) {
                shared.reject(id);
            }
        }
        Request::PutMany { id, items } => {
            if items.is_empty() {
                push_entry(PendingState::Ready(Response::Done { id, ok: true }));
                shared.notify.post();
                return;
            }
            let mut by_lane: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); client.num_lanes()];
            for (k, v) in items {
                by_lane[client.lane_of(k)].push((k, v));
            }
            let mut parts = Vec::new();
            let mut slices = Vec::new();
            for (lane, group) in by_lane.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                parts.push(Completion::with_notify(Arc::clone(&shared.notify)));
                slices.push((lane, group));
            }
            let got = vec![None; parts.len()];
            push_entry(PendingState::Multi {
                parts: parts.clone(),
                got,
            });
            let mut ok = true;
            for ((lane, group), c) in slices.into_iter().zip(parts) {
                ok &= client.submit_put_many(lane, group, c);
            }
            if !ok {
                // at least one lane refused: answer Rejected (slices
                // that *were* accepted still commit — at-most-once acks)
                shared.reject(id);
            }
        }
        Request::Scan { id, lo, hi, limit } => {
            if lo > hi || limit == 0 {
                push_entry(PendingState::Ready(Response::Entries {
                    id,
                    items: Vec::new(),
                }));
                shared.notify.post();
                return;
            }
            // keys are hash-routed: every lane may hold part of the
            // range, so fan the scan out and merge at response time
            let parts: Vec<Completion<ScanEntries>> = (0..client.num_lanes())
                .map(|_| Completion::with_notify(Arc::clone(&shared.notify)))
                .collect();
            let got = vec![None; parts.len()];
            push_entry(PendingState::Scan {
                parts: parts.clone(),
                got,
                limit: limit as usize,
            });
            let mut ok = true;
            for (lane, c) in parts.into_iter().enumerate() {
                ok &= client.submit_scan(lane, lo, hi, limit, c);
            }
            if !ok {
                shared.reject(id);
            }
        }
    }
}

/// Sweep the pending set whenever completions land, encode every
/// response that became ready (possibly out of submission order), and
/// write them back as one contiguous buffer per sweep.
fn writer_loop(mut conn: Box<dyn Conn>, shared: &ConnShared, stats: &NetStats) {
    let mut wire = Vec::new();
    let mut broken = false;
    loop {
        let seen = shared.notify.count();
        let done = shared.done.load(Ordering::Acquire);
        wire.clear();
        let mut sent = 0u64;
        let empty = {
            let mut g = shared.pending.lock().unwrap_or_else(|e| e.into_inner());
            let mut i = 0;
            while i < g.len() {
                if let Some(resp) = take_ready(&mut g[i]) {
                    wire.extend_from_slice(&encode_response(&resp));
                    sent += 1;
                    g.remove(i);
                } else {
                    i += 1;
                }
            }
            g.is_empty()
        };
        if !wire.is_empty() && !broken {
            // counted before the write: a client that has read a reply
            // must never observe `frames_in > frames_out`
            stats.frames_out.fetch_add(sent, Ordering::Relaxed);
            if conn.write_all_bytes(&wire).is_err() {
                // peer gone: keep reaping completions (the shard
                // workers still fill them) but stop writing
                broken = true;
            }
        }
        if done && empty {
            return;
        }
        if wire.is_empty() {
            // nothing was ready: sleep until a fill lands past our
            // pre-scan snapshot (a fill during the scan returns at once)
            if shared.done.load(Ordering::Acquire) && empty {
                return;
            }
            shared.notify.wait_past(seen);
        }
    }
}

/// If `entry` can answer now, build the response (consuming completion
/// results).
fn take_ready(entry: &mut PendingEntry) -> Option<Response> {
    let id = entry.id;
    match &mut entry.state {
        PendingState::Ready(r) => Some(r.clone()),
        PendingState::Value(c) => c.try_take().map(|v| Response::Value { id, value: v }),
        PendingState::Done(c) => c.try_take().map(|ok| Response::Done { id, ok }),
        PendingState::Multi { parts, got } => {
            for (slot, c) in got.iter_mut().zip(parts.iter()) {
                if slot.is_none() {
                    *slot = c.try_take();
                }
            }
            if got.iter().all(|s| s.is_some()) {
                Some(Response::Done {
                    id,
                    ok: got.iter().all(|s| s == &Some(true)),
                })
            } else {
                None
            }
        }
        PendingState::Scan { parts, got, limit } => {
            for (slot, c) in got.iter_mut().zip(parts.iter()) {
                if slot.is_none() {
                    *slot = c.try_take();
                }
            }
            if got.iter().all(|s| s.is_some()) {
                let mut items: Vec<(u64, Vec<u8>)> =
                    got.iter_mut().flat_map(|s| s.take().unwrap()).collect();
                items.sort_unstable_by_key(|&(k, _)| k);
                items.truncate(*limit);
                // never emit an unframeable response: cut to the
                // longest prefix that encodes under MAX_BODY
                items.truncate(fit_entries(&items));
                Some(Response::Entries { id, items })
            } else {
                None
            }
        }
    }
}

// ---- blocking client -------------------------------------------------

/// A simple blocking client: one request in flight at a time, matched
/// by id. The loadgen ([`crate::netload`]) pipelines instead; this is
/// for tests, tooling, and interactive use.
pub struct NetClient {
    conn: Box<dyn Conn>,
    dec: FrameDecoder,
    next_id: u64,
    buf: Vec<u8>,
}

impl NetClient {
    /// Connect through `transport` to `addr`.
    pub fn connect(transport: &dyn Transport, addr: &str) -> io::Result<NetClient> {
        Ok(NetClient {
            conn: transport.connect(addr)?,
            dec: FrameDecoder::new(),
            next_id: 1,
            buf: vec![0u8; 64 * 1024],
        })
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        let id = req.id();
        self.conn
            .write_all_bytes(&crate::proto::encode_request(req))?;
        loop {
            match self.dec.next_response() {
                Ok(Some(resp)) if resp.id() == id => return Ok(resp),
                Ok(Some(_)) => {} // stale (shouldn't happen single-in-flight)
                Ok(None) => {
                    let n = self.conn.read_some(&mut self.buf)?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed",
                        ));
                    }
                    self.dec.extend_from(&self.buf[..n]);
                }
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
        }
    }

    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        let id = self.id();
        match self.call(&Request::Ping { id })? {
            Response::Pong { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Look up `key`.
    pub fn get(&mut self, key: u64) -> io::Result<Option<Vec<u8>>> {
        let id = self.id();
        match self.call(&Request::Get { id, key })? {
            Response::Value { value, .. } => Ok(value),
            Response::Rejected { .. } => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// Insert or update; `Ok(true)` means the write is committed
    /// durable (ack-after-commit).
    pub fn put(&mut self, key: u64, value: &[u8]) -> io::Result<bool> {
        let id = self.id();
        match self.call(&Request::Put {
            id,
            key,
            value: value.to_vec(),
        })? {
            Response::Done { ok, .. } => Ok(ok),
            Response::Rejected { .. } => Ok(false),
            other => Err(unexpected(&other)),
        }
    }

    /// Atomic-per-shard multi-put.
    pub fn put_many(&mut self, items: &[(u64, Vec<u8>)]) -> io::Result<bool> {
        let id = self.id();
        match self.call(&Request::PutMany {
            id,
            items: items.to_vec(),
        })? {
            Response::Done { ok, .. } => Ok(ok),
            Response::Rejected { .. } => Ok(false),
            other => Err(unexpected(&other)),
        }
    }

    /// Remove `key`.
    pub fn delete(&mut self, key: u64) -> io::Result<bool> {
        let id = self.id();
        match self.call(&Request::Delete { id, key })? {
            Response::Done { ok, .. } => Ok(ok),
            Response::Rejected { .. } => Ok(false),
            other => Err(unexpected(&other)),
        }
    }

    /// Range scan `lo..=hi`, at most `limit` entries, sorted by key.
    /// The server may return fewer than `limit` entries when the full
    /// result would not fit one response frame.
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u32) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let id = self.id();
        match self.call(&Request::Scan { id, lo, hi, limit })? {
            Response::Entries { items, .. } => Ok(items),
            Response::Rejected { .. } => Ok(Vec::new()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("response kind mismatch: {resp:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::shard::ShardConfig;
    use crate::store::KvConfig;
    use nvcache_core::PolicyKind;

    fn kv(shards: usize) -> Arc<KvServer> {
        Arc::new(KvServer::new(
            &KvConfig {
                shards,
                shard: ShardConfig {
                    buckets: 64,
                    data_len: 1 << 19,
                    log_len: 1 << 15,
                    policy: PolicyKind::ScFixed { capacity: 8 },
                    adapt: None,
                    pipelined: true,
                },
            },
            &ServerConfig::default(),
        ))
    }

    #[test]
    fn duplex_pair_moves_bytes_both_ways() {
        let (mut a, mut b) = DuplexConn::pair();
        a.write_all_bytes(b"ping").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(b.read_some(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        b.write_all_bytes(b"pong!").unwrap();
        assert_eq!(a.read_some(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"pong!");
        a.shutdown_conn();
        assert_eq!(b.read_some(&mut buf).unwrap(), 0, "EOF after shutdown");
    }

    #[test]
    fn inproc_roundtrip_all_ops() {
        let kv = kv(2);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let mut c = NetClient::connect(&t, "inproc").unwrap();
        c.ping().unwrap();
        assert!(c.put(1, b"one").unwrap());
        assert_eq!(c.get(1).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(c.get(2).unwrap(), None);
        assert!(c
            .put_many(&[(3, b"three".to_vec()), (4, b"four".to_vec())])
            .unwrap());
        assert_eq!(c.get(4).unwrap().as_deref(), Some(&b"four"[..]));
        assert_eq!(
            c.scan(0, 10, 16).unwrap(),
            vec![
                (1, b"one".to_vec()),
                (3, b"three".to_vec()),
                (4, b"four".to_vec()),
            ],
            "scan merges all lanes sorted"
        );
        assert_eq!(c.scan(3, 10, 1).unwrap().len(), 1, "limit respected");
        assert!(c.delete(1).unwrap());
        assert!(!c.delete(1).unwrap());
        let st = srv.stats();
        assert_eq!(st.connections.load(Ordering::Relaxed), 1);
        assert!(st.frames_in.load(Ordering::Relaxed) >= 8);
        assert_eq!(
            st.frames_in.load(Ordering::Relaxed),
            st.frames_out.load(Ordering::Relaxed),
            "every decoded request was answered"
        );
        srv.shutdown();
        kv.close();
    }

    #[test]
    fn pipelined_requests_complete_out_of_order_by_id() {
        // drive the raw protocol: send a burst of puts + gets without
        // reading responses, then collect and match by id
        let kv = kv(4);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let mut conn = t.connect("inproc").unwrap();
        let mut wire = Vec::new();
        for i in 0..64u64 {
            wire.extend_from_slice(&crate::proto::encode_request(&Request::Put {
                id: i,
                key: i,
                value: i.to_le_bytes().to_vec(),
            }));
        }
        conn.write_all_bytes(&wire).unwrap();
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 4096];
        let mut acked = std::collections::HashSet::new();
        while acked.len() < 64 {
            let n = conn.read_some(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            dec.extend_from(&buf[..n]);
            while let Some(resp) = dec.next_response().unwrap() {
                match resp {
                    Response::Done { id, ok: true } => {
                        assert!(acked.insert(id), "duplicate ack {id}");
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        // every acked write is durable (ack-after-commit)
        kv.crash_and_recover_all(&nvcache_pmem::CrashMode::StrictDurableOnly);
        let client = kv.client();
        for i in 0..64u64 {
            assert_eq!(
                client.get(i).as_deref(),
                Some(&i.to_le_bytes()[..]),
                "acked key {i} lost"
            );
        }
        srv.shutdown();
        kv.close();
    }

    #[test]
    fn corrupt_frame_is_skipped_and_counted() {
        let kv = kv(1);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let mut conn = t.connect("inproc").unwrap();
        // damaged put, then a valid ping: the ping must still answer
        let mut bad = crate::proto::encode_request(&Request::Put {
            id: 1,
            key: 1,
            value: b"x".to_vec(),
        });
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        conn.write_all_bytes(&bad).unwrap();
        conn.write_all_bytes(&crate::proto::encode_request(&Request::Ping { id: 2 }))
            .unwrap();
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 256];
        let resp = loop {
            let n = conn.read_some(&mut buf).unwrap();
            assert!(n > 0);
            dec.extend_from(&buf[..n]);
            if let Some(r) = dec.next_response().unwrap() {
                break r;
            }
        };
        assert_eq!(resp, Response::Pong { id: 2 });
        assert_eq!(srv.stats().proto_errors.load(Ordering::Relaxed), 1);
        srv.shutdown();
        kv.close();
    }

    /// The net layer is engine-generic: a tree-engine server speaks the
    /// same wire protocol, and its scans come back sorted.
    #[test]
    fn tree_engine_serves_over_the_wire() {
        use crate::engine::{TreeEngine, TreeEngineConfig};
        let kv = Arc::new(KvServer::<TreeEngine>::new_tree(
            2,
            &TreeEngineConfig::default(),
            &ServerConfig::default(),
        ));
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let mut c = NetClient::connect(&t, "inproc").unwrap();
        for k in 0..50u64 {
            assert!(c.put(k, &k.to_le_bytes()).unwrap());
        }
        assert_eq!(c.get(7).unwrap().as_deref(), Some(&7u64.to_le_bytes()[..]));
        let got = c.scan(10, 19, 100).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert_eq!(got[0].0, 10);
        assert!(c.delete(7).unwrap());
        assert_eq!(c.get(7).unwrap(), None);
        srv.shutdown();
        kv.close();
    }

    #[test]
    fn tcp_transport_serves_localhost() {
        let kv = kv(2);
        let t = TcpTransport;
        let srv = NetServer::start(&t, "127.0.0.1:0", Arc::clone(&kv)).unwrap();
        let addr = srv.local_addr();
        let mut c = NetClient::connect(&t, &addr).unwrap();
        c.ping().unwrap();
        assert!(c.put(10, b"tcp").unwrap());
        assert_eq!(c.get(10).unwrap().as_deref(), Some(&b"tcp"[..]));
        srv.shutdown();
        kv.close();
    }

    #[test]
    fn listen_addr_precedence() {
        // single test fn: env mutations must not race other tests
        assert_eq!(listen_addr(Some("0.0.0.0:9")), "0.0.0.0:9");
        std::env::remove_var("NVKV_ADDR");
        std::env::remove_var("NVKV_PORT");
        assert_eq!(listen_addr(None), DEFAULT_ADDR);
        std::env::set_var("NVKV_PORT", "7001");
        assert_eq!(listen_addr(None), "127.0.0.1:7001");
        std::env::set_var("NVKV_ADDR", "10.0.0.1:7002");
        assert_eq!(listen_addr(None), "10.0.0.1:7002");
        assert_eq!(listen_addr(Some("cli:1")), "cli:1", "CLI beats env");
        std::env::remove_var("NVKV_ADDR");
        std::env::remove_var("NVKV_PORT");
    }
}
