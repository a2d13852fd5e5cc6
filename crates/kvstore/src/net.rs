//! The network serving layer: a transport-trait server that speaks the
//! framed wire protocol of [`proto`] and feeds decoded requests into
//! the [`KvServer`]'s submission queues.
//!
//! ## Transports
//!
//! [`Transport`] abstracts listen/connect over byte-stream connections.
//! Two implementations:
//!
//! - [`InProcTransport`] — in-process duplex pipes (a bounded byte
//!   buffer + condvars per direction). Deterministic, no sockets, no
//!   ports: what the test suite and the CI smoke run on.
//! - [`TcpTransport`] — real TCP. The listen address is decided like
//!   wrongodb's server: explicit CLI argument beats `NVKV_ADDR` beats
//!   `NVKV_PORT` (host-defaulted) beats the built-in default
//!   (see [`listen_addr`]).
//!
//! ## Per-connection pipelining
//!
//! Each accepted connection gets a **reader** thread and a **writer**
//! thread. The reader decodes every frame one read delivered, groups
//! them per shard lane, and submits each group at once. A lane it finds
//! idle it serves itself ([`crate::server`]): the replies come straight
//! back, and the reader encodes and writes them — the request never
//! changes threads between the wire and the engine. A busy lane gets
//! the whole group queued under one lock; requests from *different*
//! connections meet in that queue, where the next drain (the lane
//! worker's, or a submitter's that finds the lane free) turns them into
//! one grouped FASE (cross-client group commit), and the answers to
//! those come back through the writer: it sleeps on the connection's
//! [`Notify`], which is posted once per served batch, sweeps the
//! outstanding completions and sends what became ready — **in
//! completion order, not submission order**; responses carry the
//! request id, so the client reorders. Either thread encodes everything
//! it has into one buffer and hands the transport a single write of
//! whole frames.
//!
//! The connection's write half sits behind one mutex shared by the two
//! threads. It is never taken while a lane is held (the reader writes
//! after `try_serve` returned), so a slow peer cannot stall a lane. A
//! peer that stops reading its replies fills the transport's buffer
//! (the in-process pipe is bounded like a socket buffer, see
//! [`PIPE_CAPACITY`]) and the write blocks: the reader's own, which
//! stops it reading requests, or the writer thread's, after which the
//! queued-but-unanswered set runs into its cap and the reader waits for
//! it to drain. Either way back-pressure lands on the peer that caused
//! it instead of growing the server's buffers.
//!
//! ## Ack contract
//!
//! A response frame for a write is encoded only after its reply exists
//! — returned by the reader's own `serve_batch`, or filled into the
//! completion slot by whoever served the queued batch — and replies
//! exist only after the
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
use crate::proto::{encode_response_into, fit_entries, FrameDecoder, Request, Response};
use crate::queue::{Completion, Notify};
use crate::server::{KvClient, KvServer, Queued};
use crate::shard::{BatchReply, BatchRequest};

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
    /// Write the whole buffer. Whether two handles of one connection
    /// writing at once keep their buffers apart is the transport's
    /// business (the in-process pipe does, a TCP stream's partial writes
    /// do not): writers that share a direction serialize among
    /// themselves, as the server's two threads do behind one mutex.
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

/// Bytes one direction of an in-process pipe buffers before `write`
/// blocks — what a socket's send + receive buffers would hold. As over
/// a socket, a peer that pipelines more than this must read replies
/// while it sends.
pub const PIPE_CAPACITY: usize = 1 << 20;

/// One direction of a duplex pipe: a bounded byte buffer with blocking
/// reads and, at [`PIPE_CAPACITY`], blocking writes. Each condvar is
/// notified only when its side has registered a sleeper.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// The reader parks here on an empty pipe.
    readable: Condvar,
    /// Writers park here on a full one.
    writable: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    /// Unread bytes are `data[head..]`.
    data: Vec<u8>,
    head: usize,
    closed: bool,
    reader_waiting: bool,
    writers_waiting: usize,
    /// A writer is parked on the full pipe with part of its buffer in.
    writer_parked: bool,
}

impl PipeState {
    fn unread(&self) -> usize {
        self.data.len() - self.head
    }
}

impl Pipe {
    fn lock(&self) -> std::sync::MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self, mut buf: &[u8]) -> io::Result<()> {
        let mut g = self.lock();
        // a writer parked mid-buffer owns the pipe until it is through,
        // so two handles' writes never interleave
        while g.writer_parked && !g.closed {
            g.writers_waiting += 1;
            g = self.writable.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let mut parked = false;
        loop {
            if g.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
            }
            let n = (PIPE_CAPACITY - g.unread()).min(buf.len());
            if n > 0 {
                if g.head > 0 && g.data.len() + n > g.data.capacity() {
                    // reclaim the consumed prefix rather than grow
                    let head = g.head;
                    g.data.drain(..head);
                    g.head = 0;
                }
                g.data.extend_from_slice(&buf[..n]);
                buf = &buf[n..];
            }
            let wake_reader = n > 0 && std::mem::take(&mut g.reader_waiting);
            if buf.is_empty() {
                let wake_writers = parked && {
                    g.writer_parked = false;
                    std::mem::take(&mut g.writers_waiting) > 0
                };
                // wake with the lock released, so the woken do not run
                // straight into it
                drop(g);
                if wake_reader {
                    self.readable.notify_one();
                }
                if wake_writers {
                    self.writable.notify_all();
                }
                return Ok(());
            }
            // the peer is a whole buffer behind: wait for it to read
            if wake_reader {
                self.readable.notify_one();
            }
            parked = true;
            g.writer_parked = true;
            g.writers_waiting += 1;
            g = self.writable.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut g = self.lock();
        while g.unread() == 0 {
            if g.closed {
                return Ok(0); // EOF
            }
            g.reader_waiting = true;
            g = self.readable.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let n = buf.len().min(g.unread());
        buf[..n].copy_from_slice(&g.data[g.head..g.head + n]);
        g.head += n;
        if g.unread() == 0 {
            g.data.clear();
            g.head = 0;
        }
        if n > 0 && std::mem::take(&mut g.writers_waiting) > 0 {
            drop(g);
            self.writable.notify_all();
        }
        Ok(n)
    }

    fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        g.reader_waiting = false;
        g.writers_waiting = 0;
        drop(g);
        self.readable.notify_all();
        self.writable.notify_all();
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

/// A wire request whose answer is assembled from several lanes'
/// replies: a `PutMany` split over lanes (ack = the conjunction) or a
/// `Scan` fanned out to every lane (keys are hash-routed; the response
/// is the merged, sorted, limit-truncated union).
struct Fan {
    id: u64,
    /// `Some(limit)` for a scan, `None` for a multi-put.
    scan_limit: Option<usize>,
    parts: Vec<Part>,
}

/// One lane's share of a [`Fan`].
enum Part {
    /// The reply is in — served by the reader, or collected from a slot.
    Got(BatchReply),
    /// Queued on a busy lane.
    Wait(Completion<BatchReply>),
    /// The lane refused it (full under `Reject`, or shut down).
    Refused,
}

impl Fan {
    /// A fan over `lanes` lanes. Every part starts as a positive ack:
    /// each lane the request is routed to overwrites its part when the
    /// group is submitted, and the lanes a multi-put has no slice for
    /// keep it (nothing to do there is trivially done).
    fn new(id: u64, scan_limit: Option<usize>, lanes: usize) -> Fan {
        Fan {
            id,
            scan_limit,
            parts: (0..lanes)
                .map(|_| Part::Got(BatchReply::Done(true)))
                .collect(),
        }
    }

    /// Collect whatever landed; `true` once every part is settled.
    fn poll(&mut self) -> bool {
        let mut settled = true;
        for p in &mut self.parts {
            if let Part::Wait(c) = p {
                match c.try_take() {
                    Some(r) => *p = Part::Got(r),
                    None => settled = false,
                }
            }
        }
        settled
    }

    /// The response of a fan [`poll`](Fan::poll) found settled. A
    /// refused part makes the whole request `Rejected` (slices that
    /// *were* accepted still commit — at-most-once acks).
    fn response(&mut self) -> Response {
        let id = self.id;
        if self.parts.iter().any(|p| matches!(p, Part::Refused)) {
            return Response::Rejected { id };
        }
        let replies = self.parts.drain(..).filter_map(|p| match p {
            Part::Got(r) => Some(r),
            _ => None,
        });
        match self.scan_limit {
            None => Response::Done {
                id,
                ok: replies.fold(true, |ok, r| ok & (r == BatchReply::Done(true))),
            },
            Some(limit) => {
                let mut items: Vec<(u64, Vec<u8>)> = replies
                    .flat_map(|r| match r {
                        BatchReply::Entries(e) => e,
                        _ => Vec::new(),
                    })
                    .collect();
                items.sort_unstable_by_key(|&(k, _)| k);
                items.truncate(limit);
                entries_response(id, items)
            }
        }
    }
}

/// An `Entries` frame must fit the body cap: never emit an unframeable
/// response, cut to the longest prefix that encodes under `MAX_BODY`.
fn entries_response(id: u64, mut items: Vec<(u64, Vec<u8>)>) -> Response {
    items.truncate(fit_entries(&items));
    Response::Entries { id, items }
}

/// The wire response for a single-lane request's reply.
fn response_of(id: u64, reply: BatchReply) -> Response {
    match reply {
        BatchReply::Value(value) => Response::Value { id, value },
        BatchReply::Done(ok) => Response::Done { id, ok },
        BatchReply::Entries(items) => entries_response(id, items),
    }
}

/// One request queued on a busy lane (or a fan with a queued part),
/// keyed by wire id. The writer sweeps these and emits a response as
/// soon as the entry is ready — possibly out of submission order.
enum Pending {
    One {
        id: u64,
        slot: Completion<BatchReply>,
    },
    Fan(Fan),
}

impl Pending {
    /// The response, once every reply it needs is in.
    fn take_ready(&mut self) -> Option<Response> {
        match self {
            Pending::One { id, slot } => slot.try_take().map(|r| response_of(*id, r)),
            Pending::Fan(fan) => fan.poll().then(|| fan.response()),
        }
    }

    /// Ready, without building a response nobody will read.
    fn reap(&mut self) -> bool {
        match self {
            Pending::One { slot, .. } => slot.try_take().is_some(),
            Pending::Fan(fan) => fan.poll(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Queued-but-unanswered requests one connection may hold before its
/// reader stops taking in more: with the writer stuck behind a peer that
/// does not read, the pending set stays under this plus one read's
/// worth. The write mutex alone does not bound it: a reader that merely
/// passes that mutex every round gets as many rounds in as the
/// scheduler gives it before the writer thread runs into the full pipe
/// (`a_peer_that_never_reads_stalls_only_itself` then sees three rounds
/// pending in about one run of thirty).
const PENDING_CAP: usize = 1024;

/// The requests a connection's reader queued on busy lanes, awaiting a
/// worker's reply and the writer's sweep.
#[derive(Default)]
struct PendingSet {
    entries: VecDeque<Pending>,
    /// The reader sleeps on `ConnShared::drained` (set over the cap).
    reader_waiting: bool,
}

/// Shared between one connection's reader and writer threads.
struct ConnShared {
    pending: Mutex<PendingSet>,
    /// The reader parks here while `pending` is over [`PENDING_CAP`];
    /// the writer notifies after a sweep that removed entries.
    drained: Condvar,
    /// Posted by whoever served a queued batch (once per batch) and by
    /// the reader when it registered a fan late or is done.
    notify: Arc<Notify>,
    /// The connection's write half: whole frames per write, and never
    /// taken while a lane's engine lock is held.
    write_half: Mutex<Box<dyn Conn>>,
    /// Reader finished (EOF or fatal error): writer drains and exits.
    done: AtomicBool,
}

impl ConnShared {
    /// Count and write `frames` encoded responses. Counted before the
    /// write: a client that has read a reply must never observe
    /// `frames_in > frames_out`.
    fn send(&self, wire: &[u8], frames: u64, stats: &NetStats) -> io::Result<()> {
        stats.frames_out.fetch_add(frames, Ordering::Relaxed);
        lock(&self.write_half).write_all_bytes(wire)
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
    /// connection gets a reader + writer thread pair over `kv`'s lanes.
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
    let shared = Arc::new(ConnShared {
        pending: Mutex::default(),
        drained: Condvar::new(),
        notify: Arc::new(Notify::new()),
        write_half: Mutex::new(conn.try_clone_conn()?),
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
        std::thread::spawn(move || writer_loop(&shared, &stats))
    };
    Ok(ConnHandle {
        conn,
        reader,
        writer,
    })
}

/// Where a lane reply of the current read belongs.
#[derive(Clone, Copy)]
enum Tag {
    /// It is the whole answer to wire request `id`.
    One(u64),
    /// It is part `lane` of `fans[fan]`.
    Part(usize),
}

/// Everything one read delivered, grouped per lane, plus the replies
/// the reader produced itself. Buffers are reused across reads.
struct Round {
    /// Per lane: the requests of this read, and where each reply goes.
    groups: Vec<(Vec<BatchRequest>, Vec<Tag>)>,
    /// Multi-lane requests of this read.
    fans: Vec<Fan>,
    /// Encoded responses the reader will write, and how many.
    wire: Vec<u8>,
    frames: u64,
}

impl Round {
    fn new(lanes: usize) -> Round {
        Round {
            groups: (0..lanes).map(|_| (Vec::new(), Vec::new())).collect(),
            fans: Vec::new(),
            wire: Vec::new(),
            frames: 0,
        }
    }

    fn answer(&mut self, resp: &Response) {
        encode_response_into(&mut self.wire, resp);
        self.frames += 1;
    }

    fn route(&mut self, lane: usize, req: BatchRequest, tag: Tag) {
        let (reqs, tags) = &mut self.groups[lane];
        reqs.push(req);
        tags.push(tag);
    }

    /// File one decoded request under the lane(s) that serve it.
    fn add(&mut self, client: &KvClient, req: Request) {
        let lanes = client.num_lanes();
        match req {
            Request::Ping { id } => self.answer(&Response::Pong { id }),
            Request::Get { id, key } => {
                self.route(client.lane_of(key), BatchRequest::Get(key), Tag::One(id))
            }
            Request::Put { id, key, value } => self.route(
                client.lane_of(key),
                BatchRequest::Put(key, value),
                Tag::One(id),
            ),
            Request::Delete { id, key } => {
                self.route(client.lane_of(key), BatchRequest::Delete(key), Tag::One(id))
            }
            Request::PutMany { id, items } => {
                let mut by_lane: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); lanes];
                for (k, v) in items {
                    by_lane[client.lane_of(k)].push((k, v));
                }
                let mut slices = by_lane
                    .into_iter()
                    .enumerate()
                    .filter(|(_, group)| !group.is_empty());
                let Some((lane, group)) = slices.next() else {
                    return self.answer(&Response::Done { id, ok: true });
                };
                let Some(second) = slices.next() else {
                    // one lane involved: its ack is the answer
                    return self.route(lane, BatchRequest::PutMany(group), Tag::One(id));
                };
                let tag = Tag::Part(self.fans.len());
                for (lane, group) in [(lane, group), second].into_iter().chain(slices) {
                    self.route(lane, BatchRequest::PutMany(group), tag);
                }
                self.fans.push(Fan::new(id, None, lanes));
            }
            Request::Scan { id, lo, hi, limit } => {
                if lo > hi || limit == 0 {
                    return self.answer(&Response::Entries {
                        id,
                        items: Vec::new(),
                    });
                }
                if lanes == 1 {
                    return self.route(0, BatchRequest::Scan(lo, hi, limit), Tag::One(id));
                }
                // keys are hash-routed: every lane may hold part of the
                // range, so fan the scan out and merge the replies
                for lane in 0..lanes {
                    self.route(
                        lane,
                        BatchRequest::Scan(lo, hi, limit),
                        Tag::Part(self.fans.len()),
                    );
                }
                self.fans.push(Fan::new(id, Some(limit as usize), lanes));
            }
        }
    }

    /// Submit every lane's group: serve the lanes found idle on this
    /// thread, queue on the busy ones. Afterwards `wire` holds the
    /// responses of everything served here (and of anything refused);
    /// what was queued is registered in `shared.pending` for the writer.
    fn submit(&mut self, client: &KvClient, shared: &ConnShared) {
        for lane in 0..self.groups.len() {
            if self.groups[lane].0.is_empty() {
                continue;
            }
            let (mut reqs, mut tags) = std::mem::take(&mut self.groups[lane]);
            match client.try_serve(lane, &reqs) {
                Some(replies) => {
                    for (&tag, reply) in tags.iter().zip(replies) {
                        match tag {
                            Tag::One(id) => self.answer(&response_of(id, reply)),
                            Tag::Part(f) => self.fans[f].parts[lane] = Part::Got(reply),
                        }
                    }
                    reqs.clear();
                }
                None => self.queue_group(client, shared, lane, &mut reqs, &tags),
            }
            tags.clear();
            self.groups[lane] = (reqs, tags);
        }
        let mut late = false;
        for mut fan in std::mem::take(&mut self.fans) {
            if fan.poll() {
                self.answer(&fan.response());
            } else {
                // some part is queued and may already have been filled
                // and posted: post again once the entry is registered
                lock(&shared.pending).entries.push_back(Pending::Fan(fan));
                late = true;
            }
        }
        if late {
            shared.notify.post();
        }
    }

    /// The busy-lane path for one lane's group: register the pending
    /// entries **before** the push, so the writer's notify-count
    /// snapshot can never miss a fill, then queue the whole group.
    fn queue_group(
        &mut self,
        client: &KvClient,
        shared: &ConnShared,
        lane: usize,
        reqs: &mut Vec<BatchRequest>,
        tags: &[Tag],
    ) {
        let mut items: Vec<Queued> = Vec::with_capacity(reqs.len());
        {
            let mut pending = lock(&shared.pending);
            for (req, &tag) in reqs.drain(..).zip(tags) {
                let slot = Completion::with_notify(Arc::clone(&shared.notify));
                match tag {
                    Tag::One(id) => pending.entries.push_back(Pending::One {
                        id,
                        slot: slot.clone(),
                    }),
                    Tag::Part(f) => self.fans[f].parts[lane] = Part::Wait(slot.clone()),
                }
                items.push(Queued { req, slot });
            }
        }
        let accepted = client.enqueue(lane, &mut items);
        // the refused tail is answered from here. Its `One` entries are
        // the last this reader pushed and can never become ready, so
        // they are still the back of `pending`.
        for &tag in tags[accepted..].iter().rev() {
            match tag {
                Tag::One(id) => {
                    lock(&shared.pending).entries.pop_back();
                    self.answer(&Response::Rejected { id });
                }
                Tag::Part(f) => self.fans[f].parts[lane] = Part::Refused,
            }
        }
    }
}

/// Decode frames off the connection and submit them, one read at a
/// time; write what this thread served. Returns on EOF, read or write
/// error, or a fatal protocol error (which also tears the connection
/// down so the peer notices).
fn reader_loop<E: Engine>(
    mut conn: Box<dyn Conn>,
    kv: &KvServer<E>,
    shared: &ConnShared,
    stats: &NetStats,
) {
    let client = kv.handle();
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut round = Round::new(client.num_lanes());
    loop {
        let n = match conn.read_some(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        dec.extend_from(&buf[..n]);
        let mut frames_in = 0u64;
        let fatal = loop {
            match dec.next_request() {
                Ok(None) => break false,
                Ok(Some(req)) => {
                    frames_in += 1;
                    round.add(client, req);
                }
                Err(e) if e.is_fatal() => break true,
                Err(_) => {
                    stats.proto_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        stats.frames_in.fetch_add(frames_in, Ordering::Relaxed);
        round.submit(client, shared);
        // a peer that has stopped reading stalls its own connection
        // here instead of growing the server's buffers: this write
        // blocks on the transport's bound, and what was queued for the
        // writer thread (blocked on the same bound) runs into the cap
        let sent = match round.frames {
            0 => Ok(()),
            frames => shared.send(&round.wire, frames, stats),
        };
        round.wire.clear();
        round.frames = 0;
        let mut pending = lock(&shared.pending);
        while pending.entries.len() > PENDING_CAP {
            pending.reader_waiting = true;
            pending = shared
                .drained
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(pending);
        if fatal {
            conn.shutdown_conn();
        }
        if fatal || sent.is_err() {
            return;
        }
    }
}

/// Answer what the lane workers served: sweep the pending set whenever
/// one posts, encode every response that became ready (possibly out of
/// submission order), and write them back as one buffer per sweep.
fn writer_loop(shared: &ConnShared, stats: &NetStats) {
    let mut wire = Vec::new();
    let mut broken = false;
    loop {
        let seen = shared.notify.count();
        let done = shared.done.load(Ordering::Acquire);
        let mut frames = 0u64;
        let empty = {
            let mut pending = lock(&shared.pending);
            let before = pending.entries.len();
            pending.entries.retain_mut(|entry| {
                if broken {
                    // peer gone: keep reaping what the workers fill,
                    // encode nothing
                    return !entry.reap();
                }
                match entry.take_ready() {
                    Some(resp) => {
                        encode_response_into(&mut wire, &resp);
                        frames += 1;
                        false
                    }
                    None => true,
                }
            });
            let empty = pending.entries.is_empty();
            let wake_reader =
                pending.entries.len() < before && std::mem::take(&mut pending.reader_waiting);
            drop(pending);
            if wake_reader {
                shared.drained.notify_one();
            }
            empty
        };
        if frames > 0 {
            broken = shared.send(&wire, frames, stats).is_err();
            wire.clear();
        }
        if done && empty {
            return;
        }
        if frames == 0 {
            // nothing was ready: sleep until a post lands past our
            // pre-scan snapshot (one during the scan returns at once)
            shared.notify.wait_past(seen);
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
    fn pipe_write_blocks_at_capacity_and_resumes_as_the_peer_reads() {
        let (mut a, mut b) = DuplexConn::pair();
        let total = PIPE_CAPACITY + PIPE_CAPACITY / 2;
        let payload: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        std::thread::scope(|s| {
            let payload = &payload;
            let writer = s.spawn(move || a.write_all_bytes(payload));
            // the writer runs into the bound and parks there
            let t0 = std::time::Instant::now();
            while b.rx.lock().writers_waiting == 0 {
                assert!(t0.elapsed().as_secs() < 20, "writer never blocked");
                std::thread::yield_now();
            }
            assert_eq!(b.rx.lock().unread(), PIPE_CAPACITY, "never past the bound");
            let mut got = Vec::with_capacity(total);
            let mut buf = vec![0u8; 64 * 1024];
            while got.len() < total {
                let n = b.read_some(&mut buf).unwrap();
                assert!(b.rx.lock().unread() <= PIPE_CAPACITY);
                got.extend_from_slice(&buf[..n]);
            }
            writer.join().unwrap().unwrap();
            assert!(got == *payload, "bytes arrive whole and in order");
        });
        // a writer parked on a full pipe is released by shutdown
        let (mut a, b) = DuplexConn::pair();
        std::thread::scope(|s| {
            let writer = s.spawn(move || a.write_all_bytes(&vec![0u8; 2 * PIPE_CAPACITY]));
            while b.rx.lock().writers_waiting == 0 {
                std::thread::yield_now();
            }
            b.shutdown_conn();
            let err = writer.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        });
    }

    /// Two handles writing one direction of a full pipe: each parks
    /// with part of a message in, and still every message arrives whole.
    #[test]
    fn two_writers_on_a_full_pipe_never_interleave() {
        const MSG: usize = 50_000;
        const PER_WRITER: usize = 60; // 6 MB through a 1 MiB pipe
        let (a, mut b) = DuplexConn::pair();
        std::thread::scope(|s| {
            for w in 0..2u8 {
                let mut conn = a.try_clone_conn().unwrap();
                s.spawn(move || {
                    for m in 0..PER_WRITER {
                        let fill = w * 100 + (m % 100) as u8;
                        conn.write_all_bytes(&[fill; MSG]).unwrap();
                    }
                });
            }
            // read in pieces that divide neither a message nor the pipe
            let mut got = Vec::with_capacity(2 * PER_WRITER * MSG);
            let mut buf = vec![0u8; 7001];
            while got.len() < 2 * PER_WRITER * MSG {
                let n = b.read_some(&mut buf).unwrap();
                got.extend_from_slice(&buf[..n]);
            }
            for (i, msg) in got.chunks(MSG).enumerate() {
                assert!(
                    msg.iter().all(|&x| x == msg[0]),
                    "message {i} was cut by the other writer"
                );
            }
        });
    }

    /// Idle lanes: one connection's whole session is served by its
    /// reader thread — no request ever reaches a lane worker, and the
    /// writer thread has nothing to answer.
    #[test]
    fn one_connection_is_served_by_its_reader() {
        let kv = kv(2);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let mut c = NetClient::connect(&t, "inproc").unwrap();
        for k in 0..200u64 {
            assert!(c.put(k, &k.to_le_bytes()).unwrap());
            assert_eq!(c.get(k).unwrap().as_deref(), Some(&k.to_le_bytes()[..]));
        }
        let items: Vec<(u64, Vec<u8>)> = (1000..1016).map(|k| (k, vec![7; 16])).collect();
        assert!(c.put_many(&items).unwrap(), "spans both lanes");
        assert_eq!(c.scan(1000, 1015, 100).unwrap(), items);
        assert!(c.delete(3).unwrap());
        let qs = kv.queue_stats();
        assert_eq!(qs.queued_batches(), 0, "the workers never drained");
        assert_eq!(qs.enqueued, qs.drained);
        assert_eq!(qs.inline_requests, qs.drained);
        srv.shutdown();
        kv.close();
    }

    /// A peer that sends and never reads stalls its own connection: the
    /// reply pipe fills to its bound, the server stops reading that
    /// connection's requests, and everyone else is served as usual.
    #[test]
    fn a_peer_that_never_reads_stalls_only_itself() {
        const FLOOD: u64 = 50_000;
        let kv = kv(2);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let mut good = NetClient::connect(&t, "inproc").unwrap();
        assert!(good.put(1, &[0xab; 200]).unwrap());
        let (in0, out0) = {
            let st = srv.stats();
            (
                st.frames_in.load(Ordering::Relaxed),
                st.frames_out.load(Ordering::Relaxed),
            )
        };
        // 50 000 Gets of a 200-byte value: 11 MB of replies nobody reads
        let mut deaf = t.connect("inproc").unwrap();
        let flood = std::thread::spawn(move || {
            let mut wire = Vec::new();
            for id in 0..FLOOD {
                crate::proto::encode_request_into(&mut wire, &Request::Get { id, key: 1 });
            }
            // blocks once the server stops reading and the request
            // pipe is full too; shutdown releases it
            let _ = deaf.write_all_bytes(&wire);
        });
        // the well-behaved connection is unaffected
        for i in 0..1000u64 {
            let k = 10 + i % 50;
            assert!(good.put(k, &i.to_le_bytes()).unwrap());
            assert_eq!(good.get(k).unwrap().as_deref(), Some(&i.to_le_bytes()[..]));
        }
        // let the flood run into the bound, then watch it stay there
        let flooded = |srv: &NetServer| {
            let st = srv.stats();
            let fin = st.frames_in.load(Ordering::Relaxed) - in0 - 2000;
            let fout = st.frames_out.load(Ordering::Relaxed) - out0 - 2000;
            (fin, fout)
        };
        let mut last = flooded(&srv);
        loop {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let now = flooded(&srv);
            if now == last {
                break;
            }
            last = now;
        }
        let (fin, fout) = last;
        // a reply frame is 221 bytes: the pipe holds under 4 745 of
        // them; the reader and the writer thread can each be blocked on
        // one more buffer — a read's worth (2 622 requests of 25 bytes)
        // and, for the writer, the capped pending set on top
        let reply = (crate::proto::HEADER_LEN + 8 + 1 + 4 + 200) as u64;
        let round = 64 * 1024 / 25 + 1;
        let pending_max = PENDING_CAP as u64 + round;
        assert!(
            fout <= PIPE_CAPACITY as u64 / reply + pending_max + round,
            "replies: {fout}"
        );
        assert!(
            fin - fout <= pending_max + round,
            "answered {fout} of {fin} decoded: unanswered requests pile up"
        );
        assert!(fin < FLOOD / 2, "the connection kept reading: {fin}");
        srv.shutdown(); // joins every thread, blocked or not
                        // (the sender may be parked on the full request pipe — shutdown
                        // releases it with an error — or may just have fitted its last
                        // bytes in)
        flood.join().unwrap();
        kv.close();
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
