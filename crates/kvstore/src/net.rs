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
//! Each accepted connection gets **one thread**. It decodes every frame
//! one read delivered, groups them per shard lane, and submits each
//! group at once. A lane it finds idle it serves itself
//! ([`crate::server`]): the replies come straight back — the request
//! never changes threads between the wire and the engine. A busy lane
//! gets the whole group queued under one lock; requests from
//! *different* connections meet in that queue, where the next drain
//! (by whichever of their threads next holds the lane) turns them into
//! one grouped FASE (cross-client group commit). Only once *every* lane
//! has its group does the thread wait for what it queued — as a
//! blocking [`KvClient`] call does: it lines up on the busy lane's lock
//! and serves the queue itself unless another thread already has; then
//! it encodes the read's responses into one buffer and
//! hands the transport a single write of whole frames. Responses carry
//! the request id and leave **in no promised order**: what was served
//! here is encoded before what was queued, so the client matches by id.
//!
//! What this shape gives up: a connection does not decode its *next*
//! read while a lane it queued on is still busy, and the replies of one
//! read leave together. Its whole window is still submitted before it
//! waits, and other connections are untouched.
//!
//! The thread never holds a lane while it writes (every group has been
//! served or queued, and its lane released, before the read's one
//! write), so a slow peer cannot stall a lane. A peer that stops reading its replies
//! fills the transport's buffer (the in-process pipe is bounded like a
//! socket buffer, see [`PIPE_CAPACITY`]) and the write blocks — and
//! with it the only thread that would read that peer's requests.
//! Back-pressure lands on the peer that caused it instead of growing
//! the server's buffers: at most the pipe plus one read's worth of
//! replies is ever outstanding.
//!
//! ## Ack contract
//!
//! A response frame for a write is encoded only after its reply exists
//! — returned by the thread's own `serve_batch`, or filled into the
//! completion slot by whoever served the queued batch — and replies
//! exist only after the batch's FASE committed: **a response on the
//! wire implies the write is durable**. The crash sweep in
//! `tests/net_e2e.rs` (all three crash modes) enforces exactly this.
//!
//! [`proto`]: crate::proto

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::engine::Engine;
use crate::proto::{encode_response_into, fit_entries, FrameDecoder, Request, Response};
use crate::server::{merge_scan, Answer, KvClient, KvServer, Pending};
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
/// *independent* cloned handles (a client's reader and writer threads
/// each own one; the server keeps one to shut a connection down from
/// outside its thread) and an out-of-band shutdown that unblocks a
/// blocked read or write.
pub trait Conn: Send {
    /// Read up to `buf.len()` bytes; `Ok(0)` means the peer closed.
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write the whole buffer. Whether two handles of one connection
    /// writing at once keep their buffers apart is the transport's
    /// business (the in-process pipe does, a TCP stream's partial writes
    /// do not): writers that share a direction serialize among
    /// themselves.
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

/// Connection-level counters, scraped by benchmarks.
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

/// A wire request whose answer is assembled from the replies of every
/// lane it touches: a `PutMany` split over lanes (ack = the conjunction)
/// or a `Scan` fanned out to all of them (keys are hash-routed; the
/// response is the merged, sorted, limit-truncated union).
struct Fan {
    id: u64,
    /// `Some(limit)` for a scan, `None` for a multi-put.
    scan_limit: Option<usize>,
    /// One per lane the request was routed to, filed as its group is
    /// submitted.
    parts: Vec<Answer>,
}

impl Fan {
    fn new(id: u64, scan_limit: Option<usize>) -> Fan {
        Fan {
            id,
            scan_limit,
            parts: Vec::new(),
        }
    }

    /// The response, waiting for the parts that were queued. A refused
    /// part makes the whole request `Rejected` (slices that *were*
    /// accepted still commit — at-most-once acks).
    fn response(self) -> Response {
        let id = self.id;
        let replies: Option<Vec<BatchReply>> = self.parts.into_iter().map(Answer::wait).collect();
        let Some(replies) = replies else {
            return Response::Rejected { id };
        };
        match self.scan_limit {
            None => Response::Done {
                id,
                ok: replies.iter().all(|r| *r == BatchReply::Done(true)),
            },
            Some(limit) => entries_response(id, merge_scan(replies, limit)),
        }
    }
}

/// An `Entries` frame must fit the body cap: never emit an unframeable
/// response, cut to the longest prefix that encodes under `MAX_BODY`.
fn entries_response(id: u64, mut items: Vec<(u64, Vec<u8>)>) -> Response {
    items.truncate(fit_entries(&items));
    Response::Entries { id, items }
}

/// The wire response for a reply that is the whole answer.
fn response_of(id: u64, reply: BatchReply) -> Response {
    match reply {
        BatchReply::Value(value) => Response::Value { id, value },
        BatchReply::Done(ok) => Response::Done { id, ok },
        BatchReply::Entries(items) => entries_response(id, items),
    }
}

struct ConnHandle {
    /// Kept to shut the connection down from outside its thread.
    conn: Box<dyn Conn>,
    thread: JoinHandle<()>,
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
    /// connection gets one thread over `kv`'s lanes.
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
            let _ = h.thread.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Spawn the thread serving one accepted connection.
fn spawn_conn<E: Engine>(
    conn: Box<dyn Conn>,
    kv: Arc<KvServer<E>>,
    stats: Arc<NetStats>,
) -> io::Result<ConnHandle> {
    let io = conn.try_clone_conn()?;
    let thread = std::thread::spawn(move || conn_loop(io, &kv, &stats));
    Ok(ConnHandle { conn, thread })
}

/// Where a lane reply of the current read belongs.
#[derive(Clone, Copy)]
enum Tag {
    /// It is the whole answer to wire request `id`.
    One(u64),
    /// It is one lane's part of `fans[fan]`.
    Part(usize),
}

/// Everything one read delivered, grouped per lane, and the responses
/// to it. Buffers are reused across reads.
struct Round {
    /// Per lane: the requests of this read, and where each reply goes.
    groups: Vec<(Vec<BatchRequest>, Vec<Tag>)>,
    /// The `PutMany` and `Scan` requests of this read.
    fans: Vec<Fan>,
    /// Single-lane requests of this read queued on a busy lane, by
    /// wire id.
    queued: Vec<(u64, Pending)>,
    /// The encoded responses, and how many.
    wire: Vec<u8>,
    frames: u64,
}

impl Round {
    fn new(lanes: usize) -> Round {
        Round {
            groups: (0..lanes).map(|_| (Vec::new(), Vec::new())).collect(),
            fans: Vec::new(),
            queued: Vec::new(),
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
                // the ack is the conjunction of the touched lanes' acks
                // (of none, for an empty batch: trivially done)
                let tag = Tag::Part(self.fans.len());
                for (lane, group) in client.split_by_lane(items, |item| item) {
                    self.route(lane, BatchRequest::PutMany(group), tag);
                }
                self.fans.push(Fan::new(id, None));
            }
            Request::Scan { id, lo, hi, limit } => {
                if lo > hi || limit == 0 {
                    return self.answer(&Response::Entries {
                        id,
                        items: Vec::new(),
                    });
                }
                // keys are hash-routed: every lane may hold part of the
                // range, so fan the scan out and merge the replies
                let tag = Tag::Part(self.fans.len());
                for lane in 0..client.num_lanes() {
                    self.route(lane, BatchRequest::Scan(lo, hi, limit), tag);
                }
                self.fans.push(Fan::new(id, Some(limit as usize)));
            }
        }
    }

    /// File one lane reply (or the slot it will arrive in, or the
    /// lane's refusal) where its tag says.
    fn settle(&mut self, tag: Tag, answer: Answer) {
        match (tag, answer) {
            (Tag::Part(f), answer) => self.fans[f].parts.push(answer),
            (Tag::One(id), Answer::Served(reply)) => self.answer(&response_of(id, reply)),
            (Tag::One(id), Answer::Queued(pending)) => self.queued.push((id, pending)),
            (Tag::One(id), Answer::Refused) => self.answer(&Response::Rejected { id }),
        }
    }

    /// Submit every lane's group — serve the lanes found idle on this
    /// thread, queue on the busy ones — and only then wait for what was
    /// queued. Afterwards `wire` holds the response to every request of
    /// the read.
    fn submit(&mut self, client: &KvClient) {
        for lane in 0..self.groups.len() {
            if self.groups[lane].0.is_empty() {
                continue;
            }
            let (mut reqs, mut tags) = std::mem::take(&mut self.groups[lane]);
            match client.try_serve(lane, &reqs) {
                Some(replies) => {
                    for (&tag, reply) in tags.iter().zip(replies) {
                        self.settle(tag, Answer::Served(reply));
                    }
                    reqs.clear();
                }
                None => {
                    let answers = client.enqueue(lane, reqs.drain(..));
                    for (&tag, answer) in tags.iter().zip(answers) {
                        self.settle(tag, answer);
                    }
                }
            }
            tags.clear();
            self.groups[lane] = (reqs, tags);
        }
        for (id, pending) in std::mem::take(&mut self.queued) {
            self.answer(&response_of(id, pending.wait()));
        }
        for fan in std::mem::take(&mut self.fans) {
            self.answer(&fan.response());
        }
    }
}

/// Serve one connection: decode the frames of one read, submit them,
/// wait for what was queued, write the responses; repeat. Returns on
/// EOF, read or write error, or a fatal protocol error (which also
/// tears the connection down so the peer notices).
fn conn_loop<E: Engine>(mut conn: Box<dyn Conn>, kv: &KvServer<E>, stats: &NetStats) {
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
        round.submit(client);
        // counted before the write: a client that has read a reply must
        // never observe `frames_in > frames_out`
        stats.frames_out.fetch_add(round.frames, Ordering::Relaxed);
        // a peer that has stopped reading stalls its own connection
        // here instead of growing the server's buffers: this write
        // blocks on the transport's bound, and nothing else reads the
        // peer's requests (a read that completed no frame writes nothing)
        let sent = conn.write_all_bytes(&round.wire);
        round.wire.clear();
        round.frames = 0;
        if fatal {
            conn.shutdown_conn();
        }
        if fatal || sent.is_err() {
            return;
        }
    }
}

// ---- blocking client -------------------------------------------------

/// A simple blocking client: one request in flight at a time, matched
/// by id. The harness's loadgen (`nvcache_bench::netload`) pipelines
/// instead; this is for tests, tooling, and interactive use.
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

    /// Idle lanes: one connection's whole session is served by its own
    /// thread — no request ever goes through a queue.
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
        assert_eq!(qs.queued_batches(), 0, "nothing was queued");
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
        // them, and the connection's thread is blocked writing one more
        // buffer — a read's worth (2 622 requests of 25 bytes)
        let reply = (crate::proto::HEADER_LEN + 8 + 1 + 4 + 200) as u64;
        let round = 64 * 1024 / 25 + 1;
        assert!(
            fout <= PIPE_CAPACITY as u64 / reply + round,
            "replies: {fout}"
        );
        assert!(
            fin - fout <= round,
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

    /// The busy-lane path, forced: while another thread holds lane 0, a
    /// connection pipelines a burst over both lanes. Its thread queues
    /// on the held lane, serves the other itself, waits, and answers
    /// every request once — and what it acked is durable.
    #[test]
    fn a_burst_over_a_busy_and_an_idle_lane_is_answered_once_each() {
        let kv = kv(2);
        let t = InProcTransport::new();
        let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
        let client = kv.client();
        let value = |k: u64| (k * 31).to_le_bytes().to_vec();
        // ids 0..8 put key `id`, 8..16 get it back (each behind its put
        // in its lane's group), 16 is a multi-put over both lanes and
        // 17 a scan of what it wrote
        let many: Vec<(u64, Vec<u8>)> = (1000..1016).map(|k| (k, value(k))).collect();
        let mut burst: Vec<Request> = Vec::new();
        burst.extend((0..8).map(|id| Request::Put {
            id,
            key: id,
            value: value(id),
        }));
        burst.extend((0..8).map(|key| Request::Get { id: 8 + key, key }));
        let items = many.clone();
        burst.push(Request::PutMany { id: 16, items });
        let (id, lo, hi, limit) = (17, 1000, 1015, 100);
        burst.push(Request::Scan { id, lo, hi, limit });
        let mut wire = Vec::new();
        for req in &burst {
            crate::proto::encode_request_into(&mut wire, req);
        }
        // what lane 0 gets: its keys' puts and gets, a slice of the
        // multi-put, its share of the scan
        let held_keys = (0..8).filter(|&k| client.lane_of(k) == 0).count() as u64;
        assert!(
            0 < held_keys && held_keys < 8,
            "single-lane requests on both"
        );
        let spanned: std::collections::HashSet<usize> =
            many.iter().map(|&(k, _)| client.lane_of(k)).collect();
        assert_eq!(spanned.len(), 2, "the multi-put spans both lanes");
        let queued_on_held = 2 * held_keys + 2;

        let mut conn = t.connect("inproc").unwrap();
        let gate = std::sync::Barrier::new(2);
        let mut got: Vec<Response> = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                kv.with_shard(0, |_| {
                    gate.wait(); // the lane is held ...
                    gate.wait(); // ... until the burst is queued on it
                })
            });
            gate.wait();
            conn.write_all_bytes(&wire).unwrap();
            let t0 = std::time::Instant::now();
            while {
                let qs = kv.queue_stats();
                qs.enqueued - qs.drained < queued_on_held
            } {
                assert!(t0.elapsed().as_secs() < 20, "the burst never queued");
                std::thread::yield_now();
            }
            gate.wait();
            let mut dec = FrameDecoder::new();
            let mut buf = vec![0u8; 4096];
            while got.len() < burst.len() {
                let n = conn.read_some(&mut buf).unwrap();
                assert!(n > 0, "server closed early");
                dec.extend_from(&buf[..n]);
                while let Some(resp) = dec.next_response().unwrap() {
                    got.push(resp);
                }
            }
        });
        got.sort_unstable_by_key(|r| r.id());
        let mut want: Vec<Response> = Vec::new();
        want.extend((0..8).map(|id| Response::Done { id, ok: true }));
        want.extend((0..8).map(|k| Response::Value {
            id: 8 + k,
            value: Some(value(k)),
        }));
        want.push(Response::Done { id: 16, ok: true });
        let items = many.clone();
        want.push(Response::Entries { id: 17, items });
        assert_eq!(got, want, "every id once; the scan sorted and complete");
        let qs = kv.queue_stats();
        assert!(qs.queued_batches() > 0, "the busy-lane path ran");
        assert!(qs.inline_batches > 0, "and so did the idle-lane one");
        assert_eq!(qs.enqueued, qs.drained, "nothing left behind");
        // ack => durable, on both paths
        kv.crash_and_recover_all(&nvcache_pmem::CrashMode::StrictDurableOnly);
        for (k, v) in (0..8).map(|k| (k, value(k))).chain(many) {
            assert_eq!(client.get(k), Some(v), "acked key {k} lost");
        }
        srv.shutdown();
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
        assert!(c.put_many(&[]).unwrap(), "an empty batch is trivially done");
        assert!(c.put_many(&[(4, b"four".to_vec())]).unwrap(), "one lane");
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
