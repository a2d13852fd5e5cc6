//! The wire protocol: length-prefixed, checksummed binary frames.
//!
//! Every frame is `[body_len: u32 LE][checksum: u32 LE][body]`, where
//! the checksum is FNV-1a over the body bytes. The body starts with the
//! client-chosen request id (echoed verbatim in the response — that is
//! how pipelined responses are matched back up when they return out of
//! order) followed by a one-byte opcode / status and the payload:
//!
//! ```text
//! request  body: [id u64 LE][opcode u8][payload]
//!   1 Get      [key u64]
//!   2 Put      [key u64][vlen u32][value]
//!   3 PutMany  [count u32] ([key u64][vlen u32][value])*
//!   4 Delete   [key u64]
//!   5 Ping     (empty)
//!   6 Scan     [lo u64][hi u64][limit u32]
//! response body: [id u64 LE][status u8][payload]
//!   0 Value·none  (empty)          — Get miss
//!   1 Value·some  [vlen u32][value]
//!   2 Done·true   (empty)          — write acked (committed!)
//!   3 Done·false  (empty)          — write refused by the shard
//!   4 Pong        (empty)
//!   5 Rejected    (empty)          — server refused the submission
//!   6 Entries     [count u32] ([key u64][vlen u32][value])*
//! ```
//!
//! `Entries` frames must fit [`MAX_BODY`] like any other frame; the
//! server truncates a scan result to the longest prefix that encodes
//! under the cap (see [`fit_entries`]) rather than emit an unframeable
//! response.
//!
//! Error discipline: a frame whose *length prefix* exceeds
//! [`MAX_BODY`] is **fatal** — the stream cannot be trusted to resync,
//! so the connection drops. A frame whose checksum or body is corrupt
//! is **recoverable**: the decoder skips exactly that frame (the length
//! prefix still delimits it) and continues with the next one, so one
//! damaged frame never desyncs the stream.

/// Hard bound on a frame body; anything larger is a protocol violation
/// (values are capped far below this by the store).
pub const MAX_BODY: usize = 1 << 20;

/// Bytes of frame header (`body_len` + `checksum`).
pub const HEADER_LEN: usize = 8;

/// FNV-1a 32-bit over `data` — cheap, no tables, good enough to catch
/// torn or bit-flipped frames (this is corruption *detection* on a
/// reliable transport, not an integrity MAC).
pub fn fnv1a32(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A client request as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up a key.
    Get { id: u64, key: u64 },
    /// Insert or update one pair.
    Put { id: u64, key: u64, value: Vec<u8> },
    /// Atomic-per-shard multi-put.
    PutMany { id: u64, items: Vec<(u64, Vec<u8>)> },
    /// Remove a key.
    Delete { id: u64, key: u64 },
    /// Liveness probe; answered without touching the store.
    Ping { id: u64 },
    /// Range scan `lo..=hi`, at most `limit` entries.
    Scan {
        id: u64,
        lo: u64,
        hi: u64,
        limit: u32,
    },
}

impl Request {
    /// The request id echoed in this request's response.
    pub fn id(&self) -> u64 {
        match self {
            Request::Get { id, .. }
            | Request::Put { id, .. }
            | Request::PutMany { id, .. }
            | Request::Delete { id, .. }
            | Request::Ping { id }
            | Request::Scan { id, .. } => *id,
        }
    }
}

/// A server response as carried on the wire. A `Done(true)` ack is only
/// ever sent after the FASE containing the write committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Get result (`None` = absent).
    Value { id: u64, value: Option<Vec<u8>> },
    /// Write outcome (`true` = committed durable).
    Done { id: u64, ok: bool },
    /// Ping reply.
    Pong { id: u64 },
    /// The server refused the submission (shutting down or overloaded);
    /// the operation was **not** performed.
    Rejected { id: u64 },
    /// Scan result: `(key, value)` pairs sorted by key.
    Entries { id: u64, items: Vec<(u64, Vec<u8>)> },
}

impl Response {
    /// The id of the request this answers.
    pub fn id(&self) -> u64 {
        match self {
            Response::Value { id, .. }
            | Response::Done { id, .. }
            | Response::Pong { id }
            | Response::Rejected { id }
            | Response::Entries { id, .. } => *id,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Length prefix exceeds [`MAX_BODY`]: the stream is garbage and
    /// cannot resync. Fatal — drop the connection.
    Oversized { body_len: usize },
    /// Checksum mismatch on a well-delimited frame. The decoder already
    /// skipped the frame; the stream stays in sync.
    Checksum { expected: u32, got: u32 },
    /// Body failed structural validation (unknown opcode, truncated
    /// payload, trailing bytes). Frame skipped; stream stays in sync.
    Malformed { reason: &'static str },
}

impl ProtoError {
    /// Must the connection be dropped (`true`), or did the decoder
    /// already skip the damaged frame and resync (`false`)?
    pub fn is_fatal(&self) -> bool {
        matches!(self, ProtoError::Oversized { .. })
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized { body_len } => {
                write!(f, "frame body {body_len} B exceeds {MAX_BODY} B")
            }
            ProtoError::Checksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#010x}, body {got:#010x}"
                )
            }
            ProtoError::Malformed { reason } => write!(f, "malformed frame body: {reason}"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---- encoding --------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one frame to `out`: reserve the header, let `body` write the
/// body in place behind it, then patch length and checksum in.
fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    body(out);
    let body_len = out.len() - start - HEADER_LEN;
    debug_assert!(body_len <= MAX_BODY, "encoder produced oversized body");
    let sum = fnv1a32(&out[start + HEADER_LEN..]);
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[start + 4..start + HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

fn put_entries(b: &mut Vec<u8>, items: &[(u64, Vec<u8>)]) {
    put_u32(b, items.len() as u32);
    for (k, v) in items {
        put_u64(b, *k);
        put_u32(b, v.len() as u32);
        b.extend_from_slice(v);
    }
}

/// Encode one request into a complete frame (header + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(&mut out, req);
    out
}

/// Append one request frame to `out` (a connection's write buffer).
pub(crate) fn encode_request_into(out: &mut Vec<u8>, req: &Request) {
    frame_into(out, |b| {
        put_u64(b, req.id());
        match req {
            Request::Get { key, .. } => {
                b.push(1);
                put_u64(b, *key);
            }
            Request::Put { key, value, .. } => {
                b.push(2);
                put_u64(b, *key);
                put_u32(b, value.len() as u32);
                b.extend_from_slice(value);
            }
            Request::PutMany { items, .. } => {
                b.push(3);
                put_entries(b, items);
            }
            Request::Delete { key, .. } => {
                b.push(4);
                put_u64(b, *key);
            }
            Request::Ping { .. } => b.push(5),
            Request::Scan { lo, hi, limit, .. } => {
                b.push(6);
                put_u64(b, *lo);
                put_u64(b, *hi);
                put_u32(b, *limit);
            }
        }
    });
}

/// Bytes one `(key, value)` entry occupies inside an `Entries` payload.
fn entry_wire_len(value_len: usize) -> usize {
    8 + 4 + value_len
}

/// Longest prefix of `items` whose `Entries` body (id, status, count,
/// entries) still fits [`MAX_BODY`]. The serving layer applies this
/// before encoding so a huge scan degrades into a shorter, well-formed
/// result instead of an oversized (fatal) frame.
pub fn fit_entries(items: &[(u64, Vec<u8>)]) -> usize {
    let mut used = 8 + 1 + 4; // id + status + count
    for (i, (_, v)) in items.iter().enumerate() {
        used += entry_wire_len(v.len());
        if used > MAX_BODY {
            return i;
        }
    }
    items.len()
}

/// Encode one response into a complete frame (header + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(&mut out, resp);
    out
}

/// Append one response frame to `out`: a sweep's worth of replies goes
/// into one buffer and one transport write, with no per-frame `Vec`.
pub fn encode_response_into(out: &mut Vec<u8>, resp: &Response) {
    frame_into(out, |b| {
        put_u64(b, resp.id());
        match resp {
            Response::Value { value: None, .. } => b.push(0),
            Response::Value { value: Some(v), .. } => {
                b.push(1);
                put_u32(b, v.len() as u32);
                b.extend_from_slice(v);
            }
            Response::Done { ok, .. } => b.push(if *ok { 2 } else { 3 }),
            Response::Pong { .. } => b.push(4),
            Response::Rejected { .. } => b.push(5),
            Response::Entries { items, .. } => {
                b.push(6);
                put_entries(b, items);
            }
        }
    });
}

// ---- decoding --------------------------------------------------------

/// Bounds-checked little-endian reader over one frame body.
struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Body { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.pos).ok_or(ProtoError::Malformed {
            reason: "truncated body",
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(ProtoError::Malformed {
                reason: "truncated body",
            })?;
        self.pos += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(ProtoError::Malformed {
                reason: "truncated body",
            })?;
        self.pos += 8;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, ProtoError> {
        let s = self
            .buf
            .get(
                self.pos..self.pos.checked_add(n).ok_or(ProtoError::Malformed {
                    reason: "length overflow",
                })?,
            )
            .ok_or(ProtoError::Malformed {
                reason: "truncated payload",
            })?;
        self.pos += n;
        Ok(s.to_vec())
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed {
                reason: "trailing bytes after payload",
            })
        }
    }
}

fn parse_request(body: &[u8]) -> Result<Request, ProtoError> {
    let mut b = Body::new(body);
    let id = b.u64()?;
    let op = b.u8()?;
    let req = match op {
        1 => Request::Get { id, key: b.u64()? },
        2 => {
            let key = b.u64()?;
            let len = b.u32()? as usize;
            Request::Put {
                id,
                key,
                value: b.bytes(len)?,
            }
        }
        3 => {
            let count = b.u32()? as usize;
            // a count claiming more entries than the body could hold is
            // structurally corrupt; bail before reserving anything
            if count > body.len() {
                return Err(ProtoError::Malformed {
                    reason: "put_many count exceeds body",
                });
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let k = b.u64()?;
                let len = b.u32()? as usize;
                items.push((k, b.bytes(len)?));
            }
            Request::PutMany { id, items }
        }
        4 => Request::Delete { id, key: b.u64()? },
        5 => Request::Ping { id },
        6 => Request::Scan {
            id,
            lo: b.u64()?,
            hi: b.u64()?,
            limit: b.u32()?,
        },
        _ => {
            return Err(ProtoError::Malformed {
                reason: "unknown opcode",
            })
        }
    };
    b.finish()?;
    Ok(req)
}

fn parse_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut b = Body::new(body);
    let id = b.u64()?;
    let status = b.u8()?;
    let resp = match status {
        0 => Response::Value { id, value: None },
        1 => {
            let len = b.u32()? as usize;
            Response::Value {
                id,
                value: Some(b.bytes(len)?),
            }
        }
        2 => Response::Done { id, ok: true },
        3 => Response::Done { id, ok: false },
        4 => Response::Pong { id },
        5 => Response::Rejected { id },
        6 => {
            let count = b.u32()? as usize;
            // same structural guard as put_many: a count claiming more
            // entries than the body could hold is corrupt
            if count > body.len() {
                return Err(ProtoError::Malformed {
                    reason: "entries count exceeds body",
                });
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let k = b.u64()?;
                let len = b.u32()? as usize;
                items.push((k, b.bytes(len)?));
            }
            Response::Entries { id, items }
        }
        _ => {
            return Err(ProtoError::Malformed {
                reason: "unknown status",
            })
        }
    };
    b.finish()?;
    Ok(resp)
}

/// Incremental frame decoder over a byte stream. Feed reads in with
/// [`extend_from`](FrameDecoder::extend_from), pull frames out with
/// [`next_request`](FrameDecoder::next_request) /
/// [`next_response`](FrameDecoder::next_response) until they return
/// `Ok(None)` (need more bytes). Recoverable errors consume exactly the
/// damaged frame; a fatal error leaves the decoder poisoned.
///
/// The stream sits in one contiguous buffer behind a read cursor, so
/// frame bodies are checksummed and parsed in place; consumed bytes are
/// dropped when the next read is appended.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed.
    head: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append freshly read bytes to the stream buffer.
    pub fn extend_from(&mut self, bytes: &[u8]) {
        if self.head > 0 {
            // a caller that decodes what it feeds leaves at most a
            // partial frame behind: a short move
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Delimit and verify the next frame, consuming it: `Ok(Some(body))`
    /// borrows the body in place, `Ok(None)` needs more bytes, `Err` is
    /// a frame already skipped (unless fatal).
    fn step(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        let rest = &self.buf[self.head..];
        if rest.len() < HEADER_LEN {
            return Ok(None);
        }
        let le_u32 = |at: usize| u32::from_le_bytes(rest[at..at + 4].try_into().unwrap());
        let body_len = le_u32(0) as usize;
        if body_len > MAX_BODY {
            // do not consume: the stream is untrustworthy either way
            return Err(ProtoError::Oversized { body_len });
        }
        if rest.len() < HEADER_LEN + body_len {
            return Ok(None);
        }
        let expected = le_u32(4);
        let body = &rest[HEADER_LEN..HEADER_LEN + body_len];
        self.head += HEADER_LEN + body_len;
        let got = fnv1a32(body);
        if got != expected {
            return Err(ProtoError::Checksum { expected, got });
        }
        Ok(Some(body))
    }

    /// Decode the next request frame. `Ok(None)` = need more bytes.
    pub fn next_request(&mut self) -> Result<Option<Request>, ProtoError> {
        self.step()?.map(parse_request).transpose()
    }

    /// Decode the next response frame. `Ok(None)` = need more bytes.
    pub fn next_response(&mut self) -> Result<Option<Response>, ProtoError> {
        self.step()?.map(parse_response).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: &Request) -> Request {
        let mut d = FrameDecoder::new();
        d.extend_from(&encode_request(req));
        let got = d.next_request().unwrap().unwrap();
        assert_eq!(d.buffered(), 0, "frame fully consumed");
        got
    }

    fn roundtrip_resp(resp: &Response) -> Response {
        let mut d = FrameDecoder::new();
        d.extend_from(&encode_response(resp));
        let got = d.next_response().unwrap().unwrap();
        assert_eq!(d.buffered(), 0);
        got
    }

    #[test]
    fn request_roundtrips_every_opcode() {
        for req in [
            Request::Get { id: 1, key: 42 },
            Request::Put {
                id: 2,
                key: 7,
                value: b"hello".to_vec(),
            },
            Request::PutMany {
                id: 3,
                items: vec![(1, b"a".to_vec()), (2, Vec::new()), (3, vec![0xff; 300])],
            },
            Request::Delete { id: 4, key: 9 },
            Request::Ping { id: u64::MAX },
            Request::Scan {
                id: 5,
                lo: 10,
                hi: 99,
                limit: 25,
            },
        ] {
            assert_eq!(roundtrip_req(&req), req);
        }
    }

    #[test]
    fn response_roundtrips_every_status() {
        for resp in [
            Response::Value { id: 1, value: None },
            Response::Value {
                id: 2,
                value: Some(b"v".to_vec()),
            },
            Response::Value {
                id: 3,
                value: Some(Vec::new()),
            },
            Response::Done { id: 4, ok: true },
            Response::Done { id: 5, ok: false },
            Response::Pong { id: 6 },
            Response::Rejected { id: 7 },
            Response::Entries {
                id: 8,
                items: Vec::new(),
            },
            Response::Entries {
                id: 9,
                items: vec![(1, b"one".to_vec()), (2, Vec::new()), (3, vec![0xee; 200])],
            },
        ] {
            assert_eq!(roundtrip_resp(&resp), resp);
        }
    }

    #[test]
    fn fit_entries_bounds_the_frame() {
        // small results fit whole
        let small = vec![(1u64, vec![7u8; 100]); 10];
        assert_eq!(fit_entries(&small), 10);
        // a result that would blow MAX_BODY is cut to a framable prefix
        let big: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, vec![k as u8; 1000])).collect();
        let n = fit_entries(&big);
        assert!(n > 0 && n < big.len(), "prefix cut, got {n}");
        let resp = Response::Entries {
            id: 1,
            items: big[..n].to_vec(),
        };
        let wire = encode_response(&resp);
        assert!(wire.len() <= HEADER_LEN + MAX_BODY, "frame under the cap");
        // one more entry would not have fit
        assert!(fit_entries(&big[..n + 1]) == n);
        let mut d = FrameDecoder::new();
        d.extend_from(&wire);
        assert_eq!(d.next_response().unwrap(), Some(resp));
    }

    #[test]
    fn pipelined_frames_decode_in_order_across_partial_reads() {
        let reqs: Vec<Request> = (0..20)
            .map(|i| Request::Put {
                id: i,
                key: i * 3,
                value: vec![i as u8; (i % 7) as usize * 11],
            })
            .collect();
        let mut wire = Vec::new();
        for r in &reqs {
            wire.extend_from_slice(&encode_request(r));
        }
        // feed the stream in awkward 3-byte slices
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(3) {
            d.extend_from(chunk);
            while let Some(r) = d.next_request().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got, reqs);
    }

    #[test]
    fn truncated_frame_waits_for_more_bytes() {
        let wire = encode_request(&Request::Get { id: 9, key: 9 });
        let mut d = FrameDecoder::new();
        d.extend_from(&wire[..wire.len() - 1]);
        assert_eq!(d.next_request().unwrap(), None, "incomplete = need more");
        d.extend_from(&wire[wire.len() - 1..]);
        assert_eq!(
            d.next_request().unwrap(),
            Some(Request::Get { id: 9, key: 9 })
        );
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_BODY as u32) + 1).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut d = FrameDecoder::new();
        d.extend_from(&wire);
        let err = d.next_request().unwrap_err();
        assert!(err.is_fatal(), "{err}");
    }

    #[test]
    fn corrupt_checksum_skips_frame_without_desync() {
        let good1 = encode_request(&Request::Ping { id: 1 });
        let mut bad = encode_request(&Request::Put {
            id: 2,
            key: 5,
            value: b"xyz".to_vec(),
        });
        let last = bad.len() - 1;
        bad[last] ^= 0x40; // flip a payload bit; header checksum now wrong
        let good2 = encode_request(&Request::Ping { id: 3 });

        let mut d = FrameDecoder::new();
        d.extend_from(&good1);
        d.extend_from(&bad);
        d.extend_from(&good2);
        assert_eq!(d.next_request().unwrap(), Some(Request::Ping { id: 1 }));
        let err = d.next_request().unwrap_err();
        assert!(matches!(err, ProtoError::Checksum { .. }), "{err}");
        assert!(!err.is_fatal());
        // the damaged frame was consumed whole: the stream resyncs
        assert_eq!(d.next_request().unwrap(), Some(Request::Ping { id: 3 }));
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn malformed_bodies_are_recoverable_and_resync() {
        // a structurally valid frame wrapping garbage: checksum passes,
        // parse fails, next frame still decodes
        let mut wire = Vec::new();
        let junk = [0u8; 9]; // id=0, opcode=0 (unknown)
        wire.extend_from_slice(&(junk.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a32(&junk).to_le_bytes());
        wire.extend_from_slice(&junk);
        wire.extend_from_slice(&encode_request(&Request::Ping { id: 8 }));
        let mut d = FrameDecoder::new();
        d.extend_from(&wire);
        let err = d.next_request().unwrap_err();
        assert!(matches!(err, ProtoError::Malformed { .. }), "{err}");
        assert!(!err.is_fatal());
        assert_eq!(d.next_request().unwrap(), Some(Request::Ping { id: 8 }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Get body with one extra byte: well-checksummed but too long
        let mut body = Vec::new();
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(1);
        body.extend_from_slice(&2u64.to_le_bytes());
        body.push(0xAA);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut d = FrameDecoder::new();
        d.extend_from(&wire);
        assert!(matches!(
            d.next_request().unwrap_err(),
            ProtoError::Malformed {
                reason: "trailing bytes after payload"
            }
        ));
    }
}
