//! Span recording for the traced run: one span (name, start, end,
//! parent, request id) around every call the driver makes into the
//! program, kept in a preallocated buffer and written out when the
//! workload ends. Spans live in the benchmark's own files only; stamps
//! inside the program are a later change (ROADMAP direction 1).

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans written per trace file; the rest are counted in the header.
/// A traced repeat of a 2 M-op workload records every call, but a
/// 150 MB file per run helps nobody.
const MAX_WRITTEN: usize = 200_000;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    name: u16,
    parent: u32,
    /// Request id: the op's index in the generated stream.
    req: u32,
    start_ns: u64,
    end_ns: u64,
}

/// What the timed loops report calls to. The untraced run passes
/// [`NoSpans`], whose `ON == false` lets the compiler delete the calls.
pub trait Sink {
    /// Is anything recorded?
    const ON: bool;
    /// Record one finished call under the currently open parent.
    fn call(&mut self, name: u16, req: u32, start_ns: u64, end_ns: u64);
}

/// The disabled sink of untraced runs.
pub struct NoSpans;

impl Sink for NoSpans {
    const ON: bool = false;
    #[inline(always)]
    fn call(&mut self, _: u16, _: u32, _: u64, _: u64) {}
}

/// The traced run's span buffer and clock origin.
pub struct SpanBuf {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    /// Calls that arrived after the preallocated buffer filled.
    dropped: u64,
    /// Parent given to spans recorded through [`Sink::call`].
    current: u32,
}

impl SpanBuf {
    /// A buffer with room for `capacity` spans; it never grows.
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            current: NO_PARENT,
        }
    }

    /// A buffer sharing `origin` with another, for a second thread whose
    /// spans are later [`absorb`](SpanBuf::absorb)ed into one file.
    pub fn with_origin(capacity: usize, origin: Instant) -> SpanBuf {
        SpanBuf {
            origin,
            ..SpanBuf::with_capacity(capacity)
        }
    }

    /// Append every span of `other` (same origin), keeping its nesting.
    /// Spans that do not fit the preallocated buffer are counted as
    /// dropped.
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len() as u32;
        let names: Vec<u16> = other.names.iter().map(|n| self.name(n)).collect();
        self.dropped += other.dropped;
        for s in other.spans {
            self.push(Span {
                name: names[s.name as usize],
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..s
            });
        }
    }

    /// The instant every span time is measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the buffer was created (the trace's time base).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Intern a span name.
    pub fn name(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    /// Open a span now under the current parent and make it the parent
    /// of what follows; returns its id for [`SpanBuf::close`].
    pub fn open(&mut self, name: &str) -> u32 {
        let name = self.name(name);
        let now = self.now_ns();
        let id = self.spans.len() as u32;
        self.push(Span {
            name,
            parent: self.current,
            req: 0,
            start_ns: now,
            end_ns: now,
        });
        self.current = id;
        id
    }

    /// Close a span opened with [`SpanBuf::open`]: stamp its end and
    /// hand the parent role back to its own parent.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
            self.current = s.parent;
        }
    }

    fn push(&mut self, s: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    /// Write the header line and up to [`MAX_WRITTEN`] spans as JSON
    /// lines.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(MAX_WRITTEN);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"spans_recorded\": {}, \"spans_written\": {written}, \
             \"spans_dropped\": {}}}",
            self.spans.len(),
            self.dropped
        )?;
        for (id, s) in self.spans.iter().take(written).enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

impl Sink for SpanBuf {
    const ON: bool = true;
    #[inline]
    fn call(&mut self, name: u16, req: u32, start_ns: u64, end_ns: u64) {
        self.push(Span {
            name,
            parent: self.current,
            req,
            start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_the_buffer_never_grows() {
        let mut b = SpanBuf::with_capacity(3);
        let get = b.name("get");
        assert_eq!(b.name("get"), get);
        let root = b.open("repeat");
        b.call(get, 7, 10, 20);
        b.call(get, 8, 20, 30);
        b.call(get, 9, 30, 40); // over capacity: counted, not stored
        b.close(root);
        assert_eq!(b.spans.len(), 3);
        assert_eq!(b.dropped, 1);
        assert_eq!(b.spans[1].parent, root);
        assert_eq!(b.spans[1].req, 7);
        assert_eq!(b.current, NO_PARENT);
        assert!(b.spans[0].end_ns >= b.spans[0].start_ns);
    }

    #[test]
    fn absorb_keeps_nesting() {
        let mut a = SpanBuf::with_capacity(8);
        let (conn, get) = (a.open("conn"), a.name("get"));
        a.call(get, 0, 1, 2);
        a.close(conn);
        let mut b = SpanBuf::with_origin(8, a.origin());
        let (conn, put) = (b.open("conn"), b.name("put"));
        b.call(put, 5, 3, 4);
        b.close(conn);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[2].parent, NO_PARENT);
        assert_eq!(a.spans[3].parent, 2);
        assert_eq!(a.names[a.spans[3].name as usize], "put");
    }

    #[test]
    fn jsonl_lines_parse() {
        let mut b = SpanBuf::with_capacity(8);
        let (root, put) = (b.open("repeat"), b.name("put_many"));
        b.call(put, 1, 5, 9);
        b.close(root);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-span-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        b.write_jsonl(&path, "w").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            crate::json::Json::parse(l).unwrap();
        }
        let span = crate::json::Json::parse(lines[2]).unwrap();
        assert_eq!(span.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(span.get("name").unwrap().as_str(), Some("put_many"));
    }
}
