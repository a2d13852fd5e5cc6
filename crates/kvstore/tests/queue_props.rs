//! Property suite for a lane's busy path — the three invariants
//! cross-client group commit leans on, checked where the behaviour
//! lives: on a [`KvServer`] lane that has no thread of its own, driven
//! over the wire so that one submitter hands the lane whole groups.
//!
//! 1. **Per-client FIFO**: a single client's requests are served in
//!    exactly the order it sent them, whatever the interleaving with
//!    other clients, whichever thread serves and however the batch cap
//!    slices the stream.
//! 2. **Every accepted request is served exactly once**: under
//!    [`Backpressure::Block`] everything is accepted — including one
//!    submitter's group larger than the queue with no other thread
//!    alive to make room; under [`Backpressure::Reject`] accepted +
//!    refused = submitted, and refused requests ride back as
//!    `Rejected`.
//! 3. **Occupancy is bounded**: no batch exceeds the queue capacity or
//!    the batch cap, on either lane path.

use std::sync::{Arc, Barrier, Mutex};

use nvcache_core::PolicyKind;
use nvcache_fase::FaseRuntime;
use nvcache_kvstore::proto::{encode_request, FrameDecoder, Request, Response};
use nvcache_kvstore::{
    Backpressure, BatchReply, BatchRequest, Engine, InProcTransport, KvServer, NetServer,
    ServerConfig, SubmissionQueue, Transport,
};
use nvcache_pmem::CrashMode;
use proptest::prelude::*;

/// Batches in the order the lane served them, each the keys of its puts.
type Batches = Arc<Mutex<Vec<Vec<u64>>>>;

/// An engine that only writes down what it was asked to serve (its
/// runtime counts nothing).
struct Recorder(Batches, FaseRuntime);

impl Engine for Recorder {
    fn serve_batch(&mut self, reqs: &[BatchRequest]) -> Vec<BatchReply> {
        let keys = reqs.iter().map(|r| match r {
            BatchRequest::Put(k, _) => *k,
            other => panic!("the suite sends puts only, got {other:?}"),
        });
        self.0.lock().unwrap().push(keys.collect());
        vec![BatchReply::Done(true); reqs.len()]
    }
    fn heal_after_panic(&mut self) -> bool {
        false
    }
    fn crash_and_recover(&mut self, _: &CrashMode) {}
    fn len(&self) -> usize {
        0
    }
    fn dump(&mut self) -> Vec<(u64, Vec<u8>)> {
        Vec::new()
    }
    fn runtime(&self) -> &FaseRuntime {
        &self.1
    }
    fn runtime_mut(&mut self) -> &mut FaseRuntime {
        &mut self.1
    }
}

/// Request `seq` of `client`, as a key.
fn key(client: usize, seq: u64) -> u64 {
    (client as u64) << 32 | seq
}

/// One connection's session: requests `0..total` as puts, `burst` per
/// write (one write is one read on the server, so one group on the
/// lane), each burst answered in full before the next goes out. Returns
/// the sequence numbers the lane accepted, ascending; the rest came
/// back `Rejected`.
fn session(t: &InProcTransport, client: usize, total: u64, burst: u64) -> Vec<u64> {
    let mut conn = t.connect("inproc").unwrap();
    let (mut dec, mut buf) = (FrameDecoder::new(), vec![0u8; 4096]);
    let mut accepted = Vec::new();
    let mut seq = 0;
    while seq < total {
        let n = burst.min(total - seq);
        let mut wire = Vec::new();
        for id in seq..seq + n {
            let (key, value) = (key(client, id), vec![0]);
            wire.extend_from_slice(&encode_request(&Request::Put { id, key, value }));
        }
        conn.write_all_bytes(&wire).unwrap();
        let mut answered = 0;
        while answered < n {
            let got = conn.read_some(&mut buf).unwrap();
            assert!(got > 0, "server closed early");
            dec.extend_from(&buf[..got]);
            while let Some(resp) = dec.next_response().unwrap() {
                match resp {
                    Response::Done { id, ok: true } => accepted.push(id),
                    Response::Rejected { .. } => {}
                    other => panic!("unexpected {other:?}"),
                }
                answered += 1;
            }
        }
        seq += n;
    }
    accepted.sort_unstable();
    accepted
}

struct Audit {
    /// Per client (the lone last one included): what was accepted.
    accepted: Vec<Vec<u64>>,
    /// How many requests were sent in all.
    submitted: u64,
    batches: Vec<Vec<u64>>,
    rejected: u64,
}

/// `clients` concurrent sessions against one lane whose engine is held
/// until their first bursts have queued (so requests really queue),
/// then — every other thread gone — one more session whose single burst
/// is larger than the queue.
fn drive(clients: usize, per_client: u64, burst: u64, scfg: &ServerConfig) -> Audit {
    let batches = Batches::default();
    let kv = Arc::new(KvServer::with_engines(
        [Recorder(
            Arc::clone(&batches),
            FaseRuntime::new(64, 0, &PolicyKind::Lazy),
        )],
        scfg,
    ));
    let t = InProcTransport::new();
    let srv = NetServer::start(&t, "inproc", Arc::clone(&kv)).unwrap();
    let first_bursts = clients as u64 * burst.min(per_client);
    let gate = Barrier::new(2);
    let mut accepted: Vec<Vec<u64>> = std::thread::scope(|s| {
        s.spawn(|| {
            kv.with_shard(0, |_| {
                gate.wait(); // the lane is held ...
                gate.wait(); // ... until the first bursts are queued
            })
        });
        gate.wait();
        let t = &t;
        let sessions: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || session(t, c, per_client, burst)))
            .collect();
        while {
            let qs = kv.queue_stats();
            qs.enqueued - qs.drained < first_bursts.min(scfg.queue_capacity as u64)
        } {
            std::thread::yield_now();
        }
        gate.wait();
        sessions.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let lone = scfg.queue_capacity as u64 + 3;
    accepted.push(session(&t, clients, lone, lone));
    srv.shutdown();
    let qs = kv.queue_stats();
    assert_eq!(qs.enqueued, qs.drained, "nothing left behind");
    kv.close();
    let batches = std::mem::take(&mut *batches.lock().unwrap());
    Audit {
        accepted,
        submitted: clients as u64 * per_client + lone,
        batches,
        rejected: qs.rejected,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fifo_no_drops_bounded_occupancy(
        clients in 1usize..5,
        per_client in 1u64..120,
        burst in 1u64..25,
        queue_capacity in 1usize..17,
        max_batch in 1usize..33,
        reject in any::<bool>(),
    ) {
        let backpressure = if reject { Backpressure::Reject } else { Backpressure::Block };
        let scfg = ServerConfig { queue_capacity, backpressure, max_batch };
        let audit = drive(clients, per_client, burst, &scfg);

        // (3) occupancy ≤ min(capacity, batch cap), and never empty
        for b in &audit.batches {
            prop_assert!(!b.is_empty());
            prop_assert!(b.len() <= queue_capacity.min(max_batch));
        }

        // (1) per-client FIFO across the concatenated served stream
        let served: Vec<u64> = audit.batches.iter().flatten().copied().collect();
        for (c, accepted) in audit.accepted.iter().enumerate() {
            let got: Vec<u64> = served.iter().filter(|&&k| k >> 32 == c as u64).copied().collect();
            let want: Vec<u64> = accepted.iter().map(|&seq| key(c, seq)).collect();
            prop_assert_eq!(got, want, "client {} reordered, dropped or served twice", c);
        }

        // (2) accepted ⇔ served exactly once; refused ones rode back
        let total_accepted = audit.accepted.iter().map(Vec::len).sum::<usize>();
        prop_assert_eq!(served.len(), total_accepted);
        prop_assert_eq!(total_accepted as u64 + audit.rejected, audit.submitted);
        if !reject {
            // making room accepts everything — the lone oversized
            // group included
            prop_assert_eq!(audit.rejected, 0);
        }
    }

    /// Sequential (single-threaded) exercise of the same invariants —
    /// including the exact tail behaviour at close: requests queued
    /// before the close still drain, in order.
    #[test]
    fn close_drains_the_exact_accepted_tail(
        pushes in 1u64..40,
        capacity in 1usize..9,
    ) {
        let q = SubmissionQueue::new(capacity, Backpressure::Reject);
        let mut accepted = Vec::new();
        for seq in 0..pushes {
            if q.push((0usize, seq)).is_ok() {
                accepted.push(seq);
            }
        }
        q.close();
        prop_assert!(q.push((0, 999)).is_err(), "closed queue refuses pushes");
        let mut out = Vec::new();
        let mut drained = Vec::new();
        while q.drain_into(&mut out, capacity) {
            prop_assert!(out.len() <= capacity);
            drained.extend(out.drain(..).map(|(_, s)| s));
        }
        prop_assert_eq!(drained, accepted);
        let stats = q.stats();
        prop_assert_eq!(stats.enqueued, stats.drained);
        prop_assert_eq!(stats.enqueued + stats.rejected, pushes);
    }
}
