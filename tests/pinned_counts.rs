//! The persistence counts of one fixed program, as literals.
//!
//! Every layer under `Shard::put_many` — the region's line tracking,
//! the flush ring's drain, the undo log's grouped append, the shard's
//! own planning — may get faster, but none may execute one store, flush
//! or fence more or less than it did: the crash matrices index crash
//! points by micro-step, and the benchmark's `flush_ratio` /
//! `nvm_flushes_per_op` are these counters divided. The numbers below
//! were recorded before PR 17 replaced the region's hash maps with a
//! dense line-state array, and carried over unchanged.

use nvcache::core::PolicyKind;
use nvcache::fase::FaseStats;
use nvcache::kvstore::{Shard, ShardConfig};
use nvcache::pmem::{PmemStats, RingStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// 200 seeded `put_many` batches of 1..=32 items over 96 keys on a
/// pipelined shard: fresh inserts, in-place updates, repeated keys
/// inside one batch, bucket-head threading, 100-byte values that
/// straddle cache lines, and — every 16th key — empty values, whose
/// in-place update is a zero-length region write.
#[test]
fn put_many_program_counts_are_pinned() {
    let mut shard = Shard::new(&ShardConfig {
        buckets: 32,
        data_len: 1 << 18,
        log_len: 1 << 15,
        policy: PolicyKind::ScFixed { capacity: 8 },
        adapt: None,
        pipelined: true,
    });
    let mut rng = SmallRng::seed_from_u64(0x17_c0de);
    for op in 0..200u64 {
        let n = rng.gen_range(1..33usize);
        let batch: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|_| {
                let key = rng.gen_range(0..96u64);
                let len = match key % 16 {
                    0 => 0,
                    1..=3 => 100,
                    _ => 40,
                };
                (key, vec![op as u8; len])
            })
            .collect();
        assert!(shard.put_many(&batch), "batch {op}");
    }
    assert_eq!(shard.len(), 96, "every key was inserted");
    assert_eq!(shard.steps(), 23_564);
    let rt = shard.runtime_mut();
    assert_eq!(
        rt.region().stats(),
        PmemStats {
            bytes_written: 405_848,
            stores: 14_660,
            flushes: 8_029,
            fences: 875,
            crashes: 0,
        }
    );
    assert_eq!(
        rt.stats(),
        FaseStats {
            fases: 201,
            stores: 3_939,
            store_lines: 4_587,
            data_flushes: 4_016,
            fences: 201,
            rollbacks: 0,
        }
    );
    assert_eq!(
        rt.ring_stats(),
        RingStats {
            submitted: 4_012,
            flushed: 3_811,
            elided: 0,
            sweeps: 2_538,
            drains: 200,
        }
    );
}
