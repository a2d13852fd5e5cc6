//! Exhaustive crash-point fuzzing: for deterministic random FASE
//! programs, a crash is injected at **every** persistence micro-step
//! (store, line flush, fence — log appends and commit sub-steps count
//! transitively, since the undo log runs through region primitives),
//! the image is recovered via `FaseRuntime::try_reopen`, and the
//! recovered state must equal the last committed snapshot (see
//! `support/fuzz.rs` for the program generator and the oracle, which
//! this binary alone compiles: they are test code, not product API).
//!
//! The suite enumerates the step index space itself, so a bug at any
//! single intermediate persistence step — mid log-append, between
//! flush and fence, inside the commit window — has no place to hide,
//! and every recovered image is power-failed a second time in process
//! to check that recovery is idempotent.

use nvcache::core::{AdaptiveConfig, PolicyKind};
use nvcache::fase::log::{GROUP_HEADER, RECORDS_START};
use nvcache::fase::{FaseRuntime, RecoveryError};
use nvcache::pmem::{CrashMode, CrashPlan, PmemRegion};
use nvcache::telemetry::{CounterId, EventKind, TelemetryConfig};
use proptest::prelude::*;

#[path = "support/fuzz.rs"]
mod fuzz;
use fuzz::{crash_fuzz, CrashFuzzConfig};

fn all_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Eager,
        PolicyKind::Lazy,
        PolicyKind::Atlas { size: 8 },
        PolicyKind::ScFixed { capacity: 4 },
        PolicyKind::ScAdaptive(AdaptiveConfig {
            burst_len: 16,
            ..Default::default()
        }),
        PolicyKind::Best,
    ]
}

fn all_modes(seed: u64) -> Vec<CrashMode> {
    vec![
        CrashMode::StrictDurableOnly,
        CrashMode::AllInFlightLands,
        CrashMode::random(0.5, 0.5, seed),
    ]
}

/// The acceptance matrix: all six policies × all three crash
/// adversaries × several program seeds, crashing at every micro-step.
/// The ring drain executes per-line micro-steps, so the armed crash
/// plan cuts inside its coalesced sweeps. Must cover ≥ 1000 distinct
/// (program, step, mode, policy) schedules and pass the oracle on
/// every one.
#[test]
fn full_matrix_every_step_every_policy_every_mode() {
    let mut schedules = 0u64;
    let cfg = CrashFuzzConfig::default();
    for kind in all_policies() {
        for seed in 0..2u64 {
            for mode in all_modes(seed) {
                let r = crash_fuzz(&kind, &mode, seed, &cfg);
                assert!(
                    r.passed(),
                    "policy {} mode {:?} seed {seed}: {} failures, first: {:?}",
                    kind.label(),
                    mode,
                    r.failure_count,
                    r.failures.first()
                );
                schedules += r.schedules;
            }
        }
    }
    assert!(
        schedules >= 1000,
        "matrix must exercise at least 1000 schedules, got {schedules}"
    );
}

/// The concurrent-submission matrix: with `clients > 1` each FASE is a
/// cross-client group commit — several submitters' store streams
/// drained into one batch, the shape the shard worker produces. All six
/// policies × all three adversaries, crashing at every micro-step:
/// recovery must always land on a whole number of batches, never
/// exposing one client's writes without the rest of the same
/// acknowledged group.
#[test]
fn concurrent_submission_matrix_never_tears_a_group() {
    let mut schedules = 0u64;
    let cfg = CrashFuzzConfig {
        fases: 3,
        stores_per_fase: 4,
        clients: 4,
        ..CrashFuzzConfig::default()
    };
    for kind in all_policies() {
        for mode in all_modes(17) {
            let r = crash_fuzz(&kind, &mode, 17, &cfg);
            assert!(
                r.passed(),
                "policy {} mode {:?} clients 4: {} failures, first: {:?}",
                kind.label(),
                mode,
                r.failure_count,
                r.failures.first()
            );
            schedules += r.schedules;
        }
    }
    assert!(
        schedules >= 500,
        "concurrent matrix must exercise at least 500 schedules, got {schedules}"
    );
}

/// Recovery is idempotent: under `ScFixed` and adversaries that land a
/// random half of the in-flight lines, every micro-step's recovered
/// image is power-failed again in process by `crash_fuzz`'s oracle, and
/// no slot may move. Catches a recovery that restores bytes without
/// persisting them.
#[test]
fn double_crash_recovery_is_idempotent() {
    let kind = PolicyKind::ScFixed { capacity: 4 };
    let cfg = CrashFuzzConfig::default();
    for seed in 0..4u64 {
        let r = crash_fuzz(&kind, &CrashMode::random(0.5, 0.5, seed), seed, &cfg);
        assert!(
            r.schedules > 0 && r.passed(),
            "seed {seed}: {:?}",
            r.failures.first()
        );
    }
}

/// The sweep itself is deterministic: same (policy, mode, seed, cfg) →
/// same schedule count, same step count, same verdict.
#[test]
fn fuzz_sweep_is_deterministic() {
    let cfg = CrashFuzzConfig::default();
    let kind = PolicyKind::ScFixed { capacity: 4 };
    let mode = CrashMode::random(0.3, 0.7, 9);
    let a = crash_fuzz(&kind, &mode, 42, &cfg);
    let b = crash_fuzz(&kind, &mode, 42, &cfg);
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.total_steps, b.total_steps);
    assert_eq!(a.failure_count, b.failure_count);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form: arbitrary program seeds and adversary seeds, a
    /// strided sample of crash steps, any policy — the oracle holds.
    #[test]
    fn random_programs_recover_to_committed_snapshot(
        seed in any::<u64>(),
        policy_ix in 0usize..6,
        mode_ix in 0usize..3,
        stride in 3u64..11,
    ) {
        let cfg = CrashFuzzConfig {
            step_stride: stride,
            ..Default::default()
        };
        let kind = all_policies()[policy_ix].clone();
        let mode = all_modes(seed ^ 0x9e37).swap_remove(mode_ix);
        let r = crash_fuzz(&kind, &mode, seed, &cfg);
        prop_assert!(r.schedules > 0);
        prop_assert!(
            r.passed(),
            "policy {} mode {:?} seed {}: {:?}",
            kind.label(), mode, seed, r.failures.first()
        );
    }
}

/// A crash image captured mid-FASE carries uncommitted undo records;
/// reopening it must roll them back and say so in stats + telemetry.
#[test]
fn mid_fase_crash_image_reopens_with_rollback_counted() {
    let kind = PolicyKind::ScFixed { capacity: 4 };
    let mut rt = FaseRuntime::new(4096, 1 << 14, &kind);
    rt.fase(|r| r.store_u64(64, 11));
    let committed_steps = rt.steps();
    rt.begin_fase();
    rt.store_u64(64, 22);
    rt.store_u64(128, 33);
    // capture as if power failed right now, everything in flight landing
    rt.arm_crash(CrashPlan {
        at_step: rt.steps(),
        mode: CrashMode::AllInFlightLands,
    });
    rt.store_u64(192, 44); // trips the armed plan
    assert!(rt.steps() > committed_steps);
    let image = rt.take_crash_image().expect("plan step was reached");
    let region = PmemRegion::from_image(image);
    let mut rt2 = FaseRuntime::try_reopen(region, 4096, 1 << 14, &kind).unwrap();
    assert_eq!(rt2.stats().rollbacks, 1, "reopen rolled back the open FASE");
    assert_eq!(rt2.load_u64(64), 11, "committed value survives");
    assert_eq!(rt2.load_u64(128), 0, "uncommitted store undone");
    assert_eq!(rt2.load_u64(192), 0, "store after the cut never existed");
}

/// In-process crash injection reports the rollback through the
/// telemetry layer: `rollbacks` counter plus a pinned timeline event.
#[test]
fn telemetry_counts_rollbacks_across_repeated_crashes() {
    let mut rt = FaseRuntime::new(4096, 1 << 14, &PolicyKind::Lazy);
    rt.enable_telemetry(&TelemetryConfig::default());
    for round in 0..3u64 {
        rt.fase(|r| r.store_u64(64, 100 + round));
        rt.begin_fase();
        rt.store_u64(64, 200 + round);
        rt.crash_and_recover(&CrashMode::AllInFlightLands);
        assert_eq!(rt.load_u64(64), 100 + round);
    }
    assert_eq!(rt.stats().rollbacks, 3);
    let snap = rt.take_telemetry().unwrap();
    assert_eq!(snap.counter(CounterId::Rollbacks), 3);
    let rollbacks: Vec<_> = snap
        .timeline
        .iter()
        .filter(|e| e.kind == EventKind::Rollback)
        .collect();
    assert_eq!(rollbacks.len(), 3, "one pinned event per rollback");
    assert_eq!(
        rollbacks.iter().map(|e| e.b).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "event payload b = crashes injected so far"
    );
}

/// Regression (typed recovery errors): images that never were a FASE
/// region surface as `RecoveryError`, not a panic.
#[test]
fn recovery_errors_are_typed_not_panics() {
    // never formatted
    let blank = PmemRegion::new(1 << 14);
    assert!(matches!(
        FaseRuntime::try_reopen(blank, 4096, 4096, &PolicyKind::Lazy),
        Err(RecoveryError::BadMagic { found: 0 })
    ));
    // formatted, then header clobbered
    let mut rt = FaseRuntime::new(4096, 4096, &PolicyKind::Lazy);
    rt.fase(|r| r.store_u64(0, 7));
    let data_len = rt.data_len();
    let mut region = rt.into_region();
    region.write_u64(data_len, 0x0BAD_CAFE);
    region.persist(data_len, 8);
    assert!(matches!(
        FaseRuntime::try_reopen(region, data_len, 4096, &PolicyKind::Lazy),
        Err(RecoveryError::BadMagic { found: 0x0BAD_CAFE })
    ));
    // region too small to hold the advertised areas
    let tiny = PmemRegion::new(128);
    assert!(matches!(
        FaseRuntime::try_reopen(tiny, 4096, 4096, &PolicyKind::Lazy),
        Err(RecoveryError::RegionTooSmall { .. })
    ));
}

/// A runtime with one committed FASE (64 ← 5, 128 ← 6, in two groups)
/// and an open one that rewrote 64 ← 9 under one durable group, as the
/// region a power failure leaves (everything in flight landing).
fn open_fase_image(kind: &PolicyKind) -> (PmemRegion, usize) {
    let mut rt = FaseRuntime::new(4096, 4096, kind);
    rt.fase(|r| {
        r.store_u64(64, 5);
        r.store_u64(128, 6);
    });
    rt.begin_fase();
    rt.store_u64(64, 9);
    let image = rt.region().image_after_crash(&CrashMode::AllInFlightLands);
    (PmemRegion::from_image(image), rt.data_len())
}

/// Hostile log bytes (nothing durable says where the log ends, so
/// recovery validates what it finds): each corruption below makes a
/// group invalid, and an invalid group is ignored — never applied,
/// never a panic, never a way to lead the scan past the log area. The
/// variants a checksum would mask (an out-of-range record under a
/// *matching* sum) are forged in `fase::log`'s unit tests.
#[test]
fn corrupt_log_bytes_are_ignored_not_trusted() {
    let kind = PolicyKind::Lazy;
    // log-relative: magic 0, epoch 8, the first group's header (payload
    // bytes, checksum), then its first record's header word
    let (group, record) = (RECORDS_START, RECORDS_START + GROUP_HEADER);
    for (what, at, word) in [
        ("epoch word", 8, u64::MAX - 7),
        ("group length past the log area", group, 4096),
        ("group length absurd", group, !7u64),
        (
            "record range outside the data area",
            record,
            (4090 << 16) | 8,
        ),
        ("record range absurd", record, u64::MAX),
    ] {
        let (mut region, data_len) = open_fase_image(&kind);
        region.write_u64(data_len + at, word);
        region.persist(data_len + at, 8);
        let mut rt = FaseRuntime::try_reopen(region, data_len, 4096, &kind)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(rt.stats().rollbacks, 0, "{what}: the group is invalid");
        assert_eq!(rt.load_u64(64), 9, "{what}: nothing applied");
        assert_eq!(rt.load_u64(128), 6, "{what}");
    }
    // untouched, the same image rolls back
    let (region, data_len) = open_fase_image(&kind);
    let mut rt = FaseRuntime::try_reopen(region, data_len, 4096, &kind).unwrap();
    assert_eq!((rt.load_u64(64), rt.load_u64(128)), (5, 6));
}

/// The natural leftover of a longer previous FASE: its second group,
/// well-formed, sits right after the open FASE's only group. It belongs
/// to an older epoch and must not be replayed — doing so would put back
/// the zero that 128 held before the first FASE.
#[test]
fn stale_group_of_an_older_epoch_after_the_live_one_is_ignored() {
    let kind = PolicyKind::Lazy;
    let (region, data_len) = open_fase_image(&kind);
    let mut rt = FaseRuntime::try_reopen(region, data_len, 4096, &kind).unwrap();
    assert_eq!(rt.stats().rollbacks, 1);
    assert_eq!(rt.load_u64(64), 5, "the open FASE rolled back");
    assert_eq!(rt.load_u64(128), 6, "the committed FASE stands");
}
