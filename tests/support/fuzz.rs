//! Crash-point fuzzing: deterministic random FASE programs, a crash
//! injected at **every** persistence micro-step, recovery, and an
//! atomicity oracle.
//!
//! The driver runs one *counting* pass of a generated program to learn
//! the region's total micro-step count and the step index at which each
//! FASE's commit completed, plus the slot snapshot after each commit.
//! It then replays the identical program once per crash step with a
//! [`CrashPlan`] armed: the region captures the exact post-crash image
//! at that step (execution continues unperturbed), the image is rebuilt
//! with [`PmemRegion::from_image`], recovered through
//! [`FaseRuntime::try_reopen`], and the recovered slots are checked
//! against the oracle:
//!
//! * **Strong oracle** (the five durable policies in every
//!   [`CrashMode`], and BEST under `AllInFlightLands`): the recovered
//!   slot array equals the snapshot after the last committed FASE — or,
//!   when the crash fell inside the next FASE's commit window, that next
//!   snapshot. Never a mix.
//! * **Weak oracle** (BEST under `StrictDurableOnly` / `Random`): BEST
//!   never flushes data, so committed values may simply be absent after
//!   a crash; per slot the recovered value must still be one of
//!   {0, before-snapshot, after-snapshot} — an *uncommitted* value can
//!   never survive, because its undo entry is durable before the data
//!   store and recovery rolls it back.
//!
//! Either way, recovery must be idempotent: the recovered runtime is
//! power-failed and recovered again in process
//! ([`FaseRuntime::crash_and_recover`]) under the same adversary, and
//! its slots must not move.
//!
//! Everything is keyed on a `u64` seed: same seed, same program, same
//! step schedule, same verdict.

use nvcache::core::PolicyKind;
use nvcache::fase::FaseRuntime;
use nvcache::pmem::{CrashMode, CrashPlan, PmemRegion};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Slot array starts one line in, keeping line 0 (where a persistent
/// heap would put its magic) out of the fuzzed address range.
const SLOT_BASE: usize = 64;

/// Shape of the generated programs and the crash-step sweep.
#[derive(Debug, Clone)]
pub struct CrashFuzzConfig {
    /// Number of `u64` slots the program mutates.
    pub slots: usize,
    /// FASEs per program.
    pub fases: usize,
    /// Maximum stores per FASE (at least one is always issued).
    pub stores_per_fase: usize,
    /// Undo-log area bytes.
    pub log_len: usize,
    /// Crash-step stride: 1 replays every micro-step; `k` replays steps
    /// `first, first+k, …` (a deterministic sample for smoke runs).
    pub step_stride: u64,
    /// Concurrent submitters per group commit. With `clients > 1` each
    /// FASE is a *cross-client batch*: every client contributes its own
    /// deterministic store stream and the worker drains them into one
    /// failure-atomic section — the shard worker's group-commit shape.
    /// The oracle then asserts the merged batch is all-or-nothing: a
    /// crash mid-drain can never expose one client's writes without the
    /// rest of the same acknowledged batch. `clients = 1` reproduces
    /// the historical single-stream programs bit-for-bit.
    pub clients: usize,
}

impl Default for CrashFuzzConfig {
    fn default() -> Self {
        CrashFuzzConfig {
            slots: 24,
            fases: 5,
            stores_per_fase: 8,
            log_len: 1 << 14,
            step_stride: 1,
            clients: 1,
        }
    }
}

/// One oracle violation found by the fuzzer.
#[derive(Debug, Clone)]
#[allow(dead_code)] // read through `Debug` only, in the suite's assert messages
pub struct FuzzFailure {
    /// Micro-step index the crash was injected at.
    pub step: u64,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// Outcome of one `(program, policy, mode)` crash-step sweep.
#[derive(Debug, Clone)]
pub struct CrashFuzzReport {
    /// Distinct crash schedules replayed (one per crash step tested).
    pub schedules: u64,
    /// Micro-steps the program executes end to end.
    pub total_steps: u64,
    /// Oracle violations (first few; see `failure_count` for the total).
    pub failures: Vec<FuzzFailure>,
    /// Total violations, including those not retained in `failures`.
    pub failure_count: u64,
}

impl CrashFuzzReport {
    /// Did every schedule satisfy the oracle?
    pub fn passed(&self) -> bool {
        self.failure_count == 0
    }
}

/// A generated program: per FASE, the `(slot, value)` stores it issues.
type Program = Vec<Vec<(usize, u64)>>;

/// Generate the deterministic random program for `seed`.
///
/// Each FASE is the concatenation of `cfg.clients` per-client store
/// streams drained in submission order — the same merge a shard worker
/// performs when it group-commits everything in flight. With one
/// client this degenerates to the historical generator: the RNG draw
/// sequence is identical, so legacy seeds map to identical programs.
fn generate_program(seed: u64, cfg: &CrashFuzzConfig) -> Program {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0006_ea5e);
    let clients = cfg.clients.max(1);
    (0..cfg.fases)
        .map(|_| {
            let mut batch = Vec::new();
            for _client in 0..clients {
                let n = rng.gen_range(1..cfg.stores_per_fase + 1);
                for _ in 0..n {
                    let slot = rng.gen_range(0..cfg.slots);
                    let value = rng.gen::<u64>() | 1; // nonzero
                    batch.push((slot, value));
                }
            }
            batch
        })
        .collect()
}

fn data_len(cfg: &CrashFuzzConfig) -> usize {
    SLOT_BASE + cfg.slots * 8
}

/// Execute `program` on a fresh runtime (optionally with an armed crash
/// plan), returning the runtime afterwards.
fn run_program(
    kind: &PolicyKind,
    program: &Program,
    cfg: &CrashFuzzConfig,
    plan: Option<CrashPlan>,
    commit_done: Option<&mut Vec<u64>>,
    snapshots: Option<&mut Vec<Vec<u64>>>,
) -> FaseRuntime {
    let mut rt = FaseRuntime::new(data_len(cfg), cfg.log_len, kind);
    if let Some(plan) = plan {
        rt.arm_crash(plan);
    }
    let mut commit_done = commit_done;
    let mut snapshots = snapshots;
    for fase in program {
        rt.begin_fase();
        for &(slot, value) in fase {
            rt.store_u64(SLOT_BASE + slot * 8, value);
        }
        rt.end_fase();
        if let Some(cd) = commit_done.as_deref_mut() {
            cd.push(rt.steps());
        }
        if let Some(snaps) = snapshots.as_deref_mut() {
            let prev = snaps.last().expect("seeded with the initial snapshot");
            let mut snap = prev.clone();
            for &(slot, value) in fase {
                snap[slot] = value;
            }
            snaps.push(snap);
        }
    }
    rt
}

/// Read the recovered slot array out of a region.
fn read_slots(region: &PmemRegion, cfg: &CrashFuzzConfig) -> Vec<u64> {
    (0..cfg.slots)
        .map(|i| region.read_u64(SLOT_BASE + i * 8))
        .collect()
}

/// Does `kind` guarantee committed data is durable (flushed + fenced)
/// by commit time? BEST deliberately does not — it is the paper's
/// no-flush upper bound, checked against the weak oracle except under
/// the adversary that lands all in-flight lines.
fn strong_oracle(kind: &PolicyKind, mode: &CrashMode) -> bool {
    !matches!(kind, PolicyKind::Best) || matches!(mode, CrashMode::AllInFlightLands)
}

/// Sweep every crash step (per `cfg.step_stride`) of the program
/// generated from `seed`, under `kind` × `mode`, and check the recovery
/// oracle at each. Fully deterministic in `(kind, mode, seed, cfg)`.
pub fn crash_fuzz(
    kind: &PolicyKind,
    mode: &CrashMode,
    seed: u64,
    cfg: &CrashFuzzConfig,
) -> CrashFuzzReport {
    let program = generate_program(seed, cfg);

    // Counting pass: step boundaries + committed snapshots, no crash.
    let mut commit_done: Vec<u64> = Vec::with_capacity(cfg.fases);
    let mut snapshots: Vec<Vec<u64>> = vec![vec![0u64; cfg.slots]];
    let probe = FaseRuntime::new(data_len(cfg), cfg.log_len, kind);
    let format_steps = probe.steps();
    drop(probe);
    let rt = run_program(
        kind,
        &program,
        cfg,
        None,
        Some(&mut commit_done),
        Some(&mut snapshots),
    );
    let total_steps = rt.steps();
    drop(rt);

    let mut report = CrashFuzzReport {
        schedules: 0,
        total_steps,
        failures: Vec::new(),
        failure_count: 0,
    };
    let fail = |report: &mut CrashFuzzReport, step: u64, detail: String| {
        report.failure_count += 1;
        if report.failures.len() < 8 {
            report.failures.push(FuzzFailure { step, detail });
        }
    };

    // Replay pass: one run per crash step. Steps before `format_steps`
    // would crash mid-format (no log yet) — out of the model.
    let mut step = format_steps;
    while step < total_steps {
        report.schedules += 1;
        let mut rt = run_program(
            kind,
            &program,
            cfg,
            Some(CrashPlan {
                at_step: step,
                mode: mode.clone(),
            }),
            None,
            None,
        );
        let Some(image) = rt.take_crash_image() else {
            fail(
                &mut report,
                step,
                format!("no crash image captured at step {step} (< {total_steps})"),
            );
            step += cfg.step_stride;
            continue;
        };
        let region = PmemRegion::from_image(image);
        let mut recovered = match FaseRuntime::try_reopen(region, data_len(cfg), cfg.log_len, kind)
        {
            Ok(rt) => rt,
            Err(e) => {
                fail(&mut report, step, format!("recovery failed: {e}"));
                step += cfg.step_stride;
                continue;
            }
        };
        let got = read_slots(recovered.region(), cfg);

        // f = FASEs whose commit fully completed before this step.
        let f = commit_done.partition_point(|&c| c <= step);
        let before = &snapshots[f];
        let after = snapshots.get(f + 1);
        let ok = if strong_oracle(kind, mode) {
            // All-or-nothing: exactly the pre-snapshot, or (inside the
            // next commit window) exactly the post-snapshot.
            got == *before || after.is_some_and(|a| got == *a)
        } else {
            // Per slot: a committed value may be missing (0), but an
            // uncommitted value must never be visible.
            got.iter()
                .enumerate()
                .all(|(i, &v)| v == 0 || v == before[i] || after.is_some_and(|a| v == a[i]))
        };
        if !ok {
            fail(
                &mut report,
                step,
                format!(
                    "oracle violated after crash at step {step} ({} committed): got {:?}",
                    f,
                    &got[..got.len().min(8)]
                ),
            );
        }
        // Recovery is idempotent: it persisted what it restored, so a
        // second power failure right after it changes nothing.
        recovered.crash_and_recover(mode);
        if read_slots(recovered.region(), cfg) != got {
            fail(
                &mut report,
                step,
                format!("a second crash after recovery at step {step} changed the state"),
            );
        }
        step += cfg.step_stride;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_generation_is_deterministic() {
        let cfg = CrashFuzzConfig::default();
        assert_eq!(generate_program(7, &cfg), generate_program(7, &cfg));
        assert_ne!(generate_program(7, &cfg), generate_program(8, &cfg));
    }

    #[test]
    fn every_step_of_a_small_program_recovers_consistently() {
        let cfg = CrashFuzzConfig {
            slots: 8,
            fases: 5,
            stores_per_fase: 4,
            ..CrashFuzzConfig::default()
        };
        let r = crash_fuzz(
            &PolicyKind::ScFixed { capacity: 4 },
            &CrashMode::AllInFlightLands,
            1,
            &cfg,
        );
        assert!(r.schedules > 50, "swept {} schedules", r.schedules);
        assert!(r.passed(), "failures: {:?}", r.failures);
    }

    #[test]
    fn best_policy_passes_weak_oracle_under_strict() {
        let cfg = CrashFuzzConfig {
            slots: 8,
            fases: 3,
            stores_per_fase: 4,
            ..CrashFuzzConfig::default()
        };
        let r = crash_fuzz(&PolicyKind::Best, &CrashMode::StrictDurableOnly, 2, &cfg);
        assert!(r.passed(), "failures: {:?}", r.failures);
    }

    #[test]
    fn pipelined_commit_path_recovers_at_every_step() {
        let cfg = CrashFuzzConfig {
            slots: 8,
            fases: 3,
            stores_per_fase: 4,
            ..CrashFuzzConfig::default()
        };
        for mode in [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, 13),
        ] {
            let r = crash_fuzz(&PolicyKind::ScFixed { capacity: 4 }, &mode, 5, &cfg);
            assert!(r.schedules > 30, "swept {} schedules", r.schedules);
            assert!(r.passed(), "mode {mode:?} failures: {:?}", r.failures);
        }
    }

    #[test]
    fn one_client_reproduces_the_legacy_program_shape() {
        // clients = 1 must not disturb the RNG draw sequence: the
        // per-FASE store counts stay within the single-stream bound.
        let cfg = CrashFuzzConfig::default();
        assert_eq!(cfg.clients, 1);
        let p = generate_program(7, &cfg);
        assert_eq!(p.len(), cfg.fases);
        for fase in &p {
            assert!((1..=cfg.stores_per_fase).contains(&fase.len()));
        }
    }

    #[test]
    fn multi_client_batches_merge_every_submitters_stream() {
        let cfg = CrashFuzzConfig {
            clients: 4,
            ..CrashFuzzConfig::default()
        };
        let p = generate_program(7, &cfg);
        assert_eq!(p.len(), cfg.fases);
        for fase in &p {
            // each of the 4 clients contributes at least one store
            assert!(fase.len() >= cfg.clients);
            assert!(fase.len() <= cfg.clients * cfg.stores_per_fase);
        }
        assert_eq!(
            generate_program(7, &cfg),
            generate_program(7, &cfg),
            "concurrent programs stay seed-deterministic"
        );
    }

    #[test]
    fn cross_client_group_commit_never_tears_at_any_step() {
        // The concurrent-submission sweep: each FASE carries several
        // clients' writes; a crash anywhere mid-drain must recover to
        // a committed prefix of whole batches — never a partial merge.
        let cfg = CrashFuzzConfig {
            slots: 8,
            fases: 3,
            stores_per_fase: 3,
            clients: 3,
            ..CrashFuzzConfig::default()
        };
        for mode in [
            CrashMode::StrictDurableOnly,
            CrashMode::AllInFlightLands,
            CrashMode::random(0.5, 0.5, 29),
        ] {
            let r = crash_fuzz(&PolicyKind::ScFixed { capacity: 4 }, &mode, 11, &cfg);
            assert!(r.schedules > 30, "swept {} schedules", r.schedules);
            assert!(r.passed(), "mode {mode:?} failures: {:?}", r.failures);
        }
    }

    #[test]
    fn stride_samples_the_schedule_space() {
        let cfg = CrashFuzzConfig {
            slots: 8,
            fases: 2,
            stores_per_fase: 3,
            step_stride: 7,
            ..CrashFuzzConfig::default()
        };
        let full = crash_fuzz(
            &PolicyKind::Lazy,
            &CrashMode::StrictDurableOnly,
            3,
            &CrashFuzzConfig {
                step_stride: 1,
                ..cfg.clone()
            },
        );
        let sampled = crash_fuzz(&PolicyKind::Lazy, &CrashMode::StrictDurableOnly, 3, &cfg);
        assert_eq!(full.total_steps, sampled.total_steps);
        assert!(sampled.schedules < full.schedules);
        assert!(sampled.passed());
    }
}
