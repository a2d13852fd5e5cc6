//! The paper's qualitative claims, checked end-to-end through the
//! public API at test scale. These are the "shape" assertions
//! EXPERIMENTS.md documents quantitatively: who wins, in what order,
//! and where the knees fall.

use nvcache::core::{flush_stats, run_policy, PolicyKind, RunConfig};
use nvcache::locality::{lru_mrc, select_cache_size, KneeConfig};
use nvcache::workloads::micro::PersistentArray;
use nvcache::workloads::registry::{splash2_workloads, workload_by_name};
use nvcache::workloads::{PaperRow, Workload};
use nvcache_bench::adaptive_config_for;

const SCALE: f64 = 0.01;

/// SC as the `repro` harness and the repo benchmark configure it.
fn sc_for(tr: &nvcache::trace::Trace) -> PolicyKind {
    PolicyKind::ScAdaptive(adaptive_config_for(tr))
}

/// Abstract of the paper: "reduces cache write backs to persistent
/// memory by 12× … over the state-of-the-art" — AT/SC ≫ 1 averaged over
/// the SPLASH2 suite.
#[test]
fn headline_write_back_reduction_over_atlas() {
    let mut ratios = Vec::new();
    for w in splash2_workloads(SCALE) {
        let tr = w.trace(1);
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 });
        let sc = flush_stats(&tr, &sc_for(&tr));
        ratios.push(at.flushes() as f64 / sc.flushes() as f64);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        avg > 2.0,
        "average AT/SC write-back reduction too small: {avg:.2} ({ratios:?})"
    );
}

/// Section IV-D: "SC is as good as AT on linked-list and queue" (both
/// already optimal) and "achieves the best for persistent-array and
/// volrend" (reaches the LA minimum).
#[test]
fn sc_reaches_lazy_minimum_where_paper_says_it_does() {
    {
        let name = "volrend";
        let w = workload_by_name(name, SCALE).unwrap();
        let tr = w.trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy);
        let sc = flush_stats(&tr, &sc_for(&tr));
        let ratio = sc.flushes() as f64 / la.flushes() as f64;
        assert!(ratio < 1.2, "{name}: SC/LA = {ratio:.3}");
    }
    for name in ["linked-list", "queue"] {
        let w = workload_by_name(name, SCALE).unwrap();
        let tr = w.trace(1);
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 });
        let sc = flush_stats(&tr, &sc_for(&tr));
        assert_eq!(sc.flushes(), at.flushes(), "{name}: SC == AT == optimal");
    }
}

/// Section IV-G: "there is no one-fits-for-all solution for cache size
/// selection" — the knee-selected sizes differ substantially across
/// programs, spanning small (ocean, volrend) to large (water-nsquared).
#[test]
fn selected_sizes_are_workload_dependent() {
    let cfg = KneeConfig::default();
    let mut sizes = Vec::new();
    for w in splash2_workloads(SCALE) {
        let tr = w.trace(1);
        let knee = select_cache_size(&lru_mrc(&tr.threads[0].renamed_writes(), 50), &cfg);
        sizes.push((w.name(), knee));
    }
    let min = sizes.iter().map(|&(_, s)| s).min().unwrap();
    let max = sizes.iter().map(|&(_, s)| s).max().unwrap();
    assert!(min <= 4, "some program needs a tiny cache: {sizes:?}");
    assert!(max >= 20, "some program needs a large cache: {sizes:?}");
    // ordering agreement with the paper where it reports knees:
    // ocean (2) < fmm (10) < barnes (15) < water-spatial (23) ≤ water-nsquared (28)
    let get = |n: &str| sizes.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(get("ocean") < get("fmm"));
    assert!(get("fmm") <= get("barnes") + 2);
    assert!(get("ocean") < get("water-nsquared"));
    assert!(get("raytrace") < get("water-spatial"));
}

/// Table I's phenomenon: eager persistence is catastrophically slower
/// than no persistence, and the paper's SPLASH2 knee-sized SC recovers
/// most of the loss.
#[test]
fn eager_catastrophe_and_sc_recovery() {
    let w = workload_by_name("water-spatial", SCALE).unwrap();
    let tr = w.trace(1);
    let cfg = RunConfig::default();
    let er = run_policy(&tr, &PolicyKind::Eager, &cfg);
    let best = run_policy(&tr, &PolicyKind::Best, &cfg);
    let sc = run_policy(&tr, &sc_for(&tr), &cfg);
    let er_slow = er.cycles as f64 / best.cycles as f64;
    let sc_slow = sc.cycles as f64 / best.cycles as f64;
    assert!(er_slow > 10.0, "ER must be catastrophic: {er_slow:.1}x");
    assert!(
        sc_slow < er_slow / 3.0,
        "SC must recover most of ER's loss: {sc_slow:.1}x vs {er_slow:.1}x"
    );
}

/// Section IV-F: strong scaling — total persistent stores stay ~constant
/// as threads grow, while FASE count (and thus compulsory flushes)
/// grows; the flush ratio therefore rises with the thread count.
#[test]
fn flush_ratio_rises_with_thread_count() {
    let w = workload_by_name("water-spatial", 0.05).unwrap();
    let t1 = w.trace(1);
    let t8 = w.trace(8);
    assert!(
        (t8.total_writes() as f64 / t1.total_writes() as f64) < 1.1,
        "strong scaling: writes ~constant"
    );
    assert!(t8.total_fases() > t1.total_fases());
    let knee = PolicyKind::ScFixed { capacity: 23 };
    let r1 = flush_stats(&t1, &knee).flush_ratio();
    let r8 = flush_stats(&t8, &knee).flush_ratio();
    assert!(
        r8 >= r1 * 0.99,
        "more FASEs ⇒ no fewer compulsory flushes: T1 {r1:.4} vs T8 {r8:.4}"
    );
}

/// Every Table III row our registry claims to model really is modeled:
/// paper rows attach to workloads and preserve the LA ≤ SC ≤ AT shape
/// both in the reference data and in our measurements.
#[test]
fn table3_rows_attach_and_order() {
    for w in nvcache::workloads::all_workloads(0.004) {
        let row: Option<PaperRow> = w.paper_row();
        assert!(row.is_some(), "{} missing its Table III row", w.name());
        let tr = w.trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy);
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 });
        let sc = flush_stats(&tr, &sc_for(&tr));
        assert!(la.flushes() <= sc.flushes(), "{}", w.name());
        assert!(la.flushes() <= at.flushes(), "{}", w.name());
    }
}

/// Table III's invariants and its starred average at the harness's
/// default scale: ER = 1, LA ≤ SC ≤ AT on every program, the three
/// already-optimal programs tie exactly, persistent-array's AT is 1/16
/// (spatial locality alone), and, averaged over the nine programs the
/// paper averages, SC stays within 1.25× of the lazy floor — it was
/// 1.48× while the sampling burst was an eighth of every run.
#[test]
fn table3_invariants_and_starred_average_hold_at_the_default_scale() {
    let excluded = ["persistent-array", "linked-list", "queue"];
    let (mut sc_over_la, mut counted) = (0.0, 0);
    for w in nvcache::workloads::all_workloads(0.05) {
        let name = w.name();
        let tr = w.trace(1);
        let er = flush_stats(&tr, &PolicyKind::Eager);
        let la = flush_stats(&tr, &PolicyKind::Lazy).flushes();
        let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 });
        let sc = flush_stats(&tr, &sc_for(&tr)).flushes();
        assert_eq!(er.flush_ratio(), 1.0, "{name}: ER");
        assert!(
            la <= sc && sc <= at.flushes(),
            "{name}: LA {la} ≤ SC {sc} ≤ AT {}",
            at.flushes()
        );
        if ["linked-list", "queue", "hash"].contains(&name) {
            assert_eq!(sc, at.flushes(), "{name}: SC == AT");
        }
        if name == "persistent-array" {
            assert_eq!(at.flush_ratio(), 1.0 / 16.0, "{name}: AT");
        }
        if !excluded.contains(&name) {
            sc_over_la += sc as f64 / la as f64;
            counted += 1;
        }
    }
    assert_eq!(counted, 9);
    let avg = sc_over_la / counted as f64;
    assert!(avg <= 1.25, "starred-average SC/LA {avg:.3}");
}

/// Persistent-array is one FASE over a 25-line array, so LA flushes 25
/// lines and every store SC makes at its default capacity 8 before it
/// adapts costs AT's 1/16. The burst is a bounded number of stores, so
/// SC stays within 2× of LA on a long run (the paper's SC equals LA),
/// and its SC/LA does not grow with the run.
#[test]
fn persistent_array_sc_stays_near_the_lazy_floor_as_the_run_grows() {
    let sc_over_la = |scale: f64| {
        let tr = PersistentArray::scaled(scale).trace(1);
        let la = flush_stats(&tr, &PolicyKind::Lazy).flushes();
        let sc = flush_stats(&tr, &sc_for(&tr)).flushes();
        sc as f64 / la as f64
    };
    let (short, long) = (sc_over_la(0.1), sc_over_la(0.5));
    assert!(long <= 2.0, "SC/LA {long:.3} at scale 0.5");
    assert!(
        long <= short,
        "SC/LA rose with the run: {short:.3} → {long:.3}"
    );
}

/// Table II: Mtest on MDB, eight threads. Eager flushing is far behind
/// everything that combines (paper: AT 2.94×, SC 5.07× over ER), the
/// adaptive cache stays with Atlas's table, and no persistence is the
/// ceiling.
#[test]
fn table2_mdb_execution_orders_as_in_the_paper() {
    let tr = workload_by_name("mdb", SCALE).unwrap().trace(8);
    let cfg = RunConfig::default();
    let cycles = |kind: &PolicyKind| run_policy(&tr, kind, &cfg).cycles as f64;
    let er = cycles(&PolicyKind::Eager);
    let at = cycles(&PolicyKind::Atlas { size: 8 });
    let sc = cycles(&sc_for(&tr));
    let best = cycles(&PolicyKind::Best);
    assert!(er > 2.0 * at, "ER {er} ≫ AT {at}");
    assert!(sc <= 1.25 * at, "SC {sc} ≲ AT {at}");
    assert!(
        best < sc && best < at,
        "BEST {best} fastest (SC {sc}, AT {at})"
    );
}

/// Table III's `mdb` row (paper: LA 0.052, AT 0.301, SC 0.113): a put
/// stores the words it changed, so most stores of a transaction land on
/// lines it has already dirtied — the lazy floor is low and the
/// adaptive cache sits on it.
#[test]
fn table3_mdb_row_is_in_the_papers_band() {
    let tr = workload_by_name("mdb", SCALE).unwrap().trace(1);
    let la = flush_stats(&tr, &PolicyKind::Lazy).flush_ratio();
    let at = flush_stats(&tr, &PolicyKind::Atlas { size: 8 }).flush_ratio();
    let sc = flush_stats(&tr, &sc_for(&tr)).flush_ratio();
    assert!(la <= 0.2, "LA {la}");
    assert!(la <= sc && sc <= at, "LA {la} ≤ SC {sc} ≤ AT {at}");
    assert!(sc <= 1.1 * la, "SC {sc} within 1.1× of LA {la}");
}
