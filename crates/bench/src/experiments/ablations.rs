//! Ablations beyond the paper (DESIGN.md §5): each isolates one design
//! choice of the adaptive software cache.

use super::{sc_online, timed};
use crate::calibrate::machine_for;
use crate::par_map;
use crate::report::{ratio, Table};
use nvcache_core::{flush_stats, grouped_capacities, run_policy, PolicyKind, RunConfig};
use nvcache_locality::{knee::knees, lru_mrc, reuse_all_k, select_cache_size, KneeConfig, Mrc};
use nvcache_trace::synth::{phased, SynthOpts};
use nvcache_workloads::registry::splash2_workloads;

/// Knee-selection strategy ablation: SC's rule ([`select_cache_size`]:
/// the smallest capacity within 2 % of the bounded minimum) against
/// picking the steepest candidate knee, and fixed sizes 8
/// (Atlas-equivalent capacity) and 50 (the bound).
pub fn ablation_knee(scale: f64) -> Table {
    let mut t = Table::new(
        "Ablation: knee strategy → flush ratio",
        &[
            "program",
            "within-2%",
            "steepest-knee",
            "fixed-8",
            "fixed-50",
        ],
    );
    let cfg = KneeConfig::default();
    for w in splash2_workloads(scale) {
        let tr = w.trace(1);
        let renamed = tr.threads[0].renamed_writes();
        let mrc = lru_mrc(&renamed, cfg.max_size);
        let within = select_cache_size(&mrc, &cfg);
        let steepest = {
            let ks = knees(&mrc, &cfg);
            let g = mrc.gradient();
            ks.iter()
                .copied()
                .max_by(|&a, &b| g[a].partial_cmp(&g[b]).unwrap())
                .unwrap_or(cfg.max_size)
        };
        let fr = |cap: usize| {
            ratio(flush_stats(&tr, &PolicyKind::ScFixed { capacity: cap }).flush_ratio())
        };
        t.row(vec![
            w.name().into(),
            format!("{} ({within})", fr(within)),
            format!("{} ({steepest})", fr(steepest)),
            fr(8),
            fr(50),
        ]);
    }
    t
}

/// Atlas table-size ablation: does a bigger direct-mapped table close
/// the gap to the fully-associative software cache?
pub fn ablation_atlas(scale: f64) -> Table {
    let sizes = [4usize, 8, 16, 32, 64];
    let mut headers = vec!["program".to_string(), "SC(online)".to_string()];
    headers.extend(sizes.iter().map(|s| format!("AT{s}")));
    let mut t = Table::new(
        "Ablation: Atlas table size → flush ratio",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for row in par_map(&splash2_workloads(scale), |w| {
        let tr = w.trace(1);
        let mut row = vec![
            w.name().to_string(),
            ratio(flush_stats(&tr, &sc_online(&tr)).flush_ratio()),
        ];
        for &s in &sizes {
            row.push(ratio(
                flush_stats(&tr, &PolicyKind::Atlas { size: s }).flush_ratio(),
            ));
        }
        row
    }) {
        t.row(row);
    }
    t
}

/// Maximum-capacity bound ablation (the paper bounds SC at 50 to limit
/// FASE-end stalls): flush ratio vs simulated cycles across bounds.
pub fn ablation_bound(scale: f64) -> Table {
    let bounds = [10usize, 25, 50, 100, 200];
    let mut headers = vec!["program".to_string()];
    for b in bounds {
        headers.push(format!("bound={b}"));
    }
    let mut t = Table::new(
        "Ablation: max-capacity bound → cycles (M) [chosen size]",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for row in par_map(&splash2_workloads(scale), |w| {
        let tr = w.trace(1);
        let mut row = vec![w.name().to_string()];
        for &b in &bounds {
            let cfg = KneeConfig {
                max_size: b,
                ..Default::default()
            };
            let renamed = tr.threads[0].renamed_writes();
            let cap = select_cache_size(&lru_mrc(&renamed, b), &cfg);
            let r = timed(&tr, &PolicyKind::ScFixed { capacity: cap });
            row.push(format!("{:.2} [{cap}]", r.cycles as f64 / 1e6));
        }
        row
    }) {
        t.row(row);
    }
    t
}

/// Burst-length ablation: how much sampling does the online MRC need
/// before it picks the same size as offline profiling?
pub fn ablation_burst(scale: f64) -> Table {
    let fracs = [64usize, 16, 4, 1]; // trace/64 … full trace
    let mut headers = vec!["program".to_string(), "offline".to_string()];
    for f in fracs {
        headers.push(format!("1/{f}"));
    }
    let mut t = Table::new(
        "Ablation: burst length → selected size (MAE vs exact MRC)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let cfg = KneeConfig::default();
    for w in splash2_workloads(scale) {
        let tr = w.trace(1);
        let renamed = tr.threads[0].renamed_writes();
        let exact = lru_mrc(&renamed, cfg.max_size);
        let offline = select_cache_size(&exact, &cfg);
        let mut row = vec![w.name().to_string(), offline.to_string()];
        for &f in &fracs {
            let take = (renamed.len() / f).max(32);
            let burst = &renamed[..take.min(renamed.len())];
            let mrc = Mrc::from_reuse(&reuse_all_k(burst), cfg.max_size);
            let sel = select_cache_size(&mrc, &cfg);
            row.push(format!("{sel} ({:.3})", mrc.mean_abs_error(&exact)));
        }
        t.row(row);
    }
    t
}

/// `clflush` vs `clwb` ablation (paper Section II-A discusses both but
/// Atlas — and the evaluation — use `clflush`): how much of each
/// policy's cost is the *indirect* invalidation penalty that `clwb`
/// avoids?
pub fn ablation_clwb(scale: f64) -> Table {
    let mut t = Table::new(
        "Ablation: clflush vs clwb → cycles (M), and clwb's saving",
        &[
            "program",
            "AT/clflush",
            "AT/clwb",
            "SC/clflush",
            "SC/clwb",
            "SC saving",
        ],
    );
    for row in par_map(&splash2_workloads(scale), |w| {
        let tr = w.trace(1);
        let run = |kind: &PolicyKind, invalidates: bool| {
            let mut cfg = RunConfig {
                machine: machine_for(1),
            };
            cfg.machine.flush_invalidates = invalidates;
            run_policy(&tr, kind, &cfg).cycles as f64 / 1e6
        };
        let at = PolicyKind::Atlas { size: 8 };
        let sc = sc_online(&tr);
        let at_cl = run(&at, true);
        let at_wb = run(&at, false);
        let sc_cl = run(&sc, true);
        let sc_wb = run(&sc, false);
        vec![
            w.name().into(),
            format!("{at_cl:.2}"),
            format!("{at_wb:.2}"),
            format!("{sc_cl:.2}"),
            format!("{sc_wb:.2}"),
            format!("{:.1}%", (1.0 - sc_wb / sc_cl) * 100.0),
        ]
    }) {
        t.row(row);
    }
    t
}

/// Re-adaptation ablation (paper future work): a workload whose working
/// set changes mid-run. One-shot analysis (the paper's infinite
/// hibernation) locks in the first phase's knee; periodic re-adaptation
/// (finite hibernation) follows the change.
pub fn ablation_phased(scale: f64) -> Table {
    let n = ((200_000.0 * scale) as usize).max(5_000);
    let opts = SynthOpts {
        writes_per_fase: 1000,
        work_per_write: 2,
        ..Default::default()
    };
    let mut t = Table::new(
        "Ablation: phase change (wss 8 → 32) → flush ratio",
        &["strategy", "flush ratio", "capacity trajectory"],
    );
    let tr = phased(8, n, 32, n, &opts);
    let burst = n / 8;
    for (name, hibernation) in [
        ("one-shot (paper)", None),
        ("periodic (future work)", Some((n / 4) as u64)),
    ] {
        let cfg = nvcache_core::AdaptiveConfig {
            burst_len: burst,
            hibernation,
            ..Default::default()
        };
        let f = flush_stats(&tr, &PolicyKind::ScAdaptive(cfg.clone()));
        // reconstruct the capacity trajectory for display
        let mut p = nvcache_core::AdaptiveScPolicy::new(cfg);
        let mut out = Vec::new();
        for w in tr.threads[0].writes() {
            nvcache_core::PersistPolicy::on_store(&mut p, w, &mut out);
            out.clear();
        }
        t.row(vec![
            name.into(),
            ratio(f.flush_ratio()),
            format!(
                "8 → {:?}",
                p.choices().iter().map(|c| c.capacity).collect::<Vec<_>>()
            ),
        ]);
    }
    // oracle rows for reference
    for cap in [8usize, 32] {
        let f = flush_stats(&tr, &PolicyKind::ScFixed { capacity: cap });
        t.row(vec![
            format!("fixed-{cap}"),
            ratio(f.flush_ratio()),
            "-".into(),
        ]);
    }
    t
}

/// Thread-grouping ablation (paper future work): per-thread MRCs are
/// clustered; one analysis per group. Reports the group count and the
/// flush cost of group-shared capacities vs per-thread selections.
pub fn ablation_groups(scale: f64, threads: usize) -> Table {
    let mut t = Table::new(
        "Ablation: thread-grouped MRC analysis",
        &[
            "program",
            "threads",
            "groups",
            "per-thread ratio",
            "grouped ratio",
        ],
    );
    let cfg = KneeConfig::default();
    for row in par_map(&splash2_workloads(scale), |w| {
        let tr = w.trace(threads);
        let mrcs: Vec<Mrc> = tr
            .threads
            .iter()
            .map(|th| lru_mrc(&th.renamed_writes(), cfg.max_size))
            .collect();
        let grouped = grouped_capacities(&mrcs, &cfg, 0.02);
        let groups = nvcache_core::group_threads(&mrcs, &cfg, 0.02).len();
        // flush ratio with per-thread capacities vs grouped capacities:
        // replay each thread with its assigned capacity
        let ratio_with = |caps: &[usize]| {
            let mut flushes = 0u64;
            let mut stores = 0u64;
            for (tid, th) in tr.threads.iter().enumerate() {
                let single = nvcache_trace::Trace {
                    threads: vec![th.clone()],
                };
                let f = flush_stats(
                    &single,
                    &PolicyKind::ScFixed {
                        capacity: caps[tid].max(1),
                    },
                );
                flushes += f.flushes();
                stores += f.stores;
            }
            flushes as f64 / stores.max(1) as f64
        };
        let own: Vec<usize> = mrcs.iter().map(|m| select_cache_size(m, &cfg)).collect();
        vec![
            w.name().into(),
            threads.to_string(),
            groups.to_string(),
            ratio(ratio_with(&own)),
            ratio(ratio_with(&grouped)),
        ]
    }) {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.004;

    #[test]
    fn knee_ablation_shape() {
        let t = ablation_knee(TINY);
        assert_eq!(t.rows.len(), 7);
    }

    #[test]
    fn atlas_ablation_bigger_tables_do_not_hurt() {
        let t = ablation_atlas(TINY);
        for r in &t.rows {
            let at4: f64 = r[2].parse().unwrap();
            let at64: f64 = r[6].parse().unwrap();
            assert!(
                at64 <= at4 + 1e-6,
                "{}: AT64 {at64} should not exceed AT4 {at4}",
                r[0]
            );
        }
    }

    #[test]
    fn burst_ablation_selection_quality_converges() {
        use nvcache_workloads::registry::workload_by_name;
        let t = ablation_burst(TINY);
        let cfg = KneeConfig::default();
        for r in &t.rows {
            let w = workload_by_name(&r[0], TINY).unwrap();
            let tr = w.trace(1);
            let renamed = tr.threads[0].renamed_writes();
            let exact = lru_mrc(&renamed, cfg.max_size);
            let offline: usize = r[1].parse().unwrap();
            let full: usize = r
                .last()
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            // the full-trace timescale choice must be nearly as good as
            // the exact-MRC oracle choice (same rule as Fig. 7,
            // with the conversion's ±1 size quantization allowed)
            let best_near = exact.mr(full).min(exact.mr(full + 1));
            assert!(
                best_near <= exact.mr(offline) + 0.05,
                "{}: mr({full}±1)={:.3} vs mr({offline})={:.3}",
                r[0],
                best_near,
                exact.mr(offline)
            );
        }
    }

    #[test]
    fn bound_ablation_runs() {
        let t = ablation_bound(TINY);
        assert_eq!(t.rows.len(), 7);
    }

    #[test]
    fn clwb_never_slower_than_clflush() {
        let t = ablation_clwb(TINY);
        for r in &t.rows {
            let cl: f64 = r[3].parse().unwrap();
            let wb: f64 = r[4].parse().unwrap();
            assert!(wb <= cl * 1.01, "{}: clwb {wb} vs clflush {cl}", r[0]);
        }
    }

    #[test]
    fn periodic_readaptation_beats_one_shot_on_phase_change() {
        let t = ablation_phased(0.05);
        let one: f64 = t.rows[0][1].parse().unwrap();
        let per: f64 = t.rows[1][1].parse().unwrap();
        assert!(
            per < one,
            "re-adaptation must win on a phase change: {per} vs {one}"
        );
    }

    #[test]
    fn grouping_preserves_flush_quality() {
        let t = ablation_groups(TINY, 4);
        for r in &t.rows {
            let own: f64 = r[3].parse().unwrap();
            let grp: f64 = r[4].parse().unwrap();
            assert!(grp <= own + 0.05, "{}: grouped {grp} vs own {own}", r[0]);
            let groups: usize = r[2].parse().unwrap();
            assert!(groups <= 4);
        }
    }
}
