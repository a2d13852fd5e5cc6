//! Figures 2 and 4–8 of the paper's evaluation, as printed series.

use super::{atlas, sc_offline, sc_online, timed};
use crate::calibrate::{adaptive_config_for, offline_capacity};
use crate::par_map;
use crate::report::{pct, speedup, Table};
use nvcache_core::PolicyKind;
use nvcache_locality::{lru_mrc, reuse_all_k, select_cache_size, BurstSampler, KneeConfig, Mrc};
use nvcache_workloads::registry::{splash2_workloads, workload_by_name};
use nvcache_workloads::{mdb::MdbWorkload, splash2::WaterSpatial, Workload};

/// Figure 2 — the MRC of water-spatial with its knees; the paper
/// selects capacity 23.
pub fn fig2(scale: f64) -> Table {
    let w = WaterSpatial::scaled(scale);
    let tr = w.trace(1);
    let renamed = tr.threads[0].renamed_writes();
    let exact = lru_mrc(&renamed, 50);
    let pred = Mrc::from_reuse(&reuse_all_k(&renamed), 50);
    let knee = select_cache_size(&exact, &KneeConfig::default());
    let mut t = Table::new(
        &format!("Figure 2: MRC of water-spatial (selected size = {knee}, paper: 23)"),
        &["size", "miss ratio (exact)", "miss ratio (timescale)"],
    );
    for c in (0..=50).step_by(2) {
        t.row(vec![
            c.to_string(),
            format!("{:.4}", exact.mr(c)),
            format!("{:.4}", pred.mr(c)),
        ]);
    }
    t
}

/// Figure 4 — single-thread speedups over ER (mdb uses 8 threads) for
/// AT, SC, SC-offline and BEST.
pub fn fig4(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 4: speedup over ER (AT / SC / SC-offline / BEST)",
        &["program", "AT", "SC", "SC-o", "BEST"],
    );
    let mut cells: Vec<(String, Box<dyn Workload>, usize)> = splash2_workloads(scale)
        .into_iter()
        .map(|w| (w.name().to_string(), w, 1usize))
        .collect();
    cells.push((
        "mdb(8t)".to_string(),
        Box::new(MdbWorkload::scaled(scale)),
        8,
    ));
    let runs: Vec<(String, Vec<f64>)> = par_map(&cells, |(name, w, tc)| {
        let tr = w.trace(*tc);
        let er = timed(&tr, &PolicyKind::Eager);
        let sp = |k: &PolicyKind| {
            let r = timed(&tr, k);
            er.cycles as f64 / r.cycles as f64
        };
        let vals = vec![
            sp(&atlas()),
            sp(&sc_online(&tr)),
            sp(&sc_offline(&tr)),
            sp(&PolicyKind::Best),
        ];
        (name.clone(), vals)
    });

    let mut avg = [0.0f64; 4];
    for (name, vals) in &runs {
        for (i, v) in vals.iter().enumerate() {
            avg[i] += v;
        }
        let mut row = vec![name.clone()];
        row.extend(vals.iter().map(|v| speedup(*v)));
        t.row(row);
    }
    let n = runs.len() as f64;
    t.row(vec![
        "average".into(),
        speedup(avg[0] / n),
        speedup(avg[1] / n),
        speedup(avg[2] / n),
        speedup(avg[3] / n),
    ]);
    t.row(vec![
        "paper avg".into(),
        "4.5x".into(),
        "9.6x".into(),
        "10.3x".into(),
        "16.1x".into(),
    ]);
    t
}

/// Figure 5 — SC and SC-offline speedups over AT across thread counts.
pub fn fig5(scale: f64, threads: &[usize]) -> Table {
    let mut headers: Vec<String> = vec!["program".into(), "policy".into()];
    headers.extend(threads.iter().map(|t| format!("T={t}")));
    let mut t = Table::new(
        "Figure 5: speedup over AT per thread count",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let workloads = splash2_workloads(scale);
    // grid cells (workload × thread count) fan out independently; rows
    // are reassembled per workload in sweep order afterwards
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for wi in 0..workloads.len() {
        for &tc in threads {
            cells.push((wi, tc));
        }
    }
    let results = par_map(&cells, |&(wi, tc)| {
        let tr = workloads[wi].trace(tc);
        let at = timed(&tr, &atlas());
        let sc = timed(&tr, &sc_online(&tr));
        let sco = timed(&tr, &sc_offline(&tr));
        (
            speedup(at.cycles as f64 / sc.cycles as f64),
            speedup(at.cycles as f64 / sco.cycles as f64),
        )
    });
    for (wi, w) in workloads.iter().enumerate() {
        let mut sc_row = vec![w.name().to_string(), "SC".to_string()];
        let mut sco_row = vec![w.name().to_string(), "SC-o".to_string()];
        for ti in 0..threads.len() {
            let (sc, sco) = &results[wi * threads.len() + ti];
            sc_row.push(sc.clone());
            sco_row.push(sco.clone());
        }
        t.row(sc_row);
        t.row(sco_row);
    }
    t
}

/// Figure 6 — SC slowdown over BEST across thread counts.
pub fn fig6(scale: f64, threads: &[usize]) -> Table {
    let mut headers: Vec<String> = vec!["program".into()];
    headers.extend(threads.iter().map(|t| format!("T={t}")));
    let mut t = Table::new(
        "Figure 6: slowdown of SC over BEST per thread count",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let workloads = splash2_workloads(scale);
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for wi in 0..workloads.len() {
        for &tc in threads {
            cells.push((wi, tc));
        }
    }
    let results = par_map(&cells, |&(wi, tc)| {
        let tr = workloads[wi].trace(tc);
        let sc = timed(&tr, &sc_online(&tr));
        let best = timed(&tr, &PolicyKind::Best);
        speedup(sc.cycles as f64 / best.cycles as f64)
    });
    for (wi, w) in workloads.iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        row.extend(
            results[wi * threads.len()..(wi + 1) * threads.len()]
                .iter()
                .cloned(),
        );
        t.row(row);
    }
    t
}

/// Figure 7 — accuracy of the sampled (online) MRC, built from the
/// burst SC analyses ([`adaptive_config_for`]), against the full-trace
/// (offline) timescale MRC and the actual (exact LRU) MRC, for four
/// programs.
pub fn fig7(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 7: MRC accuracy — actual vs full-trace vs sampled",
        &[
            "program",
            "knee(actual)",
            "knee(full)",
            "knee(sampled)",
            "MAE(full)",
            "MAE(sampled)",
        ],
    );
    let cfg = KneeConfig::default();
    for name in ["barnes", "fmm", "water-nsquared", "water-spatial"] {
        let w = workload_by_name(name, scale).expect("known workload");
        let tr = w.trace(1);
        let renamed = tr.threads[0].renamed_writes();
        let actual = lru_mrc(&renamed, 50);
        let full = Mrc::from_reuse(&reuse_all_k(&renamed), 50);
        // sampled: the burst SC itself analyses
        let mut sampler = BurstSampler::new(adaptive_config_for(&tr).burst_len, 50, None);
        let mut sampled = None;
        for &id in &renamed {
            if let Some(m) = sampler.push(id) {
                sampled = Some(m);
                break;
            }
        }
        let sampled = sampled.or_else(|| sampler.flush()).expect("burst");
        t.row(vec![
            name.into(),
            select_cache_size(&actual, &cfg).to_string(),
            select_cache_size(&full, &cfg).to_string(),
            select_cache_size(&sampled, &cfg).to_string(),
            format!("{:.4}", full.mean_abs_error(&actual)),
            format!("{:.4}", sampled.mean_abs_error(&actual)),
        ]);
    }
    t
}

/// Figure 8 — relative overhead of online cache-size selection: SC with
/// online analysis vs SC preset to the best size, at 1 and 8 threads.
/// Paper: 1–10%, average 6.78%.
pub fn fig8(scale: f64) -> Table {
    let mut t = Table::new(
        "Figure 8: online cache-selection overhead (% of execution)",
        &["program", "T=1", "T=8"],
    );
    let mut names: Vec<Box<dyn Workload>> = splash2_workloads(scale);
    names.push(Box::new(MdbWorkload::scaled(scale)));
    let overheads: Vec<[f64; 2]> = par_map(&names, |w| {
        let mut ovhs = [0.0f64; 2];
        for (i, &tc) in [1usize, 8].iter().enumerate() {
            let tr = w.trace(tc);
            let online = timed(&tr, &sc_online(&tr));
            // preset: same capacity the online run would choose, but no
            // sampling/analysis cost
            let preset = timed(
                &tr,
                &PolicyKind::ScFixed {
                    capacity: offline_capacity(&tr, &KneeConfig::default()),
                },
            );
            let ovh = (online.cycles as f64 - preset.cycles as f64) / online.cycles as f64;
            ovhs[i] = ovh.max(0.0);
        }
        ovhs
    });
    let mut sum = [0.0f64; 2];
    let mut n = 0usize;
    for (w, ovhs) in names.iter().zip(&overheads) {
        sum[0] += ovhs[0];
        sum[1] += ovhs[1];
        n += 1;
        t.row(vec![w.name().to_string(), pct(ovhs[0]), pct(ovhs[1])]);
    }
    t.row(vec![
        "average".into(),
        pct(sum[0] / n as f64),
        pct(sum[1] / n as f64),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.004;

    #[test]
    fn fig2_knee_matches_water_spatial_working_set() {
        let t = fig2(0.05);
        assert!(
            t.title.contains("selected size = 2"),
            "knee should be in the low twenties: {}",
            t.title
        );
        assert_eq!(t.rows.len(), 26);
    }

    #[test]
    fn fig4_sc_beats_at_nearly_everywhere() {
        // paper: SC uniformly better than AT; at harness scales the
        // online-sampling cost is proportionally larger, so we require
        // SC ≥ AT on the strong majority and never catastrophically
        // behind (mdb's gap is a documented fidelity limit).
        let t = fig4(0.02);
        let mut wins = 0;
        let rows = &t.rows[..t.rows.len() - 2];
        for r in rows {
            let at: f64 = r[1].trim_end_matches('x').parse().unwrap();
            let sc: f64 = r[2].trim_end_matches('x').parse().unwrap();
            let sco: f64 = r[3].trim_end_matches('x').parse().unwrap();
            let best: f64 = r[4].trim_end_matches('x').parse().unwrap();
            if sc >= at {
                wins += 1;
            }
            assert!(sc >= at * 0.75, "{}: SC {sc} far behind AT {at}", r[0]);
            assert!(sco >= at * 0.8, "{}: SC-o {sco} far behind AT {at}", r[0]);
            assert!(best >= sc * 0.95, "{}: BEST {best} vs SC {sc}", r[0]);
        }
        assert!(
            wins * 3 >= rows.len() * 2,
            "SC must beat AT on ≥2/3: {wins}/{}",
            rows.len()
        );
    }

    #[test]
    fn fig5_and_fig6_shapes() {
        let t5 = fig5(TINY, &[1, 2]);
        assert_eq!(t5.rows.len(), 14);
        let t6 = fig6(TINY, &[1, 2]);
        assert_eq!(t6.rows.len(), 7);
        // fig6: every slowdown ≥ 1 (BEST is an upper bound)
        for r in &t6.rows {
            for c in &r[1..] {
                let v: f64 = c.trim_end_matches('x').parse().unwrap();
                assert!(v >= 0.99, "{}: {v}", r[0]);
            }
        }
    }

    #[test]
    fn fig7_sampled_selection_is_nearly_as_good_as_actual() {
        // What matters is not the numeric size but the quality of the
        // selection: the exact MRC evaluated at the sampled choice must
        // be close to its value at the oracle choice.
        let t = fig7(0.02);
        let cfg = KneeConfig::default();
        for r in &t.rows {
            let w = workload_by_name(&r[0], 0.02).unwrap();
            let tr = w.trace(1);
            let renamed = tr.threads[0].renamed_writes();
            let exact = lru_mrc(&renamed, cfg.max_size);
            let actual: usize = r[1].parse().unwrap();
            let sampled: usize = r[3].parse().unwrap();
            // allow the conversion's ±1 size quantization at cliff feet
            // (the adaptive controller adds the same +1 safety entry)
            let best_near = exact.mr(sampled).min(exact.mr(sampled + 1));
            assert!(
                best_near <= exact.mr(actual) + 0.05,
                "{}: mr({sampled}±1)={:.3} vs mr({actual})={:.3}",
                r[0],
                best_near,
                exact.mr(actual)
            );
        }
    }

    #[test]
    fn fig8_overhead_is_small() {
        let t = fig8(TINY);
        let avg = t.rows.last().unwrap();
        let v: f64 = avg[1].trim_end_matches('%').parse().unwrap();
        assert!(v < 25.0, "average overhead {v}% too large");
    }
}
