//! Tables I–IV of the paper's evaluation.

use super::{atlas, sc_offline, sc_online, timed};
use crate::calibrate::{adaptive_config_for, machine_for};
use crate::par_map;
use crate::report::{pct, ratio, speedup, Table};
use nvcache_core::{
    flush_stats, flush_stats_traced, run_policy, PolicyKind, ReplayOptions, RunConfig,
};
use nvcache_telemetry::TelemetryConfig;
use nvcache_workloads::splash2::WaterSpatial;
use nvcache_workloads::{all_workloads, mdb::MdbWorkload, registry::splash2_workloads, Workload};

/// Table I — the cost of eager persistence: ER slowdown vs a
/// no-persistence run (BEST) on the SPLASH2 programs. Paper average: 22×.
pub fn table1(scale: f64) -> Table {
    let mut t = Table::new(
        "Table I: cost of eager data persistence (slowdown of ER vs no persistence)",
        &["program", "slowdown", "paper"],
    );
    let paper: &[(&str, &str)] = &[
        ("barnes", "22x"),
        ("fmm", "24x"),
        ("ocean", "17x"),
        ("raytrace", "6x"),
        ("volrend", "26x"),
        ("water-nsquared", "24x"),
        ("water-spatial", "33x"),
    ];
    let workloads = splash2_workloads(scale);
    let slowdowns: Vec<f64> = par_map(&workloads, |w| {
        let tr = w.trace(1);
        let er = timed(&tr, &PolicyKind::Eager);
        let best = timed(&tr, &PolicyKind::Best);
        er.cycles as f64 / best.cycles as f64
    });
    let mut total = 0.0;
    let mut n = 0usize;
    for (w, &slow) in workloads.iter().zip(&slowdowns) {
        total += slow;
        n += 1;
        let p = paper
            .iter()
            .find(|(name, _)| *name == w.name())
            .map(|(_, v)| *v)
            .unwrap_or("-");
        t.row(vec![w.name().to_string(), speedup(slow), p.to_string()]);
    }
    t.row(vec![
        "average".into(),
        speedup(total / n as f64),
        "22x".into(),
    ]);
    t
}

/// Table II — MDB Mtest execution: ER/AT/SC/SC-offline/BEST, speedups
/// normalized to ER. Paper: 1 / 2.94 / 5.07 / 5.60 / 6.94.
pub fn table2(scale: f64) -> Table {
    let w = MdbWorkload::scaled(scale);
    let tr = w.trace(8);
    let mut t = Table::new(
        "Table II: execution of Mtest on MDB (8 threads)",
        &["method", "cycles(M)", "speedup", "paper"],
    );
    let er = timed(&tr, &PolicyKind::Eager);
    let runs = [
        ("ER", timed(&tr, &PolicyKind::Eager), "1x"),
        ("AT", timed(&tr, &atlas()), "2.94x"),
        ("SC", timed(&tr, &sc_online(&tr)), "5.07x"),
        ("SC-o", timed(&tr, &sc_offline(&tr)), "5.60x"),
        ("BEST", timed(&tr, &PolicyKind::Best), "6.94x"),
    ];
    for (name, r, paper) in runs {
        t.row(vec![
            name.into(),
            format!("{:.1}", r.cycles as f64 / 1e6),
            speedup(r.speedup_over(&er)),
            paper.into(),
        ]);
    }
    t
}

/// Table III — data flush ratios of ER/LA/AT/SC on all twelve
/// workloads, plus the AT/SC and SC/LA columns and the paper's values.
/// Two columns show what SC's sampling burst costs: the share of the
/// writes it sampled at the default capacity, and SC's ratio when the
/// capacity it chose runs from the first store.
pub fn table3(scale: f64) -> Table {
    let mut t = Table::new(
        "Table III: data flush ratios (flushes per persistent store)",
        &[
            "benchmark",
            "writes",
            "fases",
            "ER",
            "LA",
            "AT",
            "SC",
            "sampled",
            "SC@chosen",
            "AT/SC",
            "SC/LA",
            "paper LA",
            "paper AT",
            "paper SC",
        ],
    );
    // the paper averages ratio columns excluding the artificial
    // persistent-array and the already-optimal linked-list and queue
    let excluded = ["persistent-array", "linked-list", "queue"];
    let workloads = all_workloads(scale);
    struct Row3 {
        fases: usize,
        er: nvcache_core::FlushStats,
        la: nvcache_core::FlushStats,
        at: nvcache_core::FlushStats,
        sc: nvcache_core::FlushStats,
        sampled: f64,
        sc_chosen: nvcache_core::FlushStats,
    }
    let stats: Vec<Row3> = par_map(&workloads, |w| {
        let tr = w.trace(1);
        let cfg = adaptive_config_for(&tr);
        let writes = tr.total_writes();
        let sampled = cfg.burst_len.min(writes) as f64 / writes.max(1) as f64;
        let default_size = cfg.knee.default_size;
        let (sc, snap) = flush_stats_traced(
            &tr,
            &PolicyKind::ScAdaptive(cfg),
            &ReplayOptions::sequential(),
            &TelemetryConfig::default(),
        );
        let chosen = snap
            .capacity_timeline()
            .last()
            .map_or(default_size, |&(_, _, _, capacity)| capacity as usize);
        Row3 {
            fases: tr.total_fases(),
            er: flush_stats(&tr, &PolicyKind::Eager),
            la: flush_stats(&tr, &PolicyKind::Lazy),
            at: flush_stats(&tr, &atlas()),
            sc,
            sampled,
            sc_chosen: flush_stats(&tr, &PolicyKind::ScFixed { capacity: chosen }),
        }
    });
    let mut sums = [0.0f64; 7]; // la, at, sc, sampled, sc@chosen, at/sc, sc/la
    let mut n = 0usize;
    for (w, s) in workloads.iter().zip(&stats) {
        let at_sc = s.at.flushes() as f64 / s.sc.flushes().max(1) as f64;
        let sc_la = s.sc.flushes() as f64 / s.la.flushes().max(1) as f64;
        if !excluded.contains(&w.name()) {
            let row = [
                s.la.flush_ratio(),
                s.at.flush_ratio(),
                s.sc.flush_ratio(),
                s.sampled,
                s.sc_chosen.flush_ratio(),
                at_sc,
                sc_la,
            ];
            for (sum, x) in sums.iter_mut().zip(row) {
                *sum += x;
            }
            n += 1;
        }
        let p = w.paper_row();
        t.row(vec![
            w.name().into(),
            s.er.stores.to_string(),
            s.fases.to_string(),
            ratio(s.er.flush_ratio()),
            ratio(s.la.flush_ratio()),
            ratio(s.at.flush_ratio()),
            ratio(s.sc.flush_ratio()),
            pct(s.sampled),
            ratio(s.sc_chosen.flush_ratio()),
            format!("{at_sc:.3}x"),
            format!("{sc_la:.3}x"),
            p.map(|r| ratio(r.la)).unwrap_or_default(),
            p.map(|r| ratio(r.at)).unwrap_or_default(),
            p.map(|r| ratio(r.sc)).unwrap_or_default(),
        ]);
    }
    let avg = sums.map(|x| x / n as f64);
    t.row(vec![
        "average*".into(),
        "-".into(),
        "-".into(),
        ratio(1.0),
        ratio(avg[0]),
        ratio(avg[1]),
        ratio(avg[2]),
        pct(avg[3]),
        ratio(avg[4]),
        format!("{:.3}x", avg[5]),
        format!("{:.3}x", avg[6]),
        ratio(0.16256),
        ratio(0.25066),
        ratio(0.18268),
    ]);
    t
}

/// Table IV — water-spatial across thread counts: instructions, flush
/// ratio and L1 miss ratio for AT, SC and BEST.
pub fn table4(scale: f64, threads: &[usize]) -> Table {
    let w = WaterSpatial::scaled(scale);
    let mut headers: Vec<String> = vec!["metric".into(), "policy".into()];
    headers.extend(threads.iter().map(|t| format!("T={t}")));
    let mut t = Table::new(
        "Table IV: water-spatial by thread count",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let mut rows: Vec<(String, String, Vec<String>)> = vec![
        ("inst(M)".into(), "AT".into(), vec![]),
        ("inst(M)".into(), "SC".into(), vec![]),
        ("inst(M)".into(), "BEST".into(), vec![]),
        ("flush ratio".into(), "AT".into(), vec![]),
        ("flush ratio".into(), "SC".into(), vec![]),
        ("flush ratio".into(), "BEST".into(), vec![]),
        ("L1 miss".into(), "AT".into(), vec![]),
        ("L1 miss".into(), "SC".into(), vec![]),
        ("L1 miss".into(), "BEST".into(), vec![]),
    ];
    let cols = par_map(threads, |&tc| {
        let tr = nvcache_workloads::Workload::trace(&w, tc);
        let cfg = RunConfig {
            machine: machine_for(tc),
        };
        let at = run_policy(&tr, &atlas(), &cfg);
        let sc = run_policy(&tr, &sc_online(&tr), &cfg);
        let best = run_policy(&tr, &PolicyKind::Best, &cfg);
        [at, sc, best]
    });
    for col in &cols {
        for (i, r) in col.iter().enumerate() {
            rows[i]
                .2
                .push(format!("{:.2}", r.instructions as f64 / 1e6));
            rows[3 + i].2.push(pct(r.flush_ratio()));
            rows[6 + i].2.push(pct(r.l1_miss_ratio));
        }
    }
    for (metric, policy, cells) in rows {
        let mut row = vec![metric, policy];
        row.extend(cells);
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.004;

    #[test]
    fn table1_shows_er_much_slower() {
        let t = table1(TINY);
        assert_eq!(t.rows.len(), 8);
        // every slowdown > 2x even at tiny scale
        for r in &t.rows[..7] {
            let v: f64 = r[1].trim_end_matches('x').parse().unwrap();
            assert!(v > 2.0, "{}: {v}", r[0]);
        }
    }

    #[test]
    fn table2_ordering() {
        let t = table2(TINY);
        let cyc: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[1].parse::<f64>().unwrap())
            .collect();
        // [ER, AT, SC, SC-o, BEST]. Our COW B+-tree gives Atlas's table
        // better locality than real MDB (EXPERIMENTS.md, Table II): SC
        // lands close to AT rather than 1.7x ahead; everything else
        // orders as in the paper.
        assert!(cyc[0] > 2.0 * cyc[1], "ER {} >> AT {}", cyc[0], cyc[1]);
        assert!(cyc[2] <= cyc[1] * 1.25, "SC {} ≲ AT {}", cyc[2], cyc[1]);
        assert!(cyc[3] <= cyc[2] * 1.05, "SC-o {} ≤ SC {}", cyc[3], cyc[2]);
        assert!(cyc[4] < cyc[3], "BEST {} fastest (vs {})", cyc[4], cyc[3]);
    }

    #[test]
    fn table3_has_all_rows_and_sane_average() {
        let t = table3(TINY);
        assert_eq!(t.rows.len(), 13); // 12 workloads + average
        let avg = t.rows.last().unwrap();
        let la: f64 = avg[4].parse().unwrap();
        let at: f64 = avg[5].parse().unwrap();
        let sc: f64 = avg[6].parse().unwrap();
        assert!(la <= sc && sc <= at, "LA {la} ≤ SC {sc} ≤ AT {at}");
    }

    #[test]
    fn table4_shape() {
        let t = table4(TINY, &[1, 2]);
        assert_eq!(t.rows.len(), 9);
        assert_eq!(t.rows[0].len(), 4);
    }
}
