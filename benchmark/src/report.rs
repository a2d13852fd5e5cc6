//! What a run prints and writes: the human-readable metric table, the
//! result-set file `check` compares, and the one-line JSON object the
//! repo driver reads from the end of standard output.

use crate::json::Json;
use crate::metrics::{self, registry, Gate, MetricDef};
use crate::stats::Stat;
use crate::workloads::Outcome;

/// Facts about the host and the run, recorded with every result.
pub struct RunInfo {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Hardware threads the host offers.
    pub nproc: usize,
    /// CPU the process is pinned to; `None` = unpinned.
    pub pinned_cpu: Option<usize>,
}

/// The compiler the benchmark was built with (from `build.rs`).
pub const RUSTC: &str = env!("NVCACHE_BENCHMARK_RUSTC");

fn gate_words(m: &MetricDef) -> (&'static str, Json) {
    match m.gate {
        Gate::Within(b) => ("within", Json::Num(b)),
        Gate::Exact => ("exact", Json::Num(0.0)),
        Gate::Zero => ("zero", Json::Num(0.0)),
        Gate::None => ("none", Json::Null),
    }
}

fn metric_json(m: &MetricDef, s: &Stat) -> Json {
    let (gate, bound) = gate_words(m);
    let mut pairs = vec![
        ("value", Json::Num(s.value)),
        ("unit", Json::str(&m.unit)),
        ("better", Json::str(m.better.word())),
        ("gate", Json::str(gate)),
        ("bound", bound),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ];
    if m.gate == Gate::None {
        // a per-layer metric: what it is predicted to move, and where
        pairs.push(("moves", Json::str(metrics::moves(&m.name))));
    }
    Json::obj(pairs)
}

fn section<'a>(
    table: impl Iterator<Item = &'a MetricDef>,
    measured: &[(&'static str, Stat)],
) -> Json {
    // registry order, so files of two runs line up
    Json::Obj(
        table
            .filter_map(|m| {
                let (_, s) = measured.iter().find(|(n, _)| *n == m.name)?;
                Some((m.name.clone(), metric_json(m, s)))
            })
            .collect(),
    )
}

/// The result-set document for `outcomes`.
pub fn result_set(info: &RunInfo, outcomes: &[Outcome]) -> Json {
    Json::obj([
        ("schema", Json::str("nvcache-benchmark/1")),
        ("seed", Json::Num(info.seed as f64)),
        ("seconds", Json::Num(info.seconds)),
        ("trace", Json::Bool(info.trace)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(info.nproc as f64)),
                (
                    "pinned_cpu",
                    info.pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
                ),
                ("rustc", Json::str(RUSTC)),
            ]),
        ),
        (
            "workloads",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("name", Json::str(o.workload)),
                            ("correct", Json::Bool(o.correct)),
                            ("attempted", Json::Num(o.attempted as f64)),
                            ("failed", Json::Num(o.failed as f64)),
                            (
                                "problems",
                                Json::Arr(o.problems.iter().map(Json::str).collect()),
                            ),
                            ("end_to_end", section(registry().end_to_end(), &o.e2e)),
                            ("per_layer", section(registry().per_layer.iter(), &o.layer)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`. Untraced, the metrics are every contract end-to-end
/// metric; traced, every per-layer metric — one this workload does not
/// measure reads 0 (README, "What 0 means in a traced result line").
pub fn driver_line(o: &Outcome, trace: bool) -> Json {
    let entry = |m: &MetricDef, measured: &[(&'static str, Stat)]| {
        let value = measured
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or(0.0, |(_, s)| s.value);
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&m.unit))]),
        )
    };
    let r = registry();
    let metrics: Vec<(String, Json)> = if trace {
        r.per_layer.iter().map(|m| entry(m, &o.layer)).collect()
    } else {
        r.contract.iter().map(|m| entry(m, &o.e2e)).collect()
    };
    Json::obj([
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if a >= 1e6 {
        format!("{:.4e}", v)
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.6}")
    }
}

/// Print every measured metric by name with unit, direction and bound.
pub fn print_outcome(o: &Outcome) {
    println!(
        "== {}: {} ({} attempted, {} failed)",
        o.workload,
        if o.correct { "correct" } else { "INCORRECT" },
        o.attempted,
        o.failed
    );
    if let Some(w) = registry().workloads.iter().find(|w| w.name == o.workload) {
        println!("   why: {}", w.why);
    }
    for p in &o.problems {
        println!("   problem: {p}");
    }
    let row = |m: &MetricDef, measured: &[(&'static str, Stat)]| {
        let Some((_, s)) = measured.iter().find(|(n, _)| *n == m.name) else {
            return;
        };
        let bound = match m.gate {
            Gate::Within(b) => format!("may worsen {:.0}%", b * 100.0),
            Gate::Exact => "exact".to_string(),
            Gate::Zero => "must be 0".to_string(),
            Gate::None => format!("moves {}", metrics::moves(&m.name)),
        };
        let spread = if s.n > 1 {
            format!(
                "  [q1 {} q3 {} n {}]",
                fmt_value(s.q1),
                fmt_value(s.q3),
                s.n
            )
        } else {
            String::new()
        };
        println!(
            "   {:<34} {:>14} {:<9} {:<6} {}{}",
            m.name,
            fmt_value(s.value),
            m.unit,
            m.better.word(),
            bound,
            spread
        );
    };
    registry().end_to_end().for_each(|m| row(m, &o.e2e));
    registry().per_layer.iter().for_each(|m| row(m, &o.layer));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::ResultSet;

    fn sample() -> Outcome {
        Outcome {
            workload: "embed_tree_e",
            correct: true,
            attempted: 1000,
            failed: 0,
            e2e: vec![
                ("setup_s", Stat::of(&[0.5, 0.25, 0.75])),
                ("ops_s", Stat::of(&[100.0, 110.0, 90.0, 105.0, 95.0])),
                ("flush_ratio", Stat::one(0.957123456789)),
                ("nvm_flushes_per_op", Stat::one(3.25)),
                ("scan_p50_ns", Stat::of(&[5000.0, 5100.0])),
                ("failed_frac", Stat::one(0.0)),
            ],
            layer: vec![("pmem.flushes", Stat::one(12345.0))],
            problems: vec![],
        }
    }

    fn info() -> RunInfo {
        RunInfo {
            seed: 42,
            seconds: 10.0,
            trace: false,
            nproc: 2,
            pinned_cpu: Some(0),
        }
    }

    #[test]
    fn result_set_round_trips_through_the_check_parser() {
        let o = sample();
        let text = result_set(&info(), std::slice::from_ref(&o)).pretty();
        let parsed = ResultSet::parse(&text).unwrap();
        assert_eq!(parsed.seed, 42);
        let w = &parsed.workloads[0];
        assert_eq!(w.name, "embed_tree_e");
        assert!(w.correct);
        for (name, stat) in &o.e2e {
            let got = w.e2e.iter().find(|(n, _)| n == name).unwrap().1;
            assert_eq!(got, *stat, "{name}");
        }
        assert_eq!(w.layer[0], ("pmem.flushes".to_string(), Stat::one(12345.0)));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let o = sample();
        let line = driver_line(&o, false);
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["setup_s", "ops_s", "flush_ratio", "nvm_flushes_per_op"]
        );
        assert!(!line.line().contains('\n'));
        // traced: every per-layer metric, unmeasured ones as 0
        let traced = driver_line(&o, true);
        let m = traced.get("metrics").unwrap();
        assert_eq!(m.members().len(), registry().per_layer.len());
        assert_eq!(
            m.get("pmem.flushes")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12345.0)
        );
        assert_eq!(
            m.get("net.frames_in")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
