//! The metric registry: every workload and metric the benchmark knows,
//! with unit, direction and regression rule.
//!
//! `../BENCHMARK.json` is the source: its workloads, its end-to-end
//! metrics with their bounds and its per-layer metrics are compiled in
//! and parsed once, so what `run` prints, what `check` gates with and
//! what the repo driver enforces are one set of numbers. The driver
//! requires each of its end-to-end metrics from every workload on every
//! run and never 0, so the metrics only some workloads report (latency
//! per op type, space, the simulated speed-up …) cannot be listed there;
//! they are [`TOOL_TIER`] below, each with its one rule.

use std::sync::OnceLock;

use crate::json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, flushes).
    Lower,
    /// Larger values are better (throughput, speed-up).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn from_word(word: &str) -> Option<Better> {
        match word {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Relative worsening of `new` against `base` (positive = worse).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return if new == base { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// How `check` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// May worsen by at most this share of the baseline median.
    Within(f64),
    /// A count that repeats exactly for one seed: must be bit-equal.
    Exact,
    /// Must be zero (failures, lost writes).
    Zero,
    /// Reported, never gated (per-layer metrics).
    None,
}

/// One workload.
pub struct WorkloadDef {
    /// Final name.
    pub name: String,
    /// One line: why it exists.
    pub why: String,
}

/// One metric.
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression rule.
    pub gate: Gate,
}

use Better::{Higher, Lower};

/// End-to-end metrics beyond `BENCHMARK.json`'s: reported by the
/// workloads they apply to, stored in the result set, gated by `check`.
/// Definitions are in README.md.
#[rustfmt::skip]
const TOOL_TIER: &[(&str, &str, Better, Gate)] = &[
    ("get_p50_ns", "ns", Lower, Gate::Within(0.10)),
    ("get_p99_ns", "ns", Lower, Gate::Within(0.15)),
    ("write_p50_ns", "ns", Lower, Gate::Within(0.10)),
    ("write_p99_ns", "ns", Lower, Gate::Within(0.15)),
    ("scan_p50_ns", "ns", Lower, Gate::Within(0.10)),
    ("scan_p99_ns", "ns", Lower, Gate::Within(0.15)),
    ("space_amp", "ratio", Lower, Gate::Exact),
    ("failed_frac", "fraction", Lower, Gate::Zero),
    ("acked_lost", "count", Lower, Gate::Zero),
    ("sim_speedup_sc_vs_er", "ratio", Higher, Gate::Exact),
    ("paper_gap_log10", "dex", Lower, Gate::Exact),
];

/// What a per-layer metric is predicted to move (`metric @ workload`),
/// by the layer its name begins with.
pub fn moves(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "workloads" | "trace" => "setup_s @ replay_*",
        "locality" => "flush_ratio @ embed_hash_a, replay_splash; ops_s @ replay_splash",
        "core" => "ops_s, flush_ratio, paper_gap_log10 @ replay_*",
        "cachesim" => "sim_speedup_sc_vs_er @ replay_*",
        "pmem" => "nvm_flushes_per_op, write_p50_ns @ embed_hash_a, embed_tree_f",
        "fase" => "flush_ratio, write_p50_ns @ embed_*",
        "treestore" => {
            "get_p50_ns, write_p50_ns @ embed_tree_f; scan_p50_ns, space_amp @ embed_tree_e; \
             flush_ratio @ replay_mdb"
        }
        "shard" => {
            "ops_s, get_p50_ns, write_p50_ns @ embed_hash_a; predicted invisible @ serve_hash_a"
        }
        "engine" => "ops_s @ embed_tree_f",
        "store" => "get_p50_ns @ embed_hash_a",
        "queue" => "ops_s, get_p50_ns, write_p50_ns @ serve_hash_a; no move @ embed_*",
        "proto" => "ops_s @ serve_hash_a",
        "net" => "ops_s, get_p50_ns @ serve_hash_a",
        "client" => "the benchmark's own boundary (ungated)",
        "telemetry" => "cost of observing: traced vs untraced",
        _ => "",
    }
}

/// Everything `BENCHMARK.json` fixes, plus the tool tier.
pub struct Registry {
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: f64,
    /// The workloads, in file order.
    pub workloads: Vec<WorkloadDef>,
    /// The end-to-end metrics of `BENCHMARK.json`: every workload reports
    /// each on every run, never 0; they make the driver's result line.
    pub contract: Vec<MetricDef>,
    /// The tool tier.
    pub tool: Vec<MetricDef>,
    /// The per-layer metrics, in file order.
    pub per_layer: Vec<MetricDef>,
}

impl Registry {
    fn parse(text: &str) -> Result<Registry, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| doc.get(key).map_or(&[][..], Json::items);
        let text_of = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry lacks '{key}'"))
        };
        let metric = |j: &Json, bounded: bool| -> Result<MetricDef, String> {
            let name = text_of(j, "name")?;
            let gate = if bounded {
                let bound = j.get("bound").and_then(Json::as_f64);
                Gate::Within(bound.ok_or_else(|| format!("BENCHMARK.json: {name}: no bound"))?)
            } else {
                Gate::None
            };
            Ok(MetricDef {
                unit: text_of(j, "unit")?,
                better: Better::from_word(&text_of(j, "better")?)
                    .ok_or_else(|| format!("BENCHMARK.json: {name}: bad 'better'"))?,
                name,
                gate,
            })
        };
        Ok(Registry {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")
                .iter()
                .map(|w| {
                    Ok(WorkloadDef {
                        name: text_of(w, "name")?,
                        why: text_of(w, "why")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            contract: list("end_to_end")
                .iter()
                .map(|m| metric(m, true))
                .collect::<Result<_, _>>()?,
            tool: TOOL_TIER
                .iter()
                .map(|&(name, unit, better, gate)| MetricDef {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    better,
                    gate,
                })
                .collect(),
            per_layer: list("per_layer")
                .iter()
                .map(|m| metric(m, false))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Every end-to-end metric: the contract's, then the tool tier.
    pub fn end_to_end(&self) -> impl Iterator<Item = &MetricDef> + Clone {
        self.contract.iter().chain(&self.tool)
    }

    /// Look a metric up by name, end-to-end or per-layer.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// Is `name` a workload?
    pub fn is_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|w| w.name == name)
    }
}

/// The registry, parsed from the compiled-in `BENCHMARK.json` on first
/// use.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Registry::parse(include_str!("../../BENCHMARK.json")).unwrap_or_else(|e| panic!("{e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn registry_meets_the_driver_contract() {
        let r = registry();
        assert_eq!(r.workloads.len(), 6);
        assert_eq!(r.end_to_end().count(), 15);
        assert_eq!(r.per_layer.len(), 95);
        let mut names: Vec<&str> = r
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(r.end_to_end().chain(&r.per_layer).map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "a name breaks the rules");
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for w in &r.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in r.end_to_end().chain(&r.per_layer) {
            assert!(unit_ok(&m.unit), "{}: unit {}", m.name, m.unit);
            assert!(
                m.gate != Gate::None || !moves(&m.name).is_empty(),
                "{}: a per-layer metric of no known layer",
                m.name
            );
        }
        let bound = |m: &MetricDef| match m.gate {
            Gate::Within(b) => b,
            other => panic!("{}: {other:?} in the contract", m.name),
        };
        let setup = r
            .contract
            .iter()
            .find(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
            .expect("setup_s");
        for m in &r.contract {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{}", m.name);
            assert!(bound(m) <= bound(setup), "setup_s has the largest bound");
        }
        assert!((1.0..=60.0).contains(&r.run_seconds) && r.run_seconds.fract() == 0.0);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 0.0), 0.0);
        assert!(Better::Lower.worsening(0.0, 1.0).is_infinite());
    }
}
