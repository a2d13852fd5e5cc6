//! `benchmark check BASE.json[,…] NEW.json[,…]`: compare two sides, each
//! one or more result sets of one commit, metric by metric against the
//! registry's gates — `BENCHMARK.json`'s bounds for the metrics it lists.
//! This is the tool later perf and simplicity PRs (and this PR's
//! acceptance run) are judged with.
//!
//! A side's value is the median over its result sets and its spread the
//! distance between their quartiles as a share of that median. A side of
//! one result set has no run-to-run spread to show; the spread of the
//! samples inside the run (timed repeats, set-ups) stands in for it,
//! which sees the host's drift over seconds but not over minutes.
//!
//! Verdicts, one per workload × end-to-end metric:
//! * `ok` — not worse than the baseline by more than the bound;
//! * `improved` — an exact count that got better (never a failure);
//! * `regressed` — worse by more than the bound, an exact count that got
//!   worse or differs between runs of one side, a must-be-zero metric
//!   that is not, or an incorrect workload;
//! * `unresolved` — either side's spread is wider than the bound, so the
//!   comparison cannot say "unchanged" (unless every run of the new side
//!   reads better than every run of the baseline).
//!
//! Per-layer metrics both sides measured are listed below each
//! workload's rows, never gated.

use crate::json::Json;
use crate::metrics::{registry, Better, Gate};
use crate::stats::Stat;

/// One workload of a parsed result set.
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Did the run verify its outputs?
    pub correct: bool,
    /// End-to-end metrics measured.
    pub e2e: Vec<(String, Stat)>,
    /// Per-layer metrics measured.
    pub layer: Vec<(String, Stat)>,
}

/// A parsed result-set file.
pub struct ResultSet {
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Workloads in file order.
    pub workloads: Vec<WorkloadResult>,
}

fn stats_of(section: Option<&Json>) -> Result<Vec<(String, Stat)>, String> {
    let mut out = Vec::new();
    for (name, m) in section.map_or(&[][..], Json::members) {
        let num = |key: &str| {
            m.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name}: missing number '{key}'"))
        };
        out.push((
            name.clone(),
            Stat {
                value: num("value")?,
                q1: num("q1")?,
                q3: num("q3")?,
                n: num("n")? as usize,
            },
        ));
    }
    Ok(out)
}

impl ResultSet {
    /// Parse the document `run` writes.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some("nvcache-benchmark/1") {
            return Err("not a nvcache-benchmark/1 result set".into());
        }
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("missing seed")? as u64;
        let mut workloads = Vec::new();
        for w in doc.get("workloads").map_or(&[][..], Json::items) {
            workloads.push(WorkloadResult {
                name: w
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("workload without a name")?
                    .to_string(),
                correct: w.get("correct").and_then(Json::as_bool).unwrap_or(false),
                e2e: stats_of(w.get("end_to_end"))?,
                layer: stats_of(w.get("per_layer"))?,
            });
        }
        Ok(ResultSet { seed, workloads })
    }
}

/// Outcome of one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the gate.
    Ok,
    /// An exact count that got better.
    Improved,
    /// Beyond the gate.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What the runs of one side measured for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median over the side's runs (the run's own value when one).
    pub value: f64,
    /// Interquartile range over the runs as a share of `value`; of the
    /// samples inside the run when there is one run.
    pub spread: f64,
    /// Worst-to-best range a clear win must clear: the extremes over
    /// several runs, the quartiles of one.
    pub lo: f64,
    /// See `lo`.
    pub hi: f64,
}

impl Side {
    /// From the metric as each of the side's result sets holds it (at
    /// least one).
    pub fn of(runs: &[Stat]) -> Side {
        if let [one] = runs {
            return Side {
                value: one.value,
                spread: one.spread(),
                lo: one.q1,
                hi: one.q3,
            };
        }
        let values: Vec<f64> = runs.iter().map(|s| s.value).collect();
        let all = Stat::of(&values);
        Side {
            value: all.value,
            spread: all.spread(),
            lo: values.iter().copied().fold(f64::INFINITY, f64::min),
            hi: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Judge `new` against `base` for one metric on one workload.
/// `identical` (same-commit comparison) turns any difference in an exact
/// count into a regression.
pub fn judge(gate: Gate, better: Better, base: &Side, new: &Side, identical: bool) -> Verdict {
    match gate {
        Gate::None => Verdict::Ok,
        Gate::Zero => {
            if new.lo == 0.0 && new.hi == 0.0 {
                Verdict::Ok
            } else {
                Verdict::Regressed
            }
        }
        Gate::Within(bound) => {
            if base.spread.max(new.spread) > bound {
                // too noisy to call unchanged — unless everything the new
                // side measured beats everything the baseline did
                let clear_win = match better {
                    Better::Lower => new.hi < base.lo,
                    Better::Higher => new.lo > base.hi,
                };
                if clear_win {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                }
            } else if better.worsening(base.value, new.value) > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            }
        }
        Gate::Exact => {
            let w = better.worsening(base.value, new.value);
            // a count that differs between runs of one commit is broken
            let steady = base.lo == base.hi && new.lo == new.hi;
            if steady && w == 0.0 {
                Verdict::Ok
            } else if !steady || identical || w > 0.0 {
                Verdict::Regressed
            } else {
                Verdict::Improved
            }
        }
    }
}

/// Workload `name` in each result set that has it.
fn named<'a>(sets: &'a [ResultSet], name: &str) -> Vec<&'a WorkloadResult> {
    sets.iter()
        .filter_map(|r| r.workloads.iter().find(|w| w.name == name))
        .collect()
}

/// The statistic of metric `name` in each workload result that has it.
fn stats_named(
    runs: &[&WorkloadResult],
    name: &str,
    table: fn(&WorkloadResult) -> &[(String, Stat)],
) -> Vec<Stat> {
    runs.iter()
        .filter_map(|w| table(w).iter().find(|(m, _)| m == name))
        .map(|(_, s)| *s)
        .collect()
}

/// Compare two sides, printing one row per workload × end-to-end metric
/// and, below them, one per per-layer metric every result set measured
/// (informational, never gated). Returns how many rows regressed.
pub fn compare(base: &[ResultSet], new: &[ResultSet], identical: bool) -> usize {
    let mut regressed = 0usize;
    let seed = base[0].seed;
    if base.iter().chain(new).any(|r| r.seed != seed) {
        println!("note: seeds differ: exact counts are only comparable for one seed");
    }
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "base", "new", "change", "spread"
    );
    let row = |workload: &str, metric: &str, b: &Side, n: &Side, verdict: &str| {
        let change = if b.value == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.2}%", (n.value - b.value) / b.value * 100.0)
        };
        println!(
            "{:<14} {:<36} {:>14.6} {:>14.6} {:>9} {:>7.2}%  {}",
            workload,
            metric,
            b.value,
            n.value,
            change,
            b.spread.max(n.spread) * 100.0,
            verdict
        );
    };
    for first in &base[0].workloads {
        let name = first.name.as_str();
        let (b, n) = (named(base, name), named(new, name));
        if n.len() < new.len() {
            println!("{name:<14} missing from a new result set: regressed");
            regressed += 1;
            continue;
        }
        if n.iter().any(|w| !w.correct) {
            println!("{name:<14} a new run is INCORRECT: regressed");
            regressed += 1;
        }
        for (metric, _) in &first.e2e {
            let Some(def) = registry().find(metric) else {
                continue;
            };
            let news = stats_named(&n, metric, |w| &w.e2e);
            if news.len() < n.len() {
                println!("{name:<14} {metric:<36} missing from a new result set: regressed");
                regressed += 1;
                continue;
            }
            let (bs, ns) = (
                Side::of(&stats_named(&b, metric, |w| &w.e2e)),
                Side::of(&news),
            );
            let verdict = judge(def.gate, def.better, &bs, &ns, identical);
            regressed += (verdict == Verdict::Regressed) as usize;
            row(name, metric, &bs, &ns, verdict.word());
        }
        for (metric, _) in &first.layer {
            let (bl, nl) = (
                stats_named(&b, metric, |w| &w.layer),
                stats_named(&n, metric, |w| &w.layer),
            );
            if bl.len() == b.len() && nl.len() == n.len() {
                row(name, metric, &Side::of(&bl), &Side::of(&nl), "");
            }
        }
    }
    regressed
}

/// How `check` is called.
pub const USAGE: &str =
    "benchmark check BASE.json[,BASE2.json...] NEW.json[,NEW2.json...] [--identical]";

/// `check`: each side is one result set or several of one commit,
/// comma-separated; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let identical = args.iter().any(|a| a == "--identical");
    let sides: Vec<&String> = args.iter().filter(|a| *a != "--identical").collect();
    let [a, b] = sides[..] else {
        eprintln!("usage: {USAGE}");
        return 2;
    };
    let load = |paths: &String| -> Result<Vec<ResultSet>, String> {
        paths
            .split(',')
            .map(|path| {
                std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|t| ResultSet::parse(&t))
                    .map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    match (load(a), load(b)) {
        (Ok(base), Ok(new)) => {
            let regressed = compare(&base, &new, identical);
            if regressed > 0 {
                println!("{regressed} regressed");
                1
            } else {
                println!("no regression");
                0
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(v: f64) -> Side {
        Side::of(&[Stat {
            value: v,
            q1: v * 0.995,
            q3: v * 1.005,
            n: 7,
        }])
    }

    fn runs(values: &[f64]) -> Side {
        Side::of(&values.iter().map(|v| Stat::one(*v)).collect::<Vec<_>>())
    }

    #[test]
    fn bounded_metrics() {
        let g = Gate::Within(0.10);
        let j = |b: &Side, n: &Side, better| judge(g, better, b, n, false);
        assert_eq!(j(&tight(100.0), &tight(105.0), Better::Lower), Verdict::Ok);
        assert_eq!(
            j(&tight(100.0), &tight(111.0), Better::Lower),
            Verdict::Regressed
        );
        assert_eq!(
            j(&tight(100.0), &tight(89.0), Better::Higher),
            Verdict::Regressed
        );
        assert_eq!(j(&tight(100.0), &tight(150.0), Better::Higher), Verdict::Ok);
        // one run whose repeats spread wider than the bound: unresolved,
        // unless a clear win
        let noisy = Side::of(&[Stat {
            value: 100.0,
            q1: 90.0,
            q3: 110.0,
            n: 7,
        }]);
        assert_eq!(j(&noisy, &tight(101.0), Better::Lower), Verdict::Unresolved);
        assert_eq!(j(&noisy, &tight(80.0), Better::Lower), Verdict::Ok);
    }

    #[test]
    fn several_runs_per_side_give_the_run_to_run_spread() {
        let g = Gate::Within(0.10);
        let j = |b: &Side, n: &Side| judge(g, Better::Higher, b, n, false);
        // the runs of one commit 15 % apart: a run 12 % low is unresolved,
        // where two single steady-looking runs would read `regressed`
        let base = runs(&[100.0, 90.0, 109.0, 98.0, 103.0]);
        assert_eq!((base.value, base.lo, base.hi), (100.0, 90.0, 109.0));
        assert!(base.spread > 0.10);
        assert_eq!(j(&base, &runs(&[88.0, 95.0, 91.0])), Verdict::Unresolved);
        assert_eq!(j(&tight(100.0), &tight(88.0)), Verdict::Regressed);
        // every new run above every base run: a clear win
        assert_eq!(j(&base, &runs(&[110.0, 125.0, 118.0])), Verdict::Ok);
        assert_eq!(j(&base, &runs(&[108.0, 125.0, 118.0])), Verdict::Unresolved);
        // steady sides: medians compared against the bound
        let steady = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            j(&steady, &runs(&[95.0, 96.0, 94.0, 95.5, 94.5])),
            Verdict::Ok
        );
        assert_eq!(
            j(&steady, &runs(&[85.0, 86.0, 84.0, 85.5, 84.5])),
            Verdict::Regressed
        );
    }

    #[test]
    fn exact_and_zero_metrics() {
        let one = |v| runs(&[v]);
        let j = |b, n, same| judge(Gate::Exact, Better::Lower, &b, &n, same);
        assert_eq!(j(one(0.737879), one(0.737879), true), Verdict::Ok);
        assert_eq!(j(one(0.737879), one(0.737880), false), Verdict::Regressed);
        assert_eq!(j(one(0.737879), one(0.5), false), Verdict::Improved);
        assert_eq!(j(one(0.737879), one(0.5), true), Verdict::Regressed);
        // runs of one side that disagree on an exact count
        assert_eq!(
            j(one(0.5), runs(&[0.5, 0.5, 0.4]), false),
            Verdict::Regressed
        );
        assert_eq!(j(one(0.5), runs(&[0.5, 0.5, 0.5]), false), Verdict::Ok);
        let z = |n: Side| judge(Gate::Zero, Better::Lower, &one(0.0), &n, false);
        assert_eq!(z(one(0.0)), Verdict::Ok);
        assert_eq!(z(one(1.0)), Verdict::Regressed);
        assert_eq!(z(runs(&[0.0, 0.0, 2.0])), Verdict::Regressed);
    }

    #[test]
    fn parser_rejects_foreign_documents() {
        assert!(ResultSet::parse("{}").is_err());
        assert!(ResultSet::parse("not json").is_err());
        let ok = "{\"schema\": \"nvcache-benchmark/1\", \"seed\": 7, \"workloads\": []}";
        assert_eq!(ResultSet::parse(ok).unwrap().seed, 7);
        let bad = "{\"schema\": \"nvcache-benchmark/1\", \"seed\": 7, \"workloads\": \
                   [{\"name\": \"w\", \"end_to_end\": {\"ops_s\": {\"value\": 1}}}]}";
        assert!(ResultSet::parse(bad).is_err());
    }
}
