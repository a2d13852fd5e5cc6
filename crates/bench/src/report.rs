//! Plain-text table rendering and JSON artifact output for experiment
//! results — the harness prints the same rows/series the paper reports.
//! Also serializes collected [`TelemetrySnapshot`]s into the
//! `repro --telemetry` artifact (envelope + per-run snapshots).

use nvcache_telemetry::{CounterId, TelemetrySnapshot};
use std::fmt::Write as _;

/// A simple aligned text table with a title, built row by row.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// Render as a GitHub markdown table (headers, rule, rows; no title),
    /// the form EXPERIMENTS.md quotes for every experiment
    /// (`crates/bench/tests/experiments_doc.rs` checks each block).
    pub fn to_markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = line(&self.headers);
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for r in &self.rows {
            out.push_str(&line(r));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Pretty JSON rendering (experiment artifacts).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(out, "  \"headers\": {},", json_str_array(&self.headers));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            out.push_str(&json_str_array(r));
        }
        out.push_str(if self.rows.is_empty() {
            "]\n}"
        } else {
            "\n  ]\n}"
        });
        out
    }
}

/// JSON string literal with the escapes our cell contents can contain.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// The `repro --telemetry` JSON artifact: an envelope identifying the
/// experiment plus one snapshot per collected run and cross-run totals.
/// Top-level keys (`experiment`, `scale`, `runs`, `totals`) are stable —
/// the unit tests parse them back.
pub fn telemetry_envelope(
    experiment: &str,
    scale: f64,
    runs: &[(String, TelemetrySnapshot)],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": {},", json_str(experiment));
    let _ = writeln!(out, "  \"scale\": {scale},");
    out.push_str("  \"runs\": [");
    for (i, (label, snap)) in runs.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"label\": {}, \"snapshot\": {}}}",
            json_str(label),
            snap.to_json()
        );
    }
    out.push_str(if runs.is_empty() { "],\n" } else { "\n  ],\n" });
    let total = |id: CounterId| -> u64 { runs.iter().map(|(_, s)| s.counter(id)).sum() };
    let _ = writeln!(
        out,
        "  \"totals\": {{\"runs\": {}, \"stores\": {}, \"flushes_async\": {}, \
         \"flushes_sync\": {}, \"sc_hits\": {}, \"sc_evictions\": {}, \
         \"capacity_changes\": {}, \"dropped_events\": {}}}",
        runs.len(),
        total(CounterId::Stores),
        total(CounterId::FlushesAsync),
        total(CounterId::FlushesSync),
        total(CounterId::ScHits),
        total(CounterId::ScEvictions),
        total(CounterId::CapacityChanges),
        runs.iter().map(|(_, s)| s.dropped_events).sum::<u64>(),
    );
    out.push('}');
    out.push('\n');
    out
}

/// Text summary of collected telemetry: one row per (run, metric).
pub fn telemetry_table(runs: &[(String, TelemetrySnapshot)]) -> Table {
    let mut t = Table::new("Telemetry", &["run", "metric", "value"]);
    for (label, snap) in runs {
        for (metric, value) in snap.summary_rows() {
            t.row(vec![label.clone(), metric, value]);
        }
    }
    t
}

/// Format a ratio like the paper's Table III (5 decimal places).
pub fn ratio(x: f64) -> String {
    format!("{x:.5}")
}

/// Format a speedup like "2.94x".
pub fn speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.25".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["bb".into(), "22".into()]);
        assert_eq!(
            t.to_markdown(),
            "| name | value |\n|---|---|\n| a | 1 |\n| bb | 22 |\n"
        );
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut t = Table::new("q\"x", &["a", "b"]);
        t.row(vec!["1".into(), "two\n".into()]);
        let j = t.to_json();
        assert!(j.contains("\"title\": \"q\\\"x\""));
        assert!(j.contains("[\"a\", \"b\"]"));
        assert!(j.contains("\"two\\n\""));
        let empty = Table::new("e", &["h"]).to_json();
        assert!(empty.contains("\"rows\": []"));
        // and it is JSON: the escapes parse back to the cells
        use crate::jsonv::{parse, Json};
        let v = parse(&j).expect("Table::to_json is JSON");
        assert_eq!(v.get("title").and_then(Json::as_str), Some("q\"x"));
        let rows = v.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0].as_arr().unwrap()[1].as_str(), Some("two\n"));
        assert!(parse(&empty).is_ok());
    }

    #[test]
    fn telemetry_envelope_has_stable_top_level_keys() {
        use nvcache_telemetry::{Recorder, TelemetryConfig, ThreadRecorder};
        let mut rec = ThreadRecorder::new(0, &TelemetryConfig::default());
        rec.add(CounterId::Stores, 7);
        let runs = vec![(
            "ER@1t".to_string(),
            TelemetrySnapshot::from_threads(vec![rec]),
        )];
        let j = telemetry_envelope("table1", 0.05, &runs);
        for key in [
            "\"experiment\": \"table1\"",
            "\"scale\": 0.05",
            "\"runs\": [",
            "\"label\": \"ER@1t\"",
            "\"totals\": {\"runs\": 1, \"stores\": 7",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        let empty = telemetry_envelope("x", 1.0, &[]);
        assert!(empty.contains("\"runs\": []"));
        assert!(empty.contains("\"totals\": {\"runs\": 0"));
    }

    /// What CI's `telemetry smoke` script used to check on the file
    /// `repro fig4 --telemetry` writes: the envelope of a real traced
    /// replay is JSON with the documented shape.
    #[test]
    fn envelope_of_a_traced_replay_parses_with_the_documented_shape() {
        use crate::jsonv::{parse, Json};
        use nvcache_core::{run_policy_traced, PolicyKind, ReplayOptions, RunConfig};
        use nvcache_trace::synth::{cyclic, SynthOpts};
        use nvcache_trace::Trace;
        let opts = SynthOpts {
            writes_per_fase: 50,
            ..SynthOpts::default()
        };
        let (_, snap) = run_policy_traced(
            &Trace::replicated(cyclic(12, 200, &opts).threads[0].clone(), 2),
            &PolicyKind::ScFixed { capacity: 12 },
            &RunConfig::default(),
            &ReplayOptions::sequential(),
            &nvcache_telemetry::TelemetryConfig::default(),
        );
        let runs = vec![("SC \"12\"@2t".to_string(), snap)];
        let v = parse(&telemetry_envelope("fig4", 0.01, &runs)).expect("envelope is JSON");
        assert_eq!(v.get("experiment").and_then(Json::as_str), Some("fig4"));
        assert_eq!(v.get("scale").and_then(Json::as_f64), Some(0.01));
        let parsed = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(parsed.len(), 1);
        let totals = v.get("totals").unwrap();
        assert_eq!(totals.get("runs").and_then(Json::as_f64), Some(1.0));
        assert!(totals.get("stores").and_then(Json::as_f64) > Some(0.0));
        let snap = parsed[0].get("snapshot").unwrap();
        for key in ["counters", "histograms", "timeline", "per_thread"] {
            assert!(snap.get(key).is_some(), "snapshot lacks {key}");
        }
    }

    #[test]
    fn telemetry_table_renders_per_run_rows() {
        use nvcache_telemetry::{Recorder, TelemetryConfig, ThreadRecorder};
        let mut rec = ThreadRecorder::new(0, &TelemetryConfig::default());
        rec.add(CounterId::Stores, 3);
        let runs = vec![(
            "AT@8t".to_string(),
            TelemetrySnapshot::from_threads(vec![rec]),
        )];
        let t = telemetry_table(&runs);
        let s = t.render();
        assert!(s.contains("AT@8t"));
        assert!(s.contains("stores"));
    }

    #[test]
    fn formatters() {
        assert_eq!(ratio(0.0625), "0.06250");
        assert_eq!(speedup(2.941), "2.94x");
        assert_eq!(pct(0.0678), "6.78%");
    }
}
