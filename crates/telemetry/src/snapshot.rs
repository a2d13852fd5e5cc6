//! Aggregation of per-thread shards into one [`TelemetrySnapshot`].
//!
//! Determinism contract: [`TelemetrySnapshot::from_threads`] must be
//! called with shards **in thread-id order** (the replay drivers
//! re-assemble worker results by tid before aggregating, exactly like
//! the report path). Given that, the snapshot — including the merged
//! timeline — is a pure function of the workload, never of scheduling.

use crate::hist::Histogram;
use crate::recorder::{ThreadRecorder, ALL_COUNTERS, ALL_HISTS, NUM_COUNTERS, NUM_HISTS};
use crate::ring::Event;
use crate::series::Sample;
use std::fmt::Write as _;

/// The aggregated result of one instrumented run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Number of thread shards merged.
    pub threads: usize,
    /// Summed counters (shard order — index with `CounterId as usize`).
    pub counters: [u64; NUM_COUNTERS],
    /// Each thread's counter shard, in tid order.
    pub per_thread: Vec<[u64; NUM_COUNTERS]>,
    /// Merged histograms (index with `HistId as usize`).
    pub hists: [Histogram; NUM_HISTS],
    /// Merged timeline, sorted by `(t, tid, seq)`.
    pub timeline: Vec<Event>,
    /// Events lost to per-thread ring wraparound.
    pub dropped_events: u64,
    /// Merged runtime-sampler series, sorted by `(t, tid)` (each
    /// thread's samples are already time-ordered).
    pub series: Vec<Sample>,
}

impl TelemetrySnapshot {
    /// Merge per-thread shards. `shards` must be in tid order.
    pub fn from_threads(shards: Vec<ThreadRecorder>) -> Self {
        let mut counters = [0u64; NUM_COUNTERS];
        let mut per_thread = Vec::with_capacity(shards.len());
        let mut hists: [Histogram; NUM_HISTS] = std::array::from_fn(|_| Histogram::new());
        let mut timeline = Vec::new();
        let mut series = Vec::new();
        let mut dropped = 0u64;
        let threads = shards.len();
        for shard in shards {
            dropped += shard.ring().dropped();
            let (_tid, c, h, events, samples) = shard.into_parts();
            for (acc, v) in counters.iter_mut().zip(&c) {
                *acc += v;
            }
            per_thread.push(c);
            for (acc, v) in hists.iter_mut().zip(&h) {
                acc.merge(v);
            }
            timeline.extend(events);
            series.extend(samples);
        }
        // deterministic interleaving: time, then tid, then per-thread seq
        timeline.sort_by_key(|e| (e.t, e.tid, e.seq));
        series.sort_by_key(|s| (s.t, s.tid));
        TelemetrySnapshot {
            threads,
            counters,
            per_thread,
            hists,
            timeline,
            dropped_events: dropped,
            series,
        }
    }

    /// One counter's aggregated value.
    pub fn counter(&self, id: crate::recorder::CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// One merged histogram.
    pub fn hist(&self, id: crate::recorder::HistId) -> &Histogram {
        &self.hists[id as usize]
    }

    /// Total flushes (async + sync).
    pub fn flushes(&self) -> u64 {
        self.counter(crate::CounterId::FlushesAsync) + self.counter(crate::CounterId::FlushesSync)
    }

    /// Capacity-change events in timeline order — the adaptive
    /// trajectory: `(t, tid, knee, new_capacity)`.
    pub fn capacity_timeline(&self) -> Vec<(u64, u32, u64, u64)> {
        self.timeline
            .iter()
            .filter(|e| e.kind == crate::EventKind::CapacityChange)
            .map(|e| (e.t, e.tid, e.a, e.b))
            .collect()
    }

    /// Serialize to JSON (hand-rolled like `bench::report`; every key is
    /// a static identifier and every value numeric, so no escaping is
    /// needed).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "      \"threads\": {},", self.threads);
        out.push_str("      \"counters\": {");
        for (i, id) in ALL_COUNTERS.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {}",
                if i == 0 { "" } else { ", " },
                id.name(),
                self.counters[*id as usize]
            );
        }
        out.push_str("},\n");
        out.push_str("      \"per_thread\": [");
        for (i, shard) in self.per_thread.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"tid\": {}, \"stores\": {}, \"flushes_async\": {}, \"flushes_sync\": {}, \"sc_hits\": {}}}",
                if i == 0 { "" } else { ", " },
                i,
                shard[crate::CounterId::Stores as usize],
                shard[crate::CounterId::FlushesAsync as usize],
                shard[crate::CounterId::FlushesSync as usize],
                shard[crate::CounterId::ScHits as usize],
            );
        }
        out.push_str("],\n");
        out.push_str("      \"histograms\": {\n");
        for (i, id) in ALL_HISTS.iter().enumerate() {
            let h = &self.hists[*id as usize];
            // trim trailing empty buckets for readability
            let last = h
                .buckets
                .iter()
                .rposition(|&b| b != 0)
                .map(|p| p + 1)
                .unwrap_or(0);
            let cells: Vec<String> = h.buckets[..last].iter().map(|b| b.to_string()).collect();
            let _ = write!(
                out,
                "        \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}",
                id.name(),
                h.count,
                h.sum,
                h.max,
                cells.join(", ")
            );
            out.push_str(if i + 1 == ALL_HISTS.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("      },\n");
        let _ = writeln!(out, "      \"dropped_events\": {},", self.dropped_events);
        out.push_str("      \"series\": [");
        for (i, s) in self.series.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n        {{\"t\": {}, \"tid\": {}, \"ring_depth\": {}, \"capacity\": {}, \"hit_ratio_bp\": {}, \"stalls\": {}}}",
                if i == 0 { "" } else { "," },
                s.t,
                s.tid,
                s.ring_depth,
                s.capacity,
                s.hit_ratio_bp,
                s.stalls
            );
        }
        out.push_str(if self.series.is_empty() {
            "],\n"
        } else {
            "\n      ],\n"
        });
        out.push_str("      \"timeline\": [");
        for (i, e) in self.timeline.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n        {{\"t\": {}, \"tid\": {}, \"kind\": \"{}\", \"a\": {}, \"b\": {}}}",
                if i == 0 { "" } else { "," },
                e.t,
                e.tid,
                e.kind.name(),
                e.a,
                e.b
            );
        }
        out.push_str(if self.timeline.is_empty() {
            "]\n    }"
        } else {
            "\n      ]\n    }"
        });
        out
    }

    /// Human-readable summary rows: `(metric, value)` pairs for the
    /// harness's text table.
    pub fn summary_rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for id in ALL_COUNTERS {
            let v = self.counters[id as usize];
            if v != 0 {
                rows.push((id.name().to_string(), v.to_string()));
            }
        }
        for id in ALL_HISTS {
            let h = &self.hists[id as usize];
            if !h.is_empty() {
                rows.push((
                    format!("{} (mean/max)", id.name()),
                    format!("{:.1}/{}", h.mean(), h.max),
                ));
                // latency spans get the paper-facing percentile triple
                if id.name().ends_with("_ns") {
                    let (p50, p99, p999) = h.percentiles();
                    rows.push((
                        format!("{} (p50/p99/p999)", id.name()),
                        format!("{p50}/{p99}/{p999}"),
                    ));
                }
            }
        }
        if !self.series.is_empty() {
            rows.push((
                "sampler series (kept)".to_string(),
                self.series.len().to_string(),
            ));
        }
        let resizes = self.capacity_timeline();
        if !resizes.is_empty() {
            let caps: Vec<String> = resizes.iter().map(|(_, _, _, c)| c.to_string()).collect();
            rows.push(("adaptive capacities".to_string(), caps.join("→")));
        }
        rows.push((
            "timeline events (kept/dropped)".to_string(),
            format!("{}/{}", self.timeline.len(), self.dropped_events),
        ));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{CounterId, HistId, Recorder, TelemetryConfig};
    use crate::ring::EventKind;

    fn shard(tid: u32, stores: u64) -> ThreadRecorder {
        let mut r = ThreadRecorder::new(tid, &TelemetryConfig::default());
        r.add(CounterId::Stores, stores);
        r.observe(HistId::QueueDepth, stores);
        r.emit(EventKind::FaseBegin, stores, 0, 0);
        r
    }

    #[test]
    fn merge_sums_counters_in_tid_order() {
        let snap = TelemetrySnapshot::from_threads(vec![shard(0, 10), shard(1, 32)]);
        assert_eq!(snap.threads, 2);
        assert_eq!(snap.counter(CounterId::Stores), 42);
        assert_eq!(snap.per_thread[0][CounterId::Stores as usize], 10);
        assert_eq!(snap.per_thread[1][CounterId::Stores as usize], 32);
        assert_eq!(snap.hist(HistId::QueueDepth).count, 2);
    }

    #[test]
    fn timeline_sorted_by_time_then_tid() {
        let mut a = ThreadRecorder::new(0, &TelemetryConfig::default());
        let mut b = ThreadRecorder::new(1, &TelemetryConfig::default());
        a.emit(EventKind::ScHit, 5, 0, 0);
        a.emit(EventKind::ScHit, 1, 0, 0);
        b.emit(EventKind::ScHit, 5, 0, 0);
        let snap = TelemetrySnapshot::from_threads(vec![a, b]);
        let order: Vec<(u64, u32)> = snap.timeline.iter().map(|e| (e.t, e.tid)).collect();
        assert_eq!(order, vec![(1, 0), (5, 0), (5, 1)]);
    }

    #[test]
    fn json_contains_expected_keys() {
        let snap = TelemetrySnapshot::from_threads(vec![shard(0, 3)]);
        let j = snap.to_json();
        for key in [
            "\"threads\"",
            "\"counters\"",
            "\"stores\": 3",
            "\"histograms\"",
            "\"queue_depth\"",
            "\"timeline\"",
            "\"fase_begin\"",
            "\"dropped_events\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn summary_skips_zero_counters() {
        let snap = TelemetrySnapshot::from_threads(vec![shard(0, 1)]);
        let rows = snap.summary_rows();
        assert!(rows.iter().any(|(k, _)| k == "stores"));
        assert!(!rows.iter().any(|(k, _)| k == "flushes_sync"));
    }

    #[test]
    fn series_merges_sorted_by_time_then_tid() {
        use crate::series::Sample;
        let cfg = TelemetryConfig::default();
        let mut a = ThreadRecorder::new(0, &cfg);
        let mut b = ThreadRecorder::new(1, &cfg);
        let mk = |t, tid| Sample {
            t,
            tid,
            ring_depth: 1,
            capacity: 64,
            hit_ratio_bp: 2500,
            stalls: 0,
        };
        a.sample(mk(10, 0));
        a.sample(mk(30, 0));
        b.sample(mk(10, 1));
        b.sample(mk(20, 1));
        let snap = TelemetrySnapshot::from_threads(vec![a, b]);
        let order: Vec<(u64, u32)> = snap.series.iter().map(|s| (s.t, s.tid)).collect();
        assert_eq!(order, vec![(10, 0), (10, 1), (20, 1), (30, 0)]);
        let j = snap.to_json();
        assert!(j.contains("\"series\""), "{j}");
        assert!(j.contains("\"hit_ratio_bp\": 2500"), "{j}");
        assert!(snap
            .summary_rows()
            .iter()
            .any(|(k, _)| k == "sampler series (kept)"));
    }

    #[test]
    fn empty_series_still_emits_key() {
        let snap = TelemetrySnapshot::from_threads(vec![shard(0, 1)]);
        assert!(snap.series.is_empty());
        assert!(snap.to_json().contains("\"series\": []"));
    }

    #[test]
    fn capacity_timeline_extracts_resizes() {
        let mut r = ThreadRecorder::new(2, &TelemetryConfig::default());
        r.emit(EventKind::CapacityChange, 100, 23, 24);
        let snap = TelemetrySnapshot::from_threads(vec![
            ThreadRecorder::new(0, &TelemetryConfig::default()),
            ThreadRecorder::new(1, &TelemetryConfig::default()),
            r,
        ]);
        assert_eq!(snap.capacity_timeline(), vec![(100, 2, 23, 24)]);
    }
}
