//! Registry of the paper's twelve workloads at a common scale factor.

use crate::mdb::MdbWorkload;
use crate::micro::{HashWorkload, LinkedListWorkload, PersistentArray, QueueWorkload};
use crate::splash2::{Barnes, Fmm, Ocean, Raytrace, Volrend, WaterNsquared, WaterSpatial};
use crate::workload::Workload;

/// All twelve Table III workloads at `scale` (1.0 ≈ paper problem
/// sizes; the harness default, 0.05, is far smaller — see the
/// introduction of EXPERIMENTS.md).
pub fn all_workloads(scale: f64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(LinkedListWorkload::scaled(scale)),
        Box::new(PersistentArray::scaled(scale)),
        Box::new(QueueWorkload::scaled(scale)),
        Box::new(HashWorkload::scaled(scale)),
        Box::new(Barnes::scaled(scale)),
        Box::new(Fmm::scaled(scale)),
        Box::new(Ocean::scaled(scale)),
        Box::new(Raytrace::scaled(scale)),
        Box::new(Volrend::scaled(scale)),
        Box::new(WaterNsquared::scaled(scale)),
        Box::new(WaterSpatial::scaled(scale)),
        Box::new(MdbWorkload::scaled(scale)),
    ]
}

/// The seven SPLASH2 workloads (Table I / Figures 5–6).
pub fn splash2_workloads(scale: f64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Barnes::scaled(scale)),
        Box::new(Fmm::scaled(scale)),
        Box::new(Ocean::scaled(scale)),
        Box::new(Raytrace::scaled(scale)),
        Box::new(Volrend::scaled(scale)),
        Box::new(WaterNsquared::scaled(scale)),
        Box::new(WaterSpatial::scaled(scale)),
    ]
}

/// Look up one workload by Table III name.
pub fn workload_by_name(name: &str, scale: f64) -> Option<Box<dyn Workload>> {
    all_workloads(scale).into_iter().find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PAPER_TABLE3;

    #[test]
    fn registry_covers_every_table3_row() {
        let ws = all_workloads(0.01);
        assert_eq!(ws.len(), 12);
        for row in PAPER_TABLE3 {
            assert!(
                ws.iter().any(|w| w.name() == row.name),
                "missing workload {}",
                row.name
            );
        }
    }

    #[test]
    fn splash2_subset() {
        let ws = splash2_workloads(0.01);
        assert_eq!(ws.len(), 7);
    }

    #[test]
    fn lookup_by_name_works() {
        assert!(workload_by_name("ocean", 0.01).is_some());
        assert!(workload_by_name("nope", 0.01).is_none());
    }

    #[test]
    fn every_workload_generates_a_nonempty_trace() {
        for w in all_workloads(0.005) {
            let tr = w.trace(1);
            assert!(tr.total_writes() > 0, "{} empty", w.name());
            assert!(tr.total_fases() > 0, "{} no FASEs", w.name());
        }
    }
}
