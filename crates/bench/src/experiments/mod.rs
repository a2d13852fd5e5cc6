//! One module per paper experiment; shared driving helpers here.

pub mod ablations;
pub mod figs;
pub mod kv;
pub mod tables;

use crate::calibrate::{adaptive_config_for, machine_for, offline_capacity};
use crate::telemetry;
use crate::Table;
use nvcache_core::{
    run_policy, run_policy_traced, PolicyKind, ReplayOptions, RunConfig, RunReport,
};
use nvcache_locality::KneeConfig;
use nvcache_trace::Trace;

/// Default scale for harness runs (fraction of paper problem size).
pub const DEFAULT_SCALE: f64 = 0.05;

/// The thread counts of the paper's parallel experiments (Figures 5–6,
/// Table IV).
pub const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32];

/// The paper's experiments, in `repro all`'s order.
pub const PAPER: &[&str] = &[
    "table1", "table2", "table3", "table4", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
];

/// The ablations, in `repro ablations`' order.
pub const ABLATIONS: &[&str] = &[
    "ablation-knee",
    "ablation-atlas",
    "ablation-bound",
    "ablation-burst",
    "ablation-clwb",
    "ablation-phased",
    "ablation-groups",
];

/// Run the experiment `name` — one of [`PAPER`] or [`ABLATIONS`], or
/// `all` / `ablations` for either whole list — at `scale`, sweeping
/// `threads` where the experiment sweeps threads. `None` for any other
/// name.
pub fn run(name: &str, scale: f64, threads: &[usize]) -> Option<Vec<Table>> {
    let one = match name {
        "table1" => tables::table1(scale),
        "table2" => tables::table2(scale),
        "table3" => tables::table3(scale),
        "table4" => tables::table4(scale, threads),
        "fig2" => figs::fig2(scale),
        "fig4" => figs::fig4(scale),
        "fig5" => figs::fig5(scale, threads),
        "fig6" => figs::fig6(scale, threads),
        "fig7" => figs::fig7(scale),
        "fig8" => figs::fig8(scale),
        "ablation-knee" => ablations::ablation_knee(scale),
        "ablation-clwb" => ablations::ablation_clwb(scale),
        "ablation-phased" => ablations::ablation_phased(scale),
        "ablation-groups" => ablations::ablation_groups(scale, 8),
        "ablation-atlas" => ablations::ablation_atlas(scale),
        "ablation-bound" => ablations::ablation_bound(scale),
        "ablation-burst" => ablations::ablation_burst(scale),
        "all" | "ablations" => {
            let list = if name == "all" { PAPER } else { ABLATIONS };
            let tables = list.iter().flat_map(|e| run(e, scale, threads));
            return Some(tables.flatten().collect());
        }
        _ => return None,
    };
    Some(vec![one])
}

/// Run `kind` over `trace` with the calibrated machine for its thread
/// count. When global telemetry collection is on (`repro --telemetry`),
/// the run goes through the traced driver and its snapshot is deposited
/// in the collector; the [`RunReport`] is identical either way.
pub fn timed(trace: &Trace, kind: &PolicyKind) -> RunReport {
    let cfg = RunConfig {
        machine: machine_for(trace.num_threads()),
    };
    if telemetry::is_enabled() {
        let (report, snap) = run_policy_traced(
            trace,
            kind,
            &cfg,
            &ReplayOptions::sequential(),
            &telemetry::config(),
        );
        telemetry::record(format!("{}@{}t", kind.label(), trace.num_threads()), snap);
        report
    } else {
        run_policy(trace, kind, &cfg)
    }
}

/// The online-adaptive SC policy kind for a trace.
pub fn sc_online(trace: &Trace) -> PolicyKind {
    PolicyKind::ScAdaptive(adaptive_config_for(trace))
}

/// The SC-offline policy kind: capacity from exact offline profiling.
pub fn sc_offline(trace: &Trace) -> PolicyKind {
    PolicyKind::ScFixed {
        capacity: offline_capacity(trace, &KneeConfig::default()),
    }
}

/// The paper's Atlas baseline (8-entry table).
pub fn atlas() -> PolicyKind {
    PolicyKind::Atlas { size: 8 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvcache_trace::synth::{cyclic, SynthOpts};

    #[test]
    fn helpers_produce_expected_kinds() {
        let tr = cyclic(23, 2000, &SynthOpts::default());
        assert_eq!(sc_online(&tr).label(), "SC");
        match sc_offline(&tr) {
            PolicyKind::ScFixed { capacity } => assert_eq!(capacity, 23),
            _ => panic!("wrong kind"),
        }
        assert_eq!(atlas().label(), "AT");
        let r = timed(&tr, &atlas());
        assert!(r.cycles > 0);
    }
}
