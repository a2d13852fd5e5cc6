//! EXPERIMENTS.md quotes every block `repro <name> --markdown` prints at
//! the default scale, verbatim and once, for each experiment of
//! `repro all` and `repro ablations`. The blocks are exact (flush
//! counts and simulated cycles, no wall clock; debug and release print
//! the same bytes), so any change that moves a number fails here, and
//! the failure prints the block to paste in place of the document's.
//!
//! The experiments that take over a second in a debug build are
//! compiled in release only:
//! `cargo test --release -p nvcache-bench --test experiments_doc`
//! checks all of them.

use nvcache_bench::experiments::{run, ABLATIONS, DEFAULT_SCALE, PAPER, THREAD_SWEEP};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::read_to_string(path).expect("EXPERIMENTS.md at the repo root")
}

/// The document holds each block of `repro <name> --markdown` exactly
/// once.
fn quotes(name: &str) {
    let doc = doc();
    for table in run(name, DEFAULT_SCALE, THREAD_SWEEP).expect("a listed experiment") {
        let block = table.to_markdown();
        match doc.matches(&block).count() {
            1 => {}
            0 => panic!(
                "EXPERIMENTS.md does not quote `repro {name} --markdown`; \
                 replace its block with:\n\n{block}"
            ),
            n => panic!("EXPERIMENTS.md quotes `repro {name} --markdown` {n} times; keep one"),
        }
    }
}

macro_rules! quoted {
    ($($(#[$attr:meta])* $test:ident: $name:literal,)*) => {
        $( $(#[$attr])* #[test] fn $test() { quotes($name) } )*
        /// Every experiment named above, in or out of this build.
        const TESTED: &[&str] = &[$($name),*];
    };
}

quoted! {
    experiments_md_quotes_table1_verbatim: "table1",
    #[cfg(not(debug_assertions))]
    experiments_md_quotes_table2_verbatim: "table2",
    experiments_md_quotes_table3_verbatim: "table3",
    experiments_md_quotes_table4_verbatim: "table4",
    experiments_md_quotes_fig2_verbatim: "fig2",
    #[cfg(not(debug_assertions))]
    experiments_md_quotes_fig4_verbatim: "fig4",
    #[cfg(not(debug_assertions))]
    experiments_md_quotes_fig5_verbatim: "fig5",
    #[cfg(not(debug_assertions))]
    experiments_md_quotes_fig6_verbatim: "fig6",
    experiments_md_quotes_fig7_verbatim: "fig7",
    #[cfg(not(debug_assertions))]
    experiments_md_quotes_fig8_verbatim: "fig8",
    #[cfg(not(debug_assertions))]
    experiments_md_quotes_ablation_knee_verbatim: "ablation-knee",
    experiments_md_quotes_ablation_atlas_verbatim: "ablation-atlas",
    #[cfg(not(debug_assertions))]
    experiments_md_quotes_ablation_bound_verbatim: "ablation-bound",
    experiments_md_quotes_ablation_burst_verbatim: "ablation-burst",
    experiments_md_quotes_ablation_clwb_verbatim: "ablation-clwb",
    experiments_md_quotes_ablation_phased_verbatim: "ablation-phased",
    experiments_md_quotes_ablation_groups_verbatim: "ablation-groups",
}

#[test]
fn every_experiment_has_a_test() {
    let mut listed: Vec<&str> = PAPER.iter().chain(ABLATIONS).copied().collect();
    let mut tested = TESTED.to_vec();
    listed.sort_unstable();
    tested.sort_unstable();
    assert_eq!(tested, listed);
}

/// Every `` `repro <name>`` `` (or `…/repro <name>`) the document names
/// is an experiment `repro` runs: one of the two lists, a list's name,
/// or `kv-bench`.
#[test]
fn every_repro_the_document_names_exists() {
    let doc = doc();
    let known = |name: &str| {
        PAPER.contains(&name)
            || ABLATIONS.contains(&name)
            || ["all", "ablations", "kv-bench"].contains(&name)
    };
    let mut pieces = doc.split("repro ");
    let mut before = pieces.next().unwrap_or_default();
    for after in pieces {
        if before.ends_with('`') || before.ends_with('/') {
            let name = after
                .split(|c: char| c.is_whitespace() || c == '`')
                .next()
                .unwrap_or_default();
            assert!(
                known(name),
                "EXPERIMENTS.md names `repro {name}`, which is no experiment"
            );
        }
        before = after;
    }
}
