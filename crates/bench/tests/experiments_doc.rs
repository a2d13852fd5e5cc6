//! EXPERIMENTS.md quotes `repro table3 --markdown` at the default scale
//! verbatim. Table III is exact (flush counts, no timing), so any change
//! that moves it must regenerate the document's block with that command.

use nvcache_bench::experiments::{tables, DEFAULT_SCALE};

#[test]
fn experiments_md_quotes_table3_verbatim() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md at the repo root");
    let block = tables::table3(DEFAULT_SCALE).to_markdown();
    assert!(
        doc.contains(&block),
        "EXPERIMENTS.md's Table III is not `repro table3 --markdown`; \
         replace it with:\n\n{block}"
    );
}
