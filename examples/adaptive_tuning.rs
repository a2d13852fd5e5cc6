//! The full online-adaptation pipeline, visualized: record a workload's
//! persistent writes, compute its miss-ratio curve three ways (exact
//! LRU, full-trace timescale theory, burst-sampled), detect the knee,
//! and watch the adaptive cache converge on it.
//!
//! ```text
//! cargo run --example adaptive_tuning
//! ```

use nvcache::core::{AdaptiveConfig, AdaptiveScPolicy, PersistPolicy};
use nvcache::locality::{lru_mrc, reuse_all_k, select_cache_size, KneeConfig, Mrc};
use nvcache::trace::Line;
use nvcache::workloads::splash2::WaterSpatial;
use nvcache::workloads::Workload;

fn sparkline(mrc: &Mrc, max: usize) -> String {
    let glyphs = ['█', '▇', '▆', '▅', '▄', '▃', '▂', '▁', ' '];
    (1..=max)
        .map(|c| {
            let v = mrc.mr(c).clamp(0.0, 1.0);
            glyphs[((1.0 - v) * (glyphs.len() - 1) as f64) as usize]
        })
        .collect()
}

fn main() {
    // the paper's Figure 2 subject: water-spatial
    let workload = WaterSpatial::scaled(0.05);
    let trace = workload.trace(1);
    let writes = trace.threads[0].renamed_writes();
    println!(
        "water-spatial: {} persistent writes, {} FASEs\n",
        writes.len(),
        trace.total_fases()
    );

    let cfg = KneeConfig::default();
    let exact = lru_mrc(&writes, cfg.max_size);
    let timescale = Mrc::from_reuse(&reuse_all_k(&writes), cfg.max_size);

    println!("miss-ratio curve, cache size 1..=50 (darker = more misses):");
    println!("  exact LRU  : {}", sparkline(&exact, 50));
    println!("  timescale  : {}", sparkline(&timescale, 50));
    println!(
        "  knee: exact → {}, timescale → {}  (paper selects 23)",
        select_cache_size(&exact, &cfg),
        select_cache_size(&timescale, &cfg)
    );
    println!(
        "  timescale vs exact mean abs error: {:.4}\n",
        timescale.mean_abs_error(&exact)
    );

    // now watch the online policy do the same thing incrementally
    let mut policy = AdaptiveScPolicy::new(AdaptiveConfig {
        burst_len: writes.len() / 4,
        ..Default::default()
    });
    println!("online adaptation (burst = {} writes):", writes.len() / 4);
    println!("  capacity before analysis: {}", policy.capacity());
    let mut out = Vec::new();
    for (i, &w) in writes.iter().enumerate() {
        policy.on_store(Line(w), &mut out);
        out.clear();
        if !policy.choices().is_empty() {
            println!(
                "  burst complete at write {}: capacity → {}",
                i + 1,
                policy.capacity()
            );
            break;
        }
    }
    println!(
        "  software-cache miss ratio while warming: {:.3}",
        policy.sc().miss_ratio()
    );
}
