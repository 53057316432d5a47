//! `rideshare_highcard`: many live partitions. Five `SEQ(X, Travel+)`
//! queries over 10⁴ uniform district keys with short bursts, and a
//! checkpoint chain cut into a directory store as the stream runs. Run
//! creation and emission, the expiry heap, the O(P) state walk,
//! checkpoint encoding, store writes and chain restore dominate; short
//! bursts of a uniform `COUNT(*)` take the closed-form path, so sharing
//! hardly matters.

use super::offline::Offline;
use hamlet_stream::{ridesharing, GenConfig};

/// Events between two inline checkpoint cuts.
pub const CUT_EVERY: usize = 4096;

/// The workload for `seed`: ~120k events in 1024-event batches.
pub fn build(seed: u64) -> Offline {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 5, 30);
    let events = ridesharing::generate(&reg, &config(seed));
    Offline {
        reg,
        queries,
        events,
        cut_every: Some(CUT_EVERY),
    }
}

/// The stream: 10k events per minute for 12 minutes of stream time.
pub fn config(seed: u64) -> GenConfig {
    GenConfig {
        events_per_min: 10_000,
        minutes: 12,
        mean_burst: 10.0,
        num_groups: 10_000,
        group_skew: 0.0,
        seed,
        max_lateness: 0,
    }
}
