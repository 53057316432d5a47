//! `stock_diverse`: the paper's Fig. 12 regime. Sixty diverse stock
//! queries (Kleene patterns of length 1–3, four aggregates, per-query
//! predicates on the shared `Tick+`) over 32 companies with long bursts.
//! Run propagation, snapshots and the sharing optimizer do most of the
//! work; with few partitions, run creation, expiry and the memory gauge
//! barely matter.

use super::offline::Offline;
use hamlet_stream::{stock, GenConfig};

/// Queries in the workload (the paper's k).
pub const QUERIES: usize = 60;
/// Seed of the query set. The queries are part of the workload's
/// definition; the run's seed draws only the stream, so runs with
/// different seeds measure the same workload on different inputs.
pub const QUERY_SEED: u64 = 60;

/// The workload for `seed`: ~240k events, fed in 1024-event batches,
/// with one full checkpoint after the stream for the recovery metric.
pub fn build(seed: u64) -> Offline {
    let reg = stock::registry();
    let queries = stock::workload_diverse(&reg, QUERIES, QUERY_SEED);
    let events = stock::generate(&reg, &config(seed));
    Offline {
        reg,
        queries,
        events,
        cut_every: None,
    }
}

/// The stream: 4000 events per minute for an hour of stream time.
pub fn config(seed: u64) -> GenConfig {
    GenConfig {
        events_per_min: 4_000,
        minutes: 60,
        mean_burst: 120.0,
        num_groups: 32,
        group_skew: 0.0,
        seed,
        max_lateness: 0,
    }
}
