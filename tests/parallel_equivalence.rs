//! Parallel/single-threaded equivalence: `ParallelEngine` with any worker
//! count must produce *bit-identical* aggregates and window sets to a
//! plain `HamletEngine` run — HAMLET's partitions are independent (§2.2),
//! so sharding them across workers must not change a single result row.
//!
//! Exercised on the two generators whose workloads stress the sharing
//! machinery from both ends: ridesharing (one hot shared Kleene type,
//! Fig. 1) and smart-home (many groups, replicated sliding windows).

use hamlet::prelude::*;
use hamlet_stream::{ridesharing, smart_home, GenConfig};
use proptest::prelude::*;

/// Sorted full result set of a single-threaded run (the canonical order
/// every `ParallelEngine` call returns its rows in).
fn reference(
    reg: &std::sync::Arc<TypeRegistry>,
    queries: &[Query],
    events: &[Event],
) -> Vec<WindowResult> {
    let mut eng = HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default())
        .expect("engine builds");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    sort_results(&mut out);
    out
}

/// Every row of a `workers`-way sharded run over the whole stream, in
/// canonical order.
fn sharded(
    reg: &std::sync::Arc<TypeRegistry>,
    queries: &[Query],
    events: &[Event],
    workers: u32,
) -> Vec<WindowResult> {
    let mut par = ParallelEngine::new(
        reg.clone(),
        queries.to_vec(),
        EngineConfig::default(),
        workers,
    )
    .expect("engine builds");
    let mut out = par.process(events);
    out.extend(par.flush());
    sort_results(&mut out);
    out
}

fn assert_workers_match(
    reg: &std::sync::Arc<TypeRegistry>,
    queries: &[Query],
    events: &[Event],
    label: &str,
) {
    let expected = reference(reg, queries, events);
    assert!(!expected.is_empty(), "{label}: workload produced results");
    for workers in [1u32, 2, 4, 8] {
        // Bit-identical: same window set, same keys, same aggregates,
        // same (guaranteed) order — zero rows included, no normalization.
        assert_eq!(
            expected,
            sharded(reg, queries, events, workers),
            "{label}: {workers} workers diverged from single-threaded run"
        );
    }
}

#[test]
fn ridesharing_workers_are_bit_identical() {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 6, 30);
    let cfg = GenConfig {
        events_per_min: 1_500,
        minutes: 1,
        mean_burst: 20.0,
        num_groups: 16,
        group_skew: 0.0,
        seed: 21,
        max_lateness: 0,
    };
    let events = ridesharing::generate(&reg, &cfg);
    assert_workers_match(&reg, &queries, &events, "ridesharing");
}

/// High partition cardinality: hundreds of live keys per window drive
/// the watermark expiration index (PR 3) — every watermark advance pops
/// a batch of windows across many partitions, and the merged parallel
/// output must still match the single-threaded run byte for byte at
/// every worker count.
#[test]
fn high_cardinality_workers_are_bit_identical() {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 5, 15);
    let cfg = GenConfig {
        events_per_min: 4_000,
        minutes: 1,
        mean_burst: 8.0,
        num_groups: 400,
        group_skew: 0.2,
        seed: 91,
        max_lateness: 0,
    };
    let events = ridesharing::generate(&reg, &cfg);
    assert_workers_match(&reg, &queries, &events, "high_cardinality");
}

#[test]
fn smart_home_workers_are_bit_identical() {
    let reg = smart_home::registry();
    let queries = smart_home::workload(&reg, 6, 60);
    let cfg = GenConfig {
        events_per_min: 1_500,
        minutes: 1,
        mean_burst: 30.0,
        num_groups: 12,
        group_skew: 0.0,
        seed: 33,
        max_lateness: 0,
    };
    let events = smart_home::generate(&reg, &cfg);
    assert_workers_match(&reg, &queries, &events, "smart_home");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized stream shapes: burstiness, skew, and seed vary; every
    /// worker count must still reproduce the single-threaded results
    /// bit-for-bit on both generators.
    #[test]
    fn random_streams_shard_losslessly(
        seed in 0u64..1_000,
        mean_burst in 1.0f64..60.0,
        skew in 0.0f64..1.0,
        groups in 1u64..24,
    ) {
        let cfg = GenConfig {
            events_per_min: 800,
            minutes: 1,
            mean_burst,
            num_groups: groups,
            group_skew: skew,
            seed,
            max_lateness: 0,
        };
        let reg = ridesharing::registry();
        let queries = ridesharing::workload_shared_kleene(&reg, 4, 20);
        let events = ridesharing::generate(&reg, &cfg);
        let expected = reference(&reg, &queries, &events);
        for workers in [2u32, 5] {
            prop_assert_eq!(
                &expected,
                &sharded(&reg, &queries, &events, workers),
                "{} workers",
                workers
            );
        }
    }
}
