//! Determinism of the per-share-group observability registry.
//!
//! The registry's contract is that its counters describe the *logical
//! stream*, not the execution strategy: the same workload over the
//! same events must report identical per-group numbers whether the run
//! is repeated, sharded across 1 or 4 workers, or snapshotted in a
//! different shard order. Fixed cases pin the cheap invariants;
//! a proptest sweeps randomized stream shapes (type mix, burst
//! lengths, key skew, time gaps) through the whole-vs-sharded
//! comparison.

use hamlet_core::executor::{EngineConfig, HamletEngine};
use hamlet_core::parallel::ParallelEngine;
use hamlet_query::{parse_query, Query};
use hamlet_types::{Event, EventBuilder, TypeRegistry};
use proptest::prelude::*;
use std::sync::Arc;

/// A three-type registry and a workload whose queries overlap enough
/// to form shared groups (two same-pattern queries on different
/// windows, one distinct pattern).
fn setup() -> (Arc<TypeRegistry>, Vec<Query>) {
    let mut reg = TypeRegistry::new();
    reg.register("A", &["g"]);
    reg.register("B", &["g"]);
    reg.register("C", &["g"]);
    let reg = Arc::new(reg);
    let q = |id, text: &str| parse_query(&reg, id, text).expect("query parses");
    let queries = vec![
        q(0, "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 40"),
        q(1, "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 60"),
        q(2, "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN 50"),
    ];
    (reg, queries)
}

/// Materializes a stream shape — `(type index, key, time gap)` triples
/// — into events with monotonically non-decreasing times.
fn materialize(reg: &Arc<TypeRegistry>, shape: &[(usize, i64, u64)]) -> Vec<Event> {
    let types = [
        reg.type_id("A").expect("registered"),
        reg.type_id("B").expect("registered"),
        reg.type_id("C").expect("registered"),
    ];
    let mut t = 0u64;
    shape
        .iter()
        .map(|&(ty, key, gap)| {
            t += gap;
            EventBuilder::new(reg, types[ty % 3], t)
                .attr("g", key)
                .build()
        })
        .collect()
}

/// A burst-ish stream shape: mostly B-runs broken up by A/C arrivals,
/// a handful of keys, small time gaps with occasional jumps.
fn shape() -> impl Strategy<Value = Vec<(usize, i64, u64)>> {
    proptest::collection::vec(
        (
            // Biased toward B (the Kleene-plus body) so multi-event
            // bursts actually form: 0..6 folded as 0→A, 5→C, rest→B.
            (0usize..6).prop_map(|r| match r {
                0 => 0,
                5 => 2,
                _ => 1,
            }),
            0i64..4,
            // Mostly dense arrivals with occasional window-sized jumps.
            (0u64..15).prop_map(|g| if g < 12 { g % 3 } else { 5 + 4 * g }),
        ),
        0..250,
    )
}

#[test]
fn group_metrics_identical_across_repeated_runs() {
    let (reg, queries) = setup();
    let shape: Vec<(usize, i64, u64)> = (0..400)
        .map(|i| {
            (
                if i % 7 == 0 { 0 } else { 1 },
                (i % 3) as i64,
                (i % 2) as u64,
            )
        })
        .collect();
    let events = materialize(&reg, &shape);
    let run = || {
        let mut eng = HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default())
            .expect("engine builds");
        eng.process_batch(&events);
        eng.flush();
        eng.group_metrics().to_vec()
    };
    let first = run();
    assert!(!first.is_empty(), "workload forms share groups");
    assert!(
        first.iter().any(|m| m.events_routed > 0),
        "stream reached the groups"
    );
    assert_eq!(first, run(), "repeated runs must report identical counters");
}

#[test]
fn group_metrics_identical_one_vs_four_workers() {
    let (reg, queries) = setup();
    let shape: Vec<(usize, i64, u64)> = (0..600)
        .map(|i| {
            (
                if i % 11 == 0 { 2 } else { 1 },
                (i % 4) as i64,
                u64::from(i % 3 == 0),
            )
        })
        .collect();
    let events = materialize(&reg, &shape);
    let merged = |workers: u32| {
        let mut eng = ParallelEngine::new(
            reg.clone(),
            queries.clone(),
            EngineConfig::default(),
            workers,
        )
        .expect("parallel engine builds");
        eng.process(&events);
        eng.flush();
        eng.group_metrics()
    };
    let one = merged(1);
    let four = merged(4);
    assert!(one.iter().any(|m| m.events_routed > 0));
    assert_eq!(one, four, "group counters must be worker-count invariant");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-engine and 3-way-sharded runs of a random stream shape
    /// agree group-for-group, and the sharded merge preserves totals.
    #[test]
    fn registry_merge_is_shard_invariant(shape in shape()) {
        let (reg, queries) = setup();
        let events = materialize(&reg, &shape);

        let mut whole =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default())
                .expect("engine builds");
        whole.process_batch(&events);
        whole.flush();
        let solo = whole.group_metrics().to_vec();

        let mut par = ParallelEngine::new(reg, queries, EngineConfig::default(), 3)
            .expect("parallel engine builds");
        par.process(&events);
        par.flush();
        let sharded = par.group_metrics();

        // The single engine's snapshot is already canonical modulo
        // ordering: compare signature-by-signature.
        prop_assert_eq!(solo.len(), sharded.len());
        let mut solo_sorted = solo;
        solo_sorted.sort_by(|a, b| a.sig.cmp(&b.sig));
        for (s, m) in solo_sorted.iter().zip(&sharded) {
            prop_assert_eq!(&s.sig, &m.sig);
            prop_assert_eq!(s.shared, m.shared);
            prop_assert_eq!(s.events_routed, m.events_routed);
            prop_assert_eq!(s.runs_created, m.runs_created);
            prop_assert_eq!(s.runs_expired, m.runs_expired);
            prop_assert_eq!(s.shared_bursts, m.shared_bursts);
            prop_assert_eq!(s.solo_bursts, m.solo_bursts);
            prop_assert_eq!(s.graphlet_snapshots, m.graphlet_snapshots);
            prop_assert_eq!(s.event_snapshots, m.event_snapshots);
            prop_assert_eq!(s.results_emitted, m.results_emitted);
        }
    }
}
