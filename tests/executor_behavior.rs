//! Focused executor-behavior tests: pane-bounded bursts (Def. 10),
//! equivalence-attribute partitioning, EXPLAIN output, and the parallel
//! engine on generated workloads.

use hamlet_core::{EngineConfig, HamletEngine, ParallelEngine, SharingPolicy, WindowResult};
use hamlet_query::parse_query;
use hamlet_types::{AttrValue, Event, Ts, TypeRegistry};
use std::sync::Arc;

fn registry() -> Arc<TypeRegistry> {
    let mut reg = TypeRegistry::new();
    for t in ["A", "B", "C"] {
        reg.register(t, &["g", "v", "driver"]);
    }
    Arc::new(reg)
}

/// Every row of a `workers`-way sharded run over the whole stream.
fn sharded(
    reg: &Arc<TypeRegistry>,
    queries: &[hamlet_query::Query],
    cfg: EngineConfig,
    workers: u32,
    events: &[Event],
) -> Vec<WindowResult> {
    let mut par =
        ParallelEngine::new(reg.clone(), queries.to_vec(), cfg, workers).expect("shard set builds");
    let mut out = par.process(events);
    out.extend(par.flush());
    out
}

fn ev(reg: &TypeRegistry, name: &str, t: u64, g: i64, driver: i64) -> Event {
    Event::new(
        Ts(t),
        reg.type_id(name).expect("type registered"),
        vec![
            AttrValue::Int(g),
            AttrValue::Float(t as f64),
            AttrValue::Int(driver),
        ],
    )
}

/// Bursts are bounded by pane boundaries (Def. 10): a run of B events
/// crossing a pane boundary yields one optimizer decision per pane.
#[test]
fn bursts_split_at_pane_boundaries() {
    let reg = registry();
    // WITHIN 20 SLIDE 10 → pane = gcd(20, 10) = 10.
    let queries = vec![
        parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 20 SLIDE 10",
        )
        .unwrap(),
        parse_query(
            &reg,
            2,
            "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 20 SLIDE 10",
        )
        .unwrap(),
    ];
    let mut eng = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
    // One window instance [0,20): a@1, c@2, then B events at 3..=15 — the
    // B run crosses the pane boundary at t=10.
    let mut events = vec![ev(&reg, "A", 1, 0, 0), ev(&reg, "C", 2, 0, 0)];
    for t in 3..=15u64 {
        events.push(ev(&reg, "B", t, 0, 0));
    }
    let mut out = Vec::new();
    for e in &events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    let stats = eng.stats();
    // Window [0,20): bursts A, C, B(pane 0: t=3..9), B(pane 1: t=10..15).
    // Window [10,30): bursts B(pane1). Plus decisions for each.
    assert!(
        stats.decisions >= 5,
        "pane boundary forces an extra burst decision: {stats:?}"
    );
    assert!(!out.is_empty());
}

/// Equivalence attributes (`[driver]`, Fig. 1) partition trends: events of
/// different drivers never join the same trend.
#[test]
fn equivalence_attributes_partition_trends() {
    let reg = registry();
    let q = parse_query(
        &reg,
        1,
        "RETURN COUNT(*) PATTERN SEQ(A, B+) WHERE [driver] WITHIN 100",
    )
    .unwrap();
    let mut eng = HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap();
    // Driver 1: a@1, b@3. Driver 2: a@2, b@4. Without [driver] the count
    // would be 1+2+... cross matches; with it, each driver gets 1 trend.
    let events = vec![
        ev(&reg, "A", 1, 0, 1),
        ev(&reg, "A", 2, 0, 2),
        ev(&reg, "B", 3, 0, 1),
        ev(&reg, "B", 4, 0, 2),
    ];
    let mut out = Vec::new();
    for e in &events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    assert_eq!(out.len(), 2, "one result per driver partition");
    for r in &out {
        assert_eq!(r.value.as_count(), 1, "driver-local trend only: {r:?}");
    }
}

/// EXPLAIN renders the merged template with query-set labels (Fig. 3(b)).
#[test]
fn explain_shows_shared_plan() {
    let reg = registry();
    let queries = vec![
        parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 50").unwrap(),
        parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(C, B+) WITHIN 50").unwrap(),
    ];
    let eng = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
    let plan = eng.explain();
    assert!(plan.contains("1 share group"), "{plan}");
    assert!(plan.contains("sharable Kleene sub-pattern: B+"), "{plan}");
    assert!(plan.contains("B -> B [q1, q2]"), "{plan}");
    assert!(plan.contains("A -> B [q1]"), "{plan}");
    assert!(plan.contains("C -> B [q2]"), "{plan}");
}

/// The parallel engine agrees with sequential execution on a generated
/// ridesharing workload across policies.
#[test]
fn parallel_generated_workload_agrees() {
    let reg = hamlet_stream::ridesharing::registry();
    let cfg = hamlet_stream::GenConfig {
        events_per_min: 3_000,
        minutes: 1,
        mean_burst: 30.0,
        num_groups: 12,
        group_skew: 0.0,
        seed: 31,
        max_lateness: 0,
    };
    let events = hamlet_stream::ridesharing::generate(&reg, &cfg);
    let queries = hamlet_stream::ridesharing::workload_shared_kleene(&reg, 8, 30);
    for policy in [SharingPolicy::Dynamic, SharingPolicy::NeverShare] {
        let cfg = EngineConfig {
            policy,
            ..EngineConfig::default()
        };
        let seq = sharded(&reg, &queries, cfg.clone(), 1, &events);
        let par = sharded(&reg, &queries, cfg, 3, &events);
        let norm = |rs: &[hamlet_core::WindowResult]| {
            let mut v: Vec<String> = rs
                .iter()
                .filter(|r| {
                    !matches!(
                        r.value,
                        hamlet_core::AggValue::Count(0) | hamlet_core::AggValue::Null
                    )
                })
                .map(|r| {
                    format!(
                        "{:?}|{}|{}|{:?}",
                        r.query, r.group_key, r.window_start, r.value
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&seq), norm(&par), "{policy:?}");
    }
}

/// Regression (PR 3): two runs over the *same* generated stream produce
/// byte-identical output — same rows in the same order, per-event and at
/// flush. Before the watermark expiration index, expiry walked the
/// partition `HashMap`, so windows closed by one watermark advance came
/// out in hash-iteration order and only looked deterministic by luck.
#[test]
fn same_stream_twice_emits_byte_identical_output() {
    let reg = hamlet_stream::ridesharing::registry();
    let cfg = hamlet_stream::GenConfig {
        events_per_min: 2_000,
        minutes: 1,
        mean_burst: 15.0,
        // Many districts per window: one watermark advance expires many
        // partitions at once — the case hash order used to scramble.
        num_groups: 64,
        group_skew: 0.3,
        seed: 77,
        max_lateness: 0,
    };
    let events = hamlet_stream::ridesharing::generate(&reg, &cfg);
    let queries = hamlet_stream::ridesharing::workload_shared_kleene(&reg, 6, 20);
    let run = || {
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        // Keep per-event boundaries visible: any reordering across
        // process() calls would shift rows between the inner vectors.
        let mut out: Vec<Vec<hamlet_core::WindowResult>> = Vec::new();
        for e in &events {
            out.push(eng.process(e));
        }
        out.push(eng.flush());
        out
    };
    let first = run();
    assert!(first.iter().any(|v| !v.is_empty()), "stream emits windows");
    assert_eq!(first, run(), "same stream, different output");
}

/// Regression (PR 3): a flush-heavy workload — OR-queries whose combiner
/// halves drain from `pending` at end of stream — is run-to-run
/// deterministic. Before PR 3 `flush` drained the pending `HashMap` in
/// iteration order.
#[test]
fn flush_heavy_or_workload_is_deterministic() {
    // Disjoint Kleene types (B+ vs D+) put the OR halves in *different*
    // share groups: a (key, window) where only one branch's group has a
    // run leaves that half stranded in `pending` until flush.
    let mut reg = TypeRegistry::new();
    for t in ["A", "B", "C", "D"] {
        reg.register(t, &["g", "v", "driver"]);
    }
    let reg = Arc::new(reg);
    let queries = vec![
        parse_query(
            &reg,
            1,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) OR SEQ(C, D+) GROUP BY g WITHIN 10",
        )
        .unwrap(),
        parse_query(
            &reg,
            2,
            "RETURN COUNT(*) PATTERN SEQ(C, D+) OR SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap(),
    ];
    // A/B flow for every key; C/D only for even keys, so odd keys strand
    // one half per window in `pending`, across many keys and windows.
    let mut events = Vec::new();
    for t in 0..97u64 {
        let g = (t % 11) as i64;
        let name = match (t % 7, g % 2) {
            (0, _) => "A",
            (1 | 2, 0) => "C",
            (1 | 2, _) => "A",
            (3, 0) => "D",
            _ => "B",
        };
        events.push(ev(&reg, name, t, g, 0));
    }
    let run = || {
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        for e in &events {
            out.extend(eng.process(e));
        }
        let flushed = eng.flush();
        assert!(!flushed.is_empty(), "flush emits pending windows");
        out.extend(flushed);
        out
    };
    assert_eq!(run(), run(), "flush order depended on hash iteration");
}

/// Skewed (Zipf) partition keys: the hot partition dominates, and the
/// parallel engine still agrees with sequential execution under skew.
#[test]
fn skewed_partitions_agree_in_parallel() {
    let reg = hamlet_stream::ridesharing::registry();
    let cfg = hamlet_stream::GenConfig {
        events_per_min: 3_000,
        minutes: 1,
        mean_burst: 30.0,
        num_groups: 16,
        group_skew: 1.0,
        seed: 55,
        max_lateness: 0,
    };
    let events = hamlet_stream::ridesharing::generate(&reg, &cfg);
    // Hot-key skew materialized: district 0 holds a large share.
    let district_idx = 0usize;
    let hot = events
        .iter()
        .filter(|e| e.attr(district_idx) == Some(&AttrValue::Int(0)))
        .count();
    assert!(
        hot as f64 > 0.15 * events.len() as f64,
        "hot key fraction {hot}/{}",
        events.len()
    );
    let queries = hamlet_stream::ridesharing::workload_shared_kleene(&reg, 6, 30);
    let cfg = EngineConfig::default();
    let seq = sharded(&reg, &queries, cfg.clone(), 1, &events);
    let par = sharded(&reg, &queries, cfg, 4, &events);
    let norm = |rs: &[hamlet_core::WindowResult]| {
        let mut v: Vec<String> = rs
            .iter()
            .filter(|r| !matches!(r.value, hamlet_core::AggValue::Count(0)))
            .map(|r| {
                format!(
                    "{:?}|{}|{}|{:?}",
                    r.query, r.group_key, r.window_start, r.value
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(norm(&seq), norm(&par));
}
