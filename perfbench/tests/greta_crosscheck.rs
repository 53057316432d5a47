//! The benchmark trusts one reference: the engine's per-event
//! `process_reference` path under `NeverShare`. Here that reference is
//! cross-checked against the independent GRETA baseline on a short
//! prefix of each workload's input (full-length GRETA is far too slow to
//! run on every invocation).

use hamlet_baselines::GretaEngine;
use hamlet_core::WindowResult;
use hamlet_perfbench::check::{canonical, mismatches, reference};
use hamlet_perfbench::workloads::{pipeline_paced, rideshare_highcard, stock_diverse};
use hamlet_query::Query;
use hamlet_stream::ridesharing;
use hamlet_types::{Event, TypeRegistry};
use std::sync::Arc;

const SEED: u64 = 1;

fn greta(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) -> Vec<WindowResult> {
    let mut eng = GretaEngine::new(reg.clone(), queries.to_vec()).expect("GRETA compiles");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    out
}

fn cross_check(reg: &Arc<TypeRegistry>, queries: &[Query], prefix: &[Event]) {
    let expected = reference(reg, queries, prefix).expect("reference runs");
    assert!(!expected.is_empty(), "the prefix must produce rows");
    let got = canonical(greta(reg, queries, prefix));
    assert_eq!(
        mismatches(&expected, &got),
        0,
        "reference and GRETA disagree on {} rows",
        expected.len()
    );
}

#[test]
fn stock_diverse_reference_matches_greta() {
    let w = stock_diverse::build(SEED);
    cross_check(&w.reg, &w.queries, &w.events[..1_500]);
}

#[test]
fn rideshare_highcard_reference_matches_greta() {
    let w = rideshare_highcard::build(SEED);
    cross_check(&w.reg, &w.queries, &w.events[..20_000]);
}

#[test]
fn pipeline_paced_reference_matches_greta() {
    let reg = ridesharing::registry();
    let queries = pipeline_paced::queries(&reg);
    let in_order = ridesharing::generate(&reg, &pipeline_paced::config(SEED, 0));
    cross_check(&reg, &queries, &in_order[..6_000]);
}

/// The closing event of a window is the first arrival at or past its
/// end plus the watermark slack, however late earlier arrivals were.
#[test]
fn closing_event_is_first_arrival_past_end_plus_slack() {
    use hamlet_types::{EventTypeId, Ts};
    let times = [0u64, 5, 3, 11, 12, 9, 14, 13, 15, 16];
    let events: Vec<Event> = times
        .iter()
        .map(|&t| Event::new(Ts(t), EventTypeId(0), vec![]))
        .collect();
    let close = pipeline_paced::closing_events(&events);
    let (within, slide, slack) = (
        pipeline_paced::WITHIN,
        pipeline_paced::SLIDE,
        pipeline_paced::SLACK,
    );
    for (slot, c) in close.iter().enumerate() {
        let need = slot as u64 * slide + within + slack;
        let first = times.iter().position(|&t| t >= need);
        assert_eq!(*c, first, "slot {slot} needs t >= {need}");
    }
    // Window [0, 10) closes at t = 12 (index 4), [2, 12) at 14 (index 6).
    assert_eq!(close[0], Some(4));
    assert_eq!(close[1], Some(6));
}
