//! Output checking: every workload's rows are compared with a reference
//! computed on the same input by the engine's per-event
//! `process_reference` path under `SharingPolicy::NeverShare`.

use hamlet_core::{
    sort_results, AggValue, EngineConfig, HamletEngine, SharingPolicy, WindowResult,
};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::cmp::Ordering;
use std::sync::Arc;

/// The reference rows for `events` (fed in the given order), already
/// in canonical form (see [`canonical`]).
pub fn reference(
    reg: &Arc<TypeRegistry>,
    queries: &[Query],
    events: &[Event],
) -> Result<Vec<WindowResult>, String> {
    let cfg = EngineConfig {
        policy: SharingPolicy::NeverShare,
        ..EngineConfig::default()
    };
    let mut eng = HamletEngine::new(reg.clone(), queries.to_vec(), cfg)
        .map_err(|e| format!("reference engine: {e}"))?;
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process_reference(e));
    }
    out.extend(eng.flush());
    Ok(canonical(out))
}

/// Drops zero rows and sorts canonically. Engines differ in which empty
/// windows they materialize (a shared group emits a row for every
/// member), and a zero row means the same as an absent one.
pub fn canonical(mut rows: Vec<WindowResult>) -> Vec<WindowResult> {
    rows.retain(nonzero);
    sort_results(&mut rows);
    rows
}

/// False for a row whose aggregate is zero or null.
pub fn nonzero(r: &WindowResult) -> bool {
    match r.value {
        AggValue::Count(c) => c != 0,
        AggValue::Float(f) => f != 0.0,
        AggValue::Null => false,
    }
}

fn key_cmp(a: &WindowResult, b: &WindowResult) -> Ordering {
    (a.window_start, a.query)
        .cmp(&(b.window_start, b.query))
        .then_with(|| a.group_key.total_cmp(&b.group_key))
}

fn same_value(a: AggValue, b: AggValue) -> bool {
    match (a, b) {
        (AggValue::Count(x), AggValue::Count(y)) => x == y,
        (AggValue::Float(x), AggValue::Float(y)) => x.to_bits() == y.to_bits(),
        (AggValue::Null, AggValue::Null) => true,
        _ => false,
    }
}

/// Rows of `got` that are missing, extra or wrong against `expected`;
/// both must be canonical. A `(query, key, window)` present on both
/// sides with different values counts once; a duplicate counts as extra.
pub fn mismatches(expected: &[WindowResult], got: &[WindowResult]) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0u64);
    while i < expected.len() && j < got.len() {
        match key_cmp(&expected[i], &got[j]) {
            Ordering::Equal => {
                if !same_value(expected[i].value, got[j].value) {
                    bad += 1;
                }
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                bad += 1;
                i += 1;
            }
            Ordering::Greater => {
                bad += 1;
                j += 1;
            }
        }
    }
    bad + (expected.len() - i) as u64 + (got.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::QueryId;
    use hamlet_types::{AttrValue, GroupKey, Ts};

    fn row(q: u32, key: i64, start: u64, v: AggValue) -> WindowResult {
        WindowResult {
            query: QueryId(q),
            group_key: GroupKey(vec![AttrValue::Int(key)]),
            window_start: Ts(start),
            value: v,
        }
    }

    #[test]
    fn mismatches_count_missing_extra_wrong_and_duplicates() {
        let expected = canonical(vec![
            row(1, 1, 0, AggValue::Count(3)),
            row(1, 2, 0, AggValue::Float(1.5)),
            row(2, 1, 10, AggValue::Count(1)),
            row(2, 9, 10, AggValue::Count(0)), // dropped: zero row
        ]);
        assert_eq!(expected.len(), 3);
        assert_eq!(mismatches(&expected, &expected), 0);
        // Missing one row, one wrong value, one extra, one duplicate.
        let got = canonical(vec![
            row(1, 1, 0, AggValue::Count(4)),
            row(2, 1, 10, AggValue::Count(1)),
            row(2, 1, 10, AggValue::Count(1)),
            row(3, 1, 10, AggValue::Null),
            row(3, 2, 20, AggValue::Count(7)),
        ]);
        assert_eq!(mismatches(&expected, &got), 4);
    }
}
