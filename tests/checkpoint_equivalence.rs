//! Recovery equivalence: kill a run at an arbitrary point, restore from
//! its checkpoint, continue — the output must be **byte-identical** to a
//! run that never stopped. Proven at every layer of the stack, each
//! through the one [`Snapshot`] API:
//!
//! * the single engine (`cut(Full)` / `restore_chain`), in raw emission
//!   order, including the round-trip identity: the restored engine's
//!   next full cut equals the original's;
//! * the parallel shard set (`ParallelEngine`) at 1 and 4 workers, in
//!   canonical order;
//! * the online pipeline (`PipelineHandle::checkpoint` appended to a
//!   store / `PipelineBuilder::resume_from`) at 1 and 4 workers, for
//!   in-order *and* bounded-late delivery — the reorder buffer and
//!   source cursor travel inside the checkpoint;
//! * a proptest over stream shapes and checkpoint positions.
//!
//! This is the acceptance property of the checkpoint subsystem: recovery
//! may never lose a window, emit one twice, or change a single row.

use hamlet::prelude::*;
use hamlet_stream::{bounded_delay_shuffle, max_observed_lateness, ridesharing};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload() -> (Arc<TypeRegistry>, Vec<Query>) {
    let reg = ridesharing::registry();
    let queries = ridesharing::workload_shared_kleene(&reg, 6, 30);
    (reg, queries)
}

fn stream(reg: &Arc<TypeRegistry>, seed: u64, events_per_min: u64, groups: u64) -> Vec<Event> {
    ridesharing::generate(
        reg,
        &GenConfig {
            events_per_min,
            minutes: 1,
            mean_burst: 15.0,
            num_groups: groups,
            group_skew: 0.0,
            seed,
            max_lateness: 0,
        },
    )
}

/// Offline reference: one engine, events in slice order, then flush.
/// Raw emission order — no normalization.
fn offline(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) -> Vec<WindowResult> {
    let mut eng = HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default())
        .expect("engine builds");
    let mut out = Vec::new();
    for e in events {
        out.extend(eng.process(e));
    }
    out.extend(eng.flush());
    out
}

/// Single engine: process a prefix, cut a full record, **drop the
/// engine** (the crash), restore into a fresh one, continue — per-event
/// output and the final flush are byte-identical to the uninterrupted
/// run, in raw emission order; and the restored engine's next full cut
/// equals the one the original would have cut.
#[test]
fn engine_kill_restore_continue_is_byte_identical() {
    let (reg, queries) = workload();
    let events = stream(&reg, 42, 2_000, 12);
    let mk = || HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();

    let mut gold_engine = mk();
    let mut gold: Vec<Vec<WindowResult>> = Vec::new();
    for e in &events {
        gold.push(gold_engine.process(e));
    }
    let gold_flush = gold_engine.flush();
    assert!(
        gold.iter().any(|r| !r.is_empty()),
        "workload emits mid-stream"
    );

    for cut in [0, events.len() / 3, events.len() - 1, events.len()] {
        let mut victim = mk();
        for e in &events[..cut] {
            let _ = victim.process(e);
        }
        let blob = victim.cut(CutKind::Full).unwrap();
        let next = victim.cut(CutKind::Full).unwrap();
        drop(victim); // the crash

        let mut survivor = mk();
        survivor.restore_chain(&[blob]).unwrap();
        assert_eq!(
            survivor.cut(CutKind::Full).unwrap(),
            next,
            "cut {cut}: checkpoint/restore round trip is not the identity"
        );
        for (i, e) in events[cut..].iter().enumerate() {
            assert_eq!(
                survivor.process(e),
                gold[cut + i],
                "cut {cut}: event {} diverged after restore",
                cut + i
            );
        }
        assert_eq!(survivor.flush(), gold_flush, "cut {cut}: flush diverged");
    }
}

/// Parallel shard set at 1 and 4 workers: a coordinated full cut at an
/// arbitrary barrier, restored into a fresh shard set (through the
/// serialized record, as a crash-recovery path would) that finishes the
/// stream, equals one uninterrupted run in canonical order — zero rows
/// included.
#[test]
fn parallel_checkpoint_resume_is_identical_at_1_and_4_workers() {
    let (reg, queries) = workload();
    let events = stream(&reg, 7, 3_000, 24);
    for workers in [1u32, 4] {
        let mk = || {
            ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
        };
        let mut gold_par = mk();
        let mut gold = gold_par.process(&events);
        gold.extend(gold_par.flush());
        sort_results(&mut gold);
        assert!(!gold.is_empty());
        for cut in [0, events.len() / 2, events.len()] {
            let mut pre = mk();
            let mut all = pre.process(&events[..cut]);
            let record = pre.cut(CutKind::Full).unwrap().into_bytes();
            drop(pre); // the crash
            let restored = Checkpoint::from_bytes(record).unwrap();
            let mut post = mk();
            post.restore_chain(&[restored]).unwrap();
            all.extend(post.process(&events[cut..]));
            all.extend(post.flush());
            sort_results(&mut all);
            assert_eq!(
                all, gold,
                "{workers} workers, cut {cut}: recovery changed the output"
            );
        }
    }
}

/// Waits until a pipeline condition holds (bounded, so a wedged pipeline
/// fails the test instead of hanging CI).
fn wait_for<S: Sink>(handle: &PipelineHandle<S>, cond: impl Fn(&MetricsSnapshot) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if cond(&handle.metrics()) {
            return;
        }
        assert!(Instant::now() < deadline, "pipeline made no progress");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Online pipeline, in-order stream, deterministic barrier: run a
/// prefix to completion, checkpoint, resume with the remainder — the
/// union of pre- and post-barrier sink contents equals the offline run
/// (raw order at 1 worker, canonical at 4).
#[test]
fn pipeline_checkpoint_resume_in_order_1_and_4_workers() {
    let (reg, queries) = workload();
    let events = stream(&reg, 11, 2_000, 12);
    let expected_raw = offline(&reg, &queries, &events);
    let cut = events.len() / 2;
    for workers in [1u32, 4] {
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        wait_for(&handle, |m| m.source_done && m.queued() == 0);
        let frozen = handle.checkpoint();
        assert_eq!(frozen.checkpoint.events_pulled(), cut as u64);
        assert!(frozen.checkpoint.engine_bytes() > 0);

        // Persist, reload, resume in a "new process".
        let store = MemStore::new();
        store
            .append(&Checkpoint::from_bytes(frozen.checkpoint.to_bytes()).unwrap())
            .unwrap();
        let tip = store.load_chain().unwrap().pop().unwrap();
        let restored = PipelineCheckpoint::from_bytes(tip.as_bytes()).unwrap();
        let cursor = restored.events_pulled() as usize;
        let report = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .resume_from(
                &store,
                ReplaySource::new(events[cursor..].to_vec()),
                frozen.sink,
            )
            .unwrap()
            .drain();
        assert_eq!(report.events, events.len() as u64, "counters continue");
        if workers == 1 {
            assert_eq!(
                report.sink.results, expected_raw,
                "1 worker: recovery changed output or order"
            );
        } else {
            let mut got = report.sink.results;
            sort_results(&mut got);
            let mut want = expected_raw.clone();
            sort_results(&mut want);
            assert_eq!(got, want, "{workers} workers: recovery changed output");
        }
    }
}

/// Online pipeline under bounded-late delivery, checkpointed **live,
/// mid-flight** (the barrier lands wherever it lands — possibly with
/// events frozen in the reorder buffer): resuming with the remainder of
/// the shuffled stream still reproduces the in-order offline run
/// exactly, with nothing dropped and nothing duplicated.
#[test]
fn pipeline_checkpoint_resume_bounded_late_mid_flight() {
    let (reg, queries) = workload();
    let in_order = stream(&reg, 23, 4_000, 16);
    let lateness = 5u64;
    let mut delivered = in_order.clone();
    bounded_delay_shuffle(&mut delivered, lateness, 99);
    assert!(max_observed_lateness(&delivered) > 0, "stream is shuffled");
    let mut expected = offline(&reg, &queries, &in_order);
    sort_results(&mut expected);

    for workers in [1u32, 4] {
        // Pace the source so the checkpoint reliably lands mid-stream:
        // at 5k ev/s the ~4k-event stream takes ~800ms, and the barrier
        // fires ~40ms in — whole-second scheduling margin, so a stalled
        // CI runner cannot turn this into an end-of-stream checkpoint.
        let paced = RateLimitedSource::new(ReplaySource::new(delivered.clone()), 5_000.0);
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .watermark(BoundedLateness::new(lateness))
            .spawn(paced, VecSink::new())
            .unwrap();
        wait_for(&handle, |m| m.ingested > 200);
        let frozen = handle.checkpoint();
        let cursor = frozen.checkpoint.events_pulled() as usize;
        assert!(
            cursor < delivered.len(),
            "{workers} workers: barrier should land mid-stream (cursor {cursor})"
        );

        let store = MemStore::new();
        store
            .append(&Checkpoint::from_bytes(frozen.checkpoint.to_bytes()).unwrap())
            .unwrap();
        let report = Pipeline::builder(reg.clone(), queries.clone())
            .workers(workers)
            .watermark(BoundedLateness::new(lateness))
            .resume_from(
                &store,
                ReplaySource::new(delivered[cursor..].to_vec()),
                frozen.sink,
            )
            .unwrap()
            .drain();
        assert_eq!(report.late, 0, "lateness within slack drops nothing");
        assert_eq!(report.events, delivered.len() as u64);
        let mut got = report.sink.results;
        sort_results(&mut got);
        assert_eq!(
            got, expected,
            "{workers} workers: bounded-late recovery diverged (cursor {cursor})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random stream shapes × random checkpoint positions: engine-level
    /// kill-restore-continue is byte-identical, and the 2-worker
    /// parallel path agrees canonically.
    #[test]
    fn random_streams_and_cuts_recover_identically(
        seed in 0u64..10_000,
        mean_burst in 1.0f64..40.0,
        groups in 1u64..16,
        cut_permille in 0u64..=1_000,
    ) {
        let reg = ridesharing::registry();
        let queries = ridesharing::workload_shared_kleene(&reg, 4, 20);
        let events = ridesharing::generate(&reg, &GenConfig {
            events_per_min: 600,
            minutes: 1,
            mean_burst,
            num_groups: groups,
            group_skew: 0.0,
            seed,
            max_lateness: 0,
        });
        let cut = (events.len() as u64 * cut_permille / 1_000) as usize;

        // Engine level, raw order.
        let mk = || HamletEngine::new(
            reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut victim = mk();
        for e in &events[..cut] {
            let _ = victim.process(e);
        }
        let blob = victim.cut(CutKind::Full).unwrap();
        let next = victim.cut(CutKind::Full).unwrap();
        drop(victim);
        let mut survivor = mk();
        survivor.restore_chain(&[blob]).unwrap();
        prop_assert_eq!(&survivor.cut(CutKind::Full).unwrap(), &next, "round trip, cut {}", cut);
        let mut recovered = Vec::new();
        for e in &events[cut..] {
            recovered.extend(survivor.process(e));
        }
        recovered.extend(survivor.flush());
        let mut gold_suffix = mk();
        let mut expected_suffix = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let out = gold_suffix.process(e);
            if i >= cut {
                expected_suffix.extend(out);
            }
        }
        expected_suffix.extend(gold_suffix.flush());
        prop_assert_eq!(&recovered, &expected_suffix, "seed {} cut {}", seed, cut);

        // Parallel, canonical order.
        let mk_par = || ParallelEngine::new(
            reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        let mut gold_eng = mk_par();
        let mut gold_par = gold_eng.process(&events);
        gold_par.extend(gold_eng.flush());
        sort_results(&mut gold_par);
        let mut pre = mk_par();
        let mut all = pre.process(&events[..cut]);
        let record = pre.cut(CutKind::Full).unwrap();
        let mut post = mk_par();
        post.restore_chain(&[record]).unwrap();
        all.extend(post.process(&events[cut..]));
        all.extend(post.flush());
        sort_results(&mut all);
        prop_assert_eq!(&all, &gold_par, "parallel seed {} cut {}", seed, cut);
    }
}
