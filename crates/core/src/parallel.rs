//! Shared-nothing parallel execution across stream partitions.
//!
//! HAMLET partitions the stream by grouping/equivalence attributes (§2.2);
//! partitions are independent, so the classic scale-out move applies: run
//! one [`HamletEngine`] per worker, each owning the partitions whose key
//! hashes to its shard (`EngineConfig::shard`).
//!
//! # Architecture
//!
//! [`ParallelEngine`] is a shard set: a routing engine plus one
//! shard-owning engine per worker, built once and held across calls.
//! Each [`ParallelEngine::process`] call routes its slice once: for every
//! event the caller's thread computes the set of shards that own one of
//! the event's partition keys ([`HamletEngine::shard_mask`]) and appends
//! the event to those shards' batch buffers. Full batches are handed to
//! scoped worker threads over bounded channels, so routing and processing
//! overlap and no worker ever scans events it does not own. Each worker
//! therefore processes ~1/w of the events against ~1/w of the live
//! partitions and holds ~1/w of the state. With one worker there is
//! nothing to route: the single engine processes the slice inline.
//!
//! Between calls every shard has seen exactly the events routed to it so
//! far, so the gap between two calls is a coordinated barrier: query
//! churn ([`ParallelEngine::add_query`] / [`ParallelEngine::remove_query`])
//! and checkpoint cuts ([`crate::Snapshot`]) apply there to every shard
//! at the same stream position.
//!
//! # Determinism
//!
//! Aggregates are bit-identical to single-threaded execution: every
//! partition is owned by exactly one shard, and each shard computes it
//! exactly as the single-threaded engine would. Every call returns its
//! rows sorted by `(window_start, query, group_key)`
//! ([`crate::executor::sort_results`]); sorting the concatenated output
//! of a whole run the same way makes it byte-comparable across runs,
//! worker counts, slice boundaries, and against a single-threaded run.
//! Which call emits a row can depend on the worker count (a shard's
//! watermark only advances on the events routed to it); the row itself
//! cannot.
//!
//! This is the offline runner over materialized slices — the right tool
//! for throughput measurement. For *online* feeding — unbounded sources,
//! per-event backpressure, out-of-order ingestion, live latency metrics —
//! use the `hamlet-pipeline` crate, which reuses the same
//! [`HamletEngine::shard_mask`] routing over bounded per-shard channels
//! and drains to the same bit-identical merged output.

use crate::checkpoint::CheckpointError;
use crate::executor::{
    sort_results, ChurnError, ChurnOp, EngineConfig, EngineError, EngineStats, HamletEngine,
    WindowResult,
};
use crate::metrics::LatencyRecorder;
use crate::store::{live_frames, Checkpoint, CutKind, Snapshot};
use hamlet_obs::{merge_group_metrics, GroupMetrics};
use hamlet_query::{Query, QueryId};
use hamlet_types::{Event, TypeRegistry};
use std::sync::{mpsc, Arc};

/// Events per routed batch. Large enough to amortize channel traffic,
/// small enough to keep all workers busy on short slices.
const BATCH: usize = 1024;

/// Bounded depth of each worker's batch channel (backpressure: the router
/// stalls rather than buffering the whole slice for a slow worker).
const PIPELINE_DEPTH: usize = 4;

/// Partition-parallel executor: `workers` shard-owning engines over one
/// workload, fed by a batching router, held across calls.
///
/// Implements [`Snapshot`]: [`cut`](Snapshot::cut) takes a coordinated
/// cut of every shard (all at the same stream position — the caller is
/// between calls, so no shard has seen an event another has not been
/// offered) and packs the payloads into one shard-set record;
/// [`restore_chain`](Snapshot::restore_chain) restores every shard from
/// such a chain, all or nothing.
pub struct ParallelEngine {
    /// Routing-only engine (never processes events): owns the compiled
    /// share groups the router needs to map events to shards with exactly
    /// the hash the workers' shard filters apply, and validates churn.
    router: HamletEngine,
    /// One shard-owning engine per worker (index = shard).
    engines: Vec<HamletEngine>,
}

impl ParallelEngine {
    /// Compiles the workload into a routing engine and `workers` shard
    /// engines. `workers` must be in `1..=64` (the shard mask is a `u64`).
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
        workers: u32,
    ) -> Result<Self, EngineError> {
        assert!(workers >= 1, "at least one worker");
        assert!(workers <= 64, "at most 64 workers (shard mask is a u64)");
        let mut router_cfg = cfg.clone();
        router_cfg.shard = None;
        router_cfg.track_latency = false;
        router_cfg.mem_sample_every = 0;
        let router = HamletEngine::new(reg.clone(), queries.clone(), router_cfg)?;
        let engines = (0..workers)
            .map(|idx| {
                let mut cfg = cfg.clone();
                cfg.shard = (workers > 1).then_some((idx, workers));
                HamletEngine::new(reg.clone(), queries.clone(), cfg)
            })
            .collect::<Result<_, _>>()?;
        Ok(ParallelEngine { router, engines })
    }

    /// Routes one slice of the stream to the shard engines and returns
    /// the rows it emitted, merged in canonical order. Slice boundaries
    /// never change a row, only which call returns it.
    pub fn process(&mut self, events: &[Event]) -> Vec<WindowResult> {
        let mut out: Vec<WindowResult> = match self.engines.as_mut_slice() {
            [eng] => events
                .chunks(BATCH)
                .flat_map(|batch| eng.process_batch(batch))
                .collect(),
            engines => {
                let (router, workers) = (&self.router, engines.len() as u32);
                std::thread::scope(|scope| {
                    let (txs, handles): (Vec<_>, Vec<_>) = engines
                        .iter_mut()
                        .map(|eng| {
                            let (tx, rx) = mpsc::sync_channel::<Vec<Event>>(PIPELINE_DEPTH);
                            let handle = scope.spawn(move || {
                                let mut out = Vec::new();
                                while let Ok(batch) = rx.recv() {
                                    out.extend(eng.process_batch(&batch));
                                }
                                out
                            });
                            (tx, handle)
                        })
                        .unzip();
                    let mut buffers: Vec<Vec<Event>> =
                        txs.iter().map(|_| Vec::with_capacity(BATCH)).collect();
                    for e in events {
                        // One bit per shard that owns one of the event's
                        // partition keys (usually one; an event local to
                        // several share groups can carry several keys).
                        let mut mask = router.shard_mask(e, workers);
                        while mask != 0 {
                            let idx = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            buffers[idx].push(e.clone());
                            if buffers[idx].len() >= BATCH {
                                let full =
                                    std::mem::replace(&mut buffers[idx], Vec::with_capacity(BATCH));
                                // A send only fails if the worker died;
                                // the join below surfaces its panic.
                                let _ = txs[idx].send(full);
                            }
                        }
                    }
                    for (tx, buf) in txs.iter().zip(buffers) {
                        if !buf.is_empty() {
                            let _ = tx.send(buf);
                        }
                    }
                    drop(txs); // end of slice: workers drain and return
                    handles
                        .into_iter()
                        // hamlet-lint: allow(panic-hygiene) -- join propagates a worker panic; swallowing it would fake a clean run
                        .flat_map(|h| h.join().expect("worker thread panicked"))
                        .collect()
                })
            }
        };
        sort_results(&mut out);
        out
    }

    /// Finalizes every in-flight window on every shard (end of stream),
    /// merged in canonical order.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        self.on_shards(HamletEngine::flush)
    }

    /// Registers a query on every shard at the barrier between calls and
    /// returns the rows the churn drained, in canonical order (the churn
    /// contract of [`HamletEngine::add_query`]). On error every shard is
    /// untouched.
    pub fn add_query(&mut self, q: Query) -> Result<Vec<WindowResult>, ChurnError> {
        self.churn(ChurnOp::Add(q))
    }

    /// Retires a query on every shard at the barrier between calls; see
    /// [`add_query`](Self::add_query) and [`HamletEngine::remove_query`].
    pub fn remove_query(&mut self, id: QueryId) -> Result<Vec<WindowResult>, ChurnError> {
        self.churn(ChurnOp::Remove(id))
    }

    /// Applies `op` to the router first — its own churn is atomic, so it
    /// doubles as the validation — then to every shard, which compiles
    /// the same workload and so cannot fail where the router succeeded.
    fn churn(&mut self, op: ChurnOp) -> Result<Vec<WindowResult>, ChurnError> {
        let apply = |eng: &mut HamletEngine| match op.clone() {
            ChurnOp::Add(q) => eng.add_query(q),
            ChurnOp::Remove(id) => eng.remove_query(id),
        };
        apply(&mut self.router)?;
        Ok(self.on_shards(|eng| {
            apply(eng)
                // hamlet-lint: allow(panic-hygiene) -- the router compiled the same workload; a shard cannot fail where it succeeded
                .expect("router validated the churn")
                .drained
        }))
    }

    /// Runs `f` on every shard engine — on scoped threads when there are
    /// several — and merges what they return in canonical order.
    fn on_shards<F>(&mut self, f: F) -> Vec<WindowResult>
    where
        F: Fn(&mut HamletEngine) -> Vec<WindowResult> + Sync,
    {
        let mut out: Vec<WindowResult> = match self.engines.as_mut_slice() {
            [eng] => f(eng),
            engines => std::thread::scope(|scope| {
                let f = &f;
                let handles: Vec<_> = engines
                    .iter_mut()
                    .map(|eng| scope.spawn(move || f(eng)))
                    .collect();
                handles
                    .into_iter()
                    // hamlet-lint: allow(panic-hygiene) -- join propagates a worker panic; swallowing it would fake a clean run
                    .flat_map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            }),
        };
        sort_results(&mut out);
        out
    }

    /// Number of shard workers.
    pub fn workers(&self) -> u32 {
        self.engines.len() as u32
    }

    /// Per-shard engine statistics (index = shard index).
    pub fn shard_stats(&self) -> Vec<EngineStats> {
        self.engines.iter().map(|e| *e.stats()).collect()
    }

    /// Workload-level statistics: every shard's counters accumulated.
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for e in &self.engines {
            total.merge(e.stats());
        }
        total
    }

    /// All shards' result-latency samples merged into one recorder.
    pub fn latency(&self) -> LatencyRecorder {
        let mut total = LatencyRecorder::new();
        for e in &self.engines {
            total.merge(e.latency());
        }
        total
    }

    /// Per-share-group counters summed across shards, keyed by group
    /// signature and sorted canonically — byte-identical for any worker
    /// count over the same workload and stream.
    pub fn group_metrics(&self) -> Vec<GroupMetrics> {
        merge_group_metrics(self.engines.iter().map(|e| e.group_metrics().to_vec()))
    }

    /// Sum of the shards' peak byte-accounted state — the aggregate
    /// footprint if every shard hit its peak simultaneously (upper
    /// bound).
    pub fn peak_memory(&self) -> usize {
        self.engines.iter().map(HamletEngine::peak_memory).sum()
    }
}

impl Snapshot for ParallelEngine {
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        // The record kind is uniform across shards: a delta cut happens
        // only when *every* shard can prove one sound.
        let kind = match kind {
            CutKind::Delta if self.engines.iter().all(HamletEngine::delta_ready) => CutKind::Delta,
            _ => CutKind::Full,
        };
        let parts = self
            .engines
            .iter_mut()
            .map(|e| e.cut(kind))
            .collect::<Result<Vec<_>, _>>()?;
        Checkpoint::join(&parts, &[])
    }

    /// Decodes every shard's payloads from the whole chain before any
    /// shard commits, so an error leaves every shard untouched.
    fn restore_chain(&mut self, chain: &[Checkpoint]) -> Result<(), CheckpointError> {
        let frames = live_frames(chain)?;
        let staged = self
            .engines
            .iter()
            .map(|eng| eng.stage_chain(&frames))
            .collect::<Result<Vec<_>, _>>()?;
        for (eng, s) in self.engines.iter_mut().zip(staged) {
            eng.commit_chain(s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::parse_query;
    use hamlet_types::{AttrValue, Ts};

    fn setup() -> (Arc<TypeRegistry>, Vec<Query>, Vec<Event>) {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g"]);
        let b = reg.register("B", &["g"]);
        let c = reg.register("C", &["g"]);
        let reg = Arc::new(reg);
        let queries = vec![
            parse_query(
                &reg,
                1,
                "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 20",
            )
            .unwrap(),
            parse_query(
                &reg,
                2,
                "RETURN COUNT(*) PATTERN SEQ(C, B+) GROUP BY g WITHIN 20",
            )
            .unwrap(),
        ];
        let mut events = Vec::new();
        for t in 0..200u64 {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            events.push(Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)]));
        }
        (reg, queries, events)
    }

    fn shard_set(reg: &Arc<TypeRegistry>, queries: &[Query], workers: u32) -> ParallelEngine {
        ParallelEngine::new(
            reg.clone(),
            queries.to_vec(),
            EngineConfig::default(),
            workers,
        )
        .unwrap()
    }

    /// Feeds `slices` in order, flushes, and returns every row of the
    /// run in canonical order.
    fn run_slices(par: &mut ParallelEngine, slices: &[&[Event]]) -> Vec<WindowResult> {
        let mut out: Vec<WindowResult> = slices.iter().flat_map(|s| par.process(s)).collect();
        out.extend(par.flush());
        sort_results(&mut out);
        out
    }

    #[test]
    fn parallel_matches_single_threaded_bit_identically() {
        let (reg, queries, events) = setup();
        // Reference: the raw engine, results sorted into canonical order.
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut reference = Vec::new();
        for e in &events {
            reference.extend(eng.process(e));
        }
        reference.extend(eng.flush());
        sort_results(&mut reference);
        for workers in [1u32, 2, 4, 7] {
            let mut par = shard_set(&reg, &queries, workers);
            // No normalization: the full result set — zero rows included —
            // is identical, in identical order.
            assert_eq!(
                reference,
                run_slices(&mut par, &[&events]),
                "{workers} workers"
            );
            assert_eq!(par.workers(), workers);
            assert_eq!(par.shard_stats().len(), workers as usize);
        }
    }

    /// Zero-length and ragged slices are inert: a call sequence with
    /// empty head/middle/tail slices and a trailing partial produces
    /// bit-identical results to the whole-slice run — an empty slice
    /// must be a no-op, not a watermark side-effect.
    #[test]
    fn empty_and_partial_input_batches_are_inert() {
        let (reg, queries, events) = setup();
        for workers in [1u32, 4] {
            let base = run_slices(&mut shard_set(&reg, &queries, workers), &[&events]);
            let seq: Vec<&[Event]> = vec![
                &[],
                &events[0..1],
                &[],
                &events[1..64],
                &events[64..64],
                &events[64..199],
                &events[199..200],
                &[],
            ];
            let got = run_slices(&mut shard_set(&reg, &queries, workers), &seq);
            assert_eq!(base, got, "{workers} workers");
        }
    }

    #[test]
    fn slice_size_does_not_change_results() {
        let (reg, queries, events) = setup();
        let base = run_slices(&mut shard_set(&reg, &queries, 4), &[&events]);
        for size in [1usize, 7, 1024] {
            let slices: Vec<&[Event]> = events.chunks(size).collect();
            let got = run_slices(&mut shard_set(&reg, &queries, 4), &slices);
            assert_eq!(base, got, "slice size {size}");
        }
    }

    #[test]
    fn results_are_sorted_by_window_query_key() {
        let (reg, queries, events) = setup();
        let mut par = shard_set(&reg, &queries, 4);
        for rows in [
            par.process(&events[..150]),
            par.process(&events[150..]),
            par.flush(),
        ] {
            for pair in rows.windows(2) {
                let ord = (pair[0].window_start, pair[0].query)
                    .cmp(&(pair[1].window_start, pair[1].query))
                    .then_with(|| pair[0].group_key.total_cmp(&pair[1].group_key));
                assert_ne!(ord, std::cmp::Ordering::Greater, "unsorted: {pair:?}");
            }
        }
    }

    #[test]
    fn merged_views_aggregate_the_shards() {
        let (reg, queries, events) = setup();
        let mut par = shard_set(&reg, &queries, 4);
        let results = run_slices(&mut par, &[&events]);
        let merged = par.stats();
        assert_eq!(
            merged.events_routed,
            par.shard_stats()
                .iter()
                .map(|s| s.events_routed)
                .sum::<u64>()
        );
        assert_eq!(merged.windows_emitted, results.len() as u64);
        let peaks: Vec<usize> = par.engines.iter().map(HamletEngine::peak_memory).collect();
        assert_eq!(par.peak_memory(), peaks.iter().sum::<usize>());
        assert!(peaks.iter().copied().max().unwrap() <= par.peak_memory());
        assert_eq!(
            par.latency().count(),
            par.engines.iter().map(|e| e.latency().count()).sum::<u64>()
        );
        assert_eq!(par.workers(), 4);
    }

    #[test]
    fn shards_partition_the_work() {
        let (reg, queries, events) = setup();
        let mut par = shard_set(&reg, &queries, 4);
        let results = run_slices(&mut par, &[&events]);
        // All 7 group-by keys are covered, each by exactly one worker.
        let keys: std::collections::BTreeSet<String> =
            results.iter().map(|r| format!("{}", r.group_key)).collect();
        assert_eq!(keys.len(), 7);
        // Work split across more than one worker.
        let stats = par.shard_stats();
        let active = stats.iter().filter(|s| s.events_routed > 0).count();
        assert!(active >= 2, "work spread over workers: {active}");
        // Routing is exact: no worker saw more events than the stream.
        let routed: u64 = stats.iter().map(|s| s.events_routed).sum();
        assert!(routed <= events.len() as u64 * 2, "routing not broadcast");
        // Each result belongs to exactly one query per key/window (no
        // duplicates across workers).
        let mut seen = std::collections::BTreeSet::new();
        for r in &results {
            if r.query == QueryId(1) {
                assert!(
                    seen.insert((format!("{}", r.group_key), r.window_start)),
                    "duplicate result {r:?}"
                );
            }
        }
    }

    /// Full cut at an arbitrary barrier, restore into a fresh shard set,
    /// finish: the union of pre-barrier and post-restore results is
    /// byte-identical to one uninterrupted run, at 1 and several workers.
    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let (reg, queries, events) = setup();
        for workers in [1u32, 4] {
            let gold = run_slices(&mut shard_set(&reg, &queries, workers), &[&events]);
            for cut in [0usize, 63, events.len()] {
                let mut pre = shard_set(&reg, &queries, workers);
                let mut all = pre.process(&events[..cut]);
                let ck = pre.cut(CutKind::Full).unwrap();
                // Serialize/deserialize the record as a file would.
                let ck = Checkpoint::from_bytes(ck.into_bytes()).unwrap();
                let mut post = shard_set(&reg, &queries, workers);
                post.restore_chain(&[ck]).unwrap();
                all.extend(run_slices(&mut post, &[&events[cut..]]));
                sort_results(&mut all);
                assert_eq!(all, gold, "{workers} workers, cut {cut}");
            }
        }
    }

    /// Worker-count mismatches and garbage are clean errors.
    #[test]
    fn restore_validates_worker_count_and_record() {
        let (reg, queries, events) = setup();
        let mut four = shard_set(&reg, &queries, 4);
        four.process(&events[..50]);
        let ck = four.cut(CutKind::Full).unwrap();
        assert!(matches!(
            shard_set(&reg, &queries, 2).restore_chain(std::slice::from_ref(&ck)),
            Err(CheckpointError::WorkloadMismatch(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"garbage!".to_vec()),
            Err(CheckpointError::BadMagic)
        ));
        let blob = ck.as_bytes();
        assert!(Checkpoint::from_bytes(blob[..blob.len() - 2].to_vec()).is_err());
    }

    /// Restore is all or nothing: a chain whose last shard payload is
    /// corrupt fails after every other shard decoded fine, and leaves
    /// the shard set cutting exactly what an untouched twin cuts.
    #[test]
    fn failed_restore_leaves_the_session_untouched() {
        use crate::checkpoint::Frame;
        let (reg, queries, events) = setup();
        let mut src = shard_set(&reg, &queries, 4);
        src.process(&events[..120]);
        let base = src.cut(CutKind::Full).unwrap();
        src.process(&events[120..160]);
        let delta = src.cut(CutKind::Delta).unwrap();
        assert!(delta.is_delta());
        let f = Frame::decode(delta.as_bytes()).unwrap();
        let last = f.shards[3];
        let mut shards = f.shards.clone();
        shards[3] = &last[..last.len() - 1];
        let broken = Checkpoint::from_bytes(
            Frame {
                shards,
                ..f.clone()
            }
            .encode(),
        )
        .unwrap();

        // Twins restored from the same base hold bit-identical state,
        // wall-clock telemetry included.
        let (mut victim, mut twin) = (shard_set(&reg, &queries, 4), shard_set(&reg, &queries, 4));
        for s in [&mut victim, &mut twin] {
            s.restore_chain(std::slice::from_ref(&base)).unwrap();
        }
        assert!(victim.restore_chain(&[base, broken]).is_err());
        assert_eq!(
            victim.cut(CutKind::Full).unwrap(),
            twin.cut(CutKind::Full).unwrap()
        );
        assert_eq!(victim.process(&events[120..]), twin.process(&events[120..]));
        assert_eq!(victim.flush(), twin.flush());
    }

    /// Churn is atomic across the shard set: a rejected op — a duplicate
    /// id, an unknown id, or a query the engine cannot compile — leaves
    /// every shard cutting exactly what an untouched twin cuts, and the
    /// rest of the stream emits identically.
    #[test]
    fn rejected_churn_leaves_every_shard_untouched() {
        let (reg, queries, events) = setup();
        // MIN over a negated pattern parses but does not compile.
        let unsupported = parse_query(
            &reg,
            5,
            "RETURN MIN(B.g) PATTERN SEQ(A, NOT C, B+) GROUP BY g WITHIN 20",
        )
        .unwrap();
        let rejections: [(usize, ChurnOp); 3] = [
            (40, ChurnOp::Add(queries[0].clone())),
            (90, ChurnOp::Remove(QueryId(77))),
            (130, ChurnOp::Add(unsupported)),
        ];
        let mut src = shard_set(&reg, &queries, 4);
        let mut pos = 0usize;
        for (at, op) in rejections {
            src.process(&events[pos..at]);
            pos = at;
            // Twins restored from the same base hold bit-identical state,
            // wall-clock telemetry included.
            let base = src.cut(CutKind::Full).unwrap();
            let (mut victim, mut twin) =
                (shard_set(&reg, &queries, 4), shard_set(&reg, &queries, 4));
            for s in [&mut victim, &mut twin] {
                s.restore_chain(std::slice::from_ref(&base)).unwrap();
            }
            let err = match op.clone() {
                ChurnOp::Add(q) => victim.add_query(q),
                ChurnOp::Remove(id) => victim.remove_query(id),
            };
            match (&op, err) {
                (ChurnOp::Add(q), Err(ChurnError::Duplicate(id))) => assert_eq!(id, q.id),
                (ChurnOp::Remove(_), Err(ChurnError::Unknown(id))) => assert_eq!(id, QueryId(77)),
                (ChurnOp::Add(_), Err(ChurnError::Engine(EngineError::Unsupported(_)))) => {}
                (op, other) => panic!("{op:?} not rejected as expected: {other:?}"),
            }
            assert_eq!(
                victim.cut(CutKind::Full).unwrap().as_bytes(),
                twin.cut(CutKind::Full).unwrap().as_bytes(),
                "state changed by rejected {op:?}"
            );
            assert_eq!(victim.process(&events[at..]), twin.process(&events[at..]));
            assert_eq!(victim.flush(), twin.flush());
        }
    }

    /// Runtime churn at the barrier between calls: results are identical
    /// across worker counts (the 1-worker path is the reference), bad ops
    /// are rejected, and the shard set ends at the final workload.
    #[test]
    fn churned_run_is_worker_count_invariant() {
        let (reg, queries, events) = setup();
        let q3 = parse_query(
            &reg,
            9,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap();
        let later: Vec<Event> = events
            .iter()
            .map(|e| Event::new(Ts(e.time.ticks() + 1_000), e.ty, e.attrs.clone()))
            .collect();
        let mut reference = None;
        for workers in [1u32, 2, 4] {
            let mut eng = shard_set(&reg, &queries, workers);
            let mut out = eng.process(&events[..60]);
            out.extend(eng.add_query(q3.clone()).unwrap());
            out.extend(eng.process(&events[60..140]));
            out.extend(eng.remove_query(QueryId(9)).unwrap());
            out.extend(run_slices(&mut eng, &[&events[140..], &later]));
            sort_results(&mut out);
            // The shard set ended at the final (post-churn) workload: the
            // windows of a later stretch of stream come out as on a fresh
            // shard set over that workload.
            assert_eq!(eng.router.queries().len(), queries.len());
            let fresh = run_slices(&mut shard_set(&reg, &queries, workers), &[&later]);
            let after: Vec<WindowResult> = out
                .iter()
                .filter(|r| r.window_start >= later[0].time)
                .cloned()
                .collect();
            assert_eq!(after, fresh, "{workers} workers, after");
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out, "{workers} workers"),
            }
        }
        // The churned results include q9's windows (drained or closed).
        let r = reference.unwrap();
        assert!(r.iter().any(|x| x.query == QueryId(9)));

        let mut eng = shard_set(&reg, &queries, 2);
        assert!(matches!(
            eng.remove_query(QueryId(77)),
            Err(ChurnError::Unknown(QueryId(77)))
        ));
        assert!(matches!(
            eng.add_query(queries[0].clone()),
            Err(ChurnError::Duplicate(QueryId(1)))
        ));
    }

    /// A record cut after churn restores into a shard set built with the
    /// final query set (the record's epoch is adopted), and is rejected
    /// by one whose set never churned.
    #[test]
    fn post_churn_checkpoint_resumes_with_epoch() {
        let (reg, queries, events) = setup();
        // The churned state, built directly on a core engine: a 1-worker
        // shard set restores an engine record as its single shard.
        let mut core =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        for e in &events[..50] {
            core.process(e);
        }
        core.remove_query(QueryId(2)).unwrap();
        for e in &events[50..100] {
            core.process(e);
        }
        let ck = core.cut(CutKind::Full).unwrap();
        assert_eq!(ck.epoch(), 1);
        // Resume with the final (one-query) workload: epoch adopted.
        let mut resumed = shard_set(&reg, &queries[..1], 1);
        resumed.restore_chain(std::slice::from_ref(&ck)).unwrap();
        let mut got = resumed.process(&events[100..]);
        got.extend(resumed.flush());
        let mut direct = Vec::new();
        for e in &events[100..] {
            direct.extend(core.process(e));
        }
        direct.extend(core.flush());
        sort_results(&mut direct);
        assert_eq!(direct, got);
        // A shard set over the pre-churn two-query set cannot restore it.
        let err = shard_set(&reg, &queries, 1).restore_chain(&[ck]);
        assert!(matches!(err, Err(CheckpointError::WorkloadMismatch(_))));
    }

    /// A live shard set matches one uninterrupted call across worker
    /// counts, and a chain cut mid-stream restores into a fresh shard set
    /// that finishes the stream identically (the 4-worker delta path of
    /// `tests/delta_checkpoint.rs`, in miniature).
    #[test]
    fn session_chain_cut_and_restore_matches_offline() {
        let (reg, queries, events) = setup();
        let offline = run_slices(&mut shard_set(&reg, &queries, 4), &[&events]);
        for workers in [1u32, 4] {
            let mut live = shard_set(&reg, &queries, workers);
            let mut out = Vec::new();
            let mut chain = Vec::new();
            for (i, seg) in events.chunks(50).enumerate() {
                out.extend(live.process(seg));
                let ck = live.cut(CutKind::Delta).unwrap();
                assert_eq!(ck.is_delta(), i > 0, "first cut promotes to base");
                assert_eq!(ck.seq(), i as u64 + 1);
                chain.push(ck);
            }
            // The cut shard set and a chain-restored one describe the
            // same state: their next full cuts agree byte-for-byte...
            let mut revived = shard_set(&reg, &queries, workers);
            revived.restore_chain(&chain).unwrap();
            assert_eq!(
                revived.cut(CutKind::Full).unwrap().as_bytes(),
                live.cut(CutKind::Full).unwrap().as_bytes()
            );
            // ...and they drain the remaining in-flight windows
            // identically.
            let flushed = live.flush();
            assert_eq!(revived.flush(), flushed);
            out.extend(flushed);
            sort_results(&mut out);
            assert_eq!(out, offline, "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let (reg, queries, _) = setup();
        let _ = ParallelEngine::new(reg, queries, EngineConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 workers")]
    fn too_many_workers_rejected() {
        let (reg, queries, _) = setup();
        let _ = ParallelEngine::new(reg, queries, EngineConfig::default(), 65);
    }
}
