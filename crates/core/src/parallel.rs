//! Shared-nothing parallel execution across stream partitions.
//!
//! HAMLET partitions the stream by grouping/equivalence attributes (§2.2);
//! partitions are independent, so the classic scale-out move applies: run
//! one [`HamletEngine`] per worker, each owning the partitions whose key
//! hashes to its shard (`EngineConfig::shard`).
//!
//! # Architecture
//!
//! A coordinator routes the stream once: for every event it computes the
//! set of shards that own one of the event's partition keys
//! ([`HamletEngine::shard_mask`]) and appends the event to those shards'
//! batch buffers. Full batches are handed to the worker threads over
//! bounded channels, so routing and processing overlap and no worker ever
//! scans events it does not own. Each worker therefore processes ~1/w of
//! the events against ~1/w of the live partitions and holds ~1/w of the
//! state. (Since the watermark expiration index landed, window expiry no
//! longer scans live partitions per event, so sharding's win comes from
//! core parallelism and per-shard state locality rather than from
//! dividing an O(P) expiry term.)
//!
//! # Determinism
//!
//! Aggregates are bit-identical to single-threaded execution: every
//! partition is owned by exactly one shard, and each shard computes it
//! exactly as the single-threaded engine would. At merge time the report
//! sorts all window results by `(window_start, query, group_key)`
//! ([`crate::executor::sort_results`]), so [`ParallelReport::results`] is
//! byte-comparable across runs, worker counts, and against a
//! single-threaded run sorted the same way. The single-threaded engine is
//! itself deterministic by construction: each watermark advance emits its
//! expired windows in `(window_start, group, key)` order straight off the
//! expiration index, never in `HashMap` iteration order.
//!
//! This is an offline/batch harness (`run` consumes a finite stream) —
//! the right tool for throughput measurement over materialized streams.
//! For *online* feeding — unbounded sources, per-event backpressure,
//! out-of-order ingestion, live latency metrics — use the
//! `hamlet-pipeline` crate, which reuses the same [`HamletEngine::shard_mask`]
//! routing over bounded per-shard channels and drains to the same
//! bit-identical merged output.

use crate::checkpoint::CheckpointError;
use crate::executor::{
    sort_results, ChurnError, ChurnOp, EngineConfig, EngineError, EngineStats, HamletEngine,
    WindowResult,
};
use crate::metrics::LatencyRecorder;
use hamlet_obs::{merge_group_metrics, GroupMetrics};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Default number of events per routed batch. Large enough to amortize
/// channel traffic, small enough to keep all workers busy on short
/// streams.
pub const DEFAULT_BATCH: usize = 1024;

/// Bounded depth of each worker's batch channel (backpressure: the router
/// stalls rather than buffering the whole stream for a slow worker).
const PIPELINE_DEPTH: usize = 4;

/// What one worker returns: results, stats, latency recorder, peak
/// bytes, and per-share-group observability counters.
type WorkerOutput = (
    Vec<WindowResult>,
    EngineStats,
    LatencyRecorder,
    usize,
    Vec<GroupMetrics>,
);

/// Everything a finished shard engine reports, `results` first.
fn worker_output(results: Vec<WindowResult>, eng: &HamletEngine) -> WorkerOutput {
    (
        results,
        *eng.stats(),
        eng.latency().clone(),
        eng.peak_memory(),
        eng.group_metrics().to_vec(),
    )
}

/// What the router sends a shard worker during a churned run: a routed
/// batch, or a churn op every worker applies at the same stream position
/// (the coordinated per-shard barrier — channel FIFO order guarantees all
/// pre-op events are processed first).
enum ShardMsg {
    Batch(Vec<Event>),
    Churn(ChurnOp),
}

/// Applies one validated churn op to an engine, returning the results it
/// drained at the barrier.
fn apply_op(eng: &mut HamletEngine, op: ChurnOp) -> Vec<WindowResult> {
    let report = match op {
        ChurnOp::Add(q) => eng.add_query(q),
        ChurnOp::Remove(id) => eng.remove_query(id),
    };
    report
        // hamlet-lint: allow(panic-hygiene) -- a shard failing a pre-validated churn must not run past the cut; the panic surfaces at join
        .expect("churn ops validated before execution started")
        .drained
}

/// Result of a parallel run: the merged, deterministically ordered window
/// results plus a per-worker breakdown and aggregate views of the §6.1
/// metrics.
pub struct ParallelReport {
    /// All window results, sorted by `(window_start, query, group_key)`.
    /// The order is a guarantee: it does not depend on worker count or
    /// thread scheduling, so two runs of the same workload — parallel or
    /// single-threaded (after [`sort_results`]) — compare byte-for-byte.
    pub results: Vec<WindowResult>,
    /// Per-worker engine statistics (index = shard index).
    pub stats: Vec<EngineStats>,
    /// Per-worker peak byte-accounted state.
    pub peak_mem: Vec<usize>,
    /// Per-worker result latency recorders.
    pub latency: Vec<LatencyRecorder>,
    /// Per-worker per-share-group observability counters (index =
    /// shard index; empty inner vectors when `EngineConfig::obs` is
    /// off). Merge with [`Self::merged_group_metrics`].
    pub group_metrics: Vec<Vec<GroupMetrics>>,
    /// Events fed to the router.
    pub events: u64,
    /// End-to-end wall time of the run (routing + processing + merge).
    pub wall: Duration,
}

impl ParallelReport {
    /// Workload-level statistics: every worker's counters accumulated.
    pub fn merged_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }

    /// All workers' latency samples merged into one recorder.
    pub fn merged_latency(&self) -> LatencyRecorder {
        let mut total = LatencyRecorder::new();
        for l in &self.latency {
            total.merge(l);
        }
        total
    }

    /// Per-share-group counters summed across shards, keyed by group
    /// signature and sorted canonically — byte-identical for any
    /// worker count over the same workload and stream.
    pub fn merged_group_metrics(&self) -> Vec<GroupMetrics> {
        merge_group_metrics(self.group_metrics.iter().cloned())
    }

    /// Sum of the per-worker peaks — the aggregate state footprint if
    /// every shard hit its peak simultaneously (upper bound).
    pub fn total_peak_mem(&self) -> usize {
        self.peak_mem.iter().sum()
    }

    /// Largest single-worker peak — what capacity each shard needs.
    pub fn max_peak_mem(&self) -> usize {
        self.peak_mem.iter().copied().max().unwrap_or(0)
    }

    /// End-to-end events per second (router input over wall time).
    pub fn throughput_eps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// Number of workers that ran.
    pub fn workers(&self) -> usize {
        self.stats.len()
    }
}

/// Partition-parallel executor: `workers` shard-owning engines over the
/// same workload, fed by a batching router.
pub struct ParallelEngine {
    reg: Arc<TypeRegistry>,
    queries: Vec<Query>,
    cfg: EngineConfig,
    workers: u32,
    batch: usize,
    /// Routing-only engine (never processes events): owns the compiled
    /// share groups the router needs to map events to shards with exactly
    /// the hash the workers' shard filters apply.
    router: HamletEngine,
}

impl ParallelEngine {
    /// Validates the workload once and prepares a `workers`-way sharding.
    /// `workers` must be in `1..=64` (the shard mask is a `u64`).
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
        workers: u32,
    ) -> Result<Self, EngineError> {
        assert!(workers >= 1, "at least one worker");
        assert!(workers <= 64, "at most 64 workers (shard mask is a u64)");
        // Compile once up front so construction errors surface here, not
        // inside worker threads; the compiled engine doubles as the
        // router's share-group index.
        let mut router_cfg = cfg.clone();
        router_cfg.shard = None;
        router_cfg.track_latency = false;
        router_cfg.mem_sample_every = 0;
        let router = HamletEngine::new(reg.clone(), queries.clone(), router_cfg)?;
        Ok(ParallelEngine {
            reg,
            queries,
            cfg,
            workers,
            batch: DEFAULT_BATCH,
            router,
        })
    }

    /// Overrides the routing batch size (events per channel send).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be positive");
        self.batch = batch;
        self
    }

    /// Opens a **live session** over this engine's workload and
    /// sharding: the per-shard engines are built once and held across
    /// calls, so processing can interleave with coordinated chain cuts
    /// ([`crate::Snapshot::cut`]). The offline methods on `self`
    /// ([`run`](Self::run) etc.) are unaffected.
    pub fn session(&self) -> ParallelSession {
        let mut router_cfg = self.cfg.clone();
        router_cfg.shard = None;
        router_cfg.track_latency = false;
        router_cfg.mem_sample_every = 0;
        let router = HamletEngine::new(self.reg.clone(), self.queries.clone(), router_cfg)
            // hamlet-lint: allow(panic-hygiene) -- the same config already built an engine in ParallelEngine::new; reconstruction is deterministic
            .expect("validated in ParallelEngine::new");
        let engines = (0..self.workers as usize)
            .map(|idx| {
                HamletEngine::new(self.reg.clone(), self.queries.clone(), self.shard_cfg(idx))
                    // hamlet-lint: allow(panic-hygiene) -- the same config already built an engine in ParallelEngine::new; reconstruction is deterministic
                    .expect("validated in ParallelEngine::new")
            })
            .collect();
        ParallelSession {
            workers: self.workers,
            router,
            engines,
        }
    }

    /// Processes a finite stream and merges the window results.
    pub fn run(&self, events: &[Event]) -> ParallelReport {
        self.run_batches(events.chunks(self.batch))
    }

    /// Streaming variant of [`run`](Self::run): consumes the input batch
    /// by batch (e.g. from the `batches` helper in `hamlet-stream`) so
    /// the caller never needs the whole stream in one slice. Input batch
    /// boundaries only affect pipelining granularity, not results.
    pub fn run_batches<'a>(&self, batches: impl Iterator<Item = &'a [Event]>) -> ParallelReport {
        // hamlet-lint: allow(wallclock) -- run-duration measurement for the report
        let t0 = Instant::now();
        let mut events_total = 0u64;
        let outputs = if self.workers == 1 {
            // Degenerate case: no routing, no threads — the baseline the
            // scaling experiments compare against.
            let mut eng =
                HamletEngine::new(self.reg.clone(), self.queries.clone(), self.shard_cfg(0))
                    // hamlet-lint: allow(panic-hygiene) -- the same config already built an engine in ParallelEngine::new; reconstruction is deterministic
                    .expect("validated in ParallelEngine::new");
            let mut out = Vec::new();
            for batch in batches {
                events_total += batch.len() as u64;
                out.extend(eng.process_batch(batch));
            }
            out.extend(eng.flush());
            vec![worker_output(out, &eng)]
        } else {
            self.run_sharded(batches, &mut events_total)
        };
        let mut report = merge_outputs(outputs, events_total);
        report.wall = t0.elapsed();
        report
    }

    /// Processes a finite stream with **runtime query churn**: each
    /// `(position, op)` pair applies its add/remove after `position`
    /// events of the stream have been routed (positions non-decreasing).
    ///
    /// Churn applies at a coordinated per-shard barrier: routing pauses,
    /// every in-flight batch is flushed to its shard, every shard applies
    /// the op at the same stream position (channel FIFO order), and the
    /// router re-plans before routing resumes. Results drained at the
    /// barriers (see the churn contract on
    /// [`HamletEngine::remove_query`]) are
    /// merged into the report's canonically sorted results, so nothing is
    /// dropped.
    ///
    /// The whole op sequence is validated (ids, compilability of every
    /// intermediate workload) before any event is processed; on error the
    /// engine is untouched. On success the engine's query set — and its
    /// router — end at the final workload, so a subsequent
    /// [`run`](Self::run) sees the post-churn workload.
    pub fn run_with_churn(
        &mut self,
        events: &[Event],
        ops: &[(usize, ChurnOp)],
    ) -> Result<ParallelReport, ChurnError> {
        for w in ops.windows(2) {
            assert!(w[0].0 <= w[1].0, "churn positions must be non-decreasing");
        }
        // Validate the whole op sequence upfront: simulate the query-list
        // evolution and compile every intermediate workload, so worker
        // threads can treat churn application as infallible.
        let mut sim = self.queries.clone();
        let mut probe_cfg = self.cfg.clone();
        probe_cfg.shard = None;
        probe_cfg.track_latency = false;
        probe_cfg.mem_sample_every = 0;
        for (_, op) in ops {
            match op {
                ChurnOp::Add(q) => {
                    if sim.iter().any(|p| p.id == q.id) {
                        return Err(ChurnError::Duplicate(q.id));
                    }
                    sim.push(q.clone());
                }
                ChurnOp::Remove(id) => {
                    if !sim.iter().any(|p| p.id == *id) {
                        return Err(ChurnError::Unknown(*id));
                    }
                    sim.retain(|p| p.id != *id);
                }
            }
            HamletEngine::new(self.reg.clone(), sim.clone(), probe_cfg.clone())
                .map_err(ChurnError::Engine)?;
        }

        // hamlet-lint: allow(wallclock) -- run-duration measurement for the report
        let t0 = Instant::now();
        let n = self.workers as usize;
        let mut events_total = 0u64;
        let outputs: Vec<WorkerOutput> = if n == 1 {
            let mut eng =
                HamletEngine::new(self.reg.clone(), self.queries.clone(), self.shard_cfg(0))
                    // hamlet-lint: allow(panic-hygiene) -- the same config already built an engine in ParallelEngine::new; reconstruction is deterministic
                    .expect("validated in ParallelEngine::new");
            let mut out = Vec::new();
            let mut pos = 0usize;
            for (at, op) in ops {
                let at = (*at).min(events.len());
                for chunk in events[pos..at].chunks(self.batch.max(1)) {
                    events_total += chunk.len() as u64;
                    out.extend(eng.process_batch(chunk));
                }
                pos = at;
                out.extend(apply_op(&mut eng, op.clone()));
            }
            for chunk in events[pos..].chunks(self.batch.max(1)) {
                events_total += chunk.len() as u64;
                out.extend(eng.process_batch(chunk));
            }
            out.extend(eng.flush());
            vec![worker_output(out, &eng)]
        } else {
            let batch = self.batch;
            let workers = self.workers;
            let cfgs: Vec<EngineConfig> = (0..n).map(|idx| self.shard_cfg(idx)).collect();
            let reg0 = self.reg.clone();
            let queries0 = self.queries.clone();
            let router = &mut self.router;
            std::thread::scope(|scope| {
                let mut txs = Vec::with_capacity(n);
                let mut handles = Vec::with_capacity(n);
                for cfg in &cfgs {
                    let (tx, rx) = mpsc::sync_channel::<ShardMsg>(PIPELINE_DEPTH);
                    txs.push(tx);
                    let (reg, queries, cfg) = (reg0.clone(), queries0.clone(), cfg.clone());
                    handles.push(scope.spawn(move || {
                        let mut eng = HamletEngine::new(reg, queries, cfg)
                            // hamlet-lint: allow(panic-hygiene) -- the same config already built an engine in ParallelEngine::new; reconstruction is deterministic
                            .expect("validated in ParallelEngine::new");
                        let mut out = Vec::new();
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                ShardMsg::Batch(b) => out.extend(eng.process_batch(&b)),
                                ShardMsg::Churn(op) => out.extend(apply_op(&mut eng, op)),
                            }
                        }
                        out.extend(eng.flush());
                        worker_output(out, &eng)
                    }));
                }
                let mut buffers: Vec<Vec<Event>> =
                    (0..n).map(|_| Vec::with_capacity(batch)).collect();
                let route = |router: &HamletEngine,
                             buffers: &mut Vec<Vec<Event>>,
                             span: &[Event],
                             events_total: &mut u64| {
                    for e in span {
                        *events_total += 1;
                        let mut mask = router.shard_mask(e, workers);
                        while mask != 0 {
                            let idx = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            buffers[idx].push(e.clone());
                            if buffers[idx].len() >= batch {
                                let full =
                                    std::mem::replace(&mut buffers[idx], Vec::with_capacity(batch));
                                let _ = txs[idx].send(ShardMsg::Batch(full));
                            }
                        }
                    }
                };
                let mut pos = 0usize;
                for (at, op) in ops {
                    let at = (*at).min(events.len());
                    route(router, &mut buffers, &events[pos..at], &mut events_total);
                    pos = at;
                    // Coordinated barrier: flush every shard's partial
                    // batch, then enqueue the op on every channel. FIFO
                    // delivery means each worker applies it after exactly
                    // the pre-op events — the same cut on every shard.
                    for (idx, buf) in buffers.iter_mut().enumerate() {
                        if !buf.is_empty() {
                            let full = std::mem::take(buf);
                            let _ = txs[idx].send(ShardMsg::Batch(full));
                        }
                    }
                    for tx in &txs {
                        let _ = tx.send(ShardMsg::Churn(op.clone()));
                    }
                    // Re-plan routing: the router's share groups (and so
                    // the shard masks) follow the new workload.
                    apply_op(router, op.clone());
                }
                route(router, &mut buffers, &events[pos..], &mut events_total);
                for (idx, buf) in buffers.into_iter().enumerate() {
                    if !buf.is_empty() {
                        let _ = txs[idx].send(ShardMsg::Batch(buf));
                    }
                }
                drop(txs);
                handles
                    .into_iter()
                    // hamlet-lint: allow(panic-hygiene) -- join propagates a worker panic; swallowing it would fake a clean run
                    .map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            })
        };
        if n == 1 {
            // The degenerate path never touched the router; catch it up so
            // the engine ends at the final workload either way.
            for (_, op) in ops {
                apply_op(&mut self.router, op.clone());
            }
        }
        self.queries = sim;

        let mut report = merge_outputs(outputs, events_total);
        report.wall = t0.elapsed();
        Ok(report)
    }

    /// Shard engine configuration for worker `idx`.
    fn shard_cfg(&self, idx: usize) -> EngineConfig {
        let mut cfg = self.cfg.clone();
        if self.workers > 1 {
            cfg.shard = Some((idx as u32, self.workers));
        }
        cfg
    }

    /// Routes batches to `workers` shard-owning engines, each built on
    /// its worker thread (workload compilation overlaps with routing —
    /// `new()` already validated it), and flushes them at end of stream.
    fn run_sharded<'a>(
        &self,
        batches: impl Iterator<Item = &'a [Event]>,
        events_total: &mut u64,
    ) -> Vec<WorkerOutput> {
        let n = self.workers as usize;
        std::thread::scope(|scope| {
            let mut txs = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for idx in 0..n {
                let (tx, rx) = mpsc::sync_channel::<Vec<Event>>(PIPELINE_DEPTH);
                txs.push(tx);
                let (reg, queries, cfg) =
                    (self.reg.clone(), self.queries.clone(), self.shard_cfg(idx));
                handles.push(scope.spawn(move || {
                    let mut eng = HamletEngine::new(reg, queries, cfg)
                        // hamlet-lint: allow(panic-hygiene) -- the same config already built an engine in ParallelEngine::new; reconstruction is deterministic
                        .expect("validated in ParallelEngine::new");
                    let mut out = Vec::new();
                    while let Ok(batch) = rx.recv() {
                        out.extend(eng.process_batch(&batch));
                    }
                    // Channel closed: the end-of-stream barrier.
                    out.extend(eng.flush());
                    worker_output(out, &eng)
                }));
            }
            let mut buffers: Vec<Vec<Event>> =
                (0..n).map(|_| Vec::with_capacity(self.batch)).collect();
            for input in batches {
                *events_total += input.len() as u64;
                for e in input {
                    // One bit per shard that owns one of the event's
                    // partition keys (usually one; an event local to
                    // several share groups can carry several keys).
                    let mut mask = self.router.shard_mask(e, self.workers);
                    while mask != 0 {
                        let idx = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        buffers[idx].push(e.clone());
                        if buffers[idx].len() >= self.batch {
                            let full = std::mem::replace(
                                &mut buffers[idx],
                                Vec::with_capacity(self.batch),
                            );
                            // A send only fails if the worker died; the
                            // join below surfaces its panic.
                            let _ = txs[idx].send(full);
                        }
                    }
                }
            }
            for (idx, buf) in buffers.into_iter().enumerate() {
                if !buf.is_empty() {
                    let _ = txs[idx].send(buf);
                }
            }
            drop(txs); // end-of-stream barrier: workers drain, then flush
            handles
                .into_iter()
                // hamlet-lint: allow(panic-hygiene) -- join propagates a worker panic; swallowing it would fake a clean run
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    }
}

/// Folds per-worker outputs into a report with canonically sorted
/// results (the caller stamps `wall`).
fn merge_outputs(outputs: Vec<WorkerOutput>, events: u64) -> ParallelReport {
    let mut report = ParallelReport {
        results: Vec::new(),
        stats: Vec::new(),
        peak_mem: Vec::new(),
        latency: Vec::new(),
        group_metrics: Vec::new(),
        events,
        wall: Duration::ZERO,
    };
    for (results, stats, latency, peak, groups) in outputs {
        report.results.extend(results);
        report.stats.push(stats);
        report.latency.push(latency);
        report.peak_mem.push(peak);
        report.group_metrics.push(groups);
    }
    sort_results(&mut report.results);
    report
}

/// A live partition-parallel session (see [`ParallelEngine::session`]):
/// `workers` shard-owning engines held in memory across calls, plus the
/// routing engine. Results are canonically sorted per call, so output
/// is identical across worker counts, call boundary by call boundary.
///
/// Implements [`crate::Snapshot`]: [`cut`](crate::Snapshot::cut) takes
/// a coordinated cut of every shard (all at the same stream position —
/// the caller is between `process` calls, so no shard has seen an event
/// another has not been offered) and packs the payloads into one
/// shard-set record; [`restore_chain`](crate::Snapshot::restore_chain)
/// restores every shard from such a chain, all or nothing.
pub struct ParallelSession {
    workers: u32,
    /// Routing-only engine (never processes events); see
    /// [`ParallelEngine::router`].
    router: HamletEngine,
    /// One shard-owning engine per worker (index = shard).
    engines: Vec<HamletEngine>,
}

impl ParallelSession {
    /// Routes one slice of the stream to the shard engines and returns
    /// the merged, canonically sorted results it emitted.
    pub fn process(&mut self, events: &[Event]) -> Vec<WindowResult> {
        let n = self.engines.len();
        let mut out: Vec<WindowResult> = if n == 1 {
            self.engines[0].process_batch(events)
        } else {
            let workers = self.workers;
            let mut bufs: Vec<Vec<Event>> = vec![Vec::new(); n];
            for e in events {
                let mut mask = self.router.shard_mask(e, workers);
                while mask != 0 {
                    let idx = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    bufs[idx].push(e.clone());
                }
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .engines
                    .iter_mut()
                    .zip(&bufs)
                    .map(|(eng, buf)| scope.spawn(move || eng.process_batch(buf)))
                    .collect();
                handles
                    .into_iter()
                    // hamlet-lint: allow(panic-hygiene) -- join propagates a worker panic; swallowing it would fake a clean run
                    .flat_map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            })
        };
        sort_results(&mut out);
        out
    }

    /// Finalizes every in-flight window on every shard (end of stream),
    /// merged and canonically sorted.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let mut out: Vec<WindowResult> = if self.engines.len() == 1 {
            self.engines[0].flush()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .engines
                    .iter_mut()
                    .map(|eng| scope.spawn(move || eng.flush()))
                    .collect();
                handles
                    .into_iter()
                    // hamlet-lint: allow(panic-hygiene) -- join propagates a worker panic; swallowing it would fake a clean run
                    .flat_map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            })
        };
        sort_results(&mut out);
        out
    }

    /// Number of shard workers in the session.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Sum of the shards' peak byte-accounted state (the same upper
    /// bound as [`ParallelReport::total_peak_mem`]).
    pub fn peak_memory(&self) -> usize {
        self.engines.iter().map(HamletEngine::peak_memory).sum()
    }
}

impl crate::store::Snapshot for ParallelSession {
    fn cut(
        &mut self,
        kind: crate::store::CutKind,
    ) -> Result<crate::store::Checkpoint, CheckpointError> {
        use crate::store::{Checkpoint, CutKind};
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
    /// shard commits, so an error leaves the session untouched.
    fn restore_chain(&mut self, chain: &[crate::store::Checkpoint]) -> Result<(), CheckpointError> {
        let frames = crate::store::live_frames(chain)?;
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
    use hamlet_query::{parse_query, QueryId};
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

    #[test]
    fn parallel_matches_single_threaded_bit_identically() {
        let (reg, queries, events) = setup();
        // Reference: the raw engine, results sorted into report order.
        let mut eng =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut reference = Vec::new();
        for e in &events {
            reference.extend(eng.process(e));
        }
        reference.extend(eng.flush());
        sort_results(&mut reference);
        for workers in [1u32, 2, 4, 7] {
            let par = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .run(&events);
            // No normalization: the full result set — zero rows included —
            // is identical, in identical order.
            assert_eq!(reference, par.results, "{workers} workers");
            assert_eq!(par.stats.len(), workers as usize);
            assert_eq!(par.latency.len(), workers as usize);
            assert_eq!(par.events, events.len() as u64);
        }
    }

    /// Zero-length and ragged input batches are inert: a hand-off
    /// sequence with empty head/middle/tail batches and a trailing
    /// partial produces bit-identical results to the whole-slice run —
    /// an empty batch must be a no-op, not a watermark side-effect.
    #[test]
    fn empty_and_partial_input_batches_are_inert() {
        let (reg, queries, events) = setup();
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
            let base = mk().run(&events);
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
            let got = mk().run_batches(seq.into_iter());
            assert_eq!(base.results, got.results, "{workers} workers");
            assert_eq!(base.events, got.events);
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let (reg, queries, events) = setup();
        let base = ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        for batch in [1usize, 7, 1024] {
            let par = ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 4)
                .unwrap()
                .with_batch_size(batch)
                .run(&events);
            assert_eq!(base.results, par.results, "batch {batch}");
        }
    }

    #[test]
    fn results_are_sorted_by_window_query_key() {
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        for pair in par.results.windows(2) {
            let ord = (pair[0].window_start, pair[0].query)
                .cmp(&(pair[1].window_start, pair[1].query))
                .then_with(|| pair[0].group_key.total_cmp(&pair[1].group_key));
            assert_ne!(ord, std::cmp::Ordering::Greater, "unsorted: {pair:?}");
        }
    }

    #[test]
    fn report_aggregates_workers() {
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        let merged = par.merged_stats();
        assert_eq!(
            merged.events_routed,
            par.stats.iter().map(|s| s.events_routed).sum::<u64>()
        );
        assert_eq!(merged.windows_emitted, par.results.len() as u64);
        assert_eq!(par.total_peak_mem(), par.peak_mem.iter().sum::<usize>());
        assert!(par.max_peak_mem() <= par.total_peak_mem());
        assert_eq!(
            par.merged_latency().count(),
            par.latency.iter().map(|l| l.count()).sum::<u64>()
        );
        assert!(par.wall > Duration::ZERO);
        assert!(par.throughput_eps() > 0.0);
        assert_eq!(par.workers(), 4);
    }

    #[test]
    fn shards_partition_the_work() {
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg.clone(), queries, EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        // All 7 group-by keys are covered, each by exactly one worker.
        let keys: std::collections::BTreeSet<String> = par
            .results
            .iter()
            .map(|r| format!("{}", r.group_key))
            .collect();
        assert_eq!(keys.len(), 7);
        // Work split across more than one worker.
        let active = par.stats.iter().filter(|s| s.events_routed > 0).count();
        assert!(active >= 2, "work spread over workers: {active}");
        // Routing is exact: no worker saw more events than the stream.
        let routed: u64 = par.stats.iter().map(|s| s.events_routed).sum();
        assert!(routed <= events.len() as u64 * 2, "routing not broadcast");
        // Each result belongs to exactly one query per key/window (no
        // duplicates across workers).
        let mut seen = std::collections::BTreeSet::new();
        for r in &par.results {
            if r.query == QueryId(1) {
                assert!(
                    seen.insert((format!("{}", r.group_key), r.window_start)),
                    "duplicate result {r:?}"
                );
            }
        }
    }

    /// Full cut at an arbitrary barrier, restore into a fresh session,
    /// finish: the union of pre-barrier and post-restore results is
    /// byte-identical to one uninterrupted run, at 1 and several workers.
    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        use crate::store::{Checkpoint, CutKind, Snapshot};
        let (reg, queries, events) = setup();
        for workers in [1u32, 4] {
            let eng = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let gold = eng.run(&events);
            for cut in [0usize, 63, events.len()] {
                let mut pre = eng.session();
                let mut all = pre.process(&events[..cut]);
                let ck = pre.cut(CutKind::Full).unwrap();
                // Serialize/deserialize the record as a file would.
                let ck = Checkpoint::from_bytes(ck.into_bytes()).unwrap();
                let mut post = eng.session();
                post.restore_chain(&[ck]).unwrap();
                all.extend(post.process(&events[cut..]));
                all.extend(post.flush());
                sort_results(&mut all);
                assert_eq!(all, gold.results, "{workers} workers, cut {cut}");
            }
        }
    }

    /// Worker-count mismatches and garbage are clean errors.
    #[test]
    fn restore_validates_worker_count_and_record() {
        use crate::store::{Checkpoint, CutKind, Snapshot};
        let (reg, queries, events) = setup();
        let four =
            ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 4).unwrap();
        let mut sess = four.session();
        sess.process(&events[..50]);
        let ck = sess.cut(CutKind::Full).unwrap();
        let two =
            ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        assert!(matches!(
            two.session().restore_chain(std::slice::from_ref(&ck)),
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
    /// the session cutting exactly what an untouched twin cuts.
    #[test]
    fn failed_restore_leaves_the_session_untouched() {
        use crate::checkpoint::Frame;
        use crate::store::{Checkpoint, CutKind, Snapshot};
        let (reg, queries, events) = setup();
        let par = ParallelEngine::new(reg, queries, EngineConfig::default(), 4).unwrap();
        let mut src = par.session();
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
        let (mut victim, mut twin) = (par.session(), par.session());
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

    /// Runtime churn at a coordinated barrier: results are identical
    /// across worker counts (the 1-worker path is the reference), ops
    /// validate upfront, and the engine ends at the final workload.
    #[test]
    fn churned_run_is_worker_count_invariant() {
        let (reg, queries, events) = setup();
        let q3 = parse_query(
            &reg,
            9,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap();
        let ops = vec![
            (60usize, ChurnOp::Add(q3.clone())),
            (140usize, ChurnOp::Remove(QueryId(9))),
        ];
        let mut reference = None;
        for workers in [1u32, 2, 4] {
            let mut eng = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let rep = eng.run_with_churn(&events, &ops).unwrap();
            assert_eq!(rep.events, events.len() as u64, "{workers} workers");
            match &reference {
                None => reference = Some(rep.results),
                Some(r) => assert_eq!(r, &rep.results, "{workers} workers"),
            }
            // The engine ended at the final (post-churn) workload: another
            // run must behave like a fresh engine over that workload.
            assert_eq!(eng.queries.len(), queries.len());
            let after = eng.run(&events);
            let fresh = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap()
            .run(&events);
            assert_eq!(after.results, fresh.results, "{workers} workers, after");
        }
        // The churned results include q9's windows (drained or closed).
        let r = reference.unwrap();
        assert!(r.iter().any(|x| x.query == QueryId(9)));

        // Validation: a bad op sequence is rejected before any processing.
        let mut eng =
            ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 2).unwrap();
        assert!(matches!(
            eng.run_with_churn(&events, &[(0, ChurnOp::Remove(QueryId(77)))]),
            Err(ChurnError::Unknown(QueryId(77)))
        ));
        assert!(matches!(
            eng.run_with_churn(&events, &[(0, ChurnOp::Add(queries[0].clone()))]),
            Err(ChurnError::Duplicate(QueryId(1)))
        ));
    }

    /// A record cut after churn restores into a session built with the
    /// final query set (the record's epoch is adopted), and is rejected
    /// by a session whose set never churned.
    #[test]
    fn post_churn_checkpoint_resumes_with_epoch() {
        use crate::store::{CutKind, Snapshot};
        let (reg, queries, events) = setup();
        // The churned state, built directly on a core engine: a 1-worker
        // session restores an engine record as its single shard.
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
        let final_set = vec![queries[0].clone()];
        let mut resumed = ParallelEngine::new(reg.clone(), final_set, EngineConfig::default(), 1)
            .unwrap()
            .session();
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
        // A session over the pre-churn two-query set cannot restore it.
        let err = ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 1)
            .unwrap()
            .session()
            .restore_chain(&[ck]);
        assert!(matches!(err, Err(CheckpointError::WorkloadMismatch(_))));
    }

    /// A live session matches the offline run across worker counts, and
    /// a chain cut mid-stream restores into a fresh session that
    /// finishes the stream identically (the 4-worker delta path of
    /// `tests/delta_checkpoint.rs`, in miniature).
    #[test]
    fn session_chain_cut_and_restore_matches_offline() {
        use crate::store::{CutKind, Snapshot};
        let (reg, queries, events) = setup();
        let offline = ParallelEngine::new(reg.clone(), queries.clone(), EngineConfig::default(), 4)
            .unwrap()
            .run(&events);
        for workers in [1u32, 4] {
            let par = ParallelEngine::new(
                reg.clone(),
                queries.clone(),
                EngineConfig::default(),
                workers,
            )
            .unwrap();
            let mut sess = par.session();
            let mut out = Vec::new();
            let mut chain = Vec::new();
            for (i, seg) in events.chunks(50).enumerate() {
                out.extend(sess.process(seg));
                let ck = sess.cut(CutKind::Delta).unwrap();
                assert_eq!(ck.is_delta(), i > 0, "first cut promotes to base");
                assert_eq!(ck.seq(), i as u64 + 1);
                chain.push(ck);
            }
            // The cut session and a chain-restored session describe the
            // same state: their next full cuts agree byte-for-byte...
            let mut revived = par.session();
            revived.restore_chain(&chain).unwrap();
            assert_eq!(
                revived.cut(CutKind::Full).unwrap().as_bytes(),
                sess.cut(CutKind::Full).unwrap().as_bytes()
            );
            // ...and they drain the remaining in-flight windows
            // identically.
            let flushed = sess.flush();
            assert_eq!(revived.flush(), flushed);
            out.extend(flushed);
            sort_results(&mut out);
            assert_eq!(out, offline.results, "{workers} workers");
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
