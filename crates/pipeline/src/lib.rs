//! # hamlet-pipeline
//!
//! The **online streaming runtime** for the HAMLET engine: long-running
//! pipelines that connect unbounded [`Source`]s through bounded-channel
//! stages — with real backpressure — to shard-owning engines and a
//! result [`Sink`], while a [`PipelineHandle`] serves live
//! [`MetricsSnapshot`]s (throughput, per-stage queue depths, p50/p99
//! latency) and performs graceful, `flush()`-equivalent drains.
//!
//! The paper's setting is *online* event trend aggregation over bursty
//! streams; the offline runners (`HamletEngine::process` over a slice,
//! `ParallelEngine::process`) measure throughput but cannot measure latency
//! under sustained load or tolerate out-of-order delivery. This crate
//! adds that missing runtime layer:
//!
//! * **Sources** ([`Source`]) — unbounded pull-based feeds: replay a
//!   generated stream ([`ReplaySource`]), pace it to an offered rate
//!   ([`RateLimitedSource`]), or implement the trait over a live feed.
//! * **Out-of-order ingestion** ([`WatermarkPolicy`], `ReorderBuffer`) —
//!   a bounded-lateness watermark holds events back just long enough to
//!   restore timestamp order; events behind the watermark are counted
//!   and dead-lettered, never fed to the engine.
//! * **Backpressure** — every stage boundary is a bounded
//!   `sync_channel`; a slow engine or sink stalls the source instead of
//!   buffering the stream.
//! * **Sharded workers** — `workers > 1` reuses the engine's
//!   `shard_mask` routing *online*: per-shard channels, each worker
//!   owning the partitions that hash to it, same bit-identical merged
//!   results as the offline parallel path.
//! * **Drain ≡ flush** — [`PipelineHandle::drain`] stops the source,
//!   releases the reorder buffer, flushes every engine and hands back
//!   the sink: for an in-order stream the drained output is
//!   byte-identical to offline `process`+`flush`
//!   (`tests/pipeline_equivalence.rs`).
//! * **Runtime query churn** — queries can be added and removed while
//!   the pipeline runs, either on a schedule
//!   ([`PipelineBuilder::churn_at`], applied when the watermark first
//!   reaches the trigger time) or live
//!   ([`PipelineHandle::add_query`] / [`remove_query`](PipelineHandle::remove_query)).
//!   Every shard engine re-plans only the touched share groups at the
//!   same watermark barrier, so no result is dropped or duplicated.
//!
//! ```
//! use hamlet_pipeline::{Pipeline, ReplaySource, VecSink, BoundedLateness};
//! use hamlet_core::EngineConfig;
//! use hamlet_query::parse_query;
//! use hamlet_types::{EventBuilder, TypeRegistry};
//! use std::sync::Arc;
//!
//! let mut reg = TypeRegistry::new();
//! let a = reg.register("A", &[]);
//! let b = reg.register("B", &[]);
//! let reg = Arc::new(reg);
//! let q = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
//! let events = vec![
//!     EventBuilder::new(&reg, a, 0).build(),
//!     EventBuilder::new(&reg, b, 1).build(),
//! ];
//! let handle = Pipeline::builder(reg, vec![q])
//!     .watermark(BoundedLateness::new(0))
//!     .spawn(ReplaySource::new(events), VecSink::new())
//!     .unwrap();
//! let report = handle.drain();
//! assert_eq!(report.sink.results.len(), 1);
//! assert_eq!(report.events, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod sink;
mod source;
mod stats;
mod watermark;

pub use checkpoint::PipelineCheckpoint;
pub use sink::{CountingSink, NullSink, Sink, VecSink};
pub use source::{RateLimitedSource, ReplaySource, Source};
pub use stats::{LatencySummary, MetricsSnapshot};
pub use watermark::{BoundedLateness, ReorderBuffer, WatermarkPolicy};

use checkpoint::PipelineTail;
use hamlet_core::checkpoint::CheckpointError;
use hamlet_core::executor::{
    ChurnError, ChurnOp, EngineConfig, EngineError, EngineStats, HamletEngine, WindowResult,
};
use hamlet_core::{
    Checkpoint, CheckpointStore, CutKind, GroupMetrics, LatencyHistogram, LatencyRecorder,
    Snapshot, Span, SpanRecorder, Stage,
};
use hamlet_obs::merge_group_metrics;
use hamlet_query::{Query, QueryId};
use hamlet_types::{Event, Ts, TypeRegistry};
use stats::SharedStats;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default events per routed batch (small: the pipeline is latency-first;
/// the offline `ParallelEngine` routes fixed 1024-event batches for pure
/// throughput).
pub const DEFAULT_BATCH: usize = 256;
/// Default bounded depth of each stage channel, in batches.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 8;

/// A routed unit of work: the event plus its ingest stamp (for
/// end-to-end latency accounting).
type Routed = (Event, Instant);
/// What flows over a worker's event channel: routed batches, or a churn
/// op riding the same FIFO — so every worker applies it at exactly the
/// same stream cut (after everything the ingest stage routed before it,
/// before everything after).
enum WorkerMsg {
    Batch(Vec<Routed>),
    Churn(ChurnOp),
    /// A coordinated checkpoint cut riding the same FIFO: the worker
    /// serializes its engine (full or delta, per `kind`) at exactly this
    /// stream position and replies with `(shard, frame)`.
    Cut {
        kind: CutKind,
        reply: mpsc::Sender<(usize, Result<Checkpoint, CheckpointError>)>,
    },
}
/// A live churn request from a [`PipelineHandle`] to the ingest stage;
/// the ack carries the post-churn workload epoch (or the rejection).
struct ChurnRequest {
    op: ChurnOp,
    ack: mpsc::Sender<Result<u64, ChurnError>>,
}
/// An on-demand [`Snapshot::cut`] request from a [`PipelineHandle`] to
/// the ingest stage; applied at the next barrier between source events.
struct CutRequest {
    kind: CutKind,
    ack: mpsc::Sender<Result<Checkpoint, CheckpointError>>,
}
/// What one worker thread returns at shutdown; the final slot carries
/// the shard's full cut when the run ended at a checkpoint barrier
/// instead of a flush.
type WorkerOutput = (
    EngineStats,
    LatencyRecorder,
    usize,
    Vec<GroupMetrics>,
    Option<Result<Checkpoint, CheckpointError>>,
);

/// How a worker ends once its event channel closes: drain every open
/// window into the sink, or freeze the engine state into a checkpoint.
/// Sent over a per-worker control channel by
/// [`PipelineHandle::drain`] / [`PipelineHandle::checkpoint`], so the
/// choice is explicit and can never race with a source ending early.
#[derive(Copy, Clone)]
enum WorkerEnd {
    Flush,
    Checkpoint,
}

/// What the ingest thread hands back when it stops: the reorder-buffer
/// remainder (only kept on a checkpoint — a drain releases it
/// downstream instead) and the maximum event time observed.
struct IngestExit {
    buffered: Vec<Event>,
    max_seen: Option<Ts>,
}

/// Why a [`PipelineBuilder::resume_from`] failed.
#[derive(Debug)]
pub enum ResumeError {
    /// The workload failed to compile (same errors as a fresh spawn).
    Engine(EngineError),
    /// The checkpoint is invalid or does not match this pipeline's
    /// workload / worker count.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Engine(e) => write!(f, "engine: {e}"),
            ResumeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Why a live [`PipelineHandle::add_query`] /
/// [`PipelineHandle::remove_query`] call failed.
#[derive(Debug)]
pub enum PipelineChurnError {
    /// The op was rejected (duplicate/unknown id or a non-compiling
    /// post-churn workload); the running workload is unchanged.
    Rejected(ChurnError),
    /// The pipeline is no longer ingesting: the source ended,
    /// [`PipelineHandle::stop`] was called, or a drain/checkpoint is in
    /// progress. The op was not applied.
    Stopped,
}

impl fmt::Display for PipelineChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineChurnError::Rejected(e) => write!(f, "rejected: {e}"),
            PipelineChurnError::Stopped => write!(f, "the pipeline has stopped ingesting"),
        }
    }
}

impl std::error::Error for PipelineChurnError {}

/// Dead-letter hook: invoked (on the ingest thread) with every late
/// event the pipeline drops.
pub type LateHook = Box<dyn FnMut(Event) + Send>;

/// Namespace for [`Pipeline::builder`].
pub struct Pipeline;

impl Pipeline {
    /// Starts configuring a pipeline over a workload.
    pub fn builder(reg: Arc<TypeRegistry>, queries: Vec<Query>) -> PipelineBuilder {
        PipelineBuilder {
            reg,
            queries,
            engine_cfg: EngineConfig::default(),
            workers: 1,
            batch: DEFAULT_BATCH,
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            policy: Box::new(BoundedLateness::new(0)),
            on_late: None,
            churn_at: Vec::new(),
            trace_capacity: 0,
            store: None,
            checkpoint_every: None,
            compact_every: DEFAULT_COMPACT_EVERY,
        }
    }
}

/// Default compaction cadence: every this-many cadence cuts, the cut is
/// promoted to a full base (compacting the store's chain) instead of a
/// delta.
pub const DEFAULT_COMPACT_EVERY: u64 = 8;

/// Configures and spawns a [`PipelineHandle`].
pub struct PipelineBuilder {
    reg: Arc<TypeRegistry>,
    queries: Vec<Query>,
    engine_cfg: EngineConfig,
    workers: u32,
    batch: usize,
    channel_capacity: usize,
    policy: Box<dyn WatermarkPolicy>,
    on_late: Option<LateHook>,
    churn_at: Vec<(Ts, ChurnOp)>,
    trace_capacity: usize,
    store: Option<Arc<dyn CheckpointStore>>,
    checkpoint_every: Option<u64>,
    compact_every: u64,
}

impl PipelineBuilder {
    /// Engine configuration for every worker (the `shard` field is
    /// overwritten per worker).
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.engine_cfg = cfg;
        self
    }

    /// Number of shard-owning workers, `1..=64`. With 1 worker events
    /// flow to a single engine; with more, the router sends each event
    /// only to the shards owning one of its partition keys.
    pub fn workers(mut self, workers: u32) -> Self {
        assert!(workers >= 1, "at least one worker");
        assert!(workers <= 64, "at most 64 workers (shard mask is a u64)");
        self.workers = workers;
        self
    }

    /// Maximum events per routed batch (latency/throughput knob).
    pub fn batch(mut self, events: usize) -> Self {
        assert!(events >= 1, "batch size must be positive");
        self.batch = events;
        self
    }

    /// Bounded depth of each stage channel, in batches — the knob that
    /// trades queueing latency for burst absorption.
    pub fn channel_capacity(mut self, batches: usize) -> Self {
        assert!(batches >= 1, "channel capacity must be positive");
        self.channel_capacity = batches;
        self
    }

    /// Watermark policy for out-of-order ingestion (default:
    /// `BoundedLateness::new(0)`, i.e. strictly ascending).
    pub fn watermark(mut self, policy: impl WatermarkPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Dead-letter hook for late events (called on the ingest thread).
    pub fn on_late(mut self, hook: impl FnMut(Event) + Send + 'static) -> Self {
        self.on_late = Some(Box::new(hook));
        self
    }

    /// Enables stage span tracing: every pipeline stage (ingest, reorder
    /// release, route, per-worker batch processing, expiry drains, flush,
    /// checkpoint pause, churn barriers) records [`Span`]s into per-lane
    /// rings holding at most `capacity` spans each (lane 0 = ingest,
    /// lanes 1.. = workers). Memory is bounded: full rings drop their
    /// oldest span and count it in
    /// [`MetricsSnapshot::dropped_spans`]. `capacity` 0 (the default)
    /// disables tracing entirely — the recorder then never reads the
    /// clock, so an untraced pipeline pays only a branch per stage.
    /// Export with [`PipelineHandle::export_chrome_trace`] or read them
    /// from [`PipelineReport::spans`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// The [`CheckpointStore`] cadence cuts and on-demand
    /// [`Snapshot::cut`]s append to — base/delta chain management
    /// (linkage validation, compaction GC) is the store's job. Required
    /// when [`checkpoint_every`](Self::checkpoint_every) is set;
    /// [`Pipeline::builder`]`(…).resume_from` reads the same store back.
    pub fn checkpoint_store(mut self, store: Arc<dyn CheckpointStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Enables periodic delta checkpoints: every `released` events
    /// released past the reorder stage, the ingest thread runs a
    /// **drain-barrier cut** — every partial batch is flushed down the
    /// worker FIFOs, each shard engine serializes the state that changed
    /// since the previous cut (a delta frame; periodically a full base,
    /// see [`compact_every`](Self::compact_every)), and the assembled
    /// record is appended to the configured
    /// [`checkpoint_store`](Self::checkpoint_store). The pipeline keeps
    /// running; the pause is the flush + serialize time, visible as
    /// `checkpoint_pause` spans and the
    /// [`MetricsSnapshot::checkpoints`] counters.
    ///
    /// Recovery: [`resume_from`](Self::resume_from) replays base +
    /// deltas and repositions the source; results emitted between the
    /// last completed cut and the crash are re-emitted on resume
    /// (at-least-once across a crash — a run that resumes from a cut it
    /// took itself never duplicates).
    pub fn checkpoint_every(mut self, released: u64) -> Self {
        assert!(released >= 1, "checkpoint cadence must be positive");
        self.checkpoint_every = Some(released);
        self
    }

    /// Every `cuts`-th cadence cut is promoted from a delta to a full
    /// base, compacting the store's chain (default
    /// [`DEFAULT_COMPACT_EVERY`]). `1` makes every cut a full
    /// checkpoint.
    pub fn compact_every(mut self, cuts: u64) -> Self {
        assert!(cuts >= 1, "compaction cadence must be positive");
        self.compact_every = cuts;
        self
    }

    /// Schedules churn ops in event time: each op is applied at the
    /// **watermark barrier** where the watermark first reaches its
    /// trigger — events up to and including the trigger time are
    /// processed under the old workload, everything after under the new.
    /// The whole schedule is validated at spawn (duplicate/unknown ids,
    /// every intermediate workload must compile), so a bad script fails
    /// synchronously instead of inside a thread. Ops whose trigger the
    /// stream never reaches are discarded at drain. Repeated calls
    /// append; the merged schedule is applied in trigger order (ties in
    /// insertion order).
    ///
    /// ```
    /// use hamlet_core::ChurnOp;
    /// use hamlet_pipeline::{BoundedLateness, Pipeline, ReplaySource, VecSink};
    /// use hamlet_query::{parse_query, QueryId};
    /// use hamlet_types::{EventBuilder, Ts, TypeRegistry};
    /// use std::sync::Arc;
    ///
    /// let mut reg = TypeRegistry::new();
    /// let a = reg.register("A", &[]);
    /// let b = reg.register("B", &[]);
    /// let reg = Arc::new(reg);
    /// let q1 = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
    /// let q2 = parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 20").unwrap();
    /// let events: Vec<_> = (0..30)
    ///     .map(|t| EventBuilder::new(&reg, if t % 3 == 0 { a } else { b }, t).build())
    ///     .collect();
    /// let handle = Pipeline::builder(reg, vec![q1])
    ///     // q2 joins once the watermark passes t=15; earlier events
    ///     // are processed under the original workload.
    ///     .churn_at(vec![(Ts(15), ChurnOp::Add(q2))])
    ///     .watermark(BoundedLateness::new(0))
    ///     .spawn(ReplaySource::new(events), VecSink::new())
    ///     .unwrap();
    /// let report = handle.drain();
    /// assert!(report.sink.results.iter().any(|r| r.query == QueryId(2)));
    /// ```
    pub fn churn_at(mut self, schedule: Vec<(Ts, ChurnOp)>) -> Self {
        self.churn_at.extend(schedule);
        self.churn_at.sort_by_key(|(t, _)| *t); // stable: ties keep insertion order
        self
    }

    /// Validates the workload, builds every engine, and spawns the
    /// pipeline threads: `ingest → [workers] → sink`, every arrow a
    /// bounded channel. Construction errors surface here, not inside
    /// threads.
    pub fn spawn<Src, S>(self, source: Src, sink: S) -> Result<PipelineHandle<S>, EngineError>
    where
        Src: Source + 'static,
        S: Sink + 'static,
    {
        self.spawn_inner(source, sink, None).map_err(|e| match e {
            ResumeError::Engine(err) => err,
            ResumeError::Checkpoint(_) => unreachable!("no checkpoint on a fresh spawn"),
        })
    }

    /// Restores a pipeline from the base + delta chain held in a
    /// [`CheckpointStore`] and continues it: the chain's last base is
    /// restored into every shard engine, the delta frames are replayed
    /// in order on top, the frozen reorder-buffer events of the **last**
    /// record are re-injected ahead of the source, and the metrics
    /// counters continue from that record.
    ///
    /// The builder must be configured like the original pipeline (same
    /// workload, worker count, watermark slack); `source` must be
    /// positioned *after* the first
    /// [`events_pulled`](PipelineCheckpoint::events_pulled) events of
    /// the original stream, where `events_pulled` is read from the
    /// chain's newest record (decode it with
    /// [`PipelineCheckpoint::from_bytes`] over
    /// [`Checkpoint::as_bytes`], or track the cursor out of band).
    /// Every record a pipeline cuts — cadence cuts, on-demand
    /// [`Snapshot::cut`]s, and the final
    /// [`PipelineHandle::checkpoint`] freeze — extends the same chain.
    /// Replaying the remainder of the stream and draining emits exactly
    /// the results the original run had not yet emitted at the cut —
    /// byte-identical to the uninterrupted run's suffix
    /// (`tests/delta_checkpoint.rs`).
    ///
    /// An empty store is an error: recovery from nothing is a fresh
    /// [`spawn`](Self::spawn), and conflating the two would turn a
    /// mis-pointed store directory into silent data loss.
    pub fn resume_from<Src, S>(
        self,
        store: &dyn CheckpointStore,
        source: Src,
        sink: S,
    ) -> Result<PipelineHandle<S>, ResumeError>
    where
        Src: Source + 'static,
        S: Sink + 'static,
    {
        let chain = store.load_chain().map_err(ResumeError::Checkpoint)?;
        let Some(tip) = chain.last() else {
            return Err(ResumeError::Checkpoint(CheckpointError::Corrupt(
                "the checkpoint store holds no records".into(),
            )));
        };
        // The newest record carries the pipeline-level state (reorder
        // buffer, source cursor, counters, elapsed); every earlier
        // record's is superseded.
        let (workers, tail) = PipelineCheckpoint::peek(tip).map_err(ResumeError::Checkpoint)?;
        if workers != self.workers {
            return Err(ResumeError::Checkpoint(CheckpointError::WorkloadMismatch(
                format!(
                    "checkpoint taken under {workers} workers, resuming under {}",
                    self.workers
                ),
            )));
        }
        self.spawn_inner(source, sink, Some((&chain, tail)))
    }

    fn spawn_inner<Src, S>(
        mut self,
        source: Src,
        sink: S,
        restore: Option<(&[Checkpoint], PipelineTail)>,
    ) -> Result<PipelineHandle<S>, ResumeError>
    where
        Src: Source + 'static,
        S: Sink + 'static,
    {
        assert!(
            self.checkpoint_every.is_none() || self.store.is_some(),
            "checkpoint_every requires a checkpoint_store to append to"
        );
        // Re-seed the watermark policy before destructuring: the resumed
        // policy must never emit a watermark behind the one the
        // checkpointed pipeline already released events under.
        if let Some(max_seen) = restore.as_ref().and_then(|(_, tail)| tail.max_seen) {
            let _ = self.policy.observe(max_seen);
        }
        let PipelineBuilder {
            reg,
            queries,
            engine_cfg,
            workers,
            batch,
            channel_capacity,
            policy,
            on_late,
            churn_at,
            trace_capacity,
            store,
            checkpoint_every,
            compact_every,
        } = self;
        let n = workers as usize;

        // The probe configuration used to compile-check churned
        // workloads without shard filtering or metrics overhead.
        let mut probe_cfg = engine_cfg.clone();
        probe_cfg.shard = None;
        probe_cfg.track_latency = false;
        probe_cfg.mem_sample_every = 0;
        probe_cfg.obs = false;

        // Validate the whole churn schedule now: simulate the query-set
        // evolution and compile every intermediate workload, so workers
        // can never hit a churn failure mid-stream.
        {
            let mut sim = queries.clone();
            for (i, (_, op)) in churn_at.iter().enumerate() {
                op.apply_to(&mut sim).map_err(|e| {
                    ResumeError::Engine(EngineError::Churn(format!("entry {i}: {e}")))
                })?;
                HamletEngine::new(reg.clone(), sim.clone(), probe_cfg.clone())
                    .map_err(ResumeError::Engine)?;
            }
        }

        // Build (and restore) every engine up front so errors are
        // synchronous. Each shard engine restores its own payload from
        // the chain's shard-set records and adopts the chain's workload
        // epoch (a chain taken after churn carries it).
        let mut engines = Vec::with_capacity(n);
        for idx in 0..n {
            let mut cfg = engine_cfg.clone();
            cfg.shard = (workers > 1).then_some((idx as u32, workers));
            let mut eng = HamletEngine::new(reg.clone(), queries.clone(), cfg)
                .map_err(ResumeError::Engine)?;
            if let Some((chain, _)) = &restore {
                eng.restore_chain(chain).map_err(ResumeError::Checkpoint)?;
            }
            engines.push(eng);
        }
        let start_epoch = engines.first().map_or(0, HamletEngine::epoch);
        // The router only maps events to shards; it never processes.
        let router = if workers > 1 {
            Some(
                HamletEngine::new(reg.clone(), queries.clone(), probe_cfg.clone())
                    .map_err(ResumeError::Engine)?,
            )
        } else {
            None
        };

        // Lane 0 traces the ingest stage, lanes 1..=n the workers.
        let spans = Arc::new(if trace_capacity > 0 {
            SpanRecorder::new(n + 1, trace_capacity)
        } else {
            SpanRecorder::disabled()
        });
        let tail = restore.map(|(_, tail)| tail);
        let accum = tail.as_ref().map_or(Duration::ZERO, |t| t.elapsed);
        let shared = Arc::new(SharedStats::new(n, accum, spans.clone()));
        shared.epoch.store(start_epoch, Ordering::Relaxed);
        let stop = Arc::new(AtomicBool::new(false));

        // Metrics continuity across a restore: the counters pick up where
        // the checkpointed pipeline stopped.
        let mut buffer = ReorderBuffer::new();
        let mut max_seen = None;
        if let Some(ck) = tail {
            let [ingested, late, released, results] = ck.counters;
            shared.ingested.store(ingested, Ordering::Relaxed);
            shared.late.store(late, Ordering::Relaxed);
            shared.released.store(released, Ordering::Relaxed);
            shared.results.store(results, Ordering::Relaxed);
            if let Some(t) = ck.max_seen {
                if let Some(wm) = policy.current() {
                    shared.set_watermark(wm);
                }
                max_seen = Some(t);
            }
            // Re-inject the frozen reorder buffer. The events are stored
            // in release order, so re-pushing preserves equal-timestamp
            // arrival ties; arrival stamps restart now (they only feed
            // latency metrics).
            // hamlet-lint: allow(wallclock) -- restored arrival stamps only feed latency metrics
            let now = Instant::now();
            for ev in ck.buffered {
                buffer.push(ev, now);
            }
            shared.reorder_depth.store(buffer.len(), Ordering::Relaxed);
        }

        let (result_tx, result_rx) = mpsc::sync_channel::<Vec<WindowResult>>(channel_capacity * n);
        let mut event_txs = Vec::with_capacity(n);
        let mut ctrl_txs = Vec::with_capacity(n);
        let mut worker_handles = Vec::with_capacity(n);
        for (idx, mut engine) in engines.into_iter().enumerate() {
            if spans.is_enabled() {
                engine.attach_span_recorder(spans.clone(), 1 + idx as u32);
            }
            // Publish each shard's priced groups before any event flows,
            // so a snapshot taken immediately after spawn already shows
            // the optimizer's placement decisions.
            shared.publish_groups(idx, engine.group_metrics().to_vec());
            let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(channel_capacity);
            event_txs.push(tx);
            let (ctrl_tx, ctrl_rx) = mpsc::channel::<WorkerEnd>();
            ctrl_txs.push(ctrl_tx);
            let shared = shared.clone();
            let result_tx = result_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hamlet-pipe-worker-{idx}"))
                .spawn(move || worker_loop(idx, &mut engine, &rx, &ctrl_rx, &result_tx, &shared))
                // hamlet-lint: allow(panic-hygiene) -- thread spawn failing at startup leaves nothing to clean up; abort the pipeline
                .expect("spawn worker thread");
            worker_handles.push(handle);
        }
        drop(result_tx); // sink ends when the last worker hangs up

        let sink_shared = shared.clone();
        let sink_handle = std::thread::Builder::new()
            .name("hamlet-pipe-sink".into())
            .spawn(move || sink_loop(sink, &result_rx, &sink_shared))
            // hamlet-lint: allow(panic-hygiene) -- thread spawn failing at startup leaves nothing to clean up; abort the pipeline
            .expect("spawn sink thread");

        let (churn_tx, churn_rx) = mpsc::channel::<ChurnRequest>();
        let (cut_tx, cut_rx) = mpsc::channel::<CutRequest>();
        let mut ingest = Ingest {
            source,
            policy,
            on_late,
            router,
            reg,
            queries,
            probe_cfg,
            scheduled: churn_at.into(),
            churn_rx,
            cut_rx,
            epoch: start_epoch,
            buffer,
            max_seen,
            out: (0..n).map(|_| Vec::with_capacity(batch)).collect(),
            txs: event_txs,
            workers,
            batch,
            last_tick: vec![None; n],
            store,
            cut_every: checkpoint_every,
            compact_every,
            cuts_taken: 0,
            last_cut_released: shared.released.load(Ordering::Relaxed),
            shared: shared.clone(),
            stop: stop.clone(),
        };
        let ingest_handle = std::thread::Builder::new()
            .name("hamlet-pipe-ingest".into())
            .spawn(move || ingest.run())
            // hamlet-lint: allow(panic-hygiene) -- thread spawn failing at startup leaves nothing to clean up; abort the pipeline
            .expect("spawn ingest thread");

        Ok(PipelineHandle {
            shared,
            stop,
            ingest: ingest_handle,
            workers: worker_handles,
            ctrl: ctrl_txs,
            churn: churn_tx,
            cut: cut_tx,
            sink: sink_handle,
        })
    }
}

/// The ingest stage: pulls the source, generates watermarks, reorders,
/// counts/dead-letters late events, and routes released events to the
/// shard workers over bounded channels.
struct Ingest<Src> {
    source: Src,
    policy: Box<dyn WatermarkPolicy>,
    on_late: Option<LateHook>,
    router: Option<HamletEngine>,
    /// Workload bookkeeping for churn: the current query set (evolves
    /// with every applied op) and what is needed to compile-check a
    /// churned workload before committing to it.
    reg: Arc<TypeRegistry>,
    queries: Vec<Query>,
    probe_cfg: EngineConfig,
    /// Event-time churn schedule, trigger-ordered (validated at spawn).
    scheduled: VecDeque<(Ts, ChurnOp)>,
    /// Live churn requests from the handle, polled between source events.
    churn_rx: mpsc::Receiver<ChurnRequest>,
    /// On-demand checkpoint cuts from the handle, polled alongside.
    cut_rx: mpsc::Receiver<CutRequest>,
    /// Workload epoch — incremented by every applied churn op, in
    /// lockstep with every worker engine.
    epoch: u64,
    buffer: ReorderBuffer,
    /// Maximum event time pulled from the source — recorded into
    /// checkpoints as the resumed watermark policy's seed.
    max_seen: Option<Ts>,
    /// Per-worker batch under construction.
    out: Vec<Vec<Routed>>,
    txs: Vec<mpsc::SyncSender<WorkerMsg>>,
    workers: u32,
    batch: usize,
    /// Per-shard event-time tick of the last pushed event — the batching
    /// boundary (see [`push_to`](Self::push_to)).
    last_tick: Vec<Option<u64>>,
    /// Where completed cuts are appended (cadence and on-demand).
    store: Option<Arc<dyn CheckpointStore>>,
    /// Cadence: cut after this many released events (None = no cadence).
    cut_every: Option<u64>,
    /// Every this-many cadence cuts, promote the cut to a full base.
    compact_every: u64,
    /// Cadence cuts taken by this incarnation (drives compaction).
    cuts_taken: u64,
    /// `released` counter at the previous cut (cadence anchor).
    last_cut_released: u64,
    shared: Arc<SharedStats>,
    stop: Arc<AtomicBool>,
}

impl<Src: Source> Ingest<Src> {
    fn run(&mut self) -> IngestExit {
        // Acquire pairs with checkpoint()'s Release store of `stop`: if
        // the loop exits because a checkpoint set the flag, everything
        // stored before it — the checkpoint_mode flag in particular —
        // is visible below.
        while !self.stop.load(Ordering::Acquire) {
            // Live churn and on-demand cuts are applied *between* source
            // events — the watermark barrier. A source blocked inside
            // `next_event` delays pending requests until it yields.
            self.poll_live_churn();
            self.poll_cut_requests();
            let pull = self.shared.spans.start();
            let Some(e) = self.source.next_event() else {
                break;
            };
            // The ingest span measures the source pull (wait) time — the
            // signal that separates a source-bound run from an
            // engine-bound one in a trace.
            self.shared.spans.record(0, Stage::Ingest, pull, None, 1);
            // hamlet-lint: allow(wallclock) -- ingest arrival stamp; latency metrics only
            let arrival = Instant::now();
            self.shared.ingested.fetch_add(1, Ordering::Relaxed);
            if self.max_seen.is_none_or(|m| e.time > m) {
                self.max_seen = Some(e.time);
            }
            let wm = self.policy.observe(e.time);
            self.shared.set_watermark(wm);
            if e.time < wm {
                self.shared.late.fetch_add(1, Ordering::Relaxed);
                if let Some(hook) = &mut self.on_late {
                    hook(e);
                }
                continue;
            }
            self.buffer.push(e, arrival);
            let release = self.shared.spans.start();
            let tranche = self.buffer.release(wm);
            self.shared
                .reorder_depth
                .store(self.buffer.len(), Ordering::Relaxed);
            if !tranche.is_empty() {
                let n = tranche.len() as u64;
                self.shared
                    .spans
                    .record(0, Stage::ReorderRelease, release, Some(wm.ticks()), n);
                let route = self.shared.spans.start();
                self.route_tranche(tranche);
                self.shared
                    .spans
                    .record(0, Stage::Route, route, Some(wm.ticks()), n);
            }
            self.fire_scheduled_churn(wm);
            self.maybe_cadence_cut();
        }
        // End of stream, drain, or checkpoint. A drain releases the
        // buffered remainder downstream in order — exactly like a
        // watermark advancing past the stream's end. A checkpoint must
        // NOT: those events were never released, so they are frozen into
        // the checkpoint and re-injected on resume.
        let buffered: Vec<Event> = if self.shared.checkpoint_mode.load(Ordering::Relaxed) {
            self.buffer.drain().into_iter().map(|(e, _)| e).collect()
        } else {
            let rest = self.buffer.drain();
            if !rest.is_empty() {
                self.route_tranche(rest);
            }
            Vec::new()
        };
        self.shared.reorder_depth.store(0, Ordering::Relaxed);
        self.flush_batches();
        self.shared.source_done.store(true, Ordering::Relaxed);
        self.txs.clear(); // hang up: workers drain and await their end command
        IngestExit {
            buffered,
            max_seen: self.max_seen,
        }
    }

    /// Routes one released-in-order tranche to the owning shard(s).
    fn route_tranche(&mut self, tranche: Vec<Routed>) {
        self.shared
            .released
            .fetch_add(tranche.len() as u64, Ordering::Relaxed);
        for (e, arrival) in tranche {
            match &self.router {
                None => self.push_to(0, e, arrival),
                Some(router) => {
                    let mut mask = router.shard_mask(&e, self.workers);
                    while mask != 0 {
                        let idx = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        if mask == 0 {
                            self.push_to(idx, e, arrival);
                            break;
                        }
                        self.push_to(idx, e.clone(), arrival);
                    }
                }
            }
        }
    }

    /// Appends to a shard's batch and flushes it when full (`batch`
    /// events) or when *this shard's* event time advanced a tick — the
    /// boundary that costs no result latency: a shard's windows only
    /// close when one of its own events advances its engine's watermark,
    /// and exactly that tick-advancing event ships inside the batch its
    /// push flushes, while same-tick followers (which cannot close
    /// anything) stay buffered and amortize the channel.
    fn push_to(&mut self, idx: usize, e: Event, arrival: Instant) {
        let tick = e.time.ticks();
        let advanced = self.last_tick[idx].is_some_and(|t| t != tick);
        self.last_tick[idx] = Some(tick);
        self.out[idx].push((e, arrival));
        if advanced || self.out[idx].len() >= self.batch {
            self.send(idx);
        }
    }

    fn flush_batches(&mut self) {
        for idx in 0..self.out.len() {
            if !self.out[idx].is_empty() {
                self.send(idx);
            }
        }
    }

    fn send(&mut self, idx: usize) {
        let full = std::mem::replace(&mut self.out[idx], Vec::with_capacity(self.batch));
        self.shared.worker_depths[idx].fetch_add(full.len(), Ordering::Relaxed);
        // Blocking on a full channel IS the backpressure. A send only
        // fails if the worker died (panicked): stop pulling the source so
        // an unbounded run cannot silently discard that shard's events
        // forever — the drain join then surfaces the worker's panic.
        if self.txs[idx].send(WorkerMsg::Batch(full)).is_err() {
            self.shared.worker_depths[idx].store(0, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
        }
    }

    /// Applies every scheduled churn op whose trigger the watermark has
    /// reached. The schedule was validated at spawn, but a live op may
    /// have invalidated an entry since (e.g. already removed the id):
    /// such entries are skipped and counted, never applied half-way.
    fn fire_scheduled_churn(&mut self, wm: Ts) {
        while self.scheduled.front().is_some_and(|(t, _)| *t <= wm) {
            let Some((_, op)) = self.scheduled.pop_front() else {
                break;
            };
            if self.apply_churn(op).is_err() {
                self.shared.churns_rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains pending live churn requests and acks each with the
    /// post-churn epoch (or the rejection).
    fn poll_live_churn(&mut self) {
        while let Ok(req) = self.churn_rx.try_recv() {
            let outcome = self.apply_churn(req.op);
            if outcome.is_err() {
                self.shared.churns_rejected.fetch_add(1, Ordering::Relaxed);
            }
            let _ = req.ack.send(outcome);
        }
    }

    /// Applies one churn op at the current watermark barrier: validates
    /// it against the evolving query set, compile-checks the post-churn
    /// workload (so the workers' own churn cannot fail), ships every
    /// partial batch followed by the op down each worker's FIFO channel
    /// (every shard churns at the same stream cut), re-plans the router,
    /// and bumps the workload epoch.
    fn apply_churn(&mut self, op: ChurnOp) -> Result<u64, ChurnError> {
        let mut wanted = self.queries.clone();
        op.apply_to(&mut wanted)?;
        HamletEngine::new(self.reg.clone(), wanted.clone(), self.probe_cfg.clone())
            .map_err(ChurnError::Engine)?;
        let barrier = self.shared.spans.start();
        // The barrier: everything routed so far reaches each worker
        // before the op does (per-channel FIFO), everything after it
        // follows — the same cut on every shard.
        self.flush_batches();
        if let Some(router) = &mut self.router {
            // Re-plan the router before any worker sees the op: ingest
            // is the only thread that routes, so between the flush above
            // and the sends below no event observes the routing — and a
            // rejected re-plan (the dry-run makes that unreachable)
            // fails the churn cleanly instead of desyncing shards.
            // It holds no window state to drain.
            match &op {
                ChurnOp::Add(q) => drop(router.add_query(q.clone())?),
                ChurnOp::Remove(id) => drop(router.remove_query(*id)?),
            }
        }
        for idx in 0..self.txs.len() {
            if self.txs[idx].send(WorkerMsg::Churn(op.clone())).is_err() {
                self.stop.store(true, Ordering::Relaxed);
            }
        }
        self.queries = wanted;
        self.epoch += 1;
        self.shared.epoch.store(self.epoch, Ordering::Relaxed);
        self.shared
            .spans
            .record(0, Stage::ChurnBarrier, barrier, None, 0);
        Ok(self.epoch)
    }

    /// Drains pending on-demand cut requests; each runs a coordinated
    /// cut at the current barrier and is acked with the assembled
    /// [`Checkpoint`].
    fn poll_cut_requests(&mut self) {
        while let Ok(req) = self.cut_rx.try_recv() {
            let outcome = self.coordinated_cut(req.kind);
            let _ = req.ack.send(outcome);
        }
    }

    /// Runs a cadence cut once enough events have been released since
    /// the previous one. Every `compact_every`-th cadence cut is
    /// promoted to a full base, compacting the store's chain. A failed
    /// cut is counted and the pipeline keeps running — the next cadence
    /// boundary tries again.
    fn maybe_cadence_cut(&mut self) {
        let Some(every) = self.cut_every else { return };
        let released = self.shared.released.load(Ordering::Relaxed);
        if released.saturating_sub(self.last_cut_released) < every {
            return;
        }
        let compact =
            self.compact_every <= 1 || (self.cuts_taken + 1).is_multiple_of(self.compact_every);
        let kind = if compact {
            CutKind::Full
        } else {
            CutKind::Delta
        };
        if self.coordinated_cut(kind).is_ok() {
            self.cuts_taken += 1;
        }
    }

    /// A coordinated checkpoint cut at the current barrier: flushes
    /// every partial batch down the worker FIFOs (so every shard
    /// serializes at exactly the same stream position), collects one
    /// record per shard, packs them with the pipeline tail into one
    /// shard-set record, and appends it to the configured store.
    fn coordinated_cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        let span = self.shared.spans.start();
        let result = self.coordinated_cut_inner(kind);
        self.shared
            .spans
            .record(0, Stage::CheckpointPause, span, None, 0);
        // Anchor the cadence even on failure: retrying on every released
        // event while a store stays broken would turn one bad disk into a
        // per-event barrier.
        self.last_cut_released = self.shared.released.load(Ordering::Relaxed);
        match &result {
            Ok(ck) => {
                self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .checkpoint_bytes
                    .fetch_add(ck.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.shared
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn coordinated_cut_inner(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        // The same barrier as churn: everything routed so far reaches
        // each worker before the cut marker does (per-channel FIFO).
        self.flush_batches();
        let (reply_tx, reply_rx) = mpsc::channel();
        for idx in 0..self.txs.len() {
            let msg = WorkerMsg::Cut {
                kind,
                reply: reply_tx.clone(),
            };
            if self.txs[idx].send(msg).is_err() {
                self.stop.store(true, Ordering::Relaxed);
                return Err(CheckpointError::Io(format!(
                    "worker {idx} is gone; cannot cut"
                )));
            }
        }
        drop(reply_tx);
        let n = self.txs.len();
        let mut parts: Vec<Option<Checkpoint>> = vec![None; n];
        for _ in 0..n {
            match reply_rx.recv() {
                Ok((idx, Ok(ck))) => parts[idx] = Some(ck),
                Ok((_, Err(e))) => return Err(e),
                Err(_) => {
                    self.stop.store(true, Ordering::Relaxed);
                    return Err(CheckpointError::Io("a worker died during the cut".into()));
                }
            }
        }
        let Some(parts) = parts.into_iter().collect::<Option<Vec<_>>>() else {
            return Err(CheckpointError::Io(
                "a shard replied twice during the cut".into(),
            ));
        };
        // Every pre-cut result is now enqueued to the sink (each worker
        // sent its results before replying with its frame); wait for the
        // sink thread to land them so the frozen counters are exact.
        // Bounded, so a wedged sink cannot hang ingest forever.
        for _ in 0..1_000_000 {
            if self.shared.sink_depth.load(Ordering::Relaxed) == 0 {
                break;
            }
            std::thread::yield_now();
        }
        let counters = [
            self.shared.ingested.load(Ordering::Relaxed),
            self.shared.late.load(Ordering::Relaxed),
            self.shared.released.load(Ordering::Relaxed),
            self.shared.results.load(Ordering::Relaxed),
        ];
        let tail = PipelineTail {
            buffered: self.buffer.contents(),
            events_pulled: counters[0],
            max_seen: self.max_seen,
            counters,
            elapsed: self.shared.elapsed(),
        };
        let ck = Checkpoint::join(&parts, &tail.encode())?;
        if let Some(store) = &self.store {
            store.append(&ck)?;
        }
        Ok(ck)
    }
}

/// One shard worker: an engine fed released, in-order events; results go
/// to the sink channel with end-to-end latency recorded per result.
fn worker_loop(
    idx: usize,
    engine: &mut HamletEngine,
    rx: &mpsc::Receiver<WorkerMsg>,
    ctrl_rx: &mpsc::Receiver<WorkerEnd>,
    result_tx: &mpsc::SyncSender<Vec<WindowResult>>,
    shared: &SharedStats,
) -> WorkerOutput {
    let mut local = LatencyHistogram::new();
    // Reused split buffer: the engine takes `&[Event]`, the arrivals only
    // matter for the batch's last element (see below).
    let mut events: Vec<Event> = Vec::new();
    let lane = 1 + idx as u32;
    // Periodic group-metrics publish cadence, in batches: frequent
    // enough for live dashboards, rare enough that the clone + try_lock
    // never show up next to the engine's own batch cost.
    const PUBLISH_EVERY: u64 = 64;
    let mut batches = 0u64;
    while let Ok(msg) = rx.recv() {
        let batch = match msg {
            WorkerMsg::Batch(batch) => batch,
            WorkerMsg::Churn(op) => {
                let barrier = shared.spans.start();
                // The ingest stage validated the op and compiled the
                // post-churn workload; every worker applies it at the
                // same stream cut (FIFO channel order). Windows of
                // touched share groups drain here and reach the sink —
                // exactly once, like any other result.
                let drained = match op {
                    ChurnOp::Add(q) => engine.add_query(q),
                    ChurnOp::Remove(id) => engine.remove_query(id),
                }
                // hamlet-lint: allow(panic-hygiene) -- ingest dry-ran this op; a worker that cannot apply it must not keep running on a diverged shard
                .expect("churn ops are validated by the ingest stage")
                .drained;
                if !drained.is_empty() {
                    shared
                        .sink_depth
                        .fetch_add(drained.len(), Ordering::Relaxed);
                    let _ = result_tx.send(drained);
                }
                shared
                    .spans
                    .record(lane, Stage::ChurnBarrier, barrier, None, 0);
                // Churn replaces the share groups: re-publish promptly so
                // snapshots never show the pre-churn layout for long.
                shared.try_publish_groups(idx, engine.group_metrics());
                continue;
            }
            WorkerMsg::Cut { kind, reply } => {
                // Coordinated cut: the queue ahead of this marker is
                // already processed (FIFO), so the frame captures the
                // shard at exactly the barrier's stream position. The
                // engine decides full vs delta (it promotes a delta to a
                // base when it has no sound dirty log yet).
                let pause = shared.spans.start();
                let frame = engine.cut(kind);
                shared
                    .spans
                    .record(lane, Stage::CheckpointPause, pause, None, 0);
                let _ = reply.send((idx, frame));
                continue;
            }
        };
        let n = batch.len();
        if n == 0 {
            // A zero-length batch is a no-op — no watermark side-effect,
            // no latency sample. The router never sends one, but a
            // checkpoint/resume or future source must not be able to
            // perturb the engine with an empty hand-off.
            continue;
        }
        events.clear();
        let mut last_arrival = None;
        for (e, arrival) in batch {
            events.push(e);
            last_arrival = Some(arrival);
        }
        let emitted = engine.process_batch(&events);
        shared.worker_depths[idx].fetch_sub(n, Ordering::Relaxed);
        if !emitted.is_empty() {
            // Every result is attributed to the batch's last event: the
            // router flushes a shard's batch *on* the tick-advancing
            // event (see `Ingest::push_to`), so that final event is the
            // only one in the batch that can advance this engine's
            // watermark and close windows — identical attribution to the
            // old per-event loop. A non-empty batch always stamped an
            // arrival; the `if let` makes that panic-free rather than
            // asserted.
            if let Some(arrival) = last_arrival {
                let latency = arrival.elapsed();
                for _ in 0..emitted.len() {
                    local.record(latency);
                }
                // One lock per batch, not per result: N workers recording
                // per-event would contend on the shared histogram and
                // inflate the very tail latency being measured.
                // hamlet-lint: allow(panic-hygiene) -- a poisoned latency lock means a recorder panicked; propagate it
                shared.latency.lock().expect("latency lock").merge(&local);
                local = LatencyHistogram::new();
            }
            shared
                .sink_depth
                .fetch_add(emitted.len(), Ordering::Relaxed);
            let _ = result_tx.send(emitted);
        }
        batches += 1;
        if batches.is_multiple_of(PUBLISH_EVERY) {
            shared.try_publish_groups(idx, engine.group_metrics());
        }
    }
    // Channel closed: the queue is drained — the barrier. The handle
    // says how to end: drain() flushes every in-flight window into the
    // sink (drain ≡ offline flush, every window emits exactly once);
    // checkpoint() freezes the engine state instead, so those windows
    // emit after a resume. A disconnected control channel means the
    // handle was abandoned: flush, preserving drain semantics.
    let checkpoint = match ctrl_rx.recv() {
        Ok(WorkerEnd::Checkpoint) => Some(engine.cut(CutKind::Full)),
        Ok(WorkerEnd::Flush) | Err(_) => {
            let finale = engine.flush();
            if !finale.is_empty() {
                shared.sink_depth.fetch_add(finale.len(), Ordering::Relaxed);
                let _ = result_tx.send(finale);
            }
            None
        }
    };
    // Final publish is blocking: the shard's last word must land even if
    // a snapshot reader holds the lock right now.
    let groups = engine.group_metrics().to_vec();
    shared.publish_groups(idx, groups.clone());
    (
        *engine.stats(),
        engine.latency().clone(),
        engine.peak_memory(),
        groups,
        checkpoint,
    )
}

/// The sink stage: delivers result batches and keeps the counters live.
fn sink_loop<S: Sink>(
    mut sink: S,
    rx: &mpsc::Receiver<Vec<WindowResult>>,
    shared: &SharedStats,
) -> S {
    while let Ok(batch) = rx.recv() {
        shared.sink_depth.fetch_sub(batch.len(), Ordering::Relaxed);
        shared
            .results
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        sink.accept(batch);
    }
    sink
}

/// A live pipeline: observe it with [`metrics`](Self::metrics), end it
/// with [`drain`](Self::drain) — or freeze it with
/// [`checkpoint`](Self::checkpoint) to resume later.
pub struct PipelineHandle<S> {
    shared: Arc<SharedStats>,
    stop: Arc<AtomicBool>,
    ingest: JoinHandle<IngestExit>,
    workers: Vec<JoinHandle<WorkerOutput>>,
    /// Per-worker end-of-run command channel (flush vs checkpoint).
    ctrl: Vec<mpsc::Sender<WorkerEnd>>,
    /// Live churn requests to the ingest stage.
    churn: mpsc::Sender<ChurnRequest>,
    /// On-demand checkpoint cuts to the ingest stage.
    cut: mpsc::Sender<CutRequest>,
    sink: JoinHandle<S>,
}

impl<S: Sink> Snapshot for PipelineHandle<S> {
    /// Cuts a checkpoint of the **running** pipeline at the next
    /// barrier between source events (same barrier semantics as
    /// [`add_query`](PipelineHandle::add_query)) and blocks until the
    /// assembled record is back — appended to the configured
    /// [`CheckpointStore`] first, if one was set at build time. The
    /// pipeline keeps running afterwards; the frame chains onto any
    /// cadence cuts taken so far. A source blocked inside `next_event`,
    /// or one that already ended, delays or fails the cut (the ingest
    /// stage only reaches barriers while events flow).
    fn cut(&mut self, kind: CutKind) -> Result<Checkpoint, CheckpointError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.cut
            .send(CutRequest { kind, ack: ack_tx })
            .map_err(|_| CheckpointError::Io("the pipeline has stopped ingesting".into()))?;
        match ack_rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(CheckpointError::Io(
                "the pipeline stopped before reaching the cut barrier".into(),
            )),
        }
    }

    /// A live pipeline cannot restore in place — its engines are owned
    /// by running worker threads. Always fails; rebuild the pipeline
    /// with [`PipelineBuilder::resume_from`] instead.
    fn restore_chain(&mut self, _chain: &[Checkpoint]) -> Result<(), CheckpointError> {
        Err(CheckpointError::WorkloadMismatch(
            "a live pipeline cannot restore in place; rebuild it with \
             Pipeline::builder(...).resume_from(store, source, sink)"
                .into(),
        ))
    }
}

impl<S: Sink> PipelineHandle<S> {
    /// A live snapshot of the pipeline's counters, queue depths, and
    /// latency tail. Never blocks the data path.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// The current metrics snapshot rendered in the Prometheus text
    /// exposition format (see [`MetricsSnapshot::to_prometheus`]).
    pub fn export_prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }

    /// Every stage span recorded so far as Chrome `trace_event` JSON,
    /// loadable in `chrome://tracing` / Perfetto. Empty (but valid)
    /// unless the pipeline was built with [`PipelineBuilder::trace`].
    pub fn export_chrome_trace(&self) -> String {
        hamlet_obs::export::chrome_trace(&self.shared.spans.snapshot(), self.shared.spans.dropped())
    }

    /// Requests shutdown without waiting: the source stops being pulled
    /// after its current event; everything already ingested still flows
    /// through. Idempotent. (A source blocked inside `next_event` is
    /// interrupted only when it yields.)
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Adds a query to the live workload and blocks until it is applied,
    /// returning the new workload epoch.
    ///
    /// The op takes effect at the next **watermark barrier** — between
    /// source events, after everything already released has reached the
    /// workers, never mid-batch. Every shard engine re-plans only the
    /// share groups the new query touches; untouched groups keep their
    /// in-flight state, and windows of touched groups drain to the sink
    /// exactly once (no result is dropped or duplicated). A source
    /// blocked inside `next_event` delays the barrier (and this call)
    /// until it yields.
    pub fn add_query(&self, q: Query) -> Result<u64, PipelineChurnError> {
        self.churn(ChurnOp::Add(q))
    }

    /// Removes a query from the live workload and blocks until it is
    /// applied, returning the new workload epoch. Same barrier semantics
    /// as [`add_query`](Self::add_query): the removed query's in-flight
    /// windows drain to the sink at the barrier, exactly once.
    pub fn remove_query(&self, id: QueryId) -> Result<u64, PipelineChurnError> {
        self.churn(ChurnOp::Remove(id))
    }

    fn churn(&self, op: ChurnOp) -> Result<u64, PipelineChurnError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.churn
            .send(ChurnRequest { op, ack: ack_tx })
            .map_err(|_| PipelineChurnError::Stopped)?;
        match ack_rx.recv() {
            Ok(Ok(epoch)) => Ok(epoch),
            Ok(Err(e)) => Err(PipelineChurnError::Rejected(e)),
            // The ingest stage exited with the request still queued.
            Err(_) => Err(PipelineChurnError::Stopped),
        }
    }

    /// Gracefully drains the pipeline and returns the final report:
    /// waits for the source to end (call [`stop`](Self::stop) first to
    /// cut an unbounded source), releases the reorder buffer in order,
    /// lets every worker process its queue and `flush()`, delivers the
    /// last results to the sink, and joins all threads.
    ///
    /// Equivalent to an offline `process`+`flush` over exactly the
    /// events the pipeline released (see `tests/pipeline_equivalence.rs`
    /// for the byte-identity property).
    pub fn drain(self) -> PipelineReport<S> {
        // hamlet-lint: allow(panic-hygiene) -- join propagates the thread's panic; swallowing it would fake a clean drain
        self.ingest.join().expect("ingest thread panicked");
        for tx in &self.ctrl {
            let _ = tx.send(WorkerEnd::Flush);
        }
        let mut stats = Vec::with_capacity(self.workers.len());
        let mut peak_mem = Vec::with_capacity(self.workers.len());
        let mut engine_latency = LatencyRecorder::new();
        let mut worker_groups = Vec::with_capacity(self.workers.len());
        for handle in self.workers {
            // hamlet-lint: allow(panic-hygiene) -- join propagates the thread's panic; swallowing it would fake a clean drain
            let (s, lat, peak, groups, _) = handle.join().expect("worker thread panicked");
            stats.push(s);
            peak_mem.push(peak);
            engine_latency.merge(&lat);
            worker_groups.push(groups);
        }
        // hamlet-lint: allow(panic-hygiene) -- join propagates the thread's panic; swallowing it would fake a clean drain
        let sink = self.sink.join().expect("sink thread panicked");
        // hamlet-lint: allow(panic-hygiene) -- a poisoned lock means a recorder panicked; propagate it
        let latency = self.shared.latency.lock().expect("latency lock").clone();
        PipelineReport {
            sink,
            events: self.shared.ingested.load(Ordering::Relaxed),
            released: self.shared.released.load(Ordering::Relaxed),
            late: self.shared.late.load(Ordering::Relaxed),
            results: self.shared.results.load(Ordering::Relaxed),
            wall: self.shared.elapsed(),
            stats,
            peak_mem,
            engine_latency,
            latency,
            group_metrics: merge_group_metrics(worker_groups),
            spans: self.shared.spans.snapshot(),
            dropped_spans: self.shared.spans.dropped(),
        }
    }

    /// Quiesces the pipeline at a **drain barrier** and freezes its
    /// state instead of flushing it: the source stops being pulled, the
    /// reorder stage keeps (rather than releases) its buffered events,
    /// every worker drains its queue and serializes its engine, and the
    /// sink receives everything that was already in flight — then all
    /// threads join.
    ///
    /// The returned [`PipelineCheckpointReport`] carries the
    /// [`PipelineCheckpoint`] (persist it with
    /// [`to_bytes`](PipelineCheckpoint::to_bytes)), the sink with every
    /// result emitted *before* the barrier, and the barrier pause time.
    /// Windows still open at the barrier emit after
    /// [`PipelineBuilder::resume_from`] — exactly once, never twice:
    /// resuming and draining is byte-identical to a run that never
    /// stopped.
    ///
    /// The freeze is a full cut through each engine's chain counter, so
    /// it extends the chain of any cadence or on-demand cuts taken
    /// before it (seq = tip + 1). Appended to the same store it
    /// becomes the newest base — the record `resume_from` restores.
    ///
    /// An unbounded source is cut mid-stream (like
    /// [`stop`](Self::stop)); a finite source that already ended simply
    /// yields a checkpoint whose reorder buffer is empty.
    pub fn checkpoint(self) -> PipelineCheckpointReport<S> {
        // Order matters: the mode flag must be visible to the ingest
        // stage whenever the stop flag is — otherwise ingest could stop
        // for the checkpoint yet release (instead of freeze) its reorder
        // buffer. The mode store is sequenced before the Release store
        // of `stop`, and ingest's loop reads `stop` with Acquire, so
        // stop-observed ⇒ mode-visible.
        self.shared.checkpoint_mode.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Release);
        let pause_span = self.shared.spans.start();
        // hamlet-lint: allow(wallclock) -- checkpoint-pause measurement for the report
        let barrier = Instant::now();
        // hamlet-lint: allow(panic-hygiene) -- join propagates the thread's panic; swallowing it would fake a clean drain
        let exit = self.ingest.join().expect("ingest thread panicked");
        for tx in &self.ctrl {
            let _ = tx.send(WorkerEnd::Checkpoint);
        }
        let mut stats = Vec::with_capacity(self.workers.len());
        let mut shards = Vec::with_capacity(self.workers.len());
        for handle in self.workers {
            // hamlet-lint: allow(panic-hygiene) -- join propagates the thread's panic; swallowing it would fake a clean drain
            let (s, _, _, _, cut) = handle.join().expect("worker thread panicked");
            stats.push(s);
            // hamlet-lint: allow(panic-hygiene) -- every worker was sent WorkerEnd::Checkpoint before this join
            let cut = cut.expect("worker was told to checkpoint");
            // hamlet-lint: allow(panic-hygiene) -- an engine's own cut always parses as a record
            shards.push(cut.expect("own cut frames"));
        }
        // hamlet-lint: allow(panic-hygiene) -- join propagates the thread's panic; swallowing it would fake a clean drain
        let sink = self.sink.join().expect("sink thread panicked");
        let pause = barrier.elapsed();
        self.shared
            .spans
            .record(0, Stage::CheckpointPause, pause_span, None, 0);
        let counters = [
            self.shared.ingested.load(Ordering::Relaxed),
            self.shared.late.load(Ordering::Relaxed),
            self.shared.released.load(Ordering::Relaxed),
            self.shared.results.load(Ordering::Relaxed),
        ];
        let wall = self.shared.elapsed();
        let tail = PipelineTail {
            buffered: exit.buffered,
            events_pulled: counters[0],
            max_seen: exit.max_seen,
            counters,
            elapsed: wall,
        };
        PipelineCheckpointReport {
            // hamlet-lint: allow(panic-hygiene) -- every shard cut Full at the same barrier and chain counter, so the parts always join
            checkpoint: PipelineCheckpoint::assemble(shards, tail).expect("lockstep shard cuts"),
            sink,
            pause,
            wall,
            stats,
            spans: self.shared.spans.snapshot(),
            dropped_spans: self.shared.spans.dropped(),
        }
    }
}

/// What [`PipelineHandle::checkpoint`] hands back: the frozen state,
/// the sink with every pre-barrier result, and the barrier timing.
pub struct PipelineCheckpointReport<S> {
    /// The durable pipeline state — persist with
    /// [`PipelineCheckpoint::to_bytes`] (or append it to a
    /// [`CheckpointStore`]), resume with
    /// [`PipelineBuilder::resume_from`].
    pub checkpoint: PipelineCheckpoint,
    /// The sink, holding every result emitted before the barrier.
    pub sink: S,
    /// Drain-barrier pause: from the checkpoint request until every
    /// stage had quiesced and serialized — the unavailability window a
    /// live deployment would see.
    pub pause: Duration,
    /// Wall time of the logical run up to checkpoint completion
    /// (accumulated across resumes).
    pub wall: Duration,
    /// Per-worker engine statistics at the barrier.
    pub stats: Vec<EngineStats>,
    /// Stage spans recorded up to the barrier (empty unless the pipeline
    /// was built with [`PipelineBuilder::trace`]).
    pub spans: Vec<Span>,
    /// Spans shed by full or contended trace rings.
    pub dropped_spans: u64,
}

/// Everything a finished pipeline run measured, plus the sink itself.
pub struct PipelineReport<S> {
    /// The sink, with whatever it accumulated.
    pub sink: S,
    /// Events ingested from the source.
    pub events: u64,
    /// Events released to workers (ingested − late, once the drain
    /// completes).
    pub released: u64,
    /// Late events dropped (counted, dead-lettered).
    pub late: u64,
    /// Window results delivered to the sink.
    pub results: u64,
    /// Wall time from spawn to drain completion. For a resumed pipeline
    /// this includes the time accumulated before the checkpoint, so
    /// throughput reflects the whole logical run.
    pub wall: Duration,
    /// Per-worker engine statistics (index = shard).
    pub stats: Vec<EngineStats>,
    /// Per-worker peak byte-accounted state.
    pub peak_mem: Vec<usize>,
    /// Merged engine-internal result latency (result − last contributing
    /// event arrival, as the offline harness reports it).
    pub engine_latency: LatencyRecorder,
    /// End-to-end (ingest → emit) latency histogram (p50/p99).
    pub latency: LatencyHistogram,
    /// Per-share-group metrics merged across shard workers (empty when
    /// the engines ran with [`EngineConfig::obs`] off).
    pub group_metrics: Vec<GroupMetrics>,
    /// Stage spans recorded over the run (empty unless the pipeline was
    /// built with [`PipelineBuilder::trace`]).
    pub spans: Vec<Span>,
    /// Spans shed by full or contended trace rings.
    pub dropped_spans: u64,
}

impl<S> PipelineReport<S> {
    /// Number of workers that ran.
    pub fn workers(&self) -> usize {
        self.stats.len()
    }

    /// Ingest throughput over the whole run (0 for zero-duration runs —
    /// never `inf`/`NaN`).
    pub fn throughput_eps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 && secs.is_finite() {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// Workload-level engine statistics (all workers accumulated).
    pub fn merged_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_core::executor::sort_results;
    use hamlet_core::MemStore;
    use hamlet_query::parse_query;
    use hamlet_types::{AttrValue, EventTypeId, Ts};

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
        for t in 0..300u64 {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            events.push(Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)]));
        }
        (reg, queries, events)
    }

    fn offline(reg: &Arc<TypeRegistry>, queries: &[Query], events: &[Event]) -> Vec<WindowResult> {
        let mut eng =
            HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        for e in events {
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        out
    }

    #[test]
    fn single_worker_matches_offline_in_emission_order() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let handle = Pipeline::builder(reg, queries)
            .spawn(ReplaySource::new(events.clone()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        // Raw order, not just sorted: one worker's emission order is the
        // engine's emission order.
        assert_eq!(report.sink.results, expected);
        assert_eq!(report.events, events.len() as u64);
        assert_eq!(report.released, events.len() as u64);
        assert_eq!(report.late, 0);
        assert_eq!(report.results, expected.len() as u64);
        assert_eq!(report.workers(), 1);
        assert!(report.throughput_eps() > 0.0);
        assert!(report.latency.count() > 0, "latency samples recorded");
        assert_eq!(report.merged_stats().late_skips, 0);
    }

    #[test]
    fn sharded_workers_match_offline_canonically() {
        let (reg, queries, events) = setup();
        let mut expected = offline(&reg, &queries, &events);
        sort_results(&mut expected);
        for workers in [2u32, 4] {
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .batch(16)
                .spawn(ReplaySource::new(events.clone()), VecSink::new())
                .unwrap();
            let report = handle.drain();
            let mut got = report.sink.results;
            sort_results(&mut got);
            assert_eq!(got, expected, "{workers} workers");
            assert_eq!(report.stats.len(), workers as usize);
        }
    }

    #[test]
    fn out_of_order_within_slack_matches_in_order() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        // Shuffle with bounded lateness 5, ingest with slack 5.
        let mut shuffled = events.clone();
        hamlet_stream::bounded_delay_shuffle(&mut shuffled, 5, 99);
        assert_ne!(shuffled, events, "shuffle must perturb the order");
        let handle = Pipeline::builder(reg, queries)
            .watermark(BoundedLateness::new(5))
            .spawn(ReplaySource::new(shuffled), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert_eq!(report.late, 0, "lateness within slack drops nothing");
        assert_eq!(report.sink.results, expected, "reorder restored order");
    }

    #[test]
    fn late_events_are_counted_and_dead_lettered() {
        let (reg, queries, events) = setup();
        let mut shuffled = events.clone();
        hamlet_stream::bounded_delay_shuffle(&mut shuffled, 10, 42);
        let dead = Arc::new(std::sync::Mutex::new(Vec::<Event>::new()));
        let dead_in_hook = dead.clone();
        // Slack 0 with lateness 10: every out-of-order event is late.
        let handle = Pipeline::builder(reg, queries)
            .watermark(BoundedLateness::new(0))
            .on_late(move |e| dead_in_hook.lock().unwrap().push(e))
            .spawn(ReplaySource::new(shuffled.clone()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert!(report.late > 0, "shuffled stream must produce late events");
        assert_eq!(report.late as usize, dead.lock().unwrap().len());
        assert_eq!(report.released + report.late, report.events);
        // The engine never saw the dropped events, so its own late guard
        // stayed quiet and no window was emitted twice.
        assert_eq!(report.merged_stats().late_skips, 0);
        let mut seen = std::collections::BTreeSet::new();
        for r in &report.sink.results {
            assert!(
                seen.insert((r.query, format!("{}", r.group_key), r.window_start)),
                "duplicate window emission: {r:?}"
            );
        }
    }

    /// An endless source: the pipeline must keep running, serve live
    /// metrics, and stop cleanly mid-stream.
    struct Endless {
        t: u64,
        a: EventTypeId,
        b: EventTypeId,
    }

    impl Source for Endless {
        fn next_event(&mut self) -> Option<Event> {
            let ty = if self.t.is_multiple_of(10) {
                self.a
            } else {
                self.b
            };
            let e = Event::new(
                Ts(self.t / 4),
                ty,
                vec![AttrValue::Int((self.t % 3) as i64)],
            );
            self.t += 1;
            Some(e)
        }
    }

    #[test]
    fn unbounded_source_stops_on_drain() {
        let (reg, queries, _) = setup();
        let a = reg.type_id("A").unwrap();
        let b = reg.type_id("B").unwrap();
        let handle = Pipeline::builder(reg, queries)
            .batch(32)
            .spawn(Endless { t: 0, a, b }, CountingSink::new())
            .unwrap();
        // Let it run until it has demonstrably made progress.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = handle.metrics();
            if m.results > 0 && m.ingested > 1_000 {
                assert_eq!(m.late, 0);
                assert!(m.watermark.is_some());
                assert!(m.ingest_eps() > 0.0);
                break;
            }
            assert!(Instant::now() < deadline, "pipeline made no progress");
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.stop();
        let report = handle.drain();
        assert!(report.events > 1_000);
        assert!(report.results > 0);
        assert_eq!(report.released, report.events);
        assert_eq!(report.sink.count, report.results);
    }

    /// A deliberately slow sink with single-slot channels: backpressure
    /// must stall the source rather than losing or duplicating results.
    struct SlowVec {
        results: Vec<WindowResult>,
        delayed: u32,
    }

    impl Sink for SlowVec {
        fn accept(&mut self, batch: Vec<WindowResult>) {
            if self.delayed < 20 {
                self.delayed += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            self.results.extend(batch);
        }
    }

    #[test]
    fn backpressure_preserves_every_result() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let handle = Pipeline::builder(reg, queries)
            .batch(4)
            .channel_capacity(1)
            .spawn(
                ReplaySource::new(events.clone()),
                SlowVec {
                    results: Vec::new(),
                    delayed: 0,
                },
            )
            .unwrap();
        let report = handle.drain();
        assert_eq!(report.sink.results, expected, "backpressure lost results");
        assert_eq!(report.events, events.len() as u64);
    }

    /// Checkpoint after a prefix, resume with the rest of the stream:
    /// the sink ends up with exactly the uninterrupted run's results (1
    /// worker: raw emission order), and the metrics counters continue.
    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let cut = events.len() / 2;
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        // Let the prefix drain fully so the cut is exact and the barrier
        // deterministic.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().source_done && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "prefix never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let frozen = handle.checkpoint();
        assert_eq!(frozen.checkpoint.events_pulled(), cut as u64);
        assert_eq!(frozen.checkpoint.workers(), 1);
        assert!(frozen.checkpoint.engine_bytes() > 0);
        // Persist + reload, as a crash-recovery path would.
        let blob = frozen.checkpoint.to_bytes();
        let restored = PipelineCheckpoint::from_bytes(&blob).unwrap();
        let cursor = restored.events_pulled() as usize;
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                &store_of(&restored),
                ReplaySource::new(events[cursor..].to_vec()),
                frozen.sink,
            )
            .unwrap();
        let report = resumed.drain();
        assert_eq!(
            report.sink.results, expected,
            "kill-restore-continue diverged"
        );
        assert_eq!(report.events, events.len() as u64, "counters continue");
        assert_eq!(report.released, events.len() as u64);
    }

    /// A store holding exactly one pipeline record.
    fn store_of(ck: &PipelineCheckpoint) -> MemStore {
        let store = MemStore::new();
        store
            .append(&Checkpoint::from_bytes(ck.to_bytes()).unwrap())
            .unwrap();
        store
    }

    /// Resume validates the worker count before touching any state.
    #[test]
    fn resume_rejects_wrong_worker_count() {
        let (reg, queries, events) = setup();
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .workers(2)
            .spawn(ReplaySource::new(events.clone()), VecSink::new())
            .unwrap();
        let frozen = handle.checkpoint();
        let err = Pipeline::builder(reg, queries)
            .workers(4)
            .resume_from(
                &store_of(&frozen.checkpoint),
                ReplaySource::new(vec![]),
                NullSink,
            )
            .err();
        assert!(
            matches!(err, Some(ResumeError::Checkpoint(_))),
            "wrong worker count must be a checkpoint error: {err:?}"
        );
    }

    #[test]
    fn spawn_surfaces_workload_errors() {
        let mut reg = TypeRegistry::new();
        reg.register("A", &["v"]);
        let reg = Arc::new(reg);
        // MIN with negation is unsupported — the builder must say so
        // instead of panicking a worker thread.
        let q = parse_query(&reg, 1, "RETURN MIN(A.v) PATTERN SEQ(NOT A, A+) WITHIN 10");
        let Ok(q) = q else {
            return; // parser already rejects it: equally fine
        };
        let err = Pipeline::builder(reg, vec![q])
            .spawn(ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(err.is_some(), "engine error must surface at spawn");
    }

    #[test]
    #[should_panic(expected = "at most 64 workers")]
    fn too_many_workers_rejected() {
        let (reg, queries, _) = setup();
        let _ = Pipeline::builder(reg, queries).workers(65);
    }

    fn third_query(reg: &Arc<TypeRegistry>) -> Query {
        parse_query(
            reg,
            3,
            "RETURN COUNT(*) PATTERN SEQ(A, B+) GROUP BY g WITHIN 10",
        )
        .unwrap()
    }

    /// Offline reference for a churned run: with an in-order stream and
    /// zero slack, the pipeline's watermark equals each event's time, so
    /// a scheduled op fires right after the first event at/past its
    /// trigger — this mirrors that barrier exactly.
    fn offline_churned(
        reg: &Arc<TypeRegistry>,
        queries: &[Query],
        events: &[Event],
        schedule: &[(Ts, ChurnOp)],
    ) -> Vec<WindowResult> {
        let mut eng =
            HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        let mut next = 0;
        for e in events {
            out.extend(eng.process(e));
            while next < schedule.len() && schedule[next].0 <= e.time {
                let report = match schedule[next].1.clone() {
                    ChurnOp::Add(q) => eng.add_query(q),
                    ChurnOp::Remove(id) => eng.remove_query(id),
                }
                .unwrap();
                out.extend(report.drained);
                next += 1;
            }
        }
        out.extend(eng.flush());
        out
    }

    /// A scheduled add + remove mid-stream matches the same churn
    /// applied to an offline engine at the same event-time barriers —
    /// raw emission order with one worker, canonical order when sharded.
    /// An op scheduled past the stream's end never fires.
    #[test]
    fn scheduled_churn_matches_offline_replan() {
        let (reg, queries, events) = setup();
        let schedule = vec![
            (Ts(99), ChurnOp::Add(third_query(&reg))),
            (Ts(199), ChurnOp::Remove(QueryId(2))),
            (Ts(9_999), ChurnOp::Remove(QueryId(1))), // beyond the stream: discarded
        ];
        let expected = offline_churned(&reg, &queries, &events, &schedule);
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .churn_at(schedule.clone())
            .spawn(ReplaySource::new(events.clone()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert_eq!(report.sink.results, expected, "single-worker churn");

        let mut canonical = expected;
        sort_results(&mut canonical);
        for workers in [2u32, 4] {
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .batch(16)
                .churn_at(schedule.clone())
                .spawn(ReplaySource::new(events.clone()), VecSink::new())
                .unwrap();
            let report = handle.drain();
            let mut got = report.sink.results;
            sort_results(&mut got);
            assert_eq!(got, canonical, "{workers}-worker churn");
        }
    }

    /// The whole churn schedule is validated when the pipeline spawns.
    #[test]
    fn churn_schedule_is_validated_at_spawn() {
        let (reg, queries, _) = setup();
        let dup = queries[0].clone();
        let err = Pipeline::builder(reg.clone(), queries.clone())
            .churn_at(vec![(Ts(5), ChurnOp::Add(dup))])
            .spawn(ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(matches!(err, Some(EngineError::Churn(_))), "{err:?}");
        let err = Pipeline::builder(reg, queries)
            .churn_at(vec![(Ts(5), ChurnOp::Remove(QueryId(77)))])
            .spawn(ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(matches!(err, Some(EngineError::Churn(_))), "{err:?}");
    }

    /// A source fed over a channel, so a test controls exactly when the
    /// ingest loop can make progress.
    struct ChannelSource(mpsc::Receiver<Event>);

    impl Source for ChannelSource {
        fn next_event(&mut self) -> Option<Event> {
            self.0.recv().ok()
        }
    }

    /// Live `add_query`/`remove_query` on a running pipeline: acks carry
    /// monotone epochs, invalid ops are rejected without disturbing the
    /// workload, no window is emitted twice, and the pipeline keeps
    /// producing for the new workload after each barrier.
    #[test]
    fn live_churn_applies_between_source_events() {
        let (reg, queries, _) = setup();
        let a = reg.type_id("A").unwrap();
        let b = reg.type_id("B").unwrap();
        let c = reg.type_id("C").unwrap();
        // Captures only `Copy` ids, so the closure itself is `Copy` and
        // each feeder thread gets its own.
        let mk = move |t: u64| {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)])
        };
        for workers in [1u32, 4] {
            let (tx_ev, rx_ev) = mpsc::channel::<Event>();
            for t in 0..150 {
                tx_ev.send(mk(t)).unwrap();
            }
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .batch(16)
                .spawn(ChannelSource(rx_ev), VecSink::new())
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !(handle.metrics().ingested == 150 && handle.metrics().queued() == 0) {
                assert!(Instant::now() < deadline, "prefix never drained");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(handle.metrics().epoch, 0);

            // Feed slowly from here: the churn barrier falls between two
            // source events, and pending ops are applied at the next one.
            let done = Arc::new(AtomicBool::new(false));
            let done_feeder = done.clone();
            let feeder = std::thread::spawn(move || {
                for t in 150..20_000u64 {
                    if done_feeder.load(Ordering::Relaxed) {
                        break;
                    }
                    if tx_ev.send(mk(t)).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            assert_eq!(handle.add_query(third_query(&reg)).unwrap(), 1);
            assert!(
                matches!(
                    handle.add_query(queries[0].clone()),
                    Err(PipelineChurnError::Rejected(ChurnError::Duplicate(
                        QueryId(1)
                    )))
                ),
                "duplicate id must be rejected"
            );
            assert!(
                matches!(
                    handle.remove_query(QueryId(77)),
                    Err(PipelineChurnError::Rejected(ChurnError::Unknown(QueryId(
                        77
                    ))))
                ),
                "unknown id must be rejected"
            );
            assert_eq!(handle.remove_query(QueryId(2)).unwrap(), 2);
            assert_eq!(handle.metrics().epoch, 2);
            // Let the post-churn workload run long enough to close
            // windows of the added query, then cut the stream.
            let target = handle.metrics().ingested + 60;
            while handle.metrics().ingested < target {
                assert!(Instant::now() < deadline, "post-churn stream stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Relaxed);
            feeder.join().unwrap();
            // The feeder hung up: once ingest observes the end of the
            // stream, churn can no longer be applied.
            while !handle.metrics().source_done {
                assert!(Instant::now() < deadline, "source never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                matches!(
                    handle.remove_query(QueryId(1)),
                    Err(PipelineChurnError::Stopped)
                ),
                "churn after the stream ended must report Stopped"
            );
            let report = handle.drain();

            // Per the churn contract: q1's group is restructured when q3
            // (same pattern) joins it, so a q1 window in flight at that
            // barrier may split into a drained prefix + post-barrier
            // suffix (two rows). q2 (removed, solo group) and q3 (added)
            // windows must appear exactly once.
            let mut mult = std::collections::BTreeMap::new();
            for r in &report.sink.results {
                *mult
                    .entry((r.query, format!("{}", r.group_key), r.window_start))
                    .or_insert(0u32) += 1;
            }
            for ((q, key, start), n) in &mult {
                let cap = if *q == QueryId(1) { 2 } else { 1 };
                assert!(
                    *n <= cap,
                    "window emitted {n} times (cap {cap}): {q:?} {key} {start:?}"
                );
            }
            let max_start = |qid: QueryId| {
                report
                    .sink
                    .results
                    .iter()
                    .filter(|r| r.query == qid)
                    .map(|r| r.window_start)
                    .max()
            };
            let q2_last = max_start(QueryId(2)).expect("q2 ran before its removal");
            let q3_last = max_start(QueryId(3)).expect("the added query must produce");
            assert!(
                q3_last > q2_last,
                "q2 must stop at its removal barrier (last {q2_last:?}) while q3 continues (last {q3_last:?})"
            );
            assert_eq!(report.results, report.sink.results.len() as u64);
        }
    }

    /// Cadence cuts on a live pipeline: an in-order stream with slack 0
    /// cuts at exact released counts, so the store's chain is
    /// deterministic. The cuts must not perturb the output, the chain
    /// must be base + contiguous deltas, and `resume_from` after a
    /// mid-delta-interval kill (the stream ends 10 events past the last
    /// cut) must emit exactly the uninterrupted run's suffix.
    #[test]
    fn cadence_cuts_resume_from_store_match_uninterrupted() {
        let (reg, queries, events) = setup();
        let expected = offline(&reg, &queries, &events);
        let store = Arc::new(hamlet_core::MemStore::new());
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .checkpoint_store(store.clone())
            .checkpoint_every(60)
            .spawn(ReplaySource::new(events[..250].to_vec()), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert_eq!(
            report.sink.results,
            offline(&reg, &queries, &events[..250]),
            "cadence cuts perturbed the output"
        );
        let chain = store.load_chain().unwrap();
        assert_eq!(chain.len(), 4, "cadence cuts at released 60/120/180/240");
        assert!(!chain[0].is_delta(), "the first cut promotes to a base");
        assert!(chain[1..].iter().all(Checkpoint::is_delta));
        let tail = PipelineCheckpoint::from_bytes(chain[chain.len() - 1].as_bytes()).unwrap();
        assert_eq!(tail.events_pulled(), 240);

        // The kill: events 240..250 were processed but never cut. The
        // resumed run replays from the last cut and emits exactly what
        // the uninterrupted run emits after stream position 240.
        let mut oracle =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut pre = 0;
        for e in &events[..240] {
            pre += oracle.process(e).len();
        }
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                store.as_ref(),
                ReplaySource::new(events[240..].to_vec()),
                VecSink::new(),
            )
            .unwrap();
        let report = resumed.drain();
        assert_eq!(
            report.sink.results,
            expected[pre..],
            "chain resume diverged"
        );
        assert_eq!(report.events, events.len() as u64, "counters continue");
    }

    /// `resume_from` over an empty store must fail loudly, and the
    /// cadence knob without a store must be rejected at spawn.
    #[test]
    fn store_misconfigurations_fail_loudly() {
        let (reg, queries, _) = setup();
        let store = hamlet_core::MemStore::new();
        let err = Pipeline::builder(reg.clone(), queries.clone())
            .resume_from(&store, ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(
            matches!(
                err,
                Some(ResumeError::Checkpoint(CheckpointError::Corrupt(_)))
            ),
            "{err:?}"
        );
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Pipeline::builder(reg, queries)
                .checkpoint_every(10)
                .spawn(ReplaySource::new(vec![]), NullSink)
        }));
        assert!(res.is_err(), "checkpoint_every without a store must panic");
    }

    /// On-demand `Snapshot::cut` on a live handle: the cut lands at a
    /// barrier between source events, is appended to the store on top of
    /// any cadence cuts, and the pipeline keeps running afterwards.
    #[test]
    fn live_cut_appends_to_store_and_pipeline_continues() {
        let (reg, queries, _) = setup();
        let a = reg.type_id("A").unwrap();
        let b = reg.type_id("B").unwrap();
        let c = reg.type_id("C").unwrap();
        let mk = move |t: u64| {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            Event::new(Ts(t), ty, vec![AttrValue::Int((t % 7) as i64)])
        };
        let total = 400u64;
        let (tx_ev, rx_ev) = mpsc::channel::<Event>();
        for t in 0..150 {
            tx_ev.send(mk(t)).unwrap();
        }
        let store = Arc::new(hamlet_core::MemStore::new());
        let mut handle = Pipeline::builder(reg.clone(), queries.clone())
            .checkpoint_store(store.clone())
            .checkpoint_every(100)
            .spawn(ChannelSource(rx_ev), VecSink::new())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().ingested == 150 && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "prefix never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Feed slowly so the cut barrier falls between source events.
        let done = Arc::new(AtomicBool::new(false));
        let done_feeder = done.clone();
        let feeder = std::thread::spawn(move || {
            for t in 150..total {
                if done_feeder.load(Ordering::Relaxed) {
                    break;
                }
                if tx_ev.send(mk(t)).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let ck = handle.cut(hamlet_core::CutKind::Delta).unwrap();
        assert!(ck.epoch() == 0 && !ck.as_bytes().is_empty());
        let cursor = PipelineCheckpoint::from_bytes(ck.as_bytes())
            .unwrap()
            .events_pulled();
        assert!(cursor >= 150, "the cut covers at least the fast prefix");
        let chain = store.load_chain().unwrap();
        assert_eq!(
            chain[chain.len() - 1].as_bytes(),
            ck.as_bytes(),
            "the on-demand cut is the store's newest record"
        );
        let m = handle.metrics();
        assert!(m.checkpoints >= 2, "cadence cut at 100 plus the live cut");
        assert_eq!(m.checkpoint_failures, 0);
        assert!(m.checkpoint_bytes > 0);
        done.store(true, Ordering::Relaxed);
        feeder.join().unwrap();
        let report = handle.drain();
        assert!(report.events >= cursor, "pipeline kept running after cut");

        // Recovery from the chain: replay everything past the cursor and
        // compare against the uninterrupted run's suffix.
        let fed: Vec<Event> = (0..report.events).map(mk).collect();
        let expected = offline(&reg, &queries, &fed);
        let mut oracle =
            HamletEngine::new(reg.clone(), queries.clone(), EngineConfig::default()).unwrap();
        let mut pre = 0;
        for e in &fed[..cursor as usize] {
            pre += oracle.process(e).len();
        }
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                store.as_ref(),
                ReplaySource::new(fed[cursor as usize..].to_vec()),
                VecSink::new(),
            )
            .unwrap();
        let report = resumed.drain();
        assert_eq!(
            report.sink.results,
            expected[pre..],
            "live-cut resume diverged"
        );
    }

    /// A resumed pipeline's elapsed time continues from the checkpoint
    /// instead of restarting at zero — the regression that made
    /// `ingest_eps()` overreport after every resume.
    #[test]
    fn resumed_pipeline_reports_accumulated_elapsed() {
        let (reg, queries, events) = setup();
        let cut = events.len() / 2;
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        // Hold the pipeline open long enough that the banked time
        // dominates clock granularity.
        std::thread::sleep(Duration::from_millis(20));
        let frozen = handle.checkpoint();
        let banked = frozen.checkpoint.elapsed();
        assert!(banked >= Duration::from_millis(20), "banked {banked:?}");
        assert_eq!(frozen.wall, banked);
        let blob = frozen.checkpoint.to_bytes();
        let restored = PipelineCheckpoint::from_bytes(&blob).unwrap();
        assert_eq!(restored.elapsed(), banked, "elapsed survives the codec");
        let resumed = Pipeline::builder(reg, queries)
            .resume_from(
                &store_of(&restored),
                ReplaySource::new(events[cut..].to_vec()),
                frozen.sink,
            )
            .unwrap();
        let snap = resumed.metrics();
        assert!(
            snap.elapsed >= banked,
            "resumed elapsed {:?} lost the banked {banked:?}",
            snap.elapsed
        );
        let report = resumed.drain();
        assert!(
            report.wall >= banked,
            "report wall restarted: {:?}",
            report.wall
        );
    }

    /// Tracing enabled: the drain report carries stage spans from both
    /// the ingest lane and worker lanes, the live exporters produce
    /// well-formed output, and ring memory stays bounded.
    #[test]
    fn traced_run_records_stage_spans() {
        let (reg, queries, events) = setup();
        let cap = 64;
        let handle = Pipeline::builder(reg, queries)
            .trace(cap)
            .batch(16)
            .spawn(ReplaySource::new(events), VecSink::new())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().source_done && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "stream never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let trace = handle.export_chrome_trace();
        assert!(trace.starts_with('{') && trace.ends_with("]}\n"));
        assert!(trace.contains("\"name\":\"process_batch\""));
        let prom = handle.export_prometheus();
        assert!(prom.contains("hamlet_ingested_total 300"));
        assert!(prom.contains("hamlet_group_events_routed_total{group="));
        let report = handle.drain();
        assert!(!report.spans.is_empty());
        let lanes: std::collections::BTreeSet<u32> = report.spans.iter().map(|s| s.lane).collect();
        assert!(lanes.contains(&0), "ingest lane must record");
        assert!(lanes.iter().any(|&l| l > 0), "worker lane must record");
        let stages: std::collections::BTreeSet<&str> =
            report.spans.iter().map(|s| s.stage.as_str()).collect();
        for want in [
            "ingest",
            "reorder_release",
            "route",
            "process_batch",
            "flush",
        ] {
            assert!(stages.contains(want), "missing stage {want}: {stages:?}");
        }
        // Bounded memory: 2 lanes (1 worker + ingest) x cap spans.
        assert!(
            report.spans.len() <= 2 * cap,
            "{} spans",
            report.spans.len()
        );
    }

    /// An untraced pipeline records nothing and exports an empty (but
    /// valid) trace.
    #[test]
    fn untraced_run_records_no_spans() {
        let (reg, queries, events) = setup();
        let handle = Pipeline::builder(reg, queries)
            .spawn(ReplaySource::new(events), VecSink::new())
            .unwrap();
        let report = handle.drain();
        assert!(report.spans.is_empty());
        assert_eq!(report.dropped_spans, 0);
    }

    /// Per-share-group metrics are identical however the stream is
    /// sharded: 1-worker and 4-worker runs of the same stream must agree
    /// counter for counter (the merge is order-insensitive).
    #[test]
    fn group_metrics_identical_across_worker_counts() {
        let (reg, queries, events) = setup();
        let run = |workers: u32| {
            let handle = Pipeline::builder(reg.clone(), queries.clone())
                .workers(workers)
                .batch(16)
                .spawn(ReplaySource::new(events.clone()), VecSink::new())
                .unwrap();
            handle.drain().group_metrics
        };
        let solo = run(1);
        let sharded = run(4);
        assert!(!solo.is_empty(), "obs is on by default");
        assert_eq!(solo.len(), sharded.len());
        for (a, b) in solo.iter().zip(sharded.iter()) {
            assert_eq!(a.sig, b.sig);
            assert_eq!(a.events_routed, b.events_routed, "group {}", a.sig_label());
            assert_eq!(a.runs_created, b.runs_created, "group {}", a.sig_label());
            assert_eq!(a.runs_expired, b.runs_expired, "group {}", a.sig_label());
            assert_eq!(a.shared_bursts, b.shared_bursts, "group {}", a.sig_label());
            assert_eq!(a.solo_bursts, b.solo_bursts, "group {}", a.sig_label());
            assert_eq!(
                a.graphlet_snapshots,
                b.graphlet_snapshots,
                "group {}",
                a.sig_label()
            );
            assert_eq!(
                a.event_snapshots,
                b.event_snapshots,
                "group {}",
                a.sig_label()
            );
            assert_eq!(
                a.results_emitted,
                b.results_emitted,
                "group {}",
                a.sig_label()
            );
        }
    }

    /// Churn bumps the workload epoch stamped into the pipeline's
    /// records; resuming adopts it, and resuming under the pre-churn
    /// workload is rejected.
    #[test]
    fn checkpoint_after_churn_resumes_with_epoch() {
        let (reg, queries, events) = setup();
        let schedule = vec![(Ts(99), ChurnOp::Add(third_query(&reg)))];
        let expected = offline_churned(&reg, &queries, &events, &schedule);
        let cut = 200;
        let handle = Pipeline::builder(reg.clone(), queries.clone())
            .churn_at(schedule)
            .spawn(ReplaySource::new(events[..cut].to_vec()), VecSink::new())
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(handle.metrics().source_done && handle.metrics().queued() == 0) {
            assert!(Instant::now() < deadline, "prefix never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.metrics().epoch, 1);
        let frozen = handle.checkpoint();
        let store = store_of(&frozen.checkpoint);
        assert_eq!(store.load_chain().unwrap()[0].epoch(), 1, "epoch stamped");

        let mut final_queries = queries.clone();
        final_queries.push(third_query(&reg));
        let resumed = Pipeline::builder(reg.clone(), final_queries)
            .resume_from(
                &store,
                ReplaySource::new(events[cut..].to_vec()),
                frozen.sink,
            )
            .unwrap();
        assert_eq!(resumed.metrics().epoch, 1, "resume adopts the blob epoch");
        let report = resumed.drain();
        assert_eq!(report.sink.results, expected, "churned resume diverged");

        // The pre-churn workload no longer matches the checkpoint.
        let err = Pipeline::builder(reg, queries)
            .resume_from(&store, ReplaySource::new(vec![]), NullSink)
            .err();
        assert!(
            matches!(
                err,
                Some(ResumeError::Checkpoint(CheckpointError::WorkloadMismatch(
                    _
                )))
            ),
            "{err:?}"
        );
    }
}
