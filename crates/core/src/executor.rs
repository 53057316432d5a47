//! The HAMLET executor (Fig. 2): stream partitioning, pane-aligned burst
//! buffering, per-window runs, optimizer invocation, and result emission.
//!
//! For each share group the executor partitions the stream by the group's
//! grouping/equivalence attributes (§2.2), tracks the window instances that
//! contain each event (`WITHIN`/`SLIDE`), buffers consecutive same-type
//! events into bursts bounded by pane boundaries (Def. 10), asks the
//! optimizer for a sharing decision per burst (§4.2), and feeds the burst
//! to the window's [`Run`]. When the watermark (event time) passes a
//! window's end, the run is finalized and one result per member query and
//! group-by key is emitted.

use crate::general::{self, CombineKind};
use crate::metrics::{LatencyRecorder, MemoryGauge};
use crate::optimizer::{decide, DivergenceEstimator, SharingPolicy};
use crate::run::{GroupRuntime, MemberOutput, Run, RunStats};
use crate::workload::{self, WorkloadError};
use hamlet_obs::{GroupMetrics, SpanRecorder, Stage};
use hamlet_query::{AggFunc, Query, QueryId, Window};
use hamlet_types::time::window_end;
use hamlet_types::{AttrValue, Event, GroupKey, Ts, TypeRegistry};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the optimizer obtains per-burst divergence counts (`sc`, §4.1).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum DivergenceMode {
    /// Pre-scan each burst's predicates exactly — O(k·b) per decision.
    Exact,
    /// Predict from exponential moving averages of past bursts — O(k) per
    /// decision, the paper's "locally available stream statistics" (§4.2).
    /// `alpha` is the EMA smoothing factor.
    Ema {
        /// Weight of the newest observation.
        alpha: f64,
    },
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Sharing policy (dynamic HAMLET, static always-share, or GRETA-style
    /// never-share).
    pub policy: SharingPolicy,
    /// Divergence statistics for dynamic decisions.
    pub divergence: DivergenceMode,
    /// Sample the byte-accounted state size every this many events
    /// (0 disables the memory gauge).
    pub mem_sample_every: u64,
    /// Track per-result latency with wall-clock arrival stamps.
    pub track_latency: bool,
    /// Shared-nothing sharding: `(index, total)` makes this engine own
    /// only the partitions whose key hashes to `index` — each shard of a
    /// [`crate::parallel::ParallelEngine`] or a pipeline worker is one.
    /// `None` owns all.
    pub shard: Option<(u32, u32)>,
    /// Maintain the per-share-group observability registry
    /// ([`HamletEngine::group_metrics`]): live counters per group plus
    /// the Def. 12 benefit priced at placement. Off, `group_metrics()`
    /// is empty and the per-group counter sites vanish (the
    /// `fig_obs` sweep prices the difference; it is budgeted ≤ 3%).
    pub obs: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: SharingPolicy::Dynamic,
            divergence: DivergenceMode::Exact,
            mem_sample_every: 256,
            track_latency: true,
            shard: None,
            obs: true,
        }
    }
}

/// A rendered aggregation value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggValue {
    /// `COUNT(*)` / `COUNT(E)` result (ring-valued, wraps at 2⁶⁴ like the
    /// reference implementation's `long`).
    Count(u64),
    /// `SUM` / `AVG` / `MIN` / `MAX` result.
    Float(f64),
    /// No value (e.g. `MIN` over an empty trend set).
    Null,
}

impl AggValue {
    /// Numeric view (Null → 0, counts as f64).
    pub fn as_f64(&self) -> f64 {
        match self {
            AggValue::Count(c) => *c as f64,
            AggValue::Float(f) => *f,
            AggValue::Null => 0.0,
        }
    }

    /// Count view (panics on floats — intended for `COUNT` queries).
    pub fn as_count(&self) -> u64 {
        match self {
            AggValue::Count(c) => *c,
            AggValue::Null => 0,
            AggValue::Float(_) => panic!("float aggregate read as count"),
        }
    }
}

/// One aggregation result: query × group-by key × window instance.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowResult {
    /// The (original) query that produced the result.
    pub query: QueryId,
    /// Group-by / equivalence key of the partition.
    pub group_key: GroupKey,
    /// Window instance start.
    pub window_start: Ts,
    /// The aggregate.
    pub value: AggValue,
}

/// Engine construction errors.
#[derive(Debug)]
pub enum EngineError {
    /// Workload analysis failed.
    Workload(WorkloadError),
    /// A general (`OR`/`AND`) query could not be decomposed.
    General(QueryId, general::GeneralError),
    /// Unsupported clause combination.
    Unsupported(String),
    /// A churn schedule (timestamped add/remove ops validated up front,
    /// e.g. a pipeline churn script) is invalid against the workload it
    /// evolves.
    Churn(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Workload(e) => write!(f, "workload analysis: {e}"),
            EngineError::General(q, e) => write!(f, "query {q:?}: {e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Churn(m) => write!(f, "churn schedule: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Aggregated executor statistics (feeds §6.2's figures).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Accumulated run counters (snapshots, graphlets, merges, splits …).
    pub runs: RunStats,
    /// Optimizer decisions taken.
    pub decisions: u64,
    /// Total wall time spent deciding (§6.2 reports < 0.2% of latency).
    pub decision_time: Duration,
    /// Window results emitted.
    pub windows_emitted: u64,
    /// Events accepted by at least one group.
    pub events_routed: u64,
    /// Entries pushed into the watermark expiration index (= runs
    /// created; each live run is indexed exactly once).
    pub expiry_pushes: u64,
    /// Index entries popped whose run was already gone (lazy
    /// invalidation); stays 0 unless a run is drained out of band.
    pub expiry_tombstones: u64,
    /// Window-instance contributions skipped because the event arrived
    /// after its window instance had already been emitted (the engine's
    /// out-of-order safety net; stays 0 on in-order streams and behind
    /// a correctly-slacked pipeline reorder stage).
    pub late_skips: u64,
}

impl EngineStats {
    /// Accumulates another engine's counters, e.g. to aggregate the
    /// per-shard statistics of a [`crate::parallel::ParallelEngine`] into
    /// one workload-level view ([`crate::parallel::ParallelEngine::stats`]).
    pub fn merge(&mut self, o: &EngineStats) {
        self.runs.add(&o.runs);
        self.decisions += o.decisions;
        self.decision_time += o.decision_time;
        self.windows_emitted += o.windows_emitted;
        self.events_routed += o.events_routed;
        self.expiry_pushes += o.expiry_pushes;
        self.expiry_tombstones += o.expiry_tombstones;
        self.late_skips += o.late_skips;
    }

    /// Serializes the counters (checkpoint codec).
    pub(crate) fn encode(&self, e: &mut crate::checkpoint::Enc) {
        self.runs.encode(e);
        e.u64(self.decisions);
        e.duration(self.decision_time);
        e.u64(self.windows_emitted);
        e.u64(self.events_routed);
        e.u64(self.expiry_pushes);
        e.u64(self.expiry_tombstones);
        e.u64(self.late_skips);
    }

    /// Mirror of [`encode`](Self::encode).
    pub(crate) fn decode(
        d: &mut crate::checkpoint::Dec<'_>,
    ) -> Result<EngineStats, crate::checkpoint::CheckpointError> {
        Ok(EngineStats {
            runs: RunStats::decode(d)?,
            decisions: d.u64()?,
            decision_time: d.duration()?,
            windows_emitted: d.u64()?,
            events_routed: d.u64()?,
            expiry_pushes: d.u64()?,
            expiry_tombstones: d.u64()?,
            late_skips: d.u64()?,
        })
    }
}

/// Maps a partition key to its owning shard under `total`-way sharding —
/// the single hash both the engine's `EngineConfig::shard` filter and the
/// parallel router use, so they can never disagree.
pub(crate) fn shard_index(key: &GroupKey, total: u32) -> u32 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % total as u64) as u32
}

/// Sorts window results into the canonical order: ascending
/// `(window_start, query, group_key)`. Every
/// [`crate::parallel::ParallelEngine`] call returns its rows in this
/// order; applying it to the whole output of a sharded and of a
/// single-threaded run makes the two byte-comparable.
pub fn sort_results(results: &mut [WindowResult]) {
    results.sort_by(|a, b| {
        (a.window_start, a.query)
            .cmp(&(b.window_start, b.query))
            .then_with(|| a.group_key.total_cmp(&b.group_key))
    });
}

struct RunState {
    run: Run,
    burst_ty: Option<usize>,
    burst: Vec<Event>,
    /// Count-only tail of the pending burst: events buffered by the
    /// batched path for *uniform* groups ([`GroupRuntime::uniform_bursts`])
    /// carry no information beyond their number, so they are never
    /// materialized — the flush replays them with the closed-form burst
    /// advance. Both halves flush together as one burst (one decision).
    burst_extra: u64,
    burst_pane: u64,
    last_arrival: Option<Instant>,
}

impl RunState {
    fn new(rt: Arc<GroupRuntime>) -> RunState {
        RunState {
            run: Run::new(rt),
            burst_ty: None,
            burst: Vec::new(),
            burst_extra: 0,
            burst_pane: 0,
            last_arrival: None,
        }
    }
}

struct GroupExec {
    rt: Arc<GroupRuntime>,
    /// [`GroupRuntime::uniform_bursts`], checked once at build time: the
    /// batched path buffers this group's bursts as a bare count.
    uniform: bool,
    window: Window,
    pane: u64,
    partition_attrs: Vec<Arc<str>>,
    /// `partition_slots[type][attr_pos]` — the schema slot of each
    /// partition attribute, resolved once at build time so the hot path
    /// never does per-event attribute-name lookups (string compares).
    partition_slots: Vec<Vec<Option<usize>>>,
    partitions: HashMap<GroupKey, BTreeMap<u64, RunState>>,
    /// Stream statistics for O(k) dynamic decisions (shared across the
    /// group's partitions — divergence is a property of the stream).
    estimator: DivergenceEstimator,
}

impl GroupExec {
    /// Name-resolving reference form of the key computation; the batched
    /// path uses the slot-resolved [`partition_key_into`] instead.
    ///
    /// [`partition_key_into`]: Self::partition_key_into
    fn partition_key(&self, reg: &TypeRegistry, e: &Event) -> GroupKey {
        GroupKey(
            self.partition_attrs
                .iter()
                .map(|name| {
                    reg.attr_index(e.ty, name)
                        .and_then(|i| e.attr(i).cloned())
                        .unwrap_or(AttrValue::Int(0))
                })
                .collect(),
        )
    }

    /// Writes `e`'s partition key into `key` (cleared first) through the
    /// pre-resolved slots — equal to [`partition_key`](Self::partition_key)
    /// on every event, with no name lookups and no allocation beyond what
    /// `key` already owns.
    #[inline]
    fn partition_key_into(&self, e: &Event, key: &mut GroupKey) {
        key.0.clear();
        for slot in &self.partition_slots[e.ty.idx()] {
            key.0.push(match slot.and_then(|i| e.attr(i)) {
                Some(v) => v.clone(),
                None => AttrValue::Int(0),
            });
        }
    }
}

/// One live run in the watermark expiration index.
///
/// The engine keeps a min-heap of these ordered by `(end, start, group,
/// key)`: `emit_expired(wm)` pops exactly the runs whose window end has
/// passed `wm` — O(k log n) for k expirations — instead of scanning every
/// live partition of every group per event. An entry is pushed once per
/// run creation; if the run is gone by the time its entry surfaces (lazy
/// invalidation) the pop is a tombstone and is skipped.
struct ExpiryEntry {
    /// Window end (`start + within`, saturating — see [`window_end`]).
    end: u64,
    /// Window instance start.
    start: u64,
    /// Owning share group index.
    group: usize,
    /// Partition key within the group.
    key: GroupKey,
}

impl PartialEq for ExpiryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for ExpiryEntry {}

impl PartialOrd for ExpiryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExpiryEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.end, self.start, self.group)
            .cmp(&(other.end, other.start, other.group))
            .then_with(|| self.key.total_cmp(&other.key))
    }
}

/// Recycled `Event` attribute buffers for burst appends — the batch
/// scratch arena. Flushed bursts hand their events' attribute vectors
/// back here and subsequent appends reuse them, so steady-state burst
/// buffering allocates nothing per event. Bounded so a burst storm cannot
/// pin memory forever; never serialized (a restored engine starts empty
/// and refills from its first flushes).
struct EventArena {
    pool: Vec<Vec<AttrValue>>,
}

impl EventArena {
    /// Retention cap; beyond it, freed buffers fall through to the
    /// allocator as before.
    const MAX_POOLED: usize = 1 << 16;

    fn new() -> EventArena {
        EventArena { pool: Vec::new() }
    }

    /// Clones `e` for burst storage, reusing a pooled attribute buffer
    /// when one is available.
    #[inline]
    fn alloc_event(&mut self, e: &Event) -> Event {
        match self.pool.pop() {
            Some(mut attrs) => {
                attrs.clear();
                attrs.extend_from_slice(&e.attrs);
                Event {
                    time: e.time,
                    ty: e.ty,
                    attrs,
                }
            }
            None => e.clone(),
        }
    }

    /// Takes a flushed burst event's attribute buffer back into the pool.
    #[inline]
    fn recycle(&mut self, ev: Event) {
        if self.pool.len() < Self::MAX_POOLED && ev.attrs.capacity() > 0 {
            let mut attrs = ev.attrs;
            attrs.clear();
            self.pool.push(attrs);
        }
    }

    /// Byte footprint of the pooled buffers, reported by
    /// [`HamletEngine::state_bytes`].
    fn bytes(&self) -> usize {
        self.pool.capacity() * std::mem::size_of::<Vec<AttrValue>>()
            + self
                .pool
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<AttrValue>())
                .sum::<usize>()
    }
}

/// One key-grouped bucket of a batch segment: the events (by index into
/// the segment, with their local type) that one `(group, key)` partition
/// receives, in stream order.
struct Bucket {
    group: u32,
    key: GroupKey,
    /// `(segment index, local type)` per event.
    events: Vec<(u32, u32)>,
}

/// Reusable buffers of [`HamletEngine::process_batch`], kept on the
/// engine so steady-state batch processing performs no per-event
/// allocation. Pure scratch: cleared between segments, never serialized,
/// and holds no semantic state.
struct BatchScratch {
    /// Per key class (see [`HamletEngine::route`]): the key built for the
    /// current event, whether it has been built yet, and whether it
    /// passes the shard filter. Groups with identical partition-slot
    /// tables share one key computation (and one shard hash) per event
    /// instead of one per group.
    class_keys: Vec<GroupKey>,
    class_built: Vec<bool>,
    class_shard_ok: Vec<bool>,
    /// Per window class: whether this event already folded its earliest
    /// window end into the segment boundary.
    wnd_done: Vec<bool>,
    /// Per key class: map from partition key to *slot* — a row of
    /// per-group bucket indices in `slots` (stride = number of groups).
    /// One hash probe resolves the buckets of every group in the class.
    slot_of: Vec<HashMap<GroupKey, u32>>,
    /// Flat `slot × group → bucket index` table (`u32::MAX` = none yet).
    slots: Vec<u32>,
    /// Per key class: the previous event's key and its slot — bursty
    /// streams mostly repeat the key, skipping even the one hash probe.
    prev_keys: Vec<GroupKey>,
    prev_slot: Vec<u32>,
    /// Buckets of the current segment, in first-appearance order — a
    /// deterministic processing order, unlike hash iteration.
    buckets: Vec<Bucket>,
    /// Spare bucket-event vectors recycled between segments.
    spare: Vec<Vec<(u32, u32)>>,
    /// Window starts of the most recently looked-up event time.
    starts: Vec<Ts>,
    /// Per segment event: the watermark the fold would have seen at that
    /// event — the late-guard boundary (grouping reorders processing, so
    /// the guard must use each event's own fold-order watermark).
    wms: Vec<u64>,
}

impl BatchScratch {
    fn new(num_classes: usize, num_wnd_classes: usize) -> BatchScratch {
        BatchScratch {
            class_keys: (0..num_classes).map(|_| GroupKey(Vec::new())).collect(),
            class_built: vec![false; num_classes],
            class_shard_ok: vec![false; num_classes],
            wnd_done: vec![false; num_wnd_classes],
            slot_of: (0..num_classes).map(|_| HashMap::new()).collect(),
            slots: Vec::new(),
            prev_keys: (0..num_classes).map(|_| GroupKey(Vec::new())).collect(),
            prev_slot: vec![u32::MAX; num_classes],
            buckets: Vec::new(),
            spare: Vec::new(),
            starts: Vec::new(),
            wms: Vec::new(),
        }
    }
}

/// Identifies a decomposed general query's halves.
struct Combiner {
    orig: QueryId,
    kind: CombineKind,
    same_pattern: bool,
    left: QueryId,
    right: QueryId,
}

/// Everything [`HamletEngine::compile`] derives from a query list: the
/// share groups with their runtimes, the general-query combiners, and
/// the batched path's routing/class tables. Built identically by
/// [`HamletEngine::new`] and by runtime query churn, so a churned engine
/// and a fresh engine over the same final query set agree on every
/// compiled structure (and therefore on the workload fingerprint).
struct CompiledWorkload {
    groups: Vec<GroupExec>,
    combiners: Vec<Combiner>,
    sub_of: HashMap<QueryId, usize>,
    route: Vec<Vec<(u32, u32, u32, u32)>>,
    num_classes: usize,
    num_wnd_classes: usize,
}

/// One workload-churn operation: register or retire a query on a live
/// engine (see [`HamletEngine::add_query`] /
/// [`HamletEngine::remove_query`]).
#[derive(Clone, Debug)]
pub enum ChurnOp {
    /// Register a new query. Its id must be unused.
    Add(Query),
    /// Retire the query with this id.
    Remove(QueryId),
}

impl ChurnOp {
    /// Applies the op to a query list: appends the added query or drops
    /// the removed one. Fails with [`ChurnError::Duplicate`] /
    /// [`ChurnError::Unknown`] and leaves the list untouched when the id
    /// is already / not registered.
    pub fn apply_to(&self, queries: &mut Vec<Query>) -> Result<(), ChurnError> {
        match self {
            ChurnOp::Add(q) if queries.iter().any(|p| p.id == q.id) => {
                Err(ChurnError::Duplicate(q.id))
            }
            ChurnOp::Add(q) => {
                queries.push(q.clone());
                Ok(())
            }
            ChurnOp::Remove(id) if !queries.iter().any(|p| p.id == *id) => {
                Err(ChurnError::Unknown(*id))
            }
            ChurnOp::Remove(id) => {
                queries.retain(|p| p.id != *id);
                Ok(())
            }
        }
    }
}

/// Errors from runtime query churn. The engine is never left
/// half-churned: on any error the previous workload keeps running
/// untouched.
#[derive(Debug)]
pub enum ChurnError {
    /// `remove_query` named an id that is not registered (including a
    /// double remove).
    Unknown(QueryId),
    /// `add_query` re-used an id that is still registered.
    Duplicate(QueryId),
    /// The post-churn workload failed to compile (same errors as
    /// [`HamletEngine::new`]).
    Engine(EngineError),
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::Unknown(q) => write!(f, "no query with id {q:?} is registered"),
            ChurnError::Duplicate(q) => write!(f, "query id {q:?} is already registered"),
            ChurnError::Engine(e) => write!(f, "post-churn workload: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {}

/// Post-churn placement of one share group, with the Def. 12 benefit
/// model re-run against the group's current stream statistics (§4.1) —
/// the *a-priori* shared-vs-solo call for the new workload. Runtime
/// per-burst decisions still re-price continuously; this records what
/// the optimizer thinks at the churn barrier.
#[derive(Clone, Debug)]
pub struct GroupPlacement {
    /// Member (original) query ids.
    pub members: Vec<QueryId>,
    /// Whether the group carried live state over from before the churn
    /// (an untouched group) or started fresh (touched/rebuilt).
    pub carried_over: bool,
    /// Def. 12 benefit estimate for sharing this group's sharable burst
    /// processing (`NonShared − Shared`; positive favors sharing).
    /// Singleton groups have nothing to share and report 0.
    pub benefit: f64,
    /// The placement decision implied by `benefit` and the group size:
    /// `true` = execute shared (HAMLET graphlets), `false` = solo
    /// (GRETA-style per-query processing).
    pub shared: bool,
}

/// What a successful [`HamletEngine::add_query`] /
/// [`HamletEngine::remove_query`] hands back.
#[derive(Debug)]
pub struct ChurnReport {
    /// Results of in-flight windows that belonged to *touched* share
    /// groups, drained at the churn barrier in the canonical
    /// `(window_start, group, key)` order. Untouched groups keep their
    /// in-flight state and are not represented here.
    pub drained: Vec<WindowResult>,
    /// Share groups whose member set was unchanged: their live runs,
    /// partitions, and learned divergence statistics carried over.
    pub groups_carried: usize,
    /// Share groups that were created or restructured by the churn and
    /// start empty (their prior in-flight windows are in `drained`).
    pub groups_rebuilt: usize,
    /// Per-group placement after re-running the benefit model.
    pub placements: Vec<GroupPlacement>,
    /// The engine's workload epoch after the churn (monotone; stamped
    /// into every subsequent checkpoint).
    pub epoch: u64,
}

/// One buffered general-query half, as keyed in `HamletEngine::pending`:
/// the `(combiner index, group, window start)` slot plus the sub-query that
/// arrived first and its trend count.
type PendingHalf = ((usize, GroupKey, u64), (QueryId, u64));

/// Decoded-but-not-applied content of one record's engine payload:
/// per-group partition removals/upserts plus the full scalar tail (a
/// base is the same shape with no removals). Staged so a chain restore
/// can decode every record before committing any.
struct DeltaStage {
    /// Parallel to `HamletEngine::groups`.
    groups: Vec<GroupDeltaStage>,
    pending_removals: Vec<(usize, GroupKey, u64)>,
    pending_upserts: Vec<PendingHalf>,
    stats: EngineStats,
    latency: LatencyRecorder,
    gauge: MemoryGauge,
    event_counter: u64,
    watermark: Option<Ts>,
    obs: Vec<[u64; 8]>,
}

/// One group's slice of a [`DeltaStage`]: partitions that vanished
/// since the parent cut, partitions re-encoded wholesale because they
/// were (possibly) touched, and the group's full divergence estimator
/// (small, so deltas always carry it rather than diffing it).
struct GroupDeltaStage {
    removals: Vec<GroupKey>,
    upserts: Vec<(GroupKey, BTreeMap<u64, RunState>)>,
    estimator: DivergenceEstimator,
}

/// A whole live chain decoded for one engine (see
/// [`HamletEngine::stage_chain`]): the chain's workload epoch, the tip's
/// seq, and one stage per record, base first.
pub(crate) struct StagedChain {
    epoch: u64,
    seq: u64,
    stages: Vec<DeltaStage>,
}

/// The multi-query trend aggregation engine (§2.2).
pub struct HamletEngine {
    reg: Arc<TypeRegistry>,
    cfg: EngineConfig,
    groups: Vec<GroupExec>,
    combiners: Vec<Combiner>,
    /// sub-query id → combiner index.
    sub_of: HashMap<QueryId, usize>,
    /// (combiner, key, window) → the half that arrived first.
    pending: HashMap<(usize, GroupKey, u64), (QueryId, u64)>,
    /// Watermark expiration index: min-heap over the window ends of every
    /// live run, across all groups (see [`ExpiryEntry`]).
    expiry: BinaryHeap<Reverse<ExpiryEntry>>,
    /// Test-only oracle switch: route expiry through the old full
    /// partition scan instead of the index (kept as the reference the
    /// property tests compare the heap path against).
    #[cfg(test)]
    scan_expiry: bool,
    stats: EngineStats,
    latency: LatencyRecorder,
    gauge: MemoryGauge,
    /// Reusable batch-path buffers (see [`BatchScratch`]).
    scratch: BatchScratch,
    /// `route[type]` — the `(group, local type, key class, window class)`
    /// rows of every group the type is local to, so the batched scan only
    /// touches matching groups. Key classes number groups with identical
    /// partition-slot tables (one class = one key build per event);
    /// window classes additionally fold in the window, deduplicating the
    /// segment-boundary computation.
    route: Vec<Vec<(u32, u32, u32, u32)>>,
    /// Recycled burst-event attribute buffers (see [`EventArena`]).
    arena: EventArena,
    event_counter: u64,
    /// Monotone event-time watermark: the maximum event timestamp seen.
    /// Expiry only ever advances with it, so a window instance that was
    /// emitted stays emitted — late contributions to it are skipped (and
    /// counted in [`EngineStats::late_skips`]) instead of resurrecting
    /// the window and double-emitting it at flush.
    watermark: Option<Ts>,
    /// Per-share-group observability registry (`cfg.obs`): one
    /// [`GroupMetrics`] per group, parallel to `groups`. Empty when
    /// disabled, so every counter site is a single `get_mut` miss.
    obs: Vec<GroupMetrics>,
    /// Attached stage-span recorder and the lane to record on
    /// (`None` = spans off; see [`Self::attach_span_recorder`]).
    span: Option<(Arc<SpanRecorder>, u32)>,
    /// The original (pre-decomposition) query set, kept so runtime churn
    /// can recompile the workload from scratch.
    queries: Vec<Query>,
    /// Workload epoch: 0 at construction, +1 per successful churn.
    /// Stamped into checkpoint records; a chain restore adopts it, and
    /// stores refuse a delta cut at a different epoch than its chain.
    epoch: u64,
    /// Partitions possibly touched since the last chain cut, as
    /// `(group index, key)`. At cut time a touched key still present is
    /// re-encoded wholesale (upsert); an absent one becomes a removal.
    dirty_parts: HashSet<(usize, GroupKey)>,
    /// Pending general-query half slots possibly touched since the last
    /// cut (same present/absent → upsert/removal rule).
    dirty_pending: HashSet<(usize, GroupKey, u64)>,
    /// Sequence number of the last chain record cut from this engine
    /// (0 = never cut; the first cut is always a base).
    cut_seq: u64,
    /// Dirty tracking is off until the first [`Self::cut_record`], so
    /// engines that never cut pay nothing for the chain machinery.
    track_dirty: bool,
    /// Set when state jumped without going through the dirty log
    /// (runtime churn): the next delta cut is silently promoted to a
    /// base.
    delta_unsound: bool,
}

impl HamletEngine {
    /// Compiles a workload and builds the engine (§3.1 pre-processing).
    pub fn new(
        reg: Arc<TypeRegistry>,
        queries: Vec<Query>,
        cfg: EngineConfig,
    ) -> Result<HamletEngine, EngineError> {
        let compiled = Self::compile(&reg, &queries, &cfg)?;
        let mut eng = HamletEngine {
            reg,
            cfg,
            groups: compiled.groups,
            combiners: compiled.combiners,
            sub_of: compiled.sub_of,
            pending: HashMap::new(),
            expiry: BinaryHeap::new(),
            #[cfg(test)]
            scan_expiry: false,
            stats: EngineStats::default(),
            latency: LatencyRecorder::new(),
            gauge: MemoryGauge::new(),
            scratch: BatchScratch::new(compiled.num_classes, compiled.num_wnd_classes),
            route: compiled.route,
            arena: EventArena::new(),
            obs: Vec::new(),
            span: None,
            event_counter: 0,
            watermark: None,
            queries,
            epoch: 0,
            dirty_parts: HashSet::new(),
            dirty_pending: HashSet::new(),
            cut_seq: 0,
            track_dirty: false,
            delta_unsound: false,
        };
        if eng.cfg.obs {
            eng.obs = eng.build_obs();
        }
        Ok(eng)
    }

    /// Builds the per-group observability registry for the current
    /// compiled workload, pricing each group's Def. 12 benefit and
    /// sharing decision exactly as a churn barrier would
    /// ([`Self::placement_for`]); counters start at zero.
    fn build_obs(&self) -> Vec<GroupMetrics> {
        let sigs = Self::group_sigs(&self.groups, &self.sub_of, &self.combiners);
        self.groups
            .iter()
            .zip(sigs)
            .enumerate()
            .map(|(gi, (g, sig))| {
                let p = self.placement_for(g, false);
                let mut m = GroupMetrics::new(gi as u32, sig);
                m.shared = p.shared;
                m.benefit = p.benefit;
                m
            })
            .collect()
    }

    /// Compiles a query list into executable share groups: decomposes
    /// general patterns, clusters by sharability, builds the per-group
    /// runtimes and the batched path's routing tables. Deterministic in
    /// the query list, so churn and `new` agree structure-for-structure.
    fn compile(
        reg: &Arc<TypeRegistry>,
        queries: &[Query],
        cfg: &EngineConfig,
    ) -> Result<CompiledWorkload, EngineError> {
        let mut next_id = queries.iter().map(|q| q.id.0 + 1).max().unwrap_or(0);
        let mut simple: Vec<Arc<Query>> = Vec::new();
        let mut combiners = Vec::new();
        let mut sub_of = HashMap::new();
        for q in queries {
            if !q.pattern.negated_types().is_empty()
                && matches!(q.agg, AggFunc::Min(..) | AggFunc::Max(..))
            {
                return Err(EngineError::Unsupported(format!(
                    "query {:?}: MIN/MAX with negation (lattice values cannot be \
                     un-blocked; see DESIGN.md)",
                    q.id
                )));
            }
            match general::decompose(q, QueryId(next_id), QueryId(next_id + 1))
                .map_err(|e| EngineError::General(q.id, e))?
            {
                Some(d) => {
                    let ci = combiners.len();
                    sub_of.insert(d.left.id, ci);
                    sub_of.insert(d.right.id, ci);
                    combiners.push(Combiner {
                        orig: q.id,
                        kind: d.kind,
                        same_pattern: d.same_pattern,
                        left: d.left.id,
                        right: d.right.id,
                    });
                    simple.push(Arc::new(d.left));
                    simple.push(Arc::new(d.right));
                    next_id += 2;
                }
                None => simple.push(Arc::new(q.clone())),
            }
        }
        let plan = workload::analyze(&simple).map_err(EngineError::Workload)?;
        let groups = plan
            .groups
            .iter()
            .map(|g| {
                let pane = hamlet_types::time::gcd(g.window.within, g.window.slide);
                let rt = GroupRuntime::new(g);
                let alpha = match cfg.divergence {
                    DivergenceMode::Ema { alpha } => alpha,
                    DivergenceMode::Exact => 0.5,
                };
                let partition_slots = (0..reg.len())
                    .map(|t| {
                        let id = hamlet_types::EventTypeId(t as u16);
                        g.partition_attrs
                            .iter()
                            .map(|name| reg.attr_index(id, name))
                            .collect()
                    })
                    .collect();
                GroupExec {
                    estimator: DivergenceEstimator::new(rt.template.num_types(), rt.k(), alpha),
                    uniform: rt.uniform_bursts(),
                    rt,
                    window: g.window,
                    pane: pane.max(1),
                    partition_attrs: g.partition_attrs.clone(),
                    partition_slots,
                    partitions: HashMap::new(),
                }
            })
            .collect();
        let groups: Vec<GroupExec> = groups;
        // Key classes: one per distinct partition-slot table.
        let mut class_reps: Vec<usize> = Vec::new();
        let class_of: Vec<u32> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                match class_reps
                    .iter()
                    .position(|&r| groups[r].partition_slots == g.partition_slots)
                {
                    Some(i) => i as u32,
                    None => {
                        class_reps.push(gi);
                        (class_reps.len() - 1) as u32
                    }
                }
            })
            .collect();
        // Window classes: one per distinct (window, key class) pair — the
        // segment-boundary fold is identical within a class, so the scan
        // computes it once per event.
        let mut wnd_reps: Vec<(u64, u64, u32)> = Vec::new();
        let wnd_of: Vec<u32> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let sig = (g.window.within, g.window.slide, class_of[gi]);
                match wnd_reps.iter().position(|&r| r == sig) {
                    Some(i) => i as u32,
                    None => {
                        wnd_reps.push(sig);
                        (wnd_reps.len() - 1) as u32
                    }
                }
            })
            .collect();
        let route: Vec<Vec<(u32, u32, u32, u32)>> = (0..reg.len())
            .map(|t| {
                let id = hamlet_types::EventTypeId(t as u16);
                groups
                    .iter()
                    .enumerate()
                    .filter_map(|(gi, g)| {
                        g.rt.template
                            .local(id)
                            .map(|tl| (gi as u32, tl as u32, class_of[gi], wnd_of[gi]))
                    })
                    .collect()
            })
            .collect();
        let num_classes = class_reps.len().max(1);
        let num_wnd_classes = wnd_reps.len().max(1);
        Ok(CompiledWorkload {
            groups,
            combiners,
            sub_of,
            route,
            num_classes,
            num_wnd_classes,
        })
    }

    /// Number of share groups (singletons included).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Bitmask of the shards (under `total`-way sharding, `total` ≤ 64)
    /// that must see `e`: for each share group the event is local to, the
    /// bit of the shard owning its partition key is set. An event can
    /// carry different keys in different groups, so more than one bit may
    /// be set; an event no group accepts routes nowhere (empty mask).
    ///
    /// Uses the same hash as the `EngineConfig::shard` filter, so a
    /// sharded engine fed only the events whose mask covers its index
    /// computes exactly what it would from the full stream.
    pub fn shard_mask(&self, e: &Event, total: u32) -> u64 {
        assert!(
            (1..=64).contains(&total),
            "shard_mask needs 1..=64 shards, got {total}"
        );
        let full: u64 = if total == 64 {
            u64::MAX
        } else {
            (1u64 << total) - 1
        };
        let mut mask = 0u64;
        for g in &self.groups {
            if g.rt.template.local(e.ty).is_none() {
                continue;
            }
            let key = g.partition_key(&self.reg, e);
            mask |= 1u64 << shard_index(&key, total);
            if mask == full {
                break;
            }
        }
        mask
    }

    /// Processes one event; returns results of windows closed by the
    /// watermark advance.
    ///
    /// # Incremental feeding contract
    ///
    /// `process` may be called any number of times with any interleaving
    /// of event times; state is carried across calls, so feeding a stream
    /// event-by-event (online) produces exactly the same results as any
    /// batched feeding of the same sequence. The watermark is the maximum
    /// event time seen and only ever advances: an in-order stream closes
    /// each window exactly once, and an *out-of-order* event whose window
    /// instance already closed is skipped for that instance (counted in
    /// [`EngineStats::late_skips`]) rather than resurrecting it — the
    /// engine never emits the same `(query, key, window)` twice. Ordering
    /// within still-open windows is the caller's responsibility (the
    /// `hamlet-pipeline` reorder stage restores it up to a configured
    /// lateness bound).
    pub fn process(&mut self, e: &Event) -> Vec<WindowResult> {
        self.process_batch(std::slice::from_ref(e))
    }

    /// Processes a batch of events; returns the results of all windows
    /// the batch's watermark advances close, in the same order the
    /// per-event fold would emit them.
    ///
    /// Output and state evolution are **equal to folding
    /// [`process`](Self::process) over the batch** — batching is purely an
    /// execution strategy (this is asserted by the equivalence suite).
    /// The batch is cut into *expiry-quiet segments*: maximal stretches
    /// during which the running watermark stays below every pending
    /// window end, so no window can close mid-segment and the fold's
    /// per-event expiry drains are all no-ops. Within a segment events
    /// are grouped by `(share group, partition key)` and appended
    /// bucket-at-a-time, so each partition probe and run touch happens
    /// once per (segment, key) instead of once per event, with burst
    /// storage drawn from a reusable arena instead of per-event clones.
    /// The two observable deviations from the fold are timing-only: the
    /// memory gauge samples at segment (not event) granularity, and
    /// per-burst arrival stamps are taken once per segment.
    ///
    /// ```
    /// use hamlet_core::{EngineConfig, HamletEngine};
    /// use hamlet_query::parse_query;
    /// use hamlet_types::{EventBuilder, TypeRegistry};
    /// use std::sync::Arc;
    ///
    /// let mut reg = TypeRegistry::new();
    /// let a = reg.register("A", &[]);
    /// let b = reg.register("B", &[]);
    /// let reg = Arc::new(reg);
    /// let q = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
    /// let mk =
    ///     || HamletEngine::new(reg.clone(), vec![q.clone()], EngineConfig::default()).unwrap();
    /// let batch: Vec<_> = (0..40)
    ///     .map(|t| EventBuilder::new(&reg, if t % 4 == 0 { a } else { b }, t).build())
    ///     .collect();
    ///
    /// let (mut batched, mut folded) = (mk(), mk());
    /// let mut fast = batched.process_batch(&batch);
    /// fast.extend(batched.flush());
    /// let mut slow: Vec<_> = batch.iter().flat_map(|e| folded.process(e)).collect();
    /// slow.extend(folded.flush());
    /// assert_eq!(fast, slow); // batching never changes results
    /// ```
    pub fn process_batch(&mut self, events: &[Event]) -> Vec<WindowResult> {
        let batch_span = self.span.clone();
        let batch_t = batch_span.as_ref().map(|(rec, _)| rec.start());
        let mut out = Vec::new();
        let mut i = 0;
        while i < events.len() {
            // Segment head: advance the watermark and drain expiry
            // exactly as the fold does before routing an event. Monotone
            // watermark: an out-of-order event must not rewind expiry,
            // only (possibly) fail its own closed windows' guard.
            let head_wm = match self.watermark {
                Some(w) if w >= events[i].time => w,
                _ => events[i].time,
            };
            self.watermark = Some(head_wm);
            // Span only the drains that will actually pop something —
            // the per-segment no-op case stays a heap peek.
            let drain_span = if self.span.is_some()
                && self
                    .expiry
                    .peek()
                    .is_some_and(|Reverse(e)| e.end <= head_wm.ticks())
            {
                self.span.clone()
            } else {
                None
            };
            let drain_t = drain_span.as_ref().map(|(rec, _)| rec.start());
            let before = out.len();
            self.emit_expired(head_wm, &mut out);
            if let (Some((rec, lane)), Some(t)) = (drain_span, drain_t) {
                rec.record(
                    lane,
                    Stage::ExpiryDrain,
                    t,
                    Some(head_wm.ticks()),
                    (out.len() - before) as u64,
                );
            }
            i = self.process_segment(events, i, head_wm);
        }
        if let (Some((rec, lane)), Some(t)) = (batch_span, batch_t) {
            rec.record(
                lane,
                Stage::ProcessBatch,
                t,
                self.watermark.map(|w| w.ticks()),
                events.len() as u64,
            );
        }
        out
    }

    /// Consumes one expiry-quiet segment starting at `first` and returns
    /// the index of the first unconsumed event (see
    /// [`process_batch`](Self::process_batch) for the invariant).
    fn process_segment(&mut self, events: &[Event], first: usize, head_wm: Ts) -> usize {
        // hamlet-lint: allow(wallclock) -- latency stamp (only under track_latency); feeds the recorder, not results
        let now = self.cfg.track_latency.then(Instant::now);
        let policy = self.cfg.policy;
        let mode = self.cfg.divergence;
        let shard = self.cfg.shard;
        let BatchScratch {
            class_keys,
            class_built,
            class_shard_ok,
            wnd_done,
            slot_of,
            slots,
            prev_keys,
            prev_slot,
            buckets,
            spare,
            starts,
            wms,
        } = &mut self.scratch;

        // ---- Scan + bucket phase (fold order) --------------------------
        // The segment extends while the running watermark stays strictly
        // below every pending window end: the expiry heap's minimum plus
        // the earliest end any admitted event could create a run with.
        // Each event also records the watermark the fold would have seen
        // at it (`wms`) — grouping reorders processing, so the late guard
        // below must use each event's own fold-order watermark.
        debug_assert!(buckets.is_empty());
        wms.clear();
        let stride = self.groups.len();
        let mut min_end = match self.expiry.peek() {
            Some(Reverse(e)) => e.end,
            None => u64::MAX,
        };
        let mut wm = head_wm.ticks();
        let mut n_routed = 0u64;
        let mut j = first;
        while j < events.len() {
            let e = &events[j];
            let new_wm = wm.max(e.time.ticks());
            if j > first && new_wm >= min_end {
                break; // a window would close here — next segment
            }
            wm = new_wm;
            let mut routed = false;
            let entries = self.route.get(e.ty.idx()).map_or(&[][..], Vec::as_slice);
            if !entries.is_empty() {
                for b in class_built.iter_mut() {
                    *b = false;
                }
                for w in wnd_done.iter_mut() {
                    *w = false;
                }
            }
            for &(gi, tl, class, wnd) in entries {
                let (gi, ci, wi) = (gi as usize, class as usize, wnd as usize);
                let g = &self.groups[gi];
                if !class_built[ci] {
                    g.partition_key_into(e, &mut class_keys[ci]);
                    class_built[ci] = true;
                    let key = &class_keys[ci];
                    class_shard_ok[ci] = match shard {
                        Some((idx, total)) => shard_index(key, total) == idx,
                        None => true,
                    };
                    // Resolve the key's slot: previous event's key first
                    // (bursty streams repeat it), then one hash probe for
                    // every group in the class.
                    if class_shard_ok[ci] {
                        let sl = if prev_slot[ci] != u32::MAX && prev_keys[ci] == *key {
                            prev_slot[ci]
                        } else {
                            let sl = match slot_of[ci].get(key) {
                                Some(&sl) => sl,
                                None => {
                                    let sl = (slots.len() / stride) as u32;
                                    slot_of[ci].insert(key.clone(), sl);
                                    slots.resize(slots.len() + stride, u32::MAX);
                                    sl
                                }
                            };
                            prev_keys[ci].clone_from(key);
                            sl
                        };
                        prev_slot[ci] = sl;
                    }
                }
                if !class_shard_ok[ci] {
                    continue;
                }
                routed = true;
                // Any run this event creates ends no earlier than its
                // earliest containing instance (instances yield starts
                // ascending, so the first has the smallest end) — folded
                // into the segment boundary once per window class.
                if !wnd_done[wi] {
                    wnd_done[wi] = true;
                    if let Some(s) = g.window.instances_containing(e.time).next() {
                        min_end = min_end.min(window_end(s.ticks(), g.window.within));
                    }
                }
                let cell = prev_slot[ci] as usize * stride + gi;
                let mut bi = slots[cell];
                if bi == u32::MAX {
                    bi = buckets.len() as u32;
                    slots[cell] = bi;
                    buckets.push(Bucket {
                        group: gi as u32,
                        key: class_keys[ci].clone(),
                        events: spare.pop().unwrap_or_default(),
                    });
                }
                buckets[bi as usize].events.push(((j - first) as u32, tl));
            }
            if routed {
                n_routed += 1;
            }
            wms.push(wm);
            j += 1;
        }
        self.watermark = Some(Ts(wm));
        let seg = &events[first..j];

        // ---- Processing phase (first-appearance bucket order) ----------
        for mut b in buckets.drain(..) {
            let gi = b.group as usize;
            if let Some(m) = self.obs.get_mut(gi) {
                m.events_routed += b.events.len() as u64;
            }
            if self.track_dirty {
                self.dirty_parts.insert((gi, b.key.clone()));
            }
            let g = &mut self.groups[gi];
            let window = g.window;
            let within = window.within;
            let pane = g.pane;
            let uniform = g.uniform;
            // One partition probe per (segment, key); only a first-seen
            // key pays the clone into the map.
            if !g.partitions.contains_key(&b.key) {
                g.partitions.insert(b.key.clone(), BTreeMap::new());
            }
            // hamlet-lint: allow(panic-hygiene) -- get_mut right after contains_key/insert of the same key; entry() would clone the key on every probe
            let runs = g.partitions.get_mut(&b.key).expect("inserted above");
            let mut late_skipped = false;
            let mut last_time: Option<u64> = None;
            // Watermark at the segment tail — if a window's end beats it,
            // no event in the segment is late for that window.
            let seg_wm = wms.last().copied().unwrap_or(0);
            // Consecutive events that agree on type-local, pane, and
            // window-instance set form a *range*: one run-map probe, one
            // flush check, and one expiry push cover the whole range, so
            // the per-event work shrinks to the burst append itself.
            let nb = b.events.len();
            let mut idx = 0;
            while idx < nb {
                let (si0, tl) = b.events[idx];
                let e0 = &seg[si0 as usize];
                let tl = tl as usize;
                let t0 = e0.time.ticks();
                let pane_idx = t0 / pane;
                if last_time != Some(t0) {
                    starts.clear();
                    starts.extend(window.instances_containing(e0.time));
                    last_time = Some(t0);
                }
                let mut end_idx = idx + 1;
                while end_idx < nb {
                    let (sj, tlj) = b.events[end_idx];
                    if tlj as usize != tl {
                        break;
                    }
                    let tj = seg[sj as usize].time.ticks();
                    if tj != t0 {
                        if tj / pane != pane_idx {
                            break;
                        }
                        // Same pane but a different tick: join only if the
                        // instance set is unchanged.
                        let mut k = 0;
                        let mut same = true;
                        for s in window.instances_containing(Ts(tj)) {
                            if k >= starts.len() || starts[k] != s {
                                same = false;
                                break;
                            }
                            k += 1;
                        }
                        if !same || k != starts.len() {
                            break;
                        }
                    }
                    end_idx += 1;
                }
                let range = &b.events[idx..end_idx];
                for &start in starts.iter() {
                    let end = window_end(start.ticks(), within);
                    // The fold's late-event guard against each event's own
                    // watermark (see `process_reference`). `wms` is
                    // monotone over the segment, so the range splits into
                    // an on-time prefix and a late suffix.
                    let split = if end > seg_wm {
                        range.len()
                    } else {
                        range.partition_point(|&(sj, _)| end > wms[sj as usize])
                    };
                    if split < range.len() {
                        self.stats.late_skips += (range.len() - split) as u64;
                        late_skipped = true;
                    }
                    if split == 0 {
                        continue;
                    }
                    let rs = match runs.entry(start.ticks()) {
                        std::collections::btree_map::Entry::Occupied(o) => o.into_mut(),
                        std::collections::btree_map::Entry::Vacant(v) => {
                            // New run: index its expiration once (see
                            // `process_reference`).
                            self.expiry.push(Reverse(ExpiryEntry {
                                end,
                                start: start.ticks(),
                                group: gi,
                                key: b.key.clone(),
                            }));
                            self.stats.expiry_pushes += 1;
                            if let Some(m) = self.obs.get_mut(gi) {
                                m.runs_created += 1;
                            }
                            v.insert(RunState::new(g.rt.clone()))
                        }
                    };
                    if rs.burst_ty != Some(tl) || rs.burst_pane != pane_idx {
                        flush_burst(
                            rs,
                            policy,
                            mode,
                            &mut g.estimator,
                            &mut self.stats,
                            &mut self.arena,
                        );
                    }
                    rs.burst_ty = Some(tl);
                    rs.burst_pane = pane_idx;
                    if uniform {
                        // Uniform group: the burst is its length — no
                        // event clones, no per-event pushes.
                        rs.burst_extra += split as u64;
                    } else {
                        for &(sj, _) in &range[..split] {
                            rs.burst.push(self.arena.alloc_event(&seg[sj as usize]));
                        }
                    }
                    if let Some(now) = now {
                        rs.last_arrival = Some(now);
                    }
                }
                idx = end_idx;
            }
            // A first-seen key whose every window instance was late would
            // leave an empty run map behind — drop it, it holds no state.
            if late_skipped && runs.is_empty() {
                g.partitions.remove(&b.key);
            }
            b.events.clear();
            spare.push(b.events);
        }
        for m in slot_of.iter_mut() {
            m.clear();
        }
        slots.clear();
        for p in prev_slot.iter_mut() {
            *p = u32::MAX;
        }

        self.stats.events_routed += n_routed;
        let m = self.cfg.mem_sample_every;
        let before = self.event_counter;
        self.event_counter += seg.len() as u64;
        // One gauge sample per crossed sampling interval, segment-batched.
        let crossed = matches!(
            (self.event_counter.checked_div(m), before.checked_div(m)),
            (Some(a), Some(b)) if a > b
        );
        if crossed {
            let bytes = self.live_state_bytes();
            self.gauge.sample(bytes);
        }
        j
    }

    /// The pre-batching per-event implementation, kept verbatim as the
    /// reference: the equivalence suite asserts
    /// [`process_batch`](Self::process_batch) matches a fold of this, and
    /// the `fig_batch` sweep measures the batched path's speedup against
    /// it (the `perf_gate --min-batch-speedup` denominator). Shares all
    /// engine state with the batched path, so the two may be interleaved
    /// freely.
    pub fn process_reference(&mut self, e: &Event) -> Vec<WindowResult> {
        // hamlet-lint: allow(wallclock) -- latency stamp (only under track_latency); feeds the recorder, not results
        let now = self.cfg.track_latency.then(Instant::now);
        let mut out = Vec::new();
        // Monotone watermark: an out-of-order event must not rewind
        // expiry, only (possibly) fail its own closed windows' guard.
        let wm = match self.watermark {
            Some(w) if w >= e.time => w,
            _ => {
                self.watermark = Some(e.time);
                e.time
            }
        };
        self.emit_expired(wm, &mut out);

        let mut routed = false;
        let reg = self.reg.clone();
        let policy = self.cfg.policy;
        for gi in 0..self.groups.len() {
            let Some(tl) = self.groups[gi].rt.template.local(e.ty) else {
                continue;
            };
            let key = self.groups[gi].partition_key(&reg, e);
            if let Some((idx, total)) = self.cfg.shard {
                if shard_index(&key, total) != idx {
                    continue;
                }
            }
            routed = true;
            if let Some(m) = self.obs.get_mut(gi) {
                m.events_routed += 1;
            }
            if self.track_dirty {
                self.dirty_parts.insert((gi, key.clone()));
            }
            let (window, pane, rt) = {
                let g = &self.groups[gi];
                (g.window, g.pane, g.rt.clone())
            };
            let pane_idx = e.time.ticks() / pane;
            let starts: Vec<Ts> = window.instances_containing(e.time).collect();
            let mode = self.cfg.divergence;
            let g = &mut self.groups[gi];
            let within = g.window.within;
            // Zero-clone hit path: only a first-seen key pays the clone
            // into the map (new-run heap pushes below clone either way).
            if !g.partitions.contains_key(&key) {
                g.partitions.insert(key.clone(), BTreeMap::new());
            }
            // hamlet-lint: allow(panic-hygiene) -- get_mut right after contains_key/insert of the same key; entry() would clone the key on every probe
            let runs = g.partitions.get_mut(&key).expect("inserted above");
            let mut late_skipped = false;
            for start in starts {
                // Late-event guard: this window instance was already
                // emitted (its end is at or behind the watermark), so the
                // contribution is dropped — re-creating the run would
                // double-emit the window at the next flush. Never fires
                // on in-order streams (a window containing `e` ends after
                // `e.time` = watermark).
                if window_end(start.ticks(), within) <= wm.ticks() {
                    self.stats.late_skips += 1;
                    late_skipped = true;
                    continue;
                }
                let rs = match runs.entry(start.ticks()) {
                    std::collections::btree_map::Entry::Occupied(o) => o.into_mut(),
                    std::collections::btree_map::Entry::Vacant(v) => {
                        // New run: index its expiration once. Re-touching
                        // an existing (key, start) takes the occupied arm,
                        // so the heap never holds duplicate live entries.
                        self.expiry.push(Reverse(ExpiryEntry {
                            end: window_end(start.ticks(), within),
                            start: start.ticks(),
                            group: gi,
                            key: key.clone(),
                        }));
                        self.stats.expiry_pushes += 1;
                        if let Some(m) = self.obs.get_mut(gi) {
                            m.runs_created += 1;
                        }
                        v.insert(RunState::new(rt.clone()))
                    }
                };
                if rs.burst_ty != Some(tl) || rs.burst_pane != pane_idx {
                    flush_burst(
                        rs,
                        policy,
                        mode,
                        &mut g.estimator,
                        &mut self.stats,
                        &mut self.arena,
                    );
                }
                rs.burst_ty = Some(tl);
                rs.burst_pane = pane_idx;
                rs.burst.push(e.clone());
                if let Some(now) = now {
                    rs.last_arrival = Some(now);
                }
            }
            // A first-seen key whose every window instance was late would
            // leave an empty run map behind — drop it, it holds no state.
            // Guarded by the late path so in-order streams (the hot case)
            // never pay the extra map probe.
            if late_skipped && g.partitions.get(&key).is_some_and(|r| r.is_empty()) {
                g.partitions.remove(&key);
            }
        }
        if routed {
            self.stats.events_routed += 1;
        }
        self.event_counter += 1;
        if self.cfg.mem_sample_every > 0
            && self.event_counter.is_multiple_of(self.cfg.mem_sample_every)
        {
            let bytes = self.live_state_bytes();
            self.gauge.sample(bytes);
        }
        out
    }

    /// Emits every window whose end has passed the watermark.
    ///
    /// Pops the expiration index instead of scanning live partitions:
    /// O(k log n) for k expirations, O(1) when nothing expires — the
    /// common per-event case. Emission follows the defined total order
    /// `(window_start, group, key)`, so single-threaded output is
    /// deterministic by construction (the same order
    /// [`sort_results`] / [`crate::parallel::ParallelEngine`] guarantee
    /// within one window instance).
    fn emit_expired(&mut self, watermark: Ts, out: &mut Vec<WindowResult>) {
        #[cfg(test)]
        if self.scan_expiry {
            self.emit_expired_scan(watermark, out);
            return;
        }
        let wm = watermark.ticks();
        let mut finished: Vec<(usize, GroupKey, u64, RunState)> = Vec::new();
        while self.expiry.peek().is_some_and(|Reverse(e)| e.end <= wm) {
            let Some(Reverse(e)) = self.expiry.pop() else {
                break;
            };
            let g = &mut self.groups[e.group];
            // Lazy invalidation: skip entries whose run is already gone.
            let Some(runs) = g.partitions.get_mut(&e.key) else {
                self.stats.expiry_tombstones += 1;
                continue;
            };
            let Some(rs) = runs.remove(&e.start) else {
                self.stats.expiry_tombstones += 1;
                continue;
            };
            if runs.is_empty() {
                g.partitions.remove(&e.key);
            }
            if self.track_dirty {
                self.dirty_parts.insert((e.group, e.key.clone()));
            }
            finished.push((e.group, e.key, e.start, rs));
        }
        self.finalize_finished(finished, out);
    }

    /// Reference implementation of expiry selection: the pre-index full
    /// scan over every live partition of every group (O(P) per call).
    /// Kept only as the oracle the property tests compare the indexed
    /// path against — emission goes through the same
    /// [`finalize_finished`](Self::finalize_finished), so any divergence
    /// is in *which* runs expire, the property under test.
    #[cfg(test)]
    fn emit_expired_scan(&mut self, watermark: Ts, out: &mut Vec<WindowResult>) {
        let mut finished: Vec<(usize, GroupKey, u64, RunState)> = Vec::new();
        for gi in 0..self.groups.len() {
            let within = self.groups[gi].window.within;
            for (key, runs) in self.groups[gi].partitions.iter_mut() {
                while let Some((&start, _)) = runs.first_key_value() {
                    if window_end(start, within) <= watermark.ticks() {
                        let rs = runs.remove(&start).expect("first key exists");
                        if self.track_dirty {
                            self.dirty_parts.insert((gi, key.clone()));
                        }
                        finished.push((gi, key.clone(), start, rs));
                    } else {
                        break;
                    }
                }
            }
            self.groups[gi]
                .partitions
                .retain(|_, runs| !runs.is_empty());
        }
        self.finalize_finished(finished, out);
    }

    /// Finalizes a batch of expired runs and emits their results in the
    /// defined total order `(window_start, group, key)`.
    fn finalize_finished(
        &mut self,
        mut finished: Vec<(usize, GroupKey, u64, RunState)>,
        out: &mut Vec<WindowResult>,
    ) {
        finished.sort_by(|a, b| {
            (a.2, a.0)
                .cmp(&(b.2, b.0))
                .then_with(|| a.1.total_cmp(&b.1))
        });
        let policy = self.cfg.policy;
        let mode = self.cfg.divergence;
        for (gi, key, start, mut rs) in finished {
            flush_burst(
                &mut rs,
                policy,
                mode,
                &mut self.groups[gi].estimator,
                &mut self.stats,
                &mut self.arena,
            );
            let outputs = rs.run.finalize();
            self.stats.runs.add(rs.run.stats());
            if let Some(m) = self.obs.get_mut(gi) {
                let s = rs.run.stats();
                m.runs_expired += 1;
                m.shared_bursts += s.shared_bursts;
                m.solo_bursts += s.solo_bursts;
                m.graphlet_snapshots += s.graphlet_snapshots;
                m.event_snapshots += s.event_snapshots;
            }
            if let Some(arr) = rs.last_arrival {
                self.latency.record(arr.elapsed());
            }
            self.emit_run(gi, &key, start, &outputs, out);
        }
    }

    /// Test-only: route expiry through the full-scan oracle instead of
    /// the index (see [`emit_expired_scan`](Self::emit_expired_scan)).
    #[cfg(test)]
    fn set_scan_expiry(&mut self, on: bool) {
        self.scan_expiry = on;
    }

    fn emit_run(
        &mut self,
        gi: usize,
        key: &GroupKey,
        start: u64,
        outputs: &[MemberOutput],
        out: &mut Vec<WindowResult>,
    ) {
        let rt = self.groups[gi].rt.clone();
        for (qi, o) in outputs.iter().enumerate() {
            let q = &rt.queries[qi];
            if let Some(&ci) = self.sub_of.get(&q.id) {
                // Half of a decomposed OR/AND query: combine when both
                // halves of the same (key, window) have arrived.
                let slot = (ci, key.clone(), start);
                if self.track_dirty {
                    self.dirty_pending.insert(slot.clone());
                }
                let count = o.raw.count.0;
                match self.pending.remove(&slot) {
                    None => {
                        self.pending.insert(slot, (q.id, count));
                    }
                    Some((other_id, other_count)) => {
                        let c = &self.combiners[ci];
                        let (c1, c2) = if other_id == c.left {
                            (other_count, count)
                        } else {
                            debug_assert_eq!(other_id, c.right);
                            (count, other_count)
                        };
                        let combined = general::combine(
                            c.kind,
                            hamlet_types::TrendVal(c1),
                            hamlet_types::TrendVal(c2),
                            c.same_pattern,
                        );
                        out.push(WindowResult {
                            query: c.orig,
                            group_key: key.clone(),
                            window_start: Ts(start),
                            value: AggValue::Count(combined.0),
                        });
                        self.stats.windows_emitted += 1;
                        // Attributed to the later-finalizing half's
                        // group: both halves of a (key, window) expire
                        // at the same watermark in canonical order, so
                        // the attribution is deterministic and
                        // shard-invariant.
                        if let Some(m) = self.obs.get_mut(gi) {
                            m.results_emitted += 1;
                        }
                    }
                }
                continue;
            }
            out.push(WindowResult {
                query: q.id,
                group_key: key.clone(),
                window_start: Ts(start),
                value: render(&q.agg, o),
            });
            self.stats.windows_emitted += 1;
            if let Some(m) = self.obs.get_mut(gi) {
                m.results_emitted += 1;
            }
        }
    }

    /// Event-time watermark: the maximum event timestamp processed so
    /// far (`None` before the first event). Windows whose end is at or
    /// behind it have been emitted and will never be emitted again.
    pub fn watermark(&self) -> Option<Ts> {
        self.watermark
    }

    /// Finalizes all in-flight windows (end of stream).
    ///
    /// # Flush contract
    ///
    /// `flush` behaves exactly like observing a watermark beyond every
    /// open window: every in-flight `(query, key, window)` emits once, in
    /// the canonical `(window_start, group, key)` order, and the engine's
    /// live state drains to empty. `process`+`flush` over a stream is
    /// therefore the offline reference the online pipeline's
    /// drain-on-shutdown is tested to be byte-identical against
    /// (`tests/pipeline_equivalence.rs`).
    ///
    /// The watermark advances to the end of time with the flush, so the
    /// no-double-emission guarantee survives it: events processed *after*
    /// a flush find every window instance already closed and are dropped
    /// as late ([`EngineStats::late_skips`]) instead of resurrecting and
    /// re-emitting windows the flush already emitted.
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let flush_span = self.span.clone();
        let flush_t = flush_span.as_ref().map(|(rec, _)| rec.start());
        let wm_before = self.watermark.map(|w| w.ticks());
        // Capture the end-of-stream state before draining it: short
        // streams (or small shards) may never hit a periodic sample, and
        // peak_memory() would otherwise read 0.
        if self.cfg.mem_sample_every > 0 {
            let bytes = self.live_state_bytes();
            self.gauge.sample(bytes);
        }
        let mut out = Vec::new();
        self.watermark = Some(Ts(u64::MAX));
        self.emit_expired(Ts(u64::MAX), &mut out);
        // Any unmatched general-query half emits with the other half = 0
        // (its branch matched nothing in that window). `pending` is a
        // HashMap, so impose the canonical (window_start, query, key)
        // order before emitting — end-of-stream output must not depend
        // on hash iteration order.
        if self.track_dirty {
            for slot in self.pending.keys() {
                self.dirty_pending.insert(slot.clone());
            }
        }
        let mut pending: Vec<_> = self.pending.drain().collect();
        pending.sort_by(|((ca, ka, sa), _), ((cb, kb, sb), _)| {
            (sa, self.combiners[*ca].orig)
                .cmp(&(sb, self.combiners[*cb].orig))
                .then_with(|| ka.total_cmp(kb))
        });
        for ((ci, key, start), (id, count)) in pending {
            let c = &self.combiners[ci];
            let (c1, c2) = if id == c.left { (count, 0) } else { (0, count) };
            let combined = general::combine(
                c.kind,
                hamlet_types::TrendVal(c1),
                hamlet_types::TrendVal(c2),
                c.same_pattern,
            );
            out.push(WindowResult {
                query: c.orig,
                group_key: key,
                window_start: Ts(start),
                value: AggValue::Count(combined.0),
            });
            self.stats.windows_emitted += 1;
            // Cold path: attribute the unmatched half to the group
            // that held it (linear group scan, once per orphan half).
            if let Some(gi) = self.group_of_sub(id) {
                if let Some(m) = self.obs.get_mut(gi) {
                    m.results_emitted += 1;
                }
            }
        }
        if let (Some((rec, lane)), Some(t)) = (flush_span, flush_t) {
            rec.record(lane, Stage::Flush, t, wm_before, out.len() as u64);
        }
        out
    }

    /// The group index holding (sub-)query `id`, if any. Linear scan —
    /// only used on cold paths (flush, churn orphan settlement).
    fn group_of_sub(&self, id: QueryId) -> Option<usize> {
        self.groups
            .iter()
            .position(|g| g.rt.queries.iter().any(|q| q.id == id))
    }

    /// Renders the compiled sharing plan: share groups, their members,
    /// windows, panes, aggregation skeletons, and the merged template's
    /// labeled transitions (Fig. 3(b)) with sharable Kleene types
    /// highlighted (Def. 4). Useful as an `EXPLAIN` for workloads.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "workload plan: {} share group(s)", self.groups.len());
        for (gi, g) in self.groups.iter().enumerate() {
            let tpl = &g.rt.template;
            let members: Vec<String> = g.rt.queries.iter().map(|q| format!("{}", q.id)).collect();
            let _ = writeln!(
                out,
                "group {gi}: members [{}], WITHIN {} SLIDE {} (pane {}), partition by [{}], skeleton {:?}",
                members.join(", "),
                g.window.within,
                g.window.slide,
                g.pane,
                g.partition_attrs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                g.rt.skeleton,
            );
            for (tl, ty) in tpl.types.iter().enumerate() {
                if tpl.sharable[tl] {
                    let _ = writeln!(
                        out,
                        "  sharable Kleene sub-pattern: {}+ (members {:?})",
                        self.reg.name(*ty),
                        tpl.self_loop[tl].iter().collect::<Vec<_>>(),
                    );
                }
            }
            for ((from, to), qs) in tpl.labeled_edges() {
                let _ = writeln!(
                    out,
                    "  {} -> {} [{}]",
                    self.reg.name(from),
                    self.reg.name(to),
                    qs.iter()
                        .map(|q| format!("{}", g.rt.queries[*q].id))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
            }
        }
        out
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Per-share-group observability registry: one [`GroupMetrics`] per
    /// compiled share group (parallel to the group order `explain`
    /// prints), with the Def. 12 benefit and sharing decision priced at
    /// placement and re-priced at each churn epoch. Empty when
    /// [`EngineConfig::obs`] is off.
    pub fn group_metrics(&self) -> &[GroupMetrics] {
        &self.obs
    }

    /// Attaches a stage-span recorder; the engine records
    /// [`Stage::ProcessBatch`] (one span per [`Self::process_batch`]
    /// call), [`Stage::ExpiryDrain`] (non-empty watermark drains), and
    /// [`Stage::Flush`] on `lane`. Pipeline workers attach their
    /// shard's engine at lane `1 + worker_index` (lane 0 is ingest).
    pub fn attach_span_recorder(&mut self, rec: Arc<SpanRecorder>, lane: u32) {
        self.span = Some((rec, lane));
    }

    /// Per-result latency recorder.
    pub fn latency(&self) -> &LatencyRecorder {
        &self.latency
    }

    /// Peak byte-accounted state (§6.1 memory metric).
    pub fn peak_memory(&self) -> usize {
        self.gauge.peak()
    }

    /// Current byte-accounted state across all live runs, buffers, the
    /// watermark expiration index, and the batch scratch arena's pooled
    /// buffers.
    ///
    /// The memory gauge (peak-memory metric, §6.1) samples the internal
    /// `live_state_bytes` (everything but the arena) instead: the arena is
    /// path-dependent (it remembers how bursts happened to flush) and is
    /// not checkpointed, so including it would make gauge readings — and
    /// with them checkpoint bytes — differ between an uninterrupted run
    /// and a restored one.
    pub fn state_bytes(&self) -> usize {
        self.live_state_bytes() + self.arena.bytes()
    }

    /// Byte-accounted *serializable* state: live runs, burst buffers, and
    /// the watermark expiration index — everything a checkpoint carries.
    fn live_state_bytes(&self) -> usize {
        let mut b = 0;
        for g in &self.groups {
            // hamlet-lint: allow(unordered-iter) -- commutative sum (memory accounting)
            for runs in g.partitions.values() {
                for rs in runs.values() {
                    b += rs.run.mem_bytes();
                    b += rs.burst.iter().map(Event::mem_bytes).sum::<usize>();
                }
            }
        }
        for Reverse(e) in &self.expiry {
            b += std::mem::size_of::<ExpiryEntry>()
                + e.key.0.capacity() * std::mem::size_of::<AttrValue>();
        }
        b
    }

    /// Live entries in the watermark expiration index (= live runs, plus
    /// any not-yet-popped tombstones).
    pub fn expiry_index_len(&self) -> usize {
        self.expiry.len()
    }

    /// Workload fingerprint embedded in every checkpoint: the compiled
    /// shape a blob must match to be restorable — shard assignment, share
    /// groups (members, windows, panes, partition attributes) and
    /// general-query combiners. Two engines compiled from the same
    /// workload under the same sharding always agree on it.
    fn fingerprint(&self) -> Vec<u8> {
        let mut e = crate::checkpoint::Enc::new();
        match self.cfg.shard {
            None => e.some(false),
            Some((idx, total)) => {
                e.some(true);
                e.u32(idx);
                e.u32(total);
            }
        }
        e.usize(self.groups.len());
        for g in &self.groups {
            e.usize(g.rt.k());
            e.usize(g.rt.template.num_types());
            e.u64(g.window.within);
            e.u64(g.window.slide);
            e.u64(g.pane);
            e.usize(g.partition_attrs.len());
            for a in &g.partition_attrs {
                e.str(a);
            }
            for q in &g.rt.queries {
                e.u32(q.id.0);
            }
        }
        e.usize(self.combiners.len());
        for c in &self.combiners {
            e.u32(c.orig.0);
            e.u32(c.left.0);
            e.u32(c.right.0);
        }
        e.finish()
    }

    /// Rebuilds the state that is derived rather than serialized after
    /// any wholesale state swap: the watermark expiration index (exactly
    /// one entry per live run, as `process()` maintains) and the event
    /// arena (restored engines start with an empty pool so
    /// `state_bytes` matches a fresh engine's).
    fn rebuild_derived(&mut self) {
        self.expiry.clear();
        for (gi, g) in self.groups.iter().enumerate() {
            let within = g.window.within;
            // hamlet-lint: allow(unordered-iter) -- heap rebuild; expiry drains every due entry before finalize_finished sorts emissions canonically
            for (key, runs) in &g.partitions {
                for &start in runs.keys() {
                    self.expiry.push(Reverse(ExpiryEntry {
                        end: window_end(start, within),
                        start,
                        group: gi,
                        key: key.clone(),
                    }));
                }
            }
        }
        self.arena = EventArena::new();
    }

    /// True when the engine can cut a *sound* delta record: dirty
    /// tracking is armed (a chain cut or restore happened) and state has
    /// not jumped past the dirty log since (no churn).
    pub(crate) fn delta_ready(&self) -> bool {
        self.track_dirty && !self.delta_unsound && self.cut_seq > 0
    }

    /// Cuts the next record of this engine's checkpoint chain — a
    /// one-shard [`Frame`](crate::checkpoint::Frame) — and advances the
    /// dirty log. A `Full` cut (or any cut the engine cannot prove a
    /// sound delta for: the first cut, post-churn) encodes every
    /// partition and pending half as touched; a `Delta` cut encodes only
    /// those touched since the previous cut. Restore with
    /// [`crate::Snapshot::restore_chain`].
    pub(crate) fn cut_record(&mut self, kind: crate::store::CutKind) -> Vec<u8> {
        let base = !(matches!(kind, crate::store::CutKind::Delta) && self.delta_ready());
        let seq = self.cut_seq + 1;
        let parent = if base { 0 } else { self.cut_seq };
        let rec = crate::checkpoint::encode_single(base, seq, parent, self.epoch, |e| {
            self.encode_state(e, base)
        });
        self.cut_seq = seq;
        self.track_dirty = true;
        self.delta_unsound = false;
        self.dirty_parts.clear();
        self.dirty_pending.clear();
        rec
    }

    /// Encodes this engine's state payload: the workload fingerprint,
    /// per group the partitions to remove and those to upsert (each
    /// re-encoded wholesale) plus the divergence estimator, the pending
    /// general-query halves to remove and to upsert, and the scalar tail
    /// (stats, metrics, counters, watermark, observability). With `full`
    /// every partition and pending half counts as touched — a base is
    /// the delta from an empty engine; otherwise only the dirty log since
    /// the last cut does. Every list is written in canonical order, so
    /// the encoding is deterministic. The expiration index is not
    /// serialized: it is derivable and rebuilt on restore. Layout in
    /// `docs/checkpoint-format.md`; mirrored by
    /// [`decode_state`](Self::decode_state).
    fn encode_state(&self, e: &mut crate::checkpoint::Enc, full: bool) {
        let mut removals: Vec<Vec<&GroupKey>> = vec![Vec::new(); self.groups.len()];
        let mut upserts: Vec<Vec<(&GroupKey, &BTreeMap<u64, RunState>)>> =
            vec![Vec::new(); self.groups.len()];
        let mut prem: Vec<&(usize, GroupKey, u64)> = Vec::new();
        // Borrowed halves of `pending` entries, `(&key, &value)`.
        let mut pups = Vec::new();
        if full {
            for (ups, g) in upserts.iter_mut().zip(&self.groups) {
                // hamlet-lint: allow(unordered-iter) -- collected here, sorted canonically below before encoding
                ups.extend(&g.partitions);
            }
            // hamlet-lint: allow(unordered-iter) -- collected here, sorted canonically below before encoding
            pups.extend(&self.pending);
        } else {
            // A touched key still present is re-encoded wholesale, a
            // vanished one becomes a removal.
            // hamlet-lint: allow(unordered-iter) -- split per group here, sorted canonically below before encoding
            for (gi, key) in &self.dirty_parts {
                match self.groups[*gi].partitions.get(key) {
                    Some(runs) => upserts[*gi].push((key, runs)),
                    None => removals[*gi].push(key),
                }
            }
            // hamlet-lint: allow(unordered-iter) -- split here, sorted canonically below before encoding
            for slot in &self.dirty_pending {
                match self.pending.get_key_value(slot) {
                    Some(kv) => pups.push(kv),
                    None => prem.push(slot),
                }
            }
        }
        for v in &mut removals {
            v.sort_by(|a, b| a.total_cmp(b));
        }
        for v in &mut upserts {
            v.sort_by(|(a, _), (b, _)| a.total_cmp(b));
        }
        prem.sort_by(|(ca, ka, sa), (cb, kb, sb)| {
            (ca, sa).cmp(&(cb, sb)).then_with(|| ka.total_cmp(kb))
        });
        pups.sort_by(|((ca, ka, sa), _), ((cb, kb, sb), _)| {
            (ca, sa).cmp(&(cb, sb)).then_with(|| ka.total_cmp(kb))
        });

        e.bytes(&self.fingerprint());
        e.usize(self.groups.len());
        for (g, (rem, ups)) in self.groups.iter().zip(removals.into_iter().zip(upserts)) {
            e.usize(rem.len());
            for key in rem {
                e.group_key(key);
            }
            e.usize(ups.len());
            for (key, runs) in ups {
                e.group_key(key);
                e.usize(runs.len());
                for (&start, rs) in runs {
                    e.u64(start);
                    rs.run.encode(e);
                    match rs.burst_ty {
                        None => e.some(false),
                        Some(tl) => {
                            e.some(true);
                            e.usize(tl);
                        }
                    }
                    e.usize(rs.burst.len());
                    for ev in &rs.burst {
                        e.event(ev);
                    }
                    e.u64(rs.burst_extra);
                    e.u64(rs.burst_pane);
                }
            }
            g.estimator.encode(e);
        }
        e.usize(prem.len());
        for (ci, key, start) in prem {
            e.usize(*ci);
            e.group_key(key);
            e.u64(*start);
        }
        e.usize(pups.len());
        for ((ci, key, start), (id, count)) in pups {
            e.usize(*ci);
            e.group_key(key);
            e.u64(*start);
            e.u32(id.0);
            e.u64(*count);
        }
        self.stats.encode(e);
        self.latency.encode(e);
        self.gauge.encode(e);
        e.u64(self.event_counter);
        match self.watermark {
            None => e.some(false),
            Some(wm) => {
                e.some(true);
                e.u64(wm.ticks());
            }
        }
        // Per-share-group observability counters (placement fields are
        // *not* serialized — benefit/shared are re-priced by the
        // restoring engine's own build/churn, keeping round-trip identity
        // independent of estimator drift).
        e.usize(self.obs.len());
        for m in &self.obs {
            // Fixed 8-slot layout, mirrored by decode_state's counter loop.
            for c in [
                m.events_routed,
                m.runs_created,
                m.runs_expired,
                m.shared_bursts,
                m.solo_bursts,
                m.graphlet_snapshots,
                m.event_snapshots,
                m.results_emitted,
            ] {
                e.u64(c);
            }
        }
    }

    /// Decodes one state payload into a [`DeltaStage`] without touching
    /// engine state, validated against this engine's workload
    /// fingerprint and bounds. Mirror of
    /// [`encode_state`](Self::encode_state).
    fn decode_state(
        &self,
        d: &mut crate::checkpoint::Dec,
    ) -> Result<DeltaStage, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let fp = d.bytes()?;
        if fp != self.fingerprint() {
            return Err(CheckpointError::WorkloadMismatch(
                "compiled workload, sharding, or combiners differ from the checkpoint".into(),
            ));
        }
        let n_groups = d.seq_len()?;
        if n_groups != self.groups.len() {
            return Err(CheckpointError::WorkloadMismatch(format!(
                "{n_groups} groups in checkpoint, {} compiled",
                self.groups.len()
            )));
        }
        let mut groups = Vec::with_capacity(n_groups);
        for g in &self.groups {
            let n_rem = d.seq_len()?;
            let mut removals = Vec::with_capacity(n_rem);
            for _ in 0..n_rem {
                removals.push(d.group_key()?);
            }
            let n_ups = d.seq_len()?;
            let mut upserts = Vec::with_capacity(n_ups);
            for _ in 0..n_ups {
                let key = d.group_key()?;
                let n_runs = d.seq_len()?;
                let mut runs = BTreeMap::new();
                for _ in 0..n_runs {
                    let start = d.u64()?;
                    let run = Run::decode(d, g.rt.clone())?;
                    let burst_ty = if d.some()? {
                        let tl = d.usize()?;
                        if tl >= g.rt.template.num_types() {
                            return Err(CheckpointError::Corrupt(format!(
                                "burst type {tl} of {}",
                                g.rt.template.num_types()
                            )));
                        }
                        Some(tl)
                    } else {
                        None
                    };
                    let n_burst = d.seq_len()?;
                    let mut burst = Vec::with_capacity(n_burst);
                    for _ in 0..n_burst {
                        burst.push(d.event()?);
                    }
                    let burst_extra = d.u64()?;
                    let burst_pane = d.u64()?;
                    runs.insert(
                        start,
                        RunState {
                            run,
                            burst_ty,
                            burst,
                            burst_extra,
                            burst_pane,
                            // Wall-clock stamps do not survive a restore;
                            // the next arrival re-stamps the run.
                            last_arrival: None,
                        },
                    );
                }
                upserts.push((key, runs));
            }
            let estimator = DivergenceEstimator::decode(d, g.rt.template.num_types(), g.rt.k())?;
            groups.push(GroupDeltaStage {
                removals,
                upserts,
                estimator,
            });
        }
        let n_prem = d.seq_len()?;
        let mut pending_removals = Vec::with_capacity(n_prem);
        for _ in 0..n_prem {
            let ci = d.usize()?;
            if ci >= self.combiners.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "pending combiner index {ci} out of range"
                )));
            }
            let key = d.group_key()?;
            let start = d.u64()?;
            pending_removals.push((ci, key, start));
        }
        let n_pups = d.seq_len()?;
        let mut pending_upserts = Vec::with_capacity(n_pups);
        for _ in 0..n_pups {
            let ci = d.usize()?;
            if ci >= self.combiners.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "pending combiner index {ci} out of range"
                )));
            }
            let key = d.group_key()?;
            let start = d.u64()?;
            let id = QueryId(d.u32()?);
            let count = d.u64()?;
            pending_upserts.push(((ci, key, start), (id, count)));
        }
        let stats = EngineStats::decode(d)?;
        let latency = LatencyRecorder::decode(d)?;
        let gauge = MemoryGauge::decode(d)?;
        let event_counter = d.u64()?;
        let watermark = if d.some()? { Some(Ts(d.u64()?)) } else { None };
        // Payloads from obs-disabled engines write length 0 and restore
        // with zeroed counters.
        let n_obs = d.seq_len()?;
        if n_obs != 0 && n_obs != self.groups.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{n_obs} observability records for {} groups",
                self.groups.len()
            )));
        }
        let mut obs = Vec::with_capacity(n_obs);
        for _ in 0..n_obs {
            let mut c = [0u64; 8];
            for slot in &mut c {
                *slot = d.u64()?;
            }
            obs.push(c);
        }
        d.expect_end()?;
        Ok(DeltaStage {
            groups,
            pending_removals,
            pending_upserts,
            stats,
            latency,
            gauge,
            event_counter,
            watermark,
            obs,
        })
    }

    /// Applies one staged payload on top of the current state — onto an
    /// emptied engine when `base`. Pure state mutation: all validation
    /// happened in [`decode_state`](Self::decode_state). Derived state
    /// (expiry index, arena) is rebuilt once by the caller after the
    /// last record.
    fn apply_state(&mut self, s: DeltaStage, base: bool) {
        for (g, gs) in self.groups.iter_mut().zip(s.groups) {
            if base {
                g.partitions = HashMap::with_capacity(gs.upserts.len());
            }
            for key in gs.removals {
                g.partitions.remove(&key);
            }
            g.partitions.extend(gs.upserts);
            g.estimator = gs.estimator;
        }
        if base {
            self.pending = HashMap::with_capacity(s.pending_upserts.len());
        }
        for slot in s.pending_removals {
            self.pending.remove(&slot);
        }
        self.pending.extend(s.pending_upserts);
        self.stats = s.stats;
        self.latency = s.latency;
        self.gauge = s.gauge;
        self.event_counter = s.event_counter;
        self.watermark = s.watermark;
        // Replace the per-group counters wholesale; placement fields keep
        // what this engine priced at build/churn.
        for (gi, m) in self.obs.iter_mut().enumerate() {
            let c = s.obs.get(gi).copied().unwrap_or_default();
            m.events_routed = c[0];
            m.runs_created = c[1];
            m.runs_expired = c[2];
            m.shared_bursts = c[3];
            m.solo_bursts = c[4];
            m.graphlet_snapshots = c[5];
            m.event_snapshots = c[6];
            m.results_emitted = c[7];
        }
    }

    /// Decodes this engine's payload from every record of a validated
    /// live chain (base first, as [`crate::store`] hands it over)
    /// without committing anything. A sharded engine
    /// (`EngineConfig::shard` = `(i, n)`) reads payload `i` of
    /// `n`-shard records; an unsharded one reads the only payload.
    pub(crate) fn stage_chain(
        &self,
        frames: &[crate::checkpoint::Frame<'_>],
    ) -> Result<StagedChain, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::{CheckpointError, Dec};
        let (idx, total) = self.cfg.shard.unwrap_or((0, 1));
        let mut stages = Vec::with_capacity(frames.len());
        for f in frames {
            if f.shards.len() != total as usize {
                return Err(CheckpointError::WorkloadMismatch(format!(
                    "record holds {} shard payload(s), this engine is shard {idx} of {total}",
                    f.shards.len()
                )));
            }
            stages.push(self.decode_state(&mut Dec::new(f.shards[idx as usize]))?);
        }
        let (Some(first), Some(last)) = (frames.first(), frames.last()) else {
            return Err(CheckpointError::Corrupt("empty checkpoint chain".into()));
        };
        Ok(StagedChain {
            epoch: first.epoch,
            seq: last.seq,
            stages,
        })
    }

    /// Commits a [`stage_chain`](Self::stage_chain) result: adopts the
    /// chain's workload epoch, applies the base onto an emptied engine
    /// and each delta in order, rebuilds derived state once, and arms a
    /// fresh dirty log so the next delta cut extends the chain.
    pub(crate) fn commit_chain(&mut self, staged: StagedChain) {
        self.epoch = staged.epoch;
        for (i, s) in staged.stages.into_iter().enumerate() {
            self.apply_state(s, i == 0);
        }
        self.rebuild_derived();
        self.cut_seq = staged.seq;
        self.track_dirty = true;
        self.delta_unsound = false;
        self.dirty_parts.clear();
        self.dirty_pending.clear();
    }

    /// The engine's workload epoch: 0 at construction, +1 per successful
    /// [`add_query`](Self::add_query) / [`remove_query`](Self::remove_query).
    /// Every checkpoint record is stamped with it, and a chain restore
    /// adopts the chain's.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The registered (original, pre-decomposition) query set.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Registers a query on the live engine (see the churn contract on
    /// [`remove_query`](Self::remove_query)).
    ///
    /// Only the share groups the new query restructures are rebuilt;
    /// every other group keeps its in-flight runs and learned statistics.
    /// The Def. 12 benefit model is re-run for the post-churn workload
    /// ([`ChurnReport::placements`]). Fails with
    /// [`ChurnError::Duplicate`] if the id is already registered, or
    /// [`ChurnError::Engine`] if the resulting workload does not compile;
    /// on any error the engine is untouched.
    ///
    /// ```
    /// use hamlet_core::{EngineConfig, HamletEngine};
    /// use hamlet_query::{parse_query, QueryId};
    /// use hamlet_types::{EventBuilder, TypeRegistry};
    /// use std::sync::Arc;
    ///
    /// let mut reg = TypeRegistry::new();
    /// let a = reg.register("A", &[]);
    /// let b = reg.register("B", &[]);
    /// let reg = Arc::new(reg);
    /// let q1 = parse_query(&reg, 1, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 10").unwrap();
    /// let q2 = parse_query(&reg, 2, "RETURN COUNT(*) PATTERN SEQ(A, B+) WITHIN 20").unwrap();
    /// let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
    ///
    /// eng.process(&EventBuilder::new(&reg, a, 0).build());
    /// let report = eng.add_query(q2).unwrap(); // churn barrier
    /// assert_eq!(report.epoch, 1);
    /// assert_eq!(eng.queries().len(), 2);
    /// let report = eng.remove_query(QueryId(2)).unwrap();
    /// assert_eq!(report.epoch, 2);
    /// ```
    pub fn add_query(&mut self, q: Query) -> Result<ChurnReport, ChurnError> {
        self.churn(ChurnOp::Add(q))
    }

    /// Retires a query from the live engine.
    ///
    /// # Churn contract
    ///
    /// Churn applies at a *watermark barrier*: the stream between two
    /// `process` calls. Share groups whose member set is unchanged carry
    /// all in-flight state over — their output is byte-identical to never
    /// having churned. Groups the churn touches (created, dissolved, or
    /// re-clustered) drain at the barrier: their in-flight windows emit
    /// immediately with the data seen so far ([`ChurnReport::drained`],
    /// canonical `(window_start, group, key)` order), and — for queries
    /// that remain registered — the window re-opens for post-barrier
    /// events, so nothing is silently dropped. A removed query's windows
    /// thus appear exactly once (the drain); a surviving re-grouped
    /// query's mid-flight windows appear as a drained prefix plus a
    /// regular suffix emission.
    ///
    /// Fails with [`ChurnError::Unknown`] on an unregistered id (double
    /// removes included); the engine is untouched on error.
    pub fn remove_query(&mut self, id: QueryId) -> Result<ChurnReport, ChurnError> {
        self.churn(ChurnOp::Remove(id))
    }

    /// Validates `op` against the live query list and rebuilds around
    /// the result.
    fn churn(&mut self, op: ChurnOp) -> Result<ChurnReport, ChurnError> {
        let mut wanted = self.queries.clone();
        op.apply_to(&mut wanted)?;
        self.apply_churn(wanted)
    }

    /// Per-group member signature used to match groups across a churn:
    /// `(original query id, half tag)` per member, in member order. Half
    /// ids of decomposed general queries are renumbered whenever the
    /// query set changes (`compile` numbers them from `max(id)+1`), so
    /// identity must go through the original id plus which half it is
    /// (0 = the query itself, 1 = left half, 2 = right half).
    fn group_sigs(
        groups: &[GroupExec],
        sub_of: &HashMap<QueryId, usize>,
        combiners: &[Combiner],
    ) -> Vec<Vec<(u32, u8)>> {
        groups
            .iter()
            .map(|g| {
                g.rt.queries
                    .iter()
                    .map(|q| match sub_of.get(&q.id) {
                        None => (q.id.0, 0u8),
                        Some(&ci) => {
                            let c = &combiners[ci];
                            if q.id == c.left {
                                (c.orig.0, 1)
                            } else {
                                (c.orig.0, 2)
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Rebuilds the engine around `final_queries`, carrying over every
    /// share group whose membership is unchanged and draining the rest.
    /// Strong exception safety: the workload is compiled before any
    /// engine state is touched.
    fn apply_churn(&mut self, final_queries: Vec<Query>) -> Result<ChurnReport, ChurnError> {
        let mut compiled =
            Self::compile(&self.reg, &final_queries, &self.cfg).map_err(ChurnError::Engine)?;

        // Match old groups to new ones by member signature. Each
        // (query, half) lives in exactly one group on each side, so the
        // match is a partial bijection; member *order* must also agree
        // because run state is indexed by member position.
        let old_sigs = Self::group_sigs(&self.groups, &self.sub_of, &self.combiners);
        let new_sigs = Self::group_sigs(&compiled.groups, &compiled.sub_of, &compiled.combiners);
        let mut old_of_new: Vec<Option<usize>> = vec![None; compiled.groups.len()];
        let mut carried_old: Vec<bool> = vec![false; self.groups.len()];
        for (oi, os) in old_sigs.iter().enumerate() {
            if let Some(ni) = new_sigs.iter().position(|ns| ns == os) {
                old_of_new[ni] = Some(oi);
                carried_old[oi] = true;
            }
        }

        // Drain the in-flight windows of every group that does not carry
        // over, through the normal finalization path (the old groups,
        // estimators, and combiners are still installed, so general-query
        // halves pair correctly).
        let mut finished: Vec<(usize, GroupKey, u64, RunState)> = Vec::new();
        for (oi, carried) in carried_old.iter().enumerate() {
            if *carried {
                continue;
            }
            // hamlet-lint: allow(unordered-iter) -- drained windows flow through finalize_finished, which sorts before emitting
            for (key, runs) in std::mem::take(&mut self.groups[oi].partitions) {
                for (start, rs) in runs {
                    finished.push((oi, key.clone(), start, rs));
                }
            }
        }
        let mut drained = Vec::new();
        self.finalize_finished(finished, &mut drained);

        // Settle pending general-query halves. A pending entry's partner
        // run can no longer exist (both halves of a window expire at the
        // same watermark), so entries whose original query survives are
        // re-keyed to the new combiner table, and entries of removed
        // queries emit now with the missing half = 0, exactly as `flush`
        // would have.
        let new_ci_of_orig: HashMap<u32, usize> = compiled
            .combiners
            .iter()
            .enumerate()
            .map(|(i, c)| (c.orig.0, i))
            .collect();
        let mut surviving_pending = HashMap::new();
        let mut orphaned: Vec<PendingHalf> = Vec::new();
        // hamlet-lint: allow(unordered-iter) -- re-keys into a map; orphaned halves are sorted canonically before emitting below
        for ((ci, key, start), (id, count)) in self.pending.drain() {
            let oc = &self.combiners[ci];
            match new_ci_of_orig.get(&oc.orig.0) {
                Some(&nci) => {
                    let nc = &compiled.combiners[nci];
                    let nid = if id == oc.left { nc.left } else { nc.right };
                    surviving_pending.insert((nci, key, start), (nid, count));
                }
                None => orphaned.push(((ci, key, start), (id, count))),
            }
        }
        orphaned.sort_by(|((ca, ka, sa), _), ((cb, kb, sb), _)| {
            (sa, self.combiners[*ca].orig)
                .cmp(&(sb, self.combiners[*cb].orig))
                .then_with(|| ka.total_cmp(kb))
        });
        for ((ci, key, start), (id, count)) in orphaned {
            let c = &self.combiners[ci];
            let (c1, c2) = if id == c.left { (count, 0) } else { (0, count) };
            let combined = general::combine(
                c.kind,
                hamlet_types::TrendVal(c1),
                hamlet_types::TrendVal(c2),
                c.same_pattern,
            );
            drained.push(WindowResult {
                query: c.orig,
                group_key: key,
                window_start: Ts(start),
                value: AggValue::Count(combined.0),
            });
            self.stats.windows_emitted += 1;
            // The old groups are still installed here; attribute the
            // orphaned half to the (old) group that held it.
            if let Some(gi) = self.group_of_sub(id) {
                if let Some(m) = self.obs.get_mut(gi) {
                    m.results_emitted += 1;
                }
            }
        }

        // Migrate carried groups: the group is recompiled (identical
        // runtime — deterministic from the member set), the live runs and
        // learned statistics move over, and each run re-points at the
        // recompiled runtime.
        let mut groups_carried = 0;
        for (ni, oi) in old_of_new.iter().enumerate() {
            let Some(oi) = *oi else { continue };
            groups_carried += 1;
            let ng = &mut compiled.groups[ni];
            let og = &mut self.groups[oi];
            ng.partitions = std::mem::take(&mut og.partitions);
            std::mem::swap(&mut ng.estimator, &mut og.estimator);
            let rt = ng.rt.clone();
            // hamlet-lint: allow(unordered-iter) -- uniform retarget of every run; order-free
            for runs in ng.partitions.values_mut() {
                for rs in runs.values_mut() {
                    rs.run.retarget(rt.clone());
                }
            }
        }

        // Commit: swap in the compiled workload, rebuild the expiration
        // index (group indices changed), keep the stream-global state
        // (watermark, counters, metrics) running.
        let groups_rebuilt = compiled.groups.len() - groups_carried;
        self.groups = compiled.groups;
        self.combiners = compiled.combiners;
        self.sub_of = compiled.sub_of;
        self.route = compiled.route;
        self.scratch = BatchScratch::new(compiled.num_classes, compiled.num_wnd_classes);
        self.pending = surviving_pending;
        self.queries = final_queries;
        self.epoch += 1;
        // Group indices just changed meaning; the dirty log keyed by the
        // old layout is useless. The next delta cut is promoted to a
        // base, which re-snapshots everything under the new layout.
        self.dirty_parts.clear();
        self.dirty_pending.clear();
        self.delta_unsound = true;
        self.expiry.clear();
        for (gi, g) in self.groups.iter().enumerate() {
            let within = g.window.within;
            // hamlet-lint: allow(unordered-iter) -- heap rebuild; expiry drains every due entry before finalize_finished sorts emissions canonically
            for (key, runs) in &g.partitions {
                for &start in runs.keys() {
                    self.expiry.push(Reverse(ExpiryEntry {
                        end: window_end(start, within),
                        start,
                        group: gi,
                        key: key.clone(),
                    }));
                }
            }
        }

        let placements: Vec<GroupPlacement> = self
            .groups
            .iter()
            .enumerate()
            .map(|(ni, g)| self.placement_for(g, old_of_new[ni].is_some()))
            .collect();

        // Rebuild the observability registry for the new group layout:
        // carried groups keep their counters (moved via the signature
        // match), rebuilt groups start at zero (their history was
        // drained above), and every group takes the placement the
        // benefit model just re-priced.
        if self.cfg.obs {
            let old_obs = std::mem::take(&mut self.obs);
            self.obs = new_sigs
                .iter()
                .enumerate()
                .map(|(ni, sig)| {
                    let mut m = match old_of_new[ni].and_then(|oi| old_obs.get(oi)) {
                        Some(old) => old.clone(),
                        None => GroupMetrics::default(),
                    };
                    m.group = ni as u32;
                    m.sig = sig.clone();
                    m.shared = placements[ni].shared;
                    m.benefit = placements[ni].benefit;
                    m
                })
                .collect();
        }
        Ok(ChurnReport {
            drained,
            groups_carried,
            groups_rebuilt,
            placements,
            epoch: self.epoch,
        })
    }

    /// Re-runs the Def. 12 benefit model for one group at the churn
    /// barrier: for each type of the group's template, the a-priori
    /// sharing decision for a nominal burst, with `sc` predicted from the
    /// group's divergence statistics (learned, for carried groups; the
    /// optimistic zero-divergence prior for fresh ones — the same bias
    /// the per-burst optimizer starts from).
    fn placement_for(&self, g: &GroupExec, carried_over: bool) -> GroupPlacement {
        let members: Vec<QueryId> = g.rt.queries.iter().map(|q| q.id).collect();
        if g.rt.k() < 2 {
            return GroupPlacement {
                members,
                carried_over,
                benefit: 0.0,
                shared: false,
            };
        }
        const NOMINAL_BURST: u64 = 16;
        let probe = Run::new(g.rt.clone());
        let mut total_benefit = 0.0;
        let mut shared = false;
        for tl in 0..g.rt.template.num_types() {
            let mut ctx = probe.burst_shape(tl);
            if ctx.candidates.len() < 2 {
                continue;
            }
            ctx.diverging = ctx
                .candidates
                .iter()
                .map(|&q| g.estimator.predict(tl, q, NOMINAL_BURST))
                .collect();
            // Def. 12 benefit of sharing the *whole* candidate set (can be
            // negative — the optimizer would then process solo or share a
            // subset, which is what `decide` below settles).
            let bf = NOMINAL_BURST as f64;
            let sc = 1.0
                + ctx
                    .diverging
                    .iter()
                    .zip(&ctx.has_edge)
                    .map(|(&d, &e)| d as f64 + if e { bf } else { 0.0 })
                    .sum::<f64>();
            let factors = crate::optimizer::CostFactors {
                b: bf,
                n: ctx.n as f64,
                g: (ctx.g + NOMINAL_BURST) as f64,
                sp: (ctx.sp as f64).max(1.0),
                p: ctx.p,
            };
            total_benefit += crate::optimizer::benefit(ctx.candidates.len() as f64, sc, &factors);
            let dec = decide(self.cfg.policy, &ctx, NOMINAL_BURST);
            shared |= dec.share.len() >= 2;
        }
        GroupPlacement {
            members,
            carried_over,
            benefit: total_benefit,
            shared,
        }
    }
}

fn flush_burst(
    rs: &mut RunState,
    policy: SharingPolicy,
    mode: DivergenceMode,
    estimator: &mut DivergenceEstimator,
    stats: &mut EngineStats,
    arena: &mut EventArena,
) {
    let Some(tl) = rs.burst_ty else { return };
    let b = rs.burst.len() as u64 + rs.burst_extra;
    if b == 0 {
        return;
    }
    // hamlet-lint: allow(wallclock) -- decision-time accounting only (stats.decision_time)
    let t0 = Instant::now();
    let mut ctx = rs.run.burst_shape(tl);
    let exact = match mode {
        DivergenceMode::Exact => {
            // `burst_extra` events exist only for uniform groups, which
            // have no selection predicates — their divergence is zero,
            // exactly what scanning them would have produced.
            ctx.diverging = rs.run.exact_divergence(tl, &rs.burst, &ctx.candidates);
            true
        }
        DivergenceMode::Ema { .. } => {
            ctx.diverging = ctx
                .candidates
                .iter()
                .map(|&q| estimator.predict(tl, q, b))
                .collect();
            false
        }
    };
    let dec = decide(policy, &ctx, b);
    stats.decision_time += t0.elapsed();
    stats.decisions += 1;
    let snaps_before = rs.run.stats().event_snapshots;
    rs.run
        .process_burst_ext(tl, &rs.burst, rs.burst_extra, &dec.share);
    // Feed the statistics back: exact mode learns the true per-member
    // divergence; EMA mode attributes the event-level snapshots the burst
    // actually created across the sharing members.
    if exact {
        for (i, &q) in ctx.candidates.iter().enumerate() {
            estimator.observe(tl, q, ctx.diverging[i], b);
        }
    } else {
        let created = rs.run.stats().event_snapshots - snaps_before;
        let members: Vec<usize> = dec.share.iter().collect();
        if members.is_empty() {
            // No sharing happened; decay gently toward the prediction.
            for &q in &ctx.candidates {
                let predicted = estimator.predict(tl, q, b);
                estimator.observe(tl, q, predicted, b);
            }
        } else {
            estimator.observe_aggregate(tl, &members, created, b);
        }
    }
    // Hand the burst's attribute buffers back to the arena for the next
    // `alloc_event` (keeps the burst Vec's own capacity).
    for ev in rs.burst.drain(..) {
        arena.recycle(ev);
    }
    rs.burst_extra = 0;
    rs.burst_ty = None;
}

/// Renders a member's raw output according to its aggregation function.
pub fn render(agg: &AggFunc, o: &MemberOutput) -> AggValue {
    match agg {
        AggFunc::CountStar => AggValue::Count(o.raw.count.0),
        AggFunc::CountType(_) => AggValue::Count(o.raw.cnt.0),
        AggFunc::Sum(_, _) => AggValue::Float(crate::agg::attr_of_ring(o.raw.sum)),
        AggFunc::Avg(_, _) => {
            if o.raw.cnt.is_zero() {
                AggValue::Null
            } else {
                AggValue::Float(crate::agg::attr_of_ring(o.raw.sum) / o.raw.cnt.0 as f64)
            }
        }
        AggFunc::Min(_, _) | AggFunc::Max(_, _) => {
            if o.mm.is_finite() {
                AggValue::Float(o.mm)
            } else {
                AggValue::Null
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_query::Pattern;
    use hamlet_types::EventTypeId;

    fn registry() -> (Arc<TypeRegistry>, EventTypeId, EventTypeId, EventTypeId) {
        let mut reg = TypeRegistry::new();
        let a = reg.register("A", &["g", "v"]);
        let b = reg.register("B", &["g", "v"]);
        let c = reg.register("C", &["g", "v"]);
        (Arc::new(reg), a, b, c)
    }

    fn seq(a: EventTypeId, b: EventTypeId) -> Pattern {
        Pattern::seq(vec![Pattern::Type(a), Pattern::plus(Pattern::Type(b))])
    }

    fn ev(reg: &TypeRegistry, ty: EventTypeId, t: u64, g: i64, v: f64) -> Event {
        hamlet_types::EventBuilder::new(reg, ty, t)
            .attr("g", g)
            .attr("v", v)
            .build()
    }

    fn collect(
        engine: &mut HamletEngine,
        events: impl IntoIterator<Item = Event>,
    ) -> Vec<WindowResult> {
        let mut out = Vec::new();
        for e in events {
            out.extend(engine.process(&e));
        }
        out.extend(engine.flush());
        out
    }

    #[test]
    fn tumbling_window_counts() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(10));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap();
        assert_eq!(eng.num_groups(), 1);
        // Window [0,10): a@1, c@2, b@3, b@4 → q1: trends (a,b3),(a,b4),
        // (a,b3,b4) = 3; q2 likewise = 3.
        // Window [10,20): a@11, b@12 → q1: 1; q2: 0.
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, c, 2, 0, 0.0),
            ev(&reg, b, 3, 0, 0.0),
            ev(&reg, b, 4, 0, 0.0),
            ev(&reg, a, 11, 0, 0.0),
            ev(&reg, b, 12, 0, 0.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| (r.window_start, r.query));
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].value, AggValue::Count(3)); // q1 w0
        assert_eq!(results[1].value, AggValue::Count(3)); // q2 w0
        assert_eq!(results[2].value, AggValue::Count(1)); // q1 w1
        assert_eq!(results[3].value, AggValue::Count(0)); // q2 w1
        assert!(eng.stats().decisions > 0);
        assert_eq!(eng.stats().windows_emitted, 4);
    }

    #[test]
    fn policies_agree_on_results() {
        let (reg, a, b, c) = registry();
        let mk = |policy| {
            let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
            let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
            HamletEngine::new(
                reg.clone(),
                vec![q1, q2],
                EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };
        let evs: Vec<Event> = (0..18)
            .map(|t| {
                let ty = match t % 6 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                ev(&reg, ty, t, 0, t as f64)
            })
            .collect();
        let mut base: Option<Vec<WindowResult>> = None;
        for policy in [
            SharingPolicy::Dynamic,
            SharingPolicy::AlwaysShare,
            SharingPolicy::NeverShare,
        ] {
            let mut eng = mk(policy);
            let mut rs = collect(&mut eng, evs.clone());
            rs.sort_by_key(|r| (r.window_start, r.query));
            match &base {
                None => base = Some(rs),
                Some(b) => assert_eq!(b, &rs, "policy {policy:?} diverged"),
            }
        }
    }

    #[test]
    fn group_by_partitions_results() {
        let (reg, a, b, _) = registry();
        let mut q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        q1.group_by = vec![Arc::from("g")];
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let evs = vec![
            ev(&reg, a, 1, 1, 0.0),
            ev(&reg, a, 1, 2, 0.0),
            ev(&reg, b, 2, 1, 0.0),
            ev(&reg, b, 3, 2, 0.0),
            ev(&reg, b, 4, 2, 0.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| match &r.group_key.0[0] {
            AttrValue::Int(i) => *i,
            _ => 0,
        });
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].value, AggValue::Count(1)); // g=1: (a,b)
        assert_eq!(results[1].value, AggValue::Count(3)); // g=2: b3,b4,b3b4
    }

    #[test]
    fn sliding_windows_replicate() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        // a@6, b@8: in windows starting at 0 and 5.
        let evs = vec![ev(&reg, a, 6, 0, 0.0), ev(&reg, b, 8, 0, 0.0)];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| r.window_start);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].window_start, Ts(0));
        assert_eq!(results[0].value, AggValue::Count(1));
        assert_eq!(results[1].window_start, Ts(5));
        assert_eq!(results[1].value, AggValue::Count(1));
    }

    #[test]
    fn sum_and_avg_render() {
        let (reg, a, b, _) = registry();
        let mk_q = |id, agg| {
            Query::new(
                QueryId(id),
                seq(a, b),
                agg,
                vec![],
                vec![],
                vec![],
                vec![],
                Window::tumbling(10),
            )
            .unwrap()
        };
        let vb = reg.attr_index(b, "v").unwrap();
        let queries = vec![
            mk_q(1, AggFunc::Sum(b, vb)),
            mk_q(2, AggFunc::Avg(b, vb)),
            mk_q(3, AggFunc::CountType(b)),
        ];
        let mut eng = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
        // a@1, b@2 (v=10), b@3 (v=20). Trends: (a,b2) (a,b3) (a,b2,b3).
        // B-events across trends: b2×2, b3×2 → COUNT(B)=4, SUM=10+20+30=60,
        // AVG = 60/4 = 15.
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, b, 2, 0, 10.0),
            ev(&reg, b, 3, 0, 20.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| r.query);
        assert_eq!(results[0].value, AggValue::Float(60.0));
        assert_eq!(results[1].value, AggValue::Float(15.0));
        assert_eq!(results[2].value, AggValue::Count(4));
    }

    #[test]
    fn min_max_render() {
        let (reg, a, b, _) = registry();
        let vb = reg.attr_index(b, "v").unwrap();
        let mk_q = |id, agg| {
            Query::new(
                QueryId(id),
                seq(a, b),
                agg,
                vec![],
                vec![],
                vec![],
                vec![],
                Window::tumbling(10),
            )
            .unwrap()
        };
        let queries = vec![mk_q(1, AggFunc::Min(b, vb)), mk_q(2, AggFunc::Max(b, vb))];
        let mut eng = HamletEngine::new(reg.clone(), queries, EngineConfig::default()).unwrap();
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, b, 2, 0, 7.0),
            ev(&reg, b, 3, 0, 3.0),
        ];
        let mut results = collect(&mut eng, evs);
        results.sort_by_key(|r| r.query);
        assert_eq!(results[0].value, AggValue::Float(3.0));
        assert_eq!(results[1].value, AggValue::Float(7.0));
        // Empty window → Null.
        let mut eng2 = HamletEngine::new(
            reg.clone(),
            vec![mk_q(3, AggFunc::Min(b, vb))],
            EngineConfig::default(),
        )
        .unwrap();
        let evs = vec![ev(&reg, b, 2, 0, 7.0)]; // no A → no trend
        let results = collect(&mut eng2, evs);
        assert_eq!(results[0].value, AggValue::Null);
    }

    #[test]
    fn or_query_combines_branches() {
        let (reg, a, b, c) = registry();
        let mut regm = (*reg).clone();
        let d = regm.register("D", &["g", "v"]);
        let reg = Arc::new(regm);
        let p = Pattern::Or(Box::new(seq(a, b)), Box::new(seq(c, d)));
        let q = Query::count_star(9, p, Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap();
        // Branch 1: a@1,b@2 → 1 trend. Branch 2: c@3,d@4,d@5 → 3 trends.
        let evs = vec![
            ev(&reg, a, 1, 0, 0.0),
            ev(&reg, b, 2, 0, 0.0),
            ev(&reg, c, 3, 0, 0.0),
            ev(&reg, d, 4, 0, 0.0),
            ev(&reg, d, 5, 0, 0.0),
        ];
        let results = collect(&mut eng, evs);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].query, QueryId(9));
        assert_eq!(results[0].value, AggValue::Count(4));
    }

    /// A window whose `start + within` exceeds `u64::MAX` must not wrap
    /// (debug builds: panic; release: expire instantly) — it saturates
    /// and closes exactly once, at the final flush.
    #[test]
    fn window_end_near_u64_max_does_not_overflow() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        // t = u64::MAX - 1 sits in the tumbling instance starting at
        // MAX - 1 - ((MAX - 1) % 10), whose end overflows u64.
        let t = u64::MAX - 1;
        let mut out = eng.process(&ev(&reg, a, t, 0, 0.0));
        out.extend(eng.process(&ev(&reg, b, t, 0, 0.0)));
        assert!(out.is_empty(), "nothing expires before the flush: {out:?}");
        out.extend(eng.flush());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, AggValue::Count(1));
        assert_eq!(eng.expiry_index_len(), 0, "flush drains the index");
    }

    /// Two runs over the same stream produce *identical* (not just
    /// set-equal) output — expiry emission follows the defined total
    /// order (window_start, group, key), never HashMap iteration order.
    #[test]
    fn same_stream_twice_is_byte_identical() {
        let (reg, a, b, c) = registry();
        let mk = || {
            let mut q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
            q1.group_by = vec![Arc::from("g")];
            let mut q2 = Query::count_star(2, seq(c, b), Window::new(10, 5));
            q2.group_by = vec![Arc::from("g")];
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap()
        };
        // Many group-by keys per window so one watermark advance expires
        // several partitions at once — the case HashMap order scrambled.
        let mut evs = Vec::new();
        for t in 0..120u64 {
            let ty = match t % 5 {
                0 => a,
                1 => c,
                _ => b,
            };
            evs.push(ev(&reg, ty, t, (t % 13) as i64, 0.0));
        }
        let run = || {
            let mut eng = mk();
            let mut out = Vec::new();
            for e in &evs {
                out.extend(eng.process(e));
            }
            out.extend(eng.flush());
            out
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "re-run diverged in order or content");
    }

    /// flush() is a point of no return: it advances the watermark to the
    /// end of time, so events processed afterwards are dropped as late
    /// instead of resurrecting (and re-emitting) windows the flush
    /// already emitted.
    #[test]
    fn process_after_flush_cannot_re_emit() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        out.extend(eng.process(&ev(&reg, a, 1, 0, 0.0)));
        out.extend(eng.process(&ev(&reg, b, 2, 0, 0.0)));
        out.extend(eng.flush());
        assert_eq!(out.len(), 1, "flush emitted [0,10) once");
        assert_eq!(eng.watermark(), Some(Ts(u64::MAX)));
        // A continuation into the already-flushed window must not
        // double-emit it.
        let more = eng.process(&ev(&reg, a, 3, 0, 0.0));
        assert!(more.is_empty());
        assert!(eng.stats().late_skips > 0, "post-flush events count late");
        assert!(eng.flush().is_empty(), "no window re-emitted");
    }

    /// The expiration index is maintained exactly: one push per run
    /// creation, no tombstones in normal operation, drained by flush.
    #[test]
    fn expiry_index_bookkeeping() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let evs: Vec<Event> = (0..40)
            .map(|t| ev(&reg, if t % 4 == 0 { a } else { b }, t, 0, 0.0))
            .collect();
        let _ = collect(&mut eng, evs);
        let stats = eng.stats();
        assert!(stats.expiry_pushes > 0, "runs were indexed");
        assert_eq!(stats.expiry_tombstones, 0, "no out-of-band drains");
        assert_eq!(eng.expiry_index_len(), 0, "flush drained the heap");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// The heap-indexed expiry is bit-identical — per process() call
        /// and at flush — to the old full-partition scan (kept behind
        /// cfg(test) as the oracle).
        #[test]
        fn heap_expiry_matches_scan_oracle(
            seed in 0u64..10_000,
            within in 4u64..20,
            slide_div in 1u64..4,
            keys in 1i64..8,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (reg, a, b, c) = registry();
            let slide = (within / slide_div).max(1);
            let mk = || {
                let mut q1 = Query::count_star(1, seq(a, b), Window::new(within, slide));
                q1.group_by = vec![Arc::from("g")];
                let mut q2 = Query::count_star(2, seq(c, b), Window::new(within, slide));
                q2.group_by = vec![Arc::from("g")];
                HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap()
            };
            let mut heap_eng = mk();
            let mut scan_eng = mk();
            scan_eng.set_scan_expiry(true);
            // Deterministic pseudo-random stream from the seed (xorshift).
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            let mut step = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut t = 0u64;
            for _ in 0..200 {
                t += step() % 3;
                let ty = match step() % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                let g = (step() % keys as u64) as i64;
                let e = ev(&reg, ty, t, g, 0.0);
                prop_assert_eq!(heap_eng.process(&e), scan_eng.process(&e));
            }
            prop_assert_eq!(heap_eng.flush(), scan_eng.flush());
        }
    }

    /// The counters every execution path must agree on: the batched path
    /// may not drift from the fold on any observable statistic.
    fn counters(eng: &HamletEngine) -> (u64, u64, u64, u64, u64, u64) {
        let s = eng.stats();
        (
            s.decisions,
            s.windows_emitted,
            s.events_routed,
            s.expiry_pushes,
            s.expiry_tombstones,
            s.late_skips,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// `process_batch` output and counters are identical to folding
        /// `process` (the one-element wrapper) and `process_reference`
        /// (the preserved pre-batching body) over the same stream —
        /// including duplicate timestamps, bounded lateness, grouped
        /// partitions, and both divergence modes.
        #[test]
        fn process_batch_matches_fold(
            seed in 0u64..10_000,
            within in 4u64..20,
            slide_div in 1u64..4,
            keys in 1i64..6,
            batch_size in 1usize..50,
            lateness in 0u64..4,
        ) {
            use proptest::prelude::prop_assert_eq;
            let (reg, a, b, c) = registry();
            let slide = (within / slide_div).max(1);
            let mode = if seed % 2 == 0 {
                DivergenceMode::Exact
            } else {
                DivergenceMode::Ema { alpha: 0.3 }
            };
            let mk = || {
                let mut q1 = Query::count_star(1, seq(a, b), Window::new(within, slide));
                q1.group_by = vec![Arc::from("g")];
                let mut q2 = Query::count_star(2, seq(c, b), Window::new(within, slide));
                q2.group_by = vec![Arc::from("g")];
                HamletEngine::new(
                    reg.clone(),
                    vec![q1, q2],
                    EngineConfig {
                        divergence: mode,
                        ..EngineConfig::default()
                    },
                )
                .unwrap()
            };
            // Deterministic pseudo-random stream (xorshift) with repeated
            // ticks and bounded out-of-order arrivals.
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            let mut step = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let mut t = 0u64;
            let mut events = Vec::new();
            for _ in 0..200 {
                t += step() % 3;
                let ty = match step() % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                let g = (step() % keys as u64) as i64;
                let delay = if lateness == 0 { 0 } else { step() % (lateness + 1) };
                events.push(ev(&reg, ty, t.saturating_sub(delay), g, 0.0));
            }

            let mut ref_eng = mk();
            let mut ref_out = Vec::new();
            for e in &events {
                ref_out.extend(ref_eng.process_reference(e));
            }
            let mut fold_eng = mk();
            let mut fold_out = Vec::new();
            for e in &events {
                fold_out.extend(fold_eng.process(e));
            }
            let mut batch_eng = mk();
            let mut batch_out = Vec::new();
            for chunk in events.chunks(batch_size) {
                batch_out.extend(batch_eng.process_batch(chunk));
            }

            prop_assert_eq!(&fold_out, &ref_out);
            prop_assert_eq!(&batch_out, &ref_out);
            let ref_flush = ref_eng.flush();
            prop_assert_eq!(batch_eng.flush(), ref_flush.clone());
            prop_assert_eq!(fold_eng.flush(), ref_flush);
            prop_assert_eq!(counters(&batch_eng), counters(&ref_eng));
            prop_assert_eq!(counters(&fold_eng), counters(&ref_eng));
        }
    }

    /// The engine's complete state: the payload of a full cut.
    fn full_state(eng: &mut HamletEngine) -> Vec<u8> {
        use crate::store::{CutKind, Snapshot};
        let ck = eng.cut(CutKind::Full).unwrap();
        crate::checkpoint::Frame::decode(ck.as_bytes())
            .unwrap()
            .shards[0]
            .to_vec()
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (reg, a, b, _) = registry();
        let mk = || {
            let q = Query::count_star(1, seq(a, b), Window::tumbling(10));
            HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap()
        };
        // Fresh engine: a zero-length batch must not set a watermark or
        // emit — the checkpoint pins every bit of engine state.
        let mut eng = mk();
        assert!(eng.process_batch(&[]).is_empty());
        assert_eq!(full_state(&mut eng), full_state(&mut mk()));
        // Mid-stream, with open runs pending: still byte-for-byte inert.
        eng.process(&ev(&reg, a, 1, 0, 0.0));
        eng.process(&ev(&reg, b, 2, 0, 0.0));
        let before = full_state(&mut eng);
        assert!(eng.process_batch(&[]).is_empty());
        assert_eq!(full_state(&mut eng), before);
        assert_eq!(eng.flush().len(), 1);
    }

    /// Satellite invariant: the public byte accounting covers the batch
    /// scratch arena, while checkpoints (which don't carry the arena)
    /// restore to a fresh-engine accounting.
    #[test]
    fn state_bytes_accounts_for_batch_arena() {
        use hamlet_query::{CmpOp, SelectionPredicate};
        let (reg, a, b, _) = registry();
        let mk = || {
            // The always-true selection keeps the group non-uniform, so
            // the batched path materializes bursts through the arena
            // (uniform groups buffer a bare count and never touch it).
            let mut q = Query::count_star(1, seq(a, b), Window::tumbling(10));
            q.selections.push(SelectionPredicate {
                ty: b,
                attr: 1,
                op: CmpOp::Lt,
                value: hamlet_types::AttrValue::Float(1e9),
            });
            HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap()
        };
        let mut eng = mk();
        assert_eq!(eng.state_bytes(), 0);
        let events: Vec<Event> = (0..64)
            .map(|i| ev(&reg, if i % 8 == 0 { a } else { b }, i, 0, 0.0))
            .collect();
        eng.process_batch(&events);
        eng.flush();
        // Everything live has drained, but the arena keeps the bursts'
        // attribute buffers pooled for reuse — the public accounting
        // must still see those bytes.
        assert_eq!(eng.live_state_bytes(), 0);
        assert!(eng.state_bytes() > 0);
        // A restore drops the pool: a restored engine accounts like a
        // fresh one.
        let base = crate::store::Snapshot::cut(&mut eng, crate::store::CutKind::Full).unwrap();
        let mut resumed = mk();
        resumed.process_batch(&events);
        resumed.flush();
        assert!(resumed.state_bytes() > 0);
        crate::store::Snapshot::restore_chain(&mut resumed, &[base]).unwrap();
        assert_eq!(resumed.state_bytes(), 0);
    }

    /// Interleaving the batched and reference paths on one engine mixes a
    /// count-only burst tail (`burst_extra`) with materialized events in a
    /// single pending burst; the flush must replay both halves as one
    /// burst — same outputs, same decision and event counters as a pure
    /// event-at-a-time run.
    #[test]
    fn mixed_compact_and_event_burst_flushes_once() {
        let (reg, a, b, _) = registry();
        let mk = || {
            let q = Query::count_star(1, seq(a, b), Window::tumbling(100));
            HamletEngine::new(reg.clone(), vec![q], EngineConfig::default()).unwrap()
        };
        let evs: Vec<Event> = (0..40)
            .map(|i| ev(&reg, if i == 0 { a } else { b }, i, 0, 0.0))
            .collect();
        let mut mixed = mk();
        let mut ref_eng = mk();
        let mut mixed_out = Vec::new();
        let mut ref_out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            // Alternate paths within one pane: when the flush fires, the
            // pending burst holds cloned events *and* a count-only tail.
            if i % 2 == 0 {
                mixed_out.extend(mixed.process(e));
            } else {
                mixed_out.extend(mixed.process_reference(e));
            }
            ref_out.extend(ref_eng.process_reference(e));
        }
        mixed_out.extend(mixed.flush());
        ref_out.extend(ref_eng.flush());
        assert_eq!(mixed_out, ref_out);
        assert_eq!(counters(&mixed), counters(&ref_eng));
    }

    /// Direct evidence for the O(P)→O(log n) claim: at high partition
    /// cardinality the indexed expiry path beats the old full scan by a
    /// wide margin, because the scan pays O(live partitions) on every
    /// event while the heap pays O(1) when nothing expires.
    #[test]
    #[ignore = "slow tier: expiry-cost scaling; run with `cargo test --release -- --ignored`"]
    fn indexed_expiry_beats_full_scan_at_high_cardinality() {
        let (reg, a, b, _) = registry();
        let mk = || {
            let mut q = Query::count_star(1, seq(a, b), Window::tumbling(50));
            q.group_by = vec![Arc::from("g")];
            HamletEngine::new(
                reg.clone(),
                vec![q],
                EngineConfig {
                    track_latency: false,
                    mem_sample_every: 0,
                    ..EngineConfig::default()
                },
            )
            .unwrap()
        };
        // ~5000 live partitions per window, small per-partition state.
        let evs: Vec<Event> = (0..100_000u64)
            .map(|i| {
                let t = i / 1_000; // 100 windows over the stream
                let ty = if i % 10 == 0 { a } else { b };
                ev(&reg, ty, t, (i % 5_000) as i64, 0.0)
            })
            .collect();
        let time = |eng: &mut HamletEngine| {
            let t0 = Instant::now();
            let mut n = 0usize;
            for e in &evs {
                n += eng.process(e).len();
            }
            n += eng.flush().len();
            (t0.elapsed(), n)
        };
        let mut heap_eng = mk();
        let mut scan_eng = mk();
        scan_eng.set_scan_expiry(true);
        let (heap_t, heap_n) = time(&mut heap_eng);
        let (scan_t, scan_n) = time(&mut scan_eng);
        assert_eq!(heap_n, scan_n, "paths emit the same result count");
        // The margin is ~10–100× in release; 2× keeps noisy hosts green.
        assert!(
            heap_t.as_secs_f64() * 2.0 < scan_t.as_secs_f64(),
            "indexed expiry ({heap_t:?}) not faster than full scan ({scan_t:?})"
        );
    }

    /// A late event whose window already closed must not resurrect the
    /// window: the engine skips the contribution (counting it) instead of
    /// emitting the same (query, key, window) twice.
    #[test]
    fn late_event_cannot_double_emit_a_window() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        assert_eq!(eng.watermark(), None);
        let mut out = Vec::new();
        out.extend(eng.process(&ev(&reg, a, 1, 0, 0.0)));
        out.extend(eng.process(&ev(&reg, b, 2, 0, 0.0)));
        // Watermark jumps past the window end: [0,10) emits.
        out.extend(eng.process(&ev(&reg, a, 15, 0, 0.0)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window_start, Ts(0));
        assert_eq!(out[0].value, AggValue::Count(1));
        assert_eq!(eng.watermark(), Some(Ts(15)));
        // A straggler for the closed window arrives late.
        let late = eng.process(&ev(&reg, b, 3, 0, 0.0));
        assert!(late.is_empty(), "late event emitted: {late:?}");
        assert_eq!(eng.stats().late_skips, 1);
        assert_eq!(eng.watermark(), Some(Ts(15)), "watermark is monotone");
        // Flush emits only the still-open [10,20) window — no duplicate
        // of [0,10).
        let mut rest = eng.flush();
        rest.retain(|r| r.window_start == Ts(0));
        assert!(rest.is_empty(), "window [0,10) re-emitted: {rest:?}");
    }

    /// An out-of-order event that is late for one (closed) sliding window
    /// instance still contributes to the instances that remain open.
    #[test]
    fn late_event_still_feeds_open_windows() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        out.extend(eng.process(&ev(&reg, a, 6, 0, 0.0)));
        // Watermark 12 closes [0,10) but leaves [5,15) and [10,20) open.
        out.extend(eng.process(&ev(&reg, a, 12, 0, 0.0)));
        // b@8 is late for [0,10) (skipped) but lands in the open [5,15).
        out.extend(eng.process(&ev(&reg, b, 8, 0, 0.0)));
        out.extend(eng.flush());
        assert_eq!(eng.stats().late_skips, 1);
        let w5: Vec<_> = out.iter().filter(|r| r.window_start == Ts(5)).collect();
        assert_eq!(w5.len(), 1);
        // The late b contributes to the open [5,15) window. (Within an
        // open window the engine orders by *arrival*, so both a@6 and
        // a@12 precede the late b — in-window ordering is the reorder
        // stage's job, the engine only guarantees no double emission.)
        assert_eq!(w5[0].value, AggValue::Count(2), "late b fed [5,15)");
        // Each window instance emitted exactly once.
        let mut starts: Vec<u64> = out.iter().map(|r| r.window_start.ticks()).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), out.len(), "duplicate window emission");
    }

    /// Cut mid-stream, restore into a fresh engine, continue: suffix
    /// output and final flush are byte-identical to the uninterrupted
    /// run, and the restored engine's next full cut is byte-identical to
    /// the original's (round-trip identity).
    #[test]
    fn checkpoint_restore_continue_is_identical() {
        use crate::store::{CutKind, Snapshot};
        let (reg, a, b, c) = registry();
        let mk = || {
            let mut q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
            q1.group_by = vec![Arc::from("g")];
            let mut q2 = Query::count_star(2, seq(c, b), Window::new(10, 5));
            q2.group_by = vec![Arc::from("g")];
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap()
        };
        let evs: Vec<Event> = (0..90u64)
            .map(|t| {
                let ty = match t % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                ev(&reg, ty, t, (t % 7) as i64, t as f64)
            })
            .collect();
        for cut in [0usize, 1, 37, 89, 90] {
            let mut uninterrupted = mk();
            let mut gold = Vec::new();
            for e in &evs {
                gold.push(uninterrupted.process(e));
            }
            let gold_flush = uninterrupted.flush();

            let mut first = mk();
            for e in &evs[..cut] {
                let _ = first.process(e);
            }
            let base = first.cut(CutKind::Full).unwrap();
            let next = first.cut(CutKind::Full).unwrap();
            drop(first); // the "kill"
            let mut resumed = mk();
            resumed.restore_chain(&[base]).unwrap();
            assert_eq!(
                resumed.cut(CutKind::Full).unwrap(),
                next,
                "round-trip identity at {cut}"
            );
            for (i, e) in evs[cut..].iter().enumerate() {
                assert_eq!(
                    resumed.process(e),
                    gold[cut + i],
                    "event {} cut {cut}",
                    cut + i
                );
            }
            assert_eq!(resumed.flush(), gold_flush, "flush at cut {cut}");
            assert_eq!(
                resumed.stats().windows_emitted,
                uninterrupted.stats().windows_emitted,
                "counters continue across restore (cut {cut})"
            );
        }
    }

    /// A record refuses to restore into a different workload or
    /// sharding, corrupt payloads fail cleanly, and no failed restore
    /// touches the engine.
    #[test]
    fn restore_validates_fingerprint_and_blob() {
        use crate::checkpoint::{CheckpointError, Frame};
        use crate::store::{Checkpoint, CutKind, Snapshot};
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(10));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1.clone()], EngineConfig::default()).unwrap();
        let _ = eng.process(&ev(&reg, a, 1, 0, 0.0));
        let base = eng.cut(CutKind::Full).unwrap();
        let next = eng.cut(CutKind::Full).unwrap();

        // Different workload.
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(10));
        let mut other = HamletEngine::new(reg.clone(), vec![q2], EngineConfig::default()).unwrap();
        assert!(matches!(
            other.restore_chain(std::slice::from_ref(&base)),
            Err(CheckpointError::WorkloadMismatch(_))
        ));

        // Different sharding.
        let mut sharded = HamletEngine::new(
            reg.clone(),
            vec![q1.clone()],
            EngineConfig {
                shard: Some((0, 4)),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            sharded.restore_chain(std::slice::from_ref(&base)),
            Err(CheckpointError::WorkloadMismatch(_))
        ));

        // Garbage, and a payload truncated inside a well-formed frame.
        assert_eq!(
            Checkpoint::from_bytes(b"nope".to_vec()),
            Err(CheckpointError::BadMagic)
        );
        let f = Frame::decode(base.as_bytes()).unwrap();
        let payload = f.shards[0];
        let short = Frame {
            shards: vec![&payload[..payload.len() - 3]],
            ..f.clone()
        };
        let short = Checkpoint::from_bytes(short.encode()).unwrap();
        let mut fresh = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        let untouched = fresh.cut(CutKind::Full).unwrap();
        assert!(fresh.restore_chain(&[short]).is_err());
        // The failed restores did not touch the fresh engine...
        let again = fresh.cut(CutKind::Full).unwrap();
        assert_eq!(
            Frame::decode(again.as_bytes()).unwrap().shards,
            Frame::decode(untouched.as_bytes()).unwrap().shards
        );
        // ...which still restores the intact record.
        fresh.restore_chain(&[base]).unwrap();
        assert_eq!(fresh.cut(CutKind::Full).unwrap(), next);
    }

    /// The expiration index is rebuilt on restore: exactly one live entry
    /// per restored run, and expiry continues to drain them.
    #[test]
    fn restore_rebuilds_expiry_index() {
        use crate::store::{CutKind, Snapshot};
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::new(10, 5));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1.clone()], EngineConfig::default()).unwrap();
        for t in 0..20u64 {
            let _ = eng.process(&ev(&reg, if t % 4 == 0 { a } else { b }, t, 0, 0.0));
        }
        let live = eng.expiry_index_len();
        assert!(live > 0);
        let base = eng.cut(CutKind::Full).unwrap();
        let mut resumed =
            HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        resumed.restore_chain(&[base]).unwrap();
        assert_eq!(resumed.expiry_index_len(), live);
        let _ = resumed.flush();
        assert_eq!(resumed.expiry_index_len(), 0, "flush drains rebuilt index");
    }

    #[test]
    fn latency_and_memory_tracked() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(4));
        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1],
            EngineConfig {
                mem_sample_every: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let evs: Vec<Event> = (0..20)
            .map(|t| ev(&reg, if t % 4 == 0 { a } else { b }, t, 0, 0.0))
            .collect();
        let _ = collect(&mut eng, evs);
        assert!(eng.latency().count() > 0);
        assert!(eng.peak_memory() > 0);
        assert!(eng.stats().runs.events > 0);
    }

    /// A stream the churn tests share: a, c and bursts of b, two group-by
    /// values.
    fn churn_stream(
        reg: &TypeRegistry,
        a: EventTypeId,
        b: EventTypeId,
        c: EventTypeId,
        n: u64,
    ) -> Vec<Event> {
        (0..n)
            .map(|t| {
                let ty = match t % 5 {
                    0 => a,
                    1 => c,
                    _ => b,
                };
                ev(reg, ty, t, (t % 2) as i64, t as f64)
            })
            .collect()
    }

    /// Adding and later removing a query whose window differs (its own
    /// share group) must not perturb the untouched group's output at all.
    #[test]
    fn churn_of_unrelated_query_leaves_other_groups_byte_identical() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let q3 = Query::count_star(7, seq(a, b), Window::tumbling(10));
        let evs = churn_stream(&reg, a, b, c, 100);

        let mut base = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let baseline = collect(&mut base, evs.clone());

        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let mut out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            if i == 33 {
                let rep = eng.add_query(q3.clone()).unwrap();
                assert_eq!(rep.groups_carried, 1, "the {{q1,q2}} group carries over");
                assert_eq!(rep.groups_rebuilt, 1, "q3 starts its own group");
                assert_eq!(rep.epoch, 1);
                out.extend(rep.drained);
            }
            if i == 71 {
                let rep = eng.remove_query(QueryId(7)).unwrap();
                assert_eq!(rep.epoch, 2);
                out.extend(rep.drained);
            }
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        let churned: Vec<WindowResult> =
            out.into_iter().filter(|r| r.query != QueryId(7)).collect();
        assert_eq!(baseline, churned);
        assert_eq!(eng.epoch(), 2);
        assert_eq!(eng.queries().len(), 2);
    }

    /// Removing a query with open windows drains them exactly once at the
    /// barrier and never again.
    #[test]
    fn removed_query_drains_in_flight_windows_once() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let evs = churn_stream(&reg, a, b, c, 30);
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap();
        let mut out = Vec::new();
        for e in &evs {
            out.extend(eng.process(e));
        }
        // Window [20,40) is mid-flight for both queries.
        let rep = eng.remove_query(QueryId(2)).unwrap();
        let q2_drained = rep.drained.iter().filter(|r| r.query == QueryId(2)).count();
        assert!(q2_drained > 0, "q2's open window drains at the barrier");
        let before_flush = out.len() + rep.drained.len();
        out.extend(rep.drained);
        let flushed = eng.flush();
        assert!(
            !flushed.iter().any(|r| r.query == QueryId(2)),
            "a removed query's windows never emit again after the drain"
        );
        out.extend(flushed);
        assert!(out.len() >= before_flush);
        // Each of q2's windows appears exactly once overall.
        let mut seen = std::collections::BTreeSet::new();
        for r in out.iter().filter(|r| r.query == QueryId(2)) {
            assert!(
                seen.insert((r.window_start.ticks(), format!("{}", r.group_key))),
                "duplicate emission for {r:?}"
            );
        }
    }

    /// Removing the last co-member of a shared group: the survivor's
    /// group is rebuilt (drain + re-open), and it keeps producing.
    #[test]
    fn remove_last_member_of_shared_group() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1, q2], EngineConfig::default()).unwrap();
        assert_eq!(eng.num_groups(), 1);
        let evs = churn_stream(&reg, a, b, c, 30);
        let mut out = Vec::new();
        for e in &evs {
            out.extend(eng.process(e));
        }
        let rep = eng.remove_query(QueryId(2)).unwrap();
        assert_eq!(rep.groups_carried, 0, "the shared group was restructured");
        assert_eq!(rep.groups_rebuilt, 1);
        assert_eq!(eng.num_groups(), 1);
        assert!(
            rep.drained.iter().any(|r| r.query == QueryId(1)),
            "q1's mid-flight window drains as a prefix"
        );
        out.extend(rep.drained);
        // q1 keeps producing after the churn.
        for t in 30..60u64 {
            let ty = if t % 5 == 0 { a } else { b };
            out.extend(eng.process(&ev(&reg, ty, t, (t % 2) as i64, 0.0)));
        }
        out.extend(eng.flush());
        assert!(out
            .iter()
            .any(|r| r.query == QueryId(1) && r.window_start.ticks() >= 40));
        // The singleton placement reports solo execution.
        assert_eq!(rep.placements.len(), 1);
        assert!(!rep.placements[0].shared);
        assert_eq!(rep.placements[0].benefit, 0.0);
    }

    /// Adding a query whose Def. 12 benefit is negative (edge predicates
    /// force an event-level snapshot per burst event): the re-priced
    /// placement must not share it.
    #[test]
    fn negative_benefit_add_goes_solo() {
        let (reg, a, b, _) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let mut eng = HamletEngine::new(reg.clone(), vec![q1], EngineConfig::default()).unwrap();
        // Same pattern and window — sharable, so it joins q1's group — but
        // every adjacent B pair must be non-decreasing in v: an edge
        // predicate, the Def. 9 worst case (snapshot per event).
        let v_slot = reg.attr_index(b, "v").unwrap();
        let q9 = Query::new(
            QueryId(9),
            seq(a, b),
            hamlet_query::AggFunc::CountStar,
            vec![],
            vec![hamlet_query::predicate::EdgePredicate {
                ty: b,
                cur_attr: v_slot,
                op: hamlet_query::predicate::CmpOp::Ge,
                prev_attr: v_slot,
            }],
            vec![],
            vec![],
            Window::tumbling(20),
        )
        .unwrap();
        let rep = eng.add_query(q9).unwrap();
        let grp = rep
            .placements
            .iter()
            .find(|p| p.members.len() == 2)
            .expect("q1 and q9 cluster into one group");
        assert!(
            grp.benefit < 0.0,
            "edge predicates make sharing lose: {}",
            grp.benefit
        );
        assert!(!grp.shared, "negative benefit ⇒ solo execution");
    }

    /// Churn error paths: duplicate add, unknown remove, double remove —
    /// and the engine is untouched on error.
    #[test]
    fn churn_errors_leave_engine_untouched() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let mut eng =
            HamletEngine::new(reg.clone(), vec![q1.clone(), q2], EngineConfig::default()).unwrap();
        assert!(matches!(
            eng.add_query(q1.clone()),
            Err(ChurnError::Duplicate(QueryId(1)))
        ));
        assert!(matches!(
            eng.remove_query(QueryId(42)),
            Err(ChurnError::Unknown(QueryId(42)))
        ));
        assert_eq!(eng.epoch(), 0, "failed churn does not bump the epoch");
        eng.remove_query(QueryId(2)).unwrap();
        assert!(matches!(
            eng.remove_query(QueryId(2)),
            Err(ChurnError::Unknown(QueryId(2)))
        ));
        assert_eq!(eng.epoch(), 1);
        // Unsupported workloads are rejected with the compile error and
        // leave the engine running.
        let mut neg = Query::count_star(3, seq(a, b), Window::tumbling(20));
        neg.pattern = Pattern::seq(vec![
            Pattern::Type(a),
            Pattern::Not(Box::new(Pattern::Type(c))),
            Pattern::plus(Pattern::Type(b)),
        ]);
        neg.agg = hamlet_query::AggFunc::Min(b, 1);
        match eng.add_query(neg) {
            Err(ChurnError::Engine(EngineError::Unsupported(_))) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
        assert_eq!(eng.epoch(), 1);
        assert_eq!(eng.queries().len(), 1);
    }

    /// Records are stamped with the workload epoch: a record cut after
    /// churn restores into a fresh engine over the final query set,
    /// which adopts the record's epoch and continues byte-identically;
    /// a pre-churn record no longer restores into the churned engine.
    #[test]
    fn churn_stamps_the_record_epoch() {
        use crate::store::{CutKind, Snapshot};
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let q2 = Query::count_star(2, seq(c, b), Window::tumbling(20));
        let evs = churn_stream(&reg, a, b, c, 90);
        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let mut out = Vec::new();
        for e in &evs[..40] {
            out.extend(eng.process(e));
        }
        let pre_churn = eng.cut(CutKind::Full).unwrap();
        assert_eq!(pre_churn.epoch(), 0);
        let rep = eng.remove_query(QueryId(2)).unwrap();
        out.extend(rep.drained);
        for e in &evs[40..60] {
            out.extend(eng.process(e));
        }
        let post_churn = eng.cut(CutKind::Delta).unwrap();
        assert!(
            !post_churn.is_delta(),
            "churn promotes the next cut to a base"
        );
        assert_eq!(post_churn.epoch(), 1);

        // A fresh engine over the final query set adopts the epoch.
        let mut fresh =
            HamletEngine::new(reg.clone(), vec![q1.clone()], EngineConfig::default()).unwrap();
        fresh.restore_chain(&[post_churn]).unwrap();
        assert_eq!(fresh.epoch(), 1);
        let mut resumed = Vec::new();
        for e in &evs[60..] {
            resumed.extend(fresh.process(e));
        }
        resumed.extend(fresh.flush());
        let mut direct = Vec::new();
        for e in &evs[60..] {
            direct.extend(eng.process(e));
        }
        direct.extend(eng.flush());
        assert_eq!(direct, resumed, "restored suffix is byte-identical");

        // The pre-churn record no longer restores into the churned engine.
        let mut eng2 = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q2.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        eng2.remove_query(QueryId(2)).unwrap();
        assert!(matches!(
            eng2.restore_chain(&[pre_churn]),
            Err(crate::checkpoint::CheckpointError::WorkloadMismatch(_))
        ));
    }

    /// Churn across general (OR/AND) queries: pending halves re-key to
    /// the renumbered combiner table, removed general queries settle
    /// their halves at the barrier, and untouched queries are unaffected.
    #[test]
    fn churn_with_general_queries_settles_pending_halves() {
        let (reg, a, b, c) = registry();
        let q1 = Query::count_star(1, seq(a, b), Window::tumbling(20));
        let mut q_or = Query::count_star(2, seq(a, b), Window::tumbling(20));
        // Branches must be type-disjoint; the left half SEQ(a, b+) shares
        // q1's group, the right half c+ is its own group.
        q_or.pattern = Pattern::Or(
            Box::new(seq(a, b)),
            Box::new(Pattern::plus(Pattern::Type(c))),
        );
        let evs = churn_stream(&reg, a, b, c, 100);

        let mut base = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q_or.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let baseline = collect(&mut base, evs.clone());

        // Remove the OR query mid-stream, then re-add it; q1's output must
        // be untouched, and the OR query's windows all appear.
        let mut eng = HamletEngine::new(
            reg.clone(),
            vec![q1.clone(), q_or.clone()],
            EngineConfig::default(),
        )
        .unwrap();
        let mut out = Vec::new();
        for (i, e) in evs.iter().enumerate() {
            if i == 50 {
                let rep = eng.remove_query(QueryId(2)).unwrap();
                out.extend(rep.drained);
                let rep = eng.add_query(q_or.clone()).unwrap();
                out.extend(rep.drained);
            }
            out.extend(eng.process(e));
        }
        out.extend(eng.flush());
        // q1 shares a group with the OR query's *left half*, so the churn
        // touches it too: its mid-flight window [40,60) splits into a
        // drained prefix plus a reopened suffix (the documented churn
        // contract); every other window is byte-identical to baseline.
        let q1_rows = |rs: &[WindowResult], w: u64| -> Vec<WindowResult> {
            rs.iter()
                .filter(|r| r.query == QueryId(1) && r.window_start.ticks() == w)
                .cloned()
                .collect()
        };
        for w in [0u64, 20, 60, 80] {
            assert_eq!(q1_rows(&baseline, w), q1_rows(&out, w), "window {w}");
        }
        assert_eq!(
            q1_rows(&out, 40).len(),
            2,
            "the mid-flight window splits at the barrier"
        );
        // Every window of the OR query emits (possibly split at the
        // barrier), and they cover the same window starts as baseline.
        let windows = |rs: &[WindowResult], q: u32| -> std::collections::BTreeSet<u64> {
            rs.iter()
                .filter(|r| r.query == QueryId(q))
                .map(|r| r.window_start.ticks())
                .collect()
        };
        assert_eq!(
            windows(&baseline, 2),
            windows(&out, 2),
            "OR query covers the same windows"
        );
    }
}
