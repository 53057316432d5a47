//! `pipeline_paced`: the online `Pipeline` with two workers and a
//! bounded-lateness reorder stage, fed open loop at a fixed rate by a
//! source the benchmark owns, with results landing in a sink the
//! benchmark owns. The only workload that loads the reorder, route,
//! channel and sink layers, and the only one whose latency is the
//! paper's result latency. Ten sliding-window queries put each event
//! into five window instances.
//!
//! Latency of a result row runs from the *scheduled* release of the
//! event that closes its window to the instant the sink receives the
//! row. The closing event of window `[s, s + WITHIN)` is the first
//! event, in arrival order, whose timestamp is at least
//! `s + WITHIN + SLACK`: only then does the watermark release an event
//! at or past the window end to the workers. A row that reaches the
//! sink before its closing event was released means this rule and the
//! engine disagree, and fails the run.
//!
//! At the end of the stream the pipeline is frozen into a checkpoint,
//! appended to a directory store, and resumed from it; the resumed
//! pipeline's drain emits the windows still open, so a bad restore
//! shows up as wrong rows.

use super::{finish_trace, quiet, secs, Budget, Ctx, ScratchDir, StealMeter};
use crate::check::{canonical, mismatches, nonzero, reference};
use crate::report::Report;
use crate::stats::{median, or_zero, quantile};
use crate::sys::{cpu_ticks, peak_rss_mb, reset_peak_rss, HostSpeed, Stopwatch};
use crate::trace::{Tracer, PID_PIPELINE};
use hamlet_core::{
    Checkpoint, CheckpointStore, DirStore, LatencyHistogram, Span, Stage, WindowResult,
};
use hamlet_pipeline::{
    BoundedLateness, Pipeline, PipelineBuilder, ReplaySource, Sink, Source, VecSink,
};
use hamlet_query::{parse_query, Query};
use hamlet_stream::{ridesharing, GenConfig};
use hamlet_types::{Event, TypeRegistry};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard workers.
pub const WORKERS: u32 = 2;
/// Watermark slack, in ticks; the stream is out of order by up to this.
pub const SLACK: u64 = 2;
/// Offered rate, events per second of wall time.
pub const RATE: f64 = 20_000.0;
/// Window length and slide, in ticks.
pub const WITHIN: u64 = 10;
/// Window slide, in ticks.
pub const SLIDE: u64 = 2;
/// Queries in the workload.
pub const QUERIES: usize = 10;
/// Resumes from the stored checkpoint per pass.
const RESUMES: usize = 10;
/// Pipelines spawned and drained per pass for the set-up metric.
const SETUP_REPS: usize = 40;
/// Set-ups between two host speed samples.
const SAMPLE_EVERY: usize = 4;
/// How often the waiting main thread samples host steal.
const STEAL_SAMPLE: Duration = Duration::from_millis(5);
/// How long after its closing event a window's rows are exposed to a
/// host stall, for [`steal_near`].
const STEAL_WINDOW: Duration = Duration::from_millis(25);
/// Span ring capacity per lane in traced passes.
const TRACE_CAPACITY: usize = 1 << 20;

/// The ten `SEQ(X, Travel+)` queries, one per leading event type.
pub fn queries(reg: &TypeRegistry) -> Vec<Query> {
    ridesharing::TYPES
        .iter()
        .filter(|t| **t != "Travel")
        .take(QUERIES)
        .enumerate()
        .map(|(i, first)| {
            parse_query(
                reg,
                i as u32,
                &format!(
                    "RETURN COUNT(*) PATTERN SEQ({first}, Travel+) \
                     GROUP BY district WITHIN {WITHIN} SLIDE {SLIDE}"
                ),
            )
            .expect("workload query parses")
        })
        .collect()
}

/// The stream: 50 events per tick for 1020 ticks over 64 Zipf-skewed
/// districts, delivered out of order by up to `max_lateness` ticks.
pub fn config(seed: u64, max_lateness: u64) -> GenConfig {
    GenConfig {
        events_per_min: 3_000,
        minutes: 17,
        mean_burst: 10.0,
        num_groups: 64,
        group_skew: 0.8,
        seed,
        max_lateness,
    }
}

/// For each window slot (`start / SLIDE`), the arrival index of its
/// closing event, if the stream has one.
pub fn closing_events(events: &[Event]) -> Vec<Option<usize>> {
    let last = events.iter().map(|e| e.time.ticks()).max().unwrap_or(0);
    let mut close = vec![None; (last / SLIDE + 1) as usize];
    let (mut next, mut max_seen) = (0usize, 0u64);
    for (i, e) in events.iter().enumerate() {
        max_seen = max_seen.max(e.time.ticks());
        while next < close.len() && next as u64 * SLIDE + WITHIN + SLACK <= max_seen {
            close[next] = Some(i);
            next += 1;
        }
    }
    close
}

/// What the source saw, handed back when it runs dry.
struct SourceLog {
    start: Instant,
    /// Actual release instant of each distinct closing event, in order.
    released: Vec<Instant>,
    /// How late each release was against its schedule.
    lag: LatencyHistogram,
}

/// Releases event `i` at `start + i / RATE`, whatever the pipeline is
/// doing (open loop), and records how late each release was.
struct PacedSource {
    events: std::vec::IntoIter<Event>,
    i: usize,
    start: Option<Instant>,
    /// Distinct closing-event indices, ascending.
    closings: Arc<Vec<usize>>,
    cursor: usize,
    released: Vec<Instant>,
    lag: LatencyHistogram,
    done: Option<mpsc::Sender<SourceLog>>,
}

impl Source for PacedSource {
    fn next_event(&mut self) -> Option<Event> {
        let Some(e) = self.events.next() else {
            if let (Some(done), Some(start)) = (self.done.take(), self.start) {
                let _ = done.send(SourceLog {
                    start,
                    released: std::mem::take(&mut self.released),
                    lag: std::mem::take(&mut self.lag),
                });
            }
            return None;
        };
        let start = *self.start.get_or_insert_with(Instant::now);
        let due = start + Duration::from_secs_f64(self.i as f64 / RATE);
        let mut now = Instant::now();
        // Sleep, never spin: on a small host the workers need the core
        // more than the generator does. A sleep overshoots by tens of
        // microseconds, so the events that fell due meanwhile go out
        // back to back, each late by what `lag` records.
        while now < due {
            std::thread::sleep(due - now);
            now = Instant::now();
        }
        self.lag.record(now - due);
        if self.closings.get(self.cursor) == Some(&self.i) {
            self.released.push(now);
            self.cursor += 1;
        }
        self.i += 1;
        Some(e)
    }
}

/// Records when each row arrived and keeps the non-zero rows.
#[derive(Default)]
struct LatencySink {
    /// `(arrival, window slot, rows)`: runs of rows of one window slot
    /// that arrived in one batch.
    arrivals: Vec<(Instant, usize, u64)>,
    /// Non-zero rows, for the reference check. Zero rows mean the same
    /// as absent ones and are most of the output, so they are dropped
    /// here rather than held until the end of the pass.
    rows: Vec<WindowResult>,
    /// Rows accepted, zero rows included.
    total: u64,
    /// Accept calls.
    accepts: u64,
    /// `(start, duration)` of each accept call (traced passes only).
    spans: Option<Vec<(Instant, Duration)>>,
}

impl Sink for LatencySink {
    fn accept(&mut self, batch: Vec<WindowResult>) {
        let now = Instant::now();
        self.accepts += 1;
        self.total += batch.len() as u64;
        for r in batch {
            let slot = (r.window_start.ticks() / SLIDE) as usize;
            match self.arrivals.last_mut() {
                Some((t, s, n)) if *t == now && *s == slot => *n += 1,
                _ => self.arrivals.push((now, slot, 1)),
            }
            if nonzero(&r) {
                self.rows.push(r);
            }
        }
        if let Some(spans) = &mut self.spans {
            spans.push((now, now.elapsed()));
        }
    }
}

struct Workload {
    reg: Arc<TypeRegistry>,
    queries: Vec<Query>,
    events: Vec<Event>,
    /// Window slot → position of its closing event in `closings`.
    slot_closing: Vec<Option<usize>>,
    closings: Arc<Vec<usize>>,
}

/// The pipeline as every pass builds it; `traced` turns on its own
/// stage spans.
fn builder(w: &Workload, traced: bool) -> PipelineBuilder {
    let b = Pipeline::builder(w.reg.clone(), w.queries.clone())
        .workers(WORKERS)
        .watermark(BoundedLateness::new(SLACK));
    if traced {
        b.trace(TRACE_CAPACITY)
    } else {
        b
    }
}

struct Pass {
    /// Scaled CPU time of each set-up, in seconds.
    setups: Vec<f64>,
    busy: Duration,
    /// Latency p50, p90 and p99 of the less-stolen timed rows.
    latency_ms: [f64; 3],
    /// Share of timed rows kept as less stolen.
    kept: f64,
    timed_rows: u64,
    recoveries: Vec<f64>,
    peak_rss_mb: f64,
    /// Host steal share during the pass.
    steal: f64,
    layer: std::collections::BTreeMap<&'static str, f64>,
}

fn stage_name(s: Stage) -> Option<&'static str> {
    Some(match s {
        // One span per source pull: a per-event site, kept as counts.
        Stage::Ingest => return None,
        Stage::ReorderRelease => "pipeline.reorder_release",
        Stage::Route => "pipeline.route",
        Stage::ProcessBatch => "executor.process_batch",
        Stage::ExpiryDrain => "executor.expiry_drain",
        Stage::Flush => "executor.flush",
        Stage::CheckpointPause => "checkpoint.pause",
        Stage::ChurnBarrier => "pipeline.churn_barrier",
    })
}

fn import(tracer: &mut Tracer, origin: Instant, spans: &[Span]) {
    let offset = tracer.offset_ns(origin);
    tracer.import(
        PID_PIPELINE,
        spans
            .iter()
            .filter_map(|s| stage_name(s.stage).map(|n| (n, s.lane, s.start_ns + offset, s.dur_ns)))
            .collect(),
    );
}

fn pass(
    w: &Workload,
    traced: bool,
    expected: &[WindowResult],
    ctx: &Ctx,
    no: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Pass, String> {
    // Set-ups are timed in blocks, one per pass, so that each run's
    // median spans the whole run rather than one moment of the host.
    // Set-up and recovery are CPU times, scaled by host speed samples
    // taken among them; latency and the paced throughput are wall times
    // and stay unscaled.
    let mut setup_speed = HostSpeed::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        if i % SAMPLE_EVERY == 0 {
            setup_speed.sample();
        }
        let sw = Stopwatch::start();
        let h = builder(w, false)
            .spawn(ReplaySource::new(Vec::new()), VecSink::new())
            .map_err(|e| format!("spawn: {e}"))?;
        setups.push(secs(sw.stop().1));
        drop(h.drain());
    }
    setup_speed.sample();
    let was_on = tracer.set_on(traced);
    let root = tracer.open("bench.pass", 0, None);
    let store_dir = ScratchDir::create(ctx.scratch.join(format!("pipeline_paced-pass-{no}")))?;
    let store = DirStore::open(&store_dir.0).map_err(|e| format!("store: {e}"))?;
    let (done_tx, done_rx) = mpsc::channel();
    let source = PacedSource {
        events: w.events.clone().into_iter(),
        i: 0,
        start: None,
        closings: w.closings.clone(),
        cursor: 0,
        released: Vec::with_capacity(w.closings.len()),
        lag: LatencyHistogram::new(),
        done: Some(done_tx),
    };
    let sink = LatencySink {
        spans: traced.then(Vec::new),
        ..LatencySink::default()
    };

    reset_peak_rss()?;
    let steal_share = StealMeter::start();
    let t0 = Instant::now();
    let (handle, _) = tracer.time("pipeline.spawn", 0, root, || {
        builder(w, traced).spawn(source, sink)
    });
    let handle = handle.map_err(|e| format!("spawn: {e}"))?;

    // Wait for the source to run dry, sampling host steal (and, traced,
    // the queues) every few milliseconds.
    let (mut reorder_max, mut worker_max, mut sink_max) = (0usize, 0usize, 0usize);
    let mut steal = Vec::new();
    let t = Instant::now();
    let log = loop {
        steal.push((Instant::now(), cpu_ticks().map_or(0, |(s, _)| s)));
        if traced {
            let m = handle.metrics();
            reorder_max = reorder_max.max(m.reorder_depth);
            worker_max = worker_max.max(m.worker_depths.iter().copied().max().unwrap_or(0));
            sink_max = sink_max.max(m.sink_depth);
        }
        match done_rx.recv_timeout(STEAL_SAMPLE) {
            Ok(log) => break log,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return Err("source vanished".into()),
        }
    };
    steal.push((Instant::now(), cpu_ticks().map_or(0, |(s, _)| s)));
    tracer.record("source.paced_stream", 0, root, t, t.elapsed());

    // Freeze at the end of the stream, persist, resume, drain.
    let t = Instant::now();
    let frozen = handle.checkpoint();
    let d_freeze = t.elapsed();
    let busy = t0.elapsed();
    tracer.record("checkpoint.freeze", 0, root, t, d_freeze);
    if traced {
        import(tracer, t0, &frozen.spans);
    }
    let t = Instant::now();
    let record = Checkpoint::from_bytes(frozen.checkpoint.to_bytes())
        .map_err(|e| format!("checkpoint: {e}"))?;
    let d_encode = t.elapsed();
    tracer.record("checkpoint.encode", 0, root, t, d_encode);
    let t = Instant::now();
    store
        .append(&record)
        .map_err(|e| format!("store append: {e}"))?;
    let d_append = t.elapsed();
    tracer.record("store.append", 0, root, t, d_append);
    let t = Instant::now();
    let chain_len = store
        .load_chain()
        .map_err(|e| format!("load chain: {e}"))?
        .len();
    let d_load = t.elapsed();
    tracer.record("store.load_chain", 0, root, t, d_load);
    if chain_len != 1 {
        return Err(format!("store holds {chain_len} records, expected 1"));
    }

    let mut recoveries = Vec::with_capacity(RESUMES);
    let mut last = None;
    let mut recovery_speed = HostSpeed::new();
    for r in 0..RESUMES {
        recovery_speed.sample();
        let t = Instant::now();
        let (resumed, took) = tracer.time("pipeline.resume", 0, root, || {
            builder(w, traced).resume_from(&store, ReplaySource::new(Vec::new()), VecSink::new())
        });
        let resumed = resumed.map_err(|e| format!("resume: {e}"))?;
        recoveries.push(secs(took.cpu));
        if r + 1 < RESUMES {
            drop(resumed.checkpoint());
        } else {
            last = Some((resumed, t));
        }
    }
    recovery_speed.sample();
    let t = Instant::now();
    let (last, resumed_at) = last.ok_or("no resume ran")?;
    let mut drained = last.drain();
    let d_drain = t.elapsed();
    tracer.record("pipeline.drain", 0, root, t, d_drain);
    tracer.close(root);
    let sink = frozen.sink;
    if let Some(spans) = &sink.spans {
        for &(start, dur) in spans {
            tracer.record("sink.accept", 1, None, start, dur);
        }
    }
    tracer.set_on(was_on);
    let peak_rss_mb = peak_rss_mb()?;
    let steal_share = steal_share.share();

    // Latency, and the closing-rule self-check.
    let mut timed = Vec::new();
    let (mut early, mut timed_rows) = (0u64, 0u64);
    let mut closed: BTreeSet<usize> = BTreeSet::new();
    for &(arrived, slot, n) in &sink.arrivals {
        let Some(Some(pos)) = w.slot_closing.get(slot) else {
            continue; // closed by the end of the stream, not by an event
        };
        let Some(released) = log.released.get(*pos) else {
            return Err("source did not record a closing release".into());
        };
        timed_rows += n;
        closed.insert(slot);
        if arrived < *released {
            early += n;
        }
        let due = log.start + Duration::from_secs_f64(w.closings[*pos] as f64 / RATE);
        let row = (
            steal_near(&steal, due),
            arrived.saturating_duration_since(due).as_secs_f64() * 1e3,
        );
        timed.extend(std::iter::repeat_n(row, n as usize));
    }
    let (latency_ms, kept) = pass_latency(&timed);
    let accepts = sink.accepts;
    let results = (sink.total as usize + drained.sink.results.len()) as f64;
    let mut rows = sink.rows;
    rows.extend(std::mem::take(&mut drained.sink.results));
    let got = canonical(rows);
    report.check(expected.len() as u64, mismatches(expected, &got));
    report.check(timed_rows, early);
    report.check(1, u64::from(drained.late != 0));
    if early > 0 {
        report.notes.push(format!(
            "pipeline_paced: {early} rows reached the sink before their closing event was released"
        ));
    }

    let mut layer = std::collections::BTreeMap::new();
    if traced {
        import(tracer, resumed_at, &drained.spans);
        let stats = drained.merged_stats();
        let batch_us: Vec<f64> = frozen
            .spans
            .iter()
            .filter(|s| s.stage == Stage::ProcessBatch)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        let busy_s = batch_us.iter().sum::<f64>() / 1e6;
        let emit_busy_s = emitting_batches_s(&frozen.spans);
        let flush_s = drained
            .spans
            .iter()
            .filter(|s| s.stage == Stage::Flush)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum::<f64>();
        let routed: Vec<f64> = frozen
            .stats
            .iter()
            .map(|s| s.events_routed as f64)
            .collect();
        let runs = stats.expiry_pushes as f64;
        let bursts = (stats.runs.shared_bursts + stats.runs.solo_bursts) as f64;
        for (k, v) in [
            ("executor.batch_calls", batch_us.len() as f64),
            ("executor.batch_busy_s", busy_s),
            ("executor.batch_p50_us", or_zero(quantile(&batch_us, 0.5))),
            ("executor.batch_p99_us", or_zero(quantile(&batch_us, 0.99))),
            (
                "executor.busy_ns_per_event",
                busy_s * 1e9 / w.events.len() as f64,
            ),
            ("executor.flush_s", flush_s),
            ("executor.results", results),
            ("executor.emit_busy_s", emit_busy_s),
            ("executor.runs_created", runs),
            ("executor.busy_ns_per_run", or_zero(busy_s * 1e9 / runs)),
            ("optimizer.decisions", stats.decisions as f64),
            (
                "optimizer.shared_frac",
                or_zero(stats.runs.shared_bursts as f64 / bursts),
            ),
            (
                "optimizer.transitions",
                (stats.runs.merges + stats.runs.splits) as f64,
            ),
            ("run.snapshots", stats.runs.snapshots() as f64),
            ("checkpoint.cuts", 1.0),
            ("checkpoint.cut_busy_s", secs(d_freeze + d_encode)),
            (
                "checkpoint.cut_full_p50_ms",
                secs(d_freeze + d_encode) * 1e3,
            ),
            ("checkpoint.base_bytes", record.len() as f64),
            ("store.append_busy_s", secs(d_append)),
            ("store.append_p99_ms", secs(d_append) * 1e3),
            ("store.load_chain_ms", secs(d_load) * 1e3),
            ("source.lag_p50_ms", secs(log.lag.p50()) * 1e3),
            ("source.lag_p99_ms", secs(log.lag.p99()) * 1e3),
            ("watermark.reorder_depth_max", reorder_max as f64),
            ("pipeline.worker_depth_max", worker_max as f64),
            ("pipeline.sink_depth_max", sink_max as f64),
            (
                "pipeline.shard_skew",
                or_zero(
                    routed.iter().copied().fold(0.0, f64::max)
                        / (routed.iter().sum::<f64>() / routed.len() as f64),
                ),
            ),
            ("pipeline.late", drained.late as f64),
            ("pipeline.drain_s", secs(d_drain)),
            ("sink.accepts", accepts as f64),
            (
                "sink.rows_per_accept",
                or_zero(timed_rows as f64 / accepts as f64),
            ),
            ("sink.closings", closed.len() as f64),
        ] {
            layer.insert(k, v);
        }
    }
    Ok(Pass {
        setups: setups.iter().map(|t| t * setup_speed.scale()).collect(),
        busy,
        latency_ms,
        kept,
        timed_rows,
        recoveries: recoveries
            .iter()
            .map(|t| t * recovery_speed.scale())
            .collect(),
        peak_rss_mb,
        steal: steal_share,
        layer,
    })
}

/// Host steal ticks (all CPUs, from `/proc/stat`) around `due`: from
/// the last sample at or before it to the first at least
/// [`STEAL_WINDOW`] after it.
fn steal_near(samples: &[(Instant, u64)], due: Instant) -> u64 {
    let from = samples
        .partition_point(|(t, _)| *t <= due)
        .saturating_sub(1);
    let to = samples
        .partition_point(|(t, _)| *t < due + STEAL_WINDOW)
        .min(samples.len() - 1);
    samples[to].1.saturating_sub(samples[from].1)
}

/// Latency p50, p90 and p99 over the timed rows of one pass whose
/// closing saw no more host steal than the pass's median row did, and
/// the share of rows kept.
///
/// On a shared virtual host the hypervisor now and then stops a vCPU
/// for milliseconds; a closing caught in such a stall reads the stall,
/// and how many closings are caught swings from minute to minute with
/// the neighbours' load. Timing only the less-stolen half keeps the
/// latency a property of the program.
fn pass_latency(rows: &[(u64, f64)]) -> ([f64; 3], f64) {
    let mut scores: Vec<u64> = rows.iter().map(|r| r.0).collect();
    scores.sort_unstable();
    let limit = scores.get(scores.len() / 2).copied().unwrap_or(0);
    let kept: Vec<f64> = rows.iter().filter(|r| r.0 <= limit).map(|r| r.1).collect();
    let share = kept.len() as f64 / rows.len().max(1) as f64;
    ([0.5, 0.9, 0.99].map(|q| quantile(&kept, q)), share)
}

/// Seconds spent in worker `process_batch` calls that closed at least
/// one window: batches enclosing an expiry-drain span on their lane.
fn emitting_batches_s(spans: &[Span]) -> f64 {
    let drains: Vec<(u32, u64)> = spans
        .iter()
        .filter(|s| s.stage == Stage::ExpiryDrain)
        .map(|s| (s.lane, s.start_ns))
        .collect();
    spans
        .iter()
        .filter(|s| s.stage == Stage::ProcessBatch)
        .filter(|b| {
            drains
                .iter()
                .any(|&(lane, at)| lane == b.lane && at >= b.start_ns && at < b.start_ns + b.dur_ns)
        })
        .map(|b| b.dur_ns as f64 / 1e9)
        .sum()
}

/// Runs `pipeline_paced` for the budget in `ctx`.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let reg = ridesharing::registry();
    let queries = queries(&reg);
    let events = ridesharing::generate(&reg, &config(ctx.seed, SLACK));
    let in_order = ridesharing::generate(&reg, &config(ctx.seed, 0));
    let expected = reference(&reg, &queries, &in_order)?;
    drop(in_order);
    let close = closing_events(&events);
    let closings: Vec<usize> = close
        .iter()
        .flatten()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let slot_closing = close
        .iter()
        .map(|c| c.map(|i| closings.binary_search(&i).expect("closing index listed")))
        .collect();
    let w = Workload {
        reg,
        queries,
        events,
        slot_closing,
        closings: Arc::new(closings),
    };
    let mut report = Report::default();
    report.notes.push(format!(
        "pipeline_paced: {} events at {RATE} ev/s, {} queries, {} window closings, {} reference rows",
        w.events.len(),
        w.queries.len(),
        w.closings.len(),
        expected.len()
    ));

    let mut tracer = Tracer::new(ctx.trace);
    let mut setups = Vec::new();
    let budget = Budget::new(ctx.seconds, if ctx.trace { 2 } else { 3 });
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut done = 0;
    while budget.more(done) {
        let trace_this = ctx.trace && done % 2 == 1;
        let p = pass(
            &w,
            trace_this,
            &expected,
            ctx,
            done,
            &mut tracer,
            &mut report,
        )?;
        setups.extend_from_slice(&p.setups);
        if trace_this {
            traced.push(p);
        } else {
            plain.push(p);
        }
        done += 1;
    }
    let n = w.events.len() as f64;
    // Set-up, recovery and peak RSS pool every untraced pass, so they
    // span the whole run; throughput and latency come from the quiet
    // ones. Each latency is the median over passes of the pass's
    // percentile.
    let all = plain;
    let plain = quiet(&all, |p| p.steal);
    let lat =
        |ps: &[&Pass], i: usize| median(&ps.iter().map(|p| p.latency_ms[i]).collect::<Vec<_>>());
    let recoveries: Vec<f64> = all.iter().flat_map(|p| p.recoveries.clone()).collect();
    report.notes.push(format!(
        "pipeline_paced: throughput and latency from the {} quietest of {} untraced passes \
         (host steal {:.1}%), {} timed rows ({:.0}% kept as less stolen); \
         {} resumes, {} set-ups; latency p90 {:.3} ms, p99 {:.3} ms",
        plain.len(),
        all.len(),
        median(&plain.iter().map(|p| p.steal).collect::<Vec<_>>()) * 100.0,
        plain.iter().map(|p| p.timed_rows).sum::<u64>(),
        median(&plain.iter().map(|p| p.kept).collect::<Vec<_>>()) * 100.0,
        recoveries.len(),
        setups.len(),
        lat(&plain, 1),
        lat(&plain, 2),
    ));

    if !ctx.trace {
        report.set("setup_s", median(&setups));
        report.set(
            "throughput_eps",
            median(&plain.iter().map(|p| n / secs(p.busy)).collect::<Vec<_>>()),
        );
        report.set("latency_p50_ms", lat(&plain, 0));
        report.set("recovery_s", median(&recoveries));
        report.set(
            "peak_rss_mb",
            median(&all.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
        );
        return Ok(report);
    }

    let traced_passes = traced.len();
    let traced = quiet(&traced, |p| p.steal);
    let keys: Vec<&'static str> = traced[0].layer.keys().copied().collect();
    for k in keys {
        let vals: Vec<f64> = traced.iter().map(|p| p.layer[k]).collect();
        report.set(k, median(&vals));
    }
    report.set("pipeline.latency_p90_ms", lat(&traced, 1));
    report.set(
        "trace.overhead_frac",
        lat(&traced, 0) / lat(&plain, 0) - 1.0,
    );
    finish_trace(&mut report, &tracer, ctx, "pipeline_paced", traced_passes)?;
    Ok(report)
}
