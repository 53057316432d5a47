//! One offline `HamletEngine` fed 1024-event `process_batch` calls, as
//! `stock_diverse` and `rideshare_highcard` run it.
//!
//! A pass builds a fresh engine, feeds the whole stream (cutting a
//! checkpoint chain into a `DirStore` when the workload asks for one),
//! cuts once more after the last event, recovers new engines from the
//! stored chain, checks that the recovered engine's full cut is
//! byte-identical to the survivor's, and flushes the *recovered* engine
//! — so a bad restore shows up as wrong rows.
//!
//! The work is single-threaded, so its times are the thread's CPU time:
//! on a shared virtual host, wall time also counts whatever the
//! hypervisor gave to other guests, which swings from run to run. Store
//! appends are the exception: they wait on the disk, so they count at
//! wall time. Every CPU time is then scaled to the nominal host by a
//! [`HostSpeed`] sampled among the timed calls; wall times are not. Raw wall-clock throughput
//! is printed alongside.

use super::{finish_trace, quiet, secs, Budget, Ctx, ScratchDir, StealMeter};
use crate::check::{canonical, mismatches, reference};
use crate::report::Report;
use crate::stats::{median, or_zero, quantile};
use crate::sys::{peak_rss_mb, reset_peak_rss, HostSpeed, Stopwatch};
use crate::trace::{Took, Tracer};
use hamlet_core::{
    CheckpointStore, CutKind, DirStore, EngineConfig, EngineStats, HamletEngine, SharingPolicy,
    Snapshot, WindowResult,
};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Events per `process_batch` call.
pub const BATCH: usize = 1024;
/// Every this-many inline cuts is a full base; the rest are deltas.
pub const FULL_EVERY: u64 = 8;
/// Recoveries from the stored chain per pass.
pub const RECOVERIES: usize = 5;
/// Engines built and dropped per pass for the set-up metric.
pub const SETUP_REPS: usize = 40;
/// Set-ups between two host speed samples; batches between two are
/// twice as many.
const SAMPLE_EVERY: usize = 4;

/// An offline workload: a workload, its stream, and the checkpoint
/// cadence.
pub struct Offline {
    /// Schema.
    pub reg: Arc<TypeRegistry>,
    /// Queries.
    pub queries: Vec<Query>,
    /// The stream, in order.
    pub events: Vec<Event>,
    /// Events between inline cuts; `None` cuts only after the stream.
    pub cut_every: Option<usize>,
}

/// How a pass runs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mode {
    /// The measured configuration, no spans.
    Plain,
    /// The measured configuration with spans and the gauge probe.
    Traced,
    /// Identical but under `SharingPolicy::NeverShare` (share gain).
    NeverShare,
}

/// What one pass measured.
struct Pass {
    /// Scaled CPU time of each set-up, in seconds.
    setups: Vec<f64>,
    /// Stream processing (inline cuts and appends included) plus flush:
    /// scaled CPU time, plus the appends' wall time.
    busy: Duration,
    /// The same at wall time, unscaled.
    busy_wall: Duration,
    /// The host speed scale of the stream, already applied to its CPU
    /// times. Set-ups and recoveries have scales of their own.
    scale: f64,
    batch_ms: Vec<f64>,
    recoveries: Vec<f64>,
    peak_rss_mb: f64,
    /// Host steal share during the pass.
    steal: f64,
    /// Per-layer values (traced passes only).
    layer: BTreeMap<&'static str, f64>,
}

fn new_engine(
    w: &Offline,
    policy: SharingPolicy,
    tracer: &mut Tracer,
    root: Option<usize>,
) -> Result<(HamletEngine, Took), String> {
    let queries = w.queries.clone();
    let cfg = EngineConfig {
        policy,
        ..EngineConfig::default()
    };
    let (eng, took) = tracer.time("executor.new", 0, root, || {
        HamletEngine::new(w.reg.clone(), queries, cfg)
    });
    Ok((eng.map_err(|e| format!("engine: {e}"))?, took))
}

/// Cut sizes and times of one pass.
#[derive(Default)]
struct Cuts {
    full_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    base_bytes: Vec<f64>,
    delta_bytes: Vec<f64>,
    append_ms: Vec<f64>,
}

impl Cuts {
    /// Cuts one record and appends it to `store`; returns the cut's CPU
    /// time, the append's wall time, and the wall time of both.
    fn cut(
        &mut self,
        eng: &mut HamletEngine,
        store: &DirStore,
        kind: CutKind,
        tracer: &mut Tracer,
        root: Option<usize>,
    ) -> Result<(Duration, Duration, Duration), String> {
        let (ck, cut) = tracer.time("checkpoint.cut", 0, root, || eng.cut(kind));
        let ck = ck.map_err(|e| format!("cut: {e}"))?;
        if ck.is_delta() {
            self.delta_ms.push(secs(cut.cpu) * 1e3);
            self.delta_bytes.push(ck.len() as f64);
        } else {
            self.full_ms.push(secs(cut.cpu) * 1e3);
            self.base_bytes.push(ck.len() as f64);
        }
        let (ok, append) = tracer.time("store.append", 0, root, || store.append(&ck));
        ok.map_err(|e| format!("store append: {e}"))?;
        self.append_ms.push(secs(append.wall) * 1e3);
        Ok((cut.cpu, append.wall, cut.wall + append.wall))
    }

    fn count(&self) -> usize {
        self.full_ms.len() + self.delta_ms.len()
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// One pass; adds its checks to `report`.
fn pass(
    w: &Offline,
    mode: Mode,
    expected: &[WindowResult],
    dir: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Pass, String> {
    let policy = match mode {
        Mode::NeverShare => SharingPolicy::NeverShare,
        Mode::Plain | Mode::Traced => SharingPolicy::Dynamic,
    };
    // Set-ups are timed in blocks, one per pass, so that each run's
    // median spans the whole run rather than one moment of the host.
    let mut setup_speed = HostSpeed::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        if i % SAMPLE_EVERY == 0 {
            setup_speed.sample();
        }
        let queries = w.queries.clone();
        let sw = Stopwatch::start();
        let eng = HamletEngine::new(w.reg.clone(), queries, EngineConfig::default());
        setups.push(secs(sw.stop().1));
        let eng = eng.map_err(|e| format!("engine: {e}"))?;
        drop(std::hint::black_box(eng));
    }
    setup_speed.sample();
    let was_on = tracer.set_on(mode == Mode::Traced);
    let store_dir = ScratchDir::create(dir.to_path_buf())?;
    let store = DirStore::open(&store_dir.0).map_err(|e| format!("store: {e}"))?;
    reset_peak_rss()?;
    let steal = StealMeter::start();
    let root = tracer.open("bench.pass", 0, None);
    let (mut eng, _) = new_engine(w, policy, tracer, root)?;

    let mut rows = Vec::new();
    let mut batch_ms = Vec::with_capacity(w.events.len() / BATCH + 1);
    let (mut busy, mut busy_wall) = (Duration::ZERO, Duration::ZERO);
    let mut append_wall = Duration::ZERO;
    let (mut batch_busy, mut emit_busy) = (Duration::ZERO, Duration::ZERO);
    let mut cuts = Cuts::default();
    let mut cut_no = 0u64;
    let mut speed = HostSpeed::new();
    speed.sample();
    for (i, chunk) in w.events.chunks(BATCH).enumerate() {
        let (out, took) = tracer.time("executor.process_batch", 0, root, || {
            eng.process_batch(std::hint::black_box(chunk))
        });
        batch_ms.push(secs(took.cpu) * 1e3);
        batch_busy += took.cpu;
        busy += took.cpu;
        busy_wall += took.wall;
        if !out.is_empty() {
            emit_busy += took.cpu;
        }
        rows.extend(out);
        if i % (2 * SAMPLE_EVERY) == 2 * SAMPLE_EVERY - 1 {
            speed.sample();
        }
        if let Some(every) = w.cut_every {
            if ((i + 1) * BATCH).is_multiple_of(every) {
                let kind = if cut_no.is_multiple_of(FULL_EVERY) {
                    CutKind::Full
                } else {
                    CutKind::Delta
                };
                cut_no += 1;
                let (cpu, append, wall) = cuts.cut(&mut eng, &store, kind, tracer, root)?;
                busy += cpu;
                append_wall += append;
                busy_wall += wall;
            }
        }
    }
    let stats: EngineStats = *eng.stats();

    // The final record: the rest of the chain, or the only (full) cut.
    let last = if w.cut_every.is_some() {
        CutKind::Delta
    } else {
        CutKind::Full
    };
    cuts.cut(&mut eng, &store, last, tracer, root)?;

    let mut layer = BTreeMap::new();
    if mode == Mode::Traced {
        let (bytes, took) = tracer.time("metrics.state_bytes", 0, root, || eng.state_bytes());
        layer.insert("metrics.state_bytes", bytes as f64);
        layer.insert("metrics.state_bytes_call_us", secs(took.cpu) * 1e6);
    }

    let mut recoveries = Vec::with_capacity(RECOVERIES);
    let (mut load_ms, mut restore_ms) = (Vec::new(), Vec::new());
    let mut recovered = None;
    let mut recovery_speed = HostSpeed::new();
    for _ in 0..RECOVERIES {
        recovery_speed.sample();
        let (chain, load) = tracer.time("store.load_chain", 0, root, || store.load_chain());
        let chain = chain.map_err(|e| format!("load chain: {e}"))?;
        let (mut fresh, new) = new_engine(w, policy, tracer, root)?;
        let (ok, restore) = tracer.time("checkpoint.restore_chain", 0, root, || {
            fresh.restore_chain(&chain)
        });
        ok.map_err(|e| format!("restore chain: {e}"))?;
        recoveries.push(secs(load.cpu + new.cpu + restore.cpu));
        load_ms.push(secs(load.cpu) * 1e3);
        restore_ms.push(secs(restore.cpu) * 1e3);
        recovered = Some(fresh);
    }
    recovery_speed.sample();
    let mut recovered = recovered.ok_or("no recovery ran")?;

    // The recovered engine must hold exactly the survivor's state.
    let (pair, _) = tracer.time("checkpoint.verify_cut", 0, root, || {
        (eng.cut(CutKind::Full), recovered.cut(CutKind::Full))
    });
    let identical = match pair {
        (Ok(a), Ok(b)) => a.as_bytes() == b.as_bytes(),
        (Err(e), _) | (_, Err(e)) => return Err(format!("cut: {e}")),
    };
    drop(eng);

    let (flushed, flush) = tracer.time("executor.flush", 0, root, || recovered.flush());
    rows.extend(flushed);
    busy += flush.cpu;
    busy_wall += flush.wall;
    tracer.close(root);
    tracer.set_on(was_on);
    let peak_rss_mb = peak_rss_mb()?;
    let steal = steal.share();
    let scale = speed.scale();

    let results = rows.len() as f64;
    let got = canonical(rows);
    report.check(expected.len() as u64, mismatches(expected, &got));
    report.check(1, u64::from(!identical));

    if mode == Mode::Traced {
        let busy_s = secs(batch_busy);
        let runs = stats.expiry_pushes as f64;
        let bursts = (stats.runs.shared_bursts + stats.runs.solo_bursts) as f64;
        for (k, v) in [
            ("executor.batch_calls", batch_ms.len() as f64),
            ("executor.batch_busy_s", busy_s),
            ("executor.batch_p50_us", quantile(&batch_ms, 0.5) * 1e3),
            ("executor.batch_p99_us", quantile(&batch_ms, 0.99) * 1e3),
            (
                "executor.busy_ns_per_event",
                busy_s * 1e9 / w.events.len() as f64,
            ),
            ("executor.flush_s", secs(flush.cpu)),
            ("executor.results", results),
            ("executor.emit_busy_s", secs(emit_busy)),
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
            ("checkpoint.cuts", cuts.count() as f64),
            (
                "checkpoint.cut_busy_s",
                (cuts.full_ms.iter().sum::<f64>() + cuts.delta_ms.iter().sum::<f64>()) / 1e3,
            ),
            ("checkpoint.cut_full_p50_ms", or_zero(median(&cuts.full_ms))),
            (
                "checkpoint.cut_delta_p50_ms",
                or_zero(median(&cuts.delta_ms)),
            ),
            ("checkpoint.base_bytes", or_zero(median(&cuts.base_bytes))),
            (
                "checkpoint.delta_bytes_mean",
                or_zero(mean(&cuts.delta_bytes)),
            ),
            (
                "checkpoint.delta_ratio",
                or_zero(mean(&cuts.delta_bytes) / median(&cuts.base_bytes)),
            ),
            (
                "store.append_busy_s",
                cuts.append_ms.iter().sum::<f64>() / 1e3,
            ),
            (
                "store.append_p99_ms",
                or_zero(quantile(&cuts.append_ms, 0.99)),
            ),
            ("store.load_chain_ms", median(&load_ms)),
            ("checkpoint.restore_chain_ms", median(&restore_ms)),
        ] {
            layer.insert(k, v);
        }
    }
    Ok(Pass {
        setups: setups.iter().map(|t| t * setup_speed.scale()).collect(),
        busy: busy.mul_f64(scale) + append_wall,
        busy_wall,
        batch_ms: batch_ms.iter().map(|t| t * scale).collect(),
        recoveries: recoveries
            .iter()
            .map(|t| t * recovery_speed.scale())
            .collect(),
        scale,
        peak_rss_mb,
        steal,
        layer,
    })
}

/// Runs an offline workload for the budget in `ctx`.
pub fn run(w: &Offline, ctx: &Ctx, name: &str) -> Result<Report, String> {
    let mut report = Report::default();
    let expected = reference(&w.reg, &w.queries, &w.events)?;
    let n = w.events.len() as f64;
    report.notes.push(format!(
        "{name}: {} events, {} queries, {} reference rows",
        w.events.len(),
        w.queries.len(),
        expected.len()
    ));

    let mut tracer = Tracer::new(ctx.trace);
    let mut setups = Vec::new();

    // Untraced runs repeat the measured pass; traced runs rotate
    // through an untraced pass (the overhead baseline), a traced pass
    // and a never-share pass (the share-gain baseline).
    let modes: &[Mode] = if ctx.trace {
        &[Mode::Plain, Mode::Traced, Mode::NeverShare]
    } else {
        &[Mode::Plain]
    };
    let budget = Budget::new(ctx.seconds, 3);
    let mut by_mode: BTreeMap<Mode, Vec<Pass>> = BTreeMap::new();
    let mut done = 0;
    while budget.more(done) {
        let mode = modes[done % modes.len()];
        let dir = ctx.scratch.join(format!("{name}-pass-{done}"));
        let p = pass(w, mode, &expected, &dir, &mut tracer, &mut report)?;
        setups.extend_from_slice(&p.setups);
        by_mode.entry(mode).or_default().push(p);
        done += 1;
    }

    let quiet_of = |mode| quiet(by_mode.get(&mode).map_or(&[][..], |v| &v[..]), |p| p.steal);
    let plain = quiet_of(Mode::Plain);
    // Set-up, recovery and peak RSS pool every untraced pass, so they
    // span the whole run; throughput and latency come from the quiet
    // ones.
    let all = &by_mode[&Mode::Plain];
    let busy = |ps: &[&Pass]| median(&ps.iter().map(|p| secs(p.busy)).collect::<Vec<_>>());
    // Latency percentiles pool every batch of the quiet untraced passes.
    let batch_ms: Vec<f64> = plain.iter().flat_map(|p| p.batch_ms.clone()).collect();
    let recoveries: Vec<f64> = all.iter().flat_map(|p| p.recoveries.clone()).collect();
    let wall_tput = median(
        &plain
            .iter()
            .map(|p| n / secs(p.busy_wall))
            .collect::<Vec<_>>(),
    );
    report.notes.push(format!(
        "{name}: throughput and latency from the {} quietest of {} untraced passes \
         (host steal {:.1}%, speed scale {:.3}), {} batches (latency p90 {:.3} ms); \
         {} recoveries, {} set-ups; raw wall-clock throughput {wall_tput:.0} ev/s",
        plain.len(),
        all.len(),
        median(&plain.iter().map(|p| p.steal).collect::<Vec<_>>()) * 100.0,
        median(&plain.iter().map(|p| p.scale).collect::<Vec<_>>()),
        batch_ms.len(),
        quantile(&batch_ms, 0.9),
        recoveries.len(),
        setups.len()
    ));

    if !ctx.trace {
        report.set("setup_s", median(&setups));
        report.set("throughput_eps", n / busy(&plain));
        report.set("latency_p50_ms", quantile(&batch_ms, 0.5));
        report.set("recovery_s", median(&recoveries));
        report.set(
            "peak_rss_mb",
            median(&all.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
        );
        return Ok(report);
    }

    let traced = quiet_of(Mode::Traced);
    let never = quiet_of(Mode::NeverShare);
    let keys: Vec<&'static str> = traced[0].layer.keys().copied().collect();
    for k in keys {
        let vals: Vec<f64> = traced.iter().map(|p| p.layer[k]).collect();
        report.set(k, median(&vals));
    }
    report.set("optimizer.share_gain", busy(&never) / busy(&plain));
    report.set("trace.overhead_frac", busy(&traced) / busy(&plain) - 1.0);
    let traced_passes = by_mode[&Mode::Traced].len();
    finish_trace(&mut report, &tracer, ctx, name, traced_passes)?;
    Ok(report)
}
