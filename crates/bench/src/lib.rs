//! # hamlet-bench
//!
//! The measurement harness that regenerates every figure of the HAMLET
//! evaluation (§6.2). [`run_system`] feeds one stream through one system
//! under test and reports the paper's three metrics — latency, throughput,
//! peak memory — plus the sharing counters behind the dynamic-vs-static
//! analysis. The `figures` binary prints each figure's series; Criterion
//! benches in `benches/` cover the same axes with statistical rigor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hamlet_baselines::{GretaEngine, SharonEngine, TwoStepEngine};
use hamlet_core::{EngineConfig, HamletEngine, ParallelEngine, SharingPolicy};
use hamlet_pipeline::{CountingSink, Pipeline, ReplaySource};
use hamlet_query::Query;
use hamlet_types::{Event, TypeRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod figures;
pub mod json;

/// The systems compared in §6 (Table 1 / Fig. 9).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum System {
    /// HAMLET with the dynamic sharing optimizer (§4).
    Hamlet,
    /// HAMLET's executor under a static always-share plan (§6.2).
    HamletStatic,
    /// HAMLET's executor with sharing disabled (cum-based non-shared).
    HamletNoShare,
    /// The GRETA baseline (per-query predecessor scans, §3.2).
    Greta,
    /// The SHARON-style flattening baseline (no Kleene support, §6.1).
    Sharon,
    /// The MCEP-style two-step baseline (trend construction).
    TwoStep,
    /// HAMLET's shared-nothing parallel path: `n` shard-owning engines
    /// behind a batching router (`hamlet_core::ParallelEngine`).
    HamletParallel(u32),
    /// The online streaming runtime (`hamlet_pipeline`): `n` shard
    /// workers fed event-by-event through bounded channels. The system
    /// behind the `fig_latency` sustained-load sweep.
    HamletPipeline(u32),
    /// The dynamic engine driven through the preserved per-event
    /// reference path (`HamletEngine::process_reference`) — the
    /// denominator of the `fig_batch` speedup sweep.
    HamletEvent,
    /// The dynamic engine fed `n`-event batches through
    /// `HamletEngine::process_batch` — the numerator of `fig_batch` and
    /// the path every production caller now uses.
    HamletBatch(usize),
    /// The live engine evolving its workload online via
    /// `HamletEngine::add_query` / `remove_query`: only the share groups
    /// a change touches are rebuilt, untouched state carries over, and
    /// affected windows drain at the churn barrier. Driven by
    /// [`figures::fig_churn`], which owns the churn schedule
    /// (`run_system`'s signature cannot express one).
    HamletChurn,
    /// The restart-per-change baseline (`fig_churn`'s denominator): what
    /// an operator without churn support must do at every workload
    /// change — rebuild the engine from scratch and replay every event
    /// still inside an open window. Also driven by
    /// [`figures::fig_churn`].
    HamletRestart,
    /// The production batched engine with per-share-group observability
    /// counters on (`EngineConfig::obs`, the default) — the instrumented
    /// side of the `fig_obs` overhead A/B.
    HamletObs,
    /// The same engine with observability off — `fig_obs`'s
    /// uninstrumented denominator. CI gates the throughput ratio of the
    /// two (`perf_gate --max-obs-overhead`).
    HamletNoObs,
    /// The engine taking fixed-cadence **delta** checkpoints into a
    /// [`hamlet_core::CheckpointStore`] while it runs, then recovering
    /// a fresh engine from the stored base + delta chain. The system
    /// behind `fig_checkpoint`'s sustained-overhead and recovery-time
    /// sweeps. Driven by [`figures::fig_checkpoint`] (the cadence and
    /// compaction schedule live there).
    HamletDeltaChain,
    /// The identical engine and loop with no checkpointing at all —
    /// `fig_checkpoint`'s denominator for the sustained cadence
    /// overhead (`perf_gate --max-cadence-overhead`). Also driven by
    /// [`figures::fig_checkpoint`].
    HamletNoCheckpoint,
    /// The `n`-worker parallel shard set taking coordinated fixed-cadence
    /// delta cuts, then recovering a fresh shard set from the chain. Also
    /// driven by [`figures::fig_checkpoint`].
    HamletParallelDelta(u32),
}

impl System {
    /// Display name used in tables and in `BENCH.json`.
    pub fn name(&self) -> String {
        match self {
            System::Hamlet => "HAMLET".into(),
            System::HamletStatic => "HAMLET-static".into(),
            System::HamletNoShare => "HAMLET-noshare".into(),
            System::Greta => "GRETA".into(),
            System::Sharon => "SHARON".into(),
            System::TwoStep => "MCEP-2step".into(),
            System::HamletParallel(w) => format!("HAMLET-par{w}"),
            System::HamletPipeline(w) => format!("HAMLET-pipe{w}"),
            System::HamletEvent => "HAMLET-event".into(),
            System::HamletBatch(_) => "HAMLET-batch".into(),
            System::HamletChurn => "HAMLET-churn".into(),
            System::HamletRestart => "HAMLET-restart".into(),
            System::HamletObs => "HAMLET-obs".into(),
            System::HamletNoObs => "HAMLET-noobs".into(),
            System::HamletDeltaChain => "HAMLET-delta".into(),
            System::HamletNoCheckpoint => "HAMLET-nockpt".into(),
            System::HamletParallelDelta(w) => format!("HAMLET-par{w}-delta"),
        }
    }
}

/// One measurement row.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// System under test.
    pub system: System,
    /// Events fed.
    pub events: u64,
    /// Queries in the workload.
    pub queries: usize,
    /// Wall-clock processing time.
    pub wall: Duration,
    /// Average result latency (result output − last contributing event).
    pub latency_avg: Duration,
    /// Median end-to-end result latency (pipeline runs only; zero for
    /// offline harnesses, which cannot measure queueing).
    pub latency_p50: Duration,
    /// 99th-percentile end-to-end result latency (pipeline runs only) —
    /// the tail the `fig_latency` sweep plots and CI gates.
    pub latency_p99: Duration,
    /// Throughput in events per second.
    pub throughput_eps: f64,
    /// Peak byte-accounted state.
    pub peak_mem_bytes: usize,
    /// Snapshots created (HAMLET variants only).
    pub snapshots: u64,
    /// Shared bursts (HAMLET variants only).
    pub shared_bursts: u64,
    /// Solo bursts (HAMLET variants only).
    pub solo_bursts: u64,
    /// Graphlet merges + splits (HAMLET variants only).
    pub transitions: u64,
    /// Results emitted.
    pub results: u64,
    /// Two-step enumerations truncated by the work budget.
    pub truncated: u64,
    /// Serialized checkpoint size in bytes (`fig_checkpoint` runs only;
    /// 0 when the run took no checkpoint).
    pub checkpoint_bytes: u64,
    /// Checkpoint pause: how long the drain barrier + state
    /// serialization stalled processing (`fig_checkpoint` runs only) —
    /// the tail CI gates via `perf_gate --max-checkpoint-pause`. For
    /// delta-chain runs this is the *mean* per-cut pause at the fixed
    /// cadence.
    pub checkpoint_pause: Duration,
    /// Mean serialized size of one incremental delta record
    /// (delta-chain `fig_checkpoint` runs only; 0 when the run cut no
    /// deltas). CI gates the ratio against `checkpoint_bytes` — the
    /// base size — via `perf_gate --max-delta-ratio`.
    pub delta_bytes: u64,
    /// Recovery time: building a fresh engine and replaying the stored
    /// base + delta chain into it (`fig_checkpoint` runs only; 0 when
    /// the run measured no recovery). CI gates it against the committed
    /// baseline via `perf_gate --max-recovery-time`.
    pub recovery_time: Duration,
}

impl Measurement {
    /// Serializes this row as a JSON object. Durations are emitted as
    /// fractional seconds; every float goes through [`json::num`], so a
    /// zero-duration run (`inf`/`NaN` throughput) can never poison the
    /// report with invalid JSON. (Hand-rolled: the offline build has no
    /// serde.)
    pub fn to_json(&self) -> String {
        format!(
            "{{\"system\":\"{}\",\"events\":{},\"queries\":{},\"wall\":{},\"latency_avg\":{},\
             \"latency_p50\":{},\"latency_p99\":{},\
             \"throughput_eps\":{},\"peak_mem_bytes\":{},\"snapshots\":{},\"shared_bursts\":{},\
             \"solo_bursts\":{},\"transitions\":{},\"results\":{},\"truncated\":{},\
             \"checkpoint_bytes\":{},\"checkpoint_pause\":{},\"delta_bytes\":{},\
             \"recovery_time\":{}}}",
            self.system.name(),
            self.events,
            self.queries,
            json::num(self.wall.as_secs_f64()),
            json::num(self.latency_avg.as_secs_f64()),
            json::num(self.latency_p50.as_secs_f64()),
            json::num(self.latency_p99.as_secs_f64()),
            json::num(self.throughput_eps),
            self.peak_mem_bytes,
            self.snapshots,
            self.shared_bursts,
            self.solo_bursts,
            self.transitions,
            self.results,
            self.truncated,
            self.checkpoint_bytes,
            json::num(self.checkpoint_pause.as_secs_f64()),
            self.delta_bytes,
            json::num(self.recovery_time.as_secs_f64()),
        )
    }
}

impl Measurement {
    /// A zeroed row for `system` over `events` events and `queries`
    /// queries — the starting point every harness fills in.
    pub fn zero(system: System, events: u64, queries: usize) -> Measurement {
        Measurement {
            system,
            events,
            queries,
            wall: Duration::ZERO,
            latency_avg: Duration::ZERO,
            latency_p50: Duration::ZERO,
            latency_p99: Duration::ZERO,
            throughput_eps: 0.0,
            peak_mem_bytes: 0,
            snapshots: 0,
            shared_bursts: 0,
            solo_bursts: 0,
            transitions: 0,
            results: 0,
            truncated: 0,
            checkpoint_bytes: 0,
            checkpoint_pause: Duration::ZERO,
            delta_bytes: 0,
            recovery_time: Duration::ZERO,
        }
    }
}

/// Harness knobs.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// SHARON's estimated longest Kleene match (`l`).
    pub sharon_max_len: usize,
    /// Two-step DFS work budget per (query, window).
    pub twostep_budget: Option<u64>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            sharon_max_len: 64,
            twostep_budget: Some(2_000_000),
        }
    }
}

/// Runs one system over a stream and reports the §6.1 metrics.
pub fn run_system(
    system: System,
    reg: &Arc<TypeRegistry>,
    queries: &[Query],
    events: &[Event],
    cfg: &HarnessConfig,
) -> Measurement {
    let mut m = Measurement::zero(system, events.len() as u64, queries.len());
    let t0 = Instant::now();
    match system {
        System::HamletPipeline(workers) => {
            // Online runtime, unpaced replay: measures the pipeline's own
            // ceiling. The paced (offered-rate) driver lives in
            // `figures::fig_latency`.
            let handle = Pipeline::builder(reg.clone(), queries.to_vec())
                .workers(workers)
                .spawn(ReplaySource::new(events.to_vec()), CountingSink::new())
                .expect("pipeline spawns");
            let report = handle.drain();
            m.results = report.results;
            m.wall = t0.elapsed();
            m.latency_avg = report.latency.avg();
            m.latency_p50 = report.latency.p50();
            m.latency_p99 = report.latency.p99();
            m.peak_mem_bytes = report.peak_mem.iter().sum();
            let s = report.merged_stats();
            m.snapshots = s.runs.snapshots();
            m.shared_bursts = s.runs.shared_bursts;
            m.solo_bursts = s.runs.solo_bursts;
            m.transitions = s.runs.merges + s.runs.splits;
        }
        System::HamletParallel(workers) => {
            let mut eng = ParallelEngine::new(
                reg.clone(),
                queries.to_vec(),
                EngineConfig::default(),
                workers,
            )
            .expect("parallel engine builds");
            m.results = eng.process(events).len() as u64;
            m.results += eng.flush().len() as u64;
            m.wall = t0.elapsed();
            m.latency_avg = eng.latency().avg();
            m.peak_mem_bytes = eng.peak_memory();
            let s = eng.stats();
            m.snapshots = s.runs.snapshots();
            m.shared_bursts = s.runs.shared_bursts;
            m.solo_bursts = s.runs.solo_bursts;
            m.transitions = s.runs.merges + s.runs.splits;
        }
        System::HamletEvent | System::HamletBatch(_) => {
            // The single-thread batching A/B pair (`fig_batch`): identical
            // engine and workload, only the feeding strategy differs —
            // and the outputs are byte-identical (equivalence suite).
            let mut eng = HamletEngine::new(reg.clone(), queries.to_vec(), EngineConfig::default())
                .expect("engine builds");
            match system {
                System::HamletBatch(size) => {
                    for batch in events.chunks(size.max(1)) {
                        m.results += eng.process_batch(batch).len() as u64;
                    }
                }
                _ => {
                    for e in events {
                        m.results += eng.process_reference(e).len() as u64;
                    }
                }
            }
            m.results += eng.flush().len() as u64;
            m.wall = t0.elapsed();
            m.latency_avg = eng.latency().avg();
            m.peak_mem_bytes = eng.peak_memory().max(eng.state_bytes());
            let s = eng.stats();
            m.snapshots = s.runs.snapshots();
            m.shared_bursts = s.runs.shared_bursts;
            m.solo_bursts = s.runs.solo_bursts;
            m.transitions = s.runs.merges + s.runs.splits;
        }
        System::HamletObs | System::HamletNoObs => {
            // The observability A/B pair (`fig_obs`): the production
            // batched hot path, identical in every respect except the
            // `obs` flag — instrumented engines carry per-share-group
            // counter registries, uninstrumented ones carry none.
            let mut eng = HamletEngine::new(
                reg.clone(),
                queries.to_vec(),
                EngineConfig {
                    obs: matches!(system, System::HamletObs),
                    ..EngineConfig::default()
                },
            )
            .expect("engine builds");
            for batch in events.chunks(1024) {
                m.results += eng.process_batch(batch).len() as u64;
            }
            m.results += eng.flush().len() as u64;
            m.wall = t0.elapsed();
            m.latency_avg = eng.latency().avg();
            m.peak_mem_bytes = eng.peak_memory().max(eng.state_bytes());
            let s = eng.stats();
            m.snapshots = s.runs.snapshots();
            m.shared_bursts = s.runs.shared_bursts;
            m.solo_bursts = s.runs.solo_bursts;
            m.transitions = s.runs.merges + s.runs.splits;
        }
        System::Hamlet | System::HamletStatic | System::HamletNoShare => {
            let policy = match system {
                System::Hamlet => SharingPolicy::Dynamic,
                System::HamletStatic => SharingPolicy::AlwaysShare,
                _ => SharingPolicy::NeverShare,
            };
            let mut eng = HamletEngine::new(
                reg.clone(),
                queries.to_vec(),
                EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            )
            .expect("engine builds");
            for e in events {
                m.results += eng.process(e).len() as u64;
            }
            m.results += eng.flush().len() as u64;
            m.wall = t0.elapsed();
            m.latency_avg = eng.latency().avg();
            m.peak_mem_bytes = eng.peak_memory().max(eng.state_bytes());
            let s = eng.stats();
            m.snapshots = s.runs.snapshots();
            m.shared_bursts = s.runs.shared_bursts;
            m.solo_bursts = s.runs.solo_bursts;
            m.transitions = s.runs.merges + s.runs.splits;
        }
        System::Greta => {
            let mut eng = GretaEngine::new(reg.clone(), queries.to_vec()).expect("greta builds");
            for e in events {
                m.results += eng.process(e).len() as u64;
            }
            m.results += eng.flush().len() as u64;
            m.wall = t0.elapsed();
            m.latency_avg = eng.latency().avg();
            m.peak_mem_bytes = eng.peak_memory().max(eng.state_bytes());
        }
        System::Sharon => {
            let mut eng = SharonEngine::new(reg.clone(), queries.to_vec(), cfg.sharon_max_len)
                .expect("sharon builds");
            for e in events {
                m.results += eng.process(e).len() as u64;
            }
            m.results += eng.flush().len() as u64;
            m.wall = t0.elapsed();
            m.latency_avg = eng.latency().avg();
            m.peak_mem_bytes = eng.peak_memory().max(eng.state_bytes());
        }
        System::HamletChurn | System::HamletRestart => {
            // Both systems are defined by a churn schedule, which this
            // signature cannot carry — `figures::fig_churn` drives them
            // directly. Falling back to a churn-free run here would let a
            // mis-routed sweep silently pass the churn gate.
            panic!(
                "{} needs a churn schedule; drive it through figures::fig_churn",
                system.name()
            );
        }
        System::HamletDeltaChain | System::HamletNoCheckpoint | System::HamletParallelDelta(_) => {
            // Defined by a cut cadence and compaction schedule this
            // signature cannot carry — `figures::fig_checkpoint` drives
            // them directly, same as the churn pair above.
            panic!(
                "{} needs a checkpoint cadence; drive it through figures::fig_checkpoint",
                system.name()
            );
        }
        System::TwoStep => {
            let mut eng = TwoStepEngine::new(reg.clone(), queries.to_vec(), cfg.twostep_budget)
                .expect("twostep builds");
            for e in events {
                m.results += eng.process(e).len() as u64;
            }
            m.results += eng.flush().len() as u64;
            m.wall = t0.elapsed();
            m.latency_avg = eng.latency().avg();
            m.peak_mem_bytes = eng.peak_memory().max(eng.state_bytes());
            m.truncated = eng.truncated();
        }
    }
    m.throughput_eps = if m.wall.as_secs_f64() > 0.0 {
        m.events as f64 / m.wall.as_secs_f64()
    } else {
        0.0
    };
    m
}

/// Serializes measured figures as the machine-readable `BENCH.json`
/// report: one document with the run mode and, per figure, its id,
/// x-axis, and per-system measurements (throughput, latency, peak
/// memory, sharing counters). The CI perf gate (`perf_gate` binary)
/// consumes this format and compares it against a committed baseline.
pub fn bench_json(mode: &str, figs: &[figures::Figure]) -> String {
    let mut fig_docs = Vec::with_capacity(figs.len());
    for fig in figs {
        let rows: Vec<String> = fig
            .rows
            .iter()
            .map(|(x, ms)| {
                let measurements: Vec<String> = ms
                    .iter()
                    .map(|m| format!("        {}", m.to_json()))
                    .collect();
                format!(
                    "      {{\"x\": \"{}\", \"measurements\": [\n{}\n      ]}}",
                    json::escape(x),
                    measurements.join(",\n")
                )
            })
            .collect();
        fig_docs.push(format!(
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"x_label\": \"{}\", \"rows\": [\n{}\n    ]}}",
            json::escape(fig.id),
            json::escape(&fig.title),
            json::escape(fig.x_label),
            rows.join(",\n")
        ));
    }
    format!(
        "{{\n  \"schema\": \"hamlet-bench-v1\",\n  \"mode\": \"{}\",\n  \"figures\": [\n{}\n  ]\n}}\n",
        json::escape(mode),
        fig_docs.join(",\n")
    )
}

/// Renders rows as a markdown table keyed by an x-axis label.
pub fn markdown_table(x_label: &str, rows: &[(String, Vec<Measurement>)]) -> String {
    let mut out = String::new();
    use std::fmt::Write;
    let _ = writeln!(
        out,
        "| {x_label} | system | latency avg | latency p99 | throughput (ev/s) | peak mem (KB) | snapshots | shared/solo bursts |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for (x, ms) in rows {
        for m in ms {
            let _ = writeln!(
                out,
                "| {x} | {} | {:?} | {} | {:.0} | {} | {} | {}/{} |",
                m.system.name(),
                m.latency_avg,
                if m.latency_p99 > Duration::ZERO {
                    format!("{:?}", m.latency_p99)
                } else {
                    "—".into()
                },
                m.throughput_eps,
                m.peak_mem_bytes / 1024,
                m.snapshots,
                m.shared_bursts,
                m.solo_bursts,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_stream::{ridesharing, GenConfig};

    #[test]
    fn harness_runs_all_systems() {
        let reg = ridesharing::registry();
        let cfg = GenConfig {
            events_per_min: 600,
            minutes: 1,
            mean_burst: 10.0,
            num_groups: 2,
            group_skew: 0.0,
            seed: 5,
            max_lateness: 0,
        };
        let events = ridesharing::generate(&reg, &cfg);
        let queries = ridesharing::workload_shared_kleene(&reg, 5, 30);
        let hcfg = HarnessConfig {
            sharon_max_len: 32,
            twostep_budget: Some(200_000),
        };
        let mut rows = Vec::new();
        for sys in [
            System::Hamlet,
            System::HamletStatic,
            System::HamletNoShare,
            System::Greta,
            System::Sharon,
            System::TwoStep,
            System::HamletParallel(2),
            System::HamletPipeline(2),
        ] {
            let m = run_system(sys, &reg, &queries, &events, &hcfg);
            assert_eq!(m.events, 600);
            assert!(m.results > 0, "{sys:?} produced results");
            assert!(m.throughput_eps > 0.0);
            rows.push((sys, m));
        }
        // HAMLET variants expose sharing counters.
        assert!(rows[0].1.shared_bursts + rows[0].1.solo_bursts > 0);
        let ms: Vec<Measurement> = rows.into_iter().map(|(_, m)| m).collect();
        let table = markdown_table("x", &[("600".into(), ms.clone())]);
        assert!(table.contains("HAMLET"));
        assert!(table.contains("GRETA"));
        assert!(table.contains("HAMLET-par2"));
        assert!(table.contains("HAMLET-pipe2"));

        // The machine-readable report parses back and carries the §6.1
        // metrics per system.
        let fig = figures::Figure {
            id: "test_fig",
            title: "harness \"smoke\"".into(),
            rows: vec![("600".into(), ms)],
            x_label: "events/min",
        };
        let doc = bench_json("quick", &[fig]);
        let v = json::parse(&doc).expect("BENCH.json parses");
        assert_eq!(
            v.get("schema").and_then(json::Json::as_str),
            Some("hamlet-bench-v1")
        );
        let figs = v.get("figures").and_then(json::Json::as_arr).unwrap();
        let row = figs[0].get("rows").and_then(json::Json::as_arr).unwrap();
        let measurements = row[0]
            .get("measurements")
            .and_then(json::Json::as_arr)
            .unwrap();
        assert_eq!(measurements.len(), 8);
        for m in measurements {
            assert!(
                m.get("throughput_eps")
                    .and_then(json::Json::as_f64)
                    .unwrap()
                    > 0.0
            );
            assert!(m
                .get("peak_mem_bytes")
                .and_then(json::Json::as_f64)
                .is_some());
            assert!(m.get("latency_avg").and_then(json::Json::as_f64).is_some());
        }
    }
}
