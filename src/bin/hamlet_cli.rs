//! `hamlet-cli` — run a generated workload over a synthetic stream and
//! report aggregates, sharing statistics, and the compiled plan.
//!
//! ```text
//! # Offline run (default mode):
//! cargo run --release --bin hamlet-cli -- \
//!     --dataset ridesharing --rate 10000 --minutes 2 --queries 10 \
//!     --policy dynamic --window 60 --explain
//!
//! # Live pipeline: paced source, out-of-order injection, live metrics:
//! cargo run --release --bin hamlet-cli -- pipeline \
//!     --dataset ridesharing --rate 60000 --queries 10 --window 30 \
//!     --workers 4 --eps 50000 --max-lateness 5 --slack 5 --metrics-ms 250
//!
//! # Keep a live pipeline durable with periodic delta checkpoints,
//! # then kill it and resume from the chain on disk:
//! cargo run --release --bin hamlet-cli -- pipeline \
//!     --dataset ridesharing --rate 60000 --checkpoint-every 10000 \
//!     --state /tmp/hamlet-ck
//! cargo run --release --bin hamlet-cli -- pipeline \
//!     --dataset ridesharing --rate 60000 --resume --state /tmp/hamlet-ck
//!
//! # One-shot: cut a full checkpoint after ~50k events and stop:
//! cargo run --release --bin hamlet-cli -- pipeline \
//!     --dataset ridesharing --rate 60000 --checkpoint-after 50000 \
//!     --state /tmp/hamlet-ck
//! ```
//!
//! Datasets: ridesharing | nyc | smarthome | stock (stock uses the
//! diverse predicate-heavy workload of Figs. 12–13; the others use the
//! shared-Kleene workload of Fig. 9).
//!
//! Pipeline-mode flags: `--workers N` (shard workers), `--eps F` (offered
//! wall-clock rate, 0 = unpaced), `--max-lateness T` (shuffle the
//! generated stream so events trail the stream maximum by up to `T`
//! ticks), `--slack T` (reorder-stage watermark slack; events later than
//! this are dead-lettered), `--metrics-ms M` (live metrics print
//! interval, 0 = quiet), `--metrics-json` (emit each metrics snapshot as
//! one JSON line for tooling, including per-share-group counters and
//! the latency histogram buckets), `--prom-out FILE` (write the final
//! metrics snapshot as a Prometheus text-format scrape), `--trace-out
//! FILE` (record stage spans and write a Chrome `trace_event` JSON file
//! — open in `chrome://tracing` or Perfetto), `--state DIR` (a
//! [`DirStore`] checkpoint directory holding one base + delta chain;
//! required by every checkpoint flag, and empty unless `--resume` is
//! given — the store refuses records that do not extend its chain),
//! `--checkpoint-every N` (while
//! the pipeline runs, cut an incremental **delta** checkpoint into the
//! store every N released events; every `--compact-every`th cut is
//! promoted to a full base, compacting the chain), `--checkpoint-after
//! N` (one-shot: cut a full checkpoint once N events have been
//! ingested, then stop the source and drain), `--resume` (restore from
//! the newest base + delta chain in `--state` and continue the same
//! generated stream to completion — the stream is regenerated
//! deterministically from the seed, so the chain's source cursor
//! repositions it exactly), `--churn-script FILE` (apply timestamped
//! add/remove ops to the live workload).
//!
//! A churn script holds one op per line — `<ts> add <query-id>` or
//! `<ts> remove <query-id>`, with blank lines and `#` comments ignored —
//! applied when the pipeline watermark first reaches `<ts>`. Query ids
//! index the dataset's generated workload: ids below `--queries` name
//! the initial queries (remove them, then re-add them later), and ids at
//! or above it draw additional queries from the same generator, so
//! `120 add 10` grows a `--queries 10` workload at t=120:
//!
//! ```text
//! # drop query 3 two minutes in, bring in a fresh one at three
//! 120 remove 3
//! 180 add 10
//! ```

use hamlet::prelude::*;
use hamlet_stream::{nyc_taxi, ridesharing, smart_home, stock};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    pipeline: bool,
    dataset: String,
    rate: u64,
    minutes: u64,
    queries: usize,
    window: u64,
    policy: SharingPolicy,
    mean_burst: f64,
    groups: u64,
    skew: f64,
    seed: u64,
    explain: bool,
    show_results: usize,
    // Pipeline mode.
    workers: u32,
    eps: f64,
    slack: u64,
    max_lateness: u64,
    metrics_ms: u64,
    metrics_json: bool,
    trace_out: Option<String>,
    prom_out: Option<String>,
    checkpoint_after: u64,
    checkpoint_every: u64,
    compact_every: u64,
    state: Option<String>,
    resume: bool,
    churn_script: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        pipeline: false,
        dataset: "ridesharing".into(),
        rate: 10_000,
        minutes: 1,
        queries: 10,
        window: 60,
        policy: SharingPolicy::Dynamic,
        mean_burst: 40.0,
        groups: 8,
        skew: 0.0,
        seed: 7,
        explain: false,
        show_results: 5,
        workers: 1,
        eps: 0.0,
        slack: 0,
        max_lateness: 0,
        metrics_ms: 250,
        metrics_json: false,
        trace_out: None,
        prom_out: None,
        checkpoint_after: 0,
        checkpoint_every: 0,
        compact_every: 0,
        state: None,
        resume: false,
        churn_script: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("pipeline") {
        args.pipeline = true;
        it.next();
    }
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--dataset" => args.dataset = val("--dataset")?,
            "--rate" => args.rate = val("--rate")?.parse().map_err(|e| format!("{e}"))?,
            "--minutes" => args.minutes = val("--minutes")?.parse().map_err(|e| format!("{e}"))?,
            "--queries" => args.queries = val("--queries")?.parse().map_err(|e| format!("{e}"))?,
            "--window" => args.window = val("--window")?.parse().map_err(|e| format!("{e}"))?,
            "--burst" => args.mean_burst = val("--burst")?.parse().map_err(|e| format!("{e}"))?,
            "--groups" => args.groups = val("--groups")?.parse().map_err(|e| format!("{e}"))?,
            "--skew" => args.skew = val("--skew")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--show" => args.show_results = val("--show")?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => args.workers = val("--workers")?.parse().map_err(|e| format!("{e}"))?,
            "--eps" => args.eps = val("--eps")?.parse().map_err(|e| format!("{e}"))?,
            "--slack" => args.slack = val("--slack")?.parse().map_err(|e| format!("{e}"))?,
            "--max-lateness" => {
                args.max_lateness = val("--max-lateness")?.parse().map_err(|e| format!("{e}"))?
            }
            "--metrics-ms" => {
                args.metrics_ms = val("--metrics-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--metrics-json" => args.metrics_json = true,
            "--trace-out" => args.trace_out = Some(val("--trace-out")?),
            "--prom-out" => args.prom_out = Some(val("--prom-out")?),
            "--checkpoint-after" => {
                args.checkpoint_after = val("--checkpoint-after")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--checkpoint-every" => {
                args.checkpoint_every = val("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--compact-every" => {
                args.compact_every = val("--compact-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--state" => args.state = Some(val("--state")?),
            "--resume" => args.resume = true,
            "--churn-script" => args.churn_script = Some(val("--churn-script")?),
            "--policy" => {
                args.policy = match val("--policy")?.as_str() {
                    "dynamic" => SharingPolicy::Dynamic,
                    "static" => SharingPolicy::AlwaysShare,
                    "noshare" => SharingPolicy::NeverShare,
                    other => return Err(format!("unknown policy {other}")),
                }
            }
            "--explain" => args.explain = true,
            "--help" | "-h" => {
                println!(
                    "usage: hamlet-cli [pipeline] [--dataset ridesharing|nyc|smarthome|stock] \
                     [--rate N] [--minutes N] [--queries K] [--window SECS] \
                     [--policy dynamic|static|noshare] [--burst B] [--groups G] \
                     [--skew Z] [--seed S] [--show N] [--explain]\n\
                     pipeline mode: [--workers W] [--eps OFFERED_RATE] [--slack TICKS] \
                     [--max-lateness TICKS] [--metrics-ms MS] [--metrics-json] \
                     [--trace-out FILE (Chrome trace_event JSON)] \
                     [--prom-out FILE (Prometheus text format)] \
                     [--state DIR (checkpoint chain directory)] \
                     [--checkpoint-every N [--compact-every K]] \
                     [--checkpoint-after N] [--resume] \
                     [--churn-script FILE (lines: `<ts> add|remove <query-id>`)]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    // A churn script references workload queries by id; ids at or above
    // `--queries` draw extra queries from the same deterministic
    // generator, so the pool is sized to the largest id the script adds.
    if !args.pipeline && (args.trace_out.is_some() || args.prom_out.is_some()) {
        eprintln!("error: --trace-out/--prom-out are pipeline-mode flags");
        std::process::exit(2);
    }
    let script: Vec<(u64, bool, u32)> = match &args.churn_script {
        Some(path) => {
            if !args.pipeline {
                eprintln!("error: --churn-script is a pipeline-mode flag");
                std::process::exit(2);
            }
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: read {path}: {e}");
                std::process::exit(2);
            });
            parse_churn_script(&text).unwrap_or_else(|e| {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            })
        }
        None => Vec::new(),
    };
    let pool_size = script
        .iter()
        .filter(|(_, add, _)| *add)
        .map(|&(_, _, id)| id as usize + 1)
        .max()
        .unwrap_or(0)
        .max(args.queries);

    let gen = GenConfig {
        events_per_min: args.rate,
        minutes: args.minutes,
        mean_burst: args.mean_burst,
        num_groups: args.groups,
        group_skew: args.skew,
        seed: args.seed,
        max_lateness: if args.pipeline { args.max_lateness } else { 0 },
    };
    let (reg, events, pool): (Arc<TypeRegistry>, Vec<Event>, Vec<Query>) =
        match args.dataset.as_str() {
            "ridesharing" => {
                let reg = ridesharing::registry();
                let ev = ridesharing::generate(&reg, &gen);
                let qs = ridesharing::workload_shared_kleene(&reg, pool_size, args.window);
                (reg, ev, qs)
            }
            "nyc" => {
                let reg = nyc_taxi::registry();
                let ev = nyc_taxi::generate(&reg, &gen);
                let qs = nyc_taxi::workload(&reg, pool_size, args.window);
                (reg, ev, qs)
            }
            "smarthome" => {
                let reg = smart_home::registry();
                let ev = smart_home::generate(&reg, &gen);
                let qs = smart_home::workload(&reg, pool_size, args.window);
                (reg, ev, qs)
            }
            "stock" => {
                let reg = stock::registry();
                let ev = stock::generate(&reg, &gen);
                let qs = stock::workload_diverse(&reg, pool_size, args.seed);
                (reg, ev, qs)
            }
            other => {
                eprintln!("unknown dataset {other}");
                std::process::exit(2);
            }
        };
    let queries: Vec<Query> = pool[..args.queries].to_vec();
    let schedule: Vec<(Ts, ChurnOp)> = script
        .iter()
        .map(|&(ts, add, id)| {
            let op = if add {
                ChurnOp::Add(pool[id as usize].clone())
            } else {
                ChurnOp::Remove(QueryId(id))
            };
            (Ts(ts), op)
        })
        .collect();

    if args.pipeline {
        run_pipeline(&args, reg, events, queries, schedule);
    } else {
        run_offline(&args, reg, events, queries);
    }
}

/// Parses a churn script: one `<ts> add|remove <query-id>` per line;
/// blank lines and `#` comments are ignored. Each op fires when the
/// pipeline watermark first reaches its timestamp.
fn parse_churn_script(text: &str) -> Result<Vec<(u64, bool, u32)>, String> {
    let mut out = Vec::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(ts), Some(op), Some(id), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "line {}: expected `<ts> add|remove <query-id>`, got {line:?}",
                n + 1
            ));
        };
        let ts: u64 = ts
            .parse()
            .map_err(|e| format!("line {}: bad timestamp {ts:?}: {e}", n + 1))?;
        let id: u32 = id
            .parse()
            .map_err(|e| format!("line {}: bad query id {id:?}: {e}", n + 1))?;
        let add = match op {
            "add" => true,
            "remove" => false,
            other => {
                return Err(format!(
                    "line {}: unknown op {other:?} (want add or remove)",
                    n + 1
                ))
            }
        };
        out.push((ts, add, id));
    }
    Ok(out)
}

/// One [`MetricsSnapshot`] as a single JSON line for tooling — the same
/// hand-rolled, non-finite-guarded formatting as `BENCH.json`
/// (`hamlet_bench::json::num`), so a stalled pipeline (0-duration rates)
/// can never emit invalid JSON. Includes the sparse latency histogram
/// (`[upper_bound_ns, count]` pairs) and one row per share group.
fn metrics_json_line(m: &MetricsSnapshot) -> String {
    use hamlet_bench::json::num;
    let depths: Vec<String> = m.worker_depths.iter().map(|d| d.to_string()).collect();
    let buckets: Vec<String> = m
        .latency_buckets
        .iter()
        .map(|(le, n)| format!("[{le},{n}]"))
        .collect();
    let groups: Vec<String> = m.groups.iter().map(group_json).collect();
    format!(
        "{{\"elapsed\":{},\"ingested\":{},\"late\":{},\"released\":{},\"results\":{},\
         \"watermark\":{},\"source_done\":{},\"reorder_depth\":{},\"worker_depths\":[{}],\
         \"sink_depth\":{},\"ingest_eps\":{},\"latency\":{{\"count\":{},\"avg\":{},\
         \"p50\":{},\"p99\":{},\"max\":{},\"buckets_ns\":[{}]}},\"dropped_spans\":{},\
         \"checkpoints\":{},\"checkpoint_bytes\":{},\"checkpoint_failures\":{},\
         \"groups\":[{}]}}",
        num(m.elapsed.as_secs_f64()),
        m.ingested,
        m.late,
        m.released,
        m.results,
        m.watermark
            .map(|w| w.ticks().to_string())
            .unwrap_or_else(|| "null".into()),
        m.source_done,
        m.reorder_depth,
        depths.join(","),
        m.sink_depth,
        num(m.ingest_eps()),
        m.latency.count,
        num(m.latency.avg.as_secs_f64()),
        num(m.latency.p50.as_secs_f64()),
        num(m.latency.p99.as_secs_f64()),
        num(m.latency.max.as_secs_f64()),
        buckets.join(","),
        m.dropped_spans,
        m.checkpoints,
        m.checkpoint_bytes,
        m.checkpoint_failures,
        groups.join(","),
    )
}

/// One share group's counters as a JSON object (see [`GroupMetrics`]).
fn group_json(g: &GroupMetrics) -> String {
    use hamlet_bench::json::num;
    format!(
        "{{\"group\":{:?},\"shared\":{},\"benefit\":{},\"events_routed\":{},\
         \"runs_created\":{},\"runs_expired\":{},\"shared_bursts\":{},\"solo_bursts\":{},\
         \"graphlet_snapshots\":{},\"event_snapshots\":{},\"results\":{}}}",
        g.sig_label(),
        g.shared,
        num(g.benefit),
        g.events_routed,
        g.runs_created,
        g.runs_expired,
        g.shared_bursts,
        g.solo_bursts,
        g.graphlet_snapshots,
        g.event_snapshots,
        g.results_emitted,
    )
}

/// Writes an exporter artifact, failing loudly: an observability file
/// the user asked for silently missing is worse than a hard exit.
fn write_export(path: &str, what: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("error: write {what} {path}: {e}");
        std::process::exit(1);
    }
    println!("{what} written to {path}");
}

/// Live mode: feed the stream through the online pipeline, printing
/// metrics snapshots while it runs, then drain (or checkpoint) and
/// summarize.
fn run_pipeline(
    args: &Args,
    reg: Arc<TypeRegistry>,
    events: Vec<Event>,
    queries: Vec<Query>,
    schedule: Vec<(Ts, ChurnOp)>,
) {
    if (args.checkpoint_after > 0 || args.checkpoint_every > 0 || args.resume)
        && args.state.is_none()
    {
        eprintln!("error: --checkpoint-after/--checkpoint-every/--resume need --state DIR");
        std::process::exit(2);
    }
    if args.checkpoint_after > 0 && args.resume {
        eprintln!("error: --checkpoint-after and --resume are mutually exclusive");
        std::process::exit(2);
    }
    // `--state DIR` is a DirStore: one file per chain record, written
    // atomically, compacted whenever a full base lands.
    let store: Option<Arc<DirStore>> = args.state.as_deref().map(|dir| match DirStore::open(dir) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: open checkpoint store {dir}: {e}");
            std::process::exit(2);
        }
    });

    // Resume: read the newest base + delta chain and reposition the
    // (deterministic, regenerated) stream at the tip record's source
    // cursor; the events the cut froze in the reorder buffer travel
    // inside the chain itself.
    let cursor = if args.resume {
        let st = store.as_ref().expect("validated above");
        let chain = st.load_chain().unwrap_or_else(|e| {
            eprintln!("error: load checkpoint chain: {e}");
            std::process::exit(2);
        });
        let Some(tip) = chain.last() else {
            eprintln!(
                "error: {} holds no checkpoint records — nothing to resume",
                st.path().display()
            );
            std::process::exit(2);
        };
        let tip_ck = PipelineCheckpoint::from_bytes(tip.as_bytes()).unwrap_or_else(|e| {
            eprintln!("error: decode chain tip: {e}");
            std::process::exit(2);
        });
        println!(
            "restoring from {}: {} record(s) (base seq {} + {} delta(s)), tip seq {} at event {}",
            st.path().display(),
            chain.len(),
            chain[0].seq(),
            chain.len() - 1,
            tip.seq(),
            tip_ck.events_pulled(),
        );
        tip_ck.events_pulled() as usize
    } else {
        // A fresh run numbers its cuts from 1, and the store refuses a
        // record that is not above its tip: say so before running.
        if let Some(st) = &store {
            if !st.load_chain().is_ok_and(|c| c.is_empty()) {
                eprintln!(
                    "error: {} already holds a checkpoint chain — pass --resume to continue \
                     it, or point --state at an empty directory",
                    st.path().display()
                );
                std::process::exit(2);
            }
        }
        0
    };
    if cursor > events.len() {
        eprintln!(
            "error: checkpoint cursor {cursor} beyond the generated stream \
             ({} events) — different --rate/--minutes/--seed than the original run?",
            events.len()
        );
        std::process::exit(2);
    }
    let feed = events[cursor..].to_vec();

    println!(
        "pipeline: dataset={} events={} queries={} workers={} offered_eps={} \
         max_lateness={} slack={}{}",
        args.dataset,
        events.len(),
        queries.len(),
        args.workers,
        if args.eps > 0.0 {
            format!("{:.0}", args.eps)
        } else {
            "unpaced".into()
        },
        args.max_lateness,
        args.slack,
        if args.resume {
            format!(" (resumed at event {cursor})")
        } else {
            String::new()
        },
    );
    // Capped dead-letter log: a slack/lateness mismatch can make a large
    // fraction of the stream late, and per-event stderr writes on the
    // ingest thread would throttle the very pipeline being measured. The
    // full count is in every metrics line and the drain summary.
    let mut dead_logged = 0u32;
    let churned = !schedule.is_empty();
    // Span ring size per lane when --trace-out is active: ~3 MB per lane
    // at 48 bytes per span, and long runs keep the most recent window
    // (drop-oldest; the drop count lands in the trace metadata and in
    // `dropped_spans` of every metrics line).
    const TRACE_CAPACITY: usize = 65_536;
    let mut builder = Pipeline::builder(reg, queries)
        .trace(if args.trace_out.is_some() {
            TRACE_CAPACITY
        } else {
            0
        })
        .engine_config(EngineConfig {
            policy: args.policy,
            ..EngineConfig::default()
        })
        .workers(args.workers)
        .churn_at(schedule)
        .watermark(BoundedLateness::new(args.slack))
        .on_late(move |e| {
            if dead_logged < 3 {
                dead_logged += 1;
                eprintln!(
                    "dead-letter: late event at t={} (further drops counted silently)",
                    e.time
                );
            }
        });
    // Any run with a store keeps it attached: cadence cuts
    // (`--checkpoint-every`), one-shot cuts (`--checkpoint-after`), and
    // resumed runs that keep checkpointing all append to the same chain.
    if let Some(st) = &store {
        builder = builder.checkpoint_store(st.clone() as Arc<dyn CheckpointStore>);
        if args.checkpoint_every > 0 {
            builder = builder.checkpoint_every(args.checkpoint_every);
        }
        if args.compact_every > 0 {
            builder = builder.compact_every(args.compact_every);
        }
    }
    let replay = ReplaySource::new(feed);
    let spawn = match (args.resume, args.eps > 0.0) {
        (true, true) => builder
            .resume_from(
                store.as_deref().expect("validated above"),
                RateLimitedSource::new(replay, args.eps),
                VecSink::new(),
            )
            .map_err(|e| format!("{e}")),
        (true, false) => builder
            .resume_from(
                store.as_deref().expect("validated above"),
                replay,
                VecSink::new(),
            )
            .map_err(|e| format!("{e}")),
        (false, true) => builder
            .spawn(RateLimitedSource::new(replay, args.eps), VecSink::new())
            .map_err(|e| format!("{e}")),
        (false, false) => builder
            .spawn(replay, VecSink::new())
            .map_err(|e| format!("{e}")),
    };
    let mut handle = match spawn {
        Ok(h) => h,
        Err(e) => {
            eprintln!("engine error: {e}");
            std::process::exit(1);
        }
    };
    // Live view until the source is exhausted and the queues are empty —
    // or the checkpoint threshold is crossed.
    let mut cut_taken = false;
    loop {
        let m = handle.metrics();
        if args.metrics_json {
            println!("{}", metrics_json_line(&m));
        } else if args.metrics_ms > 0 {
            println!(
                "[{:>7.2}s] in={} out={} late={} wm={} queues: reorder={} workers={:?} sink={} \
                 | latency p50={:?} p99={:?}",
                m.elapsed.as_secs_f64(),
                m.ingested,
                m.results,
                m.late,
                m.watermark.map(|w| w.ticks()).unwrap_or(0),
                m.reorder_depth,
                m.worker_depths,
                m.sink_depth,
                m.latency.p50,
                m.latency.p99,
            );
        }
        // Take the checkpoint at the threshold — or at end-of-stream if
        // the stream ran out first: the user asked for a checkpoint, so
        // never exit "successfully" without writing one.
        let stream_over = m.source_done && m.queued() == 0;
        if args.checkpoint_after > 0
            && !cut_taken
            && (m.ingested >= args.checkpoint_after || stream_over)
        {
            if m.ingested < args.checkpoint_after {
                eprintln!(
                    "warning: stream ended after {} events, before --checkpoint-after {}; \
                     checkpointing the end-of-stream state instead",
                    m.ingested, args.checkpoint_after
                );
            }
            cut_taken = true;
            let st = store.as_ref().expect("validated above");
            // Prefer a live full cut at the next source barrier: the
            // coordinated cut appends to the store itself and chains
            // onto any `--checkpoint-every` cadence cuts already taken.
            match handle.cut(CutKind::Full) {
                Ok(ck) => {
                    let pc = match PipelineCheckpoint::from_bytes(ck.as_bytes()) {
                        Ok(pc) => pc,
                        Err(e) => {
                            eprintln!("error: decode own cut: {e}");
                            std::process::exit(1);
                        }
                    };
                    println!(
                        "\ncheckpointed to {} (record seq {}, {} bytes, {} buffered events) \
                         after {} events; stopping the source",
                        st.path().display(),
                        ck.seq(),
                        ck.len(),
                        pc.buffered_len(),
                        pc.events_pulled(),
                    );
                    println!(
                        "resume with: hamlet-cli pipeline ... --resume --state {}",
                        st.path().display()
                    );
                    // The drain path below prints the final summary.
                    handle.stop();
                }
                Err(_) => {
                    // The source already ended — no barrier left to cut
                    // at. Freeze the quiesced pipeline instead: a full
                    // cut that extends the same chain (seq = tip + 1),
                    // appended to the store as its newest base.
                    // Exporters snapshot first: `checkpoint` consumes
                    // the handle.
                    if let Some(p) = &args.prom_out {
                        write_export(p, "prometheus metrics", &handle.export_prometheus());
                    }
                    if let Some(p) = &args.trace_out {
                        write_export(p, "chrome trace", &handle.export_chrome_trace());
                    }
                    let frozen = handle.checkpoint();
                    let ck = match Checkpoint::from_bytes(frozen.checkpoint.to_bytes()) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("error: package end-of-stream checkpoint: {e}");
                            std::process::exit(1);
                        }
                    };
                    if let Err(e) = st.append(&ck) {
                        eprintln!("error: append to {}: {e}", st.path().display());
                        std::process::exit(1);
                    }
                    println!(
                        "\ncheckpointed to {} after {} events: {} bytes ({} engine state, \
                         {} buffered events), barrier pause {:?}, {} results already emitted",
                        st.path().display(),
                        frozen.checkpoint.events_pulled(),
                        ck.len(),
                        frozen.checkpoint.engine_bytes(),
                        frozen.checkpoint.buffered_len(),
                        frozen.pause,
                        frozen.sink.results.len(),
                    );
                    println!(
                        "resume with: hamlet-cli pipeline ... --resume --state {}",
                        st.path().display()
                    );
                    return;
                }
            }
        }
        if stream_over {
            break;
        }
        std::thread::sleep(Duration::from_millis(args.metrics_ms.clamp(20, 2_000)));
    }
    let final_metrics = handle.metrics();
    // Exporters snapshot before the drain tears the pipeline down: the
    // prom text is the final scrape, the trace holds the whole run (or
    // its most recent TRACE_CAPACITY spans per lane).
    if let Some(p) = &args.prom_out {
        write_export(p, "prometheus metrics", &handle.export_prometheus());
    }
    if let Some(p) = &args.trace_out {
        write_export(p, "chrome trace", &handle.export_chrome_trace());
    }
    let report = handle.drain();
    println!(
        "\ndrained in {:?}: {} events ({:.0} ev/s), {} late, {} results",
        report.wall,
        report.events,
        report.throughput_eps(),
        report.late,
        report.results,
    );
    if let Some(st) = &store {
        println!(
            "checkpoint store {}: {} cut(s), {} bytes written, {} failure(s)",
            st.path().display(),
            final_metrics.checkpoints,
            final_metrics.checkpoint_bytes,
            final_metrics.checkpoint_failures,
        );
    }
    println!(
        "end-to-end latency avg {:?} p50 {:?} p99 {:?} max {:?} · engine latency avg {:?} · \
         peak state {} KB · late skips {}",
        report.latency.avg(),
        report.latency.p50(),
        report.latency.p99(),
        report.latency.max(),
        report.engine_latency.avg(),
        report.peak_mem.iter().sum::<usize>() / 1024,
        report.merged_stats().late_skips,
    );
    if churned {
        println!(
            "workload epoch {} ({} scheduled churn op(s) rejected)",
            final_metrics.epoch, final_metrics.churns_rejected,
        );
    }
    if args.show_results > 0 {
        println!("\nsample results:");
        for r in report.sink.results.iter().take(args.show_results) {
            println!(
                "  {} key={} window@{}: {:?}",
                r.query, r.group_key, r.window_start, r.value
            );
        }
    }
}

/// Offline mode: the original slice-at-a-time run.
fn run_offline(args: &Args, reg: Arc<TypeRegistry>, events: Vec<Event>, queries: Vec<Query>) {
    println!(
        "dataset={} events={} queries={} policy={:?}",
        args.dataset,
        events.len(),
        queries.len(),
        args.policy
    );
    let mut engine = match HamletEngine::new(
        reg.clone(),
        queries,
        EngineConfig {
            policy: args.policy,
            ..EngineConfig::default()
        },
    ) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("engine error: {e}");
            std::process::exit(1);
        }
    };
    if args.explain {
        println!("\n{}", engine.explain());
    }

    // hamlet-lint: allow(wallclock) -- CLI throughput measurement for --metrics output
    let t0 = Instant::now();
    let mut results = Vec::new();
    for e in &events {
        results.extend(engine.process(e));
    }
    results.extend(engine.flush());
    let wall = t0.elapsed();

    let stats = engine.stats();
    println!(
        "\nprocessed in {wall:?} ({:.0} events/s), {} window results",
        events.len() as f64 / wall.as_secs_f64(),
        results.len()
    );
    println!(
        "latency avg {:?} · peak state {} KB · {} snapshots · \
         {} shared / {} solo bursts · {} merges · {} splits · \
         decisions {:?} ({:.2}% of wall)",
        engine.latency().avg(),
        engine.peak_memory() / 1024,
        stats.runs.snapshots(),
        stats.runs.shared_bursts,
        stats.runs.solo_bursts,
        stats.runs.merges,
        stats.runs.splits,
        stats.decision_time,
        100.0 * stats.decision_time.as_secs_f64() / wall.as_secs_f64().max(1e-9),
    );
    if args.show_results > 0 {
        println!("\nsample results:");
        for r in results.iter().take(args.show_results) {
            println!(
                "  {} key={} window@{}: {:?}",
                r.query, r.group_key, r.window_start, r.value
            );
        }
    }
}
