//! The three workloads. Each builds its input from the seed, computes
//! the reference rows untimed, then repeats whole passes over the input
//! until the time budget is spent, checking every pass's rows.

pub mod offline;
pub mod pipeline_paced;
pub mod rideshare_highcard;
pub mod stock_diverse;

use crate::report::{Report, PER_LAYER};
use crate::sys::cpu_ticks;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["stock_diverse", "rideshare_highcard", "pipeline_paced"];

/// What one invocation was asked to do.
pub struct Ctx {
    /// Workload seed: the same seed gives the same events and queries.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for checkpoint stores (removed at exit).
    pub scratch: PathBuf,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// Runs workload `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "stock_diverse" => offline::run(&stock_diverse::build(ctx.seed), ctx, name),
        "rideshare_highcard" => offline::run(&rideshare_highcard::build(ctx.seed), ctx, name),
        "pipeline_paced" => pipeline_paced::run(ctx),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Decides when to stop repeating passes: after at least `min_passes`,
/// once the budget is spent.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_passes: usize,
}

impl Budget {
    /// A budget of `seconds`, starting now.
    pub fn new(seconds: f64, min_passes: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            min_passes,
        }
    }

    /// True while another pass should run, given `done` passes so far.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_passes || self.start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// Host CPU steal over one pass: the share of the machine's CPU time
/// the hypervisor gave to other guests, from `/proc/stat`.
pub struct StealMeter((u64, u64));

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks().unwrap_or((0, 0)))
    }

    /// The steal share since [`start`](Self::start) (0 where unknown).
    pub fn share(&self) -> f64 {
        let (s1, t1) = cpu_ticks().unwrap_or(self.0);
        (s1 - self.0 .0) as f64 / (t1 - self.0 .1).max(1) as f64
    }
}

/// The passes throughput and latency are taken from: the half of them
/// (at least one) during which the host stole the least CPU time.
///
/// On a shared virtual host, neighbours' load comes and goes over
/// seconds to minutes and slows every pass it overlaps, in CPU time
/// too (shared caches and cores). Measuring from the quietest passes
/// keeps the figures a property of the program rather than of the
/// neighbours.
pub fn quiet<T>(passes: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut order: Vec<&T> = passes.iter().collect();
    order.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    order.truncate(passes.len().div_ceil(2).max(1));
    order
}

/// A scratch directory removed when dropped, so an early error return
/// leaves no store files behind.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `path` (and its parents) afresh.
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Per-layer self time (per traced pass), zero for the layers this
/// workload does not load, the overhead line, and the span file.
pub fn finish_trace(
    report: &mut Report,
    tracer: &Tracer,
    ctx: &Ctx,
    name: &str,
    traced_passes: usize,
) -> Result<(), String> {
    let self_times = tracer.self_times();
    let per = traced_passes.max(1) as f64;
    for (layer, metric) in [
        ("executor", "self.executor_s"),
        ("metrics", "self.metrics_s"),
        ("checkpoint", "self.checkpoint_s"),
        ("store", "self.store_s"),
        ("pipeline", "self.pipeline_s"),
        ("sink", "self.sink_s"),
        ("bench", "self.bench_s"),
    ] {
        report.set(metric, self_times.get(layer).copied().unwrap_or(0.0) / per);
    }
    for (k, _) in PER_LAYER {
        report.metrics.entry(k).or_insert(0.0);
    }
    report.notes.push(format!(
        "{name}: wall-clock self time per traced pass by layer: {}",
        self_times
            .iter()
            .map(|(l, s)| format!("{l} {:.4} s", s / per))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", ctx.out_dir.display()))?;
    let path = ctx
        .out_dir
        .join(format!("trace-{name}-seed{}.json", ctx.seed));
    let json = tracer.chrome_json(&[
        ("workload", name.to_string()),
        ("seed", ctx.seed.to_string()),
        ("traced_passes", traced_passes.to_string()),
    ]);
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "{name}: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}
