//! In-memory span tracing for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer (name `layer.operation`, start, end, parent, lane). Spans stay
//! in memory and are written out once, at the end, as Chrome
//! `trace_event` JSON — the format `docs/observability.md` uses — so
//! `chrome://tracing` and Perfetto open the file. Per-event call sites
//! keep counts and `hamlet_core::LatencyHistogram`s instead of spans.

use crate::sys::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How long a timed call took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Took {
    /// Wall-clock time.
    pub wall: Duration,
    /// CPU time of the calling thread.
    pub cpu: Duration,
}

/// Process id of spans the benchmark records around its own calls.
pub const PID_BENCH: u32 = 0;
/// Process id of spans imported from the pipeline's own recorder.
pub const PID_PIPELINE: u32 = 1;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// `layer.operation`, e.g. `executor.process_batch`.
    pub name: &'static str,
    /// Which recorder the span came from ([`PID_BENCH`] or [`PID_PIPELINE`]).
    pub pid: u32,
    /// Thread lane within the recorder.
    pub lane: u32,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans when on; every method is a no-op when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Temporarily turns recording on or off (untraced passes of a
    /// traced run); returns the previous state.
    pub fn set_on(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.on, on)
    }

    /// Opens a span that later spans can name as their parent. Returns
    /// `None` when off; [`close`](Self::close) it when done.
    pub fn open(&mut self, name: &'static str, lane: u32, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(SpanRec {
            name,
            pid: PID_BENCH,
            lane,
            start_ns: ns(self.origin.elapsed()),
            dur_ns: 0,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span [`open`](Self::open) returned.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            let end = ns(self.origin.elapsed());
            let s = &mut self.spans[i];
            s.dur_ns = end.saturating_sub(s.start_ns);
        }
    }

    /// Records a finished span that began at `start` and lasted `dur`.
    pub fn record(
        &mut self,
        name: &'static str,
        lane: u32,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) {
        if self.on {
            self.spans.push(SpanRec {
                name,
                pid: PID_BENCH,
                lane,
                start_ns: ns(start.saturating_duration_since(self.origin)),
                dur_ns: ns(dur),
                parent,
            });
        }
    }

    /// Runs `f` with a span named `name` around it (when on), and
    /// returns its result with the wall and thread-CPU time it took.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        lane: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Took) {
        let sw = Stopwatch::start();
        let out = f();
        let (wall, cpu) = sw.stop();
        self.record(name, lane, parent, sw.wall, wall);
        (out, Took { wall, cpu })
    }

    /// Imports spans from another recorder (`(name, lane, start_ns,
    /// dur_ns)`, times relative to that recorder's origin), linking each
    /// to the innermost earlier span of the same lane that contains it.
    pub fn import(&mut self, pid: u32, mut spans: Vec<(&'static str, u32, u64, u64)>) {
        if !self.on {
            return;
        }
        // Outer spans first: by lane, start, then longest first.
        spans.sort_by_key(|&(_, lane, start, dur)| (lane, start, std::cmp::Reverse(dur)));
        let mut stack: Vec<usize> = Vec::new();
        let mut lane_of_stack = None;
        for (name, lane, start_ns, dur_ns) in spans {
            if lane_of_stack != Some(lane) {
                stack.clear();
                lane_of_stack = Some(lane);
            }
            while let Some(&top) = stack.last() {
                let t = &self.spans[top];
                if start_ns + dur_ns <= t.start_ns + t.dur_ns {
                    break;
                }
                stack.pop();
            }
            self.spans.push(SpanRec {
                name,
                pid,
                lane,
                start_ns,
                dur_ns,
                parent: stack.last().copied(),
            });
            stack.push(self.spans.len() - 1);
        }
    }

    /// Nanoseconds from this tracer's origin to `t` (0 if earlier):
    /// the offset that aligns another recorder whose origin is `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.origin))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// durations of its child spans, summed by layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.layer()).or_default() += s.dur_ns.saturating_sub(c) as f64 / 1e9;
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete `"X"` events
    /// with microsecond `ts`/`dur`, one `tid` per lane), with `meta`
    /// key/value pairs in `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 140);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("},\"traceEvents\":[");
        let names = [(PID_BENCH, "benchmark"), (PID_PIPELINE, "pipeline")];
        for (i, (pid, name)) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{i}",
                s.name,
                s.layer(),
                s.pid,
                s.lane,
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.open("bench.pass", 0, None);
        let t0 = Instant::now();
        t.record(
            "executor.process_batch",
            0,
            root,
            t0,
            Duration::from_millis(3),
        );
        t.record("store.append", 0, root, t0, Duration::from_millis(1));
        t.close(root);
        if let Some(r) = root {
            t.spans[r].dur_ns = 10_000_000;
        }
        let st = t.self_times();
        assert!((st["bench"] - 0.006).abs() < 1e-12);
        assert!((st["executor"] - 0.003).abs() < 1e-12);
        assert!((st["store"] - 0.001).abs() < 1e-12);

        let mut off = Tracer::new(false);
        assert!(off.open("bench.pass", 0, None).is_none());
        off.record("store.append", 0, None, t0, Duration::from_millis(1));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn import_nests_by_containment_per_lane() {
        let mut t = Tracer::new(true);
        t.import(
            PID_PIPELINE,
            vec![
                ("executor.expiry_drain", 1, 20, 5),
                ("executor.process_batch", 1, 10, 50),
                ("executor.process_batch", 2, 15, 10),
                ("executor.process_batch", 1, 70, 5),
            ],
        );
        let s = t.spans();
        assert_eq!(s[0].name, "executor.process_batch");
        assert_eq!(s[1].parent, Some(0), "drain nests in its batch");
        assert_eq!(s[2].parent, None, "later batch is a sibling");
        assert_eq!(s[3].parent, None, "other lane");
        let json = t.chrome_json(&[("workload", "x".into())]);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"parent\":0"));
        assert!(json.ends_with("]}\n"));
    }
}
