//! Operating-system probes: thread CPU time, host speed, the
//! process's peak resident set, and host CPU steal.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux clocks and /proc; it builds on 64-bit Linux only");

use std::time::{Duration, Instant};

/// CPU time the calling thread has consumed (`CLOCK_THREAD_CPUTIME_ID`).
/// Unlike wall time it leaves out time the thread was not running:
/// blocked, preempted, or with its virtual CPU handed to another guest.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, enforced above) for the whole call, and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Wall and thread-CPU time of one interval on the calling thread.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    /// When the interval began.
    pub wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Starts an interval now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    /// `(wall, cpu)` time since [`start`](Self::start).
    pub fn stop(&self) -> (Duration, Duration) {
        let cpu = thread_cpu().saturating_sub(self.cpu);
        (self.wall.elapsed(), cpu)
    }
}

/// Resets the kernel's peak-resident-set mark (`VmHWM`) to the current
/// resident set, so the next [`peak_rss_mb`] covers only what runs after
/// this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set via /proc/self/clear_refs: {e}"))
}

/// Peak resident set (`VmHWM`) since process start or the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`:
/// how much of the machine a virtual host lost to its neighbours.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Thread CPU time, in ms, of one [`yardstick`] run on the nominal
/// host: the 2-vCPU virtual machine the benchmark was tuned on, when
/// its neighbours were quiet.
pub const YARDSTICK_NOMINAL_MS: f64 = 5.0;

/// Runs a fixed kernel of hashing, map inserts and lookups and a sort,
/// and returns its thread CPU time. The kernel is the benchmark's own
/// and does not change with the program under test, so its time says
/// how fast the host runs at the moment.
pub fn yardstick() -> Duration {
    use std::collections::HashMap;
    let sw = Stopwatch::start();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 15);
    let mut keys: Vec<u64> = Vec::with_capacity(1 << 16);
    for i in 0..(1u64 << 16) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x & 0xF_FFFF, i);
        keys.push(x);
    }
    keys.sort_unstable();
    let mut sum = 0u64;
    for k in keys.iter().step_by(3) {
        sum = sum.wrapping_add(map.get(&(k & 0xF_FFFF)).copied().unwrap_or(1));
    }
    std::hint::black_box(sum);
    sw.stop().1
}

/// Host speed over a stretch of timed work, from [`yardstick`] runs
/// interleaved with it.
///
/// The yardstick runs between the timed calls on the same thread, so
/// it sees the same virtual CPUs and the same neighbours' load as the
/// work it scales. Runs at only the two ends of a pass would not: a
/// thread moves between virtual CPUs of different speed during a pass,
/// and the host's load changes within seconds.
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// No samples yet.
    pub fn new() -> HostSpeed {
        HostSpeed::default()
    }

    /// Runs the yardstick once, between two timed calls.
    pub fn sample(&mut self) {
        self.0.push(yardstick().as_secs_f64() * 1e3);
    }

    /// The factor that scales a CPU time measured among the samples to
    /// the nominal host: [`YARDSTICK_NOMINAL_MS`] ÷ the median yardstick
    /// time. Below 1 when the host ran slow.
    pub fn scale(&self) -> f64 {
        YARDSTICK_NOMINAL_MS / crate::stats::median(&self.0)
    }
}
