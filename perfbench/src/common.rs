//! Shared plumbing: the timed loop, order statistics, host-noise readings
//! and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Ladder of tail percentiles, in permille; the reported tail is the
/// highest one that leaves at least [`TAIL_BEYOND`] samples above it.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];
/// Samples that must lie beyond a percentile for it to count as a tail.
const TAIL_BEYOND: usize = 10;
/// Below this many samples no tail is reported at all.
const TAIL_MIN_SAMPLES: usize = 40;

/// One timed phase of a workload: per-op latencies plus the op-busy time
/// they add up to.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Latency of every completed op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Seconds of the timed phase (the ops-per-second denominator).
    pub busy_s: f64,
    /// Ops attempted, the failed ones included.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Crash-recovery times, in seconds (`service_mixed` only).
    pub recover_s: Vec<f64>,
}

impl Phase {
    /// Records one completed op.
    pub fn record(&mut self, d: Duration) {
        self.op_ms.push(d.as_secs_f64() * 1e3);
        self.busy_s += d.as_secs_f64();
        self.attempted += 1;
    }

    /// Completed ops per second of the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        self.op_ms.len() as f64 / self.busy_s
    }

    /// Median op latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        percentile(&self.op_ms, 50.0)
    }

    /// The tail percentile this phase's sample supports and its value, or
    /// `None` below [`TAIL_MIN_SAMPLES`] ops.
    pub fn tail_ms(&self) -> Option<(f64, f64)> {
        let n = self.op_ms.len();
        if n < TAIL_MIN_SAMPLES {
            return None;
        }
        TAIL_LADDER
            .iter()
            .find(|&&pm| n * (1000 - pm) / 1000 >= TAIL_BEYOND)
            .map(|&pm| {
                let p = pm as f64 / 10.0;
                (p, percentile(&self.op_ms, p))
            })
    }
}

/// Runs `op` until the time it reports as busy reaches `seconds`. `op`
/// receives the op index and returns the op's own duration (input
/// preparation and output checks stay outside it).
pub fn timed_loop(
    seconds: f64,
    mut op: impl FnMut(u64) -> Result<Duration, String>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut i = 0;
    while phase.busy_s < seconds {
        let d = op(i)?;
        phase.record(d);
        i += 1;
    }
    Ok(phase)
}

/// Times `f`, returning its result and duration.
pub fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Builds the workload state `reps` times and keeps the last one,
/// returning it with every build's duration in seconds; `setup_s` is
/// their median.
pub fn repeated_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (state, d) = stopwatch(&mut build);
        times.push(d.as_secs_f64());
        last = Some(state?);
    }
    Ok((last.expect("at least one build"), times))
}

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-noise readings taken at the start of a run; [`HostNoise::finish`]
/// turns them into deltas. Readings only — never metrics.
pub struct HostNoise {
    wall: Instant,
    cpu_s: f64,
    runq_s: f64,
    stat: Option<(u64, u64)>,
}

impl HostNoise {
    /// Takes the starting readings.
    pub fn start() -> Self {
        HostNoise {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            runq_s: runqueue_wait_s(),
            stat: host_steal_ticks(),
        }
    }

    /// The readings since [`start`](HostNoise::start), as one JSON object.
    pub fn finish(&self) -> String {
        let steal = match (self.stat, host_steal_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{:.6}", (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "null".to_string(),
        };
        format!(
            "{{\"wall_s\": {:.4}, \"cpu_s\": {:.4}, \"runqueue_wait_s\": {:.4}, \"host_steal_frac\": {}}}",
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
            runqueue_wait_s() - self.runq_s,
            steal
        )
    }
}

/// User plus system CPU time of this process (`/proc/self/stat`, in
/// clock ticks of 1/100 s — the Linux `USER_HZ`).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Run-queue wait summed over this process's live threads
/// (`/proc/self/task/*/schedstat`, second field, nanoseconds).
fn runqueue_wait_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|f| f.parse::<u64>().ok())
        })
        .sum::<u64>() as f64
        / 1e9
}

/// `(steal, total)` jiffies of the host's aggregate `cpu` line in
/// `/proc/stat`.
fn host_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = *v.get(7)?;
    // guest time is already counted inside user time.
    let total = v.iter().take(8).sum();
    Some((steal, total))
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The run's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            body,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut phase = Phase::default();
        for i in 0..39 {
            phase.record(Duration::from_millis(i));
        }
        assert!(phase.tail_ms().is_none());
        phase.record(Duration::from_millis(39));
        assert_eq!(
            phase.tail_ms().map(|t| t.0),
            Some(75.0),
            "40 samples: p90 leaves only 4"
        );
        for i in 40..100 {
            phase.record(Duration::from_millis(i));
        }
        assert_eq!(phase.tail_ms().map(|t| t.0), Some(90.0));
        for i in 100..1000 {
            phase.record(Duration::from_millis(i));
        }
        assert_eq!(phase.tail_ms().map(|t| t.0), Some(99.0));
    }
}
