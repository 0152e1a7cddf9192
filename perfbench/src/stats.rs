//! Sample statistics, the seeded input generator, per-process resource
//! readings and the span ledger the traced runs fill.

use std::collections::BTreeMap;
use std::time::Instant;

use mbist_mem::rng::SplitMix64;

/// The workload input generator: `mbist_mem`'s SplitMix64 with the
/// helpers the workloads need. Same seed, same inputs.
pub struct Rng(SplitMix64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(SplitMix64::new(seed ^ 0x6d62_6973_745f_6265))
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    // With fewer than eleven samples no percentile has ten beyond it;
    // the maximum is reported instead, at the 100th percentile.
    let i = if n > 10 { n - 11 } else { n - 1 };
    Tail { value: v[i], percentile: 100.0 * (i + 1) as f64 / n as f64, samples: n }
}

/// The median over slices of each slice's tail, for runs whose samples
/// are so many that the run-wide tail sits among a handful of stalls.
pub fn median_tail(tails: &[Tail]) -> Tail {
    let of = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
    Tail {
        value: of(|t| t.value),
        percentile: of(|t| t.percentile),
        samples: of(|t| t.samples as f64) as usize,
    }
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU time of a process (all its threads), in ms, or
/// `None` when `/proc` does not have it (the process has exited).
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1e3 / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Pids of the live direct children of `pid`.
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let Some(child) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{child}/stat")) else {
            continue;
        };
        let ppid = stat
            .rfind(')')
            .and_then(|i| stat[i + 2..].split_whitespace().nth(1))
            .and_then(|s| s.parse::<u32>().ok());
        if ppid == Some(pid) {
            out.push(child);
        }
    }
    out.sort_unstable();
    out
}

/// Accumulated per-layer figures of one traced run, by metric name.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 3.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
