//! What the host contributes to a measurement: peak memory, CPU time the
//! hypervisor stole, and a probe of the host's current speed.
//!
//! On a shared virtual machine the same code runs 20–50% slower for
//! minutes at a time when neighbours are busy (stolen time, lower turbo
//! clocks, a busy SMT sibling), so a wall-clock figure measures the
//! neighbours as well as the program. Stolen time is the largest part and
//! the guest kernel counts it per CPU, so timings are taken net of it
//! ([`Clocks`]). The rest shows only in the probe, a fixed piece of work
//! that uses none of the program's code; it is printed beside the
//! metrics, never applied to them: a probe is slowed by its own share of
//! the noise, and would correct the metrics by it.

use std::collections::HashMap;
use std::time::Instant;

/// One reading of wall time and of the time the hypervisor has stolen
/// from each virtual CPU (the `steal` column of the `cpuN` lines of
/// `/proc/stat`).
///
/// [`Clocks::run_ms`] charges an interval the steal of the CPU that lost
/// the most in it. While one thread runs and the others wait, that is the
/// steal of the CPU it ran on: a halted virtual CPU is not runnable, so
/// the idle one loses nothing. In a parallel phase it assumes the worker
/// on the most-stolen CPU held up the end of the phase, as a straggler
/// does. The process's CPU time is no help here: on a KVM guest it can
/// include the stolen time.
#[derive(Clone, Debug)]
pub struct Clocks {
    wall: Instant,
    steal_ns: Vec<u64>,
}

impl Clocks {
    /// Reads the clocks. Steal reads as nothing where `/proc/stat` does not
    /// report it, which leaves timings at wall time.
    pub fn now() -> Clocks {
        let steal_ns = std::fs::read_to_string("/proc/stat")
            .map(|stat| per_cpu_steal_ns(&stat))
            .unwrap_or_default();
        Clocks {
            wall: Instant::now(),
            steal_ns,
        }
    }

    /// Milliseconds from `self` to `later`, net of the steal of the CPU
    /// that lost the most in between. The steal counter moves in 10 ms
    /// ticks, so one interval can be off by a tick either way; medians
    /// over many intervals absorb that. Never negative.
    pub fn run_ms(&self, later: &Clocks) -> f64 {
        let wall_ms = later.wall.duration_since(self.wall).as_secs_f64() * 1e3;
        let stolen_ns = later
            .steal_ns
            .iter()
            .zip(&self.steal_ns)
            .map(|(b, a)| b.saturating_sub(*a))
            .max()
            .unwrap_or(0);
        (wall_ms - stolen_ns as f64 / 1e6).max(0.0)
    }
}

/// Nanoseconds per `/proc/stat` tick (`USER_HZ`, 100 on Linux).
const NS_PER_TICK: u64 = 10_000_000;

/// Steal of each CPU, ns, from the `cpuN` lines of a `/proc/stat` text
/// (the aggregate `cpu` line is skipped). Lines it cannot read count as
/// no steal.
fn per_cpu_steal_ns(stat: &str) -> Vec<u64> {
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .map(|l| {
            l.split_whitespace()
                .nth(8)
                .and_then(|v| v.parse::<u64>().ok())
                .map_or(0, |ticks| ticks * NS_PER_TICK)
        })
        .collect()
}

/// Runs the host-speed probe and returns its wall time in ms: two threads
/// (as many as the parallel LCC phase uses), each filling a hash map,
/// sorting a vector and looking every key up — allocation, hashing and
/// branchy integer work like an OPS5 engine's, with no code from the
/// program under test. Its working set (a few MB per thread) is larger
/// than a core's private cache, so it feels a neighbour's cache and memory
/// traffic as the engines do.
pub fn probe_ms() -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in 0..2u64 {
            s.spawn(move || {
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ w;
                let mut map: HashMap<u64, u64> = HashMap::new();
                let mut keys = Vec::with_capacity(1 << 17);
                for _ in 0..1 << 17 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    map.insert(x & 0xf_ffff, x);
                    keys.push(x);
                }
                keys.sort_unstable();
                let sum = keys.iter().fold(0u64, |acc, k| {
                    acc.wrapping_add(map.get(&(k & 0xf_ffff)).copied().unwrap_or(0))
                });
                std::hint::black_box(sum);
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn clocks(wall: Instant, ms: u64, steal_ms: &[u64]) -> Clocks {
        Clocks {
            wall: wall + Duration::from_millis(ms),
            steal_ns: steal_ms.iter().map(|s| s * 1_000_000).collect(),
        }
    }

    #[test]
    fn run_time_is_wall_time_net_of_the_most_stolen_cpu() {
        let t = Instant::now();
        let start = clocks(t, 0, &[500, 70]);
        // No steal: wall time.
        let calm = clocks(t, 100, &[500, 70]);
        assert!((start.run_ms(&calm) - 100.0).abs() < 1e-9);
        // One thread running, its CPU lost 20 ms.
        let one = clocks(t, 100, &[500, 90]);
        assert!((start.run_ms(&one) - 80.0).abs() < 1e-9);
        // Both CPUs lost time: the larger loss is charged.
        let two = clocks(t, 100, &[530, 80]);
        assert!((start.run_ms(&two) - 70.0).abs() < 1e-9);
        // A tick of steal longer than a short interval: zero, not negative.
        let short = clocks(t, 5, &[510, 70]);
        assert_eq!(start.run_ms(&short), 0.0);
        // No steal readings: wall time.
        let none = Clocks {
            wall: t,
            steal_ns: Vec::new(),
        };
        assert!((none.run_ms(&clocks(t, 100, &[])) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn per_cpu_steal_skips_the_aggregate_line() {
        let stat = "cpu  10 0 5 100 1 0 2 30 0 0\n\
                    cpu0 5 0 2 50 0 0 1 12 0 0\n\
                    cpu1 5 0 3 50 1 0 1 18 0 0\n\
                    intr 12345\n";
        assert_eq!(per_cpu_steal_ns(stat), vec![120_000_000, 180_000_000]);
    }
}
