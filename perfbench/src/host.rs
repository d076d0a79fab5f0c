//! Host diagnostics read from `/proc`, so that a noisy run can be told
//! apart from a change in the program: minor page faults, time threads
//! spent runnable but waiting for a CPU, and peak resident memory.

use std::time::Instant;

/// Minor page faults of the whole process so far (`/proc/self/stat`
/// field 10), or 0 where `/proc` is unavailable.
pub fn minflt() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some(tail) = stat.rsplit(')').next() else {
        return 0;
    };
    tail.split_whitespace()
        .nth(10 - 3)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds every live thread of the process has spent runnable but
/// waiting for a CPU (second field of each task's `schedstat`).
pub fn sched_wait_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|w| w.parse::<u64>().ok())
        })
        .sum()
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pointer-chase steps in one [`MemProbe::run`].
const PROBE_STEPS: usize = 20_000;

/// A fixed memory-bound probe that runs none of the program's code: a
/// random pointer chase through 8 MiB. Contention for caches and memory
/// from other tenants slows it, and memory-heavy operations with it,
/// while CPU-bound code keeps its speed; its time tells such a host
/// episode apart from a change in the program.
pub struct MemProbe {
    next: Vec<u32>,
}

impl Default for MemProbe {
    fn default() -> MemProbe {
        // Sattolo's shuffle: one cycle through every slot.
        let n = 1usize << 21;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        MemProbe { next }
    }
}

impl MemProbe {
    /// Time of one chase, in microseconds.
    pub fn run(&self) -> f64 {
        let t0 = Instant::now();
        let mut p = 0u32;
        for _ in 0..PROBE_STEPS {
            p = self.next[p as usize];
        }
        std::hint::black_box(p);
        t0.elapsed().as_secs_f64() * 1e6
    }
}

/// Accumulates host counters over the blocks of a run that count.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostWindow {
    /// Minor faults over the counted blocks.
    pub minflt: u64,
    /// Scheduler wait over the counted blocks, ns.
    pub wait_ns: u64,
    /// Wall time of the counted blocks, ns.
    pub wall_ns: u64,
}

/// A reading taken at the start of a block.
#[derive(Debug, Clone, Copy)]
pub struct HostMark {
    at: Instant,
    minflt: u64,
    wait_ns: u64,
}

impl HostWindow {
    /// Read the counters at the start of a block.
    pub fn mark() -> HostMark {
        HostMark {
            at: Instant::now(),
            minflt: minflt(),
            wait_ns: sched_wait_ns(),
        }
    }

    /// Add the block that started at `m` and ends now; returns its wall
    /// time in ns.
    pub fn add(&mut self, m: HostMark) -> u64 {
        let wall_ns = m.at.elapsed().as_nanos() as u64;
        self.wall_ns += wall_ns;
        self.minflt += minflt().saturating_sub(m.minflt);
        self.wait_ns += sched_wait_ns().saturating_sub(m.wait_ns);
        wall_ns
    }

    /// Share of wall time threads spent waiting for a CPU.
    pub fn wait_share(&self) -> f64 {
        self.wait_ns as f64 / self.wall_ns.max(1) as f64
    }
}
