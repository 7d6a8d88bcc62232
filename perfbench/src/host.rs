//! Host-side measurement: the wall clock, CPU pinning, and peak RSS.
//!
//! Host speed on small shared VMs drifts in phases: the same paper-scale
//! experiment takes ~75 ms in one phase and ~120–140 ms in another, and a
//! phase lasts from seconds to minutes, often on one CPU only. A run is
//! too short to average the phases out, so every timed quantity is
//! measured in *rounds* of one sample pinned to each allowed CPU in turn,
//! each between two passes of a fixed [`Reference`] kernel on the same
//! CPU, and rescaled by how much slower than [`REFERENCE_NOMINAL_NS`] the
//! faster pass ran. A run reports the median over its rescaled samples.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;

// lint: allow(ambient-time): host wall time is what this benchmark measures
use std::time::Instant;

/// Nanoseconds of host wall time since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    // lint: allow(ambient-time): host wall time is what this benchmark measures
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint: allow(ambient-time): host wall time is what this benchmark measures
    let d = EPOCH.get_or_init(Instant::now).elapsed();
    d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
}

/// Time one reference pass is rescaled to. Host times are reported in
/// units where a reference pass takes this long: on the 2-vCPU VM the
/// benchmark was built on, a fast-phase pass.
pub const REFERENCE_NOMINAL_NS: f64 = 5.0e6;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fixed kernel whose host speed tracks the simulator's across host
/// phases: unpredictable indirect calls, B-tree churn and small-allocation
/// churn. Kernels of pure arithmetic, pointer chasing or sorting barely
/// slow down in a slow phase, while these slow down by most of what the
/// simulator does. Its allocations stay far below glibc's mmap threshold,
/// so the program's own allocation history cannot change its speed.
pub struct Reference {
    calls: Vec<Box<dyn Fn(u64) -> u64>>,
}

impl Reference {
    pub fn new() -> Self {
        let calls = (0..64u64)
            .map(|k| {
                Box::new(move |x: u64| x.wrapping_mul(k | 1).rotate_left((k % 63) as u32) ^ k)
                    as Box<dyn Fn(u64) -> u64>
            })
            .collect();
        let r = Reference { calls };
        // The first pass pays for cold caches and fresh heap pages.
        r.time();
        r
    }

    /// One pass; returns its host time in ns.
    pub fn time(&self) -> u64 {
        let t0 = now_ns();
        let mut s = 9u64;
        let mut acc = 1u64;
        for _ in 0..150_000 {
            let i = (splitmix(&mut s) % 64) as usize;
            acc = (self.calls[i])(acc);
        }
        let mut tree = BTreeMap::new();
        for i in 0..10_000u64 {
            tree.insert(splitmix(&mut s) % 25_000, i);
            if i % 3 == 0 {
                tree.remove(&(splitmix(&mut s) % 25_000));
            }
        }
        let mut keep: Vec<Vec<u32>> = Vec::with_capacity(512);
        for _ in 0..30_000 {
            let v = vec![7u32; 1 + (splitmix(&mut s) % 64) as usize];
            if keep.len() < 512 {
                keep.push(v);
            } else {
                let i = (splitmix(&mut s) % 512) as usize;
                keep[i] = v;
            }
        }
        black_box((acc, tree.len(), keep.len()));
        now_ns() - t0
    }

    /// Run `f` between two reference passes. Returns its result, its host
    /// time in ns, and the factor that rescales that time to the speed at
    /// which a pass takes [`REFERENCE_NOMINAL_NS`]. The faster pass sets
    /// the factor: a pass hit by an interrupt only ever runs slow.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, u64, f64) {
        let before = self.time();
        let t0 = now_ns();
        let r = f();
        let ns = now_ns() - t0;
        let pass = before.min(self.time());
        (r, ns, REFERENCE_NOMINAL_NS / pass as f64)
    }
}

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, ascending. Empty if the affinity mask
/// cannot be read (the caller then measures unpinned).
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to one CPU. Returns whether the kernel agreed.
fn pin_to(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Restore the thread to every CPU in `cpus`.
fn unpin(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set);
    }
}

/// The CPUs one round visits: every allowed CPU, or a single unpinned
/// slot when pinning is unavailable.
pub struct Rounds {
    cpus: Vec<usize>,
    pinned: bool,
}

impl Rounds {
    pub fn new() -> Self {
        let cpus = allowed_cpus();
        let pinned = cpus.len() > 1 && pin_to(cpus[0]);
        if pinned {
            unpin(&cpus);
        }
        Rounds { cpus, pinned }
    }

    /// Samples per round.
    pub fn width(&self) -> usize {
        if self.pinned {
            self.cpus.len()
        } else {
            1
        }
    }

    /// Run `f` once per slot of one round, each pinned to its CPU.
    pub fn round<T>(&self, mut f: impl FnMut() -> T) -> Vec<T> {
        if !self.pinned {
            return vec![f()];
        }
        let out = self
            .cpus
            .iter()
            .map(|&c| {
                pin_to(c);
                f()
            })
            .collect();
        unpin(&self.cpus);
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_pass_takes_time() {
        let r = Reference::new();
        let ns: Vec<u64> = (0..5).map(|_| r.time()).collect();
        eprintln!("reference pass: {ns:?} ns");
        assert!(ns.iter().all(|&t| t > 0));
    }
}
