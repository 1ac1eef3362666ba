//! The host record every result carries: parallelism, git commit, build
//! profile, memory high-water mark and the host's speed through the run.

use std::path::{Path, PathBuf};

/// The repository root (the benchmark lives one directory below it).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark sits in the repo").to_owned()
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Process peak resident set (`VmHWM`), in MB; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one [`SpeedProbe`] sample takes on the reference host, a 2-vCPU
/// KVM guest on a 2.0-GHz Xeon, in ms.
pub const PROBE_REFERENCE_MS: f64 = 5.0;

/// The host's speed, sampled through a run.
///
/// On a shared host the core speed drifts by a fifth or more for minutes
/// at a time, and every timing of the program drifts with it. Each sample
/// times a fixed register-only loop in the benchmark's own code, which no
/// change to the program can speed up or slow down; the best of three
/// back-to-back timings drops preemption by the program's own threads.
#[derive(Debug, Default)]
pub struct SpeedProbe {
    samples_ms: Vec<f64>,
}

impl SpeedProbe {
    /// Take one sample.
    pub fn sample(&mut self) {
        let best = (0..3)
            .map(|_| {
                let started = std::time::Instant::now();
                let mut x = 0x2545_F491_4F6C_DD1Du64;
                let mut acc = 0u64;
                for i in 0..2_000_000u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    acc = acc.wrapping_add(x.wrapping_mul(i | 1));
                }
                std::hint::black_box(acc);
                started.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        self.samples_ms.push(best);
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median sample over [`PROBE_REFERENCE_MS`]: above 1 on a host slower
    /// than the reference. 1 with no samples.
    pub fn slowdown(&self) -> f64 {
        if self.samples_ms.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.samples_ms) / PROBE_REFERENCE_MS
        }
    }
}

/// The git commit of the checkout, or `none` where the repository root
/// holds no `.git` directory. Read from the files under `.git` rather than
/// by running git, which would look above the checkout for a repository.
pub fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |path: &Path| std::fs::read_to_string(path).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else { return "none".to_owned() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(reference))
        .or_else(|| {
            // A packed ref: `<commit> <name>` lines.
            read(&git.join("packed-refs"))?.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_owned())
            })
        })
        .unwrap_or_else(|| "none".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_probe_over_the_reference() {
        let mut probe = SpeedProbe::default();
        assert_eq!(probe.slowdown(), 1.0);
        probe.samples_ms = vec![10.0, 5.0, 7.5];
        assert!((probe.slowdown() - 7.5 / PROBE_REFERENCE_MS).abs() < 1e-12);
        probe.sample();
        assert_eq!(probe.samples(), 4);
        assert!(probe.samples_ms[3] > 0.0);
    }
}
