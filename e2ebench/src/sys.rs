//! Process and host facts the run record carries: peak RSS, allowed CPUs,
//! the filesystem under the store, on-disk sizes, the host's speed, and a
//! scratch directory inside the working directory that is removed on drop.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::stats::Samples;

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on.
pub fn cpus_allowed() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), or `unknown`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Total bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Size of one file, 0 if it does not exist.
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// A directory under the working directory, removed (with everything in
/// it) when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// `.e2ebench_tmp/<label>-<pid>` under the current directory, emptied
    /// first.
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        let path = std::env::current_dir()?
            .join(".e2ebench_tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh sub-directory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind when this was the last run in it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Flush every dirty page of the host's file systems (`sync(2)`), so
/// write-back left by an earlier phase does not land inside a timed one.
pub fn settle() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Median time of one [`HostProbe`] pass on the host the benchmark was
/// tuned on (a 2-vCPU VM, in its faster state). End-to-end times are
/// reported scaled to it.
pub const REFERENCE_PROBE_S: f64 = 2.0e-3;

/// A fixed CPU-and-memory kernel, timed at regular moments through a run
/// to price the host's speed at the time.
///
/// The shared host this benchmark was built on changes speed by itself,
/// for minutes at a time, and every timing moves with it by about the
/// same factor: across one such shift the monitor's append p50 read 5.5
/// vs 3.75 us, its recover 163 vs 113 ms and its set-up 0.275 vs 0.193 s,
/// while this probe read 2.95 vs 2.0 ms. No statistic taken within a run
/// removes that, so the run's end-to-end times are divided by its median
/// probe over [`REFERENCE_PROBE_S`] (see [`crate::outcome::Outcome::scale_to_reference_host`]);
/// the figures as measured stay in the run record. The buffer's 16 MiB
/// count towards `peak_rss_mb`.
#[derive(Default)]
pub struct HostProbe {
    buf: Vec<u64>,
    last: Option<Instant>,
    samples: Samples,
}

impl HostProbe {
    const EVERY: Duration = Duration::from_millis(100);
    /// 16 MiB: past the caches, like the stores' scans.
    const WORDS: usize = 1 << 21;
    const STEPS: usize = 200_000;

    /// Time one pass if the last is [`Self::EVERY`] old. Timed loops call
    /// it between requests, so the samples span the whole run.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= Self::EVERY) {
            self.pass();
        }
    }

    fn pass(&mut self) {
        if self.buf.is_empty() {
            self.buf = vec![1; Self::WORDS];
        }
        let mask = self.buf.len() - 1;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let t = Instant::now();
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            self.buf[j] = self.buf[j].wrapping_add(x);
        }
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
    }

    /// How much slower than the reference the host ran: the median pass
    /// over [`REFERENCE_PROBE_S`] (after one pass, if none was taken).
    pub fn factor(&mut self) -> f64 {
        if self.samples.len() == 0 {
            self.pass();
        }
        self.samples.median() / REFERENCE_PROBE_S
    }

    pub fn samples(&self) -> &Samples {
        &self.samples
    }
}
