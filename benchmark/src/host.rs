//! What the benchmark asks of the host: peak resident memory, a fixed
//! spin loop that flags a slow host, and a scratch directory that is
//! removed when the run ends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds a fixed single-thread integer loop takes: the same work
/// on every run, so a change in it is the host, not the program.
pub fn spin_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// A directory under `root` that is deleted on drop.
pub struct Scratch {
    dir: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn create(root: &Path, workload: &str) -> std::io::Result<Scratch> {
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir,
            next: AtomicU64::new(0),
        })
    }

    /// A path inside the scratch directory that nothing has used yet.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        // racecheck: a ticket counter; it publishes no other data.
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size in bytes of the regular files under `dir`.
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

/// Where scratch data goes when `--dir` is not given: beside the
/// executable's profile directory, so inside the build directory, which
/// is inside the checkout and ignored by git.
pub fn default_scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("bench-scratch")))
        .unwrap_or_else(|| std::env::temp_dir().join("mssg-bench-scratch"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_paths_are_fresh_and_removed_on_drop() {
        let root = std::env::temp_dir().join(format!("mssg-bench-host-{}", std::process::id()));
        let kept;
        {
            let s = Scratch::create(&root, "t").unwrap();
            let (a, b) = (s.fresh("x"), s.fresh("x"));
            assert_ne!(a, b);
            std::fs::create_dir_all(&a).unwrap();
            std::fs::write(a.join("f"), [0u8; 10]).unwrap();
            std::fs::write(s.fresh("g"), [0u8; 5]).unwrap();
            kept = a.parent().unwrap().to_path_buf();
            assert_eq!(dir_bytes(&kept), 15);
        }
        assert!(!kept.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn host_probes_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(spin_ms() > 0.0);
    }
}
