//! The run's surroundings: where it writes, what it runs on, what it cost.

use std::io;
use std::path::{Path, PathBuf};

/// Reports and traces go to `target/perf/` under the current directory.
pub fn out_dir() -> io::Result<PathBuf> {
    let dir = std::env::current_dir()?.join("target").join("perf");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The scratch root of this process, `target/perf/tmp/<pid>/`: on-disk
/// indexes and manager roots live here and go away with the guard — on
/// success, on failure, and when a panic unwinds through it.
pub struct TmpRoot(PathBuf);

impl TmpRoot {
    pub fn create() -> io::Result<Self> {
        let dir = out_dir()?.join("tmp").join(std::process::id().to_string());
        // A recycled pid may have left a directory behind after a kill.
        clear_dir(&dir)?;
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        // Nothing to report to: a leftover is swept by the next run that
        // draws the same pid, and `target/` is not tracked.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes `dir` if present, so a set-up can build into it afresh.
pub fn clear_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Version of the compiler that built this binary (from `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("RSSE_PERF_RUSTC_VERSION")
}

/// The commit checked out in the current directory, read from `.git`
/// without leaving the checkout; `unknown` where there is no repository
/// (the driver's checkouts are plain directories).
pub fn commit() -> String {
    let git = Path::new(".git");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let resolve = || -> Option<String> {
        let head = read(git.join("HEAD"))?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(hash) = read(git.join(reference)) {
            return Some(hash.trim().to_string());
        }
        let packed = read(git.join("packed-refs"))?;
        packed.lines().find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}
