//! The environment a result was measured in, the process-level
//! counters the kernel keeps for us, and the run's temp directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// First line of a command's stdout, or `unknown` if it cannot run
/// (the driver's checkout is not a git repository, for one).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|line| line.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The value of `key` in a `key : value` / `key:\tvalue` proc file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
                    path.starts_with(mount)
                        .then(|| (mount.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What every result records about where it was measured.
pub fn describe(seed: u64, tmp_root: &Path) -> Json {
    Json::obj([
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "cpu_model",
            Json::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "field_backend",
            Json::Str(xrd_crypto::field::FIELD_BACKEND.to_string()),
        ),
        ("tmp_fs", Json::Str(fs_type(tmp_root))),
        ("seed", Json::Num(seed as f64)),
        // Every socket in every workload is 127.0.0.1: no link rate or
        // wire latency is measured here.
        ("network", Json::Str("loopback".into())),
    ])
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name (which may itself contain spaces), in USER_HZ = 100 ticks/s.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = stat.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// A private directory for one run's on-disk state, under the build's
/// target directory (next to the running executable), so a benchmark
/// run never writes outside its checkout.  Removed on drop; a run that
/// fails leaves it behind on purpose by calling [`TempDir::keep`].
pub struct TempDir {
    path: PathBuf,
    keep: bool,
}

impl TempDir {
    /// Create `<dir of this executable>/xrd-perf-tmp/<label>-<pid>`,
    /// mode 0700.
    pub fn create(label: &str) -> std::io::Result<TempDir> {
        use std::os::unix::fs::DirBuilderExt;
        let exe = std::env::current_exe()?;
        let root = exe
            .parent()
            .ok_or_else(|| std::io::Error::other("executable has no directory"))?
            .join("xrd-perf-tmp");
        std::fs::create_dir_all(&root)?;
        let path = root.join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::DirBuilder::new().mode(0o700).create(&path)?;
        Ok(TempDir { path, keep: false })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Leave the directory in place when dropped (a failed run's logs
    /// are evidence).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn temp_dir_is_private_and_removed() {
        use std::os::unix::fs::PermissionsExt;
        let path = {
            let dir = TempDir::create("unit").unwrap();
            let mode = std::fs::metadata(dir.path()).unwrap().permissions().mode();
            assert_eq!(mode & 0o777, 0o700);
            assert_ne!(fs_type(dir.path()), "");
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
