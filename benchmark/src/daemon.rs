//! Daemon processes and scratch directories that never outlive the run.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::workloads::Env;

/// One `hubserve serve --workers 1` process on the daemon CPU, killed
/// and reaped on drop — on a failed run too.
pub struct Daemon {
    child: Child,
    /// Held open after the banner so the daemon's later prints have
    /// somewhere to go.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub entries: u64,
    pub arena_bytes: u64,
}

impl Daemon {
    /// Starts a daemon on `store` at an ephemeral loopback port and
    /// waits for its `listening on` line.
    pub fn spawn(env: &Env, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new("taskset")
            .args(["-c", env.daemon_cpu()])
            .arg(&env.hubserve)
            .arg("serve")
            .arg(store)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {} under taskset: {e}", env.hubserve.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // Owned from here on: every early return drops (kills) it.
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
            entries: 0,
            arena_bytes: 0,
        };
        let mut banner = None;
        let mut line = String::new();
        loop {
            line.clear();
            if !matches!(daemon.stdout.read_line(&mut line), Ok(n) if n > 0) {
                return Err(format!(
                    "daemon on {} exited before listening",
                    store.display()
                ));
            }
            if let Some(rest) = line.strip_prefix("serving ") {
                banner = parse_banner(rest);
            } else if let Some(addr) = line.strip_prefix("listening on ") {
                daemon.addr = addr.trim().to_string();
                break;
            }
        }
        (daemon.entries, daemon.arena_bytes) =
            banner.ok_or_else(|| "daemon printed no parsable 'serving' line".to_string())?;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// `(label entries, arena bytes)` out of `"<n> nodes, <e> label entries
/// (store v2, flat arena, <b> arena bytes, …"`.
fn parse_banner(rest: &str) -> Option<(u64, u64)> {
    let before = |marker: &str| -> Option<u64> {
        rest[..rest.find(marker)?]
            .rsplit([' ', ','])
            .next()?
            .parse()
            .ok()
    };
    Some((before(" label entries")?, before(" arena bytes")?))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A directory under the benchmark's `out/`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path, tag: &str) -> Result<ScratchDir, String> {
        let path = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_serving_banner() {
        let rest = "2048 nodes, 328772 label entries (store v2, flat arena, \
                    3961664 arena bytes, 1 workers, 64 max conns)\n";
        assert_eq!(parse_banner(rest), Some((328_772, 3_961_664)));
        assert_eq!(parse_banner("nothing useful"), None);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/unit-test");
        let kept = {
            let dir = ScratchDir::create(&base, "x").unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!kept.exists());
        let _ = std::fs::remove_dir_all(base);
    }
}
