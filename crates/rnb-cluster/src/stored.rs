//! One `rnb-stored` process under harness control.
//!
//! The daemon side of the contract lives in
//! `crates/rnb-store/src/bin/rnb-stored.rs` (`--control` mode): the
//! process prints `READY <addr>` on stdout once its listener is bound,
//! then blocks on stdin until a `shutdown` line (or EOF) triggers a
//! graceful drain and a final `BYE`. Every synchronization point is a
//! blocking pipe read or a `wait(2)` — the harness never sleeps and
//! never polls, which keeps scenario timings deterministic and the
//! xtask R5 (no `thread::sleep`) rule clean.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::OnceLock;

/// Per-node launch configuration, mapped 1:1 onto `rnb-stored` flags.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// TCP port to bind; 0 (the default) asks the OS for a free port,
    /// which the harness learns from the `READY` line.
    pub port: u16,
    /// Store memory budget in MB.
    pub mem_mb: usize,
    /// Worker-thread override (`None` = the server's default).
    pub workers: Option<usize>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            port: 0,
            mem_mb: 64,
            workers: None,
        }
    }
}

/// Locate (building if necessary) the `rnb-stored` binary.
///
/// Resolution order: the `RNB_STORED_BIN` environment variable; a
/// `rnb-stored` binary next to the current executable (test binaries
/// live in `target/<profile>/deps/`, so the parent directory is
/// checked too); finally a `cargo build -p rnb-store --bin rnb-stored`
/// fallback so `cargo test -p rnb-cluster` works from a cold target
/// directory (cargo's own file locking makes the nested invocation
/// safe). The result is cached for the process lifetime.
pub fn stored_binary() -> io::Result<PathBuf> {
    static BIN: OnceLock<Option<PathBuf>> = OnceLock::new();
    let cached = BIN.get_or_init(|| locate_or_build().ok());
    match cached {
        Some(p) => Ok(p.clone()),
        None => Err(io::Error::other(
            "cannot locate or build the rnb-stored binary \
             (set RNB_STORED_BIN to override)",
        )),
    }
}

fn locate_or_build() -> io::Result<PathBuf> {
    if let Some(p) = std::env::var_os("RNB_STORED_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(io::Error::other(format!(
            "RNB_STORED_BIN points at a non-file: {}",
            p.display()
        )));
    }
    let exe = std::env::current_exe()?;
    let mut dir = exe
        .parent()
        .ok_or_else(|| io::Error::other("current_exe has no parent directory"))?
        .to_path_buf();
    // Test binaries run from target/<profile>/deps; the bin target of a
    // sibling crate lands one level up.
    if dir.file_name().and_then(|n| n.to_str()) == Some("deps") {
        dir.pop();
    }
    let candidate = dir.join(format!("rnb-stored{}", std::env::consts::EXE_SUFFIX));
    if candidate.is_file() {
        return Ok(candidate);
    }
    let release = dir.file_name().and_then(|n| n.to_str()) == Some("release");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Command::new(cargo);
    build.args(["build", "-p", "rnb-store", "--bin", "rnb-stored"]);
    if release {
        build.arg("--release");
    }
    let status = build.stdout(Stdio::null()).stderr(Stdio::null()).status()?;
    if status.success() && candidate.is_file() {
        Ok(candidate)
    } else {
        Err(io::Error::other(format!(
            "cargo build for rnb-stored failed (expected {})",
            candidate.display()
        )))
    }
}

/// A live `rnb-stored` child process in `--control` mode.
///
/// Dropping a node kills the process outright (the crash path used by
/// kill/restart scenarios); [`StoredNode::shutdown_graceful`] is the
/// orderly exit. Either way the child is reaped — the harness never
/// leaks zombies.
pub struct StoredNode {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    reaped: bool,
}

impl StoredNode {
    /// Launch a daemon and block until its `READY <addr>` line arrives.
    pub fn spawn(config: &NodeConfig) -> io::Result<StoredNode> {
        let bin = stored_binary()?;
        let mut cmd = Command::new(bin);
        cmd.arg("--control")
            .args(["--port", &config.port.to_string()])
            .args(["--mem", &config.mem_mb.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(w) = config.workers {
            cmd.args(["--workers", &w.to_string()]);
        }
        let mut child = cmd.spawn()?;
        let stdin = child
            .stdin
            .take()
            .ok_or_else(|| io::Error::other("child stdin not piped"))?;
        let mut stdout = BufReader::new(
            child
                .stdout
                .take()
                .ok_or_else(|| io::Error::other("child stdout not piped"))?,
        );
        match read_ready(&mut stdout) {
            Ok(addr) => Ok(StoredNode {
                child,
                stdin,
                stdout,
                addr,
                reaped: false,
            }),
            Err(e) => {
                // The daemon exited (port collision, bad flag) before
                // announcing readiness: reap it and surface the error.
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The address the daemon is serving on (OS-chosen under `--port 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kill the process abruptly (models a node crash) and reap it.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        self.reaped = true;
        Ok(())
    }

    /// Ask the daemon to drain and exit, then wait for its `BYE` and
    /// process exit. Errors if the daemon died before acknowledging.
    pub fn shutdown_graceful(mut self) -> io::Result<()> {
        self.stdin.write_all(b"shutdown\n")?;
        self.stdin.flush()?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                self.child.wait()?;
                self.reaped = true;
                return Err(io::Error::other("daemon exited without BYE"));
            }
            if line.trim() == "BYE" {
                break;
            }
        }
        let status = self.child.wait()?;
        self.reaped = true;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "daemon exited with status {status}"
            )))
        }
    }
}

impl Drop for StoredNode {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Parse the `READY <addr>` handshake line from a daemon's stdout.
fn read_ready(stdout: &mut BufReader<ChildStdout>) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("daemon exited before READY"));
        }
        if let Some(rest) = line.trim().strip_prefix("READY ") {
            return rest
                .parse()
                .map_err(|e| io::Error::other(format!("bad READY address {rest:?}: {e}")));
        }
    }
}
