//! A fleet of real `rnb-stored` processes under pipe control.
//!
//! Each node runs `rnb-stored --control --port 0`: it announces
//! `READY <addr>` on stdout once bound, and drains and answers `BYE` when
//! `shutdown` arrives on stdin (see `crates/rnb-store/src/bin/rnb-stored.rs`).
//! Every wait here is a blocking pipe read or `wait(2)`; nothing sleeps.

use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Path of the `rnb-stored` binary to measure: `RNB_STORED_BIN` if set,
/// otherwise a release build of the repo's sources. Cargo is always asked
/// (a no-op when fresh), because a stale server binary would silently
/// measure old code.
pub fn stored_binary() -> io::Result<PathBuf> {
    if let Some(path) = std::env::var_os("RNB_STORED_BIN") {
        return Ok(PathBuf::from(path));
    }
    // The workspace root, two levels above `rnb-bench`'s manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "rnb-store", "--bin", "rnb-stored", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other("cargo build of rnb-stored failed"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let bin = target
        .join("release")
        .join(format!("rnb-stored{}", std::env::consts::EXE_SUFFIX));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::other(format!(
            "no rnb-stored at {}",
            bin.display()
        )))
    }
}

struct Node {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Node {
    /// Spawn one daemon and block until its `READY <addr>` line; a daemon
    /// that dies before announcing is reaped here.
    fn spawn(bin: &Path, mem_mb: Option<usize>) -> io::Result<Node> {
        let mut cmd = Command::new(bin);
        cmd.args(["--control", "--port", "0"]);
        if let Some(mb) = mem_mb {
            cmd.args(["--mem", &mb.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let handshake = (|| {
            let missing = || io::Error::other("rnb-stored pipes were not captured");
            let stdin = child.stdin.take().ok_or_else(missing)?;
            let mut stdout = BufReader::new(child.stdout.take().ok_or_else(missing)?);
            let addr = await_line(&mut stdout, "READY ")?
                .parse()
                .map_err(|e| io::Error::other(format!("bad READY address: {e}")))?;
            Ok((stdin, stdout, addr))
        })();
        match handshake {
            Ok((stdin, stdout, addr)) => Ok(Node {
                child,
                stdin,
                stdout,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }
}

/// Running nodes, index-stable: node `i` is placement server `i`.
pub struct Fleet {
    nodes: Vec<Node>,
}

impl Fleet {
    /// Start `count` nodes on OS-chosen ports and wait for every `READY`.
    /// `mem_mb` is each node's `--mem` budget (`None` = the daemon default).
    pub fn launch(bin: &Path, count: usize, mem_mb: Option<usize>) -> io::Result<Fleet> {
        // Nodes are pushed as they come up, so an error part-way drops
        // (and therefore reaps) the ones already running.
        let mut fleet = Fleet {
            nodes: Vec::with_capacity(count),
        };
        for _ in 0..count {
            fleet.nodes.push(Node::spawn(bin, mem_mb)?);
        }
        Ok(fleet)
    }

    /// Node addresses in placement order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    /// Node process ids in placement order.
    pub fn pids(&self) -> Vec<u32> {
        self.nodes.iter().map(|n| n.child.id()).collect()
    }

    /// Drain and reap every node. Drop client connections first: a drain
    /// waits (bounded by the daemon) for open connections to hang up.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    /// `shutdown` to every node first, so the drains overlap, then reap.
    fn stop(&mut self) -> io::Result<()> {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in &mut nodes {
            // A dead node's pipe is closed; `wait` below still reaps it.
            let _ = node
                .stdin
                .write_all(b"shutdown\n")
                .and_then(|()| node.stdin.flush());
        }
        let mut first_err = None;
        for node in &mut nodes {
            let bye = await_line(&mut node.stdout, "BYE");
            let exit = node.child.wait();
            match (bye, exit) {
                (Ok(_), Ok(status)) if status.success() => {}
                (Err(e), _) | (_, Err(e)) => _ = first_err.get_or_insert(e),
                (_, Ok(status)) => {
                    first_err.get_or_insert(io::Error::other(format!("rnb-stored: {status}")));
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for Fleet {
    /// Panic or early return: still no orphan and no zombie.
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Read lines until one starts with `prefix`; return the rest of it.
fn await_line(stdout: &mut BufReader<ChildStdout>, prefix: &str) -> io::Result<String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other(format!(
                "rnb-stored exited before {prefix:?}"
            )));
        }
        if let Some(rest) = line.trim().strip_prefix(prefix) {
            return Ok(rest.to_owned());
        }
    }
}
