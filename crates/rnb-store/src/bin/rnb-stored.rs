//! Standalone store daemon: a memcached-analog server speaking the text
//! protocol subset (`get`/`gets`/`set`/`add`/`replace`/`cas`/`incr`/
//! `decr`/`delete`/`stats`/`version`/`quit`).
//!
//! ```text
//! cargo run --release -p rnb-store --bin rnb-stored -- [--port P] [--mem MB]
//! # then: printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 P
//! ```
//!
//! Harness mode (`--control`, used by `rnb-cluster`): the daemon prints
//! one machine-readable `READY <addr>` line on stdout once the listener
//! is bound (`--port 0` asks the OS for a port, so the line is the only
//! way to learn it), then reads stdin for a `shutdown` command. On
//! `shutdown` — or stdin EOF, so an orphaned daemon never outlives its
//! harness — it drains in-flight connections via
//! [`StoreServer::shutdown_drain`], prints `BYE`, and exits 0. No
//! signals are involved, so harnesses synchronize on pipes alone,
//! without sleeps or SIGTERM races.

use rnb_store::{ServerConfig, Store, StoreServer};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

/// How long a `--control` shutdown waits for live connections to drain
/// before closing them abruptly (nominal wait, see `shutdown_drain`).
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

fn main() {
    let mut port: u16 = 11311;
    let mut mem_mb: usize = 64;
    let mut workers: Option<usize> = None;
    let mut control = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => {
                port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--port needs a number (0 = OS-chosen)"));
            }
            "--mem" => {
                mem_mb = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--mem needs a number (MB)"));
            }
            "--workers" => {
                workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&w| w > 0)
                        .unwrap_or_else(|| die("--workers needs a positive number")),
                );
            }
            "--control" => control = true,
            "--help" | "-h" => {
                println!("usage: rnb-stored [--port P] [--mem MB] [--workers N] [--control]");
                println!("  --port 0     bind an OS-chosen port (printed on stdout)");
                println!(
                    "  --workers N  serving threads, each with its own epoll set and \
                     connections (default: one per available core)"
                );
                println!("  --control    READY/shutdown/BYE handshake on stdout/stdin");
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let mem = mem_mb
        .checked_mul(1 << 20)
        .unwrap_or_else(|| die("--mem is too large to count in bytes"));
    let store = Arc::new(Store::new(mem));
    let mut config = ServerConfig::default();
    if let Some(w) = workers {
        config.workers = w;
    }
    let mut server = match StoreServer::start_with(Arc::clone(&store), port, config) {
        Ok(s) => s,
        Err(e) => die(&format!("cannot listen on port {port}: {e}")),
    };
    // The READY line is the machine-readable half of the handshake: the
    // harness blocks on it instead of sleeping-and-retrying, and it is
    // the only way to learn an OS-chosen (`--port 0`) address. A harness
    // may close the pipe once it has read it, so every later line
    // ignores a failed write (`println!` would panic on EPIPE and kill
    // the node).
    let mut out = std::io::stdout();
    if let Err(e) = writeln!(out, "READY {}", server.addr()).and_then(|()| out.flush()) {
        die(&format!("cannot write the READY line: {e}"));
    }
    let _ = writeln!(
        out,
        "rnb-stored listening on {} ({} MB budget, {} workers, each with its own epoll set)",
        server.addr(),
        mem_mb,
        server.thread_count()
    )
    .and_then(|()| out.flush());

    if control {
        // Block on stdin: `shutdown` (or EOF — the harness died or
        // closed the pipe) triggers a graceful drain.
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if line.trim() == "shutdown" {
                        break;
                    }
                }
            }
        }
        server.shutdown_drain(DRAIN_DEADLINE);
        let _ = writeln!(out, "BYE").and_then(|()| out.flush());
    } else {
        let _ = writeln!(out, "press Ctrl-C to stop").and_then(|()| out.flush());
        loop {
            // Nothing to do on the main thread until Ctrl-C kills the
            // process; park (looping over spurious unparks) instead of a
            // periodic sleep so the thread truly blocks.
            std::thread::park();
        }
    }
}

// CLI usage errors exit the process by design; the workspace-wide
// `clippy::exit` deny is meant for library code.
#[allow(clippy::exit)]
fn die(msg: &str) -> ! {
    eprintln!("rnb-stored: {msg}");
    std::process::exit(2)
}
