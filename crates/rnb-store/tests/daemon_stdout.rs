//! `rnb-stored --control` outlives a harness that stops reading its
//! stdout. The daemon prints `READY`, then more lines (a banner, and
//! `BYE` after a drained shutdown); a harness may close the pipe as soon
//! as it has the address. The standard library ignores SIGPIPE, so a
//! write to the closed pipe fails with EPIPE — which must not panic the
//! daemon while it serves, or turn its clean shutdown into exit 101.

use rnb_store::StoreClient;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn daemon_serves_and_exits_cleanly_after_its_stdout_closes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rnb-stored"))
        .args(["--port", "0", "--mem", "8", "--workers", "1", "--control"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ready = String::new();
    stdout.read_line(&mut ready).unwrap();
    let addr = ready
        .trim()
        .strip_prefix("READY ")
        .unwrap_or_else(|| panic!("not a READY line: {ready:?}"))
        .parse()
        .unwrap();
    // The harness is done with stdout: every later line meets a closed
    // pipe.
    drop(stdout);

    let mut client = StoreClient::connect(addr).unwrap();
    client.set(b"k", b"v", 7).unwrap();
    assert_eq!(
        client.get_multi(&[b"k"]).unwrap(),
        vec![Some((b"v".to_vec(), 7))]
    );
    drop(client);

    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"shutdown\n").unwrap();
    drop(stdin);
    let status = child.wait().unwrap();
    assert!(status.success(), "the daemon exited with {status}");
}
