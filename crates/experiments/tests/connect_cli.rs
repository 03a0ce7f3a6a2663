//! `repro --connect` against an address nothing listens on fails fast:
//! exit code 2 and a `server unreachable at` diagnostic after its one
//! retry, instead of hanging.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::thread;
use std::time::Duration;

#[test]
fn an_unreachable_server_fails_fast_with_exit_2() {
    // A port this host just handed out and nothing holds any longer.
    let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let out = std::env::temp_dir().join(format!("nvp_connect_cli_{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(&out)
        .args(["--quick", "--only", "t1", "--connect", &addr.to_string()])
        .args(["--timeout", "1", "--retries", "1"])
        .env_remove("NVP_CACHE_DIR")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // One attempt and one retry, each bounded by the 1 s timeout, must
    // end well inside 30 s of polling.
    let mut status = None;
    for _ in 0..300 {
        status = child.try_wait().unwrap();
        if status.is_some() {
            break;
        }
        thread::sleep(Duration::from_millis(100));
    }
    let Some(status) = status else {
        child.kill().unwrap();
        child.wait().unwrap();
        panic!("repro --connect still running after 30 s");
    };
    let mut stderr = String::new();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains(&format!("server unreachable at {addr}")), "stderr:\n{stderr}");
    assert!(!out.exists(), "a failed submission wrote {}", out.display());
}
