//! A worker stuck in a UDF when its server dies exits by itself.
//!
//! The test re-executes this very test binary as the dying server: the
//! hidden `orphan_parent` test below spawns a `jaguar-worker`, starts the
//! registry's `hang` in it on a thread, prints the worker's pid and exits
//! without shutting the worker down. The test then waits for that pid to go.

use std::path::Path;
use std::time::{Duration, Instant};

use jaguar_common::DataType;
use jaguar_ipc::proto::NoCallbacks;
use jaguar_ipc::WorkerProcess;
use jaguar_udf::{Placement, UdfDef, UdfImpl, UdfSignature};

/// Marks the re-executed child.
const ORPHAN_ENV: &str = "JAGUAR_ORPHAN_PARENT";

/// The dying server, spawned by the test below. Hidden from normal runs.
#[test]
#[ignore = "helper: re-executed as the dying server by orphaned_worker_exits"]
fn orphan_parent() {
    if std::env::var_os(ORPHAN_ENV).is_none() {
        return;
    }
    let mut worker = WorkerProcess::spawn_at(Path::new(env!("CARGO_BIN_EXE_jaguar-worker")))
        .expect("spawning the worker");
    let sig = UdfSignature::new(vec![], DataType::Int);
    let hang = UdfDef::new("hang", sig, UdfImpl::registered("hang", Placement::Worker));
    worker
        .load(hang.load_body().unwrap())
        .expect("loading hang");
    let pid = worker.pid();
    std::thread::spawn(move || {
        let _ = worker.invoke(&[], &mut NoCallbacks);
    });
    // Let the invoke reach the worker, so that `hang` (not a read of the
    // pipe that closes with this process) is what it is doing at our exit.
    std::thread::sleep(Duration::from_millis(300));
    println!("worker pid {pid}");
    std::process::exit(0);
}

#[test]
#[cfg(target_os = "linux")]
fn orphaned_worker_exits() {
    // The child's stderr, which its worker inherits, must not be a pipe
    // that `output()` waits on: it returns when the child exits.
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["orphan_parent", "--exact", "--ignored", "--nocapture"])
        .env(ORPHAN_ENV, "1")
        .stderr(std::process::Stdio::null())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let pid: u32 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("worker pid "))
        .and_then(|p| p.trim().parse().ok())
        .unwrap_or_else(|| panic!("the child printed no worker pid: {stdout}"));

    // Running means listed in /proc and not a zombie: whoever adopted the
    // orphan need not reap it.
    let running = || {
        std::fs::read_to_string(format!("/proc/{pid}/stat")).is_ok_and(|stat| {
            stat.rsplit_once(')')
                .is_some_and(|(_, rest)| !rest.trim_start().starts_with(['Z', 'X']))
        })
    };
    let start = Instant::now();
    while running() {
        if start.elapsed() > Duration::from_secs(5) {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
            panic!("worker {pid} still running 5s after its parent exited");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
