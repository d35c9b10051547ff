//! The isolated UDF executor process (paper §4.1).
//!
//! The server spawns one of these per UDF per query (Design 2/4), or keeps
//! a few warm in its worker pool, loads a UDF into it over stdin/stdout
//! (both one half of a socket pair), and invokes it per tuple. The native UDF registry baked in here mirrors the
//! C++ UDFs compiled into PREDATOR's remote executor.
//!
//! A UDF stuck inside this process is the server's to kill: the server
//! times out its read of the reply and kills the worker when a round trip
//! outlives its statement budget or the pool's invoke timeout. Should the
//! server itself die, a UDF that never returns to read the (now closed)
//! socket would outlive it; a watcher thread exits the worker once its parent changes.

fn main() {
    #[cfg(unix)]
    {
        let parent = std::os::unix::process::parent_id();
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
            if std::os::unix::process::parent_id() != parent {
                std::process::exit(1);
            }
        });
    }
    let registry = jaguar_udf::worker_registry();
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    if let Err(e) = jaguar_ipc::worker::serve(stdin, stdout, &registry) {
        eprintln!("jaguar-worker: {e}");
        std::process::exit(1);
    }
}
