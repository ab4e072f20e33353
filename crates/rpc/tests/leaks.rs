//! Servers and transports give back every thread and file descriptor
//! they take: after a drop returns, the threads it owned are gone from
//! `/proc/self/task`, and once a server has noticed its peers' hangups
//! (or its `shutdown` has returned) the process's `/proc/self/{task,fd}`
//! counts are back at their baseline. A detached
//! thread that outlives its owner can still run (and allocate) inside
//! whatever the caller measures next, and a socket kept per finished
//! connection runs a long-lived server out of descriptors.
//!
//! The counts are process-wide, so the file runs without libtest
//! (`harness = false`): [`main`] runs the checks one after another on
//! the main thread, and no runner thread spawns or retires while a count
//! is read. Each check joins every thread it starts before it returns.

use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxTransport, ObjRef, Orb, Transport};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Doubler;
impl DynObject for Doubler {
    fn sidl_type(&self) -> &str {
        "test.Doubler"
    }
    fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
        match method {
            "double" => Ok(DynValue::Long(2 * args[0].as_long()?)),
            other => Err(SidlError::invoke(format!("no method '{other}'"))),
        }
    }
}

fn doubler_orb() -> Arc<dyn Dispatcher> {
    let orb = Orb::new();
    orb.register("doubler", Arc::new(Doubler));
    orb
}

fn call_double(objref: &ObjRef, k: i64) {
    let r = objref.invoke("double", vec![DynValue::Long(k)]).unwrap();
    assert!(matches!(r, DynValue::Long(v) if v == 2 * k));
}

/// Live threads and open file descriptors of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Census {
    threads: usize,
    fds: usize,
}

fn census() -> Census {
    let count = |dir| std::fs::read_dir(dir).expect("procfs mounted").count();
    Census {
        threads: count("/proc/self/task"),
        fds: count("/proc/self/fd"),
    }
}

/// Waits for the census to return to `baseline`: a server notices a
/// closed peer on its own threads, a moment after the client's drop.
fn settles_to(baseline: Census) -> Census {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = census();
        if now == baseline || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Client-side mux threads that have not begun to exit. The transport
/// names its threads `cca-mux-read-…`/`cca-mux-write-…` (the server's are
/// `cca-mux-serve-…`/`cca-mux-reply-…`). A joined thread can still be
/// listed in `/proc/self/task` for a moment after `join` returns, but it
/// is flagged as exiting (`PF_EXITING` in the stat flags word) before its
/// joiner wakes; a thread nobody joined is still blocked or running.
fn live_mux_client_threads() -> usize {
    const PF_EXITING: u64 = 0x4;
    std::fs::read_dir("/proc/self/task")
        .expect("procfs mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("stat")).ok())
        .filter(|stat| {
            // `tid (comm) state ppid pgrp session tty tpgid flags …`
            let Some((head, tail)) = stat.rsplit_once(')') else {
                return false;
            };
            let name = head.split_once('(').map_or("", |(_, name)| name);
            let flags: u64 = tail
                .split_whitespace()
                .nth(6)
                .and_then(|flags| flags.parse().ok())
                .unwrap_or(0);
            (name.starts_with("cca-mux-read-") || name.starts_with("cca-mux-write-"))
                && flags & PF_EXITING == 0
        })
        .count()
}

fn dropping_a_used_transport_joins_its_threads() {
    let server = MuxServer::bind("127.0.0.1:0", doubler_orb()).unwrap();
    let baseline = census();

    for round in 0..20 {
        let transport =
            Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(2));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        for k in 0..4 {
            call_double(&objref, k);
        }
        assert_eq!(
            census().threads,
            baseline.threads + 8,
            "round {round}: two connections, a reader and a writer each, on both sides"
        );
        drop(objref);
        drop(transport);
        // Checked at once, not polled: a thread the drop did not join
        // is still noticing its closed socket.
        assert_eq!(
            live_mux_client_threads(),
            0,
            "round {round}: drop must join every reader and writer thread"
        );
        // The server notices the hangups on its own threads.
        assert_eq!(settles_to(baseline), baseline, "round {round}");
    }
    server.shutdown();
}

/// `shutdown` closes connections whose clients are still holding them
/// and joins every thread: accept, dispatch workers, and a reader and a
/// writer per connection.
fn mux_server_shutdown_with_live_connections_returns_to_baseline() {
    let baseline = census();
    let server = MuxServer::bind("127.0.0.1:0", doubler_orb()).unwrap();
    let addr = server.local_addr().to_string();
    let pooled = ObjRef::tcp("doubler", addr.clone());
    let mux = ObjRef::new(
        "doubler",
        Arc::new(MuxTransport::new(addr).with_connections(2)) as Arc<dyn Transport>,
    );
    for k in 0..8 {
        call_double(&pooled, k);
        call_double(&mux, k);
    }
    assert_eq!(server.connections_accepted(), 3);
    assert_eq!(server.shutdown(), 1 + 4 + 2 * 3, "MuxServer::shutdown");
    drop(pooled);
    drop(mux);
    assert_eq!(settles_to(baseline), baseline, "MuxServer::shutdown");
}

/// Sequential connections that come and go, pooled and multiplexed, must
/// each give back their sockets and connection threads as they close,
/// not when the server shuts down.
fn mux_server_churn_releases_each_connection() {
    let server = MuxServer::bind("127.0.0.1:0", doubler_orb()).unwrap();
    let addr = server.local_addr().to_string();
    let baseline = census();
    for k in 0..50 {
        call_double(&ObjRef::tcp("doubler", addr.clone()), k);
        assert_eq!(settles_to(baseline), baseline, "pooled connection {k}");
    }
    for k in 0..50 {
        let transport = MuxTransport::new(addr.clone()).with_connections(1);
        call_double(&ObjRef::new("doubler", Arc::new(transport)), k);
        assert_eq!(settles_to(baseline), baseline, "mux connection {k}");
    }
    assert_eq!(server.connections_accepted(), 100);
    let joined = server.shutdown();
    assert!(
        joined <= 1 + 4 + 2,
        "finished readers are joined as connections arrive, so shutdown \
         finds at most the last connection's two threads beside accept and \
         4 workers; it joined {joined}"
    );
}

fn main() {
    if !cfg!(target_os = "linux") {
        println!("leaks: skipped (needs /proc)");
        return;
    }
    macro_rules! checks {
        ($($check:ident),* $(,)?) => {
            [$((stringify!($check), $check as fn())),*]
        };
    }
    let checks = checks![
        dropping_a_used_transport_joins_its_threads,
        mux_server_shutdown_with_live_connections_returns_to_baseline,
        mux_server_churn_releases_each_connection,
    ];
    let mut failed = 0;
    for (name, check) in checks {
        let ok = std::panic::catch_unwind(check).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        failed += usize::from(!ok);
    }
    println!("leaks: {} passed; {failed} failed", checks.len() - failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
