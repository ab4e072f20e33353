//! Servers and transports give back every thread and file descriptor
//! they take: after a drop or a `shutdown` returns, the process's
//! `/proc/self/{task,fd}` counts are back at their baseline. A detached
//! thread that outlives its owner can still run (and allocate) inside
//! whatever the caller measures next, and a socket kept per finished
//! connection runs a long-lived server out of descriptors.
//!
//! The counts are process-wide, so the file runs without libtest
//! (`harness = false`): [`main`] runs the checks one after another on
//! the main thread, and no runner thread spawns or retires while a count
//! is read. Each check joins every thread it starts before it returns.

use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxTransport, ObjRef, Orb, TcpServer, Transport};
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

fn dropping_a_used_transport_joins_its_threads() {
    let server = MuxServer::bind("127.0.0.1:0", doubler_orb()).unwrap();
    // The server's thread budget is fixed at bind time; only the client
    // transport adds threads from here on.
    let baseline = census().threads;

    for round in 0..20 {
        let transport =
            Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(2));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        for k in 0..4 {
            call_double(&objref, k);
        }
        assert_eq!(
            census().threads,
            baseline + 4,
            "round {round}: two connections, a reader and a writer each"
        );
        drop(objref);
        drop(transport);
        assert_eq!(
            census().threads,
            baseline,
            "round {round}: drop must join every reader and writer thread"
        );
    }
    server.shutdown();
}

fn mux_server_shutdown_returns_to_baseline() {
    let baseline = census();
    let server = MuxServer::bind("127.0.0.1:0", doubler_orb()).unwrap();
    let objref = ObjRef::new(
        "doubler",
        Arc::new(MuxTransport::new(server.local_addr().to_string())) as Arc<dyn Transport>,
    );
    for k in 0..8 {
        call_double(&objref, k);
    }
    drop(objref);
    assert!(server.shutdown() > 0);
    assert_eq!(settles_to(baseline), baseline, "MuxServer::shutdown");
}

fn tcp_server_shutdown_returns_to_baseline() {
    let baseline = census();
    let server = TcpServer::bind("127.0.0.1:0", doubler_orb()).unwrap();
    let objref = ObjRef::tcp("doubler", server.local_addr().to_string());
    for k in 0..8 {
        call_double(&objref, k);
    }
    drop(objref);
    server.shutdown();
    assert_eq!(settles_to(baseline), baseline, "TcpServer::shutdown");
}

/// Sequential connections that come and go must not pile up server-side
/// sockets or handler threads until the server shuts down.
fn tcp_server_churn_releases_each_connection() {
    let server = TcpServer::bind("127.0.0.1:0", doubler_orb()).unwrap();
    let baseline = census();
    for k in 0..50 {
        let objref = ObjRef::tcp("doubler", server.local_addr().to_string());
        call_double(&objref, k);
    }
    assert_eq!(server.connections_accepted(), 50);
    assert_eq!(
        settles_to(baseline),
        baseline,
        "50 closed connections must leave no fd or thread behind"
    );
    let joined = server.shutdown();
    assert!(
        joined <= 1,
        "finished handlers are reaped as connections arrive; shutdown joined {joined}"
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
        mux_server_shutdown_returns_to_baseline,
        tcp_server_shutdown_returns_to_baseline,
        tcp_server_churn_releases_each_connection,
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
