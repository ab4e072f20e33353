//! Dropping a `MuxTransport` joins its connections' reader and writer
//! threads, so the process's thread count is back at its baseline the
//! moment the drop returns. A detached thread that outlives its
//! transport can still run (and allocate) inside whatever the caller
//! measures next.
//!
//! This file holds a single test so that no sibling test spawns or
//! retires threads while the count is read.

#![cfg(target_os = "linux")]

use cca_rpc::transport::Dispatcher;
use cca_rpc::{MuxServer, MuxTransport, ObjRef, Orb, Transport};
use cca_sidl::{DynObject, DynValue, SidlError};
use std::sync::Arc;

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

fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs mounted")
        .count()
}

#[test]
fn dropping_a_used_transport_joins_its_threads() {
    let orb = Orb::new();
    orb.register("doubler", Arc::new(Doubler));
    let server = MuxServer::bind("127.0.0.1:0", orb as Arc<dyn Dispatcher>).unwrap();
    // The server's thread budget is fixed at bind time; only the client
    // transport adds threads from here on.
    let baseline = task_count();

    for round in 0..20 {
        let transport =
            Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(2));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        for k in 0..4 {
            let r = objref.invoke("double", vec![DynValue::Long(k)]).unwrap();
            assert!(matches!(r, DynValue::Long(v) if v == 2 * k));
        }
        assert_eq!(
            task_count(),
            baseline + 4,
            "round {round}: two connections, a reader and a writer each"
        );
        drop(objref);
        drop(transport);
        assert_eq!(
            task_count(),
            baseline,
            "round {round}: drop must join every reader and writer thread"
        );
    }
    server.shutdown();
}
