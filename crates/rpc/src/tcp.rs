//! The pooled TCP client: one framed request/reply exchange per
//! checked-out connection.
//!
//! §4 of the paper spans "distributed computing" alongside same-process
//! direct connect. [`TcpTransport`] is the simplest client of the wire:
//! a bounded connection pool (callers beyond the cap wait, they do not
//! dial), per-call socket timeouts that surface as the existing
//! `cca.rpc.DeadlineExceeded` exception (so `CallPolicy` deadlines and
//! socket deadlines read the same), and connection failures surfaced as
//! typed [`CONNECTION_EXCEPTION_TYPE`] errors — which feed the circuit
//! breaker exactly like a wedged local provider, and dialing fresh on the
//! next call is the breaker's half-open probe.
//!
//! Its server is [`MuxServer`](crate::mux::MuxServer): the wire format is
//! the same for pooled and multiplexed callers, and a pooled connection
//! is simply one that never has more than one request in flight.

use crate::frame::{read_frame, write_frame_with, FrameKind, DEFAULT_MAX_PAYLOAD};
use crate::transport::Transport;
use bytes::Bytes;
use cca_core::resilience::DEADLINE_EXCEPTION_TYPE;
use cca_obs::TransportMetrics;
use cca_sidl::SidlError;
use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The SIDL exception type for transport-level connection failures: failed
/// dials, peers hanging up mid-call, and framing violations. Distinct from
/// dispatch errors (which arrive as marshaled replies) and from
/// [`DEADLINE_EXCEPTION_TYPE`] (socket timeouts), so a breaker observer or
/// a test can tell *how* the wire failed.
pub const CONNECTION_EXCEPTION_TYPE: &str = "cca.rpc.ConnectionFailure";

fn conn_err(message: impl Into<String>) -> SidlError {
    let message = message.into();
    // Failure path only: freeze the evidence while it is still fresh. A
    // disabled recorder (the default) returns without IO.
    if cca_obs::flight::enabled() {
        cca_obs::flight::record_incident("ConnectionFailure", &message);
    }
    SidlError::user(CONNECTION_EXCEPTION_TYPE, message)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Default connection-pool bound.
pub const DEFAULT_POOL_SIZE: usize = 4;

struct PoolState {
    idle: Vec<TcpStream>,
    live: usize,
}

/// The client half: a [`Transport`] over TCP with a bounded connection
/// pool. Each call checks a connection out (dialing lazily up to the pool
/// bound, waiting when every connection is in flight), performs exactly one
/// framed request/reply exchange, and returns the connection — or discards
/// it on any error, so the next call dials fresh (the half-open probe).
pub struct TcpTransport {
    addr: String,
    max_conns: usize,
    io_timeout: Option<Duration>,
    max_payload: u32,
    pool: Mutex<PoolState>,
    returned: Condvar,
    next_frame_id: AtomicU64,
    metrics: TransportMetrics,
}

impl TcpTransport {
    /// A transport dialing `addr` lazily, with the default pool bound and
    /// no socket timeout. Construction never touches the network.
    pub fn new(addr: impl Into<String>) -> Self {
        TcpTransport {
            addr: addr.into(),
            max_conns: DEFAULT_POOL_SIZE,
            io_timeout: None,
            max_payload: DEFAULT_MAX_PAYLOAD,
            pool: Mutex::new(PoolState {
                idle: Vec::new(),
                live: 0,
            }),
            returned: Condvar::new(),
            next_frame_id: AtomicU64::new(1),
            metrics: TransportMetrics::default(),
        }
    }

    /// Caps the pool at `max_conns` live connections (minimum 1).
    pub fn with_pool_size(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Bounds every socket read and write. A timed-out call surfaces as a
    /// [`DEADLINE_EXCEPTION_TYPE`] user exception — the same error a
    /// [`DeadlineTransport`](crate::resilient::DeadlineTransport) raises,
    /// so `CcaError::DeadlineExceeded` and breaker accounting apply
    /// unchanged.
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Overrides the frame payload cap (both directions).
    pub fn with_max_payload(mut self, max_payload: u32) -> Self {
        self.max_payload = max_payload;
        self
    }

    /// The server address this transport dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The pool bound.
    pub fn pool_size(&self) -> usize {
        self.max_conns
    }

    /// Client-side transport metrics: socket dials, connections discarded
    /// after errors, and (counters enabled) bytes/round trips/latency.
    pub fn metrics(&self) -> &TransportMetrics {
        &self.metrics
    }

    /// Connections currently live (idle + checked out).
    pub fn live_connections(&self) -> usize {
        self.pool.lock().unwrap().live
    }

    fn checkout(&self) -> Result<TcpStream, SidlError> {
        // A saturated pool must not become an unbounded hang: the wait for
        // a returned connection is charged against the same deadline as
        // the socket I/O it precedes. With no io-timeout configured the
        // historical wait-forever behavior stands (callers opted out of
        // deadlines entirely).
        let deadline = self.io_timeout.map(|t| Instant::now() + t);
        let mut pool = self.pool.lock().unwrap();
        loop {
            if let Some(stream) = pool.idle.pop() {
                return Ok(stream);
            }
            if pool.live < self.max_conns {
                pool.live += 1;
                drop(pool);
                return match self.dial() {
                    Ok(stream) => Ok(stream),
                    Err(e) => {
                        self.discard();
                        Err(e)
                    }
                };
            }
            match deadline {
                None => pool = self.returned.wait(pool).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(SidlError::user(
                            DEADLINE_EXCEPTION_TYPE,
                            format!(
                                "pool of {} connections to tcp://{} exhausted for \
                                 {:?}: no connection returned within the call budget",
                                self.max_conns, self.addr, self.io_timeout
                            ),
                        ));
                    }
                    pool = self.returned.wait_timeout(pool, d - now).unwrap().0;
                }
            }
        }
    }

    fn dial(&self) -> Result<TcpStream, SidlError> {
        self.metrics.record_dial();
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| conn_err(format!("dial tcp://{}: {e}", self.addr)))?;
        // Nagle would batch our small frames behind the previous ACK —
        // fatal to the E12 round-trip budget.
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    fn checkin(&self, stream: TcpStream) {
        self.pool.lock().unwrap().idle.push(stream);
        self.returned.notify_one();
    }

    /// Forgets a connection that errored (its stream is dropped by the
    /// caller): frees its pool slot so a future call may dial fresh.
    fn discard(&self) {
        self.metrics.record_connection_drop();
        self.pool.lock().unwrap().live -= 1;
        self.returned.notify_one();
    }

    fn io_to_sidl(&self, verb: &str, e: std::io::Error) -> SidlError {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            let message = format!(
                "socket {verb} to tcp://{} timed out (budget {:?})",
                self.addr, self.io_timeout
            );
            if cca_obs::flight::enabled() {
                cca_obs::flight::record_incident("DeadlineExceeded", &message);
            }
            SidlError::user(DEADLINE_EXCEPTION_TYPE, message)
        } else {
            conn_err(format!("socket {verb} to tcp://{}: {e}", self.addr))
        }
    }

    fn exchange(
        &self,
        stream: &mut TcpStream,
        request_id: u64,
        request: &[u8],
    ) -> Result<Bytes, SidlError> {
        let _ = stream.set_read_timeout(self.io_timeout);
        let _ = stream.set_write_timeout(self.io_timeout);
        // Tracing off ⇒ `current_context()` is `None` after one relaxed
        // load and the frame spends zero extension bytes.
        write_frame_with(
            stream,
            FrameKind::Request,
            request_id,
            request,
            self.max_payload,
            cca_obs::trace::current_context(),
        )
        .map_err(|e| self.io_to_sidl("write", e))?;
        let frame = read_frame(stream, self.max_payload)
            .map_err(|e| self.io_to_sidl("read", e))?
            .ok_or_else(|| {
                conn_err(format!(
                    "tcp://{} closed the connection mid-call",
                    self.addr
                ))
            })?;
        if frame.kind != FrameKind::Reply {
            return Err(conn_err(format!(
                "tcp://{} sent a request frame where a reply was due",
                self.addr
            )));
        }
        if frame.request_id != request_id {
            // One exchange at a time per checked-out connection, so ids
            // must match; a mismatch means the stream state is corrupt.
            return Err(conn_err(format!(
                "frame correlation mismatch from tcp://{}: sent {request_id}, got {}",
                self.addr, frame.request_id
            )));
        }
        Ok(frame.payload)
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let _span = cca_obs::span("rpc.tcp.call");
        let counters = cca_obs::counters_enabled();
        let started = if counters { Some(Instant::now()) } else { None };
        let mut stream = self.checkout()?;
        let request_id = self.next_frame_id.fetch_add(1, Ordering::Relaxed);
        match self.exchange(&mut stream, request_id, request.as_slice()) {
            Ok(reply) => {
                self.checkin(stream);
                if let Some(started) = started {
                    self.metrics.record_round_trip(
                        "tcp",
                        request.len() as u64,
                        reply.len() as u64,
                        started.elapsed().as_nanos() as u64,
                    );
                }
                Ok(reply)
            }
            Err(e) => {
                // The stream may hold half a frame; never reuse it.
                drop(stream);
                self.discard();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::MuxServer;
    use crate::orb::{ObjRef, Orb};
    use crate::transport::Dispatcher;
    use cca_sidl::{DynObject, DynValue};
    use std::net::TcpListener;
    use std::sync::Arc;

    struct Doubler;
    impl DynObject for Doubler {
        fn sidl_type(&self) -> &str {
            "demo.Doubler"
        }
        fn invoke(&self, method: &str, args: Vec<DynValue>) -> Result<DynValue, SidlError> {
            match method {
                "double" => Ok(DynValue::Double(args[0].as_double()? * 2.0)),
                other => Err(SidlError::invoke(format!("no method '{other}'"))),
            }
        }
    }

    fn serve() -> (Arc<MuxServer>, Arc<Orb>) {
        let orb = Orb::new();
        orb.register("doubler", Arc::new(Doubler));
        let server = MuxServer::bind("127.0.0.1:0", Arc::clone(&orb) as Arc<dyn Dispatcher>)
            .expect("bind ephemeral port");
        (server, orb)
    }

    #[test]
    fn invocation_crosses_real_sockets() {
        let (server, _orb) = serve();
        let objref = ObjRef::tcp("doubler", server.local_addr().to_string());
        let r = objref
            .invoke("double", vec![DynValue::Double(21.0)])
            .unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 42.0));
        // Shutdown joins the dispatch pool, making the counter final.
        server.shutdown();
        assert_eq!(server.dispatched(), 1);
    }

    #[test]
    fn user_exceptions_cross_the_socket() {
        let (server, _orb) = serve();
        let objref = ObjRef::tcp("doubler", server.local_addr().to_string());
        let e = objref.invoke("missing", vec![]).unwrap_err();
        assert!(e.to_string().contains("SystemException"), "{e}");
        server.shutdown();
    }

    #[test]
    fn dial_failure_is_a_typed_connection_error() {
        // Bind-then-drop guarantees a dead port.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t = TcpTransport::new(dead.to_string());
        let e = t.call(Bytes::from_static(b"x")).unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.live_connections(), 0, "failed dial freed its slot");
    }

    #[test]
    fn pool_reuses_connections_up_to_the_bound() {
        let (server, _orb) = serve();
        let t = Arc::new(TcpTransport::new(server.local_addr().to_string()).with_pool_size(1));
        let objref = ObjRef::new("doubler", Arc::clone(&t) as Arc<dyn Transport>);
        for _ in 0..10 {
            objref
                .invoke("double", vec![DynValue::Double(1.0)])
                .unwrap();
        }
        assert_eq!(t.live_connections(), 1, "ten calls, one connection");
        assert_eq!(server.connections_accepted(), 1);
        server.shutdown();
    }

    #[test]
    fn mid_call_drop_surfaces_as_connection_failure_then_heals() {
        let (server, _orb) = serve();
        server.set_fault_plan(1, 1000); // drop every request
        let objref = ObjRef::tcp("doubler", server.local_addr().to_string());
        let e = objref
            .invoke("double", vec![DynValue::Double(1.0)])
            .unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(server.dropped_mid_call(), 1);
        server.set_fault_plan(1, 0); // heal
        let r = objref
            .invoke("double", vec![DynValue::Double(2.0)])
            .unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 4.0));
        server.shutdown();
    }

    #[test]
    fn stalled_server_times_out_as_deadline_exceeded() {
        struct Wedged;
        impl Dispatcher for Wedged {
            fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
                std::thread::sleep(Duration::from_millis(200));
                Ok(request)
            }
        }
        let server = MuxServer::bind("127.0.0.1:0", Arc::new(Wedged)).unwrap();
        let t = TcpTransport::new(server.local_addr().to_string())
            .with_io_timeout(Duration::from_millis(20));
        let e = t.call(Bytes::from_static(b"ping")).unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, DEADLINE_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_threads() {
        let (server, _orb) = serve();
        let objref = ObjRef::tcp("doubler", server.local_addr().to_string());
        objref
            .invoke("double", vec![DynValue::Double(1.0)])
            .unwrap();
        // accept + 4 default workers + the pooled connection's reader
        // and writer.
        assert_eq!(server.shutdown(), 7);
        assert_eq!(server.shutdown(), 0);
        // Calls after shutdown fail cleanly (dial refused or reset).
        assert!(objref
            .invoke("double", vec![DynValue::Double(1.0)])
            .is_err());
    }

    #[test]
    fn saturated_pool_fails_fast_against_the_deadline_instead_of_hanging() {
        let (server, _orb) = serve();
        let t = Arc::new(
            TcpTransport::new(server.local_addr().to_string())
                .with_pool_size(1)
                .with_io_timeout(Duration::from_millis(50)),
        );
        // Occupy the only pool slot without returning it — the situation a
        // wedged long call creates.
        let held = t.checkout().expect("dial the only slot");
        let started = Instant::now();
        let e = t.call(Bytes::from_static(b"starved")).unwrap_err();
        let waited = started.elapsed();
        match e {
            SidlError::UserException {
                exception_type,
                message,
            } => {
                assert_eq!(exception_type, DEADLINE_EXCEPTION_TYPE);
                assert!(message.contains("exhausted"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        assert!(
            waited >= Duration::from_millis(50),
            "the full budget is spent waiting before giving up: {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "exhaustion is a deadline, not a hang: {waited:?}"
        );
        // Returning the connection heals the pool: the next call runs.
        t.checkin(held);
        let objref = ObjRef::new("doubler", Arc::clone(&t) as Arc<dyn Transport>);
        let r = objref
            .invoke("double", vec![DynValue::Double(4.0)])
            .unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 8.0));
        server.shutdown();
    }
}
