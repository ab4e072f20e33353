//! Request-id multiplexing: thousands of concurrent logical clients on a
//! handful of sockets.
//!
//! The PR-5 stack is correct but serial: `TcpTransport` allows one in-flight
//! request per pooled connection, and `TcpServer` spends a blocking thread
//! per peer. The frame header has carried a `u64` request id since PR-5
//! precisely so that replies can be routed without demarshaling — this
//! module cashes that in on both sides of the socket, std-only (vendor
//! policy: no new runtime deps, no async runtime).
//!
//! * [`MuxTransport`] — the client: many concurrent calls pipeline over a
//!   small fixed set of connections. Per connection, one writer thread
//!   drains a shared output buffer (submissions under load coalesce into
//!   single `write` syscalls) and one reader thread routes completed
//!   replies to per-request waiters by frame id. [`MuxTransport::submit`]
//!   returns a [`PendingReply`] without blocking on the reply, so one OS
//!   thread can keep hundreds of logical calls in flight. When a
//!   connection dies, every in-flight call on it fails with a typed
//!   [`CONNECTION_EXCEPTION_TYPE`] error — which feeds the PR-3 circuit
//!   breaker exactly like a pooled-transport failure.
//! * [`MuxServer`] — the server: an event-driven readiness loop over
//!   nonblocking sockets instead of a thread per peer. One loop thread
//!   reads frames from every connection, a bounded worker pool dispatches
//!   into the same [`Dispatcher`] trait the blocking server uses (the
//!   Figure-2 pipeline and the hostile-network battery run unchanged), and
//!   replies are flushed back by the loop. Backpressure is per-connection:
//!   when a peer's replies aren't draining, the loop stops *reading* that
//!   connection until the write buffer empties, so one slow consumer can't
//!   balloon server memory.
//!
//! Protocol discipline: a reply bearing an unknown or already-completed
//! request id is a mux violation. It fails only its own connection — every
//! in-flight call on that connection gets a typed error, and no caller can
//! ever receive another caller's bytes (cross-delivery is structurally
//! impossible: the routing table hands each payload to exactly the waiter
//! that registered the id). A caller that abandons a call (deadline) leaves
//! a tombstone so the late reply is dropped silently rather than
//! misclassified as a violation.

use crate::frame::{
    encode_frame, encode_frame_header_onto, encode_frame_onto, encode_frame_with, read_frame,
    Frame, FrameDecoder, FrameKind, DEFAULT_MAX_PAYLOAD, FRAME_HEADER_LEN,
};
use crate::tcp::CONNECTION_EXCEPTION_TYPE;
use crate::transport::{Dispatcher, Transport};
use bytes::Bytes;
use cca_core::resilience::{SplitMix64, DEADLINE_EXCEPTION_TYPE};
use cca_obs::{MuxMetrics, TraceContext, TransportMetrics};
use cca_sidl::SidlError;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn conn_err(message: impl Into<String>) -> SidlError {
    SidlError::user(CONNECTION_EXCEPTION_TYPE, message)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Default number of sockets a [`MuxTransport`] multiplexes over.
pub const DEFAULT_MUX_CONNECTIONS: usize = 4;

/// What the completion router knows about one outstanding request id.
enum PendingEntry {
    /// A caller is waiting; deliver here.
    Live(Arc<WaitCell>),
    /// The caller gave up (deadline) — drop the late reply silently.
    Abandoned,
}

/// The per-connection routing table. `dead` doubles as the tombstone for
/// the whole connection: once set, no new ids register and the stored
/// error is what late submitters see.
struct PendingMap {
    waiters: HashMap<u64, PendingEntry>,
    dead: Option<SidlError>,
}

/// One caller's rendezvous with the reader thread.
struct WaitCell {
    /// `(outcome, completion instant)` — the instant is captured at
    /// delivery, not at wakeup, so pipelined benchmarks measure network
    /// latency rather than waiter-scheduling latency.
    slot: Mutex<Option<(Result<Bytes, SidlError>, Instant)>>,
    cond: Condvar,
}

impl WaitCell {
    fn new() -> Self {
        WaitCell {
            slot: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    fn deliver(&self, outcome: Result<Bytes, SidlError>) {
        *self.slot.lock().unwrap() = Some((outcome, Instant::now()));
        self.cond.notify_one();
    }
}

/// The shared output buffer a connection's writer thread drains.
struct OutQueue {
    buf: Vec<u8>,
    dead: bool,
}

/// One multiplexed connection: a writer thread serializing frames, a
/// reader thread routing completions, and the routing table between them.
struct MuxConn {
    addr: String,
    /// Original stream handle, kept so teardown can unblock the reader.
    stream: TcpStream,
    out: Mutex<OutQueue>,
    out_cv: Condvar,
    pending: Mutex<PendingMap>,
    /// Fast liveness check for connection selection; authoritative state
    /// is `pending.dead`.
    alive: AtomicBool,
    metrics: Arc<MuxMetrics>,
    transport_metrics: Arc<TransportMetrics>,
    /// The reader and writer threads, joined once the connection is
    /// torn down so none outlives its transport.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

// TcpStream, Mutex-guarded state, and atomics only: safe to share across
// the reader, writer, and any number of submitting threads.

impl MuxConn {
    /// Kills the connection: marks it dead, fails every live in-flight
    /// call with `cause`, unblocks both service threads. Idempotent — the
    /// first caller wins; later causes are dropped.
    fn teardown(&self, cause: SidlError) {
        let victims: Vec<Arc<WaitCell>> = {
            let mut pending = self.pending.lock().unwrap();
            if pending.dead.is_some() {
                return;
            }
            pending.dead = Some(cause.clone());
            pending
                .waiters
                .drain()
                .filter_map(|(_, entry)| match entry {
                    PendingEntry::Live(cell) => Some(cell),
                    PendingEntry::Abandoned => None,
                })
                .collect()
        };
        // The connection must be fully dead — liveness flag down, socket
        // shut, writer told to exit — *before* any waiter wakes. A caller
        // that retries the moment its error is delivered must observe
        // `alive == false` and re-dial; were the error delivered first,
        // the retry could land back on this corpse and fail without ever
        // reaching the server.
        self.alive.store(false, Ordering::SeqCst);
        self.transport_metrics.record_connection_drop();
        let _ = self.stream.shutdown(Shutdown::Both);
        {
            let mut out = self.out.lock().unwrap();
            out.dead = true;
            out.buf.clear();
        }
        self.out_cv.notify_all();
        // Black-box the death while the evidence is fresh: what the mux
        // counters saw and what the trace rings hold, before the waiters
        // wake and their retries overwrite both.
        if cca_obs::flight::enabled() {
            cca_obs::flight::record_incident_with_metrics(
                "ConnectionFailure",
                &format!("tcp+mux://{}: {cause}", self.addr),
                Some(&self.metrics.snapshot().to_json()),
            );
        }
        for cell in victims {
            self.metrics.record_end();
            cell.deliver(Err(cause.clone()));
        }
    }

    /// Joins the reader and writer threads. Only valid after
    /// [`teardown`](Self::teardown), which is what makes them exit; a
    /// service thread calling this skips joining itself.
    fn join_threads(&self) {
        let handles = std::mem::take(&mut *self.threads.lock().unwrap());
        let me = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }

    /// The writer loop: swap the shared buffer out under the lock, write
    /// it without the lock. Submissions that arrive while a write syscall
    /// is in progress coalesce into the next swap — under load, many
    /// frames per syscall.
    fn write_loop(&self, mut stream: TcpStream) {
        let mut batch = Vec::new();
        loop {
            {
                let mut out = self.out.lock().unwrap();
                loop {
                    if out.dead {
                        return;
                    }
                    if !out.buf.is_empty() {
                        std::mem::swap(&mut batch, &mut out.buf);
                        break;
                    }
                    out = self.out_cv.wait(out).unwrap();
                }
            }
            if let Err(e) = stream.write_all(&batch) {
                self.teardown(conn_err(format!(
                    "socket write to tcp://{}: {e}",
                    self.addr
                )));
                return;
            }
            batch.clear();
        }
    }

    /// The reader loop: block on the socket, route each reply to its
    /// waiter by frame id. Any violation — a request frame, an unknown or
    /// already-completed id, a framing error — kills this connection and
    /// only this connection.
    fn read_loop(&self, mut stream: TcpStream, max_payload: u32) {
        loop {
            let frame = match read_frame(&mut stream, max_payload) {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    self.teardown(conn_err(format!(
                        "tcp://{} closed the connection with calls in flight",
                        self.addr
                    )));
                    return;
                }
                Err(e) => {
                    self.teardown(conn_err(format!(
                        "socket read from tcp://{}: {e}",
                        self.addr
                    )));
                    return;
                }
            };
            if frame.kind != FrameKind::Reply {
                self.metrics.record_protocol_violation();
                self.teardown(conn_err(format!(
                    "tcp://{} sent a request frame on a client connection",
                    self.addr
                )));
                return;
            }
            let entry = self
                .pending
                .lock()
                .unwrap()
                .waiters
                .remove(&frame.request_id);
            match entry {
                Some(PendingEntry::Live(cell)) => {
                    self.metrics.record_end();
                    cell.deliver(Ok(frame.payload));
                }
                // The caller abandoned this id (deadline); the late reply
                // is dropped without ceremony.
                Some(PendingEntry::Abandoned) => {}
                None => {
                    self.metrics.record_protocol_violation();
                    self.teardown(conn_err(format!(
                        "tcp://{} sent a reply for unknown or already-completed \
                         request id {}",
                        self.addr, frame.request_id
                    )));
                    return;
                }
            }
        }
    }
}

/// A connection slot: lazily dialed, replaced wholesale when its
/// connection dies (the dead `Arc<MuxConn>` lingers only as long as its
/// waiters do).
struct Slot {
    conn: Mutex<Option<Arc<MuxConn>>>,
}

/// The multiplexing client transport: pipelined concurrent calls over a
/// small fixed set of connections.
///
/// Shape: [`submit`](Self::submit) registers a waiter keyed by a fresh
/// frame id, appends the encoded frame to the connection's output buffer,
/// and returns a [`PendingReply`] immediately; the [`Transport::call`]
/// implementation is `submit` + [`PendingReply::wait`]. Connections are
/// selected round-robin and dialed lazily; a dead connection is replaced
/// on the next submission that lands on its slot — dialing fresh *is* the
/// circuit breaker's half-open probe, exactly as with the pooled
/// transport.
pub struct MuxTransport {
    addr: String,
    io_timeout: Option<Duration>,
    max_payload: u32,
    slots: Vec<Slot>,
    rr: AtomicUsize,
    next_id: AtomicU64,
    metrics: Arc<TransportMetrics>,
    mux_metrics: Arc<MuxMetrics>,
}

fn make_slots(conns: usize) -> Vec<Slot> {
    (0..conns.max(1))
        .map(|_| Slot {
            conn: Mutex::new(None),
        })
        .collect()
}

impl MuxTransport {
    /// A transport multiplexing calls to `addr` over
    /// [`DEFAULT_MUX_CONNECTIONS`] lazily dialed connections.
    /// Construction never touches the network.
    pub fn new(addr: impl Into<String>) -> Self {
        MuxTransport {
            addr: addr.into(),
            io_timeout: None,
            max_payload: DEFAULT_MAX_PAYLOAD,
            slots: make_slots(DEFAULT_MUX_CONNECTIONS),
            rr: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            metrics: Arc::new(TransportMetrics::default()),
            mux_metrics: MuxMetrics::new(),
        }
    }

    /// Sets the fixed connection-set size (minimum 1).
    pub fn with_connections(mut self, conns: usize) -> Self {
        self.slots = make_slots(conns);
        self
    }

    /// Bounds every call's end-to-end wait. A call that exceeds the budget
    /// abandons its request id (the late reply is dropped, the connection
    /// survives) and surfaces as a [`DEADLINE_EXCEPTION_TYPE`] user
    /// exception — the same error every other deadline path raises.
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

    /// The fixed connection-set size.
    pub fn connections(&self) -> usize {
        self.slots.len()
    }

    /// Client-side transport metrics (dials, drops, round trips).
    pub fn metrics(&self) -> &TransportMetrics {
        &self.metrics
    }

    /// Multiplexing depth metrics: in-flight calls, high-water marks,
    /// protocol violations.
    pub fn mux_metrics(&self) -> &MuxMetrics {
        &self.mux_metrics
    }

    /// Connections currently live.
    pub fn live_connections(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                s.conn
                    .lock()
                    .unwrap()
                    .as_ref()
                    .is_some_and(|c| c.alive.load(Ordering::SeqCst))
            })
            .count()
    }

    /// Round-robin slot pick; dials (or re-dials) the slot's connection if
    /// it is absent or dead.
    fn conn_for_call(&self) -> Result<Arc<MuxConn>, SidlError> {
        let index = self.rr.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let mut slot = self.slots[index].conn.lock().unwrap();
        if let Some(conn) = slot.as_ref() {
            if conn.alive.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        // A dead connection's threads are already on their way out.
        if let Some(dead) = slot.take() {
            dead.join_threads();
        }
        let conn = self.dial()?;
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn dial(&self) -> Result<Arc<MuxConn>, SidlError> {
        self.metrics.record_dial();
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| conn_err(format!("dial tcp://{}: {e}", self.addr)))?;
        // Nagle would park small pipelined frames behind the previous ACK.
        let _ = stream.set_nodelay(true);
        let reader_half = stream
            .try_clone()
            .map_err(|e| conn_err(format!("clone socket for tcp://{}: {e}", self.addr)))?;
        let writer_half = stream
            .try_clone()
            .map_err(|e| conn_err(format!("clone socket for tcp://{}: {e}", self.addr)))?;
        let conn = Arc::new(MuxConn {
            addr: self.addr.clone(),
            stream,
            out: Mutex::new(OutQueue {
                buf: Vec::new(),
                dead: false,
            }),
            out_cv: Condvar::new(),
            pending: Mutex::new(PendingMap {
                waiters: HashMap::new(),
                dead: None,
            }),
            alive: AtomicBool::new(true),
            metrics: Arc::clone(&self.mux_metrics),
            transport_metrics: Arc::clone(&self.metrics),
            threads: Mutex::new(Vec::with_capacity(2)),
        });
        let max_payload = self.max_payload;
        let for_reader = Arc::clone(&conn);
        let reader = std::thread::Builder::new()
            .name(format!("cca-mux-read-{}", self.addr))
            .spawn(move || for_reader.read_loop(reader_half, max_payload));
        let for_writer = Arc::clone(&conn);
        let writer = reader.and_then(|reader| {
            conn.threads.lock().unwrap().push(reader);
            std::thread::Builder::new()
                .name(format!("cca-mux-write-{}", self.addr))
                .spawn(move || for_writer.write_loop(writer_half))
        });
        match writer {
            Ok(writer) => {
                conn.threads.lock().unwrap().push(writer);
                Ok(conn)
            }
            Err(e) => {
                let err = conn_err(format!("spawn mux service thread: {e}"));
                conn.teardown(err.clone());
                conn.join_threads();
                Err(err)
            }
        }
    }

    /// Starts one call without waiting for its reply: registers the
    /// request id with the completion router, hands the frame to the
    /// connection's writer, and returns immediately. Any number of calls
    /// from any number of threads may be in flight per connection.
    pub fn submit(&self, request: Bytes) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit");
        self.submit_frame(FrameKind::Request, request)
    }

    /// Starts one bulk-slab transfer: identical multiplexing to
    /// [`submit`](Self::submit) — same sockets, same writer batching, same
    /// id-routed completion — but the frame kind is `Bulk` and the payload
    /// is a raw slab (see [`crate::bulk`]). The reply's payload is the
    /// receiver's encoded [`crate::bulk::BulkAck`].
    pub fn submit_bulk(&self, slab: Bytes) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_bulk");
        self.submit_frame(FrameKind::Bulk, slab)
    }

    /// Announces a fleet rank on this transport's connection: sends a
    /// `Join` frame whose payload the server's
    /// [`SessionSink`] interprets (rank id, incarnation, provider
    /// labels). The reply is the sink's join acknowledgement. A fleet
    /// member should build its transport with
    /// [`with_connections(1)`](Self::with_connections) so the joined
    /// connection's death is an unambiguous rank-death signal.
    pub fn submit_join(&self, hello: Bytes) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_join");
        self.submit_frame(FrameKind::Join, hello)
    }

    /// Departs cleanly: sends a `Leave` frame so the server's
    /// [`SessionSink`] marks this rank as gone on purpose and the
    /// subsequent socket close is not treated as a crash.
    pub fn submit_leave(&self, goodbye: Bytes) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_leave");
        self.submit_frame(FrameKind::Leave, goodbye)
    }

    /// [`submit_bulk`](Self::submit_bulk) without the intermediate frame
    /// buffer: the header and slab are appended straight onto the
    /// connection's write queue, so the caller may reuse `slab` for the
    /// next chunk as soon as this returns. Saves one allocation and one
    /// full-payload copy per chunk, which is what the data plane is
    /// throughput-bound on.
    pub fn submit_bulk_ref(&self, slab: &[u8]) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_bulk");
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = self.conn_for_call()?;
        let context = cca_obs::trace::current_context();
        let cell = Arc::new(WaitCell::new());
        {
            let mut pending = conn.pending.lock().unwrap();
            if let Some(err) = &pending.dead {
                return Err(err.clone());
            }
            pending
                .waiters
                .insert(request_id, PendingEntry::Live(Arc::clone(&cell)));
        }
        self.mux_metrics.record_begin();
        let enqueued = {
            let mut out = conn.out.lock().unwrap();
            if out.dead {
                Ok(())
            } else {
                encode_frame_onto(
                    &mut out.buf,
                    FrameKind::Bulk,
                    request_id,
                    slab,
                    self.max_payload,
                    context,
                )
            }
        };
        if let Err(err) = enqueued {
            // Oversize slab: nothing was written, so unhook the waiter
            // instead of leaving a request id that can never complete.
            conn.pending.lock().unwrap().waiters.remove(&request_id);
            self.mux_metrics.record_end();
            return Err(err.into());
        }
        conn.out_cv.notify_one();
        Ok(PendingReply {
            cell: Some(cell),
            conn,
            request_id,
            request_bytes: slab.len() as u64,
            submitted: Instant::now(),
            timeout: self.io_timeout,
        })
    }

    /// The zero-materialization variant of
    /// [`submit_bulk_ref`](Self::submit_bulk_ref): appends the frame
    /// header to the connection's write queue, then hands `fill` the
    /// payload's `payload_len` bytes *in place* so the sender's gather
    /// writes element bytes directly where the writer thread will read
    /// them. The slab never exists anywhere else — between source array
    /// and socket there is exactly one copy.
    pub fn submit_bulk_with(
        &self,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.mux.submit_bulk");
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = self.conn_for_call()?;
        let context = cca_obs::trace::current_context();
        let cell = Arc::new(WaitCell::new());
        {
            let mut pending = conn.pending.lock().unwrap();
            if let Some(err) = &pending.dead {
                return Err(err.clone());
            }
            pending
                .waiters
                .insert(request_id, PendingEntry::Live(Arc::clone(&cell)));
        }
        self.mux_metrics.record_begin();
        let enqueued = {
            let mut out = conn.out.lock().unwrap();
            if out.dead {
                Ok(())
            } else {
                encode_frame_header_onto(
                    &mut out.buf,
                    FrameKind::Bulk,
                    request_id,
                    payload_len,
                    self.max_payload,
                    context,
                )
                .map(|()| {
                    let at = out.buf.len();
                    out.buf.resize(at + payload_len, 0);
                    fill(&mut out.buf[at..]);
                })
            }
        };
        if let Err(err) = enqueued {
            conn.pending.lock().unwrap().waiters.remove(&request_id);
            self.mux_metrics.record_end();
            return Err(err.into());
        }
        conn.out_cv.notify_one();
        Ok(PendingReply {
            cell: Some(cell),
            conn,
            request_id,
            request_bytes: payload_len as u64,
            submitted: Instant::now(),
            timeout: self.io_timeout,
        })
    }

    fn submit_frame(&self, kind: FrameKind, request: Bytes) -> Result<PendingReply, SidlError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = self.conn_for_call()?;
        // The caller's span is current here, so the wire context parents
        // the server's dispatch span to this very call. Tracing off ⇒
        // `None` after one relaxed load, zero extension bytes.
        let framed = encode_frame_with(
            kind,
            request_id,
            request.as_ref(),
            self.max_payload,
            cca_obs::trace::current_context(),
        )?;
        let cell = Arc::new(WaitCell::new());
        {
            let mut pending = conn.pending.lock().unwrap();
            if let Some(err) = &pending.dead {
                return Err(err.clone());
            }
            pending
                .waiters
                .insert(request_id, PendingEntry::Live(Arc::clone(&cell)));
        }
        self.mux_metrics.record_begin();
        {
            let mut out = conn.out.lock().unwrap();
            // If the connection died between the two locks, teardown has
            // already delivered the error to our cell; skip the enqueue
            // and let `wait` surface it.
            if !out.dead {
                out.buf.extend_from_slice(&framed);
            }
        }
        conn.out_cv.notify_one();
        Ok(PendingReply {
            cell: Some(cell),
            conn,
            request_id,
            request_bytes: request.len() as u64,
            submitted: Instant::now(),
            timeout: self.io_timeout,
        })
    }
}

impl Drop for MuxTransport {
    fn drop(&mut self) {
        for slot in &self.slots {
            let conn = slot.conn.lock().unwrap().take();
            if let Some(conn) = conn {
                conn.teardown(conn_err("transport dropped"));
                conn.join_threads();
            }
        }
    }
}

impl Transport for MuxTransport {
    fn call(&self, request: Bytes) -> Result<Bytes, SidlError> {
        let _span = cca_obs::span("rpc.mux.call");
        let counters = cca_obs::counters_enabled();
        let pending = self.submit(request)?;
        let request_bytes = pending.request_bytes;
        let (reply, latency) = pending.wait_timed()?;
        if counters {
            self.metrics.record_round_trip(
                "mux",
                request_bytes,
                reply.len() as u64,
                latency.as_nanos() as u64,
            );
        }
        Ok(reply)
    }
}

/// A [`Transport`]-shaped view of a [`MuxTransport`]'s bulk lane: `call`
/// submits the payload as a `Bulk` frame and waits for the ack reply.
/// Being a `Transport`, it composes unchanged with the PR-3 resilience
/// stack — wrap it in a [`crate::DeadlineTransport`] and a stalled
/// receiver surfaces `cca.rpc.DeadlineExceeded` instead of wedging the
/// writer thread, or in a [`crate::FaultTransport`] for the CI fault
/// matrix; connection failures feed the circuit breaker exactly like
/// control-plane calls.
pub struct BulkChannel {
    transport: Arc<MuxTransport>,
}

impl BulkChannel {
    /// A bulk lane over `transport`'s connection set.
    pub fn new(transport: Arc<MuxTransport>) -> Arc<Self> {
        Arc::new(BulkChannel { transport })
    }

    /// The underlying multiplexed transport.
    pub fn transport(&self) -> &Arc<MuxTransport> {
        &self.transport
    }

    /// Starts one slab without waiting for its ack. The windowed sender
    /// keeps several of these in flight so the gather, the wire, and the
    /// receiver's scatter overlap instead of serializing on round trips;
    /// [`call`](Transport::call) is the stop-and-wait special case. The
    /// slab is borrowed — its bytes are on the connection's write queue
    /// when this returns, so the caller may refill the same buffer for
    /// the next chunk immediately.
    pub fn submit_ref(&self, slab: &[u8]) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.bulk.chunk");
        self.transport.submit_bulk_ref(slab)
    }

    /// Like [`submit_ref`](Self::submit_ref), but the slab is *built in
    /// place* on the connection's write queue by `fill` — see
    /// [`MuxTransport::submit_bulk_with`].
    pub fn submit_with(
        &self,
        payload_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<PendingReply, SidlError> {
        let _span = cca_obs::span("rpc.bulk.chunk");
        self.transport.submit_bulk_with(payload_len, fill)
    }
}

impl Transport for BulkChannel {
    fn call(&self, slab: Bytes) -> Result<Bytes, SidlError> {
        let _span = cca_obs::span("rpc.bulk.chunk");
        let pending = self.transport.submit_bulk(slab)?;
        Ok(pending.wait_timed()?.0)
    }
}

/// A handle to one in-flight multiplexed call. Consume it with
/// [`wait`](Self::wait); dropping it unwaited abandons the call (the reply,
/// if it ever arrives, is discarded without penalizing the connection).
pub struct PendingReply {
    cell: Option<Arc<WaitCell>>,
    conn: Arc<MuxConn>,
    request_id: u64,
    request_bytes: u64,
    submitted: Instant,
    timeout: Option<Duration>,
}

impl PendingReply {
    /// The frame-level request id routing this call.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Blocks until the reply arrives (bounded by the transport's
    /// io-timeout, if any) and returns its payload.
    pub fn wait(self) -> Result<Bytes, SidlError> {
        self.wait_timed().map(|(bytes, _)| bytes)
    }

    /// Like [`wait`](Self::wait), also returning the submit-to-completion
    /// latency measured at *delivery* time — unbiased by how long this
    /// thread took to get around to waiting.
    pub fn wait_timed(mut self) -> Result<(Bytes, Duration), SidlError> {
        let cell = self.cell.take().expect("wait consumes the cell");
        let deadline = self.timeout.map(|t| self.submitted + t);
        let mut slot = cell.slot.lock().unwrap();
        loop {
            if let Some((outcome, done_at)) = slot.take() {
                let latency = done_at.saturating_duration_since(self.submitted);
                return outcome.map(|bytes| (bytes, latency));
            }
            match deadline {
                None => slot = cell.cond.wait(slot).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        drop(slot);
                        if let Some((outcome, done_at)) = self.abandon(&cell) {
                            // Lost the race: the reply landed while we
                            // were deciding to give up. Take it.
                            let latency = done_at.saturating_duration_since(self.submitted);
                            return outcome.map(|bytes| (bytes, latency));
                        }
                        return Err(SidlError::user(
                            DEADLINE_EXCEPTION_TYPE,
                            format!(
                                "mux call {} to tcp://{} exceeded its {:?} budget",
                                self.request_id, self.conn.addr, self.timeout
                            ),
                        ));
                    }
                    slot = cell.cond.wait_timeout(slot, d - now).unwrap().0;
                }
            }
        }
    }

    /// Converts this call's routing entry to a tombstone. Returns the
    /// outcome instead if delivery won the race.
    fn abandon(&self, cell: &Arc<WaitCell>) -> Option<(Result<Bytes, SidlError>, Instant)> {
        let mut pending = self.conn.pending.lock().unwrap();
        match pending.waiters.get_mut(&self.request_id) {
            Some(entry @ PendingEntry::Live(_)) => {
                *entry = PendingEntry::Abandoned;
                self.conn.metrics.record_end();
                None
            }
            // Already delivered (or the connection died and delivered an
            // error): the cell holds the outcome.
            _ => cell.slot.lock().unwrap().take(),
        }
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            let _ = self.abandon(&cell);
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Tuning knobs for a [`MuxServer`]. `Default` is sized for tests and
/// moderate service; the E13 bench overrides nothing.
#[derive(Debug, Clone)]
pub struct MuxServerConfig {
    /// Dispatch worker threads (completions may finish out of order up to
    /// this parallelism).
    pub dispatch_threads: usize,
    /// Per-connection cap on buffered reply bytes; beyond it the loop
    /// stops reading that connection until the buffer drains.
    pub write_buffer_cap: usize,
    /// Live-connection bound: accepts beyond it are refused immediately
    /// (the bounded accept/handshake concurrency).
    pub max_connections: usize,
    /// Frame payload cap (both directions).
    pub max_payload: u32,
}

impl Default for MuxServerConfig {
    fn default() -> Self {
        MuxServerConfig {
            dispatch_threads: 4,
            write_buffer_cap: 1 << 20,
            max_connections: 1024,
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Where fleet `Join`/`Leave` frames land, and how connection death is
/// reported for joined connections. The connection id doubles as the
/// rank's *session id*: it is unique for the server's lifetime, so a
/// restarted rank's new session is always distinguishable from its dead
/// predecessor's.
pub trait SessionSink: Send + Sync {
    /// A `Join` frame arrived on connection `session`. The returned bytes
    /// travel back as the `Reply` payload (the join acknowledgement);
    /// an error closes the connection.
    fn join(&self, session: u64, hello: Bytes) -> Result<Vec<u8>, SidlError>;

    /// A `Leave` frame arrived on connection `session` — the rank is
    /// departing on purpose; its imminent socket close is not a crash.
    fn leave(&self, session: u64, goodbye: Bytes) -> Result<Vec<u8>, SidlError>;

    /// Connection `session` died (EOF, reset, framing violation) after a
    /// successful `Join` frame was decoded on it. Called from the event
    /// loop's reap pass — implementations must not block.
    fn disconnected(&self, session: u64);
}

/// One unit of work for the dispatch pool.
struct Job {
    conn_id: u64,
    request_id: u64,
    /// `Request` goes to the [`Dispatcher`]; `Bulk` goes to the installed
    /// [`BulkSink`]; `Join`/`Leave` go to the installed [`SessionSink`].
    /// (`Reply` never reaches the queue.)
    kind: FrameKind,
    payload: Bytes,
    /// The caller's trace identity from the frame, installed around the
    /// dispatch so the worker's spans join the caller's trace.
    context: Option<TraceContext>,
    /// Bytes this job charges against its connection's backlog until the
    /// reply lands in the write buffer (see [`ServerConn::pending_cost`]).
    cost: usize,
}

struct JobQueue {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// A connection as the event loop sees it.
struct ServerConn {
    id: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded reply bytes awaiting the socket, with a cursor instead of
    /// repeated front-drains.
    out: Vec<u8>,
    out_pos: usize,
    /// Request bytes decoded but not yet answered into `out`. Without this
    /// the read loop sees zero backlog for a whole pass (completions only
    /// reach `out` on a later pass) and a single pass can swallow an
    /// arbitrarily large burst into the job queue.
    pending_cost: usize,
    /// Reads paused by backpressure?
    paused: bool,
    closed: bool,
    /// A `Join` frame was decoded on this connection: its death must be
    /// reported to the [`SessionSink`] as a rank death.
    joined: bool,
}

impl ServerConn {
    /// Unanswered work held for this connection: unflushed reply bytes
    /// plus requests still in (or bound for) the dispatch pool.
    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos + self.pending_cost
    }
}

/// The event-driven multiplexing server: a readiness loop over nonblocking
/// sockets, dispatching into the same [`Dispatcher`] as [`crate::TcpServer`]
/// — a servant, a test battery, or the Figure-2 pipeline cannot tell the
/// two apart.
///
/// Thread budget is *fixed*, independent of peer count: one accept thread,
/// one event-loop thread, `dispatch_threads` workers. Ten thousand logical
/// clients over eight sockets cost the same threads as one.
///
/// Fault injection mirrors [`crate::TcpServer::set_fault_plan`]: the drop
/// decision is made on the event loop as each request frame is decoded, so
/// a serialized client observes a schedule that is a pure function of the
/// seed.
pub struct MuxServer {
    local_addr: SocketAddr,
    dispatcher: Arc<dyn Dispatcher>,
    config: MuxServerConfig,
    shutting_down: AtomicBool,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    event_thread: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Accepted sockets awaiting registration by the event loop.
    incoming: Mutex<Vec<TcpStream>>,
    /// Live + pending-registration connections, maintained for the accept
    /// bound.
    live_conns: AtomicUsize,
    jobs: Mutex<JobQueue>,
    jobs_cv: Condvar,
    /// Completed dispatches awaiting the event loop:
    /// `(conn id, job cost, frame)`.
    completed: Mutex<Vec<(u64, usize, Vec<u8>)>>,
    /// Event-loop wakeup: workers and the accept thread set the flag.
    wake: Mutex<bool>,
    wake_cv: Condvar,
    accepted: AtomicU64,
    rejected_over_capacity: AtomicU64,
    dispatched: AtomicU64,
    dropped_mid_call: AtomicU64,
    drop_permille: AtomicU64,
    fault_draws: Mutex<SplitMix64>,
    metrics: Arc<MuxMetrics>,
    /// Where `Bulk` frames land. Installed by [`Self::set_bulk_sink`];
    /// a bulk frame arriving with no sink is a protocol violation.
    bulk_sink: Mutex<Option<Arc<dyn crate::bulk::BulkSink>>>,
    /// Where `Join`/`Leave` frames (and joined-connection deaths) land.
    /// Installed by [`Self::set_session_sink`]; a join frame arriving
    /// with no sink is a protocol violation.
    session_sink: Mutex<Option<Arc<dyn SessionSink>>>,
}

impl MuxServer {
    /// Binds `addr` (port 0 for ephemeral) with default tuning and starts
    /// the accept thread, event loop, and dispatch pool.
    pub fn bind(
        addr: impl ToSocketAddrs,
        dispatcher: Arc<dyn Dispatcher>,
    ) -> std::io::Result<Arc<Self>> {
        Self::bind_with(addr, dispatcher, MuxServerConfig::default())
    }

    /// Binds with explicit tuning.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        dispatcher: Arc<dyn Dispatcher>,
        config: MuxServerConfig,
    ) -> std::io::Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let dispatch_threads = config.dispatch_threads.max(1);
        let server = Arc::new(MuxServer {
            local_addr,
            dispatcher,
            config,
            shutting_down: AtomicBool::new(false),
            accept_thread: Mutex::new(None),
            event_thread: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
            live_conns: AtomicUsize::new(0),
            jobs: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            jobs_cv: Condvar::new(),
            completed: Mutex::new(Vec::new()),
            wake: Mutex::new(false),
            wake_cv: Condvar::new(),
            accepted: AtomicU64::new(0),
            rejected_over_capacity: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            dropped_mid_call: AtomicU64::new(0),
            drop_permille: AtomicU64::new(0),
            fault_draws: Mutex::new(SplitMix64::new(0)),
            metrics: MuxMetrics::new(),
            bulk_sink: Mutex::new(None),
            session_sink: Mutex::new(None),
        });
        let for_accept = Arc::clone(&server);
        *server.accept_thread.lock().unwrap() = Some(
            std::thread::Builder::new()
                .name(format!("cca-mux-accept-{local_addr}"))
                .spawn(move || for_accept.accept_loop(listener))?,
        );
        let for_events = Arc::clone(&server);
        *server.event_thread.lock().unwrap() = Some(
            std::thread::Builder::new()
                .name(format!("cca-mux-events-{local_addr}"))
                .spawn(move || for_events.event_loop())?,
        );
        let mut workers = server.workers.lock().unwrap();
        for i in 0..dispatch_threads {
            let me = Arc::clone(&server);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cca-mux-work-{i}"))
                    .spawn(move || me.worker_loop())?,
            );
        }
        drop(workers);
        Ok(server)
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections accepted over the server's lifetime.
    pub fn connections_accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused because the live-connection bound was reached.
    pub fn rejected_over_capacity(&self) -> u64 {
        self.rejected_over_capacity.load(Ordering::Relaxed)
    }

    /// Requests dispatched with their reply queued to the wire.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Connections deliberately hung up mid-call by the fault plan.
    pub fn dropped_mid_call(&self) -> u64 {
        self.dropped_mid_call.load(Ordering::Relaxed)
    }

    /// Server-side depth metrics: queued reply bytes, paused connections,
    /// dispatch in-flight.
    pub fn metrics(&self) -> &MuxMetrics {
        &self.metrics
    }

    /// Installs the data-plane sink: every decoded `Bulk` frame is handed
    /// to `sink` on a dispatch worker and its returned bytes travel back
    /// as the `Reply` payload (normally an encoded
    /// [`crate::bulk::BulkAck`]). A sink error closes the producing
    /// connection — the same blast radius as a framing violation — and no
    /// other. Without a sink, bulk frames are protocol violations.
    pub fn set_bulk_sink(&self, sink: Arc<dyn crate::bulk::BulkSink>) {
        *self.bulk_sink.lock().unwrap() = Some(sink);
    }

    /// Installs the fleet session sink: decoded `Join`/`Leave` frames are
    /// handed to `sink` on a dispatch worker (its returned bytes are the
    /// reply), and the death of any connection that joined is reported
    /// via [`SessionSink::disconnected`] from the reap pass. Without a
    /// sink, join/leave frames are protocol violations.
    pub fn set_session_sink(&self, sink: Arc<dyn SessionSink>) {
        *self.session_sink.lock().unwrap() = Some(sink);
    }

    /// Arms (or disarms with `drop_permille == 0`) the hostile-network
    /// fault plan — same contract as [`crate::TcpServer::set_fault_plan`]:
    /// the schedule is a pure function of `seed`, drawn once per request
    /// in the order the event loop decodes them.
    pub fn set_fault_plan(&self, seed: u64, drop_permille: u64) {
        *self.fault_draws.lock().unwrap() = SplitMix64::new(seed);
        self.drop_permille.store(drop_permille, Ordering::SeqCst);
    }

    fn should_drop(&self) -> bool {
        let permille = self.drop_permille.load(Ordering::SeqCst);
        if permille == 0 {
            return false;
        }
        self.fault_draws.lock().unwrap().next_below(1000) < permille
    }

    fn wake_event_loop(&self) {
        *self.wake.lock().unwrap() = true;
        self.wake_cv.notify_one();
    }

    fn accept_loop(self: Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if self.live_conns.load(Ordering::SeqCst) >= self.config.max_connections {
                // Bounded accept concurrency: refuse outright rather than
                // queueing unbounded peers. The socket drops; the peer
                // sees EOF/reset and may retry against the breaker.
                self.rejected_over_capacity.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.accepted.fetch_add(1, Ordering::Relaxed);
            self.live_conns.fetch_add(1, Ordering::SeqCst);
            self.incoming.lock().unwrap().push(stream);
            self.wake_event_loop();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let job = {
                let mut queue = self.jobs.lock().unwrap();
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if queue.shutting_down {
                        return;
                    }
                    queue = self.jobs_cv.wait(queue).unwrap();
                }
            };
            // Dispatch errors mean the payload was undecodable — the
            // dispatcher marshals servant errors into replies — which is a
            // protocol violation. The reply is simply not produced; the
            // event loop closed (or will close) hostile connections via
            // framing errors, and a client that sent garbage inside a
            // valid frame observes its call never completing against its
            // deadline. To keep parity with `TcpServer` (which hangs up),
            // we enqueue a sentinel close instead.
            let outcome = {
                // Adopt the caller's wire identity for the dispatch: the
                // ORB's dispatch span parents to the client's call span.
                let _ctx = cca_obs::install_context(job.context);
                match job.kind {
                    FrameKind::Bulk => {
                        // Data plane: the slab goes to the sink, not the
                        // dispatcher; the sink's ack bytes are the reply.
                        // The sink is checked at decode time, so absence
                        // here means it was uninstalled mid-flight — the
                        // close sentinel handles that too.
                        let sink = self.bulk_sink.lock().unwrap().clone();
                        match sink {
                            Some(sink) => sink.receive(job.payload).map(Bytes::from),
                            None => Err(SidlError::user(
                                crate::bulk::BULK_EXCEPTION_TYPE,
                                "no bulk sink installed",
                            )),
                        }
                    }
                    FrameKind::Join | FrameKind::Leave => {
                        // Fleet session plane: the sink's ack bytes are
                        // the reply. Checked at decode time, like Bulk.
                        let sink = self.session_sink.lock().unwrap().clone();
                        match sink {
                            Some(sink) if job.kind == FrameKind::Join => {
                                sink.join(job.conn_id, job.payload).map(Bytes::from)
                            }
                            Some(sink) => sink.leave(job.conn_id, job.payload).map(Bytes::from),
                            None => Err(SidlError::user(
                                "cca.rpc.FleetViolation",
                                "no session sink installed",
                            )),
                        }
                    }
                    _ => self.dispatcher.dispatch(job.payload),
                }
            };
            match outcome {
                Ok(reply) => {
                    match encode_frame(
                        FrameKind::Reply,
                        job.request_id,
                        reply.as_ref(),
                        self.config.max_payload,
                    ) {
                        Ok(framed) => {
                            self.completed
                                .lock()
                                .unwrap()
                                .push((job.conn_id, job.cost, framed));
                        }
                        Err(_) => {
                            // Reply exceeds the frame cap: close the
                            // connection (empty frame = close sentinel).
                            self.completed.lock().unwrap().push((
                                job.conn_id,
                                job.cost,
                                Vec::new(),
                            ));
                        }
                    }
                }
                Err(_) => {
                    self.completed
                        .lock()
                        .unwrap()
                        .push((job.conn_id, job.cost, Vec::new()));
                }
            }
            self.metrics.record_end();
            self.wake_event_loop();
        }
    }

    /// The readiness loop. Std-only means no `epoll`: readiness is
    /// discovered by attempting nonblocking reads/writes each pass and
    /// parking briefly (or until a worker/acceptor wakes us) when a full
    /// pass makes no progress. Under load the loop never parks; idle it
    /// costs one wakeup per park interval.
    fn event_loop(self: Arc<Self>) {
        let mut conns: Vec<ServerConn> = Vec::new();
        let mut next_conn_id: u64 = 0;
        // Per-read ceiling, sized for the bulk plane: megabyte slabs
        // arrive in a handful of reads instead of sixteen, and the loop
        // visits each connection that much less often per byte moved.
        const READ_CHUNK: usize = 256 << 10;
        loop {
            let mut progressed = false;

            // New connections, registered nonblocking.
            {
                let mut incoming = self.incoming.lock().unwrap();
                for stream in incoming.drain(..) {
                    if stream.set_nonblocking(true).is_err() {
                        self.live_conns.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    next_conn_id += 1;
                    conns.push(ServerConn {
                        id: next_conn_id,
                        stream,
                        decoder: FrameDecoder::with_max_payload(self.config.max_payload),
                        out: Vec::new(),
                        out_pos: 0,
                        pending_cost: 0,
                        paused: false,
                        closed: false,
                        joined: false,
                    });
                    progressed = true;
                }
            }

            // Completed dispatches into per-connection write buffers.
            {
                let mut completed = self.completed.lock().unwrap();
                for (conn_id, cost, framed) in completed.drain(..) {
                    progressed = true;
                    let Some(conn) = conns.iter_mut().find(|c| c.id == conn_id && !c.closed) else {
                        continue; // connection died mid-dispatch
                    };
                    conn.pending_cost = conn.pending_cost.saturating_sub(cost);
                    if framed.is_empty() {
                        // Close sentinel: undecodable payload or oversized
                        // reply — hang up, like the blocking server.
                        conn.closed = true;
                        continue;
                    }
                    conn.out.extend_from_slice(&framed);
                    self.dispatched.fetch_add(1, Ordering::Relaxed);
                }
            }

            let shutting_down = self.shutting_down.load(Ordering::SeqCst);

            for conn in conns.iter_mut() {
                if conn.closed {
                    continue;
                }
                // Flush pending replies (nonblocking).
                while conn.out_pos < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            conn.closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.out_pos += n;
                            progressed = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.closed = true;
                            break;
                        }
                    }
                }
                if conn.out_pos == conn.out.len() && conn.out_pos > 0 {
                    conn.out.clear();
                    conn.out_pos = 0;
                }
                if conn.closed || shutting_down {
                    continue;
                }

                // Backpressure: a connection whose replies aren't draining
                // gets no further reads until the backlog clears.
                conn.paused = conn.backlog() > self.config.write_buffer_cap;
                if conn.paused {
                    continue;
                }

                // Read whatever is ready, straight into the decoder's
                // buffer — no scratch hop, the payload bytes are copied
                // exactly once between socket and frame.
                loop {
                    match conn.decoder.fill_from(&mut conn.stream, READ_CHUNK) {
                        Ok(0) => {
                            conn.closed = true;
                            break;
                        }
                        Ok(_) => {
                            progressed = true;
                            if !self.drain_frames(conn) {
                                break;
                            }
                            // Keep reading only while the backlog is sane;
                            // a huge burst re-checks backpressure next pass.
                            if conn.backlog() > self.config.write_buffer_cap {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.closed = true;
                            break;
                        }
                    }
                }
            }

            // Reap closed connections. A joined connection's death IS the
            // rank-death signal: report it before the conn is forgotten.
            let before = conns.len();
            let session_sink = if conns.iter().any(|c| c.closed && c.joined) {
                self.session_sink.lock().unwrap().clone()
            } else {
                None
            };
            conns.retain(|c| {
                if c.closed {
                    let _ = c.stream.shutdown(Shutdown::Both);
                    if c.joined {
                        if let Some(sink) = &session_sink {
                            sink.disconnected(c.id);
                        }
                    }
                }
                !c.closed
            });
            if conns.len() != before {
                self.live_conns
                    .fetch_sub(before - conns.len(), Ordering::SeqCst);
                progressed = true;
            }

            // Publish depth metrics once per pass (cheap stores).
            self.metrics
                .set_queued_bytes(conns.iter().map(|c| c.backlog() as u64).sum());
            self.metrics
                .set_paused_connections(conns.iter().filter(|c| c.paused).count() as u64);

            if shutting_down {
                // Drain phase: exit once nothing is left to flush (or the
                // peers are gone). Workers were already told to stop.
                for conn in &conns {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                return;
            }

            if !progressed {
                let mut woken = self.wake.lock().unwrap();
                if !*woken {
                    // Park briefly: worker completions and new accepts
                    // set the flag; incoming bytes on nonblocking sockets
                    // cannot, so the timeout is the poll interval.
                    let (guard, _) = self
                        .wake_cv
                        .wait_timeout(woken, Duration::from_micros(200))
                        .unwrap();
                    woken = guard;
                }
                *woken = false;
            }
        }
    }

    /// Decodes every complete frame buffered on `conn`; returns `false`
    /// when the connection must close (violation or armed fault).
    fn drain_frames(&self, conn: &mut ServerConn) -> bool {
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(Frame {
                    kind:
                        kind @ (FrameKind::Request
                        | FrameKind::Bulk
                        | FrameKind::Join
                        | FrameKind::Leave),
                    request_id,
                    context,
                    payload,
                })) => {
                    if kind == FrameKind::Bulk && self.bulk_sink.lock().unwrap().is_none() {
                        // Data-plane frame at a server with no data plane:
                        // protocol violation, same as a client reply.
                        self.metrics.record_protocol_violation();
                        conn.closed = true;
                        return false;
                    }
                    if matches!(kind, FrameKind::Join | FrameKind::Leave)
                        && self.session_sink.lock().unwrap().is_none()
                    {
                        // Fleet frame at a server with no fleet: protocol
                        // violation, same blast radius as above.
                        self.metrics.record_protocol_violation();
                        conn.closed = true;
                        return false;
                    }
                    if kind == FrameKind::Join {
                        // Marked at decode time, not dispatch time, so a
                        // death between the two is still reported.
                        conn.joined = true;
                    }
                    if self.should_drop() {
                        self.dropped_mid_call.fetch_add(1, Ordering::Relaxed);
                        cca_obs::trace_instant("rpc.mux.injected_drop");
                        conn.closed = true;
                        return false;
                    }
                    self.metrics.record_begin();
                    // Charge at least the header so a flood of empty
                    // requests still accumulates backlog. Bulk frames
                    // charge their full slab, so the write-buffer cap
                    // bounds in-memory payload per connection for the
                    // data plane exactly as for replies.
                    let cost = payload.len() + FRAME_HEADER_LEN;
                    conn.pending_cost += cost;
                    self.jobs.lock().unwrap().jobs.push_back(Job {
                        conn_id: conn.id,
                        request_id,
                        kind,
                        context,
                        payload,
                        cost,
                    });
                    self.jobs_cv.notify_one();
                }
                Ok(Some(_)) => {
                    // A reply frame from a client: mux violation — this
                    // connection dies, others are untouched.
                    self.metrics.record_protocol_violation();
                    conn.closed = true;
                    return false;
                }
                Ok(None) => return true,
                Err(_) => {
                    // Framing violation: no resync point, hang up.
                    conn.closed = true;
                    return false;
                }
            }
        }
    }

    /// Stops the server: closes the listener path, tells workers and the
    /// event loop to exit, closes every live connection, joins every
    /// thread. Returns the number of threads joined; idempotent — later
    /// calls return 0.
    pub fn shutdown(&self) -> usize {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return 0;
        }
        // Unblock the accept thread.
        let _ = TcpStream::connect(self.local_addr);
        // Tell the workers to finish the queue and exit.
        {
            let mut queue = self.jobs.lock().unwrap();
            queue.shutting_down = true;
        }
        self.jobs_cv.notify_all();
        self.wake_event_loop();
        let mut joined = 0;
        if let Some(h) = self.accept_thread.lock().unwrap().take() {
            let _ = h.join();
            joined += 1;
        }
        for h in self.workers.lock().unwrap().drain(..) {
            let _ = h.join();
            joined += 1;
        }
        if let Some(h) = self.event_thread.lock().unwrap().take() {
            let _ = h.join();
            joined += 1;
        }
        joined
    }
}

impl Drop for MuxServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use crate::orb::{ObjRef, Orb};
    use cca_sidl::{DynObject, DynValue};

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
    fn invocation_crosses_the_mux_stack() {
        let (server, _orb) = serve();
        let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        let r = objref
            .invoke("double", vec![DynValue::Double(21.0)])
            .unwrap();
        assert!(matches!(r, DynValue::Double(v) if v == 42.0));
        assert!(server.shutdown() >= 3);
        assert_eq!(server.dispatched(), 1);
    }

    #[test]
    fn many_pipelined_calls_share_one_socket() {
        let (server, _orb) = serve();
        let transport =
            Arc::new(MuxTransport::new(server.local_addr().to_string()).with_connections(1));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        for i in 0..100 {
            let r = objref
                .invoke("double", vec![DynValue::Double(i as f64)])
                .unwrap();
            assert!(matches!(r, DynValue::Double(v) if v == 2.0 * i as f64));
        }
        assert_eq!(transport.metrics().dials(), 1, "one socket, 100 calls");
        assert_eq!(server.connections_accepted(), 1);
        server.shutdown();
        assert_eq!(server.dispatched(), 100);
    }

    #[test]
    fn dial_failure_is_a_typed_connection_error() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t = MuxTransport::new(dead.to_string());
        let e = t.call(Bytes::from_static(b"x")).unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.live_connections(), 0);
    }

    /// A fake server that reads request frames and answers them however
    /// `reply_for` says — the tool for protocol-violation tests.
    fn hostile_server(
        reply_for: impl Fn(u64) -> Vec<(u64, Vec<u8>)> + Send + 'static,
    ) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                while let Ok(Some(frame)) = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD) {
                    for (id, payload) in reply_for(frame.request_id) {
                        if write_frame(
                            &mut stream,
                            FrameKind::Reply,
                            id,
                            &payload,
                            DEFAULT_MAX_PAYLOAD,
                        )
                        .is_err()
                        {
                            break;
                        }
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn unknown_request_id_kills_only_that_connection() {
        // Every reply bears a fabricated id the client never issued.
        let addr = hostile_server(|id| vec![(id + 1_000_000, b"boo".to_vec())]);
        let t = MuxTransport::new(addr.to_string()).with_connections(1);
        let e = t.call(Bytes::from_static(b"ping")).unwrap_err();
        match &e {
            SidlError::UserException {
                exception_type,
                message,
            } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
                assert!(
                    message.contains("unknown or already-completed"),
                    "{message}"
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(t.mux_metrics().protocol_violations(), 1);
        // The transport heals by re-dialing a fresh connection: the next
        // call fails the same way (server is still hostile) but on a new
        // socket, proving the poisoned connection was not reused.
        let _ = t.call(Bytes::from_static(b"ping")).unwrap_err();
        assert_eq!(t.metrics().dials(), 2);
    }

    #[test]
    fn duplicate_reply_id_is_a_violation_that_fails_in_flight_calls() {
        // Requests are answered correctly, then answered AGAIN: the second
        // delivery hits an already-completed id.
        let addr = hostile_server(|id| vec![(id, b"first".to_vec()), (id, b"second".to_vec())]);
        let t = Arc::new(MuxTransport::new(addr.to_string()).with_connections(1));
        // Two calls in flight on one connection. The first gets its reply;
        // the duplicate delivery then hits an already-completed id and
        // kills the connection, failing the second call with a typed
        // error — never cross-delivering "second" to it.
        let a = t.submit(Bytes::from_static(b"a")).unwrap();
        let b = t.submit(Bytes::from_static(b"b"));
        assert_eq!(a.wait().unwrap(), Bytes::from_static(b"first"));
        // Depending on scheduling, `b` failed at submit (connection
        // already torn down) or fails at wait; either way the error is
        // the typed connection failure.
        let e = match b {
            Ok(pending) => pending.wait().unwrap_err(),
            Err(e) => e,
        };
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        assert!(t.mux_metrics().protocol_violations() >= 1);
    }

    #[test]
    fn connection_death_fans_the_error_to_every_in_flight_call() {
        // A server that swallows exactly five requests without replying,
        // then slams the door — so the door slams only once all five
        // calls are in flight.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..5 {
                let _ = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD);
            }
            let _ = stream.shutdown(Shutdown::Both);
        });
        let t = MuxTransport::new(addr.to_string()).with_connections(1);
        let pending: Vec<_> = (0..5)
            .map(|_| t.submit(Bytes::from_static(b"payload")).unwrap())
            .collect();
        for p in pending {
            let e = p.wait().unwrap_err();
            match e {
                SidlError::UserException { exception_type, .. } => {
                    assert_eq!(exception_type, CONNECTION_EXCEPTION_TYPE);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            t.mux_metrics().peak_in_flight(),
            5,
            "all five were concurrently in flight"
        );
        assert_eq!(t.mux_metrics().in_flight(), 0, "fan-out drained the gauge");
    }

    #[test]
    fn deadline_abandons_the_call_without_killing_the_connection() {
        struct Sleepy;
        impl Dispatcher for Sleepy {
            fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
                std::thread::sleep(Duration::from_millis(80));
                Ok(request)
            }
        }
        let server = MuxServer::bind("127.0.0.1:0", Arc::new(Sleepy)).unwrap();
        let t = MuxTransport::new(server.local_addr().to_string())
            .with_connections(1)
            .with_io_timeout(Duration::from_millis(10));
        let e = t.call(Bytes::from_static(b"slow")).unwrap_err();
        match e {
            SidlError::UserException { exception_type, .. } => {
                assert_eq!(exception_type, DEADLINE_EXCEPTION_TYPE);
            }
            other => panic!("{other:?}"),
        }
        // The late reply lands on a tombstone: the connection survives and
        // the next (patient) call reuses it.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(t.live_connections(), 1, "tombstoned reply kept the socket");
        assert_eq!(
            t.mux_metrics().protocol_violations(),
            0,
            "a late reply to an abandoned call is not a violation"
        );
        server.shutdown();
    }

    #[test]
    fn backpressure_pauses_reading_a_connection_that_wont_drain() {
        // Echo large payloads through a tiny write buffer while the client
        // refuses to read: the server must stop reading (dispatch stalls)
        // instead of buffering without bound, then finish once the client
        // drains.
        struct Echo;
        impl Dispatcher for Echo {
            fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
                Ok(request)
            }
        }
        let server = MuxServer::bind_with(
            "127.0.0.1:0",
            Arc::new(Echo),
            MuxServerConfig {
                write_buffer_cap: 64 << 10,
                ..MuxServerConfig::default()
            },
        )
        .unwrap();

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Enough volume that loopback kernel buffers cannot absorb it all:
        // the server must either buffer it (what the cap forbids) or pause.
        // With autotuning, each direction can swallow up to wmem_max +
        // rmem_max (32 MiB rmem here), so the request and reply paths
        // together can hide ~70 MiB — 128 MiB keeps the stall observable.
        let payload = vec![7u8; 128 << 10];
        const SENT: u64 = 1024;
        // Write from a helper thread: once the server pauses reads and the
        // kernel buffers fill, these writes block — exactly the condition
        // under test — and unblock when the main thread starts draining.
        let mut write_half = stream.try_clone().unwrap();
        let body = payload.clone();
        let writer = std::thread::spawn(move || {
            for id in 0..SENT {
                write_frame(
                    &mut write_half,
                    FrameKind::Request,
                    id,
                    &body,
                    DEFAULT_MAX_PAYLOAD,
                )
                .unwrap();
            }
        });
        // Give the server time to read as much as it will: with a 64 KiB
        // cap on 128 KiB echoes and a stubborn client, it cannot come
        // close to finishing all 1024.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().pause_events() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            server.metrics().pause_events() > 0,
            "a non-draining connection must pause reads"
        );
        assert!(
            server.dispatched() < SENT,
            "dispatch must stall behind backpressure, got {}",
            server.dispatched()
        );

        // Drain: read every reply; the server resumes and finishes them all.
        let mut got = 0u64;
        while got < SENT {
            let frame = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD)
                .unwrap()
                .expect("reply");
            assert_eq!(frame.payload.len(), payload.len());
            got += 1;
        }
        writer.join().unwrap();
        server.shutdown();
        assert_eq!(server.dispatched(), SENT);
    }

    #[test]
    fn accept_bound_refuses_excess_connections() {
        struct Echo;
        impl Dispatcher for Echo {
            fn dispatch(&self, request: Bytes) -> Result<Bytes, SidlError> {
                Ok(request)
            }
        }
        let server = MuxServer::bind_with(
            "127.0.0.1:0",
            Arc::new(Echo),
            MuxServerConfig {
                max_connections: 2,
                ..MuxServerConfig::default()
            },
        )
        .unwrap();
        let keep: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        // Wait until both are registered live.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connections_accepted() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Excess dials connect at the TCP level but are refused (closed)
        // without registration.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.rejected_over_capacity() == 0 && Instant::now() < deadline {
            let _ = TcpStream::connect(server.local_addr());
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(server.rejected_over_capacity() > 0);
        assert_eq!(server.connections_accepted(), 2);
        drop(keep);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_all_threads() {
        let (server, _orb) = serve();
        let transport = Arc::new(MuxTransport::new(server.local_addr().to_string()));
        let objref = ObjRef::new("doubler", Arc::clone(&transport) as Arc<dyn Transport>);
        objref
            .invoke("double", vec![DynValue::Double(1.0)])
            .unwrap();
        // accept + event loop + 4 default workers.
        assert_eq!(server.shutdown(), 6);
        assert_eq!(server.shutdown(), 0);
        assert!(objref
            .invoke("double", vec![DynValue::Double(1.0)])
            .is_err());
    }
}
