//! The evented socket backend: one readiness loop per node over
//! nonblocking sockets.
//!
//! The blocking backend ([`crate::tcp`]) spends a thread per inbound
//! connection, a writer thread per peer link, and a writer thread per
//! client — fine at 4 replicas and a handful of clients, but a bench
//! driving dozens of pipelined clients oversubscribes the host with
//! runnable threads and pays a context switch plus a per-frame `Vec`
//! allocation for every message. This backend runs each node as a
//! **single thread** that polls nonblocking sockets in a round-robin
//! readiness loop:
//!
//! ```text
//!        ┌───────────────────────────── node thread ──────────────────────────────┐
//!        │  accept ──► read (16 KiB chunks ──► FrameAssembler ──► borrowed frame  │
//!        │     ▲        views, decoded in place — no per-frame Vec)               │
//!        │     │                          │                                       │
//!        │  listener                      ▼                                       │
//!        │              Host::handle (protocol core, one drain batch)             │
//!        │                                │                                       │
//!        │                                ▼                                       │
//!        │  write ◄── per-peer FrameRing (bounded, refuse-don't-evict)            │
//!        │            per-client FrameRing for replies — no writer threads        │
//!        └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The build environment has no async reactor and `std` exposes no
//! `epoll`/`poll` wrapper (and this crate forbids `unsafe`), so
//! readiness is discovered by attempting the nonblocking syscall and
//! treating `WouldBlock` as "not ready" — with an adaptive idle backoff
//! (50 µs doubling to 1 ms) so an idle node costs ~zero CPU while a
//! loaded node never sleeps. The throughput win comes from what the
//! loop *amortizes*: one large read feeds many frames, decoded as
//! borrowed slices out of the [`FrameAssembler`]; outputs coalesce into
//! one staged write per link per pass; and the whole pass shares a
//! single `flush_durable` group-commit point. Wire format, handshake,
//! state transfer, and `FAULT_CONTROL` gating are byte-identical to the
//! blocking backend — the two interoperate freely.

use crate::fault::{FaultDecision, FaultPlan};
use crate::host::{ClientSink, Event, Gauges, Host, PeerSink, MAX_DRAIN_BATCH};
use crate::ring::FrameRing;
use crate::tcp::TcpNodeConfig;
use crate::transport::{frame_kind, write_value, BatchPolicy, Protocol};
use splitbft_obs::NodeTelemetry;
use splitbft_types::status::{StatusEvent, StatusRequest, StatusResponse, StatusVerb};
use splitbft_types::wire::{decode, encode, frame, FrameAssembler};
use splitbft_types::{
    ClientId, FaultCommand, ReplicaId, Reply, StateTransferRequest, StateTransferResponse,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bytes pulled from one connection per loop pass: large enough to
/// carry dozens of frames per syscall under load, small enough that one
/// flooding connection cannot starve the others (each gets one bounded
/// read per pass). Every connection's reassembly buffer stays resident
/// at about this size or twice it, so it is kept modest.
const READ_CHUNK: usize = 16 * 1024;

/// Per-peer outbound ring bounds. Generous — the ring replaces an
/// unbounded channel, so the cap only bites when a peer is down or
/// drastically slower than the protocol produces; then frames are
/// refused (counted, never evicted), which the at-most-once transport
/// contract already tolerates.
const PEER_RING_FRAMES: usize = 16 * 1024;
const PEER_RING_BYTES: usize = 16 * 1024 * 1024;

/// Per-client reply ring bounds (mirrors the blocking backend's
/// 1024-reply writer queue): a client that stops draining replies loses
/// the overflow instead of stalling the node.
const CLIENT_RING_FRAMES: usize = 1024;
const CLIENT_RING_BYTES: usize = 4 * 1024 * 1024;

/// Outbound connect attempt budget. Localhost connects resolve
/// immediately (accept or RST); the timeout only caps a SYN into a
/// blackhole so one dead peer cannot stall the loop.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);

/// Reconnect backoff for outbound peer links (same window as the
/// blocking backend's outbox workers).
const RECONNECT_MIN: Duration = Duration::from_millis(10);
const RECONNECT_MAX: Duration = Duration::from_millis(500);

/// Adaptive idle backoff: reset to `IDLE_MIN` on any activity, doubled
/// up to `IDLE_MAX` while nothing is readable/writable.
const IDLE_MIN: Duration = Duration::from_micros(50);
const IDLE_MAX: Duration = Duration::from_millis(1);

/// A bound-but-not-yet-started evented node (the counterpart of
/// [`crate::tcp::BoundTcpNode`]): the listener exists so its ephemeral
/// port is known, but the loop thread is not running yet.
#[derive(Debug)]
pub struct BoundEventedNode {
    id: ReplicaId,
    listener: TcpListener,
}

impl BoundEventedNode {
    /// The address the listener actually bound (resolved port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// This node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Starts the node's loop thread around `protocol`. `config.listen`
    /// is ignored (the listener is already bound).
    pub fn start<P: Protocol>(
        self,
        config: TcpNodeConfig,
        protocol: P,
    ) -> io::Result<EventedNode> {
        EventedNode::start_bound(self.listener, config, protocol)
    }
}

/// A running replica served by the evented readiness loop. Same
/// observable surface as [`crate::tcp::TcpNode`]; clients and peers
/// cannot tell the two apart on the wire.
pub struct EventedNode {
    id: ReplicaId,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    progress: Arc<AtomicU64>,
    fsyncs: Arc<AtomicU64>,
    shard_gauges: Arc<Mutex<(Vec<u64>, Vec<u64>)>>,
    telemetry: Arc<NodeTelemetry>,
}

impl std::fmt::Debug for EventedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventedNode")
            .field("id", &self.id)
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl EventedNode {
    /// Reserves a listener for replica `id` without starting anything.
    pub fn bind(id: ReplicaId, listen: SocketAddr) -> io::Result<BoundEventedNode> {
        Ok(BoundEventedNode { id, listener: TcpListener::bind(listen)? })
    }

    /// Binds the listener and starts the loop thread around `protocol`.
    pub fn spawn<P: Protocol>(config: TcpNodeConfig, protocol: P) -> io::Result<Self> {
        let listener = TcpListener::bind(config.listen)?;
        Self::start_bound(listener, config, protocol)
    }

    fn start_bound<P: Protocol>(
        listener: TcpListener,
        config: TcpNodeConfig,
        protocol: P,
    ) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let telemetry = NodeTelemetry::new(config.id.0);
        let gauges = Gauges::new(Arc::clone(&telemetry));
        let progress = Arc::clone(&gauges.progress);
        let fsyncs = Arc::clone(&gauges.fsyncs);
        let shard_gauges = Arc::clone(&gauges.shards);
        let id = config.id;
        let loop_shutdown = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name(format!("node-{}-evented", id.0))
            .spawn(move || event_loop(listener, config, protocol, loop_shutdown, gauges))
            .expect("spawn evented loop");
        Ok(EventedNode {
            id,
            local_addr,
            shutdown,
            thread: Some(thread),
            progress,
            fsyncs,
            shard_gauges,
            telemetry,
        })
    }

    /// This node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The bound listen address (useful with port 0 configs).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The hosted protocol's latest `progress()` value, as observed
    /// after the most recent drain batch. Safe to poll from any thread.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::SeqCst)
    }

    /// The hosted protocol's latest `durable_fsyncs()` value (`0` for
    /// non-durable protocols). Safe to poll from any thread.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::SeqCst)
    }

    /// Per-shard breakdown of [`EventedNode::progress`] (a single entry
    /// for unsharded protocols; empty until the first drain batch).
    pub fn shard_progress(&self) -> Vec<u64> {
        self.shard_gauges.lock().expect("shard gauges").0.clone()
    }

    /// Per-shard breakdown of [`EventedNode::fsyncs`].
    pub fn shard_fsyncs(&self) -> Vec<u64> {
        self.shard_gauges.lock().expect("shard gauges").1.clone()
    }

    /// This node's telemetry hub — counters, gauges, and the event
    /// journal the `STATUS` frame and the metrics endpoint serve.
    pub fn telemetry(&self) -> Arc<NodeTelemetry> {
        Arc::clone(&self.telemetry)
    }

    /// Starts a graceful drain: new client requests are refused, and
    /// once nothing is pending the loop seals a checkpoint and flushes
    /// the WAL. Poll `telemetry().drained()`, then call
    /// [`EventedNode::shutdown`]. Idempotent.
    pub fn request_drain(&self) {
        // The loop polls the draining flag every pass and feeds itself
        // `Event::Drain` batches until the seal lands — no channel
        // needed.
        self.telemetry.request_drain();
    }

    /// Stops the loop thread and joins it; every connection closes with
    /// it. The loop never blocks for more than its idle backoff, so no
    /// wake-up connection is needed.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A connection's authenticated-by-hello identity (the same
/// unauthenticated trust boundary as the blocking backend: protocol
/// payloads carry their own signatures/MACs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Identity {
    /// No hello seen yet; only hello frames are legal.
    Unknown,
    /// A replica connection, pinned to the hello-claimed id.
    Peer(ReplicaId),
    /// A client connection; replies route back here.
    Client(ClientId),
}

/// One inbound connection: its nonblocking socket, reassembly buffer,
/// identity, and (for clients) the bounded reply ring the loop drains.
struct Conn {
    stream: TcpStream,
    assembler: FrameAssembler,
    identity: Identity,
    out: FrameRing,
    staged: Vec<u8>,
    staged_pos: usize,
    dead: bool,
    /// Close once the out ring and staged batch drain — used to deliver
    /// a final frame (e.g. [`StatusResponse::Refused`]) before the
    /// connection dies, mirroring the blocking backend's writer thread
    /// draining its queue on exit.
    close_when_drained: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            assembler: FrameAssembler::new(),
            identity: Identity::Unknown,
            out: FrameRing::new(CLIENT_RING_FRAMES, CLIENT_RING_BYTES),
            staged: Vec::new(),
            staged_pos: 0,
            dead: false,
            close_when_drained: false,
        }
    }
}

/// One outbound peer link: bounded ring in, staged coalesced write out,
/// lazy reconnect with backoff. No thread — the loop drains it.
struct OutLink {
    addr: SocketAddr,
    ring: FrameRing,
    conn: Option<TcpStream>,
    /// Whether this link has ever held a connection — distinguishes the
    /// first connect from a reconnect for the telemetry counter.
    ever_connected: bool,
    staged: Vec<u8>,
    staged_pos: usize,
    next_attempt: Instant,
    backoff: Duration,
}

impl OutLink {
    fn new(addr: SocketAddr) -> Self {
        OutLink {
            addr,
            ring: FrameRing::new(PEER_RING_FRAMES, PEER_RING_BYTES),
            conn: None,
            ever_connected: false,
            staged: Vec::new(),
            staged_pos: 0,
            next_attempt: Instant::now(),
            backoff: RECONNECT_MIN,
        }
    }
}

/// The evented backend's [`PeerSink`]: bounded rings toward every other
/// replica, with the node's fault plan consulted on every enqueue and a
/// thread-free delay lane for `DeliverAfter` frames.
struct EventedPeers {
    local: ReplicaId,
    faults: Arc<FaultPlan>,
    telemetry: Arc<NodeTelemetry>,
    links: HashMap<ReplicaId, OutLink>,
    /// Frames held back by a delay rule: `(deadline, destination,
    /// frame)`, released into the destination ring once due — frames
    /// enqueued in the meantime overtake them, producing real
    /// reordering on the wire (same semantics as the blocking outbox's
    /// delay lane).
    delayed: Vec<(Instant, ReplicaId, Arc<Vec<u8>>)>,
}

impl EventedPeers {
    fn enqueue(&mut self, to: ReplicaId, framed: Arc<Vec<u8>>) {
        if !self.links.contains_key(&to) {
            return; // self-send or unknown peer: dropped
        }
        match self.faults.decide(self.local, to) {
            FaultDecision::Deliver => {
                if let Some(link) = self.links.get_mut(&to) {
                    if !link.ring.push(framed) {
                        self.telemetry.ring_refusals.inc();
                    }
                }
            }
            FaultDecision::Drop => {}
            FaultDecision::Duplicate => {
                if let Some(link) = self.links.get_mut(&to) {
                    if !link.ring.push(Arc::clone(&framed)) {
                        self.telemetry.ring_refusals.inc();
                    }
                    if !link.ring.push(framed) {
                        self.telemetry.ring_refusals.inc();
                    }
                }
            }
            FaultDecision::DeliverAfter(delay) => {
                self.delayed.push((Instant::now() + delay, to, framed));
            }
        }
    }

    /// Moves every due delayed frame into its destination ring.
    fn release_due(&mut self, now: Instant) -> bool {
        let mut any = false;
        let mut index = 0;
        while index < self.delayed.len() {
            if self.delayed[index].0 <= now {
                let (_, to, framed) = self.delayed.remove(index);
                if let Some(link) = self.links.get_mut(&to) {
                    if !link.ring.push(framed) {
                        self.telemetry.ring_refusals.inc();
                    }
                }
                any = true;
            } else {
                index += 1;
            }
        }
        any
    }
}

impl PeerSink for EventedPeers {
    fn broadcast_frame(&mut self, framed: Arc<Vec<u8>>) {
        let peers: Vec<ReplicaId> = self.links.keys().copied().collect();
        for to in peers {
            self.enqueue(to, Arc::clone(&framed));
        }
    }

    fn send_frame(&mut self, to: ReplicaId, framed: Arc<Vec<u8>>) {
        self.enqueue(to, framed);
    }

    fn is_peer(&self, id: ReplicaId) -> bool {
        self.links.contains_key(&id)
    }
}

/// The evented backend's [`ClientSink`]: frames each reply onto the
/// client connection's bounded ring; the loop's write phase drains it.
struct EventedClients<'a> {
    conns: &'a mut Vec<Option<Conn>>,
    index: &'a HashMap<ClientId, usize>,
    telemetry: &'a NodeTelemetry,
}

impl ClientSink for EventedClients<'_> {
    fn reply(&mut self, to: ClientId, reply: Reply) {
        let Some(&slot) = self.index.get(&to) else { return };
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        // A full ring refuses the frame: at-most-once reply delivery,
        // the client's retry logic recovers (same as the blocking
        // backend's bounded writer queue).
        if !conn.out.push(Arc::new(frame(frame_kind::REPLY, &encode(&reply)))) {
            self.telemetry.ring_refusals.inc();
        }
    }
}

/// What one decoded frame means for the drive loop.
enum Parsed<M> {
    Event(Event<M>),
    PeerHello(ReplicaId),
    ClientHello(ClientId),
    /// A STATUS request: answered inline by `drain_conn`, which owns
    /// the connection's reply ring and the telemetry hub.
    Status(StatusRequest),
    /// A fault command was applied; `drain_conn` journals the event.
    Fault,
    Skip,
    Close,
}

/// Classifies one frame exactly like the blocking backend's
/// `read_connection`: hellos first, state-transfer frames pinned to the
/// hello identity, `FAULT_CONTROL` honored only with fault injection
/// enabled (and applied immediately, never through the protocol core),
/// unknown kinds tolerated.
fn parse<P: Protocol>(
    kind: u8,
    payload: &[u8],
    identity: Identity,
    faults: &FaultPlan,
    fault_injection: bool,
) -> Parsed<P::Message> {
    if identity == Identity::Unknown {
        return match kind {
            frame_kind::PEER_HELLO => match decode::<ReplicaId>(payload) {
                Ok(id) => Parsed::PeerHello(id),
                Err(_) => Parsed::Close,
            },
            frame_kind::CLIENT_HELLO => match decode::<ClientId>(payload) {
                Ok(id) => Parsed::ClientHello(id),
                Err(_) => Parsed::Close,
            },
            _ => Parsed::Close, // connection opened with a non-hello frame
        };
    }
    match kind {
        frame_kind::PROTOCOL => match decode::<P::Message>(payload) {
            Ok(msg) => Parsed::Event(Event::Peer(msg)),
            Err(_) => Parsed::Close,
        },
        frame_kind::REQUESTS => match decode(payload) {
            Ok(requests) => Parsed::Event(Event::Requests(requests)),
            Err(_) => Parsed::Close,
        },
        frame_kind::STATE_REQUEST => match decode::<StateTransferRequest>(payload) {
            // Peer connections only, and the requester must be who the
            // connection claims to be.
            Ok(req) if identity == Identity::Peer(req.replica) => {
                Parsed::Event(Event::StateRequest(req))
            }
            Ok(_) => Parsed::Skip,
            Err(_) => Parsed::Close,
        },
        frame_kind::STATE_RESPONSE => match decode::<StateTransferResponse>(payload) {
            Ok(resp) if identity == Identity::Peer(resp.replica) => {
                Parsed::Event(Event::StateResponse(resp))
            }
            Ok(_) => Parsed::Skip,
            Err(_) => Parsed::Close,
        },
        frame_kind::FAULT_CONTROL => {
            if !fault_injection {
                return Parsed::Close; // unauthenticated: protocol garbage
            }
            match decode::<FaultCommand>(payload) {
                Ok(cmd) => {
                    faults.apply(cmd);
                    Parsed::Fault
                }
                Err(_) => Parsed::Close,
            }
        }
        frame_kind::STATUS => match identity {
            // Client connections only — same stance as the blocking
            // backend (a peer sending STATUS is protocol garbage).
            Identity::Client(_) => match decode::<StatusRequest>(payload) {
                Ok(req) => Parsed::Status(req),
                Err(_) => Parsed::Close,
            },
            _ => Parsed::Close,
        },
        _ => Parsed::Skip, // tolerate unknown kinds from newer peers
    }
}

/// One bounded read + frame drain for one connection. Frames decode as
/// borrowed views straight out of the assembler's buffer — no
/// per-frame allocation between the socket and the typed event.
fn drain_conn<P: Protocol>(
    slot: usize,
    conn: &mut Conn,
    events: &mut Vec<Event<P::Message>>,
    client_index: &mut HashMap<ClientId, usize>,
    faults: &FaultPlan,
    fault_injection: bool,
    status_admin: bool,
    telemetry: &NodeTelemetry,
) -> bool {
    let mut activity = false;
    let space = conn.assembler.read_space(READ_CHUNK);
    match conn.stream.read(space) {
        Ok(0) => {
            conn.assembler.commit(0);
            conn.dead = true;
        }
        Ok(n) => {
            conn.assembler.commit(n);
            telemetry.bytes_in.add(n as u64);
            activity = true;
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) => {
            conn.assembler.commit(0);
        }
        Err(_) => {
            conn.assembler.commit(0);
            conn.dead = true;
        }
    }
    loop {
        let identity = conn.identity;
        let step = match conn.assembler.next_frame() {
            Ok(None) => break,
            Err(_) => Parsed::Close, // framing garbage: magic/length violation
            Ok(Some(view)) => {
                parse::<P>(view.kind, view.payload, identity, faults, fault_injection)
            }
        };
        match step {
            Parsed::Event(event) => {
                events.push(event);
                activity = true;
            }
            Parsed::PeerHello(id) => conn.identity = Identity::Peer(id),
            Parsed::ClientHello(id) => {
                conn.identity = Identity::Client(id);
                // A reconnecting client replaces its own old entry.
                client_index.insert(id, slot);
            }
            Parsed::Status(req) => {
                activity = true;
                let response = match req.verb {
                    StatusVerb::Snapshot => StatusResponse::Snapshot(telemetry.snapshot()),
                    StatusVerb::Events { since } => StatusResponse::Events {
                        head: telemetry.journal.head(),
                        events: telemetry.journal.since(since),
                    },
                    StatusVerb::Drain if status_admin => {
                        // The loop polls the draining flag every pass
                        // and self-feeds `Event::Drain` until the seal
                        // lands — no channel needed here.
                        telemetry.request_drain();
                        StatusResponse::DrainStarted
                    }
                    StatusVerb::Drain => {
                        // Ungated admin verb: answer Refused, then close
                        // once the frame drains (the ungated
                        // fault-control stance, but with an explicit
                        // refusal the caller can decode).
                        conn.out.push(Arc::new(frame(
                            frame_kind::STATUS,
                            &encode(&StatusResponse::Refused),
                        )));
                        conn.close_when_drained = true;
                        break;
                    }
                };
                conn.out.push(Arc::new(frame(frame_kind::STATUS, &encode(&response))));
            }
            Parsed::Fault => {
                telemetry.record_event(StatusEvent::FaultPlanApplied);
            }
            Parsed::Skip => {}
            Parsed::Close => {
                conn.dead = true;
                break;
            }
        }
    }
    activity
}

/// Connects to a peer and performs the `PEER_HELLO` handshake (written
/// while still blocking — it is 15 bytes), then flips to nonblocking.
fn connect_with_hello(local: ReplicaId, addr: SocketAddr) -> Option<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
    let _ = stream.set_nodelay(true);
    write_value(&mut stream, frame_kind::PEER_HELLO, &local).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

/// Restages queued frames into one contiguous write buffer (one
/// syscall's worth of coalescing, bounded by the batch policy).
fn restage(staged: &mut Vec<u8>, staged_pos: &mut usize, ring: &mut FrameRing, policy: BatchPolicy) {
    if *staged_pos < staged.len() || ring.is_empty() {
        return; // previous batch still in flight, or nothing queued
    }
    staged.clear();
    *staged_pos = 0;
    let mut frames = 0;
    while frames < policy.max_frames && staged.len() < policy.max_bytes {
        match ring.pop() {
            Some(framed) => {
                staged.extend_from_slice(&framed);
                frames += 1;
            }
            None => break,
        }
    }
}

/// Pushes one link's staged bytes into its socket, (re)connecting as
/// needed. A write error drops the connection *and the staged batch* —
/// resuming a half-written batch on a fresh connection would desync the
/// peer's frame stream, and the at-most-once contract already covers
/// the loss (same stance as the blocking outbox, which drops a batch
/// after one failed reconnect cycle).
fn flush_link(
    local: ReplicaId,
    link: &mut OutLink,
    policy: BatchPolicy,
    now: Instant,
    telemetry: &NodeTelemetry,
) -> bool {
    restage(&mut link.staged, &mut link.staged_pos, &mut link.ring, policy);
    if link.staged_pos >= link.staged.len() {
        return false;
    }
    if link.conn.is_none() {
        if now < link.next_attempt {
            return false;
        }
        match connect_with_hello(local, link.addr) {
            Some(stream) => {
                if link.ever_connected {
                    telemetry.reconnects.add(1);
                }
                link.ever_connected = true;
                link.conn = Some(stream);
                link.backoff = RECONNECT_MIN;
            }
            None => {
                link.next_attempt = now + link.backoff;
                link.backoff = (link.backoff * 2).min(RECONNECT_MAX);
                return false;
            }
        }
    }
    let Some(stream) = link.conn.as_mut() else { return false };
    let mut wrote = false;
    loop {
        match stream.write(&link.staged[link.staged_pos..]) {
            Ok(0) => {
                link.conn = None;
                link.staged_pos = link.staged.len();
                break;
            }
            Ok(n) => {
                link.staged_pos += n;
                telemetry.bytes_out.add(n as u64);
                wrote = true;
                if link.staged_pos >= link.staged.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                link.conn = None;
                link.staged_pos = link.staged.len();
                break;
            }
        }
    }
    wrote
}

/// Drains one client connection's reply ring into its socket.
fn flush_conn(conn: &mut Conn, policy: BatchPolicy) -> bool {
    restage(&mut conn.staged, &mut conn.staged_pos, &mut conn.out, policy);
    if conn.staged_pos >= conn.staged.len() {
        return false;
    }
    let mut wrote = false;
    loop {
        match conn.stream.write(&conn.staged[conn.staged_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.staged_pos += n;
                wrote = true;
                if conn.staged_pos >= conn.staged.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    wrote
}

fn event_loop<P: Protocol>(
    listener: TcpListener,
    config: TcpNodeConfig,
    protocol: P,
    shutdown: Arc<AtomicBool>,
    gauges: Gauges,
) {
    let id = config.id;
    let telemetry = Arc::clone(&gauges.telemetry);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut client_index: HashMap<ClientId, usize> = HashMap::new();
    let mut peers = EventedPeers {
        local: id,
        faults: Arc::clone(&config.faults),
        telemetry: Arc::clone(&telemetry),
        links: config
            .peers
            .iter()
            .filter(|p| p.id != id)
            .map(|p| (p.id, OutLink::new(p.addr)))
            .collect(),
        delayed: Vec::new(),
    };
    let mut host = Host::new(id, protocol, config.recovery, gauges, &mut peers);

    let mut next_tick = config.timeout_every.map(|period| Instant::now() + period);
    let mut events: Vec<Event<P::Message>> = Vec::new();
    let mut batch_outputs = Vec::new();
    let mut batch_events = 0usize;
    let mut batch_deadline: Option<Instant> = None;
    let mut idle = IDLE_MIN;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();
        let mut activity = false;

        // Accept everything pending.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let conn = Conn::new(stream);
                    match conns.iter().position(Option::is_none) {
                        Some(slot) => conns[slot] = Some(conn),
                        None => conns.push(Some(conn)),
                    }
                    activity = true;
                }
                Err(_) => break, // WouldBlock or transient accept error
            }
        }

        // Timer tick.
        if let (Some(tick), Some(period)) = (next_tick, config.timeout_every) {
            if now >= tick {
                events.push(Event::Timeout);
                next_tick = Some(now + period);
            }
        }

        // Read phase: one bounded read per connection, decoded in place.
        for slot in 0..conns.len() {
            if let Some(conn) = conns[slot].as_mut() {
                if !conn.dead
                    && drain_conn::<P>(
                        slot,
                        conn,
                        &mut events,
                        &mut client_index,
                        &config.faults,
                        config.fault_injection,
                        config.status_admin,
                        &telemetry,
                    )
                {
                    activity = true;
                }
            }
        }

        // An active drain self-feeds: force a batch every pass until
        // the epilogue in `finish_batch` seals the checkpoint and marks
        // the node drained.
        if telemetry.draining() && !telemetry.drained() {
            events.push(Event::Drain);
        }

        // Protocol phase: this pass's events join the open drain batch.
        if !events.is_empty() {
            activity = true;
            for event in events.drain(..) {
                batch_outputs.extend(host.handle(event, &mut peers));
                batch_events += 1;
            }
        }
        // Group commit: with no linger every pass flushes; with linger
        // the batch stays open across passes until the deadline or the
        // size cap, sharing one fsync.
        let flush_now = batch_events > 0
            && (config.group_commit.is_zero()
                || batch_events >= MAX_DRAIN_BATCH
                || now >= *batch_deadline.get_or_insert(now + config.group_commit));
        if flush_now {
            telemetry.queue_depth_high_water.record_max(batch_events as u64);
            host.finish_batch(
                std::mem::take(&mut batch_outputs),
                &mut peers,
                &mut EventedClients {
                    conns: &mut conns,
                    index: &client_index,
                    telemetry: &telemetry,
                },
            );
            batch_events = 0;
            batch_deadline = None;
        }

        // Write phase: delayed-fault releases, then peer links, then
        // client reply rings.
        if peers.release_due(now) {
            activity = true;
        }
        for link in peers.links.values_mut() {
            if flush_link(id, link, config.batch, now, &telemetry) {
                activity = true;
            }
        }
        for conn in conns.iter_mut().flatten() {
            if flush_conn(conn, config.batch) {
                activity = true;
            }
        }

        // Reap dead connections (dropping the socket closes it), plus
        // refused-admin connections whose final frame has flushed.
        for slot in 0..conns.len() {
            let reap = conns[slot].as_ref().is_some_and(|c| {
                c.dead
                    || (c.close_when_drained
                        && c.out.is_empty()
                        && c.staged_pos >= c.staged.len())
            });
            if reap {
                let conn = conns[slot].take().expect("checked above");
                if let Identity::Client(client) = conn.identity {
                    // Only our own registration: a reconnected client
                    // already points at a newer slot.
                    if client_index.get(&client) == Some(&slot) {
                        client_index.remove(&client);
                    }
                }
            }
        }

        // Idle backoff, capped so a sleep never overshoots the next
        // timer tick or the open batch's flush deadline.
        if activity {
            idle = IDLE_MIN;
        } else {
            let mut nap = idle;
            for deadline in [next_tick, batch_deadline].into_iter().flatten() {
                nap = nap.min(deadline.saturating_duration_since(now));
            }
            if let Some(next_delay) = peers.delayed.iter().map(|(at, _, _)| *at).min() {
                nap = nap.min(next_delay.saturating_duration_since(now));
            }
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
            idle = (idle * 2).min(IDLE_MAX);
        }
    }

    // Close out the open batch so durable state hits its fsync before
    // the node disappears.
    if batch_events > 0 {
        host.finish_batch(
            std::mem::take(&mut batch_outputs),
            &mut peers,
            &mut EventedClients {
                conns: &mut conns,
                index: &client_index,
                telemetry: &telemetry,
            },
        );
    }
}
