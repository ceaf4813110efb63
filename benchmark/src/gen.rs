//! The load generator: one thread, a few client sessions, each session
//! one nonblocking connection per replica speaking the public framing
//! (`CLIENT_HELLO`, then `REQUESTS` out and `REPLY` in).
//!
//! Requests go to the view-0 primary; replies are accepted per request by
//! a [`QuorumTracker`] (`f + 1` MAC-verified matching replies). A request
//! outstanding longer than [`RETRY`] is re-sent to every replica, the
//! PBFT client rule. Latency runs from the moment a request was due (open
//! loop) or sent (closed loop) to its quorum, so a stalled generator
//! cannot hide its own delay from the open-loop numbers.

use crate::checks::{Model, OpKind};
use crate::timed::{Recorder, Span};
use crate::workloads::Load;
use bytes::Bytes;
use splitbft_crypto::{client_mac_key, MacKey};
use splitbft_loadgen::QuorumTracker;
use splitbft_net::transport::frame_kind;
use splitbft_types::wire::{decode, encode, frame, FrameAssembler};
use splitbft_types::{ClientId, Reply, Request, RequestId, Timestamp};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Re-send a request to every replica after this long without a quorum.
pub const RETRY: Duration = Duration::from_millis(500);

/// First client id of the generator's sessions.
const CLIENT_BASE: u32 = 1_000;

/// Bytes read from one connection per pass.
const READ_CHUNK: usize = 64 * 1024;

struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    out: Vec<u8>,
    sent: usize,
    alive: bool,
}

impl Conn {
    fn open(addr: SocketAddr, client: ClientId) -> io::Result<Conn> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.write_all(&frame(frame_kind::CLIENT_HELLO, &encode(&client)))?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            asm: FrameAssembler::new(),
            out: Vec::new(),
            sent: 0,
            alive: true,
        })
    }

    /// Writes what the socket takes now; `true` if any byte moved.
    fn flush(&mut self) -> bool {
        let mut moved = false;
        while self.alive && self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => self.alive = false,
                Ok(n) => {
                    self.sent += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.alive = false,
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        moved
    }

    /// Reads what has arrived and appends every decoded reply.
    fn poll(&mut self, replies: &mut Vec<Reply>) -> bool {
        let mut moved = false;
        while self.alive {
            match self.stream.read(self.asm.read_space(READ_CHUNK)) {
                Ok(0) => self.alive = false,
                Ok(n) => {
                    self.asm.commit(n);
                    moved = true;
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.alive = false,
            }
        }
        loop {
            match self.asm.next_frame() {
                Ok(Some(f)) if f.kind == frame_kind::REPLY => match decode::<Reply>(f.payload) {
                    Ok(reply) => replies.push(reply),
                    Err(_) => self.alive = false,
                },
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    self.alive = false;
                    break;
                }
            }
        }
        moved
    }
}

struct Flight {
    request: Request,
    tracker: QuorumTracker,
    kind: OpKind,
    /// Due time (open loop) or send time (closed loop).
    start: Instant,
    last_sent: Instant,
    measured: bool,
}

struct Session {
    client: ClientId,
    mac: MacKey,
    conns: Vec<Conn>,
    next_ts: u64,
    inflight: BTreeMap<u64, Flight>,
    /// Requests issued this pass, sent to the primary as one frame.
    outgoing: Vec<Request>,
    /// Closed loop: when each free slot became free.
    free_since: VecDeque<Instant>,
    /// Open loop: when this session's next request is due.
    next_due: Instant,
}

/// What the generator measured.
#[derive(Debug, Default)]
pub struct GenStats {
    /// Requests whose start fell in the window.
    pub issued: u64,
    /// Of those, completed with a correct result.
    pub completed: u64,
    /// Of those, still without a quorum when the drain ended.
    pub timed_out: u64,
    /// Of those, never sent because no connection was left.
    pub refused: u64,
    /// Of those, completed with a wrong result.
    pub errored: u64,
    /// Completions (of any request) inside the window.
    pub completed_in_window: u64,
    /// The same, per tick as the generator saw the ticks pass.
    pub completed_per_tick: Vec<u64>,
    /// When the generator saw each tick boundary (`ticks + 1` of them).
    pub tick_marks: Vec<Instant>,
    /// Latencies of measured completions, ns, by the tick they started in.
    pub latencies: Vec<Vec<u64>>,
    /// Send minus due (open loop) or send minus slot free (closed), ns.
    pub lag: Vec<u64>,
    /// Re-sends of measured requests.
    pub retransmits: u64,
    /// `REPLY` frames received inside the window.
    pub replies_in_window: u64,
    /// Time spent in `QuorumTracker::on_reply` inside the window, ns
    /// (traced runs only).
    pub quorum_ns: u64,
    /// Requests of any phase whose outcome is unknown (never sent, or
    /// no quorum by the end of the drain).
    pub unknown_outcome: u64,
    /// Correctness violations seen in results.
    pub violations: Vec<String>,
    /// Client spans of measured completions (traced runs only).
    pub spans: Vec<Span>,
}

/// The window is cut into ticks; `Tick(0)` opens it and `Tick(ticks)`
/// closes it.
pub struct Mark(pub usize);

/// The generator.
pub struct Gen {
    sessions: Vec<Session>,
    model: Model,
    quorum: usize,
    stamp: u64,
    /// Measurements so far.
    pub stats: GenStats,
    window: Option<(Instant, Instant)>,
    tick: Duration,
    /// The tick the generator is in, as of the last boundary it saw.
    current_tick: Option<usize>,
    /// Traced runs keep client spans on the recorder's clock.
    recorder: Option<Arc<Recorder>>,
}

impl Gen {
    /// Opens `sessions` sessions against `addrs`.
    pub fn connect(
        addrs: &[SocketAddr],
        sessions: usize,
        cluster_seed: u64,
        quorum: usize,
        model: Model,
        recorder: Option<Arc<Recorder>>,
    ) -> io::Result<Gen> {
        // Wall-clock timestamps, as replicas dedupe by last-seen timestamp.
        let now_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1);
        let sessions = (0..sessions)
            .map(|i| {
                let client = ClientId(CLIENT_BASE + i as u32);
                Ok(Session {
                    client,
                    mac: client_mac_key(cluster_seed, client),
                    conns: addrs
                        .iter()
                        .map(|&a| Conn::open(a, client))
                        .collect::<io::Result<_>>()?,
                    next_ts: now_us,
                    inflight: BTreeMap::new(),
                    outgoing: Vec::new(),
                    free_since: VecDeque::new(),
                    next_due: Instant::now(),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Gen {
            sessions,
            model,
            quorum,
            stamp: 0,
            stats: GenStats::default(),
            window: None,
            tick: Duration::MAX,
            current_tick: None,
            recorder,
        })
    }

    /// The client model (for the end-of-run checks).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The measurements and the model, once the run is over.
    pub fn finish(self) -> (GenStats, Model) {
        (self.stats, self.model)
    }

    /// Writes every prefill op of a KVS model, `outstanding` per session
    /// at a time, and waits for all of them.
    pub fn prefill(&mut self, keys: u64, outstanding: usize, budget: Duration) -> io::Result<()> {
        let deadline = Instant::now() + budget;
        let mut next_key = 0;
        let mut idle = Idle::default();
        loop {
            let now = Instant::now();
            for s in 0..self.sessions.len() {
                while next_key < keys && self.sessions[s].inflight.len() < outstanding {
                    let stamp = self.next_stamp();
                    let Model::Kvs(kvs) = &mut self.model else {
                        return Err(io::Error::other("prefill needs the KVS model"));
                    };
                    let (op, kind) = kvs.prefill_op(next_key, stamp);
                    next_key += 1;
                    self.push(s, op, kind, now, now);
                }
            }
            let moved = self.pump();
            if next_key == keys && self.sessions.iter().all(|s| s.inflight.is_empty()) {
                break;
            }
            if now >= deadline {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "prefill did not finish",
                ));
            }
            idle.wait(moved, None);
        }
        if let Some(v) = self.stats.violations.first() {
            return Err(io::Error::other(format!("prefill: {v}")));
        }
        self.stats = GenStats::default();
        Ok(())
    }

    /// Offers `load` for `warmup`, then measures `ticks` ticks of
    /// `tick` each, then drains for at most `drain`. `mark` runs at every
    /// tick boundary of the window.
    pub fn run(
        &mut self,
        load: Load,
        warmup: Duration,
        (ticks, tick): (usize, Duration),
        drain: Duration,
        mark: &mut dyn FnMut(Mark),
    ) {
        let begin = Instant::now();
        let start = begin + warmup;
        let end = start + tick * ticks as u32;
        self.window = Some((start, end));
        self.tick = tick;
        self.stats.completed_per_tick = vec![0; ticks];
        self.stats.latencies = vec![Vec::new(); ticks];
        let hard_stop = end + drain;
        let sessions = self.sessions.len();
        match load {
            Load::Closed { outstanding } => {
                for s in &mut self.sessions {
                    s.free_since = std::iter::repeat_n(begin, outstanding).collect();
                }
            }
            Load::Open { rate } => {
                // Stagger the sessions so the aggregate stream is even.
                for (i, s) in self.sessions.iter_mut().enumerate() {
                    s.next_due = begin + Duration::from_secs_f64(i as f64 / rate);
                }
            }
        }
        let mut marked = 0;
        let mut idle = Idle::default();
        loop {
            let now = Instant::now();
            while marked <= ticks && now >= start + tick * marked as u32 {
                self.mark_tick(marked, ticks, mark);
                marked += 1;
            }
            let mut next_due = None;
            if now < end {
                for s in 0..sessions {
                    match load {
                        Load::Closed { .. } => {
                            while let Some(free) = self.sessions[s].free_since.pop_front() {
                                let (op, kind) = self.next_op();
                                self.push(s, op, kind, now, free);
                            }
                        }
                        Load::Open { rate } => {
                            let period = Duration::from_secs_f64(sessions as f64 / rate);
                            while self.sessions[s].next_due <= now
                                && self.sessions[s].next_due < end
                            {
                                let due = self.sessions[s].next_due;
                                self.sessions[s].next_due += period;
                                let (op, kind) = self.next_op();
                                self.push(s, op, kind, due, due);
                            }
                            let due = self.sessions[s].next_due;
                            next_due = Some(next_due.map_or(due, |d: Instant| d.min(due)));
                        }
                    }
                }
            }
            let moved = self.pump();
            let empty = self.sessions.iter().all(|s| s.inflight.is_empty());
            if now >= end && empty {
                break;
            }
            if now >= hard_stop {
                self.abandon_all();
                break;
            }
            idle.wait(moved, next_due);
        }
        while marked <= ticks {
            self.mark_tick(marked, ticks, mark);
            marked += 1;
        }
    }

    fn mark_tick(&mut self, tick: usize, ticks: usize, mark: &mut dyn FnMut(Mark)) {
        self.stats.tick_marks.push(Instant::now());
        self.current_tick = (tick < ticks).then_some(tick);
        mark(Mark(tick));
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn next_op(&mut self) -> (Bytes, OpKind) {
        let stamp = self.next_stamp();
        self.model.next_op(stamp)
    }

    /// The tick of the window `t` falls in, if any.
    fn tick_of(&self, t: Instant) -> Option<usize> {
        let (start, end) = self.window?;
        (t >= start && t < end).then(|| {
            let tick = (t - start).as_nanos() / self.tick.as_nanos().max(1);
            (tick as usize).min(self.stats.latencies.len().saturating_sub(1))
        })
    }

    /// Issues one request on session `s`. `start` is when it was due (or
    /// sent); `free` is when it could first have gone out.
    fn push(&mut self, s: usize, op: Bytes, kind: OpKind, start: Instant, free: Instant) {
        let measured = self.tick_of(start).is_some();
        let now = Instant::now();
        if measured {
            self.stats.issued += 1;
            self.stats
                .lag
                .push(now.saturating_duration_since(free).as_nanos() as u64);
        }
        let session = &mut self.sessions[s];
        let id = RequestId {
            client: session.client,
            timestamp: Timestamp(session.next_ts),
        };
        session.next_ts += 1;
        let auth = session.mac.tag(&Request::auth_bytes(id, &op, false));
        let request = Request {
            id,
            op,
            encrypted: false,
            auth,
        };
        session.outgoing.push(request.clone());
        let tracker = QuorumTracker::new(session.mac.clone(), self.quorum);
        session.inflight.insert(
            id.timestamp.0,
            Flight {
                request,
                tracker,
                kind,
                start,
                last_sent: now,
                measured,
            },
        );
    }

    /// One pass of I/O: send what was issued, read replies, complete
    /// requests, re-send stragglers. `true` if anything moved.
    fn pump(&mut self) -> bool {
        let mut moved = false;
        let mut replies = Vec::new();
        for s in 0..self.sessions.len() {
            self.send_outgoing(s);
            let session = &mut self.sessions[s];
            for conn in &mut session.conns {
                moved |= conn.flush();
            }
            replies.clear();
            for conn in &mut session.conns {
                moved |= conn.poll(&mut replies);
            }
            let now = Instant::now();
            if self.current_tick.is_some() {
                self.stats.replies_in_window += replies.len() as u64;
            }
            for reply in &replies {
                self.on_reply(s, reply, now);
            }
            self.retransmit(s, now);
        }
        moved
    }

    fn send_outgoing(&mut self, s: usize) {
        let session = &mut self.sessions[s];
        if session.outgoing.is_empty() {
            return;
        }
        let framed = frame(frame_kind::REQUESTS, &encode(&session.outgoing));
        session.outgoing.clear();
        if session.conns[0].alive {
            session.conns[0].out.extend_from_slice(&framed);
            return;
        }
        // The primary's connection is gone: hand the batch to everyone
        // left, whose backups relay it; with nobody left it is refused.
        let mut delivered = false;
        for conn in session.conns.iter_mut().filter(|c| c.alive) {
            conn.out.extend_from_slice(&framed);
            delivered = true;
        }
        if !delivered {
            let flights = std::mem::take(&mut session.inflight);
            for flight in flights.into_values() {
                self.stats.unknown_outcome += 1;
                if flight.measured {
                    self.stats.refused += 1;
                }
                self.model.on_abandon(&flight.kind);
            }
        }
    }

    fn on_reply(&mut self, s: usize, reply: &Reply, now: Instant) {
        let done_tick = self.current_tick;
        let session = &mut self.sessions[s];
        if reply.request.client != session.client {
            return;
        }
        let Some(flight) = session.inflight.get_mut(&reply.request.timestamp.0) else {
            return; // a late reply to a request already complete
        };
        let t0 = (self.recorder.is_some() && done_tick.is_some()).then(Instant::now);
        let agreed = flight.tracker.on_reply(reply);
        if let Some(t0) = t0 {
            self.stats.quorum_ns += t0.elapsed().as_nanos() as u64;
        }
        let Some(result) = agreed else { return };
        let flight = session
            .inflight
            .remove(&reply.request.timestamp.0)
            .expect("looked up above");
        session.free_since.push_back(now);
        if let Some(tick) = done_tick {
            self.stats.completed_in_window += 1;
            self.stats.completed_per_tick[tick] += 1;
        }
        let verdict = self.model.on_complete(&flight.kind, &result);
        if let Err(violation) = verdict {
            self.stats.violations.push(violation);
            if flight.measured {
                self.stats.errored += 1;
            }
            return;
        }
        let Some(start_tick) = self.tick_of(flight.start).filter(|_| flight.measured) else {
            return;
        };
        self.stats.completed += 1;
        self.stats.latencies[start_tick]
            .push(now.saturating_duration_since(flight.start).as_nanos() as u64);
        if let Some(recorder) = &self.recorder {
            let id = flight.request.id;
            self.stats.spans.push(Span {
                name: "loadgen.request",
                replica: None,
                id: (1 << 63) | self.stats.spans.len() as u64,
                parent: 0,
                start: recorder.ns(flight.start),
                end: recorder.ns(now),
                request: Some((id.client.0, id.timestamp.0)),
            });
        }
    }

    fn retransmit(&mut self, s: usize, now: Instant) {
        let session = &mut self.sessions[s];
        let mut resend = Vec::new();
        for flight in session.inflight.values_mut() {
            if now.saturating_duration_since(flight.last_sent) >= RETRY {
                flight.last_sent = now;
                if flight.measured {
                    self.stats.retransmits += 1;
                }
                resend.push(flight.request.clone());
            }
        }
        if resend.is_empty() {
            return;
        }
        let framed = frame(frame_kind::REQUESTS, &encode(&resend));
        for conn in session.conns.iter_mut().filter(|c| c.alive) {
            conn.out.extend_from_slice(&framed);
        }
    }

    fn abandon_all(&mut self) {
        for session in &mut self.sessions {
            for flight in std::mem::take(&mut session.inflight).into_values() {
                self.stats.unknown_outcome += 1;
                if flight.measured {
                    self.stats.timed_out += 1;
                }
                self.model.on_abandon(&flight.kind);
            }
        }
    }
}

/// Backoff while nothing moves: yield a few times, then sleep briefly,
/// never past the next due request.
#[derive(Default)]
struct Idle {
    passes: u32,
}

impl Idle {
    fn wait(&mut self, moved: bool, next_due: Option<Instant>) {
        if moved {
            self.passes = 0;
            return;
        }
        self.passes += 1;
        if self.passes < 8 {
            std::thread::yield_now();
            return;
        }
        let mut nap = Duration::from_micros(50);
        if let Some(due) = next_due {
            nap = nap.min(due.saturating_duration_since(Instant::now()));
        }
        if !nap.is_zero() {
            std::thread::sleep(nap);
        }
    }
}
