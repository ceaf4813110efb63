//! Tracing from outside the program: a [`Timed`] wrapper around any
//! hosted protocol, and the [`Recorder`] its spans and counts land in.
//!
//! `Timed<P>` implements [`Protocol`] by forwarding every trait method to
//! `P`. The work methods are timed; the probes (`progress`, `wal_bytes`,
//! ...) are forwarded untouched. Stacking two wrappers,
//! `Timed<DurableProtocol<Timed<replica>>>`, splits a durable replica's
//! time into the protocol's own time (inner wrapper) and the store's self
//! time (outer minus inner).
//!
//! Each wrapper keeps its log privately on its node thread and hands it to
//! the recorder when the node drops the protocol at shutdown, so tracing
//! takes no lock on the hot path. Spans and per-call timings are kept only
//! while the recorder's phase is [`Phase::Measure`]; cumulative counters
//! (the enclave hosts' [`TransitionStats`]) are snapshotted at the first
//! call after each phase change, so per-request ratios cover the
//! measurement window only.

use splitbft_core::SplitBftReplica;
use splitbft_net::transport::{Protocol, ProtocolOutput};
use splitbft_tee::host::TransitionStats;
use splitbft_types::{
    CompartmentKind, ConsensusMessage, DurableCheckpoint, DurableEvent, ProtocolError, Request,
    SeqNum,
};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where the run is; only [`Phase::Measure`] calls are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up and warm-up.
    Setup = 0,
    /// The measurement window.
    Measure = 1,
    /// Drain and checks.
    Done = 2,
}

/// One traced interval. Times are nanoseconds since the recorder's epoch;
/// `parent` is 0 for a root span. Client spans carry the request id.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `core.on_message` or `loadgen.request`.
    pub name: &'static str,
    /// Replica id, or `None` for client spans.
    pub replica: Option<u32>,
    /// Span id (unique within a run).
    pub id: u64,
    /// Enclosing span id, 0 for none.
    pub parent: u64,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// `(client, timestamp)` of the request a client span covers.
    pub request: Option<(u32, u64)>,
}

/// Cumulative enclave-host counters of the three compartments.
pub type Counters = [TransitionStats; 3];

/// Everything one wrapper measured.
#[derive(Debug, Default)]
pub struct LayerLog {
    /// `core`, `pbft` or `store`.
    pub layer: &'static str,
    /// The replica the wrapper sat in.
    pub replica: u32,
    /// Per-method call durations (ns) inside the window.
    pub calls: Vec<(&'static str, Vec<u64>)>,
    /// Total timed ns inside the window.
    pub busy_ns: u64,
    /// Spans inside the window (capped at [`SPAN_CAP`] per wrapper).
    pub spans: Vec<Span>,
    /// Spans dropped by the cap.
    pub spans_dropped: u64,
    /// Counter snapshots at the start and end of the window.
    pub counters: [Option<Counters>; 2],
    /// Frames the protocol asked to send (peer messages and replies).
    pub msgs_out: u64,
    /// `(batches, requests)` handed to `on_client_requests`.
    pub admission: (u64, u64),
    /// `(pre-prepares, requests)` broadcast by this replica.
    pub preprepares: (u64, u64),
    /// Checkpoint snapshot bytes put on the wire (all recipients).
    pub checkpoint_bytes: u64,
    /// Size of the last checkpoint snapshot seen.
    pub last_snapshot_bytes: u64,
    /// Durations (ns) of `flush_durable` calls that performed an fsync.
    pub fsync_flushes: Vec<u64>,
    /// WAL growth (sum of positive `wal_bytes` deltas across calls).
    pub wal_growth: u64,
}

/// Per-wrapper span cap, so a long traced run cannot grow without bound.
pub const SPAN_CAP: usize = 150_000;

/// Shared sink of every wrapper's log, plus the phase switch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    phase: AtomicU8,
    logs: Mutex<Vec<LayerLog>>,
}

impl Recorder {
    /// A recorder in [`Phase::Setup`].
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            phase: AtomicU8::new(Phase::Setup as u8),
            logs: Mutex::new(Vec::new()),
        })
    }

    /// Switches the phase every wrapper sees on its next call.
    pub fn set_phase(&self, phase: Phase) {
        // Publishes nothing but itself: the logs travel through the mutex.
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    fn phase(&self) -> u8 {
        self.phase.load(Ordering::Relaxed)
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Takes every log handed in so far (wrappers hand in at drop).
    pub fn take_logs(&self) -> Vec<LayerLog> {
        std::mem::take(
            &mut *self
                .logs
                .lock()
                .expect("recorder lock poisoned by a node panic"),
        )
    }
}

thread_local! {
    /// Id of the span currently open on this thread, for parent links.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Reads a protocol's cumulative layer counters.
pub type CounterFn<P> = fn(&P) -> Counters;

/// The enclave hosts' counters of a SplitBFT replica.
pub fn splitbft_counters<A: splitbft_app::Application>(r: &SplitBftReplica<A>) -> Counters {
    [
        r.stats(CompartmentKind::Preparation),
        r.stats(CompartmentKind::Confirmation),
        r.stats(CompartmentKind::Execution),
    ]
}

/// The timing wrapper. See the module docs.
pub struct Timed<P: Protocol<Message = ConsensusMessage>> {
    inner: P,
    recorder: Arc<Recorder>,
    counters: Option<CounterFn<P>>,
    /// Cluster size, for counting broadcast recipients.
    n: u64,
    /// Whether this wrapper sits directly on the replica (and so reads
    /// its outputs) rather than on the store.
    observe_outputs: bool,
    span_base: u64,
    state: RefCell<State>,
}

struct State {
    log: LayerLog,
    seen_phase: u8,
    next_span: u64,
}

impl<P: Protocol<Message = ConsensusMessage>> Timed<P> {
    /// Wraps `inner`, the `layer` of replica `replica` in an `n`-replica
    /// cluster. `observe_outputs` marks the wrapper that sits directly on
    /// the replica; `counters` reads its enclave counters, if any.
    pub fn new(
        inner: P,
        layer: &'static str,
        replica: u32,
        n: usize,
        recorder: Arc<Recorder>,
        observe_outputs: bool,
        counters: Option<CounterFn<P>>,
    ) -> Self {
        // Span ids: replica and layer in the high bits keep them unique
        // across wrappers without a shared counter.
        let layer_bit = u64::from(observe_outputs);
        Timed {
            inner,
            recorder,
            counters,
            n: n as u64,
            observe_outputs,
            span_base: ((u64::from(replica) + 1) << 48) | (layer_bit << 47),
            state: RefCell::new(State {
                log: LayerLog {
                    layer,
                    replica,
                    ..LayerLog::default()
                },
                seen_phase: Phase::Setup as u8,
                next_span: 1,
            }),
        }
    }

    /// Notices a phase change and snapshots the counters at it.
    fn observe_phase(&self) -> bool {
        let phase = self.recorder.phase();
        let mut state = self.state.borrow_mut();
        if phase != state.seen_phase {
            state.seen_phase = phase;
            if let Some(read) = self.counters {
                let slot = if phase == Phase::Measure as u8 { 0 } else { 1 };
                if state.log.counters[slot].is_none() {
                    state.log.counters[slot] = Some(read(&self.inner));
                }
            }
        }
        phase == Phase::Measure as u8
    }

    fn open_span(&self) -> (u64, u64, Instant) {
        let mut state = self.state.borrow_mut();
        let id = self.span_base | state.next_span;
        state.next_span += 1;
        let parent = CURRENT_SPAN.with(|c| c.replace(id));
        (id, parent, Instant::now())
    }

    fn close_span(&self, name: &'static str, (id, parent, start): (u64, u64, Instant)) -> u64 {
        let end = Instant::now();
        CURRENT_SPAN.with(|c| c.set(parent));
        let ns = end.duration_since(start).as_nanos() as u64;
        let mut state = self.state.borrow_mut();
        let log = &mut state.log;
        log.busy_ns += ns;
        match log.calls.iter_mut().find(|(n, _)| *n == name) {
            Some((_, durations)) => durations.push(ns),
            None => log.calls.push((name, vec![ns])),
        }
        if log.spans.len() < SPAN_CAP {
            let replica = Some(log.replica);
            log.spans.push(Span {
                name,
                replica,
                id,
                parent,
                start: self.recorder.ns(start),
                end: self.recorder.ns(end),
                request: None,
            });
        } else {
            log.spans_dropped += 1;
        }
        ns
    }

    /// Runs `f` on the inner protocol, timed as `name` inside the window.
    fn timed<R>(&self, name: &'static str, f: impl FnOnce(&P) -> R) -> R {
        if !self.observe_phase() {
            return f(&self.inner);
        }
        let wal_before = self.inner.wal_bytes();
        let span = self.open_span();
        let out = f(&self.inner);
        self.close_span(name, span);
        self.note_wal(wal_before);
        out
    }

    /// Like [`Timed::timed`] for `&mut` methods; returns the call's ns.
    fn timed_mut<R>(&mut self, name: &'static str, f: impl FnOnce(&mut P) -> R) -> (R, u64) {
        if !self.observe_phase() {
            return (f(&mut self.inner), 0);
        }
        let wal_before = self.inner.wal_bytes();
        let span = self.open_span();
        let out = f(&mut self.inner);
        let ns = self.close_span(name, span);
        self.note_wal(wal_before);
        (out, ns)
    }

    fn note_wal(&self, before: u64) {
        let after = self.inner.wal_bytes();
        self.state.borrow_mut().log.wal_growth += after.saturating_sub(before);
    }

    fn observe(
        &mut self,
        outputs: Vec<ProtocolOutput<ConsensusMessage>>,
    ) -> Vec<ProtocolOutput<ConsensusMessage>> {
        if !self.observe_outputs || self.state.borrow().seen_phase != Phase::Measure as u8 {
            return outputs;
        }
        let log = &mut self.state.get_mut().log;
        for output in &outputs {
            let (msg, recipients) = match output {
                ProtocolOutput::Broadcast(msg) => (Some(msg), self.n.saturating_sub(1)),
                ProtocolOutput::Send { msg, .. } => (Some(msg), 1),
                ProtocolOutput::Reply { .. } => (None, 1),
            };
            log.msgs_out += recipients;
            match msg {
                Some(ConsensusMessage::PrePrepare(pp)) => {
                    log.preprepares.0 += 1;
                    log.preprepares.1 += pp.payload.batch.requests.len() as u64;
                }
                Some(ConsensusMessage::Checkpoint(cp)) => {
                    let len = cp.payload.snapshot.len() as u64;
                    log.checkpoint_bytes += len * recipients;
                    log.last_snapshot_bytes = len;
                }
                _ => {}
            }
        }
        outputs
    }
}

impl<P: Protocol<Message = ConsensusMessage>> Drop for Timed<P> {
    fn drop(&mut self) {
        let state = self.state.get_mut();
        if let Some(read) = self.counters {
            if state.log.counters[1].is_none() {
                state.log.counters[1] = Some(read(&self.inner));
            }
        }
        let log = std::mem::take(&mut state.log);
        // A poisoned lock means another node thread panicked; its own
        // error surfaces elsewhere, and Drop must not panic.
        if let Ok(mut logs) = self.recorder.logs.lock() {
            logs.push(log);
        }
    }
}

impl<P: Protocol<Message = ConsensusMessage>> Protocol for Timed<P> {
    type Message = ConsensusMessage;

    fn on_message(&mut self, msg: ConsensusMessage) -> Vec<ProtocolOutput<ConsensusMessage>> {
        let (out, _) = self.timed_mut("on_message", |p| p.on_message(msg));
        self.observe(out)
    }

    fn on_client_requests(
        &mut self,
        requests: Vec<Request>,
    ) -> Vec<ProtocolOutput<ConsensusMessage>> {
        let count = requests.len() as u64;
        let (out, ns) = self.timed_mut("on_client_requests", |p| p.on_client_requests(requests));
        if ns > 0 {
            let admission = &mut self.state.get_mut().log.admission;
            admission.0 += 1;
            admission.1 += count;
        }
        self.observe(out)
    }

    fn on_timeout(&mut self) -> Vec<ProtocolOutput<ConsensusMessage>> {
        let (out, _) = self.timed_mut("on_timeout", |p| p.on_timeout());
        self.observe(out)
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn has_pending_requests(&self) -> bool {
        self.inner.has_pending_requests()
    }

    fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        self.timed_mut("drain_durable_events", |p| p.drain_durable_events())
            .0
    }

    fn replay_durable_event(&mut self, event: DurableEvent) {
        self.inner.replay_durable_event(event)
    }

    fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        self.timed("durable_checkpoint", |p| p.durable_checkpoint())
    }

    fn restore_checkpoint(&mut self, cp: &DurableCheckpoint) -> Result<(), ProtocolError> {
        self.timed_mut("restore_checkpoint", |p| p.restore_checkpoint(cp))
            .0
    }

    fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        self.timed("catch_up_messages", |p| p.catch_up_messages(have_seq))
    }

    fn flush_durable(&mut self) -> Vec<ProtocolOutput<ConsensusMessage>> {
        let fsyncs_before = self.inner.durable_fsyncs();
        let (out, ns) = self.timed_mut("flush_durable", |p| p.flush_durable());
        if ns > 0 && self.inner.durable_fsyncs() > fsyncs_before {
            self.state.get_mut().log.fsync_flushes.push(ns);
        }
        self.observe(out)
    }

    fn durable_fsyncs(&self) -> u64 {
        self.inner.durable_fsyncs()
    }

    fn shard_progress(&self) -> Vec<u64> {
        self.inner.shard_progress()
    }

    fn shard_fsyncs(&self) -> Vec<u64> {
        self.inner.shard_fsyncs()
    }

    fn current_view(&self) -> u64 {
        self.inner.current_view()
    }

    fn pending_request_count(&self) -> u64 {
        self.inner.pending_request_count()
    }

    fn wal_bytes(&self) -> u64 {
        self.inner.wal_bytes()
    }

    fn checkpoint_seal_count(&self) -> u64 {
        self.inner.checkpoint_seal_count()
    }

    fn shard_views(&self) -> Vec<u64> {
        self.inner.shard_views()
    }

    fn drain_seal(&mut self) -> Vec<ProtocolOutput<ConsensusMessage>> {
        let (out, _) = self.timed_mut("drain_seal", |p| p.drain_seal());
        self.observe(out)
    }
}
