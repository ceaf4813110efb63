//! The sans-I/O PBFT replica state machine.
//!
//! This is the baseline the paper evaluates SplitBFT against: a complete
//! PBFT replica — normal operation, checkpointing, and view changes — as a
//! deterministic state machine. All I/O, timers, and batching live in the
//! surrounding runtime, which feeds events in and interprets the returned
//! [`Action`]s.
//!
//! # Protocol summary
//!
//! Normal operation is the classic three-phase pattern: the view's primary
//! assigns a sequence number in a `PrePrepare`; backups validate and vote
//! `Prepare`; once a replica holds a *prepare certificate* (the proposal
//! plus `2f` matching prepares) it votes `Commit`; once it holds `2f + 1`
//! matching commits the batch is committed and executed in sequence order,
//! with one authenticated `Reply` per request. Every
//! `checkpoint_interval` executions the replica broadcasts a `Checkpoint`
//! carrying its state snapshot; `2f + 1` matching checkpoints advance the
//! watermark and garbage-collect the log. When the environment's timer
//! fires ([`Replica::on_view_timeout`]) the replica votes `ViewChange`;
//! the next primary assembles `2f + 1` votes into a `NewView` that
//! re-issues every prepared-but-unstable proposal (see
//! [`crate::viewchange::plan_new_view`]).

use crate::action::Action;
use crate::checkpoint::CheckpointTracker;
use crate::log::MessageLog;
use crate::verify::{
    self, verify_signed_from, SignerScheme, REPLICA_SCHEME,
};
use crate::viewchange::{plan_new_view, validate_new_view, NewViewPlan, ViewChangeTracker};
use splitbft_app::Application;
use splitbft_crypto::{client_mac_key, digest_bytes, digest_of, ClientKeys, KeyPair, KeyRegistry};
use splitbft_types::wire::{decode, encode, Decode, Encode, Reader};
use splitbft_types::{
    Checkpoint, CheckpointCertificate, ClientId, ClusterConfig, Commit, ConsensusMessage, Digest,
    DurableCheckpoint, DurableEvent, NewView, PrePrepare, Prepare, PrepareCertificate,
    ProtocolError, ReplicaId, Reply, Request, RequestBatch, SeqNum, Signed, SignerId, Timestamp,
    View, ViewChange,
};
use std::collections::BTreeMap;

/// Upper bound on buffered future-view messages (defence against memory
/// exhaustion by a byzantine peer flooding messages for far-future views).
const MAX_FUTURE_BUFFER: usize = 4_096;

/// Base number of timeouts spent re-broadcasting the same `ViewChange`
/// before the target advances anyway (the escape hatch for a dead
/// target-primary). Public because the SplitBFT Confirmation compartment
/// implements the same convergence fix and imports this constant — one
/// damping knob, both stacks in lockstep.
pub const STALLS_BEFORE_ADVANCE: u32 = 2;

/// Exponential view-change backoff: the re-broadcast budget for the
/// `escalations`-th consecutive view hop without entering a view.
///
/// The first failover keeps the base budget (fast recovery from a single
/// crashed primary); each further hop doubles it, capped at 8× — PBFT's
/// doubling view-change timer expressed in timer ticks. Without backoff,
/// replicas whose timers interleave keep leapfrogging each other's
/// target views under churn and convergence is only ever accidental.
/// Entering any view resets the escalation count.
pub fn stall_budget(escalations: u32) -> u32 {
    STALLS_BEFORE_ADVANCE << escalations.min(3)
}

/// Most slots served per catch-up response (state transfer is chunked:
/// a deeply lagging peer requests again with a higher `have_seq`).
/// Shared with the SplitBFT broker's suffix ring for the same reason.
pub const CATCH_UP_CHUNK_SLOTS: usize = 64;

/// Where the replica is in the view-change life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Normal three-phase operation.
    Normal,
    /// Voted for a view change and waiting for the `NewView`.
    InViewChange,
}

/// A complete PBFT replica.
///
/// Generic over the [`Application`] it replicates (the paper's key-value
/// store or blockchain).
pub struct Replica<A> {
    config: ClusterConfig,
    id: ReplicaId,
    signer: SignerId,
    keypair: KeyPair,
    registry: KeyRegistry,
    client_keys: ClientKeys,
    scheme: SignerScheme,

    view: View,
    status: Status,
    log: MessageLog,
    checkpoints: CheckpointTracker,
    view_changes: ViewChangeTracker,
    /// Highest-view prepare certificate per slot, kept across view changes
    /// for inclusion in `ViewChange` messages.
    prepared_certs: BTreeMap<SeqNum, PrepareCertificate>,
    /// Buffered messages for views above the current one, re-injected
    /// after entering a new view.
    future_buffer: Vec<ConsensusMessage>,
    /// The latest `NewView` this replica emitted or accepted, retained
    /// for peer catch-up: a replica that was down during the broadcast
    /// can only join the view through this (self-certifying) message,
    /// so it leads every served catch-up suffix.
    last_new_view: Option<Signed<NewView>>,
    /// Consecutive timeouts spent in view-change status awaiting the
    /// same `NewView`. Below the current [`stall_budget`] the replica
    /// *re-broadcasts* its current `ViewChange` instead of targeting the
    /// next view — without this backoff one fast-ticking replica
    /// leapfrogs a view ahead of the cluster forever and the view change
    /// never converges.
    stalled_timeouts: u32,
    /// Consecutive view hops without entering a view; exponent of the
    /// [`stall_budget`]. Resets on [`Replica::enter_view`].
    view_change_escalations: u32,

    app: A,
    /// Highest sequence number assigned by this replica as primary.
    next_seq: SeqNum,
    /// Highest sequence number executed.
    last_exec: SeqNum,
    /// Cached last reply per client, for duplicate suppression and resend.
    last_replies: BTreeMap<ClientId, Reply>,
    /// Highest authenticated-but-not-yet-executed request timestamp per
    /// client: the evidence a request-aware view-change timer needs.
    /// Entries clear on execution and on starting a view change (each
    /// stall buys one failover attempt; client retransmission re-arms).
    pending_requests: BTreeMap<ClientId, Timestamp>,
    /// Durable consensus events buffered for the hosting runtime's WAL.
    /// Only populated when a durable runtime opted in via
    /// [`Replica::enable_durable_events`]; plain in-memory hosting pays
    /// nothing.
    durable: Vec<DurableEvent>,
    /// Whether durable events are being recorded.
    durable_enabled: bool,
}

impl<A: Application> Replica<A> {
    /// Creates replica `id` of an `n`-replica cluster. All keys are
    /// derived deterministically from `master_seed` (see
    /// [`KeyRegistry::with_signers`]).
    pub fn new(config: ClusterConfig, id: ReplicaId, master_seed: u64, app: A) -> Self {
        let signer = SignerId::Replica(id);
        let registry =
            KeyRegistry::with_signers(master_seed, config.replicas().map(SignerId::Replica));
        let keypair = KeyPair::for_signer(master_seed, signer);
        let log = MessageLog::new(&config);
        Replica {
            config,
            id,
            signer,
            keypair,
            registry,
            client_keys: ClientKeys::new(master_seed),
            scheme: REPLICA_SCHEME,
            view: View::initial(),
            status: Status::Normal,
            log,
            checkpoints: CheckpointTracker::new(),
            view_changes: ViewChangeTracker::new(),
            prepared_certs: BTreeMap::new(),
            future_buffer: Vec::new(),
            last_new_view: None,
            stalled_timeouts: 0,
            view_change_escalations: 0,
            app,
            next_seq: SeqNum::zero(),
            last_exec: SeqNum::zero(),
            last_replies: BTreeMap::new(),
            pending_requests: BTreeMap::new(),
            durable: Vec::new(),
            durable_enabled: false,
        }
    }

    // --- accessors ---------------------------------------------------------

    /// This replica's identifier.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The current status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// `true` if this replica is the primary of its current view.
    pub fn is_primary(&self) -> bool {
        self.view.primary(&self.config) == self.id
    }

    /// Highest executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.last_exec
    }

    /// The last stable checkpoint.
    pub fn stable_seq(&self) -> SeqNum {
        self.checkpoints.stable_seq()
    }

    /// Read access to the replicated application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Digest of the current checkpointable state (application snapshot
    /// plus reply cache).
    pub fn state_digest(&self) -> Digest {
        digest_bytes(&self.checkpoint_state_bytes())
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Approximate memory in use by protocol state (for EPC accounting).
    pub fn memory_usage(&self) -> usize {
        self.log.len() * 512 + self.app.memory_usage() + self.last_replies.len() * 128
    }

    /// `true` while an authenticated client request has been accepted
    /// but not yet executed. Request-aware view-change timers fire only
    /// when this holds across a full period with no execution progress.
    pub fn has_pending_requests(&self) -> bool {
        !self.pending_requests.is_empty()
    }

    // --- durability --------------------------------------------------------

    /// Records `event` if a durable runtime opted in. Takes a closure so
    /// disabled replicas do not even build the event (the `Committed`
    /// variant clones the whole batch).
    fn record(&mut self, event: impl FnOnce() -> DurableEvent) {
        if self.durable_enabled {
            self.durable.push(event());
        }
    }

    /// Starts recording durable consensus events for
    /// [`Replica::drain_durable_events`]. Called once by durable
    /// runtimes; in-memory hosting leaves it off and pays nothing.
    pub fn enable_durable_events(&mut self) {
        self.durable_enabled = true;
    }

    /// Drains the durable events recorded since the last drain.
    pub fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        std::mem::take(&mut self.durable)
    }

    /// Replays one WAL event during crash recovery. Replay is idempotent
    /// (`Committed` below the current execution point is skipped) and
    /// produces no outputs.
    pub fn replay_durable_event(&mut self, event: DurableEvent) {
        match event {
            DurableEvent::Accepted { seq, .. } => {
                // Never reuse a slot this replica already proposed or
                // accepted — a restarted primary re-proposing a used
                // sequence number would equivocate.
                if self.next_seq < seq {
                    self.next_seq = seq;
                }
            }
            DurableEvent::Committed { seq, batch } => {
                if seq == self.last_exec.next() {
                    let _ = self.execute_batch(seq, &batch);
                    self.last_exec = seq;
                    if self.next_seq < seq {
                        self.next_seq = seq;
                    }
                }
            }
            DurableEvent::EnteredView { view } => {
                if self.view < view {
                    self.view = view;
                    self.status = Status::Normal;
                }
            }
            // Trusted counters are the hybrid's concern, the stable
            // marker only matters to the WAL's garbage collector, and
            // the shard tag to the sharding shim above this replica.
            DurableEvent::CounterIssued { .. }
            | DurableEvent::StableCheckpoint { .. }
            | DurableEvent::ShardTag { .. } => {}
        }
    }

    /// The replica's durable state at its latest stable checkpoint: the
    /// stable [`CheckpointCertificate`] itself, which is
    /// self-authenticating (`2f + 1` signed `Checkpoint`s carrying the
    /// snapshot). `None` at genesis.
    pub fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let cert = self.checkpoints.stable_proof();
        let digest = cert.state_digest()?;
        Some(DurableCheckpoint {
            seq: cert.seq(),
            digest,
            state: encode(cert).into(),
        })
    }

    /// Restores from a [`DurableCheckpoint`] produced by
    /// [`Replica::durable_checkpoint`] — the sealed local copy or an
    /// `f + 1`-agreed peer copy. The embedded certificate is deep
    /// verified (structure + every signature + snapshot digest) before
    /// anything is applied.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when the bytes do not decode or
    /// do not match the claimed `(seq, digest)`; certificate validation
    /// errors pass through.
    pub fn restore_durable_checkpoint(
        &mut self,
        cp: &DurableCheckpoint,
    ) -> Result<(), ProtocolError> {
        let cert: CheckpointCertificate = decode(&cp.state)
            .map_err(|e| ProtocolError::CorruptState(format!("checkpoint decode: {e}")))?;
        if cert.seq() != cp.seq || cert.state_digest() != Some(cp.digest) {
            return Err(ProtocolError::CorruptState(
                "checkpoint certificate does not match its claimed seq/digest".into(),
            ));
        }
        verify::verify_checkpoint_certificate(&self.registry, &cert, &self.config, &self.scheme)?;
        if verify::certified_snapshot(&cert).is_none() {
            return Err(ProtocolError::CorruptState(
                "no embedded snapshot matches the certified digest".into(),
            ));
        }
        if self.checkpoints.install_certificate(cert.clone()) {
            let _ = self.apply_stable_checkpoint(cert);
        }
        Ok(())
    }

    /// Retained messages that let a peer at `have_seq` catch up through
    /// its normal message handlers: for every slot above
    /// `max(have_seq, stable)` up to the last executed one, the accepted
    /// proposal plus all collected commit votes.
    pub fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        let from = have_seq.max(self.checkpoints.stable_seq());
        let mut msgs = Vec::new();
        // The latest NewView leads: a peer that was down during the
        // view-change broadcast rejects everything from the current
        // view until it processes this (a receiver already in the view
        // simply drops it).
        if let Some(nv) = &self.last_new_view {
            msgs.push(ConsensusMessage::NewView(nv.clone()));
        }
        // Chunked: a deeply lagging peer catches up incrementally (its
        // next state-request round carries a higher have_seq) instead
        // of drowning in one giant suffix.
        let mut served = 0usize;
        for seq in (from.0 + 1)..=self.last_exec.0 {
            if served >= CATCH_UP_CHUNK_SLOTS {
                break;
            }
            let Some(slot) = self.log.slot(SeqNum(seq)) else { continue };
            let Some(pp) = &slot.pre_prepare else { continue };
            msgs.push(ConsensusMessage::PrePrepare(pp.clone()));
            for commit in slot.commits.values() {
                msgs.push(ConsensusMessage::Commit(commit.clone()));
            }
            served += 1;
        }
        msgs
    }

    // --- event handlers ------------------------------------------------

    /// Handles a batch of client requests. The primary orders fresh,
    /// authenticated requests; *every* replica re-sends its cached reply
    /// for an already-executed timestamp (the PBFT retransmission rule —
    /// clients broadcast after a timeout, and backups answering from
    /// cache is what completes the reply quorum when the reply was lost)
    /// and records fresh requests as pending so the request-aware
    /// view-change timer can detect a stalled primary.
    pub fn on_client_batch(&mut self, requests: Vec<Request>) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut fresh = Vec::new();
        for req in requests {
            if !self.client_keys.verify_request(&req) {
                continue;
            }
            match self.last_replies.get(&req.client()) {
                Some(cached) if cached.request.timestamp == req.id.timestamp => {
                    actions.push(Action::SendReply { to: req.client(), reply: cached.clone() });
                }
                Some(cached) if cached.request.timestamp > req.id.timestamp => {}
                _ => {
                    self.note_pending(req.client(), req.id.timestamp);
                    fresh.push(req);
                }
            }
        }
        if !self.is_primary() || self.status != Status::Normal || fresh.is_empty() {
            return actions;
        }

        let seq = SeqNum(self.next_seq.0.max(self.last_exec.0) + 1);
        if !self.log.in_window(seq) {
            // Watermark exhausted: wait for a checkpoint to stabilize.
            // The runtime will retry the batch.
            return actions;
        }
        self.next_seq = seq;
        let batch = RequestBatch::new(fresh);
        let digest = digest_of(&batch);
        let pp = self.keypair.sign_payload(
            PrePrepare { view: self.view, seq, digest, batch },
            self.signer,
        );
        self.log
            .insert_pre_prepare(pp.clone())
            .expect("own fresh slot cannot conflict");
        self.record(|| DurableEvent::Accepted { view: pp.payload.view, seq, digest });
        actions.push(Action::Broadcast { msg: ConsensusMessage::PrePrepare(pp) });
        actions
    }

    /// Handles one verified-on-arrival protocol message.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]: rejected messages are normal in a byzantine
    /// system; the runtime typically just logs them.
    pub fn on_message(&mut self, msg: ConsensusMessage) -> Result<Vec<Action>, ProtocolError> {
        match msg {
            ConsensusMessage::PrePrepare(pp) => self.handle_pre_prepare(pp),
            ConsensusMessage::Prepare(p) => self.handle_prepare(p),
            ConsensusMessage::Commit(c) => self.handle_commit(c),
            ConsensusMessage::Checkpoint(c) => self.handle_checkpoint(c),
            ConsensusMessage::ViewChange(vc) => self.handle_view_change(vc),
            ConsensusMessage::NewView(nv) => self.handle_new_view(nv),
        }
    }

    /// The environment's view-change timer fired: vote to depose the
    /// current primary (or escalate to the next view if already changing).
    pub fn on_view_timeout(&mut self) -> Vec<Action> {
        if self.status == Status::InViewChange {
            if self.stalled_timeouts < stall_budget(self.view_change_escalations) {
                // Still awaiting the NewView for the view we already
                // voted: re-broadcast the vote (the target's primary may
                // have missed or restarted past it) instead of hopping
                // onward.
                self.stalled_timeouts += 1;
                let signed = self.signed_view_change(self.view);
                return vec![Action::Broadcast { msg: ConsensusMessage::ViewChange(signed) }];
            }
            // Budget exhausted: escalate, doubling the next hop's
            // budget so repeatedly-failing view changes back off
            // exponentially instead of racing each other.
            self.view_change_escalations = self.view_change_escalations.saturating_add(1);
        }
        let target = self.view.next();
        self.start_view_change(target)
    }

    /// This replica's `ViewChange` for `target`, freshly signed.
    fn signed_view_change(&self, target: View) -> Signed<ViewChange> {
        let vc = ViewChange {
            new_view: target,
            stable_seq: self.checkpoints.stable_seq(),
            checkpoint_proof: self.checkpoints.stable_proof().clone(),
            prepared: self
                .prepared_certs
                .range(SeqNum(self.checkpoints.stable_seq().0 + 1)..)
                .map(|(_, cert)| cert.clone())
                .collect(),
            replica: self.id,
        };
        self.keypair.sign_payload(vc, self.signer)
    }

    // --- normal operation ------------------------------------------------

    /// Records an accepted-but-unexecuted request for the view-change
    /// timer. One entry per client (the highest timestamp seen) bounds
    /// the map at one entry per live client.
    fn note_pending(&mut self, client: ClientId, timestamp: Timestamp) {
        let entry = self.pending_requests.entry(client).or_insert(timestamp);
        if *entry < timestamp {
            *entry = timestamp;
        }
    }

    /// Clears a client's pending marker once execution caught up to it.
    fn clear_pending(&mut self, client: ClientId, executed: Timestamp) {
        if self.pending_requests.get(&client).is_some_and(|t| *t <= executed) {
            self.pending_requests.remove(&client);
        }
    }

    fn check_active_view(&self, view: View, seq: SeqNum) -> Result<(), ProtocolError> {
        if view != self.view {
            return Err(ProtocolError::WrongView { got: view, current: self.view });
        }
        if self.status != Status::Normal {
            return Err(ProtocolError::Other("in view change".into()));
        }
        self.log.check_window(seq)
    }

    fn buffer_future(&mut self, msg: ConsensusMessage) {
        if self.future_buffer.len() < MAX_FUTURE_BUFFER {
            self.future_buffer.push(msg);
        }
    }

    fn handle_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
    ) -> Result<Vec<Action>, ProtocolError> {
        let view = pp.payload.view;
        let seq = pp.payload.seq;
        if view > self.view {
            self.buffer_future(ConsensusMessage::PrePrepare(pp));
            return Ok(Vec::new());
        }
        let primary = view.primary(&self.config);
        verify_signed_from(&self.registry, &pp, (self.scheme.proposer)(primary))?;
        self.check_active_view(view, seq)?;
        if digest_of(&pp.payload.batch) != pp.payload.digest {
            return Err(ProtocolError::BadCertificate { kind: "pre-prepare digest" });
        }
        // Backups refuse to prepare a batch containing unauthenticated
        // requests: a byzantine primary must not be able to launder
        // forged client operations through agreement.
        // Any failing member rejects the whole batch, so one decision per
        // batch suffices.
        if !self.client_keys.verify_batch(&pp.payload.batch.requests) {
            return Err(ProtocolError::BadAuthenticator { kind: "request in batch" });
        }
        self.accept_pre_prepare(pp)
    }

    /// Inserts an already-validated proposal and emits this backup's
    /// `Prepare`. Shared between the network path and `NewView`
    /// processing.
    fn accept_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
    ) -> Result<Vec<Action>, ProtocolError> {
        let view = pp.payload.view;
        let seq = pp.payload.seq;
        let digest = pp.payload.digest;
        self.log.insert_pre_prepare(pp)?;
        self.record(|| DurableEvent::Accepted { view, seq, digest });

        let mut actions = Vec::new();
        if !self.is_primary() && !self.log.slot(seq).map_or(false, |s| s.prepare_sent) {
            let prepare = self.keypair.sign_payload(
                Prepare { view, seq, digest, replica: self.id },
                self.signer,
            );
            self.log.insert_prepare(prepare.clone());
            self.log.slot_mut(seq).prepare_sent = true;
            actions.push(Action::Broadcast { msg: ConsensusMessage::Prepare(prepare) });
        }
        actions.extend(self.maybe_prepared(seq));
        Ok(actions)
    }

    fn handle_prepare(&mut self, p: Signed<Prepare>) -> Result<Vec<Action>, ProtocolError> {
        let view = p.payload.view;
        let seq = p.payload.seq;
        if view > self.view {
            self.buffer_future(ConsensusMessage::Prepare(p));
            return Ok(Vec::new());
        }
        verify_signed_from(&self.registry, &p, (self.scheme.preparer)(p.payload.replica))?;
        if !self.config.contains(p.payload.replica) {
            return Err(ProtocolError::UnknownReplica(p.payload.replica));
        }
        self.check_active_view(view, seq)?;
        self.log.insert_prepare(p);
        Ok(self.maybe_prepared(seq))
    }

    fn maybe_prepared(&mut self, seq: SeqNum) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.log.prepared(seq, self.view, &self.config) {
            return actions;
        }
        // Remember the certificate for future view changes.
        if let Some(cert) = self.log.prepare_certificate(seq, self.view, &self.config) {
            match self.prepared_certs.get(&seq) {
                Some(existing) if existing.view() >= cert.view() => {}
                _ => {
                    self.prepared_certs.insert(seq, cert);
                }
            }
        }
        if !self.log.slot_mut(seq).commit_sent {
            let digest = self.log.accepted_digest(seq).expect("prepared implies proposal");
            let commit = self.keypair.sign_payload(
                Commit { view: self.view, seq, digest, replica: self.id },
                self.signer,
            );
            self.log.insert_commit(commit.clone());
            self.log.slot_mut(seq).commit_sent = true;
            actions.push(Action::Broadcast { msg: ConsensusMessage::Commit(commit) });
        }
        actions.extend(self.try_execute());
        actions
    }

    fn handle_commit(&mut self, c: Signed<Commit>) -> Result<Vec<Action>, ProtocolError> {
        let view = c.payload.view;
        let seq = c.payload.seq;
        if view > self.view {
            self.buffer_future(ConsensusMessage::Commit(c));
            return Ok(Vec::new());
        }
        verify_signed_from(&self.registry, &c, (self.scheme.confirmer)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        self.check_active_view(view, seq)?;
        self.log.insert_commit(c);
        let mut actions = self.maybe_prepared(seq);
        actions.extend(self.try_execute());
        Ok(actions)
    }

    fn try_execute(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        loop {
            let next = self.last_exec.next();
            if !self.log.committed(next, self.view, &self.config) {
                break;
            }
            let pp = self
                .log
                .slot(next)
                .and_then(|s| s.pre_prepare.clone())
                .expect("committed implies proposal");
            actions.push(Action::CommittedBatch { seq: next, digest: pp.payload.digest });
            self.record(|| DurableEvent::Committed { seq: next, batch: pp.payload.batch.clone() });
            actions.extend(self.execute_batch(next, &pp.payload.batch));
            self.last_exec = next;

            if next.0 % self.config.checkpoint_interval == 0 {
                actions.extend(self.emit_checkpoint(next));
            }
        }
        actions
    }

    fn execute_batch(&mut self, seq: SeqNum, batch: &RequestBatch) -> Vec<Action> {
        let mut actions = Vec::new();
        for req in &batch.requests {
            let client = req.client();
            match self.last_replies.get(&client) {
                Some(cached) if cached.request.timestamp == req.id.timestamp => {
                    actions.push(Action::SendReply { to: client, reply: cached.clone() });
                    continue;
                }
                Some(cached) if cached.request.timestamp > req.id.timestamp => continue,
                _ => {}
            }
            // The baseline executes plaintext operations; an encrypted
            // operation (SplitBFT's confidential mode) is opaque bytes
            // here and will execute as a no-op.
            let result = self.app.execute(&req.op);
            let auth_key = self.client_keys.get(client);
            let auth = auth_key
                .tag(&Reply::auth_bytes(self.view, req.id, self.id, &result, false));
            let reply =
                Reply { view: self.view, request: req.id, replica: self.id, result, encrypted: false, auth };
            self.last_replies.insert(client, reply.clone());
            self.clear_pending(client, req.id.timestamp);
            actions.push(Action::Executed { seq, request: req.id });
            actions.push(Action::SendReply { to: client, reply });
        }
        for blob in self.app.drain_persist() {
            actions.push(Action::Persist { blob });
        }
        actions
    }

    // --- checkpointing ----------------------------------------------------

    /// The canonical checkpoint state. It must be **bit-identical across
    /// replicas**, so the reply cache is reduced to its replica-independent
    /// core `(client, timestamp, result)`; replica-specific reply fields
    /// (sender id, MAC, view) are reconstructed on restore.
    fn checkpoint_state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let snapshot = self.app.snapshot();
        (snapshot.len() as u32).encode(&mut buf);
        buf.extend_from_slice(&snapshot);
        let replies: Vec<(ClientId, splitbft_types::Timestamp, bytes::Bytes)> = self
            .last_replies
            .iter()
            .map(|(c, r)| (*c, r.request.timestamp, r.result.clone()))
            .collect();
        replies.encode(&mut buf);
        buf
    }

    fn restore_checkpoint_state(&mut self, bytes: &[u8]) -> Result<(), ProtocolError> {
        let mut r = Reader::new(bytes);
        let len = u32::decode(&mut r)? as usize;
        let snapshot = r.take(len)?.to_vec();
        let replies: Vec<(ClientId, splitbft_types::Timestamp, bytes::Bytes)> =
            Vec::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(ProtocolError::Other("trailing checkpoint bytes".into()));
        }
        self.app
            .restore(&snapshot)
            .map_err(|e| ProtocolError::Other(format!("snapshot restore failed: {e}")))?;
        self.last_replies = replies
            .into_iter()
            .map(|(client, timestamp, result)| {
                let request = splitbft_types::RequestId { client, timestamp };
                let auth_key = self.client_keys.get(client);
                let auth = auth_key
                    .tag(&Reply::auth_bytes(self.view, request, self.id, &result, false));
                let reply = Reply {
                    view: self.view,
                    request,
                    replica: self.id,
                    result,
                    encrypted: false,
                    auth,
                };
                (client, reply)
            })
            .collect();
        // State transfer executed (on our behalf) everything up to the
        // checkpoint: drop pending markers the restored replies cover.
        let executed: Vec<(ClientId, Timestamp)> =
            self.last_replies.iter().map(|(c, r)| (*c, r.request.timestamp)).collect();
        for (client, timestamp) in executed {
            self.clear_pending(client, timestamp);
        }
        Ok(())
    }

    fn emit_checkpoint(&mut self, seq: SeqNum) -> Vec<Action> {
        let state = self.checkpoint_state_bytes();
        let ckpt = Checkpoint {
            seq,
            state_digest: digest_bytes(&state),
            replica: self.id,
            snapshot: state.into(),
        };
        let signed = self.keypair.sign_payload(ckpt, self.signer);
        let mut actions = Vec::new();
        if let Some(cert) = self.checkpoints.insert(signed.clone(), &self.config) {
            actions.extend(self.apply_stable_checkpoint(cert));
        }
        actions.push(Action::Broadcast { msg: ConsensusMessage::Checkpoint(signed) });
        actions
    }

    fn handle_checkpoint(
        &mut self,
        c: Signed<Checkpoint>,
    ) -> Result<Vec<Action>, ProtocolError> {
        verify_signed_from(&self.registry, &c, (self.scheme.executor)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        let mut actions = Vec::new();
        if let Some(cert) = self.checkpoints.insert(c, &self.config) {
            actions.extend(self.apply_stable_checkpoint(cert));
        }
        Ok(actions)
    }

    fn apply_stable_checkpoint(&mut self, cert: CheckpointCertificate) -> Vec<Action> {
        let seq = cert.seq();
        let mut actions = Vec::new();
        // State transfer: if this replica fell behind the stable point,
        // adopt the certified snapshot (after checking it hashes to the
        // certified digest).
        if self.last_exec < seq {
            if let Some(snapshot) = verify::certified_snapshot(&cert) {
                if self.restore_checkpoint_state(snapshot).is_ok() {
                    self.last_exec = seq;
                    if self.next_seq < seq {
                        self.next_seq = seq;
                    }
                }
            }
        }
        self.log.collect_garbage(seq);
        self.prepared_certs = self.prepared_certs.split_off(&SeqNum(seq.0 + 1));
        self.record(|| DurableEvent::StableCheckpoint { seq });
        actions.push(Action::StableCheckpoint { seq });
        actions
    }

    // --- view changes -----------------------------------------------------

    fn start_view_change(&mut self, target: View) -> Vec<Action> {
        if target <= self.view && self.status == Status::InViewChange {
            return Vec::new();
        }
        let target = target.max(self.view.next());
        self.status = Status::InViewChange;
        self.view = target;
        self.stalled_timeouts = 0;
        self.record(|| DurableEvent::EnteredView { view: target });
        // Each stall converts into exactly one failover attempt: clients
        // that still care keep retransmitting, which re-arms the timer
        // in the (possibly again faulty) next view.
        self.pending_requests.clear();

        let signed = self.signed_view_change(target);
        self.view_changes.insert(signed.clone());
        let mut actions =
            vec![Action::Broadcast { msg: ConsensusMessage::ViewChange(signed) }];
        actions.extend(self.maybe_new_view(target));
        actions
    }

    fn handle_view_change(
        &mut self,
        vc: Signed<ViewChange>,
    ) -> Result<Vec<Action>, ProtocolError> {
        verify::verify_view_change(&self.registry, &vc, &self.config, &self.scheme)?;
        let target = vc.payload.new_view;
        if target <= self.view && !(target == self.view && self.status == Status::InViewChange) {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        self.view_changes.insert(vc);

        let mut actions = Vec::new();
        // Join rule: f + 1 replicas already want a higher view.
        let effective = match self.status {
            Status::InViewChange => self.view, // already voted up to self.view
            Status::Normal => self.view,
        };
        if let Some(join) = self.view_changes.join_view(effective, &self.config) {
            if join > self.view || self.status == Status::Normal {
                actions.extend(self.start_view_change(join));
                return Ok(actions);
            }
        }
        actions.extend(self.maybe_new_view(target));
        Ok(actions)
    }

    fn maybe_new_view(&mut self, target: View) -> Vec<Action> {
        let mut actions = Vec::new();
        if target.primary(&self.config) != self.id {
            return actions;
        }
        if !(self.status == Status::InViewChange && self.view == target) {
            return actions;
        }
        let Some(quorum) = self.view_changes.quorum(target, &self.config) else {
            return actions;
        };
        let plan = plan_new_view(target, &quorum);
        let pre_prepares: Vec<Signed<PrePrepare>> = plan
            .pre_prepares
            .iter()
            .cloned()
            .map(|pp| self.keypair.sign_payload(pp, self.signer))
            .collect();
        let nv = NewView { view: target, view_changes: quorum, pre_prepares: pre_prepares.clone() };
        let signed_nv = self.keypair.sign_payload(nv, self.signer);
        self.last_new_view = Some(signed_nv.clone());
        actions.push(Action::Broadcast { msg: ConsensusMessage::NewView(signed_nv) });

        actions.extend(self.enter_view(target, &plan));
        // The new primary installs its own re-issued proposals; backups
        // will Prepare them on receipt of the NewView.
        for pp in pre_prepares {
            if self.log.in_window(pp.payload.seq) {
                let _ = self.log.insert_pre_prepare(pp);
            }
        }
        self.next_seq = SeqNum(plan.max_s.0.max(self.next_seq.0).max(self.last_exec.0));
        actions.extend(self.drain_future_buffer());
        actions
    }

    fn handle_new_view(&mut self, nv: Signed<NewView>) -> Result<Vec<Action>, ProtocolError> {
        let target = nv.payload.view;
        if target < self.view || (target == self.view && self.status == Status::Normal) {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        let primary = target.primary(&self.config);
        verify_signed_from(&self.registry, &nv, (self.scheme.proposer)(primary))?;
        verify::verify_new_view_contents(&self.registry, &nv.payload, &self.config, &self.scheme)?;
        let plan = validate_new_view(&nv.payload, &self.config)?;
        self.last_new_view = Some(nv.clone());

        let mut actions = self.enter_view(target, &plan);
        for pp in nv.payload.pre_prepares {
            if self.log.in_window(pp.payload.seq) {
                match self.accept_pre_prepare(pp) {
                    Ok(more) => actions.extend(more),
                    Err(_) => {}
                }
            }
        }
        actions.extend(self.drain_future_buffer());
        Ok(actions)
    }

    /// Common view-entry bookkeeping: apply the plan's checkpoint, clear
    /// stale agreement state, leave view-change status.
    fn enter_view(&mut self, view: View, plan: &NewViewPlan) -> Vec<Action> {
        let mut actions = Vec::new();
        if plan.checkpoint.seq() > self.checkpoints.stable_seq() {
            let cert = plan.checkpoint.clone();
            if self.checkpoints.install_certificate(cert.clone()) {
                actions.extend(self.apply_stable_checkpoint(cert));
            }
        }
        self.log.clear_above(self.checkpoints.stable_seq());
        self.view = view;
        self.status = Status::Normal;
        self.stalled_timeouts = 0;
        self.view_change_escalations = 0;
        self.view_changes.collect_garbage(view);
        self.record(|| DurableEvent::EnteredView { view });
        actions.push(Action::EnteredView { view });
        actions
    }

    fn drain_future_buffer(&mut self) -> Vec<Action> {
        let buffered = std::mem::take(&mut self.future_buffer);
        let mut actions = Vec::new();
        for msg in buffered {
            if let Ok(more) = self.on_message(msg) {
                actions.extend(more);
            }
        }
        actions
    }
}

impl<A: Application> std::fmt::Debug for Replica<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("view", &self.view)
            .field("status", &self.status)
            .field("last_exec", &self.last_exec)
            .field("stable", &self.checkpoints.stable_seq())
            .finish_non_exhaustive()
    }
}

/// Builds an authenticated request the way a client library would —
/// shared by tests, benchmarks, and the [`crate::client::PbftClient`].
pub fn make_request(
    master_seed: u64,
    client: ClientId,
    timestamp: splitbft_types::Timestamp,
    op: bytes::Bytes,
) -> Request {
    let id = splitbft_types::RequestId { client, timestamp };
    let key = client_mac_key(master_seed, client);
    let auth = key.tag(&Request::auth_bytes(id, &op, false));
    Request { id, op, encrypted: false, auth }
}

