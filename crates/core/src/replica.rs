//! The untrusted **broker** and the assembled SplitBFT replica.
//!
//! The broker is the shim layer of §5: it owns the three enclave hosts,
//! "intercepts incoming messages and sends them to the corresponding
//! enclave using ecalls", drains the enclaves' ocall queues, and pushes
//! outbound traffic to the network. It also implements the message
//! *duplication* of §3.2: every incoming `PrePrepare`, `Checkpoint` and
//! `NewView` is delivered to multiple compartments' private input logs.
//!
//! The broker is untrusted: "this layer can be compromised, causing
//! liveness issues ... However, confidentiality and integrity are not
//! affected". The robustness tests exercise that by wrapping the broker
//! in hostile variants (dropping, duplicating, cross-wiring messages)
//! and checking that safety invariants still hold.

use crate::adapter::EnclaveAdapter;
use crate::conf::ConfirmationCompartment;
use crate::ecall::{CompartmentInput, CompartmentOutput, ECALL_HANDLE, OCALL_OUTPUT};
use crate::exec::ExecutionCompartment;
use crate::prep::PreparationCompartment;
use crate::suffix::SuffixRing;
use bytes::Bytes;
use splitbft_app::Application;
use splitbft_tee::attest::{PlatformAuthority, Quote};
use splitbft_tee::fault::{FaultPlan, FaultyEnclave};
use splitbft_tee::host::{EnclaveHost, ExecMode, TransitionStats};
use splitbft_tee::CostModel;
use splitbft_types::wire::{decode, encode};
use splitbft_types::{
    CheckpointCertificate, ClientId, ClusterConfig, CompartmentKind, ConsensusMessage, Digest,
    DurableCheckpoint, DurableEvent, ProtocolError, ReplicaId, Reply, Request, RequestBatch,
    RequestId, SeqNum, View,
};
use std::collections::{BTreeMap, VecDeque};

/// An event surfaced by the broker to the hosting runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaEvent {
    /// Send this message to every other replica.
    Broadcast(ConsensusMessage),
    /// Deliver a reply to a client.
    Reply {
        /// The destination client.
        to: ClientId,
        /// The reply.
        reply: Reply,
    },
    /// Persist a sealed blob to untrusted storage.
    Persist(Bytes),
    /// A compartment observed a commit.
    Committed {
        /// Which compartment reported it.
        kind: CompartmentKind,
        /// The slot.
        seq: SeqNum,
        /// The committed digest.
        digest: Digest,
    },
    /// The Execution compartment executed a request.
    Executed {
        /// The slot.
        seq: SeqNum,
        /// The request.
        request: RequestId,
    },
    /// A compartment stabilized a checkpoint.
    StableCheckpoint {
        /// Which compartment.
        kind: CompartmentKind,
        /// The stable slot.
        seq: SeqNum,
    },
    /// A compartment moved to a new view.
    EnteredView {
        /// Which compartment.
        kind: CompartmentKind,
        /// The new view.
        view: View,
    },
    /// A compartment rejected an input (normal under byzantine peers).
    Rejected {
        /// Which compartment.
        kind: CompartmentKind,
        /// Why.
        reason: String,
    },
    /// An ecall bounced off a crashed enclave.
    EnclaveCrashed {
        /// Which compartment.
        kind: CompartmentKind,
    },
}

/// Per-compartment fault plans for robustness experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompartmentFaults {
    /// Fault plan for the Preparation enclave.
    pub preparation: Option<FaultPlan>,
    /// Fault plan for the Confirmation enclave.
    pub confirmation: Option<FaultPlan>,
    /// Fault plan for the Execution enclave.
    pub execution: Option<FaultPlan>,
}

type Hosted<C> = EnclaveHost<FaultyEnclave<EnclaveAdapter<C>>>;

/// A complete SplitBFT replica: three enclaves plus the untrusted broker.
pub struct SplitBftReplica<A: Application> {
    id: ReplicaId,
    config: ClusterConfig,
    prep: Hosted<PreparationCompartment>,
    conf: Hosted<ConfirmationCompartment>,
    exec: Hosted<ExecutionCompartment<A>>,
    /// Highest not-yet-executed request timestamp per client, kept by the
    /// broker so a request-aware view-change timer can detect a stalled
    /// primary. The broker cannot verify request MACs (it must not hold
    /// client keys — a compromised broker with forging power would break
    /// the integrity model), so unauthenticated spam can arm the timer;
    /// that only costs liveness, which a compromised broker may take
    /// anyway per the paper's threat model.
    pending: BTreeMap<ClientId, splitbft_types::Timestamp>,
    /// Batches seen in `PrePrepare`s, keyed by slot and then by the
    /// batch's *recomputed* digest, kept until their slot commits so
    /// the broker can WAL the full batch at the commit point. Keying by
    /// our own digest (not the PrePrepare's claimed one) means a
    /// byzantine proposal can never substitute the batch recorded for a
    /// commit — the commit event's digest selects the matching bytes.
    /// GC'd at each stable checkpoint.
    seen_batches: BTreeMap<SeqNum, BTreeMap<Digest, RequestBatch>>,
    /// Durable consensus events buffered for a durable runtime's WAL
    /// (empty and free unless [`SplitBftReplica::enable_durable_events`]
    /// was called).
    durable: Vec<DurableEvent>,
    durable_enabled: bool,
    /// Committed-certificate suffix ring serving the log path of peer
    /// state transfer (see [`crate::suffix`]). Harvested alongside the
    /// WAL batches, so it is also gated on `durable_enabled` — pure
    /// in-memory hosting pays nothing for it.
    suffix: SuffixRing,
}

impl<A: Application> SplitBftReplica<A> {
    /// Assembles replica `id` in the given execution mode.
    pub fn new(
        config: ClusterConfig,
        id: ReplicaId,
        master_seed: u64,
        app: A,
        mode: ExecMode,
        cost: CostModel,
    ) -> Self {
        Self::with_faults(config, id, master_seed, app, mode, cost, CompartmentFaults::default())
    }

    /// Assembles a replica whose enclaves misbehave per `faults` — the
    /// Table 1 robustness scenarios.
    #[allow(clippy::too_many_arguments)]
    pub fn with_faults(
        config: ClusterConfig,
        id: ReplicaId,
        master_seed: u64,
        app: A,
        mode: ExecMode,
        cost: CostModel,
        faults: CompartmentFaults,
    ) -> Self {
        let wrap = |plan: Option<FaultPlan>| plan.unwrap_or_else(FaultPlan::benign);
        let prep = EnclaveHost::new(
            FaultyEnclave::new(
                EnclaveAdapter::new(PreparationCompartment::new(
                    config.clone(),
                    id,
                    master_seed,
                )),
                wrap(faults.preparation),
            ),
            mode,
            cost.clone(),
        );
        let conf = EnclaveHost::new(
            FaultyEnclave::new(
                EnclaveAdapter::new(ConfirmationCompartment::new(
                    config.clone(),
                    id,
                    master_seed,
                )),
                wrap(faults.confirmation),
            ),
            mode,
            cost.clone(),
        );
        let exec = EnclaveHost::new(
            FaultyEnclave::new(
                EnclaveAdapter::new(ExecutionCompartment::new(
                    config.clone(),
                    id,
                    master_seed,
                    app,
                )),
                wrap(faults.execution),
            ),
            mode,
            cost,
        );
        SplitBftReplica {
            id,
            config,
            prep,
            conf,
            exec,
            pending: BTreeMap::new(),
            seen_batches: BTreeMap::new(),
            durable: Vec::new(),
            durable_enabled: false,
            suffix: SuffixRing::default(),
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// §3.2 message duplication: which compartments receive each message
    /// type.
    fn route(msg: &ConsensusMessage) -> &'static [CompartmentKind] {
        use CompartmentKind::*;
        match msg {
            // Duplicated into all three input logs.
            ConsensusMessage::PrePrepare(_) => &[Preparation, Confirmation, Execution],
            ConsensusMessage::Checkpoint(_) => &[Preparation, Confirmation, Execution],
            ConsensusMessage::NewView(_) => &[Preparation, Confirmation, Execution],
            // Single-compartment events.
            ConsensusMessage::Prepare(_) => &[Confirmation],
            ConsensusMessage::Commit(_) => &[Execution],
            // ViewChange also feeds Confirmation's join rule: f + 1
            // distinct votes for a higher view make it join that view
            // change instead of diverging one view per local timeout.
            ConsensusMessage::ViewChange(_) => &[Preparation, Confirmation],
        }
    }

    fn ecall_into(
        &mut self,
        kind: CompartmentKind,
        input: &CompartmentInput,
        events: &mut Vec<ReplicaEvent>,
        loopback: &mut VecDeque<(CompartmentKind, ConsensusMessage)>,
    ) {
        let bytes = encode(input);
        let reply = match kind {
            CompartmentKind::Preparation => self.prep.ecall(ECALL_HANDLE, &bytes),
            CompartmentKind::Confirmation => self.conf.ecall(ECALL_HANDLE, &bytes),
            CompartmentKind::Execution => self.exec.ecall(ECALL_HANDLE, &bytes),
        };
        let reply = match reply {
            Ok(reply) => reply,
            Err(_) => {
                events.push(ReplicaEvent::EnclaveCrashed { kind });
                return;
            }
        };
        for ocall in reply.ocalls {
            if ocall.id != OCALL_OUTPUT {
                continue;
            }
            // Ocall payloads from a possibly-compromised enclave are
            // untrusted bytes; garbage is dropped.
            let Ok(output) = decode::<CompartmentOutput>(&ocall.data) else { continue };
            match output {
                CompartmentOutput::Broadcast(msg) => {
                    events.push(ReplicaEvent::Broadcast(msg.clone()));
                    loopback.push_back((kind, msg));
                }
                CompartmentOutput::SendReply { to, reply } => {
                    events.push(ReplicaEvent::Reply { to, reply });
                }
                CompartmentOutput::Persist(blob) => events.push(ReplicaEvent::Persist(blob)),
                CompartmentOutput::Committed { seq, digest } => {
                    events.push(ReplicaEvent::Committed { kind, seq, digest });
                }
                CompartmentOutput::Executed { seq, request } => {
                    events.push(ReplicaEvent::Executed { seq, request });
                }
                CompartmentOutput::StableCheckpoint { seq } => {
                    events.push(ReplicaEvent::StableCheckpoint { kind, seq });
                }
                CompartmentOutput::EnteredView(view) => {
                    events.push(ReplicaEvent::EnteredView { kind, view });
                }
                CompartmentOutput::Rejected { reason } => {
                    events.push(ReplicaEvent::Rejected { kind, reason });
                }
            }
        }
    }

    /// Routes one message (from the network or looped back from a local
    /// enclave) into every subscribed compartment except its local
    /// originator, then drains the cascade of follow-up messages.
    fn dispatch(
        &mut self,
        origin: Option<CompartmentKind>,
        msg: ConsensusMessage,
    ) -> Vec<ReplicaEvent> {
        let mut events = Vec::new();
        let mut loopback: VecDeque<(CompartmentKind, ConsensusMessage)> = VecDeque::new();
        // First hop: deliver to every routed compartment except the local
        // originator (none when the message came from the network).
        let first_targets: Vec<CompartmentKind> = Self::route(&msg)
            .iter()
            .copied()
            .filter(|k| Some(*k) != origin)
            .collect();
        let input = CompartmentInput::Message(msg);
        for kind in first_targets {
            self.ecall_into(kind, &input, &mut events, &mut loopback);
        }
        // Follow-ups produced by local enclaves cascade until quiescent.
        while let Some((from, m)) = loopback.pop_front() {
            let targets: Vec<CompartmentKind> =
                Self::route(&m).iter().copied().filter(|k| *k != from).collect();
            let input = CompartmentInput::Message(m);
            for kind in targets {
                self.ecall_into(kind, &input, &mut events, &mut loopback);
            }
        }
        events
    }

    /// Delivers a message received from the network.
    pub fn on_network_message(&mut self, msg: ConsensusMessage) -> Vec<ReplicaEvent> {
        self.note_batch_of(&msg);
        let events = self.dispatch(None, msg);
        self.observe_execution(&events);
        self.harvest_durable(&events);
        events
    }

    /// Delivers a batch of client requests to the Preparation enclave
    /// (the batcher lives in the runtime, per P1).
    pub fn on_client_batch(&mut self, requests: Vec<Request>) -> Vec<ReplicaEvent> {
        for req in &requests {
            let entry = self.pending.entry(req.client()).or_insert(req.id.timestamp);
            if *entry < req.id.timestamp {
                *entry = req.id.timestamp;
            }
        }
        let mut events = Vec::new();
        let mut loopback = VecDeque::new();
        let input = CompartmentInput::ClientBatch(requests);
        self.ecall_into(CompartmentKind::Preparation, &input, &mut events, &mut loopback);
        while let Some((from, m)) = loopback.pop_front() {
            let targets: Vec<CompartmentKind> =
                Self::route(&m).iter().copied().filter(|k| *k != from).collect();
            let input = CompartmentInput::Message(m);
            for kind in targets {
                self.ecall_into(kind, &input, &mut events, &mut loopback);
            }
        }
        self.observe_execution(&events);
        self.harvest_durable(&events);
        events
    }

    /// The environment's view-change timer fired: notify Confirmation.
    pub fn on_view_timeout(&mut self) -> Vec<ReplicaEvent> {
        // One stall buys one failover attempt; retransmitting clients
        // re-arm the timer if the next primary stalls too.
        self.pending.clear();
        let mut events = Vec::new();
        let mut loopback = VecDeque::new();
        let input = CompartmentInput::ViewTimeout;
        self.ecall_into(CompartmentKind::Confirmation, &input, &mut events, &mut loopback);
        while let Some((from, m)) = loopback.pop_front() {
            let targets: Vec<CompartmentKind> =
                Self::route(&m).iter().copied().filter(|k| *k != from).collect();
            let input = CompartmentInput::Message(m);
            for kind in targets {
                self.ecall_into(kind, &input, &mut events, &mut loopback);
            }
        }
        self.harvest_durable(&events);
        events
    }

    /// `true` while a client request has been seen by the broker but not
    /// yet reported executed by the Execution compartment.
    pub fn has_pending_requests(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drops pending markers covered by `Executed` events in `events`.
    fn observe_execution(&mut self, events: &[ReplicaEvent]) {
        for event in events {
            if let ReplicaEvent::Executed { request, .. } = event {
                if self.pending.get(&request.client).is_some_and(|t| *t <= request.timestamp) {
                    self.pending.remove(&request.client);
                }
            }
        }
    }

    // --- durability --------------------------------------------------------

    /// Remembers the batch of a passing `PrePrepare` so the commit point
    /// can be WAL'd with its full batch (commits carry only the digest),
    /// and harvests `PrePrepare`/`Commit`/`NewView` traffic into the
    /// suffix ring serving lagging peers. The ring recomputes the batch
    /// digest anyway, so `seen_batches` reuses it — one hash per
    /// proposal, not two.
    fn note_batch_of(&mut self, msg: &ConsensusMessage) {
        if !self.durable_enabled {
            return;
        }
        // The Execution compartment's view bounds which NewViews the
        // ring may retain (see suffix::NEW_VIEW_SLACK).
        let current_view = self.exec.enclave().inner().inner().view();
        let digest = self.suffix.observe(msg, current_view);
        if let (ConsensusMessage::PrePrepare(pp), Some(digest)) = (msg, digest) {
            self.seen_batches
                .entry(pp.payload.seq)
                .or_default()
                .insert(digest, pp.payload.batch.clone());
        }
    }

    /// Translates compartment events into durable WAL records. The
    /// Execution compartment is the authority: its commit points carry
    /// the replayable batches, its stable checkpoints set the GC point,
    /// and its view entries track the replicated view variable.
    fn harvest_durable(&mut self, events: &[ReplicaEvent]) {
        if !self.durable_enabled {
            return;
        }
        for event in events {
            match event {
                ReplicaEvent::Broadcast(msg) => self.note_batch_of(msg),
                ReplicaEvent::Committed { kind: CompartmentKind::Execution, seq, digest } => {
                    // Only the batch whose bytes hash to the committed
                    // digest may enter the WAL for this slot; the suffix
                    // ring freezes to the same digest.
                    self.suffix.mark_committed(*seq, *digest);
                    let batch = self
                        .seen_batches
                        .remove(seq)
                        .and_then(|mut by_digest| by_digest.remove(digest));
                    if let Some(batch) = batch {
                        self.durable.push(DurableEvent::Committed { seq: *seq, batch });
                    }
                }
                ReplicaEvent::StableCheckpoint { kind: CompartmentKind::Execution, seq } => {
                    self.seen_batches = self.seen_batches.split_off(&SeqNum(seq.0 + 1));
                    self.suffix.gc(*seq);
                    self.durable.push(DurableEvent::StableCheckpoint { seq: *seq });
                }
                ReplicaEvent::EnteredView { kind: CompartmentKind::Execution, view } => {
                    self.durable.push(DurableEvent::EnteredView { view: *view });
                }
                _ => {}
            }
        }
    }

    /// Starts recording durable consensus events (see
    /// [`SplitBftReplica::drain_durable_events`]).
    pub fn enable_durable_events(&mut self) {
        self.durable_enabled = true;
    }

    /// Drains the durable events recorded since the last drain.
    pub fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        std::mem::take(&mut self.durable)
    }

    /// Replays one WAL event during crash recovery: committed batches
    /// are re-executed inside the Execution enclave; everything else is
    /// either hybrid-specific or a GC marker.
    pub fn replay_durable_event(&mut self, event: DurableEvent) {
        if let DurableEvent::Committed { seq, batch } = event {
            let mut events = Vec::new();
            let mut loopback = VecDeque::new();
            let input = CompartmentInput::ReplayCommitted { seq, batch };
            self.ecall_into(CompartmentKind::Execution, &input, &mut events, &mut loopback);
            // Replay produces no network traffic; local follow-ups
            // (e.g. a checkpoint vote) are dropped with the events.
        }
    }

    /// The Execution compartment's stable checkpoint certificate,
    /// serialized for sealing and peer state transfer. `None` at
    /// genesis.
    pub fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let cert = self.exec.enclave().inner().inner().stable_proof();
        let digest = cert.state_digest()?;
        Some(DurableCheckpoint { seq: cert.seq(), digest, state: encode(cert).into() })
    }

    /// Restores compartment state from a checkpoint certificate by
    /// feeding its `2f + 1` signed `Checkpoint`s through the normal
    /// message path: every compartment re-verifies them exactly like
    /// network input, so corrupt or forged certificates cannot take
    /// effect.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when the bytes do not decode,
    /// do not match the claimed `(seq, digest)`, or fail to move the
    /// Execution compartment to the certified state.
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
        if self.last_executed() >= cp.seq {
            return Ok(()); // already at or past the certified state
        }
        for signed in &cert.checkpoints {
            let _ = self.dispatch(None, ConsensusMessage::Checkpoint(signed.clone()));
        }
        if self.last_executed() < cp.seq {
            return Err(ProtocolError::CorruptState(
                "checkpoint certificate was rejected by the compartments".into(),
            ));
        }
        Ok(())
    }

    /// Retained messages letting a peer at `have_seq` catch up above
    /// the stable checkpoint through its normal verifying message path:
    /// for every committed slot the suffix ring still holds, the
    /// committed `PrePrepare` plus its `Commit` votes (see
    /// [`crate::suffix`]). Empty until durable hosting enables
    /// harvesting.
    pub fn catch_up_messages(&self, have_seq: SeqNum) -> Vec<ConsensusMessage> {
        self.suffix.messages_from(have_seq)
    }

    /// Read access to the suffix ring (tests and diagnostics).
    pub fn suffix_ring(&self) -> &SuffixRing {
        &self.suffix
    }

    /// Installs a client session key in the Execution enclave (the tail
    /// of the attestation handshake).
    pub fn install_session_key(
        &mut self,
        client: ClientId,
        client_dh_public: u64,
        wrapped_key: Vec<u8>,
    ) -> Vec<ReplicaEvent> {
        let mut events = Vec::new();
        let mut loopback = VecDeque::new();
        let input = CompartmentInput::InstallSessionKey { client, client_dh_public, wrapped_key };
        self.ecall_into(CompartmentKind::Execution, &input, &mut events, &mut loopback);
        events
    }

    /// Produces the Execution enclave's attestation quote (report data =
    /// its DH public value), signed by the platform authority.
    pub fn attestation_quote(&self, authority: &PlatformAuthority) -> Quote {
        let dh = self.exec.enclave().inner().inner().dh_public_value();
        authority.quote(self.exec.measurement(), dh.to_le_bytes().to_vec())
    }

    // --- inspection & fault injection --------------------------------------

    /// The Execution compartment's last executed slot.
    pub fn last_executed(&self) -> SeqNum {
        self.exec.enclave().inner().inner().last_executed()
    }

    /// The Execution compartment's state digest (divergence checks).
    pub fn state_digest(&self) -> Digest {
        self.exec.enclave().inner().inner().state_digest()
    }

    /// Read access to the replicated application.
    pub fn app(&self) -> &A {
        self.exec.enclave().inner().inner().app()
    }

    /// Each compartment's current view `(prep, conf, exec)`.
    pub fn views(&self) -> (View, View, View) {
        (
            self.prep.enclave().inner().inner().view(),
            self.conf.enclave().inner().inner().view(),
            self.exec.enclave().inner().inner().view(),
        )
    }

    /// Boundary statistics of one compartment's host.
    pub fn stats(&self, kind: CompartmentKind) -> TransitionStats {
        match kind {
            CompartmentKind::Preparation => self.prep.stats(),
            CompartmentKind::Confirmation => self.conf.stats(),
            CompartmentKind::Execution => self.exec.stats(),
        }
    }

    /// Crash-faults one enclave (host-visible failure; recovery is a
    /// separate reboot path).
    pub fn crash_enclave(&mut self, kind: CompartmentKind) {
        match kind {
            CompartmentKind::Preparation => self.prep.inject_crash(),
            CompartmentKind::Confirmation => self.conf.inject_crash(),
            CompartmentKind::Execution => self.exec.inject_crash(),
        }
    }

    /// Arms a byzantine fault plan on one enclave at runtime.
    pub fn arm_fault(&mut self, kind: CompartmentKind, plan: FaultPlan) {
        match kind {
            CompartmentKind::Preparation => self.prep.enclave_mut().set_plan(plan),
            CompartmentKind::Confirmation => self.conf.enclave_mut().set_plan(plan),
            CompartmentKind::Execution => self.exec.enclave_mut().set_plan(plan),
        }
    }
}

impl<A: Application> std::fmt::Debug for SplitBftReplica<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SplitBftReplica")
            .field("id", &self.id)
            .field("views", &self.views())
            .field("last_exec", &self.last_executed())
            .finish_non_exhaustive()
    }
}
