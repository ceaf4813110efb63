//! The **Execution compartment**: collects a quorum of confirmations,
//! executes authenticated requests, replies to clients, and generates
//! checkpoints (paper §3.2).
//!
//! Event handlers hosted here: (4) commit-certificate collection →
//! execute + `Reply`, (8) checkpoint generation — co-located with (4)
//! per principle P3 because both touch the application state — plus the
//! duplicated checkpoint GC handler (9) and `NewView` application (7').
//!
//! This is the *confidentiality* compartment: client operations arrive
//! encrypted under per-client session keys installed during attestation
//! and are decrypted only here; results are encrypted before leaving.
//! "Confidentiality is maintained as long as all enclaves of type
//! Execution are correct" (§2).

use crate::ecall::{CompartmentInput, CompartmentOutput};
use crate::scheme::{compartment_measurement, enclave_signer, SPLITBFT_SCHEME};
use bytes::Bytes;
use splitbft_app::Application;
use splitbft_crypto::aead::{open, seal, AeadKey};
use splitbft_crypto::sig::{dh_public, dh_shared};
use splitbft_crypto::{digest_bytes, digest_of, ClientKeys, KeyPair, KeyRegistry};
use splitbft_pbft::verify::verify_signed_from;
use splitbft_pbft::CheckpointTracker;
use splitbft_tee::seal::SealingIdentity;
use splitbft_types::wire::{Decode, Encode, Reader};
use splitbft_types::{
    Checkpoint, ClientId, ClusterConfig, CompartmentKind, Commit, ConsensusMessage, Digest,
    NewView, PrePrepare, ProtocolError, ReplicaId, Reply, Request, RequestBatch, SeqNum, Signed,
    SignerId, Timestamp, View,
};
use std::collections::BTreeMap;

/// AAD label binding request ciphertexts (shared with the client).
pub const REQ_AAD: &[u8] = b"splitbft-request";
/// AAD label binding reply ciphertexts (shared with the client).
pub const REPLY_AAD: &[u8] = b"splitbft-reply";
/// Wrapping nonce for session-key installation.
const WRAP_NONCE: u64 = 0;

/// Derives the Execution enclave's Diffie–Hellman secret. In real SGX
/// this would be generated inside the enclave at startup; the simulation
/// derives it so provisioning code can compute the matching public value
/// for the attestation quote.
pub fn exec_dh_secret(master_seed: u64, replica: ReplicaId) -> u64 {
    let d = digest_bytes(&[b"exec-dh".as_slice(), &master_seed.to_le_bytes(), &replica.0.to_le_bytes()].concat());
    u64::from_le_bytes(d.0[..8].try_into().expect("8 bytes"))
}

#[derive(Debug, Default)]
struct ExecSlot {
    /// Candidate full-request proposals by digest (forwarded
    /// `PrePrepare`s; commits carry only the hash).
    proposals: BTreeMap<Digest, Signed<PrePrepare>>,
    /// Commit votes by sender.
    commits: BTreeMap<ReplicaId, Signed<Commit>>,
}

/// The Execution compartment state machine, generic over the replicated
/// [`Application`].
pub struct ExecutionCompartment<A> {
    config: ClusterConfig,
    replica: ReplicaId,
    signer: SignerId,
    keypair: KeyPair,
    registry: KeyRegistry,
    client_keys: ClientKeys,

    /// This compartment's copy of the replicated view variable.
    view: View,
    /// The `in_exec` log.
    slots: BTreeMap<SeqNum, ExecSlot>,
    /// Private checkpoint tracker.
    checkpoints: CheckpointTracker,
    /// Highest executed slot.
    last_exec: SeqNum,
    /// The application state — the paper notes this dominates the
    /// Execution TCB.
    app: A,
    /// Cached last reply per client.
    last_replies: BTreeMap<ClientId, Reply>,
    /// Per-client session keys installed through attestation.
    session_keys: BTreeMap<ClientId, AeadKey>,
    /// This enclave's key-exchange secret.
    dh_secret: u64,
    /// Sealing identity for persisted blobs (SGX sealing, MRENCLAVE
    /// policy) and the monotonic seal nonce.
    seal_identity: SealingIdentity,
    seal_nonce: u64,
}

impl<A: Application> ExecutionCompartment<A> {
    /// Creates the Execution enclave logic for `replica`, hosting `app`.
    pub fn new(config: ClusterConfig, replica: ReplicaId, master_seed: u64, app: A) -> Self {
        let signer = enclave_signer(replica, CompartmentKind::Execution);
        let registry =
            KeyRegistry::with_signers(master_seed, crate::scheme::all_enclave_signers(config.n()));
        let keypair = KeyPair::for_signer(master_seed, signer);
        let dh_secret = exec_dh_secret(master_seed, replica);
        let platform = digest_bytes(&[b"platform".as_slice(), &replica.0.to_le_bytes()].concat());
        ExecutionCompartment {
            config,
            replica,
            signer,
            keypair,
            registry,
            client_keys: ClientKeys::new(master_seed),
            view: View::initial(),
            slots: BTreeMap::new(),
            checkpoints: CheckpointTracker::new(),
            last_exec: SeqNum::zero(),
            app,
            last_replies: BTreeMap::new(),
            session_keys: BTreeMap::new(),
            dh_secret,
            seal_identity: SealingIdentity {
                platform_secret: platform.0,
                measurement: compartment_measurement(CompartmentKind::Execution),
            },
            seal_nonce: 0,
        }
    }

    /// This compartment's current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Highest executed slot.
    pub fn last_executed(&self) -> SeqNum {
        self.last_exec
    }

    /// Read access to the application (inspection in tests/examples).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Digest of the canonical checkpointable state.
    pub fn state_digest(&self) -> Digest {
        digest_bytes(&self.checkpoint_state_bytes())
    }

    /// Proof of the current stable checkpoint (genesis initially). The
    /// broker serializes this for sealed persistence and peer state
    /// transfer — only Execution holds the application state, so only
    /// its certificate carries a restorable snapshot.
    pub fn stable_proof(&self) -> &splitbft_types::CheckpointCertificate {
        self.checkpoints.stable_proof()
    }

    /// The enclave's DH public value, placed in its attestation quote.
    pub fn dh_public_value(&self) -> u64 {
        dh_public(self.dh_secret)
    }

    /// Number of installed client session keys.
    pub fn session_key_count(&self) -> usize {
        self.session_keys.len()
    }

    /// Approximate heap usage for EPC accounting.
    pub fn memory_usage(&self) -> usize {
        self.slots.len() * 1024
            + self.app.memory_usage()
            + self.last_replies.len() * 128
            + self.session_keys.len() * 96
    }

    fn in_window(&self, seq: SeqNum) -> bool {
        let low = self.checkpoints.stable_seq();
        seq > low && seq.0 <= low.0 + self.config.window
    }

    /// The single event-handler entry point.
    pub fn handle(&mut self, input: CompartmentInput) -> Vec<CompartmentOutput> {
        let result = match input {
            CompartmentInput::Message(ConsensusMessage::PrePrepare(pp)) => {
                self.on_pre_prepare(pp)
            }
            CompartmentInput::Message(ConsensusMessage::Commit(c)) => self.on_commit(c),
            CompartmentInput::Message(ConsensusMessage::Checkpoint(c)) => self.on_checkpoint(c),
            CompartmentInput::Message(ConsensusMessage::NewView(nv)) => self.on_new_view(nv),
            CompartmentInput::InstallSessionKey { client, client_dh_public, wrapped_key } => {
                self.on_install_session_key(client, client_dh_public, &wrapped_key)
            }
            CompartmentInput::ReplayCommitted { seq, batch } => Ok(self.replay_committed(seq, &batch)),
            other => Err(ProtocolError::Other(format!("not an Execution event: {other:?}"))),
        };
        match result {
            Ok(outputs) => outputs,
            Err(e) => vec![CompartmentOutput::Rejected { reason: e.to_string() }],
        }
    }

    /// Forwarded proposals: Execution needs the full requests since
    /// `Commit`s carry only the batch hash (§3.2). Validity of the
    /// *contents* is established by the digest binding: the batch must
    /// hash to a digest that later gathers a commit quorum.
    fn on_pre_prepare(
        &mut self,
        pp: Signed<PrePrepare>,
    ) -> Result<Vec<CompartmentOutput>, ProtocolError> {
        let seq = pp.payload.seq;
        if !self.in_window(seq) {
            let low = self.checkpoints.stable_seq();
            return Err(ProtocolError::OutOfWindow {
                seq,
                low,
                high: SeqNum(low.0 + self.config.window),
            });
        }
        if digest_of(&pp.payload.batch) != pp.payload.digest {
            return Err(ProtocolError::BadCertificate { kind: "pre-prepare digest" });
        }
        let digest = pp.payload.digest;
        self.slots.entry(seq).or_default().proposals.insert(digest, pp);
        Ok(self.try_execute())
    }

    /// Handler (4): collect the commit quorum.
    fn on_commit(&mut self, c: Signed<Commit>) -> Result<Vec<CompartmentOutput>, ProtocolError> {
        let seq = c.payload.seq;
        if c.payload.view != self.view {
            return Err(ProtocolError::WrongView { got: c.payload.view, current: self.view });
        }
        // Early drop: commits for already-executed slots are redundant;
        // skip signature verification.
        if seq <= self.last_exec {
            return Ok(Vec::new());
        }
        verify_signed_from(&self.registry, &c, (SPLITBFT_SCHEME.confirmer)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        if !self.in_window(seq) {
            let low = self.checkpoints.stable_seq();
            return Err(ProtocolError::OutOfWindow {
                seq,
                low,
                high: SeqNum(low.0 + self.config.window),
            });
        }
        self.slots.entry(seq).or_default().commits.insert(c.payload.replica, c);
        Ok(self.try_execute())
    }

    /// A slot is executable once `2f + 1` commits from distinct
    /// Confirmation enclaves agree on (view, digest) *and* the full batch
    /// with that digest is present.
    fn committed_digest(&self, seq: SeqNum) -> Option<Digest> {
        let slot = self.slots.get(&seq)?;
        let mut counts: BTreeMap<(View, Digest), usize> = BTreeMap::new();
        for c in slot.commits.values() {
            *counts.entry((c.payload.view, c.payload.digest)).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .find(|(_, n)| *n >= self.config.quorum())
            .map(|((_, d), _)| d)
            .filter(|d| slot.proposals.contains_key(d))
    }

    fn try_execute(&mut self) -> Vec<CompartmentOutput> {
        let mut outputs = Vec::new();
        loop {
            let next = self.last_exec.next();
            let Some(digest) = self.committed_digest(next) else { break };
            let batch = self
                .slots
                .get(&next)
                .and_then(|s| s.proposals.get(&digest))
                .map(|pp| pp.payload.batch.clone())
                .expect("committed_digest checked presence");
            outputs.push(CompartmentOutput::Committed { seq: next, digest });

            for req in &batch.requests {
                outputs.extend(self.execute_request(next, req));
            }
            // Sealed persistence of application blobs (blockchain blocks):
            // one ocall per blob, as in the paper's evaluation.
            for blob in self.app.drain_persist() {
                let nonce = self.seal_nonce;
                self.seal_nonce += 1;
                let sealed = splitbft_tee::seal::seal_data(
                    &self.seal_identity,
                    nonce,
                    b"splitbft-block",
                    &blob,
                );
                outputs.push(CompartmentOutput::Persist(Bytes::from(sealed)));
            }
            self.slots.remove(&next);
            self.last_exec = next;

            if next.0 % self.config.checkpoint_interval == 0 {
                outputs.extend(self.emit_checkpoint(next));
            }
        }
        outputs
    }

    /// Crash recovery: re-executes a batch whose commit point was made
    /// durable before the crash. Strictly sequential and quorum-free —
    /// the WAL record *is* the evidence the quorum existed — and emits
    /// only the execution-observability outputs (the broker discards
    /// them during replay anyway).
    fn replay_committed(&mut self, seq: SeqNum, batch: &RequestBatch) -> Vec<CompartmentOutput> {
        if seq != self.last_exec.next() {
            return Vec::new(); // stale or gapped record: replay skips it
        }
        let mut outputs = Vec::new();
        for req in &batch.requests {
            outputs.extend(self.execute_request(seq, req));
        }
        for blob in self.app.drain_persist() {
            let nonce = self.seal_nonce;
            self.seal_nonce += 1;
            let sealed =
                splitbft_tee::seal::seal_data(&self.seal_identity, nonce, b"splitbft-block", &blob);
            outputs.push(CompartmentOutput::Persist(Bytes::from(sealed)));
        }
        self.slots.remove(&seq);
        self.last_exec = seq;
        outputs
    }

    fn execute_request(&mut self, seq: SeqNum, req: &Request) -> Vec<CompartmentOutput> {
        let client = req.client();
        let mut outputs = Vec::new();
        match self.last_replies.get(&client) {
            Some(cached) if cached.request.timestamp == req.id.timestamp => {
                return vec![CompartmentOutput::SendReply { to: client, reply: cached.clone() }];
            }
            Some(cached) if cached.request.timestamp > req.id.timestamp => return outputs,
            _ => {}
        }
        // Re-verify the client MAC inside the trusted boundary: the
        // Preparation compartment checked it, but per the fault model a
        // faulty Preparation enclave could have laundered a forged
        // request into the batch. Corrupt requests execute as no-ops
        // (§4: "the Execution Compartment will detect this and execute a
        // no-op instead").
        let mac = self.client_keys.get(client);
        let authentic =
            mac.verify(&Request::auth_bytes(req.id, &req.op, req.encrypted), &req.auth);

        let (plaintext, session) = if !authentic {
            (None, None)
        } else if req.encrypted {
            match self.session_keys.get(&client) {
                Some(key) => (
                    open(key, req.id.timestamp.0, REQ_AAD, &req.op).ok(),
                    Some(key.clone()),
                ),
                None => (None, None),
            }
        } else {
            (Some(req.op.to_vec()), None)
        };

        let result = match plaintext {
            Some(op) => self.app.execute(&op),
            None => Bytes::from_static(splitbft_app::NOOP_RESULT),
        };

        // Encrypt the result for the client when a session exists; the
        // deterministic nonce (the request timestamp) makes every correct
        // replica produce the same ciphertext, so reply quorums match.
        let (result, encrypted) = match session {
            Some(key) => (
                Bytes::from(seal(&key, req.id.timestamp.0, REPLY_AAD, &result)),
                true,
            ),
            None => (result, false),
        };
        let auth = mac.tag(&Reply::auth_bytes(self.view, req.id, self.replica, &result, encrypted));
        let reply =
            Reply { view: self.view, request: req.id, replica: self.replica, result, encrypted, auth };
        self.last_replies.insert(client, reply.clone());
        outputs.push(CompartmentOutput::Executed { seq, request: req.id });
        outputs.push(CompartmentOutput::SendReply { to: client, reply });
        outputs
    }

    // --- checkpointing -----------------------------------------------------

    /// Canonical checkpoint state: application snapshot plus the
    /// replica-independent reply cache (client, timestamp, result).
    fn checkpoint_state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let snapshot = self.app.snapshot();
        (snapshot.len() as u32).encode(&mut buf);
        buf.extend_from_slice(&snapshot);
        let replies: Vec<(ClientId, Timestamp, Bytes)> = self
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
        let replies: Vec<(ClientId, Timestamp, Bytes)> = Vec::decode(&mut r)?;
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
                let mac = self.client_keys.get(client);
                // Restored results may be ciphertexts from the encrypted
                // path; mark them non-encrypted for the resend MAC — the
                // result bytes are replayed verbatim either way.
                let auth =
                    mac.tag(&Reply::auth_bytes(self.view, request, self.replica, &result, false));
                (
                    client,
                    Reply {
                        view: self.view,
                        request,
                        replica: self.replica,
                        result,
                        encrypted: false,
                        auth,
                    },
                )
            })
            .collect();
        Ok(())
    }

    /// Handler (8): generate the periodic checkpoint. Only Execution
    /// holds the application state, so only it originates `Checkpoint`s.
    fn emit_checkpoint(&mut self, seq: SeqNum) -> Vec<CompartmentOutput> {
        let state = self.checkpoint_state_bytes();
        let ckpt = Checkpoint {
            seq,
            state_digest: digest_bytes(&state),
            replica: self.replica,
            snapshot: state.into(),
        };
        let signed = self.keypair.sign_payload(ckpt, self.signer);
        let mut outputs = Vec::new();
        if let Some(cert) = self.checkpoints.insert(signed.clone(), &self.config) {
            outputs.extend(self.apply_stable(cert.seq()));
        }
        outputs.push(CompartmentOutput::Broadcast(ConsensusMessage::Checkpoint(signed)));
        outputs
    }

    /// Duplicated handler (9).
    fn on_checkpoint(
        &mut self,
        c: Signed<Checkpoint>,
    ) -> Result<Vec<CompartmentOutput>, ProtocolError> {
        verify_signed_from(&self.registry, &c, (SPLITBFT_SCHEME.executor)(c.payload.replica))?;
        if !self.config.contains(c.payload.replica) {
            return Err(ProtocolError::UnknownReplica(c.payload.replica));
        }
        let mut outputs = Vec::new();
        if let Some(cert) = self.checkpoints.insert(c, &self.config) {
            let seq = cert.seq();
            // State transfer if this enclave fell behind.
            if self.last_exec < seq {
                if let Some(snapshot) = splitbft_pbft::verify::certified_snapshot(&cert) {
                    if self.restore_checkpoint_state(snapshot).is_ok() {
                        self.last_exec = seq;
                    }
                }
            }
            outputs.extend(self.apply_stable(seq));
        }
        Ok(outputs)
    }

    fn apply_stable(&mut self, seq: SeqNum) -> Vec<CompartmentOutput> {
        self.slots = self.slots.split_off(&SeqNum(seq.0 + 1));
        vec![CompartmentOutput::StableCheckpoint { seq }]
    }

    /// Handler (7'): apply the checkpoint and the view from a `NewView`;
    /// the re-issued `PrePrepare`s are adopted as candidate proposals but
    /// not validated (commit quorums will vouch for them).
    fn on_new_view(
        &mut self,
        nv: Signed<NewView>,
    ) -> Result<Vec<CompartmentOutput>, ProtocolError> {
        let target = nv.payload.view;
        if target <= self.view {
            return Err(ProtocolError::WrongView { got: target, current: self.view });
        }
        let primary = target.primary(&self.config);
        verify_signed_from(&self.registry, &nv, (SPLITBFT_SCHEME.proposer)(primary))?;

        let mut voters = std::collections::BTreeSet::new();
        for vc in &nv.payload.view_changes {
            if vc.payload.new_view != target {
                continue;
            }
            if verify_signed_from(
                &self.registry,
                vc,
                (SPLITBFT_SCHEME.confirmer)(vc.payload.replica),
            )
            .is_ok()
            {
                voters.insert(vc.payload.replica);
            }
        }
        if voters.len() < self.config.quorum() {
            return Err(ProtocolError::BadCertificate { kind: "NewView view-change quorum" });
        }

        if let Some(ckpt) = nv.payload.max_checkpoint() {
            splitbft_pbft::verify::verify_checkpoint_certificate(
                &self.registry,
                ckpt,
                &self.config,
                &SPLITBFT_SCHEME,
            )?;
            let seq = ckpt.seq();
            if seq > self.checkpoints.stable_seq() {
                if self.last_exec < seq {
                    if let Some(snapshot) = splitbft_pbft::verify::certified_snapshot(ckpt) {
                        if self.restore_checkpoint_state(snapshot).is_ok() {
                            self.last_exec = seq;
                        }
                    }
                }
                self.checkpoints.install_certificate(ckpt.clone());
                self.apply_stable(seq);
            }
        }

        self.view = target;
        self.slots.clear();
        for pp in nv.payload.pre_prepares {
            if pp.payload.view == target
                && self.in_window(pp.payload.seq)
                && digest_of(&pp.payload.batch) == pp.payload.digest
            {
                self.slots
                    .entry(pp.payload.seq)
                    .or_default()
                    .proposals
                    .insert(pp.payload.digest, pp);
            }
        }
        Ok(vec![CompartmentOutput::EnteredView(target)])
    }

    // --- attestation / session keys ----------------------------------------

    /// Installs a client session key wrapped under the DH shared secret
    /// (the tail end of the attestation handshake).
    fn on_install_session_key(
        &mut self,
        client: ClientId,
        client_dh_public: u64,
        wrapped_key: &[u8],
    ) -> Result<Vec<CompartmentOutput>, ProtocolError> {
        let shared = dh_shared(self.dh_secret, client_dh_public);
        let wrap_key = AeadKey::new(&digest_bytes(&shared.to_le_bytes()).0);
        let mut aad = b"session-key:".to_vec();
        client.encode(&mut aad);
        let key_bytes = open(&wrap_key, WRAP_NONCE, &aad, wrapped_key)
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "wrapped session key" })?;
        let key_bytes: [u8; 32] = key_bytes
            .try_into()
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "session key length" })?;
        self.session_keys.insert(client, AeadKey::new(&key_bytes));
        Ok(Vec::new())
    }
}

impl<A: Application> std::fmt::Debug for ExecutionCompartment<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionCompartment")
            .field("replica", &self.replica)
            .field("view", &self.view)
            .field("last_exec", &self.last_exec)
            .finish_non_exhaustive()
    }
}
