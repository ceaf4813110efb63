//! The hybrid replica state machine (normal-case MinBFT).

use crate::config::HybridConfig;
use crate::message::{HybridCommit, HybridMessage, HybridPrepare};
use crate::usig::{UsigTrait, UsigVerifier};
use splitbft_app::Application;
use splitbft_crypto::{digest_bytes, digest_of, ClientKeys};
use splitbft_types::wire::{Decode, Encode, Reader};
use splitbft_types::{
    ClientId, Digest, DurableCheckpoint, DurableEvent, ProtocolError, ReplicaId, Reply, Request,
    RequestBatch, RequestId, SeqNum, Timestamp, View,
};
use std::collections::BTreeMap;

/// How many executions between durable snapshots. The hybrid has no
/// checkpoint *messages* (its log is implicitly bounded by sequential
/// execution), so the durability plane snapshots locally at this cadence
/// to bound WAL replay length and give state transfer a discrete,
/// cluster-wide agreed-upon point (every replica snapshots at the same
/// counter values).
const HYBRID_CHECKPOINT_INTERVAL: u64 = 64;

/// Effects requested by a [`HybridReplica`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridAction {
    /// Send to every other replica.
    Broadcast(HybridMessage),
    /// Deliver a reply to a client.
    SendReply {
        /// Destination client.
        to: ClientId,
        /// The authenticated reply.
        reply: Reply,
    },
    /// Persist an application blob.
    Persist(bytes::Bytes),
    /// Observability: the batch at this primary counter executed.
    Executed {
        /// The agreement slot (primary counter value).
        counter: u64,
    },
}

#[derive(Debug, Default)]
struct HybridSlot {
    batch: Option<RequestBatch>,
    digest: Option<Digest>,
    /// Committing replicas (the primary's prepare counts as its commit).
    committers: BTreeMap<ReplicaId, ()>,
}

/// A replica of the hybrid protocol.
///
/// Generic over the trusted counter so the fault-model experiments can
/// swap in a [`crate::usig::FaultyUsig`].
pub struct HybridReplica<A, U> {
    config: HybridConfig,
    id: ReplicaId,
    view: View,
    usig: U,
    verifier: UsigVerifier,
    client_keys: ClientKeys,
    slots: BTreeMap<u64, HybridSlot>,
    last_exec: u64,
    app: A,
    last_replies: BTreeMap<ClientId, Reply>,
    /// Latest durable snapshot `(counter, state bytes)`, refreshed every
    /// [`HYBRID_CHECKPOINT_INTERVAL`] executions while durable events
    /// are enabled.
    last_snapshot: Option<(u64, Vec<u8>)>,
    /// Durable consensus events buffered for a durable runtime's WAL.
    durable: Vec<DurableEvent>,
    durable_enabled: bool,
}

impl<A: Application, U: UsigTrait> HybridReplica<A, U> {
    /// Creates replica `id` with its trusted counter `usig`.
    pub fn new(config: HybridConfig, id: ReplicaId, master_seed: u64, usig: U, app: A) -> Self {
        let verifier = UsigVerifier::new(master_seed, config.replicas());
        HybridReplica {
            config,
            id,
            view: View::initial(),
            usig,
            verifier,
            client_keys: ClientKeys::new(master_seed),
            slots: BTreeMap::new(),
            last_exec: 0,
            app,
            last_replies: BTreeMap::new(),
            last_snapshot: None,
            durable: Vec::new(),
            durable_enabled: false,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// `true` if this replica is the primary.
    pub fn is_primary(&self) -> bool {
        self.config.primary(self.view) == self.id
    }

    /// Highest executed slot (primary counter value).
    pub fn last_executed(&self) -> u64 {
        self.last_exec
    }

    /// Read access to the application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the trusted counter — used by the fault-model
    /// experiments to compromise it (e.g. roll a
    /// [`crate::usig::FaultyUsig`] back).
    pub fn usig_mut(&mut self) -> &mut U {
        &mut self.usig
    }

    /// Digest of the application state, for divergence checks in tests
    /// and experiments.
    pub fn state_digest(&self) -> Digest {
        splitbft_crypto::digest_bytes(&self.app.snapshot())
    }

    /// Primary: order a batch of client requests.
    pub fn on_client_batch(&mut self, requests: Vec<Request>) -> Vec<HybridAction> {
        let mut actions = Vec::new();
        if !self.is_primary() {
            return actions;
        }
        let fresh: Vec<Request> = requests
            .into_iter()
            .filter(|r| self.client_keys.verify_request(r))
            .filter(|r| {
                self.last_replies
                    .get(&r.client())
                    .map_or(true, |cached| cached.request.timestamp < r.id.timestamp)
            })
            .collect();
        if fresh.is_empty() {
            return actions;
        }
        let batch = RequestBatch::new(fresh);
        let digest = digest_of(&batch);
        let ui = self.usig.create_ui(&digest);
        let counter = ui.counter;
        self.record(|| DurableEvent::CounterIssued { counter });

        let slot = self.slots.entry(counter).or_default();
        slot.batch = Some(batch.clone());
        slot.digest = Some(digest);
        slot.committers.insert(self.id, ());

        actions.push(HybridAction::Broadcast(HybridMessage::Prepare(HybridPrepare {
            view: self.view,
            batch,
            ui,
        })));
        actions.extend(self.try_execute());
        actions
    }

    /// Handles one protocol message.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`]; USIG violations surface as
    /// [`ProtocolError::BadAuthenticator`].
    pub fn on_message(&mut self, msg: HybridMessage) -> Result<Vec<HybridAction>, ProtocolError> {
        match msg {
            HybridMessage::Prepare(p) => self.handle_prepare(p),
            HybridMessage::Commit(c) => self.handle_commit(c),
        }
    }

    fn handle_prepare(&mut self, p: HybridPrepare) -> Result<Vec<HybridAction>, ProtocolError> {
        if p.view != self.view {
            return Err(ProtocolError::WrongView { got: p.view, current: self.view });
        }
        let primary = self.config.primary(p.view);
        if primary == self.id {
            return Err(ProtocolError::Other("primary received its own prepare".into()));
        }
        let digest = p.batch_digest();
        self.verifier
            .verify(primary, &digest, &p.ui)
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "USIG on prepare" })?;
        if !self.client_keys.verify_batch(&p.batch.requests) {
            return Err(ProtocolError::BadAuthenticator { kind: "request in hybrid batch" });
        }

        let counter = p.ui.counter;
        let slot = self.slots.entry(counter).or_default();
        slot.batch = Some(p.batch);
        slot.digest = Some(digest);
        slot.committers.insert(primary, ());

        // This backup's commit, sealed by its own counter.
        let mut commit = HybridCommit {
            view: self.view,
            replica: self.id,
            primary_counter: counter,
            batch_digest: digest,
            ui: crate::usig::UsigUi { counter: 0, signature: splitbft_types::Signature::ZERO },
        };
        commit.ui = self.usig.create_ui(&commit.commit_digest());
        let issued = commit.ui.counter;
        self.record(|| DurableEvent::CounterIssued { counter: issued });
        self.slots.entry(counter).or_default().committers.insert(self.id, ());

        let mut actions = vec![HybridAction::Broadcast(HybridMessage::Commit(commit))];
        actions.extend(self.try_execute());
        Ok(actions)
    }

    fn handle_commit(&mut self, c: HybridCommit) -> Result<Vec<HybridAction>, ProtocolError> {
        if c.view != self.view {
            return Err(ProtocolError::WrongView { got: c.view, current: self.view });
        }
        if !self.config.contains(c.replica) {
            return Err(ProtocolError::UnknownReplica(c.replica));
        }
        self.verifier
            .verify(c.replica, &c.commit_digest(), &c.ui)
            .map_err(|_| ProtocolError::BadAuthenticator { kind: "USIG on commit" })?;

        let slot = self.slots.entry(c.primary_counter).or_default();
        // A commit only counts toward slots whose digest it matches;
        // commits for unknown slots park the digest for later comparison.
        match slot.digest {
            Some(d) if d != c.batch_digest => {
                return Err(ProtocolError::BadCertificate { kind: "hybrid commit digest" })
            }
            _ => {}
        }
        slot.committers.insert(c.replica, ());
        Ok(self.try_execute())
    }

    fn try_execute(&mut self) -> Vec<HybridAction> {
        let mut actions = Vec::new();
        loop {
            let next = self.last_exec + 1;
            let ready = self.slots.get(&next).map_or(false, |s| {
                s.batch.is_some() && s.committers.len() >= self.config.commit_quorum()
            });
            if !ready {
                break;
            }
            let batch = self.slots.get(&next).and_then(|s| s.batch.clone()).expect("checked");
            self.record(|| DurableEvent::Committed {
                seq: SeqNum(next),
                batch: batch.clone(),
            });
            for req in &batch.requests {
                let client = req.client();
                match self.last_replies.get(&client) {
                    Some(cached) if cached.request.timestamp == req.id.timestamp => {
                        actions.push(HybridAction::SendReply { to: client, reply: cached.clone() });
                        continue;
                    }
                    Some(cached) if cached.request.timestamp > req.id.timestamp => continue,
                    _ => {}
                }
                let result = self.app.execute(&req.op);
                let key = self.client_keys.get(client);
                let auth =
                    key.tag(&Reply::auth_bytes(self.view, req.id, self.id, &result, false));
                let reply = Reply {
                    view: self.view,
                    request: req.id,
                    replica: self.id,
                    result,
                    encrypted: false,
                    auth,
                };
                self.last_replies.insert(client, reply.clone());
                actions.push(HybridAction::SendReply { to: client, reply });
            }
            for blob in self.app.drain_persist() {
                actions.push(HybridAction::Persist(blob));
            }
            self.slots.remove(&next);
            self.last_exec = next;
            actions.push(HybridAction::Executed { counter: next });
            self.maybe_snapshot(next);
        }
        actions
    }

    // --- durability --------------------------------------------------------

    /// Records `event` if a durable runtime opted in (the closure keeps
    /// disabled replicas from even building the event).
    fn record(&mut self, event: impl FnOnce() -> DurableEvent) {
        if self.durable_enabled {
            self.durable.push(event());
        }
    }

    /// Takes the periodic durable snapshot at interval boundaries.
    fn maybe_snapshot(&mut self, executed: u64) {
        if !self.durable_enabled || executed % HYBRID_CHECKPOINT_INTERVAL != 0 {
            return;
        }
        self.last_snapshot = Some((executed, self.checkpoint_state_bytes()));
        self.durable.push(DurableEvent::StableCheckpoint { seq: SeqNum(executed) });
    }

    /// Canonical snapshot bytes: application snapshot plus the
    /// replica-independent core of the reply cache
    /// `(client, timestamp, result)` — identical on every correct
    /// replica at the same counter value, which is what lets a
    /// recovering replica demand `f + 1` peer agreement on the digest.
    fn checkpoint_state_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let snapshot = self.app.snapshot();
        (snapshot.len() as u32).encode(&mut buf);
        buf.extend_from_slice(&snapshot);
        let replies: Vec<(ClientId, Timestamp, bytes::Bytes)> = self
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
        let replies: Vec<(ClientId, Timestamp, bytes::Bytes)> = Vec::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(ProtocolError::CorruptState("trailing snapshot bytes".into()));
        }
        self.app
            .restore(&snapshot)
            .map_err(|e| ProtocolError::CorruptState(format!("snapshot restore failed: {e}")))?;
        self.last_replies = replies
            .into_iter()
            .map(|(client, timestamp, result)| {
                let request = RequestId { client, timestamp };
                let key = self.client_keys.get(client);
                let auth =
                    key.tag(&Reply::auth_bytes(self.view, request, self.id, &result, false));
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
        Ok(())
    }

    /// Starts recording durable consensus events.
    pub fn enable_durable_events(&mut self) {
        self.durable_enabled = true;
    }

    /// Drains the durable events recorded since the last drain.
    pub fn drain_durable_events(&mut self) -> Vec<DurableEvent> {
        std::mem::take(&mut self.durable)
    }

    /// Replays one WAL event during crash recovery.
    ///
    /// `CounterIssued` is the safety-critical one: it advances the
    /// restored trusted counter past every value the pre-crash replica
    /// ever signed with, so the restart cannot equivocate — the paper's
    /// sealed-counter recovery. `Committed` re-executes batches beyond
    /// the last snapshot.
    pub fn replay_durable_event(&mut self, event: DurableEvent) {
        // Replay only happens during crash recovery, and recovery means
        // this replica's verifier windows are stale: re-anchor them on
        // the first live message from each peer (see
        // [`UsigVerifier::resync`]). Idempotent, and recovery precedes
        // networking, so repeating it per event is harmless.
        self.verifier.resync();
        match event {
            DurableEvent::CounterIssued { counter } => self.usig.advance_to(counter),
            DurableEvent::Committed { seq, batch } => {
                if seq.0 == self.last_exec + 1 {
                    self.execute_batch_quietly(&batch);
                    self.last_exec = seq.0;
                }
            }
            _ => {}
        }
    }

    /// Executes a replayed batch without emitting actions (replies are
    /// cached for duplicate suppression, but nobody is listening yet).
    fn execute_batch_quietly(&mut self, batch: &RequestBatch) {
        for req in &batch.requests {
            let client = req.client();
            if self
                .last_replies
                .get(&client)
                .is_some_and(|cached| cached.request.timestamp >= req.id.timestamp)
            {
                continue;
            }
            let result = self.app.execute(&req.op);
            let key = self.client_keys.get(client);
            let auth = key.tag(&Reply::auth_bytes(self.view, req.id, self.id, &result, false));
            let reply = Reply {
                view: self.view,
                request: req.id,
                replica: self.id,
                result,
                encrypted: false,
                auth,
            };
            self.last_replies.insert(client, reply);
        }
        let _ = self.app.drain_persist();
    }

    /// The latest durable snapshot, if one was taken.
    pub fn durable_checkpoint(&self) -> Option<DurableCheckpoint> {
        let (seq, state) = self.last_snapshot.as_ref()?;
        Some(DurableCheckpoint {
            seq: SeqNum(*seq),
            digest: digest_bytes(state),
            state: bytes::Bytes::from(state.clone()),
        })
    }

    /// Restores from a snapshot produced by
    /// [`HybridReplica::durable_checkpoint`] — locally unsealed, or
    /// agreed on by `f + 1` peers (the hybrid has no self-authenticating
    /// checkpoint certificates, so peer agreement *is* the trust
    /// anchor). Re-anchors the USIG verifier windows afterwards: the
    /// counters this replica saw before crashing are gone with its
    /// memory.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CorruptState`] when the bytes do not hash to the
    /// claimed digest or fail to decode.
    pub fn restore_durable_checkpoint(
        &mut self,
        cp: &DurableCheckpoint,
    ) -> Result<(), ProtocolError> {
        if digest_bytes(&cp.state) != cp.digest {
            return Err(ProtocolError::CorruptState(
                "snapshot bytes do not hash to the claimed digest".into(),
            ));
        }
        if cp.seq.0 <= self.last_exec {
            return Ok(()); // already at or past the snapshot
        }
        self.restore_checkpoint_state(&cp.state)?;
        self.last_exec = cp.seq.0;
        self.slots = self.slots.split_off(&(cp.seq.0 + 1));
        self.last_snapshot = Some((cp.seq.0, cp.state.to_vec()));
        self.verifier.resync();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usig::{FaultyUsig, Usig};
    use splitbft_crypto::client_mac_key;
    use bytes::Bytes;
    use splitbft_app::CounterApp;
    use splitbft_types::Timestamp;

    const SEED: u64 = 77;

    type R = HybridReplica<CounterApp, Usig>;

    fn cluster(n: usize) -> Vec<R> {
        let cfg = HybridConfig::new(n).unwrap();
        (0..n as u32)
            .map(|i| {
                HybridReplica::new(
                    cfg.clone(),
                    ReplicaId(i),
                    SEED,
                    Usig::new(SEED, ReplicaId(i)),
                    CounterApp::new(),
                )
            })
            .collect()
    }

    fn request(client: u32, ts: u64) -> Request {
        let id = splitbft_types::RequestId { client: ClientId(client), timestamp: Timestamp(ts) };
        let op = Bytes::from_static(b"inc");
        let key = client_mac_key(SEED, ClientId(client));
        let auth = key.tag(&Request::auth_bytes(id, &op, false));
        Request { id, op, encrypted: false, auth }
    }

    fn pump(replicas: &mut [R], mut inbox: Vec<(usize, HybridMessage)>) -> Vec<Reply> {
        let mut replies = Vec::new();
        while let Some((to, msg)) = inbox.pop() {
            let actions = replicas[to].on_message(msg).unwrap_or_default();
            for a in actions {
                match a {
                    HybridAction::Broadcast(m) => {
                        for (i, _) in replicas.iter().enumerate() {
                            if i != to {
                                inbox.push((i, m.clone()));
                            }
                        }
                    }
                    HybridAction::SendReply { reply, .. } => replies.push(reply),
                    _ => {}
                }
            }
        }
        replies
    }

    #[test]
    fn three_replicas_commit_and_execute() {
        let mut replicas = cluster(3);
        let actions = replicas[0].on_client_batch(vec![request(0, 1)]);
        let prepare = actions
            .iter()
            .find_map(|a| match a {
                HybridAction::Broadcast(m) => Some(m.clone()),
                _ => None,
            })
            .expect("prepare broadcast");
        let replies = pump(&mut replicas, vec![(1, prepare.clone()), (2, prepare)]);

        for r in &replicas {
            assert_eq!(r.last_executed(), 1, "replica {} executed", r.id());
            assert_eq!(r.app().value(), 1);
        }
        // Replies from all three replicas (primary executes on quorum of
        // commits arriving back).
        assert!(replies.len() >= 2);
    }

    #[test]
    fn forged_request_rejected() {
        let mut replicas = cluster(3);
        let mut req = request(0, 1);
        req.auth = [0; 32];
        let actions = replicas[0].on_client_batch(vec![req]);
        assert!(actions.is_empty());
    }

    #[test]
    fn equivocation_blocked_by_genuine_usig() {
        // With a genuine counter, the primary physically cannot produce
        // two prepares with the same counter: the second create_ui call
        // advances the counter, and backups reject the gap/out-of-order.
        let mut replicas = cluster(3);
        let a1 = replicas[0].on_client_batch(vec![request(0, 1)]);
        let p1 = a1.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();
        let a2 = replicas[0].on_client_batch(vec![request(1, 1)]);
        let p2 = a2.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();
        assert_ne!(p1.ui.counter, p2.ui.counter, "counters are unique");

        // Delivering p2 before p1 is rejected (gap); p1 then p2 is fine.
        assert!(replicas[1].on_message(HybridMessage::Prepare(p2.clone())).is_err());
        assert!(replicas[1].on_message(HybridMessage::Prepare(p1)).is_ok());
        assert!(replicas[1].on_message(HybridMessage::Prepare(p2)).is_ok());
    }

    #[test]
    fn compromised_usig_breaks_safety() {
        // The Table 1 scenario: the primary's "trusted" counter is
        // compromised and rolled back, producing two conflicting batches
        // under the same counter. Disjoint backups each accept one —
        // divergent execution, a safety violation PBFT-with-3f+1 would
        // have prevented.
        let cfg = HybridConfig::new(3).unwrap();
        let mut evil_primary = HybridReplica::new(
            cfg.clone(),
            ReplicaId(0),
            SEED,
            FaultyUsig::new(SEED, ReplicaId(0)),
            CounterApp::new(),
        );
        let mk_backup = |i: u32| {
            HybridReplica::new(
                cfg.clone(),
                ReplicaId(i),
                SEED,
                Usig::new(SEED, ReplicaId(i)),
                CounterApp::new(),
            )
        };
        let mut r1 = mk_backup(1);
        let mut r2 = mk_backup(2);

        let a1 = evil_primary.on_client_batch(vec![request(0, 1)]);
        let p_a = a1.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();

        // Roll the counter back and order a *different* batch under the
        // same counter value.
        evil_primary.usig.rollback(1);
        let a2 = evil_primary.on_client_batch(vec![request(1, 1)]);
        let p_b = a2.iter().find_map(|a| match a {
            HybridAction::Broadcast(HybridMessage::Prepare(p)) => Some(p.clone()),
            _ => None,
        }).unwrap();
        assert_eq!(p_a.ui.counter, p_b.ui.counter);
        assert_ne!(p_a.batch_digest(), p_b.batch_digest());

        // r1 sees batch A, r2 sees batch B; both execute immediately
        // (own commit + primary's prepare = f+1 = 2).
        r1.on_message(HybridMessage::Prepare(p_a)).unwrap();
        r2.on_message(HybridMessage::Prepare(p_b)).unwrap();
        assert_eq!(r1.last_executed(), 1);
        assert_eq!(r2.last_executed(), 1);
        // Divergent state at the same slot: safety violated.
        // (Both executed "inc" from different clients here, so check the
        // reply bindings rather than the counter value: the slot's batch
        // digests differed.)
        assert_ne!(
            r1.last_replies.keys().collect::<Vec<_>>(),
            r2.last_replies.keys().collect::<Vec<_>>(),
            "replicas executed different requests at the same slot"
        );
    }

    #[test]
    fn five_replica_cluster_needs_three_commits() {
        let mut replicas = cluster(5);
        let actions = replicas[0].on_client_batch(vec![request(0, 1)]);
        let prepare = actions.iter().find_map(|a| match a {
            HybridAction::Broadcast(m) => Some(m.clone()),
            _ => None,
        }).unwrap();

        // Deliver the prepare to one backup only: primary+r1 = 2 < 3.
        let HybridMessage::Prepare(_) = &prepare else { panic!() };
        let acts = replicas[1].on_message(prepare.clone()).unwrap();
        assert_eq!(replicas[1].last_executed(), 0, "2 of 3 commits is not enough");

        // Deliver r1's commit to nobody; give the prepare to r2: now r2
        // has primary+own = 2 < 3 as well.
        let _ = acts;
        replicas[2].on_message(prepare).unwrap();
        assert_eq!(replicas[2].last_executed(), 0);
    }
}
