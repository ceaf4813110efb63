//! Key pairs, the cluster-wide public-key registry, and helpers to sign
//! and verify [`Signed`] protocol messages.
//!
//! The paper assumes "each enclave has a public and private key pair and
//! that private keys of correct enclaves cannot be derived by either the
//! environment or other enclaves on the same replica", with all public keys
//! known to all participants. [`KeyRegistry`] models that public knowledge;
//! secret keys live inside the enclaves (see `splitbft-tee`).

use crate::hmac::{verify_tag_batch, MacKey};
use crate::sig::{SecretKey, SigPublicKey};
use splitbft_types::message::MessagePayload;
use splitbft_types::{ClientId, ProtocolError, PublicKey, Request, Signature, Signed, SignerId};
use std::collections::HashMap;

/// A signing key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
    public: SigPublicKey,
}

impl KeyPair {
    /// Deterministically derives a key pair from a seed (the simulated
    /// provisioning step).
    pub fn from_seed(seed: u64) -> Self {
        let secret = SecretKey::from_seed(seed);
        let public = secret.public();
        KeyPair { secret, public }
    }

    /// Derives the canonical key pair for a signer identity under a
    /// cluster master seed. All test and simulation deployments use this
    /// so that every party can compute everyone's *public* key while
    /// secret keys stay with their owner.
    pub fn for_signer(master_seed: u64, signer: SignerId) -> Self {
        let mut buf = vec![];
        use splitbft_types::wire::Encode;
        signer.encode(&mut buf);
        let mut acc = master_seed;
        for b in buf {
            acc = acc.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
        }
        KeyPair::from_seed(acc)
    }

    /// This pair's public key in wire form.
    pub fn public_key(&self) -> PublicKey {
        self.public.to_wire()
    }

    /// Signs raw bytes.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.secret.sign_with_public(msg, self.public)
    }

    /// Verifies raw bytes against a wire-form public key.
    #[must_use]
    pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        match SigPublicKey::from_wire(pk) {
            Some(p) => p.verify(msg, sig),
            None => false,
        }
    }

    /// Signs a protocol payload, producing a [`Signed`] envelope attributed
    /// to `signer`.
    pub fn sign_payload<T: MessagePayload>(&self, payload: T, signer: SignerId) -> Signed<T> {
        let bytes = Signed::signing_bytes(&payload);
        let signature = self.sign(&bytes);
        Signed::new(payload, signer, signature)
    }
}

/// Derives the MAC key shared between one client and the replicas (in
/// SplitBFT: the Execution compartments). In the paper this key is
/// installed during attestation; simulated deployments derive it from the
/// cluster master seed so that both sides can compute it.
pub fn client_mac_key(master_seed: u64, client: ClientId) -> MacKey {
    let mut context = b"client-mac:".to_vec();
    context.extend_from_slice(&client.0.to_le_bytes());
    MacKey::derive(&master_seed.to_le_bytes(), &context)
}

/// The replica side of client authentication: every client's MAC key under
/// one master seed, each derived once and then served from a bounded
/// cache.
///
/// The cache holds at most [`ClientKeys::CAPACITY`] keys and clears itself
/// when a new client would overflow it, so a flood of fresh client ids
/// costs at most one key derivation per request and never unbounded
/// memory.
pub struct ClientKeys {
    master_seed: u64,
    keys: HashMap<ClientId, MacKey>,
}

impl ClientKeys {
    /// The most keys held at once.
    pub const CAPACITY: usize = 1024;

    /// An empty cache for the clients of `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        ClientKeys { master_seed, keys: HashMap::new() }
    }

    /// `client`'s MAC key, equal to `client_mac_key(master_seed, client)`.
    pub fn get(&mut self, client: ClientId) -> &MacKey {
        if self.keys.len() >= Self::CAPACITY && !self.keys.contains_key(&client) {
            self.keys.clear();
        }
        let seed = self.master_seed;
        self.keys.entry(client).or_insert_with(|| client_mac_key(seed, client))
    }

    /// Checks a request's client MAC.
    #[must_use]
    pub fn verify_request(&mut self, req: &Request) -> bool {
        self.get(req.client())
            .verify(&Request::auth_bytes(req.id, &req.op, req.encrypted), &req.auth)
    }

    /// Checks every request's client MAC with one decision for the whole
    /// batch ([`verify_tag_batch`]); callers reject the batch on failure,
    /// so no per-request verdict is needed.
    #[must_use]
    pub fn verify_batch(&mut self, requests: &[Request]) -> bool {
        verify_tag_batch(requests.iter().map(|req| {
            let tag = self
                .get(req.client())
                .tag(&Request::auth_bytes(req.id, &req.op, req.encrypted));
            (tag, req.auth)
        }))
    }
}

/// The cluster-wide registry of public keys, indexed by signer identity.
///
/// Every replica, enclave, and client registers its public key here at
/// provisioning time; verification then needs only the registry.
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: HashMap<SignerId, PublicKey>,
}

impl KeyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `signer`'s public key.
    pub fn register(&mut self, signer: SignerId, key: PublicKey) {
        self.keys.insert(signer, key);
    }

    /// Looks up a signer's public key.
    pub fn get(&self, signer: SignerId) -> Option<&PublicKey> {
        self.keys.get(&signer)
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies a signed protocol message against the signer's registered
    /// key.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadAuthenticator`] if the signer is unknown or the
    /// signature does not verify.
    pub fn verify_signed<T: MessagePayload>(
        &self,
        msg: &Signed<T>,
    ) -> Result<(), ProtocolError> {
        let pk = self
            .get(msg.signer)
            .ok_or(ProtocolError::BadAuthenticator { kind: std::any::type_name::<T>() })?;
        let bytes = Signed::signing_bytes(&msg.payload);
        if KeyPair::verify(pk, &bytes, &msg.signature) {
            Ok(())
        } else {
            Err(ProtocolError::BadAuthenticator { kind: std::any::type_name::<T>() })
        }
    }

    /// Builds the canonical registry for a deployment: registers the given
    /// signers' deterministic keys under `master_seed`.
    pub fn with_signers(master_seed: u64, signers: impl IntoIterator<Item = SignerId>) -> Self {
        let mut reg = KeyRegistry::new();
        for signer in signers {
            let kp = KeyPair::for_signer(master_seed, signer);
            reg.register(signer, kp.public_key());
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitbft_types::{Digest, Prepare, ReplicaId, SeqNum, View};

    fn prepare(replica: u32) -> Prepare {
        Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::from_bytes([1u8; 32]),
            replica: ReplicaId(replica),
        }
    }

    #[test]
    fn sign_and_verify_payload_through_registry() {
        let signer = SignerId::Replica(ReplicaId(1));
        let kp = KeyPair::for_signer(99, signer);
        let mut reg = KeyRegistry::new();
        reg.register(signer, kp.public_key());

        let signed = kp.sign_payload(prepare(1), signer);
        assert!(reg.verify_signed(&signed).is_ok());
    }

    #[test]
    fn registry_rejects_unknown_signer() {
        let signer = SignerId::Replica(ReplicaId(1));
        let kp = KeyPair::for_signer(99, signer);
        let reg = KeyRegistry::new();
        let signed = kp.sign_payload(prepare(1), signer);
        assert!(matches!(
            reg.verify_signed(&signed),
            Err(ProtocolError::BadAuthenticator { .. })
        ));
    }

    #[test]
    fn registry_rejects_forged_payload() {
        let signer = SignerId::Replica(ReplicaId(1));
        let kp = KeyPair::for_signer(99, signer);
        let mut reg = KeyRegistry::new();
        reg.register(signer, kp.public_key());

        let mut signed = kp.sign_payload(prepare(1), signer);
        signed.payload.seq = SeqNum(2); // tamper after signing
        assert!(reg.verify_signed(&signed).is_err());
    }

    #[test]
    fn registry_rejects_identity_swap() {
        let alice = SignerId::Replica(ReplicaId(1));
        let mallory = SignerId::Replica(ReplicaId(2));
        let kp_alice = KeyPair::for_signer(99, alice);
        let kp_mallory = KeyPair::for_signer(99, mallory);
        let mut reg = KeyRegistry::new();
        reg.register(alice, kp_alice.public_key());
        reg.register(mallory, kp_mallory.public_key());

        // Mallory signs but claims to be Alice.
        let mut signed = kp_mallory.sign_payload(prepare(1), mallory);
        signed.signer = alice;
        assert!(reg.verify_signed(&signed).is_err());
    }

    #[test]
    fn with_signers_builds_matching_keys() {
        let signers: Vec<SignerId> =
            (0..4).map(|i| SignerId::Replica(ReplicaId(i))).collect();
        let reg = KeyRegistry::with_signers(7, signers.clone());
        assert_eq!(reg.len(), 4);
        for s in signers {
            let kp = KeyPair::for_signer(7, s);
            assert_eq!(reg.get(s), Some(&kp.public_key()));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn signatures_are_pinned() {
        // Values from the full `SecretKey::sign` path: reusing the stored
        // public key in `KeyPair::sign` must not change a byte.
        let mut all = crate::sha256::Sha256::new();
        for seed in [0u64, 1, 2, 42, 77, 1 << 40, u64::MAX] {
            let kp = KeyPair::from_seed(seed);
            for msg in [&b""[..], b"m", b"prepare", &[0xab; 200]] {
                let sig = kp.sign(msg);
                assert_eq!(sig, SecretKey::from_seed(seed).sign(msg));
                all.update(&sig.0);
            }
        }
        assert_eq!(
            hex(&all.finalize()),
            "f31a6fc2c99d1831f425b89011c7a30cd1ad18bc27a90b13702e689f18f0fb05"
        );
        assert_eq!(
            hex(&KeyPair::from_seed(42).sign(b"prepare").0[..16]),
            "03e30a323de7be0d44c8d9fbbed89202"
        );
    }

    #[test]
    fn client_mac_key_is_pinned() {
        // HMAC-SHA256(42u64 LE, "client-mac:" ‖ 1u32 LE), computed
        // independently.
        assert_eq!(
            hex(client_mac_key(42, ClientId(1)).as_bytes()),
            "32705f058e16863673194ec8adf796f651d76bee40af2dabd4fa638060068da2"
        );
    }

    #[test]
    fn client_keys_match_derivation_past_capacity() {
        let mut keys = ClientKeys::new(42);
        let clients = (ClientKeys::CAPACITY * 2 + 5) as u32;
        for round in 0..2 {
            for c in 0..clients {
                let client = ClientId(c);
                assert_eq!(keys.get(client), &client_mac_key(42, client), "round {round}, {c}");
                assert!(keys.keys.len() <= ClientKeys::CAPACITY);
            }
        }
        assert_eq!(keys.get(ClientId(u32::MAX)), &client_mac_key(42, ClientId(u32::MAX)));
    }

    fn request(client: u32, seed: u64) -> Request {
        let id = splitbft_types::RequestId {
            client: ClientId(client),
            timestamp: splitbft_types::Timestamp(9),
        };
        let mut req = Request { id, op: b"inc".to_vec().into(), encrypted: false, auth: [0; 32] };
        req.auth = client_mac_key(seed, id.client).tag(&Request::auth_bytes(id, &req.op, false));
        req
    }

    #[test]
    fn client_keys_verify_requests_and_batches() {
        let mut keys = ClientKeys::new(42);
        let good: Vec<Request> = (0..4).map(|c| request(c, 42)).collect();
        assert!(good.iter().all(|r| keys.verify_request(r)));
        assert!(keys.verify_batch(&good));
        assert!(keys.verify_batch(&[]));

        // A tag under another seed is a forgery, alone or inside a batch.
        let forged = request(2, 43);
        assert!(!keys.verify_request(&forged));
        let mut batch = good.clone();
        batch[2] = forged;
        assert!(!keys.verify_batch(&batch));
    }

    #[test]
    fn different_signers_get_different_keys() {
        let a = KeyPair::for_signer(7, SignerId::Replica(ReplicaId(0)));
        let b = KeyPair::for_signer(7, SignerId::Replica(ReplicaId(1)));
        assert_ne!(a.public_key(), b.public_key());
        // And different master seeds give different keys too.
        let c = KeyPair::for_signer(8, SignerId::Replica(ReplicaId(0)));
        assert_ne!(a.public_key(), c.public_key());
    }
}
