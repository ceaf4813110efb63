//! A Schnorr-style signature scheme over a small prime-order field.
//!
//! The paper signs inter-replica and inter-enclave messages with 256-bit
//! ed25519. Reproducing ed25519 from scratch is out of scope, so we use a
//! textbook Schnorr scheme over the multiplicative group of the Mersenne
//! prime `p = 2^61 − 1` with deterministic (hash-derived) nonces. This is
//! **simulation-grade**: the group is far too small for real security, but
//! the scheme is *publicly verifiable* — verification uses only the public
//! key — so every protocol code path (sign on send, verify on receive,
//! reject forgeries, quorum certificates over third-party signatures) is
//! exercised exactly as with ed25519. See `DESIGN.md` §2 for the
//! substitution rationale.
//!
//! Signature layout inside the 64-byte [`splitbft_types::Signature`]:
//! bytes `0..8` hold `e` and bytes `8..16` hold `s` (little-endian); the
//! remainder is zero. Public keys occupy the first 8 bytes of the 32-byte
//! [`splitbft_types::PublicKey`].

use crate::sha256::Sha256;
use splitbft_types::{PublicKey, Signature};

/// The group modulus: the Mersenne prime `2^61 − 1`.
pub const P: u64 = (1u64 << 61) - 1;
/// The exponent modulus (group order of `Z_p^*`).
pub const Q: u64 = P - 1;
/// The generator.
pub const G: u64 = 3;

#[inline]
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation by squaring.
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

fn hash_to_scalar(parts: &[&[u8]]) -> u64 {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    let d = h.finalize();
    let mut v = u64::from_le_bytes(d[..8].try_into().expect("8 bytes")) % Q;
    if v == 0 {
        v = 1; // zero scalars break the scheme; remap deterministically
    }
    v
}

/// Diffie–Hellman public value `g^secret mod p` over the same group.
///
/// Used by the attestation flow: the Execution enclave publishes its DH
/// value in the attestation quote's report data; the client derives a
/// shared secret to wrap the session key. Simulation-grade, like the
/// signatures.
pub fn dh_public(secret: u64) -> u64 {
    pow_mod(G, secret % Q, P)
}

/// The DH shared secret `other^secret mod p`.
pub fn dh_shared(secret: u64, other_public: u64) -> u64 {
    pow_mod(other_public, secret % Q, P)
}

/// A secret signing key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(u64);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(…)")
    }
}

impl SecretKey {
    /// Derives a secret key deterministically from a seed. Used by the
    /// simulated provisioning step (in the paper each enclave generates its
    /// key pair at attestation time).
    pub fn from_seed(seed: u64) -> Self {
        SecretKey(hash_to_scalar(&[b"splitbft-sk", &seed.to_le_bytes()]))
    }

    /// The matching public key `g^sk mod p`.
    pub fn public(&self) -> SigPublicKey {
        SigPublicKey(pow_mod(G, self.0, P))
    }

    /// Signs `msg`, producing a deterministic Schnorr signature.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_with_public(msg, self.public())
    }

    /// [`SecretKey::sign`] with the matching public key already known,
    /// which saves one modular exponentiation. `pk` must be
    /// [`SecretKey::public`].
    pub(crate) fn sign_with_public(&self, msg: &[u8], pk: SigPublicKey) -> Signature {
        // Deterministic nonce: k = H(sk, msg). Reusing k across messages
        // would leak sk in a real scheme, so derive it from both.
        let k = hash_to_scalar(&[b"splitbft-nonce", &self.0.to_le_bytes(), msg]);
        let r = pow_mod(G, k, P);
        let e = hash_to_scalar(&[b"splitbft-chal", &r.to_le_bytes(), &pk.0.to_le_bytes(), msg]);
        let s = (k as u128 + mul_mod(e, self.0, Q) as u128) % Q as u128;
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&e.to_le_bytes());
        out[8..16].copy_from_slice(&(s as u64).to_le_bytes());
        Signature(out)
    }
}

/// A public verification key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SigPublicKey(pub u64);

impl SigPublicKey {
    /// Verifies `sig` over `msg`.
    ///
    /// Returns `false` for malformed signatures, out-of-range values, or a
    /// failed challenge check — verification never panics on attacker
    /// input.
    #[must_use]
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if self.0 == 0 || self.0 >= P {
            return false;
        }
        let e = u64::from_le_bytes(sig.0[..8].try_into().expect("8 bytes"));
        let s = u64::from_le_bytes(sig.0[8..16].try_into().expect("8 bytes"));
        if e == 0 || e >= Q || s >= Q {
            return false;
        }
        if sig.0[16..].iter().any(|&b| b != 0) {
            return false; // non-canonical padding
        }
        // r' = g^s * pk^(-e) = g^s * pk^(Q - e)
        let r = mul_mod(pow_mod(G, s, P), pow_mod(self.0, Q - e, P), P);
        let e2 = hash_to_scalar(&[b"splitbft-chal", &r.to_le_bytes(), &self.0.to_le_bytes(), msg]);
        e == e2
    }

    /// Packs into the opaque wire representation.
    pub fn to_wire(self) -> PublicKey {
        let mut out = [0u8; 32];
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        PublicKey(out)
    }

    /// Unpacks from the wire representation.
    ///
    /// Returns `None` if the value is out of range or the padding is
    /// non-canonical.
    pub fn from_wire(pk: &PublicKey) -> Option<Self> {
        if pk.0[8..].iter().any(|&b| b != 0) {
            return None;
        }
        let v = u64::from_le_bytes(pk.0[..8].try_into().expect("8 bytes"));
        if v == 0 || v >= P {
            return None;
        }
        Some(SigPublicKey(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SecretKey::from_seed(1);
        let pk = sk.public();
        let sig = sk.sign(b"message");
        assert!(pk.verify(b"message", &sig));
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let sk = SecretKey::from_seed(2);
        let sig = sk.sign(b"message");
        assert!(!sk.public().verify(b"other", &sig));
    }

    #[test]
    fn verification_rejects_wrong_key() {
        let a = SecretKey::from_seed(3);
        let b = SecretKey::from_seed(4);
        let sig = a.sign(b"message");
        assert!(!b.public().verify(b"message", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let sk = SecretKey::from_seed(5);
        assert_eq!(sk.sign(b"m").0, sk.sign(b"m").0);
        assert_ne!(sk.sign(b"m").0, sk.sign(b"n").0);
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SecretKey::from_seed(6);
        let mut sig = sk.sign(b"message");
        sig.0[0] ^= 1;
        assert!(!sk.public().verify(b"message", &sig));
    }

    #[test]
    fn non_canonical_padding_rejected() {
        let sk = SecretKey::from_seed(7);
        let mut sig = sk.sign(b"message");
        sig.0[63] = 1;
        assert!(!sk.public().verify(b"message", &sig));
    }

    #[test]
    fn zero_signature_rejected() {
        let sk = SecretKey::from_seed(8);
        assert!(!sk.public().verify(b"message", &Signature::ZERO));
    }

    #[test]
    fn wire_roundtrip_and_validation() {
        let pk = SecretKey::from_seed(9).public();
        let wire = pk.to_wire();
        assert_eq!(SigPublicKey::from_wire(&wire), Some(pk));

        let mut bad = wire;
        bad.0[20] = 1;
        assert_eq!(SigPublicKey::from_wire(&bad), None);

        let zero = PublicKey([0u8; 32]);
        assert_eq!(SigPublicKey::from_wire(&zero), None);
    }

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(pow_mod(2, 10, 1_000_000_007), 1024);
        assert_eq!(pow_mod(3, 0, 97), 1);
        assert_eq!(pow_mod(5, 96, 97), 1); // Fermat
        assert_eq!(pow_mod(G, Q, P), 1); // group order
    }

    #[test]
    fn dh_agreement() {
        let (a, b) = (0xAAAA_BBBB, 0xCCCC_DDDD);
        let shared_ab = dh_shared(a, dh_public(b));
        let shared_ba = dh_shared(b, dh_public(a));
        assert_eq!(shared_ab, shared_ba);
        // A third party with different secret disagrees.
        assert_ne!(dh_shared(0xEEEE, dh_public(b)), shared_ab);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let keys: Vec<u64> = (0..50).map(|s| SecretKey::from_seed(s).public().0).collect();
        let unique: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
    }
}
