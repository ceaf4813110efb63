//! HMAC-SHA-256 (RFC 2104).
//!
//! The paper authenticates client requests and replies with HMAC-SHA2,
//! reserving (slower) signatures for inter-replica messages; we reproduce
//! that split. [`MacKey`] wraps the shared secret between one client and
//! the Execution compartments.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// Computes `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let (inner, outer) = pad_states(key);
    finish(inner, outer, data)
}

/// The two SHA-256 states after absorbing `key ⊕ ipad` and `key ⊕ opad`.
///
/// Everything HMAC hashes before the message depends on the key alone, so
/// a long-lived key can absorb it once ([`MacKey`]) and every tag then
/// costs only the compressions the message and the inner digest need.
fn pad_states(key: &[u8]) -> (Sha256, Sha256) {
    // Keys longer than the block size are hashed first, per RFC 2104.
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    let mut outer = Sha256::new();
    outer.update(&opad);
    (inner, outer)
}

/// Completes HMAC from the pad states of [`pad_states`].
fn finish(mut inner: Sha256, mut outer: Sha256, data: &[u8]) -> [u8; 32] {
    inner.update(data);
    outer.update(&inner.finalize());
    outer.finalize()
}

/// Constant-time byte-slice comparison.
///
/// Tag comparisons must not leak where the first mismatching byte sits.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Verifies many `(expected, claimed)` tag pairs as one batch with a
/// **single** accept/reject decision: the XOR differences of all pairs
/// are OR-accumulated in constant time and only the accumulator is
/// tested.
///
/// Agreement paths that authenticate a whole request batch before
/// accepting it (callers reject the entire batch when any member fails)
/// use this instead of one `ct_eq` per request: the decision — and
/// therefore the timing surface — collapses to one branch per batch.
/// Nothing is hashed, so soundness needs no collision resistance: the
/// accumulator is zero exactly when every pair matches. An empty batch
/// verifies vacuously, matching `iter().all(..)`.
pub fn verify_tag_batch(pairs: impl IntoIterator<Item = ([u8; 32], [u8; 32])>) -> bool {
    let mut acc = 0u8;
    for (exp, got) in pairs {
        for (x, y) in exp.iter().zip(&got) {
            acc |= x ^ y;
        }
    }
    acc == 0
}

/// A symmetric MAC key shared between a client and the Execution
/// compartments.
///
/// Besides the raw bytes the key holds its HMAC pad states, absorbed once
/// at construction, so [`MacKey::tag`] on a short message costs two
/// SHA-256 compressions instead of four.
#[derive(Clone)]
pub struct MacKey {
    bytes: [u8; 32],
    inner: Sha256,
    outer: Sha256,
}

impl PartialEq for MacKey {
    fn eq(&self, other: &Self) -> bool {
        // The pad states are a function of the bytes.
        self.bytes == other.bytes
    }
}

impl Eq for MacKey {}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("MacKey(…)")
    }
}

impl MacKey {
    /// Wraps raw key bytes.
    pub fn new(bytes: [u8; 32]) -> Self {
        let (inner, outer) = pad_states(&bytes);
        MacKey { bytes, inner, outer }
    }

    /// Derives a per-client key deterministically from a seed — used by the
    /// simulated key-distribution step (in the paper, keys are installed
    /// during attestation).
    pub fn derive(master: &[u8], context: &[u8]) -> Self {
        MacKey::new(hmac_sha256(master, context))
    }

    /// Tags `data`.
    pub fn tag(&self, data: &[u8]) -> [u8; 32] {
        finish(self.inner.clone(), self.outer.clone(), data)
    }

    /// Verifies a tag in constant time.
    #[must_use]
    pub fn verify(&self, data: &[u8], tag: &[u8; 32]) -> bool {
        ct_eq(&self.tag(data), tag)
    }

    /// Exposes the raw bytes (needed to seal the key into an enclave).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 2104 written out over one-shot digests, independent of the
    /// pad-state split the production code uses.
    fn reference_hmac(key: &[u8], data: &[u8]) -> [u8; 32] {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).chain(data.iter().copied()).collect();
        let outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).chain(sha256(&inner)).collect();
        sha256(&outer)
    }

    // RFC 4231 test vectors (case 5 truncates its tag and is left out).
    #[test]
    fn rfc4231_vectors() {
        let case4_key: Vec<u8> = (1u8..=25).collect();
        let case7_data: &[u8] = b"This is a test using a larger than block-size key and a larger \
            than block-size data. The key needs to be hashed before being used by the HMAC \
            algorithm.";
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &case4_key,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                case7_data,
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, data, want) in cases {
            // HMAC zero-pads short keys and hashes long ones, so every
            // vector has an equivalent 32-byte MacKey.
            let mut k = [0u8; 32];
            if key.len() > BLOCK {
                k = sha256(key);
            } else {
                k[..key.len()].copy_from_slice(key);
            }
            assert_eq!(hex(&hmac_sha256(key, data)), want);
            assert_eq!(hex(&MacKey::new(k).tag(data)), want);
        }
    }

    #[test]
    fn mac_key_tag_matches_reference_across_block_boundaries() {
        let key = [0x5au8; 32];
        let mac = MacKey::new(key);
        for len in [0, 1, 55, 56, 63, 64, 65, 119, 120, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let want = reference_hmac(&key, &data);
            assert_eq!(mac.tag(&data), want, "len {len}");
            assert_eq!(hmac_sha256(&key, &data), want, "len {len}");
            // Tagging must not disturb the stored pad states.
            assert_eq!(mac.tag(&data), want, "len {len}, second tag");
        }
    }

    #[test]
    fn derive_output_is_pinned() {
        // HMAC-SHA256("master", "client-1"), computed independently.
        assert_eq!(
            hex(MacKey::derive(b"master", b"client-1").as_bytes()),
            "4dcd034070f9090a0934962fd1a36d41f41e2f7a10a0c743bba765a64f301ee2"
        );
    }

    #[test]
    fn mac_key_equality_follows_the_bytes() {
        assert_eq!(MacKey::new([1u8; 32]), MacKey::new([1u8; 32]));
        assert_ne!(MacKey::new([1u8; 32]), MacKey::new([2u8; 32]));
    }

    #[test]
    fn mac_key_tag_and_verify() {
        let k = MacKey::new([7u8; 32]);
        let tag = k.tag(b"payload");
        assert!(k.verify(b"payload", &tag));
        assert!(!k.verify(b"payloae", &tag));
        let other = MacKey::new([8u8; 32]);
        assert!(!other.verify(b"payload", &tag));
    }

    #[test]
    fn derive_is_deterministic_and_context_separated() {
        let a = MacKey::derive(b"master", b"client-1");
        let b = MacKey::derive(b"master", b"client-1");
        let c = MacKey::derive(b"master", b"client-2");
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_ne!(a.as_bytes(), c.as_bytes());
    }

    #[test]
    fn batched_verification_agrees_with_per_tag_verification() {
        let keys: Vec<MacKey> = (0u8..8).map(|i| MacKey::new([i; 32])).collect();
        let msgs: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 16]).collect();
        let tags: Vec<[u8; 32]> = keys.iter().zip(&msgs).map(|(k, m)| k.tag(m)).collect();

        let pairs = |tags: &[[u8; 32]]| {
            keys.iter()
                .zip(&msgs)
                .zip(tags.to_vec())
                .map(|((k, m), t)| (k.tag(m), t))
                .collect::<Vec<_>>()
        };
        assert!(verify_tag_batch(pairs(&tags)));
        // One corrupted tag anywhere fails the whole batch.
        for i in 0..tags.len() {
            let mut bad = tags.clone();
            bad[i][0] ^= 1;
            assert!(!verify_tag_batch(pairs(&bad)));
        }
        // So does a single flipped bit at any byte position.
        for byte in 0..32 {
            let mut bad = tags.clone();
            bad[3][byte] ^= 0x80;
            assert!(!verify_tag_batch(pairs(&bad)));
        }
        // Empty batches verify vacuously, like `iter().all(..)`.
        assert!(verify_tag_batch(std::iter::empty()));
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = MacKey::new([0x41u8; 32]);
        let s = format!("{k:?}");
        assert!(!s.contains("41"));
        // Neither the bytes nor the pad states derived from them.
        assert_eq!(s, "MacKey(…)");
    }
}
