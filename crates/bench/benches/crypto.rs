//! Microbenchmarks of the cryptographic primitives — the real-time
//! counterpart to the virtual-time constants in
//! `splitbft_tee::CostModel`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use splitbft_crypto::aead::{open, seal, AeadKey};
use splitbft_crypto::hmac::{hmac_sha256, MacKey};
use splitbft_crypto::sha256::sha256;
use splitbft_crypto::KeyPair;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    g.sample_size(20);

    let payload_small = vec![0xABu8; 64];
    let payload_large = vec![0xABu8; 16 * 1024];

    g.bench_function("sha256/64B", |b| b.iter(|| sha256(black_box(&payload_small))));
    g.bench_function("sha256/16KiB", |b| b.iter(|| sha256(black_box(&payload_large))));
    g.bench_function("hmac/64B", |b| {
        b.iter(|| hmac_sha256(black_box(b"key material 32 bytes long......"), black_box(&payload_small)))
    });
    // The same tag from a key whose pad states were absorbed once.
    let mac = MacKey::new(*b"key material 32 bytes long......");
    g.bench_function("mac_key_tag/64B", |b| b.iter(|| mac.tag(black_box(&payload_small))));

    let kp = KeyPair::from_seed(7);
    let sig = kp.sign(&payload_small);
    let pk = kp.public_key();
    g.bench_function("schnorr/sign", |b| b.iter(|| kp.sign(black_box(&payload_small))));
    g.bench_function("schnorr/verify", |b| {
        b.iter(|| KeyPair::verify(black_box(&pk), black_box(&payload_small), black_box(&sig)))
    });

    let key = AeadKey::new(&[7u8; 32]);
    let sealed = seal(&key, 1, b"", &payload_small);
    g.bench_function("aead/seal-64B", |b| {
        b.iter(|| seal(black_box(&key), 1, b"", black_box(&payload_small)))
    });
    g.bench_function("aead/open-64B", |b| {
        b.iter(|| open(black_box(&key), 1, b"", black_box(&sealed)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
