//! Criterion bench of the serve wire codec on one 36-graph `crusade-gen`
//! specification: encoding its `Submit` frame, strictly decoding the
//! frame, and fingerprinting its payload (the cache key every `Submit`
//! and `Resyn` computes).
//!
//! ```text
//! cargo bench -p crusade-bench --bench codec
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crusade_gen::{generate_payload, GenConfig};
use crusade_serve::{
    decode_request, encode_frame, fingerprint, Request, RequestBody, SpecPayload, SubmitRequest,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

fn bench_codec(c: &mut Criterion) {
    let config = GenConfig {
        seed: 11,
        graphs: 36,
        utilization: 1.6,
        tightness: 0.45,
        ..GenConfig::default()
    };
    let (library, spec) = generate_payload(&config);
    let payload = SpecPayload { library, spec };
    let request = Request {
        v: PROTOCOL_VERSION,
        client: "bench".to_string(),
        body: RequestBody::Submit(SubmitRequest {
            payload: payload.clone(),
            portfolio: 8,
            reconfiguration: true,
            stream: false,
        }),
    };
    let frame = encode_frame(&request).expect("the generated spec encodes");
    let line = frame.trim_end();

    let mut group = c.benchmark_group(format!("serve/codec/{}-byte-submit", frame.len()));
    group.sample_size(60);
    group.bench_function("encode_frame", |b| {
        b.iter(|| encode_frame(black_box(&request)).expect("encodes"));
    });
    group.bench_function("decode_request", |b| {
        b.iter(|| decode_request(black_box(line), DEFAULT_MAX_FRAME_BYTES).expect("decodes"));
    });
    group.bench_function("fingerprint", |b| {
        b.iter(|| fingerprint(black_box(&payload), 8, true).expect("fingerprints"));
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
