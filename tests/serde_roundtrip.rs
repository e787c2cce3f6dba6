//! Serialization round-trips: specifications and libraries survive JSON —
//! the contract behind the `crusade` CLI's spec files.

// Test code: helpers unwrap and cast freely on controlled inputs.
#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use crusade::model::{ResourceLibrary, SystemSpec};
use crusade::workloads::{paper_examples, paper_library};

#[test]
fn paper_library_round_trips() {
    let lib = paper_library();
    let json = serde_json::to_string(&lib.lib).unwrap();
    let back: ResourceLibrary = serde_json::from_str(&json).unwrap();
    assert_eq!(lib.lib, back);
}

#[test]
fn full_spec_round_trips() {
    let lib = paper_library();
    let spec = paper_examples()[0].build(&lib);
    let json = serde_json::to_string(&spec).unwrap();
    let back: SystemSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);
    back.validate().unwrap();
}

#[test]
fn deserialized_spec_synthesizes_identically() {
    use crusade::core::CoSynthesis;
    let lib = paper_library();
    let spec = paper_examples()[0].build(&lib);
    let back: SystemSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    let a = CoSynthesis::new(&spec, &lib.lib).run().unwrap();
    let b = CoSynthesis::new(&back, &lib.lib).run().unwrap();
    assert_eq!(a.report.cost, b.report.cost);
    assert_eq!(a.report.pe_count, b.report.pe_count);
}

#[test]
fn malformed_spec_is_rejected_cleanly() {
    let err = serde_json::from_str::<SystemSpec>("{\"graphs\": 3}").unwrap_err();
    assert!(err.to_string().contains("invalid"));
}

#[test]
fn damage_round_trips() {
    use crusade::core::Damage;
    let damages = [
        Damage::ExecInflated,
        Damage::ErufTightened,
        Damage::BootDegraded,
    ];
    for damage in damages {
        let json = serde_json::to_string(&damage).unwrap();
        let back: Damage = serde_json::from_str(&json).unwrap();
        assert_eq!(damage, back, "{json}");
    }
}

#[test]
fn repair_outcome_round_trips() {
    use crusade::core::{repair, CoSynthesis, CosynOptions, Damage, RepairOptions, RepairOutcome};
    let lib = paper_library();
    let spec = paper_examples()[0].build(&lib);
    let options = CosynOptions::default();
    let deployed = CoSynthesis::new(&spec, &lib.lib)
        .with_options(options.clone())
        .run()
        .unwrap();
    let dead = deployed
        .architecture
        .pes()
        .map(|(id, _)| id)
        .next()
        .expect("deployed architecture has a live PE");
    let outcome = repair(
        &spec,
        &lib.lib,
        &options,
        &deployed,
        &Damage::PeLost(dead),
        &RepairOptions::default(),
    )
    .expect("a lone PE loss is repairable");
    // `RepairOutcome` carries the full architecture, which has no
    // `PartialEq`: a faithful round-trip re-serializes to the same JSON.
    let json = serde_json::to_string(&outcome).unwrap();
    let back: RepairOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&back).unwrap());
    assert_eq!(outcome.moved_clusters, back.moved_clusters);
    assert_eq!(outcome.added_cost, back.added_cost);
    assert_eq!(outcome.new_pes, back.new_pes);
}

// ---------------------------------------------------------------------
// Differential codec tests: the streaming JSON paths must agree with the
// `Value`-tree paths on every value, and on every mutation of it.
// ---------------------------------------------------------------------

use std::fmt::Debug;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use crusade::gen::{generate_payload, GenConfig};
use crusade::model::{GraphId, Nanos, SpecDelta, TaskGraph};
use crusade::obs::Event;
use crusade::serve::{
    decode_request, encode_frame, DrainReport, JobEvent, JobRef, JobResult, JobStatus,
    ProtocolError, ProtocolErrorKind, Request, RequestBody, Response, ResponseBody, ResynRequest,
    ResynResult, ResynStep, ServerStats, ShutdownRequest, SpecPayload, StatsRequest, SubmitRequest,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use crusade::workloads::motivating_example;

/// Reads `text` as `T` twice — straight from the text, and by walking the
/// text's `Value` tree — and demands the same value or both errors.
fn check_decode<T>(text: &str) -> Result<(), TestCaseError>
where
    T: Deserialize + PartialEq + Debug,
{
    let direct = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    let via_tree = serde_json::from_str::<Value>(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::deserialize_value(&v).map_err(|e| e.to_string()));
    match (direct, via_tree) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(_), Err(_)) => {}
        (a, b) => {
            return Err(TestCaseError::fail(format!(
                "paths disagree on {text:.200}: direct {:?} vs tree {:?}",
                a.map(|_| "ok"),
                b.map(|_| "ok")
            )))
        }
    }
    Ok(())
}

/// The number of nodes in a tree.
fn node_count(v: &Value) -> usize {
    1 + match v {
        Value::Seq(items) => items.iter().map(node_count).sum(),
        Value::Map(entries) => entries.iter().map(|(_, v)| node_count(v)).sum(),
        _ => 0,
    }
}

/// Mutates node `target` (pre-order) of `v` — a wrong type, or a dropped,
/// renamed, duplicated or extra map entry — and returns `true` once done.
fn mutate_node(v: &mut Value, target: &mut usize, rng: &mut SmallRng) -> bool {
    if *target == 0 {
        let replacements = [
            Value::Null,
            Value::Bool(true),
            Value::U64(u64::MAX),
            Value::I64(-1),
            Value::F64(0.5),
            Value::Str("x".to_string()),
            Value::Seq(vec![]),
            Value::Map(vec![]),
        ];
        match v {
            Value::Map(entries) if !entries.is_empty() && rng.gen_bool(0.6) => {
                let i = rng.gen_range(0..entries.len());
                match rng.gen_range(0..4) {
                    0 => {
                        entries.remove(i);
                    }
                    1 => entries[i].0.push('_'),
                    2 => {
                        let dup = (entries[i].0.clone(), Value::Str("dup".to_string()));
                        let at = if rng.gen_bool(0.5) { i } else { i + 1 };
                        entries.insert(at, dup);
                    }
                    _ => entries.push(("unknown".to_string(), Value::Null)),
                }
            }
            _ => *v = replacements[rng.gen_range(0..replacements.len())].clone(),
        }
        return true;
    }
    *target -= 1;
    match v {
        Value::Seq(items) => items.iter_mut().any(|item| mutate_node(item, target, rng)),
        Value::Map(entries) => entries
            .iter_mut()
            .any(|(_, item)| mutate_node(item, target, rng)),
        _ => false,
    }
}

/// The differential contract on one value: streaming to text equals
/// printing its tree (compact and pretty), and decoding agrees on the
/// text and on `mutations` mutated copies of it.
fn assert_paths_agree<T>(x: &T, rng: &mut SmallRng, mutations: usize) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let tree = x.serialize_value();
    let text = serde_json::to_string(x).unwrap();
    prop_assert_eq!(&text, &serde_json::to_string(&tree).unwrap());
    prop_assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
    check_decode::<T>(&text)?;
    let nodes = node_count(&tree);
    for _ in 0..mutations {
        let mut mutated = tree.clone();
        let mut target = rng.gen_range(0..nodes);
        mutate_node(&mut mutated, &mut target, rng);
        check_decode::<T>(&serde_json::to_string(&mutated).unwrap())?;
        // Cut the text short at a character boundary.
        let mut cut = rng.gen_range(0..text.len());
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        check_decode::<T>(&text[..cut])?;
    }
    Ok(())
}

fn gen_payload(seed: u64, graphs: usize) -> SpecPayload {
    let (library, spec) = generate_payload(&GenConfig {
        seed,
        graphs,
        ..GenConfig::default()
    });
    SpecPayload { library, spec }
}

fn graphs_of(payload: &SpecPayload) -> Vec<TaskGraph> {
    payload.spec.graphs().map(|(_, g)| g.clone()).collect()
}

fn random_deltas(rng: &mut SmallRng, graphs: &[TaskGraph]) -> Vec<SpecDelta> {
    (0..rng.gen_range(0..6))
        .map(|_| {
            let graph = GraphId::new(rng.gen_range(0..8));
            match rng.gen_range(0..7) {
                0 => SpecDelta::AddTaskGraph {
                    graph: graphs[rng.gen_range(0..graphs.len())].clone(),
                },
                1 => SpecDelta::RemoveTaskGraph { graph },
                2 => SpecDelta::TightenDeadline {
                    graph,
                    deadline: Nanos::from_nanos(rng.gen_range(0..u64::MAX)),
                },
                3 => SpecDelta::ScaleRate {
                    graph,
                    percent: rng.gen_range(1..400),
                },
                4 => SpecDelta::FailPe {
                    pe: rng.gen_range(0..64),
                },
                5 => SpecDelta::RestorePe {
                    pe: rng.gen_range(0..64),
                },
                _ => SpecDelta::RetireLink {
                    link: rng.gen_range(0..64),
                },
            }
        })
        .collect()
}

fn random_result(rng: &mut SmallRng) -> JobResult {
    JobResult {
        job: rng.gen_range(0..u64::MAX),
        fingerprint: format!("{:016x}", rng.gen_range(0..u64::MAX)),
        cached: rng.gen_bool(0.5),
        coalesced: rng.gen_bool(0.5),
        cost: rng.gen_range(0..1_000_000),
        policy: rng.gen_range(0..16),
        pes: rng.gen_range(0..100),
        links: rng.gen_range(0..100),
        multi_mode_devices: rng.gen_range(0..10),
        audit_clean: true,
        queue_ms: rng.gen_range(0.0..1e6),
        run_ms: rng.gen_range(0.0..1e-3),
    }
}

/// One of every request body.
fn requests(rng: &mut SmallRng, payload: &SpecPayload) -> Vec<Request> {
    let bodies = [
        RequestBody::Submit(SubmitRequest {
            payload: payload.clone(),
            portfolio: rng.gen_range(0..16),
            reconfiguration: rng.gen_bool(0.5),
            stream: rng.gen_bool(0.5),
        }),
        RequestBody::Status(JobRef {
            job: rng.gen_range(0..u64::MAX),
        }),
        RequestBody::Cancel(JobRef { job: u64::MAX }),
        RequestBody::Resyn(ResynRequest {
            payload: payload.clone(),
            deltas: random_deltas(rng, &graphs_of(payload)),
            portfolio: rng.gen_range(0..16),
            reconfiguration: rng.gen_bool(0.5),
        }),
        RequestBody::Stats(StatsRequest {}),
        RequestBody::Shutdown(ShutdownRequest {}),
    ];
    bodies
        .into_iter()
        .map(|body| Request {
            v: PROTOCOL_VERSION,
            client: "diff \"quoted\"\t\u{e9}".to_string(),
            body,
        })
        .collect()
}

/// One of every response body.
fn responses(rng: &mut SmallRng) -> Vec<Response> {
    let status = JobStatus {
        job: rng.gen_range(0..1000),
        state: "done".to_string(),
        detail: String::new(),
        result: rng.gen_bool(0.5).then(|| random_result(rng)),
    };
    [
        ResponseBody::Event(JobEvent {
            job: 1,
            seq: rng.gen_range(0..1000),
            event: Event::SpanOpen {
                span: rng.gen_range(0..1000),
                phase: "allocation".to_string(),
            },
        }),
        ResponseBody::Result(random_result(rng)),
        ResponseBody::Status(status.clone()),
        ResponseBody::Cancelled(status),
        ResponseBody::Resyn(ResynResult {
            job: 2,
            fingerprint: "0123456789abcdef".to_string(),
            incumbent_cached: rng.gen_bool(0.5),
            incumbent_cost: rng.gen_range(0..10_000),
            final_cost: rng.gen_range(0..10_000),
            degraded: rng.gen_bool(0.5),
            steps: (0..rng.gen_range(0..4))
                .map(|index| ResynStep {
                    index,
                    kind: "FailPe".to_string(),
                    rung: "warm".to_string(),
                    cost: rng.gen_range(0..10_000),
                })
                .collect(),
            audit_clean: true,
        }),
        ResponseBody::Stats(ServerStats {
            submitted: rng.gen_range(0..100),
            queue_len: rng.gen_range(0..100),
            draining: rng.gen_bool(0.5),
            ..ServerStats::default()
        }),
        ResponseBody::ShuttingDown(DrainReport {
            drained: 1,
            cancelled: 2,
        }),
        ResponseBody::Error(ProtocolError {
            kind: ProtocolErrorKind::Infeasible,
            detail: "no member found an architecture".to_string(),
        }),
    ]
    .into_iter()
    .map(Response::new)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated specifications: the payload and both of its halves.
    #[test]
    fn streaming_codec_matches_tree_on_generated_specs(seed in 0u64..1_000_000, graphs in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let payload = gen_payload(seed, graphs);
        assert_paths_agree(&payload, &mut rng, 12)?;
        assert_paths_agree(&payload.spec, &mut rng, 4)?;
        assert_paths_agree(&payload.library, &mut rng, 4)?;
    }

    /// Delta vectors of every kind.
    #[test]
    fn streaming_codec_matches_tree_on_delta_vectors(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let payload = gen_payload(seed, 2);
        let deltas = random_deltas(&mut rng, &graphs_of(&payload));
        assert_paths_agree(&deltas, &mut rng, 16)?;
    }

    /// Every request and response body of the serve protocol.
    #[test]
    fn streaming_codec_matches_tree_on_serve_dtos(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let payload = gen_payload(seed, 1);
        for request in requests(&mut rng, &payload) {
            assert_paths_agree(&request, &mut rng, 8)?;
        }
        for response in responses(&mut rng) {
            assert_paths_agree(&response, &mut rng, 8)?;
        }
    }
}

/// Reads `text` as `T` through both paths (which must agree) and returns
/// the value or the error message.
fn read<T: Deserialize + PartialEq + Debug>(text: &str) -> Result<T, String> {
    check_decode::<T>(text).unwrap();
    serde_json::from_str::<T>(text).map_err(|e| e.to_string())
}

#[test]
fn derive_semantics_are_the_documented_json_representation() {
    use crusade::serve::JobRef;
    // Structs: the first of duplicate keys wins even when a later one
    // would not decode, unknown keys are skipped, and a missing field
    // reads as null.
    assert_eq!(
        read::<JobRef>(r#"{"job":1,"job":2}"#),
        Ok(JobRef { job: 1 })
    );
    assert_eq!(
        read::<JobRef>(r#"{"extra":[1,{"a":[]}],"job":1,"job":"x"}"#),
        Ok(JobRef { job: 1 })
    );
    assert!(read::<JobRef>(r#"{"job":"x","job":1}"#).is_err());
    let missing = read::<JobRef>("{}").unwrap_err();
    assert!(missing.contains("field `JobRef.job`"), "{missing}");
    let status = read::<JobStatus>(r#"{"job":1,"state":"done","detail":""}"#).unwrap();
    assert_eq!(status.result, None, "a missing Option field reads as None");
    assert_eq!(
        read::<SpecDelta>(r#"{"TightenDeadline":{"graph":0,"deadline":5,"deadline":9}}"#),
        Ok(SpecDelta::TightenDeadline {
            graph: GraphId::new(0),
            deadline: Nanos::from_nanos(5)
        })
    );
    // Enums are externally tagged: a unit variant is a string, any other
    // a one-entry map.
    assert_eq!(
        read::<ProtocolErrorKind>(r#""QueueFull""#),
        Ok(ProtocolErrorKind::QueueFull)
    );
    assert!(read::<ProtocolErrorKind>(r#"{"QueueFull":null}"#).is_err());
    assert_eq!(
        read::<RequestBody>(r#"{"Status":{"job":3}}"#),
        Ok(RequestBody::Status(JobRef { job: 3 }))
    );
    for bad in [
        r#""Stats""#,
        "{}",
        r#"{"Stats":{},"Shutdown":{}}"#,
        r#"{"Nope":{}}"#,
    ] {
        assert!(read::<RequestBody>(bad).is_err(), "{bad}");
    }
    // Newtypes are transparent.
    assert_eq!(serde_json::to_string(&Nanos::from_nanos(5)).unwrap(), "5");
    assert_eq!(read::<Nanos>("5"), Ok(Nanos::from_nanos(5)));
    // Integers and floats coerce as the primitive impls always have.
    assert_eq!(read::<u32>("-0"), Ok(0));
    assert_eq!(read::<f64>("3"), Ok(3.0));
    assert_eq!(read::<f64>("-3"), Ok(-3.0));
    for bad in ["1.0", "256", "-1", "\"1\"", "null"] {
        assert!(read::<u8>(bad).is_err(), "{bad}");
    }
    assert!(read::<i8>("-129").is_err());
    assert_eq!(read::<Option<Vec<u8>>>("null"), Ok(None));
    assert_eq!(read::<Option<Vec<u8>>>("[1]"), Ok(Some(vec![1])));
}

// ---------------------------------------------------------------------
// Frame-mutation corpus: `decode_request` against the `Value`-tree
// reference decoder — the strict decoder's logic as it stood before the
// codec streamed — on every mutation of every request kind.
// ---------------------------------------------------------------------

fn reference_variant_fields(variant: &str) -> Option<&'static [&'static str]> {
    match variant {
        "Submit" => Some(&["payload", "portfolio", "reconfiguration", "stream"]),
        "Status" | "Cancel" => Some(&["job"]),
        "Resyn" => Some(&["payload", "deltas", "portfolio", "reconfiguration"]),
        "Stats" | "Shutdown" => Some(&[]),
        _ => None,
    }
}

fn reference_exact_fields(map: &Value, allowed: &[&str]) -> Result<(), ProtocolErrorKind> {
    let Value::Map(entries) = map else {
        return Err(ProtocolErrorKind::MalformedFrame);
    };
    if entries.iter().any(|(k, _)| !allowed.contains(&k.as_str())) {
        return Err(ProtocolErrorKind::UnknownField);
    }
    if allowed
        .iter()
        .any(|required| entries.iter().all(|(k, _)| k != required))
    {
        return Err(ProtocolErrorKind::MalformedFrame);
    }
    Ok(())
}

fn reference_decode(line: &str, max_bytes: usize) -> Result<Request, ProtocolErrorKind> {
    if line.len() > max_bytes {
        return Err(ProtocolErrorKind::FrameTooLarge);
    }
    let value: Value = serde_json::from_str(line).map_err(|_| ProtocolErrorKind::MalformedFrame)?;
    reference_exact_fields(&value, &["v", "client", "body"])?;
    match value.get("v") {
        Some(Value::U64(v)) if *v == u64::from(PROTOCOL_VERSION) => {}
        _ => return Err(ProtocolErrorKind::VersionMismatch),
    }
    let body = value.get("body").unwrap_or(&Value::Null);
    let Value::Map(entries) = body else {
        return Err(ProtocolErrorKind::MalformedFrame);
    };
    let [(variant, payload)] = entries.as_slice() else {
        return Err(ProtocolErrorKind::MalformedFrame);
    };
    let Some(allowed) = reference_variant_fields(variant) else {
        return Err(ProtocolErrorKind::UnknownCommand);
    };
    reference_exact_fields(payload, allowed)?;
    Request::deserialize_value(&value).map_err(|_| ProtocolErrorKind::MalformedFrame)
}

/// Decodes `line` with both decoders and demands the same request or the
/// same error kind; returns the outcome for tallying.
fn same_verdict(line: &str) -> Result<Request, ProtocolErrorKind> {
    let streamed = decode_request(line, DEFAULT_MAX_FRAME_BYTES).map_err(|e| e.kind);
    let reference = reference_decode(line, DEFAULT_MAX_FRAME_BYTES);
    assert_eq!(streamed, reference, "decoders disagree on {line:.300}");
    streamed
}

/// Every map in `v` with its depth (the envelope is depth 1), as paths of
/// child indices.
fn map_paths(v: &Value, depth: usize, path: &mut Vec<usize>, out: &mut Vec<(usize, Vec<usize>)>) {
    match v {
        Value::Map(entries) => {
            out.push((depth, path.clone()));
            for (i, (_, child)) in entries.iter().enumerate() {
                path.push(i);
                map_paths(child, depth + 1, path, out);
                path.pop();
            }
        }
        Value::Seq(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(i);
                map_paths(child, depth, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn node_at<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(v, |node, &i| match node {
        Value::Seq(items) => &mut items[i],
        Value::Map(entries) => &mut entries[i].1,
        other => other,
    })
}

/// A value of every shape, each wrong for most fields.
fn wrong_values() -> [Value; 8] {
    [
        Value::Null,
        Value::Bool(false),
        Value::U64(2),
        Value::I64(-1),
        Value::F64(1.0),
        Value::Str("1".to_string()),
        Value::Seq(vec![Value::U64(1)]),
        Value::Map(vec![]),
    ]
}

#[test]
fn frame_mutations_get_the_reference_verdict() {
    let (library, spec) = motivating_example();
    let payload = SpecPayload { library, spec };
    let mut rng = SmallRng::seed_from_u64(14);
    let mut frames = Vec::new();
    for request in requests(&mut rng, &payload) {
        let line = encode_frame(&request).unwrap();
        let line = line.trim_end().to_string();
        assert_eq!(same_verdict(&line), Ok(request));
        let tree: Value = serde_json::from_str(&line).unwrap();

        // Truncations.
        for k in 1..24 {
            let mut cut = line.len() * k / 24;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            frames.push(line[..cut].to_string());
        }

        // Per map entry: drop, rename, duplicate (either order), and a
        // value of every wrong type. Every map of the first three levels
        // is covered; deeper ones are sampled.
        let mut maps = Vec::new();
        map_paths(&tree, 1, &mut Vec::new(), &mut maps);
        for (n, (depth, path)) in maps.iter().enumerate() {
            if *depth > 3 && n % 17 != 0 {
                continue;
            }
            let mut base = tree.clone();
            let Value::Map(entries) = node_at(&mut base, path) else {
                unreachable!("paths lead to maps");
            };
            for i in 0..entries.len() {
                // Edits 0..4 drop, rename, duplicate before (as null) and
                // duplicate after (as a string); edit 4 adds a `Stats`
                // key; the rest give the entry a value of each type.
                for edit in 0..13 {
                    let mut mutated = tree.clone();
                    if let Value::Map(e) = node_at(&mut mutated, path) {
                        match edit {
                            0 => drop(e.remove(i)),
                            1 => e[i].0.push('x'),
                            2 => e.insert(i, (e[i].0.clone(), Value::Null)),
                            3 => e.insert(i + 1, (e[i].0.clone(), Value::Str("late".into()))),
                            4 => e.push(("Stats".to_string(), Value::Map(vec![]))),
                            k => e[i].1 = wrong_values()[k - 5].clone(),
                        }
                    }
                    frames.push(serde_json::to_string(&mutated).unwrap());
                }
            }
        }
    }
    // Hand-written envelope edge cases.
    frames.extend(
        [
            r#"{"v":01,"client":"t","body":{"Stats":{}}}"#,
            r#"{"v":-0,"client":"t","body":{"Stats":{}}}"#,
            r#"{"v":1.0,"client":"t","body":{"Stats":{}}}"#,
            r#"{"v":1,"v":2,"client":"t","body":{"Stats":{}}}"#,
            r#"{"v":2,"v":1,"client":"t","body":{"Stats":{}}}"#,
            r#"{"v":1,"client":"t","body":{"Stats":{}},"body":7}"#,
            r#"{"v":1,"client":"t","body":{"Stats":{},"Stats":{}}}"#,
            r#"{"v":1,"client":"t","body":{"Explode":{},"Stats":{}}}"#,
            r#"{"v":1,"client":"t","body":{"Status":{"job":1,"job":"x"}}}"#,
            r#"{"v":1,"client":"t","body":{"Status":{"job":"x","job":1}}}"#,
            r#"{"v":1,"client":"t","body":"Stats"}"#,
            r#"{"v":1,"client":"t","body":{"Stats":[]}}"#,
            r#"{"extra":[1,{"a":"A"}],"v":1,"client":"t","body":{"Stats":{}}}"#,
            r#"{"v":1,"client":"t","body":{"Stats":{}}} x"#,
            r#"{"v":1,"client":"t","body":{"Stats":{}},"extra":[}"#,
            r#"{"v":2,"client":"t","body":{"Stats":{}},"extra":[}"#,
            r#" {"v" : 1 , "client" : "t" , "body" : { "Stats" : { } } } "#,
        ]
        .map(String::from),
    );
    let mut tally = [0usize; 2];
    for frame in &frames {
        tally[usize::from(same_verdict(frame).is_ok())] += 1;
    }
    // The corpus must exercise both outcomes heavily.
    assert!(tally[0] > 500 && tally[1] > 100, "tally {tally:?}");
}
