//! Consistency checks over the machine-readable benchmark artifacts
//! (`BENCH_explore.json`, `BENCH_pruning.json`, `BENCH_warmstart.json`,
//! `BENCH_serve.json`): the figures regression tooling consumes must be
//! internally coherent — winner-cost parity for the exploration engine,
//! attempt reduction in the right direction for the pruning oracle,
//! warm-start soundness counters pinned at zero, served winners
//! bit-identical to the CLI path — without re-running the (minutes-long)
//! benchmarks themselves.
//!
//! The artifacts are generated by `scripts/ci.sh --full` and are not
//! committed; on a checkout that has not run the benchmarks each test
//! skips with a note instead of failing.

// Test code: parsing committed artifacts unwraps freely.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use serde::Value;

/// Loads a benchmark artifact, or `None` (with a note on stderr) when
/// the artifact has not been generated on this checkout — a fresh clone
/// must pass the suite without running the benches first.
fn load_records(name: &str) -> Option<Vec<Value>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) => {
            eprintln!("skipping: {name} not generated (run scripts/ci.sh --full)");
            return None;
        }
    };
    let parsed: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    match parsed {
        Value::Seq(records) => Some(records),
        other => panic!("{name}: expected a top-level array, got {other:?}"),
    }
}

/// Loads an artifact whose top level is a single object (the sweep
/// artifact), with the same graceful skip as [`load_records`].
fn load_object(name: &str) -> Option<Value> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) => {
            eprintln!("skipping: {name} not generated (run scripts/ci.sh --full)");
            return None;
        }
    };
    let parsed: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
    match parsed {
        Value::Map(_) => Some(parsed),
        other => panic!("{name}: expected a top-level object, got {other:?}"),
    }
}

fn field<'a>(record: &'a Value, key: &str) -> &'a Value {
    match record {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("record missing field {key}: {record:?}")),
        other => panic!("expected a record object, got {other:?}"),
    }
}

fn u64_field(record: &Value, key: &str) -> u64 {
    match field(record, key) {
        Value::U64(v) => *v,
        Value::I64(v) if *v >= 0 => *v as u64,
        other => panic!("field {key}: expected unsigned integer, got {other:?}"),
    }
}

fn f64_field(record: &Value, key: &str) -> f64 {
    match field(record, key) {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        other => panic!("field {key}: expected number, got {other:?}"),
    }
}

fn str_field(record: &Value, key: &str) -> String {
    match field(record, key) {
        Value::Str(s) => s.clone(),
        other => panic!("field {key}: expected string, got {other:?}"),
    }
}

fn bool_field(record: &Value, key: &str) -> bool {
    match field(record, key) {
        Value::Bool(b) => *b,
        other => panic!("field {key}: expected bool, got {other:?}"),
    }
}

#[test]
fn explore_artifact_winner_cost_parity() {
    let Some(records) = load_records("BENCH_explore.json") else {
        return;
    };
    assert!(!records.is_empty(), "BENCH_explore.json has no rows");
    for r in &records {
        let example = str_field(r, "example");
        let sequential = u64_field(r, "sequential_cost");
        let best = u64_field(r, "best_cost");
        let saved = u64_field(r, "saved");
        // The portfolio contains the baseline policy, so the engine can
        // never lose to sequential CRUSADE.
        assert!(
            best <= sequential,
            "{example}: best_cost {best} exceeds sequential_cost {sequential}"
        );
        assert_eq!(
            saved,
            sequential - best,
            "{example}: saved is not sequential_cost - best_cost"
        );
    }
}

#[test]
fn pruning_artifact_attempt_reduction_sign() {
    let Some(records) = load_records("BENCH_pruning.json") else {
        return;
    };
    assert!(!records.is_empty(), "BENCH_pruning.json has no rows");
    for r in &records {
        let example = str_field(r, "example");
        let off = u64_field(r, "scheduling_attempts_off");
        let on = u64_field(r, "scheduling_attempts_on");
        // The lint pruning oracle only ever removes provably-failing
        // candidates: attempts with it on can never exceed attempts with
        // it off, and the saving percentage follows the same sign.
        assert!(
            on <= off,
            "{example}: pruning increased attempts ({on} on vs {off} off)"
        );
        let saved_percent = f64_field(r, "saved_percent");
        assert!(
            saved_percent >= 0.0,
            "{example}: saved_percent {saved_percent} is negative"
        );
        assert!(
            saved_percent <= 100.0,
            "{example}: saved_percent {saved_percent} exceeds 100"
        );
        assert!(u64_field(r, "pes") > 0, "{example}: zero PEs");
        assert!(u64_field(r, "cost") > 0, "{example}: zero cost");
    }
}

#[test]
fn serve_artifact_parity_cache_and_resyn() {
    let Some(records) = load_records("BENCH_serve.json") else {
        return;
    };
    assert!(!records.is_empty(), "BENCH_serve.json has no rows");
    let (campaign, examples): (Vec<&Value>, Vec<&Value>) = records
        .iter()
        .partition(|r| str_field(r, "example") == "_campaign");
    assert_eq!(
        campaign.len(),
        1,
        "BENCH_serve.json: expected exactly one _campaign row"
    );
    assert!(!examples.is_empty(), "BENCH_serve.json has no example rows");

    // When the exploration artifact is also present, the served winners
    // must be bit-identical to its winners for the same examples: the
    // daemon adds queueing, caching and transport — never a different
    // architecture.
    let explore = load_records("BENCH_explore.json").unwrap_or_default();
    for r in &examples {
        let example = str_field(r, "example");
        assert!(
            bool_field(r, "parity"),
            "{example}: served winner diverged from the CLI path"
        );
        assert_eq!(
            u64_field(r, "best_cost"),
            u64_field(r, "cli_cost"),
            "{example}: parity flag set but costs differ"
        );
        assert_eq!(
            u64_field(r, "winner_policy"),
            u64_field(r, "cli_policy"),
            "{example}: parity flag set but policies differ"
        );
        let dup = u64_field(r, "dup_submissions");
        let hits = u64_field(r, "dup_cache_hits");
        assert!(
            hits <= dup,
            "{example}: {hits} duplicate hits out of {dup} submissions"
        );
        let hit_rate = f64_field(r, "dup_hit_rate");
        assert!(
            (0.0..=1.0).contains(&hit_rate),
            "{example}: dup_hit_rate {hit_rate} out of range"
        );
        assert!(
            f64_field(r, "mean_queue_ms") >= 0.0 && f64_field(r, "mean_run_ms") >= 0.0,
            "{example}: negative latency"
        );
        if let Some(x) = explore.iter().find(|x| str_field(x, "example") == example) {
            assert_eq!(
                u64_field(r, "best_cost"),
                u64_field(x, "best_cost"),
                "{example}: served winner cost diverged from BENCH_explore.json"
            );
            assert_eq!(
                u64_field(r, "winner_policy"),
                u64_field(x, "winner_policy"),
                "{example}: served winner policy diverged from BENCH_explore.json"
            );
        }
    }

    let c = campaign[0];
    // Every submission is exactly one of: a unique run (cache miss), a
    // ready-cache hit, or coalesced onto an in-flight duplicate.
    assert_eq!(
        u64_field(c, "submissions"),
        u64_field(c, "unique_runs") + u64_field(c, "cache_hits") + u64_field(c, "coalesced"),
        "_campaign: submissions do not partition into runs + hits + coalesced"
    );
    let dup_hit_rate = f64_field(c, "dup_hit_rate");
    assert!(
        dup_hit_rate >= 0.5,
        "_campaign: duplicate-phase hit rate {dup_hit_rate} below 0.5"
    );
    assert!(
        f64_field(c, "throughput_jobs_per_s") > 0.0,
        "_campaign: non-positive throughput"
    );
    // The single-delta resyn probe must have warm-started against the
    // fingerprint cache: incumbent from the cache, no restart rung.
    assert!(
        bool_field(c, "resyn_incumbent_cached"),
        "_campaign: resyn probe synthesized its incumbent cold"
    );
    assert!(
        bool_field(c, "resyn_warm"),
        "_campaign: resyn probe degraded to a restart rung"
    );
    assert!(
        !str_field(c, "resyn_rung").is_empty(),
        "_campaign: resyn probe recorded no rung"
    );
}

#[test]
fn warmstart_artifact_soundness_and_ratios() {
    let Some(records) = load_records("BENCH_warmstart.json") else {
        return;
    };
    assert!(!records.is_empty(), "BENCH_warmstart.json has no rows");
    for r in &records {
        let example = str_field(r, "example");
        // The two campaign-wide soundness counters must be zero: the
        // admission check never falsely accepts, and every rejection is
        // genuinely infeasible even for cold synthesis.
        assert_eq!(
            u64_field(r, "admission_false_accepts"),
            0,
            "{example}: admission falsely accepted a delta"
        );
        assert_eq!(
            u64_field(r, "unsound_rejections"),
            0,
            "{example}: admission rejected a cold-feasible delta"
        );
        let sequences = match field(r, "sequences") {
            Value::Seq(s) => s,
            other => panic!("{example}: sequences is not an array: {other:?}"),
        };
        assert!(!sequences.is_empty(), "{example}: no sequences recorded");
        for s in sequences {
            let name = str_field(s, "name");
            let warm_cost = u64_field(s, "warm_cost");
            let cold_cost = u64_field(s, "cold_cost");
            assert!(warm_cost > 0, "{example}/{name}: zero warm cost");
            assert!(cold_cost > 0, "{example}/{name}: zero cold cost");
            let cost_ratio = f64_field(s, "cost_ratio");
            let expected = warm_cost as f64 / cold_cost as f64;
            assert!(
                (cost_ratio - expected).abs() < 1e-9,
                "{example}/{name}: cost_ratio {cost_ratio} is not warm/cold {expected}"
            );
            let speedup = f64_field(s, "speedup");
            assert!(
                speedup > 0.0,
                "{example}/{name}: speedup {speedup} not positive"
            );
            // Rung counts must cover every delta of the sequence: the
            // ladder accepts exactly one rung per delta.
            let deltas = u64_field(s, "deltas");
            // The vendored serde emits string-keyed maps as either a map
            // or a sequence of `[key, count]` pairs; accept both shapes.
            let rung_total: u64 = match field(s, "rungs") {
                Value::Map(entries) => entries
                    .iter()
                    .map(|(_, v)| match v {
                        Value::U64(n) => *n,
                        other => panic!("{example}/{name}: rung count {other:?}"),
                    })
                    .sum(),
                Value::Seq(pairs) => pairs
                    .iter()
                    .map(|pair| match pair {
                        Value::Seq(kv) => match kv.as_slice() {
                            [Value::Str(_), Value::U64(n)] => *n,
                            other => panic!("{example}/{name}: rung pair {other:?}"),
                        },
                        other => panic!("{example}/{name}: rung pair {other:?}"),
                    })
                    .sum(),
                other => panic!("{example}/{name}: rungs is not a map: {other:?}"),
            };
            assert_eq!(
                rung_total, deltas,
                "{example}/{name}: rung histogram does not cover every delta"
            );
        }
    }
}

#[test]
fn sweep_artifact_shape_counts_and_curves() {
    let Some(artifact) = load_object("BENCH_sweep.json") else {
        return;
    };
    // The committed grid: at least 5 utilization points, at least 5
    // seeds per point.
    let seeds_per_point = u64_field(&artifact, "seeds_per_point");
    assert!(
        seeds_per_point >= 5,
        "BENCH_sweep.json: only {seeds_per_point} seeds per point"
    );
    let utilizations = match field(&artifact, "utilizations") {
        Value::Seq(u) => u.len(),
        other => panic!("utilizations is not an array: {other:?}"),
    };
    assert!(
        utilizations >= 5,
        "BENCH_sweep.json: only {utilizations} utilization points"
    );
    let points = match field(&artifact, "points") {
        Value::Seq(points) => points,
        other => panic!("points is not an array: {other:?}"),
    };
    assert!(
        points.len() >= utilizations,
        "fewer grid points than utilization values"
    );

    for p in points {
        let util = f64_field(p, "utilization");
        let seeds = u64_field(p, "seeds");
        assert_eq!(seeds, seeds_per_point, "u={util}: seed count mismatch");
        // Every seed lands in exactly one outcome bucket.
        let accepted = u64_field(p, "accepted");
        let sum = accepted
            + u64_field(p, "lint_rejected")
            + u64_field(p, "infeasible")
            + u64_field(p, "audit_dirty");
        assert_eq!(sum, seeds, "u={util}: outcome buckets do not partition");
        // Generator validity and audit cleanliness, as the sweep bin
        // also enforces at generation time.
        assert_eq!(u64_field(p, "lint_rejected"), 0, "u={util}: lint-rejected");
        assert_eq!(u64_field(p, "audit_dirty"), 0, "u={util}: audit-dirty");
        let ratio = f64_field(p, "acceptance_ratio");
        let expected = accepted as f64 / seeds as f64;
        assert!(
            (ratio - expected).abs() < 1e-9,
            "u={util}: acceptance_ratio {ratio} is not accepted/seeds {expected}"
        );
        let runs = match field(p, "runs") {
            Value::Seq(runs) => runs,
            other => panic!("u={util}: runs is not an array: {other:?}"),
        };
        assert_eq!(runs.len() as u64, seeds, "u={util}: missing per-run rows");
        if accepted > 0 {
            assert!(
                f64_field(p, "mean_cost") > 0.0,
                "u={util}: accepted runs but no mean cost"
            );
        }
    }

    // The headline curve: per secondary value, acceptance at the lowest
    // utilization is no worse than at the highest. (Strict per-step
    // monotonicity does not hold at 5-10 seeds per point; the
    // endpoint comparison is the stable invariant.)
    let mut secondaries: Vec<&Value> = Vec::new();
    for p in points {
        let s = field(p, "secondary");
        if !secondaries.iter().any(|x| **x == *s) {
            secondaries.push(s);
        }
    }
    for s in secondaries {
        let curve: Vec<&Value> = points
            .iter()
            .filter(|p| field(p, "secondary") == s)
            .collect();
        assert!(
            curve.len() >= 2,
            "secondary {s:?}: not enough points for a curve"
        );
        let first = u64_field(curve[0], "accepted");
        let last = u64_field(curve[curve.len() - 1], "accepted");
        assert!(
            first >= last,
            "secondary {s:?}: acceptance rises with utilization ({first} -> {last})"
        );
    }
}
