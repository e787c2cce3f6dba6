//! Determinism contract of the workload generator and its sweep
//! harness:
//!
//! - `crusade sweep --seed S --out f` twice produces identical JSON
//!   payloads once the wall-clock fields (`wall_ms`, `mean_wall_ms`,
//!   `metrics.phase_wall_us`) are stripped;
//! - a generated specification explores to a bit-identical winning
//!   architecture at `--jobs` 1, 2 and 8;
//! - `gen:` references work through the CLI's shared spec-loading path.

// Test code: helpers unwrap freely on controlled inputs.
#![allow(clippy::unwrap_used)]

use std::process::Command;

use crusade::explore::{explore, ExploreConfig};
use crusade::gen::{generate_payload, GenConfig};
use serde::Value;

fn crusade_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_crusade"))
        .args(args)
        .output()
        .expect("spawning the crusade binary")
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("crusade-sweep-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    dir.join(format!("{tag}.json"))
}

/// Removes every nondeterministic wall-clock field, at any depth.
fn strip_wallclock(value: &mut Value) {
    match value {
        Value::Map(entries) => {
            entries.retain(|(k, _)| k != "wall_ms" && k != "mean_wall_ms" && k != "phase_wall_us");
            for (_, v) in entries {
                strip_wallclock(v);
            }
        }
        Value::Seq(items) => {
            for v in items {
                strip_wallclock(v);
            }
        }
        _ => {}
    }
}

/// Runs `crusade sweep` on a tiny grid and returns the artifact with the
/// wall-clock fields stripped.
fn sweep_artifact(tag: &str) -> Value {
    let out = temp_path(tag);
    let output = crusade_bin(&[
        "sweep",
        "--seed",
        "41",
        "--points",
        "1.2,2.0",
        "--seeds",
        "2",
        "--secondary",
        "none",
        "--out",
        out.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "sweep must be clean: stdout={} stderr={}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let text = std::fs::read_to_string(&out).expect("reading the sweep artifact");
    let mut value: Value = serde_json::from_str(&text).expect("artifact parses as JSON");
    strip_wallclock(&mut value);
    value
}

#[test]
fn sweep_cli_replays_byte_identically_modulo_wallclock() {
    let first = sweep_artifact("first");
    let second = sweep_artifact("second");
    assert_eq!(
        first, second,
        "two runs of the same sweep differ beyond wall-clock fields"
    );
    // The stripped artifact still carries the curves.
    let points = match first.get("points") {
        Some(Value::Seq(points)) => points,
        other => panic!("artifact has no points array: {other:?}"),
    };
    assert_eq!(points.len(), 2);
    for point in points {
        assert!(point.get("acceptance_ratio").is_some());
        assert!(point.get("runs").is_some());
    }
}

#[test]
fn generated_specs_explore_identically_across_jobs() {
    let config = GenConfig {
        seed: 99,
        utilization: 2.0,
        ..GenConfig::default()
    };
    let (library, spec) = generate_payload(&config);
    let baseline = explore(&spec, &library, &ExploreConfig::new(4, 1))
        .expect("the default family is feasible");
    let baseline_arch =
        serde_json::to_string(&baseline.winner.architecture).expect("architecture serializes");
    for jobs in [2, 8] {
        let outcome = explore(&spec, &library, &ExploreConfig::new(4, jobs))
            .expect("the default family is feasible");
        assert_eq!(
            baseline.winner.report.cost, outcome.winner.report.cost,
            "winner cost differs at --jobs {jobs}"
        );
        assert_eq!(
            baseline_arch,
            serde_json::to_string(&outcome.winner.architecture).expect("architecture serializes"),
            "winning architecture differs at --jobs {jobs}"
        );
    }
}

#[test]
fn gen_references_load_through_the_cli() {
    // The shared loading path accepts gen: references wherever a spec
    // file or example name is accepted.
    // gen:42 lints clean but no allocation exists for it, so synth
    // takes gen:1, a feasible family.
    for (command, reference) in [("lint", "gen:42"), ("synth", "gen:1")] {
        let output = crusade_bin(&[command, reference]);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{command} {reference}: stdout={} stderr={}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        let output = crusade_bin(&[command, "gen:not-a-seed"]);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{command}: a malformed gen: reference is an operational error"
        );
    }
}
