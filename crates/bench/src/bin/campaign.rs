//! The fault-injection campaign: seeded fault scenarios against every
//! Table-2 example, each repaired and re-audited. The acceptance bar is
//! zero panics and zero audit-dirty repairs — every scenario either
//! survives on spare capacity, degrades at a quantified cost, or declines
//! with a typed error.
//!
//! ```text
//! campaign [--seeds N] [--examples M] [--no-reconfig]
//!          [--gen gen:SEED[:UTIL[:GRAPHS[:TIGHTNESS]]]] [--spec FILE]
//! ```
//!
//! Defaults: 13 seeds across all 8 examples (104 scenarios). `--gen`
//! runs the campaign against a `crusade-gen` generated family instead of
//! the built-ins; `--spec` against an external `{library, spec}` JSON
//! file. Exits nonzero if any scenario ends audit-dirty.

use crusade_bench::{exit_usage, flag};
use crusade_core::{CoSynthesis, CosynOptions};
use crusade_gen::{generate_payload, GenConfig};
use crusade_model::{ResourceLibrary, SystemSpec};
use crusade_verify::{audit, inject, Outcome};
use crusade_workloads::{paper_examples, paper_library};
use serde::Deserialize;

/// The on-disk payload `crusade synth` consumes: the campaign accepts
/// the same files via `--spec`.
#[derive(Deserialize)]
struct SpecFile {
    library: ResourceLibrary,
    spec: SystemSpec,
}

/// One campaign target: where the spec came from, the library it is
/// synthesized against, and the base of its fault-seed stream.
struct Target {
    name: String,
    library: ResourceLibrary,
    spec: SystemSpec,
    seed_base: u64,
}

/// Resolves `--gen` / `--spec` into explicit targets; defaults to the
/// first `example_cap` built-in paper examples.
fn targets(args: &[String], example_cap: usize) -> Vec<Target> {
    let mut targets = Vec::new();
    if let Some(reference) = flag::<String>(args, "--gen").unwrap_or_else(|e| exit_usage(&e)) {
        let config = match GenConfig::from_ref(&reference) {
            Some(Ok(config)) => config,
            Some(Err(e)) => {
                eprintln!("--gen {reference}: {e}");
                std::process::exit(1);
            }
            None => {
                eprintln!(
                    "--gen {reference}: expected a gen:SEED[:UTIL[:GRAPHS[:TIGHTNESS]]] reference"
                );
                std::process::exit(1);
            }
        };
        let (library, spec) = generate_payload(&config);
        targets.push(Target {
            name: format!("gen{}", config.seed),
            library,
            spec,
            seed_base: config.seed.wrapping_mul(5),
        });
    }
    if let Some(path) = flag::<String>(args, "--spec").unwrap_or_else(|e| exit_usage(&e)) {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("--spec {path}: {e}");
                std::process::exit(1);
            }
        };
        let file: SpecFile = match serde_json::from_str(&text) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("--spec {path}: {e}");
                std::process::exit(1);
            }
        };
        targets.push(Target {
            name: path,
            library: file.library,
            spec: file.spec,
            seed_base: 1,
        });
    }
    if targets.is_empty() {
        let lib = paper_library();
        for ex in paper_examples().iter().take(example_cap) {
            targets.push(Target {
                name: ex.name.to_string(),
                library: lib.lib.clone(),
                spec: ex.build(&lib),
                // Decorrelate the per-example seed streams so every
                // example sees all five fault kinds at different
                // victims/severities (keeps kind = seed % 5 cycling).
                seed_base: ex.seed.wrapping_mul(5),
            });
        }
    }
    targets
}

struct Tally {
    survived: u64,
    degraded: u64,
    failed: u64,
    dirty: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds = flag(&args, "--seeds")
        .unwrap_or_else(|e| exit_usage(&e))
        .unwrap_or(13u64);
    let example_cap = flag(&args, "--examples")
        .unwrap_or_else(|e| exit_usage(&e))
        .unwrap_or(8usize);
    let options = if args.iter().any(|a| a == "--no-reconfig") {
        CosynOptions::without_reconfiguration()
    } else {
        CosynOptions::default()
    };

    let mut total = Tally {
        survived: 0,
        degraded: 0,
        failed: 0,
        dirty: 0,
    };
    let mut scenarios = 0u64;

    for target in targets(&args, example_cap) {
        let (name, spec) = (&target.name, &target.spec);
        let deployed = match CoSynthesis::new(spec, &target.library)
            .with_options(options.clone())
            .run()
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: synthesis failed: {e}");
                std::process::exit(1);
            }
        };
        let baseline = audit(spec, &target.library, &options, &deployed);
        if !baseline.is_empty() {
            eprintln!(
                "{name}: pre-injection audit dirty ({} violations)",
                baseline.len()
            );
            for v in &baseline {
                eprintln!("  [{}] {v}", v.kind());
            }
            std::process::exit(1);
        }

        let mut tally = Tally {
            survived: 0,
            degraded: 0,
            failed: 0,
            dirty: 0,
        };
        for i in 0..seeds {
            let seed = target.seed_base.wrapping_add(i);
            let report = inject(spec, &target.library, &options, &deployed, seed);
            scenarios += 1;
            match &report.outcome {
                Outcome::Survived => tally.survived += 1,
                Outcome::Degraded { .. } => tally.degraded += 1,
                Outcome::FailedGracefully(_) => tally.failed += 1,
                Outcome::AuditDirty(violations) => {
                    tally.dirty += 1;
                    eprintln!(
                        "{name} seed {seed} ({}): repair passed but audit found:",
                        report.scenario
                    );
                    for v in violations {
                        eprintln!("  {v}");
                    }
                }
            }
        }
        println!(
            "{:<8} {:>5} tasks  {seeds:>3} scenarios: {:>3} survived, {:>3} degraded, \
             {:>3} failed gracefully, {:>2} audit-dirty",
            name,
            spec.task_count(),
            tally.survived,
            tally.degraded,
            tally.failed,
            tally.dirty
        );
        total.survived += tally.survived;
        total.degraded += tally.degraded;
        total.failed += tally.failed;
        total.dirty += tally.dirty;
    }

    println!(
        "campaign: {scenarios} scenarios — {} survived, {} degraded, {} failed gracefully, \
         {} audit-dirty",
        total.survived, total.degraded, total.failed, total.dirty
    );
    if total.dirty > 0 {
        eprintln!(
            "FAIL: {} scenario(s) produced an invalid repair",
            total.dirty
        );
        std::process::exit(1);
    }
}
