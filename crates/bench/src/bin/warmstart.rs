//! Soak campaign for the online re-synthesis ladder: warm-start repair
//! versus cold re-synthesis on the paper's eight examples.
//!
//! For every selected example the campaign cold-synthesizes the
//! incumbent once, then drives four delta sequences through
//! [`crusade_explore::resynthesize_sequence`]:
//!
//! 1. **add** — a single late-feature task graph arrives;
//! 2. **fail** — a single PE instance dies;
//! 3. **tighten** — one graph's deadline shrinks within its slack;
//! 4. **burst** — an adversarial seeded burst of PE failures with a
//!    partial restore in the middle.
//!
//! Each sequence's warm wall time (the `resyn` obs phase span, covering
//! admission and every ladder rung) is compared against a cold
//! co-synthesis of the same final specification (sum of its obs phase
//! spans), yielding a wall-time ratio and a cost ratio. Two soundness
//! counters must be zero campaign-wide:
//!
//! - **admission false-accepts** — an admitted delta that then proved
//!   infeasible even for cold synthesis;
//! - **unsound rejections** — a rejection probe (deadline tightened to
//!   1 ns) that cold synthesis somehow satisfied anyway.
//!
//! The run writes `BENCH_warmstart.json` with per-sequence cost/wall
//! ratios, the escalation-ladder rung histogram, and the soundness
//! counters, and exits non-zero on any violated invariant.
//!
//! ```text
//! cargo run --release -p crusade-bench --bin warmstart -- [--examples A,B] [--seed N]
//!                                                         [--gen gen:SEED[:UTIL[...]]]
//! ```
//!
//! `--gen` soaks the ladder on a `crusade-gen` generated family instead
//! of the built-in examples.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crusade_bench::{exit_usage, flag, json};
use crusade_core::{CoSynthesis, CosynOptions, SynthesisResult};
use crusade_explore::{resynthesize_sequence, ResynConfig, ResynError};
use crusade_gen::GenConfig;
use crusade_model::{GraphId, Nanos, ResourceLibrary, SpecDelta, SystemSpec};
use crusade_obs::Metrics;
use crusade_workloads::{blocks::sw_pipeline, paper_examples, paper_library, PaperLibrary};
use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
use serde::Serialize;

/// One delta sequence's measurements.
#[derive(Debug, Clone, Serialize)]
struct SequenceRecord {
    /// Sequence name (`add`, `fail`, `tighten`, `burst`).
    name: String,
    /// Number of deltas in the sequence.
    deltas: usize,
    /// How many deltas each ladder rung finally served.
    rungs: BTreeMap<String, usize>,
    /// Final architecture cost after the sequence.
    warm_cost: u64,
    /// Cost of a cold co-synthesis of the same final specification.
    cold_cost: u64,
    /// `warm_cost / cold_cost` — how much the warm result overpays.
    cost_ratio: f64,
    /// The `resyn` obs phase span: the whole ladder, microseconds.
    warm_phase_us: u64,
    /// Sum of the cold run's obs phase spans, microseconds.
    cold_phase_us: u64,
    /// `cold_phase_us / warm_phase_us` — warm-start speedup.
    speedup: f64,
    /// Whether any delta degraded to a portfolio or cold restart.
    degraded: bool,
}

/// One example's campaign record.
#[derive(Debug, Clone, Serialize)]
struct WarmstartRecord {
    example: String,
    tasks: usize,
    /// Incumbent (initial cold synthesis) cost.
    incumbent_cost: u64,
    /// Incumbent synthesis wall-clock, milliseconds.
    incumbent_wall_ms: f64,
    /// Per-sequence measurements.
    sequences: Vec<SequenceRecord>,
    /// Geometric-mean warm-start speedup over the single-delta
    /// sequences (`add`, `fail`, `tighten`).
    single_delta_speedup: f64,
    /// Admitted deltas that then proved infeasible even cold. Must be 0.
    admission_false_accepts: usize,
    /// Rejection probes that cold synthesis satisfied anyway. Must be 0.
    unsound_rejections: usize,
}

/// Cold-synthesizes `spec` with a fresh metrics observer, returning the
/// result, the sum of its obs phase spans (µs) and the wall-clock (ms).
fn cold(spec: &SystemSpec, lib: &ResourceLibrary) -> Option<(SynthesisResult, u64, f64)> {
    let metrics = Arc::new(Metrics::new());
    let options = CosynOptions::default().with_observer(metrics.clone());
    let t = Instant::now();
    let result = CoSynthesis::new(spec, lib)
        .with_options(options)
        .run()
        .ok()?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let phase_us = metrics.snapshot().phase_wall_us.values().sum();
    Some((result, phase_us, wall_ms))
}

/// Builds the adversarial burst: fail several distinct live PEs, restore
/// the first mid-burst, then fail one more.
fn burst_deltas(rng: &mut SmallRng, live: &[u32]) -> Vec<SpecDelta> {
    let mut pes: Vec<u32> = live.to_vec();
    pes.shuffle(rng);
    let strikes = pes.len().min(4);
    let mut deltas: Vec<SpecDelta> = Vec::new();
    for (i, &pe) in pes.iter().take(strikes).enumerate() {
        deltas.push(SpecDelta::FailPe { pe });
        if i == 1 {
            if let Some(&first) = pes.first() {
                deltas.push(SpecDelta::RestorePe { pe: first });
            }
        }
    }
    deltas
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = flag(&args, "--seed")
        .unwrap_or_else(|e| exit_usage(&e))
        .unwrap_or(0xCAFE);
    let selected: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--examples")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().to_ascii_uppercase())
                .collect()
        });

    crusade_verify::install_auditor();
    let paper = paper_library();
    // Soak targets: a generated family when `--gen` is given, the
    // selected built-in examples otherwise.
    let targets: Vec<(String, SystemSpec)> = if let Some(reference) = args
        .iter()
        .position(|a| a == "--gen")
        .and_then(|i| args.get(i + 1))
    {
        match GenConfig::from_ref(reference) {
            Some(Ok(cfg)) => vec![(
                format!("gen{}", cfg.seed),
                crusade_gen::generate(&paper, &cfg).spec,
            )],
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
        }
    } else {
        paper_examples()
            .iter()
            .filter(|ex| {
                selected
                    .as_ref()
                    .map_or(true, |names| names.iter().any(|n| n == ex.name))
            })
            .map(|ex| (ex.name.to_string(), ex.build(&paper)))
            .collect()
    };
    let config = ResynConfig::default();
    println!("online re-synthesis soak: seed {seed:#x}\n");
    println!(
        "{:<8} {:>6} | {:<8} {:>6} | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>8} | rungs",
        "example",
        "tasks",
        "seq",
        "deltas",
        "warm $",
        "cold $",
        "ratio",
        "warm(us)",
        "cold(us)",
        "speedup"
    );

    let mut records: Vec<WarmstartRecord> = Vec::new();
    let mut failed = false;
    for (ex_index, (target, spec)) in targets.iter().enumerate() {
        let target = target.as_str();
        let Some((incumbent, _, incumbent_wall_ms)) = cold(spec, &paper.lib) else {
            println!("{target:<8} incumbent synthesis failed");
            failed = true;
            continue;
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ (ex_index as u64).wrapping_mul(0x9E37));
        // Instance ids of the incumbent's *live* PEs: slots can be
        // retired during synthesis, so the ids are sparse and faults
        // must strike the live set, not `0..pe_count`.
        let live: Vec<u32> = incumbent
            .architecture
            .pes()
            .map(|(id, _)| u32::try_from(id.index()).unwrap_or(u32::MAX))
            .collect();

        let sequences: Vec<(&str, Vec<SpecDelta>)> = vec![
            (
                "add",
                vec![SpecDelta::AddTaskGraph {
                    graph: late_feature(&paper, &mut rng, target),
                }],
            ),
            (
                "fail",
                vec![SpecDelta::FailPe {
                    pe: live
                        .get(rng.gen_range(0..live.len().max(1)))
                        .copied()
                        .unwrap_or(0),
                }],
            ),
            (
                "tighten",
                vec![SpecDelta::TightenDeadline {
                    graph: GraphId::new(0),
                    deadline: Nanos::from_nanos(
                        spec.graph(GraphId::new(0)).deadline().as_nanos() * 99 / 100,
                    ),
                }],
            ),
            ("burst", burst_deltas(&mut rng, &live)),
        ];

        let mut seq_records: Vec<SequenceRecord> = Vec::new();
        let mut false_accepts = 0usize;
        for (name, deltas) in sequences {
            let metrics = Arc::new(Metrics::new());
            let seq_config = ResynConfig {
                base: CosynOptions::default().with_observer(metrics.clone()),
                ..config.clone()
            };
            let outcome = match resynthesize_sequence(
                spec,
                &paper.lib,
                incumbent.clone(),
                &deltas,
                &seq_config,
            ) {
                Ok(o) => o,
                Err(ResynError::Infeasible { index, detail }) => {
                    // An admitted delta the ladder could not satisfy
                    // even cold: the admission check falsely accepted.
                    println!(
                        "{:<8} {name}: FALSE ACCEPT at delta {index}: {detail}",
                        target
                    );
                    false_accepts += 1;
                    failed = true;
                    continue;
                }
                Err(e) => {
                    println!("{:<8} {name}: ladder error: {e}", target);
                    failed = true;
                    continue;
                }
            };
            let warm_phase_us = metrics
                .snapshot()
                .phase_wall_us
                .get("resyn")
                .copied()
                .unwrap_or(0);
            let Some((cold_result, cold_phase_us, _)) = cold(&outcome.spec, &paper.lib) else {
                println!(
                    "{:<8} {name}: cold baseline failed on the final specification",
                    target
                );
                failed = true;
                continue;
            };
            let warm_cost = outcome.report.final_cost;
            let cold_cost = cold_result.report.cost.amount();
            let cost_ratio = warm_cost as f64 / cold_cost.max(1) as f64;
            let speedup = cold_phase_us as f64 / warm_phase_us.max(1) as f64;
            let rungs: BTreeMap<String, usize> = outcome
                .report
                .rung_histogram()
                .into_iter()
                .filter(|(_, n)| *n > 0)
                .map(|(tag, n)| (tag.to_string(), n))
                .collect();
            let rung_line: Vec<String> =
                rungs.iter().map(|(tag, n)| format!("{tag} {n}")).collect();
            println!(
                "{:<8} {:>6} | {:<8} {:>6} | {:>8}$ {:>8}$ {:>6.2} | {:>9} {:>9} {:>7.1}x | {}",
                target,
                spec.task_count(),
                name,
                deltas.len(),
                warm_cost,
                cold_cost,
                cost_ratio,
                warm_phase_us,
                cold_phase_us,
                speedup,
                rung_line.join(", "),
            );
            seq_records.push(SequenceRecord {
                name: name.to_string(),
                deltas: deltas.len(),
                rungs,
                warm_cost,
                cold_cost,
                cost_ratio,
                warm_phase_us,
                cold_phase_us,
                speedup,
                degraded: outcome.report.degraded,
            });
        }

        // Rejection-soundness probe: a 1 ns deadline must be rejected by
        // admission AND genuinely infeasible for cold synthesis.
        let mut unsound_rejections = 0usize;
        let probe = vec![SpecDelta::TightenDeadline {
            graph: GraphId::new(0),
            deadline: Nanos::from_nanos(1),
        }];
        match resynthesize_sequence(spec, &paper.lib, incumbent.clone(), &probe, &config) {
            Err(ResynError::Rejected { .. }) => {
                if let Ok(probed) = probe[0].apply(spec) {
                    if cold(&probed, &paper.lib).is_some() {
                        println!(
                            "{:<8} probe: UNSOUND REJECTION — cold synthesis satisfied a \
                             rejected delta",
                            target
                        );
                        unsound_rejections += 1;
                        failed = true;
                    }
                }
            }
            other => {
                println!(
                    "{:<8} probe: expected an admission rejection, got {:?}",
                    target,
                    other.map(|o| o.report.final_cost),
                );
                failed = true;
            }
        }

        let singles: Vec<f64> = seq_records
            .iter()
            .filter(|s| s.deltas == 1)
            .map(|s| s.speedup.max(f64::MIN_POSITIVE))
            .collect();
        let single_delta_speedup = if singles.is_empty() {
            0.0
        } else {
            (singles.iter().map(|s| s.ln()).sum::<f64>() / singles.len() as f64).exp()
        };
        records.push(WarmstartRecord {
            example: target.to_string(),
            tasks: spec.task_count(),
            incumbent_cost: incumbent.report.cost.amount(),
            incumbent_wall_ms,
            sequences: seq_records,
            single_delta_speedup,
            admission_false_accepts: false_accepts,
            unsound_rejections,
        });
    }

    if !records.is_empty() {
        let meets_5x = records
            .iter()
            .filter(|r| r.single_delta_speedup >= 5.0)
            .count();
        let false_accepts: usize = records.iter().map(|r| r.admission_false_accepts).sum();
        let unsound: usize = records.iter().map(|r| r.unsound_rejections).sum();
        println!(
            "\n{} example(s): {meets_5x} with single-delta warm speedup >= 5x, \
             {false_accepts} admission false-accept(s), {unsound} unsound rejection(s)",
            records.len()
        );
    }
    if let Err(e) = json::write("BENCH_warmstart.json", &records) {
        eprintln!("BENCH_warmstart.json: {e}");
        std::process::exit(1);
    }
    if failed {
        eprintln!("FAIL: at least one sequence violated a re-synthesis invariant");
        std::process::exit(1);
    }
}

/// A small software pipeline arriving as a late feature.
fn late_feature(
    paper: &PaperLibrary,
    rng: &mut SmallRng,
    example: &str,
) -> crusade_model::TaskGraph {
    sw_pipeline(
        paper,
        rng,
        &format!("late-feature-{example}"),
        4,
        Nanos::from_millis(20),
    )
}
