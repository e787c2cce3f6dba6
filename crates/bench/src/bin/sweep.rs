//! Schedulability-ratio sweep over generated workload families: the
//! bench-grade grid behind `BENCH_sweep.json`.
//!
//! For every utilization point × deadline-tightness value the bin
//! generates `--seeds` seeded specs with `crusade-gen`, runs
//! lint → synthesis → independent audit on each, and records the
//! acceptance ratio, mean architecture cost and aggregated obs metrics.
//! Three invariants are enforced campaign-wide and fail the run:
//!
//! - **generator validity** — no generated spec is rejected by the lint
//!   pre-pass (the generator's structural-validity guarantee);
//! - **audit cleanliness** — no accepted architecture fails the
//!   independent re-audit;
//! - **determinism** — regenerating the first grid corner's spec
//!   reproduces it byte-identically;
//!
//! plus the headline shape: per tightness value, acceptance at the
//! lowest utilization is no worse than at the highest (the
//! schedulability curve declines).
//!
//! ```text
//! cargo run --release -p crusade-bench --bin sweep -- [--seeds N] [--seed S]
//! ```

use crusade_gen::{generate, run_sweep, GenConfig, SweepArtifact, SweepConfig};
use crusade_workloads::paper_library;

use crusade_bench::{exit_usage, flag, json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = SweepConfig {
        base: GenConfig {
            seed: flag(&args, "--seed")
                .unwrap_or_else(|e| exit_usage(&e))
                .unwrap_or(GenConfig::default().seed),
            ..GenConfig::default()
        },
        seeds: flag(&args, "--seeds")
            .unwrap_or_else(|e| exit_usage(&e))
            .unwrap_or(10u64)
            .max(1),
        ..SweepConfig::default()
    };
    let lib = paper_library();

    println!(
        "schedulability sweep: {} utilization point(s) x {} {} value(s) x {} seed(s)\n",
        config.utilizations.len(),
        config.secondary.values().len(),
        config.secondary.name(),
        config.seeds,
    );
    println!(
        "{:>6} {:>10} | {:>9} {:>7} {:>7} {:>6} | {:>10} {:>9}",
        "util", "tightness", "accepted", "lint-", "infeas", "dirty", "mean $", "attempts"
    );
    let points = run_sweep(&lib, &config, |p| {
        println!(
            "{:>6.2} {:>10} | {:>6}/{:<2} {:>7} {:>7} {:>6} | {:>10} {:>9}",
            p.utilization,
            p.secondary.map_or("-".to_string(), |v| format!("{v:.2}")),
            p.accepted,
            p.seeds,
            p.lint_rejected,
            p.infeasible,
            p.audit_dirty,
            p.mean_cost.map_or("-".to_string(), |c| format!("{c:.0}")),
            p.mean_attempts
                .map_or("-".to_string(), |a| format!("{a:.0}")),
        );
    });

    let mut failed = false;

    // Generator validity: the lint pre-pass must never reject a family.
    let lint_rejected: u64 = points.iter().map(|p| p.lint_rejected).sum();
    if lint_rejected > 0 {
        eprintln!("FAIL: {lint_rejected} generated spec(s) were lint-rejected");
        failed = true;
    }
    // Audit cleanliness: every accepted architecture re-verified.
    let dirty: u64 = points.iter().map(|p| p.audit_dirty).sum();
    if dirty > 0 {
        eprintln!("FAIL: {dirty} synthesized architecture(s) failed the audit");
        failed = true;
    }
    // Determinism probe: the first grid corner regenerates identically.
    let mut corner = config.base.clone();
    corner.utilization = config.utilizations.first().copied().unwrap_or(1.0);
    let (a, b) = (generate(&lib, &corner), generate(&lib, &corner));
    if a != b {
        eprintln!("FAIL: the same seed generated two different specs");
        failed = true;
    }
    // Shape: per tightness value, the acceptance curve declines from the
    // lowest to the highest utilization point.
    for secondary in config.secondary.values() {
        let curve: Vec<&crusade_gen::SweepPoint> =
            points.iter().filter(|p| p.secondary == secondary).collect();
        if let (Some(first), Some(last)) = (curve.first(), curve.last()) {
            if first.accepted < last.accepted {
                eprintln!(
                    "FAIL: acceptance rises with utilization at {}={:?} ({} -> {})",
                    config.secondary.name(),
                    secondary,
                    first.accepted,
                    last.accepted,
                );
                failed = true;
            }
        }
    }

    let total: u64 = points.iter().map(|p| p.seeds).sum();
    let accepted: u64 = points.iter().map(|p| p.accepted).sum();
    println!(
        "\nsweep: {}/{} run(s) accepted across {} grid point(s)",
        accepted,
        total,
        points.len(),
    );
    let artifact = SweepArtifact::new(&config, points);
    if let Err(e) = json::write("BENCH_sweep.json", &artifact) {
        eprintln!("BENCH_sweep.json: {e}");
        std::process::exit(1);
    }
    if failed {
        eprintln!("FAIL: at least one sweep invariant was violated");
        std::process::exit(1);
    }
}
