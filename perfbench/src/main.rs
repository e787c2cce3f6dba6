//! Benchmark of the CRUSADE workspace, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2|gen-sweep|serve-session> --seed N --seconds S --trace <0|1> [--self-test]
//! ```
//!
//! Every input is generated from `--seed`; every output is checked. The
//! untraced run (`--trace 0`) reports the end-to-end metrics, the traced
//! run (`--trace 1`) the per-layer metrics, each as one JSON object on
//! the last line of standard output. `table2` has only the traced run.
//! Supporting rows (one per Table-2 example, per sweep grid point, per
//! serve request kind) are printed above it. `--self-test` makes a
//! traced run of at least two passes and fails unless every
//! deterministic counter repeats exactly. See `perfbench/NOTES.md` for
//! what each metric means on each workload.

mod pipeline;
mod serve;
mod stats;
mod sweep;
mod table2;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::median;
use crate::trace::Tracer;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("accept_ratio", "ratio"),
    ("arch_cost_usd", "USD"),
    ("work_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics of the traced run. A workload that never calls a
/// layer reports 0 for it. Times are summed over one pass of the
/// workload's fixed op set unless the name says otherwise. Rejection
/// reasons that no workload produces, and counters that read 0 on every
/// workload in `BENCHMARK.json`, are left out (see NOTES.md).
const PER_LAYER: &[(&str, &str)] = &[
    ("model.validate_ms", "ms"),
    ("lint.busy_ms", "ms"),
    ("lint.oracle_build_ms", "ms"),
    ("cluster.busy_ms", "ms"),
    ("cluster.clusters", "count"),
    ("alloc.new_ms", "ms"),
    ("alloc.busy_ms", "ms"),
    ("alloc.calls", "count"),
    ("alloc.call_p50_us", "us"),
    ("alloc.call_p99_us", "us"),
    ("alloc.attempts", "count"),
    ("alloc.pruned", "count"),
    ("alloc.accept_ratio", "ratio"),
    ("alloc.rejected.WindowClosed", "count"),
    ("alloc.rejected.NoCpuSlot", "count"),
    ("alloc.rejected.EdgeUnroutable", "count"),
    ("alloc.rejected.ProducerInversion", "count"),
    ("alloc.infeasible_ms", "ms"),
    ("sched.placements", "count"),
    ("sched.preemptions", "count"),
    ("synth.busy_ms", "ms"),
    ("synth.self_ms", "ms"),
    ("reconfig.busy_ms", "ms"),
    ("reconfig.merges_examined", "count"),
    ("interface.busy_us", "us"),
    ("verify.audit_ms", "ms"),
    ("explore.busy_ms", "ms"),
    ("explore.cache_hit_ratio", "ratio"),
    ("explore.cache_hits", "count"),
    ("explore.cache_lookups", "count"),
    ("explore.dominated", "count"),
    ("resyn.admission_us", "us"),
    ("resyn.busy_ms", "ms"),
    ("resyn.rung.in-place", "count"),
    ("resyn.rung.warm", "count"),
    ("resyn.rung.widened", "count"),
    ("resyn.rung.portfolio", "count"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.fingerprint_us", "us"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.resyn_p50_ms", "ms"),
    ("serve.resyn_p90_ms", "ms"),
    ("serve.hit_share", "ratio"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("gen.generate_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// Counters read by the traced run that are not reported as metrics,
/// because they read 0 on every workload in `BENCHMARK.json`. They are
/// checked for determinism and printed on the traced run's summary row.
const EXTRA_COUNTERS: &[&str] = &[
    "lint.rejected",
    "reconfig.merges_accepted",
    "reconfig.modes_combined",
    "interface.boot_charges",
    "explore.skipped",
    "resyn.rung.cold",
    "serve.coalesced",
    "serve.rejected",
];

fn is_counter(name: &str) -> bool {
    EXTRA_COUNTERS.contains(&name)
        || PER_LAYER
            .iter()
            .any(|&(n, unit)| n == name && unit == "count")
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted (warm-up excluded).
    pub attempted: u64,
    /// Ops that failed: an unexpected error, an audit violation, a
    /// refused request or a parity / determinism mismatch.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Records a failed op and says why on standard error.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAIL: {why}");
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Times `setup` `reps` times and keeps the last result; the
/// benchmark's set-up time is the median.
pub fn repeat_setup<T>(reps: usize, setup: impl Fn() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// The traced passes of one run: per-layer metrics per pass, merged
/// into medians for times and exact, cross-checked values for counters.
#[derive(Default)]
pub struct Passes {
    maps: Vec<BTreeMap<String, f64>>,
    last_s: f64,
    first: Option<Tracer>,
}

impl Passes {
    /// Passes made so far.
    pub fn count(&self) -> usize {
        self.maps.len()
    }

    /// Wall time of the latest pass, s.
    pub fn last_s(&self) -> f64 {
        self.last_s
    }

    /// Adds one pass's metrics.
    pub fn push(&mut self, metrics: BTreeMap<String, f64>, secs: f64, tracer: &Tracer) {
        if self.first.is_none() {
            self.first = Some(tracer.clone());
        }
        self.maps.push(metrics);
        self.last_s = secs;
    }

    /// Merges the passes into `report`, fails the run on any counter that
    /// differs between passes, writes the first pass's spans, and lists
    /// the counters that stayed at zero.
    pub fn finish(self, report: &mut Report, workload: &str, seed: u64) {
        let Some(first) = self.maps.first() else {
            return;
        };
        let keys: std::collections::BTreeSet<String> =
            self.maps.iter().flat_map(|m| m.keys().cloned()).collect();
        for key in keys {
            let values: Vec<f64> = self
                .maps
                .iter()
                .map(|m| m.get(&key).copied().unwrap_or(0.0))
                .collect();
            if is_counter(&key) {
                if values.iter().any(|&v| v != values[0]) {
                    report.fail(format!("counter {key} differs between passes: {values:?}"));
                }
                report.set(&key, first.get(&key).copied().unwrap_or(0.0));
            } else {
                report.set(&key, median(&values));
            }
        }
        let zero: Vec<&str> = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .chain(EXTRA_COUNTERS.iter().copied())
            .filter(|n| is_counter(n) && report.metrics.get(*n).copied().unwrap_or(0.0) == 0.0)
            .collect();
        let extra: Vec<String> = EXTRA_COUNTERS
            .iter()
            .map(|n| format!("{n}={}", report.metrics.get(*n).copied().unwrap_or(0.0)))
            .collect();
        println!(
            "{workload} passes={} zero_counters={} extra_counters={}",
            self.maps.len(),
            zero.join(","),
            extra.join(",")
        );
        if let Some(tracer) = self.first {
            let path = spans_dir().join(format!("spans-{workload}-{seed}.jsonl"));
            match tracer.write_jsonl(&path) {
                Ok(()) => println!("{workload} spans={}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
}

/// Where the traced run writes its spans: under the build directory.
fn spans_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut self_test) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            self_test = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(45.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false) || self_test,
        self_test,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A self-test makes at least two traced passes so their counters can
    // be compared.
    let min_passes = if args.self_test { 2 } else { 1 };
    let trace = args.trace || args.workload == "table2";
    let mut report = match args.workload.as_str() {
        "table2" => table2::run(args.seed, args.seconds, min_passes),
        "gen-sweep" => sweep::run(args.seed, args.seconds, args.trace, min_passes),
        "serve-session" => serve::run(args.seed, args.seconds, args.trace, min_passes),
        other => {
            eprintln!("perfbench: unknown workload {other} (table2, gen-sweep, serve-session)");
            std::process::exit(2);
        }
    };
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    if !trace {
        match stats::peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => report.fail("peak RSS unavailable (/proc/self/status)".into()),
        }
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.set("ok_rate", ok);
    }
    if report.attempted == 0 {
        report.fail("no op was attempted".into());
        report.attempted = 1;
    }
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|&(name, unit)| {
            let v = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if args.self_test && report.failed > 0 {
        std::process::exit(1);
    }
}
