//! The synthesis verdict shared by the `table2` and `gen-sweep`
//! workloads, untraced and traced.
//!
//! Untraced, a verdict is what `crusade sweep` computes: an optional
//! lint pre-pass, one default `CoSynthesis::run`, and the independent
//! audit of an accepted architecture. Traced, each verdict is an `op`
//! span holding the same three calls, with `CoSynthesis::run` observed
//! so that its own phase spans (clustering, allocation,
//! reconfiguration, interface synthesis) become its children. The layer
//! coverage of an op leaves out the run's own time outside its phases.
//!
//! A `check` span after each op takes the verdict apart through the
//! crates' public functions and checks the pieces against the whole;
//! it is timed but not part of the op:
//!
//! - `SystemSpec::validate`, `PruningOracle::build` and
//!   `cluster_tasks_with`, each timed on its own;
//! - a benchmark-side replay of `CoSynthesis::run`'s allocation loop
//!   (`Allocator::new`, then one timed `Allocator::allocate` per cluster
//!   in the policy's order) with a `crusade-obs` metrics observer;
//! - the same run without an observer (the tracing-overhead baseline)
//!   and with reconfiguration off (the replay must reproduce its cost and
//!   attempt count exactly).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crusade_core::{
    cluster_tasks_with, Allocator, CoSynthesis, CosynOptions, SynthesisError, SynthesisResult,
};
use crusade_lint::{lint, LintOptions, PruningOracle};
use crusade_model::{ResourceLibrary, SystemSpec};
use crusade_obs::{Fanout, Metrics};

use crate::stats::{median, quantile};
use crate::trace::{ObsBridge, Tracer};
use crate::{Passes, Report};

/// How a verdict ended when nothing went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Synthesized and audit-clean.
    Accepted {
        /// Architecture cost in dollars.
        cost: u64,
        /// Allocation candidates evaluated.
        tried: usize,
    },
    /// The lint pre-pass proved the spec infeasible.
    LintRejected,
    /// Synthesis found no allocation or no programming interface.
    Infeasible,
}

/// Sorts a synthesis error into an expected infeasible verdict or a
/// failure of the op.
fn classify(e: &SynthesisError) -> Result<Outcome, String> {
    match e {
        SynthesisError::Unallocatable { .. } | SynthesisError::NoFeasibleInterface => {
            Ok(Outcome::Infeasible)
        }
        other => Err(format!("unexpected synthesis error: {other}")),
    }
}

/// `Ok` when the independent auditor finds no violation.
pub fn audit_clean(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    result: &SynthesisResult,
) -> Result<(), String> {
    let violations = crusade_verify::audit(spec, lib, &CosynOptions::default(), result);
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!(
            "audit found {} violation(s), first: {v}",
            violations.len()
        )),
    }
}

/// The untraced verdict: `[lint →] synthesis → audit`.
pub fn verdict(
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    lint_first: bool,
) -> Result<Outcome, String> {
    if lint_first && lint(spec, lib, &LintOptions::default()).has_errors() {
        return Ok(Outcome::LintRejected);
    }
    match CoSynthesis::new(spec, lib).run() {
        Ok(r) => {
            audit_clean(spec, lib, &r)?;
            Ok(Outcome::Accepted {
                cost: r.report.cost.amount(),
                tried: r.report.candidates_tried,
            })
        }
        Err(e) => classify(&e),
    }
}

/// Traced passes over `specs`, in order, while the run lasts and at
/// least `min_passes` of them. `accept_only` makes any verdict other
/// than an accepted architecture a failure. Returns the passes with the
/// per-layer metrics of each, and the first pass's verdicts with their
/// `CoSynthesis::run` time in ms (`None` for a failed op).
pub fn traced_passes(
    report: &mut Report,
    specs: &[&SystemSpec],
    lib: &ResourceLibrary,
    lint_first: bool,
    accept_only: bool,
    seconds: f64,
    min_passes: usize,
) -> (Passes, Vec<Option<(Outcome, f64)>>) {
    let mut passes = Passes::default();
    let mut rows = Vec::new();
    let start = Instant::now();
    while passes.count() < min_passes || start.elapsed().as_secs_f64() + passes.last_s() <= seconds
    {
        let pass_start = Instant::now();
        let tracer = Tracer::default();
        let mut layers = Layers::default();
        let mut pass_rows = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            tracer.set_op(i as u64);
            report.attempted += 1;
            pass_rows.push(
                match traced_verdict(&tracer, &mut layers, spec, lib, lint_first) {
                    Ok((o @ Outcome::Accepted { .. }, ms)) => Some((o, ms)),
                    Ok((other, _)) if accept_only => {
                        report.fail(format!("op {i}: {other:?}"));
                        None
                    }
                    Ok(row) => Some(row),
                    Err(e) => {
                        report.fail(format!("op {i}: {e}"));
                        None
                    }
                },
            );
        }
        if rows.is_empty() {
            rows = pass_rows;
        }
        passes.push(
            layers.metrics(&tracer),
            pass_start.elapsed().as_secs_f64(),
            &tracer,
        );
    }
    (passes, rows)
}

/// Per-pass accumulator of the traced verdicts' counters and samples.
#[derive(Debug, Default)]
struct Layers {
    /// Summed counters (name → value).
    counts: BTreeMap<String, f64>,
    /// Wall time of every `Allocator::allocate` call, µs.
    alloc_call_us: Vec<f64>,
    /// Summed traced / untraced `CoSynthesis::run` time, ns.
    synth_traced_ns: u64,
    /// See `synth_traced_ns`.
    synth_plain_ns: u64,
}

impl Layers {
    fn add(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// The per-layer metrics of this pass: the tracer's span totals plus
    /// the counters. Times are summed over the pass.
    fn metrics(&self, tracer: &Tracer) -> BTreeMap<String, f64> {
        let totals = tracer.totals();
        let busy_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e6);
        let mut m: BTreeMap<String, f64> = self.counts.clone();
        m.insert("model.validate_ms".into(), busy_ms("model.validate"));
        m.insert("lint.busy_ms".into(), busy_ms("lint.lint"));
        m.insert("lint.oracle_build_ms".into(), busy_ms("lint.oracle_build"));
        m.insert("cluster.busy_ms".into(), busy_ms("cluster"));
        m.insert("alloc.new_ms".into(), busy_ms("alloc.new"));
        m.insert("alloc.busy_ms".into(), busy_ms("alloc.allocate"));
        m.insert("alloc.calls".into(), self.alloc_call_us.len() as f64);
        m.insert("alloc.call_p50_us".into(), median(&self.alloc_call_us));
        m.insert(
            "alloc.call_p99_us".into(),
            quantile(&self.alloc_call_us, 0.99),
        );
        let attempts = self.counts.get("alloc.attempts").copied().unwrap_or(0.0);
        let accepted = self.counts.get("alloc.accepted").copied().unwrap_or(0.0);
        m.remove("alloc.accepted");
        m.insert(
            "alloc.accept_ratio".into(),
            if attempts > 0.0 {
                accepted / attempts
            } else {
                0.0
            },
        );
        m.insert("synth.busy_ms".into(), busy_ms("synth.run"));
        m.insert(
            "synth.self_ms".into(),
            totals.get("synth.run").map_or(0.0, |t| t.1 as f64 / 1e6),
        );
        m.insert("reconfig.busy_ms".into(), busy_ms("reconfiguration"));
        m.insert("interface.busy_us".into(), busy_ms("interface") * 1e3);
        m.insert("verify.audit_ms".into(), busy_ms("verify.audit"));
        m.insert(
            "trace.coverage_ratio".into(),
            tracer.coverage("op", &["synth.run"]),
        );
        if self.synth_plain_ns > 0 {
            m.insert(
                "obs.overhead_ratio".into(),
                self.synth_traced_ns as f64 / self.synth_plain_ns as f64,
            );
        }
        m
    }
}

/// What the traced verdict's `op` span produced.
struct Verdict {
    run: Result<SynthesisResult, SynthesisError>,
    run_ns: u64,
    audit: Result<(), String>,
}

/// The traced verdict (see the module docs): the `op` span, then the
/// `check` span that replays and compares it. Returns the outcome and
/// the traced `CoSynthesis::run` time in ms.
fn traced_verdict(
    tracer: &Tracer,
    acc: &mut Layers,
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    lint_first: bool,
) -> Result<(Outcome, f64), String> {
    let run_obs = Arc::new(Metrics::new());
    let Some(v) = tracer
        .time("op", || verdict_layers(tracer, &run_obs, spec, lib, lint_first))
        .0
    else {
        acc.add("lint.rejected", 1.0);
        return Ok((Outcome::LintRejected, 0.0));
    };
    let snap = run_obs.snapshot();
    acc.add("reconfig.merges_examined", snap.merges_examined as f64);
    acc.add("reconfig.merges_accepted", snap.merges_accepted as f64);
    acc.add("interface.boot_charges", snap.boot_charges as f64);
    acc.add("reconfig.modes_combined", snap.modes_combined as f64);
    acc.synth_traced_ns += v.run_ns;
    let run_ms = v.run_ns as f64 / 1e6;
    v.audit.clone()?;
    let outcome = tracer
        .time("check", || check_layers(tracer, acc, spec, lib, v))
        .0?;
    Ok((outcome, run_ms))
}

/// The verdict itself: `[lint →]` observed `CoSynthesis::run` → audit.
/// `None` when the lint pre-pass rejects the spec.
fn verdict_layers(
    tracer: &Tracer,
    obs: &Arc<Metrics>,
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    lint_first: bool,
) -> Option<Verdict> {
    if lint_first {
        let (report, _) = tracer.time("lint.lint", || lint(spec, lib, &LintOptions::default()));
        if report.has_errors() {
            return None;
        }
    }
    let fanout = Fanout::new()
        .with(obs.clone())
        .with(Arc::new(ObsBridge(tracer.clone())));
    let (run, run_ns) = tracer.time("synth.run", || {
        CoSynthesis::new(spec, lib)
            .with_options(CosynOptions::default().with_observer(Arc::new(fanout)))
            .run()
    });
    let audit = match &run {
        Ok(r) => tracer.time("verify.audit", || audit_clean(spec, lib, r)).0,
        Err(_) => Ok(()),
    };
    Some(Verdict { run, run_ns, audit })
}

/// The check of one verdict (see the module docs).
fn check_layers(
    tracer: &Tracer,
    acc: &mut Layers,
    spec: &SystemSpec,
    lib: &ResourceLibrary,
    verdict: Verdict,
) -> Result<Outcome, String> {
    tracer
        .time("model.validate", || spec.validate())
        .0
        .map_err(|e| format!("validate: {e}"))?;
    let base = CosynOptions::default();
    tracer.time("lint.oracle_build", || {
        black_box(PruningOracle::build(spec, lib, &base.lint_options()))
    });

    // Replay of `CoSynthesis::run`'s allocation loop.
    let replay_obs = Arc::new(Metrics::new());
    let ropts = CosynOptions::default()
        .with_observer(replay_obs.clone())
        .effective();
    let clustering = tracer
        .time("cluster", || cluster_tasks_with(spec, lib, &ropts))
        .0
        .map_err(|e| format!("clustering: {e}"))?;
    acc.add("cluster.clusters", clustering.cluster_count() as f64);
    let (mut allocator, _) = tracer.time("alloc.new", || {
        Allocator::new(spec, lib, &ropts, &clustering)
    });
    let mut ids: Vec<_> = clustering.clusters().map(|(id, _)| id).collect();
    ropts.policy.perturb_order(&mut ids);
    let mut replay_err = None;
    let mut alloc_ns = 0u64;
    for cid in ids {
        let (r, ns) = tracer.time("alloc.allocate", || allocator.allocate(cid));
        acc.alloc_call_us.push(ns as f64 / 1e3);
        alloc_ns += ns;
        if let Err(e) = r {
            replay_err = Some(e);
            break;
        }
    }
    let (tried, pruned) = allocator.candidate_counters();
    let replay_cost = allocator.arch.cost(lib).amount();
    drop(allocator);
    let snap = replay_obs.snapshot();
    acc.add("alloc.attempts", tried as f64);
    acc.add("alloc.pruned", pruned as f64);
    acc.add("alloc.accepted", snap.accepted as f64);
    acc.add("sched.placements", snap.placements as f64);
    acc.add("sched.preemptions", snap.preemptions as f64);
    for (reason, n) in &snap.rejections_by_reason {
        acc.add(&format!("alloc.rejected.{reason}"), *n as f64);
    }

    // The untraced and reconfiguration-off comparison runs.
    let (plain, plain_ns) = tracer.time("synth.untraced", || CoSynthesis::new(spec, lib).run());
    let (norecon, _) = tracer.time("synth.norecon", || {
        CoSynthesis::new(spec, lib)
            .with_options(CosynOptions::without_reconfiguration())
            .run()
    });
    acc.synth_plain_ns += plain_ns;
    let traced = verdict.run;

    if let Some(e) = replay_err {
        let outcome = classify(&e)?;
        acc.add("alloc.infeasible_ms", alloc_ns as f64 / 1e6);
        for run in [&traced, &plain, &norecon] {
            if run.as_ref().err() != Some(&e) {
                return Err(format!(
                    "replay failed with {e} but CoSynthesis::run did not"
                ));
            }
        }
        return Ok(outcome);
    }
    let norecon = norecon.map_err(|e| format!("reconfiguration-off run failed: {e}"))?;
    if norecon.report.cost.amount() != replay_cost || norecon.report.candidates_tried != tried {
        return Err(format!(
            "replay ${replay_cost}/{tried} attempts differs from the reconfiguration-off run \
             ${}/{}",
            norecon.report.cost.amount(),
            norecon.report.candidates_tried
        ));
    }
    match (traced, plain) {
        (Ok(t), Ok(p)) => {
            let (tr, pr) = (&t.report, &p.report);
            if tr.candidates_tried != tried || tr.candidates_pruned != pruned {
                return Err(format!(
                    "replay tried/pruned {tried}/{pruned}, CoSynthesis::run {}/{}",
                    tr.candidates_tried, tr.candidates_pruned
                ));
            }
            if (tr.cost, tr.pe_count, tr.link_count) != (pr.cost, pr.pe_count, pr.link_count) {
                return Err("the observer changed the architecture".into());
            }
            Ok(Outcome::Accepted {
                cost: tr.cost.amount(),
                tried,
            })
        }
        (Err(a), Err(b)) if a == b => classify(&a),
        (a, b) => Err(format!(
            "traced and untraced runs disagree: {:?} vs {:?}",
            a.err(),
            b.err()
        )),
    }
}
