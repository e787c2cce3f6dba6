//! `serve-session`: an in-process `crusade-serve` daemon (2 workers,
//! one thread per exploration) driven over loopback TCP by one
//! closed-loop client.
//!
//! The client plays a fixed, seed-drawn script of three request kinds:
//!
//! - cold `Submit`s of distinct generated specs (24–48 task graphs), each
//!   running an 8-policy exploration portfolio;
//! - duplicate `Submit`s of a spec sent earlier in the script, answered
//!   from the fingerprint cache;
//! - single-delta `Resyn`s (add a graph, fail a PE, tighten a deadline by
//!   1%) against a cached incumbent.
//!
//! The mix is an assumed, synthetic one: no trace of real `crusade-serve`
//! traffic exists to take it from. The request counts are sized so that
//! every reported percentile has at least ten samples beyond it.
//!
//! One client, not two: with two clients and both workers busy on a
//! 2-vCPU host, the cold-submit p90 spread 0.27 over ten seeds, beyond
//! the largest bound a metric may have (see `perfbench/NOTES.md`).
//! Because requests never overlap, every cold submit runs an exploration
//! and every duplicate is a cache hit; an answer of another kind fails
//! the op.
//!
//! The script is replayed in rounds, each on a fresh daemon with an
//! empty cache, as many as fit the run. A request's latency is its
//! fastest round: the host's speed swings by a quarter within seconds,
//! and the minimum over rounds filters that out.
//!
//! The traced run replays the script's cold specs and resyns in process
//! after the rounds: every served winner must equal
//! `crusade_explore::explore` at one job on (cost, policy id), and every
//! served resyn must equal `resynthesize_sequence` from that winner.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crusade_core::{admission_check, CoSynthesis, CosynOptions};
use crusade_explore::{explore, resynthesize_sequence, ExploreConfig, ResynConfig};
use crusade_gen::{generate, GenConfig};
use crusade_model::{GraphId, Nanos, ResourceLibrary, SpecDelta, SystemSpec};
use crusade_obs::{Fanout, Metrics};
use crusade_serve::{ServeClient, ServeConfig, ServerHandle, ServerStats, SpecPayload};
use crusade_workloads::{paper_library, PaperLibrary};

use crate::stats::{beyond, median, ms, quantile, timed, Rng};
use crate::trace::{ObsBridge, Tracer};
use crate::{Passes, Report};

const WORKERS: usize = 2;
const PORTFOLIO: usize = 8;
/// Requests in the script: cold submits, duplicates, resyns. 112 cold
/// submits and 100 resyns put at least ten samples beyond their p90;
/// duplicates are reported at p50 only.
const COLDS: usize = 112;
const DUPS: usize = 80;
const RESYNS: usize = 100;
/// Task-graph counts of the cold specs.
const GRAPHS: [usize; 4] = [24, 32, 40, 48];
/// Untraced runs make at least this many rounds.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
enum Req {
    /// A cold submit of spec `idx` of the pool.
    Cold(usize),
    /// A repeat of spec `idx`, already submitted.
    Dup(usize),
    /// One delta against spec `idx`, already submitted.
    Resyn { idx: usize, delta: SpecDelta },
}

struct Setup {
    lib: ResourceLibrary,
    pool: Vec<SystemSpec>,
    script: Vec<Req>,
    warm: SystemSpec,
    generate_ms: f64,
}

/// Generated spec `k` of a pool that the baseline policy can synthesize,
/// so every cold submit has an answer (the portfolio always includes the
/// baseline member). Graph count, utilization and tightness are
/// stratified over `k`, so every seed draws the same mix of sizes. Adds
/// the generation time to `generate_ms`.
fn feasible_spec(
    paper: &PaperLibrary,
    rng: &mut Rng,
    k: usize,
    generate_ms: &mut f64,
) -> SystemSpec {
    loop {
        let config = GenConfig {
            seed: rng.next_u64(),
            graphs: GRAPHS[k % GRAPHS.len()],
            utilization: [0.8, 1.6, 2.4][k / GRAPHS.len() % 3],
            tightness: [0.45, 0.75][k / (3 * GRAPHS.len()) % 2],
            ..GenConfig::default()
        };
        let (spec, d) = timed(|| generate(paper, &config).spec);
        *generate_ms += ms(d);
        if CoSynthesis::new(&spec, &paper.lib).run().is_ok() {
            return spec;
        }
    }
}

/// The single delta a resyn applies to `pool[idx]`.
fn make_delta(rng: &mut Rng, pool: &[SystemSpec], idx: usize) -> SpecDelta {
    let spec = &pool[idx];
    match rng.below(3) {
        0 => SpecDelta::AddTaskGraph {
            graph: pool[(idx + 1) % pool.len()].graph(GraphId::new(0)).clone(),
        },
        1 => SpecDelta::FailPe { pe: 0 },
        _ => {
            let graph = GraphId::new(rng.below(spec.graph_count()));
            let deadline = spec.graph(graph).deadline();
            SpecDelta::TightenDeadline {
                graph,
                deadline: Nanos::from_nanos(deadline.as_nanos() * 99 / 100),
            }
        }
    }
}

fn setup(seed: u64) -> Setup {
    let paper = paper_library();
    let mut generate_ms = 0.0;
    let mut gen_rng = Rng::new(seed, 20);
    let mut rng = Rng::new(seed, 30);
    let mut pool: Vec<SystemSpec> = (0..COLDS)
        .map(|k| feasible_spec(&paper, &mut gen_rng, k, &mut generate_ms))
        .collect();
    gen_rng.shuffle(&mut pool);
    // The first request is cold; the rest are a shuffled mix.
    let mut kinds: Vec<u8> = [vec![1; DUPS], vec![2; RESYNS], vec![0; COLDS - 1]].concat();
    rng.shuffle(&mut kinds);
    kinds.insert(0, 0);
    let mut colds = 0;
    let mut script = Vec::new();
    for kind in kinds {
        script.push(match kind {
            0 => {
                colds += 1;
                Req::Cold(colds - 1)
            }
            1 => Req::Dup(rng.below(colds)),
            _ => {
                let idx = rng.below(colds);
                Req::Resyn {
                    idx,
                    delta: make_delta(&mut rng, &pool, idx),
                }
            }
        });
    }
    let warm = feasible_spec(&paper, &mut Rng::new(seed, 40), 0, &mut 0.0);
    Setup {
        lib: paper.lib,
        pool,
        script,
        warm,
        generate_ms,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The server ran an exploration for this submit.
    Miss,
    /// Served from the fingerprint cache.
    Hit,
    /// Attached to an identical in-flight job.
    Coalesced,
    Resyn,
}

/// One answered request of one round.
#[derive(Debug, Clone)]
struct Answer {
    kind: Kind,
    latency_ms: f64,
    queue_ms: f64,
    run_ms: f64,
    /// Winner cost (submits) or final cost (resyns).
    cost: u64,
    /// Winner policy id (submits).
    policy: u32,
}

impl Answer {
    /// Whether the server handled the request as its script kind intends.
    fn as_intended(&self, req: &Req) -> bool {
        match req {
            Req::Cold(_) => self.kind == Kind::Miss,
            Req::Dup(_) => self.kind == Kind::Hit,
            Req::Resyn { .. } => self.kind == Kind::Resyn,
        }
    }
}

fn payload(lib: &ResourceLibrary, spec: &SystemSpec) -> SpecPayload {
    SpecPayload {
        library: lib.clone(),
        spec: spec.clone(),
    }
}

/// Plays the script once. Returns one slot per request.
fn play(addr: &str, s: &Setup) -> Vec<Result<Answer, String>> {
    let client = ServeClient::new(addr, "bench-client");
    s.script
        .iter()
        .map(|req| {
            let t0 = Instant::now();
            let idx = match req {
                Req::Cold(idx) | Req::Dup(idx) => *idx,
                Req::Resyn { idx, delta } => {
                    let p = payload(&s.lib, &s.pool[*idx]);
                    let r = client
                        .resyn(p, vec![delta.clone()], PORTFOLIO, true)
                        .map_err(|e| format!("resyn of spec {idx} ({delta:?}): {e}"))?;
                    if !(r.audit_clean && r.incumbent_cached) {
                        return Err(format!(
                            "resyn of spec {idx}: audit_clean={} incumbent_cached={}",
                            r.audit_clean, r.incumbent_cached
                        ));
                    }
                    return Ok(Answer {
                        kind: Kind::Resyn,
                        latency_ms: ms(t0.elapsed()),
                        queue_ms: 0.0,
                        run_ms: 0.0,
                        cost: r.final_cost,
                        policy: 0,
                    });
                }
            };
            let p = payload(&s.lib, &s.pool[idx]);
            let r = client
                .submit(p, PORTFOLIO, true, false, |_| {})
                .map_err(|e| format!("submit of spec {idx}: {e}"))?;
            if !r.audit_clean {
                return Err(format!("spec {idx}: winner not audit-clean"));
            }
            Ok(Answer {
                kind: if r.cached {
                    Kind::Hit
                } else if r.coalesced {
                    Kind::Coalesced
                } else {
                    Kind::Miss
                },
                latency_ms: ms(t0.elapsed()),
                queue_ms: r.queue_ms,
                run_ms: r.run_ms,
                cost: r.cost,
                policy: r.policy,
            })
        })
        .collect()
}

/// One round on a fresh daemon: warm-up, the script, drain. Returns the
/// answer to every request and the server's counters.
fn round(s: &Setup, report: &mut Report) -> Option<(Vec<Result<Answer, String>>, ServerStats)> {
    let server = match ServerHandle::bind(ServeConfig {
        workers: WORKERS,
        jobs_per_explore: 1,
        ..ServeConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            report.fail(format!("server bind: {e}"));
            return None;
        }
    };
    let addr = server.local_addr().to_string();
    let control = ServeClient::new(addr.clone(), "bench-control");
    // Warm-up: one exploration of a spec outside the script, untimed.
    if let Err(e) = control.submit(payload(&s.lib, &s.warm), PORTFOLIO, true, false, |_| {}) {
        report.fail(format!("warm-up submit: {e}"));
    }
    let answers = play(&addr, s);
    let stats = control.stats();
    match control.shutdown() {
        Ok(_) => {
            if let Err(e) = server.wait() {
                report.fail(format!("server drain: {e}"));
            }
        }
        Err(e) => report.fail(format!("shutdown: {e}")),
    }
    match stats {
        Ok(stats) => Some((answers, stats)),
        Err(e) => {
            report.fail(format!("stats: {e}"));
            None
        }
    }
}

/// What the rounds served: the winner (cost, policy id) of every spec
/// and the final cost of every resyn, keyed by request index.
#[derive(Default)]
struct Served {
    winners: BTreeMap<usize, (u64, u32)>,
    resyns: BTreeMap<usize, u64>,
}

pub fn run(seed: u64, seconds: f64, trace: bool, min_passes: usize) -> Report {
    let mut report = Report::default();
    let (s, setup_s) = crate::repeat_setup(5, || setup(seed));
    report.set("setup_s", setup_s);

    // answers[i]: every round's answer to request i.
    let mut answers: Vec<Vec<Answer>> = vec![Vec::new(); s.script.len()];
    let mut counters = BTreeMap::new();
    let start = Instant::now();
    let mut rounds = 0;
    let mut last_round_s = 0.0;
    let min_rounds = if trace { 1 } else { MIN_ROUNDS };
    while rounds < min_rounds || start.elapsed().as_secs_f64() + last_round_s <= seconds {
        let round_start = Instant::now();
        let Some((got, stats)) = round(&s, &mut report) else {
            break;
        };
        for (i, a) in got.into_iter().enumerate() {
            report.attempted += 1;
            let req = &s.script[i];
            match a {
                Ok(a) if a.as_intended(req) => answers[i].push(a),
                Ok(a) => report.fail(format!("request {i} ({req:?}) answered as {:?}", a.kind)),
                Err(e) => report.fail(e),
            }
        }
        for (k, v) in [
            ("serve.hits", stats.cache_hits),
            ("serve.misses", stats.cache_misses),
            ("serve.coalesced", stats.coalesced),
            ("serve.rejected", stats.rejected),
        ] {
            *counters.entry(k.to_string()).or_insert(0.0) += v as f64;
        }
        last_round_s = round_start.elapsed().as_secs_f64();
        rounds += 1;
    }

    // Every answer about one spec must name the same winner, and every
    // round must give a resyn the same final cost.
    let mut served = Served::default();
    for (i, req) in s.script.iter().enumerate() {
        for a in &answers[i] {
            let (first, got) = match req {
                Req::Cold(idx) | Req::Dup(idx) => (
                    *served.winners.entry(*idx).or_insert((a.cost, a.policy)),
                    (a.cost, a.policy),
                ),
                Req::Resyn { .. } => (
                    (*served.resyns.entry(i).or_insert(a.cost), 0),
                    (a.cost, 0),
                ),
            };
            if first != got {
                report.fail(format!("request {i} answered {got:?} and {first:?}"));
            }
        }
    }

    let (mut cold, mut dup, mut resyn, mut all) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, req) in s.script.iter().enumerate() {
        let Some(best) = answers[i].iter().map(|a| a.latency_ms).reduce(f64::min) else {
            continue;
        };
        all.push(best);
        match req {
            Req::Cold(_) => cold.push(best),
            Req::Dup(_) => dup.push(best),
            Req::Resyn { .. } => resyn.push(best),
        }
    }
    let flat = || answers.iter().flatten();
    let observed = |kind: Kind| flat().filter(|a| a.kind == kind).count();
    let answered = flat().count();
    for (name, v) in [("cold", &cold), ("dup", &dup), ("resyn", &resyn)] {
        println!(
            "serve-session kind={name} requests={} p50_ms={:.3} p90_ms={:.3}",
            v.len(),
            median(v),
            quantile(v, 0.9)
        );
    }
    for (name, v) in [("cold", &cold), ("resyn", &resyn)] {
        if beyond(v, 0.9) < 10 {
            report.fail(format!(
                "only {} {name} requests lie beyond the p90",
                beyond(v, 0.9)
            ));
        }
    }
    let hit_share = observed(Kind::Hit) as f64 / answered.max(1) as f64;
    println!(
        "serve-session rounds={rounds} answered={answered} misses={} hits={} coalesced={} \
         resyns={} hit_share={hit_share:.3}",
        observed(Kind::Miss),
        observed(Kind::Hit),
        observed(Kind::Coalesced),
        observed(Kind::Resyn),
    );

    if !trace {
        let cost: u64 = served.winners.values().map(|w| w.0).sum();
        report.set("work_s", all.iter().sum::<f64>() / 1e3);
        report.set("p50_ms", median(&cold));
        report.set("tail_ms", quantile(&cold, 0.9));
        report.set("arch_cost_usd", cost as f64);
        report.set(
            "accept_ratio",
            answered as f64 / report.attempted.max(1) as f64,
        );
        return report;
    }

    let submits: Vec<&Answer> = flat().filter(|a| a.kind != Kind::Resyn).collect();
    let misses: Vec<&Answer> = submits
        .iter()
        .copied()
        .filter(|a| a.kind == Kind::Miss)
        .collect();
    // The server's counters per round.
    let mut m: BTreeMap<String, f64> = counters
        .into_iter()
        .map(|(k, v)| (k, v / rounds.max(1) as f64))
        .collect();
    m.insert(
        "serve.queue_ms".into(),
        median(&misses.iter().map(|a| a.queue_ms).collect::<Vec<_>>()),
    );
    m.insert(
        "serve.run_ms".into(),
        median(&misses.iter().map(|a| a.run_ms).collect::<Vec<_>>()),
    );
    m.insert(
        "serve.overhead_ms".into(),
        median(
            &submits
                .iter()
                .map(|a| a.latency_ms - a.queue_ms - a.run_ms)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert("serve.hit_p50_ms".into(), median(&dup));
    m.insert("serve.resyn_p50_ms".into(), median(&resyn));
    m.insert("serve.resyn_p90_ms".into(), quantile(&resyn, 0.9));
    m.insert("serve.hit_share".into(), hit_share);
    m.insert("gen.generate_ms".into(), s.generate_ms);

    let mut passes = Passes::default();
    while passes.count() < min_passes {
        let pass_start = Instant::now();
        let tracer = Tracer::default();
        let mut pm = m.clone();
        check_script(&tracer, &mut pm, &mut report, &s, &served);
        passes.push(pm, pass_start.elapsed().as_secs_f64(), &tracer);
    }
    passes.finish(&mut report, "serve-session", seed);
    report
}

/// Replays the script's cold specs and resyns in process (see the module
/// docs), recording spans and the explore / resyn layer metrics.
fn check_script(
    tracer: &Tracer,
    m: &mut BTreeMap<String, f64>,
    report: &mut Report,
    s: &Setup,
    served: &Served,
) {
    crusade_verify::install_auditor();
    let lib = &s.lib;
    let config = ExploreConfig::new(PORTFOLIO, 1);
    // The traced exploration: a metrics observer, plus the bridge that
    // makes every member's phase spans children of `explore.traced`.
    let fanout = Fanout::new()
        .with(Arc::new(Metrics::new()))
        .with(Arc::new(ObsBridge(tracer.clone())));
    let observed = ExploreConfig::new(PORTFOLIO, 1)
        .with_base(CosynOptions::default().with_observer(Arc::new(fanout)));
    let mut incumbents = BTreeMap::new();
    let (mut fp_us, mut admission_us) = (Vec::new(), Vec::new());
    let (mut explore_ns, mut traced_ns, mut resyn_ns) = (0u64, 0u64, 0u64);
    let add = |m: &mut BTreeMap<String, f64>, k: &str, v: f64| {
        *m.entry(k.to_string()).or_insert(0.0) += v;
    };
    let mut op = 0;
    for (idx, spec) in s.pool.iter().enumerate() {
        op += 1;
        tracer.set_op(op);
        // The op: what a cold submit makes the server do.
        let traced = tracer
            .time("op", || {
                let p = payload(lib, spec);
                let (fp, ns) = tracer.time("serve.fingerprint", || {
                    crusade_serve::fingerprint(&p, PORTFOLIO, true)
                });
                fp_us.push(ns as f64 / 1e3);
                if let Err(e) = fp {
                    report.fail(format!("fingerprint: {e}"));
                }
                let (o, ns) = tracer.time("explore.traced", || explore(spec, lib, &observed));
                traced_ns += ns;
                o
            })
            .0;
        // The check: the untraced exploration, against the traced one
        // and the served winner.
        tracer.time("check", || {
            let (outcome, ns) = tracer.time("explore", || explore(spec, lib, &config));
            explore_ns += ns;
            let o = match outcome {
                Ok(o) => o,
                Err(e) => return report.fail(format!("explore of spec {idx}: {e}")),
            };
            let traced = traced.map(|t| (t.winner.report.cost.amount(), t.policy.id));
            let got = (o.winner.report.cost.amount(), o.policy.id);
            if traced.as_ref().ok() != Some(&got) {
                report.fail(format!(
                    "spec {idx}: traced explore gives {traced:?}, untraced {got:?}"
                ));
            }
            if served.winners.get(&idx) != Some(&got) {
                report.fail(format!(
                    "spec {idx}: served {:?} but explore gives {got:?}",
                    served.winners.get(&idx)
                ));
            }
            add(m, "explore.cache_hits", o.stats.cache_hits as f64);
            add(m, "explore.cache_lookups", o.stats.cache_lookups as f64);
            add(m, "explore.dominated", o.stats.dominated as f64);
            add(m, "explore.skipped", o.stats.skipped_by_bound as f64);
            incumbents.insert(idx, o.winner);
        });
    }
    let resyn_config = ResynConfig {
        jobs: 1,
        portfolio: PORTFOLIO,
        ..ResynConfig::default()
    };
    for (i, req) in s.script.iter().enumerate() {
        let Req::Resyn { idx, delta } = req else {
            continue;
        };
        let Some(incumbent) = incumbents.get(idx) else {
            report.fail(format!("resyn {i} has no replayed incumbent"));
            continue;
        };
        let spec = &s.pool[*idx];
        op += 1;
        tracer.set_op(op);
        tracer.time("op.resyn", || {
            match delta.apply(spec) {
                Ok(after) => {
                    let (adm, ns) =
                        tracer.time("resyn.admission", || admission_check(&after, delta));
                    admission_us.push(ns as f64 / 1e3);
                    if !adm.admitted() {
                        report.fail(format!("resyn {i}: admission rejects a served delta"));
                    }
                }
                Err(e) => report.fail(format!("resyn {i}: delta does not apply: {e:?}")),
            }
            let (out, ns) = tracer.time("resyn.sequence", || {
                resynthesize_sequence(
                    spec,
                    lib,
                    incumbent.clone(),
                    std::slice::from_ref(delta),
                    &resyn_config,
                )
            });
            resyn_ns += ns;
            match out {
                Ok(o) => {
                    let served_cost = served.resyns.get(&i).copied();
                    if served_cost != Some(o.report.final_cost) {
                        report.fail(format!(
                            "resyn {i}: served {served_cost:?} but in-process ${}",
                            o.report.final_cost
                        ));
                    }
                    for (tag, n) in o.report.rung_histogram() {
                        add(m, &format!("resyn.rung.{tag}"), n as f64);
                    }
                }
                Err(e) => report.fail(format!("in-process resyn {i}: {e:?}")),
            }
        });
    }
    let hits = m.get("explore.cache_hits").copied().unwrap_or(0.0);
    let lookups = m.get("explore.cache_lookups").copied().unwrap_or(0.0);
    m.insert(
        "explore.cache_hit_ratio".into(),
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    m.insert("explore.busy_ms".into(), explore_ns as f64 / 1e6);
    m.insert("resyn.busy_ms".into(), resyn_ns as f64 / 1e6);
    m.insert("resyn.admission_us".into(), median(&admission_us));
    m.insert("serve.fingerprint_us".into(), median(&fp_us));
    m.insert(
        "obs.overhead_ratio".into(),
        if explore_ns > 0 {
            traced_ns as f64 / explore_ns as f64
        } else {
            0.0
        },
    );
    m.insert(
        "trace.coverage_ratio".into(),
        tracer.coverage("op", &["explore.traced"]),
    );
}
