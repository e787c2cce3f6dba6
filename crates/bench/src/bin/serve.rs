//! Soak-benchmarks the synthesis-as-a-service daemon on the paper's
//! eight examples.
//!
//! One in-process server is driven by M concurrent clients over three
//! phases:
//!
//! 1. **cold** — every client submits every selected example; the first
//!    submission of each spec runs synthesis, the rest coalesce onto it
//!    or hit the fingerprint cache;
//! 2. **duplicate** — every client re-submits every example; by now each
//!    fingerprint has a ready cache entry, so this phase must be served
//!    from the cache (the artifact records its hit rate);
//! 3. **resyn** — one single-delta `Resyn` (a 1% deadline tighten)
//!    against a cached incumbent, which must warm-start (incumbent from
//!    the cache, no cold synthesis) and is expected to resolve on a warm
//!    rung.
//!
//! Every served winner is checked bit-identical — (cost, policy id) —
//! against the in-process exploration engine at `--jobs 1`, i.e. the
//! `crusade explore` CLI path: serving adds queueing, caching and
//! transport, never a different architecture. The run exits non-zero on
//! any parity break, a duplicate-phase hit rate below 50%, or a resyn
//! that failed to warm-start, and writes `BENCH_serve.json` (throughput,
//! queue latency, cache hit rate; one row per example plus a
//! `_campaign` summary row).
//!
//! ```text
//! cargo run --release -p crusade-bench --bin serve -- [--clients M] [--workers N] [--portfolio P] [--examples A,B]
//! ```

use std::sync::{Arc, Barrier};
use std::time::Instant;

use crusade_bench::{exit_usage, flag, json};
use crusade_explore::{explore, ExploreConfig};
use crusade_model::{GraphId, Nanos, SpecDelta};
use crusade_serve::{JobResult, ServeClient, ServeConfig, ServerHandle, SpecPayload};
use crusade_workloads::{paper_examples, paper_library};
use serde::{Serialize, Value};

/// One example's figures across the soak.
#[derive(Debug, Clone, Serialize)]
struct ServeRecord {
    example: String,
    tasks: usize,
    /// Served winner cost (identical across every client and phase).
    best_cost: u64,
    /// Served winner policy id.
    winner_policy: u32,
    /// Winner cost of the in-process engine at jobs=1 (the CLI path).
    cli_cost: u64,
    /// Winner policy id of the CLI path.
    cli_policy: u32,
    /// `best_cost == cli_cost && winner_policy == cli_policy`.
    parity: bool,
    /// Cold-phase submissions of this example (one per client).
    cold_submissions: u64,
    /// Duplicate-phase submissions of this example.
    dup_submissions: u64,
    /// Duplicate-phase submissions answered from the ready cache.
    dup_cache_hits: u64,
    /// `dup_cache_hits / dup_submissions`.
    dup_hit_rate: f64,
    /// Mean queue latency of the submissions that actually ran, ms.
    mean_queue_ms: f64,
    /// Mean synthesis wall time of the submissions that ran, ms.
    mean_run_ms: f64,
}

/// The campaign-wide summary row (`example` is the sentinel
/// `_campaign`).
#[derive(Debug, Clone, Serialize)]
struct CampaignRecord {
    example: String,
    clients: usize,
    workers: usize,
    portfolio: usize,
    /// Total submissions over both submit phases.
    submissions: u64,
    /// Submissions that ran synthesis (filled the cache).
    unique_runs: u64,
    /// Submissions served from the ready cache.
    cache_hits: u64,
    /// Submissions that attached to an in-flight duplicate.
    coalesced: u64,
    /// Duplicate-phase hit rate across every example.
    dup_hit_rate: f64,
    /// Wall-clock of both submit phases, ms.
    total_wall_ms: f64,
    /// Completed submissions per second over the submit phases.
    throughput_jobs_per_s: f64,
    /// The rung that served the single-delta resyn probe.
    resyn_rung: String,
    /// Whether the resyn probe found its incumbent in the cache.
    resyn_incumbent_cached: bool,
    /// Whether the probe stayed on the warm rungs (no restart).
    resyn_warm: bool,
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usize_flag = |name: &str, default: usize| -> usize {
        flag(&args, name)
            .unwrap_or_else(|e| exit_usage(&e))
            .unwrap_or(default)
            .max(1)
    };
    let clients = usize_flag("--clients", 4);
    let portfolio = usize_flag("--portfolio", 8);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = usize_flag("--workers", cores.clamp(1, 4));
    let selected: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--examples")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().to_ascii_uppercase())
                .collect()
        });

    let lib = paper_library();
    let examples: Vec<(String, SpecPayload)> = paper_examples()
        .into_iter()
        .filter(|ex| {
            selected
                .as_ref()
                .map_or(true, |names| names.iter().any(|n| n == ex.name))
        })
        .map(|ex| {
            let spec = ex.build(&lib);
            (
                ex.name.to_string(),
                SpecPayload {
                    library: lib.lib.clone(),
                    spec,
                },
            )
        })
        .collect();
    if examples.is_empty() {
        eprintln!("no examples selected");
        std::process::exit(1);
    }

    println!(
        "serve soak: {} client(s) x {} example(s), portfolio {portfolio}, {workers} worker(s) on \
         {cores} core(s)\n",
        clients,
        examples.len()
    );

    let server = match ServerHandle::bind(ServeConfig {
        workers,
        jobs_per_explore: 1,
        queue_cap: clients * examples.len() + 8,
        client_quota: examples.len() + 2,
        ..ServeConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().to_string();

    // Phases 1+2: M concurrent clients, a barrier between cold and
    // duplicate so every duplicate submission sees a ready cache.
    let barrier = Arc::new(Barrier::new(clients));
    let soak_start = Instant::now();
    let mut per_client: Vec<Vec<(usize, bool, JobResult)>> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let examples = &examples;
            handles.push(s.spawn(move || {
                let client = ServeClient::new(addr, format!("soak-{c}"));
                let mut results: Vec<(usize, bool, JobResult)> = Vec::new();
                for dup_phase in [false, true] {
                    for (i, (name, payload)) in examples.iter().enumerate() {
                        match client.submit(payload.clone(), portfolio, true, false, |_| {}) {
                            Ok(result) => results.push((i, dup_phase, result)),
                            Err(e) => {
                                eprintln!("FAIL: client {c} submit {name}: {e}");
                                std::process::exit(1);
                            }
                        }
                    }
                    if !dup_phase {
                        barrier.wait();
                    }
                }
                results
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(results) => per_client.push(results),
                Err(_) => {
                    eprintln!("FAIL: client thread panicked");
                    std::process::exit(1);
                }
            }
        }
    });
    let total_wall_ms = soak_start.elapsed().as_secs_f64() * 1e3;

    let mut failed = false;
    let mut rows: Vec<Value> = Vec::new();
    let mut dup_total = 0u64;
    let mut dup_hits_total = 0u64;

    for (i, (name, payload)) in examples.iter().enumerate() {
        // The CLI path: the in-process engine at jobs=1, same portfolio.
        let config = ExploreConfig::new(portfolio, 1);
        let cli = match explore(&payload.spec, &payload.library, &config) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("FAIL: CLI-path exploration of {name}: {e}");
                failed = true;
                continue;
            }
        };
        let served: Vec<&(usize, bool, JobResult)> = per_client
            .iter()
            .flatten()
            .filter(|(idx, _, _)| *idx == i)
            .collect();
        let Some((_, _, first)) = served.first() else {
            eprintln!("FAIL: no served results for {name}");
            failed = true;
            continue;
        };
        // Every client, every phase: one bit-identical winner.
        for (_, _, r) in &served {
            if (r.cost, r.policy) != (first.cost, first.policy) {
                eprintln!(
                    "{name}: DRIFT across clients — ({}, {}) vs ({}, {})",
                    r.cost, r.policy, first.cost, first.policy
                );
                failed = true;
            }
        }
        let parity = (first.cost, first.policy) == (cli.winner.report.cost.amount(), cli.policy.id);
        if !parity {
            eprintln!(
                "{name}: PARITY BREAK — served ({}, {}) vs CLI path ({}, {})",
                first.cost,
                first.policy,
                cli.winner.report.cost.amount(),
                cli.policy.id
            );
            failed = true;
        }
        let dup: Vec<_> = served.iter().filter(|(_, d, _)| *d).collect();
        let dup_hits = dup
            .iter()
            .filter(|(_, _, r)| r.cached && !r.coalesced)
            .count() as u64;
        let dup_submissions = dup.len() as u64;
        dup_total += dup_submissions;
        dup_hits_total += dup_hits;
        let ran: Vec<f64> = served
            .iter()
            .filter(|(_, _, r)| r.run_ms > 0.0)
            .map(|(_, _, r)| r.run_ms)
            .collect();
        let queued: Vec<f64> = served
            .iter()
            .filter(|(_, _, r)| r.run_ms > 0.0)
            .map(|(_, _, r)| r.queue_ms)
            .collect();
        let record = ServeRecord {
            example: name.clone(),
            tasks: payload.spec.task_count(),
            best_cost: first.cost,
            winner_policy: first.policy,
            cli_cost: cli.winner.report.cost.amount(),
            cli_policy: cli.policy.id,
            parity,
            cold_submissions: served.len() as u64 - dup_submissions,
            dup_submissions,
            dup_cache_hits: dup_hits,
            dup_hit_rate: if dup_submissions == 0 {
                0.0
            } else {
                dup_hits as f64 / dup_submissions as f64
            },
            mean_queue_ms: mean(&queued),
            mean_run_ms: mean(&ran),
        };
        println!(
            "{:<8} {:>6} tasks | ${:>6} policy #{} | parity {} | dup {}/{} hit | queue {:>7.1}ms \
             run {:>8.1}ms",
            record.example,
            record.tasks,
            record.best_cost,
            record.winner_policy,
            if record.parity { "OK" } else { "BROKEN" },
            record.dup_cache_hits,
            record.dup_submissions,
            record.mean_queue_ms,
            record.mean_run_ms,
        );
        rows.push(record.serialize_value());
    }

    // Phase 3: a single-delta resyn against the cached incumbent of the
    // first example — the warm-start path the cache exists for.
    let control = ServeClient::new(addr.clone(), "soak-control");
    let (resyn_rung, resyn_incumbent_cached, resyn_warm) = {
        let (name, payload) = &examples[0];
        let graph = GraphId::new(0);
        let deadline = payload.spec.graph(graph).deadline();
        let delta = SpecDelta::TightenDeadline {
            graph,
            deadline: Nanos::from_nanos(deadline.as_nanos() * 99 / 100),
        };
        match control.resyn(payload.clone(), vec![delta], portfolio, true) {
            Ok(result) => {
                if !result.incumbent_cached {
                    eprintln!("{name}: RESYN MISSED THE CACHE — incumbent synthesized cold");
                    failed = true;
                }
                let rung = result
                    .steps
                    .first()
                    .map_or_else(String::new, |s| s.rung.clone());
                if result.degraded {
                    eprintln!("{name}: resyn degraded to a restart rung ({rung})");
                    failed = true;
                }
                println!(
                    "\nresyn:   {name} tighten 1% -> rung {rung}, incumbent {} (${} -> ${})",
                    if result.incumbent_cached {
                        "cached"
                    } else {
                        "cold"
                    },
                    result.incumbent_cost,
                    result.final_cost,
                );
                (rung, result.incumbent_cached, !result.degraded)
            }
            Err(e) => {
                eprintln!("FAIL: resyn probe on {name}: {e}");
                failed = true;
                (String::new(), false, false)
            }
        }
    };

    let stats = match control.stats() {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("FAIL: stats: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = control.shutdown() {
        eprintln!("FAIL: shutdown: {e}");
        std::process::exit(1);
    }
    if let Err(e) = server.wait() {
        eprintln!("FAIL: drain: {e}");
        std::process::exit(1);
    }

    let submissions = (clients * examples.len() * 2) as u64;
    let dup_hit_rate = if dup_total == 0 {
        0.0
    } else {
        dup_hits_total as f64 / dup_total as f64
    };
    if dup_hit_rate < 0.5 {
        eprintln!("FAIL: duplicate-phase hit rate {dup_hit_rate:.2} below 0.5");
        failed = true;
    }
    let campaign = CampaignRecord {
        example: "_campaign".to_string(),
        clients,
        workers,
        portfolio,
        submissions,
        unique_runs: stats.cache_misses,
        cache_hits: stats.cache_hits,
        coalesced: stats.coalesced,
        dup_hit_rate,
        total_wall_ms,
        throughput_jobs_per_s: submissions as f64 / (total_wall_ms / 1e3).max(1e-9),
        resyn_rung,
        resyn_incumbent_cached,
        resyn_warm,
    };
    println!(
        "\ncampaign: {} submissions in {:.0}ms ({:.2} jobs/s) — {} unique runs, {} cache hits, \
         {} coalesced; duplicate hit rate {:.0}%",
        campaign.submissions,
        campaign.total_wall_ms,
        campaign.throughput_jobs_per_s,
        campaign.unique_runs,
        campaign.cache_hits,
        campaign.coalesced,
        campaign.dup_hit_rate * 100.0,
    );
    rows.push(campaign.serialize_value());

    if let Err(e) = json::write("BENCH_serve.json", &rows) {
        eprintln!("FAIL: {e}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
