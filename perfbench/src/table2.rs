//! `table2`: one default `CoSynthesis::run` per Table-2 reconstruction,
//! one after another, traced.
//!
//! Allocation is nearly all of synthesis time on these examples, so the
//! allocator's oracle and per-candidate architecture copy show here;
//! both grow with PE count, so the run keeps EST189A and NGXM (7416
//! tasks). It has only a traced run: its end-to-end timings were not
//! steady enough for a regression bound on a 2-vCPU host (see
//! `perfbench/NOTES.md`), and it is not listed in `BENCHMARK.json`.

use crusade_core::CoSynthesis;
use crusade_model::SystemSpec;
use crusade_workloads::{paper_examples, paper_library};

use crate::pipeline::{traced_passes, Outcome};
use crate::Report;

/// The examples of the run, smallest first.
const SUBSET: [&str; 5] = ["A1TR", "VDRTX", "HROST", "EST189A", "NGXM"];

pub fn run(seed: u64, seconds: f64, min_passes: usize) -> Report {
    let mut report = Report::default();
    let paper = paper_library();
    let lib = &paper.lib;
    let examples: Vec<(&str, SystemSpec)> = paper_examples()
        .into_iter()
        .filter(|ex| SUBSET.contains(&ex.name))
        .map(|ex| (ex.name, ex.build(&paper)))
        .collect();

    // Warm-up: the smallest example, untimed.
    let _ = CoSynthesis::new(&examples[0].1, lib).run();

    let specs: Vec<&SystemSpec> = examples.iter().map(|(_, spec)| spec).collect();
    let (passes, rows) = traced_passes(&mut report, &specs, lib, false, true, seconds, min_passes);
    for ((name, spec), row) in examples.iter().zip(rows) {
        if let Some((Outcome::Accepted { cost, tried }, synth_ms)) = row {
            println!(
                "table2 example={name} tasks={} synth_ms={synth_ms:.1} cost_usd={cost} \
                 attempts={tried} (first traced pass)",
                spec.task_count(),
            );
        }
    }
    passes.finish(&mut report, "table2", seed);
    report
}
