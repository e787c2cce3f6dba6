//! Shared experiment runners behind the table binaries and Criterion
//! benches.
//!
//! Each function regenerates one table of the paper in the paper's row
//! format; the binaries print them, the benches time the underlying
//! synthesis runs, and `EXPERIMENTS.md` records a captured output next to
//! the paper's numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use crusade_core::{CoSynthesis, CosynOptions, SynthesisError};
use crusade_ft::CrusadeFt;
use crusade_model::Dollars;
use crusade_obs::{Metrics, MetricsSnapshot};
use crusade_workloads::{
    paper_examples, paper_ft_annotations, paper_ft_config, paper_library, table1_circuits,
    PaperExample, PaperLibrary, TABLE1_EPUF, TABLE1_ERUFS,
};

/// One architecture's headline figures (half a row of Table 2/3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchFigures {
    /// Number of PEs.
    pub pes: usize,
    /// Number of links.
    pub links: usize,
    /// Architecture dollar cost.
    pub cost: Dollars,
    /// Synthesis wall-clock time (the paper's "CPU time" column).
    pub cpu_time: Duration,
    /// Allocation candidates actually evaluated — each one is a full
    /// incremental-scheduling attempt.
    pub scheduling_attempts: usize,
}

/// One full row of Table 2 or Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRow {
    /// Example name (A1TR … NGXM).
    pub name: &'static str,
    /// Task count.
    pub tasks: usize,
    /// Figures without dynamic reconfiguration.
    pub without: ArchFigures,
    /// Figures with dynamic reconfiguration.
    pub with: ArchFigures,
}

impl SynthesisRow {
    /// The "Cost savings %" column.
    pub fn savings_percent(&self) -> f64 {
        self.with.cost.savings_versus(self.without.cost)
    }

    /// Paper-style formatted row.
    pub fn format(&self) -> String {
        format!(
            "{:<9} {:>6} | {:>5} {:>6} {:>9.3} {:>9} | {:>5} {:>6} {:>9.3} {:>9} | {:>5.1}",
            self.name,
            self.tasks,
            self.without.pes,
            self.without.links,
            self.without.cpu_time.as_secs_f64(),
            self.without.cost.to_string(),
            self.with.pes,
            self.with.links,
            self.with.cpu_time.as_secs_f64(),
            self.with.cost.to_string(),
            self.savings_percent(),
        )
    }
}

/// Header matching [`SynthesisRow::format`].
pub fn synthesis_header(kind: &str) -> String {
    format!(
        "{:<9} {:>6} | {:>5} {:>6} {:>9} {:>9} | {:>5} {:>6} {:>9} {:>9} | {:>5}\n{:<9} {:>6} | {:^33} | {:^33} |",
        "example", "tasks", "PEs", "links", "CPU(s)", "cost", "PEs", "links", "CPU(s)", "cost", "sav%",
        "", "", format!("{kind} without dyn. reconfig"), format!("{kind} with dyn. reconfig"),
    )
}

/// Runs one Table-2 row (plain CRUSADE, without then with dynamic
/// reconfiguration).
///
/// # Errors
///
/// Propagates the first synthesis failure.
pub fn table2_row(lib: &PaperLibrary, ex: &PaperExample) -> Result<SynthesisRow, SynthesisError> {
    let spec = ex.build(lib);
    let without = CoSynthesis::new(&spec, &lib.lib)
        .with_options(CosynOptions::without_reconfiguration())
        .run()?;
    let with = CoSynthesis::new(&spec, &lib.lib).run()?;
    Ok(SynthesisRow {
        name: ex.name,
        tasks: spec.task_count(),
        without: ArchFigures {
            pes: without.report.pe_count,
            links: without.report.link_count,
            cost: without.report.cost,
            cpu_time: without.report.cpu_time,
            scheduling_attempts: without.report.candidates_tried,
        },
        with: ArchFigures {
            pes: with.report.pe_count,
            links: with.report.link_count,
            cost: with.report.cost,
            cpu_time: with.report.cpu_time,
            scheduling_attempts: with.report.candidates_tried,
        },
    })
}

/// A Table-2 row plus the metrics snapshots of the two synthesis runs
/// that produced it — the instrumented variant of [`table2_row`].
#[derive(Debug, Clone)]
pub struct InstrumentedRow {
    /// The row figures.
    pub row: SynthesisRow,
    /// Metrics of the without-reconfiguration run.
    pub without_metrics: MetricsSnapshot,
    /// Metrics of the with-reconfiguration run.
    pub with_metrics: MetricsSnapshot,
}

/// [`table2_row`] with a metrics observer attached to both runs.
///
/// The observer never influences synthesis decisions, so the row figures
/// (cost, PEs, links, attempts) are identical to [`table2_row`]'s; only
/// wall time may differ marginally.
///
/// # Errors
///
/// Propagates the first synthesis failure.
pub fn table2_row_instrumented(
    lib: &PaperLibrary,
    ex: &PaperExample,
) -> Result<InstrumentedRow, SynthesisError> {
    let spec = ex.build(lib);
    let m_without = Arc::new(Metrics::new());
    let without = CoSynthesis::new(&spec, &lib.lib)
        .with_options(CosynOptions::without_reconfiguration().with_observer(m_without.clone()))
        .run()?;
    let m_with = Arc::new(Metrics::new());
    let with = CoSynthesis::new(&spec, &lib.lib)
        .with_options(CosynOptions::default().with_observer(m_with.clone()))
        .run()?;
    Ok(InstrumentedRow {
        row: SynthesisRow {
            name: ex.name,
            tasks: spec.task_count(),
            without: ArchFigures {
                pes: without.report.pe_count,
                links: without.report.link_count,
                cost: without.report.cost,
                cpu_time: without.report.cpu_time,
                scheduling_attempts: without.report.candidates_tried,
            },
            with: ArchFigures {
                pes: with.report.pe_count,
                links: with.report.link_count,
                cost: with.report.cost,
                cpu_time: with.report.cpu_time,
                scheduling_attempts: with.report.candidates_tried,
            },
        },
        without_metrics: m_without.snapshot(),
        with_metrics: m_with.snapshot(),
    })
}

/// Runs one Table-3 row (CRUSADE-FT, without then with dynamic
/// reconfiguration).
///
/// # Errors
///
/// Propagates the first synthesis failure.
pub fn table3_row(lib: &PaperLibrary, ex: &PaperExample) -> Result<SynthesisRow, SynthesisError> {
    let spec = ex.build(lib);
    let ann = paper_ft_annotations(&spec, lib, ex.seed);
    let cfg = paper_ft_config(&spec, lib);
    let run = |options: CosynOptions| {
        let t = std::time::Instant::now();
        CrusadeFt::new(&spec, &lib.lib)
            .with_options(options)
            .with_annotations(ann.clone())
            .with_config(cfg.clone())
            .run()
            .map(|r| ArchFigures {
                pes: r.synthesis.report.pe_count,
                links: r.synthesis.report.link_count,
                cost: r.synthesis.report.cost,
                cpu_time: t.elapsed(),
                scheduling_attempts: r.synthesis.report.candidates_tried,
            })
    };
    let without = run(CosynOptions::without_reconfiguration())?;
    let with = run(CosynOptions::default())?;
    Ok(SynthesisRow {
        name: ex.name,
        tasks: spec.task_count(),
        without,
        with,
    })
}

/// One row of Table 1: per-ERUF delay increase (`None` = "Not routable").
#[derive(Debug, Clone, PartialEq)]
pub struct DelayRow {
    /// Circuit name.
    pub name: &'static str,
    /// PFU count (from the paper).
    pub pfus: usize,
    /// Delay increase per entry of [`TABLE1_ERUFS`].
    pub increases: Vec<Option<f64>>,
}

impl DelayRow {
    /// Paper-style formatted row.
    pub fn format(&self) -> String {
        let cells: Vec<String> = self
            .increases
            .iter()
            .map(|v| match v {
                Some(p) => format!("{p:>9.1}"),
                None => format!("{:>9}", "NR"),
            })
            .collect();
        format!("{:<8} {:>5} |{}", self.name, self.pfus, cells.join(""))
    }
}

/// Header matching [`DelayRow::format`].
pub fn delay_header() -> String {
    let cols: Vec<String> = TABLE1_ERUFS.iter().map(|e| format!("{e:>9.2}")).collect();
    format!("{:<8} {:>5} |{}", "circuit", "PFUs", cols.join(""))
}

/// Regenerates every row of Table 1.
pub fn table1_rows() -> Vec<DelayRow> {
    table1_circuits()
        .into_iter()
        .map(|c| DelayRow {
            name: c.name,
            pfus: c.pfus,
            increases: c.run_row(&TABLE1_ERUFS, TABLE1_EPUF),
        })
        .collect()
}

/// Runs all of Table 2.
///
/// # Errors
///
/// Propagates the first failing row.
pub fn table2_rows() -> Result<Vec<SynthesisRow>, SynthesisError> {
    let lib = paper_library();
    paper_examples()
        .iter()
        .map(|ex| table2_row(&lib, ex))
        .collect()
}

/// Runs all of Table 2 with metrics observers attached.
///
/// # Errors
///
/// Propagates the first failing row.
pub fn table2_rows_instrumented() -> Result<Vec<InstrumentedRow>, SynthesisError> {
    let lib = paper_library();
    paper_examples()
        .iter()
        .map(|ex| table2_row_instrumented(&lib, ex))
        .collect()
}

/// Runs all of Table 3.
///
/// # Errors
///
/// Propagates the first failing row.
pub fn table3_rows() -> Result<Vec<SynthesisRow>, SynthesisError> {
    let lib = paper_library();
    paper_examples()
        .iter()
        .map(|ex| table3_row(&lib, ex))
        .collect()
}

/// Parses an optional `--name <value>` flag of a bench binary: `Ok(None)`
/// when the flag is absent, `Err` when its value is missing or does not
/// parse as `T` (the binaries then exit 2 through [`exit_usage`]).
///
/// # Errors
///
/// A message naming the flag and the parse failure.
pub fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .ok_or(format!("{name} needs a value"))?
            .parse::<T>()
            .map(Some)
            .map_err(|e| format!("{name}: {e}")),
        None => Ok(None),
    }
}

/// Reports a malformed command line on stderr and exits with status 2.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Machine-readable emission for the bench binaries.
///
/// Each table binary writes a `BENCH_<name>.json` file alongside its
/// human-readable output so downstream tooling (regression tracking,
/// plotting) never has to scrape the formatted tables.
pub mod json {
    use crusade_obs::MetricsSnapshot;
    use serde::Serialize;

    use super::{ArchFigures, InstrumentedRow, SynthesisRow};

    /// One architecture's figures in machine-readable form.
    #[derive(Debug, Clone, Copy, Serialize)]
    pub struct ArchRecord {
        /// Number of PEs.
        pub pes: usize,
        /// Number of links.
        pub links: usize,
        /// Architecture dollar cost.
        pub cost: u64,
        /// Synthesis wall-clock time in milliseconds.
        pub wall_ms: f64,
        /// Allocation candidates evaluated (scheduling attempts).
        pub scheduling_attempts: usize,
    }

    impl From<ArchFigures> for ArchRecord {
        fn from(f: ArchFigures) -> Self {
            ArchRecord {
                pes: f.pes,
                links: f.links,
                cost: f.cost.amount(),
                wall_ms: f.cpu_time.as_secs_f64() * 1e3,
                scheduling_attempts: f.scheduling_attempts,
            }
        }
    }

    /// One Table-2/3 row in machine-readable form.
    #[derive(Debug, Clone, Serialize)]
    pub struct RowRecord {
        /// Example name (A1TR … NGXM).
        pub example: String,
        /// Task count.
        pub tasks: usize,
        /// Figures without dynamic reconfiguration.
        pub without_reconfig: ArchRecord,
        /// Figures with dynamic reconfiguration.
        pub with_reconfig: ArchRecord,
        /// The paper's "Cost savings %" column.
        pub savings_percent: f64,
        /// Metrics snapshot of the without-reconfiguration run, when the
        /// row came from an instrumented runner.
        pub without_metrics: Option<MetricsSnapshot>,
        /// Metrics snapshot of the with-reconfiguration run, likewise.
        pub with_metrics: Option<MetricsSnapshot>,
    }

    impl From<&SynthesisRow> for RowRecord {
        fn from(row: &SynthesisRow) -> Self {
            RowRecord {
                example: row.name.to_string(),
                tasks: row.tasks,
                without_reconfig: row.without.into(),
                with_reconfig: row.with.into(),
                savings_percent: row.savings_percent(),
                without_metrics: None,
                with_metrics: None,
            }
        }
    }

    impl From<&InstrumentedRow> for RowRecord {
        fn from(ir: &InstrumentedRow) -> Self {
            RowRecord {
                without_metrics: Some(ir.without_metrics.clone()),
                with_metrics: Some(ir.with_metrics.clone()),
                ..RowRecord::from(&ir.row)
            }
        }
    }

    /// Pretty-prints `value` to `path` and reports where it went on
    /// stderr, keeping stdout reserved for the human-readable table.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem failures.
    pub fn write(path: &str, value: &impl Serialize) -> Result<(), String> {
        let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_example_row_is_consistent() {
        let lib = paper_library();
        let ex = &paper_examples()[0];
        let row = table2_row(&lib, ex).unwrap();
        assert_eq!(row.name, "A1TR");
        assert_eq!(row.tasks, 1126);
        assert!(row.with.cost < row.without.cost);
        assert!(row.with.pes <= row.without.pes);
        let s = row.savings_percent();
        assert!(s > 10.0 && s < 80.0, "savings {s}");
        // Formatting round-trips without panicking and mentions the name.
        assert!(row.format().contains("A1TR"));
    }

    #[test]
    fn table1_first_column_zero_and_nr_present() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert_eq!(r.increases[0], Some(0.0), "{} baseline", r.name);
        }
        let nr: Vec<&str> = rows
            .iter()
            .filter(|r| r.increases.last().unwrap().is_none())
            .map(|r| r.name)
            .collect();
        assert_eq!(
            nr,
            vec!["r2d2p", "cv46", "wamxp"],
            "paper's Not-routable set"
        );
    }

    #[test]
    fn flag_parses_defaults_and_rejects_malformed_values() {
        let args: Vec<String> = ["--seeds", "abc", "--jobs", "3", "--tail"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag::<usize>(&args, "--jobs"), Ok(Some(3)));
        assert_eq!(flag::<usize>(&args, "--portfolio"), Ok(None));
        let err = flag::<u64>(&args, "--seeds").unwrap_err();
        assert!(err.starts_with("--seeds: "), "{err}");
        assert_eq!(
            flag::<u64>(&args, "--tail"),
            Err("--tail needs a value".to_string())
        );
    }

    #[test]
    fn headers_align_with_rows() {
        assert!(synthesis_header("CRUSADE").contains("sav%"));
        assert!(delay_header().contains("0.70"));
    }
}
