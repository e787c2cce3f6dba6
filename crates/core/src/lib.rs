//! CRUSADE: co-synthesis of reconfigurable system architectures of
//! distributed embedded systems.
//!
//! This crate implements the paper's primary contribution — the
//! heuristic, constructive co-synthesis algorithm that turns a
//! [`crusade_model::SystemSpec`] (periodic acyclic task graphs with rate
//! constraints) and a [`crusade_model::ResourceLibrary`] into a
//! heterogeneous distributed architecture of minimum dollar cost that
//! meets every real-time deadline, exploiting *dynamic reconfiguration* of
//! programmable devices to time-share hardware across task graphs whose
//! executions never overlap.
//!
//! The flow (Figure 5 of the paper):
//!
//! 1. **Pre-processing** — validation, hyperperiod/association
//!    bookkeeping, critical-path [clustering](cluster_tasks);
//! 2. **Synthesis** — the [`CoSynthesis`] outer loop allocates clusters in
//!    priority order from an allocation array ordered by incremental
//!    dollar cost, scheduling incrementally and estimating finish times in
//!    the inner loop;
//! 3. **Dynamic reconfiguration generation** — merging time-disjoint
//!    programmable devices into multi-mode devices with `reboot` guards,
//!    and synthesizing the cheapest programming interface that meets the
//!    boot-time requirement.
//!
//! # Examples
//!
//! See [`CoSynthesis`] for an end-to-end example; the `examples/`
//! directory of the repository reproduces the paper's motivating scenario
//! and several telecom workloads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod alloc;
mod arch;
mod audit_hook;
mod cluster;
mod error;
mod options;
mod policy;
mod reconfig;
mod repair;
mod report;
mod resyn;
mod synthesis;
mod upgrade;

pub use alloc::{AllocTarget, AllocationDecision, Allocator};
pub use arch::{
    Architecture, LinkInstance, LinkInstanceId, Mode, ModeIndex, PeInstance, PeInstanceId,
};
pub use audit_hook::{audit_hook, install_audit_hook, AuditHook};
pub use cluster::{cluster_tasks, cluster_tasks_with, Cluster, ClusterId, Clustering};
pub use error::SynthesisError;
pub use options::CosynOptions;
pub use policy::{splitmix64, SynthesisPolicy};
pub use reconfig::ReconfigReport;
pub use repair::{repair, Damage, RepairError, RepairOptions, RepairOutcome};
pub use report::{
    describe, describe_architecture, describe_schedule, describe_timing, graph_timings, GraphTiming,
};
pub use resyn::{
    admission_check, exact_deadlines_ok, warm_resynthesize, widened_resynthesize, Admission,
    WarmFailure, WarmOutcome,
};
pub use synthesis::{CoSynthesis, SynthesisReport, SynthesisResult};
pub use upgrade::{hardware_shell, upgrade_in_field, UpgradeResult};
