//! The allocation step: the inner loop of co-synthesis (Section 5).
//!
//! For each cluster (in decreasing priority order) an *allocation array* is
//! built: every existing PE instance that can host the cluster, plus a new
//! instance of every admissible library PE type, ordered by incremental
//! dollar cost. Candidates are tried in that order; trying a candidate
//! schedules the cluster's tasks and edges incrementally on the
//! architecture's timelines, estimates finish times, and checks deadlines.
//! The first (cheapest) candidate that meets all deadlines wins; if none
//! does, the specification is unallocatable against the library.
//!
//! A candidate is tried in place: the architecture is checkpointed, the
//! cluster is scheduled onto it directly, and a rejected candidate is
//! rolled back through the undo log ([`Architecture::checkpoint`]) —
//! nothing is copied. Just before an entry would be tried, the static
//! pruning oracle ([`CosynOptions::pruning`]) may prove it dead and skip
//! it; entries after the committed one are never judged.
//!
//! Scheduling policy: software tasks are placed non-preemptively at the
//! earliest feasible slot; when no slot meets the task's latest-start
//! bound and preemption is enabled, the lowest-priority resident task is
//! preempted (charged the preemption overhead plus context-switch time)
//! and re-placed — the paper's "preemptive scheduling in restricted
//! scenarios".

use std::sync::atomic::{AtomicBool, Ordering};

use crusade_model::{
    Dollars, GlobalEdgeId, GlobalTaskId, GraphId, Nanos, PeClass, PeTypeId, Priority,
    ResourceLibrary, SystemSpec, TaskId,
};
use crusade_obs::{Event, RejectReason};
use crusade_sched::{
    check_deadlines, estimate_finish_times, latest_finish_times, priority_levels, Occupant,
    PeriodicInterval, Timeline, Window,
};

use crate::arch::{Architecture, LinkInstanceId, ModeIndex, PeInstanceId};
use crate::cluster::{Cluster, ClusterId, Clustering};
use crate::error::SynthesisError;
use crate::options::{derate, CosynOptions};

/// One candidate in the allocation array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocTarget {
    /// Place the cluster on an already-instantiated PE, in the given mode.
    Existing {
        /// The hosting instance.
        pe: PeInstanceId,
        /// The configuration image to join (always 0 during fresh
        /// synthesis, where modes only appear later through merging).
        mode: usize,
    },
    /// Open a *new* configuration image on an existing programmable PE —
    /// available only during field-upgrade synthesis onto fixed hardware
    /// (Section 4.2's "multiple versions of each programmable device").
    NewMode {
        /// The hosting programmable instance.
        pe: PeInstanceId,
    },
    /// Instantiate a new PE of the given type.
    New {
        /// The library type to instantiate.
        ty: PeTypeId,
    },
}

/// Where a cluster ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationDecision {
    /// The hosting PE instance.
    pub pe: PeInstanceId,
    /// The mode the cluster resides in (always 0 during allocation; merge
    /// renumbers modes later).
    pub mode: ModeIndex,
    /// Incremental dollar cost this allocation added.
    pub added_cost: Dollars,
}

/// Pruning verdicts already reached for one allocation array.
#[derive(Default)]
struct PruneMemo {
    by_type: Vec<(PeTypeId, bool)>,
    by_instance: Vec<(PeInstanceId, bool)>,
}

/// The mutable allocation engine driving the synthesis loops.
pub struct Allocator<'a> {
    spec: &'a SystemSpec,
    lib: &'a ResourceLibrary,
    options: &'a CosynOptions,
    clustering: &'a Clustering,
    /// Latest-finish bound per `[graph][task]`, from worst-case
    /// (slowest-PE) estimates of the downstream path.
    latest_finish: Vec<Vec<Nanos>>,
    /// Priority level per `[graph][task]` (for preemption decisions).
    priorities: Vec<Vec<Priority>>,
    /// The architecture under construction.
    pub arch: Architecture,
    /// Where each cluster was placed.
    pub decisions: Vec<Option<AllocationDecision>>,
    /// Whether new PE/link instances may be created (false during
    /// field-upgrade synthesis onto fixed hardware).
    allow_new_instances: bool,
    /// Whether new configuration images may be opened on existing
    /// programmable PEs (true during field-upgrade synthesis).
    allow_new_modes: bool,
    /// Static pruning oracle ([`CosynOptions::pruning`]): cached
    /// per-task feasible-PE sets and earliest-start lower bounds from
    /// `crusade-lint`. `None` when pruning is disabled.
    oracle: Option<crusade_lint::PruningOracle>,
    /// Allocation candidates evaluated (a scheduling attempt ran).
    candidates_tried: usize,
    /// Allocation candidates the oracle skipped before a commit (entries
    /// after the committed one are never judged).
    candidates_pruned: usize,
    /// Cooperative cancellation flag, checked before every scheduling
    /// attempt ([`with_cancel`](Self::with_cancel)).
    cancel: Option<&'a AtomicBool>,
}

impl<'a> Allocator<'a> {
    /// Prepares an empty architecture and the per-task bounds.
    pub fn new(
        spec: &'a SystemSpec,
        lib: &'a ResourceLibrary,
        options: &'a CosynOptions,
        clustering: &'a Clustering,
    ) -> Self {
        let mut latest_finish = Vec::with_capacity(spec.graph_count());
        let mut priorities = Vec::with_capacity(spec.graph_count());
        for (gid, graph) in spec.graphs() {
            let comm_est = |e: crusade_model::EdgeId| {
                let edge = graph.edge(e);
                if clustering.same_cluster(gid, edge.from, edge.to) {
                    Nanos::ZERO
                } else {
                    lib.link_slice()
                        .iter()
                        .map(|l| l.worst_transfer_time(edge.bytes))
                        .min()
                        .unwrap_or(Nanos::ZERO)
                }
            };
            // Worst-case execution estimates keep the latest-finish
            // bounds consistent with the acceptance check: a placement
            // admitted against these bounds can never strand a downstream
            // task, whichever PE type it later lands on.
            let exec_worst = |t: TaskId| graph.task(t).exec.slowest().unwrap_or(Nanos::ZERO);
            latest_finish.push(latest_finish_times(graph, exec_worst, comm_est));
            priorities.push(priority_levels(
                graph,
                |t| graph.task(t).exec.slowest().unwrap_or(Nanos::ZERO),
                comm_est,
            ));
        }
        let decisions = vec![None; clustering.cluster_count()];
        let oracle = options
            .pruning
            .then(|| crusade_lint::PruningOracle::build(spec, lib, &options.lint_options()));
        // The board shares the options' observer handle: every placement
        // attempt — including ones a rejected candidate rolls back —
        // reports the slot it chose.
        let mut arch = Architecture::new();
        arch.board.set_observer(options.observer.clone());
        Allocator {
            spec,
            lib,
            options,
            clustering,
            latest_finish,
            priorities,
            arch,
            decisions,
            allow_new_instances: true,
            allow_new_modes: false,
            oracle,
            candidates_tried: 0,
            candidates_pruned: 0,
            cancel: None,
        }
    }

    /// Checks `cancel` before every scheduling attempt: once it is raised,
    /// [`allocate`](Self::allocate) fails with
    /// [`SynthesisError::Cancelled`] (builder style).
    pub fn with_cancel(mut self, cancel: &'a AtomicBool) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// `(tried, pruned)` — allocation candidates that were evaluated with
    /// a scheduling attempt vs. skipped outright by the pruning oracle
    /// (counting only entries reached before each cluster's commit).
    pub fn candidate_counters(&self) -> (usize, usize) {
        (self.candidates_tried, self.candidates_pruned)
    }

    /// Prepares an allocator for *field-upgrade* synthesis: the hardware
    /// is fixed to `shell` (an existing architecture with empty modes and
    /// an empty schedule), no new instances may be created, but new
    /// configuration images may be opened on programmable devices.
    pub fn for_upgrade(
        spec: &'a SystemSpec,
        lib: &'a ResourceLibrary,
        options: &'a CosynOptions,
        clustering: &'a Clustering,
        shell: Architecture,
    ) -> Self {
        let mut a = Allocator::new(spec, lib, options, clustering);
        a.arch = shell;
        a.arch.board.set_observer(options.observer.clone());
        a.allow_new_instances = false;
        a.allow_new_modes = true;
        a
    }

    /// Prepares an allocator for *repair* synthesis: `arch` is a partially
    /// populated (damaged, evicted) architecture whose remaining placements
    /// must be preserved. New PE and link instances may be created, but new
    /// configuration images may not — fresh allocation only ever joins
    /// existing images, so a repaired architecture's merge structure stays
    /// exactly what reconfiguration generation verified.
    pub fn resume(
        spec: &'a SystemSpec,
        lib: &'a ResourceLibrary,
        options: &'a CosynOptions,
        clustering: &'a Clustering,
        arch: Architecture,
    ) -> Self {
        let mut a = Allocator::new(spec, lib, options, clustering);
        a.arch = arch;
        a.arch.board.set_observer(options.observer.clone());
        a
    }

    /// Builds the allocation array for `cluster`, ordered by increasing
    /// incremental cost; among free (existing) candidates, the least-loaded
    /// instance comes first so placements finish early and load spreads.
    /// Pruning is left to [`allocate`](Self::allocate), which asks for
    /// each entry's verdict only when that entry is reached.
    fn allocation_array(&self, cid: ClusterId, cluster: &Cluster) -> Vec<(AllocTarget, Dollars)> {
        let mut entries: Vec<(AllocTarget, Dollars, usize)> = Vec::new();
        for (pid, pe) in self.arch.pes() {
            if !cluster.allowed_pes.contains(&pe.ty) {
                continue;
            }
            if self.exclusion_conflict(cluster, pid) {
                continue;
            }
            let load = self.arch.board.timeline(pe.resource).len();
            for mode in 0..pe.modes.len() {
                if self.capacity_fits(cluster, pid, mode) {
                    entries.push((AllocTarget::Existing { pe: pid, mode }, Dollars::ZERO, load));
                }
            }
            if self.allow_new_modes
                && self.lib.pe(pe.ty).is_reconfigurable()
                && pe.modes.len() < self.options.max_modes_per_device
                && self.type_capacity_fits(cluster, pe.ty)
            {
                // A fresh image: tried after the existing ones (same cost,
                // biased later by a load bump so spatial packing wins).
                entries.push((
                    AllocTarget::NewMode { pe: pid },
                    Dollars::ZERO,
                    load + 1_000_000,
                ));
            }
        }
        if self.allow_new_instances {
            for &ty in &cluster.allowed_pes {
                if !self.type_capacity_fits(cluster, ty) {
                    continue;
                }
                entries.push((AllocTarget::New { ty }, self.lib.pe(ty).cost(), 0));
            }
        }
        entries.sort_by_key(|&(_, cost, load)| (cost, load));
        // Policy tie-break: rotate every maximal run of candidates tied on
        // (cost, load) by a seeded amount, so portfolio members commit to
        // different — but equally cheap — hosts first. The baseline seed
        // keeps the stable order above.
        if self.options.policy.tie_break_seed != 0 {
            let salt = cid.index() as u64;
            let mut i = 0;
            while i < entries.len() {
                let mut j = i + 1;
                while j < entries.len()
                    && (entries[j].1, entries[j].2) == (entries[i].1, entries[i].2)
                {
                    j += 1;
                }
                if j - i > 1 {
                    let r = self
                        .options
                        .policy
                        .tie_rotation(salt ^ ((i as u64) << 32), j - i);
                    entries[i..j].rotate_left(r);
                }
                i = j;
            }
        }
        entries
            .into_iter()
            .map(|(target, cost, _)| (target, cost))
            .collect()
    }

    /// The pruning oracle's verdict on one allocation-array entry: `true`
    /// when trying it provably fails. Memoised in `memo` per PE type and
    /// per existing CPU instance — verdicts only depend on those and on
    /// the board, which rejected candidates leave unchanged.
    fn entry_pruned(
        &self,
        cluster: &Cluster,
        target: AllocTarget,
        first_est: &[Nanos],
        memo: &mut PruneMemo,
    ) -> bool {
        if self.oracle.is_none() {
            return false;
        }
        let ty = match target {
            AllocTarget::Existing { pe, .. } | AllocTarget::NewMode { pe } => self.arch.pe(pe).ty,
            AllocTarget::New { ty } => ty,
        };
        let dead = match memo.by_type.iter().find(|(t, _)| *t == ty) {
            Some(&(_, d)) => d,
            None => {
                let d = self.cluster_pruned_on(cluster, ty, first_est);
                memo.by_type.push((ty, d));
                d
            }
        };
        // Instance-level refinement: an existing CPU whose inviolable
        // occupancies already block the first member's admission window
        // is dead even though the type is not.
        match target {
            AllocTarget::Existing { pe, .. } if !dead && self.lib.pe(ty).is_cpu() => {
                match memo.by_instance.iter().find(|(p, _)| *p == pe) {
                    Some(&(_, d)) => d,
                    None => {
                        let d = self.cpu_instance_dead(cluster, pe, first_est);
                        memo.by_instance.push((pe, d));
                        d
                    }
                }
            }
            _ => dead,
        }
    }

    /// The pruning oracle's verdict: `true` when placing `cluster` on any
    /// instance of `ty` is provably dead, i.e. the scheduling attempt in
    /// [`try_target`](Self::try_target) must fail. Two sound arguments:
    ///
    /// * **Member timing** — a member's earliest possible start (static
    ///   lower bound on its ready time under any schedule) plus its
    ///   execution time on `ty` overshoots its latest-finish bound, so
    ///   `ready > latest_start` in every placement attempt;
    /// * **CPU serialisation** — a CPU runs cluster members sequentially
    ///   within one period, so their summed execution must fit between the
    ///   earliest member start and the latest member finish bound.
    ///
    /// Both bounds use the allocator's own `latest_finish` (worst-case
    /// downstream estimates), which every dynamic bound in `try_target`
    /// only tightens — pruning therefore never changes which candidate is
    /// finally committed, just skips ones that could not be.
    ///
    /// A third, board-aware argument handles the *first* member (see
    /// [`first_member_dead`](Self::first_member_dead)).
    fn cluster_pruned_on(&self, cluster: &Cluster, ty: PeTypeId, est_finish: &[Nanos]) -> bool {
        let Some(oracle) = &self.oracle else {
            return false;
        };
        let gid = cluster.graph;
        let graph = self.spec.graph(gid);
        for &t in &cluster.tasks {
            if !oracle.allows(gid, t, ty) {
                return true;
            }
            let Some(exec) = graph.task(t).exec.on(ty) else {
                return true;
            };
            let lf = self.latest_finish[gid.index()][t.index()];
            if lf != Nanos::MAX {
                match oracle.earliest_start(gid, t).checked_add(exec) {
                    Some(finish) if finish <= lf => {}
                    _ => return true,
                }
            }
        }
        if self.lib.pe(ty).is_cpu() && cluster.tasks.len() > 1 {
            let mut min_es = Nanos::MAX;
            let mut max_lf = Nanos::ZERO;
            let mut sum = Nanos::ZERO;
            for &t in &cluster.tasks {
                min_es = min_es.min(oracle.earliest_start(gid, t));
                let lf = self.latest_finish[gid.index()][t.index()];
                if lf == Nanos::MAX {
                    return false;
                }
                max_lf = max_lf.max(lf);
                sum = sum.saturating_add(graph.task(t).exec.on(ty).unwrap_or(Nanos::ZERO));
            }
            if min_es.checked_add(sum).map_or(true, |f| f > max_lf) {
                return true;
            }
        }
        self.first_member_dead(cluster, ty, est_finish)
    }

    /// Mirrors the `ready > latest_start` rejection [`try_target`]
    /// (Self::try_target) performs for the *first* cluster member. That
    /// member's ready/latest-start computation runs against the still
    /// unmodified board (no tentative placements, no preemption yet), so
    /// every window read here is exactly what the scheduling attempt
    /// would read. The only approximations are lower bounds: a placed
    /// producer's bare finish stands in for its inter-PE arrival
    /// (communication only adds delay), and saturation stands in for
    /// overflow. A `true` verdict therefore proves the attempt fails
    /// before any placement work, for every instance of `ty`.
    fn first_member_dead(&self, cluster: &Cluster, ty: PeTypeId, est_finish: &[Nanos]) -> bool {
        match self.first_member_window(cluster, ty, est_finish) {
            Some((_, ready, latest_start)) => ready > latest_start,
            None => true,
        }
    }

    /// The `(duration, ready, latest_start)` triple `try_target` would
    /// compute for the first cluster member on `ty` (see
    /// [`first_member_dead`](Self::first_member_dead) for why `ready` is a
    /// lower bound and the other two are exact). `None` when the member
    /// cannot run on `ty` at all or its execution exceeds the period —
    /// both immediately fatal to the candidate.
    fn first_member_window(
        &self,
        cluster: &Cluster,
        ty: PeTypeId,
        est_finish: &[Nanos],
    ) -> Option<(Nanos, Nanos, Nanos)> {
        let gid = cluster.graph;
        let graph = self.spec.graph(gid);
        let t = cluster.tasks[0];
        let dur = graph.task(t).exec.on(ty)?.max(Nanos::from_nanos(1));
        if dur > graph.period() {
            return None;
        }
        let mut lf = self.latest_finish[gid.index()][t.index()];
        for (eid, edge) in graph.successors(t) {
            let dst = GlobalTaskId::new(gid, edge.to);
            if let Some(cw) = self.arch.board.window(Occupant::Task(dst)) {
                let comm = if self.clustering.same_cluster(gid, t, edge.to) {
                    Nanos::ZERO
                } else {
                    self.guaranteed_comm(graph.edge(eid).bytes)
                };
                lf = lf.min(cw.start.saturating_sub(comm));
            }
        }
        let latest_start = lf.saturating_sub(dur);
        let mut ready = graph.est();
        for (_, edge) in graph.predecessors(t) {
            let src = GlobalTaskId::new(gid, edge.from);
            let arrival = match self.arch.board.window(Occupant::Task(src)) {
                Some(w) => w.finish,
                None => {
                    let comm = if self.clustering.same_cluster(gid, edge.from, edge.to) {
                        Nanos::ZERO
                    } else {
                        self.guaranteed_comm(edge.bytes)
                    };
                    est_finish[edge.from.index()].saturating_add(comm)
                }
            };
            ready = ready.max(arrival);
        }
        Some((dur, ready, latest_start))
    }

    /// Instance-level verdict for an existing CPU: `true` when the first
    /// cluster member provably cannot be scheduled on `pid`, even with
    /// preemption. The occupancies preemption could never remove — tasks
    /// at the member's priority or higher, plus everything when preemption
    /// is off — are collected and asked for a *definitive* blockage
    /// certificate ([`Timeline::blocked`]) over the member's exact
    /// admission window: if that subset alone blocks every start, the
    /// full timeline does too, and so does every single-victim eviction
    /// [`place_with_preemption`](Self::place_with_preemption) can try.
    fn cpu_instance_dead(
        &self,
        cluster: &Cluster,
        pid: PeInstanceId,
        est_finish: &[Nanos],
    ) -> bool {
        let ty = self.arch.pe(pid).ty;
        let Some((dur, ready, latest_start)) = self.first_member_window(cluster, ty, est_finish)
        else {
            // The type-level verdict already prunes these.
            return true;
        };
        let gid = cluster.graph;
        let t = cluster.tasks[0];
        let my_prio = self.priorities[gid.index()][t.index()];
        let mut inviolable = Timeline::new();
        for p in self.arch.board.timeline(self.arch.pe(pid).resource).iter() {
            let evictable = self.options.preemption
                && match p.occupant {
                    Occupant::Task(v) => self.priorities[v.graph.index()][v.task.index()] < my_prio,
                    _ => false,
                };
            if !evictable {
                inviolable.record(p.occupant, p.interval);
            }
        }
        inviolable.blocked(ready, dur, self.spec.graph(gid).period(), latest_start)
    }

    /// Capacity check (memory for CPUs, gates/pins for ASICs, ERUF/EPUF
    /// caps for programmable PEs) for adding `cluster` to instance `pid`'s
    /// mode 0.
    fn capacity_fits(&self, cluster: &Cluster, pid: PeInstanceId, mode: usize) -> bool {
        let pe = self.arch.pe(pid);
        let ty = self.lib.pe(pe.ty);
        let mode = &pe.modes[mode];
        match ty.class() {
            PeClass::Cpu(attrs) => pe.memory_used + cluster.memory.total() <= attrs.memory_bytes,
            PeClass::Asic(attrs) => {
                let hw = mode.used_hw + cluster.hw;
                hw.gates <= attrs.gates && hw.pins <= derate(attrs.pins, self.options.epuf)
            }
            PeClass::Ppe(attrs) => {
                let hw = mode.used_hw + cluster.hw;
                hw.pfus <= derate(attrs.pfus, self.options.eruf)
                    && hw.flip_flops <= attrs.flip_flops
                    && hw.pins <= derate(attrs.pins, self.options.epuf)
            }
        }
    }

    /// Capacity check against a *fresh* instance of `ty`: the cluster
    /// alone must fit the type's memory or area budget (otherwise the type
    /// can never host it and must not enter the allocation array).
    fn type_capacity_fits(&self, cluster: &Cluster, ty: PeTypeId) -> bool {
        match self.lib.pe(ty).class() {
            PeClass::Cpu(attrs) => cluster.memory.total() <= attrs.memory_bytes,
            PeClass::Asic(attrs) => {
                cluster.hw.gates <= attrs.gates
                    && cluster.hw.pins <= derate(attrs.pins, self.options.epuf)
            }
            PeClass::Ppe(attrs) => {
                cluster.hw.pfus <= derate(attrs.pfus, self.options.eruf)
                    && cluster.hw.flip_flops <= attrs.flip_flops
                    && cluster.hw.pins <= derate(attrs.pins, self.options.epuf)
            }
        }
    }

    /// Whether placing `cluster` on instance `pid` would violate an
    /// exclusion vector: no resident task of the same graph may appear in
    /// the exclusion set of a cluster member (or vice versa) — exclusion
    /// binds to the *physical* PE, across all of its modes.
    fn exclusion_conflict(&self, cluster: &Cluster, pid: PeInstanceId) -> bool {
        let graph = self.spec.graph(cluster.graph);
        self.arch.pe(pid).modes.iter().any(|mode| {
            mode.clusters.iter().any(|&cid2| {
                let resident = self.clustering.cluster(cid2);
                resident.graph == cluster.graph
                    && resident.tasks.iter().any(|&t2| {
                        cluster.tasks.iter().any(|&t1| {
                            graph.task(t1).exclusions.excludes(t2)
                                || graph.task(t2).exclusions.excludes(t1)
                        })
                    })
            })
        })
    }

    /// Allocates one cluster: walks its allocation array in cost order and
    /// commits the first entry that schedules with all deadlines met.
    /// Each entry is judged by the pruning oracle just before it would be
    /// tried, so entries after the commit cost nothing.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Unallocatable`] when every candidate fails.
    pub fn allocate(&mut self, cid: ClusterId) -> Result<AllocationDecision, SynthesisError> {
        let cluster = self.clustering.cluster(cid);
        let entries = self.allocation_array(cid, cluster);
        // The board every entry starts from: the oracle and each
        // candidate's first member read the same estimate.
        let first_est = self.estimate_graph_finishes(&self.arch, cluster.graph);
        let mut memo = PruneMemo::default();
        let mut pruned = 0usize;
        let mut committed = None;
        for (target, added_cost) in entries {
            if self.entry_pruned(cluster, target, &first_est, &mut memo) {
                pruned += 1;
                continue;
            }
            if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return Err(SynthesisError::Cancelled);
            }
            self.candidates_tried += 1;
            self.options.observer.emit(|| Event::CandidateConsidered {
                cluster: cid.index() as u64,
                target: self.target_label(target),
            });
            // The candidate mutates the architecture in place and rolls
            // itself back on rejection; it is moved out of `self` for the
            // attempt so `try_target` can borrow the allocator shared.
            let mut arch = std::mem::take(&mut self.arch);
            let outcome = self.try_target(&mut arch, cid, cluster, target, &first_est);
            self.arch = arch;
            match outcome {
                Ok((pe, mode)) => {
                    committed = Some((
                        target,
                        AllocationDecision {
                            pe,
                            mode,
                            added_cost,
                        },
                    ));
                    break;
                }
                Err(reason) => {
                    self.options.observer.emit(|| Event::CandidateRejected {
                        cluster: cid.index() as u64,
                        target: self.target_label(target),
                        reason,
                    });
                }
            }
        }
        self.candidates_pruned += pruned;
        if pruned > 0 {
            self.options.observer.emit(|| Event::CandidatesPruned {
                cluster: cid.index() as u64,
                pruned: pruned as u64,
            });
        }
        let Some((target, decision)) = committed else {
            let graph = self.spec.graph(cluster.graph);
            return Err(SynthesisError::Unallocatable {
                cluster: cid,
                task_name: graph.task(cluster.tasks[0]).name.clone(),
            });
        };
        self.decisions[cid.index()] = Some(decision);
        self.options.observer.emit(|| Event::CandidateAccepted {
            cluster: cid.index() as u64,
            target: self.target_label(target),
            added_cost: decision.added_cost.amount(),
        });
        Ok(decision)
    }

    /// Human-readable candidate label for the event stream. Only built
    /// when an observer is installed.
    fn target_label(&self, target: AllocTarget) -> String {
        match target {
            AllocTarget::Existing { pe, mode } => {
                format!(
                    "existing {} pe{} mode{mode}",
                    self.lib.pe(self.arch.pe(pe).ty).name(),
                    pe.index()
                )
            }
            AllocTarget::NewMode { pe } => {
                format!(
                    "new-mode {} pe{}",
                    self.lib.pe(self.arch.pe(pe).ty).name(),
                    pe.index()
                )
            }
            AllocTarget::New { ty } => format!("new {}", self.lib.pe(ty).name()),
        }
    }

    /// Attempts to place `cluster` on `target`, mutating `arch` in place.
    /// On success the placements stay and the hosting `(pe, mode)` is
    /// returned; on rejection `arch` is rolled back exactly and the first
    /// gate the candidate failed is returned (the [`RejectReason`]
    /// reported in `CandidateRejected` events). `first_est` is the
    /// finish-time estimate of the cluster's graph on the board as it
    /// stands before the attempt.
    fn try_target(
        &self,
        arch: &mut Architecture,
        cid: ClusterId,
        cluster: &Cluster,
        target: AllocTarget,
        first_est: &[Nanos],
    ) -> Result<(PeInstanceId, usize), RejectReason> {
        let checkpoint = arch.checkpoint();
        let outcome = self.place_cluster(arch, cid, cluster, target, first_est);
        match outcome {
            Ok(_) => arch.commit(checkpoint),
            Err(_) => arch.rollback(checkpoint),
        }
        outcome
    }

    /// The body of [`try_target`](Self::try_target): places every member
    /// and the edges it needs, books the cluster into the host, and checks
    /// deadlines. May leave `arch` half-modified on rejection.
    fn place_cluster(
        &self,
        arch: &mut Architecture,
        cid: ClusterId,
        cluster: &Cluster,
        target: AllocTarget,
        first_est: &[Nanos],
    ) -> Result<(PeInstanceId, usize), RejectReason> {
        let (pid, mode_idx) = match target {
            AllocTarget::Existing { pe, mode } => (pe, mode),
            AllocTarget::NewMode { pe } => (pe, arch.open_mode(pe)),
            AllocTarget::New { ty } => (arch.add_pe(ty), 0),
        };
        let pe_ty = self.lib.pe(arch.pe(pid).ty);
        let is_cpu = pe_ty.is_cpu();
        let graph = self.spec.graph(cluster.graph);
        let gid = cluster.graph;
        let period = graph.period();

        let mut touched_graphs = vec![gid];
        let mut later_est;
        for (i, &t) in cluster.tasks.iter().enumerate() {
            // Estimated finish times of the cluster's graph against the
            // current board — recomputed after each placement so the
            // cluster's own placements (which may be much later than the
            // from-scratch estimate) propagate into the ready times of
            // edges from still-unplaced predecessors. Nothing is placed
            // before the first member, so it reuses `first_est`.
            let est_finish = if i == 0 {
                first_est
            } else {
                later_est = self.estimate_graph_finishes(arch, gid);
                &later_est
            };
            // Zero-duration tasks are recorded as 1 ns so occupancy stays
            // well-formed.
            let dur = graph
                .task(t)
                .exec
                .on(arch.pe(pid).ty)
                .ok_or(RejectReason::NoExecutionTime)?
                .max(Nanos::from_nanos(1));
            if dur > period {
                // A periodic interval longer than its period can never be
                // placed; reject the candidate instead of letting the
                // timeline's invariant panic on a pathological spec.
                return Err(RejectReason::ExceedsPeriod);
            }
            let gt = GlobalTaskId::new(gid, t);

            // Latest admissible start for this task; it also bounds when
            // incoming edges must have arrived, so a congested link falls
            // through to a faster (possibly fresh) one instead of handing
            // out a uselessly late slot. Beyond the static deadline-derived
            // bound, consumers that are already placed impose hard finish
            // bounds of their own: this task must finish early enough for
            // the connecting edge to arrive before the consumer starts.
            let mut lf = self.latest_finish[gid.index()][t.index()];
            for (eid, edge) in graph.successors(t) {
                let dst = GlobalTaskId::new(gid, edge.to);
                if let Some(cw) = arch.board.window(Occupant::Task(dst)) {
                    let comm = if self.clustering.same_cluster(gid, t, edge.to) {
                        Nanos::ZERO
                    } else {
                        self.guaranteed_comm(graph.edge(eid).bytes)
                    };
                    lf = lf.min(cw.start.saturating_sub(comm));
                }
            }
            let latest_start = lf.saturating_sub(dur);

            // Ready time from predecessors.
            let mut ready = graph.est();
            for (eid, edge) in graph.predecessors(t) {
                let src = GlobalTaskId::new(gid, edge.from);
                let arrival = match arch.board.window(Occupant::Task(src)) {
                    Some(w) => {
                        let src_pe = self.pe_of_task(arch, src).ok_or(RejectReason::Internal)?;
                        if src_pe == pid {
                            w.finish
                        } else {
                            // Inter-PE edge: schedule it on a link now.
                            let geid = GlobalEdgeId::new(gid, eid);

                            self.place_edge(
                                arch,
                                geid,
                                src_pe,
                                pid,
                                edge.bytes,
                                w.finish,
                                period,
                                latest_start,
                            )
                            .ok_or(RejectReason::EdgeUnroutable)?
                        }
                    }
                    None => {
                        // Predecessor not yet allocated: conservative
                        // estimate plus the guaranteed communication time.
                        let comm = if self.clustering.same_cluster(gid, edge.from, edge.to) {
                            Nanos::ZERO
                        } else {
                            self.guaranteed_comm(edge.bytes)
                        };
                        est_finish[edge.from.index()] + comm
                    }
                };
                ready = ready.max(arrival);
            }
            if ready > latest_start {
                return Err(RejectReason::WindowClosed);
            }

            let start = if is_cpu {
                match arch.board.place(
                    arch.pe(pid).resource,
                    Occupant::Task(gt),
                    ready,
                    dur,
                    period,
                    latest_start,
                ) {
                    Some(s) => s,
                    None if self.options.preemption => self
                        .place_with_preemption(
                            arch,
                            pid,
                            gt,
                            ready,
                            dur,
                            period,
                            latest_start,
                            &mut touched_graphs,
                        )
                        .ok_or(RejectReason::NoCpuSlot)?,
                    None => return Err(RejectReason::NoCpuSlot),
                }
            } else {
                // Hardware: spatial parallelism, starts exactly when ready.
                arch.board.record(
                    arch.pe(pid).resource,
                    Occupant::Task(gt),
                    PeriodicInterval::new(ready, dur, period),
                );
                ready
            };
            let finish = start + dur;

            // Edges towards already-placed consumers must fit before the
            // consumer's start.
            for (eid, edge) in graph.successors(t) {
                let dst = GlobalTaskId::new(gid, edge.to);
                if let Some(w) = arch.board.window(Occupant::Task(dst)) {
                    let dst_pe = self.pe_of_task(arch, dst).ok_or(RejectReason::Internal)?;
                    if dst_pe == pid {
                        if finish > w.start {
                            return Err(RejectReason::SuccessorOverlap);
                        }
                    } else {
                        let geid = GlobalEdgeId::new(gid, eid);
                        let arrive = self
                            .place_edge(
                                arch, geid, pid, dst_pe, edge.bytes, finish, period, w.start,
                            )
                            .ok_or(RejectReason::EdgeUnroutable)?;
                        if arrive > w.start {
                            return Err(RejectReason::EdgeUnroutable);
                        }
                    }
                }
            }
        }

        // Commit the cluster into the instance's bookkeeping.
        arch.assign_cluster(pid, mode_idx, cid, gid, cluster.hw, cluster.memory.total());

        // Multi-mode devices must remain temporally consistent: every
        // cross-image activity envelope pair needs reboot room (only
        // reachable through NewMode targets, i.e. upgrade synthesis).
        if arch.pe(pid).modes.len() > 1
            && !crate::reconfig::device_modes_feasible(
                self.spec,
                self.clustering,
                self.lib,
                self.options,
                arch,
                pid,
            )
        {
            return Err(RejectReason::ModeInfeasible);
        }

        // Deadline verification on every touched graph, plus a
        // no-inversion check: no already-placed consumer may start before
        // the estimated arrival from a producer that is still unplaced
        // (otherwise the producer's cluster could never be allocated).
        touched_graphs.sort_unstable_by_key(|g| g.index());
        touched_graphs.dedup();
        for g in touched_graphs {
            let graph = self.spec.graph(g);
            let finishes = self.estimate_graph_finishes(arch, g);
            if !check_deadlines(graph, &finishes).is_empty() {
                return Err(RejectReason::DeadlineMiss);
            }
            for (eid, edge) in graph.edges() {
                let consumer = arch
                    .board
                    .window(Occupant::Task(GlobalTaskId::new(g, edge.to)));
                let producer_placed = arch
                    .board
                    .window(Occupant::Task(GlobalTaskId::new(g, edge.from)))
                    .is_some();
                if let (Some(cw), false) = (consumer, producer_placed) {
                    let comm = if self.clustering.same_cluster(g, edge.from, edge.to) {
                        Nanos::ZERO
                    } else {
                        self.guaranteed_comm(graph.edge(eid).bytes)
                    };
                    if finishes[edge.from.index()] + comm > cw.start {
                        return Err(RejectReason::ProducerInversion);
                    }
                }
            }
        }
        Ok((pid, mode_idx))
    }

    /// Preemption fallback: evict the lowest-priority software task from
    /// the target CPU, place the urgent task, re-place the victim with the
    /// preemption overhead charged, and re-validate the victim's schedule.
    #[allow(clippy::too_many_arguments)]
    fn place_with_preemption(
        &self,
        arch: &mut Architecture,
        pid: PeInstanceId,
        gt: GlobalTaskId,
        ready: Nanos,
        dur: Nanos,
        period: Nanos,
        latest_start: Nanos,
        touched_graphs: &mut Vec<GraphId>,
    ) -> Option<Nanos> {
        let resource = arch.pe(pid).resource;
        let my_prio = self.priorities[gt.graph.index()][gt.task.index()];
        // Victim candidates: strictly lower-priority tasks on this CPU.
        let mut victims: Vec<(GlobalTaskId, PeriodicInterval)> = arch
            .board
            .timeline(resource)
            .iter()
            .filter_map(|p| match p.occupant {
                Occupant::Task(v) => {
                    let vp = self.priorities[v.graph.index()][v.task.index()];
                    (vp < my_prio).then_some((v, p.interval))
                }
                _ => None,
            })
            .collect();
        victims.sort_by_key(|(v, _)| self.priorities[v.graph.index()][v.task.index()]);

        for (victim, original) in victims.into_iter().take(3) {
            // Each eviction is tried in place under a nested checkpoint:
            // a failed one rolls back alone.
            let checkpoint = arch.checkpoint();
            match self.evict_and_place(
                arch,
                pid,
                gt,
                victim,
                original,
                ready,
                dur,
                period,
                latest_start,
            ) {
                Some(start) => {
                    arch.commit(checkpoint);
                    touched_graphs.push(victim.graph);
                    self.options.observer.emit(|| Event::Preemption {
                        victim: Occupant::Task(victim).to_string(),
                        resource: resource.index() as u64,
                    });
                    return Some(start);
                }
                None => arch.rollback(checkpoint),
            }
        }
        None
    }

    /// One preemption attempt: removes `victim` from `pid`, places `gt`,
    /// then re-places the victim with the preemption overheads charged.
    /// Returns `gt`'s start, or `None` (leaving `arch` half-modified for
    /// the caller's rollback) when any step fails or the victim's
    /// outgoing edges and same-PE consumers would start too early.
    #[allow(clippy::too_many_arguments)]
    fn evict_and_place(
        &self,
        arch: &mut Architecture,
        pid: PeInstanceId,
        gt: GlobalTaskId,
        victim: GlobalTaskId,
        original: PeriodicInterval,
        ready: Nanos,
        dur: Nanos,
        period: Nanos,
        latest_start: Nanos,
    ) -> Option<Nanos> {
        let resource = arch.pe(pid).resource;
        arch.board.remove(Occupant::Task(victim));
        let start = arch.board.place(
            resource,
            Occupant::Task(gt),
            ready,
            dur,
            period,
            latest_start,
        )?;
        // Re-place the victim with the preemption overheads charged.
        let overhead = self.spec.constraints().preemption_overhead
            + self
                .lib
                .pe(arch.pe(pid).ty)
                .as_cpu()
                .map(|c| c.context_switch)
                .unwrap_or(Nanos::ZERO);
        let new_dur = original.duration() + overhead;
        let vlf = self.latest_finish[victim.graph.index()][victim.task.index()];
        let vstart = arch.board.place(
            resource,
            Occupant::Task(victim),
            original.start(),
            new_dur,
            original.period(),
            vlf.saturating_sub(new_dur),
        )?;
        let vfinish = vstart + new_dur;
        // The victim's already-scheduled outgoing edges must still start
        // after it finishes.
        let vgraph = self.spec.graph(victim.graph);
        let ok = vgraph.successors(victim.task).all(|(eid, _)| {
            match arch
                .board
                .window(Occupant::Edge(GlobalEdgeId::new(victim.graph, eid)))
            {
                Some(w) => w.start >= vfinish,
                None => true,
            }
        }) && vgraph.successors(victim.task).all(|(_, edge)| {
            match arch
                .board
                .window(Occupant::Task(GlobalTaskId::new(victim.graph, edge.to)))
            {
                // Same-PE consumers with no edge in between.
                Some(w) => {
                    w.start >= vfinish
                        || self.pe_of_task(arch, GlobalTaskId::new(victim.graph, edge.to))
                            != Some(pid)
                }
                None => true,
            }
        });
        ok.then_some(start)
    }

    /// Schedules an inter-PE edge on a link connecting `src_pe` and
    /// `dst_pe`. Link options are tried in order of (incremental cost,
    /// transfer time): a link already joining the pair, then extendable
    /// existing links, then a new instance of each library type. Because a
    /// fresh link of the fastest type is always among the options, an edge
    /// that fits the [`Self::guaranteed_comm`] budget always places — the
    /// property that keeps acceptance estimates sound.
    ///
    /// Edge durations are budgeted with the worst-case (fully-populated)
    /// medium access, so later port attachments never invalidate placed
    /// transfers.
    ///
    /// Returns the arrival (edge finish) time, or `None` when no option
    /// fits within `limit`.
    #[allow(clippy::too_many_arguments)]
    fn place_edge(
        &self,
        arch: &mut Architecture,
        geid: GlobalEdgeId,
        src_pe: PeInstanceId,
        dst_pe: PeInstanceId,
        bytes: u64,
        ready: Nanos,
        period: Nanos,
        limit: Nanos,
    ) -> Option<Nanos> {
        let occupant = Occupant::Edge(geid);
        // Already placed (both endpoints were placed in an earlier step).
        if let Some(w) = arch.board.window(occupant) {
            return Some(w.finish);
        }

        /// One way to realise the connection.
        enum LinkOption {
            Use(LinkInstanceId),
            Extend(LinkInstanceId, PeInstanceId),
            Create(crusade_model::LinkTypeId),
        }
        let mut options: Vec<(Dollars, Nanos, LinkOption)> = Vec::new();
        for (id, l) in arch.links() {
            let has_src = l.attached.contains(&src_pe);
            let has_dst = l.attached.contains(&dst_pe);
            let dur = self.lib.link(l.ty).worst_transfer_time(bytes);
            if has_src && has_dst {
                options.push((Dollars::ZERO, dur, LinkOption::Use(id)));
            } else if (has_src || has_dst)
                && u32::try_from(l.attached.len()).unwrap_or(u32::MAX)
                    < self.lib.link(l.ty).max_ports()
            {
                let missing = if has_src { dst_pe } else { src_pe };
                options.push((Dollars::ZERO, dur, LinkOption::Extend(id, missing)));
            }
        }
        for (ty, l) in self.lib.links() {
            options.push((
                l.cost(),
                l.worst_transfer_time(bytes),
                LinkOption::Create(ty),
            ));
        }
        options.sort_by_key(|&(cost, dur, _)| (cost, dur));

        // CPU ends without a communication coprocessor are busy driving
        // the transfer ("the communication and computation can go on
        // simultaneously if supported by associated hardware components"
        // — Section 2.2), so those processors must be free for the same
        // window the link is.
        let needs_cpu = |pid: PeInstanceId| {
            self.lib
                .pe(arch.pe(pid).ty)
                .as_cpu()
                .map(|c| !c.comm_overlap)
                .unwrap_or(false)
        };
        let mut cpu_sides: Vec<(crusade_sched::ResourceId, Occupant)> = Vec::new();
        if needs_cpu(src_pe) {
            cpu_sides.push((
                arch.pe(src_pe).resource,
                Occupant::CpuTransfer {
                    edge: geid,
                    receiver: false,
                },
            ));
        }
        if needs_cpu(dst_pe) {
            cpu_sides.push((
                arch.pe(dst_pe).resource,
                Occupant::CpuTransfer {
                    edge: geid,
                    receiver: true,
                },
            ));
        }

        for (_, dur, option) in options {
            let dur = dur.max(Nanos::from_nanos(1));
            let latest_start = limit.saturating_sub(dur);
            if ready > latest_start {
                continue;
            }
            // Materialise the link lazily: for Create this instantiates
            // hardware, which is rolled back below if the slot search
            // fails.
            let (link_resource, created) = match &option {
                LinkOption::Use(id) | LinkOption::Extend(id, _) => (arch.link(*id).resource, None),
                LinkOption::Create(ty) => {
                    let id = arch.add_link(*ty);
                    let l = arch.link_mut(id);
                    l.attached.push(src_pe);
                    l.attached.push(dst_pe);
                    (arch.link(id).resource, Some(id))
                }
            };
            let slot = find_transfer_slot(
                &arch.board,
                link_resource,
                &cpu_sides,
                ready,
                dur,
                period,
                latest_start,
            );
            match slot {
                Some(start) => {
                    // The fixpoint search verified the slot on every
                    // resource, but treat placement defensively: if any
                    // leg disagrees, roll this option back and continue
                    // with the next instead of panicking mid-synthesis.
                    let mut placed: Vec<Occupant> = Vec::new();
                    let mut ok = arch
                        .board
                        .place(link_resource, occupant, start, dur, period, start)
                        .is_some();
                    if ok {
                        placed.push(occupant);
                        for &(r, occ) in &cpu_sides {
                            if arch
                                .board
                                .place(r, occ, start, dur, period, start)
                                .is_some()
                            {
                                placed.push(occ);
                            } else {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        if let LinkOption::Extend(id, missing) = option {
                            arch.attach(id, missing);
                        }
                        return Some(start + dur);
                    }
                    for occ in placed {
                        arch.board.remove(occ);
                    }
                    if let Some(id) = created {
                        arch.link_mut(id).retired = true;
                    }
                }
                None => {
                    if let Some(id) = created {
                        arch.link_mut(id).retired = true;
                    }
                }
            }
        }
        None
    }

    /// The communication budget any inter-PE edge can always achieve: the
    /// fastest library link, freshly instantiated, under worst-case medium
    /// access. Acceptance estimates use this so that commitments made for
    /// not-yet-placed edges are always honourable later.
    fn guaranteed_comm(&self, bytes: u64) -> Nanos {
        self.lib
            .link_slice()
            .iter()
            .map(|l| l.worst_transfer_time(bytes))
            .min()
            .unwrap_or(Nanos::ZERO)
    }

    /// Estimated finish times for graph `g` against the current board:
    /// exact windows where placed, *worst-case* execution estimates for
    /// unplaced tasks — conservative acceptance, so accepting a cluster
    /// now cannot strand a later cluster of the same graph (whatever PE
    /// type that cluster ends up on, it can do no worse than the slowest
    /// entry of its execution vector).
    fn estimate_graph_finishes(&self, arch: &Architecture, g: GraphId) -> Vec<Nanos> {
        let graph = self.spec.graph(g);
        estimate_finish_times(
            graph,
            |t| arch.board.window(Occupant::Task(GlobalTaskId::new(g, t))),
            |t| graph.task(t).exec.slowest().unwrap_or(Nanos::ZERO),
            |e| arch.board.window(Occupant::Edge(GlobalEdgeId::new(g, e))),
            |e| {
                let edge = graph.edge(e);
                if self.clustering.same_cluster(g, edge.from, edge.to) {
                    Nanos::ZERO
                } else {
                    self.guaranteed_comm(edge.bytes)
                }
            },
        )
    }

    /// The PE instance hosting a placed task.
    fn pe_of_task(&self, arch: &Architecture, gt: GlobalTaskId) -> Option<PeInstanceId> {
        let r = arch.board.resource_of(Occupant::Task(gt))?;
        arch.pes().find(|(_, p)| p.resource == r).map(|(id, _)| id)
    }

    /// Public window lookup used by the synthesis driver's reporting.
    pub fn window_of(&self, gt: GlobalTaskId) -> Option<Window> {
        self.arch.board.window(Occupant::Task(gt))
    }
}

/// Finds the earliest start `>= ready` at which the link *and* every
/// coprocessor-less endpoint CPU are simultaneously free for `dur`.
///
/// Alternating fixpoint search: each resource proposes its earliest free
/// slot at or after the current candidate; when all propose the same
/// instant, that instant works for everyone. The iteration cap bounds
/// pathological ping-ponging (treated as "no slot").
fn find_transfer_slot(
    board: &crusade_sched::ScheduleBoard,
    link: crusade_sched::ResourceId,
    cpu_sides: &[(crusade_sched::ResourceId, Occupant)],
    ready: Nanos,
    dur: Nanos,
    period: Nanos,
    latest_start: Nanos,
) -> Option<Nanos> {
    let mut t = ready;
    for _ in 0..12 {
        let s = board.find_slot(link, t, dur, period, latest_start)?;
        let mut agreed = s;
        for &(r, _) in cpu_sides {
            agreed = agreed.max(board.find_slot(r, agreed, dur, period, latest_start)?);
        }
        if agreed == s {
            return Some(s);
        }
        t = agreed;
    }
    None
}

#[cfg(test)]
mod tests {
    // Test code: unwraps on controlled inputs.
    #![allow(clippy::unwrap_used)]

    use std::sync::Arc;

    use crusade_model::{
        CpuAttrs, ExecutionTimes, LinkClass, LinkType, PeType, SystemConstraints, Task, TaskGraph,
        TaskGraphBuilder,
    };
    use crusade_obs::{Metrics, ObserverHandle};

    use super::*;
    use crate::cluster::cluster_tasks_with;

    fn json(arch: &Architecture) -> String {
        serde_json::to_string(arch).unwrap()
    }

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    /// One CPU type and one bus; `comm_overlap: false` makes transfers
    /// occupy both endpoint CPUs.
    fn library(comm_overlap: bool) -> ResourceLibrary {
        let mut lib = ResourceLibrary::new();
        lib.add_pe(PeType::new(
            "cpu",
            Dollars::new(100),
            PeClass::Cpu(CpuAttrs {
                memory_bytes: 4 << 20,
                context_switch: us(10),
                comm_ports: 2,
                comm_overlap,
            }),
        ));
        lib.add_link(LinkType::new(
            "bus",
            Dollars::new(10),
            LinkClass::Bus,
            8,
            vec![Nanos::from_nanos(300)],
            64,
            us(1),
        ));
        lib
    }

    /// A CPU-only task with a small program image, so hosting it moves
    /// the CPU's memory bookkeeping.
    fn cpu_task(name: &str, exec: Nanos) -> Task {
        let mut task = Task::new(
            name,
            ExecutionTimes::from_entries(1, [(PeTypeId::new(0), exec)]),
        );
        task.memory.program = 4096;
        task
    }

    /// A high-priority head feeding a long low-priority bulk task (the
    /// preemption victim), under graph deadline `deadline`.
    fn background(deadline: Nanos) -> TaskGraph {
        let mut b = TaskGraphBuilder::new("background", ms(10));
        let mut head = cpu_task("head", us(500));
        head.deadline = Some(ms(1));
        let head = b.add_task(head);
        let bulk = b.add_task(cpu_task("bulk", ms(6)));
        b.add_edge(head, bulk, 16);
        b.deadline(deadline).build().unwrap()
    }

    /// A short task released in the middle of the bulk task's window.
    fn urgent() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("urgent", ms(10));
        b.add_task(cpu_task("alarm", us(500)));
        b.est(ms(2)).deadline(us(1_200)).build().unwrap()
    }

    /// A task that ranks between the background head and the urgent task,
    /// so it is placed after the bulk task on the same CPU: evicting the
    /// bulk then removes from the middle of the timeline.
    fn tick() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("tick", ms(10));
        b.add_task(cpu_task("tick", us(200)));
        b.est(ms(7)).deadline(us(800)).build().unwrap()
    }

    fn preemption_spec(graphs: Vec<TaskGraph>) -> SystemSpec {
        SystemSpec::new(graphs).with_constraints(SystemConstraints {
            boot_time_requirement: ms(5),
            preemption_overhead: us(50),
            average_link_ports: 2,
        })
    }

    /// What one candidate attempt did.
    struct Attempt {
        outcome: Result<(), RejectReason>,
        placements: u64,
        preemptions: u64,
    }

    /// Allocates every cluster the way synthesis does, but first tries
    /// every allocation-array entry on its own: a rejected attempt must
    /// leave the architecture byte-identical, and so must an accepted one
    /// once an enclosing checkpoint is rolled back.
    fn check_every_attempt(spec: &SystemSpec, lib: &ResourceLibrary) -> Vec<Attempt> {
        let metrics = Arc::new(Metrics::new());
        let options = CosynOptions {
            observer: ObserverHandle::new(metrics.clone()),
            ..CosynOptions::default()
        }
        .effective();
        let clustering = cluster_tasks_with(spec, lib, &options).unwrap();
        let mut allocator = Allocator::new(spec, lib, &options, &clustering);
        let mut attempts = Vec::new();
        let ids: Vec<ClusterId> = clustering.clusters().map(|(id, _)| id).collect();
        for cid in ids {
            let cluster = clustering.cluster(cid);
            let first_est = allocator.estimate_graph_finishes(&allocator.arch, cluster.graph);
            for (target, _) in allocator.allocation_array(cid, cluster) {
                let before = json(&allocator.arch);
                let counts = metrics.snapshot();
                let mut arch = allocator.arch.clone();
                let outer = arch.checkpoint();
                let outcome = allocator.try_target(&mut arch, cid, cluster, target, &first_est);
                if outcome.is_err() {
                    assert_eq!(json(&arch), before, "rejected {target:?} left a trace");
                }
                arch.rollback(outer);
                assert_eq!(json(&arch), before, "rolled-back {target:?} left a trace");
                let after = metrics.snapshot();
                attempts.push(Attempt {
                    outcome: outcome.map(|_| ()),
                    placements: after.placements - counts.placements,
                    preemptions: after.preemptions - counts.preemptions,
                });
            }
            allocator.allocate(cid).unwrap();
        }
        attempts
    }

    /// A root feeding two sinks, clustered together on a CPU (the second
    /// sink joins as a leaf). On the cheap, slow CPU each member fits its
    /// own window — the root ends by 100 µs against a 200 µs bound, each
    /// sink by 450 µs against 600 µs — but run back to back the three need
    /// 900 µs, so only the CPU-serialisation argument proves the cheap
    /// CPU dead; the dear, fast CPU hosts the cluster.
    #[test]
    fn cpu_serialisation_prunes_a_cluster_no_member_rules_out() {
        let mut lib = ResourceLibrary::new();
        for (name, cost) in [("slow-cpu", 50), ("fast-cpu", 200)] {
            lib.add_pe(PeType::new(
                name,
                Dollars::new(cost),
                PeClass::Cpu(CpuAttrs {
                    memory_bytes: 4 << 20,
                    context_switch: us(1),
                    comm_ports: 2,
                    comm_overlap: true,
                }),
            ));
        }
        let task = |name: &str, slow: u64| {
            Task::new(
                name,
                ExecutionTimes::from_entries(
                    2,
                    [
                        (PeTypeId::new(0), us(slow)),
                        (PeTypeId::new(1), us(slow / 2)),
                    ],
                ),
            )
        };
        let mut b = TaskGraphBuilder::new("fork", ms(1));
        let root = b.add_task(task("root", 100));
        let left = b.add_task(task("left", 400));
        let right = b.add_task(task("right", 400));
        b.add_edge(root, left, 8);
        b.add_edge(root, right, 8);
        let spec = SystemSpec::new(vec![b.deadline(us(600)).build().unwrap()]);

        let pruned = crate::CoSynthesis::new(&spec, &lib).run().unwrap();
        let unpruned = crate::CoSynthesis::new(&spec, &lib)
            .with_options(CosynOptions {
                pruning: false,
                ..CosynOptions::default()
            })
            .run()
            .unwrap();
        assert_eq!(pruned.clustering.cluster_count(), 1);
        assert_eq!(pruned.report.candidates_pruned, 1);
        assert_eq!(
            unpruned.report.candidates_tried,
            pruned.report.candidates_tried + 1
        );
        assert_eq!(json(&pruned.architecture), json(&unpruned.architecture));
        assert_eq!(
            pruned.architecture.pe(PeInstanceId::new(0)).ty,
            PeTypeId::new(1)
        );
    }

    #[test]
    fn rejected_preemption_fallback_rolls_back_exactly() {
        // Under an 8 ms background deadline the bulk task still ranks
        // below the urgent one but cannot absorb being pushed behind it:
        // the urgent task is placed in the bulk's slot, the bulk
        // re-placement misses its latest start, and the candidate is
        // rejected.
        let lib = library(true);
        let spec = preemption_spec(vec![background(ms(8)), tick(), urgent()]);
        let attempts = check_every_attempt(&spec, &lib);
        assert!(
            attempts
                .iter()
                .any(|a| a.outcome == Err(RejectReason::NoCpuSlot)
                    && a.placements > 0
                    && a.preemptions == 0),
            "no rejected preemption attempt was exercised"
        );
    }

    #[test]
    fn committed_preemption_rolls_back_under_an_enclosing_checkpoint() {
        let lib = library(true);
        let spec = preemption_spec(vec![background(ms(10)), urgent()]);
        let attempts = check_every_attempt(&spec, &lib);
        assert!(
            attempts
                .iter()
                .any(|a| a.outcome.is_ok() && a.preemptions > 0),
            "no accepted preemption attempt was exercised"
        );
    }

    #[test]
    fn created_then_retired_link_rolls_back_exactly() {
        // Two tasks on two CPUs without communication coprocessors; the
        // sender's CPU is busy for the whole period, so every fresh link
        // is created, finds no transfer slot, and is retired.
        let lib = library(false);
        let mut b = TaskGraphBuilder::new("pair", ms(10));
        let a = b.add_task(cpu_task("a", ms(10)));
        let z = b.add_task(cpu_task("z", ms(1)));
        b.add_edge(a, z, 64);
        let spec = SystemSpec::new(vec![b.deadline(ms(10)).build().unwrap()]);
        let options = CosynOptions::default().effective();
        let clustering = cluster_tasks_with(&spec, &lib, &options).unwrap();
        let allocator = Allocator::new(&spec, &lib, &options, &clustering);
        let gid = GraphId::new(0);
        let mut arch = Architecture::new();
        let src = arch.add_pe(PeTypeId::new(0));
        let dst = arch.add_pe(PeTypeId::new(0));
        let task_a = Occupant::Task(GlobalTaskId::new(gid, a));
        let period = ms(10);
        arch.board
            .place(
                arch.pe(src).resource,
                task_a,
                Nanos::ZERO,
                period,
                period,
                Nanos::ZERO,
            )
            .unwrap();
        let before = json(&arch);
        let edge = GlobalEdgeId::new(gid, spec.graph(gid).edges().next().unwrap().0);

        let place = |arch: &mut Architecture| {
            allocator.place_edge(arch, edge, src, dst, 64, Nanos::ZERO, period, period)
        };
        let cp = arch.checkpoint();
        assert_eq!(place(&mut arch), None);
        assert!(arch.link_slots() > 0, "no link was created");
        assert_eq!(arch.link_count(), 0, "created links must be retired");
        arch.rollback(cp);
        assert_eq!(json(&arch), before);

        // Committed, the retired link stays in the id space — the bytes
        // a committed candidate serializes to.
        let cp = arch.checkpoint();
        assert_eq!(place(&mut arch), None);
        arch.commit(cp);
        assert_ne!(json(&arch), before);
        assert_eq!(arch.link_count(), 0);
    }
}
