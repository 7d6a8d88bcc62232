//! [`SimView`]: the read-only window schedulers get into the running
//! simulation — the analogue of what Spark's `TaskSchedulerImpl` sees:
//! ready TaskSets, pending tasks and their locality per executor, free
//! executor resources, and per-stage runtime statistics.
//!
//! Locality questions are answered by the [`LocalityIndex`] (residency
//! bitsets plus the inverted pending-work index) instead of rescanning the
//! block registry.

// ExecId/StageId mints from bounded enumerations; dagon-lint rule D5
// (narrow-cast) independently guards tick/size narrowing in this crate.
#![allow(clippy::cast_possible_truncation)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dagon_dag::{JobDag, Resources, SimTime, StageId};

use crate::config::{CostModel, LocalityWait};
use crate::event::ViewDelta;
use crate::locality::Locality;
use crate::locality_index::LocalityIndex;
use crate::metrics::Metrics;
use crate::pending::PendingSet;
use crate::topology::{ExecId, Topology};

/// Per-executor snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecView {
    pub id: ExecId,
    pub free: Resources,
    pub capacity: Resources,
}

/// The scheduler's **persistent** window onto executor state.
///
/// Built once per run and then kept current by [`ViewDelta`]s emitted from
/// sim events (task launch/finish/fail, executor crash/restart/blacklist)
/// instead of being rebuilt from the simulator's ledgers on every
/// scheduling opportunity. Policies read the effective [`ExecView`] slice
/// without cloning; an `exec_gen` generation counter stamps every change.
///
/// Two ledgers are kept per executor: `real_free`, the authoritative
/// resource accounting that keeps absorbing releases even while the
/// executor is down (a crash tears down its attempts *after* marking it
/// dead), and the *effective* view exposed to schedulers, which is zeroed
/// while the executor is unusable so no placement policy can target it.
// lint: incremental(execs, mutators = [apply], oracle = check_consistency)
// lint: incremental(real_free, mutators = [apply], oracle = check_consistency)
// lint: incremental(usable, mutators = [apply], oracle = check_consistency)
// lint: incremental(usable_execs, mutators = [apply], oracle = check_consistency)
// lint: incremental(ready_list, mutators = [init_ready_list, set_stage_schedulable], oracle = check_ready_consistency)
// lint: incremental(stage_on, mutators = [init_ready_list, set_stage_schedulable], oracle = check_ready_consistency)
// lint: incremental(free_heap, mutators = [apply, compact_free_execs], oracle = check_free_consistency)
// lint: incremental(free_since, mutators = [apply], oracle = check_free_consistency)
// lint: incremental(free_list, mutators = [compact_free_execs], oracle = check_free_consistency)
// lint: hotpath(apply, set_stage_schedulable, compact_free_execs)
#[derive(Clone, Debug)]
pub struct ClusterView {
    /// Effective per-executor views (dead/blacklisted execs zeroed).
    execs: Vec<ExecView>,
    /// Authoritative free resources, tracked through down periods.
    real_free: Vec<Resources>,
    usable: Vec<bool>,
    capacity: Resources,
    /// Bumped on every applied delta.
    exec_gen: u64,
    /// Deltas applied since construction.
    deltas: u64,
    /// Full from-scratch (re)builds — O(1) per run by design.
    rebuilds: u64,
    /// Executors whose `usable` flag is set. Capacity is homogeneous and
    /// a down executor's is zero, so this count times one executor's
    /// per-stage slots is the cluster's slot capacity.
    usable_execs: u32,
    /// Incrementally maintained schedulable-stage ids (ascending),
    /// mirrored by the membership flags in `stage_on`. Installed once by
    /// [`Self::init_ready_list`]; kept current by
    /// [`Self::set_stage_schedulable`] calls from every simulator site
    /// that mutates a stage's ready/completed/pending state.
    ready_list: Vec<u32>,
    stage_on: Vec<bool>,
    /// Full ready-list (re)builds — O(1) per run by design.
    ready_rebuilds: u64,
    /// Lazy min-heap of free executors as `Reverse((exec, stamp))`. An
    /// entry is pushed when an executor *becomes* free (no free cpus →
    /// some, including `ExecUp`) and never removed in place: entries whose
    /// stamp no longer matches `free_since` are skipped (lazy deletion)
    /// when [`Self::compact_free_execs`] drains the heap, so crash and
    /// blacklist transitions from the fault path need no heap surgery.
    free_heap: BinaryHeap<Reverse<(u32, u64)>>,
    /// Per executor: the `exec_gen` at which it last became free, or
    /// [`NOT_FREE`] while it has no effective free cpus (busy or down).
    free_since: Vec<u64>,
    /// Ascending ids of currently-free executors, valid after the last
    /// [`Self::compact_free_execs`].
    free_list: Vec<u32>,
    /// Bumped on every free-set membership transition; lets a compaction
    /// return immediately when the set hasn't changed since the last one
    /// (the common case: most consume/release traffic moves cpu counts
    /// without emptying or refilling an executor).
    free_set_gen: u64,
    /// `free_set_gen` as of the last compaction.
    compacted_gen: u64,
    heap_pops: u64,
    heap_stale: u64,
}

/// `free_since` sentinel for an executor with no free cpus.
const NOT_FREE: u64 = u64::MAX;

impl ClusterView {
    /// Build the initial view: all executors usable and fully free.
    /// Counts as the run's one full rebuild.
    pub fn new(n_exec: usize, capacity: Resources) -> Self {
        let init_free = capacity.cpus > 0;
        Self {
            execs: (0..n_exec)
                .map(|i| ExecView {
                    id: ExecId(i as u32),
                    free: capacity,
                    capacity,
                })
                .collect(),
            real_free: vec![capacity; n_exec],
            usable: vec![true; n_exec],
            capacity,
            exec_gen: 0,
            deltas: 0,
            rebuilds: 1,
            usable_execs: n_exec as u32,
            ready_list: Vec::new(),
            stage_on: Vec::new(),
            ready_rebuilds: 0,
            free_heap: if init_free {
                (0..n_exec).map(|i| Reverse((i as u32, 0))).collect()
            } else {
                BinaryHeap::new()
            },
            free_since: vec![if init_free { 0 } else { NOT_FREE }; n_exec],
            free_list: if init_free {
                (0..n_exec as u32).collect()
            } else {
                Vec::new()
            },
            free_set_gen: 0,
            compacted_gen: 0,
            heap_pops: 0,
            heap_stale: 0,
        }
    }

    /// Apply one delta. The effective view entry is updated in place; no
    /// other executor's entry is touched.
    // lint: allow(panic-surface): every index is an ExecId minted by the topology, < n_exec by construction
    pub fn apply(&mut self, d: ViewDelta) {
        self.exec_gen += 1;
        self.deltas += 1;
        let idx = match d {
            ViewDelta::Consume { exec, .. }
            | ViewDelta::Release { exec, .. }
            | ViewDelta::ExecDown { exec }
            | ViewDelta::ExecUp { exec } => exec.index(),
        };
        let was_free = self.execs[idx].free.cpus > 0;
        match d {
            ViewDelta::Consume { exec, demand } => {
                let i = exec.index();
                self.real_free[i] = self.real_free[i].minus(demand);
                if self.usable[i] {
                    self.execs[i].free = self.real_free[i];
                }
            }
            ViewDelta::Release { exec, demand } => {
                let i = exec.index();
                self.real_free[i] = self.real_free[i].plus(demand);
                if self.usable[i] {
                    self.execs[i].free = self.real_free[i];
                }
            }
            ViewDelta::ExecDown { exec } => {
                let i = exec.index();
                if self.usable[i] {
                    self.usable_execs -= 1;
                }
                self.usable[i] = false;
                self.execs[i].free = Resources::ZERO;
                self.execs[i].capacity = Resources::ZERO;
            }
            ViewDelta::ExecUp { exec } => {
                let i = exec.index();
                if !self.usable[i] {
                    self.usable_execs += 1;
                }
                self.usable[i] = true;
                self.execs[i].free = self.real_free[i];
                self.execs[i].capacity = self.capacity;
            }
        }
        let now_free = self.execs[idx].free.cpus > 0;
        if now_free != was_free {
            self.free_set_gen += 1;
            if now_free {
                self.free_since[idx] = self.exec_gen;
                self.free_heap.push(Reverse((idx as u32, self.exec_gen)));
            } else {
                self.free_since[idx] = NOT_FREE;
            }
        }
    }

    /// The effective per-executor views schedulers iterate.
    pub fn execs(&self) -> &[ExecView] {
        &self.execs
    }

    pub fn num_execs(&self) -> usize {
        self.execs.len()
    }

    /// Authoritative free resources of `e` (even while it is down).
    pub fn free_of(&self, e: ExecId) -> Resources {
        self.real_free[e.index()]
    }

    pub fn is_usable(&self, e: ExecId) -> bool {
        self.usable[e.index()]
    }

    /// Generation stamp: changes iff any executor's effective view may
    /// have changed since it was last read.
    pub fn exec_gen(&self) -> u64 {
        self.exec_gen
    }

    pub fn deltas_applied(&self) -> u64 {
        self.deltas
    }

    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// What a from-scratch rebuild would produce from the authoritative
    /// ledgers — the oracle the differential property test (and the
    /// debug-build assertion in the simulator) compares the incremental
    /// state against.
    pub fn rebuilt_execs(&self) -> Vec<ExecView> {
        self.real_free
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let (free, capacity) = if self.usable[i] {
                    (*f, self.capacity)
                } else {
                    (Resources::ZERO, Resources::ZERO)
                };
                ExecView {
                    id: ExecId(i as u32),
                    free,
                    capacity,
                }
            })
            .collect()
    }

    /// Debug-build invariant: incremental == from-scratch, and the
    /// usable count matches the flags.
    pub fn check_consistency(&self) -> bool {
        self.execs == self.rebuilt_execs()
            && self.usable_execs as usize == self.usable.iter().filter(|&&u| u).count()
    }

    /// Executors currently usable (not crashed or blacklisted).
    pub fn usable_execs(&self) -> u32 {
        self.usable_execs
    }

    // --- incremental ready list ---------------------------------------

    /// Install the initial schedulable flags (one per stage, in stage-id
    /// order). Counts as the run's one full ready-list build.
    pub fn init_ready_list(&mut self, schedulable: impl IntoIterator<Item = bool>) {
        self.stage_on = schedulable.into_iter().collect();
        self.ready_list = self
            .stage_on
            .iter()
            .enumerate()
            .filter_map(|(i, &on)| on.then_some(i as u32))
            .collect();
        self.ready_rebuilds += 1;
    }

    /// Flip stage `si`'s schedulability. No-op when the flag already
    /// matches — callers re-derive the predicate (`ready && !completed &&
    /// pending non-empty`) after every stage mutation and need not track
    /// whether it actually changed.
    // lint: allow(panic-surface): `si` is a StageId < num_stages and `pos` comes from binary_search on the list itself
    pub fn set_stage_schedulable(&mut self, si: usize, on: bool) {
        if self.stage_on[si] == on {
            return;
        }
        self.stage_on[si] = on;
        match (self.ready_list.binary_search(&(si as u32)), on) {
            (Err(pos), true) => self.ready_list.insert(pos, si as u32),
            (Ok(pos), false) => {
                self.ready_list.remove(pos);
            }
            _ => debug_assert!(false, "ready-list membership out of sync with its flag"),
        }
    }

    /// Schedulable stage ids, ascending.
    pub fn ready_stages(&self) -> &[u32] {
        &self.ready_list
    }

    pub fn ready_list_rebuilds(&self) -> u64 {
        self.ready_rebuilds
    }

    /// What a from-scratch scan of the stage table would produce — the
    /// oracle for the differential property test and the debug-build
    /// assertion at the top of every scheduling opportunity.
    pub fn rebuilt_ready_list(stages: &[StageRuntime]) -> Vec<u32> {
        stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.ready && !s.completed && !s.pending.is_empty())
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Debug-build invariant: incremental ready list == from-scratch scan.
    pub fn check_ready_consistency(&self, stages: &[StageRuntime]) -> bool {
        self.ready_list == Self::rebuilt_ready_list(stages)
    }

    // --- lazy free-executor heap --------------------------------------

    /// Drain the heap into the ascending free-executor list, skipping
    /// stale entries (stamp superseded because the executor stopped being
    /// free — consumed full, crashed, or blacklisted — since the push).
    /// Surviving entries are pushed back, so the amortized cost per
    /// scheduling round is O(free · log free) plus the stale backlog — and
    /// zero when no executor entered or left the free set since the last
    /// compaction (the typical round).
    // lint: allow(panic-surface): heap entries hold ExecIds < n_exec; `free_since` is sized to n_exec at build
    pub fn compact_free_execs(&mut self) {
        if self.compacted_gen == self.free_set_gen {
            return;
        }
        self.compacted_gen = self.free_set_gen;
        self.free_list.clear();
        while let Some(Reverse((e, stamp))) = self.free_heap.pop() {
            self.heap_pops += 1;
            if self.free_since[e as usize] == stamp {
                self.free_list.push(e);
            } else {
                self.heap_stale += 1;
            }
        }
        self.free_heap.extend(
            self.free_list
                .iter()
                .map(|&e| Reverse((e, self.free_since[e as usize]))),
        );
    }

    /// Ascending ids of executors with free cpus, as of the last
    /// [`Self::compact_free_execs`].
    pub fn free_execs(&self) -> &[u32] {
        &self.free_list
    }

    /// Heap entries examined by compactions.
    pub fn ect_heap_pops(&self) -> u64 {
        self.heap_pops
    }

    /// Examined entries discarded as stale (lazy deletions realized).
    pub fn ect_heap_stale(&self) -> u64 {
        self.heap_stale
    }

    /// From-scratch free-executor scan — the heap's oracle.
    pub fn rebuilt_free_execs(&self) -> Vec<u32> {
        self.execs
            .iter()
            .filter(|e| e.free.cpus > 0)
            .map(|e| e.id.0)
            .collect()
    }

    /// Debug-build invariant (valid after a compaction): heap-compacted
    /// free list == from-scratch scan.
    pub fn check_free_consistency(&self) -> bool {
        self.free_list == self.rebuilt_free_execs()
    }
}

/// Per-stage runtime snapshot.
#[derive(Clone, Debug)]
pub struct StageRuntime {
    pub id: StageId,
    /// Parents complete, stage not yet complete.
    pub ready: bool,
    pub completed: bool,
    /// Task indices not yet launched (primary attempts).
    pub pending: PendingSet,
    /// Primary attempts currently running.
    pub running: u32,
    pub finished: u32,
}

/// Static per-task info the view exposes.
#[derive(Clone, Debug)]
pub struct TaskView {
    /// Blocks that define the task's locality preference (narrow inputs).
    pub loc_blocks: Vec<dagon_dag::BlockId>,
}

/// Placeholder kept only so the `OrderPolicy::rank` and `Placement::pick`
/// signatures stay source-compatible for implementations outside this
/// workspace (the benchmark's tracing wrappers). It carries no state: a
/// `schedule` call makes one pick against the view itself, so there are
/// no in-flight claims to shadow.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScheduleShadow;

/// The scheduler's window into the simulation. Construct-by-borrow: cheap,
/// created fresh for every `schedule` call.
pub struct SimView<'a> {
    pub now: SimTime,
    pub dag: &'a JobDag,
    pub topo: &'a Topology,
    pub cost: &'a CostModel,
    pub locality_wait: LocalityWait,
    pub execs: &'a [ExecView],
    pub stages: &'a [StageRuntime],
    pub tasks: &'a [Vec<TaskView>],
    pub index: &'a LocalityIndex,
    pub metrics: &'a Metrics,
    /// Per-stage narrow-input MiB, precomputed once per run (see
    /// [`narrow_input_table`]) — static data, recomputing it inside every
    /// `est_finish_ms` call was a measured hot-path cost.
    pub narrow_mb: &'a [f64],
    /// Generation stamp of the [`ClusterView`] behind `execs`: changes iff
    /// any executor's effective view may have changed.
    pub exec_gen: u64,
    /// Usable executors (the [`ClusterView`]'s count): each offers
    /// `exec_capacity`, the rest offer nothing.
    pub usable_execs: u32,
    /// Capacity of one usable executor (homogeneous across the cluster).
    pub exec_capacity: Resources,
    /// Schedulable stage ids, ascending — the [`ClusterView`]'s
    /// incrementally maintained ready list.
    pub ready: &'a [u32],
    /// Ascending ids of executors with free cpus, compacted from the
    /// [`ClusterView`]'s lazy free-executor heap at the top of this
    /// scheduling round.
    pub free_execs: &'a [u32],
    /// Per-tenant vCPUs currently consumed by running attempts — the
    /// hierarchical fair-share signal. Empty outside online multi-tenant
    /// mode (no [`crate::jobs::JobsRuntime`] installed).
    pub tenant_cores: &'a [u64],
    /// stage → owning tenant (dense). Empty outside multi-tenant mode.
    pub tenant_of_stage: &'a [u32],
}

/// Build the once-per-run table behind [`SimView::narrow_input_mb`]: total
/// MiB of narrow input one task of each stage reads. Purely static per DAG.
pub fn narrow_input_table(dag: &JobDag) -> Vec<f64> {
    dag.stages()
        .iter()
        .map(|st| {
            st.inputs
                .iter()
                .filter(|i| i.kind == dagon_dag::DepKind::Narrow)
                .map(|i| dag.rdd(i.rdd).block_mb)
                .sum()
        })
        .collect()
}

impl<'a> SimView<'a> {
    /// Stages that can launch tasks right now (ready with pending tasks).
    /// Reads the incrementally maintained ready list — no stage-table scan.
    pub fn schedulable_stages(&self) -> Vec<StageId> {
        self.ready.iter().map(|&s| StageId(s)).collect()
    }

    /// Is any executor non-full?
    pub fn any_free_resource(&self) -> bool {
        !self.free_execs.is_empty()
    }

    pub fn stage(&self, s: StageId) -> &StageRuntime {
        &self.stages[s.index()]
    }

    pub fn exec(&self, e: ExecId) -> &ExecView {
        &self.execs[e.index()]
    }

    /// The locality level task `(s, k)` would run at on executor `e`.
    ///
    /// Defined by the task's narrow input blocks (Spark's
    /// `preferredLocations`); wide-only tasks have no preference → `Any`.
    /// The level is the *worst* tier among the task's locality blocks.
    pub fn task_locality(&self, s: StageId, k: u32, e: ExecId) -> Locality {
        self.index.task_locality(s.index(), k, e)
    }

    /// The best locality task `(s, k)` can achieve on *any* executor —
    /// what the BlockManagerMaster's location registry tells the scheduler.
    pub fn task_best_level(&self, s: StageId, k: u32) -> Locality {
        self.index.task_best_level(s.index(), k)
    }

    /// First pending task of `s` achieving exactly `level` on `e` whose
    /// best achievable level anywhere is no better than `level` — i.e. a
    /// task that launching here does not rob of a better home.
    pub fn pending_with_locality_strict(
        &self,
        s: StageId,
        e: ExecId,
        level: Locality,
    ) -> Option<u32> {
        let pending = &self.stages[s.index()].pending;
        self.index.scan_first(s.index(), e, level, true, pending)
    }

    /// First pending task of `s` achieving exactly `level` on `e`.
    pub fn pending_with_locality(&self, s: StageId, e: ExecId, level: Locality) -> Option<u32> {
        let pending = &self.stages[s.index()].pending;
        self.index.scan_first(s.index(), e, level, false, pending)
    }

    /// Inverted-index gate: does stage `s` have any *pending* task at
    /// exactly `level` on `e`? `false` proves
    /// [`pending_with_locality`](Self::pending_with_locality) would
    /// return `None`, while `true` routes to the real probe. Gating on
    /// this is therefore schedule-neutral (DESIGN.md §14).
    pub fn has_pending_at(&self, s: StageId, e: ExecId, level: Locality) -> bool {
        self.index.pending_level_count(s.index(), e, level) > 0
    }

    /// The strict-probe twin of [`has_pending_at`](Self::has_pending_at):
    /// any pending task at exactly `level` on `e` whose best level
    /// anywhere is also `level`?
    pub fn has_pending_strict_at(&self, s: StageId, e: ExecId, level: Locality) -> bool {
        self.index.pending_strict_count(s.index(), e, level) > 0
    }

    /// Locality levels for which stage `s` has at least one pending task
    /// on *some* executor — the "valid locality levels" of Alg. 2 /
    /// Spark's `computeValidLocalityLevels`. Always includes `Any` if any
    /// task is pending. Memoized per stage in the [`LocalityIndex`].
    pub fn valid_levels(&self, s: StageId) -> Vec<Locality> {
        let pending = &self.stages[s.index()].pending;
        let (levels, n) = self.index.valid_levels(s.index(), pending);
        levels[..n].to_vec()
    }

    /// Average duration of finished attempts of `s` at locality `l`
    /// (Alg. 2 line 6's estimator).
    pub fn avg_duration_at(&self, s: StageId, l: Locality) -> Option<f64> {
        self.metrics.per_stage[s.index()].avg_duration_at(l)
    }

    /// Average duration of finished attempts of `s` at any locality.
    pub fn avg_duration(&self, s: StageId) -> Option<f64> {
        self.metrics.per_stage[s.index()].avg_duration()
    }

    /// Eq. (7): earliest completion time of stage `s`,
    /// `ect_i = ⌈ptn_i / tp_i⌉ × t̄d_i`, relative to now. `fallback_td` is
    /// used before any task of the stage has finished (e.g. the profiler's
    /// duration estimate).
    ///
    /// `tp_i` is the *achievable* task parallelism: at least the currently
    /// running count, at most the stage's cluster-wide slot capacity — the
    /// paper's "current task parallelism" read literally degenerates at
    /// stage start (one running task would predict a 224-wave stage).
    pub fn earliest_completion_ms(&self, s: StageId, fallback_td: f64) -> f64 {
        let st = &self.stages[s.index()];
        let ptn = st.pending.len() as f64;
        let slots = self.stage_slots(s).max(1);
        let tp = (st.running.max(1) as f64).max((ptn.min(slots as f64)).max(1.0));
        let td = self.avg_duration(s).unwrap_or(fallback_td);
        (ptn / tp).ceil() * td
    }

    /// Cluster-wide concurrent-task capacity for stage `s`'s demand:
    /// usable executors × one executor's slots. Exact, because capacity is
    /// homogeneous and a down executor's capacity is zero.
    pub fn stage_slots(&self, s: StageId) -> u32 {
        let demand = self.dag.stage(s).demand;
        self.usable_execs
            .saturating_mul(self.exec_capacity.capacity_for(demand))
    }

    /// Total MiB of narrow input one task of `s` reads (its locality
    /// blocks), for cost-model duration priors. A table lookup: the sum is
    /// static per stage and computed once per run.
    pub fn narrow_input_mb(&self, s: StageId) -> f64 {
        self.narrow_mb[s.index()]
    }
}

#[cfg(test)]
// Replay values in these tests are set, not computed: exact float
// equality is the contract being asserted.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::hdfs::DataMap;
    use crate::metrics::Metrics;
    use crate::topology::NodeId;
    use dagon_dag::{BlockId, DagBuilder, RddId};

    struct Fixture {
        dag: JobDag,
        topo: Topology,
        index: LocalityIndex,
        execs: Vec<ExecView>,
        stages: Vec<StageRuntime>,
        tasks: Vec<Vec<TaskView>>,
        metrics: Metrics,
        cost: CostModel,
        narrow_mb: Vec<f64>,
        ready: Vec<u32>,
        free_execs: Vec<u32>,
    }

    /// 2 racks × 2 nodes × 1 exec; one 4-task narrow stage over an HDFS RDD.
    fn fixture() -> Fixture {
        let mut b = DagBuilder::new("f");
        let src = b.hdfs_rdd("in", 4, 64.0);
        let _ = b
            .stage("s")
            .tasks(4)
            .demand_cpus(2)
            .cpu_ms(1000)
            .reads_narrow(src)
            .build();
        let dag = b.build().unwrap();
        let topo = Topology::build(&[2, 2], 1);
        let mut data = DataMap::default();
        // Block k on node k's disk.
        for k in 0..4u32 {
            data.add_disk(BlockId::new(RddId(0), k), NodeId(k));
        }
        let execs = (0..4)
            .map(|i| ExecView {
                id: ExecId(i),
                free: dagon_dag::Resources::new(4, 8192),
                capacity: dagon_dag::Resources::new(4, 8192),
            })
            .collect();
        let stages = vec![StageRuntime {
            id: StageId(0),
            ready: true,
            completed: false,
            pending: PendingSet::full(4),
            running: 0,
            finished: 0,
        }];
        let tasks: Vec<Vec<TaskView>> = vec![(0..4)
            .map(|k| TaskView {
                loc_blocks: vec![BlockId::new(RddId(0), k)],
            })
            .collect()];
        let mut index = LocalityIndex::new(&dag, &topo, data, &tasks);
        // Placement only ever queries schedulable, hence active, stages.
        index.activate_stage(0, &stages[0].pending);
        Fixture {
            metrics: Metrics::new(dag.num_stages(), 4, false),
            narrow_mb: narrow_input_table(&dag),
            dag,
            topo,
            index,
            execs,
            stages,
            tasks,
            cost: CostModel::default(),
            ready: vec![0],
            free_execs: vec![0, 1, 2, 3],
        }
    }

    fn view(f: &Fixture) -> SimView<'_> {
        SimView {
            now: 0,
            dag: &f.dag,
            topo: &f.topo,
            cost: &f.cost,
            locality_wait: LocalityWait::spark_default(),
            execs: &f.execs,
            stages: &f.stages,
            tasks: &f.tasks,
            index: &f.index,
            metrics: &f.metrics,
            narrow_mb: &f.narrow_mb,
            exec_gen: 0,
            usable_execs: 4,
            exec_capacity: dagon_dag::Resources::new(4, 8192),
            ready: &f.ready,
            free_execs: &f.free_execs,
            tenant_cores: &[],
            tenant_of_stage: &[],
        }
    }

    #[test]
    fn locality_levels_follow_block_placement() {
        let f = fixture();
        let v = view(&f);
        // Task 0's block is on node 0: exec0 Node, exec1 Rack (same rack),
        // exec2/3 Any (other rack).
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(0)), Locality::Node);
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(1)), Locality::Rack);
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(2)), Locality::Any);
    }

    #[test]
    fn caching_upgrades_to_process_local() {
        let mut f = fixture();
        f.index.add_cached(BlockId::new(RddId(0), 0), ExecId(0));
        let v = view(&f);
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(0)), Locality::Process);
        // Another exec on the same node would be Node; here exec1 is on a
        // different node but same rack → Rack via the cached copy or disk.
        assert_eq!(v.task_locality(StageId(0), 0, ExecId(1)), Locality::Rack);
        assert_eq!(v.task_best_level(StageId(0), 0), Locality::Process);
    }

    #[test]
    fn pending_queries_respect_level_and_strictness() {
        let mut f = fixture();
        f.index.add_cached(BlockId::new(RddId(0), 1), ExecId(1));
        let v = view(&f);
        // On exec1: task 1 is Process; tasks 0 is Rack.
        assert_eq!(
            v.pending_with_locality(StageId(0), ExecId(1), Locality::Process),
            Some(1)
        );
        assert_eq!(
            v.pending_with_locality(StageId(0), ExecId(1), Locality::Node),
            None
        );
        // Strict at Rack on exec1: task 0's best anywhere is Node (its disk
        // node) → not strict-eligible at Rack... best(0) = Node < Rack.
        assert_eq!(
            v.pending_with_locality_strict(StageId(0), ExecId(1), Locality::Rack),
            None
        );
        // Task 2's block is on node 2 (other rack): on exec1 it's Any; its
        // best anywhere is Node → not strict at Any either.
        assert_eq!(
            v.pending_with_locality_strict(StageId(0), ExecId(1), Locality::Any),
            None
        );
    }

    #[test]
    fn valid_levels_include_any_and_reachable_tiers() {
        let f = fixture();
        let v = view(&f);
        let levels = v.valid_levels(StageId(0));
        assert!(levels.contains(&Locality::Node));
        assert!(levels.contains(&Locality::Any));
        assert!(!levels.contains(&Locality::Process));
    }

    #[test]
    fn ect_caps_parallelism_at_stage_slots() {
        let f = fixture();
        let v = view(&f);
        // 4 pending, slots = 4 execs × (4/2) = 8 → tp = min(4, 8) = 4 →
        // one wave.
        assert_eq!(v.stage_slots(StageId(0)), 8);
        let ect = v.earliest_completion_ms(StageId(0), 1000.0);
        assert_eq!(ect, 1000.0);
        assert_eq!(v.narrow_input_mb(StageId(0)), 64.0);
    }

    #[test]
    fn schedulable_stages_excludes_done_and_empty() {
        let mut f = fixture();
        assert_eq!(view(&f).schedulable_stages(), vec![StageId(0)]);
        f.stages[0].pending.clear();
        f.ready.clear();
        assert!(view(&f).schedulable_stages().is_empty());
    }

    #[test]
    fn any_free_resource_reads_the_free_list() {
        let mut f = fixture();
        assert!(view(&f).any_free_resource());
        f.free_execs.clear();
        assert!(!view(&f).any_free_resource());
    }

    #[test]
    fn ready_list_tracks_schedulability_flips() {
        let mut cv = ClusterView::new(2, dagon_dag::Resources::new(4, 8192));
        cv.init_ready_list([true, false, true]);
        assert_eq!(cv.ready_stages(), &[0, 2]);
        assert_eq!(cv.ready_list_rebuilds(), 1);
        cv.set_stage_schedulable(1, true);
        assert_eq!(cv.ready_stages(), &[0, 1, 2]);
        cv.set_stage_schedulable(1, true); // no-op re-set
        assert_eq!(cv.ready_stages(), &[0, 1, 2]);
        cv.set_stage_schedulable(0, false);
        cv.set_stage_schedulable(2, false);
        assert_eq!(cv.ready_stages(), &[1]);
        assert_eq!(cv.ready_list_rebuilds(), 1, "flips must not rebuild");
    }

    #[test]
    fn ready_list_matches_stage_table_oracle() {
        let mk = |ready, completed, pending: u32| StageRuntime {
            id: StageId(0),
            ready,
            completed,
            pending: PendingSet::full(pending),
            running: 0,
            finished: 0,
        };
        let stages = vec![
            mk(true, false, 3),  // schedulable
            mk(false, false, 3), // not ready
            mk(true, true, 0),   // completed
            mk(true, false, 0),  // drained
        ];
        let mut cv = ClusterView::new(1, dagon_dag::Resources::new(4, 8192));
        cv.init_ready_list(
            stages
                .iter()
                .map(|s| s.ready && !s.completed && !s.pending.is_empty()),
        );
        assert!(cv.check_ready_consistency(&stages));
        assert_eq!(ClusterView::rebuilt_ready_list(&stages), vec![0]);
    }

    #[test]
    fn free_heap_tracks_busy_and_down_transitions() {
        let cap = dagon_dag::Resources::new(2, 4096);
        let demand = dagon_dag::Resources::new(2, 2048);
        let mut cv = ClusterView::new(3, cap);
        cv.compact_free_execs();
        assert_eq!(cv.free_execs(), &[0, 1, 2]);
        assert!(cv.check_free_consistency());
        // Exec 1 consumed full → drops out.
        cv.apply(ViewDelta::Consume {
            exec: ExecId(1),
            demand,
        });
        cv.compact_free_execs();
        assert_eq!(cv.free_execs(), &[0, 2]);
        assert!(cv.check_free_consistency());
        // Exec 2 crashes while free → its heap entry goes stale.
        cv.apply(ViewDelta::ExecDown { exec: ExecId(2) });
        let stale_before = cv.ect_heap_stale();
        cv.compact_free_execs();
        assert_eq!(cv.free_execs(), &[0]);
        assert!(
            cv.ect_heap_stale() > stale_before,
            "stale entry not skipped"
        );
        assert!(cv.check_free_consistency());
        // Release + restart bring both back, ascending.
        cv.apply(ViewDelta::Release {
            exec: ExecId(1),
            demand,
        });
        cv.apply(ViewDelta::ExecUp { exec: ExecId(2) });
        cv.compact_free_execs();
        assert_eq!(cv.free_execs(), &[0, 1, 2]);
        assert!(cv.check_free_consistency());
    }

    #[test]
    fn stage_slots_drop_on_exec_down_and_return_on_exec_up() {
        let f = fixture();
        let cap = dagon_dag::Resources::new(4, 8192);
        let mut cv = ClusterView::new(4, cap);
        let slots = |cv: &ClusterView| {
            SimView {
                execs: cv.execs(),
                usable_execs: cv.usable_execs(),
                exec_capacity: cap,
                ..view(&f)
            }
            .stage_slots(StageId(0))
        };
        // Demand 2 cpus: 4 executors × 2 slots.
        assert_eq!(slots(&cv), 8);
        // Consume/release traffic leaves the capacity alone.
        cv.apply(ViewDelta::Consume {
            exec: ExecId(0),
            demand: dagon_dag::Resources::new(2, 1024),
        });
        assert_eq!(slots(&cv), 8);
        cv.apply(ViewDelta::ExecDown { exec: ExecId(1) });
        assert_eq!(slots(&cv), 6);
        // A repeated down (crash of a blacklisted executor) changes nothing.
        cv.apply(ViewDelta::ExecDown { exec: ExecId(1) });
        assert_eq!(slots(&cv), 6);
        assert!(cv.check_consistency());
        cv.apply(ViewDelta::ExecUp { exec: ExecId(1) });
        assert_eq!(slots(&cv), 8);
        assert!(cv.check_consistency());
        // The count is what a walk over the effective capacities finds.
        let walked: u32 = cv
            .execs()
            .iter()
            .map(|e| e.capacity.capacity_for(dagon_dag::Resources::new(2, 1024)))
            .sum();
        assert_eq!(walked, 8);
    }
}
