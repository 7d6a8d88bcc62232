//! The discrete-event simulation driver.
//!
//! One [`Simulation`] executes one job DAG on one cluster under one
//! (scheduler, cache-policy) pair and returns a [`SimResult`]. The loop is
//! strictly deterministic: events are ordered by `(time, insertion-seq)`,
//! all randomness is seeded, and schedulers see a consistent [`SimView`]
//! snapshot between event batches.

// ExecId/StageId mints from bounded enumerations and `.round()`ed
// nonnegative ms values; dagon-lint rule D5 (narrow-cast) independently
// guards tick/size narrowing in this crate.
#![allow(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, HashSet}; // lint: allow(hash-ordered): HashSet used membership-only, see field docs
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dagon_dag::{BlockId, JobDag, PriorityTracker, Resources, SimTime, StageId, TaskId};
use dagon_obs::{EvictReason, KillReason, NullSink, SchedDecision, TraceEvent, TraceSink};

use crate::blockmanager::{BlockManager, CachePolicy, InsertOutcome};
use crate::config::{ClusterConfig, ReadTier, SpeculationConfig};
use crate::event::{Event, EventQueue, ViewDelta};
use crate::fault::{FaultKind, FaultRuntime};
use crate::hdfs::DataMap;
use crate::jobs::{AdmissionDecision, ArrivalSpec, JobsRuntime};
use crate::locality::Locality;
use crate::locality_index::LocalityIndex;
use crate::metrics::{CacheStats, Metrics, SimResult, TaskRun, TimePoint};
use crate::pending::PendingSet;
use crate::refprofile::RefProfile;
use crate::scheduler::{Assignment, Scheduler};
use crate::topology::{ExecId, NodeId, Topology};
use crate::view::{ClusterView, SimView, StageRuntime, TaskView};

/// Hard ceiling on simulated time; reaching it means the configuration can
/// never finish (e.g. a task demand exceeding every executor's capacity).
const SIM_TIME_LIMIT: SimTime = 48 * 3600 * 1000;

/// One task's `(block, MiB)` input list, shared between the static table
/// and in-flight launches so launching never clones it.
type TaskInputs = Arc<[(BlockId, f64)]>;

/// Re-derive stage `si`'s schedulability predicate and push it into the
/// view's incremental ready list. A stage turning schedulable while
/// inactive is folded into the locality index's inverted pending-work
/// index, so every stage placement can probe is active. A free function
/// over disjoint borrows so call sites inside loops that also borrow other
/// `Simulation` fields (e.g. `self.dag.children(..)`) compile.
fn sync_ready(
    cview: &mut ClusterView,
    data: &mut LocalityIndex,
    stages: &[StageRuntime],
    si: usize,
) {
    let st = &stages[si];
    let on = st.ready && !st.completed && !st.pending.is_empty();
    if on && !data.is_stage_active(si) {
        data.activate_stage(si, &st.pending);
    }
    cview.set_stage_schedulable(si, on);
}

/// Scheduler stand-in for launches that bypass the scheduler
/// (speculative copies): it is told nothing and never picks.
struct NopScheduler;

impl Scheduler for NopScheduler {
    fn name(&self) -> String {
        "nop".into()
    }
    fn schedule(&mut self, _v: &SimView<'_>) -> Vec<Assignment> {
        Vec::new()
    }
}

/// Insert `d` into the ascending `durs`, keeping it sorted. After the
/// insert `durs[durs.len() / 2]` is the median a clone-and-sort of the
/// same history picks: both are ascending sequences of one multiset.
fn insert_sorted(durs: &mut Vec<u64>, d: u64) {
    let at = durs.partition_point(|&x| x <= d);
    durs.insert(at, d);
}

struct RunningAttempt {
    exec: ExecId,
    start: SimTime,
    demand: Resources,
    locality: Locality,
    pinned: Vec<BlockId>,
    speculative: bool,
    /// Has the attempt passed its I/O phase (now consuming CPU)?
    cpu_phase: bool,
}

/// One simulation run in progress.
// lint: incremental(cview, mutators = [run, handle, launch, do_schedule, teardown_attempt, complete_stage, fail_attempt, requeue_task, exec_crash, exec_restart, resubmit_task, with_jobs, admit_job, reject_job], via = [apply, init_ready_list, set_stage_schedulable, compact_free_execs], oracle = check_consistency)
// lint: incremental(data, mutators = [run, handle, with_jobs, launch, finish_task, complete_stage, proactive_sweeps, prefetch_arrive, exec_crash, block_loss, requeue_task, resubmit_task, admit_job, reject_job], via = [add_disk, add_cached, remove_cached, remove_disk, on_pending_removed, on_pending_inserted, activate_stage, release_stage], oracle = check_inv_consistency)
// lint: incremental(jobs, mutators = [with_jobs, run, job_arrival, admit_job, reject_job, complete_stage, resubmit_task, launch, teardown_attempt], via = [on_arrival, admit_queued, on_stage_complete, on_stage_reopened, on_cores_consumed, on_cores_released], oracle = check_consistency)
// lint: incremental(maint_dirty, mutators = [handle, launch, tick_maintenance], oracle = maintenance_pass)
// lint: incremental(disk_by_node, mutators = [finish_task, prefetch_scan, exec_crash, return_to_pools], init = [new], oracle = check_prefetch_pool)
// lint: incremental(stage_durations, mutators = [finish_task], init = [new], oracle = speculation_by_stage)
pub struct Simulation {
    dag: JobDag,
    cfg: ClusterConfig,
    topo: Topology,
    /// Persistent scheduler-facing executor state, kept current by
    /// [`ViewDelta`]s instead of per-opportunity rebuilds.
    cview: ClusterView,
    exec_busy_cores: Vec<u32>,
    bms: Vec<BlockManager>,
    /// Block residency: the incremental locality index owning the
    /// authoritative [`DataMap`].
    data: LocalityIndex,
    /// node → live cache-eligible (`rdd.cached`) blocks on that node's
    /// disk: the prefetch scan's candidate pool. Blocks of uncached RDDs
    /// are never prefetch candidates, so they are never listed. A block
    /// whose last reader finished is dropped the first time the scan's
    /// node filter finds it dead; only a lineage resubmission revives it
    /// ([`Self::return_to_pools`]), which appends it again. So the pool
    /// may still hold a dead block the scan has not visited yet, but it
    /// never misses a live one ([`Self::check_prefetch_pool`]).
    disk_by_node: Vec<Vec<BlockId>>,
    stages: Vec<StageRuntime>,
    /// stage → task → (block, MiB) inputs. `Arc` so a launch can hold the
    /// input list without cloning it while mutating cache state.
    task_inputs: Vec<Vec<TaskInputs>>,
    task_views: Vec<Vec<TaskView>>,
    /// Once-per-run static table: per-stage narrow-input MiB (was
    /// recomputed inside every `est_finish_ms` call).
    narrow_mb: Vec<f64>,
    task_done: Vec<Vec<bool>>,
    /// stage → winning attempts' durations, ascending ([`insert_sorted`]
    /// in `finish_task`), so the speculation median is one index.
    stage_durations: Vec<Vec<u64>>,
    profile: RefProfile,
    tracker: PriorityTracker,
    queue: EventQueue,
    metrics: Metrics,
    now: SimTime,
    /// Live attempts, keyed `(task, attempt)`. A BTreeMap so every
    /// iteration (crash kill lists, loser scans, the speculation walk) is
    /// in deterministic key order by construction. Key order is (stage,
    /// task index, attempt), the order speculative copies launch in.
    running: BTreeMap<(TaskId, u32), RunningAttempt>,
    /// Attempt keys whose still-queued finish/fail event must be swallowed
    /// (cancelled losers, crash victims). Membership-only: never iterated,
    /// so a HashSet can't leak nondeterminism.
    // lint: allow(hash-ordered): membership-only, never iterated
    cancelled: HashSet<(TaskId, u32)>,
    // lint: allow(hash-ordered): membership-only, never iterated
    spec_launched: HashSet<TaskId>,
    prefetch_inflight: Vec<Option<(BlockId, f64)>>,
    // lint: allow(hash-ordered): membership-only, never iterated
    prefetched: Vec<HashSet<BlockId>>,
    completed_count: usize,
    rng: SmallRng,
    /// Fault-injection state (liveness, blacklist, dedicated fault RNG).
    faults: FaultRuntime,
    /// Dynamic multi-job state (online multi-tenant runs); `None` for the
    /// classic batch mode, where the whole DAG is live from t=0.
    jobs: Option<JobsRuntime>,
    /// stage → task → next attempt id. Monotone per task, so a retried
    /// task's fresh attempt can never collide with a stale `cancelled`
    /// entry from a dead one. Fault-free runs only ever see 0 (primary)
    /// and 1 (speculative).
    attempt_seq: Vec<Vec<u32>>,
    /// stage → task → injected-failure count (bounded retry).
    retries: Vec<Vec<u32>>,
    /// Output blocks each executor wrote to its node's disk — the files an
    /// executor crash destroys. Only tracked when faults are enabled.
    outputs_by_exec: Vec<Vec<BlockId>>,
    /// rdd → producing stage (`None` for sources), for lineage recovery.
    producer_of_rdd: Vec<Option<StageId>>,
    /// Blocks evicted from some cache since the last lineage check — an
    /// eviction can drop the *last* copy of a block whose disk replica a
    /// crash destroyed. Drained between `schedule` calls; only populated
    /// when faults are enabled.
    lost_pending: Vec<BlockId>,
    /// Reused `prefetch_scan` candidate buffer (the per-exec-per-tick
    /// collect was a measured allocation hot spot).
    prefetch_buf: Vec<BlockId>,
    /// Reused per-node candidate buffer for `prefetch_scan`: the live
    /// blocks of one node's `disk_by_node` pool that are cached nowhere.
    /// The filter is executor-independent, so it runs once per node per
    /// scan, not once per executor.
    prefetch_node_buf: Vec<BlockId>,
    /// Something the Tick's cache maintenance reads may have changed since
    /// its last pass, or that pass acted; see [`Self::tick_maintenance`].
    maint_dirty: bool,
    /// Structured event sink ([`NullSink`] unless [`Self::with_sink`]
    /// installed a recorder). Write-only: nothing it holds feeds back
    /// into the simulation.
    sink: Box<dyn TraceSink>,
    /// Cached `sink.enabled()` — the single branch instrumented hot paths
    /// pay when tracing is off.
    trace_on: bool,
}

impl Simulation {
    /// Build a simulation. `cache` constructs one policy instance per
    /// executor.
    pub fn new(dag: JobDag, cfg: ClusterConfig, cache: impl Fn() -> Box<dyn CachePolicy>) -> Self {
        let topo = Topology::build(&cfg.racks, cfg.execs_per_node);
        let n_exec = topo.num_execs();
        let data = DataMap::place_sources(&dag, &topo, cfg.hdfs_replication, cfg.seed);
        let mut disk_by_node = vec![Vec::new(); topo.num_nodes()];
        for rdd in dag.rdds().iter().filter(|r| r.is_source() && r.cached) {
            for b in rdd.blocks() {
                for n in data.disk_nodes(b) {
                    disk_by_node[n.index()].push(b);
                }
            }
        }
        let bms: Vec<BlockManager> = (0..n_exec)
            .map(|_| BlockManager::new(cfg.exec_cache_mb, cache()))
            .collect();
        let mut task_inputs = Vec::with_capacity(dag.num_stages());
        let mut task_views = Vec::with_capacity(dag.num_stages());
        for st in dag.stages() {
            let mut per_task = Vec::with_capacity(st.num_tasks as usize);
            let mut per_task_view = Vec::with_capacity(st.num_tasks as usize);
            for k in 0..st.num_tasks {
                let mut inputs = Vec::new();
                let mut loc_blocks = Vec::new();
                for input in &st.inputs {
                    let rdd = dag.rdd(input.rdd);
                    match input.kind {
                        dagon_dag::DepKind::Narrow => {
                            let b = BlockId::new(rdd.id, k);
                            inputs.push((b, rdd.block_mb));
                            loc_blocks.push(b);
                        }
                        dagon_dag::DepKind::Wide => {
                            let mut j = k;
                            while j < rdd.num_partitions {
                                inputs.push((BlockId::new(rdd.id, j), rdd.block_mb));
                                j += st.num_tasks;
                            }
                        }
                    }
                }
                per_task.push(Arc::from(inputs.into_boxed_slice()));
                per_task_view.push(TaskView { loc_blocks });
            }
            task_inputs.push(per_task);
            task_views.push(per_task_view);
        }
        let stages: Vec<StageRuntime> = dag
            .stages()
            .iter()
            .map(|st| StageRuntime {
                id: st.id,
                ready: st.parents.is_empty() && st.release_ms == 0,
                completed: false,
                pending: PendingSet::full(st.num_tasks),
                running: 0,
                finished: 0,
            })
            .collect();
        let task_done = dag
            .stages()
            .iter()
            .map(|s| vec![false; s.num_tasks as usize])
            .collect();
        // One duration per task in a fault-free run: sized up front, the
        // sorted inserts never reallocate.
        let stage_durations = dag
            .stages()
            .iter()
            .map(|s| Vec::with_capacity(s.num_tasks as usize))
            .collect();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut profile = RefProfile::default();
        profile.pv = dag.stage_ids().map(|s| tracker.pv(s)).collect();
        profile.rebuild(&dag, &|_, _| false, &|_| false);
        let metrics = Metrics::new(dag.num_stages(), n_exec, cfg.trace_executors);
        let data = LocalityIndex::new(&dag, &topo, data, &task_views);
        let attempt_seq: Vec<Vec<u32>> = dag
            .stages()
            .iter()
            .map(|s| vec![0; s.num_tasks as usize])
            .collect();
        let retries = attempt_seq.clone();
        let mut producer_of_rdd: Vec<Option<StageId>> = vec![None; dag.rdds().len()];
        for st in dag.stages() {
            producer_of_rdd[st.output.index()] = Some(st.id);
        }
        let faults = FaultRuntime::new(cfg.faults.clone(), n_exec);
        let narrow_mb = crate::view::narrow_input_table(&dag);
        let mut cview = ClusterView::new(n_exec, cfg.exec_capacity);
        cview.init_ready_list(
            stages
                .iter()
                .map(|s| s.ready && !s.completed && !s.pending.is_empty()),
        );
        Self {
            dag,
            cview,
            exec_busy_cores: vec![0; n_exec],
            bms,
            data,
            disk_by_node,
            stages,
            task_inputs,
            narrow_mb,
            task_views,
            task_done,
            stage_durations,
            profile,
            tracker,
            queue: EventQueue::new(),
            metrics,
            now: 0,
            running: BTreeMap::new(),
            // lint: allow(hash-ordered): membership-only, never iterated
            cancelled: HashSet::new(),
            // lint: allow(hash-ordered): membership-only, never iterated
            spec_launched: HashSet::new(),
            prefetch_inflight: vec![None; n_exec],
            // lint: allow(hash-ordered): membership-only, never iterated
            prefetched: vec![HashSet::new(); n_exec],
            completed_count: 0,
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xd1ce_5eed),
            faults,
            jobs: None,
            attempt_seq,
            retries,
            outputs_by_exec: vec![Vec::new(); n_exec],
            lost_pending: Vec::new(),
            producer_of_rdd,
            prefetch_buf: Vec::new(),
            prefetch_node_buf: Vec::new(),
            maint_dirty: true,
            sink: Box::new(NullSink),
            trace_on: false,
            topo,
            cfg,
        }
    }

    /// Install a trace sink (builder-style; call before [`Self::run`]).
    /// The recorded log comes back on [`SimResult::trace`].
    pub fn with_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_on = sink.enabled();
        self.sink = sink;
        self
    }

    /// Switch to online multi-tenant mode (builder-style; call before
    /// [`Self::run`]). Every stage of the merged DAG is *gated* — un-ready
    /// until its job's [`Event::JobArrival`] fires and admission control
    /// lets it through. Gating happens via `set_stage_schedulable` flips on
    /// the already-initialized ready list, never a second
    /// `init_ready_list`, so `ready_list_rebuilds == 1` holds for the whole
    /// stream.
    pub fn with_jobs(mut self, jobs: JobsRuntime) -> Self {
        assert_eq!(
            self.stages.len(),
            jobs.stage_tenants().len(),
            "JobsRuntime built for a different DAG"
        );
        for si in 0..self.stages.len() {
            assert_eq!(
                self.dag.stage(StageId(si as u32)).release_ms,
                0,
                "dynamic admission replaces static release_ms gating; \
                 build the stream with release_ms = 0"
            );
            if self.stages[si].ready {
                self.stages[si].ready = false;
                sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
            }
        }
        // Open-loop arrivals become first-class events up front (job-id
        // order keeps same-time arrivals deterministic); closed-loop
        // (`AfterJob`) arrivals are scheduled when their predecessor
        // leaves the system.
        for j in 0..jobs.num_jobs() as u32 {
            if let ArrivalSpec::Open { at } = jobs.spec(j).arrival {
                self.queue.push(at, Event::JobArrival { job: j });
            }
        }
        self.jobs = Some(jobs);
        self
    }

    /// Record one event at the current simulation time. Callers check
    /// `self.trace_on` first so the disabled path never constructs events.
    #[inline]
    fn trace(&mut self, ev: TraceEvent) {
        self.sink.record(self.now, ev);
    }

    /// Record a cache admission with its policy and ref-count rationale.
    fn trace_admit(&mut self, b: BlockId, exec: ExecId, mb: f64, prefetched: bool) {
        let policy = self.bms[exec.index()].policy_name();
        let refcount = self.profile.lrc_count(b);
        self.trace(TraceEvent::CacheAdmit {
            block: b,
            exec: exec.0,
            mb,
            policy,
            refcount,
            prefetched,
        });
    }

    /// Record a cache eviction with its policy and ref-count rationale.
    fn trace_evict(&mut self, b: BlockId, exec: ExecId, reason: EvictReason) {
        let policy = self.bms[exec.index()].policy_name();
        let refcount = self.profile.lrc_count(b);
        self.trace(TraceEvent::CacheEvict {
            block: b,
            exec: exec.0,
            policy,
            refcount,
            reason,
        });
    }

    /// Run to completion under `sched`. Panics if the configuration can
    /// never finish (a task demand no executor can satisfy).
    pub fn run(mut self, sched: &mut dyn Scheduler) -> SimResult {
        // Impossible-demand early diagnosis.
        for st in self.dag.stages() {
            assert!(
                self.cfg.exec_capacity.fits(st.demand),
                "stage {} demand {:?} exceeds executor capacity {:?}",
                st.id,
                st.demand,
                self.cfg.exec_capacity
            );
        }
        sched.set_tracing(self.trace_on);
        for s in self.dag.stage_ids() {
            if self.stages[s.index()].ready {
                // Fold the stages schedulable from the start into the
                // inverted index. Done here rather than in `new`, so a
                // stage `with_jobs` gates is never folded in before its
                // job is admitted.
                sync_ready(&mut self.cview, &mut self.data, &self.stages, s.index());
                if self.trace_on {
                    let num_tasks = self.dag.stage(s).num_tasks;
                    self.trace(TraceEvent::StageReady {
                        stage: s,
                        num_tasks,
                    });
                }
                sched.on_stage_ready(s, 0);
            } else if self.dag.stage(s).release_ms > 0 && self.dag.parents(s).is_empty() {
                // Job-arrival release: re-examine readiness at that time.
                self.queue.push(
                    self.dag.stage(s).release_ms,
                    Event::StageRelease { stage: s },
                );
            }
        }
        // Compile the fault plan into first-class simulator events. With
        // `faults: None` this queues nothing and touches no RNG: the run is
        // bit-identical to one without fault support.
        if let Some(plan) = &self.cfg.faults {
            for fe in &plan.events {
                let at = fe.at.max(1);
                let ev = match fe.kind {
                    FaultKind::ExecCrash {
                        exec,
                        restart_after_ms,
                    } => Event::ExecCrash {
                        exec,
                        restart_at: restart_after_ms.map(|d| at + d),
                    },
                    FaultKind::BlockLoss { block, exec } => Event::BlockLoss { block, exec },
                };
                self.queue.push(at, ev);
            }
        }
        self.queue.push(self.cfg.sched_tick_ms.max(1), Event::Tick);
        self.do_schedule(sched);
        while self.completed_count < self.dag.num_stages() {
            let Some(t) = self.queue.peek_time() else {
                panic!(
                    "event queue drained with {} stages incomplete",
                    self.dag.num_stages() - self.completed_count
                );
            };
            assert!(
                t <= SIM_TIME_LIMIT,
                "simulation exceeded time limit; no progress possible"
            );
            self.now = t;
            while self.queue.peek_time() == Some(t) {
                let (_, ev) = self.queue.pop().unwrap();
                self.handle(ev, sched);
            }
            if self.completed_count == self.dag.num_stages() {
                break;
            }
            self.do_schedule(sched);
        }
        let jct = self.now;
        self.metrics.busy_cores.finish(jct);
        self.metrics.running_tasks.finish(jct);
        self.metrics.cache.resident_end = self.bms.iter().map(|bm| bm.num_resident() as u64).sum();
        let is = self.data.stats();
        self.metrics.sched.locality_queries = is.locality_queries;
        self.metrics.sched.index_invalidations = is.invalidations;
        self.metrics.sched.valid_level_rebuilds = is.valid_level_rebuilds;
        self.metrics.sched.view_rebuilds = self.cview.rebuilds();
        self.metrics.sched.view_deltas = self.cview.deltas_applied();
        self.metrics.sched.ready_list_rebuilds = self.cview.ready_list_rebuilds();
        self.metrics.sched.ect_heap_pops = self.cview.ect_heap_pops();
        self.metrics.sched.ect_heap_stale = self.cview.ect_heap_stale();
        self.metrics.sched.inv_index_hits = is.inv_index_hits;
        self.metrics.sched.inv_index_updates = is.inv_index_updates;
        self.metrics.sched.inv_index_rebuilds = is.inv_index_rebuilds;
        self.metrics.sched.inv_stage_activations = is.inv_stage_activations;
        self.metrics.sched.inv_flip_diffs = is.inv_flip_diffs;
        SimResult {
            jct,
            metrics: self.metrics,
            total_cores: self.cfg.total_cores(),
            trace: self.sink.take_log(),
            jobs: self
                .jobs
                .take()
                .map(JobsRuntime::into_outcomes)
                .unwrap_or_default(),
        }
    }

    fn handle(&mut self, ev: Event, sched: &mut dyn Scheduler) {
        // A Tick runs the cache maintenance itself, and an IoDone only
        // moves an attempt into its CPU phase; every other event may change
        // cache contents, pins, the reference profile, disk residency,
        // executor liveness or an in-flight prefetch slot.
        if !matches!(ev, Event::Tick | Event::IoDone { .. }) {
            self.maint_dirty = true;
        }
        match ev {
            Event::TaskFinish {
                task,
                exec,
                attempt,
            } => {
                if self.cancelled.remove(&(task, attempt)) {
                    return; // loser attempt already torn down
                }
                if self.task_done[task.stage.index()][task.index as usize] {
                    return; // stale (shouldn't occur; defensive)
                }
                self.finish_task(task, exec, attempt, sched);
            }
            Event::IoDone {
                task,
                exec,
                attempt,
            } => {
                if let Some(ra) = self.running.get_mut(&(task, attempt)) {
                    if !ra.cpu_phase {
                        ra.cpu_phase = true;
                        let cpus = ra.demand.cpus;
                        self.enter_cpu_phase(exec, cpus);
                    }
                }
            }
            Event::PrefetchArrive { block, exec } => self.prefetch_arrive(block, exec),
            Event::JobArrival { job } => self.job_arrival(job, sched),
            Event::StageRelease { stage } => {
                let srt = &mut self.stages[stage.index()];
                if !srt.ready
                    && !srt.completed
                    && self
                        .dag
                        .parents(stage)
                        .iter()
                        .all(|p| self.stages[p.index()].completed)
                {
                    self.stages[stage.index()].ready = true;
                    sync_ready(&mut self.cview, &mut self.data, &self.stages, stage.index());
                    if self.trace_on {
                        let num_tasks = self.dag.stage(stage).num_tasks;
                        self.trace(TraceEvent::StageReady { stage, num_tasks });
                    }
                    sched.on_stage_ready(stage, self.now);
                }
            }
            Event::Tick => {
                if self.completed_count < self.dag.num_stages() {
                    self.queue
                        .push(self.now + self.cfg.sched_tick_ms.max(1), Event::Tick);
                    self.metrics.cache.ticks += 1;
                    if self.cfg.speculation.is_some() {
                        self.speculation_check();
                    }
                    self.tick_maintenance();
                    if self.cfg.trace_executors {
                        self.sample_exec_traces();
                    }
                }
            }
            Event::TaskFail {
                task,
                exec,
                attempt,
            } => {
                if self.cancelled.remove(&(task, attempt)) {
                    return; // attempt already torn down (lost race / crash)
                }
                self.fail_attempt(task, exec, attempt, true, sched);
                // The requeued task may need a block an *earlier* fault
                // destroyed (it had already read it when the fault hit);
                // re-close the lineage worklist before it can relaunch.
                if self.faults.enabled() {
                    self.recover_lost_blocks(sched);
                }
            }
            Event::ExecCrash { exec, restart_at } => self.exec_crash(exec, restart_at, sched),
            Event::ExecRestart { exec } => self.exec_restart(exec),
            Event::BlockLoss { block, exec } => self.block_loss(block, exec, sched),
        }
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Run the scheduler until no more assignments are produced: launch
    /// what one `schedule` call returns, then call again — Alg. 1's
    /// per-step loop. The DAG-aware schedulers return at most one
    /// assignment per call. A scheduler may return a larger batch
    /// ([`crate::scheduler::GreedyFifo`], which drives the profiler's
    /// sampling runs, does); it is applied in order, but if applying an
    /// assignment changed block residency (cache insertion/eviction —
    /// detectable as an index generation bump) or made the next one
    /// invalid, the rest of the batch was computed against stale state and
    /// is discarded, falling back to a fresh call.
    ///
    /// The executor view is *not* rebuilt here: [`ClusterView`] was kept
    /// current by the deltas every launch/teardown/fault emitted.
    fn do_schedule(&mut self, sched: &mut dyn Scheduler) {
        self.drain_lost_pending(sched);
        debug_assert!(
            self.cview.check_consistency(),
            "incremental ClusterView drifted from from-scratch rebuild"
        );
        debug_assert!(
            self.cview.check_ready_consistency(&self.stages),
            "incremental ready list drifted from stage-table scan"
        );
        #[cfg(debug_assertions)]
        for &s in self.cview.ready_stages() {
            // Placement probes ready stages only, and the index is exact
            // only for active ones.
            debug_assert!(
                self.data.is_stage_active(s as usize),
                "schedulable stage {s} is not folded into the inverted index"
            );
        }
        #[cfg(debug_assertions)]
        for s in 0..self.stages.len() {
            // The inverted pending-work index vs a from-scratch rebuild,
            // at every scheduling opportunity, for every active stage
            // (ready or waiting on running tasks and re-inserts). Inactive
            // stages hold nothing; the proptests check that too.
            if self.data.is_stage_active(s) {
                debug_assert!(
                    self.data.check_inv_consistency(s, &self.stages[s].pending),
                    "inverted locality index drifted from from-scratch rebuild (stage {s})"
                );
            }
        }
        #[cfg(debug_assertions)]
        if let Some(jobs) = self.jobs.as_ref() {
            // Rebuild the per-tenant cores ledger from the authoritative
            // running-attempt map; the job/queue counters are rebuilt from
            // the state table inside `check_consistency`.
            let mut expect = vec![0u64; jobs.num_tenants()];
            for ((task, _), ra) in &self.running {
                expect[jobs.tenant_of_stage(task.stage) as usize] += u64::from(ra.demand.cpus);
            }
            debug_assert!(
                jobs.check_consistency(&expect),
                "incremental tenancy ledgers drifted from from-scratch rebuild"
            );
        }
        loop {
            self.metrics.sched.schedule_invocations += 1;
            self.cview.compact_free_execs();
            debug_assert!(
                self.cview.check_free_consistency(),
                "lazy free-executor heap drifted from executor scan"
            );
            let assignments = {
                let view = SimView {
                    now: self.now,
                    dag: &self.dag,
                    topo: &self.topo,
                    cost: &self.cfg.cost,
                    locality_wait: self.cfg.locality_wait,
                    execs: self.cview.execs(),
                    stages: &self.stages,
                    tasks: &self.task_views,
                    index: &self.data,
                    metrics: &self.metrics,
                    narrow_mb: &self.narrow_mb,
                    exec_gen: self.cview.exec_gen(),
                    usable_execs: self.cview.usable_execs(),
                    exec_capacity: self.cfg.exec_capacity,
                    ready: self.cview.ready_stages(),
                    free_execs: self.cview.free_execs(),
                    tenant_cores: self.jobs.as_ref().map_or(&[], |j| j.tenant_cores()),
                    tenant_of_stage: self.jobs.as_ref().map_or(&[], |j| j.stage_tenants()),
                };
                sched.schedule(&view)
            };
            if assignments.is_empty() {
                return;
            }
            // Decision rationales, paired with assignments by index. Only
            // the applied prefix of a multi-assignment batch is recorded:
            // a discarded tail's decisions never happened.
            let decisions = if self.trace_on {
                sched.drain_decisions()
            } else {
                Vec::new()
            };
            let gen0 = self.data.generation();
            let total = assignments.len();
            let mut applied = 0usize;
            for (i, a) in assignments.into_iter().enumerate() {
                if self.data.generation() != gen0 || !self.validate(&a) {
                    self.metrics.sched.batches_discarded += 1;
                    self.metrics.sched.assignments_discarded += (total - applied) as u64;
                    break;
                }
                if self.trace_on {
                    // Schedulers without rationale support get a bare
                    // record synthesized from the assignment itself.
                    let d = decisions.get(i).copied().unwrap_or(SchedDecision {
                        stage: a.stage,
                        task_index: a.task_index,
                        exec: a.exec.0,
                        locality: a.locality.rank(),
                        allowed: a.locality.rank(),
                        ect_ms: -1.0,
                        est_ms: -1.0,
                        threshold_ms: -1.0,
                        predicted_cache_hit: a.locality == Locality::Process,
                    });
                    self.trace(TraceEvent::SchedDecision(d));
                }
                self.launch(a, false, sched);
                applied += 1;
            }
            // A launch can evict the last copy of a block a crash already
            // de-replicated; settle lineage before the next `schedule` call.
            self.drain_lost_pending(sched);
            if applied == 0 {
                return;
            }
        }
    }

    /// If any recently-evicted block is now materialized nowhere, re-run
    /// the lineage worklist. Called only between `schedule` calls, never
    /// while a returned batch is being applied: resubmission re-pends
    /// tasks and calls `on_stage_ready`, and the rest of the batch was
    /// computed against the pending sets from before.
    fn drain_lost_pending(&mut self, sched: &mut dyn Scheduler) {
        if self.lost_pending.is_empty() {
            return;
        }
        let blocks = std::mem::take(&mut self.lost_pending);
        if blocks
            .iter()
            .any(|b| !self.data.on_disk_anywhere(*b) && !self.data.is_cached_anywhere(*b))
        {
            self.recover_lost_blocks(sched);
        }
    }

    fn validate(&self, a: &Assignment) -> bool {
        let st = &self.stages[a.stage.index()];
        st.ready
            && !st.completed
            && st.pending.contains(a.task_index)
            && self.faults.usable(a.exec)
            && self
                .cview
                .free_of(a.exec)
                .fits(self.dag.stage(a.stage).demand)
    }

    /// Physical read tier for one block from one executor.
    fn read_tier(&self, b: BlockId, exec: ExecId) -> ReadTier {
        self.data.read_tier(b, exec)
    }

    fn locality_of(&self, stage: StageId, k: u32, exec: ExecId) -> Locality {
        self.data.task_locality(stage.index(), k, exec)
    }

    fn launch(&mut self, a: Assignment, speculative: bool, sched: &mut dyn Scheduler) {
        // Pins, cache contents and the reference profile move below.
        self.maint_dirty = true;
        let task = TaskId::new(a.stage, a.task_index);
        let st = self.dag.stage(a.stage);
        let demand = st.demand;
        let task_cpu_ms = st.task_cpu_ms(a.task_index);
        let task_work = st.task_work(a.task_index);
        let exec = a.exec;
        let locality = self.locality_of(a.stage, a.task_index, exec);

        // Cache interactions + I/O time.
        let mut io_ms = 0.0f64;
        let mut pinned = Vec::new();
        let inputs = Arc::clone(&self.task_inputs[a.stage.index()][a.task_index as usize]);
        for &(b, mb) in inputs.iter() {
            let eligible = self.dag.rdd(b.rdd).cached;
            if eligible && self.cfg.trace_accesses {
                self.metrics.access_trace.push((exec.0, b));
            }
            let hit = eligible && self.bms[exec.index()].access(b, self.now);
            if hit {
                self.metrics.cache.hits += 1;
                self.metrics.cache.hit_kb += (mb * 1024.0) as u64;
                self.metrics.per_stage[a.stage.index()].cache_hits += 1;
                self.bms[exec.index()].pin(b);
                pinned.push(b);
                if self.prefetched[exec.index()].remove(&b) {
                    self.metrics.cache.prefetch_used += 1;
                }
                if self.trace_on {
                    let refcount = self.profile.lrc_count(b);
                    self.trace(TraceEvent::CacheHit {
                        block: b,
                        exec: exec.0,
                        mb,
                        refcount,
                    });
                }
                continue;
            }
            let tier = self.read_tier(b, exec);
            io_ms += self.cfg.cost.read_ms(mb, tier);
            if eligible {
                self.metrics.cache.misses += 1;
                self.metrics.cache.miss_kb += (mb * 1024.0) as u64;
                self.metrics.per_stage[a.stage.index()].cache_misses += 1;
                if self.trace_on {
                    let refcount = self.profile.lrc_count(b);
                    self.trace(TraceEvent::CacheMiss {
                        block: b,
                        exec: exec.0,
                        mb,
                        refcount,
                    });
                }
                if self.bms[exec.index()].caches_on_miss() {
                    match self.bms[exec.index()].try_insert(b, mb, self.now, &self.profile) {
                        InsertOutcome::Inserted { evicted } => {
                            self.metrics.cache.insertions += 1;
                            self.metrics.cache.evictions += evicted.len() as u64;
                            for e in evicted {
                                self.data.remove_cached(e, exec);
                                self.prefetched[exec.index()].remove(&e);
                                if self.faults.enabled() {
                                    self.lost_pending.push(e);
                                }
                                if self.trace_on {
                                    self.trace_evict(e, exec, EvictReason::Capacity);
                                }
                            }
                            self.data.add_cached(b, exec);
                            self.bms[exec.index()].pin(b);
                            pinned.push(b);
                            if self.trace_on {
                                self.trace_admit(b, exec, mb, false);
                            }
                        }
                        InsertOutcome::Rejected { evicted } => {
                            // Victims dropped before the policy gave up
                            // stay dropped (as in Spark). Only the
                            // storage ledger records them: the locality
                            // index keeps serving the stale entry (the
                            // long-pinned golden behavior), so reads
                            // still resolve and lineage recovery never
                            // needs to trigger for these.
                            self.metrics.cache.evictions += evicted.len() as u64;
                            if self.trace_on {
                                for e in evicted {
                                    self.trace_evict(e, exec, EvictReason::Capacity);
                                }
                            }
                        }
                        InsertOutcome::AlreadyCached => {}
                    }
                }
            }
        }
        // Jitter models run-time variance (GC, contention); it applies to
        // the CPU phase — I/O time is already location-determined.
        let jitter = if self.cfg.duration_jitter > 0.0 {
            1.0 + self
                .rng
                .gen_range(-self.cfg.duration_jitter..=self.cfg.duration_jitter)
        } else {
            1.0
        };
        let hiccup = if self.cfg.straggler_prob > 0.0
            && self.rng.gen_bool(self.cfg.straggler_prob.clamp(0.0, 1.0))
        {
            self.cfg.straggler_factor.max(1.0)
        } else {
            1.0
        };
        let io_phase_ms = io_ms.round().max(0.0) as SimTime;
        let cpu_phase_ms = (task_cpu_ms as f64 * jitter * hiccup).round().max(1.0) as SimTime;

        // The fault die (a *separate* RNG stream — the jitter draws above
        // came from the main one) decides up front whether this attempt is
        // doomed; `None` whenever faults are disabled.
        let doom = self.faults.roll_task_failure();

        // Monotone per-task attempt ids: a retried task's fresh attempt
        // can never collide with a stale `cancelled` entry. Fault-free
        // runs produce exactly the old numbering (0 primary,
        // 1 speculative).
        let seq = &mut self.attempt_seq[a.stage.index()][a.task_index as usize];
        let attempt = *seq;
        *seq += 1;
        self.running.insert(
            (task, attempt),
            RunningAttempt {
                exec,
                start: self.now,
                demand,
                locality,
                pinned,
                speculative,
                cpu_phase: io_phase_ms == 0,
            },
        );
        self.cview.apply(ViewDelta::Consume { exec, demand });
        if let Some(jobs) = self.jobs.as_mut() {
            // Every attempt — speculative copies included — occupies real
            // cores; the fair-share ledger mirrors the cview's occupancy.
            jobs.on_cores_consumed(task.stage, demand.cpus);
        }
        self.metrics.running_tasks.add(self.now, 1.0);
        if io_phase_ms == 0 {
            self.enter_cpu_phase(exec, demand.cpus);
        } else {
            self.queue.push(
                self.now + io_phase_ms,
                Event::IoDone {
                    task,
                    exec,
                    attempt,
                },
            );
        }
        let sm = &mut self.metrics.per_stage[a.stage.index()];
        sm.first_launch.get_or_insert(self.now);
        sm.launches_by_locality[locality.index()] += 1;
        if self.trace_on {
            self.trace(TraceEvent::TaskLaunch {
                task,
                attempt,
                exec: exec.0,
                locality: locality.rank(),
                speculative,
                io_ms: io_phase_ms,
            });
        }

        if let Some(frac) = doom {
            // Die partway through the compute phase (strictly after IoDone,
            // at or before the would-be finish time).
            let fail_cpu = ((cpu_phase_ms as f64 * frac).round() as SimTime).clamp(1, cpu_phase_ms);
            self.queue.push(
                self.now + io_phase_ms + fail_cpu,
                Event::TaskFail {
                    task,
                    exec,
                    attempt,
                },
            );
        } else {
            self.queue.push(
                self.now + io_phase_ms + cpu_phase_ms,
                Event::TaskFinish {
                    task,
                    exec,
                    attempt,
                },
            );
        }

        if !speculative {
            let srt = &mut self.stages[a.stage.index()];
            srt.pending.remove(a.task_index);
            srt.running += 1;
            self.data.on_pending_removed(a.stage.index(), a.task_index);
            sync_ready(
                &mut self.cview,
                &mut self.data,
                &self.stages,
                a.stage.index(),
            );
            let work = task_work;
            self.tracker.on_task_launched(task, work);
            sched.on_task_launched(task, work, self.now);
            self.sync_priorities(sched);
        } else {
            self.metrics.speculative_launched += 1;
        }
    }

    fn finish_task(&mut self, task: TaskId, exec: ExecId, attempt: u32, sched: &mut dyn Scheduler) {
        let ra = self
            .running
            .remove(&(task, attempt))
            .expect("finish event for unknown attempt");
        self.teardown_attempt(task, &ra, exec);
        let dur = self.now - ra.start;
        self.metrics.task_runs.push(TaskRun {
            task,
            exec,
            start: ra.start,
            end: self.now,
            locality: ra.locality,
            speculative: ra.speculative,
            winner: true,
            failed: false,
        });
        // A success breaks the executor's consecutive-failure streak.
        self.faults.consec_failures[exec.index()] = 0;
        let sm = &mut self.metrics.per_stage[task.stage.index()];
        let slot = &mut sm.finished_by_locality[ra.locality.index()];
        slot.0 += 1;
        slot.1 += dur;
        insert_sorted(&mut self.stage_durations[task.stage.index()], dur);
        if ra.speculative {
            self.metrics.speculative_won += 1;
        }
        if self.trace_on {
            self.trace(TraceEvent::TaskFinish {
                task,
                attempt,
                exec: exec.0,
                locality: ra.locality.rank(),
            });
        }

        // Cancel every losing attempt still in flight (under retries the
        // other attempt's id is not simply `1 - attempt`; scan the task's
        // key range instead).
        let losers: Vec<u32> = self
            .running
            .range((task, 0)..=(task, u32::MAX))
            .map(|((_, a2), _)| *a2)
            .collect();
        for other in losers {
            let loser = self.running.remove(&(task, other)).unwrap();
            let lexec = loser.exec;
            self.teardown_attempt(task, &loser, lexec);
            self.cancelled.insert((task, other));
            self.metrics.task_runs.push(TaskRun {
                task,
                exec: lexec,
                start: loser.start,
                end: self.now,
                locality: loser.locality,
                speculative: loser.speculative,
                winner: false,
                failed: false,
            });
            if self.trace_on {
                self.trace(TraceEvent::TaskKilled {
                    task,
                    attempt: other,
                    exec: lexec.0,
                    reason: KillReason::LostRace,
                });
            }
        }

        self.task_done[task.stage.index()][task.index as usize] = true;
        let srt = &mut self.stages[task.stage.index()];
        srt.running = srt.running.saturating_sub(1);
        srt.finished += 1;
        let stage_complete = srt.finished == self.dag.stage(task.stage).num_tasks;

        // Remove this task's block references from the master profile.
        for &(b, _) in self.task_inputs[task.stage.index()][task.index as usize].iter() {
            self.profile.remove_use(b, task.stage);
        }

        // Materialize the output block.
        let node = self.topo.node_of_exec(exec);
        let out = BlockId::new(self.dag.stage(task.stage).output, task.index);
        if !self.data.data().disk_nodes(out).contains(&node) {
            self.data.add_disk(out, node);
            if self.dag.rdd(out.rdd).cached {
                self.disk_by_node[node.index()].push(out);
            }
            if self.faults.enabled() {
                // Remember whose files these are: an executor crash
                // destroys the outputs it wrote to its node's disk.
                self.outputs_by_exec[exec.index()].push(out);
            }
        }
        if self.dag.rdd(out.rdd).cached {
            match self.bms[exec.index()].try_insert(
                out,
                self.dag.rdd(out.rdd).block_mb,
                self.now,
                &self.profile,
            ) {
                InsertOutcome::Inserted { evicted } => {
                    self.metrics.cache.insertions += 1;
                    self.metrics.cache.evictions += evicted.len() as u64;
                    for e in evicted {
                        self.data.remove_cached(e, exec);
                        self.prefetched[exec.index()].remove(&e);
                        if self.faults.enabled() {
                            self.lost_pending.push(e);
                        }
                        if self.trace_on {
                            self.trace_evict(e, exec, EvictReason::Capacity);
                        }
                    }
                    self.data.add_cached(out, exec);
                    if self.trace_on {
                        self.trace_admit(out, exec, self.dag.rdd(out.rdd).block_mb, false);
                    }
                }
                InsertOutcome::Rejected { evicted } => {
                    // Ledger-only, as in `launch`: the index keeps the
                    // stale entries to preserve golden behavior.
                    self.metrics.cache.evictions += evicted.len() as u64;
                    if self.trace_on {
                        for e in evicted {
                            self.trace_evict(e, exec, EvictReason::Capacity);
                        }
                    }
                }
                InsertOutcome::AlreadyCached => {}
            }
        }

        if stage_complete {
            self.complete_stage(task.stage, sched);
        }
    }

    /// Mirror current stage priority values into the master's reference
    /// profile: from the scheduler when it maintains Eq. (6) (the paper's
    /// TaskScheduler feeds BlockManagerMaster), otherwise from the
    /// ground-truth tracker.
    fn sync_priorities(&mut self, sched: &mut dyn Scheduler) {
        match sched.stage_priorities() {
            Some(pvs) => {
                for (s, pv) in pvs {
                    self.profile.pv[s.index()] = pv;
                }
            }
            None => {
                for s in self.dag.stage_ids() {
                    self.profile.pv[s.index()] = self.tracker.pv(s);
                }
            }
        }
    }

    fn teardown_attempt(&mut self, task: TaskId, ra: &RunningAttempt, exec: ExecId) {
        self.cview.apply(ViewDelta::Release {
            exec,
            demand: ra.demand,
        });
        if !self.cfg.exec_capacity.fits(self.cview.free_of(exec)) {
            // The release returned resources a saturating `Consume` never
            // took: an over-subscribing speculative launch.
            self.metrics.sched.ledger_over_capacity += 1;
        }
        if let Some(jobs) = self.jobs.as_mut() {
            jobs.on_cores_released(task.stage, ra.demand.cpus);
        }
        if ra.cpu_phase {
            self.exec_busy_cores[exec.index()] -= ra.demand.cpus;
            self.metrics
                .busy_cores
                .add(self.now, -(ra.demand.cpus as f64));
            self.trace_busy(exec);
        }
        self.metrics.running_tasks.add(self.now, -1.0);
        for b in &ra.pinned {
            self.bms[exec.index()].unpin(*b);
        }
    }

    fn enter_cpu_phase(&mut self, exec: ExecId, cpus: u32) {
        self.exec_busy_cores[exec.index()] += cpus;
        self.metrics.busy_cores.add(self.now, cpus as f64);
        self.trace_busy(exec);
    }

    fn complete_stage(&mut self, s: StageId, sched: &mut dyn Scheduler) {
        if self.trace_on {
            self.trace(TraceEvent::StageComplete { stage: s });
        }
        self.stages[s.index()].completed = true;
        sync_ready(&mut self.cview, &mut self.data, &self.stages, s.index());
        self.metrics.per_stage[s.index()].completed_at = Some(self.now);
        self.completed_count += 1;
        // Fold the stage out of the inverted index and free its scan rows:
        // nothing probes a completed stage, and a lineage resubmission
        // re-activates it through `sync_ready`.
        self.data.release_stage(s.index());
        // Advance the FIFO frontier for MRD.
        self.profile.frontier = self
            .dag
            .stage_ids()
            .find(|x| !self.stages[x.index()].completed)
            .map(|x| x.0)
            .unwrap_or(self.dag.num_stages() as u32);
        sched.on_stage_complete(s, self.now);
        // Children whose parents are now all complete become ready. (The
        // completed-guard matters only under lineage recovery: a child may
        // have finished before its resubmitted parent re-completed.)
        let mut newly_ready: Vec<StageId> = Vec::new();
        for &c in self.dag.children(s) {
            if !self.stages[c.index()].ready
                && !self.stages[c.index()].completed
                && self
                    .dag
                    .parents(c)
                    .iter()
                    .all(|p| self.stages[p.index()].completed)
            {
                if self.now < self.dag.stage(c).release_ms {
                    self.queue.push(
                        self.dag.stage(c).release_ms,
                        Event::StageRelease { stage: c },
                    );
                } else {
                    self.stages[c.index()].ready = true;
                    sync_ready(&mut self.cview, &mut self.data, &self.stages, c.index());
                    sched.on_stage_ready(c, self.now);
                    if self.trace_on {
                        newly_ready.push(c);
                    }
                }
            }
        }
        for c in newly_ready {
            self.trace(TraceEvent::StageReady {
                stage: c,
                num_tasks: self.dag.stage(c).num_tasks,
            });
        }
        self.proactive_sweeps();
        // Online mode: the stage's job may be finished, which frees
        // admission slots and triggers closed-loop successors.
        if self.jobs.is_some() {
            let job = self.jobs.as_ref().unwrap().job_of_stage(s);
            if self.jobs.as_mut().unwrap().on_stage_complete(job, self.now) {
                self.schedule_departure_successors(job);
                let admitted = self.jobs.as_mut().unwrap().admit_queued(self.now);
                for j in admitted {
                    self.admit_job(j, sched);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Online multi-tenant mode (dynamic job admission)
    // ------------------------------------------------------------------

    /// A job's arrival event fired: run admission control and act on the
    /// decision.
    fn job_arrival(&mut self, job: u32, sched: &mut dyn Scheduler) {
        let decision = self
            .jobs
            .as_mut()
            .expect("JobArrival event without an installed JobsRuntime")
            .on_arrival(job, self.now);
        match decision {
            AdmissionDecision::Admitted => self.admit_job(job, sched),
            AdmissionDecision::Queued => {}
            AdmissionDecision::Rejected => self.reject_job(job),
        }
    }

    /// Un-gate an admitted job: its root stages (parents already complete
    /// — shared parents can pre-exist in the merged DAG) become ready and
    /// are offered to the scheduler.
    fn admit_job(&mut self, job: u32, sched: &mut dyn Scheduler) {
        let stages = self.jobs.as_ref().unwrap().spec(job).stages.clone();
        for s in stages {
            let si = s.index();
            if self.stages[si].ready || self.stages[si].completed {
                continue;
            }
            if self
                .dag
                .parents(s)
                .iter()
                .all(|p| self.stages[p.index()].completed)
            {
                self.stages[si].ready = true;
                sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
                if self.trace_on {
                    let num_tasks = self.dag.stage(s).num_tasks;
                    self.trace(TraceEvent::StageReady {
                        stage: s,
                        num_tasks,
                    });
                }
                sched.on_stage_ready(s, self.now);
            }
        }
    }

    /// Admission bounced the job (full queue): retire its stages without
    /// running them — completed-without-timestamp, reference profile
    /// cleaned up — so the run-loop's completion count still converges.
    /// Closed-loop successors still fire (a think-time client retries
    /// after a rejection; otherwise its whole chain would deadlock).
    fn reject_job(&mut self, job: u32) {
        let stages = self.jobs.as_ref().unwrap().spec(job).stages.clone();
        for s in stages {
            let si = s.index();
            debug_assert!(!self.stages[si].ready && !self.stages[si].completed);
            self.stages[si].completed = true;
            sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
            self.completed_count += 1;
            self.data.release_stage(si);
            for k in 0..self.dag.stage(s).num_tasks {
                for &(b, _) in self.task_inputs[si][k as usize].iter() {
                    self.profile.remove_use(b, s);
                }
            }
        }
        self.profile.frontier = self
            .dag
            .stage_ids()
            .find(|x| !self.stages[x.index()].completed)
            .map(|x| x.0)
            .unwrap_or(self.dag.num_stages() as u32);
        self.schedule_departure_successors(job);
    }

    /// Schedule the closed-loop arrivals waiting on `job` leaving the
    /// system (completion or rejection), each after its think time.
    fn schedule_departure_successors(&mut self, job: u32) {
        let succs = self.jobs.as_ref().unwrap().successors_of(job).to_vec();
        for (next, think_ms) in succs {
            self.queue
                .push(self.now + think_ms, Event::JobArrival { job: next });
        }
    }

    // ------------------------------------------------------------------
    // Caching machinery
    // ------------------------------------------------------------------

    /// The Tick's cache maintenance, run only when its inputs may have
    /// changed. Between two passes those inputs — cache contents and pins,
    /// policy state, the reference profile, disk residency, executor
    /// liveness and the in-flight prefetch slots — move only through
    /// events other than `Tick`/`IoDone` and through launches, which all
    /// set `maint_dirty`; both policy calls are pure in them (the
    /// [`CachePolicy`] contract). So a pass on a clean flag repeats the
    /// last one, which did nothing. A pass that acted keeps the flag set:
    /// a proactive eviction can expose a new prefetch candidate. Debug
    /// builds still run the pass on quiet ticks and assert it is a no-op.
    fn tick_maintenance(&mut self) {
        if self.maint_dirty {
            self.metrics.cache.maint_passes += 1;
            self.maint_dirty = self.maintenance_pass();
        } else if cfg!(debug_assertions) {
            // The oracle pass leaves the scan counters as release builds
            // count them.
            let counted = self.metrics.cache;
            let acted = self.maintenance_pass();
            debug_assert!(
                !acted,
                "quiet tick: cache maintenance acted with no state change since its last idle pass"
            );
            self.metrics.cache = counted;
        }
    }

    /// One prefetch scan and proactive sweep; returns whether it issued a
    /// prefetch or evicted a block.
    fn maintenance_pass(&mut self) -> bool {
        // Both counters only grow, so their sum moves iff the pass acted.
        let actions = |c: &CacheStats| c.prefetches + c.proactive_evictions;
        let before = actions(&self.metrics.cache);
        if self.cfg.prefetch_free_frac.is_some() {
            self.prefetch_scan();
        }
        self.proactive_sweeps();
        actions(&self.metrics.cache) != before
    }

    fn proactive_sweeps(&mut self) {
        for i in 0..self.bms.len() {
            let victims = self.bms[i].proactive_sweep(&self.profile);
            self.metrics.cache.proactive_evictions += victims.len() as u64;
            for v in victims {
                self.data.remove_cached(v, ExecId(i as u32));
                self.prefetched[i].remove(&v);
                if self.faults.enabled() {
                    self.lost_pending.push(v);
                }
                if self.trace_on {
                    self.trace_evict(v, ExecId(i as u32), EvictReason::Proactive);
                }
            }
        }
    }

    fn prefetch_scan(&mut self) {
        let threshold = match self.cfg.prefetch_free_frac {
            Some(f) => f,
            None => return,
        };
        debug_assert!(
            self.check_prefetch_pool(),
            "prefetch pool misses a live cache-eligible disk block, or lists one twice"
        );
        // Both buffers are owned by the simulation and reused across
        // executors and scans: prefetch scans fire every tick, and the
        // per-scan `Vec` allocation showed up in the BENCH_3 profile.
        // The candidate filter and the policy ranking are both
        // executor-independent (block residency cannot move mid-scan —
        // insertions happen at `PrefetchArrive`, never here), so each runs
        // once per *node*: executors only re-filter the shared ranking by
        // their own free cache space. The first ranked block that fits is
        // exactly `prefetch_pick` over the fitting candidates (the
        // `CachePolicy::prefetch_order` contract). Executor ids are
        // node-consecutive, so a single "current node" marker suffices.
        let mut order = std::mem::take(&mut self.prefetch_buf);
        let mut node_buf = std::mem::take(&mut self.prefetch_node_buf);
        let mut cur_node = usize::MAX;
        for i in 0..self.bms.len() {
            if !self.faults.usable_idx(i) {
                continue; // dead/blacklisted executors don't prefetch
            }
            if self.prefetch_inflight[i].is_some() {
                continue;
            }
            if self.bms[i].free_frac() < threshold {
                continue;
            }
            let exec = ExecId(i as u32);
            let node = self.topo.node_of_exec(exec).index();
            if node != cur_node {
                cur_node = node;
                node_buf.clear();
                let pool = &mut self.disk_by_node[node];
                self.metrics.cache.prefetch_node_filters += 1;
                self.metrics.cache.prefetch_pool_visits += pool.len() as u64;
                let (profile, data) = (&self.profile, &self.data);
                pool.retain(|&b| {
                    // A dead block stays dead until a lineage resubmission
                    // puts it back (`return_to_pools`): drop it for good.
                    if !profile.is_live(b) {
                        return false;
                    }
                    // "prefetches the in-disk data block": only blocks not
                    // in memory anywhere — duplicating an already-cached
                    // block concentrates process-locality instead of
                    // widening it.
                    if !data.is_cached_anywhere(b) {
                        node_buf.push(b);
                    }
                    true
                });
                self.bms[i].prefetch_order(&node_buf, &self.profile, &mut order);
            }
            let free = self.bms[i].free_mb();
            if let Some(&b) = order
                .iter()
                .find(|&&b| self.dag.rdd(b.rdd).block_mb <= free)
            {
                let mb = self.dag.rdd(b.rdd).block_mb;
                self.prefetch_inflight[i] = Some((b, mb));
                self.metrics.cache.prefetches += 1;
                let dt = self
                    .cfg
                    .cost
                    .read_ms(mb, ReadTier::NodeDisk)
                    .round()
                    .max(1.0) as SimTime;
                self.queue
                    .push(self.now + dt, Event::PrefetchArrive { block: b, exec });
            }
        }
        self.prefetch_buf = order;
        self.prefetch_node_buf = node_buf;
    }

    /// Put a block a lineage resubmission revived back into the pool of
    /// every node whose disk holds it. The scan may have dropped it from
    /// some of those pools while it was dead, and not yet from others.
    fn return_to_pools(&mut self, b: BlockId) {
        if !self.dag.rdd(b.rdd).cached {
            return;
        }
        for &n in self.data.data().disk_nodes(b) {
            let pool = &mut self.disk_by_node[n.index()];
            if !pool.contains(&b) {
                pool.push(b);
            }
        }
    }

    /// Oracle for `disk_by_node`, from the DAG, the disk residency and the
    /// reference profile: each node's pool holds only cache-eligible
    /// blocks on that node's disk, none twice, and every live one.
    fn check_prefetch_pool(&self) -> bool {
        let mut sorted = self.disk_by_node.clone();
        for (n, pool) in sorted.iter_mut().enumerate() {
            pool.sort_unstable();
            if pool.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
            let node = NodeId(n as u32);
            if pool.iter().any(|&b| {
                !self.dag.rdd(b.rdd).cached || !self.data.data().disk_nodes(b).contains(&node)
            }) {
                return false;
            }
        }
        self.dag
            .rdds()
            .iter()
            .filter(|r| r.cached)
            .flat_map(|r| r.blocks())
            .filter(|&b| self.profile.is_live(b))
            .all(|b| {
                self.data
                    .data()
                    .disk_nodes(b)
                    .iter()
                    .all(|n| sorted[n.index()].binary_search(&b).is_ok())
            })
    }

    fn prefetch_arrive(&mut self, block: BlockId, exec: ExecId) {
        let i = exec.index();
        // Stale arrival: the executor crashed (clearing its in-flight slot)
        // after this transfer started — and may have restarted and begun a
        // different prefetch since. Only the transfer the slot still
        // describes may land.
        if self.prefetch_inflight[i].map(|(b, _)| b) != Some(block) {
            return;
        }
        self.prefetch_inflight[i] = None;
        let mb = self.dag.rdd(block.rdd).block_mb;
        // Insert only into genuinely free space: prefetch never evicts.
        if !self.bms[i].contains(block)
            && self.bms[i].free_mb() >= mb
            && self.profile.is_live(block)
        {
            if let InsertOutcome::Inserted { .. } =
                self.bms[i].try_insert(block, mb, self.now, &self.profile)
            {
                self.metrics.cache.insertions += 1;
                self.data.add_cached(block, exec);
                self.prefetched[i].insert(block);
                if self.trace_on {
                    self.trace_admit(block, exec, mb, true);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Speculation (§IV)
    // ------------------------------------------------------------------

    /// Launch a speculative copy of every straggling primary: one whose
    /// elapsed time exceeds `multiplier ×` its stage's median finished
    /// duration, once `quantile` of the stage's tasks finished. One walk
    /// over `running` in key order, so the cost follows the running
    /// attempts, not the DAG; a stage's threshold is computed when the
    /// walk meets its first primary. Copies launch in (stage, task index)
    /// order against the free resources as they were before the first
    /// of them.
    fn speculation_check(&mut self) {
        let spec = self.cfg.speculation.unwrap();
        let mut to_launch: Vec<(TaskId, Assignment)> = Vec::new();
        // The stage the walk is in and its threshold (`None`: the stage
        // is not speculating).
        let mut cur: Option<(StageId, Option<f64>)> = None;
        let mut visits = 0u64;
        for (&(task, _), ra) in &self.running {
            // Primaries are `!speculative` (attempt ids are not fixed
            // under retries).
            if ra.speculative {
                continue;
            }
            visits += 1;
            let threshold = match cur {
                Some((s, t)) if s == task.stage => t,
                _ => {
                    let t = self.spec_threshold(task.stage, spec);
                    cur = Some((task.stage, t));
                    t
                }
            };
            if let Some(threshold) = threshold {
                if let Some(a) = self.spec_target(task, ra, threshold) {
                    to_launch.push((task, a));
                }
            }
        }
        self.metrics.sched.spec_primary_visits += visits;
        debug_assert_eq!(
            to_launch,
            self.speculation_by_stage(spec),
            "speculation walk over running primaries disagrees with the per-stage scan"
        );
        for (task, a) in to_launch {
            // Candidates were collected against a snapshot of `exec_free`;
            // earlier launches in this very loop may have consumed the last
            // slot. Fault-free lineups keep the historical (golden-pinned)
            // behavior, where such a transient over-subscription is absorbed
            // by the saturating ledger (and counted); with crashes shrinking
            // the pool the collision becomes routine and corrupts
            // free-resource accounting, so re-check and skip without burning
            // the task's speculation shot — it can re-arm on the next sweep.
            if !self
                .cview
                .free_of(a.exec)
                .fits(self.dag.stage(a.stage).demand)
            {
                if self.faults.enabled() {
                    continue;
                }
                self.metrics.sched.spec_oversubscriptions += 1;
            }
            self.spec_launched.insert(task);
            self.launch(a, true, &mut NopScheduler);
        }
    }

    /// Stage `s`'s straggler threshold in ms, or `None` while it does not
    /// speculate: completed, nothing running, or fewer than `quantile` of
    /// its tasks finished.
    fn spec_threshold(&self, s: StageId, spec: SpeculationConfig) -> Option<f64> {
        let srt = &self.stages[s.index()];
        if srt.completed || srt.running == 0 {
            return None;
        }
        let needed = (spec.quantile * self.dag.stage(s).num_tasks as f64).ceil() as u32;
        if srt.finished < needed.max(1) {
            return None;
        }
        let durs = &self.stage_durations[s.index()];
        debug_assert!(durs.is_sorted(), "stage {s} durations lost their order");
        let med = *durs.get(durs.len() / 2)?;
        Some(spec.multiplier * med as f64)
    }

    /// The speculative copy of primary `ra` of `task` if it is a
    /// straggler past `threshold`: the best-locality usable executor with
    /// room for it, most free cpus first among equals, other than the one
    /// running the primary.
    fn spec_target(&self, task: TaskId, ra: &RunningAttempt, threshold: f64) -> Option<Assignment> {
        if self.spec_launched.contains(&task)
            || self.task_done[task.stage.index()][task.index as usize]
            || (self.now - ra.start) as f64 <= threshold
        {
            return None;
        }
        let demand = self.dag.stage(task.stage).demand;
        let mut best: Option<(Locality, u32, ExecId)> = None;
        for e in 0..self.cview.num_execs() {
            let exec = ExecId(e as u32);
            if exec == ra.exec
                || !self.faults.usable_idx(e)
                || !self.cview.free_of(exec).fits(demand)
            {
                continue;
            }
            let l = self.locality_of(task.stage, task.index, exec);
            let free = self.cview.free_of(exec).cpus;
            if best.is_none_or(|(bl, bf, _)| l < bl || (l == bl && free > bf)) {
                best = Some((l, free, exec));
            }
        }
        best.map(|(l, _, exec)| Assignment {
            stage: task.stage,
            task_index: task.index,
            exec,
            locality: l,
        })
    }

    /// Oracle for the speculation walk and `stage_durations`: the
    /// from-scratch per-stage scan it replaced. Every stage in id order,
    /// the median from a sorted clone of its durations, its primaries
    /// filtered out of all of `running` and sorted by task index.
    fn speculation_by_stage(&self, spec: SpeculationConfig) -> Vec<(TaskId, Assignment)> {
        let mut out = Vec::new();
        for s in self.dag.stage_ids() {
            let srt = &self.stages[s.index()];
            if srt.completed || srt.running == 0 {
                continue;
            }
            let needed = (spec.quantile * self.dag.stage(s).num_tasks as f64).ceil() as u32;
            if srt.finished < needed.max(1) || self.stage_durations[s.index()].is_empty() {
                continue;
            }
            let mut sorted = self.stage_durations[s.index()].clone();
            sorted.sort_unstable();
            let threshold = spec.multiplier * sorted[sorted.len() / 2] as f64;
            let mut candidates: Vec<(TaskId, &RunningAttempt)> = self
                .running
                .iter()
                .filter(|((task, _), ra)| task.stage == s && !ra.speculative)
                .map(|((task, _), ra)| (*task, ra))
                .collect();
            candidates.sort_by_key(|(t, _)| t.index);
            for (task, ra) in candidates {
                if let Some(a) = self.spec_target(task, ra, threshold) {
                    out.push((task, a));
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Fault injection & recovery
    // ------------------------------------------------------------------

    /// Tear down a live attempt that died — an injected task failure when
    /// `blame`, an executor crash otherwise — and re-offer the task to the
    /// scheduler unless another attempt of it survives. The caller
    /// swallows the attempt's still-queued events (`TaskFail` pops its own
    /// key; crashes insert victims into `cancelled`).
    fn fail_attempt(
        &mut self,
        task: TaskId,
        exec: ExecId,
        attempt: u32,
        blame: bool,
        sched: &mut dyn Scheduler,
    ) {
        let Some(ra) = self.running.remove(&(task, attempt)) else {
            return;
        };
        self.teardown_attempt(task, &ra, exec);
        self.metrics.task_runs.push(TaskRun {
            task,
            exec,
            start: ra.start,
            end: self.now,
            locality: ra.locality,
            speculative: ra.speculative,
            winner: false,
            failed: true,
        });
        if self.trace_on {
            if blame {
                self.trace(TraceEvent::TaskFail {
                    task,
                    attempt,
                    exec: exec.0,
                });
            } else {
                self.trace(TraceEvent::TaskKilled {
                    task,
                    attempt,
                    exec: exec.0,
                    reason: KillReason::ExecCrash,
                });
            }
        }
        if blame {
            self.metrics.faults.task_failures += 1;
            // Bounded retry (spark.task.maxFailures): executor-loss kills
            // are the machine's fault and don't count against the task.
            let (si, ki) = (task.stage.index(), task.index as usize);
            self.retries[si][ki] += 1;
            let max = self.faults.max_task_retries();
            if self.retries[si][ki] > max {
                panic!(
                    "job aborted: task {task} failed {} times (max_task_retries = {max})",
                    self.retries[si][ki]
                );
            }
            // Consecutive failures blacklist the executor — but never the
            // last usable one.
            let after = self.faults.blacklist_after();
            let ei = exec.index();
            self.faults.consec_failures[ei] += 1;
            if after > 0
                && self.faults.consec_failures[ei] >= after
                && !self.faults.blacklisted[ei]
                && self.faults.usable_count() > 1
            {
                self.faults.blacklisted[ei] = true;
                self.metrics.faults.execs_blacklisted += 1;
                if self.trace_on {
                    self.trace(TraceEvent::ExecBlacklisted { exec: exec.0 });
                }
                // Was alive and not blacklisted → this flips usability.
                self.cview.apply(ViewDelta::ExecDown { exec });
            }
        } else {
            self.metrics.faults.attempts_killed += 1;
        }
        // Re-offer only when no other attempt of this task is in flight —
        // a surviving attempt (primary or speculative) carries on alone.
        let has_other = self
            .running
            .range((task, 0)..=(task, u32::MAX))
            .next()
            .is_some();
        if !has_other {
            self.requeue_task(task, sched);
        }
    }

    /// Put a task whose last live attempt died back into the pending set
    /// and restore its work to the scheduler-side accounting.
    fn requeue_task(&mut self, task: TaskId, sched: &mut dyn Scheduler) {
        let srt = &mut self.stages[task.stage.index()];
        if !srt.pending.insert(task.index) {
            return; // already pending (both attempts died in one crash)
        }
        // One in-flight slot was accounted for this task (the primary's,
        // inherited by the speculative copy if the primary died first).
        srt.running = srt.running.saturating_sub(1);
        self.data
            .on_pending_inserted(task.stage.index(), task.index);
        sync_ready(
            &mut self.cview,
            &mut self.data,
            &self.stages,
            task.stage.index(),
        );
        self.spec_launched.remove(&task);
        let work = self.dag.stage(task.stage).task_work(task.index);
        self.tracker.on_task_requeued(task, work);
        sched.on_task_requeued(task, work, self.now);
        self.sync_priorities(sched);
    }

    fn exec_crash(&mut self, exec: ExecId, restart_at: Option<SimTime>, sched: &mut dyn Scheduler) {
        let i = exec.index();
        if !self.faults.alive[i] {
            // Already down; still honor a scheduled restart.
            if let Some(t) = restart_at {
                self.queue
                    .push(t.max(self.now + 1), Event::ExecRestart { exec });
            }
            return;
        }
        let was_usable = self.faults.usable_idx(i);
        self.faults.alive[i] = false;
        if was_usable {
            // A blacklisted executor was already zeroed in the view.
            self.cview.apply(ViewDelta::ExecDown { exec });
        }
        self.metrics.faults.exec_crashes += 1;
        if self.trace_on {
            self.trace(TraceEvent::ExecCrash { exec: exec.0 });
        }
        // 1. Every attempt running there dies. BTreeMap iteration gives a
        //    deterministic kill order; victims' queued finish/fail events
        //    are swallowed via `cancelled` (attempt ids never recur, so a
        //    stale entry can't shadow a relaunch).
        let victims: Vec<(TaskId, u32)> = self
            .running
            .iter()
            .filter(|(_, ra)| ra.exec == exec)
            .map(|(k, _)| *k)
            .collect();
        for (task, attempt) in victims {
            self.fail_attempt(task, exec, attempt, false, sched);
            self.cancelled.insert((task, attempt));
        }
        // 2. The executor's cache dies with it.
        let lost = self.bms[i].crash_clear();
        self.metrics.cache.lost += lost.len() as u64;
        for b in lost {
            self.data.remove_cached(b, exec);
            if self.trace_on {
                self.trace(TraceEvent::CacheEvict {
                    block: b,
                    exec: exec.0,
                    policy: self.bms[i].policy_name(),
                    refcount: self.profile.lrc_count(b),
                    reason: EvictReason::Fault,
                });
            }
        }
        self.prefetched[i].clear();
        self.prefetch_inflight[i] = None; // in-flight arrival goes stale
                                          // 3. Output/shuffle files this executor wrote to its node's disk
                                          //    are gone (no external shuffle service is modeled).
        let outs = std::mem::take(&mut self.outputs_by_exec[i]);
        let node = self.topo.node_of_exec(exec);
        self.metrics.faults.disk_blocks_lost += outs.len() as u64;
        for b in &outs {
            self.data.remove_disk(*b, node);
            self.disk_by_node[node.index()].retain(|x| x != b);
        }
        // 4. Whatever is now unrecoverable from storage but still needed
        //    is recomputed from lineage.
        self.recover_lost_blocks(sched);
        if let Some(t) = restart_at {
            self.queue
                .push(t.max(self.now + 1), Event::ExecRestart { exec });
        }
    }

    fn exec_restart(&mut self, exec: ExecId) {
        let i = exec.index();
        if self.faults.alive[i] {
            return;
        }
        self.faults.alive[i] = true;
        self.faults.blacklisted[i] = false;
        self.faults.consec_failures[i] = 0;
        self.cview.apply(ViewDelta::ExecUp { exec });
        self.metrics.faults.exec_restarts += 1;
        if self.trace_on {
            self.trace(TraceEvent::ExecRestart { exec: exec.0 });
        }
        // All attempts were torn down at crash time, so the replacement
        // registers with full capacity and an empty cache.
        debug_assert_eq!(self.cview.free_of(exec), self.cfg.exec_capacity);
        debug_assert_eq!(self.bms[i].num_resident(), 0);
    }

    fn block_loss(&mut self, block: BlockId, exec: ExecId, sched: &mut dyn Scheduler) {
        let i = exec.index();
        if !self.faults.alive[i] || !self.bms[i].invalidate(block) {
            return; // nothing resident to lose
        }
        self.metrics.cache.lost += 1;
        self.data.remove_cached(block, exec);
        self.prefetched[i].remove(&block);
        if self.trace_on {
            self.trace(TraceEvent::BlockLost {
                block,
                exec: exec.0,
            });
        }
        // Running readers already pinned-and-read it; their stale unpins
        // at teardown are no-ops. Future readers go through recovery.
        self.recover_lost_blocks(sched);
    }

    /// Lineage recomputation: any block that (a) some not-yet-launched
    /// task of an incomplete stage still reads, and (b) survives nowhere —
    /// no disk replica, no cached copy — must be regenerated by
    /// resubmitting exactly the task that produced it. Chasing the
    /// resubmitted producers' own inputs yields the minimal transitive
    /// task set, mirroring Spark's DAGScheduler resubmitting (partial)
    /// parent stages on FetchFailed.
    fn recover_lost_blocks(&mut self, sched: &mut dyn Scheduler) {
        let mut check: Vec<(usize, u32)> = Vec::new();
        for s in 0..self.stages.len() {
            if self.stages[s].completed {
                continue;
            }
            for k in self.stages[s].pending.iter() {
                check.push((s, k));
            }
        }
        // lint: allow(hash-ordered): membership-only dedup guard, never iterated
        let mut queued: HashSet<TaskId> = HashSet::new();
        let mut resubmitted = false;
        while let Some((s, k)) = check.pop() {
            let inputs: Vec<BlockId> = self.task_inputs[s][k as usize]
                .iter()
                .map(|&(b, _)| b)
                .collect();
            for b in inputs {
                if self.data.on_disk_anywhere(b) || self.data.is_cached_anywhere(b) {
                    continue;
                }
                let Some(ps) = self.producer_of_rdd[b.rdd.index()] else {
                    debug_assert!(false, "source block {b} lost; sources are never removed");
                    continue;
                };
                let pk = b.partition;
                let pt = TaskId::new(ps, pk);
                if !queued.insert(pt) {
                    continue;
                }
                if self.task_done[ps.index()][pk as usize] {
                    self.resubmit_task(ps, pk, sched);
                    resubmitted = true;
                    check.push((ps.index(), pk));
                } else if self.stages[ps.index()].pending.contains(pk) {
                    // Not yet (re)launched: it will regenerate the block
                    // when it runs, but its own inputs may be lost too.
                    check.push((ps.index(), pk));
                }
                // else: currently running — it already read its inputs and
                // materializes the block on finish.
            }
        }
        if resubmitted {
            self.sync_priorities(sched);
        }
    }

    /// Reopen one finished task (and, if needed, its completed stage) so
    /// the scheduler runs it again.
    fn resubmit_task(&mut self, ps: StageId, k: u32, sched: &mut dyn Scheduler) {
        let si = ps.index();
        debug_assert!(self.task_done[si][k as usize]);
        self.task_done[si][k as usize] = false;
        self.stages[si].finished -= 1;
        self.metrics.faults.tasks_recomputed += 1;
        if self.trace_on {
            self.trace(TraceEvent::TaskResubmitted {
                task: TaskId::new(ps, k),
            });
        }
        let was_completed = self.stages[si].completed;
        if was_completed {
            if let Some(jobs) = self.jobs.as_mut() {
                let job = jobs.job_of_stage(ps);
                jobs.on_stage_reopened(job);
            }
            self.stages[si].completed = false;
            self.completed_count -= 1;
            self.metrics.per_stage[si].completed_at = None;
            self.metrics.faults.stage_resubmissions += 1;
            if self.trace_on {
                self.trace(TraceEvent::StageResubmitted { stage: ps });
            }
            // Incomplete children must wait for this stage again.
            for &c in self.dag.children(ps) {
                let crt = &mut self.stages[c.index()];
                if !crt.completed {
                    crt.ready = false;
                }
                sync_ready(&mut self.cview, &mut self.data, &self.stages, c.index());
            }
            // The FIFO frontier (MRD's cursor) may move backwards.
            self.profile.frontier = self
                .dag
                .stage_ids()
                .find(|x| !self.stages[x.index()].completed)
                .map(|x| x.0)
                .unwrap_or(self.dag.num_stages() as u32);
        }
        let had_pending = !self.stages[si].pending.is_empty();
        let inserted = self.stages[si].pending.insert(k);
        debug_assert!(inserted);
        if inserted {
            self.data.on_pending_inserted(si, k);
        }
        // The task's input reads re-enter the master's reference profile
        // (they were removed when it finished). A block they revive goes
        // back into the prefetch pools.
        let inputs = Arc::clone(&self.task_inputs[si][k as usize]);
        for &(b, _) in inputs.iter() {
            if self.profile.add_use(b, ps) {
                self.metrics.faults.blocks_revived += 1;
                self.return_to_pools(b);
            }
        }
        let work = self.dag.stage(ps).task_work(k);
        self.tracker.on_task_requeued(TaskId::new(ps, k), work);
        sched.on_task_requeued(TaskId::new(ps, k), work, self.now);
        // Readiness under the *current* parent state — a parent may itself
        // be resubmitted later in this same recovery pass, which un-readies
        // this stage again.
        let ready = self
            .dag
            .parents(ps)
            .iter()
            .all(|p| self.stages[p.index()].completed);
        self.stages[si].ready = ready;
        sync_ready(&mut self.cview, &mut self.data, &self.stages, si);
        if ready && (was_completed || !had_pending) {
            // Re-entering the schedulable set: reset delay-scheduling
            // clocks.
            sched.on_stage_ready(ps, self.now);
        }
    }

    // ------------------------------------------------------------------
    // Tracing (Fig. 4)
    // ------------------------------------------------------------------

    fn trace_busy(&mut self, exec: ExecId) {
        if let Some(tr) = self.metrics.exec_traces.get_mut(exec.index()) {
            tr.busy.push(TimePoint {
                t: self.now,
                v: self.exec_busy_cores[exec.index()] as f64,
            });
        }
    }

    fn sample_exec_traces(&mut self) {
        let n = self.metrics.exec_traces.len();
        for e in 0..n {
            let exec = ExecId(e as u32);
            let mut count = 0u32;
            for (si, srt) in self.stages.iter().enumerate() {
                // Ready, not completed, pending work: schedulable, hence
                // folded into the inverted index, whose count is exact.
                if srt.ready && !srt.completed && !srt.pending.is_empty() {
                    count += self.data.pending_level_count(si, exec, Locality::Node);
                }
            }
            self.metrics.exec_traces[e]
                .pending_node_local
                .push(TimePoint {
                    t: self.now,
                    v: count as f64,
                });
        }
    }

    /// Current simulated time (for tests driving the sim manually).
    pub fn time(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockmanager::NoCache;
    use crate::scheduler::GreedyFifo;
    use dagon_dag::examples::{fig1, tiny_chain};
    use dagon_dag::MIN_MS;

    fn run_tiny(dag: JobDag, cfg: ClusterConfig) -> SimResult {
        let sim = Simulation::new(dag, cfg, || Box::new(NoCache));
        sim.run(&mut GreedyFifo)
    }

    /// Admit-everything policy so fault tests can exercise cached blocks
    /// without depending on the real policies in `dagon-cache`.
    struct AdmitAll(Vec<BlockId>);

    impl CachePolicy for AdmitAll {
        fn policy_name(&self) -> &'static str {
            "admit-all"
        }
        fn on_insert(&mut self, b: BlockId, _now: SimTime) {
            self.0.push(b);
        }
        fn on_evict(&mut self, b: BlockId) {
            self.0.retain(|x| *x != b);
        }
        fn victim(
            &mut self,
            c: &[BlockId],
            _i: Option<BlockId>,
            _p: &RefProfile,
        ) -> Option<BlockId> {
            self.0.iter().find(|b| c.contains(b)).copied()
        }
    }

    fn run_cached(dag: JobDag, cfg: ClusterConfig) -> SimResult {
        let sim = Simulation::new(dag, cfg, || Box::new(AdmitAll(Vec::new())));
        sim.run(&mut GreedyFifo)
    }

    #[test]
    fn single_stage_completes_with_expected_makespan() {
        // 4 tasks × 1 core × 1000 ms on one 2-core executor = 2 waves of 2
        // (plus input disk I/O for the 64 MB scan blocks).
        let dag = tiny_chain(4, 1000);
        let res = run_tiny(dag, ClusterConfig::tiny(1, 2));
        assert!(res.jct >= 2000, "jct {}", res.jct);
        assert!(res.jct < 8000, "jct {}", res.jct);
        // All runs recorded; all winners.
        assert!(res.metrics.task_runs.iter().all(|r| r.winner));
    }

    #[test]
    fn fig1_dag_completes_on_16core_executor() {
        // Fig. 2's setting: one 16-vCPU executor. FIFO order. Makespan should
        // be near 16 minutes (paper Fig. 2a) — I/O adds a little.
        let mut cfg = ClusterConfig::tiny(1, 16);
        cfg.exec_cache_mb = 0.0;
        let res = run_tiny(fig1(), cfg);
        assert!(res.jct >= 16 * MIN_MS, "jct {} < 16min", res.jct);
        assert!(res.jct < 17 * MIN_MS, "jct {} ≥ 17min", res.jct);
        // All four stages completed in dependency order.
        for s in 0..4u32 {
            assert!(res.metrics.per_stage[s as usize].completed_at.is_some());
        }
        let t1 = res.metrics.per_stage[0].completed_at.unwrap();
        let t4 = res.metrics.per_stage[3].completed_at.unwrap();
        assert!(t1 < t4);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let cfg = ClusterConfig::tiny(3, 4);
        let a = run_tiny(tiny_chain(12, 700), cfg.clone());
        let b = run_tiny(tiny_chain(12, 700), cfg);
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.metrics.task_runs.len(), b.metrics.task_runs.len());
        for (x, y) in a.metrics.task_runs.iter().zip(&b.metrics.task_runs) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.exec, y.exec);
        }
    }

    #[test]
    fn busy_core_area_is_bounded_by_capacity() {
        let cfg = ClusterConfig::tiny(2, 4);
        let res = run_tiny(tiny_chain(8, 1000), cfg);
        let util = res.cpu_utilization();
        assert!(util > 0.0 && util <= 1.0, "util {util}");
    }

    #[test]
    #[should_panic(expected = "exceeds executor capacity")]
    fn impossible_demand_panics() {
        let mut b = dagon_dag::DagBuilder::new("big");
        let _ = b.stage("s").tasks(1).demand_cpus(64).cpu_ms(100).build();
        let dag = b.build().unwrap();
        let _ = run_tiny(dag, ClusterConfig::tiny(1, 4));
    }

    #[test]
    fn stage_metrics_record_localities() {
        let cfg = ClusterConfig::tiny(2, 8);
        let res = run_tiny(tiny_chain(6, 500), cfg);
        let total: u32 = res.metrics.per_stage[0].launches_by_locality.iter().sum();
        assert_eq!(total, 6);
    }

    // --------------------------------------------------------------
    // Fault injection & recovery
    // --------------------------------------------------------------

    use crate::fault::{FaultKind, FaultPlan};

    fn total_tasks(dag: &JobDag) -> u64 {
        dag.stages().iter().map(|s| s.num_tasks as u64).sum()
    }

    /// The structural invariants every faulty run must satisfy.
    fn assert_recovered(dag: &JobDag, res: &SimResult) {
        let m = &res.metrics;
        for (i, s) in m.per_stage.iter().enumerate() {
            assert!(s.completed_at.is_some(), "stage {i} incomplete");
        }
        // Each task completes effectively once: one winning attempt per
        // (original run + lineage recomputation).
        let winners = m.task_runs.iter().filter(|r| r.winner).count() as u64;
        assert_eq!(winners, total_tasks(dag) + m.faults.tasks_recomputed);
        assert!(m.task_runs.iter().all(|r| !(r.winner && r.failed)));
        // Cache ledger balances: every insertion is either evicted,
        // proactively dropped, destroyed by a fault, or still resident.
        assert_eq!(
            m.cache.insertions,
            m.cache.evictions + m.cache.proactive_evictions + m.cache.lost + m.cache.resident_end,
            "cache ledger imbalance"
        );
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_none() {
        let base = run_tiny(tiny_chain(8, 500), ClusterConfig::tiny(2, 4));
        let mut cfg = ClusterConfig::tiny(2, 4);
        cfg.faults = Some(FaultPlan::none());
        let armed = run_tiny(tiny_chain(8, 500), cfg);
        assert_eq!(base.jct, armed.jct);
        assert_eq!(base.fingerprint(), armed.fingerprint());
    }

    #[test]
    fn crash_mid_stage_requeues_and_recomputes_lost_outputs() {
        // One 2-core executor; scan (8×~1s) runs in 4 waves. Crash at 3 s
        // kills the running wave, wipes the cache and every scan output
        // written so far; the cold restart at 5 s must rerun them.
        let base = run_tiny(tiny_chain(8, 500), ClusterConfig::tiny(1, 2));
        let dag = tiny_chain(8, 500);
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(FaultPlan::none().and(
            3000,
            FaultKind::ExecCrash {
                exec: ExecId(0),
                restart_after_ms: Some(2000),
            },
        ));
        let res = run_tiny(dag.clone(), cfg);
        let f = &res.metrics.faults;
        assert_eq!(f.exec_crashes, 1);
        assert_eq!(f.exec_restarts, 1);
        assert!(f.attempts_killed > 0, "no attempt was running at 3s");
        assert!(f.tasks_recomputed > 0, "no finished output was lost");
        assert!(res.jct >= base.jct + 2000, "{} vs {}", res.jct, base.jct);
        assert_recovered(&dag, &res);
    }

    #[test]
    fn crash_after_stage_completion_reopens_it_via_lineage() {
        // Crash after the scan stage completed (~4.2 s) while the 5-task
        // agg stage still has pending waves: the lost cached+disk scan
        // outputs force a stage resubmission.
        let dag = tiny_chain(8, 500);
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(FaultPlan::none().and(
            4500,
            FaultKind::ExecCrash {
                exec: ExecId(0),
                restart_after_ms: Some(2000),
            },
        ));
        let res = run_tiny(dag.clone(), cfg);
        let f = &res.metrics.faults;
        assert_eq!(f.exec_crashes, 1);
        assert!(
            f.stage_resubmissions >= 1,
            "completed scan stage was not reopened: {f:?}"
        );
        assert!(f.tasks_recomputed > 0);
        assert_recovered(&dag, &res);
    }

    #[test]
    fn injected_task_failures_are_retried_to_completion() {
        let dag = tiny_chain(8, 500);
        let mut cfg = ClusterConfig::tiny(2, 4);
        cfg.faults = Some(FaultPlan::with_task_failures(0.3, 9));
        let res = run_tiny(dag.clone(), cfg);
        assert!(res.metrics.faults.task_failures > 0);
        assert!(res.metrics.task_runs.iter().any(|r| r.failed && !r.winner));
        assert_recovered(&dag, &res);
    }

    #[test]
    #[should_panic(expected = "job aborted")]
    fn certain_failure_exhausts_retries_and_aborts() {
        let mut plan = FaultPlan::with_task_failures(1.0, 1);
        plan.max_task_retries = 2;
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(plan);
        let _ = run_tiny(tiny_chain(2, 300), cfg);
    }

    #[test]
    fn consecutive_failures_blacklist_executors_but_never_the_last() {
        let mut plan = FaultPlan::with_task_failures(0.5, 3);
        plan.blacklist_after = 1;
        plan.max_task_retries = 50;
        let mut cfg = ClusterConfig::tiny(3, 2);
        cfg.faults = Some(plan);
        let dag = tiny_chain(10, 400);
        let res = run_tiny(dag.clone(), cfg);
        let blacklisted = res.metrics.faults.execs_blacklisted;
        assert!(blacklisted >= 1, "p=0.5 produced no blacklisting");
        assert!(blacklisted <= 2, "last usable executor was blacklisted");
        assert_recovered(&dag, &res);
    }

    #[test]
    fn cached_block_loss_is_reread_from_disk() {
        // Lose a cached scan output on the only executor while the agg
        // stage still needs it: the disk replica survives, so this is a
        // cache miss, not a recomputation. Partition 4 is read by agg
        // task 4, which runs in the last wave — still cached at 4.8s.
        let dag = tiny_chain(8, 500);
        let block = BlockId::new(dag.stage(StageId(0)).output, 4);
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.faults = Some(FaultPlan::none().and(
            4800,
            FaultKind::BlockLoss {
                block,
                exec: ExecId(0),
            },
        ));
        let res = run_cached(dag.clone(), cfg);
        assert_eq!(res.metrics.cache.lost, 1, "block was not resident at 4.8s");
        assert!(res.metrics.cache.insertions > 0);
        assert_eq!(res.metrics.faults.tasks_recomputed, 0);
        assert_recovered(&dag, &res);
    }

    #[test]
    fn sorted_insert_median_matches_clone_and_sort() {
        // A duration history with runs of ties, in arrival order: after
        // every insert the kept vector is the sorted history, so its
        // middle entry is the clone-and-sort median.
        let mut durs = Vec::new();
        let mut history = Vec::new();
        let mut x = 7u64;
        for _ in 0..200 {
            x = (x * 37 + 11) % 101;
            let d = 500 + (x % 9) * 100; // 9 distinct values: many ties
            insert_sorted(&mut durs, d);
            history.push(d);
            let mut sorted = history.clone();
            sorted.sort_unstable();
            assert_eq!(durs, sorted);
            assert_eq!(durs[durs.len() / 2], sorted[sorted.len() / 2]);
        }
    }

    /// `tiny_chain(8, 500)` with a cache-eligible HDFS input, so its
    /// blocks sit in the prefetch pool from the start and die when the
    /// scan stage finishes.
    fn cached_input_chain() -> (JobDag, dagon_dag::RddId) {
        let mut b = dagon_dag::DagBuilder::new("cached_input_chain");
        let input = b.hdfs_rdd_cached("in", 8, 64.0, true);
        let (_, r) = b
            .stage("scan")
            .tasks(8)
            .cpu_ms(500)
            .reads_narrow(input)
            .cache_output()
            .build();
        let _ = b.stage("agg").tasks(5).cpu_ms(250).reads_wide(r).build();
        (b.build().unwrap(), input)
    }

    #[test]
    fn prefetch_pool_drops_dead_blocks_and_takes_revived_ones_back() {
        let (dag, input) = cached_input_chain();
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.prefetch_free_frac = Some(0.0);
        let mut sim = Simulation::new(dag, cfg, || Box::new(AdmitAll(Vec::new())));
        let b = BlockId::new(input, 3);
        assert!(sim.disk_by_node[0].contains(&b));
        // Its only reader finishes: the next node filter drops it.
        sim.profile.remove_use(b, StageId(0));
        sim.prefetch_scan();
        assert!(!sim.disk_by_node[0].contains(&b));
        assert!(sim.check_prefetch_pool());
        // A lineage resubmission revives it. Until it is returned, the
        // pool misses a live block and the oracle says so.
        assert!(sim.profile.add_use(b, StageId(0)));
        assert!(!sim.check_prefetch_pool());
        // It is appended once, however often it is returned.
        sim.return_to_pools(b);
        sim.return_to_pools(b);
        assert_eq!(sim.disk_by_node[0].iter().filter(|&&x| x == b).count(), 1);
        assert_eq!(sim.disk_by_node[0].last(), Some(&b));
        assert!(sim.check_prefetch_pool());
    }

    #[test]
    fn lineage_revival_of_a_dead_cached_input_completes() {
        // The scan stage finishes at ~4.2 s and its cached HDFS input
        // blocks die; the prefetch scan drops them from the pool. The
        // crash at 4.5 s destroys the scan outputs, and resubmitting the
        // scan tasks revives their inputs, which re-enter the pool. Debug
        // builds check the pool against its oracle on every pass.
        let (dag, _) = cached_input_chain();
        let mut cfg = ClusterConfig::tiny(1, 2);
        cfg.prefetch_free_frac = Some(0.0);
        cfg.faults = Some(FaultPlan::none().and(
            4500,
            FaultKind::ExecCrash {
                exec: ExecId(0),
                restart_after_ms: Some(2000),
            },
        ));
        let res = run_cached(dag.clone(), cfg);
        let f = &res.metrics.faults;
        assert!(
            f.stage_resubmissions >= 1,
            "scan stage was not reopened: {f:?}"
        );
        assert!(f.blocks_revived > 0, "no dead input was revived: {f:?}");
        assert!(res.metrics.cache.prefetch_node_filters > 0);
        assert_recovered(&dag, &res);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let plan = FaultPlan::chaos(5, 2, 8000, &tiny_chain(8, 500));
        let mut cfg = ClusterConfig::tiny(2, 4);
        cfg.faults = Some(plan);
        let a = run_tiny(tiny_chain(8, 500), cfg.clone());
        let b = run_tiny(tiny_chain(8, 500), cfg);
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.metrics.faults, b.metrics.faults);
    }
}
