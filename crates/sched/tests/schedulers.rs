//! Behavioural tests for the scheduling policies, driven through the real
//! simulator on small clusters.

use dagon_cluster::{ClusterConfig, LocalityWait, NoCache, Simulation};
use dagon_dag::examples::{fig1, tiny_chain};
use dagon_dag::{DagBuilder, StageEstimates, StageId, MIN_MS};
use dagon_sched::{
    CriticalPathScheduler, DagonScheduler, FairScheduler, FifoScheduler, GrapheneScheduler,
};

fn run(
    dag: dagon_dag::JobDag,
    cfg: ClusterConfig,
    sched: &mut dyn dagon_cluster::Scheduler,
) -> dagon_cluster::SimResult {
    Simulation::new(dag, cfg, || Box::new(NoCache)).run(sched)
}

/// A DAG with a short chain declared first and a long chain second, joined
/// at a final stage — the Fig. 2 bait at simulator scale.
fn bait_dag() -> dagon_dag::JobDag {
    let mut b = DagBuilder::new("bait");
    // Short chain: one saturating stage (8 × 2 = 16 cpus).
    let (_, short) = b
        .stage("short")
        .tasks(8)
        .demand_cpus(2)
        .cpu_ms(4_000)
        .build();
    // Long chain: four stages that *under-fill* the 16-cpu cluster
    // (6 × 2 = 12 cpus), leaving spare capacity only a DAG-aware order can
    // fill with the short chain's tasks — the Fig. 2 condition.
    let (_, a) = b
        .stage("long_a")
        .tasks(6)
        .demand_cpus(2)
        .cpu_ms(4_000)
        .build();
    let (_, bb) = b
        .stage("long_b")
        .tasks(6)
        .demand_cpus(2)
        .cpu_ms(4_000)
        .reads_wide(a)
        .build();
    let (_, cc) = b
        .stage("long_c")
        .tasks(6)
        .demand_cpus(2)
        .cpu_ms(4_000)
        .reads_wide(bb)
        .build();
    let (_, dd) = b
        .stage("long_d")
        .tasks(6)
        .demand_cpus(2)
        .cpu_ms(4_000)
        .reads_wide(cc)
        .build();
    let _ = b
        .stage("join")
        .tasks(2)
        .demand_cpus(1)
        .cpu_ms(500)
        .reads_wide(short)
        .reads_wide(dd)
        .build();
    b.build().unwrap()
}

fn small_cluster() -> ClusterConfig {
    // 2 nodes × 1 exec × 8 cores: the two chains cannot run fully in
    // parallel (32 cpus demanded at t0 vs 16 available).
    let mut c = ClusterConfig::tiny(2, 8);
    c.locality_wait = LocalityWait::disabled();
    c
}

#[test]
fn dagon_prioritizes_the_long_chain_over_fifo_order() {
    let dag = bait_dag();
    let est = StageEstimates::exact(&dag);
    let fifo = run(
        dag.clone(),
        small_cluster(),
        &mut FifoScheduler::spark_default(),
    );
    let dagon = run(
        dag.clone(),
        small_cluster(),
        &mut DagonScheduler::new(&dag, &est),
    );
    // FIFO burns capacity on the short chain first, then serializes the
    // long chain; Dagon overlaps the short chain into the long chain's
    // spare capacity.
    assert!(
        dagon.jct < fifo.jct,
        "dagon {} vs fifo {}",
        dagon.jct,
        fifo.jct
    );
}

#[test]
fn critical_path_also_beats_fifo_on_the_bait() {
    let dag = bait_dag();
    let fifo = run(
        dag.clone(),
        small_cluster(),
        &mut FifoScheduler::spark_default(),
    );
    let cp = run(
        dag.clone(),
        small_cluster(),
        &mut CriticalPathScheduler::new(&dag),
    );
    assert!(cp.jct <= fifo.jct, "cp {} vs fifo {}", cp.jct, fifo.jct);
}

#[test]
fn graphene_matches_or_beats_fifo_on_fig1() {
    let dag = fig1();
    let est = StageEstimates::exact(&dag);
    let mut cfg = ClusterConfig::tiny(1, 16);
    cfg.locality_wait = LocalityWait::disabled();
    let fifo = run(
        dag.clone(),
        cfg.clone(),
        &mut FifoScheduler::spark_default(),
    );
    let graphene = run(dag.clone(), cfg, &mut GrapheneScheduler::new(&dag, &est));
    assert!(
        graphene.jct <= fifo.jct,
        "graphene {} vs fifo {}",
        graphene.jct,
        fifo.jct
    );
}

#[test]
fn dagon_reproduces_fig2b_overlap_on_fig1() {
    // On one 16-vCPU executor the Dagon scheduler must overlap stage 1 and
    // stage 2 at t=0 (Fig. 2b), which FIFO cannot.
    let dag = fig1();
    let est = StageEstimates::exact(&dag);
    let mut cfg = ClusterConfig::tiny(1, 16);
    cfg.locality_wait = LocalityWait::disabled();
    let res = run(dag.clone(), cfg, &mut DagonScheduler::new(&dag, &est));
    let first_s2 = res
        .metrics
        .task_runs
        .iter()
        .filter(|r| r.task.stage == StageId(1))
        .map(|r| r.start)
        .min()
        .unwrap();
    let first_s1 = res
        .metrics
        .task_runs
        .iter()
        .filter(|r| r.task.stage == StageId(0))
        .map(|r| r.start)
        .min()
        .unwrap();
    assert_eq!(first_s2, 0, "stage 2 must start immediately");
    assert_eq!(first_s1, 0, "stage 1 must co-start with stage 2");
    // Makespan within I/O slack of the abstract 12 minutes.
    assert!(res.jct < 13 * MIN_MS, "jct {}", res.jct);
}

#[test]
fn fair_spreads_across_ready_stages() {
    // Two independent stages: Fair should interleave them rather than
    // finish one before starting the other.
    let mut b = DagBuilder::new("two");
    let _ = b.stage("x").tasks(8).demand_cpus(1).cpu_ms(2_000).build();
    let _ = b.stage("y").tasks(8).demand_cpus(1).cpu_ms(2_000).build();
    let dag = b.build().unwrap();
    let cfg = ClusterConfig::tiny(1, 4);
    let res = run(dag, cfg, &mut FairScheduler::spark_fair());
    // In the first wave (4 slots), both stages must have launches.
    let first_wave: Vec<_> = res
        .metrics
        .task_runs
        .iter()
        .filter(|r| r.start == 0)
        .collect();
    assert_eq!(first_wave.len(), 4);
    let x = first_wave
        .iter()
        .filter(|r| r.task.stage == StageId(0))
        .count();
    let y = first_wave
        .iter()
        .filter(|r| r.task.stage == StageId(1))
        .count();
    assert_eq!(x, 2, "{x} vs {y}");
    assert_eq!(y, 2);
}

#[test]
fn all_schedulers_complete_a_chain_identically() {
    // On a plain chain there is nothing to reorder: every scheduler must
    // produce the same makespan (same placement policy, no cache).
    let dag = tiny_chain(8, 1_000);
    let est = StageEstimates::exact(&dag);
    let cfg = small_cluster();
    let base = run(
        dag.clone(),
        cfg.clone(),
        &mut FifoScheduler::spark_default(),
    )
    .jct;
    for mut s in [
        Box::new(FairScheduler::spark_fair()) as Box<dyn dagon_cluster::Scheduler>,
        Box::new(CriticalPathScheduler::new(&dag)),
        Box::new(GrapheneScheduler::new(&dag, &est)),
        Box::new(DagonScheduler::with_native_delay(&dag, &est)),
    ] {
        let jct = run(dag.clone(), cfg.clone(), s.as_mut()).jct;
        assert_eq!(jct, base, "{} diverged on a chain", s.name());
    }
}

/// A hand-built [`SimView`](dagon_cluster::SimView) for driving a
/// [`Placement`](dagon_sched::Placement) directly: 2 racks × 2 nodes × 1
/// executor (4 cpus each). Stage 0 has one one-cpu task reading an HDFS
/// block on node 0's disk (NODE-local on exec 0, RACK on exec 1, ANY on
/// execs 2-3); stage 1 has 4 one-cpu tasks with no locality preference.
struct PlacementFixture {
    dag: dagon_dag::JobDag,
    topo: dagon_cluster::Topology,
    cost: dagon_cluster::CostModel,
    index: dagon_cluster::LocalityIndex,
    execs: Vec<dagon_cluster::ExecView>,
    stages: Vec<dagon_cluster::StageRuntime>,
    tasks: Vec<Vec<dagon_cluster::TaskView>>,
    metrics: dagon_cluster::Metrics,
    narrow_mb: Vec<f64>,
    ready: Vec<u32>,
    free_execs: Vec<u32>,
}

impl PlacementFixture {
    fn new() -> Self {
        use dagon_cluster::hdfs::DataMap;
        use dagon_cluster::{ExecId, ExecView, NodeId, PendingSet, StageRuntime, TaskView};
        use dagon_dag::{BlockId, Resources};
        let mut b = DagBuilder::new("placement");
        let src = b.hdfs_rdd("in", 1, 64.0);
        let _ = b
            .stage("local")
            .tasks(1)
            .demand_cpus(1)
            .cpu_ms(1000)
            .reads_narrow(src)
            .build();
        let _ = b
            .stage("anywhere")
            .tasks(4)
            .demand_cpus(1)
            .cpu_ms(1000)
            .build();
        let dag = b.build().unwrap();
        let topo = dagon_cluster::Topology::build(&[2, 2], 1);
        let mut data = DataMap::default();
        data.add_disk(BlockId::new(src, 0), NodeId(0));
        let tasks = vec![
            vec![TaskView {
                loc_blocks: vec![BlockId::new(src, 0)],
            }],
            (0..4).map(|_| TaskView { loc_blocks: vec![] }).collect(),
        ];
        let mut index = dagon_cluster::LocalityIndex::new(&dag, &topo, data, &tasks);
        let stages: Vec<StageRuntime> = dag
            .stages()
            .iter()
            .map(|st| StageRuntime {
                id: st.id,
                ready: true,
                completed: false,
                pending: PendingSet::full(st.num_tasks),
                running: 0,
                finished: 0,
            })
            .collect();
        // Both stages are ready, so the simulator would have folded them
        // into the inverted index.
        for (s, st) in stages.iter().enumerate() {
            index.activate_stage(s, &st.pending);
        }
        Self {
            metrics: dagon_cluster::Metrics::new(dag.num_stages(), 4, false),
            narrow_mb: dagon_cluster::view::narrow_input_table(&dag),
            cost: dagon_cluster::CostModel::default(),
            execs: (0..4)
                .map(|i| ExecView {
                    id: ExecId(i),
                    free: Resources::new(4, 8192),
                    capacity: Resources::new(4, 8192),
                })
                .collect(),
            dag,
            topo,
            index,
            stages,
            tasks,
            ready: vec![0, 1],
            free_execs: vec![0, 1, 2, 3],
        }
    }

    /// Leave only `free` with spare resources; every other executor is full.
    fn only_free(&mut self, free: &[u32]) {
        for e in &mut self.execs {
            e.free = if free.contains(&e.id.0) {
                e.capacity
            } else {
                dagon_dag::Resources::new(0, 0)
            };
        }
        self.free_execs = free.to_vec();
    }

    fn view(&self, now: dagon_dag::SimTime) -> dagon_cluster::SimView<'_> {
        dagon_cluster::SimView {
            now,
            dag: &self.dag,
            topo: &self.topo,
            cost: &self.cost,
            locality_wait: LocalityWait::spark_default(),
            execs: &self.execs,
            stages: &self.stages,
            tasks: &self.tasks,
            index: &self.index,
            metrics: &self.metrics,
            narrow_mb: &self.narrow_mb,
            exec_gen: 0,
            usable_execs: 4,
            exec_capacity: dagon_dag::Resources::new(4, 8192),
            ready: &self.ready,
            free_execs: &self.free_execs,
            tenant_cores: &[],
            tenant_of_stage: &[],
        }
    }
}

/// Each successful `NativeDelay` pick advances the resource-offer cursor
/// exactly once: repeated picks of a preference-free stage walk the
/// executors round-robin (the first offer goes to exec 1), and nothing a
/// pick did is ever rolled back.
#[test]
fn native_delay_successful_pick_advances_the_offer_cursor_once() {
    use dagon_cluster::{ExecId, Locality, ScheduleShadow};
    use dagon_sched::{NativeDelay, Placement};
    let f = PlacementFixture::new();
    let mut p = NativeDelay::new();
    let execs: Vec<ExecId> = (0..5)
        .map(|_| {
            let (_, e, level) = p.pick(StageId(1), &f.view(0), &ScheduleShadow).unwrap();
            assert_eq!(level, Locality::Any);
            assert_eq!(p.journal_len(), 0);
            p.reconcile_journal(0);
            e
        })
        .collect();
    assert_eq!(execs, [1, 2, 3, 0, 1].map(ExecId));
}

/// A failed `NativeDelay` pick round is not undone: the offer cursor it
/// advanced stays advanced for the next call, and the wait clock it
/// started keeps running.
#[test]
fn native_delay_failed_round_keeps_its_clock_and_offer_rotation() {
    use dagon_cluster::{ExecId, Locality, ScheduleShadow};
    use dagon_sched::{NativeDelay, Placement};
    let mut f = PlacementFixture::new();
    let mut p = NativeDelay::new();
    // Only exec 2 free: stage 0's task is ANY there, so at t=0 (allowed
    // NODE) the stage waits.
    f.only_free(&[2]);
    assert_eq!(p.pick(StageId(0), &f.view(0), &ScheduleShadow), None);
    // The failed round moved the cursor from 0 to 1, so this offer starts
    // at exec 2; had it been rolled back, exec 1 would take the task.
    f.only_free(&[0, 1, 2, 3]);
    let (_, e, _) = p.pick(StageId(1), &f.view(0), &ScheduleShadow).unwrap();
    assert_eq!(e, ExecId(2));
    // Two 3 s waits later, the clock the failed round started has degraded
    // NODE → RACK → ANY. A clock started now would still insist on NODE.
    f.only_free(&[2]);
    assert_eq!(
        p.pick(StageId(0), &f.view(6000), &ScheduleShadow),
        Some((0, ExecId(2), Locality::Any))
    );
}
