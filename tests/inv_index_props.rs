//! Differential properties for PR 7's inverted pending-work index on
//! [`LocalityIndex`]: per-(stage, locality-level, executor) counts of
//! pending tasks, maintained incrementally from residency deltas and
//! pending-set pops/inserts.
//!
//! Two layers of coverage, mirroring `ready_props`:
//!
//! * **Index-level**: generated histories interleaving cache
//!   inserts/evicts, disk-replica loss (crash-style), pending pops and
//!   re-inserts (requeue-style), checked after every step against a
//!   brute-force per-(stage, level) membership oracle recomputed from the
//!   raw residency bitsets — plus the gate implication the placement fast
//!   path relies on: a zero count at (exec, level) must mean the
//!   first-match probe [`LocalityIndex::scan_first`] finds nothing there.
//! * **Sim-level**: random workloads and chaos fault plans run end-to-end
//!   in the dev profile, where `check_inv_consistency` re-derives every
//!   count from scratch at each scheduling opportunity; on top the
//!   properties pin determinism and the build-once guarantee
//!   (`inv_index_rebuilds == 1`) the CI bench guard asserts at scale.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cluster::hdfs::DataMap;
use dagon_cluster::{
    ClusterConfig, ExecId, FaultPlan, Locality, LocalityIndex, NodeId, PendingSet, TaskView,
    Topology,
};
use dagon_core::{run_system, System};
use dagon_dag::{BlockId, DagBuilder, RddId};
use dagon_workloads::{Scale, Workload};
use proptest::prelude::*;

const N_TASKS: u32 = 8;

/// Abstract step of a generated history: residency flips (the four
/// [`LocalityIndex`] mutators) interleaved with pending-set churn the way
/// the simulator drives them (launch pops, requeue/resubmit re-inserts).
#[derive(Clone, Debug)]
enum Step {
    /// Cache block `b % N_TASKS` on executor `i % n_execs`.
    Cache { b: u32, i: usize },
    /// Evict block `b % N_TASKS` from executor `i % n_execs`.
    Evict { b: u32, i: usize },
    /// Add a disk replica of block `b` on node `i % n_nodes`.
    DiskAdd { b: u32, i: usize },
    /// Drop the disk replica on node `i % n_nodes` (crash-style loss).
    DiskLose { b: u32, i: usize },
    /// Pop task `k % N_TASKS` from the pending set (launch).
    Pop { k: u32 },
    /// Re-insert task `k % N_TASKS` (requeue after a failure).
    Reinsert { k: u32 },
}

/// Weighted step kinds (no `prop_oneof` in the vendored shim, so the
/// weights are an integer draw): cache 3 / evict 2 / disk-add 1 /
/// disk-lose 1 / pop 3 / reinsert 2.
fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..12, 0u32..N_TASKS, 0usize..16).prop_map(|(kind, b, i)| match kind {
        0..=2 => Step::Cache { b, i },
        3..=4 => Step::Evict { b, i },
        5 => Step::DiskAdd { b, i },
        6 => Step::DiskLose { b, i },
        7..=9 => Step::Pop { k: b },
        _ => Step::Reinsert { k: b },
    })
}

/// One-stage fixture on a 2-rack topology: task `k` reads block `k` of
/// the source RDD, replication 1 so crash-style disk loss can push tasks
/// all the way to `Any`.
fn build() -> (Topology, LocalityIndex, PendingSet) {
    let mut b = DagBuilder::new("t");
    let src = b.hdfs_rdd("in", N_TASKS, 64.0);
    let _ = b
        .stage("s")
        .tasks(N_TASKS)
        .demand_cpus(1)
        .cpu_ms(100)
        .reads_narrow(src)
        .build();
    let dag = b.build().unwrap();
    let topo = Topology::build(&[2, 2], 2);
    let data = DataMap::place_sources(&dag, &topo, 1, 7);
    let tv: Vec<Vec<TaskView>> = vec![(0..N_TASKS)
        .map(|k| TaskView {
            loc_blocks: vec![BlockId::new(RddId(0), k)],
        })
        .collect()];
    // `new` already seeds the inverted index with every task pending —
    // the simulator starts each stage with a full pending set.
    let idx = LocalityIndex::new(&dag, &topo, data, &tv);
    (topo, idx, PendingSet::full(N_TASKS))
}

/// Brute-force level of task `k` on executor `e` from the raw residency
/// sets: max over the task's blocks of the per-block ladder walk. The
/// same definition `check_inv_consistency` uses, recomputed here
/// independently so the test does not trust the index's own oracle.
fn brute_level(idx: &LocalityIndex, topo: &Topology, k: u32, e: ExecId) -> Locality {
    let b = BlockId::new(RddId(0), k);
    let data = idx.data();
    if data.is_cached_in(b, e) {
        return Locality::Process;
    }
    let node = topo.node_of_exec(e);
    if data.disk_nodes(b).contains(&node)
        || data
            .cached_execs(b)
            .iter()
            .any(|x| topo.node_of_exec(*x) == node)
    {
        return Locality::Node;
    }
    let rack = topo.rack_of_node(node);
    if data
        .disk_nodes(b)
        .iter()
        .any(|n| topo.rack_of_node(*n) == rack)
        || data
            .cached_execs(b)
            .iter()
            .any(|x| topo.rack_of_exec(*x) == rack)
    {
        return Locality::Rack;
    }
    Locality::Any
}

/// Drive one abstract step, keeping the history valid (evicts only of
/// cached blocks, disk-loss only of present replicas, pops only of
/// pending tasks — the same preconditions the simulator guarantees).
fn drive(step: &Step, topo: &Topology, idx: &mut LocalityIndex, pending: &mut PendingSet) {
    let ne = topo.num_execs();
    let nn = topo.num_nodes();
    match *step {
        Step::Cache { b, i } => {
            let (b, e) = (BlockId::new(RddId(0), b % N_TASKS), ExecId((i % ne) as u32));
            if !idx.is_cached_in(b, e) {
                idx.add_cached(b, e);
            }
        }
        Step::Evict { b, i } => {
            let (b, e) = (BlockId::new(RddId(0), b % N_TASKS), ExecId((i % ne) as u32));
            if idx.is_cached_in(b, e) {
                idx.remove_cached(b, e);
            }
        }
        Step::DiskAdd { b, i } => {
            let (b, n) = (BlockId::new(RddId(0), b % N_TASKS), NodeId((i % nn) as u32));
            if !idx.data().disk_nodes(b).contains(&n) {
                idx.add_disk(b, n);
            }
        }
        Step::DiskLose { b, i } => {
            let (b, n) = (BlockId::new(RddId(0), b % N_TASKS), NodeId((i % nn) as u32));
            if idx.data().disk_nodes(b).contains(&n) {
                idx.remove_disk(b, n);
            }
        }
        Step::Pop { k } => {
            let k = k % N_TASKS;
            if pending.remove(k) {
                idx.on_pending_removed(0, k);
            }
        }
        Step::Reinsert { k } => {
            let k = k % N_TASKS;
            if pending.insert(k) {
                idx.on_pending_inserted(0, k);
            }
        }
    }
}

proptest! {
    /// After every step of any valid interleaved history, every
    /// per-(executor, level) count equals the brute-force membership scan
    /// over the pending set, in both the plain and strict variants — and
    /// the index's own from-scratch consistency oracle agrees.
    #[test]
    fn inv_counts_match_brute_force_oracle(
        steps in proptest::collection::vec(step_strategy(), 0..120),
    ) {
        let (topo, mut idx, mut pending) = build();
        for step in &steps {
            drive(step, &topo, &mut idx, &mut pending);
            prop_assert!(idx.check_inv_consistency(0, &pending));
            for e in 0..topo.num_execs() as u32 {
                let e = ExecId(e);
                for level in Locality::ALL {
                    let (mut cnt, mut scnt) = (0u32, 0u32);
                    for k in pending.iter() {
                        let l = brute_level(&idx, &topo, k, e);
                        if l == level {
                            cnt += 1;
                            let best = (0..topo.num_execs() as u32)
                                .map(|x| brute_level(&idx, &topo, k, ExecId(x)))
                                .min()
                                .unwrap();
                            if best == level {
                                scnt += 1;
                            }
                        }
                    }
                    prop_assert_eq!(
                        idx.pending_level_count(0, e, level), cnt,
                        "count drift at exec {:?} level {:?}", e, level
                    );
                    prop_assert_eq!(
                        idx.pending_strict_count(0, e, level), scnt,
                        "strict count drift at exec {:?} level {:?}", e, level
                    );
                }
            }
        }
    }

    /// The probe itself, differentially: after every step, for every
    /// (executor, level, strict) combination, [`LocalityIndex::scan_first`]
    /// returns exactly the brute-force first pending task at that level —
    /// and the count gates agree with it (zero ⟺ empty probe). Probing
    /// *inside* the history is the point: the persistent scan memos get
    /// populated, then patched by residency flips, filtered across pops,
    /// and reset by re-inserts, and must stay bit-equal to a fresh scan
    /// throughout.
    #[test]
    fn scan_first_matches_fresh_scan_through_history(
        steps in proptest::collection::vec(step_strategy(), 0..80),
    ) {
        let (topo, mut idx, mut pending) = build();
        for step in &steps {
            drive(step, &topo, &mut idx, &mut pending);
            for e in 0..topo.num_execs() as u32 {
                let e = ExecId(e);
                for level in Locality::ALL {
                    for strict in [false, true] {
                        let fresh = pending.iter().find(|&k| {
                            brute_level(&idx, &topo, k, e) == level
                                && (!strict
                                    || (0..topo.num_execs() as u32)
                                        .map(|x| brute_level(&idx, &topo, k, ExecId(x)))
                                        .min()
                                        .unwrap()
                                        == level)
                        });
                        let probe = idx.scan_first(0, e, level, strict, &pending);
                        prop_assert_eq!(
                            probe, fresh,
                            "probe diverged at exec {:?} level {:?} strict {}",
                            e, level, strict
                        );
                        let cnt = if strict {
                            idx.pending_strict_count(0, e, level)
                        } else {
                            idx.pending_level_count(0, e, level)
                        };
                        prop_assert_eq!(
                            cnt > 0,
                            probe.is_some(),
                            "gate {} vs probe {:?} at exec {:?} level {:?} strict {}",
                            cnt, probe, e, level, strict
                        );
                    }
                }
            }
        }
    }
}

// --- sim-level: random workloads + fault plans -------------------------

const WORKLOADS: &[Workload] = &[
    Workload::LinearRegression,
    Workload::KMeans,
    Workload::TriangleCount,
    Workload::ConnectedComponent,
    Workload::PregelOperation,
    Workload::PageRank,
];

fn small_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::paper_testbed();
    c.racks = vec![2, 1];
    c.execs_per_node = 2;
    c.exec_cache_mb = 256.0;
    c
}

/// One end-to-end run in the dev profile: the simulator debug-asserts
/// `check_inv_consistency` for every ready stage at every scheduling
/// opportunity, so simply completing is the differential check. On top,
/// the run must be deterministic and must never rebuild the inverted
/// index after construction (the counter the CI guard pins at scale).
fn check_run(w: Workload, tasks: u32, iterations: u32, fault_seed: Option<u64>) {
    let scale = Scale {
        tasks,
        block_mb: 32.0,
        iterations,
    };
    let dag = w.build(&scale);
    let mut cl = small_cluster();
    if let Some(seed) = fault_seed {
        let n_exec = cl.total_nodes() * cl.execs_per_node;
        cl.faults = Some(FaultPlan::chaos(seed, n_exec, 40_000, &dag));
    }
    let sys = System::dagon();
    let a = run_system(&dag, &cl, &sys).result;
    let b = run_system(&dag, &cl, &sys).result;
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "nondeterministic run: {w:?} tasks={tasks} iters={iterations} fault={fault_seed:?}"
    );
    let s = &a.metrics.sched;
    assert_eq!(
        s.inv_index_rebuilds, 1,
        "inverted index rebuilt mid-run: {w:?} tasks={tasks} iters={iterations}"
    );
    assert!(
        s.inv_index_updates > 0,
        "inverted index never updated: {w:?}"
    );
    assert!(a
        .metrics
        .per_stage
        .iter()
        .all(|st| st.completed_at.is_some()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault-free random workloads keep the inverted counts consistent
    /// (dev-profile oracle asserts) and rebuild-free.
    #[test]
    fn random_workloads_keep_inv_index_consistent(
        w_idx in 0usize..WORKLOADS.len(),
        tasks in 4u32..12,
        iterations in 1u32..4,
    ) {
        check_run(WORKLOADS[w_idx], tasks, iterations, None);
    }

    /// Chaos plans — crashes, restarts, requeues, lineage recomputation —
    /// drive the requeue/resubmit re-insert paths and crash-style replica
    /// loss without ever forcing an index rebuild.
    #[test]
    fn chaos_keeps_inv_index_consistent(
        w_idx in 0usize..WORKLOADS.len(),
        tasks in 4u32..10,
        fault_seed in 0u64..24,
    ) {
        check_run(WORKLOADS[w_idx], tasks, 2, Some(fault_seed));
    }
}

/// Pinned: the crash-restart shape most likely to churn pending sets and
/// residency at once (every executor dies at least once under chaos seed
/// 11 on CC) — the regression that motivated the claims-blind gate design.
#[test]
fn chaos_regression_cc_seed11() {
    check_run(Workload::ConnectedComponent, 8, 2, Some(11));
}
