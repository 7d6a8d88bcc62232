//! Property-based tests across the stack: on arbitrary random DAGs, the
//! simulator must uphold its invariants under every scheduling policy.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cache::PolicyKind;
use dagon_cluster::hdfs::DataMap;
use dagon_cluster::{ClusterConfig, ExecId, Locality, LocalityIndex, NodeId, TaskView, Topology};
use dagon_core::run_system;
use dagon_core::system::{PlaceKind, SchedKind, System};
use dagon_dag::generate::{random_dag, GenParams};
use dagon_dag::graph::Closure;
use dagon_dag::{BlockId, DagBuilder, PriorityTracker, RddId};
use proptest::prelude::*;

fn small_params() -> GenParams {
    GenParams {
        stages: 8,
        tasks: (1, 6),
        demand_cpus: (1, 4),
        cpu_ms: (100, 5_000),
        block_mb: (8.0, 64.0),
        ..Default::default()
    }
}

fn cluster() -> ClusterConfig {
    let mut c = ClusterConfig::paper_testbed();
    c.racks = vec![2, 1];
    c.execs_per_node = 2;
    c.exec_cache_mb = 256.0;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Priorities are monotone: pv never increases as tasks launch, and a
    /// parent's pv always covers each of its children's.
    #[test]
    fn priority_invariants(seed in 0u64..500) {
        let dag = random_dag(&small_params(), seed);
        let tracker = PriorityTracker::from_dag(&dag);
        let closure = Closure::successors(&dag);
        for s in dag.stage_ids() {
            // pv_i ≥ w_i
            prop_assert!(tracker.pv(s) >= tracker.remaining_work(s));
            for c in closure.members(s) {
                // pv of ancestor ≥ pv contribution of each descendant's
                // remaining work.
                prop_assert!(tracker.pv(s) >= tracker.remaining_work(c));
            }
        }
    }

    /// End-to-end on random DAGs: completion, exactly-once winners, valid
    /// utilization, non-decreasing stage completion along dependencies.
    #[test]
    fn random_dags_complete_under_dagon(seed in 0u64..40) {
        let dag = random_dag(&small_params(), seed);
        let out = run_system(&dag, &cluster(), &System::dagon());
        let total: u32 = dag.stages().iter().map(|s| s.num_tasks).sum();
        let winners = out.result.metrics.task_runs.iter().filter(|r| r.winner).count() as u32;
        prop_assert_eq!(winners, total);
        let u = out.result.cpu_utilization();
        prop_assert!(u > 0.0 && u <= 1.0);
        for s in dag.stage_ids() {
            let fin = out.result.metrics.per_stage[s.index()].completed_at.unwrap();
            for p in dag.parents(s) {
                let pfin = out.result.metrics.per_stage[p.index()].completed_at.unwrap();
                prop_assert!(pfin <= fin, "child {} finished before parent {}", s, p);
                // And no child task may *start* before the parent completed.
                let first = out.result.metrics.per_stage[s.index()].first_launch.unwrap();
                prop_assert!(first >= pfin);
            }
        }
    }

    /// FIFO+LRU (stock) also upholds the invariants, and cache accounting
    /// stays consistent under every policy.
    #[test]
    fn cache_accounting_consistent(seed in 0u64..20, policy_idx in 0usize..5) {
        check_cache_accounting(seed, policy_idx);
    }

    /// The [`LocalityIndex`]'s bitset levels (`task_locality`,
    /// `task_best_level`) must agree with brute-force recomputation from
    /// the raw block registry under arbitrary interleavings of cache
    /// inserts, evictions, disk adds, and queries.
    #[test]
    fn locality_index_matches_brute_force(
        ops in proptest::collection::vec((0u8..3u8, 0u32..24u32, 0u32..8u32), 0..80),
    ) {
        // 2 racks × 2 nodes × 2 execs = 8 executors over a 24-block source.
        let mut b = DagBuilder::new("p");
        let src = b.hdfs_rdd("in", 24, 32.0);
        let _ = b.stage("s").tasks(24).demand_cpus(1).cpu_ms(100).reads_narrow(src).build();
        let dag = b.build().unwrap();
        let topo = Topology::build(&[2, 2], 2);
        let data = DataMap::place_sources(&dag, &topo, 2, 42);
        // Task k prefers blocks {k, k+1 mod 24}: multi-block worst-of.
        let tv: Vec<Vec<TaskView>> = vec![(0..24)
            .map(|k| TaskView {
                loc_blocks: vec![
                    BlockId::new(RddId(0), k),
                    BlockId::new(RddId(0), (k + 1) % 24),
                ],
            })
            .collect()];
        let mut idx = LocalityIndex::new(&dag, &topo, data, &tv);
        for &(op, part, e) in &ops {
            let block = BlockId::new(RddId(0), part);
            // Interleave queries with the mutations.
            let _ = idx.task_locality(0, part, ExecId(e));
            match op {
                0 => idx.add_cached(block, ExecId(e)),
                1 => idx.remove_cached(block, ExecId(e)),
                _ => idx.add_disk(block, NodeId(e % 4)),
            }
        }
        for k in 0..24u32 {
            let mut best = Locality::Any;
            for e in 0..8u32 {
                let want = tv[0][k as usize]
                    .loc_blocks
                    .iter()
                    .map(|&b| brute_locality(idx.data(), &topo, b, ExecId(e)))
                    .max()
                    .unwrap();
                prop_assert_eq!(
                    idx.task_locality(0, k, ExecId(e)), want, "task {} exec {}", k, e
                );
                best = best.min(want);
            }
            prop_assert_eq!(idx.task_best_level(0, k), best, "task {} best", k);
        }
    }

    /// The schedule is resource-feasible: at no instant does the busy-core
    /// integral exceed capacity (checked via peak of the timeline).
    #[test]
    fn busy_cores_never_exceed_capacity(seed in 0u64..20) {
        let dag = random_dag(&small_params(), seed);
        let cl = cluster();
        let out = run_system(&dag, &cl, &System::graphene_mrd());
        let peak = out
            .result
            .metrics
            .busy_cores
            .timeline
            .as_ref()
            .unwrap()
            .iter()
            .fold(0.0f64, |m, p| m.max(p.v));
        prop_assert!(peak <= cl.total_cores() as f64 + 1e-9, "peak {peak}");
    }
}

fn check_cache_accounting(seed: u64, policy_idx: usize) {
    let dag = random_dag(&small_params(), seed);
    let policy = PolicyKind::ALL[policy_idx];
    let sys = System::new(SchedKind::Fifo, PlaceKind::NativeDelay, policy);
    let out = run_system(&dag, &cluster(), &sys);
    let c = &out.result.metrics.cache;
    assert!(c.prefetch_used <= c.prefetches);
    if policy == PolicyKind::None {
        assert_eq!(c.insertions, 0);
        assert_eq!(c.hits, 0);
    }
    // Evictions can never exceed insertions.
    assert!(c.evictions + c.proactive_evictions <= c.insertions);
}

/// Locality from the raw registry, the pre-index way (worst case per block).
fn brute_locality(data: &DataMap, topo: &Topology, b: BlockId, e: ExecId) -> Locality {
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

/// Checked-in `props.proptest-regressions` cases, pinned explicitly so they
/// run even where the regression file is not consulted.
#[test]
fn cache_accounting_regression_seed0_policy0() {
    check_cache_accounting(0, 0);
}

#[test]
fn cache_accounting_regression_seed0_policy3() {
    check_cache_accounting(0, 3);
}
