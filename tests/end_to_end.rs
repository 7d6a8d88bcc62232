//! Cross-crate integration tests: every scheduler × cache combination
//! drives the simulator to completion on real workload DAGs, and the
//! paper's small exact results hold end to end.

// Test-only id mints from small generated counts.
#![allow(clippy::cast_possible_truncation)]

use dagon_cache::PolicyKind;
use dagon_cluster::ClusterConfig;
use dagon_core::system::{PlaceKind, SchedKind, System};
use dagon_core::{run_system, tiny_exec};
use dagon_dag::examples::fig1;
use dagon_dag::MIN_MS;
use dagon_workloads::{Scale, Workload};

fn tiny_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::paper_testbed();
    c.racks = vec![2, 2];
    c.execs_per_node = 2;
    c.exec_cache_mb = 512.0;
    c
}

#[test]
fn every_system_completes_every_workload_at_tiny_scale() {
    let cluster = tiny_cluster();
    let scale = Scale::tiny();
    for w in Workload::PAPER_SEVEN
        .into_iter()
        .chain([Workload::PageRank])
    {
        let dag = w.build(&scale);
        for sched in [
            SchedKind::Fifo,
            SchedKind::Fair,
            SchedKind::CriticalPath,
            SchedKind::Graphene,
            SchedKind::Dagon,
        ] {
            for cache in [
                PolicyKind::None,
                PolicyKind::Lru,
                PolicyKind::Lrc,
                PolicyKind::Mrd,
                PolicyKind::Lrp,
            ] {
                let sys = System::new(sched, PlaceKind::NativeDelay, cache);
                let out = run_system(&dag, &cluster, &sys);
                assert!(out.result.jct > 0, "{w} under {sys}");
                // Every task ran exactly once as a winner.
                let total: u32 = dag.stages().iter().map(|s| s.num_tasks).sum();
                let winners = out
                    .result
                    .metrics
                    .task_runs
                    .iter()
                    .filter(|r| r.winner)
                    .count() as u32;
                assert_eq!(winners, total, "{w} under {sys}");
            }
        }
    }
}

#[test]
fn sensitivity_placement_composes_with_all_orderings() {
    let cluster = tiny_cluster();
    let dag = Workload::KMeans.build(&Scale::tiny());
    for sched in [SchedKind::Fifo, SchedKind::Graphene, SchedKind::Dagon] {
        let sys = System::new(sched, PlaceKind::Sensitivity, PolicyKind::Lrp);
        let out = run_system(&dag, &cluster, &sys);
        assert!(out.result.jct > 0, "{sys}");
    }
}

#[test]
fn fig2_exact_makespans_hold_through_the_full_simulator() {
    // The event simulator (with I/O) must stay close to the abstract
    // 16-vs-12-minute result on the Fig. 1 example: same winner, similar
    // ratio.
    let mut cluster = ClusterConfig::tiny(1, 16);
    cluster.exec_cache_mb = 192.0;
    let fifo = run_system(&fig1(), &cluster, &System::stock_spark());
    let dagon = run_system(&fig1(), &cluster, &System::dagon());
    let ratio = fifo.result.jct as f64 / dagon.result.jct as f64;
    assert!(
        ratio > 1.15,
        "expected ≥15% improvement, got ratio {ratio:.3}"
    );
    // Abstract model is exact.
    let a = tiny_exec::run_tiny(&fig1(), 16, tiny_exec::Mode::Fifo);
    let b = tiny_exec::run_tiny(&fig1(), 16, tiny_exec::Mode::DagAware);
    assert_eq!((a.makespan, b.makespan), (16, 12));
}

#[test]
fn cache_stats_are_consistent() {
    let cluster = tiny_cluster();
    let dag = Workload::PageRank.build(&Scale::tiny());
    let out = run_system(&dag, &cluster, &System::dagon());
    let c = &out.result.metrics.cache;
    // Hits + misses = all accesses to cache-eligible blocks; insertions
    // cannot exceed misses + prefetches + produced blocks.
    assert!(c.hits + c.misses > 0);
    let produced: u64 = dag
        .stages()
        .iter()
        .filter(|s| dag.rdd(s.output).cached)
        .map(|s| s.num_tasks as u64)
        .sum();
    assert!(
        c.insertions <= c.misses + c.prefetches + produced,
        "insertions {} vs misses {} + prefetches {} + produced {produced}",
        c.insertions,
        c.misses,
        c.prefetches
    );
    assert!(c.prefetch_used <= c.prefetches);
}

#[test]
fn utilization_is_a_valid_fraction_everywhere() {
    let cluster = tiny_cluster();
    for w in [Workload::DecisionTree, Workload::ConnectedComponent] {
        let dag = w.build(&Scale::tiny());
        for sys in System::fig8_lineup() {
            let out = run_system(&dag, &cluster, &sys);
            let u = out.result.cpu_utilization();
            assert!(u > 0.0 && u <= 1.0, "{w} {sys}: {u}");
        }
    }
}

#[test]
fn speculation_bounds_straggler_damage() {
    // A stage with one 8× straggler task: speculation should launch at
    // least one copy and not corrupt completion accounting.
    let mut b = dagon_dag::DagBuilder::new("skewed");
    let src = b.hdfs_rdd("in", 16, 32.0);
    let (_, r) = b
        .stage("scan")
        .tasks(16)
        .demand_cpus(1)
        .cpu_ms(2 * MIN_MS / 10)
        .skew(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 8.0])
        .reads_narrow(src)
        .build();
    let _ = b
        .stage("agg")
        .tasks(2)
        .demand_cpus(1)
        .cpu_ms(500)
        .reads_wide(r)
        .build();
    let dag = b.build().unwrap();
    let mut cluster = tiny_cluster();
    cluster.speculation = Some(dagon_cluster::SpeculationConfig {
        multiplier: 1.5,
        quantile: 0.5,
    });
    let out = run_system(&dag, &cluster, &System::stock_spark());
    assert!(out.result.metrics.speculative_launched >= 1);
    let winners = out
        .result
        .metrics
        .task_runs
        .iter()
        .filter(|r| r.winner)
        .count();
    assert_eq!(winners, 18);
}

#[test]
fn determinism_across_full_stack() {
    let cluster = tiny_cluster();
    let dag = Workload::TriangleCount.build(&Scale::tiny());
    let a = run_system(&dag, &cluster, &System::graphene_mrd());
    let b = run_system(&dag, &cluster, &System::graphene_mrd());
    assert_eq!(a.result.jct, b.result.jct);
    assert_eq!(a.result.metrics.cache, b.result.metrics.cache);
}

#[test]
fn multi_tenant_merge_runs_and_reports_per_job_jct() {
    use dagon_dag::{job_completion_ms, JobSet};
    use dagon_workloads::{Scale, Workload};
    let scale = Scale::tiny();
    let mut set = JobSet::new();
    set.add(Workload::KMeans.build(&scale), 0);
    set.add(Workload::LinearRegression.build(&scale), 2_000);
    let (dag, slots) = set.merge();
    let out = run_system(&dag, &tiny_cluster(), &System::dagon());
    for slot in &slots {
        let jct = job_completion_ms(slot, |s| {
            out.result.metrics.per_stage[s.index()].completed_at
        })
        .expect("job completed");
        assert!(jct > 0, "{}", slot.name);
    }
    // The second job cannot have started before its arrival.
    let first_launch = slots[1]
        .stages
        .iter()
        .filter_map(|s| out.result.metrics.per_stage[s.index()].first_launch)
        .min()
        .unwrap();
    assert!(first_launch >= 2_000, "job 1 started at {first_launch}");
}

#[test]
fn machine_stragglers_are_mitigated_by_speculation() {
    use dagon_workloads::{Scale, Workload};
    let dag = Workload::KMeans.build(&Scale::tiny());
    let mut cfg = tiny_cluster();
    cfg.straggler_prob = 0.08;
    cfg.speculation = None;
    let plain = run_system(&dag, &cfg, &System::stock_spark());
    cfg.speculation = Some(dagon_cluster::SpeculationConfig {
        multiplier: 1.5,
        quantile: 0.5,
    });
    let spec = run_system(&dag, &cfg, &System::stock_spark());
    assert!(spec.result.metrics.speculative_launched > 0);
    assert!(
        spec.result.jct <= plain.result.jct,
        "speculation {} vs plain {}",
        spec.result.jct,
        plain.result.jct
    );
}

/// Forwards every [`Scheduler`] call and records the largest result one
/// `schedule` call returned.
struct CountingScheduler {
    inner: Box<dyn dagon_cluster::Scheduler>,
    calls: u64,
    max_batch: usize,
}

impl CountingScheduler {
    fn new(inner: Box<dyn dagon_cluster::Scheduler>) -> Self {
        Self {
            inner,
            calls: 0,
            max_batch: 0,
        }
    }
}

impl dagon_cluster::Scheduler for CountingScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, view: &dagon_cluster::SimView<'_>) -> Vec<dagon_cluster::Assignment> {
        let out = self.inner.schedule(view);
        self.calls += 1;
        self.max_batch = self.max_batch.max(out.len());
        out
    }

    fn on_stage_ready(&mut self, s: dagon_dag::StageId, now: dagon_dag::SimTime) {
        self.inner.on_stage_ready(s, now);
    }

    fn on_stage_complete(&mut self, s: dagon_dag::StageId, now: dagon_dag::SimTime) {
        self.inner.on_stage_complete(s, now);
    }

    fn on_task_launched(&mut self, t: dagon_dag::TaskId, work: u64, now: dagon_dag::SimTime) {
        self.inner.on_task_launched(t, work, now);
    }

    fn on_task_requeued(&mut self, t: dagon_dag::TaskId, work: u64, now: dagon_dag::SimTime) {
        self.inner.on_task_requeued(t, work, now);
    }

    fn stage_priorities(&self) -> Option<Vec<(dagon_dag::StageId, u64)>> {
        self.inner.stage_priorities()
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn drain_decisions(&mut self) -> Vec<dagon_obs::SchedDecision> {
        self.inner.drain_decisions()
    }
}

/// The DAG-aware schedulers make one pick per `schedule` call, so the
/// simulator never has a batch tail to discard — checked on the
/// cache-heavy paper-scale CC run (the old batched scheduler threw away
/// ~1k assignments there) and on a multi-tenant stream.
#[test]
fn ordered_scheduler_returns_one_assignment_per_call_and_nothing_is_discarded() {
    use dagon_cluster::{AdmissionConfig, ArrivalSpec, SimResult, Simulation};
    use dagon_core::experiments::ExpConfig;
    use dagon_core::tenancy::TenantPolicy;
    use dagon_profiler::AppProfiler;
    use dagon_tenancy::{StreamJob, StreamOptions, TenantMeta, TenantStream};

    let check = |label: &str, sched: &CountingScheduler, result: &SimResult| {
        let s = &result.metrics.sched;
        assert_eq!(s.assignments_discarded, 0, "{label}");
        assert_eq!(s.batches_discarded, 0, "{label}");
        assert_eq!(
            sched.max_batch, 1,
            "{label}: a schedule call returned a batch"
        );
        assert_eq!(sched.calls, s.schedule_invocations, "{label}");
    };

    let paper = ExpConfig::paper();
    let dag = Workload::ConnectedComponent.build(&paper.scale);
    let est = AppProfiler::noisy(0.10, paper.cluster.seed).estimate(&dag);
    for sys in [System::dagon(), System::stock_spark()] {
        let mut sched = CountingScheduler::new(sys.build_scheduler(&dag, &est));
        let sim = Simulation::new(dag.clone(), paper.cluster.clone(), || sys.cache.build());
        let result = sim.run(&mut sched);
        check(&format!("CC paper scale under {sys}"), &sched, &result);
    }

    let scale = Scale::tiny();
    let mk = |tenant: u32, w: Workload, at: u64| StreamJob {
        tenant,
        name: format!("t{tenant}/{}", w.abbrev()),
        arrival: ArrivalSpec::Open { at },
        dag: w.build(&scale),
    };
    let jobs = vec![
        mk(0, Workload::ConnectedComponent, 0),
        mk(1, Workload::KMeans, 1_000),
        mk(0, Workload::PageRank, 2_000),
        mk(1, Workload::ConnectedComponent, 3_000),
    ];
    let tenants = [("heavy", 2), ("light", 1)]
        .map(|(name, weight)| TenantMeta {
            name: name.to_string(),
            weight,
        })
        .to_vec();
    let stream = TenantStream::from_jobs(&jobs, tenants, &StreamOptions::default());
    let cluster = tiny_cluster();
    let est = AppProfiler::noisy(0.10, cluster.seed).estimate(&stream.dag);
    for policy in TenantPolicy::LINEUP {
        let mut sched = CountingScheduler::new(policy.build_scheduler(&stream, &est));
        let cache = policy.cache_kind();
        let sim = Simulation::new(stream.dag.clone(), cluster.clone(), || cache.build())
            .with_jobs(stream.runtime(AdmissionConfig::default()));
        let result = sim.run(&mut sched);
        assert_eq!(result.jobs.len(), jobs.len());
        check(
            &format!("tenant stream under {}", policy.label()),
            &sched,
            &result,
        );
    }
}

/// Quiet-tick elision: a tick skips the cache maintenance pass (prefetch
/// scan + proactive sweeps) when nothing it reads changed since the last
/// idle pass. Two jobs with a long idle gap between their arrivals leave
/// most ticks with no event and no launch, so most passes are skipped —
/// and the cache ledger still balances.
#[test]
fn idle_gap_ticks_skip_cache_maintenance() {
    use dagon_cluster::{AdmissionConfig, ArrivalSpec};
    use dagon_core::tenancy::{run_tenant_stream, TenantPolicy};
    use dagon_tenancy::{StreamJob, StreamOptions, TenantMeta, TenantStream};

    const GAP_MS: u64 = 20 * MIN_MS;
    let scale = Scale::tiny();
    let jobs = [
        (Workload::ConnectedComponent, 0),
        (Workload::KMeans, GAP_MS),
    ]
    .map(|(w, at)| StreamJob {
        tenant: 0,
        name: w.abbrev().to_string(),
        arrival: ArrivalSpec::Open { at },
        dag: w.build(&scale),
    })
    .to_vec();
    let tenants = vec![TenantMeta {
        name: "solo".to_string(),
        weight: 1,
    }];
    let stream = TenantStream::from_jobs(&jobs, tenants, &StreamOptions::default());
    let out = run_tenant_stream(
        &stream,
        &tiny_cluster(),
        TenantPolicy::WeightedFairDagon,
        AdmissionConfig::default(),
    );
    let first_done = out.result.jobs[0]
        .completed_ms
        .expect("first job completes");
    assert!(
        first_done * 2 < GAP_MS,
        "first job ends at {first_done} ms: the gap before {GAP_MS} ms is not idle"
    );
    assert!(out.result.jobs[1].completed_ms.is_some());
    let c = &out.result.metrics.cache;
    assert!(c.ticks > 0);
    assert!(
        c.maint_passes * 4 < c.ticks,
        "{} maintenance passes over {} ticks",
        c.maint_passes,
        c.ticks
    );
    assert_eq!(
        c.insertions,
        c.evictions + c.proactive_evictions + c.lost + c.resident_end,
        "cache ledger imbalance"
    );
}
