//! The four workloads, their seeded inputs, and the experiment one timed
//! sample runs: `build_scheduler` + `Simulation::new` + `run`, exactly as
//! `dagon_core::run_system_with_estimates` and `run_tenant_stream` wire it.

use std::cell::RefCell;
use std::rc::Rc;

use dagon_cache::PolicyKind;
use dagon_cluster::{
    AdmissionConfig, CachePolicy, ClusterConfig, Scheduler, SimResult, Simulation,
};
use dagon_core::experiments::ExpConfig;
use dagon_core::runner::run_system_with_estimates;
use dagon_core::tenancy::{run_tenant_stream, sweep_cluster, sweep_tenants, TenantPolicy};
use dagon_core::{PlaceKind, SchedKind, System};
use dagon_dag::{JobDag, StageEstimates};
use dagon_profiler::AppProfiler;
use dagon_sched::critical_path::CpOrder;
use dagon_sched::{
    DagonOrder, FairOrder, FifoOrder, GrapheneScheduler, NativeDelay, OrderPolicy,
    OrderedScheduler, Placement, SensitivityAware, TenantFairOrder,
};
use dagon_tenancy::{StreamOptions, TenantStream};
use dagon_workloads::{Scale, Workload};

use crate::host::now_ns;
use crate::stats::nearest_rank;
use crate::trace::{Shared, TracedCache, TracedOrder, TracedPlacement, TracedScheduler};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// ConnectedComponent at paper scale under Dagon.
    CcPaperDagon,
    /// KMeans at paper scale under stock Spark.
    KmPaperSpark,
    /// ConnectedComponent on the 200-executor sweep cluster under Dagon.
    CcScale200Dagon,
    /// The 3-tenant, 55-job stream under WFair+Dagon.
    Tenant200Wfair,
}

impl Name {
    pub const ALL: [Name; 4] = [
        Name::CcPaperDagon,
        Name::KmPaperSpark,
        Name::CcScale200Dagon,
        Name::Tenant200Wfair,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::CcPaperDagon => "cc_paper_dagon",
            Name::KmPaperSpark => "km_paper_spark",
            Name::CcScale200Dagon => "cc_scale200_dagon",
            Name::Tenant200Wfair => "tenant200_wfair",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// The seed the pinned results were taken at.
    pub fn default_seed(self) -> u64 {
        match self {
            Name::Tenant200Wfair => 7,
            _ => 1,
        }
    }

    /// `(jct, SimResult::fingerprint())` at [`Self::default_seed`].
    pub fn pinned(self) -> (u64, u64) {
        match self {
            Name::CcPaperDagon => (42_640, 0x6d66_cb41_5448_702f),
            Name::KmPaperSpark => (23_594, 0xce2a_ca92_51a6_7640),
            Name::CcScale200Dagon => (107_957, 0xe602_d34b_cc2b_673d),
            Name::Tenant200Wfair => (1_525_622, 0x3945_cf48_06a2_b145),
        }
    }
}

/// What one experiment runs.
pub enum Job {
    Batch {
        dag: JobDag,
        system: System,
    },
    Stream {
        stream: TenantStream,
        policy: TenantPolicy,
    },
}

/// The seeded inputs of one workload: everything the program receives.
pub struct Inputs {
    pub job: Job,
    pub cluster: ClusterConfig,
    pub est: StageEstimates,
}

/// Host time of one set-up, split by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Workload::build` (batch workloads).
    pub build_ns: u64,
    /// `TenantStream::generate` (the tenant workload).
    pub generate_ns: u64,
    /// `AppProfiler::estimate`.
    pub estimate_ns: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.build_ns + self.generate_ns + self.estimate_ns
    }
}

/// The 200-executor sweep cluster of the scale benches.
fn scale200_config() -> ExpConfig {
    let mut cluster = ClusterConfig::paper_testbed();
    cluster.racks = vec![25, 25];
    cluster.execs_per_node = 4;
    cluster.exec_cache_mb = 1024.0;
    cluster.hdfs_replication = 1;
    ExpConfig {
        cluster,
        scale: Scale {
            tasks: 1600,
            block_mb: 128.0,
            iterations: 8,
        },
        seeds: 1,
    }
}

/// Generate the inputs of `name` from `seed`.
///
/// The seed is the cluster seed: HDFS block placement and the profiler's
/// estimate noise. The tenant workload's job stream is the
/// `fig_tenant_sweep` roster drawn at stream seed 7 whatever the seed, as
/// its makespan alone moves 1.11–1.86 M sim-ms across stream seeds.
pub fn setup(name: Name, seed: u64) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let (job, cluster) = match name {
        Name::CcPaperDagon | Name::KmPaperSpark | Name::CcScale200Dagon => {
            let (workload, system, mut cfg) = match name {
                Name::CcPaperDagon => (
                    Workload::ConnectedComponent,
                    System::dagon(),
                    ExpConfig::paper(),
                ),
                Name::KmPaperSpark => (Workload::KMeans, System::stock_spark(), ExpConfig::paper()),
                _ => (
                    Workload::ConnectedComponent,
                    System::dagon(),
                    scale200_config(),
                ),
            };
            cfg.cluster.seed = seed;
            let t0 = now_ns();
            let dag = workload.build(&cfg.scale);
            times.build_ns = now_ns() - t0;
            (Job::Batch { dag, system }, cfg.cluster)
        }
        Name::Tenant200Wfair => {
            let base = Scale {
                tasks: 8,
                block_mb: 64.0,
                iterations: 3,
            };
            let t0 = now_ns();
            let stream =
                TenantStream::generate(&sweep_tenants(1.0), 7, &base, &StreamOptions::default());
            times.generate_ns = now_ns() - t0;
            let policy = TenantPolicy::WeightedFairDagon;
            (Job::Stream { stream, policy }, sweep_cluster(seed))
        }
    };
    let t0 = now_ns();
    let est = AppProfiler::noisy(0.10, cluster.seed).estimate(job.dag());
    times.estimate_ns = now_ns() - t0;
    (Inputs { job, cluster, est }, times)
}

impl Job {
    pub fn dag(&self) -> &JobDag {
        match self {
            Job::Batch { dag, .. } => dag,
            Job::Stream { stream, .. } => &stream.dag,
        }
    }

    fn cache(&self) -> PolicyKind {
        match self {
            Job::Batch { system, .. } => system.cache,
            Job::Stream { policy, .. } => policy.cache_kind(),
        }
    }
}

/// Build the simulation of `inp` with `cache` as the per-executor policy
/// factory.
fn simulation(inp: &Inputs, cache: impl Fn() -> Box<dyn CachePolicy>) -> Simulation {
    let sim = Simulation::new(inp.job.dag().clone(), inp.cluster.clone(), cache);
    match &inp.job {
        Job::Batch { .. } => sim,
        Job::Stream { stream, .. } => sim.with_jobs(stream.runtime(AdmissionConfig::default())),
    }
}

/// The reference run, through `dagon_core`'s own entry points.
pub fn run_reference(inp: &Inputs) -> SimResult {
    match &inp.job {
        Job::Batch { dag, system } => {
            run_system_with_estimates(dag, &inp.cluster, system, &inp.est).result
        }
        Job::Stream { stream, policy } => {
            run_tenant_stream(stream, &inp.cluster, *policy, AdmissionConfig::default()).result
        }
    }
}

/// One untraced experiment, composed by `dagon_core`'s `build_scheduler`.
pub fn run_untraced(inp: &Inputs) -> SimResult {
    let mut sched = match &inp.job {
        Job::Batch { dag, system } => system.build_scheduler(dag, &inp.est),
        Job::Stream { stream, policy } => policy.build_scheduler(stream, &inp.est),
    };
    let cache = inp.job.cache();
    simulation(inp, || cache.build()).run(sched.as_mut())
}

/// One traced experiment and the host time of its parts.
pub struct Traced {
    pub result: SimResult,
    pub tracer: Shared,
    /// `build_scheduler` + `Simulation::new` + `run`.
    pub wall_ns: u64,
    /// The scheduler composition.
    pub sched_init_ns: u64,
    /// `Simulation::new` (and the job runtime of a stream).
    pub cluster_init_ns: u64,
}

/// One traced experiment: the objects `run_untraced` builds, each layer
/// wrapped at its public trait boundary.
pub fn run_traced(inp: &Inputs) -> Traced {
    let t: Shared = Rc::new(RefCell::new(Default::default()));
    let t0 = now_ns();
    let mut sched = traced_scheduler(inp, &t);
    let t1 = now_ns();
    let cache = inp.job.cache();
    let sim = simulation(inp, || {
        Box::new(TracedCache {
            inner: cache.build(),
            t: t.clone(),
        })
    });
    let t2 = now_ns();
    let result = sim.run(&mut sched);
    let t3 = now_ns();
    Traced {
        result,
        tracer: t,
        wall_ns: t3 - t0,
        sched_init_ns: t1 - t0,
        cluster_init_ns: t2 - t1,
    }
}

fn ordered(
    order: Box<dyn OrderPolicy>,
    placement: Box<dyn Placement>,
    t: &Shared,
) -> Box<dyn Scheduler> {
    Box::new(OrderedScheduler::new(
        Box::new(TracedOrder {
            inner: order,
            t: t.clone(),
        }),
        placement,
    ))
}

/// Mirror of `System::build_scheduler` and `TenantPolicy::build_scheduler`
/// with the order and placement halves wrapped.
fn traced_scheduler(inp: &Inputs, t: &Shared) -> TracedScheduler {
    let place = |p: Box<dyn Placement>| -> Box<dyn Placement> {
        Box::new(TracedPlacement {
            inner: p,
            t: t.clone(),
        })
    };
    let est = &inp.est;
    let inner = match &inp.job {
        Job::Batch { dag, system } => {
            let placement = place(match system.place {
                PlaceKind::NativeDelay => Box::new(NativeDelay::new()),
                PlaceKind::Sensitivity => Box::new(SensitivityAware::new(est.clone())),
            });
            match system.sched {
                SchedKind::Fifo => ordered(Box::new(FifoOrder), placement, t),
                // Fair is only offered with native delay, as in core.
                SchedKind::Fair => {
                    ordered(Box::new(FairOrder), place(Box::new(NativeDelay::new())), t)
                }
                SchedKind::CriticalPath => ordered(
                    Box::new(CpOrder::new(dag)),
                    place(Box::new(NativeDelay::new())),
                    t,
                ),
                // GRAPHENE's order has no public constructor: its rank time
                // stays inside the schedule self time.
                SchedKind::Graphene => {
                    Box::new(GrapheneScheduler::with_placement(dag, est, placement))
                }
                SchedKind::Dagon => ordered(Box::new(DagonOrder::new(dag, est)), placement, t),
            }
        }
        Job::Stream { stream, policy } => match policy {
            TenantPolicy::Fifo => {
                ordered(Box::new(FifoOrder), place(Box::new(NativeDelay::new())), t)
            }
            TenantPolicy::Fair => ordered(
                Box::new(TenantFairOrder::equal(Box::new(FifoOrder))),
                place(Box::new(NativeDelay::new())),
                t,
            ),
            TenantPolicy::WeightedFairDagon => ordered(
                Box::new(TenantFairOrder::new(
                    Box::new(DagonOrder::new(&stream.dag, est)),
                    stream.weights(),
                )),
                place(Box::new(SensitivityAware::new(est.clone()))),
                t,
            ),
        },
    };
    TracedScheduler {
        inner,
        t: t.clone(),
    }
}

/// The simulated outcome of one experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    pub fingerprint: u64,
    pub jct_ms: u64,
    /// Applied non-speculative launches: one per scheduling decision that
    /// made it into the simulated schedule.
    pub decisions: u64,
    pub cache_hit_ratio: f64,
    pub cpu_util: f64,
    /// Nearest-rank percentiles of per-job JCT (arrival to completion);
    /// a batch workload is one job.
    pub job_p50_ms: u64,
    pub job_p80_ms: u64,
    /// Jain's index over per-tenant mean JCT; 1 for one tenant.
    pub jain: f64,
}

/// Applied non-speculative launches of a run.
pub fn decisions(r: &SimResult) -> u64 {
    r.metrics
        .task_runs
        .iter()
        .filter(|t| !t.speculative)
        .count() as u64
}

pub fn outcome(inp: &Inputs, r: &SimResult) -> Outcome {
    let (job_p50_ms, job_p80_ms, jain) = match &inp.job {
        Job::Batch { .. } => (r.jct, r.jct, 1.0),
        Job::Stream { stream, .. } => {
            let mut jcts: Vec<u64> = r
                .jobs
                .iter()
                .filter_map(|j| j.completed_ms.map(|c| c.saturating_sub(j.arrival_ms)))
                .collect();
            jcts.sort_unstable();
            let report = dagon_tenancy::TenantReport::new(stream, r);
            (
                nearest_rank(&jcts, 0.50),
                nearest_rank(&jcts, 0.80),
                report.jain_fairness,
            )
        }
    };
    Outcome {
        fingerprint: r.fingerprint(),
        jct_ms: r.jct,
        decisions: decisions(r),
        cache_hit_ratio: r.metrics.cache.hit_ratio(),
        cpu_util: r.cpu_utilization(),
        job_p50_ms,
        job_p80_ms,
        jain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_cluster::ClusterConfig;
    use dagon_tenancy::{BoundedPareto, ClientKind, TenantSpec};

    fn quick_inputs(workload: Workload, system: System) -> Inputs {
        let cfg = ExpConfig::quick();
        let dag = workload.build(&cfg.scale);
        let est = AppProfiler::noisy(0.10, cfg.cluster.seed).estimate(&dag);
        Inputs {
            job: Job::Batch { dag, system },
            cluster: cfg.cluster,
            est,
        }
    }

    #[test]
    fn wrapped_composition_reproduces_run_system_for_the_fig8_lineup() {
        for workload in [Workload::ConnectedComponent, Workload::KMeans] {
            for system in System::fig8_lineup() {
                let inp = quick_inputs(workload, system.clone());
                let Job::Batch { dag, .. } = &inp.job else {
                    unreachable!()
                };
                let want = dagon_core::run_system(dag, &inp.cluster, &system)
                    .result
                    .fingerprint();
                let label = format!("{} {}", workload.abbrev(), system.label());
                assert_eq!(run_reference(&inp).fingerprint(), want, "{label}");
                assert_eq!(run_untraced(&inp).fingerprint(), want, "{label}");
                let traced = run_traced(&inp);
                assert_eq!(traced.result.fingerprint(), want, "{label}");
                let t = traced.tracer.borrow();
                assert!(t.span(crate::trace::Span::Schedule).calls > 0, "{label}");
                assert!(t.span(crate::trace::Span::Pick).calls > 0, "{label}");
            }
        }
    }

    #[test]
    fn wrapped_composition_reproduces_run_tenant_stream_for_every_policy() {
        let tenants = vec![
            TenantSpec {
                name: "a".into(),
                weight: 2,
                mix: vec![Workload::KMeans, Workload::ConnectedComponent],
                tasks: BoundedPareto::fixed(8.0),
                client: ClientKind::OpenPoisson {
                    jobs: 3,
                    mean_interarrival_ms: 5_000,
                },
            },
            TenantSpec {
                name: "b".into(),
                weight: 1,
                mix: vec![Workload::LinearRegression],
                tasks: BoundedPareto::fixed(8.0),
                client: ClientKind::ClosedLoop {
                    clients: 1,
                    jobs_per_client: 2,
                    mean_think_ms: 2_000,
                },
            },
        ];
        let stream =
            TenantStream::generate(&tenants, 11, &Scale::tiny(), &StreamOptions::default());
        let cluster = ClusterConfig::tiny(4, 8);
        for policy in TenantPolicy::LINEUP {
            let want = run_tenant_stream(&stream, &cluster, policy, AdmissionConfig::default());
            let inp = Inputs {
                est: AppProfiler::noisy(0.10, cluster.seed).estimate(&stream.dag),
                job: Job::Stream {
                    stream: stream.clone(),
                    policy,
                },
                cluster: cluster.clone(),
            };
            let fp = want.result.fingerprint();
            assert_eq!(run_untraced(&inp).fingerprint(), fp, "{}", policy.label());
            let traced = run_traced(&inp);
            assert_eq!(traced.result.fingerprint(), fp, "{}", policy.label());
            assert_eq!(traced.result.jobs, want.result.jobs, "{}", policy.label());
        }
    }

    #[test]
    fn batch_outcome_is_one_job_of_one_tenant() {
        let inp = quick_inputs(Workload::KMeans, System::stock_spark());
        let r = run_reference(&inp);
        let o = outcome(&inp, &r);
        assert_eq!((o.job_p50_ms, o.job_p80_ms), (r.jct, r.jct));
        assert_eq!(o.jain, 1.0);
        assert_eq!(
            o.decisions as usize,
            r.metrics
                .task_runs
                .iter()
                .filter(|t| !t.speculative)
                .count()
        );
    }

    #[test]
    fn names_round_trip() {
        for n in Name::ALL {
            assert_eq!(Name::parse(n.as_str()), Some(n));
        }
        assert_eq!(Name::parse("nope"), None);
    }
}
