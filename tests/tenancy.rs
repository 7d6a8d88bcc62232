//! Online multi-tenant acceptance suite.
//!
//! * **Differential**: a single-job stream under dynamic admission is
//!   bit-identical to the classic batch run — pinned against the same
//!   constants as `tests/golden.rs`.
//! * **Static ≡ dynamic**: the `multi.rs`-style pre-merge lowering
//!   (arrivals baked into `release_ms`) and dynamic admission produce the
//!   same per-job JCTs for the same job set under FIFO.
//! * **Determinism**: same seed ⇒ bit-identical stream, schedule and
//!   per-job outcomes; different seed ⇒ different stream.
//! * **Starvation regression**: a bursty heavy tenant cannot starve a
//!   light tenant under fair share.
//! * **Chaos**: an executor crash mid-stream recovers every tenant's jobs,
//!   deterministically.

use dagon_cluster::{AdmissionConfig, ArrivalSpec, ClusterConfig, ExecId, FaultKind, FaultPlan};
use dagon_core::experiments::ExpConfig;
use dagon_core::tenancy::{run_tenant_stream, TenantPolicy};
use dagon_core::{run_system, System};
use dagon_tenancy::{
    BoundedPareto, ClientKind, StreamJob, StreamOptions, TenantReport, TenantSpec, TenantStream,
};
use dagon_workloads::{Scale, Workload};

fn one_job_stream(w: Workload, scale: &Scale) -> TenantStream {
    let jobs = vec![StreamJob {
        tenant: 0,
        name: w.name().to_string(),
        arrival: ArrivalSpec::Open { at: 0 },
        dag: w.build(scale),
    }];
    TenantStream::from_jobs(&jobs, Vec::new(), &StreamOptions::default())
}

/// A one-job stream must reproduce the batch golden bit-for-bit: same
/// constants `tests/golden.rs` pins for CC-quick under stock Spark.
#[test]
fn single_job_stream_matches_batch_golden() {
    let quick = ExpConfig::quick();
    let stream = one_job_stream(Workload::ConnectedComponent, &quick.scale);
    let out = run_tenant_stream(
        &stream,
        &quick.cluster,
        TenantPolicy::Fifo,
        AdmissionConfig::default(),
    );
    assert_eq!(out.result.jct, 51253, "dynamic single-job JCT drifted");
    assert_eq!(
        out.result.fingerprint(),
        12035404264890145351,
        "dynamic single-job fingerprint drifted from the batch golden"
    );
    // The job outcome row agrees with the simulation.
    assert_eq!(out.result.jobs.len(), 1);
    assert_eq!(out.result.jobs[0].completed_ms, Some(out.result.jct));
    assert_eq!(out.result.jobs[0].admitted_ms, Some(0));
}

/// Same differential for the full Dagon system: `WFair+Dagon` over a
/// single tenant degenerates to the plain Dagon scheduler (the fair-share
/// comparator returns `Equal` within one tenant), so the whole stack —
/// estimates, placement, LRP cache — must match the batch run.
#[test]
fn single_tenant_wfair_dagon_matches_batch_dagon() {
    let quick = ExpConfig::quick();
    let stream = one_job_stream(Workload::ConnectedComponent, &quick.scale);
    let dynamic = run_tenant_stream(
        &stream,
        &quick.cluster,
        TenantPolicy::WeightedFairDagon,
        AdmissionConfig::default(),
    );
    let batch = run_system(
        &Workload::ConnectedComponent.build(&quick.scale),
        &quick.cluster,
        &System::dagon(),
    );
    assert_eq!(dynamic.result.jct, batch.result.jct);
    assert_eq!(dynamic.result.fingerprint(), batch.result.fingerprint());
}

fn open_loop_jobs(scale: &Scale) -> Vec<StreamJob> {
    let mk = |tenant: u32, w: Workload, at: u64, i: u32| StreamJob {
        tenant,
        name: format!("t{tenant}/{}#{i}", w.abbrev()),
        arrival: ArrivalSpec::Open { at },
        dag: w.build(scale),
    };
    vec![
        mk(0, Workload::KMeans, 0, 0),
        mk(1, Workload::LinearRegression, 2_000, 0),
        mk(0, Workload::TriangleCount, 4_000, 1),
    ]
}

/// The documented `multi.rs` equivalence: baking arrivals into
/// `release_ms` (static pre-merge) and gating via dynamic admission run
/// the same schedule under FIFO — same job set, same arrivals, same
/// per-job JCTs.
#[test]
fn static_premerge_and_dynamic_admission_agree_under_fifo() {
    let scale = Scale::tiny();
    let jobs = open_loop_jobs(&scale);
    // Identical builder walk, only the release mode differs — so stage ids
    // line up one-to-one across the two lowerings.
    let opts = |static_release| StreamOptions {
        share_inputs: false,
        static_release,
    };
    let dynamic = TenantStream::from_jobs(&jobs, Vec::new(), &opts(false));
    let statik = TenantStream::from_jobs(&jobs, Vec::new(), &opts(true));
    let cluster = ClusterConfig::tiny(4, 8);

    let dyn_out = run_tenant_stream(
        &dynamic,
        &cluster,
        TenantPolicy::Fifo,
        AdmissionConfig::default(),
    );
    let stat_out = run_system(&statik.dag, &cluster, &System::stock_spark());

    for (spec, outcome) in statik.specs.iter().zip(&dyn_out.result.jobs) {
        let ArrivalSpec::Open { at } = spec.arrival else {
            unreachable!("open-loop job set")
        };
        let static_jct = spec
            .stages
            .iter()
            .map(|s| {
                stat_out.result.metrics.per_stage[s.index()]
                    .completed_at
                    .expect("static run completes every stage")
            })
            .max()
            .unwrap()
            - at;
        let dynamic_jct = outcome
            .completed_ms
            .expect("dynamic run completes every job")
            - outcome.arrival_ms;
        assert_eq!(
            static_jct, dynamic_jct,
            "{}: static pre-merge and dynamic admission disagree",
            spec.name
        );
    }
    assert_eq!(dyn_out.result.jct, stat_out.result.jct, "makespans differ");
}

fn seeded_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "poisson".into(),
            weight: 1,
            mix: vec![Workload::KMeans, Workload::LinearRegression],
            tasks: BoundedPareto::new(1.5, 4.0, 16.0),
            client: ClientKind::OpenPoisson {
                jobs: 3,
                mean_interarrival_ms: 8_000,
            },
        },
        TenantSpec {
            name: "closed".into(),
            weight: 2,
            mix: vec![Workload::LogisticRegression],
            tasks: BoundedPareto::fixed(8.0),
            client: ClientKind::ClosedLoop {
                clients: 1,
                jobs_per_client: 3,
                mean_think_ms: 3_000,
            },
        },
    ]
}

/// Same seed ⇒ bit-identical run (schedule fingerprint *and* per-job
/// outcome rows); different seed ⇒ a different stream.
#[test]
fn seeded_streams_are_deterministic() {
    let scale = Scale::tiny();
    let cluster = ClusterConfig::tiny(4, 8);
    let opts = StreamOptions::default();
    let run = |seed: u64| {
        let stream = TenantStream::generate(&seeded_tenants(), seed, &scale, &opts);
        run_tenant_stream(
            &stream,
            &cluster,
            TenantPolicy::WeightedFairDagon,
            AdmissionConfig::default(),
        )
    };
    let a = run(21);
    let b = run(21);
    assert_eq!(a.result.jct, b.result.jct);
    assert_eq!(a.result.fingerprint(), b.result.fingerprint());
    assert_eq!(a.result.jobs, b.result.jobs, "outcome rows must replay");
    let c = run(22);
    assert_ne!(
        (a.result.jct, a.result.fingerprint()),
        (c.result.jct, c.result.fingerprint()),
        "different seed should perturb the run"
    );
}

/// Starvation regression: tenant 0 dumps a burst of heavy jobs at t=0;
/// tenant 1 submits one small job shortly after. Under tenant-blind FIFO
/// the small job waits behind the whole burst (its stages carry higher
/// ids); under fair share it interleaves. The light tenant's JCT under
/// Fair must beat FIFO by a wide margin, and must not wait for the burst
/// to drain.
#[test]
fn fair_share_prevents_light_tenant_starvation() {
    let scale = Scale::tiny();
    let mut jobs: Vec<StreamJob> = (0..4)
        .map(|i| StreamJob {
            tenant: 0,
            name: format!("heavy#{i}"),
            arrival: ArrivalSpec::Open { at: 0 },
            dag: Workload::ConnectedComponent.build(&scale),
        })
        .collect();
    jobs.push(StreamJob {
        tenant: 1,
        name: "light".into(),
        arrival: ArrivalSpec::Open { at: 1_000 },
        dag: Workload::LinearRegression.build(&Scale { tasks: 4, ..scale }),
    });
    let stream = TenantStream::from_jobs(&jobs, Vec::new(), &StreamOptions::default());
    let cluster = ClusterConfig::tiny(2, 4);

    let jct_of = |policy| {
        let out = run_tenant_stream(&stream, &cluster, policy, AdmissionConfig::default());
        let light = &out.result.jobs[4];
        assert!(!light.rejected);
        (
            light.completed_ms.expect("light job completes") - light.arrival_ms,
            out.result.jct,
        )
    };
    let (fifo_jct, _) = jct_of(TenantPolicy::Fifo);
    let (fair_jct, fair_makespan) = jct_of(TenantPolicy::Fair);
    assert!(
        fair_jct * 2 < fifo_jct,
        "fair share gave the light tenant no headway: fair {fair_jct}ms vs fifo {fifo_jct}ms"
    );
    assert!(
        fair_jct < fair_makespan / 2,
        "light job should finish well before the heavy burst drains \
         ({fair_jct}ms vs makespan {fair_makespan}ms)"
    );
}

/// Chaos mid-stream: an executor crashes while jobs from several tenants
/// are in flight and restarts later. Every job still completes, per-tenant
/// accounting stays consistent (the debug oracles run throughout), and the
/// recovery replays bit-identically.
#[test]
fn executor_crash_mid_stream_recovers_every_tenant() {
    let scale = Scale::tiny();
    let opts = StreamOptions::default();
    let stream = TenantStream::generate(&seeded_tenants(), 5, &scale, &opts);
    let mut cluster = ClusterConfig::tiny(4, 8);
    cluster.faults = Some(FaultPlan::none().and(
        6_000,
        FaultKind::ExecCrash {
            exec: ExecId(1),
            restart_after_ms: Some(4_000),
        },
    ));
    let run = || {
        run_tenant_stream(
            &stream,
            &cluster,
            TenantPolicy::Fair,
            AdmissionConfig::default(),
        )
    };
    let a = run();
    assert!(
        a.result.metrics.faults.exec_crashes >= 1,
        "crash not applied"
    );
    assert!(
        a.result.jobs.iter().all(|j| j.completed_ms.is_some()),
        "a tenant's job was lost to the crash"
    );
    let report = TenantReport::new(&stream, &a.result);
    assert_eq!(report.tenants.len(), 2);
    for t in &report.tenants {
        assert_eq!(t.completed, 3, "{}: wrong completion count", t.name);
        assert_eq!(t.rejected, 0);
    }
    let b = run();
    assert_eq!(a.result.fingerprint(), b.result.fingerprint());
    assert_eq!(a.result.jobs, b.result.jobs);
}

/// Shared sources actually share: with input sharing on, a later job's
/// scan of the same dataset hits blocks the earlier job materialized or
/// cached — visible as per-tenant cache hits for *both* tenants.
#[test]
fn shared_inputs_give_cross_tenant_cache_hits() {
    let scale = Scale::tiny();
    let mk = |tenant: u32, at: u64| StreamJob {
        tenant,
        name: format!("t{tenant}"),
        arrival: ArrivalSpec::Open { at },
        dag: Workload::ConnectedComponent.build(&scale),
    };
    let jobs = vec![mk(0, 0), mk(1, 15_000)];
    let cluster = ClusterConfig::tiny(4, 8);
    let shared = TenantStream::from_jobs(
        &jobs,
        Vec::new(),
        &StreamOptions {
            share_inputs: true,
            static_release: false,
        },
    );
    let out = run_tenant_stream(
        &shared,
        &cluster,
        TenantPolicy::WeightedFairDagon,
        AdmissionConfig::default(),
    );
    let report = TenantReport::new(&shared, &out.result);
    assert!(
        report.tenants[1].cache_hits > 0,
        "tenant 1 re-scanned a shared dataset without hitting cache"
    );
}

/// Rejection under the stage-scoped locality index: a burst against a
/// one-job cap and a two-slot queue bounces jobs whose root stages were
/// schedulable in the merged DAG before admission gated them. The run
/// completes with the debug oracle checking every active stage at every
/// scheduling opportunity, and only admitted jobs' stages are ever folded
/// into the inverted index — each exactly once, since the run is
/// fault-free.
#[test]
fn rejected_jobs_never_activate_their_stages() {
    let tenants = vec![TenantSpec {
        name: "burst".into(),
        weight: 1,
        mix: vec![Workload::KMeans, Workload::ConnectedComponent],
        tasks: BoundedPareto::fixed(4.0),
        client: ClientKind::OpenPoisson {
            jobs: 6,
            mean_interarrival_ms: 10,
        },
    }];
    let stream = TenantStream::generate(&tenants, 3, &Scale::tiny(), &StreamOptions::default());
    let adm = AdmissionConfig {
        max_concurrent_jobs: 1,
        queue_cap: 2,
        ..Default::default()
    };
    let out = run_tenant_stream(
        &stream,
        &ClusterConfig::tiny(2, 4),
        TenantPolicy::WeightedFairDagon,
        adm,
    );
    let rejected: Vec<u32> = out
        .result
        .jobs
        .iter()
        .filter(|j| j.rejected)
        .map(|j| j.job)
        .collect();
    assert!(
        !rejected.is_empty(),
        "burst under cap 1 + queue 2 must reject"
    );
    let rejected_stages: usize = rejected
        .iter()
        .map(|&j| stream.specs[j as usize].stages.len())
        .sum();
    let s = &out.result.metrics.sched;
    assert_eq!(
        s.inv_stage_activations,
        (stream.dag.num_stages() - rejected_stages) as u64,
        "a rejected job's stage was folded into the inverted index"
    );
    assert_eq!(s.inv_index_rebuilds, 1);
    assert!(out
        .result
        .jobs
        .iter()
        .all(|j| j.rejected != j.completed_ms.is_some()));
}
