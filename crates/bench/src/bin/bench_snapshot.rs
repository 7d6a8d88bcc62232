//! `bench_snapshot` — one-shot scheduler-overhead snapshot.
//!
//! Runs the same workloads as the `sim_throughput` Criterion bench and
//! writes `BENCH_7.json` at the repo root: per-workload wall-clock
//! milliseconds, a per-scheduling-decision cost (`ns_per_decision`), and
//! the scheduling fast-path counters (`schedule_invocations`,
//! `view_deltas`, `valid_level_rebuilds`, `inv_index_*`, …). Unlike Criterion
//! this is cheap enough for CI and produces a single machine-readable
//! file to diff across commits.
//!
//! The `tenant_stream_200` row drives the seeded 3-tenant / 55-job
//! arrival stream from `fig_tenant_sweep` (load 1.0) through dynamic
//! admission on the 200-executor sweep cluster; it adds `p99_jct_ms` and
//! `jain_fairness` columns on top of the usual counters, so the online
//! multi-tenant path is held to the same O(1)-rebuild gates as batch.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dagon-bench --bin bench_snapshot [out.json]
//!   [--out <path>]       output path (same as the positional form)
//!   [--filter <substr>]  only run rows whose name contains <substr>
//!   [--scale]            add the 20/200/2000-executor CC scale sweep
//!   [--repeat <N>]       take the median wall over N timed runs for every
//!                        row (overrides the built-in per-row sample
//!                        counts; single-run walls drifted 119–198 ms
//!                        across PRs 4–5)
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use dagon_cluster::{AdmissionConfig, ClusterConfig, FaultPlan};
use dagon_core::experiments::ExpConfig;
use dagon_core::tenancy::{run_tenant_stream, sweep_cluster, sweep_tenants, TenantPolicy};
use dagon_core::{run_system, System};
use dagon_tenancy::{StreamOptions, TenantStream};
use dagon_workloads::{Scale, Workload};

struct Row {
    name: String,
    wall_ms: f64,
    jct_ms: u64,
    /// Applied non-speculative launches: one per scheduling decision that
    /// made it into the simulated schedule.
    decisions: u64,
    /// `wall_ms / decisions`, in nanoseconds — the headline scheduler
    /// hot-path cost, comparable across cluster sizes.
    ns_per_decision: f64,
    /// Stages in the simulated DAG (the merged DAG for a stream): the
    /// bound on `inv_stage_activations` in a fault-free run.
    stages: usize,
    /// Tail JCT over the stream's completed jobs — multi-tenant rows only.
    p99_jct_ms: Option<u64>,
    /// Jain's index over per-tenant mean JCT — multi-tenant rows only.
    jain_fairness: Option<f64>,
    sched: dagon_cluster::SchedulerStats,
    cache: dagon_cluster::CacheStats,
    faults: dagon_cluster::FaultStats,
}

/// One point of the `--scale` sweep: CC on progressively larger clusters,
/// tasks scaled with the core count (same ~waves-per-stage ratio), the
/// largest point stretched to ~1M total task launches.
struct SweepPoint {
    execs: u32,
    racks: &'static [u32],
    execs_per_node: u32,
    tasks: u32,
    iterations: u32,
}

const SWEEP: &[SweepPoint] = &[
    SweepPoint {
        execs: 20,
        racks: &[5, 5],
        execs_per_node: 2,
        tasks: 160,
        iterations: 8,
    },
    SweepPoint {
        execs: 200,
        racks: &[25, 25],
        execs_per_node: 4,
        tasks: 1600,
        iterations: 8,
    },
    SweepPoint {
        execs: 2000,
        racks: &[125, 125, 125, 125],
        execs_per_node: 4,
        tasks: 16000,
        iterations: 28,
    },
];

fn sweep_config(p: &SweepPoint) -> ExpConfig {
    let mut cluster = ClusterConfig::paper_testbed();
    cluster.racks = p.racks.to_vec();
    cluster.execs_per_node = p.execs_per_node;
    cluster.exec_cache_mb = 1024.0;
    cluster.hdfs_replication = 1;
    assert_eq!(cluster.total_execs(), p.execs, "sweep shape drifted");
    ExpConfig {
        cluster,
        scale: Scale {
            tasks: p.tasks,
            block_mb: 128.0,
            iterations: p.iterations,
        },
        seeds: 1,
    }
}

fn measure(
    name: &str,
    dag: &dagon_dag::JobDag,
    cfg: &ExpConfig,
    sys: &System,
    samples: usize,
) -> Row {
    // One warm-up, then the median of `samples` timed runs: enough to damp
    // scheduler noise without Criterion's multi-second budget.
    let warm = run_system(dag, &cfg.cluster, sys);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let out = run_system(dag, &cfg.cluster, sys);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            out.result.jct, warm.result.jct,
            "nondeterministic run for {name}"
        );
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let wall_ms = times[samples / 2];
    let decisions = warm
        .result
        .metrics
        .task_runs
        .iter()
        .filter(|t| !t.speculative)
        .count() as u64;
    Row {
        name: name.to_string(),
        wall_ms,
        jct_ms: warm.result.jct,
        decisions,
        ns_per_decision: wall_ms * 1e6 / decisions.max(1) as f64,
        stages: dag.num_stages(),
        p99_jct_ms: None,
        jain_fairness: None,
        sched: warm.result.metrics.sched,
        cache: warm.result.metrics.cache,
        faults: warm.result.metrics.faults,
    }
}

/// The online multi-tenant row: the `fig_tenant_sweep` stream (3 tenants,
/// 55 jobs, load 1.0, seed 7) under WFair+Dagon with dynamic admission on
/// the 200-executor sweep cluster. Same warm-up + median-of-samples
/// protocol as [`measure`], with the stream's tail JCT and fairness index
/// carried into the snapshot alongside the scheduler counters.
fn measure_tenant(name: &str, samples: usize) -> Row {
    let seed = 7;
    let base = Scale {
        tasks: 8,
        block_mb: 64.0,
        iterations: 3,
    };
    let stream =
        TenantStream::generate(&sweep_tenants(1.0), seed, &base, &StreamOptions::default());
    let cluster = sweep_cluster(seed);
    let run = || {
        run_tenant_stream(
            &stream,
            &cluster,
            TenantPolicy::WeightedFairDagon,
            AdmissionConfig::default(),
        )
    };
    let warm = run();
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let out = run();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            out.result.jct, warm.result.jct,
            "nondeterministic run for {name}"
        );
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let wall_ms = times[samples / 2];
    let decisions = warm
        .result
        .metrics
        .task_runs
        .iter()
        .filter(|t| !t.speculative)
        .count() as u64;
    Row {
        name: name.to_string(),
        wall_ms,
        jct_ms: warm.result.jct,
        decisions,
        ns_per_decision: wall_ms * 1e6 / decisions.max(1) as f64,
        stages: stream.dag.num_stages(),
        p99_jct_ms: Some(warm.report.p99_jct_ms),
        jain_fairness: Some(warm.report.jain_fairness),
        sched: warm.result.metrics.sched,
        cache: warm.result.metrics.cache,
        faults: warm.result.metrics.faults,
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut filter: Option<String> = None;
    let mut scale_sweep = false;
    let mut repeat: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--filter" => filter = Some(args.next().expect("--filter needs a substring")),
            "--scale" => scale_sweep = true,
            "--repeat" => {
                let n: usize = args
                    .next()
                    .expect("--repeat needs a count")
                    .parse()
                    .expect("--repeat count must be a positive integer");
                assert!(n > 0, "--repeat count must be a positive integer");
                repeat = Some(n);
            }
            other if !other.starts_with('-') && out_path.is_none() => {
                out_path = Some(other.to_string());
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_7.json".into());
    let wanted = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));
    // `--repeat N` pins every row to the median of N timed runs.
    let samples_for = |default: usize| repeat.unwrap_or(default);

    let quick = ExpConfig::quick();
    let paper = ExpConfig::paper();

    let mut rows = Vec::new();
    for w in [Workload::KMeans, Workload::ConnectedComponent] {
        let dag = w.build(&quick.scale);
        for sys in [System::stock_spark(), System::dagon()] {
            let name = format!("run_{}_{}", w.abbrev(), sys);
            if wanted(&name) {
                rows.push(measure(&name, &dag, &quick, &sys, samples_for(5)));
            }
        }
    }
    if wanted("run_CC_paper_scale_dagon") {
        let cc = Workload::ConnectedComponent.build(&paper.scale);
        rows.push(measure(
            "run_CC_paper_scale_dagon",
            &cc,
            &paper,
            &System::dagon(),
            samples_for(5),
        ));
    }

    // Recovery overhead under a fixed chaos plan (same seed as the pinned
    // `CC-quick+chaos11/Dagon` golden row): wall cost of retries, lineage
    // recomputation and blacklisting on top of the fault-free CC run.
    if wanted("run_CC_dagon_faulty") {
        let cc_quick = Workload::ConnectedComponent.build(&quick.scale);
        let mut faulty = quick.clone();
        let n_exec = faulty.cluster.total_nodes() * faulty.cluster.execs_per_node;
        faulty.cluster.faults = Some(FaultPlan::chaos(11, n_exec, 60_000, &cc_quick));
        rows.push(measure(
            "run_CC_dagon_faulty",
            &cc_quick,
            &faulty,
            &System::dagon(),
            samples_for(5),
        ));
    }

    // Online multi-tenant stream at the 200-executor scale point: dynamic
    // admission, fair-share scheduling and the shared-input cache path all
    // exercised under the same counter gates as the batch rows.
    if wanted("tenant_stream_200") {
        rows.push(measure_tenant("tenant_stream_200", samples_for(3)));
    }

    if scale_sweep {
        for p in SWEEP {
            let name = format!("run_CC_scale_{}_dagon", p.execs);
            if !wanted(&name) {
                continue;
            }
            let cfg = sweep_config(p);
            let dag = Workload::ConnectedComponent.build(&cfg.scale);
            // Big points get fewer samples: the 2000-executor run launches
            // ~1M tasks over minutes of wall time, so noise amortizes and
            // one timed run (after the warm-up) is enough.
            let samples = samples_for(match p.execs {
                0..=199 => 5,
                200..=1999 => 3,
                _ => 1,
            });
            rows.push(measure(&name, &dag, &cfg, &System::dagon(), samples));
        }
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let s = &r.sched;
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"jct_ms\": {}, \
             \"decisions\": {}, \"ns_per_decision\": {:.1}, \"stages\": {}, \
             \"schedule_invocations\": {}, \"view_rebuilds\": {}, \
             \"view_deltas\": {}, \
             \"ready_list_rebuilds\": {}, \
             \"ect_heap_pops\": {}, \"ect_heap_stale\": {}, \
             \"batches_discarded\": {}, \"assignments_discarded\": {}, \
             \"locality_queries\": {}, \
             \"index_invalidations\": {}, \"valid_level_rebuilds\": {}, \
             \"inv_index_hits\": {}, \"inv_index_updates\": {}, \
             \"inv_index_rebuilds\": {}, \"inv_stage_activations\": {}, \
             \"inv_flip_diffs\": {}, \
             \"ticks\": {}, \"maint_passes\": {}, \
             \"prefetch_node_filters\": {}, \"prefetch_pool_visits\": {}, \
             \"spec_primary_visits\": {}, \"spec_oversubscriptions\": {}, \
             \"ledger_over_capacity\": {}, \
             \"exec_crashes\": {}, \"tasks_recomputed\": {}, \
             \"stage_resubmissions\": {}, \"task_failures\": {}",
            r.name,
            r.wall_ms,
            r.jct_ms,
            r.decisions,
            r.ns_per_decision,
            r.stages,
            s.schedule_invocations,
            s.view_rebuilds,
            s.view_deltas,
            s.ready_list_rebuilds,
            s.ect_heap_pops,
            s.ect_heap_stale,
            s.batches_discarded,
            s.assignments_discarded,
            s.locality_queries,
            s.index_invalidations,
            s.valid_level_rebuilds,
            s.inv_index_hits,
            s.inv_index_updates,
            s.inv_index_rebuilds,
            s.inv_stage_activations,
            s.inv_flip_diffs,
            r.cache.ticks,
            r.cache.maint_passes,
            r.cache.prefetch_node_filters,
            r.cache.prefetch_pool_visits,
            s.spec_primary_visits,
            s.spec_oversubscriptions,
            s.ledger_over_capacity,
            r.faults.exec_crashes,
            r.faults.tasks_recomputed,
            r.faults.stage_resubmissions,
            r.faults.task_failures,
        );
        if let (Some(p99), Some(jain)) = (r.p99_jct_ms, r.jain_fairness) {
            let _ = write!(
                json,
                ", \"p99_jct_ms\": {p99}, \"jain_fairness\": {jain:.6}"
            );
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot");
    for r in &rows {
        println!(
            "{:<28} {:>10.3} ms wall  jct {:>8} ms  {:>7} decisions  {:>9.1} ns/decision  \
             sched calls {:>7}  discarded {:>5}",
            r.name,
            r.wall_ms,
            r.jct_ms,
            r.decisions,
            r.ns_per_decision,
            r.sched.schedule_invocations,
            r.sched.assignments_discarded,
        );
    }
    println!("wrote {out_path}");
}
