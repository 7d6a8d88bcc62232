//! Shape tests: the qualitative results the paper reports must hold on the
//! full-scale experiment configuration. These are the reproduction's
//! acceptance tests — magnitudes are allowed to differ from the paper (our
//! substrate is a simulator, not the authors' testbed), orderings are not.
//!
//! They run the paper-scale simulator configuration and take a few seconds
//! each in release mode (`cargo test --release`).

use dagon_cache::{table1, PolicyKind};
use dagon_core::experiments::{self, ExpConfig};
use dagon_core::system::{PlaceKind, SchedKind, System};
use dagon_core::tiny_exec::{self, Mode};
use dagon_dag::examples::fig1;
use dagon_dag::{BlockId, RddId};
use dagon_workloads::Workload;

fn paper_cfg() -> ExpConfig {
    let mut cfg = ExpConfig::paper();
    cfg.seeds = 2; // keep test runtime moderate
    cfg
}

#[test]
fn fig2_makespans_are_exact() {
    let dag = fig1();
    assert_eq!(tiny_exec::run_tiny(&dag, 16, Mode::Fifo).makespan, 16);
    assert_eq!(tiny_exec::run_tiny(&dag, 16, Mode::DagAware).makespan, 12);
}

#[test]
fn table1_orderings_match_paper() {
    let dag = fig1();
    let initial = [BlockId::new(RddId(0), 0)];
    let hits = |sched: &[table1::Step], p| table1::replay(&dag, sched, 3, p, &initial).hits;
    let fifo = table1::fifo_schedule();
    let dagaware = table1::dag_aware_schedule();
    // MRD ≫ LRU under FIFO; both degrade under the DAG-aware schedule;
    // LRP > MRD under the DAG-aware schedule.
    assert!(hits(&fifo, PolicyKind::Mrd) > hits(&fifo, PolicyKind::Lru) + 2);
    assert!(hits(&dagaware, PolicyKind::Mrd) < hits(&fifo, PolicyKind::Mrd));
    assert!(hits(&dagaware, PolicyKind::Lrp) > hits(&dagaware, PolicyKind::Mrd));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale simulation; run with --release"
)]
fn fig3_shape_scans_inflate_iterations_stay_fast() {
    // Case-study cluster: enabling the 3 s wait must lengthen the
    // insensitive scan stages (0 and 16) while iteration stages stay at
    // sub-second process-local durations.
    let cfg = ExpConfig::case_study();
    let rows = experiments::fig3(&cfg);
    let wait0 = &rows[0];
    let wait3 = &rows[2];
    assert!(
        wait3.stage_durations_s[0] > wait0.stage_durations_s[0] * 1.2,
        "stage 0: {} -> {}",
        wait0.stage_durations_s[0],
        wait3.stage_durations_s[0]
    );
    assert!(
        wait3.stage_durations_s[16] > wait0.stage_durations_s[16] * 1.2,
        "stage 16: {} -> {}",
        wait0.stage_durations_s[16],
        wait3.stage_durations_s[16]
    );
    for i in 1..=15 {
        assert!(
            wait3.stage_durations_s[i] < 2.0,
            "iter {i}: {}",
            wait3.stage_durations_s[i]
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale simulation; run with --release"
)]
fn fig9_shape_dagon_ta_beats_fifo_on_every_workload() {
    let cfg = paper_cfg();
    let data = experiments::fig9(
        &cfg,
        &[
            Workload::LinearRegression,
            Workload::KMeans,
            Workload::ConnectedComponent,
        ],
    );
    for (w, cells) in &data.jct {
        let fifo = cells[0].1;
        let dagon = cells[2].1;
        assert!(dagon < fifo, "{w}: Dagon-TA {dagon} vs FIFO {fifo}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale simulation; run with --release"
)]
fn fig10_shape_sensitivity_reduces_mean_jct_and_high_locality_waste() {
    let cfg = paper_cfg();
    let rows = experiments::fig10(
        &cfg,
        &[
            Workload::LogisticRegression,
            Workload::KMeans,
            Workload::TriangleCount,
        ],
    );
    let pairs: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.jct_delay_s, r.jct_sensitivity_s))
        .collect();
    let imp = experiments::mean_improvement(&pairs);
    assert!(imp > 0.05, "mean improvement {imp}");
    let hi_d: usize = rows.iter().map(|r| r.hi_loc_insensitive_delay).sum();
    let hi_s: usize = rows.iter().map(|r| r.hi_loc_insensitive_sensitivity).sum();
    assert!(
        hi_s < hi_d,
        "high-locality insensitive launches {hi_d} -> {hi_s}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale simulation; run with --release"
)]
fn fig11_shape_dagon_lrp_fastest_on_io_workloads() {
    let cfg = paper_cfg();
    let rows = experiments::fig11(&cfg, &[Workload::ConnectedComponent, Workload::PageRank]);
    for r in &rows {
        let by = |label: &str| {
            r.cells
                .iter()
                .find(|c| c.label == label)
                .map(|c| c.jct_s)
                .unwrap()
        };
        let lru = by("FIFO+LRU");
        let dagon_lrp = by("Dagon+LRP");
        let dagon_mrd = by("Dagon+MRD");
        assert!(
            dagon_lrp < lru * 0.95,
            "{}: {dagon_lrp} vs LRU {lru}",
            r.workload
        );
        assert!(
            dagon_lrp <= dagon_mrd * 1.02,
            "{}: LRP {dagon_lrp} vs MRD {dagon_mrd}",
            r.workload
        );
        // MRD improves raw hit counts over LRU under FIFO.
        let hr = |label: &str| {
            r.cells
                .iter()
                .find(|c| c.label == label)
                .map(|c| c.hit_ratio)
                .unwrap()
        };
        assert!(hr("FIFO+MRD") > hr("FIFO+LRU"), "{}", r.workload);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale simulation; run with --release"
)]
fn fig8_shape_dagon_beats_stock_spark_overall() {
    let cfg = paper_cfg();
    let data = experiments::fig8(
        &cfg,
        &[
            Workload::LogisticRegression,
            Workload::KMeans,
            Workload::ConnectedComponent,
            Workload::PregelOperation,
        ],
    );
    let pairs: Vec<(f64, f64)> = data
        .iter()
        .map(|r| (r.cells[0].jct_s, r.cells[3].jct_s))
        .collect();
    let imp = experiments::mean_improvement(&pairs);
    assert!(imp > 0.10, "Dagon vs stock mean improvement only {imp}");
    // And Dagon's mean CPU utilization is the highest of the lineup on the
    // I/O-heavy subset.
    let io_rows: Vec<_> = data
        .iter()
        .filter(|r| {
            matches!(
                r.workload,
                Workload::ConnectedComponent | Workload::PregelOperation
            )
        })
        .collect();
    let util =
        |i: usize| io_rows.iter().map(|r| r.cells[i].cpu_util).sum::<f64>() / io_rows.len() as f64;
    assert!(
        util(3) > util(0),
        "Dagon util {} vs stock {}",
        util(3),
        util(0)
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "paper-scale simulation; run with --release"
)]
fn sensitivity_on_kmeans_recovers_most_of_disabled_delay() {
    // The §II-A promise: sensitivity-aware scheduling should keep the
    // iteration stages' locality wins without paying the scans' idling tax.
    let cfg = ExpConfig::case_study();
    let dag = Workload::KMeans.build(&cfg.scale);
    let delay = dagon_core::run_system(
        &dag,
        &cfg.cluster,
        &System::new(SchedKind::Dagon, PlaceKind::NativeDelay, PolicyKind::Lru),
    );
    let sens = dagon_core::run_system(
        &dag,
        &cfg.cluster,
        &System::new(SchedKind::Dagon, PlaceKind::Sensitivity, PolicyKind::Lru),
    );
    assert!(
        sens.result.jct < delay.result.jct,
        "sens {} vs delay {}",
        sens.result.jct,
        delay.result.jct
    );
}

/// Fig. 4's executor traces at quick scale, pinned: which executors come
/// out starved (A) and busy (B), how many samples each trace holds, and the
/// total node-local pending backlog each one saw.
#[test]
// The samples are task counts stored as f64: their sums are exact.
#[allow(clippy::float_cmp)]
fn fig4_exec_traces_are_pinned() {
    let t = experiments::fig4(&ExpConfig::quick());
    assert_eq!((t.exec_a, t.exec_b), (3, 5));
    assert_eq!((t.pending_a.len(), t.pending_b.len()), (325, 325));
    let total = |ps: &[dagon_cluster::TimePoint]| ps.iter().map(|p| p.v).sum::<f64>();
    assert_eq!(total(&t.pending_a), 1100.0);
    assert_eq!(total(&t.pending_b), 926.0);
}
