//! `dagon-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One seeded, single-threaded process per workload. It sets the inputs up
//! several times, runs one reference experiment through `dagon_core`'s own
//! entry points, then repeats experiments for `--seconds`. With `--trace 0`
//! it reports the end-to-end metrics; with `--trace 1` it interleaves
//! untraced experiments with traced ones (every layer wrapped at its trait
//! boundary) and reports the per-layer metrics. Every experiment must
//! reproduce the reference fingerprint, and at the workload's default seed
//! the pinned one; a panic or a mismatch counts as a failed experiment.
//! The last line of standard output is one JSON object; the lines before
//! it are a human-readable table with sample counts and quartiles.

mod host;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use dagon_cluster::SimResult;

use host::{now_ns, peak_rss_mb, Reference, Rounds};
use stats::{median, nearest_rank, quartiles, ratio};
use trace::{calibrate, Span, TimerCost};
use workload::{
    outcome, run_reference, run_traced, run_untraced, setup, Inputs, Name, Outcome, SetupTimes,
};

const USAGE: &str = "usage: dagon-perfbench --workload <cc_paper_dagon|km_paper_spark|\
cc_scale200_dagon|tenant200_wfair> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Set-up rounds per run (each sets up once per CPU).
const SETUP_ROUNDS: usize = 15;
/// Experiment rounds a run makes even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 3;

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("wall_ms", "ms"),
    ("ns_per_decision", "ns"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("jct_s", "s"),
    ("cache_hit_ratio", "ratio"),
    ("cpu_util", "ratio"),
    ("job_jct_p50_s", "s"),
    ("job_jct_p80_s", "s"),
    ("jain_fairness", "ratio"),
];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.build_ms", "ms"),
    ("tenancy.generate_ms", "ms"),
    ("profiler.estimate_ms", "ms"),
    ("sched.init_ms", "ms"),
    ("cluster.init_ms", "ms"),
    ("cluster.self_ms", "ms"),
    ("cluster.view.deltas_per_decision", "count/decision"),
    ("cluster.view.ect_heap_pops_per_decision", "count/decision"),
    (
        "cluster.locality_index.inv_updates_per_decision",
        "count/decision",
    ),
    (
        "cluster.locality_index.inv_gate_hits_per_decision",
        "count/decision",
    ),
    ("cluster.locality_index.valid_level_rebuilds", "count"),
    ("sched.schedule.calls", "count"),
    ("sched.schedule.ms", "ms"),
    ("sched.schedule.us_p50", "us"),
    ("sched.schedule.us_p99", "us"),
    ("sched.hooks.ms", "ms"),
    ("sched.order.rank_calls", "count"),
    ("sched.order.rank_ms", "ms"),
    ("sched.placement.pick_calls", "count"),
    ("sched.placement.pick_ms", "ms"),
    ("sched.placement.pick_yield", "ratio"),
    ("sched.assign.self_ms", "ms"),
    ("sched.assign.discard_ratio", "ratio"),
    ("cache.victim_calls", "count"),
    ("cache.victim_ms", "ms"),
    ("cache.proactive_calls", "count"),
    ("cache.proactive_ms", "ms"),
    ("cache.proactive_yield", "ratio"),
    ("cache.prefetch_calls", "count"),
    ("cache.prefetch_ms", "ms"),
    ("cache.prefetch_used_ratio", "ratio"),
    ("cache.other_calls", "count"),
    ("cache.other_ms", "ms"),
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.residual_overhead_ratio", "ratio"),
    ("bench.traced_wall_ms", "ms"),
];

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Name::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

/// A metric's value plus the samples it was reduced from.
struct Value {
    value: f64,
    samples: Vec<f64>,
}

/// Failure accounting and the correctness gate.
struct Gate {
    attempted: u64,
    failed: u64,
    /// Fingerprint every experiment must reproduce.
    expect: Option<u64>,
    /// Per-layer counts every traced experiment must repeat.
    counts: Option<Vec<u64>>,
    problems: Vec<String>,
}

impl Gate {
    /// Count one experiment by its fingerprint (`None`: it panicked).
    fn check(&mut self, what: &str, fp: Option<u64>) -> bool {
        self.attempted += 1;
        let problem = match (fp, self.expect) {
            (None, _) => format!("{what}: panicked"),
            (Some(fp), Some(want)) if fp != want => {
                format!("{what}: fingerprint {fp:#018x} != expected {want:#018x}")
            }
            (Some(fp), want) => {
                self.expect = want.or(Some(fp));
                return true;
            }
        };
        self.failed += 1;
        self.problems.push(problem);
        false
    }
}

type Metrics = BTreeMap<&'static str, Value>;

/// Record metric `n` as the median of its `samples`.
fn put(metrics: &mut Metrics, n: &'static str, samples: Vec<f64>) {
    let value = median(&samples);
    metrics.insert(n, Value { value, samples });
}

fn catch<T>(f: impl FnOnce() -> T) -> Option<T> {
    panic::catch_unwind(AssertUnwindSafe(f)).ok()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let name = args.workload;
    let rounds = Rounds::new();
    let mut gate = Gate {
        attempted: 0,
        failed: 0,
        expect: None,
        counts: None,
        problems: Vec::new(),
    };
    let mut metrics: Metrics = BTreeMap::new();

    // Set-up: generate the inputs several times; they must not differ.
    let reference = Reference::new();
    let mut setups: Vec<(SetupTimes, f64)> = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUP_ROUNDS {
        let round = rounds.round(|| reference.measure(|| setup(name, args.seed)));
        for ((inp, t), _, scale) in round {
            setups.push((t, scale));
            match &inputs {
                None => inputs = Some(inp),
                Some(first) if first.est != inp.est => {
                    gate.problems.push("set-up is not deterministic".into());
                }
                Some(_) => {}
            }
        }
    }
    let Some(inputs) = inputs else {
        eprintln!("no set-up completed");
        std::process::exit(1);
    };
    // One set-up part over every sample, in ns; `scaled` rescales each
    // sample to the reference's nominal host speed.
    let setup_of = |part: fn(&SetupTimes) -> u64, scaled: bool| -> Vec<f64> {
        setups
            .iter()
            .map(|(t, k)| part(t) as f64 * if scaled { *k } else { 1.0 })
            .collect()
    };

    // Reference experiment through `dagon_core`, pinned at the default seed.
    if args.seed == name.default_seed() {
        gate.expect = Some(name.pinned().1);
    }
    let out: Option<Outcome> = catch(|| run_reference(&inputs)).map(|r| outcome(&inputs, &r));
    gate.check("reference", out.map(|o| o.fingerprint));
    if let (Some(o), true) = (out, args.seed == name.default_seed()) {
        if o.jct_ms != name.pinned().0 {
            gate.problems
                .push(format!("jct {} != pinned {}", o.jct_ms, name.pinned().0));
        }
    }

    // Timed experiments.
    let budget = (args.seconds.max(0.0) * 1e9) as u64;
    let loop_start = now_ns();
    // Untraced experiment times, rescaled and raw.
    let mut walls: Vec<f64> = Vec::new();
    let mut raw_walls: Vec<f64> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut rounds_done = 0;
    while rounds_done < MIN_ROUNDS || now_ns() - loop_start < budget {
        rounds_done += 1;
        let round = rounds.round(|| reference.measure(|| catch(|| run_untraced(&inputs))));
        for (r, ns, scale) in round {
            if gate.check("experiment", r.as_ref().map(SimResult::fingerprint)) {
                raw_walls.push(ns as f64 / 1e6);
                walls.push(ns as f64 * scale / 1e6);
            }
        }
        if args.trace {
            let round = rounds.round(|| {
                let cost = calibrate(5, 20_000);
                catch(|| run_traced(&inputs)).map(|traced| Sample { traced, cost })
            });
            for s in round {
                let Some(s) = s else {
                    gate.check("traced experiment", None);
                    continue;
                };
                let counts = s.counts();
                if !gate.check("traced experiment", Some(s.traced.result.fingerprint())) {
                    continue;
                }
                match &gate.counts {
                    Some(c) if *c != counts => {
                        gate.failed += 1;
                        gate.problems.push("traced counts did not repeat".into());
                    }
                    Some(_) => traced.push(s.summary()),
                    None => {
                        gate.counts = Some(counts);
                        traced.push(s.summary());
                    }
                }
            }
        }
    }
    let Some(out) = out else {
        finish(&gate, &metrics, args.trace);
        return;
    };
    if !args.trace {
        let per_dec: Vec<f64> = walls
            .iter()
            .map(|ms| ms * 1e6 / out.decisions.max(1) as f64)
            .collect();
        put(&mut metrics, "ns_per_decision", per_dec);
        let (q1, q3) = quartiles(&raw_walls);
        println!(
            "# {} seed {}: {} decisions (ns_per_decision base), {} samples on {} CPUs; \
             raw wall_ms median {} q1 {q1} q3 {q3}",
            name.as_str(),
            args.seed,
            out.decisions,
            walls.len(),
            rounds.width(),
            median(&raw_walls),
        );
        put(&mut metrics, "wall_ms", walls);
        put(&mut metrics, "peak_rss_mb", vec![peak_rss_mb()]);
        put(
            &mut metrics,
            "setup_s",
            setup_of(SetupTimes::total_ns, true)
                .iter()
                .map(|ns| ns / 1e9)
                .collect(),
        );
        put(&mut metrics, "jct_s", vec![out.jct_ms as f64 / 1e3]);
        put(&mut metrics, "cache_hit_ratio", vec![out.cache_hit_ratio]);
        put(&mut metrics, "cpu_util", vec![out.cpu_util]);
        put(
            &mut metrics,
            "job_jct_p50_s",
            vec![out.job_p50_ms as f64 / 1e3],
        );
        put(
            &mut metrics,
            "job_jct_p80_s",
            vec![out.job_p80_ms as f64 / 1e3],
        );
        put(&mut metrics, "jain_fairness", vec![out.jain]);
    } else {
        put(
            &mut metrics,
            "workloads.build_ms",
            setup_of(|t| t.build_ns, false)
                .iter()
                .map(|n| n / 1e6)
                .collect(),
        );
        put(
            &mut metrics,
            "tenancy.generate_ms",
            setup_of(|t| t.generate_ns, false)
                .iter()
                .map(|n| n / 1e6)
                .collect(),
        );
        put(
            &mut metrics,
            "profiler.estimate_ms",
            setup_of(|t| t.estimate_ns, false)
                .iter()
                .map(|n| n / 1e6)
                .collect(),
        );
        // The breakdown is that of the traced experiment with the median
        // corrected wall, so its parts add up to its wall.
        traced.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
        if let Some(s) = traced.get(traced.len().saturating_sub(1) / 2) {
            for &(n, v) in &s.layers {
                put(&mut metrics, n, vec![v]);
            }
        }
        let untraced_ms = median(&raw_walls);
        put(
            &mut metrics,
            "bench.timer_ns",
            traced.iter().map(|s| s.timer_ns).collect(),
        );
        put(
            &mut metrics,
            "bench.trace_overhead_ratio",
            traced.iter().map(|s| s.raw_ms / untraced_ms).collect(),
        );
        put(
            &mut metrics,
            "bench.residual_overhead_ratio",
            traced.iter().map(|s| s.wall_ms / untraced_ms).collect(),
        );
    }
    finish(&gate, &metrics, args.trace);
}

/// One traced experiment with its timer calibration.
struct Sample {
    traced: workload::Traced,
    cost: TimerCost,
}

/// What a run keeps of one traced experiment.
struct Summary {
    /// Wall with the wrappers' cost removed, ms.
    wall_ms: f64,
    /// Wall as measured, ms.
    raw_ms: f64,
    timer_ns: f64,
    layers: Vec<(&'static str, f64)>,
}

impl Sample {
    fn summary(&self) -> Summary {
        Summary {
            wall_ms: self.wall_ms(),
            raw_ms: self.traced.wall_ns as f64 / 1e6,
            timer_ns: self.cost.full_ns,
            layers: self.layers(),
        }
    }

    /// Counts that must repeat exactly: the trace's and the simulator's.
    fn counts(&self) -> Vec<u64> {
        let s = &self.traced.result.metrics.sched;
        let mut v = self.traced.tracer.borrow().counts();
        v.extend([
            s.schedule_invocations,
            s.view_deltas,
            s.ect_heap_pops,
            s.inv_index_updates,
            s.inv_index_hits,
            s.valid_level_rebuilds,
            s.assignments_discarded,
        ]);
        v
    }

    /// Traced wall with every wrapper's cost removed, in ms.
    fn wall_ms(&self) -> f64 {
        let calls = self.traced.tracer.borrow().wrapped_calls();
        (self.traced.wall_ns as f64 - calls as f64 * self.cost.full_ns) / 1e6
    }

    /// The per-layer breakdown of this experiment.
    fn layers(&self) -> Vec<(&'static str, f64)> {
        let t = self.traced.tracer.borrow();
        let c = self.cost;
        let span = |s: Span| t.span(s);
        let ms = |s: Span| span(s).total_ns(c) / 1e6;
        let st = &self.traced.result.metrics.sched;
        let cache = &self.traced.result.metrics.cache;
        let dec = workload::decisions(&self.traced.result) as f64;
        let top_ms = [
            Span::Schedule,
            Span::Hooks,
            Span::Victim,
            Span::Proactive,
            Span::Prefetch,
            Span::CacheOther,
        ]
        .iter()
        .map(|&s| ms(s))
        .sum::<f64>();
        let mut lat: Vec<f64> = t
            .schedule_calls
            .iter()
            .map(|&(d, nested)| (d as f64 - c.inner_ns - nested as f64 * c.full_ns) / 1e3)
            .collect();
        lat.sort_by(f64::total_cmp);
        vec![
            (
                "cluster.self_ms",
                self.wall_ms() - self.traced.sched_init_ns as f64 / 1e6 - top_ms,
            ),
            (
                "cluster.view.deltas_per_decision",
                ratio(st.view_deltas as f64, dec),
            ),
            (
                "cluster.view.ect_heap_pops_per_decision",
                ratio(st.ect_heap_pops as f64, dec),
            ),
            (
                "cluster.locality_index.inv_updates_per_decision",
                ratio(st.inv_index_updates as f64, dec),
            ),
            (
                "cluster.locality_index.inv_gate_hits_per_decision",
                ratio(st.inv_index_hits as f64, dec),
            ),
            (
                "cluster.locality_index.valid_level_rebuilds",
                st.valid_level_rebuilds as f64,
            ),
            ("sched.schedule.calls", span(Span::Schedule).calls as f64),
            ("sched.schedule.ms", ms(Span::Schedule)),
            ("sched.schedule.us_p50", nearest_rank(&lat, 0.50)),
            ("sched.schedule.us_p99", nearest_rank(&lat, 0.99)),
            ("sched.hooks.ms", ms(Span::Hooks)),
            ("sched.order.rank_calls", span(Span::Rank).calls as f64),
            ("sched.order.rank_ms", ms(Span::Rank)),
            ("sched.placement.pick_calls", span(Span::Pick).calls as f64),
            ("sched.placement.pick_ms", ms(Span::Pick)),
            (
                "sched.placement.pick_yield",
                ratio(t.picks_placed as f64, span(Span::Pick).calls as f64),
            ),
            (
                "sched.assign.self_ms",
                span(Span::Schedule).self_ns(c) / 1e6,
            ),
            (
                "sched.assign.discard_ratio",
                ratio(st.assignments_discarded as f64, t.emitted as f64),
            ),
            ("cache.victim_calls", span(Span::Victim).calls as f64),
            ("cache.victim_ms", ms(Span::Victim)),
            ("cache.proactive_calls", span(Span::Proactive).calls as f64),
            ("cache.proactive_ms", ms(Span::Proactive)),
            (
                "cache.proactive_yield",
                ratio(
                    t.proactive_victims as f64,
                    span(Span::Proactive).calls as f64,
                ),
            ),
            ("cache.prefetch_calls", span(Span::Prefetch).calls as f64),
            ("cache.prefetch_ms", ms(Span::Prefetch)),
            (
                "cache.prefetch_used_ratio",
                ratio(cache.prefetch_used as f64, cache.prefetches as f64),
            ),
            ("cache.other_calls", span(Span::CacheOther).calls as f64),
            ("cache.other_ms", ms(Span::CacheOther)),
            ("sched.init_ms", self.traced.sched_init_ns as f64 / 1e6),
            ("cluster.init_ms", self.traced.cluster_init_ns as f64 / 1e6),
            ("bench.traced_wall_ms", self.wall_ms()),
        ]
    }
}

/// Print the table and the result line.
fn finish(gate: &Gate, metrics: &Metrics, trace: bool) {
    for p in &gate.problems {
        eprintln!("check failed: {p}");
    }
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (n, unit) in list {
        let (value, samples) = metrics
            .get(n)
            .map_or((0.0, &[][..]), |v| (v.value, &v.samples[..]));
        let (q1, q3) = quartiles(samples);
        println!(
            "{n:<52} {value:>16.6} {unit:<15} n={:<4} q1={q1:.6} q3={q3:.6}",
            samples.len()
        );
        let value = if value.is_finite() { value } else { 0.0 };
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{n}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = gate.failed == 0 && gate.problems.is_empty() && !metrics.is_empty();
    println!(
        "# attempted {} failed {} failed_ratio {}",
        gate.attempted,
        gate.failed,
        ratio(gate.failed as f64, gate.attempted as f64)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        gate.attempted.max(1),
        gate.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_core::experiments::ExpConfig;
    use dagon_core::System;
    use dagon_profiler::AppProfiler;
    use dagon_workloads::Workload;
    use workload::Job;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_default_to_the_pinned_seed() {
        let a = args("--workload tenant200_wfair --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = args("--workload km_paper_spark --seed 12").unwrap();
        assert_eq!((a.seed, a.trace), (12, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload km_paper_spark --trace 2").is_err());
        assert!(args("--workload km_paper_spark --seed").is_err());
    }

    #[test]
    fn metric_names_and_units_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let want: Vec<&str> = Name::ALL
            .iter()
            .map(|n| n.as_str())
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0))
            .collect();
        assert_eq!(names, want);
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    fn traced_sample() -> (Sample, Outcome) {
        let cfg = ExpConfig::quick();
        let dag = Workload::ConnectedComponent.build(&cfg.scale);
        let inp = Inputs {
            est: AppProfiler::noisy(0.10, cfg.cluster.seed).estimate(&dag),
            job: Job::Batch {
                dag,
                system: System::dagon(),
            },
            cluster: cfg.cluster,
        };
        let traced = run_traced(&inp);
        let out = outcome(&inp, &traced.result);
        let cost = calibrate(3, 10_000);
        (Sample { traced, cost }, out)
    }

    #[test]
    fn layer_times_add_up_to_the_corrected_traced_wall() {
        let (s, _) = traced_sample();
        let l: BTreeMap<&str, f64> = s.layers().into_iter().collect();
        let parts = l["cluster.self_ms"]
            + l["sched.init_ms"]
            + l["sched.schedule.ms"]
            + l["sched.hooks.ms"]
            + l["cache.victim_ms"]
            + l["cache.proactive_ms"]
            + l["cache.prefetch_ms"]
            + l["cache.other_ms"];
        assert!(
            (parts - l["bench.traced_wall_ms"]).abs() < 1e-6,
            "{parts} vs {l:?}"
        );
        // Order and placement run inside `schedule`; its self time is the rest.
        let inside =
            l["sched.order.rank_ms"] + l["sched.placement.pick_ms"] + l["sched.assign.self_ms"];
        assert!(inside <= l["sched.schedule.ms"] + 1e-6);
        for (n, _) in PER_LAYER {
            let known = l.contains_key(n)
                || n.starts_with("bench.")
                || [
                    "workloads.build_ms",
                    "tenancy.generate_ms",
                    "profiler.estimate_ms",
                ]
                .contains(&n);
            assert!(known, "{n} is never computed");
        }
    }

    #[test]
    fn every_ratio_is_taken_on_its_stated_base() {
        let (s, out) = traced_sample();
        let l: BTreeMap<&str, f64> = s.layers().into_iter().collect();
        let r = &s.traced.result;
        let (st, cache) = (&r.metrics.sched, &r.metrics.cache);
        let t = s.traced.tracer.borrow();
        let decisions = r
            .metrics
            .task_runs
            .iter()
            .filter(|t| !t.speculative)
            .count() as f64;
        assert_eq!(out.decisions as f64, decisions);
        assert_eq!(
            l["cluster.view.deltas_per_decision"],
            st.view_deltas as f64 / decisions
        );
        assert_eq!(
            l["cluster.view.ect_heap_pops_per_decision"],
            st.ect_heap_pops as f64 / decisions
        );
        assert_eq!(
            l["cluster.locality_index.inv_updates_per_decision"],
            st.inv_index_updates as f64 / decisions
        );
        assert_eq!(
            l["cluster.locality_index.inv_gate_hits_per_decision"],
            st.inv_index_hits as f64 / decisions
        );
        // Every assignment `schedule` returned was either applied or
        // discarded: the base of the discard ratio.
        assert_eq!(t.emitted, out.decisions + st.assignments_discarded);
        assert_eq!(
            l["sched.assign.discard_ratio"],
            st.assignments_discarded as f64 / t.emitted as f64
        );
        // Each applied or discarded assignment came from one successful pick.
        assert_eq!(t.picks_placed, t.emitted);
        assert_eq!(
            l["sched.placement.pick_yield"],
            t.picks_placed as f64 / l["sched.placement.pick_calls"]
        );
        // Every block `proactive_victims` returned was proactively evicted.
        assert_eq!(t.proactive_victims, cache.proactive_evictions);
        assert_eq!(
            l["cache.proactive_yield"],
            cache.proactive_evictions as f64 / l["cache.proactive_calls"]
        );
        assert_eq!(
            l["cache.prefetch_used_ratio"],
            ratio(cache.prefetch_used as f64, cache.prefetches as f64)
        );
        assert_eq!(l["sched.schedule.calls"], st.schedule_invocations as f64);
    }
}
