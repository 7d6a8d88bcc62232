//! Task placement within a chosen stage: native delay scheduling [Zaharia
//! et al., EuroSys'10] vs Dagon's locality-sensitivity-aware variant
//! (Alg. 2 of the paper).
//!
//! Placement state (wait clocks, the resource-offer rotation cursor) is
//! mutated in place by every pick round, failed ones included, exactly as
//! Spark's `TaskSetManager` advances its locality timers on each offer.

use std::collections::BTreeMap;

use dagon_cluster::{ExecId, Locality, ScheduleShadow, SimView};
use dagon_dag::{SimTime, StageEstimates, StageId};

use crate::waits::WaitClock;

/// Rationale behind one successful [`Placement::pick`], captured only when
/// tracing is on. Estimate fields are `-1.0` when the placement does not
/// compute them (native delay scheduling has no Eq. 7 machinery).
#[derive(Clone, Copy, Debug)]
pub struct PlacementNote {
    /// Highest locality level the wait clock allowed at pick time.
    pub allowed: u8,
    /// Stage earliest-completion time `ect_i` (Eq. 7), sim-ms.
    pub ect_ms: f64,
    /// Estimated task duration at the picked level, sim-ms.
    pub est_ms: f64,
    /// Launch-above-allowed threshold the estimate was compared to, sim-ms.
    pub threshold_ms: f64,
}

/// Picks `(task, executor, locality)` for one stage, or `None` if the stage
/// should wait. Picks read free resources and pending tasks straight off
/// the view; `shadow` carries nothing and is kept only for signature
/// stability.
pub trait Placement {
    fn placement_name(&self) -> &'static str;

    fn pick(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        shadow: &ScheduleShadow,
    ) -> Option<(u32, ExecId, Locality)>;

    /// A launch of `stage` at `level` was picked; the simulator launches
    /// it before the next `pick`.
    fn on_launch(&mut self, stage: StageId, level: Locality, now: SimTime);

    /// A stage became pending (create its wait clock).
    fn on_stage_ready(&mut self, stage: StageId, now: SimTime);

    /// Retired undo-journal mark: placement state is never rolled back,
    /// so this is always 0. Kept for signature stability.
    fn journal_len(&self) -> usize {
        0
    }

    /// Retired undo-journal rollback; a no-op. Kept for signature
    /// stability.
    fn reconcile_journal(&mut self, _keep: usize) {}

    /// Start (or stop) capturing a [`PlacementNote`] per successful pick.
    /// Default: ignore — rationale-free placements stay zero-overhead.
    fn set_tracing(&mut self, _on: bool) {}

    /// The note captured by the last successful `pick`, if tracing is on
    /// and this placement records rationales.
    fn take_note(&mut self) -> Option<PlacementNote> {
        None
    }
}

/// Native delay scheduling: launch strictly at or below the allowed
/// locality; otherwise leave the executor idle.
///
/// Mirrors Spark's resource-offer loop: executors are offered one at a
/// time (round-robin start so no executor is systematically favoured) and
/// each takes *its own* best pending task within the allowed level. With
/// `spark.locality.wait = 0` this scatters tasks — an executor with free
/// cores takes any pending task even when another executor could have run
/// it process-locally — exactly the behaviour the paper's Fig. 3 measures.
// lint: incremental(clocks, mutators = [allowed, on_launch, on_stage_ready])
// lint: incremental(offer_start, mutators = [pick])
// lint: incremental(note, mutators = [pick, note_pick, set_tracing, take_note])
// lint: hotpath(pick)
pub struct NativeDelay {
    clocks: BTreeMap<StageId, WaitClock>,
    offer_start: usize,
    tracing: bool,
    note: Option<PlacementNote>,
}

impl NativeDelay {
    pub fn new() -> Self {
        Self {
            clocks: BTreeMap::new(),
            offer_start: 0,
            tracing: false,
            note: None,
        }
    }

    fn allowed(&mut self, stage: StageId, view: &SimView<'_>) -> (Locality, Vec<Locality>) {
        let mut valid = view.valid_levels(stage);
        if valid.is_empty() {
            valid.push(Locality::Any);
        }
        let clock = self
            .clocks
            .entry(stage)
            .or_insert_with(|| WaitClock::new(view.now));
        let allowed = clock.allowed(view.now, &view.locality_wait, &valid);
        (allowed, valid)
    }
}

impl Default for NativeDelay {
    fn default() -> Self {
        Self::new()
    }
}

impl Placement for NativeDelay {
    fn placement_name(&self) -> &'static str {
        "delay"
    }

    // lint: allow(panic-surface): free-list split indices come from partition_point on that list
    fn pick(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        _shadow: &ScheduleShadow,
    ) -> Option<(u32, ExecId, Locality)> {
        let (allowed, valid) = self.allowed(stage, view);
        let demand = view.dag.stage(stage).demand;
        // Per-executor offers (rotating start), each taking its own best
        // task within the allowed level. Only free executors are visited
        // (stage demands always include a cpu, so the view's free list is a
        // superset of every fitting executor); the circular
        // from-`offer_start` order is preserved by splitting the ascending
        // free list at the rotation point.
        let n = view.execs.len();
        self.offer_start = (self.offer_start + 1) % n.max(1);
        let fe = view.free_execs;
        let p = fe.partition_point(|&e| (e as usize) < self.offer_start);
        for &ei in fe[p..].iter().chain(fe[..p].iter()) {
            let e = view.exec(ExecId(ei));
            if !e.free.fits(demand) {
                continue;
            }
            for &level in valid.iter().filter(|l| **l <= allowed) {
                // Inverted-index gate: a zero count proves the probe below
                // would return None, so skipping it is schedule-neutral.
                if !view.has_pending_at(stage, e.id, level) {
                    continue;
                }
                if let Some(k) = view.pending_with_locality(stage, e.id, level) {
                    if self.tracing {
                        self.note = Some(PlacementNote {
                            allowed: allowed.rank(),
                            ect_ms: -1.0,
                            est_ms: -1.0,
                            threshold_ms: -1.0,
                        });
                    }
                    return Some((k, e.id, level));
                }
            }
        }
        None
    }

    fn on_launch(&mut self, stage: StageId, level: Locality, now: SimTime) {
        if let Some(c) = self.clocks.get_mut(&stage) {
            c.on_launch(level, now);
        }
    }

    fn on_stage_ready(&mut self, stage: StageId, now: SimTime) {
        self.clocks.insert(stage, WaitClock::new(now));
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.note = None;
    }

    fn take_note(&mut self) -> Option<PlacementNote> {
        self.note.take()
    }
}

/// Alg. 2: locality-sensitivity-aware delay scheduling.
///
/// Walks executors, and for each, pending tasks in ascending locality
/// order. A task *above* the allowed level is still accepted if its
/// estimated finish time (mean duration of finished tasks at that level,
/// with a mild prior before any have finished) beats the stage's earliest
/// completion time `ect_i` (Eq. 7) — i.e. launching the low-locality task
/// cannot extend the stage. This is what keeps executors busy on stages
/// that are insensitive to locality.
pub struct SensitivityAware {
    delay: NativeDelay,
    est: StageEstimates,
    /// A task is "insensitive at a level" when running there costs at most
    /// this factor over the stage's best level (§II-A: "a task with rack
    /// locality achieves approximately the same performance").
    pub insensitivity_factor: f64,
}

impl SensitivityAware {
    pub fn new(est: StageEstimates) -> Self {
        Self {
            delay: NativeDelay::new(),
            est,
            insensitivity_factor: 1.15,
        }
    }

    /// Expected duration of a stage-`stage` task at `level`: the measured
    /// mean at that level when available (the paper's estimator), otherwise
    /// the profiler's compute estimate plus the cost model's input-read
    /// time at that tier — the AppProfiler knows the DAG's block sizes.
    fn est_finish_ms(&self, stage: StageId, level: Locality, view: &SimView<'_>) -> f64 {
        if let Some(avg) = view.avg_duration_at(stage, level) {
            return avg;
        }
        use dagon_cluster::config::ReadTier;
        let tier = match level {
            Locality::Process => ReadTier::ProcessCache,
            Locality::Node => ReadTier::NodeDisk,
            Locality::Rack => ReadTier::RackRemote,
            Locality::Any => ReadTier::CrossRack,
        };
        self.est.mean_ms(stage) + view.cost.read_ms(view.narrow_input_mb(stage), tier)
    }

    /// Capture the Alg. 2 rationale for a pick that is about to be
    /// returned. No-op (and estimate-free) when tracing is off.
    fn note_pick(
        &mut self,
        stage: StageId,
        level: Locality,
        allowed: Locality,
        ect: f64,
        threshold: f64,
        view: &SimView<'_>,
    ) {
        if !self.delay.tracing {
            return;
        }
        self.delay.note = Some(PlacementNote {
            allowed: allowed.rank(),
            ect_ms: ect,
            est_ms: self.est_finish_ms(stage, level, view),
            threshold_ms: threshold,
        });
    }
}

impl Placement for SensitivityAware {
    fn placement_name(&self) -> &'static str {
        "sensitivity"
    }

    // lint: allow(panic-surface): `valid` is non-empty by construction; level indices are < 4; list splits come from partition_point
    fn pick(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        _shadow: &ScheduleShadow,
    ) -> Option<(u32, ExecId, Locality)> {
        let (allowed, valid) = self.delay.allowed(stage, view);
        let demand = view.dag.stage(stage).demand;
        let fallback = self.est_finish_ms(stage, valid[0], view);
        let ect = view.earliest_completion_ms(stage, fallback);
        // A low-locality launch is harmless when (a) the stage's backlog
        // means it cannot finish sooner anyway (Eq. 7), or (b) the stage is
        // insensitive at that level (§II-A's rack ≈ node ≈ process case).
        let best_est = self.est_finish_ms(stage, valid[0], view);
        let threshold = ect.max(self.insensitivity_factor * best_est);
        // Steal admissibility is executor-independent (a pure function of
        // (stage, level, view)); resolving it once per level lifts the
        // estimate out of the executor loop.
        let mut steal_ok = [false; 4];
        for &level in &valid {
            if level > allowed {
                steal_ok[level.index()] = self.est_finish_ms(stage, level, view) < threshold;
            }
        }
        // Alg. 2 line 3-12: executors outer, locality levels (ascending)
        // inner. Only free executors are visited: the ascending free list
        // matches the full ascending walk after the fits filter (a stage
        // demand always includes a cpu). Every probe is gated on the
        // inverted index's per-(stage, level, executor) pending counts: a
        // zero count proves the probe would return None, so the gates skip
        // work without ever changing which task the first-match walk finds.
        for &ei in view.free_execs {
            let e = view.exec(ExecId(ei));
            if !e.free.fits(demand) {
                continue;
            }
            for &level in &valid {
                if level <= allowed {
                    if view.has_pending_at(stage, e.id, level) {
                        if let Some(k) = view.pending_with_locality(stage, e.id, level) {
                            self.note_pick(stage, level, allowed, ect, threshold, view);
                            return Some((k, e.id, level));
                        }
                    }
                    continue;
                }
                // A task whose best achievable level anywhere is exactly
                // this level has no better home to wait for: launching it
                // here can only help, whatever the wait clock says (the
                // master's block registry makes this check possible).
                if view.has_pending_strict_at(stage, e.id, level) {
                    if let Some(k) = view.pending_with_locality_strict(stage, e.id, level) {
                        self.note_pick(stage, level, allowed, ect, threshold, view);
                        return Some((k, e.id, level));
                    }
                }
                if !view.has_pending_at(stage, e.id, level) {
                    continue;
                }
                // Remaining candidates at this level have a better home
                // elsewhere (e.g. a busy cache-holding executor). Stealing
                // one is harmless only when the stage wouldn't finish any
                // sooner without it (Eq. 7) or is insensitive at this level
                // (§II-A's rack ≈ node ≈ process case).
                if !steal_ok[level.index()] {
                    // Line 9: a candidate here parks the executor. Only
                    // its *existence* matters, and the count above already
                    // proved it, so no scan is needed. This is the
                    // dominant outcome for a stage inside its
                    // locality-wait window.
                    break;
                }
                match view.pending_with_locality(stage, e.id, level) {
                    None => continue,
                    Some(k) => {
                        self.note_pick(stage, level, allowed, ect, threshold, view);
                        return Some((k, e.id, level));
                    }
                }
            }
        }
        None
    }

    fn on_launch(&mut self, stage: StageId, level: Locality, now: SimTime) {
        self.delay.on_launch(stage, level, now);
    }

    fn on_stage_ready(&mut self, stage: StageId, now: SimTime) {
        self.delay.on_stage_ready(stage, now);
    }

    fn set_tracing(&mut self, on: bool) {
        self.delay.set_tracing(on);
    }

    fn take_note(&mut self) -> Option<PlacementNote> {
        self.delay.take_note()
    }
}
