//! The shared assignment loop of Alg. 1: *order* the ready stages, let the
//! *placement* policy pick a task for the best stage, launch, repeat.
//!
//! All five schedulers are an [`OrderPolicy`] plugged into
//! [`OrderedScheduler`]; the placement half (native vs sensitivity-aware
//! delay scheduling) is orthogonal, mirroring the paper's design where
//! Alg. 1 line 7 calls into delay scheduling and Alg. 2 later replaces it.
//!
//! ## One pick per call
//!
//! Each `schedule` call ranks the ready stages and returns the first
//! successful placement pick — at most one assignment. The simulator
//! launches it and calls `schedule` again, which is Alg. 1's per-step
//! loop: every pick sees the view *after* the previous launch, so Table
//! III's per-step re-sort needs no in-flight bookkeeping.
//!
//! The placement half gates each executor probe on the view's inverted
//! pending-work counts (`has_pending_at`, DESIGN.md §14): a zero count
//! proves the probe would find nothing, so the pick loop skips
//! provably-empty probes while preserving the exact first-match order.

use dagon_cluster::{Assignment, Locality, ScheduleShadow, Scheduler, SimView};
use dagon_dag::{SimTime, StageId, TaskId};
use dagon_obs::SchedDecision;

use crate::placement::Placement;

/// Stage-ordering half of a scheduler.
pub trait OrderPolicy {
    fn order_name(&self) -> &'static str;

    /// Rank the schedulable stages, highest priority first. Every launch
    /// is confirmed through `on_task_launched` before the next call, so
    /// keys can be read straight off the policy's own state and the view.
    /// `shadow` carries nothing; it is kept only for signature stability.
    fn rank(
        &mut self,
        view: &SimView<'_>,
        ready: &[StageId],
        shadow: &ScheduleShadow,
    ) -> Vec<StageId>;

    fn on_task_launched(&mut self, _t: TaskId, _work: u64) {}
    /// A launched/completed task went back to pending (failure recovery);
    /// `work` re-enters the stage's remaining workload.
    fn on_task_requeued(&mut self, _t: TaskId, _work: u64) {}
    fn on_stage_ready(&mut self, _s: StageId) {}
    fn on_stage_complete(&mut self, _s: StageId) {}

    /// Live Eq. (6) priorities if this policy maintains them.
    fn priorities(&self) -> Option<Vec<(StageId, u64)>> {
        None
    }
}

/// `ordering × placement` composed into a full [`Scheduler`].
///
/// Returns at most one assignment per `schedule` call; the simulator
/// confirms it via [`Scheduler::on_task_launched`] and calls again.
pub struct OrderedScheduler {
    order: Box<dyn OrderPolicy>,
    placement: Box<dyn Placement>,
    /// When on, one [`SchedDecision`] is buffered per emitted assignment
    /// for the simulator's trace sink to drain.
    tracing: bool,
    notes: Vec<SchedDecision>,
}

impl OrderedScheduler {
    pub fn new(order: Box<dyn OrderPolicy>, placement: Box<dyn Placement>) -> Self {
        Self {
            order,
            placement,
            tracing: false,
            notes: Vec::new(),
        }
    }
}

impl Scheduler for OrderedScheduler {
    fn name(&self) -> String {
        format!(
            "{}+{}",
            self.order.order_name(),
            self.placement.placement_name()
        )
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Assignment> {
        self.notes.clear();
        if !view.any_free_resource() {
            return Vec::new();
        }
        let ready = view.schedulable_stages();
        if ready.is_empty() {
            return Vec::new();
        }
        let ranked = self.order.rank(view, &ready, &ScheduleShadow);
        let Some(a) = ranked.into_iter().find_map(|s| {
            let (k, exec, locality) = self.placement.pick(s, view, &ScheduleShadow)?;
            Some(Assignment {
                stage: s,
                task_index: k,
                exec,
                locality,
            })
        }) else {
            return Vec::new();
        };
        if self.tracing {
            let n = self.placement.take_note();
            self.notes.push(SchedDecision {
                stage: a.stage,
                task_index: a.task_index,
                exec: a.exec.0,
                locality: a.locality.rank(),
                allowed: n.map_or(a.locality.rank(), |n| n.allowed),
                ect_ms: n.map_or(-1.0, |n| n.ect_ms),
                est_ms: n.map_or(-1.0, |n| n.est_ms),
                threshold_ms: n.map_or(-1.0, |n| n.threshold_ms),
                predicted_cache_hit: a.locality == Locality::Process,
            });
        }
        self.placement.on_launch(a.stage, a.locality, view.now);
        vec![a]
    }

    fn on_stage_ready(&mut self, s: StageId, now: SimTime) {
        self.placement.on_stage_ready(s, now);
        self.order.on_stage_ready(s);
    }

    fn on_stage_complete(&mut self, s: StageId, _now: SimTime) {
        self.order.on_stage_complete(s);
    }

    fn on_task_launched(&mut self, t: TaskId, work: u64, _now: SimTime) {
        self.order.on_task_launched(t, work);
    }

    fn on_task_requeued(&mut self, t: TaskId, work: u64, _now: SimTime) {
        self.order.on_task_requeued(t, work);
    }

    fn stage_priorities(&self) -> Option<Vec<(StageId, u64)>> {
        self.order.priorities()
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.placement.set_tracing(on);
    }

    fn drain_decisions(&mut self) -> Vec<SchedDecision> {
        std::mem::take(&mut self.notes)
    }
}
