//! Dagon's DAG-aware priority-based task assignment — Algorithm 1.
//!
//! At each scheduling step the ready stages are sorted by the *live*
//! priority value `pv_i = w_i + Σ_{j∈succ*(i)} w_j` (Eq. 6), the highest-pv
//! stage tries to place one task through (sensitivity-aware) delay
//! scheduling, the launch decrements `w_i` (Table III), and the loop
//! repeats until no task fits. Priorities are computed from the
//! AppProfiler's *estimates*, not ground truth, exactly as deployed.

use dagon_cluster::{ScheduleShadow, SimView};
use dagon_dag::{JobDag, PriorityTracker, StageEstimates, StageId, TaskId};

use crate::assign::{OrderPolicy, OrderedScheduler};
use crate::placement::{NativeDelay, Placement, SensitivityAware};

pub struct DagonOrder {
    tracker: PriorityTracker,
    /// Estimated per-task work per stage, vCPU-ms.
    est_task_work: Vec<u64>,
}

impl DagonOrder {
    pub fn new(dag: &JobDag, est: &StageEstimates) -> Self {
        let tracker = PriorityTracker::new(dag, |s, _k| est.task_work(s));
        let est_task_work = dag.stage_ids().map(|s| est.task_work(s)).collect();
        Self {
            tracker,
            est_task_work,
        }
    }

    pub fn pv(&self, s: StageId) -> u64 {
        self.tracker.pv(s)
    }
}

impl OrderPolicy for DagonOrder {
    fn order_name(&self) -> &'static str {
        "dagon"
    }

    fn rank(
        &mut self,
        _view: &SimView<'_>,
        ready: &[StageId],
        _shadow: &ScheduleShadow,
    ) -> Vec<StageId> {
        // Alg. 1 line 5: sort SQ by pv_i descending (ties: stage id — the
        // paper's Table III picks stage 2 over stage 1 on the 52/52 tie by
        // keeping the previously-higher stage first; ascending id matches).
        let mut v = ready.to_vec();
        v.sort_by_key(|s| (std::cmp::Reverse(self.tracker.pv(*s)), *s));
        v
    }

    fn on_task_launched(&mut self, t: TaskId, _ground_truth_work: u64) {
        // Decrement by the *estimated* work the scheduler planned with.
        let est_work = self.est_task_work[t.stage.index()];
        self.tracker.on_task_launched(t, est_work);
    }

    fn on_task_requeued(&mut self, t: TaskId, _ground_truth_work: u64) {
        // Symmetric with on_task_launched: restore the *estimated* work so
        // the stage's priority value reflects the re-pending task.
        let est_work = self.est_task_work[t.stage.index()];
        self.tracker.on_task_requeued(t, est_work);
    }

    fn priorities(&self) -> Option<Vec<(StageId, u64)>> {
        Some(self.tracker.snapshot())
    }
}

pub struct DagonScheduler;

impl DagonScheduler {
    /// The full Dagon scheduler: Alg. 1 ordering + Alg. 2 placement.
    #[allow(clippy::new_ret_no_self)] // factory namespace: builds the generic driver
    pub fn new(dag: &JobDag, est: &StageEstimates) -> OrderedScheduler {
        Self::with_placement(dag, est, Box::new(SensitivityAware::new(est.clone())))
    }

    /// Ablation (Fig. 10 baseline): Alg. 1 ordering + *native* delay
    /// scheduling.
    pub fn with_native_delay(dag: &JobDag, est: &StageEstimates) -> OrderedScheduler {
        Self::with_placement(dag, est, Box::new(NativeDelay::new()))
    }

    pub fn with_placement(
        dag: &JobDag,
        est: &StageEstimates,
        placement: Box<dyn Placement>,
    ) -> OrderedScheduler {
        OrderedScheduler::new(Box::new(DagonOrder::new(dag, est)), placement)
    }
}
