//! Fair scheduling: stock Spark's alternative pool scheduler. With a single
//! job it degenerates to round-robin over the runnable stages, which we
//! realize by preferring the stage with the fewest running tasks (least
//! current share), breaking ties by id.
//!
//! For online multi-tenant runs, [`TenantFairOrder`] adds the hierarchical
//! pool layer on top: tenants are ranked by weighted share of running
//! cores first, and *within* a tenant any inner [`OrderPolicy`] (FIFO,
//! Fair, Dagon, Graphene) decides stage order — mirroring Spark's pool
//! hierarchy where the scheduler-within-a-pool is pluggable.

use std::cmp::Ordering;

use dagon_cluster::{ScheduleShadow, SimView};
use dagon_dag::StageId;

use crate::assign::{OrderPolicy, OrderedScheduler};
use crate::placement::NativeDelay;

#[derive(Default)]
pub struct FairOrder;

impl OrderPolicy for FairOrder {
    fn order_name(&self) -> &'static str {
        "fair"
    }

    fn rank(
        &mut self,
        view: &SimView<'_>,
        ready: &[StageId],
        _shadow: &ScheduleShadow,
    ) -> Vec<StageId> {
        let mut v = ready.to_vec();
        v.sort_by_key(|s| (view.stage(*s).running, *s));
        v
    }
}

pub struct FairScheduler;

impl FairScheduler {
    pub fn spark_fair() -> OrderedScheduler {
        OrderedScheduler::new(Box::new(FairOrder), Box::new(NativeDelay::new()))
    }
}

/// Hierarchical weighted fair share across tenants.
///
/// Ranks ready stages by their tenant's *weighted core share* —
/// `running cores / weight`, compared by u128
/// cross-multiplication so no floats enter the schedule — and defers to
/// the wrapped inner policy within a tenant (the sort is stable and
/// same-share tenants compare `Equal`, so the inner order survives;
/// deliberately *no* tenant-id tie-break, which would always favor tenant
/// 0). Outside multi-tenant mode (`view.tenant_of_stage` empty) it is
/// transparent: the inner order passes through untouched.
pub struct TenantFairOrder {
    inner: Box<dyn OrderPolicy>,
    /// Per-tenant weights (≥ 1); tenants beyond the vector get weight 1.
    weights: Vec<u64>,
}

impl TenantFairOrder {
    pub fn new(inner: Box<dyn OrderPolicy>, weights: Vec<u64>) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 1),
            "tenant weights must be >= 1"
        );
        Self { inner, weights }
    }

    /// Equal-weight fair share over the inner policy.
    pub fn equal(inner: Box<dyn OrderPolicy>) -> Self {
        Self::new(inner, Vec::new())
    }

    fn weight(&self, tenant: usize) -> u64 {
        self.weights.get(tenant).copied().unwrap_or(1)
    }
}

impl OrderPolicy for TenantFairOrder {
    fn order_name(&self) -> &'static str {
        "tfair"
    }

    fn rank(
        &mut self,
        view: &SimView<'_>,
        ready: &[StageId],
        shadow: &ScheduleShadow,
    ) -> Vec<StageId> {
        let mut v = self.inner.rank(view, ready, shadow);
        if view.tenant_of_stage.is_empty() {
            return v;
        }
        let used = view.tenant_cores;
        v.sort_by(|a, b| {
            let ta = view.tenant_of_stage[a.index()] as usize;
            let tb = view.tenant_of_stage[b.index()] as usize;
            if ta == tb {
                return Ordering::Equal;
            }
            // share(ta) < share(tb)  ⟺  used[ta]·w(tb) < used[tb]·w(ta)
            let la = u128::from(used[ta]) * u128::from(self.weight(tb));
            let lb = u128::from(used[tb]) * u128::from(self.weight(ta));
            la.cmp(&lb)
        });
        v
    }

    fn on_task_launched(&mut self, t: dagon_dag::TaskId, work: u64) {
        self.inner.on_task_launched(t, work);
    }

    fn on_task_requeued(&mut self, t: dagon_dag::TaskId, work: u64) {
        self.inner.on_task_requeued(t, work);
    }

    fn on_stage_ready(&mut self, s: StageId) {
        self.inner.on_stage_ready(s);
    }

    fn on_stage_complete(&mut self, s: StageId) {
        self.inner.on_stage_complete(s);
    }

    fn priorities(&self) -> Option<Vec<(StageId, u64)>> {
        self.inner.priorities()
    }
}
