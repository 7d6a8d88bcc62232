//! Outside-in layer tracing: wrappers that forward every method of the
//! simulator's public trait boundaries and time the calls that matter.
//!
//! * [`TracedScheduler`] wraps `dagon_cluster::Scheduler` (`schedule`, and
//!   the priority/launch hooks);
//! * [`TracedOrder`] and [`TracedPlacement`] wrap `dagon_sched::OrderPolicy`
//!   and `Placement` inside `OrderedScheduler::new` (`rank`, `pick`);
//! * [`TracedCache`] wraps `dagon_cluster::CachePolicy` inside the
//!   `Simulation::new` cache factory (victim, proactive, prefetch, other).
//!
//! Every wrapped call pays for two clock reads. [`calibrate`] measures that
//! cost in-process and [`SpanTotals`] subtracts it again: a span's own
//! measured interval holds `inner_ns` of it, and each wrapped call nested
//! inside an interval adds a further `full_ns`.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use dagon_cluster::{
    Assignment, CachePolicy, ExecId, Locality, RefProfile, ScheduleShadow, Scheduler, SimView,
};
use dagon_dag::{BlockId, SimTime, StageId, TaskId};
use dagon_obs::SchedDecision;
use dagon_sched::{OrderPolicy, Placement, PlacementNote};

use crate::host::now_ns;

/// The timed layer boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `Scheduler::schedule`.
    Schedule,
    /// Every other `Scheduler` method: stage/task hooks (including the
    /// order policy's priority upkeep), priorities, tracing plumbing.
    Hooks,
    /// `OrderPolicy::rank`.
    Rank,
    /// `Placement::pick`.
    Pick,
    /// `CachePolicy::victim`.
    Victim,
    /// `CachePolicy::proactive_victims`.
    Proactive,
    /// `CachePolicy::prefetch_order` and `prefetch_pick`.
    Prefetch,
    /// Every other `CachePolicy` method (access/insert/evict notices,
    /// admission queries).
    CacheOther,
}

const SPANS: usize = 8;

/// Raw totals of one span kind over one experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub calls: u64,
    /// Σ measured duration.
    pub ns: u64,
    /// Σ measured duration of direct children.
    pub child_ns: u64,
    /// Σ count of direct children.
    pub children: u64,
    /// Σ count of wrapped calls nested at any depth.
    pub nested: u64,
}

/// Cost of one wrapped call, from [`calibrate`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimerCost {
    /// What one wrapped call adds to an enclosing interval.
    pub full_ns: f64,
    /// What lands inside the wrapped call's own measured interval.
    pub inner_ns: f64,
}

impl SpanTotals {
    /// Inclusive time with every wrapper's cost removed.
    pub fn total_ns(&self, c: TimerCost) -> f64 {
        self.ns as f64 - self.calls as f64 * c.inner_ns - self.nested as f64 * c.full_ns
    }

    /// Time not spent in wrapped children, wrapper cost removed.
    pub fn self_ns(&self, c: TimerCost) -> f64 {
        (self.ns - self.child_ns) as f64
            - self.calls as f64 * c.inner_ns
            - self.children as f64 * (c.full_ns - c.inner_ns)
    }
}

struct Frame {
    start: u64,
    child_ns: u64,
    children: u64,
    done_at_enter: u64,
}

/// Per-experiment span totals and outcome counts.
#[derive(Default)]
pub struct Tracer {
    spans: [SpanTotals; SPANS],
    stack: Vec<Frame>,
    /// Wrapped calls completed so far.
    done: u64,
    /// `(measured ns, nested wrapped calls)` of each `schedule` call.
    pub schedule_calls: Vec<(u64, u64)>,
    /// Assignments returned by `schedule`.
    pub emitted: u64,
    /// `pick` calls that returned a task.
    pub picks_placed: u64,
    /// Blocks returned by `proactive_victims`.
    pub proactive_victims: u64,
}

/// A tracer shared by every wrapper of one experiment.
pub type Shared = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn span(&self, s: Span) -> SpanTotals {
        self.spans[s as usize]
    }

    /// Wrapped calls of every kind.
    pub fn wrapped_calls(&self) -> u64 {
        self.done
    }

    /// Every count the trace produced; a deterministic experiment repeats
    /// them exactly.
    pub fn counts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .flat_map(|s| [s.calls, s.children, s.nested])
            .collect();
        v.extend([self.emitted, self.picks_placed, self.proactive_victims]);
        v
    }

    fn enter(&mut self) {
        self.stack.push(Frame {
            start: 0,
            child_ns: 0,
            children: 0,
            done_at_enter: self.done,
        });
        if let Some(f) = self.stack.last_mut() {
            f.start = now_ns();
        }
    }

    fn exit(&mut self, span: Span) {
        let end = now_ns();
        let Some(f) = self.stack.pop() else { return };
        let d = end - f.start;
        let nested = self.done - f.done_at_enter;
        self.done += 1;
        let s = &mut self.spans[span as usize];
        s.calls += 1;
        s.ns += d;
        s.child_ns += f.child_ns;
        s.children += f.children;
        s.nested += nested;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += d;
            parent.children += 1;
        }
        if span == Span::Schedule {
            self.schedule_calls.push((d, nested));
        }
    }
}

#[inline]
fn timed<R>(t: &Shared, span: Span, f: impl FnOnce() -> R) -> R {
    t.borrow_mut().enter();
    let r = f();
    t.borrow_mut().exit(span);
    r
}

/// Measure the cost of one wrapped call around an empty dynamic call, as
/// the median of `reps` batches of `iters` calls.
pub fn calibrate(reps: usize, iters: u64) -> TimerCost {
    let noop: Box<dyn Fn(u64) -> u64> = Box::new(|x| x.wrapping_add(1));
    let mut full = Vec::with_capacity(reps);
    let mut inner = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t: Shared = Rc::default();
        let mut acc = 0u64;
        let t0 = now_ns();
        for _ in 0..iters {
            acc = noop(black_box(acc));
        }
        let bare = (now_ns() - t0) as f64;
        let t0 = now_ns();
        for _ in 0..iters {
            acc = timed(&t, Span::CacheOther, || noop(black_box(acc)));
        }
        let wrapped = (now_ns() - t0) as f64;
        black_box(acc);
        let measured = t.borrow().span(Span::CacheOther).ns as f64;
        full.push(((wrapped - bare) / iters as f64).max(0.0));
        inner.push(((measured - bare) / iters as f64).max(0.0));
    }
    TimerCost {
        full_ns: crate::stats::median(&full),
        inner_ns: crate::stats::median(&inner),
    }
}

/// `Scheduler` wrapper.
pub struct TracedScheduler {
    pub inner: Box<dyn Scheduler>,
    pub t: Shared,
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Assignment> {
        let inner = &mut self.inner;
        let out = timed(&self.t, Span::Schedule, || inner.schedule(view));
        self.t.borrow_mut().emitted += out.len() as u64;
        out
    }

    fn on_stage_ready(&mut self, s: StageId, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.t, Span::Hooks, || inner.on_stage_ready(s, now));
    }

    fn on_stage_complete(&mut self, s: StageId, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.t, Span::Hooks, || inner.on_stage_complete(s, now));
    }

    fn on_task_launched(&mut self, t: TaskId, work: u64, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.t, Span::Hooks, || {
            inner.on_task_launched(t, work, now)
        });
    }

    fn on_task_requeued(&mut self, t: TaskId, work: u64, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.t, Span::Hooks, || {
            inner.on_task_requeued(t, work, now)
        });
    }

    fn stage_priorities(&self) -> Option<Vec<(StageId, u64)>> {
        timed(&self.t, Span::Hooks, || self.inner.stage_priorities())
    }

    fn set_tracing(&mut self, on: bool) {
        let inner = &mut self.inner;
        timed(&self.t, Span::Hooks, || inner.set_tracing(on));
    }

    fn drain_decisions(&mut self) -> Vec<SchedDecision> {
        let inner = &mut self.inner;
        timed(&self.t, Span::Hooks, || inner.drain_decisions())
    }
}

/// `OrderPolicy` wrapper; only `rank` is timed; the hooks are inside the
/// scheduler's hook spans.
pub struct TracedOrder {
    pub inner: Box<dyn OrderPolicy>,
    pub t: Shared,
}

impl OrderPolicy for TracedOrder {
    fn order_name(&self) -> &'static str {
        self.inner.order_name()
    }

    fn rank(
        &mut self,
        view: &SimView<'_>,
        ready: &[StageId],
        shadow: &ScheduleShadow,
    ) -> Vec<StageId> {
        let inner = &mut self.inner;
        timed(&self.t, Span::Rank, || inner.rank(view, ready, shadow))
    }

    fn on_task_launched(&mut self, t: TaskId, work: u64) {
        self.inner.on_task_launched(t, work);
    }

    fn on_task_requeued(&mut self, t: TaskId, work: u64) {
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

/// `Placement` wrapper; only `pick` is timed; the journal and wait-clock
/// calls count toward the enclosing `schedule` self time.
pub struct TracedPlacement {
    pub inner: Box<dyn Placement>,
    pub t: Shared,
}

impl Placement for TracedPlacement {
    fn placement_name(&self) -> &'static str {
        self.inner.placement_name()
    }

    fn pick(
        &mut self,
        stage: StageId,
        view: &SimView<'_>,
        shadow: &ScheduleShadow,
    ) -> Option<(u32, ExecId, Locality)> {
        let inner = &mut self.inner;
        let r = timed(&self.t, Span::Pick, || inner.pick(stage, view, shadow));
        if r.is_some() {
            self.t.borrow_mut().picks_placed += 1;
        }
        r
    }

    fn on_launch(&mut self, stage: StageId, level: Locality, now: SimTime) {
        self.inner.on_launch(stage, level, now);
    }

    fn on_stage_ready(&mut self, stage: StageId, now: SimTime) {
        self.inner.on_stage_ready(stage, now);
    }

    fn journal_len(&self) -> usize {
        self.inner.journal_len()
    }

    fn reconcile_journal(&mut self, keep: usize) {
        self.inner.reconcile_journal(keep);
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn take_note(&mut self) -> Option<PlacementNote> {
        self.inner.take_note()
    }
}

/// `CachePolicy` wrapper; one per executor, all sharing one tracer.
pub struct TracedCache {
    pub inner: Box<dyn CachePolicy>,
    pub t: Shared,
}

impl CachePolicy for TracedCache {
    fn policy_name(&self) -> &'static str {
        self.inner.policy_name()
    }

    fn on_access(&mut self, b: BlockId, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.t, Span::CacheOther, || inner.on_access(b, now));
    }

    fn on_insert(&mut self, b: BlockId, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.t, Span::CacheOther, || inner.on_insert(b, now));
    }

    fn on_evict(&mut self, b: BlockId) {
        let inner = &mut self.inner;
        timed(&self.t, Span::CacheOther, || inner.on_evict(b));
    }

    fn victim(
        &mut self,
        candidates: &[BlockId],
        incoming: Option<BlockId>,
        profile: &RefProfile,
    ) -> Option<BlockId> {
        let inner = &mut self.inner;
        timed(&self.t, Span::Victim, || {
            inner.victim(candidates, incoming, profile)
        })
    }

    fn proactive_victims(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Vec<BlockId> {
        let inner = &mut self.inner;
        let v = timed(&self.t, Span::Proactive, || {
            inner.proactive_victims(candidates, profile)
        });
        self.t.borrow_mut().proactive_victims += v.len() as u64;
        v
    }

    fn prefetch_pick(&mut self, candidates: &[BlockId], profile: &RefProfile) -> Option<BlockId> {
        let inner = &mut self.inner;
        timed(&self.t, Span::Prefetch, || {
            inner.prefetch_pick(candidates, profile)
        })
    }

    fn prefetch_order(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        let inner = &mut self.inner;
        timed(&self.t, Span::Prefetch, || {
            inner.prefetch_order(candidates, profile, out)
        });
    }

    fn caches_on_miss(&self) -> bool {
        timed(&self.t, Span::CacheOther, || self.inner.caches_on_miss())
    }

    fn admits(&self) -> bool {
        timed(&self.t, Span::CacheOther, || self.inner.admits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_removes_wrapper_cost_from_totals_and_self_time() {
        // One span of 1000 ns measured with two direct children of 100 ns
        // each, one of which had a nested child of its own (3 nested).
        let s = SpanTotals {
            calls: 1,
            ns: 1000,
            child_ns: 200,
            children: 2,
            nested: 3,
        };
        let c = TimerCost {
            full_ns: 40.0,
            inner_ns: 15.0,
        };
        assert_eq!(s.total_ns(c), 1000.0 - 15.0 - 3.0 * 40.0);
        assert_eq!(s.self_ns(c), 800.0 - 15.0 - 2.0 * 25.0);
    }

    #[test]
    fn nested_spans_attribute_children_to_their_parent() {
        let t: Shared = Rc::default();
        timed(&t, Span::Schedule, || {
            timed(&t, Span::Rank, || ());
            timed(&t, Span::Pick, || timed(&t, Span::Victim, || ()));
        });
        let tr = t.borrow();
        let s = tr.span(Span::Schedule);
        assert_eq!((s.calls, s.children, s.nested), (1, 2, 3));
        assert_eq!(tr.span(Span::Pick).nested, 1);
        assert_eq!(tr.wrapped_calls(), 4);
        assert!(s.ns >= s.child_ns);
        assert_eq!(tr.schedule_calls.len(), 1);
    }

    #[test]
    fn calibration_reports_a_positive_cost() {
        let c = calibrate(3, 20_000);
        assert!(c.full_ns > 0.0 && c.full_ns < 10_000.0, "{c:?}");
        assert!(c.inner_ns <= c.full_ns * 2.0 + 50.0, "{c:?}");
    }
}
