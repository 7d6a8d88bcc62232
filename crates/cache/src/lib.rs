//! # dagon-cache — cache eviction & prefetch policies
//!
//! All four policies the paper evaluates, implemented against
//! [`dagon_cluster::CachePolicy`] and fed by the BlockManagerMaster's
//! [`dagon_cluster::RefProfile`]:
//!
//! | Policy | Metric | Evicts | Prefetches |
//! |---|---|---|---|
//! | [`Lru`] | recency | least-recently used | — |
//! | [`Lrc`] | remaining reference count [INFOCOM'17] | smallest count | — |
//! | [`Mrd`] | FIFO stage reference distance [ICPP'18] | largest distance | smallest distance |
//! | [`Lrp`] | stage priority value (Def. 1, Eq. 6) | smallest priority | largest priority |
//!
//! LRP additionally drops zero-reference-priority blocks proactively
//! (§III-C: "proactively delete inactive data").
//!
//! [`table1`] replays the paper's Table I worked example.

pub mod belady;
pub mod lrc;
pub mod lrp;
pub mod lru;
pub mod mrd;
pub mod table1;

pub use lrc::Lrc;
pub use lrp::Lrp;
pub use lru::Lru;
pub use mrd::Mrd;

use dagon_cluster::CachePolicy;

/// Every policy this crate offers, by name — handy for config parsing and
/// sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    None,
    Lru,
    Lrc,
    Mrd,
    Lrp,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::None,
        PolicyKind::Lru,
        PolicyKind::Lrc,
        PolicyKind::Mrd,
        PolicyKind::Lrp,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            PolicyKind::None => "none",
            PolicyKind::Lru => "LRU",
            PolicyKind::Lrc => "LRC",
            PolicyKind::Mrd => "MRD",
            PolicyKind::Lrp => "LRP",
        }
    }

    /// Instantiate one policy object (one per executor).
    pub fn build(self) -> Box<dyn CachePolicy> {
        match self {
            PolicyKind::None => Box::new(dagon_cluster::NoCache),
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Lrc => Box::new(Lrc::new()),
            PolicyKind::Mrd => Box::new(Mrd::new()),
            PolicyKind::Lrp => Box::new(Lrp::new()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_cluster::RefProfile;
    use dagon_dag::examples::fig1;
    use dagon_dag::{BlockId, PriorityTracker, StageId};

    /// Drive one policy instance through inserts and accesses against a
    /// Fig. 1 profile with stage 0 done (its input blocks are dead), then
    /// call `proactive_victims` and `prefetch_order` twice each with no
    /// `on_*` call in between. The simulator's quiet-tick elision skips
    /// exactly such repeated calls, so both pairs must be identical.
    /// Returns the first (victims, prefetch order) pair.
    fn repeat_calls_agree(kind: PolicyKind) -> (Vec<BlockId>, Vec<BlockId>) {
        let dag = fig1();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut profile = RefProfile::default();
        profile.pv = dag.stage_ids().map(|s| tracker.pv(s)).collect();
        let done = |s: StageId| s == StageId(0);
        profile.rebuild(&dag, &|s, _| done(s), &done);
        let blocks: Vec<BlockId> = dag.rdds().iter().flat_map(|r| r.blocks()).collect();
        let (resident, on_disk) = blocks.split_at(blocks.len() / 2);

        let mut policy = kind.build();
        for (t, &b) in resident.iter().enumerate() {
            policy.on_insert(b, t as u64);
        }
        for (t, &b) in resident.iter().enumerate().step_by(2) {
            policy.on_access(b, 100 + t as u64);
        }
        let victims = policy.proactive_victims(resident, &profile);
        assert_eq!(
            policy.proactive_victims(resident, &profile),
            victims,
            "{kind}: proactive_victims changed between identical calls"
        );
        let (mut first, mut second) = (Vec::new(), Vec::new());
        policy.prefetch_order(on_disk, &profile, &mut first);
        policy.prefetch_order(on_disk, &profile, &mut second);
        assert_eq!(
            first, second,
            "{kind}: prefetch_order changed between identical calls"
        );
        (victims, first)
    }

    /// Rank every Fig. 1 block (stage 0 done) with one policy instance,
    /// in DAG order, reversed, and rotated by a third, and assert the
    /// three rankings are identical. The simulator appends a block a
    /// lineage resubmission revives to the end of its node's candidate
    /// pool instead of restoring materialisation order, so a ranking must
    /// not depend on input order. Blocks of one RDD tie on every policy
    /// key here, so only the tie-break separates them. Returns the
    /// ranking.
    fn order_ignores_input_order(kind: PolicyKind) -> Vec<BlockId> {
        let dag = fig1();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut profile = RefProfile::default();
        profile.pv = dag.stage_ids().map(|s| tracker.pv(s)).collect();
        let done = |s: StageId| s == StageId(0);
        profile.rebuild(&dag, &|s, _| done(s), &done);
        let blocks: Vec<BlockId> = dag.rdds().iter().flat_map(|r| r.blocks()).collect();
        let mut reversed = blocks.clone();
        reversed.reverse();
        let mut rotated = blocks.clone();
        rotated.rotate_left(blocks.len() / 3);

        let mut policy = kind.build();
        let mut first = Vec::new();
        policy.prefetch_order(&blocks, &profile, &mut first);
        for perm in [&reversed, &rotated] {
            let mut out = Vec::new();
            policy.prefetch_order(perm, &profile, &mut out);
            assert_eq!(out, first, "{kind}: prefetch_order depends on input order");
        }
        first
    }

    #[test]
    fn lru_prefetch_order_ignores_input_order() {
        assert!(order_ignores_input_order(PolicyKind::Lru).is_empty());
    }

    #[test]
    fn lrc_prefetch_order_ignores_input_order() {
        assert!(order_ignores_input_order(PolicyKind::Lrc).is_empty());
    }

    #[test]
    fn mrd_prefetch_order_ignores_input_order() {
        assert!(order_ignores_input_order(PolicyKind::Mrd).len() > 1);
    }

    #[test]
    fn lrp_prefetch_order_ignores_input_order() {
        assert!(order_ignores_input_order(PolicyKind::Lrp).len() > 1);
    }

    #[test]
    fn nocache_prefetch_order_ignores_input_order() {
        assert!(order_ignores_input_order(PolicyKind::None).is_empty());
    }

    #[test]
    fn lru_repeat_calls_are_idempotent() {
        assert_eq!(repeat_calls_agree(PolicyKind::Lru), (vec![], vec![]));
    }

    #[test]
    fn lrc_repeat_calls_are_idempotent() {
        let (victims, order) = repeat_calls_agree(PolicyKind::Lrc);
        assert!(!victims.is_empty());
        assert!(order.is_empty());
    }

    #[test]
    fn mrd_repeat_calls_are_idempotent() {
        let (victims, order) = repeat_calls_agree(PolicyKind::Mrd);
        assert!(!victims.is_empty());
        assert!(!order.is_empty());
    }

    #[test]
    fn lrp_repeat_calls_are_idempotent() {
        let (victims, order) = repeat_calls_agree(PolicyKind::Lrp);
        assert!(!victims.is_empty());
        assert!(!order.is_empty());
    }

    #[test]
    fn nocache_repeat_calls_are_idempotent() {
        assert_eq!(repeat_calls_agree(PolicyKind::None), (vec![], vec![]));
    }
}
