//! Per-executor BlockManager: the cache runtime that hosts a pluggable
//! [`CachePolicy`] (LRU / LRC / MRD / LRP live in `dagon-cache`).
//!
//! BlockManagers track *capacity and policy state* only; block residency
//! itself lives in the [`crate::locality_index::LocalityIndex`]-owned
//! `DataMap`. The simulator routes every admit/evict through the index's
//! mutators (never the `DataMap` directly), which is what lets the index
//! maintain its derived state — locality memos and the inverted
//! pending-work counts placement gates on — from the same delta stream.

use std::collections::BTreeMap;

use dagon_dag::{BlockId, SimTime};

use crate::refprofile::RefProfile;

/// A cache eviction/prefetch policy, as seen by one executor's
/// BlockManager. Policies get the master's [`RefProfile`] on every decision
/// (the paper's BlockManagerMaster "sends the updated profile to
/// BlockManager in the corresponding nodes").
///
/// **Purity contract.** [`proactive_victims`](Self::proactive_victims) and
/// [`prefetch_order`](Self::prefetch_order) are pure functions of their
/// arguments plus the policy state changed through
/// [`on_access`](Self::on_access), [`on_insert`](Self::on_insert) and
/// [`on_evict`](Self::on_evict): two calls with equal arguments and no
/// `on_*` call in between return identical output (internal memos are
/// allowed; observable differences are not). Neither may depend on
/// simulated time. The simulator's quiet-tick elision relies on this: a
/// tick whose inputs did not change since the last idle maintenance pass
/// skips the pass instead of repeating calls that would do nothing
/// (DESIGN.md §19).
pub trait CachePolicy {
    fn policy_name(&self) -> &'static str;

    /// A resident block was read (cache hit).
    fn on_access(&mut self, _b: BlockId, _now: SimTime) {}

    /// A block entered the cache (miss-fill, output write, or prefetch).
    fn on_insert(&mut self, _b: BlockId, _now: SimTime) {}

    /// A block left the cache.
    fn on_evict(&mut self, _b: BlockId) {}

    /// Choose a victim among `candidates` (unpinned resident blocks) to make
    /// room for `incoming`. Returning `None` rejects the insertion instead:
    /// value-aware policies refuse to evict a block more valuable than the
    /// incoming one.
    fn victim(
        &mut self,
        candidates: &[BlockId],
        incoming: Option<BlockId>,
        profile: &RefProfile,
    ) -> Option<BlockId>;

    /// Blocks to drop right now regardless of space pressure (LRP's
    /// proactive eviction of zero-reference-priority data).
    fn proactive_victims(
        &mut self,
        _candidates: &[BlockId],
        _profile: &RefProfile,
    ) -> Vec<BlockId> {
        Vec::new()
    }

    /// Pick the best block to prefetch from `candidates` (disk-resident,
    /// cache-eligible, not yet cached here). `None` = this policy doesn't
    /// prefetch (LRU, LRC).
    fn prefetch_pick(&mut self, _candidates: &[BlockId], _profile: &RefProfile) -> Option<BlockId> {
        None
    }

    /// Rank `candidates` into full prefetch-preference order, best first,
    /// written into `out`. Must agree with
    /// [`prefetch_pick`](Self::prefetch_pick): for any subset of
    /// `candidates`, the first `out` entry belonging to that subset is
    /// exactly the pick over it. The simulator relies on this to compute
    /// one ranking per *node* and re-filter it per executor (by free cache
    /// space) instead of re-scoring every candidate per executor. The
    /// default (no prefetching) leaves `out` empty.
    ///
    /// **Input-order contract.** `out` must not depend on the order of
    /// `candidates`: any permutation of the same set yields the same
    /// ranking, so ties need a total tie-break (the policies here break
    /// them by block id). The simulator's candidate pools are in
    /// materialisation order only until a lineage resubmission revives a
    /// dead block, which is appended to the end.
    fn prefetch_order(
        &mut self,
        _candidates: &[BlockId],
        _profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        out.clear();
    }

    /// Should a read miss insert the block (standard Spark persist
    /// behaviour)? `NoCache` says no.
    fn caches_on_miss(&self) -> bool {
        true
    }

    /// Does this policy accept insertions at all? `NoCache` (caching
    /// disabled, the paper's Fig. 9 setting) says no — not even task
    /// outputs enter storage memory.
    fn admits(&self) -> bool {
        true
    }
}

/// Outcome of an insertion attempt.
#[derive(Debug, PartialEq)]
pub enum InsertOutcome {
    /// Block stored; these blocks were evicted to make room.
    Inserted { evicted: Vec<BlockId> },
    /// Policy refused to finish making room (or the block is larger than
    /// capacity / the policy admits nothing). Victims evicted *before* the
    /// refusal stay evicted, exactly as Spark drops them before discovering
    /// the new block doesn't fit — the caller must account for them.
    Rejected { evicted: Vec<BlockId> },
    /// Already resident.
    AlreadyCached,
}

/// One executor's storage memory.
pub struct BlockManager {
    capacity_mb: f64,
    used_mb: f64,
    resident: BTreeMap<BlockId, f64>,
    pinned: BTreeMap<BlockId, u32>,
    policy: Box<dyn CachePolicy>,
}

impl BlockManager {
    pub fn new(capacity_mb: f64, policy: Box<dyn CachePolicy>) -> Self {
        Self {
            capacity_mb,
            used_mb: 0.0,
            resident: BTreeMap::new(),
            pinned: BTreeMap::new(),
            policy,
        }
    }

    pub fn policy_name(&self) -> &'static str {
        self.policy.policy_name()
    }

    pub fn contains(&self, b: BlockId) -> bool {
        self.resident.contains_key(&b)
    }

    pub fn used_mb(&self) -> f64 {
        self.used_mb
    }

    pub fn free_mb(&self) -> f64 {
        (self.capacity_mb - self.used_mb).max(0.0)
    }

    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// Fraction of capacity currently free (1.0 for a zero-capacity cache,
    /// so prefetching never triggers on it).
    pub fn free_frac(&self) -> f64 {
        if self.capacity_mb <= 0.0 {
            0.0
        } else {
            self.free_mb() / self.capacity_mb
        }
    }

    pub fn num_resident(&self) -> usize {
        self.resident.len()
    }

    pub fn resident_blocks(&self) -> Vec<BlockId> {
        // BTreeMap keys are already in ascending BlockId order.
        self.resident.keys().copied().collect()
    }

    pub fn caches_on_miss(&self) -> bool {
        self.policy.caches_on_miss()
    }

    /// Record a read of `b`. Returns `true` on hit (and touches the policy's
    /// recency state).
    pub fn access(&mut self, b: BlockId, now: SimTime) -> bool {
        if self.resident.contains_key(&b) {
            self.policy.on_access(b, now);
            true
        } else {
            false
        }
    }

    /// Pin a resident block while a task reads it (pinned blocks are not
    /// eviction candidates, mirroring Spark's block locks).
    pub fn pin(&mut self, b: BlockId) {
        if self.resident.contains_key(&b) {
            *self.pinned.entry(b).or_insert(0) += 1;
        }
    }

    pub fn unpin(&mut self, b: BlockId) {
        if let Some(c) = self.pinned.get_mut(&b) {
            *c -= 1;
            if *c == 0 {
                self.pinned.remove(&b);
            }
        }
    }

    fn evictable(&self) -> Vec<BlockId> {
        // Ascending BlockId order by construction (ordered keys).
        self.resident
            .keys()
            .filter(|b| !self.pinned.contains_key(b))
            .copied()
            .collect()
    }

    /// Try to insert `b` of `mb` MiB, evicting per policy as needed.
    pub fn try_insert(
        &mut self,
        b: BlockId,
        mb: f64,
        now: SimTime,
        profile: &RefProfile,
    ) -> InsertOutcome {
        if !self.policy.admits() {
            return InsertOutcome::Rejected { evicted: vec![] };
        }
        if self.resident.contains_key(&b) {
            return InsertOutcome::AlreadyCached;
        }
        if mb > self.capacity_mb {
            return InsertOutcome::Rejected { evicted: vec![] };
        }
        let mut evicted = Vec::new();
        while self.used_mb + mb > self.capacity_mb + 1e-9 {
            let candidates = self.evictable();
            if candidates.is_empty() {
                return InsertOutcome::Rejected { evicted };
            }
            match self.policy.victim(&candidates, Some(b), profile) {
                Some(v) => {
                    self.drop_block(v);
                    evicted.push(v);
                }
                None => return InsertOutcome::Rejected { evicted },
            }
        }
        self.resident.insert(b, mb);
        self.used_mb += mb;
        self.policy.on_insert(b, now);
        InsertOutcome::Inserted { evicted }
    }

    /// Remove a block (eviction bookkeeping included).
    fn drop_block(&mut self, b: BlockId) {
        if let Some(mb) = self.resident.remove(&b) {
            self.used_mb -= mb;
            self.pinned.remove(&b);
            self.policy.on_evict(b);
        }
    }

    /// Forcibly drop a block regardless of pins (fault injection: block
    /// corruption/loss). Returns whether the block was resident. Any task
    /// currently pinning it already paid its read cost — only future reads
    /// see the loss — so clearing the pin is safe.
    pub fn invalidate(&mut self, b: BlockId) -> bool {
        let was = self.resident.contains_key(&b);
        self.drop_block(b);
        was
    }

    /// Drop every resident block (executor crash wiping its storage
    /// memory). Returns the blocks that were resident, in sorted order.
    pub fn crash_clear(&mut self) -> Vec<BlockId> {
        let blocks = self.resident_blocks();
        for b in &blocks {
            self.drop_block(*b);
        }
        blocks
    }

    /// Apply the policy's proactive eviction pass; returns dropped blocks.
    pub fn proactive_sweep(&mut self, profile: &RefProfile) -> Vec<BlockId> {
        let candidates = self.evictable();
        let victims = self.policy.proactive_victims(&candidates, profile);
        for v in &victims {
            self.drop_block(*v);
        }
        victims
    }

    /// Ask the policy which of `candidates` to prefetch next.
    pub fn prefetch_pick(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
    ) -> Option<BlockId> {
        self.policy.prefetch_pick(candidates, profile)
    }

    /// Full prefetch-preference ranking; see
    /// [`CachePolicy::prefetch_order`].
    pub fn prefetch_order(
        &mut self,
        candidates: &[BlockId],
        profile: &RefProfile,
        out: &mut Vec<BlockId>,
    ) {
        self.policy.prefetch_order(candidates, profile, out);
    }
}

/// The "caching disabled" policy used by the paper's Fig. 9 experiments.
#[derive(Default)]
pub struct NoCache;

impl CachePolicy for NoCache {
    fn policy_name(&self) -> &'static str {
        "none"
    }

    fn victim(&mut self, _c: &[BlockId], _i: Option<BlockId>, _p: &RefProfile) -> Option<BlockId> {
        None
    }

    fn caches_on_miss(&self) -> bool {
        false
    }

    fn admits(&self) -> bool {
        false
    }
}

#[cfg(test)]
// Replay values in these tests are set, not computed: exact float
// equality is the contract being asserted.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use dagon_dag::RddId;

    /// Evicts the smallest BlockId; accepts everything.
    struct FifoTest;
    impl CachePolicy for FifoTest {
        fn policy_name(&self) -> &'static str {
            "fifo-test"
        }
        fn victim(
            &mut self,
            c: &[BlockId],
            _i: Option<BlockId>,
            _p: &RefProfile,
        ) -> Option<BlockId> {
            c.first().copied()
        }
    }

    fn blk(r: u32, p: u32) -> BlockId {
        BlockId::new(RddId(r), p)
    }

    #[test]
    fn insert_until_full_then_evict() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert_eq!(
            bm.try_insert(blk(0, 0), 40.0, 0, &p),
            InsertOutcome::Inserted { evicted: vec![] }
        );
        assert_eq!(
            bm.try_insert(blk(0, 1), 40.0, 0, &p),
            InsertOutcome::Inserted { evicted: vec![] }
        );
        // Needs 40 more: evicts blk(0,0).
        match bm.try_insert(blk(0, 2), 40.0, 0, &p) {
            InsertOutcome::Inserted { evicted } => assert_eq!(evicted, vec![blk(0, 0)]),
            o => panic!("{o:?}"),
        }
        assert!(!bm.contains(blk(0, 0)));
        assert!(bm.contains(blk(0, 2)));
        assert!((bm.used_mb() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut bm = BlockManager::new(10.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert_eq!(
            bm.try_insert(blk(0, 0), 11.0, 0, &p),
            InsertOutcome::Rejected { evicted: vec![] }
        );
    }

    #[test]
    fn double_insert_reports_already_cached() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 0), 10.0, 0, &p);
        assert_eq!(
            bm.try_insert(blk(0, 0), 10.0, 0, &p),
            InsertOutcome::AlreadyCached
        );
    }

    #[test]
    fn pinned_blocks_are_not_evicted() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 0), 60.0, 0, &p);
        bm.pin(blk(0, 0));
        // 60 used, need 60 more; only candidate is pinned → rejected.
        assert!(matches!(
            bm.try_insert(blk(0, 1), 60.0, 0, &p),
            InsertOutcome::Rejected { .. }
        ));
        bm.unpin(blk(0, 0));
        assert!(matches!(
            bm.try_insert(blk(0, 1), 60.0, 0, &p),
            InsertOutcome::Inserted { .. }
        ));
    }

    #[test]
    fn access_hits_only_resident() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert!(!bm.access(blk(0, 0), 0));
        bm.try_insert(blk(0, 0), 10.0, 0, &p);
        assert!(bm.access(blk(0, 0), 1));
    }

    #[test]
    fn nocache_rejects_everything() {
        let mut bm = BlockManager::new(100.0, Box::new(NoCache));
        let p = RefProfile::default();
        assert!(!bm.caches_on_miss());
        assert!(matches!(
            bm.try_insert(blk(0, 0), 60.0, 0, &p),
            InsertOutcome::Rejected { .. }
        ));
        assert!(!bm.contains(blk(0, 0)));
        assert_eq!(bm.used_mb(), 0.0);
    }

    #[test]
    fn invalidate_drops_even_pinned_blocks() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 0), 30.0, 0, &p);
        bm.pin(blk(0, 0));
        assert!(bm.invalidate(blk(0, 0)));
        assert!(!bm.contains(blk(0, 0)));
        assert_eq!(bm.used_mb(), 0.0);
        assert!(!bm.invalidate(blk(0, 0))); // already gone
        bm.unpin(blk(0, 0)); // stale unpin after loss is a no-op
    }

    #[test]
    fn crash_clear_empties_storage() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        bm.try_insert(blk(0, 1), 30.0, 0, &p);
        bm.try_insert(blk(0, 0), 30.0, 0, &p);
        bm.pin(blk(0, 0));
        let lost = bm.crash_clear();
        assert_eq!(lost, vec![blk(0, 0), blk(0, 1)]);
        assert_eq!(bm.used_mb(), 0.0);
        assert!(bm.crash_clear().is_empty());
    }

    #[test]
    fn free_frac_tracks_usage() {
        let mut bm = BlockManager::new(100.0, Box::new(FifoTest));
        let p = RefProfile::default();
        assert_eq!(bm.free_frac(), 1.0);
        bm.try_insert(blk(0, 0), 25.0, 0, &p);
        assert!((bm.free_frac() - 0.75).abs() < 1e-9);
        let zero = BlockManager::new(0.0, Box::new(NoCache));
        assert_eq!(zero.free_frac(), 0.0);
    }
}
