//! The BlockManagerMaster's *reference profile*: for every block, which
//! not-yet-finished work still reads it, at what FIFO distance, and at what
//! stage priority. LRC, MRD and LRP are all simple functions of this one
//! structure; LRU ignores it.

// Frontier stage ids from `num_stages()`: bounded by DAG construction.
#![allow(clippy::cast_possible_truncation)]

use dagon_dag::{BlockId, DepKind, JobDag, StageId};

/// One future use of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRef {
    /// The stage whose unfinished task will read the block.
    pub stage: StageId,
}

/// Per-block future-use registry plus the scheduler-facing stage state the
/// DAG-aware cache policies key off.
#[derive(Clone, Debug, Default)]
pub struct RefProfile {
    /// Remaining reads of each block, dense-indexed by
    /// `offsets[rdd] + partition`: one entry per *unfinished reading task*
    /// (so LRC's reference count falls as tasks finish, and a block whose
    /// readers all completed ends up empty — Fig. 6's deletion). The flat
    /// layout makes `is_live`/`lrp_priority`/`mrd_distance` O(1) + O(uses)
    /// array reads; with the former `BTreeMap` keying, the tree walk per
    /// lookup dominated every per-tick prefetch/sweep scan at paper scale.
    uses: Vec<Vec<StageRef>>,
    /// Flat-index base per RDD id (parallel to the DAG's RDD table).
    offsets: Vec<u32>,
    /// Partition count per RDD id, bounding each RDD's flat range.
    counts: Vec<u32>,
    /// Lowest incomplete stage id — MRD's "currently executing stage"
    /// cursor under FIFO order.
    pub frontier: u32,
    /// Current priority value `pv_i` per stage (Eq. 6), indexed by stage.
    pub pv: Vec<u64>,
}

impl RefProfile {
    /// Flat index of `b`, or `None` for blocks outside the profiled DAG
    /// (possible before the first `rebuild`, or for foreign test blocks) —
    /// those have no recorded uses by definition.
    #[inline]
    fn idx(&self, b: BlockId) -> Option<usize> {
        let r = b.rdd.index();
        if r >= self.counts.len() || b.partition >= self.counts[r] {
            return None;
        }
        Some(self.offsets[r] as usize + b.partition as usize)
    }

    #[inline]
    fn get(&self, b: BlockId) -> Option<&[StageRef]> {
        self.idx(b).map(|i| self.uses[i].as_slice())
    }
    /// Rebuild the use map from scratch.
    ///
    /// * `task_done(stage, index)` — has that task finished?
    /// * `stage_done(stage)` — has the whole stage finished?
    /// * `pv` — current priority values (pass zeros when no tracker exists).
    pub fn rebuild(
        &mut self,
        dag: &JobDag,
        task_done: &dyn Fn(StageId, u32) -> bool,
        stage_done: &dyn Fn(StageId) -> bool,
    ) {
        // (Re)derive the dense layout from the DAG's RDD table; partition
        // counts are fixed at DAG construction, so the layout is stable
        // across rebuilds of the same job.
        self.offsets.clear();
        self.counts.clear();
        let mut total = 0u32;
        for r in dag.rdds() {
            self.offsets.push(total);
            self.counts.push(r.num_partitions);
            total += r.num_partitions;
        }
        self.uses.iter_mut().for_each(Vec::clear);
        self.uses.resize(total as usize, Vec::new());
        for stage in dag.stages() {
            if stage_done(stage.id) {
                continue;
            }
            for input in &stage.inputs {
                let rdd = dag.rdd(input.rdd);
                let base = self.offsets[rdd.id.index()] as usize;
                match input.kind {
                    DepKind::Narrow => {
                        for k in 0..stage.num_tasks {
                            if !task_done(stage.id, k) {
                                self.uses[base + k as usize].push(StageRef { stage: stage.id });
                            }
                        }
                    }
                    DepKind::Wide => {
                        // Block j is read by task j % num_tasks (the
                        // simulator's round-robin shuffle split).
                        for j in 0..rdd.num_partitions {
                            let k = j % stage.num_tasks;
                            if !task_done(stage.id, k) {
                                self.uses[base + j as usize].push(StageRef { stage: stage.id });
                            }
                        }
                    }
                }
            }
        }
        self.frontier = dag
            .stage_ids()
            .find(|s| !stage_done(*s))
            .map(|s| s.0)
            .unwrap_or(dag.num_stages() as u32);
    }

    /// LRC's reference count: remaining unfinished reads.
    pub fn lrc_count(&self, b: BlockId) -> u32 {
        self.get(b).map(|v| v.len() as u32).unwrap_or(0)
    }

    /// MRD's stage reference distance: how many stage ids ahead of the FIFO
    /// frontier the *nearest* future use is. `None` = never used again
    /// (infinitely far; evict first, never prefetch).
    pub fn mrd_distance(&self, b: BlockId) -> Option<u32> {
        self.get(b)?
            .iter()
            .map(|r| r.stage.0.saturating_sub(self.frontier))
            .min()
    }

    /// LRP's reference priority (Def. 1): the highest `pv` among stages
    /// still reading the block; 0 when no future use remains.
    pub fn lrp_priority(&self, b: BlockId) -> u64 {
        self.get(b)
            .map(|v| {
                v.iter()
                    .map(|r| self.pv.get(r.stage.index()).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }

    /// Remove one use entry of `stage` for block `b` (incremental update
    /// when the reading task finishes — avoids full rebuilds in the hot
    /// path).
    pub fn remove_use(&mut self, b: BlockId, stage: StageId) {
        if let Some(i) = self.idx(b) {
            let v = &mut self.uses[i];
            if let Some(pos) = v.iter().position(|r| r.stage == stage) {
                v.swap_remove(pos);
            }
        }
    }

    /// Re-add one use entry of `stage` for block `b` — the inverse of
    /// [`remove_use`](Self::remove_use), for lineage recovery resubmitting
    /// a finished task whose reads come back. Blocks outside the profiled
    /// DAG (no `rebuild` yet) are ignored, matching the lookup side.
    /// Returns whether the use revived a dead block: `is_live(b)` turned
    /// from false to true. No other method makes a dead block live.
    pub fn add_use(&mut self, b: BlockId, stage: StageId) -> bool {
        let Some(i) = self.idx(b) else {
            return false;
        };
        let v = &mut self.uses[i];
        v.push(StageRef { stage });
        v.len() == 1
    }

    /// Does any future use remain?
    pub fn is_live(&self, b: BlockId) -> bool {
        self.get(b).is_some_and(|v| !v.is_empty())
    }

    /// Stages that still read the block.
    pub fn using_stages(&self, b: BlockId) -> Vec<StageId> {
        self.get(b)
            .map(|v| v.iter().map(|r| r.stage).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::examples::fig1;
    use dagon_dag::{PriorityTracker, RddId, MIN_MS};

    fn profile_at_start() -> (dagon_dag::JobDag, RefProfile) {
        let dag = fig1();
        let tracker = PriorityTracker::from_dag(&dag);
        let mut p = RefProfile {
            pv: dag.stage_ids().map(|s| tracker.pv(s)).collect(),
            ..Default::default()
        };
        p.rebuild(&dag, &|_, _| false, &|_| false);
        (dag, p)
    }

    #[test]
    fn fig1_initial_reference_counts() {
        let (_, p) = profile_at_start();
        // A1 read once (stage1 task 0), narrow.
        assert_eq!(p.lrc_count(BlockId::new(RddId(0), 0)), 1);
        // B blocks (rdd 2 = stage1 output) each read once by stage 4's task.
        assert_eq!(p.lrc_count(BlockId::new(RddId(2), 0)), 1);
        assert!(p.is_live(BlockId::new(RddId(2), 1)));
        // Unknown block: zero.
        assert_eq!(p.lrc_count(BlockId::new(RddId(9), 0)), 0);
        assert!(!p.is_live(BlockId::new(RddId(9), 0)));
    }

    #[test]
    fn fig1_mrd_distances_follow_stage_ids() {
        let (_, p) = profile_at_start();
        assert_eq!(p.frontier, 0);
        // A (rdd 0) used by stage S0: distance 0.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(0), 0)), Some(0));
        // C (rdd 1) used by S1: distance 1.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(1), 2)), Some(1));
        // B (rdd 2) used by S3: distance 3.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(2), 0)), Some(3));
        // D (rdd 3 = stage2 output) used by S2: distance 2.
        assert_eq!(p.mrd_distance(BlockId::new(RddId(3), 0)), Some(2));
        // F (final output) never read.
        let f = BlockId::new(RddId(5), 0);
        assert_eq!(p.mrd_distance(f), None);
    }

    #[test]
    fn fig1_lrp_priorities_use_highest_pv() {
        let (_, p) = profile_at_start();
        // B blocks are read by stage4 (pv = 4): priority 4 vCPU-min.
        assert_eq!(p.lrp_priority(BlockId::new(RddId(2), 0)) / MIN_MS, 4);
        // C blocks read by stage2 (pv = 64).
        assert_eq!(p.lrp_priority(BlockId::new(RddId(1), 0)) / MIN_MS, 64);
        // A blocks read by stage1 (pv = 52).
        assert_eq!(p.lrp_priority(BlockId::new(RddId(0), 0)) / MIN_MS, 52);
        // Dead block → 0.
        assert_eq!(p.lrp_priority(BlockId::new(RddId(5), 0)), 0);
    }

    #[test]
    fn completing_tasks_and_stages_removes_uses() {
        let (dag, mut p) = profile_at_start();
        // Stage1 (S0) finished entirely: A blocks dead, frontier advances.
        p.rebuild(&dag, &|s, _| s == StageId(0), &|s| s == StageId(0));
        assert!(!p.is_live(BlockId::new(RddId(0), 0)));
        assert_eq!(p.frontier, 1);
        // B still live (stage4 not done).
        assert!(p.is_live(BlockId::new(RddId(2), 0)));
        // Now also finish stage4's single task: B dead.
        p.rebuild(&dag, &|s, _| s == StageId(0) || s == StageId(3), &|s| {
            s == StageId(0) || s == StageId(3)
        });
        assert!(!p.is_live(BlockId::new(RddId(2), 0)));
    }

    #[test]
    fn wide_use_multiplicity_tracks_assigned_tasks() {
        let (dag, mut p) = profile_at_start();
        // D (rdd 3) has 3 blocks read by S2's 2 tasks: block j read by task
        // j % 2. Finish task 0 of S2 → blocks 0 and 2 lose their use.
        p.rebuild(&dag, &|s, k| s == StageId(2) && k == 0, &|_| false);
        assert!(!p.is_live(BlockId::new(RddId(3), 0)));
        assert!(p.is_live(BlockId::new(RddId(3), 1)));
        assert!(!p.is_live(BlockId::new(RddId(3), 2)));
    }

    #[test]
    fn add_use_reports_only_revivals() {
        let (_, mut p) = profile_at_start();
        let b = BlockId::new(RddId(2), 0);
        // Live already (stage 4 reads it): a second use is no revival.
        assert!(!p.add_use(b, StageId(3)));
        p.remove_use(b, StageId(3));
        p.remove_use(b, StageId(3));
        assert!(!p.is_live(b));
        assert!(p.add_use(b, StageId(3)));
        assert!(p.is_live(b));
        // Blocks outside the profiled DAG stay dead.
        assert!(!p.add_use(BlockId::new(RddId(9), 0), StageId(0)));
    }

    #[test]
    fn using_stages_lists_consumers() {
        let (_, p) = profile_at_start();
        assert_eq!(p.using_stages(BlockId::new(RddId(2), 0)), vec![StageId(3)]);
    }
}
