//! [`LocalityIndex`]: incremental block-residency index for the scheduler
//! fast path.
//!
//! The sequential scheduler recomputed every task's locality on every
//! query by scanning [`DataMap`]'s per-block `BTreeMap` replica lists and
//! walking the topology — O(blocks × execs) per task per query, repeated
//! for every pending task of every ready stage on every scheduling round.
//! This module replaces those scans with:
//!
//! * **dense bitsets** summarizing residency: one cached-executors row and
//!   one disk-nodes row of `u64` words per block, indexed by a flat block
//!   id (per-RDD offsets). Node and rack membership tests become masked
//!   word tests because [`crate::topology::Topology::build`] assigns node
//!   ids contiguously per rack and executor ids contiguously per node;
//! * a **global generation**: every residency change bumps it, so a
//!   caller holding several decisions computed against one residency
//!   state can tell whether a launch moved it;
//! * **one fold per task**: a task's per-executor levels are computed
//!   once, when its stage is folded into the inverted index (or the task
//!   is re-inserted after a failure), and retracted once, when it leaves
//!   the pending set. The fold fills the gate counts below, the stage's
//!   per-(executor, level) scan rows and the task's valid-level
//!   contribution; residency flips then move exactly the re-levelled
//!   readers. Nothing is cached per task beyond what the fold maintains:
//!   ad-hoc queries (`task_locality`, `task_best_level`) recompute from
//!   the bitsets;
//! * **per-stage valid-level counts** folded at activation and maintained
//!   from the pending-churn and residency-flip delta streams, so Spark's
//!   `computeValidLocalityLevels` costs O(changed since the last query)
//!   instead of a pending walk per placement probe;
//! * an **inverted pending-work index**: for every (active stage, sub-ANY
//!   locality level, executor), the number of *pending* tasks that would
//!   run at exactly that level there, plus a strict variant counting only
//!   tasks whose best-anywhere level *is* that level. Maintained eagerly —
//!   the simulator mirrors every pending-set pop/insert via
//!   [`on_pending_removed`](LocalityIndex::on_pending_removed) /
//!   [`on_pending_inserted`](LocalityIndex::on_pending_inserted), and the
//!   residency mutators diff the affected readers' levels across the one
//!   rack a single-block flip can re-level. Placement consults the counts
//!   ([`pending_level_count`](LocalityIndex::pending_level_count),
//!   [`pending_strict_count`](LocalityIndex::pending_strict_count)) to
//!   skip probing executors with provably no work at a level, which keeps
//!   the gate *conservative and exact* — see `DESIGN.md` §14 for the
//!   order-preservation argument.
//! * **stage scoping**: only *active* stages are folded into the inverted
//!   index — a stage is folded in by
//!   [`activate_stage`](LocalityIndex::activate_stage) when it first
//!   becomes schedulable (like Spark's `TaskSetManager`, which exists only
//!   once its stage is submitted) and folded out by
//!   [`release_stage`](LocalityIndex::release_stage). A per-block count of
//!   active readers lets a residency flip on a block no active stage reads
//!   skip the reader diff entirely (`DESIGN.md` §20).
//!
//! The index owns the [`DataMap`] and mirrors every mutation
//! ([`add_disk`](LocalityIndex::add_disk),
//! [`add_cached`](LocalityIndex::add_cached),
//! [`remove_cached`](LocalityIndex::remove_cached)), so it can never drift
//! from the authoritative registry; a property test cross-checks it
//! against brute-force recomputation under random mutation sequences.

// Packed u8 rack codes and u32 flat ids: counts are bounded by cluster
// size (execs, nodes, racks) and per-RDD block counts, all far below the
// target types' range by construction.
#![allow(clippy::cast_possible_truncation)]

use std::cell::{Cell, RefCell};

use dagon_dag::{BlockId, JobDag};

use crate::config::ReadTier;
use crate::hdfs::DataMap;
use crate::locality::Locality;
use crate::pending::PendingSet;
use crate::topology::{ExecId, NodeId, Topology};
use crate::view::TaskView;

/// Scheduler-overhead counters the index maintains (interior mutability:
/// queries run through the shared [`crate::view::SimView`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Locality lookups answered (task/block level queries and probes).
    pub locality_queries: u64,
    /// Residency mutations (each bumps the global generation).
    pub invalidations: u64,
    /// Valid-level folds: one per stage activation, which folds every
    /// pending task's contribution mask into the stage's counts.
    pub valid_level_rebuilds: u64,
    /// Inverted-index gates that answered "no work here" (probe skipped).
    pub inv_index_hits: u64,
    /// Incremental inverted-index maintenance operations (pending-set
    /// mirror events plus per-reader residency diffs).
    pub inv_index_updates: u64,
    /// From-scratch inverted-index builds. Must stay 1 (the initial build
    /// in [`LocalityIndex::new`]), like `ready_list_rebuilds`.
    pub inv_index_rebuilds: u64,
    /// Stages folded into the inverted index by
    /// [`LocalityIndex::activate_stage`]: at most one per stage in a
    /// fault-free run (a lineage resubmission re-activates).
    pub inv_stage_activations: u64,
    /// Residency flips that ran the reader diff (the rest touched a block
    /// no active stage reads and only bumped the generation).
    pub inv_flip_diffs: u64,
}

/// `Locality::Any` as the packed `u8` the index stores levels in.
const L_ANY: u8 = Locality::Any as u8;
/// `Locality::Process` as a packed `u8`.
const L_PROCESS: u8 = Locality::Process as u8;

/// Per-stage valid-level contribution counts, allocated when the stage is
/// activated and freed when it is released. `cnt[l]` is the number of
/// pending tasks whose contribution mask includes level `l`. The fold-in
/// adds a task's mask, the fold-out subtracts the mask that was folded,
/// and residency flips enqueue exactly the re-levelled pending readers
/// (`dirty`, fed by the same `inv_commit` diff that maintains the
/// inverted counts) to be re-diffed at the next query — a query costs
/// O(changed since the last one), not O(pending).
#[derive(Clone, Debug, Default)]
struct ContribState {
    cnt: [u32; 4],
    /// Per-task contribution mask currently folded into `cnt`;
    /// authoritative while the task is pending.
    applied: Vec<u8>,
    /// Pending tasks re-levelled since the last query, deduplicated via
    /// `dirty_bit`.
    dirty: Vec<u32>,
    dirty_bit: Vec<bool>,
}

impl ContribState {
    fn new(tasks: usize) -> Self {
        Self {
            cnt: [0; 4],
            applied: vec![0; tasks],
            dirty: Vec::new(),
            dirty_bit: vec![false; tasks],
        }
    }
}

/// Add/remove one contribution mask to/from per-level counts.
#[inline]
fn contrib_add(cnt: &mut [u32; 4], mut mask: u8) {
    while mask != 0 {
        cnt[mask.trailing_zeros() as usize] += 1;
        mask &= mask - 1;
    }
}

#[inline]
fn contrib_sub(cnt: &mut [u32; 4], mut mask: u8) {
    while mask != 0 {
        cnt[mask.trailing_zeros() as usize] -= 1;
        mask &= mask - 1;
    }
}

/// Fold one rack's levels (its executors in ascending id order) into a
/// task's valid-level contribution mask: the levels seen walking
/// executors in id order up to and including the first PROCESS-local one
/// — the sequential `computeValidLocalityLevels` inner loop with its early
/// break. Returns `true` once that break is reached.
#[inline]
fn contrib_fold(mask: &mut u8, levels: &[u8]) -> bool {
    for &l in levels {
        *mask |= 1 << l;
        if l == L_PROCESS {
            return true;
        }
    }
    false
}

/// One stage's placement scan rows, allocated when the stage is activated
/// and freed when it is released. Row `(e, level)` for the three sub-ANY
/// levels holds exactly the pending tasks whose level on executor `e` is
/// `level`: the fold-in sets a task's bits, the fold-out clears them, and
/// `inv_commit` moves the re-levelled readers' bits. The ANY row is
/// implicit — the pending bitmap minus the three sub-ANY rows. A probe for
/// (executor, level) is therefore one word scan of one row, and its first
/// set bit is exactly the task the sequential first-match walk over the
/// pending set would return.
#[derive(Clone, Debug, Default)]
struct StageScan {
    /// `bits[(e × 3 + level) × words ..][..words]`: the row of (executor
    /// `e`, sub-ANY `level`).
    bits: Vec<u64>,
    /// Words per task bitmap (`ceil(tasks / 64)`).
    words: usize,
}

impl StageScan {
    fn new(execs: usize, tasks: usize) -> Self {
        let words = tasks.div_ceil(64);
        Self {
            bits: vec![0; execs * 3 * words],
            words,
        }
    }

    #[inline]
    fn row(&self, e: usize, level: u8) -> &[u64] {
        &self.bits[(e * 3 + level as usize) * self.words..][..self.words]
    }

    #[inline]
    fn row_mut(&mut self, e: usize, level: u8) -> &mut [u64] {
        &mut self.bits[(e * 3 + level as usize) * self.words..][..self.words]
    }
}

// lint: incremental(data, mutators = [add_disk, add_cached, remove_cached, remove_disk], init = [new], via = [add_disk, add_cached, remove_cached, remove_disk], pairs = [inv_capture, inv_commit], oracle = check_inv_consistency)
// lint: incremental(cached_bits, mutators = [cached_row_mut])
// lint: incremental(disk_bits, mutators = [disk_row_mut])
// lint: incremental(inv_cnt, mutators = [inv_insert_task, inv_remove_task, inv_commit], oracle = check_inv_consistency)
// lint: incremental(inv_scnt, mutators = [inv_insert_task, inv_remove_task, inv_commit], oracle = check_inv_consistency)
// lint: incremental(inv_pending, mutators = [inv_insert_task, inv_remove_task])
// lint: incremental(inv_active, mutators = [activate_stage, release_stage], oracle = check_inv_consistency)
// lint: incremental(inv_active_readers, mutators = [activate_stage, release_stage], oracle = check_inv_consistency)
// lint: incremental(inv_pending_len, mutators = [inv_insert_task, inv_remove_task])
// lint: incremental(inv_best, mutators = [inv_insert_task, inv_commit])
// lint: incremental(inv_best_any, mutators = [inv_insert_task, inv_remove_task, inv_commit])
// lint: incremental(inv_rack_best, mutators = [inv_insert_task, inv_commit])
// lint: incremental(readers, oracle = check_inv_consistency)
// lint: incremental(contribs, mutators = [inv_insert_task, inv_remove_task, inv_commit, activate_stage, release_stage, valid_levels], oracle = check_inv_consistency)
// lint: incremental(scans, mutators = [inv_insert_task, inv_remove_task, inv_commit, activate_stage, release_stage], oracle = check_inv_consistency)
// lint: hotpath(add_disk, add_cached, remove_cached, remove_disk, inv_capture, inv_commit, inv_insert_task, inv_remove_task, pending_level_count, pending_strict_count, scan_first)
pub struct LocalityIndex {
    data: DataMap,
    /// Flat block id = `rdd_base[rdd] + partition`.
    rdd_base: Vec<u32>,
    exec_words: usize,
    node_words: usize,
    /// `cached_bits[block × exec_words ..][..exec_words]`: executors
    /// caching the block.
    cached_bits: Vec<u64>,
    /// `disk_bits[block × node_words ..][..node_words]`: nodes holding a
    /// disk replica.
    disk_bits: Vec<u64>,
    /// Residency mutations so far (monotone).
    global_gen: u64,
    // Topology summary (contiguous-id ranges, see module docs).
    num_execs: u32,
    exec_node: Vec<u32>,
    node_rack: Vec<u16>,
    /// Executors of node `n` are `node_exec_range[n].0 .. .1`.
    node_exec_range: Vec<(u32, u32)>,
    /// Nodes of rack `r` are `rack_node_range[r].0 .. .1`.
    rack_node_range: Vec<(u32, u32)>,
    /// Executors of rack `r` are `rack_exec_range[r].0 .. .1`.
    rack_exec_range: Vec<(u32, u32)>,
    /// `task_blocks[stage][task]` = flat ids of the task's locality blocks.
    task_blocks: Vec<Vec<Vec<u32>>>,
    /// Per-stage valid-level counts (see [`ContribState`]). Behind a
    /// `RefCell` because the shared-borrow query
    /// [`valid_levels`](Self::valid_levels) drains the dirty queue.
    contribs: RefCell<Vec<ContribState>>,
    /// Per-stage placement scan rows (see [`StageScan`]).
    scans: Vec<StageScan>,
    queries: Cell<u64>,
    // ---- Inverted pending-work index (see module docs) ----
    /// `inv_cnt[stage][level × num_execs + exec]` for the three sub-ANY
    /// levels: pending tasks at exactly `level` on `exec`. The ANY count
    /// is derived (`pending_len − Σ sub-ANY counts at the executor`).
    inv_cnt: Vec<Vec<u32>>,
    /// Same layout, restricted to tasks whose best-anywhere level equals
    /// the level — the strict probe's candidate set. The strict ANY count
    /// is [`Self::inv_best_any`] (best-ANY tasks sit at ANY everywhere).
    inv_scnt: Vec<Vec<u32>>,
    /// Mirror of each stage's authoritative `PendingSet` membership.
    inv_pending: Vec<Vec<bool>>,
    inv_pending_len: Vec<u32>,
    /// Pending tasks per stage whose best level is ANY.
    inv_best_any: Vec<u32>,
    /// Per-task best-anywhere level, valid while the task is pending.
    inv_best: Vec<Vec<u8>>,
    /// `inv_rack_best[stage][task × num_racks + rack]`: the task's best
    /// level within the rack, valid while pending. Bounds the incremental
    /// walks: an executor can sit below ANY only in a rack whose entry is
    /// below ANY.
    inv_rack_best: Vec<Vec<u8>>,
    /// `readers[flat_block]` = the `(stage, task)` pairs reading the block
    /// — the reverse of `task_blocks`, i.e. exactly the tasks a residency
    /// flip on the block can re-level.
    readers: Vec<Vec<(u32, u32)>>,
    /// Is the stage folded into the inverted index? Only active stages
    /// carry a pending mirror, counts, scan rows and contribution counts;
    /// an inactive stage's are all zero or empty.
    inv_active: Vec<bool>,
    /// `inv_active_readers[flat_block]`: entries of `readers[flat_block]`
    /// whose stage is active. Zero ⟹ a residency flip on the block can
    /// re-level no mirrored task, so the mutators skip the reader diff.
    inv_active_readers: Vec<u32>,
    inv_hits: Cell<u64>,
    inv_updates: Cell<u64>,
    inv_activations: u64,
    inv_flip_diffs: u64,
    // Reusable scratch for the mutation diffs (hot path: one
    // capture/commit pair per residency flip; no per-flip allocation).
    inv_readers_scratch: Vec<(u32, u32)>,
    inv_levels_scratch: Vec<u8>,
    inv_news_scratch: Vec<u8>,
    inv_tmp_scratch: Vec<u8>,
    inv_pairs_scratch: Vec<(u32, u8)>,
}

/// Any bit set in the contiguous bit range `[a, b)` of `row`?
#[inline]
fn range_any(row: &[u64], a: u32, b: u32) -> bool {
    if a >= b {
        return false;
    }
    let (aw, ab) = ((a / 64) as usize, a % 64);
    let (bw, bb) = ((b / 64) as usize, b % 64);
    if aw == bw {
        let mask = ((1u64 << (bb - ab)) - 1) << ab;
        return row[aw] & mask != 0;
    }
    if row[aw] & (!0u64 << ab) != 0 {
        return true;
    }
    if row[aw + 1..bw].iter().any(|w| *w != 0) {
        return true;
    }
    bb > 0 && row[bw] & ((1u64 << bb) - 1) != 0
}

#[inline]
fn get_bit(row: &[u64], i: u32) -> bool {
    row[(i / 64) as usize] >> (i % 64) & 1 == 1
}

#[inline]
fn set_bit(row: &mut [u64], i: u32) {
    row[(i / 64) as usize] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(row: &mut [u64], i: u32) {
    row[(i / 64) as usize] &= !(1 << (i % 64));
}

impl LocalityIndex {
    /// Build the index over an initial placement. `task_views` supplies
    /// each task's locality blocks (narrow inputs).
    pub fn new(dag: &JobDag, topo: &Topology, data: DataMap, task_views: &[Vec<TaskView>]) -> Self {
        let mut rdd_base = Vec::with_capacity(dag.num_rdds());
        let mut n_blocks = 0u32;
        for r in dag.rdds() {
            rdd_base.push(n_blocks);
            n_blocks += r.num_partitions;
        }
        let num_execs = topo.exec_node.len() as u32;
        let num_nodes = topo.node_rack.len() as u32;
        let exec_words = (num_execs as usize).div_ceil(64).max(1);
        let node_words = (num_nodes as usize).div_ceil(64).max(1);

        let exec_node: Vec<u32> = topo.exec_node.iter().map(|n| n.0).collect();
        let node_rack: Vec<u16> = topo.node_rack.iter().map(|r| r.0).collect();
        let range_of = |ids: &[u32]| -> (u32, u32) {
            match ids.first() {
                None => (0, 0),
                Some(&lo) => {
                    let hi = *ids.last().unwrap() + 1;
                    debug_assert_eq!(hi - lo, ids.len() as u32, "ids must be contiguous");
                    (lo, hi)
                }
            }
        };
        let node_exec_range: Vec<(u32, u32)> = topo
            .node_execs
            .iter()
            .map(|es| range_of(&es.iter().map(|e| e.0).collect::<Vec<_>>()))
            .collect();
        let rack_node_range: Vec<(u32, u32)> = topo
            .rack_nodes
            .iter()
            .map(|ns| range_of(&ns.iter().map(|n| n.0).collect::<Vec<_>>()))
            .collect();
        let rack_exec_range: Vec<(u32, u32)> = topo
            .rack_nodes
            .iter()
            .map(|ns| {
                if ns.is_empty() {
                    (0, 0)
                } else {
                    let first = node_exec_range[ns.first().unwrap().index()].0;
                    let last = node_exec_range[ns.last().unwrap().index()].1;
                    (first, last)
                }
            })
            .collect();
        // Executor ids are rack-major: walking racks in order walks
        // executors in ascending id order, which the contribution-mask
        // fold in `inv_insert_task` relies on.
        debug_assert_eq!(
            rack_exec_range
                .iter()
                .filter(|&&(a, b)| a < b)
                .try_fold(0, |next, &(a, b)| (a == next).then_some(b)),
            Some(num_execs),
            "executor ids must be rack-major"
        );

        let flat = |rdd_base: &[u32], b: BlockId| rdd_base[b.rdd.index()] + b.partition;
        // Deduplicated in first-occurrence order: a task listing one block
        // twice reads it once (one `readers` entry, one active-reader
        // count, one diff per flip); levels are a max, so unaffected.
        let task_blocks: Vec<Vec<Vec<u32>>> = task_views
            .iter()
            .map(|per_task| {
                per_task
                    .iter()
                    .map(|tv| {
                        let mut v: Vec<u32> = Vec::with_capacity(tv.loc_blocks.len());
                        for &b in &tv.loc_blocks {
                            let bi = flat(&rdd_base, b);
                            if !v.contains(&bi) {
                                v.push(bi);
                            }
                        }
                        v
                    })
                    .collect()
            })
            .collect();
        let mut readers: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_blocks as usize];
        for (s, per_task) in task_blocks.iter().enumerate() {
            for (k, blocks) in per_task.iter().enumerate() {
                for &bi in blocks {
                    readers[bi as usize].push((s as u32, k as u32));
                }
            }
        }

        let n_stages = task_views.len();
        let nr = rack_exec_range.len();
        let ne = num_execs as usize;
        let mut idx = Self {
            rdd_base,
            exec_words,
            node_words,
            cached_bits: vec![0; exec_words * n_blocks as usize],
            disk_bits: vec![0; node_words * n_blocks as usize],
            global_gen: 0,
            num_execs,
            exec_node,
            node_rack,
            node_exec_range,
            rack_node_range,
            rack_exec_range,
            task_blocks,
            contribs: RefCell::new(vec![ContribState::default(); n_stages]),
            scans: vec![StageScan::default(); n_stages],
            queries: Cell::new(0),
            inv_cnt: vec![vec![0; 3 * ne]; n_stages],
            inv_scnt: vec![vec![0; 3 * ne]; n_stages],
            inv_pending: task_views.iter().map(|pt| vec![false; pt.len()]).collect(),
            inv_pending_len: vec![0; n_stages],
            inv_best_any: vec![0; n_stages],
            inv_best: task_views.iter().map(|pt| vec![L_ANY; pt.len()]).collect(),
            inv_rack_best: task_views
                .iter()
                .map(|pt| vec![L_ANY; pt.len() * nr])
                .collect(),
            readers,
            inv_active: vec![false; n_stages],
            inv_active_readers: vec![0; n_blocks as usize],
            inv_hits: Cell::new(0),
            inv_updates: Cell::new(0),
            inv_activations: 0,
            inv_flip_diffs: 0,
            inv_readers_scratch: Vec::new(),
            inv_levels_scratch: Vec::new(),
            inv_news_scratch: Vec::new(),
            inv_tmp_scratch: Vec::new(),
            inv_pairs_scratch: Vec::new(),
            data: DataMap::default(),
        };
        // Ingest the initial placement (no generation bumps needed: no
        // stage is folded in yet).
        for r in dag.rdds() {
            for b in r.blocks() {
                let bi = idx.flat_id(b) as usize;
                for n in data.disk_nodes(b) {
                    set_bit(idx.disk_row_mut(bi), n.0);
                }
                for e in data.cached_execs(b) {
                    set_bit(idx.cached_row_mut(bi), e.0);
                }
            }
        }
        idx.data = data;
        idx
    }

    #[inline]
    fn flat_id(&self, b: BlockId) -> u32 {
        self.rdd_base[b.rdd.index()] + b.partition
    }

    #[inline]
    fn cached_row(&self, bi: usize) -> &[u64] {
        &self.cached_bits[bi * self.exec_words..][..self.exec_words]
    }

    #[inline]
    fn disk_row(&self, bi: usize) -> &[u64] {
        &self.disk_bits[bi * self.node_words..][..self.node_words]
    }

    #[inline]
    fn cached_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.cached_bits[bi * self.exec_words..][..self.exec_words]
    }

    #[inline]
    fn disk_row_mut(&mut self, bi: usize) -> &mut [u64] {
        &mut self.disk_bits[bi * self.node_words..][..self.node_words]
    }

    // ------------------------------------------------------------------
    // Mutations (mirrored into the owned DataMap)
    //
    // Each flips one residency bit and bumps the global generation. The
    // reader diff (`inv_capture`/`inv_commit`) runs only when some active
    // stage reads the block; otherwise no mirrored task can re-level.
    // ------------------------------------------------------------------

    /// Record a block written to a node's disk (task output / spill).
    // lint: allow(panic-surface): node ids come from the topology the rack table was built from
    pub fn add_disk(&mut self, b: BlockId, node: NodeId) {
        let bi = self.flat_id(b) as usize;
        if !get_bit(self.disk_row(bi), node.0) {
            let rack = self.node_rack[node.index()] as usize;
            let diff = self.inv_capture(bi, rack);
            set_bit(self.disk_row_mut(bi), node.0);
            self.global_gen += 1;
            if diff {
                self.inv_commit(bi, rack);
            }
        }
        self.data.add_disk(b, node);
    }

    /// Record a cache insertion.
    // lint: allow(panic-surface): executor ids come from the topology the node/rack tables were built from
    pub fn add_cached(&mut self, b: BlockId, exec: ExecId) {
        let bi = self.flat_id(b) as usize;
        if !get_bit(self.cached_row(bi), exec.0) {
            let rack = self.node_rack[self.exec_node[exec.index()] as usize] as usize;
            let diff = self.inv_capture(bi, rack);
            set_bit(self.cached_row_mut(bi), exec.0);
            self.global_gen += 1;
            if diff {
                self.inv_commit(bi, rack);
            }
        }
        self.data.add_cached(b, exec);
    }

    /// Record a cache eviction.
    // lint: allow(panic-surface): executor ids come from the topology the node/rack tables were built from
    pub fn remove_cached(&mut self, b: BlockId, exec: ExecId) {
        let bi = self.flat_id(b) as usize;
        if get_bit(self.cached_row(bi), exec.0) {
            let rack = self.node_rack[self.exec_node[exec.index()] as usize] as usize;
            let diff = self.inv_capture(bi, rack);
            clear_bit(self.cached_row_mut(bi), exec.0);
            self.global_gen += 1;
            if diff {
                self.inv_commit(bi, rack);
            }
        }
        self.data.remove_cached(b, exec);
    }

    /// Remove a node's disk replica (executor crash losing local output
    /// files). Re-levels the block's active readers exactly like the
    /// other mutations.
    // lint: allow(panic-surface): node ids come from the topology the rack table was built from
    pub fn remove_disk(&mut self, b: BlockId, node: NodeId) {
        let bi = self.flat_id(b) as usize;
        if get_bit(self.disk_row(bi), node.0) {
            let rack = self.node_rack[node.index()] as usize;
            let diff = self.inv_capture(bi, rack);
            clear_bit(self.disk_row_mut(bi), node.0);
            self.global_gen += 1;
            if diff {
                self.inv_commit(bi, rack);
            }
        }
        self.data.remove_disk(b, node);
    }

    // ------------------------------------------------------------------
    // Inverted pending-work index
    // ------------------------------------------------------------------

    /// Does block `bi` have any replica (cached or disk) in rack `r`?
    #[inline]
    fn rack_has_replica(&self, bi: usize, r: usize) -> bool {
        let (ra, rb) = self.rack_exec_range[r];
        let (na, nb) = self.rack_node_range[r];
        range_any(self.cached_row(bi), ra, rb) || range_any(self.disk_row(bi), na, nb)
    }

    /// Task `(s, k)`'s locality level on executor `e`, computed fresh from
    /// the residency bitsets (max over locality blocks; ANY for a task
    /// with no locality blocks). The per-executor twin of the batched
    /// [`Self::task_levels_in_rack`]: it answers ad-hoc queries and is
    /// what the oracle recomputes the folded state from.
    fn task_level_raw(&self, s: usize, k: usize, e: u32) -> u8 {
        let blocks = &self.task_blocks[s][k];
        if blocks.is_empty() {
            return L_ANY;
        }
        let mut worst = L_PROCESS;
        for &bi in blocks {
            worst = worst.max(self.block_level(bi as usize, e));
            if worst == L_ANY {
                break;
            }
        }
        worst
    }

    /// Fill `out` with task `(s, k)`'s levels across rack `rack`'s
    /// executors (one entry per executor in the rack's contiguous id
    /// range). Equivalent to [`Self::task_level_raw`] per executor, but
    /// each block is resolved once per *node* (disk bit + node cache
    /// range) instead of once per executor — the incremental-maintenance
    /// hot loop at large rack widths.
    fn task_levels_in_rack(&self, s: usize, k: usize, rack: usize, out: &mut Vec<u8>) {
        out.clear();
        let (ra, rb) = self.rack_exec_range[rack];
        let blocks = &self.task_blocks[s][k];
        if blocks.is_empty() {
            out.resize((rb - ra) as usize, L_ANY);
            return;
        }
        out.resize((rb - ra) as usize, L_PROCESS);
        let (na, nb) = self.rack_node_range[rack];
        for &bi in blocks {
            let bi = bi as usize;
            let cw = self.cached_row(bi);
            let dw = self.disk_row(bi);
            if !(range_any(dw, na, nb) || range_any(cw, ra, rb)) {
                // No replica in this rack: ANY for every executor, and the
                // max over blocks is saturated.
                for v in out.iter_mut() {
                    *v = L_ANY;
                }
                return;
            }
            let rack_floor = Locality::Rack.index() as u8;
            for n in na..nb {
                let (ea, eb) = self.node_exec_range[n as usize];
                let node_floor = if get_bit(dw, n) || range_any(cw, ea, eb) {
                    Locality::Node.index() as u8
                } else {
                    rack_floor
                };
                for e in ea..eb {
                    let l = if get_bit(cw, e) {
                        L_PROCESS
                    } else {
                        node_floor
                    };
                    let v = &mut out[(e - ra) as usize];
                    *v = (*v).max(l);
                }
            }
        }
    }

    /// Fold task `(s, k)` into the inverted index as pending — the one
    /// place a task's levels are computed. One pass over the candidate
    /// racks (racks holding a replica of its first block — a superset of
    /// every rack where its level is below ANY, since a sub-ANY level
    /// needs *all* blocks rack-resident) fills `cnt`/`scnt`/`best`/
    /// `rack_best` and sets the task's bits in the stage's scan rows; then
    /// the task's valid-level contribution mask ([`Self::contrib_mask`])
    /// is folded into the stage's counts.
    // lint: allow(panic-surface): (s, k) is a live (stage, task) pair; every inv_* row is sized to the task universe
    fn inv_insert_task(&mut self, s: usize, k: usize) {
        debug_assert!(!self.inv_pending[s][k]);
        let nr = self.rack_exec_range.len();
        let ne = self.num_execs as usize;
        let empty = self.task_blocks[s][k].is_empty();
        let fb = self.task_blocks[s][k].first().copied().unwrap_or(0) as usize;
        let mut news = std::mem::take(&mut self.inv_news_scratch);
        let mut pairs = std::mem::take(&mut self.inv_pairs_scratch);
        pairs.clear();
        let mut best = L_ANY;
        for r in 0..nr {
            let mut rmin = L_ANY;
            if !empty && self.rack_has_replica(fb, r) {
                self.task_levels_in_rack(s, k, r, &mut news);
                let (ra, _) = self.rack_exec_range[r];
                for (j, &l) in news.iter().enumerate() {
                    if l < L_ANY {
                        pairs.push((ra + j as u32, l));
                        rmin = rmin.min(l);
                    }
                }
            }
            self.inv_rack_best[s][k * nr + r] = rmin;
            best = best.min(rmin);
        }
        self.inv_pending[s][k] = true;
        self.inv_pending_len[s] += 1;
        self.inv_best[s][k] = best;
        if best == L_ANY {
            self.inv_best_any[s] += 1;
        }
        let sm = &mut self.scans[s];
        for &(e, l) in &pairs {
            self.inv_cnt[s][l as usize * ne + e as usize] += 1;
            if l == best {
                self.inv_scnt[s][l as usize * ne + e as usize] += 1;
            }
            set_bit(sm.row_mut(e as usize, l), k as u32);
        }
        let contrib = self.contrib_mask(s, k, &mut news);
        let cm = &mut self.contribs.get_mut()[s];
        cm.applied[k] = contrib;
        contrib_add(&mut cm.cnt, contrib);
        self.inv_news_scratch = news;
        self.inv_pairs_scratch = pairs;
    }

    /// Fold task `(s, k)` out (it left the pending set): retract exactly
    /// what [`Self::inv_insert_task`] and later diffs put in — its counts,
    /// its scan-row bits and its folded contribution mask. `rack_best`
    /// bounds the walk to racks where the task sits below ANY.
    // lint: allow(panic-surface): (s, k) is a live (stage, task) pair; every inv_* row is sized to the task universe
    fn inv_remove_task(&mut self, s: usize, k: usize) {
        debug_assert!(self.inv_pending[s][k]);
        self.inv_pending[s][k] = false;
        self.inv_pending_len[s] -= 1;
        {
            let cm = &mut self.contribs.get_mut()[s];
            contrib_sub(&mut cm.cnt, cm.applied[k]);
        }
        let best = self.inv_best[s][k];
        if best == L_ANY {
            // Best ANY ⟹ ANY everywhere ⟹ no per-executor contributions.
            self.inv_best_any[s] -= 1;
            return;
        }
        let nr = self.rack_exec_range.len();
        let ne = self.num_execs as usize;
        let mut news = std::mem::take(&mut self.inv_news_scratch);
        for r in 0..nr {
            if self.inv_rack_best[s][k * nr + r] == L_ANY {
                continue;
            }
            self.task_levels_in_rack(s, k, r, &mut news);
            let (ra, _) = self.rack_exec_range[r];
            for (j, &l) in news.iter().enumerate() {
                if l < L_ANY {
                    let e = ra as usize + j;
                    self.inv_cnt[s][l as usize * ne + e] -= 1;
                    if l == best {
                        self.inv_scnt[s][l as usize * ne + e] -= 1;
                    }
                    clear_bit(self.scans[s].row_mut(e, l), k as u32);
                }
            }
        }
        self.inv_news_scratch = news;
    }

    /// Pre-flip snapshot for the residency diff: block `bi`'s *pending*
    /// readers and their current levels across rack `rack`'s executors —
    /// the only executors a single-block, single-rack residency flip can
    /// re-level (every level test in `block_level` resolves within the
    /// executor's own rack). Returns `false`, capturing nothing, when no
    /// active stage reads the block: no mirrored task can re-level, so
    /// the caller skips [`Self::inv_commit`].
    // lint: allow(panic-surface): reader (stage, task) pairs were minted from task_blocks; all rows sized at build
    fn inv_capture(&mut self, bi: usize, rack: usize) -> bool {
        if self.inv_active_readers[bi] == 0 {
            return false;
        }
        self.inv_flip_diffs += 1;
        let mut readers = std::mem::take(&mut self.inv_readers_scratch);
        let mut olds = std::mem::take(&mut self.inv_levels_scratch);
        let mut news = std::mem::take(&mut self.inv_news_scratch);
        readers.clear();
        olds.clear();
        for i in 0..self.readers[bi].len() {
            let (s, k) = self.readers[bi][i];
            if !self.inv_pending[s as usize][k as usize] {
                continue;
            }
            readers.push((s, k));
            self.task_levels_in_rack(s as usize, k as usize, rack, &mut news);
            olds.extend_from_slice(&news);
        }
        self.inv_readers_scratch = readers;
        self.inv_levels_scratch = olds;
        self.inv_news_scratch = news;
        true
    }

    /// Post-flip diff: recompute each captured reader's levels across the
    /// flipped rack, adjust `cnt` where levels moved, then repair
    /// `rack_best`/`best` and the strict counts. When a reader's best
    /// level changes, its whole strict contribution set moves from the old
    /// best to the new one — racks outside the flipped one kept their
    /// levels, so their entries are recomputed on the spot.
    // lint: allow(panic-surface): captured readers index rows sized at build; rack ranges come from the topology
    fn inv_commit(&mut self, _bi: usize, rack: usize) {
        let readers = std::mem::take(&mut self.inv_readers_scratch);
        let olds = std::mem::take(&mut self.inv_levels_scratch);
        let mut news = std::mem::take(&mut self.inv_news_scratch);
        let mut tmp = std::mem::take(&mut self.inv_tmp_scratch);
        let (ra, rb) = self.rack_exec_range[rack];
        let w = (rb - ra) as usize;
        let ne = self.num_execs as usize;
        let nr = self.rack_exec_range.len();
        for (ri, &(s32, k32)) in readers.iter().enumerate() {
            let (s, k) = (s32 as usize, k32 as usize);
            let old = &olds[ri * w..][..w];
            self.task_levels_in_rack(s, k, rack, &mut news);
            let mut rmin = L_ANY;
            let mut changed = false;
            for j in 0..w {
                let (o, n) = (old[j], news[j]);
                rmin = rmin.min(n);
                if o != n {
                    changed = true;
                    let e = ra as usize + j;
                    // Move the reader between level rows: its count and its
                    // scan-row bit follow it.
                    if o < L_ANY {
                        self.inv_cnt[s][o as usize * ne + e] -= 1;
                        clear_bit(self.scans[s].row_mut(e, o), k32);
                    }
                    if n < L_ANY {
                        self.inv_cnt[s][n as usize * ne + e] += 1;
                        set_bit(self.scans[s].row_mut(e, n), k32);
                    }
                }
            }
            if !changed {
                // Levels identical ⟹ rack_best/best/scnt all unchanged.
                continue;
            }
            self.inv_updates.set(self.inv_updates.get() + 1);
            // The reader's valid-level contribution mask may have moved
            // with its levels: queue it for the next query (dedup'd).
            {
                let cm = &mut self.contribs.get_mut()[s];
                if !cm.dirty_bit[k] {
                    cm.dirty_bit[k] = true;
                    cm.dirty.push(k32);
                }
            }
            let old_best = self.inv_best[s][k];
            let old_rack_best = self.inv_rack_best[s][k * nr + rack];
            self.inv_rack_best[s][k * nr + rack] = rmin;
            let mut new_best = L_ANY;
            for r in 0..nr {
                new_best = new_best.min(self.inv_rack_best[s][k * nr + r]);
            }
            if new_best == old_best {
                // Strict membership can only have moved inside this rack.
                if old_best < L_ANY {
                    let bl = old_best;
                    for j in 0..w {
                        let (o, n) = (old[j], news[j]);
                        if (o == bl) == (n == bl) {
                            continue;
                        }
                        let slot = bl as usize * ne + ra as usize + j;
                        if o == bl {
                            self.inv_scnt[s][slot] -= 1;
                        } else {
                            self.inv_scnt[s][slot] += 1;
                        }
                    }
                }
                continue;
            }
            self.inv_best[s][k] = new_best;
            if old_best == L_ANY {
                self.inv_best_any[s] -= 1;
            }
            if new_best == L_ANY {
                self.inv_best_any[s] += 1;
            }
            // Retract the old strict contribution set (executors whose
            // pre-flip level was the old best)…
            if old_best < L_ANY {
                for r in 0..nr {
                    let prev = if r == rack {
                        old_rack_best
                    } else {
                        self.inv_rack_best[s][k * nr + r]
                    };
                    if prev > old_best {
                        continue;
                    }
                    let (qa, _) = self.rack_exec_range[r];
                    let lv: &[u8] = if r == rack {
                        old
                    } else {
                        self.task_levels_in_rack(s, k, r, &mut tmp);
                        &tmp
                    };
                    for (j, &l) in lv.iter().enumerate() {
                        if l == old_best {
                            self.inv_scnt[s][old_best as usize * ne + qa as usize + j] -= 1;
                        }
                    }
                }
            }
            // …and install the new one (post-flip level == new best).
            if new_best < L_ANY {
                for r in 0..nr {
                    if self.inv_rack_best[s][k * nr + r] > new_best {
                        continue;
                    }
                    let (qa, _) = self.rack_exec_range[r];
                    let lv: &[u8] = if r == rack {
                        &news
                    } else {
                        self.task_levels_in_rack(s, k, r, &mut tmp);
                        &tmp
                    };
                    for (j, &l) in lv.iter().enumerate() {
                        if l == new_best {
                            self.inv_scnt[s][new_best as usize * ne + qa as usize + j] += 1;
                        }
                    }
                }
            }
        }
        self.inv_readers_scratch = readers;
        self.inv_levels_scratch = olds;
        self.inv_news_scratch = news;
        self.inv_tmp_scratch = tmp;
    }

    /// Is stage `s` folded into the inverted index?
    pub fn is_stage_active(&self, s: usize) -> bool {
        self.inv_active[s]
    }

    /// Fold stage `s` into the inverted index: mark it active, count its
    /// tasks as active readers of their blocks, allocate its scan rows and
    /// contribution counts, and fold in every task in the authoritative
    /// `pending` set. The simulator calls this when the stage first
    /// becomes schedulable (and again after a lineage resubmission
    /// re-opens a released stage); placement only probes schedulable
    /// stages, so every probed stage is active.
    pub fn activate_stage(&mut self, s: usize, pending: &PendingSet) {
        debug_assert!(!self.inv_active[s], "stage {s} activated twice");
        debug_assert_eq!(
            self.inv_pending_len[s], 0,
            "inactive stage {s} holds a mirror"
        );
        self.inv_active[s] = true;
        self.inv_activations += 1;
        for blocks in &self.task_blocks[s] {
            for &bi in blocks {
                self.inv_active_readers[bi as usize] += 1;
            }
        }
        let tasks = self.task_blocks[s].len();
        self.scans[s] = StageScan::new(self.num_execs as usize, tasks);
        self.contribs.get_mut()[s] = ContribState::new(tasks);
        for k in pending.iter() {
            self.inv_insert_task(s, k as usize);
        }
    }

    /// The simulator popped task `k` of stage `s` from its pending set
    /// (non-speculative launch): fold it out. A no-op on an inactive
    /// stage: [`Self::activate_stage`] folds in whatever is pending when
    /// it runs.
    pub fn on_pending_removed(&mut self, s: usize, k: u32) {
        if !self.inv_active[s] {
            return;
        }
        self.inv_updates.set(self.inv_updates.get() + 1);
        self.inv_remove_task(s, k as usize);
    }

    /// The simulator re-inserted task `k` of stage `s` into its pending
    /// set (failure recovery / stage resubmission): fold it back in. A
    /// no-op on an inactive stage, like [`Self::on_pending_removed`].
    pub fn on_pending_inserted(&mut self, s: usize, k: u32) {
        if !self.inv_active[s] {
            return;
        }
        self.inv_updates.set(self.inv_updates.get() + 1);
        self.inv_insert_task(s, k as usize);
    }

    /// Fold stage `s` out of the inverted index. Called by the simulator
    /// when the stage completes or its job is rejected. Any task still
    /// pending is folded out, so a stage released with a non-empty pending
    /// set leaves no counts behind; then the scan rows and contribution
    /// vectors are freed — the rows alone hold `executors × 3 levels ×
    /// tasks` bits, which at 2000 executors × 16k tasks is real memory. A
    /// later lineage resubmission re-activates the stage and re-folds
    /// everything from scratch.
    pub fn release_stage(&mut self, s: usize) {
        if !self.inv_active[s] {
            return;
        }
        self.inv_active[s] = false;
        for k in 0..self.task_blocks[s].len() {
            if self.inv_pending[s][k] {
                self.inv_remove_task(s, k);
            }
        }
        self.scans[s] = StageScan::default();
        self.contribs.get_mut()[s] = ContribState::default();
        for blocks in &self.task_blocks[s] {
            for &bi in blocks {
                self.inv_active_readers[bi as usize] -= 1;
            }
        }
    }

    /// Pending tasks of stage `s` at exactly `level` on executor `e`.
    ///
    /// A zero here proves [`scan_first`](Self::scan_first) would return
    /// `None` — and a non-zero takes the real probe, identical to the
    /// ungated walk. First-match order is therefore preserved bit-for-bit.
    // lint: allow(panic-surface): stage/executor ids are dense and bound the per-stage count rows by construction
    pub fn pending_level_count(&self, s: usize, e: ExecId, level: Locality) -> u32 {
        debug_assert!(self.inv_active[s], "gate on inactive stage {s}");
        let ne = self.num_execs as usize;
        let li = level.index();
        let c = if li < L_ANY as usize {
            self.inv_cnt[s][li * ne + e.index()]
        } else {
            let ei = e.index();
            self.inv_pending_len[s]
                - self.inv_cnt[s][ei]
                - self.inv_cnt[s][ne + ei]
                - self.inv_cnt[s][2 * ne + ei]
        };
        if c == 0 {
            self.inv_hits.set(self.inv_hits.get() + 1);
        }
        c
    }

    /// Pending tasks of stage `s` at exactly `level` on executor `e`
    /// whose best level anywhere is also `level` — the strict probe's
    /// candidate count (`best ≥ level` with `level(e) = level` collapses
    /// to `best = level`, since `best ≤ level(e)` always). Gates the
    /// strict probe like [`pending_level_count`](Self::pending_level_count)
    /// gates the plain one.
    // lint: allow(panic-surface): stage/executor ids are dense and bound the per-stage count rows by construction
    pub fn pending_strict_count(&self, s: usize, e: ExecId, level: Locality) -> u32 {
        debug_assert!(self.inv_active[s], "gate on inactive stage {s}");
        let li = level.index();
        let c = if li < L_ANY as usize {
            self.inv_scnt[s][li * self.num_execs as usize + e.index()]
        } else {
            // Best-ANY tasks sit at ANY on every executor.
            self.inv_best_any[s]
        };
        if c == 0 {
            self.inv_hits.set(self.inv_hits.get() + 1);
        }
        c
    }

    /// From-scratch oracle for the inverted index on stage `s`: rebuild
    /// every count from the raw residency bitsets and the authoritative
    /// `pending` set, and compare against the incrementally maintained
    /// state (including the mirror itself). The scan rows are proven exact
    /// without a per-row walk: every pending task's bit must sit in the row
    /// of its recomputed level on every executor, and every row's popcount
    /// must equal the recomputed count, which leaves no room for a stray
    /// bit. An inactive stage must hold an all-zero mirror, zero counts and
    /// empty scan rows and contribution vectors, whatever `pending` says.
    /// Either way the active-reader counts of the blocks the stage reads
    /// must equal a recount from `task_blocks`. Debug-assert fodder for the
    /// simulator's scheduling loop and the differential proptests.
    pub fn check_inv_consistency(&self, s: usize, pending: &PendingSet) -> bool {
        if !self.active_readers_consistent(s) {
            return false;
        }
        let cms = self.contribs.borrow();
        let cm = &cms[s];
        let sm = &self.scans[s];
        if !self.inv_active[s] {
            return self.inv_pending_len[s] == 0
                && self.inv_best_any[s] == 0
                && self.inv_pending[s].iter().all(|&p| !p)
                && self.inv_cnt[s].iter().all(|&c| c == 0)
                && self.inv_scnt[s].iter().all(|&c| c == 0)
                && sm.bits.is_empty()
                && cm.cnt == [0; 4]
                && cm.applied.is_empty()
                && cm.dirty.is_empty();
        }
        let ne = self.num_execs as usize;
        let nr = self.rack_exec_range.len();
        if pending.len() as u32 != self.inv_pending_len[s] {
            return false;
        }
        for (k, &p) in self.inv_pending[s].iter().enumerate() {
            if p != pending.contains(k as u32) {
                return false;
            }
        }
        let mut applied_sum = [0u32; 4];
        let mut cnt = vec![0u32; 3 * ne];
        let mut scnt = vec![0u32; 3 * ne];
        let mut best_any = 0u32;
        let mut levels = vec![0u8; ne];
        for k in pending.iter() {
            let ku = k as usize;
            let mut best = L_ANY;
            for e in 0..self.num_execs {
                let l = self.task_level_raw(s, ku, e);
                levels[e as usize] = l;
                best = best.min(l);
            }
            if best != self.inv_best[s][ku] {
                return false;
            }
            // The folded counts must equal Σ applied over pending (pops
            // subtract exactly what was applied), and any task not queued
            // dirty must have a *current* mask applied.
            contrib_add(&mut applied_sum, cm.applied[ku]);
            if !cm.dirty_bit[ku] {
                let mut c = 0u8;
                contrib_fold(&mut c, &levels);
                if cm.applied[ku] != c {
                    return false;
                }
            }
            if best == L_ANY {
                best_any += 1;
            }
            for (e, &l) in levels.iter().enumerate() {
                if l < L_ANY {
                    cnt[l as usize * ne + e] += 1;
                    if l == best {
                        scnt[l as usize * ne + e] += 1;
                    }
                    if !get_bit(sm.row(e, l), k) {
                        return false;
                    }
                }
            }
            for r in 0..nr {
                let (ra, rb) = self.rack_exec_range[r];
                let mut rmin = L_ANY;
                for e in ra..rb {
                    rmin = rmin.min(levels[e as usize]);
                }
                if rmin != self.inv_rack_best[s][ku * nr + r] {
                    return false;
                }
            }
        }
        if cm.cnt != applied_sum {
            return false;
        }
        for l in 0..L_ANY {
            for e in 0..ne {
                let ones: u32 = sm.row(e, l).iter().map(|w| w.count_ones()).sum();
                if ones != cnt[l as usize * ne + e] {
                    return false;
                }
            }
        }
        cnt == self.inv_cnt[s] && scnt == self.inv_scnt[s] && best_any == self.inv_best_any[s]
    }

    /// Recount the active readers of every block stage `s` reads, from
    /// `task_blocks`: the block's `readers` must list task `(s, k)` and
    /// only tasks whose `task_blocks` name the block, and the entries of
    /// active stages must number exactly the maintained count. Checking
    /// every active stage covers every block a flip must diff.
    fn active_readers_consistent(&self, s: usize) -> bool {
        self.task_blocks[s].iter().enumerate().all(|(k, blocks)| {
            blocks.iter().all(|&bi| {
                let rs = &self.readers[bi as usize];
                rs.contains(&(s as u32, k as u32))
                    && rs
                        .iter()
                        .all(|&(s2, k2)| self.task_blocks[s2 as usize][k2 as usize].contains(&bi))
                    && rs
                        .iter()
                        .filter(|&&(s2, _)| self.inv_active[s2 as usize])
                        .count()
                        == self.inv_active_readers[bi as usize] as usize
            })
        })
    }

    /// Does any disk replica of the block exist?
    pub fn on_disk_anywhere(&self, b: BlockId) -> bool {
        self.disk_row(self.flat_id(b) as usize)
            .iter()
            .any(|w| *w != 0)
    }

    // ------------------------------------------------------------------
    // Residency queries
    // ------------------------------------------------------------------

    /// Global residency generation: changes iff any derived locality state
    /// may have changed. Every residency flip bumps it, including flips
    /// that skip the reader diff. The simulator snapshots it before
    /// applying a `schedule` result of several assignments (only
    /// `GreedyFifo` returns those; the ordered schedulers return at most
    /// one) and discards the rest once a launch moved it.
    pub fn generation(&self) -> u64 {
        self.global_gen
    }

    /// The authoritative location registry (reads that need replica lists
    /// rather than membership tests).
    pub fn data(&self) -> &DataMap {
        &self.data
    }

    pub fn is_cached_in(&self, b: BlockId, exec: ExecId) -> bool {
        get_bit(self.cached_row(self.flat_id(b) as usize), exec.0)
    }

    pub fn is_cached_anywhere(&self, b: BlockId) -> bool {
        self.cached_row(self.flat_id(b) as usize)
            .iter()
            .any(|w| *w != 0)
    }

    /// Physical read tier for one block from one executor.
    pub fn read_tier(&self, b: BlockId, exec: ExecId) -> ReadTier {
        self.queries.set(self.queries.get() + 1);
        let bi = self.flat_id(b) as usize;
        let cw = self.cached_row(bi);
        if get_bit(cw, exec.0) {
            return ReadTier::ProcessCache;
        }
        let node = self.exec_node[exec.index()];
        let (ea, eb) = self.node_exec_range[node as usize];
        if range_any(cw, ea, eb) {
            return ReadTier::NodeCache;
        }
        let dw = self.disk_row(bi);
        if get_bit(dw, node) {
            return ReadTier::NodeDisk;
        }
        let rack = self.node_rack[node as usize] as usize;
        let (na, nb) = self.rack_node_range[rack];
        let (ra, rb) = self.rack_exec_range[rack];
        if range_any(dw, na, nb) || range_any(cw, ra, rb) {
            ReadTier::RackRemote
        } else {
            debug_assert!(
                dw.iter().any(|w| *w != 0) || cw.iter().any(|w| *w != 0),
                "reading unmaterialized block {b}"
            );
            ReadTier::CrossRack
        }
    }

    /// Locality level of one block from one executor (the tier collapsed
    /// onto the Spark locality ladder).
    #[inline]
    fn block_level(&self, bi: usize, e: u32) -> u8 {
        let cw = self.cached_row(bi);
        if get_bit(cw, e) {
            return Locality::Process.index() as u8;
        }
        let node = self.exec_node[e as usize];
        let dw = self.disk_row(bi);
        let (ea, eb) = self.node_exec_range[node as usize];
        if get_bit(dw, node) || range_any(cw, ea, eb) {
            return Locality::Node.index() as u8;
        }
        let rack = self.node_rack[node as usize] as usize;
        let (na, nb) = self.rack_node_range[rack];
        let (ra, rb) = self.rack_exec_range[rack];
        if range_any(dw, na, nb) || range_any(cw, ra, rb) {
            return Locality::Rack.index() as u8;
        }
        Locality::Any.index() as u8
    }

    /// The locality level task `(s, k)` would run at on executor `e`.
    pub fn task_locality(&self, s: usize, k: u32, e: ExecId) -> Locality {
        self.queries.set(self.queries.get() + 1);
        Locality::from_index(self.task_level_raw(s, k as usize, e.0) as usize)
    }

    /// The best locality task `(s, k)` can achieve on any executor.
    pub fn task_best_level(&self, s: usize, k: u32) -> Locality {
        self.queries.set(self.queries.get() + 1);
        let mut best = L_ANY;
        for e in 0..self.num_execs {
            best = best.min(self.task_level_raw(s, k as usize, e));
            if best == L_PROCESS {
                break;
            }
        }
        Locality::from_index(best as usize)
    }

    /// Valid locality levels of stage `s` (Spark's
    /// `computeValidLocalityLevels`), over its pending tasks.
    ///
    /// Equivalent to the sequential scan (pending tasks in ascending
    /// order, executors in id order per task, inner break on PROCESS):
    /// the result is `{l ∈ {P,N,R} : some pending task contributes l} ∪
    /// {ANY if any task is pending}` — the scan's early exits never
    /// change that set, only how fast it is found. The per-stage
    /// contribution counts are folded at activation and maintained
    /// incrementally (see `ContribState`); a query first re-diffs the
    /// readers residency flips queued since the last one.
    pub fn valid_levels(&self, s: usize, pending: &PendingSet) -> ([Locality; 4], usize) {
        // The dirty feed comes from `inv_commit`, which sees mirrored
        // (active) readers only.
        debug_assert!(self.inv_active[s], "valid levels of inactive stage {s}");
        let mut cms = self.contribs.borrow_mut();
        let cm = &mut cms[s];
        if !cm.dirty.is_empty() {
            // Popped dirty tasks were already subtracted at pop time; skip
            // them.
            let mut dirty = std::mem::take(&mut cm.dirty);
            let mut levels = Vec::new();
            for &k in &dirty {
                let ku = k as usize;
                cm.dirty_bit[ku] = false;
                if !self.inv_pending[s][ku] {
                    continue;
                }
                let new = self.contrib_mask(s, ku, &mut levels);
                let old = cm.applied[ku];
                if old != new {
                    contrib_sub(&mut cm.cnt, old);
                    contrib_add(&mut cm.cnt, new);
                    cm.applied[ku] = new;
                }
            }
            dirty.clear();
            cm.dirty = dirty;
        }
        let mut levels = [Locality::Any; 4];
        let mut len = 0;
        if !pending.is_empty() {
            for l in [Locality::Process, Locality::Node, Locality::Rack] {
                if cm.cnt[l.index()] > 0 {
                    levels[len] = l;
                    len += 1;
                }
            }
            levels[len] = Locality::Any;
            len += 1;
        }
        (levels, len)
    }

    /// Pending task `(s, k)`'s current valid-level contribution mask. It
    /// walks racks in order, which is ascending executor-id order (ids are
    /// rack-major, asserted in [`Self::new`]): a rack whose best level is
    /// ANY sits at ANY throughout and contributes ANY, and the others fold
    /// their levels up to the first PROCESS-local executor. Reads
    /// `inv_rack_best`, so the task's entries must be current.
    fn contrib_mask(&self, s: usize, k: usize, levels: &mut Vec<u8>) -> u8 {
        let nr = self.rack_exec_range.len();
        let mut mask = 0u8;
        for r in 0..nr {
            let (ra, rb) = self.rack_exec_range[r];
            if self.inv_rack_best[s][k * nr + r] == L_ANY {
                if ra < rb {
                    mask |= 1 << L_ANY;
                }
                continue;
            }
            self.task_levels_in_rack(s, k, r, levels);
            if contrib_fold(&mut mask, levels) {
                break;
            }
        }
        mask
    }

    /// First pending task of stage `s` whose locality on `e` is
    /// exactly `level` — the placement probe behind
    /// `pending_with_locality`. With `strict`, additionally require the
    /// task's best achievable level anywhere to be no better than `level`.
    ///
    /// One word scan of one row of the stage's `StageScan`: the sub-ANY
    /// rows hold exactly the pending tasks at that level, and the ANY
    /// candidates are the pending tasks in none of the three. The first
    /// set bit is the task the sequential first-match walk over the
    /// pending set would return.
    // lint: allow(panic-surface): row words and the pending bitmap are both sized to the stage's task universe
    pub fn scan_first(
        &self,
        s: usize,
        e: ExecId,
        level: Locality,
        strict: bool,
        pending: &PendingSet,
    ) -> Option<u32> {
        debug_assert!(self.inv_active[s], "probe of inactive stage {s}");
        self.queries.set(self.queries.get() + 1);
        let sm = &self.scans[s];
        let lu = level.index() as u8;
        let ei = e.index();
        let pw = pending.word_bits();
        debug_assert_eq!(pw.len(), sm.words, "pending universe vs scan rows");
        for (w, &pend) in pw.iter().enumerate() {
            let mut cand = if lu < L_ANY {
                sm.row(ei, lu)[w]
            } else {
                pend & !(sm.row(ei, 0)[w] | sm.row(ei, 1)[w] | sm.row(ei, 2)[w])
            };
            while cand != 0 {
                let k = (w * 64) as u32 + cand.trailing_zeros();
                cand &= cand - 1;
                if strict && self.inv_best[s][k as usize] < lu {
                    continue;
                }
                debug_assert!(
                    pending.contains(k),
                    "scan row holds popped task {k} (stage {s})"
                );
                debug_assert_eq!(
                    self.task_level_raw(s, k as usize, e.0),
                    lu,
                    "scan bit drifted from live level (stage {s} task {k})"
                );
                return Some(k);
            }
        }
        None
    }

    /// Counter snapshot for [`crate::metrics::SchedulerStats`].
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            locality_queries: self.queries.get(),
            invalidations: self.global_gen,
            // The activation fold is the one valid-level fold.
            valid_level_rebuilds: self.inv_activations,
            inv_index_hits: self.inv_hits.get(),
            inv_index_updates: self.inv_updates.get(),
            // `new` is the one from-scratch build: the index starts empty
            // and `activate_stage` folds stages in incrementally.
            inv_index_rebuilds: 1,
            inv_stage_activations: self.inv_activations,
            inv_flip_diffs: self.inv_flip_diffs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagon_dag::{DagBuilder, RddId};

    fn build() -> (dagon_dag::JobDag, Topology, LocalityIndex) {
        let mut b = DagBuilder::new("t");
        let src = b.hdfs_rdd("in", 6, 64.0);
        let _ = b
            .stage("s")
            .tasks(6)
            .demand_cpus(1)
            .cpu_ms(100)
            .reads_narrow(src)
            .build();
        let dag = b.build().unwrap();
        let topo = Topology::build(&[2, 2], 2);
        let data = DataMap::place_sources(&dag, &topo, 1, 7);
        let tv: Vec<Vec<TaskView>> = vec![(0..6)
            .map(|k| TaskView {
                loc_blocks: vec![BlockId::new(RddId(0), k)],
            })
            .collect()];
        let idx = LocalityIndex::new(&dag, &topo, data, &tv);
        (dag, topo, idx)
    }

    /// Brute-force locality from the raw DataMap (the pre-index scan).
    fn brute_locality(data: &DataMap, topo: &Topology, b: BlockId, e: ExecId) -> Locality {
        if data.is_cached_in(b, e) {
            return Locality::Process;
        }
        let node = topo.node_of_exec(e);
        if data.disk_nodes(b).contains(&node)
            || data
                .cached_execs(b)
                .iter()
                .any(|x| topo.node_of_exec(*x) == node)
        {
            return Locality::Node;
        }
        let rack = topo.rack_of_node(node);
        if data
            .disk_nodes(b)
            .iter()
            .any(|n| topo.rack_of_node(*n) == rack)
            || data
                .cached_execs(b)
                .iter()
                .any(|x| topo.rack_of_exec(*x) == rack)
        {
            return Locality::Rack;
        }
        Locality::Any
    }

    #[test]
    fn matches_brute_force_after_mutations() {
        let (_dag, topo, mut idx) = build();
        let b0 = BlockId::new(RddId(0), 0);
        let b3 = BlockId::new(RddId(0), 3);
        // Interleave queries with mutations.
        for e in 0..8u32 {
            let _ = idx.task_locality(0, 0, ExecId(e));
        }
        idx.add_cached(b0, ExecId(5));
        idx.add_cached(b3, ExecId(0));
        idx.add_disk(b3, NodeId(3));
        idx.remove_cached(b0, ExecId(5));
        for k in 0..6u32 {
            let b = BlockId::new(RddId(0), k);
            for e in 0..8u32 {
                assert_eq!(
                    idx.task_locality(0, k, ExecId(e)),
                    brute_locality(idx.data(), &topo, b, ExecId(e)),
                    "block {k} exec {e}"
                );
            }
        }
    }

    #[test]
    fn generation_bumps_only_on_actual_change() {
        let (_dag, _topo, mut idx) = build();
        let b = BlockId::new(RddId(0), 1);
        let g0 = idx.generation();
        idx.add_cached(b, ExecId(2));
        let g1 = idx.generation();
        assert!(g1 > g0);
        idx.add_cached(b, ExecId(2)); // idempotent: no invalidation
        assert_eq!(idx.generation(), g1);
        idx.remove_cached(b, ExecId(2));
        assert!(idx.generation() > g1);
        idx.remove_cached(b, ExecId(2));
        let g3 = idx.generation();
        idx.remove_cached(b, ExecId(2)); // absent: no invalidation
        assert_eq!(idx.generation(), g3);
    }

    #[test]
    fn remove_disk_invalidates_and_matches_brute_force() {
        let (_dag, topo, mut idx) = build();
        let b2 = BlockId::new(RddId(0), 2);
        let g0 = idx.generation();
        let node = *idx.data().disk_nodes(b2).first().unwrap();
        idx.remove_disk(b2, node);
        assert!(idx.generation() > g0);
        assert!(!idx.on_disk_anywhere(b2));
        for e in 0..8u32 {
            assert_eq!(
                idx.task_locality(0, 2, ExecId(e)),
                brute_locality(idx.data(), &topo, b2, ExecId(e)),
                "exec {e}"
            );
        }
        let g1 = idx.generation();
        idx.remove_disk(b2, node); // absent: no invalidation
        assert_eq!(idx.generation(), g1);
    }

    #[test]
    fn valid_levels_track_pending_without_refolds() {
        let (_dag, _topo, mut idx) = build();
        let mut pending = PendingSet::full(6);
        idx.activate_stage(0, &pending);
        // The activation is the stage's one valid-level fold.
        assert_eq!(idx.stats().valid_level_rebuilds, 1);
        let (lv, n) = idx.valid_levels(0, &pending);
        assert!(n >= 2);
        assert_eq!(lv[n - 1], Locality::Any);
        // A pending pop (mirrored per the maintenance contract) and a
        // residency flip adjust the folded counts in place.
        pending.remove(0);
        idx.on_pending_removed(0, 0);
        idx.add_cached(BlockId::new(RddId(0), 3), ExecId(5));
        let (lv, n) = idx.valid_levels(0, &pending);
        assert_eq!(lv[0], Locality::Process);
        assert_eq!(lv[n - 1], Locality::Any);
        assert_eq!(idx.stats().valid_level_rebuilds, 1);
        assert!(idx.check_inv_consistency(0, &pending));
    }

    #[test]
    fn scan_first_matches_sequential_scan() {
        let (_dag, _topo, mut idx) = build();
        idx.add_cached(BlockId::new(RddId(0), 2), ExecId(3));
        let pending = PendingSet::full(6);
        idx.activate_stage(0, &pending);
        // Oracle: sequential first-match over the pending set.
        let seq = |idx: &LocalityIndex, e: ExecId, level: Locality, strict: bool| {
            pending.iter().find(|&k| {
                idx.task_locality(0, k, e) == level
                    && (!strict || idx.task_best_level(0, k) >= level)
            })
        };
        for e in 0..8u32 {
            for level in Locality::ALL {
                for strict in [false, true] {
                    assert_eq!(
                        idx.scan_first(0, ExecId(e), level, strict, &pending),
                        seq(&idx, ExecId(e), level, strict),
                        "exec {e} level {level:?} strict {strict}"
                    );
                }
            }
        }
        // The rows hold exactly the pending tasks at each level: task 2
        // sits in exec 3's PROCESS row until it is popped, and moves to
        // its NODE row when the cached copy goes.
        let mut pending = pending;
        let row = |idx: &LocalityIndex, l: u8| get_bit(idx.scans[0].row(3, l), 2);
        assert!(row(&idx, L_PROCESS));
        idx.remove_cached(BlockId::new(RddId(0), 2), ExecId(3));
        assert!(!row(&idx, L_PROCESS));
        let at_node = idx.task_locality(0, 2, ExecId(3)) == Locality::Node;
        assert_eq!(row(&idx, Locality::Node as u8), at_node);
        assert!(idx.check_inv_consistency(0, &pending));
        pending.remove(2);
        idx.on_pending_removed(0, 2);
        assert!((0..L_ANY).all(|l| !row(&idx, l)));
        assert!(idx.check_inv_consistency(0, &pending));
    }

    /// Brute-force inverted-index gate counts straight from the raw level
    /// recomputation.
    fn brute_counts(
        idx: &LocalityIndex,
        s: usize,
        pending: &PendingSet,
        e: ExecId,
        level: Locality,
    ) -> (u32, u32) {
        let (mut cnt, mut strict) = (0, 0);
        for k in pending.iter() {
            let l = idx.task_level_raw(s, k as usize, e.0);
            if l != level.index() as u8 {
                continue;
            }
            cnt += 1;
            let best = (0..idx.num_execs)
                .map(|x| idx.task_level_raw(s, k as usize, x))
                .min()
                .unwrap_or(L_ANY);
            if best == l {
                strict += 1;
            }
        }
        (cnt, strict)
    }

    #[test]
    fn inv_counts_match_brute_force_through_history() {
        let (_dag, _topo, mut idx) = build();
        let mut pending = PendingSet::full(6);
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
        // Inactive: an empty mirror, whatever the pending set holds.
        assert!(idx.check_inv_consistency(0, &pending));
        idx.activate_stage(0, &pending);
        assert_eq!(idx.stats().inv_stage_activations, 1);
        assert!(idx.check_inv_consistency(0, &pending));

        // Interleave residency flips with pending pops/reinserts,
        // checking the full oracle and the per-gate counts at each step.
        let b0 = BlockId::new(RddId(0), 0);
        let b4 = BlockId::new(RddId(0), 4);
        idx.add_cached(b0, ExecId(1));
        assert!(idx.check_inv_consistency(0, &pending));
        pending.remove(2);
        idx.on_pending_removed(0, 2);
        assert!(idx.check_inv_consistency(0, &pending));
        idx.add_cached(b4, ExecId(6));
        idx.add_disk(b4, NodeId(0));
        assert!(idx.check_inv_consistency(0, &pending));
        pending.remove(0);
        idx.on_pending_removed(0, 0);
        idx.remove_cached(b0, ExecId(1));
        assert!(idx.check_inv_consistency(0, &pending));
        assert!(pending.insert(2));
        idx.on_pending_inserted(0, 2);
        assert!(idx.check_inv_consistency(0, &pending));
        // Crash-style loss: drop every replica of block 4.
        idx.remove_cached(b4, ExecId(6));
        idx.remove_disk(b4, NodeId(0));
        for n in 0..4u32 {
            idx.remove_disk(b4, NodeId(n));
        }
        assert!(idx.check_inv_consistency(0, &pending));

        for e in 0..8u32 {
            for level in Locality::ALL {
                let (cnt, strict) = brute_counts(&idx, 0, &pending, ExecId(e), level);
                assert_eq!(
                    idx.pending_level_count(0, ExecId(e), level),
                    cnt,
                    "exec {e} level {level:?}"
                );
                assert_eq!(
                    idx.pending_strict_count(0, ExecId(e), level),
                    strict,
                    "strict exec {e} level {level:?}"
                );
            }
        }
        assert!(idx.stats().inv_index_updates > 0);
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
    }

    #[test]
    fn rack_batched_levels_match_per_exec_recomputation() {
        let (_dag, _topo, mut idx) = build();
        idx.add_cached(BlockId::new(RddId(0), 1), ExecId(7));
        idx.add_disk(BlockId::new(RddId(0), 5), NodeId(2));
        let mut out = Vec::new();
        for k in 0..6 {
            for rack in 0..idx.rack_exec_range.len() {
                idx.task_levels_in_rack(0, k, rack, &mut out);
                let (ra, rb) = idx.rack_exec_range[rack];
                assert_eq!(out.len(), (rb - ra) as usize);
                for (j, &l) in out.iter().enumerate() {
                    assert_eq!(
                        l,
                        idx.task_level_raw(0, k, ra + j as u32),
                        "task {k} rack {rack} slot {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn gate_zero_implies_probe_none() {
        let (_dag, _topo, mut idx) = build();
        let pending = PendingSet::full(6);
        idx.activate_stage(0, &pending);
        idx.add_cached(BlockId::new(RddId(0), 3), ExecId(2));
        for e in 0..8u32 {
            for level in Locality::ALL {
                for strict in [false, true] {
                    let gate = if strict {
                        idx.pending_strict_count(0, ExecId(e), level)
                    } else {
                        idx.pending_level_count(0, ExecId(e), level)
                    };
                    let probe = idx.scan_first(0, ExecId(e), level, strict, &pending);
                    if gate == 0 {
                        assert_eq!(probe, None, "exec {e} {level:?} strict {strict}");
                    } else {
                        assert!(probe.is_some(), "exec {e} {level:?} strict {strict}");
                    }
                }
            }
        }
        assert!(idx.stats().inv_index_hits > 0);
    }

    #[test]
    fn oracle_detects_injected_drift() {
        let (_dag, _topo, mut idx) = build();
        let pending = PendingSet::full(6);
        idx.activate_stage(0, &pending);
        assert!(idx.check_inv_consistency(0, &pending));
        let slot = idx.inv_cnt[0].iter().position(|&c| c > 0).unwrap();
        idx.inv_cnt[0][slot] -= 1; // lint: allow(mutation-escape): deliberate drift injection to prove the oracle trips
        assert!(!idx.check_inv_consistency(0, &pending));
        idx.inv_cnt[0][slot] += 1; // lint: allow(mutation-escape): undo the injected drift
        assert!(idx.check_inv_consistency(0, &pending));
        idx.inv_best_any[0] += 1; // lint: allow(mutation-escape): deliberate drift injection to prove the oracle trips
        assert!(!idx.check_inv_consistency(0, &pending));
        idx.inv_best_any[0] -= 1; // lint: allow(mutation-escape): undo the injected drift
        assert!(idx.check_inv_consistency(0, &pending));
        // A stray scan-row bit (a task in a row it does not belong to) and
        // a missing one both trip the row checks.
        let w = idx.scans[0].bits.iter().position(|&w| w != 0).unwrap();
        let bit = idx.scans[0].bits[w] & idx.scans[0].bits[w].wrapping_neg();
        idx.scans[0].bits[w] &= !bit; // lint: allow(mutation-escape): deliberate drift injection to prove the oracle trips
        assert!(!idx.check_inv_consistency(0, &pending));
        idx.scans[0].bits[w] |= bit; // lint: allow(mutation-escape): undo the injected drift
        assert!(idx.check_inv_consistency(0, &pending));
        let spare = idx.scans[0].bits.iter().position(|&w| w == 0).unwrap();
        idx.scans[0].bits[spare] |= 1; // lint: allow(mutation-escape): deliberate drift injection to prove the oracle trips
        assert!(!idx.check_inv_consistency(0, &pending));
    }

    #[test]
    fn release_folds_out_pending_and_inactive_flips_skip_the_diff() {
        let (_dag, _topo, mut idx) = build();
        let pending = PendingSet::full(6);
        let b1 = BlockId::new(RddId(0), 1);
        // No active stage reads anything: the flip bumps the generation
        // but runs no reader diff.
        let g0 = idx.generation();
        idx.add_cached(b1, ExecId(0));
        assert!(idx.generation() > g0);
        assert_eq!(idx.stats().inv_flip_diffs, 0);
        idx.activate_stage(0, &pending);
        assert!(idx.is_stage_active(0));
        idx.add_cached(b1, ExecId(4));
        assert_eq!(idx.stats().inv_flip_diffs, 1);
        assert!(idx.check_inv_consistency(0, &pending));
        // Released with every task still pending (a rejected job's
        // stage): nothing may stay behind.
        idx.release_stage(0);
        assert!(!idx.is_stage_active(0));
        assert!(idx.check_inv_consistency(0, &pending));
        idx.remove_cached(b1, ExecId(4));
        assert_eq!(idx.stats().inv_flip_diffs, 1);
        // Re-activation (lineage resubmission) folds in from scratch.
        idx.activate_stage(0, &pending);
        assert!(idx.check_inv_consistency(0, &pending));
        assert_eq!(idx.stats().inv_stage_activations, 2);
        assert_eq!(idx.stats().inv_index_rebuilds, 1);
    }

    #[test]
    fn range_any_handles_word_boundaries() {
        let mut row = vec![0u64; 3];
        assert!(!range_any(&row, 0, 192));
        row[1] = 1 << 63; // bit 127
        assert!(range_any(&row, 0, 192));
        assert!(range_any(&row, 127, 128));
        assert!(!range_any(&row, 0, 127));
        assert!(!range_any(&row, 128, 192));
        assert!(range_any(&row, 64, 128));
        assert!(!range_any(&row, 5, 5));
    }
}
