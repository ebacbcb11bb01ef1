//! The batch chain-query evaluation engine.
//!
//! [`ChainQuery::support`](crate::ChainQuery::support) is correct but
//! rebuilds every step's `enter → {exits}` map from a full table scan on
//! every call, keys its frontiers on full tagged [`Value`]s,
//! and evaluates one query at a time. Template mining evaluates thousands
//! of candidate queries against the *same* database, and candidate paths
//! overwhelmingly share steps — exactly the redundancy this module removes.
//! Three layers (see the crate docs for the architecture overview):
//!
//! 1. **Interning** ([`InternedDb`]): one scan snapshots the database into
//!    columnar dense-`u32` form; frontier sets become bitset-deduplicated
//!    `Vec<u32>`s.
//! 2. **Step-map cache** (`stepmap`): each distinct step — keyed on
//!    `(table, enter_col, exit_col, const-filters, dedup)` — is built once
//!    per [`Engine`] and shared by every query that uses it.
//! 3. **Batch parallelism** ([`par_map`]): [`Engine::support_many`] and
//!    [`Engine::explained_rows_many`] evaluate a whole batch — a mining
//!    frontier, or an auditor's entire template suite — against one cache,
//!    fanned out over scoped threads.
//!
//! Results are **identical** to the row evaluator's — the same
//! `explained_rows` and `support` for every query class (the
//! `engine_equivalence` integration test enforces this differentially).
//! Queries whose decorations reference the anchor log row have no shareable
//! *step* maps (the decoration must be re-evaluated per log row), so the
//! engine routes them to its own per-row path over shared
//! `(table, enter_col) → rows` **row maps** (`stepmap::RowMap`) —
//! filter-free identity, one map per entered column, bitset frontiers —
//! which keeps even the decorated part of an audit suite off the live
//! tables' hash indexes.
//!
//! # Snapshot lifecycle
//!
//! The engine snapshots at construction and answers from that snapshot
//! only: rows inserted into the `Database` afterwards are **not** visible
//! until [`Engine::refresh`] is called. Because tables are structurally
//! append-only (there is no update/delete API), a refresh is incremental:
//! it scans only the appended rows, extends the interner (existing ids are
//! never reassigned) and the columnar tables in place, and then invalidates
//! exactly the caches the append touched.
//!
//! # Cache invalidation rules
//!
//! On refresh, for every table that gained rows (or was created since the
//! last snapshot):
//!
//! * **step maps over that table** are dropped — their CSR arrays
//!   describe the old rows — and are lazily rebuilt on next use;
//! * **row maps and log partitions over that table** are **kept**: they
//!   are chunked by row range (`stepmap::RowMapChunks`,
//!   `GroupChunks`), and because tables are append-only a chunk over
//!   old rows stays exact forever — growth appends one chunk over just
//!   the new rows on next use (`O(batch)`), with periodic compaction
//!   bounding the chunk count;
//! * everything else is **kept**: a step/row map over an un-grown table
//!   stays exact even though the id space grew, because a newly-interned
//!   value cannot occur in rows that have not changed (probing such a map
//!   with a new id yields the empty slice — see `StepMap::exits_of`).
//!
//! # When to hold a warm engine
//!
//! Construction costs one full database scan; each distinct step map costs
//! one table scan on first use. Those costs only amortize across queries,
//! so hold **one engine per logical session** and refresh it as the log
//! grows, rather than constructing one per call:
//!
//! * a mining run (thousands of candidates sharing steps),
//! * an interactive audit session (every "which accesses does this suite
//!   explain?" question re-uses the suite's step maps),
//! * a long-running service over an append-only log ([`Engine::refresh`]
//!   after each ingest batch keeps the snapshot warm at the cost of
//!   scanning only the new rows).
//!
//! Do **not** share one engine across databases: a snapshot refreshed
//! against a database it was not built from fails with a typed
//! [`RefreshError`] (table shrank) or silently diverges. Clones of a
//! database count as different databases once either side mutates.
//!
//! # Serving queries while the log ingests
//!
//! [`Engine::refresh`] takes `&mut Engine`, so a service that refreshes
//! the engine readers are using must serialize readers against every
//! ingest. [`ShardedEngine`] removes that coupling with an epoch-style
//! snapshot handoff: readers [`load`](ShardedEngine::load) an immutable
//! [`EpochVec`] (per log shard, an [`Epoch`]: database + engine) and
//! evaluate against it for their whole session, while the single writer
//! forks each shard's engine ([`Engine::fork`]), refreshes the forks
//! privately, and publishes them as the next vector — a pointer swap,
//! never a wait for in-flight queries. One shard is the unsharded
//! deployment. Code that never ingests needs no cell: it holds a plain
//! [`Engine`] beside its own database.
//!
//! # Panic hygiene
//!
//! The engine's caches are guarded by poison-tolerant locks
//! ([`crate::sync::unpoison`]): they hold only memoized, immutable-once-
//! inserted results, so a panicking query can never leave them in a state
//! that is unsafe to read, and recovering the guard is always correct. A
//! long-running auditor therefore survives a panicking query — subsequent
//! queries keep answering (the `catch_unwind` regression tests below and
//! in `tests/engine_equivalence.rs` enforce this).

mod interner;
mod parallel;
mod sharded;
mod shared;
mod stepmap;

pub use interner::{InternedDb, InternedTable, Interner, RefreshDelta, RefreshError, NULL_ID};
pub use parallel::{par_map, par_map_with};
pub use sharded::{
    shard_of, EpochVec, ShardEpoch, ShardKey, ShardRefresh, ShardedBatch, ShardedEngine,
    ShardedIngestReport,
};
pub use shared::{Epoch, Maintained, SuitePin};

use crate::chain::{ChainQuery, ChainStep, EvalOptions, Rhs, StepFilter};
use crate::database::{Database, TableId};
use crate::error::Result;
use crate::rowset::RowSet;
use crate::sync::unpoison;
use crate::table::RowId;
use crate::types::ColId;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use stepmap::{RowMap, RowMapChunks, StepKey, StepMap, MAX_CACHE_CHUNKS};

/// A shared evaluation engine over one database snapshot. See the module
/// docs.
#[derive(Debug)]
pub struct Engine {
    snapshot: InternedDb,
    cache: Mutex<HashMap<StepKey, Arc<StepMap>>>,
    groups: Mutex<HashMap<GroupKey, GroupChunks>>,
    /// `(table, enter_col) → rows` maps for the anchor-dependent per-row
    /// path; filter-free identity, so every decorated query shares them.
    /// Chunked by row range: growth appends a chunk over the new rows.
    rowmaps: Mutex<HashMap<(TableId, ColId), RowMapChunks>>,
}

/// What one [`Engine::refresh`] did: the snapshot delta, how many step
/// maps had to be dropped, and how many chunked caches merely went stale
/// (they extend themselves over just the appended rows on next use —
/// `O(batch)`, not a rebuild).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Which tables grew, how many rows/values were appended.
    pub delta: RefreshDelta,
    /// Step maps dropped because their table grew (rebuilt lazily from a
    /// full scan on next use — their CSR identity is whole-table).
    pub dropped_step_maps: usize,
    /// Log partitions left stale by the append: **kept**, and extended
    /// over only the new rows when next queried.
    pub stale_partitions: usize,
    /// Per-row maps left stale by the append: **kept**, and extended
    /// over only the new rows when next queried.
    pub stale_row_maps: usize,
}

/// The previous epoch's unexplained residue as one engine sees it
/// during a maintained advance ([`Engine::reask_grown`]).
pub(crate) struct Residue<'a> {
    /// The residue, in global log row ids.
    pub rows: &'a RowSet,
    /// Maps one of this engine's log rows to its global id (the
    /// identity unless the engine serves one shard of the log).
    pub to_global: &'a dyn Fn(RowId) -> RowId,
    /// This engine's slice of the residue in its own row ids: the
    /// domain of the full re-ask fallback, built only when needed.
    pub local: &'a dyn Fn() -> RowSet,
}

/// Identity of a log grouping: all queries sharing the anchor shape (same
/// log table, start/close columns and anchor filters) walk the same
/// `(start, close) → rows` partition, so it is computed once per engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    log: crate::database::TableId,
    start_col: crate::types::ColId,
    close_col: Option<crate::types::ColId>,
    anchor_filters: Vec<(
        crate::types::ColId,
        crate::chain::CmpOp,
        crate::value::Value,
    )>,
}

impl GroupKey {
    fn of(q: &ChainQuery) -> GroupKey {
        GroupKey {
            log: q.log,
            start_col: q.start_col,
            close_col: q.close_col,
            anchor_filters: q.anchor_filters.clone(),
        }
    }
}

/// One close bucket of a start group: `(close id, rows)`.
type CloseBucket = (u32, Vec<RowId>);

/// One chunk of a log partition: a contiguous row range grouped by
/// `(start id, close id)`. Chunks over already-partitioned rows are
/// immutable and `Arc`-shared across engine forks; growth appends a new
/// chunk over just the appended rows ([`GroupChunks`]).
#[derive(Debug)]
struct GroupChunk {
    /// `start → per-close rows` within this chunk's range; for open
    /// queries the close id is [`NULL_ID`] (one bucket per start).
    by_start: HashMap<u32, Vec<CloseBucket>>,
}

/// The chunked per-anchor-shape log partition: `Arc`-shared chunks over
/// disjoint row ranges covering `[0, covered)` of the log.
#[derive(Debug, Clone, Default)]
struct GroupChunks {
    chunks: Vec<Arc<GroupChunk>>,
    /// Log rows covered by the chunks (the log's `n_rows` when last
    /// extended).
    covered: usize,
}

/// One set-based template of a fused-suite bucket: its result slot and
/// warm step maps.
struct GroupedTemplate<'q> {
    slot: usize,
    q: &'q ChainQuery,
    maps: Vec<Arc<StepMap>>,
}

/// One anchor-shape bucket of a fused suite: the shared log partition,
/// its distinct starts (gathered once), and every template walking it.
struct GroupedBucket<'q> {
    groups: GroupChunks,
    starts: Vec<u32>,
    templates: Vec<GroupedTemplate<'q>>,
}

/// One anchor-dependent template of a fused-suite scan.
struct PerRowTemplate<'q> {
    slot: usize,
    q: &'q ChainQuery,
    rowmaps: Vec<RowMapChunks>,
}

/// Every anchor-dependent template over one log table: fused into a
/// single scan of that log.
struct PerRowBucket<'q> {
    log: TableId,
    templates: Vec<PerRowTemplate<'q>>,
}

/// A family of anchor-dependent templates sharing the anchor start
/// column and the first step's (table, enter column) — for any anchor
/// row their step-0 candidate sets are identical, so one candidate pass
/// serves every member. The plan pre-factors the members' step-0
/// filters: `filters` holds each distinct filter once, `universal`
/// indexes the ones every member requires (a miss skips the candidate
/// family-wide), and `member_extras[m]` indexes member `m`'s remaining
/// filters.
struct FamilyPlan {
    members: Vec<usize>,
    filters: Vec<StepFilter>,
    universal: Vec<usize>,
    member_extras: Vec<Vec<usize>>,
}

/// Groups a per-row bucket's templates into [`FamilyPlan`]s.
fn plan_families(templates: &[PerRowTemplate]) -> Vec<FamilyPlan> {
    let mut families: Vec<FamilyPlan> = Vec::new();
    let mut ix: HashMap<(ColId, TableId, ColId), usize> = HashMap::new();
    let mut member_all: Vec<Vec<Vec<usize>>> = Vec::new();
    for (t, tmpl) in templates.iter().enumerate() {
        let s0 = &tmpl.q.steps[0];
        let fam = match ix.entry((tmpl.q.start_col, s0.table, s0.enter_col)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(families.len());
                families.push(FamilyPlan {
                    members: Vec::new(),
                    filters: Vec::new(),
                    universal: Vec::new(),
                    member_extras: Vec::new(),
                });
                member_all.push(Vec::new());
                families.len() - 1
            }
        };
        let plan = &mut families[fam];
        let indices: Vec<usize> = s0
            .filters
            .iter()
            .map(|f| match plan.filters.iter().position(|g| g == f) {
                Some(i) => i,
                None => {
                    plan.filters.push(*f);
                    plan.filters.len() - 1
                }
            })
            .collect();
        plan.members.push(t);
        member_all[fam].push(indices);
    }
    for (plan, all) in families.iter_mut().zip(&member_all) {
        plan.universal = (0..plan.filters.len())
            .filter(|i| all.iter().all(|m| m.contains(i)))
            .collect();
        plan.member_extras = all
            .iter()
            .map(|m| {
                m.iter()
                    .copied()
                    .filter(|i| !plan.universal.contains(i))
                    .collect()
            })
            .collect();
    }
    families
}

/// Splits `[0, n)` into at most `parts` contiguous near-even ranges
/// (none empty).
fn split_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let hi = lo + base + usize::from(i < extra);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Maximal consecutive runs of a sorted, deduplicated row-id slice, as
/// half-open `(start, end)` ranges in row-id space.
fn consecutive_runs(rows: &[u32]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < rows.len() {
        let mut j = i + 1;
        while j < rows.len() && rows[j] == rows[j - 1] + 1 {
            j += 1;
        }
        runs.push((rows[i] as usize, rows[j - 1] as usize + 1));
        i = j;
    }
    runs
}

/// The anchor rows one fused suite pass may answer with.
#[derive(Clone, Copy)]
enum Domain<'a> {
    /// Every log row.
    All,
    /// Log rows `[lo, hi)`, clamped to the log.
    Range(usize, usize),
    /// An explicit ascending row-id set (ids past the log are ignored).
    Rows(&'a [u32]),
}

/// The anchor rows a per-row scan visits, in ascending order: a span of
/// row ids, or a slice of explicit ids.
#[derive(Clone, Copy)]
enum Scan<'a> {
    Span(usize, usize),
    Ids(&'a [u32]),
}

impl<'a> Scan<'a> {
    /// `domain`'s rows of a log with `n_rows` rows.
    fn of(domain: Domain<'a>, n_rows: usize) -> Scan<'a> {
        match domain {
            Domain::All => Scan::Span(0, n_rows),
            Domain::Range(lo, hi) => Scan::Span(lo.min(n_rows), hi.min(n_rows)),
            Domain::Rows(ids) => Scan::Ids(&ids[..ids.partition_point(|&r| (r as usize) < n_rows)]),
        }
    }

    fn len(&self) -> usize {
        match *self {
            Scan::Span(lo, hi) => hi.saturating_sub(lo),
            Scan::Ids(ids) => ids.len(),
        }
    }

    /// The scan's positions `[a, b)`.
    fn slice(&self, a: usize, b: usize) -> Scan<'a> {
        match *self {
            Scan::Span(lo, _) => Scan::Span(lo + a, lo + b),
            Scan::Ids(ids) => Scan::Ids(&ids[a..b]),
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        let (ids, span) = match *self {
            Scan::Span(lo, hi) => (&[][..], lo..hi),
            Scan::Ids(ids) => (ids, 0..0),
        };
        ids.iter().map(|&r| r as usize).chain(span)
    }
}

impl Engine {
    /// Snapshots `db` (one scan of every table) and starts with an empty
    /// step-map cache.
    pub fn new(db: &Database) -> Self {
        Engine {
            snapshot: InternedDb::snapshot(db),
            cache: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            rowmaps: Mutex::new(HashMap::new()),
        }
    }

    /// The interned snapshot (exposed for diagnostics and tests).
    pub fn snapshot(&self) -> &InternedDb {
        &self.snapshot
    }

    /// Number of distinct step maps built so far.
    pub fn cached_step_maps(&self) -> usize {
        unpoison(self.cache.lock()).len()
    }

    /// Number of distinct log partitions built so far.
    pub fn cached_partitions(&self) -> usize {
        unpoison(self.groups.lock()).len()
    }

    /// Number of distinct per-row maps built so far (the anchor-dependent
    /// path's cache).
    pub fn cached_row_maps(&self) -> usize {
        unpoison(self.rowmaps.lock()).len()
    }

    /// Brings the engine up to date with `db` incrementally: scans only
    /// the rows appended since construction (or the previous refresh) and
    /// drops only the step maps and log partitions over tables that grew.
    /// See the module docs for the invalidation rules.
    ///
    /// `db` must be the database this engine was built from (tables are
    /// append-only, so "the same database, possibly longer"). Refreshing
    /// against a database where a table shrank returns a typed
    /// [`RefreshError`] and leaves the engine untouched — it keeps
    /// answering from its current snapshot — so a long-running service can
    /// log the mismatch and rebuild instead of dying.
    pub fn refresh(&mut self, db: &Database) -> std::result::Result<RefreshStats, RefreshError> {
        let delta = self.snapshot.refresh(db)?;
        if delta.is_empty() {
            return Ok(RefreshStats {
                delta,
                ..RefreshStats::default()
            });
        }
        let grown: std::collections::HashSet<TableId> = delta.grown.iter().copied().collect();
        let cache = unpoison(self.cache.get_mut());
        let maps_before = cache.len();
        cache.retain(|key, _| !grown.contains(&key.table));
        let dropped_step_maps = maps_before - cache.len();
        // Chunked caches are *kept*: a partition or row map over rows that
        // existed before the append is still exact (tables are
        // append-only), so growth only marks them stale — they extend
        // themselves over the new rows on next use, in `O(batch)`.
        let stale_partitions = unpoison(self.groups.get_mut())
            .keys()
            .filter(|key| grown.contains(&key.log))
            .count();
        let stale_row_maps = unpoison(self.rowmaps.get_mut())
            .keys()
            .filter(|(table, _)| grown.contains(table))
            .count();
        Ok(RefreshStats {
            delta,
            dropped_step_maps,
            stale_partitions,
            stale_row_maps,
        })
    }

    /// A private successor of this engine: same snapshot, same warm caches
    /// (the cached maps are immutable and `Arc`-shared, so this is a
    /// columnar memcpy plus cache-map clones — no re-interning, no map
    /// rebuilds).
    ///
    /// This is the writer half of [`ShardedEngine`]'s epoch handoff: the
    /// published engine stays frozen for its readers while the fork is
    /// refreshed against the grown database and published in the next
    /// epoch vector.
    pub fn fork(&self) -> Engine {
        Engine {
            snapshot: self.snapshot.clone(),
            cache: Mutex::new(unpoison(self.cache.lock()).clone()),
            groups: Mutex::new(unpoison(self.groups.lock()).clone()),
            rowmaps: Mutex::new(unpoison(self.rowmaps.lock()).clone()),
        }
    }

    /// Log row ids explained by `q`, identical to
    /// [`ChainQuery::explained_rows`].
    ///
    /// `db` is used for validation only; evaluation runs on the snapshot
    /// (anchor-dependent decorated queries take the per-row path over the
    /// shared row maps, everything else the grouped set-based path).
    pub fn explained_rows(
        &self,
        db: &Database,
        q: &ChainQuery,
        opts: EvalOptions,
    ) -> Result<Vec<RowId>> {
        q.validate(db)?;
        if q.is_anchor_dependent() {
            return Ok(self.explained_anchor_dep(q, &self.rowmaps_for(q)));
        }
        let maps = self.maps_for(q, opts);
        Ok(self.explained_grouped(q, &maps))
    }

    /// Support of `q` (distinct explained log ids), identical to
    /// [`ChainQuery::support`].
    pub fn support(&self, db: &Database, q: &ChainQuery, opts: EvalOptions) -> Result<usize> {
        q.validate(db)?;
        if q.is_anchor_dependent() {
            let rows = self.explained_anchor_dep(q, &self.rowmaps_for(q));
            return Ok(self.distinct_lids(q, &rows));
        }
        let maps = self.maps_for(q, opts);
        Ok(self.support_grouped(q, &maps))
    }

    /// Batch support evaluation: one result per query, in input order.
    ///
    /// Builds every missing step map first (in parallel), then evaluates
    /// the whole batch in parallel against the shared cache. This is the
    /// API mining rounds call once per candidate frontier.
    pub fn support_many(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Vec<Result<usize>> {
        self.eval_many(
            db,
            queries,
            opts,
            |q, maps| self.support_grouped(q, maps),
            |q, rowmaps| {
                let rows = self.explained_anchor_dep(q, rowmaps);
                self.distinct_lids(q, &rows)
            },
        )
    }

    /// Batch `explained_rows` evaluation: one sorted row set per query, in
    /// input order, identical to [`ChainQuery::explained_rows`] per query.
    ///
    /// This is the audit-layer entry point: an explainer evaluates its
    /// whole template suite as one fanned-out batch. It rides the fused
    /// suite driver ([`Engine::eval_suite`]): one pass over each shared
    /// log partition / log scan evaluates **all** templates, and the
    /// per-query [`RowSet`]s convert to the legacy sorted `Vec` form
    /// without a sort (bitmap iteration is ordered).
    pub fn explained_rows_many(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Vec<Result<Vec<RowId>>> {
        self.eval_suite(db, queries, opts)
            .into_iter()
            .map(|set| set.map(|s| s.to_vec()))
            .collect()
    }

    /// Union of the rows explained by any of `queries` — the audit layer's
    /// "which accesses does this template suite explain?" primitive, built
    /// on [`Engine::eval_suite`]. Fails on the first invalid query.
    pub fn explained_union(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Result<std::collections::HashSet<RowId>> {
        Ok(self
            .explained_union_rowset(db, queries, opts)?
            .iter()
            .collect())
    }

    /// [`Engine::explained_union`] in compressed form: the union of every
    /// template's explained rows as one [`RowSet`], with no intermediate
    /// hash set. Fails on the first invalid query.
    pub fn explained_union_rowset(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Result<RowSet> {
        let mut sets = Vec::with_capacity(queries.len());
        for set in self.eval_suite(db, queries, opts) {
            sets.push(set?);
        }
        Ok(RowSet::union_all(sets))
    }

    /// The fused suite driver: evaluates **all** templates against each
    /// log chunk before moving on, returning one compressed [`RowSet`]
    /// of explained rows per query (input order; invalid queries report
    /// their error in place).
    ///
    /// Where the per-query batch driver behind [`Engine::support_many`]
    /// fans out *per query* — so N templates sharing an anchor shape
    /// re-walk the same partition's distinct starts N times, and N
    /// decorated templates re-scan the log N times — this driver groups
    /// the suite first and pays each scan once:
    ///
    /// * **set-based templates** are bucketed by anchor shape; per
    ///   bucket, the distinct starts and each start's close buckets are
    ///   gathered once, then every template's chain is walked against
    ///   them (shared scratch bitset, per-chunk warm step maps).
    ///   Parallelism is over *start ranges*, not templates, so a
    ///   one-template suite still uses every core;
    /// * **anchor-dependent templates** are bucketed by log table; one
    ///   scan of `0..n_rows` evaluates every decorated template against
    ///   each row (parallel over row ranges).
    ///
    /// Workers emit per-template [`RowSet`]s that merge associatively,
    /// so the fan-out/fan-in never re-sorts: results are identical to
    /// [`ChainQuery::explained_rows`] per query (the
    /// `rowset_equivalence` suite enforces this differentially).
    pub fn eval_suite(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Vec<Result<RowSet>> {
        self.eval_suite_over(db, queries, opts, Domain::All)
    }

    /// [`Engine::eval_suite`] restricted to **anchor rows** `[lo, hi)` of
    /// each query's log table (clamped to the log): only log rows in that
    /// range can appear in the answers, while chain steps still walk the
    /// *whole* support tables. This is the delta evaluator behind the
    /// maintained explained/unexplained materializations
    /// ([`ShardedEngine::pin_suite`]): after an append grows the log by
    /// `[lo, hi)`, evaluating just that range answers "which of the new
    /// accesses are explained?" without re-scanning history.
    ///
    /// The range partition is built fresh per call and **not cached** —
    /// it covers an arbitrary slice, not the `[0, covered)` prefix the
    /// chunked cache extends — so reserve this for genuine deltas. Per
    /// query, the result equals the `eval_suite` answer intersected with
    /// `[lo, hi)`, because a log row is anchored independently of every
    /// other log row.
    pub fn eval_suite_range(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
        lo: usize,
        hi: usize,
    ) -> Vec<Result<RowSet>> {
        self.eval_suite_over(db, queries, opts, Domain::Range(lo, hi))
    }

    /// [`Engine::eval_suite`] restricted to an explicit **anchor row
    /// set**: only rows in `rows` can appear in the answers, while chain
    /// steps still walk the whole support tables. This is the
    /// *scattered-residue* delta evaluator behind the maintained
    /// partition: when a support table grows, a template stepping into
    /// it can newly explain old anchor rows — but explanation is
    /// monotone under append-only growth, so only the *previously
    /// unexplained* residue needs re-asking, and the residue is usually
    /// a small scattered fraction of the log. Per query, the result
    /// equals the `eval_suite` answer intersected with `rows`.
    ///
    /// Like [`Engine::eval_suite_range`], partitions over `rows` are
    /// built fresh (one grouped chunk per consecutive run) and not
    /// cached — reserve this for genuine deltas.
    pub fn eval_suite_rows(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
        rows: &RowSet,
    ) -> Vec<Result<RowSet>> {
        self.eval_suite_over(db, queries, opts, Domain::Rows(&rows.to_vec()))
    }

    /// The one fused driver behind the three `eval_suite*` entry points:
    /// validate, build the suite's maps, bucket the templates, fan the
    /// bucket scans out over the domain's anchor rows, and fan the slice
    /// results back in. The domain decides only which partition chunks a
    /// grouped bucket walks ([`Engine::partition_over`]) and which anchor
    /// rows the per-row scan visits ([`Scan`]).
    fn eval_suite_over(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
        domain: Domain,
    ) -> Vec<Result<RowSet>> {
        let mut results: Vec<Option<Result<RowSet>>> = queries
            .iter()
            .map(|q| q.validate(db).err().map(Err))
            .collect();
        let valid: Vec<(usize, &ChainQuery)> = results
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_none())
            .map(|(i, _)| (i, &queries[i]))
            .collect();
        self.build_missing_maps(
            valid
                .iter()
                .map(|(_, q)| *q)
                .filter(|q| !q.is_anchor_dependent()),
            opts,
        );

        // Bucket set-based templates by anchor shape; each bucket owns
        // the partition over the domain and its distinct starts, gathered
        // once. Bucket anchor-dependent templates by log table: one fused
        // scan per log evaluates all of them.
        let mut grouped: Vec<GroupedBucket> = Vec::new();
        let mut bucket_ix: HashMap<GroupKey, usize> = HashMap::new();
        let mut per_row: Vec<PerRowBucket> = Vec::new();
        let mut per_row_ix: HashMap<TableId, usize> = HashMap::new();
        for (slot, q) in &valid {
            if q.is_anchor_dependent() {
                let ix = *per_row_ix.entry(q.log).or_insert_with(|| {
                    per_row.push(PerRowBucket {
                        log: q.log,
                        templates: Vec::new(),
                    });
                    per_row.len() - 1
                });
                per_row[ix].templates.push(PerRowTemplate {
                    slot: *slot,
                    q,
                    rowmaps: self.rowmaps_for(q),
                });
            } else {
                let key = GroupKey::of(q);
                let ix = match bucket_ix.get(&key) {
                    Some(&ix) => ix,
                    None => {
                        let groups = self.partition_over(q, &key, domain);
                        let mut starts: Vec<u32> = Vec::new();
                        with_scratch_marks(self.snapshot.interner.len(), |marks| {
                            for chunk in &groups.chunks {
                                for &start in chunk.by_start.keys() {
                                    if marks.insert(start) {
                                        starts.push(start);
                                    }
                                }
                            }
                            marks.remove_all(&starts);
                        });
                        grouped.push(GroupedBucket {
                            groups,
                            starts,
                            templates: Vec::new(),
                        });
                        bucket_ix.insert(key, grouped.len() - 1);
                        grouped.len() - 1
                    }
                };
                grouped[ix].templates.push(GroupedTemplate {
                    slot: *slot,
                    q,
                    maps: self.maps_for(q, opts),
                });
            }
        }

        // Templates holding pointer-equal map prefixes walk as one: sort
        // each bucket by map identity so shared prefixes are adjacent
        // (slice results carry their slot, so output order is free).
        for bucket in &mut grouped {
            bucket.templates.sort_by(|a, b| {
                let ptrs = |t: &GroupedTemplate| -> Vec<usize> {
                    t.maps.iter().map(|m| Arc::as_ptr(m) as usize).collect()
                };
                ptrs(a).cmp(&ptrs(b))
            });
        }

        // One work item per (bucket, slice): parallelism is over the
        // data, so even a single-template suite fans out.
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        enum Work<'a> {
            Grouped { bucket: usize, lo: usize, hi: usize },
            PerRow { bucket: usize, rows: Scan<'a> },
        }
        let mut work: Vec<Work> = Vec::new();
        for (b, bucket) in grouped.iter().enumerate() {
            for (lo, hi) in split_ranges(bucket.starts.len(), threads) {
                work.push(Work::Grouped { bucket: b, lo, hi });
            }
        }
        for (b, bucket) in per_row.iter().enumerate() {
            let scan = Scan::of(domain, self.snapshot.table(bucket.log).n_rows);
            for (lo, hi) in split_ranges(scan.len(), threads) {
                work.push(Work::PerRow {
                    bucket: b,
                    rows: scan.slice(lo, hi),
                });
            }
        }
        let outputs = par_map(&work, |item| match item {
            Work::Grouped { bucket, lo, hi } => {
                self.eval_grouped_slice(&grouped[*bucket], *lo, *hi)
            }
            Work::PerRow { bucket, rows } => self.eval_per_row_rows(&per_row[*bucket], rows.iter()),
        });

        // Fan-in: every valid query starts from the empty set (a bucket
        // with no rows produces no work items), then absorbs its slice
        // results — the union is associative, so slice order is free.
        for (slot, _) in &valid {
            results[*slot] = Some(Ok(RowSet::new()));
        }
        for slice in outputs {
            for (slot, set) in slice {
                if let Some(Ok(acc)) = &mut results[slot] {
                    acc.union_with(&set);
                }
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every query resolved"))
            .collect()
    }

    /// The log partition a grouped bucket walks over `domain`: the cached,
    /// chunk-extended partition for the whole log ([`Engine::groups_for`]),
    /// or fresh, uncached chunks over the domain's consecutive runs
    /// (clamped to the log) — an arbitrary slice is not the `[0, covered)`
    /// prefix the cache extends.
    fn partition_over(&self, q: &ChainQuery, key: &GroupKey, domain: Domain) -> GroupChunks {
        let runs = match domain {
            Domain::All => return self.groups_for(q),
            Domain::Range(lo, hi) => vec![(lo, hi)],
            Domain::Rows(ids) => consecutive_runs(ids),
        };
        let n_rows = self.snapshot.table(key.log).n_rows;
        let chunks = runs
            .into_iter()
            .map(|(a, z)| (a.min(n_rows), z.min(n_rows)))
            .filter(|(a, z)| a < z)
            .map(|(a, z)| Arc::new(self.build_group_chunk(key, a, z)))
            .collect();
        GroupChunks {
            chunks,
            covered: n_rows,
        }
    }

    /// The rows of the previous epoch's unexplained `residue` that
    /// `pin`'s templates newly explain now that this engine's snapshot
    /// has grown from `base` by the tables in `grown` — the re-ask half
    /// of a maintained advance (see [`Maintained`]), in this engine's
    /// own log row ids.
    ///
    /// A template stepping into no grown table cannot newly explain an
    /// old row and is not asked. For the others, an old row becomes
    /// newly explained only through a witness chain that uses at least
    /// one appended tuple, so the candidates come from walking back
    /// from the appended tuples ([`Engine::delta_candidates`]); those
    /// still in the residue are re-checked forward with
    /// [`Engine::eval_suite_rows`], which applies every decoration
    /// exactly. That costs O(delta × backward fan-out). A template whose
    /// walk touches more rows than the residue holds is re-asked over
    /// the whole residue instead, so the cost is capped by the residue.
    pub(crate) fn reask_grown(
        &self,
        db: &Database,
        base: &InternedDb,
        grown: &[TableId],
        pin: &SuitePin,
        residue: &Residue,
    ) -> RowSet {
        let mut explained = RowSet::new();
        if residue.rows.is_empty() {
            return explained;
        }
        let mut walked: Vec<ChainQuery> = Vec::new();
        let mut fallback: Vec<ChainQuery> = Vec::new();
        let mut candidates: Vec<RowId> = Vec::new();
        let reaches_growth = |q: &&ChainQuery| q.steps.iter().any(|s| grown.contains(&s.table));
        for q in pin.queries.iter().filter(reaches_growth) {
            if q.validate(db).is_err() {
                continue; // answers nothing, cold or maintained
            }
            match self.delta_candidates(base, q, grown, residue.rows.len()) {
                Some(rows) => {
                    candidates.extend(
                        rows.into_iter()
                            .filter(|&r| residue.rows.contains((residue.to_global)(r))),
                    );
                    walked.push(q.clone());
                }
                None => fallback.push(q.clone()),
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut ask = |queries: &[ChainQuery], rows: &RowSet| {
            if queries.is_empty() || rows.is_empty() {
                return;
            }
            for set in self
                .eval_suite_rows(db, queries, pin.opts, rows)
                .into_iter()
                .flatten()
            {
                explained.union_with(&set);
            }
        };
        ask(&walked, &RowSet::from_sorted_vec(&candidates));
        if !fallback.is_empty() {
            ask(&fallback, &(residue.local)());
        }
        explained
    }

    /// Log rows (ascending) that `q` could newly explain because of the
    /// rows appended since `base`. For every step whose table grew, the
    /// appended rows' exit values are walked forward through the later
    /// steps to the close values they can reach, and their enter values
    /// back through the earlier steps' `exit → rows` maps to the start
    /// values that can reach them; the candidates are the log rows that
    /// start at one and close at the other. When the grown step is the
    /// first, each appended row's enter value *is* a start, so rows are
    /// walked per start and a log row must close where a row appended for
    /// its own start leads (for a one-step template: the appended
    /// `(start, close)` pairs exactly). NULL never joins, and constant
    /// filters prune along the way; anchor-dependent filters need an
    /// anchor row and are ignored, so the set over-approximates (callers
    /// re-check). `None` once the walk has touched more than `cap` rows.
    fn delta_candidates(
        &self,
        base: &InternedDb,
        q: &ChainQuery,
        grown: &[TableId],
        cap: usize,
    ) -> Option<Vec<RowId>> {
        let log = self.snapshot.table(q.log);
        let by_start = self.rowmap_for(q.log, q.start_col);
        let mut out: Vec<RowId> = Vec::new();
        with_scratch_marks(self.snapshot.interner.len(), |marks| {
            let mut walk = DeltaWalk {
                engine: self,
                marks,
                touched: 0,
                cap,
            };
            for (k, step) in q.steps.iter().enumerate() {
                if !grown.contains(&step.table) {
                    continue;
                }
                let old = base.tables.get(step.table.0).map_or(0, |t| t.n_rows);
                let links = walk.appended(step, old);
                // `(starts, exits)` groups walked to the log together.
                let groups: Vec<(Vec<u32>, Vec<u32>)> = if k == 0 {
                    links
                        .chunk_by(|a, b| a.0 == b.0)
                        .map(|g| (vec![g[0].0], g.iter().map(|l| l.1).collect()))
                        .collect()
                } else {
                    let mut starts = distinct(links.iter().map(|l| l.0));
                    for earlier in q.steps[..k].iter().rev() {
                        starts = walk.hop(earlier, earlier.exit_col, earlier.enter_col, &starts)?;
                    }
                    vec![(starts, distinct(links.iter().map(|l| l.1)))]
                };
                for (starts, mut closes) in groups {
                    if q.close_col.is_some() {
                        for later in &q.steps[k + 1..] {
                            closes = walk.hop(later, later.enter_col, later.exit_col, &closes)?;
                        }
                        if closes.is_empty() {
                            continue;
                        }
                        closes.sort_unstable();
                    }
                    for &v in &starts {
                        for r in by_start.rows_of(v) {
                            walk.touch()?;
                            let closes_here = q.close_col.is_none_or(|c| {
                                closes.binary_search(&log.cols[c][r as usize]).is_ok()
                            });
                            if closes_here {
                                out.push(r);
                            }
                        }
                    }
                }
            }
            Some(())
        })?;
        out.sort_unstable();
        out.dedup();
        Some(out)
    }

    /// Walks every template of one grouped bucket over the starts in
    /// `[lo, hi)`. Two redundancies the per-query path pays N times are
    /// paid at most once per start here:
    ///
    /// * **close buckets** are gathered across chunks lazily, on the
    ///   first template whose walk survives — a start every template
    ///   dies on costs no bucket lookups at all;
    /// * **shared chain prefixes** are walked once. Step maps are
    ///   cache-shared `Arc`s, so templates whose chains begin with the
    ///   same steps hold pointer-equal maps; the bucket's templates are
    ///   pre-sorted to make such prefixes adjacent, and a per-depth
    ///   frontier stack lets each template resume from the deepest
    ///   frontier its predecessor already computed.
    ///
    /// Hits accumulate in a plain vector per template (a log row belongs
    /// to exactly one start group, so no deduplication is needed) and
    /// compress to a [`RowSet`] in one sort at the end — per-row set
    /// inserts would pay a container search each, the sort pays once.
    fn eval_grouped_slice(
        &self,
        bucket: &GroupedBucket,
        lo: usize,
        hi: usize,
    ) -> Vec<(usize, RowSet)> {
        let mut hits: Vec<Vec<RowId>> = vec![Vec::new(); bucket.templates.len()];
        with_scratch_marks(self.snapshot.interner.len(), |marks| {
            // frontiers[d] = the frontier after step d of the chain most
            // recently walked from the current start (valid to `computed`).
            let mut frontiers: Vec<Vec<u32>> = Vec::new();
            let mut close_rows: Vec<(u32, &[RowId])> = Vec::new();
            for &start in &bucket.starts[lo..hi] {
                let mut gathered = false;
                let mut computed = 0usize;
                let mut prev_maps: &[Arc<StepMap>] = &[];
                for (t, tmpl) in bucket.templates.iter().enumerate() {
                    let mut depth = 0;
                    while depth < computed
                        && depth < tmpl.maps.len()
                        && Arc::ptr_eq(&tmpl.maps[depth], &prev_maps[depth])
                    {
                        depth += 1;
                    }
                    prev_maps = &tmpl.maps;
                    let mut dead = depth > 0 && frontiers[depth - 1].is_empty();
                    while !dead && depth < tmpl.maps.len() {
                        if frontiers.len() == depth {
                            frontiers.push(Vec::new());
                        }
                        let (done, rest) = frontiers.split_at_mut(depth);
                        let next = &mut rest[0];
                        next.clear();
                        let from: &[u32] = match depth {
                            0 => std::slice::from_ref(&start),
                            d => &done[d - 1],
                        };
                        for &v in from {
                            for &exit in tmpl.maps[depth].exits_of(v) {
                                if marks.insert(exit) {
                                    next.push(exit);
                                }
                            }
                        }
                        marks.remove_all(next);
                        dead = next.is_empty();
                        depth += 1;
                    }
                    computed = depth;
                    if dead {
                        continue;
                    }
                    let frontier: &[u32] = match tmpl.maps.len() {
                        0 => std::slice::from_ref(&start),
                        d => &frontiers[d - 1],
                    };
                    if !gathered {
                        gathered = true;
                        close_rows.clear();
                        for chunk in &bucket.groups.chunks {
                            if let Some(closes) = chunk.by_start.get(&start) {
                                for (close, rows) in closes {
                                    close_rows.push((*close, rows));
                                }
                            }
                        }
                    }
                    match tmpl.q.close_col {
                        None => {
                            for &(_, rows) in &close_rows {
                                hits[t].extend_from_slice(rows);
                            }
                        }
                        Some(_) => {
                            for &v in frontier {
                                marks.insert(v);
                            }
                            for &(close, rows) in &close_rows {
                                if marks.contains(close) {
                                    hits[t].extend_from_slice(rows);
                                }
                            }
                            marks.remove_all(frontier);
                        }
                    }
                }
            }
        });
        bucket
            .templates
            .iter()
            .zip(hits)
            .map(|(tmpl, mut rows)| {
                rows.sort_unstable();
                (tmpl.slot, RowSet::from_sorted_vec(&rows))
            })
            .collect()
    }

    /// One fused scan over the ascending anchor `rows` evaluating every
    /// anchor-dependent template of the bucket against each row — the
    /// "one log scan, N templates" half of the fused driver. Ascending
    /// order is load-bearing: each template's hits compress sort-free.
    ///
    /// Templates sharing the anchor start column and the first step's
    /// (table, enter column) form a *family*: their candidate rows are
    /// identical for a given anchor row, so the candidate set is read
    /// once per row for the whole family. Within the candidate pass,
    /// each *distinct* step-0 filter is evaluated at most once (N
    /// decorated variants of one policy share their base decoration),
    /// filters required by every member short-circuit the candidate, and
    /// anchor-side comparison values are hoisted out of the candidate
    /// loop entirely.
    fn eval_per_row_rows(
        &self,
        bucket: &PerRowBucket,
        rows: impl Iterator<Item = usize>,
    ) -> Vec<(usize, RowSet)> {
        let log = self.snapshot.table(bucket.log);
        let interner = &self.snapshot.interner;
        // The scan visits rows in ascending order, so each template's
        // hits are already sorted and unique — they compress to a
        // `RowSet` without a sort.
        let mut hits: Vec<Vec<u32>> = vec![Vec::new(); bucket.templates.len()];
        let step_tables: Vec<Vec<&InternedTable>> = bucket
            .templates
            .iter()
            .map(|t| {
                t.q.steps
                    .iter()
                    .map(|s| self.snapshot.table(s.table))
                    .collect()
            })
            .collect();
        let families = plan_families(&bucket.templates);
        with_scratch_marks(interner.len(), |marks| {
            let mut alive: Vec<usize> = Vec::new();
            let mut fronts: Vec<Vec<u32>> = vec![Vec::new(); bucket.templates.len()];
            let mut scratch: Vec<u32> = Vec::new();
            let mut rhs_vals: Vec<Value> = Vec::new();
            let mut passes: Vec<bool> = Vec::new();
            for r in rows {
                for fam in &families {
                    alive.clear();
                    for (pos, &t) in fam.members.iter().enumerate() {
                        if self.anchor_passes(bucket.templates[t].q, log, r) {
                            alive.push(pos);
                        }
                    }
                    let Some(&pos0) = alive.first() else { continue };
                    let t0 = fam.members[pos0];
                    let start = log.cols[bucket.templates[t0].q.start_col][r];
                    if start == NULL_ID {
                        continue;
                    }
                    if alive.len() == 1 {
                        // One live template: the dedup-during-iteration
                        // walk is strictly cheaper than the fused pass.
                        let tmpl = &bucket.templates[t0];
                        let frontier = &mut fronts[t0];
                        frontier.clear();
                        frontier.push(start);
                        if self.ad_walk(
                            tmpl.q,
                            &tmpl.rowmaps,
                            &step_tables[t0],
                            log,
                            r,
                            0,
                            frontier,
                            &mut scratch,
                            marks,
                        ) {
                            hits[t0].push(r as u32);
                        }
                        continue;
                    }
                    // Fused candidate pass: hoist each distinct filter's
                    // anchor-side value, then read every candidate row
                    // once. A failed universal filter skips the
                    // candidate for the whole family.
                    rhs_vals.clear();
                    for f in &fam.filters {
                        rhs_vals.push(match f.rhs {
                            Rhs::Const(c) => c,
                            Rhs::AnchorCol(col) => interner.value(log.cols[col][r]),
                        });
                    }
                    for &pos in &alive {
                        fronts[fam.members[pos]].clear();
                    }
                    let table0 = step_tables[t0][0];
                    'cand: for cand in bucket.templates[t0].rowmaps[0].rows_of(start) {
                        let cand = cand as usize;
                        for &i in &fam.universal {
                            let f = &fam.filters[i];
                            let lhs = interner.value(table0.cols[f.col][cand]);
                            if !f.op.eval(&lhs, &rhs_vals[i]) {
                                continue 'cand;
                            }
                        }
                        passes.clear();
                        passes.resize(fam.filters.len(), true);
                        for (i, f) in fam.filters.iter().enumerate() {
                            if !fam.universal.contains(&i) {
                                let lhs = interner.value(table0.cols[f.col][cand]);
                                passes[i] = f.op.eval(&lhs, &rhs_vals[i]);
                            }
                        }
                        for &pos in &alive {
                            if fam.member_extras[pos].iter().all(|&i| passes[i]) {
                                let t = fam.members[pos];
                                let step = &bucket.templates[t].q.steps[0];
                                let exit = table0.cols[step.exit_col][cand];
                                if exit != NULL_ID {
                                    fronts[t].push(exit);
                                }
                            }
                        }
                    }
                    // Remaining steps and the close check are per
                    // template — frontiers diverge after the decorations.
                    for &pos in &alive {
                        let t = fam.members[pos];
                        let tmpl = &bucket.templates[t];
                        let frontier = &mut fronts[t];
                        frontier.retain(|&v| marks.insert(v));
                        marks.remove_all(frontier);
                        if frontier.is_empty() {
                            continue;
                        }
                        if self.ad_walk(
                            tmpl.q,
                            &tmpl.rowmaps,
                            &step_tables[t],
                            log,
                            r,
                            1,
                            frontier,
                            &mut scratch,
                            marks,
                        ) {
                            hits[t].push(r as u32);
                        }
                    }
                }
            }
        });
        bucket
            .templates
            .iter()
            .zip(hits)
            .map(|(tmpl, rows)| (tmpl.slot, RowSet::from_sorted_vec(&rows)))
            .collect()
    }

    /// Walks `q`'s steps (over their row maps `rowmaps` and tables
    /// `tables`) from `skip` onward for anchor row `r`, with `frontier`
    /// holding the entry frontier, and answers the close check: whether
    /// `r` is explained. The one per-row walk: shared by the per-query
    /// path ([`Engine::explained_anchor_dep`]) and the fused scan's
    /// singleton fast path (`skip == 0`, frontier seeded with the start
    /// value) and family pass (`skip == 1`, frontier produced by the
    /// shared candidate scan).
    #[allow(clippy::too_many_arguments)]
    fn ad_walk(
        &self,
        q: &ChainQuery,
        rowmaps: &[RowMapChunks],
        tables: &[&InternedTable],
        log: &InternedTable,
        r: usize,
        skip: usize,
        frontier: &mut Vec<u32>,
        next: &mut Vec<u32>,
        marks: &mut BitMarks,
    ) -> bool {
        let interner = &self.snapshot.interner;
        let later = q.steps.iter().zip(tables).zip(rowmaps).skip(skip);
        for ((step, table), rowmap) in later {
            next.clear();
            for &v in frontier.iter() {
                'rows: for cand in rowmap.rows_of(v) {
                    let cand = cand as usize;
                    for f in &step.filters {
                        let lhs = interner.value(table.cols[f.col][cand]);
                        let rhs = match f.rhs {
                            Rhs::Const(c) => c,
                            Rhs::AnchorCol(col) => interner.value(log.cols[col][r]),
                        };
                        if !f.op.eval(&lhs, &rhs) {
                            continue 'rows;
                        }
                    }
                    let exit = table.cols[step.exit_col][cand];
                    if exit != NULL_ID && marks.insert(exit) {
                        next.push(exit);
                    }
                }
            }
            marks.remove_all(next);
            std::mem::swap(frontier, next);
            if frontier.is_empty() {
                return false;
            }
        }
        match q.close_col {
            None => true,
            Some(c) => {
                let close = log.cols[c][r];
                close != NULL_ID && frontier.contains(&close)
            }
        }
    }

    /// The shared batch driver behind [`Engine::support_many`] and
    /// [`Engine::explained_rows_many`]: validate everything, build the
    /// batch's missing step maps, row maps, and log partitions once, then
    /// fan evaluation out over scoped threads — `eval` for set-based
    /// queries, `eval_ad` for anchor-dependent ones (which run per row on
    /// the shared row maps).
    fn eval_many<R, EV, AD>(
        &self,
        db: &Database,
        queries: &[ChainQuery],
        opts: EvalOptions,
        eval: EV,
        eval_ad: AD,
    ) -> Vec<Result<R>>
    where
        R: Send,
        EV: Fn(&ChainQuery, &[Arc<StepMap>]) -> R + Sync,
        AD: Fn(&ChainQuery, &[RowMapChunks]) -> R + Sync,
    {
        let mut results: Vec<Option<Result<R>>> = queries
            .iter()
            .map(|q| match q.validate(db) {
                Err(e) => Some(Err(e)),
                Ok(()) => None,
            })
            .collect();

        let batch: Vec<(usize, &ChainQuery)> = results
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_none())
            .map(|(i, _)| (i, &queries[i]))
            .collect();
        self.build_missing_maps(
            batch
                .iter()
                .map(|(_, q)| *q)
                .filter(|q| !q.is_anchor_dependent()),
            opts,
        );
        // Pre-build the (few) log partitions the batch shares, so parallel
        // workers don't redundantly compute the same grouping.
        {
            let mut seen = std::collections::HashSet::new();
            for (_, q) in &batch {
                if !q.is_anchor_dependent() && seen.insert(GroupKey::of(q)) {
                    let _ = self.groups_for(q);
                }
            }
        }

        enum Prepared {
            Grouped(Vec<Arc<StepMap>>),
            PerRow(Vec<RowMapChunks>),
        }
        let with_maps: Vec<(usize, &ChainQuery, Prepared)> = batch
            .into_iter()
            .map(|(i, q)| {
                let prepared = if q.is_anchor_dependent() {
                    Prepared::PerRow(self.rowmaps_for(q))
                } else {
                    Prepared::Grouped(self.maps_for(q, opts))
                };
                (i, q, prepared)
            })
            .collect();
        let outputs = par_map(&with_maps, |(_, q, prepared)| match prepared {
            Prepared::Grouped(maps) => eval(q, maps),
            Prepared::PerRow(rowmaps) => eval_ad(q, rowmaps),
        });
        for ((i, _, _), output) in with_maps.iter().zip(outputs) {
            results[*i] = Some(Ok(output));
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every query resolved"))
            .collect()
    }

    // ----------------------------------------------------------- step maps

    /// Builds (in parallel) every step map the batch needs that is not in
    /// the cache yet.
    fn build_missing_maps<'q>(
        &self,
        queries: impl Iterator<Item = &'q ChainQuery>,
        opts: EvalOptions,
    ) {
        let mut missing: Vec<StepKey> = Vec::new();
        {
            let cache = unpoison(self.cache.lock());
            let mut seen = std::collections::HashSet::new();
            for q in queries {
                for step in &q.steps {
                    let key = StepKey::of(step, opts.dedup);
                    if !cache.contains_key(&key) && seen.insert(key.clone()) {
                        missing.push(key);
                    }
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        let built = par_map(&missing, |key| StepMap::build(key, &self.snapshot));
        let mut cache = unpoison(self.cache.lock());
        for (key, map) in missing.into_iter().zip(built) {
            cache.entry(key).or_insert_with(|| Arc::new(map));
        }
    }

    /// The step maps of `q`, building any that are missing.
    fn maps_for(&self, q: &ChainQuery, opts: EvalOptions) -> Vec<Arc<StepMap>> {
        q.steps
            .iter()
            .map(|step| {
                let key = StepKey::of(step, opts.dedup);
                if let Some(map) = unpoison(self.cache.lock()).get(&key) {
                    return map.clone();
                }
                let built = Arc::new(StepMap::build(&key, &self.snapshot));
                unpoison(self.cache.lock())
                    .entry(key)
                    .or_insert(built)
                    .clone()
            })
            .collect()
    }

    /// The row maps of `q`'s steps (for the anchor-dependent per-row
    /// path), building or **extending** any that are missing or stale:
    /// a stale entry gains one chunk over just the appended rows.
    fn rowmaps_for(&self, q: &ChainQuery) -> Vec<RowMapChunks> {
        q.steps
            .iter()
            .map(|step| self.rowmap_for(step.table, step.enter_col))
            .collect()
    }

    fn rowmap_for(&self, table: TableId, col: ColId) -> RowMapChunks {
        let key = (table, col);
        let it = self.snapshot.table(table);
        let n_rows = it.n_rows;
        let mut state = match unpoison(self.rowmaps.lock()).get(&key) {
            Some(state) if state.covered == n_rows => return state.clone(),
            Some(state) => state.clone(),
            None => RowMapChunks::default(),
        };
        // Extend outside the lock: scan only the uncovered suffix.
        state.chunks.push(Arc::new(RowMap::build_range(
            it,
            col,
            state.covered,
            n_rows,
        )));
        state.covered = n_rows;
        if state.chunks.len() > MAX_CACHE_CHUNKS {
            // Amortized compaction: one full rebuild every
            // `MAX_CACHE_CHUNKS` extensions bounds per-probe overhead.
            state.chunks = vec![Arc::new(RowMap::build(it, col))];
        }
        let mut cache = unpoison(self.rowmaps.lock());
        match cache.get(&key) {
            // A concurrent extender got further, or as far with no more
            // chunks (ties prefer the compacter state, so a paid-for
            // compaction is never discarded): theirs wins.
            Some(existing)
                if existing.covered > state.covered
                    || (existing.covered == state.covered
                        && existing.chunks.len() <= state.chunks.len()) =>
            {
                existing.clone()
            }
            _ => {
                cache.insert(key, state.clone());
                state
            }
        }
    }

    // ----------------------------------------------------------- evaluation

    /// Whether interned log row `r` passes the anchor filters.
    #[inline]
    fn anchor_passes(&self, q: &ChainQuery, log: &InternedTable, r: usize) -> bool {
        self.anchor_passes_filters(&q.anchor_filters, log, r)
    }

    #[inline]
    fn anchor_passes_filters(
        &self,
        filters: &[(ColId, crate::chain::CmpOp, crate::value::Value)],
        log: &InternedTable,
        r: usize,
    ) -> bool {
        filters.iter().all(|(col, op, v)| {
            let lhs = self.snapshot.interner.value(log.cols[*col][r]);
            op.eval(&lhs, v)
        })
    }

    /// Builds one partition chunk for rows `[from, to)` of the key's log.
    fn build_group_chunk(&self, key: &GroupKey, from: usize, to: usize) -> GroupChunk {
        let log = self.snapshot.table(key.log);
        // start id -> (close id, or NULL_ID for open queries) -> rows.
        // The start column drives the scan chunk-wise (no per-element
        // segment resolution); close/filter columns are probed per
        // surviving row.
        let mut groups: HashMap<u32, HashMap<u32, Vec<RowId>>> = HashMap::new();
        for (r, &start) in log.cols[key.start_col].iter_range(from, to) {
            if start == NULL_ID {
                continue;
            }
            if !self.anchor_passes_filters(&key.anchor_filters, log, r) {
                continue;
            }
            let close = match key.close_col {
                Some(c) => {
                    let v = log.cols[c][r];
                    if v == NULL_ID {
                        continue;
                    }
                    v
                }
                None => NULL_ID,
            };
            groups
                .entry(start)
                .or_default()
                .entry(close)
                .or_default()
                .push(r as RowId);
        }
        GroupChunk {
            by_start: groups
                .into_iter()
                .map(|(start, closes)| (start, closes.into_iter().collect()))
                .collect(),
        }
    }

    /// The `(start, close) → rows` partition of a query's anchor shape,
    /// computed once per engine and shared by every query with the same
    /// shape (one scan of the log instead of one per candidate). When the
    /// log has grown since the partition was built, it is **extended** by
    /// a chunk over just the new rows — `O(batch)`, with the old chunks
    /// still shared across forks.
    fn groups_for(&self, q: &ChainQuery) -> GroupChunks {
        let key = GroupKey::of(q);
        let n_rows = self.snapshot.table(q.log).n_rows;
        let mut state = match unpoison(self.groups.lock()).get(&key) {
            Some(state) if state.covered == n_rows => return state.clone(),
            Some(state) => state.clone(),
            None => GroupChunks::default(),
        };
        let chunk = self.build_group_chunk(&key, state.covered, n_rows);
        state.chunks.push(Arc::new(chunk));
        state.covered = n_rows;
        if state.chunks.len() > MAX_CACHE_CHUNKS {
            state.chunks = vec![Arc::new(self.build_group_chunk(&key, 0, n_rows))];
        }
        let mut cache = unpoison(self.groups.lock());
        match cache.get(&key) {
            // See `rowmap_for`: further coverage wins; ties prefer the
            // state with fewer chunks so compactions are kept.
            Some(existing)
                if existing.covered > state.covered
                    || (existing.covered == state.covered
                        && existing.chunks.len() <= state.chunks.len()) =>
            {
                existing.clone()
            }
            _ => {
                cache.insert(key, state.clone());
                state
            }
        }
    }

    /// Pair-invariant evaluation on interned ids (sorted ascending, exactly
    /// as [`ChainQuery::explained_rows`] returns them).
    fn explained_grouped(&self, q: &ChainQuery, maps: &[Arc<StepMap>]) -> Vec<RowId> {
        let mut out = self.explained_grouped_unsorted(q, maps);
        out.sort_unstable();
        out
    }

    /// The explained rows in group-iteration (arbitrary) order — the
    /// support path uses this to skip the sort it doesn't need.
    ///
    /// The partition is chunked by row range ([`GroupChunks`]); the chain
    /// is still walked **once per distinct start across all chunks**
    /// (deduplicated via the scratch bitset), so chunking never repeats a
    /// walk — each surviving start then collects its rows from every
    /// chunk's bucket.
    fn explained_grouped_unsorted(&self, q: &ChainQuery, maps: &[Arc<StepMap>]) -> Vec<RowId> {
        let groups = self.groups_for(q);
        let mut out = Vec::new();
        with_scratch_marks(self.snapshot.interner.len(), |marks| {
            // Distinct starts across chunks.
            let mut starts: Vec<u32> = Vec::new();
            for chunk in &groups.chunks {
                for &start in chunk.by_start.keys() {
                    if marks.insert(start) {
                        starts.push(start);
                    }
                }
            }
            marks.remove_all(&starts);

            let mut frontier: Vec<u32> = Vec::new();
            let mut next: Vec<u32> = Vec::new();
            for &start in &starts {
                frontier.clear();
                frontier.push(start);
                let mut dead = false;
                for map in maps {
                    next.clear();
                    for &v in &frontier {
                        for &exit in map.exits_of(v) {
                            if marks.insert(exit) {
                                next.push(exit);
                            }
                        }
                    }
                    marks.remove_all(&next);
                    std::mem::swap(&mut frontier, &mut next);
                    if frontier.is_empty() {
                        dead = true;
                        break;
                    }
                }
                if dead {
                    continue;
                }
                match q.close_col {
                    None => {
                        for chunk in &groups.chunks {
                            if let Some(closes) = chunk.by_start.get(&start) {
                                for (_, rows) in closes {
                                    out.extend_from_slice(rows);
                                }
                            }
                        }
                    }
                    Some(_) => {
                        for &v in &frontier {
                            marks.insert(v);
                        }
                        for chunk in &groups.chunks {
                            if let Some(closes) = chunk.by_start.get(&start) {
                                for (close, rows) in closes {
                                    if marks.contains(*close) {
                                        out.extend_from_slice(rows);
                                    }
                                }
                            }
                        }
                        marks.remove_all(&frontier);
                    }
                }
            }
        });
        out
    }

    /// `COUNT(DISTINCT lid)` over the explained rows.
    fn support_grouped(&self, q: &ChainQuery, maps: &[Arc<StepMap>]) -> usize {
        let rows = self.explained_grouped_unsorted(q, maps);
        self.distinct_lids(q, &rows)
    }

    /// Distinct log-id count over a set of explained rows (interning is
    /// exact, so distinct ids are exactly distinct values).
    fn distinct_lids(&self, q: &ChainQuery, rows: &[RowId]) -> usize {
        let log = self.snapshot.table(q.log);
        let lid_col = &log.cols[q.lid_col];
        let mut lids = std::collections::HashSet::with_capacity(rows.len());
        for &r in rows {
            lids.insert(lid_col[r as usize]);
        }
        lids.len()
    }

    // ----------------------------------------------- anchor-dependent path

    /// Per-row evaluation of an anchor-dependent decorated query on the
    /// interned snapshot — identical results to the row evaluator's
    /// fallback, but probing shared CSR row maps instead of per-call hash
    /// indexes, with bitset frontiers instead of `HashSet<Value>`s.
    /// Returns rows in ascending order (the scan order).
    fn explained_anchor_dep(&self, q: &ChainQuery, rowmaps: &[RowMapChunks]) -> Vec<RowId> {
        let log = self.snapshot.table(q.log);
        let step_tables: Vec<&InternedTable> = q
            .steps
            .iter()
            .map(|s| self.snapshot.table(s.table))
            .collect();
        let mut out = Vec::new();
        with_scratch_marks(self.snapshot.interner.len(), |marks| {
            let mut frontier: Vec<u32> = Vec::new();
            let mut next: Vec<u32> = Vec::new();
            for r in 0..log.n_rows {
                let start = log.cols[q.start_col][r];
                if !self.anchor_passes(q, log, r) || start == NULL_ID {
                    continue;
                }
                frontier.clear();
                frontier.push(start);
                let explained = self.ad_walk(
                    q,
                    rowmaps,
                    &step_tables,
                    log,
                    r,
                    0,
                    &mut frontier,
                    &mut next,
                    marks,
                );
                if explained {
                    out.push(r as RowId);
                }
            }
        });
        out
    }
}

std::thread_local! {
    /// Per-thread scratch bitset for chain walks. Every evaluation leaves
    /// it fully cleared (incremental `remove_all`), so reusing it across
    /// queries avoids re-zeroing `O(id-space)` words per candidate.
    static SCRATCH_MARKS: std::cell::RefCell<BitMarks> =
        const { std::cell::RefCell::new(BitMarks { words: Vec::new() }) };
}

/// Runs `f` with the thread's scratch bitset, grown to cover `n_ids`.
///
/// If `f` panics mid-walk the bitset is torn (bits left set), which would
/// silently corrupt the *next* query on this thread once the panic is
/// caught (a long-running service catches panics per request). The guard
/// re-zeroes the whole bitset on unwind — the `O(id-space)` cost is paid
/// only on the panic path.
fn with_scratch_marks<R>(n_ids: usize, f: impl FnOnce(&mut BitMarks) -> R) -> R {
    SCRATCH_MARKS.with(|cell| {
        let mut marks = cell.borrow_mut();
        marks.reserve_ids(n_ids);
        struct ClearOnUnwind<'a>(&'a mut BitMarks);
        impl Drop for ClearOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.words.fill(0);
                }
            }
        }
        let guard = ClearOnUnwind(&mut marks);
        f(guard.0)
    })
}

/// The value frontiers of [`Engine::delta_candidates`]: each hop maps a
/// deduplicated value set across one chain step, counting the rows it
/// touches against the walk's cap.
struct DeltaWalk<'a> {
    engine: &'a Engine,
    marks: &'a mut BitMarks,
    touched: usize,
    cap: usize,
}

impl DeltaWalk<'_> {
    /// Counts one touched row; `None` past the cap.
    fn touch(&mut self) -> Option<()> {
        self.touched += 1;
        (self.touched <= self.cap).then_some(())
    }

    /// Whether row `r` of `step`'s table can be a chain link at all:
    /// non-NULL enter and exit, and every constant filter passes.
    fn joins(&self, step: &ChainStep, table: &InternedTable, r: usize) -> bool {
        let interner = &self.engine.snapshot.interner;
        table.cols[step.enter_col][r] != NULL_ID
            && table.cols[step.exit_col][r] != NULL_ID
            && step.filters.iter().all(|f| match f.rhs {
                Rhs::Const(c) => f.op.eval(&interner.value(table.cols[f.col][r]), &c),
                Rhs::AnchorCol(_) => true,
            })
    }

    /// The distinct `(enter, exit)` links of `step`'s joinable rows past
    /// `old`, sorted.
    fn appended(&self, step: &ChainStep, old: usize) -> Vec<(u32, u32)> {
        let table = self.engine.snapshot.table(step.table);
        let mut links: Vec<(u32, u32)> = (old..table.n_rows)
            .filter(|&r| self.joins(step, table, r))
            .map(|r| (table.cols[step.enter_col][r], table.cols[step.exit_col][r]))
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// The distinct `to` values of `step`'s joinable rows whose `from`
    /// value is in `frontier`; `None` past the cap.
    fn hop(
        &mut self,
        step: &ChainStep,
        from: ColId,
        to: ColId,
        frontier: &[u32],
    ) -> Option<Vec<u32>> {
        let table = self.engine.snapshot.table(step.table);
        let map = self.engine.rowmap_for(step.table, from);
        let mut next = Vec::new();
        for &v in frontier {
            for r in map.rows_of(v) {
                if self.touch().is_none() {
                    self.marks.remove_all(&next);
                    return None;
                }
                let r = r as usize;
                if self.joins(step, table, r) && self.marks.insert(table.cols[to][r]) {
                    next.push(table.cols[to][r]);
                }
            }
        }
        self.marks.remove_all(&next);
        Some(next)
    }
}

/// The distinct values of `vals`, sorted.
fn distinct(vals: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut v: Vec<u32> = vals.collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// A reusable bitset over the dense id space, cleared incrementally so a
/// long mining run never pays `O(id-space)` per frontier step (nor, via
/// [`SCRATCH_MARKS`], an `O(id-space)` re-zeroing per candidate query).
struct BitMarks {
    words: Vec<u64>,
}

impl BitMarks {
    /// Grows (zero-filled) to cover `n_ids`; never shrinks.
    fn reserve_ids(&mut self, n_ids: usize) {
        let need = n_ids.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    /// Sets the bit; returns true when it was previously clear.
    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        let bit = 1u64 << b;
        let was_clear = self.words[w] & bit == 0;
        self.words[w] |= bit;
        was_clear
    }

    #[inline]
    fn contains(&self, id: u32) -> bool {
        let (w, b) = (id as usize / 64, id as usize % 64);
        self.words[w] & (1u64 << b) != 0
    }

    /// Clears exactly the given ids.
    #[inline]
    fn remove_all(&mut self, ids: &[u32]) {
        for &id in ids {
            let (w, b) = (id as usize / 64, id as usize % 64);
            self.words[w] &= !(1u64 << b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainStep, CmpOp, Rhs, StepFilter};
    use crate::database::TableId;
    use crate::types::DataType;
    use crate::value::Value;

    /// Figure 3's database (same shape as the chain evaluator's tests).
    fn figure3_db() -> (Database, TableId, TableId, TableId) {
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("Date", DataType::Date),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            )
            .unwrap();
        let appt = db
            .create_table(
                "Appointments",
                &[
                    ("Patient", DataType::Int),
                    ("Date", DataType::Date),
                    ("Doctor", DataType::Int),
                ],
            )
            .unwrap();
        let info = db
            .create_table(
                "Doctor_Info",
                &[("Doctor", DataType::Int), ("Department", DataType::Str)],
            )
            .unwrap();
        let ped = db.str_value("Pediatrics");
        db.insert(appt, vec![Value::Int(10), Value::Date(1), Value::Int(1)])
            .unwrap();
        db.insert(appt, vec![Value::Int(11), Value::Date(2), Value::Int(2)])
            .unwrap();
        db.insert(info, vec![Value::Int(2), ped]).unwrap();
        db.insert(info, vec![Value::Int(1), ped]).unwrap();
        db.insert(
            log,
            vec![Value::Int(1), Value::Date(1), Value::Int(1), Value::Int(10)],
        )
        .unwrap();
        db.insert(
            log,
            vec![Value::Int(2), Value::Date(2), Value::Int(1), Value::Int(11)],
        )
        .unwrap();
        (db, log, appt, info)
    }

    fn template_a(log: TableId, appt: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![ChainStep::new(appt, 0, 2)],
            close_col: Some(2),
            anchor_filters: vec![],
        }
    }

    fn template_b(log: TableId, appt: TableId, info: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![
                ChainStep::new(appt, 0, 2),
                ChainStep::new(info, 0, 1),
                ChainStep::new(info, 1, 0),
            ],
            close_col: Some(2),
            anchor_filters: vec![],
        }
    }

    #[test]
    fn matches_row_evaluator_on_figure3() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        for q in [template_a(log, appt), template_b(log, appt, info)] {
            assert_eq!(
                engine.explained_rows(&db, &q, opts).unwrap(),
                q.explained_rows(&db, opts).unwrap()
            );
            assert_eq!(
                engine.support(&db, &q, opts).unwrap(),
                q.support(&db, opts).unwrap()
            );
        }
    }

    #[test]
    fn eval_suite_range_partitions_by_anchor_row() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let mut decorated = template_a(log, appt);
        decorated.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
        });
        let queries = vec![
            template_a(log, appt),
            template_b(log, appt, info),
            decorated,
        ];
        let full: Vec<RowSet> = engine
            .eval_suite(&db, &queries, opts)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let n = db.table(log).len();
        // The whole range is the whole answer...
        let whole: Vec<RowSet> = engine
            .eval_suite_range(&db, &queries, opts, 0, n)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(whole, full);
        // ...and any split's union reassembles it, because each anchor
        // row is evaluated independently of every other log row. An
        // out-of-bounds hi is clamped, never a panic.
        for k in 0..=n {
            let head = engine.eval_suite_range(&db, &queries, opts, 0, k);
            let tail = engine.eval_suite_range(&db, &queries, opts, k, n + 7);
            for ((h, t), f) in head.into_iter().zip(tail).zip(&full) {
                let mut acc = h.unwrap();
                acc.union_with(&t.unwrap());
                assert_eq!(&acc, f);
            }
        }
    }

    #[test]
    fn open_and_filtered_queries_match() {
        let (db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let open = ChainQuery {
            close_col: None,
            ..template_a(log, appt)
        };
        assert_eq!(
            engine.explained_rows(&db, &open, opts).unwrap(),
            open.explained_rows(&db, opts).unwrap()
        );
        let mut filtered = template_a(log, appt);
        filtered.anchor_filters = vec![(1, CmpOp::Ge, Value::Date(2))];
        assert_eq!(
            engine.explained_rows(&db, &filtered, opts).unwrap(),
            filtered.explained_rows(&db, opts).unwrap()
        );
    }

    #[test]
    fn anchor_dependent_queries_take_the_row_map_path() {
        let (db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let mut q = template_a(log, appt);
        q.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
        });
        assert!(q.is_anchor_dependent());
        let opts = EvalOptions::default();
        assert_eq!(
            engine.explained_rows(&db, &q, opts).unwrap(),
            q.explained_rows(&db, opts).unwrap()
        );
        assert_eq!(
            engine.support(&db, &q, opts).unwrap(),
            q.support(&db, opts).unwrap()
        );
        // The per-row path populates the row-map cache, never the step-map
        // cache (its identity would be wrong for anchor decorations).
        assert_eq!(engine.cached_step_maps(), 0);
        assert_eq!(engine.cached_row_maps(), 1);
        // The undecorated variant shares nothing with it.
        let plain = template_a(log, appt);
        let _ = engine.explained_rows(&db, &plain, opts).unwrap();
        assert_eq!(engine.cached_step_maps(), 1);
        assert_eq!(engine.cached_row_maps(), 1);
    }

    #[test]
    fn step_maps_are_shared_across_queries() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let queries = vec![
            template_a(log, appt),
            template_b(log, appt, info),
            ChainQuery {
                close_col: None,
                ..template_a(log, appt)
            },
        ];
        let supports = engine.support_many(&db, &queries, opts);
        // A and B share the Appointments step: 1 + 2 extra for B, 0 new for
        // the open variant = 3 distinct maps.
        assert_eq!(engine.cached_step_maps(), 3);
        let expect: Vec<usize> = queries
            .iter()
            .map(|q| q.support(&db, opts).unwrap())
            .collect();
        let got: Vec<usize> = supports.into_iter().map(|s| s.unwrap()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn support_many_reports_invalid_queries_in_place() {
        let (db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let good = template_a(log, appt);
        let bad = ChainQuery {
            start_col: 9,
            ..template_a(log, appt)
        };
        let results = engine.support_many(&db, &[bad, good.clone()], EvalOptions::default());
        assert!(results[0].is_err());
        assert_eq!(*results[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn explained_rows_many_matches_one_by_one() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let queries = vec![
            template_a(log, appt),
            template_b(log, appt, info),
            ChainQuery {
                close_col: None,
                ..template_a(log, appt)
            },
            ChainQuery {
                start_col: 9, // invalid
                ..template_a(log, appt)
            },
        ];
        let batch = engine.explained_rows_many(&db, &queries, opts);
        for (q, got) in queries.iter().take(3).zip(&batch) {
            assert_eq!(got.as_ref().unwrap(), &q.explained_rows(&db, opts).unwrap());
        }
        assert!(batch[3].is_err());
    }

    #[test]
    fn refresh_tracks_appends_and_invalidates_selectively() {
        let (mut db, log, appt, info) = figure3_db();
        let mut engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let qa = template_a(log, appt);
        let qb = template_b(log, appt, info);
        // Warm the caches: A and B share the Appointments map; B adds two
        // Doctor_Info maps. One log partition (shared anchor shape).
        let _ = engine.support_many(&db, &[qa.clone(), qb.clone()], opts);
        assert_eq!(engine.cached_step_maps(), 3);
        assert_eq!(engine.cached_partitions(), 1);

        // Append an appointment: patient 11 now also sees doctor 1.
        db.insert(appt, vec![Value::Int(11), Value::Date(3), Value::Int(1)])
            .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.delta.grown, vec![appt]);
        assert_eq!(stats.delta.new_rows, 1);
        // Only the Appointments map is dropped; Doctor_Info maps and the
        // log partition stay warm.
        assert_eq!(stats.dropped_step_maps, 1);
        assert_eq!(stats.stale_partitions, 0);
        assert_eq!(engine.cached_step_maps(), 2);
        assert_eq!(engine.cached_partitions(), 1);
        for q in [&qa, &qb] {
            assert_eq!(
                engine.explained_rows(&db, q, opts).unwrap(),
                q.explained_rows(&db, opts).unwrap()
            );
        }

        // Append a log row: the partition goes stale (kept, extended
        // over just the new row on next use); the step maps stay.
        db.insert(
            log,
            vec![Value::Int(3), Value::Date(3), Value::Int(2), Value::Int(10)],
        )
        .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.delta.grown, vec![log]);
        assert_eq!(stats.stale_partitions, 1);
        assert_eq!(stats.dropped_step_maps, 0);
        assert_eq!(
            engine.cached_partitions(),
            1,
            "the stale partition is kept, not dropped"
        );
        for q in [&qa, &qb] {
            assert_eq!(
                engine.explained_rows(&db, q, opts).unwrap(),
                q.explained_rows(&db, opts).unwrap()
            );
            assert_eq!(
                engine.support(&db, q, opts).unwrap(),
                q.support(&db, opts).unwrap()
            );
        }

        // Nothing appended: a refresh is a cheap no-op.
        let stats = engine.refresh(&db).unwrap();
        assert!(stats.delta.is_empty());
        assert_eq!(engine.cached_step_maps(), 3);
    }

    #[test]
    fn refresh_picks_up_tables_created_after_construction() {
        let (mut db, log, appt, _) = figure3_db();
        let mut engine = Engine::new(&db);
        let extra = db
            .create_table(
                "Extra",
                &[("Patient", DataType::Int), ("Owner", DataType::Int)],
            )
            .unwrap();
        db.insert(extra, vec![Value::Int(11), Value::Int(1)])
            .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.delta.grown, vec![extra]);
        let q = ChainQuery {
            steps: vec![ChainStep::new(extra, 0, 1)],
            ..template_a(log, appt)
        };
        assert_eq!(
            engine
                .explained_rows(&db, &q, EvalOptions::default())
                .unwrap(),
            q.explained_rows(&db, EvalOptions::default()).unwrap()
        );
    }

    #[test]
    fn stale_step_maps_tolerate_ids_interned_after_refresh() {
        let (mut db, log, appt, info) = figure3_db();
        let mut engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let qb = template_b(log, appt, info);
        let _ = engine.explained_rows(&db, &qb, opts).unwrap();
        // Appending a log row with brand-new values grows the id space;
        // the retained Appointments/Doctor_Info maps must treat those new
        // ids as "no exits" rather than indexing out of bounds.
        db.insert(
            log,
            vec![
                Value::Int(99),
                Value::Date(9),
                Value::Int(77),
                Value::Int(88),
            ],
        )
        .unwrap();
        let stats = engine.refresh(&db).unwrap();
        assert_eq!(stats.dropped_step_maps, 0);
        assert_eq!(
            engine.explained_rows(&db, &qb, opts).unwrap(),
            qb.explained_rows(&db, opts).unwrap()
        );
    }

    #[test]
    fn poisoned_cache_locks_do_not_kill_subsequent_queries() {
        let (db, log, appt, info) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let q = template_b(log, appt, info);
        let expected = q.explained_rows(&db, opts).unwrap();
        // Poison every internal cache lock the way a panicking query
        // would: panic on another thread while holding the guard.
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _cache = engine.cache.lock().unwrap();
                    let _groups = engine.groups.lock().unwrap();
                    let _rowmaps = engine.rowmaps.lock().unwrap();
                    panic!("simulated mid-query panic");
                })
                .join()
                .unwrap_err();
        });
        assert!(engine.cache.lock().is_err(), "cache lock is poisoned");
        // The engine recovers the guards and keeps answering correctly,
        // including cache misses (inserts into the poisoned maps).
        assert_eq!(engine.explained_rows(&db, &q, opts).unwrap(), expected);
        assert_eq!(
            engine.support(&db, &q, opts).unwrap(),
            q.support(&db, opts).unwrap()
        );
        let mut decorated = template_a(log, appt);
        decorated.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
        });
        assert_eq!(
            engine.explained_rows(&db, &decorated, opts).unwrap(),
            decorated.explained_rows(&db, opts).unwrap()
        );
    }

    #[test]
    fn panicking_evaluation_leaves_the_engine_usable() {
        // An engine snapshotted before a table existed: evaluating a query
        // over the new table against the *stale* snapshot panics (the
        // misuse the docs warn about). The panic must not corrupt the
        // engine for well-formed queries that follow.
        let (mut db, log, appt, _) = figure3_db();
        let engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let q = template_a(log, appt);
        let expected = q.explained_rows(&db, opts).unwrap();
        let extra = db
            .create_table(
                "Extra",
                &[("Patient", DataType::Int), ("Owner", DataType::Int)],
            )
            .unwrap();
        db.insert(extra, vec![Value::Int(10), Value::Int(1)])
            .unwrap();
        let stale = ChainQuery {
            steps: vec![ChainStep::new(extra, 0, 1)],
            ..template_a(log, appt)
        };
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.explained_rows(&db, &stale, opts)
            }));
            assert!(caught.is_err(), "stale-snapshot evaluation panics");
            // Same thread, same scratch state: results stay exact.
            assert_eq!(engine.explained_rows(&db, &q, opts).unwrap(), expected);
            assert_eq!(
                engine.support(&db, &q, opts).unwrap(),
                q.support(&db, opts).unwrap()
            );
        }
        // The batch path recovers too (the panic crosses par_map).
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.support_many(&db, std::slice::from_ref(&stale), opts)
        }));
        assert!(caught.is_err());
        let batch = engine.support_many(&db, std::slice::from_ref(&q), opts);
        assert_eq!(*batch[0].as_ref().unwrap(), q.support(&db, opts).unwrap());
    }

    #[test]
    fn refresh_error_leaves_the_engine_answering() {
        let (db, log, appt, _) = figure3_db();
        let mut engine = Engine::new(&db);
        let opts = EvalOptions::default();
        let q = template_a(log, appt);
        let expected = engine.explained_rows(&db, &q, opts).unwrap();
        // Refreshing against an unrelated, shorter database is refused...
        let (other, ..) = {
            let mut other = Database::new();
            let l = other
                .create_table("OnlyLog", &[("Lid", DataType::Int)])
                .unwrap();
            (other, l)
        };
        let err = engine.refresh(&other).unwrap_err();
        assert!(matches!(err, RefreshError::CatalogShrank { .. }));
        // ...and the engine still answers from its intact snapshot.
        assert_eq!(engine.explained_rows(&db, &q, opts).unwrap(), expected);
    }

    #[test]
    fn dedup_toggle_changes_maps_not_results() {
        let (mut db, log, appt, info) = figure3_db();
        db.insert(appt, vec![Value::Int(10), Value::Date(5), Value::Int(1)])
            .unwrap();
        let engine = Engine::new(&db);
        let q = template_b(log, appt, info);
        let with = engine
            .support(&db, &q, EvalOptions { dedup: true })
            .unwrap();
        let without = engine
            .support(&db, &q, EvalOptions { dedup: false })
            .unwrap();
        assert_eq!(with, without);
        // Both dedup settings cached their own maps.
        assert_eq!(engine.cached_step_maps(), 6);
    }

    // ------------------------------------------- delta-anchored re-ask

    /// `q`'s candidates after `db` grew past `base`'s snapshot (no cap).
    fn candidates(base: &Engine, db: &Database, q: &ChainQuery) -> Vec<RowId> {
        let mut next = base.fork();
        let grown = next.refresh(db).unwrap().delta.grown;
        next.delta_candidates(base.snapshot(), q, &grown, usize::MAX)
            .expect("uncapped")
    }

    /// [`Engine::reask_grown`] for `queries` over an explicit residue.
    fn reask(base: &Engine, db: &Database, queries: &[ChainQuery], residue: &RowSet) -> RowSet {
        let mut next = base.fork();
        let grown = next.refresh(db).unwrap().delta.grown;
        let pin = SuitePin {
            log: queries[0].log,
            anchor_filters: vec![],
            queries: queries.to_vec(),
            opts: EvalOptions::default(),
        };
        let view = Residue {
            rows: residue,
            to_global: &|r| r,
            local: &|| residue.clone(),
        };
        next.reask_grown(db, base.snapshot(), &grown, &pin, &view)
    }

    /// The retired re-ask: every template reaching a grown table, over
    /// the whole residue.
    fn full_reask(
        base: &Engine,
        db: &Database,
        queries: &[ChainQuery],
        residue: &RowSet,
    ) -> RowSet {
        let mut next = base.fork();
        let grown = next.refresh(db).unwrap().delta.grown;
        let reach: Vec<ChainQuery> = queries
            .iter()
            .filter(|q| q.steps.iter().any(|s| grown.contains(&s.table)))
            .cloned()
            .collect();
        RowSet::union_all(
            next.eval_suite_rows(db, &reach, EvalOptions::default(), residue)
                .into_iter()
                .map(|r| r.unwrap()),
        )
    }

    #[test]
    fn null_join_values_never_become_candidates() {
        let (mut db, log, appt, _) = figure3_db();
        let base = Engine::new(&db);
        let q = template_a(log, appt);
        db.insert(appt, vec![Value::Int(11), Value::Date(3), Value::Null])
            .unwrap();
        db.insert(appt, vec![Value::Null, Value::Date(3), Value::Int(1)])
            .unwrap();
        assert!(candidates(&base, &db, &q).is_empty());
        // The same link without NULLs reaches patient 11's access.
        db.insert(appt, vec![Value::Int(11), Value::Date(3), Value::Int(1)])
            .unwrap();
        assert_eq!(candidates(&base, &db, &q), vec![1]);
    }

    #[test]
    fn constant_filters_prune_the_walk() {
        let (mut db, log, appt, info) = figure3_db();
        let base = Engine::new(&db);
        let on_day_9 = StepFilter {
            col: 1,
            op: CmpOp::Eq,
            rhs: Rhs::Const(Value::Date(9)),
        };
        // On the grown step itself: the appended row fails the filter.
        let mut direct = template_a(log, appt);
        direct.steps[0].filters.push(on_day_9);
        let mut grown_db = db.clone();
        grown_db
            .insert(appt, vec![Value::Int(11), Value::Date(3), Value::Int(1)])
            .unwrap();
        assert!(candidates(&base, &grown_db, &direct).is_empty());
        assert_eq!(
            candidates(&base, &grown_db, &template_a(log, appt)),
            vec![1]
        );
        // On an earlier step: doctor 1 joins a second department, which
        // reaches patient 10's access back through the appointment —
        // unless the hop through Appointments wants a row dated 9.
        let mut via = template_b(log, appt, info);
        via.steps[0].filters.push(on_day_9);
        let surgery = db.str_value("Surgery");
        db.insert(info, vec![Value::Int(1), surgery]).unwrap();
        assert!(candidates(&base, &db, &via).is_empty());
        assert_eq!(
            candidates(&base, &db, &template_b(log, appt, info)),
            vec![0]
        );
    }

    #[test]
    fn anchor_dependent_filters_over_approximate_then_recheck() {
        let (db, log, appt, _) = figure3_db();
        let base = Engine::new(&db);
        // Appointment no later than the access (log row 1 is dated 2).
        let mut q = template_a(log, appt);
        q.steps[0].filters.push(StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: Rhs::AnchorCol(1),
        });
        let residue = RowSet::from_sorted_vec(&[1]);
        for (day, explains) in [(7, false), (2, true)] {
            let mut db = db.clone();
            db.insert(appt, vec![Value::Int(11), Value::Date(day), Value::Int(1)])
                .unwrap();
            // The walk cannot see the anchor's date: row 1 is a candidate
            // either way...
            assert_eq!(candidates(&base, &db, &q), vec![1]);
            // ...and the forward re-check decides.
            let got = reask(&base, &db, std::slice::from_ref(&q), &residue);
            assert_eq!(got.contains(1), explains, "appointment on day {day}");
            assert_eq!(
                got,
                full_reask(&base, &db, std::slice::from_ref(&q), &residue)
            );
        }
    }

    /// A log of `n` patients (`1000 + p`) with three accesses each, on
    /// dates 10..=12 by three distinct users (`100 + (p + k) % 5`), and
    /// the repeat-access template over it.
    fn clinic(n: i64) -> (Database, TableId, TableId, ChainQuery) {
        let (mut db, log, appt, _) = figure3_db();
        let mut lid = 100;
        for p in 0..n {
            for k in 0..3 {
                lid += 1;
                db.insert(
                    log,
                    vec![
                        Value::Int(lid),
                        Value::Date(10 + k),
                        Value::Int(100 + (p + k) % 5),
                        Value::Int(1000 + p),
                    ],
                )
                .unwrap();
            }
        }
        let mut step = ChainStep::new(log, 3, 2);
        step.filters.push(StepFilter {
            col: 1,
            op: CmpOp::Lt,
            rhs: Rhs::AnchorCol(1),
        });
        let repeat = ChainQuery {
            log,
            lid_col: 0,
            start_col: 3,
            steps: vec![step],
            close_col: Some(2),
            anchor_filters: vec![],
        };
        (db, log, appt, repeat)
    }

    /// Appends one earlier access (date 5) per `(patient, user)`.
    fn earlier_accesses(db: &mut Database, log: TableId, pairs: &[(i64, i64)]) {
        for (i, &(p, u)) in pairs.iter().enumerate() {
            let row = vec![
                Value::Int(9000 + i as i64),
                Value::Date(5),
                Value::Int(u),
                Value::Int(p),
            ];
            db.insert(log, row).unwrap();
        }
    }

    #[test]
    fn candidates_come_only_from_the_batch_patients() {
        let (mut db, log, _, repeat) = clinic(40);
        let base = Engine::new(&db);
        let pairs = [(1002, 103), (1005, 101), (1007, 102), (1005, 103)];
        earlier_accesses(&mut db, log, &pairs);
        let got = candidates(&base, &db, &repeat);
        // Drawn only from the 3 batch patients' rows (of 40 patients)...
        let table = db.table(log);
        let patient = |r: RowId| table.row(r)[3];
        assert!(got
            .iter()
            .all(|&r| pairs.iter().any(|&(p, _)| patient(r) == Value::Int(p))));
        // ...and, the template having one step, exactly the rows (old and
        // appended) of the batch's `(patient, user)` pairs: the 3 old
        // accesses those users made to those patients, plus the 4 new.
        let expected: Vec<RowId> = (0..table.len() as RowId)
            .filter(|&r| {
                let row = table.row(r);
                pairs
                    .iter()
                    .any(|&(p, u)| row[3] == Value::Int(p) && row[2] == Value::Int(u))
            })
            .collect();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 7);
    }

    #[test]
    fn past_the_cap_the_fallback_reasks_the_whole_residue() {
        let (mut db, log, appt, repeat) = clinic(40);
        let base = Engine::new(&db);
        let queries = vec![repeat.clone(), template_a(log, appt)];
        let explained = RowSet::union_all(
            base.eval_suite(&db, &queries, EvalOptions::default())
                .into_iter()
                .map(|r| r.unwrap()),
        );
        let all = RowSet::from_sorted_vec(&(0..db.table(log).len() as u32).collect::<Vec<_>>());
        let residue = all.difference(&explained);
        earlier_accesses(&mut db, log, &[(1002, 103), (1005, 101), (1005, 103)]);
        db.insert(
            appt,
            vec![Value::Int(1009), Value::Date(1), Value::Int(100)],
        )
        .unwrap();
        // Under the cap: the walk, byte-identical to the full re-ask, and
        // it does newly explain old rows.
        let walked = reask(&base, &db, &queries, &residue);
        assert_eq!(
            walked.to_vec(),
            full_reask(&base, &db, &queries, &residue).to_vec()
        );
        assert!(walked.len() >= 3);
        // A one-row residue caps the walk at one touched row: both
        // templates fall back, still byte-identical.
        let one = RowSet::from_sorted_vec(&[walked.iter().next().unwrap()]);
        let mut next = base.fork();
        let grown = next.refresh(&db).unwrap().delta.grown;
        assert!(next
            .delta_candidates(base.snapshot(), &repeat, &grown, 1)
            .is_none());
        let fell_back = reask(&base, &db, &queries, &one);
        assert_eq!(
            fell_back.to_vec(),
            full_reask(&base, &db, &queries, &one).to_vec()
        );
        assert_eq!(fell_back, one);
    }
}
