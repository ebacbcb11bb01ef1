//! Sharded scatter-gather engine: the log hash-partitioned into N shards,
//! each with its own segmented storage and warm [`Engine`], published
//! together as one atomically-swapped epoch *vector*. This is the only
//! publication cell; one shard is the unsharded deployment, bit for bit
//! the single engine.
//!
//! # Why sharding works here
//!
//! Explanation-based auditing is embarrassingly parallel at access-log
//! granularity: explained/unexplained row sets, misuse metrics, and
//! timeline day buckets all merge associatively. A [`ShardedEngine`]
//! splits the log by a hash of the partition column (conventionally the
//! patient — exactly the attribute the paper's per-patient explanations
//! group by), runs per-shard incremental refresh, and answers suite
//! questions by [`par_map`] across shards plus an associative merge.
//!
//! # What is partitioned and what is replicated
//!
//! Only the log table is partitioned. Every shard database is a clone of
//! the same base, so dimension tables and the string pool share their
//! sealed segments via `Arc` *across shards* as well as across epochs —
//! and, critically, [`Symbol`](crate::pool::Symbol)s are identical in
//! every shard, which is what makes cross-shard `Value` comparison (and
//! the associative merges) sound. All interning during ingest goes
//! through [`ShardedBatch::str_value`], which interns into every shard
//! and asserts the symbols stayed aligned.
//!
//! # Global row ids
//!
//! Readers and the audit layer keep speaking *global* log row ids — the
//! ids the unsharded oracle would assign (insertion order across the
//! whole log). Each shard carries a `local → global` map in a
//! [`SegVec`], so publishing a shard epoch stays `O(batch)`: the map's
//! sealed segments are `Arc`-shared like every other column.
//!
//! # Publication
//!
//! [`ShardedEngine::ingest_with`] publishes by epoch handoff (see the
//! [`engine`](super) module docs): private clones, per-shard fork +
//! incremental refresh with a full-rebuild fallback, a persist hook that
//! runs *before* anything is published (published ⊆ durable), and a
//! single pointer swap publishing the whole [`EpochVec`] under one
//! sequence number. Readers pin the
//! vector, so every epoch-pinned byte-stability guarantee carries over
//! unchanged.

use super::parallel::par_map;
use super::shared::{Epoch, Maintained, SuitePin};
use super::{Engine, RefreshError, RefreshStats, Residue};
use crate::chain::{ChainQuery, EvalOptions};
use crate::database::{Database, TableId};
use crate::error::Result;
use crate::pool::StringPool;
use crate::rowset::RowSet;
use crate::segment::SegVec;
use crate::sync::unpoison;
use crate::table::RowId;
use crate::types::{ColId, DataType};
use crate::value::Value;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, RwLock};

/// The log partitioning key: which table is sharded, and the column whose
/// hash routes a row to its shard (conventionally `Log.Patient`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardKey {
    /// The partitioned (log) table. Every other table is replicated.
    pub table: TableId,
    /// The routing column within that table.
    pub col: ColId,
}

/// Deterministic shard routing: FNV-1a over the value's tag and payload
/// (strings hash their text, not their pool-relative symbol, so routing
/// is stable across pools and restarts). `Null` routes to shard 0.
pub fn shard_of(v: &Value, pool: &StringPool, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    match v {
        Value::Null => return 0,
        Value::Int(i) => {
            eat(&[1]);
            eat(&i.to_le_bytes());
        }
        Value::Str(sym) => {
            eat(&[2]);
            eat(pool.resolve(*sym).as_bytes());
        }
        Value::Date(m) => {
            eat(&[3]);
            eat(&m.to_le_bytes());
        }
    }
    (h % n_shards as u64) as usize
}

/// One shard of a published [`EpochVec`]: the shard's epoch (database +
/// warm engine frozen at the vector's seq) plus its `local → global` row
/// id map.
#[derive(Debug, Clone)]
pub struct ShardEpoch {
    epoch: Arc<Epoch>,
    to_global: SegVec<RowId>,
}

impl ShardEpoch {
    /// The shard's epoch — pass its `db`/`engine` pair to any audit-layer
    /// `*_with` function.
    pub fn epoch(&self) -> &Arc<Epoch> {
        &self.epoch
    }

    /// The shard's database state.
    pub fn db(&self) -> &Database {
        self.epoch.db()
    }

    /// The warm engine over this shard's database.
    pub fn engine(&self) -> &Engine {
        self.epoch.engine()
    }

    /// Local log rows in this shard.
    pub fn log_len(&self) -> usize {
        self.to_global.len()
    }

    /// Maps a shard-local log row id to the global (oracle-order) id.
    ///
    /// # Panics
    /// Panics when `local` is not a log row of this shard.
    pub fn to_global(&self, local: RowId) -> RowId {
        *self.to_global.get(local as usize)
    }

    /// Binary-searches for a global id in this shard's (sorted) map.
    fn find_global(&self, global: RowId) -> Option<RowId> {
        let n = self.to_global.len();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match (*self.to_global.get(mid)).cmp(&global) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as RowId),
            }
        }
        None
    }
}

/// The atomically-published vector of shard epochs, all frozen at one
/// sequence number. Readers pin the whole vector ([`ShardedEngine::load`])
/// and every scatter-gather answer below is computed against it, so a
/// pinned session sees one consistent state of the world across all
/// shards — exactly the single-epoch guarantee, vector-shaped.
#[derive(Debug)]
pub struct EpochVec {
    shards: Box<[ShardEpoch]>,
    key: ShardKey,
    seq: u64,
    global_log_len: usize,
    /// Maintained materializations in **global** row ids, one per pinned
    /// suite in registration order ([`ShardedEngine::pin_suite`]).
    maintained: Vec<Arc<Maintained>>,
}

impl EpochVec {
    /// Publication sequence number (0 initial, +1 per ingest), shared by
    /// every shard in the vector.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard epochs, in shard order.
    pub fn shards(&self) -> &[ShardEpoch] {
        &self.shards
    }

    /// The partitioning key.
    pub fn key(&self) -> ShardKey {
        self.key
    }

    /// Total log rows across all shards (the global log length).
    pub fn global_log_len(&self) -> usize {
        self.global_log_len
    }

    /// The maintained materialization of pin `pin` (the id returned by
    /// [`ShardedEngine::pin_suite`]) in **global** row ids, if this
    /// vector carries one. Vectors published before the pin was
    /// registered lack the entry — readers fall back to cold evaluation.
    pub fn maintained(&self, pin: usize) -> Option<&Arc<Maintained>> {
        self.maintained.get(pin)
    }

    /// Which shard a routing value lands in.
    pub fn shard_of_value(&self, v: &Value) -> usize {
        shard_of(v, self.shards[0].db().pool(), self.shards.len())
    }

    /// Locates a global log row id: `(shard, local id)`.
    pub fn locate(&self, global: RowId) -> Option<(usize, RowId)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(s, shard)| shard.find_global(global).map(|local| (s, local)))
    }

    /// Applies `f` to every shard in parallel, preserving shard order.
    pub fn par_map_shards<R: Send>(&self, f: impl Fn(usize, &ShardEpoch) -> R + Sync) -> Vec<R> {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        par_map(&idx, |&s| f(s, &self.shards[s]))
    }

    /// Global log row ids explained by `q` — scatter across shards,
    /// gather sorted. Byte-identical to the unsharded oracle's
    /// [`Engine::explained_rows`].
    pub fn explained_rows(&self, q: &ChainQuery, opts: EvalOptions) -> Result<Vec<RowId>> {
        let per_shard = self.par_map_shards(|_, shard| {
            shard
                .engine()
                .explained_rows(shard.db(), q, opts)
                .map(|rows| {
                    rows.into_iter()
                        .map(|r| shard.to_global(r))
                        .collect::<Vec<RowId>>()
                })
        });
        let mut out = Vec::new();
        for rows in per_shard {
            out.extend(rows?);
        }
        // Per-shard lists are already sorted (local order is a
        // subsequence of global order); one sort merges them.
        out.sort_unstable();
        Ok(out)
    }

    /// Support of `q` (distinct explained log ids). Lid values can repeat
    /// across shards, so supports do not sum: the distinct lid *value*
    /// sets are gathered and unioned — sound because symbols align across
    /// shard pools.
    pub fn support(&self, q: &ChainQuery, opts: EvalOptions) -> Result<usize> {
        let per_shard = self.par_map_shards(|_, shard| -> Result<HashSet<Value>> {
            let rows = shard.engine().explained_rows(shard.db(), q, opts)?;
            let log = shard.db().table(q.log);
            Ok(rows.into_iter().map(|r| log.cell(r, q.lid_col)).collect())
        });
        let mut lids = HashSet::new();
        for set in per_shard {
            lids.extend(set?);
        }
        Ok(lids.len())
    }

    /// Fused suite evaluation across every shard: each shard runs
    /// [`Engine::eval_suite`] (one partition walk / log scan for the
    /// whole suite) and returns its explained rows as **global-id**
    /// [`RowSet`]s; the per-shard bitmaps then fold together with the
    /// associative union — the shard payload needs no re-sort and no
    /// coordinator-side hash set, which is exactly the shape a
    /// multi-node scatter-gather would put on the wire.
    pub fn eval_suite(&self, queries: &[ChainQuery], opts: EvalOptions) -> Vec<Result<RowSet>> {
        let per_shard: Vec<Vec<Result<RowSet>>> = self.par_map_shards(|_, shard| {
            shard
                .engine()
                .eval_suite(shard.db(), queries, opts)
                .into_iter()
                .map(|set| {
                    set.map(|s| {
                        // Local ascending order is a subsequence of global
                        // order, so the mapped ids are already sorted.
                        let global: Vec<RowId> = s.iter().map(|r| shard.to_global(r)).collect();
                        RowSet::from_sorted_vec(&global)
                    })
                })
                .collect()
        });
        let mut columns: Vec<std::vec::IntoIter<Result<RowSet>>> =
            per_shard.into_iter().map(|v| v.into_iter()).collect();
        (0..queries.len())
            .map(|_| {
                let row: Vec<Result<RowSet>> = columns
                    .iter_mut()
                    .map(|it| it.next().expect("one result per query per shard"))
                    .collect();
                let mut sets = Vec::with_capacity(row.len());
                for set in row {
                    sets.push(set?);
                }
                Ok(RowSet::union_all(sets))
            })
            .collect()
    }

    /// Batch [`EpochVec::explained_rows`]: one globally-sorted row set per
    /// query, in input order. Rides [`EpochVec::eval_suite`]: each shard
    /// evaluates the whole suite fused, and the associatively-merged
    /// global bitmaps read out already sorted.
    pub fn explained_rows_many(
        &self,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Vec<Result<Vec<RowId>>> {
        self.eval_suite(queries, opts)
            .into_iter()
            .map(|set| set.map(|s| s.to_vec()))
            .collect()
    }

    /// Union of the global rows explained by any of `queries` — the audit
    /// layer's suite primitive, scatter-gathered. Fails on the first
    /// invalid query.
    pub fn explained_union(
        &self,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Result<HashSet<RowId>> {
        Ok(self.explained_union_rowset(queries, opts)?.iter().collect())
    }

    /// [`EpochVec::explained_union`] in compressed form: one global
    /// [`RowSet`] folded from the per-shard suite bitmaps.
    pub fn explained_union_rowset(
        &self,
        queries: &[ChainQuery],
        opts: EvalOptions,
    ) -> Result<RowSet> {
        let mut sets = Vec::with_capacity(queries.len());
        for set in self.eval_suite(queries, opts) {
            sets.push(set?);
        }
        Ok(RowSet::union_all(sets))
    }
}

/// Maps a shard-local row set to global ids. Local ascending order is a
/// subsequence of global order, so the mapped ids are already sorted.
fn to_global_set(shard: &ShardEpoch, local: &RowSet) -> RowSet {
    let global: Vec<RowId> = local.iter().map(|r| shard.to_global(r)).collect();
    RowSet::from_sorted_vec(&global)
}

/// Where a maintained advance starts: the previous vector's shards, each
/// shard's refresh report, and the previous global materialization.
type AdvanceFrom<'a> = (&'a [ShardEpoch], &'a [ShardRefresh], &'a Maintained);

/// The global materialization of `pin` over `shards`: each shard computes
/// its local sets in parallel ([`shard_delta`]) and the global-id bitmaps
/// fold with the associative union into `from`'s previous sets — the
/// same scatter-gather shape as [`EpochVec::eval_suite`]. Cold when
/// `from` is `None`.
fn maintain(
    shards: &[ShardEpoch],
    pin: &SuitePin,
    global_log_len: usize,
    from: Option<AdvanceFrom>,
) -> Maintained {
    let idx: Vec<usize> = (0..shards.len()).collect();
    let deltas: Vec<(RowSet, RowSet)> = par_map(&idx, |&s| {
        let advance = from.map(|(base, reports, prev)| {
            (&base[s], reports[s].refresh.delta.grown.as_slice(), prev)
        });
        shard_delta(&shards[s], pin, advance)
    });
    let (mut anchors, mut explained) = match from {
        Some((_, _, prev)) => (prev.anchors.clone(), prev.explained.clone()),
        None => (RowSet::new(), RowSet::new()),
    };
    for (a, e) in deltas {
        anchors.union_with(&a);
        explained.union_with(&e);
    }
    let unexplained = anchors.difference(&explained);
    Maintained {
        anchors,
        explained,
        unexplained,
        log_len: global_log_len,
    }
}

/// One shard's `(anchors, explained)` delta in **global** row ids. Cold
/// (`advance` is `None`): every anchor row and the fused suite over the
/// shard's whole log. Advancing from the shard's previous epoch `base`,
/// whose refresh grew the tables `grown`: an anchor scan of the appended
/// log rows, one [`Engine::eval_suite_range`] over them for every
/// template, and [`Engine::reask_grown`] against the previous global
/// `unexplained` set (see [`Maintained`] for the monotonicity argument).
fn shard_delta(
    shard: &ShardEpoch,
    pin: &SuitePin,
    advance: Option<(&ShardEpoch, &[TableId], &Maintained)>,
) -> (RowSet, RowSet) {
    let engine = shard.engine();
    let db = shard.db();
    let (l0, l1) = (
        advance.map_or(0, |(base, ..)| base.log_len()),
        shard.log_len(),
    );
    let log = engine.snapshot().table(pin.log);
    let fresh: Vec<RowId> = (l0..l1)
        .filter(|&r| engine.anchor_passes_filters(&pin.anchor_filters, log, r))
        .map(|r| r as RowId)
        .collect();
    let suite = match advance {
        None => engine.eval_suite(db, &pin.queries, pin.opts),
        Some(_) if l1 > l0 => engine.eval_suite_range(db, &pin.queries, pin.opts, l0, l1),
        Some(_) => Vec::new(),
    };
    let mut explained = RowSet::union_all(suite.into_iter().flatten());
    if let Some((base, grown, prev)) = advance {
        // Old rows: the global residue seen through this shard's ids. The
        // full re-ask fallback maps the residue back through the sorted
        // global-id index; the candidate walk only maps its own rows.
        let residue = Residue {
            rows: &prev.unexplained,
            to_global: &|r| shard.to_global(r),
            local: &|| {
                let local: Vec<RowId> = prev
                    .unexplained
                    .iter()
                    .filter_map(|g| shard.find_global(g))
                    .collect();
                RowSet::from_sorted_vec(&local)
            },
        };
        let base = base.engine().snapshot();
        explained.union_with(&engine.reask_grown(db, base, grown, pin, &residue));
    }
    (
        to_global_set(shard, &RowSet::from_sorted_vec(&fresh)),
        to_global_set(shard, &explained),
    )
}

/// What one shard's refresh did during a sharded ingest.
#[derive(Debug, Clone)]
pub struct ShardRefresh {
    /// The incremental refresh stats (empty when `rebuilt` is set).
    pub refresh: RefreshStats,
    /// Set when this shard's incremental refresh was refused and the
    /// writer recovered by rebuilding the shard engine from scratch.
    pub rebuilt: Option<RefreshError>,
}

/// What one [`ShardedEngine::ingest_with`] published.
#[derive(Debug, Clone)]
pub struct ShardedIngestReport {
    /// Sequence number of the epoch vector this ingest published.
    pub seq: u64,
    /// Per-shard refresh outcomes, in shard order.
    pub shards: Vec<ShardRefresh>,
}

impl ShardedIngestReport {
    /// Total rows appended across all shards.
    pub fn new_rows(&self) -> usize {
        self.shards.iter().map(|s| s.refresh.delta.new_rows).sum()
    }

    /// True when any shard fell back to a full rebuild.
    pub fn rebuilt_any(&self) -> bool {
        self.shards.iter().any(|s| s.rebuilt.is_some())
    }

    /// Operator-facing warnings, one per shard that fell back to a full
    /// rebuild (empty on the normal incremental path). The fallback keeps
    /// the service publishing, but it costs a whole re-snapshot and
    /// usually means the ingest source replaced state instead of
    /// appending — exactly what an operator wants to hear about rather
    /// than have silently absorbed.
    pub fn fallback_warnings(&self) -> Vec<String> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.rebuilt.as_ref().map(|err| {
                    format!(
                        "epoch {} shard {i}: incremental refresh refused ({err}); \
                         recovered by rebuilding the shard engine from scratch",
                        self.seq
                    )
                })
            })
            .collect()
    }
}

/// The writer's view of an in-flight sharded ingest: one private database
/// clone per shard plus the global row id counter. All mutation of a
/// sharded engine goes through this — it routes log rows, replicates
/// dimension rows, and keeps the shard string pools symbol-aligned.
pub struct ShardedBatch {
    key: ShardKey,
    dbs: Vec<Database>,
    maps: Vec<SegVec<RowId>>,
    global_len: usize,
}

impl ShardedBatch {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.dbs.len()
    }

    /// Total log rows across all shards, counting rows staged so far.
    pub fn global_log_len(&self) -> usize {
        self.global_len
    }

    /// Which shard a routing value lands in.
    pub fn shard_of(&self, v: &Value) -> usize {
        shard_of(v, self.dbs[0].pool(), self.dbs.len())
    }

    /// One shard's database (reads see rows staged so far).
    pub fn db(&self, shard: usize) -> &Database {
        &self.dbs[shard]
    }

    /// The shard-aligned string pool (shard 0's; all shards' pools are
    /// identical by construction).
    pub fn pool(&self) -> &StringPool {
        self.dbs[0].pool()
    }

    /// Inserts one log row, routed by the hash of its partition column.
    /// Returns the row's **global** id (the id the unsharded oracle would
    /// assign).
    pub fn insert_log(&mut self, row: Vec<Value>) -> Result<RowId> {
        let shard = self.shard_of(&row[self.key.col]);
        let local = self.dbs[shard].insert(self.key.table, row)?;
        debug_assert_eq!(local as usize, self.maps[shard].len());
        let global = RowId::try_from(self.global_len).expect("more than u32::MAX log rows");
        self.maps[shard].push(global);
        self.global_len += 1;
        Ok(global)
    }

    /// Creates a dimension table in every shard (all shards share one
    /// schema, so the id is the same everywhere).
    pub fn create_table(&mut self, name: &str, columns: &[(&str, DataType)]) -> Result<TableId> {
        let id = self.dbs[0].create_table(name, columns)?;
        for db in &mut self.dbs[1..] {
            let other = db.create_table(name, columns)?;
            assert_eq!(other, id, "shard schemas drifted out of alignment");
        }
        Ok(id)
    }

    /// Inserts one dimension row, replicated into every shard.
    ///
    /// # Panics
    /// Panics when `table` is the partitioned log table — log rows must
    /// go through [`ShardedBatch::insert_log`] to get a global id.
    pub fn insert_dim(&mut self, table: TableId, row: Vec<Value>) -> Result<()> {
        assert!(
            table != self.key.table,
            "log rows must be inserted via insert_log"
        );
        for db in &mut self.dbs {
            db.insert(table, row.clone())?;
        }
        Ok(())
    }

    /// Interns a string into **every** shard pool and returns the (single,
    /// shared) symbol value — the only sound way to mint string values
    /// during a sharded ingest.
    ///
    /// # Panics
    /// Panics if the shard pools have drifted out of alignment (a bug:
    /// all interning is supposed to flow through here).
    pub fn str_value(&mut self, s: &str) -> Value {
        let first = self.dbs[0].intern(s);
        for db in &mut self.dbs[1..] {
            let sym = db.intern(s);
            assert_eq!(sym, first, "shard string pools drifted out of alignment");
        }
        Value::Str(first)
    }
}

/// The snapshot-handoff cell — one serialized writer, wait-free readers,
/// persist-before-publish — over an [`EpochVec`]. See the
/// [`engine`](super) module docs for the writer/reader pattern.
#[derive(Debug)]
pub struct ShardedEngine {
    current: RwLock<Arc<EpochVec>>,
    /// Serializes writers; holds the next sequence number.
    writer: Mutex<u64>,
    key: ShardKey,
    /// Pinned suites, in registration order; index = pin id.
    pins: Mutex<Vec<Arc<SuitePin>>>,
}

impl ShardedEngine {
    /// Partitions `db`'s log table into `n_shards` by the hash of
    /// `key.col` and builds the initial epoch vector (seq 0): one
    /// database clone + engine per shard, dimension tables and the pool
    /// `Arc`-shared across all of them.
    ///
    /// # Panics
    /// Panics when `n_shards` is zero.
    pub fn new(db: Database, key: ShardKey, n_shards: usize) -> ShardedEngine {
        assert!(n_shards > 0, "shard count must be positive");
        let shards = Self::partition(&db, key, n_shards, 0);
        ShardedEngine {
            current: RwLock::new(Arc::new(EpochVec {
                shards,
                key,
                seq: 0,
                global_log_len: db.table(key.table).len(),
                maintained: Vec::new(),
            })),
            writer: Mutex::new(0),
            key,
            pins: Mutex::new(Vec::new()),
        }
    }

    /// Registers a suite for incremental maintenance and returns its pin
    /// id (an index into every later vector's maintained entries). The
    /// current vector is republished (same shard epochs, same seq) with
    /// the pin's cold global materialization added, so a reader loading
    /// after `pin_suite` returns already sees the maintained sets; every
    /// later ingest advances them by per-shard deltas merged
    /// associatively. Serialized against ingests by the writer lock.
    pub fn pin_suite(&self, pin: SuitePin) -> usize {
        let _writer = unpoison(self.writer.lock());
        let base = self.load();
        let pin = Arc::new(pin);
        let mut pins = unpoison(self.pins.lock());
        let id = pins.len();
        pins.push(pin.clone());
        drop(pins);
        let mut maintained = base.maintained.clone();
        maintained.push(Arc::new(maintain(
            &base.shards,
            &pin,
            base.global_log_len,
            None,
        )));
        *unpoison(self.current.write()) = Arc::new(EpochVec {
            shards: base.shards.clone(),
            key: self.key,
            seq: base.seq,
            global_log_len: base.global_log_len,
            maintained,
        });
        id
    }

    fn partition(db: &Database, key: ShardKey, n_shards: usize, seq: u64) -> Box<[ShardEpoch]> {
        // Route every log row once, then build each shard's database and
        // engine in parallel.
        let log = db.table(key.table);
        let mut routed: Vec<Vec<RowId>> = vec![Vec::new(); n_shards];
        for r in 0..log.len() {
            let v = log.cell(r as RowId, key.col);
            routed[shard_of(&v, db.pool(), n_shards)].push(r as RowId);
        }
        let built: Vec<ShardEpoch> = par_map(&routed, |globals| {
            let mut shard_db = db.clone_with_empty_table(key.table);
            let mut map = SegVec::new(shard_db.table(key.table).segment_rows());
            for &g in globals {
                shard_db
                    .insert(key.table, log.row(g).to_vec())
                    .expect("re-inserting a validated log row");
                map.push(g);
            }
            // Seal the rebuilt shard: contents unchanged, but every later
            // ingest fork then clones shared segments instead of copying
            // the whole re-inserted tail — partitioning must not cost the
            // `O(batch)` publication invariant its head start.
            shard_db.seal();
            map.seal();
            let engine = Engine::new(&shard_db);
            ShardEpoch {
                epoch: Arc::new(Epoch::assemble(shard_db, engine, seq)),
                to_global: map,
            }
        });
        built.into_boxed_slice()
    }

    /// Pins the current epoch vector. Effectively wait-free: the read lock
    /// guards a single `Arc` clone, never a query or a refresh. Call once
    /// per session (or per dashboard recomputation), not once per query —
    /// the vector is the session's consistent view.
    pub fn load(&self) -> Arc<EpochVec> {
        unpoison(self.current.read()).clone()
    }

    /// Sequence number of the current epoch vector.
    pub fn seq(&self) -> u64 {
        self.load().seq
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.load().shard_count()
    }

    /// The partitioning key.
    pub fn key(&self) -> ShardKey {
        self.key
    }

    /// Applies `mutate` to a private [`ShardedBatch`] (one database clone
    /// per shard), refreshes a private fork of every shard engine, and
    /// publishes the successor epoch vector. Returns `mutate`'s output
    /// and the per-shard report. Writers serialize; readers never block.
    ///
    /// # Panic safety
    /// A panic in `mutate` or any refresh drops the private clones and
    /// publishes nothing.
    pub fn ingest<R>(
        &self,
        mutate: impl FnOnce(&mut ShardedBatch) -> R,
    ) -> (R, ShardedIngestReport) {
        let (out, report) = self
            .ingest_with(mutate, |_, _, _| Ok::<(), std::convert::Infallible>(()))
            .unwrap_or_else(|e| match e {});
        (out, report)
    }

    /// [`ShardedEngine::ingest`] with a **persist hook**: `persist` runs
    /// after every shard has been mutated and refreshed but *before*
    /// anything is published, with the staged batch and the would-be seq.
    /// Only if it returns `Ok` is the vector published (and the sequence
    /// counter advanced).
    ///
    /// This is the durable-ingest ordering contract: a service that
    /// writes the batch to a [`DurableStore`](crate::pile::DurableStore)
    /// inside `persist` acknowledges only states that are already on
    /// disk, so the **published history is always a prefix of the durable
    /// history** — shard assignment notwithstanding (the durable log is
    /// recorded in global row order and re-partitioned deterministically
    /// on recovery). `Err` publishes nothing, frees the seq, and returns
    /// with the writer lock released — the next ingest proceeds normally.
    ///
    /// # Panic safety
    /// Exactly as [`ShardedEngine::ingest`]: a panic in `mutate`, a
    /// refresh, or `persist` publishes nothing.
    pub fn ingest_with<R, E>(
        &self,
        mutate: impl FnOnce(&mut ShardedBatch) -> R,
        persist: impl FnOnce(&ShardedBatch, &R, u64) -> std::result::Result<(), E>,
    ) -> std::result::Result<(R, ShardedIngestReport), E> {
        let mut next_seq = unpoison(self.writer.lock());
        let base = self.load();
        let mut batch = ShardedBatch {
            key: self.key,
            dbs: base.shards.iter().map(|s| s.db().clone()).collect(),
            maps: base.shards.iter().map(|s| s.to_global.clone()).collect(),
            global_len: base.global_log_len,
        };
        let out = mutate(&mut batch);
        let seq = *next_seq + 1;

        // Fork + refresh every shard in parallel (shards whose tables did
        // not grow refresh in O(1); the fallback rebuild is per-shard).
        let idx: Vec<usize> = (0..base.shards.len()).collect();
        let refreshed: Vec<(Engine, ShardRefresh)> = par_map(&idx, |&s| {
            let db = &batch.dbs[s];
            let mut engine = base.shards[s].engine().fork();
            match engine.refresh(db) {
                Ok(stats) => (
                    engine,
                    ShardRefresh {
                        refresh: stats,
                        rebuilt: None,
                    },
                ),
                Err(err) => (
                    Engine::new(db),
                    ShardRefresh {
                        refresh: RefreshStats::default(),
                        rebuilt: Some(err),
                    },
                ),
            }
        });

        persist(&batch, &out, seq)?;
        *next_seq = seq;

        let ShardedBatch {
            dbs,
            maps,
            global_len,
            ..
        } = batch;
        let mut report = ShardedIngestReport {
            seq,
            shards: Vec::with_capacity(dbs.len()),
        };
        let shards: Vec<ShardEpoch> = dbs
            .into_iter()
            .zip(maps)
            .zip(refreshed)
            .map(|((db, to_global), (engine, shard_report))| {
                report.shards.push(shard_report);
                ShardEpoch {
                    epoch: Arc::new(Epoch::assemble(db, engine, seq)),
                    to_global,
                }
            })
            .collect();
        // Advance every pinned suite's global materialization: per-shard
        // deltas on the incremental path, a cold scatter-gather recompute
        // when any shard fell back to a rebuild (or the pin is newer than
        // `base`).
        let pins = unpoison(self.pins.lock()).clone();
        let rebuilt_any = report.shards.iter().any(|s| s.rebuilt.is_some());
        let maintained: Vec<Arc<Maintained>> = pins
            .iter()
            .enumerate()
            .map(|(i, pin)| {
                let from = base.maintained.get(i).filter(|_| !rebuilt_any);
                let from = from.map(|prev| (&base.shards[..], &report.shards[..], &**prev));
                Arc::new(maintain(&shards, pin, global_len, from))
            })
            .collect();
        *unpoison(self.current.write()) = Arc::new(EpochVec {
            shards: shards.into_boxed_slice(),
            key: self.key,
            seq,
            global_log_len: global_len,
            maintained,
        });
        Ok((out, report))
    }

    /// Replaces the published state **wholesale** (an operator reload of a
    /// corrected dataset): re-partitions `db` from scratch and publishes
    /// the successor vector.
    ///
    /// Unlike [`ShardedEngine::ingest`], this never attempts the
    /// incremental refresh: an incremental pass only rescans rows
    /// *appended* since the snapshot, so a replacement whose row counts
    /// happen to line up with the published vector's would keep the
    /// engines answering from the replaced cells. Every shard reports
    /// [`RefreshError::Replaced`], so
    /// [`ShardedIngestReport::fallback_warnings`] fire exactly like an
    /// ingest-path fallback — a reload is an operator-visible event, never
    /// silently absorbed. Readers pinned to older vectors are untouched
    /// until their next load.
    pub fn replace(&self, db: Database) -> ShardedIngestReport {
        let mut next_seq = unpoison(self.writer.lock());
        let n = self.shard_count();
        *next_seq += 1;
        let seq = *next_seq;
        let shards = Self::partition(&db, self.key, n, seq);
        let report = ShardedIngestReport {
            seq,
            shards: (0..n)
                .map(|_| ShardRefresh {
                    refresh: RefreshStats::default(),
                    rebuilt: Some(RefreshError::Replaced),
                })
                .collect(),
        };
        let global_log_len = db.table(self.key.table).len();
        // A replacement invalidates every maintained set: recompute cold.
        let pins = unpoison(self.pins.lock()).clone();
        let maintained = pins
            .iter()
            .map(|pin| Arc::new(maintain(&shards, pin, global_log_len, None)))
            .collect();
        *unpoison(self.current.write()) = Arc::new(EpochVec {
            shards,
            key: self.key,
            seq,
            global_log_len,
            maintained,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainStep;
    use crate::types::DataType;

    fn world() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            )
            .unwrap();
        let event = db
            .create_table(
                "Event",
                &[("Patient", DataType::Int), ("Actor", DataType::Int)],
            )
            .unwrap();
        for p in 0..8i64 {
            db.insert(event, vec![Value::Int(p), Value::Int(p % 3)])
                .unwrap();
        }
        for i in 0..20i64 {
            db.insert(
                log,
                vec![Value::Int(i), Value::Int(i % 3), Value::Int(i % 8)],
            )
            .unwrap();
        }
        (db, log, event)
    }

    fn key(db: &Database, log: TableId) -> ShardKey {
        let col = db.table(log).schema().col("Patient").unwrap();
        ShardKey { table: log, col }
    }

    fn query(log: TableId, event: TableId) -> ChainQuery {
        ChainQuery {
            log,
            lid_col: 0,
            start_col: 2,
            steps: vec![ChainStep::new(event, 0, 1)],
            close_col: Some(1),
            anchor_filters: vec![],
        }
    }

    #[test]
    fn shard_routing_is_deterministic_and_total() {
        let mut pool = StringPool::new();
        let s = Value::Str(pool.intern("Pediatrics"));
        for n in [1usize, 2, 4, 7] {
            for v in [Value::Null, Value::Int(42), Value::Date(99), s] {
                let a = shard_of(&v, &pool, n);
                assert_eq!(a, shard_of(&v, &pool, n));
                assert!(a < n);
            }
            assert_eq!(shard_of(&Value::Null, &pool, n), 0);
        }
        // String routing hashes text, not the pool-relative symbol.
        let mut other = StringPool::new();
        other.intern("something-else-first");
        let s2 = Value::Str(other.intern("Pediatrics"));
        assert_eq!(shard_of(&s, &pool, 4), shard_of(&s2, &other, 4));
    }

    #[test]
    fn partitioning_matches_the_oracle_byte_for_byte() {
        let (db, log, event) = world();
        let q = query(log, event);
        let oracle = q.explained_rows(&db, EvalOptions::default()).unwrap();
        let oracle_support = q.support(&db, EvalOptions::default()).unwrap();
        for n in [1usize, 2, 3, 4, 16] {
            let sharded = ShardedEngine::new(db.clone(), key(&db, log), n);
            let vec = sharded.load();
            assert_eq!(vec.shard_count(), n);
            assert_eq!(vec.global_log_len(), 20);
            assert_eq!(
                vec.shards().iter().map(ShardEpoch::log_len).sum::<usize>(),
                20,
                "shards partition the log"
            );
            assert_eq!(
                vec.explained_rows(&q, EvalOptions::default()).unwrap(),
                oracle,
                "{n} shards"
            );
            assert_eq!(
                vec.support(&q, EvalOptions::default()).unwrap(),
                oracle_support
            );
            let many = vec.explained_rows_many(std::slice::from_ref(&q), EvalOptions::default());
            assert_eq!(many[0].as_ref().unwrap(), &oracle);
            let union = vec
                .explained_union(std::slice::from_ref(&q), EvalOptions::default())
                .unwrap();
            assert_eq!(union, oracle.iter().copied().collect());
        }
    }

    #[test]
    fn global_ids_round_trip_through_locate() {
        let (db, log, _) = world();
        let sharded = ShardedEngine::new(db, key_of(log), 4);
        let vec = sharded.load();
        for g in 0..20u32 {
            let (s, local) = vec.locate(g).expect("every global id is somewhere");
            assert_eq!(vec.shards()[s].to_global(local), g);
        }
        assert!(vec.locate(20).is_none());

        fn key_of(log: TableId) -> ShardKey {
            ShardKey { table: log, col: 2 }
        }
    }

    #[test]
    fn ingest_routes_replicates_and_publishes_one_seq() {
        let (db, log, event) = world();
        let q = query(log, event);
        let k = key(&db, log);
        let mut oracle_db = db.clone();
        let sharded = ShardedEngine::new(db, k, 3);
        let pinned = sharded.load();

        let ((), report) = sharded.ingest(|batch| {
            batch
                .insert_dim(event, vec![Value::Int(40), Value::Int(1)])
                .unwrap();
            for i in 20..26i64 {
                let g = batch
                    .insert_log(vec![Value::Int(i), Value::Int(1), Value::Int(i % 41)])
                    .unwrap();
                assert_eq!(g as i64, i, "global ids continue the oracle order");
            }
        });
        assert_eq!(report.seq, 1);
        assert_eq!(report.new_rows(), 6 + 3, "6 log rows + dim row x3 shards");
        assert!(!report.rebuilt_any());
        assert!(report.fallback_warnings().is_empty());

        // The pinned vector is untouched; the new one answers like the
        // oracle over the equivalently-grown database.
        assert_eq!(pinned.global_log_len(), 20);
        oracle_db
            .insert(event, vec![Value::Int(40), Value::Int(1)])
            .unwrap();
        for i in 20..26i64 {
            oracle_db
                .insert(log, vec![Value::Int(i), Value::Int(1), Value::Int(i % 41)])
                .unwrap();
        }
        let new = sharded.load();
        assert_eq!(new.seq(), 1);
        assert_eq!(new.global_log_len(), 26);
        for shard in new.shards() {
            assert_eq!(shard.epoch().seq(), 1, "one seq across the vector");
        }
        assert_eq!(
            new.explained_rows(&q, EvalOptions::default()).unwrap(),
            q.explained_rows(&oracle_db, EvalOptions::default())
                .unwrap()
        );
    }

    #[test]
    fn failed_persist_publishes_nothing_and_frees_the_seq() {
        let (db, log, _) = world();
        let k = key(&db, log);
        let sharded = ShardedEngine::new(db, k, 2);
        let err = sharded
            .ingest_with(
                |batch| {
                    batch
                        .insert_log(vec![Value::Int(99), Value::Int(0), Value::Int(1)])
                        .unwrap();
                },
                |batch, _, seq| {
                    assert_eq!(seq, 1);
                    assert_eq!(batch.global_log_len(), 21, "hook sees the staged rows");
                    Err("disk full")
                },
            )
            .unwrap_err();
        assert_eq!(err, "disk full");
        assert_eq!(sharded.seq(), 0);
        assert_eq!(sharded.load().global_log_len(), 20);
        let ((), report) = sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(99), Value::Int(0), Value::Int(1)])
                .unwrap();
        });
        assert_eq!(report.seq, 1, "the failed attempt's seq is reused");
        assert_eq!(sharded.load().global_log_len(), 21);
        let _ = log;
    }

    #[test]
    fn panicking_ingest_publishes_nothing_and_recovers() {
        let (db, log, _) = world();
        let k = key(&db, log);
        let sharded = ShardedEngine::new(db, k, 2);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded.ingest(|batch| {
                batch
                    .insert_log(vec![Value::Int(50), Value::Int(0), Value::Int(3)])
                    .unwrap();
                panic!("ingest source glitched");
            })
        }));
        assert!(panic.is_err());
        assert_eq!(sharded.seq(), 0);
        assert_eq!(sharded.load().global_log_len(), 20);
        let ((), report) = sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(50), Value::Int(0), Value::Int(3)])
                .unwrap();
        });
        assert_eq!(report.seq, 1);
        let _ = log;
    }

    #[test]
    fn replace_repartitions_and_warns() {
        let (db, log, event) = world();
        let k = key(&db, log);
        let q = query(log, event);
        let sharded = ShardedEngine::new(db.clone(), k, 4);
        // A corrected world: same shape, different cells.
        let (mut corrected, _, _) = world();
        let ev = corrected.table_id("Event").unwrap();
        corrected
            .insert(ev, vec![Value::Int(0), Value::Int(2)])
            .unwrap();
        let report = sharded.replace(corrected.clone());
        assert_eq!(report.seq, 1);
        assert!(report.rebuilt_any());
        assert_eq!(report.fallback_warnings().len(), 4);
        for warning in report.fallback_warnings() {
            assert!(warning.contains("replaced"), "{warning}");
            assert!(warning.contains("epoch 1"), "{warning}");
            assert!(warning.contains("rebuilding"), "{warning}");
        }
        let vec = sharded.load();
        assert_eq!(
            vec.explained_rows(&q, EvalOptions::default()).unwrap(),
            q.explained_rows(&corrected, EvalOptions::default())
                .unwrap()
        );
    }

    #[test]
    fn replace_rebuilds_even_when_nothing_shrank() {
        // The hole `replace` exists to close: a replacement whose row
        // counts line up with the published vector's would pass the
        // incremental refresh's shrink checks, yet its *cells* differ —
        // an incremental pass would keep answering from the old data.
        let (db, log, event) = world();
        let q = query(log, event);
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 1);
        let before = sharded
            .load()
            .explained_rows(&q, EvalOptions::default())
            .unwrap();
        // Same shape, same row counts, different cells: every event now
        // names actor 2, so the old answer is wrong for it.
        let (mut corrected, _, _) = world();
        let (event_rows, log_rows) = (corrected.table(event).len(), corrected.table(log).len());
        corrected = corrected.clone_with_empty_table(event);
        for p in 0..event_rows as i64 {
            corrected
                .insert(event, vec![Value::Int(p), Value::Int(2)])
                .unwrap();
        }
        assert_eq!(corrected.table(log).len(), log_rows);
        let report = sharded.replace(corrected.clone());
        assert_eq!(report.shards[0].rebuilt, Some(RefreshError::Replaced));
        // The published vector answers from the *corrected* data, exactly
        // like the row evaluator does.
        let after = sharded
            .load()
            .explained_rows(&q, EvalOptions::default())
            .unwrap();
        assert_eq!(
            after,
            q.explained_rows(&corrected, EvalOptions::default())
                .unwrap()
        );
        assert_ne!(after, before, "the corrected cells change the answer");
    }

    #[test]
    fn caches_stay_warm_across_epochs() {
        let (db, log, event) = world();
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 1);
        let q = query(log, event);
        let v0 = sharded.load();
        v0.explained_rows(&q, EvalOptions::default()).unwrap();
        assert_eq!(v0.shards()[0].engine().cached_step_maps(), 1);
        // Growing only the log drops partitions, not the Event step map —
        // and the successor inherits it through the fork.
        let ((), report) = sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(20), Value::Int(2), Value::Int(9)])
                .unwrap();
        });
        assert_eq!(report.shards[0].refresh.dropped_step_maps, 0);
        assert_eq!(sharded.load().shards()[0].engine().cached_step_maps(), 1);
    }

    #[test]
    fn ingest_returns_the_mutators_output() {
        let (db, log, _) = world();
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 1);
        let (rid, _) = sharded.ingest(|batch| {
            batch
                .insert_log(vec![Value::Int(20), Value::Int(3), Value::Int(7)])
                .unwrap()
        });
        assert_eq!(rid, 20);
    }

    #[test]
    fn concurrent_readers_always_observe_a_published_epoch() {
        let (db, log, event) = world();
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 1);
        let q = query(log, event);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut last_seq = 0;
                    while !done.load(std::sync::atomic::Ordering::Relaxed) {
                        let vec = sharded.load();
                        assert!(vec.seq() >= last_seq, "epochs move forward");
                        last_seq = vec.seq();
                        // The vector is internally consistent: the engine
                        // answers exactly like the row evaluator over the
                        // shard's own database.
                        let shard = &vec.shards()[0];
                        assert_eq!(
                            vec.explained_rows(&q, EvalOptions::default()).unwrap(),
                            q.explained_rows(shard.db(), EvalOptions::default())
                                .unwrap()
                        );
                    }
                });
            }
            for i in 0..5i64 {
                sharded.ingest(|batch| {
                    batch
                        .insert_log(vec![Value::Int(20 + i), Value::Int(1), Value::Int(7)])
                        .unwrap();
                    batch
                        .insert_dim(event, vec![Value::Int(7), Value::Int(20 + i)])
                        .unwrap();
                });
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(sharded.seq(), 5);
    }

    #[test]
    fn maintained_sets_match_cold_scatter_gather_at_every_seq() {
        let (db, log, event) = world();
        let q = query(log, event);
        for n in [1usize, 4] {
            let sharded = ShardedEngine::new(db.clone(), key(&db, log), n);
            let pin = SuitePin {
                log,
                anchor_filters: vec![],
                queries: vec![q.clone()],
                opts: EvalOptions::default(),
            };
            let id = sharded.pin_suite(pin.clone());
            let check = |vec: &EpochVec| {
                let m = vec.maintained(id).expect("pinned vector carries the sets");
                let cold = maintain(vec.shards(), &pin, vec.global_log_len(), None);
                assert_eq!(m.anchors, cold.anchors, "{n} shards");
                assert_eq!(m.explained, cold.explained, "{n} shards");
                assert_eq!(m.unexplained, cold.unexplained, "{n} shards");
                assert_eq!(m.log_len, vec.global_log_len());
                // The maintained union also matches the reader-path
                // scatter-gather over the same vector.
                assert_eq!(
                    m.explained,
                    vec.explained_union_rowset(&pin.queries, pin.opts).unwrap()
                );
            };
            check(&sharded.load());
            for i in 0..5i64 {
                sharded.ingest(|batch| {
                    batch
                        .insert_log(vec![Value::Int(100 + i), Value::Int(1), Value::Int(i % 11)])
                        .unwrap();
                    if i % 2 == 0 {
                        batch
                            .insert_dim(event, vec![Value::Int(i % 11), Value::Int(1)])
                            .unwrap();
                    }
                });
                check(&sharded.load());
            }
            sharded.replace(db.clone());
            check(&sharded.load());
        }
        // Vectors published before the pin lack the entry, never lie.
        let unpinned = ShardedEngine::new(db.clone(), key(&db, log), 1);
        assert!(unpinned.load().maintained(0).is_none());
    }

    #[test]
    fn str_value_keeps_shard_pools_aligned() {
        let mut db = Database::new();
        let log = db
            .create_table("Log", &[("Lid", DataType::Int), ("Dept", DataType::Str)])
            .unwrap();
        let dept = db.str_value("Radiology");
        db.insert(log, vec![Value::Int(0), dept]).unwrap();
        let k = ShardKey { table: log, col: 1 };
        let sharded = ShardedEngine::new(db, k, 3);
        let ((), _) = sharded.ingest(|batch| {
            let a = batch.str_value("Radiology");
            assert_eq!(a, dept, "existing strings resolve to the same symbol");
            let b = batch.str_value("Pediatrics");
            batch.insert_log(vec![Value::Int(1), b]).unwrap();
            batch.insert_log(vec![Value::Int(2), a]).unwrap();
        });
        let vec = sharded.load();
        assert_eq!(vec.global_log_len(), 3);
        // Every shard pool resolves the new symbol identically.
        for shard in vec.shards() {
            assert!(shard.db().pool().get("Pediatrics").is_some());
        }
        // The two new rows may land in different shards but keep global order.
        assert!(vec.locate(1).is_some() && vec.locate(2).is_some());
    }

    #[test]
    fn empty_and_skewed_shards_are_fine() {
        // All rows one patient: every row lands in one shard, the rest
        // stay empty — and answers still match the oracle.
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("User", DataType::Int),
                    ("Patient", DataType::Int),
                ],
            )
            .unwrap();
        let event = db
            .create_table(
                "Event",
                &[("Patient", DataType::Int), ("Actor", DataType::Int)],
            )
            .unwrap();
        db.insert(event, vec![Value::Int(7), Value::Int(1)])
            .unwrap();
        for i in 0..5i64 {
            db.insert(log, vec![Value::Int(i), Value::Int(1), Value::Int(7)])
                .unwrap();
        }
        let q = query(log, event);
        let oracle = q.explained_rows(&db, EvalOptions::default()).unwrap();
        let sharded = ShardedEngine::new(db.clone(), key(&db, log), 4);
        let vec = sharded.load();
        let lens: Vec<usize> = vec.shards().iter().map(ShardEpoch::log_len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 5);
        assert_eq!(lens.iter().filter(|&&l| l == 0).count(), 3, "{lens:?}");
        assert_eq!(
            vec.explained_rows(&q, EvalOptions::default()).unwrap(),
            oracle
        );
        // An entirely empty log partitions into all-empty shards.
        let mut empty = Database::new();
        let elog = empty
            .create_table("Log", &[("Lid", DataType::Int), ("Patient", DataType::Int)])
            .unwrap();
        let sharded = ShardedEngine::new(
            empty,
            ShardKey {
                table: elog,
                col: 1,
            },
            3,
        );
        assert_eq!(sharded.load().global_log_len(), 0);
    }
}
