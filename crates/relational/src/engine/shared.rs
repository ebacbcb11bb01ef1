//! Epoch-style snapshot handoff: audit queries keep running while the log
//! ingests.
//!
//! [`Engine::refresh`] takes `&mut Engine`, so a service that holds one
//! engine must serialize every reader against every ingest — and one
//! slow refresh stalls every "is this access explained?" question behind
//! it. The publication cell, [`ShardedEngine`], decouples the two with an
//! epoch handoff built from `std` parts only (`Arc` + a pointer-swap
//! `RwLock`); one shard (`n_shards == 1`) is the unsharded deployment:
//!
//! * **Readers** call [`ShardedEngine::load`] once per session and get an
//!   immutable [`EpochVec`] — per shard, an [`Epoch`]: the database plus
//!   the engine built over it, frozen together. Every question the
//!   session asks against that vector sees one consistent state of the
//!   world, no matter how many ingests land meanwhile. `load` is a
//!   read-lock held only for an `Arc` clone (a few instructions — never
//!   for the duration of a query, let alone a refresh).
//! * **The writer** (serialized by an internal mutex, so any thread may
//!   call it) runs [`ShardedEngine::ingest`]: clone each shard's
//!   database, apply the batch, [`fork`](Engine::fork) each shard's
//!   engine — same snapshot, same warm `Arc`-shared caches — refresh the
//!   forks *privately*, and publish the successor vector with a pointer
//!   swap. In-flight readers are never waited on and never blocked; they
//!   finish on the vector they pinned and pick up the new one on their
//!   next `load`.
//!
//! A failed refresh (the typed [`RefreshError`], e.g. a table shrank) is
//! recovered by rebuilding the shard engine from scratch and recorded in
//! the [`ShardedIngestReport`]; a panic inside the ingest closure discards
//! the private clones and leaves the published vector untouched (and the
//! writer mutex, though poisoned, recovers on the next ingest). One bad
//! ingest — like one panicking query — cannot take the auditor offline.
//!
//! # The writer/reader pattern
//!
//! This is the shape the `compliance_dashboard` example, `eba-serve` and
//! the `audit-bench` concurrent workload use:
//!
//! ```
//! use eba_relational::{Database, DataType, ShardKey, ShardedEngine, Value};
//!
//! let mut db = Database::new();
//! let log = db
//!     .create_table("Log", &[("Lid", DataType::Int), ("Patient", DataType::Int)])
//!     .unwrap();
//! db.insert(log, vec![Value::Int(0), Value::Int(7)]).unwrap();
//! let cell = ShardedEngine::new(db, ShardKey { table: log, col: 1 }, 1);
//!
//! std::thread::scope(|scope| {
//!     // Reader session: pin one epoch vector, answer everything against it.
//!     scope.spawn(|| {
//!         let epochs = cell.load();
//!         let shard = &epochs.shards()[0];
//!         assert!(shard.db().table(log).len() > 0);
//!         // ... shard.engine().explained_rows(shard.db(), &query, opts) ...
//!     });
//!     // Writer: ingest a batch and publish the successor vector.
//!     scope.spawn(|| {
//!         let (_, report) = cell.ingest(|batch| {
//!             batch.insert_log(vec![Value::Int(1), Value::Int(8)]).unwrap()
//!         });
//!         assert_eq!(report.new_rows(), 1);
//!     });
//! });
//! assert_eq!(cell.load().global_log_len(), 2);
//! ```
//!
//! # Costs
//!
//! Publishing pays one clone of each shard database and one
//! [`Engine::fork`] per shard per ingest batch, on the writer thread.
//! Storage is segmented ([`crate::segment`]): both operations share every
//! sealed segment by pointer and copy only the small mutable tails, so
//! publication is **`O(batch)`**, not `O(db)` — the storage-equivalence
//! suite and `audit-bench`'s `publish/ingest_epoch_cost*` workloads meter
//! exactly this. The refresh itself is incremental too (only appended
//! rows are scanned; caches over un-grown tables stay warm across epochs,
//! and log partitions / row maps extend chunk-wise), so batch your
//! appends: one `ingest` per arriving batch, not per row.
//!
//! Advancing a pinned suite's [`Maintained`] partition costs
//! O(delta × backward fan-out), capped by the unexplained residue — not
//! O(delta) alone; see [`Maintained`] for what the fan-out is.

use super::Engine;
#[cfg(doc)]
use super::{EpochVec, RefreshError, ShardedEngine, ShardedIngestReport};
use crate::chain::{ChainQuery, CmpOp, EvalOptions};
use crate::database::{Database, TableId};
use crate::rowset::RowSet;
use crate::types::ColId;
use crate::value::Value;

/// A template suite registered for **incremental maintenance**: the
/// anchor shape (which log rows are under audit) plus the explanation
/// templates. Once pinned ([`ShardedEngine::pin_suite`]), every published
/// epoch vector carries a [`Maintained`] materialization of the suite's
/// explained/unexplained partition, advanced inside ingest by delta
/// evaluation instead of recomputed by readers.
#[derive(Debug, Clone)]
pub struct SuitePin {
    /// The log table the suite audits; every query must anchor on it.
    pub log: TableId,
    /// Anchor filters selecting the audited log rows (same shape as
    /// [`ChainQuery::anchor_filters`]).
    pub anchor_filters: Vec<(ColId, CmpOp, Value)>,
    /// The explanation templates.
    pub queries: Vec<ChainQuery>,
    /// Evaluation options shared by the suite.
    pub opts: EvalOptions,
}

/// The maintained explained/unexplained partition of one [`SuitePin`] at
/// one epoch, in global log row ids. Invariant (the stream-equivalence
/// suite proves it differentially): at every published epoch, each set is
/// **byte-identical to a cold recompute** over that epoch's database —
///
/// * `anchors`     = log rows passing the pin's anchor filters,
/// * `explained`   = union over the pin's templates of their explained
///   rows (exactly [`Engine::eval_suite`]'s union),
/// * `unexplained` = `anchors \ explained`.
///
/// The maintenance argument is monotonicity: tables are append-only and
/// chain templates are monotone, so a template's explained set only ever
/// grows — an ingest can be absorbed by **unioning in** a delta, never by
/// retracting. Every template can newly explain the appended log rows
/// (one [`Engine::eval_suite_range`] over the tail covers them all); a
/// template whose support tables grew can additionally newly explain
/// *old* anchor rows. Any such row was by definition still unexplained,
/// and only a chain through at least one appended tuple can explain it
/// now. So walking back from the appended tuples to the residue rows
/// they reach, and re-checking just those (`Engine::reask_grown`),
/// recovers exactly the missing explanations.
///
/// The advance costs O(delta × backward fan-out): the appended rows times
/// the rows each reaches on its way back to the log. For the
/// repeat-access template that is the batch patients' access histories.
/// A template whose walk would touch more rows than the residue holds is
/// re-asked over the whole residue instead, so the cost is capped by
/// O(delta + residue). Neither bound is independent of the log: histories
/// and the residue both grow with it, only far slower than the log.
#[derive(Debug, Clone, Default)]
pub struct Maintained {
    /// Log rows matching the pin's anchor filters.
    pub anchors: RowSet,
    /// Rows explained by at least one of the pin's templates.
    pub explained: RowSet,
    /// `anchors \ explained` — the audit residue.
    pub unexplained: RowSet,
    /// Log rows covered (the log's length when this was advanced).
    pub log_len: usize,
}

/// One shard's immutable published state: the shard database and the
/// engine built over it, frozen together at the vector's sequence number.
///
/// Readers reach epochs through a pinned [`EpochVec`] and keep them for a
/// whole session — every audit-layer question asked with this epoch's
/// `db`/`engine` pair sees the same log, so an explanation, the timeline
/// it appears in, and the misuse summary next to it can never disagree
/// about which accesses exist. A [`RefreshError`] during the ingest that
/// built it shows as a rebuilt engine, never as a missing epoch.
#[derive(Debug)]
pub struct Epoch {
    db: Database,
    engine: Engine,
    seq: u64,
}

impl Epoch {
    /// Assembles an epoch from parts: how [`ShardedEngine`] publishes one
    /// epoch per shard under the vector's shared sequence number.
    pub(super) fn assemble(db: Database, engine: Engine, seq: u64) -> Epoch {
        Epoch { db, engine, seq }
    }

    /// The epoch's database state (pass as the `db` argument of the
    /// audit-layer `*_with` functions).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The warm engine over [`Epoch::db`].
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Publication sequence number (0 for the initial epoch, +1 per
    /// ingest), shared by every shard of the vector.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}
