//! The durable segment store: an append-only, checksummed segment pile
//! plus a write-ahead log, with crash recovery that reconstructs the
//! ingest history batch-for-batch.
//!
//! # The two files
//!
//! A [`DurableStore`] owns two [`RecordFile`]s (see [`crate::wal`] for the
//! shared framing):
//!
//! * **`<path>`** — the *pile*: one record per checkpointed segment, each
//!   containing a run of whole ingest batches (batch boundaries are
//!   preserved, so recovery can replay the epoch chain batch-for-batch,
//!   exactly as it was acknowledged).
//! * **`<path>.wal`** — the *write-ahead log*: one record per acknowledged
//!   ingest batch since the last checkpoint. When the WAL accumulates a
//!   segment's worth of rows ([`crate::segment::DEFAULT_SEGMENT_ROWS`] by
//!   default — the same boundary at which the in-memory [`SegVec`]
//!   seals), the batches are consolidated into one pile record, the pile
//!   is fsynced, and the WAL is reset. The hot path therefore appends one
//!   small record per batch; the pile grows by one fsynced record per
//!   sealed segment — mirroring on disk exactly the sealed-segment /
//!   mutable-tail split the in-memory store uses.
//!
//! [`SegVec`]: crate::segment::SegVec
//!
//! # What a crash can and cannot lose
//!
//! Appends to both files are strictly sequential, so a crash tears at
//! most the final record of each; recovery truncates back to the last
//! valid record and reports the drop ([`RecoveryReport`]). Under
//! [`Durability::Strict`] the WAL is fsynced before a batch is
//! acknowledged, so **an acknowledged batch is never lost** — the torn
//! record is always an unacknowledged one. Under [`Durability::Relaxed`]
//! acknowledged batches since the last OS flush may be lost (but never
//! reordered, and never a checkpointed segment: the pile is fsynced at
//! every checkpoint under both policies, *before* the WAL is reset).
//!
//! The crash window *between* a checkpoint's pile append and its WAL
//! reset leaves the same batches in both files; recovery deduplicates by
//! global row offset (every batch records the table row it starts at), so
//! replay is idempotent. A WAL whose surviving batches neither duplicate
//! nor continue the pile (a gap — lost middle records) is truncated at
//! the discontinuity and reported: recovery always yields a *prefix* of
//! the acknowledged history, never a history with holes.
//!
//! # Values on disk
//!
//! [`Value`] is `Copy` because strings are pool-relative [`Symbol`]s; a
//! durable record must outlive any pool, so rows are stored as
//! [`PlainValue`]s (strings spelled out) and re-interned on replay.
//! Batches are recorded *post-materialization* — after lids, `IsFirst`
//! flags and the action column are computed — so [`replay_into`] is a
//! deterministic sequence of plain inserts, independent of any writer
//! state.
//!
//! [`Symbol`]: crate::pool::Symbol

use crate::database::Database;
use crate::error::PileError;
use crate::pool::StringPool;
use crate::segment::DEFAULT_SEGMENT_ROWS;
use crate::value::Value;
use crate::wal::{Media, RecordFile, ScanReport};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Magic bytes of a pile file.
pub const PILE_MAGIC: [u8; 8] = *b"EBAPILE1";
/// Magic bytes of a WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"EBAWAL01";
/// The single format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

const KIND_BATCH: u8 = 1;
const KIND_SEGMENT: u8 = 2;

/// When (and whether) acknowledged batches reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// fsync the WAL before every batch is acknowledged: an acknowledged
    /// `INGEST` survives power loss. The default.
    #[default]
    Strict,
    /// Leave flushing to the OS: batches since the last flush may be lost
    /// on a crash (checkpointed segments are still always fsynced).
    Relaxed,
}

impl Durability {
    /// Parses the CLI spelling (`strict` / `relaxed`).
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "strict" => Some(Durability::Strict),
            "relaxed" => Some(Durability::Relaxed),
            _ => None,
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Durability::Strict => "strict",
            Durability::Relaxed => "relaxed",
        })
    }
}

// ------------------------------------------------------------ plain values

/// A [`Value`] spelled out for disk: strings carry their text instead of
/// a pool-relative symbol, so a record is meaningful in any process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlainValue {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// An interned string, resolved to its text.
    Str(String),
    /// Minutes since the epoch (the engine's date representation).
    Date(i64),
}

impl PlainValue {
    /// Resolves `v` against the pool it was interned in.
    pub fn from_value(v: Value, pool: &StringPool) -> PlainValue {
        match v {
            Value::Null => PlainValue::Null,
            Value::Int(i) => PlainValue::Int(i),
            Value::Str(sym) => PlainValue::Str(pool.resolve(sym).to_string()),
            Value::Date(m) => PlainValue::Date(m),
        }
    }

    /// Re-interns strings through `intern` (the replay direction): a
    /// database's pool, or a sharded ingest batch's aligned shard pools.
    pub fn to_value(&self, intern: impl FnOnce(&str) -> Value) -> Value {
        match self {
            PlainValue::Null => Value::Null,
            PlainValue::Int(i) => Value::Int(*i),
            PlainValue::Str(s) => intern(s),
            PlainValue::Date(m) => Value::Date(*m),
        }
    }
}

// ---------------------------------------------------------------- batches

/// One acknowledged ingest batch, as recorded and as recovered: which
/// table it extended, the global row offset it started at, and the fully
/// materialized rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The publication seq this batch produced when first written
    /// (informational — a restarted server renumbers from 0).
    pub seq: u64,
    /// The table the rows were appended to, by name.
    pub table: String,
    /// The table's row count immediately before this batch — the global
    /// offset recovery uses for continuity and pile/WAL deduplication.
    pub first_row: u64,
    /// The materialized rows, in insertion order.
    pub rows: Vec<Vec<PlainValue>>,
}

impl Batch {
    /// The table row count immediately after this batch.
    pub fn end_row(&self) -> u64 {
        self.first_row + self.rows.len() as u64
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.first_row.to_le_bytes());
        let name = self.table.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(self.rows.len() as u32).to_le_bytes());
        let arity = self.rows.first().map_or(0, Vec::len);
        out.extend_from_slice(&(arity as u32).to_le_bytes());
        for row in &self.rows {
            debug_assert_eq!(row.len(), arity, "uniform arity within a batch");
            for v in row {
                match v {
                    PlainValue::Null => out.push(0),
                    PlainValue::Int(i) => {
                        out.push(1);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    PlainValue::Str(s) => {
                        out.push(2);
                        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        out.extend_from_slice(s.as_bytes());
                    }
                    PlainValue::Date(m) => {
                        out.push(3);
                        out.extend_from_slice(&m.to_le_bytes());
                    }
                }
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Batch, PileError> {
        let seq = cur.u64()?;
        let first_row = cur.u64()?;
        let name_len = cur.u16()? as usize;
        let table = String::from_utf8(cur.bytes(name_len)?.to_vec())
            .map_err(|_| cur.corrupt("table name is not UTF-8"))?;
        let n_rows = cur.u32()? as usize;
        let arity = cur.u32()? as usize;
        // A checksummed record never legitimately decodes to absurd
        // shapes; bound them so `Corrupt` beats an OOM abort.
        if n_rows > crate::wal::MAX_RECORD_LEN as usize || arity > u16::MAX as usize {
            return Err(cur.corrupt("implausible batch shape"));
        }
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(match cur.u8()? {
                    0 => PlainValue::Null,
                    1 => PlainValue::Int(cur.i64()?),
                    2 => {
                        let len = cur.u32()? as usize;
                        let s = String::from_utf8(cur.bytes(len)?.to_vec())
                            .map_err(|_| cur.corrupt("string cell is not UTF-8"))?;
                        PlainValue::Str(s)
                    }
                    3 => PlainValue::Date(cur.i64()?),
                    tag => return Err(cur.corrupt(&format!("unknown value tag {tag}"))),
                });
            }
            rows.push(row);
        }
        Ok(Batch {
            seq,
            table,
            first_row,
            rows,
        })
    }
}

/// Bounds-checked sequential reader over one record payload; every
/// overrun is a typed [`PileError::Corrupt`] carrying the record's file
/// offset.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    file: &'a str,
    record_offset: u64,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], file: &'a str, record_offset: u64) -> Cursor<'a> {
        Cursor {
            buf,
            pos: 0,
            file,
            record_offset,
        }
    }

    fn corrupt(&self, what: &str) -> PileError {
        PileError::Corrupt {
            file: self.file.to_string(),
            offset: self.record_offset,
            what: what.to_string(),
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], PileError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt("payload ends mid-field"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, PileError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PileError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, PileError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, PileError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, PileError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// --------------------------------------------------------------- recovery

/// What opening a durable store found and did. `dropped` entries are data
/// loss (torn tails, discontinuities — surfaced as operator warnings);
/// `notes` are informational repairs (an empty file initialized).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Checkpointed segment records recovered from the pile.
    pub pile_segments: usize,
    /// Batches recovered from pile segments.
    pub pile_batches: usize,
    /// Batches recovered from the WAL (after deduplication).
    pub wal_batches: usize,
    /// WAL batches skipped because a pile checkpoint already covered them
    /// (the crash-between-checkpoint-and-reset window).
    pub skipped_wal_batches: usize,
    /// Total rows recovered.
    pub rows: u64,
    /// Bytes truncated off the pile's tail.
    pub pile_truncated_bytes: u64,
    /// Bytes truncated off the WAL's tail.
    pub wal_truncated_bytes: u64,
    /// Data dropped to restore consistency — each entry is a loss an
    /// operator should hear about.
    pub dropped: Vec<String>,
    /// Informational repairs (nothing was lost).
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// Total batches recovered (pile + WAL).
    pub fn batches(&self) -> usize {
        self.pile_batches + self.wal_batches
    }

    /// Whether anything that was once written had to be dropped.
    pub fn lost_data(&self) -> bool {
        !self.dropped.is_empty()
    }

    /// One-line operator summary.
    pub fn summary(&self) -> String {
        format!(
            "recovered {} batch(es) / {} row(s) ({} from {} pile segment(s), {} from wal, \
             {} wal duplicate(s) skipped); dropped: {}",
            self.batches(),
            self.rows,
            self.pile_batches,
            self.pile_segments,
            self.wal_batches,
            self.skipped_wal_batches,
            if self.dropped.is_empty() {
                "nothing".to_string()
            } else {
                self.dropped.join("; ")
            }
        )
    }

    /// The operator warnings this recovery should surface (one per drop).
    pub fn warnings(&self) -> Vec<String> {
        self.dropped
            .iter()
            .map(|d| format!("recovery dropped data: {d}"))
            .collect()
    }
}

// ------------------------------------------------------------------ store

/// The durable store: a pile of checkpointed segments plus a WAL for the
/// batches since the last checkpoint. See the module docs for the format
/// and the crash-safety contract.
pub struct DurableStore {
    pile: RecordFile,
    wal: RecordFile,
    policy: Durability,
    /// WAL rows that trigger a checkpoint (a sealed segment's worth).
    checkpoint_rows: usize,
    /// Batches currently in the WAL, retained for the next checkpoint.
    pending: Vec<Batch>,
    pending_rows: usize,
    /// Per-table end of durable data (global row offsets).
    tail: HashMap<String, u64>,
}

impl DurableStore {
    /// The WAL path that accompanies pile `path` (`<path>.wal`).
    pub fn wal_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(".wal");
        PathBuf::from(name)
    }

    /// Opens (creating if absent) the pile at `path` and its WAL,
    /// recovers every surviving batch, and returns the store positioned
    /// to append. The recovered batches are in replay order; feed them to
    /// [`replay_into`] (or one [`ShardedEngine::ingest`] each to rebuild
    /// the epoch chain batch-for-batch).
    ///
    /// [`ShardedEngine::ingest`]: crate::ShardedEngine::ingest
    pub fn open(
        path: &Path,
        policy: Durability,
        checkpoint_rows: usize,
    ) -> Result<(DurableStore, Vec<Batch>, RecoveryReport), PileError> {
        let open_file = |p: &Path| -> Result<std::fs::File, PileError> {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(p)
                .map_err(|e| PileError::Io {
                    file: p.display().to_string(),
                    op: "open",
                    err: e.to_string(),
                })
        };
        let wal_path = Self::wal_path(path);
        let pile_media = Box::new(open_file(path)?);
        let wal_media = Box::new(open_file(&wal_path)?);
        Self::open_on(
            pile_media,
            wal_media,
            &path.display().to_string(),
            policy,
            checkpoint_rows,
        )
    }

    /// [`DurableStore::open`] over arbitrary [`Media`] — the entry point
    /// the fault-injection suite uses to run the production recovery code
    /// against in-memory and fault-wrapped bytes. `label` names the store
    /// in errors and reports.
    pub fn open_on(
        pile_media: Box<dyn Media>,
        wal_media: Box<dyn Media>,
        label: &str,
        policy: Durability,
        checkpoint_rows: usize,
    ) -> Result<(DurableStore, Vec<Batch>, RecoveryReport), PileError> {
        assert!(checkpoint_rows > 0, "checkpoint threshold must be positive");
        let mut report = RecoveryReport::default();

        // 1. The pile: decode each checkpointed segment, accept batches
        //    while they chain contiguously per table.
        let (mut pile, pile_payloads, pile_scan) =
            RecordFile::open(pile_media, label, PILE_MAGIC, FORMAT_VERSION)?;
        absorb_scan(&mut report, &pile_scan, label, true);
        let mut tail: HashMap<String, u64> = HashMap::new();
        let mut batches: Vec<Batch> = Vec::new();
        'pile: for (offset, payload) in &pile_payloads {
            let mut cur = Cursor::new(payload, label, *offset);
            if cur.u8()? != KIND_SEGMENT {
                return Err(cur.corrupt("expected a segment record"));
            }
            let n = cur.u32()? as usize;
            let mut segment = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                segment.push(Batch::decode(&mut cur)?);
            }
            if !cur.done() {
                return Err(cur.corrupt("trailing bytes after segment"));
            }
            for batch in &segment {
                if let Some(gap) = discontinuity(&tail, batch) {
                    // A hole in the middle of the pile: everything from
                    // this record on is unanchored. Keep the prefix.
                    let lost = pile.end() - offset;
                    pile.truncate_to(*offset)?;
                    report.pile_truncated_bytes += lost;
                    report.dropped.push(format!(
                        "pile segment at byte {offset} breaks continuity ({gap}); \
                         dropped it and the {lost} byte(s) after it"
                    ));
                    break 'pile;
                }
                tail.insert(batch.table.clone(), batch.end_row());
            }
            report.pile_segments += 1;
            report.pile_batches += segment.len();
            batches.extend(segment);
        }
        // The pile's durable frontier: WAL batches at or before it are
        // checkpoint duplicates, after it a discontinuity.
        let checkpointed = tail.clone();

        // 2. The WAL: skip batches a checkpoint already covers, accept
        //    contiguous continuations, truncate at any discontinuity.
        let wal_label = format!("{label}.wal");
        let (mut wal, wal_payloads, wal_scan) =
            RecordFile::open(wal_media, &wal_label, WAL_MAGIC, FORMAT_VERSION)?;
        absorb_scan(&mut report, &wal_scan, &wal_label, false);
        let mut pending: Vec<Batch> = Vec::new();
        for (offset, payload) in &wal_payloads {
            let mut cur = Cursor::new(payload, &wal_label, *offset);
            if cur.u8()? != KIND_BATCH {
                return Err(cur.corrupt("expected a batch record"));
            }
            let batch = Batch::decode(&mut cur)?;
            if !cur.done() {
                return Err(cur.corrupt("trailing bytes after batch"));
            }
            let covered = checkpointed.get(&batch.table).copied().unwrap_or(0);
            if batch.end_row() <= covered && report.pile_segments > 0 {
                // Already in a checkpointed segment: the crash landed
                // between a checkpoint's pile append and its WAL reset.
                report.skipped_wal_batches += 1;
                continue;
            }
            if let Some(gap) = discontinuity(&tail, &batch) {
                let lost = wal.end() - offset;
                wal.truncate_to(*offset)?;
                report.wal_truncated_bytes += lost;
                report.dropped.push(format!(
                    "wal batch at byte {offset} breaks continuity ({gap}); \
                     dropped it and the {lost} byte(s) after it"
                ));
                break;
            }
            tail.insert(batch.table.clone(), batch.end_row());
            pending.push(batch.clone());
            batches.push(batch);
        }
        report.wal_batches = pending.len();
        report.rows = batches.iter().map(|b| b.rows.len() as u64).sum();

        // 3. Skipped duplicates mean the interrupted WAL reset never
        //    happened — finish it now so the duplicates don't survive
        //    into the next recovery.
        let pending_rows = pending.iter().map(|b| b.rows.len()).sum();
        let mut store = DurableStore {
            pile,
            wal,
            policy,
            checkpoint_rows,
            pending,
            pending_rows,
            tail,
        };
        if report.skipped_wal_batches > 0 {
            store.rewrite_wal()?;
            report.notes.push(format!(
                "completed an interrupted checkpoint ({} duplicate wal batch(es) retired)",
                report.skipped_wal_batches
            ));
        }
        Ok((store, batches, report))
    }

    /// The store's fsync policy.
    pub fn policy(&self) -> Durability {
        self.policy
    }

    /// Rows sitting in the WAL, not yet consolidated into the pile.
    pub fn pending_rows(&self) -> usize {
        self.pending_rows
    }

    /// The durable end (global row offset) for `table`, if any batch for
    /// it has ever been recorded.
    pub fn durable_end(&self, table: &str) -> Option<u64> {
        self.tail.get(table).copied()
    }

    /// Appends one acknowledged batch: WAL record, fsync per policy, and
    /// a pile checkpoint when a segment's worth of rows has accumulated.
    /// On `Ok` the batch is durable to the promised degree — callers
    /// acknowledge *after* this returns. On `Err` nothing logical was
    /// appended (a torn partial write is repaired by the next open).
    pub fn append(&mut self, batch: Batch) -> Result<(), PileError> {
        if let Some(&end) = self.tail.get(&batch.table) {
            if batch.first_row != end {
                return Err(PileError::BaseMismatch {
                    table: batch.table.clone(),
                    expected: end,
                    found: batch.first_row,
                });
            }
        }
        let mut payload = Vec::with_capacity(64 + 16 * batch.rows.len());
        payload.push(KIND_BATCH);
        batch.encode(&mut payload);
        self.wal.append(&payload)?;
        if self.policy == Durability::Strict {
            self.wal.sync()?;
        }
        self.tail.insert(batch.table.clone(), batch.end_row());
        self.pending_rows += batch.rows.len();
        self.pending.push(batch);
        self.checkpoint_if_due(false)
    }

    /// Rewrites the WAL to hold exactly the pending (un-checkpointed)
    /// batches — the tail end of an interrupted checkpoint, whose pile
    /// record landed but whose WAL reset did not. The pile already holds
    /// the skipped batches durably, so resetting first is safe.
    fn rewrite_wal(&mut self) -> Result<(), PileError> {
        self.wal.reset()?;
        let pending = std::mem::take(&mut self.pending);
        for batch in &pending {
            let mut payload = Vec::with_capacity(64 + 16 * batch.rows.len());
            payload.push(KIND_BATCH);
            batch.encode(&mut payload);
            self.wal.append(&payload)?;
        }
        self.pending = pending;
        if self.policy == Durability::Strict {
            self.wal.sync()?;
        }
        Ok(())
    }

    /// Consolidates the pending WAL batches into one pile segment record
    /// when they reach the checkpoint threshold (or unconditionally with
    /// `force`, used to finish an interrupted checkpoint). Ordering is
    /// the crash-safety crux: the pile record is written *and fsynced*
    /// before the WAL is reset, so every crash point leaves the batches
    /// in at least one file (both, in the window between — recovery
    /// deduplicates).
    fn checkpoint_if_due(&mut self, force: bool) -> Result<(), PileError> {
        if self.pending.is_empty() || (!force && self.pending_rows < self.checkpoint_rows) {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(64 + 16 * self.pending_rows);
        payload.push(KIND_SEGMENT);
        payload.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        for batch in &self.pending {
            batch.encode(&mut payload);
        }
        self.pile.append(&payload)?;
        // Checkpoints are always synced — even relaxed mode never trades
        // away a sealed segment — and synced *before* the WAL reset.
        self.pile.sync()?;
        self.wal.reset()?;
        if self.policy == Durability::Strict {
            self.wal.sync()?;
        }
        self.pending.clear();
        self.pending_rows = 0;
        Ok(())
    }
}

/// `None` if `batch` chains onto the current tails (the first batch for a
/// table anchors that table's numbering), otherwise a description of the
/// break.
fn discontinuity(tail: &HashMap<String, u64>, batch: &Batch) -> Option<String> {
    match tail.get(&batch.table) {
        None => None,
        Some(&end) if batch.first_row == end => None,
        Some(&end) => Some(format!(
            "`{}` continues at row {end} but the batch starts at row {}",
            batch.table, batch.first_row
        )),
    }
}

fn absorb_scan(report: &mut RecoveryReport, scan: &ScanReport, label: &str, is_pile: bool) {
    if is_pile {
        report.pile_truncated_bytes += scan.truncated_bytes;
    } else {
        report.wal_truncated_bytes += scan.truncated_bytes;
    }
    for note in &scan.notes {
        if scan.truncated_bytes > 0 && note.contains("dropped") {
            report.dropped.push(format!("{label}: {note}"));
        } else {
            report.notes.push(format!("{label}: {note}"));
        }
    }
}

/// Replays recovered batches into `db` with plain inserts (strings
/// re-interned), validating that every batch starts exactly at the
/// table's current length — the database must be the same base state the
/// store was built over. Returns the rows inserted.
///
/// This is the bulk path a cold-starting service uses (insert everything,
/// build one engine); the differential suite instead replays one
/// [`ShardedEngine::ingest`](crate::ShardedEngine::ingest) per batch to
/// check every intermediate epoch.
pub fn replay_into(db: &mut Database, batches: &[Batch]) -> Result<u64, PileError> {
    let mut rows = 0u64;
    for batch in batches {
        let table = db.table_id(&batch.table)?;
        let len = db.table(table).len() as u64;
        if batch.first_row != len {
            return Err(PileError::BaseMismatch {
                table: batch.table.clone(),
                expected: batch.first_row,
                found: len,
            });
        }
        for row in &batch.rows {
            let values: Vec<Value> = row
                .iter()
                .map(|v| v.to_value(|s| db.str_value(s)))
                .collect();
            db.insert(table, values)?;
        }
        rows += batch.rows.len() as u64;
    }
    Ok(rows)
}

/// Encodes one materialized in-memory batch (`table`'s rows
/// `[first_row..]` of `db` are *not* consulted — the rows are passed in)
/// for [`DurableStore::append`]: resolves every value against `db`'s
/// pool.
pub fn plain_batch(
    db: &Database,
    seq: u64,
    table: &str,
    first_row: u64,
    rows: &[Vec<Value>],
) -> Batch {
    let pool = db.pool();
    Batch {
        seq,
        table: table.to_string(),
        first_row,
        rows: rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&v| PlainValue::from_value(v, pool))
                    .collect()
            })
            .collect(),
    }
}

/// The default checkpoint threshold: a sealed segment's worth of rows.
pub fn default_checkpoint_rows() -> usize {
    DEFAULT_SEGMENT_ROWS
}

// A convenience re-export so the fault-injection suite can say
// `pile::{FaultAfter, SharedMem}`.
pub use crate::wal::{FaultAfter, SharedMem};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    fn mem_pair() -> (SharedMem, SharedMem) {
        (SharedMem::new(), SharedMem::new())
    }

    fn open_mem(
        pile: &SharedMem,
        wal: &SharedMem,
        checkpoint_rows: usize,
    ) -> (DurableStore, Vec<Batch>, RecoveryReport) {
        DurableStore::open_on(
            Box::new(pile.clone()),
            Box::new(wal.clone()),
            "mem",
            Durability::Strict,
            checkpoint_rows,
        )
        .expect("open")
    }

    fn batch(seq: u64, first_row: u64, n: usize) -> Batch {
        Batch {
            seq,
            table: "Log".to_string(),
            first_row,
            rows: (0..n)
                .map(|i| {
                    vec![
                        PlainValue::Int(first_row as i64 + i as i64),
                        PlainValue::Str(format!("row-{first_row}-{i}")),
                        PlainValue::Date(60 * (i as i64)),
                        PlainValue::Null,
                    ]
                })
                .collect(),
        }
    }

    #[test]
    fn batches_round_trip_through_wal_and_pile() {
        let (pile, wal) = mem_pair();
        let written: Vec<Batch> = (0..5).map(|i| batch(i + 1, i * 3, 3)).collect();
        {
            let (mut store, recovered, report) = open_mem(&pile, &wal, 5);
            assert!(recovered.is_empty());
            assert!(!report.lost_data());
            for b in &written {
                store.append(b.clone()).unwrap();
            }
            // 15 rows with a 5-row threshold: checkpoints at batches 2
            // and 4, one batch left in the WAL.
            assert_eq!(store.pending_rows(), 3);
            assert_eq!(store.durable_end("Log"), Some(15));
        }
        let (_, recovered, report) = open_mem(&pile, &wal, 5);
        assert_eq!(recovered, written, "byte-faithful recovery");
        assert_eq!(report.batches(), 5);
        assert_eq!(report.rows, 15);
        assert!(report.pile_segments >= 2);
        assert!(!report.lost_data());
    }

    #[test]
    fn append_rejects_discontinuous_offsets() {
        let (pile, wal) = mem_pair();
        let (mut store, _, _) = open_mem(&pile, &wal, 100);
        store.append(batch(1, 0, 2)).unwrap();
        let err = store.append(batch(2, 5, 1)).unwrap_err();
        assert!(matches!(
            err,
            PileError::BaseMismatch {
                expected: 2,
                found: 5,
                ..
            }
        ));
        // The good batch is untouched.
        let (_, recovered, _) = open_mem(&pile, &wal, 100);
        assert_eq!(recovered.len(), 1);
    }

    #[test]
    fn checkpoint_crash_window_deduplicates_on_recovery() {
        // Construct the between-checkpoint-and-reset crash state by
        // splicing: store A (threshold too high to checkpoint) provides
        // the un-reset WAL; store B (same batches, low threshold)
        // provides the checkpointed pile.
        let batches: Vec<Batch> = (0..3).map(|i| batch(i + 1, i * 2, 2)).collect();
        let (pile_a, wal_a) = mem_pair();
        {
            let (mut a, _, _) = open_mem(&pile_a, &wal_a, 1000);
            for b in &batches {
                a.append(b.clone()).unwrap();
            }
        }
        let (pile_b, wal_b) = mem_pair();
        {
            let (mut b, _, _) = open_mem(&pile_b, &wal_b, 6);
            for x in &batches {
                b.append(x.clone()).unwrap();
            }
        }
        // Crash state: B's pile (checkpoint done) + A's WAL (reset not).
        let (_, recovered, report) = open_mem(&pile_b, &wal_a, 1000);
        assert_eq!(recovered, batches, "no duplicates, nothing lost");
        assert_eq!(report.skipped_wal_batches, 3);
        assert_eq!(report.pile_batches, 3);
        assert_eq!(report.wal_batches, 0);
        // The interrupted checkpoint was finished: a re-open of the same
        // media sees no duplicates left to skip.
        let (_, recovered, report) = open_mem(&pile_b, &wal_a, 1000);
        assert_eq!(recovered, batches);
        assert_eq!(report.skipped_wal_batches, 0);
    }

    #[test]
    fn wal_gap_truncates_and_reports() {
        // A WAL that *skips* rows relative to the pile (lost middle
        // records) must be cut at the discontinuity, not replayed with a
        // hole.
        let (pile_a, wal_a) = mem_pair();
        {
            let (mut a, _, _) = open_mem(&pile_a, &wal_a, 4);
            a.append(batch(1, 0, 4)).unwrap(); // checkpoints at 4 rows
            a.append(batch(2, 4, 1)).unwrap(); // stays in the WAL
        }
        // Splice in a WAL whose batch starts beyond the pile's end.
        let (pile_b, wal_b) = mem_pair();
        {
            let (mut b, _, _) = open_mem(&pile_b, &wal_b, 1000);
            b.append(batch(9, 7, 2)).unwrap();
        }
        let (_, recovered, report) = open_mem(&pile_a, &wal_b, 1000);
        assert_eq!(recovered.len(), 1, "only the pile's batch survives");
        assert_eq!(recovered[0].end_row(), 4);
        assert!(report.lost_data());
        assert!(report.wal_truncated_bytes > 0);
        assert!(
            report.dropped.iter().any(|d| d.contains("continuity")),
            "{:?}",
            report.dropped
        );
        // The WAL was physically repaired: reopening is clean.
        let (_, _, report) = open_mem(&pile_a, &wal_b, 1000);
        assert!(!report.lost_data());
    }

    #[test]
    fn multi_table_batches_track_independent_tails() {
        let (pile, wal) = mem_pair();
        let mut other = batch(2, 100, 2);
        other.table = "Audit".to_string();
        {
            let (mut store, _, _) = open_mem(&pile, &wal, 1000);
            store.append(batch(1, 0, 3)).unwrap();
            store.append(other.clone()).unwrap();
            assert_eq!(store.durable_end("Log"), Some(3));
            assert_eq!(store.durable_end("Audit"), Some(102));
        }
        let (_, recovered, report) = open_mem(&pile, &wal, 1000);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1], other);
        assert!(!report.lost_data());
    }

    #[test]
    fn replay_into_round_trips_values_and_checks_the_base() {
        use crate::types::DataType;
        let mut db = Database::new();
        let log = db
            .create_table(
                "Log",
                &[
                    ("Lid", DataType::Int),
                    ("Name", DataType::Str),
                    ("Date", DataType::Date),
                    ("Extra", DataType::Int),
                ],
            )
            .unwrap();
        let batches = vec![batch(1, 0, 3), batch(2, 3, 2)];
        assert_eq!(replay_into(&mut db, &batches).unwrap(), 5);
        assert_eq!(db.table(log).len(), 5);
        let row = db.table(log).row(4).to_vec();
        assert_eq!(row[0], Value::Int(4));
        assert_eq!(row[1], Value::Str(db.pool().get("row-3-1").unwrap()));
        // Replaying against the wrong base is a typed error.
        let err = replay_into(&mut db, &batches).unwrap_err();
        assert!(matches!(err, PileError::BaseMismatch { .. }));
        // An unknown table is a typed error too.
        let mut fresh = Database::new();
        assert!(matches!(
            replay_into(&mut fresh, &batches),
            Err(PileError::Replay(Error::UnknownTable(_)))
        ));
    }

    #[test]
    fn relaxed_policy_still_syncs_checkpoints() {
        // Behavioral smoke: with a relaxed store, appends and checkpoints
        // both succeed on media whose sync is observable (SharedMem sync
        // is a no-op, so this is shape coverage; the policy split is
        // asserted structurally in the fault suite).
        let (pile, wal) = mem_pair();
        let (mut store, _, _) = DurableStore::open_on(
            Box::new(pile.clone()),
            Box::new(wal.clone()),
            "mem",
            Durability::Relaxed,
            4,
        )
        .expect("open");
        store.append(batch(1, 0, 5)).unwrap();
        assert_eq!(store.pending_rows(), 0, "checkpointed");
        let (_, recovered, _) = open_mem(&pile, &wal, 4);
        assert_eq!(recovered.len(), 1);
    }

    #[test]
    fn durability_parses_and_displays() {
        assert_eq!(Durability::parse("strict"), Some(Durability::Strict));
        assert_eq!(Durability::parse("relaxed"), Some(Durability::Relaxed));
        assert_eq!(Durability::parse("eventual"), None);
        assert_eq!(Durability::Strict.to_string(), "strict");
        assert_eq!(Durability::default(), Durability::Strict);
    }
}
