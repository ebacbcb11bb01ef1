//! Shared scaffolding for the concurrency suites: the synthetic audit
//! world, the readers-vs-writer thread harness, and the epoch-agreement
//! log. Used by both the library-level stress test
//! (`tests/engine_equivalence.rs`) and the socket-level server suite
//! (`tests/server_e2e.rs`) — the same invariants, checked at two layers.

#![allow(dead_code)] // each test binary uses the subset it needs

pub mod chaos;

use eba::audit::fake::FakeLog;
use eba::audit::handcrafted::HandcraftedTemplates;
use eba::audit::Explainer;
use eba::core::LogSpec;
use eba::relational::{Batch, ChainQuery, ShardKey, ShardedBatch, StringPool, Table, Value};
use eba::synth::{Hospital, SynthConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Shard count the concurrency suites run at, from `EBA_TEST_SHARDS`
/// (CI runs the workspace at both `1` and `4`); defaults to 1, so a
/// plain `cargo test` exercises the degenerate single-shard engine.
/// `AuditService` constructors read the same variable through
/// [`eba::server::default_shard_count`], so the library- and socket-level
/// suites agree on the partition layout without threading a parameter.
pub fn test_shards() -> usize {
    std::env::var("EBA_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// The standard concurrency-test world: a tiny synthetic hospital, its
/// conventional log spec, the hand-crafted template suite, and the
/// user/patient pools an ingesting writer samples from.
pub struct AuditWorld {
    pub hospital: Hospital,
    pub spec: LogSpec,
    pub explainer: Explainer,
    pub users: Vec<Value>,
    pub patients: Vec<Value>,
}

impl AuditWorld {
    /// Builds the world at `tiny` scale with the given seed.
    pub fn tiny(seed: u64) -> AuditWorld {
        let config = SynthConfig {
            seed,
            ..SynthConfig::tiny()
        };
        let hospital = Hospital::generate(config);
        let spec = LogSpec::conventional(&hospital.db).expect("synthetic Log table");
        let t = HandcraftedTemplates::build(&hospital.db, &spec).expect("CareWeb schema");
        let explainer = Explainer::new(t.all().into_iter().cloned().collect());
        let users = eba::audit::fake::user_pool(&hospital.db);
        let patients: Vec<Value> = (0..hospital.world.n_patients())
            .map(|p| hospital.patient_value(p))
            .collect();
        AuditWorld {
            hospital,
            spec,
            explainer,
            users,
            patients,
        }
    }

    /// The suite lowered to chain queries, in template order.
    pub fn suite(&self) -> Vec<ChainQuery> {
        self.explainer
            .templates()
            .iter()
            .map(|t| t.path.to_chain_query(&self.spec))
            .collect()
    }

    /// The log partitioning a sharded engine over this world uses: the
    /// spec's patient column, exactly what the serving layer uses.
    pub fn key(&self) -> ShardKey {
        ShardKey {
            table: self.spec.table,
            col: self.spec.patient_col,
        }
    }

    /// Appends one batch of fake accesses to `db` (the writer's ingest
    /// payload; deterministic per `seed`).
    pub fn inject_batch(&self, db: &mut eba::relational::Database, count: usize, seed: u64) {
        FakeLog::inject(
            db,
            self.hospital.t_log,
            &self.hospital.log_cols,
            &self.users,
            &self.patients,
            count,
            self.hospital.config.days,
            seed,
        );
    }

    /// Stages the accesses [`AuditWorld::inject_batch`] would append to
    /// the same log through a sharded ingest batch.
    pub fn stage_batch(&self, batch: &mut ShardedBatch, count: usize, seed: u64) {
        let (log, cols) = (self.hospital.t_log, &self.hospital.log_cols);
        let next_lid = (0..batch.shard_count())
            .map(|s| FakeLog::next_lid(batch.db(s), log, cols))
            .max()
            .expect("at least one shard");
        let days = self.hospital.config.days;
        FakeLog::stage(
            batch,
            &self.users,
            &self.patients,
            count,
            days,
            seed,
            next_lid,
        );
    }
}

/// Replays one recovered durable batch of log rows through a sharded
/// ingest batch, re-interning its strings through the batch so the shard
/// pools stay aligned.
pub fn replay_batch(batch: &mut ShardedBatch, recovered: &Batch) {
    assert_eq!(
        recovered.first_row,
        batch.global_log_len() as u64,
        "recovered batches replay in order"
    );
    for row in &recovered.rows {
        let values = row
            .iter()
            .map(|v| v.to_value(|s| batch.str_value(s)))
            .collect();
        batch.insert_log(values).expect("recovered batches replay");
    }
}

/// Observations of published epochs, keyed by sequence number: whoever
/// sees an epoch first records its log length, and every later observer
/// of the same seq must agree — epochs are immutable, so disagreement
/// means a torn snapshot.
#[derive(Default)]
pub struct EpochLog {
    observed: Mutex<HashMap<u64, usize>>,
}

impl EpochLog {
    pub fn new() -> EpochLog {
        EpochLog::default()
    }

    /// Records one observation of epoch `seq` with `log_len` rows.
    pub fn observe(&self, seq: u64, log_len: usize) {
        let mut map = self.observed.lock().unwrap();
        let prior = map.insert(seq, log_len);
        assert!(
            prior.is_none_or(|len| len == log_len),
            "seq {seq}: observers disagree on the epoch's log length \
             ({prior:?} vs {log_len})"
        );
    }

    /// Asserts that exactly epochs `0..=rounds` were observed and that
    /// the log grew strictly with every publication.
    pub fn assert_log_grew_each_epoch(self, rounds: u64) {
        let map = self.observed.into_inner().unwrap();
        let mut lens: Vec<(u64, usize)> = map.into_iter().collect();
        lens.sort_unstable();
        assert_eq!(lens.len() as u64, rounds + 1, "every epoch was observed");
        for w in lens.windows(2) {
            assert!(w[0].1 < w[1].1, "log grows with every epoch: {lens:?}");
        }
    }
}

/// Asserts the segmented-storage epoch-sharing invariant: every sealed
/// row segment `older` had is present — **by pointer** (`Arc::ptr_eq`) —
/// at the same position in `newer`. A pinned old epoch and the freshly
/// published one thus share all but the newest rows; a failure means a
/// publication copied (or worse, mutated a clone of) sealed data.
pub fn assert_sealed_segments_shared(older: &Table, newer: &Table, what: &str) {
    let old_segs = older.sealed_row_segments();
    let new_segs = newer.sealed_row_segments();
    assert!(
        old_segs.len() <= new_segs.len(),
        "{what}: the newer epoch lost sealed segments ({} -> {})",
        old_segs.len(),
        new_segs.len()
    );
    for (i, (a, b)) in old_segs.iter().zip(new_segs).enumerate() {
        assert!(
            Arc::ptr_eq(a, b),
            "{what}: sealed segment {i} was copied instead of shared"
        );
    }
}

/// The same invariant for the string interner: every sealed symbol
/// segment and every sealed lookup layer of `older` is present by
/// pointer in `newer`. Interned strings dominate a long-lived log's
/// heap, so a publication that silently copied the pool would turn the
/// `O(batch)` epoch cost into `O(total strings)` without any row-segment
/// assertion noticing.
pub fn assert_interner_shared(older: &StringPool, newer: &StringPool, what: &str) {
    let old_segs = older.sealed_segments();
    let new_segs = newer.sealed_segments();
    assert!(
        old_segs.len() <= new_segs.len(),
        "{what}: the newer pool lost sealed symbol segments ({} -> {})",
        old_segs.len(),
        new_segs.len()
    );
    for (i, (a, b)) in old_segs.iter().zip(new_segs).enumerate() {
        assert!(
            Arc::ptr_eq(a, b),
            "{what}: interner symbol segment {i} was copied instead of shared"
        );
    }
    let old_layers = older.lookup_layers();
    let new_layers = newer.lookup_layers();
    assert!(
        old_layers.len() <= new_layers.len(),
        "{what}: the newer pool lost lookup layers ({} -> {})",
        old_layers.len(),
        new_layers.len()
    );
    for (i, (a, b)) in old_layers.iter().zip(new_layers).enumerate() {
        assert!(
            Arc::ptr_eq(a, b),
            "{what}: interner lookup layer {i} was copied instead of shared"
        );
    }
}

/// Runs `readers` concurrent reader loops against one writer: each
/// reader is called with the shared done flag and must keep observing
/// until it is set (observing at least once *after* it is set, so the
/// final epoch is always covered); the writer runs to completion on the
/// harness thread, then the flag flips. Panics in any thread fail the
/// test.
pub fn readers_vs_writer(
    readers: usize,
    reader: impl Fn(usize, &AtomicBool) + Sync,
    writer: impl FnOnce(),
) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for i in 0..readers {
            let done = &done;
            let reader = &reader;
            scope.spawn(move || reader(i, done));
        }
        writer();
        done.store(true, Ordering::Relaxed);
    });
}

/// The canonical reader loop shape: `body` runs once per iteration until
/// the done flag is observed set, and exactly once more afterwards (the
/// pre-read snapshot of the flag decides the exit, so the iteration that
/// sees `done` still runs in full).
pub fn reader_loop(done: &AtomicBool, mut body: impl FnMut(usize)) {
    let mut iterations = 0usize;
    loop {
        let finished = done.load(Ordering::Relaxed);
        body(iterations);
        iterations += 1;
        if finished {
            break;
        }
    }
    assert!(iterations > 0);
}
