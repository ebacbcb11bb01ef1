//! The sharding proof: a differential suite pitting [`ShardedEngine`]
//! at shard counts {1, 2, 4} against an unsharded oracle — a plain
//! [`Database`] mutated in place, answered by a cold [`Engine`] per
//! epoch, sharing no publication code with the engine under test —
//! **byte for byte** across the whole audit surface.
//!
//! Every test renders the full audit answer — per-query support and
//! explained global row ids, the unexplained list, the recall/precision
//! confusion counts, the day-bucketed timeline, the misuse triage queue,
//! and per-patient portal reports — to one transcript string, and
//! asserts the scatter-gather transcript equals the oracle's exactly:
//!
//! * under proptest-driven ingest/pin interleavings (random batch sizes,
//!   including empty batches), at every published epoch;
//! * for epoch vectors pinned mid-run: their transcripts must not drift
//!   by a byte while later ingests publish — the single-epoch pinning
//!   guarantee carried over to the vector;
//! * at the degenerate boundaries: shard count 1, every row hashed to
//!   one shard, and partitions with structurally empty shards;
//! * under real reader/writer concurrency (the `tests/common` harness),
//!   where pinned vectors are re-rendered while a writer ingests.

mod common;

use common::AuditWorld;
use eba::audit::{metrics, portal, timeline};
use eba::relational::{Database, Engine, EpochVec, EvalOptions, ShardKey, ShardedEngine, Value};
use proptest::prelude::*;

/// The partition key every test shards by — the spec's patient column,
/// exactly what the serving layer uses.
fn key(world: &AuditWorld) -> ShardKey {
    ShardKey {
        table: world.spec.table,
        col: world.spec.patient_col,
    }
}

/// One patient's portal report: `(global row, lid, date, user, text)`
/// tuples, as rendered into the differential transcripts below.
type PatientReport = Vec<(u32, Value, Value, Value, String)>;

/// Patients whose portal reports the transcript includes (first, middle,
/// last of the pool — enough to cross shard boundaries at any count).
fn report_patients(world: &AuditWorld) -> Vec<Value> {
    let p = &world.patients;
    vec![p[0], p[p.len() / 2], p[p.len() - 1]]
}

/// Renders one shard-agnostic audit transcript from closures producing
/// each view, so the oracle and the scatter-gather path share the exact
/// same rendering (any divergence is then in the *answers*).
#[allow(clippy::too_many_arguments)]
fn render(
    world: &AuditWorld,
    seq: u64,
    log_len: usize,
    per_query: Vec<(usize, Vec<u32>)>,
    unexplained: Vec<u32>,
    confusion: &eba::audit::metrics::Confusion,
    t: &eba::audit::timeline::Timeline,
    misuse: &[portal::SuspectSummary],
    reports: &[PatientReport],
) -> String {
    let mut out = format!("epoch {seq} log {log_len}\n");
    for (i, (support, rows)) in per_query.iter().enumerate() {
        out.push_str(&format!("q{i} support {support} rows {rows:?}\n"));
    }
    out.push_str(&format!("unexplained {unexplained:?}\n"));
    out.push_str(&format!(
        "confusion real {}/{} fake {}/{} with_events {}\n",
        confusion.real_explained,
        confusion.real_total,
        confusion.fake_explained,
        confusion.fake_total,
        confusion.real_with_events
    ));
    for s in &t.days {
        out.push_str(&format!(
            "day {} {} {} {} {}\n",
            s.day, s.total, s.explained, s.first_accesses, s.first_explained
        ));
    }
    out.push_str(&format!(
        "overflow {} {} {} {} dropped {}\n",
        t.overflow.total,
        t.overflow.explained,
        t.overflow.first_accesses,
        t.overflow.first_explained,
        t.dropped()
    ));
    for s in misuse {
        out.push_str(&format!(
            "suspect {:?} {} {}\n",
            s.user, s.unexplained, s.distinct_patients
        ));
    }
    for (p, entries) in report_patients(world).iter().zip(reports) {
        out.push_str(&format!("report {p:?}\n"));
        for (row, lid, date, user, text) in entries {
            out.push_str(&format!("  {row} {lid:?} {date:?} {user:?} {text}\n"));
        }
    }
    out
}

/// The oracle's transcript at epoch `seq`, whose state is `db`: a cold
/// engine built for this epoch alone answers every view.
fn oracle_transcript(world: &AuditWorld, seq: u64, db: &Database) -> String {
    let spec = &world.spec;
    let engine = Engine::new(db);
    let per_query = world
        .suite()
        .iter()
        .map(|q| {
            (
                engine
                    .support(db, q, EvalOptions::default())
                    .expect("suite evaluates"),
                engine
                    .explained_rows(db, q, EvalOptions::default())
                    .expect("suite evaluates"),
            )
        })
        .collect();
    let unexplained = world.explainer.unexplained_rows_with(db, spec, &engine);
    let templates: Vec<_> = world.explainer.templates().iter().collect();
    let confusion = metrics::evaluate_with(db, spec, &templates, None, None, &engine);
    let t = timeline::daily_stats_with(
        db,
        spec,
        &world.hospital.log_cols,
        &world.explainer,
        world.hospital.config.days,
        &engine,
    );
    let misuse = portal::misuse_summary_with(db, spec, &world.explainer, &engine);
    let reports: Vec<PatientReport> = report_patients(world)
        .iter()
        .map(|&p| {
            portal::patient_report(db, spec, &world.hospital.log_cols, &world.explainer, p)
                .expect("report evaluates")
                .into_iter()
                .map(|e| (e.row, e.lid, e.date, e.user, e.display_text().to_string()))
                .collect()
        })
        .collect();
    render(
        world,
        seq,
        db.table(spec.table).len(),
        per_query,
        unexplained,
        &confusion,
        &t,
        &misuse,
        &reports,
    )
}

/// The scatter-gather transcript at one epoch vector. Row ids are global,
/// so a correct implementation renders byte-identically to the oracle.
fn sharded_transcript(world: &AuditWorld, epochs: &EpochVec) -> String {
    let spec = &world.spec;
    let per_query = world
        .suite()
        .iter()
        .map(|q| {
            (
                epochs
                    .support(q, EvalOptions::default())
                    .expect("suite evaluates"),
                epochs
                    .explained_rows(q, EvalOptions::default())
                    .expect("suite evaluates"),
            )
        })
        .collect();
    let unexplained = world.explainer.unexplained_rows_at_shards(spec, epochs);
    let templates: Vec<_> = world.explainer.templates().iter().collect();
    let confusion = metrics::evaluate_at_shards(spec, &templates, None, None, epochs);
    let t = timeline::daily_stats_at_shards(
        spec,
        &world.hospital.log_cols,
        &world.explainer,
        world.hospital.config.days,
        epochs,
    );
    let misuse = portal::misuse_summary_at_shards(spec, &world.explainer, epochs);
    let reports: Vec<PatientReport> = report_patients(world)
        .iter()
        .map(|&p| {
            portal::patient_report_at_shards(
                spec,
                &world.hospital.log_cols,
                &world.explainer,
                p,
                epochs,
            )
            .expect("report evaluates")
            .into_iter()
            .map(|e| (e.row, e.lid, e.date, e.user, e.display_text().to_string()))
            .collect()
        })
        .collect();
    render(
        world,
        epochs.seq(),
        epochs.global_log_len(),
        per_query,
        unexplained,
        &confusion,
        &t,
        &misuse,
        &reports,
    )
}

/// Applies `mutate` to the oracle database in place and returns the log
/// rows it appended — the batch the sharded engine ingests next.
fn grow_oracle(
    world: &AuditWorld,
    oracle: &mut Database,
    mutate: impl FnOnce(&mut Database),
) -> Vec<Vec<Value>> {
    let before = oracle.table(world.spec.table).len();
    mutate(oracle);
    let log = oracle.table(world.spec.table);
    (before..log.len())
        .map(|r| log.row(r as u32).to_vec())
        .collect()
}

/// Ingests `rows` (already valid against the oracle's database, strings
/// re-interned through the batch so shard pools stay aligned) into the
/// sharded engine.
fn ingest_rows(sharded: &ShardedEngine, source: &Database, rows: &[Vec<Value>]) {
    sharded.ingest(|batch| {
        for row in rows {
            let mapped: Vec<Value> = row
                .iter()
                .map(|v| match v {
                    Value::Str(s) => batch.str_value(source.pool().resolve(*s)),
                    other => *other,
                })
                .collect();
            batch.insert_log(mapped).expect("valid log row");
        }
    });
}

/// Drives the oracle and one sharded engine through the same batch
/// sequence, comparing transcripts at every epoch and re-checking every
/// pinned vector at the end (the mid-ingest pinning guarantee).
fn run_differential(world: &AuditWorld, n_shards: usize, batches: &[(usize, u64)]) {
    let mut oracle = world.hospital.db.clone();
    let sharded = ShardedEngine::new(world.hospital.db.clone(), key(world), n_shards);

    let mut pinned: Vec<(std::sync::Arc<EpochVec>, String)> = Vec::new();
    let expect = oracle_transcript(world, 0, &oracle);
    assert_eq!(
        sharded_transcript(world, &sharded.load()),
        expect,
        "{n_shards} shards diverged at the base epoch"
    );
    pinned.push((sharded.load(), expect));

    for (b, &(count, seed)) in batches.iter().enumerate() {
        // The oracle ingests the canonical batch; the sharded engine gets
        // the exact same rows, routed by hash.
        let rows = grow_oracle(world, &mut oracle, |db| world.inject_batch(db, count, seed));
        ingest_rows(&sharded, &oracle, &rows);

        let seq = b as u64 + 1;
        let vec = sharded.load();
        assert_eq!(vec.seq(), seq, "batch {b}");
        assert_eq!(
            vec.global_log_len(),
            oracle.table(world.spec.table).len(),
            "batch {b}"
        );
        let expect = oracle_transcript(world, seq, &oracle);
        assert_eq!(
            sharded_transcript(world, &vec),
            expect,
            "{n_shards} shards diverged after batch {b} ({count} rows)"
        );
        pinned.push((vec, expect));
    }

    // Every vector pinned mid-run still answers byte-identically — later
    // publications must not have touched a pinned shard epoch.
    for (i, (vec, expect)) in pinned.iter().enumerate() {
        assert_eq!(
            &sharded_transcript(world, vec),
            expect,
            "{n_shards} shards: the vector pinned at epoch {i} drifted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline differential: random ingest sequences (sizes include
    /// 0 — an empty publication), every epoch and every mid-run pin
    /// byte-identical to the oracle at shard counts 1, 2, and 4.
    #[test]
    fn sharded_engine_matches_the_oracle_byte_for_byte(
        batches in prop::collection::vec((0usize..18, 0u64..1000), 1..4)
    ) {
        let world = AuditWorld::tiny(41);
        for n_shards in [1usize, 2, 4] {
            run_differential(&world, n_shards, &batches);
        }
    }
}

/// Shard count 1 is *the* single engine: same epochs, same answers, no
/// special-casing anywhere on the read path.
#[test]
fn one_shard_is_the_single_engine() {
    let world = AuditWorld::tiny(43);
    run_differential(&world, 1, &[(12, 7), (0, 8), (5, 9)]);
    let sharded = ShardedEngine::new(world.hospital.db.clone(), key(&world), 1);
    let vec = sharded.load();
    assert_eq!(vec.shard_count(), 1);
    assert_eq!(vec.shards()[0].log_len(), vec.global_log_len());
    // Global ids and local ids coincide.
    for g in [0u32, 1, (vec.global_log_len() - 1) as u32] {
        assert_eq!(vec.locate(g), Some((0, g)));
    }
}

/// Skew torture: every ingested row names the same patient, so one shard
/// takes the whole stream while the others idle — answers still match.
#[test]
fn all_new_rows_in_one_shard_still_match_the_oracle() {
    let world = AuditWorld::tiny(47);
    let mut oracle = world.hospital.db.clone();
    let sharded = ShardedEngine::new(world.hospital.db.clone(), key(&world), 4);
    let patient = world.patients[0];
    let shard_counts_before: Vec<usize> = sharded
        .load()
        .shards()
        .iter()
        .map(|s| s.log_len())
        .collect();
    let target = {
        let vec = sharded.load();
        vec.shard_of_value(&patient)
    };

    for round in 0..3u64 {
        let rows = grow_oracle(&world, &mut oracle, |db| {
            // Hand-rolled skewed batch: distinct lids, one patient.
            let cols = &world.hospital.log_cols;
            let arity = db.table(world.spec.table).schema().arity();
            for i in 0..10u64 {
                let mut row = vec![Value::Null; arity];
                row[cols.lid] = Value::Int(1_000_000 + (round * 100 + i) as i64);
                row[cols.user] = world.users[(i as usize) % world.users.len()];
                row[cols.patient] = patient;
                row[cols.date] = Value::Date((1 + round as i64) * 24 * 60);
                db.insert(world.spec.table, row).expect("valid row");
            }
        });
        ingest_rows(&sharded, &oracle, &rows);

        let vec = sharded.load();
        // All 30-so-far new rows landed on the patient's shard; every
        // other shard is exactly its base size.
        for (s, shard) in vec.shards().iter().enumerate() {
            let expected = shard_counts_before[s]
                + if s == target {
                    10 * (round as usize + 1)
                } else {
                    0
                };
            assert_eq!(shard.log_len(), expected, "shard {s} after round {round}");
        }
        assert_eq!(
            sharded_transcript(&world, &vec),
            oracle_transcript(&world, round + 1, &oracle),
            "skewed round {round} diverged"
        );
    }
}

/// Structurally empty shards (more shards than occupied hash buckets)
/// scatter-gather cleanly: the empty shard contributes nothing and the
/// merged answers still match the oracle.
#[test]
fn empty_shards_answer_like_the_oracle() {
    let world = AuditWorld::tiny(53);
    // Find a shard count that leaves at least one shard empty for this
    // seed (guaranteed to exist once n exceeds the distinct patient
    // count; found much earlier in practice).
    let mut chosen = None;
    for n in 2..=128usize {
        let sharded = ShardedEngine::new(world.hospital.db.clone(), key(&world), n);
        if sharded.load().shards().iter().any(|s| s.log_len() == 0) {
            chosen = Some((n, sharded));
            break;
        }
    }
    let (n, sharded) = chosen.expect("some shard count yields an empty shard");
    let mut oracle = world.hospital.db.clone();
    assert_eq!(
        sharded_transcript(&world, &sharded.load()),
        oracle_transcript(&world, 0, &oracle),
        "{n} shards (with an empty shard) diverged at the base epoch"
    );

    // Ingest through the empty-shard layout and re-verify.
    let rows = grow_oracle(&world, &mut oracle, |db| world.inject_batch(db, 20, 0xE0));
    ingest_rows(&sharded, &oracle, &rows);
    assert_eq!(
        sharded_transcript(&world, &sharded.load()),
        oracle_transcript(&world, 1, &oracle),
        "{n} shards (with an empty shard) diverged after ingest"
    );
}

/// The concurrency guarantee at the vector level: reader threads pin
/// epoch vectors and re-render them while a writer publishes — pinned
/// transcripts must be byte-stable, fresh loads must always see a fully
/// published vector (seq, global length, and per-shard lengths agree).
#[test]
fn pinned_vectors_are_byte_stable_under_concurrent_ingest() {
    let world = AuditWorld::tiny(59);
    let n_shards = common::test_shards().max(2);
    let sharded = ShardedEngine::new(world.hospital.db.clone(), key(&world), n_shards);
    let mut oracle = world.hospital.db.clone();
    let rounds = 4u64;
    let per_batch = 15usize;
    let base_len = world.hospital.log_len();

    // Pre-compute each epoch's oracle transcript so readers can check
    // whatever seq they observe without racing the oracle itself.
    let mut oracle_by_seq = vec![oracle_transcript(&world, 0, &oracle)];
    let mut batches: Vec<Vec<Vec<Value>>> = Vec::new();
    for round in 0..rounds {
        batches.push(grow_oracle(&world, &mut oracle, |db| {
            world.inject_batch(db, per_batch, 0xC0 + round)
        }));
        oracle_by_seq.push(oracle_transcript(&world, round + 1, &oracle));
    }

    common::readers_vs_writer(
        3,
        |i, done| {
            let pinned = sharded.load();
            let first = sharded_transcript(&world, &pinned);
            assert_eq!(first, oracle_by_seq[pinned.seq() as usize]);
            common::reader_loop(done, |iter| {
                // The pin never drifts...
                assert_eq!(
                    sharded_transcript(&world, &pinned),
                    first,
                    "reader {i}: pinned vector drifted at iteration {iter}"
                );
                // ...and every fresh load is a complete publication whose
                // transcript matches the oracle at the same seq.
                let vec = sharded.load();
                let seq = vec.seq() as usize;
                assert_eq!(
                    vec.global_log_len(),
                    base_len + seq * per_batch,
                    "torn vector: seq and length disagree"
                );
                assert_eq!(
                    vec.shards().iter().map(|s| s.log_len()).sum::<usize>(),
                    vec.global_log_len(),
                    "torn vector: shard lengths disagree with the total"
                );
                assert_eq!(
                    sharded_transcript(&world, &vec),
                    oracle_by_seq[seq],
                    "reader {i}: live vector diverged from the oracle at seq {seq}"
                );
            });
        },
        || {
            for rows in &batches {
                ingest_rows(&sharded, &oracle, rows);
            }
        },
    );
    assert_eq!(sharded.seq(), rounds);
    assert_eq!(
        sharded_transcript(&world, &sharded.load()),
        oracle_by_seq[rounds as usize]
    );
}
