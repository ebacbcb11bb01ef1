//! The fused-scan proof: the single-pass suite driver
//! ([`Engine::eval_suite`]) plus the compressed row-set algebra
//! ([`RowSet`]) must be **byte-identical** to the old per-template path
//! across the whole audit surface — per-query explained rows, the suite
//! union, the unexplained residue, recall/precision confusion counts, and
//! the day-bucketed timeline — at shard counts {1, 4}, including:
//!
//! * the empty template set (an empty fused pass over any database);
//! * overflow-day and NULL-dated rows (the timeline's overflow bucket);
//! * proptest-driven random worlds mixing NULLs, anchor filters,
//!   constant decorations, and anchor-dependent decorations, where the
//!   row-set algebra (union/intersect/difference/rank) is checked
//!   against a sorted-`Vec` reference over the *actual* evaluated sets.

mod common;

use common::AuditWorld;
use eba::audit::{metrics, portal, timeline};
use eba::relational::{
    ChainQuery, ChainStep, CmpOp, DataType, Database, Engine, EvalOptions, RowId, RowSet, ShardKey,
    ShardedEngine, TableId, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The old per-template reference: one `explained_rows` call per query,
/// exactly what `eval_suite` fuses into a single scan.
fn per_template_reference(
    engine: &Engine,
    db: &Database,
    queries: &[ChainQuery],
    opts: EvalOptions,
) -> Vec<Vec<RowId>> {
    queries
        .iter()
        .map(|q| engine.explained_rows(db, q, opts).expect("valid query"))
        .collect()
}

#[test]
fn fused_suite_matches_the_per_template_path_on_the_hospital() {
    for seed in [5u64, 23] {
        let world = AuditWorld::tiny(seed);
        let db = &world.hospital.db;
        let engine = Engine::new(db);
        let suite = world.suite();
        for dedup in [true, false] {
            let opts = EvalOptions { dedup };
            let reference = per_template_reference(&engine, db, &suite, opts);
            let fused = engine.eval_suite(db, &suite, opts);
            assert_eq!(fused.len(), suite.len());
            for (i, (set, expect)) in fused.into_iter().zip(&reference).enumerate() {
                let set = set.expect("valid query");
                assert_eq!(
                    &set.to_vec(),
                    expect,
                    "seed {seed} q{i} (dedup={dedup}): fused set diverged"
                );
                // The compressed set agrees with itself on every probe.
                assert_eq!(set.len(), expect.len());
                for &r in expect {
                    assert!(set.contains(r));
                }
            }
            // The fused union equals the set-union of the references.
            let union: BTreeSet<RowId> = reference.iter().flatten().copied().collect();
            let union_vec: Vec<RowId> = union.into_iter().collect();
            assert_eq!(
                engine
                    .explained_union_rowset(db, &suite, opts)
                    .expect("valid suite")
                    .to_vec(),
                union_vec,
                "seed {seed} (dedup={dedup}): fused union diverged"
            );
            let mut via_hashset: Vec<RowId> = engine
                .explained_union(db, &suite, opts)
                .expect("valid")
                .into_iter()
                .collect();
            via_hashset.sort_unstable();
            assert_eq!(via_hashset, union_vec);
        }
    }
}

#[test]
fn empty_template_set_is_an_empty_fused_pass() {
    let world = AuditWorld::tiny(11);
    let db = &world.hospital.db;
    let engine = Engine::new(db);
    let none: Vec<ChainQuery> = Vec::new();
    let opts = EvalOptions::default();
    assert!(engine.eval_suite(db, &none, opts).is_empty());
    let union = engine.explained_union_rowset(db, &none, opts).unwrap();
    assert!(union.is_empty());
    assert_eq!(union.to_vec(), Vec::<RowId>::new());
    // An explainer with no templates explains nothing and leaves every
    // anchor row unexplained — through the warm fused path too.
    let empty = eba::audit::Explainer::new(Vec::new());
    assert!(empty
        .explained_rows_with(db, &world.spec, &engine)
        .is_empty());
    assert_eq!(
        empty.unexplained_rows_with(db, &world.spec, &engine),
        metrics::anchor_rows(db, &world.spec)
    );
    // And the sharded fused path agrees at both CI shard counts.
    let key = ShardKey {
        table: world.spec.table,
        col: world.spec.patient_col,
    };
    for n in [1usize, 4] {
        let shards = ShardedEngine::new(world.hospital.db.clone(), key, n).load();
        assert!(shards.eval_suite(&none, opts).is_empty());
        assert!(shards
            .explained_union_rowset(&none, opts)
            .unwrap()
            .is_empty());
        assert_eq!(
            empty.unexplained_rows_at_shards(&world.spec, &shards),
            metrics::anchor_rows(db, &world.spec),
            "{n} shards"
        );
    }
}

/// Renders the audit surface to one transcript string — per-query rows,
/// union, unexplained, confusion, timeline — so the fused/warm path and
/// the cold per-query path are compared byte for byte.
fn audit_transcript(
    world: &AuditWorld,
    per_query: &[Vec<RowId>],
    explained_union: &[RowId],
    unexplained: &[RowId],
    confusion: &metrics::Confusion,
    t: &timeline::Timeline,
    misuse: &[portal::SuspectSummary],
) -> String {
    let mut out = String::new();
    for (i, rows) in per_query.iter().enumerate() {
        out.push_str(&format!("q{i} rows {rows:?}\n"));
    }
    out.push_str(&format!("union {explained_union:?}\n"));
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
    let _ = world;
    out
}

/// The cold per-query transcript: no engine anywhere on the path.
fn cold_transcript(world: &AuditWorld) -> String {
    let db = &world.hospital.db;
    let spec = &world.spec;
    let per_query: Vec<Vec<RowId>> = world
        .suite()
        .iter()
        .map(|q| q.explained_rows(db, EvalOptions::default()).unwrap())
        .collect();
    let templates: Vec<_> = world.explainer.templates().iter().collect();
    let mut union: Vec<RowId> = metrics::explained_union(db, spec, &templates)
        .into_iter()
        .collect();
    union.sort_unstable();
    audit_transcript(
        world,
        &per_query,
        &union,
        &world.explainer.unexplained_rows(db, spec),
        &metrics::evaluate(db, spec, &templates, None, None),
        &timeline::daily_stats(
            db,
            spec,
            &world.hospital.log_cols,
            &world.explainer,
            world.hospital.config.days,
        ),
        &portal::misuse_summary(db, spec, &world.explainer),
    )
}

/// The warm fused transcript over an engine.
fn fused_transcript(world: &AuditWorld, engine: &Engine) -> String {
    let db = &world.hospital.db;
    let spec = &world.spec;
    let per_query: Vec<Vec<RowId>> = engine
        .eval_suite(db, &world.suite(), EvalOptions::default())
        .into_iter()
        .map(|s| s.unwrap().to_vec())
        .collect();
    let templates: Vec<_> = world.explainer.templates().iter().collect();
    audit_transcript(
        world,
        &per_query,
        &metrics::explained_union_rowset_with(db, spec, &templates, engine).to_vec(),
        &world.explainer.unexplained_rows_with(db, spec, engine),
        &metrics::evaluate_with(db, spec, &templates, None, None, engine),
        &timeline::daily_stats_with(
            db,
            spec,
            &world.hospital.log_cols,
            &world.explainer,
            world.hospital.config.days,
            engine,
        ),
        &portal::misuse_summary_with(db, spec, &world.explainer, engine),
    )
}

/// The sharded fused transcript over an epoch vector.
fn sharded_fused_transcript(world: &AuditWorld, shards: &eba::relational::EpochVec) -> String {
    let spec = &world.spec;
    let per_query: Vec<Vec<RowId>> = shards
        .eval_suite(&world.suite(), EvalOptions::default())
        .into_iter()
        .map(|s| s.unwrap().to_vec())
        .collect();
    let templates: Vec<_> = world.explainer.templates().iter().collect();
    audit_transcript(
        world,
        &per_query,
        &metrics::explained_union_rowset_at_shards(spec, &templates, shards).to_vec(),
        &world.explainer.unexplained_rows_at_shards(spec, shards),
        &metrics::evaluate_at_shards(spec, &templates, None, None, shards),
        &timeline::daily_stats_at_shards(
            spec,
            &world.hospital.log_cols,
            &world.explainer,
            world.hospital.config.days,
            shards,
        ),
        &portal::misuse_summary_at_shards(spec, &world.explainer, shards),
    )
}

#[test]
fn fused_transcripts_are_byte_identical_with_overflow_day_rows() {
    let mut world = AuditWorld::tiny(31);
    // Plant rows the timeline cannot bucket: a date past the reporting
    // window, a negative date, and a NULL date — all must land in the
    // overflow bucket identically on every path.
    {
        let cols = &world.hospital.log_cols;
        let spec_table = world.spec.table;
        let arity = world.hospital.db.table(spec_table).schema().arity();
        let user = world.users[0];
        let patient = world.patients[0];
        for (i, date) in [
            Value::Date((world.hospital.config.days as i64 + 400) * 24 * 60),
            Value::Date(-5),
            Value::Null,
        ]
        .into_iter()
        .enumerate()
        {
            let mut row = vec![Value::Null; arity];
            row[cols.lid] = Value::Int(9_000_000 + i as i64);
            row[cols.user] = user;
            row[cols.patient] = patient;
            row[cols.date] = date;
            world
                .hospital
                .db
                .insert(spec_table, row)
                .expect("valid row");
        }
    }
    let expect = cold_transcript(&world);
    assert!(
        expect.contains("overflow 3")
            || world.hospital.config.days == 0
            || expect.lines().any(|l| l.starts_with("overflow ")),
        "the planted rows reached the overflow bucket:\n{expect}"
    );
    let engine = Engine::new(&world.hospital.db);
    assert_eq!(fused_transcript(&world, &engine), expect, "warm fused path");
    let key = ShardKey {
        table: world.spec.table,
        col: world.spec.patient_col,
    };
    for n in [1usize, 4] {
        let shards = ShardedEngine::new(world.hospital.db.clone(), key, n).load();
        assert_eq!(
            sharded_fused_transcript(&world, &shards),
            expect,
            "{n} shards fused path"
        );
    }
}

// --------------------------------------------------------------- proptest

/// A random two-hop world (same shape as `engine_equivalence.rs`):
/// Log(Lid, User, Patient), Event(Patient, Actor), Team(Member, Buddy),
/// NULL actors mixed in.
#[derive(Debug, Clone)]
struct RandomWorld {
    log_rows: Vec<(i64, i64, i64)>,
    event_rows: Vec<(i64, i64, bool)>,
    team_rows: Vec<(i64, i64)>,
}

fn random_world() -> impl Strategy<Value = RandomWorld> {
    (
        prop::collection::vec((0..40i64, 0..6i64, 0..8i64), 1..30),
        prop::collection::vec((0..8i64, 0..6i64, 0..10i64), 0..25),
        prop::collection::vec((0..6i64, 0..6i64), 0..15),
    )
        .prop_map(|(mut log_rows, event_rows, team_rows)| {
            for (i, r) in log_rows.iter_mut().enumerate() {
                r.0 = i as i64;
            }
            RandomWorld {
                log_rows,
                event_rows: event_rows
                    .into_iter()
                    .map(|(p, a, n)| (p, a, n == 0))
                    .collect(),
                team_rows,
            }
        })
}

fn materialize(w: &RandomWorld) -> (Database, TableId, TableId, TableId) {
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
    let team = db
        .create_table(
            "Team",
            &[("Member", DataType::Int), ("Buddy", DataType::Int)],
        )
        .unwrap();
    for &(lid, user, patient) in &w.log_rows {
        db.insert(
            log,
            vec![Value::Int(lid), Value::Int(user), Value::Int(patient)],
        )
        .unwrap();
    }
    for &(p, a, null_actor) in &w.event_rows {
        let actor = if null_actor {
            Value::Null
        } else {
            Value::Int(a)
        };
        db.insert(event, vec![Value::Int(p), actor]).unwrap();
    }
    for &(m, b) in &w.team_rows {
        db.insert(team, vec![Value::Int(m), Value::Int(b)]).unwrap();
    }
    (db, log, event, team)
}

/// The full query-class zoo the fused driver buckets: grouped
/// (non-anchor-dependent) chains, open chains, two-hop, anchor-filtered,
/// constant-decorated, and the per-row anchor-dependent class.
fn query_classes(log: TableId, event: TableId, team: TableId) -> Vec<ChainQuery> {
    let one_hop = ChainQuery {
        log,
        lid_col: 0,
        start_col: 2,
        steps: vec![ChainStep::new(event, 0, 1)],
        close_col: Some(1),
        anchor_filters: vec![],
    };
    let open = ChainQuery {
        close_col: None,
        ..one_hop.clone()
    };
    let two_hop = ChainQuery {
        log,
        lid_col: 0,
        start_col: 2,
        steps: vec![ChainStep::new(event, 0, 1), ChainStep::new(team, 0, 1)],
        close_col: Some(1),
        anchor_filters: vec![],
    };
    let filtered = ChainQuery {
        anchor_filters: vec![(1, CmpOp::Ge, Value::Int(3))],
        ..one_hop.clone()
    };
    let decorated = {
        let mut q = one_hop.clone();
        q.steps[0].filters.push(eba::relational::StepFilter {
            col: 1,
            op: CmpOp::Lt,
            rhs: eba::relational::Rhs::Const(Value::Int(3)),
        });
        q
    };
    let anchor_dep = {
        let mut q = one_hop.clone();
        q.steps[0].filters.push(eba::relational::StepFilter {
            col: 1,
            op: CmpOp::Le,
            rhs: eba::relational::Rhs::AnchorCol(1),
        });
        q
    };
    vec![one_hop, open, two_hop, filtered, decorated, anchor_dep]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused driver equals the per-template path per slot and in
    /// union, on random worlds, under both dedup settings — over the
    /// whole log, over a random anchor-row range, and over a random
    /// scattered anchor-row set (each restricted answer is the reference
    /// intersected with the domain) — and the row-set algebra over the
    /// evaluated sets equals a sorted-Vec reference.
    #[test]
    fn fused_driver_and_rowset_algebra_match_references(
        w in random_world(),
        range in (0..40usize, 0..20usize),
        runs in prop::collection::vec((0..45u32, 0..5u32), 0..6),
    ) {
        let (db, log, event, team) = materialize(&w);
        let engine = Engine::new(&db);
        let queries = query_classes(log, event, team);
        // A range that may be empty or run past the log's end, and a
        // scattered set of runs and singletons that may name rows past
        // the log (or be empty).
        let (lo, hi) = (range.0, range.0 + range.1);
        let scattered: BTreeSet<RowId> = runs.iter().flat_map(|&(s, n)| s..s + n).collect();
        let rows = RowSet::from_sorted_vec(&scattered.iter().copied().collect::<Vec<_>>());
        for dedup in [true, false] {
            let opts = EvalOptions { dedup };
            let reference: Vec<Vec<RowId>> = queries
                .iter()
                .map(|q| q.explained_rows(&db, opts).unwrap())
                .collect();
            let fused = engine.eval_suite(&db, &queries, opts);
            let mut sets = Vec::new();
            for (i, (set, expect)) in fused.into_iter().zip(&reference).enumerate() {
                let set = set.unwrap();
                prop_assert_eq!(&set.to_vec(), expect, "q{} (dedup={})", i, dedup);
                sets.push(set);
            }
            let ranged = engine.eval_suite_range(&db, &queries, opts, lo, hi);
            for (i, (set, expect)) in ranged.into_iter().zip(&reference).enumerate() {
                let expect: Vec<RowId> = expect
                    .iter()
                    .copied()
                    .filter(|&r| (lo..hi).contains(&(r as usize)))
                    .collect();
                prop_assert_eq!(
                    set.unwrap().to_vec(), expect,
                    "q{} over [{}, {}) (dedup={})", i, lo, hi, dedup
                );
            }
            let restricted = engine.eval_suite_rows(&db, &queries, opts, &rows);
            for (i, (set, expect)) in restricted.into_iter().zip(&reference).enumerate() {
                let expect: Vec<RowId> = expect
                    .iter()
                    .copied()
                    .filter(|r| scattered.contains(r))
                    .collect();
                prop_assert_eq!(
                    set.unwrap().to_vec(), expect,
                    "q{} over {:?} (dedup={})", i, scattered, dedup
                );
            }
            // Union: fused vs BTreeSet reference.
            let union_ref: Vec<RowId> = reference
                .iter()
                .flatten()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            prop_assert_eq!(
                engine.explained_union_rowset(&db, &queries, opts).unwrap().to_vec(),
                union_ref.clone(),
                "union (dedup={})", dedup
            );
            // Algebra over the actual evaluated sets: pairwise
            // intersect/difference and rank against sorted-Vec math.
            for a in 0..sets.len() {
                for b in (a + 1)..sets.len() {
                    let va: BTreeSet<RowId> = reference[a].iter().copied().collect();
                    let vb: BTreeSet<RowId> = reference[b].iter().copied().collect();
                    let inter: Vec<RowId> = va.intersection(&vb).copied().collect();
                    let diff: Vec<RowId> = va.difference(&vb).copied().collect();
                    prop_assert_eq!(sets[a].intersect(&sets[b]).to_vec(), inter);
                    prop_assert_eq!(sets[a].difference(&sets[b]).to_vec(), diff);
                }
                for (below, &r) in reference[a].iter().enumerate() {
                    prop_assert_eq!(sets[a].rank(r), below);
                }
            }
            // The unexplained residue as a bitmap difference equals the
            // filter-based complement over all log rows.
            let all = RowSet::from_sorted_vec(
                &(0..db.table(log).len() as RowId).collect::<Vec<_>>(),
            );
            let union_set = RowSet::from_sorted_vec(&union_ref);
            let residue: Vec<RowId> = (0..db.table(log).len() as RowId)
                .filter(|r| !union_ref.contains(r))
                .collect();
            prop_assert_eq!(all.difference(&union_set).to_vec(), residue);
        }
    }

    /// The sharded fused path equals the unsharded fused path (and hence
    /// the reference) at shard counts {1, 4}, including the empty suite.
    #[test]
    fn sharded_fused_path_matches_at_one_and_four_shards(w in random_world()) {
        let (db, log, event, team) = materialize(&w);
        let engine = Engine::new(&db);
        let queries = query_classes(log, event, team);
        let opts = EvalOptions::default();
        let expect: Vec<Vec<RowId>> = engine
            .eval_suite(&db, &queries, opts)
            .into_iter()
            .map(|s| s.unwrap().to_vec())
            .collect();
        let union = engine.explained_union_rowset(&db, &queries, opts).unwrap().to_vec();
        let key = ShardKey { table: log, col: 2 };
        for n in [1usize, 4] {
            let shards = ShardedEngine::new(db.clone(), key, n).load();
            let got: Vec<Vec<RowId>> = shards
                .eval_suite(&queries, opts)
                .into_iter()
                .map(|s| s.unwrap().to_vec())
                .collect();
            prop_assert_eq!(&got, &expect, "{} shards", n);
            prop_assert_eq!(
                shards.explained_union_rowset(&queries, opts).unwrap().to_vec(),
                union.clone(),
                "{} shards union", n
            );
            prop_assert!(shards.eval_suite(&[], opts).is_empty(), "{} shards empty suite", n);
        }
    }
}
