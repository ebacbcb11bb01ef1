//! Audit-performance tracker: the per-query audit layer vs the shared
//! warm [`Engine`], plus incremental snapshot refresh vs full rebuild.
//!
//! ```text
//! audit-bench [--json PATH] [--samples N] [--scale tiny|small|default|bench] [--append N]
//!             [--shards N]
//! ```
//!
//! The paper's operational loop is an auditor repeatedly asking "which
//! accesses does this template suite explain?" over an append-only log.
//! Three workload families measure that loop:
//!
//! * **warm-engine suite evaluation** (`suite/*`, `timeline/daily`,
//!   `portal/misuse`): the audit layer's per-query path (every call
//!   re-scans tables per template) vs one warm engine answering the suite
//!   as a fanned-out batch;
//! * **cold vs warm engine** (`engine/cold_build`): constructing a fresh
//!   engine per question vs holding one across questions;
//! * **sharded scatter-gather** (`shard/suite_scatter_gather{N}`): the
//!   suite evaluated by an N-shard [`eba_relational::ShardedEngine`]
//!   epoch vector — per-shard engines in parallel, global merge — vs the
//!   warm single engine (`--shards N` restricts the sweep to one count,
//!   the CI smoke runs `--shards 4`);
//! * **incremental append** (`refresh/append*`): `Engine::refresh` after a
//!   batch of log appends vs re-snapshotting the whole database;
//! * **concurrent handoff** (`concurrent/reader_during_ingest*`): reader
//!   sessions fire the suite question at the exact moment an
//!   ingest+refresh cycle is in flight. Baseline is the coarse-locked
//!   service `&mut Engine` forces (one mutex over the database and
//!   engine — the reader waits out the whole ingest+refresh and every
//!   other reader); the engine side is the epoch handoff of a one-shard
//!   [`ShardedEngine`], where readers answer from a pinned immutable
//!   epoch vector and are never blocked. The recorded statistic is the per-cycle worst reader
//!   latency (median over cycles) — the tail a service's SLO is made of.
//! * **served handoff** (`server/reader_during_ingest*`): the same
//!   reader-vs-ingesting-writer duel, but the engine side runs against a
//!   live `eba-serve` instance over **real TCP sockets** — persistent
//!   reader sessions issue `REPIN` + `METRICS` while a writer connection
//!   drives `INGEST` batches through the protocol's single-writer path.
//!   Baseline is the same coarse-locked in-process service (which pays
//!   *no* socket cost, so the comparison is conservative); the note
//!   records the reader latency percentiles over every socket question.
//!
//! Every engine-backed result is asserted equal to the per-query result
//! before timing. With `--json` the medians land in `BENCH_audit.json`
//! (same schema as `BENCH_mining.json`, shared via
//! [`eba_bench::harness::write_bench_json`]).

use eba_audit::fake::{user_pool, FakeLog};
use eba_audit::handcrafted::{same_group, EventTable};
use eba_audit::{portal, timeline, Explainer};
use eba_bench::harness::{print_workloads, write_bench_json, Workload};
use eba_bench::{bench_config, scale_config};
use eba_core::LogSpec;
use eba_experiments::Scenario;
use eba_relational::{
    ChainQuery, CmpOp, Database, Engine, EvalOptions, Rhs, RowId, RowSet, ShardKey, ShardedEngine,
    StepFilter, Value,
};
use eba_synth::LogColumns;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn main() {
    let mut json_path: Option<String> = None;
    let mut samples = 5usize;
    let mut scale = "bench".to_string();
    let mut append = 500usize;
    let mut shard_counts = vec![1usize, 4, 8];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| usage("missing --json path")))
            }
            "--samples" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --samples value"));
                samples = v
                    .parse()
                    .unwrap_or_else(|_| usage("--samples expects an integer"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .unwrap_or_else(|| usage("missing --scale value"))
            }
            "--append" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --append value"));
                append = v
                    .parse()
                    .unwrap_or_else(|_| usage("--append expects an integer"));
            }
            "--shards" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing --shards value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| usage("--shards expects a positive integer"));
                if n == 0 {
                    usage("--shards expects a positive integer");
                }
                shard_counts = vec![n];
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let config = if scale == "bench" {
        bench_config()
    } else {
        scale_config(&scale).unwrap_or_else(|| usage(&format!("unknown scale `{scale}`")))
    };

    eprintln!("# generating hospital (scale={scale})...");
    let scenario = Scenario::build(config);
    let spec = &scenario.spec;
    let db = &scenario.hospital.db;
    let days = scenario.hospital.config.days;
    let cols = &scenario.hospital.log_cols;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "# {} log rows, {} threads, {} samples per measurement",
        scenario.hospital.log_len(),
        threads,
        samples
    );

    // The auditor's suite: every hand-crafted template (including the
    // anchor-dependent repeat-access one, which exercises the engine's
    // row-map-backed per-row path) plus the depth-1 collaborative-group
    // templates.
    let mut templates: Vec<_> = scenario.handcrafted.all().into_iter().cloned().collect();
    for e in EventTable::ALL {
        templates.push(same_group(db, spec, e, Some(1)).expect("Groups installed"));
    }
    let explainer = Explainer::new(templates);

    // One warm engine for the whole session (the scenario's own engine is
    // left untouched so the workloads control their cache state).
    let engine = Engine::new(db);
    // The log partitioning of every publication cell below.
    let key = ShardKey {
        table: spec.table,
        col: spec.patient_col,
    };

    // Differential guard: every engine-backed view must equal the
    // per-query view before we time anything.
    assert_eq!(
        explainer.explained_rows_with(db, spec, &engine),
        explainer.explained_rows(db, spec),
        "engine changed the explained set"
    );
    assert_eq!(
        explainer.unexplained_rows_with(db, spec, &engine),
        explainer.unexplained_rows(db, spec),
        "engine changed the unexplained set"
    );
    assert_eq!(
        timeline::daily_stats_with(db, spec, cols, &explainer, days, &engine),
        timeline::daily_stats(db, spec, cols, &explainer, days),
        "engine changed the timeline"
    );
    assert_eq!(
        portal::misuse_summary_with(db, spec, &explainer, &engine),
        portal::misuse_summary(db, spec, &explainer),
        "engine changed the misuse summary"
    );

    let mut workloads: Vec<Workload> = Vec::new();
    workloads.push(Workload::compare(
        "suite/explained",
        samples,
        || {
            explainer.explained_rows(db, spec);
        },
        || {
            explainer.explained_rows_with(db, spec, &engine);
        },
    ));
    workloads.push(Workload::compare(
        "suite/unexplained",
        samples,
        || {
            explainer.unexplained_rows(db, spec);
        },
        || {
            explainer.unexplained_rows_with(db, spec, &engine);
        },
    ));
    workloads.push(Workload::compare(
        "timeline/daily",
        samples,
        || {
            timeline::daily_stats(db, spec, cols, &explainer, days);
        },
        || {
            timeline::daily_stats_with(db, spec, cols, &explainer, days, &engine);
        },
    ));
    workloads.push(Workload::compare(
        "portal/misuse",
        samples,
        || {
            portal::misuse_summary(db, spec, &explainer);
        },
        || {
            portal::misuse_summary_with(db, spec, &explainer, &engine);
        },
    ));
    // Cold engine per question vs one warm engine across questions.
    workloads.push(Workload::compare(
        "engine/cold_build",
        samples,
        || {
            let cold = Engine::new(db);
            explainer.explained_rows_with(db, spec, &cold);
        },
        || {
            explainer.explained_rows_with(db, spec, &engine);
        },
    ));

    // The fused single-pass driver against the old per-template loop, at
    // policy-family sizes 1 and 8: the anchor-dependent repeat-access
    // template plus "repeat access since day D" variants (one extra
    // constant decoration each), the paper's decorated-template class.
    // Per template the old path scans the whole log; the fused driver
    // scans it once, reading each anchor row's candidate set once and
    // testing it against every policy's decorations. fused1 prices the
    // driver's own overhead — one policy gives fusion nothing to
    // amortize. The guard asserts the fused sets equal the per-template
    // path slot for slot before anything is timed.
    let all_queries: Vec<ChainQuery> = explainer
        .templates()
        .iter()
        .map(|t| t.path.to_chain_query(spec))
        .collect();
    let opts = EvalOptions::default();
    let policy_family: Vec<ChainQuery> = {
        let date_col = db
            .table(spec.table)
            .schema()
            .col("Date")
            .expect("log has a Date column");
        let base = &scenario.handcrafted.repeat_access.path;
        let mut family = vec![base.to_chain_query(spec)];
        for i in 1..8i64 {
            let since_minutes = i * (days as i64) / 8 * 24 * 60;
            let path = base
                .decorated(
                    1,
                    StepFilter {
                        col: date_col,
                        op: CmpOp::Ge,
                        rhs: Rhs::Const(Value::Date(since_minutes)),
                    },
                )
                .expect("alias 1 exists");
            family.push(path.to_chain_query(spec));
        }
        family
    };
    for &k in &[1usize, 8] {
        let k = k.min(policy_family.len());
        let fused_suite = &policy_family[..k];
        let per_template: Vec<Vec<RowId>> = fused_suite
            .iter()
            .map(|q| engine.explained_rows(db, q, opts).expect("valid suite"))
            .collect();
        let fused: Vec<Vec<RowId>> = engine
            .eval_suite(db, fused_suite, opts)
            .into_iter()
            .map(|s| s.expect("valid suite").to_vec())
            .collect();
        assert_eq!(fused, per_template, "fused driver changed a suite answer");
        let mut w = Workload::compare(
            format!("suite/fused{k}"),
            samples,
            || {
                for q in fused_suite {
                    std::hint::black_box(engine.explained_rows(db, q, opts).expect("valid"));
                }
            },
            || {
                std::hint::black_box(engine.eval_suite(db, fused_suite, opts));
            },
        );
        w.note = Some(format!(
            "one fused log scan vs {k} per-template scan(s) of the decorated \
             repeat-access policy family, same warm engine; guard asserted \
             identical explained sets slot for slot"
        ));
        workloads.push(w);
    }

    // The compressed row-set algebra against hash-set algebra, over the
    // *real* suite answers: union every template's explained set, then
    // subtract the union from the anchor rows (the unexplained residue).
    // The guard asserts both algebras produce the same sorted residue.
    {
        let suite_sets: Vec<Vec<RowId>> = all_queries
            .iter()
            .map(|q| engine.explained_rows(db, q, opts).expect("valid suite"))
            .collect();
        let suite_rowsets: Vec<RowSet> = suite_sets
            .iter()
            .map(|v| RowSet::from_sorted_vec(v))
            .collect();
        let anchors = eba_audit::metrics::anchor_rows(db, spec);
        let anchor_set = RowSet::from_sorted_vec(&anchors);
        let via_hash: Vec<RowId> = {
            let mut union: std::collections::HashSet<RowId> = std::collections::HashSet::new();
            for s in &suite_sets {
                union.extend(s.iter().copied());
            }
            anchors
                .iter()
                .copied()
                .filter(|r| !union.contains(r))
                .collect()
        };
        let via_rowset = anchor_set
            .difference(&RowSet::union_all(suite_rowsets.iter().cloned()))
            .to_vec();
        assert_eq!(via_rowset, via_hash, "row-set algebra changed the residue");
        workloads.push(Workload::compare(
            "rowset/union_difference",
            samples,
            || {
                let mut union: std::collections::HashSet<RowId> = std::collections::HashSet::new();
                for s in &suite_sets {
                    union.extend(s.iter().copied());
                }
                let residue: Vec<RowId> = anchors
                    .iter()
                    .copied()
                    .filter(|r| !union.contains(r))
                    .collect();
                std::hint::black_box(residue.len());
            },
            || {
                let union = RowSet::union_all(suite_rowsets.iter().cloned());
                std::hint::black_box(anchor_set.difference(&union).len());
            },
        ));
    }

    // Sharded scatter-gather: the whole suite fanned out over N
    // hash-partitioned shards evaluated in parallel and merged, vs the
    // same warm single engine answering it sequentially. Shard count 1
    // prices the epoch-vector layer itself (it should be noise); 4 and 8
    // show what per-shard parallelism buys. The differential guard
    // asserts the merged global explained set equals the single-engine
    // set before anything is timed.
    for &n_shards in &shard_counts {
        let sharded = ShardedEngine::new(db.clone(), key, n_shards);
        let vec = sharded.load();
        explainer.explained_rows_at_shards(spec, &vec); // warm per-shard caches
        assert_eq!(
            explainer.explained_rows_at_shards(spec, &vec),
            explainer.explained_rows_with(db, spec, &engine),
            "{n_shards}-shard scatter-gather changed the explained set"
        );
        workloads.push(Workload::compare(
            format!("shard/suite_scatter_gather{n_shards}"),
            samples,
            || {
                explainer.explained_rows_with(db, spec, &engine);
            },
            || {
                explainer.explained_rows_at_shards(spec, &vec);
            },
        ));
    }

    let users = user_pool(db);
    let patients: Vec<Value> = (0..scenario.hospital.world.n_patients())
        .map(|p| scenario.hospital.patient_value(p))
        .collect();
    let t_log = scenario.hospital.t_log;

    // Incremental append: after each batch of `append` fresh log rows, an
    // engine is brought up to date — by full re-snapshot (baseline) vs
    // `Engine::refresh` (engine). The appends themselves are *outside* the
    // timed region (ingest happens either way); both sides grow their own
    // database clone at the same rate so the comparison stays balanced
    // across samples.
    {
        let timed_appends = |side: &mut dyn FnMut(&mut eba_relational::Database),
                             db_side: &mut eba_relational::Database,
                             seed0: u64|
         -> std::time::Duration {
            // One warm-up round, then `samples` timed rounds (matching
            // `measure`'s shape), each preceded by an untimed append batch.
            let mut durations = Vec::with_capacity(samples);
            for i in 0..=samples {
                FakeLog::inject(
                    db_side,
                    t_log,
                    cols,
                    &users,
                    &patients,
                    append,
                    days,
                    seed0 + i as u64,
                );
                let start = std::time::Instant::now();
                side(db_side);
                let elapsed = start.elapsed();
                if i > 0 {
                    durations.push(elapsed);
                }
            }
            eba_bench::harness::median(&durations)
        };

        let mut db_rebuild = db.clone();
        let baseline = timed_appends(
            &mut |d| {
                Engine::new(d);
            },
            &mut db_rebuild,
            0xA0D17,
        );

        let mut db_refresh = db.clone();
        let mut warm = Engine::new(&db_refresh);
        // Warm the caches the way a live session would have.
        explainer.explained_rows_with(&db_refresh, spec, &warm);
        let engine_side = timed_appends(
            &mut |d| {
                warm.refresh(d).expect("append-only refresh succeeds");
            },
            &mut db_refresh,
            0xB0D17,
        );
        workloads.push(Workload {
            name: format!("refresh/append{append}"),
            baseline,
            engine: engine_side,
            samples,
            note: None,
        });

        // The refreshed engine must agree with a fresh snapshot of the
        // grown database.
        let fresh = Engine::new(&db_refresh);
        assert_eq!(
            explainer.explained_rows_with(&db_refresh, spec, &warm),
            explainer.explained_rows_with(&db_refresh, spec, &fresh),
            "refresh diverged from a fresh snapshot"
        );
        assert_eq!(
            explainer.explained_rows_with(&db_refresh, spec, &warm),
            explainer.explained_rows(&db_refresh, spec),
            "refresh diverged from the per-query path"
        );
    }

    // Epoch publication cost: what one published epoch *copies*. The
    // baseline simulates flat storage — every `Value` cell of the
    // database plus every interned `u32` cell of the engine snapshot is
    // copied, which is exactly the memcpy a flat `Database::clone` +
    // `Engine::fork` paid per ingest. The engine side runs the real
    // thing: a full segmented one-shard `ShardedEngine::ingest` (clone +
    // fork + incremental refresh + publish), which shares all sealed segments
    // and copies only tails — `O(batch)`. The `_large` variant re-runs
    // both sides after growing the database ~8x with the *same* batch
    // size: the flat copy grows with the database, the segmented
    // publication does not. The note records the copy-meter evidence.
    {
        let shared = ShardedEngine::new(db.clone(), key, 1);
        explainer.explained_rows_at_shards(spec, &shared.load()); // warm the caches
        let seed = std::cell::Cell::new(0xD0_0000u64);
        let ingest_once = |shared: &ShardedEngine| {
            seed.set(seed.get() + 1);
            let s = seed.get();
            shared.ingest(|batch| {
                let lid = FakeLog::next_lid(batch.db(0), t_log, cols);
                FakeLog::stage(batch, &users, &patients, append, days, s, lid);
            });
        };

        let publish_workload = |name: String, shared: &ShardedEngine| -> Workload {
            // Baseline: flat-storage publication copy of the current epoch.
            let mut sink_v: Vec<Value> = Vec::new();
            let mut sink_u: Vec<u32> = Vec::new();
            let baseline = eba_bench::harness::measure(samples, || {
                let epochs = shared.load();
                let epoch = &epochs.shards()[0];
                sink_v.clear();
                sink_u.clear();
                for tid in epoch.db().table_ids() {
                    for (_, row) in epoch.db().table(tid).iter() {
                        sink_v.extend_from_slice(row);
                    }
                    for col in &epoch.engine().snapshot().table(tid).cols {
                        sink_u.extend(col.iter().copied());
                    }
                }
                std::hint::black_box(sink_v.len() + sink_u.len());
            });
            // Engine: the real segmented publication of one batch.
            let engine_side = eba_bench::harness::measure(samples, || ingest_once(shared));
            // Copy-meter evidence for one more publication.
            eba_relational::segment::reset_copied_bytes();
            ingest_once(shared);
            let seg_bytes = eba_relational::segment::copied_bytes();
            let epochs = shared.load();
            let epoch = &epochs.shards()[0];
            let mut flat_bytes = 0u64;
            let mut log_rows = 0usize;
            for tid in epoch.db().table_ids() {
                let t = epoch.db().table(tid);
                if tid == t_log {
                    log_rows = t.len();
                }
                flat_bytes +=
                    (t.len() * t.schema().arity()) as u64 * std::mem::size_of::<Value>() as u64;
                let it = epoch.engine().snapshot().table(tid);
                flat_bytes += (it.n_rows * it.cols.len()) as u64 * 4;
            }
            Workload {
                name,
                baseline,
                engine: engine_side,
                samples,
                note: Some(format!(
                    "bytes copied per published epoch: segmented {} vs flat {} \
                     ({:.1}x fewer; {} log rows, batch {})",
                    seg_bytes,
                    flat_bytes,
                    flat_bytes as f64 / (seg_bytes.max(1)) as f64,
                    log_rows,
                    append,
                )),
            }
        };

        workloads.push(publish_workload(
            format!("publish/ingest_epoch_cost{append}"),
            &shared,
        ));
        // Grow the database ~8x (same batch size), then measure again.
        let before = shared.load().global_log_len();
        while shared.load().global_log_len() < before * 8 {
            ingest_once(&shared);
        }
        workloads.push(publish_workload(
            format!("publish/ingest_epoch_cost{append}_large"),
            &shared,
        ));
    }

    // Streaming audit: answering `UNEXPLAINED` after an ingest with the
    // *maintained* partition (advanced inside ingest by delta
    // evaluation, read back in O(1)) vs the cold path (re-deriving the
    // unexplained residue from the whole suite at the new epoch). Both
    // sides pay the same publication; the gap is the delta-anchored
    // advance (O(delta × fan-out)) vs O(log) audit work. The `_large`
    // variant re-runs after growing the log ~8x with the same batch size:
    // the cold side grows with the log, the maintained side only with the
    // batch patients' histories. Differential guard first: the
    // maintained residue must equal the cold recompute byte for byte.
    {
        let pinned = ShardedEngine::new(db.clone(), key, 1);
        let pin = pinned.pin_suite(explainer.suite_pin(spec));
        let unpinned = ShardedEngine::new(db.clone(), key, 1);
        let seed = std::cell::Cell::new(0x57_0000u64);
        // Each engine's next lid, tracked here so the timed ingests never
        // scan the log for it.
        let first_lid = FakeLog::next_lid(db, t_log, cols);
        let pinned_lid = std::cell::Cell::new(first_lid);
        let unpinned_lid = std::cell::Cell::new(first_lid);
        let ingest_once = |engine: &ShardedEngine, lid: &std::cell::Cell<i64>| {
            seed.set(seed.get() + 1);
            let s = seed.get();
            engine.ingest(|batch| {
                FakeLog::stage(batch, &users, &patients, append, days, s, lid.get());
            });
            lid.set(lid.get() + append as i64);
        };

        let guard = |tag: &str| {
            let epochs = pinned.load();
            let m = epochs
                .maintained(pin)
                .expect("pinned suite publishes its partition");
            assert_eq!(
                m.unexplained.to_vec(),
                explainer.unexplained_rows_at_shards(spec, &epochs),
                "maintained residue diverged from the cold recompute ({tag})"
            );
            assert_eq!(
                m.log_len,
                epochs.global_log_len(),
                "maintained partition covers the whole log ({tag})"
            );
        };

        let stream_workload = |name: String| -> Workload {
            ingest_once(&pinned, &pinned_lid);
            guard(&name);
            let w = Workload::compare(
                name.clone(),
                samples,
                || {
                    ingest_once(&unpinned, &unpinned_lid);
                    let epochs = unpinned.load();
                    std::hint::black_box(explainer.unexplained_rows_at_shards(spec, &epochs).len());
                },
                || {
                    ingest_once(&pinned, &pinned_lid);
                    let epochs = pinned.load();
                    let m = epochs.maintained(pin).expect("pinned");
                    std::hint::black_box(m.unexplained.len() + m.anchors.len());
                },
            );
            guard(&name);
            let log_rows = pinned.load().global_log_len();
            Workload {
                note: Some(format!(
                    "ingest {append} rows then answer UNEXPLAINED: maintained \
                     delta-anchored advance + O(1) read vs cold suite recompute at \
                     {log_rows} log rows (residue equality asserted before \
                     and after timing)",
                )),
                ..w
            }
        };

        workloads.push(stream_workload(format!("stream/ingest_delta{append}")));
        let before = pinned.load().global_log_len();
        while pinned.load().global_log_len() < before * 8 {
            ingest_once(&pinned, &pinned_lid);
            ingest_once(&unpinned, &unpinned_lid);
        }
        guard("after growth");
        workloads.push(stream_workload(format!(
            "stream/ingest_delta{append}_large"
        )));
    }

    // Cold start after a crash: a durable store's recovered batches can
    // be replayed through the normal publication path (one epoch per
    // batch — clone, fork, refresh, publish, once per batch in the
    // history) or bulk-loaded into the base database with a single engine
    // build at the end, which is what `AuditService::new_durable` does on
    // boot. Both sides end at the same epoch; the differential guard
    // asserts identical explained sets before timing.
    {
        use eba_relational::pile::{default_checkpoint_rows, plain_batch, replay_into};
        use eba_relational::{Durability, DurableStore, SharedMem};

        let n_batches = 8usize;
        let pile_mem = SharedMem::new();
        let wal_mem = SharedMem::new();
        {
            let (mut store, _, _) = DurableStore::open_on(
                Box::new(pile_mem.clone()),
                Box::new(wal_mem.clone()),
                "bench",
                Durability::Relaxed,
                default_checkpoint_rows(),
            )
            .expect("fresh in-memory store");
            let shared = ShardedEngine::new(db.clone(), key, 1);
            for b in 0..n_batches {
                shared
                    .ingest_with(
                        |batch| {
                            let first = batch.global_log_len() as u64;
                            let lid = FakeLog::next_lid(batch.db(0), t_log, cols);
                            let seed = 0xE0_3000 + b as u64;
                            FakeLog::stage(batch, &users, &patients, append, days, seed, lid);
                            first
                        },
                        |batch, &first, seq| {
                            let d = batch.db(0);
                            let t = d.table(t_log);
                            let rows: Vec<Vec<Value>> = (first..t.len() as u64)
                                .map(|r| t.row(r as u32).to_vec())
                                .collect();
                            let name = t.schema().name.clone();
                            store.append(plain_batch(d, seq, &name, first, &rows))
                        },
                    )
                    .expect("in-memory media never fails");
            }
        }
        let (_, batches, report) = DurableStore::open_on(
            Box::new(pile_mem.clone()),
            Box::new(wal_mem.clone()),
            "bench-recover",
            Durability::Relaxed,
            default_checkpoint_rows(),
        )
        .expect("recovery of a cleanly written store");
        assert_eq!(report.batches(), n_batches, "{}", report.summary());

        let bulk_db = {
            let mut d = db.clone();
            replay_into(&mut d, &batches).expect("bulk replay");
            d
        };
        // One epoch per recovered batch, re-interned through the batch so
        // the shard pool stays aligned.
        let replay_per_batch = || {
            let shared = ShardedEngine::new(db.clone(), key, 1);
            for b in &batches {
                shared.ingest(|batch| {
                    for row in &b.rows {
                        let values = row
                            .iter()
                            .map(|v| v.to_value(|s| batch.str_value(s)))
                            .collect();
                        batch.insert_log(values).expect("per-batch replay");
                    }
                });
            }
            shared
        };
        {
            let cold = Engine::new(&bulk_db);
            assert_eq!(
                explainer.explained_rows_at_shards(spec, &replay_per_batch().load()),
                explainer.explained_rows_with(&bulk_db, spec, &cold),
                "replay strategies diverged"
            );
        }
        workloads.push(Workload::compare(
            format!("cold_start/recovery_replay{}x{append}", n_batches),
            samples,
            || {
                std::hint::black_box(replay_per_batch().seq());
            },
            || {
                let mut d = db.clone();
                replay_into(&mut d, &batches).expect("bulk replay");
                let engine = Engine::new(&d);
                std::hint::black_box(engine.snapshot().table(t_log).n_rows);
            },
        ));
    }

    // Concurrent handoff: reader sessions ask the suite question at the
    // exact moment an ingest+refresh cycle is in flight. The baseline
    // serializes everything behind one mutex (the coupling `&mut Engine`
    // forces on a service), so the reader's answer waits out the whole
    // ingest+refresh; with the one-shard `ShardedEngine` epoch handoff the
    // reader answers from its pinned vector and is never blocked by the
    // writer.
    // The recorded duration is the per-cycle worst reader latency
    // (median over cycles) — the tail a service's SLO is made of.
    {
        let params = ConcurrentParams {
            spec,
            cols,
            days,
            t_log,
            users: &users,
            patients: &patients,
            // The stress case is a bulk batch (a day's feed, not a
            // trickle) landing while auditors work — 10x the incremental
            // refresh workload's batch.
            append: append * 10,
            // One reader session per spare core (the writer gets the
            // other): a single-core box still shows the blocking gap —
            // the locked reader *waits out* the refresh, the epoch
            // reader merely time-shares with it.
            readers: threads.saturating_sub(1).clamp(1, 4),
            cycles: samples.max(3),
        };
        // Differential guard: an epoch answers exactly like the per-query
        // path before we time anything.
        {
            let shared = ShardedEngine::new(db.clone(), key, 1);
            assert_eq!(
                explainer.explained_rows_at_shards(spec, &shared.load()),
                explainer.explained_rows(db, spec),
                "epoch changed the explained set"
            );
        }
        let baseline = reader_during_ingest_locked(db, &explainer, &params);
        let engine_side = reader_during_ingest_shared(db, key, &explainer, &params);
        workloads.push(Workload {
            name: format!("concurrent/reader_during_ingest{}", params.append),
            baseline: baseline.worst_reader,
            engine: engine_side.worst_reader,
            samples: params.cycles,
            note: Some(format!(
                "reader answered before the in-flight ingest finished in \
                 {}/{} cycles with the epoch handoff vs {}/{} under the \
                 coarse lock ({} reader(s))",
                engine_side.overlapped,
                params.cycles,
                baseline.overlapped,
                params.cycles,
                params.readers
            )),
        });

        // The served variant: same duel, but the epoch-handoff side runs
        // against a live `eba-serve` over TCP. The coarse-locked baseline
        // pays no socket cost, so any speedup is real handoff win.
        let served = reader_during_ingest_server(db, &explainer, &params);
        workloads.push(Workload {
            name: format!("server/reader_during_ingest{}", params.append),
            baseline: baseline.worst_reader,
            engine: served.result.worst_reader,
            samples: params.cycles,
            note: Some(format!(
                "eba-serve over TCP ({} persistent reader session(s), REPIN+METRICS \
                 per question, writer INGESTs {} rows/cycle): reader latency \
                 p50 {:.3} ms / p95 {:.3} ms / max {:.3} ms over {} questions; \
                 overlapped {}/{} cycles vs {}/{} for the socket-free coarse lock",
                params.readers,
                params.append,
                served.p50.as_secs_f64() * 1e3,
                served.p95.as_secs_f64() * 1e3,
                served.max.as_secs_f64() * 1e3,
                served.questions,
                served.result.overlapped,
                params.cycles,
                baseline.overlapped,
                params.cycles,
            )),
        });

        // Admission control under a connection storm: the same pinned
        // reader question, once against an uncapped server absorbing the
        // whole storm, once against a capped one shedding most of it
        // with `ERR busy`. Baseline = uncapped, engine = capped; the gap
        // is what the cap buys the reader's tail.
        let questions = (samples.max(3)) * 12;
        let uncapped = overload_storm_server(db, &explainer, &params, 0, questions);
        let capped = overload_storm_server(db, &explainer, &params, STORM_CAP, questions);
        workloads.push(Workload {
            name: "server/overload_storm".into(),
            baseline: uncapped.p50,
            engine: capped.p50,
            samples: questions,
            note: Some(format!(
                "{STORM_CONNECTORS} connectors storming while one pinned reader asks \
                 METRICS {questions}x: uncapped p50 {:.3} ms / p95 {:.3} ms \
                 ({} storm requests served, 0 shed) vs --max-conn {STORM_CAP} \
                 p50 {:.3} ms / p95 {:.3} ms ({} served, {} shed with ERR busy)",
                uncapped.p50.as_secs_f64() * 1e3,
                uncapped.p95.as_secs_f64() * 1e3,
                uncapped.served,
                capped.p50.as_secs_f64() * 1e3,
                capped.p95.as_secs_f64() * 1e3,
                capped.served,
                capped.shed,
            )),
        });
    }

    print_workloads(&workloads);

    if let Some(path) = json_path {
        write_bench_json(&path, "audit-bench", &scale, threads, &workloads).expect("write json");
        eprintln!("# wrote {path}");
    }
}

/// Shape of the concurrent-handoff measurement.
struct ConcurrentParams<'a> {
    spec: &'a LogSpec,
    cols: &'a LogColumns,
    days: u32,
    t_log: eba_relational::TableId,
    users: &'a [Value],
    patients: &'a [Value],
    append: usize,
    readers: usize,
    cycles: usize,
}

/// Runs `cycles` rounds: each round, every reader thread and the writer
/// rendezvous at a start barrier that the writer only reaches once its
/// ingest is committed to being in flight (lock held / about to publish);
/// the readers then each time one full suite question. A second
/// rendezvous closes the round — the writer cannot start the next ingest
/// (and, on the locked side, re-grab the service lock) until every reader
/// got its answer. Returns the median over cycles of the per-cycle worst
/// reader latency.
fn drive_concurrent(
    p: &ConcurrentParams,
    read: impl Fn() + Sync,
    mut write_batch: impl FnMut(u64, &std::sync::Barrier) -> Duration,
) -> ConcurrentResult {
    let barrier = std::sync::Barrier::new(p.readers + 1);
    let per_cycle_worst = Mutex::new(vec![Duration::ZERO; p.cycles]);
    let mut ingest_work = vec![Duration::ZERO; p.cycles];
    std::thread::scope(|scope| {
        for _ in 0..p.readers {
            scope.spawn(|| {
                for cycle in 0..p.cycles {
                    barrier.wait(); // start: the ingest is in flight
                    let start = Instant::now();
                    read();
                    let elapsed = start.elapsed();
                    {
                        let mut worst = per_cycle_worst.lock().unwrap();
                        worst[cycle] = worst[cycle].max(elapsed);
                    }
                    barrier.wait(); // end of round
                }
            });
        }
        for (i, work) in ingest_work.iter_mut().enumerate() {
            // `write_batch` hits the start barrier itself (with its lock
            // already held where applicable), returns how long its
            // ingest+refresh work took from that instant, and drops every
            // guard before returning; the end-of-round barrier is here.
            *work = write_batch(i as u64, &barrier);
            barrier.wait(); // end of round
        }
    });
    let worst = per_cycle_worst.into_inner().unwrap();
    // A cycle "overlapped" when the slowest reader had its answer before
    // the in-flight ingest+refresh finished — the thing a coarse lock
    // makes impossible by construction.
    let overlapped = worst
        .iter()
        .zip(&ingest_work)
        .filter(|(r, w)| r < w)
        .count();
    ConcurrentResult {
        worst_reader: eba_bench::harness::median(&worst),
        overlapped,
    }
}

/// What one side of the concurrent workload observed.
struct ConcurrentResult {
    /// Median over cycles of the per-cycle worst reader latency.
    worst_reader: Duration,
    /// Cycles in which every reader answered before the ingest finished.
    overlapped: usize,
}

/// Reader-during-ingest latency under the coarse-locked service: one
/// mutex over `(Database, Engine)`, which is what
/// `Engine::refresh(&mut self)` forces — the writer takes the lock
/// *before* releasing the readers, so every timed query waits out the
/// whole ingest+refresh (and every other reader).
fn reader_during_ingest_locked(
    db: &Database,
    explainer: &Explainer,
    p: &ConcurrentParams,
) -> ConcurrentResult {
    let svc = Mutex::new((db.clone(), Engine::new(db)));
    {
        let g = svc.lock().unwrap();
        explainer.explained_rows_with(&g.0, p.spec, &g.1); // warm the caches
    }
    drive_concurrent(
        p,
        || {
            let g = svc.lock().unwrap();
            explainer.explained_rows_with(&g.0, p.spec, &g.1);
        },
        |seed, barrier| {
            let mut g = svc.lock().unwrap();
            barrier.wait(); // readers start now, while the lock is held
            let start = Instant::now();
            let (db_side, engine_side) = &mut *g;
            FakeLog::inject(
                db_side,
                p.t_log,
                p.cols,
                p.users,
                p.patients,
                p.append,
                p.days,
                0xC0_1000 + seed,
            );
            engine_side
                .refresh(db_side)
                .expect("append-only refresh succeeds");
            start.elapsed()
        },
    )
}

/// Reader-during-ingest latency under the epoch handoff: the writer
/// ingests into a private successor and publishes with a pointer swap;
/// the readers pin whatever epoch is current and answer immediately.
fn reader_during_ingest_shared(
    db: &Database,
    key: ShardKey,
    explainer: &Explainer,
    p: &ConcurrentParams,
) -> ConcurrentResult {
    let shared = ShardedEngine::new(db.clone(), key, 1);
    explainer.explained_rows_at_shards(p.spec, &shared.load()); // warm the caches
    drive_concurrent(
        p,
        || {
            explainer.explained_rows_at_shards(p.spec, &shared.load());
        },
        |seed, barrier| {
            barrier.wait(); // readers start now; the ingest runs beside them
            let start = Instant::now();
            shared.ingest(|batch| {
                let lid = FakeLog::next_lid(batch.db(0), p.t_log, p.cols);
                let seed = 0xC0_2000 + seed;
                FakeLog::stage(batch, p.users, p.patients, p.append, p.days, seed, lid);
            });
            start.elapsed()
        },
    )
}

/// What the served handoff measured: the per-cycle result plus the
/// latency distribution across every socket question.
struct ServedResult {
    result: ConcurrentResult,
    p50: Duration,
    p95: Duration,
    max: Duration,
    questions: usize,
}

/// Reader-during-ingest latency against a live `eba-serve`: persistent
/// reader sessions each issue `REPIN` + `METRICS` per cycle while a
/// writer connection pushes an `INGEST` batch through the single-writer
/// path; the same barrier choreography as [`drive_concurrent`], with one
/// socket client per thread.
fn reader_during_ingest_server(
    db: &Database,
    explainer: &Explainer,
    p: &ConcurrentParams,
) -> ServedResult {
    use eba_server::{AuditService, Client, IngestRow, Server};

    let service = AuditService::new(
        db.clone(),
        p.spec.clone(),
        *p.cols,
        explainer.clone(),
        p.days,
    );
    let server = Server::spawn(service, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    // Warm the epoch's caches the way a live session would have.
    {
        let mut warm = Client::connect(addr).expect("warm session");
        warm.send("METRICS").expect("warm question");
    }
    let as_int = |v: &Value| match v {
        Value::Int(i) => *i,
        _ => 0,
    };
    let rows: Vec<IngestRow> = (0..p.append)
        .map(|i| IngestRow {
            user: as_int(&p.users[i % p.users.len()]),
            patient: as_int(&p.patients[(i * 13) % p.patients.len()]),
            day: Some(1 + (i % p.days.max(1) as usize) as i64),
        })
        .collect();

    let barrier = std::sync::Barrier::new(p.readers + 1);
    let per_cycle_worst = Mutex::new(vec![Duration::ZERO; p.cycles]);
    let all_latencies = Mutex::new(Vec::with_capacity(p.readers * p.cycles));
    let mut ingest_work = vec![Duration::ZERO; p.cycles];
    std::thread::scope(|scope| {
        for _ in 0..p.readers {
            scope.spawn(|| {
                let mut session = Client::connect(addr).expect("reader session");
                for cycle in 0..p.cycles {
                    barrier.wait(); // start: the ingest is about to be in flight
                    let start = Instant::now();
                    session.send("REPIN").expect("repin");
                    session.send("METRICS").expect("metrics");
                    let elapsed = start.elapsed();
                    {
                        let mut worst = per_cycle_worst.lock().unwrap();
                        worst[cycle] = worst[cycle].max(elapsed);
                    }
                    all_latencies.lock().unwrap().push(elapsed);
                    barrier.wait(); // end of round
                }
            });
        }
        let mut writer = Client::connect(addr).expect("writer session");
        for work in ingest_work.iter_mut() {
            barrier.wait(); // readers fire now; the ingest runs beside them
            let start = Instant::now();
            let reply = writer.ingest(&rows).expect("ingest");
            assert!(reply.is_ok(), "{}", reply.head);
            *work = start.elapsed();
            barrier.wait(); // end of round
        }
    });

    let worst = per_cycle_worst.into_inner().unwrap();
    let overlapped = worst
        .iter()
        .zip(&ingest_work)
        .filter(|(r, w)| r < w)
        .count();
    let mut latencies = all_latencies.into_inner().unwrap();
    latencies.sort_unstable();
    let percentile = |q: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    ServedResult {
        result: ConcurrentResult {
            worst_reader: eba_bench::harness::median(&worst),
            overlapped,
        },
        p50: percentile(0.50),
        p95: percentile(0.95),
        max: *latencies.last().unwrap_or(&Duration::ZERO),
        questions: latencies.len(),
    }
}

/// Storm shape for `server/overload_storm`: connector threads churning
/// short sessions against the admission cap.
const STORM_CONNECTORS: usize = 16;
const STORM_CAP: usize = 4;

/// One pinned reader's latency distribution under the storm.
struct StormResult {
    p50: Duration,
    p95: Duration,
    /// Storm requests that were admitted and answered.
    served: usize,
    /// Storm connections refused with `ERR busy`.
    shed: usize,
}

/// Runs a connection storm against `eba-serve` with the given admission
/// cap (0 = unlimited) while one pinned session times `questions`
/// `METRICS` answers. Storm connectors churn connect→METRICS→drop in a
/// tight loop; refused connects count as shed and back off briefly, the
/// way a retrying client would.
fn overload_storm_server(
    db: &Database,
    explainer: &Explainer,
    p: &ConcurrentParams,
    cap: usize,
    questions: usize,
) -> StormResult {
    use eba_server::{AuditService, Client, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let service = AuditService::new(
        db.clone(),
        p.spec.clone(),
        *p.cols,
        explainer.clone(),
        p.days,
    );
    let config = ServerConfig {
        max_connections: cap,
        ..ServerConfig::default()
    };
    let server = Server::spawn_with(service, "127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();

    // The pinned reader takes its slot (and warms the epoch) before the
    // storm starts.
    let mut pinned = Client::connect(addr).expect("pinned session");
    pinned.send("METRICS").expect("warm question");

    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let mut latencies = Vec::with_capacity(questions);
    std::thread::scope(|scope| {
        for _ in 0..STORM_CONNECTORS {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    match Client::connect(addr) {
                        Ok(mut c) => {
                            if c.send("METRICS").is_ok() {
                                served.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Err(_) => {
                            // `ERR busy` (or a backlogged connect): the
                            // typed shed path. Back off like a client.
                            shed.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            });
        }
        for _ in 0..questions {
            let start = Instant::now();
            pinned.send("METRICS").expect("pinned question");
            latencies.push(start.elapsed());
        }
        stop.store(true, Ordering::SeqCst);
    });

    latencies.sort_unstable();
    let percentile = |q: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    StormResult {
        p50: percentile(0.50),
        p95: percentile(0.95),
        served: served.load(Ordering::SeqCst),
        shed: shed.load(Ordering::SeqCst),
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: audit-bench [--json PATH] [--samples N] [--scale tiny|small|default|bench] \
         [--append N] [--shards N]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
