//! The streaming proof: the **maintained** explained/unexplained
//! partition — advanced inside ingest by delta evaluation — must be
//! *byte-identical* to a cold from-scratch materialization at every
//! published epoch, and the server-push feed built on it must behave
//! over real sockets.
//!
//! Library layer (differential, shards {1, 4}):
//!
//! * proptest-driven ingest schedules (batch sizes include 0 — an empty
//!   publication): after every batch, the live engine's maintained
//!   partition renders byte-for-byte equal to a cold recompute by a
//!   brand-new unsharded engine over the same database — anchors,
//!   explained, unexplained, the `UNEXPLAINED` page shape, and the
//!   `METRICS` confusion line all match;
//! * a fixed schedule that grows dimension tables, not just the log:
//!   appointments and documents that explain old residue rows, growth
//!   at the second and later steps (`Mapping`, `Groups`), and a table
//!   created mid-stream — the walk back from appended tuples crosses
//!   every step, under the same byte-for-byte check.
//!
//! Socket layer (`SUBSCRIBE`/`EVENT` over real TCP):
//!
//! * exactly one `EVENT unexplained` frame per publish that produced
//!   fresh unexplained rows, with per-publish seq/new counts;
//! * a subscriber that stops reading is shed — the writer's ingest path
//!   never stalls, the backlog drains, and the stalled session gets one
//!   `ERR slow-consumer` frame before close;
//! * epoch-pinned sessions answer byte-identically while the push feed
//!   fans out around them.

use eba::audit::handcrafted::{same_group, EventTable, HandcraftedTemplates};
use eba::audit::{collaborative_groups, install_groups, metrics, Explainer};
use eba::cluster::HierarchyConfig;
use eba::core::{ExplanationTemplate, LogSpec, Path};
use eba::relational::{
    DataType, Database, Engine, Maintained, RowSet, ShardKey, ShardedEngine, TableId, Value,
};
use eba::server::{AuditService, Client, IngestRow, Server, EVENT_QUEUE_CAP};
use eba::synth::{Hospital, SynthConfig};
use proptest::prelude::*;

mod common;
use common::AuditWorld;

/// The partition key the serving layer shards by: the log's patient
/// column.
fn key(world: &AuditWorld) -> ShardKey {
    ShardKey {
        table: world.spec.table,
        col: world.spec.patient_col,
    }
}

/// Renders one maintained partition in the serving layer's answer
/// shapes: the `UNEXPLAINED` head + full listing, and the `METRICS`
/// lines derived from the same sets. Both sides of the differential go
/// through this exact function, so any byte divergence is in the
/// *partition*, not the rendering.
fn render_maintained(m: &Maintained, seq: u64) -> String {
    let mut out = format!(
        "unexplained {} of {} epoch {seq}\n",
        m.unexplained.len(),
        m.anchors.len()
    );
    for rid in m.unexplained.iter() {
        out.push_str(&format!("row {rid}\n"));
    }
    let c = metrics::confusion_from_maintained(m);
    out.push_str(&format!(
        "metrics anchor_total {} explained {} unexplained {} log {}\n",
        c.real_total,
        c.real_explained,
        c.real_total - c.real_explained,
        m.log_len
    ));
    out.push_str(&format!("explained_set {:?}\n", m.explained.to_vec()));
    out
}

/// Cold oracle: a brand-new unsharded engine over the same database
/// evaluates the suite from scratch — no publication cell, no
/// maintenance code.
fn cold_maintained(db: &Database, world: &AuditWorld) -> Maintained {
    let spec = &world.spec;
    let pin = world.explainer.suite_pin(spec);
    let anchors = RowSet::from_sorted_vec(&metrics::anchor_rows(db, spec));
    // A template stepping into a table not created yet explains nothing.
    let suite = Engine::new(db).eval_suite(db, &pin.queries, pin.opts);
    let explained = RowSet::union_all(suite.into_iter().flatten());
    Maintained {
        unexplained: anchors.difference(&explained),
        anchors,
        explained,
        log_len: db.table(spec.table).len(),
    }
}

/// Ingests `rows` (strings re-interned through the batch so shard pools
/// stay aligned) into the live engine — same idiom as the serving path.
fn ingest_rows(live: &ShardedEngine, source: &Database, rows: &[Vec<Value>]) {
    live.ingest(|batch| {
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

/// One publication of a differential schedule.
enum Step {
    /// `count` fake accesses from `seed` (the writer's log ingest).
    Log(usize, u64),
    /// Dimension growth, computed from the state before it lands.
    Dims(fn(&Database, &AuditWorld) -> DimBatch),
}

/// Dimension rows for one publication, optionally into a table created
/// in the same publication (so every one of its rows is new).
struct DimBatch {
    create: Option<(&'static str, &'static [(&'static str, DataType)])>,
    rows: Vec<(TableId, Vec<Value>)>,
    /// Whether the rows newly explain old residue rows (asserted, so the
    /// schedule cannot silently stop exercising the re-ask).
    explains: bool,
}

/// [`run_schedule`] over `(count, seed)` log batches only.
fn run_stream_differential(world: &AuditWorld, n_shards: usize, batches: &[(usize, u64)]) {
    let steps: Vec<Step> = batches.iter().map(|&(c, s)| Step::Log(c, s)).collect();
    run_schedule(world, n_shards, &steps);
}

/// Drives a canonical oracle database (mutated in place) and one live
/// engine through the same batch schedule; after every publish the live
/// engine's *incrementally advanced* partition must render
/// byte-identically to a cold recompute over the oracle's database.
fn run_schedule(world: &AuditWorld, n_shards: usize, steps: &[Step]) {
    let mut oracle = world.hospital.db.clone();
    let live = ShardedEngine::new(world.hospital.db.clone(), key(world), n_shards);
    let pin = live.pin_suite(world.explainer.suite_pin(&world.spec));

    let check = |oracle: &Database, tag: &str| {
        let vec = live.load();
        let m = vec
            .maintained(pin)
            .expect("every publish carries the maintained partition");
        let cold = cold_maintained(oracle, world);
        assert_eq!(
            render_maintained(m, vec.seq()),
            render_maintained(&cold, vec.seq()),
            "{n_shards} shards: maintained diverged from cold at {tag}"
        );
        assert_eq!(
            m.log_len,
            vec.global_log_len(),
            "{n_shards} shards: partition covers the whole log at {tag}"
        );
    };

    check(&oracle, "the base epoch");
    for (b, step) in steps.iter().enumerate() {
        match step {
            Step::Log(count, seed) => {
                let before = oracle.table(world.spec.table).len();
                world.inject_batch(&mut oracle, *count, *seed);
                let log = oracle.table(world.spec.table);
                let rows: Vec<Vec<Value>> = (before..log.len())
                    .map(|r| log.row(r as u32).to_vec())
                    .collect();
                ingest_rows(&live, &oracle, &rows);
                check(&oracle, &format!("batch {b} ({count} rows)"));
            }
            Step::Dims(grow) => {
                let dims = grow(&oracle, world);
                let before = cold_maintained(&oracle, world).unexplained.len();
                if let Some((name, cols)) = dims.create {
                    oracle.create_table(name, cols).expect("new table");
                }
                for (t, row) in &dims.rows {
                    oracle.insert(*t, row.clone()).expect("valid dimension row");
                }
                live.ingest(|batch| {
                    if let Some((name, cols)) = dims.create {
                        batch.create_table(name, cols).expect("new table");
                    }
                    for (t, row) in &dims.rows {
                        batch
                            .insert_dim(*t, row.clone())
                            .expect("valid dimension row");
                    }
                });
                check(
                    &oracle,
                    &format!("batch {b} ({} dimension rows)", dims.rows.len()),
                );
                if dims.explains {
                    let after = cold_maintained(&oracle, world).unexplained.len();
                    assert!(after < before, "batch {b} explains old residue rows");
                }
            }
        }
    }
}

#[test]
fn maintained_partition_matches_cold_recompute_over_a_fixed_schedule() {
    let world = AuditWorld::tiny(51);
    // Mixed sizes, an empty publication in the middle, and a final
    // surge — at both the degenerate and the parallel shard count.
    let batches = [(5usize, 1u64), (0, 2), (12, 3), (1, 4), (17, 5)];
    for n_shards in [1usize, 4] {
        run_stream_differential(&world, n_shards, &batches);
    }
}

/// A tiny hospital whose suite reaches every kind of dimension growth:
/// the data-set-B templates step through `Mapping` second, the group
/// templates through `Groups` second and third, and one template steps
/// into `Consults`, a table the schedule creates after the snapshot.
fn dimension_world() -> AuditWorld {
    let config = SynthConfig {
        seed: 53,
        use_mapping_table: true,
        ..SynthConfig::tiny()
    };
    let mut hospital = Hospital::generate(config);
    let spec = LogSpec::conventional(&hospital.db).expect("synthetic Log table");
    let model = collaborative_groups(&hospital.db, &spec, HierarchyConfig::default(), 500)
        .expect("groups train on the log");
    install_groups(&mut hospital.db, &model).expect("Groups installs");
    let mut with_consults = hospital.db.clone();
    with_consults
        .create_table(CONSULTS.0, CONSULTS.1)
        .expect("Consults is new");
    let db = &hospital.db;
    let mut templates: Vec<ExplanationTemplate> = HandcraftedTemplates::build(db, &spec)
        .expect("CareWeb schema")
        .all()
        .into_iter()
        .cloned()
        .collect();
    templates.push(same_group(db, &spec, EventTable::Appointments, Some(1)).expect("group"));
    templates.push(same_group(db, &spec, EventTable::Labs, None).expect("group"));
    let consult = Path::handcrafted(
        &with_consults,
        &spec,
        &[("Consults", "Patient", "Consultant")],
    );
    templates.push(ExplanationTemplate::new(consult.expect("consult path")).named("Consult"));
    let users = eba::audit::fake::user_pool(db);
    let patients = (0..hospital.world.n_patients())
        .map(|p| hospital.patient_value(p))
        .collect();
    AuditWorld {
        hospital,
        spec,
        explainer: Explainer::new(templates),
        users,
        patients,
    }
}

const CONSULTS: (&str, &[(&str, DataType)]) = (
    "Consults",
    &[("Patient", DataType::Int), ("Consultant", DataType::Int)],
);
/// An audit id no synthetic user has.
const FRESH_AUDIT_ID: i64 = 990_001;
/// A group id no trained group has.
const FRESH_GROUP: i64 = 880_001;

fn table(db: &Database, name: &str) -> TableId {
    db.table_id(name).expect("CareWeb table")
}

/// `(patient, user)` of every currently unexplained access, in row order.
fn unexplained_pairs(db: &Database, world: &AuditWorld) -> Vec<(Value, Value)> {
    let log = db.table(world.spec.table);
    let pairs: Vec<(Value, Value)> = cold_maintained(db, world)
        .unexplained
        .iter()
        .map(|r| {
            let row = log.row(r);
            (row[world.spec.patient_col], row[world.spec.user_col])
        })
        .collect();
    assert!(pairs.len() >= 8, "the schedule needs residue to explain");
    pairs
}

/// Appointments and documents for four unexplained pairs (one step, at
/// step 1), plus an appointment whose NULL doctor joins nothing.
fn appointments_and_documents(db: &Database, world: &AuditWorld) -> DimBatch {
    let pairs = unexplained_pairs(db, world);
    let (appt, docs) = (table(db, "Appointments"), table(db, "Documents"));
    let mut rows: Vec<(TableId, Vec<Value>)> = pairs[..4]
        .iter()
        .enumerate()
        .map(|(i, &(patient, user))| {
            let t = if i % 2 == 0 { appt } else { docs };
            (t, vec![patient, Value::Date(1), user])
        })
        .collect();
    rows.push((appt, vec![pairs[4].0, Value::Date(1), Value::Null]));
    DimBatch {
        create: None,
        rows,
        explains: true,
    }
}

/// A lab whose result user is an audit id with no mapping yet: the Labs
/// step grows, but nothing can be explained through it.
fn orphan_lab(db: &Database, world: &AuditWorld) -> DimBatch {
    let patient = unexplained_pairs(db, world)[0].0;
    let fresh = Value::Int(FRESH_AUDIT_ID);
    DimBatch {
        create: None,
        rows: vec![(
            table(db, "Labs"),
            vec![patient, Value::Date(1), fresh, fresh],
        )],
        explains: false,
    }
}

/// Maps the orphan lab's audit id to a user with an unexplained access to
/// its patient: only `Mapping`, the data-set-B templates' second step,
/// grows.
fn mapping_for_orphan_lab(db: &Database, world: &AuditWorld) -> DimBatch {
    let labs = db.table(table(db, "Labs"));
    let (_, lab) = labs
        .iter()
        .find(|(_, row)| row[3] == Value::Int(FRESH_AUDIT_ID))
        .expect("the orphan lab landed");
    let (_, user) = *unexplained_pairs(db, world)
        .iter()
        .find(|(p, _)| *p == lab[0])
        .expect("its patient still has unexplained accesses");
    DimBatch {
        create: None,
        rows: vec![(table(db, "Mapping"), vec![Value::Int(FRESH_AUDIT_ID), user])],
        explains: true,
    }
}

/// Adds a user with an unexplained access to a patient to the depth-1
/// group of that patient's appointment doctor — only the group
/// templates' last step gains a link, so the walk back from it crosses
/// every earlier step — and puts a second such pair in a fresh depth-2
/// group, which the depth-1 template's constant filter prunes.
fn shared_group(db: &Database, world: &AuditWorld) -> DimBatch {
    let appts = db.table(table(db, "Appointments"));
    let groups = table(db, "Groups");
    let group_of = |user: Value| {
        db.table(groups)
            .iter()
            .find(|(_, row)| row[0] == Value::Int(1) && row[2] == user)
            .map(|(_, row)| row[1])
    };
    let doctors_group = |patient: Value| {
        appts
            .iter()
            .filter(|(_, row)| row[0] == patient)
            .find_map(|(_, row)| group_of(row[2]))
    };
    let mut linked = unexplained_pairs(db, world)
        .into_iter()
        .filter_map(|(patient, user)| Some((doctors_group(patient)?, user)));
    let (group, user) = linked
        .next()
        .expect("an unexplained patient with a grouped doctor");
    let mut rows = vec![(groups, vec![Value::Int(1), group, user])];
    let (_, user) = linked.next().expect("a second one");
    let doctor = appts.iter().find(|(_, row)| group_of(row[2]).is_some());
    let doctor = doctor.expect("a grouped doctor").1[2];
    for member in [doctor, user] {
        rows.push((groups, vec![Value::Int(2), Value::Int(FRESH_GROUP), member]));
    }
    DimBatch {
        create: None,
        rows,
        explains: true,
    }
}

/// Creates `Consults` after the snapshot, with consults for two
/// unexplained pairs and rows whose NULLs join nothing.
fn consults_table(db: &Database, world: &AuditWorld) -> DimBatch {
    let pairs = unexplained_pairs(db, world);
    let consults = TableId(db.table_count());
    let mut rows: Vec<(TableId, Vec<Value>)> = pairs[..2]
        .iter()
        .map(|&(patient, user)| (consults, vec![patient, user]))
        .collect();
    rows.push((consults, vec![pairs[2].0, Value::Null]));
    rows.push((consults, vec![Value::Null, pairs[3].1]));
    DimBatch {
        create: Some(CONSULTS),
        rows,
        explains: true,
    }
}

/// More consults, now into a table the base snapshot has, plus NULL
/// mapping and group rows.
fn more_consults(db: &Database, world: &AuditWorld) -> DimBatch {
    let pairs = unexplained_pairs(db, world);
    let consults = table(db, CONSULTS.0);
    let mut rows: Vec<(TableId, Vec<Value>)> = pairs[pairs.len() - 2..]
        .iter()
        .map(|&(patient, user)| (consults, vec![patient, user]))
        .collect();
    rows.push((table(db, "Mapping"), vec![Value::Null, pairs[0].1]));
    rows.push((
        table(db, "Groups"),
        vec![Value::Int(1), Value::Int(FRESH_GROUP), Value::Null],
    ));
    DimBatch {
        create: None,
        rows,
        explains: true,
    }
}

#[test]
fn maintained_partition_matches_cold_recompute_under_dimension_growth() {
    let world = dimension_world();
    let steps = [
        Step::Log(6, 11),
        Step::Dims(appointments_and_documents),
        Step::Dims(orphan_lab),
        Step::Dims(mapping_for_orphan_lab),
        Step::Dims(shared_group),
        Step::Dims(consults_table),
        Step::Log(8, 12),
        Step::Dims(more_consults),
    ];
    for n_shards in [1usize, 4] {
        run_schedule(&world, n_shards, &steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random ingest schedules: the incremental partition never drifts
    /// from the cold recompute, at shard counts 1 and 4.
    #[test]
    fn maintained_partition_matches_cold_recompute(
        batches in prop::collection::vec((0usize..18, 0u64..1000), 1..4)
    ) {
        let world = AuditWorld::tiny(52);
        for n_shards in [1usize, 4] {
            run_stream_differential(&world, n_shards, &batches);
        }
    }
}

// ---------------------------------------------------------------------
// Socket layer: SUBSCRIBE / EVENT over real TCP.

/// A never-before-seen user/patient pair: unexplained by construction
/// (no appointment, visit, or document links them), so every ingest
/// below produces fresh unexplained rows deterministically.
fn fresh_rows(tag: i64, n: usize) -> Vec<IngestRow> {
    (0..n as i64)
        .map(|i| IngestRow {
            user: 50_000 + tag * 100 + i,
            patient: 80_000 + tag * 100 + i,
            day: Some(1),
        })
        .collect()
}

#[test]
fn subscribe_feed_delivers_one_event_per_publish() {
    let server = Server::spawn(AuditService::tiny_synthetic(77), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut sub = Client::connect(addr).unwrap();
    let ok = sub.send("SUBSCRIBE UNEXPLAINED").unwrap();
    assert!(
        ok.head.starts_with("OK subscribed unexplained id "),
        "{}",
        ok.head
    );

    let mut writer = Client::connect(addr).unwrap();
    for k in 0..3i64 {
        let reply = writer.ingest(&fresh_rows(k, 2)).unwrap();
        assert!(reply.is_ok(), "{}", reply.head);
        let ev = sub.next_event().unwrap();
        assert!(ev.is_event(), "{}", ev.head);
        assert_eq!(
            ev.field("seq").unwrap().parse::<i64>().unwrap(),
            k + 1,
            "one event per publish, in publish order"
        );
        assert_eq!(ev.field("new").unwrap(), "2", "{}", ev.head);
        assert!(ev.body[0].starts_with("lid "), "{}", ev.body[0]);
    }

    // Event mode accepts nothing but QUIT.
    let bad = sub.send("PING").unwrap();
    assert!(bad.head.starts_with("ERR bad-request"), "{}", bad.head);
    let bye = sub.send("QUIT").unwrap();
    assert_eq!(bye.head, "OK bye");
}

#[test]
fn slow_subscriber_is_shed_without_stalling_the_writer_or_its_peers() {
    let server = Server::spawn(AuditService::tiny_synthetic(78), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let svc = server.service().clone();

    // A healthy dashboard over a real socket...
    let mut sub = Client::connect(addr).unwrap();
    let ok = sub.send("SUBSCRIBE UNEXPLAINED").unwrap();
    assert!(ok.is_ok(), "{}", ok.head);
    let sub_id: u64 = ok.field("id").unwrap().parse().unwrap();
    // ...and a genuinely stalled one: its bounded queue is never
    // drained, so the cap (not kernel socket buffering, which absorbs
    // megabytes before ever blocking a write) decides its fate.
    let (_stalled_id, stalled_rx) = svc.subscribe(eba::server::SubscriptionKind::Unexplained);
    assert_eq!(svc.subscriber_count(), 2);

    // Publish past the queue cap. Every ingest must land: the publisher
    // never blocks on a full subscriber queue — it sheds.
    let rounds = (EVENT_QUEUE_CAP + 6) as i64;
    for r in 0..rounds {
        svc.ingest_rows(&fresh_rows(1000 + r, 2)).unwrap();
    }
    assert_eq!(svc.subscriber_count(), 1, "the stalled dashboard was shed");
    assert_eq!(svc.shed_subscriber_count(), 1);
    assert!(
        svc.warnings().iter().any(|w| w.contains("slow consumer")),
        "the shed lands in the operator log"
    );

    // The writer never stalled: every publish landed, observed over a
    // fresh control session.
    let mut ctl = Client::connect(addr).unwrap();
    let seq: i64 = ctl
        .send("SEQ")
        .unwrap()
        .field("published")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(seq, rounds, "one publish per ingest, none stalled");

    // The shed queue holds exactly the bounded backlog, then reports the
    // publisher's hang-up — nothing silently dropped *within* the cap.
    assert_eq!(stalled_rx.try_iter().count(), EVENT_QUEUE_CAP);
    assert!(stalled_rx.try_recv().is_err(), "sender dropped at the shed");

    // The healthy socket subscriber saw every publish, in order, with
    // no duplicates — shedding its peer never disturbed its feed.
    for k in 0..rounds {
        let ev = sub.next_event().unwrap();
        assert!(ev.is_event(), "{}", ev.head);
        assert_eq!(
            ev.field("seq").unwrap().parse::<i64>().unwrap(),
            k + 1,
            "exactly one event per publish, in publish order"
        );
    }

    // When the publisher drops a socket subscriber's sender (the exact
    // hang-up the queue-full shed performs), the session delivers one
    // typed `ERR slow-consumer` frame and closes.
    svc.unsubscribe(sub_id);
    let notice = sub.next_event().unwrap();
    assert!(
        notice.head.starts_with("ERR slow-consumer"),
        "{}",
        notice.head
    );
    assert!(
        sub.read_reply_frame().is_err(),
        "the connection closes after the shed notice"
    );
}

#[test]
fn pinned_sessions_answer_byte_identically_while_the_feed_fans_out() {
    let server = Server::spawn(AuditService::tiny_synthetic(79), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut pinned = Client::connect(addr).unwrap();
    assert!(pinned.send("PIN").unwrap().is_ok());
    let unexplained_before = pinned.send("UNEXPLAINED 10").unwrap().render();
    let metrics_before = pinned.send("METRICS").unwrap().render();

    let mut sub = Client::connect(addr).unwrap();
    assert!(sub.send("SUBSCRIBE UNEXPLAINED").unwrap().is_ok());
    let mut writer = Client::connect(addr).unwrap();
    assert!(writer.ingest(&fresh_rows(7, 3)).unwrap().is_ok());
    let ev = sub.next_event().unwrap();
    assert!(ev.is_event(), "{}", ev.head);

    // The pinned session's answers have not drifted by a byte...
    assert_eq!(
        pinned.send("UNEXPLAINED 10").unwrap().render(),
        unexplained_before
    );
    assert_eq!(pinned.send("METRICS").unwrap().render(), metrics_before);

    // ...until it repins, at which point the new rows are visible.
    assert!(pinned.send("REPIN").unwrap().is_ok());
    let after = pinned.send("UNEXPLAINED 10").unwrap();
    let total: usize = after.field("unexplained").unwrap().parse().unwrap();
    let before_total: usize = unexplained_before
        .split_whitespace()
        .nth(2)
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(total, before_total + 3, "the fresh rows joined the residue");
}
