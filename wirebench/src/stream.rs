//! `ingest` and `mixed`: a durable server fed the day-4 replay stream in
//! 500-row `INGEST` batches while one `SUBSCRIBE UNEXPLAINED` dashboard
//! listens.
//!
//! * `ingest` — *large* hospital; one closed-loop writer sends batches
//!   back to back (a log shipper that waits for each ack).
//! * `mixed` — *default* hospital; the writer is open-loop, one batch due
//!   every [`MIXED_INTERVAL`], and each batch is timed from its due time;
//!   a closed-loop reader sends `REPIN`, a point read, a report and an
//!   `EXPLAIN` per round.
//!
//! A run is a sequence of whole passes: each pass starts a fresh server
//! on a fresh pile and replays the whole stream, so every pass sees the
//! same residue growth. Passes start until the measured time is used up.

use crate::data::{HospitalSize, Inputs, ReplayRow};
use crate::json::Json;
use crate::read::Samples;
use crate::shadow::{layer_values, Class, ReadShadow, Replica, Rng};
use crate::stats::{median, Summary};
use crate::trace::{Trace, Tracer};
use crate::wire::{body_value, field, is_ok, Conn, Frame, Res, ServeSpec, Server, FSYNC, SHARDS};
use crate::{metric, tail_metric, timing, Args, Gate, Outcome, SETUPS};
use eba_relational::wal::Media;
use eba_relational::{pile, segment, Durability, DurableStore, EvalOptions, Value};
use eba_server::push::Event;
use eba_server::{Command, IngestRow, Session};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub const BATCH: usize = 500;
/// The `mixed` writer's schedule: one batch due every 100 ms, i.e. an
/// offered load of 5,000 rows/s.
pub const MIXED_INTERVAL: Duration = Duration::from_millis(100);
/// How long the dashboard may lag the last acknowledged batch.
const EVENT_DRAIN: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Mixed,
}

impl Kind {
    fn hospital(self) -> HospitalSize {
        match self {
            Kind::Ingest => HospitalSize::Large,
            Kind::Mixed => HospitalSize::Default,
        }
    }

    fn interval(self) -> Option<Duration> {
        match self {
            Kind::Ingest => None,
            Kind::Mixed => Some(MIXED_INTERVAL),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Mixed => "mixed",
        }
    }
}

/// What the passes of one phase measured.
#[derive(Default)]
struct Passes {
    setups_s: Vec<f64>,
    ingest_ms: Vec<f64>,
    late_ms: Vec<f64>,
    acked_rows: u64,
    event_ms: Vec<f64>,
    events: u64,
    event_shed: u64,
    ingest_shed: u64,
    rss_mb: Vec<f64>,
    residue: Vec<(usize, usize)>,
    batches_offered: u64,
    writer: Samples,
    reader: Samples,
    passes: usize,
    templates: Option<usize>,
    unshadowed_rounds: u64,
    /// Writer busy time (first send to last ack) of the latest pass.
    last_busy_s: f64,
    pass_rows_per_s: Vec<f64>,
    pass_reads_per_s: Vec<f64>,
}

/// One `EVENT unexplained` frame as the dashboard received it.
struct Ev {
    seq: u64,
    new: usize,
    total: usize,
    at: Instant,
}

/// The dashboard: collects events until `QUIT` is answered (returns 0)
/// or the server sheds it (returns 1).
fn dashboard(mut conn: Conn, events: &Mutex<Vec<Ev>>) -> Res<u64> {
    loop {
        let frame = conn.read_frame()?;
        let at = Instant::now();
        let head = frame.first().map(String::as_str).unwrap_or("");
        if head.starts_with("EVENT unexplained") {
            events.lock().expect("event list poisoned").push(Ev {
                seq: field(head, "seq").ok_or("EVENT without seq")?,
                new: field(head, "new").ok_or("EVENT without new")?,
                total: field(head, "total").ok_or("EVENT without total")?,
                at,
            });
        } else if head.starts_with("OK bye") {
            return Ok(0);
        } else if head.starts_with("ERR slow-consumer") {
            return Ok(1);
        } else {
            return Err(format!("dashboard got {head:?}"));
        }
    }
}

/// Shared between the traced writer and reader: the replica's published
/// seq, so the reader can pin the epoch its wire `REPIN` named.
type SeqCell = Arc<(Mutex<u64>, Condvar)>;

/// A [`Media`] over a file that counts fsyncs and bytes written.
struct Counting {
    file: std::fs::File,
    syncs: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl Media for Counting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::io::Read::read(&mut self.file, buf)
    }
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = Write::write(&mut self.file, buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        std::io::Seek::seek(&mut self.file, pos)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.file.sync_data()
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
}

/// The traced writer's replica-side state.
struct WriterShadow {
    tracer: Tracer,
    rep: Arc<Replica>,
    session: Session,
    events: Receiver<Event>,
    store: DurableStore,
    store_path: PathBuf,
    syncs: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
    seq: SeqCell,
    mismatches: Vec<String>,
}

impl WriterShadow {
    fn new(tracer: Tracer, rep: Arc<Replica>, dir: &Path, seq: SeqCell) -> Res<WriterShadow> {
        let (_, events) = rep.svc.subscribe(eba_server::SubscriptionKind::Unexplained);
        let store_path = dir.join("shadow.pile");
        let syncs = Arc::new(AtomicU64::new(0));
        let bytes = Arc::new(AtomicU64::new(0));
        let open = |path: &Path| -> Res<Box<dyn Media>> {
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Box::new(Counting {
                file,
                syncs: syncs.clone(),
                bytes: bytes.clone(),
            }))
        };
        let (store, _, _) = DurableStore::open_on(
            open(&store_path)?,
            open(&DurableStore::wal_path(&store_path))?,
            "shadow",
            Durability::Strict,
            pile::default_checkpoint_rows(),
        )
        .map_err(|e| format!("shadow pile: {e}"))?;
        Ok(WriterShadow {
            tracer,
            session: Session::new(rep.svc.clone()),
            rep,
            events,
            store,
            store_path,
            syncs,
            bytes,
            seq,
            mismatches: Vec::new(),
        })
    }

    /// Repeats one acknowledged batch on the replica and times each
    /// ingest phase with shadow calls against the epoch it published.
    fn observe(&mut self, text: &str, t0: Instant, t1: Instant, wire: &Frame) {
        let tr = &mut self.tracer;
        let req = tr.request();
        let w = tr.record("wire.ingest", req, None, t0, t1);
        let (parsed, _) = tr.time("server.protocol.parse", req, Some(w), || {
            let mut lines = text.lines();
            let cmd = Command::parse(lines.next().unwrap_or(""));
            let rows: Result<Vec<IngestRow>, _> = lines
                .enumerate()
                .map(|(i, l)| IngestRow::parse(l, i))
                .collect();
            (cmd, rows)
        });
        let (Ok(Some(cmd)), Ok(rows)) = parsed else {
            self.mismatches.push("INGEST batch did not parse".into());
            return;
        };
        let svc = self.rep.svc.clone();
        let prev = svc.sharded().load();
        segment::reset_copied_bytes();
        let (resp, h) = {
            let (cell, cv) = &*self.seq;
            let mut published = cell.lock().expect("seq cell poisoned");
            let session = &mut self.session;
            let out = tr.time("relational.ingest.service", req, Some(w), || {
                session.handle(cmd, rows)
            });
            *published = svc.sharded().seq();
            cv.notify_all();
            out
        };
        tr.sample(
            "relational.segment.copied_bytes_per_epoch",
            segment::copied_bytes() as f64,
        );
        let service_ns = tr.dur_ns(h) as f64;
        tr.sample("server.wire.ingest", tr.dur_ns(w) as f64 - service_ns);
        if wire.first() != Some(&resp.head) {
            self.mismatches.push(format!(
                "INGEST: wire {:?} replica {:?}",
                wire.first(),
                resp.head
            ));
        }
        while self.events.try_recv().is_ok() {}

        let new = svc.sharded().load();
        assert_eq!(new.shard_count(), 1, "the benchmark serves one shard");
        let (p, n) = (&prev.shards()[0], &new.shards()[0]);
        let (l0, l1) = (p.log_len(), n.log_len());
        let (_, clone) = tr.time("relational.ingest.clone", req, Some(h), || {
            black_box(p.db().clone())
        });
        let ((engine, stats), refresh) = tr.time("relational.ingest.refresh", req, Some(h), || {
            let mut e = p.engine().fork();
            let stats = e.refresh(n.db());
            (e, stats)
        });
        let mut shadow_ns = (tr.dur_ns(clone) + tr.dur_ns(refresh)) as f64;
        let grown = match &stats {
            Ok(st) => {
                tr.sample(
                    "relational.refresh.dropped_step_maps",
                    st.dropped_step_maps as f64,
                );
                tr.sample(
                    "relational.refresh.stale_partitions",
                    st.stale_partitions as f64,
                );
                st.delta.grown.clone()
            }
            Err(_) => Vec::new(),
        };
        tr.sample(
            "relational.refresh.rebuilt",
            field::<f64>(&resp.head, "rebuilt").unwrap_or(0.0),
        );
        let rep = &*self.rep;
        let (_, range) = tr.time("relational.advance.range", req, Some(h), || {
            black_box(engine.eval_suite_range(n.db(), &rep.queries, EvalOptions::default(), l0, l1))
        });
        shadow_ns += tr.dur_ns(range) as f64;
        let reask: Vec<_> = rep
            .queries
            .iter()
            .filter(|q| q.steps.iter().any(|st| grown.contains(&st.table)))
            .cloned()
            .collect();
        let residue = prev
            .maintained(svc.pin_id())
            .map(|m| m.unexplained.clone())
            .unwrap_or_default();
        tr.sample("relational.advance.residue_rows", residue.len() as f64);
        tr.sample("relational.advance.reask_templates", reask.len() as f64);
        if !reask.is_empty() && !residue.is_empty() {
            let (_, r) = tr.time("relational.advance.reask", req, Some(h), || {
                black_box(engine.eval_suite_rows(n.db(), &reask, EvalOptions::default(), &residue))
            });
            shadow_ns += tr.dur_ns(r) as f64;
        }
        tr.sample("relational.ingest.residual", service_ns - shadow_ns);

        let db = n.db();
        let log = db.table(svc.spec.table);
        let appended: Vec<Vec<Value>> = (l0..l1).map(|r| log.row(r as u32).to_vec()).collect();
        let seq = new.seq();
        let batch = pile::plain_batch(db, seq, &log.schema().name, l0 as u64, &appended);
        let (s0, b0) = (
            self.syncs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        );
        let (appended_ok, _) = tr.time("relational.pile.append", req, Some(h), || {
            self.store.append(batch)
        });
        if let Err(e) = appended_ok {
            self.mismatches.push(format!("shadow pile append: {e}"));
        }
        tr.sample(
            "relational.pile.fsyncs",
            (self.syncs.load(Ordering::Relaxed) - s0) as f64,
        );
        let rows = (l1 - l0).max(1) as f64;
        tr.sample(
            "relational.pile.bytes_per_row",
            (self.bytes.load(Ordering::Relaxed) - b0) as f64 / rows,
        );
    }

    /// Times recovery of the shadow pile into the base database.
    fn recover(mut self) -> (Tracer, Vec<String>) {
        let mut db = self.rep.base.clone();
        let tr = &mut self.tracer;
        let req = tr.request();
        let (out, _) = tr.time("relational.pile.recover", req, None, || {
            let (_, batches, _) = DurableStore::open(
                &self.store_path,
                Durability::Strict,
                pile::default_checkpoint_rows(),
            )?;
            pile::replay_into(&mut db, &batches)
        });
        if let Err(e) = out {
            self.mismatches.push(format!("shadow pile recovery: {e}"));
        }
        (self.tracer, self.mismatches)
    }
}

/// The `mixed` reader: `REPIN`, a point read, a report and an `EXPLAIN`
/// per round until the writer is done.
fn reader(
    addr: &str,
    seed: u64,
    lids: &[i64],
    done: &AtomicBool,
    mut shadow: Option<(ReadShadow, SeqCell)>,
) -> Res<(Samples, Option<ReadShadow>, u64)> {
    let mut conn = Conn::connect(addr)?;
    let mut rng = Rng::new(seed);
    let mut s = Samples::default();
    let mut round = 0u64;
    let mut skipped = 0u64;
    while !done.load(Ordering::SeqCst) {
        round += 1;
        let pin = s.timed(&mut conn, "REPIN", Class::Control, None)?;
        let epoch: u64 = pin.first().and_then(|h| field(h, "epoch")).unwrap_or(0);
        // Shadow this round only if the replica can pin the same epoch.
        let mut sh = None;
        if let Some((rs, cell)) = shadow.as_mut() {
            let (m, cv) = &**cell;
            let mut published = m.lock().expect("seq cell poisoned");
            let deadline = Instant::now() + Duration::from_secs(2);
            while *published < epoch && Instant::now() < deadline {
                published = cv
                    .wait_timeout(published, Duration::from_millis(50))
                    .expect("seq cell poisoned")
                    .0;
            }
            if *published == epoch {
                drop(published);
                rs.repin();
                sh = Some(rs);
            } else {
                skipped += 1;
            }
        }
        let point = if round.is_multiple_of(2) {
            "METRICS".to_string()
        } else {
            format!("UNEXPLAINED {}", crate::read::PAGE)
        };
        s.timed(&mut conn, &point, Class::Point, sh.as_deref_mut())?;
        let report = if round.is_multiple_of(2) {
            "TIMELINE"
        } else {
            "MISUSE"
        };
        s.timed(&mut conn, report, Class::Report, sh.as_deref_mut())?;
        let lid = *rng.pick(lids);
        s.timed(&mut conn, &format!("EXPLAIN {lid}"), Class::Point, sh.as_deref_mut())?;
        // After the round's shadows, so they met the epoch as the wire did.
        if let Some(rs) = sh {
            rs.prepare_probe();
        }
    }
    conn.send("QUIT\n")?;
    Ok((s, shadow.map(|(rs, _)| rs), skipped))
}

/// The writer: replays the stream on `conn` and returns `(seq, send
/// time)` per acknowledged batch.
fn writer(
    conn: &mut Conn,
    kind: Kind,
    replay: &[ReplayRow],
    p: &mut Passes,
    mut shadow: Option<&mut WriterShadow>,
) -> Res<HashMap<u64, Instant>> {
    let mut sent = HashMap::new();
    let start = Instant::now();
    let mut first_send = None;
    let mut last_ack = start;
    for (i, chunk) in replay.chunks(BATCH).enumerate() {
        let due = kind.interval().map(|iv| start + iv * i as u32);
        if let Some(due) = due {
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        p.batches_offered += 1;
        let mut text = format!("INGEST {}\n", chunk.len());
        for r in chunk {
            text.push_str(&r.line());
            text.push('\n');
        }
        loop {
            let t0 = Instant::now();
            conn.send(&text)?;
            let frame = conn.read_frame()?;
            let t1 = Instant::now();
            first_send.get_or_insert(t0);
            last_ack = t1;
            p.writer.attempted += 1;
            let head = frame.first().cloned().unwrap_or_default();
            if head.starts_with("ERR overloaded") {
                // Shed before any work was done: count it and resend.
                p.ingest_shed += 1;
                p.writer.failed += 1;
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            if !is_ok(&frame) {
                p.writer.failed += 1;
                p.writer.errors.push(format!("INGEST: {head}"));
                break;
            }
            let origin = due.unwrap_or(t0);
            p.ingest_ms.push((t1 - origin).as_secs_f64() * 1e3);
            if let Some(due) = due {
                p.late_ms
                    .push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
            }
            let rows: usize = field(&head, "rows").unwrap_or(0);
            p.writer.guards_run += 1;
            if rows != chunk.len() {
                p.writer
                    .guard_failures
                    .push(format!("ack says {rows} rows, {} were sent", chunk.len()));
            }
            p.acked_rows += rows as u64;
            if let Some(seq) = field::<u64>(&head, "seq") {
                sent.insert(seq, t0);
            }
            if let Some(sh) = shadow.as_deref_mut() {
                sh.observe(&text, t0, t1, &frame);
            }
            break;
        }
    }
    if let Some(t) = first_send {
        p.last_busy_s = (last_ack - t).as_secs_f64();
    }
    Ok(sent)
}

fn metrics_frame(conn: &mut Conn) -> Res<(usize, usize)> {
    let m = conn.request("METRICS")?;
    let unexplained = body_value(&m, "unexplained").ok_or("METRICS without unexplained")?;
    let explained = body_value(&m, "explained").ok_or("METRICS without explained")?;
    Ok((unexplained, explained))
}

/// The traced state of one pass: the replica's set-up spans plus the
/// writer's and reader's shadows.
struct PassShadows {
    setup: Tracer,
    writer: WriterShadow,
    reader: Option<(ReadShadow, SeqCell)>,
}

impl PassShadows {
    fn new(origin: Instant, inputs: &Inputs, work: &Path, kind: Kind) -> Res<PassShadows> {
        let mut setup = Tracer::new(origin, "setup");
        let rep = Arc::new(Replica::build(
            &inputs.dir,
            Some(&work.join("replica.pile")),
            &mut setup,
        )?);
        let cell: SeqCell = Arc::new((Mutex::new(0), Condvar::new()));
        let writer = WriterShadow::new(
            Tracer::new(origin, "writer"),
            rep.clone(),
            work,
            cell.clone(),
        )?;
        let reader = (kind == Kind::Mixed)
            .then(|| (ReadShadow::new(Tracer::new(origin, "reader"), &rep), cell));
        Ok(PassShadows {
            setup,
            writer,
            reader,
        })
    }
}

/// One whole pass: fresh pile, fresh server, the whole stream. With
/// `traced`, the pass's shadows add their spans to the trace.
fn pass(
    args: &Args,
    kind: Kind,
    inputs: &Inputs,
    p: &mut Passes,
    restart_check: bool,
    traced: Option<(&mut Trace, Instant)>,
) -> Res<()> {
    let work = args.work_dir().join(format!("pass{}", p.passes));
    crate::wire::clear_dir(&work)?;
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let spec = ServeSpec {
        eba: args.eba.clone(),
        data: inputs.dir.clone(),
        pile: Some(work.join("serve.pile")),
        log: work.join("server.log"),
    };
    // The replica is built before the server starts, so its set-up never
    // overlaps the measured traffic.
    let mut shadows = match &traced {
        Some((_, origin)) => Some(PassShadows::new(*origin, inputs, &work, kind)?),
        None => None,
    };
    let server = Server::start(&spec)?;
    p.setups_s.push(server.setup.as_secs_f64());
    p.templates = server.templates;
    p.passes += 1;

    let mut sub = Conn::connect(&server.addr)?;
    let ok = sub.request("SUBSCRIBE UNEXPLAINED")?;
    if !is_ok(&ok) {
        return Err(format!("SUBSCRIBE refused: {:?}", ok.first()));
    }
    let mut quit = sub.writer_handle()?;
    // The writer's connection also reads the residue before and after.
    let mut wconn = Conn::connect(&server.addr)?;
    let (u0, _) = metrics_frame(&mut wconn)?;
    let done = AtomicBool::new(false);
    let events: Mutex<Vec<Ev>> = Mutex::new(Vec::new());
    let seed = args.seed ^ ((p.passes as u64) << 32);
    let acked_before = p.acked_rows;
    let reads_before = p.reader.reads();
    let (writer_shadow, reader_shadow) = match shadows.as_mut() {
        Some(s) => (Some(&mut s.writer), s.reader.take()),
        None => (None, None),
    };

    let (sent, reader_out, dash, after) = std::thread::scope(|scope| {
        let dash = scope.spawn(|| dashboard(sub, &events));
        let rd = (kind == Kind::Mixed).then(|| {
            let (done, lids, addr) = (&done, &inputs.lids, server.addr.as_str());
            scope.spawn(move || reader(addr, seed, lids, done, reader_shadow))
        });
        let sent = writer(&mut wconn, kind, &inputs.replay, p, writer_shadow);
        done.store(true, Ordering::SeqCst);
        let reader_out = rd.map(|h| h.join().expect("reader thread panicked"));
        // Let the dashboard catch up with the final residue, then quit it.
        let after = wconn
            .request("REPIN")
            .and_then(|_| metrics_frame(&mut wconn))
            .and_then(|m| {
                let timeline = wconn.request("TIMELINE")?;
                let deadline = Instant::now() + EVENT_DRAIN;
                let caught_up = || {
                    let evs = events.lock().expect("event list poisoned");
                    m.0 == u0 || evs.last().is_some_and(|e| e.total == m.0)
                };
                while !caught_up() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok((m, timeline))
            });
        let _ = quit.write_all(b"QUIT\n");
        let _ = wconn.send("QUIT\n");
        let dash = dash.join().expect("dashboard thread panicked");
        (sent, reader_out, dash, after)
    });
    let sent = sent?;
    let ((u1, e1), timeline) = after?;
    let shed = dash?;
    let events = events.into_inner().expect("event list poisoned");
    p.event_shed += shed;
    p.events += events.len() as u64;
    for ev in &events {
        if let Some(t0) = sent.get(&ev.seq) {
            p.event_ms
                .push(ev.at.saturating_duration_since(*t0).as_secs_f64() * 1e3);
        }
    }
    p.residue.push((u0, u1));
    let g = &mut p.writer;
    // A shed dashboard is a refused operation, and it missed events.
    g.attempted += 1;
    g.guards_run += 3;
    if shed > 0 {
        g.failed += shed;
        g.guard_failures
            .push("dashboard shed (slow-consumer)".to_string());
    }
    // Exactly once: the events' `new` counts add up to the residue growth.
    let new_sum: usize = events.iter().map(|e| e.new).sum();
    if shed == 0 && (u1 < u0 || new_sum != u1 - u0) {
        g.guard_failures.push(format!(
            "EVENT new counts sum to {new_sum}, unexplained went {u0} -> {u1}"
        ));
    }
    // Cold (TIMELINE) agrees with maintained (METRICS).
    let timeline_explained: usize = timeline
        .iter()
        .skip(1)
        .filter_map(|l| field::<usize>(l, "explained"))
        .sum();
    if timeline_explained != e1 {
        g.guard_failures.push(format!(
            "TIMELINE explains {timeline_explained} accesses, METRICS {e1}"
        ));
    }
    let mut reader_shadow = None;
    if let Some(r) = reader_out {
        let (rs, sh, skipped) = r?;
        p.reader.merge(rs);
        p.unshadowed_rounds += skipped;
        reader_shadow = sh;
    }
    let busy = p.last_busy_s.max(f64::MIN_POSITIVE);
    p.pass_rows_per_s
        .push((p.acked_rows - acked_before) as f64 / busy);
    p.pass_reads_per_s
        .push((p.reader.reads() - reads_before) as f64 / busy);
    p.rss_mb.push(server.peak_rss_mb()?);
    server.kill();
    if restart_check {
        // published ⊆ durable: a restart on the pile recovers exactly the
        // acknowledged rows.
        let acked = p.acked_rows - acked_before;
        let again = Server::start(&spec)?;
        let rec = Conn::connect(&again.addr)?.request("RECOVERY")?;
        let rows: Option<u64> = rec.first().and_then(|h| field(h, "rows"));
        p.writer.guards_run += 1;
        if rows != Some(acked) {
            p.writer
                .guard_failures
                .push(format!("RECOVERY rows {rows:?}, acknowledged {acked}"));
        }
        again.kill();
    }
    if let (Some((trace, _)), Some(s)) = (traced, shadows) {
        trace.add(s.setup);
        let (tracer, mismatches) = s.writer.recover();
        trace.add(tracer);
        p.writer.guards_run += 1;
        p.writer
            .guard_failures
            .extend(mismatches.into_iter().take(4));
        if let Some(rs) = reader_shadow {
            p.writer.guards_run += 1;
            p.writer
                .guard_failures
                .extend(rs.mismatches.into_iter().take(4));
            trace.add(rs.tracer);
        }
    }
    crate::wire::clear_dir(&work)?;
    Ok(())
}

/// Passes until `dur` is used up (at least one).
fn phase(
    args: &Args,
    kind: Kind,
    inputs: &Inputs,
    dur: Duration,
    mut trace: Option<&mut Trace>,
) -> Res<Passes> {
    let mut p = Passes::default();
    let origin = Instant::now();
    while p.passes == 0 || origin.elapsed() < dur {
        let restart_check = p.passes == 0 && trace.is_none();
        let traced = trace.as_deref_mut().map(|t| (t, origin));
        pass(args, kind, inputs, &mut p, restart_check, traced)?;
    }
    Ok(p)
}

impl Passes {
    fn ingest(&self) -> Summary {
        Summary::of(&self.ingest_ms)
    }

    /// Median over passes of acknowledged rows per second of writer time.
    fn rows_per_s(&self) -> f64 {
        median(&self.pass_rows_per_s)
    }

    /// Median over passes of reader reads per second of writer time.
    fn reads_per_s(&self) -> f64 {
        median(&self.pass_reads_per_s)
    }

    fn attempted(&self) -> u64 {
        self.writer.attempted + self.reader.attempted
    }

    fn failed(&self) -> u64 {
        self.writer.failed + self.reader.failed
    }

    fn error_rate(&self) -> f64 {
        crate::error_rate(self.failed(), self.attempted())
    }
}

pub fn run(args: &Args, kind: Kind) -> Res<Outcome> {
    let inputs = args.inputs(kind.hospital(), true)?;
    let mut p = phase(args, kind, &inputs, args.measure(), None)?;
    // Top up to SETUPS launches (fresh pile each) for the set-up median.
    let mut setups = p.setups_s.clone();
    while setups.len() < SETUPS {
        let dir = args.work_dir().join("setup");
        crate::wire::clear_dir(&dir)?;
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let s = Server::start(&ServeSpec {
            eba: args.eba.clone(),
            data: inputs.dir.clone(),
            pile: Some(dir.join("serve.pile")),
            log: dir.join("server.log"),
        })?;
        setups.push(s.setup.as_secs_f64());
        s.kill();
    }
    let ingest = p.ingest();
    let point = Summary::of(&p.reader.point_ms);
    let report = Summary::of(&p.reader.report_ms);
    let events = Summary::of(&p.event_ms);
    let rss_mb = median(&p.rss_mb);
    let gate = Gate {
        setup_s: median(&setups),
        p50_ms: ingest.p50,
        throughput_per_s: match kind {
            Kind::Ingest => p.rows_per_s(),
            Kind::Mixed => p.reads_per_s(),
        },
        rss_mb,
    };
    let mut m = Json::obj()
        .set("setup_s", metric(gate.setup_s, "s"))
        .set("ingest_p50_ms", timing(&ingest, "ms"))
        .set("ingest_p99_ms", tail_metric(&ingest, "ms"))
        .set("ingest_rows_per_s", metric(p.rows_per_s(), "1/s"))
        .set("event_p50_ms", timing(&events, "ms"))
        .set("rss_mb", metric(rss_mb, "MB"))
        .set("error_rate", metric(p.error_rate(), "ratio"));
    if kind == Kind::Mixed {
        m.insert("point_p50_ms", timing(&point, "ms"));
        m.insert("point_p99_ms", tail_metric(&point, "ms"));
        m.insert("report_p50_ms", timing(&report, "ms"));
        m.insert("report_p99_ms", tail_metric(&report, "ms"));
        m.insert("reads_per_s", metric(p.reads_per_s(), "1/s"));
    }
    let mut detail = Json::obj()
        .set("hospital", kind.hospital().name())
        .set("log_rows", inputs.log_rows)
        .set("base_rows", inputs.base_rows)
        .set("stream_rows", inputs.replay.len())
        .set("split_day", crate::data::SPLIT_DAY)
        .set("templates", p.templates)
        // Every pass replays the same stream from the same base.
        .set("residue_start", p.residue.first().map(|r| r.0))
        .set("residue_end", p.residue.first().map(|r| r.1))
        .set("shards", SHARDS)
        .set("fsync", FSYNC)
        .set("batch_rows", BATCH)
        .set(
            "writer",
            match kind.interval() {
                None => Json::from("closed loop, one connection"),
                Some(iv) => Json::from(format!(
                    "open loop, one batch every {} ms ({} rows/s offered)",
                    iv.as_millis(),
                    BATCH as f64 / iv.as_secs_f64()
                )),
            },
        )
        .set(
            "connections",
            if kind == Kind::Mixed { 3usize } else { 2usize },
        )
        .set("passes", p.passes)
        .set("batches_offered", p.batches_offered)
        .set("events", p.events)
        .set(
            "setup_samples_s",
            setups.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
        )
        .set(
            "errors",
            p.writer
                .errors
                .iter()
                .chain(&p.reader.errors)
                .map(|e| Json::Str(e.clone()))
                .collect::<Vec<_>>(),
        );
    if kind == Kind::Mixed {
        detail.insert("generator_late_ms", Summary::of(&p.late_ms).to_json());
    }
    detail.insert("metrics", m);
    let mut attempted = p.attempted();
    let mut failed = p.failed();
    let mut guard_failures: Vec<String> = p
        .writer
        .guard_failures
        .drain(..)
        .chain(p.reader.guard_failures.drain(..))
        .collect();
    let mut guards_run = p.writer.guards_run + p.reader.guards_run;

    let layers = if args.trace {
        let mut trace = Trace::default();
        let mut t = phase(args, kind, &inputs, args.measure(), Some(&mut trace))?;
        let mut wire = Tracer::new(Instant::now(), "wire");
        wire.count("server.push.events", t.events as f64);
        wire.count("server.push.shed", t.event_shed as f64);
        wire.count("server.ingest.shed", t.ingest_shed as f64);
        trace.add(wire);
        attempted += t.attempted();
        failed += t.failed();
        guard_failures.extend(
            t.writer
                .guard_failures
                .drain(..)
                .chain(t.reader.guard_failures.drain(..)),
        );
        guards_run += t.writer.guards_run + t.reader.guards_run;
        let mut overhead = Json::obj()
            .set("ingest_p50_ms", t.ingest().p50 - ingest.p50)
            .set("ingest_rows_per_s", t.rows_per_s() - p.rows_per_s())
            .set("unshadowed_reader_rounds", t.unshadowed_rounds);
        if kind == Kind::Mixed {
            overhead.insert("reads_per_s", t.reads_per_s() - p.reads_per_s());
        }
        detail.insert("tracing_overhead", overhead);
        detail.insert("spans", trace.span_count());
        trace
            .write(
                &args
                    .out
                    .join(format!("spans-{}-seed{}.jsonl", kind.name(), args.seed)),
            )
            .map_err(|e| format!("writing spans: {e}"))?;
        Some(layer_values(&trace))
    } else {
        None
    };
    Ok(Outcome {
        attempted,
        failed,
        guard_failures,
        guards_run,
        gate,
        report: detail,
        layers,
    })
}
