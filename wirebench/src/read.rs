//! `read`: a static server on the *default* hospital, two closed-loop
//! sessions on two connections.
//!
//! * patient portal — `EXPLAIN <random lid>`, back to back;
//! * auditor — each round walks one `UNEXPLAINED 50 AFTER <rid>` page,
//!   sends `METRICS` and `MISUSE <random user>`, and every
//!   [`REPORT_EVERY`]-th round also `TIMELINE` and `MISUSE`.

use crate::data::{self, HospitalSize, Inputs};
use crate::json::Json;
use crate::shadow::{layer_values, Class, ReadShadow, Replica, Rng};
use crate::stats::{median, Summary};
use crate::trace::{Trace, Tracer};
use crate::wire::{body_value, field, is_ok, Conn, Frame, Res, ServeSpec, Server, SHARDS};
use crate::{metric, tail_metric, timing, Args, Gate, Outcome, SETUPS};
use eba_audit::metrics;
use eba_core::ExplanationTemplate;
use eba_relational::Value;
use std::collections::HashSet;
use std::time::{Duration, Instant};

pub const PAGE: usize = 50;
pub const REPORT_EVERY: u64 = 5;
/// Every this many portal replies one is kept for the `EXPLAIN` guard.
const EXPLAIN_SAMPLE_EVERY: u64 = 250;
/// In traced runs, every this many portal requests one is shadowed.
const PORTAL_TRACE_EVERY: u64 = 10;

/// Latency samples and outcomes of one or more client threads.
#[derive(Default)]
pub struct Samples {
    pub point_ms: Vec<f64>,
    pub report_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Guard failures found while the traffic ran.
    pub guard_failures: Vec<String>,
    pub guards_run: u64,
    /// `(lid, reply)` pairs kept for the `EXPLAIN` guard.
    pub explain_replies: Vec<(i64, Frame)>,
    /// When set, completed reads are also counted per one-second window
    /// since this instant.
    pub origin: Option<Instant>,
    pub windows: Vec<u64>,
}

impl Samples {
    pub fn merge(&mut self, o: Samples) {
        self.point_ms.extend(o.point_ms);
        self.report_ms.extend(o.report_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.guard_failures.extend(o.guard_failures);
        self.guards_run += o.guards_run;
        self.explain_replies.extend(o.explain_replies);
        if self.windows.len() < o.windows.len() {
            self.windows.resize(o.windows.len(), 0);
        }
        for (w, n) in self.windows.iter_mut().zip(o.windows) {
            *w += n;
        }
    }

    /// The median per-second read rate over the `full` complete windows
    /// (robust to a stall in one second, unlike a total over the run).
    pub fn window_rate(&self, full: usize) -> f64 {
        let counted: Vec<f64> = self
            .windows
            .iter()
            .take(full.max(1))
            .map(|&n| n as f64)
            .collect();
        median(&counted)
    }

    /// Sends one read and records its round trip; `ERR` replies count as
    /// failed.
    pub fn timed(
        &mut self,
        conn: &mut Conn,
        line: &str,
        class: Class,
        shadow: Option<&mut ReadShadow>,
    ) -> Res<Frame> {
        let t0 = Instant::now();
        let frame = conn.request(line)?;
        let t1 = Instant::now();
        self.attempted += 1;
        if !is_ok(&frame) {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{line}: {:?}", frame.first()));
            }
            return Ok(frame);
        }
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        match class {
            Class::Point => self.point_ms.push(ms),
            Class::Report => self.report_ms.push(ms),
            Class::Control => return Ok(frame),
        }
        if let Some(origin) = self.origin {
            let w = (t1 - origin).as_secs() as usize;
            if self.windows.len() <= w {
                self.windows.resize(w + 1, 0);
            }
            self.windows[w] += 1;
        }
        if let Some(sh) = shadow {
            sh.observe(line, class, t0, t1, &frame);
        }
        Ok(frame)
    }

    pub fn reads(&self) -> usize {
        self.point_ms.len() + self.report_ms.len()
    }
}

/// The `UNEXPLAINED` cursor walk: follows `next` cursors and checks that
/// a completed walk returned exactly `unexplained` distinct rows.
#[derive(Default)]
pub struct Walk {
    cursor: Option<u32>,
    lids: HashSet<String>,
    rows: usize,
}

impl Walk {
    pub fn request(&self) -> String {
        match self.cursor {
            None => format!("UNEXPLAINED {PAGE}"),
            Some(c) => format!("UNEXPLAINED {PAGE} AFTER {c}"),
        }
    }

    /// Absorbs one page; on the walk's last page returns the guard result
    /// and starts over.
    pub fn absorb(&mut self, page: &Frame) -> Option<Result<(), String>> {
        if !is_ok(page) {
            return None;
        }
        let total: usize = field(&page[0], "unexplained")?;
        let mut next = None;
        for line in &page[1..] {
            if let Some(lid) = line.strip_prefix("lid ") {
                self.rows += 1;
                self.lids
                    .insert(lid.split(' ').next().unwrap_or("").to_string());
            } else if let Some(rest) = line.strip_prefix("next ") {
                next = field::<u32>(rest, "AFTER");
            }
        }
        self.cursor = next;
        if next.is_some() {
            return None;
        }
        let outcome = if self.rows == total && self.lids.len() == total {
            Ok(())
        } else {
            Err(format!(
                "cursor walk returned {} rows ({} distinct), expected {total}",
                self.rows,
                self.lids.len()
            ))
        };
        *self = Walk::default();
        Some(outcome)
    }
}

fn portal(
    addr: &str,
    seed: u64,
    origin: Instant,
    until: Instant,
    lids: &[i64],
    mut shadow: Option<ReadShadow>,
) -> Res<(Samples, Option<ReadShadow>)> {
    let mut conn = Conn::connect(addr)?;
    let mut rng = Rng::new(seed);
    let mut s = Samples {
        origin: Some(origin),
        ..Samples::default()
    };
    let mut n = 0u64;
    while Instant::now() < until {
        let lid = *rng.pick(lids);
        // Portal requests are cheap and many: shadow one in ten.
        let sampled = shadow
            .as_mut()
            .filter(|_| n.is_multiple_of(PORTAL_TRACE_EVERY));
        let frame = s.timed(&mut conn, &format!("EXPLAIN {lid}"), Class::Point, sampled)?;
        n += 1;
        if n.is_multiple_of(EXPLAIN_SAMPLE_EVERY) {
            s.explain_replies.push((lid, frame));
        }
    }
    conn.send("QUIT\n")?;
    Ok((s, shadow))
}

fn auditor(
    addr: &str,
    seed: u64,
    origin: Instant,
    until: Instant,
    users: &[i64],
    mut shadow: Option<ReadShadow>,
) -> Res<(Samples, Option<ReadShadow>)> {
    let mut conn = Conn::connect(addr)?;
    let mut rng = Rng::new(seed);
    let mut s = Samples {
        origin: Some(origin),
        ..Samples::default()
    };
    let mut walk = Walk::default();
    let mut round = 0u64;
    while Instant::now() < until {
        round += 1;
        let page = s.timed(&mut conn, &walk.request(), Class::Point, shadow.as_mut())?;
        if let Some(outcome) = walk.absorb(&page) {
            s.guards_run += 1;
            if let Err(e) = outcome {
                s.guard_failures.push(e);
            }
        }
        s.timed(&mut conn, "METRICS", Class::Point, shadow.as_mut())?;
        let user = *rng.pick(users);
        s.timed(
            &mut conn,
            &format!("MISUSE {user}"),
            Class::Report,
            shadow.as_mut(),
        )?;
        if round.is_multiple_of(REPORT_EVERY) {
            s.timed(&mut conn, "TIMELINE", Class::Report, shadow.as_mut())?;
            s.timed(&mut conn, "MISUSE", Class::Report, shadow.as_mut())?;
        }
    }
    conn.send("QUIT\n")?;
    Ok((s, shadow))
}

/// Both sessions for `dur`, optionally shadowed.
fn traffic(
    addr: &str,
    seed: u64,
    dur: Duration,
    inputs: &Inputs,
    shadows: Option<(ReadShadow, ReadShadow)>,
) -> Res<(Samples, Vec<ReadShadow>)> {
    let origin = Instant::now();
    let until = origin + dur;
    let (sp, sa) = match shadows {
        Some((p, a)) => (Some(p), Some(a)),
        None => (None, None),
    };
    let (p, a) = std::thread::scope(|scope| {
        let p = scope.spawn(|| portal(addr, seed ^ 0x5041_5449, origin, until, &inputs.lids, sp));
        let a = scope.spawn(|| auditor(addr, seed ^ 0x4155_4449, origin, until, &inputs.users, sa));
        (
            p.join().expect("portal thread panicked"),
            a.join().expect("auditor thread panicked"),
        )
    });
    let (mut samples, sp) = p?;
    let (sa_samples, sa) = a?;
    samples.merge(sa_samples);
    Ok((samples, sp.into_iter().chain(sa).collect()))
}

pub fn run(args: &Args) -> Res<Outcome> {
    let inputs = args.inputs(HospitalSize::Default, false)?;
    let work = args.work_dir();
    let spec = ServeSpec {
        eba: args.eba.clone(),
        data: inputs.dir.clone(),
        pile: None,
        log: work.join("server.log"),
    };
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let s = Server::start(&spec)?;
        setups.push(s.setup.as_secs_f64());
        s.kill();
    }
    let server = Server::start(&spec)?;
    setups.push(server.setup.as_secs_f64());

    let (mut samples, _) = traffic(&server.addr, args.seed, args.measure(), &inputs, None)?;
    let rss_mb = server.peak_rss_mb()?;
    guards(&server.addr, &inputs, &mut samples)?;
    let point = Summary::of(&samples.point_ms);
    let report = Summary::of(&samples.report_ms);
    let full_windows = args.seconds.floor() as usize;
    let reads_per_s = samples.window_rate(full_windows);
    let gate = Gate {
        setup_s: median(&setups),
        p50_ms: point.p50,
        throughput_per_s: reads_per_s,
        rss_mb,
    };
    let mut detail = Json::obj()
        .set("hospital", HospitalSize::Default.name())
        .set("log_rows", inputs.log_rows)
        .set("shards", SHARDS)
        .set("fsync", "none (volatile)")
        .set("sessions", 2usize)
        .set("connections", 2usize)
        .set("loop", "closed")
        .set("page", PAGE)
        .set("report_every_rounds", REPORT_EVERY)
        .set(
            "setup_samples_s",
            setups.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
        )
        .set("explain_replies_checked", samples.explain_replies.len())
        .set(
            "errors",
            samples
                .errors
                .iter()
                .map(|e| Json::Str(e.clone()))
                .collect::<Vec<_>>(),
        )
        .set(
            "metrics",
            Json::obj()
                .set("setup_s", metric(gate.setup_s, "s"))
                .set("point_p50_ms", timing(&point, "ms"))
                .set("point_p99_ms", tail_metric(&point, "ms"))
                .set("report_p50_ms", timing(&report, "ms"))
                .set("report_p99_ms", tail_metric(&report, "ms"))
                .set("reads_per_s", metric(reads_per_s, "1/s"))
                .set("rss_mb", metric(rss_mb, "MB"))
                .set(
                    "error_rate",
                    metric(
                        crate::error_rate(samples.failed, samples.attempted),
                        "ratio",
                    ),
                ),
        );
    let mut attempted = samples.attempted;
    let mut failed = samples.failed;
    let mut guard_failures = std::mem::take(&mut samples.guard_failures);
    let mut guards_run = samples.guards_run;

    let layers = if args.trace {
        let origin = Instant::now();
        let mut setup_tracer = Tracer::new(origin, "setup");
        let rep = Replica::build(&inputs.dir, None, &mut setup_tracer)?;
        let mut probe = ReadShadow::new(Tracer::new(origin, "probe"), &rep);
        probe.prepare_probe();
        let shadows = (
            ReadShadow::new(Tracer::new(origin, "portal"), &rep),
            ReadShadow::new(Tracer::new(origin, "auditor"), &rep),
        );
        let (traced, shadows) = traffic(
            &server.addr,
            args.seed,
            args.measure(),
            &inputs,
            Some(shadows),
        )?;
        let mut trace = Trace::default();
        trace.add(setup_tracer);
        for sh in std::iter::once(probe).chain(shadows) {
            guards_run += 1;
            guard_failures.extend(sh.mismatches.iter().take(4).cloned());
            trace.add(sh.tracer);
        }
        attempted += traced.attempted;
        failed += traced.failed;
        guard_failures.extend(traced.guard_failures.iter().cloned());
        guards_run += traced.guards_run;
        let tp = Summary::of(&traced.point_ms);
        let tr = Summary::of(&traced.report_ms);
        detail.insert(
            "tracing_overhead",
            Json::obj()
                .set("point_p50_ms", tp.p50 - point.p50)
                .set("report_p50_ms", tr.p50 - report.p50)
                .set(
                    "reads_per_s",
                    traced.window_rate(full_windows) - reads_per_s,
                )
                .set("traced_requests", traced.attempted),
        );
        detail.insert("spans", trace.span_count());
        trace
            .write(&args.out.join(format!("spans-read-seed{}.jsonl", args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
        Some(layer_values(&trace))
    } else {
        None
    };
    server.kill();
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

/// The `read` guards, run after the timed traffic: one complete cursor
/// walk, `METRICS` against a cold library recompute on the same CSVs,
/// and the sampled `EXPLAIN` replies against `Explainer::explain`.
fn guards(addr: &str, inputs: &Inputs, s: &mut Samples) -> Res<()> {
    let mut conn = Conn::connect(addr)?;
    let mut walk = Walk::default();
    loop {
        let page = conn.request(&walk.request())?;
        if !is_ok(&page) {
            s.guard_failures
                .push(format!("walk page refused: {:?}", page.first()));
            break;
        }
        if let Some(outcome) = walk.absorb(&page) {
            s.guards_run += 1;
            if let Err(e) = outcome {
                s.guard_failures.push(e);
            }
            break;
        }
    }
    let wire = conn.request("METRICS")?;
    conn.send("QUIT\n")?;

    let mut loaded = data::load_csvs(&inputs.dir)?;
    data::add_groups(&mut loaded)?;
    let explainer = data::explainer(&loaded)?;
    let suite: Vec<&ExplanationTemplate> = explainer.templates().iter().collect();
    let cold = metrics::evaluate(&loaded.db, &loaded.spec, &suite, None, None);
    let want = [
        ("anchor_total", cold.real_total),
        ("explained", cold.real_explained),
        ("unexplained", cold.real_total - cold.real_explained),
    ];
    s.guards_run += 1;
    for (name, v) in want {
        if body_value::<usize>(&wire, name) != Some(v) {
            s.guard_failures.push(format!(
                "METRICS {name} {:?} != cold recompute {v}",
                body_value::<usize>(&wire, name)
            ));
        }
    }

    let db = &loaded.db;
    let log = db.table(loaded.spec.table);
    for (lid, frame) in &s.explain_replies {
        s.guards_run += 1;
        let Some(&rid) = log.rows_with(loaded.cols.lid, Value::Int(*lid)).first() else {
            s.guard_failures
                .push(format!("EXPLAIN {lid}: no such row in the CSVs"));
            continue;
        };
        let row = log.row(rid);
        let ex = explainer
            .explain(db, &loaded.spec, rid, 3)
            .map_err(|e| e.to_string())?;
        let mut want = vec![format!(
            "OK explain lid {lid} user {} patient {} explanations {}",
            row[loaded.cols.user].display(db.pool()),
            row[loaded.cols.patient].display(db.pool()),
            ex.len()
        )];
        want.extend(ex.iter().map(|e| format!("len {} {}", e.length, e.text)));
        if &want != frame {
            s.guard_failures.push(format!(
                "EXPLAIN {lid}: wire {:?} != library {:?}",
                frame.first(),
                want[0]
            ));
        }
    }
    Ok(())
}
