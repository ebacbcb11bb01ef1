//! Traced runs: an in-process replica of the served program, built from
//! the same CSVs, on which the benchmark repeats each sampled wire
//! request through `Session::handle` and through the public entry point
//! of every layer the request crosses. The replica answers from the same
//! epoch the server answered from, so its replies are also compared with
//! the wire replies.

use crate::data;
use crate::trace::{Trace, Tracer};
use crate::wire::{Frame, Res};
use crate::PER_LAYER;
use eba_audit::{metrics, portal, timeline};
use eba_relational::{ChainQuery, Durability, EvalOptions, ShardKey, ShardedEngine, Value};
use eba_server::{AuditService, Command, Session};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64: the benchmark's seeded request chooser.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The replica service plus the suite in the form the engine takes it.
pub struct Replica {
    pub svc: Arc<AuditService>,
    pub queries: Vec<ChainQuery>,
    /// The loaded base database (groups installed), for recovery timing.
    pub base: eba_relational::Database,
}

impl Replica {
    /// Loads the CSVs in `dir` the way `eba serve --groups --shards 1`
    /// does, timing each set-up layer into `tracer`. With `pile`, the
    /// replica is durable (strict fsync) like the server it mirrors.
    pub fn build(
        dir: &Path,
        pile: Option<&Path>,
        tracer: &mut Tracer,
    ) -> Res<Replica> {
        let req = tracer.request();
        let (loaded, _) = tracer.time("relational.csv.load", req, None, || data::load_csvs(dir));
        let mut loaded = loaded?;
        let (groups, _) = tracer.time("cluster.groups", req, None, || {
            data::add_groups(&mut loaded)
        });
        groups?;
        let explainer = data::explainer(&loaded)?;
        let days = data::days(&loaded);
        let key = ShardKey {
            table: loaded.spec.table,
            col: loaded.spec.patient_col,
        };
        let (sharded, _) = tracer.time("relational.engine.build", req, None, || {
            ShardedEngine::new(loaded.db.clone(), key, 1)
        });
        let pin = explainer.suite_pin(&loaded.spec);
        let queries = pin.queries.clone();
        tracer.time("relational.pin_suite", req, None, || sharded.pin_suite(pin));
        drop(sharded);
        let base = loaded.db.clone();
        let svc = match pile {
            None => {
                AuditService::new_sharded(loaded.db, loaded.spec, loaded.cols, explainer, days, 1)
            }
            Some(path) => AuditService::new_durable_sharded(
                loaded.db,
                loaded.spec,
                loaded.cols,
                explainer,
                days,
                path,
                Durability::Strict,
                1,
            )
            .map_err(|e| format!("replica pile: {e}"))?,
        };
        Ok(Replica {
            svc: Arc::new(svc),
            queries,
            base,
        })
    }
}

/// Which end-to-end family a read request belongs to. `Control`
/// requests (`REPIN`) are counted as attempts but timed in neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Report,
    Control,
}

/// One client thread's shadow: a replica session plus the thread's
/// tracer.
pub struct ReadShadow {
    pub tracer: Tracer,
    pub svc: Arc<AuditService>,
    pub queries: Arc<Vec<ChainQuery>>,
    pub session: Session,
    /// The session's epoch has served no report yet: the next one is
    /// shadowed cold, like the wire, then repeated warm.
    fresh: bool,
    /// Sampled requests whose replica reply differed from the wire reply.
    pub mismatches: Vec<String>,
}

impl ReadShadow {
    pub fn new(tracer: Tracer, rep: &Replica) -> ReadShadow {
        ReadShadow {
            tracer,
            svc: rep.svc.clone(),
            queries: Arc::new(rep.queries.clone()),
            session: Session::new(rep.svc.clone()),
            fresh: true,
            mismatches: Vec::new(),
        }
    }

    /// Repeats one wire request (sent at `t0`, answered at `t1` with
    /// `wire`) on the replica session and through its layer entry point.
    pub fn observe(&mut self, line: &str, class: Class, t0: Instant, t1: Instant, wire: &Frame) {
        let tr = &mut self.tracer;
        let req = tr.request();
        let (wire_span, session_span, gap) = match class {
            Class::Point => ("wire.point", "server.session.point", "server.wire.point"),
            Class::Report => ("wire.report", "server.session.report", "server.wire.report"),
            Class::Control => return,
        };
        let w = tr.record(wire_span, req, None, t0, t1);
        let (cmd, _) = tr.time("server.protocol.parse", req, Some(w), || {
            Command::parse(line)
        });
        let Ok(Some(cmd)) = cmd else {
            self.mismatches.push(format!("`{line}` did not parse"));
            return;
        };
        let session = &mut self.session;
        let (resp, h) = tr.time(session_span, req, Some(w), || {
            session.handle(cmd.clone(), Vec::new())
        });
        let gap_ns = tr.dur_ns(w) as f64 - tr.dur_ns(h) as f64;
        tr.sample(gap, gap_ns);
        if wire.first() != Some(&resp.head) || wire[1..] != resp.body[..] {
            self.mismatches.push(format!(
                "`{line}`: wire {:?} replica {:?}",
                wire.first(),
                resp.head
            ));
        }
        if class == Class::Report && std::mem::take(&mut self.fresh) {
            // The first report on an epoch refills the caches the last
            // publish dropped; a repeat on the same epoch finds them warm.
            let (_, again) = tr.time("server.session.report.warm", req, Some(w), || {
                session.handle(cmd.clone(), Vec::new())
            });
            let refill = tr.dur_ns(h) as f64 - tr.dur_ns(again) as f64;
            tr.sample("relational.cache_refill", refill);
        }
        let svc = &*self.svc;
        let epochs = self.session.epochs().clone();
        let maintained = epochs.maintained(svc.pin_id()).cloned();
        match cmd {
            Command::Explain { lid } => {
                let db = epochs.shards()[0].db();
                let rows = db
                    .table(svc.spec.table)
                    .rows_with(svc.cols.lid, Value::Int(lid));
                if let Some(&rid) = rows.first() {
                    tr.time("audit.explain", req, Some(h), || {
                        black_box(svc.explainer.explain(db, &svc.spec, rid, 3).is_ok())
                    });
                }
            }
            Command::Unexplained { limit, after } => {
                if let Some(m) = maintained {
                    let limit = limit.unwrap_or(usize::MAX);
                    tr.time("relational.rowset.page", req, Some(h), || match after {
                        None => black_box(m.unexplained.iter().take(limit).count()),
                        Some(a) => {
                            black_box(m.unexplained.rank(a + 1));
                            black_box(m.unexplained.iter_from(a + 1).take(limit).count())
                        }
                    });
                }
            }
            Command::Metrics => {
                if let Some(m) = maintained {
                    tr.time("audit.metrics", req, Some(h), || {
                        black_box(metrics::confusion_from_maintained(&m))
                    });
                }
            }
            Command::Timeline => {
                tr.time("audit.timeline", req, Some(h), || {
                    black_box(timeline::daily_stats_at_shards(
                        &svc.spec,
                        &svc.cols,
                        &svc.explainer,
                        svc.days,
                        &epochs,
                    ))
                });
                let (sets, _) = tr.time("relational.eval_suite", req, Some(h), || {
                    epochs.eval_suite(&self.queries, EvalOptions::default())
                });
                let rows: usize = sets.iter().flatten().map(|s| s.len()).sum();
                tr.sample("relational.eval_suite.rows", rows as f64);
            }
            Command::Misuse { .. } => {
                tr.time("audit.misuse", req, Some(h), || {
                    black_box(portal::misuse_summary_at_shards(
                        &svc.spec,
                        &svc.explainer,
                        &epochs,
                    ))
                });
            }
            _ => {}
        }
    }

    /// Pins the replica's current epoch, as a wire `REPIN` does.
    pub fn repin(&mut self) {
        self.session = Session::new(self.svc.clone());
        self.fresh = true;
    }

    /// Times preparing the explainer on the session's epoch, as the
    /// first `EXPLAIN` on an epoch does. Preparing keeps no state, so
    /// the probe changes nothing the shadowed requests see.
    pub fn prepare_probe(&mut self) {
        let tr = &mut self.tracer;
        let req = tr.request();
        let svc = &*self.svc;
        let epochs = self.session.epochs().clone();
        let db = epochs.shards()[0].db();
        tr.time("audit.explain.prepare", req, None, || {
            black_box(svc.explainer.prepared(db, &svc.spec).is_ok())
        });
    }
}

/// Metrics read as a total over the traced phase rather than a median.
const TOTALS: [&str; 3] = [
    "server.push.events",
    "server.push.shed",
    "server.ingest.shed",
];
/// Metrics read as a mean per observation.
const MEANS: [&str; 1] = ["relational.pile.fsyncs"];

/// Reduces a trace to the per-layer metrics: the median of every span
/// or sample named like the metric minus its unit suffix (durations in
/// nanoseconds, scaled to the unit), totals for the counters in
/// [`TOTALS`].
pub fn layer_values(trace: &Trace) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (metric, unit) in PER_LAYER {
        let (base, scale) = match unit {
            "ms" => (metric.strip_suffix("_ms").unwrap_or(metric), 1e-6),
            "us" => (metric.strip_suffix("_us").unwrap_or(metric), 1e-3),
            _ => (metric, 1.0),
        };
        let value = if TOTALS.contains(&metric) {
            trace.counter(metric)
        } else {
            let mut values = trace.durations(base);
            values.extend(trace.samples(base));
            if values.is_empty() {
                0.0
            } else if MEANS.contains(&metric) {
                values.iter().sum::<f64>() / values.len() as f64
            } else {
                crate::stats::median(&values)
            }
        };
        out.insert(metric, value * scale);
    }
    out
}
