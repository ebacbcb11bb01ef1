//! `mine`: the three mining algorithms through the library on the whole
//! *large* hospital (groups installed), support 0.01, paths up to length
//! 5. Mining is a batch job, so nothing is served; set-up is CSV load
//! plus group training, and memory is this process's peak.

use crate::data::{self, HospitalSize};
use crate::json::Json;
use crate::stats::{median, Summary};
use crate::trace::{Trace, Tracer};
use crate::wire::{peak_rss_mb, Res};
use crate::{metric, timing, Args, Gate, Outcome, SETUPS};
use eba_core::{mine_bridge, mine_one_way, mine_two_way, MiningConfig, MiningResult};
use std::time::Instant;

pub const SUPPORT: f64 = 0.01;
pub const MAX_LENGTH: usize = 5;

fn config() -> MiningConfig {
    MiningConfig {
        support_frac: SUPPORT,
        max_length: MAX_LENGTH,
        ..MiningConfig::default()
    }
}

/// One pass: the three algorithms, timed one by one.
struct MinePass {
    wall_s: f64,
    results: [(&'static str, MiningResult, f64); 3],
}

fn mine_pass(l: &data::Loaded) -> Res<MinePass> {
    let c = config();
    let started = Instant::now();
    let t = Instant::now();
    let one = mine_one_way(&l.db, &l.spec, &c);
    let one_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let two = mine_two_way(&l.db, &l.spec, &c);
    let two_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let bridge = mine_bridge(&l.db, &l.spec, &c, 2).map_err(|e| e.to_string())?;
    let bridge_s = t.elapsed().as_secs_f64();
    Ok(MinePass {
        wall_s: started.elapsed().as_secs_f64(),
        results: [
            ("one_way", one, one_s),
            ("two_way", two, two_s),
            ("bridge2", bridge, bridge_s),
        ],
    })
}

pub fn run(args: &Args) -> Res<Outcome> {
    let inputs = args.inputs(HospitalSize::Large, false)?;
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        // Free the last load first: only one database is ever resident,
        // so the peak RSS is mining's, not this loop's.
        drop(loaded.take());
        let t = Instant::now();
        let mut l = data::load_csvs(&inputs.dir)?;
        data::add_groups(&mut l)?;
        setups.push(t.elapsed().as_secs_f64());
        loaded = Some(l);
    }
    let loaded = loaded.expect("SETUPS > 0");

    let mut passes = Vec::new();
    let mut guards_run = 0;
    let mut guard_failures = Vec::new();
    let started = Instant::now();
    while passes.is_empty() || started.elapsed() < args.measure() {
        let pass = mine_pass(&loaded)?;
        // All three algorithms must mine the same template set.
        guards_run += 1;
        let keys = pass.results[0].1.key_set();
        for (name, r, _) in &pass.results[1..] {
            if r.key_set() != keys {
                guard_failures.push(format!(
                    "{name} mined {} templates, one_way {}",
                    r.templates.len(),
                    keys.len()
                ));
            }
        }
        passes.push(pass);
    }
    let rss_mb = peak_rss_mb("/proc/self/status")?;
    let mine_ms: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
    let mine = Summary::of(&mine_ms);
    let anchors = passes[0].results[0].1.anchor_lids;
    // Throughput: anchor accesses mined per second, three algorithms per
    // pass.
    let per_s: Vec<f64> = passes
        .iter()
        .map(|p| 3.0 * anchors as f64 / p.wall_s)
        .collect();
    let gate = Gate {
        setup_s: median(&setups),
        p50_ms: mine.p50,
        throughput_per_s: median(&per_s),
        rss_mb,
    };
    let first = &passes[0];
    let mut detail = Json::obj()
        .set("hospital", HospitalSize::Large.name())
        .set("log_rows", inputs.log_rows)
        .set("support", SUPPORT)
        .set("max_length", MAX_LENGTH)
        .set("groups", true)
        .set("passes", passes.len())
        .set("anchor_accesses", anchors)
        .set("templates", first.results[0].1.templates.len())
        .set(
            "setup_samples_s",
            setups.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
        )
        .set(
            "metrics",
            Json::obj()
                .set("setup_s", metric(gate.setup_s, "s"))
                .set(
                    "mine_s",
                    timing(
                        &Summary::of(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
                        "s",
                    ),
                )
                .set("rss_mb", metric(rss_mb, "MB"))
                .set(
                    "error_rate",
                    metric(
                        crate::error_rate(guard_failures.len() as u64, guards_run),
                        "ratio",
                    ),
                ),
        );
    for (i, (name, _, _)) in first.results.iter().enumerate() {
        let secs: Vec<f64> = passes.iter().map(|p| p.results[i].2).collect();
        detail.insert(&format!("{name}_s"), Summary::of(&secs).to_json());
    }

    let layers = if args.trace {
        // The traced pass reads the library's own counters; the spans are
        // the three calls.
        let mut tr = Tracer::new(Instant::now(), "mine");
        let req = tr.request();
        let (l, _) = tr.time("relational.csv.load", req, None, || {
            data::load_csvs(&inputs.dir)
        });
        let mut l = l?;
        tr.time("cluster.groups", req, None, || data::add_groups(&mut l))
            .0?;
        let t0 = Instant::now();
        let pass = mine_pass(&l)?;
        let mut at = t0;
        let mut queries = 0usize;
        let mut hits = 0usize;
        let mut candidates = 0usize;
        let mut templates = 0usize;
        for (name, r, secs) in &pass.results {
            let end = at + std::time::Duration::from_secs_f64(*secs);
            let span = match *name {
                "one_way" => "core.mining.one_way",
                "two_way" => "core.mining.two_way",
                _ => "core.mining.bridge2",
            };
            tr.record(span, req, None, at, end);
            at = end;
            queries += r.stats.support_queries();
            hits += r.stats.cache_hits();
            candidates += r
                .stats
                .per_length
                .iter()
                .map(|s| s.candidates)
                .sum::<usize>();
            templates += r.templates.len();
        }
        tr.sample("core.mining.support_queries", queries as f64);
        tr.sample(
            "core.mining.cache_hit_ratio",
            hits as f64 / candidates.max(1) as f64,
        );
        tr.sample(
            "core.mining.templates_per_query",
            templates as f64 / queries.max(1) as f64,
        );
        detail.insert(
            "tracing_overhead",
            Json::obj().set(
                "mine_s",
                pass.wall_s - median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
            ),
        );
        let mut trace = Trace::default();
        trace.add(tr);
        trace
            .write(&args.out.join(format!("spans-mine-seed{}.jsonl", args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
        Some(crate::shadow::layer_values(&trace))
    } else {
        None
    };
    Ok(Outcome {
        attempted: guards_run,
        failed: guard_failures.len() as u64,
        guard_failures,
        guards_run,
        gate,
        report: detail,
        layers,
    })
}
