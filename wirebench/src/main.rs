//! Wire-level benchmark of the eba audit service.
//!
//! ```text
//! wirebench --workload read|ingest|mixed|mine --seed N --seconds S --trace 0|1
//!           --eba PATH [--out DIR] [--scale full|tiny]
//! wirebench gen --hospital default|large --seed N --split 0|1 --dir DIR [--scale full|tiny]
//! ```
//!
//! The served workloads start the real `eba serve` binary (`--eba`) as a
//! child process over seeded CSVs and drive it over TCP; `mine` calls the
//! mining library in-process. The last line of standard output is the
//! result object; the line before it is the full report (every metric by
//! name and unit, provenance, quartiles, guards), also written to
//! `<out>/<workload>-seed<N>-trace<T>.json`. See `NOTES.md`.

mod data;
mod json;
mod mine;
mod read;
mod shadow;
mod stats;
mod stream;
mod trace;
mod wire;

use data::{HospitalSize, Scale};
use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use wire::Res;

/// The end-to-end metrics every untraced run reports: each workload's
/// headline operation, named generically so that all four workloads
/// report the same set (see `NOTES.md` for what each means per workload).
/// Tails are in the report line, not here: on a shared 2-core host their
/// run-to-run spread is wider than any bound a gate may use.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports (0 where the workload
/// does no work in that layer).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("server.session.point_us", "us"),
    ("server.session.report_us", "us"),
    ("server.wire.point_us", "us"),
    ("server.wire.report_us", "us"),
    ("server.wire.ingest_us", "us"),
    ("server.protocol.parse_us", "us"),
    ("server.push.events", "count"),
    ("server.push.shed", "count"),
    ("server.ingest.shed", "count"),
    ("audit.explain_us", "us"),
    ("audit.explain.prepare_ms", "ms"),
    ("audit.timeline_ms", "ms"),
    ("audit.misuse_ms", "ms"),
    ("audit.metrics_us", "us"),
    ("relational.eval_suite_ms", "ms"),
    ("relational.eval_suite.rows", "count"),
    ("relational.cache_refill_ms", "ms"),
    ("relational.ingest.clone_ms", "ms"),
    ("relational.ingest.refresh_ms", "ms"),
    ("relational.advance.range_ms", "ms"),
    ("relational.advance.reask_ms", "ms"),
    ("relational.ingest.service_ms", "ms"),
    ("relational.ingest.residual_ms", "ms"),
    ("relational.advance.residue_rows", "count"),
    ("relational.advance.reask_templates", "count"),
    ("relational.refresh.dropped_step_maps", "count"),
    ("relational.refresh.stale_partitions", "count"),
    ("relational.refresh.rebuilt", "count"),
    ("relational.segment.copied_bytes_per_epoch", "bytes"),
    ("relational.rowset.page_us", "us"),
    ("relational.pile.append_ms", "ms"),
    ("relational.pile.bytes_per_row", "bytes"),
    ("relational.pile.fsyncs", "count"),
    ("relational.pile.recover_ms", "ms"),
    ("relational.csv.load_ms", "ms"),
    ("relational.engine.build_ms", "ms"),
    ("relational.pin_suite_ms", "ms"),
    ("cluster.groups_ms", "ms"),
    ("core.mining.one_way_ms", "ms"),
    ("core.mining.two_way_ms", "ms"),
    ("core.mining.bridge2_ms", "ms"),
    ("core.mining.support_queries", "count"),
    ("core.mining.cache_hit_ratio", "ratio"),
    ("core.mining.templates_per_query", "ratio"),
];

/// Every workload's name, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["read", "ingest", "mixed", "mine"];

/// Launches per run whose median is `setup_s`.
pub const SETUPS: usize = 5;

/// What the benchmark was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub eba: PathBuf,
    pub out: PathBuf,
    pub scale: Scale,
}

impl Args {
    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// A scratch directory for this run's inputs and piles.
    pub fn work_dir(&self) -> PathBuf {
        self.out.join(format!(
            "work-{}-{}-{}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }

    /// Generates a hospital's CSVs in a child process (so that generation
    /// never counts toward this process's peak memory) and reads them back.
    pub fn inputs(&self, hospital: HospitalSize, split: bool) -> Res<data::Inputs> {
        let dir = self.work_dir().join("data");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .args(["gen", "--hospital", hospital.name(), "--seed"])
            .arg(self.seed.to_string())
            .args([
                "--split",
                if split { "1" } else { "0" },
                "--scale",
                self.scale_name(),
                "--dir",
            ])
            .arg(&dir)
            .status()
            .map_err(|e| format!("input generator: {e}"))?;
        if !status.success() {
            return Err(format!("input generator failed: {status}"));
        }
        data::read_inputs(&dir)
    }

    pub fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// The end-to-end values of one run, in [`END_TO_END`] order.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub setup_s: f64,
    pub p50_ms: f64,
    pub throughput_per_s: f64,
    pub rss_mb: f64,
}

impl Gate {
    fn values(&self) -> [f64; 4] {
        [
            self.setup_s,
            self.p50_ms,
            self.throughput_per_s,
            self.rss_mb,
        ]
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        for ((name, unit), v) in END_TO_END.iter().zip(self.values()) {
            j.insert(name, metric(v, unit));
        }
        j
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of guards that failed.
    pub guard_failures: Vec<String>,
    pub guards_run: u64,
    pub gate: Gate,
    /// Workload-specific report: the named end-to-end metrics that apply,
    /// sample counts, quartiles and provenance.
    pub report: Json,
    /// Per-layer values from the traced phase (`None` when untraced).
    pub layers: Option<BTreeMap<&'static str, f64>>,
}

/// Failed or refused operations (`ERR` frames, sheds, guard failures)
/// per attempted one.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// `{"value": v, "unit": u}`.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj().set("value", value).set("unit", unit)
}

/// A latency summary as a named metric: median value plus quartiles,
/// tail and sample count.
pub fn timing(s: &stats::Summary, unit: &str) -> Json {
    let mut j = metric(s.p50, unit);
    if let Json::Obj(fields) = s.to_json() {
        for (k, v) in fields {
            j.insert(&k, v);
        }
    }
    j
}

/// A tail metric as reported: the highest percentile with ten samples
/// beyond it.
pub fn tail_metric(s: &stats::Summary, unit: &str) -> Json {
    metric(s.tail, unit)
        .set(
            "percentile",
            s.tail_pct.map_or(Json::Str("max".into()), Json::Num),
        )
        .set("n", s.n)
}

fn usage(msg: &str) -> ! {
    eprintln!("wirebench: {msg}");
    eprintln!(
        "usage: wirebench --workload read|ingest|mixed|mine --seed N --seconds S --trace 0|1 \
         --eba PATH [--out DIR] [--scale full|tiny]"
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            usage(&format!("unexpected argument `{a}`"));
        };
        let Some(v) = it.next() else {
            usage(&format!("--{name} needs a value"));
        };
        flags.insert(name.to_string(), v.clone());
    }
    flags
}

fn parse_scale(v: Option<&String>) -> Scale {
    match v.map(String::as_str) {
        None | Some("full") => Scale::Full,
        Some("tiny") => Scale::Tiny,
        Some(other) => usage(&format!("unknown scale `{other}`")),
    }
}

fn gen_main(args: &[String]) -> Res<()> {
    let flags = parse_flags(args);
    let hospital = match flags.get("hospital").map(String::as_str) {
        Some("default") => HospitalSize::Default,
        Some("large") => HospitalSize::Large,
        _ => usage("gen needs --hospital default|large"),
    };
    let seed = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("gen needs --seed N"));
    let split = flags.get("split").map(String::as_str) == Some("1");
    let dir = flags.get("dir").unwrap_or_else(|| usage("gen needs --dir"));
    let config = hospital.config(parse_scale(flags.get("scale")), seed);
    data::write_inputs(Path::new(dir), config, split)
}

fn git_rev(root: &Path) -> String {
    // The checkout may not be a git repository: read HEAD by hand and
    // fall back to "unknown".
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen") {
        if let Err(e) = gen_main(&argv[1..]) {
            eprintln!("wirebench gen: {e}");
            std::process::exit(1);
        }
        return;
    }
    let flags = parse_flags(&argv);
    let workload = flags
        .get("workload")
        .cloned()
        .unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let num = |name: &str| -> f64 {
        flags
            .get(name)
            .unwrap_or_else(|| usage(&format!("--{name} is required")))
            .parse()
            .unwrap_or_else(|_| usage(&format!("--{name} expects a number")))
    };
    let seed = num("seed") as u64;
    let seconds = num("seconds");
    if seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let trace = match flags.get("trace").map(String::as_str) {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage("--trace expects 0 or 1"),
    };
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        eba: PathBuf::from(
            flags
                .get("eba")
                .unwrap_or_else(|| usage("--eba is required")),
        ),
        out: PathBuf::from(flags.get("out").map_or(".bench_out", String::as_str)),
        scale: parse_scale(flags.get("scale")),
    };
    if args.workload != "mine" && !args.eba.is_file() {
        eprintln!("wirebench: no server binary at {}", args.eba.display());
        std::process::exit(1);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("wirebench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let started = std::time::Instant::now();
    let outcome = match args.workload.as_str() {
        "read" => read::run(&args),
        "ingest" => stream::run(&args, stream::Kind::Ingest),
        "mixed" => stream::run(&args, stream::Kind::Mixed),
        "mine" => mine::run(&args),
        _ => unreachable!("validated above"),
    };
    let _ = wire::clear_dir(&args.work_dir());
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wirebench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let correct = outcome.guard_failures.is_empty() && outcome.failed == 0;
    let metrics = match &outcome.layers {
        Some(layers) => {
            let mut j = Json::obj();
            for (name, unit) in PER_LAYER {
                j.insert(name, metric(layers.get(name).copied().unwrap_or(0.0), unit));
            }
            j
        }
        None => outcome.gate.to_json(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::obj()
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("scale", args.scale_name())
        .set("git_rev", git_rev(Path::new(".")))
        .set("nproc", nproc)
        .set("wall_s", started.elapsed().as_secs_f64())
        .set("guards_run", outcome.guards_run)
        .set(
            "guard_failures",
            outcome
                .guard_failures
                .iter()
                .map(|g| Json::Str(g.clone()))
                .collect::<Vec<_>>(),
        )
        .set("gate", outcome.gate.to_json())
        .set("detail", outcome.report);
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("wirebench: cannot write {}: {e}", path.display());
    }
    println!("{report}");
    for g in &outcome.guard_failures {
        eprintln!("wirebench: guard failed: {g}");
    }
    let result = Json::obj()
        .set("correct", correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to wirebench/");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let rest = &text[start..];
            let end = rest.find(']').expect("section closes");
            rest[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let want = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(String::from).to_vec());
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }
}
