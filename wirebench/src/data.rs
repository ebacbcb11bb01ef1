//! Seeded inputs: synthetic hospitals written as the CSV extracts the
//! served program loads, the day-4 split into a served base and a replay
//! stream, and the library-side load the guards and shadow calls share.

use crate::wire::Res;
use eba_audit::groups::{collaborative_groups, install_groups};
use eba_audit::handcrafted::{same_group, EventTable, HandcraftedTemplates};
use eba_audit::Explainer;
use eba_cluster::HierarchyConfig;
use eba_core::{ExplanationTemplate, LogSpec};
use eba_relational::{csv, Database};
use eba_synth::SynthConfig;
use eba_synth::{create_careweb_tables, declare_careweb_relationships, Hospital, LogColumns};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Log rows of days `1..=SPLIT_DAY` are served; later in-window days are
/// replayed as `INGEST` rows.
pub const SPLIT_DAY: i64 = 4;

/// Which synthetic hospital a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HospitalSize {
    /// `SynthConfig::default_scale()`: 6,000 patients.
    Default,
    /// 24,000 patients and 6,000 float accesses, otherwise default.
    Large,
}

/// `full` is the benchmark; `tiny` shrinks both hospitals for the smoke
/// test of every workload and guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl HospitalSize {
    pub fn name(self) -> &'static str {
        match self {
            HospitalSize::Default => "default",
            HospitalSize::Large => "large",
        }
    }

    pub fn config(self, scale: Scale, seed: u64) -> SynthConfig {
        let mut c = match (self, scale) {
            (HospitalSize::Default, Scale::Full) => SynthConfig::default_scale(),
            (HospitalSize::Large, Scale::Full) => SynthConfig {
                n_patients: 24_000,
                n_float_accesses: 6_000,
                ..SynthConfig::default_scale()
            },
            (HospitalSize::Default, Scale::Tiny) => SynthConfig::tiny(),
            (HospitalSize::Large, Scale::Tiny) => SynthConfig::small(),
        };
        c.seed = seed;
        c
    }
}

/// One `INGEST` row of the replay stream.
#[derive(Debug, Clone, Copy)]
pub struct ReplayRow {
    pub user: i64,
    pub patient: i64,
    pub day: i64,
}

impl ReplayRow {
    pub fn line(&self) -> String {
        format!("{} {} {}", self.user, self.patient, self.day)
    }
}

/// What was written for one workload.
pub struct Inputs {
    pub dir: PathBuf,
    /// Accesses in the generated hospital.
    pub log_rows: usize,
    /// Accesses in the served `Log.csv`.
    pub base_rows: usize,
    /// Time-ordered rows of days after [`SPLIT_DAY`] (empty when unsplit).
    pub replay: Vec<ReplayRow>,
    /// `Lid`s present in the served log.
    pub lids: Vec<i64>,
    /// Distinct users of the served log, ascending.
    pub users: Vec<i64>,
}

/// Generates the hospital and writes its CSVs to `dir`. With `split`,
/// `Log.csv` holds only the base (every row not on days
/// `SPLIT_DAY+1..=days`) and the rest becomes the replay stream.
pub fn write_inputs(dir: &Path, config: SynthConfig, split: bool) -> Res<()> {
    let io = |e: std::io::Error| format!("writing inputs to {}: {e}", dir.display());
    let days = i64::from(config.days);
    let h = Hospital::generate(config);
    std::fs::create_dir_all(dir).map_err(io)?;
    for (name, id) in [
        ("Appointments", h.t_appointments),
        ("Visits", h.t_visits),
        ("Documents", h.t_documents),
        ("Labs", h.t_labs),
        ("Medications", h.t_medications),
        ("Radiology", h.t_radiology),
        ("Users", h.t_users),
    ] {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(dir.join(format!("{name}.csv"))).map_err(io)?,
        );
        csv::export_table(&h.db, id, &mut f).map_err(io)?;
        f.flush().map_err(io)?;
    }
    let mut log = Vec::new();
    csv::export_table(&h.db, h.t_log, &mut log).map_err(io)?;
    let log = String::from_utf8(log).map_err(|e| e.to_string())?;
    let mut lines = log.lines();
    let header = lines.next().ok_or("empty log export")?;
    if header != "Lid,Date,User,Patient,Action,Day,IsFirst" {
        return Err(format!("unexpected log header {header}"));
    }
    let mut base = String::with_capacity(log.len());
    base.push_str(header);
    base.push('\n');
    let mut replay: Vec<(i64, ReplayRow)> = Vec::new();
    let int = |s: &str| -> Res<i64> { s.parse().map_err(|_| format!("bad log field `{s}`")) };
    let mut log_rows = 0usize;
    for line in lines {
        log_rows += 1;
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 7 {
            return Err(format!("bad log line `{line}`"));
        }
        let day = f[5].parse::<i64>().ok();
        if split && day.is_some_and(|d| d > SPLIT_DAY && d <= days) {
            let row = ReplayRow {
                user: int(f[2])?,
                patient: int(f[3])?,
                day: day.expect("checked"),
            };
            replay.push((int(f[1])?, row));
        } else {
            base.push_str(line);
            base.push('\n');
        }
    }
    std::fs::write(dir.join("Log.csv"), base).map_err(io)?;
    // Stable sort by timestamp: the replay arrives in time order.
    replay.sort_by_key(|(date, _)| *date);
    let mut stream = String::new();
    for (_, r) in &replay {
        stream.push_str(&r.line());
        stream.push('\n');
    }
    std::fs::write(dir.join(REPLAY_FILE), stream).map_err(io)?;
    std::fs::write(dir.join(META_FILE), format!("log_rows {log_rows}\n")).map_err(io)?;
    Ok(())
}

const REPLAY_FILE: &str = "replay.txt";
const META_FILE: &str = "meta.txt";

/// Reads back what [`write_inputs`] wrote to `dir`.
pub fn read_inputs(dir: &Path) -> Res<Inputs> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let meta = read(META_FILE)?;
    let log_rows = crate::wire::field(&meta, "log_rows").ok_or("bad meta file")?;
    let int = |s: &str| -> Res<i64> { s.parse().map_err(|_| format!("bad input field `{s}`")) };
    let mut replay = Vec::new();
    for line in read(REPLAY_FILE)?.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 3 {
            return Err(format!("bad replay line `{line}`"));
        }
        replay.push(ReplayRow {
            user: int(f[0])?,
            patient: int(f[1])?,
            day: int(f[2])?,
        });
    }
    let mut lids = Vec::new();
    let mut users = std::collections::BTreeSet::new();
    for line in read("Log.csv")?.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        lids.push(int(f[0])?);
        users.insert(int(f[2])?);
    }
    Ok(Inputs {
        dir: dir.to_path_buf(),
        log_rows,
        base_rows: lids.len(),
        replay,
        lids,
        users: users.into_iter().collect(),
    })
}

/// The CSVs loaded through the library, the way `eba serve` loads them.
pub struct Loaded {
    pub db: Database,
    pub spec: LogSpec,
    pub cols: LogColumns,
}

pub fn load_csvs(dir: &Path) -> Res<Loaded> {
    let mut db = Database::new();
    let tables = create_careweb_tables(&mut db, false);
    for (name, id) in tables.named() {
        let path = dir.join(format!("{name}.csv"));
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        csv::import_table(&mut db, id, &mut std::io::BufReader::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    declare_careweb_relationships(&mut db, false, true);
    let spec = LogSpec::conventional(&db).map_err(|e| e.to_string())?;
    let cols = eba_server::log_columns(&db, tables.log);
    Ok(Loaded { db, spec, cols })
}

/// Trains collaborative groups on the loaded log and installs them
/// (`eba serve --groups`).
pub fn add_groups(l: &mut Loaded) -> Res<()> {
    let model = collaborative_groups(&l.db, &l.spec, HierarchyConfig::default(), 1_000)
        .map_err(|e| e.to_string())?;
    install_groups(&mut l.db, &model).map_err(|e| e.to_string())?;
    Ok(())
}

/// The served suite: hand-crafted templates plus depth-1 group templates.
pub fn explainer(l: &Loaded) -> Res<Explainer> {
    let handcrafted = HandcraftedTemplates::build(&l.db, &l.spec).map_err(|e| e.to_string())?;
    let mut templates: Vec<ExplanationTemplate> = handcrafted.all().into_iter().cloned().collect();
    for e in EventTable::ALL {
        templates.push(same_group(&l.db, &l.spec, e, Some(1)).map_err(|e| e.to_string())?);
    }
    Ok(Explainer::new(templates))
}

/// The reporting window `eba serve` derives from the loaded log.
pub fn days(l: &Loaded) -> u32 {
    eba_server::days_in_log(&l.db, l.spec.table, &l.cols)
}
