//! User-centric auditing reports.
//!
//! The paper's motivating application (§1): a portal where a patient logs
//! in, sees every access to their record, and — instead of a bare list of
//! unfamiliar names — a short explanation of *why* each access occurred.
//! The same machinery drives the secondary application: the compliance
//! office triages the (far smaller) set of unexplained accesses.

use crate::explain::{Explainer, RankedExplanation};
use eba_core::LogSpec;
use eba_relational::{Database, Engine, EpochVec, Result, RowId, Value};
use eba_synth::LogColumns;
use std::collections::{HashMap, HashSet};

/// One line of a patient's access report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportEntry {
    /// Log row.
    pub row: RowId,
    /// Log id.
    pub lid: Value,
    /// Access timestamp.
    pub date: Value,
    /// Accessing user.
    pub user: Value,
    /// Best (shortest-path) explanation, if any.
    pub explanation: Option<RankedExplanation>,
}

impl ReportEntry {
    /// Text shown to the patient.
    pub fn display_text(&self) -> &str {
        match &self.explanation {
            Some(e) => &e.text,
            None => "No explanation found — you may request an investigation.",
        }
    }
}

/// The patient-portal report: all accesses to `patient`'s record (within
/// the spec's anchor), chronological, each with its best explanation.
pub fn patient_report(
    db: &Database,
    spec: &LogSpec,
    cols: &LogColumns,
    explainer: &Explainer,
    patient: Value,
) -> Result<Vec<ReportEntry>> {
    let log = db.table(spec.table);
    // Validate every template query once, not once per access row.
    let prepared = explainer.prepared(db, spec)?;
    let mut entries = Vec::new();
    for rid in log.rows_with(spec.patient_col, patient) {
        let row = log.row(rid);
        if !spec
            .anchor_filters
            .iter()
            .all(|(col, op, v)| op.eval(&row[*col], v))
        {
            continue;
        }
        let explanation = prepared.explain(db, spec, rid, 1).into_iter().next();
        entries.push(ReportEntry {
            row: rid,
            lid: row[cols.lid],
            date: row[cols.date],
            user: row[cols.user],
            explanation,
        });
    }
    entries.sort_by_key(|e| match e.date {
        Value::Date(d) => d,
        _ => i64::MAX,
    });
    Ok(entries)
}

/// Per-user summary of unexplained accesses — the compliance office's
/// triage queue, most-suspicious first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspectSummary {
    /// The user.
    pub user: Value,
    /// Unexplained accesses by this user (within the anchor).
    pub unexplained: usize,
    /// Distinct patients among those unexplained accesses.
    pub distinct_patients: usize,
}

/// Groups the unexplained accesses by user, sorted by descending count
/// (ties broken by user value for determinism).
pub fn misuse_summary(db: &Database, spec: &LogSpec, explainer: &Explainer) -> Vec<SuspectSummary> {
    summarize_unexplained(db, spec, explainer.unexplained_rows(db, spec))
}

/// [`misuse_summary`] through a shared [`Engine`]: the compliance office
/// asks this alongside the unexplained list and the timeline, so all
/// three views share one warm snapshot. The unexplained residue arrives
/// as the fused suite's compressed row-set difference
/// (`anchors \ explained`), already sorted.
pub fn misuse_summary_with(
    db: &Database,
    spec: &LogSpec,
    explainer: &Explainer,
    engine: &Engine,
) -> Vec<SuspectSummary> {
    summarize_unexplained(db, spec, explainer.unexplained_rows_with(db, spec, engine))
}

/// [`misuse_summary`] against a pinned **epoch vector**: the triage queue
/// the compliance session sees is computed from the same frozen log as
/// its timeline and unexplained list. Per-shard
/// `user → (count, patients)` maps merge by summing counts and unioning
/// patient sets (a user's accesses — and even one patient's accesses, if
/// the spec's patient column is not the partition key — may straddle
/// shards), then rank identically to the unsharded path.
pub fn misuse_summary_at_shards(
    spec: &LogSpec,
    explainer: &Explainer,
    shards: &EpochVec,
) -> Vec<SuspectSummary> {
    let per_shard = shards.par_map_shards(|_, shard| {
        per_user_unexplained(
            shard.db(),
            spec,
            explainer.unexplained_rows_with(shard.db(), spec, shard.engine()),
        )
    });
    let mut merged: HashMap<Value, (usize, HashSet<Value>)> = HashMap::new();
    for map in per_shard {
        for (user, (count, patients)) in map {
            let entry = merged.entry(user).or_default();
            entry.0 += count;
            entry.1.extend(patients);
        }
    }
    rank_suspects(merged)
}

/// [`patient_report`] against a pinned epoch vector: each shard reports
/// its slice of the patient's accesses (row ids mapped back to global),
/// gathered chronologically. Under patient-keyed sharding all entries come
/// from one shard; the merge stays correct for any partition key.
pub fn patient_report_at_shards(
    spec: &LogSpec,
    cols: &LogColumns,
    explainer: &Explainer,
    patient: Value,
    shards: &EpochVec,
) -> Result<Vec<ReportEntry>> {
    let per_shard = shards.par_map_shards(|_, shard| {
        patient_report(shard.db(), spec, cols, explainer, patient).map(|entries| {
            entries
                .into_iter()
                .map(|mut e| {
                    e.row = shard.to_global(e.row);
                    e
                })
                .collect::<Vec<ReportEntry>>()
        })
    });
    let mut out = Vec::new();
    for entries in per_shard {
        out.extend(entries?);
    }
    // Same order as the unsharded report: by date, ties in log order
    // (its stable sort keeps the ascending row ids it scanned).
    out.sort_by_key(|e| {
        (
            match e.date {
                Value::Date(d) => d,
                _ => i64::MAX,
            },
            e.row,
        )
    });
    Ok(out)
}

fn summarize_unexplained(
    db: &Database,
    spec: &LogSpec,
    unexplained: Vec<RowId>,
) -> Vec<SuspectSummary> {
    rank_suspects(per_user_unexplained(db, spec, unexplained))
}

/// `user → (unexplained count, distinct patients)` — the associative
/// intermediate both the unsharded and the scatter-gather summary rank.
fn per_user_unexplained(
    db: &Database,
    spec: &LogSpec,
    unexplained: Vec<RowId>,
) -> HashMap<Value, (usize, HashSet<Value>)> {
    let log = db.table(spec.table);
    let mut per_user: HashMap<Value, (usize, HashSet<Value>)> = HashMap::new();
    for rid in unexplained {
        let row = log.row(rid);
        let entry = per_user.entry(row[spec.user_col]).or_default();
        entry.0 += 1;
        entry.1.insert(row[spec.patient_col]);
    }
    per_user
}

fn rank_suspects(per_user: HashMap<Value, (usize, HashSet<Value>)>) -> Vec<SuspectSummary> {
    let mut out: Vec<SuspectSummary> = per_user
        .into_iter()
        .map(|(user, (unexplained, patients))| SuspectSummary {
            user,
            unexplained,
            distinct_patients: patients.len(),
        })
        .collect();
    out.sort_by(|a, b| {
        b.unexplained
            .cmp(&a.unexplained)
            .then_with(|| format!("{:?}", a.user).cmp(&format!("{:?}", b.user)))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handcrafted::HandcraftedTemplates;
    use eba_synth::{Hospital, SynthConfig};

    fn setup() -> (Hospital, LogSpec, Explainer) {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let explainer = Explainer::new(t.all().into_iter().cloned().collect());
        (h, spec, explainer)
    }

    #[test]
    fn report_lists_all_accesses_chronologically() {
        let (h, spec, explainer) = setup();
        // Pick the most-accessed patient.
        let log = h.db.table(h.t_log);
        let idx = log.index(h.log_cols.patient);
        let (patient, rows) = idx
            .groups()
            .into_iter()
            .max_by_key(|(_, rows)| rows.len())
            .expect("log not empty");
        let expected = rows.len();
        let report = patient_report(&h.db, &spec, &h.log_cols, &explainer, patient).unwrap();
        assert_eq!(report.len(), expected);
        for w in report.windows(2) {
            let (Value::Date(a), Value::Date(b)) = (w[0].date, w[1].date) else {
                panic!("dates expected")
            };
            assert!(a <= b);
        }
        // At least one access of a busy patient is explained.
        assert!(report.iter().any(|e| e.explanation.is_some()));
    }

    #[test]
    fn unexplained_entries_show_investigation_hint() {
        let (h, spec, explainer) = setup();
        let report_texts: Vec<String> = (0..h.world.n_patients())
            .filter_map(|p| {
                patient_report(&h.db, &spec, &h.log_cols, &explainer, h.patient_value(p)).ok()
            })
            .flatten()
            .filter(|e| e.explanation.is_none())
            .map(|e| e.display_text().to_string())
            .collect();
        assert!(!report_texts.is_empty());
        assert!(report_texts[0].contains("investigation"));
    }

    #[test]
    fn engine_backed_summary_matches_per_query() {
        let (h, spec, explainer) = setup();
        let engine = Engine::new(&h.db);
        assert_eq!(
            misuse_summary_with(&h.db, &spec, &explainer, &engine),
            misuse_summary(&h.db, &spec, &explainer)
        );
    }

    #[test]
    fn sharded_portal_views_match_unsharded_oracle() {
        let (h, spec, explainer) = setup();
        let key = eba_relational::ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        // The busiest patient exercises a non-trivial report.
        let log = h.db.table(h.t_log);
        let idx = log.index(h.log_cols.patient);
        let (patient, _) = idx
            .groups()
            .into_iter()
            .max_by_key(|(_, rows)| rows.len())
            .expect("log not empty");
        let oracle_summary = misuse_summary(&h.db, &spec, &explainer);
        let oracle_report = patient_report(&h.db, &spec, &h.log_cols, &explainer, patient).unwrap();
        for n in [1, 3] {
            let sharded = eba_relational::ShardedEngine::new(h.db.clone(), key, n);
            let shards = sharded.load();
            assert_eq!(
                misuse_summary_at_shards(&spec, &explainer, &shards),
                oracle_summary,
                "{n} shards"
            );
            assert_eq!(
                patient_report_at_shards(&spec, &h.log_cols, &explainer, patient, &shards).unwrap(),
                oracle_report,
                "{n} shards"
            );
        }
    }

    #[test]
    fn misuse_summary_ranks_float_users_high() {
        let (h, spec, explainer) = setup();
        let summary = misuse_summary(&h.db, &spec, &explainer);
        assert!(!summary.is_empty());
        // Sorted descending.
        for w in summary.windows(2) {
            assert!(w[0].unexplained >= w[1].unexplained);
        }
        // The top suspects should include float-pool users (their accesses
        // have no recorded reason).
        let top: Vec<_> = summary.iter().take(5).collect();
        let float_in_top = top.iter().any(|s| {
            h.user_index(s.user)
                .is_some_and(|i| h.world.users[i].role == eba_synth::Role::Float)
        });
        assert!(float_in_top, "expected a float user among top suspects");
    }
}
