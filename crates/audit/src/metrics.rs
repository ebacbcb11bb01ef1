//! Precision, recall, and normalized recall (§5.3.2).
//!
//! * `recall = |real accesses explained| / |real log|`
//! * `precision = |real accesses explained| / |real + fake accesses explained|`
//! * `normalized recall = |real accesses explained| / |real accesses with
//!   events|` — the denominator discounts accesses the (truncated) database
//!   holds no information about.

use crate::fake::FakeLog;
use eba_core::{ExplanationTemplate, LogSpec};
use eba_relational::{
    ChainQuery, Database, Engine, EpochVec, EvalOptions, Maintained, RowId, RowSet,
};
use std::collections::HashSet;

/// Counts underlying the three metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Confusion {
    /// Real anchor rows explained by at least one template.
    pub real_explained: usize,
    /// Fake anchor rows explained by at least one template.
    pub fake_explained: usize,
    /// Real anchor rows in total.
    pub real_total: usize,
    /// Fake anchor rows in total.
    pub fake_total: usize,
    /// Real anchor rows whose patient has *some* recorded event (the
    /// normalized-recall denominator); equals `real_total` when no event
    /// predicates were supplied.
    pub real_with_events: usize,
}

impl Confusion {
    /// `real_explained / real_total` (0 when empty).
    pub fn recall(&self) -> f64 {
        ratio(self.real_explained, self.real_total)
    }

    /// `real_explained / (real_explained + fake_explained)` (1 when nothing
    /// fake was explained).
    pub fn precision(&self) -> f64 {
        if self.real_explained + self.fake_explained == 0 {
            return 1.0;
        }
        self.real_explained as f64 / (self.real_explained + self.fake_explained) as f64
    }

    /// `real_explained / real_with_events` (0 when empty).
    pub fn normalized_recall(&self) -> f64 {
        ratio(self.real_explained, self.real_with_events)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Log rows passing the spec's anchor filters, ascending.
pub fn anchor_rows(db: &Database, spec: &LogSpec) -> Vec<RowId> {
    let log = db.table(spec.table);
    log.iter()
        .filter(|(_, row)| {
            spec.anchor_filters
                .iter()
                .all(|(col, op, v)| op.eval(&row[*col], v))
        })
        .map(|(rid, _)| rid)
        .collect()
}

/// Union of the rows explained by any of `templates` under `spec`.
pub fn explained_union(
    db: &Database,
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
) -> HashSet<RowId> {
    let mut out = HashSet::new();
    for t in templates {
        let rows = t
            .path
            .to_chain_query(spec)
            .explained_rows(db, EvalOptions::default())
            .expect("templates lower to valid queries");
        out.extend(rows);
    }
    out
}

/// [`explained_union`] through a shared [`Engine`]: the template set is
/// evaluated as one fused batch against the engine's warm caches.
pub fn explained_union_with(
    db: &Database,
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
    engine: &Engine,
) -> HashSet<RowId> {
    explained_union_rowset_with(db, spec, templates, engine)
        .iter()
        .collect()
}

/// [`explained_union_with`] in compressed form: the fused suite driver's
/// per-template bitmaps folded into one [`RowSet`] — no intermediate
/// hash set, and the natural input for [`confusion_from_rowset`].
pub fn explained_union_rowset_with(
    db: &Database,
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
    engine: &Engine,
) -> RowSet {
    let queries: Vec<ChainQuery> = templates
        .iter()
        .map(|t| t.path.to_chain_query(spec))
        .collect();
    engine
        .explained_union_rowset(db, &queries, EvalOptions::default())
        .expect("templates lower to valid queries")
}

/// Builds a [`Confusion`] from precomputed row sets — the general entry
/// point, also usable with open-path predicates (e.g. the depth-0
/// "everyone in one group" baseline, whose explained set is just "patient
/// has some event").
pub fn confusion_from_sets(
    anchors: &[RowId],
    explained: &HashSet<RowId>,
    is_fake: impl Fn(RowId) -> bool,
    with_events: Option<&HashSet<RowId>>,
) -> Confusion {
    confusion_from_membership(
        anchors,
        |rid| explained.contains(&rid),
        is_fake,
        with_events,
    )
}

/// [`confusion_from_sets`] with the explained set in compressed
/// [`RowSet`] form — what the fused suite paths produce.
pub fn confusion_from_rowset(
    anchors: &[RowId],
    explained: &RowSet,
    is_fake: impl Fn(RowId) -> bool,
    with_events: Option<&HashSet<RowId>>,
) -> Confusion {
    confusion_from_membership(anchors, |rid| explained.contains(rid), is_fake, with_events)
}

fn confusion_from_membership(
    anchors: &[RowId],
    explained: impl Fn(RowId) -> bool,
    is_fake: impl Fn(RowId) -> bool,
    with_events: Option<&HashSet<RowId>>,
) -> Confusion {
    let mut c = Confusion {
        real_explained: 0,
        fake_explained: 0,
        real_total: 0,
        fake_total: 0,
        real_with_events: 0,
    };
    for &rid in anchors {
        if is_fake(rid) {
            c.fake_total += 1;
            if explained(rid) {
                c.fake_explained += 1;
            }
        } else {
            c.real_total += 1;
            if with_events.is_none_or(|s| s.contains(&rid)) {
                c.real_with_events += 1;
            }
            if explained(rid) {
                c.real_explained += 1;
            }
        }
    }
    c
}

/// Evaluates a template set: anchor rows are split real/fake via `fake`,
/// and `with_events` (if given) marks the rows counted in the
/// normalized-recall denominator.
pub fn evaluate(
    db: &Database,
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
    fake: Option<&FakeLog>,
    with_events: Option<&HashSet<RowId>>,
) -> Confusion {
    let anchors = anchor_rows(db, spec);
    let explained = explained_union(db, spec, templates);
    confusion_from_sets(
        &anchors,
        &explained,
        |rid| fake.is_some_and(|f| f.is_fake(rid)),
        with_events,
    )
}

/// [`explained_union`] against a pinned **epoch vector**: shards evaluate
/// the template set in parallel and the unions merge into global row ids.
pub fn explained_union_at_shards(
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
    shards: &EpochVec,
) -> HashSet<RowId> {
    explained_union_rowset_at_shards(spec, templates, shards)
        .iter()
        .collect()
}

/// [`explained_union_at_shards`] in compressed form: per-shard global-id
/// bitmaps folded with the associative union.
pub fn explained_union_rowset_at_shards(
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
    shards: &EpochVec,
) -> RowSet {
    let queries: Vec<ChainQuery> = templates
        .iter()
        .map(|t| t.path.to_chain_query(spec))
        .collect();
    shards
        .explained_union_rowset(&queries, EvalOptions::default())
        .expect("templates lower to valid queries")
}

/// [`anchor_rows`] against a pinned epoch vector, in ascending **global**
/// row id order — byte-identical to the unsharded call.
pub fn anchor_rows_at_shards(shards: &EpochVec, spec: &LogSpec) -> Vec<RowId> {
    let mut out: Vec<RowId> = shards
        .par_map_shards(|_, shard| {
            anchor_rows(shard.db(), spec)
                .into_iter()
                .map(|local| shard.to_global(local))
                .collect::<Vec<RowId>>()
        })
        .into_iter()
        .flatten()
        .collect();
    out.sort_unstable();
    out
}

/// [`evaluate`] through a shared [`Engine`] over `db` — what the
/// experiments figures use so every template set of one figure shares one
/// snapshot and cache.
pub fn evaluate_with(
    db: &Database,
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
    fake: Option<&FakeLog>,
    with_events: Option<&HashSet<RowId>>,
    engine: &Engine,
) -> Confusion {
    let anchors = anchor_rows(db, spec);
    let explained = explained_union_rowset_with(db, spec, templates, engine);
    confusion_from_rowset(
        &anchors,
        &explained,
        |rid| fake.is_some_and(|f| f.is_fake(rid)),
        with_events,
    )
}

/// [`Confusion`] read off a pinned suite's [`Maintained`] partition — the
/// O(delta)-maintained form of [`evaluate`] with no fake log and no event
/// predicate (the live-service configuration: every anchor row is real).
/// No query runs and nothing is materialized: `real_explained` is one
/// allocation-free intersection count
/// ([`RowSet::intersect_len`]) over the already-maintained sets.
pub fn confusion_from_maintained(m: &Maintained) -> Confusion {
    let real_total = m.anchors.len();
    Confusion {
        real_explained: m.anchors.intersect_len(&m.explained),
        fake_explained: 0,
        real_total,
        fake_total: 0,
        real_with_events: real_total,
    }
}

/// [`evaluate`] against a pinned epoch vector — anchors and explained
/// sets are both read from the vector's frozen databases, so the
/// confusion counts cannot straddle an ingest. `fake` and `with_events`
/// speak global row ids (they were built against the unsharded log), and
/// so do the anchors and explained sets gathered here — the confusion
/// counts are identical to [`evaluate`] on the oracle database.
pub fn evaluate_at_shards(
    spec: &LogSpec,
    templates: &[&ExplanationTemplate],
    fake: Option<&FakeLog>,
    with_events: Option<&HashSet<RowId>>,
    shards: &EpochVec,
) -> Confusion {
    let anchors = anchor_rows_at_shards(shards, spec);
    let explained = explained_union_rowset_at_shards(spec, templates, shards);
    confusion_from_rowset(
        &anchors,
        &explained,
        |rid| fake.is_some_and(|f| f.is_fake(rid)),
        with_events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handcrafted::HandcraftedTemplates;
    use eba_synth::{Hospital, SynthConfig};

    #[test]
    fn metric_formulas() {
        let c = Confusion {
            real_explained: 30,
            fake_explained: 10,
            real_total: 60,
            fake_total: 60,
            real_with_events: 40,
        };
        assert!((c.recall() - 0.5).abs() < 1e-12);
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert!((c.normalized_recall() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let c = Confusion {
            real_explained: 0,
            fake_explained: 0,
            real_total: 0,
            fake_total: 0,
            real_with_events: 0,
        };
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.normalized_recall(), 0.0);
    }

    #[test]
    fn evaluate_without_fakes_counts_all_rows_real() {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = eba_core::LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let c = evaluate(&h.db, &spec, &t.all_with_repeat(), None, None);
        assert_eq!(c.fake_total, 0);
        assert_eq!(c.real_total, h.log_len());
        assert!(c.recall() > 0.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.real_with_events, c.real_total);
    }

    #[test]
    fn engine_backed_union_and_confusion_match_per_query() {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = eba_core::LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let engine = Engine::new(&h.db);
        let suite = t.all();
        assert_eq!(
            explained_union_with(&h.db, &spec, &suite, &engine),
            explained_union(&h.db, &spec, &suite)
        );
        assert_eq!(
            evaluate_with(&h.db, &spec, &suite, None, None, &engine),
            evaluate(&h.db, &spec, &suite, None, None)
        );
    }

    #[test]
    fn sharded_metrics_match_unsharded_oracle() {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = eba_core::LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let suite = t.all();
        let key = eba_relational::ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        for n in [1, 3] {
            let sharded = eba_relational::ShardedEngine::new(h.db.clone(), key, n);
            let shards = sharded.load();
            assert_eq!(
                anchor_rows_at_shards(&shards, &spec),
                anchor_rows(&h.db, &spec),
                "{n} shards"
            );
            assert_eq!(
                explained_union_at_shards(&spec, &suite, &shards),
                explained_union(&h.db, &spec, &suite)
            );
            assert_eq!(
                evaluate_at_shards(&spec, &suite, None, None, &shards),
                evaluate(&h.db, &spec, &suite, None, None)
            );
        }
    }

    #[test]
    fn maintained_confusion_matches_evaluate() {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = eba_core::LogSpec::conventional(&h.db).unwrap();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let explainer = crate::explain::Explainer::new(t.all().into_iter().cloned().collect());
        let key = eba_relational::ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        let sharded = eba_relational::ShardedEngine::new(h.db.clone(), key, 1);
        let pin_id = sharded.pin_suite(explainer.suite_pin(&spec));
        let epochs = sharded.load();
        let m = epochs.maintained(pin_id).expect("pinned");
        let suite: Vec<&ExplanationTemplate> = explainer.templates().iter().collect();
        assert_eq!(
            confusion_from_maintained(m),
            evaluate(&h.db, &spec, &suite, None, None)
        );
    }

    #[test]
    fn precision_drops_with_fakes_for_permissive_templates() {
        let mut h = Hospital::generate(SynthConfig::tiny());
        let spec = eba_core::LogSpec::conventional(&h.db).unwrap();
        let users = crate::fake::user_pool(&h.db);
        let patients: Vec<_> = (0..h.world.n_patients())
            .map(|p| h.patient_value(p))
            .collect();
        let n = h.log_len();
        let fake = FakeLog::inject(
            &mut h.db,
            h.t_log,
            &h.log_cols,
            &users,
            &patients,
            n,
            h.config.days,
            99,
        );
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        // Tight templates keep high precision. (The tiny test world is far
        // denser than CareWeb's 3e-4 user-patient density, so some fake
        // pairs do coincide with real appointments; at realistic scale the
        // experiments measure ≈0.99.)
        let tight = evaluate(&h.db, &spec, &[&t.appt_with_dr], Some(&fake), None);
        assert!(tight.precision() > 0.75, "precision {}", tight.precision());
        assert_eq!(tight.real_total, n);
        assert_eq!(tight.fake_total, n);
    }
}
