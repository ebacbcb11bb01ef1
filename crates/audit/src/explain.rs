//! The explainer: per-access explanations ranked by path length.
//!
//! "When there are multiple explanation instances for a given log record,
//! we convert each to natural language and rank the explanations in
//! ascending order of path length" (§2.1).

use eba_core::{ExplanationTemplate, LogSpec};
use eba_relational::{
    ChainQuery, Database, Engine, EpochVec, EvalOptions, PreparedChain, Result, RowId, RowSet,
    SuitePin,
};
use std::collections::HashSet;

/// One rendered explanation for a specific access.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedExplanation {
    /// Index into the explainer's template list.
    pub template_index: usize,
    /// Template path length (the ranking key; shorter = more direct).
    pub length: usize,
    /// Natural-language text.
    pub text: String,
}

/// A template suite ready to explain individual accesses.
#[derive(Debug, Clone, Default)]
pub struct Explainer {
    templates: Vec<ExplanationTemplate>,
}

impl Explainer {
    /// Builds an explainer over a set of templates.
    pub fn new(templates: Vec<ExplanationTemplate>) -> Self {
        Explainer { templates }
    }

    /// The templates, in index order.
    pub fn templates(&self) -> &[ExplanationTemplate] {
        &self.templates
    }

    /// Adds a template, returning its index.
    pub fn push(&mut self, t: ExplanationTemplate) -> usize {
        self.templates.push(t);
        self.templates.len() - 1
    }

    /// Lowers and validates every template's query **once**, for per-row
    /// loops: [`PreparedExplainer::explain`] then skips the structural
    /// re-validation [`ChainQuery::instances`](eba_relational::ChainQuery)
    /// would pay on every row.
    pub fn prepared(&self, db: &Database, spec: &LogSpec) -> Result<PreparedExplainer<'_>> {
        let queries = self
            .templates
            .iter()
            .map(|t| t.path.to_chain_query(spec).into_prepared(db))
            .collect::<Result<Vec<_>>>()?;
        Ok(PreparedExplainer {
            templates: &self.templates,
            queries,
        })
    }

    /// All explanations for one log record, rendered and sorted by
    /// ascending path length (then template order). At most
    /// `instances_per_template` witnesses are rendered per template.
    ///
    /// Convenience for one-off calls; loops over many rows should
    /// [`Explainer::prepared`] once and reuse it.
    pub fn explain(
        &self,
        db: &Database,
        spec: &LogSpec,
        row: RowId,
        instances_per_template: usize,
    ) -> Result<Vec<RankedExplanation>> {
        Ok(self
            .prepared(db, spec)?
            .explain(db, spec, row, instances_per_template))
    }

    /// The suite lowered to chain queries, in template order.
    fn suite_queries(&self, spec: &LogSpec) -> Vec<ChainQuery> {
        self.templates
            .iter()
            .map(|t| t.path.to_chain_query(spec))
            .collect()
    }

    /// The suite as a [`SuitePin`], ready to hand to
    /// [`eba_relational::ShardedEngine::pin_suite`]: once pinned, every
    /// published epoch vector carries the materialized explained/unexplained
    /// partition, maintained incrementally per ingest and byte-identical
    /// to what [`Explainer::unexplained_rows_with`] recomputes cold.
    pub fn suite_pin(&self, spec: &LogSpec) -> SuitePin {
        SuitePin {
            log: spec.table,
            anchor_filters: spec.anchor_filters.clone(),
            queries: self.suite_queries(spec),
            opts: EvalOptions::default(),
        }
    }

    /// Rows (within the spec's anchor) explained by at least one template.
    ///
    /// One-off convenience that evaluates each template's query against
    /// the cold database; an auditing session asking this repeatedly
    /// should hold a warm [`Engine`] and use
    /// [`Explainer::explained_rows_with`] instead.
    pub fn explained_rows(&self, db: &Database, spec: &LogSpec) -> HashSet<RowId> {
        let mut out = HashSet::new();
        for q in self.suite_queries(spec) {
            let rows = q
                .explained_rows(db, EvalOptions::default())
                .expect("templates lower to valid queries");
            out.extend(rows);
        }
        out
    }

    /// [`Explainer::explained_rows`] through a shared [`Engine`]: the
    /// whole suite is evaluated as one fused batch
    /// ([`Engine::eval_suite`]), and the engine's step maps and log
    /// partitions stay warm for the next question. Results are identical
    /// to the per-query path.
    pub fn explained_rows_with(
        &self,
        db: &Database,
        spec: &LogSpec,
        engine: &Engine,
    ) -> HashSet<RowId> {
        self.explained_rowset_with(db, spec, engine)
            .iter()
            .collect()
    }

    /// [`Explainer::explained_rows_with`] in compressed [`RowSet`] form —
    /// the shape the fused suite driver produces, and what the timeline
    /// and portal layers consume without ever hashing a row id.
    pub fn explained_rowset_with(&self, db: &Database, spec: &LogSpec, engine: &Engine) -> RowSet {
        engine
            .explained_union_rowset(db, &self.suite_queries(spec), EvalOptions::default())
            .expect("templates lower to valid queries")
    }

    /// [`Explainer::explained_rows`] against a pinned **epoch vector** —
    /// the session form: every question asked of the same vector sees one
    /// consistent log state while ingests publish new vectors behind it.
    /// Each shard evaluates the whole suite
    /// against its warm engine in parallel; the unions merge into
    /// **global** row ids, identical to what [`Explainer::explained_rows`]
    /// returns on the unsharded database.
    pub fn explained_rows_at_shards(&self, spec: &LogSpec, shards: &EpochVec) -> HashSet<RowId> {
        self.explained_rowset_at_shards(spec, shards)
            .iter()
            .collect()
    }

    /// [`Explainer::explained_rows_at_shards`] in compressed form: the
    /// per-shard global-id bitmaps fold with the associative union.
    pub fn explained_rowset_at_shards(&self, spec: &LogSpec, shards: &EpochVec) -> RowSet {
        shards
            .explained_union_rowset(&self.suite_queries(spec), EvalOptions::default())
            .expect("templates lower to valid queries")
    }

    /// Anchor rows *no* template explains — the paper's reduced set of
    /// potentially suspicious accesses.
    pub fn unexplained_rows(&self, db: &Database, spec: &LogSpec) -> Vec<RowId> {
        let explained = self.explained_rows(db, spec);
        crate::metrics::anchor_rows(db, spec)
            .into_iter()
            .filter(|rid| !explained.contains(rid))
            .collect()
    }

    /// [`Explainer::unexplained_rows`] through a shared [`Engine`]: the
    /// anchor rows and the fused suite's explained set meet as row-set
    /// algebra — `anchors \ explained` is one compressed difference, and
    /// the result reads out already sorted.
    pub fn unexplained_rows_with(
        &self,
        db: &Database,
        spec: &LogSpec,
        engine: &Engine,
    ) -> Vec<RowId> {
        self.unexplained_rowset_with(db, spec, engine).to_vec()
    }

    /// [`Explainer::unexplained_rows_with`] in compressed form.
    pub fn unexplained_rowset_with(
        &self,
        db: &Database,
        spec: &LogSpec,
        engine: &Engine,
    ) -> RowSet {
        let anchors = RowSet::from_sorted_vec(&crate::metrics::anchor_rows(db, spec));
        anchors.difference(&self.explained_rowset_with(db, spec, engine))
    }

    /// [`Explainer::unexplained_rows`] against a pinned epoch vector:
    /// per-shard complements returned as **global-id** [`RowSet`]s and
    /// folded with the associative union — byte-identical to the
    /// unsharded answer, because anchor filters evaluate per row and
    /// shards partition the log (no re-sort needed: local ascending
    /// order maps to ascending global ids).
    pub fn unexplained_rows_at_shards(&self, spec: &LogSpec, shards: &EpochVec) -> Vec<RowId> {
        let per_shard = shards.par_map_shards(|_, shard| {
            let local = self.unexplained_rowset_with(shard.db(), spec, shard.engine());
            let global: Vec<RowId> = local.iter().map(|r| shard.to_global(r)).collect();
            RowSet::from_sorted_vec(&global)
        });
        RowSet::union_all(per_shard).to_vec()
    }
}

/// An [`Explainer`] whose template queries were lowered and validated once.
/// Produced by [`Explainer::prepared`]; see there.
#[derive(Debug)]
pub struct PreparedExplainer<'t> {
    templates: &'t [ExplanationTemplate],
    queries: Vec<PreparedChain>,
}

impl PreparedExplainer<'_> {
    /// The templates, in index order.
    pub fn templates(&self) -> &[ExplanationTemplate] {
        self.templates
    }

    /// The validated queries, parallel to [`PreparedExplainer::templates`].
    pub fn queries(&self) -> &[PreparedChain] {
        &self.queries
    }

    /// [`Explainer::explain`] without per-row query re-validation.
    pub fn explain(
        &self,
        db: &Database,
        spec: &LogSpec,
        row: RowId,
        instances_per_template: usize,
    ) -> Vec<RankedExplanation> {
        let mut out = Vec::new();
        for (i, (t, q)) in self.templates.iter().zip(&self.queries).enumerate() {
            for inst in q.instances(db, row, instances_per_template) {
                out.push(RankedExplanation {
                    template_index: i,
                    length: t.length(),
                    text: t.render(db, spec, row, &inst),
                });
            }
        }
        out.sort_by_key(|e| (e.length, e.template_index));
        out
    }
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
    fn explanations_are_ranked_by_length() {
        let (h, spec, explainer) = setup();
        // Find a row with at least two explanations.
        for rid in 0..h.log_len() as RowId {
            let ex = explainer.explain(&h.db, &spec, rid, 4).unwrap();
            if ex.len() >= 2 {
                for w in ex.windows(2) {
                    assert!(w[0].length <= w[1].length);
                }
                assert!(!ex[0].text.is_empty());
                return;
            }
        }
        panic!("no multiply-explained access found");
    }

    #[test]
    fn explained_plus_unexplained_covers_anchor() {
        let (h, spec, explainer) = setup();
        let explained = explainer.explained_rows(&h.db, &spec);
        let unexplained = explainer.unexplained_rows(&h.db, &spec);
        assert_eq!(explained.len() + unexplained.len(), h.log_len());
        for rid in unexplained {
            assert!(!explained.contains(&rid));
        }
    }

    #[test]
    fn float_assists_are_unexplained() {
        let (h, spec, explainer) = setup();
        let explained = explainer.explained_rows(&h.db, &spec);
        let mut float_explained = 0;
        let mut float_total = 0;
        for rid in 0..h.log_len() as RowId {
            if h.reason_of(rid) == eba_synth::AccessReason::FloatAssist {
                float_total += 1;
                if explained.contains(&rid) {
                    float_explained += 1;
                }
            }
        }
        assert!(float_total > 0);
        // A float's *first* access has no event path; repeats of floats
        // are explained by the repeat template only.
        assert!(
            (float_explained as f64) < 0.2 * float_total as f64,
            "{float_explained}/{float_total} float accesses explained"
        );
    }

    #[test]
    fn engine_backed_suite_matches_per_query_path() {
        let (h, spec, explainer) = setup();
        let engine = eba_relational::Engine::new(&h.db);
        assert_eq!(
            explainer.explained_rows_with(&h.db, &spec, &engine),
            explainer.explained_rows(&h.db, &spec)
        );
        assert_eq!(
            explainer.unexplained_rows_with(&h.db, &spec, &engine),
            explainer.unexplained_rows(&h.db, &spec)
        );
    }

    #[test]
    fn sharded_suite_matches_unsharded_oracle() {
        let (h, spec, explainer) = setup();
        let key = eba_relational::ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        for n in [1, 3] {
            let sharded = eba_relational::ShardedEngine::new(h.db.clone(), key, n);
            let shards = sharded.load();
            assert_eq!(
                explainer.explained_rows_at_shards(&spec, &shards),
                explainer.explained_rows(&h.db, &spec),
                "{n} shards"
            );
            assert_eq!(
                explainer.unexplained_rows_at_shards(&spec, &shards),
                explainer.unexplained_rows(&h.db, &spec),
                "{n} shards"
            );
        }
    }

    #[test]
    fn sharded_pinned_suite_maintains_the_cold_partition() {
        let (h, spec, explainer) = setup();
        let key = eba_relational::ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        for n in [1, 3] {
            let sharded = eba_relational::ShardedEngine::new(h.db.clone(), key, n);
            let pin_id = sharded.pin_suite(explainer.suite_pin(&spec));
            let check = |label: &str| {
                let shards = sharded.load();
                let m = shards.maintained(pin_id).expect("pinned");
                assert_eq!(
                    m.unexplained.to_vec(),
                    explainer.unexplained_rows_at_shards(&spec, &shards),
                    "{label} ({n} shards): unexplained"
                );
                assert_eq!(
                    m.explained,
                    explainer.explained_rowset_at_shards(&spec, &shards),
                    "{label} ({n} shards): explained"
                );
                assert_eq!(m.log_len, shards.global_log_len());
            };
            check("cold pin");

            let arity = h.db.table(h.t_log).schema().arity();
            let cols = h.log_cols;
            for round in 0..3 {
                let (_, report) = sharded.ingest(|batch| {
                    for i in 0..4i64 {
                        let mut row = vec![eba_relational::Value::Null; arity];
                        row[cols.lid] = eba_relational::Value::Int(4_000_000 + 4 * round + i);
                        row[cols.date] = eba_relational::Value::Date(0);
                        row[cols.user] = eba_relational::Value::Int(1 + round + i);
                        row[cols.patient] = eba_relational::Value::Int(1 + i);
                        row[cols.day] = eba_relational::Value::Int(1);
                        row[cols.is_first] = eba_relational::Value::Int(0);
                        batch.insert_log(row).unwrap();
                    }
                });
                assert!(report.fallback_warnings().is_empty());
                check("after ingest");
            }
        }
    }

    #[test]
    fn push_extends_the_suite() {
        let (h, spec, mut explainer) = setup();
        let before = explainer.templates().len();
        let t = HandcraftedTemplates::build(&h.db, &spec).unwrap();
        let idx = explainer.push(t.appt_with_dr.clone());
        assert_eq!(idx, before);
        assert_eq!(explainer.templates().len(), before + 1);
    }
}
