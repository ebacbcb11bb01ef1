//! Figures 6 and 8: how often accessed patients have events in the
//! database ("recall of events").

use crate::figure::FigureResult;
use crate::scenario::Scenario;
use eba_audit::handcrafted::event_predicates;
use eba_audit::{metrics, split};
use eba_core::LogSpec;
use eba_relational::{ChainQuery, Database, Engine, EvalOptions, RowId};
use std::collections::HashSet;

/// Union of rows whose patient has any data-set-A or B event, evaluated
/// as one batch on `engine` (a warm engine over `db`).
pub fn rows_with_any_event_on(db: &Database, spec: &LogSpec, engine: &Engine) -> HashSet<RowId> {
    let preds = event_predicates(db, spec).expect("schema is CareWeb-shaped");
    let queries: Vec<ChainQuery> = preds.iter().map(|(_, p)| p.to_chain_query(spec)).collect();
    engine
        .explained_union(db, &queries, EvalOptions::default())
        .expect("valid predicate")
}

/// Union of rows whose patient has any data-set-A or B event.
pub fn rows_with_any_event(s: &Scenario, spec: &LogSpec) -> HashSet<RowId> {
    rows_with_any_event_on(s.db(), spec, s.engine())
}

fn event_figure(
    s: &Scenario,
    spec: &LogSpec,
    id: &str,
    title: &str,
    include_repeat: bool,
    paper: &[(&str, f64)],
) -> FigureResult {
    // The scenario's database: provably the state its engine was
    // built over (identical content to `s.hospital.db`).
    let db = s.db();
    let denominator = metrics::anchor_rows(db, spec).len().max(1) as f64;
    let mut fig = FigureResult::new(id, title, &["Recall", "Paper"]);
    let preds = event_predicates(db, spec).expect("schema is CareWeb-shaped");
    let mut all: HashSet<RowId> = HashSet::new();
    let paper_of = |label: &str| paper.iter().find(|(l, _)| *l == label).map(|(_, v)| *v);

    // One engine batch answers every event-predicate bar of the figure.
    let queries: Vec<ChainQuery> = preds.iter().map(|(_, p)| p.to_chain_query(spec)).collect();
    let per_pred = s
        .engine()
        .explained_rows_many(db, &queries, EvalOptions::default());
    for ((label, _), rows) in preds.iter().zip(per_pred) {
        let rows: HashSet<RowId> = rows.expect("valid predicate").into_iter().collect();
        let recall = rows.len() as f64 / denominator;
        fig.rows.push(crate::figure::FigureRow::sparse(
            (*label).to_string(),
            vec![Some(recall), paper_of(label)],
        ));
        all.extend(rows);
    }
    if include_repeat {
        let repeat: HashSet<RowId> = s
            .handcrafted
            .repeat_access
            .explained_rows_with(db, spec, s.engine())
            .expect("valid template")
            .into_iter()
            .collect();
        fig.rows.push(crate::figure::FigureRow::sparse(
            "Repeat Access".to_string(),
            vec![
                Some(repeat.len() as f64 / denominator),
                paper_of("Repeat Access"),
            ],
        ));
        all.extend(repeat);
    }
    fig.rows.push(crate::figure::FigureRow::sparse(
        "All".to_string(),
        vec![Some(all.len() as f64 / denominator), paper_of("All")],
    ));
    fig
}

/// Figure 6: frequency of events in the database for **all** accesses.
/// Paper: appointments and documents are common, visits rare, repeats a
/// majority, and ~97% of accesses reference a patient with *some* event.
pub fn fig06(s: &Scenario) -> FigureResult {
    let mut fig = event_figure(
        s,
        &s.spec,
        "Figure 6",
        "Frequency of events in the database (all accesses)",
        true,
        &[
            ("Appt", 0.60),
            ("Visit", 0.07),
            ("Document", 0.55),
            ("Repeat Access", 0.62),
            ("All", 0.97),
        ],
    );
    fig.note("paper reference values are approximate bar heights; the residue reflects the truncated data set".to_string());
    fig
}

/// Figure 8: the same measurement restricted to **first** accesses.
/// Paper: ~75% of first accesses reference a patient with some event.
pub fn fig08(s: &Scenario) -> FigureResult {
    let spec = s.spec.with_filters(split::first_only(&s.hospital.log_cols));
    let mut fig = event_figure(
        s,
        &spec,
        "Figure 8",
        "Frequency of events in the database (first accesses)",
        false,
        &[
            ("Appt", 0.55),
            ("Visit", 0.06),
            ("Document", 0.50),
            ("All", 0.75),
        ],
    );
    fig.note("the ~25% residue is attributed to the incomplete (truncated) data set".to_string());
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_synth::SynthConfig;

    fn scenario() -> Scenario {
        Scenario::build(SynthConfig::tiny())
    }

    #[test]
    fn fig06_shape_matches_paper() {
        let s = scenario();
        let fig = fig06(&s);
        let all = fig.value("All", 0).unwrap();
        let appt = fig.value("Appt", 0).unwrap();
        let visit = fig.value("Visit", 0).unwrap();
        // All ≥ every individual bar; visits rare; most accesses covered.
        assert!(all >= appt && all >= visit);
        assert!(visit < appt, "visits must be rarer than appointments");
        assert!(all > 0.8, "All = {all}, expected the vast majority covered");
    }

    #[test]
    fn fig08_first_access_coverage_is_lower_than_fig06() {
        let s = scenario();
        let all6 = fig06(&s).value("All", 0).unwrap();
        let all8 = fig08(&s).value("All", 0).unwrap();
        assert!(
            all8 <= all6 + 1e-9,
            "first-access coverage ({all8}) cannot exceed all-access coverage ({all6})"
        );
        // Truncation leaves a visible residue among first accesses.
        assert!(all8 < 0.95, "All (first) = {all8}");
        assert!(all8 > 0.4, "All (first) = {all8}");
    }

    #[test]
    fn repeat_bar_only_in_fig06() {
        let s = scenario();
        assert!(fig06(&s).value("Repeat Access", 0).is_some());
        assert!(fig08(&s).value("Repeat Access", 0).is_none());
    }
}
