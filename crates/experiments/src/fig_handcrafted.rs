//! Figures 7 and 9: recall of the hand-crafted explanation templates.

use crate::figure::{FigureResult, FigureRow};
use crate::scenario::Scenario;
use eba_audit::{metrics, split};
use eba_core::{ExplanationTemplate, LogSpec};
use std::collections::HashSet;

fn handcrafted_figure(
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
    let paper_of = |label: &str| paper.iter().find(|(l, _)| *l == label).map(|(_, v)| *v);

    let mut entries: Vec<(&str, &ExplanationTemplate)> = vec![
        ("Appt w/Dr.", &s.handcrafted.appt_with_dr),
        ("Visit w/Dr.", &s.handcrafted.visit_with_dr),
        ("Doc. w/Dr.", &s.handcrafted.doc_with_dr),
    ];
    if include_repeat {
        entries.push(("Repeat Access", &s.handcrafted.repeat_access));
    }

    let mut all: HashSet<eba_relational::RowId> = HashSet::new();
    for (label, t) in &entries {
        let rows = metrics::explained_union_with(db, spec, &[t], s.engine());
        fig.rows.push(FigureRow::sparse(
            (*label).to_string(),
            vec![Some(rows.len() as f64 / denominator), paper_of(label)],
        ));
        all.extend(rows);
    }
    fig.rows.push(FigureRow::sparse(
        "All w/Dr.".to_string(),
        vec![Some(all.len() as f64 / denominator), paper_of("All w/Dr.")],
    ));

    // The consult-order templates (data set B), which the paper added
    // after finding consult services unexplained.
    let consult = metrics::explained_union_with(
        db,
        spec,
        &s.handcrafted.consult().into_iter().collect::<Vec<_>>(),
        s.engine(),
    );
    let mut with_consult = all;
    with_consult.extend(consult);
    fig.rows.push(FigureRow::sparse(
        "All + consults".to_string(),
        vec![Some(with_consult.len() as f64 / denominator), None],
    ));
    fig
}

/// Figure 7: hand-crafted template recall over **all** accesses. Paper:
/// repeats still explain a majority; the w/Dr. templates alone reach ~90%
/// combined.
pub fn fig07(s: &Scenario) -> FigureResult {
    let mut fig = handcrafted_figure(
        s,
        &s.spec,
        "Figure 7",
        "Hand-crafted explanations' recall (all accesses)",
        true,
        &[
            ("Appt w/Dr.", 0.27),
            ("Visit w/Dr.", 0.02),
            ("Doc. w/Dr.", 0.25),
            ("Repeat Access", 0.62),
            ("All w/Dr.", 0.90),
        ],
    );
    fig.note(
        "events reference only the primary doctor, so recall is below Figure 6's event frequency"
            .to_string(),
    );
    fig
}

/// Figure 9: the same over **first** accesses only. Paper: the basic
/// templates explain only ~11% of first accesses even though ~75% of those
/// patients have an event — the gap the collaborative groups close.
pub fn fig09(s: &Scenario) -> FigureResult {
    let spec = s.spec.with_filters(split::first_only(&s.hospital.log_cols));
    let mut fig = handcrafted_figure(
        s,
        &spec,
        "Figure 9",
        "Hand-crafted explanations' recall (first accesses)",
        false,
        &[
            ("Appt w/Dr.", 0.06),
            ("Visit w/Dr.", 0.01),
            ("Doc. w/Dr.", 0.05),
            ("All w/Dr.", 0.11),
        ],
    );
    fig.note(
        "the gap to Figure 8's ~75% event coverage motivates §4's missing-data inference"
            .to_string(),
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig_events;
    use eba_synth::SynthConfig;

    fn scenario() -> Scenario {
        Scenario::build(SynthConfig::tiny())
    }

    #[test]
    fn fig07_all_is_union_and_repeat_dominates() {
        let s = scenario();
        let fig = fig07(&s);
        let all = fig.value("All w/Dr.", 0).unwrap();
        for label in ["Appt w/Dr.", "Visit w/Dr.", "Doc. w/Dr.", "Repeat Access"] {
            assert!(fig.value(label, 0).unwrap() <= all + 1e-9);
        }
        // Repeats are the largest single category, as in the paper.
        let repeat = fig.value("Repeat Access", 0).unwrap();
        assert!(repeat >= fig.value("Appt w/Dr.", 0).unwrap());
        assert!(repeat >= fig.value("Doc. w/Dr.", 0).unwrap());
    }

    #[test]
    fn fig09_first_access_recall_is_far_below_event_coverage() {
        let s = scenario();
        let coverage = fig_events::fig08(&s).value("All", 0).unwrap();
        let recall = fig09(&s).value("All w/Dr.", 0).unwrap();
        assert!(
            recall < coverage * 0.75,
            "w/Dr. recall {recall} should sit well below event coverage {coverage}"
        );
    }

    #[test]
    fn handcrafted_recall_never_exceeds_event_frequency() {
        // An access explained by "appointment with the accessing doctor"
        // implies the patient has an appointment.
        let s = scenario();
        let f6 = fig_events::fig06(&s);
        let f7 = fig07(&s);
        assert!(f7.value("Appt w/Dr.", 0).unwrap() <= f6.value("Appt", 0).unwrap() + 1e-9);
        assert!(f7.value("Visit w/Dr.", 0).unwrap() <= f6.value("Visit", 0).unwrap() + 1e-9);
    }

    #[test]
    fn consults_extend_coverage() {
        let s = scenario();
        let fig = fig07(&s);
        assert!(fig.value("All + consults", 0).unwrap() >= fig.value("All w/Dr.", 0).unwrap());
    }
}
