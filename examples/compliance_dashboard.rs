//! The compliance office's view: daily explanation trends, a triage queue
//! of suspicious users, and per-access investigation of near-misses —
//! recomputed live as the log ingests.
//!
//! The paper's pitch to compliance officers is that explanations "reduce
//! the set of accesses that must be examined to those that are
//! unexplained". This example shows the day-to-day artifacts built on
//! that: a timeline, a triage queue, and a near-miss diagnosis that
//! separates "no data at all" (float staff, truncated records) from "the
//! data points at a *different* user" (the snooping signature).
//!
//! The office runs *while* the hospital works, so the whole dashboard
//! sits on a one-shard [`ShardedEngine`]: every view below is computed
//! against one pinned epoch vector (a frozen database + warm engine), and
//! each overnight batch is published with `session.ingest(..)` — the
//! refresh-on-ingest loop at the end never blocks a dashboard that is
//! mid-recomputation.
//! Clock-skewed accesses (a workstation stamping day 0) land in the
//! timeline's explicit overflow bucket instead of silently inflating the
//! compliance rate.
//!
//! Run with: `cargo run --release --example compliance_dashboard`

use eba::audit::fake::FakeLog;
use eba::audit::groups::{collaborative_groups, install_groups};
use eba::audit::handcrafted::{same_group, EventTable, HandcraftedTemplates};
use eba::audit::investigate::{diagnose, looks_like_snooping};
use eba::audit::portal::misuse_summary_at_shards;
use eba::audit::timeline::{daily_stats_at_shards, Timeline};
use eba::audit::{split, Explainer};
use eba::cluster::HierarchyConfig;
use eba::core::LogSpec;
use eba::relational::{ShardKey, ShardedEngine, Value};
use eba::synth::{Hospital, SynthConfig};

fn print_timeline(timeline: &Timeline) {
    println!(
        "{:>4} {:>8} {:>10} {:>8}   {:>6} {:>9}",
        "day", "accesses", "explained", "rate", "firsts", "explained"
    );
    for s in &timeline.days {
        println!(
            "{:>4} {:>8} {:>10} {:>7.1}%   {:>6} {:>9}",
            s.day,
            s.total,
            s.explained,
            100.0 * s.explained_rate(),
            s.first_accesses,
            s.first_explained
        );
    }
    if timeline.dropped() > 0 {
        println!(
            "  !! {} accesses outside the reporting window (clock skew?) — {} explained",
            timeline.dropped(),
            timeline.overflow.explained
        );
    }
}

fn main() {
    let config = SynthConfig {
        n_snoop_accesses: 40,
        ..SynthConfig::small()
    };
    let mut hospital = Hospital::generate(config);
    let spec = LogSpec::conventional(&hospital.db).expect("Log table");
    let train = spec.with_filters(split::day_range(&hospital.log_cols, 1, 6));
    let groups = collaborative_groups(&hospital.db, &train, HierarchyConfig::default(), 500)
        .expect("Users table");
    install_groups(&mut hospital.db, &groups).expect("installs");

    let handcrafted = HandcraftedTemplates::build(&hospital.db, &spec).expect("schema");
    let mut templates: Vec<_> = handcrafted.all().into_iter().cloned().collect();
    for e in EventTable::ALL {
        templates.push(same_group(&hospital.db, &spec, e, Some(1)).expect("Groups installed"));
    }
    let explainer = Explainer::new(templates);

    // The long-running office session: the database moves into a
    // snapshot-handoff cell (one shard: the unsharded deployment); every
    // view below pins one epoch vector, the ingest loop at the end
    // publishes new ones.
    let key = ShardKey {
        table: spec.table,
        col: spec.patient_col,
    };
    let session = ShardedEngine::new(hospital.db.clone(), key, 1);
    let epochs = session.load();
    let epoch = &epochs.shards()[0];

    // ---- 1. the timeline -----------------------------------------------
    println!("== Daily explanation timeline (epoch {}) ==", epochs.seq());
    let timeline = daily_stats_at_shards(
        &spec,
        &hospital.log_cols,
        &explainer,
        hospital.config.days,
        &epochs,
    );
    print_timeline(&timeline);

    // ---- 2. the triage queue -------------------------------------------
    println!("\n== Triage queue (top unexplained users) ==");
    let queue = misuse_summary_at_shards(&spec, &explainer, &epochs);
    for s in queue.iter().take(5) {
        println!(
            "user {:<6} {:>4} unexplained accesses across {:>4} patients",
            s.user.display(epoch.db().pool()).to_string(),
            s.unexplained,
            s.distinct_patients
        );
    }

    // ---- 3. investigation: classify the unexplained ---------------------
    println!("\n== Investigation of unexplained accesses ==");
    let unexplained = explainer.unexplained_rows_at_shards(&spec, &epochs);
    let mut snoop_like = 0usize;
    let mut data_gap = 0usize;
    for &rid in &unexplained {
        let d = diagnose(epoch.db(), &spec, &explainer, rid).expect("valid templates");
        if looks_like_snooping(&d) {
            snoop_like += 1;
        } else {
            data_gap += 1;
        }
    }
    println!(
        "{} unexplained accesses: {} look like snooping (data points at another user), {} are data gaps",
        unexplained.len(),
        snoop_like,
        data_gap
    );

    // Show one concrete investigation, from the same frozen epoch.
    if let Some(&rid) = unexplained.iter().find(|&&rid| {
        let d = diagnose(epoch.db(), &spec, &explainer, rid).expect("valid");
        looks_like_snooping(&d)
    }) {
        let row = epoch.db().table(hospital.t_log).row(rid);
        println!(
            "\nexample: user {} accessed patient {}'s record — closest template verdicts:",
            row[hospital.log_cols.user].display(epoch.db().pool()),
            row[hospital.log_cols.patient].display(epoch.db().pool()),
        );
        for d in diagnose(epoch.db(), &spec, &explainer, rid)
            .expect("valid")
            .iter()
            .take(3)
        {
            println!("  - {}", d.summary());
        }
    }

    // ---- 4. the refresh-on-ingest loop ----------------------------------
    // Two overnight batches arrive while the views above could still be
    // rendering: each ingest publishes a new epoch; the dashboard simply
    // re-pins and recomputes. The second batch includes a workstation
    // with a skewed clock — its accesses surface in the overflow bucket
    // instead of disappearing.
    println!("\n== Overnight ingest: the dashboard follows the log ==");
    let users = eba::audit::fake::user_pool(&hospital.db);
    let patients: Vec<Value> = (0..hospital.world.n_patients())
        .map(|p| hospital.patient_value(p))
        .collect();
    for round in 0..2u64 {
        let skewed = if round == 1 { 7 } else { 0 };
        let (_, report) = session.ingest(|batch| {
            let lid = FakeLog::next_lid(batch.db(0), hospital.t_log, &hospital.log_cols);
            let days = hospital.config.days;
            FakeLog::stage(batch, &users, &patients, 150, days, 0xD45_u64 + round, lid);
            // The skewed workstation: same accesses, impossible day stamp.
            let arity = batch.db(0).table(hospital.t_log).schema().arity();
            for i in 0..skewed {
                let mut row = vec![Value::Null; arity];
                row[hospital.log_cols.lid] = Value::Int(900_000 + i);
                row[hospital.log_cols.date] = Value::Date(0);
                row[hospital.log_cols.user] = users[i as usize % users.len()];
                row[hospital.log_cols.patient] = patients[i as usize % patients.len()];
                row[hospital.log_cols.day] = Value::Int(0);
                row[hospital.log_cols.is_first] = Value::Int(0);
                batch.insert_log(row).unwrap();
            }
        });
        // A refused incremental refresh (rebuild fallback) is an
        // operational event the office must hear about, not a flag to
        // silently absorb.
        for warning in report.fallback_warnings() {
            eprintln!("!! {warning}");
        }
        let epochs = session.load();
        let timeline = daily_stats_at_shards(
            &spec,
            &hospital.log_cols,
            &explainer,
            hospital.config.days,
            &epochs,
        );
        println!(
            "\nepoch {}: +{} rows ingested ({} step maps kept warm across the handoff)",
            report.seq,
            report.new_rows(),
            epochs.shards()[0].engine().cached_step_maps(),
        );
        print_timeline(&timeline);
    }
}
