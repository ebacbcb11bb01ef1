//! The shared experimental setup: one synthetic hospital with
//! collaborative groups installed, mirroring §5's environment.

use eba_audit::groups::{collaborative_groups, install_groups, GroupsModel};
use eba_audit::handcrafted::HandcraftedTemplates;
use eba_audit::split;
use eba_cluster::HierarchyConfig;
use eba_core::LogSpec;
use eba_relational::{Database, Engine};
use eba_synth::{Hospital, SynthConfig};

/// A hospital ready for experiments: groups trained on days 1–6 and
/// installed, hand-crafted templates built, and one warm [`Engine`] that
/// serves every figure reading the unmodified database.
#[derive(Debug)]
pub struct Scenario {
    /// The hospital (database already contains the `Groups` table).
    pub hospital: Hospital,
    /// Unfiltered log spec.
    pub spec: LogSpec,
    /// The collaborative-group model (trained on days 1–6, as Figure 12).
    pub groups: GroupsModel,
    /// The hand-crafted template suite.
    pub handcrafted: HandcraftedTemplates,
    /// A copy of `hospital.db` (Groups included) — the scenario pays one
    /// extra database copy so the `db`/`engine` pair is structurally
    /// consistent no matter what later happens to `hospital.db`. Figures
    /// that pair a database with [`Scenario::engine`] read
    /// [`Scenario::db`]; figures that clone and mutate the database build
    /// their own engine over the combined copy instead.
    db: Database,
    /// The warm engine over `db`.
    engine: Engine,
}

impl Scenario {
    /// Builds a scenario from a generator config.
    pub fn build(config: SynthConfig) -> Scenario {
        let mut hospital = Hospital::generate(config);
        let spec = LogSpec::conventional(&hospital.db).expect("synth produces a Log table");
        let train = spec.with_filters(split::day_range(&hospital.log_cols, 1, 6));
        let groups = collaborative_groups(&hospital.db, &train, HierarchyConfig::default(), 500)
            .expect("Users table exists");
        install_groups(&mut hospital.db, &groups).expect("Groups table installs");
        let handcrafted =
            HandcraftedTemplates::build(&hospital.db, &spec).expect("CareWeb-shaped schema");
        let db = hospital.db.clone();
        let engine = Engine::new(&db);
        Scenario {
            hospital,
            spec,
            groups,
            handcrafted,
            db,
            engine,
        }
    }

    /// The warm engine over [`Scenario::db`] (same data as `hospital.db`).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The database every read-only figure shares with
    /// [`Scenario::engine`].
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// A small scenario for tests.
    pub fn small() -> Scenario {
        Scenario::build(SynthConfig::small())
    }

    /// Spec filtered to day-7 first accesses (the test split).
    pub fn test_spec(&self) -> LogSpec {
        self.spec
            .with_filters(split::days_first(&self.hospital.log_cols, 7, 7))
    }

    /// Spec filtered to days 1–6 first accesses (the mining split).
    pub fn train_spec(&self) -> LogSpec {
        self.spec
            .with_filters(split::days_first(&self.hospital.log_cols, 1, 6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_with_groups() {
        let s = Scenario::build(SynthConfig::tiny());
        assert!(s.hospital.db.table_id("Groups").is_ok());
        assert!(s.groups.hierarchy.depth_count() >= 2);
        assert!(s.train_spec().anchor_lid_count(&s.hospital.db) > 0);
        assert!(s.test_spec().anchor_lid_count(&s.hospital.db) > 0);
    }

    #[test]
    fn scenario_engine_sees_the_groups_table() {
        let s = Scenario::build(SynthConfig::tiny());
        // The shared engine was built after install_groups, so group
        // templates evaluate through it identically to the cold path.
        let grouped = eba_audit::handcrafted::same_group(
            &s.hospital.db,
            &s.spec,
            eba_audit::handcrafted::EventTable::Appointments,
            Some(1),
        )
        .unwrap();
        assert_eq!(
            grouped
                .explained_rows_with(s.db(), &s.spec, s.engine())
                .unwrap(),
            grouped.explained_rows(&s.hospital.db, &s.spec).unwrap()
        );
    }
}
