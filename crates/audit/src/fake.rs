//! The fake-log evaluation methodology (§5.3.2).
//!
//! "We constructed a fake log that contains the same number of accesses as
//! the real log. We generated each access in the fake log by selecting a
//! user and a patient uniformly at random from the set of users and
//! patients in the database. (Because the user-patient density in the log
//! is so low, it is unlikely that we will generate many fake accesses that
//! 'look' real.) We then combined the real and fake logs, and evaluated
//! the explanation templates on the combined log."

use eba_relational::{Database, RowId, Value};
use eba_synth::LogColumns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Marker for the injected fake rows (a contiguous tail of the log table).
#[derive(Debug, Clone, Copy)]
pub struct FakeLog {
    /// Row id of the first fake row.
    pub first_row: RowId,
    /// Number of fake rows.
    pub count: usize,
}

impl FakeLog {
    /// Appends `count` uniformly random accesses to the log.
    ///
    /// Fake rows carry fresh `Lid`s, a random timestamp in `days`, and an
    /// `IsFirst` flag computed among the fakes themselves (real rows keep
    /// their original flags; with the paper's low density, collisions
    /// between fake and real pairs are negligible).
    #[allow(clippy::too_many_arguments)] // mirrors the methodology's knobs
    pub fn inject(
        db: &mut Database,
        log: eba_relational::TableId,
        cols: &LogColumns,
        user_pool: &[Value],
        patient_pool: &[Value],
        count: usize,
        days: u32,
        seed: u64,
    ) -> FakeLog {
        let first_lid = Self::next_lid(db, log, cols);
        Self::inject_at(
            db,
            log,
            user_pool,
            patient_pool,
            count,
            days,
            seed,
            first_lid,
        )
    }

    /// The `Lid` [`FakeLog::inject`] gives its first row: one past the
    /// largest in the log. This scans the whole log, so a writer that
    /// appends batch after batch computes it once and then calls
    /// [`FakeLog::inject_at`], advancing the lid by each batch's `count`.
    pub fn next_lid(db: &Database, log: eba_relational::TableId, cols: &LogColumns) -> i64 {
        1 + db
            .table(log)
            .iter()
            .map(|(_, row)| match row[cols.lid] {
                Value::Int(i) => i,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// [`FakeLog::inject`] with the first `Lid` given as `next_lid`
    /// (`O(count)`: no scan of the log).
    #[allow(clippy::too_many_arguments)] // mirrors `inject`
    pub fn inject_at(
        db: &mut Database,
        log: eba_relational::TableId,
        user_pool: &[Value],
        patient_pool: &[Value],
        count: usize,
        days: u32,
        seed: u64,
        next_lid: i64,
    ) -> FakeLog {
        assert!(!user_pool.is_empty() && !patient_pool.is_empty());
        let mut rng = StdRng::seed_from_u64(seed);
        let first_row = db.table(log).len() as RowId;
        let action = db.str_value("view");
        let mut seen: HashSet<(Value, Value)> = HashSet::with_capacity(count);
        for i in 0..count {
            let user = user_pool[rng.gen_range(0..user_pool.len())];
            let patient = patient_pool[rng.gen_range(0..patient_pool.len())];
            let day = rng.gen_range(1..=days.max(1));
            let minute = rng.gen_range(0..24 * 60);
            let is_first = seen.insert((user, patient));
            let ts = i64::from(day) * 24 * 60 + i64::from(minute);
            db.insert(
                log,
                vec![
                    Value::Int(next_lid + i as i64),
                    Value::Date(ts),
                    user,
                    patient,
                    action,
                    Value::Int(i64::from(day)),
                    Value::Int(i64::from(is_first)),
                ],
            )
            .expect("fake row matches the log schema");
        }
        FakeLog { first_row, count }
    }

    /// Whether a row id denotes an injected fake access.
    pub fn is_fake(&self, row: RowId) -> bool {
        row >= self.first_row && (row as usize) < self.first_row as usize + self.count
    }

    /// The injected row ids, ascending.
    pub fn rows(&self) -> std::ops::Range<RowId> {
        self.first_row..self.first_row + self.count as RowId
    }
}

/// The distinct users of the database (from the `Users` table), for the
/// uniform sampling pool.
pub fn user_pool(db: &Database) -> Vec<Value> {
    let t = db.table_id("Users").expect("Users table exists");
    let table = db.table(t);
    let col = table.schema().col("User").expect("Users.User exists");
    let mut v: Vec<Value> = table.iter().map(|(_, row)| row[col]).collect();
    v.sort_unstable_by_key(|v| match v {
        Value::Int(i) => *i,
        _ => i64::MAX,
    });
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use eba_core::LogSpec;
    use eba_synth::{Hospital, SynthConfig};

    fn setup() -> (Hospital, LogSpec) {
        let h = Hospital::generate(SynthConfig::tiny());
        let spec = LogSpec::conventional(&h.db).unwrap();
        (h, spec)
    }

    #[test]
    fn injection_appends_marked_rows() {
        let (mut h, _) = setup();
        let before = h.log_len();
        let users = user_pool(&h.db);
        let patients: Vec<Value> = (0..h.world.n_patients())
            .map(|p| h.patient_value(p))
            .collect();
        let fake = FakeLog::inject(
            &mut h.db,
            h.t_log,
            &h.log_cols,
            &users,
            &patients,
            before,
            h.config.days,
            7,
        );
        assert_eq!(h.log_len(), 2 * before);
        assert_eq!(fake.count, before);
        assert!(!fake.is_fake(0));
        assert!(fake.is_fake(before as RowId));
        assert!(fake.is_fake((2 * before - 1) as RowId));
        assert!(!fake.is_fake((2 * before) as RowId));
    }

    #[test]
    fn fake_lids_are_unique() {
        let (mut h, _) = setup();
        let users = user_pool(&h.db);
        let patients: Vec<Value> = (0..h.world.n_patients())
            .map(|p| h.patient_value(p))
            .collect();
        FakeLog::inject(
            &mut h.db,
            h.t_log,
            &h.log_cols,
            &users,
            &patients,
            500,
            h.config.days,
            7,
        );
        let log = h.db.table(h.t_log);
        let mut lids = HashSet::new();
        for (_, row) in log.iter() {
            assert!(lids.insert(row[h.log_cols.lid]), "duplicate lid");
        }
    }

    #[test]
    fn fakes_rarely_look_real() {
        // The paper's density argument: uniform fake pairs rarely coincide
        // with real pairs.
        let (mut h, _) = setup();
        let real_pairs: HashSet<(Value, Value)> =
            h.db.table(h.t_log)
                .iter()
                .map(|(_, row)| (row[h.log_cols.user], row[h.log_cols.patient]))
                .collect();
        let users = user_pool(&h.db);
        let patients: Vec<Value> = (0..h.world.n_patients())
            .map(|p| h.patient_value(p))
            .collect();
        let n = 1000;
        let fake = FakeLog::inject(
            &mut h.db,
            h.t_log,
            &h.log_cols,
            &users,
            &patients,
            n,
            h.config.days,
            7,
        );
        let log = h.db.table(h.t_log);
        let collisions = (fake.first_row..fake.first_row + n as RowId)
            .filter(|&rid| {
                let row = log.row(rid);
                real_pairs.contains(&(row[h.log_cols.user], row[h.log_cols.patient]))
            })
            .count();
        // Tiny world: density is higher than CareWeb's 3e-4, but still a
        // small minority.
        assert!(
            (collisions as f64) < 0.25 * n as f64,
            "{collisions}/{n} fake accesses look real"
        );
    }

    #[test]
    fn user_pool_is_distinct() {
        let (h, _) = setup();
        let pool = user_pool(&h.db);
        assert_eq!(pool.len(), h.world.n_users());
    }
}
