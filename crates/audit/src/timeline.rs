//! Per-day compliance timeline.
//!
//! The compliance-office view of the paper's misuse-detection application:
//! how much of each day's traffic is explained, and how the unexplained
//! residue trends. A day whose unexplained share spikes is where an
//! investigation starts.

use crate::explain::Explainer;
use crate::split;
use eba_core::LogSpec;
use eba_relational::{Database, Engine, EpochVec, RowSet};
use eba_synth::LogColumns;

/// One day's explanation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayStats {
    /// 1-based day — or [`DayStats::OVERFLOW_DAY`] for the bucket of
    /// accesses whose timestamp fell outside the reporting window.
    pub day: u32,
    /// Accesses that day (within the spec's other filters).
    pub total: usize,
    /// Accesses explained by at least one template.
    pub explained: usize,
    /// First accesses that day.
    pub first_accesses: usize,
    /// First accesses explained.
    pub first_explained: usize,
}

impl DayStats {
    /// The `day` value of the out-of-window bucket ([`Timeline::overflow`]).
    pub const OVERFLOW_DAY: u32 = 0;

    /// Fraction of the day's accesses explained (1.0 for an empty day).
    pub fn explained_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.explained as f64 / self.total as f64
        }
    }

    fn empty(day: u32) -> DayStats {
        DayStats {
            day,
            total: 0,
            explained: 0,
            first_accesses: 0,
            first_explained: 0,
        }
    }
}

/// The per-day compliance view: one [`DayStats`] per day of the window,
/// plus an explicit bucket for everything *outside* it.
///
/// Real access logs carry clock skew — a misconfigured workstation stamps
/// day 0 or day 400. Silently dropping those rows (what this module did
/// before the overflow bucket existed) over-reports compliance: the
/// dashboard's totals miss exactly the accesses most worth a look.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Days `1..=days`, in order.
    pub days: Vec<DayStats>,
    /// Accesses whose `Day` was outside `1..=days` (or not an integer —
    /// a NULL day counts as skew, not as silence). `day` is
    /// [`DayStats::OVERFLOW_DAY`].
    pub overflow: DayStats,
}

impl Timeline {
    /// Accesses excluded from the per-day rows (the overflow bucket's
    /// total) — zero on a well-formed log.
    pub fn dropped(&self) -> usize {
        self.overflow.total
    }

    /// Total accesses across the window *and* the overflow bucket.
    pub fn total(&self) -> usize {
        self.days.iter().map(|s| s.total).sum::<usize>() + self.overflow.total
    }
}

/// Computes per-day statistics for days `1..=days` under `explainer`.
pub fn daily_stats(
    db: &Database,
    spec: &LogSpec,
    cols: &LogColumns,
    explainer: &Explainer,
    days: u32,
) -> Timeline {
    // One evaluation over the whole log, then bucket by day.
    let explained: RowSet = explainer.explained_rows(db, spec).into_iter().collect();
    DayBuckets::build(db, spec, cols, days).timeline(&explained)
}

/// [`daily_stats`] through a shared [`Engine`]: the compliance dashboard
/// recomputes this view repeatedly as the log grows, so the suite is
/// evaluated as one fused batch against the warm (refreshable) engine
/// and the day buckets intersect the compressed
/// [`eba_relational::RowSet`] directly — no intermediate hash set.
pub fn daily_stats_with(
    db: &Database,
    spec: &LogSpec,
    cols: &LogColumns,
    explainer: &Explainer,
    days: u32,
    engine: &Engine,
) -> Timeline {
    let explained = explainer.explained_rowset_with(db, spec, engine);
    DayBuckets::build(db, spec, cols, days).timeline(&explained)
}

/// [`daily_stats`] against a pinned **epoch vector**: the dashboard
/// session's view, consistent with every other question asked of the
/// same vector while the log keeps ingesting behind it. Each shard
/// buckets its own slice of the log in parallel and the day buckets sum — every
/// [`DayStats`] field is a count over disjoint row sets, so the merge is
/// exact, overflow bucket included.
pub fn daily_stats_at_shards(
    spec: &LogSpec,
    cols: &LogColumns,
    explainer: &Explainer,
    days: u32,
    shards: &EpochVec,
) -> Timeline {
    let per_shard = shards.par_map_shards(|_, shard| {
        daily_stats_with(shard.db(), spec, cols, explainer, days, shard.engine())
    });
    let mut merged = Timeline {
        days: (1..=days).map(DayStats::empty).collect(),
        overflow: DayStats::empty(DayStats::OVERFLOW_DAY),
    };
    for t in per_shard {
        for (m, s) in merged.days.iter_mut().zip(&t.days) {
            m.add(s);
        }
        merged.overflow.add(&t.overflow);
    }
    merged
}

impl DayStats {
    fn add(&mut self, other: &DayStats) {
        debug_assert_eq!(self.day, other.day);
        self.total += other.total;
        self.explained += other.explained;
        self.first_accesses += other.first_accesses;
        self.first_explained += other.first_explained;
    }
}

/// The anchored log bucketed by day as compressed row sets: one
/// [`RowSet`] of accesses per in-window day plus the overflow bucket,
/// with the first-access rows kept as a parallel set per bucket.
///
/// Built with one scan of the log; every [`Timeline`] derived from it
/// afterwards is pure set algebra — `total`/`first_accesses` are set
/// cardinalities and `explained`/`first_explained` are intersection
/// counts via [`RowSet::intersect_len`], which walks the compressed
/// containers without materializing the intersection. A dashboard that
/// re-renders the timeline as the explained set evolves rebuilds only
/// the counts, never the buckets.
#[derive(Debug, Clone)]
pub struct DayBuckets {
    days: Vec<DayBucket>,
    overflow: DayBucket,
}

#[derive(Debug, Clone)]
struct DayBucket {
    day: u32,
    all: RowSet,
    firsts: RowSet,
}

impl DayBucket {
    fn empty(day: u32) -> DayBucket {
        DayBucket {
            day,
            all: RowSet::new(),
            firsts: RowSet::new(),
        }
    }

    fn stats(&self, explained: &RowSet) -> DayStats {
        DayStats {
            day: self.day,
            total: self.all.len(),
            explained: self.all.intersect_len(explained),
            first_accesses: self.firsts.len(),
            first_explained: self.firsts.intersect_len(explained),
        }
    }
}

impl DayBuckets {
    /// Buckets the log by day: one scan, anchor filters applied row by
    /// row. In-window accesses land in their day's bucket; clock-skewed
    /// or day-less ones land in the overflow bucket instead of
    /// vanishing.
    pub fn build(db: &Database, spec: &LogSpec, cols: &LogColumns, days: u32) -> DayBuckets {
        let log = db.table(spec.table);
        let mut buckets = DayBuckets {
            days: (1..=days).map(DayBucket::empty).collect(),
            overflow: DayBucket::empty(DayStats::OVERFLOW_DAY),
        };
        for (rid, row) in log.iter() {
            if !spec
                .anchor_filters
                .iter()
                .all(|(col, op, v)| op.eval(&row[*col], v))
            {
                continue;
            }
            let b = match row[cols.day] {
                eba_relational::Value::Int(day) if (1..=days as i64).contains(&day) => {
                    &mut buckets.days[(day - 1) as usize]
                }
                _ => &mut buckets.overflow,
            };
            b.all.insert(rid);
            if row[cols.is_first] == eba_relational::Value::Int(1) {
                b.firsts.insert(rid);
            }
        }
        buckets
    }

    /// Derives the per-day timeline against an explained set — counts
    /// only, no per-row probing and no allocation.
    pub fn timeline(&self, explained: &RowSet) -> Timeline {
        Timeline {
            days: self.days.iter().map(|b| b.stats(explained)).collect(),
            overflow: self.overflow.stats(explained),
        }
    }
}

/// Convenience: per-day stats over the full log (no extra filters).
pub fn full_timeline(
    db: &Database,
    spec: &LogSpec,
    cols: &LogColumns,
    explainer: &Explainer,
    days: u32,
) -> Timeline {
    let _ = split::day_range(cols, 1, days); // shape documentation only
    daily_stats(db, spec, cols, explainer, days)
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
    fn daily_totals_sum_to_log_size() {
        let (h, spec, explainer) = setup();
        let timeline = daily_stats(&h.db, &spec, &h.log_cols, &explainer, h.config.days);
        assert_eq!(timeline.days.len(), h.config.days as usize);
        // A well-formed synthetic log has no clock skew.
        assert_eq!(timeline.dropped(), 0);
        assert_eq!(timeline.total(), h.log_len());
        for s in &timeline.days {
            assert!(s.explained <= s.total);
            assert!(s.first_explained <= s.first_accesses);
            assert!(s.first_accesses <= s.total);
            assert!((0.0..=1.0).contains(&s.explained_rate()));
        }
    }

    #[test]
    fn clock_skewed_accesses_land_in_the_overflow_bucket() {
        let (mut h, spec, explainer) = setup();
        let before = daily_stats(&h.db, &spec, &h.log_cols, &explainer, h.config.days);
        // Three skewed accesses: day 0, day beyond the window, and a NULL
        // day — none may vanish from the totals.
        let arity = h.db.table(h.t_log).schema().arity();
        for day in [
            eba_relational::Value::Int(0),
            eba_relational::Value::Int(h.config.days as i64 + 30),
            eba_relational::Value::Null,
        ] {
            let mut row = vec![eba_relational::Value::Null; arity];
            row[h.log_cols.lid] = eba_relational::Value::Int(1_000_000);
            row[h.log_cols.date] = eba_relational::Value::Date(0);
            row[h.log_cols.user] = eba_relational::Value::Int(1);
            row[h.log_cols.patient] = eba_relational::Value::Int(1);
            row[h.log_cols.day] = day;
            row[h.log_cols.is_first] = eba_relational::Value::Int(0);
            h.db.insert(h.t_log, row).unwrap();
        }
        let after = daily_stats(&h.db, &spec, &h.log_cols, &explainer, h.config.days);
        assert_eq!(after.dropped(), 3);
        assert_eq!(after.overflow.day, DayStats::OVERFLOW_DAY);
        assert_eq!(after.total(), h.log_len());
        assert_eq!(after.total(), before.total() + 3);
        // The in-window rows are untouched by the skewed appends.
        for (b, a) in before.days.iter().zip(&after.days) {
            assert_eq!(b.total, a.total);
        }
    }

    #[test]
    fn engine_backed_timeline_matches_per_query() {
        let (h, spec, explainer) = setup();
        let engine = eba_relational::Engine::new(&h.db);
        assert_eq!(
            daily_stats_with(
                &h.db,
                &spec,
                &h.log_cols,
                &explainer,
                h.config.days,
                &engine
            ),
            daily_stats(&h.db, &spec, &h.log_cols, &explainer, h.config.days)
        );
    }

    #[test]
    fn clock_skewed_ingest_surfaces_through_the_epoch_pinned_path() {
        // The overflow bucket must be visible through
        // `daily_stats_at_shards` (the session form a live service uses),
        // not just the direct call: skewed rows arrive via
        // `ShardedEngine::ingest`, and the re-pinned vector's timeline
        // carries them in the overflow bucket while the old pin stays
        // byte-stable.
        let (h, spec, explainer) = setup();
        let key = eba_relational::ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        let sharded = eba_relational::ShardedEngine::new(h.db.clone(), key, 1);
        let pinned = sharded.load();
        let before = daily_stats_at_shards(&spec, &h.log_cols, &explainer, h.config.days, &pinned);
        assert_eq!(before.dropped(), 0);

        let arity = h.db.table(h.t_log).schema().arity();
        let cols = h.log_cols;
        let days = h.config.days;
        let (_, report) = sharded.ingest(|batch| {
            for (i, day) in [
                eba_relational::Value::Int(0),
                eba_relational::Value::Int(days as i64 + 30),
                eba_relational::Value::Null,
            ]
            .into_iter()
            .enumerate()
            {
                let mut row = vec![eba_relational::Value::Null; arity];
                row[cols.lid] = eba_relational::Value::Int(2_000_000 + i as i64);
                row[cols.date] = eba_relational::Value::Date(0);
                row[cols.user] = eba_relational::Value::Int(1);
                row[cols.patient] = eba_relational::Value::Int(1);
                row[cols.day] = day;
                row[cols.is_first] = eba_relational::Value::Int(0);
                batch.insert_log(row).unwrap();
            }
        });
        assert!(report.fallback_warnings().is_empty());

        // The old pin is untouched; the new epoch shows the skew.
        assert_eq!(
            daily_stats_at_shards(&spec, &h.log_cols, &explainer, days, &pinned),
            before
        );
        let fresh = sharded.load();
        let after = daily_stats_at_shards(&spec, &h.log_cols, &explainer, days, &fresh);
        assert_eq!(after.dropped(), 3);
        assert_eq!(after.overflow.day, DayStats::OVERFLOW_DAY);
        assert_eq!(after.total(), before.total() + 3);
        for (b, a) in before.days.iter().zip(&after.days) {
            assert_eq!(b.total, a.total, "in-window days untouched");
        }
        // And the epoch-pinned view equals the direct call on the same db.
        assert_eq!(
            after,
            daily_stats(fresh.shards()[0].db(), &spec, &h.log_cols, &explainer, days)
        );
    }

    #[test]
    fn sharded_timeline_matches_unsharded_oracle() {
        let (h, spec, explainer) = setup();
        let key = eba_relational::ShardKey {
            table: spec.table,
            col: spec.patient_col,
        };
        let oracle = daily_stats(&h.db, &spec, &h.log_cols, &explainer, h.config.days);
        for n in [1, 3] {
            let sharded = eba_relational::ShardedEngine::new(h.db.clone(), key, n);
            let shards = sharded.load();
            assert_eq!(
                daily_stats_at_shards(&spec, &h.log_cols, &explainer, h.config.days, &shards),
                oracle,
                "{n} shards"
            );
        }
    }

    #[test]
    fn day_buckets_are_reusable_across_explained_sets() {
        // One bucket build serves any number of explained sets: the
        // empty set zeroes the explained counts, the full log explains
        // everything, and the real suite matches `daily_stats`.
        let (h, spec, explainer) = setup();
        let buckets = DayBuckets::build(&h.db, &spec, &h.log_cols, h.config.days);

        let none = buckets.timeline(&RowSet::new());
        assert_eq!(none.total(), h.log_len());
        for s in none.days.iter().chain([&none.overflow]) {
            assert_eq!(s.explained, 0);
            assert_eq!(s.first_explained, 0);
        }

        let all: RowSet = (0..h.log_len() as u32).collect();
        let everything = buckets.timeline(&all);
        for s in everything.days.iter().chain([&everything.overflow]) {
            assert_eq!(s.explained, s.total);
            assert_eq!(s.first_explained, s.first_accesses);
        }

        let explained: RowSet = explainer.explained_rows(&h.db, &spec).into_iter().collect();
        assert_eq!(
            buckets.timeline(&explained),
            daily_stats(&h.db, &spec, &h.log_cols, &explainer, h.config.days)
        );
    }

    #[test]
    fn first_accesses_sum_to_distinct_pairs() {
        let (h, spec, explainer) = setup();
        let stats = daily_stats(&h.db, &spec, &h.log_cols, &explainer, h.config.days).days;
        let firsts: usize = stats.iter().map(|s| s.first_accesses).sum();
        let mut pairs = std::collections::HashSet::new();
        for (_, row) in h.db.table(h.t_log).iter() {
            pairs.insert((row[h.log_cols.user], row[h.log_cols.patient]));
        }
        assert_eq!(firsts, pairs.len());
    }

    #[test]
    fn day_filters_compose() {
        let (h, spec, explainer) = setup();
        // Restricting the spec to day 3 zeroes all other days.
        let day3 = spec.with_filters(split::day_range(&h.log_cols, 3, 3));
        let stats = daily_stats(&h.db, &day3, &h.log_cols, &explainer, h.config.days).days;
        for s in &stats {
            if s.day != 3 {
                assert_eq!(s.total, 0);
                assert_eq!(s.explained_rate(), 1.0, "empty day rate defaults to 1");
            } else {
                assert!(s.total > 0);
            }
        }
    }

    #[test]
    fn explained_rate_is_reasonably_stable_across_days() {
        let (h, spec, explainer) = setup();
        let stats = full_timeline(&h.db, &spec, &h.log_cols, &explainer, h.config.days).days;
        let rates: Vec<f64> = stats
            .iter()
            .filter(|s| s.total > 20)
            .map(|s| s.explained_rate())
            .collect();
        assert!(rates.len() >= 3);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min < 0.45,
            "explained rate varies wildly across days: {min:.2}..{max:.2}"
        );
    }
}
