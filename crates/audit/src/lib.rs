//! # eba-audit
//!
//! The auditing application layer of *Explanation-Based Auditing*:
//!
//! * [`handcrafted`] — the paper's hand-crafted explanation templates
//!   (§5.3.1) against the CareWeb-shaped schema: appointment / visit /
//!   document with the accessing doctor, the decorated repeat-access
//!   template, consult-order templates, department-code and
//!   collaborative-group variants, and the "patient had *some* event"
//!   predicates used to measure Figures 6 and 8;
//! * [`groups`] — building collaborative groups from the log (§4) and
//!   installing the `Groups(Group_Depth, Group_id, User)` table plus its
//!   join metadata;
//! * [`fake`] — the fake-log methodology of §5.3.2 (uniformly random
//!   user–patient accesses appended to the log) used to measure precision;
//! * [`metrics`] — precision / recall / normalized recall;
//! * [`explain`] — the [`explain::Explainer`]: rank a log record's
//!   explanation instances by path length, find unexplained accesses;
//! * [`portal`] — user-centric auditing reports (the patient portal of the
//!   paper's introduction) and the compliance-office misuse triage view;
//! * [`investigate`] — near-miss diagnosis of unexplained accesses (how far
//!   did each template's path get, and did it point at a *different* user —
//!   the snooping signature);
//! * [`timeline`] — per-day explained/unexplained trends, with an explicit
//!   overflow bucket for clock-skewed accesses so totals never silently
//!   shrink;
//! * [`split`] — train/test anchor filters over days and first accesses.
//!
//! Every view comes in three forms: a one-off per-query form, a `*_with`
//! form over a warm [`eba_relational::Engine`] beside its database, and
//! an `*_at_shards` form over a pinned [`eba_relational::EpochVec`] from
//! a [`eba_relational::ShardedEngine`] (one shard is the unsharded
//! deployment) — the session form a long-running service uses so its
//! explanations, timeline, and triage queue all describe the same frozen
//! log state while ingests publish new epoch vectors behind it.

pub mod explain;
pub mod fake;
pub mod groups;
pub mod handcrafted;
pub mod investigate;
pub mod metrics;
pub mod portal;
pub mod split;
pub mod timeline;

pub use explain::{Explainer, RankedExplanation};
pub use fake::FakeLog;
pub use groups::{collaborative_groups, install_groups, GroupsModel};
pub use handcrafted::HandcraftedTemplates;
pub use metrics::Confusion;
pub use timeline::{DayBuckets, DayStats, Timeline};
