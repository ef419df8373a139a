//! The noise-filter pipeline of §4.
//!
//! Before training, the paper removes data that carries no update signal:
//!
//! 1. changes directly reverted by Wikipedia bots (0.008 % of the raw
//!    corpus),
//! 2. same-day churn: all changes of one field on one day collapse into a
//!    single *representative* change — the mode of the day's values,
//!    most-recent value on ties (19.185 % of the raw corpus),
//! 3. creations and deletions, which the predictors do not model
//!    (61.373 %),
//! 4. changes of fields with fewer than five remaining changes
//!    (10.241 %),
//!
//! leaving 9.2 % of the raw changes. [`FilterPipeline::apply`] reproduces
//! the pipeline and reports per-stage removal counts so the `dataset_stats`
//! experiment can print them next to the paper's numbers.

use wikistale_wikicube::{Change, ChangeCube, ChangeKind, FieldId, FxHashMap};

/// Which filter stages to run. [`FilterPipeline::paper`] enables all four.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterPipeline {
    /// Drop changes flagged as bot-reverted.
    pub drop_bot_reverted: bool,
    /// Collapse each field's same-day changes into a representative.
    pub dedup_days: bool,
    /// Drop creations and deletions.
    pub drop_creations_deletions: bool,
    /// Drop fields with fewer than this many changes (`None` disables; the
    /// paper uses `Some(5)`).
    pub min_changes: Option<usize>,
}

impl FilterPipeline {
    /// The full pipeline of §4.
    pub fn paper() -> FilterPipeline {
        FilterPipeline {
            drop_bot_reverted: true,
            dedup_days: true,
            drop_creations_deletions: true,
            min_changes: Some(5),
        }
    }

    /// The §4 ablation: everything except the minimum-change filter (the
    /// paper notes the association rules reach similar precision without
    /// it).
    pub fn without_min_changes() -> FilterPipeline {
        FilterPipeline {
            min_changes: None,
            ..FilterPipeline::paper()
        }
    }

    /// Run the enabled stages in paper order, returning the filtered cube
    /// and the per-stage report.
    pub fn apply(&self, cube: &ChangeCube) -> (ChangeCube, FilterReport) {
        let obs = wikistale_obs::MetricsRegistry::global();
        let _span = obs.span("filter");
        let original = cube.num_changes();
        let mut report = FilterReport {
            original,
            stages: Vec::with_capacity(4),
        };
        let mut current = cube.clone();

        if self.drop_bot_reverted {
            let _s = obs.span("bot_reverted");
            let next = current.retain_changes(|c| !c.flags.is_bot_reverted());
            report.push_stage("bot-reverted", &current, &next);
            current = next;
        }
        if self.dedup_days {
            let _s = obs.span("dedup_days");
            let next = current
                .with_changes(dedup_days(current.iter_changes()))
                .expect("dedup preserves referential integrity");
            report.push_stage("same-day duplicates", &current, &next);
            current = next;
        }
        if self.drop_creations_deletions {
            let _s = obs.span("creations_deletions");
            let next = current.retain_changes(|c| c.kind == ChangeKind::Update);
            report.push_stage("creations & deletions", &current, &next);
            current = next;
        }
        if let Some(min) = self.min_changes {
            let _s = obs.span("min_changes");
            let mut counts: FxHashMap<FieldId, usize> = FxHashMap::default();
            for c in current.iter_changes() {
                *counts.entry(c.field()).or_insert(0) += 1;
            }
            let next = current.retain_changes(|c| counts[&c.field()] >= min);
            report.push_stage("fields with < min changes", &current, &next);
            current = next;
        }
        obs.counter("filter/removed")
            .add((original - current.num_changes()) as u64);
        obs.counter("filter/surviving")
            .add(current.num_changes() as u64);
        (current, report)
    }
}

impl Default for FilterPipeline {
    fn default() -> FilterPipeline {
        FilterPipeline::paper()
    }
}

/// Collapse each field's changes of one day into a representative change:
/// the mode of the day's values; ties keep the most recent value.
///
/// [`ChangeCube`] construction already canonicalizes same-day writes to
/// one slot (last value wins), so on cubes built by this workspace each
/// group has size one and the stage removes nothing; it remains as
/// defense in depth for change tables assembled outside the constructor
/// and to keep the report's stage list aligned with the paper's §4.
///
/// The input must be in canonical `(day, entity, property)` order (as
/// [`ChangeCube::iter_changes`] guarantees), which makes each (field, day)
/// group contiguous.
fn dedup_days(changes: impl IntoIterator<Item = Change>) -> Vec<Change> {
    let mut out = Vec::new();
    let mut group: Vec<Change> = Vec::new();
    for c in changes {
        if let Some(head) = group.first() {
            if (head.day, head.entity, head.property) != (c.day, c.entity, c.property) {
                out.push(representative(&group));
                group.clear();
            }
        }
        group.push(c);
    }
    if !group.is_empty() {
        out.push(representative(&group));
    }
    out
}

/// Pick the representative of one (field, day) group: the latest change
/// whose value is the (most recent on ties) mode of the group's values.
fn representative(group: &[Change]) -> Change {
    debug_assert!(!group.is_empty());
    if group.len() == 1 {
        return group[0];
    }
    // Group sizes are tiny (vandalism bursts); count by value id directly.
    let mut best = group[0];
    let mut best_count = 0usize;
    for (idx, c) in group.iter().enumerate() {
        let count = group.iter().filter(|o| o.value == c.value).count();
        // `>=` prefers later changes: most recent value wins ties, and the
        // latest occurrence of the winning value is kept.
        if count >= best_count {
            best = group[idx];
            best_count = count;
        }
    }
    best
}

/// One stage's effect inside a [`FilterReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterStage {
    /// Human-readable stage name.
    pub name: &'static str,
    /// Changes removed by this stage.
    pub removed: usize,
    /// Changes remaining after this stage.
    pub remaining: usize,
}

/// Per-stage accounting of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterReport {
    /// Changes before any filtering.
    pub original: usize,
    /// Stages in execution order.
    pub stages: Vec<FilterStage>,
}

impl FilterReport {
    fn push_stage(&mut self, name: &'static str, before: &ChangeCube, after: &ChangeCube) {
        self.stages.push(FilterStage {
            name,
            removed: before.num_changes() - after.num_changes(),
            remaining: after.num_changes(),
        });
    }

    /// Fraction of the *original* corpus a stage removed — the way the
    /// paper reports its percentages (they sum to 100 % − 9.2 %).
    pub fn removed_fraction_of_original(&self, stage: usize) -> f64 {
        if self.original == 0 {
            0.0
        } else {
            self.stages[stage].removed as f64 / self.original as f64
        }
    }

    /// Fraction of the original corpus that survived all stages.
    pub fn surviving_fraction(&self) -> f64 {
        if self.original == 0 {
            return 0.0;
        }
        let last = self.stages.last().map_or(self.original, |s| s.remaining);
        last as f64 / self.original as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wikistale_wikicube::{ChangeCubeBuilder, ChangeFlags, CubeIndex, Date};

    fn day(n: i32) -> Date {
        Date::EPOCH + n
    }

    #[test]
    fn bot_reverted_changes_are_dropped() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(1), e, p, "a", ChangeKind::Update);
        b.change_full(
            day(2),
            e,
            p,
            "b",
            ChangeKind::Update,
            ChangeFlags::BOT_REVERTED,
        );
        let pipeline = FilterPipeline {
            drop_bot_reverted: true,
            dedup_days: false,
            drop_creations_deletions: false,
            min_changes: None,
        };
        let (cube, report) = pipeline.apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(report.stages[0].removed, 1);
        assert_eq!(report.stages[0].name, "bot-reverted");
    }

    #[test]
    fn dedup_picks_mode_value() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        // Vandal value once, real value twice → mode is the real value.
        b.change(day(1), e, p, "vandal", ChangeKind::Update);
        b.change(day(1), e, p, "real", ChangeKind::Update);
        b.change(day(1), e, p, "real", ChangeKind::Update);
        let pipeline = FilterPipeline {
            drop_bot_reverted: false,
            dedup_days: true,
            drop_creations_deletions: false,
            min_changes: None,
        };
        let (cube, _) = pipeline.apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(cube.value_text(cube.change_at(0).value), "real");
    }

    #[test]
    fn dedup_tie_keeps_most_recent() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(1), e, p, "first", ChangeKind::Update);
        b.change(day(1), e, p, "second", ChangeKind::Update);
        let (cube, _) = FilterPipeline {
            drop_bot_reverted: false,
            dedup_days: true,
            drop_creations_deletions: false,
            min_changes: None,
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(cube.value_text(cube.change_at(0).value), "second");
    }

    #[test]
    fn dedup_is_per_field_and_per_day() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        let q = b.property("q");
        b.change(day(1), e, p, "a", ChangeKind::Update);
        b.change(day(1), e, q, "b", ChangeKind::Update); // other field
        b.change(day(2), e, p, "c", ChangeKind::Update); // other day
        let (cube, report) = FilterPipeline {
            drop_bot_reverted: false,
            dedup_days: true,
            drop_creations_deletions: false,
            min_changes: None,
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 3);
        assert_eq!(report.stages[0].removed, 0);
    }

    #[test]
    fn creations_and_deletions_dropped() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(0), e, p, "a", ChangeKind::Create);
        b.change(day(1), e, p, "b", ChangeKind::Update);
        b.change(day(2), e, p, "", ChangeKind::Delete);
        let (cube, report) = FilterPipeline {
            drop_bot_reverted: false,
            dedup_days: false,
            drop_creations_deletions: true,
            min_changes: None,
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 1);
        assert_eq!(cube.change_at(0).kind, ChangeKind::Update);
        assert_eq!(report.stages[0].removed, 2);
    }

    #[test]
    fn min_changes_drops_sparse_fields() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let busy = b.property("busy");
        let quiet = b.property("quiet");
        for d in 0..5 {
            b.change(day(d), e, busy, "v", ChangeKind::Update);
        }
        for d in 0..4 {
            b.change(day(d), e, quiet, "v", ChangeKind::Update);
        }
        let (cube, report) = FilterPipeline {
            drop_bot_reverted: false,
            dedup_days: false,
            drop_creations_deletions: false,
            min_changes: Some(5),
        }
        .apply(&b.finish());
        assert_eq!(cube.num_changes(), 5);
        assert_eq!(report.stages[0].removed, 4);
        assert!(cube
            .iter_changes()
            .all(|c| cube.property_name(c.property) == "busy"));
    }

    #[test]
    fn full_pipeline_reports_all_stages_and_fractions() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(0), e, p, "init", ChangeKind::Create);
        for d in 1..=6 {
            b.change(day(d), e, p, &format!("v{d}"), ChangeKind::Update);
        }
        // Same-day duplicate: collapsed by cube canonicalization before the
        // pipeline ever sees it, so it does not count toward `original`.
        b.change(day(6), e, p, "v6-later", ChangeKind::Update);
        b.change_full(
            day(7),
            e,
            p,
            "x",
            ChangeKind::Update,
            ChangeFlags::BOT_REVERTED,
        );
        let (cube, report) = FilterPipeline::paper().apply(&b.finish());
        assert_eq!(report.stages.len(), 4);
        assert_eq!(report.original, 8);
        // bot (1) and create (1) removed; 6 updates ≥ 5 survive.
        assert_eq!(cube.num_changes(), 6);
        let total_removed: usize = report.stages.iter().map(|s| s.removed).sum();
        assert_eq!(total_removed + cube.num_changes(), report.original);
        let frac_sum: f64 = (0..4)
            .map(|i| report.removed_fraction_of_original(i))
            .sum::<f64>()
            + report.surviving_fraction();
        assert!((frac_sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dedup_preserves_sort_order_for_downstream_filters() {
        // After dedup the cube must still be canonically ordered so a
        // second application is a no-op (idempotence).
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        for d in 0..3 {
            b.change(day(d), e, p, "a", ChangeKind::Update);
            b.change(day(d), e, p, "b", ChangeKind::Update);
        }
        let pipeline = FilterPipeline {
            drop_bot_reverted: false,
            dedup_days: true,
            drop_creations_deletions: false,
            min_changes: None,
        };
        let (once, _) = pipeline.apply(&b.finish());
        let (twice, report) = pipeline.apply(&once);
        assert_eq!(once.changes_vec(), twice.changes_vec());
        assert_eq!(report.stages[0].removed, 0);
    }

    #[test]
    fn filtered_cube_index_shares_the_cube_store() {
        let mut b = ChangeCubeBuilder::new();
        let e = b.entity("E", "t", "P");
        let p = b.property("p");
        b.change(day(0), e, p, "init", ChangeKind::Create);
        for d in 1..=6 {
            b.change(day(d), e, p, &format!("v{d}"), ChangeKind::Update);
        }
        b.change(day(7), e, p, "", ChangeKind::Delete);
        let raw = b.finish();
        // The raw cube holds creates and deletes: its update-only view is
        // a separate store.
        let raw_index = CubeIndex::build(&raw);
        assert!(!Arc::ptr_eq(raw_index.day_lists(), raw.day_lists()));
        // After the paper filter only updates remain, so the index reuses
        // the cube's own store and sees the same days.
        let (c, _) = FilterPipeline::paper().apply(&raw);
        let index = CubeIndex::build(&c);
        assert!(Arc::ptr_eq(index.day_lists(), c.day_lists()));
        assert_eq!(index.days(0).as_slice(), raw_index.days(0).as_slice());
    }

    #[test]
    fn empty_cube_passes_through() {
        let (cube, report) = FilterPipeline::paper().apply(&ChangeCubeBuilder::new().finish());
        assert_eq!(cube.num_changes(), 0);
        assert_eq!(report.surviving_fraction(), 0.0);
    }
}
