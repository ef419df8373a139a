//! Kernel timings for the traced run: day-list lookups,
//! `change_distance`, and Apriori mining, each called directly on the
//! workload's filtered cube. Mining runs on a copy of the association-rule
//! predictor's transaction builder, which the program does not export; a
//! self-test checks that the copy mines the predictor's rules.

use std::hint::black_box;
use std::time::Instant;

use crate::report::Report;
use crate::stats::median;
use wikistale_apriori::{mine, TransactionSet};
use wikistale_core::predictors::assoc::AssocParams;
use wikistale_core::predictors::field_corr::{change_distance, DistanceNorm};
use wikistale_wikicube::{ChangeCube, CubeIndex, Date, DateRange, EntityId, FxHashMap, PropertyId};

/// Passes over each kernel; the median pass is reported.
const PASSES: usize = 3;

/// Fields the `change_distance` kernel pairs up.
const DISTANCE_FIELDS: usize = 20_000;

/// A query day for field `pos`, spread over `span` deterministically.
fn query_day(span: DateRange, pos: usize) -> Date {
    span.start() + ((pos as u64 * 7_919) % u64::from(span.len_days().max(1))) as i32
}

/// Median over [`PASSES`] of the nanoseconds per call of `f` applied to
/// every field position.
fn ns_per_call(num_fields: usize, mut f: impl FnMut(usize) -> u64) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for pos in 0..num_fields {
                acc = acc.wrapping_add(f(pos));
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / num_fields.max(1) as f64
        })
        .collect();
    median(&passes)
}

/// Record the kernel metrics for `cube` and its `index`; `train` is the
/// range the predictors train on, `assoc` the association-rule
/// predictor's parameters.
pub fn measure(
    cube: &ChangeCube,
    index: &CubeIndex,
    train: DateRange,
    assoc: &AssocParams,
    report: &mut Report,
) {
    let span = cube.time_span().unwrap_or(train);
    let n = index.num_fields();
    report.put(
        "daylist.last_before_ns",
        ns_per_call(n, |pos| {
            let day = index.days(pos).last_before(query_day(span, pos));
            day.map_or(0, |d| d.day_number() as u64)
        }),
    );
    report.put(
        "daylist.count_before_ns",
        ns_per_call(n, |pos| {
            index.days(pos).count_before(query_day(span, pos)) as u64
        }),
    );
    report.put(
        "daylist.changed_in_ns",
        ns_per_call(n, |pos| {
            let start = query_day(span, pos);
            u64::from(index.days(pos).changed_in(start, start + 7))
        }),
    );

    let days: Vec<Vec<Date>> = (0..n.min(DISTANCE_FIELDS))
        .map(|pos| index.days(pos).to_vec())
        .collect();
    let pairs = days.len().saturating_sub(1);
    report.put(
        "field_corr.change_distance_ns",
        ns_per_call(pairs, |i| {
            change_distance(&days[i], &days[i + 1], train, DistanceNorm::TotalMass).to_bits()
        }),
    );

    let sets = weekly_transactions(cube, mine_range(train, assoc));
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            let rules: usize = sets.iter().map(|ts| mine(ts, &assoc.apriori).len()).sum();
            black_box(rules);
            start.elapsed().as_secs_f64()
        })
        .collect();
    report.put("apriori.mine_s", median(&passes));
}

/// The part of the training range `AssociationRulePredictor::train`
/// mines on: all but the held-out `validation_fraction`, in whole weeks.
fn mine_range(train: DateRange, assoc: &AssocParams) -> DateRange {
    let holdout_days = ((train.len_days() as f64 * assoc.validation_fraction) as u32 / 7) * 7;
    DateRange::new(train.start(), train.end() - holdout_days as i32)
}

/// A copy of the association-rule predictor's private transaction
/// builder (`core::predictors::assoc`): per template, one transaction per
/// (entity, 7-day bucket from `range.start()`) with a change, holding
/// template-local item ids numbered in sorted `PropertyId` order. Only
/// the order of the transactions differs (here by entity and week), which
/// changes neither the itemsets nor the rules mined.
fn weekly_transactions(cube: &ChangeCube, range: DateRange) -> Vec<TransactionSet> {
    let mut weekly: FxHashMap<(EntityId, u32), Vec<PropertyId>> = FxHashMap::default();
    for (_, field, list) in cube.day_lists().iter() {
        let mut last_week = None;
        for day in list.iter_in(range) {
            let week = (day - range.start()) as u32 / 7;
            if last_week == Some(week) {
                continue;
            }
            last_week = Some(week);
            weekly
                .entry((field.entity, week))
                .or_default()
                .push(field.property);
        }
    }
    let mut keyed: Vec<((EntityId, u32), Vec<PropertyId>)> = weekly.into_iter().collect();
    keyed.sort_unstable_by_key(|(key, _)| *key);
    let mut per_template: Vec<Vec<Vec<PropertyId>>> = vec![Vec::new(); cube.num_templates()];
    for ((entity, _), mut props) in keyed {
        props.sort_unstable();
        props.dedup();
        per_template[cube.template_of(entity).index()].push(props);
    }
    per_template
        .into_iter()
        .filter(|txs| !txs.is_empty())
        .map(|txs| {
            let mut items: Vec<PropertyId> = txs.iter().flatten().copied().collect();
            items.sort_unstable();
            items.dedup();
            let mut builder = TransactionSet::builder();
            for tx in &txs {
                builder.push(
                    tx.iter()
                        .map(|p| items.binary_search(p).expect("item of the template") as u32),
                );
            }
            builder.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_core::filters::FilterPipeline;
    use wikistale_core::predictor::EvalData;
    use wikistale_core::predictors::AssociationRulePredictor;
    use wikistale_core::split::EvalSplit;

    /// With validation pruning switched off, the predictor keeps every
    /// unary rule it mined, so the copy must mine exactly as many.
    #[test]
    fn the_copied_transactions_mine_the_predictors_rules() {
        let config = wikistale_synth::SynthConfig {
            seed: 5,
            ..wikistale_synth::SynthConfig::small()
        };
        let raw = wikistale_synth::try_generate(&config).unwrap().cube;
        let cube = FilterPipeline::paper().apply(&raw).0;
        let index = CubeIndex::build(&cube);
        let train = EvalSplit::for_span(cube.time_span().unwrap())
            .unwrap()
            .train_and_validation();
        let params = AssocParams {
            min_rule_precision: 0.0,
            keep_unvalidated_rules: true,
            ..AssocParams::default()
        };
        let trained =
            AssociationRulePredictor::train(&EvalData::new(&cube, &index), train, params.clone());
        let mined: usize = weekly_transactions(&cube, mine_range(train, &params))
            .iter()
            .map(|ts| {
                mine(ts, &params.apriori)
                    .iter()
                    .filter(|r| r.is_unary())
                    .count()
            })
            .sum();
        assert!(mined > 0, "no rules to compare");
        assert_eq!(mined, trained.num_rules());
    }
}
