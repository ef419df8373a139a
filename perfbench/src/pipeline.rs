//! The batch pipeline's stages as the serve workloads call them: the
//! medium corpus, training, prediction, and the exact counts of the
//! filter and of the emitted predictions. Set-up uses them to write the
//! serving checkpoint; the traced run uses them for its per-layer
//! metrics.

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use wikistale_core::ensemble::{and_ensemble, or_ensemble};
use wikistale_core::experiment::ExperimentConfig;
use wikistale_core::filters::FilterReport;
use wikistale_core::predictions::PredictionSet;
use wikistale_core::predictor::{ChangePredictor, EvalData};
use wikistale_core::predictors::{
    AssociationRulePredictor, FieldCorrelation, MeanBaseline, ThresholdBaseline,
};
use wikistale_core::GRANULARITIES;
use wikistale_wikicube::{ChangeCube, DateRange};

/// Predictors in the order of the per-granularity counts.
pub const PREDICTORS: [&str; 4] = ["field_corr", "assoc", "mean", "threshold"];

/// The corpus every workload runs on: the medium preset at its own seed.
///
/// It does not vary with `--seed`: medium corpora of different seeds
/// differ by up to 40 % in filtered size (448k to 645k filtered changes
/// over seeds 1 to 4), so a seeded corpus would make run-to-run spread a
/// property of the seeds rather than of the code.
pub fn corpus_config() -> wikistale_synth::SynthConfig {
    wikistale_synth::SynthConfig::medium()
}

/// Generate the raw corpus in a `synth` span.
pub fn generate(tracer: &mut Tracer) -> Result<ChangeCube, String> {
    let config = corpus_config();
    Ok(tracer
        .span("synth", |_| wikistale_synth::try_generate(&config))?
        .cube)
}

/// The four trained predictors.
pub struct Trained {
    pub field_corr: FieldCorrelation,
    pub assoc: AssociationRulePredictor,
    pub mean: MeanBaseline,
    pub threshold: ThresholdBaseline,
}

/// Train the four predictors on `range`, one span each.
pub fn train(
    data: &EvalData<'_>,
    range: DateRange,
    config: &ExperimentConfig,
    t: &mut Tracer,
) -> Trained {
    t.span("train", |t| Trained {
        field_corr: t.span("train.field_corr", |_| {
            FieldCorrelation::train(data, range, config.field_corr.clone())
        }),
        assoc: t.span("train.assoc", |_| {
            AssociationRulePredictor::train(data, range, config.assoc.clone())
        }),
        mean: t.span("train.mean", |_| MeanBaseline::train(data, range)),
        threshold: ThresholdBaseline {
            threshold: config.threshold_baseline.threshold,
        },
    })
}

/// Predict at granularity `g` over `range` with each predictor (in
/// [`PREDICTORS`] order), then form the AND and OR ensembles.
pub fn predict(
    trained: &Trained,
    data: &EvalData<'_>,
    range: DateRange,
    g: u32,
    t: &mut Tracer,
) -> [PredictionSet; 6] {
    let predictors: [&dyn ChangePredictor; 4] = [
        &trained.field_corr,
        &trained.assoc,
        &trained.mean,
        &trained.threshold,
    ];
    let [fc, ar, mean, threshold] = std::array::from_fn(|i| {
        t.span(&format!("predict.{}", PREDICTORS[i]), |_| {
            predictors[i].predict(data, range, g)
        })
    });
    let (and, or) = t.span("predict.ensembles", |_| {
        (and_ensemble(&fc, &ar), or_ensemble(&fc, &ar))
    });
    [fc, ar, mean, threshold, and, or]
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Filter time, memory and the rows in and out of every stage.
pub fn filter_metrics(t: &Tracer, filter: &FilterReport, report: &mut Report) {
    report.put("filter.s", median(&t.secs_of("filter")));
    let span = t.named("filter").last().expect("filter span");
    report.put("filter.peak_mb", mb(span.peak_bytes));
    report.put("filter.peak_bytes", span.peak_bytes as f64);
    report.put("filter.retained_bytes", span.retained_bytes as f64);
    report.put("filter.rows_in", filter.original as f64);
    let out = filter
        .stages
        .last()
        .map_or(filter.original, |s| s.remaining);
    report.put("filter.rows_out", out as f64);
    let mut rows_in = filter.original;
    for stage in &filter.stages {
        let slug = match stage.name {
            "bot-reverted" => "bot_reverted",
            "same-day duplicates" => "same_day",
            "creations & deletions" => "creations_deletions",
            _ => "min_changes",
        };
        if slug == "same_day" {
            report.put("filter.same_day_collapsed", stage.removed as f64);
        }
        report.put(&format!("filter.{slug}.rows_in"), rows_in as f64);
        report.put(&format!("filter.{slug}.rows_out"), stage.remaining as f64);
        rows_in = stage.remaining;
    }
}

/// Predictions emitted per predictor and granularity, and their total.
pub fn emitted_metrics(emitted: &[[usize; 4]; 4], report: &mut Report) {
    let mut total = 0;
    for (p, name) in PREDICTORS.iter().enumerate() {
        for (g, gran) in GRANULARITIES.iter().enumerate() {
            total += emitted[p][g];
            report.put(
                &format!("predict.{name}.g{gran}.emitted"),
                emitted[p][g] as f64,
            );
        }
    }
    report.put("predict.emitted", total as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wikistale_core::eval::{evaluate, truth_set};
    use wikistale_core::experiment::run_paper_evaluation_serial;
    use wikistale_core::filters::FilterPipeline;
    use wikistale_core::split::EvalSplit;
    use wikistale_wikicube::{binio, CubeIndex};

    #[test]
    fn the_corpus_is_the_same_in_every_run() {
        let corpus = || {
            let config = wikistale_synth::SynthConfig {
                num_entities: 2_000,
                ..corpus_config()
            };
            binio::encode(&wikistale_synth::try_generate(&config).unwrap().cube)
        };
        assert_eq!(corpus(), corpus());
        assert_eq!(corpus_config().num_entities, 55_000);
    }

    /// Training and prediction through these helpers give the outcomes
    /// of the repository's own serial evaluation.
    #[test]
    fn the_stage_helpers_reproduce_the_serial_evaluation() {
        let config = wikistale_synth::SynthConfig {
            seed: 3,
            ..wikistale_synth::SynthConfig::small()
        };
        let raw = wikistale_synth::try_generate(&config).unwrap().cube;
        let (filtered, _) = FilterPipeline::paper().apply(&raw);
        let index = CubeIndex::build(&filtered);
        let split = EvalSplit::for_span(filtered.time_span().unwrap()).unwrap();
        let exp = ExperimentConfig::default();
        let data = EvalData::new(&filtered, &index);
        let mut t = Tracer::new(true);
        let trained = train(&data, split.train_and_validation(), &exp, &mut t);
        let expected = run_paper_evaluation_serial(&filtered, &split, &exp);
        let mut emitted = [[0usize; 4]; 4];
        for (gi, r) in expected.per_granularity.iter().enumerate() {
            let sets = predict(&trained, &data, split.test, r.granularity, &mut t);
            for (p, counts) in emitted.iter_mut().enumerate() {
                counts[gi] = sets[p].items().len();
            }
            let [fc, ar, mean, threshold, and, or] = sets;
            let truth = truth_set(&index, split.test, r.granularity);
            assert_eq!(truth.len(), r.truth_total);
            let got = [mean, threshold, fc, ar, and, or].map(|p| evaluate(&p, &truth));
            let want = [
                r.mean_baseline,
                r.threshold_baseline,
                r.field_correlations,
                r.association_rules,
                r.and_ensemble,
                r.or_ensemble,
            ];
            assert_eq!(got, want, "granularity {}", r.granularity);
        }
        let mut report = Report::default();
        emitted_metrics(&emitted, &mut report);
        assert!(report.get("predict.emitted").unwrap() > 0.0);
    }
}
