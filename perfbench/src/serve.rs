//! `serve-uniform` and `serve-zipf`: open-loop staleness queries against
//! the query server.
//!
//! Setup writes the medium `filter` checkpoint the way
//! `wikistale experiment --checkpoint-dir` does (not timed). One set-up
//! loads it with `ServeArtifacts::load`, warms the day lists and the
//! granularity-7 prediction sets, and binds the listener. Traffic runs in
//! windows: at a fixed 200 rps for `p50_ms`/`p99_ms` (after a dropped
//! warm-up slice), then up the capacity ladder for `max_rps`. Between
//! two windows, while the server is idle, the benchmark times one more
//! set-up and drops it, so that the set-ups behind `setup_s` (their
//! median) spread over the whole run and not over one burst of host
//! noise.

use std::collections::HashMap;
use std::io::Cursor;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::loadgen::{run_phase, Cutoff, Digest, Outcome, STALL_LIMIT};
use crate::pipeline::{self, Trained};
use crate::plan::{Catalog, Planned, Planner, Popularity};
use crate::report::Report;
use crate::stats::{self, median, sorted, tail_quantile, Step, Window};
use crate::trace::Tracer;
use crate::{kernels, Args};
use wikistale_core::checkpoint::{fingerprint, CheckpointManifest};
use wikistale_core::eval::{evaluate, truth_set};
use wikistale_core::experiment::ExperimentConfig;
use wikistale_core::filters::FilterPipeline;
use wikistale_core::predictor::EvalData;
use wikistale_core::split::EvalSplit;
use wikistale_obs::alloc::AllocScope;
use wikistale_obs::MetricsRegistry;
use wikistale_serve::http::parse_request;
use wikistale_serve::{App, MetricsFormat, ServeArtifacts, Server, ServerConfig};
use wikistale_wikicube::{binio, CubeIndex, DateRange, PageId};

/// Server worker threads.
const SERVER_THREADS: usize = 2;

/// The fixed rate at which `p50_ms` and `p99_ms` are measured: about
/// half of the capacity measured at the parent commit.
const FIXED_RPS: f64 = 200.0;

/// Sampled requests in one fixed-rate window. Each window is followed
/// by a set-up probe, so shorter windows spread more set-ups over the
/// run; `p99_ms` is taken over windows of the concatenated sample.
const FIXED_WINDOW: usize = 500;

/// Requests at the start of the first fixed-rate window left out of the
/// sample.
const WARM_UP_REQUESTS: usize = 200;

/// Requests at the start of every later fixed-rate window left out of
/// the sample: the window follows a set-up probe, which leaves the
/// server idle and the CPU caches cold.
const SETTLE_REQUESTS: usize = 50;

/// Requests answered in process through the server's own `App` before
/// traffic starts, so that the response cache is in its steady state:
/// twice the default cache size. Not part of `setup_s`.
const CACHE_WARM_REQUESTS: usize = 2 * 4_096;

/// Share of `--seconds` spent at the fixed rate; the ladder gets the
/// rest (7 to 10 s when the 300 rps step passes and 600 fails).
const FIXED_SHARE: f64 = 0.7;

/// Decodes of the checkpoint timed for `binio.decode_s`.
const DECODE_REPEATS: usize = 3;

const CHECKPOINT_FILE: &str = "filter.wcube";

/// Write the `filter` stage checkpoint of the medium corpus into `dir`,
/// as `experiment --checkpoint-dir` does.
fn write_checkpoint(
    dir: &Path,
    config: &ExperimentConfig,
    t: &mut Tracer,
) -> Result<wikistale_core::filters::FilterReport, String> {
    let synth = pipeline::corpus_config();
    let raw = pipeline::generate(t)?;
    let (filtered, report) = t.span("filter", |_| FilterPipeline::paper().apply(&raw));
    drop(raw);
    let io = |e: std::io::Error| format!("cannot write checkpoint in {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut manifest = CheckpointManifest::new(fingerprint(&format!(
        "{synth:?}|no-min-changes=false|{config:?}"
    )));
    let bytes = binio::encode(&filtered);
    binio::write_bytes_atomic(&dir.join(CHECKPOINT_FILE), &bytes).map_err(io)?;
    manifest.record_stage("filter", CHECKPOINT_FILE, &bytes);
    manifest.save(dir).map_err(|e| e.to_string())?;
    Ok(report)
}

/// A loaded, warmed server ready to spawn.
struct Loaded {
    artifacts: Arc<ServeArtifacts>,
    server: Server,
    listener: TcpListener,
}

/// One set-up: load, warm up, bind. Returns it with the seconds the
/// whole set-up and the prediction-set warm-up took.
fn set_up(dir: &Path, config: &ExperimentConfig) -> Result<(Loaded, f64, f64), String> {
    let start = Instant::now();
    let artifacts = Arc::new(ServeArtifacts::load(dir, config).map_err(|e| e.to_string())?);
    artifacts.data().cube.day_lists();
    let server = Server::new(
        Arc::clone(&artifacts),
        ServerConfig {
            threads: SERVER_THREADS,
            ..ServerConfig::default()
        },
    );
    let warm = Instant::now();
    server.app().sets_for(7);
    let warm_s = warm.elapsed().as_secs_f64();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let loaded = Loaded {
        artifacts,
        server,
        listener,
    };
    Ok((loaded, start.elapsed().as_secs_f64(), warm_s))
}

/// Requests of one traffic window and what became of them.
struct Phase<'p> {
    requests: &'p [Planned],
    outcomes: &'p [Option<Outcome>],
    /// Requests before this index are warm-up and not sampled.
    sampled_from: usize,
    /// Fixed-rate round (0, or 1 for the traced round); `None` for a
    /// ladder window.
    round: Option<usize>,
    /// Ladder step rate; `None` for a fixed-rate window.
    step: Option<u32>,
}

impl<'p> Phase<'p> {
    fn sampled(&self) -> impl Iterator<Item = (&'p Planned, &'p Outcome)> {
        self.requests
            .iter()
            .zip(self.outcomes)
            .skip(self.sampled_from)
            .filter_map(|(p, o)| o.as_ref().map(|o| (p, o)))
    }

    /// Latencies in ms of the answered sampled requests; a request
    /// flagged in `bad` (one flag per request) counts at the stall limit,
    /// as it missed any latency limit.
    fn latencies_ms<'a>(&'a self, bad: &'a [bool]) -> impl Iterator<Item = f64> + 'a {
        self.outcomes
            .iter()
            .zip(bad)
            .skip(self.sampled_from)
            .filter_map(|(o, &b)| {
                o.as_ref().map(|o| {
                    ms(if b {
                        o.latency.max(STALL_LIMIT)
                    } else {
                        o.latency
                    })
                })
            })
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn counter(name: &str) -> u64 {
    MetricsRegistry::global().counter(name).get()
}

/// The server's heap high-water mark above the bytes the benchmark held
/// when serving began (its catalog, request plan and outcome slots),
/// over the serving set-up and traffic but not over the set-up probes.
struct HeapWatch {
    base: usize,
    scope: AllocScope,
    peak: usize,
}

impl HeapWatch {
    fn begin() -> HeapWatch {
        let scope = AllocScope::begin();
        HeapWatch {
            base: scope.start_bytes(),
            peak: scope.start_bytes(),
            scope,
        }
    }

    /// Run `f` without counting what it allocates.
    fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.peak = self.peak.max(self.scope.peak_bytes());
        let r = f();
        self.scope = AllocScope::begin();
        r
    }

    fn peak_bytes(&self) -> usize {
        self.peak.max(self.scope.peak_bytes()) - self.base
    }
}

/// Times of every set-up of a run.
#[derive(Default)]
struct SetUps {
    total_s: Vec<f64>,
    warm_s: Vec<f64>,
}

impl SetUps {
    /// One set-up, timed and kept.
    fn run(&mut self, dir: &Path, config: &ExperimentConfig) -> Result<Loaded, String> {
        let (loaded, total_s, warm_s) = set_up(dir, config)?;
        self.total_s.push(total_s);
        self.warm_s.push(warm_s);
        Ok(loaded)
    }

    /// One set-up, timed and dropped; its allocations are not the
    /// serving server's.
    fn probe(
        &mut self,
        dir: &Path,
        config: &ExperimentConfig,
        heap: &mut HeapWatch,
    ) -> Result<(), String> {
        heap.exclude(|| self.run(dir, config).map(drop))
    }
}

/// Requests and outcome slots not used yet.
struct Unused<'p> {
    plan: &'p [Planned],
    slots: &'p mut [Option<Outcome>],
}

impl<'p> Unused<'p> {
    /// Send the next `n` planned requests at `rate`.
    fn send(
        &mut self,
        addr: std::net::SocketAddr,
        n: usize,
        rate: f64,
        cutoff: Option<Cutoff>,
        tracer: &mut Tracer,
        first_op: u64,
    ) -> (&'p [Planned], &'p [Option<Outcome>]) {
        let (requests, plan) = self.plan.split_at(n);
        let (outcomes, slots) = std::mem::take(&mut self.slots).split_at_mut(n);
        self.plan = plan;
        self.slots = slots;
        run_phase(addr, requests, outcomes, rate, cutoff, tracer, first_op);
        (requests, outcomes)
    }
}

/// Run a serve workload and fill `report`.
pub fn run(
    args: &Args,
    popularity: Popularity,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let config = ExperimentConfig::default();
    let dir = args.work_dir.join(format!(
        "checkpoint-{}-{}",
        args.workload,
        std::process::id()
    ));
    let result = write_checkpoint(&dir, &config, tracer)
        .and_then(|filter| serve(args, popularity, &dir, &config, &filter, report, tracer));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Fail flags of a window's requests by status alone, for deciding a
/// ladder step while it runs.
fn status_failed(phase: &Phase) -> Vec<bool> {
    phase
        .outcomes
        .iter()
        .map(|o| o.as_ref().is_some_and(|o| !(200..300).contains(&o.status)))
        .collect()
}

fn serve(
    args: &Args,
    popularity: Popularity,
    dir: &Path,
    config: &ExperimentConfig,
    filter: &wikistale_core::filters::FilterReport,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let traced = tracer.enabled();
    let mut setups = SetUps::default();

    // The first set-up gives the catalog the request plan draws from.
    let catalog = {
        let loaded = setups.run(dir, config)?;
        Catalog::new(loaded.artifacts.data(), loaded.artifacts.eval_range)
    };

    // Plan every request and allocate every outcome slot before serving
    // starts. A traced run measures the fixed rate twice, untraced then
    // traced, and skips the ladder: its metrics are per-layer only.
    let fixed_secs = if traced {
        args.seconds / 2.0
    } else {
        args.seconds * FIXED_SHARE
    };
    let rounds = if traced { 2 } else { 1 };
    let per_round = ((fixed_secs * FIXED_RPS / FIXED_WINDOW as f64).round() as usize).max(1);
    let ladder_max = if traced {
        0
    } else {
        stats::LADDER_RPS.len() * stats::STEP_WINDOWS * stats::STEP_REQUESTS
    };
    let traffic_max =
        WARM_UP_REQUESTS + rounds * per_round * (SETTLE_REQUESTS + FIXED_WINDOW) + ladder_max;
    let plan =
        Planner::new(&catalog, popularity, args.seed).take(CACHE_WARM_REQUESTS + traffic_max);
    let (cache_warm, plan) = plan.split_at(CACHE_WARM_REQUESTS);
    let mut slots: Vec<Option<Outcome>> = vec![None; plan.len()];
    let mut unused = Unused {
        plan,
        slots: &mut slots,
    };

    let mut heap = HeapWatch::begin();
    let Loaded {
        artifacts,
        server,
        listener,
    } = setups.run(dir, config)?;
    replay(server.app(), cache_warm)?;
    let handle = server.spawn(listener).map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr();

    let before = |names: &[&str]| names.iter().map(|n| counter(n)).collect::<Vec<u64>>();
    let cache_names = ["serve/cache/hit", "serve/cache/miss", "serve/cache/evicted"];
    let server_names = ["serve/shed", "serve/deadline_exceeded"];
    let cache_start = before(&cache_names);
    let server_start = before(&server_names);

    // Fixed rate, in windows with a set-up probe between two of them.
    let mut phases: Vec<Phase> = Vec::new();
    let mut op = 0u64;
    for round in 0..rounds {
        for w in 0..per_round {
            let first = round == 0 && w == 0;
            if !first {
                setups.probe(dir, config, &mut heap)?;
            }
            let warm = if first {
                WARM_UP_REQUESTS
            } else {
                SETTLE_REQUESTS
            };
            let mut off = Tracer::new(false);
            let t: &mut Tracer = if round == 1 { tracer } else { &mut off };
            let (requests, outcomes) =
                unused.send(addr, warm + FIXED_WINDOW, FIXED_RPS, None, t, op);
            op += requests.len() as u64;
            phases.push(Phase {
                requests,
                outcomes,
                sampled_from: warm,
                round: Some(round),
                step: None,
            });
        }
    }
    let cache_end = before(&cache_names);

    // The capacity ladder, with a set-up probe before each window.
    let cutoff = Cutoff {
        limit: Duration::from_secs_f64(stats::STEP_P99_LIMIT_MS / 1e3),
        allowed: stats::allowed_over_limit(stats::STEP_REQUESTS),
    };
    let mut steps: Vec<Step> = Vec::new();
    while let Some(rps) = stats::next_step(&steps).filter(|_| !traced) {
        let mut step = Step {
            rps,
            windows: Vec::new(),
        };
        while !step.decided() {
            setups.probe(dir, config, &mut heap)?;
            let (requests, outcomes) = unused.send(
                addr,
                stats::STEP_REQUESTS,
                f64::from(rps),
                Some(cutoff),
                &mut Tracer::new(false),
                op,
            );
            op += requests.len() as u64;
            let phase = Phase {
                requests,
                outcomes,
                sampled_from: 0,
                round: None,
                step: Some(rps),
            };
            step.windows.push(window(&phase, &status_failed(&phase)));
            phases.push(phase);
        }
        steps.push(step);
    }
    handle.stop().map_err(|e| format!("server stop: {e}"))?;
    let peak = heap.peak_bytes();
    let server_end = before(&server_names);

    // Output check against a cache-less app; failures count everywhere.
    // `bad[phase][i]` flags request `i` of the phase when it was answered
    // and failed or differs from the reference.
    let reference = App::new(Arc::clone(&artifacts), 0, MetricsFormat::Json);
    let mut expected: HashMap<&[u8], (u16, Digest)> = HashMap::new();
    let mut bad: Vec<Vec<bool>> = Vec::new();
    for phase in &phases {
        let mut phase_bad = Vec::with_capacity(phase.requests.len());
        for (planned, outcome) in phase.requests.iter().zip(phase.outcomes) {
            let Some(outcome) = outcome else {
                phase_bad.push(false);
                continue;
            };
            let (status, body) = *expected.entry(&planned.raw).or_insert_with(|| {
                let response = match parse_request(&mut Cursor::new(&planned.raw)) {
                    Ok(request) => reference.handle(&request),
                    Err(e) => wikistale_serve::http::Response::error(400, &e.to_string()),
                };
                (response.status, Digest::of(&response.body))
            });
            let failed_status = !(200..300).contains(&outcome.status);
            let mismatch = !failed_status && (outcome.status != status || outcome.body != body);
            report.attempted += 1;
            report.failed += u64::from(failed_status || mismatch);
            report.mismatches += u64::from(mismatch);
            if phase.step.is_none() {
                report.fixed_rate_failures += u64::from(failed_status || mismatch);
            }
            phase_bad.push(failed_status || mismatch);
        }
        bad.push(phase_bad);
    }
    drop(expected);

    // End-to-end metrics from the sampled fixed-rate requests. A failed
    // one also makes the run incorrect, so shedding never reads as a
    // latency gain.
    let fixed: Vec<(&Phase, &[bool])> = phases
        .iter()
        .zip(&bad)
        .filter(|(p, _)| p.step.is_none())
        .map(|(p, b)| (p, b.as_slice()))
        .collect();
    let latencies_of = |round: Option<usize>| -> Vec<f64> {
        fixed
            .iter()
            .filter(|(p, _)| round.is_none() || p.round == round)
            .flat_map(|(p, b)| p.latencies_ms(b))
            .collect()
    };
    let latencies = latencies_of(None);
    let p50 = median(&latencies);
    let (p99, windows) = stats::windowed_p99(&latencies)
        .ok_or_else(|| format!("{} samples are too few for a p99", latencies.len()))?;
    let late: Vec<f64> = fixed
        .iter()
        .flat_map(|(p, _)| p.sampled().map(|(_, o)| ms(o.late)))
        .collect();
    let late_p99 = tail_quantile(&sorted(&late), 0.99).ok_or("too few samples for a p99")?;
    let achieved = fixed
        .iter()
        .map(|(p, _)| {
            let first = p.sampled().map(|(_, o)| o.due).min().unwrap_or_default();
            let last = p.sampled().map(|(_, o)| o.done).max().unwrap_or_default();
            p.sampled().count() as f64 / (last - first).as_secs_f64().max(1e-9)
        })
        .collect::<Vec<f64>>();
    let [hits, misses, evicted] = std::array::from_fn(|i| (cache_end[i] - cache_start[i]) as f64);
    let hit_rate = hits / (hits + misses).max(1.0);

    report.put("setup_s", median(&setups.total_s));
    report.put_extra("setups", setups.total_s.len() as f64, "count");
    let by_time = sorted(&setups.total_s);
    report.put_extra("setup_s.min", by_time[0], "s");
    report.put_extra("setup_s.max", by_time[by_time.len() - 1], "s");
    report.put("peak_heap_mb", peak as f64 / 1e6);
    report.put("p50_ms", p50);
    report.put_extra("p99_ms", p99, "ms");
    report.put_extra("samples", latencies.len() as f64, "count");
    report.put_extra("p99_windows", windows as f64, "count");
    if !traced {
        // Re-judge each step with the output check included.
        let mut judged: Vec<Step> = Vec::new();
        for (phase, flags) in phases.iter().zip(&bad) {
            let Some(rps) = phase.step else {
                continue;
            };
            let w = window(phase, flags);
            match judged.last_mut() {
                Some(step) if step.rps == rps => step.windows.push(w),
                _ => judged.push(Step {
                    rps,
                    windows: vec![w],
                }),
            }
        }
        report.put_extra("max_rps", f64::from(stats::max_rps(&judged)), "1/s");
        for step in &judged {
            let name = format!("ladder.{}rps", step.rps);
            let passed = step.windows.iter().filter(|w| w.passes()).count();
            report.put_extra(&format!("{name}.windows_passed"), passed as f64, "count");
            report.put_extra(
                &format!("{name}.windows"),
                step.windows.len() as f64,
                "count",
            );
            if let Some(p99) = step.p99() {
                report.put_extra(&format!("{name}.p99_ms"), p99, "ms");
            }
        }
    }
    report.put("loadgen.late_p99_ms", late_p99);
    report.put("loadgen.achieved_rps", median(&achieved));
    report.put("cache.hit_rate", hit_rate);

    if traced {
        report.put("cache.hits", hits);
        report.put("cache.misses", misses);
        report.put("cache.evicted", evicted);
        report.put("serve.shed", (server_end[0] - server_start[0]) as f64);
        report.put(
            "serve.deadline_504",
            (server_end[1] - server_start[1]) as f64,
        );
        let (untraced, traced) = (latencies_of(Some(0)), latencies_of(Some(1)));
        report.put("trace.overhead_ms", median(&traced) - median(&untraced));
        report.put("app.sets_warm_s", median(&setups.warm_s));
        let fixed: Vec<&Phase> = fixed.iter().map(|(p, _)| *p).collect();
        in_process(&artifacts, cache_warm, &fixed, p50, report)?;
        drop(artifacts);
        layer_metrics(dir, config, filter, tracer, report)?;
    }
    Ok(())
}

/// A ladder window's outcome; `failed` flags each failed request.
fn window(phase: &Phase, failed: &[bool]) -> Window {
    let answered: Vec<(&Outcome, bool)> = phase
        .outcomes
        .iter()
        .zip(failed)
        .filter_map(|(o, &f)| o.as_ref().map(|o| (o, f)))
        .collect();
    Window {
        latencies_ms: answered.iter().map(|(o, _)| ms(o.latency)).collect(),
        failed: answered.iter().filter(|(_, f)| *f).count(),
        planned: phase.requests.len(),
    }
}

fn us_median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values) * 1e6
    }
}

/// Answer `requests` in process through `app`.
fn replay(app: &App, requests: &[Planned]) -> Result<(), String> {
    for p in requests {
        let request = parse_request(&mut Cursor::new(&p.raw)).map_err(|e| e.to_string())?;
        std::hint::black_box(app.handle(&request));
    }
    Ok(())
}

/// Replay the fixed-rate traffic in process, in order, through
/// `parse_request` and a fresh `App` warmed like the server's, timing
/// the sampled requests; and time `Scorer::page_flags` for each sampled
/// stale query.
fn in_process(
    artifacts: &Arc<ServeArtifacts>,
    cache_warm: &[Planned],
    fixed: &[&Phase],
    e2e_p50_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let requests: Vec<&Planned> = fixed
        .iter()
        .flat_map(|p| p.sampled().map(|(r, _)| r))
        .collect();
    let parse_s: Vec<f64> = requests
        .iter()
        .map(|p| {
            let start = Instant::now();
            let parsed = parse_request(&mut Cursor::new(&p.raw));
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(parsed).map(|_| elapsed)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("planned request does not parse: {e}"))?;
    report.put("http.parse_us", us_median(&parse_s));

    let app = App::new(
        Arc::clone(artifacts),
        ServerConfig::default().cache_entries,
        MetricsFormat::Json,
    );
    replay(&app, cache_warm)?;
    let (mut hit, mut miss, mut score, mut whole) = (vec![], vec![], vec![], vec![]);
    for phase in fixed {
        replay(&app, &phase.requests[..phase.sampled_from])?;
        for (p, _) in phase.sampled() {
            let hits_before = counter("serve/cache/hit");
            let start = Instant::now();
            let request = parse_request(&mut Cursor::new(&p.raw)).map_err(|e| e.to_string())?;
            let routed = Instant::now();
            std::hint::black_box(app.handle(&request));
            let end = Instant::now();
            whole.push((end - start).as_secs_f64() * 1e3);
            let route_s = (end - routed).as_secs_f64();
            match p.stale {
                None => score.push(route_s),
                Some(_) if counter("serve/cache/hit") > hits_before => hit.push(route_s),
                Some(_) => miss.push(route_s),
            }
        }
    }
    report.put("route.stale_hit_us", us_median(&hit));
    report.put("route.stale_miss_us", us_median(&miss));
    report.put("route.score_us", us_median(&score));
    report.put("serve.overhead_p50_ms", e2e_p50_ms - median(&whole));

    let scorer = artifacts.scorer();
    let end = artifacts.eval_range.end();
    let flags_s: Vec<f64> = requests
        .iter()
        .filter_map(|p| p.stale)
        .map(|(page, window)| {
            let range = DateRange::new(end.plus_days(-(window as i32)), end);
            let start = Instant::now();
            std::hint::black_box(scorer.page_flags(PageId(page as u32), range));
            start.elapsed().as_secs_f64()
        })
        .collect();
    report.put("scorer.page_flags_us", us_median(&flags_s));
    Ok(())
}

/// Time the layers `ServeArtifacts::load` runs — decode, day lists,
/// index, training — by calling them directly on the checkpoint, plus
/// the granularity-7 predictions the warm-up computes and the kernels.
fn layer_metrics(
    dir: &Path,
    config: &ExperimentConfig,
    filter: &wikistale_core::filters::FilterReport,
    t: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let synth = t.named("synth").last().cloned().expect("synth span");
    report.put("synth.s", synth.secs());
    report.put("synth.peak_mb", synth.peak_bytes as f64 / 1e6);
    report.put("synth.peak_bytes", synth.peak_bytes as f64);
    pipeline::filter_metrics(t, filter, report);

    let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).map_err(|e| e.to_string())?;
    let mut cube = None;
    for _ in 0..DECODE_REPEATS {
        drop(cube.take());
        cube = Some(
            t.span("binio.decode", |_| binio::decode(&bytes))
                .map_err(|e| e.to_string())?,
        );
    }
    let cube = cube.expect("decoded");
    report.put("binio.decode_s", median(&t.secs_of("binio.decode")));

    let index = t.span("cube", |t| {
        t.span("daylist", |_| {
            cube.day_lists();
        });
        t.span("index", |_| CubeIndex::build(&cube))
    });
    report.put("daylist.build_s", median(&t.secs_of("daylist")));
    report.put("daylist.heap_bytes", cube.day_lists().heap_bytes() as f64);
    report.put("index.build_s", median(&t.secs_of("index")));
    let cube_span = t.named("cube").last().cloned().expect("cube span");
    report.put("cube.peak_bytes", cube_span.peak_bytes as f64);
    report.put("cube.retained_bytes", cube_span.retained_bytes as f64);

    let span = cube.time_span().ok_or("empty checkpoint")?;
    let split = EvalSplit::for_span(span).ok_or("checkpoint spans under two years")?;
    let data = EvalData::new(&cube, &index);
    let trained: Trained = pipeline::train(&data, split.train_and_validation(), config, t);
    let train_span = t.named("train").last().cloned().expect("train span");
    for name in ["field_corr", "assoc", "mean"] {
        report.put(
            &format!("train.{name}_s"),
            median(&t.secs_of(&format!("train.{name}"))),
        );
    }
    let (fc_rules, ar_rules) = (trained.field_corr.num_rules(), trained.assoc.num_rules());
    report.put("train.rules", (fc_rules + ar_rules) as f64);
    report.put("train.field_corr_rules", fc_rules as f64);
    report.put("train.assoc_rules", ar_rules as f64);
    report.put("train.peak_bytes", train_span.peak_bytes as f64);
    report.put("train.retained_bytes", train_span.retained_bytes as f64);

    // The warm-up's prediction sets: granularity 7 over the eval range.
    let sets = t.span("predict", |t| {
        pipeline::predict(&trained, &data, split.test, 7, t)
    });
    let predict_span = t.named("predict").last().cloned().expect("predict span");
    let mut emitted = [[0usize; 4]; 4];
    for (p, counts) in emitted.iter_mut().enumerate() {
        counts[1] = sets[p].items().len();
    }
    for name in pipeline::PREDICTORS {
        report.put(
            &format!("predict.{name}_s"),
            median(&t.secs_of(&format!("predict.{name}"))),
        );
    }
    pipeline::emitted_metrics(&emitted, report);
    report.put("predict.peak_bytes", predict_span.peak_bytes as f64);
    report.put("predict.retained_bytes", predict_span.retained_bytes as f64);

    // What the batch evaluation would do with them (`core::eval`).
    t.span("eval", |_| {
        let truth = truth_set(&index, split.test, 7);
        sets.iter().map(|p| evaluate(p, &truth)).collect::<Vec<_>>()
    });
    report.put("eval.s", median(&t.secs_of("eval")));
    let eval_span = t.named("eval").last().expect("eval span");
    report.put("eval.peak_bytes", eval_span.peak_bytes as f64);

    kernels::measure(
        &cube,
        &index,
        split.train_and_validation(),
        &config.assoc,
        report,
    );
    Ok(())
}
