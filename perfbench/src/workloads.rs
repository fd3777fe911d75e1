//! The benchmark's workloads.
//!
//! Each workload reaches the program only through public functions,
//! times its operations from outside, and checks its own outputs. A run
//! repeats its operation until `seconds` have passed. Set-up is timed
//! apart from the operations: before them when it is expensive, before
//! each of them when the operation consumes it or when it is cheap
//! enough that a median over the whole run costs little. Every set-up
//! and operation is followed by a yardstick pass and reported at the
//! reference host's pace (see `yardstick`). In a traced run a workload
//! also times each layer call it makes, plus a few extra calls that
//! isolate a layer the operation reaches only through another one.

use crate::stats::{median, percentile};
use crate::yardstick::{self, Yardstick};
use ddos_astopo::Asn;
use ddos_core::artifact::ModelArtifact;
use ddos_core::features::FeatureExtractor;
use ddos_core::pipeline::{
    Pipeline, PipelineConfig, SpatialDistReport, SpatialDurationReport, SpatioTemporalReport,
    TemporalReport,
};
use ddos_core::spatial::SpatialConfig;
use ddos_core::spatiotemporal::{
    AttackForecast, ForecastScratch, InstanceFeatures, SpatioTemporalConfig, SpatioTemporalModel,
};
use ddos_serve::{
    DirModelStore, ForecastRequest, ForecastService, ForecastTicket, ModelStore, ServeConfig,
    ServeHandle, ServeStats,
};
use ddos_trace::{
    AttackRecord, ColumnarWriter, Corpus, CorpusConfig, CorpusStream, ScenarioPolicy,
    StreamOptions, TraceGenerator,
};
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Seed of every corpus the workloads generate. It is pinned rather than
/// taken from `--seed` because the cost of a corpus varies up to 3×
/// between seeds (Eq. 4 work grows with the square of each attack's
/// source-AS count; the stream's burst regimes move its record rate by
/// ±30%), which would bury a 10% regression. `--seed` drives the rest:
/// model seeds, request order and sources, refit-window order and the
/// probe rows.
pub const CORPUS_SEED: u64 = 42;

/// Worker threads of every fit, of the stream and of the forecast
/// service. On the reference host (two vCPUs shared with other tenants)
/// a second worker bought the paper loop and the stream 0–7% and made
/// each depend on two busy neighbours instead of one, and the service's
/// default of one spawned thread per vCPU per flush put four runnable
/// threads on two vCPUs, so runs measured the scheduler. The executors'
/// multi-core scaling is outside the benchmark (README, "Out of scope").
const WORKERS: usize = 1;

/// Requests the closed-loop client keeps outstanding in `serve-sat`.
const OUTSTANDING: usize = 1_024;

/// Requests per `serve-sat` session, ~1.5 s on the reference host.
const SESSION: usize = 1 << 19;

/// Distinct request sources: spread wide enough that the default
/// per-source rate windows (200 per second) never trip, however fast
/// the service becomes.
const SOURCES: u64 = 65_536;

/// Rows per scoring call when a traced serve run times the tree walk on
/// its own (the default `BatchPolicy::max_batch`).
const SCORE_BATCH: usize = 64;

/// The extra calls a traced run makes to isolate a layer are timed over
/// at most this many operations and scaled to all of them, so a traced
/// run lasts seconds, not twice as long as an untraced one.
const TRACE_REPS: usize = 3;

/// Every workload the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperLoop,
    ScenarioStream,
    ServeSat,
    StRefit,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PaperLoop, Workload::ScenarioStream, Workload::ServeSat, Workload::StRefit];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLoop => "paper-loop",
            Workload::ScenarioStream => "scenario-stream",
            Workload::ServeSat => "serve-sat",
            Workload::StRefit => "st-refit",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::toy`] runs the
/// same code paths in well under a second each, for the unit tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Set-ups before the timed phase, for the workloads whose set-up is
    /// too expensive to repeat before every operation.
    pub setup_reps: usize,
    pub paper_corpus: CorpusConfig,
    pub stream_corpus: CorpusConfig,
    pub serve_corpus: CorpusConfig,
    pub refit_corpus: CorpusConfig,
    /// Attacks in every refit window, so each refit does comparable work.
    pub refit_window: usize,
    /// The day each refit window ends on.
    pub refit_ends: Vec<u32>,
    pub probe_rows: usize,
    /// Requests per `serve-sat` session.
    pub session: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            setup_reps: 3,
            // The medium catalog over a 30-day window: ~5.9k attacks, Eq. 4
            // still ~85% of the loop, ~1.2–1.4 s per iteration.
            paper_corpus: CorpusConfig { days: 30, ..CorpusConfig::medium() },
            // The 100k-AS internet substrate under rotation bursts: ~53k
            // records per pass, ~1.5 s.
            stream_corpus: CorpusConfig {
                days: 200,
                scenario: ScenarioPolicy::RotationBurst,
                ..CorpusConfig::internet()
            },
            serve_corpus: CorpusConfig::medium(),
            refit_corpus: CorpusConfig::medium().with_scenario(ScenarioPolicy::RotationBurst),
            refit_window: 16_000,
            refit_ends: (56..=105).step_by(7).collect(),
            probe_rows: 1_024,
            session: SESSION,
        }
    }

    #[cfg(test)]
    pub fn toy() -> Self {
        Sizes {
            setup_reps: 2,
            paper_corpus: CorpusConfig::small(),
            stream_corpus: CorpusConfig::small().with_scenario(ScenarioPolicy::RotationBurst),
            serve_corpus: CorpusConfig::small(),
            refit_corpus: CorpusConfig::small().with_scenario(ScenarioPolicy::RotationBurst),
            refit_window: 800,
            refit_ends: vec![60],
            probe_rows: 64,
            session: 4_096,
        }
    }
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// One timed set-up or operation, with the host's pace around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock duration, seconds.
    pub secs: f64,
    /// How many times longer the host took than the reference host in a
    /// calm period, from the yardstick passes around it.
    pub pace: f64,
}

impl Timed {
    /// The duration at the reference host's pace, seconds.
    pub fn scaled(self) -> f64 {
        self.secs / self.pace
    }
}

/// Runs the yardstick between timed pieces of work and gives each piece
/// its pace from the passes on either side of it.
pub struct Pacer {
    yardstick: Yardstick,
    /// Every pass so far, milliseconds; the last one opens the interval
    /// the next [`Pacer::pace`] closes.
    pub passes_ms: Vec<f64>,
}

impl Pacer {
    fn new() -> Self {
        let mut yardstick = Yardstick::new();
        let first = yardstick.pass();
        Pacer { yardstick, passes_ms: vec![first] }
    }

    /// Closes the interval opened by the previous pass with a new one.
    fn pace(&mut self) -> f64 {
        let before = *self.passes_ms.last().expect("a pass opens every interval");
        let after = self.yardstick.pass();
        self.passes_ms.push(after);
        yardstick::pace(before, after)
    }

    /// Bytes the yardstick keeps resident, left out of `peak_rss_mib`.
    pub fn resident_bytes(&self) -> usize {
        self.yardstick.resident_bytes()
    }
}

/// What a run measured. `main` turns it into the reported metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub pacer: Pacer,
    pub setups: Vec<Timed>,
    /// The operations of a batch workload or the sessions of `serve-sat`.
    ops: Vec<Timed>,
    /// Work units completed per second at the median operation: loop
    /// iterations, records, responses or refits.
    pub throughput: f64,
    pub p50_ms: f64,
    /// The slow end: serving p99, or a batch workload's upper quartile
    /// (its 6–27 operations are too few for a p99 that is not simply the
    /// slowest one).
    pub tail_ms: f64,
    /// Per-layer values of a traced run, keyed by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the run record: sample counts and unscaled values.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            pacer: Pacer::new(),
            setups: Vec::new(),
            ops: Vec::new(),
            throughput: 0.0,
            p50_ms: 0.0,
            tail_ms: 0.0,
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, why: impl std::fmt::Display) {
        if self.failed == 0 {
            eprintln!("perfbench: operation failed: {why}");
        }
        self.failed += 1;
    }

    /// Wall-clock seconds the operations took together.
    fn spent(&self) -> f64 {
        self.ops.iter().map(|t| t.secs).sum()
    }

    /// Latency over the operations at the reference pace, and throughput
    /// as `units` of work per operation at the median (a mean would let
    /// one stalled operation move it).
    fn summarize_ops(&mut self, units: f64) {
        let (p50, tail) = quartile_ms(self.ops.iter().map(|t| t.scaled()));
        let (raw_p50, raw_tail) = quartile_ms(self.ops.iter().map(|t| t.secs));
        (self.p50_ms, self.tail_ms) = (p50, tail);
        self.throughput = units * 1e3 / p50;
        self.notes.push(format!(
            "unscaled: p50_ms={raw_p50} tail_ms={raw_tail} throughput={}",
            units * 1e3 / raw_p50
        ));
    }
}

/// Median and upper quartile (nearest rank) of durations, as ms.
fn quartile_ms(secs: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut ms: Vec<f64> = secs.map(|s| s * 1e3).collect();
    (median(&ms), percentile(&mut ms, 0.75))
}

/// Serving latencies over consecutive windows of [`Windowed::SIZE`]
/// responses: each window's p50 and p99, then the median of each across
/// windows. Memory stays fixed however many requests a session
/// completes, and a host stall of a few milliseconds moves only the
/// windows it falls in, where it would move the p99 of the whole session.
#[derive(Default)]
struct Windowed {
    window: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    sum_ms: f64,
}

impl Windowed {
    /// Enough samples that a window's p99 has 10 beyond it, and enough
    /// windows (hundreds per session) that the median outvotes a noisy
    /// moment on the shared host.
    const SIZE: usize = 1_000;

    fn push(&mut self, ms: f64) {
        self.sum_ms += ms;
        self.window.push(ms);
        if self.window.len() == Self::SIZE {
            self.close();
        }
    }

    fn close(&mut self) {
        if !self.window.is_empty() {
            self.p50s.push(percentile(&mut self.window, 0.50));
            self.p99s.push(percentile(&mut self.window, 0.99));
            self.window.clear();
        }
    }

    /// `(p50 ms, p99 ms)`. A trailing partial window counts only when
    /// the session was too short to fill one.
    fn finish(mut self) -> (f64, f64) {
        if self.p50s.is_empty() {
            self.close();
        }
        (median(&self.p50s), median(&self.p99s))
    }
}

/// Runs `workload` once.
///
/// # Errors
///
/// A set-up step failed, so nothing could be measured. Failures inside
/// an operation are counted in [`Outcome::failed`] instead.
pub fn run(workload: Workload, p: &Params) -> Res<Outcome> {
    match workload {
        Workload::PaperLoop => paper_loop(p),
        Workload::ScenarioStream => scenario_stream(p),
        Workload::ServeSat => serve_sat(p),
        Workload::StRefit => st_refit(p),
    }
}

/// Outside-in stage timings; a no-op unless the run is traced.
struct Stages {
    on: bool,
    secs: BTreeMap<&'static str, f64>,
}

impl Stages {
    fn new(on: bool) -> Self {
        Stages { on, secs: BTreeMap::new() }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.secs.entry(name).or_default() += t.elapsed().as_secs_f64();
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Scales a stage timed over `reps` of `ops` operations to all of them.
    fn extrapolate(&mut self, name: &str, reps: usize, ops: usize) {
        if let Some(s) = self.secs.get_mut(name) {
            *s *= ops as f64 / reps.max(1) as f64;
        }
    }

    /// Records every stage as a percentage of `total_s`, plus the share
    /// the `covering` stages account for together.
    fn shares_into(&self, total_s: f64, covering: &[&str], layers: &mut BTreeMap<&str, f64>) {
        for (&name, &s) in &self.secs {
            layers.insert(name, 100.0 * s / total_s);
        }
        let covered: f64 = covering.iter().map(|name| self.get(name)).sum();
        layers.insert("stages.covered_pct", 100.0 * covered / total_s);
    }
}

/// Sets up `reps` times and returns the last fixture, recording each
/// set-up. The previous fixture is dropped before the next is built, so
/// peak memory holds one.
fn set_up<T>(reps: usize, out: &mut Outcome, mut build: impl FnMut() -> Res<T>) -> Res<T> {
    let mut fixture = None;
    for _ in 0..reps.max(1) {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(build()?);
        let secs = t.elapsed().as_secs_f64();
        out.setups.push(Timed { secs, pace: out.pacer.pace() });
    }
    Ok(fixture.expect("at least one set-up"))
}

/// Runs operation `k = 0, 1, …` until `seconds` have passed (at least
/// once), each on a fixture `fresh` builds before the operation's timing
/// starts. Records each operation, checks its result outside the timing,
/// then runs a yardstick pass. Returns how long each `fresh` took.
///
/// # Errors
///
/// `fresh` failed: without a fixture the run cannot go on.
fn repeat_for<F, T>(
    seconds: f64,
    out: &mut Outcome,
    mut fresh: impl FnMut() -> Res<F>,
    mut op: impl FnMut(usize, F) -> Res<T>,
    mut check: impl FnMut(T) -> Result<(), String>,
) -> Res<Vec<Timed>> {
    let start = Instant::now();
    let mut fresh_s = Vec::new();
    while out.ops.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let fixture = fresh()?;
        fresh_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        let t = Instant::now();
        let result = op(out.ops.len(), fixture);
        let secs = t.elapsed().as_secs_f64();
        if let Err(why) = result.map_err(|e| e.to_string()).and_then(&mut check) {
            out.fail(why);
        }
        out.ops.push(Timed { secs, pace: out.pacer.pace() });
    }
    Ok(fresh_s.into_iter().zip(&out.ops).map(|(secs, op)| Timed { secs, pace: op.pace }).collect())
}

/// Records the generator's output size on a traced run.
fn corpus_layers(corpus: &Corpus, generate_s: &[f64], layers: &mut BTreeMap<&str, f64>) {
    let bots: usize = corpus.attacks().iter().map(AttackRecord::magnitude).sum();
    layers.insert("trace.generate_s", median(generate_s));
    layers.insert("trace.records", corpus.len() as f64);
    layers.insert("trace.bots_per_record", bots as f64 / corpus.len().max(1) as f64);
}

fn generate(config: &CorpusConfig, generate_s: &mut Vec<f64>) -> Res<Corpus> {
    let t = Instant::now();
    let corpus = TraceGenerator::new(config.clone(), CORPUS_SEED).generate()?;
    generate_s.push(t.elapsed().as_secs_f64());
    Ok(corpus)
}

/// `SpatioTemporalConfig::fast()` on [`WORKERS`] threads.
fn st_config() -> SpatioTemporalConfig {
    let fast = SpatioTemporalConfig::fast();
    SpatioTemporalConfig {
        spatial: SpatialConfig { parallelism: Some(WORKERS), ..fast.spatial },
        ..fast
    }
}

/// splitmix64: seeds every per-run random choice from `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn same_bits(a: &AttackForecast, b: &AttackForecast) -> bool {
    let bits = |f: &AttackForecast| [f.hour, f.day, f.magnitude, f.duration_secs].map(f64::to_bits);
    bits(a) == bits(b)
}

/// A scratch directory under the benchmark's build directory, removed
/// on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(label: &str) -> Res<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let base = exe.parent().ok_or("executable has no parent directory")?;
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join("perfbench-work").join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------- paper-loop

/// The four reports one loop iteration produces.
type LoopReports = (TemporalReport, SpatialDistReport, SpatialDurationReport, SpatioTemporalReport);

fn reports_finite(r: &LoopReports) -> bool {
    let (temporal, spatial, durations, st) = r;
    temporal.per_family.iter().all(|f| f.magnitudes.rmse.is_finite())
        && temporal.per_family.iter().all(|f| f.source_coefficient.rmse.is_finite())
        && spatial.per_family.iter().all(|f| f.share_rmse.is_finite())
        && durations.per_network.iter().all(|n| n.spatial_rmse.is_finite())
        && [st.st_hour_rmse, st.st_day_rmse, st.spatial_hour_rmse, st.temporal_hour_rmse]
            .iter()
            .all(|v| v.is_finite())
}

/// One pass of the offline loop: fit and serve every model of the paper,
/// round-tripping the spatiotemporal model through its artifact bytes.
/// Returns the reports and the in-memory spatiotemporal model.
fn loop_iteration(
    pipeline: &Pipeline,
    corpus: &Corpus,
    stages: &mut Stages,
) -> Res<(LoopReports, SpatioTemporalModel, usize)> {
    let temporal = stages.time("core.temporal.fit_pct", || pipeline.fit_temporal(corpus))?;
    let temporal =
        stages.time("core.temporal.serve_pct", || pipeline.serve_temporal(corpus, &temporal))?;
    let dist = stages.time("core.spatial.fit_pct", || pipeline.fit_spatial_distribution(corpus))?;
    let dist = stages
        .time("core.spatial.serve_pct", || pipeline.serve_spatial_distribution(corpus, &dist))?;
    let nets = stages.time("core.spatial.fit_pct", || pipeline.fit_spatial_durations(corpus, 4))?;
    let durations = stages
        .time("core.spatial.serve_pct", || pipeline.serve_spatial_durations(corpus, &nets))?;
    let model =
        stages.time("core.spatiotemporal.fit_pct", || pipeline.fit_spatiotemporal(corpus))?;
    let bytes = stages.time("core.artifact.encode_pct", || model.to_artifact_bytes());
    let decoded = stages
        .time("core.artifact.decode_pct", || SpatioTemporalModel::from_artifact_bytes(&bytes))?;
    let st = stages.time("core.spatiotemporal.serve_pct", || {
        pipeline.serve_spatiotemporal(corpus, &decoded)
    })?;
    Ok(((temporal, dist, durations, st), model, bytes.len()))
}

fn paper_loop(p: &Params) -> Res<Outcome> {
    let mut out = Outcome::new();
    let config =
        PipelineConfig::fast_builder().parallelism(WORKERS).spatiotemporal(st_config()).build()?;
    let pipeline = Pipeline::new(config, p.seed);
    let mut stages = Stages::new(p.trace);
    let mut first: Option<LoopReports> = None;
    let (mut attacks, mut artifact_bytes) = (0usize, 0usize);

    // Generating the corpus is the set-up. At a tenth of a second it is
    // cheap enough to repeat before every iteration, which makes
    // `setup_s` a median over the whole run rather than over its first
    // second, when the host may happen to be busy.
    out.setups = repeat_for(
        p.seconds,
        &mut out,
        || generate(&p.sizes.paper_corpus, &mut Vec::new()),
        |_, corpus| Ok((loop_iteration(&pipeline, &corpus, &mut stages)?, corpus)),
        |((reports, model, bytes), corpus)| {
            (attacks, artifact_bytes) = (corpus.len(), bytes);
            // The model served from its decoded artifact must report
            // exactly what the in-memory model does, and every iteration
            // must reproduce the first.
            let in_memory =
                pipeline.serve_spatiotemporal(&corpus, &model).map_err(|e| e.to_string())?;
            if !reports_finite(&reports) {
                return Err("a non-finite RMSE".into());
            }
            if in_memory != reports.3 {
                return Err("decoded and in-memory spatiotemporal reports differ".into());
            }
            if first.get_or_insert_with(|| reports.clone()) != &reports {
                return Err("an iteration's reports differ from the first's".into());
            }
            Ok(())
        },
    )?;

    if p.trace {
        // Eq. 4 runs inside the temporal stages; time the same calls on
        // their own: `A^s` over each evaluated family's train split
        // (`fit_temporal`, one extractor) and twice over its test split
        // (`serve_temporal`, another).
        let corpus = generate(&p.sizes.paper_corpus, &mut Vec::new())?;
        let (_, test) = corpus.split(pipeline.config().split)?;
        let cut = test.first().ok_or("empty test split")?.start;
        let splits: Vec<(Vec<&AttackRecord>, Vec<&AttackRecord>)> = pipeline
            .families(&corpus)
            .into_iter()
            .map(|family| corpus.family_attacks(family).into_iter().partition(|a| a.start < cut))
            .collect();
        let eq4_attacks: usize =
            splits.iter().map(|(train, test)| train.len() + 2 * test.len()).sum();
        let (ops, reps) = (out.ops.len(), out.ops.len().min(TRACE_REPS));
        for _ in 0..reps {
            let (fit_fx, serve_fx) =
                (FeatureExtractor::new(&corpus), FeatureExtractor::new(&corpus));
            for (train, test) in &splits {
                for (fx, attacks) in [(&fit_fx, train), (&serve_fx, test), (&serve_fx, test)] {
                    stages
                        .time("core.features.eq4_pct", || fx.source_distribution_series(attacks))?;
                }
            }
        }
        stages.extrapolate("core.features.eq4_pct", reps, ops);
        let covering = [
            "core.temporal.fit_pct",
            "core.temporal.serve_pct",
            "core.spatial.fit_pct",
            "core.spatial.serve_pct",
            "core.spatiotemporal.fit_pct",
            "core.artifact.encode_pct",
            "core.artifact.decode_pct",
            "core.spatiotemporal.serve_pct",
        ];
        stages.shares_into(out.spent(), &covering, &mut out.layers);
        let generate_s: Vec<f64> = out.setups.iter().map(|t| t.secs).collect();
        corpus_layers(&corpus, &generate_s, &mut out.layers);
        out.layers.insert("core.features.eq4_attacks", eq4_attacks as f64);
        out.layers.insert("core.artifact.bytes", artifact_bytes as f64);
    }
    out.summarize_ops(1.0);
    out.notes.push(format!(
        "samples: setup={} iterations={} attacks={attacks}",
        out.setups.len(),
        out.ops.len()
    ));
    Ok(out)
}

// ----------------------------------------------------------- scenario-stream

/// A sink that keeps only the number of bytes written to it.
#[derive(Default)]
struct ByteCount(u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Drained {
    records: u64,
    bots: u64,
    bytes: u64,
    /// Ids are dense `0..records` and starts never decrease.
    ordered: bool,
}

fn drain(mut stream: CorpusStream, stages: &mut Stages) -> Res<Drained> {
    let mut writer = ColumnarWriter::new(ByteCount::default())?;
    let (mut records, mut bots, mut prev_start, mut ordered) = (0u64, 0u64, 0u64, true);
    while let Some(record) = stages.time("trace.stream.next_pct", || stream.next()) {
        let record = record?;
        ordered &= record.id.0 == records && record.start.0 >= prev_start;
        prev_start = record.start.0;
        records += 1;
        bots += record.magnitude() as u64;
        stages.time("trace.columnar.push_pct", || writer.push(record))?;
    }
    let sink = stages.time("trace.columnar.push_pct", || writer.finish())?;
    Ok(Drained { records, bots, bytes: sink.0, ordered })
}

fn scenario_stream(p: &Params) -> Res<Outcome> {
    let mut out = Outcome::new();
    let options = StreamOptions { parallelism: Some(WORKERS), ..StreamOptions::default() };
    let mut stages = Stages::new(p.trace);
    let (mut records, mut bots, mut bytes) = (0u64, 0u64, 0u64);
    let mut first_records = None;

    // Building the substrate is the set-up, and a stream is drained
    // once, so every pass builds it again.
    out.setups = repeat_for(
        p.seconds,
        &mut out,
        || Ok(CorpusStream::with_options(p.sizes.stream_corpus.clone(), CORPUS_SEED, options)?),
        |_, stream| drain(stream, &mut stages),
        |d| {
            (records, bots, bytes) = (records + d.records, bots + d.bots, bytes + d.bytes);
            if !d.ordered {
                return Err("record ids are not dense or starts decrease".into());
            }
            if d.records == 0 || d.bytes == 0 {
                return Err("a pass streamed nothing".into());
            }
            if *first_records.get_or_insert(d.records) != d.records {
                return Err("passes yield different record counts".into());
            }
            Ok(())
        },
    )?;

    if p.trace {
        let passes = out.ops.len() as f64;
        stages.shares_into(
            out.spent(),
            &["trace.stream.next_pct", "trace.columnar.push_pct"],
            &mut out.layers,
        );
        let build_s: Vec<f64> = out.setups.iter().map(|t| t.secs).collect();
        let generate_s = median(&build_s) + stages.get("trace.stream.next_pct") / passes;
        out.layers.insert("trace.generate_s", generate_s);
        out.layers.insert("trace.records", records as f64 / passes);
        out.layers.insert("trace.bots_per_record", bots as f64 / records.max(1) as f64);
        out.layers.insert("trace.columnar.bytes_per_record", bytes as f64 / records.max(1) as f64);
    }
    out.summarize_ops(first_records.unwrap_or(0) as f64);
    out.notes.push(format!(
        "samples: setup={} passes={} records={records}",
        out.setups.len(),
        out.ops.len()
    ));
    Ok(out)
}

// ----------------------------------------------------------------- serve-sat

/// Key of the served model in the store.
const MODEL_KEY: &str = "spatiotemporal";

/// A fitted model published to a store, and the rows to request.
struct ServeFixture {
    model: SpatioTemporalModel,
    pool: Vec<InstanceFeatures>,
    store: Arc<dyn ModelStore>,
    /// The check's reference: every pool row scored serially by the
    /// in-memory model, so the artifact round trip is checked too.
    expected: Vec<AttackForecast>,
    /// `(attacks, bots)` of the corpus, for the trace.
    corpus_size: (usize, usize),
}

fn serve_fixture(p: &Params, work: &WorkDir, generate_s: &mut Vec<f64>) -> Res<ServeFixture> {
    let corpus = generate(&p.sizes.serve_corpus, generate_s)?;
    let corpus_size = (corpus.len(), corpus.attacks().iter().map(AttackRecord::magnitude).sum());
    let (train, _) = corpus.split(0.8)?;
    let config = st_config();
    let model = SpatioTemporalModel::fit(&corpus, train, &config, p.seed)?;
    let (rows, _) = SpatioTemporalModel::training_design(train, &config, p.seed)?;
    let pool = rows
        .iter()
        .map(|row| InstanceFeatures::from_row(row).ok_or("a design row of the wrong width"))
        .collect::<Result<Vec<_>, _>>()?;
    model.save_artifact(&work.0.join(format!("{MODEL_KEY}.mdl")))?;
    let store: Arc<dyn ModelStore> = Arc::new(DirModelStore::open(&work.0));
    let expected = model.forecast_features(&pool)?;
    Ok(ServeFixture { model, pool, store, expected, corpus_size })
}

/// What one session measured.
struct Session {
    sent: u64,
    failed: u64,
    p50_ms: f64,
    p99_ms: f64,
    /// Summed latency and summed time inside `submit`, seconds.
    latency_s: f64,
    submit_s: f64,
    stats: ServeStats,
}

/// Closed-loop serving at capacity, in sessions: each starts the service
/// from the store, keeps [`OUTSTANDING`] requests in flight until it has
/// sent `sizes.session`, and shuts the service down. A session is the
/// operation, timed whole and scaled by the host's pace like a batch
/// workload's. A service that ran for the whole run would keep every
/// admission timestamp of the default 60 s rate window, so its memory
/// would grow with the number of requests it happened to serve.
fn serve_sat(p: &Params) -> Res<Outcome> {
    let mut out = Outcome::new();
    let work = WorkDir::new("serve")?;
    let mut generate_s = Vec::new();
    let fixture =
        set_up(p.sizes.setup_reps, &mut out, || serve_fixture(p, &work, &mut generate_s))?;
    let order = permutation(fixture.pool.len(), p.seed);
    let config = ServeConfig { workers: Some(WORKERS), ..ServeConfig::default() };
    let mut sessions: Vec<(f64, f64)> = Vec::new();
    let (mut sent, mut failed, mut latency_s, mut submit_s) = (0u64, 0u64, 0.0, 0.0);
    let mut stats = ServeStats::default();

    repeat_for(
        p.seconds,
        &mut out,
        || Ok(ForecastService::start(&fixture.store, MODEL_KEY, config.clone())?),
        |k, handle| session(&fixture, &order, handle, k, p),
        |s| {
            sessions.push((s.p50_ms, s.p99_ms));
            (sent, failed) = (sent + s.sent, failed + s.failed);
            (latency_s, submit_s) = (latency_s + s.latency_s, submit_s + s.submit_s);
            stats.served += s.stats.served;
            stats.batches += s.stats.batches;
            stats.rejected_overload += s.stats.rejected_overload;
            stats.rejected_rate += s.stats.rejected_rate;
            Ok(())
        },
    )?;
    // Requests, not sessions, are what a serving run attempts.
    (out.attempted, out.failed) = (sent, failed);

    let scaled = |pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        sessions.iter().zip(&out.ops).map(|(s, op)| pick(s) / op.pace).collect()
    };
    let (p50s, p99s) = (scaled(|s| s.0), scaled(|s| s.1));
    let session_s: Vec<f64> = out.ops.iter().map(|t| t.scaled()).collect();
    let raw_s: Vec<f64> = out.ops.iter().map(|t| t.secs).collect();
    (out.p50_ms, out.tail_ms) = (median(&p50s), median(&p99s));
    out.throughput = p.sizes.session as f64 / median(&session_s);
    out.notes.push(format!(
        "unscaled: p50_ms={} tail_ms={} throughput={}",
        median(&sessions.iter().map(|s| s.0).collect::<Vec<_>>()),
        median(&sessions.iter().map(|s| s.1).collect::<Vec<_>>()),
        p.sizes.session as f64 / median(&raw_s)
    ));

    if p.trace {
        // The tree walk on its own: score as many rows as were served, in
        // full batches, on one thread.
        let rows: Vec<Vec<f64>> = fixture.pool.iter().map(|x| x.to_row()).collect();
        let (mut scratch, mut scored) = (ForecastScratch::default(), Vec::new());
        let (mut score_s, mut done) = (0.0, 0usize);
        while done < stats.served {
            let lo = done % rows.len();
            let hi = (lo + SCORE_BATCH).min(rows.len()).min(lo + stats.served - done);
            let t = Instant::now();
            fixture.model.forecast_rows_into(&rows[lo..hi], &mut scratch, &mut scored)?;
            score_s += t.elapsed().as_secs_f64();
            done += hi - lo;
        }
        let (attacks, bots) = fixture.corpus_size;
        let spent = out.spent();
        let l = &mut out.layers;
        l.insert("serve.submit_pct", 100.0 * submit_s / latency_s);
        l.insert("serve.score_pct", 100.0 * score_s / spent);
        l.insert("serve.batch.mean_len", stats.served as f64 / stats.batches.max(1) as f64);
        l.insert("serve.batch.flushes", stats.batches as f64);
        l.insert("serve.rejected", (stats.rejected_overload + stats.rejected_rate) as f64);
        l.insert("trace.generate_s", median(&generate_s));
        l.insert("trace.records", attacks as f64);
        l.insert("trace.bots_per_record", bots as f64 / attacks.max(1) as f64);
    }
    out.notes.push(format!(
        "samples: setup={} sessions={} sent={sent} failed={failed} pool={}",
        out.setups.len(),
        out.ops.len(),
        fixture.pool.len()
    ));
    Ok(out)
}

/// One session, from the calling thread alone: it waits for the oldest
/// answer, checks that it carries its pool row's forecast bit for bit,
/// and sends the next request in its place. One thread both sends and
/// collects, so the load adds one runnable thread to the service's own.
/// Requests continue the run's seeded order, from seeded sources.
fn session(
    f: &ServeFixture,
    order: &[usize],
    handle: ServeHandle,
    k: usize,
    p: &Params,
) -> Res<Session> {
    let client = handle.client();
    let first = (k * p.sizes.session) as u64;
    let mut in_flight = VecDeque::with_capacity(OUTSTANDING);
    let (mut sent, mut failed, mut submit_s) = (0u64, 0u64, 0.0);
    let mut latency = Windowed::default();
    loop {
        while in_flight.len() < OUTSTANDING && (sent as usize) < p.sizes.session {
            let i = first + sent;
            let idx = order[i as usize % order.len()];
            let source = mix(p.seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)) % SOURCES;
            let request =
                ForecastRequest { source, target: Asn(idx as u32), features: f.pool[idx] };
            let t = Instant::now();
            let ticket = client.submit(request);
            if p.trace {
                submit_s += t.elapsed().as_secs_f64();
            }
            in_flight.push_back((idx, t, ticket));
            sent += 1;
        }
        let Some((idx, t, ticket)) = in_flight.pop_front() else { break };
        let failure = match ticket.and_then(ForecastTicket::wait) {
            Ok(r) if r.target.0 as usize == idx && same_bits(&r.forecast, &f.expected[idx]) => {
                latency.push(t.elapsed().as_secs_f64() * 1e3);
                continue;
            }
            Ok(_) => format!("the response for pool row {idx} differs from serial scoring"),
            Err(e) => e.to_string(),
        };
        if failed == 0 {
            eprintln!("perfbench: request failed: {failure}");
        }
        failed += 1;
    }
    drop(client);
    let stats = handle.shutdown()?;
    let latency_s = latency.sum_ms / 1e3;
    let (p50_ms, p99_ms) = latency.finish();
    Ok(Session { sent, failed, p50_ms, p99_ms, latency_s, submit_s, stats })
}

// ------------------------------------------------------------------ st-refit

struct RefitFixture {
    corpus: Corpus,
    /// `(lo, hi)` attack ranges, one per window.
    windows: Vec<(usize, usize)>,
    probe: Vec<Vec<f64>>,
}

fn refit_fixture(p: &Params, generate_s: &mut Vec<f64>) -> Res<RefitFixture> {
    let corpus = generate(&p.sizes.refit_corpus, generate_s)?;
    let attacks = corpus.attacks();
    let windows = p
        .sizes
        .refit_ends
        .iter()
        .map(|&end| {
            let hi = attacks.partition_point(|a| a.start.day() < end);
            let lo =
                hi.checked_sub(p.sizes.refit_window).ok_or("a refit window starts before day 0")?;
            Ok((lo, hi))
        })
        .collect::<Res<Vec<_>>>()?;
    // Probe rows: a seeded sample of the last window's design.
    let &(lo, hi) = windows.last().ok_or("no refit windows")?;
    let (rows, _) = SpatioTemporalModel::training_design(&attacks[lo..hi], &st_config(), p.seed)?;
    let probe = (0..p.sizes.probe_rows as u64)
        .map(|i| rows[(mix(p.seed ^ i) % rows.len() as u64) as usize].clone())
        .collect();
    Ok(RefitFixture { corpus, windows, probe })
}

fn st_refit(p: &Params) -> Res<Outcome> {
    let mut out = Outcome::new();
    let work = WorkDir::new("refit")?;
    let path = work.0.join(format!("{MODEL_KEY}.mdl"));
    let mut generate_s = Vec::new();
    let fixture = set_up(p.sizes.setup_reps, &mut out, || refit_fixture(p, &mut generate_s))?;
    let config = st_config();
    let attacks = fixture.corpus.attacks();
    let order = permutation(fixture.windows.len(), p.seed);
    let window = |k: usize| {
        let (lo, hi) = fixture.windows[order[k % order.len()]];
        &attacks[lo..hi]
    };
    let mut stages = Stages::new(p.trace);
    let mut scratch = ForecastScratch::default();
    let (mut check_scratch, mut reference) = (ForecastScratch::default(), Vec::new());

    // New attacks → servable model: fit, publish, cold-load, score.
    let refit = |k: usize, stages: &mut Stages, scratch: &mut ForecastScratch| -> Res<_> {
        let model = stages.time("core.spatiotemporal.fit_pct", || {
            SpatioTemporalModel::fit(&fixture.corpus, window(k), &config, p.seed)
        })?;
        stages.time("serve.store.publish_pct", || model.save_artifact(&path))?;
        let loaded = stages
            .time("serve.store.load_cold_pct", || DirModelStore::open(&work.0).load(MODEL_KEY))?;
        let mut scored = Vec::with_capacity(fixture.probe.len());
        stages.time("serve.score_pct", || {
            loaded.forecast_rows_into(&fixture.probe, scratch, &mut scored)
        })?;
        Ok((model, scored))
    };
    repeat_for(
        p.seconds,
        &mut out,
        || Ok(()),
        |k, ()| refit(k, &mut stages, &mut scratch),
        |(model, scored)| {
            model
                .forecast_rows_into(&fixture.probe, &mut check_scratch, &mut reference)
                .map_err(|e| e.to_string())?;
            let same = scored.len() == reference.len()
                && scored.iter().zip(&reference).all(|(a, b)| same_bits(a, b));
            same.then_some(()).ok_or_else(|| "the loaded model forecasts differently".into())
        },
    )?;

    if p.trace {
        // The fit's two halves and the artifact codec, each timed on its
        // own over the first windows the run refitted.
        let (ops, reps) = (out.ops.len(), out.ops.len().min(TRACE_REPS));
        let mut design_rows = 0usize;
        for k in 0..reps {
            let (rows, _) = stages.time("core.spatiotemporal.design_pct", || {
                SpatioTemporalModel::training_design(window(k), &config, p.seed)
            })?;
            design_rows = rows.len();
        }
        let model = SpatioTemporalModel::load_artifact(&path)?;
        let mut artifact_bytes = 0usize;
        for _ in 0..reps {
            let bytes = stages.time("core.artifact.encode_pct", || model.to_artifact_bytes());
            stages.time("core.artifact.decode_pct", || {
                SpatioTemporalModel::from_artifact_bytes(&bytes)
            })?;
            artifact_bytes = bytes.len();
        }
        for name in [
            "core.spatiotemporal.design_pct",
            "core.artifact.encode_pct",
            "core.artifact.decode_pct",
        ] {
            stages.extrapolate(name, reps, ops);
        }
        let trees = stages.get("core.spatiotemporal.fit_pct")
            - stages.get("core.spatiotemporal.design_pct");
        stages.secs.insert("core.spatiotemporal.trees_pct", trees);
        let covering = [
            "core.spatiotemporal.fit_pct",
            "serve.store.publish_pct",
            "serve.store.load_cold_pct",
            "serve.score_pct",
        ];
        stages.shares_into(out.spent(), &covering, &mut out.layers);
        corpus_layers(&fixture.corpus, &generate_s, &mut out.layers);
        out.layers.insert("core.spatiotemporal.design_rows", design_rows as f64);
        out.layers.insert("core.artifact.bytes", artifact_bytes as f64);
    }
    out.summarize_ops(1.0);
    out.notes.push(format!(
        "samples: setup={} refits={} windows={} window_attacks={} probe_rows={}",
        out.setups.len(),
        out.ops.len(),
        fixture.windows.len(),
        p.sizes.refit_window,
        fixture.probe.len()
    ));
    Ok(out)
}
