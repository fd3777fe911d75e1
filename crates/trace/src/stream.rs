//! Constant-memory streaming corpus generation.
//!
//! [`CorpusStream`] yields the attacks of a family-partitioned corpus in
//! final sorted order **without materializing the corpus**: each family
//! draws from its own `family_seed`-derived RNG
//! stream, generation proceeds in bounded windows of days fanned across
//! the deterministic sharded executor, and a small reorder buffer emits
//! records as soon as no family can still produce an earlier one. The
//! yielded sequence is bit-identical to
//! [`crate::TraceGenerator::generate_partitioned`] for the same seed at
//! any worker count or chunk size — the executor reduces per-family
//! results in index order, so parallelism is a throughput knob, not a
//! semantic one.
//!
//! Each family advances through `FamilyGen`, the per-day attack loop
//! that [`crate::TraceGenerator`] also runs for both of its generators;
//! the stream adds only the day windows, the fan-out and the reorder
//! buffer.
//!
//! Memory is bounded by the substrate (topology, address plan, bot pools)
//! plus the reorder buffer, whose size is governed by the chunk width and
//! the 24-hour multistage band — not by the corpus length. That is what
//! makes [`crate::CorpusConfig::internet`] (≈5 M attacks) tractable.

use crate::arrival::{place_within_day_in_regime, ArrivalSchedule, DayPlan};
use crate::attack::{AttackId, AttackRecord};
use crate::bots::{BotPool, SamplerScratch};
use crate::family::{FamilyCatalog, FamilyId, FamilyProfile};
use crate::generator::{
    build_attack, build_substrate, family_pickers, family_seed, pick_target, preferred_launch,
    rank_weights, CorpusConfig, DurationState, Substrate,
};
use crate::scenario::RegimeSchedule;
use crate::targets::{TargetId, TargetPopulation};
use crate::time::{Timestamp, DAY};
use crate::{Result, TraceError};
use ddos_astopo::ipmap::{IpAsnMap, Prefix};
use ddos_astopo::{AsGraph, Asn};
use ddos_stats::distributions::Categorical;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Resumable single-family generation state: the crate's one per-day
/// attack loop.
///
/// The family owns the RNG it was built with. Given a family-private
/// [`family_seed`] stream it can be advanced in day windows and in any
/// interleaving with other families without changing its output (the
/// stream and [`crate::TraceGenerator::generate_partitioned`]); given the
/// corpus's main RNG, advanced to the end and handed back through
/// [`FamilyGen::into_rng`], it is one step of the single-stream
/// [`crate::TraceGenerator::generate`]. Records leave with their
/// per-family sequence number stashed in `id`; the consumer re-assigns
/// dense global ids after the merge sort.
pub(crate) struct FamilyGen {
    family: FamilyId,
    profile: FamilyProfile,
    days: u32,
    pool: BotPool,
    sampler: SamplerScratch,
    schedule: ArrivalSchedule,
    next_plan: usize,
    /// Precomputed regime timeline: a pure function of `(policy, profile,
    /// seed, slot)`, looked up by plan day, so regime state advances
    /// identically no matter how `advance` calls chunk the window.
    regimes: RegimeSchedule,
    regime_idx: usize,
    /// `1/(r+1)^target_zipf` for every preference rank `r`, which each
    /// picker rebuild gathers in its regime's rotated order.
    rank_weights: Vec<f64>,
    target_picker: Categorical,
    vector_picker: Categorical,
    targets: Arc<TargetPopulation>,
    rng: StdRng,
    prev: Option<(TargetId, Timestamp)>,
    duration_state: DurationState,
    seq: u64,
}

impl FamilyGen {
    /// Builds the family's pool, schedule and pickers, drawing from `rng`,
    /// which the family then owns for every later draw (see
    /// [`FamilyGen::into_rng`] to take it back).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        family: FamilyId,
        profile: FamilyProfile,
        config: &CorpusConfig,
        seed: u64,
        topology: &AsGraph,
        allocations: &BTreeMap<Asn, Vec<Prefix>>,
        targets: Arc<TargetPopulation>,
        mut rng: StdRng,
    ) -> Result<Self> {
        let slot = family.0;
        // The regime timeline draws from its own splitmix64 stream, never
        // from the family RNG, so the policy cannot shift generation draws
        // it does not parameterize.
        let regimes = RegimeSchedule::generate(config.scenario, &profile, config.days, seed, slot);
        let pool = BotPool::recruit(topology, allocations, &profile, slot, &mut rng)?;
        let schedule =
            ArrivalSchedule::generate_in_scenario(&profile, config.days, slot, &regimes, &mut rng)?;
        let rank_weights = rank_weights(profile.target_zipf, targets.len());
        let (target_picker, vector_picker) =
            family_pickers(&rank_weights, slot, &targets, &regimes.regimes()[0].params)?;
        Ok(FamilyGen {
            family,
            profile,
            days: config.days,
            pool,
            sampler: SamplerScratch::default(),
            schedule,
            next_plan: 0,
            regimes,
            regime_idx: 0,
            rank_weights,
            target_picker,
            vector_picker,
            targets,
            rng,
            prev: None,
            duration_state: DurationState::new(),
            seq: 0,
        })
    }

    /// Generates every attack from plans with `day < until_day`, appending
    /// to `out`. Each record's `id` carries the per-family sequence number
    /// (the stable-sort tiebreak); the caller assigns real ids later.
    pub(crate) fn advance(&mut self, until_day: u32, out: &mut Vec<AttackRecord>) -> Result<()> {
        while let Some(plan) = self.schedule.days().get(self.next_plan) {
            let plan: DayPlan = *plan;
            if plan.day >= until_day {
                break;
            }
            self.next_plan += 1;
            // Advance the regime cursor to the plan's day. Plans are
            // chronological and the timeline is precomputed, so this is
            // invariant to how callers chunk `until_day` — the safe-
            // emission bound never interacts with regime state.
            let idx = self.regimes.index_at(plan.day);
            if idx != self.regime_idx {
                self.regime_idx = idx;
                let (t, v) = family_pickers(
                    &self.rank_weights,
                    self.family.0,
                    &self.targets,
                    &self.regimes.regimes()[idx].params,
                )?;
                self.target_picker = t;
                self.vector_picker = v;
            }
            let params = self.regimes.regimes()[self.regime_idx].params;
            let launches = place_within_day_in_regime(
                plan.day,
                plan.count,
                &self.profile,
                &params,
                &mut self.rng,
            )?;
            // The activity multiplier couples magnitudes to the day's latent
            // rate, giving the temporal model real structure.
            let activity = (plan.rate / self.profile.avg_attacks_per_day).powf(0.8);
            for ts in launches {
                let (target_id, mut start, multistage) = pick_target(
                    self.days,
                    self.profile.multistage_prob,
                    &self.prev,
                    ts,
                    &self.target_picker,
                    &mut self.rng,
                )?;
                if !multistage && self.rng.gen_bool(self.profile.hour_affinity) {
                    start =
                        preferred_launch(start, target_id, &self.profile, &params, &mut self.rng);
                }
                let target = self.targets.target(target_id)?;
                let vector =
                    crate::attack::AttackVector::ALL[self.vector_picker.sample(&mut self.rng)];
                let mut record = build_attack(
                    self.family,
                    &self.profile,
                    &params,
                    &self.pool,
                    &mut self.sampler,
                    target_id,
                    target.asn,
                    start,
                    activity,
                    multistage,
                    vector,
                    &mut self.duration_state,
                    &mut self.rng,
                )?;
                record.id = AttackId(self.seq);
                self.seq += 1;
                self.prev = Some((target_id, start));
                out.push(record);
            }
        }
        Ok(())
    }

    /// Hands back the RNG, positioned after every draw this family made.
    pub(crate) fn into_rng(self) -> StdRng {
        self.rng
    }

    /// A lower bound (seconds) on the start of any attack this family can
    /// still produce: the next unprocessed plan's day floor, tightened by
    /// the earliest possible multistage follow-up (30 s after the last
    /// launch). `u64::MAX` once the schedule is exhausted — a multistage
    /// attack only ever rides on a scheduled launch.
    pub(crate) fn start_lower_bound(&self) -> u64 {
        let Some(plan) = self.schedule.days().get(self.next_plan) else {
            return u64::MAX;
        };
        let plan_floor = plan.day as u64 * DAY;
        match self.prev {
            Some((_, prev_start)) => plan_floor.min(prev_start.as_secs() + 30),
            None => plan_floor,
        }
    }
}

/// Tuning knobs for [`CorpusStream`]. The defaults (64-day chunks, auto
/// parallelism) are right for anything bigger than a toy corpus; smaller
/// chunks shrink the reorder buffer at the cost of more rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Days generated per family per round (at least 1).
    pub chunk_days: u32,
    /// Worker threads for the per-family fan-out; `None` = all cores.
    /// **Never changes the output** — results reduce in family order.
    pub parallelism: Option<usize>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { chunk_days: 64, parallelism: None }
    }
}

/// A pull-based iterator over a family-partitioned corpus in final order.
///
/// Yields `Result<AttackRecord>` with dense chronological ids, exactly as
/// [`crate::TraceGenerator::generate_partitioned`] would store them, while
/// holding only one generation window plus a reorder buffer in memory. The
/// substrate (catalog, topology, address plan, targets) stays resident and
/// is exposed through accessors so consumers can resolve records without a
/// [`crate::Corpus`].
///
/// # Example
///
/// ```
/// use ddos_trace::stream::CorpusStream;
/// use ddos_trace::CorpusConfig;
///
/// # fn main() -> Result<(), ddos_trace::TraceError> {
/// let n = CorpusStream::new(CorpusConfig::small(), 7)?
///     .map(|r| r.map(|_| 1u64))
///     .sum::<Result<u64, _>>()?;
/// assert!(n > 0);
/// # Ok(())
/// # }
/// ```
pub struct CorpusStream {
    families: Vec<Mutex<FamilyGen>>,
    catalog: FamilyCatalog,
    topology: AsGraph,
    ipmap: IpAsnMap,
    targets: Arc<TargetPopulation>,
    days: u32,
    options: StreamOptions,
    next_day: u32,
    pending: Vec<AttackRecord>,
    ready: std::collections::VecDeque<AttackRecord>,
    next_id: u64,
    fused: bool,
}

impl CorpusStream {
    /// Opens a stream with default [`StreamOptions`].
    ///
    /// # Errors
    ///
    /// Propagates configuration, topology and sampling errors.
    pub fn new(config: CorpusConfig, seed: u64) -> Result<Self> {
        CorpusStream::with_options(config, seed, StreamOptions::default())
    }

    /// Opens a stream with explicit chunking and parallelism.
    ///
    /// # Errors
    ///
    /// Propagates configuration, topology and sampling errors; rejects a
    /// zero `chunk_days`.
    pub fn with_options(config: CorpusConfig, seed: u64, options: StreamOptions) -> Result<Self> {
        if options.chunk_days == 0 {
            return Err(TraceError::InvalidConfig {
                detail: "chunk_days must be nonzero".to_string(),
            });
        }
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let Substrate { topology, ipmap, allocations, targets } =
            build_substrate(&config, seed, &mut rng)?;
        let targets = Arc::new(targets);
        let families = config
            .catalog
            .iter()
            .map(|(family_id, profile)| {
                FamilyGen::new(
                    family_id,
                    profile.clone(),
                    &config,
                    seed,
                    &topology,
                    &allocations,
                    Arc::clone(&targets),
                    StdRng::seed_from_u64(family_seed(seed, family_id.0)),
                )
                .map(Mutex::new)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(CorpusStream {
            families,
            catalog: config.catalog,
            topology,
            ipmap,
            targets,
            days: config.days,
            options,
            next_day: 0,
            pending: Vec::new(),
            ready: std::collections::VecDeque::new(),
            next_id: 0,
            fused: false,
        })
    }

    /// The family catalog behind the stream.
    pub fn catalog(&self) -> &FamilyCatalog {
        &self.catalog
    }

    /// The synthetic AS-level topology.
    pub fn topology(&self) -> &AsGraph {
        &self.topology
    }

    /// Longest-prefix IP → AS mapping.
    pub fn ip_map(&self) -> &IpAsnMap {
        &self.ipmap
    }

    /// The target population.
    pub fn targets(&self) -> &TargetPopulation {
        &self.targets
    }

    /// Observation-window length in days.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Records yielded so far.
    pub fn emitted(&self) -> u64 {
        self.next_id
    }

    /// Runs one generation round (every family advances `chunk_days`),
    /// then drains every pending record that no family can still precede
    /// into the ready queue in final order.
    fn pump(&mut self) -> Result<()> {
        let exhausted = self.next_day >= self.days;
        let bound = if exhausted {
            // No family can produce anything further; drain everything.
            self.families
                .iter()
                .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner).start_lower_bound())
                .min()
                .unwrap_or(u64::MAX)
        } else {
            let until = self.days.min(self.next_day.saturating_add(self.options.chunk_days));
            let results = ddos_stats::exec::map_indexed(
                &self.families,
                self.options.parallelism,
                |_, slot: &Mutex<FamilyGen>| -> Result<(Vec<AttackRecord>, u64)> {
                    let mut fam = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    let mut out = Vec::new();
                    fam.advance(until, &mut out)?;
                    Ok((out, fam.start_lower_bound()))
                },
            );
            self.next_day = until;
            // Index-order reduction: family 0's chunk lands before family
            // 1's regardless of which worker finished first.
            let mut bound = u64::MAX;
            for result in results {
                let (records, lb) = result?;
                self.pending.extend(records);
                bound = bound.min(lb);
            }
            bound
        };

        // Final order is the stable sort by (start, family, target) over
        // catalog-order concatenation; the per-family sequence number
        // stashed in `id` reproduces that stability under an unstable key.
        self.pending.sort_unstable_by_key(|a| (a.start, a.family, a.target, a.id));
        let cut = self.pending.partition_point(|a| a.start.as_secs() < bound);
        for mut record in self.pending.drain(..cut) {
            record.id = AttackId(self.next_id);
            self.next_id += 1;
            self.ready.push_back(record);
        }
        Ok(())
    }
}

impl Iterator for CorpusStream {
    type Item = Result<AttackRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        loop {
            if let Some(record) = self.ready.pop_front() {
                return Some(Ok(record));
            }
            if self.next_day >= self.days && self.pending.is_empty() {
                self.fused = true;
                return None;
            }
            if let Err(e) = self.pump() {
                self.fused = true;
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;

    fn reference(seed: u64) -> crate::Corpus {
        TraceGenerator::new(CorpusConfig::small(), seed).generate_partitioned().unwrap()
    }

    #[test]
    fn zero_chunk_days_is_a_typed_error() {
        let opts = StreamOptions { chunk_days: 0, parallelism: None };
        let Err(err) = CorpusStream::with_options(CorpusConfig::small(), 1, opts) else {
            panic!("zero chunk_days accepted");
        };
        assert!(matches!(
            err,
            crate::TraceError::InvalidConfig { ref detail } if detail.contains("chunk_days")
        ));
    }

    #[test]
    fn stream_matches_partitioned_generation_bit_for_bit() {
        let corpus = reference(42);
        let streamed: Vec<AttackRecord> =
            CorpusStream::new(CorpusConfig::small(), 42).unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(streamed.len(), corpus.len());
        for (s, c) in streamed.iter().zip(corpus.attacks()) {
            assert_eq!(s, c);
        }
    }

    #[test]
    fn worker_count_and_chunking_never_change_the_stream() {
        let baseline: Vec<AttackRecord> =
            CorpusStream::new(CorpusConfig::small(), 9).unwrap().collect::<Result<_>>().unwrap();
        for (chunk_days, parallelism) in [(1, Some(1)), (7, Some(4)), (200, Some(2)), (13, None)] {
            let opts = StreamOptions { chunk_days, parallelism };
            let run: Vec<AttackRecord> = CorpusStream::with_options(CorpusConfig::small(), 9, opts)
                .unwrap()
                .collect::<Result<_>>()
                .unwrap();
            assert_eq!(run, baseline, "diverged at chunk={chunk_days} par={parallelism:?}");
        }
    }

    #[test]
    fn stream_is_chronological_with_dense_ids() {
        let records: Vec<AttackRecord> =
            CorpusStream::new(CorpusConfig::small(), 11).unwrap().collect::<Result<_>>().unwrap();
        assert!(!records.is_empty());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id, AttackId(i as u64));
            assert!(r.is_consistent());
        }
        for w in records.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn partitioned_generation_is_deterministic_and_plausible() {
        let a = reference(5);
        let b = reference(5);
        assert_eq!(a, b);
        let expected: f64 =
            CorpusConfig::small().catalog.iter().map(|(_, f)| f.expected_attacks()).sum();
        let n = a.len() as f64;
        assert!(n > expected * 0.5 && n < expected * 1.6, "{n} vs {expected}");
    }

    #[test]
    fn zero_chunk_rejected() {
        let opts = StreamOptions { chunk_days: 0, parallelism: None };
        assert!(CorpusStream::with_options(CorpusConfig::small(), 1, opts).is_err());
    }
}
