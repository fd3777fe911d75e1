//! Per-family bot pools with AS affinity and temporal churn.
//!
//! A family's pool is recruited once per trace: bots are placed into stub
//! ASes drawn from a region-weighted Zipf (families concentrate in few
//! networks — the geolocation affinity of §II-B). At attack time the
//! participants are sampled from a *rotating window* over the pool, so the
//! set of source ASes drifts slowly across the trace: "the bots involved in
//! an attack may rotate or shift" (§III-B1). That drift is precisely the
//! signal the temporal `A^s` series and the spatial model consume.
//!
//! Trace generation costs per sampled bot, not per attack: a 200-day
//! rotation-burst pass over the full catalog draws ~14.5 M participants
//! for ~53 k attacks. The sampler is therefore a partial Fisher–Yates on
//! a dense, reusable slot permutation ([`SamplerScratch`]) that each
//! call restores to the identity by undoing only the slots it drew —
//! O(count) per call, one array read and two writes per bot, and
//! draw-for-draw identical to shuffling a dense copy of the window
//! (DESIGN.md §19).

use crate::attack::BotObservation;
use crate::family::FamilyProfile;
use crate::{Result, TraceError};
use ddos_astopo::graph::{AsGraph, Tier};
use ddos_astopo::ipmap::Prefix;
use ddos_astopo::Asn;
use ddos_stats::distributions::Categorical;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A botnet family's recruited bot population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BotPool {
    bots: Vec<BotObservation>,
    /// Fraction of the pool the rotation window advances per day.
    churn_per_day: f64,
    /// Fraction of the pool inside the active window.
    window_fraction: f64,
}

impl BotPool {
    /// Recruits a pool for `profile` over the stub ASes of `graph`.
    ///
    /// AS selection layers the family's regional affinity over a Zipf
    /// concentration (rank order deterministic in the ASN sort, offset by
    /// `family_slot` so families prefer different networks).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] when the graph has no stub
    /// ASes or allocations are missing.
    pub fn recruit<R: Rng + ?Sized>(
        graph: &AsGraph,
        allocations: &BTreeMap<Asn, Vec<Prefix>>,
        profile: &FamilyProfile,
        family_slot: usize,
        rng: &mut R,
    ) -> Result<Self> {
        let stubs = graph.tier_members(Tier::Stub);
        if stubs.is_empty() {
            return Err(TraceError::InvalidConfig {
                detail: "topology has no stub ASes to host bots".to_string(),
            });
        }
        // Regional weight per stub.
        let mut weights = Vec::with_capacity(stubs.len());
        for s in &stubs {
            let info = graph.info(*s).ok_or_else(|| TraceError::InvalidConfig {
                detail: format!("{s} listed as a stub but missing from the topology"),
            })?;
            let region = info.region as usize;
            weights.push(profile.region_weights[region % profile.region_weights.len()].max(1e-6));
        }

        // Zipf rank over a rotated stub order: family_slot shifts which
        // ASes take the head ranks.
        let zipf_weight = |rank: usize| 1.0 / ((rank + 1) as f64).powf(profile.as_concentration);
        let composed: Vec<f64> = (0..stubs.len())
            .map(|i| {
                let rank = (i + stubs.len() - family_slot * 7 % stubs.len()) % stubs.len();
                weights[i] * zipf_weight(rank)
            })
            .collect();
        let picker = Categorical::new(&composed).map_err(TraceError::Stats)?;

        let mut bots = Vec::with_capacity(profile.pool_size);
        let mut used: BTreeSet<u32> = BTreeSet::new();
        while bots.len() < profile.pool_size {
            let asn = stubs[picker.sample(rng)];
            let prefixes = allocations.get(&asn).ok_or_else(|| TraceError::InvalidConfig {
                detail: format!("{asn} has no prefix allocation"),
            })?;
            let prefix = prefixes[rng.gen_range(0..prefixes.len())];
            let ip = prefix.address(rng.gen_range(1..prefix.size()));
            if used.insert(ip) {
                bots.push(BotObservation { ip, asn });
            }
        }
        Ok(BotPool { bots, churn_per_day: 0.013, window_fraction: 0.5 })
    }

    /// Number of bots in the pool.
    pub fn len(&self) -> usize {
        self.bots.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.bots.is_empty()
    }

    /// All bots (stable order).
    pub fn bots(&self) -> &[BotObservation] {
        &self.bots
    }

    /// Distinct ASes hosting pool bots, ascending.
    pub fn asns(&self) -> Vec<Asn> {
        let set: BTreeSet<Asn> = self.bots.iter().map(|b| b.asn).collect();
        set.into_iter().collect()
    }

    /// Window length and circular start index of the active window on
    /// `day`, with the window fraction scaled by the governing regime's
    /// pool engagement. `None` for an empty pool. An engagement of 1.0
    /// reproduces the calibrated window bit-exactly (`x * 1.0` is exact).
    fn window_bounds(&self, day: u32, engagement: f64) -> Option<(usize, usize)> {
        let n = self.bots.len();
        if n == 0 {
            return None;
        }
        let fraction = self.window_fraction * engagement;
        let window = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
        let start = ((day as f64 * self.churn_per_day * n as f64) as usize) % n;
        Some((window, start))
    }

    /// The set of bots considered *active* on `day`: a circular window over
    /// the pool that advances by `churn_per_day · len` indices per day.
    pub fn active_window(&self, day: u32) -> Vec<BotObservation> {
        let Some((window, start)) = self.window_bounds(day, 1.0) else { return Vec::new() };
        let n = self.bots.len();
        (0..window).map(|i| self.bots[(start + i) % n]).collect()
    }

    /// Samples `count` distinct participants for an attack launched on
    /// `day`. When `count` exceeds the day's active window, the whole
    /// window participates.
    ///
    /// The sample is a partial Fisher–Yates shuffle of the window, run on
    /// `scratch`'s reusable permutation so a call costs O(`count`), not
    /// O(window). See [`SamplerScratch`] for why the result is
    /// draw-for-draw identical to shuffling a dense copy of the window.
    pub fn participants<R: Rng + ?Sized>(
        &self,
        day: u32,
        count: usize,
        scratch: &mut SamplerScratch,
        rng: &mut R,
    ) -> Vec<BotObservation> {
        self.participants_engaged(1.0, day, count, scratch, rng)
    }

    /// [`BotPool::participants`] under a regime view: the active window is
    /// widened (or narrowed) by the regime's
    /// [`crate::scenario::RegimeParams::pool_engagement`] before sampling —
    /// bursts mobilize more of the pool, lulls less. Engagement 1.0 is
    /// draw-for-draw identical to the calibrated sampler.
    pub fn participants_in_regime<R: Rng + ?Sized>(
        &self,
        params: &crate::scenario::RegimeParams,
        day: u32,
        count: usize,
        scratch: &mut SamplerScratch,
        rng: &mut R,
    ) -> Vec<BotObservation> {
        self.participants_engaged(params.pool_engagement, day, count, scratch, rng)
    }

    fn participants_engaged<R: Rng + ?Sized>(
        &self,
        engagement: f64,
        day: u32,
        count: usize,
        scratch: &mut SamplerScratch,
        rng: &mut R,
    ) -> Vec<BotObservation> {
        let Some((window, start)) = self.window_bounds(day, engagement) else { return Vec::new() };
        let n = self.bots.len();
        // `start < n` and `slot < window <= n`, so one conditional
        // subtract is the exact `(start + slot) % n`.
        let at = |slot: u32| {
            let k = start + slot as usize;
            self.bots[if k >= n { k - n } else { k }]
        };
        if count >= window {
            return (0..window as u32).map(at).collect();
        }
        let SamplerScratch { perm, drawn } = scratch;
        // Grow the identity permutation to cover this pool's window. The
        // validated pool size bounds `window` by `u32::MAX`.
        if perm.len() < window {
            perm.extend(perm.len() as u32..window as u32);
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let j = rng.gen_range(i..window);
            // Slot i is final after this step (later draws only touch
            // slots > i), so only slot j needs the swapped-out value.
            out.push(at(perm[j]));
            perm[j] = perm[i];
            drawn.push(j as u32);
        }
        // Every write above went to a drawn slot j, so resetting those
        // slots restores the identity for the next call.
        for j in drawn.drain(..) {
            perm[j as usize] = j;
        }
        out
    }
}

/// Reusable scratch for [`BotPool::participants`]: a permutation over
/// window slots kept at the identity between calls, plus the slots the
/// current call drew.
///
/// A partial Fisher–Yates over a dense window copy swaps `w[i]` and
/// `w[j]` for `i < count`. The sampler runs the same swaps on slot
/// indices instead of bots: at step `i`, `perm[i]` still holds the slot
/// the dense shuffle would have at `w[i]` (a slot is written only when it
/// is a draw `j`, and every earlier draw was `≥` its own step, so a write
/// to `perm[i]` before step `i` is exactly the dense swap). The emitted
/// bot is `w[perm[j]]`, the `gen_range(i..window)` calls are the same and
/// in the same order, so participants and the RNG stream position match
/// the dense shuffle exactly, while a call touches only O(`count`)
/// memory. One scratch serves pools of any size: the permutation grows to
/// the largest window it has seen and is never shrunk.
#[derive(Debug, Default)]
pub struct SamplerScratch {
    perm: Vec<u32>,
    drawn: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::FamilyCatalog;
    use ddos_astopo::gen::{TopologyConfig, TopologyGenerator};
    use ddos_astopo::ipmap::PrefixAllocator;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (AsGraph, BTreeMap<Asn, Vec<Prefix>>) {
        let g = TopologyGenerator::new(TopologyConfig::small(), 61).generate().unwrap();
        let (_, allocs) = PrefixAllocator::new().allocate_for(&g).unwrap();
        (g, allocs)
    }

    fn pool(seed: u64) -> BotPool {
        let (g, allocs) = setup();
        let cat = FamilyCatalog::small();
        let profile = cat.profile(crate::family::FamilyId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        BotPool::recruit(&g, &allocs, profile, 0, &mut rng).unwrap()
    }

    #[test]
    fn pool_has_requested_size_and_unique_ips() {
        let p = pool(1);
        let cat = FamilyCatalog::small();
        assert_eq!(p.len(), cat.profile(crate::family::FamilyId(0)).unwrap().pool_size);
        let ips: BTreeSet<u32> = p.bots().iter().map(|b| b.ip).collect();
        assert_eq!(ips.len(), p.len(), "duplicate IPs recruited");
        assert!(!p.is_empty());
    }

    #[test]
    fn bots_live_in_stub_ases() {
        let (g, allocs) = setup();
        let cat = FamilyCatalog::small();
        let profile = cat.profile(crate::family::FamilyId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let p = BotPool::recruit(&g, &allocs, profile, 1, &mut rng).unwrap();
        for b in p.bots() {
            assert_eq!(g.info(b.asn).unwrap().tier, Tier::Stub);
            assert!(allocs[&b.asn].iter().any(|pf| pf.contains(b.ip)));
        }
    }

    #[test]
    fn recruiting_over_a_stubless_topology_is_a_typed_error() {
        let cat = FamilyCatalog::small();
        let profile = cat.profile(crate::family::FamilyId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let err =
            BotPool::recruit(&AsGraph::new(), &BTreeMap::new(), profile, 0, &mut rng).unwrap_err();
        assert!(
            matches!(err, crate::TraceError::InvalidConfig { ref detail } if detail.contains("stub"))
        );
    }

    #[test]
    fn pool_is_as_concentrated() {
        let p = pool(3);
        // With a Zipf concentration the top AS should hold far more than a
        // uniform share.
        let hist: BTreeMap<Asn, usize> = p.bots().iter().fold(BTreeMap::new(), |mut m, b| {
            *m.entry(b.asn).or_insert(0) += 1;
            m
        });
        let max = *hist.values().max().unwrap();
        let uniform_share = p.len() / hist.len().max(1);
        assert!(max > uniform_share * 2, "max {max}, uniform {uniform_share}");
    }

    #[test]
    fn active_window_rotates_over_time() {
        let p = pool(4);
        let w0: BTreeSet<u32> = p.active_window(0).iter().map(|b| b.ip).collect();
        let w_far: BTreeSet<u32> = p.active_window(40).iter().map(|b| b.ip).collect();
        assert_eq!(w0.len(), w_far.len());
        let overlap = w0.intersection(&w_far).count();
        assert!(overlap < w0.len(), "window did not rotate");
        // Adjacent days overlap heavily (slow churn).
        let w1: BTreeSet<u32> = p.active_window(1).iter().map(|b| b.ip).collect();
        let near_overlap = w0.intersection(&w1).count();
        assert!(near_overlap as f64 > w0.len() as f64 * 0.9);
    }

    #[test]
    fn participants_are_distinct_and_from_window() {
        let p = pool(5);
        let mut rng = StdRng::seed_from_u64(6);
        let picks = p.participants(10, 50, &mut SamplerScratch::default(), &mut rng);
        assert_eq!(picks.len(), 50);
        let ips: BTreeSet<u32> = picks.iter().map(|b| b.ip).collect();
        assert_eq!(ips.len(), 50, "participants repeat");
        let window: BTreeSet<u32> = p.active_window(10).iter().map(|b| b.ip).collect();
        assert!(ips.iter().all(|ip| window.contains(ip)));
    }

    #[test]
    fn oversized_request_returns_whole_window() {
        let p = pool(7);
        let mut rng = StdRng::seed_from_u64(8);
        let picks = p.participants(0, p.len() * 2, &mut SamplerScratch::default(), &mut rng);
        assert_eq!(picks.len(), p.active_window(0).len());
    }

    /// The reference the sampler must reproduce: a partial Fisher–Yates
    /// over a dense copy of the engaged window.
    fn dense_shuffle(
        p: &BotPool,
        engagement: f64,
        day: u32,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<BotObservation> {
        let Some((window, start)) = p.window_bounds(day, engagement) else { return Vec::new() };
        let mut w: Vec<BotObservation> =
            (0..window).map(|i| p.bots()[(start + i) % p.len()]).collect();
        if count >= w.len() {
            return w;
        }
        for i in 0..count {
            let j = rng.gen_range(i..w.len());
            w.swap(i, j);
        }
        w.truncate(count);
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Same participants, same order, same RNG stream position as the
        /// dense shuffle, at any day and engagement (lulls, the calibrated
        /// 1.0, bursts) and at the boundary counts 0, 1, window − 1,
        /// window and beyond.
        #[test]
        fn sampling_matches_dense_shuffle(
            day in 0u32..400,
            engagement_kind in 0usize..4,
            free_engagement in 0.5f64..1.6,
            count_kind in 0usize..6,
            small in 2usize..200,
            seed in 0u64..u64::MAX,
        ) {
            let p = pool(11);
            let engagement = [1.0, 1.3, 0.8, free_engagement][engagement_kind];
            let (window, _) = p.window_bounds(day, engagement).unwrap();
            let count = match count_kind {
                0 => 0,
                1 => 1,
                2 => window - 1,
                3 => window,
                4 => window + small,
                _ => small.min(window),
            };
            let mut scratch = SamplerScratch::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let fast = p.participants_engaged(engagement, day, count, &mut scratch, &mut rng);
            let after_fast: u64 = rng.gen();

            let mut rng = StdRng::seed_from_u64(seed);
            let dense = dense_shuffle(&p, engagement, day, count, &mut rng);
            let after_dense: u64 = rng.gen();

            prop_assert!(fast == dense, "day {day} engagement {engagement} count {count}");
            prop_assert!(after_fast == after_dense, "RNG stream diverged at count {count}");
            // The scratch is back at the identity for the next call.
            prop_assert!(scratch.perm.iter().enumerate().all(|(k, &v)| v as usize == k));
            prop_assert!(scratch.drawn.is_empty());
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_across_pool_sizes() {
        // One scratch shared by a large and a small pool, alternating,
        // must give exactly what a fresh scratch gives on every call.
        let (g, allocs) = setup();
        let cat = FamilyCatalog::small();
        let big = pool(12);
        let mut profile = cat.profile(crate::family::FamilyId(1)).unwrap().clone();
        profile.pool_size = 97;
        profile.mean_magnitude = 10.0;
        let mut rng = StdRng::seed_from_u64(13);
        let small = BotPool::recruit(&g, &allocs, &profile, 1, &mut rng).unwrap();
        assert!(small.len() < big.len());

        let mut shared = SamplerScratch::default();
        let mut rng_shared = StdRng::seed_from_u64(14);
        let mut rng_fresh = StdRng::seed_from_u64(14);
        for (call, day) in (0u32..40).enumerate() {
            let p = if call % 2 == 0 { &small } else { &big };
            let count = [1usize, 5, 30, 48, 200][call % 5];
            let engagement = [1.0, 1.3, 0.8][call % 3];
            let reused =
                p.participants_engaged(engagement, day, count, &mut shared, &mut rng_shared);
            let fresh = p.participants_engaged(
                engagement,
                day,
                count,
                &mut SamplerScratch::default(),
                &mut rng_fresh,
            );
            assert_eq!(reused, fresh, "call {call}");
        }
        assert_eq!(rng_shared.gen::<u64>(), rng_fresh.gen::<u64>());
    }

    #[test]
    fn different_slots_prefer_different_ases() {
        let (g, allocs) = setup();
        let cat = FamilyCatalog::small();
        let profile = cat.profile(crate::family::FamilyId(0)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let p0 = BotPool::recruit(&g, &allocs, profile, 0, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let p5 = BotPool::recruit(&g, &allocs, profile, 5, &mut rng).unwrap();
        let top = |p: &BotPool| {
            let mut hist: BTreeMap<Asn, usize> = BTreeMap::new();
            for b in p.bots() {
                *hist.entry(b.asn).or_insert(0) += 1;
            }
            hist.into_iter().max_by_key(|(_, c)| *c).map(|(a, _)| a)
        };
        // Not guaranteed for every seed/slot pair, but with slot offset 35
        // ranks apart the heads should differ for this fixture.
        assert_ne!(top(&p0), top(&p5));
    }
}
