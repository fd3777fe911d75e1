//! Entropy-based early attack detection (§V-B).
//!
//! "Such capability could further facilitate effective defense mechanisms
//! via early DDoS attack detections, which could be achieved by evaluating
//! the entropy of AS distributions over all concurrent connections."
//!
//! [`EntropyDetector`] watches a sliding window of connection origins
//! (ASes). Benign traffic spreads across many networks → high Shannon
//! entropy; a botnet's connections concentrate in the family's affine
//! ASes → the entropy drops. The detector calibrates its threshold on a
//! benign-only stream and flags windows whose entropy falls more than a
//! configured number of benign standard deviations below the benign mean.

use crate::{ModelError, Result};
use ddos_astopo::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Shannon entropy (bits) of a categorical sample given as counts.
pub fn entropy_bits<I: IntoIterator<Item = u64>>(counts: I) -> f64 {
    let counts: Vec<u64> = counts.into_iter().filter(|c| *c > 0).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    -counts
        .iter()
        .map(|c| {
            let p = *c as f64 / total;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Sliding-window size in connections.
    pub window: usize,
    /// How many benign standard deviations below the benign mean entropy
    /// the alarm threshold sits.
    pub sigma_threshold: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { window: 200, sigma_threshold: 5.0 }
    }
}

/// A calibrated sliding-window entropy detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyDetector {
    config: DetectorConfig,
    benign_mean: f64,
    benign_std: f64,
    window: VecDeque<Asn>,
    counts: BTreeMap<Asn, u64>,
}

impl EntropyDetector {
    /// Calibrates on a benign connection stream: computes the windowed
    /// entropy over the stream and records its mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidConfig`] for a zero window or nonpositive
    ///   sigma threshold.
    /// * [`ModelError::NotEnoughHistory`] when the benign stream is
    ///   shorter than two windows.
    pub fn calibrate(benign: &[Asn], config: DetectorConfig) -> Result<Self> {
        if config.window == 0 || config.sigma_threshold <= 0.0 {
            return Err(ModelError::InvalidConfig {
                detail: "window must be nonzero and sigma threshold positive".to_string(),
            });
        }
        if benign.len() < config.window * 2 {
            return Err(ModelError::NotEnoughHistory {
                context: "benign calibration stream".to_string(),
                required: config.window * 2,
                actual: benign.len(),
            });
        }
        // Windowed entropies over the benign stream (stride = window/4 for
        // cheap but representative coverage).
        let stride = (config.window / 4).max(1);
        let mut entropies = Vec::new();
        let mut start = 0;
        while start + config.window <= benign.len() {
            let mut counts: BTreeMap<Asn, u64> = BTreeMap::new();
            for asn in &benign[start..start + config.window] {
                *counts.entry(*asn).or_insert(0) += 1;
            }
            entropies.push(entropy_bits(counts.into_values()));
            start += stride;
        }
        let mean = entropies.iter().sum::<f64>() / entropies.len() as f64;
        let var =
            entropies.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / entropies.len() as f64;
        Ok(EntropyDetector {
            config,
            benign_mean: mean,
            benign_std: var.sqrt().max(1e-6),
            window: VecDeque::with_capacity(config.window),
            counts: BTreeMap::new(),
        })
    }

    /// The alarm threshold in entropy bits.
    pub fn threshold(&self) -> f64 {
        self.benign_mean - self.config.sigma_threshold * self.benign_std
    }

    /// Mean benign windowed entropy observed during calibration.
    pub fn benign_mean(&self) -> f64 {
        self.benign_mean
    }

    /// Feeds one connection origin; returns `Some(entropy)` when the
    /// window is full and the entropy breaches the threshold (an alarm),
    /// `None` otherwise.
    pub fn observe(&mut self, asn: Asn) -> Option<f64> {
        self.window.push_back(asn);
        *self.counts.entry(asn).or_insert(0) += 1;
        if self.window.len() > self.config.window {
            if let Some(old) = self.window.pop_front() {
                if let Some(c) = self.counts.get_mut(&old) {
                    *c -= 1;
                    if *c == 0 {
                        self.counts.remove(&old);
                    }
                }
            }
        }
        if self.window.len() < self.config.window {
            return None;
        }
        let e = entropy_bits(self.counts.values().copied());
        if e < self.threshold() {
            Some(e)
        } else {
            None
        }
    }

    /// Runs the detector over a whole stream; returns the indices at which
    /// alarms fired.
    pub fn scan(&mut self, stream: &[Asn]) -> Vec<usize> {
        stream.iter().enumerate().filter_map(|(i, asn)| self.observe(*asn).map(|_| i)).collect()
    }

    /// Resets the sliding window (keeps the calibration).
    pub fn reset(&mut self) {
        self.window.clear();
        self.counts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn benign_stream(n: usize, n_ases: u32, seed: u64) -> Vec<Asn> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Asn(rng.gen_range(0..n_ases))).collect()
    }

    fn attack_stream(n: usize, seed: u64) -> Vec<Asn> {
        // Bot traffic from 3 affine ASes, heavily skewed.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let r: f64 = rng.gen();
                if r < 0.7 {
                    Asn(1000)
                } else if r < 0.9 {
                    Asn(1001)
                } else {
                    Asn(1002)
                }
            })
            .collect()
    }

    #[test]
    fn entropy_bits_known_values() {
        assert_eq!(entropy_bits([8]), 0.0); // single symbol
        assert!((entropy_bits([4, 4]) - 1.0).abs() < 1e-12); // fair coin
        assert!((entropy_bits([1, 1, 1, 1]) - 2.0).abs() < 1e-12); // 4 symbols
        assert_eq!(entropy_bits([]), 0.0);
        assert_eq!(entropy_bits([0, 0, 5]), 0.0);
    }

    #[test]
    fn calibration_learns_benign_level() {
        let benign = benign_stream(5_000, 60, 1);
        let d = EntropyDetector::calibrate(&benign, DetectorConfig::default()).unwrap();
        // 200 connections over 60 ASes: entropy near log2(60) ≈ 5.9 but
        // limited by window; must be comfortably positive.
        assert!(d.benign_mean() > 4.0, "benign mean {}", d.benign_mean());
        assert!(d.threshold() < d.benign_mean());
    }

    #[test]
    fn no_alarms_on_benign_traffic() {
        let benign = benign_stream(5_000, 60, 2);
        let mut d = EntropyDetector::calibrate(&benign, DetectorConfig::default()).unwrap();
        let fresh = benign_stream(2_000, 60, 3);
        let alarms = d.scan(&fresh);
        let fpr = alarms.len() as f64 / fresh.len() as f64;
        assert!(fpr < 0.02, "false-positive rate {fpr}");
    }

    #[test]
    fn attack_onset_is_detected_quickly() {
        let benign = benign_stream(5_000, 60, 4);
        let mut d = EntropyDetector::calibrate(&benign, DetectorConfig::default()).unwrap();
        // Benign prefix, then a botnet joins in.
        let mut stream = benign_stream(1_000, 60, 5);
        let onset = stream.len();
        stream.extend(attack_stream(1_000, 6));
        let alarms = d.scan(&stream);
        assert!(!alarms.is_empty(), "attack never detected");
        let first = alarms[0];
        assert!(first >= onset, "alarm before the attack started");
        assert!(
            first < onset + 400,
            "detection too slow: {} connections after onset",
            first - onset
        );
    }

    #[test]
    fn reset_clears_window_only() {
        let benign = benign_stream(5_000, 60, 7);
        let mut d = EntropyDetector::calibrate(&benign, DetectorConfig::default()).unwrap();
        let _ = d.scan(&attack_stream(500, 8));
        let t = d.threshold();
        d.reset();
        assert_eq!(d.threshold(), t);
        // A fresh benign window raises no alarm after reset.
        assert!(d.scan(&benign_stream(500, 60, 9)).is_empty());
    }

    #[test]
    fn config_validation() {
        let benign = benign_stream(1_000, 20, 10);
        let bad = DetectorConfig { window: 0, ..Default::default() };
        assert!(EntropyDetector::calibrate(&benign, bad).is_err());
        let bad = DetectorConfig { sigma_threshold: 0.0, ..Default::default() };
        assert!(EntropyDetector::calibrate(&benign, bad).is_err());
        let short = benign_stream(100, 20, 11);
        assert!(EntropyDetector::calibrate(&short, DetectorConfig::default()).is_err());
    }
}
