//! The host's speed, measured between the timed operations.
//!
//! The reference host's two vCPUs share their cores, caches and memory
//! with other tenants, whose load moves the speed of the same code for
//! minutes to hours at a time: the batch workloads took 36–42% longer
//! in a busy quarter of an hour than in a calm one. A run cannot escape
//! that, but it can measure it: the yardstick is fixed code that no
//! change to the repository touches, so a slower pass means a slower
//! host. A workload runs one pass before its first set-up and one after
//! every set-up or operation, and divides each duration by its *pace*,
//! [`pace`] of the passes on either side of it. What it reports is,
//! approximately, the time the work would have taken on the reference
//! host in a calm period.
//!
//! A pass times three kernels and takes their geometric mean, so no one
//! resource decides it: dependent floating-point arithmetic (the core),
//! a pointer chase through 16 MiB (memory latency), and breadth-first
//! search over a random graph followed by a sort (caches and branches,
//! as in the AS-path and tree code).

use std::hint::black_box;
use std::time::Instant;

/// Sets the scale of the reported times: a pass's median time in the
/// calm quarter of an hour, milliseconds.
pub const REFERENCE_MS: f64 = 49.0;

/// How strongly the workloads follow the yardstick. From the calm to the
/// busy quarter of an hour a pass's median rose from 48 to 83 ms (+73%)
/// and the batch workloads' times by 36–42%: the kernels feel a busy
/// neighbour more than the workloads do. Dividing by the full ratio
/// turned that rise into a 14–21% fall; its 0.75th power left −3 to −7%.
pub const PACE_EXPONENT: f64 = 0.75;

/// The pace of work done between two passes of `before_ms` and
/// `after_ms`: how many times longer it took than it would have on the
/// reference host in a calm period.
pub fn pace(before_ms: f64, after_ms: f64) -> f64 {
    ((before_ms * after_ms).sqrt() / REFERENCE_MS).powf(PACE_EXPONENT)
}

/// Slots of the pointer chase: one random cycle through 16 MiB.
const CHAIN: usize = 1 << 22;
const CHASE_STEPS: usize = 300_000;
/// Nodes and out-degree of the random graph.
const NODES: usize = 200_000;
const DEGREE: usize = 8;
const BFS_SOURCES: [u32; 3] = [0, 12_345, 99_999];
const KEYS: usize = 300_000;
const ARITH_ROUNDS: usize = 400_000;

pub struct Yardstick {
    chain: Vec<u32>,
    /// The graph in compressed rows: `edges[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    edges: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

/// splitmix64.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Yardstick {
    /// Builds the kernels' data, always the same, and runs one untimed
    /// pass so every page of it is resident before the first timed one.
    pub fn new() -> Self {
        // Sattolo's shuffle: a single cycle, so the chase visits every slot.
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        for i in (1..CHAIN).rev() {
            chain.swap(i, (mix(i as u64) % i as u64) as usize);
        }
        let offsets = (0..=NODES).map(|v| (v * DEGREE) as u32).collect();
        let edges =
            (0..NODES * DEGREE).map(|e| (mix(e as u64 ^ 77) % NODES as u64) as u32).collect();
        let keys: Vec<u64> = (0..KEYS as u64).map(|i| mix(i ^ 999)).collect();
        let mut yardstick = Yardstick {
            chain,
            offsets,
            edges,
            dist: vec![u32::MAX; NODES],
            queue: vec![u32::MAX; NODES],
            sorted: keys.clone(),
            keys,
        };
        yardstick.pass();
        yardstick
    }

    /// Bytes the yardstick keeps resident for the whole run; the peak
    /// resident set a run reports leaves them out.
    pub fn resident_bytes(&self) -> usize {
        let words = self.chain.len()
            + self.offsets.len()
            + self.edges.len()
            + self.dist.len()
            + self.queue.len();
        4 * words + 8 * (self.keys.len() + self.sorted.len())
    }

    /// One pass: the geometric mean of the three kernels' times, ms.
    pub fn pass(&mut self) -> f64 {
        let arith = timed(arith);
        let chase = timed(|| self.chase());
        let graph = timed(|| self.graph());
        (arith * chase * graph).cbrt()
    }

    fn chase(&self) -> u64 {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.chain[at as usize];
        }
        u64::from(at)
    }

    /// Breadth-first search from each source, then a sort.
    fn graph(&mut self) -> u64 {
        let mut sum = 0u64;
        for source in BFS_SOURCES {
            self.dist.fill(u32::MAX);
            self.dist[source as usize] = 0;
            self.queue[0] = source;
            let (mut head, mut tail) = (0, 1);
            while head < tail {
                let v = self.queue[head] as usize;
                head += 1;
                let next = self.dist[v] + 1;
                let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
                for &w in &self.edges[lo..hi] {
                    if self.dist[w as usize] == u32::MAX {
                        self.dist[w as usize] = next;
                        self.queue[tail] = w;
                        tail += 1;
                    }
                }
            }
            sum += self.dist.iter().map(|&d| u64::from(d)).sum::<u64>();
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        sum + self.sorted[KEYS / 2]
    }
}

/// Eight dependent floating-point chains.
fn arith() -> u64 {
    let mut x = [0.5f64, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2];
    for _ in 0..ARITH_ROUNDS {
        for v in &mut x {
            *v = (*v * 1.000_000_1 + 0.25).sqrt() + (*v * 0.5).tanh() * 0.1;
        }
    }
    x.iter().map(|v| v.to_bits()).fold(0, u64::wrapping_add)
}

/// Milliseconds `f` takes; its result is kept so the work is not elided.
fn timed(f: impl FnOnce() -> u64) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time_and_the_data_stays_fixed() {
        let mut yardstick = Yardstick::new();
        let before = yardstick.graph();
        assert!(yardstick.pass() > 0.0);
        // Every pass does the same work on the same data.
        assert_eq!(yardstick.graph(), before);
        let words = CHAIN + (NODES + 1) + NODES * DEGREE + 2 * NODES;
        assert_eq!(yardstick.resident_bytes(), 4 * words + 16 * KEYS);
    }

    #[test]
    fn pace_is_one_at_the_reference_and_grows_slower_than_the_passes() {
        assert_eq!(pace(REFERENCE_MS, REFERENCE_MS), 1.0);
        // Passes of one and four times the reference around the work:
        // twice the reference, as a geometric mean.
        let doubled = pace(REFERENCE_MS, 4.0 * REFERENCE_MS);
        assert!((doubled - 2f64.powf(PACE_EXPONENT)).abs() < 1e-12);
        assert!(doubled > 1.0 && doubled < 2.0);
    }
}
