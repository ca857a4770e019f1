//! Workload inputs, generated from the workload seed.
//!
//! The datasets are fixed; the seed chooses only what the program is asked:
//! the seed points of a batch run and the open-loop arrival schedule of a
//! serving run (due times and which pool entries each request asks for).
//! The same seed always gives bit-identical inputs.

use streamline_field::dataset::{Dataset, DatasetConfig};
use streamline_field::seeds::{dense_ball, sparse_random, SeedSet};
use streamline_field::supernova::SupernovaField;
use streamline_integrate::StepLimits;
use streamline_math::Vec3;

/// Field seed of every dataset; fixed so only the workload seed varies.
const FIELD_SEED: u64 = 42;
/// Seed of the popularity ranking of a request pool.
const RANKING_SEED: u64 = 0x5eed;

/// Astro at the paper's 512-block topology. Blocks are 8³ cells, not the
/// CLI's 16³: block synthesis then still dominates a cold run, and a
/// comparison of two builds, dozens of runs per workload, fits in under an
/// hour on two cores.
pub fn astro() -> Dataset {
    Dataset::astrophysics(DatasetConfig {
        blocks_per_axis: [8, 8, 8],
        cells_per_block: [8, 8, 8],
        ghost: 1,
        seed: FIELD_SEED,
    })
}

/// Fusion (tokamak) at the CLI's default resolution.
pub fn fusion() -> Dataset {
    Dataset::fusion(DatasetConfig { seed: FIELD_SEED, ..DatasetConfig::default() })
}

/// The CLI's integration limits for astro (`slrepro run --dataset astro`).
pub fn astro_limits() -> StepLimits {
    StepLimits { h0: 1e-3, h_max: 0.02, max_steps: 2_500, min_speed: 1e-4, ..StepLimits::default() }
}

/// The CLI's integration limits for fusion.
pub fn fusion_limits() -> StepLimits {
    StepLimits { h0: 1e-2, h_max: 0.08, max_steps: 1_500, ..StepLimits::default() }
}

/// Derive an independent stream seed for one purpose from the workload seed.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Sparse astro seeding: uniform through the volume, inset from the
/// boundary (the dataset's own sparse scenario, drawn from `seed`).
pub fn astro_sparse(ds: &Dataset, n: usize, seed: u64) -> SeedSet {
    sparse_random(&ds.decomp.domain, n, 0.25, sub_seed(seed, 1))
}

/// Dense astro seeding: a ball between the core and the shock front.
pub fn astro_dense(n: usize, seed: u64) -> SeedSet {
    let f = SupernovaField::new(1.0, FIELD_SEED);
    dense_ball(Vec3::new(0.6 * f.r_shock, 0.0, 0.0), 0.18, n, sub_seed(seed, 2))
}

/// Dense fusion seeding: a ball on the magnetic axis, so every streamline
/// orbits the torus until its step budget runs out.
pub fn fusion_dense(n: usize, seed: u64) -> SeedSet {
    dense_ball(Vec3::new(3.0, 0.0, 0.0), 0.25, n, sub_seed(seed, 3))
}

/// How often each pool entry is asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Zipf with exponent `s` over a fixed shuffled ranking of the pool.
    Zipf(f64),
    Uniform,
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase starts at which the request is due.
    pub due: f64,
    /// Pool indices of the request's seeds.
    pub picks: Vec<usize>,
}

/// A Poisson arrival schedule at `rate` requests per second for
/// `duration` seconds, `per_request` pool picks each. Arrival times and
/// picks follow `seed` and `phase`; which pool entries are popular is
/// fixed, so every seed offers the same traffic mix.
pub fn schedule(
    seed: u64,
    phase: u64,
    rate: f64,
    duration: f64,
    pool: usize,
    per_request: usize,
    popularity: Popularity,
) -> Vec<Arrival> {
    let pick = Picker::new(pool, popularity);
    let mut rng = SplitMix64(sub_seed(seed, 100 + phase));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        let picks = (0..per_request).map(|_| pick.draw(&mut rng)).collect();
        out.push(Arrival { due: t, picks });
    }
}

/// The pool picks of one closed-loop stretch: which entries each of its
/// requests asks for, in order (cycled if the stretch outlasts them).
pub fn requests(
    seed: u64,
    phase: u64,
    pool: usize,
    per_request: usize,
    popularity: Popularity,
) -> Vec<Vec<usize>> {
    let pick = Picker::new(pool, popularity);
    let mut rng = SplitMix64(sub_seed(seed, 1000 + phase));
    (0..CLOSED_LOOP_REQUESTS)
        .map(|_| (0..per_request).map(|_| pick.draw(&mut rng)).collect())
        .collect()
}

/// Distinct requests of one closed-loop stretch; more than a few seconds
/// of saturation at the measured rates.
const CLOSED_LOOP_REQUESTS: usize = 32_768;

/// Draws pool indices under a popularity law.
struct Picker {
    /// Cumulative probability by popularity rank.
    cdf: Vec<f64>,
    /// Pool index holding each popularity rank.
    order: Vec<usize>,
}

impl Picker {
    fn new(pool: usize, popularity: Popularity) -> Self {
        let mut rng = SplitMix64(RANKING_SEED);
        let weights: Vec<f64> = match popularity {
            Popularity::Zipf(s) => (1..=pool).map(|k| (k as f64).powf(-s)).collect(),
            Popularity::Uniform => vec![1.0; pool],
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Fisher-Yates: hot entries are spread over the pool, not its head.
        let mut order: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        Picker { cdf, order }
    }

    fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.order.len() - 1);
        self.order[rank]
    }
}

/// SplitMix64: tiny, portable and fully specified, so a schedule is the
/// same on every platform and toolchain.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &SeedSet) -> Vec<[u64; 3]> {
        s.points.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
    }

    #[test]
    fn same_seed_gives_identical_seed_sets() {
        let ds = astro();
        assert_eq!(bits(&astro_sparse(&ds, 300, 7)), bits(&astro_sparse(&ds, 300, 7)));
        assert_eq!(bits(&astro_dense(64, 7)), bits(&astro_dense(64, 7)));
        assert_eq!(bits(&fusion_dense(64, 7)), bits(&fusion_dense(64, 7)));
        assert_ne!(bits(&astro_sparse(&ds, 300, 7)), bits(&astro_sparse(&ds, 300, 8)));
        assert_ne!(bits(&fusion_dense(64, 7)), bits(&fusion_dense(64, 8)));
    }

    #[test]
    fn same_seed_gives_identical_schedules_and_requests() {
        for pop in [Popularity::Zipf(1.1), Popularity::Uniform] {
            let a = schedule(7, 0, 500.0, 2.0, 256, 4, pop);
            let b = schedule(7, 0, 500.0, 2.0, 256, 4, pop);
            let due = |s: &[Arrival]| s.iter().map(|a| a.due.to_bits()).collect::<Vec<_>>();
            assert_eq!(due(&a), due(&b));
            assert_eq!(a, b);
            assert_ne!(a, schedule(8, 0, 500.0, 2.0, 256, 4, pop));
            assert_ne!(a, schedule(7, 1, 500.0, 2.0, 256, 4, pop));
            let r = requests(7, 0, 256, 4, pop);
            assert_eq!(r, requests(7, 0, 256, 4, pop));
            assert_ne!(r, requests(8, 0, 256, 4, pop));
            assert_ne!(r, requests(7, 1, 256, 4, pop));
        }
    }

    #[test]
    fn schedule_has_the_offered_rate_and_popularity() {
        let s = schedule(3, 0, 1000.0, 4.0, 256, 4, Popularity::Zipf(1.1));
        assert!((s.len() as f64 - 4000.0).abs() < 300.0, "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0].due < w[1].due));
        let mut counts = vec![0usize; 256];
        for a in &s {
            assert_eq!(a.picks.len(), 4);
            for &p in &a.picks {
                counts[p] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1.1) over 256 entries puts ~18% of picks on the top entry.
        let top = counts[0] as f64 / (4 * s.len()) as f64;
        assert!((0.13..0.24).contains(&top), "top share {top}");
        let u = schedule(3, 0, 1000.0, 4.0, 256, 4, Popularity::Uniform);
        let mut counts = vec![0usize; 256];
        for a in &u {
            for &p in &a.picks {
                counts[p] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 20));
    }
}
