//! Seeded input generation that is the benchmark's own: the splitmix seed
//! derivation, the zipf sampler, uniform draws and Poisson arrival gaps.
//! (The dataset and the query series come from `hydra_data` through
//! `surface.rs`.)

/// SplitMix64: a tiny, well-mixed generator. One `--seed` feeds several
/// independent streams (request order, oracle sample, probe pairs) through
/// [`SplitMix64::derive`], so adding a stream never shifts another.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The generator of stream `stream` under `seed`: the seed is mixed once,
    /// offset by the stream number times the golden-ratio increment, and
    /// mixed again, so neighbouring seeds and streams do not overlap.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut root = Self::new(seed);
        let base = root.next_u64();
        let mut mixed = Self::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Self::new(mixed.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A float uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An integer uniform in `0..n` (`n` > 0; the modulo bias is below 2⁻⁴⁰
    /// for every `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// An exponential gap with mean `mean` (Poisson arrivals).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Independent random streams derived from `--seed`.
pub mod stream {
    /// Order of the requests of a serve workload.
    pub const REQUESTS: u64 = 1;
    /// Which popularity rank maps to which pool query.
    pub const RANKS: u64 = 2;
    /// Which answered queries the brute-force oracle re-checks.
    pub const ORACLE: u64 = 3;
    /// Candidate pairs of the lower-bound probes.
    pub const PAIRS: u64 = 4;
    /// Arrival gaps of the open-loop overload lane.
    pub const ARRIVALS: u64 = 5;
}

/// Zipf sampler over ranks `0..n`: P(rank r) ∝ 1 / (r + 1)^s, drawn by
/// inverting a precomputed cumulative table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks (> 0) with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Pool positions that share `position % STRATA` hold queries of one kind and
/// difficulty: the pool interleaves Synth-Rand (even positions) with `*-Ctrl`
/// queries (odd positions) that cycle the ten-step noise ladder.
pub const STRATA: usize = 20;

/// A request stream stratified by query difficulty: requests come in blocks
/// of [`STRATA`], one from each stratum in a seeded order, so every block
/// carries the same mix of easy and hard queries whatever the seed. Which
/// query of the stratum is asked is drawn uniformly, or by zipf over a seeded
/// popularity ranking of the stratum's members. (Drawn over the whole pool
/// instead, the number of hard queries in a run varies binomially and moves
/// the I/O cost per op by ±15 % from seed to seed.)
pub struct Requests {
    rng: SplitMix64,
    /// Per stratum: its members' positions within the stratum, most popular
    /// first, and the zipf sampler over them (`None`: uniform).
    strata: Vec<(Vec<usize>, Option<Zipf>)>,
    block: Vec<usize>,
}

impl Requests {
    /// Uniform over each stratum's members.
    pub fn uniform(seed: u64, pool: usize) -> Self {
        Self::new(seed, pool, None)
    }

    /// Zipf with exponent `s` over each stratum's members.
    pub fn zipf(seed: u64, pool: usize, s: f64) -> Self {
        Self::new(seed, pool, Some(s))
    }

    fn new(seed: u64, pool: usize, exponent: Option<f64>) -> Self {
        assert!(pool >= STRATA, "the pool must fill every stratum");
        let mut ranks = SplitMix64::derive(seed, stream::RANKS);
        let strata = (0..STRATA)
            .map(|stratum| {
                let members = (pool - stratum).div_ceil(STRATA);
                (
                    ranks.permutation(members),
                    exponent.map(|s| Zipf::new(members, s)),
                )
            })
            .collect();
        Self {
            rng: SplitMix64::derive(seed, stream::REQUESTS),
            strata,
            block: Vec::new(),
        }
    }

    /// The pool position of the next request.
    pub fn next_query(&mut self) -> usize {
        let stratum = match self.block.pop() {
            Some(stratum) => stratum,
            None => {
                self.block = self.rng.permutation(STRATA);
                self.block.pop().expect("STRATA > 0")
            }
        };
        let (members, zipf) = &self.strata[stratum];
        let rank = match zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.below(members.len()),
        };
        stratum + STRATA * members[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_sequence() {
        // First outputs of the published splitmix64 for seed 1234567.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
        assert_eq!(g.next_u64(), 9817491932198370423);
    }

    #[test]
    fn derived_streams_are_repeatable_and_distinct() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::derive(7, stream::REQUESTS);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let again: Vec<u64> = {
            let mut g = SplitMix64::derive(7, stream::REQUESTS);
            (0..4).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, again, "same seed and stream, same numbers");
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16u64 {
            for s in 1..=5u64 {
                assert!(
                    seen.insert(SplitMix64::derive(seed, s).next_u64()),
                    "seed {seed} stream {s} collides"
                );
            }
        }
    }

    #[test]
    fn uniform_draws_stay_in_range_and_permutations_are_complete() {
        let mut g = SplitMix64::derive(3, stream::RANKS);
        for _ in 0..1000 {
            assert!(g.below(7) < 7);
            let f = g.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        let mut p = g.permutation(100);
        assert_ne!(p, (0..100).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_rank_frequencies_follow_the_power_law() {
        let n = 64;
        let s = 0.8;
        let zipf = Zipf::new(n, s);
        let mut rng = SplitMix64::derive(11, stream::REQUESTS);
        let draws = 200_000;
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let norm: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).sum();
        for r in [0usize, 1, 3, 15, 63] {
            let expected = draws as f64 / ((r + 1) as f64).powf(s) / norm;
            let got = f64::from(counts[r]);
            assert!(
                (got - expected).abs() < 0.06 * expected,
                "rank {r}: {got} draws, expected {expected:.0}"
            );
        }
        // Frequencies fall with rank.
        assert!(counts[0] > counts[7] && counts[7] > counts[63]);
        // Same seed, same draws.
        let mut a = SplitMix64::derive(11, stream::REQUESTS);
        let mut b = SplitMix64::derive(11, stream::REQUESTS);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut a), zipf.sample(&mut b));
        }
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut g = SplitMix64::derive(5, stream::ARRIVALS);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| g.exponential(2.0)).sum();
        assert!((total / n as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    fn request_blocks_hold_every_stratum_once() {
        for mut requests in [Requests::uniform(7, 2048), Requests::zipf(7, 4096, 0.8)] {
            for _ in 0..50 {
                let mut seen = [false; STRATA];
                for _ in 0..STRATA {
                    let q = requests.next_query();
                    assert!(!seen[q % STRATA], "stratum {} twice in a block", q % STRATA);
                    seen[q % STRATA] = true;
                }
            }
        }
    }

    #[test]
    fn requests_cover_the_pool_and_repeat_for_a_seed() {
        let pool = 2048;
        let mut a = Requests::uniform(3, pool);
        let mut b = Requests::uniform(3, pool);
        let mut other = Requests::uniform(4, pool);
        let mut asked = vec![false; pool];
        let mut differs = false;
        for _ in 0..40_000 {
            let q = a.next_query();
            assert!(q < pool);
            assert_eq!(q, b.next_query());
            differs |= q != other.next_query();
            asked[q] = true;
        }
        assert!(differs, "another seed, another order");
        assert!(asked.iter().all(|&x| x), "every query is reachable");
    }

    #[test]
    fn zipf_requests_repeat_popular_keys() {
        let mut requests = Requests::zipf(5, 4096, 0.8);
        let mut counts = std::collections::BTreeMap::new();
        let n = 20_000;
        for _ in 0..n {
            *counts.entry(requests.next_query()).or_insert(0u32) += 1;
        }
        let mut by_count: Vec<u32> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        // 20 strata, each with one most popular member asked ~7 % of its turns.
        let top: u32 = by_count[..STRATA].iter().sum();
        assert!(
            f64::from(top) > 0.05 * n as f64,
            "top keys asked {top} times"
        );
        assert!(
            counts.len() > 2000,
            "the tail is long: {} distinct",
            counts.len()
        );
    }
}
