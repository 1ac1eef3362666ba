//! Seeded op streams: the Zipf query mix every workload replays.

/// Zipf exponent of the query mix over the nine canonical T1 queries.
pub const ZIPF_S: f64 = 0.8;

/// `count` T1 query indices (into `t1_queries()`) drawn with Zipf(`ZIPF_S`)
/// popularity in T1's own order, S1 most popular (see [`zipf_stream`]).
pub fn t1_mix(rng: &mut Rng, count: usize) -> Vec<usize> {
    zipf_stream(rng, 9, ZIPF_S, count)
}

/// SplitMix64: a small seeded generator, so the op streams depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws made
    /// from one seed (corpus, op order, sampling).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffle `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Normalised Zipf(`s`) weights over ranks `1..=n`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// `count` draws over `n` ranks (rank 0 most popular) with Zipf(`s`)
/// frequencies.
///
/// Each rank gets its exact share of the stream (largest remainder) and the
/// seed decides the order. Independent draws would let the mix itself vary
/// from seed to seed, and a median over queries whose costs differ by
/// orders of magnitude jumps with the mix; exact shares keep the mix the
/// distribution's and leave the seed to vary order, corpus and topology.
pub fn zipf_stream(rng: &mut Rng, n: usize, s: f64, count: usize) -> Vec<usize> {
    let weights = zipf_weights(n, s);
    let mut quotas: Vec<usize> = weights.iter().map(|w| (w * count as f64) as usize).collect();
    let mut short = count - quotas.iter().sum::<usize>();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    let remainders: Vec<f64> =
        weights.iter().zip(&quotas).map(|(w, &q)| w * count as f64 - q as f64).collect();
    by_remainder.sort_by(|&a, &b| remainders[b].total_cmp(&remainders[a]).then(a.cmp(&b)));
    for k in by_remainder {
        if short == 0 {
            break;
        }
        quotas[k] += 1;
        short -= 1;
    }
    let mut stream: Vec<usize> =
        quotas.iter().enumerate().flat_map(|(k, &q)| std::iter::repeat_n(k, q)).collect();
    rng.shuffle(&mut stream);
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_repeats_for_a_seed_and_differs_across_seeds() {
        let a = zipf_stream(&mut Rng::new(7, 1), 9, ZIPF_S, 500);
        let b = zipf_stream(&mut Rng::new(7, 1), 9, ZIPF_S, 500);
        let c = zipf_stream(&mut Rng::new(8, 1), 9, ZIPF_S, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_stream_holds_the_distributions_shares() {
        let stream = zipf_stream(&mut Rng::new(3, 1), 9, ZIPF_S, 1_000);
        assert_eq!(stream.len(), 1_000);
        let weights = zipf_weights(9, ZIPF_S);
        for (k, w) in weights.iter().enumerate() {
            let got = stream.iter().filter(|&&r| r == k).count() as f64;
            assert!((got - w * 1_000.0).abs() <= 1.0, "rank {k}: {got} draws");
        }
        // Rank 0 is the most popular and the shares fall with rank.
        assert!(weights.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn t1_mix_follows_t1_order() {
        let mix = t1_mix(&mut Rng::new(1, 1), 1_000);
        let counts: Vec<usize> = (0..9).map(|q| mix.iter().filter(|&&m| m == q).count()).collect();
        assert!(counts.windows(2).all(|c| c[0] >= c[1]), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 1_000);
    }

    #[test]
    fn rng_streams_are_independent() {
        let mut a = Rng::new(1, 1);
        let mut b = Rng::new(1, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
