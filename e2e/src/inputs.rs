//! Seeded input generation: everything a run feeds the system is a function
//! of `--seed` (and the sizes derived from `--seconds`), drawn from the
//! benchmark's own generator so that a change to the repository's vendored
//! `rand` cannot change the inputs.

/// splitmix64: tiny, seedable, and good enough for workload shaping.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one named purpose of the same run.
    pub fn fork(seed: u64, purpose: &str) -> Self {
        let mut d = Digest::new();
        d.u64(seed);
        d.bytes(purpose.as_bytes());
        Self::new(d.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is far
    /// below anything a workload could notice).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf over nothing");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Length of the tick the open-loop schedule is quantised to.
pub const TICK_NS: u64 = 1_000_000;

/// A Poisson arrival schedule at `rate_per_s` over `duration_s`, each
/// arrival moved up to the next 1 ms tick — so arrivals come in bursts, as
/// they do behind a real network stack, and the sender can sleep between
/// ticks. Returns ascending due times in nanoseconds from the phase start.
pub fn poisson_ticks(rate_per_s: f64, duration_s: f64, rng: &mut Rng) -> Vec<u64> {
    assert!(rate_per_s > 0.0 && duration_s > 0.0, "empty schedule");
    let end_ns = duration_s * 1e9;
    let mut due = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate_per_s * 1e9;
        if t >= end_ns {
            return due;
        }
        due.push((t as u64).div_ceil(TICK_NS) * TICK_NS);
    }
}

/// FNV-1a, 64 bit: the `input_digest` printed with every result.
#[derive(Clone, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = (0..8).map(|_| 0).scan(Rng::new(42), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).map(|_| 0).scan(Rng::new(42), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).map(|_| 0).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(10) < 10));
        assert!((0..1000).all(|_| {
            let u = r.unit();
            u > 0.0 && u < 1.0
        }));
    }

    #[test]
    fn zipf_repeats_and_favours_low_ranks() {
        let z = Zipf::new(768);
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42));
        assert_ne!(a, draw(7));
        assert!(a.iter().all(|&x| x < 768));
        let count = |r: usize| a.iter().filter(|&&x| x == r).count() as f64;
        // Weight 1/(r+1): rank 0 is drawn about twice as often as rank 1
        // and about ten times as often as rank 9.
        assert!((count(0) / count(1) - 2.0).abs() < 0.3, "{} vs {}", count(0), count(1));
        assert!((count(0) / count(9) - 10.0).abs() < 2.5, "{} vs {}", count(0), count(9));
    }

    #[test]
    fn poisson_schedule_repeats_sits_on_ticks_and_keeps_its_rate() {
        let a = poisson_ticks(2000.0, 2.0, &mut Rng::new(42));
        assert_eq!(a, poisson_ticks(2000.0, 2.0, &mut Rng::new(42)));
        assert_ne!(a, poisson_ticks(2000.0, 2.0, &mut Rng::new(7)));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t % TICK_NS == 0 && (TICK_NS..=2_000_000_000).contains(&t)));
        assert!((a.len() as f64 - 4000.0).abs() < 4.0 * 4000f64.sqrt(), "{} arrivals", a.len());
        // Quantising makes bursts: at two arrivals per tick on average many
        // ticks carry several.
        assert!(a.windows(2).filter(|w| w[0] == w[1]).count() > 1000);
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let of = |s: &str| {
            let mut d = Digest::new();
            d.bytes(s.as_bytes());
            d.finish()
        };
        assert_eq!(of("abc"), of("abc"));
        assert_ne!(of("abc"), of("abd"));
        assert_ne!(of("abc"), of("ab"));
    }
}
