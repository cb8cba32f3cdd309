//! Rng capability: exactly the two draws the protocol drivers make.
//!
//! The discrete-event engine decides message loss and crash correlation
//! with Bernoulli trials and channel delays with inclusive uniform
//! ranges. Narrowing the trait to those two calls keeps every
//! implementation honest about the draw *order*, which is what replay
//! goldens depend on: [`DetRng`] forwards `chance`/`between` one-to-one
//! onto `StdRng::{gen_bool, gen_range}`, so a fixed seed produces the
//! same stream through the trait as it did through the concrete type.

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// A source of the randomness the runtime drivers need.
pub trait Rng {
    /// Bernoulli trial with success probability `p` (`0.0 ..= 1.0`).
    fn chance(&mut self, p: f64) -> bool;

    /// Uniform draw from the inclusive range `lo ..= hi`.
    fn between(&mut self, lo: u64, hi: u64) -> u64;
}

/// Seeded deterministic generator: one `StdRng` draw per trait call, in
/// call order, so the stream is identical to driving `StdRng` directly.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// A generator whose stream is fully determined by `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }
}

impl Rng for DetRng {
    fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p)
    }

    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..=hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must be a transparent view over `StdRng`: same seed, same
    /// call sequence, same values as the concrete generator. This is the
    /// contract the replay goldens lean on.
    #[test]
    fn det_rng_matches_std_rng_stream() {
        let mut via_trait = DetRng::seeded(99);
        let mut direct = StdRng::seed_from_u64(99);
        for round in 0..200u64 {
            assert_eq!(via_trait.chance(0.25), direct.gen_bool(0.25));
            assert_eq!(
                via_trait.between(round, round + 17),
                direct.gen_range(round..=round + 17)
            );
        }
    }

    #[test]
    fn between_is_inclusive() {
        let mut rng = DetRng::seeded(3);
        for _ in 0..100 {
            let v = rng.between(5, 5);
            assert_eq!(v, 5);
            let w = rng.between(0, 2);
            assert!(w <= 2);
        }
    }
}
