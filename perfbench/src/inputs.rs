//! Seeded input generation. Every input a run feeds the program comes
//! from `--seed` through this module; the program never sees the seed.

use printed_microprocessors::core::CoreConfig;
use printed_microprocessors::pdk::battery::PRINTED_BATTERIES;
use printed_microprocessors::shop::proto::DEFAULT_PROGRAM;
use printed_microprocessors::shop::{CampaignRequest, ShopQuery};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Requests in one `shop` round and how they split.
pub const ROUND_REPEATS: usize = 12;
pub const ROUND_FRESH: usize = 11;
pub const ROUND_CAMPAIGNS: usize = 1;
pub const ROUND_REQUESTS: usize = ROUND_REPEATS + ROUND_FRESH + ROUND_CAMPAIGNS;

/// A design point of [`CoreConfig::design_space`] with a pricing
/// context, kept compact so a long run's history of issued queries
/// stays small.
#[derive(Debug, Clone, Copy)]
struct Pricing {
    point: usize,
    battery: usize,
    duty_milli: usize,
    dmem_words: usize,
}

impl Pricing {
    fn draw(points: usize, rng: &mut Rng) -> Pricing {
        Pricing {
            point: rng.below(points),
            battery: rng.below(PRINTED_BATTERIES.len()),
            duty_milli: 1 + rng.below(1000),
            dmem_words: 8 << rng.below(4),
        }
    }

    fn query(self, points: &[CoreConfig]) -> ShopQuery {
        let point = &points[self.point];
        ShopQuery {
            program: DEFAULT_PROGRAM.to_string(),
            name: "door_counter".to_string(),
            width: point.datawidth,
            pipeline: point.pipeline_stages,
            bars: point.bars,
            isa_subset: false,
            battery: PRINTED_BATTERIES[self.battery].name.to_string(),
            duty: self.duty_milli as f64 / 1000.0,
            dmem_words: self.dmem_words,
            ..ShopQuery::default()
        }
    }
}

/// The `shop` request sequence. Each round holds [`ROUND_REPEATS`] exact
/// repeats of earlier queries, [`ROUND_FRESH`] fresh pricing contexts
/// over the 24 design points, and [`ROUND_CAMPAIGNS`] small campaign
/// queries, in a seeded order. The primer holds one query per design
/// point; repeats draw from it and from every fresh pricing query issued
/// before, so every round costs the same mix of hits and misses.
pub struct ShopSequence {
    rng: Rng,
    points: Vec<CoreConfig>,
    seen: Vec<Pricing>,
}

impl ShopSequence {
    /// The sequence for `seed` and its primer.
    pub fn new(seed: u64) -> (ShopSequence, Vec<ShopQuery>) {
        let mut rng = Rng::new(seed);
        let points = CoreConfig::design_space();
        let seen: Vec<Pricing> = (0..points.len())
            .map(|point| Pricing { point, ..Pricing::draw(points.len(), &mut rng) })
            .collect();
        let primer = seen.iter().map(|p| p.query(&points)).collect();
        (ShopSequence { rng, points, seen }, primer)
    }

    pub fn next_round(&mut self) -> Vec<ShopQuery> {
        let rng = &mut self.rng;
        let mut kinds: Vec<u8> = [0u8; ROUND_REPEATS]
            .into_iter()
            .chain([1u8; ROUND_FRESH])
            .chain([2u8; ROUND_CAMPAIGNS])
            .collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        let mut round = Vec::with_capacity(ROUND_REQUESTS);
        for kind in kinds {
            let query = match kind {
                0 => self.seen[rng.below(self.seen.len())].query(&self.points),
                1 => {
                    let pricing = Pricing::draw(self.points.len(), rng);
                    self.seen.push(pricing);
                    pricing.query(&self.points)
                }
                _ => {
                    // Small campaigns on the single-cycle points, where
                    // the customer program runs to HALT.
                    let mut pricing = Pricing::draw(self.points.len(), rng);
                    while self.points[pricing.point].pipeline_stages != 1 {
                        pricing.point = rng.below(self.points.len());
                    }
                    ShopQuery {
                        campaign: Some(CampaignRequest {
                            seu_samples: 8,
                            stuck_at: 8,
                            cycle_budget: 1000,
                            seed: rng.next_u64() >> 12,
                        }),
                        ..pricing.query(&self.points)
                    }
                }
            };
            round.push(query);
        }
        round
    }
}

/// Seeds of the `campaign` workload's fault samples, one per design.
pub fn campaign_seeds(seed: u64, designs: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xCA4A_1A2E);
    (0..designs).map(|_| rng.next_u64() >> 16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical wire form of the primer and `rounds` rounds.
    fn wire(seed: u64, rounds: usize) -> Vec<String> {
        let (mut seq, primer) = ShopSequence::new(seed);
        let mut all = primer;
        for _ in 0..rounds {
            all.extend(seq.next_round());
        }
        all.iter().map(ShopQuery::canonical).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(wire(11, 8), wire(11, 8), "byte-identical for one seed");
        assert_ne!(wire(11, 8), wire(12, 8), "a different seed changes the sequence");
        assert_eq!(campaign_seeds(5, 4), campaign_seeds(5, 4));
        assert_ne!(campaign_seeds(5, 4), campaign_seeds(6, 4));
    }

    #[test]
    fn every_round_has_the_fixed_mix_and_valid_queries() {
        let (mut seq, primer) = ShopSequence::new(3);
        assert_eq!(primer.len(), CoreConfig::design_space().len());
        for _ in 0..20 {
            let round = seq.next_round();
            assert_eq!(round.len(), ROUND_REQUESTS);
            let campaigns = round.iter().filter(|q| q.campaign.is_some()).count();
            assert_eq!(campaigns, ROUND_CAMPAIGNS);
            for q in &round {
                q.validate().expect("generated queries are valid");
            }
        }
    }
}
