//! The seed selector: chunked greedy search with verified bound.
//!
//! Structure-wise this follows Section 2.4 of the paper exactly: the seed is
//! fixed a chunk at a time; for every candidate value of the next chunk all
//! machines evaluate a score in parallel, the per-candidate totals are
//! aggregated in O(1) rounds (Lemma 2.1), and the minimizing candidate is
//! broadcast; the simulator computes the candidates' totals directly, with
//! [`SeedCost::total_costs`], and charges the aggregation that would deliver
//! all of them. The difference
//! (substitution #2 in the README's Substitutions list) is the per-candidate
//! score: instead of a closed-form conditional expectation — whose
//! pessimistic-estimator constants are hopeless at laptop scale, see
//! `cc_hash::moments` — the score is the *true* cost under a canonical
//! deterministic completion of the unfixed bits. The selected seed's true
//! cost is then checked against the expectation bound `Q`; if the bound is
//! missed the search deterministically escalates to an alternative
//! completion schedule (a different salt) and, as a last resort, reports
//! the best seed found with `met_bound = false`.
//!
//! A cost may also name a [`SeedCost::stop_threshold`]. A pass then ends at
//! the first chunk whose minimizer totals at most it, and returns that
//! candidate's canonical completion. The completion is a pure function of
//! the broadcast prefix and the salt, and its total was just aggregated, so
//! the stop charges nothing beyond the chunk's own aggregation and
//! broadcast. `Partition`'s cost stops at Lemma 3.9's bound; the other costs
//! score every chunk.
//!
//! A cost may also name a [`SeedCost::floor`], the least total any seed can
//! have: `Partition`'s and `LowSpacePartition`'s costs count bad nodes and
//! bins, so theirs is 0. The simulator then scores a chunk's codebook in
//! order, a lead of its first 8 candidates first, and stops at the
//! first of them at the floor: no candidate totals less, so it is the same
//! first minimizer that scoring the whole codebook finds. A lead with none
//! at the floor is scored again as part of its whole codebook, and so is
//! every later chunk of the search, so a search that never reaches its floor
//! scores at most one extra lead. The model is unchanged: every machine
//! still scores every candidate, and each chunk charges, and counts in
//! [`SelectionOutcome::candidates_evaluated`], its whole codebook.
//!
//! Everything here is deterministic: candidate codebooks and completions are
//! pure functions of (chunk index, salt).

use cc_hash::seed::splitmix64;
use cc_hash::BitSeed;
use cc_sim::primitives::{broadcast_word, charge_aggregation};
use cc_sim::ClusterContext;

use crate::cost::SeedCost;

/// The result of a deterministic seed search.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// The selected seed.
    pub seed: BitSeed,
    /// The true total cost of the selected seed.
    pub achieved_cost: f64,
    /// The expectation bound `Q` the seed was compared against.
    pub bound: f64,
    /// Whether `achieved_cost <= bound`.
    pub met_bound: bool,
    /// Number of candidate seeds the model's machines scored: the whole
    /// codebook of every chunk the search fixed. The simulator may compute
    /// fewer totals, when a lead of a codebook reaches the cost's
    /// [`SeedCost::floor`], but it charges and counts what the model scores.
    pub candidates_evaluated: u64,
    /// How many times the search escalated (e.g. switched completion salt)
    /// before meeting the bound; 0 means the first pass succeeded.
    pub escalations: u32,
}

/// How many of a chunk's candidates a search whose cost names a
/// [`SeedCost::floor`] scores before the rest. `Partition`'s chunk-0
/// codebook repeats across its calls, and a call at depth d re-scores the h1
/// its ancestors chose, which puts its whole active set in one bin. So on
/// both `cr-*` perfbench workloads at seeds 9–11, where 58–64 of the 64
/// candidates of every call total 0, the first zero sat at an index no
/// higher than the call's depth (0, 1 or 2), and a lead of 8 covers calls
/// down to depth 7. On `cr-plaw-list` instances (seeds 21–26, 2-CPU VM),
/// `ColorReduce::run` took 9.70 ms with a lead of 4, 9.79 ms with 8 and
/// 10.51 ms with 16 (medians of 6 runs).
const LEAD: usize = 8;

/// Chunked greedy seed search with a verified expectation bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyChunkSelector {
    /// Bits fixed per stage (the paper's δ·log 𝔫); at most 61.
    chunk_bits: usize,
    /// Candidate chunk values scored per stage. If `2^chunk_bits` is smaller,
    /// the stage enumerates the whole chunk space; otherwise a deterministic
    /// codebook of this size is used.
    candidates_per_chunk: usize,
    /// Completion schedules tried before giving up on the bound.
    max_salts: u32,
}

impl Default for GreedyChunkSelector {
    fn default() -> Self {
        GreedyChunkSelector {
            chunk_bits: 61,
            candidates_per_chunk: 64,
            max_salts: 4,
        }
    }
}

impl GreedyChunkSelector {
    /// Creates a selector with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits` is not in `1..=61`, or either of the other
    /// parameters is zero.
    pub fn new(chunk_bits: usize, candidates_per_chunk: usize, max_salts: u32) -> Self {
        assert!(
            (1..=61).contains(&chunk_bits),
            "chunk_bits must be in 1..=61"
        );
        assert!(
            candidates_per_chunk >= 1,
            "need at least one candidate per chunk"
        );
        assert!(max_salts >= 1, "need at least one completion schedule");
        GreedyChunkSelector {
            chunk_bits,
            candidates_per_chunk,
            max_salts,
        }
    }

    /// The deterministic candidate codebook for one stage.
    fn candidates(&self, width: usize, chunk_index: usize, salt: u64) -> Vec<u64> {
        let space: u128 = 1u128 << width;
        let wanted = self.candidates_per_chunk as u128;
        if wanted >= space {
            (0..space as u64).collect()
        } else {
            let mask = (space - 1) as u64;
            (0..self.candidates_per_chunk as u64)
                .map(|j| {
                    splitmix64(
                        salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((chunk_index as u64) << 32) ^ j,
                    ) & mask
                })
                .collect()
        }
    }

    /// One greedy pass with a fixed completion salt. It ends early, at the
    /// first chunk whose minimizer totals at most the cost's
    /// [`SeedCost::stop_threshold`], with that candidate's completion.
    /// `lead` says whether the search still scores each codebook's lead
    /// first; a lead without a candidate at the floor clears it.
    #[allow(clippy::too_many_arguments)]
    fn run_pass(
        &self,
        ctx: &mut ClusterContext,
        label: &str,
        seed_bits: usize,
        cost: &mut dyn SeedCost,
        salt: u64,
        lead: &mut bool,
        candidates_evaluated: &mut u64,
    ) -> (BitSeed, f64) {
        let mut seed = BitSeed::zeros(seed_bits);
        let machines = cost.machine_count();
        let stop = cost.stop_threshold();
        let floor = cost.floor();
        let chunks = seed.chunk_count(self.chunk_bits);
        let mut final_cost = None;
        for chunk_index in 0..chunks {
            let start = chunk_index * self.chunk_bits;
            let width = self.chunk_bits.min(seed_bits - start);
            let candidates = self.candidates(width, chunk_index, salt);
            // Every machine scores every candidate on its local data, and the
            // per-candidate totals are aggregated (O(1) rounds).
            let mut trials: Vec<BitSeed> = candidates
                .iter()
                .map(|&value| {
                    let mut trial = seed.clone();
                    trial.set_chunk(start, width, value);
                    trial.canonical_completion(start + width, salt)
                })
                .collect();
            let totals = score(cost, &trials, floor, lead);
            debug_assert!(
                totals.len() <= trials.len(),
                "at most one total per candidate"
            );
            *candidates_evaluated += candidates.len() as u64;
            // Strict contexts can reject the bandwidth of very wide candidate
            // sets; the search goes on with the totals it already has.
            let _ = charge_aggregation(ctx, label, machines, candidates.len());
            let (best_index, best_total) = totals
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("at least one candidate");
            seed.set_chunk(start, width, candidates[best_index]);
            broadcast_word(ctx, label, candidates[best_index]);
            // The minimizer's completion is a pure function of the broadcast
            // prefix and the salt, and its total was just aggregated, so
            // every machine can adopt it without another round.
            if stop.is_some_and(|threshold| best_total <= threshold) {
                return (trials.swap_remove(best_index), best_total);
            }
            final_cost = Some(best_total);
        }
        // The last chunk's completion is the identity, so its total is the
        // true cost of `seed`; a zero-bit seed has no chunk to score.
        let final_cost = final_cost.unwrap_or_else(|| cost.total_cost(&seed));
        (seed, final_cost)
    }

    /// Deterministically selects a seed of `seed_bits` bits for `cost`,
    /// charging all communication to `ctx` under the phase `label`.
    pub fn select(
        &self,
        ctx: &mut ClusterContext,
        label: &str,
        seed_bits: usize,
        cost: &mut dyn SeedCost,
    ) -> SelectionOutcome {
        let bound = cost.expectation_bound();
        let mut candidates_evaluated = 0u64;
        let mut lead = true;
        let mut best: Option<(BitSeed, f64)> = None;
        for salt_index in 0..self.max_salts {
            let salt = completion_salt(salt_index);
            let (seed, achieved) = self.run_pass(
                ctx,
                label,
                seed_bits,
                cost,
                salt,
                &mut lead,
                &mut candidates_evaluated,
            );
            let improves = best.as_ref().map(|(_, c)| achieved < *c).unwrap_or(true);
            if improves {
                best = Some((seed, achieved));
            }
            if best.as_ref().map(|(_, c)| *c <= bound).unwrap_or(false) {
                let (seed, achieved_cost) = best.expect("just set");
                return SelectionOutcome {
                    seed,
                    achieved_cost,
                    bound,
                    met_bound: true,
                    candidates_evaluated,
                    escalations: salt_index,
                };
            }
        }
        let (seed, achieved_cost) = best.expect("max_salts >= 1 guarantees one pass");
        SelectionOutcome {
            seed,
            achieved_cost,
            bound,
            met_bound: achieved_cost <= bound,
            candidates_evaluated,
            escalations: self.max_salts - 1,
        }
    }
}

/// The totals of a chunk's `trials`, in codebook order: of its lead alone
/// when `lead` is set, the cost names a `floor` and a lead candidate reaches
/// it, else of the whole codebook. The first minimizer of either is the
/// codebook's, since no total is below the floor. A lead that misses the
/// floor clears `lead`, so the rest of the search scores whole codebooks,
/// each in one call, and the cost's record of its latest call holds every
/// candidate of the chunk.
fn score(
    cost: &mut dyn SeedCost,
    trials: &[BitSeed],
    floor: Option<f64>,
    lead: &mut bool,
) -> Vec<f64> {
    if let Some(floor) = floor.filter(|_| *lead && trials.len() > LEAD) {
        let totals = cost.total_costs(&trials[..LEAD]);
        if totals.iter().any(|&total| total <= floor) {
            return totals;
        }
        *lead = false;
    }
    cost.total_costs(trials)
}

/// The completion salt of the pass after `escalations` escalations.
fn completion_salt(escalations: u32) -> u64 {
    u64::from(escalations).wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x5bf0_3635
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::BinZeroLoadCost;
    use cc_hash::PolynomialHashFamily;
    use cc_sim::constants::{BROADCAST_ROUNDS, PREFIX_SUM_ROUNDS};
    use cc_sim::ExecutionModel;

    fn context() -> ClusterContext {
        ClusterContext::new(ExecutionModel::congested_clique(256))
    }

    #[test]
    fn selects_seed_meeting_expectation_bound() {
        let family = PolynomialHashFamily::new(2, 1000, 8);
        let mut cost = BinZeroLoadCost::new(family.clone(), (0..200).collect());
        let selector = GreedyChunkSelector::default();
        let mut ctx = context();
        let outcome = selector.select(&mut ctx, "mce", family.seed_bits(), &mut cost);
        // Expectation is ~200/8 = 25 (+1 slack in the bound); the zero seed
        // would cost 200, so the search must have done real work.
        assert!(
            outcome.met_bound,
            "achieved {} vs bound {}",
            outcome.achieved_cost, outcome.bound
        );
        assert!(outcome.achieved_cost <= outcome.bound);
        assert!(outcome.candidates_evaluated > 0);
        assert!(ctx.rounds() > 0, "seed selection must charge rounds");
        // The reported cost matches an independent evaluation of the seed.
        assert_eq!(outcome.achieved_cost, cost.total_cost(&outcome.seed));
    }

    #[test]
    fn selection_is_deterministic() {
        let family = PolynomialHashFamily::new(2, 500, 4);
        let mut cost = BinZeroLoadCost::new(family.clone(), (0..120).collect());
        let selector = GreedyChunkSelector::new(31, 32, 2);
        let a = selector.select(&mut context(), "mce", family.seed_bits(), &mut cost);
        let b = selector.select(&mut context(), "mce", family.seed_bits(), &mut cost);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.achieved_cost, b.achieved_cost);
        assert_eq!(a.candidates_evaluated, b.candidates_evaluated);
    }

    /// [`BinZeroLoadCost`] with a bound every seed meets, and a stop at it.
    struct StopAtBound(BinZeroLoadCost);

    impl SeedCost for StopAtBound {
        fn machine_count(&self) -> usize {
            self.0.machine_count()
        }

        fn total_cost(&mut self, seed: &BitSeed) -> f64 {
            self.0.total_cost(seed)
        }

        fn expectation_bound(&self) -> f64 {
            self.machine_count() as f64
        }

        fn stop_threshold(&self) -> Option<f64> {
            Some(self.expectation_bound())
        }
    }

    #[test]
    fn pass_stops_at_the_first_chunk_meeting_the_threshold() {
        let family = PolynomialHashFamily::new(4, 1000, 8);
        let mut cost = StopAtBound(BinZeroLoadCost::new(family.clone(), (0..200).collect()));
        let selector = GreedyChunkSelector::default();
        let mut ctx = context();
        let outcome = selector.select(&mut ctx, "stop", family.seed_bits(), &mut cost);
        // A four-chunk seed, but chunk 0's minimizer already meets the
        // threshold: only its candidates are scored, and only its
        // aggregation and broadcast are charged.
        assert_eq!(BitSeed::zeros(family.seed_bits()).chunk_count(61), 4);
        assert_eq!(outcome.candidates_evaluated, 64);
        assert_eq!(outcome.escalations, 0);
        assert!(outcome.met_bound);
        assert_eq!(ctx.rounds(), PREFIX_SUM_ROUNDS + BROADCAST_ROUNDS);
        // The seed is chunk 0's minimizer under the first pass's canonical
        // completion, and its reported cost is its true total.
        let mut prefix = BitSeed::zeros(family.seed_bits());
        prefix.set_chunk(0, 61, outcome.seed.chunk(0, 61));
        assert_eq!(
            outcome.seed,
            prefix.canonical_completion(61, completion_salt(0))
        );
        assert!(selector
            .candidates(61, 0, completion_salt(0))
            .contains(&outcome.seed.chunk(0, 61)));
        assert_eq!(outcome.achieved_cost, cost.total_cost(&outcome.seed));
    }

    /// A cost given by a function of the seed, with a bound and maybe a
    /// floor, that counts the totals it is asked for.
    struct Counted<F> {
        total: F,
        bound: f64,
        floor: Option<f64>,
        asked: usize,
    }

    impl<F: Fn(&BitSeed) -> f64> SeedCost for Counted<F> {
        fn machine_count(&self) -> usize {
            8
        }

        fn total_cost(&mut self, seed: &BitSeed) -> f64 {
            self.asked += 1;
            (self.total)(seed)
        }

        fn expectation_bound(&self) -> f64 {
            self.bound
        }

        fn floor(&self) -> Option<f64> {
            self.floor
        }
    }

    /// Searches `seed_bits` bits with `selector` under `total` and `bound`,
    /// without a floor and with floor 0; checks that both searches pick,
    /// report and charge the same, and returns the totals each asked for.
    fn totals_asked(
        selector: &GreedyChunkSelector,
        seed_bits: usize,
        bound: f64,
        total: impl Fn(&BitSeed) -> f64 + Copy,
    ) -> [usize; 2] {
        let [(full, full_asked), (floored, floored_asked)] = [None, Some(0.0)].map(|floor| {
            let mut cost = Counted {
                total,
                bound,
                floor,
                asked: 0,
            };
            let mut ctx = context();
            let outcome = selector.select(&mut ctx, "lead", seed_bits, &mut cost);
            let charged = (ctx.rounds(), ctx.communication_words());
            ((outcome, charged), cost.asked)
        });
        assert_eq!(full, floored);
        [full_asked, floored_asked]
    }

    #[test]
    fn a_lead_candidate_at_the_floor_ends_its_chunk() {
        let selector = GreedyChunkSelector::default();
        let codebook = selector.candidates(61, 0, completion_salt(0));
        // Candidates 2 and 40 total 0, every other one 1: one 61-bit chunk.
        let total = |seed: &BitSeed| {
            let index = codebook.iter().position(|&c| c == seed.chunk(0, 61));
            f64::from(!matches!(index, Some(2 | 40)))
        };
        // The whole codebook's 64 totals without the floor, the lead's 8
        // with it; both pick candidate 2 and count 64 candidates.
        assert_eq!(totals_asked(&selector, 61, 0.5, total), [64, LEAD]);
    }

    #[test]
    fn a_search_that_never_reaches_its_floor_scores_one_extra_lead() {
        // Four chunks, three salts and a bound no seed meets: every chunk of
        // every pass is scored, 768 totals. The first lead misses the floor,
        // and the search scores whole codebooks from then on.
        let selector = GreedyChunkSelector::new(61, 64, 3);
        let total = |seed: &BitSeed| 1.0 + (seed.words()[0] % 5) as f64;
        assert_eq!(totals_asked(&selector, 200, 0.5, total), [768, 768 + LEAD]);
    }

    #[test]
    fn small_chunks_enumerate_full_space() {
        let selector = GreedyChunkSelector::new(4, 64, 1);
        let candidates = selector.candidates(4, 0, 0);
        assert_eq!(candidates.len(), 16);
        assert!(candidates.iter().all(|&c| c < 16));
    }

    #[test]
    fn codebook_respects_width_mask() {
        let selector = GreedyChunkSelector::new(20, 8, 1);
        let candidates = selector.candidates(20, 3, 5);
        assert_eq!(candidates.len(), 8);
        assert!(candidates.iter().all(|&c| c < (1 << 20)));
    }

    #[test]
    fn rounds_scale_with_chunk_count() {
        let family = PolynomialHashFamily::new(2, 100, 4);
        let mut cost = BinZeroLoadCost::new(family.clone(), (0..50).collect());
        let coarse = GreedyChunkSelector::new(61, 16, 1);
        let fine = GreedyChunkSelector::new(8, 16, 1);
        let mut ctx_coarse = context();
        let mut ctx_fine = context();
        coarse.select(&mut ctx_coarse, "mce", family.seed_bits(), &mut cost);
        fine.select(&mut ctx_fine, "mce", family.seed_bits(), &mut cost);
        assert!(
            ctx_fine.rounds() > ctx_coarse.rounds(),
            "more chunks must cost more rounds ({} vs {})",
            ctx_fine.rounds(),
            ctx_coarse.rounds()
        );
    }

    #[test]
    #[should_panic(expected = "chunk_bits must be in 1..=61")]
    fn rejects_oversized_chunks() {
        let _ = GreedyChunkSelector::new(62, 4, 1);
    }
}
