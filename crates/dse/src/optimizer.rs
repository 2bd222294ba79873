//! Guided multi-objective exploration of the custom design space: an
//! NSGA-II-style evolutionary optimizer running entirely on the summary
//! fast lane.
//!
//! The paper's Use Case 3 samples its ~97-billion-design space at random;
//! with the fast lane evaluating ~100k designs/s the binding constraint
//! becomes *search quality*, not evaluation cost. This module turns the
//! explorer into a guided optimizer:
//!
//! * **Objectives** are any subset of [`Metric`] (the paper's four plus
//!   [`Metric::Energy`]), ranked by non-dominated sorting with crowding
//!   distance — the standard NSGA-II machinery. The dominance pass runs
//!   once per *distinct* objective vector (memo-hit offspring re-visit
//!   known designs, so duplicates are common), and the ranking
//!   environmental selection computes is carried into the next
//!   generation's tournament and the migration pick instead of being
//!   recomputed: survivors keep their rank, and only the crowding of the
//!   cut front changes. Both are exact, so the `(rank, crowding)` vectors
//!   equal a from-scratch all-pairs ranking bit for bit.
//! * **Variation** uses the [`CustomSpace::mutate`] /
//!   [`CustomSpace::crossover`] operators: head-length shifts and
//!   tail-boundary moves, the natural neighborhood of the
//!   Hybrid-head/Segmented-tail encoding.
//! * **Determinism**: the search runs as an island model. Each island owns
//!   an independent counter-derived RNG stream
//!   (`stream_seed(seed, island)`), evolves serially, and exchanges elite
//!   migrants along a ring at fixed epoch boundaries. Threads parallelize
//!   *across* islands only, so any `--workers` count yields bit-identical
//!   Pareto fronts — the same contract every `par_*` sweep in this crate
//!   honors.
//! * **Budget**: a total evaluation-attempt budget is split evenly across
//!   islands up front (again worker-invariant). Every builder attempt —
//!   feasible or infeasible — costs one unit, so guided-vs-random
//!   comparisons at equal budget are fair. Designs already evaluated by an
//!   island are served from its memo and cost nothing.
//!
//! Every feasible evaluation is offered to a per-island archive
//! ([`ParetoFront`]); the final front is the deterministic merge of all
//! island archives.

use mccm_arch::ArchError;
use mccm_core::{EvalScratch, Metric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ExploreError;
use crate::explorer::{CustomPoint, Explorer};
use crate::pareto::ParetoFront;
use crate::sampler::{sample_attempt, stream_seed};
use crate::segcache::{CacheStats, DesignKey, DesignMemo, SegCache};
use crate::space::{CustomDesign, CustomSpace};
use mccm_core::CancelToken;

/// Configuration of [`Explorer::optimize_par`].
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Objectives to minimize/maximize (per [`Metric::higher_is_better`]).
    pub metrics: Vec<Metric>,
    /// Total evaluation-attempt budget across all islands. Every builder
    /// attempt (feasible or infeasible) costs one unit; memoized re-visits
    /// of a design an island has already evaluated are free.
    pub budget: u64,
    /// Population size per island.
    pub population: usize,
    /// Independent islands (the unit of parallelism).
    pub islands: usize,
    /// Base RNG seed; the full search is a pure function of the config.
    pub seed: u64,
    /// Generations between migration epochs.
    pub migration_interval: usize,
    /// Elite designs each island sends around the ring per epoch.
    pub migrants: usize,
    /// Probability that an offspring is produced by crossover before
    /// mutation (otherwise mutation of a tournament winner alone).
    pub crossover_prob: f64,
    /// Largest depth-first fuse depth the search may assign to tail CEs
    /// (the schedule axis of [`CustomSpace`]). `1` — the default — keeps
    /// the search layer-by-layer only, reproducing pre-schedule runs
    /// exactly; `d ≥ 2` lets the optimizer trade fuse depth against the
    /// other axes.
    pub max_fuse_depth: usize,
    /// Evaluate offspring through the **segment-cost delta path**
    /// ([`Explorer::custom_summary_delta`]): per-island caches of per-CE
    /// segment costs let a design whose segments were all seen before be
    /// recombined without an accelerator build or a block-model core run.
    /// Bit-identical to full evaluation by the `delta ≡ full ≡ rich`
    /// invariant, so this is purely a throughput knob (on by default);
    /// `false` restores whole-design evaluation for A/B verification.
    pub delta_eval: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            metrics: Metric::WITH_ENERGY.to_vec(),
            budget: 10_000,
            population: 48,
            islands: 4,
            seed: 1,
            migration_interval: 8,
            migrants: 4,
            crossover_prob: 0.9,
            max_fuse_depth: 1,
            delta_eval: true,
        }
    }
}

impl OptimizerConfig {
    /// Replaces the objective set.
    pub fn with_metrics(mut self, metrics: &[Metric]) -> Self {
        self.metrics = metrics.to_vec();
        self
    }

    /// Replaces the total evaluation budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the per-island population size.
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Replaces the island count.
    pub fn with_islands(mut self, islands: usize) -> Self {
        self.islands = islands;
        self
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the generations-per-migration-epoch interval.
    pub fn with_migration_interval(mut self, generations: usize) -> Self {
        self.migration_interval = generations;
        self
    }

    /// Replaces the per-epoch migrant count.
    pub fn with_migrants(mut self, migrants: usize) -> Self {
        self.migrants = migrants;
        self
    }

    /// Replaces the crossover probability.
    pub fn with_crossover_prob(mut self, prob: f64) -> Self {
        self.crossover_prob = prob;
        self
    }

    /// Replaces the schedule axis' largest fuse depth (`1` = off).
    pub fn with_max_fuse_depth(mut self, max_fuse_depth: usize) -> Self {
        self.max_fuse_depth = max_fuse_depth;
        self
    }

    /// Enables or disables the segment-cost delta evaluation path.
    pub fn with_delta_eval(mut self, delta_eval: bool) -> Self {
        self.delta_eval = delta_eval;
        self
    }

    /// Checks the configuration is runnable — the typed pre-flight check
    /// machine-supplied configs (scenario files, request payloads) go
    /// through before [`Explorer::optimize_par`], whose own guards are
    /// panics reserved for programmer error.
    ///
    /// # Errors
    ///
    /// [`ExploreError::BadConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ExploreError> {
        let fail = |detail: String| Err(ExploreError::BadConfig { detail });
        if self.metrics.is_empty() {
            return fail("metric set is empty".into());
        }
        if self.population < 4 {
            return fail(format!(
                "population must be at least 4, got {}",
                self.population
            ));
        }
        if self.islands == 0 {
            return fail("islands must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.crossover_prob) {
            return fail(format!(
                "crossover_prob must be in [0, 1], got {}",
                self.crossover_prob
            ));
        }
        if self.max_fuse_depth == 0 {
            return fail("max_fuse_depth must be at least 1 (1 = layer-by-layer only)".into());
        }
        Ok(())
    }
}

/// Result of a guided optimization run.
#[derive(Debug, Clone)]
pub struct GuidedFront {
    /// The non-dominated designs over the configured metrics, in
    /// deterministic order (best first on the first metric, notation as
    /// the tie-break).
    pub points: Vec<CustomPoint>,
    /// The objective set the front is defined over.
    pub metrics: Vec<Metric>,
    /// Evaluation attempts actually spent (≤ the configured budget).
    pub evaluations: u64,
    /// Feasible designs among them.
    pub feasible: u64,
    /// Whether the search was cancelled before exhausting its budget
    /// (see [`Explorer::optimize_par_cancellable`]). A cancelled front is
    /// a valid, mutually non-dominated front over everything evaluated so
    /// far — it is "partial" only in the sense that the remaining budget
    /// went unspent.
    pub cancelled: bool,
    /// Segment-cache and design-memo statistics summed across islands —
    /// all zeros when [`OptimizerConfig::delta_eval`] is off (memo
    /// counters still accumulate; the memo exists on both paths).
    pub cache: CacheStats,
}

/// One evaluated, feasible population member.
#[derive(Debug, Clone)]
struct Individual {
    design: CustomDesign,
    values: Vec<f64>,
}

/// NSGA-II ordering of a member set, index-aligned with it: `rank` 0 is
/// the first (best) front, and `crowd` is the crowding distance within a
/// member's front (`f64::INFINITY` on its boundary).
#[derive(Debug)]
struct Ranking {
    rank: Vec<usize>,
    crowd: Vec<f64>,
}

/// An island's population together with its ranking, held in one place
/// so the two cannot drift apart: every change to the members either
/// carries a matching ranking or drops it.
#[derive(Default)]
struct Population {
    members: Vec<Individual>,
    /// `None` until first needed after a change that could not carry a
    /// ranking (initialization, a merge that needed no selection).
    ranking: Option<Ranking>,
}

impl Population {
    fn unranked(members: Vec<Individual>) -> Self {
        Self {
            members,
            ranking: None,
        }
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    /// The members and their ranking, ranked from scratch only when no
    /// ranking was carried.
    fn ranked(&mut self, metrics: &[Metric]) -> (&[Individual], &Ranking) {
        let members = &self.members;
        let ranking = self
            .ranking
            .get_or_insert_with(|| rank_and_crowding(&values_of(members), metrics));
        (members, ranking)
    }

    /// Adds `arrivals` after the current members, then trims back to `mu`
    /// by environmental selection.
    fn extend_and_select(&mut self, arrivals: Vec<Individual>, mu: usize, metrics: &[Metric]) {
        let mut combined = std::mem::take(&mut self.members);
        combined.extend(arrivals);
        *self = environmental_select(combined, mu, metrics);
    }
}

fn values_of(members: &[Individual]) -> Vec<&[f64]> {
    members.iter().map(|i| i.values.as_slice()).collect()
}

/// One island's full evolutionary state. Everything an island does is a
/// pure function of its initial state (seed stream + budget share), which
/// is what makes the island model worker-invariant.
struct Island {
    rng: StdRng,
    /// Seed of this island's counter-based init-sampling stream.
    sample_stream: u64,
    next_attempt: u64,
    population: Population,
    archive: ParetoFront<CustomPoint>,
    /// Designs this island has already built, keyed by compact interned
    /// [`DesignKey`]s: `None` = infeasible. Bounded (insert-drop past the
    /// cap) — a dropped design simply costs budget again on a re-visit.
    memo: DesignMemo,
    /// This island's segment-cost cache (the delta path's working set),
    /// `None` when [`OptimizerConfig::delta_eval`] is off. Cache state
    /// cannot change any evaluated value — cached and fresh segment costs
    /// are bit-identical — so per-island caches preserve worker invariance
    /// for free.
    seg_cache: Option<SegCache>,
    budget: u64,
    evaluations: u64,
    feasible: u64,
    initialized: bool,
}

impl Island {
    fn new(
        seed: u64,
        index: u64,
        budget: u64,
        metrics: &[Metric],
        seg_cache: Option<SegCache>,
    ) -> Self {
        Self {
            rng: StdRng::seed_from_u64(stream_seed(seed, index.wrapping_mul(2) + 1)),
            sample_stream: stream_seed(seed, index.wrapping_mul(2)),
            next_attempt: 0,
            population: Population::default(),
            archive: ParetoFront::new(metrics),
            memo: DesignMemo::default(),
            seg_cache,
            budget,
            evaluations: 0,
            feasible: 0,
            initialized: false,
        }
    }

    /// Evaluates `design` through the fast lane, memoized — via the
    /// segment-cost delta path when the island holds a segment cache, else
    /// the whole-design path. `Ok(None)` = infeasible (or out of budget
    /// for a new design).
    fn try_evaluate(
        &mut self,
        explorer: &Explorer,
        scratch: &mut EvalScratch,
        metrics: &[Metric],
        design: &CustomDesign,
    ) -> Result<Option<Vec<f64>>, ArchError> {
        let key = DesignKey::of(design);
        if let Some(known) = self.memo.get(&key) {
            return Ok(known.clone());
        }
        if self.budget == 0 {
            return Ok(None);
        }
        self.budget -= 1;
        self.evaluations += 1;
        let outcome = match &mut self.seg_cache {
            Some(cache) => explorer.custom_summary_delta(design, cache, scratch)?,
            None => explorer.custom_summary_cell(design, scratch)?,
        };
        let values = outcome.map(|point| {
            let values: Vec<f64> = metrics.iter().map(|m| m.value(&point.summary)).collect();
            self.feasible += 1;
            self.archive.offer_with_values(point, values.clone());
            values
        });
        self.memo.insert(key, values.clone());
        Ok(values)
    }

    /// Fills the initial population from this island's counter-based
    /// sampling stream (the same generator behind
    /// [`Explorer::par_sample_custom_summaries`]).
    fn initialize(
        &mut self,
        explorer: &Explorer,
        scratch: &mut EvalScratch,
        space: &CustomSpace,
        metrics: &[Metric],
        target: usize,
    ) -> Result<(), ArchError> {
        let attempt_cap = (target as u64).saturating_mul(64).max(1024);
        let mut members = Vec::with_capacity(target);
        while members.len() < target && self.budget > 0 && self.next_attempt < attempt_cap {
            let design = sample_attempt(space, self.sample_stream, self.next_attempt);
            self.next_attempt += 1;
            if let Some(values) = self.try_evaluate(explorer, scratch, metrics, &design)? {
                members.push(Individual { design, values });
            }
        }
        self.population = Population::unranked(members);
        self.initialized = true;
        Ok(())
    }

    /// One NSGA-II generation: tournament selection → crossover + mutation
    /// → environmental selection over parents ∪ offspring. The tournament
    /// reads the ranking the previous selection carried over.
    fn step(
        &mut self,
        explorer: &Explorer,
        scratch: &mut EvalScratch,
        space: &CustomSpace,
        metrics: &[Metric],
        mu: usize,
        crossover_prob: f64,
    ) -> Result<(), ArchError> {
        if self.population.len() < 2 || self.budget == 0 {
            return Ok(());
        }
        // Taken out for the generation so the parents can be read while
        // `try_evaluate` borrows the island.
        let mut population = std::mem::take(&mut self.population);
        let (parents, Ranking { rank, crowd }) = population.ranked(metrics);
        let n = parents.len();
        let mut offspring: Vec<Individual> = Vec::with_capacity(mu);
        // Infeasible (or memo-hit infeasible) children make no progress;
        // bound the dry spell so a degenerate neighborhood cannot spin.
        let mut dry = 0usize;
        while offspring.len() < mu && self.budget > 0 && dry < 4 * mu {
            let p1 = tournament(&mut self.rng, n, rank, crowd);
            let child = if self.rng.random_bool(crossover_prob) {
                let p2 = tournament(&mut self.rng, n, rank, crowd);
                space.crossover(&parents[p1].design, &parents[p2].design, &mut self.rng)
            } else {
                parents[p1].design.clone()
            };
            let child = space.mutate(&child, &mut self.rng);
            debug_assert!(space.contains(&child), "operators emit members");
            match self.try_evaluate(explorer, scratch, metrics, &child)? {
                Some(values) => {
                    offspring.push(Individual {
                        design: child,
                        values,
                    });
                    dry = 0;
                }
                None => dry += 1,
            }
        }
        population.extend_and_select(offspring, mu, metrics);
        self.population = population;
        Ok(())
    }

    /// The island's `count` elite members (rank-0 front, most-spread
    /// first) — the designs it exports at a migration epoch.
    fn emigrants(&mut self, count: usize, metrics: &[Metric]) -> Vec<Individual> {
        if self.population.len() == 0 || count == 0 {
            return Vec::new();
        }
        let (members, Ranking { rank, crowd }) = self.population.ranked(metrics);
        let mut first_front: Vec<usize> = (0..members.len()).filter(|&i| rank[i] == 0).collect();
        first_front.sort_by(|&a, &b| crowd[b].total_cmp(&crowd[a]).then_with(|| a.cmp(&b)));
        first_front
            .into_iter()
            .take(count)
            .map(|i| members[i].clone())
            .collect()
    }

    /// Absorbs migrants, then trims back to `mu` members (selection only —
    /// migrants arrive already evaluated, so immigration is free).
    fn receive(&mut self, migrants: Vec<Individual>, mu: usize, metrics: &[Metric]) {
        if migrants.is_empty() {
            return;
        }
        self.population.extend_and_select(migrants, mu, metrics);
    }
}

/// Fast non-dominated sort + crowding distance of a set of objective
/// vectors over a non-empty `metrics`, ranked from scratch.
///
/// Members whose vectors are bit-identical share every dominance
/// relation, so the all-pairs dominance pass runs over the `d` distinct
/// vectors only (O(d²·m) instead of O(n²·m)) and each member takes its
/// vector's front. The distinct vectors are stored once, flat, in
/// minimization form: negating a higher-is-better metric is exact and
/// turns [`Metric::better`]'s strict `>` into `<`. Crowding is still
/// computed over each full front of members with the index tie-break, so
/// the result equals the all-pairs ranking over every member bit for bit.
fn rank_and_crowding(values: &[&[f64]], metrics: &[Metric]) -> Ranking {
    let n = values.len();
    let m = metrics.len();
    // Two members are interchangeable for ranking exactly when their bit
    // patterns are equal.
    let bits: Vec<u64> = values
        .iter()
        .flat_map(|v| v.iter().map(|x| x.to_bits()))
        .collect();
    let mut keyed: Vec<(&[u64], usize)> = bits.chunks_exact(m).zip(0..n).collect();
    keyed.sort_unstable();
    let mut group = vec![0usize; n];
    let mut rows: Vec<f64> = Vec::with_capacity(n * m);
    let mut d = 0usize;
    for (k, &(key, i)) in keyed.iter().enumerate() {
        if k == 0 || key != keyed[k - 1].0 {
            rows.extend(metrics.iter().zip(values[i]).map(|(metric, &v)| {
                if metric.higher_is_better() {
                    -v
                } else {
                    v
                }
            }));
            d += 1;
        }
        group[i] = d - 1;
    }

    // Row `a` of `beats` is the bitset of the distinct vectors `a`
    // dominates.
    let words = d.div_ceil(64);
    let mut beats = vec![0u64; d * words];
    let mut dominated_by = vec![0usize; d];
    for (a, row_a) in rows.chunks_exact(m).enumerate() {
        for (b, row_b) in rows.chunks_exact(m).enumerate().skip(a + 1) {
            let (mut a_better, mut b_better) = (false, false);
            for (x, y) in row_a.iter().zip(row_b) {
                a_better |= x < y;
                b_better |= y < x;
            }
            if a_better != b_better {
                let (winner, loser) = if a_better { (a, b) } else { (b, a) };
                beats[winner * words + loser / 64] |= 1 << (loser % 64);
                dominated_by[loser] += 1;
            }
        }
    }
    // Peel the fronts of distinct vectors; a vector never freed keeps
    // `usize::MAX` and, as in an all-pairs peel, ranks 0 with crowding 0.
    let mut level_of = vec![usize::MAX; d];
    let mut front: Vec<usize> = (0..d).filter(|&g| dominated_by[g] == 0).collect();
    let mut next = Vec::new();
    let mut levels = 0usize;
    while !front.is_empty() {
        for &g in &front {
            level_of[g] = levels;
            for (w, &word) in beats[g * words..(g + 1) * words].iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let loser = w * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    dominated_by[loser] -= 1;
                    if dominated_by[loser] == 0 {
                        next.push(loser);
                    }
                }
            }
        }
        std::mem::swap(&mut front, &mut next);
        next.clear();
        levels += 1;
    }

    let mut fronts: Vec<Vec<usize>> = vec![Vec::new(); levels];
    for (i, &g) in group.iter().enumerate() {
        if let Some(members) = fronts.get_mut(level_of[g]) {
            members.push(i);
        }
    }
    let mut rank = vec![0usize; n];
    let mut crowd = vec![0.0f64; n];
    let value = |i: usize, k: usize| f64::from_bits(bits[i * m + k]);
    for (level, members) in fronts.iter().enumerate() {
        for &i in members {
            rank[i] = level;
        }
        crowding_into(members, value, m, &mut crowd);
    }
    Ranking { rank, crowd }
}

/// Crowding distance of one front over `metrics` objectives, read through
/// `value(member, metric)` and written into `crowd` at the front's
/// indices. Boundary points get `f64::INFINITY`.
fn crowding_into(
    front: &[usize],
    value: impl Fn(usize, usize) -> f64,
    metrics: usize,
    crowd: &mut [f64],
) {
    for &i in front {
        crowd[i] = 0.0;
    }
    if front.len() <= 2 {
        for &i in front {
            crowd[i] = f64::INFINITY;
        }
        return;
    }
    // Sorted on (`f64::total_cmp` order, index): the key below orders as
    // unsigned integers exactly as `total_cmp` orders the floats.
    let total_key = |v: f64| {
        let b = v.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b | 1 << 63
        }
    };
    let mut order: Vec<(u64, usize)> = Vec::with_capacity(front.len());
    for m in 0..metrics {
        order.clear();
        order.extend(front.iter().map(|&i| (total_key(value(i, m)), i)));
        order.sort_unstable();
        let (first, last) = (order[0].1, order[order.len() - 1].1);
        let (lo, hi) = (value(first, m), value(last, m));
        crowd[first] = f64::INFINITY;
        crowd[last] = f64::INFINITY;
        if hi > lo {
            for w in order.windows(3) {
                let span = value(w[2].1, m) - value(w[0].1, m);
                crowd[w[1].1] += span / (hi - lo);
            }
        }
    }
}

/// Binary tournament on (rank asc, crowding desc, index asc).
fn tournament(rng: &mut StdRng, n: usize, rank: &[usize], crowd: &[f64]) -> usize {
    let a = rng.random_range(0..n);
    let b = rng.random_range(0..n);
    if rank[a] != rank[b] {
        if rank[a] < rank[b] {
            a
        } else {
            b
        }
    } else if crowd[a] != crowd[b] {
        if crowd[a] > crowd[b] {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

/// NSGA-II environmental selection: fill by front rank; the cut front is
/// admitted by crowding distance (descending, index ascending) — all
/// deterministic.
///
/// The survivors carry their ranking out. Every front before the cut one
/// survives whole, so each survivor keeps all of its dominators and with
/// them its rank; keeping arrival order keeps the crowding tie-breaks, so
/// only the cut front, which may have lost members, needs its crowding
/// recomputed. A set that already fits is passed through unranked.
fn environmental_select(combined: Vec<Individual>, mu: usize, metrics: &[Metric]) -> Population {
    if combined.len() <= mu {
        return Population::unranked(combined);
    }
    let Ranking { rank, crowd } = rank_and_crowding(&values_of(&combined), metrics);
    let mut order: Vec<usize> = (0..combined.len()).collect();
    order.sort_by(|&a, &b| {
        rank[a]
            .cmp(&rank[b])
            .then_with(|| crowd[b].total_cmp(&crowd[a]))
            .then_with(|| a.cmp(&b))
    });
    order.truncate(mu);
    let cut = rank[order[mu - 1]];
    order.sort_unstable(); // keep survivors in their stable arrival order
    let mut keep: Vec<Option<Individual>> = combined.into_iter().map(Some).collect();
    let members: Vec<Individual> = order
        .iter()
        .map(|&i| keep[i].take().expect("selection indices are unique"))
        .collect();
    let mut ranking = Ranking {
        rank: order.iter().map(|&i| rank[i]).collect(),
        crowd: order.iter().map(|&i| crowd[i]).collect(),
    };
    let cut_front: Vec<usize> = (0..mu).filter(|&j| ranking.rank[j] == cut).collect();
    let value = |i: usize, k: usize| members[i].values[k];
    crowding_into(&cut_front, value, metrics.len(), &mut ranking.crowd);
    Population {
        members,
        ranking: Some(ranking),
    }
}

impl Explorer {
    /// Guided multi-objective search over the paper's custom space with
    /// `workers` threads (`0` = one per core, `1` inline). Threads
    /// parallelize across islands; the returned front is **bit-identical
    /// for any worker count** — the same determinism contract as every
    /// sweep.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Arch`] on any real builder fault (infeasible
    /// designs are handled, not errors).
    ///
    /// # Panics
    ///
    /// On degenerate configs: empty metric set, `population < 4`, or
    /// `islands == 0`.
    pub fn optimize_par(
        &self,
        config: &OptimizerConfig,
        workers: usize,
    ) -> Result<GuidedFront, ExploreError> {
        self.optimize_par_cancellable(config, workers, &CancelToken::new())
    }

    /// [`Self::optimize_par`] with a cooperative [`CancelToken`], polled
    /// at generation and epoch boundaries. When the token fires the
    /// search stops early and returns the merged front of everything
    /// evaluated so far — a partial but honest result, never an error.
    /// [`GuidedFront::cancelled`] is set only when an island still had
    /// budget, so a search that spent its budget before the token fired
    /// is not reported as cancelled.
    ///
    /// A token that never fires changes nothing: the run takes exactly
    /// the un-cancelled code path, so results stay bit-identical to
    /// [`Self::optimize_par`] for any worker count.
    ///
    /// # Errors
    ///
    /// As [`Self::optimize_par`].
    ///
    /// # Panics
    ///
    /// As [`Self::optimize_par`].
    pub fn optimize_par_cancellable(
        &self,
        config: &OptimizerConfig,
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<GuidedFront, ExploreError> {
        assert!(
            !config.metrics.is_empty(),
            "optimizer needs at least one metric"
        );
        assert!(config.population >= 4, "population must be at least 4");
        assert!(config.islands >= 1, "need at least one island");
        let space = self
            .paper_space()
            .with_max_fuse_depth(config.max_fuse_depth);
        let metrics = config.metrics.clone();
        let k = config.islands;
        let share = config.budget / k as u64;
        let extra = usize::try_from(config.budget % k as u64)
            .expect("remainder is below the island count, a usize");
        let mut islands: Vec<Island> = (0..k)
            .map(|i| {
                let budget = share + u64::from(i < extra);
                let seg_cache = config.delta_eval.then(|| SegCache::new(self));
                Island::new(config.seed, i as u64, budget, &metrics, seg_cache)
            })
            .collect();

        let epoch_generations = config.migration_interval.max(1);
        loop {
            let spent_before: u64 = islands.iter().map(|i| i.evaluations).sum();
            if !islands.iter().any(|i| i.budget > 0) || cancel.is_cancelled() {
                break;
            }
            islands = self.run_epoch(
                islands,
                &space,
                &metrics,
                config,
                epoch_generations,
                workers,
                cancel,
            )?;
            let spent_after: u64 = islands.iter().map(|i| i.evaluations).sum();
            if spent_after == spent_before {
                // No island can make progress any more (e.g. populations
                // too small to breed) — stop instead of spinning.
                break;
            }
            // Ring migration at the epoch boundary (free: selection only).
            if k > 1 && config.migrants > 0 {
                let picks: Vec<Vec<Individual>> = islands
                    .iter_mut()
                    .map(|isl| isl.emigrants(config.migrants, &metrics))
                    .collect();
                for (i, pick) in picks.into_iter().enumerate() {
                    islands[(i + 1) % k].receive(pick, config.population, &metrics);
                }
            }
        }

        let cancelled = cancel.is_cancelled() && islands.iter().any(|i| i.budget > 0);
        let mut merged = ParetoFront::new(&metrics);
        let mut evaluations = 0u64;
        let mut feasible = 0u64;
        let mut cache = CacheStats::default();
        for isl in islands {
            evaluations += isl.evaluations;
            feasible += isl.feasible;
            if let Some(seg_cache) = &isl.seg_cache {
                cache.absorb(&seg_cache.stats());
            }
            cache.absorb(&isl.memo.stats());
            merged.merge(isl.archive);
        }
        let mut points = merged.into_items();
        let lead = metrics[0];
        points.sort_by(|a, b| {
            let (va, vb) = (lead.value(&a.summary), lead.value(&b.summary));
            let ord = if lead.higher_is_better() {
                vb.total_cmp(&va)
            } else {
                va.total_cmp(&vb)
            };
            ord.then_with(|| a.summary.notation.cmp(&b.summary.notation))
        });
        // Two islands can discover the same design independently; equal
        // points never dominate each other, so the merge keeps both. One
        // copy per design is enough for the caller (the sort above parks
        // duplicates adjacently).
        points.dedup_by(|a, b| a.summary.notation == b.summary.notation);
        Ok(GuidedFront {
            points,
            metrics,
            evaluations,
            feasible,
            cancelled,
            cache,
        })
    }

    /// Runs one epoch (`generations` NSGA-II steps) on every island,
    /// chunked across `workers` threads. Island evolution is a pure
    /// function of island state, so the chunking cannot change results;
    /// the cancel token is polled between generations so an expiring
    /// request stops within one generation's work per island.
    #[allow(clippy::too_many_arguments)] // internal plumbing of one search
    fn run_epoch(
        &self,
        islands: Vec<Island>,
        space: &CustomSpace,
        metrics: &[Metric],
        config: &OptimizerConfig,
        generations: usize,
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<Island>, ExploreError> {
        let run_one = |mut isl: Island, scratch: &mut EvalScratch| -> Result<Island, ArchError> {
            if cancel.is_cancelled() {
                return Ok(isl);
            }
            if !isl.initialized {
                isl.initialize(self, scratch, space, metrics, config.population)?;
            }
            for _ in 0..generations {
                if cancel.is_cancelled() {
                    break;
                }
                isl.step(
                    self,
                    scratch,
                    space,
                    metrics,
                    config.population,
                    config.crossover_prob,
                )?;
            }
            Ok(isl)
        };

        let workers = crate::parallel::resolve_workers(workers).min(islands.len().max(1));
        let mut rest = islands.into_iter();
        let chunks: Vec<Vec<Island>> = crate::parallel::chunk_bounds(rest.len(), workers)
            .into_iter()
            .map(|(lo, hi)| rest.by_ref().take(hi - lo).collect())
            .collect();
        let mut out = Vec::new();
        for chunk in crate::parallel::run_chunks(chunks, |chunk| {
            let mut scratch = EvalScratch::new();
            chunk
                .into_iter()
                .map(|isl| run_one(isl, &mut scratch))
                .collect::<Result<Vec<Island>, ArchError>>()
        }) {
            out.extend(chunk?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates;
    use mccm_arch::Schedule;
    use mccm_cnn::zoo;
    use mccm_fpga::FpgaBoard;

    /// The all-pairs ranking the distinct-vector one replaced, kept as
    /// the oracle it must match bit for bit.
    fn reference_rank_and_crowding(
        values: &[&[f64]],
        metrics: &[Metric],
    ) -> (Vec<usize>, Vec<f64>) {
        let n = values.len();
        let mut dominated_by = vec![0usize; n];
        let mut dominates_list: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if dominates(metrics, values[i], values[j]) {
                    dominates_list[i].push(j);
                    dominated_by[j] += 1;
                } else if dominates(metrics, values[j], values[i]) {
                    dominates_list[j].push(i);
                    dominated_by[i] += 1;
                }
            }
        }
        let mut rank = vec![0usize; n];
        let mut crowd = vec![0.0f64; n];
        let mut front: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
        let mut level = 0usize;
        while !front.is_empty() {
            reference_crowding_into(&front, values, metrics, &mut crowd);
            let mut next = Vec::new();
            for &i in &front {
                rank[i] = level;
                for &j in &dominates_list[i] {
                    dominated_by[j] -= 1;
                    if dominated_by[j] == 0 {
                        next.push(j);
                    }
                }
            }
            next.sort_unstable();
            front = next;
            level += 1;
        }
        (rank, crowd)
    }

    fn reference_crowding_into(
        front: &[usize],
        values: &[&[f64]],
        metrics: &[Metric],
        crowd: &mut [f64],
    ) {
        for &i in front {
            crowd[i] = 0.0;
        }
        if front.len() <= 2 {
            for &i in front {
                crowd[i] = f64::INFINITY;
            }
            return;
        }
        let mut order: Vec<usize> = front.to_vec();
        for (m, _) in metrics.iter().enumerate() {
            order.sort_by(|&a, &b| {
                values[a][m]
                    .total_cmp(&values[b][m])
                    .then_with(|| a.cmp(&b))
            });
            let lo = values[order[0]][m];
            let hi = values[order[order.len() - 1]][m];
            crowd[order[0]] = f64::INFINITY;
            crowd[order[order.len() - 1]] = f64::INFINITY;
            if hi > lo {
                for w in 1..order.len() - 1 {
                    let span = values[order[w + 1]][m] - values[order[w - 1]][m];
                    crowd[order[w]] += span / (hi - lo);
                }
            }
        }
    }

    /// Asserts `got` is the reference ranking of `values`, crowding
    /// compared by bit pattern.
    fn assert_reference_ranking(got: &Ranking, values: &[&[f64]], metrics: &[Metric], case: &str) {
        let (rank, crowd) = reference_rank_and_crowding(values, metrics);
        assert_eq!(got.rank, rank, "rank differs: {case}");
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&got.crowd), bits(&crowd), "crowding differs: {case}");
    }

    /// Objective sets built to stress the ranking: about half the members
    /// copy an earlier one, and most coordinates come from a small pool
    /// holding both signed zeros, so single-metric ties are common. The
    /// two largest sizes hold more than 64 distinct vectors.
    fn random_sets(seed: u64) -> impl Iterator<Item = (Vec<Metric>, Vec<Vec<f64>>)> {
        const POOL: [f64; 6] = [-0.0, 0.0, 1.0, 2.0, 2.5, 4.0];
        let metric_sets: [&[Metric]; 4] = [
            &[Metric::Latency],
            &[Metric::Throughput],
            &[Metric::Throughput, Metric::OnChipBuffers],
            &Metric::WITH_ENERGY,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        (1..=100usize).chain([130, 200]).flat_map(move |n| {
            metric_sets
                .iter()
                .map(|metrics| {
                    let mut set: Vec<Vec<f64>> = Vec::with_capacity(n);
                    for _ in 0..n {
                        let row = if !set.is_empty() && rng.random_bool(0.5) {
                            set[rng.random_range(0..set.len())].clone()
                        } else {
                            (0..metrics.len())
                                .map(|_| {
                                    if rng.random_bool(0.8) {
                                        POOL[rng.random_range(0..POOL.len())]
                                    } else {
                                        f64::from(rng.random_range(0..=6000u32)) / 1000.0 - 1.0
                                    }
                                })
                                .collect()
                        };
                        set.push(row);
                    }
                    (metrics.to_vec(), set)
                })
                .collect::<Vec<_>>()
        })
    }

    fn tagged(set: &[Vec<f64>]) -> Vec<Individual> {
        set.iter()
            .enumerate()
            .map(|(tag, values)| Individual {
                design: CustomDesign {
                    head_layers: tag,
                    tail_ends: Vec::new(),
                    schedule: Schedule::LayerByLayer,
                },
                values: values.clone(),
            })
            .collect()
    }

    #[test]
    fn distinct_vector_ranking_matches_the_all_pairs_reference() {
        for seed in [1u64, 2, 3] {
            for (metrics, set) in random_sets(seed) {
                let values: Vec<&[f64]> = set.iter().map(Vec::as_slice).collect();
                let case = format!("seed {seed}, {} metrics, n {}", metrics.len(), set.len());
                assert_reference_ranking(
                    &rank_and_crowding(&values, &metrics),
                    &values,
                    &metrics,
                    &case,
                );
            }
        }
    }

    #[test]
    fn carried_selection_ranking_equals_a_fresh_ranking_of_the_survivors() {
        for (metrics, set) in random_sets(4) {
            let n = set.len();
            let values: Vec<&[f64]> = set.iter().map(Vec::as_slice).collect();
            let (rank, crowd) = reference_rank_and_crowding(&values, &metrics);
            let mut best_first: Vec<usize> = (0..n).collect();
            best_first.sort_by(|&a, &b| {
                rank[a]
                    .cmp(&rank[b])
                    .then_with(|| crowd[b].total_cmp(&crowd[a]))
                    .then_with(|| a.cmp(&b))
            });
            // Exact fills (the cut lands on a front boundary), every size
            // in between for small sets, and the pass-through sizes.
            let mut mus: Vec<usize> = (0..=rank.iter().copied().max().unwrap_or(0))
                .map(|level| rank.iter().filter(|&&r| r <= level).count())
                .collect();
            mus.extend([1, n / 2, n.saturating_sub(1), n, n + 3]);
            if n <= 12 {
                mus.extend(1..=n);
            }
            for mu in mus.into_iter().filter(|&mu| mu >= 1) {
                let mut survivors = environmental_select(tagged(&set), mu, &metrics);
                assert_eq!(survivors.ranking.is_some(), n > mu, "mu {mu}, n {n}");
                let case = format!("{} metrics, n {n}, mu {mu}", metrics.len());
                let (members, carried) = survivors.ranked(&metrics);
                // The reference's best `mu`, in arrival order.
                let mut expected = best_first[..mu.min(n)].to_vec();
                expected.sort_unstable();
                let tags: Vec<usize> = members.iter().map(|i| i.design.head_layers).collect();
                assert_eq!(tags, expected, "survivors: {case}");
                assert_reference_ranking(carried, &values_of(members), &metrics, &case);
            }
        }
    }

    fn front_key(f: &GuidedFront) -> Vec<(String, Vec<u64>)> {
        f.points
            .iter()
            .map(|p| {
                (
                    p.summary.notation.clone(),
                    f.metrics
                        .iter()
                        .map(|m| m.value(&p.summary).to_bits())
                        .collect(),
                )
            })
            .collect()
    }

    fn small_config() -> OptimizerConfig {
        OptimizerConfig::default()
            .with_budget(600)
            .with_population(16)
            .with_islands(3)
            .with_seed(9)
    }

    #[test]
    fn validate_rejects_degenerate_configs_with_the_field_named() {
        assert!(OptimizerConfig::default().validate().is_ok());
        assert!(small_config().validate().is_ok());
        let cases: [(OptimizerConfig, &str); 4] = [
            (OptimizerConfig::default().with_metrics(&[]), "metric"),
            (OptimizerConfig::default().with_population(3), "population"),
            (OptimizerConfig::default().with_islands(0), "islands"),
            (
                OptimizerConfig::default().with_crossover_prob(1.5),
                "crossover_prob",
            ),
        ];
        for (cfg, field) in cases {
            match cfg.validate() {
                Err(ExploreError::BadConfig { detail }) => {
                    assert!(detail.contains(field), "{detail} should name {field}");
                }
                other => panic!("expected BadConfig naming {field}, got {other:?}"),
            }
        }
        // NaN probabilities are out of range too.
        assert!(OptimizerConfig::default()
            .with_crossover_prob(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn optimize_finds_a_nonempty_front_within_budget() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let cfg = small_config();
        let f = e.optimize_par(&cfg, 1).unwrap();
        assert!(!f.points.is_empty());
        assert!(f.evaluations <= cfg.budget);
        assert!(f.feasible > 0 && f.feasible <= f.evaluations);
        // The front really is mutually non-dominated.
        for a in &f.points {
            for b in &f.points {
                let va: Vec<f64> = f.metrics.iter().map(|m| m.value(&a.summary)).collect();
                let vb: Vec<f64> = f.metrics.iter().map(|m| m.value(&b.summary)).collect();
                assert!(!dominates(&f.metrics, &va, &vb) || a.summary == b.summary);
            }
        }
    }

    #[test]
    fn optimize_is_worker_invariant_and_deterministic() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let cfg = small_config();
        let serial = e.optimize_par(&cfg, 1).unwrap();
        let rerun = e.optimize_par(&cfg, 1).unwrap();
        assert_eq!(
            front_key(&serial),
            front_key(&rerun),
            "same config must reproduce"
        );
        for workers in [2usize, 3, 8] {
            let par = e.optimize_par(&cfg, workers).unwrap();
            assert_eq!(
                front_key(&par),
                front_key(&serial),
                "front diverged at workers={workers}"
            );
            assert_eq!(par.evaluations, serial.evaluations);
            assert_eq!(par.feasible, serial.feasible);
        }
    }

    #[test]
    fn pre_cancelled_search_returns_an_empty_labelled_front() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let cancel = CancelToken::new();
        cancel.cancel();
        let f = e
            .optimize_par_cancellable(&small_config(), 2, &cancel)
            .unwrap();
        assert!(f.cancelled, "a pre-fired token must label the front");
        assert_eq!(f.evaluations, 0, "no work after cancellation");
        assert!(f.points.is_empty());
        // A zero budget leaves no island work to skip: not a cancellation.
        let spent = e
            .optimize_par_cancellable(&small_config().with_budget(0), 2, &cancel)
            .unwrap();
        assert!(!spent.cancelled, "no budget left means nothing was skipped");
    }

    #[test]
    fn uncancelled_token_is_bit_identical_to_the_plain_entry_point() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let cfg = small_config();
        let plain = e.optimize_par(&cfg, 3).unwrap();
        let tokened = e
            .optimize_par_cancellable(&cfg, 3, &CancelToken::new())
            .unwrap();
        assert!(!plain.cancelled && !tokened.cancelled);
        assert_eq!(front_key(&plain), front_key(&tokened));
        assert_eq!(plain.evaluations, tokened.evaluations);
    }

    #[test]
    fn schedule_axis_run_is_worker_invariant_too() {
        // The schedule-extended space must keep the worker-count
        // bit-identity guarantee: islands advance on counter-based streams,
        // so adding an axis only changes *what* is drawn, never *who*
        // draws it.
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let cfg = small_config().with_max_fuse_depth(3);
        let serial = e.optimize_par(&cfg, 1).unwrap();
        assert_eq!(
            front_key(&serial),
            front_key(&e.optimize_par(&cfg, 1).unwrap())
        );
        for workers in [2usize, 5] {
            let par = e.optimize_par(&cfg, workers).unwrap();
            assert_eq!(
                front_key(&par),
                front_key(&serial),
                "schedule-extended front diverged at workers={workers}"
            );
        }
        // And the axis must actually change the search relative to the
        // layer-by-layer-only run under the same seed.
        let lbl = e.optimize_par(&small_config(), 1).unwrap();
        assert_ne!(front_key(&serial), front_key(&lbl));
    }

    #[test]
    fn max_fuse_depth_zero_is_rejected_with_the_field_named() {
        match small_config().with_max_fuse_depth(0).validate() {
            Err(ExploreError::BadConfig { detail }) => {
                assert!(detail.contains("max_fuse_depth"), "{detail}");
            }
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn delta_evaluation_is_trajectory_neutral() {
        // The delta path must be invisible to the search: same front, same
        // budget accounting, for any worker count — only the cache
        // counters may differ.
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        for cfg in [small_config(), small_config().with_max_fuse_depth(3)] {
            let full = e
                .optimize_par(&cfg.clone().with_delta_eval(false), 1)
                .unwrap();
            let delta = e.optimize_par(&cfg, 1).unwrap();
            assert_eq!(front_key(&full), front_key(&delta));
            assert_eq!(full.evaluations, delta.evaluations);
            assert_eq!(full.feasible, delta.feasible);
            let par = e.optimize_par(&cfg, 3).unwrap();
            assert_eq!(front_key(&par), front_key(&full));
            // The delta run actually exercised the cache (the memo absorbs
            // exact design revisits, so in-search hits come from *fresh*
            // designs sharing segments with earlier ones); the full run
            // never touched it.
            assert!(delta.cache.seg_hits > 0, "{:?}", delta.cache);
            assert!(delta.cache.seg_misses > 0);
            assert_eq!(full.cache.seg_hits + full.cache.seg_misses, 0);
            // Both paths use the design memo.
            assert!(delta.cache.memo_hits > 0 && full.cache.memo_hits > 0);
        }
    }

    #[test]
    fn every_budget_unit_lands_on_a_feasible_design_on_a_roomy_board() {
        // Budget-accounting regression: the operators only emit space
        // members, every member materializes, and on a board with DSPs ≥
        // max_ces every materialized design builds — so no evaluation
        // attempt may be wasted on an infeasible design.
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::vcu110());
        let f = e.optimize_par(&small_config(), 1).unwrap();
        assert!(f.evaluations > 0);
        assert_eq!(
            f.feasible, f.evaluations,
            "budget leaked to infeasible offspring"
        );
    }

    #[test]
    fn different_seeds_explore_differently() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let a = e.optimize_par(&small_config().with_seed(1), 1).unwrap();
        let b = e.optimize_par(&small_config().with_seed(2), 1).unwrap();
        assert_ne!(front_key(&a), front_key(&b));
    }

    #[test]
    fn single_metric_search_climbs() {
        // With one objective the optimizer degenerates to a (μ+λ) search;
        // its best design must at least match its own random init stream's
        // best at the same budget.
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let cfg = small_config()
            .with_metrics(&[Metric::Throughput])
            .with_islands(2);
        let f = e.optimize_par(&cfg, 1).unwrap();
        // A single-objective front holds only exactly-tied best designs.
        let guided_best = Metric::Throughput
            .best(f.points.iter().map(|p| p.summary.throughput_fps))
            .unwrap();
        for p in &f.points {
            assert_eq!(p.summary.throughput_fps, guided_best);
        }
        let (random, _) = e.par_sample_custom_summaries(64, 9, 1).unwrap();
        let random_best = random
            .iter()
            .map(|p| p.summary.throughput_fps)
            .fold(0.0f64, f64::max);
        assert!(
            guided_best >= random_best * 0.95,
            "guided {guided_best} vs random {random_best}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one metric")]
    fn empty_metric_set_is_rejected() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let cfg = OptimizerConfig {
            metrics: vec![],
            ..OptimizerConfig::default()
        };
        let _ = e.optimize_par(&cfg, 1);
    }
}
