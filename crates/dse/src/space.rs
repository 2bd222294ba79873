//! The custom design space of Use Case 3: a Hybrid-like pipelined head
//! followed by Segmented-like single-CE tail segments with free
//! boundaries.
//!
//! For a CNN with `n` layers and CE counts `k ∈ [min_ces, max_ces]`, a
//! design picks a head length `h ∈ [1, k-1]` (one pipelined CE per head
//! layer) and `k - h - 1` tail boundaries among the remaining layers —
//! `C(n - h - 1, k - h - 1)` choices. The paper quotes roughly 97.1
//! billion such designs for Xception with 2-11 CEs; [`CustomSpace::size`]
//! computes our space's exact cardinality.

use mccm_arch::{templates, AcceleratorSpec, ArchError, Schedule};
use mccm_cnn::CnnModel;
use rand::Rng;

/// A point in the custom space: head length, tail boundaries (exclusive
/// layer end indices, strictly increasing, last = layer count), and the
/// schedule every tail CE runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CustomDesign {
    /// Layers (= CEs) in the pipelined head.
    pub head_layers: usize,
    /// Exclusive end index of each tail segment.
    pub tail_ends: Vec<usize>,
    /// Schedule applied to every tail (single-CE) segment. The pipelined
    /// head is always layer-by-layer — depth-first makes no sense there
    /// (pipelined blocks already overlap layers at tile granularity).
    pub schedule: Schedule,
}

impl CustomDesign {
    /// Total CE count of the design.
    pub fn ce_count(&self) -> usize {
        self.head_layers + self.tail_ends.len()
    }

    /// The movable tail boundaries: every exclusive segment end except the
    /// final one (which is pinned to the layer count).
    fn interior(&self) -> &[usize] {
        &self.tail_ends[..self.tail_ends.len().saturating_sub(1)]
    }

    /// Materializes the design as an accelerator spec.
    ///
    /// # Errors
    ///
    /// Propagates [`ArchError::Infeasible`] for malformed boundaries.
    pub fn to_spec(&self, model: &CnnModel) -> Result<AcceleratorSpec, ArchError> {
        templates::custom_hybrid_segmented(model, self.head_layers, &self.tail_ends, self.schedule)
    }
}

/// The custom design space for one CNN and a CE-count range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CustomSpace {
    /// Convolution layers of the CNN.
    pub layers: usize,
    /// Minimum total CEs (≥ 2: at least one head CE and one tail CE).
    pub min_ces: usize,
    /// Maximum total CEs.
    pub max_ces: usize,
    /// Largest depth-first fuse depth the schedule axis may take. `1`
    /// (the default everywhere) disables the axis: every design is
    /// layer-by-layer and the space, its sampling stream, and the
    /// optimizer's RNG streams are exactly the pre-schedule ones.
    /// `d ≥ 2` adds `d - 1` depth-first variants (fuse depths `2..=d`)
    /// per structural design.
    pub max_fuse_depth: usize,
}

impl CustomSpace {
    /// The paper's CE range (2-11 CEs, §V-A3), layer-by-layer only.
    pub fn paper_range(layers: usize) -> Self {
        Self {
            layers,
            min_ces: 2,
            max_ces: 11,
            max_fuse_depth: 1,
        }
    }

    /// This space with the schedule axis extended to fuse depths up to
    /// `max_fuse_depth` (`1` keeps the axis off).
    #[must_use]
    pub fn with_max_fuse_depth(mut self, max_fuse_depth: usize) -> Self {
        self.max_fuse_depth = max_fuse_depth;
        self
    }

    /// Schedule choices per structural design (≥ 1).
    pub(crate) fn schedule_choices(&self) -> usize {
        self.max_fuse_depth.max(1)
    }

    /// The schedule at axis index `index`: `0` is layer-by-layer,
    /// `s ≥ 1` is depth-first with fuse depth `s + 1` (depth-first with
    /// fuse depth 1 is excluded — it is bit-identical to layer-by-layer
    /// and would duplicate every structural design).
    pub(crate) fn schedule_at(index: usize) -> Schedule {
        if index == 0 {
            Schedule::LayerByLayer
        } else {
            Schedule::DepthFirst {
                fuse_depth: index + 1,
            }
        }
    }

    /// Whether `schedule` lies on this space's axis: layer-by-layer, or
    /// depth-first with a fuse depth in `2..=max_fuse_depth`.
    fn on_axis(&self, schedule: Schedule) -> bool {
        match schedule {
            Schedule::LayerByLayer => true,
            Schedule::DepthFirst { fuse_depth } => {
                (2..=self.schedule_choices()).contains(&fuse_depth)
            }
        }
    }

    /// Exact number of designs in the space, saturating at `u128::MAX`
    /// for spaces too large to count exactly (see [`Self::size_checked`]).
    ///
    /// `Σ_{k=min..=max} Σ_{h=1}^{k-1} C(n - h - 1, k - h - 1)` — the head
    /// covers layers `1..=h`, the `k - h` tail segments partition the
    /// remaining `n - h` layers (choose `k - h - 1` interior boundaries
    /// from `n - h - 1` positions).
    pub fn size(&self) -> u128 {
        self.size_checked().unwrap_or(u128::MAX)
    }

    /// Whether `design` is a well-formed member of this space: head in
    /// `[1, layers - 1]`, CE count within the space's range, tail
    /// boundaries strictly increasing past the head, last boundary equal
    /// to the layer count.
    pub fn contains(&self, design: &CustomDesign) -> bool {
        let n = self.layers;
        let h = design.head_layers;
        if h < 1 || h + 1 > n {
            return false;
        }
        if !self.on_axis(design.schedule) {
            return false;
        }
        let k = design.ce_count();
        if k < self.min_ces || k > self.max_ces {
            return false;
        }
        if design.tail_ends.last() != Some(&n) {
            return false;
        }
        let mut prev = h;
        design.tail_ends.iter().all(|&e| {
            let ok = e > prev;
            prev = e;
            ok
        })
    }

    /// The guided optimizer's **mutation operator**: one random head-length
    /// shift or tail-boundary move (slide, split, or merge), retried a few
    /// times until it yields a valid member of this space. Falls back to a
    /// clone of the input when no attempted move applies (e.g. a 2-layer
    /// space with nothing to vary).
    ///
    /// Deterministic given the RNG state — the optimizer drives it from
    /// counter-based per-island streams so results are worker-invariant.
    pub fn mutate<R: Rng>(&self, design: &CustomDesign, rng: &mut R) -> CustomDesign {
        debug_assert!(self.contains(design), "mutate input must be valid");
        // The two schedule moves only join the op pool when the schedule
        // axis is on, so `max_fuse_depth = 1` consumes the exact RNG
        // stream of the pre-schedule operator set.
        let ops: u32 = if self.schedule_choices() > 1 { 6 } else { 4 };
        for _ in 0..8 {
            let mut d = design.clone();
            let applied = match rng.random_range(0..ops) {
                0 => self.shift_head(&mut d, rng),
                1 => self.slide_boundary(&mut d, rng),
                2 => self.split_segment(&mut d, rng),
                3 => self.merge_segments(&mut d, rng),
                4 => self.flip_schedule(&mut d, rng),
                _ => self.shift_fuse_depth(&mut d, rng),
            };
            if applied && self.contains(&d) {
                return d;
            }
        }
        design.clone()
    }

    /// The guided optimizer's **crossover operator**: the child takes one
    /// parent's head length and a coin-flip blend of both parents' tail
    /// boundaries, repaired back into the space's CE range. Falls back to
    /// a clone of `a` when repair cannot produce a valid design.
    pub fn crossover<R: Rng>(
        &self,
        a: &CustomDesign,
        b: &CustomDesign,
        rng: &mut R,
    ) -> CustomDesign {
        debug_assert!(
            self.contains(a) && self.contains(b),
            "crossover inputs must be valid"
        );
        let n = self.layers;
        let head = if rng.random_bool(0.5) {
            a.head_layers
        } else {
            b.head_layers
        };
        // One coin flip picks a parent's schedule — drawn only when the
        // axis is on, so axis-off streams stay byte-compatible.
        let schedule = if self.schedule_choices() > 1 {
            if rng.random_bool(0.5) {
                a.schedule
            } else {
                b.schedule
            }
        } else {
            Schedule::LayerByLayer
        };
        // Blend: every parental copy of a boundary gets a p=1/2 coin flip
        // until one copy is kept, so a boundary unique to one parent
        // survives with p=1/2 and one both parents agree on with p=3/4 —
        // a deliberate bias toward consensus boundaries. (Boundaries at or
        // before the chosen head no longer exist.)
        let mut interior: Vec<usize> = Vec::new();
        let mut last_seen = 0usize;
        for e in merged_sorted(a.interior(), b.interior()) {
            if e > head && e < n && e != last_seen && rng.random_bool(0.5) {
                interior.push(e);
                last_seen = e;
            }
        }
        // Repair the segment count into [min_ces - head, max_ces - head].
        let min_segs = self.min_ces.saturating_sub(head).max(1);
        let max_segs = match self.max_ces.checked_sub(head) {
            Some(s) if s >= 1 => s,
            _ => return a.clone(), // head ≥ max_ces: no room for a tail
        };
        while interior.len() + 1 > max_segs {
            let i = rng.random_range(0..interior.len());
            interior.remove(i);
        }
        while interior.len() + 1 < min_segs {
            let free: Vec<usize> = (head + 1..n).filter(|p| !interior.contains(p)).collect();
            let Some(&p) = free.get(rng.random_range(0..free.len().max(1))) else {
                return a.clone(); // not enough layers to split further
            };
            let at = interior.partition_point(|&e| e < p);
            interior.insert(at, p);
        }
        let mut tail_ends = interior;
        tail_ends.push(n);
        let child = CustomDesign {
            schedule,
            head_layers: head,
            tail_ends,
        };
        if self.contains(&child) {
            child
        } else {
            a.clone()
        }
    }

    /// Head-length shift: ±1 pipelined head layer. Boundaries at or below
    /// the new head are swallowed by it.
    fn shift_head<R: Rng>(&self, d: &mut CustomDesign, rng: &mut R) -> bool {
        let grow = rng.random_bool(0.5);
        let h = d.head_layers;
        let new_h = if grow { h + 1 } else { h.wrapping_sub(1) };
        if new_h < 1 || new_h + 1 > self.layers {
            return false;
        }
        d.head_layers = new_h;
        // Boundaries the head swallowed disappear; the final `== layers`
        // end always survives (new_h < layers).
        d.tail_ends.retain(|&e| e > new_h);
        true
    }

    /// Tail-boundary slide: move one interior boundary ±1 layer, keeping
    /// strict monotonicity.
    fn slide_boundary<R: Rng>(&self, d: &mut CustomDesign, rng: &mut R) -> bool {
        let interior_len = d.interior().len();
        if interior_len == 0 {
            return false;
        }
        let i = rng.random_range(0..interior_len);
        let delta: isize = if rng.random_bool(0.5) { 1 } else { -1 };
        let lo = if i == 0 {
            d.head_layers + 1
        } else {
            d.tail_ends[i - 1] + 1
        };
        let hi = d.tail_ends[i + 1] - 1; // interior ⇒ i + 1 exists
        let moved = d.tail_ends[i].saturating_add_signed(delta);
        if moved < lo || moved > hi {
            return false;
        }
        d.tail_ends[i] = moved;
        true
    }

    /// Tail split: insert a new boundary (one more, smaller tail segment).
    fn split_segment<R: Rng>(&self, d: &mut CustomDesign, rng: &mut R) -> bool {
        if d.ce_count() + 1 > self.max_ces || d.head_layers + 1 >= self.layers {
            return false;
        }
        let p = rng.random_range(d.head_layers + 1..self.layers);
        if d.tail_ends.contains(&p) {
            return false; // outer retry loop draws again
        }
        let at = d.tail_ends.partition_point(|&e| e < p);
        d.tail_ends.insert(at, p);
        true
    }

    /// Tail merge: drop one interior boundary (two segments fuse).
    fn merge_segments<R: Rng>(&self, d: &mut CustomDesign, rng: &mut R) -> bool {
        let interior_len = d.interior().len();
        if interior_len == 0 || d.ce_count() <= self.min_ces {
            return false;
        }
        let i = rng.random_range(0..interior_len);
        d.tail_ends.remove(i);
        true
    }

    /// Schedule flip: layer-by-layer becomes depth-first at a random
    /// fuse depth in `[2, max_fuse_depth]`; depth-first reverts to
    /// layer-by-layer. Only reachable when the schedule axis is on.
    fn flip_schedule<R: Rng>(&self, d: &mut CustomDesign, rng: &mut R) -> bool {
        match d.schedule {
            Schedule::LayerByLayer => {
                if self.schedule_choices() < 2 {
                    return false;
                }
                d.schedule = Schedule::DepthFirst {
                    fuse_depth: rng.random_range(2..=self.schedule_choices()),
                };
                true
            }
            Schedule::DepthFirst { .. } => {
                d.schedule = Schedule::LayerByLayer;
                true
            }
        }
    }

    /// Fuse-depth shift: ±1 on a depth-first design's fuse depth, staying
    /// within `[2, max_fuse_depth]`. No-op on layer-by-layer designs.
    fn shift_fuse_depth<R: Rng>(&self, d: &mut CustomDesign, rng: &mut R) -> bool {
        let Schedule::DepthFirst { fuse_depth } = d.schedule else {
            return false;
        };
        let deeper = rng.random_bool(0.5);
        let new_depth = if deeper {
            fuse_depth + 1
        } else {
            fuse_depth.wrapping_sub(1)
        };
        if !(2..=self.schedule_choices()).contains(&new_depth) {
            return false;
        }
        d.schedule = Schedule::DepthFirst {
            fuse_depth: new_depth,
        };
        true
    }

    /// Exact number of designs in the space, or `None` if the count
    /// overflows `u128`. Every structural design carries one schedule
    /// variant per choice on the schedule axis (layer-by-layer plus the
    /// depth-first depths `2..=max_fuse_depth`).
    pub fn size_checked(&self) -> Option<u128> {
        let schedules = u128::try_from(self.schedule_choices()).ok()?;
        self.structural_size_checked()?.checked_mul(schedules)
    }

    /// Number of `(head, boundaries)` combinations, ignoring the schedule
    /// axis.
    fn structural_size_checked(&self) -> Option<u128> {
        // Explicit (infallible) widenings: `usize` has no `From` impl
        // into `u128`, and an `as` here would go silently lossy if the
        // index types ever changed.
        let n = u128::try_from(self.layers).ok()?;
        let mut total = 0u128;
        for k in self.min_ces..=self.max_ces {
            for h in 1..k {
                let tail_segments = u128::try_from(k - h).ok()?;
                // A head of h layers needs at least one tail layer; the
                // old saturating_sub here silently counted one phantom
                // design per (k, h) with h >= layers.
                let h_wide = u128::try_from(h).ok()?;
                let Some(positions) = n.checked_sub(h_wide + 1) else {
                    continue;
                };
                total = total.checked_add(binomial_checked(positions, tail_segments - 1)?)?;
            }
        }
        Some(total)
    }
}

/// Binomial coefficient in u128, or `None` when the value (or an
/// irreducible intermediate product) overflows.
///
/// Each step multiplies the exact running value `C(n, i)` by
/// `(n - i) / (i + 1)`; when the direct product would overflow, common
/// factors are cancelled first so only genuinely out-of-range results
/// report overflow.
pub fn binomial_checked(n: u128, k: u128) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut result = 1u128;
    for i in 0..k {
        let (num, den) = (n - i, i + 1);
        result = match result.checked_mul(num) {
            Some(prod) => prod / den, // exact: den divides result * num
            None => {
                // Cancel gcd factors, then retry; division stays exact.
                let g = gcd(num, den);
                let (num, den) = (num / g, den / g);
                let g = gcd(result, den);
                let (res, den) = (result / g, den / g);
                debug_assert_eq!(den, 1, "C(n,i+1) must be an integer");
                res.checked_mul(num)?
            }
        };
    }
    Some(result)
}

/// Merges two ascending slices into one ascending `Vec` (duplicates kept
/// adjacent — crossover's blend loop skips the second copy of a kept
/// boundary).
fn merged_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::CustomSampler;
    use mccm_cnn::zoo;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial_checked(5, 0), Some(1));
        assert_eq!(binomial_checked(5, 2), Some(10));
        assert_eq!(binomial_checked(5, 5), Some(1));
        assert_eq!(binomial_checked(4, 5), Some(0));
        assert_eq!(binomial_checked(10, 3), Some(120));
        assert_eq!(binomial_checked(52, 5), Some(2_598_960));
    }

    #[test]
    fn binomial_overflow_saturates_honestly() {
        // Regression: the old saturating_mul-then-divide scheme returned a
        // silently wrong (saturated-then-divided) count here instead of
        // either the exact value or an honest overflow report.
        assert_eq!(binomial_checked(1000, 500), None);
        assert_eq!(binomial_checked(170, 85), None);
        // Large-but-representable values stay exact (the intermediate
        // product overflows without the gcd-cancellation rescue).
        assert_eq!(
            binomial_checked(100, 50),
            Some(100_891_344_545_564_193_334_812_497_256)
        );
        // The boundary is honest in both directions: every representable
        // result is reported.
        for k in 0..=64u128 {
            assert!(binomial_checked(128, k).is_some());
        }
    }

    #[test]
    fn size_checked_matches_size_for_real_spaces() {
        let space = CustomSpace::paper_range(74);
        assert_eq!(space.size_checked(), Some(space.size()));
    }

    #[test]
    fn space_size_is_astronomical_for_xception() {
        // The paper quotes ~97.1 billion designs for XCp with 2-11 CEs;
        // our space definition lands in the same regime (within two orders
        // of magnitude), far beyond exhaustive evaluation.
        let space = CustomSpace::paper_range(74);
        let size = space.size();
        assert!(size > 1_000_000_000, "space size {size}");
        assert!(size < 100_000_000_000_000, "space size {size}");
    }

    #[test]
    fn tiny_space_enumerates() {
        // n=4 layers, k=2..3:
        // k=2: h=1, tail=1 segment -> 1 design.
        // k=3: h=1 tail 2 segs -> C(2,1)=2; h=2 tail 1 seg -> 1.
        let space = CustomSpace {
            max_fuse_depth: 1,
            layers: 4,
            min_ces: 2,
            max_ces: 3,
        };
        assert_eq!(space.size(), 1 + 2 + 1);
    }

    #[test]
    fn size_matches_a_brute_force_count_of_members() {
        // An independent count: try every head length, boundary subset and
        // schedule of a tiny space and count the designs `contains` accepts.
        let schedules: Vec<Schedule> = std::iter::once(Schedule::LayerByLayer)
            .chain((1..=4).map(|fuse_depth| Schedule::DepthFirst { fuse_depth }))
            .collect();
        let mut nonempty = 0usize;
        for layers in [1usize, 2, 4, 7] {
            for (min_ces, max_ces) in [(2usize, 2usize), (2, 3), (2, 5), (3, 11), (6, 11)] {
                for max_fuse_depth in 1..=3 {
                    let space = CustomSpace {
                        layers,
                        min_ces,
                        max_ces,
                        max_fuse_depth,
                    };
                    let mut members = 0u128;
                    for head_layers in 0..=layers + 1 {
                        for subset in 0u32..1 << (layers - 1) {
                            let mut tail_ends: Vec<usize> =
                                (1..layers).filter(|p| subset >> (p - 1) & 1 == 1).collect();
                            tail_ends.push(layers);
                            for &schedule in &schedules {
                                let design = CustomDesign {
                                    head_layers,
                                    tail_ends: tail_ends.clone(),
                                    schedule,
                                };
                                members += u128::from(space.contains(&design));
                            }
                        }
                    }
                    assert_eq!(space.size(), members, "{space:?}");
                    nonempty += usize::from(members > 0);
                }
            }
        }
        assert!(nonempty >= 20, "only {nonempty} non-empty spaces checked");
    }

    #[test]
    fn operators_emit_members_on_the_schedule_axis() {
        // The optimizer evaluates operator outputs as they come (it only
        // debug-asserts membership), so both operators must stay inside a
        // schedule-extended space.
        use rand::{rngs::StdRng, SeedableRng};
        let space = CustomSpace::paper_range(74).with_max_fuse_depth(3);
        let mut rng = StdRng::seed_from_u64(13);
        let mut sampler = CustomSampler::new(space, 17);
        for _ in 0..300 {
            let a = sampler.sample();
            let b = sampler.sample();
            let m = space.mutate(&a, &mut rng);
            let c = space.crossover(&a, &b, &mut rng);
            assert!(space.contains(&m), "mutant of {a:?} left the space: {m:?}");
            assert!(
                space.contains(&c),
                "child of {a:?} x {b:?} left the space: {c:?}"
            );
        }
    }

    #[test]
    fn contains_accepts_members_and_rejects_malformed_designs() {
        let space = CustomSpace::paper_range(74);
        let ok = CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 3,
            tail_ends: vec![20, 52, 74],
        };
        assert!(space.contains(&ok));
        // Last end must be the layer count.
        assert!(!space.contains(&CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 3,
            tail_ends: vec![20, 52]
        }));
        // Boundaries must be strictly increasing past the head.
        assert!(!space.contains(&CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 3,
            tail_ends: vec![3, 74]
        }));
        assert!(!space.contains(&CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 3,
            tail_ends: vec![52, 20, 74]
        }));
        // CE count must stay within the range.
        let narrow = CustomSpace {
            max_fuse_depth: 1,
            layers: 74,
            min_ces: 3,
            max_ces: 11,
        };
        assert!(!narrow.contains(&CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 1,
            tail_ends: vec![74]
        }));
        let too_many = CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 6,
            tail_ends: (7..=11).chain(std::iter::once(74)).collect(),
        };
        assert_eq!(too_many.ce_count(), 12);
        assert!(!space.contains(&too_many));
        // Headless designs are not members.
        assert!(!space.contains(&CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 0,
            tail_ends: vec![10, 74]
        }));
    }

    #[test]
    fn mutation_stays_inside_the_space_and_moves() {
        use rand::{rngs::StdRng, SeedableRng};
        for (layers, min_ces, max_ces) in [(74, 2, 11), (6, 2, 5), (10, 2, 11)] {
            let space = CustomSpace {
                max_fuse_depth: 1,
                layers,
                min_ces,
                max_ces,
            };
            let mut rng = StdRng::seed_from_u64(7);
            let mut sampler = CustomSampler::new(space, 3);
            let mut changed = 0usize;
            for _ in 0..200 {
                let d = sampler.sample();
                let m = space.mutate(&d, &mut rng);
                assert!(space.contains(&m), "mutant of {d:?} invalid: {m:?}");
                if m != d {
                    changed += 1;
                }
            }
            // Mutation must actually move most of the time.
            assert!(
                changed > 150,
                "only {changed}/200 mutations moved ({layers} layers)"
            );
        }
    }

    #[test]
    fn crossover_stays_inside_the_space_and_blends() {
        use rand::{rngs::StdRng, SeedableRng};
        let space = CustomSpace::paper_range(74);
        let mut rng = StdRng::seed_from_u64(11);
        let mut sampler = CustomSampler::new(space, 5);
        let mut differs_from_both = 0usize;
        for _ in 0..200 {
            let a = sampler.sample();
            let b = sampler.sample();
            let c = space.crossover(&a, &b, &mut rng);
            assert!(space.contains(&c), "child of {a:?} x {b:?} invalid: {c:?}");
            if c != a && c != b {
                differs_from_both += 1;
            }
        }
        assert!(differs_from_both > 100, "crossover degenerated to cloning");
    }

    #[test]
    fn operators_are_deterministic_per_rng_stream() {
        use rand::{rngs::StdRng, SeedableRng};
        let space = CustomSpace::paper_range(74);
        let a = CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 3,
            tail_ends: vec![20, 52, 74],
        };
        let b = CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 5,
            tail_ends: vec![30, 60, 70, 74],
        };
        let run = || {
            let mut rng = StdRng::seed_from_u64(42);
            let mut out = Vec::new();
            for _ in 0..50 {
                out.push(space.mutate(&a, &mut rng));
                out.push(space.crossover(&a, &b, &mut rng));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn schedule_mutations_walk_the_axis_and_stay_valid() {
        use rand::{rngs::StdRng, SeedableRng};
        let space = CustomSpace::paper_range(74).with_max_fuse_depth(4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut d = CustomDesign {
            schedule: Schedule::LayerByLayer,
            head_layers: 3,
            tail_ends: vec![20, 52, 74],
        };
        let mut depths = std::collections::HashSet::new();
        let mut back_to_lbl = false;
        for _ in 0..400 {
            let was_df = matches!(d.schedule, Schedule::DepthFirst { .. });
            d = space.mutate(&d, &mut rng);
            assert!(space.contains(&d), "mutant left the space: {d:?}");
            match d.schedule {
                Schedule::DepthFirst { fuse_depth } => {
                    depths.insert(fuse_depth);
                }
                Schedule::LayerByLayer if was_df => back_to_lbl = true,
                Schedule::LayerByLayer => {}
            }
        }
        assert!(depths.len() >= 2, "fuse depths reached: {depths:?}");
        assert!(depths.iter().all(|&f| (2..=4).contains(&f)));
        assert!(back_to_lbl, "flip never reverted to layer-by-layer");
    }

    #[test]
    fn axis_off_space_never_leaves_layer_by_layer() {
        use rand::{rngs::StdRng, SeedableRng};
        let space = CustomSpace::paper_range(74);
        assert!(!space.contains(&CustomDesign {
            schedule: Schedule::DepthFirst { fuse_depth: 2 },
            head_layers: 3,
            tail_ends: vec![20, 52, 74],
        }));
        let mut rng = StdRng::seed_from_u64(13);
        let mut sampler = CustomSampler::new(space, 3);
        for _ in 0..100 {
            let a = sampler.sample();
            let b = sampler.sample();
            assert_eq!(a.schedule, Schedule::LayerByLayer);
            let m = space.mutate(&a, &mut rng);
            assert_eq!(m.schedule, Schedule::LayerByLayer);
            let c = space.crossover(&a, &b, &mut rng);
            assert_eq!(c.schedule, Schedule::LayerByLayer);
        }
    }

    #[test]
    fn crossover_inherits_one_parent_schedule() {
        use rand::{rngs::StdRng, SeedableRng};
        let space = CustomSpace::paper_range(74).with_max_fuse_depth(3);
        let a = CustomDesign {
            schedule: Schedule::DepthFirst { fuse_depth: 3 },
            head_layers: 3,
            tail_ends: vec![20, 52, 74],
        };
        let b = CustomDesign {
            schedule: Schedule::LayerByLayer,
            head_layers: 5,
            tail_ends: vec![30, 60, 70, 74],
        };
        let mut rng = StdRng::seed_from_u64(17);
        let mut inherited = std::collections::HashSet::new();
        for _ in 0..100 {
            let c = space.crossover(&a, &b, &mut rng);
            assert!(space.contains(&c));
            assert!(c.schedule == a.schedule || c.schedule == b.schedule);
            inherited.insert(c.schedule);
        }
        assert_eq!(inherited.len(), 2, "both parental schedules must appear");
    }

    #[test]
    fn design_materializes() {
        let m = zoo::mobilenet_v2();
        let d = CustomDesign {
            schedule: mccm_arch::Schedule::LayerByLayer,
            head_layers: 3,
            tail_ends: vec![20, 52],
        };
        assert_eq!(d.ce_count(), 5);
        let spec = d.to_spec(&m).unwrap();
        assert_eq!(spec.ce_count(), 5);
        assert!(spec.coarse_pipeline);
    }
}
