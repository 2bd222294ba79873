//! Parallel, sharded design-space sweeps over `std::thread::scope`.
//!
//! Each sweep has one entry point, taking a worker count (`0` = one per
//! core); `workers = 1` runs inline on the calling thread. Every entry
//! point is **worker-count invariant**: it returns exactly the designs (in
//! exactly the order) the inline run returns. Three mechanisms make that
//! hold:
//!
//! * sampled sweeps draw each design from a counter-based RNG stream
//!   ([`crate::sample_attempt`]) — the design of attempt `a` is a pure
//!   function of `(seed, a)`, so sharding attempts across threads cannot
//!   change the point set, only who evaluates it;
//! * attempts are processed in contiguous batches, and the result is the
//!   first `count` feasible designs *in attempt order* — overshoot from a
//!   batch is discarded deterministically;
//! * grid sweeps and Pareto merges split their input into contiguous
//!   chunks and concatenate (or merge) chunk results in input order.
//!
//! Worker threads accumulate lean [`CustomPoint`]s and local
//! [`ParetoFront`]s; fronts are merged at the end ([`par_pareto_indices`])
//! — the front of a union is the merge of the parts' fronts.

use std::time::{Duration, Instant};

use mccm_arch::{templates, ArchError};
use mccm_core::{EvalScratch, Metric, MetricSource};

use crate::error::ExploreError;
use crate::explorer::{default_max_attempts, BaselinePoint, CustomPoint, Explorer};
use crate::pareto::ParetoFront;
use crate::sampler::{sample_attempt, CustomSampler};
use crate::space::CustomDesign;
use mccm_core::CancelToken;

/// The outcome of evaluating one drawn design: `Ok(Some(_))` feasible,
/// `Ok(None)` infeasible (skipped), `Err` a real fault.
type Cell = Result<Option<CustomPoint>, ArchError>;

/// The per-design evaluation hook of [`sample_engine`]. The
/// [`EvalScratch`] is per-worker (one per thread, one for the inline
/// path), so the hook evaluates without steady-state allocation.
type EvalFn<'a> = &'a (dyn Fn(&Explorer, &CustomDesign, &mut EvalScratch) -> Cell + Sync);

/// The number of available cores (at least 1).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// The most worker threads any entry point starts: 4× the available
/// cores. An absurd `--workers` value must not make thread spawning
/// itself the failure mode.
pub fn max_workers() -> usize {
    available_cores().saturating_mul(4)
}

/// Resolves a worker-count knob: `0` means "one per available core".
/// Results are worker-count invariant, so the knob is silently capped at
/// [`max_workers`].
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        available_cores()
    } else {
        workers.min(max_workers()).max(1)
    }
}

/// Splits `[0, len)` into at most `parts` contiguous near-equal ranges
/// (sizes differing by at most one); empty ranges are dropped, so fewer
/// than `parts` ranges come back when `len < parts`.
pub(crate) fn chunk_bounds(len: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let (chunk, extra) = (len / parts, len % parts);
    let mut out = Vec::new();
    let mut start = 0;
    for i in 0..parts {
        let size = chunk + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Runs `job` once per chunk (an index range, a batch of owned items)
/// and returns the results in chunk order: inline for a single chunk,
/// else one scoped thread per chunk.
pub(crate) fn run_chunks<C: Send, R: Send>(chunks: Vec<C>, job: impl Fn(C) -> R + Sync) -> Vec<R> {
    if chunks.len() <= 1 {
        return chunks.into_iter().map(job).collect();
    }
    let job = &job;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| s.spawn(move || job(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

/// The result of one cancellable sampling sweep: the feasible designs
/// found (all of them in the un-cancelled case, a prefix otherwise), the
/// attempt-stream position reached, and whether cancellation cut the
/// sweep short.
#[derive(Debug, Clone)]
pub struct SampleRun {
    /// Feasible designs in attempt order. When `cancelled` is false this
    /// holds exactly the requested count; when true, the feasible designs
    /// among the first `attempts` attempts — a prefix of the un-cancelled
    /// result.
    pub points: Vec<CustomPoint>,
    /// Attempts consumed from the counter-based stream (feasible or not).
    pub attempts: u64,
    /// Whether the token skipped an attempt before `count` feasible
    /// designs were found.
    pub cancelled: bool,
    /// Wall time of the sweep.
    pub elapsed: Duration,
}

/// The shared sampling engine behind every sampled sweep: walks the
/// counter-based attempt stream, keeps the first `count` feasible designs
/// in attempt order, and caps total attempts at
/// [`default_max_attempts`]`(count)`.
///
/// `eval` maps a drawn design to its [`Cell`]; infeasible designs are
/// skipped and real faults propagated. With `workers <= 1` everything
/// runs inline on the calling thread.
///
/// The cancel token is polled at attempt boundaries (inline) and batch /
/// per-design boundaries (parallel); a token that never fires leaves the
/// attempt walk — and therefore the result — bit-identical. On
/// cancellation the engine returns the feasible prefix found so far
/// instead of erroring; the returned flag is set only when the token
/// skipped an attempt the inline walk would have made, so a sweep that
/// finished before the token fired is not reported as cancelled, and an
/// unflagged result always equals the inline one.
pub(crate) fn sample_engine(
    explorer: &Explorer,
    count: usize,
    seed: u64,
    workers: usize,
    cancel: &CancelToken,
    eval: EvalFn<'_>,
) -> Result<(Vec<CustomPoint>, u64, bool), ExploreError> {
    let space = explorer.paper_space();
    // Reject degenerate spaces up front (same panics as direct sampling).
    let _ = CustomSampler::new(space, seed);
    let workers = resolve_workers(workers);
    let max_attempts = default_max_attempts(count);
    let mut points = Vec::new();
    let mut next_attempt = 0u64;
    let mut cancelled = false;
    if workers <= 1 {
        let mut scratch = EvalScratch::new();
        while points.len() < count && next_attempt < max_attempts {
            if cancel.is_cancelled() {
                cancelled = true;
                break;
            }
            let design = sample_attempt(&space, seed, next_attempt);
            if let Some(t) = eval(explorer, &design, &mut scratch)? {
                points.push(t);
            }
            next_attempt += 1;
        }
    } else {
        while points.len() < count && next_attempt < max_attempts {
            if cancel.is_cancelled() {
                cancelled = true;
                break;
            }
            let need = (count - points.len()) as u64;
            // Slight over-provisioning absorbs the (usually small) infeasible
            // fraction; any overshoot past the count-th success is discarded,
            // so the batch size never changes the result.
            let batch = (need + need / 16 + 16)
                .max(workers as u64 * 8)
                .min(max_attempts - next_attempt);
            let batch = usize::try_from(batch)
                .expect("batch is bounded by the remaining sample count, a usize");
            let base = next_attempt;
            // `None` marks an attempt skipped because the token fired.
            let chunk_results = run_chunks(chunk_bounds(batch, workers), |(lo, hi)| {
                let mut scratch = EvalScratch::new();
                (base + lo as u64..base + hi as u64)
                    .map(|a| {
                        (!cancel.is_cancelled())
                            .then(|| eval(explorer, &sample_attempt(&space, seed, a), &mut scratch))
                    })
                    .collect::<Vec<Option<Cell>>>()
            });
            // Chunks are contiguous and concatenated in order, so this scan
            // replays the exact inline attempt order; outcomes past the
            // count-th success (including faults) are ignored, as an inline
            // walk would never have reached them. A skipped attempt before
            // the count-th success ends the sweep as cancelled, with the
            // stream position at that attempt: later outcomes cannot be
            // kept without breaking the attempt-order prefix.
            next_attempt += batch as u64;
            for (a, outcome) in (base..).zip(chunk_results.into_iter().flatten()) {
                if points.len() == count {
                    break;
                }
                let Some(outcome) = outcome else {
                    next_attempt = a;
                    cancelled = true;
                    break;
                };
                if let Some(t) = outcome? {
                    points.push(t);
                }
            }
            if cancelled {
                break;
            }
        }
    }
    Ok((points, next_attempt, cancelled))
}

impl Explorer {
    /// Evaluates every baseline architecture at every CE count in `range`
    /// (infeasible combinations skipped) — the instance grid behind
    /// Tables I/V and Figs. 5/8. Shards the (architecture × CE count)
    /// grid across `workers` threads (`0` = one per core, `1` inline);
    /// the point list is the same for any worker count.
    ///
    /// # Errors
    ///
    /// The first builder fault other than [`ArchError::Infeasible`] in
    /// grid order — real bugs are never reported as "infeasible".
    pub fn par_sweep_baselines(
        &self,
        range: impl IntoIterator<Item = usize> + Clone,
        workers: usize,
    ) -> Result<Vec<BaselinePoint>, ArchError> {
        let (points, _) =
            self.par_sweep_baselines_cancellable(range, workers, &CancelToken::new())?;
        Ok(points)
    }

    /// [`Self::par_sweep_baselines`] with a cooperative [`CancelToken`],
    /// polled before every (architecture, CE count) cell. A fired token
    /// skips the remaining cells and returns the points built so far; the
    /// `cancelled` flag is set only when a cell was skipped. A token that
    /// never fires leaves the sweep bit-identical to the plain form.
    ///
    /// # Errors
    ///
    /// As [`Self::par_sweep_baselines`].
    pub fn par_sweep_baselines_cancellable(
        &self,
        range: impl IntoIterator<Item = usize> + Clone,
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<(Vec<BaselinePoint>, bool), ArchError> {
        let cells: Vec<(templates::Architecture, usize)> = templates::Architecture::ALL
            .into_iter()
            .flat_map(|a| range.clone().into_iter().map(move |ces| (a, ces)))
            .collect();
        // `None` marks a cell skipped because the token fired.
        let cell = |a, ces| (!cancel.is_cancelled()).then(|| self.baseline_cell(a, ces));
        let workers = resolve_workers(workers).min(cells.len().max(1));
        let cell_results: Vec<_> = run_chunks(chunk_bounds(cells.len(), workers), |(lo, hi)| {
            cells[lo..hi]
                .iter()
                .map(|&(a, ces)| cell(a, ces))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let cancelled = cell_results.iter().any(Option::is_none);
        let mut out = Vec::new();
        for r in cell_results.into_iter().flatten() {
            if let Some(point) = r? {
                out.push(point);
            }
        }
        Ok((out, cancelled))
    }

    /// Samples and evaluates `count` custom designs (Use Case 3),
    /// returning the points plus the total wall time — the quantity
    /// behind the paper's "100000 designs in 10.5 minutes". Each design
    /// keeps only its lean [`EvalSummary`], evaluated through the summary
    /// fast lane with one scratch per worker. The point set and order are
    /// a pure function of `(count, seed)`, the same for any `workers`
    /// (`0` = one per core, `1` inline).
    ///
    /// [`EvalSummary`]: mccm_core::EvalSummary
    ///
    /// # Errors
    ///
    /// [`ExploreError::AttemptsExhausted`] when the attempt budget
    /// ([`default_max_attempts`]) runs out before `count` feasible
    /// designs are found, [`ExploreError::Arch`] on real builder faults.
    pub fn par_sample_custom_summaries(
        &self,
        count: usize,
        seed: u64,
        workers: usize,
    ) -> Result<(Vec<CustomPoint>, Duration), ExploreError> {
        let run = self.par_sample_custom_summaries_cancellable(
            count,
            seed,
            workers,
            &CancelToken::new(),
        )?;
        Ok((run.points, run.elapsed))
    }

    /// [`Self::par_sample_custom_summaries`] with a cooperative
    /// [`CancelToken`], polled at attempt boundaries. A fired token stops
    /// the sweep and returns the feasible prefix found so far instead of
    /// erroring; [`SampleRun::cancelled`] is set only when the token
    /// skipped an attempt before `count` feasible designs were found. A
    /// token that never fires leaves the sweep bit-identical to the plain
    /// form.
    ///
    /// # Errors
    ///
    /// As [`Self::par_sample_custom_summaries`] — but only un-cancelled
    /// sweeps can exhaust their attempt budget.
    pub fn par_sample_custom_summaries_cancellable(
        &self,
        count: usize,
        seed: u64,
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<SampleRun, ExploreError> {
        let start = Instant::now();
        let (points, attempts, cancelled) =
            sample_engine(self, count, seed, workers, cancel, &|e, d, scratch| {
                e.custom_summary_cell(d, scratch)
            })?;
        // Short of `count` feasible designs without cancellation is an
        // exhausted budget.
        if !cancelled && points.len() < count {
            return Err(ExploreError::AttemptsExhausted {
                wanted: count,
                got: points.len(),
                attempts,
            });
        }
        Ok(SampleRun {
            points,
            attempts,
            cancelled,
            elapsed: start.elapsed(),
        })
    }
}

/// Indices of the non-dominated items, computed with per-worker local
/// [`ParetoFront`]s merged at the end (`workers = 0` ⇒ one per core).
/// Returns the same ascending index list for any worker count;
/// `workers = 1` is the batch pass.
pub fn par_pareto_indices<S: MetricSource + Sync>(
    items: &[S],
    metrics: &[Metric],
    workers: usize,
) -> Vec<usize> {
    let workers = resolve_workers(workers).min(items.len().max(1));
    let values = |item: &S| -> Vec<f64> { metrics.iter().map(|m| m.value(item)).collect() };
    let mut fronts = run_chunks(chunk_bounds(items.len(), workers), |(lo, hi)| {
        let mut front = ParetoFront::new(metrics);
        for (off, item) in items[lo..hi].iter().enumerate() {
            front.offer_with_values(lo + off, values(item));
        }
        front
    })
    .into_iter();
    let mut merged = fronts.next().unwrap_or_else(|| ParetoFront::new(metrics));
    for front in fronts {
        merged.merge(front);
    }
    let mut indices = merged.into_items();
    indices.sort_unstable();
    indices
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccm_cnn::zoo;
    use mccm_fpga::FpgaBoard;

    #[test]
    fn parallel_baseline_sweep_matches_serial() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let serial = e.par_sweep_baselines(2..=6, 1).unwrap();
        for workers in [1usize, 2, 5] {
            let par = e.par_sweep_baselines(2..=6, workers).unwrap();
            assert_eq!(par.len(), serial.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.architecture, b.architecture);
                assert_eq!(a.ces, b.ces);
                assert_eq!(a.eval, b.eval);
            }
        }
    }

    #[test]
    fn parallel_sampling_matches_serial_for_any_worker_count() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let (serial, _) = e.par_sample_custom_summaries(30, 7, 1).unwrap();
        for workers in [2usize, 3, 8] {
            let (par, _) = e.par_sample_custom_summaries(30, 7, workers).unwrap();
            assert_eq!(par.len(), serial.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.summary, b.summary);
            }
        }
    }

    #[test]
    fn sharded_pareto_matches_batch() {
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::vcu110());
        let (points, _) = e.par_sample_custom_summaries(60, 13, 1).unwrap();
        let summaries: Vec<_> = points.iter().map(|p| p.summary.clone()).collect();
        let metrics = [Metric::Throughput, Metric::OnChipBuffers];
        let serial = par_pareto_indices(&summaries, &metrics, 1);
        for workers in [2usize, 3, 16] {
            assert_eq!(par_pareto_indices(&summaries, &metrics, workers), serial);
        }
        // And the rich evaluations of the same designs give the same front.
        let evals: Vec<_> = points
            .iter()
            .map(|p| e.evaluate(&p.design.to_spec(&m).unwrap()).unwrap().summary)
            .collect();
        assert_eq!(par_pareto_indices(&evals, &metrics, 1), serial);
    }

    fn fired_token() -> CancelToken {
        let cancel = CancelToken::new();
        cancel.cancel();
        cancel
    }

    #[test]
    fn empty_sweep_under_a_fired_token_is_not_cancelled() {
        // `cancelled` means a cell was skipped: an empty grid skips none,
        // so serve must not label its (complete) result degraded.
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        #[allow(clippy::reversed_empty_ranges)]
        let (points, cancelled) = e
            .par_sweep_baselines_cancellable(3..=2, 2, &fired_token())
            .unwrap();
        assert!(points.is_empty());
        assert!(!cancelled, "an empty sweep skipped no cell");
        let (_, cancelled) = e
            .par_sweep_baselines_cancellable(2..=3, 2, &fired_token())
            .unwrap();
        assert!(cancelled, "skipped cells must still be labelled");
    }

    #[test]
    fn zero_count_sample_under_a_fired_token_is_not_cancelled() {
        // A sample is cancelled only when it holds fewer than `count`
        // points; a zero-count sample is complete before it starts.
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        for workers in [1usize, 2] {
            let run = e
                .par_sample_custom_summaries_cancellable(0, 1, workers, &fired_token())
                .unwrap();
            assert!(run.points.is_empty());
            assert!(!run.cancelled, "workers={workers}");
            let run = e
                .par_sample_custom_summaries_cancellable(5, 1, workers, &fired_token())
                .unwrap();
            assert!(run.cancelled && run.points.is_empty(), "workers={workers}");
        }
    }

    #[test]
    fn a_token_fired_mid_batch_is_flagged_or_changes_nothing() {
        // The hook fires the token on attempt 0, which the first chunk
        // evaluates, after giving the other chunks time to finish theirs:
        // they alone can hold `count` feasible designs, but the first
        // chunk skips the attempts right after attempt 0. An unflagged
        // result must be the inline one; a flagged one a prefix of it.
        let m = zoo::mobilenet_v2();
        let e = Explorer::new(&m, &FpgaBoard::zc706());
        let (inline, _) = e.par_sample_custom_summaries(4, 3, 1).unwrap();
        let first = sample_attempt(&e.paper_space(), 3, 0);
        for workers in [2usize, 4, 8] {
            let cancel = CancelToken::new();
            let (points, attempts, cancelled) =
                sample_engine(&e, 4, 3, workers, &cancel, &|e, d, scratch| {
                    if *d == first {
                        std::thread::sleep(Duration::from_millis(50));
                        cancel.cancel();
                    }
                    e.custom_summary_cell(d, scratch)
                })
                .unwrap();
            assert!(cancel.is_cancelled());
            if cancelled {
                assert!(points.len() < 4, "workers={workers}");
                assert_eq!(points[..], inline[..points.len()], "workers={workers}");
                assert!(attempts >= 1, "the firing attempt itself was evaluated");
            } else {
                assert_eq!(points, inline, "workers={workers}");
            }
        }
    }
}
