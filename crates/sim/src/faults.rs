//! Fail-stop fault injection (§2.1, §4.3).
//!
//! A failed process neither sends nor processes messages; senders get no
//! feedback. Failures are decided *before* the broadcast (during one
//! execution every process is either dead or alive) and the root is
//! always alive because it initiates the operation.
//!
//! The paper's resilience experiments pick a fraction of processes
//! (0.01%–4%) uniformly at random; adversarial placements (the root's
//! children, whole subtrees) are provided for testing worst cases.

use core::fmt;

use ct_logp::Rank;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// Fixed block size for [`FaultPlan::random_count_chunked`]. Part of
/// the sampling definition (the stratification grid), not a tuning
/// knob: changing it changes which plans a seed produces.
pub const CHUNK_RANKS: u32 = 1 << 16;

/// Apportion `n` faults to the fixed chunk grid by exact proportion of
/// each chunk's available (non-protected) ranks, largest-remainder
/// rounding, ties to lower chunk index. Pure integer arithmetic.
fn chunk_quotas(p: u32, n: u32, available: u32) -> Vec<u32> {
    let chunks = p.div_ceil(CHUNK_RANKS) as usize;
    let avail_of = |idx: usize| -> u64 {
        let lo = idx as u64 * u64::from(CHUNK_RANKS);
        let hi = (lo + u64::from(CHUNK_RANKS)).min(u64::from(p));
        // Chunk 0 holds the protected root.
        hi - lo - u64::from(idx == 0)
    };
    let mut quotas = vec![0u32; chunks];
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(chunks);
    let mut assigned = 0u32;
    for (idx, q) in quotas.iter_mut().enumerate() {
        let share = u64::from(n) * avail_of(idx);
        *q = (share / u64::from(available)) as u32;
        assigned += *q;
        remainders.push((share % u64::from(available), idx));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = n - assigned;
    for (_, idx) in remainders {
        if leftover == 0 {
            break;
        }
        if u64::from(quotas[idx]) < avail_of(idx) {
            quotas[idx] += 1;
            leftover -= 1;
        }
    }
    debug_assert_eq!(leftover, 0, "chunk capacity must absorb all faults");
    quotas
}

/// Sample `quota` distinct failures into one chunk's slice of the mask.
/// Chunk 0 protects rank 0. Seeded from `(seed, idx)` only.
fn fill_chunk(idx: usize, chunk: &mut [bool], quota: u32, seed: u64) {
    if quota == 0 {
        return;
    }
    let derived = seed.wrapping_add((idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = StdRng::seed_from_u64(derived);
    let skip_root = usize::from(idx == 0);
    let avail = chunk.len() - skip_root;
    for j in sample(&mut rng, avail, quota as usize) {
        chunk[j + skip_root] = true;
    }
}

/// How many threads to fill chunks with: 1 for small plans, else
/// [`ct_obs::default_threads`] capped by the chunk count. Only affects
/// wall time, never the plan.
fn fill_threads(chunks: usize) -> usize {
    if chunks < 4 {
        return 1;
    }
    ct_obs::default_threads().clamp(1, chunks)
}

/// Which processes are dead for one broadcast execution.
///
/// Internally double-booked: the `Vec<bool>` mask serves the analysis
/// APIs ([`FaultPlan::mask`]), while a packed bit vector (64 ranks per
/// word, 128 KiB at `P = 2²⁰` against the mask's 1 MiB) serves the
/// engine's per-arrival [`FaultPlan::is_failed`] checks without
/// thrashing the caches the event loop needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    failed: Vec<bool>,
    /// `failed` packed one bit per rank; kept in sync by [`Self::seal`].
    words: Vec<u64>,
    count: u32,
}

/// Errors constructing a fault plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// Rank 0 initiates the broadcast and must stay alive (§2.1).
    RootMustLive,
    /// A rank outside `0..P` was named.
    RankOutOfRange(Rank),
    /// More failures requested than non-root processes exist.
    TooManyFaults {
        /// Requested number of failures.
        requested: u32,
        /// Non-root processes available to fail.
        available: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::RootMustLive => write!(f, "rank 0 (the root) cannot fail"),
            FaultError::RankOutOfRange(r) => write!(f, "rank {r} out of range"),
            FaultError::TooManyFaults {
                requested,
                available,
            } => {
                write!(
                    f,
                    "{requested} faults requested but only {available} non-root processes"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultPlan {
    /// Finalize a mask into a plan, deriving the packed bit vector.
    fn seal(failed: Vec<bool>, count: u32) -> FaultPlan {
        let mut words = vec![0u64; failed.len().div_ceil(64)];
        for (r, &f) in failed.iter().enumerate() {
            if f {
                words[r / 64] |= 1u64 << (r % 64);
            }
        }
        FaultPlan {
            failed,
            words,
            count,
        }
    }

    /// No failures.
    pub fn none(p: u32) -> FaultPlan {
        FaultPlan::seal(vec![false; p as usize], 0)
    }

    /// Fail exactly the listed ranks; the broadcast root (rank 0) is
    /// protected. For non-zero roots see
    /// [`FaultPlan::from_ranks_protecting`].
    pub fn from_ranks(p: u32, ranks: &[Rank]) -> Result<FaultPlan, FaultError> {
        Self::from_ranks_protecting(p, ranks, 0)
    }

    /// Fail exactly the listed ranks, rejecting the protected rank (the
    /// broadcast root, which must be alive because it initiates the
    /// operation, §2.1).
    pub fn from_ranks_protecting(
        p: u32,
        ranks: &[Rank],
        protected: Rank,
    ) -> Result<FaultPlan, FaultError> {
        assert!(protected < p, "protected rank out of range");
        let mut failed = vec![false; p as usize];
        let mut count = 0;
        for &r in ranks {
            if r == protected {
                return Err(FaultError::RootMustLive);
            }
            if r >= p {
                return Err(FaultError::RankOutOfRange(r));
            }
            if !failed[r as usize] {
                failed[r as usize] = true;
                count += 1;
            }
        }
        Ok(FaultPlan::seal(failed, count))
    }

    /// Fail `n` distinct non-root processes chosen uniformly at random.
    pub fn random_count(p: u32, n: u32, seed: u64) -> Result<FaultPlan, FaultError> {
        Self::random_count_protecting(p, n, seed, 0)
    }

    /// Fail `n` distinct processes chosen uniformly at random among all
    /// ranks except `protected`.
    pub fn random_count_protecting(
        p: u32,
        n: u32,
        seed: u64,
        protected: Rank,
    ) -> Result<FaultPlan, FaultError> {
        assert!(protected < p, "protected rank out of range");
        let available = p.saturating_sub(1);
        if n > available {
            return Err(FaultError::TooManyFaults {
                requested: n,
                available,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failed = vec![false; p as usize];
        // Sample from 0..p-1, skipping over the protected rank.
        for idx in sample(&mut rng, available as usize, n as usize) {
            let r = if (idx as u32) < protected {
                idx as u32
            } else {
                idx as u32 + 1
            };
            failed[r as usize] = true;
        }
        Ok(FaultPlan::seal(failed, n))
    }

    /// Correlated failures (§2.1): processes are grouped into aligned
    /// "nodes" of `node_size` consecutive ranks (the multi-core nodes of
    /// a real cluster) and `n_nodes` whole nodes crash together, chosen
    /// uniformly among the nodes not containing `protected`.
    pub fn node_blocks(
        p: u32,
        node_size: u32,
        n_nodes: u32,
        seed: u64,
        protected: Rank,
    ) -> Result<FaultPlan, FaultError> {
        assert!(node_size >= 1 && protected < p);
        let total_nodes = p.div_ceil(node_size);
        let protected_node = protected / node_size;
        let available = total_nodes.saturating_sub(1);
        if n_nodes > available {
            return Err(FaultError::TooManyFaults {
                requested: n_nodes,
                available,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failed = vec![false; p as usize];
        let mut count = 0;
        for idx in sample(&mut rng, available as usize, n_nodes as usize) {
            let node = if (idx as u32) < protected_node {
                idx as u32
            } else {
                idx as u32 + 1
            };
            let start = node * node_size;
            for r in start..(start + node_size).min(p) {
                failed[r as usize] = true;
                count += 1;
            }
        }
        Ok(FaultPlan::seal(failed, count))
    }

    /// Fail a fraction `rate` (e.g. `0.01` = 1%) of all `p` processes,
    /// rounded to the nearest whole number of processes, never the root.
    pub fn random_rate(p: u32, rate: f64, seed: u64) -> Result<FaultPlan, FaultError> {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        let n = ((p as f64 * rate).round() as u32).min(p.saturating_sub(1));
        FaultPlan::random_count(p, n, seed)
    }

    /// Like [`FaultPlan::random_count`], but built chunk-parallel for
    /// million-rank plans: ranks are split into fixed [`CHUNK_RANKS`]
    /// blocks, the `n` faults are apportioned to blocks by exact
    /// proportion (largest-remainder rounding — stratified uniform
    /// sampling), and each block samples its quota without replacement
    /// from an independent per-block RNG. Every step is pure integer
    /// arithmetic over a *fixed* chunk grid, so the plan depends only on
    /// `(p, n, seed)` — never on how many threads filled it.
    ///
    /// This is a different (stratified) draw than the sequential
    /// [`FaultPlan::random_count`], which existing seeded experiments
    /// pin; use this constructor for new large-`P` studies where plan
    /// construction would otherwise dominate a repetition.
    pub fn random_count_chunked(p: u32, n: u32, seed: u64) -> Result<FaultPlan, FaultError> {
        let available = p.saturating_sub(1);
        if n > available {
            return Err(FaultError::TooManyFaults {
                requested: n,
                available,
            });
        }
        let quotas = chunk_quotas(p, n, available);
        let mut failed = vec![false; p as usize];
        // Fill chunks in parallel over disjoint sub-slices. Each chunk's
        // RNG is seeded from (seed, chunk index) alone, so the result is
        // identical whether 1 or 16 threads do the filling.
        let chunks: Vec<(usize, &mut [bool])> = failed
            .chunks_mut(CHUNK_RANKS as usize)
            .enumerate()
            .collect();
        let threads = fill_threads(chunks.len());
        if threads <= 1 {
            for (idx, chunk) in chunks {
                fill_chunk(idx, chunk, quotas[idx], seed);
            }
        } else {
            // Interleave chunk ownership round-robin; ownership affects
            // only *who* fills a chunk, not its contents.
            std::thread::scope(|scope| {
                let mut lanes: Vec<Vec<(usize, &mut [bool])>> =
                    (0..threads).map(|_| Vec::new()).collect();
                for (i, item) in chunks.into_iter().enumerate() {
                    lanes[i % threads].push(item);
                }
                for lane in lanes {
                    let quotas = &quotas;
                    scope.spawn(move || {
                        for (idx, chunk) in lane {
                            fill_chunk(idx, chunk, quotas[idx], seed);
                        }
                    });
                }
            });
        }
        Ok(FaultPlan::seal(failed, n))
    }

    /// Number of processes.
    pub fn p(&self) -> u32 {
        self.failed.len() as u32
    }

    /// Number of failed processes.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Is `r` dead? Reads the packed bit vector — the engine calls this
    /// once per arrival, and bits keep the lookup cache-resident where
    /// the byte mask would not be at large `P`.
    #[inline]
    pub fn is_failed(&self, r: Rank) -> bool {
        self.words[r as usize / 64] & (1u64 << (r as usize % 64)) != 0
    }

    /// The packed bit vector: word `w` holds ranks `64w ..= 64w + 63`,
    /// rank `r` at bit `r % 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The full mask, indexable by rank.
    pub fn mask(&self) -> &[bool] {
        &self.failed
    }

    /// Iterator over failed ranks in ascending order.
    pub fn failed_ranks(&self) -> impl Iterator<Item = Rank> + '_ {
        self.failed
            .iter()
            .enumerate()
            .filter_map(|(r, &f)| f.then_some(r as Rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_has_no_failures() {
        let plan = FaultPlan::none(16);
        assert_eq!(plan.count(), 0);
        assert_eq!(plan.failed_ranks().count(), 0);
        assert!(!plan.is_failed(3));
    }

    #[test]
    fn from_ranks_rejects_root_and_out_of_range() {
        assert_eq!(
            FaultPlan::from_ranks(8, &[0]),
            Err(FaultError::RootMustLive)
        );
        assert_eq!(
            FaultPlan::from_ranks(8, &[9]),
            Err(FaultError::RankOutOfRange(9))
        );
    }

    #[test]
    fn from_ranks_dedupes() {
        let plan = FaultPlan::from_ranks(8, &[3, 3, 5]).unwrap();
        assert_eq!(plan.count(), 2);
        assert_eq!(plan.failed_ranks().collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn random_count_is_exact_and_rootless() {
        for seed in 0..20u64 {
            let plan = FaultPlan::random_count(100, 13, seed).unwrap();
            assert_eq!(plan.count(), 13);
            assert_eq!(plan.failed_ranks().count(), 13);
            assert!(!plan.is_failed(0));
        }
    }

    #[test]
    fn random_count_is_reproducible() {
        let a = FaultPlan::random_count(1000, 50, 42).unwrap();
        let b = FaultPlan::random_count(1000, 50, 42).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::random_count(1000, 50, 43).unwrap();
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn random_count_rejects_excess() {
        assert_eq!(
            FaultPlan::random_count(4, 4, 0),
            Err(FaultError::TooManyFaults {
                requested: 4,
                available: 3
            })
        );
        assert!(FaultPlan::random_count(4, 3, 0).is_ok());
    }

    #[test]
    fn random_rate_rounds_to_count() {
        // 1% of 64Ki = 655.36 → 655.
        let plan = FaultPlan::random_rate(1 << 16, 0.01, 7).unwrap();
        assert_eq!(plan.count(), 655);
        // 0% → none.
        assert_eq!(FaultPlan::random_rate(100, 0.0, 7).unwrap().count(), 0);
    }

    #[test]
    fn node_blocks_fail_whole_aligned_nodes() {
        let plan = FaultPlan::node_blocks(64, 4, 3, 9, 0).unwrap();
        assert_eq!(plan.count(), 12);
        assert!(!plan.is_failed(0), "the root's node is protected");
        assert!(!plan.is_failed(1) && !plan.is_failed(2) && !plan.is_failed(3));
        // Every failed rank's whole node is failed.
        for r in plan.failed_ranks() {
            let start = (r / 4) * 4;
            for x in start..start + 4 {
                assert!(plan.is_failed(x), "partial node at {r}");
            }
        }
    }

    #[test]
    fn node_blocks_respects_protected_rank() {
        let plan = FaultPlan::node_blocks(32, 8, 3, 2, 20).unwrap();
        // Node 2 (ranks 16..24) holds the protected rank 20.
        for r in 16..24 {
            assert!(!plan.is_failed(r));
        }
        assert_eq!(plan.count(), 24);
    }

    #[test]
    fn node_blocks_rejects_excess_nodes() {
        assert_eq!(
            FaultPlan::node_blocks(16, 4, 4, 0, 0),
            Err(FaultError::TooManyFaults {
                requested: 4,
                available: 3
            })
        );
    }

    #[test]
    fn node_blocks_handles_ragged_last_node() {
        // P = 10, node size 4 → nodes {0..4}, {4..8}, {8..10}.
        let plan = FaultPlan::node_blocks(10, 4, 2, 1, 0).unwrap();
        assert_eq!(plan.count(), 6); // nodes 1 and 2: 4 + 2 ranks
        assert!(plan.is_failed(9));
    }

    #[test]
    fn rate_one_spares_only_the_root() {
        let plan = FaultPlan::random_rate(10, 1.0, 3).unwrap();
        assert_eq!(plan.count(), 9);
        assert!(!plan.is_failed(0));
    }

    #[test]
    fn is_failed_matches_mask_exactly() {
        let plan = FaultPlan::random_count(3000, 137, 11).unwrap();
        for r in 0..3000u32 {
            assert_eq!(plan.is_failed(r), plan.mask()[r as usize], "rank {r}");
        }
    }

    #[test]
    fn chunked_is_exact_rootless_and_reproducible() {
        // Spans multiple chunks: P = 3 × CHUNK_RANKS + ragged tail.
        let p = 3 * CHUNK_RANKS + 1234;
        let n = p / 100;
        let a = FaultPlan::random_count_chunked(p, n, 42).unwrap();
        assert_eq!(a.count(), n);
        assert_eq!(a.failed_ranks().count() as u32, n);
        assert!(!a.is_failed(0));
        let b = FaultPlan::random_count_chunked(p, n, 42).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::random_count_chunked(p, n, 43).unwrap();
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn chunked_is_thread_count_independent() {
        // The fixed chunk grid + per-chunk seeding make the plan a pure
        // function of (p, n, seed); CT_THREADS only changes who fills.
        let p = 4 * CHUNK_RANKS;
        let single: Vec<FaultPlan> = (0..3)
            .map(|s| FaultPlan::random_count_chunked(p, 999, s).unwrap())
            .collect();
        // Re-derive each chunk sequentially from the quotas and compare.
        for (s, plan) in single.iter().enumerate() {
            let quotas = chunk_quotas(p, 999, p - 1);
            let mut failed = vec![false; p as usize];
            for (idx, chunk) in failed.chunks_mut(CHUNK_RANKS as usize).enumerate() {
                fill_chunk(idx, chunk, quotas[idx], s as u64);
            }
            assert_eq!(plan.mask(), failed.as_slice(), "seed {s}");
        }
    }

    #[test]
    fn chunked_spreads_faults_across_every_chunk() {
        let p = 4 * CHUNK_RANKS;
        let plan = FaultPlan::random_count_chunked(p, 4000, 7).unwrap();
        for c in 0..4u32 {
            let lo = c * CHUNK_RANKS;
            let in_chunk = plan
                .failed_ranks()
                .filter(|&r| r >= lo && r < lo + CHUNK_RANKS)
                .count();
            assert!(
                (999..=1001).contains(&in_chunk),
                "chunk {c} got {in_chunk} faults; stratification must be proportional"
            );
        }
    }

    #[test]
    fn chunked_handles_tiny_and_full_plans() {
        assert_eq!(FaultPlan::random_count_chunked(8, 0, 1).unwrap().count(), 0);
        let full = FaultPlan::random_count_chunked(8, 7, 1).unwrap();
        assert_eq!(full.count(), 7);
        assert!(!full.is_failed(0));
        assert_eq!(
            FaultPlan::random_count_chunked(8, 8, 1),
            Err(FaultError::TooManyFaults {
                requested: 8,
                available: 7
            })
        );
    }
}
