//! Empirical gossip-time selection (§4.1).
//!
//! The paper tunes Corrected Gossip per process count: "We picked the
//! smallest gossiping time for opportunistic Corrected Gossip where we
//! observed no uncolored processes in `N` simulations", and "for checked
//! Corrected Gossip we optimized gossiping time for the lowest latency".
//! These tuners are reproductions of that procedure at configurable
//! repetition counts.
//!
//! Both tuners are deterministic functions of their arguments (every
//! underlying campaign is seeded), so — like the topology cache in
//! `ct_core::tree::cache` — their results are memoized process-wide:
//! a figure sweep that tunes the gossip schedule for the same `(P,
//! LogP, …)` repeatedly pays for the search once.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use ct_core::correction::CorrectionKind;
use ct_logp::LogP;

use crate::campaign::{Campaign, CampaignError};
use crate::variants::Variant;

/// Memo key: a tag discriminating the tuner plus every argument either
/// tuner reads. Unused slots are zero for the other tuner.
type TuneKey = (u8, u32, LogP, u64, u64, u64, u32, u64);

fn memo() -> &'static Mutex<HashMap<TuneKey, u64>> {
    static MEMO: OnceLock<Mutex<HashMap<TuneKey, u64>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

fn memoized(
    key: TuneKey,
    compute: impl FnOnce() -> Result<u64, CampaignError>,
) -> Result<u64, CampaignError> {
    if let Some(&g) = memo().lock().expect("tuning memo poisoned").get(&key) {
        return Ok(g);
    }
    let g = compute()?;
    memo().lock().expect("tuning memo poisoned").insert(key, g);
    Ok(g)
}

/// Smallest gossip time `G` for which opportunistic Corrected Gossip
/// (distance `d`) colored every process in all of `reps` seeded
/// simulations. Scans upward from a transit-time floor; `hi` caps the
/// search (returns `hi` if even that is not reliably coloring).
pub fn min_full_coloring_gossip_time(
    p: u32,
    logp: LogP,
    d: u32,
    reps: u32,
    seed0: u64,
    hi: u64,
) -> Result<u64, CampaignError> {
    memoized((0, p, logp, u64::from(d), hi, 0, reps, seed0), || {
        min_full_coloring_gossip_time_uncached(p, logp, d, reps, seed0, hi)
    })
}

fn min_full_coloring_gossip_time_uncached(
    p: u32,
    logp: LogP,
    d: u32,
    reps: u32,
    seed0: u64,
    hi: u64,
) -> Result<u64, CampaignError> {
    let lo = logp.transit_steps();
    // The failure-free coloring probability is monotone in G, so a
    // binary search over the scanned range is sound in expectation; we
    // still verify the chosen point with the full repetition budget.
    let mut lo = lo;
    let mut hi_b = hi;
    let fully_colors = |g: u64| -> Result<bool, CampaignError> {
        let c = Campaign::new(
            Variant::gossip(g, CorrectionKind::Opportunistic { distance: d }),
            p,
            logp,
        )
        .with_reps(reps)
        .with_seed(seed0);
        Ok(c.run(1)?.iter().all(|r| r.all_live_colored))
    };
    if fully_colors(lo)? {
        return Ok(lo);
    }
    while lo + 1 < hi_b {
        let mid = lo + (hi_b - lo) / 2;
        if fully_colors(mid)? {
            hi_b = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi_b)
}

/// Gossip time minimizing the mean quiescence latency of checked
/// Corrected Gossip over `reps` runs, scanned over `lo..=hi` in `step`
/// increments.
pub fn min_latency_gossip_time(
    p: u32,
    logp: LogP,
    lo: u64,
    hi: u64,
    step: u64,
    reps: u32,
    seed0: u64,
) -> Result<u64, CampaignError> {
    memoized((1, p, logp, lo, hi, step, reps, seed0), || {
        min_latency_gossip_time_uncached(p, logp, lo, hi, step, reps, seed0)
    })
}

fn min_latency_gossip_time_uncached(
    p: u32,
    logp: LogP,
    lo: u64,
    hi: u64,
    step: u64,
    reps: u32,
    seed0: u64,
) -> Result<u64, CampaignError> {
    assert!(lo >= 1 && step >= 1 && hi >= lo);
    let mut best = (lo, f64::INFINITY);
    let mut g = lo;
    while g <= hi {
        let c = Campaign::new(Variant::gossip(g, CorrectionKind::Checked), p, logp)
            .with_reps(reps)
            .with_seed(seed0);
        let records = c.run(1)?;
        let mean = records.iter().map(|r| r.quiescence as f64).sum::<f64>() / records.len() as f64;
        if mean < best.1 {
            best = (g, mean);
        }
        g += step;
    }
    Ok(best.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuners_are_memoized_and_stable() {
        let logp = LogP::PAPER;
        let a = min_full_coloring_gossip_time(64, logp, 4, 2, 17, 200).unwrap();
        let b = min_full_coloring_gossip_time(64, logp, 4, 2, 17, 200).unwrap();
        assert_eq!(a, b);
        let c = min_latency_gossip_time(64, logp, 4, 24, 4, 2, 17).unwrap();
        let d = min_latency_gossip_time(64, logp, 4, 24, 4, 2, 17).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn full_coloring_time_is_minimal() {
        let logp = LogP::PAPER;
        let g = min_full_coloring_gossip_time(64, logp, 4, 3, 10, 200).unwrap();
        assert!(g >= logp.transit_steps());
        assert!(g < 200, "search must not hit the cap for small P");
        // One step less must fail to fully color for at least one seed
        // (otherwise the result would not be minimal). Tolerate the
        // boundary case g == floor.
        if g > logp.transit_steps() {
            let c = Campaign::new(
                Variant::gossip(g - 1, CorrectionKind::Opportunistic { distance: 4 }),
                64,
                logp,
            )
            .with_reps(3)
            .with_seed(10);
            assert!(c.run(1).unwrap().iter().any(|r| !r.all_live_colored));
        }
    }

    #[test]
    fn latency_tuner_prefers_interior_optimum() {
        // Too-short gossip ⇒ long correction; too-long gossip ⇒ wasted
        // dissemination. The tuned point must beat both extremes.
        let logp = LogP::PAPER;
        let g = min_latency_gossip_time(128, logp, 4, 40, 4, 2, 3).unwrap();
        assert!((4..=40).contains(&g));
        let mean_q = |g: u64| {
            let c = Campaign::new(Variant::gossip(g, CorrectionKind::Checked), 128, logp)
                .with_reps(2)
                .with_seed(3);
            let rec = c.run(1).unwrap();
            rec.iter().map(|r| r.quiescence as f64).sum::<f64>() / rec.len() as f64
        };
        assert!(mean_q(g) <= mean_q(4));
        assert!(mean_q(g) <= mean_q(40));
    }
}
