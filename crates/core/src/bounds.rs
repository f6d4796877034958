//! Lemmas 2 and 3 and Corollary 1 (§4.2).
//!
//! With synchronized checked correction all processes start at the same
//! instant `T`. Fault-free, each process sends alternately left/right at
//! rate `1/o` and stops after it has heard from both sides from a
//! process it already covered, giving the exact quiescence cost
//!
//! ```text
//! L_FF_SCC = 4o + L + ⌊L/o⌋·o            (Lemma 2)
//! M_SCC    = 3 + ⌊L/o⌋   messages/process (Corollary 1)
//! ```
//!
//! Under failures the cost is governed by the maximum gap `g_max`
//! (uncolored processes send nothing, so probes must cross the gap):
//!
//! ```text
//! L_FF_SCC + g_max·o ≤ L_SCC ≤ L_FF_SCC + (2·g_max + 1)·o   (Lemma 3)
//! ```
//!
//! Figure 10 overlays exactly these two lines on the simulated
//! `(g_max, L_SCC)` scatter.

use ct_logp::{LogP, Time};

/// Lemma 2: fault-free quiescence latency of synchronized checked
/// correction, counted from the synchronized start.
///
/// ```
/// use ct_core::bounds::{lff_scc, m_scc};
/// use ct_logp::LogP;
///
/// // The paper's parameters: 8 steps, 5 messages per process (§4.1).
/// assert_eq!(lff_scc(&LogP::PAPER).steps(), 8);
/// assert_eq!(m_scc(&LogP::PAPER), 5);
/// ```
pub fn lff_scc(logp: &LogP) -> Time {
    Time::new(4 * logp.o() + logp.l() + logp.l_over_o() * logp.o())
}

/// Corollary 1: fault-free messages per process of synchronized checked
/// correction.
pub fn m_scc(logp: &LogP) -> u64 {
    3 + logp.l_over_o()
}

/// `⌈L/o⌉` — the discrete-model counterpart of the paper's `⌊L/o⌋`.
fn ceil_l_over_o(logp: &LogP) -> u64 {
    logp.l().div_ceil(logp.o())
}

/// Exact fault-free quiescence latency of synchronized checked
/// correction in the discrete receive-port model:
/// `4o + L + ⌈L/o⌉·o`.
///
/// A process hears the second side once its receive port has processed
/// both neighbor messages, at `3o + L`; polls happen at multiples of
/// `o`, so the last send is at the largest multiple of `o` strictly
/// below `3o + L`. When `o | L` this collapses to Lemma 2's
/// `4o + L + ⌊L/o⌋·o` — which covers every configuration the paper
/// evaluates (`o = 1`) — and otherwise exceeds it by
/// `(⌈L/o⌉ - ⌊L/o⌋)·o < o`. See EXPERIMENTS.md for the derivation.
pub fn lff_scc_discrete(logp: &LogP) -> Time {
    Time::new(4 * logp.o() + logp.l() + ceil_l_over_o(logp) * logp.o())
}

/// Discrete-model messages per process of synchronized checked
/// correction: `3 + ⌈L/o⌉` (equals Corollary 1 whenever `o | L`).
pub fn m_scc_discrete(logp: &LogP) -> u64 {
    3 + ceil_l_over_o(logp)
}

/// Lemma 3: inclusive `(lower, upper)` bounds on the quiescence latency
/// of synchronized checked correction with maximum gap `g_max`
/// (`g_max = 0` collapses to the fault-free Lemma 2 value).
pub fn lscc_bounds(g_max: u32, logp: &LogP) -> (Time, Time) {
    let base = lff_scc(logp);
    if g_max == 0 {
        return (base, base);
    }
    let o = logp.o();
    (base + (g_max as u64) * o, base + (2 * g_max as u64 + 1) * o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_give_eight_steps_and_five_messages() {
        // §4.1/§4.2: with L = 2, o = 1 "checked correction lasts 8 time
        // steps" and "each of them sends 5 correction messages".
        let logp = LogP::PAPER;
        assert_eq!(lff_scc(&logp), Time::new(8));
        assert_eq!(m_scc(&logp), 5);
    }

    #[test]
    fn table1_headline_fault_free_row() {
        // Table 1 caption: "with no faults g_max = 0 and L_SCC = 8".
        let (lo, hi) = lscc_bounds(0, &LogP::PAPER);
        assert_eq!(lo, Time::new(8));
        assert_eq!(hi, Time::new(8));
    }

    #[test]
    fn bounds_grow_linearly_in_gap() {
        let logp = LogP::PAPER;
        for g in 1..50u32 {
            let (lo, hi) = lscc_bounds(g, &logp);
            assert_eq!(lo, Time::new(8 + g as u64));
            assert_eq!(hi, Time::new(8 + 2 * g as u64 + 1));
            assert!(lo <= hi);
        }
    }

    #[test]
    fn closed_forms_for_other_parameters() {
        // L=4, o=2: L_FF = 8 + 4 + 2·2 = 16; M = 3 + 2 = 5.
        let logp = LogP::new(4, 2, 2).unwrap();
        assert_eq!(lff_scc(&logp), Time::new(16));
        assert_eq!(m_scc(&logp), 5);
        // L=1, o=3: ⌊1/3⌋ = 0 → L_FF = 12 + 1 = 13; M = 3.
        let logp = LogP::new(1, 3, 3).unwrap();
        assert_eq!(lff_scc(&logp), Time::new(13));
        assert_eq!(m_scc(&logp), 3);
    }

    #[test]
    fn message_count_and_latency_are_consistent() {
        // The last of the M_SCC messages starts at (M_SCC - 1)·o and is
        // processed 2o + L later — exactly L_FF_SCC.
        for l in 1..6u64 {
            for o in 1..4u64 {
                let logp = LogP::new(l, o, 1).unwrap();
                let t_last_send = (m_scc(&logp) - 1) * o;
                assert_eq!(
                    lff_scc(&logp),
                    Time::new(t_last_send + logp.transit_steps()),
                    "L={l}, o={o}"
                );
            }
        }
    }
}
