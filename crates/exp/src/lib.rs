//! # ct-exp — the paper's evaluation, as runnable campaigns
//!
//! One module per experiment of §4:
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig1b`] | Figure 1b — checked-correction time of in-order vs interleaved binomial trees under 1/2/5 failures |
//! | [`fig6`] | Figure 6 — average messages per process by correction type × broadcast variant |
//! | [`fig7`] | Figure 7 — fault-free quiescence latency vs process count |
//! | [`resilience`] | the fault-rate sweep shared by Figures 8, 9, 10 and Table 1 |
//! | [`fig8`] | Figure 8 — quiescence latency vs fault rate |
//! | [`fig9`] | Figure 9 — messages per process vs fault rate |
//! | [`fig10`] | Figure 10 — (g_max, correction time) scatter with Lemma-3 bounds |
//! | [`table1`] | Table 1 — correction-cost percentiles under faults |
//! | [`fig11`] | Figure 11 — cluster broadcast latency vs rank count |
//! | [`fig12`] | Figure 12 — cluster latency of Corrected-Tree variants |
//! | [`ablation`], [`correlated`], [`scale`] | extensions: every correction algorithm, whole-node crashes, the `P = 2²⁰` scaling study |
//!
//! [`figures`] is the table `ct fig <name>|all` runs: one entry per
//! figure, which runs its campaign at the scale the command-line flags
//! set, and one driver that writes each figure's CSV and provenance
//! manifest.
//!
//! Shared machinery: [`variants`] (the protocol zoo), [`campaign`]
//! (seeded Monte-Carlo runs, optionally across threads), [`tuning`]
//! (empirical gossip-time selection, §4.1), [`perf`] (the manifests'
//! analysis probe), [`stats`] (means, quantiles) and [`csv`] (the CSV
//! and aligned-table emitters).
//!
//! Scale note: every config has a laptop-friendly `quick()` scale, and
//! the paper's figures a `paper()` one (`P = 2¹⁶`; repetitions capped
//! below the paper's 10⁵).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod correlated;
pub mod csv;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig1b;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod figures;
pub mod perf;
pub mod resilience;
pub mod scale;
pub mod stats;
pub mod table1;
pub mod tuning;
pub mod variants;

pub use campaign::{Campaign, FaultSpec, RunRecord};
pub use perf::{analyze_campaign, CampaignAnalysis};
pub use scale::{run_scale, ScaleConfig, ScaleReport};
pub use variants::Variant;
