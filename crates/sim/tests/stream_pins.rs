//! Event-stream pins: what `golden_p4.jsonl` (P = 4, 34 lines) is too
//! small to reach.
//!
//! For every cell of a table — nine protocols × three LogP sets × two
//! sizes, 1 % faults — the FNV-1a hash of the observed run's JSONL
//! stream and its `(events, messages, quiescence, coloring latency)`
//! are pinned, and the unobserved run must report the same outcome, all
//! through one reused [`RunArena`]. The table covers far wake-ups
//! (`Delayed{3000}`, `checked_paced(.., 5000)`: overflow heap and
//! rebase), `o > 1`, and `o + L` beyond the calendar window
//! (`L = 1500`: every arrival takes the overflow path).
//!
//! The pins were recorded on the per-event `pop()` engine; an engine
//! change that moves one event fails here. After an *intentional*
//! change, the failure message prints the table to paste.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::{BroadcastSpec, ProtocolFactory};
use ct_core::tree::TreeKind;
use ct_gossip::GossipSpec;
use ct_logp::{LogP, Rank};
use ct_obs::VecSink;
use ct_sim::{FaultPlan, RunArena, Simulation};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(name, root, factory)` of the nine pinned protocols under `logp`,
/// time-limited gossip running until `gossip_time`.
fn protocols(logp: &LogP, gossip_time: u64) -> Vec<(&'static str, Rank, Box<dyn ProtocolFactory>)> {
    let tree = BroadcastSpec::corrected_tree;
    vec![
        (
            "checked",
            0,
            Box::new(tree(TreeKind::BINOMIAL, CorrectionKind::Checked)),
        ),
        (
            "checked-sync",
            0,
            Box::new(BroadcastSpec::corrected_tree_sync(
                TreeKind::LAME2,
                CorrectionKind::Checked,
            )),
        ),
        (
            "opp4-optimal",
            0,
            Box::new(tree(
                TreeKind::OPTIMAL,
                CorrectionKind::OpportunisticOptimized { distance: 4 },
            )),
        ),
        (
            "delayed3000",
            0,
            Box::new(tree(
                TreeKind::BINOMIAL,
                CorrectionKind::Delayed { delay: 3000 },
            )),
        ),
        (
            "paced5000-sync",
            0,
            Box::new(BroadcastSpec::corrected_tree_sync(
                TreeKind::BINOMIAL,
                CorrectionKind::checked_paced(logp, 5000),
            )),
        ),
        (
            "fp-shuffled",
            0,
            Box::new(tree(TreeKind::BINOMIAL, CorrectionKind::FailureProof).with_shuffle(11)),
        ),
        (
            "ack-root7",
            7,
            Box::new(BroadcastSpec::ack_tree(TreeKind::BINOMIAL).with_root(7)),
        ),
        (
            "gossip-rounds8",
            0,
            Box::new(GossipSpec::round_limited(8, CorrectionKind::Checked)),
        ),
        (
            "gossip-time",
            0,
            Box::new(GossipSpec::time_limited(
                gossip_time,
                CorrectionKind::Checked,
            )),
        ),
    ]
}

/// `(cell, jsonl hash, events, messages, quiescence, coloring latency)`.
type Pin<S> = (S, u64, u64, u64, u64, u64);

/// One row per cell, in the order `cells` visits them.
#[rustfmt::skip]
const PINS: &[Pin<&str>] = &[
    ("checked paper p256", 0xb1e59f47f400b411, 4744, 1500, 45, 26),
    ("checked-sync paper p256", 0x9d502c30d6b6e37d, 5088, 1531, 34, 24),
    ("opp4-optimal paper p256", 0xd3c9aa3bb6b9ca73, 5610, 1790, 30, 20),
    ("delayed3000 paper p256", 0x5403d9619ac7eb69, 3243, 935, 3044, 29),
    ("paced5000-sync paper p256", 0x9102801c0f00ecad, 5106, 1531, 5042, 32),
    ("fp-shuffled paper p256", 0x6d28079617224c71, 5324, 1694, 45, 26),
    ("ack-root7 paper p256", 0x01421b06ab73546e, 1752, 500, 57, 32),
    ("gossip-rounds8 paper p256", 0x1936ac5afcd507a3, 3557, 1104, 39, 28),
    ("gossip-time paper p256", 0x6dc0343491dcca3e, 8921, 2897, 38, 28),
    ("checked paper p1000", 0x372c1505b7ec35dc, 18446, 5838, 53, 35),
    ("checked-sync paper p1000", 0x0b1236c479b3d82e, 19648, 5918, 39, 33),
    ("opp4-optimal paper p1000", 0x579a96a997831b41, 21605, 6894, 34, 28),
    ("delayed3000 paper p1000", 0x84b3884b1974791d, 13261, 3858, 3051, 3035),
    ("paced5000-sync paper p1000", 0x746b1661468c8fbf, 19912, 5911, 10047, 41),
    ("fp-shuffled paper p1000", 0x3791397a1c523c62, 21368, 6814, 53, 33),
    ("ack-root7 paper p1000", 0x3d2d49f0e2510634, 6738, 1919, 60, 37),
    ("gossip-rounds8 paper p1000", 0x5f205149973bfd39, 10336, 3125, 75, 50),
    ("gossip-time paper p1000", 0x6c9d0f84d6c0e209, 23725, 7600, 38, 31),
    ("checked l7-o3 p256", 0xcb98933b4d0dd0ec, 5116, 1624, 142, 84),
    ("checked-sync l7-o3 p256", 0x990b19aceaf9de2f, 5848, 1785, 112, 78),
    ("opp4-optimal l7-o3 p256", 0x0a5376011b8147b9, 7010, 2258, 96, 62),
    ("delayed3000 l7-o3 p256", 0xe87dd36faf7c5582, 3462, 1008, 3147, 94),
    ("paced5000-sync l7-o3 p256", 0x952e7cb548d82811, 5870, 1785, 5138, 104),
    ("fp-shuffled l7-o3 p256", 0xcb31229f3a8a6fc5, 5813, 1857, 142, 84),
    ("ack-root7 l7-o3 p256", 0xddfe694d3824b3aa, 1752, 500, 185, 104),
    ("gossip-rounds8 l7-o3 p256", 0x5b58fba7bf97836a, 3697, 1151, 125, 89),
    ("gossip-time l7-o3 p256", 0x0eb04d6e1d334888, 10603, 3460, 127, 93),
    ("checked l7-o3 p1000", 0xb1960584d6de92cf, 19988, 6354, 178, 112),
    ("checked-sync l7-o3 p1000", 0x2391c61edbb73b37, 22548, 6888, 128, 107),
    ("opp4-optimal l7-o3 p1000", 0xd8b673730b0987a1, 27167, 8755, 109, 88),
    ("delayed3000 l7-o3 p1000", 0x331e4ad5fd1ca714, 14089, 4134, 3163, 3113),
    ("paced5000-sync l7-o3 p1000", 0x66182cbf5583d79a, 22861, 6879, 10154, 133),
    ("fp-shuffled l7-o3 p1000", 0xc76a64203b83e942, 23207, 7430, 191, 107),
    ("ack-root7 l7-o3 p1000", 0xcf6da780a35b319e, 6738, 1919, 194, 120),
    ("gossip-rounds8 l7-o3 p1000", 0x20eb53f54c101294, 10448, 3163, 233, 156),
    ("gossip-time l7-o3 p1000", 0xbcd176961e0cc38b, 28700, 9265, 123, 99),
    ("checked l1500 p256", 0xa3feb8ae5cb567bd, 9028, 2932, 3329, 1763),
    ("checked-sync l1500 p256", 0xba6732798e46e48c, 388874, 129795, 11023, 9012),
    ("opp4-optimal l1500 p256", 0x648b0893b3ac9490, 7091, 2285, 3264, 1756),
    ("delayed3000 l1500 p256", 0xdcd71000fbffff44, 20655, 6738, 13650, 7760),
    ("paced5000-sync l1500 p256", 0x8717716c4c068fc4, 388874, 129795, 14027, 12016),
    ("fp-shuffled l1500 p256", 0x2e6bef92cab8275c, 15637, 5135, 4774, 1763),
    ("ack-root7 l1500 p256", 0x55a3d86bb710756f, 1752, 500, 21029, 12016),
    ("gossip-rounds8 l1500 p256", 0x67f7980279248514, 8887, 2885, 3343, 1764),
    ("gossip-time l1500 p256", 0x7bd1b895b34c5cd3, 391492, 130757, 4547, 2834),
];

/// Run every cell and return its name and measured pin.
fn cells() -> Vec<Pin<String>> {
    // Gossip for six hops, except where a hop is 1500 sends long.
    let logps = [
        ("paper", LogP::PAPER, 24, &[256u32, 1000][..]),
        ("l7-o3", LogP::new(7, 3, 3).unwrap(), 78, &[256, 1000]),
        // o + L > 1024: keep it at P = 256 so the debug suite stays fast.
        ("l1500", LogP::new(1500, 1, 1).unwrap(), 1522, &[256]),
    ];
    let mut arena = RunArena::new();
    let mut rows = Vec::new();
    for (logp_name, logp, gossip_time, sizes) in logps {
        for &p in sizes {
            for (name, root, factory) in protocols(&logp, gossip_time) {
                let seed = u64::from(p) + 17;
                let plan = FaultPlan::random_count_protecting(p, p / 100, seed, root).unwrap();
                let sim = Simulation::builder(p, logp).faults(plan).seed(seed).build();
                let cell = format!("{name} {logp_name} p{p}");

                let mut sink = VecSink::new();
                let observed = sim
                    .run_with_sink_reusable(factory.as_ref(), &mut sink, &mut arena)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                let plain = sim
                    .run_reusable(factory.as_ref(), &mut arena)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_eq!(plain.events, observed.events, "{cell}");
                assert_eq!(plain.messages, observed.messages, "{cell}");
                assert_eq!(plain.quiescence, observed.quiescence, "{cell}");
                assert_eq!(plain.coloring_latency, observed.coloring_latency, "{cell}");
                assert_eq!(plain.colored_at, observed.colored_at, "{cell}");
                assert_eq!(plain.colored_via, observed.colored_via, "{cell}");
                assert_eq!(plain.sent_per_rank, observed.sent_per_rank, "{cell}");

                rows.push((
                    cell,
                    fnv1a(sink.to_jsonl().as_bytes()),
                    observed.events,
                    observed.messages.total(),
                    observed.quiescence.steps(),
                    observed.coloring_latency.steps(),
                ));
            }
        }
    }
    rows
}

#[test]
fn event_streams_and_outcomes_match_the_pins() {
    let rows = cells();
    let same = rows.len() == PINS.len()
        && rows
            .iter()
            .zip(PINS)
            .all(|(got, pin)| (got.0.as_str(), got.1, got.2, got.3, got.4, got.5) == *pin);
    if !same {
        let table: String = rows
            .iter()
            .map(|(cell, hash, events, messages, quiescence, coloring)| {
                format!(
                    "    (\"{cell}\", {hash:#018x}, {events}, {messages}, {quiescence}, {coloring}),\n"
                )
            })
            .collect();
        panic!("event streams moved off their pins; measured table:\n{table}");
    }
}
