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
//!
//! A second table pins unobserved outcomes at P = 16 384 and 65 536,
//! where time steps are thousands of events wide: messages by kind,
//! events, quiescence, coloring latency and a hash of the per-rank
//! fields, for six by-value kinds × three numberings × three fault
//! patterns. Those pins were recorded on the one-thread engine.

use ct_core::correction::CorrectionKind;
use ct_core::protocol::gossip::GossipSpec;
use ct_core::protocol::{BroadcastSpec, ColoredVia, ProtocolFactory};
use ct_core::tree::TreeKind;
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

/// `(cell, tree, gossip, correction, ack messages, events, quiescence,
/// coloring latency, hash of colored_at + colored_via + sent_per_rank)`.
type WidePin<S> = (S, u64, u64, u64, u64, u64, u64, u64, u64);

/// One row per cell, in the order `wide_cells` visits them.
#[rustfmt::skip]
const WIDE_PINS: &[WidePin<&str>] = &[
    ("checked linear none p16384", 16383, 0, 79989, 0, 305500, 79, 50, 0x4833865c7e9b72d4),
    ("checked-sync linear none p16384", 16383, 0, 81920, 0, 327676, 64, 56, 0x9d0195bf8754d6e6),
    ("opp4 linear none p16384", 16383, 0, 89181, 0, 333076, 62, 53, 0x967717e8dee828dd),
    ("failure-proof linear none p16384", 16383, 0, 80089, 13167, 345301, 81, 50, 0xecbb345e4efe7351),
    ("paced40 linear none p16384", 16383, 0, 81270, 0, 341839, 103, 53, 0xdb908135ca679408),
    ("delayed30 linear none p16384", 16383, 0, 42712, 0, 205957, 98, 53, 0x08c7ebd4c81d4607),
    ("checked linear 1pct p16384", 16195, 0, 74075, 0, 286108, 79, 51, 0xcce9e33ec14581ae),
    ("checked-sync linear 1pct p16384", 11702, 0, 72364, 0, 279165, 70, 62, 0x71674208860e5467),
    ("opp4 linear 1pct p16384", 16195, 0, 75670, 0, 290878, 61, 54, 0xf8bebd70b8829ab8),
    ("failure-proof linear 1pct p16384", 16195, 0, 74690, 26040, 366062, 85, 51, 0xbc287e0405303955),
    ("paced40 linear 1pct p16384", 16195, 0, 85394, 0, 354115, 144, 54, 0xbc9746ef17978c1a),
    ("delayed30 linear 1pct p16384", 16195, 0, 71383, 0, 290435, 107, 81, 0x656f929640fcc218),
    ("checked linear block256 p16384", 16383, 0, 79336, 0, 302516, 293, 50, 0x03a762da0d1946f7),
    ("checked-sync linear block256 p16384", 16383, 0, 81155, 0, 324097, 322, 56, 0xb500ba36d108ea8d),
    ("opp4 linear block256 p16384", 16383, 0, 87826, 0, 328479, 62, 53, 0xa7fcfd3a1ef982c2),
    ("failure-proof linear block256 p16384", 16383, 0, 79434, 12893, 341489, 294, 50, 0x1c8bdddea00b0dc3),
    ("paced40 linear block256 p16384", 16383, 0, 81031, 0, 339571, 586, 53, 0x7e9ae4bb75d4a3c4),
    ("delayed30 linear block256 p16384", 16383, 0, 42257, 0, 203625, 328, 53, 0x3ac6c513281841bc),
    ("checked root4097 none p16384", 16383, 0, 79989, 0, 305500, 79, 50, 0x4463d8b2dfc77952),
    ("checked-sync root4097 none p16384", 16383, 0, 81920, 0, 327676, 64, 56, 0x59b1b975950cc85c),
    ("opp4 root4097 none p16384", 16383, 0, 89181, 0, 333076, 62, 53, 0xcab6d206b0eafbad),
    ("failure-proof root4097 none p16384", 16383, 0, 80089, 13167, 345301, 81, 50, 0x47608775f9a797d5),
    ("paced40 root4097 none p16384", 16383, 0, 81270, 0, 341839, 103, 53, 0xf04a7e4a3ba0801e),
    ("delayed30 root4097 none p16384", 16383, 0, 42712, 0, 205957, 98, 53, 0xb28ad3633c3ff677),
    ("checked root4097 1pct p16384", 16226, 0, 79178, 0, 301447, 79, 50, 0x20ba7d782b62b174),
    ("checked-sync root4097 1pct p16384", 15764, 0, 80382, 0, 319320, 68, 61, 0xd80416d4f2408da8),
    ("opp4 root4097 1pct p16384", 16226, 0, 86622, 0, 323714, 62, 53, 0xc0833c8bb79a67c3),
    ("failure-proof root4097 1pct p16384", 16226, 0, 79372, 14958, 346895, 80, 50, 0xc359f062fd11141f),
    ("paced40 root4097 1pct p16384", 16226, 0, 80839, 0, 338340, 136, 53, 0xc17ddeffe21c230b),
    ("delayed30 root4097 1pct p16384", 16226, 0, 48058, 0, 220341, 99, 83, 0x0320e21171b85fce),
    ("checked root4097 block256 p16384", 16382, 0, 79387, 0, 302667, 296, 50, 0x8d211d055073adc8),
    ("checked-sync root4097 block256 p16384", 16382, 0, 81153, 0, 324088, 322, 60, 0x889ca9c01bd25c82),
    ("opp4 root4097 block256 p16384", 16382, 0, 87826, 0, 328481, 60, 50, 0x50cf22a311b7fd70),
    ("failure-proof root4097 block256 p16384", 16382, 0, 79476, 12872, 341550, 297, 50, 0xbd6f0024828e48a0),
    ("paced40 root4097 block256 p16384", 16382, 0, 81027, 0, 339564, 589, 51, 0x6a9071e0188ff38f),
    ("delayed30 root4097 block256 p16384", 16382, 0, 42249, 0, 203604, 352, 53, 0x04e4b6ffa13fcde4),
    ("checked shuffled none p16384", 16383, 0, 79989, 0, 305500, 79, 50, 0x5bf1e347ddcc1b82),
    ("checked-sync shuffled none p16384", 16383, 0, 81920, 0, 327676, 64, 56, 0xc0dc01bb7038ba8a),
    ("opp4 shuffled none p16384", 16383, 0, 89181, 0, 333076, 62, 53, 0xc99cd94af33bdad1),
    ("failure-proof shuffled none p16384", 16383, 0, 80089, 13167, 345301, 81, 50, 0xc450b0371aa4f737),
    ("paced40 shuffled none p16384", 16383, 0, 81270, 0, 341839, 103, 53, 0xad8356f41bb5742e),
    ("delayed30 shuffled none p16384", 16383, 0, 42712, 0, 205957, 98, 53, 0x66addac7cb91dc37),
    ("checked shuffled 1pct p16384", 16220, 0, 77199, 0, 295562, 79, 52, 0xa8bf8fb28058b56d),
    ("checked-sync shuffled 1pct p16384", 14539, 0, 77938, 0, 307138, 70, 62, 0xe477c9fa97e5affb),
    ("opp4 shuffled 1pct p16384", 16220, 0, 80926, 0, 306676, 62, 53, 0x542fd29fe2e7e7d0),
    ("failure-proof shuffled 1pct p16384", 16220, 0, 77421, 21553, 360879, 81, 53, 0xabbb6dd37c00b2c9),
    ("paced40 shuffled 1pct p16384", 16220, 0, 89367, 0, 364582, 142, 57, 0x491921aa1c7ccd84),
    ("delayed30 shuffled 1pct p16384", 16220, 0, 62223, 0, 262868, 103, 84, 0xb615a2df863d83a0),
    ("checked shuffled block256 p16384", 16148, 0, 78689, 0, 299127, 80, 51, 0xeb0d086aac2cf645),
    ("checked-sync shuffled block256 p16384", 15702, 0, 80059, 0, 317375, 70, 63, 0x576cc3d85ef00ab6),
    ("opp4 shuffled block256 p16384", 16148, 0, 86099, 0, 321234, 62, 53, 0x2de80acf7b114120),
    ("failure-proof shuffled block256 p16384", 16148, 0, 78884, 14967, 344605, 81, 51, 0xdb26559390170d0b),
    ("paced40 shuffled block256 p16384", 16148, 0, 80259, 0, 336605, 137, 53, 0x7886e19e502b128a),
    ("delayed30 shuffled block256 p16384", 16148, 0, 49700, 0, 224570, 100, 84, 0xa4e3ad025802c95c),
    ("checked linear none p65536", 65535, 0, 319934, 0, 1221943, 90, 58, 0x5f8ebb50aae5e46c),
    ("checked-sync linear none p65536", 65535, 0, 327680, 0, 1310716, 72, 64, 0xca8b8bdeb253c802),
    ("opp4 linear none p65536", 65535, 0, 356751, 0, 1332394, 70, 61, 0x75734a910d21aea0),
    ("failure-proof linear none p65536", 65535, 0, 320317, 52571, 1380805, 93, 58, 0x71c8b5ce7bf38c65),
    ("paced40 linear none p65536", 65535, 0, 325077, 0, 1367364, 111, 61, 0x4cc68b65c20d8fe1),
    ("delayed30 linear none p65536", 65535, 0, 170883, 0, 823942, 106, 61, 0x257358dfd6bd74d8),
    ("checked linear 1pct p65536", 64916, 0, 316033, 0, 1203848, 90, 58, 0xf8f29114cc23e020),
    ("checked-sync linear 1pct p65536", 63245, 0, 322038, 0, 1279478, 77, 70, 0xe73c9e44cded5941),
    ("opp4 linear 1pct p65536", 64916, 0, 345418, 0, 1291705, 70, 61, 0x1c50871f77e80b5b),
    ("failure-proof linear 1pct p65536", 64916, 0, 316858, 58981, 1383271, 95, 58, 0x9a8f225fc85eeea3),
    ("paced40 linear 1pct p65536", 64916, 0, 323374, 0, 1355806, 149, 65, 0x8e9190f7f11937ff),
    ("delayed30 linear 1pct p65536", 64916, 0, 193839, 0, 886487, 110, 92, 0x2c159444a8cdde24),
    ("checked linear block256 p65536", 65535, 0, 319339, 0, 1219133, 295, 58, 0xd2a78bf4e9367b02),
    ("checked-sync linear block256 p65536", 65535, 0, 326915, 0, 1307137, 330, 64, 0x5e3acb4a5b6c8059),
    ("opp4 linear block256 p65536", 65535, 0, 355396, 0, 1327797, 70, 61, 0x178c0970e8067b57),
    ("failure-proof linear block256 p65536", 65535, 0, 319706, 52293, 1377113, 296, 58, 0xb2a4a930469525ee),
    ("paced40 linear block256 p65536", 65535, 0, 324838, 0, 1365095, 588, 61, 0xdcca0cffd428fe5d),
    ("delayed30 linear block256 p65536", 65535, 0, 170428, 0, 821610, 330, 61, 0xd6e8604b065d1955),
    ("checked root4097 none p65536", 65535, 0, 319934, 0, 1221943, 90, 58, 0xbe4299b481a16f1a),
    ("checked-sync root4097 none p65536", 65535, 0, 327680, 0, 1310716, 72, 64, 0x37cc280eee59bac8),
    ("opp4 root4097 none p65536", 65535, 0, 356751, 0, 1332394, 70, 61, 0xe49c876c82c0d98a),
    ("failure-proof root4097 none p65536", 65535, 0, 320317, 52571, 1380805, 93, 58, 0xf5ef6ee9a44746b5),
    ("paced40 root4097 none p65536", 65535, 0, 325077, 0, 1367364, 111, 61, 0x714fb2f88701ac39),
    ("delayed30 root4097 none p65536", 65535, 0, 170883, 0, 823942, 106, 61, 0x1472295aba324a7a),
    ("checked root4097 1pct p65536", 64902, 0, 314571, 0, 1199434, 90, 62, 0xc3f213a259020732),
    ("checked-sync root4097 1pct p65536", 62836, 0, 321238, 0, 1275470, 78, 70, 0xa7903001cadcdfcf),
    ("opp4 root4097 1pct p65536", 64902, 0, 344003, 0, 1287413, 70, 62, 0x188c3cc9d6109319),
    ("failure-proof root4097 1pct p65536", 64902, 0, 315683, 61613, 1387596, 93, 62, 0x14fec783500521ea),
    ("paced40 root4097 1pct p65536", 64902, 0, 327628, 0, 1367165, 149, 63, 0x5436800b32dc0922),
    ("delayed30 root4097 1pct p65536", 64902, 0, 194261, 0, 887293, 134, 91, 0x94db19ca14e20787),
    ("checked root4097 block256 p65536", 65535, 0, 319284, 0, 1218969, 301, 58, 0xc6fc8fb77d011fd1),
    ("checked-sync root4097 block256 p65536", 65535, 0, 326915, 0, 1307137, 330, 64, 0x6f8a73f2970074a0),
    ("opp4 root4097 block256 p65536", 65535, 0, 355390, 0, 1327784, 70, 61, 0xe689f4097b2dfc23),
    ("failure-proof root4097 block256 p65536", 65535, 0, 319665, 52298, 1377006, 302, 58, 0xbb28bb3b72aa04de),
    ("paced40 root4097 block256 p65536", 65535, 0, 324816, 0, 1365031, 634, 61, 0x8db162cb8f8fb164),
    ("delayed30 root4097 block256 p65536", 65535, 0, 170420, 0, 821592, 357, 61, 0xaa0838d543bfd788),
    ("checked shuffled none p65536", 65535, 0, 319934, 0, 1221943, 90, 58, 0x64c0d64d073924dc),
    ("checked-sync shuffled none p65536", 65535, 0, 327680, 0, 1310716, 72, 64, 0xb9e0eb9f31bb18c0),
    ("opp4 shuffled none p65536", 65535, 0, 356751, 0, 1332394, 70, 61, 0xaab6f151c184fc18),
    ("failure-proof shuffled none p65536", 65535, 0, 320317, 52571, 1380805, 93, 58, 0x17a65996db8d6c15),
    ("paced40 shuffled none p65536", 65535, 0, 325077, 0, 1367364, 111, 61, 0x25778da3df54347f),
    ("delayed30 shuffled none p65536", 65535, 0, 170883, 0, 823942, 106, 61, 0x7abc9b969b4c9018),
    ("checked shuffled 1pct p65536", 64866, 0, 307591, 0, 1178490, 90, 58, 0xdc7193b11a6d4790),
    ("checked-sync shuffled 1pct p65536", 58316, 0, 312180, 0, 1230423, 77, 70, 0x7f8580178f7ed0cc),
    ("opp4 shuffled 1pct p65536", 64866, 0, 333270, 0, 1255255, 72, 61, 0x0a27c4e1b5e91bde),
    ("failure-proof shuffled 1pct p65536", 64866, 0, 308686, 64643, 1375695, 93, 58, 0xf7bd41f47c3f9d49),
    ("paced40 shuffled 1pct p65536", 64866, 0, 331421, 0, 1376389, 150, 89, 0x59c2023c204c3b05),
    ("delayed30 shuffled 1pct p65536", 64866, 0, 203761, 0, 919992, 125, 92, 0xc150f439d3ba5f11),
    ("checked shuffled block256 p65536", 65309, 0, 317054, 0, 1210881, 90, 58, 0xa30360341f06bd1b),
    ("checked-sync shuffled block256 p65536", 64000, 0, 324117, 0, 1291880, 77, 70, 0xf625cc51ba2c86f7),
    ("opp4 shuffled block256 p65536", 65309, 0, 350158, 0, 1310024, 70, 61, 0x2a4ae70a0604c51e),
    ("failure-proof shuffled block256 p65536", 65309, 0, 317510, 58958, 1389120, 93, 58, 0x920230ac59237a6f),
    ("paced40 shuffled block256 p65536", 65309, 0, 322420, 0, 1358743, 145, 61, 0xbecb42c85707cffc),
    ("delayed30 shuffled block256 p65536", 65309, 0, 188273, 0, 873791, 106, 86, 0x5629b9e13b318fd2),
];

/// `(name, spec)` of the kinds pinned at scale, all held by value in one
/// population: checked overlapped and synchronized, optimized
/// opportunistic `d = 4`, failure-proof (`Ack` replies), and the two that
/// wait (`WaitUntil`, served as `Repoll`).
fn wide_kinds(logp: &LogP) -> Vec<(&'static str, BroadcastSpec)> {
    let tree = |kind| BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, kind);
    let sync = |kind| BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, kind);
    vec![
        ("checked", tree(CorrectionKind::Checked)),
        ("checked-sync", sync(CorrectionKind::Checked)),
        (
            "opp4",
            tree(CorrectionKind::OpportunisticOptimized { distance: 4 }),
        ),
        ("failure-proof", tree(CorrectionKind::FailureProof)),
        ("paced40", tree(CorrectionKind::checked_paced(logp, 40))),
        ("delayed30", tree(CorrectionKind::Delayed { delay: 30 })),
    ]
}

/// FNV-1a over the per-rank fields of an outcome.
fn per_rank_hash(out: &ct_sim::Outcome) -> u64 {
    let mut bytes = Vec::with_capacity(out.p as usize * 13);
    for r in 0..out.p as usize {
        let at = out.colored_at[r].map_or(u64::MAX, |t| t.steps());
        bytes.extend_from_slice(&at.to_le_bytes());
        bytes.push(match out.colored_via[r] {
            None => 0,
            Some(ColoredVia::Root) => 1,
            Some(ColoredVia::Dissemination) => 2,
            Some(ColoredVia::Correction) => 3,
        });
        bytes.extend_from_slice(&out.sent_per_rank[r].to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Unobserved outcomes at P = 16 384 and 65 536, where most events fall
/// in time steps thousands of events wide: every kind of `wide_kinds`
/// under three numberings (linear, rotated to root 4097, shuffled) and
/// three fault patterns (none, 1 %, one dead block of 256 ranks), all
/// through one reused arena.
fn wide_cells() -> Vec<WidePin<String>> {
    let logp = LogP::PAPER;
    let mut arena = RunArena::new();
    let mut rows = Vec::new();
    for p in [16_384u32, 65_536] {
        for (numbering, root, shuffle) in [
            ("linear", 0, None),
            ("root4097", 4097, None),
            ("shuffled", 0, Some(5)),
        ] {
            let block: Vec<Rank> = (3 * p / 4..3 * p / 4 + 256).collect();
            for (faults, plan) in [
                ("none", FaultPlan::none(p)),
                (
                    "1pct",
                    FaultPlan::random_count_protecting(p, p / 100, u64::from(p) + 3, root).unwrap(),
                ),
                ("block256", FaultPlan::from_ranks(p, &block).unwrap()),
            ] {
                for (name, spec) in wide_kinds(&logp) {
                    let mut spec = spec.with_root(root);
                    if let Some(seed) = shuffle {
                        spec = spec.with_shuffle(seed);
                    }
                    let cell = format!("{name} {numbering} {faults} p{p}");
                    let sim = Simulation::builder(p, logp)
                        .faults(plan.clone())
                        .seed(u64::from(p) + 29)
                        .build();
                    let out = sim
                        .run_reusable(&spec, &mut arena)
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let m = out.messages;
                    rows.push((
                        cell,
                        m.tree,
                        m.gossip,
                        m.correction,
                        m.ack,
                        out.events,
                        out.quiescence.steps(),
                        out.coloring_latency.steps(),
                        per_rank_hash(&out),
                    ));
                }
            }
        }
    }
    rows
}

#[test]
fn wide_outcomes_match_the_pins() {
    let rows = wide_cells();
    let same = rows.len() == WIDE_PINS.len()
        && rows.iter().zip(WIDE_PINS).all(|(got, pin)| {
            (
                got.0.as_str(),
                got.1,
                got.2,
                got.3,
                got.4,
                got.5,
                got.6,
                got.7,
                got.8,
            ) == *pin
        });
    if !same {
        let table: String = rows
            .iter()
            .map(|(cell, tree, gossip, corr, ack, events, quiescence, coloring, hash)| {
                format!(
                    "    (\"{cell}\", {tree}, {gossip}, {corr}, {ack}, {events}, {quiescence}, {coloring}, {hash:#018x}),\n"
                )
            })
            .collect();
        panic!("wide outcomes moved off their pins; measured table:\n{table}");
    }
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
