//! Property-based tests on the core data structures and invariants:
//! Lemma 1 (all recurrence trees are interleaved), structural validity
//! of every builder, gap accounting, and correction-machine safety.

use ct_core::correction::{CorrPoll, Correction, CorrectionKind};
use ct_core::tree::{interleaving, ring, Ordering, Topology, TreeKind};
use ct_logp::{LogP, Rank, Time};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = TreeKind> {
    prop_oneof![
        (1u32..6).prop_map(|k| TreeKind::Kary {
            k,
            order: Ordering::Interleaved
        }),
        (1u32..6).prop_map(|k| TreeKind::Kary {
            k,
            order: Ordering::InOrder
        }),
        Just(TreeKind::Binomial {
            order: Ordering::Interleaved
        }),
        Just(TreeKind::Binomial {
            order: Ordering::InOrder
        }),
        (1u32..6).prop_map(|k| TreeKind::Lame {
            k,
            order: Ordering::Interleaved
        }),
        (1u32..6).prop_map(|k| TreeKind::Lame {
            k,
            order: Ordering::InOrder
        }),
        Just(TreeKind::Optimal {
            order: Ordering::Interleaved
        }),
        Just(TreeKind::Optimal {
            order: Ordering::InOrder
        }),
    ]
}

fn arb_logp() -> impl Strategy<Value = LogP> {
    (1u64..6, 1u64..4).prop_map(|(l, o)| LogP::new(l, o, 1).expect("valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every builder yields a structurally valid spanning tree: ranks
    /// 0..P, unique parents, root at rank 0, depths consistent,
    /// children in strictly ascending send order for recurrence trees.
    #[test]
    fn builders_produce_valid_spanning_trees(
        kind in arb_kind(),
        p in 1u32..400,
        logp in arb_logp(),
    ) {
        let tree = kind.build(p, &logp).expect("valid parameters");
        prop_assert_eq!(tree.num_processes(), p);
        prop_assert_eq!(tree.num_edges(), p - 1);
        let mut seen = vec![false; p as usize];
        for (parent, child) in tree.edges() {
            prop_assert!(child < p && parent < p);
            prop_assert!(!seen[child as usize]);
            seen[child as usize] = true;
            prop_assert_eq!(tree.parent(child), Some(parent));
            prop_assert_eq!(tree.depth(child), tree.depth(parent) + 1);
        }
        prop_assert!(!seen[0]);
        prop_assert!(seen[1..].iter().all(|&b| b));
    }

    /// Lemma 1: interleaved builders satisfy Definition 1 for every P.
    /// The optimal tree's creation-order numbering is interleaved
    /// whenever `o | L` — which covers the paper's whole evaluation
    /// (`o = 1`); see `optimal_tree_interleaving_boundary` for the
    /// `o ∤ L` phase-staggering counterexample.
    #[test]
    fn lemma1_interleaving_holds(
        p in 1u32..260,
        logp in arb_logp(),
        which in 0usize..5,
        k in 1u32..6,
    ) {
        let kind = [
            TreeKind::Kary { k, order: Ordering::Interleaved },
            TreeKind::Binomial { order: Ordering::Interleaved },
            TreeKind::Lame { k, order: Ordering::Interleaved },
            TreeKind::Optimal { order: Ordering::Interleaved },
            TreeKind::Kary { k: 1, order: Ordering::InOrder }, // chain: trivially interleaved
        ][which];
        let optimal = matches!(kind, TreeKind::Optimal { .. });
        let logp = if optimal && !logp.l().is_multiple_of(logp.o()) {
            // Snap to the nearest o-divisible latency for optimal trees.
            LogP::new(logp.l().div_ceil(logp.o()) * logp.o(), logp.o(), 1).expect("valid")
        } else {
            logp
        };
        let tree = kind.build(p, &logp).expect("valid");
        prop_assert!(
            interleaving::is_interleaved(&tree),
            "{kind} P={p} {logp}: {:?}",
            interleaving::find_violation(&tree)
        );
    }

    /// `o | L` ⇒ the optimal tree is a (time-rescaled) Lamé tree of
    /// order `(2o + L)/o` and therefore interleaved.
    #[test]
    fn optimal_tree_interleaved_whenever_o_divides_l(
        p in 1u32..260,
        o in 1u64..4,
        mult in 1u64..4,
    ) {
        let logp = LogP::new(o * mult, o, 1).expect("valid");
        let tree = TreeKind::OPTIMAL.build(p, &logp).expect("valid");
        prop_assert!(
            interleaving::is_interleaved(&tree),
            "P={p} {logp}: {:?}",
            interleaving::find_violation(&tree)
        );
    }

    /// The CSR adjacency agrees with the reference array-of-vectors
    /// representation (the layout the tree used before the flat
    /// offsets + packed-child-array encoding) on every accessor:
    /// `children` slices, `parent` links, `subtree` DFS order, depths,
    /// the ring coloring walk, and a `from_parents` round trip.
    #[test]
    fn csr_matches_reference_adjacency(
        kind in arb_kind(),
        p in 1u32..400,
        logp in arb_logp(),
        fail_bits in proptest::collection::vec(any::<bool>(), 400),
    ) {
        let tree = kind.build(p, &logp).expect("valid parameters");
        // Reference adjacency: one Vec per rank, children pushed in
        // ascending rank order (the send order recurrence builders
        // assign and the CSR counting sort preserves).
        let mut reference = vec![Vec::<Rank>::new(); p as usize];
        let mut parent = vec![0 as Rank; p as usize];
        for child in 1..p {
            let q = tree.parent(child).expect("non-root has a parent");
            reference[q as usize].push(child);
            parent[child as usize] = q;
        }
        for r in 0..p {
            prop_assert_eq!(tree.children(r), reference[r as usize].as_slice());
        }
        // Subtree DFS through the packed child array equals the same
        // preorder walk over the reference vectors.
        for r in (0..p).step_by(1 + p as usize / 16) {
            let mut expect = Vec::new();
            let mut stack = vec![r];
            while let Some(v) = stack.pop() {
                expect.push(v);
                stack.extend(reference[v as usize].iter().rev().copied());
            }
            prop_assert_eq!(tree.subtree(r), expect);
        }
        // The ring coloring walk (CSR DFS from the root, scratch-stack
        // backed) equals live-ancestor-chain reachability computed over
        // the reference adjacency.
        let mut failed = fail_bits;
        failed.truncate(p as usize);
        failed.resize(p as usize, false);
        failed[0] = false; // root broadcasts
        let mut expect = vec![false; p as usize];
        let mut stack = vec![0 as Rank];
        while let Some(v) = stack.pop() {
            expect[v as usize] = true;
            stack.extend(
                reference[v as usize]
                    .iter()
                    .filter(|&&c| !failed[c as usize]),
            );
        }
        prop_assert_eq!(ring::color_after_dissemination(&tree, &failed), expect);
        // Rebuilding from the raw parent array reproduces the CSR
        // exactly: children, depths and edge order all survive.
        let rebuilt = ct_core::tree::Tree::from_parents(parent).expect("valid links");
        for r in 0..p {
            prop_assert_eq!(rebuilt.children(r), tree.children(r));
            prop_assert_eq!(rebuilt.depth(r), tree.depth(r));
        }
        prop_assert!(rebuilt.edges().eq(tree.edges()));
    }

    /// In-order numbering makes every subtree a contiguous rank range.
    #[test]
    fn in_order_subtrees_are_contiguous(
        p in 1u32..200,
        which in 0usize..3,
        k in 2u32..5,
    ) {
        let kind = [
            TreeKind::Binomial { order: Ordering::InOrder },
            TreeKind::Kary { k, order: Ordering::InOrder },
            TreeKind::Lame { k, order: Ordering::InOrder },
        ][which];
        let tree = kind.build(p, &LogP::PAPER).expect("valid");
        for r in 0..p {
            let mut sub = tree.subtree(r);
            sub.sort_unstable();
            let lo = sub[0];
            prop_assert_eq!(sub, (lo..lo + tree.subtree(r).len() as Rank).collect::<Vec<_>>());
        }
    }

    /// Gap accounting: total gap length equals the number of uncolored
    /// processes; gaps are disjoint, non-empty and uncolored throughout.
    #[test]
    fn gap_accounting_is_exact(mask in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut colored = mask;
        colored[0] = true; // the root is always colored
        let gaps = ring::gaps(&colored);
        let total: u32 = gaps.iter().map(|g| g.len).sum();
        prop_assert_eq!(total, ring::uncolored_count(&colored));
        for g in &gaps {
            prop_assert!(g.len >= 1);
            for i in 0..g.len {
                let idx = (g.start + i) as usize % colored.len();
                prop_assert!(!colored[idx]);
            }
            // Boundaries are colored (maximality).
            let before = (g.start as usize + colored.len() - 1) % colored.len();
            let after = (g.start + g.len) as usize % colored.len();
            prop_assert!(colored[before]);
            prop_assert!(colored[after]);
        }
        prop_assert_eq!(ring::max_gap(&colored), gaps.iter().map(|g| g.len).max().unwrap_or(0));
    }

    /// Dissemination coloring: colored ⇔ every ancestor on the root
    /// path is alive (and the process itself is alive).
    #[test]
    fn dissemination_coloring_matches_ancestor_liveness(
        kind in arb_kind(),
        p in 2u32..200,
        fail_bits in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let tree = kind.build(p, &LogP::PAPER).expect("valid");
        let mut failed: Vec<bool> = fail_bits[..p as usize].to_vec();
        failed[0] = false;
        let colored = ring::color_after_dissemination(&tree, &failed);
        for r in 0..p {
            let mut alive_path = !failed[r as usize];
            let mut x = r;
            while let Some(parent) = tree.parent(x) {
                if failed[parent as usize] {
                    alive_path = false;
                    break;
                }
                x = parent;
            }
            prop_assert_eq!(colored[r as usize], alive_path, "rank {}", r);
        }
    }

    /// Opportunistic machines terminate, never target themselves, and
    /// send at most 2·min(d, P-1) messages.
    #[test]
    fn opportunistic_machine_is_safe(
        p in 1u32..100,
        rank_seed in any::<u32>(),
        d in 1u32..12,
        optimized in any::<bool>(),
        arrivals in proptest::collection::vec(any::<u32>(), 0..6),
    ) {
        let rank = rank_seed % p;
        let mut m = ct_core::correction::OpportunisticCorrection::new(
            rank, p, d, optimized,
        );
        for a in &arrivals {
            m.on_correction(a % p);
        }
        let mut sent = 0u32;
        loop {
            match m.poll(Time::ZERO) {
                CorrPoll::Send(t) => {
                    prop_assert!(t < p);
                    prop_assert!(p == 1 || t != rank);
                    sent += 1;
                    prop_assert!(sent <= 2 * d.min(p.saturating_sub(1)));
                }
                CorrPoll::Done => break,
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }

    /// Checked machines terminate within 2(P-1) sends, never target
    /// themselves, and stop both directions after hearing both
    /// immediate neighbors.
    #[test]
    fn checked_machine_is_safe(
        p in 2u32..100,
        rank_seed in any::<u32>(),
        arrivals in proptest::collection::vec((any::<u32>(), 0usize..20), 0..8),
    ) {
        let rank = rank_seed % p;
        let mut m = ct_core::correction::CheckedCorrection::new(rank, p);
        let mut pending: Vec<(Rank, usize)> = arrivals
            .iter()
            .map(|&(f, after)| (f % p, after))
            .collect();
        let mut sent = 0usize;
        loop {
            for (f, after) in &pending {
                if *after == sent {
                    m.on_correction(*f);
                }
            }
            pending.retain(|&(_, after)| after != sent);
            match m.poll(Time::ZERO) {
                CorrPoll::Send(t) => {
                    prop_assert!(t < p && t != rank);
                    sent += 1;
                    prop_assert!(sent <= 2 * (p as usize - 1), "runaway machine");
                }
                CorrPoll::Done => break,
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }

    /// Reduction dual of §4.2's guarantee: in a k-ary interleaved tree
    /// with replication distance d ≥ k, up to k-1 failures never lose a
    /// live contribution.
    #[test]
    fn kary_reduction_tolerates_k_minus_one_failures(
        k in 2u32..6,
        n_exp in 4u32..9,
        fail_seed in any::<u64>(),
    ) {
        use rand::seq::index::sample;
        use rand::SeedableRng;
        let p = 1u32 << n_exp;
        let tree = TreeKind::Kary { k, order: Ordering::Interleaved }
            .build(p, &LogP::PAPER)
            .expect("valid");
        let mut failed = vec![false; p as usize];
        let mut rng = rand::rngs::StdRng::seed_from_u64(fail_seed);
        for idx in sample(&mut rng, (p - 1) as usize, (k - 1) as usize) {
            failed[idx + 1] = true;
        }
        let out = ct_core::reduce::simulate(&tree, k, &failed, &LogP::PAPER);
        prop_assert!(
            out.all_live_delivered(&failed),
            "k={k} P={p}: lost {:?}",
            out.lost(&failed)
        );
    }

    /// Reduction with checked-level replication (d ≥ g_max of any fault
    /// pattern): fault-free always delivers; and delivered ⊇ processes
    /// with fully-live ancestry regardless of d.
    #[test]
    fn reduction_delivery_is_monotone_in_d(
        p in 2u32..200,
        n_faults in 0u32..10,
        seed in any::<u64>(),
        d in 0u32..8,
    ) {
        use rand::seq::index::sample;
        use rand::SeedableRng;
        let n_faults = n_faults.min(p - 1);
        let tree = TreeKind::BINOMIAL.build(p, &LogP::PAPER).expect("valid");
        let mut failed = vec![false; p as usize];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for idx in sample(&mut rng, (p - 1) as usize, n_faults as usize) {
            failed[idx + 1] = true;
        }
        let lo = ct_core::reduce::simulate(&tree, d, &failed, &LogP::PAPER);
        let hi = ct_core::reduce::simulate(&tree, d + 1, &failed, &LogP::PAPER);
        for r in 0..p as usize {
            // More replication never loses a contribution.
            prop_assert!(!lo.delivered[r] || hi.delivered[r]);
        }
        // Dead processes never contribute; live ones with live ancestry
        // always do.
        let colored = ring::color_after_dissemination(&tree, &failed);
        for r in 0..p as usize {
            if failed[r] {
                prop_assert!(!lo.delivered[r]);
            } else if colored[r] {
                // Fully-live root path ⇒ own gather path works.
                prop_assert!(lo.delivered[r]);
            }
        }
    }

    /// CorrectionKind::machine dispatch always yields a machine that
    /// makes progress (terminates or idles, never panics) when starved.
    #[test]
    fn all_machines_survive_starvation(
        p in 1u32..60,
        rank_seed in any::<u32>(),
        which in 0usize..5,
    ) {
        let rank = rank_seed % p;
        let kind = [
            CorrectionKind::Opportunistic { distance: 3 },
            CorrectionKind::OpportunisticOptimized { distance: 3 },
            CorrectionKind::Checked,
            CorrectionKind::FailureProof,
            CorrectionKind::Delayed { delay: 5 },
        ][which];
        let mut m = kind.machine(rank, p).expect("non-None kind");
        let mut now = Time::ZERO;
        for _ in 0..(4 * p as usize + 20) {
            match m.poll(now) {
                CorrPoll::Send(t) => prop_assert!(t < p),
                CorrPoll::WaitUntil(t) => {
                    prop_assert!(t > now);
                    now = t;
                }
                CorrPoll::Idle | CorrPoll::Done => break,
            }
            now += 1u64;
        }
    }
}
