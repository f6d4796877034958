//! Rank relabeling: any broadcast root, random process numbering (§2.1).
//!
//! The paper fixes the root at rank 0 "without loss of generality" (§2)
//! and the protocols are written that way, on *virtual* ranks. A
//! [`Relabeling`] is the bijection to the *physical* ranks the driver
//! addresses, applied at the process boundary — per rank by
//! [`RelabeledProcess`], once for a whole broadcast by
//! [`RelabeledPopulation`]:
//!
//! * a **rotation** `v ↔ (v + root) mod P` roots the broadcast anywhere.
//!   It is an automorphism of the correction ring (all ring distances
//!   are preserved), so every interleaving and gap property carries
//!   over verbatim; it is pure arithmetic and owns no memory.
//! * a **random numbering** de-correlates failures. Real failures are
//!   rarely independent — all processes of one node die together, and
//!   on a linear ring such a block is one big gap no tree interleaving
//!   can prevent. The paper's remedy: "independence can be achieved by
//!   numbering tree nodes in a random manner" (§2.1). Scattering a
//!   physical block across the virtual ring (where all gap guarantees
//!   live) turns one `m`-sized gap into `m` unit gaps.

use std::sync::Arc;

use ct_logp::{ring_gap_cw, Rank, Time};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{
    ColoredVia, CorrectedTreeProcess, Payload, Population, Process, SendPoll, TreeBroadcast,
};
use crate::tree::Topology;

/// A virtual↔physical rank bijection shared by all `P` processes.
#[derive(Clone, Debug)]
pub struct Relabeling(Map);

#[derive(Clone, Debug)]
enum Map {
    /// Virtual `v` ↔ physical `(v + root) mod P`; the identity at
    /// `root == 0`.
    Rotation {
        root: Rank,
        p: u32,
    },
    Table(Arc<Tables>),
}

#[derive(Debug)]
struct Tables {
    /// `to_physical[v]` = physical rank running virtual rank `v`.
    to_physical: Vec<Rank>,
    /// `to_virtual[r]` = virtual rank run by physical rank `r`.
    to_virtual: Vec<Rank>,
}

impl Relabeling {
    /// Build from an explicit virtual→physical table.
    ///
    /// # Panics
    /// Panics if `to_physical` is not a permutation of `0..P`.
    pub fn from_table(to_physical: Vec<Rank>) -> Relabeling {
        let p = to_physical.len();
        let mut to_virtual = vec![u32::MAX; p];
        for (v, &phys) in to_physical.iter().enumerate() {
            assert!((phys as usize) < p, "physical rank out of range");
            assert_eq!(
                to_virtual[phys as usize],
                u32::MAX,
                "duplicate physical rank"
            );
            to_virtual[phys as usize] = v as Rank;
        }
        Relabeling(Map::Table(Arc::new(Tables {
            to_physical,
            to_virtual,
        })))
    }

    /// Uniformly random numbering with the virtual root pinned to the
    /// physical `root` (the initiator must keep its role).
    pub fn random(p: u32, root: Rank, seed: u64) -> Relabeling {
        assert!(root < p);
        let mut table: Vec<Rank> = (0..p).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        table.shuffle(&mut rng);
        // Pin virtual 0 to the physical root by one swap.
        let pos = table.iter().position(|&r| r == root).expect("root present");
        table.swap(0, pos);
        Relabeling::from_table(table)
    }

    /// Cyclic relabeling: virtual `v` ↔ physical `(v + root) mod P`.
    pub fn rotation(p: u32, root: Rank) -> Relabeling {
        assert!(root < p);
        Relabeling(Map::Rotation { root, p })
    }

    /// Number of processes.
    pub fn p(&self) -> u32 {
        match &self.0 {
            Map::Rotation { p, .. } => *p,
            Map::Table(t) => t.to_physical.len() as u32,
        }
    }

    /// Physical rank of virtual `v`.
    #[inline]
    pub fn physical(&self, v: Rank) -> Rank {
        match &self.0 {
            // (v + root) mod p is how far v lies clockwise of −root.
            Map::Rotation { root: 0, .. } => v,
            Map::Rotation { root, p } => ring_gap_cw(p - root, v, *p),
            Map::Table(t) => t.to_physical[v as usize],
        }
    }

    /// Virtual rank of physical `r`.
    #[inline]
    pub fn virtual_of(&self, r: Rank) -> Rank {
        match &self.0 {
            Map::Rotation { root, p } => ring_gap_cw(*root, r, *p),
            Map::Table(t) => t.to_virtual[r as usize],
        }
    }

    /// What the driver sees of a virtual-rank machine's poll: a send
    /// addressed to the physical rank of its target.
    #[inline]
    fn outbound(&self, poll: SendPoll) -> SendPoll {
        match poll {
            SendPoll::Now { to, payload } => SendPoll::Now {
                to: self.physical(to),
                payload,
            },
            other => other,
        }
    }

    /// Translate a physical fault mask into the virtual numbering (the
    /// space where gaps are measured).
    pub fn virtual_mask(&self, physical_mask: &[bool]) -> Vec<bool> {
        assert_eq!(physical_mask.len(), self.p() as usize);
        (0..self.p())
            .map(|v| physical_mask[self.physical(v) as usize])
            .collect()
    }
}

/// A virtual-rank protocol state machine `M` on its physical host.
pub struct RelabeledProcess<M> {
    pub(super) inner: M,
    pub(super) map: Relabeling,
}

impl<M> RelabeledProcess<M> {
    /// Wrap `inner` (the machine for some virtual rank) with the shared
    /// relabeling.
    pub fn new(inner: M, map: Relabeling) -> Self {
        RelabeledProcess { inner, map }
    }
}

impl<M: Process + 'static> Process for RelabeledProcess<M> {
    fn on_message(&mut self, from: Rank, payload: Payload, now: Time) {
        self.inner
            .on_message(self.map.virtual_of(from), payload, now);
    }

    fn poll_send(&mut self, now: Time) -> SendPoll {
        self.map.outbound(self.inner.poll_send(now))
    }

    fn colored_at(&self) -> Option<Time> {
        self.inner.colored_at()
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.inner.colored_via()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn core::any::Any> {
        Some(self)
    }
}

/// A whole corrected-tree broadcast, held by value in physical-rank
/// order: the per-rank machines, and the [`TreeBroadcast`] and the
/// [`Relabeling`] they share, each stored once — what `P` boxed
/// [`RelabeledProcess`]es are, without a box and a copy of both per
/// rank.
pub struct RelabeledPopulation {
    map: Relabeling,
    broadcast: TreeBroadcast,
    /// `machines[r]` is the machine physical rank `r` runs, i.e. the
    /// one of virtual rank `map.virtual_of(r)`.
    machines: Vec<CorrectedTreeProcess>,
}

impl RelabeledPopulation {
    /// The fresh machines of `broadcast` under the numbering `map`.
    pub fn new(map: Relabeling, broadcast: TreeBroadcast) -> Self {
        let mut population = RelabeledPopulation {
            map,
            broadcast,
            machines: Vec::new(),
        };
        population.rewind();
        population
    }

    /// Become [`RelabeledPopulation::new`] of these arguments in place:
    /// the machine a physical rank already has is rewound, those of
    /// ranks beyond the previous `P` are created, and machines beyond
    /// the new `P` are dropped.
    pub fn refill(&mut self, map: Relabeling, broadcast: TreeBroadcast) {
        (self.map, self.broadcast) = (map, broadcast);
        self.rewind();
    }

    fn rewind(&mut self) {
        let p = self.map.p();
        assert_eq!(
            p,
            self.broadcast.tree().num_processes(),
            "one machine per rank"
        );
        self.machines.truncate(p as usize);
        let kept = self.machines.len() as Rank;
        let (map, broadcast) = (&self.map, &self.broadcast);
        for (machine, phys) in self.machines.iter_mut().zip(0..) {
            machine.reset(map.virtual_of(phys), broadcast);
        }
        let fresh =
            (kept..p).map(|phys| CorrectedTreeProcess::new(map.virtual_of(phys), broadcast));
        self.machines.extend(fresh);
    }
}

impl Population for RelabeledPopulation {
    fn len(&self) -> usize {
        self.machines.len()
    }

    fn on_message(&mut self, rank: Rank, from: Rank, payload: Payload, now: Time) {
        let from = self.map.virtual_of(from);
        self.machines[rank as usize].on_message(&self.broadcast, from, payload, now);
    }

    fn poll_send(&mut self, rank: Rank, now: Time) -> SendPoll {
        let poll = self.machines[rank as usize].poll_send(&self.broadcast, now);
        self.map.outbound(poll)
    }

    fn colored_at(&self, rank: Rank) -> Option<Time> {
        self.machines[rank as usize].colored_at()
    }

    fn colored_via(&self, rank: Rank) -> Option<ColoredVia> {
        self.machines[rank as usize].colored_via()
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_relabeling_is_a_root_pinned_bijection() {
        for seed in 0..10u64 {
            let map = Relabeling::random(64, 7, seed);
            assert_eq!(map.physical(0), 7, "virtual root on physical 7");
            assert_eq!(map.virtual_of(7), 0);
            for v in 0..64 {
                assert_eq!(map.virtual_of(map.physical(v)), v);
            }
        }
    }

    #[test]
    fn rotation_matches_modular_arithmetic() {
        for (p, root) in [(16, 5), (16, 0), (1, 0), (7, 6), (u32::MAX, u32::MAX - 1)] {
            let map = Relabeling::rotation(p, root);
            assert_eq!(map.p(), p);
            for v in (0..p.min(16)).chain(p.saturating_sub(16)..p) {
                let phys = ((u64::from(v) + u64::from(root)) % u64::from(p)) as Rank;
                assert_eq!(map.physical(v), phys, "P={p} root={root}");
                assert_eq!(map.virtual_of(phys), v, "P={p} root={root}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Relabeling::random(256, 0, 1);
        let b = Relabeling::random(256, 0, 2);
        assert!((0..256).any(|v| a.physical(v) != b.physical(v)));
    }

    #[test]
    fn virtual_mask_translates_failures() {
        let map = Relabeling::from_table(vec![2, 0, 1]);
        // Physical 1 dead → virtual rank with physical(v) == 1 is v=2.
        let vm = map.virtual_mask(&[false, true, false]);
        assert_eq!(vm, vec![false, false, true]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_non_permutations() {
        let _ = Relabeling::from_table(vec![0, 0, 2]);
    }
}
