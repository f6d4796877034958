//! Rank relabeling: any broadcast root, random process numbering (§2.1).
//!
//! The paper fixes the root at rank 0 "without loss of generality" (§2)
//! and the protocols are written that way, on *virtual* ranks. A
//! [`Relabeling`] is the bijection to the *physical* ranks the driver
//! addresses, applied at the machine boundary — per rank by the
//! cluster's box ([`Placed`]), once for a whole broadcast by the
//! simulator's by-value population ([`Machines`]), both of which a
//! [`Plan`] fills:
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

use std::any::Any;
use std::sync::Arc;

use ct_logp::{ring_gap_cw, Rank, Time};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{Blueprint, ColoredVia, Machine, Payload, Population, Process, SendPoll};

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

/// One broadcast resolved against its context: the part all of its
/// ranks share and their numbering. Physical rank `phys` runs the
/// machine of virtual rank `map.virtual_of(phys)`. It places the
/// cluster's boxes one rank at a time ([`Blueprint`]) and fills the
/// simulator's by-value population ([`Plan::populate`]): one definition
/// of "the machine of physical rank `r`" for both.
pub struct Plan<M: Machine> {
    /// What every rank of the broadcast shares.
    pub shared: M::Shared,
    /// The numbering; its `P` is the broadcast's.
    pub map: Relabeling,
}

impl<M: Machine> Plan<M> {
    /// Put this broadcast's machines into `slot`: the [`Machines<M>`]
    /// a previous broadcast left there is re-initialised in place (its
    /// machines rewound, those of ranks beyond its `P` created), and any
    /// other store is replaced.
    pub fn populate(self, slot: &mut Option<Box<dyn Population>>) {
        let held = slot.as_deref_mut().map(|store| store as &mut dyn Any);
        match held.and_then(|store| store.downcast_mut::<Machines<M>>()) {
            Some(store) => store.refill(self),
            None => *slot = Some(Box::new(Machines::new(self))),
        }
    }
}

/// One rank of a broadcast as a [`Process`] of its own: the machine, a
/// copy of the broadcast's shared part and the numbering, applied at its
/// own boundary. It is the box the cluster's ranks hold.
pub struct Placed<M: Machine> {
    machine: M,
    shared: M::Shared,
    map: Relabeling,
}

impl<M: Machine> Process for Placed<M> {
    fn on_message(&mut self, from: Rank, payload: Payload, now: Time) {
        let from = self.map.virtual_of(from);
        self.machine.on_message(&self.shared, from, payload, now);
    }

    fn poll_send(&mut self, now: Time) -> SendPoll {
        self.map.outbound(self.machine.poll_send(&self.shared, now))
    }

    fn colored_at(&self) -> Option<Time> {
        self.machine.colored_at()
    }

    fn colored_via(&self) -> Option<ColoredVia> {
        self.machine.colored_via()
    }
}

impl<M: Machine> Blueprint for Plan<M> {
    /// Rewinds a previous [`Placed<M>`] in place, whatever its root,
    /// numbering or parameters were: no allocation for linear and
    /// rotated numberings. Any other old machine is replaced.
    fn place(&self, phys: Rank, old: Option<Box<dyn Process>>) -> Box<dyn Process> {
        let rank = self.map.virtual_of(phys);
        if let Some(mut old) = old {
            let any: &mut dyn Any = &mut *old;
            if let Some(placed) = any.downcast_mut::<Placed<M>>() {
                placed.shared.clone_from(&self.shared);
                placed.map.clone_from(&self.map);
                placed.machine.reset(rank, &self.shared);
                return old;
            }
        }
        Box::new(Placed {
            machine: M::new(rank, &self.shared),
            shared: self.shared.clone(),
            map: self.map.clone(),
        })
    }
}

/// Which half of a population physical rank `r` lies in: blocks of 64
/// consecutive ranks (one bit-vector word) alternate between half 0 and
/// half 1, so each half gets ranks from every part of the ring.
#[inline]
pub fn half_of(r: Rank) -> usize {
    ((r >> 6) & 1) as usize
}

/// The index of physical rank `r` within its half ([`half_of`]).
#[inline]
pub fn index_in_half(r: Rank) -> usize {
    (((r >> 7) << 6) | (r & 63)) as usize
}

/// The physical rank at `index` of half `half`: the inverse of
/// [`half_of`] and [`index_in_half`].
#[inline]
pub fn rank_in_half(half: usize, index: usize) -> Rank {
    (((index >> 6) << 7) | (half << 6) | (index & 63)) as Rank
}

/// How many of the ranks `0..p` lie in half `half`.
pub fn half_len(p: u32, half: usize) -> usize {
    let (pairs, rest) = ((p >> 7) as usize, (p & 127) as usize);
    pairs * 64
        + match half {
            0 => rest.min(64),
            _ => rest.saturating_sub(64),
        }
}

/// A whole broadcast held by value: the per-rank machines, and the
/// shared part and the [`Relabeling`] they share, each stored once —
/// what `P` [`Placed`] boxes are, without a box and a copy of both per
/// rank. It is every protocol's [`Population`].
///
/// The machines lie in one vector, by rank, until a driver takes them
/// as two halves of alternating 64-rank blocks ([`half_of`]) to run
/// them on two threads ([`Machines::take_halves`]). From then on they
/// stay in halves, which serve every other use too.
pub struct Machines<M: Machine> {
    map: Relabeling,
    shared: M::Shared,
    /// Whole, `halves[0][r]` is the machine of physical rank `r` and
    /// `halves[1]` is empty; split, `halves[h][i]` is that of
    /// `rank_in_half(h, i)`. A rank's machine is the one of its virtual
    /// rank under `map`.
    halves: [Vec<M>; 2],
    split: bool,
}

/// One half of a [`Machines`]' machines, addressed by
/// [`index_in_half`], with a handle on the shared part and the numbering
/// they share: what one thread of a driver needs to run those ranks.
pub struct PopulationHalf<M: Machine> {
    map: Relabeling,
    shared: M::Shared,
    machines: Vec<M>,
}

impl<M: Machine> PopulationHalf<M> {
    /// [`Population::on_message`] for the rank at `index`; `from` is a
    /// physical rank.
    #[inline]
    pub fn on_message(&mut self, index: usize, from: Rank, payload: Payload, now: Time) {
        let from = self.map.virtual_of(from);
        self.machines[index].on_message(&self.shared, from, payload, now);
    }

    /// [`Population::poll_send`] for the rank at `index`.
    #[inline]
    pub fn poll_send(&mut self, index: usize, now: Time) -> SendPoll {
        let poll = self.machines[index].poll_send(&self.shared, now);
        self.map.outbound(poll)
    }
}

impl<M: Machine> Machines<M> {
    /// The fresh machines of `plan`.
    fn new(Plan { shared, map }: Plan<M>) -> Self {
        let mut population = Machines {
            map,
            shared,
            halves: [Vec::new(), Vec::new()],
            split: false,
        };
        population.rewind();
        population
    }

    /// Move both halves of the machines out, each with a handle on the
    /// shared part and the numbering. The population holds no machine
    /// until [`Machines::restore_halves`] gives them back.
    ///
    /// Taking halves from split machines copies no machine and allocates
    /// nothing. The first take splits them: fresh machines, as a rewind
    /// leaves them, come out as fresh halves.
    pub fn take_halves(&mut self) -> [PopulationHalf<M>; 2] {
        if !self.split {
            // Free the whole vector before the halves are built, so the
            // split never holds more than P machines.
            self.split = true;
            self.halves[0] = Vec::new();
            self.rewind();
        }
        self.halves.each_mut().map(|machines| PopulationHalf {
            map: self.map.clone(),
            shared: self.shared.clone(),
            machines: std::mem::take(machines),
        })
    }

    /// Put back the halves [`Machines::take_halves`] moved out.
    pub fn restore_halves(&mut self, halves: [PopulationHalf<M>; 2]) {
        for (slot, half) in self.halves.iter_mut().zip(halves) {
            *slot = half.machines;
        }
    }

    /// Become [`Machines::new`] of `plan` in place: the machine a
    /// physical rank already has is rewound, those of ranks beyond the
    /// previous `P` are created, and machines beyond the new `P` are
    /// dropped.
    fn refill(&mut self, Plan { shared, map }: Plan<M>) {
        (self.map, self.shared) = (map, shared);
        self.rewind();
    }

    fn rewind(&mut self) {
        let p = self.map.p();
        let (map, shared, split) = (&self.map, &self.shared, self.split);
        for (half, machines) in self.halves.iter_mut().enumerate() {
            let (len, rank_of): (usize, fn(usize, usize) -> Rank) = match (split, half) {
                (true, _) => (half_len(p, half), rank_in_half),
                (false, 0) => (p as usize, |_, index| index as Rank),
                (false, _) => (0, |_, index| index as Rank),
            };
            machines.truncate(len);
            let kept = machines.len();
            let virtual_of = |index| map.virtual_of(rank_of(half, index));
            for (index, machine) in machines.iter_mut().enumerate() {
                machine.reset(virtual_of(index), shared);
            }
            machines.extend((kept..len).map(|index| M::new(virtual_of(index), shared)));
        }
    }

    /// `rank`'s machine.
    #[inline]
    fn machine(&self, rank: Rank) -> &M {
        match self.split {
            true => &self.halves[half_of(rank)][index_in_half(rank)],
            false => &self.halves[0][rank as usize],
        }
    }
}

/// `rank`'s machine among `halves`, laid out as `split` says. (The whole
/// layout indexes its one vector directly: a half index computed at run
/// time costs ≈ 6 % at P = 1024.)
#[inline]
fn machine_mut<M>(halves: &mut [Vec<M>; 2], split: bool, rank: Rank) -> &mut M {
    match split {
        true => &mut halves[half_of(rank)][index_in_half(rank)],
        false => &mut halves[0][rank as usize],
    }
}

impl<M: Machine> Population for Machines<M> {
    fn len(&self) -> usize {
        self.halves[0].len() + self.halves[1].len()
    }

    fn on_message(&mut self, rank: Rank, from: Rank, payload: Payload, now: Time) {
        let from = self.map.virtual_of(from);
        let machine = machine_mut(&mut self.halves, self.split, rank);
        machine.on_message(&self.shared, from, payload, now);
    }

    fn poll_send(&mut self, rank: Rank, now: Time) -> SendPoll {
        let machine = machine_mut(&mut self.halves, self.split, rank);
        let poll = machine.poll_send(&self.shared, now);
        self.map.outbound(poll)
    }

    fn colored_at(&self, rank: Rank) -> Option<Time> {
        self.machine(rank).colored_at()
    }

    fn colored_via(&self, rank: Rank) -> Option<ColoredVia> {
        self.machine(rank).colored_via()
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
    fn halves_are_alternating_blocks_of_64() {
        for p in [0u32, 1, 64, 65, 127, 128, 129, 200, 1000] {
            let mut seen = [0usize; 2];
            for r in 0..p {
                let (half, index) = (half_of(r), index_in_half(r));
                assert_eq!(half, (r as usize / 64) % 2, "P={p} r={r}");
                assert_eq!(index, seen[half], "indices count up in rank order");
                assert_eq!(rank_in_half(half, index), r);
                seen[half] += 1;
            }
            assert_eq!([half_len(p, 0), half_len(p, 1)], seen, "P={p}");
        }
    }

    #[test]
    fn halves_move_out_and_back_whole() {
        use crate::correction::CorrectionKind;
        use crate::protocol::{CorrectedTreeProcess, TreeBroadcast};
        use crate::tree::TreeKind;
        let tree = Arc::new(
            TreeKind::BINOMIAL
                .build(300, &ct_logp::LogP::PAPER)
                .unwrap(),
        );
        let shared = TreeBroadcast::new(tree, CorrectionKind::Checked, None);
        let map = Relabeling::rotation(300, 0);
        let mut population = Machines::<CorrectedTreeProcess>::new(Plan { shared, map });
        assert_eq!(population.halves[1].len(), 0, "whole until split");
        let mut halves = population.take_halves();
        assert_eq!(population.len(), 0);
        assert_eq!(
            halves.each_ref().map(|h| h.machines.len()),
            [simple(300, 0), simple(300, 1)]
        );
        // The root lies in half 0 at index 0 and sends to its first child.
        assert_eq!(
            halves[0].poll_send(0, Time::ZERO),
            SendPoll::Now {
                to: 1,
                payload: Payload::Tree
            }
        );
        population.restore_halves(halves);
        assert_eq!(population.len(), 300);
        assert_eq!(population.colored_via(0), Some(ColoredVia::Root));
        // Split for good: a refill to another P rewinds the halves.
        let tree = Arc::new(
            TreeKind::BINOMIAL
                .build(200, &ct_logp::LogP::PAPER)
                .unwrap(),
        );
        let shared = TreeBroadcast::new(tree, CorrectionKind::Checked, None);
        population.refill(Plan {
            shared,
            map: Relabeling::rotation(200, 0),
        });
        assert_eq!(
            population.halves.each_ref().map(Vec::len),
            [simple(200, 0), simple(200, 1)]
        );

        fn simple(p: u32, half: usize) -> usize {
            (0..p).filter(|&r| half_of(r) == half).count()
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
