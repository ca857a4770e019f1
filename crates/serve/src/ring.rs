//! The consistent-hash block router.
//!
//! Every replica contributes `vnodes` points to a 64-bit hash ring; a block
//! is owned by the replica of the first *alive* point clockwise from the
//! block's own hash. Because membership changes only add or remove one
//! replica's points, the owner of a block changes **only** when the point it
//! resolved to belonged to the departed replica (or when the arriving
//! replica's new points land between the block and its old owner) — every
//! other block keeps its owner. That minimal-remap property is what lets a
//! replica death move exactly the dead shard and nothing else.
//!
//! Liveness is expressed as an `alive` mask at lookup time rather than by
//! rebuilding the ring: a dead replica's points are skipped, so its blocks
//! fall to their ring successors while everyone else's mapping is untouched
//! by construction.

use streamline_field::block::BlockId;

/// SplitMix64: a cheap, well-mixed 64-bit finalizer. Deterministic across
/// runs and platforms, which keeps shard layouts stable in reports.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The ring: sorted virtual-node points, each tagged with its replica.
#[derive(Debug, Clone)]
pub struct Ring {
    replicas: usize,
    /// `(point_hash, replica)`, sorted by hash.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build a ring of `replicas` members with `vnodes` points each.
    pub fn new(replicas: usize, vnodes: usize) -> Self {
        let replicas = replicas.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(replicas * vnodes);
        for r in 0..replicas {
            for v in 0..vnodes {
                points.push((splitmix64(((r as u64) << 32) | v as u64), r));
            }
        }
        points.sort_unstable();
        Ring { replicas, points }
    }

    pub fn replicas(&self) -> usize {
        self.replicas
    }

    fn block_hash(block: BlockId) -> u64 {
        // Salted away from the vnode hash domain so block and point hashes
        // never collide structurally.
        splitmix64(u64::from(block.0) ^ 0x05ca_1ab1_e0dd_ba11_u64)
    }

    /// The replica owning `block`: the first alive point clockwise from the
    /// block's hash. `None` when no replica is alive.
    /// Allocation-free: the router calls this per seed and per hand-off.
    pub fn owner(&self, block: BlockId, alive: &[bool]) -> Option<usize> {
        let h = Self::block_hash(block);
        let (before, after) = self.points.split_at(self.points.partition_point(|&(p, _)| p < h));
        after
            .iter()
            .chain(before)
            .map(|&(_, r)| r)
            .find(|&r| alive.get(r).copied().unwrap_or(false))
    }

    /// The first `k` *distinct* alive replicas clockwise from `block`'s
    /// hash — the owner first, then the replicas a hot block replicates to.
    pub fn successors(&self, block: BlockId, alive: &[bool], k: usize) -> Vec<usize> {
        let h = Self::block_hash(block);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut out = Vec::with_capacity(k.min(self.replicas));
        let mut seen = vec![false; self.replicas];
        for i in 0..self.points.len() {
            let (_, r) = self.points[(start + i) % self.points.len()];
            if !seen[r] && alive.get(r).copied().unwrap_or(false) {
                seen[r] = true;
                out.push(r);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// All blocks of `n_blocks` owned by `replica` under `alive` — the
    /// replica's shard, used to build its warm-start bootstrap manifest.
    pub fn shard(&self, replica: usize, alive: &[bool], n_blocks: usize) -> Vec<BlockId> {
        (0..n_blocks)
            .map(|b| BlockId(b as u32))
            .filter(|&b| self.owner(b, alive) == Some(replica))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_alive(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn every_block_has_an_owner() {
        let ring = Ring::new(4, 64);
        let alive = all_alive(4);
        for b in 0..512 {
            let o = ring.owner(BlockId(b), &alive).expect("alive ring owns everything");
            assert!(o < 4);
        }
    }

    #[test]
    fn shards_partition_the_blocks() {
        let ring = Ring::new(3, 64);
        let alive = all_alive(3);
        let mut seen = vec![0usize; 64];
        for r in 0..3 {
            for b in ring.shard(r, &alive, 64) {
                seen[b.0 as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each block in exactly one shard");
    }

    #[test]
    fn successors_are_distinct_and_start_with_owner() {
        let ring = Ring::new(8, 64);
        let alive = all_alive(8);
        for b in 0..64 {
            let succ = ring.successors(BlockId(b), &alive, 3);
            assert_eq!(succ.len(), 3);
            assert_eq!(succ[0], ring.owner(BlockId(b), &alive).unwrap());
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "successors must be distinct replicas");
        }
    }

    #[test]
    fn dead_ring_owns_nothing() {
        let ring = Ring::new(2, 16);
        assert_eq!(ring.owner(BlockId(0), &[false, false]), None);
        assert!(ring.successors(BlockId(0), &[false, false], 2).is_empty());
    }

    proptest! {
        /// Removing one replica remaps only the departed shard: every block
        /// the dead replica did not own keeps its exact owner.
        #[test]
        fn removal_remaps_only_the_departed_shard(
            replicas in 2usize..9,
            vnodes in 1usize..65,
            dead in 0usize..9,
            n_blocks in 1usize..257,
        ) {
            let dead = dead % replicas;
            let ring = Ring::new(replicas, vnodes);
            let full = all_alive(replicas);
            let mut reduced = full.clone();
            reduced[dead] = false;
            for b in 0..n_blocks {
                let block = BlockId(b as u32);
                let before = ring.owner(block, &full).unwrap();
                let after = ring.owner(block, &reduced).unwrap();
                if before == dead {
                    prop_assert!(after != dead, "dead replica must lose its shard");
                } else {
                    prop_assert_eq!(after, before, "surviving shards must not move");
                }
            }
        }

        /// Growing the ring by one replica moves blocks only *to* the new
        /// replica — never between pre-existing replicas.
        #[test]
        fn addition_moves_blocks_only_to_the_newcomer(
            replicas in 1usize..8,
            vnodes in 1usize..65,
            n_blocks in 1usize..257,
        ) {
            let small = Ring::new(replicas, vnodes);
            let grown = Ring::new(replicas + 1, vnodes);
            let alive_small = all_alive(replicas);
            let alive_grown = all_alive(replicas + 1);
            for b in 0..n_blocks {
                let block = BlockId(b as u32);
                let before = small.owner(block, &alive_small).unwrap();
                let after = grown.owner(block, &alive_grown).unwrap();
                prop_assert!(
                    after == before || after == replicas,
                    "block {} moved between old replicas: {} -> {}", b, before, after
                );
            }
        }

        /// Death then recovery is exact: restoring the mask restores the map.
        #[test]
        fn recovery_restores_the_original_map(
            replicas in 2usize..9,
            vnodes in 1usize..33,
            dead in 0usize..9,
            n_blocks in 1usize..129,
        ) {
            let dead = dead % replicas;
            let ring = Ring::new(replicas, vnodes);
            let full = all_alive(replicas);
            let mut reduced = full.clone();
            reduced[dead] = false;
            for b in 0..n_blocks {
                let block = BlockId(b as u32);
                let _ = ring.owner(block, &reduced);
                prop_assert_eq!(
                    ring.owner(block, &full),
                    ring.owner(block, &all_alive(replicas))
                );
            }
        }
    }
}
