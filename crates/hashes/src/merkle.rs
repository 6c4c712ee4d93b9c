//! Bitcoin-style Merkle trees over transaction IDs.
//!
//! A Graphene receiver reconstructs the candidate transaction set, orders it
//! (CTOR or explicit ordering), computes the Merkle root, and compares it to
//! the root committed in the block header (paper §3.1 step 4 and §6.2). The
//! root is the final arbiter: probabilistic reconciliation may produce a
//! superset or miss transactions, and only an exact set/order match verifies.
//!
//! The construction follows Bitcoin: leaves are (double-SHA256) txids, each
//! internal node is `sha256d(left || right)`, and a level with an odd number
//! of nodes duplicates its last node.

use crate::sha256::{digest_words, sha256d_64, sha256d_64_x8, words_digest, Digest, SHA_LANES};

/// Compute the Merkle root of a list of txids.
///
/// Returns [`Digest::ZERO`] for an empty list (a real block always has at
/// least the coinbase transaction, so this case is a sentinel only).
pub fn merkle_root(txids: &[Digest]) -> Digest {
    match txids {
        [] => Digest::ZERO,
        [only] => *only,
        _ => {
            let mut level = next_level(txids);
            while level.len() > 1 {
                level = next_level(&level);
            }
            level[0]
        }
    }
}

/// Pairs at which a chunk goes through the lanes instead of the scalar
/// pair. One lane batch costs about 1.4 scalar pairs on an AVX-512 host,
/// so only a lone pair is cheaper alone.
const LANE_MIN_PAIRS: usize = 2;

/// The parent level of `level` (one node per pair; an odd level pairs its
/// last node with itself). Full chunks of [`SHA_LANES`] pairs go through
/// [`hash_pairs_x8`]; a ragged tail of at least [`LANE_MIN_PAIRS`] pairs
/// does too, its spare lanes repeating the last pair, and a shorter tail
/// takes [`hash_pair`].
fn next_level(level: &[Digest]) -> Vec<Digest> {
    let pairs = level.len().div_ceil(2);
    let left = |i: usize| &level[2 * i];
    // Odd level: Bitcoin duplicates the last hash.
    let right = |i: usize| level.get(2 * i + 1).unwrap_or(&level[2 * i]);
    let mut out = Vec::with_capacity(pairs);
    let mut i = 0;
    while i < pairs {
        let live = (pairs - i).min(SHA_LANES);
        if live >= LANE_MIN_PAIRS {
            let pick = |l: usize| i + l.min(live - 1);
            let roots = hash_pairs_x8(
                &core::array::from_fn(|l| *left(pick(l))),
                &core::array::from_fn(|l| *right(pick(l))),
            );
            out.extend_from_slice(&roots[..live]);
        } else {
            out.extend((i..i + live).map(|p| hash_pair(left(p), right(p))));
        }
        i += live;
    }
    out
}

/// One Merkle node: `sha256d(left ‖ right)`.
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut block = [0u32; 16];
    block[..8].copy_from_slice(&digest_words(left));
    block[8..].copy_from_slice(&digest_words(right));
    words_digest(&sha256d_64(&block))
}

/// [`SHA_LANES`] Merkle nodes at once: lane `l` of the result equals
/// [`hash_pair`]`(&left[l], &right[l])`, bit for bit — the lanes run the
/// same arithmetic interleaved.
pub fn hash_pairs_x8(
    left: &[Digest; SHA_LANES],
    right: &[Digest; SHA_LANES],
) -> [Digest; SHA_LANES] {
    let (lw, rw) = (left.map(|d| digest_words(&d)), right.map(|d| digest_words(&d)));
    let blocks = core::array::from_fn(|w| {
        core::array::from_fn(|l| if w < 8 { lw[l][w] } else { rw[l][w - 8] })
    });
    let roots = sha256d_64_x8(&blocks);
    core::array::from_fn(|l| words_digest(&core::array::from_fn(|w| roots[w][l])))
}

/// A full Merkle tree retaining every level, supporting inclusion proofs.
///
/// The experiment harness uses proofs to sanity-check partial decodings; a
/// production relay only needs [`merkle_root`].
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level has exactly one node,
    /// or none for a leafless tree.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: sibling hashes from leaf to root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hash at each level, leaf-side first.
    pub siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Build the tree from leaf txids. Empty input yields a leafless tree
    /// whose root is [`Digest::ZERO`], as [`merkle_root`] returns.
    pub fn new(txids: &[Digest]) -> Self {
        let mut levels = vec![txids.to_vec()];
        while levels.last().expect("non-empty").len() > 1 {
            let next = next_level(levels.last().expect("non-empty"));
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root hash.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("at least one level").first().copied().unwrap_or(Digest::ZERO)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True if the tree was built from an empty list.
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }

    /// Produce an inclusion proof for leaf `index`, or `None` if out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            // Odd level: the last node is its own sibling.
            let sibling = *level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push(sibling);
            idx /= 2;
        }
        Some(MerkleProof { index, siblings })
    }
}

impl MerkleProof {
    /// Verify that `leaf` is included under `root`.
    pub fn verify(&self, leaf: &Digest, root: &Digest) -> bool {
        let mut hash = *leaf;
        let mut idx = self.index;
        for sibling in &self.siblings {
            hash = if idx.is_multiple_of(2) {
                hash_pair(&hash, sibling)
            } else {
                hash_pair(sibling, &hash)
            };
            idx /= 2;
        }
        hash == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| sha256(&(i as u64).to_le_bytes())).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
    }

    #[test]
    fn empty_root_is_zero() {
        assert_eq!(merkle_root(&[]), Digest::ZERO);
        let tree = MerkleTree::new(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.root(), Digest::ZERO);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn zero_digest_leaf_is_not_empty() {
        // A leaf that happens to equal the empty-tree sentinel is a leaf.
        let tree = MerkleTree::new(&[Digest::ZERO]);
        assert!(!tree.is_empty());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.root(), Digest::ZERO);
        assert!(tree.prove(0).expect("one leaf").verify(&Digest::ZERO, &Digest::ZERO));
    }

    #[test]
    fn lanes_match_scalar_pairs() {
        let l = leaves(2 * SHA_LANES);
        let left: [Digest; SHA_LANES] = core::array::from_fn(|i| l[i]);
        let right: [Digest; SHA_LANES] = core::array::from_fn(|i| l[SHA_LANES + i]);
        let lanes = hash_pairs_x8(&left, &right);
        for i in 0..SHA_LANES {
            assert_eq!(lanes[i], hash_pair(&left[i], &right[i]), "lane {i}");
        }
    }

    #[test]
    fn two_leaves_hash_pair() {
        let l = leaves(2);
        assert_eq!(merkle_root(&l), hash_pair(&l[0], &l[1]));
    }

    #[test]
    fn odd_level_duplicates_last() {
        let l = leaves(3);
        let left = hash_pair(&l[0], &l[1]);
        let right = hash_pair(&l[2], &l[2]);
        assert_eq!(merkle_root(&l), hash_pair(&left, &right));
    }

    #[test]
    fn tree_matches_root_function() {
        for n in 1..35 {
            let l = leaves(n);
            assert_eq!(MerkleTree::new(&l).root(), merkle_root(&l), "n = {n}");
        }
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 33] {
            let l = leaves(n);
            let tree = MerkleTree::new(&l);
            let root = tree.root();
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                assert!(proof.verify(leaf, &root), "n = {n}, leaf {i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let l = leaves(8);
        let tree = MerkleTree::new(&l);
        let proof = tree.prove(3).expect("in range");
        assert!(!proof.verify(&l[4], &tree.root()));
        assert!(!proof.verify(&l[3], &sha256(b"not the root")));
    }

    #[test]
    fn prove_out_of_range_is_none() {
        let tree = MerkleTree::new(&leaves(4));
        assert!(tree.prove(4).is_none());
    }

    #[test]
    fn order_sensitivity() {
        // The root commits to order: swapping two txids changes it.
        let mut l = leaves(6);
        let before = merkle_root(&l);
        l.swap(0, 5);
        assert_ne!(merkle_root(&l), before);
    }
}
