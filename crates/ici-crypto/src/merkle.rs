//! Merkle trees with inclusion proofs.
//!
//! Blocks commit to their transaction set through a Merkle root; light
//! queries in the ICIStrategy query protocol are answered with an inclusion
//! proof so a node that only holds headers can still validate a transaction
//! it fetched from a peer.
//!
//! The tree follows the Bitcoin convention of hashing leaf data with
//! double-SHA256 but uses distinct leaf/node domain-separation prefixes to
//! rule out the classic CVE-2012-2459 duplicate-leaf ambiguity: leaves are
//! hashed as `H(0x00 || data)` and interior nodes as `H(0x01 || left || right)`.
//! An odd node at any level is promoted (not duplicated).
//!
//! Every hash here is laid out in the kernel's 64-byte blocks, never
//! streamed: a leaf is its payload written once after the prefix into a
//! [`Message`] ([`leaf_message`] for an encoder that writes it), an
//! interior node is a fixed two-block template with the children copied
//! in plus a one-block second pass (3 compressions), and
//! [`root_in_place`] reduces a leaf vector to the root without keeping
//! levels. [`MerkleTree`] keeps every level for proofs, and a proof is
//! checked against the path its index and leaf count imply.
//!
//! # Examples
//!
//! ```
//! use ici_crypto::merkle::MerkleTree;
//!
//! let items: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 8]).collect();
//! let tree = MerkleTree::from_leaves(items.iter().map(|v| v.as_slice()));
//! let proof = tree.prove(3).expect("index in range");
//! assert!(proof.verify(&items[3], tree.root()));
//! ```

use crate::sha256::{compress_blocks, count_digests, state_digest, Digest, Message, Sha256, H0};

const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// Hashes a leaf payload with domain separation.
pub fn hash_leaf(data: &[u8]) -> Digest {
    let mut message = leaf_message();
    message.put(data);
    hash_leaf_message(message)
}

/// A message opened with the leaf domain prefix, for callers that
/// write a leaf payload piece by piece (an encoder). Finish with
/// [`hash_leaf_message`]; the result equals [`hash_leaf`] over the
/// same payload bytes.
pub fn leaf_message() -> Message {
    let mut message = Message::new();
    message.put(&[LEAF_PREFIX]);
    message
}

/// The leaf hash of a [`leaf_message`] with its payload written.
pub fn hash_leaf_message(message: Message) -> Digest {
    Sha256::digest(message.digest().as_bytes())
}

/// An interior node's first pass, `0x01 ‖ left ‖ right` with its
/// padding: two blocks, the children still to be written at 1..65.
const NODE_TEMPLATE: [[u8; 64]; 2] = {
    let mut blocks = [[0u8; 64]; 2];
    blocks[0][0] = NODE_PREFIX;
    blocks[1][1] = 0x80;
    let bits = (65u64 * 8).to_be_bytes();
    let mut i = 0;
    while i < 8 {
        blocks[1][56 + i] = bits[i];
        i += 1;
    }
    blocks
};

/// Hashes an interior node from its two children: the children copied
/// into a fixed two-block template (prefix and padding already in
/// place), one kernel call, then the one-block second pass.
pub fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut blocks = NODE_TEMPLATE;
    let bytes = blocks.as_flattened_mut();
    bytes[1..33].copy_from_slice(left.as_bytes());
    bytes[33..65].copy_from_slice(right.as_bytes());
    let mut state = H0;
    compress_blocks(&mut state, &blocks);
    count_digests(1, 65, 2);
    Sha256::digest(state_digest(&state).as_bytes())
}

/// The root [`MerkleTree::from_leaf_hashes`] builds over `leaves`,
/// reduced in place: each level overwrites the front of the slice, so
/// no level is kept (and `leaves` holds interior digests after). For
/// callers that want the root and no proofs.
pub fn root_in_place(leaves: &mut [Digest]) -> Digest {
    let mut width = leaves.len();
    while width > 1 {
        let half = width / 2;
        for i in 0..half {
            leaves[i] = hash_node(&leaves[2 * i], &leaves[2 * i + 1]);
        }
        if width % 2 == 1 {
            // Promote the unpaired node to the next level.
            leaves[half] = leaves[width - 1];
        }
        width = width.div_ceil(2);
    }
    leaves.first().copied().unwrap_or(Digest::ZERO)
}

/// A fully materialised Merkle tree.
///
/// Stores every level so proofs can be generated in `O(log n)` without
/// re-hashing. The empty tree has the well-defined root
/// `hash_leaf(b"")`-of-nothing: we define it as [`Digest::ZERO`] so an empty
/// block is representable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level has exactly one digest
    /// (the root) unless the tree is empty.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree over pre-hashed leaves.
    pub fn from_leaf_hashes(leaves: Vec<Digest>) -> MerkleTree {
        let _span = ici_telemetry::span!("crypto/merkle_build");
        ici_telemetry::observe(
            "crypto/merkle_leaves",
            ici_telemetry::Label::Global,
            leaves.len() as u64,
        );
        if leaves.is_empty() {
            return MerkleTree { levels: Vec::new() };
        }
        let mut levels = vec![leaves];
        loop {
            let next = match levels.last() {
                Some(prev) if prev.len() > 1 => MerkleTree::next_level(prev),
                _ => break,
            };
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Hashes one level into the next.
    fn next_level(prev: &[Digest]) -> Vec<Digest> {
        let mut next = Vec::with_capacity(prev.len().div_ceil(2));
        let mut pairs = prev.chunks_exact(2);
        for pair in &mut pairs {
            next.push(hash_node(&pair[0], &pair[1]));
        }
        if let [odd] = pairs.remainder() {
            // Promote the unpaired node to the next level.
            next.push(*odd);
        }
        next
    }

    /// Builds a tree by hashing raw leaf payloads.
    pub fn from_leaves<'a, I>(leaves: I) -> MerkleTree
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        MerkleTree::from_leaf_hashes(leaves.into_iter().map(hash_leaf).collect())
    }

    /// [`MerkleTree::from_leaves`] over owned leaf payloads.
    pub fn from_owned_leaves(leaves: Vec<Vec<u8>>) -> MerkleTree {
        MerkleTree::from_leaves(leaves.iter().map(Vec::as_slice))
    }

    /// The root commitment. [`Digest::ZERO`] for an empty tree.
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Digest::ZERO)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces an inclusion proof for the leaf at `index`.
    ///
    /// Returns `None` if `index` is out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        ici_telemetry::counter_add("crypto/merkle_proofs", ici_telemetry::Label::Global, 1);
        let mut siblings = Vec::new();
        let mut pos = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_pos = pos ^ 1;
            if sibling_pos < level.len() {
                let side = if pos % 2 == 0 {
                    Side::Right
                } else {
                    Side::Left
                };
                siblings.push(ProofStep {
                    digest: level[sibling_pos],
                    side,
                });
            }
            // If no sibling, the node was promoted unchanged.
            pos /= 2;
        }
        Some(MerkleProof {
            leaf_index: index as u64,
            leaf_count: self.len() as u64,
            siblings,
        })
    }
}

impl<'a> FromIterator<&'a [u8]> for MerkleTree {
    fn from_iter<I: IntoIterator<Item = &'a [u8]>>(iter: I) -> MerkleTree {
        MerkleTree::from_leaves(iter)
    }
}

/// Which side a proof sibling sits on relative to the path node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// Sibling is the left child; path node is the right.
    Left,
    /// Sibling is the right child; path node is the left.
    Right,
}

/// One level of a Merkle proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling digest to combine with.
    pub digest: Digest,
    /// Side the sibling occupies.
    pub side: Side,
}

/// An inclusion proof binding a leaf payload to a Merkle root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    leaf_index: u64,
    leaf_count: u64,
    siblings: Vec<ProofStep>,
}

impl MerkleProof {
    /// Index of the proven leaf.
    pub fn leaf_index(&self) -> u64 {
        self.leaf_index
    }

    /// Total number of leaves in the tree the proof was taken from.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// The sibling path, leaf level first.
    pub fn siblings(&self) -> &[ProofStep] {
        &self.siblings
    }

    /// Serialized size in bytes, used by the communication metering:
    /// 8-byte index + 8-byte count + 33 bytes per step (digest + side).
    pub fn encoded_len(&self) -> usize {
        16 + self.siblings.len() * 33
    }

    /// Verifies that `payload` is the leaf this proof commits to under
    /// `root`.
    pub fn verify(&self, payload: &[u8], root: Digest) -> bool {
        self.verify_leaf_hash(hash_leaf(payload), root)
    }

    /// Verifies a pre-hashed leaf against `root`.
    ///
    /// The path must be the one `leaf_index` has in a tree of
    /// `leaf_count` leaves: a sibling exactly at the levels where that
    /// position has one (none where it is promoted), on the side its
    /// parity says, and no step more. A path relabelled to another
    /// index, or with a step dropped or added, is rejected.
    pub fn verify_leaf_hash(&self, leaf: Digest, root: Digest) -> bool {
        ici_telemetry::counter_add("crypto/merkle_verifies", ici_telemetry::Label::Global, 1);
        if self.leaf_index >= self.leaf_count {
            return false;
        }
        let mut steps = self.siblings.iter();
        let (mut pos, mut width) = (self.leaf_index, self.leaf_count);
        let mut acc = leaf;
        while width > 1 {
            if pos ^ 1 < width {
                let side = if pos % 2 == 0 {
                    Side::Right
                } else {
                    Side::Left
                };
                let Some(step) = steps.next().filter(|step| step.side == side) else {
                    return false;
                };
                acc = match side {
                    Side::Left => hash_node(&step.digest, &acc),
                    Side::Right => hash_node(&acc, &step.digest),
                };
            }
            pos /= 2;
            width = width.div_ceil(2);
        }
        steps.next().is_none() && acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let tree = MerkleTree::from_leaves(std::iter::empty());
        assert!(tree.is_empty());
        assert_eq!(tree.root(), Digest::ZERO);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves([b"only".as_slice()]);
        assert_eq!(tree.root(), hash_leaf(b"only"));
        let proof = tree.prove(0).expect("index 0");
        assert!(proof.siblings().is_empty());
        assert!(proof.verify(b"only", tree.root()));
    }

    #[test]
    fn two_leaf_root_structure() {
        let tree = MerkleTree::from_leaves([b"a".as_slice(), b"b".as_slice()]);
        assert_eq!(tree.root(), hash_node(&hash_leaf(b"a"), &hash_leaf(b"b")));
    }

    #[test]
    fn proofs_verify_for_all_sizes_and_indices() {
        for n in 1..=33 {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
            for (i, item) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap_or_else(|| panic!("prove {i}/{n}"));
                assert!(proof.verify(item, tree.root()), "n={n} i={i}");
                assert_eq!(proof.leaf_index(), i as u64);
                assert_eq!(proof.leaf_count(), n as u64);
            }
        }
    }

    /// The in-place reduction is the tree's root, for every size
    /// through 33 leaves (each odd-width promotion pattern) and for
    /// 1 000, on every kernel.
    #[test]
    fn root_in_place_equals_the_tree_root() {
        crate::sha256::under_every_kernel(|kernel| {
            for n in (0..=33).chain([1_000]) {
                let hashes: Vec<Digest> = leaves(n).iter().map(|v| hash_leaf(v)).collect();
                let tree = MerkleTree::from_leaf_hashes(hashes.clone());
                let mut scratch = hashes;
                assert_eq!(
                    root_in_place(&mut scratch),
                    tree.root(),
                    "kernel {kernel}, n={n}"
                );
            }
        });
    }

    /// A proof is bound to its index: index `i`'s path fails under
    /// every other index (in range or not), with any step dropped, with
    /// a step added, and under a leaf count that shapes its path
    /// differently. Relabelling covers the promoted levels: in a 5-leaf
    /// tree leaf 4 rises unpaired twice, so its one-step path would
    /// otherwise pass for leaf 0, 1, 2 or 3.
    #[test]
    fn proof_path_is_bound_to_its_index() {
        for n in 1..=33usize {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
            let root = tree.root();
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                for j in (0..n as u64 + 2).filter(|&j| j != i as u64) {
                    let relabelled = MerkleProof {
                        leaf_index: j,
                        ..proof.clone()
                    };
                    assert!(!relabelled.verify(leaf, root), "n={n} i={i} as {j}");
                }
                for drop in 0..proof.siblings.len() {
                    let mut truncated = proof.clone();
                    truncated.siblings.remove(drop);
                    assert!(!truncated.verify(leaf, root), "n={n} i={i} drop {drop}");
                }
                for side in [Side::Left, Side::Right] {
                    let mut padded = proof.clone();
                    padded.siblings.push(ProofStep { digest: root, side });
                    assert!(!padded.verify(leaf, root), "n={n} i={i} padded");
                }
                // The root does not commit to the count, so a count whose
                // tree gives leaf `i` the same sides is indistinguishable.
                let sides = |p: &MerkleProof| p.siblings.iter().map(|s| s.side).collect::<Vec<_>>();
                let recounted = MerkleProof {
                    leaf_count: n as u64 + 1,
                    ..proof.clone()
                };
                if sides(&proof) != sides(&tree_of(n + 1).prove(i).expect("in range")) {
                    assert!(!recounted.verify(leaf, root), "n={n} i={i} recounted");
                }
            }
        }
    }

    /// A tree over `n` leaves, for the sibling layout a count implies.
    fn tree_of(n: usize) -> MerkleTree {
        let data = leaves(n);
        MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()))
    }

    #[test]
    fn proof_rejects_wrong_payload_and_wrong_root() {
        let data = leaves(7);
        let tree = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
        let proof = tree.prove(2).expect("in range");
        assert!(!proof.verify(b"not the leaf", tree.root()));
        assert!(!proof.verify(&data[2], Digest::ZERO));
        // A proof for index 2 must not verify some other leaf's payload.
        assert!(!proof.verify(&data[3], tree.root()));
    }

    #[test]
    fn tamper_with_sibling_breaks_proof() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
        let mut proof = tree.prove(5).expect("in range");
        let mut bytes = proof.siblings[1].digest.into_bytes();
        bytes[4] ^= 0xff;
        proof.siblings[1].digest = Digest::from_bytes(bytes);
        assert!(!proof.verify(&data[5], tree.root()));
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A 64-byte "payload" equal to two concatenated digests must not
        // collide with the interior-node hash of those digests.
        let l = hash_leaf(b"x");
        let r = hash_leaf(b"y");
        let mut concat = Vec::new();
        concat.extend_from_slice(l.as_bytes());
        concat.extend_from_slice(r.as_bytes());
        assert_ne!(hash_leaf(&concat), hash_node(&l, &r));
    }

    #[test]
    fn odd_leaf_promotion_is_unambiguous() {
        // Trees over [a, b, c] and [a, b, c, c] must differ (no CVE-2012-2459
        // style duplication).
        let t3 = MerkleTree::from_leaves([b"a".as_slice(), b"b", b"c"]);
        let t4 = MerkleTree::from_leaves([b"a".as_slice(), b"b", b"c", b"c"]);
        assert_ne!(t3.root(), t4.root());
    }

    #[test]
    fn root_changes_with_any_leaf_change() {
        let data = leaves(10);
        let base = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
        for i in 0..data.len() {
            let mut mutated = data.clone();
            mutated[i].push(b'!');
            let tree = MerkleTree::from_leaves(mutated.iter().map(|v| v.as_slice()));
            assert_ne!(tree.root(), base.root(), "leaf {i}");
        }
    }

    #[test]
    fn order_matters() {
        let forward = MerkleTree::from_leaves([b"a".as_slice(), b"b"]);
        let reversed = MerkleTree::from_leaves([b"b".as_slice(), b"a"]);
        assert_ne!(forward.root(), reversed.root());
    }

    #[test]
    fn owned_and_borrowed_builders_agree() {
        let data = leaves(33);
        let borrowed = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
        assert_eq!(MerkleTree::from_owned_leaves(data), borrowed);
    }

    #[test]
    fn encoded_len_matches_structure() {
        let data = leaves(16);
        let tree = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
        let proof = tree.prove(0).expect("in range");
        assert_eq!(proof.siblings().len(), 4);
        assert_eq!(proof.encoded_len(), 16 + 4 * 33);
    }
}
