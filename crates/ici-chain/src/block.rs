//! Blocks and block headers.
//!
//! A header commits to the parent block, the transaction Merkle root, the
//! post-state root, and the proposer. ICIStrategy nodes that are not
//! responsible for a block's body keep only the header (88 bytes of payload
//! + roots), which is what makes intra-cluster storage sharing cheap — the
//! header chain alone suffices to verify any body or Merkle proof fetched
//! later.

use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

use ici_crypto::merkle::{self, MerkleProof, MerkleTree, SUBTREE_LEAVES};
use ici_crypto::sha256::Digest;

use crate::codec::{CodecError, Decode, Encode, Reader, Writer};
use crate::hashing;
use crate::transaction::Transaction;

/// A block identifier: the double-SHA-256 of the header encoding.
pub type BlockId = Digest;

/// Block height (genesis is height 0).
pub type Height = u64;

/// The fixed-size block header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Height in the chain; genesis is 0.
    pub height: Height,
    /// Id of the parent block header ([`Digest::ZERO`] for genesis).
    pub parent: BlockId,
    /// Merkle root over the block's transactions.
    pub tx_root: Digest,
    /// Commitment to the world state after applying this block.
    pub state_root: Digest,
    /// Proposal time, milliseconds of simulated time.
    pub timestamp_ms: u64,
    /// Node id of the proposer.
    pub proposer: u64,
    /// Proof-of-work nonce (unused, zero, under BFT-style commit).
    pub pow_nonce: u64,
    /// Number of transactions in the body.
    pub tx_count: u32,
    /// Encoded length of the body in bytes, so header-only nodes can account
    /// for storage and plan fetches without the body in hand.
    pub body_len: u32,
}

impl BlockHeader {
    /// Encoded size of a header in bytes.
    pub const ENCODED_LEN: usize = 8 + 32 + 32 + 32 + 8 + 8 + 8 + 4 + 4;

    /// The header id (double-SHA-256 of the encoding), the encoding
    /// written once into a hash message — no intermediate buffer.
    pub fn id(&self) -> BlockId {
        hashing::double_sha256_encodable(self)
    }

    /// Bytes a node storing this block keeps: the header plus the body
    /// it commits to.
    pub fn stored_len(&self) -> u64 {
        BlockHeader::ENCODED_LEN as u64 + u64::from(self.body_len)
    }
}

impl Encode for BlockHeader {
    fn encode(&self, w: &mut Writer) {
        self.height.encode(w);
        self.parent.encode(w);
        self.tx_root.encode(w);
        self.state_root.encode(w);
        self.timestamp_ms.encode(w);
        self.proposer.encode(w);
        self.pow_nonce.encode(w);
        self.tx_count.encode(w);
        self.body_len.encode(w);
    }

    fn encoded_len(&self) -> usize {
        BlockHeader::ENCODED_LEN
    }
}

impl Decode for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BlockHeader {
            height: u64::decode(r)?,
            parent: Digest::decode(r)?,
            tx_root: Digest::decode(r)?,
            state_root: Digest::decode(r)?,
            timestamp_ms: u64::decode(r)?,
            proposer: u64::decode(r)?,
            pow_nonce: u64::decode(r)?,
            tx_count: u32::decode(r)?,
            body_len: u32::decode(r)?,
        })
    }
}

/// A full block: header plus transaction body.
///
/// The body lives behind one `Arc` so chain reads, PBFT dissemination,
/// and storage assignment share one allocation instead of cloning;
/// cloning a `Block` is a reference-count bump. The body keeps the
/// builder's `Vec` as it was handed over (no copy), and beside it the
/// roots of the Merkle tree's aligned 8-leaf subtrees, which the root
/// computation passes through anyway, so a proof re-hashes one subtree
/// ([`Block::prove_tx`]). The block id is computed once on first use
/// and cached (construction-only immutability: no method mutates the
/// header after assembly).
#[derive(Clone)]
pub struct Block {
    header: BlockHeader,
    body: Arc<Body>,
    /// Lazily computed header id. Cloning carries the cache along;
    /// deliberately excluded from `PartialEq` (it is derived state).
    id_cache: OnceLock<BlockId>,
}

/// What a block's `Arc` shares: the transactions and what the header's
/// `tx_root` was reduced through.
struct Body {
    transactions: Vec<Transaction>,
    /// [`merkle::root_and_subtrees`]' subtree roots: `⌈n/8⌉` digests,
    /// none for a body of at most 8 transactions (the root is in the
    /// header). Derived state, so not part of `PartialEq`.
    subtree_roots: Vec<Digest>,
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        self.header == other.header && self.body.transactions == other.body.transactions
    }
}

impl Eq for Block {}

impl Block {
    /// Assembles a block, computing `tx_root`, `tx_count`, and `body_len`
    /// from `transactions`; the remaining header fields are taken from
    /// `template`.
    pub fn new(template: BlockHeader, transactions: Vec<Transaction>) -> Block {
        let mut header = template;
        let (tx_root, subtree_roots) = Block::tx_roots(&transactions);
        header.tx_root = tx_root;
        // lint:allow(cast) -- tx counts are bounded by block building
        // (mempool batch sizes) far below u32::MAX
        header.tx_count = transactions.len() as u32;
        header.body_len = Block::encoded_body_len(&transactions);
        Block::assemble(header, transactions, subtree_roots)
    }

    /// Reassembles a block from parts already known to be consistent
    /// (e.g. after decoding); validates the Merkle root and counts.
    ///
    /// # Errors
    ///
    /// Returns the mismatching field name if the header does not commit to
    /// the body.
    pub fn from_parts(
        header: BlockHeader,
        transactions: Vec<Transaction>,
    ) -> Result<Block, BlockIntegrityError> {
        // lint:allow(cast) -- u32 → usize widens on every supported platform
        if header.tx_count as usize != transactions.len() {
            return Err(BlockIntegrityError::TxCount {
                header: header.tx_count,
                // lint:allow(cast) -- reporting only; a count that large
                // already failed the equality check above
                body: transactions.len() as u32,
            });
        }
        let (root, subtree_roots) = Block::tx_roots(&transactions);
        if header.tx_root != root {
            return Err(BlockIntegrityError::TxRoot);
        }
        let body_len = Block::encoded_body_len(&transactions);
        if header.body_len != body_len {
            return Err(BlockIntegrityError::BodyLen {
                header: header.body_len,
                body: body_len,
            });
        }
        Ok(Block::assemble(header, transactions, subtree_roots))
    }

    fn assemble(
        header: BlockHeader,
        transactions: Vec<Transaction>,
        subtree_roots: Vec<Digest>,
    ) -> Block {
        Block {
            header,
            body: Arc::new(Body {
                transactions,
                subtree_roots,
            }),
            id_cache: OnceLock::new(),
        }
    }

    fn encoded_body_len(transactions: &[Transaction]) -> u32 {
        transactions
            .iter()
            .map(|tx| tx.encoded_len())
            // lint:allow(cast) -- body bytes are bounded by MAX_FIELD_LEN
            // per field and per-block batch limits
            .sum::<usize>() as u32
    }

    /// The Merkle root over `transactions` and the roots of its aligned
    /// 8-leaf subtrees, in one reduction.
    fn tx_roots(transactions: &[Transaction]) -> (Digest, Vec<Digest>) {
        merkle::root_and_subtrees(&mut Block::tx_leaf_hashes(transactions))
    }

    /// Computes the Merkle root over transaction encodings: one leaf
    /// hash a transaction, then the levels reduced in place (no tree
    /// kept; [`Block::tx_tree`] builds one for proofs).
    pub fn compute_tx_root(transactions: &[Transaction]) -> Digest {
        merkle::root_in_place(&mut Block::tx_leaf_hashes(transactions))
    }

    /// Builds the Merkle tree over this block's transactions, re-deriving
    /// every leaf from the body: what an integrity audit certifies.
    /// Serving a proof needs only [`Block::prove_tx`].
    pub fn tx_tree(&self) -> MerkleTree {
        MerkleTree::from_leaf_hashes(Block::tx_leaf_hashes(&self.body.transactions))
    }

    /// The inclusion proof of transaction `index`, equal to
    /// `tx_tree().prove(index)`: hashes the at most 8 leaves of the
    /// aligned subtree holding it and the nodes above the kept subtree
    /// roots, not the whole tree. `None` past the body.
    pub fn prove_tx(&self, index: usize) -> Option<MerkleProof> {
        let transactions = &self.body.transactions;
        let start = index - index % SUBTREE_LEAVES;
        let run = transactions.get(start..transactions.len().min(start + SUBTREE_LEAVES))?;
        let mut leaves = [Digest::ZERO; SUBTREE_LEAVES];
        for (leaf, tx) in leaves.iter_mut().zip(run) {
            *leaf = tx.leaf_hash();
        }
        merkle::prove_from_subtrees(
            &leaves[..run.len()],
            &self.body.subtree_roots,
            index,
            transactions.len(),
        )
    }

    /// Every transaction's leaf, hashed as one batch
    /// ([`Transaction::leaf_hashes`]).
    fn tx_leaf_hashes(transactions: &[Transaction]) -> Vec<Digest> {
        let mut leaves = vec![Digest::ZERO; transactions.len()];
        Transaction::leaf_hashes(transactions, &mut leaves);
        leaves
    }

    /// The block header.
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// The block id (== header id), computed once and cached.
    pub fn id(&self) -> BlockId {
        *self.id_cache.get_or_init(|| self.header.id())
    }

    /// Height shortcut.
    pub fn height(&self) -> Height {
        self.header.height
    }

    /// The transaction body.
    pub fn transactions(&self) -> &[Transaction] {
        &self.body.transactions
    }

    /// Consumes the block, returning header and body. Callers that only
    /// read should prefer [`Block::transactions`]; the body moves out
    /// when this block is its only holder and is copied when it is still
    /// shared (it is the mutation escape hatch).
    pub fn into_parts(self) -> (BlockHeader, Vec<Transaction>) {
        let transactions = match Arc::try_unwrap(self.body) {
            Ok(body) => body.transactions,
            Err(shared) => shared.transactions.clone(),
        };
        (self.header, transactions)
    }

    /// Encoded size of the body alone (what a responsible node stores on
    /// top of the header).
    pub fn body_len(&self) -> usize {
        // lint:allow(cast) -- u32 → usize widens on every supported platform
        self.header.body_len as usize
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("height", &self.header.height)
            .field("id", &self.id())
            .field("txs", &self.body.transactions.len())
            .finish()
    }
}

impl Encode for Block {
    fn encode(&self, w: &mut Writer) {
        self.header.encode(w);
        self.body.transactions.encode(w);
    }

    fn encoded_len(&self) -> usize {
        // lint:allow(cast) -- u32 → usize widens on every supported platform
        BlockHeader::ENCODED_LEN + 4 + self.header.body_len as usize
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let header = BlockHeader::decode(r)?;
        let transactions = Vec::<Transaction>::decode(r)?;
        // Re-validate the commitments so a decoded block is always
        // internally consistent.
        Block::from_parts(header, transactions).map_err(|_| CodecError::InvalidTag(0xFB))
    }
}

/// A block whose header does not commit to its body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockIntegrityError {
    /// `tx_count` disagrees with the body length.
    TxCount {
        /// Count claimed by the header.
        header: u32,
        /// Actual number of body transactions.
        body: u32,
    },
    /// The Merkle root does not match the body.
    TxRoot,
    /// `body_len` disagrees with the encoded body.
    BodyLen {
        /// Length claimed by the header.
        header: u32,
        /// Actual encoded body length.
        body: u32,
    },
}

impl fmt::Display for BlockIntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockIntegrityError::TxCount { header, body } => {
                write!(f, "header claims {header} transactions, body has {body}")
            }
            BlockIntegrityError::TxRoot => f.write_str("merkle root does not match body"),
            BlockIntegrityError::BodyLen { header, body } => {
                write!(f, "header claims body of {header} bytes, body is {body}")
            }
        }
    }
}

impl std::error::Error for BlockIntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Address;
    use ici_crypto::merkle::hash_leaf;
    use ici_crypto::sig::Keypair;

    fn txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::signed(
                    &Keypair::from_seed(i),
                    Address::from_seed(i + 100),
                    10 + i,
                    1,
                    0,
                    vec![0u8; 8],
                )
            })
            .collect()
    }

    fn template(height: u64, parent: BlockId) -> BlockHeader {
        BlockHeader {
            height,
            parent,
            tx_root: Digest::ZERO,
            state_root: Digest::ZERO,
            timestamp_ms: 1_000,
            proposer: 1,
            pow_nonce: 0,
            tx_count: 0,
            body_len: 0,
        }
    }

    #[test]
    fn new_fills_commitments() {
        let body = txs(3);
        let expected_len: usize = body.iter().map(|t| t.encoded_len()).sum();
        let block = Block::new(template(1, Digest::ZERO), body.clone());
        assert_eq!(block.header().tx_count, 3);
        assert_eq!(block.header().body_len as usize, expected_len);
        assert_eq!(block.header().tx_root, Block::compute_tx_root(&body));
    }

    /// The in-place root is the root of the proof tree over the
    /// materialized encodings, for every body size through 33 and for
    /// 1 000 transactions of an `ici_bigblock` size.
    #[test]
    fn tx_root_equals_the_tree_over_encoded_leaves() {
        let reference = |body: &[Transaction]| {
            let leaves = body.iter().map(|tx| hash_leaf(&tx.to_bytes())).collect();
            MerkleTree::from_leaf_hashes(leaves).root()
        };
        let big: Vec<Transaction> = (0..1_000u64)
            .map(|i| {
                let pair = Keypair::from_seed(i % 64);
                Transaction::signed(&pair, Address::from_seed(i), 10, 1, i, vec![0xAB; 200])
            })
            .collect();
        for n in 0..=33 {
            let body = &big[..n];
            assert_eq!(Block::compute_tx_root(body), reference(body), "n={n}");
        }
        assert_eq!(Block::compute_tx_root(&big), reference(&big));
        assert_eq!(big[0].encoded_len(), 345);
        let block = Block::new(template(1, Digest::ZERO), big.clone());
        assert_eq!(block.tx_tree().root(), reference(&big));
    }

    #[test]
    fn header_encoding_is_fixed_size_and_round_trips() {
        let block = Block::new(template(2, Digest::ZERO), txs(2));
        let header = *block.header();
        let bytes = header.to_bytes();
        assert_eq!(bytes.len(), BlockHeader::ENCODED_LEN);
        assert_eq!(BlockHeader::from_bytes(&bytes).unwrap(), header);
    }

    #[test]
    fn block_encoding_round_trips() {
        let block = Block::new(template(1, Digest::ZERO), txs(5));
        let bytes = block.to_bytes();
        assert_eq!(bytes.len(), block.encoded_len());
        let decoded = Block::from_bytes(&bytes).expect("valid block");
        assert_eq!(decoded, block);
        assert_eq!(decoded.id(), block.id());
    }

    #[test]
    fn decode_rejects_body_tampering() {
        let block = Block::new(template(1, Digest::ZERO), txs(2));
        let mut bytes = block.to_bytes();
        // Flip a byte inside the body region (after the header).
        let idx = BlockHeader::ENCODED_LEN + 10;
        bytes[idx] ^= 0xFF;
        assert!(Block::from_bytes(&bytes).is_err());
    }

    #[test]
    fn from_parts_validates_commitments() {
        let block = Block::new(template(1, Digest::ZERO), txs(2));
        let (header, body) = block.into_parts();

        let mut short = body.clone();
        short.pop();
        assert!(matches!(
            Block::from_parts(header, short),
            Err(BlockIntegrityError::TxCount { .. })
        ));

        let mut wrong_root = header;
        wrong_root.tx_root = Digest::ZERO;
        assert_eq!(
            Block::from_parts(wrong_root, body.clone()),
            Err(BlockIntegrityError::TxRoot)
        );

        assert!(Block::from_parts(header, body).is_ok());
    }

    #[test]
    fn id_changes_with_any_header_field() {
        let base = Block::new(template(1, Digest::ZERO), txs(1));
        let base_id = base.id();

        let mut h = *base.header();
        h.height += 1;
        assert_ne!(h.id(), base_id);

        let mut h = *base.header();
        h.timestamp_ms += 1;
        assert_ne!(h.id(), base_id);

        let mut h = *base.header();
        h.proposer += 1;
        assert_ne!(h.id(), base_id);
    }

    #[test]
    fn empty_block_is_representable() {
        let block = Block::new(template(0, Digest::ZERO), Vec::new());
        assert_eq!(block.header().tx_count, 0);
        assert_eq!(block.header().tx_root, Digest::ZERO);
        assert_eq!(Block::from_bytes(&block.to_bytes()).unwrap(), block);
    }

    /// `into_parts` hands the builder's own body back when the block is
    /// its only holder, and a copy while a clone still shares it.
    #[test]
    fn into_parts_moves_an_unshared_body() {
        let body = txs(3);
        let at = body.as_ptr();
        let block = Block::new(template(1, Digest::ZERO), body);
        let shared = block.clone();
        let (_, copied) = block.into_parts();
        assert_ne!(copied.as_ptr(), at);
        let (_, moved) = shared.into_parts();
        assert_eq!(moved.as_ptr(), at);
        assert_eq!(moved, copied);
    }

    #[test]
    fn tx_tree_proofs_verify_against_header_root() {
        let block = Block::new(template(3, Digest::ZERO), txs(6));
        let tree = block.tx_tree();
        assert_eq!(tree.root(), block.header().tx_root);
        for (i, tx) in block.transactions().iter().enumerate() {
            let proof = tree.prove(i).expect("index in range");
            assert!(proof.verify(&tx.to_bytes(), block.header().tx_root));
        }
    }
}
