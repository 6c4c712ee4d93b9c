//! Blocks, headers and transaction ordering.

use crate::tx::{Transaction, TxId};
use graphene_hashes::{merkle_root, sha256d, Digest};

/// An 80-byte Bitcoin-style block header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Protocol version.
    pub version: i32,
    /// ID of the previous block.
    pub prev_block: Digest,
    /// Merkle root over the block's transaction IDs, in block order.
    pub merkle_root: Digest,
    /// Unix timestamp.
    pub time: u32,
    /// Compact difficulty target.
    pub bits: u32,
    /// Proof-of-work nonce.
    pub nonce: u32,
}

/// How the transactions inside a block are ordered (paper §6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OrderingScheme {
    /// Canonical Transaction Ordering: sorted by txid. Deployed by Bitcoin
    /// Cash in fall 2018; eliminates the `n·log2(n)`-bit ordering cost.
    #[default]
    Ctor,
    /// Arbitrary (miner-chosen) order: relaying requires shipping an
    /// explicit permutation of `n·log2(n)` bits on top of Graphene.
    MinerChosen,
}

impl OrderingScheme {
    /// Extra bytes Graphene must transmit to convey the order of `n`
    /// transactions under this scheme: `⌈n·log2(n)⌉` bits for miner-chosen
    /// order, zero for CTOR.
    pub fn encoding_bytes(self, n: usize) -> usize {
        match self {
            OrderingScheme::Ctor => 0,
            OrderingScheme::MinerChosen => {
                if n <= 1 {
                    0
                } else {
                    ((n as f64) * (n as f64).log2() / 8.0).ceil() as usize
                }
            }
        }
    }
}

/// Errors from block construction/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The transactions do not hash to the header's Merkle root.
    MerkleMismatch {
        /// Root committed in the header.
        expected: Digest,
        /// Root computed over the supplied transactions.
        computed: Digest,
    },
    /// CTOR block whose transactions are not in canonical order.
    NotCanonicalOrder,
    /// The transactions are not the ids a Merkle check accepted.
    IdsMismatch,
}

impl core::fmt::Display for BlockError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BlockError::MerkleMismatch { expected, computed } => {
                write!(f, "merkle mismatch: header {expected} vs computed {computed}")
            }
            BlockError::NotCanonicalOrder => write!(f, "transactions violate CTOR"),
            BlockError::IdsMismatch => write!(f, "transactions differ from the checked ids"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Transaction ids, in block order, that hash to a Merkle root.
///
/// Only [`CheckedIds::verify`] builds one, so holding a `CheckedIds` is
/// proof that the Merkle check ran and passed. A receiver checks its
/// reconstruction once and hands the token to [`Block::from_checked`],
/// which then needs only an O(n) id comparison, not a second root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckedIds {
    root: Digest,
    ids: Vec<TxId>,
}

impl CheckedIds {
    /// The Merkle check: accept `ids` if, in this order, they hash to
    /// `root`. Every block-validation path runs through here.
    pub fn verify(ids: Vec<TxId>, root: Digest) -> Result<CheckedIds, BlockError> {
        let computed = merkle_root(&ids);
        if computed != root {
            return Err(BlockError::MerkleMismatch { expected: root, computed });
        }
        Ok(CheckedIds { root, ids })
    }

    /// The checked ids, in block order.
    pub fn ids(&self) -> &[TxId] {
        &self.ids
    }

    /// Give up the token for its ids.
    pub fn into_ids(self) -> Vec<TxId> {
        self.ids
    }
}

/// A block: header plus ordered transactions.
#[derive(Clone, Debug)]
pub struct Block {
    header: Header,
    /// `header.id()`, derived once at construction.
    id: Digest,
    txns: Vec<Transaction>,
    ordering: OrderingScheme,
}

impl Block {
    /// Assemble a block from transactions, ordering them per `ordering` and
    /// committing the Merkle root into the header.
    pub fn assemble(
        prev_block: Digest,
        time: u32,
        mut txns: Vec<Transaction>,
        ordering: OrderingScheme,
    ) -> Block {
        if ordering == OrderingScheme::Ctor {
            txns.sort_by(|a, b| a.id().cmp(b.id()));
        }
        let ids: Vec<TxId> = txns.iter().map(|t| *t.id()).collect();
        let header = Header {
            version: 2,
            prev_block,
            merkle_root: merkle_root(&ids),
            time,
            bits: 0x1d00_ffff,
            nonce: 0,
        };
        Block::new(header, txns, ordering)
    }

    fn new(header: Header, txns: Vec<Transaction>, ordering: OrderingScheme) -> Block {
        Block { id: header.id(), header, txns, ordering }
    }

    /// Rebuild a block from a known header and reconstructed transactions
    /// (e.g., after a relay protocol decoded it). Fails if the transactions
    /// do not hash to the header's Merkle root.
    pub fn from_parts(
        header: Header,
        txns: Vec<Transaction>,
        ordering: OrderingScheme,
    ) -> Result<Block, BlockError> {
        let ids: Vec<TxId> = txns.iter().map(|t| *t.id()).collect();
        let checked = CheckedIds::verify(ids, header.merkle_root)?;
        Block::from_checked(header, txns, &checked, ordering)
    }

    /// Build a block from transactions whose ids already passed the Merkle
    /// check against this header's root. Fails if the token checked a
    /// different root, or if the transactions' ids differ from the checked
    /// ids — an O(n) comparison, no hashing.
    pub fn from_checked(
        header: Header,
        txns: Vec<Transaction>,
        checked: &CheckedIds,
        ordering: OrderingScheme,
    ) -> Result<Block, BlockError> {
        if checked.root != header.merkle_root {
            return Err(BlockError::MerkleMismatch {
                expected: header.merkle_root,
                computed: checked.root,
            });
        }
        if txns.len() != checked.ids.len()
            || txns.iter().zip(&checked.ids).any(|(tx, id)| tx.id() != id)
        {
            return Err(BlockError::IdsMismatch);
        }
        Ok(Block::new(header, txns, ordering))
    }

    /// The header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The block ID (double-SHA256 of the serialized header).
    pub fn id(&self) -> Digest {
        self.id
    }

    /// Transactions in block order.
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True for the (degenerate) empty block.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Transaction IDs in block order.
    pub fn ids(&self) -> Vec<TxId> {
        self.txns.iter().map(|t| *t.id()).collect()
    }

    /// The ordering scheme the block was assembled with.
    pub fn ordering(&self) -> OrderingScheme {
        self.ordering
    }

    /// Total serialized size: header plus transaction payloads (plus a
    /// 3-byte varint-ish count, matching the wire encoding).
    pub fn serialized_size(&self) -> usize {
        80 + 3 + self.txns.iter().map(Transaction::size).sum::<usize>()
    }

    /// Validate a *candidate* reconstruction: do `txns` (in the given order)
    /// hash to this block's Merkle root? This is the receiver's final check
    /// in Protocol 1 step 4 / Protocol 2 step 5.
    pub fn validate_reconstruction(&self, ids: &[TxId]) -> Result<CheckedIds, BlockError> {
        CheckedIds::verify(ids.to_vec(), self.header.merkle_root)
    }

    /// Check CTOR compliance.
    pub fn check_canonical(&self) -> Result<(), BlockError> {
        if self.ordering == OrderingScheme::Ctor
            && self.txns.windows(2).any(|w| w[0].id() > w[1].id())
        {
            return Err(BlockError::NotCanonicalOrder);
        }
        Ok(())
    }
}

impl Header {
    /// The block ID: double-SHA256 of the 80-byte serialization.
    pub fn id(&self) -> Digest {
        sha256d(&self.to_bytes())
    }

    /// Serialize to the 80-byte Bitcoin wire layout.
    pub fn to_bytes(&self) -> [u8; 80] {
        let mut out = [0u8; 80];
        out[0..4].copy_from_slice(&self.version.to_le_bytes());
        out[4..36].copy_from_slice(self.prev_block.as_ref());
        out[36..68].copy_from_slice(self.merkle_root.as_ref());
        out[68..72].copy_from_slice(&self.time.to_le_bytes());
        out[72..76].copy_from_slice(&self.bits.to_le_bytes());
        out[76..80].copy_from_slice(&self.nonce.to_le_bytes());
        out
    }

    /// Parse the 80-byte wire layout.
    pub fn from_bytes(bytes: &[u8; 80]) -> Header {
        Header {
            version: i32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")),
            prev_block: Digest(bytes[4..36].try_into().expect("32 bytes")),
            merkle_root: Digest(bytes[36..68].try_into().expect("32 bytes")),
            time: u32::from_le_bytes(bytes[68..72].try_into().expect("4 bytes")),
            bits: u32::from_le_bytes(bytes[72..76].try_into().expect("4 bytes")),
            nonce: u32::from_le_bytes(bytes[76..80].try_into().expect("4 bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txns(n: usize) -> Vec<Transaction> {
        (0..n as u64).map(|i| Transaction::new(i.to_le_bytes().to_vec())).collect()
    }

    #[test]
    fn assemble_ctor_sorts() {
        let b = Block::assemble(Digest::ZERO, 1000, txns(20), OrderingScheme::Ctor);
        assert!(b.check_canonical().is_ok());
        let ids = b.ids();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn miner_order_preserved() {
        let t = txns(5);
        let order: Vec<TxId> = t.iter().map(|x| *x.id()).collect();
        let b = Block::assemble(Digest::ZERO, 1000, t, OrderingScheme::MinerChosen);
        assert_eq!(b.ids(), order);
    }

    #[test]
    fn reconstruction_validates_exact_order_only() {
        let b = Block::assemble(Digest::ZERO, 1, txns(8), OrderingScheme::Ctor);
        let ids = b.ids();
        assert!(b.validate_reconstruction(&ids).is_ok());
        let mut wrong = ids.clone();
        wrong.swap(0, 1);
        assert!(matches!(
            b.validate_reconstruction(&wrong),
            Err(BlockError::MerkleMismatch { .. })
        ));
        // Superset (an undetected Bloom false positive) must fail too.
        let mut superset = ids.clone();
        superset.push(*Transaction::new(&b"extra"[..]).id());
        assert!(b.validate_reconstruction(&superset).is_err());
    }

    #[test]
    fn from_checked_rejects_other_ids_or_root() {
        let b = Block::assemble(Digest::ZERO, 1, txns(6), OrderingScheme::Ctor);
        let checked = b.validate_reconstruction(&b.ids()).expect("own ids check");
        let rebuilt = Block::from_checked(*b.header(), b.txns().to_vec(), &checked, b.ordering())
            .expect("matching ids and root");
        assert_eq!(rebuilt.id(), b.id());
        assert_eq!(rebuilt.ids(), b.ids());

        // Transactions whose ids differ from the checked ids: swapped,
        // substituted, or one short.
        let mut swapped = b.txns().to_vec();
        swapped.swap(0, 1);
        let mut substituted = b.txns().to_vec();
        substituted[3] = Transaction::new(&b"not in the block"[..]);
        let short = b.txns()[..5].to_vec();
        for txs in [swapped, substituted, short] {
            assert_eq!(
                Block::from_checked(*b.header(), txs, &checked, b.ordering()).unwrap_err(),
                BlockError::IdsMismatch
            );
        }

        // A header committing to a different root than the token checked.
        let other = Block::assemble(Digest::ZERO, 1, txns(7), OrderingScheme::Ctor);
        assert!(matches!(
            Block::from_checked(*other.header(), b.txns().to_vec(), &checked, b.ordering()),
            Err(BlockError::MerkleMismatch { .. })
        ));
    }

    #[test]
    fn block_id_is_header_id() {
        let b = Block::assemble(sha256d(b"prev"), 7, txns(4), OrderingScheme::Ctor);
        assert_eq!(b.id(), b.header().id());
        assert_eq!(b.id(), sha256d(&b.header().to_bytes()));
    }

    #[test]
    fn header_roundtrip() {
        let b = Block::assemble(sha256d(b"prev"), 12345, txns(3), OrderingScheme::Ctor);
        let bytes = b.header().to_bytes();
        assert_eq!(Header::from_bytes(&bytes), *b.header());
    }

    #[test]
    fn block_ids_differ_with_contents() {
        let a = Block::assemble(Digest::ZERO, 1, txns(3), OrderingScheme::Ctor);
        let b = Block::assemble(Digest::ZERO, 1, txns(4), OrderingScheme::Ctor);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn ordering_cost_formula() {
        assert_eq!(OrderingScheme::Ctor.encoding_bytes(10_000), 0);
        assert_eq!(OrderingScheme::MinerChosen.encoding_bytes(0), 0);
        assert_eq!(OrderingScheme::MinerChosen.encoding_bytes(1), 0);
        // n log2 n bits for n = 2000: 2000·10.97 / 8 ≈ 2742 bytes.
        let bytes = OrderingScheme::MinerChosen.encoding_bytes(2000);
        assert!((2700..2800).contains(&bytes), "got {bytes}");
    }

    #[test]
    fn serialized_size_counts_payloads() {
        let b = Block::assemble(Digest::ZERO, 1, txns(10), OrderingScheme::Ctor);
        assert_eq!(b.serialized_size(), 80 + 3 + 10 * 8);
    }
}
