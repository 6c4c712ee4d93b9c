//! Pre-optimization reference implementations of the hot paths.
//!
//! These reproduce, line for line, the algorithms the production crates used
//! *before* the zero-allocation pass: per-insert index `Vec`s and a second
//! modulo in the Bloom filter, per-value scratch `Vec` + fresh `HashSet` and
//! clone-based subtraction in the IBLT peel, a full Golomb-stream decode
//! on every GCS query, and a SHA-256 that pads one byte per `update` call
//! under a Merkle tree hashed one node at a time. They exist for two
//! reasons:
//!
//! 1. **Equivalence** — `tests/equivalence.rs` asserts the optimized paths
//!    return bit-identical bits/bytes/decodings against these references.
//! 2. **Measurement** — the `bench_runner` binary times optimized vs
//!    reference to report `speedup_vs_reference` in `BENCH_*.json`.
//!
//! Nothing here is reachable from production code.

use graphene_bloom::{bitvec::BitVec, bloom_bits, optimal_hash_count, HashStrategy};
use graphene_hashes::{siphash24, Digest, SipKey};
use graphene_iblt::{DecodeError, DecodeResult, Iblt};
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Bloom filter (old shape: collect k indexes into a Vec, reduce mod m twice)
// ---------------------------------------------------------------------------

/// The pre-optimization Bloom filter: identical geometry and index
/// derivation to `graphene_bloom::BloomFilter`, but computing every probe
/// through an intermediate `Vec<usize>` exactly as the old `indexes()`
/// method did.
pub struct RefBloom {
    bits: BitVec,
    k: u32,
    salt: u64,
    strategy: HashStrategy,
}

impl RefBloom {
    /// Mirror of `BloomFilter::with_strategy` (same sizing formulas, same
    /// k-piece fallback rule).
    pub fn with_strategy(n: usize, fpr: f64, salt: u64, strategy: HashStrategy) -> Self {
        let nbits = bloom_bits(n, fpr);
        let k = optimal_hash_count(nbits, n);
        let strategy = match strategy {
            HashStrategy::KPiece if k <= 8 => HashStrategy::KPiece,
            _ => HashStrategy::DoubleHashing,
        };
        RefBloom { bits: BitVec::new(nbits), k, salt, strategy }
    }

    /// The old per-call index computation: allocate, collect, reduce twice.
    fn indexes(&self, id: &Digest) -> Vec<usize> {
        let m = self.bits.len() as u64;
        match self.strategy {
            HashStrategy::DoubleHashing => {
                let h1 = siphash24(SipKey::new(self.salt, 0x5350_4c49_5431), &id.0);
                let h2 = siphash24(SipKey::new(self.salt, 0x5350_4c49_5432), &id.0) | 1;
                (0..self.k)
                    .map(|i| {
                        (h1.wrapping_add((i as u64).wrapping_mul(h2)) % m) as usize
                            % self.bits.len()
                    })
                    .collect()
            }
            HashStrategy::KPiece => {
                // The old code computed the (unused) double-hash pair here
                // too; it cannot affect the produced indexes, so the
                // reference skips straight to the pieces.
                (0..self.k)
                    .map(|i| {
                        let off = (i as usize) * 4;
                        let piece =
                            u32::from_le_bytes(id.0[off..off + 4].try_into().expect("4 bytes"));
                        let mixed = (piece as u64 ^ self.salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        (mixed % m) as usize % self.bits.len()
                    })
                    .collect()
            }
        }
    }

    /// Insert through the allocating index path.
    pub fn insert(&mut self, id: &Digest) {
        if self.bits.is_empty() {
            return;
        }
        for idx in self.indexes(id) {
            self.bits.set(idx);
        }
    }

    /// Query through the allocating index path.
    pub fn contains(&self, id: &Digest) -> bool {
        if self.bits.is_empty() {
            return true;
        }
        self.indexes(id).into_iter().all(|idx| self.bits.get(idx))
    }

    /// The element-at-a-time "batch" insert: a plain loop over the scalar
    /// path. The optimized `BloomFilter::insert_batch` must leave the bit
    /// array byte-identical to this.
    pub fn insert_batch(&mut self, ids: &[Digest]) {
        for id in ids {
            self.insert(id);
        }
    }

    /// The element-at-a-time "batch" query: one scalar probe per id, in
    /// order. The optimized `contains_batch` mask must agree bit for bit.
    pub fn contains_batch(&self, ids: &[Digest]) -> Vec<bool> {
        ids.iter().map(|id| self.contains(id)).collect()
    }

    /// The packed bit array, for byte-level comparison with the optimized
    /// filter's `bit_vec().to_bytes()`.
    pub fn bit_bytes(&self) -> Vec<u8> {
        self.bits.to_bytes()
    }

    /// Number of hash functions chosen by the sizing formulas.
    pub fn hash_count(&self) -> u32 {
        self.k
    }
}

// ---------------------------------------------------------------------------
// IBLT peel (old shape: fresh HashSet per peel, per-value index Vec,
// clone-based subtraction)
// ---------------------------------------------------------------------------

/// Cell index derivation, identical to the crate-private
/// `graphene_iblt::table::cell_index` (documented in `Iblt::to_bytes` /
/// DESIGN notes): partition `i` spans cells `[i·c/k, (i+1)·c/k)`.
fn ref_cell_index(salt: u64, part: usize, i: u32, value: u64) -> usize {
    let h = siphash24(SipKey::new(salt, 0x4942_4c54_0000 + i as u64), &value.to_le_bytes());
    i as usize * part + (h % part as u64) as usize
}

/// Mirror of `graphene_iblt::cell::check_hash`.
fn ref_check_hash(salt: u64, value: u64) -> u32 {
    siphash24(SipKey::new(salt, 0x4942_4c54_4348), &value.to_le_bytes()) as u32
}

/// The pre-optimization peel over an owned cell array: a freshly allocated
/// `HashSet` of decoded values and a new `Vec` of the value's `k` cell
/// indexes per removal — the exact worklist order of the optimized
/// `peel_in_place`, so results (including element order) must match bit
/// for bit.
pub fn ref_peel_cells(
    mut cells: Vec<graphene_iblt::Cell>,
    k: u32,
    salt: u64,
) -> Result<DecodeResult, DecodeError> {
    ref_peel_cells_in(&mut cells, k, salt)
}

/// [`ref_peel_cells`], but also returning the partially peeled cell array,
/// so equivalence tests can compare the optimized peel's *remainder* (the
/// 2-core left behind by an incomplete decode) cell for cell.
pub fn ref_peel_cells_with_remainder(
    mut cells: Vec<graphene_iblt::Cell>,
    k: u32,
    salt: u64,
) -> (Result<DecodeResult, DecodeError>, Vec<graphene_iblt::Cell>) {
    let result = ref_peel_cells_in(&mut cells, k, salt);
    (result, cells)
}

fn ref_peel_cells_in(
    cells: &mut [graphene_iblt::Cell],
    k: u32,
    salt: u64,
) -> Result<DecodeResult, DecodeError> {
    let part = cells.len() / k as usize;
    let mut result = DecodeResult::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut queue: Vec<usize> = (0..cells.len()).filter(|&i| cells[i].is_pure(salt)).collect();
    while let Some(idx) = queue.pop() {
        let cell = cells[idx];
        if !cell.is_pure(salt) {
            continue;
        }
        let value = cell.key_sum;
        let sign = cell.count;
        if !seen.insert(value) {
            return Err(DecodeError::Malformed { value });
        }
        if sign == 1 {
            result.only_left.push(value);
        } else {
            result.only_right.push(value);
        }
        let check = ref_check_hash(salt, value);
        let indexes: Vec<usize> = (0..k).map(|i| ref_cell_index(salt, part, i, value)).collect();
        for i in indexes {
            cells[i].apply(value, check, -sign);
            if cells[i].is_pure(salt) {
                queue.push(i);
            }
        }
    }
    result.complete = cells.iter().all(|c| c.is_empty_cell());
    Ok(result)
}

/// Old `peel_clone`: copy the full cell array, then peel the copy with the
/// allocating algorithm.
pub fn ref_peel(table: &Iblt) -> Result<DecodeResult, DecodeError> {
    ref_peel_cells(table.cells().to_vec(), table.hash_count(), table.salt())
}

/// The old receiver decode step: allocate the difference table cell-wise
/// (what `subtract` did), then peel it in place with the allocating
/// algorithm. This is what every netsim/protocol decode attempt paid before
/// `subtract_from`/`subtract_into` + `peel_in_place`.
pub fn ref_subtract_peel(sender: &Iblt, local: &Iblt) -> Result<DecodeResult, DecodeError> {
    if sender.cell_count() != local.cell_count()
        || sender.hash_count() != local.hash_count()
        || sender.salt() != local.salt()
    {
        return Err(DecodeError::GeometryMismatch {
            left: (sender.cell_count(), sender.hash_count(), sender.salt()),
            right: (local.cell_count(), local.hash_count(), local.salt()),
        });
    }
    let cells: Vec<graphene_iblt::Cell> =
        sender.cells().iter().zip(local.cells()).map(|(a, b)| a.subtract(b)).collect();
    ref_peel_cells(cells, sender.hash_count(), sender.salt())
}

// ---------------------------------------------------------------------------
// GCS (old shape: decode the whole Golomb-Rice stream on every query)
// ---------------------------------------------------------------------------

/// Pre-optimization Golomb-coded set: same construction as
/// `graphene_bloom::Gcs`, but `contains` re-decodes the entire stream per
/// query (the behavior before the decoded-values cache).
pub struct RefGcs {
    data: Vec<u8>,
    count: usize,
    n: usize,
    fpr: f64,
    salt: u64,
}

fn gcs_range(n: usize, fpr: f64) -> u64 {
    ((n as f64 / fpr.clamp(1e-12, 1.0)).ceil() as u64).max(1)
}

fn gcs_rice_parameter(fpr: f64) -> u32 {
    (1.0 / fpr.clamp(1e-12, 0.999)).log2().round().max(0.0) as u32
}

fn gcs_hash_to_range(salt: u64, id: &Digest, range: u64) -> u64 {
    let h = siphash24(SipKey::new(salt, 0x4743_5348), &id.0);
    ((h as u128 * range as u128) >> 64) as u64
}

impl RefGcs {
    /// Build from a set of txids (mirror of `GcsBuilder::insert` + `build`).
    pub fn build(ids: &[Digest], n: usize, fpr: f64, salt: u64) -> Self {
        let n = n.max(1);
        let range = gcs_range(n, fpr);
        let mut hashed: Vec<u64> =
            ids.iter().map(|id| gcs_hash_to_range(salt, id, range)).collect();
        hashed.sort_unstable();
        hashed.dedup();
        let p = gcs_rice_parameter(fpr);
        let mut bytes = Vec::new();
        let mut used = 0u32;
        let push_bit = |bytes: &mut Vec<u8>, used: &mut u32, bit: bool| {
            if *used == 0 {
                bytes.push(0);
            }
            if bit {
                let last = bytes.last_mut().expect("pushed above");
                *last |= 1 << (7 - *used);
            }
            *used = (*used + 1) % 8;
        };
        let mut prev = 0u64;
        for &v in &hashed {
            let delta = v - prev;
            for _ in 0..(delta >> p) {
                push_bit(&mut bytes, &mut used, true);
            }
            push_bit(&mut bytes, &mut used, false);
            for i in (0..p).rev() {
                push_bit(&mut bytes, &mut used, (delta >> i) & 1 == 1);
            }
            prev = v;
        }
        RefGcs { data: bytes, count: hashed.len(), n, fpr, salt }
    }

    /// Decode the full sorted value list (linear scan of the bit stream).
    fn decode(&self) -> Vec<u64> {
        let p = gcs_rice_parameter(self.fpr);
        let mut pos = 0usize;
        let read_bit = |pos: &mut usize| -> Option<bool> {
            let byte = *self.data.get(*pos / 8)?;
            let bit = (byte >> (7 - (*pos % 8))) & 1 == 1;
            *pos += 1;
            Some(bit)
        };
        let mut out = Vec::with_capacity(self.count);
        let mut prev = 0u64;
        for _ in 0..self.count {
            let mut q = 0u64;
            loop {
                match read_bit(&mut pos) {
                    Some(true) => q += 1,
                    Some(false) => break,
                    None => return out,
                }
                if q > 1 << 40 {
                    return out;
                }
            }
            let mut rem = 0u64;
            for _ in 0..p {
                match read_bit(&mut pos) {
                    Some(b) => rem = (rem << 1) | b as u64,
                    None => return out,
                }
            }
            prev += (q << p) | rem;
            out.push(prev);
        }
        out
    }

    /// The old query path: decode everything, then binary search.
    pub fn contains(&self, id: &Digest) -> bool {
        let target = gcs_hash_to_range(self.salt, id, gcs_range(self.n, self.fpr));
        self.decode().binary_search(&target).is_ok()
    }

    /// Element-at-a-time "batch" query: one full-stream decode + search per
    /// id, in order. `Gcs::contains_batch` must return the same answers.
    pub fn contains_batch(&self, ids: &[Digest]) -> Vec<bool> {
        ids.iter().map(|id| self.contains(id)).collect()
    }

    /// The Golomb–Rice byte stream, for comparison with `Gcs::data()`.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Number of encoded (distinct) members.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

// ---------------------------------------------------------------------------
// SHA-256 and Merkle (old shape: byte-at-a-time padding, one streaming
// hasher per node)
// ---------------------------------------------------------------------------

const REF_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const REF_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The pre-optimization streaming SHA-256: the FIPS 180-4 compression
/// over a byte buffer, with `finalize` padding one byte per `update` call.
struct RefSha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl RefSha256 {
    fn new() -> Self {
        RefSha256 { state: REF_H0, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0x00]);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(REF_K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 through the byte-at-a-time reference hasher.
pub fn ref_sha256(data: &[u8]) -> Digest {
    let mut h = RefSha256::new();
    h.update(data);
    h.finalize()
}

/// `ref_sha256(ref_sha256(data))`.
pub fn ref_sha256d(data: &[u8]) -> Digest {
    ref_sha256(ref_sha256(data).as_ref())
}

/// One Merkle node, `sha256d(left ‖ right)`, through the reference hasher.
pub fn ref_hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(left.as_ref());
    buf[32..].copy_from_slice(right.as_ref());
    ref_sha256d(&buf)
}

/// Every level of the Bitcoin Merkle tree over `txids`, leaves first,
/// built one node at a time (an odd level pairs its last node with
/// itself). Empty input yields one empty level.
pub fn ref_merkle_levels(txids: &[Digest]) -> Vec<Vec<Digest>> {
    let mut levels = vec![txids.to_vec()];
    while levels.last().expect("non-empty").len() > 1 {
        let level = levels.last().expect("non-empty");
        let next = level
            .chunks(2)
            .map(|pair| ref_hash_pair(&pair[0], pair.get(1).unwrap_or(&pair[0])))
            .collect();
        levels.push(next);
    }
    levels
}

/// The Merkle root of `txids` through [`ref_merkle_levels`];
/// [`Digest::ZERO`] for an empty list.
pub fn ref_merkle_root(txids: &[Digest]) -> Digest {
    ref_merkle_levels(txids).last().and_then(|top| top.first()).copied().unwrap_or(Digest::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphene_bloom::{GcsBuilder, Membership};
    use graphene_hashes::sha256;

    fn ids(n: usize, tag: u64) -> Vec<Digest> {
        (0..n as u64).map(|i| sha256(&[i.to_le_bytes(), tag.to_le_bytes()].concat())).collect()
    }

    #[test]
    fn ref_gcs_matches_production_bytes() {
        let set = ids(300, 7);
        let r = RefGcs::build(&set, set.len(), 0.01, 5);
        let mut b = GcsBuilder::new(set.len(), 0.01, 5);
        for id in &set {
            b.insert(id);
        }
        let g = b.build();
        assert_eq!(r.data(), g.data());
        assert_eq!(r.len(), g.len());
        for id in &set {
            assert!(r.contains(id) && g.contains(id));
        }
    }

    #[test]
    fn ref_peel_decodes_a_simple_difference() {
        let mut a = Iblt::new(30, 3, 9);
        let mut b = Iblt::new(30, 3, 9);
        for v in [1u64, 2, 3, 4, 5] {
            a.insert(v);
        }
        for v in [4u64, 5, 6] {
            b.insert(v);
        }
        let mut r = ref_subtract_peel(&a, &b).unwrap();
        assert!(r.complete);
        r.only_left.sort();
        r.only_right.sort();
        assert_eq!(r.only_left, vec![1, 2, 3]);
        assert_eq!(r.only_right, vec![6]);
    }
}
