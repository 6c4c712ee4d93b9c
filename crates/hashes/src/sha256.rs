//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! The compression is a free function over sixteen message words, with a
//! streaming byte wrapper on top and an eight-lane interleaved copy for
//! Merkle nodes (see [`SHA_LANES`]). Everything is allocation-free and
//! validated against the NIST test vectors in the unit tests below,
//! including the one-million-`a` vector.

use core::fmt;

/// A 32-byte hash output.
///
/// `Digest` is used throughout the suite as the canonical transaction /
/// block identifier type (the result of [`sha256d`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, useful as a sentinel in tests.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Interpret the first 8 bytes as a little-endian u64 (short ID).
    #[inline]
    pub fn low_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("32 >= 8"))
    }

    /// Render as lowercase hex (natural byte order).
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parse from 64 hex characters (natural byte order).
    pub fn from_hex(s: &str) -> Option<Digest> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(Digest(arr))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// SHA-256 round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Lane count of the interleaved compression behind
/// [`hash_pairs_x8`](crate::merkle::hash_pairs_x8).
///
/// Eight 32-bit lanes fill one 256-bit vector per working variable, and
/// eight independent dependency chains cover a round's latency even where
/// the compiler keeps the lanes scalar. The Merkle level builder chunks
/// its pairs by this constant and pads a ragged tail by repeating a lane.
pub const SHA_LANES: usize = 8;

/// Expand 16 message words into the 64-word schedule (FIPS 180-4 §6.2.2
/// step 1). `const` so that constant blocks are expanded at compile time.
const fn schedule(block: &[u32; 16]) -> [u32; 64] {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = block[i];
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        i += 1;
    }
    w
}

/// The 64 rounds over an expanded schedule, folded into `state`.
#[inline(always)]
fn rounds(state: &mut [u32; 8], w: &[u32; 64]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
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
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One SHA-256 compression of a 16-word (big-endian decoded) block.
#[inline]
fn compress(state: &mut [u32; 8], block: &[u32; 16]) {
    rounds(state, &schedule(block));
}

/// [`compress`] over a 64-byte block.
fn compress_bytes(state: &mut [u32; 8], block: &[u8; 64]) {
    let words = core::array::from_fn(|i| {
        u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4-byte word"))
    });
    compress(state, &words);
}

/// The padding block of every 64-byte message: `0x80`, zeros, and the
/// bit length 512. Its schedule is a constant, so hashing a Merkle node's
/// second block costs the rounds alone.
const PAD64: [u32; 64] = schedule(&{
    let mut b = [0u32; 16];
    b[0] = 0x8000_0000;
    b[15] = 512;
    b
});

/// The single block of a 32-byte message (an inner digest): its eight
/// words, `0x80`, zeros, and the bit length 256.
fn digest_block(words: &[u32; 8]) -> [u32; 16] {
    let mut b = [0u32; 16];
    b[..8].copy_from_slice(words);
    b[8] = 0x8000_0000;
    b[15] = 256;
    b
}

/// A digest's bytes as eight big-endian words.
#[inline]
pub(crate) fn digest_words(d: &Digest) -> [u32; 8] {
    core::array::from_fn(|i| u32::from_be_bytes(d.0[4 * i..4 * i + 4].try_into().expect("4 bytes")))
}

/// Eight state words as a digest.
#[inline]
pub(crate) fn words_digest(words: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// `sha256d` of one 64-byte message given as 16 big-endian words — a
/// Merkle node, `sha256d(left ‖ right)`. Three compressions: the message
/// block, the constant padding block, and the inner digest's block.
pub(crate) fn sha256d_64(block: &[u32; 16]) -> [u32; 8] {
    let mut inner = H0;
    compress(&mut inner, block);
    rounds(&mut inner, &PAD64);
    let mut outer = H0;
    compress(&mut outer, &digest_block(&inner));
    outer
}

/// Eight lanes of 32-bit words: `[word][lane]`.
type Lanes<const N: usize> = [[u32; SHA_LANES]; N];

/// [`schedule`] across all lanes.
#[inline(always)]
fn schedule_x8(block: &Lanes<16>) -> Lanes<64> {
    let mut w = [[0u32; SHA_LANES]; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let (w16, w15, w7, w2) = (w[i - 16], w[i - 15], w[i - 7], w[i - 2]);
        for (l, wi) in w[i].iter_mut().enumerate() {
            let s0 = w15[l].rotate_right(7) ^ w15[l].rotate_right(18) ^ (w15[l] >> 3);
            let s1 = w2[l].rotate_right(17) ^ w2[l].rotate_right(19) ^ (w2[l] >> 10);
            *wi = w16[l].wrapping_add(s0).wrapping_add(w7[l]).wrapping_add(s1);
        }
    }
    w
}

/// [`rounds`] across all lanes. Each lane is an independent dependency
/// chain written as plain elementwise arithmetic, so the compiler may map
/// a working variable onto one vector register — no `unsafe`, no
/// intrinsics. `w` yields lane `l`'s schedule word `i` as `w(i)[l]`.
#[inline(always)]
fn rounds_x8(state: &mut Lanes<8>, w: impl Fn(usize) -> [u32; SHA_LANES]) {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (i, k) in K.iter().enumerate() {
        let wi = w(i);
        let mut t1 = [0u32; SHA_LANES];
        let mut t2 = [0u32; SHA_LANES];
        for l in 0..SHA_LANES {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = h[l].wrapping_add(s1).wrapping_add(ch).wrapping_add(*k).wrapping_add(wi[l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        for l in 0..SHA_LANES {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..SHA_LANES {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for l in 0..SHA_LANES {
            s[l] = s[l].wrapping_add(v[l]);
        }
    }
}

/// [`sha256d_64`] on eight messages at once: lane `l` of the result is
/// `sha256d_64` of lane `l` of `blocks`, bit for bit.
pub(crate) fn sha256d_64_x8(blocks: &Lanes<16>) -> Lanes<8> {
    let mut inner = H0.map(|h| [h; SHA_LANES]);
    let w = schedule_x8(blocks);
    rounds_x8(&mut inner, |i| w[i]);
    rounds_x8(&mut inner, |i| [PAD64[i]; SHA_LANES]);
    let mut outer = H0.map(|h| [h; SHA_LANES]);
    let mut block = [[0u32; SHA_LANES]; 16];
    block[..8].copy_from_slice(&inner);
    block[8] = [0x8000_0000; SHA_LANES];
    block[15] = [256; SHA_LANES];
    let w = schedule_x8(&block);
    rounds_x8(&mut outer, |i| w[i]);
    outer
}

/// Streaming SHA-256 hasher.
///
/// ```
/// use graphene_hashes::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    /// Bytes pending in `buf`; always below 64 between calls.
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill a partially full buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_bytes(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            compress_bytes(&mut self.state, block.try_into().expect("64-byte block"));
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Complete the hash and return the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // spilling into a second block when the length field does not fit.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress_bytes(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_bytes(&mut self.state, &self.buf);
        words_digest(&self.state)
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Double SHA-256 (`SHA256(SHA256(data))`), the Bitcoin txid/block-id hash.
pub fn sha256d(data: &[u8]) -> Digest {
    let mut outer = H0;
    compress(&mut outer, &digest_block(&digest_words(&sha256(data))));
    words_digest(&outer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expect = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Exercise message lengths around the 55/56/64-byte padding edges.
        for len in 50..70 {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn sha256d_is_composition() {
        let d = sha256d(b"hello");
        assert_eq!(d, sha256(sha256(b"hello").as_ref()));
        // Known value: double-SHA256 of "hello".
        assert_eq!(d.to_hex(), "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50");
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex("ab"), None); // wrong length
    }
}
