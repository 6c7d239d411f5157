//! A small, dependency-free SHA-256 (FIPS 180-4) used to checksum disk
//! cache entries and to verify CSV artifacts against the committed
//! golden hashes — the same digests `sha256sum` produces, so CI and the
//! kill-and-resume integration test agree byte-for-byte.
//!
//! Whole blocks go to the x86-64 SHA extensions when the running CPU has
//! them (detected at run time) and to the portable [`compress`] on every
//! other CPU; the portable code is also the tests' oracle.

/// Per-round constants: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes.
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

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Pending input not yet forming a full 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 { state: H0, buf: [0; 64], buf_len: 0, len: 0 }
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256::default()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the message and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // 0x80, then zeros until 8 bytes short of a block boundary, then
        // the bit length: at most 64 + 8 bytes.
        let zeros_end = if self.buf_len < 56 { 56 - self.buf_len } else { 120 - self.buf_len };
        let mut padding = [0u8; 72];
        padding[0] = 0x80;
        padding[zeros_end..zeros_end + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..zeros_end + 8]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses `blocks`, a whole number of 64-byte blocks, into `state`.
#[allow(unsafe_code)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `detected` has just confirmed at run time that this CPU
        // has every feature `shani::compress_blocks` is compiled for.
        return unsafe { shani::compress_blocks(state, blocks) };
    }
    for block in blocks.chunks_exact(64) {
        compress(state, block);
    }
}

/// The sixteen big-endian message words of a 64-byte block.
fn message_words(block: &[u8]) -> [u32; 16] {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    w
}

/// The portable compression function: one 64-byte block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(&message_words(block));
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
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

/// The compression function on the x86-64 SHA extensions. The state
/// travels as two vectors, lanes `[f, e, b, a]` and `[h, g, d, c]`
/// (lowest first), which is the order `sha256rnds2` works in.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{message_words, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether this CPU has every feature [`compress_blocks`] needs.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// `x[0..4]` as one vector, `x[0]` in the lowest lane.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn lanes(x: &[u32]) -> __m128i {
        _mm_set_epi32(x[3] as i32, x[2] as i32, x[1] as i32, x[0] as i32)
    }

    /// [`super::compress_blocks`] on the SHA extensions. Code compiled
    /// without these features may call it only once [`detected`] holds.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = lanes(&[f, e, b, a]);
        let mut cdgh = lanes(&[h, g, d, c]);
        for block in blocks.chunks_exact(64) {
            let m = message_words(block);
            // The next sixteen schedule words, four to a vector.
            let mut w = [lanes(&m[0..4]), lanes(&m[4..8]), lanes(&m[8..12]), lanes(&m[12..16])];
            let (abef0, cdgh0) = (abef, cdgh);
            // Four rounds a step. The last four steps also schedule words
            // past round 63, which go unused.
            for k in K.chunks_exact(4) {
                let wk = _mm_add_epi32(w[0], lanes(k));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
                let sigma0 = _mm_sha256msg1_epu32(w[0], w[1]);
                let next = _mm_add_epi32(sigma0, _mm_alignr_epi8::<4>(w[3], w[2]));
                w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(next, w[3])];
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|lane| lane as u32);
    }
}

/// The SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// The lowercase-hex SHA-256 of `data` (what `sha256sum` prints).
pub fn hex(data: &[u8]) -> String {
    sha256(data).iter().map(|byte| format!("{byte:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hexed(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 built from the portable compression function alone: the
    /// padded message, block by block.
    fn portable(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block);
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        assert_eq!(hex(b"abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        let one_shot = hex(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(hexed(h.finalize()), one_shot, "chunk size {chunk}");
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4 long-message vector: one million 'a's.
        let mut h = Sha256::new();
        let block = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&block);
        }
        assert_eq!(
            hexed(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The dispatching compression (the SHA extensions, where this CPU
    /// has them) equals the portable one, from the initial state and from
    /// a state that is not it.
    #[test]
    fn compress_blocks_equals_portable_compress() {
        for blocks in [0usize, 1, 2, 7, 300] {
            let data = pseudo_random(64 * blocks, blocks as u64);
            for start in [H0, [0, 1, u32::MAX, 0x8000_0000, 7, 0xdead_beef, 42, 1 << 31]] {
                let mut fast = start;
                compress_blocks(&mut fast, &data);
                let mut slow = start;
                for block in data.chunks_exact(64) {
                    compress(&mut slow, block);
                }
                assert_eq!(fast, slow, "{blocks} blocks from {start:x?}");
            }
        }
    }

    proptest::proptest! {
        /// Any data, fed through `update` in any chunk sizes, digests to
        /// what the portable code computes from the whole message.
        #[test]
        fn chunked_updates_equal_the_portable_digest(
            len in 0usize..1500,
            seed in 0u64..=u64::MAX,
            chunks in proptest::collection::vec(1usize..200, 1..12),
        ) {
            let data = pseudo_random(len, seed);
            let mut h = Sha256::new();
            h.update(&[]);
            let (mut at, mut i) = (0, 0);
            while at < data.len() {
                let end = (at + chunks[i % chunks.len()]).min(data.len());
                h.update(&data[at..end]);
                (at, i) = (end, i + 1);
            }
            proptest::prop_assert_eq!(h.finalize(), portable(&data));
        }
    }
}
