//! SHA1 (FIPS 180-1): buffering and padding here, and the 80-round
//! compression of 64-byte blocks either on the CPU's SHA instructions
//! (`flux_sys::sha1_compress`, where the CPU has them) or by the
//! from-scratch `Sha1::compress` below, the portable path and the tests'
//! reference. Every KVS put and every object check hashes; on an AMD
//! EPYC the hardware path runs ≈ 5× the portable one (DESIGN §15).

/// A 20-byte SHA1 digest.
pub type Digest = [u8; 20];

const H0: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

/// Streaming SHA1 hasher.
///
/// ```
/// use flux_hash::Sha1;
/// assert_eq!(
///     Sha1::digest(b"abc")[..4],
///     [0xa9, 0x99, 0x3e, 0x36],
/// );
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 { state: H0, len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// One-shot convenience: digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            let block = self.buf;
            self.compress_blocks(&[block]);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        self.compress_blocks(blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros up to 8 bytes short of a block boundary,
        // then the big-endian bit length — two blocks when the buffered
        // tail leaves fewer than 9 bytes free.
        let n = self.buf_len;
        let end = if n < 56 { 64 } else { 128 };
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buf[..n]);
        tail[n] = 0x80;
        tail[end - 8..end].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        self.compress_blocks(tail[..end].as_chunks::<64>().0);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Compresses whole blocks: on the CPU's SHA instructions in one call
    /// where it has them, otherwise one block at a time by
    /// [`Sha1::compress`].
    fn compress_blocks(&mut self, blocks: &[[u8; 64]]) {
        if !flux_sys::sha1_compress(&mut self.state, blocks) {
            for block in blocks {
                Self::compress(&mut self.state, block);
            }
        }
    }

    /// The portable compression function: one 64-byte block into `state`.
    pub(crate) fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS 180-1 appendix + well-known vectors.
    #[test]
    fn standard_vectors() {
        assert_eq!(hex(Sha1::digest(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(hex(Sha1::digest(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(Sha1::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            hex(Sha1::digest(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u8).collect();
        let want = Sha1::digest(&data);
        for split in 0..=data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn lengths_around_block_boundary() {
        // 55/56/57 and 63/64/65 byte messages exercise the padding paths.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 127, 128, 129] {
            let data = vec![0x5au8; len];
            let d1 = Sha1::digest(&data);
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
