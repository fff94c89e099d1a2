//! SHA-256 and HMAC-SHA256, dependency-free.
//!
//! The workspace builds offline, so this module plays the role a crypto
//! crate would otherwise play. Two consumers, neither of which needs
//! constant-time guarantees: the audit log stores **salted hashes** of
//! original cell values (so the log never contains plaintext PII but a
//! custodian holding the original file can still verify what was
//! scrubbed), and the tokenize strategy derives **deterministic tokens**
//! via HMAC so equal inputs map to equal tokens under a fixed key and
//! joins survive scrubbing.

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
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

/// Initial hash state (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 with no heap buffer: whole 64-byte blocks are
/// compressed straight from the input, and only a partial block waits
/// in `buf`.
#[derive(Debug, Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    /// Bytes absorbed so far.
    len: u64,
}

impl Sha256 {
    pub(crate) fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = data.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads (`0x80`, zeros, 64-bit big-endian bit length, up to a whole
    /// block) and returns the digest.
    pub(crate) fn finish(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let zeros_to = if self.buf_len < 56 { 56 } else { 120 };
        self.update(&pad[..zeros_to - self.buf_len]);
        self.update(&bit_len.to_be_bytes());
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One SHA-256 compression of `block` into `h` (FIPS 180-4 §6.2.2).
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *word = word.wrapping_add(v);
    }
}

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// Lowercase hex of a digest.
pub fn hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    push_hex(&mut s, digest);
    s
}

/// Appends the lowercase hex of `bytes` to `out`.
pub(crate) fn push_hex(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
}

/// SHA-256 of `data` as lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    hex(&sha256(data))
}

/// An HMAC-SHA256 key (RFC 2104) with both padded key blocks already
/// compressed, so a MAC of a message of at most 55 bytes costs two
/// compressions.
#[derive(Debug, Clone)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> HmacKey {
        let mut k = [0u8; 64];
        if key.len() > k.len() {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    pub(crate) fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(msg);
        let mut outer = self.outer.clone();
        outer.update(&inner.finish());
        outer.finish()
    }
}

/// HMAC-SHA256 (RFC 2104) of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / RFC 4231 known-answer vectors.
    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // > one block (needs the length padding to spill into a new block)
        assert_eq!(
            sha256_hex(&[b'a'; 64]),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn hmac_known_vectors() {
        // RFC 4231 test case 1
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // RFC 4231 test case 2 ("Jefe")
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // key longer than one block is hashed down first
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// Inputs of `len` bytes `a` around the padding boundaries: the
    /// length fits the last data block up to 55 bytes and spills into
    /// an extra block from 56. Answers from Python's `hashlib`.
    #[test]
    fn sha256_padding_boundaries() {
        for (len, want) in [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ] {
            let data = vec![b'a'; len];
            assert_eq!(sha256_hex(&data), want, "{len} bytes");
            // Split updates, across and inside blocks, give the same digest.
            for cut in [0, len.min(1), len / 2, len.saturating_sub(1), len] {
                let mut h = Sha256::new();
                h.update(&data[..cut]);
                h.update(&data[cut..]);
                assert_eq!(hex(&h.finish()), want, "{len} bytes cut at {cut}");
            }
        }
    }

    /// Precomputed key state against one-shot answers from Python's
    /// `hmac`, for keys below, at and above the 64-byte block (longer
    /// keys are hashed first). Key byte `i` is `(31 i + 7) mod 256`.
    #[test]
    fn hmac_key_matches_one_shot_answers() {
        let key = |n: usize| -> Vec<u8> { (0..n).map(|i| (i * 31 + 7) as u8).collect() };
        for (len, want) in [
            (
                0,
                "d5bdc0648f66f5708239b1afbb4947a5fc3028c83fa82a8afb056bc64b41c613",
            ),
            (
                20,
                "bdb1405ce810933908dc9767ee38e1c10594010205f324b6cdcb2bc0fe2e3478",
            ),
            (
                64,
                "552c94fee83f387d2d7447801ab27d49c2cc602a7290d87dae40fc40f3895cd8",
            ),
            (
                65,
                "5859b8c871ed30c17cecfdb874ea2dbec2735ac0818599e8b702055b8f33f7e7",
            ),
            (
                131,
                "7d16dbf54d0dd17d9bafba2329e8c0597907d6a1c22f61f2208efa6a49c58f05",
            ),
        ] {
            let mac = HmacKey::new(&key(len)).mac(b"tclose hmac message");
            assert_eq!(hex(&mac), want, "{len}-byte key");
        }
        // One key, reused: no call leaks state into the next.
        let k = HmacKey::new(&key(20));
        for (msg, want) in [
            (
                &b""[..],
                "82253928652a2d612641e3e6bb07d922922a5c14b374c46bd51b385ce65b3107",
            ),
            (
                &[b'x'; 100][..],
                "5dc978f3639dde218aea45e6f39253e698d23bbc04fff5b9830145462b8c81fc",
            ),
            (
                &b""[..],
                "82253928652a2d612641e3e6bb07d922922a5c14b374c46bd51b385ce65b3107",
            ),
        ] {
            assert_eq!(hex(&k.mac(msg)), want);
        }
    }

    #[test]
    fn hex_encodes_lowercase() {
        assert_eq!(hex(&[0x00, 0xff, 0x1a]), "00ff1a");
    }
}
