//! Shared integrity primitives: FNV-1a (snapshot seals) and CRC32-IEEE
//! (record framing).
//!
//! One implementation serves every layer that needs a content checksum —
//! `ckpt::Snapshot::seal` hashes its fields through [`Fnv1a`], and
//! [`crate::store::LogStore`] frames records with [`Crc32`] — so torn-write
//! detection semantics cannot drift between the snapshot and log paths.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    h: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Start a hash at the offset basis.
    pub fn new() -> Self {
        Fnv1a { h: FNV_OFFSET }
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h = (self.h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb one 64-bit word as its little-endian bytes.
    pub fn update_u64(&mut self, w: u64) {
        self.update(&w.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// FNV-1a of a byte slice in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// The CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup
/// tables for slice-by-8, computed at compile time so no external crate is
/// needed. `TABLES[0]` is the classic byte-at-a-time table; `TABLES[j]`
/// advances a byte's contribution `j` positions further through the
/// polynomial, letting `update` fold 8 input bytes per step instead of 1 —
/// the framing checksum is the hot loop of every journal append.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xFF) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// One slice-by-8 step: `state` advanced over the eight bytes of `c`.
#[inline(always)]
fn fold8(state: u32, c: &[u8; 8]) -> u32 {
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    CRC_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// Streaming CRC32-IEEE.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a fresh CRC.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb bytes (slice-by-8: eight table lookups fold eight input bytes
    /// per step; the tail falls back to the byte-serial recurrence).
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let (chunks, tail) = bytes.as_chunks::<8>();
        for c in chunks {
            state = fold8(state, c);
        }
        for &b in tail {
            let idx = ((state ^ u32::from(b)) & 0xFF) as usize;
            state = CRC_TABLES[0][idx] ^ (state >> 8);
        }
        self.state = state;
    }

    /// Absorb `bytes[k]` into `lanes[k]` for every `k`, as `K` calls of
    /// [`Crc32::update`] would, but with the lanes' 8-byte folds interleaved
    /// over their common length. One lane's fold waits on its own previous
    /// state (the table indices are made of it), so a single stream runs at
    /// the latency of that chain; `K` independent chains fill the wait.
    /// Whatever a lane holds beyond the common length is absorbed alone — all
    /// of it when some lane is empty, which is then `K` plain `update`s.
    ///
    /// Two callers in `store`, one lane count: the recovery scan over the
    /// frames it chains, and the write path over the records of a run.
    pub(crate) fn update_abreast<const K: usize>(lanes: &mut [Crc32; K], bytes: [&[u8]; K]) {
        let steps = bytes.iter().map(|b| b.len() / 8).min().unwrap_or(0);
        let heads = bytes.map(|b| &b.as_chunks::<8>().0[..steps]);
        let mut states = lanes.each_ref().map(|lane| lane.state);
        for step in 0..steps {
            for (state, head) in states.iter_mut().zip(&heads) {
                *state = fold8(*state, &head[step]);
            }
        }
        for ((lane, state), b) in lanes.iter_mut().zip(states).zip(bytes) {
            lane.state = state;
            lane.update(&b[steps * 8..]);
        }
    }

    /// The final (inverted) CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC32-IEEE of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The canonical CRC32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn slice_by_8_matches_byte_serial_at_every_length_and_split() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            let mut byte_serial = 0xFFFF_FFFFu32;
            for &b in &data[..len] {
                let idx = ((byte_serial ^ u32::from(b)) & 0xFF) as usize;
                byte_serial = CRC_TABLES[0][idx] ^ (byte_serial >> 8);
            }
            assert_eq!(crc32(&data[..len]), !byte_serial, "length {len}");
            for cut in 0..len {
                let mut c = Crc32::new();
                c.update(&data[..cut]);
                c.update(&data[cut..len]);
                assert_eq!(c.finish(), crc32(&data[..len]), "split {cut}/{len}");
            }
        }
    }

    #[test]
    fn abreast_equals_one_update_a_lane_at_any_lengths() {
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |below: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % below as u64) as usize
        };
        for round in 0..500 {
            // Lanes of unrelated lengths, and every so often an empty lane or
            // four equal ones (the scan's common case).
            let equal = (round % 5 == 0).then(|| draw(700));
            let bytes: [&[u8]; 4] = std::array::from_fn(|lane| {
                let len = equal
                    .unwrap_or_else(|| [0, draw(40), draw(700), draw(700)][(round + lane) % 4]);
                let at = draw(data.len() - len);
                &data[at..at + len]
            });
            // Lanes need not start fresh: the scan feeds each lane twice.
            let mut lanes: [Crc32; 4] = std::array::from_fn(|lane| {
                let mut c = Crc32::new();
                c.update(&data[..lane * 3]);
                c
            });
            let mut want = lanes.clone();
            Crc32::update_abreast(&mut lanes, bytes);
            for ((want, got), b) in want.iter_mut().zip(&lanes).zip(bytes) {
                want.update(b);
                assert_eq!(got.finish(), want.finish(), "round {round}, {} bytes", b.len());
            }
        }
        Crc32::update_abreast::<0>(&mut [], []);
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fnv1a_word_update_matches_le_bytes() {
        let mut a = Fnv1a::new();
        a.update_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.update(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn checksums_detect_single_bit_flips() {
        let mut data = vec![7u8; 64];
        let c0 = crc32(&data);
        let f0 = fnv1a(&data);
        for i in 0..64 {
            data[i] ^= 1;
            assert_ne!(crc32(&data), c0, "crc missed flip at {i}");
            assert_ne!(fnv1a(&data), f0, "fnv missed flip at {i}");
            data[i] ^= 1;
        }
    }
}
