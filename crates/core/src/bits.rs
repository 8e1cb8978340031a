//! Bit-level packing for run labels.
//!
//! The paper measures label length in *bits* (Figure 12 plots maximum and
//! average label length against the `3·log n_R` bound). To report honest
//! numbers, labels are actually packed:
//!
//! * fixed-width — every `q` uses `⌈log₂(n⁺+1)⌉` bits and the skeleton
//!   pointer `⌈log₂ n_G⌉` bits; this realizes the paper's maximum-length
//!   bound;
//! * Elias-γ — self-delimiting variable-length codes for the `q`s; this is
//!   what the paper's "average label length ... measured only for the
//!   variable-size labels" refers to.

/// Append-only bit buffer.
#[derive(Default, Clone)]
pub struct BitWriter {
    words: Vec<u64>,
    /// total bits written
    len: usize,
}

impl BitWriter {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the low `width` bits of `value` (LSB first). `width ≤ 64`.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} > 64");
        if width == 0 {
            return;
        }
        debug_assert!(
            width == 64 || value < (1u64 << width),
            "value does not fit width"
        );
        let bit = self.len % 64;
        let word = self.len / 64;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << bit;
        if bit + width > 64 {
            self.words.push(value >> (64 - bit));
        }
        self.len += width;
    }

    /// Appends `n ≥ 1` in Elias-γ: `⌊log₂ n⌋` zero bits, then `n`'s binary
    /// digits MSB-first. Costs `2⌊log₂ n⌋ + 1` bits.
    pub fn write_gamma(&mut self, n: u64) {
        assert!(n >= 1, "Elias gamma encodes positive integers");
        let bits = 64 - n.leading_zeros() as usize; // position of MSB + 1
        for _ in 0..bits - 1 {
            self.write_bits(0, 1);
        }
        for i in (0..bits).rev() {
            self.write_bits((n >> i) & 1, 1);
        }
    }

    /// Finishes and returns the raw little-endian words.
    pub fn into_words(self) -> (Vec<u64>, usize) {
        (self.words, self.len)
    }

    /// Serializes to bytes (length-prefixed externally by the caller).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 8);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(self.len.div_ceil(8));
        out
    }
}

/// Bit cost of Elias-γ for `n ≥ 1`, without writing.
pub fn gamma_bits(n: u64) -> usize {
    assert!(n >= 1);
    2 * (63 - n.leading_zeros() as usize) + 1
}

/// Sequential reader over a [`BitWriter`]'s output.
pub struct BitReader<'a> {
    words: &'a [u64],
    len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `words` holding `len` valid bits.
    pub fn new(words: &'a [u64], len: usize) -> Self {
        BitReader { words, len, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Reads `width` bits (LSB-first order matching the writer).
    pub fn read_bits(&mut self, width: usize) -> u64 {
        assert!(width <= 64);
        assert!(self.pos + width <= self.len, "bit stream exhausted");
        if width == 0 {
            return 0;
        }
        let bit = self.pos % 64;
        let word = self.pos / 64;
        let mut value = self.words[word] >> bit;
        if bit + width > 64 {
            value |= self.words[word + 1] << (64 - bit);
        }
        self.pos += width;
        if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        }
    }

    /// Reads an Elias-γ encoded integer.
    pub fn read_gamma(&mut self) -> u64 {
        let mut zeros = 0;
        while self.read_bits(1) == 0 {
            zeros += 1;
            assert!(zeros < 64, "corrupt gamma code");
        }
        let mut n = 1u64;
        for _ in 0..zeros {
            n = (n << 1) | self.read_bits(1);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfp_graph::rng::Xoshiro256;

    #[test]
    fn fixed_width_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        w.write_bits(42, 7);
        assert_eq!(w.len(), 3 + 16 + 1 + 64 + 7);
        let (words, len) = w.into_words();
        let mut r = BitReader::new(&words, len);
        assert_eq!(r.read_bits(3), 0b101);
        assert_eq!(r.read_bits(16), 0xFFFF);
        assert_eq!(r.read_bits(1), 0);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert_eq!(r.read_bits(7), 42);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn gamma_round_trip_small_and_large() {
        let mut w = BitWriter::new();
        let values = [
            1u64,
            2,
            3,
            4,
            7,
            8,
            100,
            1023,
            1024,
            1_000_000,
            u32::MAX as u64,
        ];
        for &v in &values {
            w.write_gamma(v);
        }
        let (words, len) = w.into_words();
        let mut r = BitReader::new(&words, len);
        for &v in &values {
            assert_eq!(r.read_gamma(), v);
        }
    }

    #[test]
    fn gamma_bit_cost_is_logarithmic() {
        assert_eq!(gamma_bits(1), 1);
        assert_eq!(gamma_bits(2), 3);
        assert_eq!(gamma_bits(3), 3);
        assert_eq!(gamma_bits(4), 5);
        assert_eq!(gamma_bits(1 << 20), 41);
        // writer length matches the cost function
        for n in [1u64, 5, 17, 100, 12345] {
            let mut w = BitWriter::new();
            w.write_gamma(n);
            assert_eq!(w.len(), gamma_bits(n), "n={n}");
        }
    }

    #[test]
    fn randomized_mixed_round_trip() {
        let mut rng = Xoshiro256::seed_from_u64(77);
        for _ in 0..50 {
            let mut w = BitWriter::new();
            let mut expected = Vec::new();
            for _ in 0..200 {
                if rng.gen_bool(0.5) {
                    let width = 1 + rng.gen_usize(63);
                    let value = rng.next_u64() & ((1u64 << width) - 1);
                    w.write_bits(value, width);
                    expected.push((true, value, width));
                } else {
                    let value = 1 + rng.gen_below(1 << 30);
                    w.write_gamma(value);
                    expected.push((false, value, 0));
                }
            }
            let (words, len) = w.into_words();
            let mut r = BitReader::new(&words, len);
            for (fixed, value, width) in expected {
                let got = if fixed {
                    r.read_bits(width)
                } else {
                    r.read_gamma()
                };
                assert_eq!(got, value);
            }
        }
    }

    #[test]
    fn to_bytes_truncates_to_bit_length() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        assert_eq!(w.to_bytes().len(), 1);
        w.write_bits(0xFF, 8);
        assert_eq!(w.to_bytes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn over_read_panics() {
        let w = BitWriter::new();
        let (words, len) = w.into_words();
        let mut r = BitReader::new(&words, len);
        r.read_bits(1);
    }
}
