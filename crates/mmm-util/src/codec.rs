//! Binary codecs for the persisted parameter-file formats.
//!
//! All persisted numbers are little-endian. Parameters are stored as raw
//! IEEE-754 `f32` bytes, exactly like the paper ("4 Byte floats", §4.2).
//! Varints (LEB128) and zigzag are used by the delta-compression extension
//! (paper §4.5 future work).

use crate::error::{Error, Result};

/// Append a `u32` in little-endian order.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian order.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f32` in little-endian order.
#[inline]
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a whole `f32` slice as raw little-endian bytes.
///
/// This and [`Reader::f32_slice`] / [`f32s_into`] are the one `f32`↔bytes
/// kernel every parameter codec sits on: safe, endian-correct by
/// construction, and written so the optimiser turns it into a bulk copy
/// (on little-endian hosts) or a vectorised byte swap. It only appends, and
/// reserves `4 * xs.len()` up front, so a buffer the caller has already
/// reserved room in is never reallocated.
pub fn put_f32_slice(buf: &mut Vec<u8>, xs: &[f32]) {
    buf.reserve(4 * xs.len());
    buf.extend(xs.iter().flat_map(|x| x.to_le_bytes()));
}

/// Decode raw little-endian `f32` bytes over `dst` in place. A `src` that
/// is not exactly `4 * dst.len()` bytes is [`Error::Corrupt`] and leaves
/// `dst` untouched.
pub fn f32s_into(dst: &mut [f32], src: &[u8]) -> Result<()> {
    if src.len() != 4 * dst.len() {
        return Err(Error::corrupt(format!(
            "{} bytes do not hold {} f32s",
            src.len(),
            dst.len()
        )));
    }
    for (v, b) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *v = f32::from_le_bytes(b.try_into().expect("4-byte chunk"));
    }
    Ok(())
}

/// Sequential reader over a byte buffer with explicit error reporting.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer for sequential decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corrupt(format!(
                "unexpected end of buffer: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::corrupt("invalid UTF-8 in string field"))
    }

    /// Read `n` raw little-endian `f32`s. The byte count is computed with
    /// checked arithmetic so a hostile `n` near `usize::MAX` reports
    /// `Corrupt` instead of wrapping around and reading the wrong span.
    pub fn f32_slice(&mut self, n: usize) -> Result<Vec<f32>> {
        let nbytes = n
            .checked_mul(4)
            .ok_or_else(|| Error::corrupt(format!("f32 slice length {n} overflows byte count")))?;
        let bytes = self.take(nbytes)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Read a `u32` record-count prefix, validating the claimed count
    /// against the bytes actually remaining: `count` records of at least
    /// `min_record_bytes` bytes each must fit in the rest of the buffer.
    /// This is the safe replacement for `r.u32()? as usize` on untrusted
    /// input — an inflated or max-value prefix returns [`Error::Corrupt`]
    /// *before* any allocation is sized from it, so corrupt blobs can
    /// never trigger an over-allocation or an overflow panic.
    pub fn u32_count(&mut self, min_record_bytes: usize) -> Result<usize> {
        let raw = u64::from(self.u32()?);
        self.validated_count(raw, min_record_bytes)
    }

    /// [`Reader::u32_count`] for `u64` length prefixes.
    pub fn u64_count(&mut self, min_record_bytes: usize) -> Result<usize> {
        let raw = self.u64()?;
        self.validated_count(raw, min_record_bytes)
    }

    fn validated_count(&self, raw: u64, min_record_bytes: usize) -> Result<usize> {
        // Zero-size records still cost one byte for validation purposes:
        // a count no tail of the buffer could justify is rejected even
        // when each record's minimum size is degenerate.
        let floor = min_record_bytes.max(1);
        let count = usize::try_from(raw)
            .map_err(|_| Error::corrupt(format!("length prefix {raw} exceeds address space")))?;
        let need = count.checked_mul(floor).ok_or_else(|| {
            Error::corrupt(format!("length prefix {raw} overflows size arithmetic"))
        })?;
        if need > self.remaining() {
            return Err(Error::corrupt(format!(
                "length prefix claims {count} records of >= {floor} byte(s) at offset {}, \
                 but only {} bytes remain",
                self.pos,
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Read a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.take(1)?[0];
            if shift >= 64 {
                return Err(Error::corrupt("varint overflows u64"));
            }
            result |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }
}

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Zigzag-encode a signed value so small magnitudes become small varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEADBEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f32(&mut buf, -1.5e-3);
        put_str(&mut buf, "layer.0.weight");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap(), -1.5e-3);
        assert_eq!(r.str().unwrap(), "layer.0.weight");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_buffer_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        let mut r = Reader::new(&buf[..5]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn string_with_bogus_length_errors() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000); // claims 1 MB follows
        buf.extend_from_slice(b"abc");
        let mut r = Reader::new(&buf);
        assert!(r.str().is_err());
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Reader::new(&buf).str().is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Reader::new(&buf).varint().unwrap(), v);
        }
        // 1-byte encoding for small values.
        let mut buf = Vec::new();
        put_varint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0x80u8; 11]; // never terminates within 64 bits
        assert!(Reader::new(&buf).varint().is_err());
    }

    #[test]
    fn count_prefix_validates_against_remaining() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0u8; 24]); // 3 records of 8 bytes
        assert_eq!(Reader::new(&buf).u32_count(8).unwrap(), 3);
        // Claiming 4 records over the same 24 bytes is corrupt.
        let mut bad = Vec::new();
        put_u32(&mut bad, 4);
        bad.extend_from_slice(&[0u8; 24]);
        assert!(Reader::new(&bad).u32_count(8).is_err());
    }

    #[test]
    fn max_value_count_prefixes_are_corrupt_not_oom() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).u32_count(8).is_err());
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert!(Reader::new(&buf).u64_count(1).is_err());
        // Overflowing count × record-size products are caught too.
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX / 2);
        assert!(Reader::new(&buf).u64_count(usize::MAX).is_err());
    }

    #[test]
    fn zero_size_records_still_bound_the_count() {
        // min_record_bytes == 0 must not let an arbitrary count through.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000);
        assert!(Reader::new(&buf).u32_count(0).is_err());
    }

    #[test]
    fn f32_slice_overflow_count_is_corrupt() {
        let buf = [0u8; 16];
        assert!(Reader::new(&buf).f32_slice(usize::MAX / 2).is_err());
        assert!(Reader::new(&buf).f32_slice(5).is_err()); // plain truncation
        assert_eq!(Reader::new(&buf).f32_slice(4).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn zigzag_examples() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
    }

    proptest! {
        #[test]
        fn prop_f32_slice_roundtrip(xs in proptest::collection::vec(any::<f32>(), 0..200)) {
            let mut buf = Vec::new();
            put_f32_slice(&mut buf, &xs);
            let got = Reader::new(&buf).f32_slice(xs.len()).unwrap();
            // Compare bit patterns so NaNs round-trip too.
            let a: Vec<u32> = xs.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_put_f32_slice_matches_per_element_reference(
            prefix in proptest::collection::vec(any::<u8>(), 1..8),
            bits in proptest::collection::vec(any::<u32>(), 0..200),
        ) {
            let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut want = prefix.clone();
            for x in &xs {
                want.extend_from_slice(&x.to_le_bytes());
            }
            let mut got = prefix;
            put_f32_slice(&mut got, &xs);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_f32_decode_at_every_start_offset(
            bits in proptest::collection::vec(any::<u32>(), 0..200),
        ) {
            for offset in 0..4 {
                // `offset` junk bytes first, so the floats sit at every
                // alignment a mapped blob or a ranged read can hand over.
                let mut buf = vec![0xA5u8; offset];
                for b in &bits {
                    buf.extend_from_slice(&b.to_le_bytes());
                }
                let body = &buf[offset..];
                let mut r = Reader::new(body);
                let sliced: Vec<u32> =
                    r.f32_slice(bits.len()).unwrap().iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&sliced, &bits);
                prop_assert_eq!(r.remaining(), 0);
                let mut dst = vec![0.0f32; bits.len()];
                f32s_into(&mut dst, body).unwrap();
                let into: Vec<u32> = dst.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(&into, &bits);
            }
        }

        #[test]
        fn prop_f32s_into_length_mismatch_is_corrupt_and_untouched(
            bits in proptest::collection::vec(any::<u32>(), 0..64),
            src_len in 0usize..300,
        ) {
            let mut dst: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let src_len = if src_len == 4 * dst.len() { src_len + 1 } else { src_len };
            let src = vec![0x5Au8; src_len];
            prop_assert!(matches!(f32s_into(&mut dst, &src), Err(Error::Corrupt(_))));
            let after: Vec<u32> = dst.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(after, bits);
        }

        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            prop_assert_eq!(Reader::new(&buf).varint().unwrap(), v);
        }

        #[test]
        fn prop_zigzag_roundtrip(v in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            let mut buf = Vec::new();
            put_str(&mut buf, &s);
            prop_assert_eq!(Reader::new(&buf).str().unwrap(), s);
        }
    }
}
