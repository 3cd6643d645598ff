//! Fixed-size record serialization.

/// A record that can be stored in an EM file.
///
/// Records have a fixed byte size so that readers and writers can address
/// records inside blocks without any per-record framing.  `SIZE` must be at
/// most the block size of the context the record is used with.
pub trait Record: Clone {
    /// Exact encoded size in bytes.
    const SIZE: usize;

    /// Encodes the record into `buf`, which is exactly `SIZE` bytes long.
    fn encode(&self, buf: &mut [u8]);

    /// Decodes a record from `buf`, which is exactly `SIZE` bytes long.
    fn decode(buf: &[u8]) -> Self;
}

/// Little-endian byte packing helpers for implementing [`Record`].
pub mod codec {
    /// Writes an `f64` at byte offset `at`.
    pub fn put_f64(buf: &mut [u8], at: usize, v: f64) {
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads an `f64` from byte offset `at`.
    pub fn get_f64(buf: &[u8], at: usize) -> f64 {
        f64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
    }

    /// Writes a `u64` at byte offset `at`.
    pub fn put_u64(buf: &mut [u8], at: usize, v: u64) {
        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` from byte offset `at`.
    pub fn get_u64(buf: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
    }

    /// Writes a `u32` at byte offset `at`.
    pub fn put_u32(buf: &mut [u8], at: usize, v: u32) {
        buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` from byte offset `at`.
    pub fn get_u32(buf: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
    }
}

impl Record for u64 {
    const SIZE: usize = 8;
    fn encode(&self, buf: &mut [u8]) {
        codec::put_u64(buf, 0, *self);
    }
    fn decode(buf: &[u8]) -> Self {
        codec::get_u64(buf, 0)
    }
}

impl Record for f64 {
    const SIZE: usize = 8;
    fn encode(&self, buf: &mut [u8]) {
        codec::put_f64(buf, 0, *self);
    }
    fn decode(buf: &[u8]) -> Self {
        codec::get_f64(buf, 0)
    }
}

impl Record for u32 {
    const SIZE: usize = 4;
    fn encode(&self, buf: &mut [u8]) {
        codec::put_u32(buf, 0, *self);
    }
    fn decode(buf: &[u8]) -> Self {
        codec::get_u32(buf, 0)
    }
}

impl Record for (f64, f64) {
    const SIZE: usize = 16;
    fn encode(&self, buf: &mut [u8]) {
        codec::put_f64(buf, 0, self.0);
        codec::put_f64(buf, 8, self.1);
    }
    fn decode(buf: &[u8]) -> Self {
        (codec::get_f64(buf, 0), codec::get_f64(buf, 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u8; T::SIZE];
        v.encode(&mut buf);
        assert_eq!(T::decode(&buf), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(42u32);
        roundtrip(-1.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip((3.25f64, -7.5f64));
    }

    #[test]
    fn codec_offsets() {
        let mut buf = vec![0u8; 32];
        codec::put_f64(&mut buf, 0, 1.5);
        codec::put_u64(&mut buf, 8, 77);
        codec::put_u32(&mut buf, 16, 5);
        assert_eq!(codec::get_f64(&buf, 0), 1.5);
        assert_eq!(codec::get_u64(&buf, 8), 77);
        assert_eq!(codec::get_u32(&buf, 16), 5);
    }

    #[test]
    fn infinity_and_nan_bits_survive() {
        let mut buf = vec![0u8; 8];
        f64::INFINITY.encode(&mut buf);
        assert_eq!(f64::decode(&buf), f64::INFINITY);
        f64::NAN.encode(&mut buf);
        assert!(f64::decode(&buf).is_nan());
    }
}
