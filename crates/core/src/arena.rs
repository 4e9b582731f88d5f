//! The byte arena holding all data nodes, with access-tracked readers.
//!
//! Every data node of the index lives contiguously inside one `Vec<u8>`
//! (paper, Fig. 4: the hash table stores offsets into a node heap). Reads go
//! through [`Cursor`], which reports each primitive read to an
//! [`AccessTracker`] so the same scanning code powers wall-clock benchmarks,
//! byte accounting and the hardware-counter simulation.

use broadmatch_memcost::AccessTracker;

/// Growable byte arena with little-endian primitive writers.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    bytes: Vec<u8>,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Arena {
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Release capacity beyond the current length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }

    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    #[allow(dead_code)] // used by tests and diagnostics
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    pub(crate) fn slice(&self, start: usize, end: usize) -> &[u8] {
        &self.bytes[start..end]
    }

    pub(crate) fn push_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    pub(crate) fn push_u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn push_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn push_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128 unsigned varint.
    pub(crate) fn push_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.bytes.push(byte);
                return;
            }
            self.bytes.push(byte | 0x80);
        }
    }

    /// Append raw bytes (node relocation, diagnostics).
    #[allow(dead_code)]
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }
}

/// Zigzag encoding for signed deltas (bid-price delta compression, §VI).
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A reader over a byte slice that reports every read to a tracker.
///
/// The first read after construction is the random access (the pointer chase
/// into the node); everything after continues the sequential run, matching
/// the paper's cost decomposition.
pub(crate) struct Cursor<'a, T: AccessTracker> {
    bytes: &'a [u8],
    /// Logical address of `bytes[0]` in the index's address space.
    base_addr: u64,
    pos: usize,
    tracker: &'a mut T,
    first: bool,
}

impl<'a, T: AccessTracker> Cursor<'a, T> {
    pub(crate) fn new(bytes: &'a [u8], base_addr: u64, tracker: &'a mut T) -> Self {
        Cursor {
            bytes,
            base_addr,
            pos: 0,
            tracker,
            first: true,
        }
    }

    #[inline]
    #[allow(dead_code)]
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    pub(crate) fn tracker(&mut self) -> &mut T {
        self.tracker
    }

    #[inline]
    fn account(&mut self, len: usize) {
        let addr = self.base_addr + self.pos as u64;
        if self.first {
            self.tracker.random_access(addr, len);
            self.first = false;
        } else {
            self.tracker.sequential_read(addr, len);
        }
    }

    #[inline]
    pub(crate) fn read_u8(&mut self) -> u8 {
        self.account(1);
        let v = self.bytes[self.pos];
        self.pos += 1;
        v
    }

    #[inline]
    pub(crate) fn read_u16(&mut self) -> u16 {
        self.account(2);
        let v = u16::from_le_bytes(self.bytes[self.pos..self.pos + 2].try_into().expect("len"));
        self.pos += 2;
        v
    }

    #[inline]
    pub(crate) fn read_u32(&mut self) -> u32 {
        self.account(4);
        let v = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().expect("len"));
        self.pos += 4;
        v
    }

    #[inline]
    pub(crate) fn read_u64(&mut self) -> u64 {
        self.account(8);
        let v = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().expect("len"));
        self.pos += 8;
        v
    }

    #[inline]
    pub(crate) fn read_varint(&mut self) -> u64 {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            self.account(1);
            let byte = self.bytes[self.pos];
            self.pos += 1;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return v;
            }
            shift += 7;
            debug_assert!(shift < 64, "varint too long");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadmatch_memcost::{CountingTracker, NullTracker};

    #[test]
    fn primitives_round_trip() {
        let mut a = Arena::new();
        a.push_u8(7);
        a.push_u16(300);
        a.push_u32(70_000);
        a.push_u64(1 << 40);
        a.push_varint(0);
        a.push_varint(127);
        a.push_varint(128);
        a.push_varint(u64::MAX);

        let mut t = NullTracker;
        let mut c = Cursor::new(a.as_slice(), 0, &mut t);
        assert_eq!(c.read_u8(), 7);
        assert_eq!(c.read_u16(), 300);
        assert_eq!(c.read_u32(), 70_000);
        assert_eq!(c.read_u64(), 1 << 40);
        assert_eq!(c.read_varint(), 0);
        assert_eq!(c.read_varint(), 127);
        assert_eq!(c.read_varint(), 128);
        assert_eq!(c.read_varint(), u64::MAX);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 123456, -987654] {
            assert_eq!(unzigzag(zigzag(v)), v, "v={v}");
        }
        // Small magnitudes stay small.
        assert!(zigzag(-3) < 8);
    }

    #[test]
    fn cursor_accounts_first_read_as_random() {
        let mut a = Arena::new();
        a.push_u32(1);
        a.push_u32(2);
        let mut t = CountingTracker::new();
        let mut c = Cursor::new(a.as_slice(), 0x1000, &mut t);
        c.read_u32();
        c.read_u32();
        assert_eq!(t.random_accesses, 1);
        assert_eq!(t.sequential_reads, 1);
        assert_eq!(t.bytes_total(), 8);
    }

    #[test]
    fn varint_sizes() {
        let mut a = Arena::new();
        a.push_varint(5);
        assert_eq!(a.len(), 1);
        a.push_varint(300);
        assert_eq!(a.len(), 3); // 1 + 2
    }
}
