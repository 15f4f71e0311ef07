//! Byte-level primitives shared by every format this repo writes: the
//! `[len][crc][payload]` frame, the little-endian [`Cursor`] that reads
//! payloads back, the FNV-1a content hash that names snapshot files, and
//! the [`NetworkEvent`] wire form.
//!
//! ## The frame
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. The WAL ([`crate::wal`]),
//! FGR1 replication ([`crate::repl`]) and fg-serve's FGQ1 protocol use
//! this one layout, and this module is the only code that writes a
//! frame ([`frame`]), bounds-checks a length prefix ([`frame_header`])
//! or checks a frame's CRC ([`check_frame`], [`frame_at`]). Each format
//! passes its own length bounds in, and the length is checked before a
//! payload byte is read or allocated. fg-lint's `one-frame-codec` rule
//! keeps `crc32(` calls inside this file.
//!
//! Both hashes are spelled out by hand for the same reason as
//! [`fg_core::ReportDigest`]: a checked-in artifact (a WAL, a snapshot
//! name) must only ever change when *behaviour* changes, never because a
//! hasher implementation or seed did. The file is an fg-lint
//! panic-free zone, because FGQ1 requests parse through [`Cursor`].

use fg_core::NetworkEvent;
use fg_graph::NodeId;
use std::ops::RangeInclusive;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC-32 (IEEE) checksum of `bytes` — the integrity check of
/// every frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The 64-bit FNV-1a hash of `bytes` — the content hash that names
/// snapshot files (`snap-<hash:016x>.bin`). Same constants as
/// [`fg_core::ReportDigest`], folded over raw bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Wraps `payload` in a frame: its length, its CRC-32, then the payload.
/// Callers keep the payload within their format's length bounds.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(payload).to_le_bytes());
    framed.extend_from_slice(payload);
    framed
}

/// Splits a frame header into the payload length and the claimed CRC,
/// refusing a length outside `bounds` before any payload byte is read.
///
/// # Errors
///
/// A description naming the length and the bounds it broke.
#[inline]
pub fn frame_header(
    header: [u8; 8],
    bounds: RangeInclusive<usize>,
) -> Result<(usize, u32), String> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if !bounds.contains(&len) {
        return Err(format!(
            "length prefix {len} is outside {}..={}",
            bounds.start(),
            bounds.end()
        ));
    }
    Ok((len, crc))
}

/// Checks a frame's payload against the CRC its header claims.
///
/// # Errors
///
/// A description naming both checksums on a mismatch.
#[inline]
pub fn check_frame(payload: &[u8], crc: u32) -> Result<(), String> {
    let actual = crc32(payload);
    if actual != crc {
        return Err(format!(
            "payload CRC {actual:#010x} does not match header {crc:#010x}"
        ));
    }
    Ok(())
}

/// Reads the whole frame at the head of `buf`: its payload and the
/// frame's length in bytes, header included.
///
/// # Errors
///
/// A description of the first violation: a truncated header or payload,
/// a length outside `bounds`, or a CRC mismatch.
pub fn frame_at(buf: &[u8], bounds: RangeInclusive<usize>) -> Result<(&[u8], usize), String> {
    let mut cur = Cursor::new(buf);
    let (len, crc) = frame_header(cur.array()?, bounds)?;
    let payload = cur.take(len)?;
    check_frame(payload, crc)?;
    Ok((payload, 8 + len))
}

/// Event wire tags.
const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;

/// Appends the wire form of `event` to `out`: a tag byte, then the
/// little-endian node ids (inserts carry a count first).
pub(crate) fn encode_event(out: &mut Vec<u8>, event: &NetworkEvent) {
    match event {
        NetworkEvent::Insert { neighbors } => {
            out.push(TAG_INSERT);
            out.extend_from_slice(&(neighbors.len() as u32).to_le_bytes());
            for x in neighbors {
                out.extend_from_slice(&x.raw().to_le_bytes());
            }
        }
        NetworkEvent::Delete { node } => {
            out.push(TAG_DELETE);
            out.extend_from_slice(&node.raw().to_le_bytes());
        }
    }
}

/// A bounds-checked little-endian reader. A read past the end is an
/// `Err` naming the offset, never a panic.
///
/// fg-serve parses every FGQ1 request and response through it, so its
/// small methods (and [`frame_header`] and [`check_frame`]) are
/// `#[inline]`: without that, each read is an out-of-line call across
/// the crate boundary.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Consumes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let (slice, _) = self
            .unread()
            .split_at_checked(n)
            .ok_or_else(|| self.short(n))?;
        self.pos += n;
        Ok(slice)
    }

    /// Consumes the next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let out = *self.unread().first_chunk().ok_or_else(|| self.short(N))?;
        self.pos += N;
        Ok(out)
    }

    #[inline]
    fn unread(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    #[cold]
    fn short(&self, wanted: usize) -> String {
        format!("truncated at byte {}: wanted {wanted} more", self.pos)
    }

    /// Consumes one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Consumes a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Consumes a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Consumes a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// How many bytes are left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.unread().len()
    }

    /// Consumes and returns everything not yet read — for trailing
    /// variable-length fields that run to the end of the buffer.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = self.unread();
        self.pos = self.buf.len();
        slice
    }

    /// Ends a parse that must consume the buffer exactly: an `Err` if
    /// bytes remain.
    #[inline]
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after a complete payload")),
        }
    }
}

/// Decodes one event from `cur` (the inverse of [`encode_event`]).
pub(crate) fn decode_event(cur: &mut Cursor<'_>) -> Result<NetworkEvent, String> {
    match cur.u8()? {
        TAG_INSERT => {
            let count = cur.u32()? as usize;
            let mut neighbors = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                neighbors.push(NodeId::new(cur.u32()?));
            }
            Ok(NetworkEvent::insert(neighbors))
        }
        TAG_DELETE => Ok(NetworkEvent::delete(NodeId::new(cur.u32()?))),
        tag => Err(format!("unknown event tag {tag}")),
    }
}

/// Appends the wire form of an event list: a little-endian `u32` count,
/// then each event as `encode_event` lays it out. The serving
/// protocol's submit ops and the replication stream share this with the
/// WAL so an event submitted over a socket and the record it becomes
/// agree byte-for-byte.
pub fn encode_events(out: &mut Vec<u8>, events: &[NetworkEvent]) {
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for event in events {
        encode_event(out, event);
    }
}

/// Decodes [`encode_events`] output, rejecting truncation and trailing
/// bytes.
///
/// # Errors
///
/// A human-readable description of the first malformation.
pub fn decode_events(buf: &[u8]) -> Result<Vec<NetworkEvent>, String> {
    let mut cur = Cursor::new(buf);
    let count = cur.u32()? as usize;
    let mut events = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        events.push(decode_event(&mut cur)?);
    }
    cur.finish()?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_bytes_are_pinned() {
        assert_eq!(
            frame(b"abc"),
            [3, 0, 0, 0, 0xc2, 0x41, 0x24, 0x35, b'a', b'b', b'c']
        );
    }

    #[test]
    fn fnv64_matches_report_digest_fold() {
        // Folding eight bytes here must agree with ReportDigest::word.
        let word = 0x0123_4567_89ab_cdefu64;
        let via_digest = fg_core::ReportDigest::new().word(word).value();
        assert_eq!(fnv64(&word.to_le_bytes()), via_digest);
    }

    #[test]
    fn events_round_trip() {
        let events = [
            NetworkEvent::insert([NodeId::new(3), NodeId::new(9), NodeId::new(0)]),
            NetworkEvent::delete(NodeId::new(41)),
        ];
        for event in &events {
            let mut buf = Vec::new();
            encode_event(&mut buf, event);
            let mut cur = Cursor::new(&buf);
            assert_eq!(&decode_event(&mut cur).unwrap(), event);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut cur = Cursor::new(&[7u8]);
        assert!(decode_event(&mut cur).unwrap_err().contains("tag"));
    }

    #[test]
    fn event_lists_round_trip_and_reject_trailing_bytes() {
        let events = vec![
            NetworkEvent::insert([NodeId::new(3), NodeId::new(9)]),
            NetworkEvent::delete(NodeId::new(41)),
        ];
        let mut buf = Vec::new();
        encode_events(&mut buf, &events);
        assert_eq!(decode_events(&buf).unwrap(), events);
        buf.push(0);
        assert!(decode_events(&buf).unwrap_err().contains("trailing"));
        assert!(decode_events(&buf[..buf.len() - 3]).is_err());
    }
}
