//! Binary wire format of the proc backend.
//!
//! Everything the parent and the `spcg-rankd` workers say to each other is
//! a **frame**: `[tag: u8][len: u64 LE][payload: len bytes]`. Tags are
//! defined by the protocol layer in `spcg-solvers`; this module only owns
//! framing and the little-endian payload primitives, so both sides encode
//! and decode identically with zero dependencies.
//!
//! Payloads are built with [`WireWriter`] and parsed with [`WireReader`].
//! Sequences are length-prefixed (`u64` count, then the elements), `f64`s
//! travel as their IEEE-754 bit patterns — the proc backend is bitwise
//! deterministic precisely because nothing is ever formatted or rounded.
//! Decoding panics on truncated or oversized payloads: a malformed frame
//! is a protocol bug (or a dying peer, which the reader side surfaces as
//! an I/O error before parsing), never a recoverable condition.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload — far above any real message
/// (the largest is a Setup frame carrying a CSR matrix), small enough to
/// turn stream corruption into an immediate error instead of an
/// out-of-memory wedge.
const MAX_FRAME: u64 = 1 << 34;

/// Writes `[tag][len][payload]` to `w` and flushes.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[tag])?;
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one `[tag][len][payload]` frame from `r`. An EOF before the first
/// byte — the peer closed cleanly or died — surfaces as
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((tag[0], payload))
}

/// Little-endian payload builder.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh empty payload.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (as `u64`).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed `f64` sequence.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `usize` sequence.
    pub fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    /// Appends a length-prefixed `u64` sequence.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian payload parser. Methods panic on truncation — see the
/// module docs for why that is the right failure mode here.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Parses `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let end = self.pos.checked_add(n).expect("wire: length overflow");
        assert!(
            end <= self.buf.len(),
            "wire: truncated payload (want {n} at {}, have {})",
            self.pos,
            self.buf.len()
        );
        let out = &self.buf[self.pos..end];
        self.pos = end;
        out
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Reads a `usize`.
    pub fn usize(&mut self) -> usize {
        let v = self.u64();
        usize::try_from(v).expect("wire: usize overflow")
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// Reads the count of a sequence of 8-byte elements, checked against
    /// the bytes left so a corrupt count cannot size an allocation.
    fn count(&mut self) -> usize {
        let n = self.usize();
        let left = (self.buf.len() - self.pos) / 8;
        assert!(
            n <= left,
            "wire: truncated payload (sequence of {n} elements, {left} left)"
        );
        n
    }

    /// Reads a length-prefixed `f64` sequence.
    pub fn f64s(&mut self) -> Vec<f64> {
        let n = self.count();
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `f64` sequence of exactly `out.len()`
    /// elements straight into `out`.
    pub fn f64s_into(&mut self, out: &mut [f64]) {
        let n = self.count();
        assert_eq!(n, out.len(), "wire: f64 sequence length mismatch");
        for (o, bytes) in out.iter_mut().zip(self.take(8 * n).chunks_exact(8)) {
            *o = f64::from_bits(u64::from_le_bytes(bytes.try_into().unwrap()));
        }
    }

    /// Reads a length-prefixed `usize` sequence.
    pub fn usizes(&mut self) -> Vec<usize> {
        let n = self.count();
        (0..n).map(|_| self.usize()).collect()
    }

    /// Reads a length-prefixed `u64` sequence.
    pub fn u64s(&mut self) -> Vec<u64> {
        let n = self.count();
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> String {
        let n = self.usize();
        String::from_utf8(self.take(n).to_vec()).expect("wire: invalid UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip_is_exact() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u64(u64::MAX);
        w.usize(12345);
        w.f64(-0.1);
        w.f64(f64::NAN);
        w.f64s(&[1.5, f64::INFINITY, -0.0]);
        w.usizes(&[0, 9, 4]);
        w.u64s(&[3]);
        w.str("spcg — proc");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8(), 7);
        assert_eq!(r.u64(), u64::MAX);
        assert_eq!(r.usize(), 12345);
        assert_eq!(r.f64().to_bits(), (-0.1f64).to_bits());
        assert!(r.f64().is_nan());
        let fs = r.f64s();
        assert_eq!(fs[0], 1.5);
        assert_eq!(fs[1], f64::INFINITY);
        assert_eq!(fs[2].to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.usizes(), vec![0, 9, 4]);
        assert_eq!(r.u64s(), vec![3]);
        assert_eq!(r.str(), "spcg — proc");
        assert!(r.is_done());
    }

    #[test]
    fn f64s_into_reads_the_bits_f64s_reads() {
        let vals = [1.5, f64::NEG_INFINITY, -0.0, f64::NAN];
        let mut w = WireWriter::new();
        w.f64s(&vals);
        let bytes = w.into_bytes();
        let mut into = [0.0; 4];
        let mut r = WireReader::new(&bytes);
        r.f64s_into(&mut into);
        assert!(r.is_done());
        assert_eq!(into.map(f64::to_bits), vals.map(f64::to_bits));
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 2, b"hello").unwrap();
        write_frame(&mut stream, 9, &[]).unwrap();
        let mut cur = io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cur).unwrap(), (2, b"hello".to_vec()));
        assert_eq!(read_frame(&mut cur).unwrap(), (9, Vec::new()));
        let err = read_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut stream = Vec::new();
        stream.push(1u8);
        stream.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(stream)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    #[should_panic(expected = "truncated payload")]
    fn truncated_payload_panics() {
        let mut r = WireReader::new(&[1, 2, 3]);
        r.u64();
    }

    /// A count far beyond the payload must fail as truncation, before any
    /// allocation is sized from it.
    #[test]
    #[should_panic(expected = "truncated payload")]
    fn oversized_sequence_count_panics() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX >> 4);
        w.f64(1.0);
        let bytes = w.into_bytes();
        WireReader::new(&bytes).f64s();
    }
}
