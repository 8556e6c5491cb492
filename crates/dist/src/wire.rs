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
//! Optional values, booleans and sequences of composite elements have one
//! framing each ([`WireWriter::option`] / [`WireWriter::bool`] /
//! [`WireWriter::seq`] and their reader twins), which every codec in the
//! workspace goes through. Decoding never panics: every [`WireReader`]
//! method returns a [`WireResult`], and what to do with a malformed frame
//! is the caller's decision — the parent refuses the world, a worker dies.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload — far above any real message
/// (the largest is a `LOAD` frame carrying a CSR matrix), small enough to
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

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
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

    /// Appends an optional value: a presence `bool`, then `put`'s bytes
    /// when it is there.
    pub fn option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Appends a value of a closed set (the variants of a fieldless enum)
    /// as its index in `all`.
    ///
    /// # Panics
    /// Panics if `all` does not list `v` — a variant added without its
    /// codec entry.
    pub fn variant<T: PartialEq>(&mut self, all: &[T], v: &T) {
        let index = all.iter().position(|x| x == v);
        self.usize(index.expect("wire: variant missing from its codec table"));
    }

    /// Appends a length-prefixed sequence, each element written by `put`.
    pub fn seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            put(self, item);
        }
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

/// What a decode returns: the value, or what was wrong with the payload.
pub type WireResult<T> = Result<T, String>;

/// Little-endian payload parser. Every read is fallible — a truncated,
/// oversized or otherwise malformed payload is an `Err`, so the side that
/// does not trust its peer (the parent, reading worker frames) can refuse
/// the frame instead of unwinding.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Parses `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Parses all of `buf` with `get`: an error if `get` fails or leaves
    /// bytes over.
    pub fn parse<T>(buf: &'a [u8], get: impl FnOnce(&mut Self) -> WireResult<T>) -> WireResult<T> {
        let mut r = WireReader::new(buf);
        let value = get(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// Ends the parse: an error if bytes are left over.
    pub fn finish(self) -> WireResult<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            left => Err(format!("wire: {left} trailing bytes")),
        }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(format!(
                "wire: truncated payload (want {n} at {}, have {left})",
                self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (a byte that must be 0 or 1).
    pub fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("wire: byte {b} is not a bool")),
        }
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("took 8 bytes")))
    }

    /// Reads a `usize`.
    pub fn usize(&mut self) -> WireResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("wire: {v} overflows usize"))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads what [`WireWriter::option`] wrote.
    pub fn option<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> WireResult<T>,
    ) -> WireResult<Option<T>> {
        self.bool()?.then(|| get(self)).transpose()
    }

    /// Reads what [`WireWriter::variant`] wrote; `what` names the set in
    /// the error for an index outside it.
    pub fn variant<T: Copy>(&mut self, all: &[T], what: &str) -> WireResult<T> {
        let index = self.usize()?;
        let v = all.get(index).copied();
        v.ok_or_else(|| format!("wire: unknown {what} {index}"))
    }

    /// Reads the count of a sequence whose elements take at least
    /// `min_bytes` each, checked against the bytes left so a corrupt count
    /// cannot size an allocation.
    fn count(&mut self, min_bytes: usize) -> WireResult<usize> {
        let n = self.usize()?;
        let left = (self.buf.len() - self.pos) / min_bytes;
        if n > left {
            return Err(format!(
                "wire: truncated payload (sequence of {n} elements, room for {left})"
            ));
        }
        Ok(n)
    }

    /// Reads what [`WireWriter::seq`] wrote.
    pub fn seq<T>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> WireResult<T>,
    ) -> WireResult<Vec<T>> {
        let n = self.count(1)?;
        (0..n).map(|_| get(self)).collect()
    }

    /// Reads a length-prefixed `f64` sequence.
    pub fn f64s(&mut self) -> WireResult<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `f64` sequence of exactly `out.len()`
    /// elements straight into `out`.
    pub fn f64s_into(&mut self, out: &mut [f64]) -> WireResult<()> {
        let n = self.count(8)?;
        if n != out.len() {
            return Err(format!(
                "wire: f64 sequence of {n} elements, expected {}",
                out.len()
            ));
        }
        for (o, bytes) in out.iter_mut().zip(self.take(8 * n)?.chunks_exact(8)) {
            *o = f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8-byte chunk")));
        }
        Ok(())
    }

    /// Reads a length-prefixed `usize` sequence.
    pub fn usizes(&mut self) -> WireResult<Vec<usize>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// Reads a length-prefixed `u64` sequence.
    pub fn u64s(&mut self) -> WireResult<Vec<u64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("wire: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip_is_exact() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.bool(true);
        w.u64(u64::MAX);
        w.usize(12345);
        w.f64(-0.1);
        w.f64(f64::NAN);
        w.f64s(&[1.5, f64::INFINITY, -0.0]);
        w.usizes(&[0, 9, 4]);
        w.u64s(&[3]);
        w.str("spcg — proc");
        w.option(Some(2.5), WireWriter::f64);
        w.option(None, WireWriter::f64);
        w.seq(&[(1usize, -1.0), (2, -2.0)], |w, &(i, v)| {
            w.usize(i);
            w.f64(v);
        });
        w.variant(&['a', 'b'], &'b');
        w.usize(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.usize(), Ok(12345));
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        let fs = r.f64s().unwrap();
        assert_eq!(fs[0], 1.5);
        assert_eq!(fs[1], f64::INFINITY);
        assert_eq!(fs[2].to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.usizes(), Ok(vec![0, 9, 4]));
        assert_eq!(r.u64s(), Ok(vec![3]));
        assert_eq!(r.str().unwrap(), "spcg — proc");
        assert_eq!(r.option(WireReader::f64), Ok(Some(2.5)));
        assert_eq!(r.option(WireReader::f64), Ok(None));
        let pairs = r.seq(|r| Ok((r.usize()?, r.f64()?)));
        assert_eq!(pairs, Ok(vec![(1, -1.0), (2, -2.0)]));
        assert_eq!(r.variant(&['a', 'b'], "letter"), Ok('b'));
        assert!(r.variant(&['a', 'b'], "letter").is_err());
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn f64s_into_reads_the_bits_f64s_reads() {
        let vals = [1.5, f64::NEG_INFINITY, -0.0, f64::NAN];
        let mut w = WireWriter::new();
        w.f64s(&vals);
        let bytes = w.into_bytes();
        let mut into = [0.0; 4];
        let mut r = WireReader::new(&bytes);
        r.f64s_into(&mut into).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(into.map(f64::to_bits), vals.map(f64::to_bits));
        // The wrong destination length is refused, not truncated into.
        let mut short = [0.0; 3];
        assert!(WireReader::new(&bytes).f64s_into(&mut short).is_err());
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
    fn truncated_payload_is_an_error() {
        let err = WireReader::new(&[1, 2, 3]).u64().unwrap_err();
        assert!(err.contains("truncated payload"), "{err}");
        // Bytes left over, a byte that is no bool, bytes that are no UTF-8.
        assert!(WireReader::new(&[0]).finish().is_err());
        assert!(WireReader::new(&[2]).bool().is_err());
        let mut w = WireWriter::new();
        w.usize(2);
        w.u8(0xff);
        w.u8(0xfe);
        assert!(WireReader::new(&w.into_bytes()).str().is_err());
    }

    /// A count far beyond the payload must fail as truncation, before any
    /// allocation is sized from it — for every kind of sequence.
    #[test]
    fn oversized_sequence_count_is_an_error() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX >> 4);
        w.f64(1.0);
        let bytes = w.into_bytes();
        let reader = || WireReader::new(&bytes);
        assert!(reader().f64s().unwrap_err().contains("truncated payload"));
        assert!(reader().usizes().is_err());
        assert!(reader().u64s().is_err());
        assert!(reader().str().is_err());
        assert!(reader().seq(WireReader::u8).is_err());
        assert!(reader().f64s_into(&mut [0.0]).is_err());
    }
}
