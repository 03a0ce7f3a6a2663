//! The one framed record format and the one field codec.
//!
//! The sim-cache shards (`persist.rs`), the `nvpd` write-ahead journal
//! and the wire protocol ([`crate::wire`]) all carry the same frame:
//!
//! ```text
//! [len: u32 le] [crc32: u32 le] [payload: len bytes]      0 < len ≤ MAX
//! ```
//!
//! `MAX` is each user's own bound, small enough that a corrupt or
//! hostile length prefix cannot make a reader allocate without limit.
//! The CRC-32 is the checkpoint subsystem's ([`nvp_sim::crc32_bytes`]) —
//! checkpoint, cache, journal and wire integrity share one checksum — and
//! covers the payload. A log file is an 8-byte magic (format name plus
//! schema digit) followed by frames; [`scan`] reads a whole image,
//! [`read_frame`] reads one frame off a stream.
//!
//! Damage is counted, never served. A log scan stops at a torn tail or
//! an implausible length (nothing after either can be framed), skips a
//! CRC-bad record and resumes at the next length prefix, and tolerates a
//! magic written twice by two processes creating the same file. A
//! damaged file is kept as evidence and healed in one step
//! ([`quarantine`]); every whole-file write goes through one
//! tmp-fsync-rename ([`replace`]).
//!
//! Payloads are built from fields: integers little-endian, floats as
//! IEEE-754 bit patterns (so decoded values are bit-identical), strings
//! and byte strings behind a `u32` length. [`Reader`] decodes them with
//! every read bounds-checked: malformed input is an error, never a panic.

use std::fs;
use std::io::{self, Read, Write as _};
use std::path::{Path, PathBuf};

use nvp_sim::crc32_bytes;

/// Length of the magic that opens every log file.
pub const MAGIC_BYTES: usize = 8;

/// Length of a frame header: the length prefix and the CRC.
const HEADER_BYTES: usize = 8;

/// The error every malformed input maps to.
#[must_use]
pub fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Whether a length prefix may be believed: `0 < len ≤ max`.
fn plausible(len: u32, max: u32) -> bool {
    0 < len && len <= max
}

fn parse_header(header: &[u8; HEADER_BYTES]) -> (u32, u32) {
    let [a, b, c, d, e, f, g, h] = *header;
    (u32::from_le_bytes([a, b, c, d]), u32::from_le_bytes([e, f, g, h]))
}

/// Appends one frame holding `payload` to `out`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`], with `out` untouched, when the
/// payload is empty or longer than `max`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8], max: u32) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| plausible(len, max))
        .ok_or_else(|| bad("record exceeds its frame bound"))?;
    out.reserve(HEADER_BYTES + payload.len());
    put_u32(out, len);
    put_u32(out, crc32_bytes(payload));
    out.extend_from_slice(payload);
    Ok(())
}

/// A whole log image: `magic`, then one frame per payload.
///
/// # Errors
///
/// As [`put_frame`], for any payload out of bounds.
pub fn log_image<P: AsRef<[u8]>>(
    magic: &[u8; MAGIC_BYTES],
    payloads: impl IntoIterator<Item = P>,
    max: u32,
) -> io::Result<Vec<u8>> {
    let mut image = magic.to_vec();
    for payload in payloads {
        put_frame(&mut image, payload.as_ref(), max)?;
    }
    Ok(image)
}

/// What [`scan`] recovered from a log image.
#[derive(Debug, Default)]
pub struct Scan<'a> {
    /// The payload of every intact record, in file order.
    pub payloads: Vec<&'a [u8]>,
    /// The byte offset in the image of each of those records' frames,
    /// where [`read_frame`] can read it again.
    pub offsets: Vec<u64>,
    /// Damage seen, one count each: a missing or foreign magic (the
    /// image is then skipped whole), a CRC-bad record, or a torn or
    /// implausibly long record that ended the scan.
    pub damaged: u64,
}

/// Walks a whole log image, borrowing every intact payload from it.
#[must_use]
pub fn scan<'a>(image: &'a [u8], magic: &[u8; MAGIC_BYTES], max: u32) -> Scan<'a> {
    let mut scan = Scan::default();
    let Some(mut rest) = image.strip_prefix(magic.as_slice()) else {
        scan.damaged = 1; // empty, foreign or stale-schema file
        return scan;
    };
    while !rest.is_empty() {
        // A magic written twice by racing creators. No length prefix
        // can equal one: every magic reads as a length above any bound.
        if let Some(after) = rest.strip_prefix(magic.as_slice()) {
            rest = after;
            continue;
        }
        let Some((header, after)) = rest.split_first_chunk::<HEADER_BYTES>() else {
            scan.damaged += 1; // torn header
            break;
        };
        let offset = (image.len() - rest.len()) as u64;
        let (len, crc) = parse_header(header);
        let Some((payload, after)) =
            after.split_at_checked(len as usize).filter(|_| plausible(len, max))
        else {
            scan.damaged += 1; // torn tail, or framing no longer trustworthy
            break;
        };
        rest = after;
        if crc32_bytes(payload) == crc {
            scan.payloads.push(payload);
            scan.offsets.push(offset);
        } else {
            scan.damaged += 1;
        }
    }
    scan
}

/// Reads one frame off a stream and returns its payload, checking the
/// length bound before allocating and the CRC before returning.
///
/// # Errors
///
/// Any I/O error from the reader: a stream cut anywhere surfaces as
/// [`io::ErrorKind::UnexpectedEof`]. An implausible length or a CRC
/// mismatch is [`io::ErrorKind::InvalidData`].
pub fn read_frame<R: Read>(r: &mut R, max: u32) -> io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let (len, crc) = parse_header(&header);
    if !plausible(len, max) {
        return Err(bad(&format!("implausible frame length {len}")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32_bytes(&payload) != crc {
        return Err(bad("frame CRC mismatch"));
    }
    Ok(payload)
}

/// Atomically replaces `path` with `bytes`: writes a `.tmp` sibling,
/// fsyncs it, renames it over `path`, then fsyncs the directory, so
/// readers and crashes see the old file or the new one, never half of
/// either, and an append to the new file cannot outlive its name.
///
/// # Errors
///
/// Any I/O error from the write, the fsyncs or the rename.
pub fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs::File::open(dir)?.sync_all()
}

/// Keeps a damaged file as evidence under the first free
/// `<name>.quarantine[.N]` sibling and returns that path. With
/// `salvaged`, the file is copied there and then [`replace`]d by the
/// salvaged image — a crash in between leaves the damaged file to scan
/// again, so nothing salvageable is lost. Without, it is moved there.
///
/// # Errors
///
/// No free name among 1000, or any I/O error from the copy, rename or
/// replacement.
pub fn quarantine(path: &Path, salvaged: Option<&[u8]>) -> io::Result<PathBuf> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other("path has no utf-8 file name"))?;
    let target = (1..=1000u32)
        .map(|n| match n {
            1 => path.with_file_name(format!("{name}.quarantine")),
            n => path.with_file_name(format!("{name}.quarantine.{n}")),
        })
        .find(|candidate| !candidate.exists())
        .ok_or_else(|| io::Error::other("no free quarantine name after 1000 attempts"))?;
    match salvaged {
        Some(image) => {
            fs::copy(path, &target)?;
            replace(path, image)?;
        }
        None => fs::rename(path, &target)?,
    }
    Ok(target)
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its little-endian IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a list of `f64`s behind its `u32` count.
///
/// # Panics
///
/// On a list of 4 Gi elements or more, far past every frame bound.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    put_u32(out, u32::try_from(values.len()).expect("list below frame bound"));
    values.iter().for_each(|&v| put_f64(out, v));
}

/// Appends a byte string behind its `u32` length.
///
/// # Panics
///
/// On a byte string of 4 GiB or more, far past every frame bound.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("field below frame bound"));
    out.extend_from_slice(bytes);
}

/// Appends a UTF-8 string behind its `u32` length.
///
/// # Panics
///
/// As [`put_bytes`].
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Cursor over a payload. Every read is bounds-checked: a truncated
/// field, and each check named in a method's summary, is an
/// [`io::ErrorKind::InvalidData`] error, never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, off: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }

    /// The next `n` raw bytes. (The per-field reads are inlined: they
    /// are most of a shard reload's decoding time.)
    #[inline]
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.off.checked_add(n).ok_or_else(|| bad("length overflow"))?;
        let slice = self.buf.get(self.off..end).ok_or_else(|| bad("truncated field"))?;
        self.off = end;
        Ok(slice)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// A `u8`.
    #[inline]
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A `0`/`1` flag; any other byte is an error naming `what`.
    pub fn flag(&mut self, what: &str) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad(&format!("invalid {what} flag"))),
        }
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> io::Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u64` that must fit a `usize`.
    pub fn usize(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| bad("field exceeds usize"))
    }

    /// A raw 32-byte digest.
    #[inline]
    pub fn digest(&mut self) -> io::Result<[u8; 32]> {
        self.array()
    }

    /// A byte string behind its `u32` length.
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A UTF-8 string behind its `u32` length.
    pub fn str(&mut self) -> io::Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in string field"))
    }

    /// A `u32` element count, bounded by the bytes still available
    /// (each element costs at least `min_bytes`), so a corrupt count
    /// cannot drive a huge allocation.
    #[inline]
    pub fn count(&mut self, min_bytes: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(bad("element count exceeds frame size"));
        }
        Ok(n)
    }

    /// A `u32`-counted list of `f64`s (see [`put_f64s`]).
    #[inline]
    pub fn f64s(&mut self) -> io::Result<Vec<f64>> {
        let n = self.count(8)?;
        let bits = self.take(8 * n)?.chunks_exact(8);
        Ok(bits.map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes"))).collect())
    }

    /// Checks that every byte was consumed.
    #[inline]
    pub fn done(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad("trailing bytes after message body"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, Message};
    use crate::{CampaignRequest, ExpConfig};

    /// A `journal.log` as `nvpd` writes it: quick `t1` jobs 0 and 1
    /// admitted (seeds 1 and 2), job 0 started and completed.
    const JOURNAL: &str = concat!(
        "6e76706a726e6c3190000000bf9574a20100000000000000008bda2511c5368c38f914d4013058e6",
        "f9129327b3a985ab9316c7984b8cd45e3763000000060000006e7670642f34010100000002000000",
        "74310000000000000040020000000100000000000000020000000000000007000000000000001000",
        "00000000000010000000000000000300000000000000010000000000000001010000000000000000",
        "90000000cc1d0dd1010100000000000000e5d7a11a2ccdf85655bc91b999b959b430b5b54975fdb2",
        "b0ad3fb8356b3dec9b63000000060000006e7670642f340101000000020000007431000000000000",
        "00400200000001000000000000000200000000000000070000000000000010000000000000001000",
        "000000000000030000000000000001000000000000000102000000000000000009000000283cffc8",
        "020000000000000000290000009bc5114b030000000000000000c5c5c5c5c5c5c5c5c5c5c5c5c5c5",
        "c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        let digit = |i: usize| u8::from_str_radix(&hex[i..i + 2], 16).unwrap();
        (0..hex.len()).step_by(2).map(digit).collect()
    }

    /// Truncates `image` at every byte, flips each of its bits, and
    /// swaps in the previous schema's magic and a foreign one. `load` is
    /// the user's loader: it returns the records it served, encoded,
    /// and the damage it counted. No damaged record may be served; a
    /// cut on a record boundary reads as a shorter clean log, and every
    /// other damage is counted.
    fn assert_log_damage_never_served(
        image: &[u8],
        records: usize,
        stale: &[u8; MAGIC_BYTES],
        load: impl Fn(&[u8]) -> (Vec<Vec<u8>>, u64),
    ) {
        let (originals, damage) = load(image);
        assert_eq!((originals.len(), damage), (records, 0));
        let mut ends = vec![MAGIC_BYTES];
        for payload in &originals {
            ends.push(ends[ends.len() - 1] + HEADER_BYTES + payload.len());
        }
        assert_eq!(ends[records], image.len());
        let served_only_originals = |bytes: &[u8]| {
            let (served, damage) = load(bytes);
            assert!(served.iter().all(|s| originals.contains(s)), "a damaged record was served");
            (served.len(), damage)
        };
        for cut in 0..image.len() {
            let (served, damage) = served_only_originals(&image[..cut]);
            let intact = ends[1..].iter().filter(|&&end| end <= cut).count();
            assert_eq!(served, intact, "cut at {cut}");
            assert_eq!(damage == 0, ends.contains(&cut), "cut at {cut}");
        }
        for bit in 0..image.len() * 8 {
            let mut flipped = image.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(served_only_originals(&flipped).1 > 0, "flip of bit {bit} went unnoticed");
        }
        for magic in [stale, b"foreign!"] {
            let mut foreign = image.to_vec();
            foreign[..MAGIC_BYTES].copy_from_slice(magic);
            assert_eq!(served_only_originals(&foreign), (0, 1), "magic {magic:?}");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_shard_serves_no_damaged_record() {
        let shard = crate::persist::tests::mixed_shard();
        assert_log_damage_never_served(&shard, 2, b"nvpsimc2", crate::persist::tests::load_shard);
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_journal_serves_no_damaged_record() {
        let load = |bytes: &[u8]| {
            let log = scan(bytes, b"nvpjrnl1", 1 << 20);
            (log.payloads.iter().map(|p| p.to_vec()).collect(), log.damaged)
        };
        assert_log_damage_never_served(&unhex(JOURNAL), 4, b"nvpjrnl0", load);
    }

    /// Reads messages off `bytes` until the first error.
    fn read_all(bytes: &[u8]) -> (Vec<Message>, io::ErrorKind) {
        let mut stream = io::Cursor::new(bytes);
        let mut decoded = Vec::new();
        loop {
            match wire::read_frame(&mut stream) {
                Ok(msg) => decoded.push(msg),
                Err(e) => return (decoded, e.kind()),
            }
        }
    }

    #[test]
    fn every_cut_and_bit_flip_of_a_wire_stream_errors_and_decodes_nothing_damaged() {
        let mut request = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
        request.seed = Some(3);
        let messages = [
            Message::Submit(request),
            Message::Accepted { job: 5, queued: 2 },
            Message::Result { job: 5, replayed: false, result: wire::tests::short_f1_result() },
        ];
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for msg in &messages {
            wire::write_frame(&mut stream, msg).unwrap();
            ends.push(stream.len());
        }
        assert_eq!(read_all(&stream), (messages.to_vec(), io::ErrorKind::UnexpectedEof));
        for cut in 0..stream.len() {
            let (decoded, kind) = read_all(&stream[..cut]);
            let intact = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(decoded, messages[..intact], "cut at {cut}");
            assert_eq!(kind, io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        for bit in 0..stream.len() * 8 {
            let mut flipped = stream.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let (decoded, kind) = read_all(&flipped);
            assert!(decoded.len() < messages.len(), "flip of bit {bit} went unnoticed");
            assert_eq!(decoded, messages[..decoded.len()], "flip of bit {bit}");
            assert!(
                matches!(kind, io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "flip of bit {bit}: {kind:?}"
            );
        }
    }
}
