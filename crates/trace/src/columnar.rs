//! Columnar on-disk trace format.
//!
//! Attack records serialize into per-column blocks grouped into row
//! groups, wrapped in the same envelope discipline as the artifact
//! format: a magic + version header, length-prefixed tagged sections,
//! and a footer carrying the row/group counts and a checksum chained
//! over the group payloads with [`ddos_stats::codec::guard64`], the same
//! guard hash the model artifacts use. Encoding rides on the bit-exact
//! [`ddos_stats::codec`] primitives, so the byte stream is stable across
//! platforms and releases — it is pinned by a golden fingerprint.
//!
//! The writer accepts records one at a time (from a
//! [`crate::stream::CorpusStream`] or any other source) and flushes a
//! group whenever `rows_per_group` accumulate, so an Internet-scale
//! corpus encodes in constant memory. Each group is encoded into one
//! buffer allocated at its exact payload length (the hourly and bot
//! totals are summed first), and the checksum chain carries one `u64`
//! of state from group to group (DESIGN.md §19). The reader mirrors
//! that: one row group is resident at a time.
//!
//! Every failure mode is a typed [`TraceError`] — truncated files,
//! flipped bytes, alien tags and range violations all surface as errors,
//! never panics or silent corruption.

use crate::attack::{AttackId, AttackRecord, AttackVector, BotObservation};
use crate::family::FamilyId;
use crate::targets::TargetId;
use crate::time::Timestamp;
use crate::{Result, TraceError};
use ddos_astopo::Asn;
use ddos_stats::codec::{guard64, CodecError, Reader, Writer};
use std::io::{Read, Write};

/// File magic, 8 bytes.
pub const MAGIC: [u8; 8] = *b"DDOSCOL\0";
/// Current format version. Version 1 (FNV-1a footer checksum) is
/// retired: the reader refuses it like any other unknown version.
pub const VERSION: u32 = 2;
/// Default rows per row group.
pub const DEFAULT_ROWS_PER_GROUP: usize = 4_096;

/// Section tag: one row group of attack records.
const TAG_ROW_GROUP: u8 = 1;
/// Section tag: the terminal footer.
const TAG_FOOTER: u8 = 2;

/// Cheapest possible row: 8 (id) + 8 (family) + 4 + 4 (target, ASN) +
/// 8 + 8 (start, duration) + 1 + 1 (flags) bytes, before the variable
/// columns. Used to reject absurd row counts before allocating.
const MIN_ROW_BYTES: usize = 42;

/// Bytes of one row group payload holding `rows` records with `hourly`
/// hourly counts and `bots` bot observations in total: the row count,
/// the fixed-width columns, two offsets columns (length + `rows + 1`
/// entries each) and the variable-length values.
fn group_payload_len(rows: usize, hourly: usize, bots: usize) -> usize {
    8 + MIN_ROW_BYTES * rows + 2 * (8 + 8 * (rows + 1)) + 4 * hourly + 8 * bots
}

/// Encodes one row group into a codec payload: the row count, then each
/// column in full, variable-length columns as offsets + values. The
/// buffer is sized once, up front, to the exact payload length.
fn encode_group(records: &[AttackRecord]) -> Vec<u8> {
    let hourly: usize = records.iter().map(|a| a.hourly_bot_counts.len()).sum();
    let bots: usize = records.iter().map(|a| a.bots().len()).sum();
    let len = group_payload_len(records.len(), hourly, bots);
    let mut w = Writer::with_capacity(len);
    w.usize(records.len());
    for a in records {
        w.u64(a.id.0);
    }
    for a in records {
        w.usize(a.family.0);
    }
    for a in records {
        w.u32(a.target.0);
    }
    for a in records {
        w.u32(a.target_asn.0);
    }
    for a in records {
        w.u64(a.start.as_secs());
    }
    for a in records {
        w.u64(a.duration_secs);
    }
    for a in records {
        w.bool(a.multistage);
    }
    for a in records {
        w.u8(a.vector.index() as u8);
    }
    write_offsets(&mut w, records, |a| a.hourly_bot_counts.len());
    for a in records {
        for c in &a.hourly_bot_counts {
            w.u32(*c);
        }
    }
    write_offsets(&mut w, records, |a| a.bots().len());
    for a in records {
        for b in a.bots() {
            w.u32(b.ip);
        }
    }
    for a in records {
        for b in a.bots() {
            w.u32(b.asn.0);
        }
    }
    debug_assert_eq!(w.len(), len, "row group payload length");
    w.into_bytes()
}

/// Writes the exclusive prefix sums of a per-record length as a
/// length-prefixed `usize` sequence: `records.len() + 1` entries from 0.
fn write_offsets(w: &mut Writer, records: &[AttackRecord], len: impl Fn(&AttackRecord) -> usize) {
    w.usize(records.len() + 1);
    let mut acc = 0usize;
    w.usize(acc);
    for a in records {
        acc += len(a);
        w.usize(acc);
    }
}

/// Folds one row group payload into the footer checksum chain:
/// `guard64(state_le ‖ guard64(payload)_le)`. Constant memory at any
/// file length; a chain over no groups is 0.
fn chain_checksum(state: u64, payload: &[u8]) -> u64 {
    let mut link = [0u8; 16];
    link[..8].copy_from_slice(&state.to_le_bytes());
    link[8..].copy_from_slice(&guard64(payload).to_le_bytes());
    guard64(&link)
}

/// Validates an offsets column: `n + 1` entries, starting at zero,
/// nondecreasing. Returns the total value count.
fn check_offsets(offsets: &[usize], n_rows: usize, column: &str) -> Result<usize> {
    if offsets.len() != n_rows + 1 || offsets.first() != Some(&0) {
        return Err(TraceError::Format {
            detail: format!("{column} offsets: expected {} entries from 0", n_rows + 1),
        });
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(TraceError::Format { detail: format!("{column} offsets decrease") });
    }
    Ok(*offsets.last().unwrap_or(&0))
}

/// Reads `n` u32 values, guarding the allocation against a corrupted
/// count before touching memory.
fn read_u32s(r: &mut Reader<'_>, n: usize) -> Result<Vec<u32>> {
    if n.saturating_mul(4) > r.remaining() {
        return Err(CodecError::Truncated {
            needed: n.saturating_mul(4),
            remaining: r.remaining(),
        }
        .into());
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out)
}

/// Decodes one row group payload back into records.
fn decode_group(payload: &[u8]) -> Result<Vec<AttackRecord>> {
    let mut r = Reader::new(payload);
    let n = r.len(MIN_ROW_BYTES)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.u64()?);
    }
    let mut families = Vec::with_capacity(n);
    for _ in 0..n {
        families.push(r.usize()?);
    }
    let targets = read_u32s(&mut r, n)?;
    let target_asns = read_u32s(&mut r, n)?;
    let mut starts = Vec::with_capacity(n);
    for _ in 0..n {
        starts.push(r.u64()?);
    }
    let mut durations = Vec::with_capacity(n);
    for _ in 0..n {
        durations.push(r.u64()?);
    }
    let mut multistage = Vec::with_capacity(n);
    for _ in 0..n {
        multistage.push(r.bool()?);
    }
    let mut vectors = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u8()?;
        let vector = AttackVector::ALL.get(idx as usize).copied().ok_or_else(|| {
            TraceError::Format { detail: format!("vector index {idx} out of range") }
        })?;
        vectors.push(vector);
    }
    let hourly_offsets = r.usize_seq()?;
    let total_hourly = check_offsets(&hourly_offsets, n, "hourly_bot_counts")?;
    let hourly_values = read_u32s(&mut r, total_hourly)?;
    let bot_offsets = r.usize_seq()?;
    let total_bots = check_offsets(&bot_offsets, n, "bots")?;
    let bot_ips = read_u32s(&mut r, total_bots)?;
    let bot_asns = read_u32s(&mut r, total_bots)?;
    r.finish()?;

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let bots: Vec<BotObservation> = (bot_offsets[i]..bot_offsets[i + 1])
            .map(|j| BotObservation { ip: bot_ips[j], asn: Asn(bot_asns[j]) })
            .collect();
        out.push(AttackRecord::new(
            AttackId(ids[i]),
            FamilyId(families[i]),
            TargetId(targets[i]),
            Asn(target_asns[i]),
            Timestamp(starts[i]),
            durations[i],
            bots,
            hourly_values[hourly_offsets[i]..hourly_offsets[i + 1]].to_vec(),
            multistage[i],
            vectors[i],
        ));
    }
    Ok(out)
}

/// Streaming columnar writer over any [`Write`] sink.
///
/// Push records in final order (e.g. straight off a
/// [`crate::stream::CorpusStream`]); groups flush as they fill, and
/// [`ColumnarWriter::finish`] seals the file with the checksummed footer.
/// Dropping the writer without `finish` leaves a file the reader rejects
/// — truncation is always detected.
pub struct ColumnarWriter<W: Write> {
    sink: W,
    buf: Vec<AttackRecord>,
    rows_per_group: usize,
    n_groups: u64,
    n_rows: u64,
    checksum: u64,
}

impl<W: Write> ColumnarWriter<W> {
    /// Opens a writer with the default group size and writes the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`TraceError::Io`].
    pub fn new(sink: W) -> Result<Self> {
        ColumnarWriter::with_group_size(sink, DEFAULT_ROWS_PER_GROUP)
    }

    /// Opens a writer with an explicit rows-per-group (≥ 1).
    ///
    /// # Errors
    ///
    /// Rejects a zero group size; propagates I/O failures.
    pub fn with_group_size(mut sink: W, rows_per_group: usize) -> Result<Self> {
        if rows_per_group == 0 {
            return Err(TraceError::InvalidConfig {
                detail: "rows_per_group must be nonzero".to_string(),
            });
        }
        sink.write_all(&MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        Ok(ColumnarWriter {
            sink,
            buf: Vec::with_capacity(rows_per_group),
            rows_per_group,
            n_groups: 0,
            n_rows: 0,
            checksum: 0,
        })
    }

    /// Appends one record, flushing a row group when full.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn push(&mut self, record: AttackRecord) -> Result<()> {
        self.buf.push(record);
        if self.buf.len() >= self.rows_per_group {
            self.flush_group()?;
        }
        Ok(())
    }

    fn flush_group(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let payload = encode_group(&self.buf);
        self.checksum = chain_checksum(self.checksum, &payload);
        self.n_groups += 1;
        self.n_rows += self.buf.len() as u64;
        self.buf.clear();
        write_section(&mut self.sink, TAG_ROW_GROUP, &payload)
    }

    /// Flushes the tail group, writes the footer and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> Result<W> {
        self.flush_group()?;
        let mut footer = Writer::new();
        footer.u64(self.n_groups);
        footer.u64(self.n_rows);
        footer.u64(self.checksum);
        write_section(&mut self.sink, TAG_FOOTER, &footer.into_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Rows written (or buffered) so far.
    pub fn rows(&self) -> u64 {
        self.n_rows + self.buf.len() as u64
    }
}

fn write_section<W: Write>(sink: &mut W, tag: u8, payload: &[u8]) -> Result<()> {
    sink.write_all(&[tag])?;
    sink.write_all(&(payload.len() as u64).to_le_bytes())?;
    sink.write_all(payload)?;
    Ok(())
}

/// Serializes a whole in-RAM corpus's records. Returns the sink.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_corpus<W: Write>(corpus: &crate::Corpus, sink: W) -> Result<W> {
    let mut w = ColumnarWriter::new(sink)?;
    for a in corpus.attacks() {
        w.push(a.clone())?;
    }
    w.finish()
}

/// Streaming columnar reader: one row group resident at a time.
pub struct ColumnarReader<R: Read> {
    source: R,
    n_groups: u64,
    n_rows: u64,
    checksum: u64,
    finished: bool,
}

impl<R: Read> ColumnarReader<R> {
    /// Opens the file, validating magic and version.
    ///
    /// # Errors
    ///
    /// [`TraceError::Format`] on a foreign or future file,
    /// [`TraceError::Io`] on I/O failure.
    pub fn new(mut source: R) -> Result<Self> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(TraceError::Format { detail: format!("bad magic {magic:02x?}") });
        }
        let mut ver = [0u8; 4];
        source.read_exact(&mut ver)?;
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(TraceError::Format {
                detail: format!("unsupported version {version} (have {VERSION})"),
            });
        }
        Ok(ColumnarReader { source, n_groups: 0, n_rows: 0, checksum: 0, finished: false })
    }

    /// Reads the next row group, or `Ok(None)` after the validated footer.
    ///
    /// # Errors
    ///
    /// [`TraceError::Format`] for structural corruption (alien tags,
    /// count or checksum mismatches, trailing bytes),
    /// [`TraceError::Codec`] for in-group decoding failures,
    /// [`TraceError::Io`] for truncation mid-section.
    pub fn next_group(&mut self) -> Result<Option<Vec<AttackRecord>>> {
        if self.finished {
            return Ok(None);
        }
        let mut tag = [0u8; 1];
        if let Err(e) = self.source.read_exact(&mut tag) {
            // Clean EOF without a footer is truncation, not completion.
            self.finished = true;
            return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::Format { detail: "file ends without a footer".to_string() }
            } else {
                e.into()
            });
        }
        let mut len = [0u8; 8];
        self.source.read_exact(&mut len)?;
        let len = u64::from_le_bytes(len);
        // Incremental read: a corrupted length cannot trigger a huge
        // up-front allocation, only a truncation error.
        let mut payload = Vec::new();
        self.source.by_ref().take(len).read_to_end(&mut payload)?;
        if payload.len() as u64 != len {
            self.finished = true;
            return Err(TraceError::Format {
                detail: format!("section truncated: {} of {len} bytes", payload.len()),
            });
        }
        match tag[0] {
            TAG_ROW_GROUP => {
                self.checksum = chain_checksum(self.checksum, &payload);
                let records = decode_group(&payload)?;
                self.n_groups += 1;
                self.n_rows += records.len() as u64;
                Ok(Some(records))
            }
            TAG_FOOTER => {
                self.finished = true;
                let mut r = Reader::new(&payload);
                let n_groups = r.u64()?;
                let n_rows = r.u64()?;
                let checksum = r.u64()?;
                r.finish()?;
                if n_groups != self.n_groups || n_rows != self.n_rows {
                    return Err(TraceError::Format {
                        detail: format!(
                            "footer counts {n_groups}/{n_rows} != observed {}/{}",
                            self.n_groups, self.n_rows
                        ),
                    });
                }
                if checksum != self.checksum {
                    return Err(TraceError::Format {
                        detail: format!(
                            "checksum mismatch: footer {checksum:016x}, observed {:016x}",
                            self.checksum
                        ),
                    });
                }
                let mut trailing = [0u8; 1];
                match self.source.read_exact(&mut trailing) {
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
                    Ok(()) => Err(TraceError::Format {
                        detail: "trailing bytes after footer".to_string(),
                    }),
                    Err(e) => Err(e.into()),
                }
            }
            t => Err(TraceError::Format { detail: format!("unknown section tag {t}") }),
        }
    }

    /// Rows decoded so far.
    pub fn rows(&self) -> u64 {
        self.n_rows
    }

    /// Adapts the reader into a record iterator.
    pub fn into_records(self) -> Records<R> {
        Records { reader: self, buf: std::collections::VecDeque::new(), fused: false }
    }
}

/// Record-level iterator over a columnar file.
pub struct Records<R: Read> {
    reader: ColumnarReader<R>,
    buf: std::collections::VecDeque<AttackRecord>,
    fused: bool,
}

impl<R: Read> Iterator for Records<R> {
    type Item = Result<AttackRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        loop {
            if let Some(r) = self.buf.pop_front() {
                return Some(Ok(r));
            }
            match self.reader.next_group() {
                Ok(Some(group)) => self.buf.extend(group),
                Ok(None) => {
                    self.fused = true;
                    return None;
                }
                Err(e) => {
                    self.fused = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusConfig, TraceGenerator};

    fn corpus() -> crate::Corpus {
        TraceGenerator::new(CorpusConfig::small(), 42).generate_partitioned().unwrap()
    }

    fn encode(c: &crate::Corpus, group: usize) -> Vec<u8> {
        let mut w = ColumnarWriter::with_group_size(Vec::new(), group).unwrap();
        for a in c.attacks() {
            w.push(a.clone()).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_is_lossless() {
        let c = corpus();
        let bytes = encode(&c, 100);
        let decoded: Vec<AttackRecord> =
            ColumnarReader::new(&bytes[..]).unwrap().into_records().collect::<Result<_>>().unwrap();
        assert_eq!(decoded.len(), c.len());
        for (d, a) in decoded.iter().zip(c.attacks()) {
            assert_eq!(d, a);
        }
    }

    #[test]
    fn encoding_is_byte_stable() {
        let c = corpus();
        assert_eq!(encode(&c, 100), encode(&c, 100));
        // Group size changes the framing, not the decoded records.
        let small_groups: Vec<AttackRecord> = ColumnarReader::new(&encode(&c, 7)[..])
            .unwrap()
            .into_records()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(small_groups.as_slice(), c.attacks());
    }

    #[test]
    fn streamed_write_matches_corpus_write() {
        let c = corpus();
        let via_corpus = write_corpus(&c, Vec::new()).unwrap();
        let mut w = ColumnarWriter::new(Vec::new()).unwrap();
        for r in crate::stream::CorpusStream::new(CorpusConfig::small(), 42).unwrap() {
            w.push(r.unwrap()).unwrap();
        }
        assert_eq!(w.finish().unwrap(), via_corpus);
    }

    #[test]
    fn every_truncation_prefix_errors_cleanly() {
        let c = corpus();
        let bytes = encode(&c, 50);
        // Chop at a spread of prefixes including every boundary-ish zone;
        // exhaustive over the first sections, strided over the bulk.
        let mut cuts: Vec<usize> = (0..bytes.len().min(64)).collect();
        cuts.extend((64..bytes.len()).step_by(97));
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            let truncated = &bytes[..cut];
            let outcome: Result<Vec<AttackRecord>> = ColumnarReader::new(truncated)
                .and_then(|r| r.into_records().collect::<Result<_>>());
            assert!(outcome.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn reader_rejects_foreign_headers() {
        assert!(ColumnarReader::new(&b"NOTMAGIC\x01\x00\x00\x00"[..]).is_err());
        let mut future = Vec::from(MAGIC);
        future.extend_from_slice(&99u32.to_le_bytes());
        assert!(ColumnarReader::new(&future[..]).is_err());
        // Version 1 (FNV-1a footer) is retired, not read.
        let mut v1 = Vec::from(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            ColumnarReader::new(&v1[..]),
            Err(TraceError::Format { ref detail }) if detail.contains("unsupported version 1")
        ));
        // Unfinished file: header only, no footer.
        let mut header = Vec::from(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        let mut r = ColumnarReader::new(&header[..]).unwrap();
        assert!(r.next_group().is_err());
    }

    /// Byte offsets of each row-group section in an encoded file.
    fn group_sections(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut at = MAGIC.len() + 4;
        let mut out = Vec::new();
        while bytes[at] == TAG_ROW_GROUP {
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            out.push(at..at + 9 + len);
            at += 9 + len;
        }
        out
    }

    #[test]
    fn encoded_groups_have_the_presized_length() {
        let c = corpus();
        let records = &c.attacks()[..100];
        let hourly: usize = records.iter().map(|a| a.hourly_bot_counts.len()).sum();
        let bots: usize = records.iter().map(|a| a.bots().len()).sum();
        let payload = encode_group(records);
        assert_eq!(payload.len(), group_payload_len(records.len(), hourly, bots));
        assert_eq!(payload.capacity(), payload.len(), "payload buffer reallocated or overshot");
        assert_eq!(encode_group(&[]).len(), group_payload_len(0, 0, 0));
    }

    #[test]
    fn checksum_chain_catches_decodable_corruption_and_reordering() {
        let c = corpus();
        let bytes = encode(&c, 100);
        let read_all = |b: &[u8]| -> Result<Vec<AttackRecord>> {
            ColumnarReader::new(b)?.into_records().collect()
        };
        let sections = group_sections(&bytes);
        assert!(sections.len() >= 2);

        // A flipped bot IP (the last byte of the first group) still
        // decodes; only the footer checksum sees it.
        let mut flipped = bytes.clone();
        flipped[sections[0].end - 1] ^= 0x40;
        let err = read_all(&flipped).unwrap_err();
        assert!(
            matches!(err, TraceError::Format { ref detail } if detail.contains("checksum")),
            "{err}"
        );

        // Two groups swapped keep every count; the chain is
        // order-sensitive, so the footer still rejects the file.
        let (a, b) = (sections[0].clone(), sections[1].clone());
        let mut swapped = bytes[..a.start].to_vec();
        swapped.extend_from_slice(&bytes[b.clone()]);
        swapped.extend_from_slice(&bytes[a.clone()]);
        swapped.extend_from_slice(&bytes[b.end..]);
        let err = read_all(&swapped).unwrap_err();
        assert!(
            matches!(err, TraceError::Format { ref detail } if detail.contains("checksum")),
            "{err}"
        );
    }
}
