//! The CLOG2-style merged logfile and the `MPE_Finish_log` wrap-up.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8  b"PCLOG2\x00\x01"   (name + format version)
//! nranks     u32
//! nstatedefs u32, then StateDef...
//! neventdefs u32, then EventDef...
//! nblocks    u32
//! per block: rank u32, nrecords u32, then Record...
//! ```
//!
//! Blocks keep each rank's records in program order — the merge does
//! *not* interleave by time; that is the converter's job (and mirrors
//! real CLOG-2, which is also block-structured per rank).
//!
//! ## One decoder
//!
//! The container has one decoder: a walk over a byte image that keeps
//! record payloads borrowed ([`Clog2Image`]). It runs in two modes.
//!
//! * **Strict** ([`Clog2File::parse_image`]) rejects any malformed
//!   item, and any bytes after the last block.
//! * **Salvage** ([`Clog2File::salvage_image`]) stops at the first torn
//!   item and keeps the complete prefix before it, with counts of what
//!   it recovered — the post-mortem path for logs cut short by a crash,
//!   a full disk or a kill.
//!
//! [`Clog2File::from_bytes`] and [`Clog2File::salvage_bytes`] run the
//! same walks and copy each record out as it is validated, so every
//! record is decoded once. The streaming [`Clog2Blocks`]
//! decodes the header and each block's framing with the walk's own
//! steps, so every reader accepts and rejects the same inputs. Every
//! reservation is bounded by the bytes left to fill it, whatever count
//! a hostile header claims.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use minimpi::{MpiError, Rank};

use crate::logger::Logger;
use crate::record::{EventDef, Record, RecordView, StateDef};
use crate::wire::{Reader, WireError, Writer};

const MAGIC: &[u8; 8] = b"PCLOG2\x00\x01";

/// Smallest encoding of each counted item, in bytes: a reservation for
/// `n` items never exceeds what the bytes left could hold.
const MIN_STATE_DEF: usize = 16; // start, end, name length, colour
const MIN_EVENT_DEF: usize = 12; // id, name length, colour
const MIN_RECORD: usize = 17; // kind, ts, id, text length

/// A CLOG2 container parsed as a *byte image*: the header is owned,
/// record payloads stay borrowed from the input buffer. Produced by
/// [`Clog2File::parse_image`] and [`Clog2File::salvage_image`]; blocks
/// are sorted by rank.
#[derive(Debug, Default)]
pub struct Clog2Image<'a> {
    /// World size recorded in the header.
    pub nranks: u32,
    /// State definitions from the header.
    pub state_defs: Vec<StateDef>,
    /// Solo-event definitions from the header.
    pub event_defs: Vec<EventDef>,
    /// Per-rank blocks, ascending by rank.
    pub blocks: Vec<ImageBlock<'a>>,
}

/// One rank's record block inside a [`Clog2Image`].
#[derive(Debug)]
pub struct ImageBlock<'a> {
    /// The rank that logged this block.
    pub rank: u32,
    /// Total records in the block.
    pub n_records: u32,
    /// Record-aligned, pre-validated sub-slices of the block payload.
    pub chunks: Vec<ImageChunk<'a>>,
}

impl<'a> ImageBlock<'a> {
    fn push_chunk(&mut self, data: &'a [u8], n_records: usize) {
        self.n_records += n_records as u32;
        self.chunks.push(ImageChunk {
            data,
            n_records: n_records as u32,
        });
    }
}

/// A record-aligned slice of a block: `n_records` consecutive encoded
/// records, already validated by the walk that produced it. Only the
/// walk builds chunks, so every chunk decodes.
#[derive(Debug, Clone, Copy)]
pub struct ImageChunk<'a> {
    data: &'a [u8],
    n_records: u32,
}

impl<'a> ImageChunk<'a> {
    /// The chunk's records as borrowed views, in order.
    pub fn views(&self) -> impl Iterator<Item = RecordView<'a>> {
        let mut r = Reader::new(self.data);
        (0..self.n_records)
            .map(move |_| Record::decode_view(&mut r).expect("records validated by the walk"))
    }
}

/// The decoder's progress through one CLOG2 input.
///
/// [`Walk::image`] walks a whole byte image; [`Clog2Blocks`] runs the
/// same [`Walk::header`] and [`Walk::block_head`] steps over a stream.
/// The walk advances one complete item at a time, so when a step fails
/// the fields describe the complete prefix before the failing item —
/// what salvage reports.
#[derive(Default)]
struct Walk {
    /// Counts above this are corrupt: the input's length, since every
    /// item takes at least one byte (unbounded for a stream).
    limit: usize,
    /// Offset just past the last complete item.
    mark: usize,
    /// Complete records walked.
    records: usize,
    /// The rank whose block is open, where a tear would land.
    open_rank: Option<u32>,
    /// Ranks whose block has begun.
    seen: BTreeSet<u32>,
}

impl Walk {
    fn limited(limit: usize) -> Walk {
        Walk {
            limit,
            ..Walk::default()
        }
    }

    /// Read an item count, rejecting one above [`Walk::limit`].
    fn count(&self, r: &mut Reader<'_>, what: &str) -> Result<usize, WireError> {
        let n = r.get_u32()? as usize;
        if n > self.limit {
            return Err(WireError::Corrupt(what.into()));
        }
        Ok(n)
    }

    /// Decode the header (magic, world size, definitions) into `head`
    /// and return the block count. Definitions are pushed one by one,
    /// so a torn header leaves its complete ones in `head`.
    fn header(
        &mut self,
        r: &mut Reader<'_>,
        head: &mut Clog2Image<'_>,
    ) -> Result<usize, WireError> {
        let magic = r.get_bytes(MAGIC.len())?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(format!("{magic:02x?}")));
        }
        head.nranks = r.get_u32()?;
        self.mark = r.position();
        let n = self.count(r, "state def count")?;
        head.state_defs = Vec::with_capacity(n.min(r.remaining() / MIN_STATE_DEF));
        for _ in 0..n {
            head.state_defs.push(StateDef::decode(r)?);
            self.mark = r.position();
        }
        let n = self.count(r, "event def count")?;
        head.event_defs = Vec::with_capacity(n.min(r.remaining() / MIN_EVENT_DEF));
        for _ in 0..n {
            head.event_defs.push(EventDef::decode(r)?);
            self.mark = r.position();
        }
        self.count(r, "block count")
    }

    /// Decode a block's framing: a rank that has no block yet, then its
    /// record count.
    fn block_head(&mut self, r: &mut Reader<'_>) -> Result<(u32, usize), WireError> {
        let rank = r.get_u32()?;
        if self.seen.contains(&rank) {
            return Err(WireError::Corrupt(format!(
                "duplicate block for rank {rank}"
            )));
        }
        // From here on, a tear belongs to this rank's block.
        self.open_rank = Some(rank);
        let nrec = self.count(r, "record count")?;
        self.seen.insert(rank);
        Ok((rank, nrec))
    }

    /// Walk a whole byte image into `img`, validating every record and
    /// splitting each block into chunks of at most `chunk_records`
    /// records; `each` sees every block and record as it is validated.
    /// Returns the offset where the last block ends.
    fn image<'a>(
        &mut self,
        bytes: &'a [u8],
        chunk_records: usize,
        img: &mut Clog2Image<'a>,
        mut each: impl FnMut(Walked<'a>),
    ) -> Result<usize, WireError> {
        let mut r = Reader::new(bytes);
        let nblocks = self.header(&mut r, img)?;
        for _ in 0..nblocks {
            let (rank, nrec) = self.block_head(&mut r)?;
            let fit = nrec.min(r.remaining() / MIN_RECORD);
            each(Walked::Block(rank, fit));
            let mut block = ImageBlock {
                rank,
                n_records: 0,
                chunks: Vec::with_capacity(fit.div_ceil(chunk_records)),
            };
            let (mut start, mut in_chunk) = (r.position(), 0);
            let torn = (0..nrec).try_for_each(|_| {
                // Full validation (structure + text UTF-8), so chunk
                // views decode infallibly.
                each(Walked::Record(Record::decode_view(&mut r)?));
                self.records += 1;
                self.mark = r.position();
                in_chunk += 1;
                if in_chunk == chunk_records {
                    block.push_chunk(&bytes[start..self.mark], in_chunk);
                    (start, in_chunk) = (self.mark, 0);
                }
                Ok(())
            });
            if in_chunk > 0 {
                block.push_chunk(&bytes[start..self.mark], in_chunk);
            }
            img.blocks.push(block);
            torn?;
            self.open_rank = None;
            self.mark = r.position();
        }
        Ok(r.position())
    }

    /// [`Walk::image`] with each record decoded into an owned block as
    /// it is validated — one decode per record. Returns the decoded log
    /// (the complete prefix, if the walk failed) and the walk's result.
    fn owned(&mut self, bytes: &[u8]) -> (Clog2File, Result<usize, WireError>) {
        let mut img = Clog2Image::default();
        let mut blocks: Vec<(u32, Vec<Record>)> = Vec::new();
        let end = self.image(bytes, usize::MAX, &mut img, |item| match item {
            Walked::Block(rank, fit) => blocks.push((rank, Vec::with_capacity(fit))),
            Walked::Record(view) => {
                let (_, records) = blocks.last_mut().expect("a block precedes its records");
                records.push(view.into());
            }
        });
        let file = Clog2File {
            nranks: img.nranks,
            state_defs: img.state_defs,
            event_defs: img.event_defs,
            blocks: blocks.into_iter().collect(),
        };
        (file, end)
    }

    /// What this walk recovered, carried by `file`, once it has stopped.
    fn salvaged<L>(&self, file: L, truncated: bool) -> SalvagedClog<L> {
        SalvagedClog {
            file,
            bytes_recovered: self.mark,
            records_recovered: self.records,
            truncated,
            torn_rank: self.open_rank,
        }
    }
}

/// An item [`Walk::image`] has validated.
enum Walked<'a> {
    /// A block for this rank begins, with room for at most this many
    /// records in the bytes left.
    Block(u32, usize),
    /// The open block's next record.
    Record(RecordView<'a>),
}

/// The strict walk's last check: no byte follows the last block.
fn no_trailing(end: usize, bytes: &[u8]) -> Result<(), WireError> {
    if end < bytes.len() {
        return Err(WireError::Corrupt("trailing bytes after last block".into()));
    }
    Ok(())
}

/// A parsed (or freshly merged) CLOG2 container.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Clog2File {
    /// World size of the run that produced the log.
    pub nranks: u32,
    /// State definitions (id pair, name, colour).
    pub state_defs: Vec<StateDef>,
    /// Solo-event definitions.
    pub event_defs: Vec<EventDef>,
    /// Per-rank record blocks, keyed by rank.
    pub blocks: BTreeMap<u32, Vec<Record>>,
}

impl Clog2File {
    /// Total record count across all blocks.
    pub fn total_records(&self) -> usize {
        self.blocks.values().map(Vec::len).sum()
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.total_records() * 24);
        w.put_bytes(MAGIC);
        w.put_u32(self.nranks);
        w.put_u32(self.state_defs.len() as u32);
        for d in &self.state_defs {
            d.encode(&mut w);
        }
        w.put_u32(self.event_defs.len() as u32);
        for d in &self.event_defs {
            d.encode(&mut w);
        }
        w.put_u32(self.blocks.len() as u32);
        for (rank, records) in &self.blocks {
            w.put_u32(*rank);
            w.put_u32(records.len() as u32);
            for r in records {
                r.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Whether `bytes` begin with the CLOG2 magic — a cheap format
    /// sniff for upload endpoints that accept several wire formats.
    /// A `true` here promises nothing about the rest of the bytes.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
    }

    /// Parse from bytes, strictly (see [`Clog2File::parse_image`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Clog2File, WireError> {
        let (file, end) = Walk::limited(bytes.len()).owned(bytes);
        no_trailing(end?, bytes)?;
        Ok(file)
    }

    /// Parse a CLOG2 byte image without materializing records — the
    /// strict walk: the header is decoded, each block's record payload
    /// is located (and structurally validated, including text UTF-8)
    /// but left in place as borrowed sub-slices, pre-split into
    /// record-aligned chunks of at most `chunk_records` records. Any
    /// malformed item, and any byte after the last block, is an error.
    ///
    /// This is the zero-copy scan path for byte and memory-mapped
    /// inputs: the converter decodes [`RecordView`]s straight out of the
    /// chunks, in parallel, with no intermediate `Vec<Record>`.
    pub fn parse_image(bytes: &[u8], chunk_records: usize) -> Result<Clog2Image<'_>, WireError> {
        let mut img = Clog2Image::default();
        let end =
            Walk::limited(bytes.len()).image(bytes, chunk_records.max(1), &mut img, |_| {})?;
        no_trailing(end, bytes)?;
        img.blocks.sort_by_key(|b| b.rank);
        Ok(img)
    }

    /// Tolerantly walk a possibly-truncated CLOG2 byte image — the
    /// salvage walk: decode as far as the bytes allow, stop at the first
    /// torn item, and report what was recovered instead of erroring.
    /// Bytes after the last block are ignored.
    ///
    /// Never panics on any input, and the recovered image is always a
    /// record-aligned prefix of what the untruncated bytes would parse
    /// to (per rank, in block order), chunked as by
    /// [`Clog2File::parse_image`].
    pub fn salvage_image(bytes: &[u8], chunk_records: usize) -> SalvagedClog<Clog2Image<'_>> {
        let mut img = Clog2Image::default();
        let mut walk = Walk::limited(bytes.len());
        let truncated = walk
            .image(bytes, chunk_records.max(1), &mut img, |_| {})
            .is_err();
        img.blocks.sort_by_key(|b| b.rank);
        walk.salvaged(img, truncated)
    }

    /// [`Clog2File::salvage_image`] with the recovered records decoded
    /// into an owned [`Clog2File`].
    pub fn salvage_bytes(bytes: &[u8]) -> SalvagedClog {
        let mut walk = Walk::limited(bytes.len());
        let (file, end) = walk.owned(bytes);
        walk.salvaged(file, end.is_err())
    }

    /// Write to a file.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file. I/O and decode failures are both flattened
    /// into [`StreamError`], so callers get one error to match on.
    pub fn read_from(path: &Path) -> Result<Clog2File, StreamError> {
        Ok(Clog2File::from_bytes(&std::fs::read(path)?)?)
    }
}

/// What a salvage walk recovered from a torn byte stream: the log as a
/// borrowed [`Clog2Image`] ([`Clog2File::salvage_image`]) or decoded
/// into a [`Clog2File`] ([`Clog2File::salvage_bytes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SalvagedClog<L = Clog2File> {
    /// The recovered (possibly partial) log.
    pub file: L,
    /// Bytes up to the last fully-decoded item.
    pub bytes_recovered: usize,
    /// Complete records recovered across all blocks.
    pub records_recovered: usize,
    /// True if parsing stopped before a complete document.
    pub truncated: bool,
    /// The rank whose block the tear landed in, if it hit inside one.
    pub torn_rank: Option<u32>,
}

/// Failure while streaming a CLOG2 file: either the underlying reader
/// failed or the bytes were malformed.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying `Read` failed.
    Io(std::io::Error),
    /// The bytes did not decode as CLOG2.
    Wire(WireError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "read error: {e}"),
            StreamError::Wire(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

impl From<WireError> for StreamError {
    fn from(e: WireError) -> StreamError {
        StreamError::Wire(e)
    }
}

/// How many bytes [`StreamDecoder`] pulls from the source per refill.
const STREAM_CHUNK: usize = 64 * 1024;

/// Incremental decoding over any `std::io::Read`.
///
/// Keeps only the not-yet-consumed bytes buffered: `decode` runs a
/// slice-based decoder over the buffer and, on a `Truncated` error,
/// refills from the source and retries. A refill asks the source for
/// at least as many bytes as are already buffered, so a large item (a
/// header with many definitions) is retried a logarithmic, not linear,
/// number of times. Memory stays bounded by about twice the largest
/// single decoded item plus one refill chunk, which is what lets the
/// converter process arbitrarily large logs block by block.
struct StreamDecoder<R: std::io::Read> {
    src: R,
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted on refill).
    pos: usize,
    eof: bool,
}

impl<R: std::io::Read> StreamDecoder<R> {
    fn new(src: R) -> StreamDecoder<R> {
        StreamDecoder {
            src,
            buf: Vec::new(),
            pos: 0,
            eof: false,
        }
    }

    fn refill(&mut self) -> Result<(), StreamError> {
        // Drop the consumed prefix before growing the buffer.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old_len = self.buf.len();
        self.buf.resize(old_len + old_len.max(STREAM_CHUNK), 0);
        let mut filled = old_len;
        // Read until at least one byte arrives (or EOF): io::Read may
        // legally return short counts.
        while filled == old_len {
            match self.src.read(&mut self.buf[filled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.buf.truncate(old_len);
                    return Err(e.into());
                }
            }
        }
        self.buf.truncate(filled);
        Ok(())
    }

    /// Decode one item using a slice decoder, refilling and retrying on
    /// truncation until the source is exhausted.
    fn decode<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
    ) -> Result<T, StreamError> {
        loop {
            let mut r = Reader::new(&self.buf[self.pos..]);
            match f(&mut r) {
                Ok(v) => {
                    self.pos += r.position();
                    return Ok(v);
                }
                Err(WireError::Truncated { .. }) if !self.eof => self.refill()?,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// True once the source hit EOF and every buffered byte is consumed.
    fn exhausted(&mut self) -> Result<bool, StreamError> {
        if self.pos < self.buf.len() {
            return Ok(false);
        }
        if !self.eof {
            self.refill()?;
        }
        Ok(self.pos >= self.buf.len())
    }
}

/// Streaming CLOG2 reader: parses the header eagerly, then yields one
/// `(rank, records)` block at a time, holding at most one block in
/// memory. Header and block framing go through the same decoding steps
/// as [`Clog2File::parse_image`], so both accept and reject the same
/// inputs (read to [`Clog2Blocks::finish`]).
pub struct Clog2Blocks<R: std::io::Read> {
    stream: StreamDecoder<R>,
    walk: Walk,
    /// World size recorded in the header.
    pub nranks: u32,
    /// State definitions from the header.
    pub state_defs: Vec<StateDef>,
    /// Solo-event definitions from the header.
    pub event_defs: Vec<EventDef>,
    blocks_left: u32,
}

impl<R: std::io::Read> Clog2Blocks<R> {
    /// Open a stream and parse the CLOG2 header (magic, counts, defs).
    pub fn open(src: R) -> Result<Clog2Blocks<R>, StreamError> {
        let mut stream = StreamDecoder::new(src);
        // A stream's length is unknown, so no count is corrupt up front;
        // reservations are still bounded by the bytes buffered.
        let mut walk = Walk::limited(usize::MAX);
        let (head, nblocks) = stream.decode(|r| {
            let mut head = Clog2Image::default();
            let nblocks = walk.header(r, &mut head)?;
            Ok((head, nblocks))
        })?;
        Ok(Clog2Blocks {
            stream,
            walk,
            nranks: head.nranks,
            state_defs: head.state_defs,
            event_defs: head.event_defs,
            blocks_left: nblocks as u32,
        })
    }

    /// Number of blocks not yet yielded.
    pub fn blocks_remaining(&self) -> u32 {
        self.blocks_left
    }

    fn read_block(&mut self) -> Result<(u32, Vec<Record>), StreamError> {
        let (rank, nrec) = self.stream.decode(|r| self.walk.block_head(r))?;
        let buffered = self.stream.buf.len() - self.stream.pos;
        let mut records = Vec::with_capacity(nrec.min(buffered / MIN_RECORD));
        for _ in 0..nrec {
            records.push(self.stream.decode(Record::decode)?);
        }
        Ok((rank, records))
    }

    /// After the final block: check no bytes trail the document.
    pub fn finish(mut self) -> Result<(), StreamError> {
        if self.blocks_left > 0 {
            return Err(WireError::Truncated { wanted: 1, have: 0 }.into());
        }
        if !self.stream.exhausted()? {
            return Err(WireError::Corrupt("trailing bytes after last block".into()).into());
        }
        Ok(())
    }
}

impl<R: std::io::Read> Iterator for Clog2Blocks<R> {
    type Item = Result<(u32, Vec<Record>), StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.blocks_left == 0 {
            return None;
        }
        self.blocks_left -= 1;
        let block = self.read_block();
        if block.is_err() {
            // Poison the iterator: a decode error is not recoverable.
            self.blocks_left = 0;
        }
        Some(block)
    }
}

/// `MPE_Finish_log`: apply each rank's clock correction, gather every
/// rank's buffer at rank 0 over the message layer, merge, and (on rank 0)
/// return the merged file.
///
/// This is the *wrap-up* step whose cost the paper measures separately,
/// and it is exactly why an `MPI_Abort` loses the MPE log: the gather
/// needs a live world. If the world has been aborted this returns
/// `Err(MpiError::Aborted { .. })` and no file is produced.
pub fn finish_log(rank: &Rank, logger: &Logger) -> Result<Option<Clog2File>, MpiError> {
    let corrected = logger.corrected_records();
    let mut w = Writer::with_capacity(corrected.len() * 24 + 8);
    w.put_u32(corrected.len() as u32);
    for r in &corrected {
        r.encode(&mut w);
    }
    let mine = bytes::Bytes::from(w.into_bytes());

    let gathered = rank.gather(0, mine)?;
    match gathered {
        None => Ok(None),
        Some(parts) => {
            let mut blocks = BTreeMap::new();
            for (r, part) in parts.iter().enumerate() {
                let mut rd = Reader::new(part);
                let n = rd
                    .get_u32()
                    .map_err(|e| MpiError::CollectiveMisuse(format!("bad log block: {e}")))?
                    as usize;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    records.push(Record::decode(&mut rd).map_err(|e| {
                        MpiError::CollectiveMisuse(format!("bad record from rank {r}: {e}"))
                    })?);
                }
                blocks.insert(r as u32, records);
            }
            Ok(Some(Clog2File {
                nranks: rank.size() as u32,
                state_defs: logger.state_defs().to_vec(),
                event_defs: logger.event_defs().to_vec(),
                blocks,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::ids::EventId;
    use minimpi::{Src, Tag, World};

    fn sample_file() -> Clog2File {
        let mut blocks = BTreeMap::new();
        blocks.insert(
            0,
            vec![
                Record::Event {
                    ts: 0.5,
                    id: EventId(0),
                    text: "Line: 10".into(),
                },
                Record::Send {
                    ts: 0.6,
                    dst: 1,
                    tag: 3,
                    size: 8,
                },
            ],
        );
        blocks.insert(
            1,
            vec![Record::Recv {
                ts: 0.7,
                src: 0,
                tag: 3,
                size: 8,
            }],
        );
        Clog2File {
            nranks: 2,
            state_defs: vec![StateDef {
                start: EventId(0),
                end: EventId(1),
                name: "PI_Write".into(),
                color: Color::GREEN,
            }],
            event_defs: vec![EventDef {
                id: EventId(2),
                name: "arrival".into(),
                color: Color::YELLOW,
            }],
            blocks,
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let f = sample_file();
        let bytes = f.to_bytes();
        assert_eq!(Clog2File::from_bytes(&bytes).unwrap(), f);
    }

    #[test]
    fn image_parse_matches_from_bytes() {
        let f = sample_file();
        let bytes = f.to_bytes();
        for chunk_records in [1usize, 2, 1024] {
            let img = Clog2File::parse_image(&bytes, chunk_records).unwrap();
            assert_eq!(img.nranks, f.nranks);
            assert_eq!(img.state_defs, f.state_defs);
            assert_eq!(img.event_defs, f.event_defs);
            assert_eq!(img.blocks.len(), f.blocks.len());
            for (block, (&rank, records)) in img.blocks.iter().zip(f.blocks.iter()) {
                assert_eq!(block.rank, rank);
                assert_eq!(block.n_records as usize, records.len());
                // Decoding the chunk views back reproduces the records.
                let mut decoded = Vec::new();
                for chunk in &block.chunks {
                    assert!(chunk.n_records as usize <= chunk_records);
                    let mut r = Reader::new(chunk.data);
                    for _ in 0..chunk.n_records {
                        decoded.push(Record::decode_view(&mut r).unwrap());
                    }
                    assert_eq!(r.remaining(), 0);
                }
                let want: Vec<crate::record::RecordView<'_>> =
                    records.iter().map(Into::into).collect();
                assert_eq!(decoded, want);
            }
        }
    }

    #[test]
    fn image_parse_rejects_what_from_bytes_rejects() {
        let f = sample_file();
        let good = f.to_bytes();
        // truncations
        for cut in [0, 4, good.len() / 2, good.len() - 1] {
            assert!(
                Clog2File::parse_image(&good[..cut], 64).is_err(),
                "cut at {cut}"
            );
        }
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Clog2File::parse_image(&bad, 64),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn empty_file_roundtrips() {
        let f = Clog2File {
            nranks: 1,
            ..Default::default()
        };
        assert_eq!(Clog2File::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_file().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Clog2File::from_bytes(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let bytes = sample_file().to_bytes();
        for cut in [5, 12, bytes.len() - 3] {
            assert!(
                Clog2File::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn salvage_of_intact_bytes_matches_strict_parse() {
        let f = sample_file();
        let s = Clog2File::salvage_bytes(&f.to_bytes());
        assert!(!s.truncated);
        assert_eq!(s.torn_rank, None);
        assert_eq!(s.file, f);
        assert_eq!(s.records_recovered, f.total_records());
        assert_eq!(s.bytes_recovered, f.to_bytes().len());
    }

    #[test]
    fn salvage_of_truncation_keeps_record_aligned_prefix() {
        let f = sample_file();
        let bytes = f.to_bytes();
        for cut in 0..bytes.len() {
            let s = Clog2File::salvage_bytes(&bytes[..cut]);
            assert!(s.truncated, "cut at {cut}");
            assert!(s.bytes_recovered <= cut);
            // Every recovered block is a prefix of the true block.
            for (rank, recs) in &s.file.blocks {
                let full = &f.blocks[rank];
                assert!(recs.len() <= full.len());
                assert_eq!(&full[..recs.len()], &recs[..], "cut at {cut}");
            }
            assert_eq!(s.records_recovered, s.file.total_records(), "cut at {cut}");
        }
    }

    #[test]
    fn salvage_mid_block_names_the_torn_rank() {
        let f = sample_file();
        let bytes = f.to_bytes();
        // Cut 3 bytes from the end: the tear lands in rank 1's block.
        let s = Clog2File::salvage_bytes(&bytes[..bytes.len() - 3]);
        assert!(s.truncated);
        assert_eq!(s.torn_rank, Some(1));
        assert_eq!(s.file.blocks[&0].len(), 2, "rank 0's block is intact");
    }

    #[test]
    fn salvage_of_garbage_recovers_nothing_without_panicking() {
        let s = Clog2File::salvage_bytes(b"not a clog2 file at all");
        assert!(s.truncated);
        assert_eq!(s.records_recovered, 0);
        let s = Clog2File::salvage_bytes(&[]);
        assert!(s.truncated);
        assert_eq!(s.bytes_recovered, 0);
    }

    #[test]
    fn file_io_roundtrip() {
        let dir = std::env::temp_dir().join("mpelog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pclog2");
        let f = sample_file();
        f.write_to(&path).unwrap();
        let back = Clog2File::read_from(&path).unwrap();
        assert_eq!(back, f);
        assert!(matches!(
            Clog2File::read_from(Path::new("/nonexistent/nope.pclog2")),
            Err(StreamError::Io(_))
        ));
    }

    #[test]
    fn finish_log_gathers_all_ranks() {
        let out = World::builder(3).run(|rank| {
            let mut lg = Logger::new(rank.rank());
            let id = lg.define_event("tick", Color::YELLOW);
            for i in 0..rank.rank() + 1 {
                lg.log_event(i as f64, id, &format!("Tick: {i}"));
            }
            let merged = finish_log(rank, &lg).unwrap();
            match merged {
                Some(file) => {
                    assert_eq!(rank.rank(), 0);
                    assert_eq!(file.nranks, 3);
                    assert_eq!(file.blocks[&0].len(), 1);
                    assert_eq!(file.blocks[&1].len(), 2);
                    assert_eq!(file.blocks[&2].len(), 3);
                }
                None => assert_ne!(rank.rank(), 0),
            }
            0
        });
        assert!(out.all_ok(), "{out:?}");
    }

    #[test]
    fn finish_log_fails_after_abort() {
        // The paper's Section III.B problem: MPI_Abort kills the message
        // infrastructure MPE needs to merge the log, so the log is lost.
        let out = World::builder(2).run(|rank| {
            let lg = Logger::new(rank.rank());
            if rank.rank() == 1 {
                let _ = rank.abort(13);
                match finish_log(rank, &lg) {
                    Err(MpiError::Aborted { .. }) => return 0,
                    other => panic!("expected abort, got {other:?}"),
                }
            }
            // Rank 0 also loses the log.
            match finish_log(rank, &lg) {
                Err(MpiError::Aborted { .. }) => 0,
                Ok(_) => panic!("log should be lost after abort"),
                Err(e) => panic!("unexpected {e:?}"),
            }
        });
        assert_eq!(out.aborted, Some((1, 13)));
    }

    #[test]
    fn finish_log_applies_corrections() {
        use crate::sync::ClockCorrection;
        let out = World::builder(2).run(|rank| {
            let mut lg = Logger::new(rank.rank());
            let id = lg.define_event("e", Color::YELLOW);
            lg.log_event(10.0, id, "");
            // Rank 1 pretends its clock is 4s ahead.
            if rank.rank() == 1 {
                lg.set_correction(ClockCorrection::constant(4.0));
            }
            if let Some(file) = finish_log(rank, &lg).unwrap() {
                assert_eq!(file.blocks[&0][0].ts(), 10.0);
                assert_eq!(file.blocks[&1][0].ts(), 6.0);
            }
            0
        });
        assert!(out.all_ok());
    }

    /// A reader that dribbles out at most `chunk` bytes per `read`
    /// call, to exercise the refill-and-retry path.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl std::io::Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn streaming_blocks_match_from_bytes() {
        let f = sample_file();
        let bytes = f.to_bytes();
        let mut blocks = Clog2Blocks::open(&bytes[..]).unwrap();
        assert_eq!(blocks.nranks, f.nranks);
        assert_eq!(blocks.state_defs, f.state_defs);
        assert_eq!(blocks.event_defs, f.event_defs);
        let mut streamed = BTreeMap::new();
        for item in &mut blocks {
            let (rank, records) = item.unwrap();
            streamed.insert(rank, records);
        }
        assert_eq!(streamed, f.blocks);
        blocks.finish().unwrap();
    }

    #[test]
    fn streaming_survives_tiny_reads() {
        let f = sample_file();
        let src = Dribble {
            data: f.to_bytes(),
            pos: 0,
            chunk: 3,
        };
        let mut blocks = Clog2Blocks::open(src).unwrap();
        let collected: BTreeMap<u32, Vec<Record>> = (&mut blocks).map(|b| b.unwrap()).collect();
        assert_eq!(collected, f.blocks);
        blocks.finish().unwrap();
    }

    #[test]
    fn streaming_rejects_duplicate_rank() {
        let mut f = sample_file();
        // Hand-craft a duplicate: encode, then duplicate the block count
        // by re-serializing with the same rank twice.
        f.blocks = BTreeMap::from([(0u32, vec![])]);
        let mut bytes = f.to_bytes();
        // nblocks is the u32 right before the block data; bump it to 2
        // and append a second rank-0 block (rank=0, nrec=0).
        let nblocks_at = bytes.len() - 12; // nblocks, then rank + nrec of the only block
        bytes[nblocks_at..nblocks_at + 4].copy_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let blocks = Clog2Blocks::open(&bytes[..]).unwrap();
        let results: Vec<_> = blocks.collect();
        assert!(results.iter().any(|r| r.is_err()), "{results:?}");
    }

    #[test]
    fn streaming_detects_truncation() {
        let bytes = sample_file().to_bytes();
        let cut = &bytes[..bytes.len() - 3];
        // Header-level truncation errors at open; otherwise an Err
        // must surface while iterating.
        if let Ok(blocks) = Clog2Blocks::open(cut) {
            let results: Vec<_> = blocks.collect();
            assert!(results.iter().any(|r| r.is_err()));
        }
    }

    #[test]
    fn streaming_detects_trailing_garbage() {
        let mut bytes = sample_file().to_bytes();
        bytes.extend_from_slice(b"junk");
        let mut blocks = Clog2Blocks::open(&bytes[..]).unwrap();
        for item in &mut blocks {
            item.unwrap();
        }
        assert!(blocks.finish().is_err());
    }

    // keep Src/Tag imported for future tests without warnings
    #[allow(dead_code)]
    fn _unused(_: Src, _: Tag) {}
}
