//! Out-of-core conversion: write an SLOG2 file under a memory budget.
//!
//! [`Converter::convert_to_path`] converts a trace whose drawables do
//! not fit in RAM. The frame tree never materializes: drawable rows
//! spill to a temporary file as ranks are scanned, the tree *shape* is
//! computed from streaming passes over that file, and the final SLOG2
//! image is written node by node from an externally-sorted row stream.
//! Output bytes are identical to `Converter::convert(..).file.to_bytes()`
//! at every parallelism setting and memory budget — the determinism
//! proptests pin this.
//!
//! ## The three passes
//!
//! 1. **Scan + spill.** The source front end the in-memory path uses
//!    hands over one scanned rank block at a time (same sources, same
//!    torn-input policy, same chunk-stealing scan), and its rows append
//!    to the row file as one *segment*: `[start, end, cat, duration,
//!    payload]` per row, where the payload is the row's exact
//!    `Drawable::encode` bytes. Per-rank send/recv lists, warnings, and
//!    per-segment time extrema stay resident (they are tiny next to the
//!    drawables). Arrow rows append as the final segment after
//!    matching. Equal-Drawables keys stream into an external sorter.
//! 2. **Shape.** A streaming pass counts, for every potential tree node
//!    (addressed by its heap-style path id), how many rows would reach
//!    it if every ancestor split. Since a row's descent path depends
//!    only on the fixed `[t0, t1]` range, reach counts determine the
//!    realized tree exactly: a node splits iff its reach exceeds the
//!    capacity (and the depth/zero-width/empty-children guards pass) —
//!    the same predicate the in-memory recursion evaluates on its item
//!    list.
//! 3. **Place + write.** A second streaming pass walks each row down
//!    the realized tree, accumulating node previews *in row order*
//!    (float summation order is what makes previews bit-identical) and
//!    tagging the row with its owning node's preorder index. Rows
//!    externally sort by `(preorder, sequence)`. Node heads, previews
//!    and per-node payload sizes fix every node's offset up front, so
//!    the header (encoded by [`crate::file`], like every node head and
//!    preview), the directory and the nodes stream out in one pass.
//!
//! The reach map and per-node previews are the only tree state held in
//! memory — `O(nodes)`, not `O(drawables)`. Path ids cap the tree depth
//! at 32 (a 10^9-node shape bound no real file approaches); a converter
//! configured deeper falls back to the in-memory build.

use std::collections::{BinaryHeap, HashMap};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mpelog::clog2::StreamError;
use mpelog::wire::Writer;

use crate::columnar::DrawableColumns;
use crate::convert::{
    equal_drawables, match_all_arrows, Conversion, ConvertWarning, Converter, EqualKey,
};
use crate::file::{encode_node_head, encode_preview, Header};
use crate::fnv::{fnv1a, FnvBuild, FNV_SEED};
use crate::id::CategoryId;
use crate::source::TraceSource;
use crate::tree::Preview;
use crate::window::TimeWindow;

/// What [`Converter::convert_to_path`] reports: enough to check two
/// runs produced the same file without re-reading either.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertSummary {
    /// Total drawables written.
    pub drawables: u64,
    /// Frame-tree nodes written.
    pub nodes: u64,
    /// Converter diagnostics (also embedded in the file).
    pub warnings: Vec<ConvertWarning>,
    /// Final file size in bytes.
    pub bytes_written: u64,
    /// FNV-1a digest of the file bytes.
    pub digest: u64,
}

impl Converter {
    /// Convert `src` straight to an SLOG2 file at `dst`, holding only
    /// `memory_budget` bytes (plus scan working set) of drawable data
    /// in RAM. Bytes at `dst` are identical to what
    /// [`convert`](Converter::convert) + `to_bytes` would produce.
    pub fn convert_to_path(
        &self,
        src: TraceSource<'_>,
        dst: &Path,
    ) -> Result<ConvertSummary, StreamError> {
        if self.max_depth > 32 {
            // Path ids don't reach below depth 32; fall back to the
            // in-memory build (identical bytes by construction).
            let Conversion { file, warnings } = self.convert(src)?;
            let bytes = file.to_bytes();
            std::fs::write(dst, &bytes)?;
            return Ok(ConvertSummary {
                drawables: file.total_drawables() as u64,
                nodes: file.tree.node_count() as u64,
                warnings,
                bytes_written: bytes.len() as u64,
                digest: fnv1a(FNV_SEED, &bytes),
            });
        }
        run_out_of_core(self, src, dst)
    }
}

/// Sequence number for temp-file names (several conversions may run in
/// one process).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp file deleted on drop.
struct TempFile {
    path: PathBuf,
}

impl TempFile {
    fn create(dir: Option<&Path>, tag: &str) -> io::Result<TempFile> {
        let dir = match dir {
            Some(d) => d.to_path_buf(),
            None => std::env::temp_dir(),
        };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!(
            "slog2-oocore-{}-{}-{tag}.tmp",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        Ok(TempFile { path })
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An external sorter over byte records: buffers up to `budget` bytes,
/// spills sorted runs to one temp file, and k-way merges the runs on
/// drain. Records compare as byte slices, so callers encode sort keys
/// big-endian.
struct ExtSorter {
    recs: Vec<Vec<u8>>,
    buffered: usize,
    budget: usize,
    spill: Option<(BufWriter<File>, TempFile)>,
    spill_dir: Option<PathBuf>,
    tag: &'static str,
    runs: Vec<(u64, u64)>,
    pos: u64,
}

impl ExtSorter {
    fn new(budget: usize, spill_dir: Option<&Path>, tag: &'static str) -> ExtSorter {
        ExtSorter {
            recs: Vec::new(),
            buffered: 0,
            // Below ~64 KiB the run bookkeeping dominates; clamp.
            budget: budget.max(64 << 10),
            spill: None,
            spill_dir: spill_dir.map(Path::to_path_buf),
            tag,
            runs: Vec::new(),
            pos: 0,
        }
    }

    fn push(&mut self, rec: Vec<u8>) -> io::Result<()> {
        // ~32 bytes of Vec overhead per record.
        self.buffered += rec.len() + 32;
        self.recs.push(rec);
        if self.buffered > self.budget {
            self.spill_run()?;
        }
        Ok(())
    }

    fn spill_run(&mut self) -> io::Result<()> {
        if self.recs.is_empty() {
            return Ok(());
        }
        self.recs.sort_unstable();
        if self.spill.is_none() {
            let tf = TempFile::create(self.spill_dir.as_deref(), self.tag)?;
            let f = File::create(&tf.path)?;
            self.spill = Some((BufWriter::new(f), tf));
        }
        let w = &mut self.spill.as_mut().expect("spill open").0;
        let start = self.pos;
        for rec in self.recs.drain(..) {
            w.write_all(&(rec.len() as u32).to_le_bytes())?;
            w.write_all(&rec)?;
            self.pos += 4 + rec.len() as u64;
        }
        self.runs.push((start, self.pos));
        self.buffered = 0;
        Ok(())
    }

    /// Drain everything in sorted order.
    fn into_sorted(mut self) -> io::Result<SortedIter> {
        if self.runs.is_empty() {
            self.recs.sort_unstable();
            return Ok(SortedIter::Mem(self.recs.into_iter()));
        }
        self.spill_run()?;
        let (w, tf) = self.spill.take().expect("spill open");
        w.into_inner().map_err(io::Error::other)?.sync_data().ok();
        let mut readers = Vec::with_capacity(self.runs.len());
        let mut heap = BinaryHeap::new();
        for (i, &(start, end)) in self.runs.iter().enumerate() {
            let mut f = File::open(&tf.path)?;
            f.seek(SeekFrom::Start(start))?;
            let mut r = RunReader {
                r: BufReader::new(f.take(end - start)),
            };
            if let Some(rec) = r.next_rec()? {
                heap.push(std::cmp::Reverse((rec, i)));
            }
            readers.push(r);
        }
        Ok(SortedIter::Merge {
            heap,
            readers,
            _guard: tf,
        })
    }
}

struct RunReader {
    r: BufReader<io::Take<File>>,
}

impl RunReader {
    fn next_rec(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut len = [0u8; 4];
        match self.r.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let mut rec = vec![0u8; u32::from_le_bytes(len) as usize];
        self.r.read_exact(&mut rec)?;
        Ok(Some(rec))
    }
}

enum SortedIter {
    Mem(std::vec::IntoIter<Vec<u8>>),
    Merge {
        heap: BinaryHeap<std::cmp::Reverse<(Vec<u8>, usize)>>,
        readers: Vec<RunReader>,
        _guard: TempFile,
    },
}

impl SortedIter {
    fn next_rec(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self {
            SortedIter::Mem(it) => Ok(it.next()),
            SortedIter::Merge { heap, readers, .. } => {
                let Some(std::cmp::Reverse((rec, i))) = heap.pop() else {
                    return Ok(None);
                };
                if let Some(next) = readers[i].next_rec()? {
                    heap.push(std::cmp::Reverse((next, i)));
                }
                Ok(Some(rec))
            }
        }
    }
}

/// One contiguous run of rows in the row file. `order` ranks segments
/// into the global row sequence: `(0, rank)` for scan output (the
/// salvage terminal shard is rank `u32::MAX`), `(1, 0)` for arrows —
/// the same rank-ascending-then-arrows order the in-memory merge uses.
struct Segment {
    order: (u8, u32),
    start: u64,
    rows: u64,
    /// Min row start / max row end, folded in row order.
    t0: f64,
    t1: f64,
}

/// The pass-A row file: sequential segments of
/// `[start f64][end f64][cat u32][dur f64][len u32][payload]` rows.
struct RowFile {
    w: BufWriter<File>,
    guard: TempFile,
    pos: u64,
    segments: Vec<Segment>,
    total_rows: u64,
}

impl RowFile {
    fn create(dir: Option<&Path>) -> io::Result<RowFile> {
        let guard = TempFile::create(dir, "rows")?;
        let f = File::create(&guard.path)?;
        Ok(RowFile {
            w: BufWriter::new(f),
            guard,
            pos: 0,
            segments: Vec::new(),
            total_rows: 0,
        })
    }

    /// Spill one shard's rows as a segment, feeding Equal-Drawables keys
    /// to `eq` along the way.
    fn spill_shard(
        &mut self,
        order: (u8, u32),
        cols: &DrawableColumns,
        eq: &mut ExtSorter,
    ) -> io::Result<()> {
        let start = self.pos;
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        // Encode the whole segment's payloads in one buffer; per-row
        // lengths delimit it. The segment is already resident as `cols`,
        // so this doubles nothing out of proportion.
        let mut payloads = Writer::with_capacity(cols.len() * 32);
        let mut offsets = Vec::with_capacity(cols.len() + 1);
        for i in 0..cols.len() {
            offsets.push(payloads.len());
            cols.encode(i, &mut payloads);
        }
        offsets.push(payloads.len());
        let payloads = payloads.into_bytes();
        for i in 0..cols.len() {
            let (s, e) = (cols.start(i), cols.end(i));
            t0 = t0.min(s);
            t1 = t1.max(e);
            eq.push(pack_equal_key(cols.equal_key(i)).to_vec())?;
            let bytes = &payloads[offsets[i]..offsets[i + 1]];
            self.w.write_all(&s.to_le_bytes())?;
            self.w.write_all(&e.to_le_bytes())?;
            self.w.write_all(&cols.category(i).0.to_le_bytes())?;
            self.w.write_all(&cols.duration(i).to_le_bytes())?;
            self.w.write_all(&(bytes.len() as u32).to_le_bytes())?;
            self.w.write_all(bytes)?;
            self.pos += 8 + 8 + 4 + 8 + 4 + bytes.len() as u64;
        }
        self.total_rows += cols.len() as u64;
        self.segments.push(Segment {
            order,
            start,
            rows: cols.len() as u64,
            t0,
            t1,
        });
        Ok(())
    }

    /// Finish writing; returns a re-reader that yields rows in global
    /// sequence order (segments sorted by `order`).
    fn finish(mut self) -> io::Result<RowCursor> {
        self.w.flush()?;
        drop(self.w);
        self.segments.sort_by_key(|s| s.order);
        Ok(RowCursor {
            guard: self.guard,
            segments: self.segments,
            total_rows: self.total_rows,
        })
    }
}

struct RowCursor {
    guard: TempFile,
    segments: Vec<Segment>,
    total_rows: u64,
}

/// One decoded spill row.
struct Row {
    start: f64,
    end: f64,
    cat: u32,
    dur: f64,
    payload: Vec<u8>,
}

impl RowCursor {
    /// The global time range: per-segment extrema folded in segment
    /// order (min/max folds are order-insensitive for non-NaN inputs,
    /// so this equals the in-memory row-order fold).
    fn range(&self) -> (f64, f64) {
        let (mut t0, mut t1) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in &self.segments {
            t0 = t0.min(s.t0);
            t1 = t1.max(s.t1);
        }
        if t0.is_finite() {
            (t0, t1)
        } else {
            (0.0, 0.0)
        }
    }

    /// Stream every row in global sequence order.
    fn for_each(&self, mut f: impl FnMut(u64, Row) -> io::Result<()>) -> io::Result<()> {
        let mut seq = 0u64;
        let mut file = BufReader::new(File::open(&self.guard.path)?);
        for seg in &self.segments {
            file.seek(SeekFrom::Start(seg.start))?;
            for _ in 0..seg.rows {
                let start = read_f64(&mut file)?;
                let end = read_f64(&mut file)?;
                let cat = read_u32(&mut file)?;
                let dur = read_f64(&mut file)?;
                let len = read_u32(&mut file)? as usize;
                let mut payload = vec![0u8; len];
                file.read_exact(&mut payload)?;
                f(
                    seq,
                    Row {
                        start,
                        end,
                        cat,
                        dur,
                        payload,
                    },
                )?;
                seq += 1;
            }
        }
        Ok(())
    }
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Pack an Equal-Drawables key big-endian so byte order equals tuple
/// order.
fn pack_equal_key(k: EqualKey) -> [u8; 28] {
    let mut out = [0u8; 28];
    out[0..4].copy_from_slice(&k.0.to_be_bytes());
    out[4..8].copy_from_slice(&k.1.to_be_bytes());
    out[8..12].copy_from_slice(&k.2.to_be_bytes());
    out[12..20].copy_from_slice(&k.3.to_be_bytes());
    out[20..28].copy_from_slice(&k.4.to_be_bytes());
    out
}

fn unpack_equal_key(b: &[u8]) -> EqualKey {
    let u32_at = |i: usize| u32::from_be_bytes(b[i..i + 4].try_into().expect("key width"));
    let u64_at = |i: usize| u64::from_be_bytes(b[i..i + 8].try_into().expect("key width"));
    (u32_at(0), u32_at(4), u32_at(8), u64_at(12), u64_at(20))
}

/// One realized tree node, preorder.
struct NodeMeta {
    t0: f64,
    t1: f64,
    depth: u32,
    split: bool,
    items: u64,
}

/// Walk one row down the potential tree, calling `visit(path_id)` at
/// every node it reaches; returns when the row stops descending.
fn walk_potential(
    row_start: f64,
    row_end: f64,
    t0: f64,
    t1: f64,
    max_depth: u32,
    mut visit: impl FnMut(u64),
) {
    let (mut id, mut a, mut b) = (1u64, t0, t1);
    let mut depth = 0u32;
    loop {
        visit(id);
        if depth >= max_depth || b <= a {
            return;
        }
        let mid = a + (b - a) / 2.0;
        if row_end <= mid {
            id <<= 1;
            b = mid;
        } else if row_start >= mid {
            id = id << 1 | 1;
            a = mid;
        } else {
            return;
        }
        depth += 1;
    }
}

/// Realize the tree shape from reach counts: preorder node list plus a
/// path-id → preorder map.
fn realize_tree(
    reach: &HashMap<u64, u64, FnvBuild>,
    t0: f64,
    t1: f64,
    capacity: u64,
    max_depth: u32,
) -> (Vec<NodeMeta>, HashMap<u64, u32, FnvBuild>) {
    let mut nodes = Vec::new();
    let mut map: HashMap<u64, u32, FnvBuild> = HashMap::default();
    // Explicit stack, preorder: push right before left so left pops
    // first (matching the recursion's self → left → right order).
    let mut stack = vec![(1u64, t0, t1, 0u32)];
    while let Some((id, a, b, depth)) = stack.pop() {
        let n = reach.get(&id).copied().unwrap_or(0);
        let l = reach.get(&(id << 1)).copied().unwrap_or(0);
        let r = reach.get(&(id << 1 | 1)).copied().unwrap_or(0);
        // The same predicate the in-memory recursion evaluates: items
        // over capacity, depth available, splittable interval, and the
        // split actually moves something down.
        let split = n > capacity && depth < max_depth && b > a && (l + r) > 0;
        map.insert(id, nodes.len() as u32);
        nodes.push(NodeMeta {
            t0: a,
            t1: b,
            depth,
            split,
            items: if split { n - l - r } else { n },
        });
        if split {
            let mid = a + (b - a) / 2.0;
            stack.push((id << 1 | 1, mid, b, depth + 1));
            stack.push((id << 1, a, mid, depth + 1));
        }
    }
    // `stack.pop()` visits self, then the whole left subtree, then the
    // right — but interleaved pushes would break preorder numbering if
    // the left subtree pushed before the right sibling popped. It
    // can't: right was pushed below left, and left's entire subtree is
    // pushed (and popped) above it. So `map` holds true preorder.
    (nodes, map)
}

fn run_out_of_core(
    conv: &Converter,
    src: TraceSource<'_>,
    dst: &Path,
) -> Result<ConvertSummary, StreamError> {
    let workers = conv.effective_parallelism();
    let obs = conv.obs.as_deref();
    let budget = conv.memory_budget.unwrap_or(usize::MAX);
    let spill_dir = conv.spill_dir.as_deref();

    // ---- Pass A: scan one rank block at a time (so only one rank's
    // drawables are ever resident), spilling its rows as a segment and
    // keeping the small residents (sends/recvs/warnings) for matching.
    let mut rows = RowFile::create(spill_dir)?;
    let mut eq = ExtSorter::new(budget / 4, spill_dir, "eqkeys");
    let mut shards = Vec::new();
    let (table, nranks) = conv.scan_source(src, true, |mut scan| {
        rows.spill_shard((0, scan.rank), &scan.cols, &mut eq)?;
        scan.cols = DrawableColumns::new();
        shards.push(scan);
        Ok(())
    })?;
    // Shard warnings flow into the global list in rank order — exactly
    // the in-memory merge.
    shards.sort_by_key(|s| s.rank);
    let mut warnings: Vec<ConvertWarning> = shards
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.warnings))
        .collect();

    // Arrow matching runs on the resident send/recv lists; its rows
    // spill as the final segment.
    {
        let _span = obs.map(|o| o.span("arrow-match", "convert", 0));
        let mut acols = DrawableColumns::new();
        let arrow_cat = table.arrow_cat;
        match_all_arrows(&shards, arrow_cat, workers, obs, &mut acols, &mut warnings);
        rows.spill_shard((1, 0), &acols, &mut eq)?;
    }

    // Equal-Drawables: drain the key sorter, report runs longer than 1
    // in key order (identical to the in-memory sorted-dups report).
    {
        let _span = obs.map(|o| o.span("diagnose", "convert", 0));
        let mut sorted = eq.into_sorted()?;
        let mut current: Option<(Vec<u8>, usize)> = None;
        let flush = |cur: &mut Option<(Vec<u8>, usize)>, warnings: &mut Vec<ConvertWarning>| {
            if let Some((key, n)) = cur.take().filter(|&(_, n)| n > 1) {
                warnings.push(equal_drawables(
                    &table.categories,
                    unpack_equal_key(&key),
                    n,
                ));
            }
        };
        while let Some(key) = sorted.next_rec()? {
            match &mut current {
                Some((k, n)) if *k == key => *n += 1,
                _ => {
                    flush(&mut current, &mut warnings);
                    current = Some((key, 1));
                }
            }
        }
        flush(&mut current, &mut warnings);
    }

    // ---- Pass B: range + reach counts → realized tree shape. ----
    let _tree_span = obs.map(|o| o.span("tree-build", "convert", 0));
    let cursor = rows.finish()?;
    let (t0, t1) = cursor.range();
    let capacity = conv.frame_capacity.max(1);
    let mut reach: HashMap<u64, u64, FnvBuild> = HashMap::default();
    cursor.for_each(|_, row| {
        walk_potential(row.start, row.end, t0, t1, conv.max_depth, |id| {
            *reach.entry(id).or_insert(0) += 1;
        });
        Ok(())
    })?;
    let (nodes, node_of) = realize_tree(&reach, t0, t1, capacity as u64, conv.max_depth);
    drop(reach);

    // ---- Pass C: previews in row order + external sort by placement. ----
    // A row contributes to the preview of every *realized* node on its
    // path (root down to the node that keeps it) — never to the
    // potential nodes below a leaf, which the in-memory recursion never
    // creates. Rows stream in global sequence order, so each node's
    // preview accumulates its items in exactly the order the in-memory
    // build adds them (per-node f64 sums are bit-identical).
    let mut previews = vec![Preview::default(); nodes.len()];
    let mut placed = ExtSorter::new(budget / 2, spill_dir, "placed");
    let mut payload_bytes = vec![0u64; nodes.len()];
    cursor.for_each(|seq, row| {
        let (mut id, mut a, mut b) = (1u64, t0, t1);
        let keep = loop {
            let pre = node_of[&id];
            previews[pre as usize].add(CategoryId(row.cat), row.dur);
            if !nodes[pre as usize].split {
                break pre;
            }
            let mid = a + (b - a) / 2.0;
            if row.end <= mid {
                id <<= 1;
                b = mid;
            } else if row.start >= mid {
                id = id << 1 | 1;
                a = mid;
            } else {
                break pre;
            }
        };
        payload_bytes[keep as usize] += row.payload.len() as u64;
        let mut rec = Vec::with_capacity(12 + row.payload.len());
        rec.extend_from_slice(&keep.to_be_bytes());
        rec.extend_from_slice(&seq.to_be_bytes());
        rec.extend_from_slice(&row.payload);
        placed.push(rec)
    })?;

    // ---- Write the file. ----
    let warning_texts: Vec<String> = warnings.iter().map(|w| w.to_string()).collect();
    let header = Header {
        capacity,
        max_depth: conv.max_depth,
        range: TimeWindow::new(t0, t1),
        timelines: &conv.timelines(nranks),
        categories: &table.categories,
        warnings: &warning_texts,
    }
    .encode(nodes.len())
    .into_bytes();

    // Node heads and preview tails are O(nodes): encoding them first
    // fixes every node's offset, so the directory goes out in place and
    // the file streams out once, digested on the way.
    let parts: Vec<(Vec<u8>, Vec<u8>)> = nodes
        .iter()
        .zip(&previews)
        .map(|(node, preview)| {
            let mut head = Writer::with_capacity(32);
            let items = node.items as usize;
            encode_node_head(&mut head, node.t0, node.t1, node.depth, node.split, items);
            let mut tail = Writer::with_capacity(4 + 20 * preview.entries.len());
            encode_preview(&mut tail, preview);
            (head.into_bytes(), tail.into_bytes())
        })
        .collect();
    let mut out = BufWriter::new(File::create(dst)?);
    let (mut digest, mut bytes_written) = (FNV_SEED, 0u64);
    let mut put = |bytes: &[u8]| {
        digest = fnv1a(digest, bytes);
        bytes_written += bytes.len() as u64;
        out.write_all(bytes)
    };
    put(&header)?;
    let mut pos = (header.len() + nodes.len() * 8) as u64;
    for ((head, tail), payload) in parts.iter().zip(&payload_bytes) {
        put(&pos.to_le_bytes())?;
        pos += (head.len() + tail.len()) as u64 + payload;
    }
    let mut sorted = placed.into_sorted()?;
    for (pre, ((head, tail), node)) in parts.iter().zip(&nodes).enumerate() {
        put(head)?;
        // The sorted stream is grouped by preorder index, and the reach
        // arithmetic guarantees each group's length equals the node's
        // item count — assert rather than trust.
        for _ in 0..node.items {
            let rec = sorted
                .next_rec()?
                .ok_or_else(|| io::Error::other("row stream ended before its node count"))?;
            let rec_pre = u32::from_be_bytes(rec[0..4].try_into().expect("rec key"));
            if rec_pre != pre as u32 {
                return Err(StreamError::Io(io::Error::other(
                    "row placed outside its node",
                )));
            }
            put(&rec[12..])?;
        }
        put(tail)?;
    }
    out.flush()?;

    Ok(ConvertSummary {
        drawables: cursor.total_rows,
        nodes: nodes.len() as u64,
        warnings,
        bytes_written,
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SalvageReport, TornPolicy};
    use mpelog::{Clog2File, Color, Logger};

    fn tmp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("slog2-oocore-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A messy multi-rank log exercising every drawable and warning
    /// path (mirrors the converter tests' generator).
    fn messy_clog(nranks: u32) -> Clog2File {
        let mut loggers: Vec<Logger> = (0..nranks as usize).map(Logger::new).collect();
        let mut ids = Vec::new();
        for lg in &mut loggers {
            let s = lg.define_state("compute", Color::GREEN);
            let t = lg.define_state("io", Color::RED);
            let _ = lg.define_event("mark", Color::YELLOW);
            if ids.is_empty() {
                ids = vec![s.0, s.1, t.0, t.1];
            }
        }
        let n = nranks as usize;
        for (r, lg) in loggers.iter_mut().enumerate() {
            let base = r as f64;
            // Nested states, one backward.
            lg.log_event(base + 0.1, ids[0], "outer");
            lg.log_event(base + 0.2, ids[2], "inner");
            lg.log_event(base + 0.15, ids[3], ""); // backward io
            lg.log_event(base + 0.9, ids[1], "");
            // Ring messages; rank 0 also sends one nobody receives.
            let dst = (r + 1) % n;
            lg.log_send(base + 0.3, dst, 7, 64);
            lg.log_receive(base + 0.35, (r + n - 1) % n, 7, 64);
            if r == 0 {
                lg.log_send(base + 0.4, dst, 9, 8); // unmatched send
                lg.log_receive(base + 0.5, dst, 11, 8); // unmatched recv
                lg.log_event(base + 0.6, ids[0], "never closed"); // unclosed
            }
            // Equal drawables: identical start/end pairs.
            lg.log_event(base + 0.7, ids[2], "");
            lg.log_event(base + 0.72, ids[3], "");
            lg.log_event(base + 0.7, ids[2], "");
            lg.log_event(base + 0.72, ids[3], "");
        }
        let mut blocks = std::collections::BTreeMap::new();
        for (r, lg) in loggers.iter().enumerate() {
            blocks.insert(r as u32, lg.records().to_vec());
        }
        Clog2File {
            nranks,
            state_defs: loggers[0].state_defs().to_vec(),
            event_defs: loggers[0].event_defs().to_vec(),
            blocks,
        }
    }

    fn in_memory_bytes(clog: &Clog2File, threads: usize) -> Vec<u8> {
        Converter::new()
            .parallelism(threads)
            .convert(TraceSource::InMemory(clog))
            .unwrap()
            .file
            .to_bytes()
    }

    #[test]
    fn out_of_core_matches_in_memory_bytes() {
        let clog = messy_clog(3);
        let want = in_memory_bytes(&clog, 1);
        for (threads, budget) in [(1, None), (2, Some(1)), (4, Some(64 << 10))] {
            let mut conv = Converter::new().parallelism(threads).spill_dir(tmp_dir());
            if let Some(b) = budget {
                conv = conv.memory_budget(b);
            }
            let dst = tmp_dir().join(format!("ooc-{threads}-{budget:?}.pslog2"));
            let summary = conv
                .convert_to_path(TraceSource::InMemory(&clog), &dst)
                .unwrap();
            let got = std::fs::read(&dst).unwrap();
            assert_eq!(got, want, "threads={threads} budget={budget:?}");
            assert_eq!(summary.bytes_written, want.len() as u64);
            assert_eq!(summary.digest, fnv1a(FNV_SEED, &want));
            assert!(summary.drawables > 0 && summary.nodes > 0);
        }
    }

    #[test]
    fn out_of_core_source_kinds_agree() {
        let clog = messy_clog(2);
        let bytes = clog.to_bytes();
        let want = in_memory_bytes(&clog, 1);
        let dir = tmp_dir();

        let conv = Converter::new()
            .parallelism(2)
            .memory_budget(1)
            .spill_dir(dir.clone());

        let d1 = dir.join("src-bytes.pslog2");
        conv.convert_to_path(TraceSource::Bytes(&bytes), &d1)
            .unwrap();
        assert_eq!(std::fs::read(&d1).unwrap(), want, "Bytes");

        let clog_path = dir.join("src.clog2");
        std::fs::write(&clog_path, &bytes).unwrap();
        let d2 = dir.join("src-mmap.pslog2");
        conv.convert_to_path(TraceSource::mmap(&clog_path).unwrap(), &d2)
            .unwrap();
        assert_eq!(std::fs::read(&d2).unwrap(), want, "Mmap");

        let d3 = dir.join("src-reader.pslog2");
        conv.convert_to_path(TraceSource::reader(&bytes[..]), &d3)
            .unwrap();
        assert_eq!(std::fs::read(&d3).unwrap(), want, "Reader");
    }

    #[test]
    fn out_of_core_salvage_matches_in_memory() {
        use crate::convert::{FailureKind, RankVerdict};
        let clog = messy_clog(2);
        let report = SalvageReport {
            verdicts: vec![RankVerdict {
                rank: 1,
                kind: FailureKind::Aborted,
                detail: "panicked at 'boom'".into(),
            }],
            diagnosis: Some("rank 1 aborted".into()),
            ..Default::default()
        };
        let want = Converter::new()
            .parallelism(1)
            .on_torn(TornPolicy::Salvage(report.clone()))
            .convert(TraceSource::InMemory(&clog))
            .unwrap()
            .file
            .to_bytes();
        let dst = tmp_dir().join("ooc-salvage.pslog2");
        Converter::new()
            .parallelism(2)
            .memory_budget(1)
            .spill_dir(tmp_dir())
            .on_torn(TornPolicy::Salvage(report))
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
    }

    /// A large two-rank log (~`per_rank` drawables each) that overflows
    /// a 64 KiB sorter budget, forcing real spill runs.
    fn bulk_clog(per_rank: usize) -> Clog2File {
        let mut loggers: Vec<Logger> = (0..2).map(Logger::new).collect();
        let mut ids = Vec::new();
        for lg in &mut loggers {
            let s = lg.define_state("work", Color::GREEN);
            if ids.is_empty() {
                ids = vec![s.0, s.1];
            }
        }
        for (r, lg) in loggers.iter_mut().enumerate() {
            for k in 0..per_rank {
                let t = r as f64 * 0.0001 + k as f64 * 0.001;
                lg.log_event(t, ids[0], "");
                lg.log_event(t + 0.0005, ids[1], "");
            }
        }
        let mut blocks = std::collections::BTreeMap::new();
        for (r, lg) in loggers.iter().enumerate() {
            blocks.insert(r as u32, lg.records().to_vec());
        }
        Clog2File {
            nranks: 2,
            state_defs: loggers[0].state_defs().to_vec(),
            event_defs: loggers[0].event_defs().to_vec(),
            blocks,
        }
    }

    #[test]
    fn out_of_core_bulk_spill_matches_in_memory() {
        let clog = bulk_clog(2_000);
        let want = in_memory_bytes(&clog, 1);
        let dst = tmp_dir().join("ooc-bulk.pslog2");
        // Budget 1 clamps to 64 KiB per sorter: 4k rows of ~45 bytes
        // overflow it, so both sorters take the spill-and-merge path.
        let summary = Converter::new()
            .parallelism(4)
            .memory_budget(1)
            .spill_dir(tmp_dir())
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
        assert_eq!(summary.drawables, 4_000);
    }

    #[test]
    fn out_of_core_empty_log_matches() {
        let clog = Clog2File {
            nranks: 2,
            state_defs: Vec::new(),
            event_defs: Vec::new(),
            blocks: std::collections::BTreeMap::new(),
        };
        let want = in_memory_bytes(&clog, 1);
        let dst = tmp_dir().join("ooc-empty.pslog2");
        let summary = Converter::new()
            .spill_dir(tmp_dir())
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
        assert_eq!(summary.drawables, 0);
    }

    #[test]
    fn deep_tree_falls_back_to_in_memory() {
        let clog = messy_clog(2);
        let want = Converter::new()
            .max_depth(40)
            .parallelism(1)
            .convert(TraceSource::InMemory(&clog))
            .unwrap()
            .file
            .to_bytes();
        let dst = tmp_dir().join("ooc-deep.pslog2");
        let summary = Converter::new()
            .max_depth(40)
            .parallelism(1)
            .convert_to_path(TraceSource::InMemory(&clog), &dst)
            .unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), want);
        assert_eq!(summary.digest, fnv1a(FNV_SEED, &want));
    }

    #[test]
    fn ext_sorter_spills_and_merges_sorted() {
        let mut s = ExtSorter::new(1, Some(&tmp_dir()), "unit");
        // Budget is clamped to 64 KiB; push enough to force several runs.
        let mut want = Vec::new();
        for i in 0..20_000u32 {
            let key = (i.wrapping_mul(2_654_435_761)) ^ 0x5a5a;
            let rec = key.to_be_bytes().to_vec();
            want.push(rec.clone());
            s.push(rec).unwrap();
        }
        want.sort_unstable();
        let mut it = s.into_sorted().unwrap();
        let mut got = Vec::new();
        while let Some(r) = it.next_rec().unwrap() {
            got.push(r);
        }
        assert_eq!(got, want);
    }
}
