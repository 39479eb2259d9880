//! Property tests: the wire codec, record/file round trips, the
//! 40-byte info clamp, and clock-correction math.

use mpelog::ids::EventId;
use mpelog::record::{clamp_info, Record};
use mpelog::wire::{Reader, Writer};
use mpelog::{
    ClockCorrection, Clog2Blocks, Clog2File, Clog2Image, Color, Logger, StreamError, MAX_INFO_BYTES,
};
use proptest::prelude::*;

/// Read `bytes` through the streaming reader, to `finish`.
fn stream(bytes: &[u8]) -> Result<Clog2File, StreamError> {
    let mut blocks = Clog2Blocks::open(bytes)?;
    let mut file = Clog2File {
        nranks: blocks.nranks,
        state_defs: blocks.state_defs.clone(),
        event_defs: blocks.event_defs.clone(),
        ..Default::default()
    };
    for item in &mut blocks {
        let (rank, records) = item?;
        file.blocks.insert(rank, records);
    }
    blocks.finish()?;
    Ok(file)
}

/// Decode every record of a byte image into an owned log.
fn image_file(image: Clog2Image<'_>) -> Clog2File {
    let blocks = image.blocks.iter().map(|b| {
        let views = b.chunks.iter().flat_map(|c| c.views());
        (b.rank, views.map(Record::from).collect())
    });
    Clog2File {
        nranks: image.nranks,
        blocks: blocks.collect(),
        state_defs: image.state_defs,
        event_defs: image.event_defs,
    }
}

/// Every CLOG2 reader agrees on `bytes`: `from_bytes`, `parse_image`
/// and `Clog2Blocks` all accept with equal content, or all reject; and
/// salvage of an accepted input is whole and equal to the strict parse.
/// Content is compared re-encoded, so NaN timestamps compare by bits.
fn readers_agree(bytes: &[u8]) {
    let strict = Clog2File::from_bytes(bytes);
    let image = Clog2File::parse_image(bytes, 3);
    let streamed = stream(bytes);
    match strict {
        Ok(file) => {
            let want = file.to_bytes();
            prop_assert!(image.is_ok(), "parse_image: {:?}", image.err());
            prop_assert_eq!(image_file(image.unwrap()).to_bytes(), want.clone());
            prop_assert!(streamed.is_ok(), "Clog2Blocks: {:?}", streamed.err());
            prop_assert_eq!(streamed.unwrap().to_bytes(), want.clone());
            let s = Clog2File::salvage_bytes(bytes);
            prop_assert!(!s.truncated);
            prop_assert_eq!(s.torn_rank, None);
            prop_assert_eq!(s.records_recovered, file.total_records());
            prop_assert_eq!(s.file.to_bytes(), want);
        }
        Err(e) => {
            prop_assert!(image.is_err(), "parse_image accepts, from_bytes: {}", e);
            prop_assert!(streamed.is_err(), "Clog2Blocks accepts, from_bytes: {}", e);
        }
    }
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        (
            any::<f64>().prop_filter("finite", |t| t.is_finite()),
            any::<u32>(),
            ".{0,60}"
        )
            .prop_map(|(ts, id, text)| Record::Event {
                ts,
                id: EventId(id),
                text: clamp_info(&text),
            }),
        (0f64..1e6, any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(ts, dst, tag, size)| { Record::Send { ts, dst, tag, size } }),
        (0f64..1e6, any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(ts, src, tag, size)| { Record::Recv { ts, src, tag, size } }),
    ]
}

proptest! {
    #[test]
    fn wire_mixed_sequence_roundtrips(
        u8s in proptest::collection::vec(any::<u8>(), 0..8),
        u32s in proptest::collection::vec(any::<u32>(), 0..8),
        f64s in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..8),
        strings in proptest::collection::vec(".{0,40}", 0..6),
    ) {
        let mut w = Writer::new();
        for &v in &u8s { w.put_u8(v); }
        for &v in &u32s { w.put_u32(v); }
        for &v in &f64s { w.put_f64(v); }
        for s in &strings { w.put_str(s); }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &u8s { prop_assert_eq!(r.get_u8().unwrap(), v); }
        for &v in &u32s { prop_assert_eq!(r.get_u32().unwrap(), v); }
        for &v in &f64s { prop_assert_eq!(r.get_f64().unwrap(), v); }
        for s in &strings { prop_assert_eq!(&r.get_str().unwrap(), s); }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn record_roundtrips(rec in arb_record()) {
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        let back = Record::decode(&mut Reader::new(&bytes)).unwrap();
        // NaN-free by construction, so equality is fine.
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn clog_file_roundtrips(
        blocks in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 0..30),
            0..5,
        ),
    ) {
        let mut file = Clog2File {
            nranks: blocks.len() as u32,
            ..Default::default()
        };
        for (r, records) in blocks.into_iter().enumerate() {
            file.blocks.insert(r as u32, records);
        }
        let back = Clog2File::from_bytes(&file.to_bytes()).unwrap();
        prop_assert_eq!(back, file);
    }

    #[test]
    fn truncated_clog_never_panics(
        blocks in proptest::collection::vec(proptest::collection::vec(arb_record(), 0..10), 1..3),
        frac in 0f64..1.0,
    ) {
        let mut file = Clog2File { nranks: blocks.len() as u32, ..Default::default() };
        for (r, records) in blocks.into_iter().enumerate() {
            file.blocks.insert(r as u32, records);
        }
        let bytes = file.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        // Must return (Ok for the full file, Err otherwise) — never
        // panic — and every reader must give the same answer.
        let _ = Clog2File::from_bytes(&bytes[..cut]);
        readers_agree(&bytes[..cut]);
        readers_agree(&bytes);
        // A byte after the last block is trailing garbage to all of them.
        let mut trailing = bytes.clone();
        trailing.push(0);
        readers_agree(&trailing);
        prop_assert!(Clog2File::from_bytes(&trailing).is_err());
    }

    #[test]
    fn salvage_of_any_truncation_recovers_aligned_prefix(
        blocks in proptest::collection::vec(proptest::collection::vec(arb_record(), 0..12), 1..4),
        frac in 0f64..1.0,
    ) {
        let mut file = Clog2File { nranks: blocks.len() as u32, ..Default::default() };
        for (r, records) in blocks.into_iter().enumerate() {
            file.blocks.insert(r as u32, records);
        }
        let bytes = file.to_bytes();
        let cut = (((bytes.len() + 1) as f64) * frac) as usize;
        let cut = cut.min(bytes.len());
        // The salvage reader must never panic at any offset...
        let s = Clog2File::salvage_bytes(&bytes[..cut]);
        prop_assert!(s.bytes_recovered <= cut);
        prop_assert_eq!(s.records_recovered, s.file.total_records());
        // ...and always recovers a record-aligned prefix of the
        // untruncated parse, rank by rank.
        let full = Clog2File::from_bytes(&bytes).unwrap();
        for (rank, recs) in &s.file.blocks {
            let whole = &full.blocks[rank];
            prop_assert!(recs.len() <= whole.len());
            prop_assert_eq!(&whole[..recs.len()], &recs[..]);
        }
        for (i, d) in s.file.state_defs.iter().enumerate() {
            prop_assert_eq!(d, &full.state_defs[i]);
        }
        if cut == bytes.len() {
            prop_assert!(!s.truncated);
            prop_assert_eq!(s.file, full);
        } else {
            prop_assert!(s.truncated);
        }
    }

    #[test]
    fn corrupted_clog_never_panics(
        seed_byte in any::<u8>(),
        pos_frac in 0f64..1.0,
    ) {
        let mut lg = Logger::new(0);
        let id = lg.define_event("x", Color::YELLOW);
        for i in 0..20 {
            lg.log_event(i as f64, id, "text");
        }
        let mut file = Clog2File { nranks: 1, ..Default::default() };
        file.event_defs = lg.event_defs().to_vec();
        file.blocks.insert(0, lg.records().to_vec());
        let mut bytes = file.to_bytes();
        let pos = ((bytes.len().saturating_sub(1)) as f64 * pos_frac) as usize;
        bytes[pos] ^= seed_byte;
        let _ = Clog2File::from_bytes(&bytes); // no panic allowed
        readers_agree(&bytes);
    }

    #[test]
    fn clamp_info_is_bounded_and_idempotent(s in ".{0,120}") {
        let c = clamp_info(&s);
        prop_assert!(c.len() <= MAX_INFO_BYTES);
        prop_assert!(s.starts_with(&c));
        prop_assert_eq!(clamp_info(&c.clone()), c);
    }

    #[test]
    fn correction_interpolation_is_bounded_by_samples(
        o1 in -10f64..10.0,
        o2 in -10f64..10.0,
        t in 0f64..100.0,
    ) {
        let c = ClockCorrection::from_points(vec![(0.0, o1), (100.0, o2)]);
        let off = c.offset_at(t);
        let (lo, hi) = if o1 < o2 { (o1, o2) } else { (o2, o1) };
        prop_assert!(off >= lo - 1e-12 && off <= hi + 1e-12, "off={off} not in [{lo}, {hi}]");
    }

    #[test]
    fn correction_apply_preserves_order_for_mild_skew(
        o1 in -1f64..1.0,
        o2 in -1f64..1.0,
        a in 0f64..50.0,
        delta in 3f64..50.0,
    ) {
        // Sample offsets 100s apart with |offset| <= 1s: effective skew
        // below 2%, so timestamps more than `delta` >= 3s apart cannot be
        // reordered by the correction.
        let c = ClockCorrection::from_points(vec![(0.0, o1), (100.0, o2)]);
        let b = a + delta;
        prop_assert!(c.apply(b) > c.apply(a));
    }
}
