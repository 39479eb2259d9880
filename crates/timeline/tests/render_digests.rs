//! Byte-identity pins for the `/v1/render` documents.
//!
//! The SVG writer is a hand-tuned single pass; these digests hold its
//! output to the bytes the straightforward `format!`-per-drawable
//! writer produced. Each input covers a distinct path of the canvas:
//! the full range draws only preview stripes, arrows and bubbles; the
//! narrow window draws individual state rectangles (some clipped at
//! the window's edges); the overlay adds the critical-path marks. A
//! change to any digest is a change to every served render.

use slog2::{Converter, TimeWindow, TraceSource};
use timeline::{fnv1a, TimelineService};

/// `workloads::synthetic_clog(ranks, calls)` converted and served.
fn service(ranks: usize, calls: usize) -> TimelineService {
    let clog = workloads::synthetic_clog(ranks, calls);
    let file = Converter::new()
        .convert(TraceSource::InMemory(&clog))
        .expect("synthetic trace converts")
        .file;
    TimelineService::from_file(file)
}

/// A 20 ms window of the 0.8 s `(16, 500)` trace: each 50 µs state is
/// ≈3.2 px wide at 1280 px, so states draw as rectangles, not stripes.
const NARROW: TimeWindow = TimeWindow { t0: 0.1, t1: 0.12 };

fn render(
    svc: &TimelineService,
    backend: &str,
    window: Option<TimeWindow>,
    overlay: bool,
) -> String {
    svc.render(backend, window, 1280, overlay)
        .expect("known backend")
        .1
}

/// `(length, FNV-1a digest)` of a body, so a mismatch shows both.
fn pin(body: &str) -> (usize, u64) {
    (body.len(), fnv1a(body.as_bytes()))
}

#[test]
fn render_bodies_keep_their_digests() {
    let svc = service(16, 500);
    let cases = [
        ("svg", None, false, (2_419_454, 0xfecc_acd6_70c3_7ab0)),
        ("html", None, false, (3_050_561, 0x527d_05d6_2bf5_466b)),
        ("svg", Some(NARROW), false, (75_524, 0x9dae_5f41_1fce_01eb)),
        ("html", Some(NARROW), false, (78_278, 0x91d8_1a93_7db7_e209)),
        ("svg", None, true, (2_420_167, 0xda3d_0658_c7bb_879f)),
        ("html", None, true, (3_051_274, 0xdda9_9167_8407_96c7)),
    ];
    for (backend, window, overlay, want) in cases {
        let got = pin(&render(&svc, backend, window, overlay));
        assert_eq!(
            got, want,
            "{backend} window={window:?} overlay={overlay}: got ({}, {:#018x})",
            got.0, got.1
        );
    }
}

/// The full-range render of the benchmark's ingest-sized trace
/// (≈256 k drawables): 64 k arrows and 64 k bubbles with tooltips.
#[test]
fn ingest_sized_render_keeps_its_digest() {
    let svc = service(16, 8000);
    let got = pin(&render(&svc, "svg", None, false));
    assert_eq!(
        got,
        (22_189_270, 0xedfd_04b1_598b_9bad),
        "got {:#018x}",
        got.1
    );
}

#[test]
fn pinned_inputs_cover_every_canvas_path() {
    let svc = service(16, 500);
    let full = render(&svc, "svg", None, false);
    assert!(full.contains("class=\"preview\""));
    assert!(full.contains("class=\"arrow\""));
    assert!(full.contains("class=\"bubble\""));
    assert!(!full.contains("class=\"state\""));

    let narrow = render(&svc, "svg", Some(NARROW), false);
    assert!(narrow.matches("class=\"state\"").count() > 100);
    assert!(narrow.contains("class=\"arrow\""));
    assert!(narrow.contains("-&gt;"));

    let overlay = render(&svc, "svg", None, true);
    assert!(overlay.contains("class=\"critical-path\""));
}
