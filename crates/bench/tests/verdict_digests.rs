//! Golden digests of the verdict path: the FNV-1a digest of every
//! `DIAGNOSIS.json` and `DIFF.json` body for a fixed set of traces.
//!
//! The digests were recorded from the per-call analyses (one tree walk
//! per query) that the per-trace index replaced; any change in sort
//! order, tie-break or float-summation order shows up here as a digest
//! mismatch. The traces are the paper fixtures, a 600-round `pipeline`
//! chain under the virtual engine (seed 7, byte-identical per seed),
//! and the wide synthetic trace at 8 ranks × 1000 calls: small enough
//! for a debug `cargo test`, large enough to exercise every detector.

use analysis::{fixtures, TraceAnalyzer};
use diff::{diff_traces, fnv1a};
use pilot::PilotConfig;
use slog2::{Converter, Slog2File, TraceSource};

fn pipeline_chain() -> Slog2File {
    let mut cfg = PilotConfig::new(4).with_engine(minimpi::Engine::Virtual { seed: 7 });
    cfg.services.jumpshot = true;
    let (out, res) = workloads::run_pipeline(cfg, 600);
    assert!(out.is_clean(), "chain run must end cleanly");
    assert!(res.is_some(), "chain run must report its token sum");
    let clog = out.clog().expect("logged run keeps its CLOG2");
    Converter::new()
        .convert(TraceSource::InMemory(clog))
        .expect("in-memory conversion")
        .file
}

fn synthetic() -> Slog2File {
    let clog = workloads::synthetic_clog(8, 1000);
    Converter::new()
        .convert(TraceSource::InMemory(&clog))
        .expect("in-memory conversion")
        .file
}

fn diagnosis_digest(file: &Slog2File, label: &str) -> u64 {
    fnv1a(
        TraceAnalyzer::new(file)
            .diagnose(label)
            .to_json(file)
            .as_bytes(),
    )
}

fn diff_digest(before: &Slog2File, after: &Slog2File, labels: (&str, &str)) -> u64 {
    fnv1a(diff_traces(before, after, labels).to_json().as_bytes())
}

#[test]
fn diagnosis_and_diff_digests_are_pinned() {
    let a = fixtures::instance_a();
    let b = fixtures::instance_b();
    let fixed = fixtures::instance_fixed();
    let chain = pipeline_chain();
    let wide = synthetic();

    let got = [
        diagnosis_digest(&a, "instance-a"),
        diagnosis_digest(&b, "instance-b"),
        diagnosis_digest(&fixed, "instance-fixed"),
        diagnosis_digest(&chain, "pipeline"),
        diagnosis_digest(&wide, "synthetic"),
        diff_digest(&a, &fixed, ("a", "fixed")),
        diff_digest(&b, &fixed, ("b", "fixed")),
        diff_digest(&a, &b, ("a", "b")),
        diff_digest(&chain, &wide, ("pipeline", "synthetic")),
        diff_digest(&wide, &chain, ("synthetic", "pipeline")),
    ];
    let want: [(&str, u64); 10] = [
        ("diagnose instance-a", 0xb452cd08b068edfe),
        ("diagnose instance-b", 0x1f647d9a9ae7ea48),
        ("diagnose instance-fixed", 0x1ff95eb843082e21),
        ("diagnose pipeline", 0xbc7147ac76c387a0),
        ("diagnose synthetic", 0x1e124be046dd7fae),
        ("diff a->fixed", 0x76350f97cc4d7d77),
        ("diff b->fixed", 0x3ef52aecafafd5c0),
        ("diff a->b", 0x1ca0304dd516c731),
        ("diff pipeline->synthetic", 0x224e00e79a1601e5),
        ("diff synthetic->pipeline", 0x3e5a0e9cf1f7b0e6),
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|(g, (_, w))| *g != w)
        .map(|(g, (name, w))| format!("{name}: got {g:#018x}, want {w:#018x}"))
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
