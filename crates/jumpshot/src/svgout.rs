//! The SVG writer's output buffer: markup, escaped text, fixed-point
//! numbers and integers appended straight into one `String`, with no
//! allocation per call.
//!
//! Every method produces exactly the bytes the `std::fmt` spelling
//! would: [`SvgOut::text`] matches the four XML replacements
//! (`&`, `<`, `>`, `"`) applied in turn, [`SvgOut::fixed`] matches
//! `format!("{:.prec$}", v)` and [`SvgOut::int`] matches `{}`. The
//! render digests pinned in the `timeline` tests hold the whole
//! document to that.

use std::fmt::{self, Write as _};

/// Powers of ten for the fixed-point precisions the writer supports.
const POW10: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Scaled magnitudes at or above this go to `std`. Below 2^39 one ulp
/// is at most 2^-14, so `|v| * 10^prec` lies within 2^-15 of the exact
/// product and rounding the computed product rounds the exact one,
/// unless the fraction is near one half.
const FAST_LIMIT: f64 = (1u64 << 39) as f64;

/// Fractions within this distance of one half go to `std`: the exact
/// product may sit on the other side of the tie (or on it, where
/// `std`'s tie rule decides). 2^-10 is 32 times the product's error.
const TIE_MARGIN: f64 = 1.0 / 1024.0;

/// An append-only SVG document. Methods chain:
/// `out.raw("<circle cx=\"").fixed(x, 2).raw("\"/>\n")`.
#[derive(Debug, Default)]
pub(crate) struct SvgOut {
    buf: String,
}

impl SvgOut {
    /// Append markup (or already escaped text) as is.
    pub(crate) fn raw(&mut self, s: &str) -> &mut SvgOut {
        self.buf.push_str(s);
        self
    }

    /// Append `s` with XML's specials escaped.
    pub(crate) fn text(&mut self, s: &str) -> &mut SvgOut {
        push_escaped(&mut self.buf, s);
        self
    }

    /// Append `v` with `prec` (at most 6) decimals, as `{:.prec$}`.
    pub(crate) fn fixed(&mut self, v: f64, prec: usize) -> &mut SvgOut {
        push_fixed(&mut self.buf, v, prec);
        self
    }

    /// Append `n` in decimal, as `{}`.
    pub(crate) fn int(&mut self, n: u32) -> &mut SvgOut {
        let mut digits = [0u8; 10];
        let start = put_digits(&mut digits, n as u64);
        self.buf.push_str(ascii(&digits[start..]));
        self
    }

    /// The finished document.
    pub(crate) fn into_string(self) -> String {
        self.buf
    }
}

impl fmt::Write for SvgOut {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.buf.push_str(s);
        Ok(())
    }
}

/// `s` with XML's specials escaped, as an owned string (for text that
/// is escaped once and written many times).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// One pass over `s`, copying the runs between specials whole. The
/// specials are ASCII, so every byte index that matches one is a char
/// boundary.
fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// `format!("{:.prec$}", v)` appended to `out`. Finite values whose
/// scaled magnitude is below [`FAST_LIMIT`] and not within
/// [`TIE_MARGIN`] of a rounding tie are rounded in integers; every
/// other value (NaN, infinities, huge values, near-ties) is handed to
/// `std`, so every byte is `std`'s.
fn push_fixed(out: &mut String, v: f64, prec: usize) {
    let scale = POW10[prec];
    let scaled = v.abs() * scale as f64;
    // `<` is false for NaN, so NaN falls through to `std`.
    if scaled < FAST_LIMIT {
        let whole = scaled.floor();
        // Exact: the fraction is the low bits of `scaled`.
        let frac = scaled - whole;
        if (frac - 0.5).abs() > TIE_MARGIN {
            let n = whole as u64 + u64::from(frac > 0.5);
            // Sign, up to 12 integer digits, the point, 6 decimals.
            let mut buf = [0u8; 24];
            let mut i = buf.len();
            let mut dec = n % scale;
            for _ in 0..prec {
                i -= 1;
                buf[i] = b'0' + (dec % 10) as u8;
                dec /= 10;
            }
            if prec > 0 {
                i -= 1;
                buf[i] = b'.';
            }
            i = put_digits(&mut buf[..i], n / scale);
            // `std` keeps the sign of negative values that round to
            // zero, and of -0.0.
            if v.is_sign_negative() {
                i -= 1;
                buf[i] = b'-';
            }
            out.push_str(ascii(&buf[i..]));
            return;
        }
    }
    let _ = write!(out, "{v:.prec$}");
}

/// Write `n`'s decimal digits at the end of `buf`; returns the index
/// of the first digit.
fn put_digits(buf: &mut [u8], mut n: u64) -> usize {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return i;
        }
    }
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("digits, sign and point are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fixed(v: f64, prec: usize) -> String {
        let mut out = SvgOut::default();
        out.fixed(v, prec);
        out.into_string()
    }

    fn assert_std(v: f64) {
        for prec in [2, 4, 6] {
            assert_eq!(
                fixed(v, prec),
                format!("{v:.prec$}"),
                "{v:e} ({:#018x}) at {prec}",
                v.to_bits()
            );
        }
    }

    #[test]
    fn special_values_match_std() {
        for v in [
            0.0,
            -0.0,
            -0.001,
            -0.004_999,
            -1e-300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            5e-324,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.5,
            -4.5e15,
            1e12,
            FAST_LIMIT,
            FAST_LIMIT / 1e6,
            FAST_LIMIT / 1e6 - 1e-7,
            0.125,
            2.675,
            1.005,
            0.5,
            1.5,
            2.5,
            -0.125,
            999.995,
            0.999_999_5,
            1_234.567_890_123,
        ] {
            assert_std(v);
        }
    }

    #[test]
    fn ties_and_near_ties_match_std() {
        for prec in [2, 4, 6] {
            let scale = POW10[prec] as f64;
            for k in 0..20_000u64 {
                let tie = (k as f64 + 0.5) / scale;
                for v in [
                    tie,
                    -tie,
                    f64::from_bits(tie.to_bits() + 1),
                    f64::from_bits(tie.to_bits() - 1),
                    // Exact binary ties: (2k + 1) / 2^m.
                    (2 * k + 1) as f64 / 1024.0,
                    (2 * k + 1) as f64 / 128.0,
                ] {
                    assert_eq!(fixed(v, prec), format!("{v:.prec$}"), "{v:e} at {prec}");
                }
            }
        }
    }

    #[test]
    fn integers_match_std() {
        for n in [0u32, 7, 10, 99, 100, 4096, 65_535, 1_000_000, u32::MAX] {
            let mut out = SvgOut::default();
            out.int(n);
            assert_eq!(out.into_string(), n.to_string());
        }
    }

    #[test]
    fn text_matches_the_four_replacements() {
        for s in [
            "",
            "plain",
            "&",
            "<a href=\"x\">&amp;</a>",
            "a<b & \"c\" > d",
            "ünïcødé & <日本>",
            "&&<<>>\"\"",
        ] {
            let want = s
                .replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
                .replace('"', "&quot;");
            let mut out = SvgOut::default();
            out.text(s);
            assert_eq!(out.into_string(), want);
            assert_eq!(escape(s), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Any bit pattern: NaNs, infinities, subnormals and huge
        /// values included.
        #[test]
        fn random_bit_patterns_match_std(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            for prec in [2, 4, 6] {
                prop_assert_eq!(fixed(v, prec), format!("{v:.prec$}"));
            }
        }

        /// The magnitudes a canvas actually writes: pixel coordinates
        /// and times in seconds.
        #[test]
        fn canvas_magnitudes_match_std(v in -1e7f64..1e7, shift in 0u32..12) {
            let v = v / 10f64.powi(shift as i32);
            for prec in [2, 4, 6] {
                prop_assert_eq!(fixed(v, prec), format!("{v:.prec$}"));
            }
        }

        #[test]
        fn arbitrary_text_escapes_like_the_replacements(s in ".{0,40}") {
            let want = s
                .replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
                .replace('"', "&quot;");
            prop_assert_eq!(escape(&s), want);
        }
    }
}
