//! Small statistics helpers: sample sets with nearest-rank percentiles
//! that carry their sample count, paired alternation, and the
//! attempted/failed tally behind `fail_ratio`.

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`. `None` without samples.
    pub fn pct(&self, q: f64) -> Option<Pct> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(Pct {
            value: sorted[idx],
            n,
        })
    }

    pub fn median(&self) -> Option<Pct> {
        self.pct(0.5)
    }
}

/// Run `a` and `b` `pairs` times each in alternating order — `a` first
/// on even pairs, `b` first on odd ones — so slow drift (thermal,
/// allocator growth, page cache) lands on both sides equally. Returns
/// the per-pair results as `(a, b)`.
pub fn paired_alternation<T>(
    pairs: usize,
    mut a: impl FnMut(usize) -> T,
    mut b: impl FnMut(usize) -> T,
) -> Vec<(T, T)> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let x = a(i);
                (x, b(i))
            } else {
                let y = b(i);
                (a(i), y)
            }
        })
        .collect()
}

/// Counts of attempted and failed operations. A request answered 429
/// or 503 is a failure even when its retry succeeds: the user saw the
/// refusal, so it counts against `fail_ratio`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differed from their oracle.
    pub mismatches: u64,
    /// 429/503 answers that were retried.
    pub retried: u64,
}

impl Tally {
    /// Record one operation: the statuses of every try it took, the
    /// last one being the final answer.
    pub fn record(&mut self, tries: &[u16]) {
        self.attempted += 1;
        let refused = tries.iter().filter(|&&s| s == 429 || s == 503).count() as u64;
        self.retried += refused.min(tries.len().saturating_sub(1) as u64);
        let ok_final = tries.last().is_some_and(|s| (200..300).contains(s));
        if refused > 0 || !ok_final {
            self.failed += 1;
        }
    }

    /// Record a successful operation that has no status (a program
    /// run); a failed one goes through [`check`](Self::check).
    pub fn succeeded(&mut self) {
        self.attempted += 1;
    }

    /// Record an output check; a mismatch is a failed operation too.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
            eprintln!("pipebench: MISMATCH: {what}");
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.retried += other.retried;
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        let mut s = Samples::new();
        v.iter().for_each(|&x| s.push(x));
        s
    }

    #[test]
    fn percentiles_report_their_sample_count() {
        let s = samples(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), Some(Pct { value: 3.0, n: 5 }));
        assert_eq!(s.pct(0.99), Some(Pct { value: 5.0, n: 5 }));
        assert_eq!(s.pct(0.0).unwrap().value, 1.0);
        assert_eq!(s.pct(1.0).unwrap().n, 5);
        assert_eq!(Samples::new().median(), None);
        let big = samples(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(
            big.pct(0.99),
            Some(Pct {
                value: 990.0,
                n: 1000
            })
        );
    }

    #[test]
    fn paired_alternation_swaps_order_every_pair() {
        let order = std::cell::RefCell::new(Vec::new());
        let pairs = paired_alternation(
            4,
            |i| {
                order.borrow_mut().push(('a', i));
                i * 10
            },
            |i| {
                order.borrow_mut().push(('b', i));
                i * 10 + 1
            },
        );
        assert_eq!(pairs, vec![(0, 1), (10, 11), (20, 21), (30, 31)]);
        let firsts: Vec<char> = order.borrow().chunks(2).map(|c| c[0].0).collect();
        assert_eq!(firsts, vec!['a', 'b', 'a', 'b']);
        // Both sides of a pair share its index.
        assert!(order.borrow().chunks(2).all(|c| c[0].1 == c[1].1));
    }

    #[test]
    fn fail_ratio_counts_retried_503s() {
        let mut t = Tally::default();
        t.record(&[200]);
        t.record(&[503, 200]);
        t.record(&[429, 503, 201]);
        t.record(&[404]);
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 3, "retried refusals still fail");
        assert_eq!(t.retried, 3);
        assert_eq!(t.mismatches, 0);
        assert!((t.fail_ratio() - 0.75).abs() < 1e-12);
        t.check("body", false);
        assert_eq!((t.attempted, t.failed, t.mismatches), (5, 4, 1));
    }
}
