//! Small numeric and process helpers: order statistics, the seeded
//! shuffle, peak resident set from `/proc`, and JSON number/string
//! rendering (the benchmark has no dependencies besides the engine).

use std::fmt::Write as _;
use std::path::Path;

/// The median of `values` (the mean of the middle pair for even
/// lengths). `values` must be non-empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the value at the highest percentile
/// that still has at least ten samples beyond it, with that percentile.
/// A sample too small to place that percentile above the median (fewer
/// than twenty values) reports the median as percentile 50: a value
/// below the median is no tail, and the maximum of a few values jumps
/// with their count.
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = n.saturating_sub(BEYOND); // 1-based, BEYOND values above it
    if 2 * rank < n {
        return (median(values), 50.0);
    }
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Fisher–Yates shuffle of `items`, driven by SplitMix64 seeded with
/// `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` file,
/// in kB.
#[must_use]
pub fn peak_rss_kb(status_path: &Path) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Renders a finite number as JSON (non-finite values, which no metric
/// should produce, render as `null` so the record stays parseable).
#[must_use]
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders a string as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0));
        let short: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&short), (10.0, 50.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 50.0));
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        assert_eq!(c, (0..100).collect::<Vec<_>>());
        let mut d: Vec<u32> = (0..100).collect();
        shuffle(&mut d, 8);
        assert_ne!(a, d);
    }
}
