//! Order statistics and metric-name rules shared by every workload.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a tail figure resting on fewer samples is mostly noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the selected rank.
///
/// The nearest rank is `ceil(p/100 · n)` (1-based), so the result is always
/// one of the measured samples, never an interpolation or a bucket edge.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let rank = reportable_rank(values.len(), p)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The smallest sample count for which [`percentile`] reports `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| reportable_rank(n, p).is_some())
        .expect("unbounded search")
}

/// The 1-based nearest rank of percentile `p` among `n` samples, if at
/// least [`MIN_BEYOND`] samples lie beyond it.
fn reportable_rank(n: usize, p: f64) -> Option<usize> {
    assert!(
        p > 0.0 && p < 100.0,
        "percentile must lie strictly inside (0, 100)"
    );
    let rank = (((p / 100.0) * n as f64).ceil() as usize).max(1);
    (rank <= n && n - rank >= MIN_BEYOND).then_some(rank)
}

/// Median of repeated measurements of one quantity (mean of the two middle
/// values for an even count). Used to fold repeats inside one run, not for
/// latency distributions, which go through [`percentile`].
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the percentile must sort its input.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // 95th of 200 samples is the 190th value: ten lie beyond it.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // Non-integer ranks round up to the next sample.
        assert_eq!(percentile(&ramp(21), 50.0), Some(11.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 99 samples: rank 90 leaves 9 beyond, so it is withheld.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        // The median needs twenty.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn min_samples_matches_the_rule() {
        assert_eq!(min_samples_for(50.0), 20);
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(95.0), 200);
        assert_eq!(min_samples_for(99.0), 1000);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "ingest_p90_ms.lo",
            "core.encode_step_us",
            "a",
            "9x-y",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lo",
            "_x",
            "-x",
            "p99 ms",
            "ms/s",
            "µs",
            "x:y",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["ms", "s", "1/s", "count", "%", "mJ", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
