//! Order statistics, the metric-name grammar, and open-loop schedule
//! math: the small pure pieces every workload shares.

use std::time::Duration;

/// Nearest-rank quantile of an ascending sample: the element at rank
/// `max(1, ceil(q·n))` (the convention of `dvbp_obs::LogHistogram` and
/// the serve benchmarks), so `quantile(_, 0.5)` of an even-sized sample
/// is its lower middle element. `None` for an empty sample.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts `values` and returns their nearest-rank quantile.
///
/// # Panics
///
/// On an empty sample or a NaN value: every caller measures at least
/// one repetition, and timings are never NaN.
#[must_use]
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    quantile(&sorted, q).expect("at least one measurement")
}

/// Nearest-rank median (see [`quantile`]).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Position-wise minimum of equally ordered samples (truncated to the
/// shortest): the best repetition of each position.
pub fn elementwise_min<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Option<Vec<f64>> = None;
    for row in rows {
        best = Some(match best {
            None => row.to_vec(),
            Some(b) => b.iter().zip(row).map(|(x, y)| x.min(*y)).collect(),
        });
    }
    best.unwrap_or_default()
}

/// Time of a repeated job with each of its segments at its fastest
/// repetition. Repetition `r` took `totals[r]` and its segments, the
/// same work in the same order every repetition, took `segments[r]`.
/// Sums each segment's fastest time, plus the smallest part of a total
/// outside its segments.
#[must_use]
pub fn best_of_segments(totals: &[f64], segments: &[&[f64]]) -> f64 {
    let fastest: f64 = elementwise_min(segments.iter().copied()).iter().sum();
    let rest = totals
        .iter()
        .zip(segments)
        .map(|(total, s)| total - s.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    fastest + rest.max(0.0)
}

/// Whether `name` is a valid metric or workload name: starts with an
/// ASCII letter or digit, then at most 64 characters in total of ASCII
/// letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Offset from the start of an open-loop phase at which request `slot`
/// (0-based) is due, at `rate` requests per second.
#[must_use]
pub fn due_offset(slot: u64, rate: f64) -> Duration {
    #[allow(clippy::cast_precision_loss)]
    Duration::from_secs_f64(slot as f64 / rate)
}

/// Requests due by `elapsed` into an open-loop phase at `rate`: slot `i`
/// is due at `i/rate`, so slot 0 is due at once.
#[must_use]
pub fn due_by(elapsed: Duration, rate: f64) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let whole = (elapsed.as_secs_f64() * rate).floor() as u64;
    whole + 1
}

/// The generator's backlog as request `slot` is sent `elapsed` into the
/// phase: requests due by then and not yet sent, this one included, so
/// an on-schedule generator reads 1.
#[must_use]
pub fn backlog_at_send(slot: u64, elapsed: Duration, rate: f64) -> u64 {
    due_by(elapsed, rate).saturating_sub(slot).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_uses_the_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            quantile(&s, 0.5),
            Some(2.0),
            "lower middle of an even sample"
        );
        assert_eq!(quantile(&s, 0.75), Some(3.0));
        assert_eq!(quantile(&s, 0.76), Some(4.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0), "rank is at least 1");
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&[7.0], 0.95), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.95), Some(95.0));
        assert_eq!(quantile(&hundred, 0.999), Some(100.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn elementwise_min_takes_each_position_best() {
        let a = [3.0, 1.0, 5.0];
        let b = [2.0, 4.0, 6.0, 0.5];
        assert_eq!(elementwise_min([&a[..], &b[..]]), vec![2.0, 1.0, 5.0]);
        assert_eq!(elementwise_min([&b[..]]), b.to_vec());
        assert!(elementwise_min(std::iter::empty::<&[f64]>()).is_empty());
    }

    #[test]
    fn best_of_segments_takes_each_segment_fastest() {
        let (a, b) = ([3.0, 4.0], [2.0, 6.0]);
        // Segments 2 + 4, plus the smaller remainder min(10 - 7, 12 - 8).
        assert_eq!(best_of_segments(&[10.0, 12.0], &[&a, &b]), 9.0);
        assert_eq!(best_of_segments(&[7.0], &[&a]), 7.0);
        assert_eq!(best_of_segments(&[5.0], &[&[]]), 5.0);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "first_fit.events_per_s",
            "serve.server.lock_wait.p95_ns",
            "replay-trace",
            "0x",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "µs",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn units_follow_the_grammar() {
        for ok in [
            "s", "ms", "us", "1/s", "events/s", "%", "MB", "count", "fraction",
        ] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn schedule_math() {
        assert_eq!(due_offset(0, 3000.0), Duration::ZERO);
        assert_eq!(due_offset(3000, 3000.0), Duration::from_secs(1));
        assert_eq!(due_offset(1500, 1000.0), Duration::from_millis(1500));
        assert_eq!(due_by(Duration::ZERO, 1000.0), 1);
        assert_eq!(due_by(Duration::from_micros(999), 1000.0), 1);
        assert_eq!(due_by(Duration::from_millis(1), 1000.0), 2);
        assert_eq!(due_by(Duration::from_secs(2), 3000.0), 6001);
        // On schedule: slot i sent at its due time sees only itself.
        for slot in [0u64, 1, 7, 2999] {
            assert_eq!(backlog_at_send(slot, due_offset(slot, 3000.0), 3000.0), 1);
        }
        // 10 ms late at 1000 rps: ten more requests are already due.
        let late = due_offset(5, 1000.0) + Duration::from_millis(10);
        assert_eq!(backlog_at_send(5, late, 1000.0), 11);
    }
}
