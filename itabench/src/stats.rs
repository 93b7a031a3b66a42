//! Summary statistics shared by every workload.
//!
//! Timings are reported as a median plus a tail percentile. The tail follows
//! one rule everywhere: report the requested percentile only when at least
//! [`MIN_BEYOND`] samples lie beyond it; otherwise report the highest
//! percentile that has that many, and always carry the sample count.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples per window of the windowed statistics: the fewest that give a
/// p99 with [`MIN_BEYOND`] samples beyond it.
pub const WINDOW: usize = 1_000;

/// A percentile of a sample, with the percentile actually reported and the
/// sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (at most the one asked for).
    pub percentile: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Windows the value is the median of (1: the whole sample).
    pub windows: usize,
}

/// The nearest-rank `wanted` percentile of `samples`, lowered until at least
/// [`MIN_BEYOND`] samples lie beyond it. `None` when there are too few
/// samples for any percentile to have that many beyond it.
pub fn tail(samples: &[f64], wanted: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest rank whose cumulative share reaches `wanted`.
    let rank = ((wanted / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n - MIN_BEYOND);
    Some(Tail {
        percentile: (100.0 * rank as f64 / n as f64).min(wanted),
        value: sorted[rank - 1],
        n,
        windows: 1,
    })
}

/// The median (nearest rank) of `samples`, with its count.
pub fn median(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = samples.len().div_ceil(2);
    Some(Tail {
        percentile: 50.0,
        value: sorted[rank - 1],
        n: samples.len(),
        windows: 1,
    })
}

/// `stat` of every consecutive window of [`WINDOW`] samples (a short last
/// window joins the one before it), reduced to the median over windows.
///
/// On a host whose last-level cache other tenants share, speed drifts by
/// 10–20% over seconds. A burst of that drift moves a pooled percentile; it
/// moves the median over windows only when it covers half the run.
pub fn windowed(samples: &[f64], stat: impl Fn(&[f64]) -> Option<Tail>) -> Option<Tail> {
    let k = (samples.len() / WINDOW).max(1);
    grouped(
        (0..k).map(|i| {
            let end = if i + 1 == k {
                samples.len()
            } else {
                (i + 1) * WINDOW
            };
            &samples[i * WINDOW..end]
        }),
        stat,
    )
}

/// `stat` of each group of samples, reduced to the median over groups; the
/// sample count is that of all groups together.
///
/// Each group is a stretch of the run measured at one time (a cycle or a
/// round of the loop). A slow phase of the host that covers a minority of
/// the groups moves the median over groups by the spread between groups; it
/// moves a pooled statistic by the spread within them, which for the
/// latency of single events is several times wider.
pub fn grouped<'a>(
    groups: impl IntoIterator<Item = &'a [f64]>,
    stat: impl Fn(&[f64]) -> Option<Tail>,
) -> Option<Tail> {
    let per: Vec<Tail> = groups.into_iter().map(|g| stat(g)).collect::<Option<_>>()?;
    let values: Vec<f64> = per.iter().map(|t| t.value).collect();
    Some(Tail {
        percentile: per
            .iter()
            .map(|t| t.percentile)
            .fold(f64::INFINITY, f64::min),
        value: median(&values)?.value,
        n: per.iter().map(|t| t.n).sum(),
        windows: per.len(),
    })
}

/// The mean of `samples` as a statistic for [`windowed`] (`None` when
/// empty).
pub fn mean_stat(samples: &[f64]) -> Option<Tail> {
    (!samples.is_empty()).then(|| Tail {
        percentile: 50.0,
        value: mean(samples),
        n: samples.len(),
        windows: 1,
    })
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sojourn times (queue wait plus service) of a single FIFO server fed at a
/// fixed `rate` (arrivals per second) with the given service times, in the
/// same unit as `service`, by Lindley's recursion. The single-thread engine's
/// cost per event does not depend on when the event arrives, so this is what
/// an open-loop client at `rate` would measure against it.
pub fn fifo_sojourn(service_us: &[f64], rate: f64) -> Vec<f64> {
    let gap = 1e6 / rate;
    let mut wait = 0.0_f64;
    let mut out = Vec::with_capacity(service_us.len());
    for &s in service_us {
        out.push(wait + s);
        wait = (wait + s - gap).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_is_reported_as_asked_when_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.n, 1000);
        // Exactly ten samples (991..=1000) lie beyond the reported value.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn short_samples_fall_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(100), 99.0).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.n, 100);
        let t = tail(&ramp(999), 99.0).unwrap();
        assert!(t.percentile < 99.0);
        assert_eq!(ramp(999).iter().filter(|&&v| v > t.value).count(), 10);
        // A percentile already supported is never raised.
        assert_eq!(tail(&ramp(100), 50.0).unwrap().percentile, 50.0);
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert!(tail(&ramp(10), 99.0).is_none());
        assert!(tail(&[], 50.0).is_none());
        assert_eq!(tail(&ramp(11), 99.0).unwrap().value, 1.0);
    }

    #[test]
    fn unsorted_input_and_median() {
        let mut v = ramp(1001);
        v.reverse();
        assert_eq!(tail(&v, 99.0).unwrap().value, 991.0);
        assert_eq!(median(&v).unwrap().value, 501.0);
        assert_eq!(median(&[3.0, 1.0]).unwrap().value, 1.0);
    }

    #[test]
    fn windowed_statistics_take_the_median_over_windows() {
        // Three windows; the middle one is uniformly slow.
        let mut v = ramp(1000);
        v.extend(ramp(1000).iter().map(|x| x * 10.0));
        v.extend(ramp(1500));
        let t = windowed(&v, |w| tail(w, 99.0)).unwrap();
        assert_eq!((t.windows, t.n), (3, 3500));
        // Window p99s: 990, 9900 and the p99 of 1..=1500 (1485).
        assert_eq!(t.value, 1485.0);
        assert_eq!(t.percentile, 99.0);
        let short = windowed(&ramp(500), |w| tail(w, 99.0)).unwrap();
        assert_eq!((short.windows, short.value), (1, 490.0));
        assert!(windowed(&[], median).is_none());
    }

    #[test]
    fn grouped_statistics_take_the_median_over_groups() {
        // Five stretches; two fall in a slow phase.
        let groups: Vec<Vec<f64>> = [1.0, 1.1, 9.0, 0.9, 8.0]
            .iter()
            .map(|&level| ramp(9).iter().map(|x| x * level).collect())
            .collect();
        let t = grouped(groups.iter().map(Vec::as_slice), median).unwrap();
        assert_eq!((t.windows, t.n, t.percentile), (5, 45, 50.0));
        // Group medians: 5, 5.5, 45, 4.5, 40. The pooled median, 8, is
        // dragged up by the slow groups.
        assert_eq!(t.value, 5.5);
        let pooled: Vec<f64> = groups.concat();
        assert_eq!(median(&pooled).unwrap().value, 8.0);
        // Any empty group leaves no statistic.
        assert!(grouped([&[][..], &[1.0][..]], median).is_none());
    }

    #[test]
    fn fifo_replay_queues_behind_a_slow_event() {
        // 1 ms gaps; the second event takes 3.5 ms, so the next three wait.
        let s = [100.0, 3500.0, 100.0, 100.0, 100.0, 100.0];
        let out = fifo_sojourn(&s, 1000.0);
        assert_eq!(out, vec![100.0, 3500.0, 2600.0, 1700.0, 800.0, 100.0]);
    }
}
