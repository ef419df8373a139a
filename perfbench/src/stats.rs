//! Order statistics and the capacity ladder.
//!
//! Percentiles are exact order statistics over the raw samples. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 over 300 requests is the third-largest sample, which
//! is noise, not a tail.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Exact `q`-quantile (nearest rank) of `sorted`, which must be sorted
/// ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (any order, non-empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// A copy of `values`, sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile.
fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// The `q`-quantile of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), q) >= MIN_BEYOND).then(|| quantile(sorted, q))
}

/// p99 of each consecutive window of at least [`STEP_REQUESTS`]
/// samples of `in_order`, and the median of those p99s: one burst of
/// host noise then moves one window, not the reported tail. `None`
/// when there are fewer samples than one window.
pub fn windowed_p99(in_order: &[f64]) -> Option<(f64, usize)> {
    let windows = in_order.len() / STEP_REQUESTS;
    if windows == 0 {
        return None;
    }
    let per = in_order.len() / windows;
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * per
            };
            tail_quantile(&sorted(&in_order[w * per..end]), 0.99)
                .expect("a window leaves ten samples beyond its p99")
        })
        .collect();
    Some((median(&p99s), windows))
}

/// Requests in one window of a ladder step, so that its p99 has
/// [`MIN_BEYOND`] samples beyond it.
pub const STEP_REQUESTS: usize = 100 * MIN_BEYOND;

/// Windows a ladder step runs at most; it passes when most of them do,
/// so one burst of host noise does not fail a step.
pub const STEP_WINDOWS: usize = 3;

/// The capacity ladder: 150 × 2^k requests per second.
pub const LADDER_RPS: [u32; 6] = [150, 300, 600, 1_200, 2_400, 4_800];

/// p99 limit a ladder step must meet, in milliseconds.
pub const STEP_P99_LIMIT_MS: f64 = 20.0;

/// What one window of a ladder step measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Latencies from due time, in milliseconds, of the answered
    /// requests (all of them when the window ran to the end).
    pub latencies_ms: Vec<f64>,
    /// Requests that failed (non-2xx, transport error, wrong body).
    pub failed: usize,
    /// Requests the window planned; fewer were answered when it was cut
    /// short because its p99 could no longer meet the limit.
    pub planned: usize,
}

impl Window {
    /// The window's p99, when it ran to the end with enough samples.
    pub fn p99(&self) -> Option<f64> {
        if self.latencies_ms.len() < self.planned {
            return None;
        }
        tail_quantile(&sorted(&self.latencies_ms), 0.99)
    }

    /// Whether the window meets the limit: every planned request
    /// answered without failure, and a p99 at or under
    /// [`STEP_P99_LIMIT_MS`].
    pub fn passes(&self) -> bool {
        self.failed == 0 && self.p99().is_some_and(|p99| p99 <= STEP_P99_LIMIT_MS)
    }
}

/// One ladder step: up to [`STEP_WINDOWS`] windows at one rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub rps: u32,
    pub windows: Vec<Window>,
}

impl Step {
    fn tally(&self) -> (usize, usize) {
        let passed = self.windows.iter().filter(|w| w.passes()).count();
        (passed, self.windows.len() - passed)
    }

    /// Whether most of the step's windows pass.
    pub fn passes(&self) -> bool {
        self.tally().0 > STEP_WINDOWS / 2
    }

    /// Whether more windows cannot change the verdict.
    pub fn decided(&self) -> bool {
        let (passed, failed) = self.tally();
        passed.max(failed) > STEP_WINDOWS / 2
    }

    /// Median p99 of the windows that ran to the end.
    pub fn p99(&self) -> Option<f64> {
        let p99s: Vec<f64> = self.windows.iter().filter_map(Window::p99).collect();
        (!p99s.is_empty()).then(|| median(&p99s))
    }
}

/// How many of `planned` requests may exceed the p99 limit before a
/// window can no longer pass — the point at which it is cut short.
pub fn allowed_over_limit(planned: usize) -> usize {
    beyond(planned, 0.99)
}

/// The order in which ladder steps are tried, given the steps so far:
/// upward from 300 rps while steps pass; 150 rps only when 300 fails,
/// since latency only rises with the offered rate. `None` when done.
pub fn next_step(tried: &[Step]) -> Option<u32> {
    let last = match tried.last() {
        None => return Some(LADDER_RPS[1]),
        Some(last) => last,
    };
    if last.passes() {
        // A higher step tried before this one has already failed.
        if tried.iter().any(|s| s.rps > last.rps) {
            return None;
        }
        return LADDER_RPS.iter().copied().find(|&r| r > last.rps);
    }
    (tried.len() == 1 && last.rps == LADDER_RPS[1]).then_some(LADDER_RPS[0])
}

/// The highest step that passed; 0 when none did.
pub fn max_rps(tried: &[Step]) -> u32 {
    tried
        .iter()
        .filter(|s| s.passes())
        .map(|s| s.rps)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(latencies_ms: Vec<f64>, failed: usize) -> Window {
        let planned = latencies_ms.len();
        Window {
            latencies_ms,
            failed,
            planned,
        }
    }

    /// Drive the ladder against a synthetic system whose latency series
    /// for window `w` at rate `rps` comes from `series(rps, w)`.
    fn climb(series: impl Fn(u32, usize) -> (Vec<f64>, usize)) -> (u32, Vec<u32>) {
        let mut tried: Vec<Step> = Vec::new();
        while let Some(rps) = next_step(&tried) {
            let mut step = Step {
                rps,
                windows: Vec::new(),
            };
            while !step.decided() {
                let (lat, failed) = series(rps, step.windows.len());
                step.windows.push(window(lat, failed));
            }
            tried.push(step);
        }
        (max_rps(&tried), tried.iter().map(|s| s.rps).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail_quantile(&small, 0.99),
            None,
            "999 samples leave 9 beyond p99"
        );
        let enough: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail_quantile(&enough, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn windowed_p99_ignores_one_noisy_window() {
        assert_eq!(windowed_p99(&vec![1.0; STEP_REQUESTS - 1]), None);
        let mut v: Vec<f64> = (0..3 * STEP_REQUESTS + 500)
            .map(|i| (i % 100) as f64)
            .collect();
        // A burst of slow requests in the second window only.
        v[1_200..1_400].fill(1_000.0);
        let (p99, windows) = windowed_p99(&v).unwrap();
        assert_eq!(windows, 3);
        assert_eq!(p99, 99.0);
        assert!(tail_quantile(&sorted(&v), 0.99).unwrap() > 900.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&sorted(&v), 1.0), 5.0);
        assert_eq!(quantile(&sorted(&v), 0.0), 1.0);
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        // Capacity near 390 rps: 300 passes, 600 blows up.
        let (max, tried) = climb(|rps, _| {
            let base = if rps <= 390 { 5.0 } else { 50.0 };
            (vec![base; STEP_REQUESTS], 0)
        });
        assert_eq!(max, 300);
        assert_eq!(tried, vec![300, 600]);
    }

    #[test]
    fn ladder_falls_back_to_150_when_300_fails() {
        let (max, tried) = climb(|rps, _| {
            let base = if rps <= 200 { 5.0 } else { 30.0 };
            (vec![base; STEP_REQUESTS], 0)
        });
        assert_eq!(max, 150);
        assert_eq!(tried, vec![300, 150]);
        let (max, tried) = climb(|_, _| (vec![99.0; STEP_REQUESTS], 0));
        assert_eq!(max, 0);
        assert_eq!(tried, vec![300, 150]);
    }

    #[test]
    fn ladder_reaches_the_top_step() {
        let (max, tried) = climb(|_, _| (vec![1.0; STEP_REQUESTS], 0));
        assert_eq!(max, 4_800);
        assert_eq!(tried, LADDER_RPS[1..].to_vec());
    }

    #[test]
    fn a_step_with_fast_latencies_fails_on_errors_alone() {
        let (max, tried) = climb(|rps, _| (vec![1.0; STEP_REQUESTS], usize::from(rps == 600)));
        assert_eq!(max, 300, "600 rps met the latency limit but had errors");
        assert_eq!(tried, vec![300, 600]);
    }

    #[test]
    fn one_noisy_window_does_not_fail_a_step() {
        // The first window at every rate hits a burst of host noise.
        let (max, _) = climb(|rps, w| {
            let base = if w == 0 || rps > 390 { 50.0 } else { 5.0 };
            (vec![base; STEP_REQUESTS], 0)
        });
        assert_eq!(max, 300);
        let step = Step {
            rps: 300,
            windows: vec![
                window(vec![50.0; STEP_REQUESTS], 0),
                window(vec![5.0; STEP_REQUESTS], 0),
            ],
        };
        assert!(!step.decided(), "one pass and one fail need a third window");
    }

    #[test]
    fn a_window_cut_short_or_too_small_fails() {
        let mut cut = window(vec![1.0; STEP_REQUESTS / 2], 0);
        cut.planned = STEP_REQUESTS;
        assert!(!cut.passes(), "a cut-short window never passes");
        assert!(
            !window(vec![1.0; 500], 0).passes(),
            "too few samples for a p99"
        );
        // Exactly the allowed number of slow requests still passes.
        let mut lat = vec![1.0; STEP_REQUESTS];
        let allowed = allowed_over_limit(STEP_REQUESTS);
        assert_eq!(allowed, 10);
        lat[..allowed].fill(100.0);
        assert!(window(lat.clone(), 0).passes());
        lat[allowed] = 100.0;
        assert!(!window(lat, 0).passes());
    }
}
