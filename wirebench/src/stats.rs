//! Sample summaries: medians, quartiles and the highest percentile the
//! sample supports.

use crate::json::Json;

/// Percentiles tried for the tail, highest first. A tail percentile is
/// reported only when at least [`TAIL_BEYOND`] samples lie beyond it.
const TAIL_LADDER: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
const TAIL_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0..=100) of an ascending slice, linearly
/// interpolated between closest ranks. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Median, quartiles and tail of one sample of measurements.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// The tail percentile used (`None`: fewer than 20 samples, so no
    /// percentile has ten beyond it and `tail` is the maximum).
    pub tail_pct: Option<f64>,
    pub tail: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND);
        let tail = match tail_pct {
            Some(p) => percentile(&v, p),
            None => v.last().copied().unwrap_or(f64::NAN),
        };
        Summary {
            n,
            p25: percentile(&v, 25.0),
            p50: percentile(&v, 50.0),
            p75: percentile(&v, 75.0),
            tail_pct,
            tail,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("n", self.n)
            .set("p25", self.p25)
            .set("p50", self.p50)
            .set("p75", self.p75)
            .set(
                "tail_pct",
                self.tail_pct.map_or(Json::Str("max".into()), Json::Num),
            )
            .set("tail", self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail_pct, Some(99.0));
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail_pct, Some(95.0));
        let v: Vec<f64> = (0..12).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail_pct, None);
        assert_eq!(s.tail, 11.0);
    }
}
