//! Dense multivariate time-series container and normalization.

use std::fmt;

/// A dense multivariate time series stored row-major as `[L, K]`:
/// `L` timestamps, each a `K`-dimensional observation (Eq. 1 of the paper).
#[derive(Clone, PartialEq)]
pub struct Mts {
    data: Vec<f32>,
    len: usize,
    dim: usize,
}

impl Mts {
    /// Builds a series from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != len * dim`.
    pub fn new(data: Vec<f32>, len: usize, dim: usize) -> Self {
        assert_eq!(
            data.len(),
            len * dim,
            "Mts buffer length {} != {len} * {dim}",
            data.len()
        );
        Mts { data, len, dim }
    }

    /// An all-zero series.
    pub fn zeros(len: usize, dim: usize) -> Self {
        Mts {
            data: vec![0.0; len * dim],
            len,
            dim,
        }
    }

    /// Number of timestamps `L`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has no timestamps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of channels `K`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The flat row-major buffer.
    pub fn values(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat buffer.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The observation at timestamp `l`.
    pub fn row(&self, l: usize) -> &[f32] {
        &self.data[l * self.dim..(l + 1) * self.dim]
    }

    /// A single value.
    pub fn get(&self, l: usize, k: usize) -> f32 {
        debug_assert!(l < self.len && k < self.dim);
        self.data[l * self.dim + k]
    }

    /// Sets a single value.
    pub fn set(&mut self, l: usize, k: usize, v: f32) {
        debug_assert!(l < self.len && k < self.dim);
        self.data[l * self.dim + k] = v;
    }

    /// Copies out channel `k` as a contiguous vector.
    pub fn column(&self, k: usize) -> Vec<f32> {
        assert!(k < self.dim, "column {k} out of range (K={})", self.dim);
        (0..self.len).map(|l| self.get(l, k)).collect()
    }

    /// A contiguous time slice `[start, start+len)`.
    pub fn slice_time(&self, start: usize, len: usize) -> Mts {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) exceeds length {}",
            start + len,
            self.len
        );
        Mts {
            data: self.data[start * self.dim..(start + len) * self.dim].to_vec(),
            len,
            dim: self.dim,
        }
    }

    /// Sliding windows of `size` advancing by `stride`, left-aligned.
    ///
    /// The tail shorter than `size` is dropped (matching the original
    /// implementation's window loader).
    pub fn windows(&self, size: usize, stride: usize) -> Vec<Mts> {
        assert!(size > 0 && stride > 0, "window size/stride must be positive");
        let mut out = Vec::new();
        let mut start = 0;
        while start + size <= self.len {
            out.push(self.slice_time(start, size));
            start += stride;
        }
        out
    }

    /// Stacks rows of another series onto the end (channel counts must match).
    pub fn append(&mut self, other: &Mts) {
        assert_eq!(self.dim, other.dim, "append channel mismatch");
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    /// Transposes to channel-major `[K, L]` flat layout (used by models that
    /// treat channels as the leading axis).
    pub fn to_channel_major(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.data.len()];
        for l in 0..self.len {
            for k in 0..self.dim {
                out[k * self.len + l] = self.get(l, k);
            }
        }
        out
    }
}

/// Window start offsets covering all `len` rows: every `stride` rows,
/// plus one window aligned to the end when the last stride leaves a
/// remainder. Empty when `len < window`.
pub fn coverage_starts(len: usize, window: usize, stride: usize) -> Vec<usize> {
    let mut starts: Vec<usize> = (0..)
        .step_by(stride)
        .take_while(|s| s + window <= len)
        .collect();
    if starts.last().is_some_and(|&last| last + window < len) {
        starts.push(len - window);
    }
    starts
}

impl fmt::Debug for Mts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mts(L={}, K={})", self.len, self.dim)
    }
}

/// How to normalize channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormMethod {
    /// Per-channel min-max to `[0, 1]` (the paper's preprocessing).
    MinMax,
    /// Per-channel standardization to zero mean / unit variance.
    ZScore,
}

/// Per-channel normalization fitted on training data and applied to both
/// splits — test statistics must never leak into the transform.
#[derive(Debug, Clone)]
pub struct Normalizer {
    method: NormMethod,
    /// Per-channel offset (min or mean).
    offset: Vec<f32>,
    /// Per-channel scale (range or std), floored away from zero.
    scale: Vec<f32>,
}

impl Normalizer {
    /// Fits normalization statistics on `train`.
    pub fn fit(train: &Mts, method: NormMethod) -> Self {
        let k = train.dim();
        let mut offset = vec![0.0f32; k];
        let mut scale = vec![1.0f32; k];
        for c in 0..k {
            let col = train.column(c);
            match method {
                NormMethod::MinMax => {
                    let mn = col.iter().cloned().fold(f32::INFINITY, f32::min);
                    let mx = col.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    offset[c] = mn;
                    scale[c] = (mx - mn).max(1e-6);
                }
                NormMethod::ZScore => {
                    let n = col.len().max(1) as f32;
                    let mean = col.iter().sum::<f32>() / n;
                    let var = col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
                    offset[c] = mean;
                    scale[c] = var.sqrt().max(1e-6);
                }
            }
        }
        Normalizer {
            method,
            offset,
            scale,
        }
    }

    /// Applies the fitted transform.
    pub fn transform(&self, x: &Mts) -> Mts {
        assert_eq!(x.dim(), self.offset.len(), "normalizer channel mismatch");
        let mut out = x.clone();
        for l in 0..x.len() {
            for k in 0..x.dim() {
                let v = (x.get(l, k) - self.offset[k]) / self.scale[k];
                // Min-max clamps mildly outside [0,1] to bound test-time
                // out-of-range excursions without flattening anomalies.
                let v = match self.method {
                    NormMethod::MinMax => v.clamp(-2.0, 3.0),
                    NormMethod::ZScore => v,
                };
                out.set(l, k, v);
            }
        }
        out
    }

    /// The fitted per-channel statistics as `(offset, scale)` vectors —
    /// used for checkpointing.
    pub fn stats(&self) -> (Vec<f32>, Vec<f32>) {
        (self.offset.clone(), self.scale.clone())
    }

    /// Rebuilds a normalizer from previously saved statistics.
    pub fn from_stats(method: NormMethod, offset: Vec<f32>, scale: Vec<f32>) -> Self {
        assert_eq!(offset.len(), scale.len(), "stats length mismatch");
        Normalizer {
            method,
            offset,
            scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize, dim: usize) -> Mts {
        let data: Vec<f32> = (0..len * dim).map(|i| i as f32).collect();
        Mts::new(data, len, dim)
    }

    #[test]
    fn coverage_starts_tile_and_align_the_tail() {
        let cases: [(usize, usize, usize, &[usize]); 6] = [
            (48, 16, 16, &[0, 16, 32]),
            (50, 16, 16, &[0, 16, 32, 34]),
            (16, 16, 16, &[0]),
            (10, 4, 4, &[0, 4, 6]),
            (8, 4, 4, &[0, 4]),
            (3, 4, 4, &[]),
        ];
        for (len, window, stride, want) in cases {
            assert_eq!(
                coverage_starts(len, window, stride),
                want,
                "len {len}, window {window}, stride {stride}"
            );
        }
    }

    #[test]
    fn row_and_get_agree() {
        let m = ramp(3, 2);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.get(1, 1), 3.0);
    }

    #[test]
    fn column_extracts_strided() {
        let m = ramp(3, 2);
        assert_eq!(m.column(0), vec![0.0, 2.0, 4.0]);
        assert_eq!(m.column(1), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn windows_drop_tail() {
        let m = ramp(10, 1);
        let w = m.windows(4, 3);
        assert_eq!(w.len(), 3); // starts at 0, 3, 6
        assert_eq!(w[2].row(0), &[6.0]);
    }

    #[test]
    fn slice_time_bounds() {
        let m = ramp(5, 2);
        let s = m.slice_time(2, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds length")]
    fn slice_time_oob_panics() {
        let _ = ramp(5, 1).slice_time(4, 2);
    }

    #[test]
    fn append_grows() {
        let mut a = ramp(2, 2);
        let b = ramp(3, 2);
        a.append(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.row(2), &[0.0, 1.0]);
    }

    #[test]
    fn channel_major_layout() {
        let m = ramp(2, 2);
        // [[0,1],[2,3]] -> channel-major [0,2,1,3]
        assert_eq!(m.to_channel_major(), vec![0.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn minmax_maps_train_to_unit() {
        let train = Mts::new(vec![0.0, 10.0, 5.0, 20.0, 10.0, 30.0], 3, 2);
        let norm = Normalizer::fit(&train, NormMethod::MinMax);
        let t = norm.transform(&train);
        assert!((t.get(0, 0) - 0.0).abs() < 1e-6);
        assert!((t.get(2, 0) - 1.0).abs() < 1e-6);
        assert!((t.get(1, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zscore_standardizes() {
        let train = Mts::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let norm = Normalizer::fit(&train, NormMethod::ZScore);
        let t = norm.transform(&train);
        let col = t.column(0);
        let mean: f32 = col.iter().sum::<f32>() / 3.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn constant_channel_does_not_divide_by_zero() {
        let train = Mts::new(vec![5.0; 6], 6, 1);
        let norm = Normalizer::fit(&train, NormMethod::MinMax);
        let t = norm.transform(&train);
        assert!(t.values().iter().all(|v| v.is_finite()));
    }
}
