//! The data series model.
//!
//! A *data series* is an ordered sequence of real-valued points (Definition in
//! Section 2 of the paper). For whole-matching similarity search a series of
//! length `n` is treated as a point in an `n`-dimensional space; the paper (and
//! this crate) therefore uses *length* and *dimensionality* interchangeably.
//!
//! Values are stored as `f32` (single precision), matching the paper's setup
//! ("All methods use single precision values").

use std::fmt;
use std::ops::Index;

/// A single, owned, univariate data series.
#[derive(Clone, PartialEq)]
pub struct Series {
    values: Vec<f32>,
}

impl Series {
    /// Creates a series from raw values.
    pub fn new(values: Vec<f32>) -> Self {
        Self { values }
    }

    /// The number of points in the series (its length / dimensionality).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the series contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values of the series.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the raw values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Consumes the series, returning its values.
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// The mean of the series values.
    pub fn mean(&self) -> f32 {
        if self.values.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.values.iter().map(|&v| v as f64).sum();
        (sum / self.values.len() as f64) as f32
    }

    /// The population standard deviation of the series values.
    pub fn std_dev(&self) -> f32 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.len() as f64;
        let mean: f64 = self.values.iter().map(|&v| v as f64).sum::<f64>() / n;
        let var: f64 = self
            .values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        var.sqrt() as f32
    }

    /// Z-normalizes the series in place (mean 0, standard deviation 1).
    ///
    /// Series with (near-)zero variance are mapped to the all-zero series, the
    /// convention used by the UCR Suite and by the paper's framework.
    pub fn z_normalize(&mut self) {
        z_normalize(&mut self.values);
    }

    /// Returns a Z-normalized copy of the series.
    pub fn z_normalized(&self) -> Series {
        let mut s = self.clone();
        s.z_normalize();
        s
    }

    /// Returns `true` if the series is (approximately) Z-normalized.
    pub fn is_z_normalized(&self, tolerance: f32) -> bool {
        if self.values.is_empty() {
            return true;
        }
        let sd = self.std_dev();
        // All-constant series normalize to all-zero, which has sd == 0.
        (self.mean().abs() <= tolerance) && ((sd - 1.0).abs() <= tolerance || sd <= tolerance)
    }

    /// A borrowed view of this series.
    #[inline]
    pub fn view(&self) -> SeriesView<'_> {
        SeriesView {
            values: &self.values,
        }
    }
}

impl fmt::Debug for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Series(len={}, ", self.len())?;
        if self.len() <= 8 {
            write!(f, "{:?})", self.values)
        } else {
            write!(
                f,
                "[{:.3}, {:.3}, ..., {:.3}])",
                self.values[0],
                self.values[1],
                self.values[self.len() - 1]
            )
        }
    }
}

impl From<Vec<f32>> for Series {
    fn from(values: Vec<f32>) -> Self {
        Series::new(values)
    }
}

impl From<&[f32]> for Series {
    fn from(values: &[f32]) -> Self {
        Series::new(values.to_vec())
    }
}

impl Index<usize> for Series {
    type Output = f32;
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        &self.values[i]
    }
}

/// A borrowed, non-owning view over the values of a data series.
///
/// Used by indexes and scans to avoid copying when series are stored inside a
/// contiguous dataset buffer.
#[derive(Clone, Copy, PartialEq)]
pub struct SeriesView<'a> {
    values: &'a [f32],
}

impl<'a> SeriesView<'a> {
    /// Wraps a slice of values as a series view.
    #[inline]
    pub fn new(values: &'a [f32]) -> Self {
        Self { values }
    }

    /// The length of the viewed series.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The viewed values.
    #[inline]
    pub fn values(&self) -> &'a [f32] {
        self.values
    }

    /// Copies the view into an owned [`Series`].
    pub fn to_owned_series(&self) -> Series {
        Series::new(self.values.to_vec())
    }
}

impl fmt::Debug for SeriesView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SeriesView(len={})", self.len())
    }
}

/// Z-normalizes a slice of values in place (mean 0, standard deviation 1).
///
/// Slices with (near-)zero variance are mapped to all zeros.
pub fn z_normalize(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let n = values.len() as f64;
    let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = values
        .iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    let sd = var.sqrt();
    if sd < 1e-8 {
        values.iter_mut().for_each(|v| *v = 0.0);
    } else {
        let inv = 1.0 / sd;
        values
            .iter_mut()
            .for_each(|v| *v = ((*v as f64 - mean) * inv) as f32);
    }
}

/// An in-memory collection of same-length data series stored contiguously.
///
/// This is the canonical representation of the paper's "dataset": a flat file
/// of single-precision values, `series_length` values per series. Indexes
/// usually access it through `hydra-storage`'s instrumented [`DatasetStore`],
/// which counts disk accesses; the in-memory form is used for building and for
/// tests.
///
/// [`DatasetStore`]: https://docs.rs/hydra-storage
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    values: Vec<f32>,
    series_length: usize,
}

impl Dataset {
    /// Creates an empty dataset whose series all have length `series_length`.
    pub fn empty(series_length: usize) -> Self {
        assert!(series_length > 0, "series length must be positive");
        Self {
            values: Vec::new(),
            series_length,
        }
    }

    /// Creates a dataset from a flat buffer of `count * series_length` values.
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `series_length`.
    pub fn from_flat(values: Vec<f32>, series_length: usize) -> Self {
        assert!(series_length > 0, "series length must be positive");
        assert!(
            values.len().is_multiple_of(series_length),
            "flat buffer length {} is not a multiple of series length {}",
            values.len(),
            series_length
        );
        Self {
            values,
            series_length,
        }
    }

    /// Creates a dataset from a list of equally long series.
    ///
    /// # Panics
    /// Panics if the series do not all have the same length.
    pub fn from_series<I>(series: I) -> Self
    where
        I: IntoIterator<Item = Series>,
    {
        let mut iter = series.into_iter();
        #[expect(
            clippy::expect_used,
            reason = "non-empty input is the documented panic contract"
        )]
        let first = iter
            .next()
            .expect("dataset must contain at least one series");
        let series_length = first.len();
        let mut values = first.into_values();
        for s in iter {
            assert_eq!(
                s.len(),
                series_length,
                "all series in a dataset must have equal length"
            );
            values.extend_from_slice(s.values());
        }
        Self {
            values,
            series_length,
        }
    }

    /// Appends one series to the dataset.
    ///
    /// # Panics
    /// Panics if the series length does not match the dataset's series length.
    pub fn push(&mut self, series: &[f32]) {
        assert_eq!(series.len(), self.series_length, "series length mismatch");
        self.values.extend_from_slice(series);
    }

    /// The number of series in the dataset.
    #[inline]
    pub fn len(&self) -> usize {
        self.values
            .len()
            .checked_div(self.series_length)
            .unwrap_or(0)
    }

    /// Returns `true` if the dataset holds no series.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The length (dimensionality) of every series in the dataset.
    #[inline]
    pub fn series_length(&self) -> usize {
        self.series_length
    }

    /// The flat value buffer backing the dataset.
    #[inline]
    pub fn flat_values(&self) -> &[f32] {
        &self.values
    }

    /// A view over the `i`-th series.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn series(&self, i: usize) -> SeriesView<'_> {
        let start = i * self.series_length;
        SeriesView::new(&self.values[start..start + self.series_length])
    }

    /// Returns the `i`-th series as a slice, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[f32]> {
        let start = i.checked_mul(self.series_length)?;
        self.values.get(start..start + self.series_length)
    }

    /// Iterates over all series views in storage order.
    pub fn iter(&self) -> impl Iterator<Item = SeriesView<'_>> + '_ {
        self.values
            .chunks_exact(self.series_length)
            .map(SeriesView::new)
    }

    /// Z-normalizes every series in the dataset in place.
    pub fn z_normalize_all(&mut self) {
        let len = self.series_length;
        for chunk in self.values.chunks_exact_mut(len) {
            z_normalize(chunk);
        }
    }

    /// The total size of the dataset payload in bytes (single precision).
    pub fn size_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_basic_accessors() {
        let s = Series::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s[2], 3.0);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn series_std_dev_constant_is_zero() {
        let s = Series::new(vec![5.0; 16]);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn z_normalization_produces_zero_mean_unit_sd() {
        let mut s = Series::new(vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
        s.z_normalize();
        assert!(s.mean().abs() < 1e-5);
        assert!((s.std_dev() - 1.0).abs() < 1e-5);
        assert!(s.is_z_normalized(1e-4));
    }

    #[test]
    fn z_normalization_of_constant_series_is_all_zero() {
        let mut s = Series::new(vec![7.5; 32]);
        s.z_normalize();
        assert!(s.values().iter().all(|&v| v == 0.0));
        assert!(s.is_z_normalized(1e-4));
    }

    #[test]
    fn z_normalized_returns_copy_and_keeps_original() {
        let s = Series::new(vec![1.0, 2.0, 3.0]);
        let z = s.z_normalized();
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert!(z.mean().abs() < 1e-6);
    }

    #[test]
    fn empty_series_is_trivially_normalized() {
        let mut s = Series::new(vec![]);
        s.z_normalize();
        assert!(s.is_empty());
        assert!(s.is_z_normalized(1e-6));
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn dataset_from_flat_and_accessors() {
        let d = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3);
        assert_eq!(d.len(), 2);
        assert_eq!(d.series_length(), 3);
        assert_eq!(d.series(0).values(), &[1.0, 2.0, 3.0]);
        assert_eq!(d.series(1).values(), &[4.0, 5.0, 6.0]);
        assert_eq!(d.get(2), None);
        assert_eq!(d.size_bytes(), 24);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn dataset_from_flat_rejects_ragged_buffer() {
        let _ = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0], 3);
    }

    #[test]
    fn dataset_from_series_and_push() {
        let mut d = Dataset::from_series(vec![
            Series::new(vec![0.0, 1.0]),
            Series::new(vec![2.0, 3.0]),
        ]);
        d.push(&[4.0, 5.0]);
        assert_eq!(d.len(), 3);
        let collected: Vec<_> = d.iter().map(|v| v.values().to_vec()).collect();
        assert_eq!(
            collected,
            vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]]
        );
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dataset_from_series_rejects_mixed_lengths() {
        let _ = Dataset::from_series(vec![Series::new(vec![0.0, 1.0]), Series::new(vec![2.0])]);
    }

    #[test]
    fn dataset_z_normalize_all() {
        let mut d = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], 4);
        d.z_normalize_all();
        for view in d.iter() {
            let s = view.to_owned_series();
            assert!(s.mean().abs() < 1e-5);
            assert!((s.std_dev() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn series_view_round_trip() {
        let s = Series::new(vec![1.0, -1.0, 0.5]);
        let v = s.view();
        assert_eq!(v.len(), 3);
        assert_eq!(v.to_owned_series(), s);
    }
}
