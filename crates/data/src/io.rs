//! On-disk dataset format: flat little-endian `f32` binary files.
//!
//! Every implementation compared in the paper consumes the same raw format: a
//! file of `count * series_length` single-precision values with no header.
//! This module provides a writer and a reader for that format, plus a helper
//! that reports the dataset size in the "GB" units the paper uses to label
//! its experiments.

#![expect(
    clippy::disallowed_methods,
    reason = "pre-measurement ingest; counted I/O starts at DatasetStore"
)]

use hydra_core::series::Dataset;
use hydra_core::{Error, Result};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes a dataset to `path` in the flat binary format.
pub fn write_dataset(dataset: &Dataset, path: &Path) -> Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    for &v in dataset.flat_values() {
        writer.write_all(&v.to_le_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

/// Reads a dataset of the given series length from `path`.
///
/// Returns an error if the file size is not a multiple of
/// `series_length * 4` bytes.
pub fn read_dataset(path: &Path, series_length: usize) -> Result<Dataset> {
    if series_length == 0 {
        return Err(Error::invalid_parameter(
            "series_length",
            "must be positive",
        ));
    }
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    if bytes.len() % 4 != 0 {
        return Err(Error::invalid_parameter(
            "file",
            format!("file size {} is not a multiple of 4 bytes", bytes.len()),
        ));
    }
    let values: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    if !values.len().is_multiple_of(series_length) {
        return Err(Error::invalid_parameter(
            "series_length",
            format!(
                "{} values is not a multiple of series length {series_length}",
                values.len()
            ),
        ));
    }
    Ok(Dataset::from_flat(values, series_length))
}

/// The number of series a dataset of `gigabytes` GB holds at the given series
/// length, using the paper's convention (single-precision values).
pub fn series_count_for_gigabytes(gigabytes: f64, series_length: usize) -> usize {
    let bytes = gigabytes * 1024.0 * 1024.0 * 1024.0;
    (bytes / (series_length as f64 * 4.0)).round() as usize
}

/// The dataset payload size in gigabytes (the unit the paper labels datasets
/// with).
pub fn dataset_gigabytes(dataset: &Dataset) -> f64 {
    dataset.size_bytes() as f64 / (1024.0 * 1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomwalk::RandomWalkGenerator;

    #[test]
    fn write_then_read_round_trips() {
        let dir = std::env::temp_dir().join("hydra_data_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.bin");
        let d = RandomWalkGenerator::new(3, 32).dataset(50);
        write_dataset(&d, &path).unwrap();
        let back = read_dataset(&path, 32).unwrap();
        assert_eq!(d, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_rejects_mismatched_length() {
        let dir = std::env::temp_dir().join("hydra_data_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.bin");
        let d = RandomWalkGenerator::new(3, 32).dataset(3);
        write_dataset(&d, &path).unwrap();
        assert!(read_dataset(&path, 7).is_err());
        assert!(read_dataset(&path, 0).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let err = read_dataset(Path::new("/nonexistent/hydra.bin"), 8).unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
    }

    #[test]
    fn gigabyte_conversions_are_consistent() {
        // The paper's 100GB dataset of length-256 series has ~100M series.
        let count = series_count_for_gigabytes(100.0, 256);
        assert!((count as f64 - 104_857_600.0).abs() < 1.0);
        let d = RandomWalkGenerator::new(1, 256).dataset(1000);
        let gb = dataset_gigabytes(&d);
        assert!((gb - 1000.0 * 256.0 * 4.0 / 1024f64.powi(3)).abs() < 1e-12);
    }
}
