//! Image comparison used to validate simulators against each other.
//!
//! The paper's correctness argument is implicit ("there must be mistakes in
//! either simulator" if their results disagree, §IV-C); we make it explicit
//! by comparing parallel/adaptive output against the sequential baseline.

use crate::buffer::ImageF32;

/// The result of comparing two images.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageDiff {
    /// Maximum absolute per-pixel difference.
    pub max_abs: f32,
    /// Maximum relative difference `|a−b| / max(|a|, |b|, eps)`.
    pub max_rel: f32,
    /// Root-mean-square difference.
    pub rmse: f64,
    /// Number of pixels whose absolute difference exceeds `tolerance`
    /// passed to [`compare`].
    pub pixels_over_tolerance: usize,
}

/// Compares two images of identical dimensions.
///
/// `tolerance` only affects the `pixels_over_tolerance` count.
///
/// # Panics
/// Panics when dimensions differ.
pub fn compare(a: &ImageF32, b: &ImageF32, tolerance: f32) -> ImageDiff {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "cannot compare images of different sizes"
    );
    const EPS: f32 = 1e-20;
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut sq = 0.0f64;
    let mut over = 0usize;
    for (&x, &y) in a.data().iter().zip(b.data()) {
        let d = (x - y).abs();
        max_abs = max_abs.max(d);
        max_rel = max_rel.max(d / x.abs().max(y.abs()).max(EPS));
        sq += (d as f64) * (d as f64);
        if d > tolerance {
            over += 1;
        }
    }
    ImageDiff {
        max_abs,
        max_rel,
        rmse: (sq / a.len() as f64).sqrt(),
        pixels_over_tolerance: over,
    }
}

/// True when every pixel of `a` and `b` agrees within `abs_tol` absolutely
/// *or* `rel_tol` relatively — the standard mixed tolerance for floating
/// point accumulation order differences.
pub fn images_close(a: &ImageF32, b: &ImageF32, abs_tol: f32, rel_tol: f32) -> bool {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "cannot compare images of different sizes"
    );
    a.data().iter().zip(b.data()).all(|(&x, &y)| {
        let d = (x - y).abs();
        d <= abs_tol || d <= rel_tol * x.abs().max(y.abs())
    })
}

/// Pixels whose bit patterns differ between two images of identical
/// dimensions: 0 exactly when the images are bit-identical, as two
/// renders that add the same values in the same order are.
///
/// # Panics
/// Panics when dimensions differ.
pub fn differing_pixels(a: &ImageF32, b: &ImageF32) -> usize {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "cannot compare images of different sizes"
    );
    a.data()
        .iter()
        .zip(b.data())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_diff_zero() {
        let img = ImageF32::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let d = compare(&img, &img.clone(), 0.0);
        assert_eq!(d.max_abs, 0.0);
        assert_eq!(d.max_rel, 0.0);
        assert_eq!(d.rmse, 0.0);
        assert_eq!(d.pixels_over_tolerance, 0);
        assert!(images_close(&img, &img.clone(), 0.0, 0.0));
    }

    #[test]
    fn known_difference() {
        let a = ImageF32::from_data(2, 1, vec![1.0, 2.0]);
        let b = ImageF32::from_data(2, 1, vec![1.5, 2.0]);
        let d = compare(&a, &b, 0.1);
        assert_eq!(d.max_abs, 0.5);
        assert!((d.max_rel - 0.5 / 1.5).abs() < 1e-6);
        assert!((d.rmse - (0.25f64 / 2.0).sqrt()).abs() < 1e-12);
        assert_eq!(d.pixels_over_tolerance, 1);
    }

    #[test]
    fn mixed_tolerance_accepts_small_relative_error() {
        let a = ImageF32::from_data(1, 1, vec![1000.0]);
        let b = ImageF32::from_data(1, 1, vec![1000.5]);
        // 0.5 absolute is large, but 5e-4 relative is fine.
        assert!(!images_close(&a, &b, 0.1, 0.0));
        assert!(images_close(&a, &b, 0.1, 1e-3));
        assert!(images_close(&a, &b, 1.0, 0.0));
    }

    #[test]
    fn zero_pixels_compare_absolutely() {
        let a = ImageF32::from_data(1, 1, vec![0.0]);
        let b = ImageF32::from_data(1, 1, vec![1e-9]);
        assert!(images_close(&a, &b, 1e-8, 0.0));
        assert!(!images_close(&a, &b, 1e-10, 0.5));
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn size_mismatch_panics() {
        let _ = compare(&ImageF32::new(2, 2), &ImageF32::new(2, 3), 0.0);
    }
}
