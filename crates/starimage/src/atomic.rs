//! Lock-free atomic accumulation image.
//!
//! The parallel simulator's kernel ends with
//! `atomicAdd(&imagePixel[y*width+x], grayDistribution)` (paper Fig. 6,
//! step 8): concurrent thread blocks whose ROIs overlap must accumulate
//! into the same pixel without losing updates. Rust has no `AtomicF32`, so
//! we implement the standard compare-exchange loop over the `f32` bit
//! pattern stored in an [`AtomicU32`] — semantically identical to CUDA's
//! pre-sm_20 software `atomicAdd(float*)`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::buffer::ImageF32;

/// A row-major image of atomically-updatable `f32` pixels.
///
/// Shared by reference across worker threads during kernel execution; the
/// finished image is extracted with [`Self::snapshot`] or
/// [`Self::into_image`].
#[derive(Debug)]
pub struct AtomicImage {
    width: usize,
    height: usize,
    data: Vec<AtomicU32>,
    /// Number of adds that had to retry their CAS at least once — a direct
    /// measure of the write-collision pressure the paper discusses
    /// ("queuing for the same memory modification").
    contended: AtomicU64,
}

impl AtomicImage {
    /// A zero-filled atomic image.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        let mut data = Vec::with_capacity(width * height);
        data.resize_with(width * height, || AtomicU32::new(0f32.to_bits()));
        AtomicImage {
            width,
            height,
            data,
            contended: AtomicU64::new(0),
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the image holds no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Atomically adds `v` to the pixel at linear index `idx`, returning the
    /// previous value. Lock-free CAS loop; `Relaxed` ordering suffices
    /// because pixel values carry no inter-thread control dependences — the
    /// executor joins all workers before the image is read.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    #[inline]
    pub fn fetch_add(&self, idx: usize, v: f32) -> f32 {
        let cell = &self.data[idx];
        let mut current = cell.load(Ordering::Relaxed);
        let mut retried = false;
        loop {
            let new = (f32::from_bits(current) + v).to_bits();
            match cell.compare_exchange_weak(current, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => {
                    if retried {
                        self.contended.fetch_add(1, Ordering::Relaxed);
                    }
                    return f32::from_bits(prev);
                }
                Err(observed) => {
                    retried = true;
                    current = observed;
                }
            }
        }
    }

    /// Atomically adds `v` at `(x, y)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn add(&self, x: usize, y: usize, v: f32) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.fetch_add(y * self.width + x, v)
    }

    /// Non-atomic read of pixel `(x, y)` (exact once workers have joined).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        f32::from_bits(self.data[y * self.width + x].load(Ordering::Relaxed))
    }

    /// Number of adds that observed contention (retried their CAS).
    pub fn contended_adds(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Copies the current contents into a plain [`ImageF32`].
    pub fn snapshot(&self) -> ImageF32 {
        let data = self
            .data
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect();
        ImageF32::from_data(self.width, self.height, data)
    }

    /// Consumes the atomic image into a plain [`ImageF32`] without copying
    /// per-pixel atomics (single allocation move).
    pub fn into_image(self) -> ImageF32 {
        let data = self
            .data
            .into_iter()
            .map(|c| f32::from_bits(c.into_inner()))
            .collect();
        ImageF32::from_data(self.width, self.height, data)
    }

    /// Loads a plain image's contents (used to seed background gray).
    pub fn load_from(&self, img: &ImageF32) {
        assert_eq!(
            (img.width(), img.height()),
            (self.width, self.height),
            "image dimensions must match"
        );
        for (cell, &v) in self.data.iter().zip(img.data()) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn basic_add_and_get() {
        let img = AtomicImage::new(4, 4);
        assert_eq!(img.len(), 16);
        assert!(!img.is_empty());
        let prev = img.add(1, 2, 3.5);
        assert_eq!(prev, 0.0);
        let prev = img.add(1, 2, 1.0);
        assert_eq!(prev, 3.5);
        assert_eq!(img.get(1, 2), 4.5);
        assert_eq!((img.width(), img.height()), (4, 4));
    }

    #[test]
    fn snapshot_matches_contents() {
        let img = AtomicImage::new(3, 2);
        img.add(0, 0, 1.0);
        img.add(2, 1, 2.0);
        let snap = img.snapshot();
        assert_eq!(snap.get(0, 0), 1.0);
        assert_eq!(snap.get(2, 1), 2.0);
        assert_eq!(snap.get(1, 0), 0.0);
        let owned = img.into_image();
        assert_eq!(owned, snap);
    }

    #[test]
    fn load_from_seeds_contents() {
        let mut base = ImageF32::new(2, 2);
        base.set(1, 1, 7.0);
        let img = AtomicImage::new(2, 2);
        img.load_from(&base);
        img.add(1, 1, 1.0);
        assert_eq!(img.get(1, 1), 8.0);
    }

    #[test]
    fn concurrent_adds_lose_nothing() {
        // The core atomicAdd guarantee: N threads × M adds of 1.0 into one
        // pixel must total exactly N·M (f32 exactly represents these sums).
        let img = AtomicImage::new(8, 8);
        let threads = 8;
        let adds = 10_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 0..adds {
                        img.fetch_add(i % 64, 1.0);
                    }
                });
            }
        });
        let total: f64 = img.snapshot().data().iter().map(|&v| v as f64).sum();
        assert_eq!(total, (threads * adds) as f64);
    }

    #[test]
    fn contention_counter_fires_under_pressure() {
        // With true parallelism, 8 threads hammering one address retry. One
        // round's threads can still run one after another (each finishes
        // inside a time slice, or other tests hold the other cores), so
        // barrier-released rounds repeat until one contends. On a
        // single-core host the OS serializes the threads and CAS may never
        // observe interference, so only assert when the machine can
        // actually run threads concurrently.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let img = AtomicImage::new(1, 1);
        let spins = AtomicUsize::new(0);
        let start = Barrier::new(8);
        for _ in 0..50 {
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..20_000 {
                            img.fetch_add(0, 0.001);
                            spins.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            if cores < 2 || img.contended_adds() > 0 {
                break;
            }
        }
        if cores >= 2 {
            assert!(
                img.contended_adds() > 0,
                "expected contention on a single hot pixel"
            );
        }
    }

    #[test]
    fn no_contention_single_threaded() {
        let img = AtomicImage::new(2, 2);
        for _ in 0..1000 {
            img.add(0, 0, 1.0);
        }
        assert_eq!(img.contended_adds(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_add_panics() {
        let img = AtomicImage::new(2, 2);
        img.add(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn load_from_mismatched_panics() {
        let img = AtomicImage::new(2, 2);
        img.load_from(&ImageF32::new(3, 2));
    }
}
