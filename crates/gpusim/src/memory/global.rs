//! Device global memory buffers.
//!
//! [`GlobalBuffer`] models a read-mostly device allocation (star arrays,
//! lookup tables); [`GlobalAtomicF32`] models a device buffer mutated with
//! `atomicAdd(float*)` (the output image). Buffers carry a synthetic
//! *device base address* so the coalescing analyzer can reason about the
//! byte addresses a warp touches, exactly as the hardware does.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Allocates synthetic, non-overlapping device addresses. 256-byte aligned
/// like `cudaMalloc`.
#[derive(Debug)]
pub struct AddressSpace {
    next: AtomicU64,
}

impl AddressSpace {
    /// A fresh address space starting at a non-zero base.
    pub fn new() -> Self {
        AddressSpace {
            next: AtomicU64::new(0x1000),
        }
    }

    /// Reserves `bytes`, returning the base address.
    pub fn alloc(&self, bytes: usize) -> u64 {
        let size = ((bytes + 255) & !255) as u64;
        self.next.fetch_add(size, Ordering::Relaxed)
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace::new()
    }
}

/// A read-only device buffer of plain-old-data elements.
#[derive(Debug)]
pub struct GlobalBuffer<T> {
    base_addr: u64,
    data: Vec<T>,
}

impl<T: Copy> GlobalBuffer<T> {
    /// Uploads host data into a device buffer within `space`.
    pub fn from_host(space: &AddressSpace, data: Vec<T>) -> Self {
        let base_addr = space.alloc(std::mem::size_of_val(data.as_slice()));
        GlobalBuffer { base_addr, data }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
    }

    /// Device base address.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Device byte address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base_addr + (idx * std::mem::size_of::<T>()) as u64
    }

    /// Reads element `idx` (functional payload of a device load).
    ///
    /// # Panics
    /// Panics when out of bounds — the virtual GPU's equivalent of a
    /// memory-fault, which the paper's kernel avoids with its `starCount`
    /// and image-bounds guards.
    #[inline]
    pub fn read(&self, idx: usize) -> T {
        self.data[idx]
    }

    /// Host view of the whole buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

/// A device `f32` buffer supporting `atomicAdd` — the output image of the
/// GPU simulators. Implemented as CAS loops over bit-cast `AtomicU32`s,
/// which is precisely the semantics CUDA documents for float atomics.
#[derive(Debug)]
pub struct GlobalAtomicF32 {
    base_addr: u64,
    data: Vec<AtomicU32>,
}

impl GlobalAtomicF32 {
    /// A zero-filled device buffer of `len` floats.
    pub fn zeroed(space: &AddressSpace, len: usize) -> Self {
        let base_addr = space.alloc(len * 4);
        let mut data = Vec::with_capacity(len);
        data.resize_with(len, || AtomicU32::new(0f32.to_bits()));
        GlobalAtomicF32 { base_addr, data }
    }

    /// Uploads host data.
    pub fn from_host(space: &AddressSpace, host: &[f32]) -> Self {
        let base_addr = space.alloc(host.len() * 4);
        let data = host.iter().map(|v| AtomicU32::new(v.to_bits())).collect();
        GlobalAtomicF32 { base_addr, data }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Device byte address of element `idx`.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> u64 {
        self.base_addr + (idx as u64) * 4
    }

    /// `atomicAdd(&buf[idx], v)`: returns the previous value.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn atomic_add(&self, idx: usize, v: f32) -> f32 {
        let cell = &self.data[idx];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => return f32::from_bits(prev),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Plain (non-atomic) store `buf[idx] = v` — a device kernel writing
    /// through an ordinary global store instead of `atomicAdd`. Lost
    /// updates under contention are exactly the defect the sanitizer's
    /// racecheck exists to flag; correct kernels accumulate with
    /// [`Self::atomic_add`].
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn store(&self, idx: usize, v: f32) {
        self.data[idx].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Single-writer bulk add of a sub-range: `self[start + i] += vals[i]`
    /// for every entry of `vals`, zeros included and with no branch, each
    /// the same `f32` add [`Self::atomic_add`] makes — so given the same
    /// values in the same order a cell ends bit-equal to the atomic path.
    /// (In an image that starts at `+0.0` a `±0.0` add changes no bit:
    /// such a buffer never holds `-0.0`, and `x + ±0.0 == x` bitwise for
    /// every other `x`.) The plain load/store replaces the CAS loop, so it
    /// needs one writer per element, not per buffer: the batched
    /// executor's deposit pass calls it concurrently on disjoint row bands
    /// of one target.
    #[inline]
    pub fn merge_add_range(&self, start: usize, vals: &[f32]) {
        debug_assert!(start + vals.len() <= self.data.len());
        for (cell, &v) in self.data[start..start + vals.len()].iter().zip(vals) {
            let cur = f32::from_bits(cell.load(Ordering::Relaxed));
            cell.store((cur + v).to_bits(), Ordering::Relaxed);
        }
    }

    /// Plain read (used by downloads after kernels complete).
    #[inline]
    pub fn read(&self, idx: usize) -> f32 {
        f32::from_bits(self.data[idx].load(Ordering::Relaxed))
    }

    /// Downloads the whole buffer to the host.
    pub fn to_host(&self) -> Vec<f32> {
        self.data
            .iter()
            .map(|c| f32::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Downloads the whole buffer into `out` (resized to fit) without
    /// allocating a fresh vector — the frame loop's download path.
    pub fn to_host_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(
            self.data
                .iter()
                .map(|c| f32::from_bits(c.load(Ordering::Relaxed))),
        );
    }

    /// Downloads the whole buffer into `out` and resets the device buffer
    /// to zero in the same pass, so a persistent device image can be reused
    /// by the next frame without a separate clearing kernel.
    pub fn take_to_host(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.data.iter().map(|c| {
            let v = f32::from_bits(c.load(Ordering::Relaxed));
            c.store(0f32.to_bits(), Ordering::Relaxed);
            v
        }));
    }

    /// Resets every element to `+0.0`. Used by verified downloads (which
    /// cannot drain-as-they-copy like [`Self::take_to_host`], since a
    /// checksum failure must leave the device data intact for the retry)
    /// and by retry attempts clearing a partially-written frame.
    pub fn fill_zero(&self) {
        for cell in &self.data {
            cell.store(0f32.to_bits(), Ordering::Relaxed);
        }
    }

    /// Device-side per-chunk checksums over the raw bit patterns, `chunk`
    /// values per checksum (the last chunk may be short). Compared against
    /// the host copy after a transfer to detect in-flight corruption.
    pub fn chunk_checksums(&self, chunk: usize) -> Vec<u64> {
        let chunk = chunk.max(1);
        self.data
            .chunks(chunk)
            .map(|cells| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for cell in cells {
                    h = (h.rotate_left(5) ^ u64::from(cell.load(Ordering::Relaxed)))
                        .wrapping_mul(0x0000_0100_0000_01B3);
                }
                h
            })
            .collect()
    }
}

/// Host-side twin of [`GlobalAtomicF32::chunk_checksums`]: same function
/// over an `f32` slice, for the post-transfer comparison.
pub fn chunk_checksums_host(vals: &[f32], chunk: usize) -> Vec<u64> {
    let chunk = chunk.max(1);
    vals.chunks(chunk)
        .map(|c| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in c {
                h = (h.rotate_left(5) ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_space_is_disjoint_and_aligned() {
        let space = AddressSpace::new();
        let a = space.alloc(100);
        let b = space.alloc(300);
        let c = space.alloc(1);
        assert!(a.is_multiple_of(256) && b.is_multiple_of(256) && c.is_multiple_of(256));
        assert!(b >= a + 100);
        assert!(c >= b + 300);
    }

    #[test]
    fn global_buffer_addresses_and_reads() {
        let space = AddressSpace::new();
        let buf = GlobalBuffer::from_host(&space, vec![10u64, 20, 30]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert_eq!(buf.size_bytes(), 24);
        assert_eq!(buf.read(1), 20);
        assert_eq!(buf.addr_of(0), buf.base_addr());
        assert_eq!(buf.addr_of(2), buf.base_addr() + 16);
        assert_eq!(buf.as_slice(), &[10, 20, 30]);
    }

    #[test]
    fn atomic_f32_add_roundtrip() {
        let space = AddressSpace::new();
        let buf = GlobalAtomicF32::zeroed(&space, 4);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.size_bytes(), 16);
        let prev = buf.atomic_add(2, 1.5);
        assert_eq!(prev, 0.0);
        let prev = buf.atomic_add(2, 2.0);
        assert_eq!(prev, 1.5);
        assert_eq!(buf.read(2), 3.5);
        assert_eq!(buf.to_host(), vec![0.0, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn atomic_f32_from_host_preserves_values() {
        let space = AddressSpace::new();
        let buf = GlobalAtomicF32::from_host(&space, &[1.0, -2.5]);
        assert_eq!(buf.read(0), 1.0);
        assert_eq!(buf.read(1), -2.5);
        assert_eq!(buf.addr_of(1), buf.addr_of(0) + 4);
    }

    #[test]
    fn concurrent_atomic_adds_conserve_sum() {
        let space = AddressSpace::new();
        let buf = GlobalAtomicF32::zeroed(&space, 16);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..4000 {
                        buf.atomic_add(i % 16, 1.0);
                    }
                });
            }
        });
        let total: f64 = buf.to_host().iter().map(|&v| v as f64).sum();
        assert_eq!(total, 16_000.0);
    }

    #[test]
    fn merge_add_range_matches_offset_atomics() {
        let space = AddressSpace::new();
        let a = GlobalAtomicF32::from_host(&space, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = GlobalAtomicF32::from_host(&space, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let delta = [0.25f32, 0.0, 0.75];
        a.merge_add_range(1, &delta);
        for (i, &v) in delta.iter().enumerate() {
            b.atomic_add(1 + i, v);
        }
        assert_eq!(a.to_host(), b.to_host());
    }

    #[test]
    fn to_host_into_and_take_to_host() {
        let space = AddressSpace::new();
        let buf = GlobalAtomicF32::from_host(&space, &[1.0, 2.0]);
        let mut out = vec![9.0; 7];
        buf.to_host_into(&mut out);
        assert_eq!(out, vec![1.0, 2.0]);
        assert_eq!(buf.read(0), 1.0, "plain download leaves device data");
        buf.take_to_host(&mut out);
        assert_eq!(out, vec![1.0, 2.0]);
        assert_eq!(buf.to_host(), vec![0.0, 0.0], "take zeroes device data");
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_faults() {
        let space = AddressSpace::new();
        let buf = GlobalBuffer::from_host(&space, vec![1u32]);
        let _ = buf.read(1);
    }

    #[test]
    fn fill_zero_resets_everything() {
        let space = AddressSpace::new();
        let buf = GlobalAtomicF32::from_host(&space, &[1.0, -2.0, 3.5]);
        buf.fill_zero();
        assert_eq!(buf.to_host(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn chunk_checksums_match_host_twin_and_catch_a_bit_flip() {
        let space = AddressSpace::new();
        let vals: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        let buf = GlobalAtomicF32::from_host(&space, &vals);
        let dev = buf.chunk_checksums(256);
        assert_eq!(dev.len(), 4, "1000 values in 256-chunks");
        assert_eq!(dev, chunk_checksums_host(&vals, 256));
        // A single flipped mantissa bit in chunk 2 must change exactly that
        // chunk's checksum.
        let mut corrupted = vals.clone();
        corrupted[600] = f32::from_bits(corrupted[600].to_bits() ^ 0x0008_0000);
        let host = chunk_checksums_host(&corrupted, 256);
        assert_eq!(host[0], dev[0]);
        assert_eq!(host[1], dev[1]);
        assert_ne!(host[2], dev[2]);
        assert_eq!(host[3], dev[3]);
    }
}
