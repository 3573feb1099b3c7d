//! Property-style tests of the image substrate.
//!
//! Hand-rolled deterministic property loops (seeded `simrng`) instead of
//! `proptest`, so the workspace tests run with no registry access.

use simrng::Rng64;
use starimage::io::bmp::{read_bmp_gray8, write_bmp_gray8};
use starimage::io::pgm::{read_pgm, write_pgm8};
use starimage::{apply_noise, GrayMap, ImageF32, NoiseModel};

/// Gray mapping is monotone and saturating for any positive white level
/// and gamma.
#[test]
fn gray_map_monotone() {
    let mut rng = Rng64::new(0x69A);
    for _ in 0..256 {
        let white = rng.range_f32(0.01, 1e6);
        let gamma = rng.range_f32(0.2, 5.0);
        let a = rng.range_f32(0.0, 1e6);
        let b = rng.range_f32(0.0, 1e6);
        let m = GrayMap::with_gamma(white, gamma);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(m.to_u8(lo) <= m.to_u8(hi));
        assert!(m.to_u16(lo) <= m.to_u16(hi));
        assert_eq!(m.to_u8(white * 2.0), 255);
        assert_eq!(m.to_u8(0.0), 0);
    }
}

/// BMP round-trips arbitrary gray payloads at arbitrary (small) sizes,
/// including widths that need row padding.
#[test]
fn bmp_roundtrip() {
    let mut rng = Rng64::new(0xB9);
    for _ in 0..128 {
        let w = rng.range_usize(1, 40);
        let h = rng.range_usize(1, 40);
        let seed = rng.range_u64(0, 1000);
        let gray: Vec<u8> = (0..w * h)
            .map(|i| ((i as u64 * 31 + seed) % 256) as u8)
            .collect();
        let mut buf = Vec::new();
        write_bmp_gray8(&mut buf, w, h, &gray).unwrap();
        let (rw, rh, back) = read_bmp_gray8(&mut &buf[..]).unwrap();
        assert_eq!((rw, rh), (w, h));
        assert_eq!(back, gray);
    }
}

/// PGM round-trips arbitrary images.
#[test]
fn pgm_roundtrip() {
    let mut rng = Rng64::new(0x96);
    for _ in 0..128 {
        let w = rng.range_usize(1, 40);
        let h = rng.range_usize(1, 40);
        let white = rng.range_f32(1.0, 100.0);
        let data: Vec<f32> = (0..w * h).map(|i| (i % 97) as f32).collect();
        let img = ImageF32::from_data(w, h, data);
        let map = GrayMap::linear(white);
        let mut buf = Vec::new();
        write_pgm8(&mut buf, &img, map).unwrap();
        let pgm = read_pgm(&mut &buf[..]).unwrap();
        assert_eq!((pgm.width, pgm.height), (w, h));
        let expect: Vec<u16> = img.data().iter().map(|&v| map.to_u8(v) as u16).collect();
        assert_eq!(pgm.samples, expect);
    }
}

/// The image readers never panic on arbitrary byte soup — malformed
/// input is an `Err`, not a crash.
#[test]
fn readers_never_panic() {
    let mut rng = Rng64::new(0x4EAD);
    for _ in 0..128 {
        let n = rng.range_usize(0, 2048);
        let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        let _ = read_bmp_gray8(&mut &bytes[..]);
        let _ = read_pgm(&mut &bytes[..]);
    }
}

/// The readers also survive corrupted versions of *valid* files.
#[test]
fn readers_survive_corruption() {
    let mut rng = Rng64::new(0xC04);
    for _ in 0..256 {
        let flip_at = rng.range_usize(0, 500);
        let flip_to = rng.next_u64() as u8;
        let gray: Vec<u8> = (0..64).map(|i| i as u8 * 4).collect();
        let mut bmp = Vec::new();
        write_bmp_gray8(&mut bmp, 8, 8, &gray).unwrap();
        if flip_at < bmp.len() {
            bmp[flip_at] = flip_to;
        }
        let _ = read_bmp_gray8(&mut &bmp[..]); // must not panic

        let img = ImageF32::from_data(8, 8, gray.iter().map(|&g| g as f32).collect());
        let mut pgm = Vec::new();
        write_pgm8(&mut pgm, &img, GrayMap::linear(255.0)).unwrap();
        if flip_at < pgm.len() {
            pgm[flip_at] = flip_to;
        }
        let _ = read_pgm(&mut &pgm[..]); // must not panic
    }
}

/// Noise keeps pixels finite and non-negative and is seed-stable.
#[test]
fn noise_invariants() {
    let mut rng = Rng64::new(0x401);
    for _ in 0..64 {
        let level = rng.range_f32(0.0, 100.0);
        let model = NoiseModel {
            background: rng.range_f32(0.0, 1.0),
            shot_gain: rng.range_f32(0.0, 1.0),
            read_sigma: rng.range_f32(0.0, 1.0),
        };
        let seed = rng.range_u64(0, 1000);
        let mut a = ImageF32::from_data(8, 8, vec![level; 64]);
        apply_noise(&mut a, model, seed);
        assert!(a.data().iter().all(|v| v.is_finite() && *v >= 0.0));
        let mut b = ImageF32::from_data(8, 8, vec![level; 64]);
        apply_noise(&mut b, model, seed);
        assert_eq!(a, b);
    }
}
