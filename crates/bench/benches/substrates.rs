//! Microbenches of the hot substrate paths: PSF evaluation, coalescing
//! analysis, the texture cache, and image encoding.

include!("common/harness.rs");

use gpusim::memory::cache::CacheSim;
use gpusim::warp::{bank_conflict_extra, coalesce_transactions};
use psf::{GaussianPsf, IntegratedGaussianPsf, MoffatPsf, SmearedGaussianPsf};
use starfield::{triad, Attitude, Observation, SkyStar};
use starimage::io::bmp::write_bmp_gray8;
use starimage::{apply_noise, label_blobs, ImageF32, NoiseModel};

fn bench_psf_eval() {
    let point = GaussianPsf::new(2.0);
    let integ = IntegratedGaussianPsf::new(2.0);
    bench("psf_point_eval_100", || {
        let mut acc = 0.0f32;
        for j in 0..10 {
            for i in 0..10 {
                acc += point.eval(i as f32, j as f32, 4.5, 4.5);
            }
        }
        acc
    });
    bench("psf_integrated_eval_100", || {
        let mut acc = 0.0f32;
        for j in 0..10 {
            for i in 0..10 {
                acc += integ.eval(i as f32, j as f32, 4.5, 4.5);
            }
        }
        acc
    });
}

fn bench_warp_analysis() {
    let coalesced: Vec<(u64, u16)> = (0..32).map(|i| (i * 4, 4)).collect();
    let scattered: Vec<(u64, u16)> = (0..32).map(|i| (i * 4096, 4)).collect();
    bench("coalesce_coalesced_warp", || {
        coalesce_transactions(black_box(&coalesced), 128)
    });
    bench("coalesce_scattered_warp", || {
        coalesce_transactions(black_box(&scattered), 128)
    });
    let words: Vec<u32> = (0..32).map(|i| i * 32).collect();
    bench("bank_conflict_analysis", || {
        bank_conflict_extra(black_box(&words), 32)
    });
}

fn bench_texture_cache() {
    let mut cache = CacheSim::new(48 * 1024, 128, 16);
    bench("cache_sim_streaming_4k", || {
        let mut hits = 0u64;
        for addr in (0..16384u64).step_by(4) {
            if cache.access(addr) {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_bmp_encode() {
    let img = ImageF32::new(1024, 1024);
    let gray = starimage::to_gray8(&img, starimage::GrayMap::linear(1.0));
    bench("bmp_encode_1024", || {
        let mut buf = Vec::with_capacity(1024 * 1024 + 2048);
        write_bmp_gray8(&mut buf, 1024, 1024, black_box(&gray)).unwrap();
        buf
    });
}

fn bench_extension_psfs() {
    let smear = SmearedGaussianPsf::new(1.5, 6.0, 0.5);
    let moffat = MoffatPsf::with_gaussian_fwhm(1.5, 2.5);
    bench("psf_smeared_eval_100", || {
        let mut acc = 0.0f32;
        for j in 0..10 {
            for i in 0..10 {
                acc += smear.eval(i as f32, j as f32, 4.5, 4.5);
            }
        }
        acc
    });
    bench("psf_moffat_eval_100", || {
        let mut acc = 0.0f32;
        for j in 0..10 {
            for i in 0..10 {
                acc += moffat.eval(i as f32, j as f32, 4.5, 4.5);
            }
        }
        acc
    });
}

fn bench_extraction() {
    // A 256² frame with ~50 blobs: the extraction paths.
    let mut img = ImageF32::new(256, 256);
    for k in 0..50usize {
        let (cx, cy) = ((k * 37 % 240 + 8) as f32, (k * 53 % 240 + 8) as f32);
        for dy in -4i64..=4 {
            for dx in -4i64..=4 {
                let v = 5.0 * (-((dx * dx + dy * dy) as f32) / 4.0).exp();
                img.add((cx as i64 + dx) as usize, (cy as i64 + dy) as usize, v);
            }
        }
    }
    bench("label_blobs_256", || label_blobs(&img, 1e-3, 3));
    bench("detect_stars_256", || {
        starimage::detect_stars(&img, starimage::CentroidParams::default())
    });
}

fn bench_noise_and_triad() {
    let base = ImageF32::from_data(256, 256, vec![0.5; 256 * 256]);
    bench("apply_noise_256", || {
        let mut img = base.clone();
        apply_noise(&mut img, NoiseModel::quiet(), 7);
        img
    });
    let truth = Attitude::pointing(1.2, 0.3, 0.7);
    let observations: Vec<Observation> = (0..10)
        .map(|k| {
            let d = SkyStar::new(0.3 + k as f64 * 0.2, 0.1 * k as f64 - 0.4, 3.0).direction();
            Observation {
                body: truth.to_body(d),
                inertial: d,
            }
        })
        .collect();
    bench("triad_10_observations", || {
        triad(black_box(&observations)).unwrap()
    });
}

fn main() {
    bench_psf_eval();
    bench_extension_psfs();
    bench_extraction();
    bench_noise_and_triad();
    bench_warp_analysis();
    bench_texture_cache();
    bench_bmp_encode();
}
