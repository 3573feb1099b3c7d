//! Failure injection: the limits the paper documents in §IV-D must be
//! enforced as errors, not silent corruption.

use starsim::prelude::*;
use starsim::sim::SimError;

#[test]
fn roi_beyond_thread_block_limit_is_rejected() {
    // "the thread block has a maximum of 1024 threads, and this translates
    // into the limitation on the size of ROI".
    let cat = StarCatalog::from_stars(vec![Star::new(100.0, 100.0, 3.0)]);
    let cfg = SimConfig::new(256, 256, 33);
    let err = ParallelSimulator::new().simulate(&cat, &cfg).unwrap_err();
    match err {
        SimError::Gpu(g) => assert!(g.to_string().contains("exceeds the 32 px cap")),
        other => panic!("expected launch error, got {other}"),
    }
    // The sequential simulator has no such limit.
    assert!(SequentialSimulator::new().simulate(&cat, &cfg).is_ok());
}

#[test]
fn lookup_table_beyond_texture_memory_is_rejected() {
    // "we should first determine the size of lookup table to assure that it
    // can be successfully bound into the GPU texture memory".
    let cat = StarCatalog::new();
    let mut cfg = SimConfig::new(256, 256, 32);
    cfg.lut_mag_bins = 200_000_000;
    let err = AdaptiveSimulator::new().simulate(&cat, &cfg).unwrap_err();
    assert!(matches!(
        err,
        SimError::Psf(starsim::psf::PsfError::LutTooLarge { .. })
    ));
}

#[test]
fn max_magnitude_range_for_texture_budget_is_computable() {
    // The paper: "we can calculate the maximum star magnitude range that
    // the simulator can simulate with the fixed size of texture memory".
    let gpu = VirtualGpu::gtx480();
    let roi = Roi::new(32);
    let bins = LookupTable::max_mag_bins(roi, 1, gpu.spec().texture_mem_bytes);
    assert!(bins > 0);
    // A table at exactly that resolution must bind; one bin more must not.
    let mut cfg = SimConfig::new(64, 64, 32);
    cfg.lut_mag_bins = bins;
    assert!(starsim::sim::build_lut(&cfg, gpu.spec()).is_ok());
    cfg.lut_mag_bins = bins + 1;
    assert!(starsim::sim::build_lut(&cfg, gpu.spec()).is_err());
}

#[test]
fn invalid_configs_rejected_by_all_simulators() {
    let cat = StarCatalog::new();
    let bad_configs = [
        SimConfig::new(0, 64, 10),
        SimConfig::new(64, 0, 10),
        SimConfig::new(64, 64, 0),
        {
            let mut c = SimConfig::new(64, 64, 10);
            c.sigma = 0.0;
            c
        },
        {
            let mut c = SimConfig::new(64, 64, 10);
            c.mag_range = (10.0, 3.0);
            c
        },
    ];
    for cfg in &bad_configs {
        assert!(SequentialSimulator::new().simulate(&cat, cfg).is_err());
        assert!(ParallelSimulator::new().simulate(&cat, cfg).is_err());
        assert!(AdaptiveSimulator::new().simulate(&cat, cfg).is_err());
    }
}

#[test]
fn stars_entirely_outside_the_image_are_harmless() {
    let cat = StarCatalog::from_stars(vec![
        Star::new(-500.0, 10.0, 1.0),
        Star::new(10.0, 9999.0, 1.0),
        Star::new(f32::from_bits(0x7F7FFFFF), 0.0, 1.0), // f32::MAX position
    ]);
    let cfg = SimConfig::new(64, 64, 10);
    let seq = SequentialSimulator::new().simulate(&cat, &cfg).unwrap();
    let par = ParallelSimulator::new().simulate(&cat, &cfg).unwrap();
    assert!(seq.image.data().iter().all(|&v| v == 0.0));
    assert!(par.image.data().iter().all(|&v| v == 0.0));
}

#[test]
fn gtx280_rejects_rois_the_gtx480_accepts() {
    // Device-dependent limits: CC 1.3 caps blocks at 512 threads, so a
    // 24×24 ROI (576 threads) works on Fermi but not on GT200.
    let cat = StarCatalog::from_stars(vec![Star::new(100.0, 100.0, 3.0)]);
    let cfg = SimConfig::new(256, 256, 24);
    let fermi = ParallelSimulator::on(VirtualGpu::gtx480());
    assert!(fermi.simulate(&cat, &cfg).is_ok());
    let gt200 = ParallelSimulator::on(VirtualGpu::new(DeviceSpec::gtx280()));
    assert!(matches!(gt200.simulate(&cat, &cfg), Err(SimError::Gpu(_))));
}
