//! Figure 1 reads an application's path-syscall time and its wall time
//! from the same rep, so every fraction is a share of one run.

use dc_bench::figs::run_apps;
use dc_bench::setup::{kernel_with_obs, Scale};
use dcache_core::DcacheConfig;

#[test]
fn every_path_fraction_is_a_share_of_one_run() {
    let runs = run_apps(
        &kernel_with_obs(DcacheConfig::baseline()),
        Scale::quick(),
        false,
    );
    assert_eq!(runs.len(), 8);
    for r in &runs {
        let fraction = r.path_fraction.expect("an observed kernel");
        assert!(fraction > 0.0 && fraction <= 1.0, "{}: {fraction}", r.name);
    }
}
