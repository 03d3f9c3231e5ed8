//! An allocation round costs what changed, not what is resident: the
//! counted-work view of ROADMAP item 2a at the facade, mirroring
//! `crates/rm/tests/prop_round_cache.rs` so the tier-1 gate sees it.

use harp::platform::HardwareDescription;
use harp::rm::{RmConfig, RmCore};
use harp::types::{AppId, ExtResourceVector, NonFunctional};

#[test]
fn arrival_into_stable_residents_rebuilds_one_option_set_and_departure_none() {
    let hw = HardwareDescription::raptor_lake();
    let shape = hw.erv_shape();
    let profile = |app: u64| -> Vec<(ExtResourceVector, NonFunctional)> {
        (1..=8u32)
            .map(|i| {
                let flat = if i % 2 == 0 { [0, i, 0] } else { [0, 0, i] };
                (
                    ExtResourceVector::from_flat(&shape, &flat).unwrap(),
                    NonFunctional::new(1.0e10 * f64::from(i) + app as f64, 4.0 * f64::from(i)),
                )
            })
            .collect()
    };
    let cfg = RmConfig {
        offline: true,
        ..RmConfig::default()
    };
    for residents in [2u64, 20, 60] {
        let mut rm = RmCore::new(hw.clone(), cfg.clone());
        for app in 1..=residents {
            rm.register(AppId(app), &format!("resident-{app}"), false)
                .unwrap();
            rm.submit_points(AppId(app), profile(app)).unwrap();
        }
        let base = rm.option_sets_rebuilt();
        let out = rm.register(AppId(1000), "newcomer", false).unwrap();
        // The round still covers everyone ...
        assert_eq!(out.directives.len() as u64, residents + 1);
        // ... but builds the newcomer's option set only, at any population.
        assert_eq!(rm.option_sets_rebuilt(), base + 1, "{residents} residents");
        rm.submit_points(AppId(1000), profile(1000)).unwrap();
        assert_eq!(rm.option_sets_rebuilt(), base + 2, "{residents} residents");
        let out = rm.deregister(AppId(1000)).unwrap();
        assert_eq!(out.directives.len() as u64, residents);
        assert_eq!(rm.option_sets_rebuilt(), base + 2, "{residents} residents");
        assert_eq!(rm.round_cache_violations(), Vec::<String>::new());
    }
}
