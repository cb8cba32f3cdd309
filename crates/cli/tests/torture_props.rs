//! The torture harness over random seeds: every crash point of a random
//! scripted run recovers to the offline oracle's line.

use proptest::prelude::*;
use rdt_cli::torture::{run_torture, TortureOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash-point enumeration over a random scripted trace always
    /// yields a recovery line equal to the offline `rdt-ccp` oracle
    /// replaying the surviving prefix.
    #[test]
    fn crash_point_enumeration_matches_the_oracle(
        seed in 1000u64..9000,
        n in 2usize..4,
    ) {
        let opts = TortureOptions {
            n,
            events: 18,
            seed,
            max_crash_points: 24,
            fault_plans: 2,
            ..TortureOptions::default()
        };
        let report = run_torture(&opts).expect("harness runs");
        prop_assert!(
            report.passed(),
            "seed {seed}, n {n}: {:?}",
            report.failures
        );
    }
}
