//! Environment-equivalence properties: moving the engine onto the
//! `rdt-env` runtime abstraction (`SimEnv`: virtual clock, event queue
//! and deterministic rng behind the `Clock`/`Transport`/`Rng` traits)
//! must be invisible to every observable of a simulation.
//!
//! Two properties pin this:
//!
//! 1. For the committed golden scenarios, a fresh `SimEnv` run is
//!    **byte-identical** (full canonical dump: trace, metrics, occupancy,
//!    recovery sessions) to the fingerprint recorded from the pre-refactor
//!    engine — randomly sampled here so shrinking lands on the smallest
//!    diverging scenario, and pinned exhaustively by `replay_golden`.
//! 2. For *arbitrary* fixed-seed configurations, two runs through the
//!    trait boundary are byte-identical — the abstraction introduces no
//!    hidden nondeterminism (wall-clock, iteration order, shared state).

use proptest::prelude::*;

use rdt_core::GcKind;
use rdt_protocols::ProtocolKind;
use rdt_recovery::RecoveryMode;
use rdt_workloads::Pattern;

mod common;
use common::{canonical_dump, fingerprint, golden_fingerprints, run, scenarios, Scenario};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A `SimEnv` run of any golden scenario reproduces the committed
    /// pre-refactor fingerprint byte-for-byte.
    #[test]
    fn sim_env_run_is_byte_identical_to_the_pre_refactor_golden(idx in 0usize..5) {
        let scenario = &scenarios()[idx];
        let golden = golden_fingerprints();
        let (name, want) = &golden[idx];
        prop_assert_eq!(name.as_str(), scenario.name, "scenario order drifted");
        let got = fingerprint(&canonical_dump(&run(scenario)));
        prop_assert_eq!(
            &got,
            want,
            "{}: SimEnv run diverged from the pre-refactor engine",
            name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary fixed-seed configurations replay byte-identically through
    /// the environment traits.
    #[test]
    fn arbitrary_fixed_seed_runs_replay_byte_identically(
        n in 2usize..7,
        steps in 50usize..400,
        seed in 0u64..u64::MAX,
        proto in 0usize..4,
        gc in 0usize..4,
        pattern in 0usize..3,
        crash in 0.0f64..0.03,
        loss in 0.0f64..0.15,
    ) {
        let scenario = Scenario {
            name: "arbitrary",
            n,
            steps,
            seed,
            protocol: [
                ProtocolKind::Fdas,
                ProtocolKind::Cas,
                ProtocolKind::Fdi,
                ProtocolKind::Mrs,
            ][proto],
            gc: [
                GcKind::RdtLgc,
                GcKind::None,
                GcKind::WangGlobal,
                GcKind::TimeBased { horizon: 100 },
            ][gc],
            pattern: [Pattern::UniformRandom, Pattern::Ring, Pattern::TokenRing][pattern],
            crash,
            correlated: 0.2,
            loss,
            control_every: None,
            mode: RecoveryMode::Coordinated,
        };
        let a = canonical_dump(&run(&scenario));
        let b = canonical_dump(&run(&scenario));
        prop_assert_eq!(a, b, "a fixed seed must replay byte-identically");
    }
}
