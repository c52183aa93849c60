//! Property tests over the fault-plan generator: seed determinism,
//! crash-gap discipline and `settled_by` bounds hold for every seed and
//! every fault-mix combination, not just the hand-picked unit-test seeds.

use faults::{FaultMix, FaultPlan, PlanSpace, MIN_CRASH_GAP};
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};

/// The chaos topology's plan space (three replica slots, client node 4).
fn space() -> PlanSpace {
    PlanSpace {
        replica_slots: 3,
        nodes: 5,
        daemon_nodes: vec![1, 2, 3, 4],
        naming: true,
        rm_crashes: 1,
        partition_pairs: vec![(0, 4), (1, 4), (2, 4), (3, 4)],
        start: SimTime::from_millis(700),
        end: SimTime::from_millis(4_500),
    }
}

/// Decodes 11 fault-family flags from the low bits of `bits`, falling
/// back to the classic mix when every family came up disabled (the
/// generator rejects nothing, but an empty mix generates nothing worth
/// asserting over).
fn mix_from_bits(bits: u16) -> FaultMix {
    let mix = FaultMix {
        crashes: bits & (1 << 0) != 0,
        correlated: bits & (1 << 1) != 0,
        rolling: bits & (1 << 2) != 0,
        partitions: bits & (1 << 3) != 0,
        asymmetric: bits & (1 << 4) != 0,
        jitter: bits & (1 << 5) != 0,
        loss: bits & (1 << 6) != 0,
        flash_crowd: bits & (1 << 7) != 0,
        cpu: bits & (1 << 8) != 0,
        fd: bits & (1 << 9) != 0,
        leak: bits & (1 << 10) != 0,
    };
    if mix == FaultMix::none() {
        FaultMix::classic()
    } else {
        mix
    }
}

proptest! {
    /// The generator is a pure function of `(seed, space, mix)`.
    #[test]
    fn same_seed_same_plan(seed in any::<u64>(), bits in any::<u16>()) {
        let space = space();
        let mix = mix_from_bits(bits);
        let a = FaultPlan::generate_with(seed, &space, &mix);
        let b = FaultPlan::generate_with(seed, &space, &mix);
        prop_assert_eq!(a, b);
    }

    /// Every generated plan validates clean, and its crash instants —
    /// including the kills a rolling restart expands into — respect the
    /// minimum spacing the recovery bound relies on.
    #[test]
    fn generated_plans_validate_with_spaced_crashes(
        seed in any::<u64>(),
        bits in any::<u16>(),
    ) {
        let space = space();
        let plan = FaultPlan::generate_with(seed, &space, &mix_from_bits(bits));
        prop_assert!(plan.validate(&space).is_ok(), "plan: {plan:?}");
        let mut crashes: Vec<SimTime> = plan
            .events()
            .iter()
            .flat_map(|e| e.kind.crash_instants(e.at))
            .collect();
        crashes.sort();
        for w in crashes.windows(2) {
            prop_assert!(
                w[1] - w[0] >= MIN_CRASH_GAP,
                "crashes {:?} and {:?} too close",
                w[0],
                w[1]
            );
        }
    }

    /// `settled_by` covers every injection and every implied recovery,
    /// and stays within a finite bound of the fault window (the slowest
    /// tail is a rolling restart or a shallow CPU ramp, both bounded).
    #[test]
    fn settled_by_is_bounded(seed in any::<u64>(), bits in any::<u16>()) {
        let space = space();
        let plan = FaultPlan::generate_with(seed, &space, &mix_from_bits(bits));
        let settled = plan.settled_by();
        for e in plan.events() {
            prop_assert!(settled >= e.at);
        }
        prop_assert!(
            settled <= space.end + SimDuration::from_secs(10),
            "settled_by {settled:?} runs away"
        );
    }
}
