//! Property tests over the gating mechanism: FSM residency conservation,
//! token-manager guarantees, controller contracts.

#![deny(unused)]

use proptest::prelude::*;

use mapg::{Controller, ControllerConfig, GatingFsm, PolicyKind, TokenManager};
use mapg_cpu::{CoreId, StallCause, StallHandler, StallInfo};
use mapg_units::{Cycle, Cycles};

proptest! {
    #[test]
    fn fsm_residency_partitions_time(
        spans in prop::collection::vec((1u64..50, 1u64..30, 1u64..500, 1u64..40), 1..50)
    ) {
        // Random sequence of (active, entry, sleep, wake) spans.
        let mut fsm = GatingFsm::new();
        let mut t = 0u64;
        for &(active, entry, sleep, wake) in &spans {
            t += active;
            fsm.begin_entry(Cycle::new(t));
            t += entry;
            fsm.begin_sleep(Cycle::new(t));
            t += sleep;
            fsm.begin_wake(Cycle::new(t));
            t += wake;
            fsm.complete_wake(Cycle::new(t));
        }
        fsm.finish(Cycle::new(t));
        let residency = *fsm.residency();
        prop_assert_eq!(residency.total(), Cycles::new(t));
        prop_assert_eq!(fsm.sleep_count(), spans.len() as u64);
        let sleep_sum: u64 = spans.iter().map(|s| s.2).sum();
        prop_assert_eq!(residency.sleeping, Cycles::new(sleep_sum));
    }

    #[test]
    fn token_manager_never_exceeds_capacity_and_never_starves(
        capacity in 1usize..8,
        requests in prop::collection::vec((0u64..10_000, 1u64..100), 1..200)
    ) {
        let mut tokens = TokenManager::new(capacity);
        let mut grants: Vec<(u64, u64)> = Vec::new();
        for &(ready, duration) in &requests {
            let start =
                tokens.acquire(Cycle::new(ready), Cycles::new(duration));
            prop_assert!(start.raw() >= ready, "granted before ready");
            grants.push((start.raw(), start.raw() + duration));
        }
        prop_assert_eq!(tokens.grants(), requests.len() as u64);
        prop_assert!(tokens.peak_concurrency() <= capacity);
        // Independent sweep-line check: at no instant are more than
        // `capacity` grant intervals simultaneously active.
        let mut events: Vec<(u64, i32)> = Vec::new();
        for &(s, e) in &grants {
            events.push((s, 1));
            events.push((e, -1));
        }
        events.sort_by_key(|&(t, delta)| (t, delta)); // ends (-1) before starts at the same instant
        let mut live = 0i32;
        for (t, delta) in events {
            live += delta;
            prop_assert!(
                live as usize <= capacity,
                "{} concurrent grants at t={} with capacity {}",
                live,
                t,
                capacity
            );
        }
    }

    #[test]
    fn controller_always_resumes_at_or_after_data(
        stalls in prop::collection::vec((1u64..2_000, 0u64..64), 1..200),
        policy_index in 0usize..7,
    ) {
        let policy = PolicyKind::COMPARISON_SET[policy_index];
        let mut controller = Controller::new(
            policy.instantiate(),
            ControllerConfig::baseline(),
        );
        let mut t = 1_000u64;
        for &(duration, pc) in &stalls {
            let info = StallInfo {
                core: CoreId(0),
                start: Cycle::new(t),
                data_ready: Cycle::new(t + duration),
                pc: 0x400 + pc * 4,
                outstanding: 1,
                cause: StallCause::Dependency,
            };
            let resume = controller.on_stall(&info);
            prop_assert!(resume >= info.data_ready, "{}", policy.name());
            t = resume.raw() + 10;
        }
        prop_assert_eq!(
            controller.stats().stalls,
            stalls.len() as u64
        );
        prop_assert!(controller.stats().gated <= controller.stats().stalls);
        prop_assert!(
            controller.energy().total().as_joules() >= 0.0
        );
    }

    #[test]
    fn oracle_policy_never_pays_penalty(
        stalls in prop::collection::vec(1u64..5_000, 1..300),
    ) {
        let mut controller = Controller::new(
            PolicyKind::MapgOracle.instantiate(),
            ControllerConfig::baseline(),
        );
        let mut t = 0u64;
        for &duration in &stalls {
            let info = StallInfo {
                core: CoreId(0),
                start: Cycle::new(t),
                data_ready: Cycle::new(t + duration),
                pc: 0x400,
                outstanding: 1,
                cause: StallCause::MlpLimit,
            };
            let resume = controller.on_stall(&info);
            prop_assert_eq!(
                resume,
                info.data_ready,
                "oracle must hide all latency"
            );
            t = resume.raw() + 5;
        }
        prop_assert_eq!(controller.stats().penalty_cycles, 0);
        prop_assert_eq!(controller.stats().overrun_wakes, 0);
    }

    #[test]
    fn gated_cycles_bounded_by_stall_time(
        stalls in prop::collection::vec(1u64..3_000, 1..200),
    ) {
        let mut controller = Controller::new(
            PolicyKind::NaiveOnMiss.instantiate(),
            ControllerConfig::baseline(),
        );
        let mut total_stall = 0u64;
        let mut t = 0u64;
        for &duration in &stalls {
            let info = StallInfo {
                core: CoreId(0),
                start: Cycle::new(t),
                data_ready: Cycle::new(t + duration),
                pc: 0x8,
                outstanding: 1,
                cause: StallCause::MlpLimit,
            };
            let resume = controller.on_stall(&info);
            total_stall += (resume - Cycle::new(t)).raw();
            t = resume.raw() + 1;
        }
        prop_assert!(
            controller.stats().gated_cycles <= total_stall,
            "slept longer than stalled"
        );
    }
}
