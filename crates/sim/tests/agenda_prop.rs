//! Property: an injector checkpointed in the middle of its plan resumes
//! exactly where it stopped.
//!
//! `InjectorState` holds the plan, the RNG cursor, the down map, the
//! drop log and the durable captures — not the agenda cursor and not
//! the list of windows in force. Those are rebuilt by
//! `FaultInjector::seek` from the round the injector is next asked to
//! apply: the cursor by binary search, the windows by replaying the
//! open/close steps before it. This property swaps the live injector for
//! one rebuilt from its own (JSON round-tripped) state at a random round
//! of a sampled campaign plan — mid-window, mid-downtime, between a
//! capture and its crash, wherever the draw lands — in both schedule
//! modes, and requires everything the plan can influence to match the
//! uninterrupted run: the `Fault` event stream, every round's
//! `RoundStats`, the injector's RNG cursor and drop log, and the final
//! state.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use swn_sim::chaos::{sample_scenario, CampaignConfig, Scenario};
use swn_sim::faults::{FaultInjector, InjectorState};
use swn_sim::obs::{flight::FlightRecorder, Event};
use swn_sim::trace::RoundStats;
use swn_sim::ScheduleMode;

/// Everything the fault plan can influence, for comparison.
type Run = (Vec<Event>, Vec<RoundStats>, InjectorState, String);

/// Runs `s` for its horizon plus 30 rounds; with `swap_at = Some(k)` the
/// injector is replaced after round `k` by one rebuilt from its state.
fn run(s: &Scenario, mode: ScheduleMode, swap_at: Option<u64>) -> Run {
    let mut net = s.build();
    net.set_schedule_mode(mode);
    let (sink, records) = FlightRecorder::new(1 << 16);
    net.attach_sink(Box::new(sink), 1);
    net.attach_faults(s.plan.clone());
    for round in 0..s.horizon() + 30 {
        if swap_at == Some(round) {
            let state = net.detach_faults().expect("attached").state();
            let json = serde_json::to_string(&state).expect("state serializes");
            let state = serde_json::from_str(&json).expect("state parses back");
            net.attach_injector(FaultInjector::from_state(state).expect("valid plan"));
        }
        net.step();
    }
    let records = records.lock().expect("records");
    let faults = records.iter().map(|r| r.event.clone());
    (
        faults
            .filter(|e| matches!(e, Event::Fault { .. }))
            .collect(),
        net.trace().rounds().to_vec(),
        net.fault_injector().expect("attached").state(),
        format!("{:?}", net.snapshot()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resumed_injector_replays_the_uninterrupted_run(
        seed in 0u64..1_000_000_000,
        cut in 0u64..1_000,
        active_set in any::<bool>(),
    ) {
        let cfg = CampaignConfig {
            seed,
            scenarios: 1,
            min_n: 8,
            max_n: 64,
            budget: 0,
        };
        let s = sample_scenario(&mut StdRng::seed_from_u64(seed), &cfg);
        let mode = if active_set {
            ScheduleMode::ActiveSet
        } else {
            ScheduleMode::FullScan
        };
        // Anywhere from before the first round to just past the horizon.
        let swap_at = cut % (s.horizon() + 2);
        let whole = run(&s, mode, None);
        let resumed = run(&s, mode, Some(swap_at));
        prop_assert!(
            whole == resumed,
            "resume after round {swap_at} diverged ({mode:?}) — scenario: {}",
            s.to_json()
        );
    }
}
