//! Property tests for the discrete-event engine: ordering, determinism,
//! and conservation invariants under arbitrary schedules.

use proptest::prelude::*;
use xrd_sim::{Engine, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events are always delivered in non-decreasing time order with
    /// FIFO tie-breaking, regardless of insertion order.
    #[test]
    fn delivery_is_time_ordered(times in prop::collection::vec(0u64..1000, 1..50)) {
        let mut engine: Engine<(u64, usize)> = Engine::new();
        for (seq, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime(t), (t, seq));
        }
        let mut seen: Vec<(u64, usize)> = Vec::new();
        let mut clock_ok = true;
        engine.run(|eng, e| {
            clock_ok &= eng.now() == SimTime(e.0);
            seen.push(e);
        });
        prop_assert!(clock_ok, "clock must equal each event's schedule time");
        prop_assert_eq!(seen.len(), times.len());
        for pair in seen.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO violated");
            }
        }
    }

    /// Every scheduled event (including ones scheduled from handlers) is
    /// delivered exactly once.
    #[test]
    fn conservation_with_cascades(seeds in prop::collection::vec(0u64..100, 1..20)) {
        let mut engine: Engine<u64> = Engine::new();
        for &s in &seeds {
            engine.schedule_at(SimTime(s), s);
        }
        let mut delivered = 0u64;
        let mut spawned = seeds.len() as u64;
        engine.run(|eng, e| {
            delivered += 1;
            // Each event below 50 spawns a follow-up.
            if e < 50 {
                eng.schedule_in(SimDuration(e + 1), e + 50);
                spawned += 1;
            }
        });
        prop_assert_eq!(delivered, spawned);
        prop_assert_eq!(engine.events_processed(), delivered);
        prop_assert_eq!(engine.pending(), 0);
    }
}
