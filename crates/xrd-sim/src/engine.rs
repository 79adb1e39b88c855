//! A minimal, deterministic discrete-event engine.
//!
//! Events of a user-chosen type `E` are scheduled at virtual times and
//! delivered to a handler in non-decreasing time order; ties break in
//! scheduling (FIFO) order, which keeps runs fully deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Discrete-event engine over event type `E`.
pub struct Engine<E> {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    seq: u64,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Fresh engine at time zero.
    pub fn new() -> Engine<E> {
        Engine {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule an event at an absolute virtual time (must not be in the
    /// past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Schedule an event after a delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock.
    pub fn next_event(&mut self) -> Option<E> {
        let Reverse(scheduled) = self.queue.pop()?;
        debug_assert!(scheduled.at >= self.now);
        self.now = scheduled.at;
        self.processed += 1;
        Some(scheduled.event)
    }

    /// Run until the queue is empty.  The handler may schedule further
    /// events through the engine reference it receives.
    pub fn run<F: FnMut(&mut Engine<E>, E)>(&mut self, mut handler: F) {
        while let Some(event) = self.next_event() {
            handler(self, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_delivered_in_time_order() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule_at(SimTime(30), 3);
        engine.schedule_at(SimTime(10), 1);
        engine.schedule_at(SimTime(20), 2);
        let mut seen = vec![];
        engine.run(|eng, e| {
            seen.push((eng.now().0, e));
        });
        assert_eq!(seen, vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut engine: Engine<u32> = Engine::new();
        for i in 0..10 {
            engine.schedule_at(SimTime(5), i);
        }
        let mut seen = vec![];
        engine.run(|_, e| seen.push(e));
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut engine: Engine<u64> = Engine::new();
        engine.schedule_at(SimTime(0), 0);
        let mut count = 0u64;
        engine.run(|eng, e| {
            count += 1;
            if e < 5 {
                eng.schedule_in(SimDuration(10), e + 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(engine.now(), SimTime(50));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_at(SimTime(10), ());
        engine.next_event();
        engine.schedule_at(SimTime(5), ());
    }

    #[test]
    fn clock_is_monotone() {
        let mut engine: Engine<u8> = Engine::new();
        engine.schedule_at(SimTime(5), 0);
        engine.schedule_at(SimTime(5), 1);
        engine.schedule_at(SimTime(7), 2);
        let mut last = SimTime::ZERO;
        engine.run(|eng, _| {
            assert!(eng.now() >= last);
            last = eng.now();
        });
    }
}
