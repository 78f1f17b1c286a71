//! Bounded ring-buffer event log for rare, operationally significant events.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Well-known event kinds. Components emit these so operators and tests can
/// match on a stable, machine-readable tag instead of scraping stderr.
pub mod event_kind {
    /// A checkpoint failed to decode and was renamed out of the store.
    pub const CHECKPOINT_QUARANTINED: &str = "hub.quarantine";
    /// A served query's forward pass panicked; the query failed with
    /// `BellamyError::BatchPanicked`.
    pub const LOOP_PANIC: &str = "serve.panic";
    /// A deterministic failpoint fired an injected fault.
    pub const FAULT_INJECTED: &str = "fault.injected";
}

/// One logged event. `seq` is a process-wide monotonic sequence number
/// (gaps mean the ring evicted older entries); `elapsed_us` is microseconds
/// since [`process_start`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub elapsed_us: u64,
    pub kind: &'static str,
    pub detail: String,
}

/// A bounded ring buffer of [`Event`]s. Recording takes a mutex and may
/// allocate — this log is for rare events (quarantines, panics, injected
/// faults), never for the per-query hot path.
pub struct EventLog {
    capacity: usize,
    seq: AtomicU64,
    inner: Mutex<VecDeque<Event>>,
}

impl EventLog {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// Append an event, evicting the oldest entry if the ring is full.
    /// Returns the event's sequence number.
    pub fn record(&self, kind: &'static str, detail: impl Into<String>) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            elapsed_us: process_start().elapsed().as_micros().min(u64::MAX as u128) as u64,
            kind,
            detail: detail.into(),
        };
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
        seq
    }

    /// Copy of the retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Number of events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained events (sequence numbers keep advancing).
    pub fn clear(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

const GLOBAL_EVENT_CAPACITY: usize = 256;

static EVENTS: OnceLock<EventLog> = OnceLock::new();
static START: OnceLock<Instant> = OnceLock::new();

/// The process-global event log (capacity 256).
pub fn events() -> &'static EventLog {
    EVENTS.get_or_init(|| EventLog::with_capacity(GLOBAL_EVENT_CAPACITY))
}

/// The instant telemetry was first touched; event timestamps are relative
/// to this.
pub fn process_start() -> Instant {
    *START.get_or_init(Instant::now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_sequence() {
        let log = EventLog::with_capacity(3);
        for i in 0..5 {
            log.record(event_kind::FAULT_INJECTED, format!("e{i}"));
        }
        assert_eq!(log.total(), 5);
        assert_eq!(log.len(), 3);
        let kept = log.recent();
        assert_eq!(
            kept.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(kept[0].detail, "e2");
        // Timestamps are monotonically non-decreasing.
        assert!(kept.windows(2).all(|w| w[0].elapsed_us <= w[1].elapsed_us));
    }

    #[test]
    fn clear_retains_sequence_counter() {
        let log = EventLog::with_capacity(8);
        log.record(event_kind::LOOP_PANIC, "boom");
        log.clear();
        assert!(log.is_empty());
        let seq = log.record(event_kind::FAULT_INJECTED, "again");
        assert_eq!(seq, 1);
    }

    #[test]
    fn global_log_exists() {
        let before = events().total();
        events().record(event_kind::FAULT_INJECTED, "test");
        assert!(events().total() > before);
    }
}
