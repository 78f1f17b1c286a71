//! The closed loop that runs every workload's ops.

use crate::stats::{LatencyHistogram, PercentileError};
use crate::trace::{Span, Tracer, NO_PARENT};
use std::time::{Duration, Instant};

/// Windows a timed phase is split into for the median latency (see
/// [`Phase::p50_ns`]).
pub const WINDOWS: usize = 20;

/// What one caller's timed phase measured.
pub struct Phase {
    /// Every op's latency from its call to its answer; failed ops rank last.
    pub latency: LatencyHistogram,
    /// The same, per window of the phase, by when the answer arrived (an
    /// answer after the deadline counts in the last window).
    pub windows: Vec<LatencyHistogram>,
    /// Wall time from the phase's start to its last answer.
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl Phase {
    fn new() -> Self {
        Self {
            latency: LatencyHistogram::default(),
            windows: vec![LatencyHistogram::default(); WINDOWS],
            elapsed_s: 0.0,
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
        }
    }

    /// Merges callers that ran at the same time, re-basing span parent
    /// indices so each caller's trees stay intact.
    pub fn merge(parts: Vec<Phase>) -> Phase {
        let mut out = Phase::new();
        for p in parts {
            out.latency.merge(&p.latency);
            for (a, b) in out.windows.iter_mut().zip(&p.windows) {
                a.merge(b);
            }
            out.elapsed_s = out.elapsed_s.max(p.elapsed_s);
            out.attempted += p.attempted;
            out.failed += p.failed;
            let base = out.spans.len() as u32;
            out.spans.extend(p.spans.iter().map(|s| Span {
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..*s
            }));
        }
        out
    }

    /// Completed ops ÷ timed wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.elapsed_s
    }

    /// The median latency: the mean over windows of each window's median
    /// (windows too thin for a median are left out). The shared host
    /// alternates fast and slow phases of seconds to a minute; a whole-run
    /// median jumps from one phase's value to the other's as the fast share
    /// of a run crosses one half, while this moves in proportion to it.
    pub fn p50_ns(&self) -> Result<f64, PercentileError> {
        let p50s: Vec<f64> = self
            .windows
            .iter()
            .filter_map(|w| w.quantile(0.5).ok())
            .collect();
        if p50s.is_empty() {
            return self.latency.quantile(0.5);
        }
        Ok(p50s.iter().sum::<f64>() / p50s.len() as f64)
    }

    /// Turns a recorded op into a failed one.
    pub fn fail(&mut self, op: Recorded) {
        self.latency.fail_recorded(op.ns);
        self.windows[op.window].fail_recorded(op.ns);
        self.failed += 1;
    }
}

/// Handed to each op: its id, the tracer, and a way to mark when the
/// answer arrived (work after the mark, such as the traced run's replay,
/// is excluded from the op's latency).
pub struct Op<'a> {
    pub id: u32,
    pub tracer: &'a mut Tracer,
    start: Instant,
    window_s: f64,
    sent: Instant,
    answered: Option<Instant>,
}

/// Where an op's latency is recorded (if it passes), so a check made
/// after the phase can turn it into a failure ([`Phase::fail`]).
#[derive(Clone, Copy)]
pub struct Recorded {
    pub window: usize,
    pub ns: u64,
}

impl Op<'_> {
    /// Marks the answer's arrival now.
    pub fn answered(&mut self) -> Recorded {
        let now = Instant::now();
        self.answered = Some(now);
        self.recorded(now)
    }

    fn recorded(&self, answered: Instant) -> Recorded {
        let window = ((answered - self.start).as_secs_f64() / self.window_s) as usize;
        Recorded {
            window: window.min(WINDOWS - 1),
            ns: (answered - self.sent).as_nanos() as u64,
        }
    }
}

/// Runs `op` back to back until `seconds` have passed since `start` or
/// the tracer cannot hold another `spans_per_op` spans. `op` returns
/// whether its answer passed the workload's correctness gate.
pub fn closed_loop(
    start: Instant,
    seconds: f64,
    tracer: &mut Tracer,
    spans_per_op: usize,
    mut op: impl FnMut(&mut Op<'_>) -> bool,
) -> Phase {
    let deadline = start + Duration::from_secs_f64(seconds);
    let window_s = seconds / WINDOWS as f64;
    let mut phase = Phase::new();
    let mut id = 0u32;
    loop {
        let sent = Instant::now();
        if sent >= deadline || !tracer.has_room(spans_per_op) {
            break;
        }
        let mut ctx = Op {
            id,
            tracer: &mut *tracer,
            start,
            window_s,
            sent,
            answered: None,
        };
        let ok = op(&mut ctx);
        let at = ctx.recorded(ctx.answered.unwrap_or_else(Instant::now));
        phase.attempted += 1;
        if ok {
            phase.latency.record(at.ns);
            phase.windows[at.window].record(at.ns);
        } else {
            phase.failed += 1;
            phase.latency.record_failed();
            phase.windows[at.window].record_failed();
        }
        id += 1;
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_latency_averages_the_window_medians() {
        let mut p = Phase::new();
        for _ in 0..21 {
            p.windows[0].record(100); // below 256 ns buckets are exact
            p.windows[1].record(200);
        }
        p.windows[2].record(5); // too thin for a median: left out
        assert_eq!(p.p50_ns(), Ok((100.5 + 200.5) / 2.0));
    }
}
