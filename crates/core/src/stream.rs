//! Streaming reliability monitoring for deployed systems.
//!
//! The paper motivates PolygraphMR with mission-critical, *streaming*
//! workloads (pedestrian identification, steering-command generation). In
//! deployment, the per-input verdicts carry a second, aggregate signal: a
//! sustained spike in the unreliable-rate means the input distribution has
//! drifted away from what the ensemble was trained on (fog on the
//! windshield, a sensor failing) and the vehicle should degrade to a safe
//! mode. [`ReliabilityMonitor`] tracks the flag rate over a sliding window
//! and raises an alarm when it crosses a threshold calibrated from the
//! validation flag rate.
//!
//! State transitions are surfaced through [`pgmr_obs`]: the monitor bumps
//! `monitor.quarantines_total` and emits `monitor.quarantine`,
//! `monitor.alarm`, and `monitor.recovered` events on the global registry.

use crate::decision::Verdict;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Health of the prediction stream, as judged by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamHealth {
    /// Not enough samples in the window yet.
    WarmingUp,
    /// Flag rate is within the calibrated band.
    Healthy,
    /// Flag rate crossed the alarm threshold — the input distribution
    /// likely drifted; downstream logic should degrade safely.
    Degraded,
}

/// Sliding-window monitor over reliability verdicts.
///
/// # Example
///
/// ```
/// use polygraph_mr::stream::{ReliabilityMonitor, StreamHealth};
/// use polygraph_mr::Verdict;
///
/// let mut monitor = ReliabilityMonitor::new(4, 0.5);
/// for _ in 0..4 {
///     monitor.observe(&Verdict::Reliable { class: 0, votes: 3 });
/// }
/// assert_eq!(monitor.health(), StreamHealth::Healthy);
/// for _ in 0..4 {
///     monitor.observe(&Verdict::Unreliable { class: None, votes: 0 });
/// }
/// assert_eq!(monitor.health(), StreamHealth::Degraded);
/// ```
#[derive(Debug, Clone)]
pub struct ReliabilityMonitor {
    window: VecDeque<bool>, // true = flagged unreliable
    capacity: usize,
    alarm_rate: f64,
    /// Degraded→Healthy hysteresis: once the alarm fires, the windowed
    /// flag rate must fall to this level before health recovers.
    recovery_rate: f64,
    /// Alarm latch for the hysteresis band.
    degraded: bool,
    total_seen: u64,
    total_flagged: u64,
    /// Quarantine events surfaced by the system.
    quarantines: u64,
}

impl ReliabilityMonitor {
    /// Creates a monitor over the last `window` verdicts that alarms when
    /// the windowed flag rate reaches `alarm_rate`. The recovery threshold
    /// defaults to half the alarm rate (see
    /// [`ReliabilityMonitor::with_recovery`]).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or `alarm_rate` is outside `(0, 1]`.
    pub fn new(window: usize, alarm_rate: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            alarm_rate > 0.0 && alarm_rate <= 1.0,
            "alarm rate must be in (0, 1], got {alarm_rate}"
        );
        ReliabilityMonitor {
            window: VecDeque::with_capacity(window),
            capacity: window,
            alarm_rate,
            recovery_rate: alarm_rate / 2.0,
            degraded: false,
            total_seen: 0,
            total_flagged: 0,
            quarantines: 0,
        }
    }

    /// Sets the Degraded→Healthy recovery threshold. Once the alarm has
    /// fired, health stays `Degraded` until the windowed flag rate falls
    /// to `recovery_rate` — without hysteresis a stream hovering at the
    /// alarm line would flap between states on every verdict.
    ///
    /// # Panics
    ///
    /// Panics if `recovery_rate` is negative or above the alarm rate.
    pub fn with_recovery(mut self, recovery_rate: f64) -> Self {
        assert!(
            (0.0..=self.alarm_rate).contains(&recovery_rate),
            "recovery rate must be in [0, alarm_rate], got {recovery_rate}"
        );
        self.recovery_rate = recovery_rate;
        self
    }

    /// Default floor for calibrated alarm thresholds: no matter how clean
    /// validation was, the stream must flag at least this fraction of a
    /// window before the monitor alarms. See
    /// [`ReliabilityMonitor::calibrated`].
    pub const DEFAULT_MIN_ALARM_RATE: f64 = 0.05;

    /// Calibrates the alarm threshold from an expected (validation-time)
    /// flag rate with a multiplicative margin: `alarm = expected * margin`,
    /// clamped to `[DEFAULT_MIN_ALARM_RATE, 1]`. A margin of 3 alarms when
    /// the stream flags 3× more often than validation did.
    ///
    /// The floor matters when validation flagged nothing: without it a
    /// zero expected rate would collapse the threshold to an epsilon and a
    /// *single* flagged verdict in any window would alarm immediately —
    /// a hair trigger, not a drift detector. With the default floor of
    /// [`ReliabilityMonitor::DEFAULT_MIN_ALARM_RATE`] (5%), at least 5% of
    /// a window must flag. Use
    /// [`ReliabilityMonitor::calibrated_with_floor`] to choose the minimum
    /// explicitly.
    pub fn calibrated(window: usize, expected_flag_rate: f64, margin: f64) -> Self {
        Self::calibrated_with_floor(
            window,
            expected_flag_rate,
            margin,
            Self::DEFAULT_MIN_ALARM_RATE,
        )
    }

    /// [`ReliabilityMonitor::calibrated`] with an explicit minimum alarm
    /// rate: `alarm = (expected * margin).clamp(min_alarm_rate, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `min_alarm_rate` is outside `(0, 1]` (the resulting alarm
    /// rate must satisfy [`ReliabilityMonitor::new`]'s contract).
    pub fn calibrated_with_floor(
        window: usize,
        expected_flag_rate: f64,
        margin: f64,
        min_alarm_rate: f64,
    ) -> Self {
        assert!(
            min_alarm_rate > 0.0 && min_alarm_rate <= 1.0,
            "minimum alarm rate must be in (0, 1], got {min_alarm_rate}"
        );
        let rate = (expected_flag_rate * margin).clamp(min_alarm_rate, 1.0);
        ReliabilityMonitor::new(window, rate)
    }

    /// Feeds one verdict; returns the updated health.
    pub fn observe(&mut self, verdict: &Verdict) -> StreamHealth {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(!verdict.is_reliable());
        self.total_seen += 1;
        if !verdict.is_reliable() {
            self.total_flagged += 1;
        }
        let rate = self.windowed_flag_rate();
        if self.window.len() == self.capacity {
            if rate >= self.alarm_rate {
                self.latch_degraded();
            } else if rate <= self.recovery_rate {
                self.clear_degraded(rate);
            }
            // Rates inside the hysteresis band leave the latch unchanged.
        } else if self.degraded && rate <= self.recovery_rate {
            // A quarantine latched the monitor before the window first
            // filled. The latch is re-evaluated on every observation:
            // clean partial-window evidence is allowed to clear it rather
            // than pinning the stream degraded until the window fills.
            self.clear_degraded(rate);
        }
        self.health()
    }

    fn latch_degraded(&mut self) {
        if !self.degraded {
            self.degraded = true;
            pgmr_obs::global().emit(
                "monitor.alarm",
                // pgmr-lint: allow(hot-path-alloc): formats only on the degraded->alarm edge transition, never in per-image steady state
                format!("rate={:.4} seen={}", self.windowed_flag_rate(), self.total_seen),
            );
        }
    }

    fn clear_degraded(&mut self, rate: f64) {
        if self.degraded {
            self.degraded = false;
            pgmr_obs::global()
                // pgmr-lint: allow(hot-path-alloc): formats only on the alarm->recovered edge transition, never in per-image steady state
                .emit("monitor.recovered", format!("rate={rate:.4} seen={}", self.total_seen));
        }
    }

    /// Records that the system quarantined a member. The stream is marked
    /// degraded until the windowed flag rate proves the shrunk ensemble
    /// still healthy (it must fall to the recovery threshold) — partial
    /// windows count, so a quarantine during warm-up does not pin the
    /// stream degraded until the window fills.
    pub fn note_quarantine(&mut self, member: usize) {
        self.quarantines += 1;
        let obs = pgmr_obs::global();
        obs.counter("monitor.quarantines_total").inc();
        // pgmr-lint: allow(hot-path-alloc): runs once per quarantine event, and a system quarantines each member at most once
        obs.emit("monitor.quarantine", format!("member={member} seen={}", self.total_seen));
        self.degraded = true;
    }

    /// Number of quarantine events observed so far.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Flag rate over the current window.
    pub fn windowed_flag_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().filter(|&&f| f).count() as f64 / self.window.len() as f64
    }

    /// Lifetime flag rate over everything observed.
    pub fn lifetime_flag_rate(&self) -> f64 {
        if self.total_seen == 0 {
            return 0.0;
        }
        self.total_flagged as f64 / self.total_seen as f64
    }

    /// Current health. `WarmingUp` until the window fills once, unless a
    /// quarantine or alarm has already latched the monitor degraded.
    /// After an alarm, `Healthy` returns only once the windowed flag rate
    /// falls to the recovery threshold (hysteresis).
    pub fn health(&self) -> StreamHealth {
        if self.degraded {
            StreamHealth::Degraded
        } else if self.window.len() < self.capacity {
            StreamHealth::WarmingUp
        } else if self.windowed_flag_rate() >= self.alarm_rate {
            StreamHealth::Degraded
        } else {
            StreamHealth::Healthy
        }
    }

    /// Total verdicts observed.
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reliable() -> Verdict {
        Verdict::Reliable { class: 1, votes: 3 }
    }

    fn flagged() -> Verdict {
        Verdict::Unreliable { class: Some(1), votes: 1 }
    }

    #[test]
    fn warms_up_then_reports_health() {
        let mut m = ReliabilityMonitor::new(3, 0.5);
        assert_eq!(m.observe(&reliable()), StreamHealth::WarmingUp);
        assert_eq!(m.observe(&reliable()), StreamHealth::WarmingUp);
        assert_eq!(m.observe(&reliable()), StreamHealth::Healthy);
    }

    #[test]
    fn alarm_fires_on_flag_burst_and_recovers() {
        let mut m = ReliabilityMonitor::new(4, 0.5);
        for _ in 0..4 {
            m.observe(&reliable());
        }
        assert_eq!(m.health(), StreamHealth::Healthy);
        m.observe(&flagged());
        m.observe(&flagged());
        assert_eq!(m.health(), StreamHealth::Degraded);
        // Window slides back to healthy as reliable verdicts return.
        for _ in 0..4 {
            m.observe(&reliable());
        }
        assert_eq!(m.health(), StreamHealth::Healthy);
    }

    #[test]
    fn rates_are_tracked() {
        let mut m = ReliabilityMonitor::new(2, 0.9);
        m.observe(&flagged());
        m.observe(&reliable());
        m.observe(&reliable());
        assert_eq!(m.total_seen(), 3);
        assert!((m.lifetime_flag_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.windowed_flag_rate(), 0.0);
    }

    #[test]
    fn hysteresis_band_holds_degraded_after_alarm() {
        // Alarm at 0.75, recover only at 0.25: a windowed rate of 0.5 is
        // inside the band and must preserve whichever state we are in.
        let mut m = ReliabilityMonitor::new(4, 0.75).with_recovery(0.25);
        for _ in 0..4 {
            m.observe(&reliable());
        }
        // Rate 0.5 without a prior alarm: healthy.
        m.observe(&flagged());
        m.observe(&flagged());
        assert_eq!(m.health(), StreamHealth::Healthy);
        // Push over the alarm line, then back into the band.
        m.observe(&flagged());
        assert_eq!(m.health(), StreamHealth::Degraded);
        m.observe(&reliable());
        m.observe(&reliable());
        // Window now [flagged, flagged, reliable, reliable] → rate 0.5,
        // but the latch holds.
        assert!((m.windowed_flag_rate() - 0.5).abs() < 1e-12);
        assert_eq!(m.health(), StreamHealth::Degraded);
        // Falling to the recovery threshold (0.25) clears it.
        m.observe(&reliable());
        assert_eq!(m.health(), StreamHealth::Healthy);
    }

    #[test]
    fn recovery_happens_at_or_below_recovery_rate() {
        let mut m = ReliabilityMonitor::new(4, 0.75).with_recovery(0.25);
        for _ in 0..3 {
            m.observe(&flagged());
        }
        m.observe(&reliable());
        assert_eq!(m.health(), StreamHealth::Degraded);
        // Drain flags until the windowed rate reaches 0.25 exactly.
        m.observe(&reliable());
        m.observe(&reliable());
        assert!((m.windowed_flag_rate() - 0.25).abs() < 1e-12);
        assert_eq!(m.health(), StreamHealth::Healthy);
    }

    #[test]
    fn quarantine_marks_stream_degraded_until_recovery() {
        let mut m = ReliabilityMonitor::new(3, 0.9).with_recovery(0.0);
        m.observe(&flagged());
        m.note_quarantine(1);
        assert_eq!(m.quarantines(), 1);
        // Even while warming up, a quarantined member is a degraded system,
        // and a flag in the partial window keeps it that way.
        assert_eq!(m.health(), StreamHealth::Degraded);
        m.observe(&flagged());
        assert_eq!(m.health(), StreamHealth::Degraded);
        // Clean verdicts push the flags out of the window (rate 0 <=
        // recovery), clearing the latch.
        for _ in 0..3 {
            m.observe(&reliable());
        }
        assert_eq!(m.health(), StreamHealth::Healthy);
    }

    #[test]
    fn quarantine_during_warm_up_recovers_before_window_fills() {
        // Regression: the latch used to be re-evaluated only once the
        // window was full, so an early quarantine on a large window pinned
        // the stream degraded for the first `window` verdicts no matter
        // how clean they were.
        let mut m = ReliabilityMonitor::new(1000, 0.9).with_recovery(0.0);
        m.observe(&reliable());
        m.note_quarantine(2);
        assert_eq!(m.health(), StreamHealth::Degraded);
        m.observe(&reliable());
        // Partial window of clean verdicts already proves recovery.
        assert_eq!(m.health(), StreamHealth::WarmingUp);
        assert_eq!(m.quarantines(), 1);
    }

    #[test]
    fn calibration_scales_validation_rate() {
        let m = ReliabilityMonitor::calibrated(10, 0.1, 3.0);
        assert!((m.alarm_rate - 0.3).abs() < 1e-12);
        // Extreme margins clamp into (0, 1].
        let clamped = ReliabilityMonitor::calibrated(10, 0.9, 5.0);
        assert!(clamped.alarm_rate <= 1.0);
    }

    #[test]
    fn zero_validation_rate_is_not_a_hair_trigger() {
        // Regression: a spotless validation run used to clamp the alarm
        // threshold to 1e-6, so one flagged verdict in any window alarmed
        // immediately. The documented floor keeps the threshold at a
        // meaningful fraction of the window.
        let mut m = ReliabilityMonitor::calibrated(40, 0.0, 3.0);
        assert!(
            (m.alarm_rate - ReliabilityMonitor::DEFAULT_MIN_ALARM_RATE).abs() < 1e-12,
            "zero expected rate must clamp to the documented floor, got {}",
            m.alarm_rate
        );
        for _ in 0..39 {
            m.observe(&reliable());
        }
        // A single flag in the 40-wide window: rate 1/40 = 0.025 < 0.05.
        m.observe(&flagged());
        assert_eq!(m.health(), StreamHealth::Healthy, "single flag must not alarm");
        // A second flag reaches the 5% floor and alarms.
        m.observe(&flagged());
        assert_eq!(m.health(), StreamHealth::Degraded);
    }

    #[test]
    fn explicit_floor_is_respected() {
        let m = ReliabilityMonitor::calibrated_with_floor(10, 0.0, 3.0, 0.25);
        assert!((m.alarm_rate - 0.25).abs() < 1e-12);
        // A measured rate above the floor passes through unchanged.
        let m = ReliabilityMonitor::calibrated_with_floor(10, 0.2, 2.0, 0.25);
        assert!((m.alarm_rate - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "minimum alarm rate")]
    fn rejects_zero_floor() {
        ReliabilityMonitor::calibrated_with_floor(10, 0.1, 3.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_zero_window() {
        ReliabilityMonitor::new(0, 0.5);
    }
}
