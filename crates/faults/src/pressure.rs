//! Resource-pressure fault models: CPU exhaustion and fd leaks.
//!
//! The paper's single injected fault is a Weibull-stepped memory leak
//! ([`MemoryLeak`](crate::MemoryLeak)). These two models widen the
//! resource-fault surface the two-step
//! [`ResourceMonitor`](crate::ResourceMonitor) thresholds are exercised
//! against:
//!
//! * **CPU exhaustion** — consumed CPU fraction grows linearly with
//!   *time* (a runaway background computation): the interceptor advances
//!   it every [`PRESSURE_TICK`] and charges genuine simulated CPU so
//!   service degrades as the fraction climbs.
//! * **fd leak** — consumed descriptor-table fraction grows with each
//!   *client request* (a leaked socket per connection): the interceptor
//!   advances it from the request path.
//!
//! Each [`PressureKind`] carries its one rate, as the fault plan drew it.
//!
//! Both are deterministic (no RNG): the fraction is a pure function of
//! elapsed ticks / observed requests. Reaching 1.0 means the resource is
//! gone — the interceptor crashes the process, exactly like leak
//! exhaustion — but a correctly configured proactive scheme should have
//! rejuvenated the replica long before.

use simnet::{SimDuration, SimTime};

/// Cadence of the timer that advances a CPU ramp.
pub const PRESSURE_TICK: SimDuration = SimDuration::from_millis(100);

/// Which resource a [`PressureConfig`] exhausts, and how fast.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PressureKind {
    /// Time-driven CPU exhaustion.
    Cpu {
        /// Consumed-fraction growth per second of simulated time.
        ramp_per_sec: f64,
    },
    /// Request-driven file-descriptor leak.
    Fd {
        /// Consumed-fraction growth per observed client request.
        per_request: f64,
    },
}

impl PressureKind {
    /// Stable lower-case resource name, used as the `resource_pressure`
    /// trace tag.
    pub fn resource(self) -> &'static str {
        match self {
            PressureKind::Cpu { .. } => "cpu",
            PressureKind::Fd { .. } => "fd",
        }
    }
}

/// Configuration of one resource-pressure fault, carried by
/// `MeadConfig::pressure` into the server interceptor.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureConfig {
    /// Which resource is exhausted, at what rate.
    pub kind: PressureKind,
    /// Absolute simulation instant the pressure starts. Instances that
    /// start *after* this instant never activate — a freshly launched
    /// replacement replica does not inherit its predecessor's runaway
    /// computation.
    pub activate_at: SimTime,
}

/// Live state of one pressure fault inside a server interceptor.
#[derive(Clone, Debug)]
pub struct ResourcePressure {
    cfg: PressureConfig,
    fraction: f64,
    active: bool,
}

impl ResourcePressure {
    /// Creates the (inactive) model for `cfg`.
    pub fn new(cfg: PressureConfig) -> Self {
        ResourcePressure {
            cfg,
            fraction: 0.0,
            active: false,
        }
    }

    /// The configuration this model runs.
    pub fn config(&self) -> &PressureConfig {
        &self.cfg
    }

    /// Starts consuming the resource (the activation timer fired).
    pub fn activate(&mut self) {
        self.active = true;
    }

    /// Whether the pressure has been activated.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Consumed fraction of the resource, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.fraction.min(1.0)
    }

    /// Consumed fraction in permille (for trace events).
    pub fn permille(&self) -> u32 {
        (self.fraction().max(0.0) * 1000.0) as u32
    }

    /// Advances a CPU ramp by one tick; returns the new fraction.
    /// No-op (returns the current fraction) unless active and CPU-kind.
    pub fn on_tick(&mut self) -> f64 {
        match self.cfg.kind {
            PressureKind::Cpu { ramp_per_sec } if self.active => {
                self.fraction += ramp_per_sec * PRESSURE_TICK.as_secs_f64();
            }
            _ => {}
        }
        self.fraction()
    }

    /// Advances an fd leak by one observed client request; returns the
    /// new fraction. No-op unless active and fd-kind.
    pub fn on_request(&mut self) -> f64 {
        match self.cfg.kind {
            PressureKind::Fd { per_request } if self.active => self.fraction += per_request,
            _ => {}
        }
        self.fraction()
    }

    /// Whether the resource is fully consumed (the process must crash).
    pub fn exhausted(&self) -> bool {
        self.fraction >= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure(kind: PressureKind) -> ResourcePressure {
        ResourcePressure::new(PressureConfig {
            kind,
            activate_at: SimTime::from_millis(500),
        })
    }

    #[test]
    fn cpu_ramp_is_time_driven() {
        let mut p = pressure(PressureKind::Cpu { ramp_per_sec: 0.5 });
        assert_eq!(p.on_tick(), 0.0, "inactive models do not grow");
        p.activate();
        // 0.5/s at a 100 ms tick = 0.05 per tick.
        assert!((p.on_tick() - 0.05).abs() < 1e-12);
        assert_eq!(p.on_request(), p.fraction(), "requests do not grow cpu");
        for _ in 0..30 {
            p.on_tick();
        }
        assert!(p.exhausted(), "31 ticks at 0.05 exceed 1.0");
        assert_eq!(p.fraction(), 1.0, "reported fraction saturates");
    }

    #[test]
    fn fd_leak_is_request_driven() {
        let mut p = pressure(PressureKind::Fd { per_request: 0.25 });
        p.activate();
        assert_eq!(p.on_tick(), 0.0, "ticks do not grow fd");
        assert!((p.on_request() - 0.25).abs() < 1e-12);
        for _ in 0..3 {
            p.on_request();
        }
        assert!(p.exhausted());
    }

    #[test]
    fn permille_rounds_down_and_saturates() {
        let mut p = pressure(PressureKind::Fd {
            per_request: 0.2505,
        });
        p.activate();
        p.on_request();
        assert_eq!(p.permille(), 250);
        for _ in 0..10 {
            p.on_request();
        }
        assert_eq!(p.permille(), 1000);
    }
}
