//! One model for every resource fault a replica carries: the paper's
//! memory leak (section 5.1, [`MemoryLeak`]) and a fault plan's CPU
//! exhaustion or fd leak ([`PressureConfig`]). Each is the consumed
//! fraction of one resource, which grows once the fault is armed, feeds
//! the two-step [`ResourceMonitor`](crate::ResourceMonitor) thresholds
//! and at 1.0 is the crash point. The leak arms on the first client
//! request and grows by a Weibull chunk every [`LEAK_INTERVAL`] (a tick
//! that runs from the replica's start); a CPU ramp arms at its instant
//! and grows by its rate every [`PRESSURE_TICK`] from then, stealing CPU
//! as it climbs; an fd leak arms at its instant and grows by its rate per
//! client request. A replica started after a fault's instant never arms
//! it. The CPU and fd faults draw no random numbers.

use rand::Rng;
use simnet::{SimDuration, SimTime};

use crate::memleak::{LeakConfig, MemoryLeak, LEAK_INTERVAL};

/// Cadence of the tick that advances a CPU ramp.
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

/// A fault plan's CPU ramp or fd leak, carried by `MeadConfig::pressure`
/// into the server interceptor.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureConfig {
    /// Which resource is exhausted, at what rate.
    pub kind: PressureKind,
    /// Absolute simulation instant the fault arms at.
    pub activate_at: SimTime,
}

/// The live state of one resource fault inside a server interceptor.
#[derive(Clone, Debug)]
pub struct ResourceFault(Fault);

/// A CPU or fd fault's `used` is its consumed fraction, unclamped and
/// `None` until armed; `decile` is the highest one
/// [`ResourceFault::new_decile`] has reported.
#[derive(Clone, Debug)]
enum Fault {
    Memory(MemoryLeak),
    Pressure {
        cfg: PressureConfig,
        used: Option<f64>,
        decile: u32,
    },
}

impl ResourceFault {
    /// The paper's leak, armed by the replica's first client request.
    pub fn leak(cfg: LeakConfig) -> Self {
        ResourceFault(Fault::Memory(MemoryLeak::new(cfg)))
    }

    /// A plan's CPU ramp or fd leak, armed at `cfg.activate_at`.
    pub fn pressure(cfg: PressureConfig) -> Self {
        ResourceFault(Fault::Pressure {
            cfg,
            used: None,
            decile: 0,
        })
    }

    /// Stable lower-case name of the resource: the `resource_pressure`
    /// trace tag and the subject of the exhaustion crash's reason.
    pub fn name(&self) -> &'static str {
        match &self.0 {
            Fault::Memory(_) => "memory",
            Fault::Pressure { cfg, .. } => match cfg.kind {
                PressureKind::Cpu { .. } => "cpu",
                PressureKind::Fd { .. } => "fd",
            },
        }
    }

    /// The instant the fault arms at; `None` for the leak.
    pub fn arm_at(&self) -> Option<SimTime> {
        match &self.0 {
            Fault::Memory(_) => None,
            Fault::Pressure { cfg, .. } => Some(cfg.activate_at),
        }
    }

    /// The delay from `now` to the fault's next timer: a plan's fault
    /// first fires at its instant, to arm, then on its tick; the leak's
    /// tick runs from the replica's start, armed or not. `None` for an
    /// armed fd leak, which only requests grow.
    pub fn next_timer(&self, now: SimTime) -> Option<SimDuration> {
        match &self.0 {
            Fault::Memory(_) => Some(LEAK_INTERVAL),
            Fault::Pressure {
                cfg, used: None, ..
            } => Some(cfg.activate_at - now),
            Fault::Pressure { cfg, .. } => match cfg.kind {
                PressureKind::Cpu { .. } => Some(PRESSURE_TICK),
                PressureKind::Fd { .. } => None,
            },
        }
    }

    /// Starts consuming the resource.
    pub fn arm(&mut self) {
        match &mut self.0 {
            Fault::Memory(leak) => leak.activate(),
            Fault::Pressure { used, .. } => *used = Some(0.0),
        }
    }

    /// Whether the fault has been armed.
    pub fn is_armed(&self) -> bool {
        match &self.0 {
            Fault::Memory(leak) => leak.is_active(),
            Fault::Pressure { used, .. } => used.is_some(),
        }
    }

    /// Advances an armed leak by a Weibull chunk, or an armed CPU ramp by
    /// its rate for one [`PRESSURE_TICK`]. Returns the CPU the ramp steals
    /// from the replica in this tick, so service degrades as it climbs.
    pub fn tick<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<SimDuration> {
        match &mut self.0 {
            Fault::Memory(leak) => _ = leak.step(rng),
            Fault::Pressure { cfg, used, .. } => {
                if let (PressureKind::Cpu { ramp_per_sec }, Some(used)) = (cfg.kind, used) {
                    *used += ramp_per_sec * PRESSURE_TICK.as_secs_f64();
                    let stolen = PRESSURE_TICK.as_nanos() as f64 * used.min(1.0) * 0.25;
                    return Some(SimDuration::from_nanos(stolen as u64));
                }
            }
        }
        None
    }

    /// Advances an armed fd leak by one observed client request; returns
    /// whether the resource grew.
    pub fn on_request(&mut self) -> bool {
        if let Fault::Pressure { cfg, used, .. } = &mut self.0 {
            if let (PressureKind::Fd { per_request }, Some(used)) = (cfg.kind, used) {
                *used += per_request;
                return true;
            }
        }
        false
    }

    /// Consumed fraction of the resource, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        match &self.0 {
            Fault::Memory(leak) => leak.fraction(),
            Fault::Pressure { used, .. } => used.unwrap_or(0.0).min(1.0),
        }
    }

    /// Whether the resource is fully consumed: the process must crash.
    pub fn is_exhausted(&self) -> bool {
        match &self.0 {
            Fault::Memory(leak) => leak.is_exhausted(),
            Fault::Pressure { used, .. } => used.is_some_and(|u| u >= 1.0),
        }
    }

    /// The fraction in permille, when a CPU or fd fault has reached a
    /// decile not reported before: the `resource_pressure` trace marks
    /// decile crossings, not every step, and the leak's trace is its
    /// arming alone (`leak_detected`).
    pub fn new_decile(&mut self) -> Option<u32> {
        let permille = (self.fraction().max(0.0) * 1000.0) as u32;
        let Fault::Pressure { decile, .. } = &mut self.0 else {
            return None;
        };
        (permille / 100 > *decile).then(|| {
            *decile = permille / 100;
            permille
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pressure(kind: PressureKind) -> ResourceFault {
        ResourceFault::pressure(PressureConfig {
            kind,
            activate_at: SimTime::from_millis(500),
        })
    }

    #[test]
    fn cpu_ramp_is_time_driven() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = pressure(PressureKind::Cpu { ramp_per_sec: 0.5 });
        assert_eq!(p.tick(&mut rng), None);
        assert_eq!(p.fraction(), 0.0, "unarmed faults do not grow");
        p.arm();
        // 0.5/s at a 100 ms tick = 0.05 per tick, a quarter of which
        // (1.25 ms of the 100 ms tick) is stolen.
        assert_eq!(p.tick(&mut rng), Some(SimDuration::from_micros(1250)));
        assert!((p.fraction() - 0.05).abs() < 1e-12);
        assert!(!p.on_request(), "requests do not grow cpu");
        for _ in 0..30 {
            p.tick(&mut rng);
        }
        assert!(p.is_exhausted(), "31 ticks at 0.05 exceed 1.0");
        assert_eq!(p.fraction(), 1.0, "reported fraction saturates");
    }

    #[test]
    fn fd_leak_is_request_driven() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut p = pressure(PressureKind::Fd { per_request: 0.25 });
        assert!(!p.on_request(), "unarmed faults do not grow");
        p.arm();
        assert_eq!(p.tick(&mut rng), None);
        assert_eq!(p.fraction(), 0.0, "ticks do not grow fd");
        assert!(p.on_request());
        assert!((p.fraction() - 0.25).abs() < 1e-12);
        for _ in 0..3 {
            p.on_request();
        }
        assert!(p.is_exhausted());
    }

    #[test]
    fn the_leak_arms_on_a_request_and_steps_on_its_tick() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut leak = ResourceFault::leak(LeakConfig::default());
        assert_eq!(leak.arm_at(), None);
        assert_eq!(leak.next_timer(SimTime::ZERO), Some(LEAK_INTERVAL));
        leak.tick(&mut rng);
        assert_eq!(leak.fraction(), 0.0, "an unarmed leak does not step");
        leak.arm();
        assert_eq!(leak.tick(&mut rng), None, "a leak steals no CPU");
        assert!(leak.fraction() > 0.0);
        assert!(!leak.on_request(), "requests do not grow memory");
        assert_eq!(leak.new_decile(), None, "the leak's fill is not traced");
        while !leak.is_exhausted() {
            leak.tick(&mut rng);
        }
        assert_eq!(leak.fraction(), 1.0);
    }

    #[test]
    fn each_decile_is_reported_once_rounding_down_and_saturating() {
        let mut p = pressure(PressureKind::Fd {
            per_request: 0.2505,
        });
        assert_eq!(p.new_decile(), None, "nothing consumed yet");
        p.arm();
        p.on_request();
        assert_eq!(p.new_decile(), Some(250));
        assert_eq!(p.new_decile(), None, "already reported");
        for _ in 0..10 {
            p.on_request();
        }
        assert_eq!(p.new_decile(), Some(1000));
    }
}
