//! The replicated-counter application's client side: its object key and
//! the one hardened client every counter run uses (`SlotClient`, told
//! what to do by a `Job`). The chaos executor (`crate::chaos`) runs it
//! against replicas with state — real checkpoint-based state transfer,
//! an extension beyond the paper's stateless evaluation workload (see
//! `DESIGN.md` §8).

use giop::{Ior, ObjectKey};
use mead::RecoveryManager;
use orb::{decode_resolve_reply, encode_name, naming_ior, ClientOrb, OrbUpshot, RetryState};
use simnet::{Event, NodeId, Process, SimDuration, SysApi};

/// The persistent key of the replicated counter object.
pub fn counter_key() -> ObjectKey {
    ObjectKey::persistent("CounterPOA", "Counter")
}

/// Timer tokens of the slot client (the interceptor namespace starts at
/// `1 << 62`, far above these).
const TOKEN_THINK: u64 = 1;
const TOKEN_RETRY: u64 = 2;
/// Watchdog tokens encode the watched request id: `WATCHDOG_BASE + rid`.
const WATCHDOG_BASE: u64 = 1_000_000;
/// In-flight invocation watchdog: longer than any single honest delay a
/// fault plan can impose (max partition 500 ms + queueing), shorter than
/// the recovery bound.
pub(crate) const WATCHDOG: SimDuration = SimDuration::from_millis(800);

/// What a [`SlotClient`] is run for: which requests it sends and what
/// their acknowledgement, completion and abandonment mean to the caller.
/// Two jobs exist, both in `chaos`: the measured client and a
/// flash-crowd arrival.
pub(crate) trait Job: 'static {
    /// Whether retries are traced: an `obs::EventKind::Retry` per backoff
    /// and a `chaos.client_watchdog` count per expired watchdog.
    const TRACED: bool = false;

    /// The next request — operation and body — or `None` once the work
    /// is complete. Asked again for every retry, so it must keep
    /// answering the same request until that one is acknowledged.
    fn next(&mut self) -> Option<(&'static str, Vec<u8>)>;

    /// Records the acknowledgement of the request `next` last described
    /// and says how long to pause before the following one (`None`: go
    /// on at once).
    fn acknowledged(&mut self, sys: &mut dyn SysApi, payload: &[u8]) -> Option<SimDuration>;

    /// The work is complete (`next` answered `None`).
    fn complete(&mut self, sys: &mut dyn SysApi);

    /// The retry budget is spent: the typed give-up.
    fn give_up(&mut self, sys: &mut dyn SysApi);
}

/// The hardened counter client: resolves `replicas/slot{n}` at the Naming
/// Service, invokes its job's requests one at a time, and on any failure
/// drops the reference, rotates to the next slot and retries after a
/// capped jittered backoff (the job's typed give-up once the budget is
/// spent). A watchdog per in-flight request means nothing can hang
/// silently: something is always scheduled.
pub(crate) struct SlotClient<J: Job> {
    label: String,
    job: J,
    orb: ClientOrb,
    naming_node: NodeId,
    slots: u32,
    slot: u32,
    watchdog: SimDuration,
    target: Option<Ior>,
    naming_rid: Option<u32>,
    current_rid: Option<u32>,
    retry: RetryState,
}

impl<J: Job> SlotClient<J> {
    /// A client labelled `label` that starts at `first_slot` of `slots`
    /// and gives every request `watchdog` to be answered.
    pub(crate) fn new(
        label: &str,
        job: J,
        naming_node: NodeId,
        slots: u32,
        first_slot: u32,
        watchdog: SimDuration,
    ) -> Self {
        let slots = slots.max(1);
        SlotClient {
            label: label.to_string(),
            job,
            orb: ClientOrb::new(),
            naming_node,
            slots,
            slot: first_slot % slots,
            watchdog,
            target: None,
            naming_rid: None,
            current_rid: None,
            retry: RetryState::new(),
        }
    }

    fn resolve(&mut self, sys: &mut dyn SysApi) {
        let name = RecoveryManager::slot_binding(mead::Slot(self.slot));
        match self.orb.invoke(
            sys,
            &naming_ior(self.naming_node),
            "resolve",
            &encode_name(&name),
        ) {
            Ok(rid) => {
                self.naming_rid = Some(rid);
                sys.set_timer(self.watchdog, WATCHDOG_BASE + rid as u64);
            }
            Err(_) => self.backoff(sys),
        }
    }

    fn fire(&mut self, sys: &mut dyn SysApi) {
        let Some((operation, body)) = self.job.next() else {
            self.job.complete(sys);
            return;
        };
        let Some(target) = &self.target else {
            self.backoff(sys);
            return;
        };
        match self.orb.invoke(sys, target, operation, &body) {
            Ok(rid) => {
                self.current_rid = Some(rid);
                sys.set_timer(self.watchdog, WATCHDOG_BASE + rid as u64);
            }
            Err(_) => self.fail_over(sys),
        }
    }

    /// The slot's replica failed us: forget its reference and try the
    /// next slot after a backoff. A retry always re-resolves.
    fn fail_over(&mut self, sys: &mut dyn SysApi) {
        self.slot = (self.slot + 1) % self.slots;
        self.target = None;
        self.backoff(sys);
    }

    /// Schedules the next attempt after a jittered backoff delay, or
    /// hands the job its typed give-up when the budget is spent.
    fn backoff(&mut self, sys: &mut dyn SysApi) {
        match self.retry.next_delay(sys.rng()) {
            Some(delay) => {
                if J::TRACED {
                    sys.emit(obs::EventKind::Retry {
                        attempt: self.retry.attempts(),
                        delay_ns: delay.as_nanos(),
                    });
                }
                sys.set_timer(delay, TOKEN_RETRY);
            }
            None => self.job.give_up(sys),
        }
    }

    fn on_watchdog(&mut self, sys: &mut dyn SysApi, rid: u32) {
        let invocation = Some(rid) == self.current_rid;
        if !invocation && Some(rid) != self.naming_rid {
            return; // answered in time
        }
        if J::TRACED {
            sys.count("chaos.client_watchdog", 1);
        }
        if invocation {
            self.current_rid = None;
            self.fail_over(sys);
        } else {
            self.naming_rid = None;
            self.backoff(sys);
        }
    }
}

impl<J: Job> Process for SlotClient<J> {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.resolve(sys);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::TimerFired { token, .. } = ev {
            match token {
                TOKEN_THINK => self.fire(sys),
                TOKEN_RETRY => self.resolve(sys),
                t if t >= WATCHDOG_BASE => self.on_watchdog(sys, (t - WATCHDOG_BASE) as u32),
                _ => {}
            }
            return;
        }
        let Some(upshots) = self.orb.handle_event(sys, &ev) else {
            return;
        };
        for upshot in upshots {
            let (rid, reply) = match upshot {
                OrbUpshot::Reply {
                    request_id,
                    payload,
                    ..
                } => (request_id, Some(payload)),
                OrbUpshot::Exception { request_id, .. } => (request_id, None),
                _ => continue,
            };
            if Some(rid) == self.naming_rid {
                self.naming_rid = None;
                match reply.as_deref().map(decode_resolve_reply) {
                    Some(Ok(ior)) => {
                        self.target = Some(ior);
                        self.retry.reset();
                        self.fire(sys);
                    }
                    _ => self.fail_over(sys),
                }
            } else if Some(rid) == self.current_rid {
                self.current_rid = None;
                match reply {
                    Some(payload) => {
                        let pause = self.job.acknowledged(sys, &payload);
                        self.retry.reset();
                        match pause {
                            Some(pause) => {
                                sys.set_timer(pause, TOKEN_THINK);
                            }
                            None => self.fire(sys),
                        }
                    }
                    None => self.fail_over(sys),
                }
            }
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}
