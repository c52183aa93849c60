//! # orb — a minimal CORBA-like Object Request Broker
//!
//! The paper runs its evaluation over TAO, a full CORBA ORB. This crate
//! rebuilds exactly the ORB functionality MEAD's proactive recovery
//! machinery touches, over the simulated transport:
//!
//! * [`ClientOrb`] — connection caching, request-id correlation, and the
//!   native retransmission reactions to `LOCATION_FORWARD` and
//!   `NEEDS_ADDRESSING_MODE` replies that the proactive schemes trigger,
//!   plus the `COMM_FAILURE`/`TRANSIENT` exception mapping of the reactive
//!   baselines;
//! * [`ServerOrb`] + [`Servant`] — listener, object adapter, dispatch;
//! * [`NamingService`] — `bind`/`resolve`/`list` with costs calibrated to
//!   the paper's resolve spikes;
//! * [`TimeOfDayServant`] — the evaluation workload's servant — and
//!   [`CounterServant`] over a [`CounterState`], the one stateful
//!   application (at-most-once and read operations; the state is what
//!   warm-passive checkpoints carry).
//!
//! Everything is written against `simnet::SysApi`, so MEAD's interceptor
//! can interpose transparently under an *unmodified* ORB, exactly the
//! paper's library-interpositioning architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod exceptions;
mod naming;
mod retry;
mod servants;
mod server;

pub use client::{
    addr_of, host_of, node_of, ClientOrb, OrbUpshot, COMM_FAILURE_CPU, CONNECT_CPU,
    FORWARD_HOP_LIMIT,
};
pub use exceptions::{Completed, SystemException};
pub use naming::{
    decode_list_reply, decode_resolve_reply, encode_bind, encode_name, naming_ior, naming_key,
    NamingServant, NamingService, EX_NOT_FOUND, NAMING_PORT, NAMING_TYPE_ID,
};
pub use retry::RetryState;
pub use servants::{
    decode_counter_reply, decode_increment_once, decode_time_reply, encode_counter_reply,
    encode_increment_once, CounterServant, CounterState, TimeOfDayServant, COUNTER_TYPE_ID,
    TIME_TYPE_ID,
};
pub use server::{Servant, ServerOrb};
