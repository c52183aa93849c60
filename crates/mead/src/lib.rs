//! # mead — the paper's contribution: transparent proactive recovery
//!
//! Implements the proactive dependability framework of *Proactive Recovery
//! in Distributed CORBA Applications* (Pertet & Narasimhan, DSN 2004):
//!
//! * [`ServerInterceptor`] — the MEAD Interceptor + Proactive
//!   Fault-Tolerance Manager wrapped around an unmodified server process:
//!   socket classification, the injected memory leak, two-step threshold
//!   monitoring on the write path, replica adverts over group
//!   communication, and the server side of the three proactive schemes;
//! * [`ClientInterceptor`] — MEAD-frame stripping, `dup2()`-style
//!   connection redirection, EOF suppression + group address query for the
//!   `NEEDS_ADDRESSING_MODE` scheme;
//! * [`RecoveryManager`] — launches replacement replicas on membership
//!   changes and proactive fault notifications;
//! * [`ReplicaApp`] — the unmodified replicated time-of-day server;
//! * [`RecoveryScheme`]/[`MeadConfig`]/[`Trigger`] — the five strategies
//!   of Table 1 and what a run decides about them. The interceptors'
//!   calibrated costs are constants beside the code that charges them
//!   (DESIGN §7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod directory;
mod intercept;
mod messages;
mod recovery;
mod replica;

pub use config::{MeadConfig, MeadConfigBuilder, RecoveryScheme, Trigger, UnknownScheme};
pub use directory::{
    replica_member_name, slot_of_member, MemberName, ReplicaDirectory, Slot, REPLICA_PREFIX,
    SERVER_GROUP,
};
pub use giop::CodecError;
pub use intercept::client::{ClientInterceptor, REDIRECT_CPU};
pub use intercept::common::FABRICATE_CPU;
pub use intercept::server::{
    CheckpointPayload, ServerInterceptor, StateHooks, ADDRESS_REPLY_CPU, GIOP_PARSE_CPU,
};
pub use intercept::tokens;
pub use messages::{FailoverNotice, GroupMsg};
pub use recovery::{RecoveryManager, ReplicaFactory, ReplicaSpec};
pub use replica::{time_object_key, ReplicaApp};

// Host-name mapping helpers shared with the ORB layer.
pub use orb::{host_of, node_of};
