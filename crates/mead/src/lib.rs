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
//! * [`RecoveryScheme`]/[`MeadConfig`]/[`CostModel`] — the five strategies
//!   of Table 1 with the calibrated interceptor cost model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod directory;
mod intercept;
mod messages;
mod recovery;
mod replica;

pub use config::{CostModel, MeadConfig, MeadConfigBuilder, RecoveryScheme, UnknownScheme};
pub use directory::{
    replica_member_name, slot_of_member, MemberName, ReplicaDirectory, Slot, REPLICA_PREFIX,
};
pub use giop::{CodecError, WireCodec};
pub use intercept::client::ClientInterceptor;
pub use intercept::server::{CheckpointPayload, ServerInterceptor, StateHooks};
pub use intercept::tokens;
pub use messages::{FailoverNotice, GroupMsg};
pub use recovery::{RecoveryManager, ReplicaFactory, ReplicaSpec};
pub use replica::{time_object_key, ReplicaApp};

// Host-name mapping helpers shared with the ORB layer.
pub use orb::{host_of, node_of};
