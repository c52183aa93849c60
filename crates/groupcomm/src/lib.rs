//! # groupcomm — totally-ordered group communication (Spread substitute)
//!
//! The paper's MEAD framework "exploits an underlying totally-ordered
//! reliable group communication system, specifically the Spread system, to
//! obtain the reliable delivery and ordering guarantees required for
//! consistent node-level and process-level membership" (section 3). This
//! crate rebuilds that substrate on the simulated network:
//!
//! * [`GcsDaemon`] — one daemon per node on the well-known port
//!   [`GCS_PORT`]; a fixed sequencer daemon imposes a single total order on
//!   all multicasts *and* membership changes,
//! * [`GcsClient`] — the embeddable client library processes use to join
//!   groups, receive views ([`GcsDelivery::View`]) and exchange ordered
//!   multicasts,
//! * crash-triggered membership: a member death is observed by its local
//!   daemon as EOF and turned into a view change — the notification the
//!   MEAD Recovery Manager launches replacement replicas from, and
//! * byte accounting of inter-daemon traffic under [`MESH_TAG`], measured
//!   by the paper's Figure 5.
//!
//! See `DESIGN.md` for the Spread-vs-sequencer substitution argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod daemon;
mod names;
mod wire;

pub use client::{GcsClient, GcsDelivery};
pub use daemon::{GcsConfig, GcsDaemon, GCS_PORT, MESH_TAG};
pub use giop::CodecError;
pub use wire::{GcsSplitter, GcsWire, MAX_FRAME};
