//! What a fleet costs in memory, as exact byte counts.
//!
//! A fleet client is meant to cost what it holds: per-connection tables
//! sized to their one or two entries, no receive buffer while nothing is
//! queued, one shared MEAD configuration, and no bookkeeping left behind
//! by a refused connection. A fleet is meant to cost one group: each group
//! is folded into a few numbers the moment its simulation ends. Neither
//! shows in any digest or functional test when it regresses, so the live
//! heap is pinned here — and, unlike wall time on a shared host, it
//! repeats exactly at a given seed.
//!
//! The counting allocator is `tests/common`'s, which counts per thread,
//! so the harness running the other test in parallel does not disturb it.

mod common;

use experiments::{run_fleet, FleetConfig, FleetOutcome};
use mead::RecoveryScheme;

const CLIENTS: u32 = 200;

/// A one-thread fleet of `groups` groups of [`CLIENTS`] clients at seed
/// 42, and how far it grew this thread's live heap at its highest.
fn peak_of(groups: u32) -> (FleetOutcome, u64) {
    let cfg = FleetConfig {
        groups,
        ..FleetConfig::new(RecoveryScheme::MeadFailover, CLIENTS)
    };
    let (out, spent) = common::tally(|| run_fleet(&cfg, 1));
    assert_eq!(out.groups_completed, groups, "every group completes");
    (out, spent.peak)
}

/// A client of a 200-client group costs what it holds. The parent of the
/// change that wrote this test peaked at 14 897 bytes a client: B-tree
/// leaves with room for eleven streams, connections and requests where a
/// client holds one or two, a 128-byte deque in every receive queue ever
/// used, a B-tree set per one-name GCS group and a copy of the MEAD
/// configuration per client.
#[test]
fn a_fleet_client_costs_what_it_holds() {
    /// Ten per cent above the 8 762 bytes a client this measured when
    /// written.
    const BUDGET_PER_CLIENT: u64 = 9_638;

    let (_, peak) = peak_of(1);
    let per_client = peak / u64::from(CLIENTS);
    assert!(
        per_client <= BUDGET_PER_CLIENT,
        "a {CLIENTS}-client group peaked at {peak} live bytes, {per_client} a client \
         (budget {BUDGET_PER_CLIENT})"
    );
}

/// Four groups cost about one: a finished group leaves its rollup behind
/// and nothing else. The parent of the change that wrote this test kept
/// every group's full outcome until the last group ended, and peaked at
/// 1.152 times one group (1.0003 when this was written).
#[test]
fn a_fleet_costs_one_group() {
    let (one, one_peak) = peak_of(1);
    let (four, four_peak) = peak_of(4);
    assert_eq!(one.group_digests[0], four.group_digests[0]);
    assert!(
        four_peak * 100 <= one_peak * 115,
        "four groups peaked at {four_peak} live bytes, one at {one_peak} \
         (allowed: 1.15 times)"
    );
}
