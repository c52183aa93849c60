//! Fleet-scale scenarios: thousands of client processes hammering a
//! replicated server group under each recovery scheme.
//!
//! The paper evaluates a single client against one three-way replicated
//! server. The fleet family scales that shape along two axes:
//!
//! * **clients per group** — one simulation hosts `clients` concurrent
//!   client processes (spread over several client nodes, 64 per node)
//!   driving the same warm-passively replicated server group through the
//!   full recovery machinery (leaks, threshold crossings, migrations or
//!   fail-overs, Naming re-resolution);
//! * **replica groups** — a fleet scenario is `groups` *independent*
//!   replica groups, each its own deterministic single-threaded
//!   simulation with a seed derived from the fleet seed (and the safety
//!   deadline [`run_scenario`] derives from its client count). Groups share
//!   nothing, so [`run_fleet`] fans them across worker threads with
//!   [`run_batch_with`] — the within-one-scenario counterpart of the
//!   across-scenario parallelism of
//!   [`run_batch`](crate::runner::run_batch) — and the fleet digest is
//!   bit-identical at every thread count.
//!
//! Throughput of this family is the kernel-bound workload the slab/
//! timing-wheel kernel (DESIGN §11) is measured against: tens of
//! thousands of live processes, endpoints and timers make every O(log n)
//! table walk visible.
//!
//! Memory is the other axis that scales with the fleet: a group's
//! simulation holds every client's state until it ends, and nothing of it
//! afterwards — each group is folded into a `GroupRollup` the moment its
//! simulation finishes, so a fleet of `n` groups peaks at about the heap
//! of one (DESIGN §11, "What a fleet client costs").

use std::time::Duration;

use mead::RecoveryScheme;

use crate::cli::{
    check_thread_independence, nonzero, positional_or, run_command, take_flag, take_switch,
    take_threads, CliError,
};
use crate::pins::Components;
use crate::runner::run_batch_with;
use crate::scenario::{run_scenario, ScenarioConfig};

/// Parameters of one fleet scenario.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Recovery strategy under test.
    pub scheme: RecoveryScheme,
    /// Master seed; each group derives its own seed from it.
    pub seed: u64,
    /// Independent replica groups (each one simulation).
    pub groups: u32,
    /// Concurrent client processes per group.
    pub clients: u32,
    /// Logical invocations per client.
    pub invocations: u32,
}

impl FleetConfig {
    /// The default fleet shape: 4 independent groups of `clients`
    /// clients, 5 invocations each (every group replicates its server
    /// three ways, as the paper does).
    pub fn new(scheme: RecoveryScheme, clients: u32) -> Self {
        FleetConfig {
            scheme,
            seed: 42,
            groups: 4,
            clients,
            invocations: 5,
        }
    }

    /// The short fixed shape of `fleet --smoke`: 2 groups of 32 clients,
    /// 3 invocations each.
    pub fn smoke(scheme: RecoveryScheme) -> Self {
        FleetConfig {
            groups: 2,
            invocations: 3,
            ..FleetConfig::new(scheme, 32)
        }
    }
}

/// SplitMix64 step — the standard 64-bit seed expander. Group seeds must
/// be decorrelated (group 0 of seed 43 must not collide with group 1 of
/// seed 42), which a plain `seed + group` offset would not give.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-group scenario configurations of a fleet, in group order.
pub fn group_configs(cfg: &FleetConfig) -> Vec<ScenarioConfig> {
    (0..cfg.groups.max(1))
        .map(|g| ScenarioConfig {
            seed: splitmix64(cfg.seed ^ (u64::from(g) << 32)),
            clients: cfg.clients,
            ..ScenarioConfig::quick(cfg.scheme, cfg.invocations)
        })
        .collect()
}

/// What a fleet keeps of one group once its simulation has ended.
#[derive(Clone, Debug)]
struct GroupRollup {
    components: Components,
    events: u64,
    completed_invocations: u64,
    client_failures: u64,
    server_failures: u64,
    completed: bool,
    wall: Duration,
}

impl GroupRollup {
    /// Runs one group and folds its outcome; the outcome itself — trace,
    /// metrics, every client's records — is dropped before this returns.
    fn run(cfg: &ScenarioConfig) -> GroupRollup {
        let out = run_scenario(cfg);
        let mut rollup = GroupRollup {
            components: out.components(),
            events: out.events_processed,
            completed_invocations: 0,
            client_failures: 0,
            server_failures: out.server_failures(),
            completed: true,
            wall: out.wall,
        };
        for report in &out.all_reports {
            rollup.completed_invocations += report.records.len() as u64;
            rollup.client_failures += u64::from(report.client_failures());
            rollup.completed &= report.completed;
        }
        rollup
    }
}

/// Everything a fleet run produced, aggregated over its groups.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// Per-group outcome components, in group order.
    pub groups: Vec<Components>,
    /// Per-group outcome digests (each the fold of its `groups` entry),
    /// in group order.
    pub group_digests: Vec<u64>,
    /// Kernel events dispatched, summed over groups.
    pub total_events: u64,
    /// Completed invocations, summed over every client of every group.
    pub completed_invocations: u64,
    /// Client-visible failures (COMM_FAILURE + TRANSIENT), summed.
    pub client_failures: u64,
    /// Server-side failures (exhaustion crashes + rejuvenations), summed.
    pub server_failures: u64,
    /// Groups whose every client completed the workload.
    pub groups_completed: u32,
    /// Wall-clock dispatch time summed over groups (the single-thread
    /// equivalent cost; not deterministic, excluded from the digest).
    pub wall: Duration,
}

impl FleetOutcome {
    /// The fleet's parts: each of its groups' parts, folded across the
    /// groups ([`Components::batch`]).
    pub fn components(&self) -> Components {
        Components::batch(
            "groups",
            self.groups
                .iter()
                .enumerate()
                .map(|(g, c)| ((g as u64).to_le_bytes(), c)),
        )
    }

    /// The fold of [`components`](Self::components) — the fleet
    /// counterpart of
    /// [`ScenarioOutcome::digest`](crate::ScenarioOutcome::digest).
    /// Bit-identical across thread counts.
    pub fn digest(&self) -> u64 {
        self.components().digest()
    }

    /// Wall-clock nanoseconds of kernel time per completed invocation
    /// (0.0 when none completed). Unlike events per second it compares
    /// across kernel changes that dispatch the same work in fewer events.
    pub fn ns_per_invocation(&self) -> f64 {
        if self.completed_invocations == 0 {
            return 0.0;
        }
        self.wall.as_nanos() as f64 / self.completed_invocations as f64
    }

    fn from_groups(groups: Vec<GroupRollup>) -> FleetOutcome {
        let mut fleet = FleetOutcome {
            groups: Vec::with_capacity(groups.len()),
            group_digests: Vec::with_capacity(groups.len()),
            total_events: 0,
            completed_invocations: 0,
            client_failures: 0,
            server_failures: 0,
            groups_completed: 0,
            wall: Duration::ZERO,
        };
        for group in groups {
            fleet.group_digests.push(group.components.digest());
            fleet.groups.push(group.components);
            fleet.total_events += group.events;
            fleet.wall += group.wall;
            fleet.server_failures += group.server_failures;
            fleet.completed_invocations += group.completed_invocations;
            fleet.client_failures += group.client_failures;
            fleet.groups_completed += u32::from(group.completed);
        }
        fleet
    }
}

/// Runs every group of the fleet on up to `threads` workers and
/// aggregates. Groups are independent simulations, so the outcome — and
/// its digest — is bit-identical for every `threads` value. Each worker
/// folds a group as soon as its simulation ends, so at most `threads`
/// simulations are alive at once.
pub fn run_fleet(cfg: &FleetConfig, threads: usize) -> FleetOutcome {
    let configs = group_configs(cfg);
    let groups = run_batch_with(&configs, threads, GroupRollup::run);
    FleetOutcome::from_groups(groups)
}

/// `mead-repro fleet [--threads N] [--smoke] [--scheme KEY] [clients]`:
/// runs the fleet under one recovery scheme (a [`RecoveryScheme::key`],
/// default `mead_failover`; `clients` defaults to 1000 per group,
/// `--smoke` is the short fixed-shape CI configuration), reports kernel
/// throughput and checks that the fleet digest is bit-identical at 1, 2
/// and N worker threads. Exit status 1 when any thread count disagrees.
pub fn cli_main(args: &[String]) -> i32 {
    run_command(args, |mut args| {
        let threads = take_threads(&mut args)?;
        let smoke = take_switch(&mut args, "--smoke");
        let scheme = match take_flag(&mut args, "--scheme")? {
            Some(key) => key
                .parse()
                .map_err(|e: mead::UnknownScheme| CliError::Usage(e.to_string()))?,
            None => RecoveryScheme::MeadFailover,
        };
        let clients = nonzero("clients", positional_or(&args, 1000)?)?;
        let cfg = if smoke {
            FleetConfig::smoke(scheme)
        } else {
            FleetConfig::new(scheme, clients)
        };
        println!(
            "fleet: scheme={:?} groups={} clients/group={} invocations={} seed={}",
            cfg.scheme, cfg.groups, cfg.clients, cfg.invocations, cfg.seed
        );
        let mut thread_counts = vec![1, 2];
        if threads > 2 {
            thread_counts.push(threads);
        }
        Ok(check_thread_independence(
            "fleet",
            &thread_counts,
            |threads| {
                let out = run_fleet(&cfg, threads);
                let digest = out.digest();
                println!(
                    "  threads={threads}: digest {:016x}, {} events, {} invocations done, \
                 {} groups complete, {:.0} ns/invocation",
                    digest,
                    out.total_events,
                    out.completed_invocations,
                    out.groups_completed,
                    out.ns_per_invocation()
                );
                digest
            },
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            groups: 2,
            clients: 8,
            invocations: 3,
            ..FleetConfig::new(RecoveryScheme::MeadFailover, 8)
        }
    }

    #[test]
    fn group_seeds_are_distinct_and_deterministic() {
        let cfg = tiny();
        let a = group_configs(&cfg);
        let b = group_configs(&cfg);
        assert_eq!(a.len(), 2);
        assert_ne!(a[0].seed, a[1].seed);
        assert_eq!(a[0].seed, b[0].seed);
        assert_eq!(a[1].seed, b[1].seed);
    }

    #[test]
    fn every_group_hosts_the_fleet_clients() {
        let cfg = FleetConfig::new(RecoveryScheme::LocationForward, 200);
        let groups = group_configs(&cfg);
        assert!(groups.iter().all(|g| g.clients == 200));
    }

    #[test]
    fn fleet_digest_is_identical_across_thread_counts() {
        let cfg = tiny();
        let one = run_fleet(&cfg, 1);
        let four = run_fleet(&cfg, 4);
        assert_eq!(one.digest(), four.digest());
        assert_eq!(one.group_digests, four.group_digests);
        assert!(one.total_events > 0);
        assert_eq!(one.groups_completed, cfg.groups);
    }
}
