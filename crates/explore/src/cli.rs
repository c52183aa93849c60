//! The `mead-repro explore` command (DESIGN §13).

use std::path::Path;
use std::sync::Arc;

use experiments::{
    no_args_left, nonzero, run_chaos_plan_with, run_command, take_flag, take_number, take_switch,
    take_threads, write_artifact, write_violations, CliError, ViolationRecord,
};
use simnet::{GateCfg, ReplayScheduler};

use crate::{fixtures, run_prefix, try_explore, try_minimize, ConflictRelation, ExploreConfig};

/// Decisions the minimized seeded-bug schedule may keep (the acceptance
/// bound: the reproducer must be human-readable).
const MAX_MINIMIZED_DECISIONS: usize = 10;

/// `mead-repro explore [--threads N] [--runs N] [--depth N] [--smoke]
/// [--seeded-bug] [--conflict-relation FILE] [--violations out.json]
/// [--trace out.jsonl]`.
///
/// Enumerates alternative event interleavings of the `pair` and `trio`
/// fixtures under a pluggable kernel scheduler and checks every
/// invariant on every interleaving; given `--seeded-bug`, also proves
/// the pipeline end to end: a seeded protocol mutation invisible to the
/// FIFO schedule is caught, minimized to a short failing schedule, and
/// replayed by digest. `--smoke` shrinks the per-fixture run budget for
/// CI; `--trace` writes the minimized failing schedule (requires
/// `--seeded-bug`); `--conflict-relation` loads a `conflict-relation/1`
/// artifact (from `mead-repro lint --conflict-report`) that prunes
/// statically proven independent branches from the search. Exit status
/// 1 when any fixture's exploration misbehaves, the seeded bug is not
/// caught, minimized and replayed, or a fixture's booted world cannot be
/// forked (the `ForkError` is the message); exit status 2 for a malformed
/// argument or a relation that cannot be read or parsed.
pub fn cli_main(args: &[String]) -> i32 {
    run_command(args, |mut args| {
        let threads = take_threads(&mut args)?;
        let seeded = take_switch(&mut args, "--seeded-bug");
        let default_runs = if take_switch(&mut args, "--smoke") {
            384
        } else {
            1024
        };
        let max_runs = nonzero(
            "--runs",
            take_number(&mut args, "--runs")?.unwrap_or(default_runs),
        )?;
        let max_depth = take_number(&mut args, "--depth")?.unwrap_or(12);
        let relation_path = take_flag(&mut args, "--conflict-relation")?;
        let violations_path = take_flag(&mut args, "--violations")?;
        let trace = take_flag(&mut args, "--trace")?;
        if trace.is_some() && !seeded {
            return Err(CliError::Usage(
                "--trace writes the minimized seeded-bug schedule; it needs --seeded-bug".into(),
            ));
        }
        no_args_left(&args)?;
        let relation = match relation_path {
            None => None,
            Some(path) => {
                let src = std::fs::read_to_string(&path).map_err(|e| {
                    CliError::Usage(format!("cannot read conflict relation {path}: {e}"))
                })?;
                let rel = ConflictRelation::parse(&src)
                    .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
                eprintln!(
                    "conflict relation loaded from {path}: {} independent pair(s)",
                    rel.independent.len()
                );
                Some(Arc::new(rel))
            }
        };

        let config_for = |gate: GateCfg| ExploreConfig {
            gate,
            max_runs,
            max_depth,
            threads,
            relation: relation.clone(),
        };

        let mut passed = true;
        let mut records: Vec<ViolationRecord> = Vec::new();

        // Fault-free-protocol fixtures: enumerate interleavings and demand
        // zero invariant violations on every one (the protocol must
        // tolerate any physically plausible delivery order).
        for fixture in [fixtures::pair(), fixtures::trio()] {
            let outcome = try_explore(&fixture.plan, &fixture.chaos, &config_for(fixture.gate))
                .map_err(|e| CliError::Failed(format!("explore {}: {e}", fixture.name)))?;
            println!(
                "explore {}: {} runs, {} distinct outcomes, {} violating, exhausted={}, digest {:016x}",
                fixture.name,
                outcome.executed,
                outcome.outcome_digests.len(),
                outcome.failures.len(),
                outcome.exhausted,
                outcome.digest,
            );
            for failure in &outcome.failures {
                records.push(ViolationRecord {
                    cell: format!("{}/schedule-{:016x}", fixture.name, failure.trace.digest()),
                    seed: fixture.plan.seed(),
                    violations: failure.violations.clone(),
                });
            }
            if outcome.failures.is_empty() {
                println!("  PASS: all enumerated interleavings hold every invariant");
            } else {
                println!(
                    "  FAIL: {} interleaving(s) violated invariants",
                    outcome.failures.len()
                );
                passed = false;
            }
        }

        // Seeded-bug pipeline: the mutation must be invisible to FIFO,
        // caught by the search, minimized small, and replayable by digest.
        if seeded {
            passed &= run_seeded_bug(config_for, trace.as_deref().map(Path::new))?;
        }

        write_violations(violations_path, "explore", records)?;
        Ok(passed)
    })
}

/// Runs the seeded-bug fixture end to end; returns whether it was
/// caught, minimized and replayed.
fn run_seeded_bug(
    config_for: impl Fn(GateCfg) -> ExploreConfig,
    trace_path: Option<&Path>,
) -> Result<bool, CliError> {
    let fixture = fixtures::seeded_bug();
    let cfg = config_for(fixture.gate);

    // Under the default schedule the mutation stays dormant.
    let fifo = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &[]);
    if !fifo.violations.is_empty() {
        println!(
            "seeded-bug: FAIL — FIFO schedule already violates: {:?}",
            fifo.violations
        );
        return Ok(false);
    }
    println!("seeded-bug: FIFO schedule passes (mutation dormant)");

    let unforkable = |e| CliError::Failed(format!("explore {}: {e}", fixture.name));
    let outcome = try_explore(&fixture.plan, &fixture.chaos, &cfg).map_err(unforkable)?;
    println!(
        "seeded-bug: {} runs explored, {} violating interleaving(s)",
        outcome.executed,
        outcome.failures.len()
    );
    let Some(first) = outcome.failures.first() else {
        println!("seeded-bug: FAIL — search did not expose the seeded mutation");
        return Ok(false);
    };
    let witness: Vec<u64> = first.trace.decisions.iter().map(|d| d.chosen).collect();
    println!(
        "seeded-bug: caught: {}",
        first.violations.first().map(String::as_str).unwrap_or("?")
    );

    let minimal = try_minimize(&fixture.plan, &fixture.chaos, fixture.gate, &witness, 200)
        .map_err(unforkable)?;
    let Some(minimal) = minimal else {
        println!("seeded-bug: FAIL — minimizer could not reproduce the failure");
        return Ok(false);
    };
    println!(
        "seeded-bug: minimized to {} decision(s) ({} deviation(s)) in {} runs, trace digest {:016x}",
        minimal.choices.len(),
        minimal.trace.deviations(),
        minimal.runs_used,
        minimal.trace.digest(),
    );
    if minimal.choices.len() > MAX_MINIMIZED_DECISIONS {
        println!(
            "seeded-bug: FAIL — minimal schedule keeps {} decisions (bound {})",
            minimal.choices.len(),
            MAX_MINIMIZED_DECISIONS
        );
        return Ok(false);
    }

    // Replay the minimized trace through the independent ReplayScheduler
    // and demand bit-identical behaviour.
    let replayed = run_chaos_plan_with(
        &fixture.plan,
        &fixture.chaos,
        Box::new(ReplayScheduler::from_trace(&minimal.trace)),
    );
    if replayed.digest() != minimal.outcome_digest || replayed.violations.is_empty() {
        println!(
            "seeded-bug: FAIL — replay digest {:016x} != minimized run digest {:016x}",
            replayed.digest(),
            minimal.outcome_digest
        );
        return Ok(false);
    }
    println!(
        "seeded-bug: replay digest {:016x} matches — PASS",
        replayed.digest()
    );

    if let Some(path) = trace_path {
        write_artifact("minimized decision trace", path, &minimal.trace.to_jsonl())?;
    }
    Ok(true)
}
