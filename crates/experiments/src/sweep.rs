//! Generative fault sweeps: a checked-in scenario file (DESIGN §12)
//! declares a matrix of topologies × recovery schemes × fault mixes, and
//! the sweep expands it into hundreds of seeded [`FaultPlan`]s, each run
//! under the full chaos invariant set (exactly-once, bounded recovery,
//! view convergence, graceful degradation).
//!
//! Everything is deterministic: the scenario file plus its `base_seed`
//! fully determine every generated plan (per-cell seeds are derived with
//! splitmix64, the same idiom the fleet runner uses), and the sweep
//! digest — an FNV-1a fold of every outcome digest in matrix order — is
//! bit-identical across worker-thread counts.
//!
//! A scenario may also carry explicit `[[fault]]` events; these form one
//! hand-written plan that is validated and run against every
//! topology × scheme cell, which is how the checked-in scenarios pin the
//! new fault models (correlated crashes, rolling restarts, asymmetric
//! partitions, jittery links, flash crowds, CPU/fd pressure) to a
//! reviewable timeline.

use std::fmt;

use faults::config::{fault_from_table, mix_from_table};
use faults::{FaultEvent, FaultPlan, FaultPlanBuilder, NamedMix, PlanError};
use mead::RecoveryScheme;
use simnet::{Fnv, SimDuration};
use tomlite::TomlError;

use crate::chaos::{chaos_plan_space_for, run_chaos_plan, ChaosConfig, ChaosOutcome};
use crate::cli::{
    check_thread_independence, positional_or, run_command, take_flag, take_switch, take_threads,
    write_artifact, write_trace, write_violations, CliError,
};
use crate::fleet::splitmix64;
use crate::report::ViolationRecord;
use crate::runner::run_batch_with;

/// One topology axis entry: the chaos executor's node layout is derived
/// from the slot count (node 0 infrastructure, one server node per slot,
/// one client node).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopologySpec {
    /// Display name, e.g. `"paper"`.
    pub name: String,
    /// Replica slots (the paper's topology has 3).
    pub slots: u32,
    /// Recovery-Manager instances (`1` reproduces the DESIGN §6.5 SPOF).
    pub rm_instances: u32,
}

/// A parsed sweep scenario: the full matrix plus the per-plan increment
/// count.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Scenario name (reports and artifact labels).
    pub name: String,
    /// Seed the whole matrix derives from.
    pub base_seed: u64,
    /// Generated plans per (topology × scheme × mix) cell.
    pub plans_per_cell: u32,
    /// Increments the chaos client must get acknowledged per plan.
    pub increments: u32,
    /// Topology axis (at least one entry).
    pub topologies: Vec<TopologySpec>,
    /// Recovery-scheme axis (at least one entry).
    pub schemes: Vec<RecoveryScheme>,
    /// Fault-mix axis (at least one entry).
    pub mixes: Vec<NamedMix>,
    /// Optional explicit fault timeline, run once per topology × scheme
    /// cell in addition to the generated plans.
    pub explicit: Vec<FaultEvent>,
}

impl SweepSpec {
    /// Total plans the matrix expands to.
    pub fn total_plans(&self) -> usize {
        let cells = self.topologies.len() * self.schemes.len() * self.mixes.len();
        let explicit = if self.explicit.is_empty() {
            0
        } else {
            self.topologies.len() * self.schemes.len()
        };
        cells * self.plans_per_cell as usize + explicit
    }
}

/// Parses a sweep scenario document (the `tomlite` TOML subset).
///
/// Required sections: `[sweep]` (name, base_seed, plans_per_cell plus
/// the optional `increments` count and `schemes` array), at least one
/// `[[topology]]` and at least one `[[mix]]`; `[[fault]]` entries are
/// optional. Unknown sections and keys are rejected, so a typo cannot
/// silently weaken a scenario, and so are repeated topology, mix and
/// scheme names, which would merge two cells of the report into one.
///
/// # Errors
///
/// Returns a [`TomlError`] at the header line of the offending section,
/// naming the section and key, for any syntactic or semantic problem.
pub fn parse_sweep(src: &str) -> Result<SweepSpec, TomlError> {
    let doc = tomlite::parse(src)?;
    let root = doc.root().with_context("scenario");
    root.reject_unknown(&["sweep", "topology", "mix", "fault"])?;
    let r = root
        .table("sweep")?
        .ok_or_else(|| root.error("missing [sweep] section"))?
        .with_context("sweep");
    r.reject_unknown(&[
        "name",
        "base_seed",
        "plans_per_cell",
        "increments",
        "schemes",
    ])?;
    let name = r.str_req("name")?.to_string();
    let base_seed = r.int("base_seed")?;
    let plans_per_cell = r.int("plans_per_cell")?;
    let increments = r.int_or("increments", 120)?;

    let mut schemes = Vec::new();
    for key in r.str_array("schemes")? {
        let scheme: RecoveryScheme = key.parse().map_err(|e: mead::UnknownScheme| r.error(e))?;
        if schemes.contains(&scheme) {
            return Err(r.error(format!("duplicate scheme `{key}`")));
        }
        schemes.push(scheme);
    }
    if r.get("schemes").is_none() {
        schemes.push(RecoveryScheme::MeadFailover);
    } else if schemes.is_empty() {
        return Err(r.error("schemes array is empty"));
    }

    let mut topologies: Vec<TopologySpec> = Vec::new();
    for t in root.tables("topology")? {
        let name = t
            .clone()
            .with_context("topology")
            .str_req("name")?
            .to_string();
        let t = t.with_context(format!("topology \"{name}\""));
        if topologies.iter().any(|topo| topo.name == name) {
            return Err(t.error("duplicate topology name"));
        }
        t.reject_unknown(&["name", "slots", "rm_instances"])?;
        let slots = t.int_or("slots", 3)?;
        let rm_instances = t.int_or("rm_instances", 2)?;
        if slots == 0 {
            return Err(t.error("slots must be at least 1"));
        }
        if rm_instances == 0 {
            return Err(t.error("rm_instances must be at least 1"));
        }
        topologies.push(TopologySpec {
            name,
            slots,
            rm_instances,
        });
    }
    if topologies.is_empty() {
        return Err(root.error("at least one [[topology]] is required"));
    }

    let mut mixes: Vec<NamedMix> = Vec::new();
    for t in root.tables("mix")? {
        let mix = mix_from_table(&t)?;
        if mixes.iter().any(|m| m.name == mix.name) {
            return Err(t.error(format!("mix \"{}\": duplicate mix name", mix.name)));
        }
        mixes.push(mix);
    }
    if mixes.is_empty() {
        return Err(root.error("at least one [[mix]] is required"));
    }

    let mut explicit = Vec::new();
    for t in root.tables("fault")? {
        explicit.push(fault_from_table(&t)?);
    }
    explicit.sort_by_key(|e| e.at);

    if plans_per_cell == 0 && explicit.is_empty() {
        return Err(r.error("plans_per_cell = 0 with no [[fault]] events leaves nothing to run"));
    }

    Ok(SweepSpec {
        name,
        base_seed,
        plans_per_cell,
        increments,
        topologies,
        schemes,
        mixes,
        explicit,
    })
}

/// One executable unit of the expanded matrix.
#[derive(Clone, Debug)]
pub struct SweepUnit {
    /// Cell label, `"<topology>/<scheme>/<mix>"` (mix is `"explicit"` for
    /// the hand-written timeline).
    pub cell: String,
    /// The validated plan.
    pub plan: FaultPlan,
    /// Per-run chaos parameters for this cell.
    pub chaos: ChaosConfig,
}

/// A matrix cell whose plan fails [`FaultPlan::validate`].
#[derive(Clone, Debug, PartialEq)]
pub struct CellError {
    /// Cell label, `"<topology>/<scheme>/<mix>"`.
    pub cell: String,
    /// The plan's seed.
    pub seed: u64,
    /// Why the plan is invalid.
    pub error: PlanError,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {}, seed {}: {}", self.cell, self.seed, self.error)
    }
}

impl std::error::Error for CellError {}

/// Recovery-Manager crashes a generated plan may draw, before the cap of
/// `rm_instances - 1` per topology.
const RM_CRASHES: u32 = 1;

/// Expands the scenario matrix into validated plans, in deterministic
/// matrix order (topology-major, then scheme, then mix, then plan index;
/// explicit timelines come after a cell's generated mixes).
///
/// # Errors
///
/// Returns a [`CellError`] when a plan fails [`FaultPlan::validate`] —
/// generated plans validating clean is a generator invariant, so this
/// practically fires only for malformed explicit `[[fault]]` timelines.
pub fn expand_sweep(spec: &SweepSpec) -> Result<Vec<SweepUnit>, CellError> {
    let mut units = Vec::with_capacity(spec.total_plans());
    let mut cell_index: u64 = 0;
    for topo in &spec.topologies {
        // Nothing relaunches a Recovery Manager, so a plan may kill all
        // but one instance and no more: the budget is capped by the
        // topology.
        let rm_crashes = RM_CRASHES.min(topo.rm_instances.saturating_sub(1));
        let space = chaos_plan_space_for(topo.slots, rm_crashes);
        for &scheme in &spec.schemes {
            let chaos = ChaosConfig {
                increments: spec.increments,
                rm_instances: topo.rm_instances,
                slots: topo.slots,
                scheme,
                ..ChaosConfig::default()
            };
            for named in &spec.mixes {
                let cell = format!("{}/{}/{}", topo.name, scheme.key(), named.name);
                for i in 0..spec.plans_per_cell {
                    let seed = splitmix64(spec.base_seed ^ (cell_index << 32) ^ u64::from(i));
                    let plan = FaultPlan::generate_with(seed, &space, &named.mix);
                    plan.validate(&space).map_err(|error| CellError {
                        cell: cell.clone(),
                        seed,
                        error,
                    })?;
                    units.push(SweepUnit {
                        cell: cell.clone(),
                        plan,
                        chaos: chaos.clone(),
                    });
                }
                cell_index += 1;
            }
            if !spec.explicit.is_empty() {
                let cell = format!("{}/{}/explicit", topo.name, scheme.key());
                let seed = splitmix64(spec.base_seed ^ (cell_index << 32));
                let plan = FaultPlanBuilder::new(seed)
                    .events(spec.explicit.iter().cloned())
                    .build(&space)
                    .map_err(|error| CellError {
                        cell: cell.clone(),
                        seed,
                        error,
                    })?;
                units.push(SweepUnit { cell, plan, chaos });
                cell_index += 1;
            }
        }
    }
    Ok(units)
}

/// Aggregated sweep results, in matrix order.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Scenario name.
    pub name: String,
    /// Per-plan `(cell, outcome)` pairs, in matrix order.
    pub results: Vec<(String, ChaosOutcome)>,
}

impl SweepOutcome {
    /// Every plan with at least one invariant violation.
    pub fn violations(&self) -> Vec<ViolationRecord> {
        self.results
            .iter()
            .filter(|(_, o)| !o.violations.is_empty())
            .map(|(cell, o)| ViolationRecord {
                cell: cell.clone(),
                seed: o.seed,
                violations: o.violations.clone(),
            })
            .collect()
    }

    /// FNV-1a fold of cell labels and per-plan digests — identical across
    /// worker-thread counts when the sweep is deterministic.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (cell, o) in &self.results {
            h.bytes(cell.as_bytes());
            h.u64(o.digest());
        }
        h.finish()
    }
}

/// Runs expanded `units` of the scenario called `name` on `threads`
/// workers. Invariant violations are data
/// ([`SweepOutcome::violations`]), not errors.
pub fn run_sweep(name: &str, units: &[SweepUnit], threads: usize) -> SweepOutcome {
    SweepOutcome {
        name: name.to_string(),
        results: run_batch_with(units, threads, |unit| {
            (unit.cell.clone(), run_chaos_plan(&unit.plan, &unit.chaos))
        }),
    }
}

/// Human-readable sweep summary: per-cell plan counts, violation counts,
/// crowd goodput and the worst degradation gap.
pub fn format_sweep(outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    let violations = outcome.violations();
    out.push_str(&format!(
        "sweep \"{}\": {} plans, {} with violations, digest {:016x}\n",
        outcome.name,
        outcome.results.len(),
        violations.len(),
        outcome.digest()
    ));
    let mut cell_order: Vec<&str> = Vec::new();
    for (cell, _) in &outcome.results {
        if cell_order.last() != Some(&cell.as_str()) {
            cell_order.push(cell);
        }
    }
    for cell in cell_order {
        let plans: Vec<&ChaosOutcome> = outcome
            .results
            .iter()
            .filter(|(c, _)| c == cell)
            .map(|(_, o)| o)
            .collect();
        let violated = plans.iter().filter(|o| !o.violations.is_empty()).count();
        let worst_gap = plans
            .iter()
            .map(|o| o.worst_goodput_gap)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let crowd: u64 = plans.iter().map(|o| o.crowd_acked).sum();
        out.push_str(&format!(
            "  {cell}: {} plans, {} violated, worst goodput gap {} ms, crowd acks {}\n",
            plans.len(),
            violated,
            worst_gap.as_nanos() / 1_000_000,
            crowd
        ));
    }
    for v in violations.iter().take(10) {
        out.push_str(&format!("  FAIL {} seed {}:\n", v.cell, v.seed));
        for msg in &v.violations {
            out.push_str(&format!("    - {msg}\n"));
        }
    }
    if violations.len() > 10 {
        out.push_str(&format!("  ... and {} more\n", violations.len() - 10));
    }
    out
}

/// Units re-run when checking thread-count independence (a prefix of
/// the matrix keeps the check cheap on big sweeps).
const DETERMINISM_SAMPLE: usize = 24;

/// `mead-repro sweep [--threads N] [--trace out.jsonl] [--smoke]
/// [--violations out.json] [--report out.txt] [scenario.toml]`: loads a
/// scenario file, runs every plan of its matrix under the chaos
/// invariants and checks the sweep digest is identical at 1 and N worker
/// threads.
///
/// The scenario defaults to `scenarios/sweep-full.toml`
/// (`scenarios/sweep-smoke.toml` with `--smoke`). Exit status: 1 on any
/// invariant violation or digest mismatch, 2 on an unreadable or invalid
/// scenario.
pub fn cli_main(args: &[String]) -> i32 {
    run_command(args, |mut args| {
        let threads = take_threads(&mut args)?;
        let trace = take_flag(&mut args, "--trace")?;
        let violations_path = take_flag(&mut args, "--violations")?;
        let report_path = take_flag(&mut args, "--report")?;
        let default_scenario = if take_switch(&mut args, "--smoke") {
            "scenarios/sweep-smoke.toml"
        } else {
            "scenarios/sweep-full.toml"
        };
        let path = positional_or(&args, default_scenario.to_string())?;
        let src = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Usage(format!("cannot read scenario {path}: {e}")))?;
        let spec = parse_sweep(&src)
            .map_err(|e| CliError::Usage(format!("invalid scenario {path}: {e}")))?;
        let units = expand_sweep(&spec)
            .map_err(|e| CliError::Usage(format!("scenario {path} does not expand: {e}")))?;
        println!(
            "sweep \"{}\": {} topologies x {} schemes x {} mixes -> {} plans on {} threads",
            spec.name,
            spec.topologies.len(),
            spec.schemes.len(),
            spec.mixes.len(),
            units.len(),
            threads
        );

        let outcome = run_sweep(&spec.name, &units, threads);
        let report = format_sweep(&outcome);
        print!("{report}");
        let violations = outcome.violations();
        let mut passed = violations.is_empty();
        if passed {
            println!(
                "  PASS: zero invariant violations across {} plans",
                units.len()
            );
        } else {
            println!(
                "  FAIL: {} of {} plans violated an invariant",
                violations.len(),
                units.len()
            );
        }

        let sample = &units[..units.len().min(DETERMINISM_SAMPLE)];
        passed &= check_thread_independence(
            &format!("{}-plan", sample.len()),
            &[1, threads.max(2)],
            |threads| run_sweep(&spec.name, sample, threads).digest(),
        );

        write_violations(violations_path, &spec.name, violations)?;
        if let Some(path) = &report_path {
            write_artifact("report", path.as_ref(), &report)?;
        }
        let sections: Vec<_> = outcome
            .results
            .iter()
            .map(|(cell, o)| (format!("{cell}/seed{}", o.seed), o.trace.as_slice()))
            .collect();
        write_trace(trace, &sections)?;
        Ok(passed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"
[sweep]
name = "test"
base_seed = 9
plans_per_cell = 2
increments = 40
schemes = ["mead_failover"]

[[topology]]
name = "paper"
slots = 3
rm_instances = 2

[[mix]]
name = "classic"
crashes = true
partitions = true
loss = true
leak = true

[[mix]]
name = "net"
asymmetric = true
jitter = true

[[fault]]
kind = "correlated_crash"
at_ms = 900
slots = [0, 2]
"#;

    #[test]
    fn parses_and_expands_the_matrix() {
        let spec = parse_sweep(SMOKE).expect("scenario parses");
        assert_eq!(spec.name, "test");
        assert_eq!(spec.topologies.len(), 1);
        assert_eq!(spec.schemes, vec![RecoveryScheme::MeadFailover]);
        assert_eq!(spec.mixes.len(), 2);
        assert_eq!(spec.explicit.len(), 1);
        // 1 topo × 1 scheme × 2 mixes × 2 plans + 1 explicit.
        assert_eq!(spec.total_plans(), 5);
        let units = expand_sweep(&spec).expect("expansion validates");
        assert_eq!(units.len(), 5);
        assert_eq!(units[0].cell, "paper/mead_failover/classic");
        assert_eq!(units[4].cell, "paper/mead_failover/explicit");
        // Different cells draw different seeds.
        assert_ne!(units[0].plan.seed(), units[2].plan.seed());
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = parse_sweep(SMOKE).expect("scenario parses");
        let a = expand_sweep(&spec).expect("expansion validates");
        let b = expand_sweep(&spec).expect("expansion validates");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plan, y.plan);
            assert_eq!(x.cell, y.cell);
        }
    }

    #[test]
    fn rejects_unknown_sections_and_bad_schemes() {
        assert!(parse_sweep("[sweep]\nname = \"x\"\nbase_seed = 1\nplans_per_cell = 1\n").is_err());
        let unknown = format!("{SMOKE}\n[wat]\nx = 1\n");
        assert!(parse_sweep(&unknown).is_err());
        let bad_scheme = SMOKE.replace("mead_failover", "quantum");
        assert!(parse_sweep(&bad_scheme).is_err());
    }

    /// The 1-based line of `needle`'s first occurrence in `src`.
    fn line_of(src: &str, needle: &str) -> u32 {
        let idx = src
            .lines()
            .position(|l| l.contains(needle))
            .expect("needle");
        u32::try_from(idx + 1).expect("small")
    }

    #[test]
    fn errors_anchor_at_the_offending_section() {
        let unknown = format!("{SMOKE}\n[wat]\nx = 1\n");
        let e = parse_sweep(&unknown).unwrap_err();
        assert_eq!(
            (e.line, e.msg.as_str()),
            (
                line_of(&unknown, "[wat]"),
                "scenario: unknown section `wat`"
            )
        );
        let typo = SMOKE.replace("asymmetric = true", "asymetric = true");
        let e = parse_sweep(&typo).unwrap_err();
        assert_eq!(
            e.to_string(),
            format!(
                "line {}: mix \"net\": unknown key `asymetric`",
                line_of(SMOKE, "name = \"net\"") - 1
            )
        );
        let e = parse_sweep(&SMOKE.replace("increments = 40", "increments = -4")).unwrap_err();
        assert_eq!(e.line, line_of(SMOKE, "[sweep]"));
    }

    #[test]
    fn repeated_axis_names_are_rejected_at_the_repeat() {
        let mixes = SMOKE.replace("name = \"net\"", "name = \"classic\"");
        let e = parse_sweep(&mixes).unwrap_err();
        assert_eq!(e.line, line_of(SMOKE, "name = \"net\"") - 1);
        assert!(e.msg.contains("duplicate mix"), "{e}");
        let topologies = format!("{SMOKE}\n[[topology]]\nname = \"paper\"\n");
        let e = parse_sweep(&topologies).unwrap_err();
        assert_eq!(
            e.line,
            u32::try_from(topologies.lines().count()).unwrap() - 1
        );
        assert!(e.msg.contains("duplicate topology"), "{e}");
        let schemes = SMOKE.replace(
            "schemes = [\"mead_failover\"]",
            "schemes = [\"mead_failover\", \"reactive_cache\", \"mead_failover\"]",
        );
        let e = parse_sweep(&schemes).unwrap_err();
        assert_eq!(e.line, line_of(SMOKE, "[sweep]"));
        assert!(e.msg.contains("duplicate scheme `mead_failover`"), "{e}");
    }
}
