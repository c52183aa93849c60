//! Declarative fault configuration: the `[[mix]]` and `[[fault]]`
//! sections of a chaos scenario file.
//!
//! A scenario file (see `scenarios/` and DESIGN §12) describes fault
//! plans either *generatively* — named [`FaultMix`] entries the sweep
//! driver crosses with topologies and schemes, seeding
//! [`FaultPlan::generate_with`](crate::FaultPlan::generate_with) — or
//! *explicitly*, as a list of
//! [`FaultEvent`]s with absolute injection instants. This module reads
//! those entries through a [`tomlite::Reader`], plus the two value types
//! tomlite cannot name (millisecond durations and instants); everything it
//! accepts round-trips deterministically (same file bytes ⇒ same plans).

use simnet::{SimDuration, SimTime};
use tomlite::{Reader, TomlError};

use crate::plan::{FaultEvent, FaultKind, FaultMix};

/// A [`FaultMix`] with the scenario-file name it was declared under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedMix {
    /// The mix's name (the sweep report's mix axis label).
    pub name: String,
    /// Which fault families the mix enables.
    pub mix: FaultMix,
}

/// A required duration given in (possibly fractional) milliseconds; must
/// be non-negative.
pub fn duration_ms(r: &Reader, key: &str) -> Result<SimDuration, TomlError> {
    let ms = r.f64_req(key)?;
    if ms < 0.0 {
        return Err(r.error(format!("`{key}` must be >= 0 ms")));
    }
    Ok(SimDuration::from_nanos((ms * 1_000_000.0) as u64))
}

/// An instant given in milliseconds since simulation start.
pub fn time_ms(r: &Reader, key: &str) -> Result<SimTime, TomlError> {
    Ok(SimTime::ZERO + duration_ms(r, key)?)
}

/// Parses one `[[mix]]` table into a [`NamedMix`].
///
/// # Errors
///
/// Returns a [`TomlError`] at the table's header line on missing `name`,
/// unknown keys, or non-boolean family flags.
pub fn mix_from_table(table: &Reader) -> Result<NamedMix, TomlError> {
    let name = table
        .clone()
        .with_context("mix")
        .str_req("name")?
        .to_string();
    let r = table.clone().with_context(format!("mix \"{name}\""));
    r.reject_unknown(&[
        "name",
        "crashes",
        "correlated",
        "rolling",
        "partitions",
        "asymmetric",
        "jitter",
        "loss",
        "flash_crowd",
        "cpu",
        "fd",
        "leak",
    ])?;
    let mix = FaultMix {
        crashes: r.bool_or("crashes", false)?,
        correlated: r.bool_or("correlated", false)?,
        rolling: r.bool_or("rolling", false)?,
        partitions: r.bool_or("partitions", false)?,
        asymmetric: r.bool_or("asymmetric", false)?,
        jitter: r.bool_or("jitter", false)?,
        loss: r.bool_or("loss", false)?,
        flash_crowd: r.bool_or("flash_crowd", false)?,
        cpu: r.bool_or("cpu", false)?,
        fd: r.bool_or("fd", false)?,
        leak: r.bool_or("leak", false)?,
    };
    if mix == FaultMix::none() {
        return Err(r.error("enables no fault family"));
    }
    Ok(NamedMix { name, mix })
}

/// Parses one `[[fault]]` table into a [`FaultEvent`] (explicit plans).
///
/// Every fault carries `at_ms` and `kind`; the remaining keys are
/// model-specific (`slot`, `heal_ms`, `probability`, …) with durations in
/// milliseconds.
///
/// # Errors
///
/// Returns a [`TomlError`] at the table's header line on unknown kinds,
/// missing or mistyped keys.
pub fn fault_from_table(table: &Reader) -> Result<FaultEvent, TomlError> {
    let probe = table.clone().with_context("fault");
    let kind_name = probe.str_req("kind")?;
    let r = table.clone().with_context(format!("fault \"{kind_name}\""));
    let at = time_ms(&r, "at_ms")?;
    fn allow<'x>(extra: &[&'x str]) -> Vec<&'x str> {
        let mut all = vec!["at_ms", "kind"];
        all.extend_from_slice(extra);
        all
    }
    let kind = match kind_name {
        "crash_replica" => {
            r.reject_unknown(&allow(&["slot"]))?;
            FaultKind::CrashReplica {
                slot: r.int("slot")?,
            }
        }
        "crash_rm" => {
            r.reject_unknown(&allow(&[]))?;
            FaultKind::CrashRecoveryManager
        }
        "crash_daemon" => {
            r.reject_unknown(&allow(&["node", "restart_ms"]))?;
            FaultKind::CrashGcsDaemon {
                node: r.int("node")?,
                restart_after: duration_ms(&r, "restart_ms")?,
            }
        }
        "crash_naming" => {
            r.reject_unknown(&allow(&["restart_ms"]))?;
            FaultKind::CrashNaming {
                restart_after: duration_ms(&r, "restart_ms")?,
            }
        }
        "partition" => {
            r.reject_unknown(&allow(&["a", "b", "heal_ms"]))?;
            FaultKind::Partition {
                a: r.int("a")?,
                b: r.int("b")?,
                heal_after: duration_ms(&r, "heal_ms")?,
            }
        }
        "loss_burst" => {
            r.reject_unknown(&allow(&["probability", "duration_ms"]))?;
            FaultKind::LossBurst {
                probability: r.f64_req("probability")?,
                duration: duration_ms(&r, "duration_ms")?,
            }
        }
        "correlated_crash" => {
            r.reject_unknown(&allow(&["slots"]))?;
            FaultKind::CorrelatedCrash {
                slots: r.u32_array("slots")?,
            }
        }
        "flash_crowd" => {
            r.reject_unknown(&allow(&["clients", "reads", "spread_ms"]))?;
            FaultKind::FlashCrowd {
                clients: r.int("clients")?,
                reads: r.int("reads")?,
                spread: duration_ms(&r, "spread_ms")?,
            }
        }
        "rolling_restart" => {
            r.reject_unknown(&allow(&["slots", "gap_ms"]))?;
            FaultKind::RollingRestart {
                slots: r.int("slots")?,
                gap: duration_ms(&r, "gap_ms")?,
            }
        }
        "asymmetric_partition" => {
            r.reject_unknown(&allow(&["from", "to", "heal_ms"]))?;
            FaultKind::AsymmetricPartition {
                from: r.int("from")?,
                to: r.int("to")?,
                heal_after: duration_ms(&r, "heal_ms")?,
            }
        }
        "jittery_link" => {
            r.reject_unknown(&allow(&["a", "b", "bound_ms", "duration_ms"]))?;
            FaultKind::JitteryLink {
                a: r.int("a")?,
                b: r.int("b")?,
                bound: duration_ms(&r, "bound_ms")?,
                duration: duration_ms(&r, "duration_ms")?,
            }
        }
        "cpu_exhaustion" => {
            r.reject_unknown(&allow(&["slot", "ramp_per_sec"]))?;
            FaultKind::CpuExhaustion {
                slot: r.int("slot")?,
                ramp_per_sec: r.f64_req("ramp_per_sec")?,
            }
        }
        "fd_leak" => {
            r.reject_unknown(&allow(&["slot", "per_request"]))?;
            FaultKind::FdLeak {
                slot: r.int("slot")?,
                per_request: r.f64_req("per_request")?,
            }
        }
        other => return Err(probe.error(format!("unknown fault kind `{other}`"))),
    };
    Ok(FaultEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_mix(src: &str) -> Result<NamedMix, TomlError> {
        let doc = tomlite::parse(src).expect("parses");
        mix_from_table(&doc.root().tables("mix").expect("array")[0])
    }

    fn first_fault(src: &str) -> Result<FaultEvent, TomlError> {
        let doc = tomlite::parse(src).expect("parses");
        fault_from_table(&doc.root().tables("fault").expect("array")[0])
    }

    #[test]
    fn mix_parses_families() {
        let m = first_mix("[[mix]]\nname = \"net\"\nasymmetric = true\njitter = true\n").unwrap();
        assert_eq!(m.name, "net");
        assert!(m.mix.asymmetric && m.mix.jitter);
        assert!(!m.mix.crashes && !m.mix.cpu);
    }

    #[test]
    fn mix_rejects_unknown_and_empty() {
        let err = first_mix("[[mix]]\nname = \"x\"\ncrashs = true\n").unwrap_err();
        assert!(err.msg.contains("unknown key"), "{err}");
        let err = first_mix("[[mix]]\nname = \"x\"\n").unwrap_err();
        assert!(err.msg.contains("no fault family"), "{err}");
    }

    #[test]
    fn explicit_faults_parse() {
        let e = first_fault(
            "[[fault]]\nat_ms = 900\nkind = \"asymmetric_partition\"\nfrom = 1\nto = 4\nheal_ms = 250\n",
        )
        .unwrap();
        assert_eq!(e.at, SimTime::from_millis(900));
        assert_eq!(
            e.kind,
            FaultKind::AsymmetricPartition {
                from: 1,
                to: 4,
                heal_after: SimDuration::from_millis(250)
            }
        );

        let e =
            first_fault("[[fault]]\nat_ms = 1200\nkind = \"correlated_crash\"\nslots = [0, 2]\n")
                .unwrap();
        assert_eq!(e.kind, FaultKind::CorrelatedCrash { slots: vec![0, 2] });

        let e = first_fault(
            "[[fault]]\nat_ms = 800.5\nkind = \"jittery_link\"\na = 0\nb = 4\nbound_ms = 2.5\nduration_ms = 300\n",
        )
        .unwrap();
        assert_eq!(e.at, SimTime::from_nanos(800_500_000));
        assert_eq!(
            e.kind,
            FaultKind::JitteryLink {
                a: 0,
                b: 4,
                bound: SimDuration::from_nanos(2_500_000),
                duration: SimDuration::from_millis(300)
            }
        );
    }

    #[test]
    fn fault_errors_are_contextual() {
        let err = first_fault("[[fault]]\nat_ms = 900\nkind = \"warp_core_breach\"\n").unwrap_err();
        assert!(err.msg.contains("unknown fault kind"), "{err}");
        let err =
            first_fault("# c\n[[fault]]\nat_ms = 900\nkind = \"crash_replica\"\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: fault \"crash_replica\": missing key `slot`"
        );
        let err = first_fault("[[fault]]\nat_ms = 900\nkind = \"crash_replica\"\nslot = -1\n")
            .unwrap_err();
        assert!(err.msg.contains("out of range"), "{err}");
        let err = first_fault(
            "[[fault]]\nat_ms = 900\nkind = \"loss_burst\"\nprobability = true\nduration_ms = 10\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("must be a number"), "{err}");
    }
}
