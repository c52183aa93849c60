//! Declarative fault configuration: the `[[mix]]` and `[[fault]]`
//! sections of a chaos scenario file.
//!
//! A scenario file (see `scenarios/` and DESIGN §12) describes fault
//! plans either *generatively* — named [`FaultMix`] entries the sweep
//! driver crosses with topologies and schemes, seeding
//! [`FaultPlan::generate_with`] — or *explicitly*, as a list of
//! [`FaultEvent`]s with absolute injection instants. This module turns
//! parsed [`tomlite`] tables into those typed values; everything it
//! accepts round-trips deterministically (same file bytes ⇒ same plans).

use std::fmt;

use simnet::{SimDuration, SimTime};
use tomlite::{Table, Value};

use crate::plan::{FaultEvent, FaultKind, FaultMix};

/// A configuration error: which scenario-file entry was bad, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The table or key the error was found in (e.g. `mix "surge"`).
    pub context: String,
    /// What was wrong.
    pub msg: String,
}

impl ConfigError {
    /// Creates an error for `context`.
    pub fn new(context: impl Into<String>, msg: impl Into<String>) -> Self {
        ConfigError {
            context: context.into(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// A [`FaultMix`] with the scenario-file name it was declared under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NamedMix {
    /// The mix's name (the sweep report's mix axis label).
    pub name: String,
    /// Which fault families the mix enables.
    pub mix: FaultMix,
}

/// Typed getters over a [`tomlite::Table`], shared by every schema layer
/// (fault sections here, topology/scheme sections in `experiments`).
pub struct TableReader<'a> {
    table: &'a Table,
    context: String,
}

impl<'a> TableReader<'a> {
    /// Wraps `table`; `context` names it in errors.
    pub fn new(table: &'a Table, context: impl Into<String>) -> Self {
        TableReader {
            table,
            context: context.into(),
        }
    }

    fn missing(&self, key: &str) -> ConfigError {
        ConfigError::new(&self.context, format!("missing key `{key}`"))
    }

    fn wrong_type(&self, key: &str, want: &str, got: &Value) -> ConfigError {
        ConfigError::new(
            &self.context,
            format!("`{key}` must be a {want}, got {}", got.type_name()),
        )
    }

    /// The raw value at `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        self.table.get(key)
    }

    /// A required string.
    pub fn str_req(&self, key: &str) -> Result<&'a str, ConfigError> {
        let v = self.get(key).ok_or_else(|| self.missing(key))?;
        v.as_str().ok_or_else(|| self.wrong_type(key, "string", v))
    }

    /// An optional boolean with a default.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| self.wrong_type(key, "boolean", v)),
        }
    }

    /// A required non-negative integer that fits in `u32`.
    pub fn u32_req(&self, key: &str) -> Result<u32, ConfigError> {
        let v = self.get(key).ok_or_else(|| self.missing(key))?;
        let i = v
            .as_int()
            .ok_or_else(|| self.wrong_type(key, "integer", v))?;
        u32::try_from(i)
            .map_err(|_| ConfigError::new(&self.context, format!("`{key}` out of range: {i}")))
    }

    /// An optional `u32` with a default.
    pub fn u32_or(&self, key: &str, default: u32) -> Result<u32, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.u32_req(key),
        }
    }

    /// A required non-negative integer that fits in `u64`.
    pub fn u64_req(&self, key: &str) -> Result<u64, ConfigError> {
        let v = self.get(key).ok_or_else(|| self.missing(key))?;
        let i = v
            .as_int()
            .ok_or_else(|| self.wrong_type(key, "integer", v))?;
        u64::try_from(i)
            .map_err(|_| ConfigError::new(&self.context, format!("`{key}` out of range: {i}")))
    }

    /// A required finite float (integers widen).
    pub fn f64_req(&self, key: &str) -> Result<f64, ConfigError> {
        let v = self.get(key).ok_or_else(|| self.missing(key))?;
        let x = v
            .as_float()
            .ok_or_else(|| self.wrong_type(key, "number", v))?;
        if x.is_finite() {
            Ok(x)
        } else {
            Err(ConfigError::new(
                &self.context,
                format!("`{key}` must be finite"),
            ))
        }
    }

    /// A required duration given in (possibly fractional) milliseconds;
    /// must be non-negative.
    pub fn duration_ms_req(&self, key: &str) -> Result<SimDuration, ConfigError> {
        let ms = self.f64_req(key)?;
        if ms < 0.0 {
            return Err(ConfigError::new(
                &self.context,
                format!("`{key}` must be >= 0 ms"),
            ));
        }
        Ok(SimDuration::from_nanos((ms * 1_000_000.0) as u64))
    }

    /// An optional millisecond duration with a default.
    pub fn duration_ms_or(
        &self,
        key: &str,
        default: SimDuration,
    ) -> Result<SimDuration, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.duration_ms_req(key),
        }
    }

    /// An instant given in milliseconds since simulation start.
    pub fn time_ms_req(&self, key: &str) -> Result<SimTime, ConfigError> {
        Ok(SimTime::ZERO + self.duration_ms_req(key)?)
    }

    /// A required array of `u32`s.
    pub fn u32_array_req(&self, key: &str) -> Result<Vec<u32>, ConfigError> {
        let v = self.get(key).ok_or_else(|| self.missing(key))?;
        let items = v
            .as_array()
            .ok_or_else(|| self.wrong_type(key, "array", v))?;
        items
            .iter()
            .map(|item| {
                item.as_int()
                    .and_then(|i| u32::try_from(i).ok())
                    .ok_or_else(|| {
                        ConfigError::new(
                            &self.context,
                            format!("`{key}` must contain non-negative integers"),
                        )
                    })
            })
            .collect()
    }

    /// Rejects keys outside `allowed` (typo protection: a misspelled
    /// `probabillity` should fail parsing, not silently default).
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ConfigError> {
        for key in self.table.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ConfigError::new(
                    &self.context,
                    format!("unknown key `{key}`"),
                ));
            }
        }
        Ok(())
    }
}

/// Parses one `[[mix]]` table into a [`NamedMix`].
///
/// # Errors
///
/// Returns [`ConfigError`] on missing `name`, unknown keys, or
/// non-boolean family flags.
pub fn mix_from_table(table: &Table) -> Result<NamedMix, ConfigError> {
    let probe = TableReader::new(table, "mix");
    let name = probe.str_req("name")?.to_string();
    let r = TableReader::new(table, format!("mix \"{name}\""));
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
        return Err(ConfigError::new(
            format!("mix \"{name}\""),
            "enables no fault family",
        ));
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
/// Returns [`ConfigError`] on unknown kinds, missing or mistyped keys.
pub fn fault_from_table(table: &Table) -> Result<FaultEvent, ConfigError> {
    let probe = TableReader::new(table, "fault");
    let kind_name = probe.str_req("kind")?.to_string();
    let r = TableReader::new(table, format!("fault \"{kind_name}\""));
    let at = r.time_ms_req("at_ms")?;
    fn allow<'x>(extra: &[&'x str]) -> Vec<&'x str> {
        let mut all = vec!["at_ms", "kind"];
        all.extend_from_slice(extra);
        all
    }
    let kind = match kind_name.as_str() {
        "crash_replica" => {
            r.reject_unknown(&allow(&["slot"]))?;
            FaultKind::CrashReplica {
                slot: r.u32_req("slot")?,
            }
        }
        "crash_rm" => {
            r.reject_unknown(&allow(&[]))?;
            FaultKind::CrashRecoveryManager
        }
        "crash_daemon" => {
            r.reject_unknown(&allow(&["node", "restart_ms"]))?;
            FaultKind::CrashGcsDaemon {
                node: r.u32_req("node")?,
                restart_after: r.duration_ms_req("restart_ms")?,
            }
        }
        "crash_naming" => {
            r.reject_unknown(&allow(&["restart_ms"]))?;
            FaultKind::CrashNaming {
                restart_after: r.duration_ms_req("restart_ms")?,
            }
        }
        "partition" => {
            r.reject_unknown(&allow(&["a", "b", "heal_ms"]))?;
            FaultKind::Partition {
                a: r.u32_req("a")?,
                b: r.u32_req("b")?,
                heal_after: r.duration_ms_req("heal_ms")?,
            }
        }
        "loss_burst" => {
            r.reject_unknown(&allow(&["probability", "duration_ms"]))?;
            FaultKind::LossBurst {
                probability: r.f64_req("probability")?,
                duration: r.duration_ms_req("duration_ms")?,
            }
        }
        "correlated_crash" => {
            r.reject_unknown(&allow(&["slots"]))?;
            FaultKind::CorrelatedCrash {
                slots: r.u32_array_req("slots")?,
            }
        }
        "flash_crowd" => {
            r.reject_unknown(&allow(&["clients", "reads", "spread_ms"]))?;
            FaultKind::FlashCrowd {
                clients: r.u32_req("clients")?,
                reads: r.u32_req("reads")?,
                spread: r.duration_ms_req("spread_ms")?,
            }
        }
        "rolling_restart" => {
            r.reject_unknown(&allow(&["slots", "gap_ms"]))?;
            FaultKind::RollingRestart {
                slots: r.u32_req("slots")?,
                gap: r.duration_ms_req("gap_ms")?,
            }
        }
        "asymmetric_partition" => {
            r.reject_unknown(&allow(&["from", "to", "heal_ms"]))?;
            FaultKind::AsymmetricPartition {
                from: r.u32_req("from")?,
                to: r.u32_req("to")?,
                heal_after: r.duration_ms_req("heal_ms")?,
            }
        }
        "jittery_link" => {
            r.reject_unknown(&allow(&["a", "b", "bound_ms", "duration_ms"]))?;
            FaultKind::JitteryLink {
                a: r.u32_req("a")?,
                b: r.u32_req("b")?,
                bound: r.duration_ms_req("bound_ms")?,
                duration: r.duration_ms_req("duration_ms")?,
            }
        }
        "cpu_exhaustion" => {
            r.reject_unknown(&allow(&["slot", "ramp_per_sec"]))?;
            FaultKind::CpuExhaustion {
                slot: r.u32_req("slot")?,
                ramp_per_sec: r.f64_req("ramp_per_sec")?,
            }
        }
        "fd_leak" => {
            r.reject_unknown(&allow(&["slot", "per_request"]))?;
            FaultKind::FdLeak {
                slot: r.u32_req("slot")?,
                per_request: r.f64_req("per_request")?,
            }
        }
        other => {
            return Err(ConfigError::new(
                "fault",
                format!("unknown fault kind `{other}`"),
            ));
        }
    };
    Ok(FaultEvent { at, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_mix(src: &str) -> Result<NamedMix, ConfigError> {
        let doc = tomlite::parse(src).expect("parses");
        let mixes = doc["mix"].as_array().expect("array");
        mix_from_table(mixes[0].as_table().expect("table"))
    }

    fn first_fault(src: &str) -> Result<FaultEvent, ConfigError> {
        let doc = tomlite::parse(src).expect("parses");
        let faults = doc["fault"].as_array().expect("array");
        fault_from_table(faults[0].as_table().expect("table"))
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
        let err = first_fault("[[fault]]\nat_ms = 900\nkind = \"crash_replica\"\n").unwrap_err();
        assert!(err.msg.contains("missing key `slot`"), "{err}");
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
