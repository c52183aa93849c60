//! The `mead-repro` command line, driven as a process: the command
//! table, the usage errors (exit 2, a message, no panic) and byte-equal
//! output across worker-thread counts.

use std::process::{Command, Output};

fn mead_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mead-repro"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn mead-repro {args:?}: {e}"))
}

#[test]
fn help_names_every_command() {
    let out = mead_repro(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Command rows are indented two spaces, their descriptions six.
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("commands"))
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let experiments = experiments::EXPERIMENTS.iter().map(|e| e.name);
    let expected: Vec<&str> = experiments
        .chain(["sweep", "fleet", "explore", "lint", "digest-probe", "help"])
        .collect();
    assert_eq!(listed, expected, "{text}");
    assert_eq!(listed.len(), 13 + 1, "thirteen commands and `help`");
}

/// A scenario on the paper topology whose one `[[fault]]` is `fault`.
fn one_fault_scenario(fault: &str) -> String {
    format!(
        "[sweep]\nname = \"x\"\nbase_seed = 1\nplans_per_cell = 0\n\n\
         [[topology]]\nname = \"paper\"\nslots = 3\n\n\
         [[mix]]\nname = \"loss\"\nloss = true\n\n\
         [[fault]]\nat_ms = 900\n{fault}\n"
    )
}

/// A generated-plan scenario on the paper topology with one `[[mix]]`
/// per name, each setting `flag = true`.
fn mixes_scenario(names: &[&str], flag: &str) -> String {
    let mut src = "[sweep]\nname = \"x\"\nbase_seed = 1\nplans_per_cell = 1\n\n\
                   [[topology]]\nname = \"paper\"\n"
        .to_string();
    for name in names {
        src.push_str(&format!("\n[[mix]]\nname = \"{name}\"\n{flag} = true\n"));
    }
    src
}

#[test]
fn usage_errors_exit_2_with_a_message() {
    let dir = std::env::temp_dir().join(format!("mead-repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = |name: &str, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).expect("write input file");
        path.to_str().expect("utf-8 path").to_string()
    };
    let malformed = file("malformed.toml", "[sweep]\nname = \"x\"\nbase_seed = \n");
    let missing = dir
        .join("missing.toml")
        .to_str()
        .expect("utf-8 path")
        .to_string();
    // Node 9 is not on the five-node paper topology.
    let far_node = file(
        "far-node.toml",
        &one_fault_scenario("kind = \"partition\"\na = 0\nb = 9\nheal_ms = 100"),
    );
    // Node 0 hosts the sequencer, whose daemon the group stack cannot lose.
    let sequencer = file(
        "sequencer.toml",
        &one_fault_scenario("kind = \"crash_daemon\"\nnode = 0\nrestart_ms = 100"),
    );
    // Two report cells named `paper/mead_failover/x` could not be told apart.
    let repeated_mix = file("xyx.toml", &mixes_scenario(&["x", "y", "x"], "loss"));
    let misspelled = file("los.toml", &mixes_scenario(&["x"], "los"));
    // A topology without a Recovery Manager cannot be deployed.
    let no_rm = file(
        "no-rm.toml",
        &mixes_scenario(&["x"], "loss")
            .replace("name = \"paper\"\n", "name = \"paper\"\nrm_instances = 0\n"),
    );
    let truncated = file(
        "truncated.json",
        "{\"schema\": \"conflict-relation/1\", \"indep",
    );
    let cases: [&[&str]; 20] = [
        &[],
        &["tabel1"],
        &["table1", "--threads"],
        &["fleet", "--threads", "many"],
        &["fleet", "--smoke", "--scheme", "mead"],
        &["table1", "--thread", "1", "150"],
        &["table1", "10k"],
        &["table1", "150", "200"],
        &["fleet", "1e4"],
        &["sweep", &missing],
        &["sweep", &malformed],
        &["sweep", &far_node],
        &["sweep", &sequencer],
        &["sweep", &repeated_mix],
        &["sweep", &misspelled],
        &["sweep", &malformed, &missing],
        &["explore", "--runs", "zzz"],
        &["explore", "--depth", "-1"],
        &["explore", "--bogus"],
        &["explore", "--conflict-relation", &truncated],
    ];
    // Exit 2 with an `error: …` message, no panic, nothing on stdout;
    // returns the message.
    let refused = |args: &[&str]| {
        let out = mead_repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        stderr
    };
    for args in cases {
        refused(args);
    }
    // A command names the argument it does not read.
    for (args, named) in [
        (&["digest-probe", "extra"][..], "`extra`"),
        (&["digest-probe", "--bogus"], "`--bogus`"),
        (&["table1", "--smoke", "50"], "`--smoke`"),
        (
            &["table1", "--violations", "v.json", "50"],
            "`--violations`",
        ),
        (&["fleet", "--violations", "v.json"], "`--violations`"),
        (&["fleet", "--trace", "t.jsonl"], "`--trace`"),
        (&["explore", "--trace", "t.jsonl"], "--trace"),
        (&["lint", "--threads", "2"], "`--threads`"),
        (&["lint", "--smoke"], "`--smoke`"),
        // A count of nothing is refused, not run as an empty report.
        (&["table1", "0"], "invocations must be at least 1"),
        (&["breakdown", "0"], "invocations must be at least 1"),
        (&["fleet", "0"], "clients must be at least 1"),
        (&["explore", "--runs", "0"], "--runs must be at least 1"),
    ] {
        let stderr = refused(args);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    // Each scenario is refused for its one defect, at the line it is on.
    for (scenario, why) in [
        (&far_node, "node 9 beyond the topology"),
        (&sequencer, "the daemon on node 0 may not be crashed"),
        (&repeated_mix, "line 17: mix \"x\": duplicate mix name"),
        (&misspelled, "line 9: mix \"x\": unknown key `los`"),
        (
            &no_rm,
            "line 6: topology \"paper\": rm_instances must be at least 1",
        ),
    ] {
        let stderr = refused(&["sweep", scenario]);
        assert!(stderr.contains(why), "{scenario}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn table1_prints_the_same_bytes_at_1_and_2_threads() {
    let one = mead_repro(&["table1", "--threads", "1", "200"]);
    let two = mead_repro(&["table1", "--threads", "2", "200"]);
    assert!(one.status.success() && two.status.success());
    assert!(String::from_utf8_lossy(&one.stdout).contains("MEAD Message"));
    assert_eq!(one.stdout, two.stdout);
}
