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
    let expected = [
        "paper",
        "adaptive",
        "sweep",
        "fleet",
        "explore",
        "lint",
        "digest-probe",
        "help",
    ];
    assert_eq!(listed, expected, "{text}");
    // The defaults the rows state are the ones the commands run.
    for (name, default) in [
        ("paper", experiments::paper::DEFAULT_INVOCATIONS),
        ("adaptive", experiments::adaptive::DEFAULT_INVOCATIONS),
    ] {
        let row = format!("  {name} [--threads N] [--trace F] [invocations, default {default}]\n");
        assert!(text.contains(&row), "{row}{text}");
    }
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
    // The RM-crash budget is a constant, not a scenario key.
    let old_knob = file(
        "rm-crashes.toml",
        &mixes_scenario(&["x"], "loss").replace(
            "plans_per_cell = 1\n",
            "plans_per_cell = 1\nrm_crashes = 1\n",
        ),
    );
    let truncated = file(
        "truncated.json",
        "{\"schema\": \"conflict-relation/1\", \"indep",
    );
    let cases: [&[&str]; 20] = [
        &[],
        &["papr"],
        &["paper", "--threads"],
        &["fleet", "--threads", "many"],
        &["fleet", "--smoke", "--scheme", "mead"],
        &["paper", "--thread", "1", "150"],
        &["paper", "10k"],
        &["paper", "150", "200"],
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
        (&["paper", "--smoke", "50"], "`--smoke`"),
        (&["paper", "--violations", "v.json", "50"], "`--violations`"),
        (&["fleet", "--violations", "v.json"], "`--violations`"),
        (&["fleet", "--trace", "t.jsonl"], "`--trace`"),
        (&["explore", "--trace", "t.jsonl"], "--trace"),
        (&["lint", "--threads", "2"], "`--threads`"),
        (&["lint", "--smoke"], "`--smoke`"),
        // A count of nothing is refused, not run as an empty report.
        (&["paper", "0"], "invocations must be at least 1"),
        (&["adaptive", "0"], "invocations must be at least 1"),
        (&["fleet", "0"], "clients must be at least 1"),
        // `explore` has one run budget, not a flag.
        (&["explore", "--runs", "0"], "`--runs`"),
        (&["explore", "--smoke"], "`--smoke`"),
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
        (&old_knob, "line 1: sweep: unknown key `rm_crashes`"),
    ] {
        let stderr = refused(&["sweep", scenario]);
        assert!(stderr.contains(why), "{scenario}: {stderr}");
    }
    // Section 5 is one command, `paper`: a table or figure name is none.
    for old in ["table1", "fig3", "fig4", "fig5", "failover", "jitter"] {
        let stderr = refused(&[old, "200"]);
        assert!(stderr.contains("unknown command"), "{old}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// `paper` at 200 invocations in a fresh working directory per thread
/// count: the same stdout and the same `results/` files, byte for byte,
/// at 1 and 2 worker threads.
#[test]
fn paper_writes_the_same_bytes_at_1_and_2_threads() {
    let base = std::env::temp_dir().join(format!("mead-repro-paper-{}", std::process::id()));
    let run = |threads: &str| {
        let dir = base.join(threads);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let out = Command::new(env!("CARGO_BIN_EXE_mead-repro"))
            .args(["paper", "--threads", threads, "200"])
            .current_dir(&dir)
            .output()
            .expect("spawn mead-repro paper");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("results"))
            .expect("results/ written")
            .map(|e| {
                let path = e.expect("entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("read result"))
            })
            .collect();
        files.sort();
        (out.stdout, files)
    };
    let (one, two) = (run("1"), run("2"));
    assert!(String::from_utf8_lossy(&one.0).contains("MEAD Message"));
    assert_eq!(one.1.len(), 12, "every section-5 results file");
    assert!(one == two, "paper output differs between 1 and 2 threads");
    std::fs::remove_dir_all(&base).expect("remove temp dir");
}
