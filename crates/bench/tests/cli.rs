//! A cc-bench binary given a flag it does not know, or a flag without its
//! value, exits with status 2 and its usage line before it runs anything.

use std::process::Command;

#[test]
fn unknown_and_incomplete_flags_exit_2_with_the_usage_line() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_run_all"), &["--quick", "--dump"][..]),
        (env!("CARGO_BIN_EXE_exp_chaos"), &["--quick", "--json"]),
        (env!("CARGO_BIN_EXE_exp_engine"), &["--quick", "--dump"]),
    ] {
        let output = Command::new(bin)
            .args(args)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{bin} {args:?} ran before rejecting its flags"
        );
    }
}
