//! `harpd --hw <file>` and `--profile <name>=<file>`: the two description
//! files the daemon reads from disk. Each case spawns the real binary and
//! reads its output line by line; a running daemon is killed on drop.

use std::io::{BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};

fn data(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
}

/// A per-test scratch directory under the system temp dir.
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harpd-files-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

struct Daemon {
    child: Child,
    stdout: Lines<BufReader<ChildStdout>>,
    stderr: Lines<BufReader<ChildStderr>>,
}

impl Daemon {
    fn spawn(dir: &Path, args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_harpd"))
            .arg("--socket")
            .arg(dir.join("harpd.sock"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn harpd");
        let stdout = BufReader::new(child.stdout.take().expect("stdout")).lines();
        let stderr = BufReader::new(child.stderr.take().expect("stderr")).lines();
        Daemon {
            child,
            stdout,
            stderr,
        }
    }

    fn stdout_line(&mut self) -> String {
        self.stdout
            .next()
            .expect("harpd closed stdout early")
            .expect("stdout is UTF-8")
    }

    fn stderr_line(&mut self) -> String {
        self.stderr
            .next()
            .expect("harpd closed stderr early")
            .expect("stderr is UTF-8")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn hardware_and_profile_files_load() {
    let dir = scratch("ok");
    let hw = data("platform/tests/data/raptor_lake.json");
    let profile = format!("mg={}", data("libharp/tests/data/mg.json").display());
    let mut d = Daemon::spawn(
        &dir,
        &[
            "--hw",
            hw.to_str().expect("utf-8 path"),
            "--profile",
            &profile,
        ],
    );
    let loaded = d.stdout_line();
    assert!(
        loaded.contains("loaded profile 'mg'"),
        "first line: {loaded:?}"
    );
    let listening = d.stdout_line();
    assert!(
        listening.contains("listening"),
        "second line: {listening:?}"
    );
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_hardware_file_exits_nonzero() {
    let dir = scratch("bad-hw");
    let text = std::fs::read_to_string(data("platform/tests/data/raptor_lake.json")).unwrap();
    let hw = dir.join("hw.json");
    std::fs::write(&hw, &text[..text.len() / 2]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_harpd"))
        .arg("--socket")
        .arg(dir.join("harpd.sock"))
        .arg("--hw")
        .arg(&hw)
        .output()
        .expect("run harpd");
    assert!(
        !out.status.success(),
        "harpd accepted a truncated --hw file"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot load hardware description"),
        "stderr: {stderr:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_profile_file_is_skipped() {
    let dir = scratch("bad-profile");
    let profile = dir.join("bad.json");
    std::fs::write(&profile, "{\"name\": \"bad\", \"smt_widths\": [2, 1]}").unwrap();
    let arg = format!("bad={}", profile.display());
    let mut d = Daemon::spawn(&dir, &["--profile", &arg]);
    let skipped = d.stderr_line();
    assert!(
        skipped.contains("skipping profile 'bad'"),
        "stderr: {skipped:?}"
    );
    let listening = d.stdout_line();
    assert!(listening.contains("listening"), "stdout: {listening:?}");
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}
