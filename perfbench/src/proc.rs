//! Child processes of the program under test: building it, running it to
//! completion with its wall time and peak resident memory, and reading a
//! live process's peak memory.

use std::fs::File;
use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

/// Builds the release `offtarget` binary from the checkout at `root` and
/// returns its path. Cargo's output goes to this process's stderr.
pub fn build_program(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--offline", "--release", "--quiet", "--bin", "offtarget"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building offtarget failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let program = target.join("release").join("offtarget");
    if !program.is_file() {
        return Err(format!("{} was not built", program.display()));
    }
    Ok(program)
}

/// A finished child process.
pub struct Finished {
    pub wall_s: f64,
    pub peak_rss_mib: f64,
    pub status: ExitStatus,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `command` to completion with stdin and stdout closed and stderr
/// appended to `stderr_file`, timing it from spawn to exit.
pub fn run(command: &mut Command, stderr_file: &Path) -> io::Result<Finished> {
    let stderr = File::options().create(true).append(true).open(stderr_file)?;
    command.stdin(Stdio::null()).stdout(Stdio::null()).stderr(stderr);
    command.env_remove("OFFTARGET_INJECT");
    let start = Instant::now();
    let child = command.spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut raw_status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on a
        // `Child` we do not ask it to), and both out-pointers refer to
        // live, writable locals of the C layout `wait4` fills.
        let reaped = unsafe { wait4(pid, &mut raw_status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // `child` is reaped; dropping it neither waits nor kills.
    drop(child);
    Ok(Finished {
        wall_s,
        peak_rss_mib: usage.maxrss_kib as f64 / 1024.0,
        status: ExitStatus::from_raw(raw_status),
    })
}

/// The peak resident memory (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
