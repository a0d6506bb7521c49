//! The few operating-system reads the benchmark needs: a child's peak RSS
//! from `wait4`, and a running process's `VmHWM` from `/proc`.

use std::process::{Child, Output};

/// `struct rusage` on 64-bit Linux: two `timeval`s (2 × i64 each) followed
/// by fourteen `long` counters, `ru_maxrss` (KiB) first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Collect a child's stdout and stderr, reap it with `wait4`, and return
/// its output plus its peak resident set size in MB.
///
/// Both pipes are drained before reaping (stderr on its own thread), so a
/// child that fills one pipe never blocks. The child must not have been
/// waited on already.
pub fn wait_with_rusage(mut child: Child) -> std::io::Result<(Output, f64)> {
    use std::io::Read as _;
    let mut stderr = child.stderr.take();
    let err_thread = std::thread::spawn(move || {
        let mut buf = Vec::new();
        if let Some(e) = stderr.as_mut() {
            let _ = e.read_to_end(&mut buf);
        }
        buf
    });
    let mut stdout = Vec::new();
    if let Some(mut o) = child.stdout.take() {
        o.read_to_end(&mut stdout)?;
    }
    let stderr = err_thread.join().expect("stderr reader thread panicked");
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `wait4` writes one `int` through `status` and one
    // `struct rusage` through `ru`; both point to live, properly sized and
    // aligned locals (`Rusage` is `repr(C)` with the 64-bit Linux layout).
    // `pid` names our own unreaped child, so the call cannot reap an
    // unrelated process.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    if rc != pid {
        return Err(std::io::Error::last_os_error());
    }
    let status = std::os::unix::process::ExitStatusExt::from_raw(status);
    Ok((
        Output {
            status,
            stdout,
            stderr,
        },
        ru.maxrss_kb as f64 / 1024.0,
    ))
}

/// A memory field of `/proc/<pid>/status` (`VmHWM`, the peak resident set
/// size, or `VmRSS`, the current one) in MB.
pub fn status_mb(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
