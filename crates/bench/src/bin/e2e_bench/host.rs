//! The host record and the noise guard.

use crate::report::Flat;
use std::hint::black_box;
use std::time::Instant;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1-minute load average (`0.0` where `/proc` is absent).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A `kB` row of `/proc/self/status` in MiB (`0.0` where `/proc` is absent).
fn status_mib(row: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with(row))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Milliseconds a fixed single-threaded spin takes: the same arithmetic
/// every time, so a change between two readings is the host, not the store.
/// The median of three spins, because the first one after an idle spell
/// runs on a cold, boosted core and reads a fifth too fast.
pub fn calibration_ms() -> f64 {
    // An unoptimised build spins ten times slower; keep its tests quick.
    let spins: u64 = if cfg!(debug_assertions) {
        4_000_000
    } else {
        40_000_000
    };
    let mut readings = [0.0; 3];
    for reading in &mut readings {
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..spins {
            x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
        }
        black_box(x);
        *reading = started.elapsed().as_secs_f64() * 1e3;
    }
    crate::stats::median(&readings)
}

/// Whether a workload's numbers are too disturbed to become a baseline:
/// the calibration spin drifted by more than 10 % across it, or the host
/// was already loaded beyond half its cores when the command started.
pub fn is_noisy(calibration_before: f64, calibration_after: f64, load_at_start: f64) -> bool {
    let drift = (calibration_after - calibration_before).abs() / calibration_before.max(1e-9);
    drift > 0.10 || load_at_start > nproc() as f64 / 2.0
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host metadata rows of a result file.
pub fn record(out: &mut Flat, seed: u64, clients: usize, load_at_start: f64) {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|line| line.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |text| text.trim().to_owned());
    out.num("host.nproc", nproc() as f64);
    out.text("host.cpu_model", cpu_model);
    out.text("host.kernel", kernel);
    out.text("host.rustc", command_line("rustc", &["-V"]));
    out.text(
        "host.git_commit",
        command_line("git", &["rev-parse", "HEAD"]),
    );
    out.text(
        "host.build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    out.num("host.seed", seed as f64);
    out.num("host.clients", clients as f64);
    out.num("host.loadavg_1m", load_at_start);
    out.text(
        "host.flush_policy",
        "the store's own: no fsync per put, sync_data when a 64 MiB log rolls",
    );
    out.text(
        "host.read_path",
        "OS page cache: latencies are this sandbox's, not a device's",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_guard_flags_drift_and_a_loaded_host() {
        assert!(!is_noisy(50.0, 52.0, 0.0));
        assert!(is_noisy(50.0, 56.0, 0.0));
        assert!(is_noisy(50.0, 44.0, 0.0));
        assert!(is_noisy(50.0, 50.0, nproc() as f64));
    }

    #[test]
    fn proc_readings_are_sane_on_linux() {
        assert!(nproc() >= 1);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
        assert!(load_average() >= 0.0);
    }
}
