//! What the benchmark reads from the machine: process CPU time, peak
//! memory, and the stamp that says where a number came from.

use std::process::Command;

use crate::json::Json;

/// User + system CPU time of this process, every thread (exited ones
/// included), in milliseconds: fields 14 and 15 of `/proc/self/stat`,
/// which tick every 10 ms (`USER_HZ` is 100 on Linux). It is read
/// around whole timed streams and totalled over a run, a second of
/// CPU time at the least. 0 where `/proc` is unavailable.
pub fn process_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The second field is
/// the command name in parentheses and may itself hold spaces and
/// parentheses, so the numbered fields are counted from the last `)`.
fn cpu_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat[stat.rfind(')')? + 1..].split_ascii_whitespace();
    // the state is field 3; utime and stime are fields 14 and 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in MB. 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = Command::new(program);
    // keep `git` from searching above the checkout for a repository
    if let Some(above) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(|d| d.parent())
    {
        command.env("GIT_CEILING_DIRECTORIES", above);
    }
    command
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine stamp every result file carries.
pub fn stamp() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        // a source archive without `.git` has no commit to name
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_counted_after_the_command_name() {
        let line = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(cpu_ticks(line), Some(1234 + 56));
        assert_eq!(cpu_ticks("no parenthesis here"), None);
        assert_eq!(cpu_ticks("1 (short) S 1 2"), None);
    }
}
