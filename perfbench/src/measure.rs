//! Process resource counters, order statistics and the host record.

use std::path::Path;
use std::process::Command;

/// `struct rusage` on 64-bit Linux: two `timeval`s (two `i64` each)
/// followed by fourteen `long` counters, `ru_maxrss` first.
#[repr(C)]
struct RUsage {
    user: [i64; 2],
    system: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut usage = RUsage {
        user: [0; 2],
        system: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let usage = rusage();
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    seconds(usage.user) + seconds(usage.system)
}

/// Peak resident set of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Wall and CPU seconds of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (wall, cpu) = (std::time::Instant::now(), cpu_seconds());
    let result = f();
    (result, wall.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What a result records about the machine and the build it ran on.
pub fn host_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git_commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_owned()
    };
    format!(
        "{{\"available_parallelism\": {parallelism}, \"nproc\": {}, \"rustc\": {}, \
         \"git_commit\": {}, \"os\": {}, \"arch\": {}}}",
        json_str(&command_line("nproc", &[])),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&git_commit),
        json_str(std::env::consts::OS),
        json_str(std::env::consts::ARCH),
    )
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_owned(),
        _ => "unknown".to_owned(),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become null.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn process_counters_are_live() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn json_helpers_escape_and_reject_non_finite() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
