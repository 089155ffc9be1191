//! Host facts and small I/O helpers: the fingerprint every result
//! carries, peak resident memory, on-disk usage, a blocking HTTP/1.1
//! client and a Prometheus text reader.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::Command;
use std::time::Duration;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// `{"nproc":…,"cpu":…,"rustc":…,"git":…}` for the current host.
#[must_use]
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"git\":{}}}",
        json_str(&cpu),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["describe", "--always", "--dirty"])),
    )
}

/// A JSON string literal.
#[must_use]
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

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one),
/// in MiB.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes back all dirty pages (`sync`), so writeback left by whatever
/// ran before, such as the previous run's journals being deleted, does
/// not land inside a timed interval and slow its fsyncs.
pub fn settle_disk() {
    let _ = Command::new("sync").status();
}

/// `(files, bytes)` under `dir`, recursively.
#[must_use]
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut files = 0;
    let mut bytes = 0;
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (f, b) = dir_usage(&entry.path());
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    (files, bytes)
}

/// One blocking request on a fresh connection (the daemon answers one
/// request per connection): `(status, body)`.
///
/// # Errors
///
/// Any connect, write or read failure, or an unparsable status line.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request_bytes(method, path, body).as_slice())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw).ok_or_else(|| std::io::Error::other("malformed HTTP response"))
}

/// The exact bytes of one request.
#[must_use]
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `(status, body)` of a complete response.
#[must_use]
pub fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let text = String::from_utf8_lossy(raw);
    let status = text.split_whitespace().nth(1)?.parse().ok()?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_owned();
    Some((status, body))
}

/// Unlabeled sample values of a Prometheus text exposition (labeled
/// samples are summed into their family name), e.g.
/// `ags_solve_cache_hits_total` or `ags_serve_batch_width_sum`.
#[must_use]
pub fn prometheus_values(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let family = name.split('{').next().unwrap_or(name);
        if name.contains("_bucket{") {
            continue;
        }
        *out.entry(family.to_owned()).or_insert(0.0) += value;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_prometheus_text() {
        let text = "# HELP x y\nags_a_total 3\nags_b{route=\"/x\"} 2\nags_b{route=\"/y\"} 5\n\
                    ags_h_bucket{le=\"1\"} 4\nags_h_sum 2.5\nags_h_count 4\n";
        let v = prometheus_values(text);
        assert_eq!(v["ags_a_total"], 3.0);
        assert_eq!(v["ags_b"], 7.0);
        assert_eq!(v["ags_h_sum"], 2.5);
        assert!(!v.contains_key("ags_h_bucket"));
    }

    #[test]
    fn parses_responses() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Length: 9\r\n\r\n{\"task\":1}";
        assert_eq!(parse_response(raw), Some((202, "{\"task\":1}".to_owned())));
        assert_eq!(parse_response(b""), None);
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
