//! The served program as a child process, and a minimal line-protocol
//! client for it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// Every server runs unsharded, and a durable one syncs every batch.
pub const SHARDS: usize = 1;
pub const FSYNC: &str = "strict";

/// How one `eba serve` process is started.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub eba: PathBuf,
    pub data: PathBuf,
    /// `Some(pile)` serves durably, with [`FSYNC`].
    pub pile: Option<PathBuf>,
    pub log: PathBuf,
}

/// A running `eba serve --data DIR --groups --shards 1` child.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Process start to the `listening on` line.
    pub setup: Duration,
    /// The suite size the server reported at start-up.
    pub templates: Option<usize>,
}

impl Server {
    /// Starts the server and waits for its `listening on <addr>` line.
    pub fn start(spec: &ServeSpec) -> Res<Server> {
        let log = std::fs::File::create(&spec.log).map_err(|e| format!("server log: {e}"))?;
        let mut cmd = Command::new(&spec.eba);
        cmd.arg("serve")
            .arg("--data")
            .arg(&spec.data)
            .args(["--addr", "127.0.0.1:0", "--groups", "--shards"])
            .arg(SHARDS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log));
        if let Some(pile) = &spec.pile {
            cmd.arg("--pile").arg(pile).args(["--fsync", FSYNC]);
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", spec.eba.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup = started.elapsed();
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "server did not start (see {}): {line:?}",
                spec.log.display()
            ));
        };
        // `eba serve: <n> accesses, <t> templates, ...` precedes the
        // listening line on stderr.
        let log = std::fs::read_to_string(&spec.log).unwrap_or_default();
        let templates = log.lines().find_map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let i = words.iter().position(|w| w.starts_with("templates"))?;
            words.get(i.checked_sub(1)?)?.parse().ok()
        });
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            setup,
            templates,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size of the process so far, in MiB.
    pub fn peak_rss_mb(&self) -> Res<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Kills the process (no graceful shutdown: durability must not
    /// depend on one) and waits for it to exit.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Res<f64> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kb / 1024.0)
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The greeting frame's head line.
    pub greeting: String,
}

/// A reply or event frame: head line plus data lines (terminator
/// stripped).
pub type Frame = Vec<String>;

impl Conn {
    pub fn connect(addr: &str) -> Res<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
            greeting: String::new(),
        };
        let greeting = conn.read_frame()?;
        conn.greeting = greeting.into_iter().next().unwrap_or_default();
        Ok(conn)
    }

    /// Sends raw request bytes (one or more `\n`-terminated lines).
    pub fn send(&mut self, text: &str) -> Res<()> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one dot-terminated frame.
    pub fn read_frame(&mut self) -> Res<Frame> {
        let mut frame = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-frame".into());
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line == "." {
                return Ok(frame);
            }
            frame.push(line.to_string());
        }
    }

    /// A second handle on the connection's socket, for writing from
    /// another thread while this one blocks reading (a subscriber's
    /// `QUIT`).
    pub fn writer_handle(&self) -> Res<TcpStream> {
        self.writer.try_clone().map_err(|e| e.to_string())
    }

    /// One request line, one reply frame.
    pub fn request(&mut self, line: &str) -> Res<Frame> {
        self.send(&format!("{line}\n"))?;
        self.read_frame()
    }
}

/// The value following `key` in a space-separated head line
/// (`"OK ingest seq 3 rows 500"`, `"seq"` → `3`).
pub fn field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let mut words = line.split_whitespace();
    while let Some(w) = words.next() {
        if w == key {
            return words.next()?.parse().ok();
        }
    }
    None
}

/// The value of a `name value` body line of a frame.
pub fn body_value<T: std::str::FromStr>(frame: &Frame, name: &str) -> Option<T> {
    frame.iter().skip(1).find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok()).flatten()
    })
}

pub fn is_ok(frame: &Frame) -> bool {
    frame.first().is_some_and(|h| h.starts_with("OK"))
}

/// Removes a directory tree if it exists.
pub fn clear_dir(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_from_head_lines() {
        let head = "OK ingest seq 3 rows 500 new_rows 500 rebuilt 0";
        assert_eq!(field::<u64>(head, "seq"), Some(3));
        assert_eq!(field::<usize>(head, "rows"), Some(500));
        assert_eq!(field::<usize>(head, "missing"), None);
        let frame: Frame = vec!["OK metrics epoch 0".into(), "explained 12".into()];
        assert_eq!(body_value::<usize>(&frame, "explained"), Some(12));
    }
}
