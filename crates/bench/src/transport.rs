//! The transport layer: pluggable byte streams under one wire protocol.
//!
//! [`crate::proto`] owns *what* travels on the wire (framed NDJSON,
//! deadlines, heartbeats); this module owns *where* it travels. A
//! [`Conn`] is one bidirectional byte stream — a Unix socket or a TCP
//! socket — and a [`Listener`] accepts them, so `serve_connection` and
//! the worker supervisor are transport-blind: the same daemon loop serves
//! a local CLI over the Unix socket and a cross-machine client over TCP,
//! and the same supervision machinery drives a pool's own child worker
//! (registered on the pool's private Unix socket) and a remote `xloops
//! worker --connect` executor.
//!
//! Addresses are [`Endpoint`]s: a `tcp://HOST:PORT` string names a TCP
//! endpoint, anything else is a Unix socket path. Dial-style strings
//! (`xloops worker --connect HOST:PORT`) may omit the scheme — a
//! path-free `HOST:PORT` is TCP ([`Endpoint::parse_dial`]).
//!
//! TCP is the only transport that crosses a trust boundary
//! ([`Conn::is_remote`]): the protocol layer requires a version/token
//! handshake there, while Unix sockets (guarded by filesystem
//! permissions) stay handshake-optional for byte-compatibility with the
//! pre-network wire.
//!
//! Every TCP stream is `TCP_NODELAY`, set in the only two places one is
//! made ([`Listener::accept`] and [`Conn::connect`]). The wire's
//! heartbeat-then-reply pattern — a busy worker writes a small `hb` line,
//! then its reply — otherwise meets Nagle's algorithm: the reply waits
//! for the peer's delayed ACK of the heartbeat, about 40 ms on Linux.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A daemon address: a Unix socket path or a TCP `HOST:PORT`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A filesystem socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
}

impl Endpoint {
    /// Parses a listen/sock-style address: a `tcp://` scheme names a TCP
    /// endpoint, anything else is a Unix socket path.
    pub fn parse(s: &str) -> Endpoint {
        match s.strip_prefix("tcp://") {
            Some(addr) => Endpoint::Tcp(addr.to_string()),
            None => Endpoint::Unix(PathBuf::from(s)),
        }
    }

    /// Parses a dial-style address (`--connect`): like [`Endpoint::parse`],
    /// but a scheme-less `HOST:PORT` (no path separator) is TCP, so
    /// `--connect 10.0.0.2:7070` works without the `tcp://` spelling.
    pub fn parse_dial(s: &str) -> Endpoint {
        match Endpoint::parse(s) {
            Endpoint::Unix(p) if s.contains(':') && !s.contains('/') => {
                let _ = p;
                Endpoint::Tcp(s.to_string())
            }
            ep => ep,
        }
    }

    /// A Unix endpoint from a socket path.
    pub fn unix(path: impl Into<PathBuf>) -> Endpoint {
        Endpoint::Unix(path.into())
    }

    /// The address as users wrote it (TCP keeps its scheme).
    pub fn describe(&self) -> String {
        match self {
            Endpoint::Unix(p) => p.display().to_string(),
            Endpoint::Tcp(addr) => format!("tcp://{addr}"),
        }
    }
}

/// A bound accept source for one endpoint.
pub enum Listener {
    /// A Unix socket listener and the path it owns (unlinked on close).
    Unix {
        /// The bound listener.
        listener: UnixListener,
        /// The socket path, removed again by [`Listener::close`].
        path: PathBuf,
    },
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `ep`. A dead daemon leaves its Unix socket file behind and
    /// bind would fail with `AddrInUse`; a *live* daemon holds the
    /// listener, so stale paths are probed with a connect before being
    /// clobbered.
    pub fn bind(ep: &Endpoint) -> std::io::Result<Listener> {
        match ep {
            Endpoint::Unix(path) => {
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("a daemon is already listening on {}", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                Ok(Listener::Unix { listener: UnixListener::bind(path)?, path: path.clone() })
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }

    /// Accepts the next connection.
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Unix { listener, .. } => listener.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(listener) => listener.accept().and_then(|(s, _)| Conn::tcp(s)),
        }
    }

    /// The *bound* endpoint — for TCP this is the actual local address,
    /// so binding port `0` yields a connectable endpoint.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Listener::Unix { path, .. } => Endpoint::Unix(path.clone()),
            Listener::Tcp(listener) => Endpoint::Tcp(
                listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "0.0.0.0:0".to_string()),
            ),
        }
    }

    /// The endpoint a process on *this* machine dials to reach the
    /// listener — [`Listener::endpoint`], except that a TCP wildcard
    /// bind (`0.0.0.0` / `[::]`) is rewritten to its loopback address:
    /// connecting to an unspecified address is platform-dependent, and
    /// the daemon's shutdown poke must always land so the accept loop
    /// observes the flag and exits.
    pub fn poke_endpoint(&self) -> Endpoint {
        match self {
            Listener::Unix { path, .. } => Endpoint::Unix(path.clone()),
            Listener::Tcp(listener) => {
                let addr = listener
                    .local_addr()
                    .map(|mut a| {
                        if a.ip().is_unspecified() {
                            a.set_ip(match a.ip() {
                                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                            });
                        }
                        a.to_string()
                    })
                    .unwrap_or_else(|_| "127.0.0.1:0".to_string());
                Endpoint::Tcp(addr)
            }
        }
    }

    /// The bound TCP address, when this is a TCP listener.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(listener) => listener.local_addr().ok(),
            Listener::Unix { .. } => None,
        }
    }

    /// Closes the listener; a Unix socket also unlinks its path, so a
    /// clean shutdown never relies on stale-socket takeover.
    pub fn close(self) {
        if let Listener::Unix { listener, path } = self {
            drop(listener);
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One bidirectional byte stream carrying the NDJSON protocol.
pub enum Conn {
    /// A Unix-socket connection (local clients).
    Unix(UnixStream),
    /// A TCP connection (remote clients and remote workers).
    Tcp(TcpStream),
}

impl Conn {
    /// Dials `ep`.
    pub fn connect(ep: &Endpoint) -> std::io::Result<Conn> {
        match ep {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Conn::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).and_then(Conn::tcp),
        }
    }

    /// Wraps a TCP stream with Nagle's algorithm off, so a small line
    /// written after an unacknowledged one leaves at once.
    fn tcp(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn::Tcp(stream))
    }

    /// Whether the peer is outside this machine's trust boundary (TCP):
    /// the protocol layer requires the version/token handshake here.
    pub fn is_remote(&self) -> bool {
        matches!(self, Conn::Tcp(_))
    }

    /// Sets the read *and* write deadline.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Conn::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    /// Shuts the connection down in both directions; the peer observes
    /// EOF.
    pub fn shutdown(&self) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }

    /// Splits into independently owned read/write halves plus a control
    /// handle on the same socket, which can hang it up mid-read (reaping
    /// a remote worker) or re-arm its deadlines after a handshake. All
    /// three share one file description via `try_clone`, so deadlines set
    /// on any of them govern all of them.
    pub fn split(self) -> std::io::Result<SplitConn> {
        match self {
            Conn::Unix(s) => {
                let (w, c) = (s.try_clone()?, s.try_clone()?);
                Ok((Box::new(s), Box::new(w), Conn::Unix(c)))
            }
            Conn::Tcp(s) => {
                let (w, c) = (s.try_clone()?, s.try_clone()?);
                Ok((Box::new(s), Box::new(w), Conn::Tcp(c)))
            }
        }
    }
}

/// The owned halves of a split [`Conn`]: boxed reader, boxed writer, and
/// the control handle.
pub type SplitConn = (Box<dyn Read + Send>, Box<dyn Write + Send>, Conn);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{hb_doc, ok_fields, FrameReader, FrameWriter, Request};
    use xloops_stats::JsonValue;

    #[test]
    fn endpoint_parsing_distinguishes_schemes_paths_and_dials() {
        assert_eq!(Endpoint::parse("tcp://127.0.0.1:7070"), Endpoint::Tcp("127.0.0.1:7070".into()));
        assert_eq!(Endpoint::parse("/tmp/x.sock"), Endpoint::Unix(PathBuf::from("/tmp/x.sock")));
        // A scheme-less host:port dials TCP; anything with a path
        // separator stays a Unix path even if it contains colons.
        assert_eq!(Endpoint::parse_dial("10.0.0.2:7070"), Endpoint::Tcp("10.0.0.2:7070".into()));
        assert_eq!(
            Endpoint::parse_dial("/tmp/odd:name.sock"),
            Endpoint::Unix(PathBuf::from("/tmp/odd:name.sock"))
        );
        assert_eq!(
            Endpoint::parse("relative.sock"),
            Endpoint::Unix(PathBuf::from("relative.sock"))
        );
        assert_eq!(Endpoint::parse_dial("tcp://h:1").describe(), "tcp://h:1");
    }

    #[test]
    fn only_tcp_is_remote() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        assert!(!Conn::Unix(a).is_remote());
    }

    #[test]
    fn tcp_listener_round_trips_bytes_and_reports_its_bound_port() {
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind port 0");
        let ep = listener.endpoint();
        assert_ne!(ep.describe(), "tcp://127.0.0.1:0", "port 0 resolves to the real port");
        let client = std::thread::spawn(move || {
            let conn = Conn::connect(&ep).expect("dial");
            let (mut r, mut w, _ctl) = conn.split().expect("split");
            w.write_all(b"ping\n").unwrap();
            w.flush().unwrap();
            let mut buf = [0u8; 5];
            r.read_exact(&mut buf).unwrap();
            buf
        });
        let conn = listener.accept().expect("accept");
        assert!(conn.is_remote());
        let (mut r, mut w, _ctl) = conn.split().expect("split");
        let mut buf = [0u8; 5];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping\n");
        w.write_all(b"pong\n").unwrap();
        assert_eq!(&client.join().unwrap(), b"pong\n");
    }

    fn tcp_nodelay(conn: &Conn) -> bool {
        match conn {
            Conn::Tcp(s) => s.nodelay().expect("read TCP_NODELAY"),
            _ => panic!("expected a TCP connection"),
        }
    }

    #[test]
    fn heartbeat_then_reply_round_trips_do_not_wait_on_delayed_acks() {
        // A busy worker answers a job with a small heartbeat line and,
        // a moment later, a ~2.3 KiB reply. With Nagle's algorithm on,
        // the reply waits for the client's delayed ACK of the heartbeat
        // (~40 ms on Linux), so 50 round trips take about 2 s.
        const ROUNDS: usize = 50;
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind port 0");
        let ep = listener.endpoint();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().expect("accept");
            assert!(tcp_nodelay(&conn), "accepted TCP streams must be TCP_NODELAY");
            let (r, w, _ctl) = conn.split().expect("split");
            let (mut reader, mut writer) = (FrameReader::new(r), FrameWriter::new(w));
            let reply = ok_fields(vec![("artifact", JsonValue::Str("x".repeat(2300)))]);
            for _ in 0..ROUNDS {
                reader.next_line().expect("read").expect("a request line");
                writer.send(&hb_doc()).expect("heartbeat");
                std::thread::sleep(Duration::from_millis(2));
                writer.send(&reply).expect("reply");
            }
        });
        let conn = Conn::connect(&ep).expect("dial");
        assert!(tcp_nodelay(&conn), "dialled TCP streams must be TCP_NODELAY");
        let (r, w, _ctl) = conn.split().expect("split");
        let (mut reader, mut writer) = (FrameReader::new(r), FrameWriter::new(w));
        let start = std::time::Instant::now();
        for _ in 0..ROUNDS {
            writer.send(&Request::Ping.to_json_value()).expect("request");
            let reply = reader.next_reply().expect("reply");
            assert!(reply.get("artifact").is_some(), "heartbeats are skipped");
        }
        let elapsed = start.elapsed();
        server.join().expect("server thread");
        assert!(elapsed < Duration::from_secs(1), "{ROUNDS} round trips took {elapsed:?}");
    }

    #[test]
    fn poke_endpoint_rewrites_wildcard_binds_to_loopback() {
        let listener = Listener::bind(&Endpoint::Tcp("0.0.0.0:0".into())).expect("bind wildcard");
        let port = listener.tcp_addr().expect("tcp").port();
        assert_eq!(listener.poke_endpoint(), Endpoint::Tcp(format!("127.0.0.1:{port}")));
        assert!(Conn::connect(&listener.poke_endpoint()).is_ok(), "poke must land");
        // An explicit loopback bind passes through untouched.
        let lo = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind loopback");
        assert_eq!(lo.poke_endpoint(), lo.endpoint());
    }

    #[test]
    fn closing_a_unix_listener_unlinks_its_socket_file() {
        let path = std::env::temp_dir()
            .join(format!("xloops-transport-close-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = Listener::bind(&Endpoint::Unix(path.clone())).expect("bind");
        assert!(path.exists());
        listener.close();
        assert!(!path.exists(), "close must unlink the socket file");
    }
}
