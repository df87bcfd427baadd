//! A loopback TCP relay the traced `sweep_tcp` run places in front of the
//! daemon listener. Clients and remote workers dial the relay, which
//! forwards bytes both ways and counts the frames and bytes that really
//! crossed the wire, keeping the lines for the codec replays.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Frames (non-blank lines) and bytes seen since the last [`Relay::take`].
#[derive(Default)]
pub struct Traffic {
    pub bytes: u64,
    pub lines: Vec<Vec<u8>>,
}

struct Shared {
    target: SocketAddr,
    stop: AtomicBool,
    traffic: Mutex<Traffic>,
    conns: Mutex<Vec<Relayed>>,
}

/// One relayed connection: a handle on both sockets, so `stop` can unblock
/// the pumps, and the two pump threads.
struct Relayed {
    socks: [TcpStream; 2],
    pumps: [JoinHandle<()>; 2],
}

pub struct Relay {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl Relay {
    pub fn start(target: SocketAddr) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            target,
            stop: AtomicBool::new(false),
            traffic: Mutex::new(Traffic::default()),
            conns: Mutex::new(Vec::new()),
        });
        let s = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for client in listener.incoming() {
                if s.stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(client) = client else { continue };
                let Ok(server) = TcpStream::connect(s.target) else { continue };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(client2), Ok(server2), Ok(client3), Ok(server3)) = (
                    client.try_clone(),
                    server.try_clone(),
                    client.try_clone(),
                    server.try_clone(),
                ) else {
                    continue;
                };
                let (s1, s2) = (Arc::clone(&s), Arc::clone(&s));
                let pumps = [
                    std::thread::spawn(move || pump(client, server, &s1)),
                    std::thread::spawn(move || pump(server2, client2, &s2)),
                ];
                let mut conns = s.conns.lock().expect("relay connection list lock");
                // Reap finished connections so their sockets close.
                for done in conns.extract_if(.., |c| c.pumps.iter().all(JoinHandle::is_finished)) {
                    for p in done.pumps {
                        let _ = p.join();
                    }
                }
                conns.push(Relayed { socks: [client3, server3], pumps });
            }
        });
        Ok(Relay { addr, shared, accept })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The traffic since the previous call, resetting the counters.
    pub fn take(&self) -> Traffic {
        std::mem::take(&mut *self.shared.traffic.lock().expect("relay traffic lock"))
    }

    /// Stops accepting, closes every relayed socket and joins every thread.
    pub fn stop(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().expect("relay connection list lock"));
        for conn in conns {
            for sock in &conn.socks {
                let _ = sock.shutdown(Shutdown::Both);
            }
            for p in conn.pumps {
                let _ = p.join();
            }
        }
    }
}

/// Copies one direction until EOF, splitting the stream into lines as it
/// passes, then half-closes the other side so the peer sees EOF too.
fn pump(mut from: TcpStream, mut to: TcpStream, shared: &Shared) {
    let mut buf = vec![0u8; 64 * 1024];
    let mut line = Vec::new();
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        {
            let mut traffic = shared.traffic.lock().expect("relay traffic lock");
            traffic.bytes += n as u64;
            for chunk in buf[..n].split_inclusive(|&b| b == b'\n') {
                line.extend_from_slice(chunk);
                if chunk.ends_with(b"\n") {
                    if !line.iter().all(u8::is_ascii_whitespace) {
                        traffic.lines.push(std::mem::take(&mut line));
                    }
                    line.clear();
                }
            }
        }
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}
