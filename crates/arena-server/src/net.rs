//! Transport layer: the TCP listener and the `--stdin` line loop.
//!
//! Both transports are thin: read a line, hand it to
//! [`ServerHandle::handle_line`], write the response line back. Queries
//! are answered inside `handle_line` from the snapshot hub without ever
//! reaching the daemon thread, so a slow drain never stalls a reader.
//!
//! Every line goes out as one write of the body and its newline, and
//! sockets run with `TCP_NODELAY`: written in two parts, Nagle's
//! algorithm holds the 1-byte newline until the peer's delayed ACK,
//! about 40 ms per reply.

use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

use crate::daemon::ServerHandle;

/// Serves the protocol over a `BufRead`/`Write` pair — the `repro serve
/// --stdin` mode and the in-process harness the fuzz suite drives.
/// Returns after EOF or once shutdown has been requested. A `watch`
/// command streams one response line per sample; the stream ends (and
/// the next command is read) once its `count` is reached, shutdown is
/// requested, or the peer goes away.
///
/// # Errors
///
/// Propagates write errors on `output`; read errors end the loop
/// silently (a closed pipe is a normal way for a session to end).
pub fn serve_lines<R: BufRead, W: Write>(
    handle: &ServerHandle,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let Ok(line) = line else { break };
        let mut io_err: Option<std::io::Error> = None;
        handle.handle_line_sink(&line, &mut |response| {
            let wrote = output
                .write_all(format!("{response}\n").as_bytes())
                .and_then(|()| output.flush());
            match wrote {
                Ok(()) => true,
                Err(e) => {
                    io_err = Some(e);
                    false
                }
            }
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        if handle.is_shutdown() {
            break;
        }
    }
    Ok(())
}

/// Binds a TCP listener on `addr` (use port 0 for an ephemeral port)
/// and returns the bound address plus the acceptor thread's handle.
/// The acceptor blocks in `accept` and exits on its own once shutdown is
/// requested: every shutdown request connects once to the listener to
/// wake it. Each connection gets a thread running the same line loop as
/// [`serve_lines`].
///
/// # Errors
///
/// Propagates bind failures.
pub fn spawn_listener(
    handle: &ServerHandle,
    addr: &str,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    handle.wake_on_shutdown(loopback(local));
    let handle = handle.clone();
    let acceptor = std::thread::Builder::new()
        .name("arena-acceptor".to_string())
        .spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                // A shutdown's wake-up connection lands here too.
                if handle.is_shutdown() {
                    break;
                }
                let Ok(stream) = stream else { break };
                let h = handle.clone();
                if let Ok(t) = std::thread::Builder::new()
                    .name("arena-conn".to_string())
                    .spawn(move || serve_conn(&h, stream))
                {
                    conns.push(t);
                }
            }
            for t in conns {
                let _ = t.join();
            }
        })?;
    Ok((local, acceptor))
}

/// The address a local client reaches a listener bound to `addr` at.
fn loopback(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

fn serve_conn(handle: &ServerHandle, stream: TcpStream) {
    // Without it, a reply written while an earlier segment is still
    // unacknowledged can wait for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(stream);
    let _ = serve_lines(handle, reader, write_half);
}
