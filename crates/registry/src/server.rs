//! A std-only TCP front end for a shared [`SketchRegistry`].
//!
//! [`SketchServer`] binds a listener, accepts connections on a background
//! thread, and answers the line protocol of [`crate::protocol`] — one
//! request line, one `OK`/`ERR` response line. The registry lives behind a
//! mutex shared with the embedding process, so a program can serve remote
//! clients while ingesting locally through [`SketchServer::registry`].
//!
//! Clients may pipeline request lines: send a window of requests without
//! waiting for the answers. Responses come back in request order, and a
//! connection flushes them once per drained window — whenever its read
//! buffer holds no complete request line — so a window costs one write, not
//! one per request. Accepted streams set `TCP_NODELAY`, so a flush never
//! waits for the client's delayed ACK. A request split across reads, even
//! across a read-timeout poll, is reassembled before it is parsed. A request
//! line longer than [`MAX_REQUEST_LINE`] bytes is answered with
//! `ERR request line too long` and the connection is closed, so a client
//! that never sends a newline cannot grow the server's memory.
//!
//! Shutdown is cooperative and clean: the accept loop polls a flag between
//! non-blocking accepts, connection handlers poll it between read timeouts,
//! and [`SketchServer::shutdown`] joins every thread before returning — no
//! detached threads survive, which is what lets the test suite start and
//! stop servers freely.

use crate::protocol::Command;
use crate::registry::SketchRegistry;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Read timeout after which a connection handler re-checks the shutdown
/// flag (an idle client never pins the server open).
const READ_POLL: Duration = Duration::from_millis(50);
/// Longest request line the server reads, newline included; a longer one
/// is refused rather than buffered.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A running line-protocol server around a shared registry.
///
/// Dropping the server without calling [`SketchServer::shutdown`] also
/// shuts it down (blocking until the threads join).
pub struct SketchServer {
    registry: Arc<Mutex<SketchRegistry>>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<Vec<thread::JoinHandle<()>>>>,
}

impl SketchServer {
    /// Binds `addr` (use port 0 for an OS-assigned port, see
    /// [`SketchServer::local_addr`]) and starts serving `registry`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, e.g. a port already in use.
    pub fn bind(addr: impl ToSocketAddrs, registry: SketchRegistry) -> std::io::Result<Self> {
        let registry = Arc::new(Mutex::new(registry));
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_registry = Arc::clone(&registry);
        let accept_thread = thread::Builder::new()
            .name("sketch-server-accept".to_owned())
            .spawn(move || accept_loop(listener, accept_registry, accept_stop))
            .expect("spawning the accept thread");
        Ok(SketchServer {
            registry,
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared registry, for local ingestion or inspection alongside the
    /// network traffic.
    pub fn registry(&self) -> Arc<Mutex<SketchRegistry>> {
        Arc::clone(&self.registry)
    }

    /// Stops accepting, waits for every in-flight connection handler to
    /// notice the flag and finish, and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let connection_threads = handle.join().expect("accept thread never panics");
            for connection in connection_threads {
                let _ = connection.join();
            }
        }
    }
}

impl Drop for SketchServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Accepts connections until told to stop; returns the handler threads so
/// shutdown can join them.
fn accept_loop(
    listener: TcpListener,
    registry: Arc<Mutex<SketchRegistry>>,
    stop: Arc<AtomicBool>,
) -> Vec<thread::JoinHandle<()>> {
    let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reap finished handlers so a long-lived server does not
                // accumulate one join handle per past connection.
                handlers.retain(|h| !h.is_finished());
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let handle = thread::Builder::new()
                    .name("sketch-server-conn".to_owned())
                    .spawn(move || handle_connection(stream, registry, stop))
                    .expect("spawning a connection thread");
                handlers.push(handle);
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept error (e.g. a connection reset before
                // accept); keep serving.
                thread::sleep(ACCEPT_POLL);
            }
        }
    }
    handlers
}

/// Serves one client: read a line, execute, buffer its response line, until
/// QUIT, EOF, or server shutdown.
///
/// Responses are flushed exactly when the reader holds no complete request
/// line, i.e. before every read that could block, so a pipelined window is
/// answered in one write and a lone request in one segment.
fn handle_connection(
    stream: TcpStream,
    registry: Arc<Mutex<SketchRegistry>>,
    stop: Arc<AtomicBool>,
) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(writer) => BufWriter::new(writer),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Raw bytes, so a request split by a read timeout keeps its partial
    // prefix even when the split falls inside a multi-byte character.
    let mut line = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if !reader.buffer().contains(&b'\n') && writer.flush().is_err() {
            return;
        }
        // The read itself is bounded, so an endless line stops at the limit
        // instead of growing `line`.
        let budget = (MAX_REQUEST_LINE - line.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut line) {
            Ok(0) if line.is_empty() => return, // client closed the connection
            Ok(_) => {}
            Err(err)
                if err.kind() == ErrorKind::WouldBlock || err.kind() == ErrorKind::TimedOut =>
            {
                continue; // idle: re-check the shutdown flag, keeping any partial line
            }
            Err(_) => return,
        }
        if line.len() == MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let _ = writer.write_all(b"ERR request line too long\n");
            break;
        }
        let Ok(request) = std::str::from_utf8(&line) else {
            break; // not a text line: the protocol has no answer for it
        };
        if request.trim().is_empty() {
            line.clear();
            continue;
        }
        let (response, quit) = match Command::parse(request) {
            Ok(command) => {
                let response = {
                    let mut registry = registry
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    command.execute(&mut registry)
                };
                (response, command == Command::Quit)
            }
            Err(reason) => (format!("ERR {reason}"), false),
        };
        line.clear();
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .is_err()
        {
            return;
        }
        if quit {
            break;
        }
    }
    // Answers already buffered (QUIT's own, or those of a window cut short
    // by shutdown or a non-text line) still go out before the close.
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SketchRegistry;
    use std::io::BufRead;

    fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write command");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        response.trim_end().to_owned()
    }

    #[test]
    fn serves_the_protocol_over_loopback() {
        let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        assert_eq!(send(&mut stream, &mut reader, "PING"), "OK pong");
        assert_eq!(
            send(&mut stream, &mut reader, "CREATE t count-min:64x4"),
            "OK t0"
        );
        assert_eq!(send(&mut stream, &mut reader, "ADD t 5 2"), "OK");
        assert_eq!(send(&mut stream, &mut reader, "QUERY t 5"), "OK 2");
        assert_eq!(send(&mut stream, &mut reader, "QUIT"), "OK bye");
        server.shutdown();
    }

    #[test]
    fn embedding_process_shares_the_registry() {
        let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
        {
            let registry = server.registry();
            let mut registry = registry.lock().unwrap();
            registry
                .create(
                    "local",
                    crate::BackendSpec::parse("count-min:64x2").unwrap(),
                )
                .unwrap();
        }
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        assert_eq!(send(&mut stream, &mut reader, "ADD local 9 4"), "OK");
        assert_eq!(send(&mut stream, &mut reader, "QUERY local 9"), "OK 4");
        drop(stream);
        server.shutdown();
    }
}
