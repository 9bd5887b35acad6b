//! Loopback smoke test of the line-protocol server: spawns a real TCP
//! server on an OS-assigned port, drives the full command grammar over a
//! socket like any external client would, and verifies clean shutdown
//! (every server thread joined, no lingering listeners). The pipelining
//! cases pin the write discipline: round trips that do not stall on
//! delayed ACKs, one answer per pipelined line in order, and requests
//! split across the server's read-timeout poll.

use opthash_repro::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A tiny line-oriented client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        Self::connect_with_timeout(addr, Duration::from_secs(10))
    }

    fn connect_with_timeout(addr: std::net::SocketAddr, timeout: Duration) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_read_timeout(Some(timeout)).expect("set timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        self.write(&format!("{line}\n"));
        self.response()
    }

    /// Writes raw bytes in one call, without waiting for any answer.
    fn write(&mut self, bytes: &str) {
        self.stream
            .write_all(bytes.as_bytes())
            .expect("send command");
    }

    /// Reads one response line.
    fn response(&mut self) -> String {
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .expect("read response line");
        assert!(
            response.ends_with('\n'),
            "every response is one full line, got {response:?}"
        );
        response.trim_end().to_owned()
    }

    /// True once the server has closed the connection (EOF, no more bytes).
    fn closed(&mut self) -> bool {
        let mut rest = Vec::new();
        matches!(self.reader.read_to_end(&mut rest), Ok(0))
    }
}

fn registry_mass(server: &SketchServer) -> u64 {
    let registry = server.registry();
    let registry = registry.lock().expect("registry lock");
    registry.stats().ingested_mass
}

#[test]
fn full_protocol_over_loopback() {
    let registry = SketchRegistry::with_budget(SpaceBudget::from_kb(64.0));
    let server = SketchServer::bind("127.0.0.1:0", registry).expect("bind loopback");
    let mut client = Client::connect(server.local_addr());

    assert_eq!(client.send("PING"), "OK pong");

    // CREATE all three backend kinds.
    assert_eq!(client.send("CREATE flows count-min:256x4"), "OK t0");
    assert_eq!(client.send("CREATE queries count-sketch:128x4"), "OK t1");
    assert_eq!(client.send("CREATE heavy misra-gries:64"), "OK t2");
    assert!(client
        .send("CREATE flows count-min")
        .starts_with("ERR tenant 'flows'"));

    // ADD / QUERY round-trips, weighted and unweighted.
    assert_eq!(client.send("ADD flows 42"), "OK");
    assert_eq!(client.send("ADD flows 42 9"), "OK");
    assert_eq!(client.send("QUERY flows 42"), "OK 10");
    assert_eq!(client.send("QUERY flows 999"), "OK 0");
    assert_eq!(client.send("ADD queries 7 3"), "OK");
    assert_eq!(client.send("QUERY queries 7"), "OK 3");
    assert_eq!(client.send("ADD heavy 5 4"), "OK");
    assert_eq!(client.send("QUERY heavy 5"), "OK 4");

    // Typed errors surface as ERR lines.
    assert!(client
        .send("QUERY ghost 1")
        .starts_with("ERR unknown tenant"));
    assert!(client
        .send("ADD flows 1 0")
        .starts_with("ERR zero-weight update"));
    assert!(client.send("FROBNICATE").starts_with("ERR unknown command"));
    assert!(client
        .send("CREATE t bloom:9")
        .starts_with("ERR invalid backend spec"));
    // An oversized grid is refused before anything is allocated.
    assert!(client
        .send("CREATE t count-min:1000000000000x1")
        .starts_with("ERR invalid backend spec"));

    // STATS reflect everything above, including the conservation audit.
    let stats = client.send("STATS");
    assert!(stats.starts_with("OK tenants=3 "), "{stats}");
    assert!(stats.contains("mass=17"), "{stats}");
    assert!(stats.contains("unaccounted=0"), "{stats}");
    let tenant_stats = client.send("STATS flows");
    assert!(tenant_stats.contains("backend=count-min"), "{tenant_stats}");
    assert!(tenant_stats.contains("mass=10"), "{tenant_stats}");

    // DROP removes the tenant for every later command.
    assert_eq!(client.send("DROP heavy"), "OK t2");
    assert!(client
        .send("QUERY heavy 5")
        .starts_with("ERR unknown tenant"));

    // A second concurrent connection sees the same registry.
    let mut second = Client::connect(server.local_addr());
    assert_eq!(second.send("QUERY flows 42"), "OK 10");
    assert_eq!(second.send("QUIT"), "OK bye");

    assert_eq!(client.send("QUIT"), "OK bye");
    server.shutdown();
}

#[test]
fn shutdown_is_clean_and_releases_the_port() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    assert_eq!(client.send("PING"), "OK pong");
    // Shut down with the client still connected: shutdown must join the
    // handler (which notices the stop flag within its read poll) rather
    // than hang or leak the thread.
    server.shutdown();
    // The listener is gone: a fresh bind to the same port succeeds.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port must be released after shutdown");
}

#[test]
fn embedded_ingest_and_network_queries_share_state() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    {
        let registry = server.registry();
        let mut registry = registry.lock().expect("registry lock");
        registry
            .create(
                "local",
                BackendSpec::CountMin {
                    width: 128,
                    depth: 4,
                },
            )
            .expect("create tenant");
        for _ in 0..6 {
            registry
                .ingest("local", &StreamElement::without_features(11u64))
                .expect("local ingest");
        }
    }
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.send("QUERY local 11"), "OK 6");
    assert_eq!(client.send("ADD local 11"), "OK");
    {
        let registry = server.registry();
        let mut registry = registry.lock().expect("registry lock");
        let estimate = registry
            .query("local", &StreamElement::without_features(11u64))
            .expect("local query");
        assert_eq!(estimate, 7.0);
    }
    server.shutdown();
}

#[test]
fn sequential_round_trips_do_not_stall() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.send("CREATE t count-min:64x4"), "OK t0");
    assert_eq!(client.send("ADD t 5 3"), "OK");
    let start = Instant::now();
    for _ in 0..200 {
        assert_eq!(client.send("QUERY t 5"), "OK 3");
    }
    let elapsed = start.elapsed();
    // A response written in two segments with Nagle on waits ~40 ms for the
    // client's delayed ACK: 200 round trips would take ~8 s.
    assert!(
        elapsed < Duration::from_secs(2),
        "200 QUERY round trips took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn pipelined_window_is_answered_in_order() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.send("CREATE t count-sketch:16x3"), "OK t0");
    // Every eighth ADD names an unknown tenant, so its ERR answer marks a
    // position in the response stream.
    let mut window = String::new();
    let mut mass = 0;
    for i in 0..64u64 {
        if i % 8 == 7 {
            window.push_str(&format!("ADD ghost {i}\n"));
        } else {
            window.push_str(&format!("ADD t {} {}\n", i % 5, i + 1));
            mass += i + 1;
        }
    }
    window.push_str("QUERY t 3\n");
    client.write(&window);
    for i in 0..64 {
        let response = client.response();
        if i % 8 == 7 {
            assert!(
                response.starts_with("ERR unknown tenant"),
                "line {i}: {response}"
            );
        } else {
            assert_eq!(response, "OK", "line {i}");
        }
    }
    let answer = client.response();
    let socket: f64 = answer
        .strip_prefix("OK ")
        .and_then(|estimate| estimate.parse().ok())
        .unwrap_or_else(|| panic!("QUERY answered {answer:?}"));
    let local = {
        let registry = server.registry();
        let mut registry = registry.lock().expect("registry lock");
        registry
            .query("t", &StreamElement::without_features(3u64))
            .expect("tenant is live")
    };
    assert_eq!(socket.to_bits(), local.to_bits());
    assert_eq!(registry_mass(&server), mass);
    // Exactly 65 answers: the next one belongs to the next request.
    assert_eq!(client.send("PING"), "OK pong");
    server.shutdown();
}

#[test]
fn request_split_across_a_read_timeout_is_reassembled() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    client.write("PI");
    // Longer than the server's read poll, so the first half is read before
    // a timeout and the second after it.
    std::thread::sleep(Duration::from_millis(120));
    client.write("NG\n");
    assert_eq!(client.response(), "OK pong");
    server.shutdown();
}

/// A request line that never ends must not grow the server's memory: the
/// server reads at most 64 KiB of one line, refuses it without echoing it,
/// and closes the connection. Other clients are unaffected.
#[test]
fn an_overlong_request_line_is_refused_and_closes_the_connection() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    // The server stops reading at its limit, so the rest of the 1 MiB may
    // not fit in the socket buffers; write it from another thread.
    let mut stream = client.stream.try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || {
        let _ = stream.write_all(&vec![b'a'; 1 << 20]);
    });
    assert_eq!(client.response(), "ERR request line too long");
    // Closed: end of stream, or a reset for the bytes the server never read.
    let mut rest = Vec::new();
    match client.reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing follows the refusal"),
        Err(err) => assert_eq!(
            err.kind(),
            std::io::ErrorKind::ConnectionReset,
            "the server must close the connection, got {err}"
        ),
    }
    writer.join().expect("writer thread");
    assert_eq!(Client::connect(server.local_addr()).send("PING"), "OK pong");
    server.shutdown();
}

#[test]
fn blank_line_after_a_request_still_flushes_its_answer() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect_with_timeout(server.local_addr(), Duration::from_secs(1));
    client.write("PING\n\n");
    assert_eq!(client.response(), "OK pong");
    server.shutdown();
}

#[test]
fn quit_mid_window_answers_and_closes() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    client.write("CREATE t count-min:64x4\nADD t 5\nQUIT\nADD t 5\n");
    assert_eq!(client.response(), "OK t0");
    assert_eq!(client.response(), "OK");
    assert_eq!(client.response(), "OK bye");
    assert!(
        client.closed(),
        "the server closes the connection after QUIT"
    );
    // The ADD pipelined behind QUIT is never executed.
    assert_eq!(registry_mass(&server), 1);
    server.shutdown();
}

#[test]
fn direct_tenant_answers_over_loopback_match_the_registry() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.send("CREATE hot count-sketch:128x4"), "OK t0");
    let mut mass = 0;
    for i in 0..200u64 {
        assert_eq!(
            client.send(&format!("ADD hot {} {}", i % 23, i % 3 + 1)),
            "OK"
        );
        mass += i % 3 + 1;
    }
    for id in [0u64, 5, 22, 23, 999] {
        let answer = client.send(&format!("QUERY hot {id}"));
        let socket: f64 = answer
            .strip_prefix("OK ")
            .and_then(|estimate| estimate.parse().ok())
            .unwrap_or_else(|| panic!("QUERY answered {answer:?}"));
        let local = {
            let registry = server.registry();
            let mut registry = registry.lock().expect("registry lock");
            registry
                .query("hot", &StreamElement::without_features(id))
                .expect("tenant is live")
        };
        assert_eq!(socket.to_bits(), local.to_bits(), "id {id}");
    }
    assert!(client
        .send("STATS hot")
        .ends_with(&format!("mass={mass} elements=200 folds=0")));
    assert_eq!(registry_mass(&server), mass);
    server.shutdown();
}

#[test]
fn create_with_a_trailing_option_is_refused() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(
        client.send("CREATE t count-min:64x1 sharded:2"),
        "ERR CREATE: unexpected trailing field 'sharded:2'"
    );
    assert!(client.send("QUERY t 1").starts_with("ERR unknown tenant"));
    assert_eq!(client.send("PING"), "OK pong");
    server.shutdown();
}
