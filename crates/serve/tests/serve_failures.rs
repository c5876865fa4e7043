//! Failure injection for the service path: disconnects, forged and
//! truncated frames, oversized claims, slow-loris stalls, queue-full
//! admission rejection, and drain-with-in-flight-work — every abnormal
//! path must end in a typed response or a clean close, never a hang or a
//! crash.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use lcpio_serve::protocol::{self, status, Op, Request, Response};
use lcpio_serve::{
    drive, Client, CompressOptions, Endpoint, FaultPlan, ServeConfig, Server, WorkloadConfig,
};

fn tcp_server(cfg: ServeConfig) -> (Server, String) {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".to_string()), cfg).expect("bind");
    let addr = match server.endpoint() {
        Endpoint::Tcp(a) => a.clone(),
        other => panic!("unexpected endpoint {other:?}"),
    };
    (server, addr)
}

fn raw_conn(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    s
}

/// Read exactly `n` response frames off a raw stream.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<Response> {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while out.len() < n {
        if let Ok(Some(len)) = protocol::frame_len(&buf) {
            if buf.len() >= len {
                let frame: Vec<u8> = buf.drain(..len).collect();
                out.push(Response::decode(&frame).expect("response decode").0);
                continue;
            }
        }
        let got = stream.read(&mut chunk).expect("read");
        assert!(got > 0, "connection closed after {} of {} responses", out.len(), n);
        buf.extend_from_slice(&chunk[..got]);
    }
    out
}

fn sample_field(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.02).sin()).collect()
}

/// A fixed-policy SZ compress request at abs 1e-3, the suite's stock work.
fn sz_request(id: u64, data: &[f32], dims: &[usize]) -> Request {
    Request::compress(
        id,
        data,
        dims,
        lcpio_codec::CodecId::Sz,
        lcpio_codec::BoundSpec::Absolute(1e-3),
        lcpio_core::PolicyKind::Fixed,
    )
}

#[test]
fn mid_request_disconnect_is_tolerated() {
    let cfg = ServeConfig {
        workers: 1,
        fault: FaultPlan { worker_delay_ms: 150 },
        ..ServeConfig::default()
    };
    let (server, addr) = tcp_server(cfg);

    // Send a whole compress request, then vanish while it is in flight.
    {
        let req = sz_request(7, &sample_field(1024), &[1024]);
        let mut s = raw_conn(&addr);
        s.write_all(&req.encode()).expect("write");
        // Dropping the stream closes the socket with the response pending.
    }

    // The server keeps serving; the orphaned request still executes.
    let t0 = Instant::now();
    loop {
        let stats = server.stats();
        if stats.compress == 1 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "orphaned request never completed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = Client::connect_tcp(&addr).expect("second connection");
    assert!(client.ping().expect("ping after disconnect"));
    server.shutdown();
    server.wait();
}

#[test]
fn forged_magic_gets_typed_error_then_close() {
    let (server, addr) = tcp_server(ServeConfig::default());
    let mut s = raw_conn(&addr);
    s.write_all(b"NOPE\x01\x00\x00\x00garbage").expect("write");
    let resp = &read_responses(&mut s, 1)[0];
    assert_eq!(resp.status, status::MALFORMED);
    assert!(resp.message.contains("magic"), "{}", resp.message);
    // After a frame whose boundary can't be trusted, the server closes.
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).expect("EOF"), 0);
    server.shutdown();
    server.wait();
}

#[test]
fn truncated_tlv_in_sound_frame_keeps_connection_usable() {
    let (server, addr) = tcp_server(ServeConfig::default());
    let mut s = raw_conn(&addr);

    // Outer lengths are consistent (frame boundary knowable), but the TLV
    // block inside is cut short: value claims 5 bytes, 2 present.
    let mut frame = b"LCRQ\x01\x00".to_vec();
    frame.push(4); // header length
    frame.extend_from_slice(&[0x01, 5, 0xAA, 0xBB]);
    frame.push(0); // payload length
    s.write_all(&frame).expect("write");
    let resp = &read_responses(&mut s, 1)[0];
    assert_eq!(resp.status, status::MALFORMED);

    // Same connection, well-formed follow-up: still served.
    s.write_all(&Request::control(9, Op::Ping).encode()).expect("write");
    let resp = &read_responses(&mut s, 1)[0];
    assert_eq!(resp.status, status::OK);
    assert_eq!(resp.id, 9);
    server.shutdown();
    server.wait();
}

#[test]
fn oversized_claims_are_limit_errors() {
    // Forged header length beyond the protocol ceiling.
    {
        let (server, addr) = tcp_server(ServeConfig::default());
        let mut s = raw_conn(&addr);
        let mut frame = b"LCRQ\x01\x00".to_vec();
        // varint for MAX_HEADER_LEN + 1
        let mut v = (protocol::MAX_HEADER_LEN + 1) as u64;
        while v >= 0x80 {
            frame.push((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        frame.push(v as u8);
        s.write_all(&frame).expect("write");
        let resp = &read_responses(&mut s, 1)[0];
        assert_eq!(resp.status, status::LIMIT);
        let mut rest = Vec::new();
        assert_eq!(s.read_to_end(&mut rest).expect("EOF"), 0);
        server.shutdown();
        server.wait();
    }
    // Payload larger than the server's configured admission cap.
    {
        let cfg = ServeConfig { max_payload: 4096, ..ServeConfig::default() };
        let (server, addr) = tcp_server(cfg);
        let mut s = raw_conn(&addr);
        let req = sz_request(3, &sample_field(4096), &[4096]); // 16 KiB > 4 KiB cap
        s.write_all(&req.encode()).expect("write");
        let resp = &read_responses(&mut s, 1)[0];
        assert_eq!(resp.status, status::LIMIT);
        assert!(resp.message.contains("payload cap"), "{}", resp.message);
        server.shutdown();
        server.wait();
    }
}

#[test]
fn slow_loris_partial_header_hits_read_timeout() {
    let cfg = ServeConfig { read_timeout: Duration::from_millis(200), ..ServeConfig::default() };
    let (server, addr) = tcp_server(cfg);
    let mut s = raw_conn(&addr);
    // Dribble out a frame prefix and then stall forever.
    s.write_all(b"LCRQ\x01").expect("write");
    let t0 = Instant::now();
    let mut rest = Vec::new();
    // The server must close the connection (EOF), not wait for the rest.
    assert_eq!(s.read_to_end(&mut rest).expect("EOF"), 0);
    assert!(rest.is_empty(), "no response is owed on a frame that never finished");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "slow-loris connection survived far past the read timeout"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn queue_full_is_a_typed_busy_error() {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        fault: FaultPlan { worker_delay_ms: 500 },
        ..ServeConfig::default()
    };
    let (server, addr) = tcp_server(cfg);
    let mut s = raw_conn(&addr);
    let data = sample_field(512);
    let mut batch = Vec::new();
    for id in 1..=3u64 {
        batch.extend_from_slice(&sz_request(id, &data, &[512]).encode());
    }
    // One write: the worker is pinned for 500 ms per request, the queue
    // holds one, so of three pipelined requests at least one must be
    // rejected with the typed busy status — and responses still arrive in
    // request order.
    s.write_all(&batch).expect("write");
    let resps = read_responses(&mut s, 3);
    assert_eq!(resps.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
    let busy = resps.iter().filter(|r| r.status == status::BUSY).count();
    let ok = resps.iter().filter(|r| r.status == status::OK).count();
    assert!(busy >= 1, "expected at least one BUSY rejection, got {resps:?}");
    assert_eq!(busy + ok, 3, "unexpected statuses in {resps:?}");
    for r in &resps {
        if r.status == status::BUSY {
            assert!(r.message.contains("retry"), "{}", r.message);
        }
    }
    server.shutdown();
    let stats = server.wait();
    assert_eq!(stats.busy_rejected as usize, busy);
}

#[test]
fn drain_completes_in_flight_work_and_rejects_new_requests() {
    let cfg = ServeConfig {
        workers: 1,
        fault: FaultPlan { worker_delay_ms: 300 },
        ..ServeConfig::default()
    };
    let (server, addr) = tcp_server(cfg);
    let mut s = raw_conn(&addr);
    let data = sample_field(512);
    let compress = |id: u64| sz_request(id, &data, &[512]).encode();
    // Pipelined in one write: slow compress, shutdown, another compress.
    let mut batch = compress(1);
    batch.extend_from_slice(&Request::control(2, Op::Shutdown).encode());
    batch.extend_from_slice(&compress(3));
    s.write_all(&batch).expect("write");

    // In-flight work completes and flushes before the drain finishes.
    let first_two = read_responses(&mut s, 2);
    assert_eq!(first_two[0].id, 1);
    assert_eq!(first_two[0].status, status::OK, "{}", first_two[0].message);
    assert!(!first_two[0].payload.is_empty(), "in-flight compress result was dropped");
    assert_eq!(first_two[1].id, 2);
    assert_eq!(first_two[1].status, status::OK);

    // The request behind the shutdown is either rejected with the typed
    // draining status or the connection closes cleanly — never served.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let third = loop {
        if let Ok(Some(len)) = protocol::frame_len(&buf) {
            if buf.len() >= len {
                break Some(Response::decode(&buf[..len]).expect("decode").0);
            }
        }
        match s.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break None,
        }
    };
    if let Some(resp) = third {
        assert_eq!(resp.status, status::SHUTTING_DOWN, "{resp:?}");
        assert_eq!(resp.id, 3);
    }

    let stats = server.wait();
    assert_eq!(stats.compress, 1, "exactly the pre-drain compress ran");
}

#[test]
fn a_client_that_never_reads_cannot_hang_the_drain() {
    // Six pipelined 4 MB responses that nobody reads. The first fills the
    // socket buffers and misses the write deadline; that closes the
    // connection, and the drain goes on without it.
    let n = 1usize << 20;
    let sz = lcpio_codec::registry().by_name("sz").expect("registered codec");
    let container = sz
        .compress(&sample_field(n), &[n], lcpio_codec::BoundSpec::Absolute(1e-3))
        .expect("compress")
        .bytes;
    let cfg = ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (server, addr) = tcp_server(cfg);
    let mut s = raw_conn(&addr);
    let mut batch = Vec::new();
    for id in 1..=6u64 {
        batch.extend_from_slice(&Request::decompress(id, &container).encode());
    }
    s.write_all(&batch).expect("write");
    // Drain only once all six are admitted, or they would be answered
    // SHUTTING_DOWN, a few bytes each.
    let t0 = Instant::now();
    while server.stats().requests < 6 {
        assert!(t0.elapsed() < Duration::from_secs(10), "requests never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let (done, drained) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = done.send(server.wait());
    });
    let stats = drained
        .recv_timeout(Duration::from_secs(20))
        .expect("the drain is still blocked on a client that does not read");
    waiter.join().expect("wait() panicked");
    assert_eq!(stats.decompress, 6, "every admitted request still ran");
    // Open and unread until the drain is over.
    drop(s);
}

#[test]
fn out_of_order_completion_across_workers_commits_in_request_order() {
    // The compress holds one worker for tens of milliseconds; the INFO
    // behind it runs on the other worker and finishes first.
    let (server, addr) = tcp_server(ServeConfig { workers: 2, ..ServeConfig::default() });
    let mut s = raw_conn(&addr);
    let n = 2usize << 20;
    let compress = Request::compress(
        1,
        &sample_field(n),
        &[n],
        lcpio_codec::CodecId::Sz,
        lcpio_codec::BoundSpec::Absolute(1e-4),
        lcpio_core::PolicyKind::Fixed,
    );
    let sz = lcpio_codec::registry().by_name("sz").expect("registered codec");
    let small = sz
        .compress(&sample_field(256), &[256], lcpio_codec::BoundSpec::Absolute(1e-3))
        .expect("compress")
        .bytes;
    let mut batch = compress.encode();
    batch.extend_from_slice(&Request::info(2, &small).encode());
    s.write_all(&batch).expect("write");
    let resps = read_responses(&mut s, 2);
    assert_eq!(resps.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2]);
    for r in &resps {
        assert_eq!(r.status, status::OK, "{}", r.message);
    }
    server.shutdown();
    server.wait();
}

#[test]
fn unknown_op_and_bad_request_leave_connection_usable() {
    let (server, addr) = tcp_server(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");

    // Dims that do not match the payload: typed BAD_REQUEST.
    let mut req = sz_request(5, &sample_field(256), &[256]);
    req.dims = vec![999];
    let resp = client.call(&req).expect("call");
    assert_eq!(resp.status, status::BAD_REQUEST);
    assert!(resp.message.contains("dims"), "{}", resp.message);

    // Decompress of bytes that are no known container: typed CODEC error.
    let resp = client.decompress(b"XXXXnot a container").expect("call");
    assert_eq!(resp.status, status::CODEC);

    // The same connection still serves real work afterwards.
    let resp = client
        .compress(&sample_field(256), &[256], CompressOptions::default())
        .expect("compress");
    assert_eq!(resp.status, status::OK);
    server.shutdown();
    server.wait();
}

#[test]
fn forged_dims_whose_byte_length_overflows_get_a_typed_status() {
    // 2^62 elements fit a `usize`, their byte length does not. Unchecked,
    // `n * 4` panics the only worker (no reply for that seq, so the
    // ordered writer wedges the connection) or, wrapping to 0, matches the
    // empty payload.
    let (server, addr) = tcp_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut s = raw_conn(&addr);
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    // Pipelined in one write: the forged request, a ping behind it (answered
    // inline, so it waits on the writer's order), real work for the shard.
    let mut batch = sz_request(1, &[], &[1 << 62]).encode();
    batch.extend_from_slice(&Request::control(2, Op::Ping).encode());
    batch.extend_from_slice(&sz_request(3, &sample_field(256), &[256]).encode());
    s.write_all(&batch).expect("write");
    let resps = read_responses(&mut s, 3);
    assert_eq!(resps.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
    assert_eq!(resps[0].status, status::LIMIT, "{}", resps[0].message);
    assert!(resps[0].message.contains("dims product"), "{}", resps[0].message);
    assert_eq!(resps[1].status, status::OK);
    assert_eq!(resps[2].status, status::OK, "{}", resps[2].message);
    server.shutdown();
    server.wait();
}

#[test]
fn forged_zfl1_payload_len_gets_a_typed_status() {
    // A `ZFL1` header that claims `u64::MAX` payload bytes wrapped the
    // decoder's `pos + n` past its length test and panicked on the slice:
    // here, the only worker, with the connection wedged behind it.
    let zfp = lcpio_codec::registry().by_name("zfp").expect("registered codec");
    let good = zfp
        .compress(&sample_field(256), &[256], lcpio_codec::BoundSpec::Absolute(1e-3))
        .expect("compress")
        .bytes;
    assert_eq!(&good[..4], b"ZFL1");
    // Magic, type, rank, one dim, mode tag and parameter, then the length.
    let at = 4 + 1 + 1 + 8 + 1 + 8;
    let mut forged = good[..at + 8].to_vec();
    forged[at..].copy_from_slice(&u64::MAX.to_le_bytes());

    let (server, addr) = tcp_server(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut s = raw_conn(&addr);
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    // Pipelined in one write, as in the forged-dims case above.
    let mut batch = Request::decompress(1, &forged).encode();
    batch.extend_from_slice(&Request::control(2, Op::Ping).encode());
    batch.extend_from_slice(&Request::decompress(3, &good).encode());
    s.write_all(&batch).expect("write");
    let resps = read_responses(&mut s, 3);
    assert_eq!(resps.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
    assert_eq!(resps[0].status, status::CODEC, "{}", resps[0].message);
    assert!(resps[0].message.contains("unexpected end of stream"), "{}", resps[0].message);
    assert_eq!(resps[1].status, status::OK);
    assert_eq!(resps[2].status, status::OK, "{}", resps[2].message);
    assert_eq!(resps[2].payload.len(), 256 * 4);
    server.shutdown();
    server.wait();
}

#[test]
fn held_requests_overlap_across_shards() {
    // Each request holds its worker for a 15 ms sleep (the stand-in for a
    // checkpoint service's write phase), so one shard needs 64 holds end to
    // end and four need 16 each whatever the core count: admission that
    // did not spread work across shards would show no gain.
    let workload = WorkloadConfig {
        requests: 64,
        clients: 8,
        chunk_elements: 8 * 1024,
        ..WorkloadConfig::default()
    };
    let req_per_s = |workers: usize| {
        let cfg = ServeConfig {
            workers,
            queue_depth: 32,
            fault: FaultPlan { worker_delay_ms: 15 },
            ..ServeConfig::default()
        };
        let (server, _) = tcp_server(cfg);
        let report = drive(server.endpoint(), &workload).expect("drive");
        server.shutdown();
        server.wait();
        assert_eq!(report.ok, workload.requests, "{report:?}");
        report.req_per_s
    };
    let (one, four) = (req_per_s(1), req_per_s(4));
    assert!(four >= 1.5 * one, "4 shards sustained {four:.0} req/s against {one:.0} on 1");
}

#[test]
fn dense_constant_fields_are_not_mistaken_for_forged_headers() {
    // Constant data is where SZ beats 512 decoded elements per stored
    // byte, the decoded-size gate's former ceiling. A COMPRESS response
    // must come back through DECOMPRESS, and so must the chunked container
    // of the same field, bare and in its LCW1 envelope (the form the gate
    // refused for the rank-3 cube).
    let (server, addr) = tcp_server(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let sz = lcpio_codec::registry().by_name("sz").expect("registered");
    for (dims, value) in [(vec![1usize << 20], 0.0f32), (vec![12, 300, 300], 3.5)] {
        let data = vec![value; dims.iter().product()];
        let resp = client.compress(&data, &dims, CompressOptions::default()).expect("compress");
        assert_eq!(resp.status, status::OK, "{}", resp.message);
        assert!(data.len() > 512 * resp.payload.len(), "fixture must beat the old ceiling");
        let chunked = sz
            .compress_chunked(&data, &dims, lcpio_codec::BoundSpec::Absolute(1e-3), 1)
            .expect("chunked")
            .bytes;
        let wired = lcpio_codec::wire::wrap(&chunked).expect("wrap");
        for container in [resp.payload, chunked, wired] {
            let back = client.decompress(&container).expect("decompress");
            assert_eq!(back.status, status::OK, "{dims:?}: {}", back.message);
            assert_eq!(back.dims, dims);
            assert_eq!(back.payload.len(), data.len() * 4);
            let element = |b: &[u8]| f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let close = back.payload.chunks_exact(4).all(|b| (element(b) - value).abs() <= 1e-3);
            assert!(close, "{dims:?}: bound broken");
        }
    }
    server.shutdown();
    server.wait();
}
