//! Mixed-workload client driver: the load generator behind
//! `lcpio-cli serve --drive` and the CI serve integration leg.
//!
//! The workload interleaves compress, decompress, and info requests over
//! the CESM+HACC chunk stream from `lcpio_core::policy` — the same
//! mixed-content regime the adaptive policy is evaluated on — issued from
//! several concurrent client connections. The report carries sustained
//! request throughput and client-observed p50/p99 latency.

use std::sync::Mutex;
use std::time::Instant;

use lcpio_codec::policy::CodecId;
use lcpio_codec::{registry, BoundSpec};
use lcpio_core::policy::interleaved_cesm_hacc;
use lcpio_core::PolicyKind;

use crate::client::{Client, ClientError, CompressOptions};
use crate::server::Endpoint;

/// Shape of the driven workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Total requests across all clients.
    pub requests: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Elements per request chunk.
    pub chunk_elements: usize,
    /// Codec requested on compress requests.
    pub codec: CodecId,
    /// Error bound requested on compress requests.
    pub bound: BoundSpec,
    /// Chunk policy requested on compress requests.
    pub policy: PolicyKind,
    /// Workload RNG seed (chunk contents are deterministic in it).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            requests: 64,
            clients: 4,
            chunk_elements: 16 * 1024,
            codec: CodecId::Sz,
            bound: BoundSpec::Absolute(1e-3),
            policy: PolicyKind::Fixed,
            seed: 42,
        }
    }
}

/// What the driver observed, aggregated across every client.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadReport {
    /// Requests issued.
    pub requests: usize,
    /// Requests answered `OK`.
    pub ok: usize,
    /// Requests rejected `BUSY` by admission control.
    pub busy: usize,
    /// Requests answered with any other non-`OK` status.
    pub errors: usize,
    /// Wall-clock for the whole run, seconds.
    pub wall_s: f64,
    /// Sustained throughput: completed requests per second.
    pub req_per_s: f64,
    /// Median client-observed request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-observed request latency, microseconds.
    pub p99_us: u64,
    /// Request payload bytes sent.
    pub bytes_out: u64,
    /// Response payload bytes received.
    pub bytes_in: u64,
    /// Total modeled energy the server reported, microjoules.
    pub energy_uj: u64,
}

/// The number of distinct chunks the workload cycles through.
const WORKLOAD_CHUNKS: usize = 8;

/// Drive the mixed workload against a running server and aggregate the
/// outcome. Request `k` is: every third request a decompress of a
/// pre-compressed container, every seventh an info probe, the rest
/// compress requests over alternating CESM/HACC chunks.
pub fn drive(endpoint: &Endpoint, cfg: &WorkloadConfig) -> Result<WorkloadReport, ClientError> {
    let elements = interleaved_cesm_hacc(cfg.chunk_elements, WORKLOAD_CHUNKS, cfg.seed);
    let chunks: Vec<&[f32]> = elements.chunks(cfg.chunk_elements).collect();
    // Pre-compressed containers for the decompress share of the mix.
    let backend = registry().by_name(cfg.codec.name()).expect("driver codec registered");
    let containers: Vec<Vec<u8>> = chunks
        .iter()
        .map(|c| {
            backend.compress(c, &[c.len()], cfg.bound).expect("driver pre-compress").bytes
        })
        .collect();

    let clients = cfg.clients.max(1);
    let opts = CompressOptions {
        codec: Some(cfg.codec),
        bound: Some(cfg.bound),
        policy: Some(cfg.policy),
    };
    /// One completed request: (latency µs, status, energy µJ, bytes out, bytes in).
    type Outcome = (u64, u8, u64, u64, u64);
    let failures: Mutex<Option<ClientError>> = Mutex::new(None);
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::with_capacity(cfg.requests));

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..clients {
            let chunks = &chunks;
            let containers = &containers;
            let failures = &failures;
            let outcomes = &outcomes;
            scope.spawn(move || {
                let mut client = match Client::connect(endpoint) {
                    Ok(c) => c,
                    Err(e) => {
                        failures.lock().expect("driver lock").get_or_insert(e);
                        return;
                    }
                };
                let mut local = Vec::new();
                for k in (worker..cfg.requests).step_by(clients) {
                    let chunk = chunks[k % chunks.len()];
                    let container = &containers[k % containers.len()];
                    let req_t0 = Instant::now();
                    let result = if k % 3 == 2 {
                        client.decompress(container)
                    } else if k % 7 == 6 {
                        client.info(container)
                    } else {
                        client.compress(chunk, &[chunk.len()], opts)
                    };
                    let latency_us = req_t0.elapsed().as_micros() as u64;
                    match result {
                        Ok(resp) => local.push((
                            latency_us,
                            resp.status,
                            resp.energy_uj,
                            resp.payload.len() as u64,
                            if k % 3 == 2 || k % 7 == 6 {
                                container.len() as u64
                            } else {
                                (chunk.len() * 4) as u64
                            },
                        )),
                        Err(e) => {
                            failures.lock().expect("driver lock").get_or_insert(e);
                            return;
                        }
                    }
                }
                outcomes.lock().expect("driver lock").extend(local);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);

    if let Some(e) = failures.into_inner().expect("driver lock") {
        return Err(e);
    }
    let outcomes = outcomes.into_inner().expect("driver lock");

    let mut latencies: Vec<u64> = outcomes.iter().map(|o| o.0).collect();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    let ok = outcomes.iter().filter(|o| o.1 == crate::protocol::status::OK).count();
    let busy = outcomes.iter().filter(|o| o.1 == crate::protocol::status::BUSY).count();
    Ok(WorkloadReport {
        requests: outcomes.len(),
        ok,
        busy,
        errors: outcomes.len() - ok - busy,
        wall_s,
        req_per_s: outcomes.len() as f64 / wall_s,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        bytes_out: outcomes.iter().map(|o| o.4).sum(),
        bytes_in: outcomes.iter().map(|o| o.3).sum(),
        energy_uj: outcomes.iter().map(|o| o.2).sum(),
    })
}
