//! `serve_mixed` — an in-process `lcpio-serve` daemon on a Unix socket
//! with the default configuration (2 shards, depth 8) and two closed-loop
//! client connections issuing the driver's request mix over small rank-1
//! chunks of the interleaved CESM/HACC field.

use super::{max_abs_err, shuffled, Lane, OpOutcome, Scale, Seeds, Workload, STREAM_BOUND};
use crate::spans::Recorder;
use lcpio_codec::policy::CodecId;
use lcpio_codec::{registry, BoundSpec};
use lcpio_core::policy::interleaved_cesm_hacc;
use lcpio_core::PolicyKind;
use lcpio_serve::{
    plan_and_compress, Client, ClientError, CompressOptions, Endpoint, Response, ServeConfig,
    Server,
};
use std::path::Path;
use std::time::Instant;

/// Client connections (= lanes).
pub const CLIENTS: usize = 2;
/// Distinct chunks the requests cycle through (as `lcpio_serve::drive`).
pub const CHUNKS: usize = 8;
/// Requests per client after which its (kind, chunk) sequence repeats:
/// request `k = client + 2·i` picks its kind from `k % 3` and `k % 7` and
/// its chunk from `k % 8`, so `2·i` must be a multiple of lcm(3, 7, 8).
const CYCLE: usize = 84;

const COMPRESS: usize = 0;
const DECOMPRESS: usize = 1;
const INFO: usize = 2;

/// The driver's mix by request index.
pub fn kind_of(k: usize) -> usize {
    if k % 3 == 2 {
        DECOMPRESS
    } else if k % 7 == 6 {
        INFO
    } else {
        COMPRESS
    }
}

/// The requests' compress options: SZ, abs 1e-3, fixed policy.
pub const OPTIONS: CompressOptions = CompressOptions {
    codec: Some(CodecId::Sz),
    bound: Some(BoundSpec::Absolute(STREAM_BOUND)),
    policy: Some(PolicyKind::Fixed),
};

/// The request chunks with, per chunk, the container a compress request
/// must return and the payload a decompress request must return.
pub struct ServeInputs {
    /// `CHUNKS` chunks of `request_elements` each.
    pub elements: Vec<f32>,
    /// Elements per chunk.
    pub chunk_elements: usize,
    /// `plan_and_compress` of each chunk: the service's reference output.
    pub containers: Vec<Vec<u8>>,
    /// Each container's decode as little-endian `f32` bytes.
    pub decoded: Vec<Vec<u8>>,
}

impl ServeInputs {
    /// Generate the chunks from the field seed, put them in the order
    /// the traffic seed draws, and make their reference outputs. Over one
    /// op cycle every chunk meets every request kind equally often, so
    /// the cycle's byte totals do not depend on the order.
    pub fn new(scale: &Scale, seeds: Seeds) -> Result<Self, String> {
        let n = scale.request_elements;
        let field = interleaved_cesm_hacc(n, CHUNKS, seeds.field);
        let elements: Vec<f32> = shuffled(CHUNKS, seeds.traffic)
            .into_iter()
            .flat_map(|c| field[c * n..(c + 1) * n].iter().copied())
            .collect();
        let cfg = ServeConfig::default();
        let bound = BoundSpec::Absolute(STREAM_BOUND);
        let mut containers = Vec::new();
        let mut decoded = Vec::new();
        for chunk in elements.chunks(n) {
            let (bytes, ..) =
                plan_and_compress(&cfg, chunk, &[n], CodecId::Sz, bound, PolicyKind::Fixed)
                    .map_err(|e| format!("reference compress: {e}"))?;
            let (restored, _) = registry()
                .decompress_auto(&bytes, 1)
                .map_err(|e| format!("reference decode: {e}"))?;
            let err = max_abs_err(chunk, &restored);
            if err > STREAM_BOUND {
                return Err(format!("bound {STREAM_BOUND} violated: max error {err}"));
            }
            decoded.push(restored.iter().flat_map(|v| v.to_le_bytes()).collect());
            containers.push(bytes);
        }
        Ok(ServeInputs {
            elements,
            chunk_elements: n,
            containers,
            decoded,
        })
    }

    /// Chunk `c`'s elements.
    pub fn chunk(&self, c: usize) -> &[f32] {
        &self.elements[c * self.chunk_elements..(c + 1) * self.chunk_elements]
    }

    /// Issue request `k` of the mix on `client` and check the response.
    pub fn request(&self, client: &mut Client, k: usize) -> Result<Checked, ClientError> {
        let c = k % CHUNKS;
        let kind = kind_of(k);
        let resp = match kind {
            DECOMPRESS => client.decompress(&self.containers[c])?,
            INFO => client.info(&self.containers[c])?,
            _ => client.compress(self.chunk(c), &[self.chunk_elements], OPTIONS)?,
        };
        Ok(self.check(kind, c, resp))
    }

    fn check(&self, kind: usize, c: usize, resp: Response) -> Checked {
        let (raw_bytes, stored_bytes, payload_ok) = match kind {
            COMPRESS => (
                (self.chunk_elements * 4) as u64,
                resp.payload.len() as u64,
                resp.payload == self.containers[c],
            ),
            DECOMPRESS => (
                resp.payload.len() as u64,
                self.containers[c].len() as u64,
                resp.payload == self.decoded[c],
            ),
            _ => (0, 0, true),
        };
        Checked {
            kind,
            raw_bytes,
            stored_bytes,
            nanojoules: resp.energy_uj * 1000,
            ok: resp.is_ok() && payload_ok,
        }
    }
}

/// A checked response.
pub struct Checked {
    /// Index into `KINDS`.
    pub kind: usize,
    /// Uncompressed bytes that entered or left the codec.
    pub raw_bytes: u64,
    /// Container bytes for those.
    pub stored_bytes: u64,
    /// `Response.energy_uj`, in nanojoules.
    pub nanojoules: u64,
    /// Status `OK` (so neither `BUSY` nor an error) and the payload equal
    /// to the reference.
    pub ok: bool,
}

/// Kind names, indexed by `kind_of`.
pub const KINDS: [&str; 3] = ["compress", "decompress", "info"];

/// Bind a server with `cfg` on a Unix socket under `dir`.
pub fn bind(dir: &Path, cfg: ServeConfig) -> Result<Server, String> {
    Server::bind(&Endpoint::Unix(dir.join("serve.sock")), cfg)
        .map_err(|e| format!("server bind: {e}"))
}

/// The `serve_mixed` workload.
pub struct ServeMixed {
    inputs: ServeInputs,
    server: Server,
    clients: Vec<Client>,
}

impl ServeMixed {
    /// The workload proper: `ServeConfig::default()` (2 shards, depth 8).
    pub fn new(scale: &Scale, seeds: Seeds, dir: &Path) -> Result<Self, String> {
        Self::with_config(scale, seeds, dir, ServeConfig::default())
    }

    /// Requests the server has rejected as `BUSY` so far.
    pub fn busy_rejected(&self) -> u64 {
        self.server.stats().busy_rejected
    }

    /// The same mix against a server with another configuration (the
    /// 1-shard reference of the layer probes).
    pub fn with_config(
        scale: &Scale,
        seeds: Seeds,
        dir: &Path,
        cfg: ServeConfig,
    ) -> Result<Self, String> {
        let inputs = ServeInputs::new(scale, seeds)?;
        let server = bind(dir, cfg)?;
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(server.endpoint()).map_err(|e| format!("client connect: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(ServeMixed {
            inputs,
            server,
            clients,
        })
    }
}

struct ClientLane<'a> {
    inputs: &'a ServeInputs,
    client: &'a mut Client,
    index: usize,
}

impl Lane for ClientLane<'_> {
    fn op(&mut self, i: usize, rec: &Recorder) -> OpOutcome {
        let k = self.index + CLIENTS * i;
        let op = k as u32;
        let start = Instant::now();
        let checked = rec.scope("op", None, op, |parent| {
            rec.scope("client.call", parent, op, |_| {
                self.inputs.request(self.client, k)
            })
        });
        let end = Instant::now();
        match checked {
            Ok(c) => OpOutcome {
                kind: c.kind,
                start,
                end,
                raw_bytes: c.raw_bytes,
                stored_bytes: c.stored_bytes,
                nanojoules: c.nanojoules,
                ok: c.ok,
            },
            // A transport failure is a failed op that moved no bytes.
            Err(_) => OpOutcome {
                kind: kind_of(k),
                start,
                end,
                raw_bytes: 0,
                stored_bytes: 0,
                nanojoules: 0,
                ok: false,
            },
        }
    }
}

impl Workload for ServeMixed {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn cycle_len(&self) -> usize {
        CYCLE
    }

    fn lanes(&mut self) -> Vec<Box<dyn Lane + '_>> {
        let inputs = &self.inputs;
        self.clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                Box::new(ClientLane {
                    inputs,
                    client,
                    index,
                }) as Box<dyn Lane + '_>
            })
            .collect()
    }

    /// The server's own counters must show no rejected or failed request.
    fn check(&mut self) -> Vec<String> {
        let stats = self.server.stats();
        let mut failures = Vec::new();
        if stats.busy_rejected != 0 {
            failures.push(format!(
                "server rejected {} requests as BUSY",
                stats.busy_rejected
            ));
        }
        if stats.errors != 0 {
            failures.push(format!(
                "server answered {} requests with an error status",
                stats.errors
            ));
        }
        failures
    }

    /// Close the connections, drain the server and join its threads.
    fn tear_down(self: Box<Self>) {
        let ServeMixed {
            server, clients, ..
        } = *self;
        drop(clients);
        server.shutdown();
        server.wait();
    }
}
