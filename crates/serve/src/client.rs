//! Blocking client for the compression service.
//!
//! One [`Client`] is one connection. The convenience methods
//! ([`Client::compress`], [`Client::decompress`], [`Client::info`],
//! [`Client::ping`], [`Client::shutdown`]) assign request ids and wrap
//! [`Client::call`], which sends any [`Request`] and blocks for its
//! [`Response`].

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use lcpio_codec::policy::CodecId;
use lcpio_codec::BoundSpec;
use lcpio_core::PolicyKind;

use crate::protocol::{self, Op, ProtoError, Request, Response};
use crate::server::{Conn, Endpoint};

/// How long a client waits on one response before giving up with an I/O
/// error (a guard against a hung server, not a protocol feature).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(120);

/// Client-side failure: transport trouble, a frame that does not parse,
/// or a connection the server closed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server's bytes do not decode as a response frame.
    Proto(ProtoError),
    /// The server closed the connection before a full response arrived
    /// (for example after a malformed frame, or mid-drain).
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// Compress-request tuning. Every field is optional; `None` leaves the
/// decision to the server's configured defaults (the `lcpio-cli serve`
/// flags).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressOptions {
    /// Codec to request (`None` ⇒ server default).
    pub codec: Option<CodecId>,
    /// Error bound to request (`None` ⇒ server default).
    pub bound: Option<BoundSpec>,
    /// Chunk policy to request (`None` ⇒ server default).
    pub policy: Option<PolicyKind>,
}

/// One blocking connection to a compression service.
///
/// # Examples
///
/// Boot an in-process server on an ephemeral TCP port, compress a field
/// over the socket, restore it, and drain the server:
///
/// ```
/// use lcpio_serve::{Client, CompressOptions, Endpoint, ServeConfig, Server};
///
/// let server = Server::bind(
///     &Endpoint::Tcp("127.0.0.1:0".to_string()),
///     ServeConfig::default(),
/// ).unwrap();
///
/// let mut client = Client::connect(server.endpoint()).unwrap();
/// let field: Vec<f32> = (0..512).map(|i| (i as f32 * 0.05).sin()).collect();
///
/// let comp = client.compress(&field, &[512], CompressOptions::default()).unwrap();
/// assert!(comp.is_ok());
/// assert!(comp.payload.len() < field.len() * 4); // it actually compressed
///
/// let back = client.decompress(&comp.payload).unwrap();
/// assert_eq!(back.dims, vec![512]);
/// let restored = back.elements().unwrap();
/// assert!(restored.iter().zip(&field).all(|(r, x)| (r - x).abs() <= 1e-3 * 1.001));
///
/// client.shutdown().unwrap();
/// server.wait();
/// ```
pub struct Client {
    stream: Conn,
    buf: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connect to either endpoint kind.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        match endpoint {
            Endpoint::Unix(path) => Client::connect_unix(path),
            Endpoint::Tcp(addr) => Client::connect_tcp(addr),
        }
    }

    /// Connect to a Unix-domain socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Client::new(Conn::Unix(UnixStream::connect(path)?))
    }

    /// Connect to a TCP address (`host:port`).
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        Client::new(Conn::Tcp(TcpStream::connect(addr)?))
    }

    fn new(stream: Conn) -> Result<Client, ClientError> {
        stream.set_read_timeout(RESPONSE_TIMEOUT)?;
        Ok(Client { stream, buf: Vec::new(), next_id: 1 })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.stream.write_all(&request.encode())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Read the next response frame off the connection (without sending
    /// anything — useful after pipelining requests by hand).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match protocol::frame_len(&self.buf)? {
                Some(n) if self.buf.len() >= n => {
                    let decoded = Response::decode(&self.buf[..n]);
                    self.buf.drain(..n);
                    return Ok(decoded?.0);
                }
                _ => {}
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Compress `data` shaped by `dims` on the server.
    pub fn compress(
        &mut self,
        data: &[f32],
        dims: &[usize],
        opts: CompressOptions,
    ) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        let mut req = Request::compress(
            id,
            data,
            dims,
            opts.codec.unwrap_or(CodecId::Sz),
            opts.bound.unwrap_or(BoundSpec::Absolute(1e-3)),
            opts.policy.unwrap_or(PolicyKind::Fixed),
        );
        // `None` options are omitted from the frame entirely, so the
        // server's defaults (not the placeholder values above) apply.
        req.codec = opts.codec;
        req.bound = opts.bound;
        req.policy = opts.policy;
        self.call(&req)
    }

    /// Decompress a container on the server; the response payload holds
    /// raw little-endian `f32` elements with a `DIMS` field.
    pub fn decompress(&mut self, container: &[u8]) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call(&Request::decompress(id, container))
    }

    /// Describe a container without decoding it.
    pub fn info(&mut self, container: &[u8]) -> Result<Response, ClientError> {
        let id = self.fresh_id();
        self.call(&Request::info(id, container))
    }

    /// Liveness probe. `Ok(true)` means the server answered `OK`.
    pub fn ping(&mut self) -> Result<bool, ClientError> {
        let id = self.fresh_id();
        Ok(self.call(&Request::control(id, Op::Ping))?.is_ok())
    }

    /// Ask the server to drain and exit. Returns once the server has
    /// acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.fresh_id();
        self.call(&Request::control(id, Op::Shutdown))?;
        Ok(())
    }
}
