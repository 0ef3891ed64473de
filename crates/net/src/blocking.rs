//! The blocking driver: one accept loop and one connection loop shared
//! by every thread-per-listener server in the crate.
//!
//! [`Listener`] binds an ephemeral loopback port and runs an accept
//! thread until shutdown; [`serve`] runs one accepted connection to
//! completion by feeding a [`crate::conn`] machine from the blocking
//! socket — the same machines the reactor drives, so both transports
//! answer identical byte streams identically.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::conn::{Input, Machine, Step};
use crate::error::NetError;

/// Consecutive `accept` failures a listener tolerates (counting and
/// continuing) before it concludes the listener socket itself is dead
/// and exits the loop. A transient per-connection error (aborted
/// handshake, EMFILE pressure easing) must not kill the whole server.
pub(crate) const MAX_ACCEPT_ERRORS: u32 = 8;

/// Read chunk size for every connection loop.
pub(crate) const CHUNK: usize = 4096;

/// An append-only record list shared between a listener thread and its
/// handle. Locking tolerates poison: the list stays structurally intact
/// across a panicking handler, and losing a campaign's wire log over it
/// would be the worse failure.
#[derive(Debug)]
pub(crate) struct Records<T>(Arc<Mutex<Vec<T>>>);

impl<T> Records<T> {
    pub(crate) fn new() -> Records<T> {
        Records(Arc::new(Mutex::new(Vec::new())))
    }

    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn push(&self, record: T) {
        self.lock().push(record);
    }

    /// Drains the records, in arrival order.
    pub(crate) fn take(&self) -> Vec<T> {
        std::mem::take(&mut *self.lock())
    }
}

impl<T> Clone for Records<T> {
    fn clone(&self) -> Records<T> {
        Records(Arc::clone(&self.0))
    }
}

/// A loopback listener whose thread hands every accepted connection to a
/// handler until [`Listener::shutdown`] (or drop).
#[derive(Debug)]
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `127.0.0.1:0` and starts the accept thread. Bind and spawn
    /// failures are typed [`NetError`]s; transient accept failures are
    /// counted and tolerated up to [`MAX_ACCEPT_ERRORS`] in a row.
    pub(crate) fn spawn(
        thread_name: String,
        mut handle: impl FnMut(TcpStream) + Send + 'static,
    ) -> Result<Listener, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(NetError::bind)?;
        let addr = listener.local_addr().map_err(NetError::bind)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || {
                    let mut accept_errors = 0u32;
                    while !stop.load(Ordering::SeqCst) {
                        let stream = match listener.accept() {
                            Ok((stream, _)) => stream,
                            Err(_) => {
                                hdiff_obs::count("net.accept.error", 1);
                                accept_errors += 1;
                                if accept_errors >= MAX_ACCEPT_ERRORS {
                                    break;
                                }
                                continue;
                            }
                        };
                        accept_errors = 0;
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        handle(stream);
                    }
                })
                .map_err(NetError::spawn)?
        };
        Ok(Listener { addr, stop, thread: Some(thread) })
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the listener thread.
    pub(crate) fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept call.
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs one connection to completion by feeding `machine`. `SO_RCVTIMEO`
/// expiry is the deadline input; a relay request is served by a blocking
/// write → FIN → read-to-EOF exchange with `upstream`. The log goes to
/// `deliver` before the stream is shut down.
pub(crate) fn serve<M: Machine>(
    mut machine: M,
    host: &M::Host,
    mut stream: TcpStream,
    read_timeout: Duration,
    write_timeout: Duration,
    upstream: Option<SocketAddr>,
    mut deliver: impl FnMut(M::Log),
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.set_nodelay(true);
    let mut chunk = [0u8; CHUNK];
    let mut step = Step::Read;
    loop {
        let out = machine.output();
        if !out.is_empty() {
            let written = stream.write_all(out);
            out.clear();
            if written.is_err() {
                step = machine.feed(host, Input::WriteError);
            }
        }
        let input = match step {
            Step::Close => break,
            Step::Relay(bytes) => {
                let response = upstream.ok_or(()).and_then(|addr| {
                    relay(addr, &bytes, read_timeout, write_timeout).map_err(drop)
                });
                Input::Relay(response)
            }
            Step::Read | Step::Hold => {
                if step == Step::Hold {
                    if let Some(log) = machine.finish() {
                        deliver(log);
                    }
                }
                match stream.read(&mut chunk) {
                    Ok(0) => Input::Eof,
                    Ok(n) => Input::Read(&chunk[..n]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        Input::Deadline
                    }
                    Err(_) => Input::ReadError,
                }
            }
        };
        step = machine.feed(host, input);
    }
    if let Some(log) = machine.finish() {
        deliver(log);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// One upstream relay over a fresh connection: write, FIN, read to EOF.
fn relay(
    addr: SocketAddr,
    bytes: &[u8],
    read_timeout: Duration,
    write_timeout: Duration,
) -> std::io::Result<Vec<u8>> {
    let mut up = TcpStream::connect(addr)?;
    up.set_read_timeout(Some(read_timeout))?;
    up.set_write_timeout(Some(write_timeout))?;
    up.write_all(bytes)?;
    up.shutdown(Shutdown::Write)?;
    let mut response = Vec::new();
    up.read_to_end(&mut response)?;
    Ok(response)
}
