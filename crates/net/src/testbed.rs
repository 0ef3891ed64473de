//! A persistent, reactor-hosted loopback testbed.
//!
//! The blocking transport spawns fresh listeners (and threads) for every
//! case; [`AsyncTestbed`] instead hosts every behavioral profile — all
//! origin servers, all proxy hops, and one shared echo upstream — inside
//! a single [`crate::reactor::Reactor`] event loop that lives as long as
//! the testbed. Cases fan out to every view *concurrently* as one job
//! batch, exchanges and relays ride the reactor's keep-alive pool (a
//! case reuses the connections earlier cases returned instead of opening
//! new ones), and each exchange collects its own connection log through
//! the reactor's pairing tickets (so interleaved cases can never mix
//! logs up).
//!
//! A campaign runs one testbed per worker thread: [`TestbedPool`] hands
//! each case an idle testbed and spawns a new one only when none is idle,
//! so the shards share nothing and every core runs its own event loop.

use std::ops::Deref;
use std::sync::{Condvar, Mutex, MutexGuard};

use hdiff_servers::ParserProfile;

use crate::client::SendMode;
use crate::error::NetError;
use crate::proxy::NetProxyConfig;
use crate::reactor::{
    AsyncListener, ExchangeOutput, ExchangeSpec, Job, JobOutput, Reactor, ReactorStats,
};
use crate::server::NetServerConfig;
use crate::timeout::io_timeout;

/// Idle keep-alive connections the reactor pre-opens per backend and
/// proxy listener; exchanges grow each pool to its peak concurrency.
pub const WARM_DEPTH: usize = 2;

/// Every profile of a campaign, served by one event loop (one shard of
/// a [`TestbedPool`]).
#[derive(Debug)]
pub struct AsyncTestbed {
    reactor: Reactor,
    backends: Vec<AsyncListener>,
    proxies: Vec<AsyncListener>,
}

impl AsyncTestbed {
    /// Spawns the reactor and hosts `backends` as origin listeners and
    /// `proxies` as forwarding hops (relaying to a shared non-recording
    /// echo), then pre-warms a keep-alive pool for every backend and
    /// proxy listener.
    ///
    /// Fails with a typed error on unsupported targets (no epoll
    /// backend) — callers degrade to the blocking transport.
    ///
    /// # Panics
    ///
    /// Panics if a proxy profile has no proxy behavior configured (same
    /// contract as [`hdiff_servers::Proxy::new`]).
    pub fn new(
        backends: &[ParserProfile],
        proxies: &[ParserProfile],
    ) -> Result<AsyncTestbed, NetError> {
        let reactor = Reactor::spawn()?;
        let echo = reactor.add_echo(io_timeout())?;
        let mut backend_listeners = Vec::with_capacity(backends.len());
        for profile in backends {
            let l = reactor.add_origin(profile.clone(), NetServerConfig::default(), true)?;
            backend_listeners.push(l);
        }
        let mut proxy_listeners = Vec::with_capacity(proxies.len());
        for profile in proxies {
            let l = reactor.add_proxy(profile.clone(), NetProxyConfig::new(echo.addr))?;
            proxy_listeners.push(l);
        }
        for l in backend_listeners.iter().chain(&proxy_listeners) {
            reactor.warm(l.addr, WARM_DEPTH);
        }
        Ok(AsyncTestbed { reactor, backends: backend_listeners, proxies: proxy_listeners })
    }

    /// Origin listeners, in the order the backend profiles were given.
    pub fn backends(&self) -> &[AsyncListener] {
        &self.backends
    }

    /// Proxy listeners, in the order the proxy profiles were given.
    pub fn proxies(&self) -> &[AsyncListener] {
        &self.proxies
    }

    /// An exchange job against `listener`, paired so the output carries
    /// the connection log.
    pub fn exchange_job(&self, listener: &AsyncListener, bytes: &[u8], mode: SendMode) -> Job {
        Job::Exchange(ExchangeSpec {
            addr: listener.addr,
            bytes: bytes.to_vec(),
            mode,
            read_timeout: io_timeout(),
            pair: Some(listener.id),
        })
    }

    /// Runs a job batch to completion (all jobs concurrently) and
    /// returns outputs in submission order.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        self.reactor.run(jobs)
    }

    /// Runs one exchange to completion.
    pub fn exchange(
        &self,
        listener: &AsyncListener,
        bytes: &[u8],
        mode: SendMode,
    ) -> ExchangeOutput {
        let out = self.run(vec![self.exchange_job(listener, bytes, mode)]);
        out.into_iter()
            .next()
            .and_then(|o| match o {
                JobOutput::Exchange(e) => Some(e),
                JobOutput::Drive(_) => None,
            })
            .unwrap_or_default()
    }

    /// Reactor counter snapshot (connections, pool hits/misses, wakeups).
    pub fn stats(&self) -> ReactorStats {
        self.reactor.stats()
    }
}

/// Share-nothing [`AsyncTestbed`] shards for a campaign's worker threads.
///
/// [`TestbedPool::checkout`] lends an idle testbed, spawning one only when
/// none is idle, so the pool never holds more testbeds than there were
/// concurrent checkouts — one per worker. Testbeds spawn lazily at first
/// use. A spawn failure while no testbed exists is cached and returned by
/// every later checkout (the campaign records it per case as a net
/// error); a failure once shards exist caps the pool at its current size.
#[derive(Debug)]
pub struct TestbedPool {
    backends: Vec<ParserProfile>,
    proxies: Vec<ParserProfile>,
    state: Mutex<PoolState>,
    returned: Condvar,
}

#[derive(Debug, Default)]
struct PoolState {
    idle: Vec<AsyncTestbed>,
    /// Testbeds spawned or being spawned.
    spawned: usize,
    /// A later spawn failed: wait for an idle shard instead of spawning.
    capped: bool,
    failed: Option<NetError>,
}

impl TestbedPool {
    /// A pool whose testbeds host `backends` and `proxies` (see
    /// [`AsyncTestbed::new`]). Spawns nothing yet.
    pub fn new(backends: &[ParserProfile], proxies: &[ParserProfile]) -> TestbedPool {
        TestbedPool {
            backends: backends.to_vec(),
            proxies: proxies.to_vec(),
            state: Mutex::new(PoolState::default()),
            returned: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lends an idle testbed, spawning one if none is idle. The testbed
    /// returns to the pool when the lease drops.
    pub fn checkout(&self) -> Result<TestbedLease<'_>, NetError> {
        let mut state = self.lock();
        loop {
            if let Some(testbed) = state.idle.pop() {
                return Ok(TestbedLease { pool: self, testbed: Some(testbed) });
            }
            if let Some(e) = &state.failed {
                return Err(e.clone());
            }
            if state.capped {
                state = self.returned.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            state.spawned += 1;
            drop(state);
            // Spawning binds listeners and warms pools: not under the lock.
            let spawned = AsyncTestbed::new(&self.backends, &self.proxies);
            state = self.lock();
            match spawned {
                Ok(testbed) => return Ok(TestbedLease { pool: self, testbed: Some(testbed) }),
                Err(e) => {
                    state.spawned -= 1;
                    if state.spawned == 0 {
                        state.failed = Some(e);
                    } else {
                        state.capped = true;
                    }
                    self.returned.notify_all();
                }
            }
        }
    }

    /// Testbeds spawned so far, idle or lent out (a spawn in progress
    /// counts).
    pub fn spawned(&self) -> usize {
        self.lock().spawned
    }
}

/// A testbed lent by [`TestbedPool::checkout`]; dereferences to the
/// [`AsyncTestbed`] and returns it to the pool on drop.
#[derive(Debug)]
pub struct TestbedLease<'a> {
    pool: &'a TestbedPool,
    testbed: Option<AsyncTestbed>,
}

impl Deref for TestbedLease<'_> {
    type Target = AsyncTestbed;

    fn deref(&self) -> &AsyncTestbed {
        self.testbed.as_ref().expect("a lease holds its testbed until dropped")
    }
}

impl Drop for TestbedLease<'_> {
    fn drop(&mut self) {
        if let Some(testbed) = self.testbed.take() {
            self.pool.lock().idle.push(testbed);
            self.pool.returned.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_servers::profile::ProxyBehavior;
    use hdiff_servers::{Proxy, Server};

    fn strict_proxy_profile() -> ParserProfile {
        let mut p = ParserProfile::strict("strictproxy");
        p.proxy = Some(ProxyBehavior::strict());
        p
    }

    #[test]
    fn concurrent_fanout_matches_the_in_process_engine() {
        let backends = [ParserProfile::strict("wire"), ParserProfile::strict("wire2")];
        let testbed = AsyncTestbed::new(&backends, &[]).unwrap();
        let bytes: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let jobs = testbed
            .backends()
            .iter()
            .map(|l| testbed.exchange_job(l, bytes, SendMode::Whole))
            .collect();
        let outs = testbed.run(jobs);
        assert_eq!(outs.len(), 2);
        for (out, profile) in outs.iter().zip(&backends) {
            let ex = out.as_exchange().expect("exchange output");
            assert!(ex.error.is_none(), "{ex:?}");
            assert!(!ex.timed_out);
            let log = ex.server_log.as_ref().expect("paired log");
            assert_eq!(log.replies, Server::new(profile.clone()).handle_stream(bytes));
            assert_eq!(log.replies.len(), 2);
        }
    }

    #[test]
    fn proxy_hop_relays_through_the_shared_echo() {
        let testbed = AsyncTestbed::new(&[], &[strict_proxy_profile()]).unwrap();
        let bytes: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
        let ex = testbed.exchange(&testbed.proxies()[0], bytes, SendMode::Whole);
        assert!(ex.error.is_none(), "{ex:?}");
        let log = ex.proxy_log.as_ref().expect("paired proxy log");
        assert_eq!(log.results, Proxy::new(strict_proxy_profile()).forward_stream(bytes));
        assert!(String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn repeat_cases_ride_pooled_connections() {
        let testbed = AsyncTestbed::new(&[ParserProfile::strict("wire")], &[]).unwrap();
        let l = testbed.backends()[0].clone();
        let bytes: &[u8] = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        for _ in 0..4 {
            let ex = testbed.exchange(&l, bytes, SendMode::Whole);
            assert!(ex.error.is_none());
            assert!(ex.server_log.is_some());
        }
        let stats = testbed.stats();
        assert!(stats.pool_hits >= 1, "{stats:?}");
        assert_eq!(stats.pool_hits + stats.pool_misses, 4, "{stats:?}");
        assert_eq!(stats.conns_closed, 0, "no exchange closed its connection: {stats:?}");
    }

    #[test]
    fn pool_spawns_lazily_and_never_beyond_the_concurrent_checkouts() {
        let pool = TestbedPool::new(&[ParserProfile::strict("wire")], &[]);
        assert_eq!(pool.spawned(), 0, "nothing spawns before first use");
        let workers = 3;
        let barrier = std::sync::Barrier::new(workers);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..20 {
                        let testbed = pool.checkout().unwrap();
                        let ex = testbed.exchange(
                            &testbed.backends()[0],
                            b"GET / HTTP/1.1\r\nHost: h\r\n\r\n",
                            SendMode::Whole,
                        );
                        assert!(ex.error.is_none(), "{ex:?}");
                    }
                });
            }
        });
        let spawned = pool.spawned();
        assert!((1..=workers).contains(&spawned), "{spawned} testbeds for {workers} workers");
        // Sequential checkouts reuse one idle testbed.
        drop(pool.checkout().unwrap());
        drop(pool.checkout().unwrap());
        assert_eq!(pool.spawned(), spawned);
    }
}
