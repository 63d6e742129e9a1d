//! Transport configuration.

/// Configuration for a TCP node: the size of its reactor.
///
/// Everything else is fixed beside the code that reads it, at values
/// that suit localhost clusters and tests: the reconnect backoff and
/// retry budget in `conn.rs`, the batching, buffer and handshake limits
/// in `reactor.rs`, and the poll interval in `causal-simnet`'s
/// `ActorRunner::serve`, the receive loop every real-time runtime shares.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Poller shards in the reactor: every socket of every node sharing
    /// the reactor is driven by one of this many event-loop threads
    /// (`epoll` + `eventfd` each). Thread count is O(shards), however
    /// many peers connect.
    pub poller_shards: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig { poller_shards: 2 }
    }
}
