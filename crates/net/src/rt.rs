//! The shared transport runtime: one lazily started multi-threaded
//! executor with an epoll reactor and a timer queue.
//!
//! Blocking [`Connection`](crate::Connection)s do not touch it: they
//! read and write their own sockets on the calling thread, so a process
//! that only holds those (driver, worker, `sitra-staged`) never starts
//! these threads. What runs here is what has no thread of its own to
//! run on:
//!
//! * the callers of [`AsyncConnection`](crate::AsyncConnection) — a
//!   load generator's tasks, thousands per thread, each doing its
//!   connection's socket I/O itself when the reactor reports the
//!   socket ready;
//! * fault-injection holds: a connection's outbound sequencer and the
//!   timers that park `Delay`ed and `Reorder`ed frames
//!   ([`crate::fault`]);
//! * timers in general ([`timeout`]).
//!
//! A process gets at most one of these regardless of how many
//! connections it opens.

use std::future::Future;
use std::sync::OnceLock;
use tokio::runtime::{Builder, Handle, Runtime};
use tokio::task::JoinHandle;

static RT: OnceLock<Runtime> = OnceLock::new();

/// Handle to the shared transport runtime, starting it on first use.
/// The runtime lives for the rest of the process; its worker threads
/// are named `sitra-net-rt-*`.
pub(crate) fn handle() -> Handle {
    RT.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 4);
        Builder::new_multi_thread()
            .worker_threads(workers)
            .thread_name("sitra-net-rt")
            .enable_all()
            .build()
            .expect("sitra-net: failed to start transport runtime")
    })
    .handle()
}

/// Deadline combinator re-exported for reactor clients, so driving an
/// [`AsyncConnection`](crate::AsyncConnection) with timeouts does not
/// require a direct dependency on the runtime crate.
pub use tokio::time::{timeout, Elapsed};

/// Run a future to completion on the shared transport runtime. This is
/// the entry point for binaries (load generators, soak harnesses) that
/// drive many [`AsyncConnection`](crate::AsyncConnection)s directly
/// instead of going through the blocking connections: their futures
/// run next to the reactor that wakes them.
pub fn block_on<F: Future>(future: F) -> F::Output {
    handle().block_on(future)
}

/// Spawn a task onto the shared transport runtime.
pub fn spawn<F>(future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    handle().spawn(future)
}
