//! The `shm://` backend: shared-memory FIFOs through `/dev/shm`, the
//! same-node fast path and this codebase's stand-in for the paper's
//! DART RDMA transport.
//!
//! ## Anatomy
//!
//! A connection is one file in `/dev/shm` holding two independent SPSC
//! channels (client→server and server→client). Each channel is:
//!
//! * a **descriptor ring** ([`fifo::Ring`]): `NDESC` entries of
//!   `{len, flags}`, driven by monotonic head/tail counters;
//! * a **block-store arena** ([`fifo::Arena`]): a power-of-two byte
//!   region carved sequentially by the same discipline — a chunk that
//!   would straddle the wrap point is preceded by a `PAD` descriptor
//!   covering the tail (the rsm shared-memory BTL's trick), so every
//!   chunk is contiguous and a frame is one `memcpy` in, one out;
//! * two **futex words** (`data` for the consumer, `space` for the
//!   producer), each bumped-then-woken after publishing, with a
//!   spin-then-wait strategy on the waiting side.
//!
//! Frames longer than `CHUNK_MAX` stream through the arena as multiple
//! descriptors; only the last carries `LAST`. Offsets are implicit —
//! both sides advance the same monotonic byte cursors, so descriptors
//! need no offset field and the consumer frees space strictly in
//! order, exactly like the transport's TCP framing but with the kernel
//! out of the data path entirely.
//!
//! ## Rendezvous
//!
//! A listener owns a small control segment (`sitra-shm-<name>.ctl`): a
//! ticket-claimed slot ring where connectors publish the file name of
//! a connection segment they created. The listener maps the segment,
//! unlinks the file (the mapping keeps it alive — no directory litter
//! survives a crash of either side), and flips the segment's `attach`
//! futex to complete the handshake.

mod fifo;
pub(crate) mod sys;

use crate::NetError;
use bytes::Bytes;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Descriptor ring entries per channel.
const NDESC: u64 = 1024;
/// Arena bytes per channel.
const ARENA: u64 = 1 << 22;
/// Max payload bytes per descriptor; larger frames are chunked.
const CHUNK_MAX: usize = 1 << 20;
/// Slice size `send` actually streams frames in. This is sender
/// policy, not wire format (the consumer accepts any chunk pattern up
/// to [`CHUNK_MAX`]): small enough that the consumer starts copying a
/// large frame out while the producer is still writing the rest of it
/// in, large enough that the per-slice descriptor and wake costs stay
/// negligible. Monolithic 1 MiB chunks serialized the two copies
/// end-to-end — the consumer sat parked through the producer's entire
/// memcpy — which is exactly backwards on a low-core host, where the
/// parked side also has to win the scheduler back afterwards.
const PIPE_CHUNK: usize = 128 << 10;

/// Descriptor flag: final chunk of a frame.
const FLAG_LAST: u32 = 1;
/// Descriptor flag: padding emitted to reach the arena wrap point.
const FLAG_PAD: u32 = 2;

const SEG_MAGIC: u64 = 0x5349_5452_4153_4853; // "SITRASHS"
const CTL_MAGIC: u64 = 0x5349_5452_4153_4843; // "SITRASHC"
const VERSION: u32 = 1;

// Connection-segment layout. All field offsets are 64-bit aligned and
// the hot producer/consumer counters sit on separate cache lines.
const SEG_HDR: usize = 64;
const SEG_MAGIC_OFF: usize = 0;
const SEG_VERSION_OFF: usize = 8;
/// Futex word: 0 until the server maps the segment, then 1.
const SEG_ATTACH_OFF: usize = 12;

// Channel-relative offsets.
const CH_DESC_HEAD: usize = 0; // AtomicU64, producer-published
const CH_DESC_TAIL: usize = 64; // AtomicU64, consumer-published
const CH_DATA_TAIL: usize = 128; // AtomicU64, consumer-published
const CH_CLOSED: usize = 192; // AtomicU32, either side
const CH_DATA_FUTEX: usize = 196; // AtomicU32, producer bumps
const CH_SPACE_FUTEX: usize = 256; // AtomicU32, consumer bumps
const CH_HDR: usize = 320;
const CH_RING: usize = NDESC as usize * 8;
const CH_SIZE: usize = CH_HDR + CH_RING + ARENA as usize;

/// Whole connection segment: header + two channels.
const SEG_SIZE: usize = SEG_HDR + 2 * CH_SIZE;

// Control-segment layout.
const CTL_MAGIC_OFF: usize = 0;
const CTL_VERSION_OFF: usize = 8;
const CTL_CLOSED_OFF: usize = 12;
const CTL_ACCEPT_FUTEX_OFF: usize = 16;
const CTL_HEAD_OFF: usize = 64; // AtomicU64, ticket counter (connectors)
const CTL_TAIL_OFF: usize = 128; // AtomicU64, listener's cursor
const CTL_SLOTS_OFF: usize = 192;
const CTL_NSLOTS: u64 = 64;
const CTL_SLOT_SIZE: usize = 128;
/// Slot-relative: 0=free, 1=published.
const SLOT_STATE: usize = 0;
const SLOT_PATH_LEN: usize = 4;
const SLOT_PATH: usize = 8;
const SLOT_PATH_MAX: usize = CTL_SLOT_SIZE - SLOT_PATH;
const CTL_SIZE: usize = CTL_SLOTS_OFF + CTL_NSLOTS as usize * CTL_SLOT_SIZE;

/// Spins before parking on a futex; tuned for "peer is mid-memcpy".
const SPIN: usize = 200;
/// Additional `yield_now` rounds a waiter spends when the peer is
/// *known* to be mid-frame (a started frame's remaining chunks, or
/// arena space mid-drain) before parking. A `spin_loop` hint never
/// releases the core, so on a one-CPU host the spinning side just
/// burns its quantum while the side it is waiting for sits runnable;
/// yielding hands the core over and typically comes back with the next
/// chunk already published. Parking stays the backstop so an absent
/// peer still costs no CPU.
const YIELDS: usize = 256;

/// The tiered wait budget shared by the channel wait loops:
/// [`SPIN`] pipelined spins, then up to `yields` scheduler yields,
/// then the caller parks on its futex.
struct WaitBudget {
    steps: usize,
}

impl WaitBudget {
    fn new() -> WaitBudget {
        WaitBudget { steps: 0 }
    }

    /// Burn one step of the budget; returns `false` once exhausted
    /// (the caller should park).
    fn step(&mut self, yields: usize) -> bool {
        if self.steps < SPIN {
            self.steps += 1;
            std::hint::spin_loop();
            true
        } else if self.steps < SPIN + yields {
            self.steps += 1;
            std::thread::yield_now();
            true
        } else {
            false
        }
    }
}

/// A mapped shared-memory region (or, in tests, a heap stand-in that
/// exercises the identical channel code).
pub(crate) struct Mapping {
    ptr: *mut u8,
    len: usize,
    /// Owns the allocation when heap-backed; `None` means mmap'd.
    heap: Option<Vec<u8>>,
}

// Safety: all cross-thread access goes through atomics at fixed
// offsets or through raw byte copies whose ordering those atomics
// establish (SPSC ring protocol).
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Drop for Mapping {
    fn drop(&mut self) {
        if self.heap.is_none() {
            sys::munmap(self.ptr, self.len);
        }
    }
}

impl Mapping {
    /// Create the backing file (exclusively), size it, and map it.
    fn create_file(path: &Path, len: usize) -> io::Result<Mapping> {
        use std::os::fd::AsRawFd;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.set_len(len as u64)?;
        let ptr = sys::mmap_shared(file.as_raw_fd(), len)?;
        // The fd is not needed once mapped.
        Ok(Mapping {
            ptr,
            len,
            heap: None,
        })
    }

    /// Map an existing backing file.
    fn open_file(path: &Path, len: usize) -> io::Result<Mapping> {
        use std::os::fd::AsRawFd;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        if file.metadata()?.len() < len as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "shm segment shorter than its declared layout",
            ));
        }
        let ptr = sys::mmap_shared(file.as_raw_fd(), len)?;
        Ok(Mapping {
            ptr,
            len,
            heap: None,
        })
    }

    /// Heap-backed stand-in for unit tests: same layout, same code
    /// paths, no files.
    #[cfg(test)]
    fn heap(len: usize) -> Mapping {
        let mut buf = vec![0u8; len];
        let ptr = buf.as_mut_ptr();
        Mapping {
            ptr,
            len,
            heap: Some(buf),
        }
    }

    fn u32_at(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= self.len && off.is_multiple_of(4));
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }

    fn u64_at(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= self.len && off.is_multiple_of(8));
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    fn byte_ptr(&self, off: usize) -> *mut u8 {
        debug_assert!(off <= self.len);
        unsafe { self.ptr.add(off) }
    }
}

/// Offsets of one channel inside a mapping.
#[derive(Clone, Copy)]
struct Ch {
    base: usize,
}

impl Ch {
    fn desc_head<'m>(&self, m: &'m Mapping) -> &'m AtomicU64 {
        m.u64_at(self.base + CH_DESC_HEAD)
    }
    fn desc_tail<'m>(&self, m: &'m Mapping) -> &'m AtomicU64 {
        m.u64_at(self.base + CH_DESC_TAIL)
    }
    fn data_tail<'m>(&self, m: &'m Mapping) -> &'m AtomicU64 {
        m.u64_at(self.base + CH_DATA_TAIL)
    }
    fn closed<'m>(&self, m: &'m Mapping) -> &'m AtomicU32 {
        m.u32_at(self.base + CH_CLOSED)
    }
    fn data_futex<'m>(&self, m: &'m Mapping) -> &'m AtomicU32 {
        m.u32_at(self.base + CH_DATA_FUTEX)
    }
    fn space_futex<'m>(&self, m: &'m Mapping) -> &'m AtomicU32 {
        m.u32_at(self.base + CH_SPACE_FUTEX)
    }

    /// Plain (non-atomic) descriptor access; ordering is established
    /// by the Release store of `desc_head` / Acquire load on the
    /// consumer side.
    fn write_desc(&self, m: &Mapping, slot: usize, len: u32, flags: u32) {
        let p = m.byte_ptr(self.base + CH_HDR + slot * 8);
        unsafe {
            (p as *mut u32).write(len.to_le());
            (p.add(4) as *mut u32).write(flags.to_le());
        }
    }

    fn read_desc(&self, m: &Mapping, slot: usize) -> (u32, u32) {
        let p = m.byte_ptr(self.base + CH_HDR + slot * 8);
        unsafe {
            (
                u32::from_le((p as *const u32).read()),
                u32::from_le((p.add(4) as *const u32).read()),
            )
        }
    }

    fn arena_ptr(&self, m: &Mapping, off: usize) -> *mut u8 {
        debug_assert!(off < ARENA as usize);
        m.byte_ptr(self.base + CH_HDR + CH_RING + off)
    }

    /// Sever the channel and wake everyone parked on it.
    fn close(&self, m: &Mapping) {
        self.closed(m).store(1, Ordering::Release);
        self.data_futex(m).fetch_add(1, Ordering::Release);
        self.space_futex(m).fetch_add(1, Ordering::Release);
        sys::futex_wake(self.data_futex(m), i32::MAX);
        sys::futex_wake(self.space_futex(m), i32::MAX);
    }
}

/// Producer half of one channel. Keeps its own monotonic cursors; only
/// `desc_head` is published (the consumer derives arena offsets from
/// its own mirror of the byte cursor).
pub(crate) struct Producer {
    map: Arc<Mapping>,
    ch: Ch,
    ring: fifo::Ring,
    arena: fifo::Arena,
    desc_head: u64,
    data_head: u64,
}

impl Producer {
    /// Write one frame into the ring, blocking (spin, yield, then
    /// futex) while the consumer catches up. Frames beyond
    /// [`PIPE_CHUNK`] stream through as multiple chunks, so the
    /// consumer's copy-out overlaps the rest of the copy-in.
    pub(crate) fn send(&mut self, payload: &[u8]) -> Result<(), NetError> {
        let mut sent = 0;
        loop {
            let chunk = (payload.len() - sent).min(PIPE_CHUNK);
            let last = sent + chunk == payload.len();
            self.emit_chunk(&payload[sent..sent + chunk], last)?;
            sent += chunk;
            if last {
                return Ok(());
            }
        }
    }

    fn emit_chunk(&mut self, chunk: &[u8], last: bool) -> Result<(), NetError> {
        if self.ch.closed(&self.map).load(Ordering::Acquire) != 0 {
            return Err(NetError::Closed);
        }
        let pad = self.arena.pad_before(self.data_head, chunk.len() as u64);
        let descs = 1 + u64::from(pad > 0);
        self.wait_capacity(pad + chunk.len() as u64, descs)?;
        if pad > 0 {
            self.ch.write_desc(
                &self.map,
                self.ring.slot(self.desc_head),
                pad as u32,
                FLAG_PAD,
            );
            self.desc_head += 1;
            self.data_head += pad;
        }
        let off = self.arena.offset(self.data_head);
        unsafe {
            std::ptr::copy_nonoverlapping(
                chunk.as_ptr(),
                self.ch.arena_ptr(&self.map, off),
                chunk.len(),
            );
        }
        self.ch.write_desc(
            &self.map,
            self.ring.slot(self.desc_head),
            chunk.len() as u32,
            if last { FLAG_LAST } else { 0 },
        );
        self.desc_head += 1;
        self.data_head += chunk.len() as u64;
        // One publish for pad+chunk: payload and descriptor writes
        // happen-before this Release store.
        self.ch
            .desc_head(&self.map)
            .store(self.desc_head, Ordering::Release);
        self.ch
            .data_futex(&self.map)
            .fetch_add(1, Ordering::Release);
        sys::futex_wake(self.ch.data_futex(&self.map), 1);
        Ok(())
    }

    fn wait_capacity(&self, bytes: u64, descs: u64) -> Result<(), NetError> {
        let mut budget = WaitBudget::new();
        loop {
            // Futex value FIRST, condition second — the consumer bumps
            // the word after publishing, so a stale read here makes the
            // wait return immediately rather than miss the wake.
            let fval = self.ch.space_futex(&self.map).load(Ordering::Acquire);
            let data_tail = self.ch.data_tail(&self.map).load(Ordering::Acquire);
            let desc_tail = self.ch.desc_tail(&self.map).load(Ordering::Acquire);
            if self.arena.fits(self.data_head, data_tail, bytes)
                && self.ring.occupied(self.desc_head, desc_tail) + descs <= self.ring.slots
            {
                return Ok(());
            }
            if self.ch.closed(&self.map).load(Ordering::Acquire) != 0 {
                return Err(NetError::Closed);
            }
            // Full ring/arena means the consumer is mid-drain: yield it
            // the core before parking.
            if budget.step(YIELDS) {
                continue;
            }
            sys::futex_wait(
                self.ch.space_futex(&self.map),
                fval,
                Some(Duration::from_millis(50)),
            );
        }
    }
}

/// Consumer half of one channel.
pub(crate) struct Consumer {
    map: Arc<Mapping>,
    ch: Ch,
    ring: fifo::Ring,
    arena: fifo::Arena,
    desc_tail: u64,
    data_tail: u64,
}

impl Consumer {
    /// Read the next frame. `timeout` applies to the *start* of a
    /// frame; once the first chunk has landed the remainder is read to
    /// completion (matching the TCP facade's contract).
    pub(crate) fn recv(&mut self, timeout: Option<Duration>) -> Result<Bytes, NetError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut out: Option<Vec<u8>> = None;
        loop {
            // Mid-frame (`out` armed), the producer is by protocol
            // still copying the rest of this frame in: wait with the
            // yield tier so the next chunk is met awake instead of
            // through a park/wake cycle per chunk.
            self.wait_desc(if out.is_none() { deadline } else { None }, out.is_some())?;
            let slot = self.ring.slot(self.desc_tail);
            let (len, flags) = self.ch.read_desc(&self.map, slot);
            let len = len as usize;
            if flags & FLAG_PAD != 0 {
                self.data_tail += len as u64;
                self.release();
                continue;
            }
            if len > CHUNK_MAX {
                // No producer emits a chunk past CHUNK_MAX, so this
                // descriptor is corrupt: poison the link.
                self.ch.close(&self.map);
                return Err(NetError::FrameTooLarge(len));
            }
            let buf = out.get_or_insert_with(|| Vec::with_capacity(len));
            if buf.len() + len > crate::MAX_FRAME_LEN {
                // Desynchronized (corrupt descriptor): poison the link.
                self.ch.close(&self.map);
                return Err(NetError::FrameTooLarge(buf.len() + len));
            }
            let off = self.arena.offset(self.data_tail);
            unsafe {
                let src = self.ch.arena_ptr(&self.map, off);
                let start = buf.len();
                buf.reserve(len);
                std::ptr::copy_nonoverlapping(src, buf.as_mut_ptr().add(start), len);
                buf.set_len(start + len);
            }
            self.data_tail += len as u64;
            let done = flags & FLAG_LAST != 0;
            self.release();
            if done {
                return Ok(Bytes::from(out.take().expect("frame in progress")));
            }
        }
    }

    fn wait_desc(&self, deadline: Option<Instant>, mid_frame: bool) -> Result<(), NetError> {
        let mut budget = WaitBudget::new();
        // Waiting for a frame to *start* parks promptly (idle
        // connections must not burn a core); waiting for the rest of a
        // started frame yields first — the producer is mid-memcpy.
        let yields = if mid_frame { YIELDS } else { 0 };
        loop {
            let fval = self.ch.data_futex(&self.map).load(Ordering::Acquire);
            let head = self.ch.desc_head(&self.map).load(Ordering::Acquire);
            if head != self.desc_tail {
                return Ok(());
            }
            // Closed and drained: end of stream.
            if self.ch.closed(&self.map).load(Ordering::Acquire) != 0 {
                return Err(NetError::Closed);
            }
            let wait = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(NetError::Timeout);
                    }
                    left.min(Duration::from_millis(50))
                }
                None => Duration::from_millis(50),
            };
            if budget.step(yields) {
                continue;
            }
            sys::futex_wait(self.ch.data_futex(&self.map), fval, Some(wait));
        }
    }

    /// Publish consumption of one descriptor (and its bytes).
    fn release(&mut self) {
        self.desc_tail += 1;
        self.ch
            .desc_tail(&self.map)
            .store(self.desc_tail, Ordering::Release);
        self.ch
            .data_tail(&self.map)
            .store(self.data_tail, Ordering::Release);
        self.ch
            .space_futex(&self.map)
            .fetch_add(1, Ordering::Release);
        sys::futex_wake(self.ch.space_futex(&self.map), 1);
    }
}

fn producer(map: &Arc<Mapping>, ch: Ch) -> Producer {
    Producer {
        map: Arc::clone(map),
        ch,
        ring: fifo::Ring::new(NDESC),
        arena: fifo::Arena::new(ARENA),
        desc_head: 0,
        data_head: 0,
    }
}

fn consumer(map: &Arc<Mapping>, ch: Ch) -> Consumer {
    Consumer {
        map: Arc::clone(map),
        ch,
        ring: fifo::Ring::new(NDESC),
        arena: fifo::Arena::new(ARENA),
        desc_tail: 0,
        data_tail: 0,
    }
}

/// Both halves of one attached connection, as the facade consumes it.
pub(crate) struct ShmConn {
    pub(crate) producer: parking_lot::Mutex<Producer>,
    pub(crate) consumer: parking_lot::Mutex<Consumer>,
    map: Arc<Mapping>,
    out_ch: Ch,
    in_ch: Ch,
}

impl ShmConn {
    fn new(map: Arc<Mapping>, out_ch: Ch, in_ch: Ch) -> ShmConn {
        ShmConn {
            producer: parking_lot::Mutex::new(producer(&map, out_ch)),
            consumer: parking_lot::Mutex::new(consumer(&map, in_ch)),
            map,
            out_ch,
            in_ch,
        }
    }

    /// Sever both directions and wake every parked futex waiter —
    /// deliberately lock-free so a close lands even while a send or
    /// recv is blocked inside the ring.
    pub(crate) fn close(&self) {
        self.out_ch.close(&self.map);
        self.in_ch.close(&self.map);
    }
}

const CH0: Ch = Ch { base: SEG_HDR }; // client -> server
const CH1: Ch = Ch {
    base: SEG_HDR + CH_SIZE,
}; // server -> client

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .take(64)
        .collect()
}

fn ctl_file_name(name: &str) -> String {
    format!("sitra-shm-{}.ctl", sanitize(name))
}

fn shm_dir() -> PathBuf {
    PathBuf::from("/dev/shm")
}

/// Monotonic per-process suffix for connection-segment file names.
static SEG_SEQ: AtomicU64 = AtomicU64::new(0);

/// Dial a listener by name: create a connection segment, publish it in
/// the listener's control ring, and wait for the attach handshake.
pub(crate) fn shm_connect(name: &str) -> Result<ShmConn, NetError> {
    let label = format!("shm://{name}");
    if !crate::fault::connect_allowed(&label) {
        return Err(NetError::Refused(label));
    }
    let ctl_path = shm_dir().join(ctl_file_name(name));
    let ctl = match Mapping::open_file(&ctl_path, CTL_SIZE) {
        Ok(m) => Arc::new(m),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(NetError::Refused(label)),
        Err(e) => return Err(e.into()),
    };
    if ctl.u64_at(CTL_MAGIC_OFF).load(Ordering::Acquire) != CTL_MAGIC
        || ctl.u32_at(CTL_VERSION_OFF).load(Ordering::Acquire) != VERSION
    {
        return Err(NetError::BadAddr(format!(
            "{label}: control segment is not a sitra-net endpoint"
        )));
    }
    let ctl_closed = ctl.u32_at(CTL_CLOSED_OFF);
    if ctl_closed.load(Ordering::Acquire) != 0 {
        return Err(NetError::Refused(label));
    }

    // Create and initialize this connection's segment.
    let seg_name = format!(
        "sitra-shm-{}.c{}-{}",
        sanitize(name),
        std::process::id(),
        SEG_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let seg_path = shm_dir().join(&seg_name);
    let seg = Arc::new(Mapping::create_file(&seg_path, SEG_SIZE)?);
    seg.u32_at(SEG_VERSION_OFF)
        .store(VERSION, Ordering::Release);
    seg.u64_at(SEG_MAGIC_OFF)
        .store(SEG_MAGIC, Ordering::Release);

    let cleanup = |e: NetError| {
        let _ = std::fs::remove_file(&seg_path);
        e
    };

    // Claim a ticket and wait for our slot to free up (it cycles fast;
    // contention here means >NSLOTS concurrent dials).
    let ticket = ctl.u64_at(CTL_HEAD_OFF).fetch_add(1, Ordering::AcqRel);
    let slot_base = CTL_SLOTS_OFF + (ticket % CTL_NSLOTS) as usize * CTL_SLOT_SIZE;
    let state = ctl.u32_at(slot_base + SLOT_STATE);
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.load(Ordering::Acquire) != 0 {
        if ctl_closed.load(Ordering::Acquire) != 0 || Instant::now() > deadline {
            return Err(cleanup(NetError::Refused(label)));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    // Publish the segment file name.
    let bytes = seg_name.as_bytes();
    assert!(bytes.len() <= SLOT_PATH_MAX, "segment name fits the slot");
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            ctl.byte_ptr(slot_base + SLOT_PATH),
            bytes.len(),
        );
    }
    ctl.u32_at(slot_base + SLOT_PATH_LEN)
        .store(bytes.len() as u32, Ordering::Release);
    state.store(1, Ordering::Release);
    let accept_futex = ctl.u32_at(CTL_ACCEPT_FUTEX_OFF);
    accept_futex.fetch_add(1, Ordering::Release);
    sys::futex_wake(accept_futex, i32::MAX);

    // Wait for the listener to attach.
    let attach = seg.u32_at(SEG_ATTACH_OFF);
    loop {
        if attach.load(Ordering::Acquire) == 1 {
            break;
        }
        if ctl_closed.load(Ordering::Acquire) != 0 || Instant::now() > deadline {
            return Err(cleanup(NetError::Refused(label)));
        }
        sys::futex_wait(attach, 0, Some(Duration::from_millis(50)));
    }
    // Attached: the file name is no longer needed (the listener may
    // have unlinked it already).
    let _ = std::fs::remove_file(&seg_path);
    Ok(ShmConn::new(seg, CH0, CH1))
}

/// The listening side: owns the control segment.
pub(crate) struct ShmListener {
    ctl: Arc<Mapping>,
    ctl_path: PathBuf,
    name: String,
}

impl ShmListener {
    pub(crate) fn bind(name: &str) -> Result<ShmListener, NetError> {
        let ctl_path = shm_dir().join(ctl_file_name(name));
        let ctl = match Mapping::create_file(&ctl_path, CTL_SIZE) {
            Ok(m) => m,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                // A cleanly shut-down (or crashed-and-closed) listener
                // leaves a closed control segment behind; reclaim it.
                // A live one is a genuine conflict.
                let stale = Mapping::open_file(&ctl_path, CTL_SIZE)
                    .map(|m| {
                        m.u64_at(CTL_MAGIC_OFF).load(Ordering::Acquire) != CTL_MAGIC
                            || m.u32_at(CTL_CLOSED_OFF).load(Ordering::Acquire) != 0
                    })
                    .unwrap_or(true);
                if !stale {
                    return Err(NetError::BadAddr(format!("shm://{name} already bound")));
                }
                let _ = std::fs::remove_file(&ctl_path);
                Mapping::create_file(&ctl_path, CTL_SIZE)?
            }
            Err(e) => return Err(e.into()),
        };
        ctl.u32_at(CTL_VERSION_OFF)
            .store(VERSION, Ordering::Release);
        ctl.u64_at(CTL_MAGIC_OFF)
            .store(CTL_MAGIC, Ordering::Release);
        Ok(ShmListener {
            ctl: Arc::new(ctl),
            ctl_path,
            name: name.to_string(),
        })
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Accept the next connection (blocking).
    pub(crate) fn accept(&self) -> Result<ShmConn, NetError> {
        let accept_futex = self.ctl.u32_at(CTL_ACCEPT_FUTEX_OFF);
        let closed = self.ctl.u32_at(CTL_CLOSED_OFF);
        let tail_word = self.ctl.u64_at(CTL_TAIL_OFF);
        loop {
            let fval = accept_futex.load(Ordering::Acquire);
            let tail = tail_word.load(Ordering::Relaxed);
            let slot_base = CTL_SLOTS_OFF + (tail % CTL_NSLOTS) as usize * CTL_SLOT_SIZE;
            let state = self.ctl.u32_at(slot_base + SLOT_STATE);
            if state.load(Ordering::Acquire) == 1 {
                let len = self
                    .ctl
                    .u32_at(slot_base + SLOT_PATH_LEN)
                    .load(Ordering::Acquire) as usize;
                let mut name_buf = vec![0u8; len.min(SLOT_PATH_MAX)];
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        self.ctl.byte_ptr(slot_base + SLOT_PATH),
                        name_buf.as_mut_ptr(),
                        name_buf.len(),
                    );
                }
                // Free the slot for the next connector before the
                // (potentially slow) segment attach.
                state.store(0, Ordering::Release);
                tail_word.store(tail + 1, Ordering::Release);
                let seg_name = String::from_utf8_lossy(&name_buf).into_owned();
                let seg_path = shm_dir().join(&seg_name);
                let seg = match Mapping::open_file(&seg_path, SEG_SIZE) {
                    Ok(m) => Arc::new(m),
                    // Connector gave up (timeout) and unlinked: skip.
                    Err(_) => continue,
                };
                let _ = std::fs::remove_file(&seg_path);
                if seg.u64_at(SEG_MAGIC_OFF).load(Ordering::Acquire) != SEG_MAGIC {
                    continue;
                }
                let attach = seg.u32_at(SEG_ATTACH_OFF);
                attach.store(1, Ordering::Release);
                sys::futex_wake(attach, i32::MAX);
                return Ok(ShmConn::new(seg, CH1, CH0));
            }
            if closed.load(Ordering::Acquire) != 0 {
                return Err(NetError::Closed);
            }
            sys::futex_wait(accept_futex, fval, Some(Duration::from_millis(100)));
        }
    }

    /// Stop accepting: refuse future dials and wake a blocked accept.
    pub(crate) fn shutdown(&self) {
        let closed = self.ctl.u32_at(CTL_CLOSED_OFF);
        closed.store(1, Ordering::Release);
        let accept_futex = self.ctl.u32_at(CTL_ACCEPT_FUTEX_OFF);
        accept_futex.fetch_add(1, Ordering::Release);
        sys::futex_wake(accept_futex, i32::MAX);
    }
}

impl Drop for ShmListener {
    fn drop(&mut self) {
        self.shutdown();
        let _ = std::fs::remove_file(&self.ctl_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heap-backed channel pair: the exact production code paths with
    /// no files involved.
    fn heap_channel() -> (Producer, Consumer) {
        let map = Arc::new(Mapping::heap(CH_SIZE));
        let ch = Ch { base: 0 };
        (producer(&map, ch), consumer(&map, ch))
    }

    #[test]
    fn roundtrip_including_empty_and_wrapping_frames() {
        let (mut p, mut c) = heap_channel();
        p.send(b"first").unwrap();
        p.send(b"").unwrap();
        assert_eq!(c.recv(None).unwrap().as_slice(), b"first");
        assert_eq!(c.recv(None).unwrap().len(), 0);
        // Interleaved sends/recvs of ~1MB frames force the 4MiB arena
        // to wrap (and emit PAD descriptors) several times over.
        let big: Vec<u8> = (0..1_000_001u32).map(|i| (i % 241) as u8).collect();
        for _ in 0..10 {
            p.send(&big).unwrap();
            assert_eq!(c.recv(None).unwrap().as_slice(), big.as_slice());
        }
    }

    #[test]
    fn frame_larger_than_the_arena_streams_through() {
        // 10 MiB frame vs a 4 MiB arena: production must interleave
        // with consumption, proving chunked streaming works.
        let (mut p, mut c) = heap_channel();
        let huge: Vec<u8> = (0..10 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
        let expect = huge.clone();
        let h = std::thread::spawn(move || p.send(&huge));
        let got = c.recv(None).unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(got.len(), expect.len());
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn recv_timeout_applies_to_frame_start_only() {
        let (mut p, mut c) = heap_channel();
        assert!(matches!(
            c.recv(Some(Duration::from_millis(20))),
            Err(NetError::Timeout)
        ));
        p.send(b"late").unwrap();
        assert_eq!(
            c.recv(Some(Duration::from_secs(5))).unwrap().as_slice(),
            b"late"
        );
    }

    #[test]
    fn close_wakes_blocked_consumer_and_fails_producer() {
        let map = Arc::new(Mapping::heap(CH_SIZE));
        let ch = Ch { base: 0 };
        let mut c = consumer(&map, ch);
        let map2 = Arc::clone(&map);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            ch.close(&map2);
        });
        assert!(matches!(c.recv(None), Err(NetError::Closed)));
        h.join().unwrap();
        let mut p = producer(&map, ch);
        assert!(matches!(p.send(b"x"), Err(NetError::Closed)));
    }

    #[test]
    fn two_thread_stress_preserves_order_and_content() {
        // The loom-style interleaving test: a fast producer and a
        // deliberately bursty consumer force every ring condition
        // (full, empty, wrap, pad) under real concurrency; contents
        // are seed-derived so any corruption or reorder is caught.
        let (mut p, mut c) = heap_channel();
        const FRAMES: u64 = 4000;
        fn frame_body(i: u64) -> Vec<u8> {
            let mut x = i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            // Sizes sweep 0..~200KiB, biased small with periodic spikes.
            let len = if i.is_multiple_of(97) {
                180_000 + (x % 20_000) as usize
            } else {
                (x % 600) as usize
            };
            (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) as u8
                })
                .collect()
        }
        let prod = std::thread::spawn(move || {
            for i in 0..FRAMES {
                p.send(&frame_body(i)).unwrap();
            }
        });
        for i in 0..FRAMES {
            if i % 512 == 0 {
                // Let the ring fill right up.
                std::thread::sleep(Duration::from_millis(2));
            }
            let got = c.recv(Some(Duration::from_secs(30))).unwrap();
            let want = frame_body(i);
            assert_eq!(got.len(), want.len(), "frame {i} length");
            assert_eq!(got.as_slice(), want.as_slice(), "frame {i} content");
        }
        prod.join().unwrap();
    }

    #[test]
    fn rendezvous_attach_and_bidirectional_traffic() {
        let name = format!("modtest-{}", std::process::id());
        let listener = ShmListener::bind(&name).unwrap();
        // Live listener: rebinding the same name is a conflict.
        assert!(matches!(
            ShmListener::bind(&name),
            Err(NetError::BadAddr(_))
        ));
        let server = std::thread::spawn({
            let name = name.clone();
            move || {
                let client = shm_connect(&name).unwrap();
                client.producer.lock().send(b"ping").unwrap();
                let echo = client.consumer.lock().recv(Some(Duration::from_secs(5)));
                client.close();
                echo
            }
        });
        let conn = listener.accept().unwrap();
        let got = conn
            .consumer
            .lock()
            .recv(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(got.as_slice(), b"ping");
        conn.producer.lock().send(&got).unwrap();
        assert_eq!(server.join().unwrap().unwrap().as_slice(), b"ping");
        // Shut down: dials are refused and accept unblocks.
        drop(listener);
        assert!(matches!(shm_connect(&name), Err(NetError::Refused(_))));
    }
}
