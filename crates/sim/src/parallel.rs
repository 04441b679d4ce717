//! The multi-threaded subtree-sharded stepping kernel.
//!
//! [`SimKernel::Parallel`](crate::SimKernel) partitions the element graph
//! into per-worker shards and runs each shard's activity-list kernel on
//! its own thread. The alternating-edge protocol makes this safe without
//! any per-element locking: every connection joins **opposite** clock
//! polarities, so within one tick a worker only mutates current-parity
//! elements of its own shard, and every cross-element read (an upstream's
//! presented flit, a downstream's `accepted_from` marker) touches an
//! opposite-parity element whose state is frozen for the whole tick — the
//! software form of the half-period propagation budget the paper's
//! handshake enjoys in hardware (Section 5).
//!
//! Three mechanisms keep the constant factor small:
//!
//! * **Struct-of-arrays shard state.** The per-element fields the
//!   handshake actually touches every tick (`out_flit`, `accepted_from`,
//!   `lock`, `rr_next`, the gating counter) live in dense [`SoaDyn`]
//!   arrays for the duration of a batch, alongside a CSR copy of the
//!   adjacency ([`SoaTopo`]). A stage visit is then a tight loop over
//!   `u32` indices with no pointer chasing through `Element`; endpoint
//!   kinds (sources, sinks, tiles) keep their bulky state in the element
//!   itself but read and write the handshake fields through the same
//!   arrays. The arrays are loaded from the elements when a batch starts
//!   and stored back when it ends, so everything outside `par_run` keeps
//!   seeing ordinary `Element`s.
//!
//! * **Epoch batching via conservative lookahead.** Influence travels
//!   exactly one graph hop per tick (a visit only reads its direct
//!   neighbours), so if every armed element is at least `m` hops away
//!   from the nearest *boundary* element (one with a cross-shard
//!   neighbour), the next `m` ticks cannot read, write or wake across a
//!   shard cut — each shard may run them back to back with no
//!   synchronisation at all. The coordinator computes `m` as the minimum
//!   over all ready-set bits of a precomputed BFS distance-to-boundary
//!   map and publishes it as the window size; `m == 0` degenerates to a
//!   single synchronised mailbox tick. In a tree fabric the cut is the
//!   root link, so the safe window is exactly the paper's root-link
//!   latency: idle phases collapse into one long window instead of
//!   thousands of barrier crossings.
//!
//! * **Per-edge flags + parking instead of a global spin barrier.**
//!   Windows are published through a seqlock-free serial counter; each
//!   worker reports completion in its own padded slot and sleeps
//!   (`thread::park`) when it has nothing to do. During a mailbox tick a
//!   worker only waits for the shards it actually shares a cut edge with
//!   (their `visit_done` stamps), not for the whole fleet — PALS-style
//!   neighbour signalling rather than a global rendezvous.
//!
//! Determinism is preserved exactly: inside a batched window no
//! cross-shard interaction exists (enforced by a tripwire assert on the
//! mailbox path), and mailbox ticks replay the original two-phase
//! protocol. Sink and tile deliveries are deferred into per-worker
//! buffers stamped with `(tick, element)` and folded into the scoreboard
//! in that order at window end — each consumer records at most one
//! arrival per tick, so the fold reproduces the sequential kernel's
//! scoreboard order bit for bit at any worker count.
//!
//! Fault plans and trace sinks serialise on shared order-dependent state
//! (one fault RNG stream, one event stream), so a network with either
//! attached never builds a `ParState`: a fault plan runs the dense loop
//! (as it does under every kernel), trace sinks alone run the sequential
//! event loop — the parallel path never trades determinism for speed.

use crate::element::{Arbitration, Element, Kind, RouteFilter, TileRole};
use crate::network::ReadySet;
use crate::profile::{CoreProf, EpochSample};
use crate::report::Scoreboard;
use crate::{ElementId, Flit, TrafficPhase};
use icnoc_clock::ClockGatingStats;
use icnoc_topology::PortId;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::Instant;

/// A deferred sink/tile delivery: `(tick, element index, flit, consuming
/// port)`. The tick stamp lets arrivals from a multi-tick window fold
/// into the scoreboard in sequential order.
type Arrival = (u64, u32, Flit, PortId);

/// Element-kind tags for the dense dispatch loop.
const K_STAGE: u8 = 0;
const K_SOURCE: u8 = 1;
const K_SINK: u8 = 2;
const K_TILE: u8 = 3;

/// "No element" marker in the dense `u32` element-index encoding.
const NONE_U32: u32 = u32::MAX;

/// Persistent state of the parallel kernel: the shard plan, the dense
/// SoA mirrors of graph and handshake state, the boundary-distance map
/// driving lookahead windows, and each worker's ready sets, mailboxes
/// and arrival buffer. Plain data — worker threads are scoped per batch,
/// so the network stays `Clone`.
#[derive(Debug, Clone)]
pub(crate) struct ParState {
    /// Worker count (= shard count).
    workers: usize,
    /// Shard owning each element.
    shard_of: Vec<u16>,
    /// Immutable dense mirror of the element graph.
    topo: SoaTopo,
    /// Dense handshake state, live only between `load_dyn`/`store_dyn`.
    soa: SoaDyn,
    /// BFS hop distance from each element to the nearest boundary
    /// element (`u32::MAX` when no boundary is reachable).
    dist: Vec<u32>,
    /// For each worker, the sorted list of workers it shares at least
    /// one cut edge with — the only shards it ever exchanges mailbox
    /// traffic or mid-tick waits with.
    cut_peers: Vec<Vec<usize>>,
    /// Largest finite boundary distance: the deepest safe window this
    /// shard cut can ever produce. `None` when no cut edges exist
    /// (single worker), i.e. the window is unbounded.
    lookahead: Option<u64>,
    /// Per-worker kernel state.
    cores: Vec<ShardCore>,
    /// Cross-shard wake mailboxes, row-major: `mail[from * workers + to]`
    /// holds element indices worker `from` wants woken in shard `to`.
    mail: Vec<Vec<u32>>,
    /// Per-worker deferred arrivals, merged into the scoreboard at each
    /// window end.
    arrivals: Vec<Vec<Arrival>>,
    /// Scratch for the per-window arrival sort.
    arrival_scratch: Vec<Arrival>,
}

/// One worker's slice of the activity-list kernel.
#[derive(Debug, Clone)]
pub(crate) struct ShardCore {
    /// Per-polarity ready sets over the **full** element index space
    /// (only this shard's bits are ever set).
    ready: [ReadySet; 2],
    /// Agenda swap buffer, as in the sequential event kernel.
    scratch: Vec<u64>,
    /// Element visits executed by this worker, drained into the
    /// network-wide counter after each batch.
    pub(crate) steps: u64,
    /// Cross-shard wakes pushed into mailboxes, drained like `steps`.
    pub(crate) wakes_sent: u64,
    /// Cross-shard wakes folded out of this worker's mailbox column,
    /// drained like `steps`.
    pub(crate) wakes_received: u64,
    /// Per-epoch wall profiling, worker-owned during batches. `None`
    /// unless [`Network::enable_profiling`](crate::Network) was called.
    pub(crate) prof: Option<CoreProf>,
}

impl ParState {
    /// Builds the shard plan, the dense graph mirror and the
    /// boundary-distance map, and seeds per-shard ready sets from the
    /// sequential kernel's current `armed` bits.
    pub(crate) fn build(
        elements: &[Element],
        workers: usize,
        armed: &[ReadySet; 2],
        hints: Option<&[u32]>,
    ) -> Self {
        let n = elements.len();
        debug_assert!(n < NONE_U32 as usize, "element space fits u32 encoding");
        let workers = workers.clamp(1, n.max(1)).min(u16::MAX as usize);
        let shard_of = plan_shards(n, workers, hints);
        let topo = SoaTopo::build(elements);
        let dist = boundary_distances(&topo, &shard_of);
        let cut_peers = cut_peer_lists(&topo, &shard_of, workers);
        let lookahead = dist
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .map(u64::from);
        let mut cores = vec![
            ShardCore {
                ready: [
                    ReadySet::with_element_count(n),
                    ReadySet::with_element_count(n),
                ],
                scratch: vec![0; n.div_ceil(64)],
                steps: 0,
                wakes_sent: 0,
                wakes_received: 0,
                prof: None,
            };
            workers
        ];
        for (p, set) in armed.iter().enumerate() {
            for (word, &bits) in set.words.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let i = (word << 6) | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    cores[shard_of[i] as usize].ready[p].insert(i);
                }
            }
        }
        Self {
            workers,
            shard_of,
            topo,
            soa: SoaDyn::default(),
            dist,
            cut_peers,
            lookahead,
            cores,
            mail: vec![Vec::new(); workers * workers],
            arrivals: vec![Vec::new(); workers],
            arrival_scratch: Vec::new(),
        }
    }

    /// Registers element `i` into its owning shard's parity-`p` ready set
    /// (the parallel-mode form of [`Network::arm`](crate::Network)).
    pub(crate) fn arm(&mut self, i: usize, p: usize) {
        let s = self.shard_of[i] as usize;
        self.cores[s].ready[p].insert(i);
    }

    /// The number of worker shards.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// The deepest safe batching window the shard cut admits (`None` =
    /// unbounded: no cut edges exist).
    pub(crate) fn lookahead(&self) -> Option<u64> {
        self.lookahead
    }

    /// Per-worker step counters, for draining into the network total.
    pub(crate) fn cores_mut(&mut self) -> &mut [ShardCore] {
        &mut self.cores
    }

    /// Read access to the per-worker cores, for profile snapshots.
    pub(crate) fn cores(&self) -> &[ShardCore] {
        &self.cores
    }

    /// Switches on per-worker wall profiling for every shard.
    pub(crate) fn enable_profiling(&mut self) {
        for core in &mut self.cores {
            core.prof = Some(CoreProf::default());
        }
    }

    /// Elements assigned to each shard under the current plan.
    pub(crate) fn shard_elements(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.workers];
        for &s in &self.shard_of {
            counts[s as usize] += 1;
        }
        counts
    }

    /// Loads the dense handshake arrays from the element graph at batch
    /// start. The gating column starts at zero and accumulates enabled
    /// edges as a delta.
    fn load_dyn(&mut self, elements: &[Element]) {
        let n = elements.len();
        let s = &mut self.soa;
        s.out.clear();
        s.out.extend(elements.iter().map(|e| e.out_flit));
        s.acc.clear();
        s.acc
            .extend(elements.iter().map(|e| pack_id(e.accepted_from)));
        s.lock.clear();
        s.lock.extend(elements.iter().map(|e| pack_id(e.lock)));
        s.rr.clear();
        s.rr.extend(elements.iter().map(|e| e.rr_next as u32));
        s.enabled.clear();
        s.enabled.resize(n, 0);
    }

    /// Stores the dense handshake arrays back into the element graph at
    /// batch end, folding the gating delta into each element's
    /// accumulator.
    fn store_dyn(&self, elements: &mut [Element]) {
        for (i, el) in elements.iter_mut().enumerate() {
            el.out_flit = self.soa.out[i];
            el.accepted_from = unpack_id(self.soa.acc[i]);
            el.lock = unpack_id(self.soa.lock[i]);
            el.rr_next = self.soa.rr[i] as usize;
            let enabled = self.soa.enabled[i];
            if enabled != 0 {
                el.gating
                    .merge(&ClockGatingStats::from_counts(u64::from(enabled), 0));
            }
        }
    }
}

#[inline]
fn pack_id(id: Option<ElementId>) -> u32 {
    id.map_or(NONE_U32, |e| e.0)
}

#[inline]
fn unpack_id(raw: u32) -> Option<ElementId> {
    (raw != NONE_U32).then_some(ElementId(raw))
}

/// Immutable dense mirror of the element graph: kind tags, routing
/// filters, arbitration policy and CSR adjacency, all indexed by element.
#[derive(Debug, Clone, Default)]
struct SoaTopo {
    kind: Vec<u8>,
    filter: Vec<RouteFilter>,
    arb: Vec<Arbitration>,
    up_off: Vec<u32>,
    up_list: Vec<u32>,
    down_off: Vec<u32>,
    down_list: Vec<u32>,
}

impl SoaTopo {
    fn build(elements: &[Element]) -> Self {
        let n = elements.len();
        let mut topo = Self {
            kind: Vec::with_capacity(n),
            filter: Vec::with_capacity(n),
            arb: Vec::with_capacity(n),
            up_off: Vec::with_capacity(n + 1),
            up_list: Vec::new(),
            down_off: Vec::with_capacity(n + 1),
            down_list: Vec::new(),
        };
        topo.up_off.push(0);
        topo.down_off.push(0);
        for el in elements {
            topo.kind.push(match el.kind {
                Kind::Stage => K_STAGE,
                Kind::Source(_) => K_SOURCE,
                Kind::Sink(_) => K_SINK,
                Kind::Tile(_) => K_TILE,
            });
            topo.filter.push(el.filter);
            topo.arb.push(el.arb);
            topo.up_list.extend(el.upstreams.iter().map(|u| u.0));
            topo.up_off.push(topo.up_list.len() as u32);
            topo.down_list.extend(el.downstreams.iter().map(|d| d.0));
            topo.down_off.push(topo.down_list.len() as u32);
        }
        topo
    }

    fn len(&self) -> usize {
        self.kind.len()
    }

    #[inline]
    fn ups(&self, i: usize) -> &[u32] {
        &self.up_list[self.up_off[i] as usize..self.up_off[i + 1] as usize]
    }

    #[inline]
    fn downs(&self, i: usize) -> &[u32] {
        &self.down_list[self.down_off[i] as usize..self.down_off[i + 1] as usize]
    }
}

/// Dense per-element handshake state, live during a batch.
#[derive(Debug, Clone, Default)]
struct SoaDyn {
    /// `Element::out_flit`.
    out: Vec<Option<Flit>>,
    /// `Element::accepted_from`, `u32::MAX` = none.
    acc: Vec<u32>,
    /// `Element::lock`, `u32::MAX` = none.
    lock: Vec<u32>,
    /// `Element::rr_next`.
    rr: Vec<u32>,
    /// Enabled clock edges accumulated this batch (stages only).
    enabled: Vec<u32>,
}

/// Multi-source BFS over the undirected element adjacency from every
/// boundary element (one with a neighbour in another shard). `dist[i]`
/// is then the minimum number of ticks before a visit of `i` can cause a
/// boundary element to be visited — the per-element lookahead bound.
fn boundary_distances(topo: &SoaTopo, shard_of: &[u16]) -> Vec<u32> {
    let n = topo.len();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for i in 0..n {
        let home = shard_of[i];
        let cross = topo
            .ups(i)
            .iter()
            .chain(topo.downs(i))
            .any(|&j| shard_of[j as usize] != home);
        if cross {
            dist[i] = 0;
            queue.push_back(i as u32);
        }
    }
    while let Some(i) = queue.pop_front() {
        let d = dist[i as usize] + 1;
        let i = i as usize;
        for &j in topo.ups(i).iter().chain(topo.downs(i)) {
            let j = j as usize;
            if dist[j] == u32::MAX {
                dist[j] = d;
                queue.push_back(j as u32);
            }
        }
    }
    dist
}

/// For every worker, the sorted set of workers it shares a cut edge
/// with. Mailbox traffic and mid-tick waits are confined to these pairs.
fn cut_peer_lists(topo: &SoaTopo, shard_of: &[u16], workers: usize) -> Vec<Vec<usize>> {
    let mut sets = vec![std::collections::BTreeSet::new(); workers];
    for i in 0..topo.len() {
        let home = shard_of[i] as usize;
        for &j in topo.ups(i).iter().chain(topo.downs(i)) {
            let other = shard_of[j as usize] as usize;
            if other != home {
                sets[home].insert(other);
                sets[other].insert(home);
            }
        }
    }
    sets.into_iter().map(|s| s.into_iter().collect()).collect()
}

/// A shard's post-window activity summary: the minimum boundary
/// distance over its armed bits, and whether any bit is armed at all.
/// Packed into one `u64` so a single atomic publishes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardActivity {
    min_dist: u32,
    any_armed: bool,
}

impl ShardActivity {
    const IDLE: Self = Self {
        min_dist: u32::MAX,
        any_armed: false,
    };

    fn fold(self, other: Self) -> Self {
        Self {
            min_dist: self.min_dist.min(other.min_dist),
            any_armed: self.any_armed || other.any_armed,
        }
    }

    fn pack(self) -> u64 {
        (u64::from(self.any_armed) << 32) | u64::from(self.min_dist)
    }

    fn unpack(raw: u64) -> Self {
        Self {
            min_dist: raw as u32,
            any_armed: raw & (1 << 32) != 0,
        }
    }
}

/// Decides the next window from the fleet-wide activity summary. With
/// nothing armed anywhere no visit can ever happen, so the rest of the
/// batch is one window. Otherwise: minimum distance `0` forces a single
/// synchronised mailbox tick; drain mode clamps finite windows to one
/// tick so the between-tick drain check fires at exactly the sequential
/// tick boundaries; anything else batches up to `min_dist` barrier-free
/// ticks (`u32::MAX` — no reachable boundary — batches the remainder).
fn plan_window(activity: ShardActivity, remaining: u64, drain: bool) -> (u64, bool) {
    if !activity.any_armed {
        (remaining, false)
    } else if activity.min_dist == 0 {
        (1, true)
    } else if drain {
        (1, false)
    } else {
        (remaining.min(u64::from(activity.min_dist)), false)
    }
}

/// Activity summary over a core's armed bits (both parities).
fn ready_activity(core: &ShardCore, dist: &[u32]) -> ShardActivity {
    let mut m = u32::MAX;
    let mut any = false;
    for set in &core.ready {
        for (word, &bits) in set.words.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let i = (word << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                any = true;
                m = m.min(dist[i]);
                if m == 0 {
                    return ShardActivity {
                        min_dist: 0,
                        any_armed: true,
                    };
                }
            }
        }
    }
    ShardActivity {
        min_dist: m,
        any_armed: any,
    }
}

/// A shared view of the element array. Each element sits in its own
/// [`UnsafeCell`]; the alternating-edge discipline is the aliasing proof:
/// a tick's unique mutator of element `i` is the worker owning `i`'s
/// shard when `i`'s polarity matches the tick parity, and every other
/// access is a read of an opposite-parity element, frozen for the tick.
/// During a batched window the discipline is even stronger: no element
/// with a cross-shard neighbour is visited at all, so every access stays
/// inside one shard.
#[derive(Clone, Copy)]
struct SharedElements<'a> {
    cells: &'a [UnsafeCell<Element>],
}

// SAFETY: `Element` is `Send` (plain data + element-local RNG); the
// per-phase ownership discipline above keeps accesses disjoint.
unsafe impl Send for SharedElements<'_> {}
unsafe impl Sync for SharedElements<'_> {}

impl<'a> SharedElements<'a> {
    fn new(elements: &'a mut [Element]) -> Self {
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`.
        let cells = unsafe { &*(elements as *mut [Element] as *const [UnsafeCell<Element>]) };
        Self { cells }
    }

    /// # Safety
    /// The caller must be the current tick's unique owner of element `i`
    /// (matching parity, own shard, visit phase), with no other reference
    /// to `i` live.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut Element {
        unsafe { &mut *self.cells[i].get() }
    }

    /// # Safety
    /// `i` must not be concurrently mutated: an opposite-parity element
    /// during the visit phase, or any element while workers are parked
    /// between windows.
    #[inline]
    unsafe fn get(&self, i: usize) -> &Element {
        unsafe { &*self.cells[i].get() }
    }
}

/// A shared view over a dense column, one cell per element, with the
/// same ownership discipline as [`SharedElements`].
struct SharedSlice<'a, T> {
    cells: &'a [UnsafeCell<T>],
}

unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<T> Clone for SharedSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    fn new(data: &'a mut [T]) -> Self {
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`.
        let cells = unsafe { &*(data as *mut [T] as *const [UnsafeCell<T>]) };
        Self { cells }
    }

    /// # Safety
    /// The caller must own slot `i` in the current phase (see
    /// [`SharedElements`]), with no other reference to it live.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        unsafe { &mut *self.cells[i].get() }
    }

    /// # Safety
    /// Slot `i` must not be concurrently mutated.
    #[inline]
    unsafe fn get(&self, i: usize) -> &T {
        unsafe { &*self.cells[i].get() }
    }
}

/// The batch-shared view over every [`SoaDyn`] column.
#[derive(Clone, Copy)]
struct SoaView<'a> {
    out: SharedSlice<'a, Option<Flit>>,
    acc: SharedSlice<'a, u32>,
    lock: SharedSlice<'a, u32>,
    rr: SharedSlice<'a, u32>,
    enabled: SharedSlice<'a, u32>,
}

impl<'a> SoaView<'a> {
    fn new(soa: &'a mut SoaDyn) -> Self {
        Self {
            out: SharedSlice::new(&mut soa.out),
            acc: SharedSlice::new(&mut soa.acc),
            lock: SharedSlice::new(&mut soa.lock),
            rr: SharedSlice::new(&mut soa.rr),
            enabled: SharedSlice::new(&mut soa.enabled),
        }
    }
}

/// A shared view over a slice of `Vec`s, each in its own cell — the
/// mailbox matrix and the arrival buffers. Ownership rotates by phase:
/// during visits worker `w` owns mailbox row `w` and arrival buffer `w`;
/// during merges worker `w` owns mailbox **column** `w` and the
/// coordinator owns every arrival buffer once all workers reported done.
struct SharedVecs<'a, T> {
    cells: &'a [UnsafeCell<Vec<T>>],
}

unsafe impl<T: Send> Send for SharedVecs<'_, T> {}
unsafe impl<T: Send> Sync for SharedVecs<'_, T> {}

impl<T> Clone for SharedVecs<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedVecs<'_, T> {}

impl<'a, T> SharedVecs<'a, T> {
    fn new(vecs: &'a mut [Vec<T>]) -> Self {
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`.
        let cells = unsafe { &*(vecs as *mut [Vec<T>] as *const [UnsafeCell<Vec<T>>]) };
        Self { cells }
    }

    /// # Safety
    /// The caller must own cell `idx` in the current phase (see the type
    /// docs), with no other reference to it live.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, idx: usize) -> &mut Vec<T> {
        unsafe { &mut *self.cells[idx].get() }
    }
}

/// One worker's synchronisation slot, padded to its own cache line.
struct Peer {
    /// Serial of the last window this worker finished.
    done: AtomicU64,
    /// Serial of the last mailbox tick whose visit phase this worker
    /// finished — the per-edge flag cut peers wait on before merging.
    visit_done: AtomicU64,
    /// Packed [`ShardActivity`] over this worker's ready sets after its
    /// last window, published before `done`.
    activity: AtomicU64,
    /// Whether this worker may be parked (set before parking, cleared by
    /// wakers and on wake-up).
    parked: AtomicBool,
    /// This worker's thread handle, registered once at batch start.
    thread: OnceLock<Thread>,
}

#[repr(align(128))]
struct PadPeer(Peer);

/// Window-publication state shared by all workers of one batch. All
/// accesses are `SeqCst`: the single total order makes the park/unpark
/// handshake auditable (a waker's state store and `parked` swap either
/// precede the waiter's re-check, which then sees the state, or follow
/// its `parked` store, which the swap then sees).
struct SyncShared {
    /// Monotonic serial of the currently published window.
    serial: AtomicU64,
    /// Tick offset (from the batch base) of the current window's first
    /// tick. Published so workers never track tick positions locally.
    base: AtomicU64,
    /// Tick count of the current window.
    ticks: AtomicU64,
    /// [`FLAG_MAILBOX`] | [`FLAG_STOP`].
    flags: AtomicU64,
    /// Per-worker slots.
    peers: Vec<PadPeer>,
}

/// The window ends with one synchronised mailbox tick.
const FLAG_MAILBOX: u64 = 1;
/// The batch is over; workers exit.
const FLAG_STOP: u64 = 2;

impl SyncShared {
    fn new(workers: usize) -> Self {
        let peers = (0..workers)
            .map(|_| {
                PadPeer(Peer {
                    done: AtomicU64::new(0),
                    visit_done: AtomicU64::new(0),
                    activity: AtomicU64::new(ShardActivity::IDLE.pack()),
                    parked: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
            })
            .collect();
        Self {
            serial: AtomicU64::new(0),
            base: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            flags: AtomicU64::new(0),
            peers,
        }
    }

    /// Registers the calling thread as worker `w`, so others can unpark
    /// it.
    fn register(&self, w: usize) {
        let _ = self.peers[w].0.thread.set(std::thread::current());
    }

    /// Publishes window `serial`. The window registers are only
    /// rewritten after every worker reported `done == serial - 1`, so
    /// readers of the current serial always see a consistent tuple.
    fn publish(&self, serial: u64, base: u64, ticks: u64, flags: u64) {
        self.base.store(base, Ordering::SeqCst);
        self.ticks.store(ticks, Ordering::SeqCst);
        self.flags.store(flags, Ordering::SeqCst);
        self.serial.store(serial, Ordering::SeqCst);
        for w in 1..self.peers.len() {
            self.wake(w);
        }
    }

    /// The `(base, ticks, flags)` tuple of the published window.
    fn window(&self) -> (u64, u64, u64) {
        let base = self.base.load(Ordering::SeqCst);
        let ticks = self.ticks.load(Ordering::SeqCst);
        let flags = self.flags.load(Ordering::SeqCst);
        (base, ticks, flags)
    }

    /// Unparks worker `w` if it is (or is about to go) parked. A stale
    /// unpark token at worst makes the next `park` return spuriously;
    /// every wait re-checks its condition in a loop.
    fn wake(&self, w: usize) {
        let peer = &self.peers[w].0;
        if peer.parked.swap(false, Ordering::SeqCst) {
            if let Some(thread) = peer.thread.get() {
                thread.unpark();
            }
        }
    }

    /// Spins briefly, then parks worker `me` until `cond` holds. The
    /// park timeout is a belt-and-braces bound, not a correctness
    /// requirement: every state change is followed by a `wake`.
    fn wait_until(&self, me: usize, cond: impl Fn() -> bool) {
        let mut rounds = 0u32;
        loop {
            if cond() {
                return;
            }
            rounds += 1;
            if rounds < 128 {
                std::hint::spin_loop();
            } else if rounds < 160 {
                std::thread::yield_now();
            } else {
                let peer = &self.peers[me].0;
                peer.parked.store(true, Ordering::SeqCst);
                if cond() {
                    peer.parked.store(false, Ordering::SeqCst);
                    return;
                }
                std::thread::park_timeout(std::time::Duration::from_millis(1));
                peer.parked.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// Everything a parallel batch borrows from the network.
pub(crate) struct ParRunCtx<'a> {
    pub elements: &'a mut [Element],
    pub scoreboard: &'a mut Scoreboard,
    pub pinned: &'a [bool],
    pub par: &'a mut ParState,
    pub num_ports: u32,
    pub base_tick: u64,
}

/// Everything a worker needs to execute one published window; bundled so
/// the per-window call is a single dispatch.
#[derive(Clone, Copy)]
struct WindowCtx<'a> {
    shared: SharedElements<'a>,
    view: SoaView<'a>,
    topo: &'a SoaTopo,
    mail: SharedVecs<'a, u32>,
    arrivals: SharedVecs<'a, Arrival>,
    shard_of: &'a [u16],
    pinned: &'a [bool],
    dist: &'a [u32],
    num_ports: u32,
    base_tick: u64,
    workers: usize,
}

/// Runs up to `max_ticks` half-cycles across all workers, returning the
/// number actually executed. With `stop_when_drained`, the batch also
/// stops before the first tick at which nothing is left in flight —
/// evaluated between ticks, exactly where the sequential drain loop
/// checks, so tick counts (and the gating statistics derived from them)
/// match the event kernel bit for bit.
pub(crate) fn par_run(ctx: ParRunCtx<'_>, max_ticks: u64, stop_when_drained: bool) -> u64 {
    let ParRunCtx {
        elements,
        scoreboard,
        pinned,
        par,
        num_ports,
        base_tick,
    } = ctx;
    par.load_dyn(elements);
    let workers = par.workers;
    let shared = SharedElements::new(elements);
    let view = SoaView::new(&mut par.soa);
    let mail = SharedVecs::new(&mut par.mail);
    let arrivals = SharedVecs::new(&mut par.arrivals);
    let arrival_scratch = &mut par.arrival_scratch;
    let dist: &[u32] = &par.dist;
    let cut_peers: &[Vec<usize>] = &par.cut_peers;
    let wctx = WindowCtx {
        shared,
        view,
        topo: &par.topo,
        mail,
        arrivals,
        shard_of: &par.shard_of,
        pinned,
        dist,
        num_ports,
        base_tick,
        workers,
    };

    let sync = SyncShared::new(workers);
    sync.register(0);
    let mut executed = 0u64;

    // Wall-clock origin of this batch; per-epoch samples are offset from
    // it (plus the profiler's cumulative base) so timelines stay
    // continuous across batches. One clock read per batch — the only one
    // when profiling is disabled.
    let batch_base = Instant::now();

    // All cores are quiescent before the first window, so the
    // coordinator may scan every ready set for the initial activity
    // summary.
    let init_activity = par
        .cores
        .iter()
        .map(|core| ready_activity(core, dist))
        .fold(ShardActivity::IDLE, ShardActivity::fold);

    let mut core_iter = par.cores.iter_mut();
    let coordinator_core = core_iter.next().expect("at least one worker");

    std::thread::scope(|scope| {
        for (offset, core) in core_iter.enumerate() {
            let w = offset + 1;
            let sync = &sync;
            let peers = &cut_peers[w];
            scope.spawn(move || {
                sync.register(w);
                let profiling = core.prof.is_some();
                let mut seen = 0u64;
                let mut phases = 0u64;
                loop {
                    let t0 = profiling.then(Instant::now);
                    sync.wait_until(w, || sync.serial.load(Ordering::SeqCst) > seen);
                    seen += 1;
                    let (base, ticks, flags) = sync.window();
                    if flags & FLAG_STOP != 0 {
                        break;
                    }
                    let t1 = profiling.then(Instant::now);
                    let counters0 = (core.steps, core.wakes_sent, core.wakes_received);
                    let (activity, prof_marks) = run_window(
                        wctx,
                        base,
                        ticks,
                        flags,
                        w,
                        core,
                        peers,
                        sync,
                        &mut phases,
                        profiling,
                    );
                    let peer = &sync.peers[w].0;
                    peer.activity.store(activity.pack(), Ordering::SeqCst);
                    peer.done.store(seen, Ordering::SeqCst);
                    sync.wake(0);
                    if let (Some(t0), Some(t1), Some((t2, blocked))) = (t0, t1, prof_marks) {
                        record_epoch_at(
                            core,
                            counters0,
                            base_tick + base,
                            ticks,
                            batch_base,
                            t0,
                            t1,
                            t2,
                            Instant::now(),
                            blocked,
                        );
                    }
                }
            });
        }
        // The coordinating thread is worker 0: it decides and publishes
        // windows, runs its own shard, then folds deferred arrivals into
        // the scoreboard and evaluates the stop condition once every
        // worker has reported done.
        let profiling = coordinator_core.prof.is_some();
        let mut serial = 0u64;
        let mut phases = 0u64;
        let mut k = 0u64;
        let mut activity_next = init_activity;
        // SAFETY: all workers are parked before the first window, so the
        // coordinator may read every element.
        let mut stop =
            max_ticks == 0 || (stop_when_drained && nothing_in_flight(shared, view, wctx.topo));
        loop {
            let t0 = profiling.then(Instant::now);
            serial += 1;
            if stop {
                sync.publish(serial, k, 0, FLAG_STOP);
                break;
            }
            let (ticks, mailbox) = plan_window(activity_next, max_ticks - k, stop_when_drained);
            let flags = if mailbox { FLAG_MAILBOX } else { 0 };
            sync.publish(serial, k, ticks, flags);
            let t1 = profiling.then(Instant::now);
            let counters0 = (
                coordinator_core.steps,
                coordinator_core.wakes_sent,
                coordinator_core.wakes_received,
            );
            let (own_activity, prof_marks) = run_window(
                wctx,
                k,
                ticks,
                flags,
                0,
                coordinator_core,
                &cut_peers[0],
                &sync,
                &mut phases,
                profiling,
            );
            let wait0 = profiling.then(Instant::now);
            for w in 1..workers {
                sync.wait_until(0, || sync.peers[w].0.done.load(Ordering::SeqCst) >= serial);
            }
            let wait_ns = wait0.map_or(0, |t| dur_ns(t, Instant::now()));
            // All workers are now parked on the next serial: the
            // coordinator owns every arrival buffer and may read all
            // element state.
            arrival_scratch.clear();
            for buf in 0..workers {
                // SAFETY: arrival buffers belong to the coordinator
                // between windows.
                arrival_scratch.append(unsafe { arrivals.get_mut(buf) });
            }
            // Each consumer records at most one arrival per tick and
            // each worker appended in (tick, element) order, so sorting
            // by the stamped tick then element index reproduces the
            // sequential kernel's scoreboard order exactly (keys are
            // unique; unstable sort is fine).
            arrival_scratch.sort_unstable_by_key(|a| (a.0, a.1));
            for (tick, _, flit, port) in arrival_scratch.drain(..) {
                scoreboard.record_arrival(&flit, tick, port);
            }
            activity_next = (1..workers).fold(own_activity, |a, w| {
                a.fold(ShardActivity::unpack(
                    sync.peers[w].0.activity.load(Ordering::SeqCst),
                ))
            });
            k += ticks;
            executed = k;
            stop =
                k >= max_ticks || (stop_when_drained && nothing_in_flight(shared, view, wctx.topo));
            // The coordinator's flush phase includes the arrival fold and
            // stop evaluation above, so its sample is recorded last.
            if let (Some(t0), Some(t1), Some((t2, blocked))) = (t0, t1, prof_marks) {
                record_epoch_at(
                    coordinator_core,
                    counters0,
                    base_tick + k - ticks,
                    ticks,
                    batch_base,
                    t0,
                    t1,
                    t2,
                    Instant::now(),
                    blocked + wait_ns,
                );
            }
        }
    });
    par.store_dyn(elements);
    executed
}

/// Executes one published window for one shard: `ticks` back-to-back
/// visit phases. A mailbox window (`FLAG_MAILBOX`) then ends with the
/// per-edge `visit_done` exchange and the mailbox merge with this shard's
/// cut peers (the coordinator's done-wait is the merge barrier before
/// the next window's visits).
///
/// The `phases` counter numbers rendezvous points monotonically; every
/// worker processes the identical window sequence, so the counters stay
/// in lockstep without carrying serials. Returns the shard's post-window
/// activity summary and, when profiling, `(visit-phase end mark, ns
/// blocked on peers after it)`.
#[allow(clippy::too_many_arguments)]
fn run_window(
    ctx: WindowCtx<'_>,
    base: u64,
    ticks: u64,
    flags: u64,
    w: usize,
    core: &mut ShardCore,
    cut_peers: &[usize],
    sync: &SyncShared,
    phases: &mut u64,
    profiling: bool,
) -> (ShardActivity, Option<(Instant, u64)>) {
    let mailbox = flags & FLAG_MAILBOX != 0;
    for dt in 0..ticks {
        let tick = ctx.base_tick + base + dt;
        visit_tick(ctx, tick, (tick % 2) as usize, w, core, mailbox);
    }
    let t2 = profiling.then(Instant::now);
    let mut blocked = 0u64;
    if mailbox {
        *phases += 1;
        let phase = *phases;
        sync.peers[w].0.visit_done.store(phase, Ordering::SeqCst);
        for &v in cut_peers {
            sync.wake(v);
        }
        let tw = profiling.then(Instant::now);
        for &v in cut_peers {
            sync.wait_until(w, || {
                sync.peers[v].0.visit_done.load(Ordering::SeqCst) >= phase
            });
        }
        if let Some(tw) = tw {
            blocked = dur_ns(tw, Instant::now());
        }
        let p = ((ctx.base_tick + base) % 2) as usize;
        merge_shard(ctx.mail, w, ctx.workers, p, core, cut_peers);
    }
    (ready_activity(core, ctx.dist), t2.map(|t| (t, blocked)))
}

/// Nanoseconds from `a` to `b` (saturating to zero if reordered).
#[inline]
fn dur_ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Folds one profiled window into a worker's [`CoreProf`]: counter
/// deltas since `counters0`, the window's tick span, and the phase times
/// (`t0` wait start, `t1` window acquired, `t2` visits done, `t_end`
/// window fully processed). `blocked` is the peer-wait time after the
/// visits (mailbox merge, coordinator done-wait); it moves from the flush
/// phase into `barrier_ns`.
#[allow(clippy::too_many_arguments)]
fn record_epoch_at(
    core: &mut ShardCore,
    counters0: (u64, u64, u64),
    tick: u64,
    ticks: u64,
    batch_base: Instant,
    t0: Instant,
    t1: Instant,
    t2: Instant,
    t_end: Instant,
    blocked: u64,
) {
    let (steps0, sent0, recv0) = counters0;
    let steps = core.steps - steps0;
    let wakes_sent = core.wakes_sent - sent0;
    let wakes_received = core.wakes_received - recv0;
    let prof = core.prof.as_mut().expect("profiling enabled");
    let start_ns = prof.base_ns + dur_ns(batch_base, t0);
    prof.record(EpochSample {
        tick,
        ticks: ticks.min(u64::from(u32::MAX)) as u32,
        steps,
        wakes_sent,
        wakes_received,
        start_ns,
        step_ns: dur_ns(t1, t2),
        flush_ns: dur_ns(t2, t_end).saturating_sub(blocked),
        barrier_ns: dur_ns(t0, t1) + blocked,
    });
}

/// Whether no element holds a flit and no tile queues a response — the
/// fault-free form of the drain-idle check. Only callable while all
/// workers are quiescent (before the first window or after all reported
/// done).
fn nothing_in_flight(shared: SharedElements<'_>, view: SoaView<'_>, topo: &SoaTopo) -> bool {
    (0..topo.len()).all(|i| {
        // SAFETY: no worker is in a visit phase.
        unsafe { view.out.get(i) }.is_none()
            && (topo.kind[i] != K_TILE || {
                // SAFETY: as above.
                match &unsafe { shared.get(i) }.kind {
                    Kind::Tile(t) => t.pending.is_empty(),
                    _ => true,
                }
            })
    })
}

/// The visit phase of one tick for one shard: drain the parity-`p` ready
/// set in ascending element order, stepping each element and re-arming
/// exactly as the sequential event kernel does (conservative mode is
/// never active here — a fault plan runs the dense loop and trace sinks
/// the sequential event loop, so neither ever reaches a `ParState`).
/// With `allow_cross` false (a batched window), the lookahead guarantee
/// makes cross-shard wakes impossible; a tripwire assert enforces it.
fn visit_tick(
    ctx: WindowCtx<'_>,
    tick: u64,
    p: usize,
    w: usize,
    core: &mut ShardCore,
    allow_cross: bool,
) {
    let WindowCtx {
        shared,
        view,
        topo,
        mail,
        arrivals,
        shard_of,
        pinned,
        num_ports,
        workers,
        ..
    } = ctx;
    std::mem::swap(&mut core.ready[p].words, &mut core.scratch);
    for word in 0..core.scratch.len() {
        let mut bits = std::mem::take(&mut core.scratch[word]);
        while bits != 0 {
            let i = (word << 6) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            core.steps += 1;
            // SAFETY: `i` is in shard `w` with parity `p` — this worker
            // is its unique owner for this tick, and all its neighbour
            // reads touch frozen opposite-parity state.
            let before = unsafe { *view.out.get(i) };
            let stay_kind = match topo.kind[i] {
                K_STAGE => {
                    // SAFETY: as above.
                    unsafe { soa_step_stage(view, topo, i) };
                    false
                }
                K_SOURCE => {
                    // SAFETY: as above.
                    let el = unsafe { shared.get_mut(i) };
                    // SAFETY: as above.
                    unsafe { soa_step_source(view, topo, el, i, tick, num_ports) }
                }
                K_SINK => {
                    // SAFETY: as above; sinks only read their element.
                    let el = unsafe { shared.get(i) };
                    // SAFETY: arrival buffer `w` belongs to this worker
                    // during the visit phase.
                    let buf = unsafe { arrivals.get_mut(w) };
                    // SAFETY: as above.
                    unsafe { soa_step_sink(view, topo, el, i, tick, buf) }
                }
                _ => {
                    // SAFETY: as above.
                    let el = unsafe { shared.get_mut(i) };
                    // SAFETY: as above.
                    let buf = unsafe { arrivals.get_mut(w) };
                    // SAFETY: as above.
                    unsafe { soa_step_tile(view, topo, el, i, tick, num_ports, buf) }
                }
            };
            soa_rearm(
                view,
                topo,
                i,
                p,
                before,
                stay_kind,
                pinned,
                shard_of,
                w,
                workers,
                core,
                mail,
                allow_cross,
            );
        }
    }
}

/// The merge phase of a mailbox tick: fold the mailbox columns addressed
/// to worker `w` by its cut peers into its next-parity ready set. Bitset
/// inserts are idempotent and commutative, so the result is independent
/// of mailbox order — the determinism anchor for cross-shard wakes.
/// Non-peer mailboxes are provably empty (wakes only target graph
/// neighbours) and are skipped.
fn merge_shard(
    mail: SharedVecs<'_, u32>,
    w: usize,
    workers: usize,
    p: usize,
    core: &mut ShardCore,
    cut_peers: &[usize],
) {
    for &from in cut_peers {
        // SAFETY: mailbox column `w` belongs to this worker during the
        // merge phase, and `from` has published `visit_done`.
        let inbox = unsafe { mail.get_mut(from * workers + w) };
        core.wakes_received += inbox.len() as u64;
        for &idx in inbox.iter() {
            core.ready[p ^ 1].insert(idx as usize);
        }
        inbox.clear();
    }
}

/// Post-visit re-arm, mirroring `Network::rearm_after_visit` with
/// `conservative == false`; cross-shard wakes go through the mailboxes.
/// `stay_kind` carries the kind-specific stay conditions computed during
/// the step (source still emitting, tile presenting or queueing, sink
/// seeing an upstream offer).
#[allow(clippy::too_many_arguments)]
fn soa_rearm(
    view: SoaView<'_>,
    topo: &SoaTopo,
    i: usize,
    p: usize,
    before: Option<Flit>,
    stay_kind: bool,
    pinned: &[bool],
    shard_of: &[u16],
    w: usize,
    workers: usize,
    core: &mut ShardCore,
    mail: SharedVecs<'_, u32>,
    allow_cross: bool,
) {
    // SAFETY: `i` belongs to this worker this tick.
    let out = unsafe { *view.out.get(i) };
    // SAFETY: as above.
    let captured = unsafe { *view.acc.get(i) };
    let presenting = out.is_some();
    if captured != NONE_U32 || pinned[i] || stay_kind {
        core.ready[p].insert(i);
    }
    let wake = |idx: usize, core: &mut ShardCore| {
        let target = shard_of[idx] as usize;
        if target == w {
            core.ready[p ^ 1].insert(idx);
        } else {
            assert!(
                allow_cross,
                "cross-shard wake inside a batched lookahead window"
            );
            core.wakes_sent += 1;
            // SAFETY: mailbox row `w` belongs to this worker during the
            // visit phase.
            unsafe { mail.get_mut(w * workers + target) }.push(idx as u32);
        }
    };
    if captured != NONE_U32 {
        wake(captured as usize, core);
    }
    if presenting && out != before {
        for &d in topo.downs(i) {
            wake(d as usize, core);
        }
    }
}

/// `Network::was_drained` against the dense state.
///
/// # Safety
/// The caller must own element `i` this tick; downstreams are frozen
/// opposite-parity reads.
#[inline]
unsafe fn soa_drained(view: SoaView<'_>, topo: &SoaTopo, i: usize) -> bool {
    // SAFETY: per the function contract.
    unsafe { view.out.get(i) }.is_some()
        && topo.downs(i).iter().any(|&d| {
            // SAFETY: downstreams are neighbour reads.
            *unsafe { view.acc.get(d as usize) } == i as u32
        })
}

/// `Network::first_offer` against the dense state: the first upstream
/// presenting a flit, as `(upstream index, flit)`.
///
/// # Safety
/// As [`soa_drained`].
#[inline]
unsafe fn soa_first_offer(view: SoaView<'_>, topo: &SoaTopo, i: usize) -> (u32, Option<Flit>) {
    for &u in topo.ups(i) {
        // SAFETY: upstreams are neighbour reads.
        if let Some(flit) = *unsafe { view.out.get(u as usize) } {
            return (u, Some(flit));
        }
    }
    (NONE_U32, None)
}

/// `Network::step_stage` specialised for no faults and no tracing,
/// running entirely on the dense arrays.
///
/// # Safety
/// The caller must own element `i` this tick.
unsafe fn soa_step_stage(view: SoaView<'_>, topo: &SoaTopo, i: usize) {
    // SAFETY: per the function contract.
    let drained = unsafe { soa_drained(view, topo, i) };
    let ups = topo.ups(i);
    let n = ups.len();
    let mut winner: Option<(usize, Flit)> = None;
    // SAFETY: own element.
    let locked = unsafe { *view.lock.get(i) };
    if locked != NONE_U32 {
        // SAFETY: the locked upstream is a neighbour read.
        if let Some(flit) = *unsafe { view.out.get(locked as usize) } {
            let slot = ups
                .iter()
                .position(|&u| u == locked)
                .expect("lock always names an upstream");
            winner = Some((slot, flit));
        }
    } else if n > 0 {
        let start = match topo.arb[i] {
            // SAFETY: own element.
            Arbitration::RoundRobin => (unsafe { *view.rr.get(i) }) as usize % n,
            Arbitration::Priority => 0,
        };
        for k in 0..n {
            let slot = (start + k) % n;
            let u = ups[slot];
            // SAFETY: upstreams are neighbour reads.
            if let Some(flit) = *unsafe { view.out.get(u as usize) } {
                if flit.opens_route() && topo.filter[i].wants(&flit) {
                    winner = Some((slot, flit));
                    break;
                }
            }
        }
    }
    // SAFETY: own element.
    let out = unsafe { view.out.get_mut(i) };
    let new_empty = out.is_none() || drained;
    match winner {
        Some((slot, flit)) if new_empty => {
            let upstream = ups[slot];
            // SAFETY: own element (all four columns).
            unsafe {
                *view.acc.get_mut(i) = upstream;
                *out = Some(flit);
                if flit.opens_route() {
                    *view.rr.get_mut(i) = ((slot + 1) % n.max(1)) as u32;
                }
                *view.lock.get_mut(i) = if flit.closes_route() {
                    NONE_U32
                } else {
                    upstream
                };
                *view.enabled.get_mut(i) += 1;
            }
        }
        _ => {
            if drained {
                *out = None;
            }
            // SAFETY: own element.
            unsafe { *view.acc.get_mut(i) = NONE_U32 };
        }
    }
}

/// `Network::step_source` specialised for no faults and no tracing.
/// Returns the kind-specific stay condition (worm still emitting).
///
/// # Safety
/// The caller must own element `i` this tick, and `el` must be `i`'s
/// element.
unsafe fn soa_step_source(
    view: SoaView<'_>,
    topo: &SoaTopo,
    el: &mut Element,
    i: usize,
    tick: u64,
    num_ports: u32,
) -> bool {
    // SAFETY: per the function contract.
    let drained = unsafe { soa_drained(view, topo, i) };
    let cycle = tick / 2;
    // SAFETY: own element.
    let out = unsafe { view.out.get_mut(i) };
    if drained {
        *out = None;
    }
    // SAFETY: own element.
    unsafe { *view.acc.get_mut(i) = NONE_U32 };
    let Kind::Source(state) = &mut el.kind else {
        unreachable!("soa_step_source called on non-source")
    };
    if state.enabled || state.emitting.is_some() {
        if out.is_none() {
            if let Some((dest, remaining)) = state.emitting {
                let kind = if remaining == 1 {
                    crate::FlitKind::Tail
                } else {
                    crate::FlitKind::Body
                };
                let flit = Flit::with_kind(
                    state.port,
                    dest,
                    state.next_seq,
                    state.next_packet,
                    kind,
                    tick,
                );
                state.next_seq += 1;
                state.sent += 1;
                state.emitting = if remaining == 1 {
                    state.next_packet += 1;
                    state.packets_sent += 1;
                    None
                } else {
                    Some((dest, remaining - 1))
                };
                *out = Some(flit);
            } else if state.enabled {
                let crate::element::SourceState {
                    pattern,
                    port,
                    rng,
                    cursor,
                    ..
                } = state;
                if let TrafficPhase::Inject(dest) =
                    pattern.decide(*port, num_ports, cycle, rng, cursor)
                {
                    if let Some(trace) = &mut state.trace {
                        trace.push((cycle, dest.0));
                    }
                    let flit = if state.packet_len == 1 {
                        let f = Flit::with_kind(
                            state.port,
                            dest,
                            state.next_seq,
                            state.next_packet,
                            crate::FlitKind::Single,
                            tick,
                        );
                        state.next_packet += 1;
                        state.packets_sent += 1;
                        f
                    } else {
                        let f = Flit::with_kind(
                            state.port,
                            dest,
                            state.next_seq,
                            state.next_packet,
                            crate::FlitKind::Head,
                            tick,
                        );
                        state.emitting = Some((dest, state.packet_len - 1));
                        f
                    };
                    state.next_seq += 1;
                    state.sent += 1;
                    *out = Some(flit);
                }
            }
        } else {
            state.stalled_edges += 1;
        }
    }
    state.emitting.is_some()
}

/// `Network::step_sink` specialised for no faults and no tracing; the
/// scoreboard arrival is deferred into this worker's buffer. Returns the
/// kind-specific stay condition (an upstream still presents an offer).
///
/// # Safety
/// The caller must own element `i` this tick, and `el` must be `i`'s
/// element.
unsafe fn soa_step_sink(
    view: SoaView<'_>,
    topo: &SoaTopo,
    el: &Element,
    i: usize,
    tick: u64,
    arrivals: &mut Vec<Arrival>,
) -> bool {
    // SAFETY: per the function contract.
    let (up, offered) = unsafe { soa_first_offer(view, topo, i) };
    let Kind::Sink(state) = &el.kind else {
        unreachable!("soa_step_sink called on non-sink")
    };
    let accepts = state.mode.accepts(tick / 2);
    let port = state.port;
    match (accepts, offered) {
        (true, Some(flit)) => {
            // SAFETY: own element.
            unsafe { *view.acc.get_mut(i) = up };
            arrivals.push((tick, i as u32, flit, port));
        }
        _ => {
            // SAFETY: own element.
            unsafe { *view.acc.get_mut(i) = NONE_U32 };
        }
    }
    offered.is_some()
}

/// `Network::step_tile` specialised for no faults and no tracing; the
/// scoreboard arrival is deferred into this worker's buffer. Returns the
/// kind-specific stay condition (presenting, or responses still queued).
///
/// # Safety
/// The caller must own element `i` this tick, and `el` must be `i`'s
/// element.
#[allow(clippy::too_many_arguments)]
unsafe fn soa_step_tile(
    view: SoaView<'_>,
    topo: &SoaTopo,
    el: &mut Element,
    i: usize,
    tick: u64,
    num_ports: u32,
    arrivals: &mut Vec<Arrival>,
) -> bool {
    // SAFETY: per the function contract.
    let drained = unsafe { soa_drained(view, topo, i) };
    // SAFETY: per the function contract.
    let (up, offered) = unsafe { soa_first_offer(view, topo, i) };
    // SAFETY: own element.
    let out = unsafe { view.out.get_mut(i) };
    if drained {
        *out = None;
    }
    let out_empty = out.is_none();
    let Kind::Tile(state) = &mut el.kind else {
        unreachable!("soa_step_tile called on non-tile")
    };
    let port = state.port;
    let cycle = tick / 2;
    let arrived = offered;
    // SAFETY: own element.
    unsafe {
        *view.acc.get_mut(i) = if offered.is_some() { up } else { NONE_U32 };
    }
    if let Some(flit) = arrived {
        match &mut state.role {
            TileRole::Memory { service_cycles } => {
                if flit.closes_route() {
                    state.pending.push_back((flit.src, cycle + *service_cycles));
                }
            }
            TileRole::Processor { .. } => {
                if let Some(queue) = state.outstanding.get_mut(&flit.src.0) {
                    if let Some(sent_tick) = queue.pop_front() {
                        state.round_trip.record(tick.saturating_sub(sent_tick));
                        state.responses += 1;
                    }
                }
            }
        }
    }
    if out_empty {
        let mut emit = None;
        match &mut state.role {
            TileRole::Memory { .. } => {
                if let Some(&(requester, ready)) = state.pending.front() {
                    if cycle >= ready {
                        state.pending.pop_front();
                        emit = Some(requester);
                    }
                }
            }
            TileRole::Processor {
                pattern,
                max_outstanding,
            } => {
                if state.enabled {
                    let in_flight: usize = state.outstanding.values().map(|q| q.len()).sum();
                    if in_flight < *max_outstanding {
                        if let TrafficPhase::Inject(dest) = pattern.decide(
                            port,
                            num_ports,
                            cycle,
                            &mut state.rng,
                            &mut state.cursor,
                        ) {
                            emit = Some(dest);
                        }
                    }
                }
            }
        }
        if let Some(dest) = emit {
            let flit = Flit::with_kind(
                port,
                dest,
                state.next_seq,
                state.next_seq, // single-flit packets: packet id = seq
                crate::FlitKind::Single,
                tick,
            );
            state.next_seq += 1;
            state.sent += 1;
            state.packets_sent += 1;
            if let TileRole::Processor { .. } = state.role {
                state.outstanding.entry(dest.0).or_default().push_back(tick);
            }
            *out = Some(flit);
        }
    } else if state.enabled {
        state.stalled_edges += 1;
    }
    if let Some(flit) = arrived {
        arrivals.push((tick, i as u32, flit, port));
    }
    out.is_some() || !state.pending.is_empty()
}

/// Assigns every element to a shard.
///
/// With builder-provided subtree hints, elements are grouped by hint and
/// whole groups are placed longest-processing-time-first onto the least
/// loaded shard — subtrees stay intact, so in a tree fabric almost all
/// handshake traffic is shard-internal and only root crossings use the
/// mailboxes. Without hints, contiguous index ranges are used (builders
/// allocate neighbouring elements contiguously, so ranges approximate
/// locality for meshes and pipelines).
fn plan_shards(n: usize, workers: usize, hints: Option<&[u32]>) -> Vec<u16> {
    let mut shard_of = vec![0u16; n];
    match hints {
        Some(h) if h.len() == n && workers > 1 => {
            // Group elements by hint, keyed ascending for determinism.
            let mut groups: std::collections::BTreeMap<u32, Vec<u32>> =
                std::collections::BTreeMap::new();
            for (i, &g) in h.iter().enumerate() {
                groups.entry(g).or_default().push(i as u32);
            }
            // LPT: biggest group first (ties by key), onto the least
            // loaded shard (ties by lowest shard index).
            let mut order: Vec<(&u32, &Vec<u32>)> = groups.iter().collect();
            order.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
            let mut load = vec![0usize; workers];
            for (_, members) in order {
                let target = (0..workers).min_by_key(|&s| (load[s], s)).unwrap_or(0);
                load[target] += members.len();
                for &i in members {
                    shard_of[i as usize] = target as u16;
                }
            }
        }
        _ => {
            for (i, slot) in shard_of.iter_mut().enumerate() {
                *slot = (i * workers / n.max(1)) as u16;
            }
        }
    }
    shard_of
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_plan_balances_counts() {
        let plan = plan_shards(10, 3, None);
        assert_eq!(plan.len(), 10);
        let mut counts = [0usize; 3];
        for &s in &plan {
            counts[s as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c >= 3), "{counts:?}");
        // Contiguous: non-decreasing shard ids.
        assert!(plan.windows(2).all(|w| w[0] <= w[1]), "{plan:?}");
    }

    #[test]
    fn hinted_plan_keeps_groups_intact() {
        // 4 groups of sizes 5, 3, 3, 1 over 2 shards: LPT puts the 5
        // alone-first, then 3 and 3 and 1 balance to 6/6.
        let mut hints = Vec::new();
        hints.extend(std::iter::repeat_n(0u32, 5));
        hints.extend(std::iter::repeat_n(1u32, 3));
        hints.extend(std::iter::repeat_n(2u32, 3));
        hints.push(3);
        let plan = plan_shards(12, 2, Some(&hints));
        // Every group lands wholly in one shard.
        for g in 0..4u32 {
            let shards: std::collections::BTreeSet<u16> = hints
                .iter()
                .zip(&plan)
                .filter(|(&h, _)| h == g)
                .map(|(_, &s)| s)
                .collect();
            assert_eq!(shards.len(), 1, "group {g} split across {shards:?}");
        }
        let mut counts = [0usize; 2];
        for &s in &plan {
            counts[s as usize] += 1;
        }
        assert_eq!(counts, [6, 6], "{plan:?}");
    }

    /// A 7-element chain `0-1-2-3-4-5-6` split 0..=3 / 4..=6: the cut
    /// edge is 3-4, so 3 and 4 are boundary and distances fan out from
    /// there.
    fn chain_topo() -> (SoaTopo, Vec<u16>) {
        let n = 7usize;
        let mut topo = SoaTopo::default();
        topo.up_off.push(0);
        topo.down_off.push(0);
        for i in 0..n {
            topo.kind.push(K_STAGE);
            topo.filter.push(RouteFilter::Any);
            topo.arb.push(Arbitration::Priority);
            if i > 0 {
                topo.up_list.push(i as u32 - 1);
            }
            topo.up_off.push(topo.up_list.len() as u32);
            if i + 1 < n {
                topo.down_list.push(i as u32 + 1);
            }
            topo.down_off.push(topo.down_list.len() as u32);
        }
        let shard_of = vec![0, 0, 0, 0, 1, 1, 1];
        (topo, shard_of)
    }

    #[test]
    fn boundary_distances_fan_out_from_cut() {
        let (topo, shard_of) = chain_topo();
        let dist = boundary_distances(&topo, &shard_of);
        assert_eq!(dist, vec![3, 2, 1, 0, 0, 1, 2]);
    }

    #[test]
    fn single_shard_has_unbounded_distances() {
        let (topo, _) = chain_topo();
        let dist = boundary_distances(&topo, &[0u16; 7]);
        assert!(dist.iter().all(|&d| d == u32::MAX), "{dist:?}");
    }

    #[test]
    fn cut_peers_connect_exactly_the_cut() {
        let (topo, shard_of) = chain_topo();
        let peers = cut_peer_lists(&topo, &shard_of, 2);
        assert_eq!(peers, vec![vec![1], vec![0]]);
        let lone = cut_peer_lists(&topo, &[0u16; 7], 1);
        assert_eq!(lone, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn window_plan_covers_all_regimes() {
        let armed = |min_dist| ShardActivity {
            min_dist,
            any_armed: true,
        };
        // Boundary armed: one synchronised mailbox tick.
        assert_eq!(plan_window(armed(0), 100, false), (1, true));
        // Finite lookahead: that many barrier-free ticks, clamped.
        assert_eq!(plan_window(armed(3), 100, false), (3, false));
        assert_eq!(plan_window(armed(7), 4, false), (4, false));
        // Armed but no reachable boundary (e.g. a single shard): the
        // rest of the batch is barrier-free, but drain mode must still
        // single-step — state changes every tick.
        assert_eq!(plan_window(armed(u32::MAX), 100, false), (100, false));
        assert_eq!(plan_window(armed(u32::MAX), 100, true), (1, false));
        // Nothing armed anywhere: no visit can occur, so the rest of
        // the batch collapses into one window even in drain mode.
        assert_eq!(plan_window(ShardActivity::IDLE, 100, false), (100, false));
        assert_eq!(plan_window(ShardActivity::IDLE, 100, true), (100, false));
        // Drain mode pins finite windows to single ticks so the drain
        // check fires at sequential tick boundaries.
        assert_eq!(plan_window(armed(3), 100, true), (1, false));
        assert_eq!(plan_window(armed(0), 100, true), (1, true));
    }

    #[test]
    fn activity_packs_round_trip() {
        for a in [
            ShardActivity::IDLE,
            ShardActivity {
                min_dist: 0,
                any_armed: true,
            },
            ShardActivity {
                min_dist: 17,
                any_armed: true,
            },
            ShardActivity {
                min_dist: u32::MAX,
                any_armed: true,
            },
        ] {
            assert_eq!(ShardActivity::unpack(a.pack()), a);
        }
    }

    #[test]
    fn parking_sync_delivers_windows_in_order() {
        let workers = 4;
        let sync = SyncShared::new(workers);
        sync.register(0);
        let rounds = 200u64;
        std::thread::scope(|scope| {
            for w in 1..workers {
                let sync = &sync;
                scope.spawn(move || {
                    sync.register(w);
                    let mut seen = 0u64;
                    loop {
                        sync.wait_until(w, || sync.serial.load(Ordering::SeqCst) > seen);
                        seen += 1;
                        let (base, ticks, flags) = sync.window();
                        if flags & FLAG_STOP != 0 {
                            break;
                        }
                        // Echo the window's payload through done so the
                        // coordinator can check each worker saw the
                        // right registers for the right serial.
                        assert_eq!(base, seen * 7);
                        assert_eq!(ticks, seen * 3);
                        sync.peers[w].0.done.store(seen, Ordering::SeqCst);
                        sync.wake(0);
                    }
                });
            }
            for serial in 1..=rounds {
                sync.publish(serial, serial * 7, serial * 3, 0);
                for w in 1..workers {
                    sync.wait_until(0, || sync.peers[w].0.done.load(Ordering::SeqCst) >= serial);
                }
            }
            sync.publish(rounds + 1, 0, 0, FLAG_STOP);
        });
    }
}
