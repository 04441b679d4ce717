//! The activity-list stepping kernel: one struct-of-arrays shard for
//! [`SimKernel::EventDriven`](crate::SimKernel), subtree shards on worker
//! threads for [`SimKernel::Parallel`](crate::SimKernel).
//!
//! Each element registers into a per-polarity ready set when a handshake
//! edge can change its state, and a tick visits only that set — the
//! software mirror of the paper's handshake-derived clock gating
//! (Section 5). On a fault-free run a stage is visited only to capture a
//! flit or to observe its drain: a freshly presented flit wakes only the
//! downstreams that could take it, and an accept marker carries the tick
//! it was set, so it reads as a drain on the next tick only and no visit
//! is spent clearing it ([`soa_rearm`]). Enabled traffic generators are
//! pinned — their pattern may act on any cycle — except while blocked: on
//! an untraced run a source, or a tile with no queued responses, whose
//! visit counts a stall sleeps like a blocked stage until the drain of
//! its flit wakes it. The stalls its skipped visits would have counted
//! follow from one stamp, `asleep_since`: the waking visit adds them, and
//! the end of every batch settles and re-arms each generator still
//! asleep, so counters are exact whenever a batch is not running. Under a
//! fault plan a frozen edge counts no stall: a second stamp,
//! `asleep_frozen`, holds the number of ticks on which the generator's
//! clock domain had been frozen (`FaultCtx::frozen_edges`, kept by
//! `FaultState::begin_step`), and the edges frozen since are subtracted.
//! Traced runs keep generators pinned: each stalled edge emits a
//! `Blocked` event.
//!
//! The parallel kernel partitions the element graph into
//! per-worker shards and runs each shard's visits on its own thread (the
//! event kernel is the same code with one shard and no cut edges). The
//! alternating-edge protocol makes this safe without
//! any per-element locking: every connection joins **opposite** clock
//! polarities, so within one tick a worker only mutates current-parity
//! elements of its own shard, and every cross-element read (an upstream's
//! presented flit, a downstream's stamped `accepted_from` marker, held
//! flit and lock) touches an opposite-parity element whose state is
//! frozen for the whole tick — the
//! software form of the half-period propagation budget the paper's
//! handshake enjoys in hardware (Section 5).
//!
//! The borrow checker holds each worker to that rule. Slots are laid
//! out parity-major, then shard-major ([`Slots`]), so every neighbour of
//! a slot lies in the other polarity half, and each window lends its
//! workers plain borrows ([`Lease`]):
//!
//! * **One-tick window** of parity `p`: worker `w` gets `&mut` over its
//!   shard's range of half `p` — its [`Regs`] and the `Element`s behind
//!   them — and a shared `&` over all of half `1 − p`,
//!   frozen for the tick. Its visits mutate only their own slots and read
//!   neighbours only through the frozen half; a wake outside its range
//!   goes to its outbox.
//! * **Batched window**: worker `w` gets `&mut` over its ranges of both
//!   halves and no outbox. No visit in it has a cross-shard neighbour:
//!   reading one would be an out-of-range slice index, and waking one
//!   panics for want of an outbox, so a lookahead planning error fails
//!   the run instead of waking a shard a window late.
//!
//! Either way a worker also gets its own [`WorkerBufs`] (outbox, log and
//! armed list) and, on a fault run, the fault state's read-only
//! [`FaultCtx`]. **Between windows** (every worker has handed its lease
//! back) the coordinator holds every slot, element, buffer and the
//! `&mut FaultState` as ordinary borrows. It folds the logs, routes the
//! outboxes' cross-shard wakes into the armed lists, runs the fault
//! state's `begin_step`, and queues released retransmissions into the
//! elements and armed lists. The coordinator cuts each window's leases
//! with `split_at_mut`; the only `unsafe` in the crate hands them to the
//! parked worker threads, in the `lease` module, whose [`Desk::lend`]
//! does not return until every lease is back.
//!
//! Four mechanisms keep the constant factor small:
//!
//! * **Parity-major struct-of-arrays state.** The per-element fields the
//!   handshake actually touches every tick (`out_flit`, `accepted_from`,
//!   `lock`, `rr_next`, the gating counter) live in one dense [`Regs`]
//!   entry per slot for the duration of a batch, alongside a CSR copy of the
//!   adjacency ([`SoaTopo`]). A `Regs` entry is one aligned 64-byte cache
//!   line, so a neighbour read touches one line; the registers only fault
//!   runs and sleeping generators use sit in a column of their own
//!   ([`ColdRegs`]). A stage visit is then a tight loop over
//!   `u32` indices with no pointer chasing through `Element`; endpoint
//!   kinds (sources, sinks, tiles) keep their bulky state in the element
//!   itself but read and write the handshake fields through the same
//!   arrays. The arrays are indexed by *slot*, not element id: each shard
//!   owns one contiguous slot range in each polarity half, its elements
//!   in ascending id order inside it ([`Slots`]), so two workers share at
//!   most the one cache line that straddles a range boundary (in element
//!   order the tree builders' level-by-level
//!   numbering interleaves the subtrees near the root, so they would
//!   share many), and each worker's two ready sets cover only its own
//!   ranges. Slots become element ids only
//!   at the edges: loading and storing the arrays, the hooks' fault draws
//!   and log stamps, and endpoint visits. The arrays are loaded from the
//!   elements when a batch starts and stored back when it ends, so
//!   everything outside `par_run` keeps seeing ordinary `Element`s. The
//!   buffers a worker's visits write — log, outbox, armed list — sit on
//!   a cache line of their own ([`WorkerBufs`]).
//!
//! * **Drain bits.** In the paper's two-phase handshake the downstream's
//!   accept is what tells an upstream its register is free. A capture
//!   wakes the upstream it drained, and that wake sets the upstream's
//!   drain bit beside its ready bit ([`ReadySet`]); a cross-shard wake
//!   carries the bit on its outbox entry ([`Wake`]). The woken visit reads
//!   its drain from the bit instead of scanning every downstream's accept
//!   marker ([`soa_drained`]).
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
//!   one-tick window. In a tree fabric the cut is the root link, so the
//!   safe window is exactly the paper's root-link latency: idle phases
//!   collapse into one long window instead of thousands of barrier
//!   crossings. A window with armed elements is also capped at
//!   [`FOLD_TICKS`] ([`TRACE_FOLD_TICKS`] on a traced run), so a shard
//!   with no cut at all (the event kernel) still folds its log at a fixed
//!   interval instead of buffering a whole run's deliveries.
//!
//! * **Cross-shard wakes through the coordinator, parking instead of a
//!   spin barrier.** Every connection joins opposite clock polarities, so
//!   a wake made on one tick is needed only on the next, and the
//!   coordinator already owns every slot between two windows. A worker
//!   pushes a cross-shard wake into its own outbox; once every worker
//!   has handed its lease back, the coordinator moves it into the target
//!   shard's armed list ([`route_wakes`]), which the target drains into
//!   its ready sets when the next window starts. A window's only
//!   rendezvous is that wait. Posting a worker's lease is what publishes
//!   the window to it: each worker waits at its own mailbox, hands the
//!   lease back by clearing its flag, and sleeps (`thread::park`) when it
//!   has nothing to do.
//!
//! Determinism is preserved exactly: only a one-tick window may wake
//! across a shard cut (a batched window lends no other shard's slot),
//! and ready-set inserts are idempotent and commutative, so the order in
//! which the coordinator routes wakes cannot matter. Every worker keeps
//! one log of `(tick, element)`-stamped entries — sink and tile
//! deliveries, and on fault or traced runs recovery-layer operations and
//! trace events — and the coordinator folds the logs in that order at
//! every window end. Each
//! consumer records at most one arrival per tick, so the fold reproduces
//! the sequential kernel's scoreboard order bit for bit at any worker
//! count.
//!
//! Fault plans run here at every worker count. Every fault is a pure hash
//! of `(seed, tick, element, slot)`, and a fault run, too, visits an
//! element only where a fault can act: a frozen element stays armed until
//! it thaws; a lost offer, an upset and a capture that latched nothing
//! under metastability keep their stage armed; a flit still presented
//! after a downstream took it (a stuck `valid`'s duplicate) wakes that
//! downstream again; and a held flit's register upset is drawn when the
//! flit is latched, which schedules the stage's timed wake on its shard's
//! [`Wheel`] in place of the wake of the flit it held before. Fault runs
//! use one-tick windows. Shards log
//! their recovery-layer operations; at each tick boundary the coordinator
//! folds the logs — in the dense loop's order — runs
//! `FaultState::begin_step` for the next tick, and arms every source or
//! tile whose retransmission it released.
//!
//! Trace sinks run here too, through a compile-time trace lane on the
//! visit hooks ([`Hooks::TRACE`]): each visit logs the events the dense
//! loop emits, at the same points and in the same order, into the same
//! `(tick, element)`-stamped shard log, and the fold hands them to the
//! sinks. The dense stream reports
//! every blocked edge, so on a traced run a stage holding a flit stays
//! armed and a generator that counts a stall keeps its pin: every visit
//! beyond the untraced run's emits exactly one `Blocked` event, and a
//! traced run costs untraced visits plus events, never the dense scan.

use crate::element::{Arbitration, Element, ElementFaults, Kind, RouteFilter, TileRole};
use crate::fault::{arrival_event, ArrivalVerdict, CaptureEffect, FaultCtx, FaultOp, FaultState};
use crate::profile::{CoreProf, EpochSample, TimedWakes};
use crate::report::Scoreboard;
use crate::trace::{DropCause, Sinks, TraceEvent, TraceEventKind};
use crate::{ElementId, Flit, TrafficPattern};
use icnoc_clock::{ClockGatingStats, ClockPolarity};
use icnoc_timing::Direction;
use icnoc_topology::PortId;
use lease::{carve, Desk, Split};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

#[allow(unsafe_code)]
mod lease;

/// An entry of a shard's stamped log: `(tick, element, entry)`. The
/// coordinator folds every shard's log in that order at each window end.
type Logged = (u64, u32, LogEntry);

/// What a visit logs for the coordinator's fold.
#[derive(Debug, Clone, Copy)]
enum LogEntry {
    /// A flit the consumer gate cleared at a sink or tile, recorded on
    /// the scoreboard at the consuming port.
    Arrival(Flit, PortId),
    /// A recovery-layer operation, applied to the fault state.
    Op(FaultOp),
    /// A trace event, recorded by every attached sink.
    Event(TraceEventKind, Flit),
}

/// Element-kind tags for the dense dispatch loop.
const K_STAGE: u8 = 0;
const K_SOURCE: u8 = 1;
const K_SINK: u8 = 2;
const K_TILE: u8 = 3;

/// "No element" marker in the dense `u32` slot encoding.
const NONE_U32: u32 = u32::MAX;

/// The longest window a batch runs while any element is armed. The shard
/// logs fold at every window end, so this bounds the log of a shard with
/// no cut edge (the event kernel),
/// whose lookahead is otherwise unbounded. Multi-worker windows stay far
/// below it: they are capped by the hop distance to the shard cut.
const FOLD_TICKS: u64 = 128;

/// The fold interval of a traced run. Its shard logs carry one event per
/// blocked edge, which at saturating loads is most visits; folding every
/// few ticks keeps them small and cache-resident (EXPERIMENTS.md E30).
const TRACE_FOLD_TICKS: u64 = 8;

/// A per-polarity activity list: one bit per slot of a shard's range,
/// drained in ascending slot order — ascending element order inside the
/// shard, matching the dense kernel's iteration order, which scoreboard
/// accounting and the trace stream depend on.
///
/// Beside each ready bit sits a *drain bit*: set when a downstream took
/// the slot's flit on the previous tick, so the visit that wakes the slot
/// reads its drain from the bit instead of scanning its downstreams'
/// accept markers ([`soa_drained`]). Only a capture sets one, together
/// with the ready bit, and the visit clears both. Both persist between
/// batches, so a capture on a batch's last tick reaches the visit on the
/// next batch's first.
#[derive(Debug, Clone, Default)]
struct ReadySet {
    words: Vec<u64>,
    drained: Vec<u64>,
}

impl ReadySet {
    fn with_len(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            drained: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }
}

/// A wake routed between windows: the slot, and whether it carries the
/// slot's drain bit ([`ReadySet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wake {
    slot: u32,
    drained: bool,
}

/// The ready-set index of a clock polarity: rising edges land on even
/// ticks, falling edges on odd ones.
#[inline]
fn pol_idx(p: ClockPolarity) -> usize {
    match p {
        ClockPolarity::Rising => 0,
        ClockPolarity::Falling => 1,
    }
}

/// Persistent state of the activity-list kernel: the shard plan, the dense
/// SoA mirrors of graph and handshake state, the boundary-distance map
/// driving lookahead windows, and each worker's ready sets and buffers.
/// Plain data — worker threads are scoped per batch, so the network stays
/// `Clone`.
///
/// Everything below `slots` is indexed by slot, not element id: shard
/// `w` owns one contiguous slot range in each polarity half ([`Slots`]).
#[derive(Debug, Clone)]
pub(crate) struct ParState {
    /// The parity-major slot plan and its maps to and from element ids.
    slots: Slots,
    /// Slots re-armed after every visit except an untraced one that
    /// counts a stall (see [`repin`](Self::repin) and [`Stay::Stalled`]).
    pinned: Vec<bool>,
    /// Immutable dense mirror of the element graph.
    topo: SoaTopo,
    /// Dense handshake state, live only between `load_dyn`/`store_dyn`.
    soa: SoaDyn,
    /// BFS hop distance from each slot to the nearest boundary slot
    /// (`u32::MAX` when no boundary is reachable).
    dist: Vec<u32>,
    /// Largest finite boundary distance: the deepest safe window this
    /// shard cut can ever produce. `None` when no cut edges exist
    /// (single shard), i.e. only [`FOLD_TICKS`] bounds the window.
    lookahead: Option<u64>,
    /// Per-worker kernel state.
    cores: Vec<ShardCore>,
    /// Per-worker buffers the visit phase writes.
    bufs: Vec<WorkerBufs>,
    /// Cross-shard wakes routed into each shard since the shard plan was
    /// built. Counted by the coordinator, like `ShardCore::steps` for
    /// visits.
    wakes_received: Vec<u64>,
}

/// The SoA kernel's index space, parity-major then shard-major:
/// `[even: shard 0..W | odd: shard 0..W]`. Range `h·W + w` holds shard
/// `w`'s elements of polarity half `h` (ready-set index, so rising edges
/// are half 0) in ascending element-id order, so a shard visits (and
/// logs) in `(tick, element)` order and writes only its own stretch of
/// the dense registers. Every connection joins opposite polarities, so
/// every neighbour of a slot lies in the other half: a tick's visits
/// write one half and read only the other. The tree builders number
/// elements level by level, which interleaves the root-child subtrees
/// near the root; in element order two workers would write the same
/// cache lines there.
#[derive(Debug, Clone)]
struct Slots {
    /// Worker count (= shard count).
    workers: usize,
    /// Range boundaries, `2·workers + 1` of them; an empty range is
    /// empty.
    bounds: Vec<u32>,
    /// The slot of each element.
    slot_of: Vec<u32>,
    /// The element of each slot.
    elem_of: Vec<u32>,
}

impl Slots {
    /// Lays out the elements by polarity half `half` (indexed by element),
    /// then by shard `shard_of`, each range in ascending id order — a
    /// stable counting sort.
    fn plan(shard_of: &[u16], half: &[u8], workers: usize) -> Self {
        let key = |e: usize| usize::from(half[e]) * workers + usize::from(shard_of[e]);
        let mut bounds = vec![0u32; 2 * workers + 1];
        for e in 0..shard_of.len() {
            bounds[key(e) + 1] += 1;
        }
        for k in 0..2 * workers {
            bounds[k + 1] += bounds[k];
        }
        let mut next = bounds[..2 * workers].to_vec();
        let mut slot_of = vec![0u32; shard_of.len()];
        let mut elem_of = vec![0u32; shard_of.len()];
        for e in 0..shard_of.len() {
            let slot = &mut next[key(e)];
            slot_of[e] = *slot;
            elem_of[*slot as usize] = e as u32;
            *slot += 1;
        }
        Self {
            workers,
            bounds,
            slot_of,
            elem_of,
        }
    }

    /// Shard `w`'s slot range in half `h`.
    fn range(&self, h: usize, w: usize) -> Range<usize> {
        let k = h * self.workers + w;
        self.bounds[k] as usize..self.bounds[k + 1] as usize
    }

    /// Shard `w`'s slot ranges in both halves.
    fn ranges(&self, w: usize) -> [Range<usize>; 2] {
        [self.range(0, w), self.range(1, w)]
    }

    /// The half holding slot `s`: its ready-set index.
    fn half_of(&self, s: usize) -> usize {
        usize::from(s >= self.bounds[self.workers] as usize)
    }

    /// The shard owning slot `s`.
    fn shard_of(&self, s: usize) -> usize {
        (self.bounds.partition_point(|&b| b as usize <= s) - 1) % self.workers
    }

    /// An element reference as a slot (`u32::MAX` = none).
    #[inline]
    fn pack(&self, id: Option<ElementId>) -> u32 {
        id.map_or(NONE_U32, |e| self.slot_of[e.0 as usize])
    }

    /// A slot (`u32::MAX` = none) as an element reference.
    #[inline]
    fn unpack(&self, raw: u32) -> Option<ElementId> {
        (raw != NONE_U32).then(|| ElementId(self.elem_of[raw as usize]))
    }
}

/// One worker's slice of the activity-list kernel. Cache-line aligned:
/// adjacent cores in `ParState::cores` belong to different threads, and
/// each bumps its counters on every visit. Its slot ranges `own` are not
/// stored here: [`Slots::ranges`] is the one record of the plan, and the
/// callers pass them in.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub(crate) struct ShardCore {
    /// Per-polarity ready sets, each over this shard's range of its half
    /// (bit `b` of set `h` is slot `own[h].start + b`) and sized to the
    /// longer range, so either swaps with `scratch`.
    ready: [ReadySet; 2],
    /// Agenda swap buffer: the current tick's ready set is swapped in
    /// here, so same-parity re-arms land on the *next* matching edge.
    scratch: Vec<u64>,
    /// Element visits executed by this worker since the shard plan was
    /// built.
    pub(crate) steps: u64,
    /// Cross-shard wakes pushed into the outbox, counted like `steps`.
    pub(crate) wakes_sent: u64,
    /// Per-epoch wall profiling, worker-owned during batches. `None`
    /// unless [`Network::enable_profiling`](crate::Network) was called.
    pub(crate) prof: Option<CoreProf>,
    /// Fault-run state private to the shard.
    fx: FaultShard,
}

impl ShardCore {
    fn new(own: [Range<usize>; 2]) -> Self {
        let len = own[0].len().max(own[1].len());
        Self {
            ready: [ReadySet::with_len(len), ReadySet::with_len(len)],
            scratch: vec![0; len.div_ceil(64)],
            steps: 0,
            wakes_sent: 0,
            prof: None,
            fx: FaultShard::default(),
        }
    }

    /// Arms slot `s`, which must lie in this shard's range `own[h]`, in
    /// the parity-`h` ready set.
    #[inline]
    fn arm(&mut self, own: &[Range<usize>; 2], h: usize, s: usize) {
        self.ready[h].insert(s - own[h].start);
    }

    /// Arms slot `s`, which must lie in this shard's range `own[h]`, in
    /// the parity-`h` ready set, with its drain bit if `drained`.
    #[inline]
    fn wake(&mut self, own: &[Range<usize>; 2], h: usize, s: usize, drained: bool) {
        let (set, b) = (&mut self.ready[h], s - own[h].start);
        set.insert(b);
        set.drained[b >> 6] |= u64::from(drained) << (b & 63);
    }

    /// Moves the slots the coordinator armed for this shard into its
    /// ready sets.
    fn take_armed(&mut self, own: &[Range<usize>; 2], armed: &mut Vec<Wake>, slots: &Slots) {
        for Wake { slot, drained } in armed.drain(..) {
            let s = slot as usize;
            self.wake(own, slots.half_of(s), s, drained);
        }
    }
}

/// The buffers one worker's visits write, padded to a cache line of its
/// own: every log push and wake writes a `Vec` header's `len`, and side
/// by side in one allocation two workers' headers would share a line.
/// The worker owns them during a window, the coordinator between windows.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
struct WorkerBufs {
    /// Stamped log, folded into the scoreboard, the fault state and the
    /// trace sinks at each window end.
    log: Vec<Logged>,
    /// Cross-shard wakes of the current window: slots this worker woke in
    /// other shards, routed by the coordinator after the window
    /// ([`route_wakes`]).
    outbox: Vec<Wake>,
    /// Slots the coordinator armed between windows: routed cross-shard
    /// wakes and the injectors of released retransmissions.
    armed: Vec<Wake>,
    /// The shard's activity summary after its last window.
    activity: ShardActivity,
}

/// A shard's private state in a fault run. Moved out of its core and
/// back on every tick ([`visit_tick`]), so its `Default` allocates
/// nothing.
#[derive(Debug, Clone, Default)]
struct FaultShard {
    /// Scratch for the operations one hook logs.
    ops: Vec<FaultOp>,
    /// Timed wakes: the register-upset ticks of flits its stages hold.
    wheel: Wheel,
}

/// The due tick of no wake.
const NEVER: u64 = u64::MAX;

/// The end of a [`Wheel`] bucket list.
const NIL: u32 = u32::MAX;

/// A shard's timed wakes in a hashed timing wheel (Varghese & Lauck,
/// SOSP 1987) that holds at most one pending wake per slot. A wake due at
/// tick `t` waits in bucket `t mod buckets`, doubly linked through its
/// slot's [`Timer`], so a stage that latches a new flit replaces the wake
/// of the flit it held before in O(1), and a tick sweeps the one bucket
/// its cursor reaches. There are as many buckets as the shard has slots
/// (rounded up to a power of two), so a bucket holds about one wake.
/// Slots are numbered within the shard: its range of half 0, then its
/// range of half 1. Storage is allocated by the first wake, so a run
/// without register upsets never allocates.
#[derive(Debug, Clone, Default)]
struct Wheel {
    /// Per shard slot: its pending wake, if any.
    timers: Vec<Timer>,
    /// Per bucket: its first slot, or [`NIL`].
    heads: Vec<u32>,
    /// The first tick not yet swept.
    cursor: u64,
    /// Wakes scheduled and fired so far.
    counts: TimedWakes,
}

/// One slot's entry in a [`Wheel`].
#[derive(Debug, Clone, Copy)]
struct Timer {
    /// The tick its wake falls due, [`NEVER`] if it has none.
    due: u64,
    /// The next and previous slot in its bucket, or [`NIL`].
    next: u32,
    prev: u32,
}

impl Wheel {
    /// Slot `s`'s index within the shard owning `own`.
    #[inline]
    fn local(own: &[Range<usize>; 2], s: usize) -> usize {
        if own[0].contains(&s) {
            s - own[0].start
        } else {
            own[0].len() + s - own[1].start
        }
    }

    /// The slot with index `at` within the shard owning `own`.
    #[inline]
    fn global(own: &[Range<usize>; 2], at: usize) -> usize {
        match at.checked_sub(own[0].len()) {
            Some(b) => own[1].start + b,
            None => own[0].start + at,
        }
    }

    #[inline]
    fn bucket(&self, due: u64) -> usize {
        (due & (self.heads.len() as u64 - 1)) as usize
    }

    /// Sets slot `s`'s pending wake, in the shard owning `own`, to fall
    /// due at `due`, replacing the one it had; [`NEVER`] cancels it. A
    /// wake may not fall due before the cursor.
    fn schedule(&mut self, own: &[Range<usize>; 2], s: usize, due: u64) {
        if self.timers.is_empty() {
            if due == NEVER {
                return;
            }
            let len = own[0].len() + own[1].len();
            let idle = Timer {
                due: NEVER,
                next: NIL,
                prev: NIL,
            };
            self.timers = vec![idle; len];
            self.heads = vec![NIL; len.next_power_of_two()];
        }
        let at = Self::local(own, s);
        self.unlink(at);
        if due == NEVER {
            return;
        }
        debug_assert!(
            due >= self.cursor,
            "a wake behind the cursor is never swept"
        );
        self.counts.scheduled += 1;
        let b = self.bucket(due);
        let head = self.heads[b];
        self.timers[at] = Timer {
            due,
            next: head,
            prev: NIL,
        };
        if head != NIL {
            self.timers[head as usize].prev = at as u32;
        }
        self.heads[b] = at as u32;
    }

    /// Removes slot `at`'s pending wake, if any.
    fn unlink(&mut self, at: usize) {
        let Timer { due, next, prev } = self.timers[at];
        if due == NEVER {
            return;
        }
        self.timers[at].due = NEVER;
        if prev == NIL {
            let b = self.bucket(due);
            self.heads[b] = next;
        } else {
            self.timers[prev as usize].next = next;
        }
        if next != NIL {
            self.timers[next as usize].prev = prev;
        }
    }

    /// Fires every wake due by tick `upto`, sweeping the buckets of the
    /// ticks from the cursor on (each bucket once, however many ticks
    /// that is), and moves the cursor past `upto`. `fire` gets each
    /// wake's slot, in the shard owning `own`, and due tick, and answers
    /// whether the wake was live: whether it armed its slot.
    fn sweep(
        &mut self,
        own: &[Range<usize>; 2],
        upto: u64,
        mut fire: impl FnMut(usize, u64) -> bool,
    ) {
        let from = std::mem::replace(&mut self.cursor, upto + 1);
        if self.heads.is_empty() || upto < from {
            return;
        }
        let turn = (upto - from + 1).min(self.heads.len() as u64);
        for tick in from..from + turn {
            let mut at = self.heads[self.bucket(tick)];
            while at != NIL {
                let Timer { due, next, .. } = self.timers[at as usize];
                if due <= upto {
                    self.unlink(at as usize);
                    if fire(Self::global(own, at as usize), due) {
                        self.counts.fired_live += 1;
                    } else {
                        self.counts.fired_stale += 1;
                    }
                }
                at = next;
            }
        }
    }
}

impl ParState {
    /// Builds the shard plan, the slot layout, the dense graph mirror and
    /// the boundary-distance map, and arms every pinned element in its
    /// shard. Built before the first step, when no handshake is in flight,
    /// so the pinned generators are the only elements that can change
    /// state on the first edges.
    pub(crate) fn build(elements: &[Element], workers: usize, hints: Option<&[u32]>) -> Self {
        let n = elements.len();
        debug_assert!(n < NONE_U32 as usize, "element space fits u32 encoding");
        let workers = workers.clamp(1, n.max(1)).min(u16::MAX as usize);
        let half: Vec<u8> = elements.iter().map(|e| pol_idx(e.polarity) as u8).collect();
        let slots = Slots::plan(&plan_shards(n, workers, hints), &half, workers);
        let topo = SoaTopo::build(elements, &slots);
        let dist = boundary_distances(&topo, &slots);
        let lookahead = dist
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .map(u64::from);
        let cores = (0..workers)
            .map(|w| ShardCore::new(slots.ranges(w)))
            .collect();
        let mut par = Self {
            slots,
            pinned: vec![false; n],
            topo,
            soa: SoaDyn::default(),
            dist,
            lookahead,
            cores,
            bufs: vec![WorkerBufs::default(); workers],
            wakes_received: vec![0; workers],
        };
        par.repin(elements);
        par
    }

    /// Re-reads which elements are pinned — enabled non-silent traffic
    /// generators, whose pattern consumes RNG or follows a schedule every
    /// cycle — and arms them. A pinned generator still sleeps while its
    /// flit is blocked on an untraced run ([`Stay::Stalled`]); batches
    /// settle such sleepers before returning, so none exists here. Called
    /// at build and whenever sources are enabled or disabled: a re-enabled
    /// generator must be woken, a disabled one falls asleep on its own
    /// once its in-flight work (held flit, open worm, pending responses)
    /// clears.
    pub(crate) fn repin(&mut self, elements: &[Element]) {
        for (w, core) in self.cores.iter_mut().enumerate() {
            let own = self.slots.ranges(w);
            for s in own[0].clone().chain(own[1].clone()) {
                let el = &elements[self.slots.elem_of[s] as usize];
                self.pinned[s] = match &el.kind {
                    Kind::Source(src) => {
                        src.enabled && !matches!(src.pattern, TrafficPattern::Silent)
                    }
                    Kind::Tile(t) => {
                        t.enabled
                            && matches!(
                                &t.role,
                                TileRole::Processor { pattern, .. }
                                    if !matches!(pattern, TrafficPattern::Silent)
                            )
                    }
                    Kind::Stage | Kind::Sink(_) => false,
                };
                if self.pinned[s] {
                    core.arm(&own, pol_idx(el.polarity), s);
                }
            }
        }
    }

    /// The number of worker shards.
    pub(crate) fn workers(&self) -> usize {
        self.slots.workers
    }

    /// The deepest safe batching window the shard cut admits (`None` =
    /// no cut edges exist, so only [`FOLD_TICKS`] bounds a window).
    pub(crate) fn lookahead(&self) -> Option<u64> {
        self.lookahead
    }

    /// The per-worker cores, for anchoring profile timelines.
    pub(crate) fn cores_mut(&mut self) -> &mut [ShardCore] {
        &mut self.cores
    }

    /// The per-worker cores, for counter and profile snapshots.
    pub(crate) fn cores(&self) -> &[ShardCore] {
        &self.cores
    }

    /// Cross-shard wakes routed into each shard since the shard plan was
    /// built.
    pub(crate) fn wakes_received(&self) -> &[u64] {
        &self.wakes_received
    }

    /// Element visits executed by every worker since the shard plan was
    /// built.
    pub(crate) fn steps(&self) -> u64 {
        self.cores.iter().map(|c| c.steps).sum()
    }

    /// Every shard's timed-wake counts, summed.
    pub(crate) fn timed_wakes(&self) -> TimedWakes {
        self.cores
            .iter()
            .map(|c| c.fx.wheel.counts)
            .fold(TimedWakes::default(), TimedWakes::merge)
    }

    /// Switches on per-worker wall profiling for every shard.
    pub(crate) fn enable_profiling(&mut self) {
        for core in &mut self.cores {
            core.prof = Some(CoreProf::default());
        }
    }

    /// Elements assigned to each shard under the current plan.
    pub(crate) fn shard_elements(&self) -> Vec<u64> {
        (0..self.slots.workers)
            .map(|w| self.slots.ranges(w).map(|r| r.len() as u64).iter().sum())
            .collect()
    }

    /// Loads the dense handshake arrays at batch start, before tick
    /// `base`, from the elements in slot order. The gating count starts at
    /// zero and accumulates enabled edges as a delta. A held accept marker
    /// was set on its element's last edge before `base`, so that edge is
    /// its stamp.
    fn load_dyn(&mut self, els: &[&mut Element], base: u64) {
        let (slots, s) = (&self.slots, &mut self.soa);
        s.regs.clear();
        s.regs.extend(els.iter().enumerate().map(|(i, e)| Regs {
            out: e.out_flit,
            acc: slots.pack(e.accepted_from),
            acc_at: last_edge_before(slots.half_of(i), base),
            lock: slots.pack(e.lock),
            rr: e.rr_next as u32,
            enabled: 0,
        }));
        s.cold.clear();
        s.cold.extend(els.iter().map(|e| ColdRegs {
            upset: e.upset_at,
            asleep_since: AWAKE,
            asleep_frozen: 0,
        }));
    }

    /// Stores the dense handshake arrays back into the elements, in slot
    /// order, at batch end, before tick `end`, folding the gating delta
    /// into each element's accumulator. An accept marker survives only if
    /// its stamp is its element's last edge before `end`: the dense loop
    /// cleared every older one on a visit the batch skipped.
    fn store_dyn(&self, els: &mut [&mut Element], end: u64) {
        let slots = &self.slots;
        for (s, el) in els.iter_mut().enumerate() {
            let regs = &self.soa.regs[s];
            el.out_flit = regs.out;
            let last = last_edge_before(slots.half_of(s), end);
            el.accepted_from = slots.unpack(regs.acc).filter(|_| regs.acc_at == last);
            el.lock = slots.unpack(regs.lock);
            el.rr_next = regs.rr as usize;
            el.upset_at = self.soa.cold[s].upset;
            if regs.enabled != 0 {
                el.gating
                    .merge(&ClockGatingStats::from_counts(u64::from(regs.enabled), 0));
            }
        }
    }

    /// Settles every generator still asleep when a batch ends at tick
    /// `end`: adds the stalls its skipped visits before `end` would have
    /// counted, clears its stamp and re-arms it, so nothing lazy outlives
    /// the batch. A fault run's context, if any, supplies the frozen
    /// edges each one slept through.
    fn settle_sleepers(&mut self, els: &mut [&mut Element], end: u64, faults: Option<&FaultCtx>) {
        for (s, cold) in self.soa.cold.iter_mut().enumerate() {
            let since = std::mem::replace(&mut cold.asleep_since, AWAKE);
            if since == AWAKE {
                continue;
            }
            let (h, w) = (self.slots.half_of(s), self.slots.shard_of(s));
            let e = self.slots.elem_of[s] as usize;
            let frozen = faults.map_or(0, |f| f.frozen_edges(e, h) - cold.asleep_frozen);
            let skipped = skipped_stalls(since, end, frozen);
            match &mut els[s].kind {
                Kind::Source(src) => src.stalled_edges += skipped,
                Kind::Tile(t) => t.stalled_edges += skipped,
                Kind::Stage | Kind::Sink(_) => unreachable!("only generators sleep stalled"),
            }
            self.cores[w].arm(&self.slots.ranges(w), h, s);
        }
    }
}

/// `asleep_since` marker of an element that is not a sleeping generator.
const AWAKE: u64 = u64::MAX;

/// The last tick before `tick` whose parity is `p` (wrapping below tick
/// 0, where no accept marker can have been set).
#[inline]
fn last_edge_before(p: usize, tick: u64) -> u64 {
    let back = if tick % 2 == p as u64 { 2 } else { 1 };
    tick.wrapping_sub(back)
}

/// The stalls a generator that counted one at tick `since` and then slept
/// would have counted on its own-parity ticks strictly before `tick`, of
/// which its clock domain was frozen on `frozen`. It holds its flit
/// undrained the whole time: the drain is what wakes it, and `enabled`
/// only changes between batches. A generator is never an outage-epoch
/// member, so a domain freeze is the only one it can see.
#[inline]
fn skipped_stalls(since: u64, tick: u64, frozen: u64) -> u64 {
    (tick - 1 - since) / 2 - frozen
}

/// A visit's own re-arm verdict for [`soa_rearm`], on top of the capture
/// rule every element shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stay {
    /// Nothing kind-specific: a pinned generator stays armed, any other
    /// element sleeps.
    Pin,
    /// A kind-specific condition keeps the element armed.
    Armed,
    /// An untraced generator counted a stall and is stamped
    /// asleep: it sleeps even when pinned, until the drain of its flit
    /// or a fresh offer wakes it. A tile that took an offer from one of
    /// several upstreams stays [`Armed`](Self::Armed) instead, unstamped:
    /// another upstream's offer may be waiting.
    Stalled,
}

impl From<bool> for Stay {
    fn from(armed: bool) -> Self {
        if armed {
            Self::Armed
        } else {
            Self::Pin
        }
    }
}

/// Ends an untraced generator visit that counted a stall: stamps slot
/// `i`, whose cold registers are `cold`, asleep at `tick`, with its
/// domain's frozen-edge count on a fault run.
#[inline]
fn sleep_stalled<H: Hooks>(cold: &mut ColdRegs, hooks: &H, i: usize, tick: u64) -> Stay {
    cold.asleep_since = tick;
    if H::ON {
        cold.asleep_frozen = hooks.frozen_edges(i, tick);
    }
    Stay::Stalled
}

/// The stalls a generator skipped while asleep, added when an unfrozen
/// visit wakes slot `i` at `tick`; clears its stamp.
#[inline]
fn wake_stalls<H: Hooks>(cold: &mut ColdRegs, hooks: &H, i: usize, tick: u64) -> u64 {
    let since = std::mem::replace(&mut cold.asleep_since, AWAKE);
    if since == AWAKE {
        return 0;
    }
    let frozen = if H::ON {
        hooks.frozen_edges(i, tick) - cold.asleep_frozen
    } else {
        0
    };
    skipped_stalls(since, tick, frozen)
}

/// Immutable dense mirror of the element graph: kind tags, routing
/// filters, arbitration policy and CSR adjacency, all indexed by slot
/// and naming neighbours by slot.
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
    fn build(elements: &[Element], slots: &Slots) -> Self {
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
        for &e in &slots.elem_of {
            let el = &elements[e as usize];
            topo.kind.push(match el.kind {
                Kind::Stage => K_STAGE,
                Kind::Source(_) => K_SOURCE,
                Kind::Sink(_) => K_SINK,
                Kind::Tile(_) => K_TILE,
            });
            topo.filter.push(el.filter);
            topo.arb.push(el.arb);
            let slot = |id: &ElementId| slots.slot_of[id.0 as usize];
            topo.up_list.extend(el.upstreams.iter().map(slot));
            topo.up_off.push(topo.up_list.len() as u32);
            topo.down_list.extend(el.downstreams.iter().map(slot));
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

/// Dense per-slot handshake state, live during a batch: two columns, one
/// entry of each per slot — the [`Regs`] every visit reads and writes,
/// and the [`ColdRegs`] only fault runs and sleeping generators touch.
#[derive(Debug, Clone, Default)]
struct SoaDyn {
    regs: Vec<Regs>,
    cold: Vec<ColdRegs>,
}

impl SoaDyn {
    /// Every slot's registers, with the elements behind them in slot
    /// order.
    fn cols<'a, 'e>(&'a mut self, els: &'a mut [&'e mut Element]) -> Cols<'a, 'e> {
        Cols {
            start: 0,
            regs: &mut self.regs,
            cold: &mut self.cold,
            els,
        }
    }
}

/// A slot's hot handshake registers: the flit it presents and the
/// registers a visit reads with it, one cache line per slot, so a
/// neighbour read touches one line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Regs {
    /// `Element::out_flit`: the flit the slot presents.
    out: Option<Flit>,
    /// The upstream slot whose flit this element last took (`u32::MAX` =
    /// none): `Element::accepted_from` while `acc_at` is the element's
    /// last edge, stale after it ([`took`]).
    acc: u32,
    /// `Element::lock` as a slot, `u32::MAX` = none.
    lock: u32,
    /// `Element::rr_next`.
    rr: u32,
    /// Enabled clock edges accumulated this batch (stages only).
    enabled: u32,
    /// The tick `acc` was set.
    acc_at: u64,
}

const _: () = assert!(std::mem::size_of::<Regs>() == 64);

/// A slot's cold registers, in a column of their own beside [`Regs`].
#[derive(Debug, Clone, Copy)]
struct ColdRegs {
    /// `Element::upset_at`.
    upset: u64,
    /// The tick a sleeping generator last counted a stall ([`AWAKE`] for
    /// every other element); see [`skipped_stalls`]. [`AWAKE`] between
    /// batches.
    asleep_since: u64,
    /// On a fault run, a sleeping generator's domain frozen-edge count at
    /// its `asleep_since` stamp ([`FaultCtx::frozen_edges`]).
    asleep_frozen: u64,
}

/// A stretch of slots' [`Regs`] and [`ColdRegs`] from slot `start` on,
/// and the elements behind them: what a window lends one worker to write.
#[derive(Default)]
struct Cols<'a, 'e> {
    start: usize,
    regs: &'a mut [Regs],
    cold: &'a mut [ColdRegs],
    els: &'a mut [&'e mut Element],
}

impl Cols<'_, '_> {
    /// These slots' registers, read-only.
    fn frozen(&self) -> Frozen<'_> {
        Frozen {
            start: self.start,
            regs: self.regs,
            cold: self.cold,
        }
    }
}

/// A stretch of slots' registers, read-only: the frozen half a tick's
/// visits read their neighbours in.
#[derive(Clone, Copy)]
struct Frozen<'a> {
    start: usize,
    regs: &'a [Regs],
    cold: &'a [ColdRegs],
}

impl Frozen<'_> {
    /// The flit slot `j` presents.
    #[inline]
    fn out(&self, j: u32) -> &Option<Flit> {
        &self.regs[j as usize - self.start].out
    }

    /// Whether a timed wake of slot `s` due at `due` is live: the slot
    /// still holds the flit whose upset falls due then.
    #[inline]
    fn upset_due(&self, s: usize, due: u64) -> bool {
        let at = s - self.start;
        self.cold[at].upset == due && self.regs[at].out.is_some()
    }
}

impl Split for Cols<'_, '_> {
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (regs, regs_r) = self.regs.split_at_mut(mid);
        let (cold, cold_r) = self.cold.split_at_mut(mid);
        let (els, els_r) = self.els.split_at_mut(mid);
        let start = self.start + mid;
        let head = Self {
            start: self.start,
            regs,
            cold,
            els,
        };
        (
            head,
            Self {
                start,
                regs: regs_r,
                cold: cold_r,
                els: els_r,
            },
        )
    }
}

/// Multi-source BFS over the undirected slot adjacency from every
/// boundary slot (one with a neighbour in another shard). `dist[i]` is
/// then the minimum number of ticks before a visit of `i` can cause a
/// boundary slot to be visited — the per-slot lookahead bound.
fn boundary_distances(topo: &SoaTopo, slots: &Slots) -> Vec<u32> {
    let n = topo.len();
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for (i, d) in dist.iter_mut().enumerate() {
        let home = slots.shard_of(i);
        let cross = topo
            .ups(i)
            .iter()
            .chain(topo.downs(i))
            .any(|&j| slots.shard_of(j as usize) != home);
        if cross {
            *d = 0;
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

/// A shard's post-window activity summary: the minimum boundary
/// distance over its armed bits, and whether any bit is armed at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
}

/// Decides the next window's tick count from the fleet-wide activity
/// summary. With nothing armed anywhere no visit can ever happen, so the
/// rest of the batch is one window. Otherwise: minimum distance `0`
/// forces a one-tick window, whose cross-shard wakes the coordinator
/// routes before the next; drain mode clamps windows to one tick so the
/// between-tick drain check fires at exactly the dense loop's tick
/// boundaries; anything else batches up to `min_dist` barrier-free ticks
/// and at most `fold` ticks ([`FOLD_TICKS`], or [`TRACE_FOLD_TICKS`] on a
/// traced run; `u32::MAX` — no reachable boundary — leaves only the fold
/// interval).
fn plan_window(activity: ShardActivity, remaining: u64, drain: bool, fold: u64) -> u64 {
    if !activity.any_armed {
        remaining
    } else if activity.min_dist == 0 || drain {
        1
    } else {
        remaining.min(u64::from(activity.min_dist)).min(fold)
    }
}

/// Activity summary over a core's armed bits (both parities); its ready
/// sets cover its slot ranges `own`. A lone shard has no cut, so every
/// distance is infinite and only whether any bit is armed matters.
fn ready_activity(
    core: &ShardCore,
    own: &[Range<usize>; 2],
    dist: &[u32],
    lone: bool,
) -> ShardActivity {
    if lone {
        return ShardActivity {
            min_dist: u32::MAX,
            any_armed: core
                .ready
                .iter()
                .any(|set| set.words.iter().any(|&w| w != 0)),
        };
    }
    let mut m = u32::MAX;
    let mut any = false;
    for (set, own) in core.ready.iter().zip(own) {
        for (word, &bits) in set.words.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let i = own.start + ((word << 6) | bits.trailing_zeros() as usize);
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

/// What one window lends one worker, through the batch's [`Desk`].
struct Lease<'w, 'e> {
    /// Tick offset (from the batch base) of the window's first tick.
    base: u64,
    /// The window's tick count.
    ticks: u64,
    span: Span<'w, 'e>,
    bufs: &'w mut WorkerBufs,
    /// A fault run's read-only state.
    faults: Option<&'w FaultCtx>,
}

/// The slots a window lends one worker.
enum Span<'w, 'e> {
    /// A one-tick window: the shard's range of the ticking half, and all
    /// of the other half, frozen.
    Tick(Cols<'w, 'e>, Frozen<'w>),
    /// A batched window: the shard's ranges of both halves. Its visits
    /// reach no other shard's slot.
    Batch([Cols<'w, 'e>; 2]),
}

/// Cuts one window's [`Span`]s, shard by shard, out of the two halves of
/// the slot space: on a one-tick window at `tick`, each shard's range of
/// the ticking half, all sharing the other half frozen; on a batched
/// window, each shard's ranges of both halves.
fn window_spans<'w, 'e>(
    halves: &'w mut [Cols<'w, 'e>; 2],
    slots: &'w Slots,
    tick: u64,
    ticks: u64,
) -> impl Iterator<Item = Span<'w, 'e>> + 'w {
    let cut = move |h: usize, cols: &mut Cols<'w, 'e>| {
        let start = cols.start;
        let ranges = (0..slots.workers).map(move |w| slots.range(h, w));
        carve(std::mem::take(cols), start, ranges)
    };
    let p = (tick % 2) as usize;
    let [even, odd] = halves;
    let (mine, other) = if p == 0 { (even, odd) } else { (odd, even) };
    let (frozen, mut others) = if ticks == 1 {
        let other: &'w Cols<'w, 'e> = other;
        (Some(other.frozen()), None)
    } else {
        (None, Some(cut(1 - p, other)))
    };
    cut(p, mine).map(move |cols| match &mut others {
        None => Span::Tick(
            cols,
            frozen.expect("a one-tick window freezes the other half"),
        ),
        Some(others) => {
            let other = others.next().expect("a range per shard in each half");
            Span::Batch(if p == 0 { [cols, other] } else { [other, cols] })
        }
    })
}

/// Everything a parallel batch borrows from the network.
pub(crate) struct ParRunCtx<'a> {
    pub elements: &'a mut [Element],
    pub scoreboard: &'a mut Scoreboard,
    pub par: &'a mut ParState,
    pub faults: Option<&'a mut FaultState>,
    pub sinks: &'a mut Sinks,
    pub num_ports: u32,
    pub base_tick: u64,
}

/// What every window of a batch shares, read-only; bundled so the
/// per-window call is a single dispatch.
#[derive(Clone, Copy)]
struct WindowCtx<'a> {
    topo: &'a SoaTopo,
    /// Whether trace sinks are attached: visits then log their events.
    tracing: bool,
    slots: &'a Slots,
    pinned: &'a [bool],
    dist: &'a [u32],
    num_ports: u32,
    base_tick: u64,
}

/// Runs up to `max_ticks` half-cycles across all workers, returning the
/// number actually executed. With `stop_when_drained`, the batch also
/// stops before the first tick at which nothing is left in flight —
/// evaluated between ticks, exactly where the dense drain loop checks,
/// so tick counts (and the gating statistics derived from them) match
/// the dense kernel bit for bit.
///
/// Between windows the coordinator holds every slot, element and buffer
/// as a plain `&mut`; each window lends them out through the batch's
/// [`Desk`] ([`window_spans`]). After each window the coordinator folds
/// the shards' stamped logs — deliveries, recovery-layer operations and
/// trace events — in `(tick, element)` order, and routes the window's
/// cross-shard wakes into their shards' armed lists. A fault run steps
/// one tick per window: before each tick the coordinator runs the fault
/// state's `begin_step` and queues the retransmissions it releases at
/// their injectors, arming them.
pub(crate) fn par_run(ctx: ParRunCtx<'_>, max_ticks: u64, stop_when_drained: bool) -> u64 {
    let ParRunCtx {
        elements,
        scoreboard,
        par,
        mut faults,
        sinks,
        num_ports,
        base_tick,
    } = ctx;
    // The elements in slot order, as the dense registers see them.
    let mut by_slot: Vec<Option<&mut Element>> = elements.iter().map(|_| None).collect();
    for (el, &s) in elements.iter_mut().zip(&par.slots.slot_of) {
        by_slot[s as usize] = Some(el);
    }
    let mut els: Vec<&mut Element> = by_slot
        .into_iter()
        .map(|e| e.expect("a slot per element"))
        .collect();
    par.load_dyn(&els, base_tick);
    let ParState {
        slots,
        pinned,
        topo,
        soa,
        dist,
        cores,
        bufs,
        wakes_received,
        ..
    } = par;
    let workers = slots.workers;
    let wctx = WindowCtx {
        topo,
        tracing: !sinks.is_empty(),
        slots,
        pinned,
        dist,
        num_ports,
        base_tick,
    };
    let desk = Desk::new(workers);
    desk.register(0);

    // Wall-clock origin of this batch; per-epoch samples are offset from
    // it (plus the profiler's cumulative base) so timelines stay
    // continuous across batches. One clock read per batch — the only one
    // when profiling is disabled.
    let batch_base = Instant::now();

    // All cores are quiescent before the first window, so the
    // coordinator may scan every ready set for the initial activity
    // summary.
    let mut activity_next = cores
        .iter()
        .enumerate()
        .map(|(w, core)| ready_activity(core, &slots.ranges(w), dist, workers == 1))
        .fold(ShardActivity::IDLE, ShardActivity::fold);

    let (coordinator_core, worker_cores) = cores.split_first_mut().expect("at least one worker");
    let mut k = 0u64;
    std::thread::scope(|scope| {
        for (offset, core) in worker_cores.iter_mut().enumerate() {
            let w = offset + 1;
            let desk = &desk;
            scope.spawn(move || {
                desk.register(w);
                let profiling = core.prof.is_some();
                loop {
                    let t0 = profiling.then(Instant::now);
                    let steps0 = core.steps;
                    let window = desk.serve(w, |lease| {
                        let t1 = profiling.then(Instant::now);
                        (t1, run_window(wctx, lease, w, core, profiling))
                    });
                    let Some((t1, (base, ticks, t2))) = window else {
                        break;
                    };
                    if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
                        let marks = [t0, t1, t2, Instant::now()];
                        record_epoch_at(
                            core,
                            steps0,
                            base_tick + base,
                            ticks,
                            batch_base,
                            marks,
                            (0, 0),
                        );
                    }
                }
            });
        }
        // The coordinating thread is worker 0: it decides and publishes
        // windows, runs its own shard, then folds the shard logs, routes
        // the cross-shard wakes and evaluates the stop condition once
        // every worker has handed its lease back. Its serial work before the
        // window (the stop check, the fault state's step and the
        // retransmission release) counts as flush time.
        let profiling = coordinator_core.prof.is_some();
        loop {
            let t0 = profiling.then(Instant::now);
            let drained = || {
                faults.as_deref().is_none_or(|f| !f.recovery_busy())
                    && nothing_in_flight(&soa.regs, &els, topo)
            };
            if k >= max_ticks || (stop_when_drained && drained()) {
                desk.close();
                break;
            }
            if let Some(f) = faults.as_deref_mut() {
                f.begin_step(base_tick + k);
                for (injector, flit) in f.released() {
                    let Some(&s) = slots.slot_of.get(injector as usize) else {
                        continue;
                    };
                    let Some(gate) = &mut els[s as usize].faults else {
                        continue;
                    };
                    gate.retx.push_back(flit);
                    let wake = Wake {
                        slot: s,
                        drained: false,
                    };
                    bufs[slots.shard_of(s as usize)].armed.push(wake);
                    activity_next = activity_next.fold(ShardActivity {
                        min_dist: dist[s as usize],
                        any_armed: true,
                    });
                }
            }
            let fold = if wctx.tracing {
                TRACE_FOLD_TICKS
            } else {
                FOLD_TICKS
            };
            let mut ticks = plan_window(activity_next, max_ticks - k, stop_when_drained, fold);
            if faults.is_some() {
                ticks = ticks.min(1);
            }
            let t1 = profiling.then(Instant::now);
            let steps0 = coordinator_core.steps;
            let (even, odd) = soa.cols(&mut els).split_at(slots.range(1, 0).start);
            let mut halves = [even, odd];
            let fault_ctx = faults.as_deref().map(FaultState::ctx);
            let leases = window_spans(&mut halves, slots, base_tick + k, ticks)
                .zip(bufs.iter_mut())
                .map(|(span, bufs)| Lease {
                    base: k,
                    ticks,
                    span,
                    bufs,
                    faults: fault_ctx,
                });
            let (t2, wait0) = desk.lend(leases, |lease| {
                let (_, _, t2) = run_window(wctx, lease, 0, coordinator_core, profiling);
                (t2, (profiling && workers > 1).then(Instant::now))
            });
            let wait_ns = wait0.map_or(0, |t| dur_ns(t, Instant::now()));
            fold_logs(bufs, scoreboard, faults.as_deref_mut(), sinks);
            let routed = route_wakes(bufs, wakes_received, slots, dist);
            activity_next = bufs
                .iter()
                .map(|b| b.activity)
                .fold(routed, ShardActivity::fold);
            k += ticks;
            // The coordinator's sample is recorded last: its flush phase
            // includes the log fold and the wake routing above.
            if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
                let marks = [t0, t1, t2, Instant::now()];
                let tick = base_tick + k - ticks;
                let serial_ns = dur_ns(t0, t1);
                record_epoch_at(
                    coordinator_core,
                    steps0,
                    tick,
                    ticks,
                    batch_base,
                    marks,
                    (serial_ns, wait_ns),
                );
            }
        }
    });
    // Wakes routed after the last window join their ready sets now.
    for (w, (core, bufs)) in cores.iter_mut().zip(bufs.iter_mut()).enumerate() {
        core.take_armed(&slots.ranges(w), &mut bufs.armed, slots);
    }
    let fault_ctx = faults.as_deref().map(FaultState::ctx);
    par.settle_sleepers(&mut els, base_tick + k, fault_ctx);
    par.store_dyn(&mut els, base_tick + k);
    k
}

/// Folds one window's shard logs and clears them. Each shard logged in
/// `(tick, element)` order and no element spans two shards, so merging
/// the logs by that key — each element's entries kept in the order its
/// visit made them — reproduces the dense loop's order; a lone non-empty
/// log is already in it. Arrivals go to the scoreboard, operations to the
/// fault state, events to every sink.
/// A violation that makes the DFS controller back off is decided here,
/// not in the visit, so its `FrequencyBackoff` event joins the stream
/// right after the capture's `TimingViolation`, where the dense loop
/// emits it: the capture logs its `Violation` op before its events.
fn fold_logs(
    bufs: &mut [WorkerBufs],
    scoreboard: &mut Scoreboard,
    mut faults: Option<&mut FaultState>,
    sinks: &mut Sinks,
) {
    // Carries a DFS backoff from a capture's `Violation` op to its
    // `TimingViolation` event.
    let mut backoff = false;
    let mut fold = |&(tick, element, entry): &Logged| match entry {
        LogEntry::Arrival(flit, port) => scoreboard.record_arrival(&flit, tick, port),
        LogEntry::Op(op) => {
            let f = faults
                .as_deref_mut()
                .expect("only fault runs log operations");
            backoff |= f.apply(tick, op);
        }
        LogEntry::Event(kind, flit) => {
            let element = ElementId(element);
            sinks.record(&TraceEvent {
                tick,
                element,
                kind,
                flit,
            });
            if kind == TraceEventKind::TimingViolation && std::mem::take(&mut backoff) {
                let kind = TraceEventKind::FrequencyBackoff;
                sinks.record(&TraceEvent {
                    tick,
                    element,
                    kind,
                    flit,
                });
            }
        }
    };
    match bufs.iter().filter(|b| !b.log.is_empty()).count() {
        0 => return,
        1 => bufs.iter().flat_map(|b| &b.log).for_each(&mut fold),
        _ => {
            let key = |&(tick, element, _): &Logged| (tick, element);
            let mut rest: Vec<&[Logged]> = bufs.iter().map(|b| b.log.as_slice()).collect();
            // Each round folds the earliest pending `(tick, element)` run.
            while let Some((first, w)) = rest
                .iter()
                .enumerate()
                .filter_map(|(w, log)| log.first().map(|e| (key(e), w)))
                .min()
            {
                let run = rest[w].iter().take_while(|e| key(e) == first).count();
                rest[w][..run].iter().for_each(&mut fold);
                rest[w] = &rest[w][run..];
            }
        }
    }
    for b in bufs {
        b.log.clear();
    }
}

/// Executes one published window for one shard: drains the shard's
/// armed list into its ready sets, then runs `ticks` back-to-back visit
/// phases on the slots its lease lends it. Only a one-tick window lends
/// other shards' slots, so only it may wake across the shard cut; the
/// coordinator routes those wakes before the next window. Leaves the
/// shard's post-window activity summary in its buffers, and returns the
/// window's base and tick count and, when profiling, the mark at which
/// its visits ended.
fn run_window(
    ctx: WindowCtx<'_>,
    lease: Lease<'_, '_>,
    w: usize,
    core: &mut ShardCore,
    profiling: bool,
) -> (u64, u64, Option<Instant>) {
    let (ticks, bufs, faults) = (lease.ticks, lease.bufs, lease.faults);
    let own = ctx.slots.ranges(w);
    core.take_armed(&own, &mut bufs.armed, ctx.slots);
    let first = ctx.base_tick + lease.base;
    let visit = if ctx.tracing {
        visit_tick::<true>
    } else {
        visit_tick::<false>
    };
    match lease.span {
        Span::Tick(mut cols, other) => {
            let outbox = Some(&mut bufs.outbox);
            visit(
                ctx,
                first,
                &mut cols,
                &other,
                core,
                &own,
                &mut bufs.log,
                outbox,
                faults,
            );
            // Timed wakes due on the next tick join the ready sets now,
            // so the activity summary below accounts for them. A wake
            // whose flit has left is stale and arms nothing.
            let halves = if first.is_multiple_of(2) {
                [cols.frozen(), other]
            } else {
                [other, cols.frozen()]
            };
            let ShardCore { ready, fx, .. } = core;
            fx.wheel.sweep(&own, first + 1, |s, due| {
                let h = ctx.slots.half_of(s);
                let live = halves[h].upset_due(s, due);
                if live {
                    ready[h].insert(s - own[h].start);
                }
                live
            });
        }
        Span::Batch(mut halves) => {
            // Fault runs step one-tick windows only, so no timed wake is
            // scheduled here.
            for tick in first..first + ticks {
                let [even, odd] = &mut halves;
                let (cols, other) = if tick.is_multiple_of(2) {
                    (even, odd.frozen())
                } else {
                    (odd, even.frozen())
                };
                // No outbox: a wake across the shard cut would be a
                // lookahead planning error.
                visit(
                    ctx,
                    tick,
                    cols,
                    &other,
                    core,
                    &own,
                    &mut bufs.log,
                    None,
                    faults,
                );
            }
        }
    }
    let t2 = profiling.then(Instant::now);
    bufs.activity = ready_activity(core, &own, ctx.dist, ctx.slots.workers == 1);
    (lease.base, ticks, t2)
}

/// Routes one window's cross-shard wakes, between windows: moves every
/// outbox entry into its target shard's armed list, which the target
/// drains into its ready sets when the next window starts, and counts it
/// in the target's `wakes_received`. Returns the activity the wakes add
/// to the next window's summary.
fn route_wakes(
    bufs: &mut [WorkerBufs],
    wakes_received: &mut [u64],
    slots: &Slots,
    dist: &[u32],
) -> ShardActivity {
    let mut activity = ShardActivity::IDLE;
    for w in 0..bufs.len() {
        let mut outbox = std::mem::take(&mut bufs[w].outbox);
        for &wake in &outbox {
            let s = wake.slot as usize;
            let target = slots.shard_of(s);
            bufs[target].armed.push(wake);
            wakes_received[target] += 1;
            activity = activity.fold(ShardActivity {
                min_dist: dist[s],
                any_armed: true,
            });
        }
        outbox.clear();
        bufs[w].outbox = outbox;
    }
    activity
}

/// Nanoseconds from `a` to `b` (saturating to zero if reordered).
#[inline]
fn dur_ns(a: Instant, b: Instant) -> u64 {
    b.duration_since(a).as_nanos() as u64
}

/// Folds one profiled window into a worker's [`CoreProf`]: the step
/// count since `steps0`, the window's tick span, and the phase times from
/// `marks` (wait start, window acquired, visits done, window fully
/// processed). `(serial, blocked)` are zero except for the coordinator:
/// `serial` is its own work before the window, which it waits on no one
/// for, and moves from the barrier phase into `flush_ns`; `blocked` is
/// its wait for the other workers after its visits, and moves from the
/// flush phase into `barrier_ns`.
fn record_epoch_at(
    core: &mut ShardCore,
    steps0: u64,
    tick: u64,
    ticks: u64,
    batch_base: Instant,
    marks: [Instant; 4],
    (serial, blocked): (u64, u64),
) {
    let [t0, t1, t2, t_end] = marks;
    let steps = core.steps - steps0;
    let prof = core.prof.as_mut().expect("profiling enabled");
    let start_ns = prof.base_ns + dur_ns(batch_base, t0);
    prof.record(EpochSample {
        tick,
        ticks: ticks.min(u64::from(u32::MAX)) as u32,
        steps,
        start_ns,
        step_ns: dur_ns(t1, t2),
        flush_ns: dur_ns(t2, t_end).saturating_sub(blocked) + serial,
        barrier_ns: dur_ns(t0, t1).saturating_sub(serial) + blocked,
    });
}

/// Whether no element holds a flit, no tile queues a response and no
/// injector queues a retransmission — `Network::in_flight() == 0`. The
/// dense registers' flits are scanned first, so a fabric still holding flits
/// answers without touching any element. Only the coordinator calls it,
/// between windows.
fn nothing_in_flight(regs: &[Regs], els: &[&mut Element], topo: &SoaTopo) -> bool {
    regs.iter().all(|r| r.out.is_none())
        && (0..topo.len())
            .filter(|&s| matches!(topo.kind[s], K_SOURCE | K_TILE))
            .all(|s| els[s].queued() == 0)
}

/// The visit phase of one tick for one shard: drain the tick's ready set
/// in ascending slot (so element) order, stepping each element on the
/// shard's slots `cols` of the ticking half — reading the other half
/// through `other` — and re-arming it and its neighbours (see
/// [`soa_rearm`]). A fault run steps through a [`FaultLane`], everything
/// else through a [`Lane`]; `TRACE` says whether trace sinks are attached.
#[allow(clippy::too_many_arguments)]
fn visit_tick<const TRACE: bool>(
    ctx: WindowCtx<'_>,
    tick: u64,
    cols: &mut Cols<'_, '_>,
    other: &Frozen<'_>,
    core: &mut ShardCore,
    own: &[Range<usize>; 2],
    log: &mut Vec<Logged>,
    mut outbox: Option<&mut Vec<Wake>>,
    faults: Option<&FaultCtx>,
) {
    let outbox = &mut outbox;
    let elem_of = ctx.slots.elem_of.as_slice();
    let Some(fault_ctx) = faults else {
        let mut lane = Lane::<TRACE> { log, elem_of };
        return visit_tick_with(ctx, tick, cols, other, core, own, outbox, &mut lane);
    };
    let mut fx = std::mem::take(&mut core.fx);
    let mut lane = FaultLane::<TRACE> {
        ctx: fault_ctx,
        log,
        elem_of,
        own,
        ops: &mut fx.ops,
        wheel: &mut fx.wheel,
    };
    visit_tick_with(ctx, tick, cols, other, core, own, outbox, &mut lane);
    core.fx = fx;
}

#[allow(clippy::too_many_arguments)]
fn visit_tick_with<H: Hooks>(
    ctx: WindowCtx<'_>,
    tick: u64,
    cols: &mut Cols<'_, '_>,
    other: &Frozen<'_>,
    core: &mut ShardCore,
    own: &[Range<usize>; 2],
    outbox: &mut Option<&mut Vec<Wake>>,
    hooks: &mut H,
) {
    let WindowCtx {
        topo,
        pinned,
        num_ports,
        ..
    } = ctx;
    let p = (tick % 2) as usize;
    // The swap buffer is all zeros and takes the tick's ready set, so
    // same-parity re-arms land on the next matching edge. This tick's
    // visits set drain bits of the other parity only, so the tick's own
    // are taken word by word.
    std::mem::swap(&mut core.ready[p].words, &mut core.scratch);
    for word in 0..core.scratch.len() {
        let mut bits = std::mem::take(&mut core.scratch[word]);
        let drains = std::mem::take(&mut core.ready[p].drained[word]);
        debug_assert_eq!(drains & !bits, 0, "a drain bit without its ready bit");
        while bits != 0 {
            let bit = bits.trailing_zeros();
            let b = (word << 6) | bit as usize;
            let i = cols.start + b;
            bits &= bits - 1;
            core.steps += 1;
            let before = cols.regs[b].out;
            let drained = soa_drained(cols, other, topo, i, tick, drains >> bit & 1 != 0);
            let stay = match topo.kind[i] {
                K_STAGE => Stay::from(soa_step_stage(cols, other, topo, i, tick, drained, hooks)),
                K_SOURCE => soa_step_source(cols, i, tick, drained, num_ports, hooks),
                K_SINK => Stay::from(soa_step_sink(cols, other, topo, i, tick, hooks)),
                _ => soa_step_tile(cols, other, topo, i, tick, drained, num_ports, hooks),
            };
            soa_rearm::<H>(
                cols, other, topo, i, tick, before, stay, pinned, core, own, outbox,
            );
        }
    }
}

/// The hooks of a SoA visit, one per point where the dense loop consults
/// its fault state, records an arrival or emits a trace event. Every
/// fault default is the plain handshake step's constant, so an untraced
/// [`Lane`] visit compiles to that step plus one log push per delivery;
/// [`FaultLane`] routes the fault hooks to the run's fault plan, and a
/// traced lane logs each event for the window-end fold. Each hook takes
/// the visited slot `i`; fault draws and log stamps use its element id
/// ([`element`](Self::element)).
trait Hooks {
    /// Whether fault hooks can fire at all; guards every fault-only
    /// branch.
    const ON: bool = false;
    /// Whether visits emit trace events; guards every trace-only branch.
    const TRACE: bool = false;
    /// Whether a generator that counts a stall sleeps until its drain,
    /// its stalls counted lazily ([`Stay::Stalled`]). On a fault run the
    /// edges its clock domain was frozen on are subtracted
    /// ([`frozen_edges`](Self::frozen_edges)). Traced runs keep it pinned:
    /// each stalled edge emits a `Blocked` event.
    const LAZY_STALLS: bool = !Self::TRACE;
    /// The shard's stamped log.
    fn log(&mut self) -> &mut Vec<Logged>;
    /// The element id of slot `i`.
    fn element(&self, i: usize) -> u32;
    /// Element `i` is frozen this tick (clock domain or outage epoch).
    #[inline(always)]
    fn frozen(&self, _i: usize, _tick: u64) -> bool {
        false
    }
    /// The ticks of `tick`'s parity, up to `tick`, on which element `i`'s
    /// clock domain was frozen ([`FaultCtx::frozen_edges`]).
    #[inline(always)]
    fn frozen_edges(&self, _i: usize, _tick: u64) -> u64 {
        0
    }
    /// The drain of `flit` out of `i` loses its `accept`.
    #[inline(always)]
    fn stuck_valid(&mut self, _i: usize, _tick: u64, _flit: &Flit) -> bool {
        false
    }
    /// The offer `i` could capture glitches away.
    #[inline(always)]
    fn lost_valid(&mut self, _i: usize, _tick: u64) -> bool {
        false
    }
    /// Capture-time faults: the flit `i` actually latches (`None`:
    /// metastability resolved to a loss), and whether the timing guard
    /// fired or the payload was corrupted.
    #[inline(always)]
    fn capture(&mut self, _i: usize, _tick: u64, flit: Flit) -> CaptureEffect {
        CaptureEffect::clean(flit)
    }
    /// `i` latched `flit`: returns the tick its register upset fires
    /// and, if that is a later tick, schedules `i`'s timed wake for it in
    /// place of the wake of the flit `i` held before.
    #[inline(always)]
    fn latch(&mut self, _i: usize, _tick: u64, _flit: &Flit) -> u64 {
        NEVER
    }
    /// A register upset erased `flit` from `i`.
    #[inline(always)]
    fn upset(&mut self, _i: usize, _tick: u64, _flit: &Flit) {}
    /// The consumer gate's verdict on `flit` arriving at `port`, whose
    /// consumer keeps its fault state in `gate`.
    #[inline(always)]
    fn arrival(
        &mut self,
        _i: usize,
        _tick: u64,
        _flit: &Flit,
        _port: PortId,
        _gate: &mut Option<Box<ElementFaults>>,
    ) -> ArrivalVerdict {
        ArrivalVerdict::Deliver
    }
    /// An endpoint injected a fresh flit or a queued retransmission.
    #[inline(always)]
    fn endpoint(&mut self, _i: usize, _tick: u64, _injected: Option<Flit>, _retx: Option<Flit>) {}
    /// The consumer `i` delivers `flit`, cleared by its gate, at `port`.
    #[inline(always)]
    fn deliver(&mut self, i: usize, tick: u64, flit: Flit, port: PortId) {
        let e = self.element(i);
        self.log().push((tick, e, LogEntry::Arrival(flit, port)));
    }
    /// `i` emits a trace event about `flit`.
    #[inline(always)]
    fn event(&mut self, i: usize, tick: u64, kind: TraceEventKind, flit: Flit) {
        if Self::TRACE {
            let e = self.element(i);
            self.log().push((tick, e, LogEntry::Event(kind, flit)));
        }
    }
}

/// The hooks of a fault-free run: deliveries, and with `TRACE` events,
/// go to the shard's log, stamped `(tick, element)` for the window-end
/// fold.
struct Lane<'a, const TRACE: bool> {
    log: &'a mut Vec<Logged>,
    elem_of: &'a [u32],
}

impl<const TRACE: bool> Hooks for Lane<'_, TRACE> {
    const TRACE: bool = TRACE;
    #[inline(always)]
    fn log(&mut self) -> &mut Vec<Logged> {
        self.log
    }
    #[inline(always)]
    fn element(&self, i: usize) -> u32 {
        self.elem_of[i]
    }
}

/// A shard's fault hooks for one tick: draws come from the read-only
/// [`FaultCtx`], recovery-layer operations join deliveries in the
/// shard's log (and with `TRACE`, events), and upset ticks become timed
/// wakes on the shard.
struct FaultLane<'a, const TRACE: bool> {
    ctx: &'a FaultCtx,
    log: &'a mut Vec<Logged>,
    elem_of: &'a [u32],
    /// The shard's slot ranges.
    own: &'a [Range<usize>; 2],
    ops: &'a mut Vec<FaultOp>,
    /// The shard's timed wakes.
    wheel: &'a mut Wheel,
}

impl<const TRACE: bool> FaultLane<'_, TRACE> {
    /// Moves the operations a hook just logged into the shard log.
    fn stamp(&mut self, tick: u64, i: usize) {
        if self.ops.is_empty() {
            return;
        }
        let e = self.element(i);
        self.log
            .extend(self.ops.drain(..).map(|op| (tick, e, LogEntry::Op(op))));
    }

    /// Slot `i`'s element id as a fault-draw key.
    #[inline]
    fn key(&self, i: usize) -> usize {
        self.element(i) as usize
    }
}

impl<const TRACE: bool> Hooks for FaultLane<'_, TRACE> {
    const ON: bool = true;
    const TRACE: bool = TRACE;
    fn log(&mut self) -> &mut Vec<Logged> {
        self.log
    }
    fn element(&self, i: usize) -> u32 {
        self.elem_of[i]
    }
    fn frozen(&self, i: usize, tick: u64) -> bool {
        self.ctx.frozen(self.key(i), tick)
    }
    fn frozen_edges(&self, i: usize, tick: u64) -> u64 {
        self.ctx.frozen_edges(self.key(i), (tick % 2) as usize)
    }
    fn stuck_valid(&mut self, i: usize, tick: u64, flit: &Flit) -> bool {
        let stuck = self.ctx.stuck_valid(self.key(i), tick, flit, self.ops);
        self.stamp(tick, i);
        stuck
    }
    fn lost_valid(&mut self, i: usize, tick: u64) -> bool {
        let lost = self.ctx.lost_valid(self.key(i), tick, self.ops);
        self.stamp(tick, i);
        lost
    }
    fn capture(&mut self, i: usize, tick: u64, flit: Flit) -> CaptureEffect {
        // Rising-edge captures (even ticks) sit on downstream links,
        // falling-edge captures on upstream ones.
        let direction = if tick.is_multiple_of(2) {
            Direction::Downstream
        } else {
            Direction::Upstream
        };
        let effect = self
            .ctx
            .on_capture(self.key(i), tick, flit, direction, self.ops);
        self.stamp(tick, i);
        effect
    }
    fn latch(&mut self, i: usize, tick: u64, flit: &Flit) -> u64 {
        let upset = self.ctx.upset_tick(self.key(i), tick, flit);
        // An upset due now erases the flit in this visit.
        let due = if upset > tick { upset } else { NEVER };
        self.wheel.schedule(self.own, i, due);
        upset
    }
    fn upset(&mut self, i: usize, tick: u64, flit: &Flit) {
        FaultCtx::held_drop(flit, self.ops);
        self.stamp(tick, i);
    }
    fn arrival(
        &mut self,
        i: usize,
        tick: u64,
        flit: &Flit,
        port: PortId,
        gate: &mut Option<Box<ElementFaults>>,
    ) -> ArrivalVerdict {
        let gate = gate
            .as_mut()
            .expect("fault runs give every endpoint a fault slot");
        let verdict = FaultCtx::on_arrival(flit, port, &mut gate.delivered, self.ops);
        self.stamp(tick, i);
        verdict
    }
    fn endpoint(&mut self, i: usize, tick: u64, injected: Option<Flit>, retx: Option<Flit>) {
        let e = self.element(i);
        FaultOp::endpoint(injected, retx, |op| {
            self.log.push((tick, e, LogEntry::Op(op)));
        });
    }
}

/// Post-visit re-arm: decide whether slot `i` (parity index `p`) stays
/// armed and wake the neighbours its new state can affect; a neighbour
/// outside this shard's slot range is a cross-shard wake and goes into
/// this worker's outbox. `before` is the flit `i` presented
/// pre-visit: a drain-and-reinject visit leaves `out` occupied
/// throughout, so "newly presented" must compare flit identity, not
/// occupancy.
///
/// Invariants this maintains (the correctness core of the kernel):
/// * an element that just *captured* wakes the drained upstream, with
///   its drain bit: it must observe the drain on its very next edge. Only
///   a capture writes the accept marker, stamped with its tick, and it
///   reads as a drain only on the next tick ([`took`]), the one tick on
///   which the dense loop still holds it; so no visit is spent clearing
///   it, on a fault run either, and the drain bit is set exactly when the
///   marker reads as a drain ([`soa_drained`]);
/// * on a fault run, a flit `i` still presents after a downstream took it
///   on the previous tick — a stuck `valid` lost the drain, or `i`
///   recaptured the duplicate its own upstream re-presented — is not
///   newly presented, so the downstream that took it is woken to take it
///   again ([`took`]);
/// * a *newly presented* flit wakes every downstream that could take it
///   on its next edge ([`soa_may_capture`]): sinks and tiles always, a
///   stage only while it holds no flit and is locked to `i`, or unlocked
///   and routing the flit as a worm's opening flit. A stage holding a
///   flit is woken by that flit's drain and then arbitrates afresh; a
///   lock to another upstream changes only on the stage's own visits,
///   and a route filter never does.
///   A blocked element then sleeps: its state next changes at the
///   drain, and the capture-wake above covers exactly that edge (a
///   traced run keeps a stage holding a flit armed instead, through
///   `stay`, so each blocked edge emits its `Blocked` event);
/// * `stay` carries the kind-specific stay conditions computed during
///   the step: a source while mid-worm, a tile while it presents or has
///   queued responses, a sink or tile while an offer it did not take may
///   still be presented (its accept mode may open on any later cycle, or
///   another upstream's offer waits behind the one it took); pinned
///   elements stay unless the visit counted a stall. An untraced source,
///   or a tile with no queued responses, that counted a stall sleeps
///   even when pinned ([`Stay::Stalled`]): its flit is held until the
///   drain, whose capture-wake above covers it, and the stalls of the
///   skipped visits are counted lazily ([`skipped_stalls`]).
///
/// Every connection joins opposite clock polarities, so both the drained
/// upstream and all downstreams land in the other parity's ready set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn soa_rearm<H: Hooks>(
    cols: &Cols<'_, '_>,
    other: &Frozen<'_>,
    topo: &SoaTopo,
    i: usize,
    tick: u64,
    before: Option<Flit>,
    stay: Stay,
    pinned: &[bool],
    core: &mut ShardCore,
    own: &[Range<usize>; 2],
    outbox: &mut Option<&mut Vec<Wake>>,
) {
    let (b, p) = (i - cols.start, (tick % 2) as usize);
    let regs = &cols.regs[b];
    let captured = if regs.acc_at == tick {
        regs.acc
    } else {
        NONE_U32
    };
    let armed = match stay {
        Stay::Pin => pinned[i],
        Stay::Armed => true,
        Stay::Stalled => false,
    };
    if armed {
        core.arm(own, p, i);
    }
    let mut wake = |idx: usize, drained: bool, core: &mut ShardCore| {
        if own[p ^ 1].contains(&idx) {
            core.wake(own, p ^ 1, idx, drained);
        } else {
            core.wakes_sent += 1;
            let outbox = outbox.as_mut();
            outbox
                .expect("cross-shard wake inside a batched lookahead window")
                .push(Wake {
                    slot: idx as u32,
                    drained,
                });
        }
    };
    if captured != NONE_U32 {
        wake(captured as usize, true, core);
    }
    if let Some(flit) = regs.out.as_ref().filter(|_| regs.out != before) {
        for &d in topo.downs(i) {
            if soa_may_capture(other, topo, d, i as u32, flit) {
                wake(d as usize, false, core);
            }
        }
    } else if H::ON && regs.out.is_some() {
        // Still presenting the flit a downstream took on the previous
        // tick: a stuck `valid` re-presents it, or a stage recaptured the
        // duplicate its own upstream's stuck `valid` re-presented. It is
        // not newly presented, so the downstream that took it is woken
        // to take it again.
        for &d in topo.downs(i) {
            if took(other, d, i, tick) {
                wake(d as usize, false, core);
            }
        }
    }
}

/// Whether `d` could take `flit`, freshly presented by its upstream `u`,
/// on its next edge. Sinks and tiles take any offer. A stage holding a
/// flit cannot (that flit's drain wakes it, and it then arbitrates
/// afresh); an empty one can if it is locked to `u`, or unlocked and its
/// route filter wants `flit` as a worm's opening flit — the stage step's
/// own arbitration test.
#[inline]
fn soa_may_capture(other: &Frozen<'_>, topo: &SoaTopo, d: u32, u: u32, flit: &Flit) -> bool {
    let d = d as usize;
    if topo.kind[d] != K_STAGE {
        return true;
    }
    let r = &other.regs[d - other.start];
    let (held, lock) = (r.out.is_some(), r.lock);
    !held && (lock == u || (lock == NONE_U32 && flit.opens_route() && topo.filter[d].wants(flit)))
}

/// Whether `d` took `i`'s flit on the tick before `tick`. An accept
/// marker counts only on the tick after its stamp; the dense loop clears
/// it on the capturing element's next edge.
#[inline]
fn took(other: &Frozen<'_>, d: u32, i: usize, tick: u64) -> bool {
    let r = &other.regs[d as usize - other.start];
    r.acc == i as u32 && r.acc_at.wrapping_add(1) == tick
}

/// `Network::was_drained` against the dense state: `i` holds a flit and
/// its drain bit `drain` is set — a downstream took the flit on the
/// previous tick. The bit stands for the scan of its downstreams' accept
/// markers ([`took`]), which debug builds check it against.
#[inline]
fn soa_drained(
    cols: &Cols<'_, '_>,
    other: &Frozen<'_>,
    topo: &SoaTopo,
    i: usize,
    tick: u64,
    drain: bool,
) -> bool {
    debug_assert_eq!(
        drain,
        topo.downs(i).iter().any(|&d| took(other, d, i, tick)),
        "slot {i}'s drain bit disagrees with its downstreams' accept markers at tick {tick}"
    );
    drain && cols.regs[i - cols.start].out.is_some()
}

/// `Network::first_offer` against the dense state: the first upstream
/// presenting a flit, as `(upstream index, flit)`.
#[inline]
fn soa_first_offer(other: &Frozen<'_>, topo: &SoaTopo, i: usize) -> (u32, Option<Flit>) {
    for &u in topo.ups(i) {
        if let Some(flit) = *other.out(u) {
            return (u, Some(flit));
        }
    }
    (NONE_U32, None)
}

/// The dense loop's stage step on the dense arrays. A frozen stage only
/// observes its drain; hooks that change state no handshake will revisit
/// — a frozen edge, a lost offer, an upset — keep the stage armed, and
/// so does a held flit on a traced run, whose every blocked edge emits a
/// `Blocked` event. Returns that stay condition.
#[allow(clippy::too_many_arguments)]
fn soa_step_stage<H: Hooks>(
    cols: &mut Cols<'_, '_>,
    other: &Frozen<'_>,
    topo: &SoaTopo,
    i: usize,
    tick: u64,
    mut drained: bool,
    hooks: &mut H,
) -> bool {
    if H::ON && hooks.frozen(i, tick) {
        soa_freeze(cols, i, drained);
        return true;
    }
    let b = i - cols.start;
    if H::ON && drained {
        let held = cols.regs[b].out.expect("drained implies held");
        drained = !hooks.stuck_valid(i, tick, &held);
    }
    let ups = topo.ups(i);
    let n = ups.len();
    let mut winner: Option<(usize, Flit)> = None;
    let mut contenders = 0u32;
    let regs = &mut cols.regs[b];
    let locked = regs.lock;
    if locked != NONE_U32 {
        if let Some(flit) = other.out(locked) {
            let slot = ups
                .iter()
                .position(|&u| u == locked)
                .expect("lock always names an upstream");
            winner = Some((slot, *flit));
        }
    } else if n > 0 {
        let mut slot = match topo.arb[i] {
            Arbitration::RoundRobin => regs.rr as usize,
            Arbitration::Priority => 0,
        };
        debug_assert!(slot < n, "round-robin pointer past the upstreams");
        for _ in 0..n {
            if let Some(flit) = other.out(ups[slot]) {
                if flit.opens_route() && topo.filter[i].wants(flit) {
                    if winner.is_none() {
                        winner = Some((slot, *flit));
                        if !H::TRACE {
                            break;
                        }
                    }
                    // Tracing only: keep scanning to count the losers of
                    // this arbitration.
                    contenders += 1;
                }
            }
            slot = next_slot(slot, n);
        }
    }
    let new_empty = regs.out.is_none() || drained;
    let mut stay = false;
    if H::ON && new_empty && winner.is_some() && hooks.lost_valid(i, tick) {
        winner = None;
        stay = true;
    }
    match winner {
        Some((slot, flit)) if new_empty => {
            let upstream = ups[slot];
            let effect = hooks.capture(i, tick, flit);
            let latched = effect.flit;
            (regs.acc, regs.acc_at) = (upstream, tick);
            regs.out = latched;
            if flit.opens_route() {
                regs.rr = next_slot(slot, n) as u32;
            }
            regs.lock = if flit.closes_route() {
                NONE_U32
            } else {
                upstream
            };
            regs.enabled += 1;
            if H::ON {
                match latched {
                    Some(latched) => cols.cold[b].upset = hooks.latch(i, tick, &latched),
                    // Metastability resolved to a loss: no drain will
                    // wake the empty stage, and another upstream's
                    // offer may be waiting.
                    None => stay = true,
                }
            }
            if H::TRACE {
                // A backoff this violation causes is decided in the fold
                // (see `fold_logs`), which places it after this event.
                if effect.violation {
                    hooks.event(i, tick, TraceEventKind::TimingViolation, flit);
                }
                match latched {
                    Some(latched) => {
                        hooks.event(i, tick, TraceEventKind::HopForwarded, latched);
                        if effect.corrupted {
                            hooks.event(i, tick, TraceEventKind::Corrupted, latched);
                        }
                        if contenders > 1 {
                            let kind = TraceEventKind::Arbitrated { contenders };
                            hooks.event(i, tick, kind, latched);
                        }
                    }
                    None => {
                        let cause = DropCause::Metastability;
                        hooks.event(i, tick, TraceEventKind::Dropped { cause }, flit);
                    }
                }
            }
        }
        _ => {
            if drained {
                regs.out = None;
            } else if let Some(held) = regs.out.filter(|_| H::TRACE) {
                hooks.event(i, tick, TraceEventKind::Blocked, held);
            }
        }
    }
    if let Some(flit) = regs.out.filter(|_| H::ON && tick >= cols.cold[b].upset) {
        regs.out = None;
        hooks.upset(i, tick, &flit);
        if H::TRACE {
            let cause = DropCause::FaultUpset;
            hooks.event(i, tick, TraceEventKind::Dropped { cause }, flit);
        }
        stay = true;
    }
    stay || (H::TRACE && regs.out.is_some())
}

/// The round-robin slot after `slot` among `n` upstreams, without a
/// division.
#[inline]
fn next_slot(slot: usize, n: usize) -> usize {
    if slot + 1 == n {
        0
    } else {
        slot + 1
    }
}

/// A frozen element's edge: it observes its drain, captures nothing and
/// presents nothing new.
fn soa_freeze(cols: &mut Cols<'_, '_>, i: usize, drained: bool) {
    if drained {
        cols.regs[i - cols.start].out = None;
    }
}

/// The dense loop's source step. Returns the kind-specific stay
/// condition (worm still emitting, or frozen); a visit that counts a
/// stall on an untraced run sleeps instead (see [`soa_rearm`]).
fn soa_step_source<H: Hooks>(
    cols: &mut Cols<'_, '_>,
    i: usize,
    tick: u64,
    drained: bool,
    num_ports: u32,
    hooks: &mut H,
) -> Stay {
    if H::ON && hooks.frozen(i, tick) {
        soa_freeze(cols, i, drained);
        return Stay::Armed;
    }
    let b = i - cols.start;
    let (regs, cold, el) = (&mut cols.regs[b], &mut cols.cold[b], &mut *cols.els[b]);
    if drained {
        regs.out = None;
    }
    let Kind::Source(state) = &mut el.kind else {
        unreachable!("soa_step_source called on non-source")
    };
    if H::LAZY_STALLS {
        state.stalled_edges += wake_stalls(cold, hooks, i, tick);
    }
    // Retransmissions take the idle slot between packets — never
    // mid-worm.
    let mut retransmitted = None;
    if H::ON && regs.out.is_none() && state.emitting.is_none() {
        retransmitted = el.faults.as_mut().and_then(|f| f.retx.pop_front());
        regs.out = retransmitted;
    }
    let mut injected = None;
    let mut stalled = false;
    if state.enabled || state.emitting.is_some() {
        if regs.out.is_none() {
            if let Some(flit) = state.next_flit(tick, num_ports) {
                regs.out = Some(flit);
                injected = Some(flit);
            }
        } else if retransmitted.is_none() {
            state.stalled_edges += 1;
            stalled = true;
        }
    }
    if H::ON {
        hooks.endpoint(i, tick, injected, retransmitted);
    }
    if H::TRACE {
        emit_endpoint_events(hooks, i, tick, injected, retransmitted, regs.out, stalled);
    }
    if H::LAZY_STALLS && stalled {
        return sleep_stalled(cold, hooks, i, tick);
    }
    Stay::from(state.emitting.is_some())
}

/// An endpoint visit's output-side events, in the dense loop's order:
/// `Injected`, `Retransmitted`, then `Blocked` for a visit that counted
/// a stall on the flit it still presents.
fn emit_endpoint_events<H: Hooks>(
    hooks: &mut H,
    i: usize,
    tick: u64,
    injected: Option<Flit>,
    retransmitted: Option<Flit>,
    presented: Option<Flit>,
    stalled: bool,
) {
    if let Some(flit) = injected {
        hooks.event(i, tick, TraceEventKind::Injected, flit);
    }
    if let Some(flit) = retransmitted {
        hooks.event(i, tick, TraceEventKind::Retransmitted, flit);
    }
    if let Some(flit) = presented.filter(|_| stalled) {
        hooks.event(i, tick, TraceEventKind::Blocked, flit);
    }
}

/// The dense loop's sink step; the scoreboard arrival is deferred into
/// this worker's log. Returns the kind-specific stay condition (it
/// refused an offer, or took one while another upstream may still
/// offer, or frozen).
fn soa_step_sink<H: Hooks>(
    cols: &mut Cols<'_, '_>,
    other: &Frozen<'_>,
    topo: &SoaTopo,
    i: usize,
    tick: u64,
    hooks: &mut H,
) -> bool {
    if H::ON && hooks.frozen(i, tick) {
        return true;
    }
    let (up, offered) = soa_first_offer(other, topo, i);
    let b = i - cols.start;
    let el = &mut *cols.els[b];
    let Kind::Sink(state) = &mut el.kind else {
        unreachable!("soa_step_sink called on non-sink")
    };
    let accepts = state.mode.accepts(tick / 2);
    let port = state.port;
    if let (true, Some(flit)) = (accepts, offered) {
        (cols.regs[b].acc, cols.regs[b].acc_at) = (up, tick);
        // The consumer gate: corrupt and duplicate flits are consumed but
        // never reach the scoreboard.
        let verdict = hooks.arrival(i, tick, &flit, port, &mut el.faults);
        if verdict == ArrivalVerdict::Deliver {
            hooks.deliver(i, tick, flit, port);
        }
        if H::TRACE {
            hooks.event(i, tick, arrival_event(verdict, &flit, port), flit);
        }
    }
    // An offer it took is drained, and the upstream's next one wakes the
    // sink; another upstream's may already wait (a ring-shortcut sink
    // has two).
    offered.is_some() && (!accepts || topo.ups(i).len() > 1)
}

/// The dense loop's tile step; the scoreboard arrival is deferred into
/// this worker's log. Returns the kind-specific stay condition
/// (presenting, responses still queued, another upstream may still
/// offer, or frozen); a visit that counts a stall with no responses
/// queued on an untraced run sleeps instead (see [`soa_rearm`]).
#[allow(clippy::too_many_arguments)]
fn soa_step_tile<H: Hooks>(
    cols: &mut Cols<'_, '_>,
    other: &Frozen<'_>,
    topo: &SoaTopo,
    i: usize,
    tick: u64,
    drained: bool,
    num_ports: u32,
    hooks: &mut H,
) -> Stay {
    if H::ON && hooks.frozen(i, tick) {
        soa_freeze(cols, i, drained);
        return Stay::Armed;
    }
    let (up, offered) = soa_first_offer(other, topo, i);
    let b = i - cols.start;
    let (regs, cold, el) = (&mut cols.regs[b], &mut cols.cold[b], &mut *cols.els[b]);
    if drained {
        regs.out = None;
    }
    let out_empty = regs.out.is_none();
    let Kind::Tile(state) = &mut el.kind else {
        unreachable!("soa_step_tile called on non-tile")
    };
    if H::LAZY_STALLS {
        state.stalled_edges += wake_stalls(cold, hooks, i, tick);
    }
    let port = state.port;
    if offered.is_some() {
        (regs.acc, regs.acc_at) = (up, tick);
    }
    // Only flits the consumer gate clears are processed: a memory never
    // double-serves and a processor never double-counts.
    let verdict = offered.map(|flit| hooks.arrival(i, tick, &flit, port, &mut el.faults));
    let arrived = offered.filter(|_| verdict == Some(ArrivalVerdict::Deliver));
    if let Some(flit) = arrived {
        state.consume(&flit, tick);
    }
    // A pending retransmission takes the idle slot first.
    let mut retransmitted = None;
    if H::ON && out_empty {
        retransmitted = el.faults.as_mut().and_then(|f| f.retx.pop_front());
        regs.out = retransmitted;
    }
    let mut injected = None;
    let mut stalled = false;
    if out_empty && retransmitted.is_none() {
        if let Some(flit) = state.next_flit(tick, num_ports) {
            regs.out = Some(flit);
            injected = Some(flit);
        }
    } else if !out_empty && state.enabled {
        state.stalled_edges += 1;
        stalled = true;
    }
    if let Some(flit) = arrived {
        hooks.deliver(i, tick, flit, port);
    }
    if H::ON {
        hooks.endpoint(i, tick, injected, retransmitted);
    }
    if H::TRACE {
        if let (Some(flit), Some(verdict)) = (offered, verdict) {
            hooks.event(i, tick, arrival_event(verdict, &flit, port), flit);
        }
        emit_endpoint_events(hooks, i, tick, injected, retransmitted, regs.out, stalled);
    }
    // Another upstream's offer may wait behind the one it took (a
    // ring-shortcut tile has two upstreams).
    let recheck = offered.is_some() && topo.ups(i).len() > 1;
    if H::LAZY_STALLS && stalled && state.pending.is_empty() && !recheck {
        return sleep_stalled(cold, hooks, i, tick);
    }
    Stay::from(recheck || regs.out.is_some() || !state.pending.is_empty())
}

/// Assigns every element to a shard.
///
/// With builder-provided subtree hints, elements are grouped by hint and
/// whole groups are placed longest-processing-time-first onto the least
/// loaded shard — subtrees stay intact, so in a tree fabric almost all
/// handshake traffic is shard-internal and only root crossings wake
/// across the shard cut. Without hints, contiguous index ranges are used
/// (builders allocate neighbouring elements contiguously, so ranges
/// approximate locality for meshes and pipelines).
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

    #[test]
    fn slot_plan_is_shard_major_and_invertible() {
        // Level-order numbering interleaves shards near the root; shards 2
        // and 4 are empty, and shard 3 has no odd element.
        let shard_of = [0u16, 1, 0, 1, 3, 0, 1, 1, 3, 0];
        let half = [0u8, 1, 1, 0, 0, 0, 1, 1, 0, 0];
        let workers = 5;
        let slots = Slots::plan(&shard_of, &half, workers);
        // Parity-major, then shard-major.
        assert_eq!(slots.bounds, vec![0, 3, 4, 4, 6, 6, 7, 10, 10, 10, 10]);
        for h in 0..2 {
            for w in 0..workers {
                let range = slots.range(h, w);
                let members: Vec<u32> = range.clone().map(|s| slots.elem_of[s]).collect();
                let want: Vec<u32> = (0..shard_of.len() as u32)
                    .filter(|&e| usize::from(shard_of[e as usize]) == w)
                    .filter(|&e| usize::from(half[e as usize]) == h)
                    .collect();
                // One contiguous range per half and shard, in ascending
                // element order.
                assert_eq!(members, want, "half {h} shard {w}");
                assert!(
                    range
                        .clone()
                        .all(|s| slots.shard_of(s) == w && slots.half_of(s) == h),
                    "half {h} shard {w}"
                );
            }
        }
        assert!(slots.range(0, 2).is_empty() && slots.range(1, 3).is_empty());
        for (e, &s) in slots.slot_of.iter().enumerate() {
            assert_eq!(slots.elem_of[s as usize] as usize, e);
            assert_eq!(
                slots.unpack(slots.pack(Some(ElementId(e as u32)))),
                Some(ElementId(e as u32))
            );
        }
        assert_eq!(slots.unpack(slots.pack(None)), None);
        // One shard is the two polarity halves, each in element order.
        let lone = Slots::plan(&[0; 6], &[0, 1, 0, 1, 1, 0], 1);
        assert_eq!(lone.elem_of, vec![0, 2, 5, 1, 3, 4]);
        assert_eq!(lone.bounds, vec![0, 3, 6]);
        // Every CSR neighbour of every slot lies in the opposite half, on
        // a tree fabric with processor tiles, cut three ways.
        let tree = icnoc_topology::TreeTopology::binary(16).expect("power of 2");
        let tiles = crate::TileTraffic {
            max_outstanding: 2,
            service_cycles: 3,
        };
        let net = crate::TreeNetworkConfig::new(tree)
            .with_tiles(tiles)
            .build();
        let par = ParState::build(net.elements(), 3, None);
        for s in 0..par.topo.len() {
            let mut neighbours = par.topo.ups(s).iter().chain(par.topo.downs(s));
            let h = par.slots.half_of(s);
            assert!(
                neighbours.all(|&j| par.slots.half_of(j as usize) != h),
                "slot {s}"
            );
        }
    }

    /// A 7-element chain `0-1-2-3-4-5-6` of alternating polarity (a
    /// source, five stages and a sink) split 0..=3 / 4..=6: the cut edge
    /// is 3-4, so 3 and 4 are boundary and distances fan out from there.
    /// Returns the plan and each element's slot.
    fn chain_par(workers: usize) -> (ParState, Vec<usize>) {
        let sink = crate::SinkMode::AlwaysAccept;
        let net = crate::Network::pipeline(5, TrafficPattern::Silent, sink, 1);
        let hints = [0, 0, 0, 0, 1, 1, 1];
        let par = ParState::build(net.elements(), workers, Some(&hints));
        let slot_of = par.slots.slot_of.iter().map(|&s| s as usize).collect();
        (par, slot_of)
    }

    #[test]
    fn boundary_distances_fan_out_from_cut() {
        let (par, slot_of) = chain_par(2);
        let by_element: Vec<u32> = slot_of.iter().map(|&s| par.dist[s]).collect();
        assert_eq!(by_element, vec![3, 2, 1, 0, 0, 1, 2]);
    }

    #[test]
    fn single_shard_has_unbounded_distances() {
        let (par, _) = chain_par(1);
        assert!(par.dist.iter().all(|&d| d == u32::MAX), "{:?}", par.dist);
    }

    #[test]
    fn routed_wake_arms_its_target_shard() {
        let (par, slot_of) = chain_par(2);
        // Shard 0 woke element 4, across the 3-4 cut.
        // The wake carries element 4's drain bit: a capture in shard 0
        // took its flit.
        let s4 = Wake {
            slot: slot_of[4] as u32,
            drained: true,
        };
        let mut bufs = vec![WorkerBufs::default(); 2];
        bufs[0].outbox.push(s4);
        let mut wakes_received = vec![0u64; 2];
        let activity = route_wakes(&mut bufs, &mut wakes_received, &par.slots, &par.dist);
        let armed: Vec<&[Wake]> = bufs.iter().map(|b| b.armed.as_slice()).collect();
        assert_eq!(armed, vec![&[][..], &[s4][..]]);
        assert_eq!(wakes_received, vec![0, 1]);
        assert_eq!(
            activity,
            ShardActivity {
                min_dist: 0,
                any_armed: true,
            }
        );
        assert!(bufs.iter().all(|b| b.outbox.is_empty()), "{bufs:?}");
    }

    #[test]
    fn window_plan_covers_all_regimes() {
        let armed = |min_dist| ShardActivity {
            min_dist,
            any_armed: true,
        };
        let plan = |activity, remaining, drain| plan_window(activity, remaining, drain, FOLD_TICKS);
        // Boundary armed: one tick, whose cross-shard wakes the
        // coordinator routes before the next window.
        assert_eq!(plan(armed(0), 100, false), 1);
        // Finite lookahead: that many barrier-free ticks, clamped.
        assert_eq!(plan(armed(3), 100, false), 3);
        assert_eq!(plan(armed(7), 4, false), 4);
        // Armed but no reachable boundary (e.g. a single shard): the
        // rest of the batch is barrier-free, but drain mode must still
        // single-step — state changes every tick.
        assert_eq!(plan(armed(u32::MAX), 100, false), 100);
        assert_eq!(plan(armed(u32::MAX), 100, true), 1);
        // Nothing in the lookahead bounds that window, so the fold
        // interval does: the shard logs stay bounded between folds
        // however long the batch. A deep finite lookahead obeys
        // the same cap.
        assert_eq!(plan(armed(u32::MAX), 120_000, false), FOLD_TICKS);
        assert_eq!(plan(armed(5_000), 120_000, false), FOLD_TICKS);
        // Nothing armed anywhere: no visit can occur, so the rest of
        // the batch collapses into one window even in drain mode.
        assert_eq!(plan(ShardActivity::IDLE, 100, false), 100);
        assert_eq!(plan(ShardActivity::IDLE, 100, true), 100);
        // Drain mode pins finite windows to single ticks so the drain
        // check fires at sequential tick boundaries.
        assert_eq!(plan(armed(3), 100, true), 1);
        assert_eq!(plan(armed(0), 100, true), 1);
        // A traced run folds its event logs at its own, shorter interval;
        // an idle traced batch still collapses into one window.
        assert_eq!(
            plan_window(armed(u32::MAX), 100, false, TRACE_FOLD_TICKS),
            TRACE_FOLD_TICKS
        );
        assert_eq!(
            plan_window(ShardActivity::IDLE, 100, false, TRACE_FOLD_TICKS),
            100
        );
    }

    /// A shard owning slots 0..3 of half 0 and 10..15 of half 1: eight
    /// slots, so an eight-bucket wheel.
    const OWN: [Range<usize>; 2] = [0..3, 10..15];

    /// Sweeps `wheel` up to `upto`, answering every wake live, and
    /// returns the `(slot, due)` pairs fired, sorted.
    fn sweep_all(wheel: &mut Wheel, upto: u64) -> Vec<(usize, u64)> {
        let mut fired = Vec::new();
        wheel.sweep(&OWN, upto, |s, due| {
            fired.push((s, due));
            true
        });
        fired.sort_unstable();
        fired
    }

    #[test]
    fn a_wake_turns_ahead_fires_on_exactly_its_tick() {
        let mut wheel = Wheel::default();
        // 8 buckets: tick 2 + 3·8 shares bucket 2 with ticks 2, 10, 18.
        let due = 2 + 3 * 8;
        wheel.schedule(&OWN, 11, due);
        assert_eq!(wheel.heads.len(), 8);
        for tick in 0..due {
            assert_eq!(sweep_all(&mut wheel, tick), vec![], "tick {tick}");
        }
        assert_eq!(sweep_all(&mut wheel, due), vec![(11, due)]);
        assert_eq!(sweep_all(&mut wheel, due + 8), vec![]);
        assert_eq!(wheel.counts.scheduled, 1);
        assert_eq!(wheel.counts.fired_live, 1);
    }

    #[test]
    fn rescheduling_a_slot_replaces_its_wake() {
        let mut wheel = Wheel::default();
        // Slots 1 and 12 share bucket 4; slot 12 moves twice, then is
        // cancelled and set again.
        wheel.schedule(&OWN, 1, 4);
        wheel.schedule(&OWN, 12, 4);
        wheel.schedule(&OWN, 12, 12);
        wheel.schedule(&OWN, 12, 6);
        let pending = wheel.timers.iter().filter(|t| t.due != NEVER).count();
        assert_eq!(pending, 2, "one wake per slot");
        wheel.schedule(&OWN, 1, NEVER);
        wheel.schedule(&OWN, 1, 9);
        assert_eq!(sweep_all(&mut wheel, 5), vec![]);
        assert_eq!(sweep_all(&mut wheel, 6), vec![(12, 6)]);
        assert_eq!(sweep_all(&mut wheel, 20), vec![(1, 9)]);
        assert_eq!(wheel.counts.scheduled, 5);
        assert_eq!(wheel.counts.fired_live, 2);
    }

    #[test]
    fn a_wake_whose_flit_left_arms_nothing() {
        let flit = Flit::new(PortId(0), PortId(1), 0, 0);
        let held = |out| Regs {
            out,
            acc: NONE_U32,
            lock: NONE_U32,
            rr: 0,
            enabled: 0,
            acc_at: 0,
        };
        let upset = |upset| ColdRegs {
            upset,
            asleep_since: AWAKE,
            asleep_frozen: 0,
        };
        // Slot 0 still holds its flit; slot 1's flit drained; slot 2
        // holds a newer flit whose upset falls due later.
        let regs = [held(Some(flit)), held(None), held(Some(flit))];
        let cold = [upset(6), upset(6), upset(8)];
        let frozen = Frozen {
            start: 0,
            regs: &regs,
            cold: &cold,
        };
        let mut wheel = Wheel::default();
        for s in 0..3 {
            wheel.schedule(&OWN, s, 6);
        }
        let mut armed = Vec::new();
        wheel.sweep(&OWN, 6, |s, due| {
            let live = frozen.upset_due(s, due);
            if live {
                armed.push(s);
            }
            live
        });
        assert_eq!(armed, vec![0]);
        assert_eq!(wheel.counts.fired_live, 1);
        assert_eq!(wheel.counts.fired_stale, 2);
        // A latch reschedules its slot: the replaced flit's wake is gone.
        wheel.schedule(&OWN, 0, 10);
        wheel.schedule(&OWN, 0, 14);
        assert_eq!(sweep_all(&mut wheel, 13), vec![]);
    }

    #[test]
    fn a_skipping_sweep_strands_no_wake() {
        let mut wheel = Wheel::default();
        let dues = [
            (0, 3),
            (1, 9),
            (2, 17),
            (10, 18),
            (11, 30),
            (12, 31),
            (14, 70),
        ];
        for &(s, due) in &dues {
            wheel.schedule(&OWN, s, due);
        }
        // Skips of less than a turn, of exactly a turn and of several.
        let mut fired = Vec::new();
        for upto in [4, 12, 20, 28, 69, 70] {
            let got = sweep_all(&mut wheel, upto);
            assert!(got.iter().all(|&(_, due)| due <= upto), "{got:?}");
            fired.extend(got);
        }
        fired.sort_unstable();
        assert_eq!(fired, dues);
        assert_eq!(wheel.cursor, 71);
        assert!(wheel.timers.iter().all(|t| t.due == NEVER));
        assert!(wheel.heads.iter().all(|&h| h == NIL));
    }

    #[test]
    fn parking_sync_delivers_windows_in_order() {
        let workers = 4;
        let desk = Desk::new(workers);
        desk.register(0);
        let rounds = 200u64;
        let mut bufs = vec![WorkerBufs::default(); workers];
        std::thread::scope(|scope| {
            for w in 1..workers {
                let desk = &desk;
                scope.spawn(move || {
                    desk.register(w);
                    let mut seen = 0;
                    while let Some(base) = desk.serve(w, |lease| {
                        lease.bufs.armed.push(Wake {
                            slot: w as u32,
                            drained: false,
                        });
                        lease.base
                    }) {
                        // Each window is served once, in order.
                        seen += 1;
                        assert_eq!(base, seen);
                    }
                    assert_eq!(seen, rounds);
                });
            }
            for base in 1..=rounds {
                let leases = bufs.iter_mut().map(|bufs| Lease {
                    base,
                    ticks: 1,
                    span: Span::Batch(Default::default()),
                    bufs,
                    faults: None,
                });
                desk.lend(leases, drop);
                // Every lease is back, its worker's writes with it.
                for (w, b) in bufs.iter_mut().enumerate().skip(1) {
                    assert_eq!(b.armed.pop().map(|wake| wake.slot), Some(w as u32));
                }
            }
            desk.close();
        });
    }

    #[test]
    #[should_panic(expected = "a worker panicked inside a window")]
    fn a_worker_panic_fails_the_window() {
        let desk = Desk::new(2);
        desk.register(0);
        let mut bufs = vec![WorkerBufs::default(); 2];
        std::thread::scope(|scope| {
            scope.spawn(|| {
                desk.register(1);
                desk.serve(1, |_| {
                    panic!("cross-shard wake inside a batched lookahead window")
                })
            });
            let leases = bufs.iter_mut().map(|bufs| Lease {
                base: 0,
                ticks: 2,
                span: Span::Batch(Default::default()),
                bufs,
                faults: None,
            });
            desk.lend(leases, drop);
        });
    }
}
