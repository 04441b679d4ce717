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
//! Every structure a batch shares between threads is one
//! [`SharedSlice`]: a slice whose slots each sit in an `UnsafeCell`,
//! guarded by no lock. Phase ownership is the aliasing proof behind every
//! `unsafe` access. There are two phases:
//!
//! * **Visit phase** (each tick of a window): worker `w` owns the slot
//!   range `Slots::range(w)` ([`Slots`]). It is the unique
//!   mutator of every slot `i` in that range — its entry in every
//!   [`SoaDyn`] column and the `Element` behind it — on ticks whose
//!   parity matches `i`'s polarity. Every other access reads an
//!   opposite-parity neighbour, frozen for the tick; inside a batched
//!   window no slot with a cross-shard neighbour is visited at all.
//!   Whether a wake stays in the shard is one range compare, and debug
//!   builds assert that every visit, same-shard wake, armed-list drain
//!   and timed wake stays in the range. Worker `w` owns its
//!   [`WorkerBufs`] (outbox, log and armed list). The fault state is
//!   read-only.
//! * **Between windows** (every worker has reported done and waits on the
//!   next serial): the coordinator owns every slot. It folds the logs,
//!   routes the outboxes' cross-shard wakes into the armed lists, runs
//!   the fault state's `begin_step`, and queues released
//!   retransmissions into the elements and armed lists.
//!
//! Three mechanisms keep the constant factor small:
//!
//! * **Shard-major struct-of-arrays state.** The per-element fields the
//!   handshake actually touches every tick (`out_flit`, `accepted_from`,
//!   `lock`, `rr_next`, the gating counter) live in dense [`SoaDyn`]
//!   arrays for the duration of a batch, alongside a CSR copy of the
//!   adjacency ([`SoaTopo`]). A stage visit is then a tight loop over
//!   `u32` indices with no pointer chasing through `Element`; endpoint
//!   kinds (sources, sinks, tiles) keep their bulky state in the element
//!   itself but read and write the handshake fields through the same
//!   arrays. The arrays are indexed by *slot*, not element id: each shard
//!   owns one contiguous slot range, its elements in ascending id order
//!   inside it ([`Slots`]), so two workers share at most the one cache
//!   line of each column that straddles their range boundary (in element
//!   order the tree builders' level-by-level numbering interleaves the
//!   subtrees near the root, so they would share many), and each
//!   worker's ready sets cover only its own range. Slots become element ids only
//!   at the edges: loading and storing the arrays, the hooks' fault draws
//!   and log stamps, and endpoint visits. The arrays are loaded from the
//!   elements when a batch starts and stored back when it ends, so
//!   everything outside `par_run` keeps seeing ordinary `Element`s. The
//!   buffers a worker's visits write — log, outbox, armed list — sit on
//!   a cache line of their own ([`WorkerBufs`]).
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
//!   pushes a cross-shard wake into its own outbox; after the wait for
//!   every worker's `done`, the coordinator moves it into the target
//!   shard's armed list ([`route_wakes`]), which the target drains into
//!   its ready sets when the next window starts. A window's only
//!   rendezvous is that wait. Windows are published through a
//!   seqlock-free serial counter; each worker reports completion in its
//!   own padded slot and sleeps (`thread::park`) when it has nothing to
//!   do.
//!
//! Determinism is preserved exactly: only a one-tick window may wake
//! across a shard cut (a tripwire assert enforces it), and ready-set
//! inserts are idempotent and commutative, so the order in which the
//! coordinator routes wakes cannot matter. Every worker keeps one log of
//! `(tick, element)`-stamped entries — sink and tile deliveries, and on
//! fault or traced runs recovery-layer operations and trace events — and
//! the coordinator folds the logs in that order at every window end. Each
//! consumer records at most one arrival per tick, so the fold reproduces
//! the sequential kernel's scoreboard order bit for bit at any worker
//! count.
//!
//! Fault plans run here at every worker count. Every fault is a pure hash
//! of `(seed, tick, element, slot)`, and no fault changes an element that
//! neither a handshake nor a timed wake visits: a frozen element stays
//! armed until it thaws, a lost offer re-arms its stage, and a held
//! flit's register upset is drawn when the flit is latched and served by
//! a timed wake on its shard. Fault runs use one-tick windows. Shards log
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
use crate::profile::{CoreProf, EpochSample};
use crate::report::Scoreboard;
use crate::trace::{DropCause, Sinks, TraceEvent, TraceEventKind};
use crate::{ElementId, Flit, TrafficPattern};
use icnoc_clock::{ClockGatingStats, ClockPolarity};
use icnoc_timing::Direction;
use icnoc_topology::PortId;
use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::Instant;

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
#[derive(Debug, Clone, Default)]
struct ReadySet {
    words: Vec<u64>,
}

impl ReadySet {
    fn with_len(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }
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
/// `w` owns one contiguous slot range ([`Slots`]).
#[derive(Debug, Clone)]
pub(crate) struct ParState {
    /// Worker count (= shard count).
    workers: usize,
    /// The shard-major slot plan and its maps to and from element ids.
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

/// The SoA kernel's index space. Shard `w` owns slots
/// `bounds[w]..bounds[w + 1]`, holding its elements in ascending
/// element-id order, so a shard visits (and logs) in `(tick, element)`
/// order and writes only its own stretch of every dense column. The tree
/// builders number elements level by level, which interleaves the
/// root-child subtrees near the root; in element order two workers would
/// write the same cache lines there. One shard is the identity layout.
#[derive(Debug, Clone)]
struct Slots {
    /// Shard range boundaries, `workers + 1` of them; an empty shard has
    /// an empty range.
    bounds: Vec<u32>,
    /// The slot of each element.
    slot_of: Vec<u32>,
    /// The element of each slot.
    elem_of: Vec<u32>,
}

impl Slots {
    /// Lays out the shards of `shard_of` (indexed by element) shard-major,
    /// each shard's elements in ascending id order — a stable counting
    /// sort.
    fn plan(shard_of: &[u16], workers: usize) -> Self {
        let mut bounds = vec![0u32; workers + 1];
        for &s in shard_of {
            bounds[usize::from(s) + 1] += 1;
        }
        for w in 0..workers {
            bounds[w + 1] += bounds[w];
        }
        let mut next = bounds[..workers].to_vec();
        let mut slot_of = vec![0u32; shard_of.len()];
        let mut elem_of = vec![0u32; shard_of.len()];
        for (e, &s) in shard_of.iter().enumerate() {
            let slot = &mut next[usize::from(s)];
            slot_of[e] = *slot;
            elem_of[*slot as usize] = e as u32;
            *slot += 1;
        }
        Self {
            bounds,
            slot_of,
            elem_of,
        }
    }

    /// Shard `w`'s slot range.
    fn range(&self, w: usize) -> Range<usize> {
        self.bounds[w] as usize..self.bounds[w + 1] as usize
    }

    /// The shard owning slot `s`.
    fn shard_of(&self, s: usize) -> usize {
        self.bounds.partition_point(|&b| b as usize <= s) - 1
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
/// each bumps its counters on every visit. Its slot range `own` is not
/// stored here: [`Slots::range`] is the one record of the plan, and the
/// callers pass it in.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub(crate) struct ShardCore {
    /// Per-polarity ready sets over this shard's slot range (bit `b` is
    /// slot `own.start + b`).
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
    fn new(len: usize) -> Self {
        Self {
            ready: [ReadySet::with_len(len), ReadySet::with_len(len)],
            scratch: vec![0; len.div_ceil(64)],
            steps: 0,
            wakes_sent: 0,
            prof: None,
            fx: FaultShard::default(),
        }
    }

    /// Arms slot `s`, which must lie in this shard's range `own`, in the
    /// parity-`p` ready set.
    #[inline]
    fn arm(&mut self, own: &Range<usize>, p: usize, s: usize) {
        debug_assert!(own.contains(&s), "slot {s} armed outside {own:?}");
        self.ready[p].insert(s - own.start);
    }

    /// Moves the slots the coordinator armed for this shard into its
    /// ready sets.
    fn take_armed(&mut self, own: &Range<usize>, armed: &mut Vec<u32>, pol: &[u8]) {
        for s in armed.drain(..) {
            let s = s as usize;
            self.arm(own, usize::from(pol[s]), s);
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
    outbox: Vec<u32>,
    /// Slots the coordinator armed between windows: routed cross-shard
    /// wakes and the injectors of released retransmissions.
    armed: Vec<u32>,
}

/// A shard's private state in a fault run.
#[derive(Debug, Clone, Default)]
struct FaultShard {
    /// Scratch for the operations one hook logs.
    ops: Vec<FaultOp>,
    /// Timed wakes `(tick, slot)`, earliest first: the upset ticks of
    /// flits held by sleeping stages.
    timed: BinaryHeap<Reverse<(u64, u32)>>,
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
        let slots = Slots::plan(&plan_shards(n, workers, hints), workers);
        let topo = SoaTopo::build(elements, &slots);
        let dist = boundary_distances(&topo, &slots);
        let lookahead = dist
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .map(u64::from);
        let cores = (0..workers)
            .map(|w| ShardCore::new(slots.range(w).len()))
            .collect();
        let mut par = Self {
            workers,
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
            let own = self.slots.range(w);
            for s in own.clone() {
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
        self.workers
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

    /// Switches on per-worker wall profiling for every shard.
    pub(crate) fn enable_profiling(&mut self) {
        for core in &mut self.cores {
            core.prof = Some(CoreProf::default());
        }
    }

    /// Elements assigned to each shard under the current plan.
    pub(crate) fn shard_elements(&self) -> Vec<u64> {
        (0..self.workers)
            .map(|w| self.slots.range(w).len() as u64)
            .collect()
    }

    /// Loads the dense handshake arrays from the element graph at batch
    /// start, before tick `base`, in slot order. The gating column starts
    /// at zero and accumulates enabled edges as a delta. A held accept
    /// marker was set on its element's last edge before `base`, so that
    /// edge is its stamp.
    fn load_dyn(&mut self, elements: &[Element], base: u64, faulted: bool) {
        let n = elements.len();
        let slots = &self.slots;
        let by_slot = || slots.elem_of.iter().map(|&e| &elements[e as usize]);
        let s = &mut self.soa;
        s.out.clear();
        s.out.extend(by_slot().map(|e| e.out_flit));
        s.acc.clear();
        s.acc.extend(by_slot().map(|e| slots.pack(e.accepted_from)));
        s.acc_at.clear();
        s.acc_at.extend(
            self.topo
                .pol
                .iter()
                .map(|&p| last_edge_before(usize::from(p), base)),
        );
        s.lock.clear();
        s.lock.extend(by_slot().map(|e| slots.pack(e.lock)));
        s.rr.clear();
        s.rr.extend(by_slot().map(|e| e.rr_next as u32));
        s.enabled.clear();
        s.enabled.resize(n, 0);
        s.upset.clear();
        s.upset.extend(by_slot().map(|e| e.upset_at));
        s.asleep_since.resize(n, AWAKE);
        s.asleep_frozen.resize(if faulted { n } else { 0 }, 0);
    }

    /// Stores the dense handshake arrays back into the element graph at
    /// batch end, before tick `end`, folding the gating delta into each
    /// element's accumulator. An accept marker survives only if its stamp
    /// is its element's last edge before `end`: the dense loop cleared
    /// every older one on a visit the batch skipped.
    fn store_dyn(&self, elements: &mut [Element], end: u64) {
        let slots = &self.slots;
        for (s, &e) in slots.elem_of.iter().enumerate() {
            let el = &mut elements[e as usize];
            el.out_flit = self.soa.out[s];
            let last = last_edge_before(usize::from(self.topo.pol[s]), end);
            el.accepted_from = slots
                .unpack(self.soa.acc[s])
                .filter(|_| self.soa.acc_at[s] == last);
            el.lock = slots.unpack(self.soa.lock[s]);
            el.rr_next = self.soa.rr[s] as usize;
            el.upset_at = self.soa.upset[s];
            let enabled = self.soa.enabled[s];
            if enabled != 0 {
                el.gating
                    .merge(&ClockGatingStats::from_counts(u64::from(enabled), 0));
            }
        }
    }

    /// Settles every generator still asleep when a batch ends at tick
    /// `end`: adds the stalls its skipped visits before `end` would have
    /// counted, clears its stamp and re-arms it, so nothing lazy outlives
    /// the batch. A fault run's context, if any, supplies the frozen
    /// edges each one slept through.
    fn settle_sleepers(&mut self, elements: &mut [Element], end: u64, faults: Option<&FaultCtx>) {
        for (w, core) in self.cores.iter_mut().enumerate() {
            let own = self.slots.range(w);
            for s in own.clone() {
                let since = &mut self.soa.asleep_since[s];
                if *since == AWAKE {
                    continue;
                }
                let e = self.slots.elem_of[s] as usize;
                let p = usize::from(self.topo.pol[s]);
                let frozen = faults.map_or(0, |f| f.frozen_edges(e, p) - self.soa.asleep_frozen[s]);
                let skipped = skipped_stalls(std::mem::replace(since, AWAKE), end, frozen);
                match &mut elements[e].kind {
                    Kind::Source(src) => src.stalled_edges += skipped,
                    Kind::Tile(t) => t.stalled_edges += skipped,
                    Kind::Stage | Kind::Sink(_) => unreachable!("only generators sleep stalled"),
                }
                core.arm(&own, p, s);
            }
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

/// Ends an untraced generator visit that counted a stall: stamps `i`
/// asleep at `tick`, with its domain's frozen-edge count on a fault run.
///
/// # Safety
/// The caller must own element `i` this tick.
#[inline]
unsafe fn sleep_stalled<H: Hooks>(view: SoaView<'_>, hooks: &H, i: usize, tick: u64) -> Stay {
    // SAFETY: per the function contract.
    unsafe {
        *view.asleep_since.get_mut(i) = tick;
        if H::ON {
            *view.asleep_frozen.get_mut(i) = hooks.frozen_edges(i, tick);
        }
    }
    Stay::Stalled
}

/// The stalls a generator skipped while asleep, added when an unfrozen
/// visit wakes it at `tick`; clears its stamp.
///
/// # Safety
/// The caller must own element `i` this tick.
#[inline]
unsafe fn wake_stalls<H: Hooks>(view: SoaView<'_>, hooks: &H, i: usize, tick: u64) -> u64 {
    // SAFETY: per the function contract.
    let since = std::mem::replace(unsafe { view.asleep_since.get_mut(i) }, AWAKE);
    if since == AWAKE {
        return 0;
    }
    let frozen = if H::ON {
        // SAFETY: per the function contract.
        hooks.frozen_edges(i, tick) - unsafe { *view.asleep_frozen.get(i) }
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
    /// Ready-set index of each element's clock polarity.
    pol: Vec<u8>,
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
            pol: Vec::with_capacity(n),
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
            topo.pol.push(pol_idx(el.polarity) as u8);
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

/// Dense per-slot handshake state, live during a batch.
#[derive(Debug, Clone, Default)]
struct SoaDyn {
    /// `Element::out_flit`.
    out: Vec<Option<Flit>>,
    /// The upstream slot whose flit this element last took (`u32::MAX` =
    /// none): `Element::accepted_from` while `acc_at` is the element's
    /// last edge, stale after it ([`soa_drained`]).
    acc: Vec<u32>,
    /// The tick `acc` was set.
    acc_at: Vec<u64>,
    /// `Element::lock` as a slot, `u32::MAX` = none.
    lock: Vec<u32>,
    /// `Element::rr_next`.
    rr: Vec<u32>,
    /// Enabled clock edges accumulated this batch (stages only).
    enabled: Vec<u32>,
    /// `Element::upset_at`.
    upset: Vec<u64>,
    /// The tick a sleeping generator last counted a stall ([`AWAKE`] for
    /// every other element); see [`skipped_stalls`]. All [`AWAKE`]
    /// between batches.
    asleep_since: Vec<u64>,
    /// On a fault run, a sleeping generator's domain frozen-edge count at
    /// its `asleep_since` stamp ([`FaultCtx::frozen_edges`]); empty on
    /// every other run.
    asleep_frozen: Vec<u64>,
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
/// sets start at slot `lo`. A lone shard has no cut, so every distance
/// is infinite and only whether any bit is armed matters.
fn ready_activity(core: &ShardCore, lo: usize, dist: &[u32], lone: bool) -> ShardActivity {
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
    for set in &core.ready {
        for (word, &bits) in set.words.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let i = lo + ((word << 6) | bits.trailing_zeros() as usize);
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

/// A batch-shared view of a slice, each slot in its own [`UnsafeCell`]:
/// the element array, every [`SoaDyn`] column, the workers' buffers, and
/// a fault run's [`FaultState`] as a one-slot slice. Nothing locks a
/// slot; the module doc's phase-ownership rule says who may touch which
/// slot when, and each accessor's safety contract is a case of it.
struct SharedSlice<'a, T> {
    cells: &'a [UnsafeCell<T>],
}

// SAFETY: the phase-ownership rule gives each slot at most one mutator
// at a time and lets others read only slots no one mutates; workers move
// and share slots across threads, hence `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send + Sync> Sync for SharedSlice<'_, T> {}

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
    /// The caller must own slot `i` in the current phase, with no other
    /// reference to it live.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        unsafe { &mut *self.cells[i].get() }
    }

    /// # Safety
    /// No one may mutate slot `i` in the current phase.
    #[inline]
    unsafe fn get(&self, i: usize) -> &T {
        unsafe { &*self.cells[i].get() }
    }

    /// # Safety
    /// The caller must own every slot (the coordinator between windows),
    /// with no other reference to any of them live.
    #[allow(clippy::mut_from_ref)]
    unsafe fn all_mut(&self) -> &mut [T] {
        let first = UnsafeCell::raw_get(self.cells.as_ptr());
        // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the
        // cells are `len` contiguous `T`s, and the caller holds every one
        // exclusively.
        unsafe { std::slice::from_raw_parts_mut(first, self.cells.len()) }
    }
}

/// The batch-shared view over every [`SoaDyn`] column.
#[derive(Clone, Copy)]
struct SoaView<'a> {
    out: SharedSlice<'a, Option<Flit>>,
    acc: SharedSlice<'a, u32>,
    acc_at: SharedSlice<'a, u64>,
    lock: SharedSlice<'a, u32>,
    rr: SharedSlice<'a, u32>,
    enabled: SharedSlice<'a, u32>,
    upset: SharedSlice<'a, u64>,
    asleep_since: SharedSlice<'a, u64>,
    asleep_frozen: SharedSlice<'a, u64>,
}

impl<'a> SoaView<'a> {
    fn new(soa: &'a mut SoaDyn) -> Self {
        Self {
            out: SharedSlice::new(&mut soa.out),
            acc: SharedSlice::new(&mut soa.acc),
            acc_at: SharedSlice::new(&mut soa.acc_at),
            lock: SharedSlice::new(&mut soa.lock),
            rr: SharedSlice::new(&mut soa.rr),
            enabled: SharedSlice::new(&mut soa.enabled),
            upset: SharedSlice::new(&mut soa.upset),
            asleep_since: SharedSlice::new(&mut soa.asleep_since),
            asleep_frozen: SharedSlice::new(&mut soa.asleep_frozen),
        }
    }
}

/// One worker's synchronisation slot, padded to its own cache line.
struct Peer {
    /// Serial of the last window this worker finished.
    done: AtomicU64,
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
    /// Tick count of the current window; `0` ends the batch, and the
    /// workers exit.
    ticks: AtomicU64,
    /// Per-worker slots.
    peers: Vec<PadPeer>,
}

impl SyncShared {
    fn new(workers: usize) -> Self {
        let peers = (0..workers)
            .map(|_| {
                PadPeer(Peer {
                    done: AtomicU64::new(0),
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
    /// readers of the current serial always see a consistent pair.
    fn publish(&self, serial: u64, base: u64, ticks: u64) {
        self.base.store(base, Ordering::SeqCst);
        self.ticks.store(ticks, Ordering::SeqCst);
        self.serial.store(serial, Ordering::SeqCst);
        for w in 1..self.peers.len() {
            self.wake(w);
        }
    }

    /// The `(base, ticks)` pair of the published window.
    fn window(&self) -> (u64, u64) {
        let base = self.base.load(Ordering::SeqCst);
        let ticks = self.ticks.load(Ordering::SeqCst);
        (base, ticks)
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
    pub par: &'a mut ParState,
    pub faults: Option<&'a mut FaultState>,
    pub sinks: &'a mut Sinks,
    pub num_ports: u32,
    pub base_tick: u64,
}

/// Everything a worker needs to execute one published window; bundled so
/// the per-window call is a single dispatch.
#[derive(Clone, Copy)]
struct WindowCtx<'a> {
    shared: SharedSlice<'a, Element>,
    view: SoaView<'a>,
    topo: &'a SoaTopo,
    bufs: SharedSlice<'a, WorkerBufs>,
    /// A fault run's state, as a one-slot slice.
    faults: Option<SharedSlice<'a, FaultState>>,
    /// Whether trace sinks are attached: visits then log their events.
    tracing: bool,
    slots: &'a Slots,
    pinned: &'a [bool],
    dist: &'a [u32],
    num_ports: u32,
    base_tick: u64,
    workers: usize,
}

/// Runs up to `max_ticks` half-cycles across all workers, returning the
/// number actually executed. With `stop_when_drained`, the batch also
/// stops before the first tick at which nothing is left in flight —
/// evaluated between ticks, exactly where the dense drain loop checks,
/// so tick counts (and the gating statistics derived from them) match
/// the dense kernel bit for bit.
///
/// After each window the coordinator folds the shards' stamped logs —
/// deliveries, recovery-layer operations and trace events — in
/// `(tick, element)` order, and routes the window's cross-shard wakes
/// into their shards' armed lists. A fault run steps one tick per
/// window: before each tick the coordinator runs the fault state's
/// `begin_step` and queues the retransmissions it releases at their
/// injectors, arming them.
pub(crate) fn par_run(ctx: ParRunCtx<'_>, max_ticks: u64, stop_when_drained: bool) -> u64 {
    let ParRunCtx {
        elements,
        scoreboard,
        par,
        faults,
        sinks,
        num_ports,
        base_tick,
    } = ctx;
    par.load_dyn(elements, base_tick, faults.is_some());
    let workers = par.workers;
    let shared = SharedSlice::new(elements);
    let view = SoaView::new(&mut par.soa);
    let bufs = SharedSlice::new(&mut par.bufs);
    let faults = faults.map(|f| SharedSlice::new(std::slice::from_mut(f)));
    let tracing = !sinks.is_empty();
    let dist: &[u32] = &par.dist;
    let wakes_received = &mut par.wakes_received;
    let wctx = WindowCtx {
        shared,
        view,
        topo: &par.topo,
        bufs,
        faults,
        tracing,
        slots: &par.slots,
        pinned: &par.pinned,
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
        .enumerate()
        .map(|(w, core)| ready_activity(core, par.slots.range(w).start, dist, workers == 1))
        .fold(ShardActivity::IDLE, ShardActivity::fold);

    let mut core_iter = par.cores.iter_mut();
    let coordinator_core = core_iter.next().expect("at least one worker");

    std::thread::scope(|scope| {
        for (offset, core) in core_iter.enumerate() {
            let w = offset + 1;
            let sync = &sync;
            scope.spawn(move || {
                sync.register(w);
                let profiling = core.prof.is_some();
                let mut seen = 0u64;
                loop {
                    let t0 = profiling.then(Instant::now);
                    sync.wait_until(w, || sync.serial.load(Ordering::SeqCst) > seen);
                    seen += 1;
                    let (base, ticks) = sync.window();
                    if ticks == 0 {
                        break;
                    }
                    let t1 = profiling.then(Instant::now);
                    let steps0 = core.steps;
                    let (activity, t2) = run_window(wctx, base, ticks, w, core, profiling);
                    let peer = &sync.peers[w].0;
                    peer.activity.store(activity.pack(), Ordering::SeqCst);
                    peer.done.store(seen, Ordering::SeqCst);
                    sync.wake(0);
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
        // every worker has reported done.
        let profiling = coordinator_core.prof.is_some();
        let mut serial = 0u64;
        let mut k = 0u64;
        let mut activity_next = init_activity;
        // All workers are parked before the first window, so the
        // coordinator may read every element.
        let drained = || {
            // SAFETY: workers are parked whenever this runs.
            faults.is_none_or(|f| !unsafe { f.get(0) }.recovery_busy())
                && nothing_in_flight(shared, view, wctx.topo, wctx.slots)
        };
        let mut stop = max_ticks == 0 || (stop_when_drained && drained());
        loop {
            let t0 = profiling.then(Instant::now);
            serial += 1;
            if stop {
                sync.publish(serial, k, 0);
                break;
            }
            if let Some(f) = faults {
                // SAFETY: every worker is done: the coordinator owns the
                // fault state, every element and every worker's buffers.
                let f = unsafe { f.get_mut(0) };
                f.begin_step(base_tick + k);
                for (injector, flit) in f.released() {
                    let e = injector as usize;
                    if e >= wctx.topo.len() {
                        continue;
                    }
                    // SAFETY: as above.
                    let Some(gate) = &mut unsafe { shared.get_mut(e) }.faults else {
                        continue;
                    };
                    gate.retx.push_back(flit);
                    let s = wctx.slots.slot_of[e];
                    let target = wctx.slots.shard_of(s as usize);
                    // SAFETY: as above.
                    unsafe { bufs.get_mut(target) }.armed.push(s);
                    activity_next = activity_next.fold(ShardActivity {
                        min_dist: dist[s as usize],
                        any_armed: true,
                    });
                }
            }
            let fold = if tracing {
                TRACE_FOLD_TICKS
            } else {
                FOLD_TICKS
            };
            let mut ticks = plan_window(activity_next, max_ticks - k, stop_when_drained, fold);
            if faults.is_some() {
                ticks = ticks.min(1);
            }
            sync.publish(serial, k, ticks);
            let t1 = profiling.then(Instant::now);
            let steps0 = coordinator_core.steps;
            let (own_activity, t2) = run_window(wctx, k, ticks, 0, coordinator_core, profiling);
            let wait0 = (profiling && workers > 1).then(Instant::now);
            for w in 1..workers {
                sync.wait_until(0, || sync.peers[w].0.done.load(Ordering::SeqCst) >= serial);
            }
            let wait_ns = wait0.map_or(0, |t| dur_ns(t, Instant::now()));
            // SAFETY: every worker is done and parked on the next serial:
            // the coordinator owns every worker's buffers and the fault
            // state.
            let (all_bufs, f) = unsafe { (bufs.all_mut(), faults.as_ref().map(|f| f.get_mut(0))) };
            fold_logs(all_bufs, scoreboard, f, sinks);
            let routed = route_wakes(all_bufs, wakes_received, wctx.slots, dist);
            activity_next = (1..workers).fold(own_activity.fold(routed), |a, w| {
                a.fold(ShardActivity::unpack(
                    sync.peers[w].0.activity.load(Ordering::SeqCst),
                ))
            });
            k += ticks;
            executed = k;
            stop = k >= max_ticks || (stop_when_drained && drained());
            // The coordinator's flush phase includes its serial work
            // before the window (the fault state's step and the
            // retransmission release) and the log fold, the wake routing
            // and stop evaluation above, so its sample is recorded last.
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
    for (w, (core, bufs)) in par.cores.iter_mut().zip(&mut par.bufs).enumerate() {
        core.take_armed(&par.slots.range(w), &mut bufs.armed, &par.topo.pol);
    }
    // SAFETY: the workers have exited; nothing else touches the fault
    // state.
    let fault_ctx = faults.as_ref().map(|f| unsafe { f.get(0) }.ctx());
    par.settle_sleepers(elements, base_tick + executed, fault_ctx);
    par.store_dyn(elements, base_tick + executed);
    executed
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
/// phases. Only a one-tick window may wake across the shard cut; the
/// coordinator routes those wakes before the next window. Returns the
/// shard's post-window activity summary and, when profiling, the mark at
/// which its visits ended.
fn run_window(
    ctx: WindowCtx<'_>,
    base: u64,
    ticks: u64,
    w: usize,
    core: &mut ShardCore,
    profiling: bool,
) -> (ShardActivity, Option<Instant>) {
    // SAFETY: the coordinator filled the armed list between windows;
    // worker `w`'s buffers belong to it during the window.
    let bufs = unsafe { ctx.bufs.get_mut(w) };
    let own = ctx.slots.range(w);
    core.take_armed(&own, &mut bufs.armed, &ctx.topo.pol);
    for dt in 0..ticks {
        let tick = ctx.base_tick + base + dt;
        visit_tick(ctx, tick, (tick % 2) as usize, core, &own, bufs, ticks == 1);
    }
    if ctx.faults.is_some() {
        // Timed wakes due on the next tick join the ready sets now, so
        // the activity summary below accounts for them. A wake whose
        // flit has left, or was replaced by one with a later upset, is
        // stale and dropped.
        let next = ctx.base_tick + base + ticks;
        while let Some(&Reverse((due, i))) = core.fx.timed.peek() {
            if due > next {
                break;
            }
            core.fx.timed.pop();
            let i = i as usize;
            debug_assert!(own.contains(&i), "timed wake of slot {i} outside its shard");
            // SAFETY: `i` is in this shard and no visit of it is running.
            let live = unsafe { *ctx.view.upset.get(i) == due && ctx.view.out.get(i).is_some() };
            if live {
                core.arm(&own, usize::from(ctx.topo.pol[i]), i);
            }
        }
    }
    let t2 = profiling.then(Instant::now);
    (
        ready_activity(core, own.start, ctx.dist, ctx.workers == 1),
        t2,
    )
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
        for &s in &outbox {
            let target = slots.shard_of(s as usize);
            bufs[target].armed.push(s);
            wakes_received[target] += 1;
            activity = activity.fold(ShardActivity {
                min_dist: dist[s as usize],
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
/// dense `out` column is scanned first, so a fabric still holding flits
/// answers without touching any element. Only callable while all workers
/// are quiescent (before the first window or after all reported done).
fn nothing_in_flight(
    shared: SharedSlice<'_, Element>,
    view: SoaView<'_>,
    topo: &SoaTopo,
    slots: &Slots,
) -> bool {
    // SAFETY: no worker is in a visit phase.
    (0..topo.len()).all(|s| unsafe { view.out.get(s) }.is_none())
        && (0..topo.len())
            .filter(|&s| matches!(topo.kind[s], K_SOURCE | K_TILE))
            // SAFETY: as above.
            .all(|s| unsafe { shared.get(slots.elem_of[s] as usize) }.queued() == 0)
}

/// The visit phase of one tick for one shard: drain the parity-`p` ready
/// set in ascending slot (so element) order, stepping each element and
/// re-arming it and its neighbours (see [`soa_rearm`]). With
/// `allow_cross` false (a window of more than one tick), the lookahead
/// guarantee makes cross-shard wakes impossible; a tripwire assert
/// enforces it. A fault run steps through a [`FaultLane`], everything
/// else through a [`Lane`].
fn visit_tick(
    ctx: WindowCtx<'_>,
    tick: u64,
    p: usize,
    core: &mut ShardCore,
    own: &Range<usize>,
    bufs: &mut WorkerBufs,
    allow_cross: bool,
) {
    let WorkerBufs { log, outbox, .. } = bufs;
    let elem_of = ctx.slots.elem_of.as_slice();
    match (ctx.faults, ctx.tracing) {
        (None, false) => {
            let mut lane = Lane::<false> { log, elem_of };
            visit_tick_with(ctx, tick, p, core, own, outbox, allow_cross, &mut lane);
        }
        (None, true) => {
            let mut lane = Lane::<true> { log, elem_of };
            visit_tick_with(ctx, tick, p, core, own, outbox, allow_cross, &mut lane);
        }
        (Some(faults), tracing) => {
            let mut fx = std::mem::take(&mut core.fx);
            // SAFETY: the fault state is read-only during visit phases.
            let fault_ctx = unsafe { faults.get(0) }.ctx();
            let (ops, timed) = (&mut fx.ops, &mut fx.timed);
            if tracing {
                let mut lane = FaultLane::<true> {
                    ctx: fault_ctx,
                    log,
                    elem_of,
                    ops,
                    timed,
                };
                visit_tick_with(ctx, tick, p, core, own, outbox, allow_cross, &mut lane);
            } else {
                let mut lane = FaultLane::<false> {
                    ctx: fault_ctx,
                    log,
                    elem_of,
                    ops,
                    timed,
                };
                visit_tick_with(ctx, tick, p, core, own, outbox, allow_cross, &mut lane);
            }
            core.fx = fx;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn visit_tick_with<H: Hooks>(
    ctx: WindowCtx<'_>,
    tick: u64,
    p: usize,
    core: &mut ShardCore,
    own: &Range<usize>,
    outbox: &mut Vec<u32>,
    allow_cross: bool,
    hooks: &mut H,
) {
    let WindowCtx {
        shared,
        view,
        topo,
        slots,
        pinned,
        num_ports,
        ..
    } = ctx;
    // A local copy, so the range stays in registers across the loop.
    let own = &own.clone();
    std::mem::swap(&mut core.ready[p].words, &mut core.scratch);
    for word in 0..core.scratch.len() {
        let mut bits = std::mem::take(&mut core.scratch[word]);
        while bits != 0 {
            let i = own.start + ((word << 6) | bits.trailing_zeros() as usize);
            bits &= bits - 1;
            debug_assert!(own.contains(&i), "visit of slot {i} outside its shard");
            core.steps += 1;
            // The element behind an endpoint slot.
            let e = || slots.elem_of[i] as usize;
            // SAFETY: slot `i` is in this worker's shard with parity `p`
            // — this worker is its unique owner for this tick, and all
            // its neighbour reads touch frozen opposite-parity state.
            let before = unsafe { *view.out.get(i) };
            let stay = match topo.kind[i] {
                // SAFETY: as above.
                K_STAGE => Stay::from(unsafe { soa_step_stage(view, topo, i, tick, hooks) }),
                K_SOURCE => {
                    // SAFETY: as above.
                    let el = unsafe { shared.get_mut(e()) };
                    // SAFETY: as above.
                    unsafe { soa_step_source(view, topo, el, i, tick, num_ports, hooks) }
                }
                K_SINK => {
                    // SAFETY: as above.
                    let el = unsafe { shared.get_mut(e()) };
                    // SAFETY: as above.
                    Stay::from(unsafe { soa_step_sink(view, topo, el, i, tick, hooks) })
                }
                _ => {
                    // SAFETY: as above.
                    let el = unsafe { shared.get_mut(e()) };
                    // SAFETY: as above.
                    unsafe { soa_step_tile(view, topo, el, i, tick, num_ports, hooks) }
                }
            };
            soa_rearm(
                view,
                topo,
                i,
                p,
                tick,
                before,
                stay,
                H::REVISIT_CAPTURES,
                pinned,
                core,
                own,
                outbox,
                allow_cross,
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
    /// Whether an element that captured stays armed one more edge, on
    /// top of its stamped accept marker ([`soa_drained`]). Fault runs keep
    /// that edge for three things no other wake covers: a stage left
    /// blocked schedules its register upset's timed wake
    /// ([`sleep_holding`](Self::sleep_holding)); a consumer takes the
    /// duplicate a stuck `valid` re-presents, which is the same flit and so
    /// not "newly presented"; and a stage whose capture latched nothing
    /// under metastability is re-armed, since no drain wakes an empty stage.
    const REVISIT_CAPTURES: bool = Self::ON;
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
    /// `i` latched `flit`: returns the tick its register upset fires.
    #[inline(always)]
    fn latch(&mut self, _i: usize, _tick: u64, _flit: &Flit) -> u64 {
        u64::MAX
    }
    /// `i` goes to sleep holding a flit whose upset fires at `upset`:
    /// schedules a timed wake for that tick.
    #[inline(always)]
    fn sleep_holding(&mut self, _i: usize, _tick: u64, _upset: u64) {}
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
    ops: &'a mut Vec<FaultOp>,
    /// Timed wakes `(tick, slot)` of this shard.
    timed: &'a mut BinaryHeap<Reverse<(u64, u32)>>,
}

impl<const TRACE: bool> FaultLane<'_, TRACE> {
    /// Moves the operations a hook just logged into the shard log.
    fn stamp(&mut self, tick: u64, i: usize) {
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
        self.ctx.upset_tick(self.key(i), tick, flit)
    }
    fn sleep_holding(&mut self, i: usize, tick: u64, upset: u64) {
        if upset != u64::MAX {
            debug_assert!(upset > tick, "a due upset fires in the visit");
            self.timed.push(Reverse((upset, i as u32)));
        }
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
/// * an element that just *captured* wakes the drained upstream: it must
///   observe the drain on its very next edge. Only a capture writes the
///   accept marker, stamped with its tick, and it reads as a drain only
///   on the next tick ([`soa_drained`]), the one tick on which the dense
///   loop still holds it; so no visit is spent clearing it. Fault runs
///   still revisit the capturing element (`revisit_captures`): a blocked
///   stage's upset wake, a stuck `valid`'s duplicate and an empty
///   metastable capture all need that edge ([`Hooks::REVISIT_CAPTURES`]);
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
fn soa_rearm(
    view: SoaView<'_>,
    topo: &SoaTopo,
    i: usize,
    p: usize,
    tick: u64,
    before: Option<Flit>,
    stay: Stay,
    revisit_captures: bool,
    pinned: &[bool],
    core: &mut ShardCore,
    own: &Range<usize>,
    outbox: &mut Vec<u32>,
    allow_cross: bool,
) {
    // SAFETY: `i` belongs to this worker this tick.
    let out = unsafe { view.out.get(i) };
    // SAFETY: as above.
    let captured = unsafe {
        if *view.acc_at.get(i) == tick {
            *view.acc.get(i)
        } else {
            NONE_U32
        }
    };
    let armed = match stay {
        Stay::Pin => pinned[i],
        Stay::Armed => true,
        Stay::Stalled => false,
    };
    if armed || (revisit_captures && captured != NONE_U32) {
        core.arm(own, p, i);
    }
    let mut wake = |idx: usize, core: &mut ShardCore| {
        if own.contains(&idx) {
            core.arm(own, p ^ 1, idx);
        } else {
            assert!(
                allow_cross,
                "cross-shard wake inside a batched lookahead window"
            );
            core.wakes_sent += 1;
            outbox.push(idx as u32);
        }
    };
    if captured != NONE_U32 {
        wake(captured as usize, core);
    }
    if let Some(flit) = out.as_ref().filter(|_| *out != before) {
        for &d in topo.downs(i) {
            // SAFETY: downstreams are frozen opposite-parity reads.
            if unsafe { soa_may_capture(view, topo, d as usize, i as u32, flit) } {
                wake(d as usize, core);
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
///
/// # Safety
/// `d` must be a frozen opposite-parity neighbour this tick.
#[inline]
unsafe fn soa_may_capture(
    view: SoaView<'_>,
    topo: &SoaTopo,
    d: usize,
    u: u32,
    flit: &Flit,
) -> bool {
    if topo.kind[d] != K_STAGE {
        return true;
    }
    // SAFETY: per the function contract.
    let (held, lock) = unsafe { (view.out.get(d).is_some(), *view.lock.get(d)) };
    !held && (lock == u || (lock == NONE_U32 && flit.opens_route() && topo.filter[d].wants(flit)))
}

/// `Network::was_drained` against the dense state: a downstream took
/// `i`'s flit on the previous tick. An accept marker counts only on the
/// tick after its stamp; the dense loop clears it on the capturing
/// element's next edge.
///
/// # Safety
/// The caller must own element `i` this tick; downstreams are frozen
/// opposite-parity reads.
#[inline]
unsafe fn soa_drained(view: SoaView<'_>, topo: &SoaTopo, i: usize, tick: u64) -> bool {
    // SAFETY: per the function contract.
    unsafe { view.out.get(i) }.is_some()
        && topo.downs(i).iter().any(|&d| {
            let d = d as usize;
            // SAFETY: downstreams are neighbour reads.
            unsafe { *view.acc.get(d) == i as u32 && view.acc_at.get(d).wrapping_add(1) == tick }
        })
}

/// Element `i` takes the flit its upstream `up` presents at `tick`: sets
/// its accept marker and stamps it.
///
/// # Safety
/// The caller must own element `i` this tick.
#[inline]
unsafe fn soa_accept(view: SoaView<'_>, i: usize, up: u32, tick: u64) {
    // SAFETY: per the function contract.
    unsafe {
        *view.acc.get_mut(i) = up;
        *view.acc_at.get_mut(i) = tick;
    }
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

/// The dense loop's stage step on the dense arrays. A frozen stage only
/// observes its drain; hooks that change state no handshake will revisit
/// — a frozen edge, a lost offer, an upset — keep the stage armed, and
/// so does a held flit on a traced run, whose every blocked edge emits a
/// `Blocked` event. Returns that stay condition.
///
/// # Safety
/// The caller must own element `i` this tick.
unsafe fn soa_step_stage<H: Hooks>(
    view: SoaView<'_>,
    topo: &SoaTopo,
    i: usize,
    tick: u64,
    hooks: &mut H,
) -> bool {
    if H::ON && hooks.frozen(i, tick) {
        // SAFETY: per the function contract.
        unsafe { soa_freeze(view, topo, i, tick) };
        return true;
    }
    // SAFETY: per the function contract.
    let mut drained = unsafe { soa_drained(view, topo, i, tick) };
    if H::ON && drained {
        // SAFETY: own element.
        let held = unsafe { *view.out.get(i) }.expect("drained implies held");
        drained = !hooks.stuck_valid(i, tick, &held);
    }
    let ups = topo.ups(i);
    let n = ups.len();
    let mut winner: Option<(usize, Flit)> = None;
    let mut contenders = 0u32;
    // SAFETY: own element.
    let locked = unsafe { *view.lock.get(i) };
    if locked != NONE_U32 {
        // SAFETY: the locked upstream is a neighbour read.
        if let Some(flit) = unsafe { view.out.get(locked as usize) } {
            let slot = ups
                .iter()
                .position(|&u| u == locked)
                .expect("lock always names an upstream");
            winner = Some((slot, *flit));
        }
    } else if n > 0 {
        let mut slot = match topo.arb[i] {
            // SAFETY: own element.
            Arbitration::RoundRobin => (unsafe { *view.rr.get(i) }) as usize,
            Arbitration::Priority => 0,
        };
        debug_assert!(slot < n, "round-robin pointer past the upstreams");
        for _ in 0..n {
            let u = ups[slot];
            // SAFETY: upstreams are neighbour reads.
            if let Some(flit) = unsafe { view.out.get(u as usize) } {
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
    // SAFETY: own element.
    let out = unsafe { view.out.get_mut(i) };
    let new_empty = out.is_none() || drained;
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
            // SAFETY: own element (every column).
            unsafe {
                soa_accept(view, i, upstream, tick);
                *out = latched;
                if flit.opens_route() {
                    *view.rr.get_mut(i) = next_slot(slot, n) as u32;
                }
                *view.lock.get_mut(i) = if flit.closes_route() {
                    NONE_U32
                } else {
                    upstream
                };
                *view.enabled.get_mut(i) += 1;
                if H::ON {
                    if let Some(latched) = latched {
                        *view.upset.get_mut(i) = hooks.latch(i, tick, &latched);
                    }
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
                *out = None;
            } else if let Some(held) = out.filter(|_| H::TRACE) {
                hooks.event(i, tick, TraceEventKind::Blocked, held);
            }
        }
    }
    if H::ON && out.is_some() {
        // SAFETY: own element.
        let upset = unsafe { *view.upset.get(i) };
        if tick >= upset {
            let flit = out.take().expect("checked above");
            hooks.upset(i, tick, &flit);
            if H::TRACE {
                let cause = DropCause::FaultUpset;
                hooks.event(i, tick, TraceEventKind::Dropped { cause }, flit);
            }
            stay = true;
        } else if !stay && !H::TRACE && unsafe { *view.acc_at.get(i) } != tick {
            // Blocked: the stage sleeps holding the flit until a drain
            // wakes it — or its upset does.
            hooks.sleep_holding(i, tick, upset);
        }
    }
    stay || (H::TRACE && out.is_some())
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
///
/// # Safety
/// The caller must own element `i` this tick.
unsafe fn soa_freeze(view: SoaView<'_>, topo: &SoaTopo, i: usize, tick: u64) {
    // SAFETY: per the function contract.
    unsafe {
        if soa_drained(view, topo, i, tick) {
            *view.out.get_mut(i) = None;
        }
    }
}

/// The dense loop's source step. Returns the kind-specific stay
/// condition (worm still emitting, or frozen); a visit that counts a
/// stall on an untraced run sleeps instead (see [`soa_rearm`]).
///
/// # Safety
/// The caller must own element `i` this tick, and `el` must be `i`'s
/// element.
unsafe fn soa_step_source<H: Hooks>(
    view: SoaView<'_>,
    topo: &SoaTopo,
    el: &mut Element,
    i: usize,
    tick: u64,
    num_ports: u32,
    hooks: &mut H,
) -> Stay {
    if H::ON && hooks.frozen(i, tick) {
        // SAFETY: per the function contract.
        unsafe { soa_freeze(view, topo, i, tick) };
        return Stay::Armed;
    }
    // SAFETY: per the function contract.
    let drained = unsafe { soa_drained(view, topo, i, tick) };
    // SAFETY: own element.
    let out = unsafe { view.out.get_mut(i) };
    if drained {
        *out = None;
    }
    let Kind::Source(state) = &mut el.kind else {
        unreachable!("soa_step_source called on non-source")
    };
    if H::LAZY_STALLS {
        // SAFETY: own element.
        state.stalled_edges += unsafe { wake_stalls(view, hooks, i, tick) };
    }
    // Retransmissions take the idle slot between packets — never
    // mid-worm.
    let mut retransmitted = None;
    if H::ON && out.is_none() && state.emitting.is_none() {
        retransmitted = el.faults.as_mut().and_then(|f| f.retx.pop_front());
        *out = retransmitted;
    }
    let mut injected = None;
    let mut stalled = false;
    if state.enabled || state.emitting.is_some() {
        if out.is_none() {
            if let Some(flit) = state.next_flit(tick, num_ports) {
                *out = Some(flit);
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
        emit_endpoint_events(hooks, i, tick, injected, retransmitted, *out, stalled);
    }
    if H::LAZY_STALLS && stalled {
        // SAFETY: own element.
        return unsafe { sleep_stalled(view, hooks, i, tick) };
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
///
/// # Safety
/// The caller must own element `i` this tick, and `el` must be `i`'s
/// element.
unsafe fn soa_step_sink<H: Hooks>(
    view: SoaView<'_>,
    topo: &SoaTopo,
    el: &mut Element,
    i: usize,
    tick: u64,
    hooks: &mut H,
) -> bool {
    if H::ON && hooks.frozen(i, tick) {
        return true;
    }
    // SAFETY: per the function contract.
    let (up, offered) = unsafe { soa_first_offer(view, topo, i) };
    let Kind::Sink(state) = &mut el.kind else {
        unreachable!("soa_step_sink called on non-sink")
    };
    let accepts = state.mode.accepts(tick / 2);
    let port = state.port;
    if let (true, Some(flit)) = (accepts, offered) {
        // SAFETY: own element.
        unsafe { soa_accept(view, i, up, tick) };
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
///
/// # Safety
/// The caller must own element `i` this tick, and `el` must be `i`'s
/// element.
unsafe fn soa_step_tile<H: Hooks>(
    view: SoaView<'_>,
    topo: &SoaTopo,
    el: &mut Element,
    i: usize,
    tick: u64,
    num_ports: u32,
    hooks: &mut H,
) -> Stay {
    if H::ON && hooks.frozen(i, tick) {
        // SAFETY: per the function contract.
        unsafe { soa_freeze(view, topo, i, tick) };
        return Stay::Armed;
    }
    // SAFETY: per the function contract.
    let drained = unsafe { soa_drained(view, topo, i, tick) };
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
    if H::LAZY_STALLS {
        // SAFETY: own element.
        state.stalled_edges += unsafe { wake_stalls(view, hooks, i, tick) };
    }
    let port = state.port;
    if offered.is_some() {
        // SAFETY: own element.
        unsafe { soa_accept(view, i, up, tick) };
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
        *out = retransmitted;
    }
    let mut injected = None;
    let mut stalled = false;
    if out_empty && retransmitted.is_none() {
        if let Some(flit) = state.next_flit(tick, num_ports) {
            *out = Some(flit);
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
        emit_endpoint_events(hooks, i, tick, injected, retransmitted, *out, stalled);
    }
    // Another upstream's offer may wait behind the one it took (a
    // ring-shortcut tile has two upstreams).
    let recheck = offered.is_some() && topo.ups(i).len() > 1;
    if H::LAZY_STALLS && stalled && state.pending.is_empty() && !recheck {
        // SAFETY: own element.
        return unsafe { sleep_stalled(view, hooks, i, tick) };
    }
    Stay::from(recheck || out.is_some() || !state.pending.is_empty())
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
        // Level-order numbering interleaves shards near the root; shard 2
        // and shard 4 are empty.
        let shard_of = [0u16, 1, 0, 1, 3, 0, 1, 1, 3, 0];
        let workers = 5;
        let slots = Slots::plan(&shard_of, workers);
        assert_eq!(slots.bounds, vec![0, 4, 8, 8, 10, 10]);
        for w in 0..workers {
            let range = slots.range(w);
            let members: Vec<u32> = range.clone().map(|s| slots.elem_of[s]).collect();
            let want: Vec<u32> = (0..shard_of.len() as u32)
                .filter(|&e| usize::from(shard_of[e as usize]) == w)
                .collect();
            // One contiguous range per shard, in ascending element order.
            assert_eq!(members, want, "shard {w}");
            assert!(range.clone().all(|s| slots.shard_of(s) == w), "shard {w}");
        }
        assert!(slots.range(2).is_empty() && slots.range(4).is_empty());
        for (e, &s) in slots.slot_of.iter().enumerate() {
            assert_eq!(slots.elem_of[s as usize] as usize, e);
            assert_eq!(
                slots.unpack(slots.pack(Some(ElementId(e as u32)))),
                Some(ElementId(e as u32))
            );
        }
        assert_eq!(slots.unpack(slots.pack(None)), None);
        // One shard is the identity layout.
        let lone = Slots::plan(&[0; 6], 1);
        assert_eq!(lone.slot_of, (0..6).collect::<Vec<u32>>());
        assert_eq!(lone.elem_of, lone.slot_of);
    }

    /// A 7-element chain `0-1-2-3-4-5-6` split 0..=3 / 4..=6: the cut
    /// edge is 3-4, so 3 and 4 are boundary and distances fan out from
    /// there. The split is already shard-major, so slots are elements.
    fn chain_topo() -> (SoaTopo, Slots) {
        let n = 7usize;
        let mut topo = SoaTopo::default();
        topo.up_off.push(0);
        topo.down_off.push(0);
        for i in 0..n {
            topo.kind.push(K_STAGE);
            topo.pol.push((i % 2) as u8);
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
        (topo, Slots::plan(&[0, 0, 0, 0, 1, 1, 1], 2))
    }

    #[test]
    fn boundary_distances_fan_out_from_cut() {
        let (topo, slots) = chain_topo();
        let dist = boundary_distances(&topo, &slots);
        assert_eq!(dist, vec![3, 2, 1, 0, 0, 1, 2]);
    }

    #[test]
    fn single_shard_has_unbounded_distances() {
        let (topo, _) = chain_topo();
        let dist = boundary_distances(&topo, &Slots::plan(&[0u16; 7], 1));
        assert!(dist.iter().all(|&d| d == u32::MAX), "{dist:?}");
    }

    #[test]
    fn routed_wake_arms_its_target_shard() {
        let (topo, slots) = chain_topo();
        let dist = boundary_distances(&topo, &slots);
        // Shard 0 woke slot 4, across the 3-4 cut.
        let mut bufs = vec![WorkerBufs::default(); 2];
        bufs[0].outbox.push(4);
        let mut wakes_received = vec![0u64; 2];
        let activity = route_wakes(&mut bufs, &mut wakes_received, &slots, &dist);
        let armed: Vec<&[u32]> = bufs.iter().map(|b| b.armed.as_slice()).collect();
        assert_eq!(armed, vec![&[][..], &[4][..]]);
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
                        let (base, ticks) = sync.window();
                        if ticks == 0 {
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
                sync.publish(serial, serial * 7, serial * 3);
                for w in 1..workers {
                    sync.wait_until(0, || sync.peers[w].0.done.load(Ordering::SeqCst) >= serial);
                }
            }
            sync.publish(rounds + 1, 0, 0);
        });
    }
}
