//! The one place the parallel kernel hands borrows to threads the borrow
//! checker cannot follow.
//!
//! A batch's worker threads are parked between windows, and each window
//! lends them different slots: on a one-tick window each worker writes
//! its shard's range of the ticking half and reads all of the other; on
//! a batched window it writes its ranges of both halves
//! ([`Span`](super::Span)). The coordinator cuts those pieces with
//! `split_at_mut` ([`carve`]), so the compiler checks that no two workers
//! write one slot and that no one writes a slot another reads. What it
//! cannot check is that a parked thread, spawned for the whole batch,
//! gives a window's borrows back before the coordinator touches the slots
//! again. [`Desk::lend`] holds that line: it does not return, nor unwind,
//! until every lease it posted has been dropped.

use super::Lease;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;

/// Something a window plan cuts into pieces, like a slice.
pub(super) trait Split: Default {
    /// The first `mid` items, and the rest.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T> Split for &mut [T] {
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

/// Cuts `whole`, whose first item is slot `start`, into the pieces
/// `ranges` names, front to back. The ranges must be ascending and
/// pairwise disjoint; slots between them are dropped.
pub(super) fn carve<S: Split>(
    whole: S,
    start: usize,
    ranges: impl IntoIterator<Item = Range<usize>>,
) -> impl Iterator<Item = S> {
    let (mut rest, mut at) = (whole, start);
    ranges.into_iter().map(move |r| {
        assert!(
            r.start >= at,
            "leased range {r:?} overlaps the one before it"
        );
        let (_, tail) = std::mem::take(&mut rest).split_at(r.start - at);
        let (piece, tail) = tail.split_at(r.len());
        (rest, at) = (tail, r.end);
        piece
    })
}

/// One worker's mailbox, on cache lines of its own: the coordinator
/// writes it once a window, and the worker waits on it.
#[repr(align(128))]
struct Mailbox<'e> {
    /// The posted lease; `None` ends the batch.
    lease: Mutex<Option<Lease<'e, 'e>>>,
    /// Set once the coordinator has posted the worker's next lease (or
    /// the batch's end), cleared once the worker has dropped it.
    posted: AtomicBool,
    /// Whether the worker may be parked (set before parking, cleared by
    /// wakers and on wake-up).
    parked: AtomicBool,
    /// The worker's thread handle, registered once at batch start.
    thread: OnceLock<Thread>,
}

/// A batch's window hand-off. Worker `w` waits at mailbox `w` for each
/// window's lease; the coordinator, worker 0, keeps its own lease and
/// waits at mailbox 0 for the others to come back. All flag accesses are
/// `SeqCst`: the single total order makes the park/unpark handshake
/// auditable (a waker's flag store and `parked` swap either precede the
/// waiter's re-check, which then sees the flag, or follow its `parked`
/// store, which the swap then sees).
pub(super) struct Desk<'e> {
    boxes: Vec<Mailbox<'e>>,
    /// Set when a worker panics inside a window.
    poisoned: AtomicBool,
}

impl<'e> Desk<'e> {
    pub(super) fn new(workers: usize) -> Self {
        let boxes = (0..workers)
            .map(|_| Mailbox {
                lease: Mutex::new(None),
                posted: AtomicBool::new(false),
                parked: AtomicBool::new(false),
                thread: OnceLock::new(),
            })
            .collect();
        let poisoned = AtomicBool::new(false);
        Self { boxes, poisoned }
    }

    /// Registers the calling thread as worker `w`, so the others can
    /// unpark it.
    pub(super) fn register(&self, w: usize) {
        let _ = self.boxes[w].thread.set(std::thread::current());
    }

    /// Posts worker `w`'s lease, or with `None` the batch's end.
    fn post(&self, w: usize, lease: Option<Lease<'e, 'e>>) {
        let mailbox = &self.boxes[w];
        *mailbox
            .lease
            .lock()
            .expect("a lease moves in and out whole") = lease;
        mailbox.posted.store(true, Ordering::SeqCst);
        self.wake(w);
    }

    /// Posts worker `w`'s lease for `w ≥ 1`, then runs `during` on worker
    /// 0's own, and waits until every posted lease is dropped before
    /// returning — or unwinding. Panics, once the others are back, if a
    /// worker panicked.
    pub(super) fn lend<'w, R>(
        &self,
        leases: impl IntoIterator<Item = Lease<'w, 'e>>,
        during: impl FnOnce(Lease<'w, 'e>) -> R,
    ) -> R
    where
        'e: 'w,
    {
        let mut leases = leases.into_iter();
        let own = leases.next().expect("a lease for worker 0");
        for (w, lease) in (1..self.boxes.len()).zip(leases) {
            // SAFETY: only the `'w` borrows are stretched. A worker sees
            // the lease only inside `serve`, under a fresh lifetime, and
            // drops it before clearing `posted`; `Back` keeps this call,
            // and so the `'w` borrows, alive until every `posted` flag is
            // clear, even while unwinding.
            let lease = unsafe { std::mem::transmute::<Lease<'w, 'e>, Lease<'e, 'e>>(lease) };
            self.post(w, Some(lease));
        }
        let r = {
            let _back = Back(self);
            during(own)
        };
        if self.poisoned.load(Ordering::SeqCst) {
            self.close();
            panic!("a worker panicked inside a window");
        }
        r
    }

    /// Ends the batch: every worker's next [`serve`](Self::serve)
    /// returns `None`.
    pub(super) fn close(&self) {
        for w in 1..self.boxes.len() {
            self.post(w, None);
        }
    }

    /// Waits for worker `w`'s next lease, runs `f` on it and hands it
    /// back; `None` once the batch has ended.
    pub(super) fn serve<R>(&self, w: usize, f: impl FnOnce(Lease<'_, 'e>) -> R) -> Option<R> {
        let mailbox = &self.boxes[w];
        self.wait_until(w, || mailbox.posted.load(Ordering::SeqCst));
        let mut mail = mailbox
            .lease
            .lock()
            .expect("a lease moves in and out whole");
        let lease = mail.take()?;
        drop(mail);
        let _back = Return(self, w);
        Some(f(lease))
    }

    /// Unparks worker `w` if it is (or is about to go) parked. A stale
    /// unpark token at worst makes the next `park` return spuriously;
    /// every wait re-checks its condition in a loop.
    fn wake(&self, w: usize) {
        let mailbox = &self.boxes[w];
        if mailbox.parked.swap(false, Ordering::SeqCst) {
            if let Some(thread) = mailbox.thread.get() {
                thread.unpark();
            }
        }
    }

    /// Spins briefly, then parks worker `me` until `cond` holds. The
    /// park timeout is a belt-and-braces bound, not a correctness
    /// requirement: every flag change is followed by a `wake`.
    fn wait_until(&self, me: usize, cond: impl Fn() -> bool) {
        let parked = &self.boxes[me].parked;
        for rounds in 0u32.. {
            if cond() {
                return;
            } else if rounds < 128 {
                std::hint::spin_loop();
            } else if rounds < 160 {
                std::thread::yield_now();
            } else {
                parked.store(true, Ordering::SeqCst);
                if !cond() {
                    std::thread::park_timeout(std::time::Duration::from_millis(1));
                }
                parked.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// Waits, on drop, until every posted lease is back; ends the batch if
/// the coordinator is unwinding, so the workers exit.
struct Back<'d, 'e>(&'d Desk<'e>);

impl Drop for Back<'_, '_> {
    fn drop(&mut self) {
        let desk = self.0;
        let back = || {
            desk.boxes[1..]
                .iter()
                .all(|b| !b.posted.load(Ordering::SeqCst))
        };
        desk.wait_until(0, back);
        if std::thread::panicking() {
            desk.close();
        }
    }
}

/// Hands worker `w`'s lease back on drop, once it has been dropped;
/// marks the desk poisoned if the worker is unwinding.
struct Return<'d, 'e>(&'d Desk<'e>, usize);

impl Drop for Return<'_, '_> {
    fn drop(&mut self) {
        let Self(desk, w) = *self;
        if std::thread::panicking() {
            desk.poisoned.store(true, Ordering::SeqCst);
        }
        desk.boxes[w].posted.store(false, Ordering::SeqCst);
        desk.wake(0);
    }
}

/// A window's pieces are cut from ascending, disjoint ranges only.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "overlaps")]
    fn carve_rejects_overlapping_ranges() {
        let mut slots = [0u32; 8];
        carve(&mut slots[..], 0, [0..4, 3..6]).for_each(drop);
    }
}
