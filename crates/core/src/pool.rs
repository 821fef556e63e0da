//! A lock-free bounded free list (Treiber stack) — the session-scratch
//! pool primitive behind [`crate::service::CodecService`].
//!
//! The classic Treiber stack pushes and pops heap nodes through one
//! atomic head pointer. This variant adapts it to a *pool*: the node
//! count is fixed up front (the pool's capacity bound), so nodes live in
//! a pre-allocated slab and the two stacks — **live** (parked items) and
//! **spare** (empty nodes) — exchange slab *indices* instead of
//! pointers. That shape buys three things at once:
//!
//! * **Lock-freedom.** [`FreeList::pop`] and [`FreeList::push`] are each
//!   one CAS loop on a single `AtomicU64`; no thread ever blocks another,
//!   so an event-loop worker preempted mid-checkout cannot stall its
//!   siblings the way a held `Mutex` can.
//! * **ABA safety without hazard pointers.** Each stack head packs a
//!   32-bit node index with a 32-bit tag that increments on every
//!   successful CAS. A thread that read a stale head/next pair simply
//!   fails its CAS (the tag moved) and retries — the classic
//!   pop-repush-same-node ABA cannot link a node to a dead successor.
//!   Reclamation is a non-problem: nodes are slab slots, never freed.
//! * **A hard capacity bound.** A push with no spare node means the pool
//!   is full; the item is handed back to the caller to drop. The old
//!   mutex pools enforced their cap by checking `Vec::len` under the
//!   lock; here the cap is structural.
//!
//! The item slot of each node is an [`UnsafeCell`]: exclusive access is
//! transferred by list membership (popping a node off either stack makes
//! the popping thread its unique owner until it pushes the node onto the
//! other stack), with the head CASes providing the release/acquire edges
//! that order the slot writes.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Sentinel index terminating a stack ("null" link).
const NIL: u32 = u32::MAX;

fn pack(index: u32, tag: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(index)
}

fn unpack(head: u64) -> (u32, u32) {
    (head as u32, (head >> 32) as u32)
}

#[derive(Debug)]
struct Node<T> {
    /// Slab index of the next node on whichever stack this node is on.
    /// Only the node's current owner writes it (just before linking the
    /// node back in), so relaxed loads suffice — a racing reader's stale
    /// value is discarded by its failing head CAS.
    next: AtomicU32,
    /// The parked item. `None` while the node sits on the spare stack.
    item: UnsafeCell<Option<T>>,
}

/// A bounded lock-free pool of `T`s; see the [module docs](self).
#[derive(Debug)]
pub struct FreeList<T> {
    slab: Box<[Node<T>]>,
    /// Packed `(index, tag)` head of the stack of parked items.
    live: AtomicU64,
    /// Packed `(index, tag)` head of the stack of empty nodes.
    spare: AtomicU64,
    /// Approximate number of parked items (stats only — updated after
    /// the fact, so a concurrent reader can be off by in-flight ops).
    len: AtomicUsize,
    /// High-water mark of `len` — the occupancy gauge telemetry scrapes
    /// to size pools: a peak pinned at capacity means sessions are
    /// being dropped instead of parked. Approximate like `len`.
    high_water: AtomicUsize,
}

// SAFETY: the UnsafeCell item slots are accessed only by the unique
// owner of a popped node (see module docs); the list itself is all
// atomics. Sharing the pool therefore only ever hands `T`s across
// threads, which `T: Send` permits.
unsafe impl<T: Send> Send for FreeList<T> {}
// SAFETY: same argument as the `Send` impl above — concurrent `&self`
// access goes through atomics, and the item slots are only touched
// under exclusive node ownership.
unsafe impl<T: Send> Sync for FreeList<T> {}

impl<T> FreeList<T> {
    /// An empty pool that can park at most `capacity` items. Capacity
    /// zero is legal and makes every [`FreeList::push`] bounce — pooling
    /// disabled.
    pub fn new(capacity: usize) -> FreeList<T> {
        let capacity = capacity.min(NIL as usize); // index space bound
        let slab: Box<[Node<T>]> = (0..capacity)
            .map(|i| Node {
                // Thread the whole slab onto the spare stack: node i
                // links to i+1, the last to NIL.
                next: AtomicU32::new(if i + 1 < capacity { (i + 1) as u32 } else { NIL }),
                item: UnsafeCell::new(None),
            })
            .collect();
        FreeList {
            slab,
            live: AtomicU64::new(pack(NIL, 0)),
            spare: AtomicU64::new(pack(if capacity > 0 { 0 } else { NIL }, 0)),
            len: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
        }
    }

    /// How many items can be parked at once.
    pub fn capacity(&self) -> usize {
        self.slab.len()
    }

    /// Approximate number of currently parked items.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when no items are parked (approximate, like [`FreeList::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peak number of items ever parked at once (approximate, like
    /// [`FreeList::len`]) — the occupancy gauge for pool sizing.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Pops a node off the stack at `head`, returning its slab index with
    /// exclusive ownership of the node. Lock-free: a failed CAS means
    /// another thread made progress.
    fn pop_node(&self, head: &AtomicU64) -> Option<usize> {
        let mut cur = head.load(Ordering::Acquire);
        loop {
            let (index, tag) = unpack(cur);
            if index == NIL {
                return None;
            }
            let next = self.slab[index as usize].next.load(Ordering::Relaxed);
            // Tag bump: even if `next` was read stale (the node was
            // popped and re-pushed meanwhile), the tag mismatch fails
            // this CAS instead of installing a dead link.
            let replacement = pack(next, tag.wrapping_add(1));
            match head.compare_exchange_weak(cur, replacement, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(index as usize),
                Err(observed) => cur = observed,
            }
        }
    }

    /// Pushes the exclusively-owned node `index` onto the stack at
    /// `head`, publishing the owner's writes to its item slot.
    fn push_node(&self, head: &AtomicU64, index: usize) {
        let mut cur = head.load(Ordering::Relaxed);
        loop {
            let (top, tag) = unpack(cur);
            self.slab[index].next.store(top, Ordering::Relaxed);
            let replacement = pack(index as u32, tag.wrapping_add(1));
            match head.compare_exchange_weak(cur, replacement, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Takes a parked item, or `None` when the pool is empty. Never
    /// blocks.
    pub fn pop(&self) -> Option<T> {
        let index = self.pop_node(&self.live)?;
        // SAFETY: popping off `live` made this thread the node's unique
        // owner; the Acquire on the head CAS ordered the pusher's slot
        // write before this read.
        let item = unsafe { (*self.slab[index].item.get()).take() };
        self.push_node(&self.spare, index);
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(item.expect("live node holds an item"))
    }

    /// Parks `item`, or hands it back as `Err` when the pool is at
    /// capacity (the caller drops it — bounded memory). Never blocks.
    ///
    /// # Errors
    ///
    /// `Err(item)` when all `capacity` slots already hold parked items.
    pub fn push(&self, item: T) -> Result<(), T> {
        let Some(index) = self.pop_node(&self.spare) else {
            return Err(item);
        };
        // SAFETY: unique ownership as in `pop`; the Release on the live
        // head CAS below publishes this write to the next popper.
        unsafe {
            *self.slab[index].item.get() = Some(item);
        }
        // Counted before the node is published: a popper can take it the
        // moment it is on `live`, and its decrement must not run ahead of
        // this increment or `len` wraps below zero. The increment is
        // sequenced before the Release CAS the popper's Acquire reads.
        let now = self.len.fetch_add(1, Ordering::Relaxed) + 1;
        self.push_node(&self.live, index);
        // Relaxed max: a racing lower value only under-reports a gauge.
        let mut peak = self.high_water.load(Ordering::Relaxed);
        while now > peak {
            match self.high_water.compare_exchange_weak(
                peak,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => peak = observed,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip_and_capacity_bound() {
        let pool = FreeList::new(2);
        assert_eq!(pool.capacity(), 2);
        assert!(pool.pop().is_none());
        assert!(pool.push(1u32).is_ok());
        assert!(pool.push(2).is_ok());
        assert_eq!(pool.push(3), Err(3), "full pool bounces the item back");
        assert_eq!(pool.len(), 2);
        // LIFO: the warmest item comes back first.
        assert_eq!(pool.pop(), Some(2));
        assert_eq!(pool.pop(), Some(1));
        assert!(pool.pop().is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn zero_capacity_disables_pooling() {
        let pool = FreeList::new(0);
        assert_eq!(pool.push(7u8), Err(7));
        assert!(pool.pop().is_none());
    }

    /// 8 threads hammer one pool with push/pop churn; every pushed value
    /// must come back exactly once (no loss, no duplication — the
    /// failures an ABA bug or a mis-ordered slot write would produce).
    #[test]
    fn concurrent_churn_conserves_items() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 2_000;
        let pool = Arc::new(FreeList::new(4));
        let recovered: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for round in 0..ROUNDS {
                            let value = t * ROUNDS + round;
                            if pool.push(value).is_err() {
                                got.push(value); // bounced: still accounted
                            }
                            if let Some(v) = pool.pop() {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = recovered;
        while let Some(v) = pool.pop() {
            all.push(v);
        }
        all.sort_unstable();
        let expected: Vec<u64> = (0..THREADS * ROUNDS).collect();
        assert_eq!(all.len(), expected.len(), "items lost or duplicated");
        assert_eq!(all, expected, "recovered set differs from pushed set");
    }
}
