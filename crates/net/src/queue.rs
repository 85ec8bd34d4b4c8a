//! Bounded packet queues.
//!
//! Zolertia Firefly motes have 32 KB of RAM; Contiki-NG gives the MAC a
//! small fixed pool of queue buffers (`QUEUEBUF_NUM`, default 8). Queue
//! overflow under heavy traffic — "queue loss" — is one of the six metrics
//! in every figure of the paper, so the queue is a first-class type with
//! its own drop accounting.

use std::collections::VecDeque;

/// Statistics kept by a [`PacketQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets removed for transmission.
    pub dequeued: u64,
    /// Packets rejected because the queue was full (queue loss).
    pub dropped: u64,
    /// High-water mark of the queue length.
    pub peak_len: usize,
}

/// A bounded FIFO with per-destination extraction and drop accounting.
///
/// TSCH transmits "the oldest packet addressed to the neighbor of the
/// current cell", not simply the head of the queue, so extraction takes a
/// predicate ([`PacketQueue::pop_where`]). Capacities are small (≤ 64);
/// the linear scan is deliberate and cache-friendly.
///
/// # Example
///
/// ```
/// use gtt_net::PacketQueue;
///
/// let mut q: PacketQueue<u32> = PacketQueue::new(2);
/// assert!(q.push(1).is_ok());
/// assert!(q.push(2).is_ok());
/// assert_eq!(q.push(3), Err(3)); // full: queue loss
/// assert_eq!(q.stats().dropped, 1);
/// assert_eq!(q.pop_where(|&p| p == 2), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct PacketQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    stats: QueueStats,
    /// Bumped on every content mutation (see [`PacketQueue::mutations`]).
    mutations: u64,
}

impl<T> PacketQueue<T> {
    /// Creates a queue holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        PacketQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            stats: QueueStats::default(),
            mutations: 0,
        }
    }

    /// Monotonic content-mutation counter: moves whenever the set of
    /// queued packets may have changed. Consumers caching queue-derived
    /// answers (the MAC's next-transmission memo) compare counters
    /// instead of diffing contents; spurious bumps only cost a
    /// recomputation, so the counter is conservative.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Maximum number of packets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining free buffer slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Appends a packet.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` (handing the packet back) when the queue is
    /// full; the drop is counted as queue loss.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            self.stats.dropped += 1;
            return Err(item);
        }
        self.items.push_back(item);
        self.mutations += 1;
        self.stats.enqueued += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.items.len());
        Ok(())
    }

    /// Removes and returns the oldest packet.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.mutations += 1;
            self.stats.dequeued += 1;
        }
        item
    }

    /// Removes and returns the oldest packet matching `pred`.
    pub fn pop_where(&mut self, pred: impl Fn(&T) -> bool) -> Option<T> {
        let idx = self.items.iter().position(pred)?;
        let item = self.items.remove(idx);
        if item.is_some() {
            self.mutations += 1;
            self.stats.dequeued += 1;
        }
        item
    }

    /// Reference to the oldest packet matching `pred`, without removing it.
    pub fn peek_where(&self, pred: impl Fn(&T) -> bool) -> Option<&T> {
        self.items.iter().find(|t| pred(t))
    }

    /// Number of queued packets matching `pred`.
    pub fn count_where(&self, pred: impl Fn(&T) -> bool) -> usize {
        self.items.iter().filter(|t| pred(t)).count()
    }

    /// Iterates over queued packets, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Puts a packet back at the *front* of the queue.
    ///
    /// Used by the MAC to return an unacknowledged packet to the head of
    /// the line for retransmission: the packet was never really "gone", so
    /// the enqueue counter does not move and the matching pop's dequeue
    /// is undone. To keep the bound honest the packet is still rejected
    /// when the queue is full, which happens only if pushes took the
    /// place its pop freed while it was in flight.
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` (handing the packet back) when the queue is
    /// full; the drop is counted as queue loss, as [`PacketQueue::push`]
    /// counts it.
    pub fn requeue_front(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            self.stats.dropped += 1;
            return Err(item);
        }
        self.items.push_front(item);
        self.mutations += 1;
        // Undo the matching pop's dequeue count so stats reflect real
        // departures only.
        self.stats.dequeued = self.stats.dequeued.saturating_sub(1);
        Ok(())
    }

    /// Removes every queued packet matching `pred`, returning them in
    /// queue order. Used when a parent switch re-addresses queued traffic.
    pub fn drain_where(&mut self, pred: impl Fn(&T) -> bool) -> Vec<T> {
        let mut kept = VecDeque::with_capacity(self.items.len());
        let mut taken = Vec::new();
        for item in self.items.drain(..) {
            if pred(&item) {
                taken.push(item);
            } else {
                kept.push_back(item);
            }
        }
        self.items = kept;
        self.mutations += 1;
        self.stats.dequeued += taken.len() as u64;
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = PacketQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn overflow_counts_and_returns_packet() {
        let mut q = PacketQueue::new(1);
        q.push("a").unwrap();
        assert_eq!(q.push("b"), Err("b"));
        assert_eq!(q.push("c"), Err("c"));
        assert_eq!(q.stats().dropped, 2);
        assert_eq!(q.stats().enqueued, 1);
        assert!(q.is_full());
        assert_eq!(q.free(), 0);
    }

    #[test]
    fn pop_where_takes_oldest_match() {
        let mut q = PacketQueue::new(8);
        for i in [10, 21, 12, 23] {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_where(|&x| x > 20), Some(21));
        assert_eq!(q.pop_where(|&x| x > 20), Some(23));
        assert_eq!(q.pop_where(|&x| x > 20), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peek_and_count() {
        let mut q = PacketQueue::new(8);
        for i in [1, 2, 3, 4] {
            q.push(i).unwrap();
        }
        assert_eq!(q.peek_where(|&x| x % 2 == 0), Some(&2));
        assert_eq!(q.count_where(|&x| x % 2 == 0), 2);
        assert_eq!(q.len(), 4, "peek/count must not remove");
    }

    #[test]
    fn drain_where_partitions_in_order() {
        let mut q = PacketQueue::new(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let evens = q.drain_where(|&x| x % 2 == 0);
        assert_eq!(evens, vec![0, 2, 4]);
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn requeue_front_restores_order_and_stats() {
        let mut q = PacketQueue::new(4);
        q.push("a").unwrap();
        q.push("b").unwrap();
        let head = q.pop().unwrap();
        q.requeue_front(head).unwrap();
        assert_eq!(q.pop(), Some("a"), "requeued packet stays at the head");
        // One real departure so far ("a" popped twice but requeued once).
        assert_eq!(q.stats().dequeued, 1);
        assert_eq!(q.stats().enqueued, 2);
    }

    #[test]
    fn requeue_front_respects_capacity() {
        let mut q = PacketQueue::new(1);
        q.push(1).unwrap();
        assert_eq!(q.requeue_front(2), Err(2));
        assert_eq!(q.stats().dropped, 1, "the rejection is queue loss");
    }

    #[test]
    fn peak_len_tracks_high_water() {
        let mut q = PacketQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.pop();
        q.push(3).unwrap();
        assert_eq!(q.stats().peak_len, 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _: PacketQueue<u8> = PacketQueue::new(0);
    }
}
