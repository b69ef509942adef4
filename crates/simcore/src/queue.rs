//! The event calendar: a two-level timing wheel with an overflow heap,
//! popping in `(time, push order)` order.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the near-wheel bucket width: 2^13 ps = 8.192 ns, about one
/// 64 B frame's serialization at 100 Gb/s.
const BUCKET_BITS: u32 = 13;
/// log2 of buckets per block: 512 buckets = 4.19 µs, the far wheel's slot
/// width and the shortest reach of the near window.
const BLOCK_BITS: u32 = 9;
/// Near-wheel slots: two blocks, so the window always reaches at least one
/// whole block (4.19 µs) past the cursor and at most two (8.39 µs).
const NEAR_SLOTS: usize = 2 << BLOCK_BITS;
/// Far-wheel slots, one block each: 256 × 4.19 µs ≈ 1.07 ms of reach.
const FAR_SLOTS: usize = 256;
/// End-of-list marker for the intrusive slab lists.
const NIL: u32 = u32::MAX;

/// One slab entry: a pending event, its firing time, and the next entry
/// of whichever wheel list it sits on (or of the free list once its event
/// has moved into the run).
struct Slot<E> {
    time: Time,
    next: u32,
    event: Option<E>,
}

/// A discrete-event calendar.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed, which makes whole-simulation
/// runs reproducible.
///
/// # Push contract
///
/// An event may be pushed at any instant at or after the last popped one
/// (`push` panics otherwise). `Scheduler::at`, `Simulation::schedule` and
/// `Simulation::with_model_at` already enforce this one level up.
///
/// # Structure
///
/// Events waiting on a wheel or in the overflow live in one slab, threaded
/// onto intrusive lists, so memory is O(pending) and no bucket owns a
/// buffer. Time is cut into 8.192 ns *buckets*, grouped into 4.19 µs
/// *blocks*:
///
/// * **Run.** The cursor bucket's events, sorted by time (stably, so
///   push order breaks ties), popped from the back. A push at or before
///   the cursor bucket — every same-instant `Scheduler::immediately`
///   follow-up and PFC pause/resume cascade — is a sorted insert, O(1)
///   when it lands behind every pending event at its instant.
/// * **Near wheel.** 1,024 bucket lists covering the blocks open to it:
///   the cursor's block and the next. A bucket list moves into the run,
///   and is sorted, when the cursor reaches it.
/// * **Far wheel.** 256 block lists (≈ 1.07 ms). A block cascades into
///   the near wheel, in push order, when the cursor enters the block
///   before it.
/// * **Overflow.** A `(time, seq)` heap for everything later, moving into
///   the wheels as their reach passes over it.
///
/// A tier receives a bucket's (or block's) events from the farther tier
/// *before* any direct push can land there, so list order is push order
/// and no sequence number is stored outside the overflow heap.
///
/// The widths come from the push-delay mix of a 64-host leaf-spine DSH
/// run: ~23% of pushes land ~5 ns out (64 B ACK/PFC serialization), ~23%
/// ~82 ns (MTU `TxDone`), ~46% 1–4 µs (`Arrive`: serialization plus
/// propagation) and ~7% 16–64 µs (DCQCN timers). The near window covers
/// the first three (≈ 93%); the far wheel takes the timers.
///
/// # Example
///
/// ```
/// use dsh_simcore::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(10), 'b');
/// q.push(Time::from_ns(10), 'c');
/// q.push(Time::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list threaded through `Slot::next`.
    free: u32,
    /// The cursor bucket (and anything pushed behind it), sorted by
    /// descending time; the next event is the last entry.
    run: Vec<(Time, E)>,
    /// Near-wheel bucket lists (newest first) and their occupancy bits.
    near: Box<[u32]>,
    near_bits: [u64; NEAR_SLOTS / 64],
    /// Far-wheel block lists (oldest first) and their occupancy bits.
    far_head: Box<[u32]>,
    far_tail: Box<[u32]>,
    far_bits: [u64; FAR_SLOTS / 64],
    /// Events beyond the far wheel, keyed by `(time, seq)`.
    overflow: BinaryHeap<Reverse<(Time, u64, u32)>>,
    overflow_seq: u64,
    /// Absolute index of the cursor bucket: every event in `run` fires in
    /// it or earlier, every event on a wheel list later.
    cursor: u64,
    /// Last block open to the near wheel: `cursor`'s block plus one.
    open: u64,
    /// Time of the most recently popped event (the push floor).
    now: Time,
    len: usize,
}

/// The absolute bucket index of `t`.
#[inline]
fn bucket(t: Time) -> u64 {
    t.as_ps() >> BUCKET_BITS
}

/// Circular distance from `start` to the first set bit of `bits`, or
/// `None` if none is set.
#[inline]
fn next_set(bits: &[u64], start: usize) -> Option<usize> {
    let n = bits.len() * 64;
    let (w0, b0) = (start / 64, start % 64);
    // The first word is visited twice: bits at and above `start` first,
    // the wrapped-around bits below it last.
    for k in 0..=bits.len() {
        let w = (w0 + k) % bits.len();
        let word = if k == 0 { bits[w] & (!0 << b0) } else { bits[w] };
        if word != 0 {
            let slot = w * 64 + word.trailing_zeros() as usize;
            return Some((slot + n - start) % n);
        }
    }
    None
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar that holds up to `capacity` pending
    /// events without allocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue {
            slab: Vec::new(),
            free: NIL,
            run: Vec::new(),
            near: vec![NIL; NEAR_SLOTS].into_boxed_slice(),
            near_bits: [0; NEAR_SLOTS / 64],
            far_head: vec![NIL; FAR_SLOTS].into_boxed_slice(),
            far_tail: vec![NIL; FAR_SLOTS].into_boxed_slice(),
            far_bits: [0; FAR_SLOTS / 64],
            overflow: BinaryHeap::new(),
            overflow_seq: 0,
            cursor: 0,
            open: 1,
            now: Time::ZERO,
            len: 0,
        };
        q.reserve(capacity);
        q
    }

    /// Makes room for `additional` more pending events in every tier, so
    /// the calendar does not allocate again until it holds more than
    /// `len() + additional`.
    pub fn reserve(&mut self, additional: usize) {
        // The slab is reserved past its free slots; the run and the
        // overflow heap may each end up holding every pending event.
        let want = self.len + additional;
        self.slab.reserve(want.saturating_sub(self.slab.len()));
        self.run.reserve(want.saturating_sub(self.run.len()));
        self.overflow.reserve(want.saturating_sub(self.overflow.len()));
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the last popped instant.
    #[inline]
    pub fn push(&mut self, time: Time, event: E) {
        assert!(time >= self.now, "event pushed into the past ({time:?} < {:?})", self.now);
        self.len += 1;
        let b = bucket(time);
        if b <= self.cursor {
            // Behind every pending event at `time` (this push has the
            // largest sequence), ahead of every later one.
            if self.run.last().is_none_or(|&(t, _)| t > time) {
                self.run.push((time, event));
            } else {
                let at = self.run.partition_point(|&(t, _)| t > time);
                self.run.insert(at, (time, event));
            }
            return;
        }
        self.file_new(time, b, event);
    }

    /// Stores a new event in the slab and files it on a wheel (`b` is
    /// after the cursor). Kept out of `push`: written inline there, it
    /// made the same-instant cascade probe ~2.5× slower.
    fn file_new(&mut self, time: Time, b: u64, event: E) {
        let slot = Slot { time, next: NIL, event: Some(event) };
        let i = if self.free == NIL {
            let i = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("calendar slab outgrew u32 indices");
            self.slab.push(slot);
            i
        } else {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = slot;
            i
        };
        self.file(i, b);
    }

    /// Files slab entry `i`, firing in bucket `b` (after the cursor), on
    /// the near wheel, the far wheel or the overflow heap.
    #[inline]
    fn file(&mut self, i: u32, b: u64) {
        let block = b >> BLOCK_BITS;
        if block <= self.open {
            let s = b as usize & (NEAR_SLOTS - 1);
            self.slab[i as usize].next = self.near[s];
            self.near[s] = i;
            self.near_bits[s / 64] |= 1 << (s % 64);
        } else if block <= self.open + FAR_SLOTS as u64 {
            let s = block as usize & (FAR_SLOTS - 1);
            self.slab[i as usize].next = NIL;
            if self.far_head[s] == NIL {
                self.far_head[s] = i;
                self.far_bits[s / 64] |= 1 << (s % 64);
            } else {
                self.slab[self.far_tail[s] as usize].next = i;
            }
            self.far_tail[s] = i;
        } else {
            let time = self.slab[i as usize].time;
            self.overflow.push(Reverse((time, self.overflow_seq, i)));
            self.overflow_seq += 1;
        }
    }

    /// The first occupied near-wheel bucket (all lie in
    /// `(cursor, cursor + NEAR_SLOTS)`).
    #[inline]
    fn next_near(&self) -> Option<u64> {
        let start = (self.cursor + 1) as usize & (NEAR_SLOTS - 1);
        next_set(&self.near_bits, start).map(|d| self.cursor + 1 + d as u64)
    }

    /// The first occupied far-wheel block (all lie in
    /// `(open, open + FAR_SLOTS]`).
    fn next_far(&self) -> Option<u64> {
        let start = (self.open + 1) as usize & (FAR_SLOTS - 1);
        next_set(&self.far_bits, start).map(|d| self.open + 1 + d as u64)
    }

    /// Earliest firing time on the slab list starting at `i`.
    fn list_min(&self, mut i: u32) -> Time {
        let mut min = Time::MAX;
        while i != NIL {
            let slot = &self.slab[i as usize];
            min = min.min(slot.time);
            i = slot.next;
        }
        min
    }

    /// Moves the cursor forward to bucket `to`, which holds the earliest
    /// pending event, over an empty run and empty buckets: opens the
    /// blocks it brings into reach, then sorts its bucket into the run.
    fn advance(&mut self, to: u64) {
        debug_assert!(to > self.cursor && self.run.is_empty());
        let was_open = self.open;
        self.cursor = to;
        self.open = (to >> BLOCK_BITS) + 1;
        // Newly opened far blocks cascade into the near wheel in list
        // order (push order), ahead of any direct push into them.
        for block in was_open + 1..=self.open.min(was_open + FAR_SLOTS as u64) {
            let s = block as usize & (FAR_SLOTS - 1);
            let mut i = std::mem::replace(&mut self.far_head[s], NIL);
            self.far_bits[s / 64] &= !(1 << (s % 64));
            while i != NIL {
                let next = self.slab[i as usize].next;
                self.file(i, bucket(self.slab[i as usize].time));
                i = next;
            }
        }
        let reach = self.open + FAR_SLOTS as u64;
        while let Some(&Reverse((t, _, i))) = self.overflow.peek() {
            if bucket(t) >> BLOCK_BITS > reach {
                break;
            }
            self.overflow.pop();
            self.file(i, bucket(t));
        }
        let s = to as usize & (NEAR_SLOTS - 1);
        let mut i = std::mem::replace(&mut self.near[s], NIL);
        self.near_bits[s / 64] &= !(1 << (s % 64));
        // The list is newest first, so a stable sort by descending time
        // leaves the oldest of each instant at the back.
        while i != NIL {
            let slot = &mut self.slab[i as usize];
            self.run.push((slot.time, slot.event.take().expect("a filed slot holds its event")));
            let next = std::mem::replace(&mut slot.next, self.free);
            self.free = i;
            i = next;
        }
        self.run.sort_by_key(|&(t, _)| Reverse(t));
    }

    /// The earliest pending time, with that event at the back of the run;
    /// `None` if the calendar is empty or, to keep the cursor from running
    /// ahead of a deadline, if the next bucket starts after `limit`.
    #[inline]
    fn front(&mut self, limit: Time) -> Option<Time> {
        loop {
            if let Some(&(t, _)) = self.run.last() {
                return Some(t);
            }
            let to = match self.next_near() {
                Some(b) => b,
                None => match self.next_far() {
                    Some(block) => block << BLOCK_BITS,
                    None => bucket(self.overflow.peek()?.0 .0),
                },
            };
            if to << BUCKET_BITS > limit.as_ps() {
                return None;
            }
            self.advance(to);
        }
    }

    /// Pops the run's back entry, which fires at `t`.
    #[inline]
    fn pop_front(&mut self, t: Time) -> E {
        let (_, event) = self.run.pop().expect("front() left the next event in the run");
        self.len -= 1;
        self.now = t;
        event
    }

    /// Removes and returns the earliest event, or `None` if the calendar is
    /// empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_before(Time::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`; leaves the calendar's contents untouched otherwise.
    ///
    /// This is the run-loop primitive: one call replaces the
    /// `peek_time` + `pop` pair.
    #[inline]
    pub fn pop_before(&mut self, deadline: Time) -> Option<(Time, E)> {
        let t = self.front(deadline).filter(|&t| t <= deadline)?;
        Some((t, self.pop_front(t)))
    }

    /// Removes and returns the earliest event if it fires strictly before
    /// `bound`; leaves the calendar's contents untouched otherwise.
    ///
    /// This is the conservative-window primitive: a lookahead window
    /// `[start, stop)` is half-open, so the partition driver drains
    /// events with `pop_strictly_before(stop)` and leaves everything at
    /// `stop` itself for the next window (after cross-partition inboxes
    /// for that instant have been merged).
    #[inline]
    pub fn pop_strictly_before(&mut self, bound: Time) -> Option<(Time, E)> {
        self.pop_before(Time::from_ps(bound.as_ps().checked_sub(1)?))
    }

    /// Removes and returns the earliest event only if it fires at exactly
    /// `now` and satisfies `pred`; leaves the calendar's contents untouched
    /// otherwise.
    ///
    /// This honors the full `(time, seq)` order — it pops the event that
    /// an ordinary [`EventQueue::pop`] would pop next, never one behind
    /// it — so a dispatcher can fuse an adjacent same-instant pair
    /// without perturbing the event order.
    #[inline]
    pub fn pop_current_if(&mut self, now: Time, pred: impl FnOnce(&E) -> bool) -> Option<E> {
        if self.front(now)? != now {
            return None;
        }
        if !pred(&self.run.last()?.1) {
            return None;
        }
        Some(self.pop_front(now))
    }

    /// Returns the firing time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(&(t, _)) = self.run.last() {
            return Some(t);
        }
        if let Some(b) = self.next_near() {
            return Some(self.list_min(self.near[b as usize & (NEAR_SLOTS - 1)]));
        }
        if let Some(block) = self.next_far() {
            return Some(self.list_min(self.far_head[block as usize & (FAR_SLOTS - 1)]));
        }
        self.overflow.peek().map(|e| e.0 .0)
    }

    /// Number of pending events.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar has no pending events.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending event, in no particular order: an inspection aid for
    /// invariant checks over what is in flight (pop order is what
    /// [`EventQueue::pop`] yields).
    pub fn iter_unordered(&self) -> impl Iterator<Item = &E> {
        let filed = self.slab.iter().filter_map(|s| s.event.as_ref());
        self.run.iter().map(|(_, e)| e).chain(filed)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// A pending event in the oracle heap.
    struct Entry<E> {
        time: Time,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
            // pops first.
            other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The seed implementation: one binary heap ordered by `(time, seq)`.
    /// Kept as the ordering oracle for the equivalence property below.
    struct PureHeap<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> PureHeap<E> {
        fn new() -> Self {
            PureHeap { heap: BinaryHeap::new(), next_seq: 0 }
        }
        fn push(&mut self, time: Time, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }
        fn pop_if(&mut self, take: impl FnOnce(&Entry<E>) -> bool) -> Option<(Time, E)> {
            if self.heap.peek().is_some_and(take) {
                self.heap.pop().map(|e| (e.time, e.event))
            } else {
                None
            }
        }
        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|e| e.time)
        }
    }

    /// Picoseconds in one near-wheel bucket and in one block.
    const BUCKET: u64 = 1 << BUCKET_BITS;
    const BLOCK: u64 = BUCKET << BLOCK_BITS;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        // Once pushed straight into the run (t = 5 ns is in the cursor
        // bucket), once sorted out of a near-wheel bucket that interleaves
        // two instants.
        for (t, u) in
            [(Time::from_ns(5), Time::from_ns(6)), (Time::from_us(1), Time::from_ns(1_001))]
        {
            let mut q = EventQueue::new();
            for i in 0..100 {
                q.push(if i % 2 == 0 { u } else { t }, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            let expect: Vec<i32> =
                (0..100).filter(|i| i % 2 == 1).chain((0..100).step_by(2)).collect();
            assert_eq!(order, expect);
        }
    }

    #[test]
    fn peek_time_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(7), ());
        q.push(Time::from_ns(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        // Every tier answers peek_time without being advanced.
        for t in [Time::from_us(6), Time::from_us(500), Time::from_ms(9)] {
            let mut q = EventQueue::new();
            q.push(t + crate::Delta::from_ns(3), ());
            q.push(t, ());
            assert_eq!(q.peek_time(), Some(t));
        }
    }

    #[test]
    fn iter_unordered_visits_every_pending_event_once() {
        // One event per tier (run, near, far, overflow), then pop some.
        let mut q = EventQueue::new();
        for (i, t) in [Time::ZERO, Time::from_us(3), Time::from_us(500), Time::from_ms(9)]
            .into_iter()
            .enumerate()
        {
            q.push(t, i);
        }
        let mut seen: Vec<usize> = q.iter_unordered().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3]);
        q.pop();
        q.pop();
        let mut seen: Vec<usize> = q.iter_unordered().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, [2, 3], "popped events leave no trace in the slab");
    }

    #[test]
    fn same_instant_follow_ups_join_the_run_fifo() {
        // Events 1 and 2 are scheduled for t=10 before the clock gets
        // there; popping 1 advances the clock, so 3 and 4 are inserted
        // into the run — yet 2 (pushed earlier) must still pop first.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        q.push(Time::from_ns(10), 3);
        q.push(Time::from_ns(10), 4);
        assert_eq!(q.run.len(), 3, "same-instant pushes should join the run");
        assert_eq!(q.pop(), Some((Time::from_ns(10), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 3)));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_cascade_stays_in_the_run() {
        // A pause/resume-style cascade: every handler schedules a
        // follow-up at the current instant.
        let mut q = EventQueue::new();
        q.push(Time::from_us(5), 0);
        let mut order = Vec::new();
        while let Some((t, i)) = q.pop() {
            order.push(i);
            if i < 50 {
                q.push(t, i + 1);
                assert_eq!(q.run.len(), 1, "cascade event {i} left the run");
                assert_eq!(q.slab.len(), 1, "cascade follow-ups never touch the slab");
            }
        }
        assert_eq!(order, (0..=50).collect::<Vec<_>>());
    }

    #[test]
    fn far_and_overflow_events_keep_fifo_with_later_direct_pushes() {
        // 'a' is pushed while its instant lies beyond the far wheel, 'b'
        // while it is on the far wheel, 'c' once it is in the near window:
        // all three share one instant and must pop in push order.
        let t = Time::from_ms(3);
        let mut q = EventQueue::new();
        q.push(t, 'a');
        assert_eq!(q.overflow.len(), 1);
        q.push(t - crate::Delta::from_ms(1), 'x');
        assert_eq!(q.pop(), Some((t - crate::Delta::from_ms(1), 'x')));
        q.push(t, 'b');
        assert!(q.overflow.is_empty() && q.next_far().is_some(), "a and b share the far wheel");
        q.push(t - crate::Delta::from_us(2), 'y');
        assert_eq!(q.pop(), Some((t - crate::Delta::from_us(2), 'y')));
        q.push(t, 'c');
        assert!(q.next_far().is_none(), "the block has cascaded into the near wheel");
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    #[test]
    fn pop_before_leaves_the_cursor_behind_the_deadline() {
        let mut q = EventQueue::new();
        q.push(Time::from_ms(5), 1);
        assert_eq!(q.pop_before(Time::from_ms(1)), None);
        assert_eq!(q.cursor, 0, "a miss must not move the cursor past the deadline");
        // The gap before the far event still accepts pushes in order.
        q.push(Time::from_us(1), 0);
        assert_eq!(q.pop_before(Time::from_ms(1)), Some((Time::from_us(1), 0)));
        // A deadline inside the next event's bucket lets the cursor reach
        // that bucket; a push behind the event then still pops first.
        let t = Time::from_ps(1000 * BUCKET + BUCKET / 2);
        q.push(t, 2);
        assert_eq!(q.pop_before(Time::from_ps(t.as_ps() - 1)), None);
        assert_eq!(q.cursor, 1000);
        q.push(Time::from_ps(1000 * BUCKET + 1), 3);
        q.push(t, 4);
        let order: Vec<(Time, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [(Time::from_ps(1000 * BUCKET + 1), 3), (t, 2), (t, 4), (Time::from_ms(5), 1)]
        );
    }

    #[test]
    fn pop_before_respects_deadline_in_every_tier() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        assert_eq!(q.pop_before(Time::from_ns(9)), None);
        assert_eq!(q.pop_before(Time::from_ns(10)), Some((Time::from_ns(10), 1)));
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop_before(Time::from_ns(9)), None);
        assert_eq!(q.pop_before(Time::from_ns(10)), Some((Time::from_ns(10), 2)));
        for t in [Time::from_us(6), Time::from_us(500), Time::from_ms(9)] {
            q.push(t, 3);
            assert_eq!(q.pop_before(Time::from_ps(t.as_ps() - 1)), None);
            assert_eq!(q.pop_before(t), Some((t, 3)));
        }
        assert_eq!(q.pop_before(Time::MAX), None);
    }

    #[test]
    fn pop_strictly_before_is_exclusive_in_every_tier() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        assert_eq!(q.pop_strictly_before(Time::from_ns(10)), None);
        assert_eq!(q.pop_strictly_before(Time::from_ns(11)), Some((Time::from_ns(10), 1)));
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop_strictly_before(Time::from_ns(10)), None);
        assert_eq!(q.pop_strictly_before(Time::from_ns(11)), Some((Time::from_ns(10), 2)));
        for t in [Time::from_us(6), Time::from_us(500), Time::from_ms(9)] {
            q.push(t, 3);
            assert_eq!(q.pop_strictly_before(t), None);
            assert_eq!(q.pop_strictly_before(Time::from_ps(t.as_ps() + 1)), Some((t, 3)));
        }
        assert_eq!(q.pop_strictly_before(Time::ZERO), None);
        assert_eq!(q.pop_strictly_before(Time::MAX), None);
    }

    #[test]
    fn pop_current_if_only_takes_the_true_next_event() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        // Next is 2; a predicate rejecting it must not skip ahead.
        assert_eq!(q.pop_current_if(Time::from_ns(10), |&e| e == 3), None);
        assert_eq!(q.pop_current_if(Time::from_ns(10), |&e| e == 2), Some(2));
        q.push(Time::from_ns(10), 4);
        assert_eq!(q.pop_current_if(Time::from_ns(9), |_| true), None, "wrong instant");
        assert_eq!(q.pop_current_if(Time::from_ns(10), |&e| e == 4), Some(4));
        // Future events never match the current instant.
        q.push(Time::from_ns(20), 5);
        assert_eq!(q.pop_current_if(Time::from_ns(10), |_| true), None);
        assert_eq!(q.pop(), Some((Time::from_ns(20), 5)));
        // An injection instant on the far wheel still finds its event.
        q.push(Time::from_us(50), 6);
        assert_eq!(q.pop_current_if(Time::from_us(50), |&e| e == 6), Some(6));
    }

    #[test]
    fn reserved_capacity_covers_every_tier() {
        let mut q = EventQueue::with_capacity(64);
        let caps = (q.slab.capacity(), q.run.capacity(), q.overflow.capacity());
        for i in 0..64u64 {
            q.push(Time::from_us(i * 1_000), i);
        }
        while q.pop().is_some() {}
        assert_eq!(caps, (q.slab.capacity(), q.run.capacity(), q.overflow.capacity()));
    }

    #[test]
    #[should_panic(expected = "event pushed into the past")]
    fn push_before_the_last_popped_instant_panics() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        q.pop();
        q.push(Time::from_ns(9), 2);
    }

    #[test]
    fn next_set_scans_circularly() {
        let mut bits = [0u64; 4];
        assert_eq!(next_set(&bits, 17), None);
        bits[0] = 1 << 3;
        assert_eq!(next_set(&bits, 17), Some(256 - 17 + 3), "wraps to the low bits");
        assert_eq!(next_set(&bits, 3), Some(0));
        bits[2] = 1 << 63;
        assert_eq!(next_set(&bits, 17), Some(191 - 17));
    }

    /// A push time `now + delta` for one of several delay scales, chosen
    /// to hit every tier and the bucket, block and reach boundaries.
    fn push_time(now: Time, scale: u8, r: u64) -> Time {
        let ps = now.as_ps();
        // The first boundary of width `w` strictly after now, `k` widths
        // on, nudged one picosecond early or not.
        let edge = |w: u64, k: u64| ((ps / w + 1 + k) * w).saturating_sub(r & 1).max(ps);
        Time::from_ps(match scale {
            0 => ps,
            1 => ps + r % BUCKET,
            2 => ps + r % (4 * BLOCK),
            3 => ps + r % (FAR_SLOTS as u64 * BLOCK),
            4 => ps + r % (8 * FAR_SLOTS as u64 * BLOCK),
            5 => edge(BUCKET, r % 3),
            6 => edge(BLOCK, r % 3),
            _ => edge(BLOCK, FAR_SLOTS as u64 - 1 + r % 3),
        })
    }

    proptest! {
        /// Popping always yields a nondecreasing time sequence, and events
        /// with equal times preserve insertion order.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_ns(t), i);
            }
            let mut last: Option<(Time, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li);
                    }
                }
                last = Some((t, i));
            }
        }

        /// Event-trace equivalence against the pure-heap oracle: long
        /// interleavings of pushes at every delay scale (same instant,
        /// inside one bucket, the near window, the far wheel, the
        /// overflow, and exactly on bucket/block/reach boundaries) with
        /// every pop flavour produce the same results, operation by
        /// operation, from both implementations.
        #[test]
        fn prop_matches_pure_heap(
            ops in proptest::collection::vec((0u8..16, 0u64..1 << 40), 2000..2400)
        ) {
            let mut wheel = EventQueue::new();
            let mut oracle = PureHeap::new();
            let mut now = Time::ZERO;
            let mut next_id = 0u32;
            for (kind, r) in ops {
                let window = Time::from_ps(now.as_ps() + r % (4 * FAR_SLOTS as u64 * BLOCK));
                let (a, b) = match kind {
                    0..4 => (wheel.pop(), oracle.pop_if(|_| true)),
                    4 => (wheel.pop_before(window), oracle.pop_if(|e| e.time <= window)),
                    5 => (
                        wheel.pop_strictly_before(window),
                        oracle.pop_if(|e| e.time < window),
                    ),
                    6 => {
                        let keep = |e: &u32| !e.is_multiple_of(3);
                        (
                            wheel.pop_current_if(now, keep).map(|e| (now, e)),
                            oracle.pop_if(|e| e.time == now && keep(&e.event)),
                        )
                    }
                    7 => (None, None),
                    _ => {
                        let at = push_time(now, kind - 8, r);
                        wheel.push(at, next_id);
                        oracle.push(at, next_id);
                        next_id += 1;
                        (None, None)
                    }
                };
                prop_assert_eq!(&a, &b);
                if let Some((t, _)) = a {
                    now = t;
                }
                prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
                prop_assert_eq!(wheel.len(), oracle.heap.len());
            }
            // Drain both: the tails must match too.
            loop {
                let a = wheel.pop();
                let b = oracle.pop_if(|_| true);
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
