//! The discrete-event simulation kernel: a time-ordered event queue and a
//! FIFO off-chip memory channel.

use std::collections::VecDeque;

/// Simulation time in accelerator clock cycles.
pub(crate) type Cycles = u64;

/// A tile of the simulated image stream. Tiles order by `gid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Tile {
    /// Global id: tiles numbered image after image.
    pub gid: usize,
    /// Index in its image's tile graph (`gid` modulo the graph size),
    /// carried along so the hot loop never divides.
    pub id: usize,
}

/// Events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A DMA transfer of `tile` finished; `store` distinguishes stores
    /// from loads.
    DmaDone { tile: Tile, store: bool },
    /// Engine `ce` finished `tile`.
    CeDone { ce: usize, tile: Tile },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: Cycles,
    seq: u64,
    event: Event,
}

/// Time-ordered queue of [`Event`]s; same-time events pop in push order.
///
/// The queue is a plain array scanned for the minimum `(time, seq)`: the
/// DMA channel has at most one transfer in flight and each engine at most
/// one tile, so it never holds more than `engines + 1` entries, and a
/// scan of that few beats a heap. `seq` is unique, so the pop order is a
/// total order and does not depend on where an entry sits in the array.
#[derive(Debug)]
pub(crate) struct Events {
    entries: Vec<Entry>,
    seq: u64,
}

impl Events {
    /// An empty queue sized for `engines` compute engines and one DMA
    /// channel.
    pub(crate) fn new(engines: usize) -> Self {
        Self {
            entries: Vec::with_capacity(engines + 1),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute `time`.
    pub(crate) fn push(&mut self, time: Cycles, event: Event) {
        self.entries.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(Cycles, Event)> {
        let (first, rest) = self.entries.split_first()?;
        let mut best = 0;
        let mut key = (first.time, first.seq);
        for (i, e) in rest.iter().enumerate() {
            if (e.time, e.seq) < key {
                key = (e.time, e.seq);
                best = i + 1;
            }
        }
        let e = self.entries.swap_remove(best);
        Some((e.time, e.event))
    }
}

/// A serialized off-chip memory channel: one transfer at a time, FIFO by
/// request arrival (ties broken by tile id), with a fixed per-transfer
/// latency and burst-rounded occupancy.
#[derive(Debug)]
pub(crate) struct DmaChannel {
    /// Waiting requests `(arrival, tile, store, occupancy_bytes)`, sorted.
    /// Requests arrive in time order, so a new one only ever moves past
    /// same-time requests of higher tiles.
    waiting: VecDeque<(Cycles, Tile, bool, u64)>,
    busy: bool,
    latency: Cycles,
    bytes_per_cycle: f64,
    /// Total channel-busy cycles (for utilization stats).
    pub(crate) busy_cycles: Cycles,
}

impl DmaChannel {
    /// Creates a channel with `bytes_per_cycle` bandwidth and fixed
    /// per-transfer `latency`.
    pub(crate) fn new(bytes_per_cycle: f64, latency: Cycles) -> Self {
        Self {
            waiting: VecDeque::new(),
            busy: false,
            latency,
            bytes_per_cycle,
            busy_cycles: 0,
        }
    }

    /// Enqueues a transfer request at time `now`. If the channel is idle
    /// the transfer starts immediately and its completion event is pushed.
    pub(crate) fn request(
        &mut self,
        now: Cycles,
        tile: Tile,
        store: bool,
        occupancy_bytes: u64,
        events: &mut Events,
    ) {
        let request = (now, tile, store, occupancy_bytes);
        debug_assert!(
            self.waiting.back().is_none_or(|last| last.0 <= now),
            "transfer requests arrive in time order"
        );
        let mut at = self.waiting.len();
        while at > 0 && self.waiting[at - 1] > request {
            at -= 1;
        }
        self.waiting.insert(at, request);
        if !self.busy {
            self.start_next(now, events);
        }
    }

    /// Called on a `DmaDone` event: frees the channel and starts the next
    /// waiting transfer, if any.
    pub(crate) fn on_done(&mut self, now: Cycles, events: &mut Events) {
        self.busy = false;
        self.start_next(now, events);
    }

    fn start_next(&mut self, now: Cycles, events: &mut Events) {
        if let Some((_, tile, store, bytes)) = self.waiting.pop_front() {
            let duration = self.latency + (bytes as f64 / self.bytes_per_cycle).ceil() as Cycles;
            self.busy = true;
            self.busy_cycles += duration;
            events.push(now + duration, Event::DmaDone { tile, store });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tile `gid` of a one-image stream.
    fn tile(gid: usize) -> Tile {
        Tile { gid, id: gid }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = Events::new(2);
        q.push(
            10,
            Event::CeDone {
                ce: 0,
                tile: tile(1),
            },
        );
        q.push(
            5,
            Event::DmaDone {
                tile: tile(0),
                store: false,
            },
        );
        q.push(
            10,
            Event::CeDone {
                ce: 1,
                tile: tile(2),
            },
        );
        assert_eq!(q.pop().unwrap().0, 5);
        // Same-time events pop in insertion order.
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, 10);
        assert_eq!(
            e,
            Event::CeDone {
                ce: 0,
                tile: tile(1)
            }
        );
        assert_eq!(
            q.pop().unwrap().1,
            Event::CeDone {
                ce: 1,
                tile: tile(2)
            }
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn dma_serializes_transfers() {
        let mut q = Events::new(1);
        // 1 byte/cycle, zero latency.
        let mut dma = DmaChannel::new(1.0, 0);
        dma.request(0, tile(0), false, 100, &mut q);
        dma.request(0, tile(1), false, 50, &mut q);
        // First completes at 100; second only starts then.
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 100);
        dma.on_done(t, &mut q);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, 150);
        assert_eq!(
            e,
            Event::DmaDone {
                tile: tile(1),
                store: false
            }
        );
        assert_eq!(dma.busy_cycles, 150);
    }

    #[test]
    fn dma_fifo_by_arrival() {
        let mut q = Events::new(1);
        let mut dma = DmaChannel::new(1.0, 10);
        dma.request(0, tile(5), false, 10, &mut q); // busy until 20
        dma.request(1, tile(3), false, 10, &mut q); // arrives second
        dma.request(2, tile(1), false, 10, &mut q); // arrives third
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 20);
        dma.on_done(t, &mut q);
        // Earliest ARRIVAL (tile 3) served before tile 1 despite lower id.
        let (_, e) = q.pop().unwrap();
        assert_eq!(
            e,
            Event::DmaDone {
                tile: tile(3),
                store: false
            }
        );
    }

    #[test]
    fn dma_latency_applies_per_transfer() {
        let mut q = Events::new(1);
        let mut dma = DmaChannel::new(16.0, 100);
        dma.request(0, tile(0), false, 160, &mut q);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 110);
    }
}
